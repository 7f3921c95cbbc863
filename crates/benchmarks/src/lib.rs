//! # benchmarks
//!
//! Stand-ins for the LGSynth91 instances used in Tables III and IV of the
//! paper.
//!
//! The original `.pla` files are not redistributed here. Two families of
//! replacements are generated instead (see `DESIGN.md` for the substitution
//! rationale):
//!
//! * [`arithmetic`] — instances whose behaviour is a public arithmetic
//!   function (`adr4`, `add6`, `radd`, `z4`, `dist`, `clip`, `log8mod`,
//!   `Z5xp1`, `max512`, `max1024`, `ex7`-like): these are regenerated exactly
//!   from their arithmetic definition, scaled where necessary to stay inside
//!   the dense-truth-table backend;
//! * [`synthetic`] — control-dominated PLAs (`br1`, `bcb`, `alcom`, …) that
//!   cannot be reconstructed from public information: seeded, deterministic
//!   random covers with a comparable number of inputs, outputs and cubes.
//!
//! Every instance is exposed as a [`BenchmarkInstance`] (a named list of
//! per-output incompletely specified functions plus a PLA rendering), and
//! [`Suite`] groups them the way the paper's tables do.
//!
//! A third family, [`symbolic`], describes 24–40 input instances the dense
//! backend cannot represent at all; they are built directly into a BDD
//! manager by the engine's symbolic backend and grouped by
//! [`Suite::large`].
//!
//! Finally, [`fuzz`] generates seeded random ISF corpora for the
//! cross-backend correctness fuzzer (`oracle_fuzz`): deterministic
//! single-output instances with varied arity and dc-set density, and
//! [`cold`] generates the small random covers a synthesis service sees as
//! never-repeated requests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arithmetic;
pub mod cold;
pub mod fuzz;
mod instance;
pub mod rng;
mod suite;
pub mod symbolic;
pub mod synthetic;

pub use instance::BenchmarkInstance;
pub use rng::DetRng;
pub use suite::{Suite, SuiteEntry};
pub use symbolic::{SymbolicFunction, SymbolicInstance};
