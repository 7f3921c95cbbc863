//! # bidecomposition
//!
//! Facade crate for the workspace reproducing *“Computing the full quotient in
//! bi-decomposition by approximation”* (Bernasconi, Ciriani, Cortadella, Villa —
//! DATE 2020).
//!
//! The workspace implements, from scratch:
//!
//! * [`boolfunc`] — cubes, covers, dense truth tables, incompletely specified
//!   functions and espresso-style PLA I/O;
//! * [`bdd`] — a reduced ordered BDD package (complement edges, unique
//!   subtables, ITE, dynamic variable ordering, model counting);
//! * [`sop`] — an espresso-style two-level minimizer;
//! * [`spp`] — 2-SPP (three-level XOR-AND-OR) forms, their heuristic minimization
//!   and the 0→1 approximation by pseudoproduct expansion;
//! * [`techmap`] — a gate library and local-covering technology mapper used for
//!   the area numbers of the evaluation;
//! * [`obs`] — the zero-dependency observability runtime (registry of atomic
//!   counters/gauges, deterministic log-bucketed latency histograms, span
//!   timers) threaded through the engine, BDD managers, cache and server;
//! * [`sat`] — a small deterministic CDCL SAT solver and Tseitin CNF builder,
//!   the engine behind [`bidecomp::Oracle`] (the third, structurally
//!   independent correctness judge next to the dense and BDD verifiers);
//! * [`bidecomp`] — the paper's contribution: the full quotient `h` with maximal
//!   flexibility for all ten binary operators (Table II), verification of
//!   Lemmas 1–5, and end-to-end decomposition drivers;
//! * [`benchmarks`] — regenerated / synthetic stand-ins for the LGSynth91 instances
//!   used in Tables III and IV;
//! * [`service`] — the serving layer: NPN-canonical result caching (sharded,
//!   CLOCK-evicted) and the persistent `bidecompd` TCP job server.
//!
//! ## Quickstart
//!
//! ```rust
//! use bidecomposition::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Fig. 1 of the paper: f = x0 x1 x3 + x1 x2 x3 over 4 variables.
//! let f = Isf::from_cover_str(4, &["11-1", "-111"], &[])?;
//! // g = x1 x3: a 0->1 over-approximation of f.
//! let g = Cover::from_strs(4, &["-1-1"])?.to_truth_table();
//! let h = full_quotient(&f, &g, BinaryOp::And)?;
//! assert!(verify_decomposition(&f, &g, &h, BinaryOp::And));
//! # Ok(())
//! # }
//! ```

pub use bdd;
pub use benchmarks;
pub use bidecomp;
pub use boolfunc;
pub use obs;
pub use sat;
pub use service;
pub use sop;
pub use spp;
pub use techmap;

/// Convenient re-exports of the most commonly used items across the workspace.
pub mod prelude {
    pub use bdd::{Bdd, BddManager};
    pub use benchmarks::{BenchmarkInstance, Suite};
    pub use bidecomp::{
        full_quotient, verify_decomposition, ApproxKind, BiDecomposition, BinaryOp,
        DecompositionPlan, Oracle, Quotient, RecursiveSynthesizer,
    };
    pub use boolfunc::{Cover, Cube, Isf, TruthTable};
    pub use sop::espresso;
    pub use spp::{SppForm, SppSynthesizer};
    pub use techmap::{AreaModel, GateLibrary};
}
