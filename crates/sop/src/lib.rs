//! # sop
//!
//! An espresso-style heuristic two-level minimizer, playing the role of
//! espresso inside the SIS flow used by the paper's evaluation: whenever a
//! function (the dividend `f`, the divisor `g`, or the quotient `h`) has to
//! be realised as a sum of products, this crate produces the cover.
//!
//! The implementation follows the classical structure:
//!
//! * [`mod@tautology`] — unate-recursive tautology check (the workhorse predicate);
//! * [`mod@complement`] — cover complementation by Shannon expansion with unate
//!   shortcuts;
//! * [`mod@expand`] — cube expansion against the off-set;
//! * [`mod@irredundant`] — removal of cubes covered by the rest of the cover;
//! * [`mod@reduce`] — cube reduction to escape local minima;
//! * [`mod@espresso`] — the EXPAND → IRREDUNDANT → REDUCE iteration on cube
//!   lists;
//! * [`mod@dense`] — the same iteration on the function's truth tables, the
//!   production path, which leaves it early once its outcome is fixed;
//! * [`mod@exact`] — Quine–McCluskey prime generation plus unate covering, used as
//!   a reference minimizer for small functions in tests and examples.
//!
//! ```rust
//! use boolfunc::{Cover, Isf};
//! use sop::espresso;
//!
//! # fn main() -> Result<(), boolfunc::BoolFuncError> {
//! // f = x0 x1 + x0 x1' = x0, minimization should find the single-literal cover.
//! let f = Isf::from_cover_str(2, &["11", "10"], &[])?;
//! let minimized = espresso(&f);
//! assert_eq!(minimized.num_cubes(), 1);
//! assert_eq!(minimized.literal_count(), 1);
//! # Ok(())
//! # }
//! ```
//!
//! ## Algorithm notes
//!
//! EXPAND, IRREDUNDANT and REDUCE only ever ask set questions: does this
//! relaxed cube meet the off-set, is this cube inside the other cubes plus
//! the dc-set, which of this cube's minterms does nothing else cover. Every
//! function the pipeline minimizes is an [`boolfunc::Isf`], already held as
//! dense `on`/`dc` truth tables (at most 26 variables), so the production
//! path ([`mod@dense`]) answers those questions with word operations on the
//! tables: the off-set is `!(on | dc)` in one pass, and a cube is one
//! in-word literal mask plus the set of words its high literals select.
//!
//! The cube-list path answers the same questions with the *unate recursive
//! paradigm* of the original espresso: pick the most binate variable,
//! Shannon-cofactor the cover, solve the two subproblems, and merge. Cube
//! containment, cofactors and consensus are bit-mask operations on
//! [`boolfunc::Cube`], but the off-set has to be built as a cube-list
//! complement of the on-set, which dominated synthesis time. Both paths
//! share the loop skeleton — the literal-count orderings, the swallow
//! marking, single-cube containment and the [`Cost`] comparison — and each
//! answer is a property of a set, so they return identical covers; the
//! cube-list path is kept as the dense path's property-test oracle.
//!
//! Don't-cares are first-class: every entry point takes the dc-set alongside
//! the on-set (as an [`boolfunc::Isf`] or an explicit dc [`boolfunc::Cover`]),
//! EXPAND blocks only against the true off-set, and the result satisfies
//! `on ⊆ F ⊆ on ∪ dc`. This matters for the paper's flow, where the quotient
//! `h` derives almost all of its area savings from its huge dc-set.
//!
//! ## Choosing an entry point
//!
//! * [`fn@espresso`] — the default: heuristic, fast, near-minimal. Used by the
//!   pipeline whenever a cover is needed; [`fn@espresso_isf`] with the
//!   default options.
//! * [`fn@espresso_isf`] — the production path with explicit
//!   [`EspressoOptions`] (iteration budget, REDUCE on/off), minimizing on the
//!   ISF's truth tables.
//! * [`fn@espresso_cover`] — the same loop on explicit on/dc covers, with
//!   cube-list set operations. The oracle: on the minterm covers of an ISF
//!   it returns exactly the cover [`fn@espresso_isf`] does, only slower.
//! * [`fn@exact_minimize`] — Quine–McCluskey primes plus branch-and-bound unate
//!   covering; exponential, but exact. The reference oracle in tests.
//!
//! ```rust
//! use boolfunc::Isf;
//! use sop::{espresso, exact_minimize};
//!
//! # fn main() -> Result<(), boolfunc::BoolFuncError> {
//! // On small functions the heuristic should match the exact minimum.
//! let f = Isf::from_cover_str(3, &["11-", "1-1", "-11"], &[])?;
//! assert_eq!(espresso(&f).num_cubes(), exact_minimize(&f).num_cubes());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complement;
pub mod cost;
pub mod dense;
pub mod espresso;
pub mod exact;
pub mod expand;
pub mod irredundant;
pub mod reduce;
pub mod tautology;

pub use complement::complement;
pub use cost::Cost;
pub use dense::espresso_isf;
pub use espresso::{espresso, espresso_cover, EspressoOptions};
pub use exact::exact_minimize;
pub use expand::expand;
pub use irredundant::irredundant;
pub use reduce::reduce;
pub use tautology::is_tautology;
