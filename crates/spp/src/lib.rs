//! # spp
//!
//! 2-SPP forms: three-level XOR-AND-OR expressions in which the products
//! (*pseudoproducts*) are ANDs of literals and of XOR factors with at most two
//! literals. This is the representation used throughout Section IV of the
//! paper: the function `f`, its 0→1 approximation `g`, and the quotient `h`
//! are all synthesized as 2-SPP forms before the area comparison.
//!
//! The crate provides:
//!
//! * [`XorFactor`] and [`Pseudoproduct`] — the syntactic building blocks;
//! * [`SppForm`] — a sum of pseudoproducts with evaluation, cost metrics and
//!   verification helpers;
//! * [`SppSynthesizer`] — a heuristic 2-SPP minimizer seeded by an
//!   espresso-minimized SOP cover, merging cube pairs into XOR factors
//!   (the practical trade-off of the 2-SPP papers \[5\], \[1\] cited by the
//!   DATE 2020 paper);
//! * [`approx`] — the 0→1 over-approximation of a 2-SPP form by pseudoproduct
//!   expansion, both in the error-rate-bounded variant of \[2\] and in the
//!   "expand everything and re-synthesize with the extended dc-set" variant
//!   actually used in the paper's experiments.
//!
//! ```rust
//! use boolfunc::Isf;
//! use spp::SppSynthesizer;
//!
//! # fn main() -> Result<(), boolfunc::BoolFuncError> {
//! // Fig. 2 of the paper: f = x0 (x2 ⊕ x3) + x1 (x2 ⊙ x3).
//! let f = Isf::from_cover_str(4, &["1-10", "1-01", "-111", "-100"], &[])?;
//! let form = SppSynthesizer::new().synthesize(&f);
//! assert!(form.literal_count() <= 8); // the SOP needs 12 literals
//! assert!(form.matches(&f));
//! # Ok(())
//! # }
//! ```
//!
//! ## Background: why 2-SPP
//!
//! An SOP cube can only describe an axis-aligned subcube of the Boolean
//! space. A *pseudoproduct* additionally ANDs in two-literal XOR factors
//! (`xi ⊕ xj` and `xi ⊙ xj`), so a single pseudoproduct covers an affine
//! subspace — for instance `x0·(x2 ⊕ x3)` covers in one product what an SOP
//! needs two cubes (and four more literals) for. Restricting XOR factors to
//! two literals (the "2" in 2-SPP) keeps the form testable and the
//! minimization tractable while capturing most of the sharing the paper's
//! benchmark set exhibits; XOR2 is also a single library gate for the
//! technology mapper, so 2-SPP literal counts translate directly into mapped
//! area.
//!
//! ## Flow
//!
//! The synthesizer does not enumerate the (huge) space of pseudoproduct
//! primes the exact 2-SPP algorithms work with. It starts from an
//! espresso-minimized SOP cover and greedily merges cube pairs that differ in
//! exactly the pattern an XOR factor can absorb, iterating until no merge
//! improves the [`SppForm::literal_count`]. That is the practical trade-off suggested
//! by the 2-SPP literature the paper builds on: near-minimal forms at a tiny
//! fraction of the exact algorithm's cost.
//!
//! The 0→1 approximation of Section IV lives in [`approx`]: pseudoproduct
//! expansion drops literals or XOR factors from a pseudoproduct, which can
//! only ever *add* minterms, so the result is a valid AND-class divisor `g`
//! by construction. [`BoundedExpansion`] stops at an error-rate budget;
//! [`FullExpansion`] expands everything and lets the quotient's dc-set absorb
//! the damage, which is the variant the paper's experiments use.
//!
//! ```rust
//! use boolfunc::{Cover, Isf};
//! use spp::SppForm;
//!
//! # fn main() -> Result<(), boolfunc::BoolFuncError> {
//! // Any SOP cover is already a (degenerate) 2-SPP form with no XOR factors.
//! let cover = Cover::from_strs(3, &["11-", "--1"])?;
//! let form = SppForm::from_cover(&cover);
//! assert_eq!(form.xor_factor_count(), 0);
//! assert_eq!(form.to_truth_table(), cover.to_truth_table());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
mod form;
mod pseudoproduct;
mod synth;
#[cfg(test)]
mod testing;
mod xor_factor;

pub use approx::{ApproximationOutcome, BoundedExpansion, FullExpansion};
pub use form::SppForm;
pub use pseudoproduct::Pseudoproduct;
pub use synth::{SppSynthesizer, SynthesisOptions};
pub use xor_factor::XorFactor;
