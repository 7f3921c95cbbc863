//! The end-to-end decomposition flow of Section IV: synthesize `f` in 2-SPP
//! form, derive an approximation `g`, compute the full quotient `h`,
//! re-synthesize both in 2-SPP, and report mapped areas and gains.

use std::borrow::Cow;

use boolfunc::{Isf, TruthTable};
use spp::{BoundedExpansion, FullExpansion, SppForm, SppSynthesizer};
use techmap::{AreaModel, CombineOp};

use crate::approximation::{classify_approximation, ApproximationStats};
use crate::engine::seeded_divisor;
use crate::error::BidecompError;
use crate::operator::BinaryOp;
use crate::oracle::{Oracle, OracleFailure};
use crate::quotient::full_quotient;
use crate::verify::verify_decomposition;

/// Re-export of the quotient ISF type under the name the paper uses.
pub type Quotient = Isf;

/// How the divisor `g` is derived from `f`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ApproxStrategy {
    /// The paper's strategy (Section IV-A): expand every pseudoproduct of the
    /// initial 2-SPP cover, move the touched off-set minterms to the dc-set
    /// and re-synthesize. The resulting error rate depends on the benchmark.
    FullExpansion,
    /// The error-rate-bounded strategy of reference \[2\]: greedy expansion
    /// while the error rate stays below the given fraction.
    Bounded {
        /// Maximum fraction of the 2^n minterms that may be complemented.
        max_error_rate: f64,
    },
    /// A seed-stable noise divisor from [`crate::engine::seeded_divisor`]:
    /// valid for the operator's Table II side condition by construction, but
    /// structure-free. Useful as a portfolio baseline and for seed-stability
    /// tests; it rarely wins an area comparison.
    Seeded {
        /// The noise seed fed to the divisor derivation.
        seed: u64,
    },
    /// Use an externally supplied divisor (the plan's `decompose_with` entry
    /// point). Asking a plan with this strategy to *derive* a divisor is an
    /// error ([`BidecompError::MissingExternalDivisor`]).
    External,
}

/// The complete result of one bi-decomposition experiment on one function.
#[derive(Debug, Clone)]
pub struct BiDecomposition {
    /// The operator used.
    pub op: BinaryOp,
    /// 2-SPP form of the original function `f`.
    pub f_form: SppForm,
    /// 2-SPP form of the divisor `g`.
    pub g_form: SppForm,
    /// The divisor as a completely specified function.
    pub g_table: TruthTable,
    /// The full quotient (maximal-flexibility ISF) of Table II.
    pub h: Quotient,
    /// 2-SPP form chosen for the quotient.
    pub h_form: SppForm,
    /// Error statistics of the approximation `g` with respect to `f`.
    pub approximation: ApproximationStats,
    /// Mapped area of the 2-SPP form of `f`.
    pub area_f: f64,
    /// Mapped area of the 2-SPP form of `g`.
    pub area_g: f64,
    /// Mapped area of the 2-SPP form of `h`.
    pub area_h: f64,
    /// Mapped area of the bi-decomposed form `g op h`.
    pub area_bidecomposition: f64,
    /// `true` if [`verify_decomposition`] holds. Kept for reporting: a
    /// failed verification never reaches this struct, it is surfaced as
    /// [`BidecompError::VerificationFailed`] instead, so on an `Ok` result
    /// this field is always `true`.
    pub verified: bool,
}

impl BiDecomposition {
    /// The paper's "Gain (%)" column: `(area_f − area_bidecomposition) / area_f`.
    pub fn gain_percent(&self) -> f64 {
        if self.area_f == 0.0 {
            0.0
        } else {
            (self.area_f - self.area_bidecomposition) / self.area_f * 100.0
        }
    }

    /// The paper's "%(Area f − Area g)/Area f" column.
    pub fn divisor_reduction_percent(&self) -> f64 {
        if self.area_f == 0.0 {
            0.0
        } else {
            (self.area_f - self.area_g) / self.area_f * 100.0
        }
    }

    /// Error rate in percent (the "%Errors" column).
    pub fn error_percent(&self) -> f64 {
        self.approximation.error_rate * 100.0
    }

    /// Replays this finished decomposition through the independent SAT
    /// [`Oracle`]: the Table II side condition, Lemmas 1–5, and
    /// Corollaries 1–4, against the original dividend `f`.
    ///
    /// The flow already verified the word-parallel lemmas before returning
    /// this struct, so a rejection here means the dense verifiers and the
    /// oracle disagree — a cross-backend bug worth a minimized report.
    ///
    /// # Errors
    ///
    /// Returns the first [`OracleFailure`], naming the failing lemma and a
    /// witness minterm.
    pub fn oracle_audit(&self, f: &Isf) -> Result<(), OracleFailure> {
        Oracle::check(f, &self.g_table, &self.h, self.op)
    }
}

/// A reusable description of how to run a bi-decomposition: operator,
/// approximation strategy, synthesis and area options.
///
/// ```rust
/// use bidecomp::{ApproxStrategy, BinaryOp, DecompositionPlan};
/// use boolfunc::Isf;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let f = Isf::from_cover_str(4, &["1-10", "1-01", "-111", "-100"], &[])?;
/// let plan = DecompositionPlan::new(BinaryOp::And, ApproxStrategy::FullExpansion);
/// let result = plan.decompose(&f)?;
/// assert!(result.verified);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DecompositionPlan {
    op: BinaryOp,
    strategy: ApproxStrategy,
    synthesizer: SppSynthesizer,
    area_model: AreaModel,
}

impl DecompositionPlan {
    /// Creates a plan for `op` using the given approximation strategy, the
    /// default 2-SPP synthesizer and the embedded mcnc-like library.
    pub fn new(op: BinaryOp, strategy: ApproxStrategy) -> Self {
        DecompositionPlan {
            op,
            strategy,
            synthesizer: SppSynthesizer::new(),
            area_model: AreaModel::mcnc(),
        }
    }

    /// The operator of this plan.
    pub fn op(&self) -> BinaryOp {
        self.op
    }

    /// The approximation strategy of this plan.
    pub fn strategy(&self) -> ApproxStrategy {
        self.strategy
    }

    /// Runs the full flow on `f`, deriving the divisor from the plan's
    /// approximation strategy.
    ///
    /// # Errors
    ///
    /// Returns [`BidecompError::MissingExternalDivisor`] if the plan's
    /// strategy is [`ApproxStrategy::External`] (an external divisor can only
    /// be used through [`DecompositionPlan::decompose_with`]), or an error if
    /// the derived divisor does not satisfy the side condition of Table II
    /// for the plan's operator (this cannot happen for the AND-like
    /// operators with 0→1 strategies, but the plan supports all ten
    /// operators).
    pub fn decompose(&self, f: &Isf) -> Result<BiDecomposition, BidecompError> {
        let f_form = self.synthesizer.synthesize(f);
        let g_table =
            derive_strategy_divisor(f, &f_form, self.op, self.strategy, &self.synthesizer)?;
        self.decompose_with_tables(f, f_form, g_table)
    }

    /// Runs the flow with an externally supplied completely specified divisor.
    ///
    /// # Errors
    ///
    /// Returns an error if `g` is not a valid divisor for the plan's operator.
    pub fn decompose_with(
        &self,
        f: &Isf,
        g: &TruthTable,
    ) -> Result<BiDecomposition, BidecompError> {
        let f_form = self.synthesizer.synthesize(f);
        self.decompose_with_tables(f, f_form, g.clone())
    }

    fn decompose_with_tables(
        &self,
        f: &Isf,
        f_form: SppForm,
        g_table: TruthTable,
    ) -> Result<BiDecomposition, BidecompError> {
        let h = full_quotient(f, &g_table, self.op)?;
        let g_isf = Isf::completely_specified(g_table.clone());
        let g_form = self.synthesizer.synthesize(&g_isf);
        let h_form = self.synthesizer.synthesize(&h);
        let approximation = classify_approximation(f, &g_table);

        let area_f = self.area_model.spp_area(&f_form);
        let area_g = self.area_model.spp_area(&g_form);
        let area_h = self.area_model.spp_area(&h_form);
        let area_bidecomposition =
            self.area_model.bidecomposition_area(&g_form, &h_form, combine_op(self.op));

        // A failed verification is a quotient bug, not a reportable outcome:
        // surface it as an error instead of an `Ok` the caller has to
        // remember to inspect. The `verified` field stays for reporting.
        let verified = verify_decomposition(f, &g_table, &h, self.op);
        if !verified {
            return Err(BidecompError::VerificationFailed { op: self.op });
        }

        Ok(BiDecomposition {
            op: self.op,
            f_form,
            g_form,
            g_table,
            h,
            h_form,
            approximation,
            area_f,
            area_g,
            area_h,
            area_bidecomposition,
            verified,
        })
    }
}

/// Derives the divisor a `(op, strategy)` pair asks for, reusing an already
/// synthesized 2-SPP form of `f`.
///
/// For operators that need an approximation of `f`, the 2-SPP expansion is
/// applied to `f` itself; for operators that need an approximation of the
/// complement, it is applied to `f'` and the required side is selected.
/// Table II side conditions:
///
/// * `AND`, `⇏`: over-approximate `f` → `g = approx(f)`;
/// * `OR`, `⇐`: under-approximate `f` → `g = ¬approx(f')`;
/// * `⇒`, `NAND`: over-approximate `f'` (`f_off ⊆ g`) → `g = approx(f')`;
/// * `⇍`, `NOR`: under-approximate `f'` (`g ⊆ f_off`) → `g = ¬approx(f)`;
/// * `XOR`, `XNOR`: anything goes; use `approx(f)`.
///
/// This is the derivation both [`DecompositionPlan::decompose`] and the
/// recursive synthesizer ([`crate::recursive`]) dispatch on, so the two
/// flows cannot drift apart strategy by strategy.
///
/// # Errors
///
/// Returns [`BidecompError::MissingExternalDivisor`] for
/// [`ApproxStrategy::External`]: the external strategy records that the
/// divisor is supplied by the caller, so there is nothing to derive —
/// silently substituting a [`ApproxStrategy::FullExpansion`] divisor (the
/// old behavior) would hide the mistake.
pub fn derive_strategy_divisor(
    f: &Isf,
    f_form: &SppForm,
    op: BinaryOp,
    strategy: ApproxStrategy,
    synthesizer: &SppSynthesizer,
) -> Result<TruthTable, BidecompError> {
    // The noise strategy is op-aware on its own and needs no expansion.
    if let ApproxStrategy::Seeded { seed } = strategy {
        return Ok(seeded_divisor(f, op, seed));
    }
    let base = divisor_base(f, op);
    let synthesized;
    let base_form = match &base {
        Cow::Borrowed(_) => f_form,
        Cow::Owned(complement) => {
            synthesized = synthesizer.synthesize(complement);
            &synthesized
        }
    };
    let over = match strategy {
        ApproxStrategy::FullExpansion => {
            FullExpansion::new().approximate(base_form, &base, synthesizer).g_table
        }
        ApproxStrategy::Bounded { max_error_rate } => {
            BoundedExpansion::new(max_error_rate).approximate(base_form, &base).g_table
        }
        ApproxStrategy::Seeded { .. } => unreachable!("handled above"),
        ApproxStrategy::External => return Err(BidecompError::MissingExternalDivisor),
    };
    Ok(divisor_from_over_approximation(f, op, over))
}

/// The base function `op`'s divisor over-approximates (0→1): `f` itself,
/// or its complement `(f_off, f_dc)` for `OR`, `⇐`, `⇒` and `NAND`.
pub(crate) fn divisor_base(f: &Isf, op: BinaryOp) -> Cow<'_, Isf> {
    match op {
        BinaryOp::Or | BinaryOp::ConverseImplication | BinaryOp::Implication | BinaryOp::Nand => {
            Cow::Owned(Isf::new(f.off(), f.dc().clone()).expect("off and dc are disjoint"))
        }
        _ => Cow::Borrowed(f),
    }
}

/// Maps an over-approximation `over` of [`divisor_base`]`(f, op)` onto the
/// divisor `op` needs (the Table II side conditions).
pub(crate) fn divisor_from_over_approximation(
    f: &Isf,
    op: BinaryOp,
    over: TruthTable,
) -> TruthTable {
    match op {
        // g_on ⊆ f_on: complement the over-approximation of f' and drop
        // any don't-care minterms so the Table II side condition holds
        // strictly.
        BinaryOp::Or | BinaryOp::ConverseImplication => &(!&over) & f.on(),
        // g_on ⊆ f_off: complement the over-approximation of f.
        BinaryOp::ConverseNonImplication | BinaryOp::Nor => &(!&over) & &f.off(),
        _ => over,
    }
}

/// Maps a semantic operator onto the structural top gate used by the area
/// model.
pub fn combine_op(op: BinaryOp) -> CombineOp {
    match op {
        BinaryOp::And => CombineOp::And,
        BinaryOp::ConverseNonImplication => CombineOp::AndNotLeft,
        BinaryOp::NonImplication => CombineOp::AndNotRight,
        BinaryOp::Nor => CombineOp::Nor,
        BinaryOp::Or => CombineOp::Or,
        BinaryOp::Implication => CombineOp::OrNotLeft,
        BinaryOp::ConverseImplication => CombineOp::OrNotRight,
        BinaryOp::Nand => CombineOp::Nand,
        BinaryOp::Xor => CombineOp::Xor,
        BinaryOp::Xnor => CombineOp::Xnor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2() -> Isf {
        Isf::from_cover_str(4, &["1-10", "1-01", "-111", "-100"], &[]).unwrap()
    }

    #[test]
    fn and_decomposition_of_fig2_verifies() {
        let plan = DecompositionPlan::new(BinaryOp::And, ApproxStrategy::FullExpansion);
        let result = plan.decompose(&fig2()).unwrap();
        assert!(result.verified);
        assert!(result.approximation.one_to_zero == 0, "AND needs a pure 0→1 approximation");
        assert!(result.area_f > 0.0);
        assert!(result.area_g >= 0.0);
    }

    #[test]
    fn bounded_strategy_respects_the_budget() {
        let plan = DecompositionPlan::new(
            BinaryOp::NonImplication,
            ApproxStrategy::Bounded { max_error_rate: 0.15 },
        );
        let result = plan.decompose(&fig2()).unwrap();
        assert!(result.verified);
        assert!(result.approximation.error_rate <= 0.15 + 1e-9);
    }

    #[test]
    fn all_ten_operators_produce_verified_decompositions() {
        let f = fig2();
        for op in BinaryOp::all() {
            let plan = DecompositionPlan::new(op, ApproxStrategy::Bounded { max_error_rate: 0.2 });
            let result = plan.decompose(&f).unwrap_or_else(|e| panic!("{op}: {e}"));
            assert!(result.verified, "{op}: decomposition failed verification");
            result.oracle_audit(&f).unwrap_or_else(|e| panic!("{op}: oracle rejected: {e}"));
        }
    }

    #[test]
    fn external_divisor_flow() {
        let f = Isf::from_cover_str(4, &["11-1", "-111"], &[]).unwrap();
        let g = boolfunc::Cover::from_strs(4, &["-1-1"]).unwrap().to_truth_table();
        let plan = DecompositionPlan::new(BinaryOp::And, ApproxStrategy::External);
        let result = plan.decompose_with(&f, &g).unwrap();
        assert!(result.verified);
        // The paper's Fig. 1: f needs 6 SOP literals, g·h needs 4.
        assert!(result.g_form.literal_count() <= 2);
        assert!(result.h_form.literal_count() <= 2);
        // An invalid divisor is rejected.
        let bad = boolfunc::TruthTable::zero(4);
        assert!(plan.decompose_with(&f, &bad).is_err());
    }

    #[test]
    fn external_strategy_refuses_to_derive_a_divisor() {
        // Regression: the External match arm used to fall through to
        // FullExpansion, so `decompose` silently invented a divisor instead
        // of reporting that the caller forgot to supply one.
        for op in BinaryOp::all() {
            let plan = DecompositionPlan::new(op, ApproxStrategy::External);
            let err = plan.decompose(&fig2()).unwrap_err();
            assert_eq!(err, BidecompError::MissingExternalDivisor, "{op}");
        }
        // `decompose_with` remains the entry point for external divisors.
        let plan = DecompositionPlan::new(BinaryOp::And, ApproxStrategy::External);
        let g = boolfunc::TruthTable::one(4);
        assert!(plan.decompose_with(&fig2(), &g).is_ok());
    }

    #[test]
    fn seeded_strategy_is_valid_and_reproducible_for_every_operator() {
        let f = fig2();
        for (i, op) in BinaryOp::all().into_iter().enumerate() {
            let plan =
                DecompositionPlan::new(op, ApproxStrategy::Seeded { seed: 0xBEEF ^ i as u64 });
            let a = plan.decompose(&f).unwrap_or_else(|e| panic!("{op}: {e}"));
            let b = plan.decompose(&f).unwrap();
            assert!(a.verified, "{op}");
            assert_eq!(a.g_table, b.g_table, "{op}: same seed must give the same divisor");
        }
    }

    #[test]
    fn gain_and_error_percent_formulas() {
        let plan = DecompositionPlan::new(BinaryOp::And, ApproxStrategy::FullExpansion);
        let result = plan.decompose(&fig2()).unwrap();
        let expected_gain = (result.area_f - result.area_bidecomposition) / result.area_f * 100.0;
        assert!((result.gain_percent() - expected_gain).abs() < 1e-9);
        assert!((result.error_percent() - result.approximation.error_rate * 100.0).abs() < 1e-9);
        assert!(result.divisor_reduction_percent() <= 100.0);
    }
}
