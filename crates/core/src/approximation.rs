//! Classification of approximations (Definitions 1–3 of the paper) and the
//! divisor side conditions of Table II.

use bdd::{Bdd, BddManager};
use boolfunc::{Isf, TruthTable};

use crate::error::BidecompError;
use crate::operator::BinaryOp;

/// Kind of approximation relating a completely specified `g` to an
/// incompletely specified `f` (Definitions 1–3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ApproxKind {
    /// 0→1 (over-)approximation: some off-set minterms of `f` were moved to
    /// the on-set, so `f_on ⊆ g_on`.
    ZeroToOne,
    /// 1→0 (under-)approximation: some on-set minterms of `f` were moved to
    /// the off-set, so `g_on ⊆ f_on`.
    OneToZero,
    /// 0↔1 approximation: both kinds of complementation may occur.
    Both,
    /// `g` agrees with `f` on every care minterm (a completion of `f`).
    Exact,
}

/// Error statistics of an approximation `g` of `f`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproximationStats {
    /// Number of 0→1 complementations (`g = 1` on the off-set of `f`).
    pub zero_to_one: u64,
    /// Number of 1→0 complementations (`g = 0` on the on-set of `f`).
    pub one_to_zero: u64,
    /// Total errors divided by `2^n` — the error rate of Tables III/IV.
    pub error_rate: f64,
    /// The classification of the approximation.
    pub kind: ApproxKind,
}

impl ApproximationStats {
    /// Total number of complemented output bits.
    pub fn total_errors(&self) -> u64 {
        self.zero_to_one + self.one_to_zero
    }
}

/// Classifies `g` as an approximation of `f` and counts its errors.
///
/// # Panics
///
/// Panics if the arities differ.
///
/// ```rust
/// use bidecomp::{classify_approximation, ApproxKind};
/// use boolfunc::{Cover, Isf};
///
/// # fn main() -> Result<(), boolfunc::BoolFuncError> {
/// let f = Isf::from_cover_str(4, &["11-1", "-111"], &[])?;
/// let g = Cover::from_strs(4, &["-1-1"])?.to_truth_table();
/// let stats = classify_approximation(&f, &g);
/// assert_eq!(stats.kind, ApproxKind::ZeroToOne);
/// assert_eq!(stats.zero_to_one, 1);
/// # Ok(())
/// # }
/// ```
pub fn classify_approximation(f: &Isf, g: &TruthTable) -> ApproximationStats {
    assert_eq!(f.num_vars(), g.num_vars(), "arity mismatch");
    let zero_to_one = (&f.off() & g).count_ones();
    let one_to_zero = (f.on() & &(!g)).count_ones();
    // The rate goes through the shared `TruthTable::error_rate` (the same
    // accounting `spp` uses): masking `g` to the care set turns its distance
    // to `f_on` into exactly `zero_to_one + one_to_zero` disagreements.
    let error_rate = (g & &f.care()).error_rate(f.on());
    let kind = match (zero_to_one, one_to_zero) {
        (0, 0) => ApproxKind::Exact,
        (_, 0) => ApproxKind::ZeroToOne,
        (0, _) => ApproxKind::OneToZero,
        _ => ApproxKind::Both,
    };
    ApproximationStats { zero_to_one, one_to_zero, error_rate, kind }
}

/// The divisor side condition of Table II for `op`, as human-readable text
/// (used in error messages and reports).
pub fn divisor_requirement(op: BinaryOp) -> &'static str {
    match op {
        BinaryOp::And => "g must be a 0→1 approximation of f (f_on ⊆ g_on)",
        BinaryOp::ConverseNonImplication => "g must be a 1→0 approximation of f' (g_on ⊆ f_off)",
        BinaryOp::NonImplication => "g must be a 0→1 approximation of f (f_on ⊆ g_on)",
        BinaryOp::Nor => "g must be a 1→0 approximation of f' (g_on ⊆ f_off)",
        BinaryOp::Or => "g must be a 1→0 approximation of f (g_on ⊆ f_on)",
        BinaryOp::Implication => "g must be a 0→1 approximation of f' (f_off ⊆ g_on)",
        BinaryOp::ConverseImplication => "g must be a 1→0 approximation of f (g_on ⊆ f_on)",
        BinaryOp::Nand => "g must be a 0→1 approximation of f' (f_off ⊆ g_on)",
        BinaryOp::Xor | BinaryOp::Xnor => "any 0↔1 approximation is allowed",
    }
}

/// Checks the divisor side condition of Table II for `op`.
///
/// Every case is evaluated word-wise on the stored on/dc tables without
/// materializing `f_off` (`g ⊆ f_off` is disjointness from `on ∪ dc`;
/// `f_off ⊆ g` is `on ∪ dc ∪ g = 1`), so the check never allocates.
///
/// # Panics
///
/// Panics if the arities differ.
pub fn is_valid_divisor(f: &Isf, g: &TruthTable, op: BinaryOp) -> bool {
    assert_eq!(f.num_vars(), g.num_vars(), "arity mismatch");
    match op {
        BinaryOp::And | BinaryOp::NonImplication => f.on().is_subset_of(g),
        BinaryOp::ConverseNonImplication | BinaryOp::Nor => {
            g.is_disjoint_from(f.on()) && g.is_disjoint_from(f.dc())
        }
        BinaryOp::Or | BinaryOp::ConverseImplication => g.is_subset_of(f.on()),
        BinaryOp::Implication | BinaryOp::Nand => f.off_is_subset_of(g),
        BinaryOp::Xor | BinaryOp::Xnor => true,
    }
}

/// [`is_valid_divisor`] on the BDD backend: the Table II side condition of
/// `op`, with `f` given as an `(on, dc)` BDD pair in `mgr`.
///
/// The subset/disjointness checks run symbolically (`diff`/`and` against the
/// constant 0), so the validation scales to arities far beyond the dense
/// representation.
pub fn is_valid_divisor_bdd(
    mgr: &mut BddManager,
    f_on: Bdd,
    f_dc: Bdd,
    g: Bdd,
    op: BinaryOp,
) -> bool {
    match op {
        BinaryOp::And | BinaryOp::NonImplication => mgr.is_subset(f_on, g),
        BinaryOp::ConverseNonImplication | BinaryOp::Nor => {
            // g ⊆ f_off ⇔ g disjoint from on ∪ dc.
            let on_or_dc = mgr.or(f_on, f_dc);
            mgr.is_disjoint(g, on_or_dc)
        }
        BinaryOp::Or | BinaryOp::ConverseImplication => mgr.is_subset(g, f_on),
        BinaryOp::Implication | BinaryOp::Nand => {
            // f_off ⊆ g ⇔ on ∪ dc ∪ g is the tautology.
            let on_or_dc = mgr.or(f_on, f_dc);
            let all = mgr.or(on_or_dc, g);
            mgr.is_one(all)
        }
        BinaryOp::Xor | BinaryOp::Xnor => true,
    }
}

/// Like [`is_valid_divisor`] but returning a descriptive error.
///
/// # Errors
///
/// Returns [`BidecompError::ArityMismatch`] or [`BidecompError::InvalidDivisor`].
pub fn check_divisor(f: &Isf, g: &TruthTable, op: BinaryOp) -> Result<(), BidecompError> {
    if f.num_vars() != g.num_vars() {
        return Err(BidecompError::ArityMismatch { dividend: f.num_vars(), divisor: g.num_vars() });
    }
    if is_valid_divisor(f, g, op) {
        Ok(())
    } else {
        Err(BidecompError::InvalidDivisor { op, requirement: divisor_requirement(op).to_string() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolfunc::Cover;

    fn fig1() -> (Isf, TruthTable) {
        let f = Isf::from_cover_str(4, &["11-1", "-111"], &[]).unwrap();
        let g = Cover::from_strs(4, &["-1-1"]).unwrap().to_truth_table();
        (f, g)
    }

    #[test]
    fn fig1_is_a_zero_to_one_approximation_with_one_error() {
        let (f, g) = fig1();
        let stats = classify_approximation(&f, &g);
        assert_eq!(stats.kind, ApproxKind::ZeroToOne);
        assert_eq!(stats.zero_to_one, 1);
        assert_eq!(stats.one_to_zero, 0);
        assert!((stats.error_rate - 1.0 / 16.0).abs() < 1e-12);
        assert_eq!(stats.total_errors(), 1);
    }

    #[test]
    fn exact_and_under_approximations_are_classified() {
        let (f, _) = fig1();
        let exact = classify_approximation(&f, f.on());
        assert_eq!(exact.kind, ApproxKind::Exact);
        let under =
            classify_approximation(&f, &Cover::from_strs(4, &["11-1"]).unwrap().to_truth_table());
        assert_eq!(under.kind, ApproxKind::OneToZero);
        assert_eq!(under.one_to_zero, 1);
        let both =
            classify_approximation(&f, &Cover::from_strs(4, &["0---"]).unwrap().to_truth_table());
        assert_eq!(both.kind, ApproxKind::Both);
    }

    #[test]
    fn dc_minterms_never_count_as_errors() {
        // f has a dc at 0000; g = 1 there: no error.
        let f = Isf::from_cover_str(2, &["11"], &["00"]).unwrap();
        let g = Cover::from_strs(2, &["11", "00"]).unwrap().to_truth_table();
        let stats = classify_approximation(&f, &g);
        assert_eq!(stats.kind, ApproxKind::Exact);
        assert_eq!(stats.total_errors(), 0);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn classify_rejects_an_arity_mismatch() {
        let (f, _) = fig1();
        classify_approximation(&f, &TruthTable::zero(3));
    }

    #[test]
    fn divisor_validity_per_operator() {
        let (f, g) = fig1();
        // g over-approximates f: valid for AND and ⇏, invalid for OR/⇐.
        assert!(is_valid_divisor(&f, &g, BinaryOp::And));
        assert!(is_valid_divisor(&f, &g, BinaryOp::NonImplication));
        assert!(!is_valid_divisor(&f, &g, BinaryOp::Or));
        assert!(!is_valid_divisor(&f, &g, BinaryOp::ConverseImplication));
        // The complement of g under-approximates f̄ requirements.
        assert!(is_valid_divisor(&f, &TruthTable::zero(4), BinaryOp::Or));
        assert!(is_valid_divisor(&f, &TruthTable::one(4), BinaryOp::And));
        // XOR accepts anything.
        assert!(is_valid_divisor(&f, &g, BinaryOp::Xor));
        assert!(is_valid_divisor(&f, &TruthTable::zero(4), BinaryOp::Xnor));
    }

    #[test]
    fn check_divisor_reports_errors() {
        let (f, g) = fig1();
        assert!(check_divisor(&f, &g, BinaryOp::And).is_ok());
        let err = check_divisor(&f, &g, BinaryOp::Or).unwrap_err();
        assert!(matches!(err, BidecompError::InvalidDivisor { op: BinaryOp::Or, .. }));
        let wrong_arity = TruthTable::zero(3);
        assert!(matches!(
            check_divisor(&f, &wrong_arity, BinaryOp::Xor),
            Err(BidecompError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn requirements_text_mentions_the_sets() {
        for op in BinaryOp::all() {
            let text = divisor_requirement(op);
            assert!(!text.is_empty());
        }
    }
}
