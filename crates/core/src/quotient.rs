//! The full quotient of Table II: for each of the ten operators, the
//! incompletely specified `h` with the smallest on-set and the largest dc-set
//! such that `f = g op h` for every completion of `h`.

use bdd::{Bdd, BddManager};
use boolfunc::{Isf, TruthTable};

use crate::approximation::check_divisor;
use crate::error::BidecompError;
use crate::operator::BinaryOp;

/// The three characteristic sets of the quotient, as dense truth tables.
///
/// [`quotient_sets`] exposes all three so that callers (and tests) can check
/// them against the exact expressions printed in Table II; [`full_quotient`]
/// packages the same information as an [`Isf`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuotientSets {
    /// `h_on` — minterms on which every completion of `h` must be 1.
    pub on: TruthTable,
    /// `h_dc` — minterms on which `h` is free.
    pub dc: TruthTable,
    /// `h_off` — minterms on which every completion of `h` must be 0.
    pub off: TruthTable,
}

impl QuotientSets {
    /// Three empty sets over `num_vars` variables, ready to be filled by
    /// [`QuotientScratch::quotient_sets_into`].
    ///
    /// # Panics
    ///
    /// Panics if `num_vars` exceeds the dense-table limit.
    pub fn zero(num_vars: usize) -> Self {
        QuotientSets {
            on: TruthTable::zero(num_vars),
            dc: TruthTable::zero(num_vars),
            off: TruthTable::zero(num_vars),
        }
    }

    /// Number of variables of the three sets.
    pub fn num_vars(&self) -> usize {
        self.on.num_vars()
    }
}

/// The ingredient of Table II's `h_dc` column that is OR-ed with `f_dc`.
///
/// This (together with [`Table2Row`]) is the shared op→expression table both
/// the dense [`QuotientScratch::quotient_sets_into`] and the symbolic
/// [`full_quotient_bdd`] dispatch on, so the two backends cannot drift apart
/// operator by operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DcTerm {
    /// `h_dc = g' ∪ f_dc` (the rows whose rewritten form complements `g`).
    NotG,
    /// `h_dc = g ∪ f_dc`.
    G,
    /// `h_dc = f_dc` (the XOR-like rows: `h` is forced on every care
    /// minterm).
    None,
}

/// One row of the simplified Table II: which sets feed `h_on` and `h_dc`.
///
/// The simplification (proved by the `quotient_matches_canonical` oracle
/// tests): because the final on-set always subtracts the dc-set, and the
/// dc-set of every AND-like/OR-like row contains the term subtracted from the
/// raw on-set (`g` or `g'`), the on-set collapses to `base \ h_dc`, where
/// `base` is `f_on` or `f_off` (optionally XOR-ed with `g` for the XOR-like
/// rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table2Row {
    /// `true` if the on-set base is `f_off` rather than `f_on`.
    pub on_from_off: bool,
    /// `true` if the base is XOR-ed with `g` before subtracting the dc-set
    /// (the XOR/XNOR rows).
    pub on_xor_g: bool,
    /// The non-`f_dc` ingredient of the dc-set.
    pub dc_term: DcTerm,
}

/// The simplified Table II row of `op` (see [`Table2Row`]).
pub fn table2_row(op: BinaryOp) -> Table2Row {
    let (on_from_off, on_xor_g, dc_term) = match op {
        BinaryOp::And => (false, false, DcTerm::NotG),
        BinaryOp::ConverseNonImplication => (false, false, DcTerm::G),
        BinaryOp::NonImplication => (true, false, DcTerm::NotG),
        BinaryOp::Nor => (true, false, DcTerm::G),
        BinaryOp::Or => (false, false, DcTerm::G),
        BinaryOp::Implication => (false, false, DcTerm::NotG),
        BinaryOp::ConverseImplication => (true, false, DcTerm::G),
        BinaryOp::Nand => (true, false, DcTerm::NotG),
        BinaryOp::Xor => (false, true, DcTerm::None),
        BinaryOp::Xnor => (true, true, DcTerm::None),
    };
    Table2Row { on_from_off, on_xor_g, dc_term }
}

/// Reusable scratch tables for computing Table II quotients without per-call
/// allocation.
///
/// A one-shot [`quotient_sets`] call allocates about ten intermediate tables
/// (every `&`, `|`, `^`, `!` and `difference` on the old path returned a
/// fresh table). The batch engine computes millions of quotients over the
/// same handful of arities, so this scratch object owns the one temporary
/// the formulas need (`f_off`) and writes the result into a caller-provided
/// [`QuotientSets`], making the steady-state hot path allocation-free.
///
/// ```rust
/// use bidecomp::{BinaryOp, QuotientScratch, QuotientSets, quotient_sets};
/// use boolfunc::{Cover, Isf};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let f = Isf::from_cover_str(4, &["11-1", "-111"], &[])?;
/// let g = Cover::from_strs(4, &["-1-1"])?.to_truth_table();
/// let mut scratch = QuotientScratch::new(4);
/// let mut sets = QuotientSets::zero(4);
/// scratch.quotient_sets_into(&f, &g, BinaryOp::And, &mut sets);
/// assert_eq!(sets, quotient_sets(&f, &g, BinaryOp::And));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QuotientScratch {
    num_vars: usize,
    f_off: TruthTable,
}

impl QuotientScratch {
    /// Allocates scratch tables for functions of `num_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars` exceeds the dense-table limit.
    pub fn new(num_vars: usize) -> Self {
        QuotientScratch { num_vars, f_off: TruthTable::zero(num_vars) }
    }

    /// The arity this scratch is sized for.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Computes the three sets of Table II for `f`, `g` and `op` into `out`,
    /// *without* validating the divisor and without allocating.
    ///
    /// The formulas are the simplified Table II expressions of
    /// [`table2_row`] — the same shared classification the symbolic
    /// [`full_quotient_bdd`] dispatches on. `g'` is only materialized
    /// (in place, inside `dc`) for the four operators whose dc-set needs it
    /// (`AND`, `⇏`, `⇒`, `NAND`), and `f_off` only for the rows that read
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if `f`, `g` or `out` do not match the scratch arity.
    pub fn quotient_sets_into(
        &mut self,
        f: &Isf,
        g: &TruthTable,
        op: BinaryOp,
        out: &mut QuotientSets,
    ) {
        assert_eq!(f.num_vars(), self.num_vars, "dividend arity mismatch");
        assert_eq!(g.num_vars(), self.num_vars, "divisor arity mismatch");
        assert_eq!(out.num_vars(), self.num_vars, "output arity mismatch");
        let QuotientSets { on, dc, off } = out;
        let row = table2_row(op);

        // h_dc per Table II: g' ∪ f_dc, g ∪ f_dc, or f_dc.
        match row.dc_term {
            DcTerm::NotG => {
                dc.copy_from(g);
                dc.not_assign();
                *dc |= f.dc();
            }
            DcTerm::G => {
                dc.copy_from(g);
                *dc |= f.dc();
            }
            DcTerm::None => dc.copy_from(f.dc()),
        }

        // h_on = base \ h_dc, with base = f_on | f_off (⊕ g for the XOR
        // family): a single fused difference for the AND/OR families, an XOR
        // followed by the subtraction for the XOR family.
        let base: &TruthTable = if row.on_from_off {
            f.off_into(&mut self.f_off);
            &self.f_off
        } else {
            f.on()
        };
        if row.on_xor_g {
            on.copy_from(base);
            *on ^= g;
            on.difference_assign(dc);
        } else {
            on.and_not_from(base, dc);
        }

        // h_off = !(h_on ∪ h_dc).
        off.copy_from(on);
        *off |= dc;
        off.not_assign();
    }
}

/// Computes the three sets of Table II for `f`, `g` and `op`, *without*
/// validating that `g` is an approximation of the required kind.
///
/// This is the one-shot convenience wrapper around
/// [`QuotientScratch::quotient_sets_into`]; batch callers should hold a
/// scratch and an output buffer across calls instead.
///
/// # Panics
///
/// Panics if the arities differ.
pub fn quotient_sets(f: &Isf, g: &TruthTable, op: BinaryOp) -> QuotientSets {
    assert_eq!(f.num_vars(), g.num_vars(), "arity mismatch");
    let mut scratch = QuotientScratch::new(f.num_vars());
    let mut out = QuotientSets::zero(f.num_vars());
    scratch.quotient_sets_into(f, g, op, &mut out);
    out
}

/// Computes the full quotient `h` (Table II) after validating the divisor.
///
/// # Errors
///
/// Returns [`BidecompError::ArityMismatch`] if `f` and `g` have different
/// arities, or [`BidecompError::InvalidDivisor`] if `g` is not an
/// approximation of the kind required by `op`.
///
/// ```rust
/// use bidecomp::{full_quotient, BinaryOp};
/// use boolfunc::{Cover, Isf};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let f = Isf::from_cover_str(4, &["11-1", "-111"], &[])?;
/// let g = Cover::from_strs(4, &["-1-1"])?.to_truth_table();
/// let h = full_quotient(&f, &g, BinaryOp::And)?;
/// // h_off is exactly the error introduced by the approximation (1 minterm).
/// assert_eq!(h.off().count_ones(), 1);
/// # Ok(())
/// # }
/// ```
pub fn full_quotient(f: &Isf, g: &TruthTable, op: BinaryOp) -> Result<Isf, BidecompError> {
    check_divisor(f, g, op)?;
    let sets = quotient_sets(f, g, op);
    Ok(Isf::new(sets.on, sets.dc)?)
}

/// The BDD-backend version of [`quotient_sets`]: all operands and results are
/// BDDs in the same manager. Returns `(h_on, h_dc)` (the off-set is the
/// complement of their union).
///
/// This mirrors how the paper's implementation computes the quotient "with
/// OBDD operations" on functions too large for dense truth tables. It
/// dispatches on the same [`table2_row`] classification as the dense
/// [`QuotientScratch::quotient_sets_into`], and derives each ingredient
/// lazily for the arm that needs it: `g'` only exists inside the
/// [`DcTerm::NotG`] rows, `f_off` only for the rows whose on-set base is the
/// off-set, and the care set is never materialized at all (the final
/// `base \ h_dc` subtraction already removes every don't-care, because
/// `f_dc ⊆ h_dc` on every row).
pub fn full_quotient_bdd(
    mgr: &mut BddManager,
    f_on: Bdd,
    f_dc: Bdd,
    g: Bdd,
    op: BinaryOp,
) -> (Bdd, Bdd) {
    let row = table2_row(op);

    // h_dc: g' ∪ f_dc, g ∪ f_dc, or f_dc — g is only complemented here.
    let dc = match row.dc_term {
        DcTerm::NotG => {
            let g_off = mgr.not(g);
            mgr.or(g_off, f_dc)
        }
        DcTerm::G => mgr.or(g, f_dc),
        DcTerm::None => f_dc,
    };

    // h_on = base \ h_dc; f_off is only built for the rows that read it.
    let base = if row.on_from_off {
        let on_or_dc = mgr.or(f_on, f_dc);
        mgr.not(on_or_dc)
    } else {
        f_on
    };
    let on = if row.on_xor_g {
        let x = mgr.xor(base, g);
        mgr.diff(x, dc)
    } else {
        mgr.diff(base, dc)
    };
    (on, dc)
}

/// The off-set of a quotient returned by [`full_quotient_bdd`]:
/// `h_off = ¬(h_on ∪ h_dc)`.
pub fn quotient_off_bdd(mgr: &mut BddManager, h_on: Bdd, h_dc: Bdd) -> Bdd {
    mgr.nor(h_on, h_dc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify_decomposition, verify_maximal_flexibility};
    use boolfunc::Cover;

    fn fig1() -> (Isf, TruthTable) {
        let f = Isf::from_cover_str(4, &["11-1", "-111"], &[]).unwrap();
        let g = Cover::from_strs(4, &["-1-1"]).unwrap().to_truth_table();
        (f, g)
    }

    #[test]
    fn fig1_and_quotient_matches_the_paper() {
        let (f, g) = fig1();
        let h = full_quotient(&f, &g, BinaryOp::And).unwrap();
        // h_on = f_on (3 minterms), h_off = the single error minterm,
        // h_dc = everything else (12 minterms).
        assert_eq!(h.on(), f.on());
        assert_eq!(h.off().count_ones(), 1);
        assert_eq!(h.dc().count_ones(), 12);
        // The minimal SOP of h is x0 + x2 (2 literals), as in the paper.
        let m = sop::espresso(&h);
        assert!(m.literal_count() <= 2);
    }

    #[test]
    fn partition_property_for_all_operators() {
        let (f, _) = fig1();
        // Use divisors valid for each operator.
        for op in BinaryOp::all() {
            let g = valid_divisor_for(&f, op);
            let sets = quotient_sets(&f, &g, op);
            let n = f.num_vars();
            let total = 1u64 << n;
            assert!((&sets.on & &sets.dc).is_zero(), "{op}: on∩dc non-empty");
            assert!((&sets.on & &sets.off).is_zero(), "{op}: on∩off non-empty");
            assert!((&sets.dc & &sets.off).is_zero(), "{op}: dc∩off non-empty");
            assert_eq!(
                sets.on.count_ones() + sets.dc.count_ones() + sets.off.count_ones(),
                total,
                "{op}: sets do not partition the space"
            );
        }
    }

    /// Builds a divisor satisfying the Table II side condition for `op`,
    /// introducing at least one error whenever the condition allows it.
    fn valid_divisor_for(f: &Isf, op: BinaryOp) -> TruthTable {
        let on = f.on().clone();
        let off = f.off();
        match op {
            BinaryOp::And | BinaryOp::NonImplication => {
                // over-approximate: add the first off-set minterm.
                let mut g = on.clone();
                if let Some(m) = off.ones().next() {
                    g.set(m, true);
                }
                g
            }
            BinaryOp::Or | BinaryOp::ConverseImplication => {
                // under-approximate: drop the first on-set minterm.
                let mut g = on.clone();
                if let Some(m) = on.ones().next() {
                    g.set(m, false);
                }
                g
            }
            BinaryOp::ConverseNonImplication | BinaryOp::Nor => {
                // g_on ⊆ f_off: take a subset of the off-set.
                let mut g = TruthTable::zero(f.num_vars());
                if let Some(m) = off.ones().next() {
                    g.set(m, true);
                }
                g
            }
            BinaryOp::Implication | BinaryOp::Nand => {
                // f_off ⊆ g_on: take the off-set plus one on-set minterm.
                let mut g = off.clone();
                if let Some(m) = on.ones().next() {
                    g.set(m, true);
                }
                g
            }
            BinaryOp::Xor | BinaryOp::Xnor => {
                // any 0↔1 approximation: flip a couple of care minterms.
                let mut g = on.clone();
                if let Some(m) = off.ones().next() {
                    g.set(m, true);
                }
                if let Some(m) = on.ones().next() {
                    g.set(m, false);
                }
                g
            }
        }
    }

    #[test]
    fn quotient_verifies_for_every_operator_and_divisor() {
        let (f, _) = fig1();
        for op in BinaryOp::all() {
            let g = valid_divisor_for(&f, op);
            let h = full_quotient(&f, &g, op).unwrap();
            assert!(verify_decomposition(&f, &g, &h, op), "{op}: decomposition does not hold");
            assert!(
                verify_maximal_flexibility(&f, &g, &h, op),
                "{op}: quotient is not maximally flexible"
            );
        }
    }

    #[test]
    fn invalid_divisors_are_rejected() {
        let (f, g) = fig1();
        // g is an over-approximation, so it is invalid for OR (needs under-).
        assert!(full_quotient(&f, &g, BinaryOp::Or).is_err());
        assert!(full_quotient(&f, &g, BinaryOp::Nor).is_err());
        assert!(full_quotient(&f, &g, BinaryOp::And).is_ok());
    }

    #[test]
    fn exact_divisor_gives_maximum_flexibility_for_and() {
        // With g = f (no error), the AND quotient must have an empty off-set:
        // the quotient can be the constant 1.
        let (f, _) = fig1();
        let h = full_quotient(&f, f.on(), BinaryOp::And).unwrap();
        assert!(h.off().is_zero());
        assert_eq!(h.on(), f.on());
    }

    #[test]
    fn bdd_backend_agrees_with_the_dense_backend() {
        let (f, _) = fig1();
        for op in BinaryOp::all() {
            let g = valid_divisor_for(&f, op);
            let dense = quotient_sets(&f, &g, op);

            let mut mgr = BddManager::new(f.num_vars());
            let f_on = mgr.from_truth_table(f.on());
            let f_dc = mgr.from_truth_table(f.dc());
            let g_bdd = mgr.from_truth_table(&g);
            let (h_on, h_dc) = full_quotient_bdd(&mut mgr, f_on, f_dc, g_bdd, op);
            assert_eq!(mgr.to_truth_table(h_on).unwrap(), dense.on, "{op}: on-sets differ");
            assert_eq!(mgr.to_truth_table(h_dc).unwrap(), dense.dc, "{op}: dc-sets differ");
        }
    }

    #[test]
    fn table2_off_set_expressions_hold() {
        // Spot-check the h_off column of Table II for the AND and OR rows.
        let (f, g) = fig1();
        let and_sets = quotient_sets(&f, &g, BinaryOp::And);
        assert_eq!(
            and_sets.off,
            g.difference(&(f.on() | f.dc())),
            "AND: h_off ≠ g_on \\ (f_on ∪ f_dc)"
        );

        let g_under = {
            let mut t = f.on().clone();
            let m = f.on().ones().next().unwrap();
            t.set(m, false);
            t
        };
        let or_sets = quotient_sets(&f, &g_under, BinaryOp::Or);
        assert_eq!(or_sets.off, f.off(), "OR: h_off ≠ f_off");
    }
}
