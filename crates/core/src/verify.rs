//! Executable versions of the paper's Lemmas 1–5 (correctness of the
//! decomposition) and Corollaries 1–4 (maximality of the quotient's
//! flexibility), on dense truth tables and on BDDs.

use bdd::{Bdd, BddManager};
use boolfunc::{Isf, TruthTable};

use crate::operator::BinaryOp;

/// Checks Lemmas 1–5: `f = g op h` holds for **every** completion of the
/// incompletely specified quotient `h`, on every care minterm of `f`.
///
/// # Panics
///
/// Panics if the arities differ.
///
/// ```rust
/// use bidecomp::{full_quotient, verify_decomposition, BinaryOp};
/// use boolfunc::{Cover, Isf};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let f = Isf::from_cover_str(4, &["11-1", "-111"], &[])?;
/// let g = Cover::from_strs(4, &["-1-1"])?.to_truth_table();
/// let h = full_quotient(&f, &g, BinaryOp::And)?;
/// assert!(verify_decomposition(&f, &g, &h, BinaryOp::And));
/// # Ok(())
/// # }
/// ```
pub fn verify_decomposition(f: &Isf, g: &TruthTable, h: &Isf, op: BinaryOp) -> bool {
    verify_decomposition_sets(f, g, h.on(), h.dc(), op)
}

/// [`verify_decomposition`] on a quotient given as raw `(on, dc)` tables
/// (e.g. a [`crate::QuotientSets`] that was never packaged into an [`Isf`]).
///
/// The check runs word-parallel over the packed truth tables: for each
/// 64-minterm word it evaluates `g op 0` and `g op 1` with
/// [`BinaryOp::apply_words`] and flags any care minterm of `f` where a value
/// `h` is allowed to take disagrees with `f`. No memory is allocated.
///
/// # Panics
///
/// Panics if the arities differ.
pub fn verify_decomposition_sets(
    f: &Isf,
    g: &TruthTable,
    h_on: &TruthTable,
    h_dc: &TruthTable,
    op: BinaryOp,
) -> bool {
    assert_eq!(f.num_vars(), g.num_vars(), "arity mismatch between f and g");
    assert_eq!(f.num_vars(), h_on.num_vars(), "arity mismatch between f and h_on");
    assert_eq!(f.num_vars(), h_dc.num_vars(), "arity mismatch between f and h_dc");
    let fw = f.on().as_words();
    let dw = f.dc().as_words();
    let gw = g.as_words();
    let hw = h_on.as_words();
    let hd = h_dc.as_words();
    let tail = f.on().tail_mask();
    let last = fw.len() - 1;
    for i in 0..fw.len() {
        let mask = if i == last { tail } else { u64::MAX };
        let care = !dw[i];
        let with_h1 = op.apply_words(gw[i], u64::MAX);
        let with_h0 = op.apply_words(gw[i], 0);
        // h may be 1 on on ∪ dc, and may be 0 everywhere outside the on-set.
        let h_may_be_1 = hw[i] | hd[i];
        let h_may_be_0 = !hw[i];
        let bad = care & (((with_h1 ^ fw[i]) & h_may_be_1) | ((with_h0 ^ fw[i]) & h_may_be_0));
        if bad & mask != 0 {
            return false;
        }
    }
    true
}

/// Checks Corollaries 1–4: `h` is the quotient with the *smallest on-set and
/// the largest dc-set*, i.e. every specified minterm of `h` is genuinely
/// forced by the decomposition and every don't-care is genuinely free.
///
/// Together with [`verify_decomposition`] this pins `h` down uniquely: it must
/// coincide with the canonical quotient on every minterm.
///
/// # Panics
///
/// Panics if the arities differ.
pub fn verify_maximal_flexibility(f: &Isf, g: &TruthTable, h: &Isf, op: BinaryOp) -> bool {
    verify_maximal_flexibility_sets(f, g, h.on(), h.dc(), op)
}

/// [`verify_maximal_flexibility`] on a quotient given as raw `(on, dc)`
/// tables, evaluated word-parallel without allocating.
///
/// For every word the forced value of `h` is derived from `g op 0` / `g op 1`
/// versus `f`; `h_on` must equal the forced-to-1 set exactly and `h_dc` the
/// genuinely-free set exactly. A care minterm where neither value of `h`
/// realizes `f` (invalid divisor) vacuously violates maximality.
///
/// # Panics
///
/// Panics if the arities differ.
pub fn verify_maximal_flexibility_sets(
    f: &Isf,
    g: &TruthTable,
    h_on: &TruthTable,
    h_dc: &TruthTable,
    op: BinaryOp,
) -> bool {
    assert_eq!(f.num_vars(), g.num_vars(), "arity mismatch between f and g");
    assert_eq!(f.num_vars(), h_on.num_vars(), "arity mismatch between f and h_on");
    assert_eq!(f.num_vars(), h_dc.num_vars(), "arity mismatch between f and h_dc");
    let fw = f.on().as_words();
    let dw = f.dc().as_words();
    let gw = g.as_words();
    let hw = h_on.as_words();
    let hd = h_dc.as_words();
    let tail = f.on().tail_mask();
    let last = fw.len() - 1;
    for i in 0..fw.len() {
        let mask = if i == last { tail } else { u64::MAX };
        let care = !dw[i];
        let ok_with_0 = !(op.apply_words(gw[i], 0) ^ fw[i]);
        let ok_with_1 = !(op.apply_words(gw[i], u64::MAX) ^ fw[i]);
        if care & !ok_with_0 & !ok_with_1 & mask != 0 {
            return false;
        }
        let forced_true = care & !ok_with_0 & ok_with_1;
        let free = !care | (ok_with_0 & ok_with_1);
        if ((hw[i] ^ forced_true) | (hd[i] ^ free)) & mask != 0 {
            return false;
        }
    }
    true
}

/// [`verify_decomposition`] minterm by minterm: on every care minterm of
/// `f`, each value `h` may take must realize `f`. The word-parallel check's
/// oracle, kept independent of [`BinaryOp::apply_words`]; the `sweep`
/// bench times the two.
///
/// # Panics
///
/// Panics if the arities differ.
pub fn verify_decomposition_per_minterm(f: &Isf, g: &TruthTable, h: &Isf, op: BinaryOp) -> bool {
    assert_eq!(f.num_vars(), g.num_vars(), "arity mismatch between f and g");
    assert_eq!(f.num_vars(), h.num_vars(), "arity mismatch between f and h");
    for m in 0..(1u64 << f.num_vars()) {
        let Some(fv) = f.value(m) else { continue };
        let gv = g.get(m);
        let allowed: &[bool] = match h.value(m) {
            Some(true) => &[true],
            Some(false) => &[false],
            None => &[false, true],
        };
        if allowed.iter().any(|&hv| op.apply(gv, hv) != fv) {
            return false;
        }
    }
    true
}

/// [`verify_maximal_flexibility`] minterm by minterm: `h` must be forced to
/// a value exactly where only that value of `h` realizes `f`, and free
/// everywhere else. The word-parallel check's oracle; the `sweep` bench
/// times the two.
///
/// # Panics
///
/// Panics if the arities differ.
pub fn verify_maximal_flexibility_per_minterm(
    f: &Isf,
    g: &TruthTable,
    h: &Isf,
    op: BinaryOp,
) -> bool {
    assert_eq!(f.num_vars(), g.num_vars(), "arity mismatch between f and g");
    assert_eq!(f.num_vars(), h.num_vars(), "arity mismatch between f and h");
    for m in 0..(1u64 << f.num_vars()) {
        let gv = g.get(m);
        let forced = match f.value(m) {
            None => None,
            Some(fv) => {
                let ok_with_0 = op.apply(gv, false) == fv;
                let ok_with_1 = op.apply(gv, true) == fv;
                match (ok_with_0, ok_with_1) {
                    (true, true) => None,
                    (false, true) => Some(true),
                    (true, false) => Some(false),
                    (false, false) => return false,
                }
            }
        };
        if h.value(m) != forced {
            return false;
        }
    }
    true
}

/// `g op c` for a constant `c`, as a BDD: always one of
/// `{0, 1, g, ¬g}`, depending on the operator's two-point restriction.
fn op_with_const(mgr: &mut BddManager, op: BinaryOp, g: Bdd, h: bool) -> Bdd {
    match (op.apply(false, h), op.apply(true, h)) {
        (false, false) => mgr.zero(),
        (false, true) => g,
        (true, false) => mgr.not(g),
        (true, true) => mgr.one(),
    }
}

/// [`verify_decomposition`] on the BDD backend: Lemmas 1–5 checked
/// symbolically, with `f` and `h` given as `(on, dc)` BDD pairs in `mgr`.
///
/// The check builds the set of care minterms on which some allowed value of
/// `h` fails to realize `f` and tests it for emptiness — no enumeration, so
/// it runs at arities where `2^n` bits do not fit in memory.
pub fn verify_decomposition_bdd(
    mgr: &mut BddManager,
    f_on: Bdd,
    f_dc: Bdd,
    g: Bdd,
    h_on: Bdd,
    h_dc: Bdd,
    op: BinaryOp,
) -> bool {
    // h may be 1 on h_on ∪ h_dc; wherever it may be 1, g op 1 must match f.
    let with_h1 = op_with_const(mgr, op, g, true);
    let wrong1 = mgr.xor(with_h1, f_on);
    let h_may_be_1 = mgr.or(h_on, h_dc);
    let bad1 = mgr.and(wrong1, h_may_be_1);
    let bad1_care = mgr.diff(bad1, f_dc);
    if !mgr.is_zero(bad1_care) {
        return false;
    }
    // h may be 0 everywhere outside h_on.
    let with_h0 = op_with_const(mgr, op, g, false);
    let wrong0 = mgr.xor(with_h0, f_on);
    let bad0 = mgr.diff(wrong0, h_on);
    let bad0_care = mgr.diff(bad0, f_dc);
    mgr.is_zero(bad0_care)
}

/// [`verify_maximal_flexibility`] on the BDD backend: Corollaries 1–4
/// checked symbolically.
///
/// Canonicity of ROBDDs makes the final comparison O(1): the forced-to-1 set
/// and the genuinely-free set are built as BDDs and must be *pointer-equal*
/// to `h_on` and `h_dc` respectively.
pub fn verify_maximal_flexibility_bdd(
    mgr: &mut BddManager,
    f_on: Bdd,
    f_dc: Bdd,
    g: Bdd,
    h_on: Bdd,
    h_dc: Bdd,
    op: BinaryOp,
) -> bool {
    let with_h0 = op_with_const(mgr, op, g, false);
    let with_h1 = op_with_const(mgr, op, g, true);
    let ok0 = mgr.xnor(with_h0, f_on);
    let ok1 = mgr.xnor(with_h1, f_on);
    // A care minterm where neither value of h realizes f: invalid divisor.
    let neither = mgr.nor(ok0, ok1);
    let invalid = mgr.diff(neither, f_dc);
    if !mgr.is_zero(invalid) {
        return false;
    }
    // Forced-to-1: care minterms where only h = 1 works.
    let only1 = mgr.diff(ok1, ok0);
    let forced_true = mgr.diff(only1, f_dc);
    if h_on != forced_true {
        return false;
    }
    // Free: don't-cares of f, plus care minterms where both values work.
    let both = mgr.and(ok0, ok1);
    let free = mgr.or(f_dc, both);
    h_dc == free
}

/// The canonical full quotient computed minterm-by-minterm from the defining
/// property (rather than from the closed-form expressions of Table II). Used
/// as an independent oracle in tests and available to callers who want the
/// quotient for a divisor that does not satisfy the Table II side conditions
/// everywhere.
///
/// Returns `None` if for some care minterm neither value of `h` realizes `f`
/// (which happens exactly when `g` is not a valid divisor for `op`).
pub fn canonical_quotient(f: &Isf, g: &TruthTable, op: BinaryOp) -> Option<Isf> {
    assert_eq!(f.num_vars(), g.num_vars(), "arity mismatch between f and g");
    let n = f.num_vars();
    let mut on = TruthTable::zero(n);
    let mut dc = TruthTable::zero(n);
    for m in 0..(1u64 << n) {
        let gv = g.get(m);
        match f.value(m) {
            None => dc.set(m, true),
            Some(fv) => {
                let ok_with_0 = op.apply(gv, false) == fv;
                let ok_with_1 = op.apply(gv, true) == fv;
                match (ok_with_0, ok_with_1) {
                    (true, true) => dc.set(m, true),
                    (false, true) => on.set(m, true),
                    (true, false) => {}
                    (false, false) => return None,
                }
            }
        }
    }
    Some(Isf::new(on, dc).expect("on and dc are disjoint by construction"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quotient::full_quotient;
    use boolfunc::Cover;

    fn fig1() -> (Isf, TruthTable) {
        let f = Isf::from_cover_str(4, &["11-1", "-111"], &[]).unwrap();
        let g = Cover::from_strs(4, &["-1-1"]).unwrap().to_truth_table();
        (f, g)
    }

    #[test]
    fn fig1_quotient_verifies_and_any_tampering_breaks_it() {
        let (f, g) = fig1();
        let h = full_quotient(&f, &g, BinaryOp::And).unwrap();
        assert!(verify_decomposition(&f, &g, &h, BinaryOp::And));
        assert!(verify_maximal_flexibility(&f, &g, &h, BinaryOp::And));

        // Moving the error minterm from off to dc breaks correctness.
        let tampered = Isf::new(h.on().clone(), h.dc() | &h.off()).unwrap();
        assert!(!verify_decomposition(&f, &g, &tampered, BinaryOp::And));

        // Declaring an extra on-set minterm keeps correctness but loses
        // maximality.
        let extra_on = {
            let mut on = h.on().clone();
            let spare = h.dc().ones().next().unwrap();
            on.set(spare, true);
            Isf::new(
                on,
                h.dc().difference(&TruthTable::from_fn(4, |m| m == h.dc().ones().next().unwrap())),
            )
            .unwrap()
        };
        assert!(verify_decomposition(&f, &g, &extra_on, BinaryOp::And));
        assert!(!verify_maximal_flexibility(&f, &g, &extra_on, BinaryOp::And));
    }

    #[test]
    fn canonical_quotient_agrees_with_table_ii() {
        let (f, g) = fig1();
        for op in [BinaryOp::And, BinaryOp::NonImplication, BinaryOp::Xor, BinaryOp::Xnor] {
            let canonical = canonical_quotient(&f, &g, op).unwrap();
            let table = full_quotient(&f, &g, op).unwrap();
            assert_eq!(canonical.on(), table.on(), "{op}: on-sets differ");
            assert_eq!(canonical.dc(), table.dc(), "{op}: dc-sets differ");
        }
    }

    #[test]
    fn canonical_quotient_detects_invalid_divisors() {
        let (f, g) = fig1();
        // g is an over-approximation: no quotient exists for OR.
        assert!(canonical_quotient(&f, &g, BinaryOp::Or).is_none());
        assert!(canonical_quotient(&f, &g, BinaryOp::And).is_some());
    }

    #[test]
    fn trivial_decompositions_of_the_introduction() {
        // g0 = f, h0 = 1  and  gn = 1, hn = f (the endpoints of the sequence
        // described in Section I for the AND operator).
        let (f, _) = fig1();
        let one = TruthTable::one(4);
        let h_for_g_equals_f = full_quotient(&f, f.on(), BinaryOp::And).unwrap();
        assert!(h_for_g_equals_f.is_completion(&one));
        let h_for_g_equals_one = full_quotient(&f, &one, BinaryOp::And).unwrap();
        assert_eq!(h_for_g_equals_one.on(), f.on());
        assert_eq!(&h_for_g_equals_one.off(), &f.off());
    }

    #[test]
    fn word_level_verifiers_agree_with_the_minterm_oracle() {
        // Deterministic sweep over random (f, g, h) triples — including many
        // h that are NOT valid quotients — on arities that exercise partial
        // and multi-word tables.
        let mut rng = benchmarks::DetRng::seed_from_u64(0x5EED);
        let mut next = move || rng.next_u64();
        for case in 0..64 {
            let n = [3, 5, 6, 7][case % 4];
            let f_dc = TruthTable::from_words(n, &mut next);
            let f_on = TruthTable::from_words(n, &mut next).difference(&f_dc);
            let f = Isf::new(f_on, f_dc).unwrap();
            let g = TruthTable::from_words(n, &mut next);
            let h_dc = TruthTable::from_words(n, &mut next);
            let h_on = TruthTable::from_words(n, &mut next).difference(&h_dc);
            let h = Isf::new(h_on, h_dc).unwrap();
            for op in BinaryOp::all() {
                assert_eq!(
                    verify_decomposition(&f, &g, &h, op),
                    verify_decomposition_per_minterm(&f, &g, &h, op),
                    "case {case}, {op}: verify_decomposition"
                );
                assert_eq!(
                    verify_maximal_flexibility(&f, &g, &h, op),
                    verify_maximal_flexibility_per_minterm(&f, &g, &h, op),
                    "case {case}, {op}: verify_maximal_flexibility"
                );
                // The true quotient must still pass both word-level checks.
                if let Some(q) = canonical_quotient(&f, &g, op) {
                    assert!(verify_decomposition(&f, &g, &q, op), "case {case}, {op}");
                    assert!(verify_maximal_flexibility(&f, &g, &q, op), "case {case}, {op}");
                }
            }
        }
    }

    #[test]
    fn xor_quotient_is_the_error_function() {
        let (f, g) = fig1();
        let h = full_quotient(&f, &g, BinaryOp::Xor).unwrap();
        // h_on must be exactly the set of care minterms where f and g differ.
        let expected = &(f.on() ^ &g) & &f.care();
        assert_eq!(h.on(), &expected);
        assert_eq!(h.dc(), f.dc());
    }
}
