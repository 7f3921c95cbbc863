//! Heuristic 2-SPP synthesis.
//!
//! The synthesizer follows the practical recipe of the 2-SPP literature the
//! paper builds on: start from a two-level (SOP) cover minimized with the
//! don't-care set, then repeatedly merge pairs of pseudoproducts whose union
//! is again a pseudoproduct — either because the two differ in a single
//! complemented factor (ordinary cube merging) or because they differ in two
//! literals over the same pair of variables with both polarities flipped,
//! which is exactly an XOR/XNOR factor. Both rules are exact (they never
//! change the function), so the result always realizes the input ISF.
//!
//! Both rules also need the two products to share their variable support:
//! rule 1 flips one factor over the same variables, rule 2 two literals in
//! place. So [`SppSynthesizer::merge_cover`] first checks whether any two
//! cubes of its cover have the same support ([`boolfunc::Cube::mask`]).
//! When none do, no pair can merge, the first round would change nothing
//! and so would every later one, and the cover is returned as a form
//! without running a round. Most espresso covers of a recursive synthesis
//! take that exit. [`SppSynthesizer::merge_rounds`] is the rounds alone,
//! the oracle the guarded path must equal.

use boolfunc::{Cover, Cube, Isf};
use sop::{espresso_isf, EspressoOptions};

use crate::form::SppForm;
use crate::pseudoproduct::Pseudoproduct;
use crate::xor_factor::XorFactor;

/// Upper bound on merge rounds (each round scans all pairs once).
const MAX_MERGE_ROUNDS: usize = 16;

/// Options controlling 2-SPP synthesis.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SynthesisOptions {
    /// Options passed to the underlying espresso run that produces the seed
    /// SOP cover.
    pub espresso: EspressoOptions,
}

/// Heuristic synthesizer producing [`SppForm`]s from incompletely specified
/// functions.
///
/// ```rust
/// use boolfunc::Isf;
/// use spp::SppSynthesizer;
///
/// # fn main() -> Result<(), boolfunc::BoolFuncError> {
/// let f = Isf::from_cover_str(3, &["110", "101", "011", "000"], &[])?;
/// // f is the complement of a parity-ish function; 2-SPP needs far fewer
/// // literals than the 12-literal SOP.
/// let form = SppSynthesizer::new().synthesize(&f);
/// assert!(form.matches(&f));
/// assert!(form.literal_count() <= 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SppSynthesizer {
    options: SynthesisOptions,
}

impl SppSynthesizer {
    /// Creates a synthesizer with default options.
    pub fn new() -> Self {
        SppSynthesizer { options: SynthesisOptions::default() }
    }

    /// The options used by this synthesizer.
    pub fn options(&self) -> &SynthesisOptions {
        &self.options
    }

    /// Synthesizes a 2-SPP form realizing the ISF `f`: espresso on its truth
    /// tables ([`sop::espresso_isf`]), then pseudoproduct merging.
    ///
    /// The result equals [`SppSynthesizer::improve_cover`] of the espresso
    /// cover, but skips its final [`SppForm::remove_covered`], which can
    /// drop nothing here. Espresso's cover is irredundant: no cube lies
    /// inside the other cubes plus `dc`. Both merge rules replace two
    /// products by exactly their union, so every merged product is the
    /// union of its own group of cubes, the groups partitioning the cover.
    /// A product inside the others would put each cube of its group inside
    /// the other groups' cubes. Debug builds prune the result and assert
    /// that nothing went.
    pub fn synthesize(&self, f: &Isf) -> SppForm {
        let form = self.merge_cover(&espresso_isf(f, self.options.espresso));
        debug_assert_eq!(form.clone().remove_covered(), 0, "merged espresso cover is irredundant");
        form
    }

    /// Runs only the pseudoproduct-merging phase on an existing SOP cover:
    /// [`SppSynthesizer::merge_cover`], then [`SppForm::remove_covered`].
    ///
    /// The pruning is for covers of unknown origin, which may hold a cube
    /// inside the others. On an irredundant cover (any espresso result,
    /// such as the cube-list cover perfbench's traced replay hands in) it
    /// drops nothing, which is why [`SppSynthesizer::synthesize`] leaves it
    /// out.
    pub fn improve_cover(&self, cover: &Cover) -> SppForm {
        let mut form = self.merge_cover(cover);
        form.remove_covered();
        form
    }

    /// The merge rounds of [`SppSynthesizer::improve_cover`] without its
    /// final pruning of covered pseudoproducts.
    ///
    /// Equals [`SppSynthesizer::merge_rounds`] of the cover's form, but
    /// skips the rounds when no two cubes share a variable support. That
    /// guard is exact: both merge rules pair products over the same
    /// variables (rule 1 flips one factor, rule 2 two literals in place),
    /// so over distinct supports the first round merges nothing and the
    /// rounds stop there with the form unchanged. It is checked once, on
    /// the cover: after a merge the supports are no longer cube masks.
    pub fn merge_cover(&self, cover: &Cover) -> SppForm {
        let mut masks: Vec<u64> = cover.iter().map(Cube::mask).collect();
        masks.sort_unstable();
        let form = SppForm::from_cover(cover);
        if masks.windows(2).all(|pair| pair[0] != pair[1]) {
            return form;
        }
        self.merge_rounds(form)
    }

    /// Merges pairs of pseudoproducts, round after round (at most 16), until
    /// a round merges nothing.
    ///
    /// This is the oracle of [`SppSynthesizer::merge_cover`]'s shared-support
    /// guard: `merge_cover(c) == merge_rounds(SppForm::from_cover(c))` for
    /// every cover `c`, which the property tests and `synth_sweep`'s `merge`
    /// arm check.
    pub fn merge_rounds(&self, mut form: SppForm) -> SppForm {
        for _ in 0..MAX_MERGE_ROUNDS {
            if !self.merge_round(&mut form) {
                break;
            }
        }
        form
    }

    /// One pass over all pairs; returns `true` if at least one merge happened.
    fn merge_round(&self, form: &mut SppForm) -> bool {
        let pps: Vec<Pseudoproduct> = form.pseudoproducts().to_vec();
        let n = form.num_vars();
        let mut used = vec![false; pps.len()];
        let mut merged_any = false;
        let mut result: Vec<Pseudoproduct> = Vec::with_capacity(pps.len());
        for i in 0..pps.len() {
            if used[i] {
                continue;
            }
            let mut merged: Option<Pseudoproduct> = None;
            for j in (i + 1)..pps.len() {
                if used[j] {
                    continue;
                }
                if let Some(m) = try_merge(&pps[i], &pps[j]) {
                    used[j] = true;
                    merged = Some(m);
                    merged_any = true;
                    break;
                }
            }
            used[i] = true;
            result.push(merged.unwrap_or_else(|| pps[i].clone()));
        }
        *form = SppForm::new(n, result);
        merged_any
    }
}

/// Tries to merge two pseudoproducts into a single one covering exactly their
/// union. Returns `None` if no exact merge rule applies.
pub(crate) fn try_merge(p: &Pseudoproduct, q: &Pseudoproduct) -> Option<Pseudoproduct> {
    let only_p: Vec<XorFactor> =
        p.factors().iter().copied().filter(|f| !q.factors().contains(f)).collect();
    let only_q: Vec<XorFactor> =
        q.factors().iter().copied().filter(|f| !p.factors().contains(f)).collect();
    let common: Vec<XorFactor> =
        p.factors().iter().copied().filter(|f| q.factors().contains(f)).collect();

    match (only_p.len(), only_q.len()) {
        // Rule 1: the two products differ in one factor and those factors are
        // complements of each other: C·F + C·F' = C.
        (1, 1) if only_q[0] == only_p[0].complement() => {
            Some(Pseudoproduct::new(p.num_vars(), common))
        }
        // Rule 2: the two products differ in two plain literals over the same
        // two variables, with both polarities flipped:
        //   C·(xa=va)(xb=vb) + C·(xa=!va)(xb=!vb) = C·(xa ⊕ xb or xa ⊙ xb).
        (2, 2) => {
            let lits_p = as_literal_pair(&only_p)?;
            let lits_q = as_literal_pair(&only_q)?;
            let ((pa, va), (pb, vb)) = lits_p;
            let ((qa, wa), (qb, wb)) = lits_q;
            if pa != qa || pb != qb {
                return None;
            }
            if va != wa && vb != wb {
                // Same-polarity pair ⇒ XNOR, opposite-polarity pair ⇒ XOR.
                let complemented = va == vb;
                let factor = XorFactor::xor(pa, pb, complemented);
                let mut factors = common;
                factors.push(factor);
                Some(Pseudoproduct::new(p.num_vars(), factors))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Interprets a two-element factor slice as a pair of plain literals, sorted
/// by variable index; returns `((var_a, pol_a), (var_b, pol_b))`.
fn as_literal_pair(factors: &[XorFactor]) -> Option<((usize, bool), (usize, bool))> {
    if factors.len() != 2 {
        return None;
    }
    let lit = |f: &XorFactor| match *f {
        XorFactor::Literal { var, positive } => Some((var, positive)),
        XorFactor::Xor { .. } => None,
    };
    let a = lit(&factors[0])?;
    let b = lit(&factors[1])?;
    if a.0 == b.0 {
        return None;
    }
    Some(if a.0 < b.0 { (a, b) } else { (b, a) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::Lcg;
    use boolfunc::TruthTable;

    #[test]
    fn cube_merge_rule() {
        let n = 3;
        let p =
            Pseudoproduct::new(n, vec![XorFactor::literal(0, true), XorFactor::literal(1, true)]);
        let q =
            Pseudoproduct::new(n, vec![XorFactor::literal(0, true), XorFactor::literal(1, false)]);
        let m = try_merge(&p, &q).unwrap();
        assert_eq!(m.factors(), &[XorFactor::literal(0, true)]);
    }

    #[test]
    fn xor_merge_rule() {
        let n = 4;
        // x0 x2 x3' + x0 x2' x3 = x0 (x2 ⊕ x3)
        let p = Pseudoproduct::new(
            n,
            vec![
                XorFactor::literal(0, true),
                XorFactor::literal(2, true),
                XorFactor::literal(3, false),
            ],
        );
        let q = Pseudoproduct::new(
            n,
            vec![
                XorFactor::literal(0, true),
                XorFactor::literal(2, false),
                XorFactor::literal(3, true),
            ],
        );
        let m = try_merge(&p, &q).unwrap();
        assert!(m.factors().contains(&XorFactor::xor(2, 3, false)));
        let expected = &p.to_truth_table() | &q.to_truth_table();
        assert_eq!(m.to_truth_table(), expected);
    }

    #[test]
    fn xnor_merge_rule() {
        let n = 4;
        // x1 x2 x3 + x1 x2' x3' = x1 (x2 ⊙ x3)
        let p = Pseudoproduct::new(
            n,
            vec![
                XorFactor::literal(1, true),
                XorFactor::literal(2, true),
                XorFactor::literal(3, true),
            ],
        );
        let q = Pseudoproduct::new(
            n,
            vec![
                XorFactor::literal(1, true),
                XorFactor::literal(2, false),
                XorFactor::literal(3, false),
            ],
        );
        let m = try_merge(&p, &q).unwrap();
        assert!(m.factors().contains(&XorFactor::xor(2, 3, true)));
        let expected = &p.to_truth_table() | &q.to_truth_table();
        assert_eq!(m.to_truth_table(), expected);
    }

    #[test]
    fn no_merge_when_rules_do_not_apply() {
        let n = 3;
        let p = Pseudoproduct::new(n, vec![XorFactor::literal(0, true)]);
        let q = Pseudoproduct::new(n, vec![XorFactor::literal(1, true)]);
        assert!(try_merge(&p, &q).is_none());
        let r =
            Pseudoproduct::new(n, vec![XorFactor::literal(0, true), XorFactor::literal(1, true)]);
        assert!(try_merge(&p, &r).is_none());
    }

    #[test]
    fn synthesize_fig2() {
        // f = x0 (x2 ⊕ x3) + x1 (x2 ⊙ x3): 12 SOP literals, 6 2-SPP literals.
        let f = Isf::from_cover_str(4, &["1-10", "1-01", "-111", "-100"], &[]).unwrap();
        let form = SppSynthesizer::new().synthesize(&f);
        assert!(form.matches(&f));
        assert!(form.literal_count() <= 8, "got {} literals: {form}", form.literal_count());
        assert!(form.xor_factor_count() >= 1);
    }

    #[test]
    fn parity_of_two_variables_collapses_to_one_pseudoproduct() {
        let f = Isf::from_cover_str(2, &["10", "01"], &[]).unwrap();
        let form = SppSynthesizer::new().synthesize(&f);
        assert!(form.matches(&f));
        assert_eq!(form.num_pseudoproducts(), 1);
        assert_eq!(form.literal_count(), 2);
    }

    #[test]
    fn synthesized_forms_match_on_random_functions() {
        let mut lcg = 0x51u64;
        let mut next = move || {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            lcg >> 33
        };
        for _ in 0..20 {
            let on = TruthTable::from_fn(4, |_| next() % 3 == 0);
            let dc = TruthTable::from_fn(4, |_| next() % 5 == 0).difference(&on);
            let f = Isf::new(on, dc).unwrap();
            let form = SppSynthesizer::new().synthesize(&f);
            assert!(form.matches(&f), "form {form} does not realize {f:?}");
        }
    }

    /// Both espresso shapes the synthesizers of the workspace run.
    const SHAPES: [EspressoOptions; 2] = [
        EspressoOptions { max_iterations: 8, use_reduce: true },
        EspressoOptions { max_iterations: 1, use_reduce: false },
    ];

    /// `rounds` random ISFs per arity up to `max_vars` (on 5–90%, dc
    /// 0–60%) and `rounds` cold-shaped ones per arity 9–12, each named.
    fn espresso_cases(rounds: usize, max_vars: usize) -> Vec<(String, Isf)> {
        let grid = [(5, 0), (20, 40), (50, 10), (90, 0), (35, 60), (70, 30)];
        let mut rng = Lcg(0x1DDE_D0C5);
        let mut cases = Vec::new();
        for n in 1..=max_vars {
            for round in 0..rounds {
                let (on_pct, dc_pct) = grid[(n + round) % grid.len()];
                let f = rng.isf_with_density(n, on_pct, dc_pct);
                cases.push((format!("n={n} on={on_pct}% dc={dc_pct}% #{round}"), f));
            }
        }
        for n in 9..=12 {
            for round in 0..rounds {
                cases.push((format!("n={n} cold #{round}"), rng.cold_isf(n)));
            }
        }
        cases
    }

    /// Espresso's cover, merged, holds no product inside the others, so
    /// [`SppSynthesizer::synthesize`] (which does not prune) returns what
    /// [`SppSynthesizer::improve_cover`] (which does) returns. Checked under
    /// both espresso shapes on [`espresso_cases`].
    fn check_merged_espresso_covers_are_irredundant(rounds: usize, max_vars: usize) {
        for (what, f) in &espresso_cases(rounds, max_vars) {
            for espresso in SHAPES {
                let synthesizer = SppSynthesizer { options: SynthesisOptions { espresso } };
                let form = synthesizer.synthesize(f);
                assert!(form.matches(f), "{what}, {espresso:?}");
                // `synthesize` is `merge_cover` of the espresso cover.
                assert_eq!(form.clone().remove_covered_pairwise(), 0, "{what}, {espresso:?}");
                let cover = espresso_isf(f, espresso);
                assert_eq!(form, synthesizer.improve_cover(&cover), "{what}, {espresso:?}");
            }
        }
    }

    /// Dense random ISFs stop at 10 inputs here: merging their covers of
    /// hundreds of cubes on 11–12 inputs takes seconds in debug builds.
    /// The cold-shaped ISFs cover 9–12 inputs, and the nightly variant
    /// every arity.
    #[test]
    fn merged_espresso_covers_are_irredundant() {
        check_merged_espresso_covers_are_irredundant(4, 10);
    }

    /// The nightly variant: ten times the rounds per arity, dense random
    /// ISFs on 1–12 inputs.
    #[test]
    #[ignore = "nightly: run with --release --ignored"]
    fn merged_espresso_covers_are_irredundant_deep() {
        check_merged_espresso_covers_are_irredundant(40, 12);
    }

    /// How the one pair of a crafted cover that shares a support differs.
    #[derive(Debug, Clone, Copy)]
    enum SharedPair {
        /// `C·x + C·x'`: merges by rule 1.
        OneLiteral,
        /// `C·xa·xb' + C·xa'·xb`: merges by rule 2.
        TwoLiterals,
        /// `C·xa·xb·xc + C·xa'·xb'·xc'`: merges by neither rule.
        ThreeLiterals,
    }

    /// A cover on `n ≥ 3` variables whose only two cubes with the same
    /// support are a [`SharedPair`], placed at random positions among up
    /// to four filler cubes of pairwise distinct supports.
    fn crafted_cover(rng: &mut Lcg, n: usize, pair: SharedPair) -> Cover {
        let flipped = match pair {
            SharedPair::OneLiteral => 1,
            SharedPair::TwoLiterals => 2,
            SharedPair::ThreeLiterals => 3,
        };
        let mut vars: Vec<usize> = (0..n).collect();
        for i in 0..flipped {
            vars.swap(i, i + rng.below(n - i));
        }
        let flip_mask = vars[..flipped].iter().fold(0u64, |m, &v| m | 1 << v);
        let random_word = |rng: &mut Lcg| (0..n).fold(0u64, |w, v| w | (rng.below(2) as u64) << v);
        let shared = random_word(rng) & !flip_mask | flip_mask;
        let base = random_word(rng) & shared & !flip_mask;
        let (p, q) = match pair {
            // x + x', and xa·xb' + xa'·xb: the lowest flipped bit is positive
            // in `p`, the others in `q`.
            SharedPair::OneLiteral | SharedPair::TwoLiterals => {
                let low = 1u64 << vars[..flipped].iter().min().unwrap();
                (base | low, base | flip_mask & !low)
            }
            SharedPair::ThreeLiterals => {
                let polarity = random_word(rng) & flip_mask;
                (base | polarity, base | flip_mask & !polarity)
            }
        };
        let mut masks = vec![shared];
        let mut cubes = Vec::new();
        for _ in 0..rng.below(5) {
            let mask = random_word(rng);
            if !masks.contains(&mask) {
                masks.push(mask);
                cubes.push(Cube::from_masks(n, mask, random_word(rng) & mask).unwrap());
            }
        }
        for value in [p, q] {
            let at = rng.below(cubes.len() + 1);
            cubes.insert(at, Cube::from_masks(n, shared, value).unwrap());
        }
        Cover::from_cubes(n, cubes)
    }

    /// [`SppSynthesizer::merge_cover`]'s shared-support guard against its
    /// oracle, the unguarded [`SppSynthesizer::merge_rounds`]: on espresso
    /// covers of [`espresso_cases`] under both shapes, and on `10 · rounds`
    /// crafted covers per arity 3–12 and kind of [`SharedPair`], where the
    /// pair must merge (or, for three flipped literals, nothing may).
    fn check_guard_matches_its_oracle(rounds: usize, max_vars: usize) {
        let synthesizer = SppSynthesizer::new();
        let oracle = |cover: &Cover| synthesizer.merge_rounds(SppForm::from_cover(cover));
        for (what, f) in &espresso_cases(rounds, max_vars) {
            for espresso in SHAPES {
                let cover = espresso_isf(f, espresso);
                assert_eq!(synthesizer.merge_cover(&cover), oracle(&cover), "{what}, {espresso:?}");
            }
        }
        let mut rng = Lcg(0x5EED_6A4D);
        for n in 3..=12 {
            for round in 0..10 * rounds {
                for pair in
                    [SharedPair::OneLiteral, SharedPair::TwoLiterals, SharedPair::ThreeLiterals]
                {
                    let cover = crafted_cover(&mut rng, n, pair);
                    let what = format!("n={n} {pair:?} #{round}: {cover}");
                    let merged = synthesizer.merge_cover(&cover);
                    assert_eq!(merged, oracle(&cover), "{what}");
                    assert_eq!(merged.to_truth_table(), cover.to_truth_table(), "{what}");
                    match pair {
                        SharedPair::ThreeLiterals => {
                            assert_eq!(merged, SppForm::from_cover(&cover), "{what}")
                        }
                        _ => assert!(merged.num_pseudoproducts() < cover.num_cubes(), "{what}"),
                    }
                }
            }
        }
    }

    /// Dense random ISFs stop at 10 inputs here, as in
    /// [`merged_espresso_covers_are_irredundant`].
    #[test]
    fn merge_guard_matches_the_unguarded_rounds() {
        check_guard_matches_its_oracle(4, 10);
    }

    /// The nightly variant: ten times the rounds per arity, dense random
    /// ISFs on 1–12 inputs.
    #[test]
    #[ignore = "nightly: run with --release --ignored"]
    fn merge_guard_matches_the_unguarded_rounds_deep() {
        check_guard_matches_its_oracle(40, 12);
    }

    #[test]
    fn never_worse_than_the_sop_seed() {
        let f = Isf::from_cover_str(4, &["1-10", "1-01", "-111", "-100", "0000"], &[]).unwrap();
        let sop = sop::espresso(&f);
        let form = SppSynthesizer::new().synthesize(&f);
        assert!(form.literal_count() <= sop.literal_count());
    }
}
