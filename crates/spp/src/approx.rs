//! 0→1 approximation of 2-SPP forms by pseudoproduct expansion.
//!
//! This is the approximation used in Section IV of the paper (its reference
//! \[2\]): expanding a pseudoproduct — removing one of its factors — enlarges
//! the covered set, so the only errors it can introduce are 0→1
//! complementations, which is exactly the kind of divisor the AND and `⇏`
//! bi-decompositions need.
//!
//! Two strategies are provided:
//!
//! * [`BoundedExpansion`] — the error-rate-bounded greedy selection of \[2\]:
//!   each candidate expansion is scored by its gain (saved literals and
//!   swallowed pseudoproducts) and its cost (number of 0→1 complementations),
//!   and expansions are applied while the accumulated error rate stays within
//!   the budget;
//! * [`FullExpansion`] — the variant actually used for the paper's tables:
//!   *every* pseudoproduct is expanded, the off-set minterms involved are
//!   moved to the dc-set, and the function is re-synthesized with the extended
//!   dc-set, so the final error rate is whatever the benchmark yields.

use boolfunc::{Isf, TruthTable};

use crate::form::SppForm;
use crate::pseudoproduct::Pseudoproduct;
use crate::synth::SppSynthesizer;

/// The result of approximating `f` by a completely specified `g ⊇ f_on`.
#[derive(Debug, Clone)]
pub struct ApproximationOutcome {
    /// The approximation as a 2-SPP form.
    pub g: SppForm,
    /// The approximation as a completely specified function.
    pub g_table: TruthTable,
    /// Number of 0→1 complementations (off-set minterms of `f` on which `g`
    /// is 1).
    pub errors: u64,
    /// `errors / 2^n` — the error rate reported in Tables III and IV.
    pub error_rate: f64,
}

impl ApproximationOutcome {
    fn from_form(g: SppForm, f: &Isf) -> Self {
        let g_table = g.to_truth_table();
        // Route the accounting through the shared `TruthTable` helpers
        // instead of a local formula: masking `g` to the care set makes its
        // distance to `f_on` count exactly the care disagreements, and both
        // expansion strategies only ever over-approximate (`f_on ⊆ g`), so
        // those disagreements are precisely the 0→1 complementations.
        let masked = &g_table & &f.care();
        let errors = masked.hamming_distance(f.on());
        let error_rate = masked.error_rate(f.on());
        ApproximationOutcome { g, g_table, errors, error_rate }
    }

    /// Returns `true` if `g` is a valid 0→1 approximation of `f`
    /// (`f_on ⊆ g_on`).
    pub fn is_over_approximation(&self, f: &Isf) -> bool {
        f.on().is_subset_of(&self.g_table)
    }
}

/// Error-rate-bounded greedy pseudoproduct expansion (strategy of \[2\]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedExpansion {
    /// Maximum fraction of the 2^n minterms that may be complemented 0→1.
    pub max_error_rate: f64,
}

impl BoundedExpansion {
    /// Creates a bounded-expansion approximator with the given error budget.
    pub fn new(max_error_rate: f64) -> Self {
        BoundedExpansion { max_error_rate }
    }

    /// Approximates `f`, starting from an existing 2-SPP form realizing it.
    ///
    /// The returned `g` always satisfies `f_on ⊆ g_on`; when the budget is 0
    /// no expansion is applied and `g` is simply the input form.
    pub fn approximate(&self, form: &SppForm, f: &Isf) -> ApproximationOutcome {
        let n = form.num_vars();
        let budget = (self.max_error_rate * (1u64 << n) as f64).floor() as u64;
        let off = f.off();

        let mut current = form.clone();
        let mut current_table = current.to_truth_table();
        let mut errors = (&current_table & &off).count_ones();

        loop {
            // Enumerate candidate expansions of the current form.
            let mut best: Option<(usize, usize, u64, usize)> = None; // (pp, factor, cost, gain)
            let tables: Vec<TruthTable> =
                current.pseudoproducts().iter().map(Pseudoproduct::to_truth_table).collect();
            for (pi, pp) in current.pseudoproducts().iter().enumerate() {
                for fi in 0..pp.num_factors() {
                    let expanded = pp.expand(fi);
                    let expanded_tt = expanded.to_truth_table();
                    let new_minterms = expanded_tt.difference(&current_table);
                    let cost = (&new_minterms & &off).count_ones();
                    if errors + cost > budget {
                        continue;
                    }
                    // Gain: literals dropped from this pseudoproduct plus the
                    // literals of every other pseudoproduct the expansion covers.
                    let mut gain = pp.literal_count() - expanded.literal_count();
                    for (pj, (other, table)) in
                        current.pseudoproducts().iter().zip(&tables).enumerate()
                    {
                        if pj != pi && table.is_subset_of(&expanded_tt) {
                            gain += other.literal_count();
                        }
                    }
                    if gain == 0 {
                        continue;
                    }
                    let better = match best {
                        None => true,
                        Some((_, _, bcost, bgain)) => {
                            (gain, std::cmp::Reverse(cost)) > (bgain, std::cmp::Reverse(bcost))
                        }
                    };
                    if better {
                        best = Some((pi, fi, cost, gain));
                    }
                }
            }
            let Some((pi, fi, cost, _gain)) = best else { break };
            // Apply the expansion and drop covered pseudoproducts.
            let expanded = current.pseudoproducts()[pi].expand(fi);
            let mut pps: Vec<_> = current.pseudoproducts().to_vec();
            pps[pi] = expanded;
            let mut next = SppForm::new(n, pps);
            next.remove_covered();
            current = next;
            current_table = current.to_truth_table();
            errors += cost;
        }
        ApproximationOutcome::from_form(current, f)
    }
}

/// The paper's "expand everything, re-synthesize with the extended dc-set"
/// strategy (Section IV-A): no error budget is imposed; the error rate is a
/// property of the benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FullExpansion;

impl FullExpansion {
    /// Creates the full-expansion approximator.
    pub fn new() -> Self {
        FullExpansion
    }

    /// Widens `f` by the expansions of `form`: every pseudoproduct of `form`
    /// is expanded (each of its factors dropped in turn), and the off-set
    /// minterms those expansions would cover are moved to the dc-set.
    ///
    /// A minterm lies in one of a product's expansions exactly when at most
    /// one of the product's factors is false on it. So each table word keeps
    /// two planes per product, `z0` (no factor false yet, initially all
    /// ones) and `z1` (exactly one false, initially zero), and folds in each
    /// factor word `F` as `z1 = (z1 & F) | (z0 & !F)`, then `z0 &= F`; the
    /// product contributes `z0 | z1`. A product without factors has no
    /// expansion and contributes nothing. The result is identical to the
    /// oracle [`FullExpansion::widen_per_expansion`].
    ///
    /// # Panics
    ///
    /// Panics if `form` and `f` have different arities.
    pub fn widen(&self, form: &SppForm, f: &Isf) -> Isf {
        let mut index = 0;
        let expansions = TruthTable::from_words(form.num_vars(), || {
            let mut covered = 0;
            for pp in form.pseudoproducts().iter().filter(|pp| !pp.is_one()) {
                let (mut z0, mut z1) = (u64::MAX, 0);
                for factor in pp.factors() {
                    let word = factor.word(index);
                    z1 = (z1 & word) | (z0 & !word);
                    z0 &= word;
                }
                covered |= z0 | z1;
            }
            index += 1;
            covered
        });
        // Off-set minterms touched by some expansion become don't-cares.
        f.widen_dc(&(&expansions & &f.off()))
    }

    /// The per-expansion oracle of [`FullExpansion::widen`]: builds the table
    /// of every expansion of every pseudoproduct, one evaluation per
    /// minterm, and ORs them. O(k² · 2ⁿ) for a product of k factors.
    ///
    /// # Panics
    ///
    /// Panics if `form` and `f` have different arities.
    pub fn widen_per_expansion(&self, form: &SppForm, f: &Isf) -> Isf {
        let mut extra_dc = TruthTable::zero(form.num_vars());
        for pp in form.pseudoproducts() {
            for fi in 0..pp.num_factors() {
                extra_dc |= &pp.expand(fi).to_truth_table_per_minterm();
            }
        }
        let extra_dc = &extra_dc & &f.off();
        f.widen_dc(&extra_dc)
    }

    /// Approximates `f`: [`FullExpansion::widen`] by the expansions of
    /// `form`, then re-synthesizes the widened function with `synthesizer`.
    pub fn approximate(
        &self,
        form: &SppForm,
        f: &Isf,
        synthesizer: &SppSynthesizer,
    ) -> ApproximationOutcome {
        let g = synthesizer.synthesize(&self.widen(form, f));
        ApproximationOutcome::from_form(g, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::Lcg;
    use crate::xor_factor::XorFactor;
    use boolfunc::Isf;

    fn fig2() -> (Isf, SppForm) {
        let f = Isf::from_cover_str(4, &["1-10", "1-01", "-111", "-100"], &[]).unwrap();
        let form = SppForm::new(
            4,
            vec![
                Pseudoproduct::new(
                    4,
                    vec![XorFactor::literal(0, true), XorFactor::xor(2, 3, false)],
                ),
                Pseudoproduct::new(
                    4,
                    vec![XorFactor::literal(1, true), XorFactor::xor(2, 3, true)],
                ),
            ],
        );
        (f, form)
    }

    #[test]
    fn zero_budget_keeps_the_form_exact() {
        let (f, form) = fig2();
        let out = BoundedExpansion::new(0.0).approximate(&form, &f);
        assert!(out.is_over_approximation(&f));
        assert_eq!(out.errors, 0);
        assert_eq!(out.g_table, f.on().clone());
    }

    #[test]
    fn generous_budget_collapses_fig2_to_one_factor() {
        // Expanding x0(x2⊕x3) by dropping x0 introduces 2 errors (2/16 = 12.5%)
        // and swallows nothing; expanding x1(x2⊙x3) by dropping (x2⊙x3) is
        // worse. With a 25% budget the approximation should reach g = small form
        // with at most 2 literals, exactly like the paper's Fig. 2 discussion.
        let (f, form) = fig2();
        let out = BoundedExpansion::new(0.25).approximate(&form, &f);
        assert!(out.is_over_approximation(&f));
        assert!(out.errors > 0);
        assert!(
            out.g.literal_count() <= 3,
            "g = {} with {} literals",
            out.g,
            out.g.literal_count()
        );
        assert!(out.error_rate <= 0.25 + 1e-9);
    }

    #[test]
    fn budget_is_respected() {
        let (f, form) = fig2();
        for budget in [0.05, 0.1, 0.2, 0.5] {
            let out = BoundedExpansion::new(budget).approximate(&form, &f);
            assert!(
                out.error_rate <= budget + 1e-9,
                "budget {budget} exceeded: {}",
                out.error_rate
            );
            assert!(out.is_over_approximation(&f));
        }
    }

    #[test]
    fn full_expansion_matches_the_paper_example() {
        let (f, form) = fig2();
        let out = FullExpansion::new().approximate(&form, &f, &SppSynthesizer::new());
        assert!(out.is_over_approximation(&f));
        // The paper obtains g = x2 ⊕ x3 (2 literals, 2 errors).
        assert!(out.g.literal_count() <= 3, "g = {}", out.g);
        assert!(out.errors >= 1);
    }

    #[test]
    fn error_rate_matches_the_shared_truth_table_accounting() {
        let (f, form) = fig2();
        let out = BoundedExpansion::new(0.25).approximate(&form, &f);
        assert!((out.error_rate - out.errors as f64 / 16.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn outcome_rejects_an_arity_mismatch() {
        // Regression: the old hand-rolled accounting silently produced a
        // wrong count when f and g disagreed on arity; the shared
        // TruthTable helpers panic instead.
        let (_, form) = fig2();
        let f3 = Isf::from_cover_str(3, &["1-1"], &[]).unwrap();
        ApproximationOutcome::from_form(form, &f3);
    }

    #[test]
    fn approximate_is_the_synthesis_of_the_widened_function() {
        let synth = SppSynthesizer::new();
        let same = |form: &SppForm, f: &Isf| {
            let out = FullExpansion::new().approximate(form, f, &synth);
            let widened = FullExpansion::new().widen(form, f);
            assert_eq!(out.g, synth.synthesize(&widened), "f = {f:?}");
            assert!(f.dc().is_subset_of(widened.dc()) && widened.on() == f.on());
        };
        let (f, form) = fig2();
        same(&form, &f);
        let mut lcg = 0xA9_u64;
        let mut next = move || {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            lcg >> 33
        };
        for i in 0..20 {
            let n = 5 + i % 5;
            let on = TruthTable::from_fn(n, |_| next() % 3 == 0);
            let dc = TruthTable::from_fn(n, |_| next() % 3 == 0).difference(&on);
            assert!(!dc.is_zero(), "case {i} must carry don't-cares");
            let f = Isf::new(on, dc).unwrap();
            same(&synth.synthesize(&f), &f);
        }
    }

    /// `widen` against its per-expansion oracle on 1–12 variables: one padded
    /// word below 6, the 6-variable boundary, then multi-word tables.
    #[test]
    fn widen_matches_the_per_expansion_oracle() {
        let mut rng = Lcg(0x51DE);
        let same = |form: &SppForm, f: &Isf| {
            let widened = FullExpansion::new().widen(form, f);
            assert_eq!(widened, FullExpansion::new().widen_per_expansion(form, f), "{form}");
            widened
        };
        for n in 1..=12 {
            let f = rng.isf(n);
            // The empty form and a factorless product widen nothing.
            for form in [SppForm::zero(n), SppForm::one(n)] {
                assert_eq!(same(&form, &f), f, "{form}");
            }
            // One factor: its expansion is the whole space.
            let lone = Pseudoproduct::new(n, vec![rng.factor(n)]);
            let all = same(&SppForm::new(n, vec![lone]), &f);
            assert!(all.off().is_zero() && all.on() == f.on());
            if n >= 2 {
                // Factors sharing a variable, with an XNOR: x0·(x0⊕x1) and
                // x0'·(x0⊙x1)·(x0⊕xn-1).
                let shared = [
                    vec![XorFactor::literal(0, true), XorFactor::xor(0, 1, false)],
                    vec![
                        XorFactor::literal(0, false),
                        XorFactor::xor(0, 1, true),
                        XorFactor::xor(0, n - 1, false),
                    ],
                ];
                let pps = shared.map(|factors| Pseudoproduct::new(n, factors.to_vec()));
                same(&SppForm::new(n, pps.to_vec()), &f);
            }
            for _ in 0..24 {
                let (form, f) = (rng.form(n), rng.isf(n));
                same(&form, &f);
            }
        }
    }

    #[test]
    fn widen_rejects_an_arity_mismatch() {
        let (_, form) = fig2();
        let f5 = Isf::new(TruthTable::variable(5, 0), TruthTable::zero(5)).unwrap();
        for widen in [FullExpansion::widen, FullExpansion::widen_per_expansion] {
            let panic = std::panic::catch_unwind(|| widen(&FullExpansion, &form, &f5));
            let message =
                *panic.expect_err("an arity mismatch must panic").downcast::<String>().unwrap();
            assert!(message.contains("arity mismatch"), "{message}");
        }
    }

    #[test]
    fn approximation_of_a_function_with_dc() {
        let f = Isf::from_cover_str(4, &["11-1", "-111"], &["0000"]).unwrap();
        let form = SppSynthesizer::new().synthesize(&f);
        let out = FullExpansion::new().approximate(&form, &f, &SppSynthesizer::new());
        assert!(out.is_over_approximation(&f));
        // Errors are counted only on the off-set, never on the dc-set.
        assert_eq!(out.errors, (&out.g_table & &f.off()).count_ones());
    }
}
