use std::fmt;

use boolfunc::{Cover, Isf, TruthTable};

use crate::pseudoproduct::Pseudoproduct;

/// A 2-SPP form: the disjunction (OR) of a set of [`Pseudoproduct`]s, i.e. a
/// three-level XOR-AND-OR expression with XOR factors of at most two literals.
///
/// ```rust
/// use spp::{Pseudoproduct, SppForm, XorFactor};
///
/// // Fig. 2 of the paper: g = x2 ⊕ x3 (after expansion of the first
/// // pseudoproduct of f).
/// let g = SppForm::new(4, vec![Pseudoproduct::new(4, vec![XorFactor::xor(2, 3, false)])]);
/// assert_eq!(g.literal_count(), 2);
/// assert_eq!(g.to_truth_table().count_ones(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SppForm {
    num_vars: usize,
    pseudoproducts: Vec<Pseudoproduct>,
}

impl SppForm {
    /// Creates a form from a list of pseudoproducts (duplicates are removed).
    ///
    /// # Panics
    ///
    /// Panics if a pseudoproduct lives in a different variable space.
    pub fn new(num_vars: usize, mut pseudoproducts: Vec<Pseudoproduct>) -> Self {
        for pp in &pseudoproducts {
            assert_eq!(pp.num_vars(), num_vars, "pseudoproduct arity mismatch");
        }
        pseudoproducts.sort();
        pseudoproducts.dedup();
        SppForm { num_vars, pseudoproducts }
    }

    /// The empty form (constant 0).
    pub fn zero(num_vars: usize) -> Self {
        SppForm { num_vars, pseudoproducts: Vec::new() }
    }

    /// The form consisting of the single empty pseudoproduct (constant 1).
    pub fn one(num_vars: usize) -> Self {
        SppForm { num_vars, pseudoproducts: vec![Pseudoproduct::one(num_vars)] }
    }

    /// Builds a form from a plain SOP cover (one pseudoproduct per cube).
    pub fn from_cover(cover: &Cover) -> Self {
        let pps = cover.iter().map(Pseudoproduct::from_cube).collect();
        SppForm::new(cover.num_vars(), pps)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The pseudoproducts of the form.
    pub fn pseudoproducts(&self) -> &[Pseudoproduct] {
        &self.pseudoproducts
    }

    /// Number of pseudoproducts.
    pub fn num_pseudoproducts(&self) -> usize {
        self.pseudoproducts.len()
    }

    /// Returns `true` if the form has no pseudoproducts (constant 0).
    pub fn is_zero(&self) -> bool {
        self.pseudoproducts.is_empty()
    }

    /// Total literal count — the 2-SPP cost measure used in the paper's
    /// examples and as a proxy for area before technology mapping.
    pub fn literal_count(&self) -> usize {
        self.pseudoproducts.iter().map(Pseudoproduct::literal_count).sum()
    }

    /// Number of two-literal XOR factors across the form.
    pub fn xor_factor_count(&self) -> usize {
        self.pseudoproducts
            .iter()
            .map(|pp| pp.factors().iter().filter(|f| f.is_xor()).count())
            .sum()
    }

    /// Evaluates the form on a minterm.
    pub fn eval(&self, minterm: u64) -> bool {
        self.pseudoproducts.iter().any(|pp| pp.eval(minterm))
    }

    /// Dense truth table of the form, built one 64-minterm word at a time as
    /// the OR of its products' words. The result is identical to the oracle
    /// [`SppForm::to_truth_table_per_minterm`].
    ///
    /// # Panics
    ///
    /// Panics if the number of variables exceeds the dense limit.
    pub fn to_truth_table(&self) -> TruthTable {
        let mut index = 0;
        TruthTable::from_words(self.num_vars, || {
            index += 1;
            self.pseudoproducts.iter().fold(0, |word, pp| word | pp.word(index - 1))
        })
    }

    /// The per-minterm oracle of [`SppForm::to_truth_table`]: one
    /// [`SppForm::eval`] per minterm.
    ///
    /// # Panics
    ///
    /// Panics if the number of variables exceeds the dense limit.
    pub fn to_truth_table_per_minterm(&self) -> TruthTable {
        TruthTable::from_fn(self.num_vars, |m| self.eval(m))
    }

    /// Returns `true` if the form is a legal realization of the incompletely
    /// specified function `f` (covers the on-set, avoids the off-set).
    pub fn matches(&self, f: &Isf) -> bool {
        let tt = self.to_truth_table();
        f.on().is_subset_of(&tt) && tt.is_subset_of(&f.max_completion())
    }

    /// Adds a pseudoproduct.
    ///
    /// # Panics
    ///
    /// Panics if the pseudoproduct lives in a different variable space.
    pub fn push(&mut self, pp: Pseudoproduct) {
        assert_eq!(pp.num_vars(), self.num_vars, "pseudoproduct arity mismatch");
        self.pseudoproducts.push(pp);
    }

    /// Removes pseudoproducts whose minterms are entirely covered by the rest
    /// of the form; returns how many were dropped.
    ///
    /// Products are visited in order, and product `i` is dropped exactly when
    /// it lies in the union of the kept products before it and all products
    /// after it. Each product's words are computed from its factors once,
    /// into a table both passes read: a backward pass stores the suffix
    /// unions, and a forward pass tests each product against its suffix
    /// union and a running union of the kept products. So k products take
    /// 2k + 1 tables of working memory and O(k) table passes. The kept
    /// products, their order and the count are identical to the pairwise
    /// oracle [`SppForm::remove_covered_pairwise`].
    ///
    /// Two callers still prune: [`crate::BoundedExpansion`] after each
    /// expansion, whose grown product may swallow others, and
    /// [`crate::SppSynthesizer::improve_cover`] on a caller's cover.
    /// [`crate::SppSynthesizer::synthesize`] does not: its merged espresso
    /// cover never holds a covered product (debug builds check).
    pub fn remove_covered(&mut self) -> usize {
        let before = self.pseudoproducts.len();
        let width = (1usize << self.num_vars).div_ceil(64);
        let mut tables = vec![0u64; before * width];
        for (pp, table) in self.pseudoproducts.iter().zip(tables.chunks_exact_mut(width)) {
            for (w, word) in table.iter_mut().enumerate() {
                *word = pp.word(w);
            }
        }
        // Table i of `after` is the union of products i + 1, i + 2, ...
        let mut after = vec![0u64; before * width];
        for i in (1..before).rev() {
            let (head, next) = after.split_at_mut(i * width);
            let product = &tables[i * width..(i + 1) * width];
            for ((word, n), p) in head[(i - 1) * width..].iter_mut().zip(next).zip(product) {
                *word = *n | p;
            }
        }
        let mut rows = tables.chunks_exact(width).zip(after.chunks_exact(width));
        let mut kept = vec![0u64; width];
        self.pseudoproducts.retain(|_| {
            let (product, rest) = rows.next().expect("one table per product");
            // Below 6 variables the padding bits repeat the valid ones, so
            // testing whole words decides coverage of the valid minterms.
            let covered = product.iter().zip(&kept).zip(rest).all(|((p, k), r)| p & !(k | r) == 0);
            if !covered {
                kept.iter_mut().zip(product).for_each(|(k, p)| *k |= p);
            }
            !covered
        });
        before - self.pseudoproducts.len()
    }

    /// The pairwise oracle of [`SppForm::remove_covered`]: builds every
    /// product's per-minterm table, then for each product in turn ORs the
    /// tables of all other products not yet removed. O(k²) table passes.
    pub fn remove_covered_pairwise(&mut self) -> usize {
        let before = self.pseudoproducts.len();
        let tables: Vec<TruthTable> =
            self.pseudoproducts.iter().map(Pseudoproduct::to_truth_table_per_minterm).collect();
        let mut removed = vec![false; before];
        for i in 0..before {
            let mut rest = TruthTable::zero(self.num_vars);
            for (j, t) in tables.iter().enumerate() {
                if j != i && !removed[j] {
                    rest = &rest | t;
                }
            }
            if tables[i].is_subset_of(&rest) {
                removed[i] = true;
            }
        }
        let mut kept = Vec::with_capacity(before);
        for (i, pp) in self.pseudoproducts.drain(..).enumerate() {
            if !removed[i] {
                kept.push(pp);
            }
        }
        self.pseudoproducts = kept;
        before - self.pseudoproducts.len()
    }

    /// Iterates over the pseudoproducts.
    pub fn iter(&self) -> std::slice::Iter<'_, Pseudoproduct> {
        self.pseudoproducts.iter()
    }
}

impl<'a> IntoIterator for &'a SppForm {
    type Item = &'a Pseudoproduct;
    type IntoIter = std::slice::Iter<'a, Pseudoproduct>;

    fn into_iter(self) -> Self::IntoIter {
        self.pseudoproducts.iter()
    }
}

impl fmt::Display for SppForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.pseudoproducts.is_empty() {
            return write!(f, "0");
        }
        let parts: Vec<String> = self.pseudoproducts.iter().map(|pp| pp.to_string()).collect();
        write!(f, "{}", parts.join(" + "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::Lcg;
    use crate::xor_factor::XorFactor;

    fn fig2_f() -> SppForm {
        // f = x0 (x2 ⊕ x3) + x1 (x2 ⊙ x3)
        SppForm::new(
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
        )
    }

    #[test]
    fn costs_of_the_fig2_form() {
        let f = fig2_f();
        assert_eq!(f.num_pseudoproducts(), 2);
        assert_eq!(f.literal_count(), 6);
        assert_eq!(f.xor_factor_count(), 2);
    }

    #[test]
    fn evaluation_matches_the_sop() {
        let f = fig2_f();
        let sop = Cover::from_strs(4, &["1-10", "1-01", "-111", "-100"]).unwrap();
        assert_eq!(f.to_truth_table(), sop.to_truth_table());
        assert_eq!(sop.literal_count(), 12); // the SOP needs 12 literals vs 6
    }

    #[test]
    fn constants() {
        assert!(SppForm::zero(3).is_zero());
        assert!(SppForm::one(3).to_truth_table().is_one());
        assert_eq!(SppForm::one(3).literal_count(), 0);
    }

    #[test]
    fn from_cover_is_a_faithful_embedding() {
        let cover = Cover::from_strs(3, &["11-", "0-1"]).unwrap();
        let form = SppForm::from_cover(&cover);
        assert_eq!(form.to_truth_table(), cover.to_truth_table());
        assert_eq!(form.literal_count(), cover.literal_count());
    }

    #[test]
    fn matches_checks_on_and_off_sets() {
        let f = Isf::from_cover_str(4, &["1-10", "1-01", "-111", "-100"], &[]).unwrap();
        assert!(fig2_f().matches(&f));
        let wrong = SppForm::one(4);
        assert!(!wrong.matches(&f));
        // With a full dc-set everything matches.
        let free = Isf::from_cover_str(4, &[], &["----"]).unwrap();
        assert!(SppForm::one(4).matches(&free));
        assert!(SppForm::zero(4).matches(&free));
    }

    #[test]
    fn remove_covered_drops_redundant_pseudoproducts() {
        let mut f = fig2_f();
        // Add a pseudoproduct strictly inside the first one.
        f.push(Pseudoproduct::new(
            4,
            vec![
                XorFactor::literal(0, true),
                XorFactor::literal(1, true),
                XorFactor::xor(2, 3, false),
            ],
        ));
        let before_tt = f.to_truth_table();
        let removed = f.remove_covered();
        assert_eq!(removed, 1);
        assert_eq!(f.to_truth_table(), before_tt);
        assert_eq!(f.num_pseudoproducts(), 2);
    }

    /// The word-parallel form table against its per-minterm oracle on 1–12
    /// variables, with the empty form, the constant-one product and
    /// products sharing a variable.
    #[test]
    fn truth_table_matches_the_per_minterm_oracle() {
        let mut rng = Lcg(0xF0E);
        for n in 1..=12 {
            let mut forms = vec![SppForm::zero(n), SppForm::one(n)];
            if n >= 2 {
                // x0·(x0⊕x1) + x1·(x0⊙x1)
                let shared = [
                    [XorFactor::literal(0, true), XorFactor::xor(0, 1, false)],
                    [XorFactor::literal(1, true), XorFactor::xor(0, 1, true)],
                ];
                forms.push(SppForm::new(
                    n,
                    shared.iter().map(|f| Pseudoproduct::new(n, f.to_vec())).collect(),
                ));
            }
            forms.extend((0..24).map(|_| rng.form(n)));
            for form in &forms {
                let table = form.to_truth_table();
                assert_eq!(table, form.to_truth_table_per_minterm(), "{form} on {n} variables");
                assert_eq!(table.as_words().last().unwrap() & !table.tail_mask(), 0, "{form}");
            }
        }
    }

    /// Runs both pruning paths on copies of `form` and requires the same
    /// kept products in the same order and the same count.
    fn prune_like_the_oracle(form: &SppForm) -> SppForm {
        let (mut linear, mut pairwise) = (form.clone(), form.clone());
        let removed = linear.remove_covered();
        assert_eq!(removed, pairwise.remove_covered_pairwise(), "{form}");
        assert_eq!(linear, pairwise, "{form}");
        assert_eq!(linear.to_truth_table(), form.to_truth_table(), "{form}");
        linear
    }

    /// A form holding `products` in exactly this order.
    fn in_order(n: usize, products: impl IntoIterator<Item = Pseudoproduct>) -> SppForm {
        let mut form = SppForm::zero(n);
        products.into_iter().for_each(|pp| form.push(pp));
        form
    }

    #[test]
    fn remove_covered_matches_the_pairwise_oracle() {
        let mut rng = Lcg(0xC0DE);
        for n in 1..=12 {
            for _ in 0..40 {
                // Few factors per product, so products often cover each
                // other; some are refinements p·f of an earlier p, or split
                // an earlier p into p·f and p·f', which covers p from after.
                let mut products: Vec<Pseudoproduct> = Vec::new();
                for _ in 0..rng.below(14) {
                    let product = match (products.len(), rng.below(4)) {
                        (0, _) | (_, 0 | 1) => rng.product(n, 4),
                        (len, 2) => products[rng.below(len)].with_factor(rng.factor(n)),
                        (len, _) => {
                            let (p, f) = (products[rng.below(len)].clone(), rng.factor(n));
                            products.push(p.with_factor(f));
                            p.with_factor(f.complement())
                        }
                    };
                    products.push(product);
                }
                prune_like_the_oracle(&in_order(n, products));
            }
        }
    }

    #[test]
    fn remove_covered_drops_the_earlier_of_two_equal_tables() {
        // x0·x1' and x0·(x0⊕x1) are distinct products with one table.
        let n = 3;
        let cube =
            Pseudoproduct::new(n, vec![XorFactor::literal(0, true), XorFactor::literal(1, false)]);
        let xor =
            Pseudoproduct::new(n, vec![XorFactor::literal(0, true), XorFactor::xor(0, 1, false)]);
        assert_ne!(cube, xor);
        assert_eq!(cube.to_truth_table(), xor.to_truth_table());
        for (first, second) in [(&cube, &xor), (&xor, &cube)] {
            let pruned = prune_like_the_oracle(&in_order(n, [first.clone(), second.clone()]));
            assert_eq!(pruned.pseudoproducts(), std::slice::from_ref(second));
        }
    }

    #[test]
    fn remove_covered_keeps_only_a_constant_one_product() {
        let mut rng = Lcg(0x1);
        for n in [2, 7] {
            let rest: Vec<_> = (0..5).map(|_| rng.product(n, 4)).collect();
            for at in [0, 3, 5] {
                let mut products = rest.clone();
                products.insert(at, Pseudoproduct::one(n));
                let pruned = prune_like_the_oracle(&in_order(n, products));
                assert_eq!(pruned, SppForm::one(n), "one at position {at}");
            }
        }
        assert_eq!(prune_like_the_oracle(&SppForm::zero(4)), SppForm::zero(4));
    }

    #[test]
    fn display() {
        let f = fig2_f();
        let s = f.to_string();
        assert!(s.contains("x0·(x2⊕x3)"));
        assert!(s.contains(" + "));
        assert_eq!(SppForm::zero(2).to_string(), "0");
    }
}
