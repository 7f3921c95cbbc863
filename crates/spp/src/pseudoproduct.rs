use std::fmt;

use boolfunc::{Cube, CubeValue, TruthTable};

use crate::xor_factor::XorFactor;

/// A *pseudoproduct*: the conjunction of a set of [`XorFactor`]s.
///
/// Plain cubes are the special case in which every factor is a literal; the
/// 2-SPP generalization allows two-literal XOR factors, which is exactly what
/// lets `x0 (x2 ⊕ x3)` cover four scattered minterms with three literals.
///
/// ```rust
/// use spp::{Pseudoproduct, XorFactor};
///
/// let pp = Pseudoproduct::new(4, vec![
///     XorFactor::literal(0, true),
///     XorFactor::xor(2, 3, false),
/// ]);
/// assert_eq!(pp.literal_count(), 3);
/// assert_eq!(pp.minterm_count(), 4);
/// assert!(pp.eval(0b0101)); // x0=1, x2=1, x3=0
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pseudoproduct {
    num_vars: usize,
    factors: Vec<XorFactor>,
}

impl Pseudoproduct {
    /// Creates a pseudoproduct from a set of factors. Factors are sorted and
    /// deduplicated so that structurally equal products compare equal.
    ///
    /// # Panics
    ///
    /// Panics if a factor mentions a variable `>= num_vars`.
    pub fn new(num_vars: usize, mut factors: Vec<XorFactor>) -> Self {
        for factor in &factors {
            for v in factor.variables() {
                assert!(v < num_vars, "factor variable {v} out of range");
            }
        }
        factors.sort();
        factors.dedup();
        Pseudoproduct { num_vars, factors }
    }

    /// The pseudoproduct with no factors (constant 1).
    pub fn one(num_vars: usize) -> Self {
        Pseudoproduct { num_vars, factors: Vec::new() }
    }

    /// Builds a pseudoproduct from a plain cube (one literal factor per
    /// specified variable).
    pub fn from_cube(cube: &Cube) -> Self {
        let factors = (0..cube.num_vars())
            .filter_map(|v| match cube.value(v) {
                CubeValue::DontCare => None,
                CubeValue::One => Some(XorFactor::literal(v, true)),
                CubeValue::Zero => Some(XorFactor::literal(v, false)),
            })
            .collect();
        Pseudoproduct { num_vars: cube.num_vars(), factors }
    }

    /// Number of variables of the space the product lives in.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The factors of the product.
    pub fn factors(&self) -> &[XorFactor] {
        &self.factors
    }

    /// Number of factors.
    pub fn num_factors(&self) -> usize {
        self.factors.len()
    }

    /// Returns `true` if the product has no factors (constant 1).
    pub fn is_one(&self) -> bool {
        self.factors.is_empty()
    }

    /// Total literal count (plain literals count 1, XOR factors count 2).
    pub fn literal_count(&self) -> usize {
        self.factors.iter().map(XorFactor::literal_count).sum()
    }

    /// Returns `true` if the product is a plain cube (no XOR factors).
    pub fn is_cube(&self) -> bool {
        self.factors.iter().all(|f| !f.is_xor())
    }

    /// Converts the product back to a [`Cube`] when it is a plain cube.
    pub fn to_cube(&self) -> Option<Cube> {
        if !self.is_cube() {
            return None;
        }
        let mut cube = Cube::full(self.num_vars).ok()?;
        for factor in &self.factors {
            if let XorFactor::Literal { var, positive } = *factor {
                cube =
                    cube.with_value(var, if positive { CubeValue::One } else { CubeValue::Zero });
            }
        }
        Some(cube)
    }

    /// Evaluates the product on a minterm.
    pub fn eval(&self, minterm: u64) -> bool {
        self.factors.iter().all(|f| f.eval(minterm))
    }

    /// Number of minterms covered: each independent factor halves the space.
    ///
    /// Factors over disjoint variable sets are independent; factors sharing a
    /// variable are not, in which case the count is computed exactly from the
    /// truth table (only possible within the dense limit).
    pub fn minterm_count(&self) -> u64 {
        if self.variables_are_disjoint() {
            // Every factor over its own variables halves the space, whether it
            // is a literal (1 of 2 values) or a 2-XOR (2 of 4 values).
            1u64 << (self.num_vars - self.factors.len())
        } else {
            self.to_truth_table().count_ones()
        }
    }

    fn variables_are_disjoint(&self) -> bool {
        let mut seen = 0u64;
        for f in &self.factors {
            for v in f.variables() {
                let bit = 1u64 << v;
                if seen & bit != 0 {
                    return false;
                }
                seen |= bit;
            }
        }
        true
    }

    /// Dense truth table of the product, built one 64-minterm word at a time
    /// as the AND of its factors' words. The result is identical to the
    /// oracle [`Pseudoproduct::to_truth_table_per_minterm`].
    ///
    /// # Panics
    ///
    /// Panics if the number of variables exceeds the dense limit.
    pub fn to_truth_table(&self) -> TruthTable {
        let mut index = 0;
        TruthTable::from_words(self.num_vars, || {
            index += 1;
            self.word(index - 1)
        })
    }

    /// The per-minterm oracle of [`Pseudoproduct::to_truth_table`]: one
    /// [`Pseudoproduct::eval`] per minterm.
    ///
    /// # Panics
    ///
    /// Panics if the number of variables exceeds the dense limit.
    pub fn to_truth_table_per_minterm(&self) -> TruthTable {
        TruthTable::from_fn(self.num_vars, |m| self.eval(m))
    }

    /// The product's values on the 64 minterms of word `index` of a
    /// [`TruthTable`] (minterm `64·index + i` at bit `i`). Below 6 variables
    /// the bits past minterm `2ⁿ − 1` repeat the valid ones and are not
    /// masked.
    pub(crate) fn word(&self, index: usize) -> u64 {
        self.factors.iter().fold(u64::MAX, |word, factor| word & factor.word(index))
    }

    /// The product with factor `index` removed — the *expansion* operation of
    /// the approximation heuristic: removing a factor can only enlarge the
    /// covered set (turning off-set minterms into on-set minterms, i.e. 0→1
    /// errors).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.num_factors()`.
    pub fn expand(&self, index: usize) -> Pseudoproduct {
        assert!(index < self.factors.len(), "factor index out of range");
        let mut factors = self.factors.clone();
        factors.remove(index);
        Pseudoproduct { num_vars: self.num_vars, factors }
    }

    /// Returns `true` if every minterm of `self` is covered by `other`
    /// (checked on the dense tables).
    pub fn is_subset_of(&self, other: &Pseudoproduct) -> bool {
        self.to_truth_table().is_subset_of(&other.to_truth_table())
    }

    /// Adds a factor, returning the extended product.
    pub fn with_factor(&self, factor: XorFactor) -> Pseudoproduct {
        let mut factors = self.factors.clone();
        factors.push(factor);
        Pseudoproduct::new(self.num_vars, factors)
    }
}

impl fmt::Display for Pseudoproduct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.factors.is_empty() {
            return write!(f, "1");
        }
        let parts: Vec<String> = self.factors.iter().map(|x| x.to_string()).collect();
        write!(f, "{}", parts.join("·"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::Lcg;

    fn fig2_first() -> Pseudoproduct {
        // x0 (x2 ⊕ x3)
        Pseudoproduct::new(4, vec![XorFactor::literal(0, true), XorFactor::xor(2, 3, false)])
    }

    #[test]
    fn evaluation_and_counts() {
        let pp = fig2_first();
        assert_eq!(pp.literal_count(), 3);
        assert_eq!(pp.num_factors(), 2);
        assert_eq!(pp.minterm_count(), 4);
        assert!(pp.eval(0b0101));
        assert!(pp.eval(0b1001));
        assert!(!pp.eval(0b1101));
        assert!(!pp.eval(0b0100));
    }

    #[test]
    fn cube_round_trip() {
        let cube: Cube = "1-0".parse().unwrap();
        let pp = Pseudoproduct::from_cube(&cube);
        assert!(pp.is_cube());
        assert_eq!(pp.to_cube(), Some(cube));
        assert_eq!(pp.literal_count(), 2);
        let with_xor = pp.with_factor(XorFactor::xor(1, 2, false));
        assert!(!with_xor.is_cube());
        assert_eq!(with_xor.to_cube(), None);
    }

    #[test]
    fn constant_one() {
        let one = Pseudoproduct::one(3);
        assert!(one.is_one());
        assert_eq!(one.minterm_count(), 8);
        assert!(one.eval(0));
    }

    #[test]
    fn expansion_enlarges_the_cover() {
        let pp = fig2_first();
        let expanded = pp.expand(0); // drop the x0 literal -> (x2 ⊕ x3)
        assert_eq!(expanded.literal_count(), 2);
        assert!(pp.is_subset_of(&expanded));
        assert_eq!(expanded.minterm_count(), 8);
    }

    #[test]
    fn minterm_count_with_shared_variables() {
        // x0 · (x0 ⊕ x1): requires x0=1 and x1=0 -> 2 minterms of 8.
        let pp =
            Pseudoproduct::new(3, vec![XorFactor::literal(0, true), XorFactor::xor(0, 1, false)]);
        assert_eq!(pp.minterm_count(), 2);
    }

    #[test]
    fn truth_table_matches_eval() {
        let pp = fig2_first();
        let tt = pp.to_truth_table();
        for m in 0..16u64 {
            assert_eq!(tt.get(m), pp.eval(m));
        }
    }

    /// The word-parallel table against its per-minterm oracle on 1–12
    /// variables: one word with masked padding below 6, then multi-word.
    #[test]
    fn truth_table_matches_the_per_minterm_oracle() {
        let mut rng = Lcg(0x7AB1E);
        for n in 1..=12 {
            let mut products =
                vec![Pseudoproduct::one(n), Pseudoproduct::new(n, vec![rng.factor(n)])];
            if n >= 2 {
                // Factors sharing a variable: x0·(x0⊕x1) and x0'·(x0⊙x1)·(x0⊕xn-1).
                products.push(Pseudoproduct::new(
                    n,
                    vec![XorFactor::literal(0, true), XorFactor::xor(0, 1, false)],
                ));
                products.push(Pseudoproduct::new(
                    n,
                    vec![
                        XorFactor::literal(0, false),
                        XorFactor::xor(0, 1, true),
                        XorFactor::xor(0, n - 1, false),
                    ],
                ));
            }
            products.extend((0..24).map(|_| rng.product(n, 8)));
            for pp in &products {
                let table = pp.to_truth_table();
                assert_eq!(table, pp.to_truth_table_per_minterm(), "{pp} on {n} variables");
                assert_eq!(table.as_words().last().unwrap() & !table.tail_mask(), 0, "{pp}");
            }
        }
    }

    #[test]
    fn display() {
        assert_eq!(fig2_first().to_string(), "x0·(x2⊕x3)");
        assert_eq!(Pseudoproduct::one(2).to_string(), "1");
    }
}
