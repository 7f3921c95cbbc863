use std::fmt;

use boolfunc::{minterm_bit, TruthTable};

/// A factor of a pseudoproduct: either a single literal or an exclusive-or of
/// exactly two variables (possibly complemented, i.e. an XNOR).
///
/// 2-SPP forms restrict XOR factors to at most two literals; this is the
/// `k = 2` restriction of the paper's reference \[5\] that keeps synthesis
/// practical while still capturing the XOR-shaped regularities SOP forms
/// cannot express compactly.
///
/// ```rust
/// use spp::XorFactor;
///
/// let lit = XorFactor::literal(0, true);       // x0
/// let xor = XorFactor::xor(2, 3, false);       // x2 ⊕ x3
/// let xnor = XorFactor::xor(2, 3, true);       // x2 ⊙ x3  (= x2 ⊕ x3')
/// assert!(lit.eval(0b0001));
/// assert!(xor.eval(0b0100) && !xor.eval(0b1100));
/// assert!(xnor.eval(0b1100) && !xnor.eval(0b0100));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum XorFactor {
    /// A single literal: variable `var`, true when the variable equals
    /// `positive`.
    Literal {
        /// Variable index.
        var: usize,
        /// Polarity: `true` for `x`, `false` for `x'`.
        positive: bool,
    },
    /// A two-literal XOR factor: `x_a ⊕ x_b` when `complemented` is false,
    /// `x_a ⊙ x_b` (XNOR) when `complemented` is true.
    Xor {
        /// First (smaller) variable index.
        a: usize,
        /// Second (larger) variable index.
        b: usize,
        /// Whether the factor is complemented (XNOR instead of XOR).
        complemented: bool,
    },
}

impl XorFactor {
    /// Creates a plain literal factor.
    pub fn literal(var: usize, positive: bool) -> Self {
        XorFactor::Literal { var, positive }
    }

    /// Creates a two-variable XOR (or XNOR when `complemented`) factor.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (that would be a constant, not a factor).
    pub fn xor(a: usize, b: usize, complemented: bool) -> Self {
        assert_ne!(a, b, "an XOR factor needs two distinct variables");
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        XorFactor::Xor { a, b, complemented }
    }

    /// Evaluates the factor on a minterm.
    pub fn eval(&self, minterm: u64) -> bool {
        match *self {
            XorFactor::Literal { var, positive } => minterm_bit(minterm, var) == positive,
            XorFactor::Xor { a, b, complemented } => {
                (minterm_bit(minterm, a) ^ minterm_bit(minterm, b)) ^ complemented
            }
        }
    }

    /// The factor's values on the 64 minterms of word `index` of a
    /// [`TruthTable`] (minterm `64·index + i` at bit `i`).
    pub(crate) fn word(&self, index: usize) -> u64 {
        let var = |v| TruthTable::variable_word(v, index);
        let invert = |on: bool| if on { u64::MAX } else { 0 };
        match *self {
            XorFactor::Literal { var: v, positive } => var(v) ^ invert(!positive),
            XorFactor::Xor { a, b, complemented } => var(a) ^ var(b) ^ invert(complemented),
        }
    }

    /// Number of literals the factor contributes to the 2-SPP cost.
    pub fn literal_count(&self) -> usize {
        match self {
            XorFactor::Literal { .. } => 1,
            XorFactor::Xor { .. } => 2,
        }
    }

    /// The variables mentioned by the factor.
    pub fn variables(&self) -> Vec<usize> {
        match *self {
            XorFactor::Literal { var, .. } => vec![var],
            XorFactor::Xor { a, b, .. } => vec![a, b],
        }
    }

    /// Returns `true` if the factor is a two-variable XOR/XNOR.
    pub fn is_xor(&self) -> bool {
        matches!(self, XorFactor::Xor { .. })
    }

    /// The complemented version of the factor.
    pub fn complement(&self) -> XorFactor {
        match *self {
            XorFactor::Literal { var, positive } => XorFactor::Literal { var, positive: !positive },
            XorFactor::Xor { a, b, complemented } => {
                XorFactor::Xor { a, b, complemented: !complemented }
            }
        }
    }
}

impl fmt::Display for XorFactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            XorFactor::Literal { var, positive } => {
                if positive {
                    write!(f, "x{var}")
                } else {
                    write!(f, "x{var}'")
                }
            }
            XorFactor::Xor { a, b, complemented } => {
                if complemented {
                    write!(f, "(x{a}⊕x{b}')")
                } else {
                    write!(f, "(x{a}⊕x{b})")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_evaluation() {
        let pos = XorFactor::literal(1, true);
        let neg = XorFactor::literal(1, false);
        assert!(pos.eval(0b010));
        assert!(!pos.eval(0b000));
        assert!(neg.eval(0b000));
        assert!(!neg.eval(0b010));
    }

    #[test]
    fn xor_and_xnor_evaluation() {
        let x = XorFactor::xor(0, 2, false);
        let xn = XorFactor::xor(0, 2, true);
        for m in 0..8u64 {
            let a = m & 1 == 1;
            let b = m >> 2 & 1 == 1;
            assert_eq!(x.eval(m), a ^ b);
            assert_eq!(xn.eval(m), a == b);
        }
    }

    #[test]
    fn xor_normalizes_variable_order() {
        assert_eq!(XorFactor::xor(3, 1, false), XorFactor::xor(1, 3, false));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn xor_rejects_equal_variables() {
        let _ = XorFactor::xor(2, 2, false);
    }

    #[test]
    fn literal_counts_and_complement() {
        assert_eq!(XorFactor::literal(0, true).literal_count(), 1);
        assert_eq!(XorFactor::xor(0, 1, false).literal_count(), 2);
        let f = XorFactor::xor(0, 1, false);
        for m in 0..4u64 {
            assert_eq!(f.complement().eval(m), !f.eval(m));
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(XorFactor::literal(2, false).to_string(), "x2'");
        assert_eq!(XorFactor::xor(1, 3, false).to_string(), "(x1⊕x3)");
        assert_eq!(XorFactor::xor(1, 3, true).to_string(), "(x1⊕x3')");
    }
}
