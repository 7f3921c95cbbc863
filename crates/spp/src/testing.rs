//! Seeded random factors, products, forms and functions for the property
//! tests that hold each word-parallel kernel to its oracle.

use boolfunc::{Cube, Isf, TruthTable};

use crate::form::SppForm;
use crate::pseudoproduct::Pseudoproduct;
use crate::xor_factor::XorFactor;

/// A seeded linear congruential stream.
pub(crate) struct Lcg(pub(crate) u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 32
    }

    pub(crate) fn below(&mut self, bound: usize) -> usize {
        self.next() as usize % bound
    }

    fn word(&mut self) -> u64 {
        self.next() << 32 | self.next()
    }

    /// A literal, or for two or more variables also an XOR or XNOR;
    /// variables may repeat across the factors of one product.
    pub(crate) fn factor(&mut self, n: usize) -> XorFactor {
        let a = self.below(n);
        if n == 1 || self.below(2) == 0 {
            return XorFactor::literal(a, self.below(2) == 0);
        }
        let b = (a + 1 + self.below(n - 1)) % n;
        XorFactor::xor(a, b, self.below(2) == 0)
    }

    /// A product of fewer than `factors` random factors.
    pub(crate) fn product(&mut self, n: usize, factors: usize) -> Pseudoproduct {
        let factors = (0..self.below(factors)).map(|_| self.factor(n)).collect();
        Pseudoproduct::new(n, factors)
    }

    /// A form of up to five products of up to five factors each.
    pub(crate) fn form(&mut self, n: usize) -> SppForm {
        let pps = (0..self.below(6)).map(|_| self.product(n, 6)).collect();
        SppForm::new(n, pps)
    }

    /// An ISF with about `on_pct`% of the minterms on and `dc_pct`% of the
    /// others don't-care.
    pub(crate) fn isf_with_density(&mut self, n: usize, on_pct: usize, dc_pct: usize) -> Isf {
        let on = TruthTable::from_fn(n, |_| self.below(100) < on_pct);
        let dc = TruthTable::from_fn(n, |_| self.below(100) < dc_pct).difference(&on);
        Isf::new(on, dc).unwrap()
    }

    /// A cold-shaped ISF, the shape of a synthesis service's fresh
    /// requests: eight on-cubes and two dc-cubes of two or three literals
    /// (a variable drawn twice keeps its last polarity).
    pub(crate) fn cold_isf(&mut self, n: usize) -> Isf {
        let mut cubes = |count: usize| -> Vec<Cube> {
            (0..count)
                .map(|_| {
                    let (mut mask, mut value) = (0u64, 0u64);
                    for _ in 0..2 + self.below(2) {
                        let var = self.below(n);
                        mask |= 1 << var;
                        value = value & !(1 << var) | (self.below(2) as u64) << var;
                    }
                    Cube::from_masks(n, mask, value).unwrap()
                })
                .collect()
        };
        let on = TruthTable::from_cubes(n, &cubes(8));
        let dc = TruthTable::from_cubes(n, &cubes(2)).difference(&on);
        Isf::new(on, dc).unwrap()
    }

    pub(crate) fn isf(&mut self, n: usize) -> Isf {
        let on = TruthTable::from_words(n, || self.word());
        let dc = TruthTable::from_words(n, || self.word() & self.word()).difference(&on);
        Isf::new(on, dc).unwrap()
    }
}
