use std::fmt;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign, Not};

use crate::cover::Cover;
use crate::cube::Cube;
use crate::error::BoolFuncError;

/// A dense truth-table representation of a completely specified Boolean
/// function of `n ≤ 26` variables.
///
/// Bit `m` of the table is the value of the function on the minterm whose
/// binary encoding is `m` (bit `i` of `m` is the value of variable `i`).
///
/// Truth tables are the workhorse of the "exact" backend: all the set
/// operations of Table II of the paper (`on`, `off`, `dc` unions, differences,
/// symmetric differences) reduce to bitwise operations on these tables.
///
/// ```rust
/// use boolfunc::TruthTable;
///
/// let x0 = TruthTable::variable(3, 0);
/// let x1 = TruthTable::variable(3, 1);
/// let f = &x0 & &x1;
/// assert_eq!(f.count_ones(), 2); // x0 x1 covers 2 of the 8 minterms
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TruthTable {
    num_vars: usize,
    words: Vec<u64>,
}

impl TruthTable {
    /// Maximum number of variables supported by the dense representation
    /// (2^26 bits = 8 MiB per table).
    pub const MAX_VARS: usize = 26;

    /// The minterms of variables 0–5 inside one word of
    /// [`TruthTable::as_words`]: bit `m` of `VAR_PATTERNS[i]` is bit `i` of
    /// `m`. Word-parallel kernels start from these.
    pub const VAR_PATTERNS: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];

    fn check_vars(num_vars: usize) -> Result<(), BoolFuncError> {
        if num_vars > Self::MAX_VARS {
            Err(BoolFuncError::TooManyVariables { requested: num_vars, max: Self::MAX_VARS })
        } else {
            Ok(())
        }
    }

    fn num_words(num_vars: usize) -> usize {
        let bits = 1usize << num_vars;
        bits.div_ceil(64)
    }

    /// Mask selecting the valid bits of the last word.
    fn last_word_mask(num_vars: usize) -> u64 {
        let bits = 1usize << num_vars;
        if bits.is_multiple_of(64) {
            u64::MAX
        } else {
            (1u64 << (bits % 64)) - 1
        }
    }

    fn normalize(&mut self) {
        let mask = Self::last_word_mask(self.num_vars);
        if let Some(last) = self.words.last_mut() {
            *last &= mask;
        }
    }

    /// The constant-0 function over `num_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > TruthTable::MAX_VARS`; use [`TruthTable::try_zero`]
    /// for a fallible constructor.
    pub fn zero(num_vars: usize) -> Self {
        Self::try_zero(num_vars).expect("too many variables for a dense truth table")
    }

    /// Fallible version of [`TruthTable::zero`].
    ///
    /// # Errors
    ///
    /// Returns [`BoolFuncError::TooManyVariables`] if `num_vars` exceeds
    /// [`TruthTable::MAX_VARS`].
    pub fn try_zero(num_vars: usize) -> Result<Self, BoolFuncError> {
        Self::check_vars(num_vars)?;
        Ok(TruthTable { num_vars, words: vec![0; Self::num_words(num_vars)] })
    }

    /// The constant-1 function over `num_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > TruthTable::MAX_VARS`.
    pub fn one(num_vars: usize) -> Self {
        let mut t = Self::zero(num_vars);
        for w in &mut t.words {
            *w = u64::MAX;
        }
        t.normalize();
        t
    }

    /// The projection function returning variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > TruthTable::MAX_VARS` or `var >= num_vars`.
    pub fn variable(num_vars: usize, var: usize) -> Self {
        assert!(var < num_vars, "variable index {var} out of range");
        let mut index = 0;
        Self::from_words(num_vars, || {
            index += 1;
            Self::variable_word(var, index - 1)
        })
    }

    /// Word `index` of [`TruthTable::as_words`] of the projection on `var`:
    /// variables 0–5 repeat one in-word pattern
    /// ([`TruthTable::VAR_PATTERNS`]); variable `var ≥ 6` is all ones or all
    /// zeros by bit `var − 6` of `index`.
    pub fn variable_word(var: usize, index: usize) -> u64 {
        match Self::VAR_PATTERNS.get(var) {
            Some(&pattern) => pattern,
            None if index >> (var - 6) & 1 == 1 => u64::MAX,
            None => 0,
        }
    }

    /// Builds a table by evaluating `f` on every minterm.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > TruthTable::MAX_VARS`.
    pub fn from_fn<F: FnMut(u64) -> bool>(num_vars: usize, mut f: F) -> Self {
        let mut t = Self::zero(num_vars);
        for m in 0..(1u64 << num_vars) {
            if f(m) {
                t.set(m, true);
            }
        }
        t
    }

    /// Builds a table 64 minterms at a time from a word-generating closure
    /// (e.g. a pseudo-random stream); padding bits of the last word are
    /// masked off.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > TruthTable::MAX_VARS`.
    ///
    /// ```rust
    /// use boolfunc::TruthTable;
    ///
    /// let t = TruthTable::from_words(3, || u64::MAX);
    /// assert!(t.is_one()); // the padding beyond the 8 valid bits is masked
    /// ```
    pub fn from_words<F: FnMut() -> u64>(num_vars: usize, mut next_word: F) -> Self {
        let mut t = Self::zero(num_vars);
        for w in &mut t.words {
            *w = next_word();
        }
        t.normalize();
        t
    }

    /// Builds a table as the union of a set of cubes.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > TruthTable::MAX_VARS` or if a cube has a different
    /// arity.
    pub fn from_cubes(num_vars: usize, cubes: &[Cube]) -> Self {
        let mut t = Self::zero(num_vars);
        for c in cubes {
            assert_eq!(c.num_vars(), num_vars, "cube arity mismatch");
            for m in c.minterms() {
                t.set(m, true);
            }
        }
        t
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of minterms (2^n).
    pub fn num_minterms(&self) -> u64 {
        1u64 << self.num_vars
    }

    /// Value of the function on minterm `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m >= 2^n`.
    pub fn get(&self, m: u64) -> bool {
        assert!(m < self.num_minterms(), "minterm {m} out of range");
        self.words[(m / 64) as usize] >> (m % 64) & 1 == 1
    }

    /// Sets the value of the function on minterm `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m >= 2^n`.
    pub fn set(&mut self, m: u64, value: bool) {
        assert!(m < self.num_minterms(), "minterm {m} out of range");
        let word = (m / 64) as usize;
        let bit = 1u64 << (m % 64);
        if value {
            self.words[word] |= bit;
        } else {
            self.words[word] &= !bit;
        }
    }

    /// Number of minterms on which the function is 1.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Returns `true` if the function is the constant 0.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Returns `true` if the function is the constant 1.
    pub fn is_one(&self) -> bool {
        self.count_ones() == self.num_minterms()
    }

    /// Returns `true` if every on-set minterm of `self` is also in `other`
    /// (i.e. `self ⊆ other` as sets / `self ⇒ other` as functions).
    pub fn is_subset_of(&self, other: &TruthTable) -> bool {
        debug_assert_eq!(self.num_vars, other.num_vars);
        self.words.iter().zip(&other.words).all(|(a, b)| a & !b == 0)
    }

    /// Returns `true` if the on-sets of the two functions do not intersect.
    pub fn is_disjoint_from(&self, other: &TruthTable) -> bool {
        debug_assert_eq!(self.num_vars, other.num_vars);
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &TruthTable) -> TruthTable {
        self.zip_with(other, |a, b| a & !b)
    }

    /// In-place set difference: removes the minterms of `other` from `self`
    /// (`self &= !other` word by word) without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ.
    pub fn difference_assign(&mut self, other: &TruthTable) {
        self.zip_assign(other, |a, b| a & !b);
    }

    /// In-place complement without allocating (padding bits stay zero).
    pub fn not_assign(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.normalize();
    }

    /// Overwrites `self` with a copy of `other`, reusing the existing word
    /// storage.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ (use `clone` to change arity).
    pub fn copy_from(&mut self, other: &TruthTable) {
        assert_eq!(self.num_vars, other.num_vars, "truth table arity mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// Fused `self = a \ b` (`a & !b`) in a single word loop, reusing the
    /// existing storage of `self`. This is the workhorse of the quotient
    /// hot path, where every Table II on-set is a difference.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ.
    pub fn and_not_from(&mut self, a: &TruthTable, b: &TruthTable) {
        assert_eq!(self.num_vars, a.num_vars, "truth table arity mismatch");
        assert_eq!(self.num_vars, b.num_vars, "truth table arity mismatch");
        for (out, (x, y)) in self.words.iter_mut().zip(a.words.iter().zip(&b.words)) {
            *out = x & !y;
        }
    }

    /// The raw 64-bit words of the table, minterm `m` at bit `m % 64` of word
    /// `m / 64`. Padding bits beyond minterm `2^n - 1` are always zero.
    ///
    /// This is the escape hatch for callers (like the word-level
    /// decomposition verifier) that fuse several set operations into one pass
    /// without allocating intermediate tables.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// The bitmask of valid minterm bits in the last word of
    /// [`TruthTable::as_words`] (all other words are fully valid).
    pub fn tail_mask(&self) -> u64 {
        Self::last_word_mask(self.num_vars)
    }

    /// Fraction of the 2^n minterms on which the two functions differ.
    ///
    /// This is the *error rate* used in Section IV of the paper when `other`
    /// is an approximation of `self`.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ, naming both arities in the message.
    pub fn error_rate(&self, other: &TruthTable) -> f64 {
        assert_eq!(
            self.num_vars, other.num_vars,
            "truth table arity mismatch: {} vs {} variables",
            self.num_vars, other.num_vars
        );
        let differing = (self ^ other).count_ones();
        differing as f64 / self.num_minterms() as f64
    }

    /// Number of minterms on which the two functions differ.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ, naming both arities in the message.
    pub fn hamming_distance(&self, other: &TruthTable) -> u64 {
        assert_eq!(
            self.num_vars, other.num_vars,
            "truth table arity mismatch: {} vs {} variables",
            self.num_vars, other.num_vars
        );
        (self ^ other).count_ones()
    }

    fn zip_with<F: Fn(u64, u64) -> u64>(&self, other: &TruthTable, f: F) -> TruthTable {
        assert_eq!(self.num_vars, other.num_vars, "truth table arity mismatch");
        let words = self.words.iter().zip(&other.words).map(|(&a, &b)| f(a, b)).collect();
        let mut t = TruthTable { num_vars: self.num_vars, words };
        t.normalize();
        t
    }

    fn zip_assign<F: Fn(u64, u64) -> u64>(&mut self, other: &TruthTable, f: F) {
        assert_eq!(self.num_vars, other.num_vars, "truth table arity mismatch");
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a = f(*a, b);
        }
        self.normalize();
    }

    /// Positive or negative cofactor with respect to variable `var`, returned
    /// as a function over the same `n` variables (the cofactored variable
    /// becomes irrelevant).
    ///
    /// # Panics
    ///
    /// Panics if `var >= self.num_vars()`.
    pub fn cofactor(&self, var: usize, positive: bool) -> TruthTable {
        assert!(var < self.num_vars, "variable index {var} out of range");
        let mut t = Self::zero(self.num_vars);
        for m in 0..self.num_minterms() {
            let source = if positive { m | (1u64 << var) } else { m & !(1u64 << var) };
            if self.get(source) {
                t.set(m, true);
            }
        }
        t
    }

    /// Returns `true` if the function does not depend on variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= self.num_vars()`.
    pub fn is_independent_of(&self, var: usize) -> bool {
        self.cofactor(var, true) == self.cofactor(var, false)
    }

    /// Existential quantification of variable `var`.
    pub fn exists(&self, var: usize) -> TruthTable {
        &self.cofactor(var, true) | &self.cofactor(var, false)
    }

    /// Universal quantification of variable `var`.
    pub fn forall(&self, var: usize) -> TruthTable {
        &self.cofactor(var, true) & &self.cofactor(var, false)
    }

    /// Iterates over the minterms on which the function evaluates to 1.
    pub fn ones(&self) -> Ones<'_> {
        Ones { table: self, next: 0 }
    }

    /// Converts the table into a (non-minimized) cover with one cube per
    /// on-set minterm.
    pub fn to_minterm_cover(&self) -> Cover {
        let cubes: Vec<Cube> = self
            .ones()
            .map(|m| Cube::minterm(self.num_vars, m).expect("arity already validated"))
            .collect();
        Cover::from_cubes(self.num_vars, cubes)
    }
}

/// Iterator over the on-set minterms of a [`TruthTable`], produced by
/// [`TruthTable::ones`].
#[derive(Debug, Clone)]
pub struct Ones<'a> {
    table: &'a TruthTable,
    next: u64,
}

impl Iterator for Ones<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while self.next < self.table.num_minterms() {
            let m = self.next;
            self.next += 1;
            if self.table.get(m) {
                return Some(m);
            }
        }
        None
    }
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable(n={}, |on|={})", self.num_vars, self.count_ones())
    }
}

impl fmt::Display for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.num_vars <= 6 {
            for m in (0..self.num_minterms()).rev() {
                write!(f, "{}", u8::from(self.get(m)))?;
            }
            Ok(())
        } else {
            write!(
                f,
                "truth table over {} variables with {} on-set minterms",
                self.num_vars,
                self.count_ones()
            )
        }
    }
}

macro_rules! impl_bit_op {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for &TruthTable {
            type Output = TruthTable;
            fn $method(self, rhs: &TruthTable) -> TruthTable {
                self.zip_with(rhs, |a, b| a $op b)
            }
        }
        impl $trait for TruthTable {
            type Output = TruthTable;
            fn $method(self, rhs: TruthTable) -> TruthTable {
                (&self).$method(&rhs)
            }
        }
    };
}

impl_bit_op!(BitAnd, bitand, &);
impl_bit_op!(BitOr, bitor, |);
impl_bit_op!(BitXor, bitxor, ^);

macro_rules! impl_bit_assign_op {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait<&TruthTable> for TruthTable {
            fn $method(&mut self, rhs: &TruthTable) {
                self.zip_assign(rhs, |a, b| a $op b);
            }
        }
    };
}

impl_bit_assign_op!(BitAndAssign, bitand_assign, &);
impl_bit_assign_op!(BitOrAssign, bitor_assign, |);
impl_bit_assign_op!(BitXorAssign, bitxor_assign, ^);

impl Not for &TruthTable {
    type Output = TruthTable;
    fn not(self) -> TruthTable {
        let words = self.words.iter().map(|&w| !w).collect();
        let mut t = TruthTable { num_vars: self.num_vars, words };
        t.normalize();
        t
    }
}

impl Not for TruthTable {
    type Output = TruthTable;
    fn not(self) -> TruthTable {
        !&self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_and_counts() {
        let z = TruthTable::zero(4);
        let o = TruthTable::one(4);
        assert!(z.is_zero());
        assert!(o.is_one());
        assert_eq!(o.count_ones(), 16);
        assert_eq!((!&o).count_ones(), 0);
    }

    #[test]
    fn variable_projection() {
        let x2 = TruthTable::variable(5, 2);
        assert_eq!(x2.count_ones(), 16);
        assert!(x2.get(0b00100));
        assert!(!x2.get(0b00000));
    }

    #[test]
    fn word_parallel_variable_matches_the_per_minterm_definition() {
        for n in 1..=14 {
            for var in 0..n {
                let expected = TruthTable::from_fn(n, |m| m >> var & 1 == 1);
                assert_eq!(TruthTable::variable(n, var), expected, "n={n} var={var}");
            }
        }
    }

    #[test]
    fn bitwise_operators_match_semantics() {
        let a = TruthTable::variable(3, 0);
        let b = TruthTable::variable(3, 1);
        let and = &a & &b;
        let or = &a | &b;
        let xor = &a ^ &b;
        for m in 0..8u64 {
            let va = m & 1 == 1;
            let vb = m >> 1 & 1 == 1;
            assert_eq!(and.get(m), va && vb);
            assert_eq!(or.get(m), va || vb);
            assert_eq!(xor.get(m), va ^ vb);
        }
    }

    #[test]
    fn complement_respects_padding_bits() {
        // 3 variables => 8 bits in a 64-bit word; the upper 56 bits must stay 0.
        let z = TruthTable::zero(3);
        let o = !&z;
        assert_eq!(o.count_ones(), 8);
        assert!(o.is_one());
    }

    #[test]
    fn subset_difference_and_error_rate() {
        let a = TruthTable::variable(4, 0);
        let ab = &a & &TruthTable::variable(4, 1);
        assert!(ab.is_subset_of(&a));
        assert!(!a.is_subset_of(&ab));
        let diff = a.difference(&ab);
        assert_eq!(diff.count_ones(), a.count_ones() - ab.count_ones());
        assert!((a.error_rate(&ab) - (4.0 / 16.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "truth table arity mismatch: 4 vs 3 variables")]
    fn error_rate_panics_with_both_arities() {
        let _ = TruthTable::zero(4).error_rate(&TruthTable::zero(3));
    }

    #[test]
    #[should_panic(expected = "truth table arity mismatch: 2 vs 5 variables")]
    fn hamming_distance_panics_with_both_arities() {
        let _ = TruthTable::zero(2).hamming_distance(&TruthTable::zero(5));
    }

    #[test]
    fn cofactor_and_quantification() {
        // f = x0 x1 + x2
        let f = &(&TruthTable::variable(3, 0) & &TruthTable::variable(3, 1))
            | &TruthTable::variable(3, 2);
        let f_x2 = f.cofactor(2, true);
        assert!(f_x2.is_one());
        let f_nx2 = f.cofactor(2, false);
        assert_eq!(f_nx2, &TruthTable::variable(3, 0) & &TruthTable::variable(3, 1));
        assert!(f.exists(2).is_one());
        assert_eq!(f.forall(2), f_nx2);
        assert!(!f.is_independent_of(2));
    }

    #[test]
    fn from_cubes_and_minterm_cover_round_trip() {
        let cubes: Vec<Cube> = vec!["11-1".parse().unwrap(), "-011".parse().unwrap()];
        let t = TruthTable::from_cubes(4, &cubes);
        assert_eq!(t.count_ones(), 4);
        let cover = t.to_minterm_cover();
        assert_eq!(cover.to_truth_table(), t);
    }

    #[test]
    fn ones_iteration() {
        let t = TruthTable::from_fn(4, |m| m % 3 == 0);
        let ones: Vec<u64> = t.ones().collect();
        assert_eq!(ones, vec![0, 3, 6, 9, 12, 15]);
    }

    #[test]
    fn too_many_variables_is_an_error() {
        assert!(TruthTable::try_zero(27).is_err());
        assert!(TruthTable::try_zero(26).is_ok());
    }

    /// Deterministic pseudo-random table (SplitMix64 finalizer on the seed).
    fn scrambled(num_vars: usize, seed: u64) -> TruthTable {
        let mut state = seed;
        TruthTable::from_words(num_vars, || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
    }

    #[test]
    fn in_place_ops_agree_with_allocating_ops() {
        // 3 vars: partial word (masking matters); 6 vars: exactly one word;
        // 7 vars: two full words.
        for num_vars in [3usize, 6, 7] {
            for seed in 0..8u64 {
                let a = scrambled(num_vars, seed);
                let b = scrambled(num_vars, seed ^ 0xDEAD_BEEF);

                let mut t = a.clone();
                t &= &b;
                assert_eq!(t, &a & &b, "n={num_vars} seed={seed}: &=");

                let mut t = a.clone();
                t |= &b;
                assert_eq!(t, &a | &b, "n={num_vars} seed={seed}: |=");

                let mut t = a.clone();
                t ^= &b;
                assert_eq!(t, &a ^ &b, "n={num_vars} seed={seed}: ^=");

                let mut t = a.clone();
                t.difference_assign(&b);
                assert_eq!(t, a.difference(&b), "n={num_vars} seed={seed}: difference_assign");

                let mut t = a.clone();
                t.not_assign();
                assert_eq!(t, !&a, "n={num_vars} seed={seed}: not_assign");

                let mut t = TruthTable::zero(num_vars);
                t.and_not_from(&a, &b);
                assert_eq!(t, a.difference(&b), "n={num_vars} seed={seed}: and_not_from");

                let mut t = TruthTable::zero(num_vars);
                t.copy_from(&a);
                assert_eq!(t, a, "n={num_vars} seed={seed}: copy_from");
            }
        }
    }

    #[test]
    fn in_place_ops_preserve_last_word_masking() {
        // After any in-place op the padding bits must stay zero, otherwise
        // count_ones / Eq / is_one silently break. 3 vars = 8 valid bits out
        // of 64.
        let mut t = TruthTable::zero(3);
        t.not_assign();
        assert_eq!(t.count_ones(), 8);
        assert!(t.is_one());
        t.not_assign();
        assert!(t.is_zero());

        let ones = TruthTable::one(3);
        let mut t = TruthTable::zero(3);
        t |= &ones;
        t ^= &TruthTable::zero(3);
        t &= &ones;
        assert_eq!(t.count_ones(), 8);
        assert_eq!(t.as_words()[0] & !t.tail_mask(), 0, "padding bits leaked");
    }

    #[test]
    fn disjointness_and_word_access() {
        let a = TruthTable::variable(4, 0);
        let not_a = !&a;
        assert!(a.is_disjoint_from(&not_a));
        assert!(!a.is_disjoint_from(&TruthTable::one(4)));
        assert!(a.is_disjoint_from(&TruthTable::zero(4)));
        assert_eq!(a.as_words().len(), 1);
        assert_eq!(a.tail_mask(), u64::MAX >> 48);
    }

    #[test]
    fn display_small_tables() {
        let t = TruthTable::variable(2, 0);
        // minterms 01 and 11 are on => bits (3,2,1,0) = 1,0,1,0
        assert_eq!(t.to_string(), "1010");
    }
}
