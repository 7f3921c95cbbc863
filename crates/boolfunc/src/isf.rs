use std::fmt;

use crate::cover::Cover;
use crate::error::BoolFuncError;
use crate::truth_table::TruthTable;

/// An *incompletely specified function* (ISF): the triple of disjoint sets
/// `(on, dc, off)` over the minterms of `n` variables, with `off` implied as
/// the complement of `on ∪ dc`.
///
/// This is the exact object the paper works with: the dividend `f`, and the
/// quotient `h`, are incompletely specified, while the divisor `g` is a
/// completely specified [`TruthTable`].
///
/// ```rust
/// use boolfunc::{Isf, TruthTable};
///
/// # fn main() -> Result<(), boolfunc::BoolFuncError> {
/// let f = Isf::from_cover_str(4, &["11-1", "-011"], &[])?;
/// assert_eq!(f.on().count_ones(), 4);
/// assert!(f.dc().is_zero());
/// assert_eq!(f.off().count_ones(), 12);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Isf {
    on: TruthTable,
    dc: TruthTable,
}

impl Isf {
    /// Creates an ISF from its on-set and dc-set.
    ///
    /// # Errors
    ///
    /// Returns [`BoolFuncError::ArityMismatch`] if the two tables have a
    /// different number of variables, or [`BoolFuncError::InconsistentIsf`]
    /// if they overlap.
    pub fn new(on: TruthTable, dc: TruthTable) -> Result<Self, BoolFuncError> {
        if on.num_vars() != dc.num_vars() {
            return Err(BoolFuncError::ArityMismatch { left: on.num_vars(), right: dc.num_vars() });
        }
        if !(&on & &dc).is_zero() {
            return Err(BoolFuncError::InconsistentIsf);
        }
        Ok(Isf { on, dc })
    }

    /// Creates an ISF whose dc-set is empty (a completely specified function).
    pub fn completely_specified(on: TruthTable) -> Self {
        let dc = TruthTable::zero(on.num_vars());
        Isf { on, dc }
    }

    /// Creates an ISF from PLA-style cube strings for the on-set and dc-set.
    ///
    /// Minterms covered by both sets are treated as don't-cares (this matches
    /// the semantics of espresso `fd`-type PLAs, where the dc-set has priority
    /// over the on-set).
    ///
    /// # Errors
    ///
    /// Returns an error if any cube string is malformed.
    pub fn from_cover_str(
        num_vars: usize,
        on_cubes: &[&str],
        dc_cubes: &[&str],
    ) -> Result<Self, BoolFuncError> {
        let on_cover = Cover::from_strs(num_vars, on_cubes)?;
        let dc_cover = Cover::from_strs(num_vars, dc_cubes)?;
        Ok(Self::from_covers(&on_cover, &dc_cover))
    }

    /// Creates an ISF from an on-set cover and a dc-set cover; overlapping
    /// minterms go to the dc-set.
    ///
    /// # Panics
    ///
    /// Panics if the covers have different arities or more variables than the
    /// dense representation supports.
    pub fn from_covers(on: &Cover, dc: &Cover) -> Self {
        assert_eq!(on.num_vars(), dc.num_vars(), "cover arity mismatch");
        let dc_tt = dc.to_truth_table();
        let on_tt = on.to_truth_table().difference(&dc_tt);
        Isf { on: on_tt, dc: dc_tt }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.on.num_vars()
    }

    /// The on-set.
    pub fn on(&self) -> &TruthTable {
        &self.on
    }

    /// The dc-set.
    pub fn dc(&self) -> &TruthTable {
        &self.dc
    }

    /// The off-set (complement of `on ∪ dc`).
    pub fn off(&self) -> TruthTable {
        !&(&self.on | &self.dc)
    }

    /// Computes the off-set into an existing table without allocating
    /// (`out = !(on ∪ dc)`), for callers that recompute it in a hot loop.
    ///
    /// # Panics
    ///
    /// Panics if `out` has a different arity.
    pub fn off_into(&self, out: &mut TruthTable) {
        out.copy_from(&self.on);
        *out |= &self.dc;
        out.not_assign();
    }

    /// Checks `off ⊆ g` (equivalently `on ∪ dc ∪ g = 1`) word-wise without
    /// materializing the off-set. This is the Table II side condition for the
    /// `⇒` and `NAND` operators.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ.
    pub fn off_is_subset_of(&self, g: &TruthTable) -> bool {
        assert_eq!(self.num_vars(), g.num_vars(), "arity mismatch");
        let on = self.on.as_words();
        let dc = self.dc.as_words();
        let gw = g.as_words();
        let tail = self.on.tail_mask();
        let last = on.len() - 1;
        (0..on.len()).all(|i| {
            let mask = if i == last { tail } else { u64::MAX };
            (on[i] | dc[i] | gw[i]) == mask
        })
    }

    /// The care set (`on ∪ off`, i.e. complement of the dc-set).
    pub fn care(&self) -> TruthTable {
        !&self.dc
    }

    /// Returns `true` if the dc-set is empty.
    pub fn is_completely_specified(&self) -> bool {
        self.dc.is_zero()
    }

    /// Returns `true` if the completely specified function `g` is a
    /// *completion* (cover) of this ISF: `on ⊆ g ⊆ on ∪ dc`.
    pub fn is_completion(&self, g: &TruthTable) -> bool {
        self.on.is_subset_of(g) && g.is_subset_of(&(&self.on | &self.dc))
    }

    /// The completion that maps every don't-care to 0 (the smallest
    /// completion, i.e. the on-set itself).
    pub fn min_completion(&self) -> TruthTable {
        self.on.clone()
    }

    /// The completion that maps every don't-care to 1 (the largest
    /// completion, `on ∪ dc`).
    pub fn max_completion(&self) -> TruthTable {
        &self.on | &self.dc
    }

    /// Restricts the dc-set to `dc ∩ keep`, moving the rest of the don't-cares
    /// to the off-set. Useful when modelling bounded-error approximation.
    pub fn restrict_dc(&self, keep: &TruthTable) -> Isf {
        Isf { on: self.on.clone(), dc: &self.dc & keep }
    }

    /// Adds extra don't-care minterms (they are removed from both the on-set
    /// and off-set).
    pub fn widen_dc(&self, extra: &TruthTable) -> Isf {
        Isf { on: self.on.difference(extra), dc: &self.dc | extra }
    }

    /// Value of the ISF on a minterm: `Some(true)` / `Some(false)` for
    /// specified minterms, `None` for don't-cares.
    pub fn value(&self, minterm: u64) -> Option<bool> {
        if self.dc.get(minterm) {
            None
        } else {
            Some(self.on.get(minterm))
        }
    }

    /// Returns `true` if the two ISFs are *compatible*: they do not disagree
    /// on any minterm specified by both.
    pub fn is_compatible_with(&self, other: &Isf) -> bool {
        let conflict_on = &self.on & &other.off();
        let conflict_off = &self.off() & &other.on;
        conflict_on.is_zero() && conflict_off.is_zero()
    }

    /// Converts the on-set into a cover of minterm cubes (no minimization).
    pub fn on_cover(&self) -> Cover {
        self.on.to_minterm_cover()
    }

    /// Converts the dc-set into a cover of minterm cubes (no minimization).
    pub fn dc_cover(&self) -> Cover {
        self.dc.to_minterm_cover()
    }
}

impl fmt::Debug for Isf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Isf(n={}, |on|={}, |dc|={}, |off|={})",
            self.num_vars(),
            self.on.count_ones(),
            self.dc.count_ones(),
            self.off().count_ones()
        )
    }
}

impl fmt::Display for Isf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.num_vars() <= 5 {
            let chars: String = (0..self.on.num_minterms())
                .rev()
                .map(|m| match self.value(m) {
                    Some(true) => '1',
                    Some(false) => '0',
                    None => '-',
                })
                .collect();
            write!(f, "{chars}")
        } else {
            write!(f, "{self:?}")
        }
    }
}

impl From<TruthTable> for Isf {
    fn from(on: TruthTable) -> Self {
        Isf::completely_specified(on)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Isf {
        Isf::from_cover_str(3, &["11-"], &["0-1"]).unwrap()
    }

    #[test]
    fn sets_are_disjoint_and_cover_the_space() {
        let f = sample();
        let on = f.on().clone();
        let dc = f.dc().clone();
        let off = f.off();
        assert!((&on & &dc).is_zero());
        assert!((&on & &off).is_zero());
        assert!((&dc & &off).is_zero());
        assert_eq!(on.count_ones() + dc.count_ones() + off.count_ones(), 8);
    }

    #[test]
    fn overlapping_on_dc_is_rejected_by_new_but_resolved_by_covers() {
        let on = TruthTable::variable(3, 0);
        let dc = TruthTable::variable(3, 0);
        assert!(matches!(Isf::new(on.clone(), dc.clone()), Err(BoolFuncError::InconsistentIsf)));
        let resolved = Isf::from_covers(
            &Cover::from_strs(3, &["1--"]).unwrap(),
            &Cover::from_strs(3, &["1--"]).unwrap(),
        );
        assert!(resolved.on().is_zero());
        assert_eq!(resolved.dc().count_ones(), 4);
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let on = TruthTable::zero(3);
        let dc = TruthTable::zero(4);
        assert!(matches!(Isf::new(on, dc), Err(BoolFuncError::ArityMismatch { .. })));
    }

    #[test]
    fn completions() {
        let f = sample();
        assert!(f.is_completion(&f.min_completion()));
        assert!(f.is_completion(&f.max_completion()));
        // A function that is 0 somewhere on the on-set is not a completion.
        let bad = TruthTable::zero(3);
        assert!(!f.is_completion(&bad));
        // min and max completion differ exactly on the dc-set.
        assert_eq!(f.min_completion().hamming_distance(&f.max_completion()), f.dc().count_ones());
    }

    #[test]
    fn value_distinguishes_specified_and_dc() {
        let f = sample();
        assert_eq!(f.value(0b011), Some(true)); // covered by "11-"
        assert_eq!(f.value(0b100), None); // covered by dc "0-1" (x0=0, x2=1)
        assert_eq!(f.value(0b000), Some(false));
    }

    #[test]
    fn compatibility() {
        let a = Isf::from_cover_str(2, &["1-"], &["01"]).unwrap();
        let b = Isf::from_cover_str(2, &["11"], &["10", "01"]).unwrap();
        assert!(a.is_compatible_with(&b));
        let c = Isf::from_cover_str(2, &["0-"], &[]).unwrap();
        assert!(!a.is_compatible_with(&c));
    }

    #[test]
    fn widen_and_restrict_dc() {
        let f = sample();
        let extra = TruthTable::variable(3, 1);
        let widened = f.widen_dc(&extra);
        assert!(f.dc().is_subset_of(widened.dc()));
        assert!(widened.on().is_subset_of(f.on()));
        let restricted = widened.restrict_dc(&TruthTable::zero(3));
        assert!(restricted.dc().is_zero());
    }

    #[test]
    fn off_into_and_off_subset_agree_with_allocating_path() {
        for num_vars in [3usize, 6, 7] {
            let f = Isf::new(
                TruthTable::from_fn(num_vars, |m| m % 3 == 0),
                TruthTable::from_fn(num_vars, |m| m % 3 == 1),
            )
            .unwrap();
            let mut out = TruthTable::zero(num_vars);
            f.off_into(&mut out);
            assert_eq!(out, f.off(), "n={num_vars}: off_into");

            let g_exact = f.off();
            assert!(f.off_is_subset_of(&g_exact));
            assert!(f.off_is_subset_of(&TruthTable::one(num_vars)));
            let mut too_small = g_exact.clone();
            if let Some(m) = g_exact.ones().next() {
                too_small.set(m, false);
                assert!(!f.off_is_subset_of(&too_small));
            }
            assert_eq!(
                f.off_is_subset_of(&TruthTable::zero(num_vars)),
                f.off().is_zero(),
                "n={num_vars}: empty divisor"
            );
        }
    }

    #[test]
    fn display_small() {
        let f = Isf::from_cover_str(2, &["11"], &["00"]).unwrap();
        // minterms 3,2,1,0 -> 1,0,0,-
        assert_eq!(f.to_string(), "100-");
    }
}
