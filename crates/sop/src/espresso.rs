//! The top-level espresso iteration: EXPAND → IRREDUNDANT → REDUCE, repeated
//! until the cover cost stops improving.
//!
//! [`espresso`] runs it on the ISF's truth tables ([`crate::espresso_isf`]);
//! [`espresso_cover`] runs it on cube lists and is that path's oracle.

use boolfunc::{Cover, Isf};

use crate::complement::off_set;
use crate::cost::Cost;
use crate::dense::espresso_isf;
use crate::expand::expand;
use crate::irredundant::irredundant;
use crate::reduce::reduce;

/// Options controlling the espresso iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EspressoOptions {
    /// Maximum number of EXPAND/IRREDUNDANT/REDUCE rounds.
    pub max_iterations: usize,
    /// Whether to run the REDUCE perturbation step (disabling it gives a
    /// single-pass expand+irredundant minimization, faster but weaker).
    pub use_reduce: bool,
}

impl Default for EspressoOptions {
    fn default() -> Self {
        EspressoOptions { max_iterations: 8, use_reduce: true }
    }
}

/// Minimizes an incompletely specified function given by dense truth tables,
/// returning a prime, irredundant cover `F` with `on ⊆ F ⊆ on ∪ dc`: this is
/// [`crate::espresso_isf`] with the default options.
///
/// ```rust
/// use boolfunc::Isf;
/// use sop::espresso;
///
/// # fn main() -> Result<(), boolfunc::BoolFuncError> {
/// // The 2-out-of-3 majority function.
/// let f = Isf::from_cover_str(3, &["11-", "1-1", "-11"], &[])?;
/// let m = espresso(&f);
/// assert_eq!(m.num_cubes(), 3);
/// # Ok(())
/// # }
/// ```
pub fn espresso(f: &Isf) -> Cover {
    espresso_isf(f, EspressoOptions::default())
}

/// Minimizes a function given by an on-set cover and a dc-set cover.
///
/// The input covers may be arbitrary (e.g. one cube per minterm, or an
/// existing SOP to improve); the result covers `on \ dc` and stays inside
/// `on ∪ dc`. Every set question goes through cube-list complementation
/// and tautology checks; on minterm covers the result equals
/// [`crate::espresso_isf`]'s, which answers them on truth tables instead.
pub fn espresso_cover(on: &Cover, dc: &Cover, options: EspressoOptions) -> Cover {
    let n = on.num_vars();
    if on.is_empty() {
        return Cover::empty(n);
    }
    let off = off_set(on, dc);
    if off.is_empty() {
        return Cover::tautology(n);
    }

    let mut current = on.clone();
    current.remove_contained_cubes();
    current = expand(&current, &off);
    current = irredundant(&current, dc);
    let mut best = current.clone();
    let mut best_cost = Cost::of(&best);

    if !options.use_reduce {
        return best;
    }

    for _ in 0..options.max_iterations {
        current = reduce(&current, dc);
        current = expand(&current, &off);
        current = irredundant(&current, dc);
        let cost = Cost::of(&current);
        if cost < best_cost {
            best_cost = cost;
            best = current.clone();
        } else {
            break;
        }
    }
    best
}

/// Checks that `cover` is a legal realization of the incompletely specified
/// function `f`: it covers the on-set and stays inside `on ∪ dc`.
pub fn verify_cover(f: &Isf, cover: &Cover) -> bool {
    let tt = cover.to_truth_table();
    f.on().is_subset_of(&tt) && tt.is_subset_of(&f.max_completion())
}

#[cfg(test)]
mod tests {
    use super::*;
    use boolfunc::TruthTable;

    #[test]
    fn minimizes_to_single_literal() {
        let f = Isf::from_cover_str(2, &["11", "10"], &[]).unwrap();
        let m = espresso(&f);
        assert!(verify_cover(&f, &m));
        assert_eq!(m.num_cubes(), 1);
        assert_eq!(m.literal_count(), 1);
    }

    #[test]
    fn majority_function_needs_three_cubes() {
        let f = Isf::from_cover_str(3, &["11-", "1-1", "-11"], &[]).unwrap();
        let m = espresso(&f);
        assert!(verify_cover(&f, &m));
        assert_eq!(m.num_cubes(), 3);
        assert_eq!(m.literal_count(), 6);
    }

    #[test]
    fn constant_functions() {
        let zero = Isf::completely_specified(TruthTable::zero(3));
        assert!(espresso(&zero).is_empty());
        let one = Isf::completely_specified(TruthTable::one(3));
        let m = espresso(&one);
        assert_eq!(m.num_cubes(), 1);
        assert_eq!(m.literal_count(), 0);
    }

    #[test]
    fn dont_cares_reduce_cost() {
        // Fig. 1 of the paper: h has on-set = f_on and a large dc-set; its
        // minimal SOP is x0 + x2 (2 literals).
        let f = Isf::from_cover_str(4, &["11-1", "-111"], &[]).unwrap();
        let g = Cover::from_strs(4, &["-1-1"]).unwrap().to_truth_table();
        // h_on = f_on, h_dc = g_off ∪ f_dc
        let h = Isf::new(f.on().clone(), !&g).unwrap();
        let m = espresso(&h);
        assert!(verify_cover(&h, &m));
        assert!(m.literal_count() <= 2, "expected at most 2 literals, got {}", m.literal_count());
    }

    #[test]
    fn xor_function_is_not_over_minimized() {
        let f = Isf::from_cover_str(3, &["100", "010", "001", "111"], &[]).unwrap();
        let m = espresso(&f);
        assert!(verify_cover(&f, &m));
        assert_eq!(m.num_cubes(), 4);
        assert_eq!(m.literal_count(), 12);
    }

    #[test]
    fn random_functions_verify_and_do_not_regress() {
        let mut lcg = 0xABCDEFu64;
        let mut next = move || {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            lcg >> 33
        };
        for _ in 0..30 {
            let on = TruthTable::from_fn(5, |_| next() % 3 == 0);
            let dc = TruthTable::from_fn(5, |_| next() % 4 == 0).difference(&on);
            let f = Isf::new(on.clone(), dc).unwrap();
            let m = espresso(&f);
            assert!(verify_cover(&f, &m));
            // Never worse than the trivial minterm cover.
            assert!(m.num_cubes() <= on.count_ones() as usize);
        }
    }

    #[test]
    fn options_without_reduce_still_verify() {
        let f = Isf::from_cover_str(4, &["11--", "1-1-", "1--1", "-111", "0000"], &[]).unwrap();
        let on = f.on().to_minterm_cover();
        let m = espresso_cover(
            &on,
            &Cover::empty(4),
            EspressoOptions { max_iterations: 1, use_reduce: false },
        );
        assert!(verify_cover(&f, &m));
    }
}
