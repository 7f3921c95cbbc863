//! Espresso on dense truth tables: the production minimizer.
//!
//! The EXPAND → IRREDUNDANT → REDUCE loop of [`crate::espresso_cover`], with
//! every set question answered on the function's own `on`/`dc` tables rather
//! than on cube lists:
//!
//! * EXPAND asks whether a relaxed cube meets the off-set `!(on | dc)`;
//! * IRREDUNDANT asks whether a cube lies inside the other cubes plus `dc`;
//! * REDUCE asks for the supercube of a cube's minterms that neither the
//!   other cubes nor `dc` cover.
//!
//! Each answer is a property of a set, not of the cube list that describes
//! it, and every step keeps the cube-list step's orderings, swallow marking
//! and cost comparison. The covers therefore come out identical, cube for
//! cube, to `espresso_cover` run on the minterm covers of `on` and `dc`;
//! that function stays as the oracle the tests compare against.
//!
//! A cube maps onto the table as a span: one in-word minterm mask for its
//! literals on variables 0–5, plus the set of 64-bit words its literals on
//! variables 6 and up select.

use std::cmp::Reverse;

use boolfunc::{Cover, Cube, CubeValue, Isf, TruthTable};

use crate::cost::Cost;
use crate::espresso::EspressoOptions;

/// Minimizes the incompletely specified function `f` on its truth tables,
/// returning a prime, irredundant cover `F` with `on ⊆ F ⊆ on ∪ dc`.
///
/// The result is the cover [`crate::espresso_cover`] returns for the minterm
/// covers of `f.on()` and `f.dc()` under the same `options`, cube for cube.
///
/// ```rust
/// use boolfunc::Isf;
/// use sop::{espresso_cover, espresso_isf, EspressoOptions};
///
/// # fn main() -> Result<(), boolfunc::BoolFuncError> {
/// let f = Isf::from_cover_str(4, &["11-1", "-111"], &["0000"])?;
/// let options = EspressoOptions::default();
/// let dense = espresso_isf(&f, options);
/// let cube_list = espresso_cover(&f.on_cover(), &f.dc_cover(), options);
/// assert_eq!(dense, cube_list);
/// # Ok(())
/// # }
/// ```
pub fn espresso_isf(f: &Isf, options: EspressoOptions) -> Cover {
    let n = f.num_vars();
    if f.on().is_zero() {
        return Cover::empty(n);
    }
    let mut tables = Tables::new(f);
    if tables.off.iter().all(|&w| w == 0) {
        return Cover::tautology(n);
    }

    let mut current = tables.expand_minterms(f.on());
    current = tables.irredundant(&current);
    let mut best = current.clone();
    let mut best_cost = Cost::of(&best);

    if !options.use_reduce {
        return best;
    }

    for _ in 0..options.max_iterations {
        current = tables.reduce(&current);
        current = tables.expand(&current);
        current = tables.irredundant(&current);
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

/// A cube laid over a truth table: the minterm mask its literals on
/// variables 0–5 select inside a word, and the words `w` its literals on
/// variables 6 and up select (`w & care == value`).
#[derive(Debug, Clone, Copy)]
struct Span {
    bits: u64,
    value: usize,
    free: usize,
}

impl Span {
    /// The selected word indices, in increasing order (every subset of the
    /// free word-index bits, added to the fixed ones).
    fn words(self) -> impl Iterator<Item = usize> {
        let Span { value, free, .. } = self;
        let mut next = Some(0usize);
        std::iter::from_fn(move || {
            let subset = next?;
            next = (subset != free).then(|| subset.wrapping_sub(free) & free);
            Some(value | subset)
        })
    }
}

/// Does the cube meet the table?
fn meets(table: &[u64], span: Span) -> bool {
    span.words().any(|w| table[w] & span.bits != 0)
}

/// Is the cube inside the table?
fn inside(table: &[u64], span: Span) -> bool {
    span.words().all(|w| span.bits & !table[w] == 0)
}

/// The tables one minimization runs against.
struct Tables<'a> {
    num_vars: usize,
    dc: &'a [u64],
    off: Vec<u64>,
    /// Valid minterm bits of a word (all of them from 6 variables up).
    valid: u64,
    /// The word-index bits (the table has `word_bits + 1` words).
    word_bits: usize,
    /// "The other cubes plus `dc`", filled only on the words of the cube
    /// being examined.
    rest: Vec<u64>,
}

impl<'a> Tables<'a> {
    fn new(f: &'a Isf) -> Self {
        let (on, dc) = (f.on().as_words(), f.dc().as_words());
        let valid = f.on().tail_mask();
        let off = on.iter().zip(dc).map(|(&a, &b)| !(a | b) & valid).collect();
        Tables {
            num_vars: f.num_vars(),
            dc,
            off,
            valid,
            word_bits: on.len() - 1,
            rest: vec![0; on.len()],
        }
    }

    fn span(&self, cube: &Cube) -> Span {
        let (mask, polarity) = (cube.mask(), cube.polarity());
        let mut bits = self.valid;
        for (var, pattern) in TruthTable::VAR_PATTERNS.iter().enumerate() {
            if mask >> var & 1 == 1 {
                bits &= if polarity >> var & 1 == 1 { *pattern } else { !*pattern };
            }
        }
        let care = (mask >> 6) as usize;
        Span { bits, value: (polarity >> 6) as usize, free: !care & self.word_bits }
    }

    /// Loads `dc` plus every cube of `others` into `rest` on the words of
    /// `cube`, and returns the span of `cube`.
    fn load_rest<'c>(&mut self, cube: &Cube, others: impl Iterator<Item = &'c Cube>) -> Span {
        let span = self.span(cube);
        for w in span.words() {
            self.rest[w] = self.dc[w];
        }
        for other in others {
            if let Some(meet) = cube.intersect(other) {
                let meet = self.span(&meet);
                for w in meet.words() {
                    self.rest[w] |= meet.bits;
                }
            }
        }
        span
    }

    /// EXPAND: the skeleton of [`crate::expand`], largest cubes first, each
    /// expanded cube marking the cubes it swallows.
    fn expand(&self, cover: &Cover) -> Cover {
        let mut order: Vec<usize> = (0..cover.num_cubes()).collect();
        order.sort_by_key(|&i| cover.cubes()[i].literal_count());

        let mut covered = vec![false; cover.num_cubes()];
        let mut result = Cover::empty(cover.num_vars());
        for &idx in &order {
            if covered[idx] {
                continue;
            }
            let expanded = self.expand_cube(&cover.cubes()[idx]);
            for (j, cube) in cover.cubes().iter().enumerate() {
                if !covered[j] && expanded.contains(cube) {
                    covered[j] = true;
                }
            }
            result.push(expanded);
        }
        result.remove_contained_cubes();
        result
    }

    /// EXPAND of the on-set's minterm cover, read off the table: the
    /// minterms in increasing order (the order [`Tables::expand`] gives
    /// equal-size cubes), each not yet swallowed expanded, its expansion
    /// clearing the minterms it swallows.
    ///
    /// The walk reads the lowest set bit of each `uncovered` word, so
    /// swallowed minterms and swallowed words cost nothing. An expansion
    /// holds its seed minterm and every lower uncovered minterm has been
    /// expanded already, so after each expansion the word's lowest set bit
    /// is the next minterm to expand.
    fn expand_minterms(&self, on: &TruthTable) -> Cover {
        let mut uncovered = on.as_words().to_vec();
        let mut result = Cover::empty(self.num_vars);
        for w in 0..uncovered.len() {
            while uncovered[w] != 0 {
                let m = (w as u64) << 6 | u64::from(uncovered[w].trailing_zeros());
                let minterm = Cube::minterm(self.num_vars, m).expect("arity bounded by the table");
                let expanded = self.expand_cube(&minterm);
                let span = self.span(&expanded);
                for v in span.words() {
                    uncovered[v] &= !span.bits;
                }
                result.push(expanded);
            }
        }
        result.remove_contained_cubes();
        result
    }

    /// Raises literals in increasing variable order while the cube stays off
    /// the off-set. The cube-list [`crate::expand::expand_cube`] raises, each
    /// round, the lowest-index literal whose removal keeps the cube off the
    /// off-set; a literal blocked once stays blocked as the cube grows, so
    /// one ascending pass raises the same literals.
    fn expand_cube(&self, cube: &Cube) -> Cube {
        let mut current = *cube;
        for var in 0..self.num_vars {
            if current.value(var) == CubeValue::DontCare {
                continue;
            }
            let relaxed = current.with_value(var, CubeValue::DontCare);
            if !meets(&self.off, self.span(&relaxed)) {
                current = relaxed;
            }
        }
        current
    }

    /// IRREDUNDANT: the skeleton of [`crate::irredundant`], most specific
    /// cubes first, each dropped when the kept others plus `dc` cover it.
    fn irredundant(&mut self, cover: &Cover) -> Cover {
        let mut cubes = cover.cubes().to_vec();
        cubes.sort_by_key(|c| Reverse(c.literal_count()));

        let mut keep = vec![true; cubes.len()];
        for i in 0..cubes.len() {
            let others = cubes.iter().enumerate().filter(|&(j, _)| j != i && keep[j]);
            let span = self.load_rest(&cubes[i], others.map(|(_, c)| c));
            if inside(&self.rest, span) {
                keep[i] = false;
            }
        }
        let kept = cubes.iter().zip(&keep).filter(|&(_, &k)| k).map(|(c, _)| *c);
        Cover::from_cubes(cover.num_vars(), kept)
    }

    /// REDUCE: the skeleton of [`crate::reduce`], largest cubes first, each
    /// shrunk to the supercube of the minterms only it covers (or dropped).
    fn reduce(&mut self, cover: &Cover) -> Cover {
        let mut cubes = cover.cubes().to_vec();
        cubes.sort_by_key(|c| c.literal_count());

        let mut result: Vec<Cube> = Vec::with_capacity(cubes.len());
        for i in 0..cubes.len() {
            let span = self.load_rest(&cubes[i], result.iter().chain(&cubes[i + 1..]));
            if let Some(reduced) = self.uncovered_supercube(span) {
                result.push(reduced);
            }
        }
        Cover::from_cubes(cover.num_vars(), result)
    }

    /// The smallest cube holding every minterm of `span` outside `rest`, or
    /// `None` when `rest` covers all of them.
    fn uncovered_supercube(&self, span: Span) -> Option<Cube> {
        // Which in-word minterms occur, and which word-index bits are set in
        // every / some word that holds one.
        let (mut low, mut all_words, mut any_word) = (0u64, usize::MAX, 0usize);
        for w in span.words() {
            let bits = span.bits & !self.rest[w];
            if bits != 0 {
                low |= bits;
                all_words &= w;
                any_word |= w;
            }
        }
        if low == 0 {
            return None;
        }
        // A variable stays a literal when only one of its values occurs.
        let high = !(all_words ^ any_word) & self.word_bits;
        let (mut mask, mut value) = ((high as u64) << 6, ((all_words & high) as u64) << 6);
        for (var, pattern) in TruthTable::VAR_PATTERNS.iter().enumerate().take(self.num_vars) {
            let (ones, zeros) = (low & pattern != 0, low & !pattern != 0);
            if ones != zeros {
                mask |= 1 << var;
                value |= u64::from(ones) << var;
            }
        }
        Some(Cube::from_masks(self.num_vars, mask, value).expect("arity bounded by the table"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::espresso::{espresso_cover, verify_cover};

    const SHAPES: [EspressoOptions; 2] = [
        EspressoOptions { max_iterations: 8, use_reduce: true },
        EspressoOptions { max_iterations: 1, use_reduce: false },
    ];

    /// The dense path and the cube-list oracle return the same cube list,
    /// and that cover realizes `f`.
    fn assert_matches_oracle(f: &Isf, what: &str) {
        let (on, dc) = (f.on_cover(), f.dc_cover());
        for options in SHAPES {
            let dense = espresso_isf(f, options);
            assert_eq!(dense, espresso_cover(&on, &dc, options), "{what}, {options:?}");
            assert!(verify_cover(f, &dense), "{what}, {options:?}: cover does not realize f");
        }
    }

    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        }
    }

    #[test]
    fn random_isfs_match_the_cube_list_oracle() {
        let mut next = lcg(0x5EED_0D15);
        // (on, dc) densities in percent: sparse to dense, plus dc = ∅.
        let grid = [(10, 0), (30, 20), (50, 10), (20, 60), (70, 0), (45, 45)];
        for n in 0..=12 {
            let trials = if n <= 8 { 4 } else { 1 };
            for &(on_pct, dc_pct) in &grid {
                for trial in 0..trials {
                    let on = TruthTable::from_fn(n, |_| next() % 100 < on_pct);
                    let dc = TruthTable::from_fn(n, |_| next() % 100 < dc_pct).difference(&on);
                    let f = Isf::new(on, dc).unwrap();
                    assert_matches_oracle(&f, &format!("n={n} on={on_pct}% dc={dc_pct}% #{trial}"));
                }
            }
        }
    }

    /// On-sets spanning several words, each word empty, full or sparse: the
    /// seeding walk meets words with nothing on, words an expansion from an
    /// earlier word has already cleared, and words it steps through bit by
    /// bit.
    #[test]
    fn multi_word_on_sets_match_the_cube_list_oracle() {
        let mut next = lcg(0x0770_0880);
        let mut word = move || match next() % 4 {
            0 => 0,
            1 => u64::MAX,
            _ => (next() << 32 ^ next()) & (next() << 32 ^ next()),
        };
        for n in [7, 8] {
            for trial in 0..24 {
                let on = TruthTable::from_words(n, &mut word);
                let dc = match trial % 3 {
                    0 => TruthTable::zero(n),
                    _ => TruthTable::from_words(n, &mut word).difference(&on),
                };
                let f = Isf::new(on, dc).unwrap();
                assert_matches_oracle(&f, &format!("n={n} multi-word #{trial}"));
            }
        }
    }

    #[test]
    fn edge_isfs_match_the_cube_list_oracle() {
        let mut next = lcg(0xED6E);
        for n in 0..=10 {
            let half = TruthTable::from_fn(n, |_| next() & 1 == 0);
            let cases = [
                ("on = ∅", Isf::new(TruthTable::zero(n), half.clone()).unwrap()),
                ("on ∪ dc = all", Isf::new(half.clone(), !&half).unwrap()),
                ("on = all", Isf::completely_specified(TruthTable::one(n))),
                ("dc = all", Isf::new(TruthTable::zero(n), TruthTable::one(n)).unwrap()),
                ("dc = ∅", Isf::completely_specified(half)),
            ];
            for (what, f) in &cases {
                assert_matches_oracle(f, &format!("n={n} {what}"));
            }
        }
    }

    #[test]
    fn spans_select_exactly_the_cube_minterms() {
        for n in [0, 3, 6, 7, 9] {
            let f = Isf::completely_specified(TruthTable::zero(n));
            let tables = Tables::new(&f);
            let mut next = lcg(n as u64);
            for _ in 0..40 {
                let mask = next() & ((1u64 << n) - 1);
                let cube = Cube::from_masks(n, mask, next()).unwrap();
                let mut table = vec![0u64; f.on().as_words().len()];
                let span = tables.span(&cube);
                for w in span.words() {
                    table[w] |= span.bits;
                }
                let expected = TruthTable::from_cubes(n, &[cube]);
                assert_eq!(table, expected.as_words(), "n={n} cube {cube}");
            }
        }
    }
}
