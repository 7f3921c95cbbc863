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
//!
//! **Cover counts.** IRREDUNDANT and REDUCE keep, for every minterm, how
//! many cubes of the cover they work on hold it, bit-sliced into
//! `⌈log₂(k + 1)⌉` planes for `k` cubes: adding or subtracting a cube is a
//! ripple-carry or ripple-borrow over the planes on each word of its span.
//! On a cube's own minterms the cube counts itself, so the *other* cubes
//! hold exactly the minterms whose count is two or more. Both passes count
//! every cube once, then IRREDUNDANT subtracts a cube as it drops it and
//! REDUCE swaps each cube for its reduced cube, so a pass costs O(k) span
//! updates of a few planes each instead of intersecting every cube with
//! every other one.
//!
//! **Half-cube EXPAND.** A cube being expanded already misses the off-set,
//! so raising one of its literals keeps it off exactly when the cube's
//! mirror across that variable misses it: only that half is tested, and an
//! accepted mirror is ORed into the span in place. Every expanded cube is a
//! prime (each literal it keeps is blocked), and no prime lies inside
//! another implicant, so EXPAND's result only needs sorting where the
//! cube-list step removes contained cubes.
//!
//! Two exits leave the REDUCE → EXPAND → IRREDUNDANT iteration as soon as
//! its outcome is fixed; both return the cover the full loop returns.
//!
//! * **Every cube essential.** When each cube `c` of the first IRREDUNDANT
//!   cover holds an on-minterm `m` whose neighbour across every literal
//!   variable of `c` is in the off-set, every implicant through `m` lies
//!   inside `c`, so `c` is the only prime through `m`, and the cover is the
//!   unique irredundant prime cover. The first iteration can only confirm
//!   it: REDUCE keeps each `m` in its cube's reduced cube (no other cube
//!   holds it), EXPAND grows that cube back to `c` (the only prime through
//!   `m`), IRREDUNDANT keeps every cube, and the loop stops at equal cost.
//!   So the first cover is returned without the iteration.
//! * **EXPAND returned the current cubes.** Inside the loop the current
//!   cover is always the best one (an iteration that does not lower the
//!   cost ends it). When EXPAND hands back exactly its cubes, IRREDUNDANT
//!   would keep all of them, since none lies inside the others plus `dc`,
//!   so the cost cannot drop and the loop stops before IRREDUNDANT.
//!
//! The cube-list [`crate::espresso_cover`] has neither exit: it runs every
//! step it reaches, and the tests hold the dense covers to it cube for cube.

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
    if !options.use_reduce || tables.all_essential(f.on(), &current) {
        return current;
    }
    let mut best = current.clone();
    let mut best_cost = Cost::of(&best);

    for _ in 0..options.max_iterations {
        // `current` is `best` here: every iteration that does not lower the
        // cost ends the loop.
        let reduced = tables.reduce(&current);
        let expanded = tables.expand(&reduced);
        if same_cubes(&expanded, &current) {
            break;
        }
        current = tables.irredundant(&expanded);
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

/// Does [`Tables::expand`]'s result hold exactly the cubes of `cover`? It
/// comes out sorted and without duplicates, and so does an irredundant
/// `cover` once sorted.
fn same_cubes(expanded: &Cover, cover: &Cover) -> bool {
    let mut cubes = cover.cubes().to_vec();
    cubes.sort();
    expanded.cubes() == cubes.as_slice()
}

/// The cover of EXPAND's cubes, as [`Cover::remove_contained_cubes`]
/// leaves them: sorted, without repeats. Every expanded cube is a prime
/// ([`Tables::expand_cube`]), and a prime lies inside no other implicant,
/// so no cube is dropped for lying inside another.
fn sorted_cover(num_vars: usize, mut cubes: Vec<Cube>) -> Cover {
    cubes.sort_unstable();
    cubes.dedup();
    Cover::from_cubes(num_vars, cubes)
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

/// How many cubes cover each minterm, bit-sliced: plane `p` of word `w`
/// holds bit `p` of the counts of that word's 64 minterms. Adding or
/// subtracting a cube is a ripple-carry (or ripple-borrow) over the planes
/// on each word of its span, stopping once nothing carries.
#[derive(Debug, Default)]
struct Counts {
    /// `depth` planes per word, word by word.
    planes: Vec<u64>,
    depth: usize,
}

impl Counts {
    /// Zero counts over `words` words, deep enough for `cubes` cubes on one
    /// minterm: `⌈log₂(cubes + 1)⌉` planes.
    fn reset(&mut self, words: usize, cubes: usize) {
        self.depth = (usize::BITS - cubes.leading_zeros()) as usize;
        self.planes.clear();
        self.planes.resize(words * self.depth, 0);
    }

    /// The planes of word `w`, lowest bit first.
    fn at(&self, w: usize) -> &[u64] {
        &self.planes[w * self.depth..][..self.depth]
    }

    fn at_mut(&mut self, w: usize) -> &mut [u64] {
        &mut self.planes[w * self.depth..][..self.depth]
    }

    /// Counts one more cube over `span`.
    fn add(&mut self, span: Span) {
        for w in span.words() {
            let mut carry = span.bits;
            for plane in self.at_mut(w) {
                (*plane, carry) = (*plane ^ carry, *plane & carry);
                if carry == 0 {
                    break;
                }
            }
            debug_assert_eq!(carry, 0, "more cubes than the planes count");
        }
    }

    /// Counts one cube fewer over `span`, which must have been added.
    fn sub(&mut self, span: Span) {
        for w in span.words() {
            let mut borrow = span.bits;
            for plane in self.at_mut(w) {
                (*plane, borrow) = (*plane ^ borrow, !*plane & borrow);
                if borrow == 0 {
                    break;
                }
            }
            debug_assert_eq!(borrow, 0, "a count went below zero");
        }
    }

    /// The minterms of word `w` that two or more cubes cover: some plane
    /// above the lowest is set.
    fn at_least_two(&self, w: usize) -> u64 {
        self.at(w).iter().skip(1).fold(0, |acc, &plane| acc | plane)
    }
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
    /// How many cubes of the cover IRREDUNDANT or REDUCE is working on
    /// cover each minterm.
    counts: Counts,
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
            counts: Counts::default(),
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

    /// Counts every cube of `cubes` and returns their spans.
    fn count(&mut self, cubes: &[Cube]) -> Vec<Span> {
        let spans: Vec<Span> = cubes.iter().map(|c| self.span(c)).collect();
        self.counts.reset(self.word_bits + 1, cubes.len());
        for &span in &spans {
            self.counts.add(span);
        }
        spans
    }

    /// The minterms of word `w` that `dc` or a counted cube besides the
    /// one being examined covers: that cube counts itself on its own
    /// minterms, so the others cover exactly where the count is two or more.
    fn rest(&self, w: usize) -> u64 {
        self.dc[w] | self.counts.at_least_two(w)
    }

    /// EXPAND: the skeleton of [`crate::expand`], largest cubes first, each
    /// expanded cube marking the cubes it swallows.
    fn expand(&self, cover: &Cover) -> Cover {
        let mut order: Vec<usize> = (0..cover.num_cubes()).collect();
        order.sort_by_key(|&i| cover.cubes()[i].literal_count());

        let mut covered = vec![false; cover.num_cubes()];
        let mut result = Vec::with_capacity(cover.num_cubes());
        for &idx in &order {
            if covered[idx] {
                continue;
            }
            let (expanded, _) = self.expand_cube(&cover.cubes()[idx]);
            for (j, cube) in cover.cubes().iter().enumerate() {
                if !covered[j] && expanded.contains(cube) {
                    covered[j] = true;
                }
            }
            result.push(expanded);
        }
        sorted_cover(self.num_vars, result)
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
        let mut result = Vec::new();
        for w in 0..uncovered.len() {
            while uncovered[w] != 0 {
                let m = (w as u64) << 6 | u64::from(uncovered[w].trailing_zeros());
                let minterm = Cube::minterm(self.num_vars, m).expect("arity bounded by the table");
                let (expanded, span) = self.expand_cube(&minterm);
                for v in span.words() {
                    uncovered[v] &= !span.bits;
                }
                result.push(expanded);
            }
        }
        sorted_cover(self.num_vars, result)
    }

    /// Raises literals in increasing variable order while the cube stays off
    /// the off-set. The cube-list [`crate::expand::expand_cube`] raises, each
    /// round, the lowest-index literal whose removal keeps the cube off the
    /// off-set; a literal blocked once stays blocked as the cube grows, so
    /// one ascending pass raises the same literals, and every literal it
    /// keeps is blocked: the result is a prime.
    ///
    /// `cube` must miss the off-set (a minterm or a reduced cube of the
    /// on-set does), so raising a literal keeps the cube off it exactly
    /// when the cube's mirror across that variable misses it: only that
    /// half is tested, and an accepted mirror widens the span in place.
    /// Returns the expanded cube with its span.
    fn expand_cube(&self, cube: &Cube) -> (Cube, Span) {
        let mut current = *cube;
        let mut span = self.span(cube);
        for var in 0..self.num_vars {
            let value = current.value(var);
            if value == CubeValue::DontCare {
                continue;
            }
            let mirror = if var < 6 {
                let shift = 1 << var;
                let bits =
                    if value == CubeValue::One { span.bits >> shift } else { span.bits << shift };
                Span { bits, ..span }
            } else {
                Span { value: span.value ^ 1 << (var - 6), ..span }
            };
            if !meets(&self.off, mirror) {
                current = current.with_value(var, CubeValue::DontCare);
                if var < 6 {
                    span.bits |= mirror.bits;
                } else {
                    span.value &= !(1 << (var - 6));
                    span.free |= 1 << (var - 6);
                }
            }
        }
        (current, span)
    }

    /// IRREDUNDANT: the skeleton of [`crate::irredundant`], most specific
    /// cubes first, each dropped when the kept others plus `dc` cover it.
    /// The counts hold the kept cubes: all of them at first, a dropped cube
    /// subtracted as it goes.
    fn irredundant(&mut self, cover: &Cover) -> Cover {
        let mut cubes = cover.cubes().to_vec();
        cubes.sort_by_key(|c| Reverse(c.literal_count()));

        let spans = self.count(&cubes);
        let mut keep = vec![true; cubes.len()];
        for (i, &span) in spans.iter().enumerate() {
            if span.words().all(|w| span.bits & !self.rest(w) == 0) {
                keep[i] = false;
                self.counts.sub(span);
            }
        }
        let kept = cubes.iter().zip(&keep).filter(|&(_, &k)| k).map(|(c, _)| *c);
        Cover::from_cubes(cover.num_vars(), kept)
    }

    /// Is every cube of `cover` the only prime holding one of its
    /// on-minterms? See [`Tables::has_witness`].
    fn all_essential(&self, on: &TruthTable, cover: &Cover) -> bool {
        cover.iter().all(|cube| self.has_witness(on.as_words(), cube))
    }

    /// Does `cube` hold an on-minterm `m` whose neighbour `m ⊕ e_v` across
    /// every literal variable `v` of the cube lies in the off-set? Every
    /// implicant containing such an `m` keeps all of the cube's literals,
    /// so it lies inside the cube: for a prime cube, the witness makes it
    /// the only prime through `m`, an essential prime. Conversely, if an
    /// essential prime's on-minterm `m` lies in no other prime and had a
    /// neighbour `m ⊕ e_v` in `on ∪ dc`, the prime through both would be
    /// another one.
    ///
    /// Word-parallel: on each word of the cube, the candidates are its
    /// on-minterms, narrowed per literal by the off-set shifted across that
    /// variable (a shift inside the word for variables 0–5, the partner
    /// word for the others).
    fn has_witness(&self, on: &[u64], cube: &Cube) -> bool {
        let span = self.span(cube);
        let literals = cube.mask();
        span.words().any(|w| {
            let mut candidates = span.bits & on[w];
            for var in (0..self.num_vars).filter(|&v| literals >> v & 1 == 1) {
                if candidates == 0 {
                    break;
                }
                candidates &= match TruthTable::VAR_PATTERNS.get(var) {
                    Some(&pattern) => {
                        let shift = 1 << var;
                        (self.off[w] >> shift & !pattern) | (self.off[w] << shift & pattern)
                    }
                    None => self.off[w ^ 1 << (var - 6)],
                };
            }
            candidates != 0
        })
    }

    /// REDUCE: the skeleton of [`crate::reduce`], largest cubes first, each
    /// shrunk to the supercube of the minterms only it covers (or dropped).
    /// The counts hold the cubes already reduced and those still to come:
    /// each cube is swapped for its reduced cube as it goes.
    fn reduce(&mut self, cover: &Cover) -> Cover {
        let mut cubes = cover.cubes().to_vec();
        cubes.sort_by_key(|c| c.literal_count());

        let spans = self.count(&cubes);
        let mut result: Vec<Cube> = Vec::with_capacity(cubes.len());
        for &span in &spans {
            let reduced = self.uncovered_supercube(span);
            self.counts.sub(span);
            if let Some(reduced) = reduced {
                self.counts.add(self.span(&reduced));
                result.push(reduced);
            }
        }
        Cover::from_cubes(cover.num_vars(), result)
    }

    /// The smallest cube holding every minterm of `span` outside
    /// [`Tables::rest`], or `None` when the rest covers all of them.
    fn uncovered_supercube(&self, span: Span) -> Option<Cube> {
        // Which in-word minterms occur, and which word-index bits are set in
        // every / some word that holds one.
        let (mut low, mut all_words, mut any_word) = (0u64, usize::MAX, 0usize);
        for w in span.words() {
            let bits = span.bits & !self.rest(w);
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

    /// A cold-shaped ISF, the shape of a synthesis service's fresh
    /// requests: eight on-cubes and two dc-cubes of two or three literals
    /// (a variable drawn twice keeps its last polarity).
    fn cold_isf(next: &mut impl FnMut() -> u64, n: usize) -> Isf {
        let mut cubes = |count: usize| -> Vec<Cube> {
            (0..count)
                .map(|_| {
                    let (mut mask, mut value) = (0u64, 0u64);
                    for _ in 0..2 + next() % 2 {
                        let var = next() % n as u64;
                        mask |= 1 << var;
                        value = value & !(1 << var) | (next() & 1) << var;
                    }
                    Cube::from_masks(n, mask, value).unwrap()
                })
                .collect()
        };
        let on = TruthTable::from_cubes(n, &cubes(8));
        let dc = TruthTable::from_cubes(n, &cubes(2)).difference(&on);
        Isf::new(on, dc).unwrap()
    }

    /// Every prime implicant of `on ∪ dc`, from all 3^n cubes.
    fn primes(f: &Isf) -> Vec<Cube> {
        let n = f.num_vars();
        let care = f.max_completion();
        let implicant = |c: &Cube| TruthTable::from_cubes(n, &[*c]).is_subset_of(&care);
        let mut primes = Vec::new();
        for mask in 0..1u64 << n {
            // Every `value ⊆ mask`, by the subset walk.
            let mut value = 0u64;
            loop {
                let cube = Cube::from_masks(n, mask, value).unwrap();
                let raised = (0..n).filter(|&v| mask >> v & 1 == 1);
                if implicant(&cube)
                    && raised
                        .map(|v| cube.with_value(v, CubeValue::DontCare))
                        .all(|c| !implicant(&c))
                {
                    primes.push(cube);
                }
                if value == mask {
                    break;
                }
                value = value.wrapping_sub(mask) & mask;
            }
        }
        primes
    }

    /// Is `primes[i]` essential: does one of its on-minterms lie in no
    /// other prime?
    fn essential(f: &Isf, primes: &[Cube], i: usize) -> bool {
        (0..1u64 << f.num_vars()).any(|m| {
            f.on().get(m)
                && primes[i].contains_minterm(m)
                && primes.iter().enumerate().all(|(j, p)| j == i || !p.contains_minterm(m))
        })
    }

    /// The witness test against brute-force essentiality on every prime of
    /// random ISFs on up to 6 inputs, and the exit's verdict on the first
    /// IRREDUNDANT cover against "every cube essential".
    fn check_witness_is_essentiality(rounds: usize) {
        let mut next = lcg(0xE55E_0001);
        let grid = [(10, 0), (30, 20), (50, 10), (20, 60), (70, 0), (45, 45), (85, 10)];
        let (mut counts, mut exits) = ([0usize; 2], [0usize; 2]);
        for n in 1..=6 {
            for round in 0..rounds {
                let (on_pct, dc_pct) = grid[(n + round) % grid.len()];
                let on = TruthTable::from_fn(n, |_| next() % 100 < on_pct);
                let dc = TruthTable::from_fn(n, |_| next() % 100 < dc_pct).difference(&on);
                let f = Isf::new(on, dc).unwrap();
                if f.on().is_zero() || f.off().is_zero() {
                    continue;
                }
                let what = format!("n={n} on={on_pct}% dc={dc_pct}% #{round}");
                let mut tables = Tables::new(&f);
                let primes = primes(&f);
                let verdicts: Vec<bool> =
                    (0..primes.len()).map(|i| essential(&f, &primes, i)).collect();
                for (prime, &essential) in primes.iter().zip(&verdicts) {
                    let witness = tables.has_witness(f.on().as_words(), prime);
                    assert_eq!(witness, essential, "{what}: prime {prime}");
                    counts[usize::from(essential)] += 1;
                }
                let first = tables.expand_minterms(f.on());
                let first = tables.irredundant(&first);
                let all =
                    first.iter().all(|c| verdicts[primes.iter().position(|p| p == c).unwrap()]);
                assert_eq!(tables.all_essential(f.on(), &first), all, "{what}: cover {first}");
                exits[usize::from(all)] += 1;
            }
        }
        // Both verdicts occur, for single primes and for whole covers.
        assert!(counts.iter().chain(&exits).all(|&c| c >= rounds), "{counts:?} {exits:?}");
    }

    #[test]
    fn witness_is_brute_force_essentiality() {
        check_witness_is_essentiality(30);
    }

    /// The nightly variant: ten times the rounds per arity.
    #[test]
    #[ignore = "nightly: run with --release --ignored"]
    fn witness_is_brute_force_essentiality_deep() {
        check_witness_is_essentiality(300);
    }

    /// On cold-shaped ISFs (9–12 inputs, `rounds` per arity) the
    /// every-cube-essential exit fires in at least a third of the runs, and
    /// the covers, exits taken or not, equal the cube-list oracle's.
    fn check_essential_exit_on_cold_isfs(rounds: usize) {
        let mut next = lcg(0xC01D);
        let (mut fired, mut runs) = (0, 0);
        for n in 9..=12 {
            for round in 0..rounds {
                let f = cold_isf(&mut next, n);
                let what = format!("n={n} cold #{round}");
                assert_matches_oracle(&f, &what);
                let mut tables = Tables::new(&f);
                if tables.off.iter().any(|&w| w != 0) {
                    let first = tables.expand_minterms(f.on());
                    let first = tables.irredundant(&first);
                    fired += usize::from(tables.all_essential(f.on(), &first));
                }
                runs += 1;
            }
        }
        assert!(3 * fired >= runs, "the exit fired in {fired} of {runs} runs");
    }

    #[test]
    fn essential_exit_fires_on_cold_isfs() {
        check_essential_exit_on_cold_isfs(12);
    }

    /// The nightly variant: ten times the rounds per arity.
    #[test]
    #[ignore = "nightly: run with --release --ignored"]
    fn essential_exit_fires_on_cold_isfs_deep() {
        check_essential_exit_on_cold_isfs(120);
    }

    /// The count of minterm `m` in `counts`, read off its planes.
    fn count_of(counts: &Counts, m: usize) -> usize {
        counts
            .at(m >> 6)
            .iter()
            .enumerate()
            .map(|(p, &plane)| ((plane >> (m & 63) & 1) as usize) << p)
            .sum()
    }

    /// Adding random cubes' spans keeps every minterm's count equal to the
    /// number of cubes holding it, with `at_least_two` marking counts of two
    /// or more; subtracting them all, in another order, returns every plane
    /// to zero. Up to 40 cubes of at most two literals pile 8 or more on
    /// some minterm in most rounds, so carries and borrows ripple through
    /// four or more planes, inside one word and over multi-word spans.
    #[test]
    fn counts_track_how_many_cubes_cover_each_minterm() {
        let mut next = lcg(0x00C0_0475);
        let mut deep = 0;
        for n in 1..=12 {
            let f = Isf::completely_specified(TruthTable::zero(n));
            let mut tables = Tables::new(&f);
            for round in 0..6 {
                let cubes: Vec<Cube> = (0..1 + next() % 40)
                    .map(|_| {
                        let mask = (1u64 << (next() % n as u64)) | (1 << (next() % n as u64));
                        Cube::from_masks(n, mask & (next() | next()), next()).unwrap()
                    })
                    .collect();
                let what = format!("n={n} #{round}, {} cubes", cubes.len());
                let spans = tables.count(&cubes);
                let counts = &tables.counts;
                let mut most = 0;
                for m in 0..1usize << n {
                    let expected = cubes.iter().filter(|c| c.contains_minterm(m as u64)).count();
                    most = most.max(expected);
                    assert_eq!(count_of(counts, m), expected, "{what}: minterm {m}");
                    let two = counts.at_least_two(m >> 6) >> (m & 63) & 1 == 1;
                    assert_eq!(two, expected >= 2, "{what}: minterm {m}");
                }
                deep += usize::from(most >= 8);
                for &span in spans.iter().rev() {
                    tables.counts.sub(span);
                }
                assert!(tables.counts.planes.iter().all(|&p| p == 0), "{what}: left over");
            }
        }
        assert!(deep >= 36, "only {deep} of 72 rounds put 8 or more cubes on a minterm");
    }

    /// ISFs whose covers pile many cubes on one minterm: the on-set is the
    /// minterms of weight `t` or more (each `t` positive literals are a
    /// prime through the all-ones minterm) with a few holes punched out,
    /// and some dc sprinkled over the rest.
    fn crowded_isf(next: &mut impl FnMut() -> u64, n: usize) -> Isf {
        let t = 1 + next() as u32 % 3;
        let on = TruthTable::from_fn(n, |m| m.count_ones() >= t && next() % 100 >= 6);
        let dc = TruthTable::from_fn(n, |_| next() % 100 < 12).difference(&on);
        Isf::new(on, dc).unwrap()
    }

    /// Covers whose counts need four or more planes (eight or more cubes on
    /// one minterm of the first EXPAND cover) match the cube-list oracle,
    /// under both option shapes, on 1–12 inputs: the in-word `valid` mask
    /// below 6 inputs, multi-word spans above. The REDUCE loop, which swaps
    /// cubes in and out of the counts, is reached in some of the runs.
    #[test]
    fn crowded_covers_match_the_cube_list_oracle() {
        let mut next = lcg(0x000C_20D5);
        let (mut deep, mut looped) = (0, 0);
        for n in 1..=12 {
            let trials = if n <= 9 { 8 } else { 3 };
            for trial in 0..trials {
                let f = crowded_isf(&mut next, n);
                assert_matches_oracle(&f, &format!("n={n} crowded #{trial}"));
                let mut tables = Tables::new(&f);
                if f.on().is_zero() || tables.off.iter().all(|&w| w == 0) {
                    continue;
                }
                let first = tables.expand_minterms(f.on());
                let most = (0..1u64 << n)
                    .map(|m| first.iter().filter(|c| c.contains_minterm(m)).count())
                    .max()
                    .unwrap_or(0);
                deep += usize::from(most >= 8);
                let first = tables.irredundant(&first);
                looped += usize::from(!tables.all_essential(f.on(), &first));
            }
        }
        assert!(deep >= 24 && looped >= 24, "{deep} deep covers, {looped} reaching REDUCE");
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
