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
