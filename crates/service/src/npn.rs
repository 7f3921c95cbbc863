//! NPN canonicalization of truth tables and ISFs.
//!
//! Two functions are *NPN-equivalent* if one can be obtained from the other
//! by permuting inputs (P), complementing inputs (N) and complementing the
//! output (the leading N). The full quotient, divisor validity and the
//! recursive synthesizer's subproblems are all equivariant under these
//! transforms, so a result computed for one member of an NPN class answers
//! every member — which is what makes an NPN-keyed cache so much more
//! effective than an exact-key one: a synthesis workload keeps meeting the
//! same few subfunctions wearing different variable orders and polarities.
//!
//! [`canonicalize`] maps an [`Isf`] to a [`Canonical`]: a [`CanonicalKey`]
//! (the class representative's raw words — the cache key) plus the
//! [`NpnTransform`] that maps the queried function onto the representative,
//! which is exactly what a cache needs to map a stored answer back
//! ([`NpnTransform::inverse`] + the `permute_*` methods).
//!
//! Two search strategies, picked by arity:
//!
//! * **Exact, `n ≤ MAX_EXACT_VARS`:** the whole transform group
//!   (`2 · 2^n · n!` candidates) is enumerated on `u64`-packed tables.
//!   Permutations advance through Heap's algorithm, so each step is a single
//!   adjacent *delta swap* (a masked shift pair) on the packed words, and
//!   input negations are block swaps — the entire search is word-parallel
//!   and touches no per-minterm loop.
//! * **Greedy, larger `n`:** output and input polarities are fixed by
//!   cofactor weights and variables are ordered by signature vectors; every
//!   tie forks the candidate set (capped at [`CANDIDATE_CAP`]) and the
//!   lexicographically smallest materialized encoding wins. Because the
//!   candidate set is built from equivariant statistics, all members of an
//!   NPN class that stay under the cap canonicalize to the same key; a
//!   capped search is still *sound* (the key is always reached through a
//!   real transform), it can only cost cache hits. Candidates are
//!   materialized on the packed words too: input negations are block or
//!   word swaps, the permutation at most `n − 1` variable transpositions.
//!
//! Every transform keeps a per-minterm oracle
//! ([`NpnTransform::permute_table_per_minterm`],
//! [`NpnTransform::apply_isf_per_minterm`], [`canonicalize_per_minterm`])
//! that the word-parallel paths are tested against bit for bit.

use std::cmp::Ordering;

use boolfunc::{Isf, TruthTable};

use bidecomp::BinaryOp;
use techmap::{Network, NodeKind};

/// Largest arity canonicalized by exhaustive search (the `2·2^n·n!`
/// candidate walk is ~92k word ops at 6 variables — microseconds).
pub const MAX_EXACT_VARS: usize = 6;

/// Cap on the number of materialized candidates of the greedy search; ties
/// beyond it are cut off (sound, but may miss hits for pathologically
/// symmetric functions).
pub const CANDIDATE_CAP: usize = 256;

/// An NPN transform: input negation, then input permutation, then optional
/// output complementation.
///
/// Semantics (`n = perm.len()` variables): the image `t = self.apply_isf(f)`
/// satisfies `t(m') = f(m)` (with on/off swapped when `output_neg`), where
/// bit `perm[i]` of `m'` equals bit `i` of `m` XOR bit `i` of `input_neg` —
/// original variable `i`, complemented when its negation bit is set, becomes
/// image variable `perm[i]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NpnTransform {
    perm: Vec<u8>,
    input_neg: u32,
    output_neg: bool,
}

impl NpnTransform {
    /// The identity transform over `n` variables.
    pub fn identity(n: usize) -> Self {
        NpnTransform { perm: (0..n as u8).collect(), input_neg: 0, output_neg: false }
    }

    /// Builds a transform from its parts.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..n` for `n = perm.len()`,
    /// or if `input_neg` has bits at or above `n`.
    pub fn new(perm: Vec<u8>, input_neg: u32, output_neg: bool) -> Self {
        let n = perm.len();
        assert!(n <= 32, "NPN transforms address variables with u32 masks");
        let mut seen = 0u32;
        for &p in &perm {
            assert!((p as usize) < n, "permutation entry {p} out of range");
            seen |= 1 << p;
        }
        assert_eq!(seen.count_ones() as usize, n, "perm is not a permutation");
        assert_eq!(input_neg >> n, 0, "input_neg has bits beyond the arity");
        NpnTransform { perm, input_neg, output_neg }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.perm.len()
    }

    /// `true` if the transform complements the output.
    pub fn output_negated(&self) -> bool {
        self.output_neg
    }

    /// The inverse transform: `t.inverse().apply_isf(&t.apply_isf(f)) == f`.
    pub fn inverse(&self) -> NpnTransform {
        let n = self.num_vars();
        let mut perm = vec![0u8; n];
        let mut input_neg = 0u32;
        for i in 0..n {
            let j = self.perm[i] as usize;
            perm[j] = i as u8;
            if self.input_neg >> i & 1 == 1 {
                input_neg |= 1 << j;
            }
        }
        NpnTransform { perm, input_neg, output_neg: self.output_neg }
    }

    /// The image of minterm `m` under the input part of the transform.
    pub fn permute_minterm(&self, m: u64) -> u64 {
        let mut out = 0u64;
        for (i, &p) in self.perm.iter().enumerate() {
            let bit = (m >> i ^ u64::from(self.input_neg >> i)) & 1;
            out |= bit << p;
        }
        out
    }

    /// Applies the *input* part of the transform (permutation + input
    /// negations, no output complementation) to a completely specified
    /// table. This is the map applied to divisors and quotients riding along
    /// with a canonicalized dividend: the output complementation of `f` is
    /// absorbed by complementing the operator ([`NpnTransform::map_op`]),
    /// never by touching `g` or `h`.
    ///
    /// Word-parallel (block swaps, delta swaps and word swaps on the packed
    /// table); bit-identical to the per-minterm
    /// [`NpnTransform::permute_table_per_minterm`].
    pub fn permute_table(&self, t: &TruthTable) -> TruthTable {
        assert_eq!(t.num_vars(), self.num_vars(), "transform arity mismatch");
        let mut words = t.as_words().to_vec();
        self.permute_words(&mut words);
        let mut next = words.into_iter();
        TruthTable::from_words(t.num_vars(), || next.next().expect("one word per word"))
    }

    /// The per-minterm oracle of [`NpnTransform::permute_table`]: moves one
    /// on-set minterm at a time through [`NpnTransform::permute_minterm`].
    pub fn permute_table_per_minterm(&self, t: &TruthTable) -> TruthTable {
        assert_eq!(t.num_vars(), self.num_vars(), "transform arity mismatch");
        let mut out = TruthTable::zero(t.num_vars());
        for m in t.ones() {
            out.set(self.permute_minterm(m), true);
        }
        out
    }

    /// Applies the input part of the transform in place to the packed words
    /// of a table over `self.num_vars()` variables: each input negation is
    /// a block swap inside every word (variables 0–5) or a swap of word
    /// pairs (variables 6 and up), and the permutation is at most `n − 1`
    /// variable transpositions — a delta swap when both variables are
    /// in-word, word swaps when both are 6 or up, and a masked shift
    /// between word pairs in the mixed case.
    fn permute_words(&self, words: &mut [u64]) {
        let n = self.num_vars();
        for i in (0..n).filter(|&i| self.input_neg >> i & 1 == 1) {
            negate_var(words, i);
        }
        // `at[p]` is the original variable now at position `p`, `pos` its
        // inverse. Each step moves one variable to its final position
        // `perm[v]`; positions already settled are never touched again.
        let mut at: [u8; 32] = std::array::from_fn(|p| p as u8);
        let mut pos = at;
        for v in 0..n {
            let (p, q) = (self.perm[v] as usize, pos[v] as usize);
            if p != q {
                swap_vars(words, p.min(q), p.max(q));
                let u = at[p];
                (at[q], pos[u as usize]) = (u, q as u8);
                (at[p], pos[v]) = (v as u8, p as u8);
            }
        }
    }

    /// Applies the input part of the transform to both sets of an ISF (used
    /// to move quotients between the original and canonical spaces; see
    /// [`NpnTransform::permute_table`] for why the output flag is ignored).
    pub fn permute_isf(&self, f: &Isf) -> Isf {
        Isf::new(self.permute_table(f.on()), self.permute_table(f.dc()))
            .expect("permuting disjoint sets keeps them disjoint")
    }

    /// Applies the full transform to an ISF: input permutation and
    /// negations, plus — when `output_neg` — swapping the on- and off-sets
    /// (the dc-set is polarity-free and is only permuted).
    pub fn apply_isf(&self, f: &Isf) -> Isf {
        let base_on = if self.output_neg { f.off() } else { f.on().clone() };
        Isf::new(self.permute_table(&base_on), self.permute_table(f.dc()))
            .expect("transformed sets stay disjoint")
    }

    /// The per-minterm oracle of [`NpnTransform::apply_isf`].
    pub fn apply_isf_per_minterm(&self, f: &Isf) -> Isf {
        let base_on = if self.output_neg { f.off() } else { f.on().clone() };
        Isf::new(self.permute_table_per_minterm(&base_on), self.permute_table_per_minterm(f.dc()))
            .expect("transformed sets stay disjoint")
    }

    /// The operator a quotient problem uses in the image space: complemented
    /// when the transform complements the dividend (`¬f = g op' h ⇔ f = g op
    /// h` with `op' = op.complement()`), unchanged otherwise.
    pub fn map_op(&self, op: BinaryOp) -> BinaryOp {
        if self.output_neg {
            op.complement()
        } else {
            op
        }
    }

    /// Rewires a single-output [`Network`] realizing `φ` into one realizing
    /// `self.apply(φ)` over the same number of inputs: original input `i` is
    /// re-read from image input `perm[i]` (inverted when negated), and the
    /// output gains an inverter when the transform complements the output.
    /// Structural hashing and constant folding apply as usual, so double
    /// inversions introduced by round-tripping cancel.
    ///
    /// # Panics
    ///
    /// Panics if the network arity differs from the transform's or the
    /// network does not have exactly one output.
    pub fn rewire_network(&self, net: &Network) -> Network {
        assert_eq!(net.num_inputs(), self.num_vars(), "network arity mismatch");
        assert_eq!(net.outputs().len(), 1, "rewiring expects a single-output network");
        let mut out = Network::new(net.num_inputs());
        let mut map = Vec::with_capacity(net.num_nodes());
        for node in net.node_ids() {
            let id = match net.kind(node) {
                NodeKind::Input(var) => {
                    let node = out.input(self.perm[var] as usize);
                    if self.input_neg >> var & 1 == 1 {
                        out.not(node)
                    } else {
                        node
                    }
                }
                NodeKind::Const(v) => out.constant(v),
                NodeKind::Not(a) => out.not(map[a.index()]),
                NodeKind::And(a, b) => out.and(map[a.index()], map[b.index()]),
                NodeKind::Or(a, b) => out.or(map[a.index()], map[b.index()]),
                NodeKind::Xor(a, b) => out.xor(map[a.index()], map[b.index()]),
            };
            map.push(id);
        }
        let mut root = map[net.outputs()[0].index()];
        if self.output_neg {
            root = out.not(root);
        }
        out.add_output(root);
        // Folded-away double negations (a round trip re-inverts every
        // relabeled input) leave dead nodes behind; prune so gate counts
        // and the mapper see only live logic.
        out.pruned()
    }
}

/// The canonical representative of an NPN class: the raw words of its
/// on- and dc-set, plus the arity. Everything a sharded map needs — `Eq`,
/// `Hash`, cheap clone — and nothing else.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalKey {
    num_vars: u8,
    words: Box<[u64]>,
}

impl CanonicalKey {
    fn from_isf(f: &Isf) -> Self {
        let mut words: Vec<u64> =
            Vec::with_capacity(f.on().as_words().len() + f.dc().as_words().len());
        words.extend_from_slice(f.on().as_words());
        words.extend_from_slice(f.dc().as_words());
        CanonicalKey { num_vars: f.num_vars() as u8, words: words.into_boxed_slice() }
    }

    /// Number of variables of the canonicalized function.
    pub fn num_vars(&self) -> usize {
        self.num_vars as usize
    }

    /// The raw encoding (on-set words followed by dc-set words).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// The result of [`canonicalize`]: the class key and the transform mapping
/// the queried function onto the representative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Canonical {
    /// Cache key: the representative's raw words.
    pub key: CanonicalKey,
    /// Maps the queried ISF onto the representative
    /// (`transform.apply_isf(&f)` has exactly `key`'s words).
    pub transform: NpnTransform,
}

/// Canonicalizes an ISF over its NPN class (exact up to
/// [`MAX_EXACT_VARS`] variables, greedy signature-based above — see the
/// [module docs](self)).
///
/// ```rust
/// use boolfunc::Isf;
/// use service::npn::canonicalize;
///
/// # fn main() -> Result<(), boolfunc::BoolFuncError> {
/// let f = Isf::from_cover_str(3, &["11-"], &[])?;   // x0 x1
/// let g = Isf::from_cover_str(3, &["-01"], &[])?;   // x2 x1'
/// let (cf, cg) = (canonicalize(&f), canonicalize(&g));
/// assert_eq!(cf.key, cg.key, "NPN-equivalent functions share a key");
/// assert_eq!(cf.transform.apply_isf(&f), cg.transform.apply_isf(&g));
/// # Ok(())
/// # }
/// ```
pub fn canonicalize(f: &Isf) -> Canonical {
    if f.num_vars() <= MAX_EXACT_VARS {
        let transform = exact_transform(f);
        Canonical { key: CanonicalKey::from_isf(&transform.apply_isf(f)), transform }
    } else {
        greedy_winner(f)
    }
}

/// The per-minterm oracle of [`canonicalize`]: the same search, but every
/// candidate image is materialized by [`NpnTransform::apply_isf_per_minterm`].
/// Returns a bit-identical [`Canonical`] (key and transform).
pub fn canonicalize_per_minterm(f: &Isf) -> Canonical {
    let transform = if f.num_vars() <= MAX_EXACT_VARS {
        exact_transform(f)
    } else {
        // `min_by` keeps the first of equal images, as `greedy_winner` does.
        greedy_candidates(f)
            .into_iter()
            .map(|t| (t.apply_isf_per_minterm(f), t))
            .min_by(|(a, _), (b, _)| {
                (a.on().as_words(), a.dc().as_words()).cmp(&(b.on().as_words(), b.dc().as_words()))
            })
            .expect("at least one candidate is always generated")
            .1
    };
    Canonical { key: CanonicalKey::from_isf(&transform.apply_isf_per_minterm(f)), transform }
}

// --- exact search on u64-packed tables -----------------------------------

/// Positions whose index has variable `i` clear — the static halves of the
/// block swap that negates variable `i` in a packed table.
const fn neg_mask(i: usize) -> u64 {
    let mut mask = 0u64;
    let mut idx = 0;
    while idx < 64 {
        if (idx >> i) & 1 == 0 {
            mask |= 1 << idx;
        }
        idx += 1;
    }
    mask
}

/// Positions whose index has variable `i` set and variable `j` clear — the
/// moving side of the delta swap exchanging variables `i < j`.
const fn swap_mask(i: usize, j: usize) -> u64 {
    let mut mask = 0u64;
    let mut idx = 0;
    while idx < 64 {
        if (idx >> i) & 1 == 1 && (idx >> j) & 1 == 0 {
            mask |= 1 << idx;
        }
        idx += 1;
    }
    mask
}

const NEG_MASKS: [u64; 6] =
    [neg_mask(0), neg_mask(1), neg_mask(2), neg_mask(3), neg_mask(4), neg_mask(5)];

const fn swap_masks() -> [[u64; 6]; 6] {
    let mut table = [[0u64; 6]; 6];
    let mut i = 0;
    while i < 6 {
        let mut j = i + 1;
        while j < 6 {
            table[i][j] = swap_mask(i, j);
            j += 1;
        }
        i += 1;
    }
    table
}

const SWAP_MASKS: [[u64; 6]; 6] = swap_masks();

/// Complements variable `i` of a packed table (`i < 6`): swaps the two
/// cofactor block sets with one masked shift pair.
#[inline]
fn neg_var_packed(t: u64, i: usize) -> u64 {
    let s = 1u32 << i;
    let m = NEG_MASKS[i];
    ((t >> s) & m) | ((t & m) << s)
}

/// Exchanges variables `i < j` of a packed table: the classic delta swap.
#[inline]
fn swap_vars_packed(t: u64, i: usize, j: usize) -> u64 {
    debug_assert!(i < j && j < 6);
    let d = (1u32 << j) - (1u32 << i);
    let m = SWAP_MASKS[i][j];
    let x = (t ^ (t >> d)) & m;
    t ^ x ^ (x << d)
}

/// Complements variable `i` of a multi-word table: a block swap inside
/// every word for `i < 6`, else a swap of the word pairs `i` selects.
fn negate_var(words: &mut [u64], i: usize) {
    if i < 6 {
        for w in words.iter_mut() {
            *w = neg_var_packed(*w, i);
        }
    } else {
        let bit = 1 << (i - 6);
        for k in (0..words.len()).filter(|k| k & bit == 0) {
            words.swap(k, k | bit);
        }
    }
}

/// Exchanges variables `i < j` of a multi-word table: a delta swap inside
/// every word when both are in-word, word swaps when both are 6 or up, and
/// in the mixed case a masked shift between the word pairs `j` selects
/// (the `x_i = 1, x_j = 0` half of the low word trades places with the
/// `x_i = 0, x_j = 1` half of the high word).
fn swap_vars(words: &mut [u64], i: usize, j: usize) {
    debug_assert!(i < j);
    if j < 6 {
        for w in words.iter_mut() {
            *w = swap_vars_packed(*w, i, j);
        }
    } else if i >= 6 {
        let (a, b) = (1 << (i - 6), 1 << (j - 6));
        for k in (0..words.len()).filter(|k| k & a != 0 && k & b == 0) {
            words.swap(k, k ^ a ^ b);
        }
    } else {
        let (s, low, b) = (1u32 << i, NEG_MASKS[i], 1 << (j - 6));
        for k in (0..words.len()).filter(|k| k & b == 0) {
            let (lo, hi) = (words[k], words[k | b]);
            words[k] = (lo & low) | ((hi & low) << s);
            words[k | b] = (hi & !low) | ((lo & !low) >> s);
        }
    }
}

/// One packed candidate: `(on, dc)` words, compared lexicographically.
type Packed = (u64, u64);

fn exact_transform(f: &Isf) -> NpnTransform {
    let n = f.num_vars();
    let on0 = f.on().as_words()[0];
    let dc0 = f.dc().as_words()[0];
    let full = f.on().tail_mask();
    let off0 = !(on0 | dc0) & full;

    let mut best: Option<(Packed, NpnTransform)> = None;
    for output_neg in [false, true] {
        let base_on = if output_neg { off0 } else { on0 };
        for input_neg in 0..(1u32 << n) {
            let mut on = base_on;
            let mut dc = dc0;
            for i in 0..n {
                if input_neg >> i & 1 == 1 {
                    on = neg_var_packed(on, i);
                    dc = neg_var_packed(dc, i);
                }
            }
            // Heap's algorithm: each step is one adjacent transposition of
            // the current position labels, applied as a delta swap.
            let mut labels: [u8; MAX_EXACT_VARS] = [0, 1, 2, 3, 4, 5];
            let mut counters = [0usize; MAX_EXACT_VARS];
            let mut consider = |on: u64, dc: u64, labels: &[u8]| {
                let candidate = (on, dc);
                if best.as_ref().is_none_or(|(b, _)| candidate < *b) {
                    // labels[p] = original variable now at position p, so
                    // perm[labels[p]] = p.
                    let mut perm = vec![0u8; n];
                    for (p, &orig) in labels.iter().take(n).enumerate() {
                        perm[orig as usize] = p as u8;
                    }
                    best = Some((
                        candidate,
                        NpnTransform { perm, input_neg: input_neg & ((1 << n) - 1), output_neg },
                    ));
                }
            };
            consider(on, dc, &labels);
            let mut i = 0;
            while i < n {
                if counters[i] < i {
                    let a = if i % 2 == 0 { 0 } else { counters[i] };
                    let (lo, hi) = (a.min(i), a.max(i));
                    on = swap_vars_packed(on, lo, hi);
                    dc = swap_vars_packed(dc, lo, hi);
                    labels.swap(lo, hi);
                    consider(on, dc, &labels);
                    counters[i] += 1;
                    i = 0;
                } else {
                    counters[i] = 0;
                    i += 1;
                }
            }
        }
    }

    best.expect("the transform group is never empty").1
}

// --- greedy signature search above MAX_EXACT_VARS -------------------------

/// `|t ∩ (x_var = 1)|`, word-parallel.
fn cofactor_weight(t: &TruthTable, var: usize) -> u64 {
    let words = t.as_words();
    if var < 6 {
        let mask = !NEG_MASKS[var];
        words.iter().map(|w| (w & mask).count_ones() as u64).sum()
    } else {
        let stride = var - 6;
        words
            .iter()
            .enumerate()
            .filter(|(k, _)| k >> stride & 1 == 1)
            .map(|(_, w)| w.count_ones() as u64)
            .sum()
    }
}

/// The candidate polarity/order skeletons of the greedy search. Every
/// decision is made from equivariant statistics (cofactor weights), and
/// every tie *forks* instead of guessing, so the candidate set — and hence
/// the winning key — is the same for every member of the NPN class (until
/// [`CANDIDATE_CAP`] truncates a pathologically symmetric function).
fn greedy_candidates(f: &Isf) -> Vec<NpnTransform> {
    let n = f.num_vars();
    let on_count = f.on().count_ones();
    let off_count = f.num_minterms_off();
    let output_candidates: &[bool] = match on_count.cmp(&off_count) {
        Ordering::Less => &[false],
        Ordering::Greater => &[true],
        Ordering::Equal => &[false, true],
    };

    let mut transforms: Vec<NpnTransform> = Vec::new();
    for &output_neg in output_candidates {
        // Work on the polarity-adjusted base: the on-set the image will use.
        let base_on = if output_neg { f.off() } else { f.on().clone() };
        let dc = f.dc();
        let total_on = base_on.count_ones();
        let total_dc = dc.count_ones();

        // Input polarities: prefer the lighter on-cofactor at x_i = 1,
        // refine with the dc-cofactor, fork on a full tie.
        let mut neg_choices: Vec<u32> = vec![0];
        let mut weights: Vec<(u64, u64)> = Vec::with_capacity(n);
        for i in 0..n {
            let on1 = cofactor_weight(&base_on, i);
            let on0 = total_on - on1;
            let dc1 = cofactor_weight(dc, i);
            let dc0 = total_dc - dc1;
            let flip = match (on1, dc1).cmp(&(on0, dc0)) {
                Ordering::Less => Some(false),
                Ordering::Greater => Some(true),
                Ordering::Equal => None, // fork below
            };
            match flip {
                Some(true) => {
                    for neg in &mut neg_choices {
                        *neg |= 1 << i;
                    }
                    weights.push((on0, dc0));
                }
                Some(false) => weights.push((on1, dc1)),
                None => {
                    if neg_choices.len() * 2 <= CANDIDATE_CAP {
                        let forked: Vec<u32> = neg_choices.iter().map(|neg| neg | 1 << i).collect();
                        neg_choices.extend(forked);
                    }
                    weights.push((on1, dc1));
                }
            }
        }

        // Variable order: ascending by (on-weight, dc-weight); equal
        // signatures form blocks whose internal orders all fork.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| weights[i]);
        let mut blocks: Vec<Vec<usize>> = Vec::new();
        for &var in &order {
            match blocks.last_mut() {
                Some(block) if weights[block[0]] == weights[var] => block.push(var),
                _ => blocks.push(vec![var]),
            }
        }
        let mut orders: Vec<Vec<usize>> = vec![Vec::with_capacity(n)];
        for block in &blocks {
            let arrangements = permutations(block, CANDIDATE_CAP);
            let mut next = Vec::with_capacity(orders.len() * arrangements.len());
            for prefix in &orders {
                for arrangement in &arrangements {
                    if next.len() >= CANDIDATE_CAP {
                        break;
                    }
                    let mut extended = prefix.clone();
                    extended.extend_from_slice(arrangement);
                    next.push(extended);
                }
            }
            orders = next;
        }

        for neg in &neg_choices {
            for order in &orders {
                if transforms.len() >= CANDIDATE_CAP {
                    break;
                }
                // order[p] = original variable at image position p.
                let mut perm = vec![0u8; n];
                for (p, &orig) in order.iter().enumerate() {
                    perm[orig] = p as u8;
                }
                transforms.push(NpnTransform { perm, input_neg: *neg, output_neg });
            }
        }
    }

    transforms
}

/// The greedy search's winner: the first candidate whose image `(on, dc)`
/// words are lexicographically smallest. The polarity-adjusted base tables
/// are built once; each candidate permutes copies of them in two reused
/// buffers, and its dc-set is only permuted when its on-set does not
/// already lose.
fn greedy_winner(f: &Isf) -> Canonical {
    let off = f.off();
    let base_on = |t: &NpnTransform| if t.output_neg { off.as_words() } else { f.on().as_words() };
    let len = off.as_words().len();
    let (mut on, mut dc) = (vec![0u64; len], vec![0u64; len]);
    let (mut best_on, mut best_dc) = (vec![0u64; len], vec![0u64; len]);
    let mut best: Option<NpnTransform> = None;
    for transform in greedy_candidates(f) {
        on.copy_from_slice(base_on(&transform));
        transform.permute_words(&mut on);
        let order = if best.is_some() { on.cmp(&best_on) } else { Ordering::Less };
        if order == Ordering::Greater {
            continue;
        }
        dc.copy_from_slice(f.dc().as_words());
        transform.permute_words(&mut dc);
        if order == Ordering::Less || dc < best_dc {
            std::mem::swap(&mut on, &mut best_on);
            std::mem::swap(&mut dc, &mut best_dc);
            best = Some(transform);
        }
    }
    best_on.extend_from_slice(&best_dc);
    Canonical {
        key: CanonicalKey { num_vars: f.num_vars() as u8, words: best_on.into_boxed_slice() },
        transform: best.expect("at least one candidate is always generated"),
    }
}

/// The first `limit` orderings of `items` (the tie-block enumerator) in
/// lexicographic order of their positions in `items`: each head in turn,
/// then the orderings of the rest. The caller uses at most
/// [`CANDIDATE_CAP`] of them, so a block of `k` tied variables costs at
/// most that many orderings instead of `k!`.
fn permutations(items: &[usize], limit: usize) -> Vec<Vec<usize>> {
    let mut index: Vec<usize> = (0..items.len()).collect();
    let mut out = Vec::new();
    loop {
        out.push(index.iter().map(|&i| items[i]).collect());
        // Step `index` to its lexicographic successor, if any.
        let Some(p) = (1..index.len()).rev().find(|&p| index[p - 1] < index[p]) else {
            break;
        };
        if out.len() >= limit {
            break;
        }
        let q = (p..index.len()).rev().find(|&q| index[q] > index[p - 1]).expect("index[p] is");
        index.swap(p - 1, q);
        index[p..].reverse();
    }
    out
}

/// Extension trait-free helper: `|off|` of an ISF without materializing it.
trait OffCount {
    fn num_minterms_off(&self) -> u64;
}

impl OffCount for Isf {
    fn num_minterms_off(&self) -> u64 {
        (1u64 << self.num_vars()) - self.on().count_ones() - self.dc().count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchmarks::DetRng;

    fn random_isf(rng: &mut DetRng, n: usize, with_dc: bool) -> Isf {
        let on = TruthTable::from_words(n, || rng.next_u64());
        let dc = if with_dc {
            let mask = TruthTable::from_words(n, || rng.next_u64() & rng.next_u64());
            mask.difference(&on)
        } else {
            TruthTable::zero(n)
        };
        Isf::new(on, dc).unwrap()
    }

    fn random_transform(rng: &mut DetRng, n: usize) -> NpnTransform {
        let mut perm: Vec<u8> = (0..n as u8).collect();
        for i in (1..n).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        NpnTransform::new(perm, (rng.next_u64() as u32) & ((1 << n) - 1), rng.next_u64() & 1 == 1)
    }

    #[test]
    fn transform_round_trips_through_its_inverse() {
        let mut rng = DetRng::seed_from_u64(0xA11CE);
        for n in [3usize, 5, 7, 9] {
            for _ in 0..8 {
                let f = random_isf(&mut rng, n, true);
                let t = random_transform(&mut rng, n);
                assert_eq!(t.inverse().apply_isf(&t.apply_isf(&f)), f, "n={n}");
                assert_eq!(
                    t.inverse().permute_isf(&t.permute_isf(&f)),
                    f,
                    "n={n}: input-only round trip"
                );
            }
        }
    }

    #[test]
    fn packed_primitives_match_the_generic_transform() {
        let mut rng = DetRng::seed_from_u64(0xBEE);
        for n in [3usize, 4, 6] {
            for _ in 0..6 {
                let f = random_isf(&mut rng, n, false);
                let t0 = f.on().as_words()[0];
                for i in 0..n {
                    let mut neg = NpnTransform::identity(n);
                    neg.input_neg = 1 << i;
                    assert_eq!(
                        neg_var_packed(t0, i),
                        neg.permute_table_per_minterm(f.on()).as_words()[0],
                        "n={n} negate x{i}"
                    );
                }
                for i in 0..n {
                    for j in i + 1..n {
                        let mut perm: Vec<u8> = (0..n as u8).collect();
                        perm.swap(i, j);
                        let swap = NpnTransform::new(perm, 0, false);
                        assert_eq!(
                            swap_vars_packed(t0, i, j),
                            swap.permute_table_per_minterm(f.on()).as_words()[0],
                            "n={n} swap x{i} x{j}"
                        );
                    }
                }
            }
        }
    }

    /// A `service-cold`-style function: eight on-cubes and two dc-cubes of
    /// two or three literals each (many equal cofactor weights, so the
    /// greedy search forks).
    fn cube_isf(rng: &mut DetRng, n: usize) -> Isf {
        let cube = |rng: &mut DetRng| {
            let mut chars = vec!['-'; n];
            for _ in 0..2 + rng.next_u64() % 2 {
                chars[(rng.next_u64() % n as u64) as usize] =
                    if rng.next_u64() & 1 == 0 { '0' } else { '1' };
            }
            chars.into_iter().collect::<String>()
        };
        let on: Vec<String> = (0..8).map(|_| cube(rng)).collect();
        let dc: Vec<String> = (0..2).map(|_| cube(rng)).collect();
        let on: Vec<&str> = on.iter().map(String::as_str).collect();
        let dc: Vec<&str> = dc.iter().map(String::as_str).collect();
        Isf::from_cover_str(n, &on, &dc).unwrap()
    }

    #[test]
    fn word_transforms_match_the_per_minterm_oracle() {
        let mut rng = DetRng::seed_from_u64(0x00A4_C1E5);
        for n in 1..=14usize {
            for case in 0..6 {
                let f = random_isf(&mut rng, n, case % 2 == 0);
                let t = if case == 0 {
                    NpnTransform::identity(n)
                } else {
                    random_transform(&mut rng, n)
                };
                assert_eq!(
                    t.permute_table(f.on()),
                    t.permute_table_per_minterm(f.on()),
                    "n={n} {t:?}"
                );
                let permuted = Isf::new(
                    t.permute_table_per_minterm(f.on()),
                    t.permute_table_per_minterm(f.dc()),
                )
                .unwrap();
                assert_eq!(t.permute_isf(&f), permuted, "n={n} {t:?}");
                assert_eq!(t.apply_isf(&f), t.apply_isf_per_minterm(&f), "n={n} {t:?}");
            }
        }
    }

    #[test]
    fn canonicalize_matches_the_per_minterm_oracle() {
        let mut rng = DetRng::seed_from_u64(0x00C0_FFEE);
        for n in 3..=12usize {
            for case in 0..4 {
                let f = if case < 2 {
                    random_isf(&mut rng, n, case == 0)
                } else {
                    cube_isf(&mut rng, n)
                };
                assert_eq!(canonicalize(&f), canonicalize_per_minterm(&f), "n={n} case={case}");
            }
        }
    }

    /// The recursive enumeration `permutations` replaced: every ordering,
    /// each head in turn, then the orderings of the rest.
    fn all_orderings(items: &[usize]) -> Vec<Vec<usize>> {
        if items.len() <= 1 {
            return vec![items.to_vec()];
        }
        let mut out = Vec::new();
        for (i, &head) in items.iter().enumerate() {
            let mut rest = items.to_vec();
            rest.remove(i);
            for mut tail in all_orderings(&rest) {
                tail.insert(0, head);
                out.push(tail);
            }
        }
        out
    }

    #[test]
    fn permutations_list_a_prefix_of_the_full_enumeration() {
        for k in 0..=7usize {
            let items: Vec<usize> = (0..k).map(|i| (i * 5 + 3) % 11).collect();
            let all = all_orderings(&items);
            for limit in [1, 2, 5, 24, CANDIDATE_CAP, usize::MAX] {
                let expected = &all[..all.len().min(limit)];
                assert_eq!(permutations(&items, limit), expected, "k={k} limit={limit}");
            }
        }
    }

    #[test]
    fn exact_canonicalization_is_invariant_over_the_npn_class() {
        let mut rng = DetRng::seed_from_u64(0xD15C0);
        for n in [3usize, 4, 5] {
            for case in 0..6 {
                let f = random_isf(&mut rng, n, case % 2 == 0);
                let canon = canonicalize(&f);
                assert_eq!(
                    CanonicalKey::from_isf(&canon.transform.apply_isf(&f)),
                    canon.key,
                    "n={n}: the transform must reach the key"
                );
                for _ in 0..10 {
                    let t = random_transform(&mut rng, n);
                    let g = t.apply_isf(&f);
                    let canon_g = canonicalize(&g);
                    assert_eq!(canon.key, canon_g.key, "n={n} case={case}");
                }
            }
        }
    }

    #[test]
    fn greedy_canonicalization_is_invariant_for_random_functions() {
        let mut rng = DetRng::seed_from_u64(0x006E_EED5);
        for n in [7usize, 8] {
            for case in 0..4 {
                let f = random_isf(&mut rng, n, case % 2 == 0);
                let canon = canonicalize(&f);
                assert_eq!(
                    CanonicalKey::from_isf(&canon.transform.apply_isf(&f)),
                    canon.key,
                    "n={n}: the transform must reach the key"
                );
                for _ in 0..6 {
                    let t = random_transform(&mut rng, n);
                    let g = t.apply_isf(&f);
                    assert_eq!(canonicalize(&g).key, canon.key, "n={n} case={case}");
                }
            }
        }
    }

    #[test]
    fn canonical_key_distinguishes_inequivalent_functions() {
        // x0 & x1 vs x0 ⊕ x1 are not NPN-equivalent: their {|on|, |off|}
        // multisets differ ({2, 6} vs {4, 4}), which every NPN transform
        // preserves. (AND vs OR would NOT work here — De Morgan plus the
        // output complement puts them in the same class.)
        let and = Isf::from_cover_str(3, &["11-"], &[]).unwrap();
        let xor = Isf::from_cover_str(3, &["10-", "01-"], &[]).unwrap();
        assert_ne!(canonicalize(&and).key, canonicalize(&xor).key);
        // And De Morgan in action: AND and OR share a class.
        let or = Isf::from_cover_str(3, &["1--", "-1-"], &[]).unwrap();
        assert_eq!(canonicalize(&and).key, canonicalize(&or).key);
        // ...but AND of complemented literals is equivalent to AND.
        let andc = Isf::from_cover_str(3, &["0-0"], &[]).unwrap();
        assert_eq!(canonicalize(&and).key, canonicalize(&andc).key);
    }

    #[test]
    fn map_op_complements_with_the_output() {
        let mut t = NpnTransform::identity(4);
        assert_eq!(t.map_op(BinaryOp::And), BinaryOp::And);
        t.output_neg = true;
        assert_eq!(t.map_op(BinaryOp::And), BinaryOp::Nand);
        assert_eq!(t.map_op(BinaryOp::Xnor), BinaryOp::Xor);
    }

    #[test]
    fn rewire_network_realizes_the_transformed_function() {
        let mut rng = DetRng::seed_from_u64(0x11E7);
        for _ in 0..6 {
            let n = 4;
            let f = random_isf(&mut rng, n, false);
            // Build a network for f from its minterm cover.
            let mut net = Network::new(n);
            let root = net.build_cover(&f.on().to_minterm_cover());
            net.add_output(root);
            let t = random_transform(&mut rng, n);
            let image = t.apply_isf(&f);
            let rewired = t.rewire_network(&net);
            for m in 0..(1u64 << n) {
                assert_eq!(rewired.eval(m)[0], image.on().get(m), "minterm {m} under {t:?}");
            }
        }
    }
}
