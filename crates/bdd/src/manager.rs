use std::fmt;

use boolfunc::{Cover, Cube, TruthTable};

use crate::error::BddError;

/// A handle to a node owned by a [`BddManager`].
///
/// A handle is a *complement edge*: bit 0 carries the complement flag and the
/// remaining bits index the node store, so `¬f` is a bit flip instead of a
/// traversal ([`BddManager::not`] is O(1) and allocates nothing). Handles are
/// `Copy`, cheap to store, and only meaningful together with the manager that
/// created them. They stay valid across adjacent-level swaps and sifting (the
/// level exchange rewrites nodes in place) as long as the node is reachable
/// from the roots passed to [`BddManager::sift`]; [`BddManager::clear`]
/// invalidates every handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bdd(pub(crate) u32);

impl Bdd {
    /// Raw index of the node inside its manager (mostly useful for
    /// debugging). Both polarities of an edge share one node.
    pub fn index(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// Returns `true` if this edge carries the complement flag.
    pub fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    /// The same node with the complement flag flipped (`¬f`).
    fn complemented(self) -> Bdd {
        Bdd(self.0 ^ 1)
    }

    /// The regular (uncomplemented) edge to the same node.
    fn regular(self) -> Bdd {
        Bdd(self.0 & !1)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Node {
    pub(crate) var: u32,
    pub(crate) low: Bdd,
    pub(crate) high: Bdd,
}

/// Sentinel variable index of the terminal node (index 0, the constant 1).
pub(crate) const TERMINAL_VAR: u32 = u32::MAX;

/// Sentinel variable index of garbage-collected node slots on the free list.
const FREE_VAR: u32 = u32::MAX - 1;

/// The constant-1 function: the regular edge to the terminal node.
const ONE: Bdd = Bdd(0);

/// The constant-0 function: the complemented edge to the terminal node.
const ZERO: Bdd = Bdd(1);

/// Empty slot marker of the per-variable unique subtables.
const EMPTY: u32 = u32::MAX;

/// Invalid-entry marker of the operation caches (no edge ever has this value:
/// node indices stay below 2^31, see `mk_node`).
const INVALID: u32 = u32::MAX;

/// Smallest slot count of a grown unique subtable.
const MIN_SUBTABLE: usize = 1 << 4;

/// Smallest size of the operation caches (slots).
const MIN_TABLE: usize = 1 << 10;

/// The operation caches stop growing at this many entries; the unique
/// subtables keep growing with the node count (they must, to stay below their
/// load factor), but a lossy cache larger than this stops paying for itself.
const MAX_CACHE: usize = 1 << 22;

/// Tags of the two cached binary operations sharing the apply cache. With
/// complement edges every other binary operation is a constant-time rewrite
/// into these two (De Morgan plus free negation), so caching more would only
/// dilute the cache.
const OP_AND: u8 = 0;
const OP_XOR: u8 = 1;

/// xxhash/SplitMix-style avalanche of a 64-bit word; cheap and good enough to
/// spread consecutive node ids across power-of-two tables.
#[inline]
fn avalanche(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of an `(a, b)` key — subtable node keys and binary cache keys.
#[inline]
fn hash2(a: u32, b: u32) -> u64 {
    let packed = (u64::from(a) << 32) | u64::from(b);
    avalanche(packed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Hash of an `(a, b, c)` key — ternary cache keys.
#[inline]
fn hash3(a: u32, b: u32, c: u32) -> u64 {
    let packed = (u64::from(a) << 42) ^ (u64::from(b) << 21) ^ u64::from(c);
    avalanche(packed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One slot of a per-variable unique subtable. The `(low, high)` edge pair is
/// the key (the variable is implied by the table); `id == EMPTY` marks a free
/// slot. Keys are stored inline so probes and deletions never chase the node
/// store, and so the level-exchange can remove entries of nodes it is about
/// to overwrite.
#[derive(Debug, Clone, Copy)]
struct SubSlot {
    low: u32,
    high: u32,
    id: u32,
}

const EMPTY_SLOT: SubSlot = SubSlot { low: 0, high: 0, id: EMPTY };

/// One per-variable unique table: open-addressed, power-of-two, linear
/// probing, 3/4 load factor, with backward-shift deletion (no tombstones) so
/// sifting can remove and re-add nodes indefinitely without degrading probes.
#[derive(Debug, Clone)]
struct SubTable {
    slots: Vec<SubSlot>,
    len: usize,
}

impl SubTable {
    const fn new() -> Self {
        SubTable { slots: Vec::new(), len: 0 }
    }

    fn find(&self, low: u32, high: u32) -> Option<u32> {
        self.find_counted(low, high).0
    }

    /// Like `find`, but also reports how many slots the linear probe
    /// inspected (≥ 1 on a non-empty table) so the manager can expose mean
    /// probe-chain length as a load-factor health metric.
    fn find_counted(&self, low: u32, high: u32) -> (Option<u32>, u64) {
        if self.slots.is_empty() {
            return (None, 0);
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash2(low, high) as usize) & mask;
        let mut steps = 0u64;
        loop {
            steps += 1;
            let s = self.slots[i];
            if s.id == EMPTY {
                return (None, steps);
            }
            if s.low == low && s.high == high {
                return (Some(s.id), steps);
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts a key known to be absent. Returns `true` if the table grew.
    fn insert(&mut self, low: u32, high: u32, id: u32) -> bool {
        debug_assert!(self.find(low, high).is_none(), "duplicate unique-table key");
        let mut grew = false;
        if self.slots.is_empty() {
            self.slots = vec![EMPTY_SLOT; MIN_SUBTABLE];
        } else if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow(self.slots.len() * 2);
            grew = true;
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash2(low, high) as usize) & mask;
        while self.slots[i].id != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = SubSlot { low, high, id };
        self.len += 1;
        grew
    }

    /// Removes the entry of `id` (which must be present under `(low, high)`)
    /// using backward-shift deletion, keeping probe chains tombstone-free.
    fn remove(&mut self, low: u32, high: u32, id: u32) {
        let mask = self.slots.len() - 1;
        let mut i = (hash2(low, high) as usize) & mask;
        while self.slots[i].id != id {
            debug_assert!(self.slots[i].id != EMPTY, "removing an absent node");
            i = (i + 1) & mask;
        }
        let mut hole = i;
        let mut j = (hole + 1) & mask;
        while self.slots[j].id != EMPTY {
            let s = self.slots[j];
            let home = (hash2(s.low, s.high) as usize) & mask;
            // `s` may fill the hole iff its probe distance from `home` to `j`
            // covers the hole (cyclically); otherwise it is already at or
            // after its home and must stay.
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.slots[hole] = s;
                hole = j;
            }
            j = (j + 1) & mask;
        }
        self.slots[hole] = EMPTY_SLOT;
        self.len -= 1;
    }

    /// Grows to exactly `new_size` slots (a power of two) and re-inserts.
    fn grow(&mut self, new_size: usize) {
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; new_size]);
        let mask = new_size - 1;
        for s in old {
            if s.id == EMPTY {
                continue;
            }
            let mut i = (hash2(s.low, s.high) as usize) & mask;
            while self.slots[i].id != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = s;
        }
    }

    /// Ids of every stored node, in slot order (deterministic).
    fn ids(&self) -> Vec<u32> {
        self.slots.iter().filter(|s| s.id != EMPTY).map(|s| s.id).collect()
    }

    /// Empties the table, keeping the slot allocation warm.
    fn clear(&mut self) {
        if self.len > 0 {
            self.slots.fill(EMPTY_SLOT);
            self.len = 0;
        }
    }
}

/// One entry of the lossy, direct-mapped apply cache. `gen` stamps the
/// [`BddManager::clear`] generation the entry was written in: entries from
/// older generations are stale, which makes clearing the cache an O(1)
/// counter bump instead of a multi-megabyte fill.
#[derive(Debug, Clone, Copy)]
struct ApplyEntry {
    op: u8,
    f: u32,
    g: u32,
    result: u32,
    gen: u32,
}

impl ApplyEntry {
    const fn invalid() -> Self {
        ApplyEntry { op: 0, f: INVALID, g: INVALID, result: INVALID, gen: 0 }
    }
}

/// One entry of the lossy, direct-mapped ITE cache (generation-stamped like
/// [`ApplyEntry`]).
#[derive(Debug, Clone, Copy)]
struct IteEntry {
    f: u32,
    g: u32,
    h: u32,
    result: u32,
    gen: u32,
}

impl IteEntry {
    const fn invalid() -> Self {
        IteEntry { f: INVALID, g: INVALID, h: INVALID, result: INVALID, gen: 0 }
    }
}

/// Hit/miss/occupancy counters of the manager's hash structures plus the
/// reordering counters.
///
/// Counters accumulate across operations until [`BddManager::clear`], which
/// resets the whole manager. They are cheap to maintain — plain integer
/// increments on paths that already touch the corresponding table — and let
/// the engine report cache effectiveness per sweep.
///
/// This struct doubles as the per-worker **local recorder** for the `obs`
/// registry: hot paths bump these plain fields for free and a merge point
/// folds them into shared [`obs::Counter`]s via [`CacheStats::merge_into`].
/// New code should read manager health from an [`obs::Registry`] snapshot
/// rather than threading this struct around; it is kept as a thin
/// compatibility accessor for existing tests and benches.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// `mk_node` lookups that probed a unique subtable (trivial reductions
    /// `low == high` never reach a table).
    pub unique_lookups: u64,
    /// Lookups resolved by an existing node (hash-consing hits).
    pub unique_hits: u64,
    /// Total slots inspected across all unique lookups; `unique_probe_steps /
    /// unique_lookups` is the mean probe-chain length.
    pub unique_probe_steps: u64,
    /// Times a unique subtable doubled and re-inserted its nodes.
    pub unique_rehashes: u64,
    /// Cached binary apply (`AND`/`XOR`) cache hits.
    pub apply_hits: u64,
    /// Cached binary apply cache misses (recursions actually performed).
    pub apply_misses: u64,
    /// Ternary ITE cache hits.
    pub ite_hits: u64,
    /// Ternary ITE cache misses.
    pub ite_misses: u64,
    /// Completed [`BddManager::sift`] passes.
    pub sift_passes: u64,
    /// Adjacent-level exchanges performed (by sifting or directly).
    pub level_swaps: u64,
    /// Mark-and-sweep garbage collections (one per sift pass).
    pub gc_runs: u64,
}

impl CacheStats {
    /// Field-wise accumulation, used by per-worker recorders that sum
    /// per-job deltas before merging them into a registry.
    pub fn accumulate(&mut self, other: &CacheStats) {
        self.unique_lookups += other.unique_lookups;
        self.unique_hits += other.unique_hits;
        self.unique_probe_steps += other.unique_probe_steps;
        self.unique_rehashes += other.unique_rehashes;
        self.apply_hits += other.apply_hits;
        self.apply_misses += other.apply_misses;
        self.ite_hits += other.ite_hits;
        self.ite_misses += other.ite_misses;
        self.sift_passes += other.sift_passes;
        self.level_swaps += other.level_swaps;
        self.gc_runs += other.gc_runs;
    }

    /// Fold these counts into `registry` under `prefix` (one counter per
    /// field, e.g. `prefix.apply_hits`). Intended for merge points — once per
    /// worker or per request — never per operation.
    pub fn merge_into(&self, registry: &obs::Registry, prefix: &str) {
        registry.add(&format!("{prefix}.unique_lookups"), self.unique_lookups);
        registry.add(&format!("{prefix}.unique_hits"), self.unique_hits);
        registry.add(&format!("{prefix}.unique_probe_steps"), self.unique_probe_steps);
        registry.add(&format!("{prefix}.unique_rehashes"), self.unique_rehashes);
        registry.add(&format!("{prefix}.apply_hits"), self.apply_hits);
        registry.add(&format!("{prefix}.apply_misses"), self.apply_misses);
        registry.add(&format!("{prefix}.ite_hits"), self.ite_hits);
        registry.add(&format!("{prefix}.ite_misses"), self.ite_misses);
        registry.add(&format!("{prefix}.sift_passes"), self.sift_passes);
        registry.add(&format!("{prefix}.level_swaps"), self.level_swaps);
        registry.add(&format!("{prefix}.gc_runs"), self.gc_runs);
    }
}

/// A sifted variable abandons its walk once the total live node count
/// exceeds this factor times the count at the start of its walk.
const MAX_GROWTH: f64 = 1.2;

/// After an automatic sift the next trigger is re-armed at
/// `live_nodes × AUTO_SCALE` (never below [`SiftConfig::auto_threshold`]), so
/// a workload that keeps growing re-sifts at geometrically spaced sizes
/// instead of thrashing.
const AUTO_SCALE: f64 = 2.0;

/// Configuration of the dynamic variable ordering (Rudell sifting).
///
/// Only the automatic trigger is settable; it stays off by default. The walk
/// bound (a variable may grow the diagram by at most 20% while it explores
/// the levels) and the re-arm factor are fixed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SiftConfig {
    /// [`BddManager::maybe_sift`] fires once the live node count reaches this
    /// threshold (0 disables automatic sifting entirely).
    pub auto_threshold: usize,
}

/// A reduced ordered BDD manager with complement edges, per-variable
/// hash-consing unique subtables, dynamic variable ordering (Rudell sifting)
/// and lossy direct-mapped operation caches.
///
/// The manager plays the role CUDD plays in the paper's implementation: the
/// Table II set operations run on BDDs whenever the functions are too large
/// for dense truth tables. Internals:
///
/// * **Complement edges** — a handle is `(node index, complement bit)`; the
///   single terminal node is the constant 1 and the constant 0 is its
///   complemented edge. Canonical form: the *then* edge of every stored node
///   is regular, so each function/complement pair shares one node,
///   [`BddManager::not`] is a free bit flip, and node counts roughly halve
///   against a plain-edge manager.
/// * **Unique subtables** — one open-addressed table per variable keyed by
///   the `(low, high)` edge pair, power-of-two sized, linear probing with
///   backward-shift deletion. Per-variable tables are what make the
///   adjacent-level exchange O(nodes at that level).
/// * **Dynamic variable ordering** — [`BddManager::swap_adjacent_levels`]
///   exchanges two adjacent levels in place (external handles survive:
///   affected nodes are rewritten under their old index),
///   [`BddManager::sift`] runs a deterministic Rudell sifting pass over the
///   live diagram, and [`BddManager::maybe_sift`] triggers it on
///   table-growth thresholds ([`SiftConfig`]). [`BddManager::set_order`]
///   seeds a static order (e.g. from the FORCE heuristic,
///   [`crate::force_order`]) before any node is built.
/// * **Apply cache** — `AND` and `XOR` recurse directly and share one
///   direct-mapped lossy cache keyed by `(op, f, g)` with commutative
///   operands normalized; every other binary operation is a constant-time
///   complement-edge rewrite of these two. The general [`BddManager::ite`]
///   keeps its own ternary cache with complement-normalized keys.
/// * **Counting memo** — model counting reuses a manager-owned scratch map
///   instead of allocating a fresh `HashMap` per call.
/// * **Lifecycle** — [`BddManager::clear`] resets the manager to the
///   terminal (and the variable order to the identity), keeping every
///   allocation warm, so a worker reuses one manager across a whole batch of
///   jobs.
///
/// ```rust
/// use bdd::BddManager;
///
/// let mut mgr = BddManager::new(2);
/// let x0 = mgr.variable(0);
/// let x1 = mgr.variable(1);
/// let f = mgr.xor(x0, x1);
/// assert_eq!(mgr.sat_count(f), 2);
/// ```
pub struct BddManager {
    num_vars: usize,
    nodes: Vec<Node>,
    /// Internal parent-link counts per node index (links from allocated
    /// nodes, plus temporary root pins while sifting). Only consulted by the
    /// reordering machinery; rebuilt exactly by each garbage collection.
    refs: Vec<u32>,
    /// Indices of garbage-collected node slots available for reuse.
    free: Vec<u32>,
    /// One unique subtable per variable (indexed by variable label).
    subtables: Vec<SubTable>,
    /// `var2level[var]` = current level of `var` (0 = topmost).
    var2level: Vec<u32>,
    /// `level2var[level]` = variable label currently at `level`.
    level2var: Vec<u32>,
    apply_cache: Vec<ApplyEntry>,
    ite_cache: Vec<IteEntry>,
    /// Reusable memo of model counting (node index → path count).
    pub(crate) count_memo: std::collections::HashMap<u32, u128>,
    /// Current cache generation: operation-cache entries written under an
    /// older generation are stale (entries start at generation 0, which is
    /// never current).
    cache_gen: u32,
    sift_cfg: SiftConfig,
    /// Live-node count at which the next automatic sift fires.
    next_auto_sift: usize,
    stats: CacheStats,
}

impl BddManager {
    /// Creates a manager for functions over `num_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > 63` (minterms are addressed with `u64` words).
    pub fn new(num_vars: usize) -> Self {
        assert!(num_vars < 64, "BDD managers address minterms with u64 words");
        BddManager {
            num_vars,
            nodes: vec![Node { var: TERMINAL_VAR, low: ONE, high: ONE }],
            refs: vec![0],
            free: Vec::new(),
            subtables: vec![SubTable::new(); num_vars],
            var2level: (0..num_vars as u32).collect(),
            level2var: (0..num_vars as u32).collect(),
            apply_cache: vec![ApplyEntry::invalid(); MIN_TABLE],
            ite_cache: vec![IteEntry::invalid(); MIN_TABLE],
            count_memo: std::collections::HashMap::new(),
            cache_gen: 1,
            sift_cfg: SiftConfig::default(),
            next_auto_sift: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of variables of the manager.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of live nodes (allocated minus garbage-collected, including the
    /// terminal) — the peak-size measure the benchmarks gate on.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Snapshot of the cache/table counters accumulated since the last
    /// [`BddManager::clear`].
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Replaces the dynamic-reordering configuration. Setting a non-zero
    /// [`SiftConfig::auto_threshold`] arms [`BddManager::maybe_sift`].
    pub fn set_sift_config(&mut self, cfg: SiftConfig) {
        self.sift_cfg = cfg;
        self.next_auto_sift = cfg.auto_threshold;
    }

    /// Resets the manager to the single terminal node, **invalidating every
    /// previously returned [`Bdd`] handle** and restoring the identity
    /// variable order, while keeping the node store, subtables, caches and
    /// counting memo allocated at their current capacity.
    ///
    /// This is the lifecycle hook the batch engine uses to run one manager
    /// across many jobs: after a `clear` the next job rebuilds its operands
    /// into warm tables instead of re-growing fresh ones from scratch. The
    /// order reset keeps per-job results independent of whatever order a
    /// previous job sifted into (determinism across thread counts).
    pub fn clear(&mut self) {
        self.nodes.truncate(1);
        self.refs.truncate(1);
        self.refs[0] = 0;
        self.free.clear();
        for t in &mut self.subtables {
            t.clear();
        }
        for v in 0..self.num_vars as u32 {
            self.var2level[v as usize] = v;
            self.level2var[v as usize] = v;
        }
        self.next_auto_sift = self.sift_cfg.auto_threshold;
        self.bump_cache_gen();
        self.count_memo.clear();
        self.stats = CacheStats::default();
    }

    /// Invalidates every operation-cache entry in O(1) by advancing the
    /// generation counter; the rare wraparound falls back to a real fill so
    /// generation 0 (the "never written" stamp) is never current.
    fn bump_cache_gen(&mut self) {
        self.cache_gen = self.cache_gen.wrapping_add(1);
        if self.cache_gen == 0 {
            self.apply_cache.fill(ApplyEntry::invalid());
            self.ite_cache.fill(IteEntry::invalid());
            self.cache_gen = 1;
        }
    }

    /// The constant-0 function.
    pub fn zero(&self) -> Bdd {
        ZERO
    }

    /// The constant-1 function.
    pub fn one(&self) -> Bdd {
        ONE
    }

    /// Returns `true` if `f` is the constant 0.
    pub fn is_zero(&self, f: Bdd) -> bool {
        f == ZERO
    }

    /// Returns `true` if `f` is the constant 1.
    pub fn is_one(&self, f: Bdd) -> bool {
        f == ONE
    }

    pub(crate) fn node(&self, f: Bdd) -> Node {
        self.nodes[f.index()]
    }

    /// Variable *label* of the top node of `f` (independent of the level the
    /// variable currently sits at); terminals report `usize::MAX`.
    pub fn top_var(&self, f: Bdd) -> usize {
        let v = self.node(f).var;
        if v == TERMINAL_VAR {
            usize::MAX
        } else {
            v as usize
        }
    }

    /// Current level of the top node of `f` (0 = topmost); terminals report
    /// `usize::MAX`.
    pub(crate) fn top_level(&self, f: Bdd) -> usize {
        let v = self.node(f).var;
        if v == TERMINAL_VAR {
            usize::MAX
        } else {
            self.var2level[v as usize] as usize
        }
    }

    /// The current variable order: element `level` is the variable label
    /// sitting at that level (topmost first).
    pub fn var_order(&self) -> Vec<usize> {
        self.level2var.iter().map(|&v| v as usize).collect()
    }

    /// Seeds a static variable order (e.g. from [`crate::force_order`]):
    /// `order[level]` is the variable to place at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..num_vars`, or if the
    /// manager already holds nodes (the order must be fixed before any node
    /// is built; use [`BddManager::sift`] to reorder a live diagram).
    pub fn set_order(&mut self, order: &[usize]) {
        assert_eq!(order.len(), self.num_vars, "order must mention every variable exactly once");
        assert_eq!(
            self.num_nodes(),
            1,
            "set_order requires a manager holding only the terminal; sift() reorders live diagrams"
        );
        let mut seen = vec![false; self.num_vars];
        for (level, &v) in order.iter().enumerate() {
            assert!(v < self.num_vars && !seen[v], "order must be a permutation of the variables");
            seen[v] = true;
            self.level2var[level] = v as u32;
            self.var2level[v] = level as u32;
        }
    }

    fn check_var(&self, var: usize) -> Result<(), BddError> {
        if var >= self.num_vars {
            Err(BddError::VariableOutOfRange { variable: var, num_vars: self.num_vars })
        } else {
            Ok(())
        }
    }

    /// The projection function for variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= self.num_vars()`; use [`BddManager::try_variable`]
    /// for the fallible version.
    pub fn variable(&mut self, var: usize) -> Bdd {
        self.try_variable(var).expect("variable index out of range")
    }

    /// Fallible version of [`BddManager::variable`].
    ///
    /// # Errors
    ///
    /// Returns [`BddError::VariableOutOfRange`] if `var` is not a variable of
    /// this manager.
    pub fn try_variable(&mut self, var: usize) -> Result<Bdd, BddError> {
        self.check_var(var)?;
        Ok(self.mk_node(var as u32, ZERO, ONE))
    }

    // ------------------------------------------------------------------
    // Unique subtables
    // ------------------------------------------------------------------

    /// Hash-consing node constructor. Canonical form: the *then* edge of a
    /// stored node is always regular; a complemented `high` is absorbed by
    /// storing the complemented node and returning a complemented edge
    /// (`ite(x, ¬a, ¬b) = ¬ite(x, a, b)`).
    pub(crate) fn mk_node(&mut self, var: u32, low: Bdd, high: Bdd) -> Bdd {
        if low == high {
            return low;
        }
        if high.is_complemented() {
            let r = self.mk_node_regular(var, low.complemented(), high.complemented());
            r.complemented()
        } else {
            self.mk_node_regular(var, low, high)
        }
    }

    fn mk_node_regular(&mut self, var: u32, low: Bdd, high: Bdd) -> Bdd {
        debug_assert!(!high.is_complemented());
        debug_assert!(low != high);
        debug_assert!(self.nodes[low.index()].var != FREE_VAR, "child is a freed node");
        debug_assert!(self.nodes[high.index()].var != FREE_VAR, "child is a freed node");
        debug_assert!(
            self.top_level(low) > self.var2level[var as usize] as usize
                && self.top_level(high) > self.var2level[var as usize] as usize,
            "children must sit strictly below the node's level"
        );
        self.stats.unique_lookups += 1;
        let (found, steps) = self.subtables[var as usize].find_counted(low.0, high.0);
        self.stats.unique_probe_steps += steps;
        if let Some(id) = found {
            self.stats.unique_hits += 1;
            return Bdd(id << 1);
        }
        let id = if let Some(id) = self.free.pop() {
            self.nodes[id as usize] = Node { var, low, high };
            self.refs[id as usize] = 0;
            id
        } else {
            // Node indices must fit the 31 payload bits of an edge.
            assert!(self.nodes.len() < (1 << 31), "node store exceeds edge-indexable handles");
            let id = self.nodes.len() as u32;
            self.nodes.push(Node { var, low, high });
            self.refs.push(0);
            self.maybe_grow_caches();
            id
        };
        // Internal parent links of the children (consulted by reordering).
        self.refs[low.index()] += 1;
        self.refs[high.index()] += 1;
        if self.subtables[var as usize].insert(low.0, high.0, id) {
            self.stats.unique_rehashes += 1;
        }
        Bdd(id << 1)
    }

    /// Keeps the lossy operation caches proportional to the node store (up
    /// to [`MAX_CACHE`]): a direct-mapped cache much smaller than the
    /// diagram thrashes. Growing discards the current entries, which is safe
    /// (the caches are lossy) and rare (amortized doubling).
    fn maybe_grow_caches(&mut self) {
        let len = self.apply_cache.len();
        if len >= MAX_CACHE || self.nodes.len() <= len {
            return;
        }
        let new_len = (len * 2).min(MAX_CACHE);
        self.apply_cache = vec![ApplyEntry::invalid(); new_len];
        self.ite_cache = vec![IteEntry::invalid(); new_len];
    }

    /// Total slot count over all unique subtables.
    pub fn unique_capacity(&self) -> usize {
        self.subtables.iter().map(|t| t.slots.len()).sum()
    }

    // ------------------------------------------------------------------
    // Dynamic variable ordering
    // ------------------------------------------------------------------

    /// Exchanges the variables at `level` and `level + 1` in place and
    /// returns the live node count afterwards.
    ///
    /// This is the sifting primitive: only nodes at `level` whose function
    /// depends on the variable below are rewritten (under their existing
    /// index, so external handles to them survive), every other node is
    /// untouched. Nodes at `level + 1` whose last internal reference
    /// disappears are garbage-collected — a handle to an *interior* node that
    /// is reachable from no other live node is invalidated by that; handles
    /// to rewritten nodes and to anything still reachable stay valid.
    ///
    /// # Panics
    ///
    /// Panics if `level + 1 >= self.num_vars()`.
    pub fn swap_adjacent_levels(&mut self, level: usize) -> usize {
        assert!(level + 1 < self.num_vars, "swap needs two adjacent levels");
        self.stats.level_swaps += 1;
        let x = self.level2var[level] as usize; // upper variable, moves down
        let y = self.level2var[level + 1] as usize; // lower variable, moves up
        let y_var = y as u32;

        // Only x-nodes with a y-child change shape; collect them (slot order,
        // deterministic) and unhook them from x's subtable so the rewrites
        // below can never collide with a stale entry.
        let mut affected: Vec<u32> = Vec::new();
        for id in self.subtables[x].ids() {
            let nd = self.nodes[id as usize];
            if self.nodes[nd.low.index()].var == y_var || self.nodes[nd.high.index()].var == y_var {
                affected.push(id);
            }
        }
        for &id in &affected {
            let nd = self.nodes[id as usize];
            self.subtables[x].remove(nd.low.0, nd.high.0, id);
        }

        // Exchange the level maps first: mk_node's level invariants must see
        // the new order while the affected nodes are rebuilt.
        self.level2var[level] = y as u32;
        self.level2var[level + 1] = x as u32;
        self.var2level[x] = (level + 1) as u32;
        self.var2level[y] = level as u32;

        for &id in &affected {
            let nd = self.nodes[id as usize];
            // f = ¬y·(¬x·f00 + x·f10) + y·(¬x·f01 + x·f11)
            let (f00, f01) = self.cofactors_at(nd.low, y);
            let (f10, f11) = self.cofactors_at(nd.high, y);
            let g0 = self.mk_node(x as u32, f00, f10);
            self.incref(g0);
            let g1 = self.mk_node(x as u32, f01, f11);
            self.incref(g1);
            // f11 is a then-edge of a canonical node (or the regular nd.high
            // itself), hence regular — so g1 is regular and the rewritten
            // node needs no edge flip to stay canonical.
            debug_assert!(!g1.is_complemented(), "rewritten then-edge must stay regular");
            debug_assert_ne!(g0, g1, "affected node must still depend on the lower variable");
            self.nodes[id as usize] = Node { var: y_var, low: g0, high: g1 };
            self.subtables[y].insert(g0.0, g1.0, id);
            // Release the old children only now: g0/g1 already hold the
            // grandchildren alive, so this cannot free anything still needed.
            self.decref(nd.low);
            self.decref(nd.high);
        }
        self.num_nodes()
    }

    fn incref(&mut self, e: Bdd) {
        self.refs[e.index()] += 1;
    }

    /// Drops one internal parent link of `e`'s node, garbage-collecting it
    /// (and, recursively, its children) when the last link disappears.
    fn decref(&mut self, e: Bdd) {
        let idx = e.index();
        if idx == 0 {
            return; // the terminal is never collected
        }
        debug_assert!(self.refs[idx] > 0, "ref underflow");
        self.refs[idx] -= 1;
        if self.refs[idx] == 0 {
            let nd = self.nodes[idx];
            self.subtables[nd.var as usize].remove(nd.low.0, nd.high.0, idx as u32);
            self.nodes[idx] = Node { var: FREE_VAR, low: ONE, high: ONE };
            self.free.push(idx as u32);
            self.decref(nd.low);
            self.decref(nd.high);
        }
    }

    /// Mark-and-sweep garbage collection from `roots`: frees every node not
    /// reachable from a root and rebuilds the internal reference counts
    /// exactly. Clears the operation caches and the counting memo (freed
    /// indices may be reused). Runs as the first phase of every
    /// [`BddManager::sift`].
    fn collect_garbage(&mut self, roots: &[Bdd]) {
        self.stats.gc_runs += 1;
        let mut live = vec![false; self.nodes.len()];
        live[0] = true;
        let mut stack: Vec<usize> = Vec::new();
        for r in roots {
            let i = r.index();
            if !live[i] {
                live[i] = true;
                stack.push(i);
            }
        }
        while let Some(i) = stack.pop() {
            let nd = self.nodes[i];
            debug_assert!(nd.var != FREE_VAR, "root reaches a freed node");
            for c in [nd.low.index(), nd.high.index()] {
                if !live[c] {
                    live[c] = true;
                    stack.push(c);
                }
            }
        }
        for r in &mut self.refs {
            *r = 0;
        }
        self.free.clear();
        for t in &mut self.subtables {
            t.clear();
        }
        for (i, &alive) in live.iter().enumerate().skip(1) {
            if alive {
                let nd = self.nodes[i];
                self.refs[nd.low.index()] += 1;
                self.refs[nd.high.index()] += 1;
                self.subtables[nd.var as usize].insert(nd.low.0, nd.high.0, i as u32);
            } else {
                self.nodes[i] = Node { var: FREE_VAR, low: ONE, high: ONE };
                self.free.push(i as u32);
            }
        }
        self.bump_cache_gen();
        self.count_memo.clear();
    }

    /// Runs one deterministic Rudell sifting pass over the diagram reachable
    /// from `roots`.
    ///
    /// The pass first garbage-collects everything unreachable from `roots`
    /// (handles to collected nodes become invalid — pass every handle you
    /// intend to keep using), then moves each variable — largest subtable
    /// first, ties broken by variable label — through the levels, bounded by
    /// a 20% growth limit per walk, and parks it at the first position of
    /// minimum size. All tie-breaks are fixed and no trigger is time-based,
    /// so sifting is deterministic: the same diagram always produces the
    /// same final order.
    ///
    /// Handles passed as `roots` (and every node reachable from them) remain
    /// valid afterwards: the level exchange rewrites nodes in place.
    pub fn sift(&mut self, roots: &[Bdd]) {
        self.collect_garbage(roots);
        // Pin the roots so an exchange can never collect a root whose only
        // internal parent is being rewritten.
        for r in roots {
            self.refs[r.index()] += 1;
        }
        self.stats.sift_passes += 1;
        let mut by_size: Vec<u32> = (0..self.num_vars as u32).collect();
        by_size.sort_by(|&a, &b| {
            let (sa, sb) = (self.subtables[a as usize].len, self.subtables[b as usize].len);
            sb.cmp(&sa).then(a.cmp(&b))
        });
        for v in by_size {
            if self.subtables[v as usize].len == 0 {
                continue;
            }
            self.sift_var(v as usize);
        }
        for r in roots {
            self.refs[r.index()] -= 1;
        }
        // Freed indices may be reused with new meanings: stale cache entries
        // must not survive the pass.
        self.bump_cache_gen();
        self.count_memo.clear();
    }

    /// Moves `var` through the levels (closer extreme first, then the other
    /// direction) and parks it at the first position of minimum total size.
    fn sift_var(&mut self, var: usize) {
        let n = self.num_vars;
        let start = self.var2level[var] as usize;
        let mut size = self.num_nodes();
        let limit = (size as f64 * MAX_GROWTH).ceil() as usize;
        let mut best_size = size;
        let mut best = start;
        let mut cur = start;
        let down_first = n - 1 - start <= start;
        for pass in 0..2 {
            let down = down_first == (pass == 0);
            if down {
                while cur + 1 < n {
                    size = self.swap_adjacent_levels(cur);
                    cur += 1;
                    if size < best_size {
                        best_size = size;
                        best = cur;
                    }
                    if size > limit {
                        break;
                    }
                }
            } else {
                while cur > 0 {
                    size = self.swap_adjacent_levels(cur - 1);
                    cur -= 1;
                    if size < best_size {
                        best_size = size;
                        best = cur;
                    }
                    if size > limit {
                        break;
                    }
                }
            }
        }
        while cur < best {
            self.swap_adjacent_levels(cur);
            cur += 1;
        }
        while cur > best {
            self.swap_adjacent_levels(cur - 1);
            cur -= 1;
        }
        debug_assert_eq!(self.num_nodes(), best_size, "return-to-best must restore the minimum");
    }

    /// Sifts if the live node count has reached the configured trigger
    /// ([`SiftConfig::auto_threshold`]; 0 keeps this a no-op). Returns
    /// whether a pass ran. After a pass the trigger is re-armed at
    /// `live × 2`.
    ///
    /// Call this at points where `roots` covers everything still needed —
    /// like [`BddManager::sift`], handles not reachable from `roots` are
    /// invalidated when a pass runs.
    pub fn maybe_sift(&mut self, roots: &[Bdd]) -> bool {
        let threshold = self.sift_cfg.auto_threshold;
        if threshold == 0 || self.num_nodes() < self.next_auto_sift.max(threshold) {
            return false;
        }
        self.sift(roots);
        let rearmed = (self.num_nodes() as f64 * AUTO_SCALE) as usize;
        self.next_auto_sift = rearmed.max(threshold);
        true
    }

    /// Exhaustively validates the manager's structural invariants: inverse
    /// level maps, canonical (regular) then-edges, strict level ordering,
    /// reduction (`low != high`), subtable registration/uniqueness and
    /// consistent live-node accounting. A test/debug aid — O(nodes), panics
    /// on the first violation.
    pub fn check_invariants(&self) {
        for v in 0..self.num_vars {
            assert_eq!(
                self.level2var[self.var2level[v] as usize] as usize, v,
                "level maps are not inverse permutations at variable {v}"
            );
        }
        let mut live = 0usize;
        for (i, nd) in self.nodes.iter().enumerate().skip(1) {
            if nd.var == FREE_VAR {
                continue;
            }
            live += 1;
            assert_ne!(nd.var, TERMINAL_VAR, "only node 0 may be terminal");
            assert!(!nd.high.is_complemented(), "then-edge of node {i} is complemented");
            assert_ne!(nd.low, nd.high, "redundant node {i} survived reduction");
            let level = self.var2level[nd.var as usize] as usize;
            for child in [nd.low, nd.high] {
                let cv = self.nodes[child.index()].var;
                assert_ne!(cv, FREE_VAR, "node {i} points at a freed node");
                if cv != TERMINAL_VAR {
                    assert!(
                        (self.var2level[cv as usize] as usize) > level,
                        "node {i} violates the level order"
                    );
                }
            }
            assert_eq!(
                self.subtables[nd.var as usize].find(nd.low.0, nd.high.0),
                Some(i as u32),
                "node {i} is missing from (or duplicated in) its subtable"
            );
        }
        assert_eq!(live + 1, self.num_nodes(), "live-node accounting is inconsistent");
        let table_total: usize = self.subtables.iter().map(|t| t.len).sum();
        assert_eq!(table_total, live, "subtable sizes disagree with the live node count");
    }

    // ------------------------------------------------------------------
    // Cached binary apply (AND / XOR)
    // ------------------------------------------------------------------

    /// Negation `¬f` — with complement edges, a free bit flip.
    pub fn not(&self, f: Bdd) -> Bdd {
        f.complemented()
    }

    /// Conjunction `f ∧ g`.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        if f == g || g == ONE {
            return f;
        }
        if f == ONE {
            return g;
        }
        if f == ZERO || g == ZERO || f == g.complemented() {
            return ZERO;
        }
        // Commutative: normalize operand order for cache sharing.
        let (f, g) = if f.0 <= g.0 { (f, g) } else { (g, f) };

        let mask = (self.apply_cache.len() - 1) as u64;
        let slot = (hash3(u32::from(OP_AND), f.0, g.0) & mask) as usize;
        let e = self.apply_cache[slot];
        if e.gen == self.cache_gen && e.op == OP_AND && e.f == f.0 && e.g == g.0 {
            self.stats.apply_hits += 1;
            return Bdd(e.result);
        }
        self.stats.apply_misses += 1;

        let var = self.level2var[self.top_level(f).min(self.top_level(g))] as usize;
        let (f0, f1) = self.cofactors_at(f, var);
        let (g0, g1) = self.cofactors_at(g, var);
        let low = self.and(f0, g0);
        let high = self.and(f1, g1);
        let result = self.mk_node(var as u32, low, high);

        let mask = (self.apply_cache.len() - 1) as u64;
        let slot = (hash3(u32::from(OP_AND), f.0, g.0) & mask) as usize;
        self.apply_cache[slot] =
            ApplyEntry { op: OP_AND, f: f.0, g: g.0, result: result.0, gen: self.cache_gen };
        result
    }

    /// Exclusive or `f ⊕ g`.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        if f == g {
            return ZERO;
        }
        if f == g.complemented() {
            return ONE;
        }
        if f == ZERO {
            return g;
        }
        if g == ZERO {
            return f;
        }
        if f == ONE {
            return g.complemented();
        }
        if g == ONE {
            return f.complemented();
        }
        // ⊕ commutes with complement (`¬a ⊕ b = ¬(a ⊕ b)`): strip the input
        // flags into one output flag so all four polarities share one entry.
        let out = f.is_complemented() ^ g.is_complemented();
        let (f, g) = (f.regular(), g.regular());
        let (f, g) = if f.0 <= g.0 { (f, g) } else { (g, f) };

        let mask = (self.apply_cache.len() - 1) as u64;
        let slot = (hash3(u32::from(OP_XOR), f.0, g.0) & mask) as usize;
        let e = self.apply_cache[slot];
        if e.gen == self.cache_gen && e.op == OP_XOR && e.f == f.0 && e.g == g.0 {
            self.stats.apply_hits += 1;
            return Bdd(e.result ^ u32::from(out));
        }
        self.stats.apply_misses += 1;

        let var = self.level2var[self.top_level(f).min(self.top_level(g))] as usize;
        let (f0, f1) = self.cofactors_at(f, var);
        let (g0, g1) = self.cofactors_at(g, var);
        let low = self.xor(f0, g0);
        let high = self.xor(f1, g1);
        let result = self.mk_node(var as u32, low, high);

        let mask = (self.apply_cache.len() - 1) as u64;
        let slot = (hash3(u32::from(OP_XOR), f.0, g.0) & mask) as usize;
        self.apply_cache[slot] =
            ApplyEntry { op: OP_XOR, f: f.0, g: g.0, result: result.0, gen: self.cache_gen };
        Bdd(result.0 ^ u32::from(out))
    }

    /// Disjunction `f ∨ g = ¬(¬f ∧ ¬g)` (free complements, shares the AND
    /// cache).
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let r = self.and(f.complemented(), g.complemented());
        r.complemented()
    }

    /// Set difference `f ∧ ¬g` (free complement, shares the AND cache).
    pub fn diff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.and(f, g.complemented())
    }

    /// Equivalence `f ⊙ g` (XNOR).
    pub fn xnor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let x = self.xor(f, g);
        x.complemented()
    }

    /// Joint denial `¬(f ∨ g)` (NOR).
    pub fn nor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.and(f.complemented(), g.complemented())
    }

    /// Returns `true` if `f ⇒ g` is a tautology (i.e. the on-set of `f` is a
    /// subset of the on-set of `g`).
    pub fn is_subset(&mut self, f: Bdd, g: Bdd) -> bool {
        let d = self.diff(f, g);
        self.is_zero(d)
    }

    /// Returns `true` if `f` and `g` share no on-set minterm.
    pub fn is_disjoint(&mut self, f: Bdd, g: Bdd) -> bool {
        let a = self.and(f, g);
        self.is_zero(a)
    }

    // ------------------------------------------------------------------
    // General ITE
    // ------------------------------------------------------------------

    /// The if-then-else operator `ite(f, g, h) = f·g + f'·h`.
    ///
    /// Constant and two-operand cases forward to the cached binary
    /// operations; only the genuinely ternary cases use the ITE recursion and
    /// its cache, with the key complement-normalized (`f` and `g` regular) so
    /// equivalent calls share one entry.
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        // Terminal cases.
        if f == ONE {
            return g;
        }
        if f == ZERO {
            return h;
        }
        if g == h {
            return g;
        }
        if g == h.complemented() {
            return self.xor(f, h);
        }
        // Two-operand cases route to the cached binary operations.
        if h == ZERO || f == h {
            return self.and(f, g);
        }
        if g == ONE || f == g {
            return self.or(f, h);
        }
        if g == ZERO || f == g.complemented() {
            return self.diff(h, f);
        }
        if h == ONE || f == h.complemented() {
            // f ⇒ g = ¬(f ∧ ¬g)
            let d = self.diff(f, g);
            return d.complemented();
        }

        // Normalize: regular f (swap the branches), then regular g (complement
        // the output).
        let (mut f, mut g, mut h) = (f, g, h);
        if f.is_complemented() {
            f = f.complemented();
            std::mem::swap(&mut g, &mut h);
        }
        let out = g.is_complemented();
        if out {
            g = g.complemented();
            h = h.complemented();
        }

        let mask = (self.ite_cache.len() - 1) as u64;
        let slot = (hash3(f.0, g.0, h.0) & mask) as usize;
        let e = self.ite_cache[slot];
        if e.gen == self.cache_gen && e.f == f.0 && e.g == g.0 && e.h == h.0 {
            self.stats.ite_hits += 1;
            return Bdd(e.result ^ u32::from(out));
        }
        self.stats.ite_misses += 1;

        let level = self.top_level(f).min(self.top_level(g)).min(self.top_level(h));
        let var = self.level2var[level] as usize;
        let (f0, f1) = self.cofactors_at(f, var);
        let (g0, g1) = self.cofactors_at(g, var);
        let (h0, h1) = self.cofactors_at(h, var);
        let low = self.ite(f0, g0, h0);
        let high = self.ite(f1, g1, h1);
        let result = self.mk_node(var as u32, low, high);

        let mask = (self.ite_cache.len() - 1) as u64;
        let slot = (hash3(f.0, g.0, h.0) & mask) as usize;
        self.ite_cache[slot] =
            IteEntry { f: f.0, g: g.0, h: h.0, result: result.0, gen: self.cache_gen };
        Bdd(result.0 ^ u32::from(out))
    }

    /// Cofactors of `f` with respect to the variable labeled `var` (identity
    /// if `f`'s top variable is a different one). A complemented edge pushes
    /// its flag onto both cofactors.
    pub(crate) fn cofactors_at(&self, f: Bdd, var: usize) -> (Bdd, Bdd) {
        let n = self.node(f);
        if n.var == TERMINAL_VAR || (n.var as usize) != var {
            (f, f)
        } else if f.is_complemented() {
            (n.low.complemented(), n.high.complemented())
        } else {
            (n.low, n.high)
        }
    }

    /// Builds the BDD of a single [`Cube`].
    ///
    /// # Panics
    ///
    /// Panics if the cube mentions a variable outside the manager.
    pub fn cube(&mut self, cube: &Cube) -> Bdd {
        assert!(cube.num_vars() <= self.num_vars, "cube mentions variables outside the manager");
        let mut result = ONE;
        // Build bottom-up in the *current* order (deepest level first) so
        // every mk_node call extends the chain at the top.
        for level in (0..self.num_vars).rev() {
            let var = self.level2var[level] as usize;
            if var >= cube.num_vars() {
                continue;
            }
            match cube.value(var) {
                boolfunc::CubeValue::DontCare => {}
                boolfunc::CubeValue::One => {
                    result = self.mk_node(var as u32, ZERO, result);
                }
                boolfunc::CubeValue::Zero => {
                    result = self.mk_node(var as u32, result, ZERO);
                }
            }
        }
        result
    }

    /// Builds the BDD of a [`Cover`] (disjunction of its cubes).
    ///
    /// # Panics
    ///
    /// Panics if the cover mentions a variable outside the manager.
    pub fn cover(&mut self, cover: &Cover) -> Bdd {
        let mut result = ZERO;
        for c in cover.iter() {
            let cb = self.cube(c);
            result = self.or(result, cb);
        }
        result
    }

    /// Builds the BDD of a dense [`TruthTable`].
    ///
    /// # Panics
    ///
    /// Panics if the table has a different number of variables than the
    /// manager.
    pub fn from_truth_table(&mut self, table: &TruthTable) -> Bdd {
        assert_eq!(table.num_vars(), self.num_vars, "truth table arity mismatch");
        self.table_rec(table, 0, 0)
    }

    fn table_rec(&mut self, table: &TruthTable, level: usize, prefix: u64) -> Bdd {
        if level == self.num_vars {
            return if table.get(prefix) { ONE } else { ZERO };
        }
        let var = self.level2var[level] as usize;
        let low = self.table_rec(table, level + 1, prefix);
        let high = self.table_rec(table, level + 1, prefix | (1u64 << var));
        self.mk_node(var as u32, low, high)
    }

    /// Evaluates `f` on a minterm (bit `i` of `minterm` is the value of
    /// variable `i`, regardless of the current variable order).
    pub fn eval(&self, f: Bdd, minterm: u64) -> bool {
        let mut cur = f;
        let mut parity = false;
        loop {
            parity ^= cur.is_complemented();
            let n = self.node(cur);
            if n.var == TERMINAL_VAR {
                return !parity;
            }
            cur = if minterm >> n.var & 1 == 1 { n.high } else { n.low };
        }
    }

    /// Converts `f` into a dense truth table.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::TooManyVariablesForTable`] if the manager has more
    /// variables than the dense representation supports.
    pub fn to_truth_table(&self, f: Bdd) -> Result<TruthTable, BddError> {
        if self.num_vars > TruthTable::MAX_VARS {
            return Err(BddError::TooManyVariablesForTable {
                num_vars: self.num_vars,
                max: TruthTable::MAX_VARS,
            });
        }
        Ok(TruthTable::from_fn(self.num_vars, |m| self.eval(f, m)))
    }

    /// Number of nodes reachable from `f` (excluding the terminal), the
    /// usual BDD size measure. Both polarities of an edge share one node.
    pub fn node_count(&self, f: Bdd) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f.index()];
        let mut count = 0;
        while let Some(i) = stack.pop() {
            if i == 0 || !seen.insert(i) {
                continue;
            }
            count += 1;
            let node = self.nodes[i];
            stack.push(node.low.index());
            stack.push(node.high.index());
        }
        count
    }
}

impl fmt::Debug for BddManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BddManager(vars={}, nodes={})", self.num_vars, self.num_nodes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_and_variables() {
        let mut mgr = BddManager::new(3);
        assert!(mgr.is_zero(mgr.zero()));
        assert!(mgr.is_one(mgr.one()));
        assert_eq!(mgr.zero(), mgr.one().complemented());
        let x1 = mgr.variable(1);
        assert_eq!(mgr.top_var(x1), 1);
        // Hash-consing: requesting the same variable twice yields the same node.
        assert_eq!(x1, mgr.variable(1));
        // Complement sharing: ¬x1 is the same node, one flag apart.
        assert_eq!(mgr.not(x1), x1.complemented());
    }

    #[test]
    fn variable_out_of_range() {
        let mut mgr = BddManager::new(2);
        assert!(mgr.try_variable(2).is_err());
    }

    #[test]
    fn basic_operators_match_truth_tables() {
        let mut mgr = BddManager::new(2);
        let x0 = mgr.variable(0);
        let x1 = mgr.variable(1);
        type BoolOp = fn(bool, bool) -> bool;
        let cases: Vec<(Bdd, BoolOp)> = vec![
            (mgr.and(x0, x1), |a, b| a && b),
            (mgr.or(x0, x1), |a, b| a || b),
            (mgr.xor(x0, x1), |a, b| a ^ b),
            (mgr.xnor(x0, x1), |a, b| a == b),
            (mgr.nor(x0, x1), |a, b| !(a || b)),
            (mgr.diff(x0, x1), |a, b| a && !b),
        ];
        for (bdd, op) in cases {
            for m in 0..4u64 {
                let a = m & 1 == 1;
                let b = m >> 1 & 1 == 1;
                assert_eq!(mgr.eval(bdd, m), op(a, b), "mismatch on minterm {m}");
            }
        }
        mgr.check_invariants();
    }

    #[test]
    fn reduction_invariants_hold() {
        let mut mgr = BddManager::new(3);
        let x0 = mgr.variable(0);
        let nx0 = mgr.not(x0);
        // x0 or not x0 is the constant one (no redundant node survives).
        let tautology = mgr.or(x0, nx0);
        assert!(mgr.is_one(tautology));
        // and(x0, x0) is x0 itself.
        assert_eq!(mgr.and(x0, x0), x0);
        // and(x0, ¬x0) short-circuits to zero.
        let contradiction = mgr.and(x0, nx0);
        assert!(mgr.is_zero(contradiction));
    }

    #[test]
    fn not_is_free_and_an_involution() {
        let mut mgr = BddManager::new(8);
        let tt = TruthTable::from_fn(8, |m| m % 11 < 4);
        let f = mgr.from_truth_table(&tt);
        let nodes_before = mgr.num_nodes();
        let nf = mgr.not(f);
        assert_eq!(mgr.not(nf), f);
        // Complement edges: negation allocates nothing.
        assert_eq!(mgr.num_nodes(), nodes_before);
        let ntt = mgr.to_truth_table(nf).unwrap();
        for m in 0..256u64 {
            assert_eq!(ntt.get(m), !tt.get(m));
        }
    }

    #[test]
    fn cube_and_cover_conversion() {
        let mut mgr = BddManager::new(4);
        let cover = Cover::from_strs(4, &["11-1", "-011"]).unwrap();
        let f = mgr.cover(&cover);
        let tt = cover.to_truth_table();
        for m in 0..16u64 {
            assert_eq!(mgr.eval(f, m), tt.get(m));
        }
        assert_eq!(mgr.to_truth_table(f).unwrap(), tt);
    }

    #[test]
    fn truth_table_round_trip() {
        let mut mgr = BddManager::new(5);
        let tt = TruthTable::from_fn(5, |m| (m * 2654435761) % 7 < 3);
        let f = mgr.from_truth_table(&tt);
        assert_eq!(mgr.to_truth_table(f).unwrap(), tt);
    }

    #[test]
    fn node_count_of_a_conjunction() {
        let mut mgr = BddManager::new(4);
        let x0 = mgr.variable(0);
        let x3 = mgr.variable(3);
        let f = mgr.and(x0, x3);
        assert_eq!(mgr.node_count(f), 2);
        assert_eq!(mgr.node_count(mgr.one()), 0);
    }

    #[test]
    fn subset_check() {
        let mut mgr = BddManager::new(3);
        let x0 = mgr.variable(0);
        let x1 = mgr.variable(1);
        let a = mgr.and(x0, x1);
        assert!(mgr.is_subset(a, x0));
        assert!(!mgr.is_subset(x0, a));
        assert!(!mgr.is_disjoint(a, x0));
        let nx0 = mgr.not(x0);
        assert!(mgr.is_disjoint(a, nx0));
    }

    #[test]
    fn ite_agrees_with_boolean_semantics() {
        let mut mgr = BddManager::new(3);
        let x0 = mgr.variable(0);
        let x1 = mgr.variable(1);
        let x2 = mgr.variable(2);
        let f = mgr.ite(x0, x1, x2);
        for m in 0..8u64 {
            let (a, b, c) = (m & 1 == 1, m >> 1 & 1 == 1, m >> 2 & 1 == 1);
            assert_eq!(mgr.eval(f, m), if a { b } else { c }, "minterm {m}");
        }
        // Constant-argument ITEs must collapse to the binary operations.
        let and = mgr.and(x0, x1);
        let zero = mgr.zero();
        let one = mgr.one();
        assert_eq!(mgr.ite(x0, x1, zero), and);
        let or = mgr.or(x0, x2);
        assert_eq!(mgr.ite(x0, one, x2), or);
        let nx0 = mgr.not(x0);
        assert_eq!(mgr.ite(x0, zero, one), nx0);
        // Complement-normalized keys: all polarities agree semantically.
        let a = mgr.ite(nx0, x2, x1);
        assert_eq!(a, f, "ite(¬f, g, h) must equal ite(f, h, g)");
        let nx1 = mgr.not(x1);
        let nx2 = mgr.not(x2);
        let b = mgr.ite(x0, nx1, nx2);
        assert_eq!(b, f.complemented(), "ite(f, ¬g, ¬h) must equal ¬ite(f, g, h)");
    }

    #[test]
    fn unique_table_rehash_preserves_hash_consing() {
        // Force many rehashes by building a function with far more nodes than
        // the minimum subtable size, then verify the reduction invariants:
        // the same (var, low, high) request always returns the same node.
        let mut mgr = BddManager::new(16);
        let tt = TruthTable::from_fn(16, |m| avalanche(m ^ 0xD1CE) & 1 == 1);
        let f = mgr.from_truth_table(&tt);
        assert!(mgr.stats().unique_rehashes > 0, "workload too small to exercise rehash");
        let load = (mgr.num_nodes() - 1) as f64 / mgr.unique_capacity() as f64;
        assert!(load < 0.75, "rehash policy failed to keep the load down");
        // Hash-consing still canonical after rehashes: rebuilding the same
        // function yields the identical root handle.
        assert_eq!(mgr.from_truth_table(&tt), f);
        // And the function itself survived intact.
        assert_eq!(mgr.to_truth_table(f).unwrap(), tt);
        mgr.check_invariants();
    }

    #[test]
    fn stored_nodes_are_canonical_with_regular_then_edges() {
        let mut mgr = BddManager::new(12);
        let tt = TruthTable::from_fn(12, |m| m.count_ones() % 3 == 0);
        let f = mgr.from_truth_table(&tt);
        let nf = mgr.not(f);
        let tt2 = TruthTable::from_fn(12, |m| avalanche(m) % 5 < 2);
        let g = mgr.from_truth_table(&tt2);
        let _ = mgr.xor(nf, g);
        // Every stored node has a regular then-edge and is registered exactly
        // once (check_invariants also rejects duplicates and redundancies).
        mgr.check_invariants();
    }

    #[test]
    fn apply_cache_hit_accounting() {
        let mut mgr = BddManager::new(8);
        let tt_a = TruthTable::from_fn(8, |m| m % 3 == 0);
        let tt_b = TruthTable::from_fn(8, |m| m % 5 == 0);
        let a = mgr.from_truth_table(&tt_a);
        let b = mgr.from_truth_table(&tt_b);
        let before = mgr.stats();

        let r1 = mgr.and(a, b);
        let after_first = mgr.stats();
        assert!(after_first.apply_misses > before.apply_misses, "first AND must recurse");

        // The identical operation again: served by the cache, no new misses.
        let r2 = mgr.and(a, b);
        let after_second = mgr.stats();
        assert_eq!(r1, r2);
        assert_eq!(after_second.apply_misses, after_first.apply_misses);
        assert!(after_second.apply_hits > after_first.apply_hits);

        // Commutative normalization: the swapped operands hit the same entry.
        let r3 = mgr.and(b, a);
        let after_swapped = mgr.stats();
        assert_eq!(r1, r3);
        assert_eq!(after_swapped.apply_misses, after_second.apply_misses);

        // De Morgan sharing: or(¬a, ¬b) is the complement of the cached AND.
        let na = mgr.not(a);
        let nb = mgr.not(b);
        let r4 = mgr.or(na, nb);
        assert_eq!(r4, r1.complemented());
        assert_eq!(mgr.stats().apply_misses, after_swapped.apply_misses);
    }

    #[test]
    fn xor_cache_is_polarity_insensitive() {
        let mut mgr = BddManager::new(8);
        let tt_a = TruthTable::from_fn(8, |m| m % 3 == 0);
        let tt_b = TruthTable::from_fn(8, |m| m % 5 == 0);
        let a = mgr.from_truth_table(&tt_a);
        let b = mgr.from_truth_table(&tt_b);
        let x = mgr.xor(a, b);
        let misses = mgr.stats().apply_misses;
        let na = mgr.not(a);
        let x2 = mgr.xor(na, b);
        assert_eq!(x2, x.complemented());
        assert_eq!(mgr.stats().apply_misses, misses, "¬a ⊕ b must reuse the a ⊕ b entries");
    }

    #[test]
    fn clear_resets_but_keeps_capacity() {
        let mut mgr = BddManager::new(10);
        let tt = TruthTable::from_fn(10, |m| m % 7 < 3);
        let f = mgr.from_truth_table(&tt);
        let grown_capacity = mgr.unique_capacity();
        let nodes_before = mgr.num_nodes();
        assert!(nodes_before > 1);

        mgr.clear();
        assert_eq!(mgr.num_nodes(), 1, "clear keeps only the terminal");
        assert_eq!(mgr.unique_capacity(), grown_capacity, "clear keeps the table allocation");
        assert_eq!(mgr.stats(), CacheStats::default());
        assert_eq!(mgr.var_order(), (0..10).collect::<Vec<_>>(), "clear resets the order");

        // The manager is fully usable after a clear and reproduces the same
        // function (handles from before the clear are invalid by contract).
        let f2 = mgr.from_truth_table(&tt);
        assert_eq!(mgr.to_truth_table(f2).unwrap(), tt);
        let _ = f; // old handle: not used after clear
        assert_eq!(mgr.num_nodes(), nodes_before, "same function, same node count");
    }

    #[test]
    fn set_order_builds_under_the_seeded_order() {
        let mut mgr = BddManager::new(4);
        mgr.set_order(&[3, 1, 0, 2]);
        assert_eq!(mgr.var_order(), vec![3, 1, 0, 2]);
        // Parity depends on every variable, so the root sits at level 0.
        let tt = TruthTable::from_fn(4, |m| m.count_ones() % 2 == 1);
        let f = mgr.from_truth_table(&tt);
        // Semantics are order-independent.
        assert_eq!(mgr.to_truth_table(f).unwrap(), tt);
        assert_eq!(mgr.top_var(f), 3, "the seeded top level must hold variable 3");
        mgr.check_invariants();
    }

    #[test]
    #[should_panic(expected = "set_order requires a manager holding only the terminal")]
    fn set_order_rejects_live_nodes() {
        let mut mgr = BddManager::new(3);
        let _ = mgr.variable(0);
        mgr.set_order(&[2, 1, 0]);
    }

    #[test]
    fn swap_preserves_node_identity_and_semantics() {
        let mut mgr = BddManager::new(6);
        let tt = TruthTable::from_fn(6, |m| (m.wrapping_mul(0x9E37)) % 11 < 5);
        let f = mgr.from_truth_table(&tt);
        for level in 0..5 {
            let before = mgr.num_nodes();
            mgr.swap_adjacent_levels(level);
            mgr.check_invariants();
            assert_eq!(mgr.to_truth_table(f).unwrap(), tt, "swap at level {level} broke f");
            // Swapping back restores the original size (the exchange is an
            // involution on the diagram shape).
            mgr.swap_adjacent_levels(level);
            mgr.check_invariants();
            assert_eq!(mgr.num_nodes(), before);
            assert_eq!(mgr.to_truth_table(f).unwrap(), tt);
        }
    }

    #[test]
    fn sift_shrinks_an_interleaved_conjunction() {
        // f = x0·x3 + x1·x4 + x2·x5 under the identity order is exponential
        // in the number of pairs; after sifting the pairs sit together and
        // the diagram collapses to the linear form.
        let mut mgr = BddManager::new(6);
        let mut f = mgr.zero();
        for i in 0..3 {
            let a = mgr.variable(i);
            let b = mgr.variable(i + 3);
            let ab = mgr.and(a, b);
            f = mgr.or(f, ab);
        }
        let tt = mgr.to_truth_table(f).unwrap();
        let before = mgr.node_count(f);
        mgr.sift(&[f]);
        mgr.check_invariants();
        let after = mgr.node_count(f);
        assert!(after < before, "sifting must shrink the interleaved function");
        assert_eq!(mgr.to_truth_table(f).unwrap(), tt, "sifting must preserve semantics");
        assert!(mgr.stats().sift_passes == 1 && mgr.stats().level_swaps > 0);
    }

    #[test]
    fn sift_collects_garbage_not_reachable_from_roots() {
        let mut mgr = BddManager::new(8);
        let tt = TruthTable::from_fn(8, |m| m % 13 < 6);
        let junk_tt = TruthTable::from_fn(8, |m| m % 17 < 8);
        let f = mgr.from_truth_table(&tt);
        let junk = mgr.from_truth_table(&junk_tt);
        let _ = mgr.and(f, junk);
        let before = mgr.num_nodes();
        mgr.sift(&[f]);
        assert!(mgr.num_nodes() < before, "sift must collect the unrooted diagrams");
        assert_eq!(mgr.to_truth_table(f).unwrap(), tt);
        assert!(mgr.stats().gc_runs == 1);
        mgr.check_invariants();
    }

    #[test]
    fn maybe_sift_respects_threshold_and_rearms() {
        let mut mgr = BddManager::new(10);
        let tt = TruthTable::from_fn(10, |m| avalanche(m).is_multiple_of(3));
        let f = mgr.from_truth_table(&tt);
        // Disabled by default.
        assert!(!mgr.maybe_sift(&[f]));
        mgr.set_sift_config(SiftConfig { auto_threshold: mgr.num_nodes() / 2 });
        assert!(mgr.maybe_sift(&[f]), "threshold below the live count must fire");
        assert_eq!(mgr.to_truth_table(f).unwrap(), tt);
        // Re-armed above the current size: an immediate second call is a no-op.
        assert!(!mgr.maybe_sift(&[f]));
    }
}
