//! # service (`bidecomp-service`)
//!
//! Decomposition-as-a-service: the long-lived serving layer on top of the
//! `bidecomp` engines.
//!
//! The full quotient is a pure function of `(f, g, op)`, and real synthesis
//! workloads keep asking about the same few functions wearing different
//! variable orders and polarities — across outputs and whole circuits. This
//! crate turns that observation into a server:
//!
//! * [`npn`] — word-parallel NPN canonicalization: a [`CanonicalKey`] per
//!   equivalence class plus the [`npn::NpnTransform`] needed to map a cached
//!   answer back (exact up to [`npn::MAX_EXACT_VARS`] variables, greedy
//!   signature-based above);
//! * [`cache`] — a lock-striped, sharded, bounded store with CLOCK eviction
//!   and hit/miss/eviction statistics;
//! * [`NpnCache`] — the two glued together: an NPN-keyed memo of completed
//!   request results (`synthesize` networks and `decompose` quotients). The
//!   server canonicalizes each request's function once and passes the
//!   [`Canonical`] to every probe, lookup and store. The cache sits in front
//!   of whole requests only: a canonicalization costs about 0.03 ms at 9
//!   inputs and 0.16 ms at 12, a Table II quotient under a microsecond, and
//!   the quotient subproblems inside a synthesis almost never recur (no
//!   hit in 600 lookups on 200 never-repeated 9–12-input functions), so the
//!   recursion recomputes them;
//! * [`server`] — a persistent localhost TCP service speaking line-delimited
//!   JSON ([`json`]), fronting a request queue drained by the server's own
//!   worker threads, with `decompose` / `synthesize` / `stats` / `metrics` /
//!   `shutdown` verbs;
//! * [`json`] — the dependency-free JSON module (moved here from
//!   `bidecomp-bench`, which re-exports it) framing both the wire protocol
//!   and the bench artifacts.
//!
//! Soundness of the cache: the full quotient is *unique* (Corollaries 1–4),
//! and NPN transforms are bijections on the minterm space that commute with
//! Table II, so a transformed-back cache hit is bit-identical to a cold
//! computation. Synthesis results are different: an NPN hit returns a
//! *rewired* network (inverters may be added at relabeled inputs or the
//! output), so the service re-verifies every rewired network exhaustively
//! against the queried function before answering, and reports `cache: hit`
//! so clients can tell the two paths apart.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod json;
pub mod npn;
pub mod server;

use bidecomp::{BinaryOp, QuotientCache};
use boolfunc::{Isf, TruthTable};
use techmap::Network;

pub use cache::{CacheStats, ShardedCache};
pub use npn::{canonicalize, Canonical, CanonicalKey, NpnTransform};
pub use server::{
    registry_snapshot_value, silence_injected_panics, FaultPlan, Server, ServiceConfig,
    ERR_DEADLINE, ERR_INTERNAL, ERR_LINE_TOO_LONG, ERR_OVERLOADED, ERR_SHUTDOWN,
    INJECTED_PANIC_MESSAGE, MAX_CACHE_SHARDS,
};

/// A cache key: the NPN-canonical dividend plus what distinguishes the
/// entry kinds sharing the store — the transformed divisor and operator for
/// quotients, a configuration fingerprint for synthesis outcomes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CacheKey {
    /// A full-quotient problem `(canon(f), T(g), T(op))`.
    Quotient {
        /// Canonical form of the dividend.
        f: CanonicalKey,
        /// The divisor carried into the canonical space (input transform
        /// only — the output complement moves into the operator).
        g: Box<[u64]>,
        /// The operator in the canonical space.
        op: BinaryOp,
    },
    /// A recursive-synthesis problem `canon(f)` under one synthesizer
    /// configuration.
    Synthesis {
        /// Canonical form of the synthesized function.
        f: CanonicalKey,
        /// Fingerprint of the `RecursiveConfig` the network was built under
        /// (results under different portfolios must not alias).
        config: u64,
    },
}

/// A cached outcome (stored in the canonical space).
#[derive(Debug, Clone)]
pub enum CacheValue {
    /// The full quotient of a [`CacheKey::Quotient`] problem.
    Quotient(Isf),
    /// The outcome of a [`CacheKey::Synthesis`] problem.
    Synthesis(CachedSynthesis),
}

/// The canonical-space remainder of a completed recursive synthesis: enough
/// to answer an NPN-equivalent query without re-synthesizing.
#[derive(Debug, Clone)]
pub struct CachedSynthesis {
    /// The single-output network realizing the canonical representative.
    pub network: Network,
    /// Mapped area of the flat 2-SPP realization the recursion competed
    /// against (canonical space; flat areas are not NPN-invariant, so hits
    /// report this one with `cache: hit` as the caveat).
    pub flat_area: f64,
    /// Bi-decomposition depth of the winning tree.
    pub depth: usize,
    /// Number of bi-decomposition branches of the winning tree.
    pub branches: usize,
}

/// The NPN-canonical result cache: [`ShardedCache`] keyed by [`CacheKey`].
///
/// Every method takes the queried function's [`Canonical`] form, so a
/// caller canonicalizes once per request however many times it probes,
/// looks up and stores.
///
/// ```rust
/// use bidecomp::{full_quotient, BinaryOp};
/// use boolfunc::Isf;
/// use service::{canonicalize, NpnCache};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cache = NpnCache::new(1024, 8);
/// let f = Isf::from_cover_str(4, &["11-1", "-111"], &[])?;
/// let g = boolfunc::Cover::from_strs(4, &["-1-1"])?.to_truth_table();
/// let h = full_quotient(&f, &g, BinaryOp::And)?;
/// let canon = canonicalize(&f);
/// cache.store_quotient(&canon, &g, BinaryOp::And, &h);
/// assert_eq!(cache.lookup_quotient(&canon, &g, BinaryOp::And), Some(h));
/// assert_eq!(cache.stats().hits, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NpnCache {
    store: ShardedCache<CacheKey, CacheValue>,
}

impl NpnCache {
    /// Creates a cache with the given total capacity and stripe count (see
    /// [`ShardedCache::new`]).
    pub fn new(capacity: usize, shards: usize) -> Self {
        NpnCache { store: ShardedCache::new(capacity, shards) }
    }

    /// Like [`NpnCache::new`], but the store's counters are registered in
    /// `registry` under `cache.*` (see [`ShardedCache::with_registry`]).
    pub fn with_registry(capacity: usize, shards: usize, registry: &obs::Registry) -> Self {
        NpnCache { store: ShardedCache::with_registry(capacity, shards, registry) }
    }

    /// Counter snapshot of the underlying store.
    pub fn stats(&self) -> CacheStats {
        self.store.stats()
    }

    /// Drops every entry (counters survive).
    pub fn clear(&self) {
        self.store.clear()
    }

    fn quotient_key(canon: &Canonical, g: &TruthTable, op: BinaryOp) -> CacheKey {
        let g_image = canon.transform.permute_table(g);
        CacheKey::Quotient {
            f: canon.key.clone(),
            g: g_image.as_words().to_vec().into_boxed_slice(),
            op: canon.transform.map_op(op),
        }
    }

    /// Probes whether [`NpnCache::lookup_quotient`] would hit, without touching
    /// the hit/miss counters or the CLOCK recency bits. The server's
    /// admission controller uses this to keep answering cached work while
    /// shedding: a probe must not make the entry look hotter (or the stats
    /// look better) than the traffic actually is.
    ///
    /// Probes do count — under the dedicated `cache.probe_hits` /
    /// `cache.probe_misses` counters (see [`ShardedCache::contains`]) — so
    /// admission-control traffic is visible without distorting the hit
    /// rate. They still deliberately bypass the CLOCK `referenced` touch.
    pub fn has_quotient(&self, canon: &Canonical, g: &TruthTable, op: BinaryOp) -> bool {
        self.store.contains(&Self::quotient_key(canon, g, op))
    }

    /// Probes whether [`NpnCache::lookup_synthesis`] would hit — the
    /// probe-counted twin of [`NpnCache::has_quotient`].
    pub fn has_synthesis(&self, canon: &Canonical, config: u64) -> bool {
        self.store.contains(&CacheKey::Synthesis { f: canon.key.clone(), config })
    }

    /// The full quotient of `(f, g, op)`, where `canon` is `f`'s canonical
    /// form, mapped back from the canonical space; `None` on a miss.
    pub fn lookup_quotient(&self, canon: &Canonical, g: &TruthTable, op: BinaryOp) -> Option<Isf> {
        match self.store.get(&Self::quotient_key(canon, g, op))? {
            CacheValue::Quotient(h_image) => Some(canon.transform.inverse().permute_isf(&h_image)),
            CacheValue::Synthesis(_) => unreachable!("quotient keys only store quotients"),
        }
    }

    /// Records the full quotient `h` of `(f, g, op)`, where `canon` is
    /// `f`'s canonical form, in the canonical space.
    pub fn store_quotient(&self, canon: &Canonical, g: &TruthTable, op: BinaryOp, h: &Isf) {
        let key = Self::quotient_key(canon, g, op);
        self.store.insert(key, CacheValue::Quotient(canon.transform.permute_isf(h)));
    }

    /// Looks up the synthesis outcome of the NPN class with canonical form
    /// `canon` under the configuration fingerprint, as the canonical-space
    /// value (callers rewire it with `canon.transform.inverse()`).
    pub fn lookup_synthesis(&self, canon: &Canonical, config: u64) -> Option<CachedSynthesis> {
        match self.store.get(&CacheKey::Synthesis { f: canon.key.clone(), config })? {
            CacheValue::Synthesis(cached) => Some(cached),
            CacheValue::Quotient(_) => unreachable!("synthesis keys only store syntheses"),
        }
    }

    /// Stores a completed synthesis for the NPN class with canonical form
    /// `canon`: the network (realizing the queried function) is rewired
    /// into the canonical space before storage.
    ///
    /// # Panics
    ///
    /// Panics if `network` is not a single-output network over the queried
    /// function's inputs.
    pub fn store_synthesis(
        &self,
        canon: &Canonical,
        config: u64,
        network: &Network,
        flat_area: f64,
        depth: usize,
        branches: usize,
    ) {
        let key = CacheKey::Synthesis { f: canon.key.clone(), config };
        let canonical_network = canon.transform.rewire_network(network);
        self.store.insert(
            key,
            CacheValue::Synthesis(CachedSynthesis {
                network: canonical_network,
                flat_area,
                depth,
                branches,
            }),
        );
    }
}

/// The trait form canonicalizes `f` on every call; callers that hold the
/// [`Canonical`] use [`NpnCache::lookup_quotient`] and
/// [`NpnCache::store_quotient`] instead.
impl QuotientCache for NpnCache {
    fn lookup(&self, f: &Isf, g: &TruthTable, op: BinaryOp) -> Option<Isf> {
        self.lookup_quotient(&canonicalize(f), g, op)
    }

    fn store(&self, f: &Isf, g: &TruthTable, op: BinaryOp, h: &Isf) {
        self.store_quotient(&canonicalize(f), g, op, h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bidecomp::engine::seeded_divisor;
    use bidecomp::{full_quotient, verify_decomposition, verify_maximal_flexibility};

    fn scrambled(num_vars: usize, seed: u64) -> TruthTable {
        let mut rng = benchmarks::DetRng::seed_from_u64(seed);
        TruthTable::from_words(num_vars, || rng.next_u64())
    }

    /// The acceptance property of the NPN cache: a result stored for one
    /// member of the class answers a *different* member, and the
    /// transformed-back answer is bit-identical to that member's cold
    /// computation — checked through the paper's own Lemma 1–5 /
    /// Corollary 1–4 verifiers.
    #[test]
    fn npn_hit_transforms_back_bit_identically_to_cold() {
        let cache = NpnCache::new(4096, 8);
        let mut hits = 0u64;
        for n in [4usize, 5] {
            for seed in 0..6u64 {
                let base = seed * 100 + n as u64;
                let on = scrambled(n, base);
                let dc = scrambled(n, base ^ 0xDC).difference(&on);
                let f = Isf::new(on, dc).unwrap();
                for (i, op) in BinaryOp::all().into_iter().enumerate() {
                    let g = seeded_divisor(&f, op, base ^ i as u64);
                    let h = full_quotient(&f, &g, op).unwrap();
                    cache.store(&f, &g, op, &h);

                    // A random NPN variant of the *pair* (f, g): inputs are
                    // transformed diagonally, the output complement of f
                    // complements the operator.
                    let mut rng = benchmarks::DetRng::seed_from_u64(base ^ 0xFACE ^ i as u64);
                    let mut next = || rng.next_u64();
                    let mut perm: Vec<u8> = (0..n as u8).collect();
                    for k in (1..n).rev() {
                        let j = (next() % (k as u64 + 1)) as usize;
                        perm.swap(k, j);
                    }
                    let t =
                        NpnTransform::new(perm, (next() as u32) & ((1 << n) - 1), next() & 1 == 1);
                    let f2 = t.apply_isf(&f);
                    let g2 = t.permute_table(&g);
                    let op2 = t.map_op(op);

                    let cold = full_quotient(&f2, &g2, op2).unwrap();
                    if let Some(cached) = cache.lookup(&f2, &g2, op2) {
                        hits += 1;
                        assert_eq!(cached, cold, "n={n} seed={seed} {op}: hit must be cold-exact");
                        assert!(verify_decomposition(&f2, &g2, &cached, op2));
                        assert!(verify_maximal_flexibility(&f2, &g2, &cached, op2));
                    }
                }
            }
        }
        // Random functions have trivial NPN stabilizers, so essentially
        // every transformed query lands on the stored key.
        assert!(hits >= 100, "only {hits} of 120 transformed lookups hit");
        assert_eq!(cache.stats().hits, hits);
    }

    #[test]
    fn quotient_keys_separate_operators_and_divisors() {
        let cache = NpnCache::new(64, 2);
        let f = Isf::from_cover_str(4, &["11-1", "-111"], &[]).unwrap();
        let g = boolfunc::Cover::from_strs(4, &["-1-1"]).unwrap().to_truth_table();
        let h = full_quotient(&f, &g, BinaryOp::And).unwrap();
        let canon = canonicalize(&f);
        cache.store_quotient(&canon, &g, BinaryOp::And, &h);
        // The admission probe sees the entry without recording a hit.
        assert!(cache.has_quotient(&canon, &g, BinaryOp::And));
        assert!(!cache.has_quotient(&canon, &g, BinaryOp::Or));
        assert_eq!(cache.stats().hits, 0, "probes must not count as hits");
        assert_eq!(cache.stats().misses, 0, "probes must not count as misses");
        // Same f and g, different op: distinct problem, must miss.
        assert_eq!(cache.lookup_quotient(&canon, &g, BinaryOp::ConverseNonImplication), None);
        // Same f and op, different g: must miss.
        let g2 = TruthTable::one(4);
        assert_eq!(cache.lookup_quotient(&canon, &g2, BinaryOp::And), None);
        assert_eq!(cache.lookup_quotient(&canon, &g, BinaryOp::And), Some(h));
    }

    #[test]
    fn synthesis_round_trip_rewires_to_the_queried_function() {
        use bidecomp::RecursiveSynthesizer;
        let cache = NpnCache::new(64, 2);
        let f = Isf::from_cover_str(4, &["1-10", "1-01", "-111", "-100"], &[]).unwrap();
        let result = RecursiveSynthesizer::default().synthesize(&f).unwrap();
        cache.store_synthesis(
            &canonicalize(&f),
            7,
            &result.network,
            result.flat_area,
            result.tree.depth(),
            result.tree.num_branches(),
        );
        // Query an NPN variant of f.
        let t = NpnTransform::new(vec![2, 0, 3, 1], 0b1010, true);
        let f2 = t.apply_isf(&f);
        let canon = canonicalize(&f2);
        let cached = cache.lookup_synthesis(&canon, 7).expect("same class must hit");
        assert_eq!(cached.depth, result.tree.depth());
        let rewired = canon.transform.inverse().rewire_network(&cached.network);
        assert!(
            bidecomp::verify_network(&f2, &rewired, 0),
            "the rewired network must realize the queried function"
        );
        // A different config fingerprint is a different problem.
        assert!(cache.lookup_synthesis(&canon, 8).is_none());
    }
}
