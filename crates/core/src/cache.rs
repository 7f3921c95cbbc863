//! Pluggable memoization of full-quotient results.
//!
//! The full quotient of Table II is the *unique* maximal-flexibility ISF for
//! a given `(f, g, op)` triple (Corollaries 1–4), so a cache hit is
//! guaranteed to be bit-identical to a cold computation: plugging a cache
//! into the recursive synthesizer never changes any reported number.
//!
//! It rarely saves work either. The quotient is a closed-form set
//! expression (0.4–0.7 µs at 9–12 inputs in a release build), while a
//! lookup in the NPN-keyed `service::NpnCache` first canonicalizes `f`
//! (0.03–0.16 ms at 9–12 inputs) and hits on few of the
//! subproblems any measured workload produces (79 of 633 lookups when
//! synthesizing `Suite::all()`). The batch sweeps and the
//! service therefore recompute every quotient below the request; the hook
//! stays for tools that replay the recursion against a cache.
//!
//! The trait lives here, in `core`, so the recursive synthesizer can consume
//! a cache without depending on any particular implementation;
//! `service::NpnCache` in the `bidecomp-service` crate, which sits *above*
//! this one in the dependency graph, implements it.

use std::fmt;
use std::sync::Arc;

use boolfunc::{Isf, TruthTable};

use crate::error::BidecompError;
use crate::operator::BinaryOp;
use crate::quotient::full_quotient;

/// A shared, thread-safe store of completed full-quotient results.
///
/// Implementations may normalize the key however they like (the service
/// crate canonicalizes `(f, g)` up to input permutation/negation and output
/// negation), but `lookup` must only ever return the exact full quotient of
/// the queried triple: because the full quotient is unique, any sound
/// normalization scheme satisfies this by construction.
///
/// A `lookup` hit also implies the divisor was valid for `op` (validity is
/// preserved by any sound normalization), so callers may skip the Table II
/// side-condition check on hits.
pub trait QuotientCache: Send + Sync + fmt::Debug {
    /// The cached full quotient of `(f, g, op)`, or `None` on a miss.
    fn lookup(&self, f: &Isf, g: &TruthTable, op: BinaryOp) -> Option<Isf>;

    /// Records the full quotient `h` of `(f, g, op)` for future lookups.
    fn store(&self, f: &Isf, g: &TruthTable, op: BinaryOp, h: &Isf);
}

/// The shared-ownership handle configuration structs carry: one cache can be
/// hit from every worker of a pool, every level of a recursion, and every
/// job of a server queue at once.
pub type SharedQuotientCache = Arc<dyn QuotientCache>;

/// [`full_quotient`] with an optional cache in front: on a hit the divisor
/// check and the Table II computation are both skipped (see
/// [`QuotientCache`] for why that is sound); on a miss the cold result is
/// stored before it is returned.
///
/// # Errors
///
/// Exactly the errors of [`full_quotient`] (only reachable on a miss).
pub fn cached_full_quotient(
    cache: Option<&dyn QuotientCache>,
    f: &Isf,
    g: &TruthTable,
    op: BinaryOp,
) -> Result<Isf, BidecompError> {
    let Some(cache) = cache else {
        return full_quotient(f, g, op);
    };
    if let Some(h) = cache.lookup(f, g, op) {
        return Ok(h);
    }
    let h = full_quotient(f, g, op)?;
    cache.store(f, g, op, &h);
    Ok(h)
}

/// A minimal exact-key [`QuotientCache`] used by the in-crate tests (the
/// NPN-canonical production cache lives in the `bidecomp-service` crate and
/// cannot be used here without a dependency cycle).
#[cfg(test)]
pub(crate) mod testutil {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    use super::*;

    /// `(f_on, f_dc, g)` words plus the operator.
    type Key = (Vec<u64>, Vec<u64>, Vec<u64>, BinaryOp);
    /// `(h_on, h_dc)` words.
    type Entry = (Vec<u64>, Vec<u64>);

    /// Exact-key map cache with hit/miss counters.
    #[derive(Debug, Default)]
    pub struct MapCache {
        map: Mutex<HashMap<Key, Entry>>,
        pub hits: AtomicU64,
        pub misses: AtomicU64,
    }

    fn key(f: &Isf, g: &TruthTable, op: BinaryOp) -> Key {
        (f.on().as_words().to_vec(), f.dc().as_words().to_vec(), g.as_words().to_vec(), op)
    }

    impl QuotientCache for MapCache {
        fn lookup(&self, f: &Isf, g: &TruthTable, op: BinaryOp) -> Option<Isf> {
            let map = self.map.lock().unwrap();
            match map.get(&key(f, g, op)) {
                Some((on, dc)) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    let n = f.num_vars();
                    let mut on_iter = on.iter().copied();
                    let mut dc_iter = dc.iter().copied();
                    let on = TruthTable::from_words(n, || on_iter.next().unwrap());
                    let dc = TruthTable::from_words(n, || dc_iter.next().unwrap());
                    Some(Isf::new(on, dc).expect("cached sets are disjoint"))
                }
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    None
                }
            }
        }

        fn store(&self, f: &Isf, g: &TruthTable, op: BinaryOp, h: &Isf) {
            let mut map = self.map.lock().unwrap();
            map.insert(key(f, g, op), (h.on().as_words().to_vec(), h.dc().as_words().to_vec()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::MapCache;
    use super::*;
    use crate::engine::seeded_divisor;
    use std::sync::atomic::Ordering;

    #[test]
    fn cached_quotient_is_bit_identical_to_cold() {
        let cache = MapCache::default();
        let f = Isf::from_cover_str(4, &["1-10", "1-01", "-111"], &["0000"]).unwrap();
        for (i, op) in BinaryOp::all().into_iter().enumerate() {
            let g = seeded_divisor(&f, op, 0xCAFE ^ i as u64);
            let cold = full_quotient(&f, &g, op).unwrap();
            let miss = cached_full_quotient(Some(&cache), &f, &g, op).unwrap();
            let hit = cached_full_quotient(Some(&cache), &f, &g, op).unwrap();
            assert_eq!(cold, miss, "{op}: miss path must equal the cold computation");
            assert_eq!(cold, hit, "{op}: hit path must equal the cold computation");
        }
        assert_eq!(cache.hits.load(Ordering::Relaxed), 10);
        assert_eq!(cache.misses.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn no_cache_falls_through_to_full_quotient() {
        let f = Isf::from_cover_str(3, &["11-"], &[]).unwrap();
        let g = seeded_divisor(&f, BinaryOp::And, 1);
        let h = cached_full_quotient(None, &f, &g, BinaryOp::And).unwrap();
        assert_eq!(h, full_quotient(&f, &g, BinaryOp::And).unwrap());
    }

    #[test]
    fn invalid_divisor_still_errors_through_the_cache() {
        let cache = MapCache::default();
        let f = Isf::from_cover_str(3, &["11-"], &[]).unwrap();
        let bad = TruthTable::zero(3); // AND needs f_on ⊆ g.
        assert!(cached_full_quotient(Some(&cache), &f, &bad, BinaryOp::And).is_err());
    }
}
