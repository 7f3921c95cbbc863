//! Zero-dependency observability runtime for the bi-decomposition stack.
//!
//! Every layer of the workspace (engine sweeps, BDD managers, the NPN cache,
//! the `bidecompd` server) reports health through one [`Registry`] of named
//! metrics:
//!
//! * [`Counter`] — a monotonically increasing `AtomicU64`, bumped with
//!   `Relaxed` ordering (an uncontended atomic add on the hot path);
//! * [`Gauge`] — a point-in-time value plus its observed peak
//!   (`set` + `fetch_max`), used for queue depth and node counts;
//! * [`Histogram`] — a log₂-bucketed latency histogram with **fixed bucket
//!   edges**, so its serialization is a deterministic function of the
//!   recorded values and quantiles are exact arithmetic over bucket counts
//!   (cumulative walk + linear interpolation within the bucket);
//!
//! Hot loops that cannot afford even a relaxed atomic per event record into a
//! plain per-worker [`LocalHistogram`] (or accumulate plain `u64`s) and merge
//! into the shared registry once, when the worker retires. Handles are cheap
//! `Arc` clones; the registry mutex is touched only at registration and
//! snapshot time, never on the record path.
//!
//! **Metrics never influence results.** Nothing in this crate feeds back into
//! decomposition: callers only read clocks and bump counts, and every
//! semantic fingerprint in the workspace is computed from result data that
//! excludes observability state. The engine's determinism tests pin this by
//! running identical sweeps with and without a registry attached.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Number of histogram buckets. Bucket `0` holds the value `0`; bucket `i`
/// (for `1 <= i < BUCKETS - 1`) holds values in `[2^(i-1), 2^i)`; the last
/// bucket is open-ended. With 40 buckets the penultimate edge is `2^38` µs
/// (~76 hours), far beyond any latency this stack produces.
pub const BUCKETS: usize = 40;

/// The bucket index a value lands in. Pure and total: the edges are fixed at
/// compile time, so two histograms fed the same multiset of values are
/// bit-identical regardless of thread count or record order.
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        let bits = 64 - value.leading_zeros() as usize;
        bits.min(BUCKETS - 1)
    }
}

/// Inclusive lower edge of bucket `index`.
#[must_use]
pub fn bucket_lower(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << (index - 1)
    }
}

/// Exclusive upper edge of bucket `index` (the last bucket is open-ended in
/// practice; for interpolation it is treated as one octave wide).
#[must_use]
pub fn bucket_upper(index: usize) -> u64 {
    1u64 << index
}

/// A monotonically increasing counter. Clones share the same cell.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh counter at zero, not attached to any registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A point-in-time value with peak tracking. Clones share the same cells.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    current: Arc<AtomicU64>,
    peak: Arc<AtomicU64>,
}

impl Gauge {
    /// A fresh gauge at zero, not attached to any registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the current value, updating the peak if exceeded.
    pub fn set(&self, value: u64) {
        self.current.store(value, Ordering::Relaxed);
        self.peak.fetch_max(value, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    /// Highest value ever passed to [`Gauge::set`].
    #[must_use]
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// A shared log₂-bucketed histogram. Clones share the same buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramCells>,
}

#[derive(Debug)]
struct HistogramCells {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            inner: Arc::new(HistogramCells {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }
}

impl Histogram {
    /// A fresh empty histogram, not attached to any registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one value (typically microseconds).
    pub fn record(&self, value: u64) {
        self.inner.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// A plain-data copy of the current state.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> =
            self.inner.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        HistogramSnapshot {
            counts,
            count: self.inner.count.load(Ordering::Relaxed),
            sum: self.inner.sum.load(Ordering::Relaxed),
        }
    }
}

/// A per-worker histogram with no atomics: record on the hot path for free,
/// then [`LocalHistogram::merge_into`] a shared [`Histogram`] once when the
/// worker retires.
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        LocalHistogram { counts: [0; BUCKETS], count: 0, sum: 0 }
    }
}

impl LocalHistogram {
    /// A fresh empty local histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one value.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Fold this worker's buckets into a shared histogram. One atomic add per
    /// non-empty bucket — independent of how many values were recorded.
    pub fn merge_into(&self, target: &Histogram) {
        for (index, &n) in self.counts.iter().enumerate() {
            if n != 0 {
                target.inner.buckets[index].fetch_add(n, Ordering::Relaxed);
            }
        }
        if self.count != 0 {
            target.inner.count.fetch_add(self.count, Ordering::Relaxed);
            target.inner.sum.fetch_add(self.sum, Ordering::Relaxed);
        }
    }

    /// A plain-data copy of the current state.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot { counts: self.counts.to_vec(), count: self.count, sum: self.sum }
    }
}

/// Plain-data histogram state: per-bucket counts plus total count and sum.
/// Quantiles are computed here, deterministically, from the bucket counts
/// alone.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Count per bucket; `counts.len() == BUCKETS` when non-empty.
    pub counts: Vec<u64>,
    /// Total number of recorded values (equals the sum of `counts`).
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean of the recorded values (`0.0` when empty). Exact: `sum` is the
    /// true sum, not a bucket approximation.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 <= q <= 1.0`) estimated from bucket counts: a
    /// cumulative walk locates the bucket holding the target rank, then the
    /// value is linearly interpolated between the bucket's edges by the rank's
    /// position among that bucket's samples. A pure function of the counts —
    /// identical for any thread count or record order that produced them.
    /// Returns `0.0` for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (index, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if cum + n >= target {
                let position = target - cum; // 1-based rank within this bucket
                let lower = bucket_lower(index) as f64;
                let width = (bucket_upper(index) - bucket_lower(index)) as f64;
                return lower + width * (position as f64 / n as f64);
            }
            cum += n;
        }
        // Unreachable when count equals the sum of counts; fall back to the
        // top edge rather than panic if the two ever disagree.
        bucket_upper(BUCKETS - 1) as f64
    }
}

/// Point-in-time value and peak of a [`Gauge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GaugeSnapshot {
    /// Last value set.
    pub current: u64,
    /// Highest value ever set.
    pub peak: u64,
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A named collection of metrics. Registration hands out cheap clonable
/// handles; the internal mutex is only taken to register or snapshot, so the
/// record path never locks. Names are free-form dotted strings
/// (`"server.latency.decompose"`); snapshots iterate in sorted name order, so
/// serialization is deterministic.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

/// Plain-data copy of a whole registry, each section sorted by name.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, GaugeSnapshot)>,
    /// `(name, state)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn with_metrics<T>(&self, f: impl FnOnce(&mut BTreeMap<String, Metric>) -> T) -> T {
        let mut metrics = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut metrics)
    }

    /// The counter named `name`, registering it at zero on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a gauge or histogram.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        self.with_metrics(|metrics| {
            let metric =
                metrics.entry(name.to_string()).or_insert_with(|| Metric::Counter(Counter::new()));
            match metric {
                Metric::Counter(c) => c.clone(),
                other => panic!("metric '{name}' already registered as a {}", other.kind()),
            }
        })
    }

    /// The gauge named `name`, registering it at zero on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a counter or histogram.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        self.with_metrics(|metrics| {
            let metric =
                metrics.entry(name.to_string()).or_insert_with(|| Metric::Gauge(Gauge::new()));
            match metric {
                Metric::Gauge(g) => g.clone(),
                other => panic!("metric '{name}' already registered as a {}", other.kind()),
            }
        })
    }

    /// The histogram named `name`, registering it empty on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a counter or gauge.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        self.with_metrics(|metrics| {
            let metric = metrics
                .entry(name.to_string())
                .or_insert_with(|| Metric::Histogram(Histogram::new()));
            match metric {
                Metric::Histogram(h) => h.clone(),
                other => panic!("metric '{name}' already registered as a {}", other.kind()),
            }
        })
    }

    /// Convenience: bump the counter `name` by `n` (registering it on first
    /// use). Intended for merge points, not hot loops — hot paths should hold
    /// a [`Counter`] handle or accumulate locally.
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Plain-data copy of every metric, sections sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        self.with_metrics(|metrics| {
            let mut snapshot = Snapshot::default();
            for (name, metric) in metrics.iter() {
                match metric {
                    Metric::Counter(c) => snapshot.counters.push((name.clone(), c.get())),
                    Metric::Gauge(g) => snapshot
                        .gauges
                        .push((name.clone(), GaugeSnapshot { current: g.get(), peak: g.peak() })),
                    Metric::Histogram(h) => {
                        snapshot.histograms.push((name.clone(), h.snapshot()));
                    }
                }
            }
            snapshot
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_partition_the_line() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Every value lands in the bucket whose [lower, upper) range holds it.
        for value in [0u64, 1, 2, 5, 17, 1000, 123_456, 1 << 37, (1 << 38) + 1] {
            let b = bucket_index(value);
            assert!(value >= bucket_lower(b));
            if b < BUCKETS - 1 {
                assert!(value < bucket_upper(b));
            }
        }
    }

    #[test]
    fn histogram_sum_and_count_match_contributions() {
        let h = Histogram::new();
        let values = [0u64, 1, 3, 3, 90, 1500, 1500, 1 << 20];
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, values.len() as u64);
        assert_eq!(snap.sum, values.iter().sum::<u64>());
        // Total bucket contributions equal the count.
        assert_eq!(snap.counts.iter().sum::<u64>(), snap.count);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let h = Histogram::new();
        for v in 0..1000u64 {
            h.record(v * 7);
        }
        let snap = h.snapshot();
        // Monotone CDF: quantile is non-decreasing in q.
        let mut last = f64::NEG_INFINITY;
        for step in 0..=100 {
            let q = step as f64 / 100.0;
            let value = snap.quantile(q);
            assert!(value >= last, "quantile({q}) = {value} < {last}");
            last = value;
        }
        assert!(snap.quantile(0.5) <= snap.quantile(0.99));
        // Quantiles stay within the recorded range's bucket edges.
        let max_bucket = bucket_index(999 * 7);
        assert!(snap.quantile(1.0) <= bucket_upper(max_bucket) as f64);
        assert!(snap.quantile(0.0) >= 0.0);
    }

    #[test]
    fn quantile_interpolates_within_a_single_bucket() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(600); // bucket [512, 1024)
        }
        let snap = h.snapshot();
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            let value = snap.quantile(q);
            assert!((512.0..=1024.0).contains(&value), "quantile({q}) = {value}");
        }
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.quantile(0.5), 0.0);
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn local_histogram_merges_exactly() {
        let shared = Histogram::new();
        let mut local = LocalHistogram::new();
        let direct = Histogram::new();
        for v in [0u64, 1, 9, 80, 80, 4096] {
            local.record(v);
            direct.record(v);
        }
        local.merge_into(&shared);
        assert_eq!(shared.snapshot(), direct.snapshot());
        assert_eq!(local.snapshot(), direct.snapshot());
        assert_eq!(local.count(), 6);
    }

    #[test]
    fn merge_is_thread_count_invariant() {
        // The same multiset of values recorded by 1 thread or 8 threads must
        // produce bit-identical snapshots.
        let sequential = Histogram::new();
        for worker in 0..8u64 {
            for i in 0..500u64 {
                sequential.record(worker * 1000 + i * 3);
            }
        }
        let concurrent = Histogram::new();
        std::thread::scope(|scope| {
            for worker in 0..8u64 {
                let target = &concurrent;
                scope.spawn(move || {
                    let mut local = LocalHistogram::new();
                    for i in 0..500u64 {
                        local.record(worker * 1000 + i * 3);
                    }
                    local.merge_into(target);
                });
            }
        });
        assert_eq!(sequential.snapshot(), concurrent.snapshot());
    }

    #[test]
    fn counters_and_gauges_track() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let clone = c.clone();
        clone.inc();
        assert_eq!(c.get(), 6, "clones share the same cell");

        let g = Gauge::new();
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
        assert_eq!(g.peak(), 7);
    }

    #[test]
    fn registry_snapshot_is_sorted_and_stable() {
        let registry = Registry::new();
        registry.counter("z.last").add(2);
        registry.counter("a.first").add(1);
        registry.gauge("m.depth").set(5);
        registry.histogram("m.latency").record(100);
        let snap = registry.snapshot();
        let counter_names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(counter_names, ["a.first", "z.last"]);
        assert_eq!(snap.gauges[0].0, "m.depth");
        assert_eq!(snap.gauges[0].1, GaugeSnapshot { current: 5, peak: 5 });
        assert_eq!(snap.histograms[0].0, "m.latency");
        assert_eq!(snap.histograms[0].1.count, 1);
        // Re-registering returns a handle to the same cell.
        registry.counter("a.first").inc();
        assert_eq!(registry.snapshot().counters[0].1, 2);
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn registry_rejects_kind_mismatch() {
        let registry = Registry::new();
        let _ = registry.counter("dual");
        let _ = registry.gauge("dual");
    }
}
