//! The per-layer metrics of a traced run, assembled from the span summary,
//! the replay's counts and the figures each workload measures itself. Every
//! workload reports the same names; a layer a workload does not exercise
//! reads zero.

use crate::trace::{Summary, Tracer};
use crate::Metric;

/// Figures a workload measures outside the span recording.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Share of worker time spent on jobs.
    pub busy_share: f64,
    /// Worker time spent on no job, in milliseconds.
    pub idle_ms: f64,
    /// Median replayed compute per request, in milliseconds.
    pub compute_ms: f64,
    /// Median client latency minus replayed compute, in milliseconds.
    pub queue_wait_ms: f64,
    /// Tail of the same difference, in milliseconds.
    pub queue_wait_tail_ms: f64,
    /// Server-reported peak queue depth.
    pub peak_queue: f64,
    /// Server-reported sheds.
    pub sheds: f64,
    /// Median client latency of cache misses, in milliseconds.
    pub miss_p50_ms: f64,
    /// Tail client latency of `decompose` requests, in milliseconds.
    pub decompose_tail_ms: f64,
    /// Current entries of the replayed cache at the end.
    pub cache_entries: f64,
    /// Evictions of the replayed cache.
    pub cache_evictions: f64,
    /// Traced replay wall over the untraced run's wall, minus one.
    pub overhead_share: f64,
    /// Share of the root spans' time inside the layers' spans.
    pub coverage: f64,
    /// Share of jobs the replay reproduced exactly.
    pub replay_match: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn metrics(s: &Summary, t: &Tracer, m: &Measured) -> Vec<Metric> {
    let count = |name: &str| t.get(name) as f64;
    let calls = |name: &str| s.of(name).calls as f64;
    let candidates = count("recursive.candidates");
    let sop_calls = calls("sop.espresso");
    let lookups = count("cache.lookups");
    vec![
        Metric::new("engine.busy_share", m.busy_share, "share"),
        Metric::new("engine.idle_ms", m.idle_ms, "ms"),
        Metric::new("recursive.nodes", calls("recursive.node"), "count"),
        Metric::new("recursive.candidates", candidates, "count"),
        Metric::new("recursive.win_share", ratio(count("recursive.wins"), candidates), "share"),
        Metric::new(
            "recursive.duplicate_divisor_share",
            ratio(count("recursive.duplicate_divisors"), candidates),
            "share",
        ),
        Metric::new(
            "recursive.self_ms",
            s.self_ms("recursive.synthesize") + s.self_ms("recursive.node"),
            "ms",
        ),
        Metric::new("approx.calls", calls("approx.divisor"), "count"),
        Metric::new("approx.ms", s.total_ms("approx.divisor"), "ms"),
        Metric::new("quotient.calls", calls("quotient.full"), "count"),
        Metric::new("quotient.ms", s.total_ms("quotient.full"), "ms"),
        Metric::new("sop.calls", sop_calls, "count"),
        Metric::new("sop.ms", s.total_ms("sop.espresso"), "ms"),
        Metric::new("sop.off_set_ms", s.total_ms("sop.off_set"), "ms"),
        Metric::new("sop.expand_ms", s.total_ms("sop.expand"), "ms"),
        Metric::new("sop.irredundant_ms", s.total_ms("sop.irredundant"), "ms"),
        Metric::new("sop.reduce_ms", s.total_ms("sop.reduce"), "ms"),
        Metric::new("sop.rounds", count("sop.rounds"), "count"),
        Metric::new("sop.cubes_out", count("sop.cubes_out"), "count"),
        Metric::new("sop.repeat_share", ratio(count("sop.repeats"), sop_calls), "share"),
        Metric::new("spp.merge_calls", calls("spp.merge"), "count"),
        Metric::new("spp.merge_ms", s.total_ms("spp.merge"), "ms"),
        Metric::new("spp.merged_terms", count("spp.merged_terms"), "count"),
        Metric::new("techmap.area_calls", calls("techmap.area"), "count"),
        Metric::new("techmap.area_ms", s.total_ms("techmap.area"), "ms"),
        Metric::new("techmap.build_ms", s.total_ms("techmap.build"), "ms"),
        Metric::new("techmap.map_ms", s.total_ms("techmap.map"), "ms"),
        Metric::new("verify.network_calls", calls("verify.network"), "count"),
        Metric::new("verify.network_ms", s.total_ms("verify.network"), "ms"),
        Metric::new("verify.decompose_ms", s.total_ms("verify.decompose"), "ms"),
        Metric::new("npn.calls", calls("npn.canonicalize"), "count"),
        Metric::new("npn.canonicalize_ms", s.total_ms("npn.canonicalize"), "ms"),
        Metric::new("npn.rewire_ms", s.total_ms("npn.rewire"), "ms"),
        Metric::new("cache.lookups", lookups, "count"),
        Metric::new("cache.lookup_us", ratio(s.total_ms("cache.lookup") * 1e3, lookups), "us"),
        Metric::new("cache.inserts", count("cache.inserts"), "count"),
        Metric::new("cache.evictions", m.cache_evictions, "count"),
        Metric::new("cache.entries", m.cache_entries, "count"),
        Metric::new("server.compute_ms", m.compute_ms, "ms"),
        Metric::new("server.queue_wait_ms", m.queue_wait_ms, "ms"),
        Metric::new("server.queue_wait_tail_ms", m.queue_wait_tail_ms, "ms"),
        Metric::new("server.peak_queue", m.peak_queue, "count"),
        Metric::new("server.sheds", m.sheds, "count"),
        Metric::new("server.miss_p50_ms", m.miss_p50_ms, "ms"),
        Metric::new("server.decompose_tail_ms", m.decompose_tail_ms, "ms"),
        Metric::new("trace.overhead_share", m.overhead_share, "share"),
        Metric::new("trace.coverage", m.coverage, "share"),
        Metric::new("trace.replay_match", m.replay_match, "share"),
    ]
}
