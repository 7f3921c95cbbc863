//! The traced run of `service-cold`: the segments are sent to the live
//! server with nothing traced, then the first requests of the seed's stream
//! are replayed in this process through the calls `service::server` makes
//! for them at this commit (the cache lookup, then the recursive synthesis
//! and the cache insert on a miss, or rewire, network verification and
//! mapping on a hit, for `synthesize`; divisor check, cache lookup,
//! quotient, insert and the decomposition verdicts for `decompose`). The
//! replay's answer must equal the server's reply field for field.

use std::collections::HashMap;
use std::time::Instant;

use bidecomp::approximation::is_valid_divisor;
use bidecomp::{
    full_quotient, verify_decomposition, verify_maximal_flexibility, verify_network,
    RecursiveConfig,
};
use service::json::Value;
use service::server::ServiceConfig;
use techmap::AreaModel;

use crate::layers::{self, Measured};
use crate::live::{self, Generator, Kind, Reply, Request, Sample};
use crate::replay::{Replay, ReplicaCache};
use crate::trace::{summarize, Tracer};
use crate::{stats, Outcome};

/// Requests replayed at most; a run serves thousands of syntheses, and
/// replaying each twice would outlast the run.
const REPLAY_MAX: usize = 400;

/// The replica's synthesis-configuration fingerprint: any constant works,
/// since the replica holds entries of one configuration only.
const CONFIG: u64 = 0;

/// The answer the server would give, in the fields compared with its reply.
#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Synthesize { gates: u64, depth: u64, branches: u64, mapped: u64, flat: u64, hit: bool },
    Decompose { on: u64, dc: u64, off: u64, verified: bool, maximal: bool, hit: bool },
    Invalid,
}

impl Answer {
    /// Whether a server reply says the same.
    fn matches(&self, r: &Reply) -> bool {
        let bits = |x: Option<f64>| x.map(f64::to_bits);
        match *self {
            Answer::Synthesize { gates, depth, branches, mapped, flat, hit } => {
                r.gates == Some(gates)
                    && r.depth == Some(depth)
                    && r.branches == Some(branches)
                    && bits(r.mapped_area) == Some(mapped)
                    && bits(r.flat_area) == Some(flat)
                    && r.hit == Some(hit)
            }
            Answer::Decompose { on, dc, off, verified, maximal, hit } => {
                r.verified == Some(verified)
                    && r.on_minterms == Some(on)
                    && r.dc_minterms == Some(dc)
                    && r.off_minterms == Some(off)
                    && r.maximal == Some(maximal)
                    && r.hit == Some(hit)
            }
            Answer::Invalid => r.ok == Some(false),
        }
    }
}

/// The worker's handling of one request, replayed.
fn serve(
    replay: &Replay,
    cache: &ReplicaCache,
    area: &AreaModel,
    t: &mut Tracer,
    r: &Request,
) -> Answer {
    let f = &r.f;
    match &r.kind {
        Kind::Synthesize => {
            // Functions are never repeated, but two of them can share an
            // NPN class, so a few syntheses take the hit path.
            if let Some((cached, canon)) = cache.lookup_synthesis(t, f, CONFIG) {
                let network = t.span("npn.rewire", |_| {
                    canon.transform.inverse().rewire_network(&cached.network)
                });
                if !t.span("verify.network", |_| verify_network(f, &network, 0)) {
                    return Answer::Invalid;
                }
                let mapped = t.span("techmap.map", |_| area.mapper().map(&network).area);
                return Answer::Synthesize {
                    gates: network.gate_count() as u64,
                    depth: cached.depth as u64,
                    branches: cached.branches as u64,
                    mapped: mapped.to_bits(),
                    flat: cached.flat_area.to_bits(),
                    hit: true,
                };
            }
            let result = replay.synthesize(t, f, 0);
            cache.store_synthesis(t, f, CONFIG, &result);
            Answer::Synthesize {
                gates: result.network.gate_count() as u64,
                depth: result.depth as u64,
                branches: result.branches as u64,
                mapped: result.mapped_area.to_bits(),
                flat: result.flat_area.to_bits(),
                hit: false,
            }
        }
        Kind::Decompose { g, op, .. } => {
            if !t.span("approx.validate", |_| is_valid_divisor(f, g, *op)) {
                return Answer::Invalid;
            }
            let (h, hit) = match cache.lookup_quotient(t, f, g, *op) {
                Some(h) => (h, true),
                None => {
                    let Ok(h) = t.span("quotient.full", |_| full_quotient(f, g, *op)) else {
                        return Answer::Invalid;
                    };
                    cache.store_quotient(t, f, g, *op, &h);
                    (h, false)
                }
            };
            let (verified, maximal) = t.span("verify.decompose", |_| {
                (verify_decomposition(f, g, &h, *op), verify_maximal_flexibility(f, g, &h, *op))
            });
            Answer::Decompose {
                on: h.on().count_ones(),
                dc: h.dc().count_ones(),
                off: h.off().count_ones(),
                verified,
                maximal,
                hit,
            }
        }
    }
}

/// One replay of `requests`, traced when `enabled`. Returns the answers,
/// each request's compute time in milliseconds, the wall time, the
/// recording and the replica.
fn replay_run(
    requests: &[Request],
    enabled: bool,
) -> (Vec<Answer>, Vec<f64>, f64, Tracer, ReplicaCache) {
    let defaults = ServiceConfig::default();
    let cache = ReplicaCache::new(defaults.cache_capacity, defaults.cache_shards);
    let replay = Replay::new(RecursiveConfig::default(), Some(&cache));
    let area = AreaModel::mcnc();
    let mut t = Tracer::new(Instant::now(), enabled);
    let mut answers = Vec::with_capacity(requests.len());
    let mut compute_ms = Vec::with_capacity(requests.len());
    let start = Instant::now();
    for (i, r) in requests.iter().enumerate() {
        t.set_job(i as u32);
        let begin = Instant::now();
        answers.push(t.span("server.request", |t| serve(&replay, &cache, &area, t, r)));
        compute_ms.push(begin.elapsed().as_secs_f64() * 1e3);
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    drop(replay);
    (answers, compute_ms, wall_ms, t, cache)
}

fn p50(values: impl Iterator<Item = f64>) -> f64 {
    let sorted = stats::sorted(values.collect());
    if sorted.is_empty() {
        0.0
    } else {
        stats::median(&sorted)
    }
}

fn tail(values: impl Iterator<Item = f64>) -> f64 {
    stats::tail(&stats::sorted(values.collect())).map_or(0.0, |t| t.value)
}

/// The traced run of `service-cold`.
pub fn run_traced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let run = live::run(seed, seconds)?;
    let samples: Vec<&Sample> = run.segments.iter().flat_map(|s| &s.samples).collect();
    let by_id: HashMap<u64, &Sample> = samples.iter().map(|s| (s.id, *s)).collect();
    // Every request sent was answered, so ids 1..=samples.len() all have
    // a reply.
    let requests: Vec<Request> = Generator::new(seed).take(REPLAY_MAX.min(samples.len())).collect();
    let (answers, traced_ms, traced_wall_ms, tracer, cache) = replay_run(&requests, true);
    let (_, untraced_ms, untraced_wall_ms, _, _) = replay_run(&requests, false);
    let summary = summarize(tracer.spans());

    let mut notes = Vec::new();
    let mut matched = 0usize;
    let mut waits = Vec::with_capacity(requests.len());
    for ((request, answer), compute) in requests.iter().zip(&answers).zip(&untraced_ms) {
        let s = by_id[&request.id];
        if answer.matches(&s.reply) {
            matched += 1;
        } else {
            notes.push(format!("replay diverged on request {}", request.id));
        }
        waits.push(s.latency_ms - compute);
    }
    let wall_ms: f64 = run.segments.iter().map(|s| s.wall_s * 1e3).sum();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    // The replayed prefix stands for every request.
    let busy_ms = untraced_ms.iter().sum::<f64>() / untraced_ms.len() as f64 * samples.len() as f64;
    let stat = |key: &str| run.server_stats.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    let replica = cache.stats();
    let measured = Measured {
        busy_share: busy_ms / (workers * wall_ms),
        idle_ms: workers * wall_ms - busy_ms,
        compute_ms: p50(traced_ms.iter().copied()),
        queue_wait_ms: p50(waits.iter().copied()),
        queue_wait_tail_ms: tail(waits.iter().copied()),
        peak_queue: stat("peak_queue"),
        sheds: stat("sheds"),
        miss_p50_ms: p50(samples
            .iter()
            .filter(|s| s.reply.hit == Some(false))
            .map(|s| s.latency_ms)),
        decompose_tail_ms: tail(samples.iter().filter(|s| s.decompose).map(|s| s.latency_ms)),
        cache_entries: replica.entries as f64,
        cache_evictions: replica.evictions as f64,
        overhead_share: traced_wall_ms / untraced_wall_ms - 1.0,
        coverage: summary.coverage(),
        replay_match: matched as f64 / answers.len() as f64,
    };
    notes.insert(
        0,
        format!(
            "{} requests served, the first {} replayed: {:.1} ms traced, {:.1} ms untraced",
            samples.len(),
            answers.len(),
            traced_wall_ms,
            untraced_wall_ms
        ),
    );
    Ok(Outcome {
        correct: run.errors.is_empty(),
        attempted: samples.len() as u64,
        failed: run.segments.iter().map(|s| s.failed() as u64).sum(),
        metrics: layers::metrics(&summary, &tracer, &measured),
        notes,
        errors: run.errors,
    })
}
