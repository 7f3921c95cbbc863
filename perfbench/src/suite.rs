//! `suite-synth`: every `(instance, output)` pair of `Suite::all()` through
//! `engine::sweep_synthesis` with the default configuration, one worker per
//! core. These are the paper's Table III/IV functions; recursion, espresso,
//! 2-SPP merging and area scoring do nearly all the work, while NPN, the
//! cache, sockets and the queue do none. The suite is fixed, so the seed
//! has no effect.

use std::collections::HashMap;
use std::time::Instant;

use benchmarks::Suite;
use bidecomp::engine::{run_pool, sweep_synthesis, SynthesisConfig, SynthesisJobResult};
use service::json::Value;

use crate::layers::{self, Measured};
use crate::replay::Replay;
use crate::trace::{summarize, Tracer};
use crate::{calib, peak_rss_mb, stats, Metric, Outcome};

/// The committed synthesis baseline every job is checked against.
const BASELINE: &str = "BENCH_synth_baseline.json";

/// The baseline's per-job row: gates, depth, branches, rounded mapped and
/// flat areas, verdict.
type Row = (u64, u64, u64, f64, f64, bool);

struct Baseline {
    total_gates: u64,
    rows: HashMap<(String, u64), Row>,
}

fn load_baseline() -> Result<Baseline, String> {
    let text = std::fs::read_to_string(BASELINE).map_err(|e| format!("{BASELINE}: {e}"))?;
    let doc = Value::parse(&text).map_err(|e| format!("{BASELINE}: {e}"))?;
    let total_gates =
        doc.get("total_gates").and_then(Value::as_u64).ok_or("baseline without total_gates")?;
    let mut rows = HashMap::new();
    for row in doc.get("instances").and_then(Value::as_array).ok_or("baseline without rows")? {
        let num = |key: &str| row.get(key).and_then(Value::as_f64);
        let key = (
            row.get("instance").and_then(Value::as_str).ok_or("row without instance")?.to_string(),
            row.get("output").and_then(Value::as_u64).ok_or("row without output")?,
        );
        let value = (|| {
            Some((
                row.get("gates")?.as_u64()?,
                row.get("depth")?.as_u64()?,
                row.get("branches")?.as_u64()?,
                num("mapped_area")?,
                num("flat_area")?,
                row.get("verified")?.as_bool()?,
            ))
        })()
        .ok_or_else(|| format!("malformed baseline row {key:?}"))?;
        rows.insert(key, value);
    }
    Ok(Baseline { total_gates, rows })
}

/// The synthesis baseline rounds areas to three decimals.
fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

fn matches_baseline(job: &SynthesisJobResult, baseline: &Baseline) -> bool {
    let key = (job.instance.clone(), job.output as u64);
    baseline.rows.get(&key).is_some_and(|&(gates, depth, branches, mapped, flat, verified)| {
        gates == job.gates as u64
            && depth == job.depth as u64
            && branches == job.branches as u64
            && (mapped - round3(job.mapped_area)).abs() < 1e-9
            && (flat - round3(job.flat_area)).abs() < 1e-9
            && verified == job.verified
    })
}

fn config() -> SynthesisConfig {
    SynthesisConfig {
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        ..SynthesisConfig::default()
    }
}

/// Setup repetitions: one takes a few milliseconds, so a single timing is
/// mostly noise.
const SETUPS: usize = 201;
/// Reference iterations timed beside each setup: 2 ms at nominal speed,
/// about one `Suite::all()`.
const SETUP_REFERENCE: u64 = 400_000;

/// Setup: building the suite with `Suite::all()`, timed [`SETUPS`] times
/// against the single-thread reference. Returns the suite and the median
/// time at nominal speed.
fn setup() -> (Suite, f64) {
    let (setup_s, suite) = calib::Reference::new(SETUP_REFERENCE).time(SETUPS, 1, Suite::all);
    (suite, setup_s)
}

/// Sweeps the suite until `seconds` are used (at least once), the host's
/// speed sampled through each sweep, and reports the end-to-end metrics at
/// nominal speed. A job's latency is its mean over the sweeps; the median
/// and the tail are taken over the 140 jobs.
pub fn run(seconds: f64) -> Result<Outcome, String> {
    let baseline = load_baseline()?;
    let (suite, setup_s) = setup();
    let config = config();
    let start = Instant::now();
    let mut reports = Vec::new();
    let mut slowdowns = Vec::new();
    loop {
        let (report, slowdown) = calib::monitored(|| sweep_synthesis(&suite, &config));
        reports.push(report);
        slowdowns.push(slowdown);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / reports.len() as f64 > seconds {
            break;
        }
    }

    let first = &reports[0];
    let mut errors = Vec::new();
    let mut failed = 0u64;
    for report in &reports {
        for (job, reference) in report.jobs.iter().zip(&first.jobs) {
            if !job.verified || job.semantic() != reference.semantic() {
                failed += 1;
                errors.push(format!("{}[{}] differs between sweeps", job.instance, job.output));
            }
        }
    }
    for job in first.jobs.iter().filter(|j| !matches_baseline(j, &baseline)) {
        failed += 1;
        errors.push(format!("{}[{}] differs from {BASELINE}", job.instance, job.output));
    }
    if first.total_gates() as u64 != baseline.total_gates {
        errors.push(format!(
            "total_gates {} differs from {BASELINE} ({})",
            first.total_gates(),
            baseline.total_gates
        ));
    }

    let attempted: u64 = reports.iter().map(|r| r.jobs.len() as u64).sum();
    let wall_s: f64 =
        reports.iter().zip(&slowdowns).map(|(r, slow)| r.wall_micros as f64 / 1e6 / slow).sum();
    // A sweep's slowdown has an error, and it skews all 140 jobs of the
    // sweep alike. A mean over the sweeps averages those errors; a median
    // picks one sweep's. With slowdowns from bracketing calibrations, in six
    // paired runs the mean cut the spread of the p50 from 0.09 to 0.03 and
    // of the tail from 0.12 to 0.08.
    let per_job_ms = stats::sorted(
        (0..first.jobs.len())
            .map(|j| {
                let total: f64 = reports
                    .iter()
                    .zip(&slowdowns)
                    .map(|(r, slow)| r.jobs[j].nanos as f64 / 1e6 / slow)
                    .sum();
                total / reports.len() as f64
            })
            .collect(),
    );
    let tail = stats::tail(&per_job_ms).ok_or("too few jobs for a tail")?;
    let throughput = attempted as f64 / wall_s;
    let notes = vec![
        format!(
            "{} sweeps of {} jobs on {} threads; host slowdown per sweep {:?}; wall at \
             nominal speed per sweep {:?} s",
            reports.len(),
            first.jobs.len(),
            first.threads,
            slowdowns.iter().map(|s| (s * 1000.0).round() / 1000.0).collect::<Vec<_>>(),
            reports
                .iter()
                .zip(&slowdowns)
                .map(|(r, slow)| (r.wall_micros as f64 / 1e3 / slow).round() / 1000.0)
                .collect::<Vec<_>>()
        ),
        format!(
            "latency_tail_ms is p{} over {} jobs ({} beyond)",
            tail.level, tail.samples, tail.beyond
        ),
    ];
    let metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("throughput_per_s", throughput, "1/s"),
        Metric::new("latency_p50_ms", stats::median(&per_job_ms), "ms"),
        Metric::new("latency_tail_ms", tail.value, "ms"),
        Metric::new("ok_share", 1.0 - failed as f64 / attempted as f64, "share"),
        Metric::new("total_gates", first.total_gates() as f64, "count"),
        Metric::new("total_area", first.jobs.iter().map(|j| j.mapped_area).sum(), "area"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    Ok(Outcome { correct: errors.is_empty(), attempted, failed, metrics, notes, errors })
}

/// Every job replayed through the traced replay on the engine's pool,
/// between two untraced sweeps whose mean wall is the overhead's base; the
/// replay must reproduce each job bit for bit.
pub fn run_traced() -> Result<Outcome, String> {
    let suite = Suite::all();
    let config = config();
    let reference = sweep_synthesis(&suite, &config);

    let instances = suite.instances();
    let mut specs = Vec::new();
    for (i, inst) in instances.iter().enumerate() {
        if inst.num_inputs() <= config.max_inputs {
            for o in 0..inst.num_outputs().min(config.max_outputs) {
                specs.push((i, o));
            }
        }
    }
    let epoch = Instant::now();
    let start = Instant::now();
    let jobs = run_pool(
        &specs,
        reference.threads,
        || Replay::new(config.recursive.clone(), None),
        |replay, &(i, o)| {
            let mut t = Tracer::new(epoch, true);
            t.set_job((i * 64 + o) as u32);
            let f = &instances[i].outputs()[o];
            let result = replay.synthesize(&mut t, f, config.job_seed(i, o));
            (result.fingerprint(), t)
        },
    );
    let wall_ns = start.elapsed().as_nanos() as f64;
    let untraced_ns =
        (reference.wall_micros + sweep_synthesis(&suite, &config).wall_micros) as f64 * 500.0;

    let mut tracer = Tracer::new(epoch, true);
    let mut matched = 0usize;
    let mut diverged = Vec::new();
    for ((fingerprint, t), program) in jobs.into_iter().zip(&reference.jobs) {
        let expected = (
            program.gates,
            program.depth,
            program.branches,
            program.mapped_area.to_bits(),
            program.flat_area.to_bits(),
            program.verified,
        );
        if fingerprint == expected {
            matched += 1;
        } else {
            diverged.push(format!("replay diverged on {}[{}]", program.instance, program.output));
        }
        tracer.absorb(t);
    }
    let summary = summarize(tracer.spans());
    let threads = reference.threads as f64;
    let measured = Measured {
        busy_share: summary.root_ns as f64 / (threads * wall_ns),
        idle_ms: (threads * wall_ns - summary.root_ns as f64) / 1e6,
        overhead_share: wall_ns / untraced_ns - 1.0,
        coverage: summary.coverage(),
        replay_match: matched as f64 / specs.len() as f64,
        ..Measured::default()
    };
    let mut notes = vec![format!(
        "replayed {} jobs on {} threads; untraced sweeps {:.1} ms on average, traced replay {:.1} ms",
        specs.len(),
        reference.threads,
        untraced_ns / 1e6,
        wall_ns / 1e6
    )];
    // A divergence is a finding about the trace, not a wrong answer.
    notes.extend(diverged);
    Ok(Outcome {
        correct: reference.all_verified(),
        attempted: specs.len() as u64,
        failed: reference.jobs.iter().filter(|j| !j.verified).count() as u64,
        metrics: layers::metrics(&summary, &tracer, &measured),
        notes,
        errors: Vec::new(),
    })
}
