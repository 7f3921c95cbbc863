//! The repository benchmark. One command runs one workload and prints
//! every metric by name with its unit, then, as its last line, the JSON
//! result: `correct`, `attempted`, `failed` and the metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite-synth|service-cold --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root. With `--trace 0` it reports the
//! end-to-end metrics with nothing traced; with `--trace 1` it reports the
//! per-layer metrics of the traced replay instead. It exits non-zero when
//! any output is wrong. `README.md` beside this file lists the metrics and
//! which layer each one should move.

mod calib;
mod layers;
mod live;
mod replay;
mod service_replay;
mod stats;
mod suite;
mod trace;

use std::process::ExitCode;

use service::json::Value;

/// Replies per window of the service tail (p95, with 10 beyond it).
const TAIL_WINDOW: usize = 200;
/// Synthesized requests whose gates and area make up `service-cold`'s
/// quality figures.
const QUALITY_JOBS: usize = 300;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What a workload run produced.
#[derive(Debug)]
pub struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Context printed before the result.
    notes: Vec<String>,
    /// Wrong outputs; any makes the run incorrect.
    errors: Vec<String>,
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<Outcome, String> {
    match (args.workload.as_str(), args.trace) {
        ("suite-synth", true) => suite::run_traced(),
        ("suite-synth", false) => suite::run(args.seconds),
        ("service-cold", true) => service_replay::run_traced(args.seed, args.seconds),
        ("service-cold", false) => service_cold(args.seed, args.seconds),
        (other, _) => Err(format!("unknown workload '{other}'")),
    }
}

/// The end-to-end metrics of `service-cold`. Throughput and latency figures
/// are medians over the segments.
fn service_cold(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let run = live::run(seed, seconds)?;
    let segments = &run.segments;
    // The tail is taken per window of TAIL_WINDOW consecutive replies and
    // the windows' median reported: a scheduler stall on a shared host
    // spoils one window, not the run. The fixed window size fixes the
    // percentile level whatever the host's speed.
    let counted: Vec<f64> = segments.iter().flat_map(live::Segment::counted_ms).collect();
    let tails: Vec<stats::Tail> = counted
        .chunks_exact(TAIL_WINDOW)
        .filter_map(|window| stats::tail(&stats::sorted(window.to_vec())))
        .collect();
    if tails.is_empty() {
        return Err(format!("fewer than {TAIL_WINDOW} replies for a tail"));
    }
    let mut samples: Vec<&live::Sample> = segments.iter().flat_map(|s| &s.samples).collect();
    let attempted = samples.len() as u64;
    let failed: usize = segments.iter().map(live::Segment::failed).sum();
    // Quality is summed over a seed-fixed set of distinct functions: the
    // first QUALITY_JOBS synthesized requests (how many more complete
    // depends on the host's speed).
    samples.sort_by_key(|s| s.id);
    let synthesized: Vec<&live::Reply> =
        samples.iter().filter(|s| !s.decompose).map(|s| &s.reply).take(QUALITY_JOBS).collect();
    let gates: u64 = synthesized.iter().filter_map(|r| r.gates).sum();
    let area: f64 = synthesized.iter().filter_map(|r| r.mapped_area).sum();
    let median_of = |values: Vec<f64>| stats::median(&stats::sorted(values));
    let p50 = median_of(
        segments.iter().map(|s| stats::median(&stats::sorted(s.counted_ms().collect()))).collect(),
    );
    let tail = median_of(tails.iter().map(|t| t.value).collect());
    let throughput = median_of(segments.iter().map(live::Segment::throughput).collect());
    let mut notes = vec![
        format!("request stream fnv1a {:016x}", run.hash),
        format!(
            "{attempted} requests in {} segments, latency_tail_ms is the median over {} windows \
             of p{} ({} samples, {} beyond)",
            segments.len(),
            tails.len(),
            tails[0].level,
            tails[0].samples,
            tails[0].beyond,
        ),
        format!("{} quotients re-judged by the SAT oracle", run.oracle_checked),
    ];
    for s in segments {
        notes.push(format!(
            "segment (slowdown {:.3}): {} requests in {:.2} s, {} failed or later than {} ms",
            s.slowdown,
            s.samples.len(),
            s.wall_s,
            s.failed(),
            live::LIMIT_MS
        ));
    }
    let errors = run.errors;
    let metrics = vec![
        Metric::new("setup_s", run.setup_s, "s"),
        Metric::new("throughput_per_s", throughput, "1/s"),
        Metric::new("latency_p50_ms", p50, "ms"),
        Metric::new("latency_tail_ms", tail, "ms"),
        Metric::new("ok_share", 1.0 - failed as f64 / attempted as f64, "share"),
        Metric::new("total_gates", gates as f64, "count"),
        Metric::new("total_area", area, "area"),
        Metric::new("peak_rss_mb", run.peak_rss_mb, "MB"),
    ];
    Ok(Outcome {
        correct: errors.is_empty(),
        attempted,
        failed: failed as u64,
        metrics,
        notes,
        errors,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: workload {}, seed {}, {} s, trace {}, {threads} hardware threads",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "on" } else { "off" }
    );
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("  {note}");
    }
    for error in &outcome.errors {
        println!("  WRONG: {error}");
    }
    let mut correct = outcome.correct;
    let mut metrics = Vec::new();
    for m in &outcome.metrics {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            println!("  WRONG: {} is not a number", m.name);
            correct = false;
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let entry = Value::Object(vec![
            ("value".into(), Value::Num(value)),
            ("unit".into(), Value::Str(m.unit.into())),
        ]);
        metrics.push((m.name.to_string(), entry));
    }
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Num(outcome.attempted as f64)),
        ("failed".into(), Value::Num(outcome.failed as f64)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
