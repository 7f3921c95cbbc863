//! The observability overhead guard: runs the same sweep with the metrics
//! registry detached (`EngineConfig::obs = None`) and attached, interleaved,
//! and fails if instrumentation costs more than the allowed ratio — the
//! "metrics are effectively free" claim, kept honest by CI.
//!
//! Usage (all flags optional):
//!
//! ```text
//! cargo run -p bidecomp-bench --release --bin obs_overhead -- \
//!     [--suite smoke|table3|table4|all] [--threads N] [--seed N] \
//!     [--reps N] [--max-ratio F] [--json PATH] [--write-baseline]
//! ```
//!
//! Both arms run `--reps` times in strict alternation (off, on, off, on …)
//! so a thermal or scheduling drift hits both equally, and the fastest run
//! of each arm is compared — the same min-of-reps discipline the `sweep`
//! binary uses. The bin also cross-checks that the obs-on and obs-off
//! reports are semantically identical job for job (metrics must observe the
//! computation, never influence it).
//!
//! `--max-ratio` (default 1.03, i.e. ≤3% overhead) is the in-process
//! assertion; CI calls with a looser ratio to absorb shared-runner noise and
//! delegates the tight gate to `regress` against the committed
//! `BENCH_obs_overhead_baseline.json` (refreshed by `--write-baseline`),
//! whose spec holds the ratio under the absolute `obs-overhead` ceiling of
//! 1.10.
//! Output lands in `BENCH_OUT_DIR` (default: working directory).

use std::process::ExitCode;
use std::sync::Arc;

use benchmarks::Suite;
use bidecomp::engine::{sweep, EngineConfig, SweepReport};
use bidecomp_bench::cli::{bench_out_path, ArgCursor};
use bidecomp_bench::json::{self, Value};

struct Args {
    suite: String,
    config: EngineConfig,
    reps: usize,
    max_ratio: f64,
    json_path: String,
    write_baseline: bool,
}

/// Strict parsing (exit code 2 on any problem), like the other gate-feeding
/// binaries.
fn parse_args() -> Args {
    let mut args = Args {
        suite: "all".to_string(),
        config: EngineConfig::default(),
        reps: 3,
        max_ratio: 1.03,
        json_path: "BENCH_obs_overhead.json".to_string(),
        write_baseline: false,
    };
    let mut argv = ArgCursor::from_env("obs_overhead");
    while let Some(flag) = argv.next_flag() {
        match flag.as_str() {
            "--suite" => args.suite = argv.value(&flag),
            "--threads" => args.config.threads = argv.number(&flag),
            "--seed" => args.config.seed = argv.number(&flag),
            "--reps" => args.reps = argv.number(&flag),
            "--max-ratio" => args.max_ratio = argv.number(&flag),
            "--json" => args.json_path = argv.value(&flag),
            "--write-baseline" => args.write_baseline = true,
            other => argv.fail(format_args!("unknown argument {other}")),
        }
    }
    args
}

fn suite_by_name(name: &str) -> Option<Suite> {
    match name {
        "smoke" => Some(Suite::smoke()),
        "table3" => Some(Suite::table3()),
        "table4" => Some(Suite::table4()),
        "all" => Some(Suite::all()),
        _ => None,
    }
}

/// Job-for-job semantic equality of the two arms' reports: attaching a
/// registry must not change a single result bit.
fn reports_agree(off: &SweepReport, on: &SweepReport) -> bool {
    off.jobs.len() == on.jobs.len()
        && off.jobs.iter().zip(&on.jobs).all(|(a, b)| a.semantic() == b.semantic())
}

fn main() -> ExitCode {
    let args = parse_args();
    let Some(suite) = suite_by_name(&args.suite) else {
        eprintln!("unknown suite '{}'; expected smoke, table3, table4 or all", args.suite);
        return ExitCode::FAILURE;
    };

    let config_off = EngineConfig { obs: None, ..args.config.clone() };
    let config_on =
        EngineConfig { obs: Some(Arc::new(obs::Registry::new())), ..args.config.clone() };
    println!(
        "== observability overhead: suite '{}' ({} instances), {} reps per arm ==",
        suite.name(),
        suite.instances().len(),
        args.reps.max(1),
    );

    // Strict alternation: any drift over the run's duration (thermal,
    // scheduler, page cache) biases both arms the same way.
    let mut report_off = sweep(&suite, &config_off);
    let mut report_on = sweep(&suite, &config_on);
    if !reports_agree(&report_off, &report_on) {
        eprintln!("FAIL: attaching the registry changed the sweep's results");
        return ExitCode::FAILURE;
    }
    let (mut wall_off, mut wall_on) = (report_off.wall_micros, report_on.wall_micros);
    for _ in 1..args.reps.max(1) {
        report_off = sweep(&suite, &config_off);
        report_on = sweep(&suite, &config_on);
        wall_off = wall_off.min(report_off.wall_micros);
        wall_on = wall_on.min(report_on.wall_micros);
    }
    let ratio = wall_on as f64 / wall_off.max(1) as f64;

    println!(
        "{} jobs: obs off {:.1} ms, obs on {:.1} ms, ratio {:.3} (limit {:.3})",
        report_off.jobs.len(),
        wall_off as f64 / 1000.0,
        wall_on as f64 / 1000.0,
        ratio,
        args.max_ratio,
    );

    let doc = Value::Object(vec![
        ("schema".into(), json::s("bidecomp-obs-overhead-v1")),
        ("suite".into(), json::s(suite.name())),
        ("threads".into(), json::num(report_off.threads as u64)),
        ("jobs".into(), json::num(report_off.jobs.len() as u64)),
        ("reps".into(), json::num(args.reps.max(1) as u64)),
        ("wall_off_micros".into(), json::num(wall_off)),
        ("wall_on_micros".into(), json::num(wall_on)),
        ("overhead_ratio".into(), Value::Num((ratio * 1000.0).round() / 1000.0)),
    ]);
    let text = json::pretty(&doc);
    let path = bench_out_path(&args.json_path);
    if let Err(e) = std::fs::write(&path, &text) {
        eprintln!("could not write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", path.display());
    if args.write_baseline {
        let path = bench_out_path("BENCH_obs_overhead_baseline.json");
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("could not write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }

    if ratio > args.max_ratio {
        eprintln!(
            "FAIL: observability overhead {:.1}% exceeds the allowed {:.1}%",
            (ratio - 1.0) * 100.0,
            (args.max_ratio - 1.0) * 100.0,
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
