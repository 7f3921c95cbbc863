//! The batch decomposition sweep: runs `bidecomp::engine::sweep` on a
//! benchmark suite, times it against the pre-engine sequential/allocating
//! reference path, cross-checks that both paths agree job for job, and
//! serializes the result as `BENCH_sweep.json`.
//!
//! Usage (all flags optional):
//!
//! ```text
//! cargo run -p bidecomp-bench --release --bin sweep -- \
//!     [--suite smoke|table3|table4|all] [--threads N] [--seed N] \
//!     [--max-inputs N] [--max-outputs N] [--repeat N] [--json PATH] \
//!     [--write-baseline]
//! ```
//!
//! The `speedup` the CI gate consumes is measured with **both arms at one
//! thread** (reference wall time over single-threaded engine wall time), so
//! it isolates the hot-path rewrite and does not inflate with the host's
//! core count; the configured-`--threads` engine time is reported separately
//! as `engine_wall_ms`. Every arm runs `--repeat` times (default 3) and the
//! fastest run of each is used, so a scheduling hiccup on a noisy host does
//! not masquerade as a performance regression.
//!
//! `--write-baseline` additionally rewrites `BENCH_baseline.json`, the
//! committed reference the CI `bench-smoke` job guards with the `regress`
//! binary. Output lands in `BENCH_OUT_DIR` (default: working directory).

use std::process::ExitCode;
use std::time::Instant;

use benchmarks::Suite;
use bidecomp::engine::{seeded_divisor, sweep, EngineConfig, SweepReport};
use bidecomp::BinaryOp;
use bidecomp_bench::cli::{bench_out_path, ArgCursor};
use bidecomp_bench::json::{self, Value};
use boolfunc::{Isf, TruthTable};

/// The pre-engine reference path, kept verbatim so the speedup the engine
/// reports stays an apples-to-apples comparison: every set operation
/// allocates a fresh table (the old `quotient_sets`) and both verifications
/// walk the minterms one by one (the old `verify_*`).
mod reference {
    use super::*;

    pub fn quotient_sets(f: &Isf, g: &TruthTable, op: BinaryOp) -> (TruthTable, TruthTable) {
        let f_on = f.on();
        let f_dc = f.dc();
        let f_off = f.off();
        let g_on = g;
        let g_off = !g;
        let (on, dc) = match op {
            BinaryOp::And => (f_on.clone(), &g_off | f_dc),
            BinaryOp::ConverseNonImplication => (f_on.clone(), g_on | f_dc),
            BinaryOp::NonImplication => (f_off.difference(&g_off), &g_off | f_dc),
            BinaryOp::Nor => (f_off.difference(g_on), g_on | f_dc),
            BinaryOp::Or => (f_on.difference(g_on), g_on | f_dc),
            BinaryOp::Implication => (f_on.difference(&g_off), &g_off | f_dc),
            BinaryOp::ConverseImplication => (f_off.clone(), g_on | f_dc),
            BinaryOp::Nand => (f_off.clone(), &g_off | f_dc),
            BinaryOp::Xor => ((f_on ^ g_on).difference(f_dc), f_dc.clone()),
            BinaryOp::Xnor => ((&f_off ^ g_on).difference(f_dc), f_dc.clone()),
        };
        (on.difference(&dc), dc)
    }

    pub fn verify_decomposition(f: &Isf, g: &TruthTable, h: &Isf, op: BinaryOp) -> bool {
        for m in 0..(1u64 << f.num_vars()) {
            let Some(fv) = f.value(m) else { continue };
            let gv = g.get(m);
            let allowed: &[bool] = match h.value(m) {
                Some(true) => &[true],
                Some(false) => &[false],
                None => &[false, true],
            };
            if allowed.iter().any(|&hv| op.apply(gv, hv) != fv) {
                return false;
            }
        }
        true
    }

    pub fn verify_maximal_flexibility(f: &Isf, g: &TruthTable, h: &Isf, op: BinaryOp) -> bool {
        for m in 0..(1u64 << f.num_vars()) {
            let gv = g.get(m);
            let forced = match f.value(m) {
                None => None,
                Some(fv) => {
                    let ok_with_0 = op.apply(gv, false) == fv;
                    let ok_with_1 = op.apply(gv, true) == fv;
                    match (ok_with_0, ok_with_1) {
                        (true, true) => None,
                        (false, true) => Some(true),
                        (true, false) => Some(false),
                        (false, false) => return false,
                    }
                }
            };
            if h.value(m) != forced {
                return false;
            }
        }
        true
    }
}

struct Args {
    suite: String,
    config: EngineConfig,
    json_path: String,
    write_baseline: bool,
    repeat: usize,
}

/// Exits with code 2 on any unknown flag, missing value or unparsable
/// number (via [`ArgCursor`]): this binary feeds the CI gate and writes the
/// committed baseline, so silently falling back to defaults (the convention
/// the table bins use for scriptability) would be worse than refusing to
/// run.
fn parse_args() -> Args {
    let mut args = Args {
        suite: "all".to_string(),
        config: EngineConfig::default(),
        json_path: "BENCH_sweep.json".to_string(),
        write_baseline: false,
        repeat: 3,
    };
    let mut argv = ArgCursor::from_env("sweep");
    while let Some(flag) = argv.next_flag() {
        match flag.as_str() {
            "--suite" => args.suite = argv.value(&flag),
            "--threads" => args.config.threads = argv.number(&flag),
            "--seed" => args.config.seed = argv.number(&flag),
            "--max-inputs" => args.config.max_inputs = argv.number(&flag),
            "--max-outputs" => args.config.max_outputs = argv.number(&flag),
            "--repeat" => args.repeat = argv.number(&flag),
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

/// Runs every engine job through the reference path, returning
/// `(wall_micros, per-job (on, dc, verified, maximal))`.
fn run_reference(suite: &Suite, config: &EngineConfig) -> (u64, Vec<(u64, u64, bool, bool)>) {
    let mut results = Vec::new();
    let start = Instant::now();
    for (ii, inst) in suite.instances().iter().enumerate() {
        if inst.num_inputs() > config.max_inputs {
            continue;
        }
        for (oi, f) in inst.outputs().iter().take(config.max_outputs).enumerate() {
            for (ki, &op) in config.ops.iter().enumerate() {
                let g = seeded_divisor(f, op, config.job_seed(ii, oi, ki));
                let (on, dc) = reference::quotient_sets(f, &g, op);
                let h = Isf::new(on, dc).expect("Table II sets are disjoint");
                let verified = reference::verify_decomposition(f, &g, &h, op);
                let maximal = reference::verify_maximal_flexibility(f, &g, &h, op);
                results.push((h.on().count_ones(), h.dc().count_ones(), verified, maximal));
            }
        }
    }
    (start.elapsed().as_micros() as u64, results)
}

fn report_to_json(
    suite: &str,
    report: &SweepReport,
    engine_1t_micros: u64,
    sequential_micros: u64,
    speedup: f64,
) -> Value {
    let operators = report
        .operators
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("op".into(), json::s(s.op.symbol())),
                ("jobs".into(), json::num(s.jobs)),
                ("verified".into(), json::num(s.verified)),
                ("maximal".into(), json::num(s.maximal)),
                ("on_minterms".into(), json::num(s.on_minterms)),
                ("dc_minterms".into(), json::num(s.dc_minterms)),
                ("divisor_errors".into(), json::num(s.divisor_errors)),
                ("wall_ms".into(), Value::Num(s.nanos as f64 / 1e6)),
            ])
        })
        .collect();
    Value::Object(vec![
        ("schema".into(), json::s("bidecomp-sweep-v1")),
        ("suite".into(), json::s(suite)),
        ("threads".into(), json::num(report.threads as u64)),
        ("jobs".into(), json::num(report.jobs.len() as u64)),
        ("verified".into(), json::num(report.jobs.iter().filter(|j| j.verified).count() as u64)),
        ("maximal".into(), json::num(report.jobs.iter().filter(|j| j.maximal).count() as u64)),
        ("engine_wall_ms".into(), Value::Num(report.wall_micros as f64 / 1000.0)),
        ("engine_wall_1t_ms".into(), Value::Num(engine_1t_micros as f64 / 1000.0)),
        ("sequential_wall_ms".into(), Value::Num(sequential_micros as f64 / 1000.0)),
        ("speedup".into(), Value::Num((speedup * 1000.0).round() / 1000.0)),
        ("operators".into(), Value::Array(operators)),
    ])
}

fn main() -> ExitCode {
    let args = parse_args();
    let Some(suite) = suite_by_name(&args.suite) else {
        eprintln!("unknown suite '{}'; expected smoke, table3, table4 or all", args.suite);
        return ExitCode::FAILURE;
    };

    println!("== batch sweep: suite '{}' ({} instances) ==", suite.name(), suite.instances().len());
    let repeat = args.repeat.max(1);
    // The gated `speedup` is reference-vs-engine at ONE thread: both arms are
    // sequential, so the ratio isolates the hot-path rewrite and is
    // comparable across hosts with different core counts (a parallel ratio
    // would inflate with cores and desynchronize baseline and CI runners).
    let config_1t = EngineConfig { threads: 1, ..args.config.clone() };
    let (mut sequential_micros, reference_jobs) = run_reference(&suite, &args.config);
    let mut engine_1t_micros = sweep(&suite, &config_1t).wall_micros;
    let mut report = sweep(&suite, &args.config);
    for _ in 1..repeat {
        sequential_micros = sequential_micros.min(run_reference(&suite, &args.config).0);
        engine_1t_micros = engine_1t_micros.min(sweep(&suite, &config_1t).wall_micros);
        let rerun = sweep(&suite, &args.config);
        if rerun.wall_micros < report.wall_micros {
            report = rerun;
        }
    }
    let speedup = sequential_micros as f64 / engine_1t_micros.max(1) as f64;

    // Cross-check: the engine must agree with the reference path job for job.
    if report.jobs.len() != reference_jobs.len() {
        eprintln!(
            "FAIL: engine ran {} jobs, reference ran {}",
            report.jobs.len(),
            reference_jobs.len()
        );
        return ExitCode::FAILURE;
    }
    for (job, (on, dc, verified, maximal)) in report.jobs.iter().zip(&reference_jobs) {
        if (job.on_minterms, job.dc_minterms, job.verified, job.maximal)
            != (*on, *dc, *verified, *maximal)
        {
            eprintln!(
                "FAIL: {}[{}] {} diverges from the reference path",
                job.instance, job.output, job.op
            );
            return ExitCode::FAILURE;
        }
    }
    if !report.all_verified() {
        eprintln!("FAIL: some jobs did not verify");
        return ExitCode::FAILURE;
    }

    println!(
        "{} jobs on {} threads: engine {:.1} ms ({:.1} ms at 1 thread), \
         sequential/allocating {:.1} ms (hot-path speedup {speedup:.2}x)",
        report.jobs.len(),
        report.threads,
        report.wall_micros as f64 / 1000.0,
        engine_1t_micros as f64 / 1000.0,
        sequential_micros as f64 / 1000.0,
    );
    for s in &report.operators {
        println!(
            "  {:<4} {:>5} jobs  verified {:>5}  maximal {:>5}  |h_dc| {:>9}  {:>9.1} ms",
            s.op.symbol(),
            s.jobs,
            s.verified,
            s.maximal,
            s.dc_minterms,
            s.nanos as f64 / 1e6
        );
    }

    let doc = report_to_json(suite.name(), &report, engine_1t_micros, sequential_micros, speedup);
    let text = json::pretty(&doc);
    let path = bench_out_path(&args.json_path);
    if let Err(e) = std::fs::write(&path, &text) {
        eprintln!("could not write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", path.display());
    if args.write_baseline {
        let path = bench_out_path("BENCH_baseline.json");
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("could not write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}
