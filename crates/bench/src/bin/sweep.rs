//! The batch decomposition sweep: runs `bidecomp::engine::sweep` on a
//! benchmark suite, times the engine's job body against the library's
//! per-minterm oracles, cross-checks the engine against them job for job,
//! and serializes the result as `BENCH_sweep.json`.
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
//! The `speedup` the CI gate consumes is a [`ReferenceArm`] over every job
//! of the sweep at one thread: the engine's job body (`quotient_sets` and
//! the word-parallel `verify_*_sets`) against the oracles
//! (`canonical_quotient`, built from the quotient's defining property, and
//! `verify_*_per_minterm`), both returning `(|h_on|, |h_dc|, verified,
//! maximal)`. The run fails unless both agree on every job and the
//! engine's report matches them. The ratio does not inflate with the
//! host's core count; the configured-`--threads` engine time is reported
//! separately as `engine_wall_ms`. Every arm runs `--repeat` times
//! (default 3) and the fastest run of each is used, so a scheduling hiccup
//! on a noisy host does not masquerade as a performance regression.
//!
//! `--write-baseline` additionally rewrites `BENCH_baseline.json`, the
//! committed reference the CI `bench-smoke` job guards with the `regress`
//! binary. Output lands in `BENCH_OUT_DIR` (default: working directory).

use std::process::ExitCode;

use bidecomp::engine::{seeded_divisor, sweep, EngineConfig, SweepReport};
use bidecomp::verify::canonical_quotient;
use bidecomp::{
    quotient_sets, verify_decomposition_per_minterm, verify_decomposition_sets,
    verify_maximal_flexibility_per_minterm, verify_maximal_flexibility_sets, BinaryOp,
};
use bidecomp_bench::cli::{suite_by_name, write_artifact, ArgCursor};
use bidecomp_bench::json::{self, Value};
use bidecomp_bench::ReferenceArm;
use boolfunc::{Isf, TruthTable};

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

/// One engine job's operands: the function, its seeded divisor and the
/// operator.
type Job<'a> = (&'a Isf, TruthTable, BinaryOp);

/// What both arms report per job: `(|h_on|, |h_dc|, verified, maximal)`.
type JobStats = (u64, u64, bool, bool);

/// The engine's dense jobs in its job order, each with the divisor the
/// engine seeds for it.
fn engine_jobs<'a>(suite: &'a benchmarks::Suite, config: &EngineConfig) -> Vec<Job<'a>> {
    let mut jobs = Vec::new();
    for (ii, inst) in suite.instances().iter().enumerate() {
        if inst.num_inputs() > config.max_inputs {
            continue;
        }
        for (oi, f) in inst.outputs().iter().take(config.max_outputs).enumerate() {
            for (ki, &op) in config.ops.iter().enumerate() {
                jobs.push((f, seeded_divisor(f, op, config.job_seed(ii, oi, ki)), op));
            }
        }
    }
    jobs
}

/// The engine's job body: Table II's closed forms and the word-parallel
/// verifiers.
fn engine_job((f, g, op): &Job<'_>) -> JobStats {
    let sets = quotient_sets(f, g, *op);
    let verified = verify_decomposition_sets(f, g, &sets.on, &sets.dc, *op);
    let maximal = verify_maximal_flexibility_sets(f, g, &sets.on, &sets.dc, *op);
    (sets.on.count_ones(), sets.dc.count_ones(), verified, maximal)
}

/// The oracle: the quotient from its defining property and the
/// per-minterm verifiers.
fn oracle_job((f, g, op): &Job<'_>) -> JobStats {
    let h = canonical_quotient(f, g, *op).expect("seeded divisors are valid for their operator");
    let verified = verify_decomposition_per_minterm(f, g, &h, *op);
    let maximal = verify_maximal_flexibility_per_minterm(f, g, &h, *op);
    (h.on().count_ones(), h.dc().count_ones(), verified, maximal)
}

fn report_to_json(suite: &str, report: &SweepReport, arm: &ReferenceArm) -> Value {
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
        ("engine_wall_1t_ms".into(), Value::Num(arm.fast_micros as f64 / 1000.0)),
        ("sequential_wall_ms".into(), Value::Num(arm.oracle_micros as f64 / 1000.0)),
        ("speedup".into(), Value::Num((arm.speedup() * 1000.0).round() / 1000.0)),
        ("operators".into(), Value::Array(operators)),
    ])
}

fn main() -> ExitCode {
    let args = parse_args();
    let suite = match suite_by_name(&args.suite) {
        Ok(suite) => suite,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    println!("== batch sweep: suite '{}' ({} instances) ==", suite.name(), suite.instances().len());
    let repeat = args.repeat.max(1);
    let mut report = sweep(&suite, &args.config);
    for _ in 1..repeat {
        let rerun = sweep(&suite, &args.config);
        if rerun.wall_micros < report.wall_micros {
            report = rerun;
        }
    }
    if report.jobs.is_empty() {
        eprintln!("FAIL: suite '{}' has no dense job to sweep", suite.name());
        return ExitCode::FAILURE;
    }

    let jobs = engine_jobs(&suite, &args.config);
    let arm = match ReferenceArm::measure(&jobs, repeat, engine_job, oracle_job) {
        Ok(arm) => arm,
        Err((i, engine, oracle)) => {
            eprintln!(
                "FAIL: job #{i}: the engine's job body gives (on, dc, verified, maximal) \
                 {engine:?}, the per-minterm oracle {oracle:?}"
            );
            return ExitCode::FAILURE;
        }
    };
    // The arm holds the job body to the oracle; the engine's report must
    // match the job body job for job.
    if report.jobs.len() != jobs.len() {
        eprintln!("FAIL: engine ran {} jobs, the oracle {}", report.jobs.len(), jobs.len());
        return ExitCode::FAILURE;
    }
    for (job, operands) in report.jobs.iter().zip(&jobs) {
        if (job.on_minterms, job.dc_minterms, job.verified, job.maximal) != engine_job(operands) {
            eprintln!(
                "FAIL: {}[{}] {} diverges from the per-minterm oracle",
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
        "{} jobs on {} threads: engine {:.1} ms; at 1 thread the job body {:.2} ms, \
         per-minterm oracle {:.1} ms (speedup {:.2}x)",
        report.jobs.len(),
        report.threads,
        report.wall_micros as f64 / 1000.0,
        arm.fast_micros as f64 / 1000.0,
        arm.oracle_micros as f64 / 1000.0,
        arm.speedup(),
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

    let doc = report_to_json(suite.name(), &report, &arm);
    if let Err(message) =
        write_artifact(&doc, &args.json_path, "BENCH_baseline.json", args.write_baseline)
    {
        eprintln!("{message}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
