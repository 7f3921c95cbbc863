//! The recursive-synthesis sweep: runs `bidecomp::engine::sweep_synthesis`
//! on a benchmark suite — every `(instance, output)` pair through the
//! cost-driven recursive bi-decomposition synthesizer — checks that every
//! produced network verified against its function, and serializes the
//! result as `BENCH_synth.json`.
//!
//! Usage (all flags optional):
//!
//! ```text
//! cargo run -p bidecomp-bench --release --bin synth_sweep -- \
//!     [--suite smoke|table3|table4|all] [--threads N] [--seed N] \
//!     [--max-inputs N] [--max-outputs N] [--depth N] [--min-gain F] \
//!     [--json PATH] [--write-baseline]
//! ```
//!
//! The artifact follows the sweep-v1 style: a few exact aggregate counters
//! the CI gate compares bit for bit (`jobs`, `verified`, `total_gates`,
//! `total_branches`), rounded deterministic areas, and one row per
//! `(instance, output)` with gate count, depth, mapped area and the gain
//! over the flat 2-SPP realization. Everything except the wall times and
//! the espresso speedup is a pure function of `(suite, config)` — the
//! `regress` binary checks it against the committed
//! `BENCH_synth_baseline.json` exactly.
//!
//! The `espresso` block is an in-process reference arm: the dense
//! minimizer synthesis runs on (`sop::espresso_isf`) and the cube-list
//! `sop::espresso_cover` on minterm covers, both over the suite's output
//! functions at one thread, fastest of three runs each. The run fails
//! unless both return the same cube list for every function; `regress`
//! holds their wall ratio (`speedup`) inside a tolerance band.
//!
//! The `verify` block does the same for network verification: each output
//! function is synthesized once more on one thread, and the word-parallel
//! `bidecomp::verify_network` is timed against its per-minterm oracle
//! `verify_network_per_minterm` on those networks. The run fails unless
//! both give the same verdict on every network; `regress` gates the ratio
//! like the espresso one.
//!
//! `--write-baseline` additionally rewrites `BENCH_synth_baseline.json`.
//! Output lands in `BENCH_OUT_DIR` (default: working directory).

use std::process::ExitCode;

use benchmarks::Suite;
use bidecomp::engine::{sweep_synthesis, SynthesisConfig, SynthesisReport};
use bidecomp::{verify_network, verify_network_per_minterm, RecursiveSynthesizer};
use bidecomp_bench::cli::{bench_out_path, ArgCursor};
use bidecomp_bench::json::{self, Value};
use bidecomp_bench::ReferenceArm;
use boolfunc::Isf;
use sop::{espresso_cover, espresso_isf, EspressoOptions};
use techmap::Network;

struct Args {
    suite: String,
    config: SynthesisConfig,
    json_path: String,
    write_baseline: bool,
}

/// Exits with code 2 on any unknown flag, missing value or unparsable
/// number (via [`ArgCursor`]): this binary feeds the CI gate and writes the
/// committed baseline, so silently falling back to defaults would be worse
/// than refusing to run.
fn parse_args() -> Args {
    let mut args = Args {
        suite: "all".to_string(),
        config: SynthesisConfig::default(),
        json_path: "BENCH_synth.json".to_string(),
        write_baseline: false,
    };
    let mut argv = ArgCursor::from_env("synth_sweep");
    while let Some(flag) = argv.next_flag() {
        match flag.as_str() {
            "--suite" => args.suite = argv.value(&flag),
            "--threads" => args.config.threads = argv.number(&flag) as usize,
            "--seed" => args.config.seed = argv.number(&flag),
            "--max-inputs" => args.config.max_inputs = argv.number(&flag) as usize,
            "--max-outputs" => args.config.max_outputs = argv.number(&flag) as usize,
            "--depth" => args.config.recursive.max_depth = argv.number(&flag) as usize,
            "--min-gain" => args.config.recursive.min_gain = argv.float(&flag),
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

/// Rounds to 3 decimals so the serialized artifact is stable and readable;
/// the underlying computation is deterministic, so the rounded value is too.
fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// Runs per arm of the in-process reference arms.
const REPEATS: usize = 3;

/// Every output function the sweep synthesizes, in sweep order.
fn suite_functions<'a>(suite: &'a Suite, config: &SynthesisConfig) -> Vec<&'a Isf> {
    suite
        .instances()
        .iter()
        .filter(|inst| inst.num_inputs() <= config.max_inputs)
        .flat_map(|inst| inst.outputs().iter().take(config.max_outputs))
        .collect()
}

/// Times the dense minimizer (`espresso_isf`, the production path) against
/// its cube-list oracle (`espresso_cover` on minterm covers) on every output
/// function the sweep synthesizes, and checks that both return the same
/// cube list for each.
fn espresso_arm(functions: &[&Isf]) -> Result<ReferenceArm, String> {
    let options = EspressoOptions::default();
    ReferenceArm::measure(
        functions,
        REPEATS,
        |f| espresso_isf(f, options),
        |f| espresso_cover(&f.on_cover(), &f.dc_cover(), options),
    )
    .map_err(|(i, dense, cube_list)| {
        format!(
            "function #{i}: the dense espresso cover differs from the cube-list one\n  \
             dense:     {dense}\n  cube-list: {cube_list}"
        )
    })
}

/// Synthesizes every output function once more on this thread, then times
/// the word-parallel `verify_network` against its per-minterm oracle over
/// the resulting networks; fails unless their verdicts agree on every one.
fn verify_arm(functions: &[&Isf], config: &SynthesisConfig) -> Result<ReferenceArm, String> {
    let synthesizer = RecursiveSynthesizer::new(config.recursive.clone());
    let cases = functions
        .iter()
        .map(|&f| synthesizer.synthesize(f).map(|result| (f, result.network)))
        .collect::<Result<Vec<(&Isf, Network)>, _>>()
        .map_err(|e| format!("synthesis failed: {e}"))?;
    ReferenceArm::measure(
        &cases,
        REPEATS,
        |(f, net)| verify_network(f, net, 0),
        |(f, net)| verify_network_per_minterm(f, net, 0),
    )
    .map_err(|(i, word, per_minterm)| {
        format!(
            "network #{i}: word-parallel verify_network says {word}, \
             the per-minterm oracle {per_minterm}"
        )
    })
}

fn report_to_json(
    report: &SynthesisReport,
    espresso: &ReferenceArm,
    verify: &ReferenceArm,
) -> Value {
    let instances = report
        .jobs
        .iter()
        .map(|j| {
            Value::Object(vec![
                ("instance".into(), json::s(j.instance.as_str())),
                ("output".into(), json::num(j.output as u64)),
                ("num_vars".into(), json::num(j.num_vars as u64)),
                ("gates".into(), json::num(j.gates as u64)),
                ("depth".into(), json::num(j.depth as u64)),
                ("branches".into(), json::num(j.branches as u64)),
                ("mapped_area".into(), Value::Num(round3(j.mapped_area))),
                ("flat_area".into(), Value::Num(round3(j.flat_area))),
                ("gain_percent".into(), Value::Num(round3(j.gain_percent()))),
                ("verified".into(), Value::Bool(j.verified)),
            ])
        })
        .collect();
    let total_branches: u64 = report.jobs.iter().map(|j| j.branches as u64).sum();
    Value::Object(vec![
        ("schema".into(), json::s("bidecomp-synth-v1")),
        ("suite".into(), json::s(report.suite.as_str())),
        ("threads".into(), json::num(report.threads as u64)),
        ("jobs".into(), json::num(report.jobs.len() as u64)),
        ("verified".into(), json::num(report.jobs.iter().filter(|j| j.verified).count() as u64)),
        ("total_gates".into(), json::num(report.total_gates() as u64)),
        ("total_branches".into(), json::num(total_branches)),
        ("average_gain_percent".into(), Value::Num(round3(report.average_gain_percent()))),
        ("wall_ms".into(), Value::Num(report.wall_micros as f64 / 1000.0)),
        ("espresso".into(), espresso.to_json("functions", "dense_ms", "cube_list_ms")),
        ("verify".into(), verify.to_json("networks", "word_ms", "per_minterm_ms")),
        ("instances".into(), Value::Array(instances)),
    ])
}

fn main() -> ExitCode {
    let args = parse_args();
    let Some(suite) = suite_by_name(&args.suite) else {
        eprintln!("unknown suite '{}'; expected smoke, table3, table4 or all", args.suite);
        return ExitCode::FAILURE;
    };

    println!(
        "== recursive synthesis sweep: suite '{}' ({} instances, depth <= {}, {} candidates) ==",
        suite.name(),
        suite.instances().len(),
        args.config.recursive.max_depth,
        args.config.recursive.portfolio.len(),
    );
    let report = sweep_synthesis(&suite, &args.config);

    let mut current = "";
    for job in &report.jobs {
        if job.instance != current {
            current = &job.instance;
            println!("{current}");
        }
        println!(
            "  [{}] n={:<2} gates {:>4}  depth {}  branches {:>2}  \
             flat {:>7.1} -> mapped {:>7.1}  gain {:>5.1}%{}",
            job.output,
            job.num_vars,
            job.gates,
            job.depth,
            job.branches,
            job.flat_area,
            job.mapped_area,
            job.gain_percent(),
            if job.verified { "" } else { "  NOT VERIFIED" },
        );
    }
    println!(
        "{} jobs on {} threads in {:.1} ms: {} gates, average gain {:.2}% over flat 2-SPP",
        report.total_jobs(),
        report.threads,
        report.wall_micros as f64 / 1000.0,
        report.total_gates(),
        report.average_gain_percent(),
    );

    if !report.all_verified() {
        eprintln!("FAIL: some synthesized networks did not verify against their function");
        return ExitCode::FAILURE;
    }

    let functions = suite_functions(&suite, &args.config);
    let (espresso, verify) = match espresso_arm(&functions)
        .and_then(|e| Ok((e, verify_arm(&functions, &args.config)?)))
    {
        Ok(arms) => arms,
        Err(message) => {
            eprintln!("FAIL: {message}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "espresso on {} output functions, identical covers: dense {:.1} ms, \
         cube-list {:.1} ms (speedup {:.2}x)",
        espresso.items,
        espresso.fast_micros as f64 / 1000.0,
        espresso.oracle_micros as f64 / 1000.0,
        espresso.speedup(),
    );
    println!(
        "verify_network on {} synthesized networks, identical verdicts: word {:.2} ms, \
         per-minterm {:.1} ms (speedup {:.2}x)",
        verify.items,
        verify.fast_micros as f64 / 1000.0,
        verify.oracle_micros as f64 / 1000.0,
        verify.speedup(),
    );

    let doc = report_to_json(&report, &espresso, &verify);
    let text = json::pretty(&doc);
    let path = bench_out_path(&args.json_path);
    if let Err(e) = std::fs::write(&path, &text) {
        eprintln!("could not write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", path.display());
    if args.write_baseline {
        let path = bench_out_path("BENCH_synth_baseline.json");
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("could not write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}
