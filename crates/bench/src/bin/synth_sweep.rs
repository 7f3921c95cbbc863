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
//! The `widen` block does the same for the full-expansion divisor's
//! widening: every output function's 2-SPP form is synthesized once, and
//! the word-parallel `spp::FullExpansion::widen` (two running planes per
//! pseudoproduct) is timed against its per-expansion oracle
//! `widen_per_expansion` on those `(form, function)` pairs. The run fails
//! unless both return the identical widened ISF for every pair; `regress`
//! holds the ratio above the same `speed-ratio` floor.
//!
//! The `tables` block times the word-parallel `spp::SppForm::to_truth_table`
//! against its per-minterm oracle `to_truth_table_per_minterm` on those
//! same 2-SPP forms, and the `remove_covered` block times the linear-pass
//! `SppForm::remove_covered` against its pairwise oracle
//! `remove_covered_pairwise` on every output function's merged, not yet
//! pruned form. The run fails unless the tables, and the kept products with
//! their order and count, are identical; `regress` holds both ratios above
//! the `speed-ratio` floor. Synthesis itself no longer prunes these forms
//! (a merged espresso cover holds no covered product, so every product is
//! kept here too); the arm times the kernel that `spp::BoundedExpansion`
//! and `SppSynthesizer::improve_cover` still run, on forms of the suite's
//! real sizes.
//!
//! The `memo` block totals, over those same one-thread syntheses, how many
//! 2-SPP syntheses the recursion requested (`requested`) and how many its
//! per-call memo answered (`answered`). Both are deterministic; `regress`
//! compares them exactly, so a change that loses the memo's hits fails.
//!
//! The `cold` block measures what a cold service request costs: 200 seeded
//! functions per arity 9–12 from `benchmarks::cold::random_isf` (the
//! generator behind `service_loadgen`'s fresh requests), each synthesized
//! recursively on one thread, in seven passes per arity. It reports the
//! median pass's milliseconds per function at each arity (informational:
//! single passes spread ±25% on a shared host, and even the median of
//! seven moves between runs by more than a 1.1x change of one layer) and a
//! fingerprint of every result's gate count, branch count, mapped and flat
//! area bits and memo counts, which `regress` compares exactly: a change
//! to the synthesis path must leave every cold result bit-identical.
//!
//! `--write-baseline` additionally rewrites `BENCH_synth_baseline.json`.
//! Output lands in `BENCH_OUT_DIR` (default: working directory).

use std::process::ExitCode;
use std::time::Instant;

use benchmarks::cold::random_isf;
use benchmarks::{DetRng, Suite};
use bidecomp::engine::{sweep_synthesis, SynthesisConfig, SynthesisReport};
use bidecomp::{verify_network, verify_network_per_minterm, MemoCounts, RecursiveSynthesizer};
use bidecomp_bench::cli::{suite_by_name, write_artifact, ArgCursor};
use bidecomp_bench::json::{self, Value};
use bidecomp_bench::ReferenceArm;
use boolfunc::Isf;
use sop::{espresso_cover, espresso_isf, EspressoOptions};
use spp::{FullExpansion, SppForm, SppSynthesizer};
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
            "--threads" => args.config.threads = argv.number(&flag),
            "--seed" => args.config.seed = argv.number(&flag),
            "--max-inputs" => args.config.max_inputs = argv.number(&flag),
            "--max-outputs" => args.config.max_outputs = argv.number(&flag),
            "--depth" => args.config.recursive.max_depth = argv.number(&flag),
            "--min-gain" => args.config.recursive.min_gain = argv.number(&flag),
            "--json" => args.json_path = argv.value(&flag),
            "--write-baseline" => args.write_baseline = true,
            other => argv.fail(format_args!("unknown argument {other}")),
        }
    }
    args
}

/// Rounds to 3 decimals so the serialized artifact is stable and readable;
/// the underlying computation is deterministic, so the rounded value is too.
fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// Rounds to 4 decimals (the `cold` block's sub-millisecond times).
fn round4(x: f64) -> f64 {
    (x * 10_000.0).round() / 10_000.0
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

/// Times the word-parallel full-expansion widening against its
/// per-expansion oracle on every output function and its 2-SPP form, and
/// checks that both widen each function to the same ISF.
fn widen_arm(functions: &[&Isf], forms: &[SppForm]) -> Result<ReferenceArm, String> {
    let cases: Vec<(&SppForm, &Isf)> = forms.iter().zip(functions.iter().copied()).collect();
    ReferenceArm::measure(
        &cases,
        REPEATS,
        |(form, f)| FullExpansion::new().widen(form, f),
        |(form, f)| FullExpansion::new().widen_per_expansion(form, f),
    )
    .map_err(|(i, word, per_expansion)| {
        format!(
            "function #{i}: the word-parallel widening differs from the per-expansion one\n  \
             word:          {word}\n  per-expansion: {per_expansion}"
        )
    })
}

/// Times the word-parallel `SppForm::to_truth_table` against its
/// per-minterm oracle on every output function's 2-SPP form, and checks
/// that both build the same table.
fn tables_arm(forms: &[SppForm]) -> Result<ReferenceArm, String> {
    ReferenceArm::measure(
        forms,
        REPEATS,
        SppForm::to_truth_table,
        SppForm::to_truth_table_per_minterm,
    )
    .map_err(|(i, word, per_minterm)| {
        format!(
            "function #{i}: the word-parallel form table differs from the per-minterm one\n  \
             word:        {word}\n  per-minterm: {per_minterm}"
        )
    })
}

/// Times the linear-pass `SppForm::remove_covered` against its pairwise
/// oracle on every output function's merged 2-SPP form, the form
/// `SppSynthesizer::synthesize` returns without pruning (each run prunes a
/// fresh copy), and checks that both keep the same products in the same
/// order (neither drops a product on these forms).
fn remove_covered_arm(functions: &[&Isf]) -> Result<ReferenceArm, String> {
    let synthesizer = SppSynthesizer::new();
    let options = synthesizer.options().espresso;
    let merged: Vec<SppForm> =
        functions.iter().map(|&f| synthesizer.merge_cover(&espresso_isf(f, options))).collect();
    let prune = |remove: fn(&mut SppForm) -> usize| {
        move |form: &SppForm| {
            let mut form = form.clone();
            let removed = remove(&mut form);
            (form, removed)
        }
    };
    ReferenceArm::measure(
        &merged,
        REPEATS,
        prune(SppForm::remove_covered),
        prune(SppForm::remove_covered_pairwise),
    )
    .map_err(|(i, (linear, _), (pairwise, _))| {
        format!(
            "function #{i}: the linear-pass pruning differs from the pairwise one\n  \
             linear:   {linear}\n  pairwise: {pairwise}"
        )
    })
}

/// Synthesizes every output function once more on this thread, totalling
/// the memo counts of those syntheses, then times the word-parallel
/// `verify_network` against its per-minterm oracle over the resulting
/// networks; fails unless their verdicts agree on every one.
fn verify_arm(
    functions: &[&Isf],
    config: &SynthesisConfig,
) -> Result<(ReferenceArm, MemoCounts), String> {
    let synthesizer = RecursiveSynthesizer::new(config.recursive.clone());
    let mut memo = MemoCounts::default();
    let cases = functions
        .iter()
        .map(|&f| {
            let result = synthesizer.synthesize(f)?;
            memo.requested += result.memo.requested;
            memo.answered += result.memo.answered;
            Ok((f, result.network))
        })
        .collect::<Result<Vec<(&Isf, Network)>, bidecomp::BidecompError>>()
        .map_err(|e| format!("synthesis failed: {e}"))?;
    let arm = ReferenceArm::measure(
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
    })?;
    Ok((arm, memo))
}

/// Arities of the `cold` block's functions.
const COLD_ARITIES: [usize; 4] = [9, 10, 11, 12];

/// Functions per arity in the `cold` block.
const COLD_FUNCTIONS: usize = 200;

/// Timed passes per arity in the `cold` block; the median one is reported.
const COLD_PASSES: usize = 7;

/// What the `cold` block measured.
struct ColdBlock {
    /// Functions synthesized, over all arities.
    functions: usize,
    /// The median pass's milliseconds per function, per arity.
    ms_per_function: Vec<(usize, f64)>,
    /// FNV-1a over every result's gates, branches, area bits and memo
    /// counts, in generation order.
    fingerprint: u64,
}

/// One 64-bit word into an FNV-1a hash.
fn fnv(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Recursively synthesizes [`COLD_FUNCTIONS`] cold-shaped functions per
/// arity on this thread, [`COLD_PASSES`] times per arity, times the median
/// pass, and fingerprints the results; fails unless every network verified.
fn cold_arm(config: &SynthesisConfig) -> Result<ColdBlock, String> {
    let synthesizer = RecursiveSynthesizer::new(config.recursive.clone());
    let mut block =
        ColdBlock { functions: 0, ms_per_function: Vec::new(), fingerprint: 0xcbf2_9ce4_8422_2325 };
    for n in COLD_ARITIES {
        let mut rng = DetRng::seed_from_u64(config.seed ^ n as u64);
        let functions: Vec<Isf> = (0..COLD_FUNCTIONS).map(|_| random_isf(&mut rng, n)).collect();
        let mut passes = Vec::with_capacity(COLD_PASSES);
        let mut results = Vec::new();
        for _ in 0..COLD_PASSES {
            let start = Instant::now();
            results = functions
                .iter()
                .map(|f| synthesizer.synthesize(f))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("cold synthesis failed: {e}"))?;
            passes.push(start.elapsed().as_secs_f64() * 1000.0);
        }
        passes.sort_by(f64::total_cmp);
        let median = passes[COLD_PASSES / 2];
        for (i, r) in results.iter().enumerate() {
            if !r.verified {
                return Err(format!("cold function #{i} at {n} inputs did not verify"));
            }
            let words = [
                r.gate_count() as u64,
                r.tree.num_branches() as u64,
                r.mapped_area.to_bits(),
                r.flat_area.to_bits(),
                r.memo.requested,
                r.memo.answered,
            ];
            block.fingerprint = words.into_iter().fold(block.fingerprint, fnv);
        }
        block.functions += functions.len();
        block.ms_per_function.push((n, median / functions.len() as f64));
    }
    Ok(block)
}

/// Every in-process block the artifact carries next to the sweep itself.
struct Arms {
    espresso: ReferenceArm,
    verify: ReferenceArm,
    widen: ReferenceArm,
    tables: ReferenceArm,
    remove_covered: ReferenceArm,
    memo: MemoCounts,
    cold: ColdBlock,
}

fn report_to_json(report: &SynthesisReport, arms: &Arms) -> Value {
    let Arms { espresso, verify, widen, tables, remove_covered, memo, cold } = arms;
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
        ("widen".into(), widen.to_json("functions", "word_ms", "per_expansion_ms")),
        ("tables".into(), tables.to_json("functions", "word_ms", "per_minterm_ms")),
        ("remove_covered".into(), remove_covered.to_json("functions", "linear_ms", "pairwise_ms")),
        (
            "memo".into(),
            Value::Object(vec![
                ("requested".into(), json::num(memo.requested)),
                ("answered".into(), json::num(memo.answered)),
            ]),
        ),
        (
            "cold".into(),
            Value::Object(vec![
                ("functions".into(), json::num(cold.functions as u64)),
                ("fingerprint".into(), json::s(format!("{:016x}", cold.fingerprint))),
                (
                    "ms_per_function".into(),
                    Value::Object(
                        cold.ms_per_function
                            .iter()
                            .map(|&(n, ms)| (format!("n{n}"), Value::Num(round4(ms))))
                            .collect(),
                    ),
                ),
            ]),
        ),
        ("instances".into(), Value::Array(instances)),
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

    println!(
        "== recursive synthesis sweep: suite '{}' ({} instances, depth <= {}, {} candidates) ==",
        suite.name(),
        suite.instances().len(),
        args.config.recursive.max_depth,
        args.config.recursive.portfolio.len(),
    );
    let report = sweep_synthesis(&suite, &args.config);
    if report.jobs.is_empty() {
        eprintln!("FAIL: suite '{}' has no dense job to synthesize", suite.name());
        return ExitCode::FAILURE;
    }

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
    let synthesizer = SppSynthesizer::new();
    let forms: Vec<SppForm> = functions.iter().map(|&f| synthesizer.synthesize(f)).collect();
    let arms = espresso_arm(&functions).and_then(|espresso| {
        let (verify, memo) = verify_arm(&functions, &args.config)?;
        let widen = widen_arm(&functions, &forms)?;
        let tables = tables_arm(&forms)?;
        let remove_covered = remove_covered_arm(&functions)?;
        let cold = cold_arm(&args.config)?;
        Ok(Arms { espresso, verify, widen, tables, remove_covered, memo, cold })
    });
    let arms = match arms {
        Ok(arms) => arms,
        Err(message) => {
            eprintln!("FAIL: {message}");
            return ExitCode::FAILURE;
        }
    };
    let Arms { espresso, verify, widen, tables, remove_covered, memo, cold } = &arms;
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
    println!(
        "full-expansion widening of {} output functions, identical ISFs: word {:.2} ms, \
         per-expansion {:.1} ms (speedup {:.2}x)",
        widen.items,
        widen.fast_micros as f64 / 1000.0,
        widen.oracle_micros as f64 / 1000.0,
        widen.speedup(),
    );
    println!(
        "2-SPP form tables of {} output functions, identical tables: word {:.2} ms, \
         per-minterm {:.1} ms (speedup {:.2}x)",
        tables.items,
        tables.fast_micros as f64 / 1000.0,
        tables.oracle_micros as f64 / 1000.0,
        tables.speedup(),
    );
    println!(
        "covered-product pruning of {} merged forms, identical forms: linear {:.2} ms, \
         pairwise {:.1} ms (speedup {:.2}x)",
        remove_covered.items,
        remove_covered.fast_micros as f64 / 1000.0,
        remove_covered.oracle_micros as f64 / 1000.0,
        remove_covered.speedup(),
    );
    println!(
        "2-SPP syntheses of those networks: {} requested, {} answered by the per-call memo \
         ({:.1}%)",
        memo.requested,
        memo.answered,
        memo.answered as f64 * 100.0 / memo.requested.max(1) as f64,
    );

    let per_arity: Vec<String> =
        cold.ms_per_function.iter().map(|(n, ms)| format!("n={n} {ms:.3} ms")).collect();
    println!(
        "cold synthesis of {} seeded functions, fingerprint {:016x}: {}",
        cold.functions,
        cold.fingerprint,
        per_arity.join(", "),
    );

    let doc = report_to_json(&report, &arms);
    if let Err(message) =
        write_artifact(&doc, &args.json_path, "BENCH_synth_baseline.json", args.write_baseline)
    {
        eprintln!("{message}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
