//! Cross-backend fuzzing harness: drives seeded random ISFs through the
//! dense word-parallel verifiers, the symbolic BDD verifiers, and the SAT
//! [`Oracle`] in lockstep, and fails hard on any three-way disagreement.
//!
//! Usage (all flags optional):
//!
//! ```text
//! cargo run -p bidecomp-bench --release --bin oracle_fuzz -- \
//!     [--cases N] [--seed N] [--min-vars N] [--max-vars N] \
//!     [--json PATH] [--write-baseline]
//! ```
//!
//! Each corpus case is checked against all ten Table I operators twice: once
//! with a valid-by-construction seeded divisor (all verdicts must be green)
//! and once with a raw noise divisor (usually invalid, exercising every
//! rejection path). A disagreement between the judges is minimized by greedy
//! minterm removal and dumped as a PLA snippet
//! (`BENCH_oracle_counterexample.pla` in `BENCH_OUT_DIR`) before the run
//! exits non-zero.
//!
//! Before fuzzing, a tamper self-check corrupts each quotient set of a fixed
//! decomposition for every operator and demands the oracle reject it with
//! the correct lemma named — a fuzzer whose oracle accepts everything would
//! otherwise pass vacuously. The run serializes as `BENCH_oracle_fuzz.json`
//! (schema `bidecomp-oracle-v1`); `--write-baseline` refreshes the committed
//! `BENCH_oracle_baseline.json` the CI `oracle-fuzz` job guards with
//! `regress`.

use std::process::ExitCode;
use std::time::Instant;

use benchmarks::fuzz::fuzz_corpus;
use benchmarks::{BenchmarkInstance, DetRng};
use bidecomp::{
    correctness_lemma, flexibility_corollary, is_valid_divisor, quotient_sets, seeded_divisor,
    verify_decomposition_sets, verify_maximal_flexibility_sets, BinaryOp, FailedLemma, Oracle,
};
use bidecomp_bench::cli::{bench_out_path, write_artifact, ArgCursor};
use bidecomp_bench::json::{self, Value};
use boolfunc::{Isf, TruthTable};

struct Args {
    cases: usize,
    seed: u64,
    min_vars: usize,
    max_vars: usize,
    json_path: String,
    write_baseline: bool,
}

/// Exits with code 2 on any unknown flag, missing value or unparsable
/// number (via [`ArgCursor`]): this binary feeds a CI gate and writes the
/// committed baseline, so silent defaults would loosen the gate.
fn parse_args() -> Args {
    let mut args = Args {
        cases: 200,
        seed: 0xF0CC_ED01,
        min_vars: 3,
        max_vars: 6,
        json_path: "BENCH_oracle_fuzz.json".to_string(),
        write_baseline: false,
    };
    let mut argv = ArgCursor::from_env("oracle_fuzz");
    while let Some(flag) = argv.next_flag() {
        match flag.as_str() {
            "--cases" => args.cases = argv.number(&flag),
            "--seed" => args.seed = argv.number(&flag),
            "--min-vars" => args.min_vars = argv.number(&flag),
            "--max-vars" => args.max_vars = argv.number(&flag),
            "--json" => args.json_path = argv.value(&flag),
            "--write-baseline" => args.write_baseline = true,
            other => argv.fail(format_args!("unknown argument {other}")),
        }
    }
    args
}

/// The three per-claim verdicts of one judge on one `(f, g, h, op)` job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Verdict {
    valid: bool,
    verified: bool,
    maximal: bool,
}

/// The dense word-parallel judge (the engine's hot path).
fn dense_verdict(f: &Isf, g: &TruthTable, h: &Isf, op: BinaryOp) -> Verdict {
    Verdict {
        valid: is_valid_divisor(f, g, op),
        verified: verify_decomposition_sets(f, g, h.on(), h.dc(), op),
        maximal: verify_maximal_flexibility_sets(f, g, h.on(), h.dc(), op),
    }
}

/// The symbolic BDD judge (a fresh manager per call keeps jobs independent).
fn bdd_verdict(f: &Isf, g: &TruthTable, h: &Isf, op: BinaryOp) -> Verdict {
    let mut mgr = bdd::BddManager::new(f.num_vars());
    let f_on = mgr.from_truth_table(f.on());
    let f_dc = mgr.from_truth_table(f.dc());
    let g_bdd = mgr.from_truth_table(g);
    let h_on = mgr.from_truth_table(h.on());
    let h_dc = mgr.from_truth_table(h.dc());
    Verdict {
        valid: bidecomp::is_valid_divisor_bdd(&mut mgr, f_on, f_dc, g_bdd, op),
        verified: bidecomp::verify_decomposition_bdd(&mut mgr, f_on, f_dc, g_bdd, h_on, h_dc, op),
        maximal: bidecomp::verify_maximal_flexibility_bdd(
            &mut mgr, f_on, f_dc, g_bdd, h_on, h_dc, op,
        ),
    }
}

/// The SAT judge: each claim is a counterexample search over the CNF
/// encoding, structurally independent of the word-parallel set algebra.
fn oracle_verdict(f: &Isf, g: &TruthTable, h: &Isf, op: BinaryOp) -> Verdict {
    Verdict {
        valid: Oracle::check_divisor(f, g, op).is_ok(),
        verified: Oracle::check_decomposition(f, g, h, op).is_ok(),
        maximal: Oracle::check_maximal_flexibility(f, g, h, op).is_ok(),
    }
}

/// `true` while the three judges still disagree on `(f, g, op)` (with `h`
/// recomputed as the Table II quotient of the shrunken instance).
fn judges_disagree(f: &Isf, g: &TruthTable, op: BinaryOp) -> bool {
    let sets = quotient_sets(f, g, op);
    let h = Isf::new(sets.on.clone(), sets.dc.clone()).expect("Table II sets are disjoint");
    let d = dense_verdict(f, g, &h, op);
    d != bdd_verdict(f, g, &h, op) || d != oracle_verdict(f, g, &h, op)
}

/// Greedy minterm-removal minimization: clears one minterm at a time from
/// `f_on`, `f_dc` and `g` as long as the disagreement survives, so the
/// dumped counterexample is locally minimal.
fn minimize_counterexample(f: &Isf, g: &TruthTable, op: BinaryOp) -> (Isf, TruthTable) {
    let n = f.num_vars();
    let mut f = f.clone();
    let mut g = g.clone();
    let mut changed = true;
    while changed {
        changed = false;
        for m in 0..(1u64 << n) {
            for set in 0..3 {
                let (mut on, mut dc, mut gt) = (f.on().clone(), f.dc().clone(), g.clone());
                let mut tables = [&mut on, &mut dc, &mut gt];
                let table = &mut tables[set];
                if !table.get(m) {
                    continue;
                }
                table.set(m, false);
                let candidate = Isf::new(on, dc).expect("clearing bits keeps the sets disjoint");
                if judges_disagree(&candidate, &gt, op) {
                    f = candidate;
                    g = gt;
                    changed = true;
                }
            }
        }
    }
    (f, g)
}

/// Dumps the minimized counterexample as a two-output PLA (`output 0 = f`,
/// `output 1 = g`) and returns its path.
fn dump_counterexample(f: &Isf, g: &TruthTable, op: BinaryOp) -> std::path::PathBuf {
    let inst = BenchmarkInstance::new(
        "counterexample",
        vec![f.clone(), Isf::completely_specified(g.clone())],
    );
    let path = bench_out_path("BENCH_oracle_counterexample.pla");
    let mut text = format!("# three-way disagreement for {op} (output 0 = f, output 1 = g)\n");
    text.push_str(&inst.to_pla().to_string());
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("could not write {}: {e}", path.display());
    }
    path
}

/// Tamper self-check: corrupts each quotient set of a fixed decomposition
/// for every operator and demands the oracle name the right failed lemma.
/// Returns `(checks, rejected, first_lemma)` — the fuzzer refuses to run if
/// any tampering goes unnoticed.
fn tamper_self_check(seed: u64) -> (u64, u64, Option<String>) {
    let mut rng = DetRng::seed_from_u64(seed ^ 0x7A3B);
    let n = 5;
    let dc_a = TruthTable::from_words(n, || rng.next_u64());
    let dc_b = TruthTable::from_words(n, || rng.next_u64());
    let dc = &dc_a & &dc_b;
    let on = TruthTable::from_words(n, || rng.next_u64()).difference(&dc);
    let f = Isf::new(on, dc).expect("disjoint by construction");

    let mut checks = 0;
    let mut rejected = 0;
    let mut first_lemma = None;
    for op in BinaryOp::all() {
        let g = seeded_divisor(&f, op, seed);
        let sets = quotient_sets(&f, &g, op);
        // (victim set, expected failure) per tamper direction.
        let tampers: [(usize, FailedLemma); 3] = [
            (0, FailedLemma::Lemma(correctness_lemma(op))), // off → dc
            (1, FailedLemma::Lemma(correctness_lemma(op))), // on → off
            (2, FailedLemma::Corollary(flexibility_corollary(op))), // dc → on
        ];
        for (direction, expected) in tampers {
            let (mut on, mut dc) = (sets.on.clone(), sets.dc.clone());
            let moved = match direction {
                0 => sets.off.ones().next().map(|m| dc.set(m, true)).is_some(),
                1 => sets.on.ones().next().map(|m| on.set(m, false)).is_some(),
                _ => sets
                    .dc
                    .ones()
                    .next()
                    .map(|m| {
                        on.set(m, true);
                        dc.set(m, false);
                    })
                    .is_some(),
            };
            if !moved {
                continue; // the victim set happens to be empty for this op
            }
            checks += 1;
            let tampered = Isf::new(on, dc).expect("tampering keeps the sets disjoint");
            match Oracle::check(&f, &g, &tampered, op) {
                Err(e) if e.lemma == expected => {
                    rejected += 1;
                    if first_lemma.is_none() {
                        first_lemma = Some(e.lemma.to_string());
                    }
                }
                Err(e) => eprintln!("tamper check: {op} named {} instead of {expected}", e.lemma),
                Ok(()) => eprintln!("tamper check: {op} accepted a corrupted quotient"),
            }
        }
    }
    (checks, rejected, first_lemma)
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.min_vars < 1 || args.min_vars > args.max_vars || args.max_vars > 16 {
        eprintln!("oracle_fuzz: need 1 <= --min-vars <= --max-vars <= 16");
        return ExitCode::FAILURE;
    }

    // Pre-flight: the oracle must actually catch corrupted quotients.
    let (tamper_checks, tamper_rejected, tamper_lemma) = tamper_self_check(args.seed);
    let tamper_ok = tamper_checks == tamper_rejected && tamper_checks > 0;
    println!(
        "tamper self-check: {tamper_rejected}/{tamper_checks} corrupted quotients rejected \
         (first failed lemma: {})",
        tamper_lemma.as_deref().unwrap_or("none")
    );
    if !tamper_ok {
        eprintln!("oracle_fuzz: the oracle missed a tampered quotient; refusing to fuzz");
        return ExitCode::FAILURE;
    }

    let corpus = fuzz_corpus(args.seed, args.cases, args.min_vars, args.max_vars);
    let start = Instant::now();
    let mut checks = 0u64;
    let mut valid_divisors = 0u64;
    let mut invalid_divisors = 0u64;
    let mut disagreements = 0u64;
    for (case, inst) in corpus.iter().enumerate() {
        let f = &inst.outputs()[0];
        let n = f.num_vars();
        let mut noise_rng = DetRng::seed_from_u64(args.seed ^ 0xD1CE ^ (case as u64) << 7);
        for (ki, op) in BinaryOp::all().into_iter().enumerate() {
            let seeded = seeded_divisor(f, op, args.seed ^ (case as u64) << 8 ^ ki as u64);
            let noise = TruthTable::from_words(n, || noise_rng.next_u64());
            for g in [&seeded, &noise] {
                let sets = quotient_sets(f, g, op);
                let h = Isf::new(sets.on.clone(), sets.dc.clone()).expect("Table II sets disjoint");
                let dense = dense_verdict(f, g, &h, op);
                let bdd = bdd_verdict(f, g, &h, op);
                let sat = oracle_verdict(f, g, &h, op);
                checks += 1;
                if dense.valid {
                    valid_divisors += 1;
                } else {
                    invalid_divisors += 1;
                }
                if dense != bdd || dense != sat {
                    disagreements += 1;
                    eprintln!(
                        "DISAGREEMENT on {} / {op}: dense {dense:?}, bdd {bdd:?}, sat {sat:?}",
                        inst.name()
                    );
                    let (min_f, min_g) = minimize_counterexample(f, g, op);
                    let path = dump_counterexample(&min_f, &min_g, op);
                    eprintln!("minimized counterexample written to {}", path.display());
                }
            }
        }
    }
    let wall_ms = start.elapsed().as_micros() as f64 / 1000.0;
    println!(
        "{checks} lockstep checks over {} cases x 10 operators ({valid_divisors} valid / \
         {invalid_divisors} invalid divisors): {disagreements} disagreements in {wall_ms:.1} ms",
        args.cases
    );

    let doc = Value::Object(vec![
        ("schema".into(), json::s("bidecomp-oracle-v1")),
        ("seed".into(), json::num(args.seed)),
        ("cases".into(), json::num(args.cases as u64)),
        ("min_vars".into(), json::num(args.min_vars as u64)),
        ("max_vars".into(), json::num(args.max_vars as u64)),
        ("ops".into(), json::num(10)),
        ("checks".into(), json::num(checks)),
        ("valid_divisors".into(), json::num(valid_divisors)),
        ("invalid_divisors".into(), json::num(invalid_divisors)),
        ("disagreements".into(), json::num(disagreements)),
        ("tamper_checks".into(), json::num(tamper_checks)),
        ("tamper_rejected".into(), Value::Bool(tamper_ok)),
        ("tamper_lemma".into(), tamper_lemma.map_or(Value::Null, json::s)),
        ("wall_ms".into(), Value::Num((wall_ms * 1000.0).round() / 1000.0)),
    ]);
    if let Err(message) =
        write_artifact(&doc, &args.json_path, "BENCH_oracle_baseline.json", args.write_baseline)
    {
        eprintln!("{message}");
        return ExitCode::FAILURE;
    }
    if disagreements > 0 {
        eprintln!("oracle_fuzz: FAIL — the three judges disagreed {disagreements} time(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
