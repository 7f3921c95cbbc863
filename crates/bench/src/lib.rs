//! # bidecomp-bench
//!
//! The experiment harness: one binary per table/figure of the paper (the
//! README's "Tests, benches, table reproduction" section indexes them and
//! records how the LGSynth91 instances are regenerated), plus the gated
//! sweep, service and regression binaries. Every fast-path-versus-oracle
//! timing is a [`ReferenceArm`] in one of those binaries, held by `regress`.
//!
//! Binaries (`cargo run -p bidecomp-bench --release --bin <name>`):
//!
//! * `operators_table` — Table I (the ten operators and their rewritten forms);
//! * `table2_check`   — Table II, Lemmas 1–5 and Corollaries 1–4 checked on
//!   randomly generated functions and divisors;
//! * `figure1`        — the worked AND example of Fig. 1;
//! * `figure2`        — the worked 2-SPP example of Fig. 2;
//! * `table3`         — the low-error-rate comparison (Table III);
//! * `table4`         — the high-error-rate comparison (Table IV);
//! * `error_sweep`    — ablation: area of `g`/`h` versus the error budget;
//! * `all_ops_sweep`  — extension: all ten operators on the smoke suite;
//! * `sweep`          — the batch decomposition engine on a whole suite,
//!   its job body timed against the library's per-minterm quotient and
//!   verifiers (a [`ReferenceArm`]) and serialized as `BENCH_sweep.json`
//!   (`--write-baseline` refreshes `BENCH_baseline.json`);
//! * `bdd_sweep`      — the same engine on the BDD backend over the 24–40
//!   input `large` suite with dynamic variable ordering, serialized as
//!   `BENCH_bdd_sweep.json` (`--write-baseline` refreshes
//!   `BENCH_bdd_baseline.json`);
//! * `synth_sweep`    — the recursive bi-decomposition synthesis engine on a
//!   whole suite (multi-level networks, mapped-area gains over flat 2-SPP,
//!   every network exhaustively verified), serialized as `BENCH_synth.json`
//!   (`--write-baseline` refreshes `BENCH_synth_baseline.json`);
//! * `bidecompd`      — the persistent decomposition service (`service`
//!   crate): localhost TCP, line-delimited JSON, NPN-canonical result cache;
//! * `service_loadgen` — replays a seeded mixed workload (repeats under
//!   random NPN transforms + fresh functions) against a running `bidecompd`,
//!   once cache-bypassed and once cached, and serializes throughput,
//!   latency percentiles, hit rate and the cached-over-cold speedup as
//!   `BENCH_service.json` (`--scrape` adds the server's own
//!   `bidecomp-metrics-v1` snapshot — full counter map plus server-side
//!   per-verb p50/p99; `--write-baseline` refreshes
//!   `BENCH_service_baseline.json`);
//! * `obs_overhead`   — the observability overhead guard: the same sweep
//!   with the metrics registry detached and attached in strict alternation,
//!   min-of-reps, asserting result equality and that instrumentation stays
//!   under `--max-ratio`; serialized as `BENCH_obs_overhead.json`
//!   (`--write-baseline` refreshes `BENCH_obs_overhead_baseline.json`);
//! * `oracle_fuzz`    — the cross-backend correctness fuzzer: seeded random
//!   ISFs driven through the dense, BDD and SAT-oracle verdicts in lockstep
//!   (any three-way disagreement is a hard failure, with the minimized
//!   counterexample dumped as a PLA snippet), preceded by a tamper
//!   self-check in which the oracle must reject corrupted quotients with
//!   the failing lemma named; serialized as `BENCH_oracle_fuzz.json`
//!   (`--write-baseline` refreshes `BENCH_oracle_baseline.json`);
//! * `regress`        — compares a sweep artifact (`BENCH_sweep.json`,
//!   `BENCH_bdd_sweep.json`, `BENCH_synth.json`, `BENCH_service.json`,
//!   `BENCH_service_chaos.json`, `BENCH_oracle_fuzz.json` or
//!   `BENCH_obs_overhead.json`) against its committed baseline with the
//!   spec table of [`gates`] that its `schema` selects, and fails on
//!   semantic or performance regressions (the CI `bench-smoke` and
//!   `oracle-fuzz` gates).

use std::time::Instant;

use benchmarks::BenchmarkInstance;
use bidecomp::{ApproxStrategy, BenchmarkRow, BinaryOp, DecompositionPlan, TableReport};
use cli::ArgCursor;

pub mod cli;
pub mod gates;

/// The dependency-free JSON module. It lives in the `service` crate now (the
/// wire protocol of `bidecompd` is built on it), re-exported here unchanged
/// so every artifact producer keeps its `bidecomp_bench::json::` paths.
pub use service::json;

/// Options shared by the table-reproduction binaries.
#[derive(Debug, Clone, Copy)]
pub struct HarnessOptions {
    /// Skip instances with more than this many inputs.
    pub max_inputs: usize,
    /// Use at most this many outputs per instance (areas are summed over the
    /// outputs actually processed).
    pub max_outputs: usize,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions { max_inputs: 12, max_outputs: 6 }
    }
}

impl HarnessOptions {
    /// Parses `--max-inputs N`, `--max-outputs N` and `--fast` from the
    /// command line of the binary `bin`. A missing or unparsable value exits
    /// with code 2 naming the flag; unknown arguments are skipped, so one
    /// command line (CI passes `--fast` to all of them) drives every
    /// reproduction binary.
    pub fn from_args(bin: &'static str) -> Self {
        Self::parse(ArgCursor::from_env(bin))
    }

    fn parse(mut args: ArgCursor) -> Self {
        let mut options = HarnessOptions::default();
        while let Some(flag) = args.next_flag() {
            match flag.as_str() {
                "--fast" => {
                    options.max_inputs = 10;
                    options.max_outputs = 3;
                }
                "--max-inputs" => options.max_inputs = args.number(&flag),
                "--max-outputs" => options.max_outputs = args.number(&flag),
                _ => {}
            }
        }
        options
    }
}

/// Runs the Table III/IV pipeline (2-SPP of `f`, approximate, quotient,
/// 2-SPP of `g` and `h`, map, report) on one instance and returns its row.
pub fn run_instance(
    instance: &BenchmarkInstance,
    strategy: ApproxStrategy,
    options: &HarnessOptions,
) -> Option<BenchmarkRow> {
    if instance.num_inputs() > options.max_inputs {
        return None;
    }
    let outputs: Vec<_> = instance.outputs().iter().take(options.max_outputs).collect();
    let and_plan = DecompositionPlan::new(BinaryOp::And, strategy);
    let nonimpl_plan = DecompositionPlan::new(BinaryOp::NonImplication, strategy);

    let start = Instant::now();
    let mut and_results = Vec::with_capacity(outputs.len());
    let mut nonimpl_results = Vec::with_capacity(outputs.len());
    for isf in &outputs {
        let and = and_plan.decompose(isf).expect("AND accepts any 0→1 divisor");
        let nonimpl = nonimpl_plan.decompose(isf).expect("⇏ accepts any 0→1 divisor");
        assert!(and.verified && nonimpl.verified, "decomposition failed verification");
        and_results.push(and);
        nonimpl_results.push(nonimpl);
    }
    let elapsed = start.elapsed();
    Some(BenchmarkRow::from_decompositions(
        instance.name(),
        instance.num_inputs(),
        instance.num_outputs(),
        elapsed,
        &and_results,
        &nonimpl_results,
    ))
}

/// An in-process reference arm: a production kernel and its oracle timed
/// over the same items on one thread, fastest of `repeats` runs each. The
/// artifacts record the wall ratio (`speedup`), which is a same-process
/// quantity and so comparable across hosts; `regress` gates it.
#[derive(Debug, Clone, Copy)]
pub struct ReferenceArm {
    /// Number of items both paths ran on.
    pub items: usize,
    /// Fastest production wall, microseconds.
    pub fast_micros: u64,
    /// Fastest oracle wall, microseconds.
    pub oracle_micros: u64,
}

impl ReferenceArm {
    /// Times `fast` and then `oracle` over `items`. Fails with the first
    /// item index whose results differ, and both results.
    pub fn measure<T, R: PartialEq>(
        items: &[T],
        repeats: usize,
        fast: impl Fn(&T) -> R,
        oracle: impl Fn(&T) -> R,
    ) -> Result<ReferenceArm, (usize, R, R)> {
        let time = |run: &dyn Fn(&T) -> R| {
            let mut best = u64::MAX;
            let mut results = Vec::new();
            for _ in 0..repeats {
                let start = Instant::now();
                results = items.iter().map(run).collect::<Vec<R>>();
                best = best.min(start.elapsed().as_micros() as u64);
            }
            (best, results)
        };
        let (fast_micros, fast) = time(&fast);
        let (oracle_micros, oracle) = time(&oracle);
        match fast.into_iter().zip(oracle).enumerate().find(|(_, (a, b))| a != b) {
            Some((i, (a, b))) => Err((i, a, b)),
            None => Ok(ReferenceArm { items: items.len(), fast_micros, oracle_micros }),
        }
    }

    /// Oracle wall over production wall.
    pub fn speedup(&self) -> f64 {
        self.oracle_micros as f64 / self.fast_micros.max(1) as f64
    }

    /// The artifact block: the item count and both walls under the given
    /// field names, plus `speedup`.
    pub fn to_json(&self, items: &str, fast_ms: &str, oracle_ms: &str) -> json::Value {
        json::Value::Object(vec![
            (items.into(), json::num(self.items as u64)),
            (fast_ms.into(), json::Value::Num(self.fast_micros as f64 / 1000.0)),
            (oracle_ms.into(), json::Value::Num(self.oracle_micros as f64 / 1000.0)),
            ("speedup".into(), json::Value::Num((self.speedup() * 1000.0).round() / 1000.0)),
        ])
    }
}

/// Runs a whole suite and assembles the table report.
pub fn run_suite(
    title: &str,
    instances: &[BenchmarkInstance],
    strategy: ApproxStrategy,
    options: &HarnessOptions,
) -> TableReport {
    let mut report = TableReport::new(title);
    for instance in instances {
        if let Some(row) = run_instance(instance, strategy, options) {
            println!("{row}");
            report.push(row);
        } else {
            println!("-- skipping {instance} (more than {} inputs)", options.max_inputs);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchmarks::Suite;

    #[test]
    fn run_instance_produces_a_row_for_small_instances() {
        let suite = Suite::smoke();
        let options = HarnessOptions { max_inputs: 8, max_outputs: 2 };
        let row = run_instance(&suite.instances()[0], ApproxStrategy::FullExpansion, &options);
        let row = row.expect("smoke instances fit the limits");
        assert!(row.area_f > 0.0);
    }

    #[test]
    fn oversized_instances_are_skipped() {
        let suite = Suite::table4();
        let options = HarnessOptions { max_inputs: 4, max_outputs: 2 };
        for inst in suite.instances() {
            assert!(run_instance(inst, ApproxStrategy::FullExpansion, &options).is_none());
        }
    }

    #[test]
    fn agreeing_arms_report_the_item_count_and_both_walls() {
        let items: Vec<u64> = (0..200).collect();
        let arm = ReferenceArm::measure(
            &items,
            2,
            |&x| x * x,
            |&x| {
                std::thread::sleep(std::time::Duration::from_micros(20));
                (0..x).map(|_| x).sum::<u64>()
            },
        )
        .expect("both closures square their item");
        assert_eq!(arm.items, 200);
        // The oracle sleeps at least 4 ms per run; the fast side does not.
        assert!(arm.oracle_micros >= 4_000, "{arm:?}");
        assert!(arm.fast_micros < arm.oracle_micros, "{arm:?}");
        assert!(arm.speedup() > 1.0, "{arm:?}");
    }

    #[test]
    fn the_first_differing_item_is_reported_with_both_results() {
        let items: Vec<u64> = (0..50).collect();
        let failure =
            ReferenceArm::measure(&items, 1, |&x| x + u64::from(x >= 17), |&x| x).unwrap_err();
        assert_eq!(failure, (17, 18, 17));
    }

    #[test]
    fn harness_flags_apply_in_order_and_unknown_ones_are_skipped() {
        let args = ["--fast", "--seed", "--max-inputs", "8", "--verbose"];
        let options =
            HarnessOptions::parse(ArgCursor::new("test", args.map(String::from).to_vec()));
        assert_eq!((options.max_inputs, options.max_outputs), (8, 3));
    }

    #[test]
    fn default_options_are_sane() {
        let o = HarnessOptions::default();
        assert!(o.max_inputs >= 10);
        assert!(o.max_outputs >= 3);
    }
}
