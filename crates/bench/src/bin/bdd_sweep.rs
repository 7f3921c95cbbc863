//! The symbolic (BDD-backend) decomposition sweep: runs
//! `bidecomp::engine::sweep` with `Backend::Bdd` on a benchmark suite, times
//! it against the pre-rewrite `HashMap`-based BDD manager, cross-checks that
//! both managers agree job for job, and serializes the result as
//! `BENCH_bdd_sweep.json`.
//!
//! Usage (all flags optional):
//!
//! ```text
//! cargo run -p bidecomp-bench --release --bin bdd_sweep -- \
//!     [--suite large|smoke|table3|table4|all] [--threads N] [--seed N] \
//!     [--max-inputs N] [--max-outputs N] [--repeat N] [--json PATH] \
//!     [--reorder] [--no-reorder] [--sift-threshold N] [--write-baseline]
//! ```
//!
//! Dynamic variable ordering is **on by default** for this bench
//! (FORCE-seeded static orders plus threshold-triggered sifting at the
//! bench-tuned [`BENCH_SIFT_THRESHOLD`]): the committed baseline's
//! `peak_bdd_nodes` is a post-DVO number and the CI gate holds future runs
//! to it. `--no-reorder` switches back to the identity order (the
//! pre-DVO behavior); `--sift-threshold N` moves the auto-sift trigger
//! (0 disables sifting but keeps the static seed).
//!
//! As with the dense `sweep` binary, the `speedup` the CI gate consumes is
//! measured with **both arms at one thread**: the reference arm re-executes
//! every job — operand construction, seeded divisor, Table II quotient and
//! both symbolic verifications — on a verbatim copy of the pre-rewrite
//! manager (`HashMap` unique table, `HashMap` ITE cache, every operation
//! routed through 3-key ITE, per-call recursion memos), so the ratio
//! isolates the manager rewrite. Every arm runs `--repeat` times (default 3)
//! and the fastest run of each is used.
//!
//! `--write-baseline` additionally rewrites `BENCH_bdd_baseline.json`, the
//! committed reference the CI `bench-smoke` job guards with the `regress`
//! binary. Output lands in `BENCH_OUT_DIR` (default: working directory).

use std::process::ExitCode;
use std::time::Instant;

use benchmarks::{DetRng, Suite, SymbolicFunction, SymbolicInstance};
use bidecomp::engine::{sweep, Backend, EngineConfig, ReorderConfig, SweepReport};
use bidecomp::BinaryOp;
use bidecomp_bench::cli::{bench_out_path, ArgCursor};
use bidecomp_bench::json::{self, Value};
use boolfunc::TruthTable;

/// The pre-rewrite BDD manager, kept verbatim so the speedup the sweep
/// reports stays an apples-to-apples comparison: `HashMap` unique table and
/// ITE cache, every binary operation expressed as a 3-key ITE, negation as
/// `ite(f, 0, 1)`, and a fresh `HashMap` memo per counting call.
mod reference {
    use std::collections::HashMap;

    use boolfunc::{Cover, Cube, TruthTable};

    const TERMINAL: u32 = u32::MAX;

    #[derive(Clone, Copy, PartialEq, Eq, Hash)]
    struct Node {
        var: u32,
        low: u32,
        high: u32,
    }

    pub struct HashMapManager {
        num_vars: usize,
        nodes: Vec<Node>,
        unique: HashMap<(u32, u32, u32), u32>,
        ite_cache: HashMap<(u32, u32, u32), u32>,
    }

    impl HashMapManager {
        pub fn new(num_vars: usize) -> Self {
            let nodes = vec![
                Node { var: TERMINAL, low: 0, high: 0 },
                Node { var: TERMINAL, low: 1, high: 1 },
            ];
            HashMapManager { num_vars, nodes, unique: HashMap::new(), ite_cache: HashMap::new() }
        }

        pub fn zero(&self) -> u32 {
            0
        }

        pub fn one(&self) -> u32 {
            1
        }

        pub fn is_zero(&self, f: u32) -> bool {
            f == 0
        }

        pub fn variable(&mut self, var: usize) -> u32 {
            assert!(var < self.num_vars);
            self.mk_node(var as u32, 0, 1)
        }

        fn top_var(&self, f: u32) -> usize {
            let v = self.nodes[f as usize].var;
            if v == TERMINAL {
                usize::MAX
            } else {
                v as usize
            }
        }

        fn cofactors_at(&self, f: u32, level: usize) -> (u32, u32) {
            let n = self.nodes[f as usize];
            if n.var == TERMINAL || (n.var as usize) != level {
                (f, f)
            } else {
                (n.low, n.high)
            }
        }

        fn mk_node(&mut self, var: u32, low: u32, high: u32) -> u32 {
            if low == high {
                return low;
            }
            if let Some(&existing) = self.unique.get(&(var, low, high)) {
                return existing;
            }
            let id = self.nodes.len() as u32;
            self.nodes.push(Node { var, low, high });
            self.unique.insert((var, low, high), id);
            id
        }

        pub fn ite(&mut self, f: u32, g: u32, h: u32) -> u32 {
            if f == 1 {
                return g;
            }
            if f == 0 {
                return h;
            }
            if g == h {
                return g;
            }
            if g == 1 && h == 0 {
                return f;
            }
            if let Some(&r) = self.ite_cache.get(&(f, g, h)) {
                return r;
            }
            let top = self.top_var(f).min(self.top_var(g)).min(self.top_var(h));
            let (f0, f1) = self.cofactors_at(f, top);
            let (g0, g1) = self.cofactors_at(g, top);
            let (h0, h1) = self.cofactors_at(h, top);
            let low = self.ite(f0, g0, h0);
            let high = self.ite(f1, g1, h1);
            let result = self.mk_node(top as u32, low, high);
            self.ite_cache.insert((f, g, h), result);
            result
        }

        pub fn not(&mut self, f: u32) -> u32 {
            self.ite(f, 0, 1)
        }

        pub fn and(&mut self, f: u32, g: u32) -> u32 {
            self.ite(f, g, 0)
        }

        pub fn or(&mut self, f: u32, g: u32) -> u32 {
            self.ite(f, 1, g)
        }

        pub fn xor(&mut self, f: u32, g: u32) -> u32 {
            let ng = self.not(g);
            self.ite(f, ng, g)
        }

        pub fn diff(&mut self, f: u32, g: u32) -> u32 {
            let ng = self.not(g);
            self.and(f, ng)
        }

        fn cube(&mut self, cube: &Cube) -> u32 {
            let mut result = self.one();
            for var in (0..cube.num_vars()).rev() {
                match cube.value(var) {
                    boolfunc::CubeValue::DontCare => {}
                    boolfunc::CubeValue::One => result = self.mk_node(var as u32, 0, result),
                    boolfunc::CubeValue::Zero => result = self.mk_node(var as u32, result, 0),
                }
            }
            result
        }

        pub fn cover(&mut self, cover: &Cover) -> u32 {
            let mut result = self.zero();
            for c in cover.iter() {
                let cb = self.cube(c);
                result = self.or(result, cb);
            }
            result
        }

        // Named after the rebuilt manager's method it mirrors.
        #[allow(clippy::wrong_self_convention)]
        pub fn from_truth_table(&mut self, table: &TruthTable) -> u32 {
            assert_eq!(table.num_vars(), self.num_vars);
            self.table_rec(table, 0, 0)
        }

        fn table_rec(&mut self, table: &TruthTable, var: usize, prefix: u64) -> u32 {
            if var == self.num_vars {
                return u32::from(table.get(prefix));
            }
            let low = self.table_rec(table, var + 1, prefix);
            let high = self.table_rec(table, var + 1, prefix | (1u64 << var));
            self.mk_node(var as u32, low, high)
        }

        pub fn num_nodes(&self) -> usize {
            self.nodes.len()
        }

        fn level_of(&self, f: u32) -> usize {
            let v = self.nodes[f as usize].var;
            if v == TERMINAL {
                self.num_vars
            } else {
                v as usize
            }
        }

        pub fn sat_count(&self, f: u32) -> u64 {
            // Per-call memo, exactly like the pre-rewrite implementation.
            let mut memo: HashMap<u32, u128> = HashMap::new();
            let below = self.count_from_top(f, &mut memo);
            let total = below << self.level_of(f);
            u64::try_from(total).unwrap_or(u64::MAX)
        }

        fn count_from_top(&self, f: u32, memo: &mut HashMap<u32, u128>) -> u128 {
            if f == 0 {
                return 0;
            }
            if f == 1 {
                return 1;
            }
            if let Some(&c) = memo.get(&f) {
                return c;
            }
            let n = self.nodes[f as usize];
            let v = n.var as usize;
            let low = self.count_from_top(n.low, memo);
            let high = self.count_from_top(n.high, memo);
            let c =
                (low << (self.level_of(n.low) - v - 1)) + (high << (self.level_of(n.high) - v - 1));
            memo.insert(f, c);
            c
        }
    }
}

/// One reference-arm job result: the stats the cross-check compares.
struct RefJob {
    on: u64,
    dc: u64,
    off: u64,
    errors: u64,
    verified: bool,
    maximal: bool,
}

/// `g op c` for a constant `c` on the reference manager.
fn ref_op_with_const(mgr: &mut reference::HashMapManager, op: BinaryOp, g: u32, h: bool) -> u32 {
    match (op.apply(false, h), op.apply(true, h)) {
        (false, false) => mgr.zero(),
        (false, true) => g,
        (true, false) => mgr.not(g),
        (true, true) => mgr.one(),
    }
}

/// Builds one symbolic-instance output on the reference manager (the same
/// construction `SymbolicInstance::build_output` performs on the rebuilt
/// manager).
fn ref_build_output(
    mgr: &mut reference::HashMapManager,
    inst: &SymbolicInstance,
    output: usize,
) -> (u32, u32) {
    match &inst.outputs()[output] {
        SymbolicFunction::CoverIsf { on, dc } => {
            let on_bdd = mgr.cover(on);
            let dc_raw = mgr.cover(dc);
            let dc_bdd = mgr.diff(dc_raw, on_bdd);
            (on_bdd, dc_bdd)
        }
        SymbolicFunction::AdderCarry => {
            let bits = inst.num_inputs() / 2;
            let mut carry = mgr.zero();
            for i in 0..bits {
                let a = mgr.variable(2 * i);
                let b = mgr.variable(2 * i + 1);
                let gen = mgr.and(a, b);
                let axb = mgr.xor(a, b);
                let prop = mgr.and(axb, carry);
                carry = mgr.or(gen, prop);
            }
            (carry, mgr.zero())
        }
        SymbolicFunction::Parity => {
            let mut parity = mgr.zero();
            for i in 0..inst.num_inputs() {
                let x = mgr.variable(i);
                parity = mgr.xor(parity, x);
            }
            (parity, mgr.zero())
        }
        SymbolicFunction::Threshold { k } => {
            let k = *k;
            let mut ge: Vec<u32> =
                (0..=k).map(|j| if j == 0 { mgr.one() } else { mgr.zero() }).collect();
            for i in 0..inst.num_inputs() {
                let x = mgr.variable(i);
                for j in (1..=k).rev() {
                    ge[j] = mgr.ite(x, ge[j - 1], ge[j]);
                }
            }
            (ge[k], mgr.zero())
        }
    }
}

/// One job on the reference manager: same seeds, same algebra, old engine.
fn ref_run_job(num_vars: usize, f_src: ReferenceOperands<'_>, op: BinaryOp, seed: u64) -> RefJob {
    let mut mgr = reference::HashMapManager::new(num_vars);
    let (f_on, f_dc, noise) = match f_src {
        ReferenceOperands::Dense(f) => {
            let f_on = mgr.from_truth_table(f.on());
            let f_dc = mgr.from_truth_table(f.dc());
            let mut rng = DetRng::seed_from_u64(seed);
            let noise_tt = TruthTable::from_words(num_vars, || rng.next_u64());
            let noise = mgr.from_truth_table(&noise_tt);
            (f_on, f_dc, noise)
        }
        ReferenceOperands::Symbolic(inst, output) => {
            let (f_on, f_dc) = ref_build_output(&mut mgr, inst, output);
            let cover = benchmarks::symbolic::noise_cover(num_vars, seed);
            let noise = mgr.cover(&cover);
            (f_on, f_dc, noise)
        }
    };

    // Seeded divisor (same algebra as `seeded_divisor_bdd`).
    let g = match op {
        BinaryOp::And | BinaryOp::NonImplication => {
            let a = mgr.diff(noise, f_dc);
            let b = mgr.diff(a, f_on);
            mgr.or(b, f_on)
        }
        BinaryOp::Or | BinaryOp::ConverseImplication => mgr.and(noise, f_on),
        BinaryOp::ConverseNonImplication | BinaryOp::Nor => {
            let a = mgr.diff(noise, f_dc);
            mgr.diff(a, f_on)
        }
        BinaryOp::Implication | BinaryOp::Nand => {
            let a = mgr.diff(f_on, noise);
            let b = mgr.or(a, f_dc);
            mgr.not(b)
        }
        BinaryOp::Xor | BinaryOp::Xnor => mgr.xor(noise, f_on),
    };

    // Divisor validity (same unconditional check the engine arm performs, so
    // both arms do identical work).
    let valid = match op {
        BinaryOp::And | BinaryOp::NonImplication => {
            let d = mgr.diff(f_on, g);
            mgr.is_zero(d)
        }
        BinaryOp::ConverseNonImplication | BinaryOp::Nor => {
            let on_or_dc = mgr.or(f_on, f_dc);
            let overlap = mgr.and(g, on_or_dc);
            mgr.is_zero(overlap)
        }
        BinaryOp::Or | BinaryOp::ConverseImplication => {
            let d = mgr.diff(g, f_on);
            mgr.is_zero(d)
        }
        BinaryOp::Implication | BinaryOp::Nand => {
            let on_or_dc = mgr.or(f_on, f_dc);
            let all = mgr.or(on_or_dc, g);
            all == mgr.one()
        }
        BinaryOp::Xor | BinaryOp::Xnor => true,
    };
    assert!(valid, "reference divisor violates the {op} side condition");

    // Table II quotient, in the pre-rewrite eager shape: care, off and g'
    // are materialized up front for every operator.
    let f_care = mgr.not(f_dc);
    let on_or_dc = mgr.or(f_on, f_dc);
    let f_off = mgr.not(on_or_dc);
    let g_off = mgr.not(g);
    let (on_raw, dc) = match op {
        BinaryOp::And => (f_on, mgr.or(g_off, f_dc)),
        BinaryOp::ConverseNonImplication => (f_on, mgr.or(g, f_dc)),
        BinaryOp::NonImplication => (mgr.diff(f_off, g_off), mgr.or(g_off, f_dc)),
        BinaryOp::Nor => (mgr.diff(f_off, g), mgr.or(g, f_dc)),
        BinaryOp::Or => (mgr.diff(f_on, g), mgr.or(g, f_dc)),
        BinaryOp::Implication => (mgr.diff(f_on, g_off), mgr.or(g_off, f_dc)),
        BinaryOp::ConverseImplication => (f_off, mgr.or(g, f_dc)),
        BinaryOp::Nand => (f_off, mgr.or(g_off, f_dc)),
        BinaryOp::Xor => {
            let x = mgr.xor(f_on, g);
            (mgr.and(x, f_care), f_dc)
        }
        BinaryOp::Xnor => {
            let x = mgr.xor(f_off, g);
            (mgr.and(x, f_care), f_dc)
        }
    };
    let h_on = mgr.diff(on_raw, dc);
    let h_dc = dc;

    // Lemmas 1–5.
    let verified = {
        let with_h1 = ref_op_with_const(&mut mgr, op, g, true);
        let wrong1 = mgr.xor(with_h1, f_on);
        let h_may_be_1 = mgr.or(h_on, h_dc);
        let bad1 = mgr.and(wrong1, h_may_be_1);
        let bad1_care = mgr.diff(bad1, f_dc);
        let with_h0 = ref_op_with_const(&mut mgr, op, g, false);
        let wrong0 = mgr.xor(with_h0, f_on);
        let bad0 = mgr.diff(wrong0, h_on);
        let bad0_care = mgr.diff(bad0, f_dc);
        mgr.is_zero(bad1_care) && mgr.is_zero(bad0_care)
    };
    // Corollaries 1–4.
    let maximal = {
        let with_h0 = ref_op_with_const(&mut mgr, op, g, false);
        let with_h1 = ref_op_with_const(&mut mgr, op, g, true);
        let x0 = mgr.xor(with_h0, f_on);
        let ok0 = mgr.not(x0);
        let x1 = mgr.xor(with_h1, f_on);
        let ok1 = mgr.not(x1);
        let either = mgr.or(ok0, ok1);
        let neither = mgr.not(either);
        let invalid = mgr.diff(neither, f_dc);
        let only1 = mgr.diff(ok1, ok0);
        let forced_true = mgr.diff(only1, f_dc);
        let both = mgr.and(ok0, ok1);
        let free = mgr.or(f_dc, both);
        mgr.is_zero(invalid) && h_on == forced_true && h_dc == free
    };

    let h_union = mgr.or(h_on, h_dc);
    let h_off = mgr.not(h_union);
    let err = {
        let x = mgr.xor(g, f_on);
        mgr.diff(x, f_dc)
    };
    let _ = mgr.num_nodes();
    RefJob {
        on: mgr.sat_count(h_on),
        dc: mgr.sat_count(h_dc),
        off: mgr.sat_count(h_off),
        errors: mgr.sat_count(err),
        verified,
        maximal,
    }
}

enum ReferenceOperands<'a> {
    Dense(&'a boolfunc::Isf),
    Symbolic(&'a SymbolicInstance, usize),
}

/// Runs every engine job through the reference manager, in the engine's job
/// order, returning `(wall_micros, jobs)`.
fn run_reference(suite: &Suite, config: &EngineConfig) -> (u64, Vec<RefJob>) {
    let mut results = Vec::new();
    let start = Instant::now();
    for (ii, inst) in suite.instances().iter().enumerate() {
        if inst.num_inputs() > config.max_inputs {
            continue;
        }
        for (oi, f) in inst.outputs().iter().take(config.max_outputs).enumerate() {
            for (ki, &op) in config.ops.iter().enumerate() {
                let seed = config.job_seed(ii, oi, ki);
                results.push(ref_run_job(inst.num_inputs(), ReferenceOperands::Dense(f), op, seed));
            }
        }
    }
    let dense_len = suite.instances().len();
    for (si, inst) in suite.symbolic_instances().iter().enumerate() {
        for oi in 0..inst.num_outputs().min(config.max_outputs) {
            for (ki, &op) in config.ops.iter().enumerate() {
                let seed = config.job_seed(dense_len + si, oi, ki);
                results.push(ref_run_job(
                    inst.num_inputs(),
                    ReferenceOperands::Symbolic(inst, oi),
                    op,
                    seed,
                ));
            }
        }
    }
    (start.elapsed().as_micros() as u64, results)
}

struct Args {
    suite: String,
    config: EngineConfig,
    json_path: String,
    write_baseline: bool,
    repeat: usize,
}

/// The bench's default auto-sift trigger, tuned on `Suite::large()`: the
/// engine's general-purpose default (2048) sifts the 32/40-var jobs so often
/// that cache invalidation dominates (~5x wall time for a further ~2x peak
/// reduction), while FORCE seeding alone already leaves the peak at ~17k
/// nodes. This threshold lets sifting fire only inside the genuinely large
/// jobs — peak 13,444 live nodes (68% below the pre-DVO 42,629) at a wall
/// time ~5% *under* the pre-DVO baseline.
const BENCH_SIFT_THRESHOLD: usize = 14336;

fn bench_reorder() -> ReorderConfig {
    ReorderConfig { sift_threshold: BENCH_SIFT_THRESHOLD }
}

/// Exits with code 2 on any unknown flag, missing value or unparsable
/// number (via [`ArgCursor`]): this binary feeds the CI gate and writes the
/// committed baseline, so silently falling back to defaults would be worse
/// than refusing to run.
fn parse_args() -> Args {
    let mut args = Args {
        suite: "large".to_string(),
        config: EngineConfig {
            backend: Backend::Bdd,
            reorder: Some(bench_reorder()),
            ..EngineConfig::default()
        },
        json_path: "BENCH_bdd_sweep.json".to_string(),
        write_baseline: false,
        repeat: 3,
    };
    let mut argv = ArgCursor::from_env("bdd_sweep");
    while let Some(flag) = argv.next_flag() {
        match flag.as_str() {
            "--suite" => args.suite = argv.value(&flag),
            "--threads" => args.config.threads = argv.number(&flag),
            "--seed" => args.config.seed = argv.number(&flag),
            "--max-inputs" => args.config.max_inputs = argv.number(&flag),
            "--max-outputs" => args.config.max_outputs = argv.number(&flag),
            "--repeat" => args.repeat = argv.number(&flag),
            "--json" => args.json_path = argv.value(&flag),
            "--reorder" => args.config.reorder = Some(bench_reorder()),
            "--no-reorder" => args.config.reorder = None,
            "--sift-threshold" => {
                let threshold = argv.number(&flag);
                let reorder = args.config.reorder.get_or_insert_with(bench_reorder);
                reorder.sift_threshold = threshold;
            }
            "--write-baseline" => args.write_baseline = true,
            other => argv.fail(format_args!("unknown argument {other}")),
        }
    }
    args
}

fn suite_by_name(name: &str) -> Option<Suite> {
    match name {
        "large" => Some(Suite::large()),
        "smoke" => Some(Suite::smoke()),
        "table3" => Some(Suite::table3()),
        "table4" => Some(Suite::table4()),
        "all" => Some(Suite::all()),
        _ => None,
    }
}

fn report_to_json(
    suite: &str,
    report: &SweepReport,
    reorder: bool,
    engine_1t_micros: u64,
    reference_micros: u64,
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
    let max_vars = report.jobs.iter().map(|j| j.num_vars).max().unwrap_or(0);
    let peak_nodes = report.jobs.iter().map(|j| j.bdd_nodes).max().unwrap_or(0);
    Value::Object(vec![
        ("schema".into(), json::s("bidecomp-bdd-sweep-v1")),
        ("backend".into(), json::s(report.backend.name())),
        ("reorder".into(), Value::Bool(reorder)),
        ("suite".into(), json::s(suite)),
        ("threads".into(), json::num(report.threads as u64)),
        ("jobs".into(), json::num(report.jobs.len() as u64)),
        ("verified".into(), json::num(report.jobs.iter().filter(|j| j.verified).count() as u64)),
        ("maximal".into(), json::num(report.jobs.iter().filter(|j| j.maximal).count() as u64)),
        ("max_vars".into(), json::num(max_vars as u64)),
        ("peak_bdd_nodes".into(), json::num(peak_nodes)),
        ("engine_wall_ms".into(), Value::Num(report.wall_micros as f64 / 1000.0)),
        ("engine_wall_1t_ms".into(), Value::Num(engine_1t_micros as f64 / 1000.0)),
        ("sequential_wall_ms".into(), Value::Num(reference_micros as f64 / 1000.0)),
        ("speedup".into(), Value::Num((speedup * 1000.0).round() / 1000.0)),
        ("operators".into(), Value::Array(operators)),
    ])
}

fn main() -> ExitCode {
    let args = parse_args();
    let Some(suite) = suite_by_name(&args.suite) else {
        eprintln!("unknown suite '{}'; expected large, smoke, table3, table4 or all", args.suite);
        return ExitCode::FAILURE;
    };
    // The committed baseline is only ever refreshed deliberately: pointing
    // `--json` at it without `--write-baseline` is almost certainly a typo
    // that would silently loosen the CI gate to "compare against myself".
    if !args.write_baseline
        && bench_out_path(&args.json_path) == bench_out_path("BENCH_bdd_baseline.json")
    {
        eprintln!(
            "refusing to overwrite the committed baseline {}; \
             pass --write-baseline to refresh it deliberately",
            args.json_path
        );
        return ExitCode::FAILURE;
    }

    println!(
        "== BDD sweep: suite '{}' ({} dense + {} symbolic instances) ==",
        suite.name(),
        suite.instances().len(),
        suite.symbolic_instances().len()
    );
    let repeat = args.repeat.max(1);
    // The gated `speedup` is reference-vs-engine at ONE thread: both arms are
    // sequential, so the ratio isolates the manager rewrite and is
    // comparable across hosts with different core counts.
    let config_1t = EngineConfig { threads: 1, ..args.config.clone() };
    let (mut reference_micros, reference_jobs) = run_reference(&suite, &args.config);
    let mut engine_1t_micros = sweep(&suite, &config_1t).wall_micros;
    let mut report = sweep(&suite, &args.config);
    for _ in 1..repeat {
        reference_micros = reference_micros.min(run_reference(&suite, &args.config).0);
        engine_1t_micros = engine_1t_micros.min(sweep(&suite, &config_1t).wall_micros);
        let rerun = sweep(&suite, &args.config);
        if rerun.wall_micros < report.wall_micros {
            report = rerun;
        }
    }
    let speedup = reference_micros as f64 / engine_1t_micros.max(1) as f64;

    // Cross-check: the rebuilt manager must agree with the pre-rewrite
    // manager job for job.
    if report.jobs.len() != reference_jobs.len() {
        eprintln!(
            "FAIL: engine ran {} jobs, reference ran {}",
            report.jobs.len(),
            reference_jobs.len()
        );
        return ExitCode::FAILURE;
    }
    for (job, r) in report.jobs.iter().zip(&reference_jobs) {
        if (job.on_minterms, job.dc_minterms, job.off_minterms, job.divisor_errors)
            != (r.on, r.dc, r.off, r.errors)
            || (job.verified, job.maximal) != (r.verified, r.maximal)
        {
            eprintln!(
                "FAIL: {}[{}] {} diverges from the HashMap-manager reference",
                job.instance, job.output, job.op
            );
            return ExitCode::FAILURE;
        }
    }
    if !report.all_verified() {
        eprintln!("FAIL: some jobs did not verify symbolically");
        return ExitCode::FAILURE;
    }

    println!(
        "{} jobs on {} threads: engine {:.1} ms ({:.1} ms at 1 thread), \
         HashMap-manager reference {:.1} ms (manager speedup {speedup:.2}x)",
        report.jobs.len(),
        report.threads,
        report.wall_micros as f64 / 1000.0,
        engine_1t_micros as f64 / 1000.0,
        reference_micros as f64 / 1000.0,
    );
    println!(
        "peak live BDD nodes over any job: {} (reordering {})",
        report.jobs.iter().map(|j| j.bdd_nodes).max().unwrap_or(0),
        if args.config.reorder.is_some() { "on" } else { "off" },
    );
    for s in &report.operators {
        println!(
            "  {:<4} {:>4} jobs  verified {:>4}  maximal {:>4}  |h_dc| {:>16}  {:>8.1} ms",
            s.op.symbol(),
            s.jobs,
            s.verified,
            s.maximal,
            s.dc_minterms,
            s.nanos as f64 / 1e6
        );
    }

    let doc = report_to_json(
        suite.name(),
        &report,
        args.config.reorder.is_some(),
        engine_1t_micros,
        reference_micros,
        speedup,
    );
    let text = json::pretty(&doc);
    let path = bench_out_path(&args.json_path);
    if let Err(e) = std::fs::write(&path, &text) {
        eprintln!("could not write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", path.display());
    if args.write_baseline {
        let path = bench_out_path("BENCH_bdd_baseline.json");
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("could not write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}
