//! The batch decomposition engine: the full 10-operator × instance × output
//! sweep of a [`benchmarks::Suite`], fanned across a fixed-size worker pool
//! of `std` threads with deterministic, seed-stable results.
//!
//! Each *job* is one `(instance, output, operator)` triple. The worker
//! derives a seed-stable valid divisor for the operator's Table II side
//! condition ([`seeded_divisor`]), computes the full quotient, and checks
//! both Lemmas 1–5 ([`crate::verify_decomposition`]) and Corollaries 1–4
//! ([`crate::verify_maximal_flexibility`]). Results land in a pre-sized slot
//! per job, so the report is bit-identical regardless of thread count or
//! scheduling.
//!
//! Two [`Backend`]s execute the jobs:
//!
//! * [`Backend::Dense`] — the allocation-free word-parallel path
//!   ([`QuotientScratch`] plus the `_sets` verifiers) on packed truth
//!   tables; unbeatable while `2^n` bits fit comfortably in cache.
//! * [`Backend::Bdd`] — the symbolic path ([`crate::full_quotient_bdd`] plus
//!   the `_bdd` verifiers) with one reused [`BddManager`] per worker. It
//!   additionally sweeps the suite's *symbolic* instances
//!   ([`benchmarks::SymbolicInstance`], 24–40 inputs), which the dense
//!   backend cannot represent at all. On dense instances its divisors are
//!   bit-identical to the dense backend's (same noise words, same algebra),
//!   so the two backends produce the same report minterm counts.
//!
//! Besides the quotient sweep, the module hosts a second sweep kind:
//! [`sweep_synthesis`] fans the recursive bi-decomposition synthesizer
//! ([`crate::recursive`]) over a suite's dense instances on the same
//! slot-indexed pool, reporting gate counts, mapped areas and gains instead
//! of minterm statistics.
//!
//! ```rust
//! use benchmarks::Suite;
//! use bidecomp::engine::{sweep, Backend, EngineConfig};
//!
//! let report = sweep(&Suite::smoke(), &EngineConfig::default());
//! assert_eq!(report.jobs.len(), report.total_jobs());
//! assert!(report.all_verified());
//! // Ten per-operator aggregates, in Table I order.
//! assert_eq!(report.operators.len(), 10);
//!
//! // The same sweep, executed symbolically.
//! let config = EngineConfig { backend: Backend::Bdd, ..EngineConfig::default() };
//! let symbolic = sweep(&Suite::smoke(), &config);
//! assert!(symbolic.all_verified());
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bdd::{force_order, Bdd, BddManager, SiftConfig};
use benchmarks::{DetRng, Suite, SymbolicFunction};
use boolfunc::{Isf, TruthTable};

use crate::approximation::{is_valid_divisor, is_valid_divisor_bdd};
use crate::decompose::ApproxStrategy;
use crate::operator::BinaryOp;
use crate::quotient::{full_quotient_bdd, quotient_off_bdd, QuotientScratch, QuotientSets};
use crate::recursive::{RecursiveConfig, RecursiveSynthesizer};
use crate::verify::{
    verify_decomposition_bdd, verify_decomposition_sets, verify_maximal_flexibility_bdd,
    verify_maximal_flexibility_sets,
};

/// Which representation executes the sweep's jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Packed truth tables (word-parallel, allocation-free). The default.
    #[default]
    Dense,
    /// BDDs in a per-worker manager; also sweeps the suite's symbolic
    /// instances, which have no dense representation.
    Bdd,
}

impl Backend {
    /// Stable lowercase name (used in reports and artifacts).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Dense => "dense",
            Backend::Bdd => "bdd",
        }
    }
}

/// Configuration of a batch sweep.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads; `0` uses the machine's available parallelism.
    pub threads: usize,
    /// Operators to sweep, in report order (defaults to all ten of Table I).
    pub ops: Vec<BinaryOp>,
    /// Skip dense instances with more than this many inputs. Symbolic
    /// instances are curated for the BDD backend and are never filtered.
    pub max_inputs: usize,
    /// Use at most this many outputs per instance.
    pub max_outputs: usize,
    /// Base seed for the per-job divisor derivation.
    pub seed: u64,
    /// The representation executing the jobs.
    pub backend: Backend,
    /// Opt-in dynamic variable ordering for the BDD backend (the dense
    /// backend ignores it). `None` — the default — keeps the fixed identity
    /// order, which is what the bit-identical cross-backend property tests
    /// pin. With a [`ReorderConfig`], cover-described symbolic jobs seed a
    /// FORCE static order and every symbolic job sifts on table-growth
    /// triggers; all of it is deterministic, so reports stay independent of
    /// thread count — only `bdd_nodes` changes relative to a non-reordered
    /// run (semantic minterm counts and verification verdicts cannot).
    pub reorder: Option<ReorderConfig>,
    /// Optional observability registry. When set, each worker accumulates a
    /// plain-field recorder (phase timers, a job-latency histogram, BDD
    /// manager counters) and merges it into the registry once, when the
    /// worker retires — no locks or atomics on the job hot path, and phase
    /// boundaries are clocked on a sampled subset of jobs (see
    /// [`PHASE_SAMPLE`]) because quotient jobs are sub-microsecond and a
    /// per-job clock read would dominate them. Metrics never influence
    /// results: every [`JobResult::semantic`] fingerprint is bit-identical
    /// with or without a registry attached, at any thread count.
    pub obs: Option<Arc<obs::Registry>>,
}

/// Dynamic-variable-ordering policy of the BDD backend
/// ([`EngineConfig::reorder`]). Every cover-described job's manager is
/// seeded with a FORCE static order over its on/dc/noise covers before any
/// node is built, and sifting runs under the [`bdd::SiftConfig`] defaults
/// (20% growth headroom, no pass budget); only the trigger varies between
/// callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReorderConfig {
    /// Live-node threshold arming the automatic sift trigger
    /// ([`bdd::SiftConfig::auto_threshold`]); 0 disables sifting and leaves
    /// only static seeding.
    pub sift_threshold: usize,
}

impl Default for ReorderConfig {
    /// Sifting armed at 2048 live nodes — tuned on `Suite::large()` where
    /// it cuts peak node count without costing wall time.
    fn default() -> Self {
        ReorderConfig { sift_threshold: 2048 }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 0,
            ops: BinaryOp::all().to_vec(),
            max_inputs: 12,
            max_outputs: 6,
            seed: 0xB1DE_C04D,
            backend: Backend::Dense,
            reorder: None,
            obs: None,
        }
    }
}

/// The workspace's one rule for a thread-count knob: `requested`, or the
/// machine's available parallelism when `requested` is 0.
pub fn threads_or_available(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

impl EngineConfig {
    /// The worker-pool size actually used (see [`threads_or_available`]).
    pub fn effective_threads(&self) -> usize {
        threads_or_available(self.threads)
    }

    /// The divisor seed of job `(instance_index, output_index, op_index)`.
    ///
    /// Exposed so tests (and external tools) can regenerate the exact divisor
    /// a sweep used. The mapping depends only on the base seed and the three
    /// indices, never on thread count or scheduling.
    pub fn job_seed(&self, instance: usize, output: usize, op_index: usize) -> u64 {
        let mixed = self.seed
            ^ (instance as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (output as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ (op_index as u64).wrapping_mul(0x1656_67B1_9E37_79F9);
        DetRng::seed_from_u64(mixed).next_u64()
    }
}

/// Derives a deterministic divisor satisfying the Table II side condition of
/// `op`, using `seed` to choose which minterms move.
///
/// The divisor is built word-parallel from a [`DetRng`] noise stream:
///
/// * `AND`/`⇏` need `f_on ⊆ g`: `g = f_on ∪ (noise ∩ f_off)`;
/// * `OR`/`⇐` need `g ⊆ f_on`: `g = f_on ∩ noise`;
/// * `⇍`/`NOR` need `g ⊆ f_off`: `g = f_off ∩ noise`;
/// * `⇒`/`NAND` need `f_off ⊆ g`: `g = f_off ∪ (noise ∩ f_on)`;
/// * `XOR`/`XNOR` accept anything: `g = f_on ⊕ noise`.
pub fn seeded_divisor(f: &Isf, op: BinaryOp, seed: u64) -> TruthTable {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut g = TruthTable::from_words(f.num_vars(), || rng.next_u64());
    match op {
        BinaryOp::And | BinaryOp::NonImplication => {
            g.difference_assign(f.dc());
            g.difference_assign(f.on()); // noise ∩ f_off
            g |= f.on();
        }
        BinaryOp::Or | BinaryOp::ConverseImplication => g &= f.on(),
        BinaryOp::ConverseNonImplication | BinaryOp::Nor => {
            g.difference_assign(f.dc());
            g.difference_assign(f.on());
        }
        BinaryOp::Implication | BinaryOp::Nand => {
            // g = f_off ∪ (noise ∩ f_on) without materializing f_off, via
            // De Morgan: !((f_on \ noise) ∪ f_dc) = f_off ∪ (noise ∩ !f_dc)
            // = f_off ∪ (noise ∩ f_on).
            g.not_assign();
            g &= f.on(); // f_on \ noise
            g |= f.dc();
            g.not_assign();
        }
        BinaryOp::Xor | BinaryOp::Xnor => g ^= f.on(),
    }
    debug_assert!(is_valid_divisor(f, &g, op), "seeded divisor violates the {op} side condition");
    g
}

/// The symbolic counterpart of [`seeded_divisor`]: derives a divisor
/// satisfying the Table II side condition of `op` from an arbitrary `noise`
/// function, using the *same set algebra* as the dense version — feed it the
/// BDD of the same noise words and it produces the BDD of the same divisor.
///
/// At large arities the engine feeds it a seeded
/// [`benchmarks::symbolic::noise_cover`] instead, keeping the divisor's BDD
/// small while the side condition still holds by construction.
pub fn seeded_divisor_bdd(
    mgr: &mut BddManager,
    f_on: Bdd,
    f_dc: Bdd,
    noise: Bdd,
    op: BinaryOp,
) -> Bdd {
    match op {
        BinaryOp::And | BinaryOp::NonImplication => {
            // f_on ∪ (noise ∩ f_off)
            let a = mgr.diff(noise, f_dc);
            let b = mgr.diff(a, f_on);
            mgr.or(b, f_on)
        }
        BinaryOp::Or | BinaryOp::ConverseImplication => mgr.and(noise, f_on),
        BinaryOp::ConverseNonImplication | BinaryOp::Nor => {
            // noise ∩ f_off
            let a = mgr.diff(noise, f_dc);
            mgr.diff(a, f_on)
        }
        BinaryOp::Implication | BinaryOp::Nand => {
            // f_off ∪ (noise ∩ f_on) = ¬((f_on \ noise) ∪ f_dc)
            let a = mgr.diff(f_on, noise);
            let b = mgr.or(a, f_dc);
            mgr.not(b)
        }
        BinaryOp::Xor | BinaryOp::Xnor => mgr.xor(noise, f_on),
    }
}

/// The outcome of one `(instance, output, operator)` job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    /// Benchmark instance name.
    pub instance: String,
    /// Output index within the instance.
    pub output: usize,
    /// Operator applied.
    pub op: BinaryOp,
    /// Arity of the function.
    pub num_vars: usize,
    /// `|h_on|` of the computed quotient.
    pub on_minterms: u64,
    /// `|h_dc|` of the computed quotient (the flexibility the paper maximizes).
    pub dc_minterms: u64,
    /// `|h_off|` of the computed quotient.
    pub off_minterms: u64,
    /// Number of minterms on which the seeded divisor differs from `f` on the
    /// care set (the approximation error driving the quotient's off-set).
    pub divisor_errors: u64,
    /// Lemmas 1–5: `f = g op h` for every completion of `h`.
    pub verified: bool,
    /// Corollaries 1–4: `h` has the smallest on-set and largest dc-set.
    pub maximal: bool,
    /// Nodes in the job's BDD manager after the quotient and both
    /// verifications (0 on the dense backend). Deterministic: each job runs
    /// in a freshly cleared manager.
    pub bdd_nodes: u64,
    /// Wall time of the job in nanoseconds (divisor + quotient + both
    /// verifications). Excluded from determinism comparisons.
    pub nanos: u64,
}

impl JobResult {
    /// The scheduling-independent portion of the result (everything except
    /// the wall time), for bit-identical comparisons across thread counts.
    #[allow(clippy::type_complexity)]
    pub fn semantic(&self) -> (&str, usize, BinaryOp, usize, u64, u64, u64, u64, bool, bool, u64) {
        (
            &self.instance,
            self.output,
            self.op,
            self.num_vars,
            self.on_minterms,
            self.dc_minterms,
            self.off_minterms,
            self.divisor_errors,
            self.verified,
            self.maximal,
            self.bdd_nodes,
        )
    }
}

/// Per-operator aggregate over all jobs of a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperatorStats {
    /// The operator.
    pub op: BinaryOp,
    /// Number of jobs run with this operator.
    pub jobs: u64,
    /// Jobs whose decomposition verified (Lemmas 1–5).
    pub verified: u64,
    /// Jobs whose quotient was maximally flexible (Corollaries 1–4).
    pub maximal: u64,
    /// Total `|h_on|` across jobs.
    pub on_minterms: u64,
    /// Total `|h_dc|` across jobs.
    pub dc_minterms: u64,
    /// Total divisor errors across jobs.
    pub divisor_errors: u64,
    /// Total job wall time in nanoseconds.
    pub nanos: u64,
}

/// The machine-readable result of a sweep: per-job results in deterministic
/// job order plus per-operator aggregates in the order of
/// [`EngineConfig::ops`].
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Name of the suite that was swept.
    pub suite: String,
    /// Backend that executed the jobs.
    pub backend: Backend,
    /// Worker threads used.
    pub threads: usize,
    /// One result per job, ordered by `(instance, output, operator)` index —
    /// independent of scheduling.
    pub jobs: Vec<JobResult>,
    /// Aggregates per operator.
    pub operators: Vec<OperatorStats>,
    /// End-to-end wall time of the sweep in microseconds.
    pub wall_micros: u64,
    /// Log-bucketed histogram of per-job wall times in microseconds, built
    /// from the jobs' `nanos` after the pool joins (so it costs nothing on
    /// the hot path and is present whether or not [`EngineConfig::obs`] is
    /// set). Wall times are scheduling-dependent; this field is observability
    /// data, never part of any semantic fingerprint.
    pub job_latency: obs::HistogramSnapshot,
}

impl SweepReport {
    /// Total number of jobs.
    pub fn total_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// `true` if every job verified and was maximally flexible.
    pub fn all_verified(&self) -> bool {
        self.jobs.iter().all(|j| j.verified && j.maximal)
    }
}

/// One `(instance, output, op)` triple by index. `symbolic` selects which of
/// the suite's two instance lists `instance` indexes into.
#[derive(Debug, Clone, Copy)]
struct JobSpec {
    instance: usize,
    output: usize,
    op_index: usize,
    symbolic: bool,
}

/// Per-worker reusable buffers, rebuilt only when the arity changes (jobs are
/// enumerated instance-major, so this is rare). The dense buffers exist only
/// for arities the dense representation supports; the BDD manager is created
/// on first symbolic use and then recycled through [`BddManager::clear`].
struct WorkerScratch {
    num_vars: usize,
    scratch: QuotientScratch,
    sets: QuotientSets,
    mgr: Option<BddManager>,
    /// Per-worker observability recorder ([`EngineConfig::obs`] only):
    /// plain-field accumulation per job, merged into the shared registry
    /// when the worker retires (on drop).
    rec: Option<EngineRecorder>,
}

/// Plain-field per-worker metrics, merged into the [`obs::Registry`] exactly
/// once — from [`Drop`], when the worker finishes its jobs.
struct EngineRecorder {
    registry: Arc<obs::Registry>,
    /// Whether the accumulated BDD manager counters are merged (under
    /// `bdd.mgr`); `false` on the dense backend, which has no manager.
    has_bdd: bool,
    jobs: u64,
    /// Jobs whose phase boundaries were actually clocked (the sampled
    /// subset); divide the phase nanos by this, not by `jobs`.
    clocked_jobs: u64,
    /// Drives the phase-clocking sample: job `tick` is clocked iff
    /// `tick % PHASE_SAMPLE == 0`, so each worker's first job always is.
    tick: u64,
    quotient_nanos: u64,
    verify_nanos: u64,
    latency: obs::LocalHistogram,
    bdd: bdd::CacheStats,
}

/// One job in this many (per worker, the first always) has its phase
/// boundaries clocked when a registry is attached ([`EngineConfig::obs`]).
/// Dense quotient jobs are sub-microsecond, so the extra `Instant::now`
/// call a phase split needs would cost tens of percent if taken on every
/// job; sampling keeps the whole observability layer inside the overhead
/// budget the `obs_overhead` benchmark gates. Job counts, the job-latency
/// histogram and the BDD work counters are exact — only the
/// `engine.{quotient,verify}_nanos` phase timers are estimates over
/// the `engine.clocked_jobs` sample.
pub const PHASE_SAMPLE: u64 = 16;

impl EngineRecorder {
    fn new(registry: Arc<obs::Registry>, has_bdd: bool) -> Self {
        EngineRecorder {
            registry,
            has_bdd,
            jobs: 0,
            clocked_jobs: 0,
            tick: 0,
            quotient_nanos: 0,
            verify_nanos: 0,
            latency: obs::LocalHistogram::new(),
            bdd: bdd::CacheStats::default(),
        }
    }

    /// Whether the job about to run has its phase boundaries clocked
    /// (see [`PHASE_SAMPLE`]); call exactly once per job.
    fn clock_phases(&mut self) -> bool {
        let clocked = self.tick.is_multiple_of(PHASE_SAMPLE);
        self.tick += 1;
        clocked
    }

    /// Accounts one finished job: total wall always, plus — for clocked
    /// jobs — its phase split (divisor+quotient, verification+counting).
    fn record_job(&mut self, nanos: u64, quotient: Option<u64>) {
        self.jobs += 1;
        self.latency.record(nanos / 1_000);
        if let Some(quotient) = quotient {
            self.clocked_jobs += 1;
            self.quotient_nanos += quotient;
            self.verify_nanos += nanos.saturating_sub(quotient);
        }
    }
}

impl Drop for EngineRecorder {
    fn drop(&mut self) {
        let registry = &self.registry;
        registry.add("engine.jobs", self.jobs);
        registry.add("engine.clocked_jobs", self.clocked_jobs);
        registry.add("engine.quotient_nanos", self.quotient_nanos);
        registry.add("engine.verify_nanos", self.verify_nanos);
        self.latency.merge_into(&registry.histogram("engine.job_micros"));
        if self.has_bdd {
            self.bdd.merge_into(registry, "bdd.mgr");
        }
    }
}

impl WorkerScratch {
    fn new() -> Self {
        WorkerScratch {
            num_vars: 0,
            scratch: QuotientScratch::new(0),
            sets: QuotientSets::zero(0),
            mgr: None,
            rec: None,
        }
    }

    /// A scratch recording metrics into `config.obs` if set.
    fn for_sweep(config: &EngineConfig) -> Self {
        let has_bdd = config.backend == Backend::Bdd;
        WorkerScratch {
            rec: config.obs.as_ref().map(|r| EngineRecorder::new(Arc::clone(r), has_bdd)),
            ..Self::new()
        }
    }

    fn ensure(&mut self, num_vars: usize) {
        if self.num_vars != num_vars {
            self.num_vars = num_vars;
            self.scratch = QuotientScratch::new(num_vars);
            self.sets = QuotientSets::zero(num_vars);
        }
    }

    /// A cleared manager of arity `num_vars`, reusing the previous job's
    /// allocation whenever the arity matches.
    fn manager_for(&mut self, num_vars: usize) -> &mut BddManager {
        match &mut self.mgr {
            Some(mgr) if mgr.num_vars() == num_vars => {
                mgr.clear();
            }
            slot => *slot = Some(BddManager::new(num_vars)),
        }
        self.mgr.as_mut().expect("manager just ensured")
    }
}

/// Runs the full batch sweep of `suite` under `config` and aggregates the
/// report. See the [module documentation](self) for the execution model.
///
/// # Panics
///
/// Panics if `config.ops` is empty.
pub fn sweep(suite: &Suite, config: &EngineConfig) -> SweepReport {
    assert!(!config.ops.is_empty(), "the engine needs at least one operator");
    let instances = suite.instances();
    let mut specs = Vec::new();
    for (instance, inst) in instances.iter().enumerate() {
        if inst.num_inputs() > config.max_inputs {
            continue;
        }
        for output in 0..inst.num_outputs().min(config.max_outputs) {
            for op_index in 0..config.ops.len() {
                specs.push(JobSpec { instance, output, op_index, symbolic: false });
            }
        }
    }
    // Symbolic instances have no dense representation: only the BDD backend
    // can execute them.
    if config.backend == Backend::Bdd {
        for (instance, inst) in suite.symbolic_instances().iter().enumerate() {
            for output in 0..inst.num_outputs().min(config.max_outputs) {
                for op_index in 0..config.ops.len() {
                    specs.push(JobSpec { instance, output, op_index, symbolic: true });
                }
            }
        }
    }

    let threads = config.effective_threads().clamp(1, specs.len().max(1));
    let start = Instant::now();
    let jobs = run_pool(
        &specs,
        threads,
        || WorkerScratch::for_sweep(config),
        |buffers, spec| run_job(suite, config, *spec, buffers),
    );
    let wall_micros = start.elapsed().as_micros() as u64;

    // Post-pool bookkeeping: the job-latency histogram is rebuilt from the
    // recorded per-job wall times (free for the workers), and point-in-time
    // gauges land in the registry.
    let mut latency = obs::LocalHistogram::new();
    for job in &jobs {
        latency.record(job.nanos / 1_000);
    }
    if let Some(registry) = &config.obs {
        registry.counter("engine.sweeps").inc();
    }

    let operators = aggregate(&config.ops, &jobs);
    SweepReport {
        suite: suite.name().to_string(),
        backend: config.backend,
        threads,
        jobs,
        operators,
        wall_micros,
        job_latency: latency.snapshot(),
    }
}

/// Fans `specs` over a pool of `threads` workers — the calling thread plus
/// `threads - 1` scoped threads — each with its own local state from `init`,
/// and scatters the results back into spec order.
///
/// The caller works rather than idling in `join`: a sweep spawns one thread
/// fewer, and a one-thread pool spawns none. Under glibc each spawned thread
/// also takes a malloc arena whose pages stay resident after it exits; one
/// thread fewer per sweep cut `perfbench`'s `suite-synth` peak RSS from
/// about 6.4 to 5.3 MB on a 2-vCPU host.
///
/// Workers claim jobs from a shared atomic counter and accumulate
/// `(slot, result)` pairs locally — no shared lock in the hot loop (dense
/// quotient jobs are sub-microsecond; a per-job mutex would serialize the
/// pool). The slot scatter after the scope joins makes the output a pure
/// function of `specs`, independent of thread count and scheduling — the
/// bit-identical guarantee both sweep kinds advertise.
///
/// Jobs are assumed not to panic: a job panic is a bug in the caller. The
/// pool still joins every worker before it re-raises the panic, so one bad
/// job cannot leave scoped threads detached mid-unwind.
///
/// # Panics
///
/// Re-raises the first worker's job panic, with its original payload.
pub fn run_pool<S: Sync, L, R: Send>(
    specs: &[S],
    threads: usize,
    init: impl Fn() -> L + Sync,
    job: impl Fn(&mut L, &S) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let work = || {
        let mut state = init();
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(spec) = specs.get(i) else { break };
            local.push((i, job(&mut state, spec)));
        }
        local
    };
    let workers: Vec<std::thread::Result<Vec<(usize, R)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let own = std::panic::catch_unwind(std::panic::AssertUnwindSafe(work));
        std::iter::once(own).chain(handles.into_iter().map(|h| h.join())).collect()
    });
    let mut slots: Vec<Option<R>> = Vec::with_capacity(specs.len());
    slots.resize_with(specs.len(), || None);
    for worker in workers {
        let local = worker.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        for (i, result) in local {
            slots[i] = Some(result);
        }
    }
    slots.into_iter().map(|r| r.expect("every claimed job writes its slot")).collect()
}

fn run_job(
    suite: &Suite,
    config: &EngineConfig,
    spec: JobSpec,
    buffers: &mut WorkerScratch,
) -> JobResult {
    match config.backend {
        Backend::Dense => run_job_dense(suite, config, spec, buffers),
        Backend::Bdd => run_job_bdd(suite, config, spec, buffers),
    }
}

fn run_job_dense(
    suite: &Suite,
    config: &EngineConfig,
    spec: JobSpec,
    buffers: &mut WorkerScratch,
) -> JobResult {
    debug_assert!(!spec.symbolic, "the dense backend never enumerates symbolic jobs");
    let inst = &suite.instances()[spec.instance];
    let f = &inst.outputs()[spec.output];
    let op = config.ops[spec.op_index];
    let start = Instant::now();

    let seed = config.job_seed(spec.instance, spec.output, spec.op_index);
    let g = seeded_divisor(f, op, seed);
    buffers.ensure(f.num_vars());
    buffers.scratch.quotient_sets_into(f, &g, op, &mut buffers.sets);
    // Phase boundaries are only clocked on the recorder's job sample
    // ([`PHASE_SAMPLE`]): one extra `Instant::now` call on clocked jobs,
    // nothing otherwise.
    let clock = buffers.rec.as_mut().is_some_and(EngineRecorder::clock_phases);
    let quotient_done = clock.then(Instant::now);
    let sets = &buffers.sets;
    let verified = verify_decomposition_sets(f, &g, &sets.on, &sets.dc, op);
    let maximal = verify_maximal_flexibility_sets(f, &g, &sets.on, &sets.dc, op);
    let divisor_errors = care_errors(f, &g);

    let (on_minterms, dc_minterms, off_minterms) =
        (sets.on.count_ones(), sets.dc.count_ones(), sets.off.count_ones());
    let nanos = start.elapsed().as_nanos() as u64;
    if let Some(rec) = &mut buffers.rec {
        rec.record_job(nanos, quotient_done.map(|qd| (qd - start).as_nanos() as u64));
    }
    JobResult {
        instance: inst.name().to_string(),
        output: spec.output,
        op,
        num_vars: f.num_vars(),
        on_minterms,
        dc_minterms,
        off_minterms,
        divisor_errors,
        verified,
        maximal,
        bdd_nodes: 0,
        nanos,
    }
}

/// The symbolic job runner. Dense instances are lifted into the manager
/// (operands *and* noise words, so the divisor is bit-identical to the dense
/// backend's); symbolic instances build their structural description and a
/// seeded noise cover instead. Everything downstream — divisor algebra,
/// Table II quotient, both verifications — runs on BDDs.
fn run_job_bdd(
    suite: &Suite,
    config: &EngineConfig,
    spec: JobSpec,
    buffers: &mut WorkerScratch,
) -> JobResult {
    let op = config.ops[spec.op_index];
    // Seed-stability: symbolic instances continue the dense index space, so
    // job seeds never collide and never depend on filtering or scheduling.
    let seed_instance =
        if spec.symbolic { suite.instances().len() + spec.instance } else { spec.instance };
    let seed = config.job_seed(seed_instance, spec.output, spec.op_index);
    let (name, num_vars) = if spec.symbolic {
        let inst = &suite.symbolic_instances()[spec.instance];
        (inst.name(), inst.num_inputs())
    } else {
        let inst = &suite.instances()[spec.instance];
        (inst.name(), inst.num_inputs())
    };
    let start = Instant::now();

    let clock = buffers.rec.as_mut().is_some_and(EngineRecorder::clock_phases);
    let mgr = buffers.manager_for(num_vars);
    if let Some(rc) = &config.reorder {
        mgr.set_sift_config(SiftConfig {
            auto_threshold: rc.sift_threshold,
            ..SiftConfig::default()
        });
    }
    let (f_on, f_dc, noise) = if spec.symbolic {
        let inst = &suite.symbolic_instances()[spec.instance];
        let cover = benchmarks::symbolic::noise_cover(num_vars, seed);
        // FORCE static seeding: cover-described jobs expose their cube
        // structure, so the manager can start from an order in which
        // cubewise-connected variables are adjacent. Must happen before the
        // first node is built; the manager is freshly cleared here.
        if config.reorder.is_some() {
            if let SymbolicFunction::CoverIsf { on, dc } = &inst.outputs()[spec.output] {
                let order = force_order(num_vars, &[on, dc, &cover]);
                mgr.set_order(&order);
            }
        }
        let (f_on, f_dc) = inst.build_output(mgr, spec.output);
        let noise = mgr.cover(&cover);
        (f_on, f_dc, noise)
    } else {
        let f = &suite.instances()[spec.instance].outputs()[spec.output];
        let f_on = mgr.from_truth_table(f.on());
        let f_dc = mgr.from_truth_table(f.dc());
        // The same noise words the dense backend draws, lifted symbolically.
        let mut rng = DetRng::seed_from_u64(seed);
        let noise_tt = TruthTable::from_words(num_vars, || rng.next_u64());
        let noise = mgr.from_truth_table(&noise_tt);
        (f_on, f_dc, noise)
    };
    // Sift points name every handle still needed downstream: a pass
    // invalidates anything not reachable from its roots.
    mgr.maybe_sift(&[f_on, f_dc, noise]);

    let g = seeded_divisor_bdd(mgr, f_on, f_dc, noise, op);
    // Unconditional (not a debug_assert): the check is cheap next to the
    // quotient, and running it in every profile keeps `bdd_nodes` — which is
    // part of the scheduling-independent `semantic()` data — identical
    // between debug and release builds.
    assert!(
        is_valid_divisor_bdd(mgr, f_on, f_dc, g, op),
        "seeded divisor violates the {op} side condition"
    );
    mgr.maybe_sift(&[f_on, f_dc, g]);
    let (h_on, h_dc) = full_quotient_bdd(mgr, f_on, f_dc, g, op);
    mgr.maybe_sift(&[f_on, f_dc, g, h_on, h_dc]);
    // Quotient phase ends here (build + divisor + Table II quotient); what
    // follows — both verifications and the model counting — is the verify
    // phase. Clocked only on the recorder's job sample ([`PHASE_SAMPLE`]).
    let quotient_done = clock.then(Instant::now);
    let verified = verify_decomposition_bdd(mgr, f_on, f_dc, g, h_on, h_dc, op);
    let maximal = verify_maximal_flexibility_bdd(mgr, f_on, f_dc, g, h_on, h_dc, op);

    let h_off = quotient_off_bdd(mgr, h_on, h_dc);
    let err = {
        let x = mgr.xor(g, f_on);
        mgr.diff(x, f_dc)
    };
    let (on_minterms, dc_minterms, off_minterms, divisor_errors) =
        (mgr.sat_count(h_on), mgr.sat_count(h_dc), mgr.sat_count(h_off), mgr.sat_count(err));
    let bdd_nodes = mgr.num_nodes() as u64;
    let nanos = start.elapsed().as_nanos() as u64;
    if let Some(rec) = &mut buffers.rec {
        rec.record_job(nanos, quotient_done.map(|qd| (qd - start).as_nanos() as u64));
        // `manager_for` cleared the manager (and its stats) when this job
        // began, so the accumulated stats are exactly this job's counts.
        let stats = buffers.mgr.as_ref().expect("manager ensured above").stats();
        rec.bdd.accumulate(&stats);
    }
    JobResult {
        instance: name.to_string(),
        output: spec.output,
        op,
        num_vars,
        on_minterms,
        dc_minterms,
        off_minterms,
        divisor_errors,
        verified,
        maximal,
        bdd_nodes,
        nanos,
    }
}

/// Number of care minterms of `f` on which `g` disagrees with `f`, counted
/// word-parallel without allocating (`(g ⊕ f_on) ∩ ¬f_dc`).
fn care_errors(f: &Isf, g: &TruthTable) -> u64 {
    let fw = f.on().as_words();
    let dw = f.dc().as_words();
    let gw = g.as_words();
    fw.iter().zip(dw).zip(gw).map(|((&on, &dc), &gv)| ((gv ^ on) & !dc).count_ones() as u64).sum()
}

/// Configuration of a [`sweep_synthesis`] run: pool sizing and instance
/// filtering as in [`EngineConfig`], plus the [`RecursiveConfig`] every job
/// synthesizes under.
#[derive(Debug, Clone)]
pub struct SynthesisConfig {
    /// Worker threads; `0` uses the machine's available parallelism.
    pub threads: usize,
    /// Skip instances with more than this many inputs (recursive synthesis
    /// needs the dense representation, so symbolic instances are never
    /// enumerated).
    pub max_inputs: usize,
    /// Use at most this many outputs per instance.
    pub max_outputs: usize,
    /// Base seed mixed into every job (only [`ApproxStrategy::Seeded`]
    /// portfolio entries consume it; the expansion strategies are
    /// deterministic on their own).
    pub seed: u64,
    /// The portfolio and termination knobs of the recursive synthesizer.
    pub recursive: RecursiveConfig,
    /// Optional observability registry (see [`EngineConfig::obs`]): the
    /// synthesis phase timer and per-job latency histogram are merged in
    /// after the pool joins. Results are bit-identical with or without it.
    pub obs: Option<Arc<obs::Registry>>,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig {
            threads: 0,
            max_inputs: 12,
            max_outputs: 6,
            seed: 0xB1DE_C04D,
            recursive: RecursiveConfig::default(),
            obs: None,
        }
    }
}

impl SynthesisConfig {
    /// The worker-pool size actually used (see [`threads_or_available`]).
    pub fn effective_threads(&self) -> usize {
        threads_or_available(self.threads)
    }

    /// The seed of job `(instance_index, output_index)` — a pure function of
    /// the base seed and the two indices, never of thread count or
    /// scheduling.
    pub fn job_seed(&self, instance: usize, output: usize) -> u64 {
        let mixed = self.seed
            ^ (instance as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (output as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        DetRng::seed_from_u64(mixed).next_u64()
    }
}

/// The outcome of one `(instance, output)` recursive-synthesis job.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisJobResult {
    /// Benchmark instance name.
    pub instance: String,
    /// Output index within the instance.
    pub output: usize,
    /// Arity of the function.
    pub num_vars: usize,
    /// Logic-gate count of the produced multi-level network.
    pub gates: usize,
    /// Bi-decomposition depth of the produced tree (0 = realized flat).
    pub depth: usize,
    /// Number of bi-decomposition branches in the tree.
    pub branches: usize,
    /// Mapped area of the produced network.
    pub mapped_area: f64,
    /// Mapped area of the flat 2-SPP realization the recursion competed
    /// against.
    pub flat_area: f64,
    /// `true` if exhaustive simulation (`verify_network`) agreed with `f`
    /// on every care minterm.
    pub verified: bool,
    /// Wall time of the job in nanoseconds. Excluded from determinism
    /// comparisons.
    pub nanos: u64,
}

impl SynthesisJobResult {
    /// Mapped-area gain over the flat 2-SPP realization, in percent.
    pub fn gain_percent(&self) -> f64 {
        if self.flat_area == 0.0 {
            0.0
        } else {
            (self.flat_area - self.mapped_area) / self.flat_area * 100.0
        }
    }

    /// The scheduling-independent portion of the result (everything except
    /// the wall time), for bit-identical comparisons across thread counts.
    /// The two areas are pure f64 functions of the inputs, so exact equality
    /// is the right comparison.
    #[allow(clippy::type_complexity)]
    pub fn semantic(&self) -> (&str, usize, usize, usize, usize, usize, u64, u64, bool) {
        (
            &self.instance,
            self.output,
            self.num_vars,
            self.gates,
            self.depth,
            self.branches,
            self.mapped_area.to_bits(),
            self.flat_area.to_bits(),
            self.verified,
        )
    }
}

/// The machine-readable result of a synthesis sweep: per-job results in
/// deterministic `(instance, output)` order.
#[derive(Debug, Clone)]
pub struct SynthesisReport {
    /// Name of the suite that was swept.
    pub suite: String,
    /// Worker threads used.
    pub threads: usize,
    /// One result per job, in `(instance, output)` order — independent of
    /// scheduling.
    pub jobs: Vec<SynthesisJobResult>,
    /// End-to-end wall time of the sweep in microseconds.
    pub wall_micros: u64,
}

impl SynthesisReport {
    /// Total number of jobs.
    pub fn total_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// `true` if every produced network verified against its function.
    pub fn all_verified(&self) -> bool {
        self.jobs.iter().all(|j| j.verified)
    }

    /// Total logic gates across all produced networks.
    pub fn total_gates(&self) -> usize {
        self.jobs.iter().map(|j| j.gates).sum()
    }

    /// Mean per-job mapped-area gain over the flat 2-SPP realization, in
    /// percent (0 for an empty sweep).
    pub fn average_gain_percent(&self) -> f64 {
        if self.jobs.is_empty() {
            0.0
        } else {
            self.jobs.iter().map(SynthesisJobResult::gain_percent).sum::<f64>()
                / self.jobs.len() as f64
        }
    }
}

/// The second sweep kind: fans the recursive bi-decomposition synthesizer
/// ([`RecursiveSynthesizer`]) over every `(instance, output)` pair of
/// `suite`'s dense instances, on the same slot-indexed worker pool as
/// [`sweep`]. Results are bit-identical for any thread count, and every
/// produced network is exhaustively verified against its function's care
/// set.
///
/// ```rust
/// use benchmarks::Suite;
/// use bidecomp::engine::{sweep_synthesis, SynthesisConfig};
///
/// let report = sweep_synthesis(&Suite::smoke(), &SynthesisConfig::default());
/// assert!(report.all_verified());
/// assert!(report.average_gain_percent() >= 0.0);
/// ```
///
/// # Panics
///
/// Panics if the portfolio contains [`ApproxStrategy::External`]: there is
/// no caller to supply a divisor inside the recursion.
pub fn sweep_synthesis(suite: &Suite, config: &SynthesisConfig) -> SynthesisReport {
    assert!(
        !config.recursive.portfolio.iter().any(|(_, s)| *s == ApproxStrategy::External),
        "the External strategy has no divisor to derive inside a synthesis sweep"
    );
    let instances = suite.instances();
    let mut specs = Vec::new();
    for (instance, inst) in instances.iter().enumerate() {
        if inst.num_inputs() > config.max_inputs {
            continue;
        }
        for output in 0..inst.num_outputs().min(config.max_outputs) {
            specs.push((instance, output));
        }
    }

    let threads = config.effective_threads().clamp(1, specs.len().max(1));
    let start = Instant::now();
    let jobs = run_pool(
        &specs,
        threads,
        || RecursiveSynthesizer::new(config.recursive.clone()),
        |synthesizer, &(instance, output)| {
            let inst = &instances[instance];
            let f = &inst.outputs()[output];
            let job_start = Instant::now();
            let result = synthesizer
                .synthesize_seeded(f, config.job_seed(instance, output))
                .expect("portfolio validated before the sweep started");
            SynthesisJobResult {
                instance: inst.name().to_string(),
                output,
                num_vars: f.num_vars(),
                gates: result.gate_count(),
                depth: result.tree.depth(),
                branches: result.tree.num_branches(),
                mapped_area: result.mapped_area,
                flat_area: result.flat_area,
                verified: result.verified,
                nanos: job_start.elapsed().as_nanos() as u64,
            }
        },
    );
    let wall_micros = start.elapsed().as_micros() as u64;

    // Synthesis jobs are single-phase, so the merge happens once, after the
    // pool joins — zero cost on the workers.
    if let Some(registry) = &config.obs {
        registry.add("engine.synthesis_jobs", jobs.len() as u64);
        registry.add("engine.synthesis_nanos", jobs.iter().map(|j| j.nanos).sum());
        let mut latency = obs::LocalHistogram::new();
        for job in &jobs {
            latency.record(job.nanos / 1_000);
        }
        latency.merge_into(&registry.histogram("engine.synthesis_job_micros"));
    }

    SynthesisReport { suite: suite.name().to_string(), threads, jobs, wall_micros }
}

fn aggregate(ops: &[BinaryOp], jobs: &[JobResult]) -> Vec<OperatorStats> {
    ops.iter()
        .map(|&op| {
            let mut stats = OperatorStats {
                op,
                jobs: 0,
                verified: 0,
                maximal: 0,
                on_minterms: 0,
                dc_minterms: 0,
                divisor_errors: 0,
                nanos: 0,
            };
            for job in jobs.iter().filter(|j| j.op == op) {
                stats.jobs += 1;
                stats.verified += u64::from(job.verified);
                stats.maximal += u64::from(job.maximal);
                stats.on_minterms += job.on_minterms;
                stats.dc_minterms += job.dc_minterms;
                stats.divisor_errors += job.divisor_errors;
                stats.nanos += job.nanos;
            }
            stats
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn smoke_sweep_runs_all_jobs_and_verifies() {
        let suite = Suite::smoke();
        let config = EngineConfig { threads: 2, ..EngineConfig::default() };
        let report = sweep(&suite, &config);
        // 3 smoke instances, outputs capped at 6, 10 operators each.
        let expected: usize = suite
            .instances()
            .iter()
            .map(|i| i.num_outputs().min(config.max_outputs) * config.ops.len())
            .sum();
        assert_eq!(report.total_jobs(), expected);
        assert!(report.all_verified());
        assert_eq!(report.operators.iter().map(|s| s.jobs).sum::<u64>(), expected as u64);
    }

    /// Runs `f` with the panic hook silenced (the intentional panics below
    /// would read like real failures in test output). A static mutex keeps
    /// concurrent tests from clobbering each other's take/restore pair.
    fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        static HOOK: Mutex<()> = Mutex::new(());
        let _guard = HOOK.lock().expect("panic-hook guard poisoned");
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = f();
        std::panic::set_hook(hook);
        result
    }

    #[test]
    fn infallible_pool_reraises_the_job_panic() {
        let outcome = with_quiet_panics(|| {
            std::panic::catch_unwind(|| {
                run_pool(
                    &[1u32, 2, 3],
                    2,
                    || (),
                    |(), spec| {
                        if *spec == 2 {
                            panic!("job two exploded");
                        }
                        *spec
                    },
                )
            })
        });
        let payload = outcome.expect_err("the pool must re-raise");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job two exploded"));
    }

    #[test]
    fn sweep_is_deterministic_across_thread_counts() {
        let suite = Suite::smoke();
        let one = sweep(&suite, &EngineConfig { threads: 1, ..EngineConfig::default() });
        let four = sweep(&suite, &EngineConfig { threads: 4, ..EngineConfig::default() });
        assert_eq!(one.total_jobs(), four.total_jobs());
        for (a, b) in one.jobs.iter().zip(&four.jobs) {
            assert_eq!(a.semantic(), b.semantic());
        }
        assert_eq!(
            one.operators.iter().map(|s| (s.op, s.jobs, s.dc_minterms)).collect::<Vec<_>>(),
            four.operators.iter().map(|s| (s.op, s.jobs, s.dc_minterms)).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn seeded_divisors_are_valid_for_every_operator() {
        let suite = Suite::smoke();
        for inst in suite.instances() {
            for f in inst.outputs() {
                for (i, op) in BinaryOp::all().into_iter().enumerate() {
                    let g = seeded_divisor(f, op, 0xFACE ^ i as u64);
                    assert!(is_valid_divisor(f, &g, op), "{}: {op}", inst.name());
                    // Same seed, same divisor.
                    assert_eq!(g, seeded_divisor(f, op, 0xFACE ^ i as u64));
                }
            }
        }
    }

    #[test]
    fn max_inputs_filter_skips_large_instances() {
        let suite = Suite::table4();
        let config = EngineConfig { max_inputs: 4, ..EngineConfig::default() };
        let report = sweep(&suite, &config);
        assert_eq!(report.total_jobs(), 0);
        assert!(report.all_verified(), "vacuously true on an empty job list");
    }

    #[test]
    fn bdd_backend_matches_the_dense_backend_on_smoke() {
        let suite = Suite::smoke();
        let dense = sweep(&suite, &EngineConfig { threads: 2, ..EngineConfig::default() });
        let bdd = sweep(
            &suite,
            &EngineConfig { threads: 2, backend: Backend::Bdd, ..EngineConfig::default() },
        );
        assert_eq!(dense.total_jobs(), bdd.total_jobs());
        for (d, b) in dense.jobs.iter().zip(&bdd.jobs) {
            assert_eq!(
                (&d.instance, d.output, d.op, d.on_minterms, d.dc_minterms, d.off_minterms),
                (&b.instance, b.output, b.op, b.on_minterms, b.dc_minterms, b.off_minterms),
                "backends disagree on {}[{}] {}",
                d.instance,
                d.output,
                d.op
            );
            assert_eq!(d.divisor_errors, b.divisor_errors);
            assert!(b.verified && b.maximal, "{}[{}] {}", b.instance, b.output, b.op);
            assert!(b.bdd_nodes > 0, "BDD jobs must report their manager size");
        }
    }

    #[test]
    fn bdd_backend_sweeps_the_large_suite_symbolically() {
        let suite = Suite::large();
        let config = EngineConfig {
            threads: 2,
            backend: Backend::Bdd,
            max_outputs: 2,
            ..EngineConfig::default()
        };
        let report = sweep(&suite, &config);
        let expected: usize = suite
            .symbolic_instances()
            .iter()
            .map(|i| i.num_outputs().min(config.max_outputs) * config.ops.len())
            .sum();
        assert_eq!(report.total_jobs(), expected);
        assert!(report.all_verified(), "every symbolic job must verify Lemmas 1–5");
        // The suite genuinely exceeds the dense representation.
        assert!(report.jobs.iter().any(|j| j.num_vars > boolfunc::TruthTable::MAX_VARS));
        assert!(report.jobs.iter().any(|j| j.num_vars >= 40));
        // And the dense backend cannot even enumerate these jobs.
        let dense_config = EngineConfig { backend: Backend::Dense, ..config };
        assert_eq!(sweep(&suite, &dense_config).total_jobs(), 0);
    }

    #[test]
    fn synthesis_sweep_verifies_every_network_on_smoke() {
        let suite = Suite::smoke();
        let config = SynthesisConfig { threads: 2, ..SynthesisConfig::default() };
        let report = sweep_synthesis(&suite, &config);
        let expected: usize =
            suite.instances().iter().map(|i| i.num_outputs().min(config.max_outputs)).sum();
        assert_eq!(report.total_jobs(), expected);
        assert!(report.all_verified(), "every produced network must verify");
        assert!(report.average_gain_percent() >= 0.0, "flat is always a candidate");
        for job in &report.jobs {
            assert!(job.flat_area >= job.mapped_area, "{}[{}]", job.instance, job.output);
        }
    }

    #[test]
    fn synthesis_sweep_filters_oversized_instances() {
        let config = SynthesisConfig { max_inputs: 4, ..SynthesisConfig::default() };
        let report = sweep_synthesis(&Suite::table4(), &config);
        assert_eq!(report.total_jobs(), 0);
        assert!(report.all_verified(), "vacuously true on an empty job list");
        assert_eq!(report.average_gain_percent(), 0.0);
    }

    #[test]
    #[should_panic(expected = "External strategy")]
    fn synthesis_sweep_rejects_external_portfolio_entries() {
        let mut config = SynthesisConfig::default();
        config.recursive.portfolio.push((BinaryOp::And, ApproxStrategy::External));
        sweep_synthesis(&Suite::smoke(), &config);
    }

    #[test]
    fn bdd_backend_is_deterministic_across_thread_counts() {
        let suite = Suite::large();
        let base = EngineConfig {
            backend: Backend::Bdd,
            max_outputs: 1,
            ops: vec![BinaryOp::And, BinaryOp::Xor],
            ..EngineConfig::default()
        };
        let one = sweep(&suite, &EngineConfig { threads: 1, ..base.clone() });
        let four = sweep(&suite, &EngineConfig { threads: 4, ..base });
        assert_eq!(one.total_jobs(), four.total_jobs());
        for (a, b) in one.jobs.iter().zip(&four.jobs) {
            assert_eq!(a.semantic(), b.semantic());
        }
    }

    #[test]
    fn bdd_reordering_changes_only_node_counts() {
        // Dynamic variable ordering must be semantically invisible: every
        // report field except bdd_nodes (and wall time) is unchanged.
        let suite = Suite::large();
        let base = EngineConfig {
            threads: 2,
            backend: Backend::Bdd,
            max_outputs: 1,
            ops: vec![BinaryOp::And, BinaryOp::Or, BinaryOp::Xor],
            ..EngineConfig::default()
        };
        let fixed = sweep(&suite, &base.clone());
        let reordered = sweep(
            &suite,
            &EngineConfig { reorder: Some(ReorderConfig { sift_threshold: 512 }), ..base },
        );
        assert_eq!(fixed.total_jobs(), reordered.total_jobs());
        let mut some_job_shrank = false;
        for (a, b) in fixed.jobs.iter().zip(&reordered.jobs) {
            assert_eq!(
                (&a.instance, a.output, a.op, a.num_vars),
                (&b.instance, b.output, b.op, b.num_vars)
            );
            assert_eq!(
                (a.on_minterms, a.dc_minterms, a.off_minterms, a.divisor_errors),
                (b.on_minterms, b.dc_minterms, b.off_minterms, b.divisor_errors),
                "reordering changed the semantics of {}[{}] {}",
                a.instance,
                a.output,
                a.op
            );
            assert_eq!((a.verified, a.maximal), (b.verified, b.maximal));
            some_job_shrank |= b.bdd_nodes < a.bdd_nodes;
        }
        assert!(some_job_shrank, "reordering should shrink at least one large-suite job");
    }

    #[test]
    fn bdd_reordering_is_deterministic_across_thread_counts() {
        // With sifting enabled, bdd_nodes depends on the reordering — which
        // must itself be deterministic, so the full semantic tuple (including
        // bdd_nodes) stays bit-identical across thread counts and reruns.
        let suite = Suite::large();
        let base = EngineConfig {
            backend: Backend::Bdd,
            max_outputs: 1,
            ops: vec![BinaryOp::And, BinaryOp::Xor],
            reorder: Some(ReorderConfig { sift_threshold: 512 }),
            ..EngineConfig::default()
        };
        let one = sweep(&suite, &EngineConfig { threads: 1, ..base.clone() });
        let four = sweep(&suite, &EngineConfig { threads: 4, ..base.clone() });
        let again = sweep(&suite, &EngineConfig { threads: 4, ..base });
        assert_eq!(one.total_jobs(), four.total_jobs());
        for ((a, b), c) in one.jobs.iter().zip(&four.jobs).zip(&again.jobs) {
            assert_eq!(a.semantic(), b.semantic(), "reordered sweep depends on thread count");
            assert_eq!(a.semantic(), c.semantic(), "reordered sweep is not rerun-stable");
        }
    }

    /// The deterministic counters of a sweep's registry snapshot, by name.
    fn counter_map(registry: &obs::Registry) -> std::collections::BTreeMap<String, u64> {
        registry.snapshot().counters.into_iter().collect()
    }

    #[test]
    fn obs_counters_are_complete_and_monotone_across_sweeps() {
        let suite = Suite::smoke();
        let registry = Arc::new(obs::Registry::new());
        let config = EngineConfig {
            threads: 2,
            obs: Some(Arc::clone(&registry)),
            ..EngineConfig::default()
        };
        let report = sweep(&suite, &config);

        let after_one = counter_map(&registry);
        assert_eq!(after_one["engine.jobs"], report.total_jobs() as u64);
        assert_eq!(after_one["engine.sweeps"], 1);
        assert!(after_one["engine.quotient_nanos"] > 0);
        assert!(after_one["engine.verify_nanos"] > 0);
        let latency = registry.histogram("engine.job_micros").snapshot();
        assert_eq!(latency.count, report.total_jobs() as u64);
        assert_eq!(report.job_latency.count, report.total_jobs() as u64);
        assert!(latency.quantile(0.5) <= latency.quantile(0.99));

        // A second sweep into the same registry only ever increases counters.
        let report2 = sweep(&suite, &config);
        let after_two = counter_map(&registry);
        for (name, value) in &after_one {
            assert!(
                after_two[name] >= *value,
                "counter {name} went backwards: {} < {value}",
                after_two[name]
            );
        }
        assert_eq!(after_two["engine.jobs"], (report.total_jobs() + report2.total_jobs()) as u64);
    }

    #[test]
    fn obs_bdd_counters_are_thread_count_invariant() {
        // The private-manager backend merges per-job deltas, and the job set
        // is fixed — so every BDD work counter (unlike wall-clock timers)
        // must be bit-identical at 1 and 8 threads.
        let suite = Suite::smoke();
        // `unique_rehashes` and `unique_probe_steps` are excluded: `clear()`
        // keeps subtable capacity so a manager's load factor depends on which
        // jobs its worker previously ran — capacity-derived counters are
        // observability data, not semantic work, and may differ per schedule.
        let deterministic = |registry: &obs::Registry| {
            counter_map(registry)
                .into_iter()
                .filter(|(name, _)| {
                    (name.starts_with("bdd.mgr.")
                        && !name.ends_with("unique_rehashes")
                        && !name.ends_with("unique_probe_steps"))
                        || name == "engine.jobs"
                })
                .collect::<Vec<_>>()
        };
        let reg1 = Arc::new(obs::Registry::new());
        let reg8 = Arc::new(obs::Registry::new());
        let base = EngineConfig { backend: Backend::Bdd, ..EngineConfig::default() };
        let one = sweep(
            &suite,
            &EngineConfig { threads: 1, obs: Some(Arc::clone(&reg1)), ..base.clone() },
        );
        let eight =
            sweep(&suite, &EngineConfig { threads: 8, obs: Some(Arc::clone(&reg8)), ..base });
        let counters1 = deterministic(&reg1);
        assert_eq!(counters1, deterministic(&reg8));
        assert!(counters1.iter().any(|(n, v)| n == "bdd.mgr.unique_lookups" && *v > 0));
        assert!(
            counter_map(&reg1)["bdd.mgr.unique_probe_steps"] > 0,
            "probe-chain lengths must be counted"
        );
        // And attaching a registry never changes results.
        let plain =
            sweep(&suite, &EngineConfig { backend: Backend::Bdd, ..EngineConfig::default() });
        for (a, b) in one.jobs.iter().zip(&eight.jobs) {
            assert_eq!(a.semantic(), b.semantic());
        }
        for (a, b) in plain.jobs.iter().zip(&one.jobs) {
            assert_eq!(a.semantic(), b.semantic(), "metrics influenced results");
        }
    }

    #[test]
    fn obs_synthesis_sweep_records_phase_counters() {
        let suite = Suite::smoke();
        let registry = Arc::new(obs::Registry::new());
        let config = SynthesisConfig {
            threads: 2,
            max_inputs: 6,
            obs: Some(Arc::clone(&registry)),
            ..SynthesisConfig::default()
        };
        let report = sweep_synthesis(&suite, &config);
        let counters = counter_map(&registry);
        assert_eq!(counters["engine.synthesis_jobs"], report.total_jobs() as u64);
        assert!(counters["engine.synthesis_nanos"] > 0);
        let latency = registry.histogram("engine.synthesis_job_micros").snapshot();
        assert_eq!(latency.count, report.total_jobs() as u64);
    }
}
