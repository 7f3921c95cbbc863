//! The persistent decomposition server: localhost TCP, line-delimited JSON,
//! a request queue drained by the server's own worker threads.
//!
//! ## Protocol
//!
//! One JSON object per line in each direction. Requests carry a `"verb"`:
//!
//! * `decompose` — `{"verb":"decompose","num_vars":N,"f_on":HEX,
//!   "f_dc":HEX?,"op":"AND","g":HEX?,"seed":S?,"no_cache":B?,"tables":B?}`.
//!   Truth tables travel as fixed-width hex words ([`table_to_hex`] /
//!   [`table_from_hex`]). Without `g`, a seed-stable valid divisor is
//!   derived server-side (`bidecomp::engine::seeded_divisor` with `seed`;
//!   pass seeds above 2^53 as decimal *strings* — JSON numbers are `f64`).
//!   The reply reports the quotient's on/dc/off minterm counts, the
//!   Lemma 1–5 (`verified`) and Corollary 1–4 (`maximal`) verdicts, and
//!   `cache` ∈ `hit`/`miss`/`bypass`; with `"tables":true` it includes
//!   `h_on`/`h_dc` hex words.
//! * `synthesize` — `{"verb":"synthesize","num_vars":N,"f_on":HEX,
//!   "f_dc":HEX?,"no_cache":B?}`. Runs the recursive bi-decomposition
//!   synthesizer; the reply reports gates, depth, branches, mapped/flat
//!   areas, the exhaustive-verification verdict and the `cache` status. On
//!   an NPN cache hit the stored canonical network is rewired to the
//!   queried function (inverters may appear at relabeled inputs/output), so
//!   `gates`/`mapped_area` can differ slightly from a cold run and
//!   `flat_area` is the canonical representative's; every rewired network
//!   is re-verified exhaustively before it is reported.
//! * `stats` — server uptime, queue/batch counters, per-verb totals, the
//!   cache counters (with `not_admitted`, the requests the doorkeeper
//!   turned away) and the robustness counters (`sheds`, `timeouts`,
//!   `panics`, `rejected_connections`, `slow_clients`, `line_overflows`).
//! * `metrics` — the full observability snapshot
//!   (`"schema":"bidecomp-metrics-v1"`): every counter, gauge and latency
//!   histogram of the server's [`obs::Registry`] — server verb/robustness
//!   counters, per-verb server-side latency histograms
//!   (`server.latency.<verb>`, microseconds, with `p50_us`/`p99_us` and the
//!   non-empty log₂ buckets), engine phase counters and cache counters.
//!   Like `stats`, always admitted. The metric name set is pre-registered
//!   at bind, so the snapshot has the same shape on an idle server as on a
//!   busy one.
//! * `shutdown` — acknowledges, then stops accepting and drains the queue
//!   under [`ServiceConfig::drain_deadline_ms`].
//!
//! Unknown request fields are ignored; a known field of the wrong type is a
//! protocol error. Every request may additionally carry:
//!
//! * `"id"` — an opaque number or string echoed verbatim in the response
//!   (so a retrying client can correlate replies across reconnects);
//! * `"deadline_ms"` — a per-request compute budget. Expired requests are
//!   answered `{"ok":false,"error":"deadline_exceeded"}`; the deadline is
//!   checked at dequeue and again before the expensive verification step.
//!
//! ## Error taxonomy
//!
//! All failures are per-request lines with `"ok":false` and a stable
//! `"error"` string; the connection stays usable unless noted:
//!
//! * protocol errors (malformed JSON, unknown verbs, bad hex, invalid
//!   divisors) — a descriptive message, counted in `errors`;
//! * `"overloaded"` — the request was shed by admission control; the reply
//!   carries `"retry_after_ms"` (jittered, derived from queue depth).
//!   Expensive `synthesize` requests shed at half the queue bound,
//!   `decompose` only once the queue is truly full. A shed does no work: the
//!   request is not canonicalized, looked up or computed, so a cached
//!   request sheds like any other;
//! * `"deadline_exceeded"` — the request's `deadline_ms` expired;
//! * `"internal"` — the worker panicked on this request; the worker is
//!   rebuilt and the panic counted, the server keeps running;
//! * `"server is shutting down"` — received after a `shutdown` request or
//!   once the drain deadline expired;
//! * `"request line too long"` — the line exceeded
//!   [`ServiceConfig::max_line_bytes`]; the connection is then closed.
//!
//! Slow clients are bounded too: sockets get
//! [`ServiceConfig::read_timeout_ms`] / [`ServiceConfig::write_timeout_ms`],
//! so an idle or stalled connection is closed instead of pinning a reader
//! thread forever (counted in `slow_clients`).
//!
//! ## Execution model
//!
//! Each connection gets a reader thread (parses lines into the shared queue, or
//! sheds them in O(1)) and a writer thread (drains an unbounded reply channel,
//! so a slow client never stalls the service). [`Server::run`] spawns
//! [`ServiceConfig::workers`] compute threads that drain the queue: each runs
//! one claim loop, popping requests one at a time until shutdown, so a cheap
//! cache hit is answered the microsecond a worker is free instead of waiting
//! out a slow miss behind a batch barrier. A `shutdown` wakes every parked
//! worker at once. Workers send replies in completion order and the writer
//! reorders by per-connection sequence number, so the wire still answers
//! strictly in request order. The NPN cache ([`crate::NpnCache`]) is shared by
//! every worker and sits in front of whole requests only, and only workers
//! touch it. A cached request first sights its function's NPN signature at
//! the cache's doorkeeper, after a `decompose`'s divisor has been checked.
//! On the signature's first sighting the request is computed without the
//! cache (no canonicalization, lookup or store) and replied `miss`; on a
//! later one it canonicalizes its function once, then does exactly one
//! lookup and, on a miss, one store. A `no_cache` request touches neither
//! the doorkeeper nor the store. Each worker keeps one recursive synthesizer,
//! which recomputes the quotient subproblems of a synthesis rather than looking
//! them up: a Table II quotient takes under a microsecond at 9–12 inputs, an
//! NPN canonicalization 0.03–0.16 ms, and on never-repeated 9–12-input
//! functions almost no quotient lookup hits.
//!
//! Per-request compute runs under `catch_unwind`; a panicking request is
//! answered `"internal"` and its worker's scratch state is rebuilt. A
//! worker thread that dies outside that guard is counted in `panics` when
//! `run` joins it. For chaos testing, a seeded [`FaultPlan`] injects worker
//! panics, compute delays and mid-reply connection drops behind
//! [`ServiceConfig::faults`].

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, Once, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bidecomp::approximation::is_valid_divisor;
use bidecomp::engine::{seeded_divisor, threads_or_available};
use bidecomp::{
    full_quotient, verify_decomposition, verify_maximal_flexibility, verify_network, BinaryOp,
    RecursiveConfig, RecursiveSynthesizer,
};
use boolfunc::{Isf, TruthTable};
use techmap::AreaModel;

use crate::json::{self, Value};
use crate::{canonicalize, Canonical, NpnCache};

/// The `error` string of a request shed by admission control.
pub const ERR_OVERLOADED: &str = "overloaded";
/// The `error` string of a request whose `deadline_ms` expired.
pub const ERR_DEADLINE: &str = "deadline_exceeded";
/// The `error` string of a request whose worker panicked.
pub const ERR_INTERNAL: &str = "internal";
/// The `error` string of a request arriving after shutdown began.
pub const ERR_SHUTDOWN: &str = "server is shutting down";
/// The `error` string of a request line exceeding `max_line_bytes`.
pub const ERR_LINE_TOO_LONG: &str = "request line too long";

/// The panic payload of faults injected by a [`FaultPlan`] (so tests and the
/// chaos harness can tell injected faults from genuine bugs).
pub const INJECTED_PANIC_MESSAGE: &str = "injected worker fault";

/// The most cache stripes [`Server::bind`] accepts. The cache allocates
/// every stripe up front, so a stripe count is a memory request: without a
/// cap, a capacity as huge as the stripe count (say `2^41` of each) passes
/// the stripes-within-capacity check and then aborts the process on
/// allocation. `2^16` stripes is far more than a machine has cores to
/// contend on them.
pub const MAX_CACHE_SHARDS: usize = 1 << 16;

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Compute threads [`Server::run`] spawns to drain the request queue;
    /// `0` uses the machine's available parallelism.
    pub workers: usize,
    /// Total capacity of the NPN result cache in entries; `0` disables
    /// caching entirely (every request reports `cache: bypass`).
    pub cache_capacity: usize,
    /// Lock stripes of the cache (rounded up to a power of two). With the
    /// cache on, [`Server::bind`] refuses more stripes than
    /// `cache_capacity` or [`MAX_CACHE_SHARDS`].
    pub cache_shards: usize,
    /// Largest request arity accepted (bounds both the wire payload and the
    /// exhaustive verification work per request). [`Server::bind`] refuses
    /// values outside `1..=`[`TruthTable::MAX_VARS`].
    pub max_vars: usize,
    /// The recursive synthesizer configuration `synthesize` requests run
    /// under (its fingerprint partitions the synthesis cache).
    pub recursive: RecursiveConfig,
    /// Request-queue bound for admission control; `0` means unbounded (no
    /// shedding). `synthesize` requests shed at half this depth,
    /// `decompose` at the full depth, whether or not their answer is cached:
    /// a shed is answered without canonicalizing or touching the cache.
    pub max_queue: usize,
    /// Concurrent-connection bound; `0` means unbounded. Excess connections
    /// get one `overloaded` line and are closed.
    pub max_connections: usize,
    /// Longest accepted request line in bytes; `0` means unbounded. Longer
    /// lines are answered [`ERR_LINE_TOO_LONG`] and the connection closed.
    pub max_line_bytes: usize,
    /// Socket read timeout in milliseconds; `0` disables. A connection idle
    /// (or trickling bytes) past this is closed — slowloris protection.
    pub read_timeout_ms: u64,
    /// Socket write timeout in milliseconds; `0` disables. Bounds how long
    /// a stalled client can pin a writer thread per reply.
    pub write_timeout_ms: u64,
    /// Longest the post-`shutdown` queue drain may run in milliseconds;
    /// `0` means drain unboundedly. Requests still queued past the deadline
    /// are answered [`ERR_SHUTDOWN`].
    pub drain_deadline_ms: u64,
    /// Fault-injection plan for chaos testing; `None` in production.
    pub faults: Option<FaultPlan>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            cache_capacity: 65_536,
            cache_shards: 16,
            max_vars: 14,
            recursive: RecursiveConfig::default(),
            max_queue: 256,
            max_connections: 1024,
            max_line_bytes: 1 << 20,
            read_timeout_ms: 30_000,
            write_timeout_ms: 30_000,
            drain_deadline_ms: 5_000,
            faults: None,
        }
    }
}

impl ServiceConfig {
    fn effective_workers(&self) -> usize {
        threads_or_available(self.workers)
    }

    /// The queue depth at which `synthesize` requests start shedding (half
    /// the bound, so expensive work degrades before cheap work).
    fn synthesize_shed_depth(&self) -> usize {
        (self.max_queue / 2).max(1)
    }
}

/// A seeded fault-injection plan: per-request dice for injected worker
/// panics, artificial compute delays and mid-reply connection drops. Rates
/// are per-mille (`0..=1000`). Clones share one `armed` switch, so a chaos
/// driver holding its own clone can disarm the server's faults between the
/// storm and the recovery phase.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed of the per-request dice (deterministic per request index).
    pub seed: u64,
    /// Per-mille probability of an injected worker panic.
    pub panic_per_mille: u32,
    /// Per-mille probability of an artificial compute delay.
    pub delay_per_mille: u32,
    /// Length of each injected delay in milliseconds.
    pub delay_ms: u64,
    /// Per-mille probability of dropping the connection mid-reply instead
    /// of sending the response line.
    pub drop_per_mille: u32,
    armed: Arc<AtomicBool>,
}

impl FaultPlan {
    /// A plan with all rates zero, armed, rolling dice from `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            panic_per_mille: 0,
            delay_per_mille: 0,
            delay_ms: 0,
            drop_per_mille: 0,
            armed: Arc::new(AtomicBool::new(true)),
        }
    }

    /// Arms or disarms fault injection on every clone of this plan.
    pub fn arm(&self, on: bool) {
        self.armed.store(on, Ordering::SeqCst);
    }

    /// Whether faults are currently injected.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::SeqCst)
    }

    /// The dice for compute request number `n` (deterministic in
    /// `(seed, n)`; three independent splitmix64 draws).
    fn roll(&self, n: u64) -> FaultRoll {
        let mut x = self.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let panic_die = splitmix64(&mut x) % 1000;
        let delay_die = splitmix64(&mut x) % 1000;
        let drop_die = splitmix64(&mut x) % 1000;
        FaultRoll {
            inject_panic: panic_die < u64::from(self.panic_per_mille),
            delay: (delay_die < u64::from(self.delay_per_mille))
                .then(|| Duration::from_millis(self.delay_ms)),
            drop_reply: drop_die < u64::from(self.drop_per_mille),
        }
    }
}

#[derive(Debug, Default)]
struct FaultRoll {
    inject_panic: bool,
    delay: Option<Duration>,
    drop_reply: bool,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Installs (once, process-wide) a panic hook that suppresses the default
/// "thread panicked" stderr noise for faults injected by a [`FaultPlan`]
/// while forwarding every other panic to the previous hook. Chaos binaries
/// and tests call this so thousands of *intentional* panics don't flood
/// stderr while genuine bugs still print.
pub fn silence_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.contains(INJECTED_PANIC_MESSAGE))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<String>()
                        .map(|s| s.contains(INJECTED_PANIC_MESSAGE))
                })
                .unwrap_or(false);
            if !injected {
                previous(info);
            }
        }));
    });
}

/// FNV-1a of the recursive configuration's debug rendering: a stable
/// in-process fingerprint keeping synthesis cache entries from aliasing
/// across configurations.
fn config_fingerprint(config: &RecursiveConfig) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for byte in format!("{config:?}").bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// A parsed compute verb (the queue's unit of work).
#[derive(Debug, Clone)]
enum Payload {
    Decompose {
        f: Isf,
        g: Option<TruthTable>,
        seed: u64,
        op: BinaryOp,
        no_cache: bool,
        tables: bool,
    },
    Synthesize {
        f: Isf,
        no_cache: bool,
    },
    Stats,
    Metrics,
    Shutdown,
}

/// A parsed request: the verb payload plus the protocol envelope (`id`
/// echo, optional deadline).
#[derive(Debug, Clone)]
struct Request {
    payload: Payload,
    /// Echoed verbatim in the response (number or string only).
    id: Option<Value>,
    deadline_ms: Option<u64>,
}

/// What the writer thread does with one reply slot.
enum Reply {
    /// Send this response line.
    Line(String),
    /// Injected fault: close the connection instead of replying.
    Drop,
}

/// The reply channel: `(per-connection sequence number, reply)`. Workers
/// send out of completion order; the writer thread reorders.
type ReplyTx = Sender<(u64, Reply)>;

struct QueueItem {
    request: Request,
    /// Absolute deadline (stamped at parse time from `deadline_ms`).
    deadline: Option<Instant>,
    /// When admission control accepted the request — the server-side
    /// latency histogram measures from here to the reply send.
    received: Instant,
    seq: u64,
    reply: ReplyTx,
}

/// The server's counter/gauge/histogram handles, all registered in the one
/// [`obs::Registry`] at bind (the handles ARE the storage — `stats` and
/// `metrics` read the same cells the hot paths bump).
struct Counters {
    decompose: obs::Counter,
    synthesize: obs::Counter,
    stats: obs::Counter,
    metrics: obs::Counter,
    errors: obs::Counter,
    /// Current request-queue depth; its peak is the old `peak_queue`
    /// high-water mark (how far compute fell behind intake).
    queue_depth: obs::Gauge,
    /// Requests rejected `overloaded` by admission control.
    sheds: obs::Counter,
    /// Requests answered `deadline_exceeded`.
    timeouts: obs::Counter,
    /// Worker/connection/writer panics caught and survived.
    panics: obs::Counter,
    /// Connections rejected at accept because `max_connections` was reached.
    rejected_connections: obs::Counter,
    /// Connections closed because a socket read or write timed out.
    slow_clients: obs::Counter,
    /// Request lines rejected for exceeding `max_line_bytes`.
    line_overflows: obs::Counter,
    /// Engine phase totals: time inside the quotient computation,
    /// inside verification, inside the recursive synthesizer, inside NPN
    /// canonicalization, and inside synthesis cache hits (lookup, rewire,
    /// verify, map). None of them includes queue wait.
    engine_quotient_nanos: obs::Counter,
    engine_verify_nanos: obs::Counter,
    engine_synthesis_nanos: obs::Counter,
    engine_canonicalize_nanos: obs::Counter,
    engine_hit_nanos: obs::Counter,
    /// Server-side latency per verb, admission to reply send, microseconds.
    latency_decompose: obs::Histogram,
    latency_synthesize: obs::Histogram,
    latency_stats: obs::Histogram,
    latency_metrics: obs::Histogram,
}

impl Counters {
    fn new(registry: &obs::Registry) -> Counters {
        Counters {
            decompose: registry.counter("server.decompose"),
            synthesize: registry.counter("server.synthesize"),
            stats: registry.counter("server.stats_requests"),
            metrics: registry.counter("server.metrics_requests"),
            errors: registry.counter("server.errors"),
            queue_depth: registry.gauge("server.queue_depth"),
            sheds: registry.counter("server.sheds"),
            timeouts: registry.counter("server.timeouts"),
            panics: registry.counter("server.panics"),
            rejected_connections: registry.counter("server.rejected_connections"),
            slow_clients: registry.counter("server.slow_clients"),
            line_overflows: registry.counter("server.line_overflows"),
            engine_quotient_nanos: registry.counter("engine.quotient_nanos"),
            engine_verify_nanos: registry.counter("engine.verify_nanos"),
            engine_synthesis_nanos: registry.counter("engine.synthesis_nanos"),
            engine_canonicalize_nanos: registry.counter("engine.canonicalize_nanos"),
            engine_hit_nanos: registry.counter("engine.hit_nanos"),
            latency_decompose: registry.histogram("server.latency.decompose"),
            latency_synthesize: registry.histogram("server.latency.synthesize"),
            latency_stats: registry.histogram("server.latency.stats"),
            latency_metrics: registry.histogram("server.latency.metrics"),
        }
    }

    /// The latency histogram of a payload's verb (`None` for `shutdown`,
    /// whose reply races the drain).
    fn latency_of(&self, payload: &Payload) -> Option<&obs::Histogram> {
        match payload {
            Payload::Decompose { .. } => Some(&self.latency_decompose),
            Payload::Synthesize { .. } => Some(&self.latency_synthesize),
            Payload::Stats => Some(&self.latency_stats),
            Payload::Metrics => Some(&self.latency_metrics),
            Payload::Shutdown => None,
        }
    }
}

struct ServiceState {
    config: ServiceConfig,
    /// The one observability registry: the cache, the per-verb counters and
    /// the latency histograms all register here, and the `metrics` verb
    /// snapshots it.
    obs: Arc<obs::Registry>,
    cache: Option<Arc<NpnCache>>,
    config_fp: u64,
    queue: Mutex<VecDeque<QueueItem>>,
    available: Condvar,
    /// When shutdown began (unset while serving) — the drain deadline
    /// counts from here.
    shutdown_at: OnceLock<Instant>,
    started: Instant,
    counters: Counters,
    /// Live connection count (for `max_connections`).
    connections: AtomicUsize,
    /// Compute-request counter driving the [`FaultPlan`] dice.
    fault_seq: AtomicU64,
    /// State of the `retry_after_ms` jitter stream.
    shed_rng: AtomicU64,
}

impl ServiceState {
    /// Stamps the start of shutdown (the first call wins) and wakes every
    /// parked worker.
    fn begin_shutdown(&self) {
        let _ = self.shutdown_at.set(Instant::now());
        // A worker checks the stamp and parks under the queue lock; taking
        // the lock here keeps the wakeup from landing between the two.
        drop(self.queue.lock().expect("request queue poisoned"));
        self.available.notify_all();
    }

    fn shutting_down(&self) -> bool {
        self.shutdown_at.get().is_some()
    }

    fn drain_deadline_expired(&self) -> bool {
        let ms = self.config.drain_deadline_ms;
        ms > 0 && self.shutdown_at.get().is_some_and(|at| at.elapsed() >= Duration::from_millis(ms))
    }

    /// The shed reply's backoff hint: grows with queue depth, jittered so a
    /// thousand rejected clients don't retry in lockstep.
    fn retry_after_ms(&self, queue_depth: usize) -> u64 {
        let mut x = self.shed_rng.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        25 + 3 * queue_depth as u64 + splitmix64(&mut x) % 25
    }

    /// How a request for `f` meets the cache. With caching off or
    /// `no_cache` set it touches neither the doorkeeper nor the store. A
    /// first sighting of `f`'s signature is computed the same way. Otherwise
    /// `f` is canonicalized here, once for the request.
    fn cache_route(&self, f: &Isf, no_cache: bool) -> Route<'_> {
        let Some(cache) = self.cache.as_deref().filter(|_| !no_cache) else {
            return Route::Bypass;
        };
        if !cache.admit(f) {
            return Route::NotAdmitted;
        }
        let start = Instant::now();
        let canon = canonicalize(f);
        self.counters.engine_canonicalize_nanos.add(start.elapsed().as_nanos() as u64);
        Route::Cached(cache, canon)
    }

    /// The fault dice for the next compute request (all-false without an
    /// armed plan).
    fn roll_fault(&self) -> FaultRoll {
        match &self.config.faults {
            Some(plan) if plan.is_armed() => {
                plan.roll(self.fault_seq.fetch_add(1, Ordering::Relaxed))
            }
            _ => FaultRoll::default(),
        }
    }
}

/// How a request meets the cache (see [`ServiceState::cache_route`]).
enum Route<'a> {
    /// Caching is off or the request set `no_cache`: replied `bypass`.
    Bypass,
    /// The first sighting of the function's signature: computed without the
    /// cache, replied `miss`.
    NotAdmitted,
    /// The shared cache and the canonical form of the request's function:
    /// one lookup, and one store on a miss.
    Cached(&'a NpnCache, Canonical),
}

impl Route<'_> {
    /// The reply's `cache` field for an answer computed, not looked up.
    fn computed_status(&self) -> &'static str {
        match self {
            Route::Bypass => "bypass",
            Route::NotAdmitted | Route::Cached(..) => "miss",
        }
    }
}

/// The persistent decomposition service. Bind, then [`Server::run`] until a
/// `shutdown` request arrives.
///
/// ```no_run
/// use service::{Server, ServiceConfig};
///
/// let server = Server::bind("127.0.0.1:0", ServiceConfig::default()).unwrap();
/// println!("listening on {}", server.local_addr().unwrap());
/// server.run().unwrap();
/// ```
pub struct Server {
    listener: TcpListener,
    state: Arc<ServiceState>,
}

impl Server {
    /// Binds the listener and prepares the shared state (no thread starts
    /// until [`Server::run`]).
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] unless `1 ≤ config.max_vars ≤`
    /// [`TruthTable::MAX_VARS`] (no larger request fits a truth table), or
    /// if the cache is on with `config.cache_shards > config.cache_capacity`
    /// (a stripe that can never hold an entry only costs memory) or above
    /// [`MAX_CACHE_SHARDS`]; then any [`TcpListener::bind`] error.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServiceConfig) -> io::Result<Server> {
        if !(1..=TruthTable::MAX_VARS).contains(&config.max_vars) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "max_vars must be between 1 and {}, got {}",
                    TruthTable::MAX_VARS,
                    config.max_vars
                ),
            ));
        }
        if config.cache_capacity > 0 && config.cache_shards > config.cache_capacity {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "cache_shards must not exceed cache_capacity {}, got {}",
                    config.cache_capacity, config.cache_shards
                ),
            ));
        }
        if config.cache_capacity > 0 && config.cache_shards > MAX_CACHE_SHARDS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "cache_shards must not exceed {MAX_CACHE_SHARDS}, got {}",
                    config.cache_shards
                ),
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let registry = Arc::new(obs::Registry::new());
        let counters = Counters::new(&registry);
        // Pre-register the gauge `metrics` refreshes lazily so a snapshot has
        // the same name set on an idle server as on a busy one (the regress
        // gate compares the exact shape).
        let cache = (config.cache_capacity > 0).then(|| {
            let _ = registry.gauge("cache.entries");
            Arc::new(NpnCache::with_registry(config.cache_capacity, config.cache_shards, &registry))
        });
        let config_fp = config_fingerprint(&config.recursive);
        let seed = config.faults.as_ref().map_or(0x5EED, |plan| plan.seed);
        let state = Arc::new(ServiceState {
            config,
            obs: registry,
            cache,
            config_fp,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown_at: OnceLock::new(),
            started: Instant::now(),
            counters,
            connections: AtomicUsize::new(0),
            fault_seq: AtomicU64::new(0),
            shed_rng: AtomicU64::new(seed),
        });
        Ok(Server { listener, state })
    }

    /// The server's observability registry. Clone the handle before
    /// [`Server::run`] consumes the server — e.g. to dump a final
    /// [`registry_snapshot_value`] after the service shuts down.
    pub fn registry(&self) -> Arc<obs::Registry> {
        Arc::clone(&self.state.obs)
    }

    /// The bound address (query it after binding port 0).
    ///
    /// # Errors
    ///
    /// Any [`TcpListener::local_addr`] error.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Spawns the compute threads, serves until a `shutdown` request
    /// arrives, then drains the queue (bounded by
    /// [`ServiceConfig::drain_deadline_ms`]), joins the compute threads and
    /// returns. Connection reader/writer threads are detached: a client
    /// that keeps its connection open past shutdown gets an error line per
    /// further request and ends its threads by closing the connection.
    ///
    /// # Errors
    ///
    /// A compute thread that fails to spawn (the threads already started
    /// are shut down first), or a fatal listener error (the queue is still
    /// drained before returning). Per-request problems are protocol-level
    /// error replies.
    pub fn run(self) -> io::Result<()> {
        let workers = spawn_workers(&self.state)?;
        let mut fatal = self.listener.set_nonblocking(true).err();
        while fatal.is_none() && !self.state.shutting_down() {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let max = self.state.config.max_connections;
                    if max > 0 && self.state.connections.load(Ordering::SeqCst) >= max {
                        self.state.counters.rejected_connections.inc();
                        let line = overloaded_response(self.state.retry_after_ms(0), &None);
                        std::thread::spawn(move || reject_connection(stream, &line));
                        continue;
                    }
                    self.state.connections.fetch_add(1, Ordering::SeqCst);
                    let state = Arc::clone(&self.state);
                    std::thread::spawn(move || {
                        let outcome =
                            catch_unwind(AssertUnwindSafe(|| serve_connection(stream, &state)));
                        if outcome.is_err() {
                            state.counters.panics.inc();
                        }
                        state.connections.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => {
                    // A fatal accept error still shuts the service down in
                    // order: flag shutdown, drain, then report the error.
                    fatal = Some(e);
                    break;
                }
            }
        }
        self.state.begin_shutdown();
        join_workers(&self.state, workers);
        // Whatever is still queued once the workers exited (drain deadline,
        // or every worker died) gets an orderly error reply instead of a
        // silently dropped channel.
        flush_queue(&self.state, ERR_SHUTDOWN);
        match fatal {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Starts the [`ServiceConfig::workers`] compute threads. If one fails to
/// spawn, the threads already started are shut down and joined before the
/// error is returned.
fn spawn_workers(state: &Arc<ServiceState>) -> io::Result<Vec<JoinHandle<()>>> {
    let mut workers = Vec::new();
    for _ in 0..state.config.effective_workers() {
        let worker_state = Arc::clone(state);
        let spawned = std::thread::Builder::new().spawn(move || {
            let mut worker = make_worker(&worker_state);
            drain_queue(&worker_state, &mut worker);
        });
        match spawned {
            Ok(handle) => workers.push(handle),
            Err(e) => {
                state.begin_shutdown();
                join_workers(state, workers);
                return Err(e);
            }
        }
    }
    Ok(workers)
}

/// Joins the compute threads, counting each one that died outside the
/// per-request panic guard in `panics`.
fn join_workers(state: &ServiceState, workers: Vec<JoinHandle<()>>) {
    for worker in workers {
        if worker.join().is_err() {
            state.counters.panics.inc();
        }
    }
}

/// Answers every queued item with `error` and empties the queue.
fn flush_queue(state: &ServiceState, error: &str) {
    let mut queue = state.queue.lock().expect("request queue poisoned");
    while let Some(item) = queue.pop_front() {
        let line = attach_id(error_value(error), &item.request.id).to_string();
        let _ = item.reply.send((item.seq, Reply::Line(line)));
    }
    state.counters.queue_depth.set(0);
}

/// Tells an over-capacity connection to back off: one `overloaded` line
/// under a short write timeout, then the socket drops.
fn reject_connection(stream: TcpStream, line: &str) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let mut out = stream;
    let _ = out.write_all(line.as_bytes());
    let _ = out.write_all(b"\n");
    let _ = out.flush();
}

/// One bounded request line, or why there isn't one.
enum LineOutcome {
    Line(String),
    /// Clean end of stream (any trailing unterminated bytes are returned as
    /// a final `Line` first).
    Eof,
    /// The line exceeded the byte cap.
    Overflow,
    /// The socket read timed out (slow or idle client).
    TimedOut,
    /// Any other read error.
    Failed,
}

/// Reads one `\n`-terminated line of at most `max_bytes` bytes
/// (`0` = unbounded) without ever buffering more than one chunk past the
/// cap — the bounded replacement for `BufRead::lines` that makes unbounded
/// hostile lines an error instead of an OOM.
fn read_bounded_line<R: BufRead>(reader: &mut R, max_bytes: usize) -> LineOutcome {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let (consumed, saw_newline, eof) = {
            let chunk = match reader.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return LineOutcome::TimedOut;
                }
                Err(_) => return LineOutcome::Failed,
            };
            if chunk.is_empty() {
                (0, false, true)
            } else {
                match chunk.iter().position(|&b| b == b'\n') {
                    Some(pos) => {
                        buf.extend_from_slice(&chunk[..pos]);
                        (pos + 1, true, false)
                    }
                    None => {
                        buf.extend_from_slice(chunk);
                        (chunk.len(), false, false)
                    }
                }
            }
        };
        reader.consume(consumed);
        if max_bytes > 0 && buf.len() > max_bytes {
            return LineOutcome::Overflow;
        }
        if saw_newline {
            return LineOutcome::Line(String::from_utf8_lossy(&buf).into_owned());
        }
        if eof {
            return if buf.is_empty() {
                LineOutcome::Eof
            } else {
                LineOutcome::Line(String::from_utf8_lossy(&buf).into_owned())
            };
        }
    }
}

/// Per-connection reader: parses request lines, runs admission control and
/// feeds the shared queue. The paired writer thread drains the reply
/// channel so responses never block request intake (or other connections).
fn serve_connection(stream: TcpStream, state: &Arc<ServiceState>) {
    // Request/response over one connection is latency-bound by Nagle's
    // algorithm colliding with delayed ACKs (~40 ms per round trip) unless
    // small writes go out immediately.
    let _ = stream.set_nodelay(true);
    // Timeouts are set before try_clone: both halves share the file
    // description, so the writer half inherits the write timeout.
    if state.config.read_timeout_ms > 0 {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(state.config.read_timeout_ms)));
    }
    if state.config.write_timeout_ms > 0 {
        let _ =
            stream.set_write_timeout(Some(Duration::from_millis(state.config.write_timeout_ms)));
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = channel::<(u64, Reply)>();
    let writer_state = Arc::clone(state);
    std::thread::spawn(move || {
        if catch_unwind(AssertUnwindSafe(|| writer_loop(write_half, &rx))).is_err() {
            writer_state.counters.panics.inc();
        }
    });

    let mut reader = BufReader::new(stream);
    let mut seq = 0u64;
    loop {
        let line = match read_bounded_line(&mut reader, state.config.max_line_bytes) {
            LineOutcome::Line(line) => line,
            LineOutcome::Eof | LineOutcome::Failed => break,
            LineOutcome::TimedOut => {
                state.counters.slow_clients.inc();
                break;
            }
            LineOutcome::Overflow => {
                state.counters.line_overflows.inc();
                state.counters.errors.inc();
                let _ = tx.send((seq, Reply::Line(error_response(ERR_LINE_TOO_LONG))));
                break; // the rest of the oversized line is unrecoverable
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match parse_request(&line, &state.config) {
            Ok(request) => request,
            Err(message) => {
                state.counters.errors.inc();
                let _ = tx.send((seq, Reply::Line(error_response(&message))));
                seq += 1;
                continue;
            }
        };
        if let Some(reply) = admit(state, request, seq, &tx) {
            let _ = tx.send((seq, Reply::Line(reply)));
        }
        seq += 1;
    }
    // Dropping the last sender (workers drop their per-item clones after
    // replying) ends the writer thread once its buffer drains.
}

/// Admission control: either enqueues the request (returning `None` — the
/// reply will come from a worker) or refuses it on the reader thread with a
/// shutdown notice or an `overloaded` shed. Refusing costs O(1): a shed
/// request is never canonicalized, looked up or computed.
fn admit(state: &ServiceState, request: Request, seq: u64, tx: &ReplyTx) -> Option<String> {
    let received = Instant::now();
    let deadline = request.deadline_ms.map(|ms| received + Duration::from_millis(ms));
    let mut queue = state.queue.lock().expect("request queue poisoned");
    if state.shutting_down() {
        drop(queue);
        return Some(attach_id(error_value(ERR_SHUTDOWN), &request.id).to_string());
    }
    let depth = queue.len();
    let max = state.config.max_queue;
    let shed_depth = match &request.payload {
        // Stats, metrics and shutdown are always admitted: an overloaded
        // server must still report its state and honor shutdown.
        Payload::Stats | Payload::Metrics | Payload::Shutdown => usize::MAX,
        // Expensive synthesis sheds at half the bound, cheap decompose only
        // once the queue is truly full.
        Payload::Synthesize { .. } => state.config.synthesize_shed_depth(),
        Payload::Decompose { .. } => max,
    };
    if max > 0 && depth >= shed_depth {
        drop(queue);
        state.counters.sheds.inc();
        return Some(overloaded_response(state.retry_after_ms(depth), &request.id));
    }
    queue.push_back(QueueItem { request, deadline, received, seq, reply: tx.clone() });
    // The gauge's current value tracks the live depth; its peak is the
    // high-water mark `stats` reports.
    state.counters.queue_depth.set(queue.len() as u64);
    drop(queue);
    state.available.notify_one();
    None
}

/// Per-connection writer: reorders worker replies into request order and
/// writes them out (or drops the connection on an injected [`Reply::Drop`]).
fn writer_loop(mut out: TcpStream, rx: &Receiver<(u64, Reply)>) {
    let mut pending: std::collections::BTreeMap<u64, Reply> = std::collections::BTreeMap::new();
    let mut next = 0u64;
    'outer: for (seq, reply) in rx {
        pending.insert(seq, reply);
        while let Some(reply) = pending.remove(&next) {
            next += 1;
            match reply {
                Reply::Line(mut line) => {
                    // One write per response (payload + newline) so no
                    // trailing fragment waits on an ACK.
                    line.push('\n');
                    if out.write_all(line.as_bytes()).is_err() {
                        break 'outer;
                    }
                    let _ = out.flush();
                }
                Reply::Drop => {
                    let _ = out.shutdown(std::net::Shutdown::Both);
                    break 'outer;
                }
            }
        }
    }
}

/// Per-worker scratch: the recursive synthesizer and the area model.
struct Worker {
    synthesizer: RecursiveSynthesizer,
    area: AreaModel,
}

fn make_worker(state: &ServiceState) -> Worker {
    Worker {
        synthesizer: RecursiveSynthesizer::new(state.config.recursive.clone()),
        area: AreaModel::mcnc(),
    }
}

/// One worker thread's life: pop a request, handle it (under
/// `catch_unwind`), reply immediately; park on the condvar when idle; exit
/// once shutdown began and the queue is empty — or flush the queue with
/// shutdown errors once the drain deadline expires.
fn drain_queue(state: &ServiceState, worker: &mut Worker) {
    loop {
        let item = {
            let mut queue = state.queue.lock().expect("request queue poisoned");
            loop {
                if state.drain_deadline_expired() {
                    drop(queue);
                    flush_queue(state, ERR_SHUTDOWN);
                    return;
                }
                if let Some(item) = queue.pop_front() {
                    state.counters.queue_depth.set(queue.len() as u64);
                    break item;
                }
                if state.shutting_down() {
                    return; // drained and shutting down
                }
                let (q, _) = state
                    .available
                    .wait_timeout(queue, Duration::from_millis(100))
                    .expect("request queue poisoned");
                queue = q;
            }
        };
        // Deadline check at dequeue: a request that waited out its budget
        // in the queue is answered without burning compute on it.
        if item.deadline.is_some_and(|d| Instant::now() >= d) {
            state.counters.timeouts.inc();
            let line = attach_id(error_value(ERR_DEADLINE), &item.request.id);
            let _ = item.reply.send((item.seq, Reply::Line(line.to_string())));
            continue;
        }
        let is_compute =
            matches!(item.request.payload, Payload::Decompose { .. } | Payload::Synthesize { .. });
        let roll = if is_compute { state.roll_fault() } else { FaultRoll::default() };
        if let Some(delay) = roll.delay {
            std::thread::sleep(delay);
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            handle(state, worker, &item.request, item.deadline, roll.inject_panic)
        }));
        let line = match outcome {
            Ok(line) => line,
            Err(_) => {
                state.counters.panics.inc();
                // The panic may have left the synthesizer's scratch state
                // inconsistent; rebuild from scratch before the next claim.
                *worker = make_worker(state);
                attach_id(error_value(ERR_INTERNAL), &item.request.id).to_string()
            }
        };
        let reply = if roll.drop_reply { Reply::Drop } else { Reply::Line(line) };
        let _ = item.reply.send((item.seq, reply));
        if let Some(latency) = state.counters.latency_of(&item.request.payload) {
            latency.record(item.received.elapsed().as_micros() as u64);
        }
    }
}

/// A handler failure: either the request's deadline expired mid-compute or
/// a protocol-level error message.
enum RequestError {
    Deadline,
    Message(String),
}

impl From<String> for RequestError {
    fn from(message: String) -> RequestError {
        RequestError::Message(message)
    }
}

/// Converts a handler result into the response line, attaching the `id`
/// echo and bumping the right failure counter.
fn finish(state: &ServiceState, result: Result<Value, RequestError>, id: &Option<Value>) -> String {
    let value = match result {
        Ok(value) => value,
        Err(RequestError::Deadline) => {
            state.counters.timeouts.inc();
            error_value(ERR_DEADLINE)
        }
        Err(RequestError::Message(message)) => {
            state.counters.errors.inc();
            error_value(&message)
        }
    };
    attach_id(value, id).to_string()
}

/// Echoes the request `id` (if any) into a response object.
fn attach_id(mut value: Value, id: &Option<Value>) -> Value {
    if let (Value::Object(fields), Some(id)) = (&mut value, id) {
        fields.push(("id".into(), id.clone()));
    }
    value
}

fn handle(
    state: &ServiceState,
    worker: &mut Worker,
    request: &Request,
    deadline: Option<Instant>,
    inject_panic: bool,
) -> String {
    match &request.payload {
        Payload::Decompose { f, g, seed, op, no_cache, tables } => {
            state.counters.decompose.inc();
            if inject_panic {
                panic!("{INJECTED_PANIC_MESSAGE}");
            }
            let result =
                handle_decompose(state, f, g.as_ref(), *seed, *op, *no_cache, *tables, deadline);
            finish(state, result, &request.id)
        }
        Payload::Synthesize { f, no_cache } => {
            state.counters.synthesize.inc();
            if inject_panic {
                panic!("{INJECTED_PANIC_MESSAGE}");
            }
            let result = handle_synthesize(state, worker, f, *no_cache, deadline);
            finish(state, result, &request.id)
        }
        Payload::Stats => {
            state.counters.stats.inc();
            attach_id(stats_value(state), &request.id).to_string()
        }
        Payload::Metrics => {
            state.counters.metrics.inc();
            attach_id(metrics_value(state), &request.id).to_string()
        }
        Payload::Shutdown => {
            state.begin_shutdown();
            let ack = Value::Object(vec![
                ("ok".into(), Value::Bool(true)),
                ("verb".into(), json::s("shutdown")),
            ]);
            attach_id(ack, &request.id).to_string()
        }
    }
}

fn deadline_expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

#[allow(clippy::too_many_arguments)]
fn handle_decompose(
    state: &ServiceState,
    f: &Isf,
    g: Option<&TruthTable>,
    seed: u64,
    op: BinaryOp,
    no_cache: bool,
    tables: bool,
    deadline: Option<Instant>,
) -> Result<Value, RequestError> {
    let g = match g {
        Some(g) => g.clone(),
        None => seeded_divisor(f, op, seed),
    };
    // An invalid divisor is rejected before the request meets the cache.
    if !is_valid_divisor(f, &g, op) {
        return Err(format!("divisor violates the Table II side condition of {op}").into());
    }
    let route = state.cache_route(f, no_cache);
    let start = Instant::now();
    let (h, cache_status) = match &route {
        Route::Cached(cache, canon) => match cache.lookup_quotient(canon, &g, op) {
            Some(h) => (h, "hit"),
            None => {
                let h = full_quotient(f, &g, op).map_err(|e| e.to_string())?;
                cache.store_quotient(canon, &g, op, &h);
                (h, "miss")
            }
        },
        _ => (full_quotient(f, &g, op).map_err(|e| e.to_string())?, route.computed_status()),
    };
    state.counters.engine_quotient_nanos.add(start.elapsed().as_nanos() as u64);
    // The quotient itself is cheap; verification is the expensive step.
    // Honor the deadline before paying for it.
    if deadline_expired(deadline) {
        return Err(RequestError::Deadline);
    }
    let verify_start = Instant::now();
    let verified = verify_decomposition(f, &g, &h, op);
    let maximal = verify_maximal_flexibility(f, &g, &h, op);
    state.counters.engine_verify_nanos.add(verify_start.elapsed().as_nanos() as u64);
    let mut fields = vec![
        ("ok".into(), Value::Bool(true)),
        ("verb".into(), json::s("decompose")),
        ("num_vars".into(), json::num(f.num_vars() as u64)),
        ("op".into(), json::s(op.symbol())),
        ("on_minterms".into(), json::num(h.on().count_ones())),
        ("dc_minterms".into(), json::num(h.dc().count_ones())),
        ("off_minterms".into(), json::num(h.off().count_ones())),
        ("verified".into(), Value::Bool(verified)),
        ("maximal".into(), Value::Bool(maximal)),
        ("cache".into(), json::s(cache_status)),
    ];
    if tables {
        fields.push(("h_on".into(), json::s(table_to_hex(h.on()))));
        fields.push(("h_dc".into(), json::s(table_to_hex(h.dc()))));
    }
    Ok(Value::Object(fields))
}

/// The `synthesize` success response.
#[allow(clippy::too_many_arguments)]
fn synthesize_response(
    f: &Isf,
    gates: usize,
    depth: usize,
    branches: usize,
    mapped_area: f64,
    flat_area: f64,
    verified: bool,
    cache_status: &str,
) -> Value {
    let gain = if flat_area == 0.0 { 0.0 } else { (flat_area - mapped_area) / flat_area * 100.0 };
    Value::Object(vec![
        ("ok".into(), Value::Bool(true)),
        ("verb".into(), json::s("synthesize")),
        ("num_vars".into(), json::num(f.num_vars() as u64)),
        ("gates".into(), json::num(gates as u64)),
        ("depth".into(), json::num(depth as u64)),
        ("branches".into(), json::num(branches as u64)),
        ("mapped_area".into(), Value::Num(mapped_area)),
        ("flat_area".into(), Value::Num(flat_area)),
        ("gain_percent".into(), Value::Num(gain)),
        ("verified".into(), Value::Bool(verified)),
        ("cache".into(), json::s(cache_status)),
    ])
}

/// Answers from the synthesis cache when it holds `f`'s NPN class (the
/// canonical network is rewired, re-verified and re-mapped; the hit's whole
/// cost, lookup included, lands in `engine.hit_nanos`), otherwise runs the
/// worker's synthesizer and, if the request was admitted, stores the result.
fn handle_synthesize(
    state: &ServiceState,
    worker: &mut Worker,
    f: &Isf,
    no_cache: bool,
    deadline: Option<Instant>,
) -> Result<Value, RequestError> {
    let route = state.cache_route(f, no_cache);
    let start = Instant::now();
    if let Route::Cached(cache, canon) = &route {
        if let Some(cached) = cache.lookup_synthesis(canon, state.config_fp) {
            let answer = || {
                // Honor the deadline before rewiring, re-verifying and
                // re-mapping.
                if deadline_expired(deadline) {
                    return Err(RequestError::Deadline);
                }
                let network = canon.transform.inverse().rewire_network(&cached.network);
                if !verify_network(f, &network, 0) {
                    return Err("cached network failed re-verification (cache bug)"
                        .to_string()
                        .into());
                }
                let mapped_area = worker.area.mapper().area(&network);
                Ok(synthesize_response(
                    f,
                    network.gate_count(),
                    cached.depth,
                    cached.branches,
                    mapped_area,
                    cached.flat_area,
                    true,
                    "hit",
                ))
            };
            let result = answer();
            state.counters.engine_hit_nanos.add(start.elapsed().as_nanos() as u64);
            return result;
        }
    }
    if deadline_expired(deadline) {
        return Err(RequestError::Deadline);
    }
    let start = Instant::now();
    let result = worker.synthesizer.synthesize(f).map_err(|e| e.to_string())?;
    state.counters.engine_synthesis_nanos.add(start.elapsed().as_nanos() as u64);
    if let Route::Cached(cache, canon) = &route {
        cache.store_synthesis(
            canon,
            state.config_fp,
            &result.network,
            result.flat_area,
            result.tree.depth(),
            result.tree.num_branches(),
        );
    }
    Ok(synthesize_response(
        f,
        result.gate_count(),
        result.tree.depth(),
        result.tree.num_branches(),
        result.mapped_area,
        result.flat_area,
        result.verified,
        route.computed_status(),
    ))
}

fn stats_value(state: &ServiceState) -> Value {
    let queue_depth = state.queue.lock().expect("request queue poisoned").len();
    let cache = match &state.cache {
        None => Value::Null,
        Some(cache) => {
            let stats = cache.stats();
            Value::Object(vec![
                ("hits".into(), json::num(stats.hits)),
                ("misses".into(), json::num(stats.misses)),
                ("insertions".into(), json::num(stats.insertions)),
                ("evictions".into(), json::num(stats.evictions)),
                ("not_admitted".into(), json::num(cache.not_admitted())),
                ("entries".into(), json::num(stats.entries)),
                ("capacity".into(), json::num(stats.capacity)),
                ("shards".into(), json::num(stats.shards)),
                ("hit_rate".into(), Value::Num(stats.hit_rate())),
            ])
        }
    };
    let c = &state.counters;
    Value::Object(vec![
        ("ok".into(), Value::Bool(true)),
        ("verb".into(), json::s("stats")),
        ("uptime_ms".into(), json::num(state.started.elapsed().as_millis() as u64)),
        ("workers".into(), json::num(state.config.effective_workers() as u64)),
        ("queue_depth".into(), json::num(queue_depth as u64)),
        ("max_queue".into(), json::num(state.config.max_queue as u64)),
        ("peak_queue".into(), json::num(c.queue_depth.peak())),
        ("connections".into(), json::num(state.connections.load(Ordering::SeqCst) as u64)),
        ("decompose".into(), json::num(c.decompose.get())),
        ("synthesize".into(), json::num(c.synthesize.get())),
        ("stats_requests".into(), json::num(c.stats.get())),
        ("errors".into(), json::num(c.errors.get())),
        ("sheds".into(), json::num(c.sheds.get())),
        ("timeouts".into(), json::num(c.timeouts.get())),
        ("panics".into(), json::num(c.panics.get())),
        ("rejected_connections".into(), json::num(c.rejected_connections.get())),
        ("slow_clients".into(), json::num(c.slow_clients.get())),
        ("line_overflows".into(), json::num(c.line_overflows.get())),
        ("cache".into(), cache),
    ])
}

/// One histogram as JSON: totals, interpolated `p50_us`/`p99_us` and the
/// non-empty log₂ buckets as `[lower_bound, count]` pairs. All registry
/// histograms record microseconds.
fn histogram_value(h: &obs::HistogramSnapshot) -> Value {
    let buckets = h
        .counts
        .iter()
        .enumerate()
        .filter(|(_, &count)| count > 0)
        .map(|(i, &count)| Value::Array(vec![json::num(obs::bucket_lower(i)), json::num(count)]))
        .collect();
    Value::Object(vec![
        ("count".into(), json::num(h.count)),
        ("sum_us".into(), json::num(h.sum)),
        ("p50_us".into(), Value::Num(h.quantile(0.5))),
        ("p99_us".into(), Value::Num(h.quantile(0.99))),
        ("buckets".into(), Value::Array(buckets)),
    ])
}

/// A registry snapshot as versioned JSON (`"schema":"bidecomp-metrics-v1"`)
/// without a response envelope: counters and gauges as name → value maps,
/// histograms as per-name objects with counts, quantiles and the log₂ bucket
/// array. Shared by the `metrics` verb and the
/// `bidecompd --metrics-dump` shutdown dump.
pub fn registry_snapshot_value(registry: &obs::Registry) -> Value {
    let snapshot = registry.snapshot();
    let counters = snapshot.counters.into_iter().map(|(name, v)| (name, json::num(v))).collect();
    let gauges = snapshot
        .gauges
        .into_iter()
        .map(|(name, g)| {
            let fields = Value::Object(vec![
                ("current".into(), json::num(g.current)),
                ("peak".into(), json::num(g.peak)),
            ]);
            (name, fields)
        })
        .collect();
    let histograms =
        snapshot.histograms.iter().map(|(name, h)| (name.clone(), histogram_value(h))).collect();
    Value::Object(vec![
        ("schema".into(), json::s("bidecomp-metrics-v1")),
        ("counters".into(), Value::Object(counters)),
        ("gauges".into(), Value::Object(gauges)),
        ("histograms".into(), Value::Object(histograms)),
    ])
}

/// The `metrics` response: the registry snapshot wrapped in the response
/// envelope. Point-in-time gauges (queue depth, cache population) are
/// refreshed immediately before the snapshot so `current` is current, not
/// last-event.
fn metrics_value(state: &ServiceState) -> Value {
    let queue_depth = state.queue.lock().expect("request queue poisoned").len();
    state.counters.queue_depth.set(queue_depth as u64);
    if let Some(cache) = &state.cache {
        state.obs.gauge("cache.entries").set(cache.stats().entries);
    }
    let mut fields = vec![
        ("ok".into(), Value::Bool(true)),
        ("verb".into(), json::s("metrics")),
        ("uptime_ms".into(), json::num(state.started.elapsed().as_millis() as u64)),
    ];
    match registry_snapshot_value(&state.obs) {
        Value::Object(snapshot_fields) => fields.extend(snapshot_fields),
        other => fields.push(("snapshot".into(), other)),
    }
    Value::Object(fields)
}

fn error_value(message: &str) -> Value {
    Value::Object(vec![("ok".into(), Value::Bool(false)), ("error".into(), json::s(message))])
}

fn error_response(message: &str) -> String {
    error_value(message).to_string()
}

/// The shed reply: `{"ok":false,"error":"overloaded","retry_after_ms":N}`
/// plus the `id` echo.
fn overloaded_response(retry_after_ms: u64, id: &Option<Value>) -> String {
    let value = Value::Object(vec![
        ("ok".into(), Value::Bool(false)),
        ("error".into(), json::s(ERR_OVERLOADED)),
        ("retry_after_ms".into(), json::num(retry_after_ms)),
    ]);
    attach_id(value, id).to_string()
}

// --- request parsing ------------------------------------------------------

/// Serializes a truth table as fixed-width lowercase hex: each `u64` word of
/// [`TruthTable::as_words`] as 16 hex digits, in word order.
pub fn table_to_hex(t: &TruthTable) -> String {
    t.as_words().iter().map(|w| format!("{w:016x}")).collect()
}

/// Parses [`table_to_hex`] output back into a table of the given arity.
///
/// # Errors
///
/// Describes the problem (wrong length, non-hex digits, set padding bits)
/// in a protocol-error string.
pub fn table_from_hex(hex: &str, num_vars: usize) -> Result<TruthTable, String> {
    // Accept hex digits only, before slicing at fixed byte offsets: a
    // multi-byte character straddling a chunk boundary would otherwise panic
    // the connection's reader thread, and `u64::from_str_radix` takes a
    // leading `+`, so "+000000000000001" would parse as the word 1.
    if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err("table hex must be hex digits only (0-9, a-f, A-F)".to_string());
    }
    let words_needed = (1usize << num_vars).div_ceil(64);
    if hex.len() != words_needed * 16 {
        return Err(format!(
            "table hex for {num_vars} variables must be {} digits, got {}",
            words_needed * 16,
            hex.len()
        ));
    }
    let mut words = Vec::with_capacity(words_needed);
    for chunk in 0..words_needed {
        let digits = &hex[chunk * 16..(chunk + 1) * 16];
        let word =
            u64::from_str_radix(digits, 16).map_err(|_| format!("bad hex word '{digits}'"))?;
        words.push(word);
    }
    let mut iter = words.iter().copied();
    let table = TruthTable::from_words(num_vars, || iter.next().expect("sized above"));
    if table.as_words() != words.as_slice() {
        return Err("table hex has bits beyond the declared arity".to_string());
    }
    Ok(table)
}

fn parse_request(line: &str, config: &ServiceConfig) -> Result<Request, String> {
    let doc = Value::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let id = match doc.get("id") {
        Some(v @ (Value::Num(_) | Value::Str(_))) => Some(v.clone()),
        Some(other) => return Err(format!("id must be a number or string, got {other}")),
        None => None,
    };
    let deadline_ms = match doc.get("deadline_ms") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| format!("deadline_ms must be an unsigned integer, got {v}"))?,
        ),
    };
    let verb = doc
        .get("verb")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing 'verb' field".to_string())?;
    let payload = match verb {
        "stats" => Payload::Stats,
        "metrics" => Payload::Metrics,
        "shutdown" => Payload::Shutdown,
        "decompose" => {
            let f = parse_isf(&doc, config)?;
            let op_name = doc
                .get("op")
                .and_then(Value::as_str)
                .ok_or_else(|| "decompose needs an 'op' field".to_string())?;
            let op = BinaryOp::from_symbol(op_name)
                .ok_or_else(|| format!("unknown operator '{op_name}'"))?;
            Payload::Decompose {
                g: hex_field(&doc, "g", f.num_vars())?,
                f,
                seed: parse_seed(&doc)?,
                op,
                no_cache: bool_field(&doc, "no_cache")?,
                tables: bool_field(&doc, "tables")?,
            }
        }
        "synthesize" => {
            let f = parse_isf(&doc, config)?;
            Payload::Synthesize { f, no_cache: bool_field(&doc, "no_cache")? }
        }
        other => return Err(format!("unknown verb '{other}'")),
    };
    Ok(Request { payload, id, deadline_ms })
}

/// An optional boolean field: absent → `false`; present with any other
/// type is a protocol error, never a silent `false`.
fn bool_field(doc: &Value, key: &str) -> Result<bool, String> {
    match doc.get(key) {
        None => Ok(false),
        Some(value) => {
            value.as_bool().ok_or_else(|| format!("{key} must be a boolean, got {value}"))
        }
    }
}

/// An optional truth-table field: absent → `None`; present with any type
/// other than a hex string is a protocol error, never a silent default.
fn hex_field(doc: &Value, key: &str, num_vars: usize) -> Result<Option<TruthTable>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(value) => {
            let hex =
                value.as_str().ok_or_else(|| format!("{key} must be a hex string, got {value}"))?;
            table_from_hex(hex, num_vars).map(Some)
        }
    }
}

/// The divisor seed: absent → 0; a JSON number (exact only up to 2^53 —
/// the JSON layer stores numbers as `f64`); or a decimal *string* for full
/// 64-bit seeds. A present-but-unrepresentable seed is a protocol error,
/// never a silent 0.
fn parse_seed(doc: &Value) -> Result<u64, String> {
    match doc.get("seed") {
        None => Ok(0),
        Some(value) => {
            if let Some(n) = value.as_u64() {
                return Ok(n);
            }
            if let Some(s) = value.as_str() {
                if let Ok(n) = s.parse::<u64>() {
                    return Ok(n);
                }
            }
            Err(format!(
                "seed must be an unsigned integer (exact up to 2^53) or a decimal string \
                 for full 64-bit seeds, got {value}"
            ))
        }
    }
}

fn parse_isf(doc: &Value, config: &ServiceConfig) -> Result<Isf, String> {
    let num_vars = doc
        .get("num_vars")
        .and_then(Value::as_u64)
        .ok_or_else(|| "missing 'num_vars' field".to_string())? as usize;
    if num_vars == 0 || num_vars > config.max_vars {
        return Err(format!(
            "num_vars must be between 1 and {} (server limit), got {num_vars}",
            config.max_vars
        ));
    }
    let on_hex = doc
        .get("f_on")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing 'f_on' field".to_string())?;
    let on = table_from_hex(on_hex, num_vars)?;
    let dc = hex_field(doc, "f_dc", num_vars)?.unwrap_or_else(|| TruthTable::zero(num_vars));
    Isf::new(on, dc).map_err(|e| format!("inconsistent ISF: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips_all_arities() {
        for n in [1usize, 3, 6, 7, 9] {
            let mut state = 0x5EEDu64 ^ n as u64;
            let t = TruthTable::from_words(n, || {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                state
            });
            let hex = table_to_hex(&t);
            assert_eq!(table_from_hex(&hex, n).unwrap(), t, "n={n}");
        }
    }

    #[test]
    fn hex_rejects_bad_input() {
        assert!(table_from_hex("zz", 3).is_err(), "non-hex");
        assert!(table_from_hex("00", 3).is_err(), "wrong length");
        // Multi-byte UTF-8 straddling a word boundary must be an error, not
        // a slice panic (32 bytes: 15 ASCII + 2-byte 'é' + 15 ASCII).
        let sneaky = format!("{}é{}", "0".repeat(15), "0".repeat(15));
        assert_eq!(sneaky.len(), 32);
        assert!(table_from_hex(&sneaky, 7).is_err(), "non-ASCII");
        // `u64::from_str_radix` alone would read a leading sign.
        assert!(table_from_hex("+000000000000001", 4).is_err(), "plus sign");
        assert!(table_from_hex("-000000000000001", 4).is_err(), "minus sign");
        assert!(table_from_hex("000000000000000 ", 4).is_err(), "space");
        // 3 vars use 8 bits; a set bit 9 is beyond the arity.
        assert!(table_from_hex("0000000000000100", 3).is_err(), "padding bit");
        assert!(table_from_hex(&"0".repeat(16), 3).is_ok());
    }

    #[test]
    fn request_parsing_covers_the_verbs_and_errors() {
        let config = ServiceConfig::default();
        assert!(matches!(
            parse_request(r#"{"verb":"stats"}"#, &config).unwrap().payload,
            Payload::Stats
        ));
        assert!(matches!(
            parse_request(r#"{"verb":"shutdown"}"#, &config).unwrap().payload,
            Payload::Shutdown
        ));
        let line = format!(
            r#"{{"verb":"decompose","num_vars":3,"f_on":"{}","op":"AND","seed":7}}"#,
            "00000000000000c0" // x0 x1 (minterms 6 and 7)
        );
        match parse_request(&line, &config).unwrap().payload {
            Payload::Decompose { f, op, seed, g, no_cache, tables } => {
                assert_eq!(f.num_vars(), 3);
                assert_eq!(f.on().count_ones(), 2);
                assert_eq!(op, BinaryOp::And);
                assert_eq!(seed, 7);
                assert!(g.is_none() && !no_cache && !tables);
            }
            other => panic!("expected a decompose payload, got {other:?}"),
        }
        let line = r#"{"verb":"decompose","num_vars":3,"f_on":"00000000000000c0","f_dc":"0000000000000001","op":"AND","g":"00000000000000c1","no_cache":true,"tables":true}"#;
        match parse_request(line, &config).unwrap().payload {
            Payload::Decompose { f, g, no_cache, tables, .. } => {
                assert_eq!(f.dc().count_ones(), 1);
                assert_eq!(g.map(|g| g.count_ones()), Some(3));
                assert!(no_cache && tables);
            }
            other => panic!("expected a decompose payload, got {other:?}"),
        }
        for bad in [
            "not json",
            r#"{"verb":"launch"}"#,
            r#"{"verb":"decompose","num_vars":3,"f_on":"00000000000000c0"}"#,
            r#"{"verb":"decompose","num_vars":99,"f_on":"00","op":"AND"}"#,
            r#"{"verb":"synthesize","num_vars":3}"#,
            // Optional fields of the wrong type are errors, not defaults.
            r#"{"verb":"decompose","num_vars":3,"f_on":"00000000000000c0","f_dc":0,"op":"AND"}"#,
            r#"{"verb":"decompose","num_vars":3,"f_on":"00000000000000c0","op":"AND","g":5}"#,
            r#"{"verb":"decompose","num_vars":3,"f_on":"00000000000000c0","op":"AND","tables":1}"#,
            r#"{"verb":"synthesize","num_vars":3,"f_on":"00000000000000c0","f_dc":0}"#,
            r#"{"verb":"synthesize","num_vars":3,"f_on":"00000000000000c0","no_cache":"yes"}"#,
        ] {
            assert!(parse_request(bad, &config).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn envelope_fields_parse_and_echo() {
        let config = ServiceConfig::default();
        let r = parse_request(r#"{"verb":"stats","id":42,"deadline_ms":250}"#, &config).unwrap();
        assert_eq!(r.id, Some(Value::Num(42.0)));
        assert_eq!(r.deadline_ms, Some(250));
        let r = parse_request(r#"{"verb":"stats","id":"req-7"}"#, &config).unwrap();
        assert_eq!(r.id, Some(Value::Str("req-7".into())));
        assert!(r.deadline_ms.is_none());
        // Invalid envelopes are protocol errors, not silent drops.
        assert!(parse_request(r#"{"verb":"stats","id":[1]}"#, &config).is_err());
        assert!(parse_request(r#"{"verb":"stats","deadline_ms":"soon"}"#, &config).is_err());
        // The echo lands at the end of the response object.
        let echoed = attach_id(error_value(ERR_DEADLINE), &Some(Value::Str("req-7".into())));
        assert_eq!(echoed.to_string(), r#"{"ok":false,"error":"deadline_exceeded","id":"req-7"}"#);
        // No id → untouched response.
        assert_eq!(attach_id(error_value("x"), &None).to_string(), r#"{"ok":false,"error":"x"}"#);
    }

    #[test]
    fn seeds_round_trip_numbers_and_strings() {
        let config = ServiceConfig::default();
        let request = |seed: &str| {
            format!(
                r#"{{"verb":"decompose","num_vars":3,"f_on":"00000000000000c0","op":"AND","seed":{seed}}}"#
            )
        };
        let seed_of = |line: &str| match parse_request(line, &config) {
            Ok(request) => match request.payload {
                Payload::Decompose { seed, .. } => Ok(seed),
                other => panic!("unexpected payload {other:?}"),
            },
            Err(message) => Err(message),
        };
        assert_eq!(seed_of(&request("7")), Ok(7));
        // Full 64-bit seeds travel as decimal strings.
        assert_eq!(seed_of(&request(&format!("\"{}\"", u64::MAX))), Ok(u64::MAX));
        // A numeric seed beyond f64 exactness is an error, not a silent 0.
        assert!(seed_of(&request("18446744073709551615")).is_err());
        assert!(seed_of(&request("\"banana\"")).is_err());
    }

    #[test]
    fn config_fingerprint_distinguishes_configs() {
        let a = RecursiveConfig::default();
        let mut b = RecursiveConfig::default();
        b.max_depth += 1;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
        assert_eq!(config_fingerprint(&a), config_fingerprint(&RecursiveConfig::default()));
    }

    #[test]
    fn fault_plan_rolls_are_deterministic_and_disarmable() {
        let mut plan = FaultPlan::new(0xC4A0_5EED);
        plan.panic_per_mille = 100;
        plan.delay_per_mille = 50;
        plan.delay_ms = 3;
        plan.drop_per_mille = 25;
        let a: Vec<_> = (0..2000)
            .map(|n| plan.roll(n))
            .map(|r| (r.inject_panic, r.delay, r.drop_reply))
            .collect();
        let b: Vec<_> = (0..2000)
            .map(|n| plan.roll(n))
            .map(|r| (r.inject_panic, r.delay, r.drop_reply))
            .collect();
        assert_eq!(a, b, "rolls must be a pure function of (seed, n)");
        // The rates hold roughly over 2000 rolls (loose 2x bands — this is
        // a determinism test, not a statistics test).
        let panics = a.iter().filter(|r| r.0).count();
        let delays = a.iter().filter(|r| r.1.is_some()).count();
        let drops = a.iter().filter(|r| r.2).count();
        assert!((100..=400).contains(&panics), "~10% of 2000 expected, got {panics}");
        assert!((40..=220).contains(&delays), "~5% of 2000 expected, got {delays}");
        assert!((20..=120).contains(&drops), "~2.5% of 2000 expected, got {drops}");
        assert!(a.iter().any(|r| r.1 == Some(Duration::from_millis(3))));
        // Clones share the armed switch.
        let clone = plan.clone();
        clone.arm(false);
        assert!(!plan.is_armed());
        clone.arm(true);
        assert!(plan.is_armed());
    }

    #[test]
    fn retry_after_grows_with_depth_and_jitters() {
        let server = Server::bind("127.0.0.1:0", ServiceConfig::default()).unwrap();
        let state = &server.state;
        for depth in [0usize, 10, 200] {
            let base = 25 + 3 * depth as u64;
            for _ in 0..50 {
                let hint = state.retry_after_ms(depth);
                assert!(
                    (base..base + 25).contains(&hint),
                    "retry_after_ms({depth}) = {hint} outside [{base}, {})",
                    base + 25
                );
            }
        }
        // Jitter actually varies.
        let hints: std::collections::BTreeSet<u64> =
            (0..50).map(|_| state.retry_after_ms(0)).collect();
        assert!(hints.len() > 1, "50 draws produced a single value");
    }

    #[test]
    fn bounded_line_reader_caps_and_splits() {
        use std::io::Cursor;
        let mut r = Cursor::new(b"hello\nworld\n".to_vec());
        assert!(matches!(read_bounded_line(&mut r, 64), LineOutcome::Line(l) if l == "hello"));
        assert!(matches!(read_bounded_line(&mut r, 64), LineOutcome::Line(l) if l == "world"));
        assert!(matches!(read_bounded_line(&mut r, 64), LineOutcome::Eof));
        // A trailing unterminated line still comes out before EOF.
        let mut r = Cursor::new(b"tail".to_vec());
        assert!(matches!(read_bounded_line(&mut r, 64), LineOutcome::Line(l) if l == "tail"));
        assert!(matches!(read_bounded_line(&mut r, 64), LineOutcome::Eof));
        // Over the cap → Overflow, with or without a newline in sight.
        let mut r = Cursor::new(vec![b'x'; 100]);
        assert!(matches!(read_bounded_line(&mut r, 10), LineOutcome::Overflow));
        let mut r = Cursor::new([vec![b'x'; 100], b"\nok\n".to_vec()].concat());
        assert!(matches!(read_bounded_line(&mut r, 10), LineOutcome::Overflow));
        // Unbounded (0) never overflows.
        let mut r = Cursor::new([vec![b'x'; 100_000], b"\n".to_vec()].concat());
        assert!(matches!(read_bounded_line(&mut r, 0), LineOutcome::Line(l) if l.len() == 100_000));
    }

    #[test]
    fn synthesize_shed_depth_halves_the_bound() {
        let config = ServiceConfig { max_queue: 256, ..ServiceConfig::default() };
        assert_eq!(config.synthesize_shed_depth(), 128);
        let config = ServiceConfig { max_queue: 1, ..config };
        assert_eq!(config.synthesize_shed_depth(), 1, "a bound of 1 must not shed everything");
    }
}
