//! The service load generator: replays a seeded mixed workload against a
//! running `bidecompd` and measures what the NPN cache buys.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bidecomp-bench --release --bin service_loadgen -- \
//!     (--port N | --port-file PATH | --chaos) [--requests N] \
//!     [--connections N] [--num-vars N] [--bases N] [--repeat-ratio F] \
//!     [--seed N] [--json PATH] [--write-baseline] [--shutdown-server] \
//!     [--scrape] [--chaos] [--chaos-requests N]
//! ```
//!
//! The workload mirrors a synthesis campaign: a pool of `--bases` seeded
//! random cover functions plays the role of the recurring subfunctions, and
//! each request is, with probability `--repeat-ratio`, one of them under a
//! *fresh random NPN transform* (permuted, input/output-complemented — the
//! repeats a canonical cache must recognize), otherwise a never-seen random
//! function. ~80% of requests are `synthesize`, the rest `decompose` with a
//! random operator and a server-derived seeded divisor.
//!
//! The same request sequence runs twice: once with `"no_cache":true` on
//! every request (the cold arm) and once cached. Both arms run in the same
//! process against the same server, so their throughput ratio — the
//! artifact's `speedup` — is comparable across machines, like the `sweep`
//! binary's engine-vs-reference ratio. Every response is checked: `ok`,
//! `verified` (and `maximal` for decompose) must hold, and any failure
//! fails the run.
//!
//! Before the arms, an in-process NPN arm times the word-parallel
//! `service::canonicalize` against its per-minterm oracle
//! `canonicalize_per_minterm` on the workload's functions (one thread,
//! fastest of five runs each) and fails unless both return the same
//! canonical form, key and transform, for every function.
//!
//! The artifact (`BENCH_service.json`, schema `bidecomp-service-v1`)
//! records the workload shape (exact, gated bit for bit), per-arm
//! throughput, p50/p99 latency and `cache: hit` reply counts (all verbs,
//! and `synthesize` alone), the cached arm's hit rate, the speedup, a
//! `robustness` snapshot of the server's failure counters (all zero on the
//! happy path) and the `npn` block (`functions`, both walls, `speedup`);
//! `regress` compares it against the committed
//! `BENCH_service_baseline.json` with a tolerance band on the measured
//! quantities. `--write-baseline` refreshes the baseline.
//!
//! `--scrape` additionally pulls the server's `metrics` verb after both
//! arms and embeds a `scrape` block in the artifact: the full
//! `bidecomp-metrics-v1` counter map (so `regress` can pin the exact metric
//! name set and `server.panics == 0`) plus the *server-side* per-verb
//! latency quantiles (`server.latency.decompose` / `.synthesize`) — the
//! queue-and-compute time without the client's socket round trip, the
//! number the client-side `p50_ms`/`p99_ms` above can only approximate.
//!
//! ## Chaos mode
//!
//! `--chaos` ignores `--port`/`--port-file` and instead spins up its *own*
//! in-process server with a seeded [`service::FaultPlan`] (injected worker
//! panics, compute delays, mid-reply connection drops) and deliberately
//! tight admission limits, then storms it with `--chaos-requests` requests
//! through retrying clients (jittered exponential backoff honoring each
//! shed's `retry_after_ms`, reconnecting through dropped connections,
//! correlating replies by `id` echo). Every request must eventually get a
//! verified answer: the run fails on any *lost* (retries exhausted) or
//! *corrupted* (wrong `id`, unverified, unparsable) response. Faults are
//! then disarmed and a recovery batch must pass cleanly on the first
//! attempt. The artifact (`BENCH_service_chaos.json`, schema
//! `bidecomp-service-chaos-v1`) is gated by `regress` on exactly that:
//! zero lost, zero corrupted, full completion, full recovery.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use benchmarks::cold::random_isf;
use benchmarks::DetRng;
use bidecomp::engine::seeded_divisor;
use bidecomp::BinaryOp;
use bidecomp_bench::cli::{write_artifact, ArgCursor};
use bidecomp_bench::json::{self, Value};
use bidecomp_bench::ReferenceArm;
use boolfunc::Isf;
use service::npn::{canonicalize, canonicalize_per_minterm, NpnTransform};
use service::server::table_to_hex;
use service::{FaultPlan, Server, ServiceConfig, ERR_INTERNAL, ERR_OVERLOADED};

#[derive(Clone)]
struct Args {
    port: Option<u16>,
    port_file: Option<String>,
    requests: usize,
    connections: usize,
    num_vars: usize,
    bases: usize,
    repeat_ratio: f64,
    seed: u64,
    json_path: String,
    write_baseline: bool,
    shutdown_server: bool,
    scrape: bool,
    chaos: bool,
    chaos_requests: usize,
}

/// Strict parsing (exit code 2 on any problem): this binary feeds the CI
/// gate and writes the committed baseline.
fn parse_args() -> Args {
    let mut args = Args {
        port: None,
        port_file: None,
        requests: 240,
        connections: 8,
        num_vars: 9,
        bases: 12,
        repeat_ratio: 0.9,
        seed: 0x5EED_CAFE,
        json_path: "BENCH_service.json".to_string(),
        write_baseline: false,
        shutdown_server: false,
        scrape: false,
        chaos: false,
        chaos_requests: 2000,
    };
    let mut argv = ArgCursor::from_env("service_loadgen");
    while let Some(flag) = argv.next_flag() {
        match flag.as_str() {
            "--port" => args.port = Some(argv.number(&flag)),
            "--port-file" => args.port_file = Some(argv.value(&flag)),
            "--requests" => args.requests = argv.number(&flag),
            "--connections" => args.connections = argv.number::<usize>(&flag).max(1),
            "--num-vars" => args.num_vars = argv.number(&flag),
            "--bases" => args.bases = argv.number::<usize>(&flag).max(1),
            "--repeat-ratio" => args.repeat_ratio = argv.number(&flag),
            "--seed" => args.seed = argv.number(&flag),
            "--json" => args.json_path = argv.value(&flag),
            "--write-baseline" => args.write_baseline = true,
            "--shutdown-server" => args.shutdown_server = true,
            "--scrape" => args.scrape = true,
            "--chaos" => args.chaos = true,
            "--chaos-requests" => args.chaos_requests = argv.number::<usize>(&flag).max(1),
            other => argv.fail(format_args!("unknown argument {other}")),
        }
    }
    args
}

/// Resolves the server port: `--port`, or poll `--port-file` (written by
/// `bidecompd` after binding) for up to 30 seconds.
fn resolve_port(args: &Args) -> Result<u16, String> {
    if let Some(port) = args.port {
        return Ok(port);
    }
    let Some(path) = &args.port_file else {
        return Err("one of --port or --port-file is required".to_string());
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Ok(port) = text.trim().parse::<u16>() {
                return Ok(port);
            }
        }
        if Instant::now() > deadline {
            return Err(format!("no usable port appeared in {path} within 30s"));
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

fn connect(port: u16) -> Result<TcpStream, String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match TcpStream::connect(("127.0.0.1", port)) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                return Ok(stream);
            }
            Err(e) if Instant::now() > deadline => {
                return Err(format!("cannot connect to 127.0.0.1:{port}: {e}"))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(100)),
        }
    }
}

fn random_transform(rng: &mut DetRng, num_vars: usize) -> NpnTransform {
    let mut perm: Vec<u8> = (0..num_vars as u8).collect();
    for i in (1..num_vars).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    let neg = (rng.next_u64() as u32) & ((1u32 << num_vars) - 1);
    NpnTransform::new(perm, neg, rng.next_u64() & 1 == 1)
}

/// One precomputed request line (without the `no_cache` marker, which the
/// cold arm splices in) plus what kind it is and the function it carries.
struct WorkItem {
    line: String,
    synthesize: bool,
    f: Isf,
}

fn build_workload(args: &Args) -> Vec<WorkItem> {
    let mut base_rng = DetRng::seed_from_u64(args.seed);
    let bases: Vec<Isf> =
        (0..args.bases).map(|_| random_isf(&mut base_rng, args.num_vars)).collect();
    (0..args.requests)
        .map(|i| {
            let mut rng = DetRng::seed_from_u64(
                args.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let repeat = (rng.next_u64() % 1000) as f64 / 1000.0 < args.repeat_ratio;
            let synthesize = rng.next_u64() % 5 < 4; // 80% synthesize
            let (f, base_and_transform) = if repeat {
                let index = (rng.next_u64() % args.bases as u64) as usize;
                let t = random_transform(&mut rng, args.num_vars);
                (t.apply_isf(&bases[index]), Some((index, &bases[index], t)))
            } else {
                (random_isf(&mut rng, args.num_vars), None)
            };
            let line = if synthesize {
                format!(
                    r#"{{"verb":"synthesize","num_vars":{},"f_on":"{}","f_dc":"{}""#,
                    args.num_vars,
                    table_to_hex(f.on()),
                    table_to_hex(f.dc()),
                )
            } else {
                // Repeats carry the diagonally transformed (f, g, op) of a
                // deterministic per-base divisor — the operator is tied to
                // the base so the same decomposition problem recurs under
                // fresh NPN clothing and the cache can recognize it; fresh
                // functions pick a random operator and let the server
                // derive a seeded divisor.
                match base_and_transform {
                    Some((index, base, ref t)) => {
                        let op = BinaryOp::all()[index % 10];
                        let g = seeded_divisor(base, op, args.seed ^ index as u64);
                        format!(
                            r#"{{"verb":"decompose","num_vars":{},"f_on":"{}","f_dc":"{}","op":"{}","g":"{}""#,
                            args.num_vars,
                            table_to_hex(f.on()),
                            table_to_hex(f.dc()),
                            t.map_op(op).symbol(),
                            table_to_hex(&t.permute_table(&g)),
                        )
                    }
                    None => {
                        let op = BinaryOp::all()[(rng.next_u64() % 10) as usize];
                        // Seeds are full 64-bit values, so they travel as
                        // decimal strings (JSON numbers are only exact to
                        // 2^53).
                        format!(
                            r#"{{"verb":"decompose","num_vars":{},"f_on":"{}","f_dc":"{}","op":"{}","seed":"{}""#,
                            args.num_vars,
                            table_to_hex(f.on()),
                            table_to_hex(f.dc()),
                            op.symbol(),
                            rng.next_u64(),
                        )
                    }
                }
            };
            WorkItem { line, synthesize, f }
        })
        .collect()
}

#[derive(Debug, Default)]
struct ArmResult {
    wall_ms: f64,
    rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    hits: u64,
    synthesize_hits: u64,
    errors: u64,
}

/// Runs one arm: the work items round-robined over `connections` synchronous
/// request/response workers.
fn run_arm(
    port: u16,
    args: &Args,
    workload: &[WorkItem],
    no_cache: bool,
) -> Result<ArmResult, String> {
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(workload.len()));
    let hits = AtomicU64::new(0);
    let synthesize_hits = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| -> Result<(), String> {
        let mut handles = Vec::new();
        for worker in 0..args.connections {
            let stream = connect(port)?;
            let latencies = &latencies;
            let hits = &hits;
            let synthesize_hits = &synthesize_hits;
            let errors = &errors;
            handles.push(scope.spawn(move || -> Result<(), String> {
                let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
                let mut reader = BufReader::new(stream);
                let mut local_latencies = Vec::new();
                for item in workload.iter().skip(worker).step_by(args.connections) {
                    let suffix = if no_cache { r#","no_cache":true}"# } else { "}" };
                    let request = format!("{}{}\n", item.line, suffix);
                    let sent = Instant::now();
                    writer.write_all(request.as_bytes()).map_err(|e| e.to_string())?;
                    writer.flush().map_err(|e| e.to_string())?;
                    let mut line = String::new();
                    reader.read_line(&mut line).map_err(|e| e.to_string())?;
                    local_latencies.push(sent.elapsed().as_micros() as u64);
                    let response = Value::parse(line.trim())
                        .map_err(|e| format!("unparsable response: {e}"))?;
                    let ok = response.get("ok").and_then(Value::as_bool) == Some(true);
                    let verified = response.get("verified").and_then(Value::as_bool) == Some(true);
                    // Decompose responses additionally claim maximal
                    // flexibility (Corollaries 1–4); when present the field
                    // must hold.
                    let maximal = response.get("maximal").and_then(Value::as_bool) != Some(false);
                    if !ok || !verified || !maximal {
                        eprintln!("service_loadgen: bad response: {}", line.trim());
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                    if response.get("cache").and_then(Value::as_str) == Some("hit") {
                        hits.fetch_add(1, Ordering::Relaxed);
                        if item.synthesize {
                            synthesize_hits.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                latencies.lock().unwrap().extend(local_latencies);
                Ok(())
            }));
        }
        for handle in handles {
            handle.join().expect("loadgen worker panicked")?;
        }
        Ok(())
    })?;
    let wall = start.elapsed();

    let mut micros = latencies.into_inner().unwrap();
    micros.sort_unstable();
    let percentile = |p: usize| -> f64 {
        if micros.is_empty() {
            0.0
        } else {
            micros[(micros.len() * p / 100).min(micros.len() - 1)] as f64 / 1000.0
        }
    };
    Ok(ArmResult {
        wall_ms: wall.as_secs_f64() * 1000.0,
        rps: workload.len() as f64 / wall.as_secs_f64(),
        p50_ms: percentile(50),
        p99_ms: percentile(99),
        hits: hits.load(Ordering::Relaxed),
        synthesize_hits: synthesize_hits.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
    })
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// Runs per arm of the NPN reference arm.
const NPN_REPEATS: usize = 5;

/// Times the word-parallel [`canonicalize`] against its per-minterm oracle
/// over every workload function (one thread, fastest of [`NPN_REPEATS`]
/// runs each) and checks that both return the same
/// [`service::Canonical`] (key and transform) for each.
fn npn_arm(workload: &[WorkItem]) -> Result<ReferenceArm, String> {
    ReferenceArm::measure(
        workload,
        NPN_REPEATS,
        |item| canonicalize(&item.f),
        |item| canonicalize_per_minterm(&item.f),
    )
    .map_err(|(i, word, per_minterm)| {
        format!(
            "request #{i}: the word-parallel canonical form differs from the per-minterm one\n  \
             word:        {word:?}\n  per-minterm: {per_minterm:?}"
        )
    })
}

fn arm_to_json(arm: &ArmResult) -> Vec<(String, Value)> {
    vec![
        ("rps".into(), Value::Num(round3(arm.rps))),
        ("p50_ms".into(), Value::Num(round3(arm.p50_ms))),
        ("p99_ms".into(), Value::Num(round3(arm.p99_ms))),
        ("wall_ms".into(), Value::Num(round3(arm.wall_ms))),
        ("hits".into(), json::num(arm.hits)),
        ("synthesize_hits".into(), json::num(arm.synthesize_hits)),
    ]
}

/// One single-verb round trip against the server.
fn fetch_verb(port: u16, verb: &str) -> Result<Value, String> {
    let stream = connect(port)?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    writer.write_all(format!("{{\"verb\":\"{verb}\"}}\n").as_bytes()).map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).map_err(|e| e.to_string())?;
    Value::parse(line.trim()).map_err(|e| format!("unparsable {verb} response: {e}"))
}

/// One `stats` round trip against the server.
fn fetch_stats(port: u16) -> Result<Value, String> {
    fetch_verb(port, "stats")
}

/// The `scrape` block of the artifact, distilled from a `metrics` response:
/// the verbatim counter map (`regress` pins the exact name set and the
/// zero-panic invariant) and the server-side per-verb latency quantiles in
/// milliseconds.
fn scrape_block(metrics: &Value) -> Result<Value, String> {
    if metrics.get("schema").and_then(Value::as_str) != Some("bidecomp-metrics-v1") {
        return Err(format!("metrics response lacks the expected schema: {metrics}"));
    }
    let counters =
        metrics.get("counters").cloned().ok_or_else(|| "metrics without counters".to_string())?;
    let verb = |name: &str| -> Result<Value, String> {
        let key = format!("server.latency.{name}");
        let hist = metrics
            .get("histograms")
            .and_then(|h| h.get(&key))
            .ok_or_else(|| format!("metrics without the {key} histogram"))?;
        let count = hist.get("count").and_then(Value::as_u64).unwrap_or(0);
        let quantile_ms = |key: &str| match hist.get(key) {
            Some(Value::Num(us)) => round3(us / 1000.0),
            _ => 0.0,
        };
        Ok(Value::Object(vec![
            ("count".into(), json::num(count)),
            ("p50_ms".into(), Value::Num(quantile_ms("p50_us"))),
            ("p99_ms".into(), Value::Num(quantile_ms("p99_us"))),
        ]))
    };
    Ok(Value::Object(vec![
        ("schema".into(), json::s("bidecomp-metrics-v1")),
        ("counters".into(), counters),
        (
            "verbs".into(),
            Value::Object(vec![
                ("decompose".into(), verb("decompose")?),
                ("synthesize".into(), verb("synthesize")?),
            ]),
        ),
    ]))
}

/// The server's failure counters, lifted out of a `stats` response — the
/// `robustness` snapshot both artifacts embed (all zero on the happy path).
fn robustness_snapshot(stats: &Value) -> Value {
    let counter = |key: &str| json::num(stats.get(key).and_then(Value::as_u64).unwrap_or(0));
    Value::Object(vec![
        ("sheds".into(), counter("sheds")),
        ("timeouts".into(), counter("timeouts")),
        ("panics".into(), counter("panics")),
        ("rejected_connections".into(), counter("rejected_connections")),
        ("slow_clients".into(), counter("slow_clients")),
        ("line_overflows".into(), counter("line_overflows")),
    ])
}

// --- chaos mode -----------------------------------------------------------

/// The chaos run's books: every storm request is accounted for exactly once
/// as completed, lost or corrupted.
#[derive(Debug, Default)]
struct ChaosTally {
    completed: u64,
    lost: u64,
    corrupted: u64,
    retries: u64,
    overloads_seen: u64,
    internal_seen: u64,
    reconnects: u64,
}

/// One client worker's connection that survives injected drops by
/// reconnecting.
struct RetryingClient {
    port: u16,
    reader: Option<BufReader<TcpStream>>,
    writer: Option<TcpStream>,
    rng: DetRng,
}

impl RetryingClient {
    fn new(port: u16, seed: u64) -> RetryingClient {
        RetryingClient { port, reader: None, writer: None, rng: DetRng::seed_from_u64(seed) }
    }

    fn ensure_connected(&mut self) -> Result<(), String> {
        if self.writer.is_some() {
            return Ok(());
        }
        let stream = connect(self.port)?;
        // A dropped reply must surface as an error, not an infinite read.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(20)));
        self.writer = Some(stream.try_clone().map_err(|e| e.to_string())?);
        self.reader = Some(BufReader::new(stream));
        Ok(())
    }

    fn disconnect(&mut self) {
        self.writer = None;
        self.reader = None;
    }

    /// One send/receive attempt; `None` means the connection died (dropped
    /// mid-reply or rejected) and the caller should retry.
    fn attempt(&mut self, request: &str) -> Result<Option<Value>, String> {
        self.ensure_connected()?;
        let writer = self.writer.as_mut().expect("connected above");
        let reader = self.reader.as_mut().expect("connected above");
        if writer.write_all(request.as_bytes()).is_err() || writer.flush().is_err() {
            self.disconnect();
            return Ok(None);
        }
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => {
                self.disconnect();
                return Ok(None);
            }
            Ok(_) => {}
        }
        match Value::parse(line.trim()) {
            Ok(response) => Ok(Some(response)),
            Err(e) => Err(format!("unparsable response {:?}: {e}", line.trim())),
        }
    }

    /// Jittered exponential backoff before retry `attempt`, honoring the
    /// server's `retry_after_ms` hint when one was given.
    fn backoff(&mut self, attempt: u32, retry_after_ms: Option<u64>) {
        let exponential = 5u64 << attempt.min(5); // 10..160 ms
        let base = retry_after_ms.unwrap_or(0).max(exponential).min(400);
        let jitter = self.rng.next_u64() % (base / 2 + 1);
        std::thread::sleep(Duration::from_millis(base + jitter));
    }
}

/// Drives one request to a verified completion through sheds, injected
/// panics and dropped connections. Returns the total latency on success.
fn drive_request(
    client: &mut RetryingClient,
    line: &str,
    id: u64,
    tally: &mut ChaosTally,
) -> Result<Option<u64>, String> {
    const MAX_ATTEMPTS: u32 = 25;
    // Work-item lines arrive without their closing brace (the non-chaos
    // arms splice `no_cache` in the same way).
    let request = format!("{line},\"id\":{id}}}\n");
    let started = Instant::now();
    for attempt in 0..MAX_ATTEMPTS {
        let response = match client.attempt(&request)? {
            Some(response) => response,
            None => {
                // Dropped mid-flight: reconnect and re-ask (requests are
                // idempotent pure-function computations).
                tally.reconnects += 1;
                tally.retries += 1;
                client.backoff(attempt, None);
                continue;
            }
        };
        let ok = response.get("ok").and_then(Value::as_bool) == Some(true);
        if ok {
            let id_matches = response.get("id").and_then(Value::as_u64) == Some(id);
            let verified = response.get("verified").and_then(Value::as_bool) == Some(true);
            let maximal = response.get("maximal").and_then(Value::as_bool) != Some(false);
            if !id_matches || !verified || !maximal {
                eprintln!("service_loadgen: corrupted response for id {id}: {response}");
                tally.corrupted += 1;
                return Ok(None);
            }
            tally.completed += 1;
            return Ok(Some(started.elapsed().as_micros() as u64));
        }
        match response.get("error").and_then(Value::as_str) {
            Some(ERR_OVERLOADED) => {
                tally.overloads_seen += 1;
                tally.retries += 1;
                let hint = response.get("retry_after_ms").and_then(Value::as_u64);
                client.backoff(attempt, hint);
            }
            Some(ERR_INTERNAL) => {
                tally.internal_seen += 1;
                tally.retries += 1;
                client.backoff(attempt, None);
            }
            other => {
                eprintln!("service_loadgen: unexpected error for id {id}: {other:?} in {response}");
                tally.corrupted += 1;
                return Ok(None);
            }
        }
    }
    eprintln!("service_loadgen: id {id} lost after {MAX_ATTEMPTS} attempts");
    tally.lost += 1;
    Ok(None)
}

/// The chaos harness: an in-process fault-injecting server with tight
/// admission limits, a retrying storm, a clean-recovery phase, and the
/// `bidecomp-service-chaos-v1` artifact.
fn run_chaos(args: &Args) -> ExitCode {
    service::silence_injected_panics();
    let mut plan = FaultPlan::new(args.seed);
    plan.panic_per_mille = 40; // 4% injected worker panics
    plan.delay_per_mille = 60; // 6% compute delays…
    plan.delay_ms = 20; // …of 20 ms each (stalls workers, fills the queue)
    plan.drop_per_mille = 25; // 2.5% connections dropped mid-reply
    let config = ServiceConfig {
        workers: 2,                // few workers + delays → a real overload burst
        max_queue: 8,              // sheds kick in under the storm
        drain_deadline_ms: 30_000, // the final drain is not part of the chaos
        faults: Some(plan.clone()),
        ..ServiceConfig::default()
    };
    let server = match Server::bind("127.0.0.1:0", config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("service_loadgen: cannot bind the chaos server: {e}");
            return ExitCode::FAILURE;
        }
    };
    let port = server.local_addr().expect("bound address").port();
    let server_thread = std::thread::spawn(move || server.run());

    let storm_args = Args { requests: args.chaos_requests, ..args.clone() };
    let workload = build_workload(&storm_args);
    println!(
        "== chaos: {} requests over {} retrying connections against a faulty server \
         (4% panics, 6% x 20ms delays, 2.5% connection drops, queue bound 8, 2 workers) ==",
        workload.len(),
        args.connections,
    );

    // Storm phase: every request must complete, verified, id-correlated.
    let tally_total: Mutex<ChaosTally> = Mutex::new(ChaosTally::default());
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(workload.len()));
    let storm_start = Instant::now();
    let failed = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for worker in 0..args.connections {
            let workload = &workload;
            let tally_total = &tally_total;
            let latencies = &latencies;
            handles.push(scope.spawn(move || -> Result<(), String> {
                let mut client = RetryingClient::new(port, args.seed ^ ((worker as u64) << 32));
                let mut tally = ChaosTally::default();
                let mut local_latencies = Vec::new();
                for (i, item) in workload.iter().enumerate().skip(worker).step_by(args.connections)
                {
                    if let Some(micros) =
                        drive_request(&mut client, &item.line, i as u64, &mut tally)?
                    {
                        local_latencies.push(micros);
                    }
                }
                let mut total = tally_total.lock().unwrap();
                total.completed += tally.completed;
                total.lost += tally.lost;
                total.corrupted += tally.corrupted;
                total.retries += tally.retries;
                total.overloads_seen += tally.overloads_seen;
                total.internal_seen += tally.internal_seen;
                total.reconnects += tally.reconnects;
                latencies.lock().unwrap().extend(local_latencies);
                Ok(())
            }));
        }
        let mut failed = false;
        for handle in handles {
            if let Err(message) = handle.join().expect("chaos worker panicked") {
                eprintln!("service_loadgen: {message}");
                failed = true;
            }
        }
        failed
    });
    if failed {
        return ExitCode::FAILURE;
    }
    let storm_wall = storm_start.elapsed();
    let tally = tally_total.into_inner().unwrap();

    let mut micros = latencies.into_inner().unwrap();
    micros.sort_unstable();
    let percentile = |p: usize| -> f64 {
        if micros.is_empty() {
            0.0
        } else {
            micros[(micros.len() * p / 100).min(micros.len() - 1)] as f64 / 1000.0
        }
    };
    let (p50_ms, p99_ms) = (percentile(50), percentile(99));
    println!(
        "storm: {} completed | {} lost | {} corrupted | {} retries ({} sheds, {} internals, \
         {} reconnects) | p50 {:.2} ms | p99 {:.2} ms | wall {:.1} s",
        tally.completed,
        tally.lost,
        tally.corrupted,
        tally.retries,
        tally.overloads_seen,
        tally.internal_seen,
        tally.reconnects,
        p50_ms,
        p99_ms,
        storm_wall.as_secs_f64(),
    );

    // Recovery phase: disarm every fault; a fresh batch must pass cleanly
    // on the first attempt, no retries allowed.
    plan.arm(false);
    let recovery_size = 50.min(workload.len());
    let mut recovery_errors = 0u64;
    let mut recovery_client = RetryingClient::new(port, args.seed ^ 0x7EC0_4E41);
    for (i, item) in workload.iter().take(recovery_size).enumerate() {
        let id = 1_000_000 + i as u64;
        let request = format!("{},\"id\":{id}}}\n", item.line);
        match recovery_client.attempt(&request) {
            Ok(Some(response))
                if response.get("ok").and_then(Value::as_bool) == Some(true)
                    && response.get("id").and_then(Value::as_u64) == Some(id)
                    && response.get("verified").and_then(Value::as_bool) == Some(true) => {}
            other => {
                eprintln!("service_loadgen: recovery request {id} failed: {other:?}");
                recovery_errors += 1;
            }
        }
    }
    let recovered = recovery_errors == 0;
    println!(
        "recovery: {recovery_size} requests after disarming faults, {recovery_errors} errors — {}",
        if recovered { "full recovery" } else { "NOT recovered" }
    );

    let stats = match fetch_stats(port) {
        Ok(stats) => stats,
        Err(message) => {
            eprintln!("service_loadgen: {message}");
            return ExitCode::FAILURE;
        }
    };
    let robustness = robustness_snapshot(&stats);

    // Orderly shutdown of the in-process server.
    if let Ok(stream) = connect(port) {
        let mut writer = stream.try_clone().expect("clone stream");
        let _ = writer.write_all(b"{\"verb\":\"shutdown\"}\n");
        let _ = writer.flush();
        let mut line = String::new();
        let _ = BufReader::new(stream).read_line(&mut line);
    }
    match server_thread.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => {
            eprintln!("service_loadgen: chaos server failed: {e}");
            return ExitCode::FAILURE;
        }
        Err(_) => {
            eprintln!("service_loadgen: chaos server panicked");
            return ExitCode::FAILURE;
        }
    }

    let doc = Value::Object(vec![
        ("schema".into(), json::s("bidecomp-service-chaos-v1")),
        ("requests".into(), json::num(workload.len() as u64)),
        ("connections".into(), json::num(args.connections as u64)),
        ("num_vars".into(), json::num(args.num_vars as u64)),
        ("bases".into(), json::num(args.bases as u64)),
        ("repeat_ratio".into(), Value::Num(args.repeat_ratio)),
        (
            "faults".into(),
            Value::Object(vec![
                ("panic_per_mille".into(), json::num(40)),
                ("delay_per_mille".into(), json::num(60)),
                ("delay_ms".into(), json::num(20)),
                ("drop_per_mille".into(), json::num(25)),
            ]),
        ),
        ("completed".into(), json::num(tally.completed)),
        ("lost".into(), json::num(tally.lost)),
        ("corrupted".into(), json::num(tally.corrupted)),
        ("retries".into(), json::num(tally.retries)),
        ("overloads_seen".into(), json::num(tally.overloads_seen)),
        ("internal_seen".into(), json::num(tally.internal_seen)),
        ("reconnects".into(), json::num(tally.reconnects)),
        ("p50_ms".into(), Value::Num(round3(p50_ms))),
        ("p99_ms".into(), Value::Num(round3(p99_ms))),
        ("storm_wall_s".into(), Value::Num(round3(storm_wall.as_secs_f64()))),
        ("recovery_requests".into(), json::num(recovery_size as u64)),
        ("recovery_errors".into(), json::num(recovery_errors)),
        ("recovered".into(), Value::Bool(recovered)),
        ("server".into(), robustness),
    ]);
    if let Err(message) = write_artifact(
        &doc,
        &args.json_path,
        "BENCH_service_chaos_baseline.json",
        args.write_baseline,
    ) {
        eprintln!("{message}");
        return ExitCode::FAILURE;
    }

    if tally.lost > 0 || tally.corrupted > 0 || !recovered {
        eprintln!(
            "FAIL: chaos run lost {} / corrupted {} responses, recovered = {recovered}",
            tally.lost, tally.corrupted
        );
        return ExitCode::FAILURE;
    }
    println!("chaos run clean: every response accounted for, verified, and the server recovered");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args = parse_args();
    if args.chaos {
        if args.json_path == "BENCH_service.json" {
            // Chaos gets its own artifact (and its own regress arm).
            args.json_path = "BENCH_service_chaos.json".to_string();
        }
        return run_chaos(&args);
    }
    let port = match resolve_port(&args) {
        Ok(port) => port,
        Err(message) => {
            eprintln!("service_loadgen: {message}");
            return ExitCode::FAILURE;
        }
    };

    let workload = build_workload(&args);
    let synth_count = workload.iter().filter(|w| w.synthesize).count();
    println!(
        "== service load generator: {} requests ({} synthesize / {} decompose), \
         {} vars, {} bases, repeat ratio {:.2}, {} connections ==",
        workload.len(),
        synth_count,
        workload.len() - synth_count,
        args.num_vars,
        args.bases,
        args.repeat_ratio,
        args.connections,
    );

    let npn = match npn_arm(&workload) {
        Ok(arm) => arm,
        Err(message) => {
            eprintln!("FAIL: {message}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "npn canonicalize on {} workload functions, identical canonical forms: word {:.1} ms, \
         per-minterm {:.1} ms (speedup {:.2}x)",
        npn.items,
        npn.fast_micros as f64 / 1000.0,
        npn.oracle_micros as f64 / 1000.0,
        npn.speedup(),
    );

    let run = |label: &str, no_cache: bool| -> Result<ArmResult, String> {
        let arm = run_arm(port, &args, &workload, no_cache)?;
        println!(
            "{label:>6}: {:8.1} req/s | p50 {:7.2} ms | p99 {:7.2} ms | wall {:8.1} ms | \
             hits {} | errors {}",
            arm.rps, arm.p50_ms, arm.p99_ms, arm.wall_ms, arm.hits, arm.errors,
        );
        Ok(arm)
    };
    let (cold, cached) = match run("cold", true).and_then(|c| Ok((c, run("cached", false)?))) {
        Ok(pair) => pair,
        Err(message) => {
            eprintln!("service_loadgen: {message}");
            return ExitCode::FAILURE;
        }
    };

    // The server's failure counters must all still be zero after a clean
    // happy-path run — the artifact records (and the gate pins) that.
    let robustness = match fetch_stats(port) {
        Ok(stats) => robustness_snapshot(&stats),
        Err(message) => {
            eprintln!("service_loadgen: {message}");
            return ExitCode::FAILURE;
        }
    };

    // With --scrape, also pull the server-side observability snapshot
    // (before shutdown — the registry dies with the server).
    let scrape = if args.scrape {
        match fetch_verb(port, "metrics").and_then(|metrics| scrape_block(&metrics)) {
            Ok(block) => Some(block),
            Err(message) => {
                eprintln!("service_loadgen: {message}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    if args.shutdown_server {
        if let Ok(stream) = connect(port) {
            let mut writer = stream.try_clone().expect("clone stream");
            let _ = writer.write_all(b"{\"verb\":\"shutdown\"}\n");
            let _ = writer.flush();
            let mut line = String::new();
            let _ = BufReader::new(stream).read_line(&mut line);
        }
    }

    let speedup = if cold.rps > 0.0 { cached.rps / cold.rps } else { 0.0 };
    let hit_rate = cached.hits as f64 / workload.len() as f64;
    println!(
        "cached arm: {:.2}x the cold arm's throughput, hit rate {:.1}%",
        speedup,
        hit_rate * 100.0
    );
    let errors = cold.errors + cached.errors;
    if errors > 0 {
        eprintln!("FAIL: {errors} responses were not ok/verified");
        return ExitCode::FAILURE;
    }
    if cold.hits != 0 {
        eprintln!("FAIL: the no_cache arm reported {} cache hits", cold.hits);
        return ExitCode::FAILURE;
    }

    let mut fields = vec![
        ("schema".into(), json::s("bidecomp-service-v1")),
        ("requests".into(), json::num(workload.len() as u64)),
        ("synthesize".into(), json::num(synth_count as u64)),
        ("decompose".into(), json::num((workload.len() - synth_count) as u64)),
        ("connections".into(), json::num(args.connections as u64)),
        ("num_vars".into(), json::num(args.num_vars as u64)),
        ("bases".into(), json::num(args.bases as u64)),
        ("repeat_ratio".into(), Value::Num(args.repeat_ratio)),
        ("errors".into(), json::num(errors)),
        ("cold".into(), Value::Object(arm_to_json(&cold))),
        ("cached".into(), Value::Object(arm_to_json(&cached))),
        ("hit_rate".into(), Value::Num(round3(hit_rate))),
        ("speedup".into(), Value::Num(round3(speedup))),
        ("robustness".into(), robustness),
        ("npn".into(), npn.to_json("functions", "word_ms", "per_minterm_ms")),
    ];
    if let Some(scrape) = scrape {
        fields.push(("scrape".into(), scrape));
    }
    let doc = Value::Object(fields);
    if let Err(message) =
        write_artifact(&doc, &args.json_path, "BENCH_service_baseline.json", args.write_baseline)
    {
        eprintln!("{message}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
