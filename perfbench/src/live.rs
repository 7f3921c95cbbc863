//! `service-cold`: an in-process `service::Server` with the default
//! configuration and one worker per core, driven over localhost TCP by one
//! generator over at most two connections that pipeline requests; replies
//! are matched to requests by the `id` echo.
//!
//! Every request is a never-seen function, so every request misses the
//! cache and inserts. The server is kept saturated: [`WINDOW`] requests stay
//! in flight per connection, each reply releasing the next, in [`SEGMENTS`]
//! segments, the host's speed sampled through each. Requests are generated
//! from the seed as they are sent, and each reply is judged and cut down to
//! the few fields the checks read as it arrives, so the client's own memory
//! stays small next to the server's.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc::{channel, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use benchmarks::DetRng;
use bidecomp::engine::seeded_divisor;
use bidecomp::{BinaryOp, Oracle};
use boolfunc::{Isf, TruthTable};
use service::json::Value;
use service::server::{table_from_hex, table_to_hex};
use service::{Server, ServiceConfig};

use crate::calib;

/// Latency limit in milliseconds: a correct reply slower than this, at
/// nominal host speed, missed its deadline and counts as failed.
pub const LIMIT_MS: f64 = 2000.0;
/// Arities drawn in equal shares.
const ARITIES: [usize; 4] = [9, 10, 11, 12];
/// Requests in flight per connection.
const WINDOW: usize = 4;
/// The run is sent in this many segments, each with its own slowdown; the
/// figures are medians over them. With slowdowns from bracketing
/// calibrations, nine segments instead of three cut the spread of the p50
/// from 0.12 to 0.02 and of the throughput from 0.17 to 0.04 in five paired
/// runs.
pub const SEGMENTS: usize = 9;
/// Batches of `Server::bind` timed during setup; the median is reported.
const SETUPS: usize = 51;
/// Binds per batch. One takes tens of microseconds, so a batch takes about
/// a millisecond.
const SETUP_BATCH: usize = 20;
/// Reference iterations timed beside each batch: 1 ms at nominal speed.
const SETUP_REFERENCE: u64 = 200_000;
/// Share of `decompose` requests that ask for the quotient tables, which
/// the SAT judge then re-checks.
const TABLES_SHARE: f64 = 0.25;
/// At most this many returned quotients are re-judged per run.
const ORACLE_SAMPLE: usize = 8;
/// Failed replies quoted in the errors; the rest are only counted.
const QUOTED_FAILURES: usize = 5;
/// Peak memory is read when this many replies are in. The server's cache
/// grows with every request served, so a read at the end would follow how
/// fast the host ran.
const RSS_AFTER_REPLIES: usize = 1500;
/// Concurrent client connections (each pipelines its requests).
const MAX_CONNECTIONS: usize = 2;
/// How long a reply may take to arrive.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// What a request asks for.
#[derive(Debug, Clone)]
pub enum Kind {
    /// `synthesize`.
    Synthesize,
    /// `decompose` with an explicit divisor.
    Decompose {
        /// The divisor sent with the request.
        g: TruthTable,
        /// The operator.
        op: BinaryOp,
        /// Whether the reply carries the quotient tables.
        tables: bool,
    },
}

/// One generated request and its wire line.
#[derive(Debug, Clone)]
pub struct Request {
    /// The `id` echoed by the server.
    pub id: u64,
    /// The function the request carries.
    pub f: Isf,
    /// Verb and verb-specific payload.
    pub kind: Kind,
    /// The request line, newline included.
    pub line: String,
}

/// A seeded random on/dc cover pair: eight 2–3-literal on-cubes and two
/// dc-cubes, the structured functions a synthesis campaign sees.
fn random_isf(rng: &mut DetRng, num_vars: usize) -> Isf {
    let cube = |rng: &mut DetRng| -> String {
        let mut chars = vec!['-'; num_vars];
        for _ in 0..2 + rng.gen_range(0..2) {
            chars[rng.gen_range(0..num_vars)] = if rng.next_u64() & 1 == 0 { '0' } else { '1' };
        }
        chars.into_iter().collect()
    };
    let on: Vec<String> = (0..8).map(|_| cube(rng)).collect();
    let dc: Vec<String> = (0..2).map(|_| cube(rng)).collect();
    let on: Vec<&str> = on.iter().map(String::as_str).collect();
    let dc: Vec<&str> = dc.iter().map(String::as_str).collect();
    Isf::from_cover_str(num_vars, &on, &dc).expect("generated cubes are well-formed")
}

fn request(id: u64, f: Isf, kind: Kind) -> Request {
    let n = f.num_vars();
    let (on, dc) = (table_to_hex(f.on()), table_to_hex(f.dc()));
    let line = match &kind {
        Kind::Synthesize => format!(
            r#"{{"verb":"synthesize","num_vars":{n},"f_on":"{on}","f_dc":"{dc}","id":{id}}}"#
        ),
        Kind::Decompose { g, op, tables } => format!(
            r#"{{"verb":"decompose","num_vars":{n},"f_on":"{on}","f_dc":"{dc}","op":"{}","g":"{}","tables":{tables},"id":{id}}}"#,
            op.symbol(),
            table_to_hex(g),
        ),
    };
    Request { id, f, kind, line: line + "\n" }
}

/// The run's request stream, generated from the seed one request at a time.
/// Requests come in shuffled blocks of twenty: sixteen `synthesize` and
/// four `decompose`, each arity in equal shares, so every stretch of the
/// stream has the same mix whatever the seed. Ids count up from 1.
#[derive(Debug)]
pub struct Generator {
    rng: DetRng,
    block: Vec<(bool, usize)>,
    last_id: u64,
    hash: u64,
}

impl Generator {
    /// The stream of `seed`.
    pub fn new(seed: u64) -> Generator {
        Generator {
            rng: DetRng::seed_from_u64(seed ^ 0xB1DE_5EED_0000_0001),
            block: Vec::new(),
            last_id: 0,
            hash: 0xCBF2_9CE4_8422_2325,
        }
    }

    /// FNV-1a of every request line generated so far.
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

impl Iterator for Generator {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let rng = &mut self.rng;
        if self.block.is_empty() {
            self.block = (0..20).map(|slot| (slot % 5 == 4, ARITIES[(slot / 5) % 4])).collect();
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, rng.gen_range(0..i + 1));
            }
        }
        let (decompose, arity) = self.block.pop()?;
        let tables = decompose && rng.gen_bool(TABLES_SHARE);
        let f = random_isf(rng, arity);
        let kind = if decompose {
            let op = BinaryOp::all()[rng.gen_range(0..10)];
            let g = seeded_divisor(&f, op, rng.next_u64());
            Kind::Decompose { g, op, tables }
        } else {
            Kind::Synthesize
        };
        self.last_id += 1;
        let r = request(self.last_id, f, kind);
        for byte in r.line.bytes() {
            self.hash ^= u64::from(byte);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Some(r)
    }
}

/// The reply fields the quality sums and the traced replay read. The reply
/// line itself is dropped once judged.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Reply {
    pub ok: Option<bool>,
    pub verified: Option<bool>,
    pub maximal: Option<bool>,
    pub gates: Option<u64>,
    pub depth: Option<u64>,
    pub branches: Option<u64>,
    pub mapped_area: Option<f64>,
    pub flat_area: Option<f64>,
    pub on_minterms: Option<u64>,
    pub dc_minterms: Option<u64>,
    pub off_minterms: Option<u64>,
    /// The `cache` field: `Some(true)` for `"hit"`, `Some(false)` for
    /// `"miss"`.
    pub hit: Option<bool>,
}

impl Reply {
    fn of(v: &Value) -> Reply {
        let flag = |key: &str| v.get(key).and_then(Value::as_bool);
        let num = |key: &str| v.get(key).and_then(Value::as_u64);
        let real = |key: &str| v.get(key).and_then(Value::as_f64);
        Reply {
            ok: flag("ok"),
            verified: flag("verified"),
            maximal: flag("maximal"),
            gates: num("gates"),
            depth: num("depth"),
            branches: num("branches"),
            mapped_area: real("mapped_area"),
            flat_area: real("flat_area"),
            on_minterms: num("on_minterms"),
            dc_minterms: num("dc_minterms"),
            off_minterms: num("off_minterms"),
            hit: match v.get("cache").and_then(Value::as_str) {
                Some("hit") => Some(true),
                Some("miss") => Some(false),
                _ => None,
            },
        }
    }
}

/// Judges a reply by the protocol alone; unknown fields are ignored, except
/// that a `truncated` reply is a failure.
fn content_ok(request: &Request, reply: &Value) -> bool {
    let flag = |key: &str| reply.get(key).and_then(Value::as_bool);
    let base = flag("ok") == Some(true)
        && flag("verified") == Some(true)
        && flag("truncated") != Some(true);
    match request.kind {
        Kind::Synthesize => base,
        Kind::Decompose { .. } => base && flag("maximal") == Some(true),
    }
}

/// One reply, matched to its request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The request's id.
    pub id: u64,
    /// Whether the request was a `decompose`.
    pub decompose: bool,
    /// From the send to the reply's arrival.
    pub latency_ms: f64,
    /// `ok`, `verified`, `maximal` (decompose) and not `truncated`.
    pub content_ok: bool,
    /// What the reply said.
    pub reply: Reply,
}

/// One closed-loop segment.
#[derive(Debug, Clone)]
pub struct Segment {
    /// One sample per request, in arrival order.
    pub samples: Vec<Sample>,
    /// From the first send to the last arrival.
    pub wall_s: f64,
    /// How much slower than nominal the host ran.
    pub slowdown: f64,
}

impl Segment {
    /// Each reply's latency at nominal host speed, in arrival order; a
    /// failed reply counts as infinitely late.
    pub fn counted_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.samples.iter().map(|s| {
            if s.content_ok {
                s.latency_ms / self.slowdown
            } else {
                f64::INFINITY
            }
        })
    }

    /// Replies that were wrong or later than [`LIMIT_MS`].
    pub fn failed(&self) -> usize {
        self.counted_ms().filter(|&ms| ms > LIMIT_MS).count()
    }

    /// Correct replies per second at nominal host speed.
    pub fn throughput(&self) -> f64 {
        let ok = self.samples.iter().filter(|s| s.content_ok).count();
        ok as f64 * self.slowdown / self.wall_s
    }
}

/// What the output checks keep while the run goes on.
#[derive(Debug, Default)]
struct Checks {
    /// Up to [`ORACLE_SAMPLE`] correct `decompose` replies with quotient
    /// tables, with their requests, re-judged once the run ends.
    quotients: Vec<(Request, Value)>,
    /// Problems found.
    errors: Vec<String>,
    /// Replies that were not correct answers.
    content_failures: usize,
    /// Replies judged.
    replies: usize,
    /// Peak resident memory once [`RSS_AFTER_REPLIES`] replies were in.
    peak_rss_mb: Option<f64>,
}

impl Checks {
    fn judge(&mut self, request: Request, reply: Value, latency_ms: f64) -> Sample {
        self.replies += 1;
        if self.replies == RSS_AFTER_REPLIES {
            self.peak_rss_mb = Some(crate::peak_rss_mb());
        }
        let ok = content_ok(&request, &reply);
        if !ok {
            self.content_failures += 1;
            if self.content_failures <= QUOTED_FAILURES {
                self.errors.push(format!("request {} failed: {reply}", request.id));
            }
        }
        let sample = Sample {
            id: request.id,
            decompose: matches!(request.kind, Kind::Decompose { .. }),
            latency_ms,
            content_ok: ok,
            reply: Reply::of(&reply),
        };
        let tables = matches!(request.kind, Kind::Decompose { tables: true, .. });
        if ok && tables && self.quotients.len() < ORACLE_SAMPLE {
            self.quotients.push((request, reply));
        }
        sample
    }
}

/// The client side: pipelining writers and one reader thread per
/// connection. The readers only timestamp lines.
struct Client {
    writers: Vec<TcpStream>,
    replies: Receiver<(Instant, String)>,
    readers: Vec<JoinHandle<()>>,
}

impl Client {
    fn connect(addr: SocketAddr, connections: usize) -> io::Result<Client> {
        let (tx, replies) = channel();
        let mut writers = Vec::new();
        let mut readers = Vec::new();
        for _ in 0..connections {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            let mut reader = BufReader::new(stream.try_clone()?);
            let tx = tx.clone();
            readers.push(std::thread::spawn(move || loop {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        if tx.send((Instant::now(), line)).is_err() {
                            break;
                        }
                    }
                }
            }));
            writers.push(stream);
        }
        Ok(Client { writers, replies, readers })
    }

    /// Keeps [`WINDOW`] requests in flight per connection, sending the next
    /// request from `requests` as each reply arrives, until `budget` has
    /// passed; then waits for the last replies. Each reply is judged as it
    /// arrives.
    fn closed_loop(
        &mut self,
        requests: &mut Generator,
        budget: Duration,
        checks: &mut Checks,
    ) -> Result<Segment, String> {
        let start = Instant::now();
        let mut pending: HashMap<u64, (Instant, Request)> = HashMap::new();
        let mut samples = Vec::new();
        let mut sent = 0usize;
        let window = WINDOW * self.writers.len();
        let mut send = |pending: &mut HashMap<u64, (Instant, Request)>| -> Result<(), String> {
            let r = requests.next().expect("the stream is endless");
            let connection = sent % self.writers.len();
            sent += 1;
            let now = Instant::now();
            self.writers[connection].write_all(r.line.as_bytes()).map_err(|e| e.to_string())?;
            pending.insert(r.id, (now, r));
            Ok(())
        };
        for _ in 0..window {
            send(&mut pending)?;
        }
        let mut last = start;
        while !pending.is_empty() {
            let (at, line) = self.replies.recv_timeout(REPLY_TIMEOUT).map_err(|_| {
                format!("{} replies did not arrive within {REPLY_TIMEOUT:?}", pending.len())
            })?;
            let reply = Value::parse(line.trim()).map_err(|e| format!("unparsable reply: {e}"))?;
            let id = reply.get("id").and_then(Value::as_u64);
            let (sent_at, request) = id
                .and_then(|id| pending.remove(&id))
                .ok_or_else(|| format!("reply without a pending id: {}", line.trim()))?;
            if start.elapsed() < budget {
                send(&mut pending)?;
            }
            let latency_ms = at.saturating_duration_since(sent_at).as_secs_f64() * 1e3;
            samples.push(checks.judge(request, reply, latency_ms));
            last = last.max(at);
        }
        let wall_s = last.saturating_duration_since(start).as_secs_f64();
        Ok(Segment { samples, wall_s, slowdown: 1.0 })
    }

    /// Half-closes every connection and waits for the readers to see the
    /// server close its side.
    fn close(self) {
        for writer in &self.writers {
            let _ = writer.shutdown(Shutdown::Write);
        }
        for reader in self.readers {
            let _ = reader.join();
        }
    }
}

/// A running server plus its connected client.
struct Live {
    addr: SocketAddr,
    server: JoinHandle<io::Result<()>>,
    client: Client,
}

impl Live {
    fn start(server: Server, workers: usize) -> Result<Live, String> {
        let addr = server.local_addr().map_err(|e| format!("local_addr: {e}"))?;
        let server = std::thread::spawn(move || server.run());
        let client = Client::connect(addr, workers.clamp(1, MAX_CONNECTIONS))
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Live { addr, server, client })
    }

    /// Closes the client, shuts the server down and waits for it to exit.
    fn stop(self) -> Result<(), String> {
        let Live { addr, server, client } = self;
        client.close();
        round_trip(addr, "shutdown")?;
        match server.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server failed: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }
}

/// One `{"verb":...}` round trip on a fresh connection.
fn round_trip(addr: SocketAddr, verb: &str) -> Result<Value, String> {
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    writer.write_all(format!("{{\"verb\":\"{verb}\"}}\n").as_bytes()).map_err(|e| e.to_string())?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).map_err(|e| e.to_string())?;
    Value::parse(line.trim()).map_err(|e| format!("{verb} reply: {e}"))
}

/// A finished run: its setup time, the segments sent, the server's own
/// counters and the checks' verdicts.
#[derive(Debug)]
pub struct Run {
    /// Median `Server::bind` wall at nominal host speed, in seconds.
    pub setup_s: f64,
    /// The segments, in order.
    pub segments: Vec<Segment>,
    /// FNV-1a of every request line sent.
    pub hash: u64,
    /// The `stats` reply after the last segment.
    pub server_stats: Value,
    /// Problems found by the output checks.
    pub errors: Vec<String>,
    /// Quotients re-judged by the SAT oracle.
    pub oracle_checked: usize,
    /// Peak resident memory once [`RSS_AFTER_REPLIES`] replies were in.
    pub peak_rss_mb: f64,
}

/// Runs `service-cold`. Setup is the program's own start-up, `Server::bind`
/// (listener, metrics registry, NPN cache, shared BDD store), timed in
/// [`SETUPS`] batches against the single-thread reference; the last server
/// is kept and serves the segments.
pub fn run(seed: u64, seconds: f64) -> Result<Run, String> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = ServiceConfig { workers, ..ServiceConfig::default() };
    let (setup_s, server) =
        calib::Reference::new(SETUP_REFERENCE).time(SETUPS, SETUP_BATCH, || {
            Server::bind("127.0.0.1:0", config.clone()).map_err(|e| format!("bind: {e}"))
        });
    let mut live = Live::start(server?, workers)?;
    let mut requests = Generator::new(seed);
    let mut checks = Checks::default();
    let mut segments = Vec::with_capacity(SEGMENTS);
    let budget = Duration::from_secs_f64(seconds / SEGMENTS as f64);
    for _ in 0..SEGMENTS {
        let (segment, slowdown) =
            calib::monitored(|| live.client.closed_loop(&mut requests, budget, &mut checks));
        segments.push(Segment { slowdown, ..segment? });
    }
    // A run too short to reach the count reads the peak at its end.
    let peak_rss_mb = checks.peak_rss_mb.unwrap_or_else(crate::peak_rss_mb);
    let server_stats = round_trip(live.addr, "stats")?;
    live.stop()?;

    let Checks { quotients, mut errors, content_failures, .. } = checks;
    if content_failures > QUOTED_FAILURES {
        errors.push(format!("{content_failures} replies failed in all"));
    }
    for (request, reply) in &quotients {
        if let Err(e) = judge_quotient(request, reply) {
            errors.push(format!("request {}: quotient rejected: {e}", request.id));
        }
    }
    Ok(Run {
        setup_s,
        segments,
        hash: requests.hash(),
        server_stats,
        errors,
        oracle_checked: quotients.len(),
        peak_rss_mb,
    })
}

/// Re-judges a returned quotient with the SAT oracle, which shares no code
/// with the dense quotient under test.
fn judge_quotient(request: &Request, reply: &Value) -> Result<(), String> {
    let Kind::Decompose { g, op, .. } = &request.kind else {
        return Err("not a decompose request".into());
    };
    let n = request.f.num_vars();
    let table = |key: &str| {
        reply
            .get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("reply without {key}"))
            .and_then(|hex| table_from_hex(hex, n))
    };
    let h = Isf::new(table("h_on")?, table("h_dc")?).map_err(|e| e.to_string())?;
    if reply.get("on_minterms").and_then(Value::as_u64) != Some(h.on().count_ones()) {
        return Err("on_minterms disagrees with h_on".into());
    }
    Oracle::check(&request.f, g, &h, *op).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_a_byte_identical_stream() {
        let lines = |seed: u64| -> (Vec<String>, u64) {
            let mut g = Generator::new(seed);
            let lines = g.by_ref().take(60).map(|r| r.line).collect();
            (lines, g.hash())
        };
        let (a, hash_a) = lines(42);
        let (b, hash_b) = lines(42);
        assert_eq!(a, b);
        assert_eq!(hash_a, hash_b);
        let (_, hash_c) = lines(43);
        assert_ne!(hash_a, hash_c, "another seed gives another stream");
    }

    #[test]
    fn blocks_fix_the_request_mix() {
        let first: Vec<Request> = Generator::new(7).take(20).collect();
        let decompose = first.iter().filter(|r| matches!(r.kind, Kind::Decompose { .. })).count();
        assert_eq!(decompose, 4);
        for n in ARITIES {
            assert_eq!(first.iter().filter(|r| r.f.num_vars() == n).count(), 5, "arity {n}");
        }
        let ids: Vec<u64> = first.iter().map(|r| r.id).collect();
        assert_eq!(ids, (1..=20).collect::<Vec<u64>>());
    }
}
