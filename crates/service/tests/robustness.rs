//! The full error taxonomy, end to end over real sockets: overload
//! shedding (which never touches the cache), deadlines, injected panics, slow
//! clients, over-long and deeply nested lines, signed hex tables, the
//! connection cap and a draining shutdown — each asserting the exact `error` string and that the
//! connection (or at least the server) survives — plus the configuration
//! `Server::bind` refuses.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use boolfunc::{Isf, TruthTable};
use service::json::Value;
use service::server::table_to_hex;
use service::{
    FaultPlan, Server, ServiceConfig, ERR_DEADLINE, ERR_INTERNAL, ERR_LINE_TOO_LONG,
    ERR_OVERLOADED, ERR_SHUTDOWN, MAX_CACHE_SHARDS,
};

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to the test server");
        let writer = stream.try_clone().expect("clone stream");
        Client { reader: BufReader::new(stream), writer }
    }

    fn send(&mut self, request: &str) {
        self.writer.write_all(request.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
    }

    fn recv(&mut self) -> Value {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response line");
        assert!(!line.is_empty(), "connection closed mid-conversation");
        Value::parse(line.trim()).expect("response is valid JSON")
    }

    fn roundtrip(&mut self, request: &str) -> Value {
        self.send(request);
        self.recv()
    }
}

fn start_server(config: ServiceConfig) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind an ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn str_field<'v>(doc: &'v Value, key: &str) -> &'v str {
    doc.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("missing {key} in {doc}"))
}

fn u64_field(doc: &Value, key: &str) -> u64 {
    doc.get(key).and_then(Value::as_u64).unwrap_or_else(|| panic!("missing {key} in {doc}"))
}

fn ok_field(doc: &Value) -> bool {
    doc.get("ok").and_then(Value::as_bool).unwrap_or_else(|| panic!("missing ok in {doc}"))
}

fn decompose_line(num_vars: usize, pattern: &[&str], seed: u64) -> String {
    let f = Isf::from_cover_str(num_vars, pattern, &[]).unwrap();
    format!(
        r#"{{"verb":"decompose","num_vars":{num_vars},"f_on":"{}","op":"AND","seed":{seed}}}"#,
        table_to_hex(f.on())
    )
}

fn synthesize_line(num_vars: usize, pattern: &[&str]) -> String {
    let f = Isf::from_cover_str(num_vars, pattern, &[]).unwrap();
    format!(r#"{{"verb":"synthesize","num_vars":{num_vars},"f_on":"{}"}}"#, table_to_hex(f.on()))
}

/// The `metrics` snapshot's value of one server counter.
fn metrics_counter(snapshot: &Value, name: &str) -> u64 {
    snapshot
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing counter {name} in {snapshot}"))
}

/// Admission control: with the queue full, synthesize and decompose shed
/// with `overloaded` + `retry_after_ms` — cached or not — and a shed does
/// no work: no canonicalization, no cache lookup, no compute.
#[test]
fn overload_sheds_without_touching_the_cache() {
    let plan = FaultPlan::new(11);
    let mut faults = plan.clone();
    faults.delay_per_mille = 1000; // every compute request sleeps…
    faults.delay_ms = 700; // …long enough to hold the queue full
    faults.arm(false); // but not while priming the cache
    let config = ServiceConfig {
        workers: 1,
        max_queue: 2,
        faults: Some(faults.clone()),
        ..ServiceConfig::default()
    };
    let (addr, handle) = start_server(config);

    // Prime the cache (no delays yet): one decompose, one synthesize, each
    // sent twice, since a first sighting is not admitted to the cache.
    let mut slow = Client::connect(addr);
    let cached_decompose = decompose_line(4, &["11-1", "-111"], 3);
    let cached_synthesize = synthesize_line(4, &["1-11", "-1-0"]);
    for line in [&cached_decompose, &cached_decompose, &cached_synthesize, &cached_synthesize] {
        assert!(ok_field(&slow.roundtrip(line)));
    }
    let before = slow.roundtrip(r#"{"verb":"metrics"}"#);

    // Storm: with delays armed and one worker, A occupies the worker and
    // B/C fill the depth-2 queue. They bypass the cache, so from here on
    // only the shed requests below could move the cache counters.
    faults.arm(true);
    let uncached = |line: String| format!(r#"{},"no_cache":true}}"#, &line[..line.len() - 1]);
    slow.send(&uncached(decompose_line(4, &["1--1"], 5)));
    std::thread::sleep(Duration::from_millis(150)); // let the worker claim A
    slow.send(&uncached(decompose_line(4, &["-11-"], 6)));
    slow.send(&uncached(decompose_line(4, &["0-01"], 7)));
    std::thread::sleep(Duration::from_millis(50));

    // A second connection hits the shed path while the queue is full.
    let mut probe = Client::connect(addr);
    let shed = probe.roundtrip(&format!(
        r#"{{"verb":"synthesize","num_vars":4,"f_on":"{}","id":"s-1"}}"#,
        table_to_hex(Isf::from_cover_str(4, &["10-0"], &[]).unwrap().on())
    ));
    assert!(!ok_field(&shed), "uncached synthesize must shed: {shed}");
    assert_eq!(str_field(&shed, "error"), ERR_OVERLOADED);
    assert!(u64_field(&shed, "retry_after_ms") >= 25);
    assert_eq!(str_field(&shed, "id"), "s-1", "the shed reply echoes the request id");

    let shed = probe.roundtrip(&decompose_line(4, &["01-0"], 9));
    assert!(!ok_field(&shed), "uncached decompose must shed at full depth: {shed}");
    assert_eq!(str_field(&shed, "error"), ERR_OVERLOADED);

    // A cached answer is no exception: the shed path never looks.
    let shed = probe.roundtrip(&cached_synthesize);
    assert!(!ok_field(&shed), "cached synthesize must shed too: {shed}");
    assert_eq!(str_field(&shed, "error"), ERR_OVERLOADED);
    let shed = probe.roundtrip(&cached_decompose);
    assert!(!ok_field(&shed), "cached decompose must shed too: {shed}");
    assert_eq!(str_field(&shed, "error"), ERR_OVERLOADED);

    // Recovery: disarm the delays, drain, and check the books.
    faults.arm(false);
    for label in ["A", "B", "C"] {
        let response = slow.recv();
        assert!(ok_field(&response), "in-flight request {label} lost: {response}");
    }
    let stats = probe.roundtrip(r#"{"verb":"stats"}"#);
    assert_eq!(u64_field(&stats, "sheds"), 4, "stats must count the sheds: {stats}");
    assert_eq!(u64_field(&stats, "panics"), 0);
    let after = probe.roundtrip(r#"{"verb":"metrics"}"#);
    for name in ["cache.hits", "cache.misses", "cache.not_admitted", "engine.canonicalize_nanos"] {
        assert_eq!(
            metrics_counter(&after, name),
            metrics_counter(&before, name),
            "{name} moved across the sheds"
        );
    }

    probe.roundtrip(r#"{"verb":"shutdown"}"#);
    drop(probe);
    drop(slow);
    handle.join().expect("server thread");
}

/// Deadlines: an already-expired deadline is caught at dequeue; a deadline
/// that expires during (injected) compute delay is caught before the
/// expensive verify step. Both answer exactly `deadline_exceeded`.
#[test]
fn deadlines_expire_at_dequeue_and_before_verify() {
    let mut faults = FaultPlan::new(23);
    faults.delay_per_mille = 1000;
    faults.delay_ms = 250;
    let config =
        ServiceConfig { workers: 1, faults: Some(faults.clone()), ..ServiceConfig::default() };
    let (addr, handle) = start_server(config);
    let mut client = Client::connect(addr);

    // Expired before it is even dequeued.
    let line = decompose_line(4, &["11-1"], 1);
    let expired = format!(r#"{},"deadline_ms":0,"id":7}}"#, &line[..line.len() - 1]);
    let response = client.roundtrip(&expired);
    assert!(!ok_field(&response));
    assert_eq!(str_field(&response, "error"), ERR_DEADLINE);
    assert_eq!(u64_field(&response, "id"), 7, "the deadline reply echoes the id");

    // A 100 ms budget survives dequeue but dies in the 250 ms injected
    // delay — caught before verification.
    let budgeted = format!(r#"{},"deadline_ms":100}}"#, &line[..line.len() - 1]);
    let response = client.roundtrip(&budgeted);
    assert!(!ok_field(&response));
    assert_eq!(str_field(&response, "error"), ERR_DEADLINE);

    // No deadline → the same request succeeds (just delayed).
    let response = client.roundtrip(&line);
    assert!(ok_field(&response), "undeadlined request must succeed: {response}");

    let stats = client.roundtrip(r#"{"verb":"stats"}"#);
    assert_eq!(u64_field(&stats, "timeouts"), 2, "both deadline paths counted: {stats}");

    client.roundtrip(r#"{"verb":"shutdown"}"#);
    drop(client);
    handle.join().expect("server thread");
}

/// Injected worker panics answer `internal`, are counted, and the worker is
/// rebuilt — the same connection then gets a correct answer.
#[test]
fn injected_panics_answer_internal_and_the_server_survives() {
    service::silence_injected_panics();
    let mut faults = FaultPlan::new(42);
    faults.panic_per_mille = 1000;
    let config =
        ServiceConfig { workers: 1, faults: Some(faults.clone()), ..ServiceConfig::default() };
    let (addr, handle) = start_server(config);
    let mut client = Client::connect(addr);

    let line = decompose_line(4, &["-111"], 2);
    let poisoned = format!(r#"{},"id":"boom"}}"#, &line[..line.len() - 1]);
    for _ in 0..3 {
        let response = client.roundtrip(&poisoned);
        assert!(!ok_field(&response));
        assert_eq!(str_field(&response, "error"), ERR_INTERNAL);
        assert_eq!(str_field(&response, "id"), "boom");
    }

    // Disarm: the rebuilt worker answers the very same request correctly.
    faults.arm(false);
    let response = client.roundtrip(&line);
    assert!(ok_field(&response), "server must recover after panics: {response}");
    assert!(response.get("verified").and_then(Value::as_bool).unwrap());

    let stats = client.roundtrip(r#"{"verb":"stats"}"#);
    assert_eq!(u64_field(&stats, "panics"), 3, "every injected panic counted: {stats}");

    client.roundtrip(r#"{"verb":"shutdown"}"#);
    drop(client);
    handle.join().expect("server thread");
}

/// A client that stalls mid-line is disconnected once the read timeout
/// fires, freeing its reader thread; the server keeps serving others.
#[test]
fn slow_clients_are_timed_out_not_tolerated() {
    let config = ServiceConfig { read_timeout_ms: 150, ..ServiceConfig::default() };
    let (addr, handle) = start_server(config);

    let mut slowloris = Client::connect(addr);
    slowloris.writer.write_all(br#"{"verb":"#).unwrap(); // never finishes the line
    slowloris.writer.flush().unwrap();
    std::thread::sleep(Duration::from_millis(500));
    let mut line = String::new();
    let n = slowloris.reader.read_line(&mut line).unwrap_or(0);
    assert_eq!(n, 0, "the server must close a stalled connection, got {line:?}");

    let mut client = Client::connect(addr);
    let stats = client.roundtrip(r#"{"verb":"stats"}"#);
    assert!(ok_field(&stats), "the server must survive a slow client: {stats}");
    assert_eq!(u64_field(&stats, "slow_clients"), 1);

    client.roundtrip(r#"{"verb":"shutdown"}"#);
    drop(client);
    handle.join().expect("server thread");
}

/// A request line over `max_line_bytes` is answered with the exact error
/// and the connection closed — bounded memory no matter what arrives.
#[test]
fn overlong_lines_are_rejected_with_bounded_memory() {
    let config = ServiceConfig { max_line_bytes: 1024, ..ServiceConfig::default() };
    let (addr, handle) = start_server(config);

    let mut hostile = Client::connect(addr);
    hostile.writer.write_all(&vec![b'x'; 64 * 1024]).unwrap();
    hostile.writer.write_all(b"\n").unwrap();
    hostile.writer.flush().unwrap();
    let response = hostile.recv();
    assert!(!ok_field(&response));
    assert_eq!(str_field(&response, "error"), ERR_LINE_TOO_LONG);
    let mut rest = String::new();
    let n = hostile.reader.read_line(&mut rest).unwrap_or(0);
    assert_eq!(n, 0, "the connection must close after an over-long line");

    let mut client = Client::connect(addr);
    let stats = client.roundtrip(r#"{"verb":"stats"}"#);
    assert_eq!(u64_field(&stats, "line_overflows"), 1);

    client.roundtrip(r#"{"verb":"shutdown"}"#);
    drop(client);
    handle.join().expect("server thread");
}

/// A line of 64 KiB of nested brackets (well under `max_line_bytes`) is a
/// protocol error, not a stack overflow: the parser caps nesting, and the
/// same connection keeps being served.
#[test]
fn deeply_nested_json_is_a_protocol_error() {
    let (addr, handle) = start_server(ServiceConfig::default());
    let mut client = Client::connect(addr);

    let response = client.roundtrip(&"[".repeat(64 * 1024));
    assert!(!ok_field(&response));
    assert!(str_field(&response, "error").starts_with("bad JSON"), "{response}");

    let stats = client.roundtrip(r#"{"verb":"stats"}"#);
    assert!(ok_field(&stats), "the connection must survive: {stats}");
    assert_eq!(u64_field(&stats, "errors"), 1, "{stats}");
    assert_eq!(u64_field(&stats, "panics"), 0, "{stats}");

    client.roundtrip(r#"{"verb":"shutdown"}"#);
    drop(client);
    handle.join().expect("server thread");
}

/// A signed hex word is a protocol error, not a table: `u64::from_str_radix`
/// accepts a leading `+`, so the parser must reject it before parsing.
#[test]
fn signed_hex_tables_are_rejected() {
    let (addr, handle) = start_server(ServiceConfig::default());
    let mut client = Client::connect(addr);

    for verb in ["synthesize", "decompose"] {
        let request = format!(
            r#"{{"verb":"{verb}","num_vars":4,"f_on":"+000000000000001","no_cache":true}}"#
        );
        let response = client.roundtrip(&request);
        assert!(!ok_field(&response), "{verb} served a signed table: {response}");
        let error = str_field(&response, "error");
        assert_eq!(error, "table hex must be hex digits only (0-9, a-f, A-F)", "{response}");
    }

    let stats = client.roundtrip(r#"{"verb":"stats"}"#);
    assert!(ok_field(&stats), "the connection must survive: {stats}");
    assert_eq!(u64_field(&stats, "errors"), 2, "{stats}");

    client.roundtrip(r#"{"verb":"shutdown"}"#);
    drop(client);
    handle.join().expect("server thread");
}

/// Over the connection cap, a new connection gets one `overloaded` line and
/// is closed; accepted connections are unaffected.
#[test]
fn excess_connections_are_rejected_with_a_retry_hint() {
    let config = ServiceConfig { max_connections: 1, ..ServiceConfig::default() };
    let (addr, handle) = start_server(config);

    let mut keeper = Client::connect(addr);
    // Make sure the first connection is accepted (and counted) before the
    // second one arrives.
    assert!(ok_field(&keeper.roundtrip(r#"{"verb":"stats"}"#)));

    let mut rejected = Client::connect(addr);
    let response = rejected.recv();
    assert!(!ok_field(&response));
    assert_eq!(str_field(&response, "error"), ERR_OVERLOADED);
    assert!(u64_field(&response, "retry_after_ms") >= 25);
    let mut rest = String::new();
    assert_eq!(rejected.reader.read_line(&mut rest).unwrap_or(0), 0, "then closed");

    let stats = keeper.roundtrip(r#"{"verb":"stats"}"#);
    assert_eq!(u64_field(&stats, "rejected_connections"), 1);
    assert!(ok_field(&stats), "the accepted connection keeps working");

    keeper.roundtrip(r#"{"verb":"shutdown"}"#);
    drop(keeper);
    handle.join().expect("server thread");
}

/// Shutdown drains in-flight requests under the drain deadline; whatever
/// cannot be drained in time — and anything sent after shutdown — is
/// answered `server is shutting down`, and `run()` still returns cleanly.
#[test]
fn shutdown_drains_under_a_deadline() {
    let mut faults = FaultPlan::new(77);
    faults.delay_per_mille = 1000;
    faults.delay_ms = 300;
    let config = ServiceConfig {
        workers: 1,
        drain_deadline_ms: 50,
        faults: Some(faults.clone()),
        ..ServiceConfig::default()
    };
    let (addr, handle) = start_server(config);
    let mut client = Client::connect(addr);

    // One burst: A (claimed, slow), shutdown, then B and C queued behind it.
    let a = decompose_line(4, &["11-1"], 1);
    let b = decompose_line(4, &["1-1-"], 2);
    let c = decompose_line(4, &["-0-1"], 3);
    let burst = format!("{a}\n{{\"verb\":\"shutdown\"}}\n{b}\n{c}\n");
    client.writer.write_all(burst.as_bytes()).unwrap();
    client.writer.flush().unwrap();

    let response = client.recv();
    assert!(ok_field(&response), "in-flight A must complete: {response}");
    let ack = client.recv();
    assert!(ok_field(&ack));
    assert_eq!(str_field(&ack, "verb"), "shutdown");
    // B may squeak in under the 50 ms drain deadline or be flushed; C is
    // 300 ms of injected delay behind it and must be flushed.
    let b_response = client.recv();
    if !ok_field(&b_response) {
        assert_eq!(str_field(&b_response, "error"), ERR_SHUTDOWN);
    }
    let c_response = client.recv();
    assert!(!ok_field(&c_response), "C cannot beat the drain deadline: {c_response}");
    assert_eq!(str_field(&c_response, "error"), ERR_SHUTDOWN);

    // Anything after shutdown is refused at admission.
    let late = client.roundtrip(&decompose_line(4, &["10--"], 4));
    assert!(!ok_field(&late));
    assert_eq!(str_field(&late, "error"), ERR_SHUTDOWN);

    drop(client);
    handle.join().expect("run() returns cleanly after a draining shutdown");
}

/// `max_vars` outside `1..=TruthTable::MAX_VARS` is a configuration error at
/// bind (no request of that arity could ever fit a truth table), never a
/// panic; the bounds themselves are accepted.
#[test]
fn out_of_range_max_vars_is_refused_at_bind() {
    let bind = |max_vars| {
        Server::bind("127.0.0.1:0", ServiceConfig { max_vars, ..ServiceConfig::default() })
    };
    for max_vars in [0, TruthTable::MAX_VARS + 1, 63, 64, usize::MAX] {
        let err = bind(max_vars).err().unwrap_or_else(|| panic!("max_vars {max_vars} accepted"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "max_vars {max_vars}: {err}");
        assert!(err.to_string().contains("max_vars"), "unhelpful error: {err}");
    }
    for max_vars in [1, TruthTable::MAX_VARS] {
        assert!(bind(max_vars).is_ok(), "max_vars {max_vars} must be accepted");
    }
}

/// More cache stripes than cache entries, or than `MAX_CACHE_SHARDS`, are
/// refused at bind: a huge stripe count used to abort on allocation (also
/// with a capacity just as huge, `2^41` of each), and `usize::MAX`
/// overflowed the power-of-two rounding. A stripe count equal to the
/// capacity is accepted up to `MAX_CACHE_SHARDS`, and so is any stripe count
/// while the cache is off.
#[test]
fn cache_shards_beyond_the_capacity_are_refused_at_bind() {
    let bind = |cache_capacity, cache_shards| {
        let config = ServiceConfig { cache_capacity, cache_shards, ..ServiceConfig::default() };
        Server::bind("127.0.0.1:0", config)
    };
    for cache_shards in [65, 1 << 40, usize::MAX] {
        let err = bind(64, cache_shards)
            .err()
            .unwrap_or_else(|| panic!("cache_shards {cache_shards} accepted"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "shards {cache_shards}: {err}");
        assert!(err.to_string().contains("cache_shards"), "unhelpful error: {err}");
    }
    for shards in [MAX_CACHE_SHARDS + 1, 1 << 41] {
        let err = bind(shards, shards).err().unwrap_or_else(|| panic!("{shards} stripes accepted"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "shards {shards}: {err}");
        assert!(err.to_string().contains("cache_shards"), "unhelpful error: {err}");
    }
    assert!(bind(64, 64).is_ok(), "cache_shards equal to the capacity must be accepted");
    let ceiling = bind(MAX_CACHE_SHARDS, MAX_CACHE_SHARDS);
    assert!(ceiling.is_ok(), "MAX_CACHE_SHARDS stripes must be accepted");
    assert!(bind(0, usize::MAX).is_ok(), "a disabled cache has no stripes to refuse");
}
