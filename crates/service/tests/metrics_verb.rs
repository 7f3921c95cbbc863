//! Round trip of the `metrics` verb: the versioned observability snapshot
//! over a real connection — shape stability on an idle server, counter and
//! histogram movement under traffic, and the registry handle exposed to
//! embedders for shutdown dumps.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use boolfunc::{Isf, TruthTable};
use service::json::Value;
use service::server::table_to_hex;
use service::{registry_snapshot_value, Server, ServiceConfig};

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

    fn roundtrip(&mut self, request: &str) -> Value {
        self.writer.write_all(request.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response line");
        Value::parse(line.trim()).expect("response is valid JSON")
    }
}

fn counter(snapshot: &Value, name: &str) -> u64 {
    snapshot
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing counter {name} in {snapshot}"))
}

fn counter_names(snapshot: &Value) -> Vec<String> {
    match snapshot.get("counters") {
        Some(Value::Object(fields)) => fields.iter().map(|(name, _)| name.clone()).collect(),
        other => panic!("counters must be an object, got {other:?}"),
    }
}

fn histogram<'v>(snapshot: &'v Value, name: &str) -> &'v Value {
    snapshot
        .get("histograms")
        .and_then(|h| h.get(name))
        .unwrap_or_else(|| panic!("missing histogram {name} in {snapshot}"))
}

fn u64_field(doc: &Value, key: &str) -> u64 {
    doc.get(key).and_then(Value::as_u64).unwrap_or_else(|| panic!("missing {key} in {doc}"))
}

fn f64_field(doc: &Value, key: &str) -> f64 {
    match doc.get(key) {
        Some(Value::Num(n)) => *n,
        other => panic!("missing numeric {key}, got {other:?}"),
    }
}

#[test]
fn metrics_verb_round_trips_and_counts() {
    let server = Server::bind("127.0.0.1:0", ServiceConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let registry = server.registry();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    let mut client = Client::connect(addr);

    // Idle snapshot: the schema is versioned and the full name set is
    // pre-registered — an idle server reports the same shape as a busy one.
    let idle = client.roundtrip(r#"{"verb":"metrics"}"#);
    assert_eq!(idle.get("ok"), Some(&Value::Bool(true)));
    assert_eq!(idle.get("verb").and_then(Value::as_str), Some("metrics"));
    assert_eq!(idle.get("schema").and_then(Value::as_str), Some("bidecomp-metrics-v1"));
    let idle_names = counter_names(&idle);
    for name in [
        "server.decompose",
        "server.synthesize",
        "server.stats_requests",
        "server.metrics_requests",
        "server.errors",
        "server.sheds",
        "server.timeouts",
        "server.panics",
        "server.rejected_connections",
        "server.slow_clients",
        "server.line_overflows",
        "engine.quotient_nanos",
        "engine.verify_nanos",
        "engine.synthesis_nanos",
        "engine.canonicalize_nanos",
        "engine.hit_nanos",
        "cache.hits",
        "cache.probe_hits",
        "cache.probe_misses",
    ] {
        assert!(idle_names.iter().any(|n| n == name), "idle snapshot lacks {name}");
    }
    assert_eq!(counter(&idle, "server.decompose"), 0);
    assert_eq!(counter(&idle, "server.panics"), 0);
    assert!(idle.get("gauges").and_then(|g| g.get("server.queue_depth")).is_some());
    assert!(idle.get("gauges").and_then(|g| g.get("cache.entries")).is_some());

    // Drive traffic through every compute path: decompose miss, decompose
    // hit, synthesize, stats.
    let f = Isf::completely_specified(TruthTable::from_fn(4, |m| m % 3 == 0));
    let decompose = format!(
        r#"{{"verb":"decompose","num_vars":4,"f_on":"{}","op":"AND","seed":5}}"#,
        table_to_hex(f.on()),
    );
    for _ in 0..2 {
        let response = client.roundtrip(&decompose);
        assert_eq!(response.get("ok"), Some(&Value::Bool(true)), "error: {response}");
    }
    let synth =
        format!(r#"{{"verb":"synthesize","num_vars":4,"f_on":"{}"}}"#, table_to_hex(f.on()));
    let response = client.roundtrip(&synth);
    assert_eq!(response.get("ok"), Some(&Value::Bool(true)), "error: {response}");
    client.roundtrip(r#"{"verb":"stats"}"#);

    let busy = client.roundtrip(r#"{"verb":"metrics"}"#);
    // Same counter shape as idle — traffic adds values, never names.
    assert_eq!(counter_names(&busy), idle_names, "traffic must not change the metric name set");
    assert_eq!(counter(&busy, "server.decompose"), 2);
    assert_eq!(counter(&busy, "server.synthesize"), 1);
    assert_eq!(counter(&busy, "server.stats_requests"), 1);
    // The idle request plus this one — the counter is bumped before the
    // snapshot is taken, so a metrics request always sees itself.
    assert_eq!(counter(&busy, "server.metrics_requests"), 2);
    assert_eq!(counter(&busy, "server.panics"), 0);
    assert!(counter(&busy, "engine.quotient_nanos") > 0);
    assert!(counter(&busy, "engine.verify_nanos") > 0);
    assert!(counter(&busy, "engine.synthesis_nanos") > 0);
    assert!(counter(&busy, "engine.canonicalize_nanos") > 0);
    // The one synthesize request missed, so no hit was timed.
    assert_eq!(counter(&busy, "engine.hit_nanos"), 0);
    // The decompose repeat hit the NPN cache; the synthesize miss inserted.
    assert!(counter(&busy, "cache.hits") >= 1);
    assert!(counter(&busy, "cache.insertions") >= 1);
    let entries = busy.get("gauges").and_then(|g| g.get("cache.entries")).unwrap();
    assert!(u64_field(entries, "current") >= 1);

    // Per-verb server-side latency histograms: counts match the verb
    // counters, quantiles are sane and bucket counts sum to the total.
    let latency = histogram(&busy, "server.latency.decompose");
    assert_eq!(u64_field(latency, "count"), 2);
    let p50 = f64_field(latency, "p50_us");
    let p99 = f64_field(latency, "p99_us");
    assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
    let bucket_total: u64 = match latency.get("buckets") {
        Some(Value::Array(buckets)) => buckets
            .iter()
            .map(|pair| match pair {
                Value::Array(pair) => pair[1].as_u64().unwrap(),
                other => panic!("bucket must be a [lower, count] pair, got {other}"),
            })
            .sum(),
        other => panic!("buckets must be an array, got {other:?}"),
    };
    assert_eq!(bucket_total, 2, "non-empty buckets must account for every sample");
    assert_eq!(u64_field(histogram(&busy, "server.latency.synthesize"), "count"), 1);
    assert!(u64_field(histogram(&busy, "server.latency.stats"), "count") >= 1);

    // The embedder-facing registry handle sees the same counters and can
    // render the envelope-free dump `bidecompd --metrics-dump` writes.
    let dump = registry_snapshot_value(&registry);
    assert_eq!(dump.get("schema").and_then(Value::as_str), Some("bidecomp-metrics-v1"));
    assert_eq!(counter(&dump, "server.decompose"), 2);
    assert!(dump.get("verb").is_none(), "the dump has no response envelope");

    client.roundtrip(r#"{"verb":"shutdown"}"#);
    drop(client);
    handle.join().expect("server thread");
}
