//! End-to-end exercise of the TCP service: a real listener on an ephemeral
//! port, real connections, the full verb set, and the NPN cache observable
//! through both the per-response `cache` field and the `stats` verb.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use bidecomp::{full_quotient, BinaryOp, RecursiveSynthesizer};
use boolfunc::{Isf, TruthTable};
use service::json::Value;
use service::server::{table_from_hex, table_to_hex};
use service::{NpnTransform, Server, ServiceConfig};

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
        Value::parse(&self.roundtrip_line(request)).expect("response is valid JSON")
    }

    /// Sends one request line and returns the raw reply line, trimmed.
    fn roundtrip_line(&mut self, request: &str) -> String {
        self.writer.write_all(request.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response line");
        line.trim().to_string()
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

fn bool_field(doc: &Value, key: &str) -> bool {
    doc.get(key).and_then(Value::as_bool).unwrap_or_else(|| panic!("missing {key} in {doc}"))
}

#[test]
fn full_protocol_round_trip() {
    let (addr, handle) = start_server(ServiceConfig::default());
    let mut client = Client::connect(addr);

    // Fig. 1 of the paper, decomposed over the wire with explicit tables.
    let f = Isf::from_cover_str(4, &["11-1", "-111"], &[]).unwrap();
    let g = boolfunc::Cover::from_strs(4, &["-1-1"]).unwrap().to_truth_table();
    let request = format!(
        r#"{{"verb":"decompose","num_vars":4,"f_on":"{}","op":"AND","g":"{}","tables":true}}"#,
        table_to_hex(f.on()),
        table_to_hex(&g),
    );
    // Sent twice: the first sighting of f's NPN class is computed without
    // the cache, the second canonicalizes, misses and stores.
    let h = full_quotient(&f, &g, BinaryOp::And).unwrap();
    for _ in 0..2 {
        let response = client.roundtrip(&request);
        assert!(bool_field(&response, "ok"), "error: {response}");
        assert!(bool_field(&response, "verified"));
        assert!(bool_field(&response, "maximal"));
        assert_eq!(str_field(&response, "cache"), "miss");
        assert_eq!(u64_field(&response, "on_minterms"), h.on().count_ones());
        assert_eq!(u64_field(&response, "dc_minterms"), h.dc().count_ones());
        assert_eq!(table_from_hex(str_field(&response, "h_on"), 4).unwrap(), *h.on());
        assert_eq!(table_from_hex(str_field(&response, "h_dc"), 4).unwrap(), *h.dc());
    }

    // An NPN variant of the same problem — the diagonal transform of
    // (f, g) with an output complement, so the operator flips to NAND —
    // must be answered from the cache, bit-identically.
    let t = NpnTransform::new(vec![3, 1, 0, 2], 0b0110, true);
    let f2 = t.apply_isf(&f);
    let g2 = t.permute_table(&g);
    let request = format!(
        r#"{{"verb":"decompose","num_vars":4,"f_on":"{}","op":"NAND","g":"{}","tables":true}}"#,
        table_to_hex(f2.on()),
        table_to_hex(&g2),
    );
    let response = client.roundtrip(&request);
    assert!(bool_field(&response, "ok"), "error: {response}");
    assert_eq!(str_field(&response, "cache"), "hit");
    assert!(bool_field(&response, "verified") && bool_field(&response, "maximal"));
    let h2 = full_quotient(&f2, &g2, BinaryOp::Nand).unwrap();
    assert_eq!(
        table_from_hex(str_field(&response, "h_on"), 4).unwrap(),
        *h2.on(),
        "NPN hit must be bit-identical to the cold quotient"
    );
    assert_eq!(table_from_hex(str_field(&response, "h_dc"), 4).unwrap(), *h2.dc());

    // Synthesize twice: miss, then (same class) hit, both verified. The
    // decompose requests above already sighted f's class, so the first
    // synthesize is admitted.
    let synth =
        format!(r#"{{"verb":"synthesize","num_vars":4,"f_on":"{}"}}"#, table_to_hex(f.on()));
    let cold = client.roundtrip(&synth);
    assert!(bool_field(&cold, "ok"), "error: {cold}");
    assert_eq!(str_field(&cold, "cache"), "miss");
    assert!(bool_field(&cold, "verified"));
    let warm = client.roundtrip(&synth);
    assert_eq!(str_field(&warm, "cache"), "hit");
    assert!(bool_field(&warm, "verified"));
    assert_eq!(u64_field(&warm, "gates"), u64_field(&cold, "gates"));

    // A second connection shares the cache and the stats.
    let mut other = Client::connect(addr);
    let response = other.roundtrip(&synth);
    assert_eq!(str_field(&response, "cache"), "hit");

    // no_cache bypasses both lookup and insertion.
    let bypass = format!(
        r#"{{"verb":"synthesize","num_vars":4,"f_on":"{}","no_cache":true}}"#,
        table_to_hex(f.on())
    );
    let response = client.roundtrip(&bypass);
    assert_eq!(str_field(&response, "cache"), "bypass");

    // Errors are per-request; the connection survives them.
    let response = client.roundtrip("this is not json");
    assert!(!bool_field(&response, "ok"));
    let response = client.roundtrip(r#"{"verb":"decompose","num_vars":4,"f_on":"00","op":"AND"}"#);
    assert!(!bool_field(&response, "ok"));
    let bad_divisor = format!(
        r#"{{"verb":"decompose","num_vars":4,"f_on":"{}","op":"AND","g":"{}"}}"#,
        table_to_hex(f.on()),
        table_to_hex(&TruthTable::zero(4)), // AND needs f_on ⊆ g
    );
    let response = client.roundtrip(&bad_divisor);
    assert!(!bool_field(&response, "ok"));
    assert!(str_field(&response, "error").contains("side condition"));

    // Stats reflect everything above.
    let stats = client.roundtrip(r#"{"verb":"stats"}"#);
    assert!(bool_field(&stats, "ok"));
    // Four decompose requests reached the handler (the bad-hex one died
    // at parse time and only counts as an error).
    assert_eq!(u64_field(&stats, "decompose"), 4);
    assert_eq!(u64_field(&stats, "synthesize"), 4);
    assert_eq!(u64_field(&stats, "errors"), 3);
    let cache = stats.get("cache").expect("cache stats present");
    assert!(u64_field(cache, "hits") >= 3);
    assert!(u64_field(cache, "entries") >= 2);
    assert_eq!(u64_field(cache, "not_admitted"), 1, "only f's first sighting was turned away");

    // Shutdown: acknowledged, then the server task returns.
    let response = client.roundtrip(r#"{"verb":"shutdown"}"#);
    assert!(bool_field(&response, "ok"));
    drop(client);
    drop(other);
    handle.join().expect("server thread");
}

/// The `(hits, misses, insertions)` of the server's cache, via `stats`.
fn cache_counts(client: &mut Client) -> (u64, u64, u64) {
    let stats = client.roundtrip(r#"{"verb":"stats"}"#);
    let cache = stats.get("cache").expect("cache stats present");
    (u64_field(cache, "hits"), u64_field(cache, "misses"), u64_field(cache, "insertions"))
}

fn synthesize_line(f: &Isf, no_cache: bool) -> String {
    format!(
        r#"{{"verb":"synthesize","num_vars":{},"f_on":"{}","f_dc":"{}","no_cache":{no_cache}}}"#,
        f.num_vars(),
        table_to_hex(f.on()),
        table_to_hex(f.dc()),
    )
}

/// The cache sits in front of whole requests: an admitted cold
/// `synthesize` does one lookup and stores only its own result, however
/// many portfolio candidates the recursion scores, and a `no_cache` request
/// touches the cache in no way.
#[test]
fn synthesis_touches_the_cache_once_per_request() {
    let (addr, handle) = start_server(ServiceConfig::default());
    let mut client = Client::connect(addr);

    let f = Isf::from_cover_str(4, &["1-10", "1-01", "-111", "-100"], &[]).unwrap();
    let local = RecursiveSynthesizer::default().synthesize(&f).unwrap();
    assert!(local.flat_form.num_pseudoproducts() >= 2, "the portfolio must run on f");
    let (hits, misses, insertions) = cache_counts(&mut client);
    // The first sighting is not admitted and leaves the store alone.
    for expected in [(hits, misses, insertions), (hits, misses + 1, insertions + 1)] {
        let cold = client.roundtrip(&synthesize_line(&f, false));
        assert!(bool_field(&cold, "ok"), "error: {cold}");
        assert_eq!(str_field(&cold, "cache"), "miss");
        assert_eq!(u64_field(&cold, "gates"), local.gate_count() as u64);
        assert_eq!(cache_counts(&mut client), expected);
    }

    let fresh = Isf::new(
        TruthTable::from_fn(5, |m| (m * 0x9E37) % 7 < 3),
        TruthTable::from_fn(5, |m| (m * 0x9E37) % 7 == 3),
    )
    .unwrap();
    let before = cache_counts(&mut client);
    let bypass = client.roundtrip(&synthesize_line(&fresh, true));
    assert!(bool_field(&bypass, "ok"), "error: {bypass}");
    assert_eq!(str_field(&bypass, "cache"), "bypass");
    assert!(bool_field(&bypass, "verified"));
    assert_eq!(cache_counts(&mut client), before);

    client.roundtrip(r#"{"verb":"shutdown"}"#);
    drop(client);
    handle.join().expect("server thread");
}

#[test]
fn cache_disabled_server_always_bypasses() {
    let config = ServiceConfig { cache_capacity: 0, ..ServiceConfig::default() };
    let (addr, handle) = start_server(config);
    let mut client = Client::connect(addr);
    let f = Isf::from_cover_str(3, &["11-"], &[]).unwrap();
    let request = format!(
        r#"{{"verb":"decompose","num_vars":3,"f_on":"{}","op":"OR","seed":3}}"#,
        table_to_hex(f.on())
    );
    for _ in 0..2 {
        let response = client.roundtrip(&request);
        assert!(bool_field(&response, "ok"), "error: {response}");
        assert_eq!(str_field(&response, "cache"), "bypass");
        assert!(bool_field(&response, "verified"));
    }
    let stats = client.roundtrip(r#"{"verb":"stats"}"#);
    assert_eq!(stats.get("cache"), Some(&Value::Null));
    client.roundtrip(r#"{"verb":"shutdown"}"#);
    drop(client);
    handle.join().expect("server thread");
}

#[test]
fn pipelined_requests_come_back_in_order() {
    let (addr, handle) = start_server(ServiceConfig::default());
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // Write a burst of decompose requests before reading anything — the
    // worker threads answer them in completion order, and replies must come
    // back in request order.
    let mut expected = Vec::new();
    let mut batch = String::new();
    for seed in 0..24u64 {
        let f = Isf::completely_specified(TruthTable::from_fn(5, |m| m % (seed + 2) == 0));
        let op = BinaryOp::all()[(seed % 10) as usize];
        batch.push_str(&format!(
            "{{\"verb\":\"decompose\",\"num_vars\":5,\"f_on\":\"{}\",\"op\":\"{}\",\"seed\":{seed}}}\n",
            table_to_hex(f.on()),
            op.symbol(),
        ));
        let g = bidecomp::engine::seeded_divisor(&f, op, seed);
        expected.push(full_quotient(&f, &g, op).unwrap().dc().count_ones());
    }
    writer.write_all(batch.as_bytes()).unwrap();
    writer.flush().unwrap();

    for (i, want_dc) in expected.iter().enumerate() {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let response = Value::parse(line.trim()).unwrap();
        assert!(bool_field(&response, "ok"), "request {i}: {response}");
        assert_eq!(u64_field(&response, "dc_minterms"), *want_dc, "request {i} out of order");
        assert!(bool_field(&response, "verified"));
    }

    writer.write_all(b"{\"verb\":\"shutdown\"}\n").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    drop(writer);
    drop(reader);
    handle.join().expect("server thread");
}

#[test]
fn symbolic_field_is_ignored_like_any_unknown_field() {
    let (addr, handle) = start_server(ServiceConfig::default());
    let mut client = Client::connect(addr);

    // Older clients may still send `"symbolic":true`; like any unknown field
    // it must not change the reply. With the cache bypassed the three
    // replies must be byte-identical, at several arities and operators.
    for (n, seed) in [(3usize, 11u64), (4, 7), (6, 99), (9, 3)] {
        let f = Isf::completely_specified(TruthTable::from_fn(n, |m| {
            (m ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(13) % 5 < 2
        }));
        for op in ["AND", "XOR", "NOR", "IMPL"] {
            let base = format!(
                r#""verb":"decompose","num_vars":{n},"f_on":"{}","op":"{op}","seed":{seed},"tables":true,"no_cache":true"#,
                table_to_hex(f.on()),
            );
            let plain = client.roundtrip_line(&format!("{{{base}}}"));
            let symbolic = client.roundtrip_line(&format!(r#"{{{base},"symbolic":true}}"#));
            let unknown = client.roundtrip_line(&format!(r#"{{{base},"colour":"blue"}}"#));
            let reply = Value::parse(&plain).expect("response is valid JSON");
            assert!(bool_field(&reply, "ok"), "error: {reply}");
            assert!(bool_field(&reply, "verified") && bool_field(&reply, "maximal"));
            assert_eq!(str_field(&reply, "cache"), "bypass");
            assert_eq!(symbolic, plain, "n={n} {op}: \"symbolic\" changed the reply");
            assert_eq!(unknown, plain, "n={n} {op}: an unknown field changed the reply");
        }
    }

    client.roundtrip(r#"{"verb":"shutdown"}"#);
    handle.join().expect("server thread");
}
