//! Admission to the NPN cache on second sight, over real sockets: a first
//! sighting of a function's NPN signature is computed without the cache
//! (no canonicalization, lookup or store) and replied `miss`; a repeat
//! canonicalizes, misses and stores; the next repeat hits. `no_cache` and
//! rejected requests touch neither the doorkeeper nor the store.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use benchmarks::DetRng;
use boolfunc::{Isf, TruthTable};
use service::json::Value;
use service::npn::signature;
use service::server::table_to_hex;
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
        self.writer.write_all(request.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response line");
        Value::parse(line.trim()).expect("response is valid JSON")
    }

    /// Sends a compute request, checks it succeeded and returns its `cache`
    /// field.
    fn cache_status(&mut self, request: &str) -> String {
        let response = self.roundtrip(request);
        assert_eq!(response.get("ok"), Some(&Value::Bool(true)), "error: {response}");
        assert_eq!(response.get("verified"), Some(&Value::Bool(true)), "{response}");
        response.get("cache").and_then(Value::as_str).expect("cache field").to_string()
    }

    /// The cache's books, from `stats` and `metrics`.
    fn books(&mut self) -> Books {
        let stats = self.roundtrip(r#"{"verb":"stats"}"#);
        let cache = stats.get("cache").expect("cache stats present");
        let field = |key: &str| cache.get(key).and_then(Value::as_u64).expect(key);
        let metrics = self.roundtrip(r#"{"verb":"metrics"}"#);
        let counter = |name: &str| {
            metrics.get("counters").and_then(|c| c.get(name)).and_then(Value::as_u64).expect(name)
        };
        assert_eq!(counter("cache.not_admitted"), field("not_admitted"));
        Books {
            not_admitted: field("not_admitted"),
            hits: field("hits"),
            misses: field("misses"),
            insertions: field("insertions"),
            entries: field("entries"),
            canonicalize_nanos: counter("engine.canonicalize_nanos"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Books {
    not_admitted: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    entries: u64,
    canonicalize_nanos: u64,
}

fn start_server() -> (std::net::SocketAddr, std::thread::JoinHandle<()>, Client) {
    let server = Server::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, Client::connect(addr))
}

fn stop(mut client: Client, handle: std::thread::JoinHandle<()>) {
    client.roundtrip(r#"{"verb":"shutdown"}"#);
    drop(client);
    handle.join().expect("server thread");
}

fn synthesize_line(f: &Isf, no_cache: bool) -> String {
    format!(
        r#"{{"verb":"synthesize","num_vars":{},"f_on":"{}","f_dc":"{}","no_cache":{no_cache}}}"#,
        f.num_vars(),
        table_to_hex(f.on()),
        table_to_hex(f.dc()),
    )
}

fn decompose_line(f: &Isf, op: &str, seed: u64, no_cache: bool) -> String {
    format!(
        r#"{{"verb":"decompose","num_vars":{},"f_on":"{}","f_dc":"{}","op":"{op}","seed":{seed},"no_cache":{no_cache}}}"#,
        f.num_vars(),
        table_to_hex(f.on()),
        table_to_hex(f.dc()),
    )
}

fn random_isf(rng: &mut DetRng, num_vars: usize) -> Isf {
    let on = TruthTable::from_words(num_vars, || rng.next_u64());
    let dc = TruthTable::from_words(num_vars, || rng.next_u64() & rng.next_u64()).difference(&on);
    Isf::new(on, dc).unwrap()
}

/// A divisor check runs before the request meets the cache: a rejected
/// `decompose` is neither sighted nor canonicalized.
#[test]
fn an_invalid_divisor_is_rejected_before_the_cache() {
    let (_, handle, mut client) = start_server();
    let f = random_isf(&mut DetRng::seed_from_u64(0xD1F), 9);
    let bad = format!(
        r#"{{"verb":"decompose","num_vars":9,"f_on":"{}","f_dc":"{}","op":"AND","g":"{}"}}"#,
        table_to_hex(f.on()),
        table_to_hex(f.dc()),
        table_to_hex(&TruthTable::zero(9)), // AND needs f_on ⊆ g
    );
    let response = client.roundtrip(&bad);
    assert_eq!(response.get("ok"), Some(&Value::Bool(false)), "{response}");
    assert_eq!(client.books(), Books::default(), "a rejected request touches no cache book");
    // The doorkeeper never sighted f: a valid request for it is still new.
    assert_eq!(client.cache_status(&decompose_line(&f, "AND", 1, false)), "miss");
    assert_eq!(client.books(), Books { not_admitted: 1, ..Books::default() });
    stop(client, handle);
}

/// A stream of never-repeated functions costs the cache nothing: no
/// canonicalization, no lookup, no entry.
#[test]
fn never_repeated_functions_skip_canonicalization_and_the_store() {
    let (_, handle, mut client) = start_server();
    let mut rng = DetRng::seed_from_u64(0x0C01_D5EE);
    let functions: Vec<Isf> =
        (0..50).map(|i| random_isf(&mut rng, if i % 5 == 0 { 4 } else { 9 })).collect();
    let signatures: HashSet<_> = functions.iter().map(signature).collect();
    assert_eq!(signatures.len(), functions.len(), "the stream must never repeat a class");
    for (i, f) in functions.iter().enumerate() {
        let line = if f.num_vars() == 4 {
            synthesize_line(f, false)
        } else {
            decompose_line(f, ["AND", "OR", "XOR"][i % 3], i as u64, false)
        };
        assert_eq!(client.cache_status(&line), "miss", "request {i}");
    }
    assert_eq!(client.books(), Books { not_admitted: 50, ..Books::default() });
    stop(client, handle);
}

/// NPN variants of one function share a signature: the first is not
/// admitted, the second canonicalizes, misses and stores, the third hits.
#[test]
fn npn_variants_are_admitted_on_second_sight() {
    let (_, handle, mut client) = start_server();
    let f = Isf::from_cover_str(5, &["11-0-", "-1-11", "0--10", "1-0-1"], &["--111"]).unwrap();
    let variants = [
        f.clone(),
        NpnTransform::new(vec![3, 0, 4, 1, 2], 0b01101, true).apply_isf(&f),
        NpnTransform::new(vec![1, 4, 2, 0, 3], 0b10010, false).apply_isf(&f),
    ];

    assert_eq!(client.cache_status(&synthesize_line(&variants[0], false)), "miss");
    assert_eq!(client.books(), Books { not_admitted: 1, ..Books::default() });

    assert_eq!(client.cache_status(&synthesize_line(&variants[1], false)), "miss");
    let books = client.books();
    assert_eq!(
        (books.not_admitted, books.hits, books.misses, books.insertions, books.entries),
        (1, 0, 1, 1, 1)
    );
    assert!(books.canonicalize_nanos > 0, "an admitted request canonicalizes");

    assert_eq!(client.cache_status(&synthesize_line(&variants[2], false)), "hit");
    let books = client.books();
    assert_eq!((books.not_admitted, books.hits, books.misses, books.insertions), (1, 1, 1, 1));
    stop(client, handle);
}

/// `no_cache` touches neither the doorkeeper nor the store, however often
/// it repeats a function.
#[test]
fn no_cache_touches_neither_the_doorkeeper_nor_the_store() {
    let (_, handle, mut client) = start_server();
    let f = random_isf(&mut DetRng::seed_from_u64(0xB1A5), 5);
    for _ in 0..3 {
        assert_eq!(client.cache_status(&synthesize_line(&f, true)), "bypass");
        assert_eq!(client.cache_status(&decompose_line(&f, "OR", 2, true)), "bypass");
    }
    assert_eq!(client.books(), Books::default());
    // The doorkeeper never sighted f.
    assert_eq!(client.cache_status(&synthesize_line(&f, false)), "miss");
    assert_eq!(client.books(), Books { not_admitted: 1, ..Books::default() });
    stop(client, handle);
}
