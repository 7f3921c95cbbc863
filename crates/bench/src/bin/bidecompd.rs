//! The persistent decomposition daemon: binds the `service::Server` on
//! localhost and serves until a `shutdown` request arrives.
//!
//! Usage (all flags optional):
//!
//! ```text
//! cargo run -p bidecomp-bench --release --bin bidecompd -- \
//!     [--port N] [--port-file PATH] [--workers N] \
//!     [--cache-capacity N] [--shards N] [--no-cache] \
//!     [--max-vars N] [--depth N] [--min-gain F] \
//!     [--max-queue N] [--max-connections N] [--max-line-bytes N] \
//!     [--read-timeout-ms N] [--write-timeout-ms N] [--drain-deadline-ms N] \
//!     [--fault-seed N] [--fault-panics PM] [--fault-delays PM] \
//!     [--fault-delay-ms N] [--fault-drops PM] [--metrics-dump PATH]
//! ```
//!
//! The robustness knobs (`--max-queue` …) take `0` for "unbounded /
//! disabled". The `--fault-*` flags (rates in per-mille) arm a seeded
//! [`service::FaultPlan`] — chaos testing only, never production; the
//! injected-panic stderr noise is suppressed so a chaos soak's log stays
//! readable.
//!
//! `--port 0` (the default) picks an ephemeral port; the chosen address is
//! printed as `listening on 127.0.0.1:PORT` and, with `--port-file`, the
//! bare port number is also written to the given file once the listener is
//! bound — which is how scripts (CI, `service_loadgen --port-file`) find
//! the server without a port race.
//!
//! `--metrics-dump PATH` writes the final `bidecomp-metrics-v1` snapshot of
//! the server's observability registry (the same data the `metrics` verb
//! serves, without the response envelope) to `PATH` as pretty JSON on clean
//! shutdown — a flight recorder for soak runs that outlives the process.

use std::process::ExitCode;

use bidecomp_bench::cli::ArgCursor;
use service::{FaultPlan, Server, ServiceConfig};

struct Args {
    port: u16,
    port_file: Option<String>,
    metrics_dump: Option<String>,
    config: ServiceConfig,
}

/// Strict parsing (exit code 2 on any problem), like the other gate-feeding
/// binaries: a daemon silently falling back to defaults would hand the CI
/// gate a differently-configured server.
fn parse_args() -> Args {
    let mut args =
        Args { port: 0, port_file: None, metrics_dump: None, config: ServiceConfig::default() };
    let mut argv = ArgCursor::from_env("bidecompd");
    while let Some(flag) = argv.next_flag() {
        match flag.as_str() {
            "--port" => args.port = argv.number(&flag),
            "--port-file" => args.port_file = Some(argv.value(&flag)),
            "--metrics-dump" => args.metrics_dump = Some(argv.value(&flag)),
            "--workers" => args.config.workers = argv.number(&flag),
            "--cache-capacity" => args.config.cache_capacity = argv.number(&flag),
            "--shards" => args.config.cache_shards = argv.number(&flag),
            "--no-cache" => args.config.cache_capacity = 0,
            "--max-vars" => args.config.max_vars = argv.number(&flag),
            "--depth" => args.config.recursive.max_depth = argv.number(&flag),
            "--min-gain" => args.config.recursive.min_gain = argv.number(&flag),
            "--max-queue" => args.config.max_queue = argv.number(&flag),
            "--max-connections" => args.config.max_connections = argv.number(&flag),
            "--max-line-bytes" => args.config.max_line_bytes = argv.number(&flag),
            "--read-timeout-ms" => args.config.read_timeout_ms = argv.number(&flag),
            "--write-timeout-ms" => args.config.write_timeout_ms = argv.number(&flag),
            "--drain-deadline-ms" => args.config.drain_deadline_ms = argv.number(&flag),
            "--fault-seed" => {
                let plan = faults(&mut args.config);
                plan.seed = argv.number(&flag);
            }
            "--fault-panics" => faults(&mut args.config).panic_per_mille = argv.number(&flag),
            "--fault-delays" => faults(&mut args.config).delay_per_mille = argv.number(&flag),
            "--fault-delay-ms" => faults(&mut args.config).delay_ms = argv.number(&flag),
            "--fault-drops" => faults(&mut args.config).drop_per_mille = argv.number(&flag),
            other => argv.fail(format_args!("unknown argument {other}")),
        }
    }
    args
}

/// The fault plan, created on first `--fault-*` flag.
fn faults(config: &mut ServiceConfig) -> &mut FaultPlan {
    config.faults.get_or_insert_with(|| FaultPlan::new(0x5EED))
}

fn main() -> ExitCode {
    let args = parse_args();
    let server = match Server::bind(("127.0.0.1", args.port), args.config.clone()) {
        Ok(server) => server,
        // A configuration the server refuses (e.g. `--max-vars` out of
        // range) is a usage error, like a bad flag.
        Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => {
            eprintln!("bidecompd: {e}");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("bidecompd: cannot bind 127.0.0.1:{}: {e}", args.port);
            return ExitCode::FAILURE;
        }
    };
    let addr = match server.local_addr() {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("bidecompd: cannot read the bound address: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {addr}");
    let bound = |n: usize| if n == 0 { "unbounded".to_string() } else { n.to_string() };
    println!(
        "queue {} | connections {} | line cap {} B | timeouts r/w {}/{} ms | drain {} ms",
        bound(args.config.max_queue),
        bound(args.config.max_connections),
        bound(args.config.max_line_bytes),
        args.config.read_timeout_ms,
        args.config.write_timeout_ms,
        args.config.drain_deadline_ms,
    );
    if let Some(plan) = &args.config.faults {
        service::silence_injected_panics();
        println!(
            "FAULT INJECTION ARMED: seed {} | panics {}‰ | delays {}‰ x {} ms | drops {}‰",
            plan.seed,
            plan.panic_per_mille,
            plan.delay_per_mille,
            plan.delay_ms,
            plan.drop_per_mille,
        );
    }
    println!(
        "workers {} | cache {} | max_vars {} | portfolio {} candidates, depth {}",
        if args.config.workers == 0 { "auto".to_string() } else { args.config.workers.to_string() },
        if args.config.cache_capacity == 0 {
            "disabled".to_string()
        } else {
            format!("{} entries / {} shards", args.config.cache_capacity, args.config.cache_shards)
        },
        args.config.max_vars,
        args.config.recursive.portfolio.len(),
        args.config.recursive.max_depth,
    );
    if let Some(path) = &args.port_file {
        if let Err(e) = std::fs::write(path, format!("{}\n", addr.port())) {
            eprintln!("bidecompd: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let registry = server.registry();
    match server.run() {
        Ok(()) => {
            if let Some(path) = &args.metrics_dump {
                let snapshot = service::registry_snapshot_value(&registry);
                if let Err(e) = std::fs::write(path, service::json::pretty(&snapshot)) {
                    eprintln!("bidecompd: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("bidecompd: metrics written to {path}");
            }
            println!("bidecompd: shutdown complete");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bidecompd: listener failed: {e}");
            ExitCode::FAILURE
        }
    }
}
