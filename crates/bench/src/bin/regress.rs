//! The CI perf-regression gate: compares a fresh sweep artifact against its
//! committed baseline and exits non-zero on regression.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bidecomp-bench --release --bin regress -- \
//!     [--baseline PATH] [--current PATH] [--tolerance F] [--node-tolerance F]
//! ```
//!
//! Six document schemas are understood, dispatched on the `schema` field
//! (baseline and current must agree):
//!
//! * `bidecomp-sweep-v1` — the quotient sweeps (`sweep`, `bdd_sweep`):
//!   exact semantic comparison plus the tolerance-banded `speedup` ratio
//!   described below;
//! * `bidecomp-synth-v1` — the recursive-synthesis sweep (`synth_sweep`):
//!   the aggregate counters and every per-`(instance, output)` row — gate
//!   count, depth, branch count, rounded areas and gain — are deterministic
//!   and compared exactly (areas within 1e-6 to absorb decimal-text
//!   round-tripping). The `espresso` block's function count is exact, and
//!   its `speedup` (cube-list espresso wall over dense espresso wall, same
//!   process, one thread) uses the same tolerance band as the sweep schema;
//!   so do the `verify` block's network count and `speedup` (per-minterm
//!   over word-parallel `verify_network`). The `memo` block's two counts
//!   (2-SPP syntheses requested, and answered by the recursion's per-call
//!   memo) are deterministic and compared exactly.
//! * `bidecomp-service-v1` — the service load generator
//!   (`service_loadgen`): the workload shape (request counts, arity, base
//!   pool, connection count) and the zero-error requirement are exact; the
//!   cached-over-cold `speedup` ratio uses the same tolerance band as the
//!   sweep schema (both arms run in one process against one server, so the
//!   ratio is machine-comparable), and the cached arm's `hit_rate` may dip
//!   at most 5 points below the baseline (concurrent first-misses of one
//!   key can steal a handful of hits). The `npn` block's function count is
//!   exact and its `speedup` (per-minterm over word-parallel
//!   canonicalization) uses the same tolerance band. When the baseline carries a
//!   `robustness` block (the happy-path failure counters), every counter
//!   is compared exactly — a clean run must stay clean. When it carries a
//!   `scrape` block (`service_loadgen --scrape`, the server's own
//!   `bidecomp-metrics-v1` snapshot), the counter **name set** is compared
//!   exactly (instrumentation must not silently appear or vanish), the
//!   server must report zero panics, the server-side per-verb request
//!   counts must equal twice the client-side workload counts (both arms
//!   replay the same workload; any gap means a request was lost or
//!   double-counted), the cache accounting is pinned (`cache.hits +
//!   cache.misses + cache.not_admitted` equals the cached arm's request
//!   count, because each cached request is either turned away by the
//!   doorkeeper or does exactly one lookup and the `no_cache` arm touches
//!   neither, and `cache.hits` equals the cached arm's client-side hits),
//!   `cache.not_admitted` is compared exactly (the doorkeeper turns each
//!   distinct NPN signature of the arm away exactly once), and the
//!   server-side p99 sits under a wide
//!   `baseline × (1 + 4 × tolerance)` ceiling (absolute latencies differ
//!   across hosts far more than same-process ratios do). The queue-free
//!   hit-over-miss compute ratio (server compute per synthesizer run over
//!   per synthesize hit, from the `engine.*_nanos` counters, each side's
//!   ratio from its own scrape) must stay above the equally wide
//!   `baseline / (1 + 4 × tolerance)` floor, and the cached arm must serve
//!   at least one synthesize hit. Client-side latencies and the
//!   per-canonicalization cost are reported, never compared.
//! * `bidecomp-service-chaos-v1` — the chaos arm (`service_loadgen
//!   --chaos`): the workload shape and fault rates are exact, and the run
//!   must report **zero lost**, **zero corrupted**, full completion
//!   (`completed == requests`) and `recovered == true`. Retry/shed/panic
//!   counts and latencies vary with timing and are reported, never
//!   compared; `--tolerance` is ignored.
//! * `bidecomp-oracle-v1` — the cross-backend fuzzer (`oracle_fuzz`):
//!   everything except the wall time is deterministic and compared exactly;
//!   additionally the current run must report zero three-way disagreements
//!   and a fully effective tamper self-check.
//! * `bidecomp-obs-overhead-v1` — the observability overhead guard
//!   (`obs_overhead`): the suite and job count are exact, and the measured
//!   `overhead_ratio` (sweep wall with the metrics registry attached over
//!   the wall with it detached, min-of-reps, same process) must stay at or
//!   under `1 + tolerance`. The ratio is same-process and
//!   hardware-independent, so it is gated against the absolute ceiling, not
//!   the baseline's own ratio; raw walls are reported, never compared.
//!
//! For the sweep schema, two classes of checks:
//!
//! * **Semantic (exact):** suite name, job count, and the per-operator
//!   `jobs` / `verified` / `maximal` / `on_minterms` / `dc_minterms` /
//!   `divisor_errors` aggregates must match the baseline bit for bit — they
//!   are deterministic (seed-stable divisors, fixed suites), so any drift is
//!   a real behavior change.
//! * **Performance (tolerance band):** the sweep's `speedup` field is the
//!   ratio of the sequential/allocating reference path to the batch engine
//!   *with both arms at one thread, measured in the same process on the same
//!   machine*, which makes it comparable across hosts — it neither depends
//!   on absolute machine speed (same-process ratio) nor on core count
//!   (single-threaded arms). The gate fails when
//!   `current.speedup < max(1.0, baseline.speedup × (1 − tolerance))`;
//!   the default tolerance of 0.75 absorbs noisy shared CI runners while
//!   still catching the hot path regressing back toward the allocating
//!   implementation. Raw wall times and thread counts differ between
//!   machines and are only reported, never compared.
//! * **Peak node count (ceiling):** when the baseline carries a positive
//!   `peak_bdd_nodes` (the BDD sweep does, the dense sweep does not), the
//!   current run's peak live node count must stay under
//!   `floor(baseline.peak_bdd_nodes × (1 + node_tolerance))`. The peak is
//!   fully deterministic (fixed suite, seeded divisors, deterministic
//!   sifting — no time-based triggers), so the default `--node-tolerance`
//!   of 0.05 is pure headroom for deliberate small algorithmic changes;
//!   anything above it means variable ordering or garbage collection
//!   regressed.

use std::process::ExitCode;

use bidecomp_bench::cli::ArgCursor;
use bidecomp_bench::json::Value;

struct Args {
    baseline: String,
    current: String,
    tolerance: f64,
    node_tolerance: f64,
}

/// Exits with code 2 on any unknown flag, missing value or unparsable
/// tolerance (via [`ArgCursor`]): a typo must not silently run the CI gate
/// with defaults (e.g. a looser tolerance band or the wrong baseline path).
fn parse_args() -> Args {
    let mut args = Args {
        baseline: "BENCH_baseline.json".to_string(),
        current: "BENCH_sweep.json".to_string(),
        tolerance: 0.75,
        node_tolerance: 0.05,
    };
    let mut argv = ArgCursor::from_env("regress");
    while let Some(flag) = argv.next_flag() {
        match flag.as_str() {
            "--baseline" => args.baseline = argv.value(&flag),
            "--current" => args.current = argv.value(&flag),
            "--tolerance" => args.tolerance = argv.number(&flag),
            "--node-tolerance" => args.node_tolerance = argv.number(&flag),
            other => argv.fail(format_args!("unknown argument {other}")),
        }
    }
    args
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// Extracts a named u64 field, with a readable error.
fn u64_field(doc: &Value, key: &str, path: &str) -> Result<u64, String> {
    doc.get(key).and_then(Value::as_u64).ok_or_else(|| format!("{path}: missing field '{key}'"))
}

fn f64_field(doc: &Value, key: &str, path: &str) -> Result<f64, String> {
    doc.get(key).and_then(Value::as_f64).ok_or_else(|| format!("{path}: missing field '{key}'"))
}

fn run(args: &Args) -> Result<Vec<String>, String> {
    let baseline = load(&args.baseline)?;
    let current = load(&args.current)?;

    let schema_of = |doc: &Value, path: &str| {
        doc.get("schema")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{path}: missing schema field"))
    };
    let base_schema = schema_of(&baseline, &args.baseline)?;
    let cur_schema = schema_of(&current, &args.current)?;
    if base_schema != cur_schema {
        return Err(format!("schema mismatch: baseline is {base_schema}, current is {cur_schema}"));
    }
    match base_schema.as_str() {
        "bidecomp-sweep-v1" => run_sweep(args, &baseline, &current),
        "bidecomp-synth-v1" => run_synth(args, &baseline, &current),
        "bidecomp-service-v1" => run_service(args, &baseline, &current),
        "bidecomp-service-chaos-v1" => run_service_chaos(args, &baseline, &current),
        "bidecomp-oracle-v1" => run_oracle(args, &baseline, &current),
        "bidecomp-obs-overhead-v1" => run_obs_overhead(args, &baseline, &current),
        other => Err(format!("{}: unknown schema '{other}'", args.baseline)),
    }
}

/// The oracle-schema gate: a `bidecomp-oracle-v1` document is fully
/// deterministic (seeded corpus, seeded divisors, complete SAT solver), so
/// the workload shape and the divisor-verdict split are compared exactly;
/// on top of that the current run must report **zero** three-way
/// disagreements and a fully effective tamper self-check. `--tolerance` is
/// ignored; `wall_ms` is reported, never compared.
fn run_oracle(args: &Args, baseline: &Value, current: &Value) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();

    for key in [
        "seed",
        "cases",
        "min_vars",
        "max_vars",
        "ops",
        "checks",
        "valid_divisors",
        "invalid_divisors",
        "tamper_checks",
    ] {
        let b = u64_field(baseline, key, &args.baseline)?;
        let c = u64_field(current, key, &args.current)?;
        if b != c {
            failures.push(format!("{key} differs: baseline {b} vs current {c}"));
        }
    }
    let disagreements = u64_field(current, "disagreements", &args.current)?;
    if disagreements != 0 {
        failures.push(format!("{disagreements} three-way disagreement(s) between the judges"));
    }
    match current.get("tamper_rejected").and_then(Value::as_bool) {
        Some(true) => {}
        other => failures.push(format!(
            "tamper self-check was not fully effective (tamper_rejected = {other:?})"
        )),
    }
    println!(
        "oracle fuzz: {} lockstep checks, {} disagreement(s), {} tamper checks \
         (first failed lemma: {})",
        u64_field(current, "checks", &args.current)?,
        disagreements,
        u64_field(current, "tamper_checks", &args.current)?,
        current.get("tamper_lemma").and_then(Value::as_str).unwrap_or("none"),
    );
    let base_ms = f64_field(baseline, "wall_ms", &args.baseline)?;
    let cur_ms = f64_field(current, "wall_ms", &args.current)?;
    println!(
        "fuzz wall time: baseline {base_ms:.1} ms, current {cur_ms:.1} ms \
         (informational; hosts differ)"
    );

    Ok(failures)
}

fn run_sweep(args: &Args, baseline: &Value, current: &Value) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();

    // --- Semantic comparison (exact) ---
    let base_suite = baseline.get("suite").and_then(Value::as_str).unwrap_or("?");
    let cur_suite = current.get("suite").and_then(Value::as_str).unwrap_or("?");
    if base_suite != cur_suite {
        failures.push(format!("suite differs: baseline '{base_suite}' vs current '{cur_suite}'"));
    }
    for key in ["jobs", "verified", "maximal"] {
        let b = u64_field(baseline, key, &args.baseline)?;
        let c = u64_field(current, key, &args.current)?;
        if b != c {
            failures.push(format!("{key} differs: baseline {b} vs current {c}"));
        }
    }

    let base_ops = baseline
        .get("operators")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{}: missing operators array", args.baseline))?;
    let cur_ops = current
        .get("operators")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{}: missing operators array", args.current))?;
    for base_op in base_ops {
        let name = base_op.get("op").and_then(Value::as_str).unwrap_or("?");
        let Some(cur_op) =
            cur_ops.iter().find(|o| o.get("op").and_then(Value::as_str) == Some(name))
        else {
            failures.push(format!("operator {name} missing from current run"));
            continue;
        };
        for key in ["jobs", "verified", "maximal", "on_minterms", "dc_minterms", "divisor_errors"] {
            let b = u64_field(base_op, key, &args.baseline)?;
            let c = u64_field(cur_op, key, &args.current)?;
            if b != c {
                failures.push(format!("{name}.{key} differs: baseline {b} vs current {c}"));
            }
        }
    }
    if cur_ops.len() != base_ops.len() {
        failures.push(format!(
            "operator count differs: baseline {} vs current {}",
            base_ops.len(),
            cur_ops.len()
        ));
    }

    // --- Peak BDD node ceiling (deterministic; small headroom only) ---
    // Only gated when the baseline records a positive peak: the dense
    // sweep's baseline predates the field and its jobs never touch a BDD
    // manager, so the gate is specific to the symbolic sweep.
    if let Some(base_peak) = baseline.get("peak_bdd_nodes").and_then(Value::as_u64) {
        if base_peak > 0 {
            let cur_peak = u64_field(current, "peak_bdd_nodes", &args.current)?;
            let ceiling = (base_peak as f64 * (1.0 + args.node_tolerance)).floor() as u64;
            println!(
                "peak live BDD nodes: baseline {base_peak}, current {cur_peak} \
                 (ceiling {ceiling}, node tolerance {})",
                args.node_tolerance
            );
            if cur_peak > ceiling {
                failures.push(format!(
                    "peak node regression: {cur_peak} live BDD nodes exceeds the ceiling \
                     {ceiling} (baseline {base_peak}, node tolerance {})",
                    args.node_tolerance
                ));
            }
        }
    }

    // --- Performance comparison (tolerance band) ---
    let base_speedup = f64_field(baseline, "speedup", &args.baseline)?;
    let cur_speedup = f64_field(current, "speedup", &args.current)?;
    let floor = (base_speedup * (1.0 - args.tolerance)).max(1.0);
    println!(
        "speedup over the sequential/allocating path: baseline {base_speedup:.2}x, \
         current {cur_speedup:.2}x (floor {floor:.2}x, tolerance {})",
        args.tolerance
    );
    if cur_speedup < floor {
        failures.push(format!(
            "performance regression: speedup {cur_speedup:.2}x fell below the floor {floor:.2}x \
             (baseline {base_speedup:.2}x, tolerance {})",
            args.tolerance
        ));
    }
    let base_ms = f64_field(baseline, "engine_wall_ms", &args.baseline)?;
    let cur_ms = f64_field(current, "engine_wall_ms", &args.current)?;
    println!(
        "engine wall time: baseline {base_ms:.1} ms, current {cur_ms:.1} ms \
         (informational; hosts differ)"
    );

    Ok(failures)
}

/// The synth-schema gate: everything in a `bidecomp-synth-v1` document
/// except the wall times and the espresso speedup is deterministic, so the
/// comparison is exact — aggregate counters and the memo counts bit for
/// bit, areas within 1e-6 (decimal-text round-tripping only), one row per
/// `(instance, output)`.
/// The espresso speedup is gated like the sweep's: it may not fall below
/// `max(1.0, baseline × (1 − tolerance))`.
fn run_synth(args: &Args, baseline: &Value, current: &Value) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();

    let base_suite = baseline.get("suite").and_then(Value::as_str).unwrap_or("?");
    let cur_suite = current.get("suite").and_then(Value::as_str).unwrap_or("?");
    if base_suite != cur_suite {
        failures.push(format!("suite differs: baseline '{base_suite}' vs current '{cur_suite}'"));
    }
    for key in ["jobs", "verified", "total_gates", "total_branches"] {
        let b = u64_field(baseline, key, &args.baseline)?;
        let c = u64_field(current, key, &args.current)?;
        if b != c {
            failures.push(format!("{key} differs: baseline {b} vs current {c}"));
        }
    }
    let base_gain = f64_field(baseline, "average_gain_percent", &args.baseline)?;
    let cur_gain = f64_field(current, "average_gain_percent", &args.current)?;
    println!(
        "average mapped-area gain over flat 2-SPP: baseline {base_gain:.3}%, \
         current {cur_gain:.3}% (deterministic; compared exactly)"
    );
    if (base_gain - cur_gain).abs() > 1e-6 {
        failures.push(format!(
            "average_gain_percent differs: baseline {base_gain} vs current {cur_gain}"
        ));
    }

    let base_rows = baseline
        .get("instances")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{}: missing instances array", args.baseline))?;
    let cur_rows = current
        .get("instances")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{}: missing instances array", args.current))?;
    for base_row in base_rows {
        let name = base_row.get("instance").and_then(Value::as_str).unwrap_or("?");
        let output = base_row.get("output").and_then(Value::as_u64).unwrap_or(u64::MAX);
        let Some(cur_row) = cur_rows.iter().find(|r| {
            r.get("instance").and_then(Value::as_str) == Some(name)
                && r.get("output").and_then(Value::as_u64) == Some(output)
        }) else {
            failures.push(format!("{name}[{output}] missing from current run"));
            continue;
        };
        for key in ["num_vars", "gates", "depth", "branches"] {
            let b = u64_field(base_row, key, &args.baseline)?;
            let c = u64_field(cur_row, key, &args.current)?;
            if b != c {
                failures.push(format!("{name}[{output}].{key}: baseline {b} vs current {c}"));
            }
        }
        for key in ["mapped_area", "flat_area", "gain_percent"] {
            let b = f64_field(base_row, key, &args.baseline)?;
            let c = f64_field(cur_row, key, &args.current)?;
            if (b - c).abs() > 1e-6 {
                failures.push(format!("{name}[{output}].{key}: baseline {b} vs current {c}"));
            }
        }
        let b = base_row.get("verified").and_then(Value::as_bool);
        let c = cur_row.get("verified").and_then(Value::as_bool);
        if b != c {
            failures.push(format!("{name}[{output}].verified: baseline {b:?} vs current {c:?}"));
        }
    }
    if cur_rows.len() != base_rows.len() {
        failures.push(format!(
            "instance-row count differs: baseline {} vs current {}",
            base_rows.len(),
            cur_rows.len()
        ));
    }

    // --- The per-call synthesis memo (exact) ---
    let memo = |doc: &Value, path: &str| {
        doc.get("memo").cloned().ok_or_else(|| format!("{path}: missing memo block"))
    };
    let (base_memo, cur_memo) = (memo(baseline, &args.baseline)?, memo(current, &args.current)?);
    for key in ["requested", "answered"] {
        let b = u64_field(&base_memo, key, &args.baseline)?;
        let c = u64_field(&cur_memo, key, &args.current)?;
        println!("2-SPP syntheses {key}: baseline {b}, current {c} (compared exactly)");
        if b != c {
            failures.push(format!("memo.{key} differs: baseline {b} vs current {c}"));
        }
    }

    // --- In-process reference arms (tolerance band) ---
    let arms = [
        ("espresso", "functions", "dense espresso over the cube-list path"),
        ("verify", "networks", "word-parallel verify_network over the per-minterm path"),
    ];
    for (block, count, label) in arms {
        gate_reference_arm(args, baseline, current, block, count, label, &mut failures)?;
    }

    let base_ms = f64_field(baseline, "wall_ms", &args.baseline)?;
    let cur_ms = f64_field(current, "wall_ms", &args.current)?;
    println!(
        "synthesis wall time: baseline {base_ms:.1} ms, current {cur_ms:.1} ms \
         (informational; hosts differ)"
    );

    Ok(failures)
}

/// Gates one in-process reference-arm block (`espresso`, `verify`, `npn`):
/// its item count `count` is exact, and its `speedup` (oracle wall over
/// production wall, same process, one thread) may not fall below
/// `max(1.0, baseline × (1 − tolerance))`.
fn gate_reference_arm(
    args: &Args,
    baseline: &Value,
    current: &Value,
    block: &str,
    count: &str,
    label: &str,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let arm = |doc: &Value, path: &str| {
        doc.get(block).cloned().ok_or_else(|| format!("{path}: missing {block} block"))
    };
    let (base_arm, cur_arm) = (arm(baseline, &args.baseline)?, arm(current, &args.current)?);
    let b = u64_field(&base_arm, count, &args.baseline)?;
    let c = u64_field(&cur_arm, count, &args.current)?;
    if b != c {
        failures.push(format!("{block}.{count} differs: baseline {b} vs current {c}"));
    }
    let base_speedup = f64_field(&base_arm, "speedup", &args.baseline)?;
    let cur_speedup = f64_field(&cur_arm, "speedup", &args.current)?;
    let floor = (base_speedup * (1.0 - args.tolerance)).max(1.0);
    println!(
        "{label}: baseline {base_speedup:.2}x, current {cur_speedup:.2}x \
         (floor {floor:.2}x, tolerance {})",
        args.tolerance
    );
    if cur_speedup < floor {
        failures.push(format!(
            "{block} speedup regression: {cur_speedup:.2}x fell below the floor {floor:.2}x \
             (baseline {base_speedup:.2}x, tolerance {})",
            args.tolerance
        ));
    }
    Ok(())
}

/// The service-schema gate: exact on the seeded workload shape and the
/// zero-error requirement, tolerance-banded on the measured cache effect.
fn run_service(args: &Args, baseline: &Value, current: &Value) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();

    for key in ["requests", "synthesize", "decompose", "connections", "num_vars", "bases"] {
        let b = u64_field(baseline, key, &args.baseline)?;
        let c = u64_field(current, key, &args.current)?;
        if b != c {
            failures.push(format!("{key} differs: baseline {b} vs current {c}"));
        }
    }
    let errors = u64_field(current, "errors", &args.current)?;
    if errors != 0 {
        failures.push(format!("{errors} responses were not ok/verified"));
    }

    let base_speedup = f64_field(baseline, "speedup", &args.baseline)?;
    let cur_speedup = f64_field(current, "speedup", &args.current)?;
    let floor = (base_speedup * (1.0 - args.tolerance)).max(1.0);
    println!(
        "cached-over-cold throughput: baseline {base_speedup:.2}x, current {cur_speedup:.2}x \
         (floor {floor:.2}x, tolerance {})",
        args.tolerance
    );
    if cur_speedup < floor {
        failures.push(format!(
            "cache speedup regression: {cur_speedup:.2}x fell below the floor {floor:.2}x \
             (baseline {base_speedup:.2}x, tolerance {})",
            args.tolerance
        ));
    }

    gate_reference_arm(
        args,
        baseline,
        current,
        "npn",
        "functions",
        "word-parallel NPN canonicalization over the per-minterm path",
        &mut failures,
    )?;

    let base_hit_rate = f64_field(baseline, "hit_rate", &args.baseline)?;
    let cur_hit_rate = f64_field(current, "hit_rate", &args.current)?;
    println!(
        "cached-arm hit rate: baseline {:.1}%, current {:.1}% (floor {:.1}%)",
        base_hit_rate * 100.0,
        cur_hit_rate * 100.0,
        (base_hit_rate - 0.05) * 100.0
    );
    if cur_hit_rate < base_hit_rate - 0.05 {
        failures.push(format!(
            "hit-rate regression: {:.3} fell more than 5 points below the baseline {:.3}",
            cur_hit_rate, base_hit_rate
        ));
    }

    for arm in ["cold", "cached"] {
        let b = baseline.get(arm).ok_or_else(|| format!("{}: missing {arm} arm", args.baseline))?;
        let c = current.get(arm).ok_or_else(|| format!("{}: missing {arm} arm", args.current))?;
        println!(
            "{arm} arm: baseline p50 {:.2} ms / p99 {:.2} ms, current p50 {:.2} ms / \
             p99 {:.2} ms (informational; hosts differ)",
            f64_field(b, "p50_ms", &args.baseline)?,
            f64_field(b, "p99_ms", &args.baseline)?,
            f64_field(c, "p50_ms", &args.current)?,
            f64_field(c, "p99_ms", &args.current)?,
        );
    }

    // --- Robustness counters (exact when the baseline carries them) ---
    // A happy-path load run must not shed, time out, panic or reject: the
    // baseline records all-zero counters, and any non-zero drift means the
    // admission control or panic isolation misfired on a clean workload.
    if let Some(base_rob) = baseline.get("robustness") {
        let cur_rob = current
            .get("robustness")
            .ok_or_else(|| format!("{}: missing robustness block", args.current))?;
        for key in [
            "sheds",
            "timeouts",
            "panics",
            "rejected_connections",
            "slow_clients",
            "line_overflows",
        ] {
            let b = u64_field(base_rob, key, &args.baseline)?;
            let c = u64_field(cur_rob, key, &args.current)?;
            if b != c {
                failures.push(format!("robustness.{key} differs: baseline {b} vs current {c}"));
            }
        }
        println!("robustness counters: compared exactly (clean run must stay clean)");
    }

    // --- Server-side observability scrape (gated when the baseline carries
    // one) --- the `metrics` verb's view of the same run: the counter name
    // set is pinned exactly (instrumentation must not silently appear or
    // vanish), zero panics, and — both arms replaying the same workload —
    // the server must have counted exactly twice the client-side verb
    // totals, or a request was lost or double-counted somewhere between
    // admission and reply.
    if let Some(base_scrape) = baseline.get("scrape") {
        let cur_scrape = current
            .get("scrape")
            .ok_or_else(|| format!("{}: missing scrape block", args.current))?;
        gate_scrape(args, baseline, current, base_scrape, cur_scrape, &mut failures)?;
    }

    Ok(failures)
}

/// A counter of a scrape block (`service_loadgen --scrape`).
fn counter(scrape: &Value, name: &str, path: &str) -> Result<u64, String> {
    scrape
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{path}: scrape block lacks the counter '{name}'"))
}

/// A service run's server-side synthesize compute: the mean per cache hit
/// (`engine.hit_nanos`) and per synthesizer run (`engine.synthesis_nanos`
/// over the cold arm's bypasses plus the cached arm's misses).
struct SynthCompute {
    hits: u64,
    runs: u64,
    hit_ms: f64,
    miss_ms: f64,
}

impl SynthCompute {
    fn of(doc: &Value, scrape: &Value, path: &str) -> Result<SynthCompute, String> {
        let cached_arm = doc.get("cached").ok_or_else(|| format!("{path}: missing cached arm"))?;
        let hits = u64_field(cached_arm, "synthesize_hits", path)?;
        let runs = (2 * u64_field(doc, "synthesize", path)?).saturating_sub(hits);
        let mean_ms = |name: &str, n: u64| -> Result<f64, String> {
            Ok(counter(scrape, name, path)? as f64 / n.max(1) as f64 / 1e6)
        };
        Ok(SynthCompute {
            hits,
            runs,
            hit_ms: mean_ms("engine.hit_nanos", hits)?,
            miss_ms: mean_ms("engine.synthesis_nanos", runs)?,
        })
    }

    /// Compute per synthesizer run over compute per hit.
    fn ratio(&self) -> f64 {
        self.miss_ms / self.hit_ms.max(1e-9)
    }
}

/// The scrape-block checks of the service gate (see [`run_service`]).
fn gate_scrape(
    args: &Args,
    baseline: &Value,
    current: &Value,
    base_scrape: &Value,
    cur_scrape: &Value,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let schema = cur_scrape.get("schema").and_then(Value::as_str);
    if schema != Some("bidecomp-metrics-v1") {
        failures.push(format!("scrape schema is {schema:?}, expected bidecomp-metrics-v1"));
    }
    let names_of = |scrape: &Value, path: &str| -> Result<Vec<String>, String> {
        match scrape.get("counters") {
            Some(Value::Object(fields)) => {
                Ok(fields.iter().map(|(name, _)| name.clone()).collect())
            }
            _ => Err(format!("{path}: scrape block lacks a counters object")),
        }
    };
    let base_names = names_of(base_scrape, &args.baseline)?;
    let cur_names = names_of(cur_scrape, &args.current)?;
    println!("scrape counter name set: {} names (compared exactly)", base_names.len());
    if base_names != cur_names {
        for name in &base_names {
            if !cur_names.contains(name) {
                failures.push(format!("scrape counter '{name}' vanished from the current run"));
            }
        }
        for name in &cur_names {
            if !base_names.contains(name) {
                failures.push(format!("scrape counter '{name}' appeared without a baseline"));
            }
        }
    }
    let panics = counter(cur_scrape, "server.panics", &args.current)?;
    if panics != 0 {
        failures.push(format!("server counted {panics} panic(s) during a happy-path run"));
    }

    // Cache accounting: the cache sits in front of whole requests, so each
    // cached-arm request is either turned away by the doorkeeper (the first
    // sighting of its NPN signature) or exactly one lookup, and the no_cache
    // arm touches neither; every server-side hit is a `cache: hit` reply.
    let hits = counter(cur_scrape, "cache.hits", &args.current)?;
    let lookups = hits + counter(cur_scrape, "cache.misses", &args.current)?;
    let not_admitted = counter(cur_scrape, "cache.not_admitted", &args.current)?;
    let requests = u64_field(current, "requests", &args.current)?;
    println!(
        "cache lookups: {lookups} for {requests} cached-arm request(s), {hits} hit(s), \
         {not_admitted} not admitted"
    );
    if lookups + not_admitted != requests {
        failures.push(format!(
            "cache accounting: cache.hits + cache.misses + cache.not_admitted = {lookups} + \
             {not_admitted}, the cached arm sent {requests} request(s)"
        ));
    }
    // The doorkeeper turns each distinct signature of the arm away exactly
    // once, whatever the interleaving (its test-and-set is one atomic word
    // operation), so the count is deterministic and compared exactly.
    let base_not_admitted = counter(base_scrape, "cache.not_admitted", &args.baseline)?;
    if not_admitted != base_not_admitted {
        failures.push(format!(
            "cache.not_admitted differs: baseline {base_not_admitted} vs current {not_admitted}"
        ));
    }
    let cached_arm =
        current.get("cached").ok_or_else(|| format!("{}: missing cached arm", args.current))?;
    let client_hits = u64_field(cached_arm, "hits", &args.current)?;
    if hits != client_hits {
        failures.push(format!(
            "the server counted {hits} cache hit(s), the cached arm's replies {client_hits}"
        ));
    }

    // Hit-over-miss server compute (gated): the queue-free cost of a
    // synthesizer run over that of a synthesize hit, each side's ratio from
    // its own scrape. Unlike the client rps ratio it holds no queue wait, so
    // it measures what the cache saves per request. A hit is ~20 µs of
    // allocation-heavy work that a single preemption can double, and the
    // ratio moves with the host's memory-vs-compute balance, so the band is
    // the wide cross-host one of the latency ceiling below: the floor is
    // `baseline / (1 + 4 × tolerance)`. A hit that re-synthesizes reads ~1x.
    let base = SynthCompute::of(baseline, base_scrape, &args.baseline)?;
    let cur = SynthCompute::of(current, cur_scrape, &args.current)?;
    if base.hits == 0 {
        return Err(format!("{}: the baseline's cached arm has no synthesize hit", args.baseline));
    }
    let floor = (base.ratio() / (1.0 + 4.0 * args.tolerance)).max(1.0);
    println!(
        "server-side synthesize compute (no queue wait): hit {:.3} ms x {}, miss {:.3} ms x {} \
         ({:.1}x; baseline {:.1}x, floor {floor:.1}x, 4 x tolerance {}); canonicalize {:.3} ms x \
         {lookups}",
        cur.hit_ms,
        cur.hits,
        cur.miss_ms,
        cur.runs,
        cur.ratio(),
        base.ratio(),
        args.tolerance,
        counter(cur_scrape, "engine.canonicalize_nanos", &args.current)? as f64
            / lookups.max(1) as f64
            / 1e6,
    );
    if cur.hits == 0 {
        failures.push("the cached arm served no synthesize hit".to_string());
    } else if cur.ratio() < floor {
        failures.push(format!(
            "hit-over-miss compute regression: {:.1}x fell below the floor {floor:.1}x \
             (baseline {:.1}x, 4 x tolerance {})",
            cur.ratio(),
            base.ratio(),
            args.tolerance
        ));
    }

    // Zero-lost accounting: cold + cached arms each replay the workload once.
    for (verb, counter_name, workload_key) in [
        ("decompose", "server.decompose", "decompose"),
        ("synthesize", "server.synthesize", "synthesize"),
    ] {
        let expected = 2 * u64_field(current, workload_key, &args.current)?;
        let counted = counter(cur_scrape, counter_name, &args.current)?;
        if counted != expected {
            failures.push(format!(
                "server counted {counted} {verb} request(s), the two arms sent {expected}"
            ));
        }
        let hist = |scrape: &Value, path: &str| -> Result<Value, String> {
            scrape
                .get("verbs")
                .and_then(|v| v.get(verb))
                .cloned()
                .ok_or_else(|| format!("{path}: scrape block lacks the {verb} verb"))
        };
        let cur_verb = hist(cur_scrape, &args.current)?;
        let observed = u64_field(&cur_verb, "count", &args.current)?;
        if observed != expected {
            failures.push(format!(
                "server-side {verb} latency histogram holds {observed} sample(s), \
                 the two arms sent {expected}"
            ));
        }
        let (p50, p99) = (
            f64_field(&cur_verb, "p50_ms", &args.current)?,
            f64_field(&cur_verb, "p99_ms", &args.current)?,
        );
        if p50 > p99 {
            failures.push(format!("server-side {verb} p50 {p50} ms exceeds its p99 {p99} ms"));
        }
        // Server-side latency ceiling: absolute latencies vary across hosts
        // far more than same-process ratios do, so the band is deliberately
        // wide — 4× the ratio tolerance — and only catches order-of-magnitude
        // regressions (a lock suddenly serializing the drain loop).
        let base_verb = hist(base_scrape, &args.baseline)?;
        let base_p99 = f64_field(&base_verb, "p99_ms", &args.baseline)?;
        let ceiling = base_p99 * (1.0 + 4.0 * args.tolerance);
        println!(
            "server-side {verb} latency: baseline p50 {:.2} ms / p99 {base_p99:.2} ms, \
             current p50 {p50:.2} ms / p99 {p99:.2} ms (ceiling {ceiling:.2} ms)",
            f64_field(&base_verb, "p50_ms", &args.baseline)?,
        );
        if base_p99 > 0.0 && p99 > ceiling {
            failures.push(format!(
                "server-side {verb} p99 regression: {p99:.2} ms exceeds the ceiling \
                 {ceiling:.2} ms (baseline {base_p99:.2} ms, 4 x tolerance {})",
                args.tolerance
            ));
        }
    }
    Ok(())
}

/// The obs-overhead gate: the observability layer's cost, measured by the
/// `obs_overhead` binary as a same-process min-of-reps wall ratio, must stay
/// at or under `1 + tolerance`. The ratio is hardware-independent, so the
/// ceiling is absolute rather than relative to the baseline's own ratio —
/// the committed baseline documents the expected suite/job shape and a
/// healthy reference ratio.
fn run_obs_overhead(args: &Args, baseline: &Value, current: &Value) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();

    let base_suite = baseline.get("suite").and_then(Value::as_str).unwrap_or("?");
    let cur_suite = current.get("suite").and_then(Value::as_str).unwrap_or("?");
    if base_suite != cur_suite {
        failures.push(format!("suite differs: baseline '{base_suite}' vs current '{cur_suite}'"));
    }
    let base_jobs = u64_field(baseline, "jobs", &args.baseline)?;
    let cur_jobs = u64_field(current, "jobs", &args.current)?;
    if base_jobs != cur_jobs {
        failures.push(format!("jobs differ: baseline {base_jobs} vs current {cur_jobs}"));
    }

    let base_ratio = f64_field(baseline, "overhead_ratio", &args.baseline)?;
    let cur_ratio = f64_field(current, "overhead_ratio", &args.current)?;
    let ceiling = 1.0 + args.tolerance;
    println!(
        "observability overhead: baseline ratio {base_ratio:.3}, current {cur_ratio:.3} \
         (ceiling {ceiling:.3}, tolerance {})",
        args.tolerance
    );
    if cur_ratio > ceiling {
        failures.push(format!(
            "observability overhead regression: ratio {cur_ratio:.3} exceeds the ceiling \
             {ceiling:.3} (instrumentation must stay effectively free)"
        ));
    }
    println!(
        "sweep walls: baseline {:.1}/{:.1} ms off/on, current {:.1}/{:.1} ms \
         (informational; hosts differ)",
        u64_field(baseline, "wall_off_micros", &args.baseline)? as f64 / 1000.0,
        u64_field(baseline, "wall_on_micros", &args.baseline)? as f64 / 1000.0,
        u64_field(current, "wall_off_micros", &args.current)? as f64 / 1000.0,
        u64_field(current, "wall_on_micros", &args.current)? as f64 / 1000.0,
    );

    Ok(failures)
}

/// The chaos-schema gate: the workload shape and seeded fault rates are
/// exact, and the correctness contract is absolute — the retrying client
/// must lose **zero** requests and see **zero** corrupted replies even
/// while the server is panicking, stalling and dropping connections under
/// it, and the server must answer a clean recovery burst once the faults
/// are disarmed. Retry/shed/panic tallies and latencies depend on thread
/// timing and are reported, never compared; `--tolerance` is ignored.
fn run_service_chaos(
    args: &Args,
    baseline: &Value,
    current: &Value,
) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();

    for key in ["requests", "connections", "num_vars", "bases", "recovery_requests"] {
        let b = u64_field(baseline, key, &args.baseline)?;
        let c = u64_field(current, key, &args.current)?;
        if b != c {
            failures.push(format!("{key} differs: baseline {b} vs current {c}"));
        }
    }
    let base_faults =
        baseline.get("faults").ok_or_else(|| format!("{}: missing faults block", args.baseline))?;
    let cur_faults =
        current.get("faults").ok_or_else(|| format!("{}: missing faults block", args.current))?;
    for key in ["panic_per_mille", "delay_per_mille", "delay_ms", "drop_per_mille"] {
        let b = u64_field(base_faults, key, &args.baseline)?;
        let c = u64_field(cur_faults, key, &args.current)?;
        if b != c {
            failures.push(format!("faults.{key} differs: baseline {b} vs current {c}"));
        }
    }

    let requests = u64_field(current, "requests", &args.current)?;
    let completed = u64_field(current, "completed", &args.current)?;
    if completed != requests {
        failures.push(format!("only {completed} of {requests} storm requests completed"));
    }
    for key in ["lost", "corrupted", "recovery_errors"] {
        let n = u64_field(current, key, &args.current)?;
        if n != 0 {
            failures.push(format!("{n} {key} response(s) under fault injection"));
        }
    }
    match current.get("recovered").and_then(Value::as_bool) {
        Some(true) => {}
        other => failures.push(format!(
            "server did not recover cleanly after disarming faults (recovered = {other:?})"
        )),
    }

    println!(
        "chaos storm: {completed}/{requests} completed | {} retries ({} overloads, \
         {} internals, {} reconnects) | server saw {} sheds / {} panics / {} timeouts",
        u64_field(current, "retries", &args.current)?,
        u64_field(current, "overloads_seen", &args.current)?,
        u64_field(current, "internal_seen", &args.current)?,
        u64_field(current, "reconnects", &args.current)?,
        current.get("server").and_then(|s| s.get("sheds")).and_then(Value::as_u64).unwrap_or(0),
        current.get("server").and_then(|s| s.get("panics")).and_then(Value::as_u64).unwrap_or(0),
        current.get("server").and_then(|s| s.get("timeouts")).and_then(Value::as_u64).unwrap_or(0),
    );
    println!(
        "chaos latency: baseline p50 {:.2} ms / p99 {:.2} ms, current p50 {:.2} ms / \
         p99 {:.2} ms (informational; hosts differ)",
        f64_field(baseline, "p50_ms", &args.baseline)?,
        f64_field(baseline, "p99_ms", &args.baseline)?,
        f64_field(current, "p50_ms", &args.current)?,
        f64_field(current, "p99_ms", &args.current)?,
    );

    Ok(failures)
}

fn main() -> ExitCode {
    let args = parse_args();
    match run(&args) {
        Err(message) => {
            eprintln!("regress: {message}");
            ExitCode::FAILURE
        }
        Ok(failures) if failures.is_empty() => {
            println!("regress: OK — current run matches the baseline");
            ExitCode::SUCCESS
        }
        Ok(failures) => {
            for failure in &failures {
                eprintln!("regress: FAIL — {failure}");
            }
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SERVICE_BASELINE: &str = include_str!("../../../../BENCH_service_baseline.json");

    fn args() -> Args {
        Args {
            baseline: "baseline".to_string(),
            current: "current".to_string(),
            tolerance: 0.35,
            node_tolerance: 0.05,
        }
    }

    fn baseline() -> Value {
        Value::parse(SERVICE_BASELINE).expect("the committed service baseline parses")
    }

    /// A copy of the committed service baseline with one scrape counter
    /// moved by `delta`.
    fn perturbed(name: &str, delta: i64) -> Value {
        let mut doc = baseline();
        let cell =
            ["scrape", "counters", name].into_iter().fold(&mut doc, |value, key| match value {
                Value::Object(fields) => {
                    &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1
                }
                other => panic!("{key}: not an object: {other}"),
            });
        let value = cell.as_u64().expect("a counter") as i64 + delta;
        *cell = bidecomp_bench::json::num(value as u64);
        doc
    }

    fn service_failures(current: &Value) -> Vec<String> {
        run_service(&args(), &baseline(), current).expect("the documents are well-formed")
    }

    #[test]
    fn the_committed_service_baseline_passes_against_itself() {
        assert_eq!(service_failures(&baseline()), Vec::<String>::new());
    }

    #[test]
    fn not_admitted_is_compared_exactly() {
        for delta in [-1, 1] {
            let failures = service_failures(&perturbed("cache.not_admitted", delta));
            assert!(
                failures.iter().any(|f| f.starts_with("cache.not_admitted differs")),
                "delta {delta}: {failures:?}"
            );
        }
    }

    #[test]
    fn cache_accounting_must_balance() {
        for delta in [-1, 1] {
            let failures = service_failures(&perturbed("cache.misses", delta));
            assert!(
                failures
                    .iter()
                    .any(|f| f.starts_with("cache accounting") && f.contains("cache.misses")),
                "delta {delta}: {failures:?}"
            );
        }
    }
}
