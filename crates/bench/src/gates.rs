//! The `regress` gates as data: one spec table per `BENCH_*` artifact
//! schema, and one walker that evaluates any of them.
//!
//! A document is flattened into leaves addressed by `/`-separated paths.
//! Row arrays are keyed, not indexed: the synth sweep's row for output 3 of
//! `bcb` is `instances[bcb,3]`, so its gate count is the leaf
//! `instances[bcb,3]/gates`, matched by the spec pattern `instances[]/gates`.
//! A pattern ending in `/*` matches every key of one object, such as the
//! scrape's counter map.
//!
//! Each field spec pairs a `Check` with the patterns it covers. A
//! `Band` is fixed by the artifact's spec, with the reason behind it, so
//! the command line carries no tolerance. `Accounting` equations tie
//! counters of the current run together, and `Derived` values (the
//! hit-over-miss compute ratio) are computed from several leaves of each
//! document and then banded like a field.
//!
//! The unit tests hold the tables to three rules: every leaf of every
//! committed baseline is listed by some spec; every gated leaf moved past
//! its band, or deleted, fails with a verdict that names it; and every
//! informational leaf may move tenfold without failing.

use std::collections::{BTreeMap, BTreeSet};

use crate::json::Value;

/// How a leaf of the current run is judged against the baseline's.
#[derive(Clone, Copy)]
enum Check {
    /// Equal to the baseline. Numbers may differ by 1e-6, which absorbs
    /// decimal-text round-tripping of the rounded areas and gains.
    Exact,
    /// At least the band's bound.
    Floor(Band),
    /// At most the band's bound.
    Ceiling(Band),
    /// The leaf must exist in both runs; its value is not compared. This
    /// pins a name set: instrumentation must not silently appear or vanish.
    Present,
    /// Reported, never compared: walls, rates and anything else that
    /// depends on the host.
    Informational,
}

/// A named bound computed from the baseline's value. Booleans read as 0
/// and 1, so `Floor(TRUE)` requires `true`.
#[derive(Clone, Copy)]
struct Band {
    /// The name the verdict quotes.
    name: &'static str,
    /// The bound, from the baseline's value.
    bound: fn(f64) -> f64,
}

/// Same-process, one-thread, min-of-reps wall ratios of a production path
/// over its oracle (`sweep`'s quotient job body, `synth_sweep`'s espresso,
/// verify, widen, tables, remove-covered and merge arms). The ratio does
/// not depend on machine speed or core count, and a quarter of the
/// baseline absorbs noisy shared CI runners while still catching the hot
/// path regressing toward the oracle (for an arm whose baseline is under
/// 4x, only down to parity with it).
const SPEED_RATIO: Band = Band { name: "speed-ratio", bound: |b| (b * 0.25).max(1.0) };

/// The service's cached-over-cold throughput and its NPN arm. Both arms run
/// in one process against one server, so the ratio is comparable across
/// hosts; 65% of the baseline sits below the spread of local runs.
const SERVICE_RATIO: Band = Band { name: "service-ratio", bound: |b| (b * 0.65).max(1.0) };

/// The cached arm's hit rate may dip 5 points: concurrent first sightings
/// of one NPN class can steal a handful of hits. A cache that never admits
/// loses far more.
const HIT_RATE: Band = Band { name: "hit-rate", bound: |b| b - 0.05 };

/// Server-side p99 latencies: absolute times differ across hosts far more
/// than same-process ratios do, so the ceiling only catches
/// order-of-magnitude regressions, such as a lock serializing the drain
/// loop.
const CROSS_HOST_LATENCY: Band = Band { name: "cross-host-latency", bound: |b| b * 2.4 };

/// The queue-free hit-over-miss compute ratio. A hit is ~20 µs of
/// allocation-heavy work that one preemption can double, and the ratio
/// moves with the host's memory-versus-compute balance, so its band is as
/// wide as the latency ceiling. A hit that re-synthesizes reads ~1x.
const CROSS_HOST_RATIO: Band = Band { name: "cross-host-ratio", bound: |b| (b / 2.4).max(1.0) };

/// The peak live BDD node count is deterministic (fixed suite, seeded
/// divisors, sifting with no time-based trigger), so 5% is pure headroom
/// for deliberate small algorithmic changes.
const NODE_HEADROOM: Band = Band { name: "node-headroom", bound: |b| (b * 1.05).floor() };

/// Counts that must be zero whatever the baseline says: errors, lost or
/// corrupted replies, judge disagreements, panics on a happy path.
const ZERO: Band = Band { name: "zero", bound: |_| 0.0 };

/// At least one: the cached arm must serve a synthesize hit.
const ONE: Band = Band { name: "one", bound: |_| 1.0 };

/// Verdicts that must hold whatever the baseline says.
const TRUE: Band = Band { name: "true", bound: |_| 1.0 };

/// Instrumentation must stay effectively free: the metrics-on over
/// metrics-off sweep wall is a same-process ratio, so the ceiling is
/// absolute rather than relative to the baseline's own ratio.
const OBS_OVERHEAD: Band = Band { name: "obs-overhead", bound: |_| 1.10 };

/// An equation over leaves of the current run:
/// `sum(terms) = times × of`, or `sum(terms) ≤ times × of`.
struct Accounting {
    /// The summed leaves.
    terms: &'static [&'static str],
    /// `≤` instead of `=`.
    at_most: bool,
    /// The factor on `of`.
    times: f64,
    /// The leaf the sum is held to.
    of: &'static str,
}

impl Accounting {
    const fn equals(terms: &'static [&'static str], times: f64, of: &'static str) -> Self {
        Accounting { terms, at_most: false, times, of }
    }

    const fn at_most(terms: &'static [&'static str], of: &'static str) -> Self {
        Accounting { terms, at_most: true, times: 1.0, of }
    }
}

/// A value computed from several leaves of each document, then judged
/// like a field.
struct Derived {
    /// What the verdict calls it.
    name: &'static str,
    /// The leaves `value` reads, in order.
    inputs: &'static [&'static str],
    /// The value, from the inputs.
    value: fn(&[f64]) -> f64,
    /// How the current value is judged against the baseline's.
    check: Check,
}

/// One artifact schema's gates.
struct Schema {
    /// The `schema` string that selects this table.
    id: &'static str,
    /// Row arrays, and the fields that key their rows.
    rows: &'static [(&'static str, &'static [&'static str])],
    /// Field specs: a check and the patterns it covers.
    fields: &'static [(Check, &'static [&'static str])],
    /// Equations over the current run's counters.
    accounting: &'static [Accounting],
    /// Derived values.
    derived: &'static [Derived],
}

use Check::{Ceiling, Exact, Floor, Informational, Present};

/// `sweep`: the dense Table II batch engine on the whole suite.
const SWEEP: Schema = Schema {
    id: "bidecomp-sweep-v1",
    rows: &[("operators", &["op"])],
    fields: &[
        (Exact, &["suite", "jobs", "verified", "maximal"]),
        (Exact, &["operators[]/op", "operators[]/jobs", "operators[]/verified"]),
        (Exact, &["operators[]/maximal", "operators[]/on_minterms", "operators[]/dc_minterms"]),
        (Exact, &["operators[]/divisor_errors"]),
        (Floor(SPEED_RATIO), &["speedup"]),
        (Informational, &["threads", "engine_wall_ms", "engine_wall_1t_ms", "sequential_wall_ms"]),
        (Informational, &["operators[]/wall_ms"]),
    ],
    accounting: &[],
    derived: &[],
};

/// `bdd_sweep`: the symbolic backend on the 24–40-variable suite.
const BDD_SWEEP: Schema = Schema {
    id: "bidecomp-bdd-sweep-v1",
    rows: &[("operators", &["op"])],
    fields: &[
        (Exact, &["backend", "reorder", "max_vars", "suite", "jobs", "verified", "maximal"]),
        (Exact, &["operators[]/op", "operators[]/jobs", "operators[]/verified"]),
        (Exact, &["operators[]/maximal", "operators[]/on_minterms", "operators[]/dc_minterms"]),
        (Exact, &["operators[]/divisor_errors"]),
        (Ceiling(NODE_HEADROOM), &["peak_bdd_nodes"]),
        (Informational, &["threads", "engine_wall_ms"]),
        (Informational, &["operators[]/wall_ms"]),
    ],
    accounting: &[],
    derived: &[],
};

/// `synth_sweep`: every row, total and fingerprint is deterministic.
const SYNTH: Schema = Schema {
    id: "bidecomp-synth-v1",
    rows: &[("instances", &["instance", "output"])],
    fields: &[
        (Exact, &["suite", "jobs", "verified", "total_gates", "total_branches"]),
        (Exact, &["average_gain_percent", "espresso/functions", "verify/networks"]),
        (Exact, &["widen/functions", "tables/functions", "remove_covered/functions"]),
        (Exact, &["merge/covers"]),
        (Exact, &["memo/requested", "memo/answered"]),
        // Every cold-shaped synthesis bit-identical: gates, branches, area
        // bits and memo counts of 800 seeded functions, hashed.
        (Exact, &["cold/functions", "cold/fingerprint"]),
        (Exact, &["instances[]/instance", "instances[]/output", "instances[]/num_vars"]),
        (Exact, &["instances[]/gates", "instances[]/depth", "instances[]/branches"]),
        (Exact, &["instances[]/mapped_area", "instances[]/flat_area", "instances[]/gain_percent"]),
        (Exact, &["instances[]/verified"]),
        (Floor(SPEED_RATIO), &["espresso/speedup", "verify/speedup", "widen/speedup"]),
        (Floor(SPEED_RATIO), &["tables/speedup", "remove_covered/speedup", "merge/speedup"]),
        (Informational, &["threads", "wall_ms", "espresso/dense_ms", "espresso/cube_list_ms"]),
        (Informational, &["verify/word_ms", "verify/per_minterm_ms"]),
        (Informational, &["widen/word_ms", "widen/per_expansion_ms"]),
        (Informational, &["tables/word_ms", "tables/per_minterm_ms"]),
        (Informational, &["remove_covered/linear_ms", "remove_covered/pairwise_ms"]),
        (Informational, &["merge/guarded_ms", "merge/rounds_ms"]),
        (Informational, &["cold/ms_per_function/*"]),
    ],
    accounting: &[],
    derived: &[],
};

/// `service_loadgen --scrape`: the seeded workload against `bidecompd`,
/// once with `no_cache` (the cold arm) and once cached.
const SERVICE: Schema = Schema {
    id: "bidecomp-service-v1",
    rows: &[],
    fields: &[
        (Exact, &["requests", "synthesize", "decompose", "connections", "num_vars", "bases"]),
        (Exact, &["repeat_ratio", "cold/hits", "cold/synthesize_hits", "npn/functions"]),
        (Exact, &["robustness/*", "scrape/schema"]),
        // The doorkeeper turns each distinct NPN signature of the cached arm
        // away exactly once, whatever the interleaving.
        (Exact, &["scrape/counters/cache.not_admitted"]),
        (Present, &["scrape/counters/*"]),
        (Ceiling(ZERO), &["errors", "scrape/counters/server.panics"]),
        (Floor(SERVICE_RATIO), &["speedup", "npn/speedup"]),
        (Floor(HIT_RATE), &["hit_rate"]),
        (Floor(ONE), &["cached/synthesize_hits"]),
        (Ceiling(CROSS_HOST_LATENCY), &["scrape/verbs/decompose/p99_ms"]),
        (Ceiling(CROSS_HOST_LATENCY), &["scrape/verbs/synthesize/p99_ms"]),
        (Informational, &["cold/rps", "cold/p50_ms", "cold/p99_ms", "cold/wall_ms"]),
        (Informational, &["cached/rps", "cached/p50_ms", "cached/p99_ms", "cached/wall_ms"]),
        (Informational, &["npn/word_ms", "npn/per_minterm_ms"]),
    ],
    accounting: &[
        // Each cached-arm request is turned away by the doorkeeper (the
        // first sighting of its NPN signature) or does exactly one lookup;
        // the no_cache arm touches neither. Every server-side hit is a
        // `cache: hit` reply.
        Accounting::equals(
            &[
                "scrape/counters/cache.hits",
                "scrape/counters/cache.misses",
                "scrape/counters/cache.not_admitted",
            ],
            1.0,
            "requests",
        ),
        Accounting::equals(&["scrape/counters/cache.hits"], 1.0, "cached/hits"),
        // Both arms replay the workload once: any gap means a request was
        // lost or double-counted between admission and reply.
        Accounting::equals(&["scrape/counters/server.decompose"], 2.0, "decompose"),
        Accounting::equals(&["scrape/counters/server.synthesize"], 2.0, "synthesize"),
        Accounting::equals(&["scrape/verbs/decompose/count"], 2.0, "decompose"),
        Accounting::equals(&["scrape/verbs/synthesize/count"], 2.0, "synthesize"),
        Accounting::at_most(&["scrape/verbs/decompose/p50_ms"], "scrape/verbs/decompose/p99_ms"),
        Accounting::at_most(&["scrape/verbs/synthesize/p50_ms"], "scrape/verbs/synthesize/p99_ms"),
    ],
    // Server compute per synthesizer run (the cold arm's bypasses plus the
    // cached arm's misses) over compute per synthesize hit. Unlike the
    // client rps ratio it holds no queue wait, so it measures what the
    // cache saves per request.
    derived: &[Derived {
        name: "hit-over-miss compute ratio",
        inputs: &[
            "scrape/counters/engine.synthesis_nanos",
            "scrape/counters/engine.hit_nanos",
            "cached/synthesize_hits",
            "synthesize",
        ],
        value: |x| (x[0] / (2.0 * x[3] - x[2]).max(1.0)) / (x[1] / x[2].max(1.0)).max(1e-3),
        check: Floor(CROSS_HOST_RATIO),
    }],
};

/// `service_loadgen --chaos`: the correctness contract under injected
/// faults is absolute. Retry, shed and panic tallies depend on thread
/// timing.
const CHAOS: Schema = Schema {
    id: "bidecomp-service-chaos-v1",
    rows: &[],
    fields: &[
        (Exact, &["requests", "connections", "num_vars", "bases", "repeat_ratio"]),
        (Exact, &["recovery_requests", "faults/*"]),
        (Ceiling(ZERO), &["lost", "corrupted", "recovery_errors"]),
        (Floor(TRUE), &["recovered"]),
        (Informational, &["retries", "overloads_seen", "internal_seen", "reconnects"]),
        (Informational, &["p50_ms", "p99_ms", "storm_wall_s", "server/*"]),
    ],
    accounting: &[Accounting::equals(&["completed"], 1.0, "requests")],
    derived: &[],
};

/// `oracle_fuzz`: seeded corpus, seeded divisors and a complete SAT
/// solver, so everything but the wall is exact; the three judges must
/// never disagree and the tamper self-check must reject every corruption.
const ORACLE: Schema = Schema {
    id: "bidecomp-oracle-v1",
    rows: &[],
    fields: &[
        (Exact, &["seed", "cases", "min_vars", "max_vars", "ops", "checks"]),
        (Exact, &["valid_divisors", "invalid_divisors", "tamper_checks", "tamper_lemma"]),
        (Ceiling(ZERO), &["disagreements"]),
        (Floor(TRUE), &["tamper_rejected"]),
        (Informational, &["wall_ms"]),
    ],
    accounting: &[],
    derived: &[],
};

/// `obs_overhead`: the metrics registry's cost on the dense sweep.
const OBS: Schema = Schema {
    id: "bidecomp-obs-overhead-v1",
    rows: &[],
    fields: &[
        (Exact, &["suite", "jobs", "reps"]),
        (Ceiling(OBS_OVERHEAD), &["overhead_ratio"]),
        (Informational, &["threads", "wall_off_micros", "wall_on_micros"]),
    ],
    accounting: &[],
    derived: &[],
};

/// Every schema `regress` understands.
const SCHEMAS: [&Schema; 7] = [&SWEEP, &BDD_SWEEP, &SYNTH, &SERVICE, &CHAOS, &ORACLE, &OBS];

/// What [`compare`] found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Banded, derived and informational values, for the log.
    pub report: Vec<String>,
    /// Every failed check, each naming the leaves it read.
    pub failures: Vec<String>,
}

/// A document's leaves: spec pattern → (leaf path, value) in document order.
type Leaves<'a> = BTreeMap<String, Vec<(String, &'a Value)>>;

/// Gates `current` against `baseline` with the table their common
/// `schema` selects.
///
/// # Errors
///
/// A missing, mismatched or unknown `schema` field.
pub fn compare(baseline: &Value, current: &Value) -> Result<Verdict, String> {
    let [id, current_id] =
        [(baseline, "baseline"), (current, "current run")].map(|(doc, which)| {
            doc.get("schema")
                .and_then(Value::as_str)
                .ok_or(format!("the {which} has no schema field"))
        });
    let (id, current_id) = (id?, current_id?);
    if id != current_id {
        return Err(format!("schema mismatch: baseline is {id}, current is {current_id}"));
    }
    let schema = SCHEMAS.iter().find(|s| s.id == id).ok_or(format!("unknown schema '{id}'"))?;
    let mut verdict = Verdict::default();
    let base = flatten(baseline, schema.rows, "baseline", &mut verdict.failures);
    let cur = flatten(current, schema.rows, "current run", &mut verdict.failures);
    for &(check, patterns) in schema.fields {
        for pattern in patterns {
            verdict.field(check, pattern, &base, &cur);
        }
    }
    for equation in schema.accounting {
        verdict.account(equation, &cur);
    }
    for derived in schema.derived {
        let name = format!("{} ({})", derived.name, derived.inputs.join(", "));
        let values = [(&base, "baseline"), (&cur, "current run")].map(|(doc, which)| {
            let read = |&path: &&'static str| leaf(doc, path).and_then(number).ok_or((path, which));
            let inputs = derived.inputs.iter().map(read).collect::<Result<Vec<f64>, _>>();
            inputs.map(|x| Value::Num((derived.value)(&x)))
        });
        match values {
            [Ok(b), Ok(c)] => verdict.judge(derived.check, &name, &b, &c),
            [Err((path, which)), _] | [_, Err((path, which))] => {
                verdict.failures.push(format!("{path}: missing from the {which} ({name})"))
            }
        }
    }
    Ok(verdict)
}

impl Verdict {
    /// Judges every leaf `pattern` covers.
    fn field(&mut self, check: Check, pattern: &str, base: &Leaves, cur: &Leaves) {
        let gated = !matches!(check, Informational);
        let mut groups = base.iter().filter(|(p, _)| covers(pattern, p)).peekable();
        if groups.peek().is_none() {
            self.failures.push(format!("{pattern}: no such field in the baseline"));
        }
        for (group, members) in groups {
            let current = cur.get(group).map_or(&[][..], Vec::as_slice);
            for (i, (path, b)) in members.iter().enumerate() {
                match find(current, path, i) {
                    Some(c) => self.judge(check, path, b, c),
                    None if gated => {
                        self.failures.push(format!("{path}: missing from the current run"))
                    }
                    None => self
                        .report
                        .push(format!("{path}: baseline {b}, absent from the current run")),
                }
            }
        }
        for (group, members) in cur.iter().filter(|(p, _)| gated && covers(pattern, p)) {
            let baseline = base.get(group).map_or(&[][..], Vec::as_slice);
            for (i, (path, _)) in members.iter().enumerate() {
                if find(baseline, path, i).is_none() {
                    self.failures.push(format!("{path}: appeared without a baseline"));
                }
            }
        }
    }

    fn judge(&mut self, check: Check, path: &str, b: &Value, c: &Value) {
        let (band, floor) = match check {
            Present => return,
            Exact => {
                let same = match (b, c) {
                    (Value::Num(x), Value::Num(y)) => (x - y).abs() <= 1e-6,
                    _ => b == c,
                };
                if !same {
                    self.failures.push(format!("{path}: baseline {b} vs current {c}"));
                }
                return;
            }
            Informational => {
                self.report.push(format!("{path}: baseline {}, current {} (informational)", b, c));
                return;
            }
            Floor(band) => (band, true),
            Ceiling(band) => (band, false),
        };
        let (Some(x), Some(y)) = (number(b), number(c)) else {
            self.failures.push(format!("{path}: not a number (baseline {b}, current {c})"));
            return;
        };
        let bound = (band.bound)(x);
        let (kind, side) = if floor { ("floor", "below") } else { ("ceiling", "above") };
        let band = format!("{} {kind} {}", band.name, show(&Value::Num(bound)));
        let (b, c) = (show(b), show(c));
        if (floor && y < bound) || (!floor && y > bound) {
            self.failures.push(format!("{path}: {c} is {side} the {band} (baseline {b})"));
        } else {
            self.report.push(format!("{path}: baseline {b}, current {c} ({band})"));
        }
    }

    fn account(&mut self, equation: &Accounting, cur: &Leaves) {
        let read = |path: &str| leaf(cur, path).and_then(number).ok_or(path.to_string());
        let sides = equation.terms.iter().map(|t| read(t)).sum::<Result<f64, String>>();
        let sum = match (sides, read(equation.of)) {
            (Ok(sum), Ok(of)) => (sum, equation.times * of),
            (Err(path), _) | (_, Err(path)) => {
                self.failures.push(format!("{path}: missing from the current run (accounting)"));
                return;
            }
        };
        let relation = if equation.at_most { "<=" } else { "=" };
        let of = match equation.times {
            1.0 => equation.of.to_string(),
            times => format!("{times} x {}", equation.of),
        };
        let [lhs, rhs] = [sum.0, sum.1].map(|x| show(&Value::Num(x)));
        let terms = equation.terms.join(" + ");
        let text = format!("{terms} = {lhs}, required {relation} {of} = {rhs}");
        let holds = if equation.at_most { sum.0 <= sum.1 } else { (sum.0 - sum.1).abs() <= 1e-6 };
        if holds {
            self.report.push(format!("accounting holds: {text}"));
        } else {
            self.failures.push(format!("accounting: {text}"));
        }
    }
}

/// Flattens `doc` into its leaves. A row array's rows are keyed by their
/// key fields (`?` for a missing one); a repeated key is a failure.
fn flatten<'a>(
    doc: &'a Value,
    rows: &[(&str, &[&str])],
    which: &str,
    failures: &mut Vec<String>,
) -> Leaves<'a> {
    fn walk<'a>(
        value: &'a Value,
        (path, pattern): (&mut String, &mut String),
        rows: &[(&str, &[&str])],
        out: &mut (Leaves<'a>, Vec<String>),
    ) {
        let (path_len, pattern_len) = (path.len(), pattern.len());
        let keys = rows.iter().find(|(array, _)| *array == path).map(|(_, keys)| keys);
        match (value, keys) {
            (Value::Object(fields), _) => {
                for (key, v) in fields {
                    for s in [&mut *path, &mut *pattern] {
                        if !s.is_empty() {
                            s.push('/');
                        }
                        s.push_str(key);
                    }
                    walk(v, (path, pattern), rows, out);
                    path.truncate(path_len);
                    pattern.truncate(pattern_len);
                }
            }
            (Value::Array(items), Some(keys)) => {
                let mut seen = BTreeSet::new();
                pattern.push_str("[]");
                for item in items {
                    path.push_str(&format!("[{}]", row_key(item, keys)));
                    if !seen.insert(path.clone()) {
                        out.1.push(format!("{path}: a repeated row key"));
                    }
                    walk(item, (path, pattern), rows, out);
                    path.truncate(path_len);
                }
                pattern.truncate(pattern_len);
            }
            _ => match out.0.get_mut(pattern.as_str()) {
                Some(group) => group.push((path.clone(), value)),
                None => drop(out.0.insert(pattern.clone(), vec![(path.clone(), value)])),
            },
        }
    }
    let mut out = (Leaves::new(), Vec::new());
    walk(doc, (&mut String::new(), &mut String::new()), rows, &mut out);
    failures.extend(out.1.into_iter().map(|problem| format!("{problem} in the {which}")));
    out.0
}

/// A row's key fields, comma-separated, `?` for a missing one.
fn row_key(row: &Value, keys: &[&str]) -> String {
    let key = keys.iter().map(|k| match row.get(k) {
        Some(Value::Str(s)) => s.clone(),
        Some(v) => v.to_string(),
        None => "?".to_string(),
    });
    key.collect::<Vec<_>>().join(",")
}

/// Whether spec pattern `pattern` covers the leaves of `leaf_pattern`.
fn covers(pattern: &str, leaf_pattern: &str) -> bool {
    match pattern.strip_suffix('*') {
        Some(prefix) => leaf_pattern.strip_prefix(prefix).is_some_and(|rest| !rest.contains('/')),
        None => pattern == leaf_pattern,
    }
}

/// The leaf at a path outside any row array: there, path and pattern are
/// one string.
fn leaf<'a>(leaves: &Leaves<'a>, path: &str) -> Option<&'a Value> {
    find(leaves.get(path)?, path, 0)
}

/// The value at `path` in `group`, looked for at index `hint` first: the
/// rows of two runs usually line up.
fn find<'a>(group: &[(String, &'a Value)], path: &str, hint: usize) -> Option<&'a Value> {
    match group.get(hint) {
        Some((p, v)) if p == path => Some(*v),
        _ => group.iter().find(|(p, _)| p == path).map(|(_, v)| *v),
    }
}

/// A number, or a boolean as 0 or 1.
fn number(value: &Value) -> Option<f64> {
    match value {
        Value::Num(n) => Some(*n),
        Value::Bool(b) => Some(f64::from(u8::from(*b))),
        _ => None,
    }
}

/// Integers in full, other numbers to three decimals.
fn show(value: &Value) -> String {
    match value {
        Value::Num(x) if x.fract() != 0.0 => format!("{x:.3}"),
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINES: [(&str, &str); 7] = [
        ("BENCH_baseline.json", include_str!("../../../BENCH_baseline.json")),
        ("BENCH_bdd_baseline.json", include_str!("../../../BENCH_bdd_baseline.json")),
        ("BENCH_synth_baseline.json", include_str!("../../../BENCH_synth_baseline.json")),
        ("BENCH_service_baseline.json", include_str!("../../../BENCH_service_baseline.json")),
        (
            "BENCH_service_chaos_baseline.json",
            include_str!("../../../BENCH_service_chaos_baseline.json"),
        ),
        ("BENCH_oracle_baseline.json", include_str!("../../../BENCH_oracle_baseline.json")),
        (
            "BENCH_obs_overhead_baseline.json",
            include_str!("../../../BENCH_obs_overhead_baseline.json"),
        ),
    ];

    /// Each committed baseline: its file name, document, schema and every
    /// leaf but the dispatching `schema` field.
    fn baselines() -> Vec<(&'static str, Value, &'static Schema, BTreeMap<String, Value>)> {
        let load = |&(file, text): &(&'static str, &str)| {
            let doc = Value::parse(text).expect(file);
            let id = doc.get("schema").and_then(Value::as_str).expect(file);
            let schema = *SCHEMAS.iter().find(|s| s.id == id).expect(file);
            let mut problems = Vec::new();
            let leaves = flatten(&doc, schema.rows, "baseline", &mut problems).into_values();
            let leaves: BTreeMap<String, Value> = leaves
                .flatten()
                .filter(|(p, _)| p != "schema")
                .map(|(p, v)| (p, v.clone()))
                .collect();
            assert_eq!(problems, Vec::<String>::new(), "{file}");
            (file, doc, schema, leaves)
        };
        BASELINES.iter().map(load).collect()
    }

    /// A leaf path's spec pattern: `instances[bcb,3]/gates` →
    /// `instances[]/gates`.
    fn pattern_of(path: &str) -> String {
        let mut in_key = false;
        path.chars()
            .filter(|&c| {
                in_key = (in_key || c == '[') && c != ']';
                !in_key || c == '['
            })
            .collect()
    }

    /// A way a spec reads a leaf.
    enum Role {
        Field(Check),
        Term(&'static Accounting),
        Input,
    }

    fn roles(schema: &'static Schema, path: &str) -> Vec<Role> {
        let pattern = pattern_of(path);
        let fields = schema.fields.iter().filter(|(_, ps)| ps.iter().any(|p| covers(p, &pattern)));
        let mut roles: Vec<Role> = fields.map(|&(check, _)| Role::Field(check)).collect();
        let terms = schema.accounting.iter().filter(|a| a.of == path || a.terms.contains(&path));
        roles.extend(terms.map(Role::Term));
        if schema.derived.iter().any(|d| d.inputs.contains(&path)) {
            roles.push(Role::Input);
        }
        roles
    }

    fn informational(roles: &[Role]) -> bool {
        roles.iter().all(|r| matches!(r, Role::Field(Informational | Present)))
    }

    /// The failures of `base` against a copy whose object holding `path`
    /// was edited by `edit` (given the entries and the leaf's index).
    fn tampered(
        base: &Value,
        schema: &Schema,
        path: &str,
        edit: impl FnOnce(&mut Vec<(String, Value)>, usize),
    ) -> Vec<String> {
        let mut doc = base.clone();
        let (parents, key) = path.rsplit_once('/').unwrap_or(("", path));
        let (mut node, mut prefix) = (&mut doc, String::new());
        for segment in parents.split('/').filter(|s| !s.is_empty()) {
            let (name, row) = match segment.split_once('[') {
                Some((name, row)) => (name, Some(row.trim_end_matches(']'))),
                None => (segment, None),
            };
            let array =
                if prefix.is_empty() { name.to_string() } else { format!("{prefix}/{name}") };
            node = match node {
                Value::Object(entries) => {
                    &mut entries.iter_mut().find(|(k, _)| k == name).expect(path).1
                }
                other => panic!("{path}: {other} is not an object"),
            };
            if let Some(row) = row {
                let keys = schema.rows.iter().find(|(a, _)| *a == array).expect(path).1;
                node = match node {
                    Value::Array(items) => {
                        items.iter_mut().find(|r| row_key(r, keys) == row).expect(path)
                    }
                    other => panic!("{path}: {other} is not a row array"),
                };
            }
            prefix =
                if prefix.is_empty() { segment.to_string() } else { format!("{prefix}/{segment}") };
        }
        let Value::Object(entries) = node else { panic!("{path}: not held by an object") };
        let at = entries.iter().position(|(k, _)| k == key).expect(path);
        edit(entries, at);
        compare(base, &doc).expect("the schema field is untouched").failures
    }

    fn with_value(base: &Value, schema: &Schema, path: &str, value: Value) -> Vec<String> {
        tampered(base, schema, path, |entries, at| entries[at].1 = value)
    }

    /// Whether some failure quotes `path` as a whole word.
    fn names(failures: &[String], path: &str) -> bool {
        let words = failures.iter().flat_map(|f| f.split_whitespace());
        words
            .map(|w| w.trim_start_matches('(').trim_end_matches([':', ',', ')']))
            .any(|w| w == path)
    }

    /// Just past `bound`, in direction `sign`.
    fn past(bound: f64, sign: f64) -> Value {
        Value::Num(bound + sign * 1e-3 * bound.abs().max(1.0))
    }

    #[test]
    fn every_committed_baseline_passes_against_itself() {
        for (file, doc, _, _) in baselines() {
            assert_eq!(compare(&doc, &doc).expect(file).failures, Vec::<String>::new(), "{file}");
        }
    }

    #[test]
    fn every_leaf_of_every_committed_baseline_is_listed_by_a_spec() {
        for (file, _, schema, leaves) in baselines() {
            let unlisted: Vec<&String> =
                leaves.keys().filter(|p| roles(schema, p).is_empty()).collect();
            assert!(unlisted.is_empty(), "{file}: no spec lists {unlisted:?}");
        }
    }

    /// Floors go down, ceilings go up, exact fields go ±1 (strings change,
    /// booleans flip), accounting terms break their equation, derived
    /// inputs move tenfold, and a pinned name is renamed.
    #[test]
    fn every_gated_leaf_moved_past_its_band_fails_naming_it() {
        for (file, doc, schema, leaves) in baselines() {
            let number_at = |path: &str| number(&leaves[path]).expect(path);
            for (path, value) in &leaves {
                for role in roles(schema, path) {
                    let moved = match (role, value) {
                        (Role::Field(Informational), _) => continue,
                        (Role::Field(Present), _) => {
                            let failures = tampered(&doc, schema, path, |e, at| e[at].0.push('~'));
                            let renamed = format!("{path}~");
                            assert!(
                                names(&failures, path) && names(&failures, &renamed),
                                "{file}: renaming {path} must name both names: {failures:?}"
                            );
                            continue;
                        }
                        (Role::Input, Value::Num(n)) => {
                            let fails = [n * 10.0, n / 10.0].map(|v| {
                                names(&with_value(&doc, schema, path, Value::Num(v)), path)
                            });
                            assert!(
                                fails.contains(&true),
                                "{file}: {path} moved tenfold must fail"
                            );
                            continue;
                        }
                        (Role::Field(Exact | Floor(_)), Value::Bool(b)) => vec![Value::Bool(!b)],
                        (Role::Field(Exact), Value::Num(n)) => {
                            vec![Value::Num(n + 1.0), Value::Num(n - 1.0)]
                        }
                        (Role::Field(Exact), Value::Str(s)) => vec![Value::Str(format!("{s}~"))],
                        (Role::Field(Floor(band)), Value::Num(n)) => {
                            vec![past((band.bound)(*n), -1.0)]
                        }
                        (Role::Field(Ceiling(band)), Value::Num(n)) => {
                            vec![past((band.bound)(*n), 1.0)]
                        }
                        (Role::Term(a), Value::Num(n)) if !a.at_most => vec![Value::Num(n + 1.0)],
                        (Role::Term(a), _) if a.of == path => {
                            let sum: f64 = a.terms.iter().map(|t| number_at(t)).sum();
                            vec![Value::Num(sum - 1.0)]
                        }
                        (Role::Term(a), _) => vec![Value::Num(number_at(a.of) + 1.0)],
                        (_, value) => panic!("{file}: {path}: no tamper for {value}"),
                    };
                    for value in moved {
                        let failures = with_value(&doc, schema, path, value.clone());
                        assert!(names(&failures, path), "{file}: {path} = {value}: {failures:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_gated_leaf_deleted_from_the_current_run_fails_naming_it() {
        for (file, doc, schema, leaves) in baselines() {
            for path in leaves.keys().filter(|p| !informational(&roles(schema, p))) {
                let failures = tampered(&doc, schema, path, |entries, at| {
                    entries.remove(at);
                });
                assert!(names(&failures, path), "{file}: deleting {path}: {failures:?}");
            }
        }
    }

    #[test]
    fn informational_leaves_move_tenfold_without_failing() {
        for (file, doc, schema, leaves) in baselines() {
            for (path, value) in leaves.iter().filter(|(p, _)| informational(&roles(schema, p))) {
                let n = number(value).expect(path);
                for moved in [n * 10.0, n / 10.0] {
                    let failures = with_value(&doc, schema, path, Value::Num(moved));
                    assert_eq!(failures, Vec::<String>::new(), "{file}: {path} = {moved}");
                }
            }
        }
    }

    #[test]
    fn a_field_missing_from_both_documents_fails_naming_it() {
        let (_, mut doc, _, _) = baselines().swap_remove(0);
        let Value::Object(entries) = &mut doc else { panic!("an object") };
        entries.retain(|(key, _)| key != "suite");
        assert!(names(&compare(&doc, &doc).unwrap().failures, "suite"));
    }

    #[test]
    fn a_derived_value_names_its_missing_input() {
        let (_, doc, schema, _) = baselines().swap_remove(3);
        let path = "scrape/counters/engine.hit_nanos";
        let failures = tampered(&doc, schema, path, |entries, at| drop(entries.remove(at)));
        let derived = format!("{path}: missing from the current run (hit-over-miss compute ratio");
        assert!(failures.iter().any(|f| f.starts_with(&derived)), "{failures:?}");
    }

    #[test]
    fn dispatch_is_by_schema_alone() {
        let all = baselines();
        let (dense, bdd) = (&all[0].1, &all[1].1);
        assert!(compare(dense, bdd).unwrap_err().starts_with("schema mismatch"));
        let mut unknown = dense.clone();
        let Value::Object(entries) = &mut unknown else { panic!("an object") };
        entries[0].1 = Value::Str("bidecomp-sweep-v0".into());
        assert!(compare(&unknown, &unknown).unwrap_err().contains("unknown schema"));
    }
}
