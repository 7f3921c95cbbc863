//! The CI regression gate: compares a fresh `BENCH_*` artifact against its
//! committed baseline and exits non-zero on regression.
//!
//! ```text
//! cargo run -p bidecomp-bench --release --bin regress -- \
//!     [--baseline PATH] [--current PATH]
//! ```
//!
//! The documents' common `schema` field selects a spec table in
//! [`bidecomp_bench::gates`]: which fields are exact, which are banded (and
//! why each band is as wide as it is), which counters must balance, and
//! which values are only reported. Exit code 0 means no regression, 1 a
//! failed gate or an unreadable document, 2 a usage error (an unknown flag
//! or a missing value, via [`ArgCursor`]).

use std::process::ExitCode;

use bidecomp_bench::cli::ArgCursor;
use bidecomp_bench::gates;
use bidecomp_bench::json::Value;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn main() -> ExitCode {
    let mut baseline = "BENCH_baseline.json".to_string();
    let mut current = "BENCH_sweep.json".to_string();
    let mut argv = ArgCursor::from_env("regress");
    while let Some(flag) = argv.next_flag() {
        match flag.as_str() {
            "--baseline" => baseline = argv.value(&flag),
            "--current" => current = argv.value(&flag),
            other => argv.fail(format_args!("unknown argument {other}")),
        }
    }
    match load(&baseline).and_then(|b| gates::compare(&b, &load(&current)?)) {
        Err(message) => {
            eprintln!("regress: {message}");
            ExitCode::FAILURE
        }
        Ok(verdict) => {
            for line in &verdict.report {
                println!("{line}");
            }
            for failure in &verdict.failures {
                eprintln!("regress: FAIL — {failure}");
            }
            if verdict.failures.is_empty() {
                println!("regress: OK — current run matches the baseline");
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
