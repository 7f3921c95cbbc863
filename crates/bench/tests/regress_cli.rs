//! `regress` end to end: every committed baseline passes against itself,
//! a perturbed copy fails, and the bands live in the spec tables, not on
//! the command line, so a tolerance flag is a usage error.

use std::path::{Path, PathBuf};
use std::process::Command;

const BASELINES: [&str; 7] = [
    "BENCH_baseline.json",
    "BENCH_bdd_baseline.json",
    "BENCH_synth_baseline.json",
    "BENCH_service_baseline.json",
    "BENCH_service_chaos_baseline.json",
    "BENCH_oracle_baseline.json",
    "BENCH_obs_overhead_baseline.json",
];

fn committed(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(file)
}

/// Runs `regress` with `args`; returns its exit code and stderr.
fn regress(args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_regress")).args(args).output().expect("regress");
    (output.status.code(), String::from_utf8_lossy(&output.stderr).into_owned())
}

#[test]
fn every_committed_baseline_passes_against_itself() {
    for file in BASELINES {
        let path = committed(file);
        let path = path.to_str().expect("a UTF-8 path");
        let (code, stderr) = regress(&["--baseline", path, "--current", path]);
        assert_eq!(code, Some(0), "{file}: {stderr}");
    }
}

#[test]
fn a_perturbed_copy_fails_naming_the_field() {
    let baseline = committed("BENCH_synth_baseline.json");
    let text = std::fs::read_to_string(&baseline).expect("the synth baseline");
    let perturbed = text.replacen("\"total_gates\": 7724", "\"total_gates\": 7725", 1);
    assert_ne!(perturbed, text, "the baseline records 7,724 gates");
    let current = Path::new(env!("CARGO_TARGET_TMPDIR")).join("regress_cli_perturbed.json");
    std::fs::write(&current, perturbed).expect("write the perturbed copy");
    let (code, stderr) = regress(&[
        "--baseline",
        baseline.to_str().expect("a UTF-8 path"),
        "--current",
        current.to_str().expect("a UTF-8 path"),
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("total_gates: baseline 7724 vs current 7725"), "{stderr}");
}

#[test]
fn a_tolerance_flag_is_a_usage_error() {
    let (code, stderr) = regress(&["--tolerance", "0.2"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown argument --tolerance"), "{stderr}");
}
