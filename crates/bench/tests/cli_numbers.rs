//! Numeric flags parse straight into their target type: a value out of the
//! type's range is a usage error (exit code 2 naming the flag), never a
//! silently truncated setting. The daemon is the sharpest case — a
//! truncated `--port` would bind a different port and serve forever. The
//! table binaries skip unknown flags but refuse a known one with a missing
//! or unparsable value, rather than running with its default.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs the binary `exe` with `args` and returns its exit code and stderr,
/// failing the test (after killing the process) if it is still running
/// after five seconds.
fn refuses(exe: &str, args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {exe}: {e}"));
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().unwrap_or_else(|e| panic!("poll {exe}: {e}")) {
            break status;
        }
        if start.elapsed() > Duration::from_secs(5) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{exe} {args:?} was still running after 5 s instead of exiting 2");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child.stderr.take().expect("piped stderr").read_to_string(&mut stderr).unwrap();
    (status.code(), stderr)
}

#[test]
fn out_of_range_port_exits_2() {
    let (code, stderr) = refuses(env!("CARGO_BIN_EXE_bidecompd"), &["--port", "70000"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--port"), "the error must name the flag: {stderr}");
}

#[test]
fn out_of_range_fault_rate_exits_2() {
    let (code, stderr) =
        refuses(env!("CARGO_BIN_EXE_bidecompd"), &["--port", "0", "--fault-panics", "4294967297"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--fault-panics"), "the error must name the flag: {stderr}");
}

#[test]
fn malformed_table_flags_exit_2() {
    let table3 = env!("CARGO_BIN_EXE_table3");
    let (code, stderr) = refuses(table3, &["--fast", "--max-outputs", "1", "--max-inputs", "abc"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--max-inputs"), "the error must name the flag: {stderr}");
    let (code, stderr) = refuses(table3, &["--fast", "--max-outputs"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--max-outputs"), "the error must name the flag: {stderr}");
}
