//! Numeric flags parse straight into their target type: a value out of the
//! type's range is a usage error (exit code 2 naming the flag), never a
//! silently truncated setting. The daemon is the sharpest case — a
//! truncated `--port` would bind a different port and serve forever.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `bidecompd` with `args` and returns its exit code and stderr,
/// failing the test (after killing the daemon) if it is still running
/// after five seconds.
fn bidecompd_refuses(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_bidecompd"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn bidecompd");
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll bidecompd") {
            break status;
        }
        if start.elapsed() > Duration::from_secs(5) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("bidecompd {args:?} was still running after 5 s instead of exiting 2");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child.stderr.take().expect("piped stderr").read_to_string(&mut stderr).unwrap();
    (status.code(), stderr)
}

#[test]
fn out_of_range_port_exits_2() {
    let (code, stderr) = bidecompd_refuses(&["--port", "70000"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--port"), "the error must name the flag: {stderr}");
}

#[test]
fn out_of_range_fault_rate_exits_2() {
    let (code, stderr) = bidecompd_refuses(&["--port", "0", "--fault-panics", "4294967297"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--fault-panics"), "the error must name the flag: {stderr}");
}
