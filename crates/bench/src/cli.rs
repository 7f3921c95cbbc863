//! Shared scaffolding for the gate binaries' strict command lines, their
//! suite names, and locating and writing benchmark artifacts.
//!
//! Every binary of the crate parses its command line through [`ArgCursor`]:
//! a missing value or unparsable number prints a `<bin>: <problem>` line and
//! exits with code 2. The gate binaries (`sweep`, `regress`, …) feed the CI
//! perf gate and write the committed baselines, so they also refuse unknown
//! flags: a typoed flag silently falling back to a default there would
//! loosen the gate without anyone noticing. The table-reproduction binaries
//! (`HarnessOptions::from_args`) skip unknown flags instead, so one command
//! line drives all of them.

use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

use benchmarks::Suite;

use crate::json::{self, Value};

/// A strict cursor over `std::env::args()` for flag-by-flag parsing.
///
/// ```no_run
/// use bidecomp_bench::cli::ArgCursor;
///
/// let mut args = ArgCursor::from_env("mytool");
/// let mut threads = 0usize;
/// while let Some(flag) = args.next_flag() {
///     match flag.as_str() {
///         "--threads" => threads = args.number(&flag),
///         other => args.fail(format_args!("unknown argument {other}")),
///     }
/// }
/// ```
#[derive(Debug)]
pub struct ArgCursor {
    bin: &'static str,
    argv: Vec<String>,
    index: usize,
}

impl ArgCursor {
    /// A cursor over the process arguments (the leading program name is
    /// skipped).
    pub fn from_env(bin: &'static str) -> Self {
        Self::new(bin, std::env::args().skip(1).collect())
    }

    /// A cursor over an explicit argument vector (used by tests).
    pub fn new(bin: &'static str, argv: Vec<String>) -> Self {
        ArgCursor { bin, argv, index: 0 }
    }

    /// Prints `<bin>: <message>` to stderr and exits with code 2.
    pub fn fail(&self, message: impl fmt::Display) -> ! {
        eprintln!("{}: {message}", self.bin);
        std::process::exit(2);
    }

    /// The next flag, or `None` when the arguments are exhausted.
    pub fn next_flag(&mut self) -> Option<String> {
        let flag = self.argv.get(self.index).cloned();
        self.index += 1;
        flag
    }

    /// The value of `flag`; exits if it is missing.
    pub fn value(&mut self, flag: &str) -> String {
        let value = self.argv.get(self.index).cloned();
        self.index += 1;
        value.unwrap_or_else(|| self.fail(format_args!("{flag} needs a value")))
    }

    /// The value of `flag` parsed straight into the target type; exits if
    /// missing, unparsable or out of the type's range (`--port 70000` is an
    /// error for a `u16`, not port 4464).
    pub fn number<T: FromStr>(&mut self, flag: &str) -> T
    where
        T::Err: fmt::Display,
    {
        let value = self.value(flag);
        value
            .parse()
            .unwrap_or_else(|e| self.fail(format_args!("invalid {flag} value '{value}': {e}")))
    }
}

/// Where benchmark artifacts go: `$BENCH_OUT_DIR/<file>`, defaulting to the
/// working directory. Every `BENCH_*.json` producer resolves its output path
/// through this one function so CI can redirect them all with a single
/// environment variable.
pub fn bench_out_path(file: &str) -> PathBuf {
    let dir = std::env::var("BENCH_OUT_DIR").unwrap_or_else(|_| ".".to_string());
    PathBuf::from(dir).join(file)
}

/// The benchmark suite a `--suite` flag names: `smoke`, `table3`,
/// `table4`, `all` or `large`. `large` has only symbolic instances, so the
/// dense sweeps enumerate no job on it and refuse it after the run.
pub fn suite_by_name(name: &str) -> Result<Suite, String> {
    match name {
        "smoke" => Ok(Suite::smoke()),
        "table3" => Ok(Suite::table3()),
        "table4" => Ok(Suite::table4()),
        "all" => Ok(Suite::all()),
        "large" => Ok(Suite::large()),
        _ => Err(format!("unknown suite '{name}'; expected smoke, table3, table4, all or large")),
    }
}

/// Writes an artifact to `$BENCH_OUT_DIR/<path>`, and also over the
/// committed `baseline` when `write_baseline` is set, printing each file
/// written. Without `write_baseline`, a `path` that resolves to `baseline`
/// is refused: writing there is almost certainly a typo that would turn the
/// gate into "compare against myself".
pub fn write_artifact(
    doc: &Value,
    path: &str,
    baseline: &str,
    write_baseline: bool,
) -> Result<(), String> {
    let path = bench_out_path(path);
    let baseline = bench_out_path(baseline);
    if path == baseline && !write_baseline {
        return Err(format!(
            "refusing to overwrite the committed baseline {}; \
             pass --write-baseline to refresh it deliberately",
            baseline.display()
        ));
    }
    let text = json::pretty(doc);
    let mut targets = vec![path];
    if write_baseline && !targets.contains(&baseline) {
        targets.push(baseline);
    }
    for target in targets {
        std::fs::write(&target, &text)
            .map_err(|e| format!("could not write {}: {e}", target.display()))?;
        println!("wrote {}", target.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::sync::{Mutex, PoisonError};

    use super::*;

    /// Serializes the tests that read or set `BENCH_OUT_DIR`.
    static OUT_DIR: Mutex<()> = Mutex::new(());

    fn cursor(args: &[&str]) -> ArgCursor {
        ArgCursor::new("test", args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn flags_and_values_stream_in_order() {
        let mut c = cursor(&["--a", "1", "--b", "x", "--flag"]);
        assert_eq!(c.next_flag().as_deref(), Some("--a"));
        assert_eq!(c.number::<u64>("--a"), 1);
        assert_eq!(c.next_flag().as_deref(), Some("--b"));
        assert_eq!(c.value("--b"), "x");
        assert_eq!(c.next_flag().as_deref(), Some("--flag"));
        assert_eq!(c.next_flag(), None);
    }

    #[test]
    fn numbers_parse_into_their_target_type() {
        let mut c = cursor(&["--max-ratio", "0.25", "--port", "65535", "--rate", "1000"]);
        let flag = c.next_flag().unwrap();
        assert!((c.number::<f64>(&flag) - 0.25).abs() < 1e-12);
        let flag = c.next_flag().unwrap();
        assert_eq!(c.number::<u16>(&flag), u16::MAX);
        let flag = c.next_flag().unwrap();
        assert_eq!(c.number::<u32>(&flag), 1000);
    }

    #[test]
    fn out_path_defaults_to_cwd() {
        let _env = OUT_DIR.lock().unwrap_or_else(PoisonError::into_inner);
        // BENCH_OUT_DIR is not set in the test environment.
        if std::env::var("BENCH_OUT_DIR").is_err() {
            assert_eq!(bench_out_path("BENCH_x.json"), PathBuf::from("./BENCH_x.json"));
        }
    }

    #[test]
    fn the_baseline_is_written_only_with_write_baseline() {
        let _env = OUT_DIR.lock().unwrap_or_else(PoisonError::into_inner);
        let dir = std::env::temp_dir().join(format!("bidecomp-bench-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let saved = std::env::var_os("BENCH_OUT_DIR");
        std::env::set_var("BENCH_OUT_DIR", &dir);
        let doc = Value::Object(vec![("schema".into(), json::s("test"))]);
        let exists = |file: &str| dir.join(file).exists();

        let refused = write_artifact(&doc, "BENCH_t_baseline.json", "BENCH_t_baseline.json", false);
        let refused_wrote = exists("BENCH_t_baseline.json");
        let plain = write_artifact(&doc, "BENCH_t.json", "BENCH_t_baseline.json", false);
        let plain_wrote = (exists("BENCH_t.json"), exists("BENCH_t_baseline.json"));
        let both = write_artifact(&doc, "BENCH_u.json", "BENCH_t_baseline.json", true);
        let both_wrote = (exists("BENCH_u.json"), exists("BENCH_t_baseline.json"));
        let deliberate =
            write_artifact(&doc, "BENCH_t_baseline.json", "BENCH_t_baseline.json", true);

        match saved {
            Some(value) => std::env::set_var("BENCH_OUT_DIR", value),
            None => std::env::remove_var("BENCH_OUT_DIR"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
        let message = refused.unwrap_err();
        assert!(message.starts_with("refusing to overwrite the committed baseline"), "{message}");
        assert!(!refused_wrote, "a refused write left the baseline behind");
        assert_eq!((plain, plain_wrote), (Ok(()), (true, false)));
        assert_eq!((both, both_wrote), (Ok(()), (true, true)));
        assert_eq!(deliberate, Ok(()));
    }

    #[test]
    fn suite_names_resolve_to_their_suites() {
        for name in ["smoke", "table3", "table4", "all", "large"] {
            assert_eq!(suite_by_name(name).unwrap().name(), name);
        }
        assert!(suite_by_name("tabel3").unwrap_err().contains("unknown suite 'tabel3'"));
    }
}
