//! Shared scaffolding for the gate binaries' strict command lines and for
//! locating benchmark artifacts.
//!
//! The table-reproduction binaries deliberately ignore unknown arguments so
//! they stay scriptable, but `sweep` and `regress` feed the CI perf gate and
//! write the committed baseline: a typoed flag silently falling back to a
//! default there would loosen the gate without anyone noticing. These
//! helpers implement the strict convention once — any unknown flag, missing
//! value or unparsable number prints a `<bin>: <problem>` line and exits
//! with code 2.

use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

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

#[cfg(test)]
mod tests {
    use super::*;

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
        // BENCH_OUT_DIR is not set in the test environment.
        if std::env::var("BENCH_OUT_DIR").is_err() {
            assert_eq!(bench_out_path("BENCH_x.json"), PathBuf::from("./BENCH_x.json"));
        }
    }
}
