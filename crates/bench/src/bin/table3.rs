//! Reproduces Table III: bi-decomposition with AND and `⇏` on the
//! control-dominated suite, with a low approximation error rate.
//!
//! The paper's Table III groups benchmarks whose 2-SPP expansion produces an
//! error rate below 10%; to land in the same regime the divisor is derived
//! with the error-rate-bounded expansion of \[2\] capped at 8%.

use benchmarks::Suite;
use bidecomp::ApproxStrategy;
use bidecomp_bench::{run_suite, HarnessOptions};

fn main() {
    let options = HarnessOptions::from_args("table3");
    let suite = Suite::table3();
    println!("Table III (reproduction) — error rate bounded at 8%");
    println!("{}", bidecomp::BenchmarkRow::header());
    let report = run_suite(
        "Table III (reproduction) — error rate bounded at 8%",
        suite.instances(),
        ApproxStrategy::Bounded { max_error_rate: 0.08 },
        &options,
    );
    println!();
    println!("{report}");
}
