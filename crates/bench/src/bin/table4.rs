//! Reproduces Table IV: bi-decomposition with AND and `⇏` on the arithmetic
//! suite, with the paper's unconstrained "expand everything" approximation
//! (error rates typically in the 40–50% range, exactly as in the paper).

use benchmarks::Suite;
use bidecomp::ApproxStrategy;
use bidecomp_bench::{run_suite, HarnessOptions};

fn main() {
    let options = HarnessOptions::from_args("table4");
    let suite = Suite::table4();
    println!("Table IV (reproduction) — full pseudoproduct expansion");
    println!("{}", bidecomp::BenchmarkRow::header());
    let report = run_suite(
        "Table IV (reproduction) — full pseudoproduct expansion",
        suite.instances(),
        ApproxStrategy::FullExpansion,
        &options,
    );
    println!();
    println!("{report}");
}
