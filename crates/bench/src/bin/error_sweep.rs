//! Ablation (Section V discussion): impact of the approximation error budget
//! on the area of the divisor `g`, the quotient `h` and the overall
//! bi-decomposed form, on the arithmetic suite.

use benchmarks::Suite;
use bidecomp::{ApproxStrategy, BinaryOp, DecompositionPlan};
use bidecomp_bench::HarnessOptions;

fn main() {
    let options = HarnessOptions::from_args("error_sweep");
    let budgets = [0.0, 0.01, 0.02, 0.05, 0.10, 0.20, 0.40];
    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "benchmark", "budget%", "err%", "area f", "area g", "area h", "area g·h"
    );
    for instance in Suite::table4().instances() {
        if instance.num_inputs() > options.max_inputs.min(9) {
            continue;
        }
        let f = &instance.outputs()[0];
        for budget in budgets {
            let plan = DecompositionPlan::new(
                BinaryOp::And,
                ApproxStrategy::Bounded { max_error_rate: budget },
            );
            let d = plan.decompose(f).expect("AND accepts any 0→1 divisor");
            assert!(d.verified);
            println!(
                "{:<12} {:>8.1} {:>10.2} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
                instance.name(),
                budget * 100.0,
                d.error_percent(),
                d.area_f,
                d.area_g,
                d.area_h,
                d.area_bidecomposition
            );
        }
        println!();
    }
}
