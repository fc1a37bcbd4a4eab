//! Figure 12(b): data-structure size after the first example vs after
//! intersecting all required examples, for the tasks that needed more than
//! one example (the paper plots 14 such tasks). The paper's point: the
//! worst-case quadratic blowup of `Intersect_u` does not occur — size
//! mostly *decreases*.

#![forbid(unsafe_code)]

use sst_bench::evaluate_suite;

fn main() {
    let reports = evaluate_suite();
    println!("== Fig 12(b): size before/after intersection ==");
    println!(
        "{:<4} {:<28} {:>9} {:>12} {:>12} {:>8}",
        "id", "task", "examples", "first", "intersected", "ratio"
    );
    let mut blowups = 0;
    let mut plotted = 0;
    for r in reports.iter().filter(|r| r.examples_used >= 2) {
        let ratio = r.size_final as f64 / r.size_first.max(1) as f64;
        println!(
            "{:<4} {:<28} {:>9} {:>12} {:>12} {:>8.2}",
            r.id, r.name, r.examples_used, r.size_first, r.size_final, ratio
        );
        plotted += 1;
        // "Quadratic blowup" would be ratio ~ size_first; flag anything
        // that even doubles.
        if r.size_final > 2 * r.size_first {
            blowups += 1;
        }
    }
    println!();
    println!(
        "{plotted} multi-example tasks (paper plots 14); {blowups} grew beyond 2x \
         (paper: none approach quadratic)"
    );
}
