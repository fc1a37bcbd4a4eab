//! Figure 11(a): number of expressions consistent with the provided
//! examples, per benchmark (paper: typically 10^10 to 10^30).

#![forbid(unsafe_code)]

use sst_bench::evaluate_suite;

fn main() {
    let reports = evaluate_suite();
    println!("== Fig 11(a): consistent-expression counts ==");
    println!(
        "{:<4} {:<28} {:>9} {:>14}",
        "id", "task", "examples", "count"
    );
    let mut logs: Vec<f64> = Vec::new();
    for r in &reports {
        println!(
            "{:<4} {:<28} {:>9} {:>14}",
            r.id,
            r.name,
            r.examples_used,
            r.count.to_scientific()
        );
        logs.push(r.count.log10());
    }
    logs.sort_by(|a, b| a.total_cmp(b));
    println!();
    println!(
        "log10 count: min {:.1}, median {:.1}, max {:.1}",
        logs.first().copied().unwrap_or(0.0),
        logs[logs.len() / 2],
        logs.last().copied().unwrap_or(0.0)
    );
}
