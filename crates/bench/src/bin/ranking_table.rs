//! §7 "Effectiveness of ranking": number of examples required per task.
//!
//! Paper's numbers: 35 tasks needed 1 example, 13 needed 2, 2 needed 3 —
//! every task converged within 3. This binary prints the same histogram
//! for the reconstructed suite and exits non-zero if any task fails to
//! converge (making it usable as a regression gate).

#![forbid(unsafe_code)]

use sst_bench::{evaluate_suite, MAX_EXAMPLES};

fn main() {
    let reports = evaluate_suite();
    println!("== Ranking effectiveness (examples to convergence) ==");
    println!(
        "{:<4} {:<28} {:>9} {:>10}",
        "id", "task", "category", "examples"
    );
    let mut histogram = [0usize; MAX_EXAMPLES + 1];
    let mut failures = 0;
    for r in &reports {
        let cat = match r.category {
            sst_benchmarks::Category::Lookup => "Lt",
            sst_benchmarks::Category::Semantic => "Lu",
        };
        let marker = if r.converged {
            ""
        } else {
            "  <-- NOT CONVERGED"
        };
        println!(
            "{:<4} {:<28} {:>9} {:>10}{}",
            r.id, r.name, cat, r.examples_used, marker
        );
        if r.converged {
            histogram[r.examples_used] += 1;
        } else {
            failures += 1;
        }
    }
    println!();
    println!("histogram (paper: 35 / 13 / 2):");
    for (n, count) in histogram.iter().enumerate().skip(1) {
        println!("  {n} example(s): {count} tasks");
    }
    if failures > 0 {
        println!("  NOT converged within {MAX_EXAMPLES}: {failures} tasks");
        std::process::exit(1);
    }
}
