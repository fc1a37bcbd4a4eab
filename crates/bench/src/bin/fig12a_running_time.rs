//! Figure 12(a): running time of synthesis per benchmark, sorted ascending
//! (paper: 88% of tasks < 1 s, 96% < 2 s on a 2010-era laptop).

#![forbid(unsafe_code)]

use sst_bench::{evaluate_suite, secs};

fn main() {
    let mut reports = evaluate_suite();
    reports.sort_by_key(|r| r.learn_time);
    println!("== Fig 12(a): learning time per benchmark, sorted ==");
    println!("{:<4} {:<28} {:>10}", "id", "task", "seconds");
    for r in &reports {
        println!("{:<4} {:<28} {:>10}", r.id, r.name, secs(r.learn_time));
    }
    let total = reports.len() as f64;
    let under = |limit: f64| {
        reports
            .iter()
            .filter(|r| r.learn_time.as_secs_f64() < limit)
            .count() as f64
            / total
            * 100.0
    };
    println!();
    println!(
        "under 1s: {:.0}% (paper: 88%), under 2s: {:.0}% (paper: 96%)",
        under(1.0),
        under(2.0)
    );
}
