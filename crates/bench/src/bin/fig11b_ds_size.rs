//! Figure 11(b): size of the data structure representing all consistent
//! expressions, per benchmark (paper: roughly 10² to 2·10³ terminal
//! symbols).

#![forbid(unsafe_code)]

use sst_bench::evaluate_suite;

fn main() {
    let reports = evaluate_suite();
    println!("== Fig 11(b): data-structure sizes (terminal symbols) ==");
    println!("{:<4} {:<28} {:>9} {:>8}", "id", "task", "examples", "size");
    let mut sizes: Vec<usize> = Vec::new();
    for r in &reports {
        println!(
            "{:<4} {:<28} {:>9} {:>8}",
            r.id, r.name, r.examples_used, r.size_final
        );
        sizes.push(r.size_final);
    }
    sizes.sort_unstable();
    println!();
    println!(
        "size: min {}, median {}, max {}",
        sizes.first().unwrap_or(&0),
        sizes[sizes.len() / 2],
        sizes.last().unwrap_or(&0)
    );
}
