//! Ablation study for the ranking scheme (§3.1/§5.4 design choices).
//!
//! The paper argues that ranking is what makes few-example learning work:
//! the intersection alone leaves many consistent programs, and preferring
//! "smaller, fewer-constants" programs picks the intended one early. This
//! binary re-runs the convergence experiment with individual ranking
//! preferences disabled and reports how many tasks still converge from few
//! examples:
//!
//! * `full`            — the shipped weights;
//! * `no-const-penalty` — constants cost the same as substrings/lookups
//!   (drops the "fewer constants" Occam preference);
//! * `flat-positions`   — constant positions cost the same as token
//!   positions (drops the generalization preference in `Ls`);
//! * `cheap-deep-selects` — nested `Select`s cost nothing (drops the
//!   "smaller depth" preference of §4.4).

#![forbid(unsafe_code)]

use sst_benchmarks::all_tasks;
use sst_core::{converge, LuRankWeights, SynthesisOptions, Synthesizer};

const MAX_EXAMPLES: usize = 3;

struct Variant {
    name: &'static str,
    weights: LuRankWeights,
}

fn variants() -> Vec<Variant> {
    let full = LuRankWeights::default();

    let mut no_const = full.clone();
    no_const.syntactic.const_str = 6;
    no_const.syntactic.const_char_alnum = 0;
    no_const.syntactic.const_char_other = 0;

    let mut flat_pos = full.clone();
    flat_pos.syntactic.cpos_interior = flat_pos.syntactic.pos;
    flat_pos.syntactic.cpos_edge = flat_pos.syntactic.pos;

    let mut cheap_selects = full.clone();
    cheap_selects.select = 0;
    cheap_selects.pred = 0;

    vec![
        Variant {
            name: "full",
            weights: full,
        },
        Variant {
            name: "no-const-penalty",
            weights: no_const,
        },
        Variant {
            name: "flat-positions",
            weights: flat_pos,
        },
        Variant {
            name: "cheap-deep-selects",
            weights: cheap_selects,
        },
    ]
}

fn main() {
    let tasks = all_tasks();
    println!("== Ranking ablation: examples-to-convergence histogram ==");
    println!(
        "{:<20} {:>6} {:>6} {:>6} {:>10} {:>8}",
        "variant", "1ex", "2ex", "3ex", "no-conv", "avg"
    );
    for variant in variants() {
        let mut histogram = [0usize; 4];
        let mut failures = 0usize;
        let mut total_examples = 0usize;
        for task in &tasks {
            let options = SynthesisOptions::builder()
                .weights(variant.weights.clone())
                .build();
            let synthesizer =
                Synthesizer::with_options(std::sync::Arc::new(task.db.clone()), options);
            match converge(&synthesizer, &task.rows, MAX_EXAMPLES) {
                Ok(report) if report.converged => {
                    histogram[report.examples_used] += 1;
                    total_examples += report.examples_used;
                }
                _ => {
                    failures += 1;
                    total_examples += MAX_EXAMPLES + 1;
                }
            }
        }
        let avg = total_examples as f64 / tasks.len() as f64;
        println!(
            "{:<20} {:>6} {:>6} {:>6} {:>10} {:>8.2}",
            variant.name, histogram[1], histogram[2], histogram[3], failures, avg
        );
    }
    println!();
    println!(
        "Reading: the full ranking should dominate (most 1-example tasks, \
         fewest failures); each ablation shifts mass right or into no-conv."
    );
}
