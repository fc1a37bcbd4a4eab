//! §7 benchmark split: "Out of these 50 problems, 12 problems can be
//! modeled in the lookup language Lt whereas the remaining 38 of them
//! require the extended language Lu."
//!
//! Verified *behaviorally*: the pure-`Lt` learner must solve exactly the
//! 12 lookup tasks (learn from ≤3 examples and generalize to every row)
//! and fail on all 38 semantic ones.

#![forbid(unsafe_code)]

use sst_benchmarks::{all_tasks, Category};
use sst_lookup::LookupLearner;

fn main() {
    let mut lt_solved = 0;
    let mut lu_rejected = 0;
    let mut errors = 0;
    println!("== Lt-only baseline over the 50-task suite ==");
    for task in all_tasks() {
        let learner = LookupLearner::new(task.db.clone());
        // Give the Lt learner up to 3 examples, like the full system.
        let solved = (1..=3usize).any(|n| {
            let examples: Vec<(Vec<String>, String)> = task
                .examples(n)
                .iter()
                .map(|e| (e.inputs.clone(), e.output.clone()))
                .collect();
            let Some(learned) = learner.learn(&examples) else {
                return false;
            };
            let Some(top) = learned.top() else {
                return false;
            };
            task.rows.iter().all(|r| {
                let refs: Vec<&str> = r.inputs.iter().map(String::as_str).collect();
                learned.run(&top, &refs).as_deref() == Some(r.output.as_str())
            })
        });
        let expected = task.category == Category::Lookup;
        let ok = solved == expected;
        if ok {
            if solved {
                lt_solved += 1;
            } else {
                lu_rejected += 1;
            }
        } else {
            errors += 1;
            println!(
                "  MISMATCH task {} ({}): Lt-solved={} but category={:?}",
                task.id, task.name, solved, task.category
            );
        }
    }
    println!("Lt solves {lt_solved} tasks (paper: 12)");
    println!("Lt fails on {lu_rejected} tasks that need Lu (paper: 38)");
    if errors > 0 {
        println!("{errors} tasks disagree with their declared category");
        std::process::exit(1);
    }
}
