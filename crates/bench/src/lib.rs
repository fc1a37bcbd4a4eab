//! Evaluation harness for the §7 experiments.
//!
//! [`evaluate_task`] replays the paper's measurement protocol on one
//! benchmark: run the §3.2 interaction loop against ground truth to find
//! how many examples the user must give, then report the metrics of the
//! converged structure — program-set cardinality (Fig. 11a), data-structure
//! size (Fig. 11b), learn time (Fig. 12a) and first-example vs intersected
//! size (Fig. 12b). The `src/bin/fig*` binaries print one paper artifact
//! each from these reports.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sst_benchmarks::{BenchmarkTask, Category};
use sst_core::{converge, Synthesizer};
use sst_counting::BigUint;

/// Maximum examples the simulated user provides (the paper's tasks all
/// converge within 3).
pub const MAX_EXAMPLES: usize = 3;

/// Metrics for one benchmark task.
#[derive(Debug)]
pub struct TaskReport {
    /// Task id (1..=50).
    pub id: usize,
    /// Task name.
    pub name: &'static str,
    /// `Lt` or `Lu` (paper split: 12/38).
    pub category: Category,
    /// Examples needed for the top-ranked program to be correct on every
    /// spreadsheet row.
    pub examples_used: usize,
    /// Whether it converged within [`MAX_EXAMPLES`].
    pub converged: bool,
    /// Number of consistent programs after convergence (Fig. 11a).
    pub count: BigUint,
    /// Data-structure size after the *first* example (Fig. 12b, x-axis).
    pub size_first: usize,
    /// Data-structure size after intersecting all examples (Fig. 11b and
    /// Fig. 12b's second series).
    pub size_final: usize,
    /// Wall-clock time of one cold `learn` of the converged example set on
    /// a fresh synthesizer, nothing memoized (Fig. 12a).
    pub learn_time: Duration,
}

/// Runs the full measurement protocol on one task with the default
/// options. The interaction loop warms its synthesizer's memo, so the
/// timed learn runs on a fresh synthesizer with the same options: the
/// reported time is the whole cold learn, never a memo-served replay.
pub fn evaluate_task(task: &BenchmarkTask) -> TaskReport {
    let synthesizer = Synthesizer::new(Arc::new(task.db.clone()));
    let report = converge(&synthesizer, &task.rows, MAX_EXAMPLES)
        .unwrap_or_else(|e| panic!("task {} ({}) failed to learn: {e}", task.id, task.name));
    let learned = report
        .learned
        .as_ref()
        .expect("converge returns a learned set on Ok");

    let first = synthesizer
        .learn(&report.examples[..1])
        .expect("first example must be learnable");

    let cold = Synthesizer::with_options(
        Arc::clone(synthesizer.db_arc()),
        synthesizer.options().clone(),
    );
    let start = Instant::now();
    let relearned = cold
        .learn(&report.examples)
        .expect("converged example set must be learnable");
    let learn_time = start.elapsed();
    drop(relearned);

    TaskReport {
        id: task.id,
        name: task.name,
        category: task.category,
        examples_used: report.examples_used,
        converged: report.converged,
        count: learned.count(),
        size_first: first.size(),
        size_final: learned.size(),
        learn_time,
    }
}

/// Evaluates the whole suite in task order.
pub fn evaluate_suite() -> Vec<TaskReport> {
    sst_benchmarks::all_tasks()
        .iter()
        .map(evaluate_task)
        .collect()
}

/// Formats a duration in seconds with millisecond resolution.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}
