//! The paper's 50-task suite as the benchmark loads it, and the checks
//! every workload shares.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sst_benchmarks::BenchmarkTask;
use sst_core::{Example, Program};
use sst_service::Engine;
use sst_tables::Database;

/// Examples the simulated user gives at most (the suite converges
/// within 3, as in the paper's §7).
pub const MAX_EXAMPLES: usize = 3;

/// Set-ups per run: at least [`MIN_SETUPS`], and more while they stay
/// within [`SETUP_TIME`] in total, up to [`MAX_SETUPS`]; `setup_s` is
/// their median.
pub const MIN_SETUPS: usize = 3;
pub const MAX_SETUPS: usize = 25;
pub const SETUP_TIME: Duration = Duration::from_secs(1);

/// The suite: every task, and its database behind an `Arc` so fresh
/// engines share it without copying.
pub struct Suite {
    pub tasks: Vec<BenchmarkTask>,
    pub dbs: Vec<Arc<Database>>,
}

impl Suite {
    pub fn load() -> Suite {
        let tasks = sst_benchmarks::all_tasks();
        let dbs = tasks.iter().map(|t| Arc::new(t.db.clone())).collect();
        Suite { tasks, dbs }
    }
}

/// Runs `setup` repeatedly (see [`MIN_SETUPS`]), dropping each result
/// before the next build so the peak memory stays that of one; returns
/// the last result and every set-up time in seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(MAX_SETUPS);
    let mut kept = None;
    let started = Instant::now();
    while times.len() < MIN_SETUPS || (times.len() < MAX_SETUPS && started.elapsed() < SETUP_TIME) {
        drop(kept.take());
        let start = Instant::now();
        kept = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), times)
}

/// Whether `program` reproduces every ground-truth row of `rows`.
pub fn reproduces(program: &Program, rows: &[Example]) -> bool {
    rows.iter().all(|row| {
        let refs: Vec<&str> = row.inputs.iter().map(String::as_str).collect();
        program.run(&refs).as_deref() == Some(row.output.as_str())
    })
}

/// One task's §3.2 conversation on a fresh engine: the converged example
/// set and top program, or `None` when it failed or did not converge.
pub fn converge_fresh(db: &Arc<Database>, task: &BenchmarkTask) -> Option<(Vec<Example>, Program)> {
    let engine = Engine::new(Arc::clone(db));
    let mut session = engine.session();
    let outcome = session.converge_with(&task.rows, MAX_EXAMPLES).ok()?;
    if !outcome.converged {
        return None;
    }
    let top = session.top().ok()?;
    Some((session.examples().to_vec(), top))
}
