//! `learn_cold`: every suite task learned from nothing, in seeded order.
//!
//! Each task gets a fresh `Engine` over its database and runs
//! `Session::converge_with` on the ground-truth rows (the §3.2 loop), so
//! no memo carries over from an earlier learn. The time per task runs
//! from the fresh engine to the converged top program.

use std::time::{Duration, Instant};

use sst_service::Engine;

use crate::env::{peak_rss_mb, Report, Rng};
use crate::stats::{self, Summary};
use crate::suite::{reproduces, Suite, MAX_EXAMPLES};
use crate::trace::span;
use crate::Measured;

pub struct Fixture {
    suite: Suite,
}

pub fn setup() -> Fixture {
    Fixture {
        suite: Suite::load(),
    }
}

/// Learns tasks in seeded passes over the suite until `budget` is spent.
pub fn measure(fx: &Fixture, seed: u64, budget: Duration, report: &mut Report) -> Measured {
    let tasks = &fx.suite.tasks;
    let mut rng = Rng::derive(seed, 1);
    let mut per_task: Vec<Vec<f64>> = vec![Vec::new(); tasks.len()];
    let mut all = Vec::new();
    let start = Instant::now();
    let mut request = 0u64;
    // Tasks per second of each whole pass over the suite.
    let mut pass_rates = Vec::new();
    'passes: loop {
        let mut pass_busy = Duration::ZERO;
        for idx in rng.permutation(tasks.len()) {
            if start.elapsed() >= budget {
                break 'passes;
            }
            request += 1;
            let task = &tasks[idx];
            let _task_span = span("learn_cold.task", request);
            let t0 = Instant::now();
            let engine = {
                let _s = span("service.engine_new", request);
                Engine::new(std::sync::Arc::clone(&fx.suite.dbs[idx]))
            };
            let mut session = engine.session();
            let outcome = {
                let _s = span("service.converge_with", request);
                session.converge_with(&task.rows, MAX_EXAMPLES)
            };
            let elapsed = t0.elapsed();
            // The check runs outside the timed part: the top program must
            // reproduce every ground-truth row of its task.
            let ok = outcome.is_ok_and(|o| o.converged)
                && session.top().is_ok_and(|top| reproduces(&top, &task.rows));
            report.op(ok);
            if !ok {
                report.line(format!("learn_cold WRONG task {} ({})", task.id, task.name));
            }
            pass_busy += elapsed;
            let ms = stats::ms(elapsed);
            per_task[idx].push(ms);
            all.push(ms);
        }
        pass_rates.push(tasks.len() as f64 / pass_busy.as_secs_f64());
    }
    for (task, samples) in tasks.iter().zip(&per_task) {
        if samples.is_empty() {
            continue;
        }
        report.line(format!(
            "learn_cold task {:>2} {:<28} median_ms {:>9.3} n {}",
            task.id,
            task.name,
            stats::median(samples),
            samples.len()
        ));
    }
    let summary = Summary::of(&all);
    // With no whole pass, the part of one that ran.
    let tasks_per_s = if pass_rates.is_empty() {
        all.len() as f64 / all.iter().sum::<f64>() * 1e3
    } else {
        stats::median(&pass_rates)
    };
    report.line(format!(
        "learn_cold learn_p50_ms {:.4} learn_{}_ms {:.4} n {} learn_tasks_per_s {:.3}",
        summary.p50,
        summary.tail_label(),
        summary.tail,
        summary.n,
        tasks_per_s
    ));
    Measured {
        summary,
        throughput: tasks_per_s,
        rss_peak_mb: peak_rss_mb(),
    }
}
