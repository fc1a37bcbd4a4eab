//! `apply_bulk`: compiled programs filling seeded columns.
//!
//! Set-up converges every task's top program on a fresh engine, compiles
//! it, and draws a seeded column from the task's own rows with about one
//! row in eight turned into a lookup miss or an empty cell. One more
//! program is learned over the 10⁵-row scaled lookup table, so each of
//! its rows probes a large value index. The timed part is
//! `CompiledProgram::run_column` over those columns.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sst_benchmarks::{scaled_lookup_database, scaled_lookup_row};
use sst_core::{CompiledProgram, Pool, Program, SynthesisOptions};
use sst_service::Engine;

use crate::env::{peak_rss_mb, Report, Rng};
use crate::stats::{self, Summary};
use crate::suite::{converge_fresh, Suite};
use crate::trace::span;
use crate::Measured;

/// Rows per task column; above the compiled plane's parallel threshold.
pub const COLUMN_ROWS: usize = 4096;

/// Rows of the scaled lookup table.
pub const SCALED_ROWS: usize = 100_000;

/// One column to fill: the compiled program, its input rows, and the
/// outputs it must produce (ground truth, or the tree interpreter's
/// output on mutated rows — never the compiled program's own).
pub struct Column {
    pub label: String,
    pub program: CompiledProgram,
    pub rows: Vec<Vec<String>>,
    pub expected: Vec<Option<String>>,
}

pub struct Fixture {
    pub columns: Vec<Column>,
    /// Tasks whose conversation failed in set-up.
    pub setup_failures: Vec<String>,
}

/// Replaces about one row in eight with a miss: an input cleared, or a
/// cell no table contains. Returns whether `row` was changed.
fn mutate(rng: &mut Rng, row: &mut [String], seed: u64, i: usize) -> bool {
    if rng.below(8) != 0 || row.is_empty() {
        return false;
    }
    let cell = rng.below(row.len());
    if rng.below(4) == 0 {
        row[cell].clear();
    } else {
        row[cell] = format!("\u{2047}miss{seed:x}-{i}\u{2047}");
    }
    true
}

fn interpret(program: &Program, row: &[String]) -> Option<String> {
    let refs: Vec<&str> = row.iter().map(String::as_str).collect();
    program.run(&refs)
}

pub fn setup(seed: u64) -> Fixture {
    let suite = Suite::load();
    let mut columns = Vec::with_capacity(suite.tasks.len() + 1);
    let mut setup_failures = Vec::new();
    for (task, db) in suite.tasks.iter().zip(&suite.dbs) {
        let Some((_, top)) = converge_fresh(db, task) else {
            setup_failures.push(format!("task {} ({}) did not converge", task.id, task.name));
            continue;
        };
        let mut rng = Rng::derive(seed, 100 + task.id as u64);
        let mut rows = Vec::with_capacity(COLUMN_ROWS);
        let mut expected = Vec::with_capacity(COLUMN_ROWS);
        for i in 0..COLUMN_ROWS {
            let truth = &task.rows[rng.below(task.rows.len())];
            let mut row = truth.inputs.clone();
            let want = if mutate(&mut rng, &mut row, seed, i) {
                interpret(&top, &row)
            } else {
                Some(truth.output.clone())
            };
            rows.push(row);
            expected.push(want);
        }
        columns.push(Column {
            label: format!("task {:>2} {:<28}", task.id, task.name),
            program: top.compile(),
            rows,
            expected,
        });
    }

    // The scaled lookup: table and index build land in set-up.
    let (db, examples) = scaled_lookup_database(SCALED_ROWS);
    let engine = Engine::new(Arc::new(db));
    match engine.learn(&examples).ok().and_then(|l| l.top()) {
        Some(top) => {
            let mut rng = Rng::derive(seed, 99);
            let mut rows = Vec::with_capacity(COLUMN_ROWS);
            let mut expected = Vec::with_capacity(COLUMN_ROWS);
            for i in 0..COLUMN_ROWS {
                let [key, value]: [String; 2] = scaled_lookup_row(rng.below(SCALED_ROWS))
                    .try_into()
                    .expect("scaled rows have two cells");
                let mut row = vec![key];
                let want = if mutate(&mut rng, &mut row, seed, i) {
                    interpret(&top, &row)
                } else {
                    Some(value)
                };
                rows.push(row);
                expected.push(want);
            }
            columns.push(Column {
                label: format!("scaled_lookup {SCALED_ROWS:<16}"),
                program: top.compile(),
                rows,
                expected,
            });
        }
        None => setup_failures.push("scaled lookup did not learn".to_string()),
    }
    Fixture {
        columns,
        setup_failures,
    }
}

/// Fills the columns in seeded passes until `budget` is spent; each call
/// is checked against the expected outputs outside the timed part.
pub fn measure(fx: &Fixture, seed: u64, budget: Duration, report: &mut Report) -> Measured {
    for failure in &fx.setup_failures {
        report.op(false);
        report.line(format!("apply_bulk WRONG {failure}"));
    }
    let pool = Pool::new(SynthesisOptions::default().threads);
    let mut rng = Rng::derive(seed, 2);
    let mut per_column: Vec<(usize, Duration)> = vec![(0, Duration::ZERO); fx.columns.len()];
    let mut latencies = Vec::new();
    let start = Instant::now();
    let mut request = 0u64;
    // Rows per second of each whole pass over the columns.
    let mut pass_rates = Vec::new();
    'passes: loop {
        let (mut pass_rows, mut pass_busy) = (0usize, Duration::ZERO);
        for idx in rng.permutation(fx.columns.len()) {
            if start.elapsed() >= budget {
                break 'passes;
            }
            request += 1;
            let column = &fx.columns[idx];
            let t0 = Instant::now();
            let out = {
                let _s = span("core.run_column", request);
                column.program.run_column(&column.rows, &pool)
            };
            let elapsed = t0.elapsed();
            let ok = out == column.expected;
            report.op(ok);
            if !ok {
                report.line(format!("apply_bulk WRONG {}", column.label));
            }
            pass_busy += elapsed;
            pass_rows += column.rows.len();
            per_column[idx].0 += column.rows.len();
            per_column[idx].1 += elapsed;
            latencies.push(stats::ms(elapsed));
        }
        pass_rates.push(pass_rows as f64 / pass_busy.as_secs_f64());
    }
    for (column, (rows, time)) in fx.columns.iter().zip(&per_column) {
        if *rows > 0 {
            report.line(format!(
                "apply_bulk {} rows_per_s {:>12.0} calls {}",
                column.label,
                *rows as f64 / time.as_secs_f64(),
                rows / column.rows.len()
            ));
        }
    }
    let summary = Summary::of(&latencies);
    let rows_per_s = if pass_rates.is_empty() {
        let (rows, time) = per_column
            .iter()
            .fold((0, Duration::ZERO), |(r, t), &(rows, time)| {
                (r + rows, t + time)
            });
        rows as f64 / time.as_secs_f64()
    } else {
        stats::median(&pass_rates)
    };
    report.line(format!(
        "apply_bulk column_p50_ms {:.4} column_{}_ms {:.4} n {} apply_rows_per_s {:.0}",
        summary.p50,
        summary.tail_label(),
        summary.tail,
        summary.n,
        rows_per_s
    ));
    Measured {
        summary,
        throughput: rows_per_s,
        rss_peak_mb: peak_rss_mb(),
    }
}
