//! Differential harness for the memoized DAG plane.
//!
//! The `DagCache` (per-value DAG memo keyed by `(sources_epoch, value)`,
//! prefix memo keyed by example chains, `Arc`-shared predicate/top DAGs)
//! and the pruned `Intersect_u` are *representation and scheduling*
//! changes: every observable — program counts, data-structure sizes, convergence
//! behavior, top-k ranked outputs — must be bit-identical with the cache
//! enabled and disabled. This harness replays the full benchmark suite
//! both ways, including warm-cache relearns (the §3.2 loop is what fills
//! the memo), so any stale or mis-keyed hit fails loudly on the exact
//! task that exposed it.

use semantic_strings::benchmarks::{all_tasks, BenchmarkTask};
use semantic_strings::core::{converge, SynthesisOptions};
use semantic_strings::prelude::*;

const MAX_EXAMPLES: usize = 3;
const TOP_K: usize = 3;

fn synthesizer(db: &Database, dag_cache: bool) -> Synthesizer {
    Synthesizer::with_options(
        std::sync::Arc::new(db.clone()),
        SynthesisOptions::builder().dag_cache(dag_cache).build(),
    )
}

/// All observables of one learned program set: exact count, size, and the
/// top-k ranked outputs over every spreadsheet row.
fn observe(
    learned: &semantic_strings::core::LearnedPrograms,
    rows: &[semantic_strings::core::Example],
) -> (String, usize, Vec<Vec<Option<String>>>) {
    let outputs = learned
        .top_k(TOP_K)
        .iter()
        .map(|p| {
            rows.iter()
                .map(|r| {
                    let refs: Vec<&str> = r.inputs.iter().map(String::as_str).collect();
                    p.run(&refs)
                })
                .collect()
        })
        .collect();
    (learned.count().to_decimal(), learned.size(), outputs)
}

#[test]
fn cache_on_and_off_agree_on_every_task() {
    for task in all_tasks() {
        let cached = synthesizer(&task.db, true);
        let uncached = synthesizer(&task.db, false);

        // The interaction loop is the differential workload: it re-learns
        // on a growing prefix, so the cached synthesizer serves earlier
        // examples from the memo while the uncached one regenerates them.
        let rc = converge(&cached, &task.rows, MAX_EXAMPLES)
            .unwrap_or_else(|e| panic!("task {} ({}) cached: {e}", task.id, task.name));
        let ru = converge(&uncached, &task.rows, MAX_EXAMPLES)
            .unwrap_or_else(|e| panic!("task {} ({}) uncached: {e}", task.id, task.name));
        assert_eq!(
            (rc.examples_used, rc.converged),
            (ru.examples_used, ru.converged),
            "convergence drifted on task {} ({})",
            task.id,
            task.name
        );
        let lc = rc.learned.expect("cached learned set");
        let lu = ru.learned.expect("uncached learned set");
        assert_eq!(
            observe(&lc, &task.rows),
            observe(&lu, &task.rows),
            "count/size/top-k outputs drifted on task {} ({})",
            task.id,
            task.name
        );

        // The first-example learn (Fig. 12b's x-axis), served from the
        // cached synthesizer's memo and regenerated by the uncached one.
        let first = |s: &Synthesizer| {
            s.learn(&rc.examples[..1])
                .unwrap_or_else(|e| panic!("task {} ({}) first example: {e}", task.id, task.name))
        };
        assert_eq!(
            observe(&first(&cached), &task.rows),
            observe(&first(&uncached), &task.rows),
            "first-example learn drifted on task {} ({})",
            task.id,
            task.name
        );

        // Warm relearn: every example of the converged set is now in the
        // cached synthesizer's memo; a full learn must still be identical.
        let warm = cached
            .learn(&rc.examples)
            .unwrap_or_else(|e| panic!("task {} ({}) warm relearn: {e}", task.id, task.name));
        assert_eq!(
            observe(&warm, &task.rows),
            observe(&lu, &task.rows),
            "warm relearn drifted on task {} ({})",
            task.id,
            task.name
        );
    }
}

#[test]
fn cache_actually_serves_hits_on_the_suite() {
    // Guard against the toggle silently wiring both paths to the same
    // implementation: the cached run must observe real cache traffic.
    let task = &all_tasks()[0];
    let s = synthesizer(&task.db, true);
    converge(&s, &task.rows, MAX_EXAMPLES).expect("task 1 converges");
    let stats = s.cache_stats();
    assert!(
        stats.dag_hits > 0,
        "no per-value DAG hits recorded: {stats:?}"
    );
    let s_off = synthesizer(&task.db, false);
    converge(&s_off, &task.rows, MAX_EXAMPLES).expect("task 1 converges");
    let off = s_off.cache_stats();
    assert_eq!(
        (
            off.dag_hits,
            off.dag_misses,
            off.example_hits,
            off.example_misses
        ),
        (0, 0, 0, 0),
        "disabled cache must see no traffic: {off:?}"
    );
}

#[test]
fn intersection_memo_serves_replays() {
    // The §3.2 loop replays earlier prefixes: the chain-keyed prefix memo
    // must see intersection traffic on a task that needs ≥ 2 examples.
    let task = all_tasks()
        .into_iter()
        .find(|t| {
            converge(&synthesizer(&t.db, true), &t.rows, MAX_EXAMPLES)
                .map(|r| r.examples_used >= 2)
                .unwrap_or(false)
        })
        .expect("some task needs two examples");
    let s = synthesizer(&task.db, true);
    converge(&s, &task.rows, MAX_EXAMPLES).expect("converges");
    let report = converge(&s, &task.rows, MAX_EXAMPLES).expect("replay converges");
    assert!(report.learned.is_some());
    let stats = s.cache_stats();
    assert!(
        stats.intersect_hits > 0,
        "no intersection-memo hits recorded: {stats:?}"
    );
}

/// A no-op mutation round trip — one benign row inserted into table 0 of
/// every task database that has tables, then deleted — must leave every
/// observable of a fresh engine's §3.2 loop bit-identical to the untouched
/// database: convergence, count, size, top-k outputs and the arena a
/// snapshot would write. The lone tombstone stays far below the compaction threshold, so
/// the incremental index paths (not the rebuild fallback) carry the trip.
#[test]
fn noop_mutation_round_trip_changes_no_observable() {
    let converge_fresh = |db: Database, task: &BenchmarkTask| {
        let engine = Engine::new(std::sync::Arc::new(db));
        let mut session = engine.session();
        let outcome = session
            .converge_with(&task.rows, MAX_EXAMPLES)
            .unwrap_or_else(|e| panic!("task {} ({}): {e}", task.id, task.name));
        let observed = observe(session.learned().expect("converged"), &task.rows);
        let arena = engine.arena_stats();
        (
            outcome.examples_used,
            outcome.converged,
            observed,
            arena.stored,
            arena.interned,
        )
    };
    for task in all_tasks().into_iter().filter(|t| !t.db.is_empty()) {
        let mut db = task.db.clone();
        let row: Vec<String> = (0..db.table(0).width())
            .map(|c| format!("\u{2047}noop{c}\u{2047}"))
            .collect();
        let ids = db.insert_rows(0, vec![row]).expect("round-trip insert");
        db.delete_rows(0, &ids).expect("round-trip delete");
        assert_eq!(
            converge_fresh(db, &task),
            converge_fresh(task.db.clone(), &task),
            "no-op mutation round trip changed an observable on task {} ({})",
            task.id,
            task.name
        );
    }
}
