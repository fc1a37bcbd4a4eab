//! Differential harness for the service plane.
//!
//! `Engine::learn_batch` fans independent requests across the engine's
//! worker pool over one shared warm `DagCache`; `Session` drives the §3.2
//! incremental protocol through the same plane. Neither may change a
//! single observable: this harness replays the full 50-task benchmark
//! suite through the batch path at pool widths 1, 2, 4 and the machine
//! width and asserts exact program counts, structure sizes and top-k
//! ranked outputs **bit-identical** to sequential `Synthesizer::learn`
//! calls, then drives multi-session conversations and checks they
//! converge exactly like the core `converge` loop.

use std::sync::Arc;

use semantic_strings::benchmarks::all_tasks;
use semantic_strings::core::{converge, default_threads, SynthesisOptions};
use semantic_strings::prelude::*;

const MAX_EXAMPLES: usize = 3;
const TOP_K: usize = 3;

/// Observed outputs: one row of `run` results per top-k program.
type TopKOutputs = Vec<Vec<Option<String>>>;

/// All observables of one learned program set: exact count, size, and the
/// top-k ranked outputs over every spreadsheet row.
fn observe(
    learned: &semantic_strings::core::LearnedPrograms,
    rows: &[semantic_strings::core::Example],
) -> (String, usize, TopKOutputs) {
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

/// The whole suite through `Engine::learn_batch`, at every pool width:
/// each task contributes one request per example prefix of its converged
/// example sequence (so batches mix one- and multi-example requests), and
/// every response must match the sequential learn of the same prefix bit
/// for bit.
#[test]
fn learn_batch_matches_sequential_learning_on_every_task() {
    let mut widths = vec![1usize, 2, 4, default_threads()];
    widths.sort_unstable();
    widths.dedup();

    // Sequential baseline (and the example sequences): plain Synthesizer.
    struct Baseline {
        task: semantic_strings::benchmarks::BenchmarkTask,
        examples: Vec<Example>,
        expected: Vec<(String, usize, TopKOutputs)>,
    }
    let baselines: Vec<Baseline> = all_tasks()
        .into_iter()
        .map(|task| {
            let synthesizer = Synthesizer::new(Arc::new(task.db.clone()));
            let report = converge(&synthesizer, &task.rows, MAX_EXAMPLES)
                .unwrap_or_else(|e| panic!("task {} ({}): {e}", task.id, task.name));
            let expected = (1..=report.examples.len())
                .map(|n| {
                    let learned = synthesizer
                        .learn(&report.examples[..n])
                        .unwrap_or_else(|e| {
                            panic!("task {} ({}) prefix {n}: {e}", task.id, task.name)
                        });
                    observe(&learned, &task.rows)
                })
                .collect();
            Baseline {
                task,
                examples: report.examples,
                expected,
            }
        })
        .collect();

    for &threads in &widths {
        for baseline in &baselines {
            let engine = Engine::with_options(
                Arc::new(baseline.task.db.clone()),
                SynthesisOptions::builder().threads(threads).build(),
            );
            let requests: Vec<LearnRequest> = (1..=baseline.examples.len())
                .map(|n| LearnRequest::new(baseline.examples[..n].to_vec()))
                .collect();
            let responses = engine.learn_batch(&requests);
            assert_eq!(responses.len(), requests.len());
            for (i, (response, expected)) in responses.iter().zip(&baseline.expected).enumerate() {
                assert_eq!(response.request, i, "responses must keep request order");
                let learned = response.programs().unwrap_or_else(|| {
                    panic!(
                        "task {} ({}) width {threads} request {i} failed: {:?}",
                        baseline.task.id, baseline.task.name, response.result
                    )
                });
                assert_eq!(
                    &observe(learned, &baseline.task.rows),
                    expected,
                    "task {} ({}) width {threads} request {i} drifted from sequential learn",
                    baseline.task.id,
                    baseline.task.name
                );
            }

            // Replaying the same batch is memo-served and still identical.
            let replay = engine.learn_batch(&requests);
            for (i, (response, expected)) in replay.iter().zip(&baseline.expected).enumerate() {
                assert_eq!(
                    &observe(
                        response.programs().expect("replay learns"),
                        &baseline.task.rows
                    ),
                    expected,
                    "task {} ({}) width {threads} warm replay request {i} drifted",
                    baseline.task.id,
                    baseline.task.name
                );
            }
        }
    }
}

/// The §3.2 protocol through sessions: every suite task converges through
/// `Session::converge_with` exactly like the core `converge` loop — same
/// number of examples, same convergence verdict, same final observables —
/// with *two* sessions per engine running the conversation independently
/// over one shared plane.
#[test]
fn multi_session_convergence_matches_the_core_loop() {
    for task in all_tasks() {
        let synthesizer = Synthesizer::new(Arc::new(task.db.clone()));
        let report = converge(&synthesizer, &task.rows, MAX_EXAMPLES)
            .unwrap_or_else(|e| panic!("task {} ({}): {e}", task.id, task.name));
        let expected = observe(
            report
                .learned
                .as_ref()
                .expect("converge returns a learned set"),
            &task.rows,
        );

        let engine = Engine::new(Arc::new(task.db.clone()));
        let mut first = engine.session();
        let mut second = engine.session();
        for (name, session) in [("first", &mut first), ("second", &mut second)] {
            let outcome = session
                .converge_with(&task.rows, MAX_EXAMPLES)
                .unwrap_or_else(|e| panic!("task {} ({}) {name}: {e}", task.id, task.name));
            assert_eq!(
                outcome.examples_used, report.examples_used,
                "task {} ({}) {name} session used a different number of examples",
                task.id, task.name
            );
            assert_eq!(outcome.converged, report.converged);
            assert_eq!(
                observe(session.learned().expect("converged"), &task.rows),
                expected,
                "task {} ({}) {name} session drifted from the core loop",
                task.id,
                task.name
            );
        }
        // The second conversation replayed the first one's learns from the
        // shared plane.
        let stats = engine.cache_stats();
        assert!(
            stats.example_hits > 0,
            "task {} ({}): second session should hit the shared memo plane: {stats:?}",
            task.id,
            task.name
        );
    }
}
