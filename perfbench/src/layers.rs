//! The traced run's layer sweep: the benchmark calls each layer's public
//! functions directly, under a span, and reports per-layer times and
//! counts.
//!
//! Counts come from a pass that converges every task on a fresh engine
//! (run twice; the two must agree exactly). Times are the median of
//! [`PASSES`] passes over the converged example sets, in seeded task
//! order, with the shipped default options unless a metric names a width
//! or the memo setting it compares.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sst_benchmarks::scaled_lookup_table;
use sst_core::{
    generate_str_u, intersect_du_with, Example, Pool, Program, SemDStruct, SynthesisOptions,
    Synthesizer,
};
use sst_service::{
    decode_cell_lines, decode_lines, decode_row_lines, encode_cell_lines, encode_lines,
    encode_row_lines, ApplyRequest, Engine, LearnRequest, WireLearnResponse,
};
use sst_syntactic::generate_dag;
use sst_tables::{SubstringIndex, ValueIndex};

use crate::env::{proc_status_bytes, Report, Rng};
use crate::serve_mix;
use crate::stats::{self, median};
use crate::suite::{Suite, MAX_EXAMPLES};
use crate::trace::span;

/// Timing passes over the suite; each metric is the median pass.
pub const PASSES: usize = 3;

/// Rows of the seeded column the apply probes run.
const APPLY_PROBE_ROWS: usize = 512;

/// Seconds of served traffic at the nominal rate for the server metrics.
const SERVE_SECONDS: u64 = 4;

/// Deterministic counts of one converge pass over fresh engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counts {
    arena_stored: u64,
    arena_interned: u64,
    cache_hits: u64,
    cache_misses: u64,
}

/// One task after its conversation: converged examples, the top program,
/// and the warm engine that learned it.
struct Converged {
    task: usize,
    examples: Vec<Example>,
    top: Program,
    engine: Engine,
}

fn converge_pass(suite: &Suite, order: &[usize], report: &mut Report) -> (Counts, Vec<Converged>) {
    let mut counts = Counts::default();
    let mut out = Vec::new();
    for &idx in order {
        let task = &suite.tasks[idx];
        let engine = Engine::new(Arc::clone(&suite.dbs[idx]));
        let mut session = engine.session();
        let converged = {
            let _s = span("service.converge_with", task.id as u64);
            session
                .converge_with(&task.rows, MAX_EXAMPLES)
                .is_ok_and(|o| o.converged)
        };
        let top = session.top().ok();
        report.op(converged && top.is_some());
        let Some(top) = top.filter(|_| converged) else {
            report.line(format!("layers WRONG task {} did not converge", task.id));
            continue;
        };
        let arena = engine.arena_stats();
        let cache = engine.cache_stats();
        counts.arena_stored += arena.stored;
        counts.arena_interned += arena.interned;
        counts.cache_hits += cache.dag_hits + cache.example_hits + cache.intersect_hits;
        counts.cache_misses += cache.dag_misses + cache.example_misses + cache.intersect_misses;
        out.push(Converged {
            task: idx,
            examples: session.examples().to_vec(),
            top,
            engine,
        });
    }
    (counts, out)
}

/// Per-pass totals of the timed probes (milliseconds unless named).
#[derive(Debug, Default, Clone)]
struct Pass {
    generate_u_ms: f64,
    generate_u_calls: usize,
    generate_u_size: usize,
    generate_dag_ms: f64,
    intersect_ms: f64,
    intersect_t1_ms: f64,
    intersect_size_out: usize,
    rank_ms: f64,
    learn_on_ms: f64,
    learn_off_ms: f64,
    compile_ms: f64,
    compiled_ops: usize,
    apply_row_ns_total: f64,
    apply_rows: usize,
    column_t1_s: f64,
    service_learn_ms: f64,
    service_apply_ms: f64,
    service_run_column_ms: f64,
    service_requests: usize,
    service_failures: usize,
    codec_us: f64,
}

fn timed<T>(name: &'static str, request: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let _s = span(name, request);
    let start = Instant::now();
    let out = f();
    (out, stats::ms(start.elapsed()))
}

fn fold_intersect(structures: &[SemDStruct], pool: &Pool) -> Option<SemDStruct> {
    let (first, rest) = structures.split_first()?;
    let mut d = first.clone();
    for next in rest {
        d = intersect_du_with(&d, next, pool);
    }
    Some(d)
}

fn probe_pass(suite: &Suite, converged: &[Converged], seed: u64, pass: usize) -> Pass {
    let options = SynthesisOptions::default();
    let pool = Pool::new(options.threads);
    let serial = Pool::new(1);
    let cache_off = SynthesisOptions::builder().dag_cache(false).build();
    let mut p = Pass::default();
    for c in converged {
        let task = &suite.tasks[c.task];
        let db = &suite.dbs[c.task];
        let req = task.id as u64;
        let _task_span = span("layers.task", req);

        let mut structures = Vec::with_capacity(c.examples.len());
        for e in &c.examples {
            let (d, t) = timed("core.generate_u", req, || {
                generate_str_u(db, &e.input_refs(), &e.output, &options.lu)
            });
            p.generate_u_ms += t;
            p.generate_u_calls += 1;
            p.generate_u_size += d.size();
            structures.push(d);
            let sources: Vec<(usize, &str)> =
                e.inputs.iter().map(String::as_str).enumerate().collect();
            let (dag, t) = timed("syntactic.generate_dag", req, || {
                generate_dag(&sources, &e.output, &options.lu.syntactic)
            });
            std::hint::black_box(dag);
            p.generate_dag_ms += t;
        }
        let (d, t) = timed("core.intersect_u", req, || {
            fold_intersect(&structures, &pool)
        });
        p.intersect_ms += t;
        p.intersect_size_out += d.map_or(0, |d| d.size());
        let (d1, t) = timed("core.intersect_u_t1", req, || {
            fold_intersect(&structures, &serial)
        });
        p.intersect_t1_ms += t;
        drop(d1);

        let on = Synthesizer::with_options(Arc::clone(db), options.clone());
        let (learned, t) = timed("core.learn_cache_on", req, || on.learn(&c.examples));
        p.learn_on_ms += t;
        let off = Synthesizer::with_options(Arc::clone(db), cache_off.clone());
        let (learned_off, t) = timed("core.learn_cache_off", req, || off.learn(&c.examples));
        p.learn_off_ms += t;
        drop(learned_off);
        if let Ok(learned) = learned {
            // Ranking: the top program and the configured top-k.
            let (ranked, t) = timed("core.rank", req, || {
                (learned.top(), learned.top_k(options.top_k))
            });
            p.rank_ms += t;
            std::hint::black_box(ranked);
        }

        let (compiled, t) = timed("core.compile", req, || c.top.compile());
        p.compile_ms += t;
        p.compiled_ops += compiled.op_count();
        let mut rng = Rng::derive(seed ^ pass as u64, 200 + task.id as u64);
        let column: Vec<Vec<String>> = (0..APPLY_PROBE_ROWS)
            .map(|_| task.rows[rng.below(task.rows.len())].inputs.clone())
            .collect();
        let mut scratch = compiled.new_scratch();
        let ((), t) = timed("core.run_row_with", req, || {
            for row in &column {
                std::hint::black_box(compiled.run_row_with(row, &mut scratch));
            }
        });
        p.apply_row_ns_total += t * 1e6;
        p.apply_rows += column.len();
        let (out, t) = timed("core.run_column_t1", req, || {
            compiled.run_column(&column, &serial)
        });
        std::hint::black_box(out);
        p.column_t1_s += t / 1e3;

        // The serving requests, in-process on the warm engine.
        let row = &task.rows[rng.below(task.rows.len())];
        let mut inputs = row.inputs.clone();
        let tag = format!("zl{seed:x}p{pass}t{}", task.id);
        if let Some(first) = inputs.first_mut() {
            first.push(' ');
            first.push_str(&tag);
        }
        let learn = LearnRequest::new(vec![Example {
            inputs,
            output: format!("{} {tag}", row.output),
        }]);
        let (learned, t) = timed("service.learn", req, || {
            c.engine.learn_batch(std::slice::from_ref(&learn))
        });
        p.service_learn_ms += t;
        let apply = ApplyRequest::new(c.examples.clone(), column[..32].to_vec());
        let (applied, t) = timed("service.apply", req, || {
            c.engine.apply_batch(std::slice::from_ref(&apply))
        });
        p.service_apply_ms += t;
        let mut session = c.engine.session();
        session.add_examples(c.examples.iter().cloned());
        let all_inputs = task.input_rows();
        let (cells, t) = timed("service.run_column", req, || {
            session.run_column(&all_inputs)
        });
        p.service_run_column_ms += t;
        p.service_requests += 1;
        p.service_failures += [
            cells.is_err(),
            learned[0].result.is_err(),
            applied[0].result.is_err(),
        ]
        .into_iter()
        .filter(|&failed| failed)
        .count();

        // The same bodies through the wire codec, both ways.
        let cells = cells.unwrap_or_default();
        let wire_learned: Vec<WireLearnResponse> = learned
            .iter()
            .map(WireLearnResponse::from_response)
            .collect();
        let ((), t) = timed("service.wire_codec", req, || {
            let round = decode_lines::<LearnRequest>(&encode_lines(std::slice::from_ref(&learn)));
            std::hint::black_box(round.ok());
            let round = decode_lines::<ApplyRequest>(&encode_lines(std::slice::from_ref(&apply)));
            std::hint::black_box(round.ok());
            std::hint::black_box(decode_row_lines(&encode_row_lines(&all_inputs)).ok());
            std::hint::black_box(decode_cell_lines(&encode_cell_lines(&cells)).ok());
            let round = decode_lines::<WireLearnResponse>(&encode_lines(&wire_learned));
            std::hint::black_box(round.ok());
            let round = decode_lines::<sst_service::ApplyResponse>(&encode_lines(&applied));
            std::hint::black_box(round.ok());
        });
        p.codec_us += t * 1e3;
    }
    p
}

/// Runs the sweep and appends every per-layer metric except the trace
/// overhead, which the caller measures.
pub fn sweep(seed: u64, report: &mut Report) {
    let suite = Suite::load();
    let order = Rng::derive(seed, 5).permutation(suite.tasks.len());

    let (counts, converged) = converge_pass(&suite, &order, report);
    let (recount, _) = converge_pass(&suite, &order, report);
    let counts_repeat = counts == recount;
    report.op(counts_repeat);
    if !counts_repeat {
        report.line(format!(
            "layers WRONG counts differ between passes: {counts:?} vs {recount:?}"
        ));
    }

    let passes: Vec<Pass> = (0..PASSES)
        .map(|pass| probe_pass(&suite, &converged, seed, pass))
        .collect();
    let first = &passes[0];
    let sizes_repeat = passes.iter().all(|p| {
        p.generate_u_size == first.generate_u_size
            && p.intersect_size_out == first.intersect_size_out
            && p.compiled_ops == first.compiled_ops
    });
    report.op(sizes_repeat);
    if !sizes_repeat {
        report.line("layers WRONG sizes differ between passes");
    }
    for p in &passes {
        report.attempted += 3 * p.service_requests as u64;
        report.failed += p.service_failures as u64;
    }
    let med = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());

    report.metric(
        "core.generate_u_ms",
        med(|p| p.generate_u_ms / p.generate_u_calls.max(1) as f64),
        "ms",
    );
    report.metric(
        "core.generate_u.size",
        first.generate_u_size as f64,
        "count",
    );
    report.metric(
        "syntactic.generate_dag_ms",
        med(|p| p.generate_dag_ms / p.generate_u_calls.max(1) as f64),
        "ms",
    );
    let intersect = med(|p| p.intersect_ms);
    let intersect_t1 = med(|p| p.intersect_t1_ms);
    report.metric("core.intersect_u_ms", intersect, "ms");
    report.metric("core.intersect_u_t1_ms", intersect_t1, "ms");
    report.metric(
        "core.intersect_u.par_ratio",
        intersect / intersect_t1,
        "ratio",
    );
    report.metric(
        "core.intersect_u.size_out",
        first.intersect_size_out as f64,
        "count",
    );
    report.metric("core.rank_ms", med(|p| p.rank_ms), "ms");
    let on = med(|p| p.learn_on_ms);
    let off = med(|p| p.learn_off_ms);
    report.metric("core.learn_cache_on_ms", on, "ms");
    report.metric("core.learn_cache_off_ms", off, "ms");
    report.metric("core.memo_overhead_ratio", on / off, "ratio");
    report.metric("arena.stored", counts.arena_stored as f64, "count");
    report.metric("arena.interned", counts.arena_interned as f64, "count");
    report.metric(
        "arena.dedup_ratio",
        counts.arena_interned as f64 / counts.arena_stored.max(1) as f64,
        "ratio",
    );
    report.metric("core.cache.hits", counts.cache_hits as f64, "count");
    report.metric("core.cache.misses", counts.cache_misses as f64, "count");
    report.metric(
        "core.cache.hit_ratio",
        counts.cache_hits as f64 / (counts.cache_hits + counts.cache_misses).max(1) as f64,
        "ratio",
    );
    report.metric(
        "service.learn_ms",
        med(|p| p.service_learn_ms / p.service_requests.max(1) as f64),
        "ms",
    );
    report.metric(
        "service.apply_ms",
        med(|p| p.service_apply_ms / p.service_requests.max(1) as f64),
        "ms",
    );
    report.metric(
        "service.run_column_ms",
        med(|p| p.service_run_column_ms / p.service_requests.max(1) as f64),
        "ms",
    );
    report.metric(
        "service.wire_codec_us",
        med(|p| p.codec_us / p.service_requests.max(1) as f64),
        "us",
    );
    report.metric("core.compile_ms", med(|p| p.compile_ms), "ms");
    report.metric("core.compiled.ops", first.compiled_ops as f64, "count");
    report.metric(
        "core.apply_row_ns",
        med(|p| p.apply_row_ns_total / p.apply_rows.max(1) as f64),
        "ns",
    );
    report.metric(
        "core.apply_column_t1_rows_per_s",
        med(|p| p.apply_rows as f64 / p.column_t1_s),
        "rows/s",
    );
    drop(converged);

    // Table index builds over the 10⁵-row scaled lookup table.
    let table = scaled_lookup_table(crate::apply_bulk::SCALED_ROWS);
    let mut value_ms = Vec::new();
    let mut substring_ms = Vec::new();
    for pass in 0..PASSES {
        let (v, t) = timed("tables.value_index_build", pass as u64, || {
            ValueIndex::build(&table)
        });
        value_ms.push(t);
        drop(v);
        let (s, t) = timed("tables.substring_index_build", pass as u64, || {
            SubstringIndex::build(&table)
        });
        substring_ms.push(t);
        drop(s);
    }
    report.metric("tables.value_index_build_ms", median(&value_ms), "ms");
    report.metric(
        "tables.substring_index_build_ms",
        median(&substring_ms),
        "ms",
    );
    drop(table);

    serve_layers(seed, report);
}

/// A short served run at the nominal rate: the server's own handle times
/// per endpoint, the rest of each client-observed request, admission
/// refusals, generator lateness, and arena residency.
fn serve_layers(seed: u64, report: &mut Report) {
    let fx = serve_mix::setup();
    let mut side = Report::default();
    let (_, detail) = serve_mix::measure(
        &fx,
        seed,
        Duration::from_secs(SERVE_SECONDS),
        false,
        &mut side,
    );
    report.attempted += side.attempted;
    report.failed += side.failed;
    report
        .lines
        .extend(side.lines.into_iter().filter(|l| l.contains("WRONG")));

    let mut server_count = 0u64;
    let mut server_ns = 0u64;
    for endpoint in serve_mix::ENDPOINTS {
        let (c0, s0) = detail
            .server_before
            .get(endpoint)
            .copied()
            .unwrap_or_default();
        let (c1, s1) = detail
            .server_after
            .get(endpoint)
            .copied()
            .unwrap_or_default();
        let (count, ns) = (c1.saturating_sub(c0), s1.saturating_sub(s0));
        server_count += count;
        server_ns += ns;
        let mean_ms = if count == 0 {
            0.0
        } else {
            ns as f64 / count as f64 / 1e6
        };
        report.metric(format!("server.handle_ms.{endpoint}"), mean_ms, "ms");
    }
    let (client_count, client_ms) = detail
        .client_service_ms
        .values()
        .fold((0u64, 0.0), |(n, t), &(c, ms)| (n + c, t + ms));
    let client_mean = client_ms / client_count.max(1) as f64;
    let server_mean = server_ns as f64 / server_count.max(1) as f64 / 1e6;
    report.metric("server.wire_wait_ms", client_mean - server_mean, "ms");
    report.metric("server.rejected", detail.rejected as f64, "count");
    report.metric("loadgen.late_p99_ms", detail.late_p99_ms, "ms");
    let resident: u64 = fx
        .engines
        .iter()
        .map(|e| e.arena_stats().resident_bytes)
        .sum();
    report.metric("arena.resident_bytes", resident as f64, "bytes");
    report.metric(
        "arena.resident_vs_rss",
        resident as f64 / proc_status_bytes("VmRSS:").max(1) as f64,
        "ratio",
    );
}
