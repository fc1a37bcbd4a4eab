//! Served-traffic harness: the 50-task suite as concurrent conversations
//! over real sockets.
//!
//! One server hosts every task engine. Sixty sessions, round-robin over
//! the tasks, are all created before any is driven, then eight concurrent
//! keep-alive clients run each one's §3.2 loop over the wire: create with
//! the first ground-truth row, `run_column`, add the first mislabeled row,
//! stop at convergence or [`MAX_EXAMPLES`], then `status`. A batch-apply
//! pass replays each task's converged examples and a warm wave of fresh
//! sessions replays the conversations over hot caches. Where
//! `server_equivalence` derives the examples in process, this harness
//! lets the wire derive them and then checks that the in-process
//! `Session::converge_with` arrives at the same examples and cells.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

use semantic_strings::benchmarks::{all_tasks, BenchmarkTask};
use semantic_strings::prelude::*;
use semantic_strings::service::encode_lines;

const MAX_EXAMPLES: usize = 3;
/// Interactive sessions; at least one per task, some tasks doubled.
const SESSIONS: usize = 60;
/// Concurrent keep-alive clients (one worker thread each).
const CONNECTIONS: usize = 8;

/// One session driven to its end over the wire.
struct Drive {
    task: usize,
    session: u64,
    converged: bool,
    examples: Vec<Example>,
    cells: Vec<Option<String>>,
}

fn engine_name(task: &BenchmarkTask) -> String {
    format!("task-{}", task.id)
}

fn inputs_of(task: &BenchmarkTask) -> Vec<Vec<String>> {
    task.rows.iter().map(|r| r.inputs.clone()).collect()
}

/// The first row whose cell differs from the ground truth.
fn first_wrong(task: &BenchmarkTask, cells: &[Option<String>]) -> Option<usize> {
    let mut rows = task.rows.iter().zip(cells);
    rows.position(|(row, cell)| cell.as_deref() != Some(row.output.as_str()))
}

/// Runs `work` over every job on [`CONNECTIONS`] workers, each owning one
/// keep-alive [`Client`]. Results come back in completion order.
fn fan_out<J: Send, R: Send>(
    addr: SocketAddr,
    jobs: Vec<J>,
    work: impl Fn(&mut Client, J) -> R + Sync,
) -> Vec<R> {
    let jobs = Mutex::new(jobs.into_iter());
    let results = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..CONNECTIONS {
            scope.spawn(|| {
                let mut client = Client::connect(addr).expect("connect worker");
                loop {
                    let Some(job) = jobs.lock().unwrap().next() else {
                        return;
                    };
                    let result = work(&mut client, job);
                    results.lock().unwrap().push(result);
                }
            });
        }
    });
    results.into_inner().unwrap()
}

/// Opens a session on `task`'s engine seeded with its first row.
fn create(client: &mut Client, task: &BenchmarkTask) -> u64 {
    let first = std::slice::from_ref(&task.rows[0]);
    let info = client.create_session(&engine_name(task), first);
    info.expect("create session").session
}

/// Drives one session's §3.2 loop against the task's ground truth.
fn drive(client: &mut Client, tasks: &[BenchmarkTask], (task, session): (usize, u64)) -> Drive {
    let t = &tasks[task];
    let name = engine_name(t);
    let mut examples = vec![t.rows[0].clone()];
    let (converged, cells) = loop {
        let cells = client.run_column(&name, session, &inputs_of(t));
        let cells = cells.expect("run_column");
        match first_wrong(t, &cells) {
            None => break (true, cells),
            Some(_) if examples.len() >= MAX_EXAMPLES => break (false, cells),
            Some(i) => {
                let added = client.add_examples(&name, session, &t.rows[i..=i]);
                added.expect("add example");
                examples.push(t.rows[i].clone());
            }
        }
    };
    client.status(&name, session).expect("session status");
    Drive {
        task,
        session,
        converged,
        examples,
        cells,
    }
}

/// `sst_cache_hits_total` summed over every engine and layer on `/metrics`.
fn cache_hits(addr: SocketAddr) -> u64 {
    let mut client = Client::connect(addr).expect("connect scraper");
    let text = client.metrics_text().expect("metrics");
    text.lines()
        .filter(|line| line.starts_with("sst_cache_hits_total"))
        .filter_map(|line| line.rsplit_once(' ')?.1.parse::<u64>().ok())
        .sum()
}

#[test]
fn served_conversations_converge_and_match_in_process() {
    let tasks = all_tasks();
    let engine = |task: &BenchmarkTask| Engine::new(Arc::new(task.db.clone()));
    let engines = tasks.iter().map(|t| (engine_name(t), engine(t))).collect();
    let server = Server::bind_named(engines, ServerConfig::default()).expect("bind server");
    let addr = server.local_addr();
    let round_robin = || (0..SESSIONS).map(|k| k % tasks.len()).collect::<Vec<_>>();

    // Every session is live server-side before any is driven.
    let mut sessions = fan_out(addr, round_robin(), |client, task| {
        (task, create(client, &tasks[task]))
    });
    sessions.sort_by_key(|&(_, session)| session);
    let drives = fan_out(addr, sessions, |client, job| drive(client, &tasks, job));
    let converged = drives.iter().all(|d| d.converged);
    assert!(converged, "a session did not converge");

    // Each task's first driven session feeds the batch and the diff.
    let per_task: Vec<&Drive> = (0..tasks.len())
        .map(|task| drives.iter().find(|d| d.task == task).expect("driven"))
        .collect();
    let tasks_converged = per_task.iter().filter(|d| d.converged).count();
    assert_eq!(tasks_converged, tasks.len(), "a task did not converge");

    // One batch-apply pass of the converged example sets.
    let requests: Vec<ApplyRequest> = per_task
        .iter()
        .map(|d| ApplyRequest::new(d.examples.clone(), inputs_of(&tasks[d.task])))
        .collect();
    let applies = fan_out(addr, (0..tasks.len()).collect(), |client, task| {
        let request = std::slice::from_ref(&requests[task]);
        let wire = client.apply(&engine_name(&tasks[task]), request);
        (task, wire.expect("batch apply"))
    });

    // A warm wave of fresh sessions must be served from the engine caches.
    let hits_before = cache_hits(addr);
    let warm = fan_out(addr, round_robin(), |client, task| {
        let session = create(client, &tasks[task]);
        let d = drive(client, &tasks, (task, session));
        let closed = client.close_session(&engine_name(&tasks[task]), session);
        closed.expect("close warm session");
        d
    });
    let converged = warm.iter().all(|d| d.converged);
    assert!(converged, "a warm session did not converge");
    let warm_hits = cache_hits(addr) - hits_before;
    assert!(warm_hits > 0, "warm replay produced no cache hits");

    // The same conversations in process: the wire changed nothing.
    for (task, wire) in &applies {
        let (t, d) = (&tasks[*task], per_task[*task]);
        let twin = engine(t);
        let local_apply = twin.apply_batch(std::slice::from_ref(&requests[*task]));
        let id = format!("task {} ({})", t.id, t.name);
        let (wire_bytes, local_bytes) = (encode_lines(wire), encode_lines(&local_apply));
        assert_eq!(wire_bytes, local_bytes, "{id}: apply bytes drifted");
        let cells = wire[0].result.as_ref().expect("apply succeeds");
        assert_eq!(first_wrong(t, cells), None, "{id}: batch output is wrong");

        let mut session = twin.session();
        let local = session.converge_with(&t.rows, MAX_EXAMPLES).unwrap();
        let local_cells = session.run_column(&inputs_of(t)).expect("run_column");
        assert_eq!(local.converged, d.converged, "{id}: convergence drifted");
        let examples = session.examples();
        assert_eq!(examples, &d.examples[..], "{id}: examples drifted");
        assert_eq!(local_cells, d.cells, "{id}: final cells drifted");
    }

    let mut client = Client::connect(addr).expect("connect");
    for d in &drives {
        let closed = client.close_session(&engine_name(&tasks[d.task]), d.session);
        closed.expect("close session");
    }
    let rejected = server.rejected_requests();
    assert_eq!(rejected, 0, "admission rejected requests");
}
