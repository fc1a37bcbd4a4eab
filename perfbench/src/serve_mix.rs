//! `serve_mix`: an open loop of mixed requests against an in-process
//! `sst-server` hosting the 50 task engines, over two keep-alive
//! connections.
//!
//! Requests arrive on a fixed schedule whatever the server does, and each
//! is timed from its due time. About 70% of requests replay §3.2
//! conversations (create, `run_column`, `add_examples`, `status`, close),
//! served from the memo after set-up warmed every task once; about 20%
//! are batch `apply` requests over seeded rows; about 10% are novel
//! `learn` requests whose example strings carry a seeded unique tag, so
//! they miss every memo and grow it. The run first holds a fixed nominal
//! rate, then climbs a ladder of rates to find the highest one that keeps
//! the p99 limit without a growing backlog.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use sst_core::Example;
use sst_server::{Client, ClientError, Server, ServerConfig, SessionInfo};
use sst_service::{
    ApplyRequest, ApplyResponse, Engine, LearnRequest, SessionStatus, WireLearnResponse,
};

use crate::env::{peak_rss_mb, Deck, Report, Rng};
use crate::stats::{self, DueTiming, Schedule, Summary};
use crate::suite::{Suite, MAX_EXAMPLES};
use crate::trace::span;
use crate::Measured;

/// The fixed rate at which `p50_ms` and `p99_ms` are measured: about a
/// sixth of what one core serves, so a host stall is not amplified by
/// queueing into every later request.
pub const NOMINAL_RPS: f64 = 250.0;

/// Share of the budget the nominal phase gets when the ladder follows.
const NOMINAL_SHARE: f64 = 0.6;

/// Requests per window of the nominal phase; `p50_ms` and `p99_ms` are
/// medians over windows, so a short stall on the host moves one window.
pub const WINDOW: usize = 1000;

/// The p99 latency a ladder rate must hold.
pub const P99_LIMIT_MS: f64 = 50.0;

/// Client connections, one load thread each: at most the `nproc` of the
/// 2-CPU machines this benchmark targets.
pub const CONNECTIONS: usize = 2;

/// Request mix: conversation steps, batch applies, novel learns (rest).
const CONVERSATION_PCT: usize = 70;
const APPLY_PCT: usize = 20;

/// Rows per batch apply request.
const APPLY_ROWS: usize = 32;

/// Conversations open at once; more than [`CONNECTIONS`], so one is
/// always idle.
const OPEN_CONVERSATIONS: usize = 4;

/// One request in this many is replayed in-process after the run and
/// its wire answer compared.
const SAMPLE_ONE_IN: usize = 8;

/// How late a request may be sent before its phase counts as overrun.
const OVERRUN: Duration = Duration::from_secs(2);

pub struct Fixture {
    pub suite: Suite,
    pub server: Server,
    /// Handles on the engines the server hosts (clones share state).
    pub engines: Vec<Engine>,
    pub names: Vec<String>,
    /// Each task's converged example set, from its warm-up conversation.
    pub converged: Vec<Vec<Example>>,
    pub setup_failures: Vec<String>,
}

/// Boots the server over fresh engines and warms each task with one
/// conversation over the wire.
pub fn setup() -> Fixture {
    let suite = Suite::load();
    let names: Vec<String> = suite
        .tasks
        .iter()
        .map(|t| format!("task-{}", t.id))
        .collect();
    let engines: Vec<Engine> = suite
        .dbs
        .iter()
        .map(|db| Engine::new(Arc::clone(db)))
        .collect();
    let named = names.iter().cloned().zip(engines.iter().cloned()).collect();
    let server = Server::bind_named(named, ServerConfig::default()).expect("bind server");
    let mut client = Client::connect(server.local_addr()).expect("connect warm-up client");
    let mut converged = Vec::with_capacity(suite.tasks.len());
    let mut setup_failures = Vec::new();
    for (idx, task) in suite.tasks.iter().enumerate() {
        let mut conv = Conversation::new(idx);
        let mut ok = true;
        while !matches!(conv.step, Step::Done) && ok {
            let request = conv.request(&suite);
            let response = execute(&mut client, &names, &request);
            ok = conv.advance(&suite, response);
        }
        if !ok || !conv.converged {
            setup_failures.push(format!("task {} ({}) warm-up failed", task.id, task.name));
        }
        converged.push(conv.examples);
    }
    Fixture {
        suite,
        server,
        engines,
        names,
        converged,
        setup_failures,
    }
}

/// Where a conversation stands.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    Create,
    RunColumn,
    AddExample(usize),
    Status,
    Close,
    Done,
}

/// One replayed §3.2 conversation: the simulated user fixes the first
/// mislabeled row until the column is right.
struct Conversation {
    task: usize,
    session: u64,
    examples: Vec<Example>,
    step: Step,
    busy: bool,
    converged: bool,
}

impl Conversation {
    fn new(task: usize) -> Conversation {
        Conversation {
            task,
            session: 0,
            examples: Vec::new(),
            step: Step::Create,
            busy: false,
            converged: false,
        }
    }

    fn request(&self, suite: &Suite) -> Request {
        let rows = &suite.tasks[self.task].rows;
        let engine = self.task;
        let session = self.session;
        match self.step {
            Step::Create => Request::Create {
                engine,
                examples: vec![rows[0].clone()],
            },
            Step::RunColumn => Request::RunColumn {
                engine,
                session,
                rows: rows.iter().map(|r| r.inputs.clone()).collect(),
                examples: self.examples.clone(),
            },
            Step::AddExample(row) => Request::AddExamples {
                engine,
                session,
                example: rows[row].clone(),
                held: self.examples.len() + 1,
            },
            Step::Status => Request::Status {
                engine,
                session,
                examples: self.examples.clone(),
            },
            Step::Close | Step::Done => Request::Close { engine, session },
        }
    }

    /// Moves to the next step; false when the response was wrong.
    fn advance(&mut self, suite: &Suite, response: Result<Response, ClientError>) -> bool {
        let rows = &suite.tasks[self.task].rows;
        let Ok(response) = response else {
            self.step = Step::Done;
            return false;
        };
        match (self.step, response) {
            (Step::Create, Response::Info(info)) if info.examples == 1 => {
                self.session = info.session;
                self.examples = vec![rows[0].clone()];
                self.step = Step::RunColumn;
            }
            (Step::RunColumn, Response::Cells(cells)) if cells.len() == rows.len() => {
                let failing = rows
                    .iter()
                    .zip(&cells)
                    .position(|(row, cell)| cell.as_deref() != Some(row.output.as_str()));
                match failing {
                    None => self.step = Step::Status,
                    Some(i) if self.examples.len() < MAX_EXAMPLES => {
                        self.step = Step::AddExample(i)
                    }
                    Some(_) => {
                        self.step = Step::Close;
                        return false;
                    }
                }
            }
            (Step::AddExample(i), Response::Info(info))
                if info.examples == self.examples.len() + 1 =>
            {
                self.examples.push(rows[i].clone());
                self.step = Step::RunColumn;
            }
            (Step::Status, Response::Status(status)) if status.is_converged() => {
                self.converged = true;
                self.step = Step::Close;
            }
            (Step::Close, Response::Closed) => self.step = Step::Done,
            _ => {
                self.step = Step::Done;
                return false;
            }
        }
        true
    }
}

/// One request, with what the benchmark needs to check its answer.
#[derive(Debug, Clone)]
enum Request {
    Create {
        engine: usize,
        examples: Vec<Example>,
    },
    RunColumn {
        engine: usize,
        session: u64,
        rows: Vec<Vec<String>>,
        examples: Vec<Example>,
    },
    AddExamples {
        engine: usize,
        session: u64,
        example: Example,
        held: usize,
    },
    Status {
        engine: usize,
        session: u64,
        examples: Vec<Example>,
    },
    Close {
        engine: usize,
        session: u64,
    },
    Apply {
        engine: usize,
        request: ApplyRequest,
        expected: Vec<Option<String>>,
    },
    Learn {
        engine: usize,
        request: LearnRequest,
    },
}

impl Request {
    /// The server's metric label for the endpoint this request hits.
    fn endpoint(&self) -> &'static str {
        match self {
            Request::Create { .. } => "session_create",
            Request::RunColumn { .. } => "run_column",
            Request::AddExamples { .. } => "add_examples",
            Request::Status { .. } => "status",
            Request::Close { .. } => "session_close",
            Request::Apply { .. } => "apply",
            Request::Learn { .. } => "learn",
        }
    }

    fn engine(&self) -> usize {
        match self {
            Request::Create { engine, .. }
            | Request::RunColumn { engine, .. }
            | Request::AddExamples { engine, .. }
            | Request::Status { engine, .. }
            | Request::Close { engine, .. }
            | Request::Apply { engine, .. }
            | Request::Learn { engine, .. } => *engine,
        }
    }
}

/// The server's endpoints the mix hits, in report order.
pub const ENDPOINTS: [&str; 7] = [
    "learn",
    "apply",
    "session_create",
    "add_examples",
    "status",
    "run_column",
    "session_close",
];

#[derive(Debug, Clone)]
enum Response {
    Info(SessionInfo),
    Cells(Vec<Option<String>>),
    Status(SessionStatus),
    Closed,
    Applied(Vec<ApplyResponse>),
    Learned(Vec<WireLearnResponse>),
}

fn execute(
    client: &mut Client,
    names: &[String],
    request: &Request,
) -> Result<Response, ClientError> {
    let name = &names[request.engine()];
    match request {
        Request::Create { examples, .. } => {
            client.create_session(name, examples).map(Response::Info)
        }
        Request::RunColumn { session, rows, .. } => {
            client.run_column(name, *session, rows).map(Response::Cells)
        }
        Request::AddExamples {
            session, example, ..
        } => client
            .add_examples(name, *session, std::slice::from_ref(example))
            .map(Response::Info),
        Request::Status { session, .. } => client.status(name, *session).map(Response::Status),
        Request::Close { session, .. } => client
            .close_session(name, *session)
            .map(|()| Response::Closed),
        Request::Apply { request, .. } => client
            .apply(name, std::slice::from_ref(request))
            .map(Response::Applied),
        Request::Learn { request, .. } => client
            .learn(name, std::slice::from_ref(request))
            .map(Response::Learned),
    }
}

/// Whether a stateless answer is right on its own terms (conversation
/// steps are judged by [`Conversation::advance`]).
fn stateless_ok(request: &Request, response: &Result<Response, ClientError>) -> bool {
    match (request, response) {
        (Request::Apply { expected, .. }, Ok(Response::Applied(r))) => {
            r.len() == 1 && r[0].outputs() == Some(expected.as_slice())
        }
        (Request::Learn { .. }, Ok(Response::Learned(r))) => r.len() == 1 && r[0].result.is_ok(),
        _ => false,
    }
}

/// A request whose wire answer is compared with the in-process engine's
/// after the run.
struct Sampled {
    request: Request,
    wire: Response,
}

/// The shared request source of a run: the seeded mix, the open
/// conversations, and the sampled answers.
struct Generator {
    seed: u64,
    slot: usize,
    mix: Rng,
    conversation_tasks: Deck,
    apply_tasks: Deck,
    learn_tasks: Deck,
    /// Novel learns dealt to each task so far.
    learn_turns: Vec<usize>,
    conversations: Vec<Conversation>,
    sampled: Vec<Sampled>,
    attempted: u64,
    failed: u64,
    wrong: Vec<String>,
}

/// A request handed to a load thread: its kind, and the conversation it
/// belongs to.
struct Ticket {
    slot: usize,
    request: Request,
    conversation: Option<usize>,
}

impl Generator {
    fn new(seed: u64, tasks: usize) -> Generator {
        let mut conversation_tasks = Deck::new(Rng::derive(seed, 4), tasks);
        let conversations = (0..OPEN_CONVERSATIONS)
            .map(|_| Conversation::new(conversation_tasks.deal()))
            .collect();
        Generator {
            seed,
            slot: 0,
            mix: Rng::derive(seed, 3),
            conversation_tasks,
            apply_tasks: Deck::new(Rng::derive(seed, 6), tasks),
            learn_tasks: Deck::new(Rng::derive(seed, 7), tasks),
            learn_turns: vec![0; tasks],
            conversations,
            sampled: Vec::new(),
            attempted: 0,
            failed: 0,
            wrong: Vec::new(),
        }
    }

    fn next(&mut self, fx: &Fixture) -> Ticket {
        let slot = self.slot;
        self.slot += 1;
        let tasks = &fx.suite.tasks;
        let pick = self.mix.below(100);
        if pick < CONVERSATION_PCT {
            let at = self
                .conversations
                .iter()
                .position(|c| !c.busy)
                .expect("more open conversations than connections");
            let conv = &mut self.conversations[at];
            conv.busy = true;
            let request = conv.request(&fx.suite);
            return Ticket {
                slot,
                request,
                conversation: Some(at),
            };
        }
        let request = if pick < CONVERSATION_PCT + APPLY_PCT {
            let task = self.apply_tasks.deal();
            let rows = &tasks[task].rows;
            let picked: Vec<usize> = (0..APPLY_ROWS)
                .map(|_| self.mix.below(rows.len()))
                .collect();
            Request::Apply {
                engine: task,
                request: ApplyRequest::new(
                    fx.converged[task].clone(),
                    picked.iter().map(|&i| rows[i].inputs.clone()).collect(),
                ),
                expected: picked
                    .iter()
                    .map(|&i| Some(rows[i].output.clone()))
                    .collect(),
            }
        } else {
            // A real row with a tag no memo has seen: the learn must find
            // the row's transformation around it.
            // Each task's rows take turns, so the learns' cost and memory
            // do not hinge on which rows a seed happened to draw.
            let task = self.learn_tasks.deal();
            let rows = &tasks[task].rows;
            let turn = &mut self.learn_turns[task];
            let row = &rows[*turn % rows.len()];
            *turn += 1;
            let tag = format!("zq{:x}n{slot}", self.seed);
            let mut inputs = row.inputs.clone();
            if let Some(first) = inputs.first_mut() {
                first.push(' ');
                first.push_str(&tag);
            }
            let output = format!("{} {tag}", row.output);
            Request::Learn {
                engine: task,
                request: LearnRequest::new(vec![Example { inputs, output }]),
            }
        };
        Ticket {
            slot,
            request,
            conversation: None,
        }
    }

    fn complete(&mut self, fx: &Fixture, ticket: Ticket, response: Result<Response, ClientError>) {
        let sampled = ticket
            .slot
            .is_multiple_of(SAMPLE_ONE_IN)
            .then(|| response.as_ref().ok().cloned())
            .flatten();
        let ok = match ticket.conversation {
            Some(at) => {
                let conv = &mut self.conversations[at];
                conv.busy = false;
                let ok = conv.advance(&fx.suite, response);
                if matches!(conv.step, Step::Done) {
                    // Slots stay put: other tickets hold their indexes.
                    let task = self.conversation_tasks.deal();
                    *conv = Conversation::new(task);
                }
                ok
            }
            None => stateless_ok(&ticket.request, &response),
        };
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.wrong.push(format!(
                "serve_mix WRONG slot {} {} on task {}",
                ticket.slot,
                ticket.request.endpoint(),
                fx.suite.tasks[ticket.request.engine()].id
            ));
        }
        if let Some(wire) = sampled {
            self.sampled.push(Sampled {
                request: ticket.request,
                wire,
            });
        }
    }
}

/// What one fixed-rate phase observed.
struct Phase {
    rate: f64,
    elapsed: Duration,
    timings: Vec<(&'static str, DueTiming)>,
    overrun: bool,
}

impl Phase {
    fn latencies_ms(&self) -> Vec<f64> {
        self.timings
            .iter()
            .map(|(_, t)| stats::ms(t.latency()))
            .collect()
    }

    fn tail_ms(&self) -> f64 {
        if self.timings.is_empty() {
            return f64::INFINITY;
        }
        Summary::of(&self.latencies_ms()).tail
    }

    /// Whether the rate held: every due request sent, the tail within the
    /// limit, and no backlog left growing at the end of the phase.
    fn holds(&self) -> bool {
        if self.overrun || self.timings.is_empty() {
            return false;
        }
        let tail = self.tail_ms();
        let last_quarter: Vec<f64> = self.timings[self.timings.len() * 3 / 4..]
            .iter()
            .map(|(_, t)| stats::ms(t.late()))
            .collect();
        tail <= P99_LIMIT_MS && stats::median(&last_quarter) <= P99_LIMIT_MS / 2.0
    }
}

/// Runs requests due at `rate` for `duration` across the clients; with
/// `closed` the schedule is ignored and each connection sends as soon as
/// its previous answer arrived (the capacity probe).
fn run_phase(
    fx: &Fixture,
    clients: &mut [Client],
    generator: &Mutex<Generator>,
    rate: f64,
    duration: Duration,
    closed: bool,
) -> Phase {
    let schedule = Schedule { rate };
    let due_count = schedule.count_within(duration);
    let next = Mutex::new(0u64);
    let overrun = std::sync::atomic::AtomicBool::new(false);
    let timings = Mutex::new(Vec::with_capacity(due_count.min(1 << 16) as usize));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            let (next, overrun, timings) = (&next, &overrun, &timings);
            scope.spawn(move || loop {
                let (i, ticket) = {
                    let mut next = next.lock().unwrap_or_else(PoisonError::into_inner);
                    let now = start.elapsed();
                    let late_stop = !closed && now > schedule.due(*next) + OVERRUN;
                    let done = if closed {
                        now >= duration
                    } else {
                        *next >= due_count
                    };
                    if done || late_stop || overrun.load(std::sync::atomic::Ordering::Relaxed) {
                        if late_stop {
                            overrun.store(true, std::sync::atomic::Ordering::Relaxed);
                        }
                        return;
                    }
                    let i = *next;
                    *next += 1;
                    let ticket = generator
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .next(fx);
                    (i, ticket)
                };
                let due = if closed {
                    start.elapsed()
                } else {
                    schedule.due(i)
                };
                let now = start.elapsed();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = start.elapsed();
                let endpoint = ticket.request.endpoint();
                let response = {
                    let _s = span("client.request", ticket.slot as u64);
                    execute(client, &fx.names, &ticket.request)
                };
                let done = start.elapsed();
                generator
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .complete(fx, ticket, response);
                timings
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push((i, endpoint, DueTiming { due, sent, done }));
            });
        }
    });
    let mut timings = timings.into_inner().unwrap_or_else(PoisonError::into_inner);
    timings.sort_by_key(|(i, _, _)| *i);
    Phase {
        rate,
        elapsed: start.elapsed(),
        timings: timings.into_iter().map(|(_, e, t)| (e, t)).collect(),
        overrun: overrun.into_inner(),
    }
}

/// Per-endpoint `(count, sum_ns)` of the server's own latency histogram,
/// scraped from `/metrics`; empty when the scrape fails.
pub fn scrape_handle_times(client: &mut Client) -> BTreeMap<String, (u64, u64)> {
    client
        .metrics_text()
        .map(|text| parse_handle_times(&text))
        .unwrap_or_default()
}

fn parse_handle_times(text: &str) -> BTreeMap<String, (u64, u64)> {
    let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for line in text.lines() {
        let Some((name, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<u64>() else {
            continue;
        };
        let endpoint = |prefix: &str| {
            name.strip_prefix(prefix)
                .and_then(|rest| rest.strip_suffix("\"}"))
                .map(str::to_string)
        };
        if let Some(e) = endpoint("sst_request_latency_ns_sum{endpoint=\"") {
            out.entry(e).or_default().1 = value;
        } else if let Some(e) = endpoint("sst_request_latency_ns_count{endpoint=\"") {
            out.entry(e).or_default().0 = value;
        }
    }
    out
}

/// Steps of the rate ladder, and its start as a share of the closed-loop
/// capacity.
const LADDER_START: f64 = 0.8;
const LADDER_STEP: f64 = 1.06;
const LADDER_BACKOFF: f64 = 0.8;

/// The bracket width at which the ladder stops splitting.
const REFINED: f64 = 0.01;

/// The highest rate holding the limit: the ladder climbs from 80% of the
/// closed-loop capacity until a rate breaks (or backs off until one
/// holds), then splits the bracket for the rest of the budget, and
/// interpolates between its ends.
fn ladder(
    fx: &Fixture,
    clients: &mut [Client],
    generator: &Mutex<Generator>,
    budget: Duration,
    report: &mut Report,
) -> f64 {
    let start = Instant::now();
    let probe = run_phase(fx, clients, generator, 1e9, Duration::from_secs(1), true);
    let capacity = probe.timings.len() as f64 / probe.elapsed.as_secs_f64();
    report.line(format!("serve_mix closed_loop_capacity_rps {capacity:.1}"));
    let mut rate = (capacity * LADDER_START).max(1.0);
    // The last rate that held and the lowest that broke, with their tails.
    let mut held: Option<(f64, f64)> = None;
    let mut broke: Option<(f64, f64)> = None;
    while start.elapsed() < budget {
        let phase = run_step(fx, clients, generator, rate, report);
        // An overrun step never finished its schedule: its tail is at
        // least the overrun allowance.
        let tail = if phase.overrun {
            phase.tail_ms().max(stats::ms(OVERRUN))
        } else {
            phase.tail_ms()
        };
        if phase.holds() {
            held = Some((rate, tail));
        } else {
            broke = Some((rate, tail));
        }
        rate = match (held, broke) {
            // Climb until a rate breaks, back off until one holds.
            (Some((ok, _)), None) => ok * LADDER_STEP,
            (None, Some((bad, _))) => bad * LADDER_BACKOFF,
            // Then split the bracket for the rest of the budget.
            (Some((ok, _)), Some((bad, _))) if bad > ok && bad / ok > 1.0 + REFINED => {
                (ok * bad).sqrt()
            }
            _ => break,
        };
    }
    match (held, broke) {
        (Some(ok), Some(bad)) => interpolate(ok, bad),
        (Some((r_ok, _)), None) => {
            report.line("serve_mix ladder ran out of time before a rate broke");
            r_ok
        }
        (None, _) => {
            report.line("serve_mix ladder found no rate that holds the limit");
            rate
        }
    }
}

/// The rate between `held` and `broke` (each `(rate, tail)`) at which the
/// tail reaches [`P99_LIMIT_MS`], on the log of the tails; the geometric
/// mean of the rates when the tails do not straddle the limit (a step
/// can break on backlog alone).
pub fn interpolate((r_ok, t_ok): (f64, f64), (r_bad, t_bad): (f64, f64)) -> f64 {
    let limit = P99_LIMIT_MS;
    if t_ok > 0.0 && t_ok < limit && t_bad > limit {
        let frac = (limit.ln() - t_ok.ln()) / (t_bad.ln() - t_ok.ln());
        r_ok + (r_bad - r_ok) * frac
    } else {
        (r_ok * r_bad).sqrt()
    }
}

/// One ladder step: long enough for a thousand requests, within 1–3 s.
fn run_step(
    fx: &Fixture,
    clients: &mut [Client],
    generator: &Mutex<Generator>,
    rate: f64,
    report: &mut Report,
) -> Phase {
    let step = Duration::from_secs_f64((1000.0 / rate).clamp(1.0, 3.0));
    let phase = run_phase(fx, clients, generator, rate, step, false);
    let summary = Summary::of(&phase.latencies_ms());
    report.line(format!(
        "serve_mix ladder rate {:.1} n {} {}_ms {:.3} holds {}",
        phase.rate,
        summary.n,
        summary.tail_label(),
        summary.tail,
        phase.holds()
    ));
    phase
}

/// Whether `wire` equals what an in-process engine answers to `request`.
fn equivalent(reference: &[Engine], request: &Request, wire: &Response) -> bool {
    let engine = &reference[request.engine()];
    match (request, wire) {
        (Request::Create { examples, .. }, Response::Info(info)) => info.examples == examples.len(),
        (Request::AddExamples { held, .. }, Response::Info(info)) => info.examples == *held,
        (Request::RunColumn { rows, examples, .. }, Response::Cells(cells)) => {
            let mut session = engine.session();
            session.add_examples(examples.iter().cloned());
            session.run_column(rows).is_ok_and(|local| &local == cells)
        }
        (Request::Status { examples, .. }, Response::Status(status)) => {
            let mut session = engine.session();
            session.add_examples(examples.iter().cloned());
            session.status().is_ok_and(|local| &local == status)
        }
        (Request::Close { .. }, Response::Closed) => true,
        (Request::Apply { request, .. }, Response::Applied(wire)) => {
            let local = engine.apply_batch(std::slice::from_ref(request));
            local.len() == wire.len()
                && local
                    .iter()
                    .zip(wire)
                    .all(|(l, w)| l.request == w.request && l.result == w.result)
        }
        (Request::Learn { request, .. }, Response::Learned(wire)) => {
            let local: Vec<WireLearnResponse> = engine
                .learn_batch(std::slice::from_ref(request))
                .iter()
                .map(WireLearnResponse::from_response)
                .collect();
            &local == wire
        }
        _ => false,
    }
}

/// What the run saw beyond the end-to-end numbers, for the traced run.
pub struct ServeDetail {
    pub late_p99_ms: f64,
    pub client_service_ms: BTreeMap<&'static str, (u64, f64)>,
    pub server_before: BTreeMap<String, (u64, u64)>,
    pub server_after: BTreeMap<String, (u64, u64)>,
    pub rejected: u64,
}

/// The nominal phase ([`NOMINAL_SHARE`] of the budget, or all of it
/// without the ladder),
/// then the ladder when `ladder_too`, then the in-process comparison of
/// the sampled answers.
pub fn measure(
    fx: &Fixture,
    seed: u64,
    budget: Duration,
    ladder_too: bool,
    report: &mut Report,
) -> (Measured, ServeDetail) {
    for failure in &fx.setup_failures {
        report.op(false);
        report.line(format!("serve_mix WRONG {failure}"));
    }
    let addr = fx.server.local_addr();
    let mut clients: Vec<Client> = (0..CONNECTIONS)
        .map(|_| Client::connect(addr).expect("connect load client"))
        .collect();
    let mut scrape = Client::connect(addr).expect("connect scrape client");
    let generator = Mutex::new(Generator::new(seed, fx.suite.tasks.len()));
    let nominal_time = if ladder_too {
        budget.mul_f64(NOMINAL_SHARE)
    } else {
        budget
    };

    let server_before = scrape_handle_times(&mut scrape);
    let nominal = run_phase(
        fx,
        &mut clients,
        &generator,
        NOMINAL_RPS,
        nominal_time,
        false,
    );
    let server_after = scrape_handle_times(&mut scrape);
    // Memory is read after the nominal phase, whose request count is
    // fixed; the ladder's depends on how fast the host is.
    let rss_peak_mb = peak_rss_mb();
    let summary = Summary::windowed(&nominal.latencies_ms(), WINDOW);
    for (w, chunk) in nominal.latencies_ms().chunks(WINDOW).enumerate() {
        let s = Summary::of(chunk);
        report.line(format!(
            "serve_mix window {w} n {} p50_ms {:.3} {}_ms {:.3}",
            s.n,
            s.p50,
            s.tail_label(),
            s.tail
        ));
    }
    let late: Vec<f64> = nominal
        .timings
        .iter()
        .map(|(_, t)| stats::ms(t.late()))
        .collect();
    let late_summary = Summary::of(&late);
    let mut client_service_ms: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
    let mut by_endpoint: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (endpoint, t) in &nominal.timings {
        let e = client_service_ms.entry(endpoint).or_default();
        e.0 += 1;
        e.1 += stats::ms(t.service());
        by_endpoint
            .entry(endpoint)
            .or_default()
            .push(stats::ms(t.latency()));
    }
    for (endpoint, samples) in &by_endpoint {
        let s = Summary::of(samples);
        report.line(format!(
            "serve_mix endpoint {endpoint:<14} n {:>6} p50_ms {:.3} {}_ms {:.3}",
            s.n,
            s.p50,
            s.tail_label(),
            s.tail
        ));
    }
    report.line(format!(
        "serve_mix nominal_rps {NOMINAL_RPS} serve_p50_ms {:.4} serve_{}_ms {:.4} n {} late_{}_ms {:.4} overrun {}",
        summary.p50,
        summary.tail_label(),
        summary.tail,
        summary.n,
        late_summary.tail_label(),
        late_summary.tail,
        nominal.overrun
    ));
    if nominal.overrun {
        report.op(false);
        report.line("serve_mix WRONG the nominal rate overran its schedule");
    }

    let max_rps = if ladder_too {
        let left = budget.saturating_sub(nominal_time);
        let max = ladder(fx, &mut clients, &generator, left, report);
        report.line(format!(
            "serve_mix serve_max_rps {max:.2} (p99 limit {P99_LIMIT_MS} ms)"
        ));
        max
    } else {
        nominal.timings.len() as f64 / nominal.elapsed.as_secs_f64()
    };
    drop(clients);

    let rejected = fx.server.rejected_requests();
    let mut generator = generator
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    report.attempted += generator.attempted;
    // A rejected request reached the client as an error, so it is
    // already counted among the failures.
    report.failed += generator.failed;
    for line in generator.wrong.drain(..).take(20) {
        report.line(line);
    }

    // The sampled answers, replayed in-process on fresh engines.
    let reference: Vec<Engine> = fx
        .suite
        .dbs
        .iter()
        .map(|db| Engine::new(Arc::clone(db)))
        .collect();
    let mut mismatches = 0u64;
    for s in &generator.sampled {
        if !equivalent(&reference, &s.request, &s.wire) {
            mismatches += 1;
            report.line(format!(
                "serve_mix WRONG wire answer differs in-process: {} on task {}",
                s.request.endpoint(),
                fx.suite.tasks[s.request.engine()].id
            ));
        }
    }
    report.failed += mismatches;
    report.line(format!(
        "serve_mix sampled {} equivalent {} rejected {rejected}",
        generator.sampled.len(),
        generator.sampled.len() as u64 - mismatches
    ));
    (
        Measured {
            summary,
            throughput: max_rps,
            rss_peak_mb,
        },
        ServeDetail {
            late_p99_ms: late_summary.tail,
            client_service_ms,
            server_before,
            server_after,
            rejected,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_interpolates_on_log_tails() {
        // Tails of 25 and 100 ms straddle the 50 ms limit halfway in logs.
        assert!((interpolate((1000.0, 25.0), (1100.0, 100.0)) - 1050.0).abs() < 1e-9);
        // A step that broke on backlog alone: the geometric mean.
        assert!((interpolate((1000.0, 20.0), (1210.0, 30.0)) - 1100.0).abs() < 1e-9);
    }

    #[test]
    fn handle_times_parse_from_metrics_text() {
        let text = "# TYPE sst_request_latency_ns summary\n\
            sst_request_latency_ns{endpoint=\"learn\",quantile=\"0.5\"} 900\n\
            sst_request_latency_ns_sum{endpoint=\"learn\"} 5000\n\
            sst_request_latency_ns_count{endpoint=\"learn\"} 4\n\
            sst_request_latency_ns_count{endpoint=\"apply\"} 2\n\
            sst_rejected_total 0\n";
        let times = parse_handle_times(text);
        assert_eq!(times["learn"], (4, 5000));
        assert_eq!(times["apply"], (2, 0));
        assert_eq!(times.len(), 2);
    }
}
