//! The [`Session`]: one §3.2 conversation as a stateful handle.

use std::sync::Arc;
use std::time::Duration;

use sst_core::{
    distinguishing_input, highlight_ambiguous, CompiledProgram, Example, LearnedPrograms, Program,
    SynthesisError,
};
use sst_counting::BigUint;
use sst_tables::{Table, TableId};

use crate::engine::{with_deadline_error, Engine};
use crate::types::{ServiceError, SessionStatus};

/// The cached result of the session's last learn, tagged with the state
/// it was computed under so staleness is a cheap comparison.
#[derive(Debug)]
struct CachedLearn {
    /// Database epoch at learn time.
    db_epoch: u64,
    /// Content hash of the example sequence the learn saw (not its
    /// length: [`Session::remove_example`] followed by a different
    /// [`Session::add_example`] leaves the count unchanged but must
    /// invalidate the cached learn — pinned by a regression test in
    /// `tests/service.rs`).
    examples_hash: u64,
    learned: LearnedPrograms,
    /// The top-ranked program lowered to bytecode, filled on first apply —
    /// cached per `(db_epoch, examples_hash)` by construction (this struct
    /// is replaced whenever either moves), so repeated [`Session::run`] /
    /// [`Session::run_column`] calls neither re-rank nor re-interpret.
    compiled_top: Option<Arc<CompiledProgram>>,
}

/// Order-sensitive FNV-1a content hash of an example sequence, with every
/// string length-prefixed so concatenation boundaries cannot collide
/// (`["ab"] + "c"` vs `["a"] + "bc"`).
fn examples_hash(examples: &[Example]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |bytes: &[u8]| {
        h ^= bytes.len() as u64;
        h = h.wrapping_mul(PRIME);
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    for example in examples {
        mix(&[0xFF]);
        for input in &example.inputs {
            mix(input.as_bytes());
        }
        mix(&[0xFE]);
        mix(example.output.as_bytes());
    }
    h
}

/// One interactive learning conversation (the §3.2 protocol), backed by a
/// shared [`Engine`].
///
/// The session accumulates examples ([`Session::add_example`]) and watches
/// the spreadsheet's input rows ([`Session::watch_inputs`]); every query —
/// [`Session::status`], [`Session::top_k`], [`Session::run`],
/// [`Session::paraphrase`] — learns lazily over the current examples and
/// caches the result, so callers never hand-roll the re-learn loop. The
/// learn itself runs through the engine's shared memo plane: re-learning
/// on a grown example prefix replays earlier generations and intersections
/// as memo hits, and a table added through [`Engine::add_table`] (or
/// [`Session::add_table`]) invalidates every session's cached learn at
/// once via the database epoch.
///
/// Sessions are independent: two sessions on one engine hold separate
/// conversations over the same background knowledge.
#[derive(Debug)]
pub struct Session {
    engine: Engine,
    examples: Vec<Example>,
    inputs: Vec<Vec<String>>,
    learned: Option<CachedLearn>,
    /// Wall-clock budget for each (re-)learn this session triggers; `None`
    /// learns without a deadline. Set per request by the serving layer
    /// (the `deadline-ms` header or the server default).
    budget: Option<Duration>,
}

/// What [`Session::converge_with`] reached: how many examples the oracle
/// had to supply, and whether the top program ended up correct on every
/// row within the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConvergence {
    /// Examples supplied when the loop stopped.
    pub examples_used: usize,
    /// Whether the top-ranked program was correct on every ground-truth
    /// row within the example budget.
    pub converged: bool,
}

impl Session {
    pub(crate) fn new(engine: Engine) -> Self {
        Session {
            engine,
            examples: Vec::new(),
            inputs: Vec::new(),
            learned: None,
            budget: None,
        }
    }

    /// Sets (or clears) the wall-clock budget covering each learn this
    /// session triggers. A learn the deadline interrupts is cooperatively
    /// cancelled — all shared memos stay valid, the session's cached learn
    /// is untouched — and the query answers
    /// [`ServiceError::DeadlineExceeded`]; the deadline starts ticking at
    /// the query that triggers the learn, not at `set_budget`.
    pub fn set_budget(&mut self, budget: Option<Duration>) {
        self.budget = budget;
    }

    /// The session's learn budget, if any.
    pub fn budget(&self) -> Option<Duration> {
        self.budget
    }

    /// The engine this session learns through.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The examples supplied so far, in order.
    pub fn examples(&self) -> &[Example] {
        &self.examples
    }

    /// Supplies one more input-output example (a §3.2 user fix). The next
    /// query re-learns over the grown prefix — through the shared memo
    /// plane, so earlier examples and the intersections of earlier
    /// prefixes replay from memory.
    pub fn add_example(&mut self, example: Example) {
        self.examples.push(example);
    }

    /// Supplies several examples at once.
    pub fn add_examples(&mut self, examples: impl IntoIterator<Item = Example>) {
        self.examples.extend(examples);
    }

    /// Retracts the example at `index` (a §3.2 user un-fix: the user
    /// realizes a supplied output was wrong). The next query re-learns
    /// over the remaining sequence — the cached learn is keyed on example
    /// *content*, so removing one example and adding a different one
    /// never serves the stale set even though the count is unchanged.
    pub fn remove_example(&mut self, index: usize) -> Example {
        self.examples.remove(index)
    }

    /// Clears the conversation's examples entirely (watched inputs are
    /// kept).
    pub fn clear_examples(&mut self) {
        self.examples.clear();
    }

    /// Declares the spreadsheet's input rows — what [`Session::status`]
    /// scans for ambiguity. Replaces any previously watched rows.
    pub fn watch_inputs(&mut self, inputs: Vec<Vec<String>>) {
        self.inputs = inputs;
    }

    /// The watched input rows.
    pub fn inputs(&self) -> &[Vec<String>] {
        &self.inputs
    }

    /// Adds a background table through the engine — visible to **all**
    /// sessions, with exactly one epoch bump (see [`Engine::add_table`]).
    pub fn add_table(&self, table: Table) -> Result<TableId, ServiceError> {
        self.engine.add_table(table)
    }

    /// Where the conversation stands (§3.2): [`SessionStatus::Converged`]
    /// when the engine's `top_k` best programs agree on every watched
    /// input row, otherwise the ambiguous rows the user should check.
    /// With no examples yet, every watched row needs one.
    pub fn status(&mut self) -> Result<SessionStatus, ServiceError> {
        if self.examples.is_empty() {
            return Ok(SessionStatus::NeedsExamples {
                ambiguous_inputs: self.inputs.clone(),
            });
        }
        let k = self.engine.options().top_k;
        self.ensure_learned()?;
        let learned = &self.learned.as_ref().expect("just ensured").learned;
        let flagged = highlight_ambiguous(learned, &self.inputs, k);
        Ok(if flagged.is_empty() {
            SessionStatus::Converged
        } else {
            SessionStatus::NeedsExamples {
                ambiguous_inputs: flagged.iter().map(|&i| self.inputs[i].clone()).collect(),
            }
        })
    }

    /// The first watched row on which at least two of the `top_k` best
    /// programs disagree — the cheapest question to ask the user (§3.2,
    /// oracle-guided synthesis).
    pub fn distinguishing_input(&mut self) -> Result<Option<Vec<String>>, ServiceError> {
        let k = self.engine.options().top_k;
        self.ensure_learned()?;
        let learned = &self.learned.as_ref().expect("just ensured").learned;
        let found = distinguishing_input(learned, &self.inputs, k);
        Ok(found.map(|i| self.inputs[i].clone()))
    }

    /// The learned program set over the current examples, learning (or
    /// re-learning) if the examples or the database moved since the last
    /// query.
    pub fn learned(&mut self) -> Result<&LearnedPrograms, ServiceError> {
        self.ensure_learned()?;
        Ok(&self.learned.as_ref().expect("just ensured").learned)
    }

    /// Fills (or refreshes) the cached learn. Split from
    /// [`Session::learned`] so queries that also read other session fields
    /// (`status`, `distinguishing_input`) can end the mutable borrow
    /// before touching them — and so an `Err` never disturbs session
    /// state.
    ///
    /// When the database epoch moved under an unchanged example set, the
    /// cached learn (and its compiled form) is kept — not re-learned, not
    /// re-compiled — if the mutation span provably didn't affect it
    /// ([`LearnedPrograms::survives`]): the span is row-level, and no
    /// mutated table or touched value intersects what the learn read. A
    /// row inserted into one background table therefore leaves every
    /// session whose programs read other tables fully warm; a table
    /// *added* (structural — it changes the default lookup depth) still
    /// invalidates everyone.
    fn ensure_learned(&mut self) -> Result<(), ServiceError> {
        let synthesizer = match self.budget {
            Some(budget) => self.engine.synthesizer_with_budget(budget),
            None => self.engine.synthesizer(),
        };
        let db = synthesizer.db_arc();
        let db_epoch = db.epoch();
        let hash = examples_hash(&self.examples);
        if let Some(cached) = &mut self.learned {
            if cached.examples_hash == hash {
                if cached.db_epoch == db_epoch {
                    return Ok(());
                }
                let survives = db
                    .delta_since(cached.db_epoch)
                    .is_some_and(|delta| cached.learned.survives(&delta));
                if survives {
                    // Re-bind to the new epoch: the programs' own database
                    // snapshot only probes unmutated tables, so every
                    // observable stays bit-identical.
                    cached.db_epoch = db_epoch;
                    return Ok(());
                }
            }
        }
        let mut result = synthesizer
            .learn(&self.examples)
            .map_err(ServiceError::from);
        if let Some(budget) = self.budget {
            result = with_deadline_error(result, budget);
        }
        let learned = result?;
        self.learned = Some(CachedLearn {
            db_epoch,
            examples_hash: hash,
            learned,
            compiled_top: None,
        });
        Ok(())
    }

    /// The compiled top-ranked program, lowering it on first use and
    /// serving it from the learn cache afterwards (invalidated with it
    /// when the examples or the database move).
    pub fn compiled_top(&mut self) -> Result<Arc<CompiledProgram>, ServiceError> {
        self.ensure_learned()?;
        let cached = self.learned.as_mut().expect("just ensured");
        if cached.compiled_top.is_none() {
            let top = cached
                .learned
                .top()
                .ok_or(ServiceError::Synthesis(SynthesisError::NoConsistentProgram))?;
            cached.compiled_top = Some(Arc::new(top.compile()));
        }
        Ok(Arc::clone(
            cached.compiled_top.as_ref().expect("just filled"),
        ))
    }

    /// The top-ranked program.
    pub fn top(&mut self) -> Result<Program, ServiceError> {
        self.learned()?
            .top()
            .ok_or(ServiceError::Synthesis(SynthesisError::NoConsistentProgram))
    }

    /// The engine-configured number of top-ranked programs, ascending
    /// cost.
    pub fn top_k(&mut self) -> Result<Vec<Program>, ServiceError> {
        Ok(self.learned()?.top_ranked())
    }

    /// Up to `k` top-ranked programs, ascending cost.
    pub fn top_n(&mut self, k: usize) -> Result<Vec<Program>, ServiceError> {
        Ok(self.learned()?.top_k(k))
    }

    /// Runs the top-ranked program on a fresh input row — through the
    /// cached compiled form, so repeated calls stop re-ranking and
    /// re-interpreting (bit-identical to `self.top()?.run(inputs)`).
    pub fn run(&mut self, inputs: &[&str]) -> Result<Option<String>, ServiceError> {
        Ok(self.compiled_top()?.run_row(inputs))
    }

    /// Applies the top-ranked program to a whole input column, fanning row
    /// ranges across the engine pool (deterministic row order at every
    /// width). The compiled program is cached with the learn, so replaying
    /// columns — or mixing `run` and `run_column` — compiles once.
    pub fn run_column(
        &mut self,
        rows: &[Vec<String>],
    ) -> Result<Vec<Option<String>>, ServiceError> {
        let compiled = self.compiled_top()?;
        Ok(compiled.run_column(rows, self.engine.pool()))
    }

    /// An English description of the top-ranked program (§3.2's
    /// paraphrasing, so the user can sanity-check the tool's guess).
    pub fn paraphrase(&mut self) -> Result<String, ServiceError> {
        Ok(self.top()?.paraphrase())
    }

    /// Exact number of consistent programs.
    pub fn count(&mut self) -> Result<BigUint, ServiceError> {
        Ok(self.learned()?.count())
    }

    /// Data-structure size in terminal symbols.
    pub fn size(&mut self) -> Result<usize, ServiceError> {
        Ok(self.learned()?.size())
    }

    /// Drives the conversation against a ground-truth oracle: starting
    /// from the truth's first row, while the top-ranked program mislabels
    /// some row, that row becomes the next example — the §3.2 loop with
    /// the simulated user of the paper's §7 evaluation. Stops after
    /// `max_examples` examples. All learning happens through the session
    /// (no caller-side re-learn loop).
    pub fn converge_with(
        &mut self,
        truth: &[Example],
        max_examples: usize,
    ) -> Result<SessionConvergence, ServiceError> {
        let first = truth
            .first()
            .ok_or(ServiceError::Synthesis(SynthesisError::NoExamples))?;
        if self.examples.is_empty() {
            self.add_example(first.clone());
        }
        loop {
            let top = self.top()?;
            let failing = truth.iter().find(|row| {
                let refs: Vec<&str> = row.inputs.iter().map(String::as_str).collect();
                top.run(&refs).as_deref() != Some(row.output.as_str())
            });
            match failing {
                None => {
                    return Ok(SessionConvergence {
                        examples_used: self.examples.len(),
                        converged: true,
                    })
                }
                Some(row) => {
                    if self.examples.len() >= max_examples {
                        return Ok(SessionConvergence {
                            examples_used: self.examples.len(),
                            converged: false,
                        });
                    }
                    self.add_example(row.clone());
                }
            }
        }
    }
}
