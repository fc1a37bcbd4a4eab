//! The memoized DAG plane: a per-synthesizer cache that removes the
//! dominant repeated work in `GenerateStr_u` (§5.3) and in `Intersect_u`'s
//! §3.2 replays.
//!
//! Profiling after the substring-index PR showed DAG *construction* — the
//! top-level output DAG plus a fresh nested predicate DAG per candidate-key
//! cell — dwarfing everything else in semantic-task learning: the §3.2
//! interaction loop re-learns on a growing example prefix, so the same
//! example is re-generated once per step, and within one generation the
//! same key value is re-derived for every row that carries it. After the
//! DAG plane landed, the warm path became almost pure `Intersect_u` — and
//! the same §3.2 loop re-intersects the same example prefixes step after
//! step.
//!
//! [`DagCache`] memoizes at two granularities, each keyed so a hit is
//! *provably* bit-identical to a recomputation:
//!
//! * **Per-value DAGs** — `generate_dag_prepared` results keyed by
//!   `(sources_epoch, value)`. A *sources epoch* is the interned identity
//!   of the full σ ∪ η̃ snapshot (the ordered list of source symbols): the
//!   DAG of a value is a pure function of that list, so equal epochs imply
//!   equal DAGs, and the cached [`Arc`] handle is shared structurally —
//!   repeated key values reference one allocation, which the intersection
//!   layer's pointer-keyed memos then exploit.
//! * **Example prefixes** — one map keyed by the *example chain*, the
//!   ordered list of examples given so far (each example named by its
//!   interned inputs and output). A chain of length 1 holds that example's
//!   whole `GenerateStr_u` result; a chain of length k holds
//!   `d₁ ∩ … ∩ d_k`, exactly the structure `Synthesize` computes at step k
//!   of the §3.2 loop. A re-learn on a grown prefix therefore replays every
//!   earlier generation and every earlier intersection as a memo hit and
//!   only intersects the genuinely new final example. Hits serve a cheap
//!   clone (`Arc`-shared DAGs, shallow condition handles).
//!
//! # Concurrency
//!
//! The cache is **interior-mutable and shareable**: state sits behind one
//! [`RwLock`], counters are atomics, and every read path (probes, epoch
//! checks) takes only the read lock — concurrent learns over synthesizer
//! clones no longer serialize on a `Mutex` the way the pre-parallel design
//! did. Misses compute *outside* any lock and insert under a brief write
//! lock with a double-check, keeping the first-inserted value canonical so
//! racing writers converge on one shared allocation.
//!
//! # Validation
//!
//! Per-value DAGs are pure functions of the ordered source-symbol list
//! behind their `SourcesEpoch` key, so they survive every mutation. The
//! prefix memo is scoped to one database state: each entry records what
//! its generations *read* (the tables their `Select`s touch, the node
//! values that drove reachability; for a chain, the union over its
//! examples). The cache records the [`Database::epoch`] it was filled
//! under, and [`DagCache::validate_db`] asks the database for the
//! [`DbDelta`](sst_tables::DbDelta) spanning a move and *retains* every
//! entry whose reads provably don't intersect the delta — so a row-level
//! write into one background table leaves chains keyed to other tables
//! warm. Structural mutations (a table added changes the default depth
//! bound) and entries generated without the substring gate (whose
//! activations aren't summarized by node values) fall back to eviction.
//! Epoch interning never restarts, so stale sources epochs can never
//! collide with post-mutation entries.
//!
//! # Snapshots
//!
//! The live memo holds `Arc` trees only. The hash-consed [`Arena`] of
//! [`sst_arena`] is the snapshot *format*: [`DagCache::encode_snapshot`]
//! builds a fresh arena from the live entries and writes it, and
//! [`DagCache::decode_snapshot`] validates and extracts the entries back
//! out, then drops the arena. [`DagCache::arena_stats`] reports the arena a
//! snapshot would write now.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use sst_arena::{
    Arena, ArenaStats, DagId, Reader, SnapshotError, StructId, SymDecoder, SymEncoder, Writer,
};
use sst_lookup::NodeId;
use sst_syntactic::Dag;
use sst_tables::{Database, IntMap, Symbol, TableId};

use crate::arena_plane::{extract_struct, intern_struct, ExtractCtx};
use crate::dstruct::SemDStruct;

/// Identity of one σ ∪ η̃ snapshot: equal epochs ⇔ equal ordered source
/// symbol lists (within one database state). Allocated densely by
/// [`DagCache::epoch_of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct SourcesEpoch(u32);

/// One link of a prefix-memo key: an example's interned inputs and output.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct ExampleKey {
    inputs: Box<[Symbol]>,
    output: Symbol,
}

impl ExampleKey {
    /// Interns one example's strings.
    pub(crate) fn new(inputs: &[&str], output: &str) -> Self {
        ExampleKey {
            inputs: inputs.iter().map(|s| Symbol::intern(s)).collect(),
            output: Symbol::intern(output),
        }
    }
}

/// What one cached structure's generations *read* from the database,
/// recorded at store time so [`DagCache::validate_db`] can prove a
/// mutation span left the entry intact: the tables their `Select` programs
/// touch, and every node value — the frontier strings whose substring
/// relations drove reachability. A mutation that neither writes a read
/// table nor touches a value substring-related to a node value cannot
/// change the generation result (see `DbDelta::affects`).
#[derive(Debug, Clone)]
pub(crate) struct ExampleDeps {
    /// Tables read by `Select` programs, sorted and deduplicated.
    pub(crate) tables: Box<[TableId]>,
    /// All node values (σ ∪ η̃), sorted and deduplicated.
    pub(crate) vals: Box<[Symbol]>,
}

/// One prefix-memo entry: the structure and (when the generations ran with
/// the substring gate on) the reads that make it revalidatable across
/// non-structural mutations.
#[derive(Debug, Clone)]
struct MemoEntry {
    d: SemDStruct,
    /// `None` = not revalidatable (gate-off generation): evicted on any
    /// epoch move.
    deps: Option<ExampleDeps>,
}

/// Cache hit/miss counters, exposed for benches and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DagCacheStats {
    /// Per-value DAG hits.
    pub dag_hits: u64,
    /// Per-value DAG misses (builds).
    pub dag_misses: u64,
    /// Whole-example hits (prefix-memo probes of one-example chains).
    pub example_hits: u64,
    /// Whole-example misses (full generations).
    pub example_misses: u64,
    /// Intersection hits (prefix-memo probes of longer chains).
    pub intersect_hits: u64,
    /// Intersection misses (full `Intersect_u` runs through the memoized
    /// path).
    pub intersect_misses: u64,
}

/// Flush threshold for the per-value DAG memo (and its epoch interner):
/// a learning session over the whole benchmark suite stays in the low
/// thousands, so the bound only triggers for long-lived synthesizers
/// serving many distinct workloads — where dropping and refilling is
/// cheaper than growing without limit.
const MAX_DAG_ENTRIES: usize = 1 << 16;

/// Flush threshold for the prefix memo. Its entries are the heavyweight
/// ones (a full `SemDStruct` clone each); one §3.2 session needs a handful.
const MAX_MEMO_ENTRIES: usize = 1 << 13;

/// The lock-guarded cache state (see [`DagCache`]).
#[derive(Debug, Default)]
struct CacheState {
    /// The [`Database::epoch`] the entries were computed under.
    db_epoch: u64,
    /// Source-list interning: ordered symbol list → epoch id.
    epochs: IntMap<Box<[Symbol]>, u32>,
    /// Next epoch id. Monotone for the cache's lifetime — never reset by
    /// flushes or validation — so an id held across a flush (a generation
    /// session keeps its `SourcesEpoch` for the step) can never collide
    /// with a later snapshot's id and serve a stale DAG.
    next_epoch: u32,
    /// `(sources epoch, value) → DAG of all expressions producing the
    /// value over that snapshot`; live hits share the `Arc`.
    dags: IntMap<(u32, Symbol), Arc<Dag<NodeId>>>,
    /// Prefix memo: example chain → `d₁ ∩ … ∩ d_k`.
    memo: IntMap<Box<[ExampleKey]>, MemoEntry>,
}

/// Lock-free hit/miss counters.
#[derive(Debug, Default)]
struct AtomicStats {
    dag_hits: AtomicU64,
    dag_misses: AtomicU64,
    example_hits: AtomicU64,
    example_misses: AtomicU64,
    intersect_hits: AtomicU64,
    intersect_misses: AtomicU64,
}

/// The memoized DAG plane (see the module docs). One cache serves one
/// synthesizer configuration: entries are only sound across calls that
/// share the database state *and* the generation options, which
/// [`crate::Synthesizer`] guarantees by construction. Direct users of
/// [`crate::generate_str_u_cached`] must not share a cache across differing
/// [`crate::LuOptions`].
///
/// Memory is bounded: each memo flushes wholesale when it outgrows its
/// threshold ([`MAX_DAG_ENTRIES`], [`MAX_MEMO_ENTRIES`]) — correctness
/// never depends on an entry being present, so eviction is just a refill
/// cost on workloads large enough to hit it.
#[derive(Debug, Default)]
pub struct DagCache {
    state: RwLock<CacheState>,
    stats: AtomicStats,
}

impl DagCache {
    /// An empty cache (binds to a database epoch on first
    /// [`DagCache::validate_db`]).
    pub fn new() -> Self {
        DagCache::default()
    }

    /// Recovers the state lock if a holder panicked: every entry is a
    /// completed value (writes happen-before unlock), so a poisoned lock
    /// only means some fill was abandoned — at worst it is recomputed.
    fn read(&self) -> RwLockReadGuard<'_, CacheState> {
        self.state
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, CacheState> {
        self.state
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Rebinds the cache to `db`'s current epoch. When the epoch moved,
    /// asks the database for the [`DbDelta`](sst_tables::DbDelta) spanning
    /// the move and retains every revalidatable prefix-memo entry the delta
    /// provably didn't affect (no read table mutated, no touched value
    /// substring-related to a node value). Falls back to clearing the
    /// prefix memo when the span is structural, has left the journal, or
    /// belongs to a diverged database lineage. The per-value DAG memo
    /// survives: it never reads the database. The common case — the epoch
    /// did not move — is a read-lock check, so concurrent learns validating
    /// the same state never contend.
    pub fn validate_db(&self, db: &Database) {
        let db_epoch = db.epoch();
        if self.read().db_epoch == db_epoch {
            return;
        }
        let mut state = self.write();
        if state.db_epoch == db_epoch {
            return;
        }
        match db.delta_since(state.db_epoch) {
            Some(delta) if !delta.structural => {
                state.memo.retain(|_, e| {
                    e.deps
                        .as_ref()
                        .is_some_and(|deps| !delta.affects(&deps.tables, &deps.vals))
                });
            }
            _ => state.memo.clear(),
        }
        state.db_epoch = db_epoch;
    }

    /// The database epoch the entries are valid for.
    pub fn db_epoch(&self) -> u64 {
        self.read().db_epoch
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> DagCacheStats {
        DagCacheStats {
            dag_hits: self.stats.dag_hits.load(Ordering::Relaxed),
            dag_misses: self.stats.dag_misses.load(Ordering::Relaxed),
            example_hits: self.stats.example_hits.load(Ordering::Relaxed),
            example_misses: self.stats.example_misses.load(Ordering::Relaxed),
            intersect_hits: self.stats.intersect_hits.load(Ordering::Relaxed),
            intersect_misses: self.stats.intersect_misses.load(Ordering::Relaxed),
        }
    }

    /// Number of cached per-value DAGs.
    pub fn dag_entries(&self) -> usize {
        self.read().dags.len()
    }

    /// Number of cached whole-example structures (one-example chains).
    pub fn example_entries(&self) -> usize {
        self.read().memo.keys().filter(|c| c.len() == 1).count()
    }

    /// Number of cached intersections (chains of two or more examples).
    pub fn intersection_entries(&self) -> usize {
        self.read().memo.keys().filter(|c| c.len() > 1).count()
    }

    /// Interns the identity of one σ ∪ η̃ snapshot (the ordered source
    /// symbol list) into an epoch id.
    pub(crate) fn epoch_of(&self, symbols: &[Symbol]) -> SourcesEpoch {
        if let Some(&id) = self.read().epochs.get(symbols) {
            return SourcesEpoch(id);
        }
        let mut state = self.write();
        if let Some(&id) = state.epochs.get(symbols) {
            return SourcesEpoch(id);
        }
        let id = state.next_epoch;
        state.next_epoch += 1;
        state.epochs.insert(symbols.into(), id);
        SourcesEpoch(id)
    }

    /// The DAG of all syntactic expressions producing `value` over the
    /// snapshot `epoch`, built by `build` on a miss. The returned handle is
    /// shared: every hit aliases one allocation, and racing builders for
    /// one key converge on whichever insert landed first (`build` runs
    /// outside any lock).
    pub(crate) fn dag_for(
        &self,
        epoch: SourcesEpoch,
        value: Symbol,
        build: impl FnOnce() -> Dag<NodeId>,
    ) -> Arc<Dag<NodeId>> {
        if let Some(dag) = self.read().dags.get(&(epoch.0, value)) {
            self.stats.dag_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(dag);
        }
        self.stats.dag_misses.fetch_add(1, Ordering::Relaxed);
        let dag = Arc::new(build());
        let mut state = self.write();
        if let Some(hit) = state.dags.get(&(epoch.0, value)) {
            return Arc::clone(hit); // raced: keep the first insert canonical
        }
        if state.dags.len() >= MAX_DAG_ENTRIES {
            // Epochs key into `dags`, so both flush together; the next
            // sync re-interns the live snapshot.
            state.dags.clear();
            state.epochs.clear();
        }
        state.dags.insert((epoch.0, value), Arc::clone(&dag));
        dag
    }

    /// The structure memoized for the example chain `chain`, if any. A
    /// one-example chain counts as an example probe, a longer one as an
    /// intersection probe.
    ///
    /// `db_epoch` is the database epoch the caller validated against;
    /// probes and stores are epoch-checked under the lock, so a cache
    /// (mis)shared by sessions over *different* databases can never serve
    /// one session an entry another session's database produced — their
    /// traffic simply always misses. (Chains carry no epoch, unlike
    /// per-value DAG keys, so the check cannot be skipped here.)
    pub(crate) fn lookup(&self, db_epoch: u64, chain: &[ExampleKey]) -> Option<SemDStruct> {
        let (hits, misses) = if chain.len() == 1 {
            (&self.stats.example_hits, &self.stats.example_misses)
        } else {
            (&self.stats.intersect_hits, &self.stats.intersect_misses)
        };
        let state = self.read();
        match state.memo.get(chain) {
            Some(e) if state.db_epoch == db_epoch => {
                hits.fetch_add(1, Ordering::Relaxed);
                Some(e.d.clone())
            }
            _ => {
                misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores the structure of `chain`. `deps` records what its
    /// generations read (for selective retention by
    /// [`DagCache::validate_db`]); `None` marks the entry
    /// non-revalidatable. The first insert wins a race; if the cache was
    /// concurrently rebound to a different database epoch, the store is
    /// dropped — it would poison the new epoch's entries.
    pub(crate) fn store(
        &self,
        db_epoch: u64,
        chain: &[ExampleKey],
        d: &SemDStruct,
        deps: Option<ExampleDeps>,
    ) {
        let mut state = self.write();
        if state.db_epoch != db_epoch || state.memo.contains_key(chain) {
            return;
        }
        if state.memo.len() >= MAX_MEMO_ENTRIES {
            state.memo.clear();
        }
        state
            .memo
            .insert(chain.into(), MemoEntry { d: d.clone(), deps });
    }

    /// Hash-cons counters (distinct values, intern traffic, resident-bytes
    /// estimate) of the arena a snapshot would write now. Builds that arena
    /// from the live entries, so each call costs O(memo).
    pub fn arena_stats(&self) -> ArenaStats {
        snapshot_arena(&self.read()).0.stats()
    }

    /// Writes the cache's learned state — a freshly built arena, the
    /// sources epochs, and both memos with entries as arena ids — into a
    /// snapshot payload. Hit/miss counters and the database-epoch binding
    /// are deliberately not serialized: both are process-local (the
    /// restoring side binds to its own restored database's epoch).
    pub fn encode_snapshot(&self, w: &mut Writer, sym: &mut SymEncoder) {
        let state = self.read();
        let (arena, dag_ids, memo_ids) = snapshot_arena(&state);
        arena.encode(w, sym);
        w.u32(state.epochs.len() as u32);
        for (syms, &id) in state.epochs.iter() {
            w.u32(syms.len() as u32);
            for &s in syms.iter() {
                sym.sym(s, w);
            }
            w.u32(id);
        }
        w.u32(state.next_epoch);
        w.u32(state.dags.len() as u32);
        for (&(epoch, value), id) in state.dags.keys().zip(dag_ids) {
            w.u32(epoch);
            sym.sym(value, w);
            w.u32(id.0);
        }
        w.u32(state.memo.len() as u32);
        for ((chain, entry), id) in state.memo.iter().zip(memo_ids) {
            w.u32(chain.len() as u32);
            for key in chain.iter() {
                w.u32(key.inputs.len() as u32);
                for &s in key.inputs.iter() {
                    sym.sym(s, w);
                }
                sym.sym(key.output, w);
            }
            w.u32(id.0);
            match &entry.deps {
                None => w.bool(false),
                Some(deps) => {
                    w.bool(true);
                    w.u32(deps.tables.len() as u32);
                    for &t in deps.tables.iter() {
                        w.u32(t);
                    }
                    w.u32(deps.vals.len() as u32);
                    for &v in deps.vals.iter() {
                        sym.sym(v, w);
                    }
                }
            }
        }
    }

    /// Reads a cache written by [`DagCache::encode_snapshot`], extracting
    /// every memoized structure back out of the snapshot's arena (one
    /// shared [`ExtractCtx`], so restored entries re-share `Arc`
    /// allocations like a live fill would) and then dropping the arena.
    /// Every id is bounds- and structure-validated — a crafted payload
    /// fails typed, never panics. The cache binds to `db_epoch`, the
    /// restoring process's epoch for the restored database; counters start
    /// at zero.
    pub fn decode_snapshot(
        r: &mut Reader<'_>,
        sym: &SymDecoder,
        db_epoch: u64,
    ) -> Result<DagCache, SnapshotError> {
        fn corrupt(why: impl Into<String>) -> SnapshotError {
            SnapshotError::Corrupt(why.into())
        }
        let arena = Arena::decode(r, sym)?;
        let mut state = CacheState {
            db_epoch,
            ..CacheState::default()
        };
        let n = r.count()?;
        let mut epoch_lens: IntMap<u32, u32> = IntMap::default();
        for _ in 0..n {
            let len = r.count()?;
            let mut syms = Vec::with_capacity(len);
            for _ in 0..len {
                syms.push(sym.sym(r)?);
            }
            let id = r.u32()?;
            if epoch_lens.insert(id, syms.len() as u32).is_some() {
                return Err(corrupt(format!("duplicate sources epoch {id}")));
            }
            if state.epochs.insert(syms.into(), id).is_some() {
                return Err(corrupt("duplicate sources-epoch symbol list"));
            }
        }
        state.next_epoch = r.u32()?;
        if state.epochs.values().any(|&id| id >= state.next_epoch) {
            return Err(corrupt("sources epoch beyond next_epoch"));
        }
        let n = r.count()?;
        for _ in 0..n {
            let epoch = r.u32()?;
            let value = sym.sym(r)?;
            let id = DagId(r.u32()?);
            let Some(&num_nodes) = epoch_lens.get(&epoch) else {
                return Err(corrupt(format!(
                    "dag memo references unknown epoch {epoch}"
                )));
            };
            arena.validate_dag_nodes(id, num_nodes)?;
            let dag = Arc::new(arena.extract_dag(id));
            if state.dags.insert((epoch, value), dag).is_some() {
                return Err(corrupt("duplicate dag-memo key"));
            }
        }
        let n = r.count()?;
        let mut ctx = ExtractCtx::new();
        for _ in 0..n {
            let len = r.count()?;
            if len == 0 {
                return Err(corrupt("empty example chain"));
            }
            let mut chain = Vec::with_capacity(len);
            for _ in 0..len {
                let n_inputs = r.count()?;
                let mut inputs = Vec::with_capacity(n_inputs);
                for _ in 0..n_inputs {
                    inputs.push(sym.sym(r)?);
                }
                chain.push(ExampleKey {
                    inputs: inputs.into(),
                    output: sym.sym(r)?,
                });
            }
            let uid = StructId(r.u32()?);
            arena.validate_struct(uid)?;
            let deps = if r.bool()? {
                let n_tables = r.count()?;
                let mut tables = Vec::with_capacity(n_tables);
                for _ in 0..n_tables {
                    tables.push(r.u32()? as TableId);
                }
                let n_vals = r.count()?;
                let mut vals = Vec::with_capacity(n_vals);
                for _ in 0..n_vals {
                    vals.push(sym.sym(r)?);
                }
                Some(ExampleDeps {
                    tables: tables.into(),
                    vals: vals.into(),
                })
            } else {
                None
            };
            let d = extract_struct(&arena, uid, &mut ctx);
            if state
                .memo
                .insert(chain.into(), MemoEntry { d, deps })
                .is_some()
            {
                return Err(corrupt("duplicate example chain"));
            }
        }
        Ok(DagCache {
            state: RwLock::new(state),
            stats: AtomicStats::default(),
        })
    }
}

/// The arena a snapshot of `state` writes, built fresh: `intern_dag` once
/// per per-value DAG entry and `intern_struct` once per prefix-memo entry.
/// Returns the arena and the entries' ids in the maps' iteration order.
/// The only place the live cache constructs an [`Arena`]; O(memo) per call.
fn snapshot_arena(state: &CacheState) -> (Arena, Vec<DagId>, Vec<StructId>) {
    let mut arena = Arena::new();
    let dags = state
        .dags
        .values()
        .map(|dag| arena.intern_dag(dag))
        .collect();
    let memo = state
        .memo
        .values()
        .map(|e| intern_struct(&mut arena, &e.d))
        .collect();
    (arena, dags, memo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_tables::Table;
    use std::collections::BTreeMap;

    fn dag(n: u32) -> Dag<NodeId> {
        Dag {
            num_nodes: n.max(1),
            source: 0,
            target: n.max(1) - 1,
            edges: BTreeMap::new(),
        }
    }

    fn key(input: &str, output: &str) -> ExampleKey {
        ExampleKey::new(&[input], output)
    }

    fn deps(tables: &[TableId], vals: &[&str]) -> Option<ExampleDeps> {
        Some(ExampleDeps {
            tables: tables.into(),
            vals: vals.iter().map(|v| Symbol::intern(v)).collect(),
        })
    }

    /// Two tables, `Comp` (0) and `Month` (1), for the validation tests.
    fn two_table_db() -> Database {
        Database::from_tables(vec![
            Table::new(
                "Comp",
                vec!["Id", "Name"],
                vec![vec!["vc1", "VMicrosoft"], vec!["vc2", "VGoogle"]],
            )
            .unwrap(),
            Table::new(
                "Month",
                vec!["MN", "MW"],
                vec![vec!["vm1", "VJanuary"], vec!["vm2", "VFebruary"]],
            )
            .unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn epochs_intern_by_content() {
        let c = DagCache::new();
        let (a, b) = (Symbol::intern("ep-a"), Symbol::intern("ep-b"));
        let e1 = c.epoch_of(&[a, b]);
        let e2 = c.epoch_of(&[a, b]);
        let e3 = c.epoch_of(&[b, a]);
        assert_eq!(e1, e2, "same ordered list, same epoch");
        assert_ne!(e1, e3, "order is part of the identity");
        assert_ne!(e1, c.epoch_of(&[a]), "prefixes are distinct snapshots");
    }

    #[test]
    fn dag_for_builds_once_and_shares() {
        let c = DagCache::new();
        let e = c.epoch_of(&[Symbol::intern("s")]);
        let v = Symbol::intern("val");
        let mut builds = 0;
        let d1 = c.dag_for(e, v, || {
            builds += 1;
            dag(3)
        });
        let d2 = c.dag_for(e, v, || {
            builds += 1;
            dag(3)
        });
        assert_eq!(builds, 1);
        assert!(Arc::ptr_eq(&d1, &d2), "hits alias one allocation");
        assert_eq!(c.stats().dag_hits, 1);
        assert_eq!(c.stats().dag_misses, 1);
    }

    #[test]
    fn validate_clears_examples_on_epoch_move_only() {
        let mut db = two_table_db();
        let c = DagCache::new();
        c.validate_db(&db);
        let e = c.epoch_of(&[Symbol::intern("s")]);
        c.dag_for(e, Symbol::intern("v"), || dag(2));
        c.store(db.epoch(), &[key("vi", "vo")], &SemDStruct::default(), None);
        c.validate_db(&db);
        assert_eq!(c.dag_entries(), 1, "same epoch keeps entries");
        assert_eq!(c.example_entries(), 1);
        db.insert_rows(1, vec![vec!["vm3", "VMarch"]]).unwrap();
        c.validate_db(&db);
        assert_eq!(
            c.dag_entries(),
            1,
            "per-value DAGs are pure functions of their snapshot keys"
        );
        assert_eq!(
            c.example_entries(),
            0,
            "moved epoch evicts the non-revalidatable entry"
        );
        assert_eq!(c.db_epoch(), db.epoch());
    }

    #[test]
    fn validate_db_retains_unaffected_examples() {
        let mut db = two_table_db();
        let c = DagCache::new();
        c.validate_db(&db);
        let d = SemDStruct::default();
        // An entry reading only Comp (table 0), one reading only Month
        // (table 1), and a non-revalidatable one.
        let epoch = db.epoch();
        c.store(
            epoch,
            &[key("vc2", "VGoogle")],
            &d,
            deps(&[0], &["vc2", "VGoogle"]),
        );
        c.store(
            epoch,
            &[key("vm1", "VJanuary")],
            &d,
            deps(&[1], &["vm1", "VJanuary"]),
        );
        c.store(epoch, &[key("vx", "vy")], &d, None);
        assert_eq!(c.example_entries(), 3);

        // A row insert into Month: the Comp entry survives, the Month
        // entry and the non-revalidatable entry are evicted.
        db.insert_rows(1, vec![vec!["vm3", "VMarch"]]).unwrap();
        c.validate_db(&db);
        assert_eq!(c.db_epoch(), db.epoch());
        assert_eq!(c.example_entries(), 1, "only the Comp-only entry survives");
        assert!(c.lookup(db.epoch(), &[key("vc2", "VGoogle")]).is_some());

        // A mutation touching a value substring-related to the surviving
        // entry's node values evicts it even though the table differs.
        db.insert_rows(1, vec![vec!["vm4", "VGoogleplex"]]).unwrap();
        c.validate_db(&db);
        assert_eq!(c.example_entries(), 0, "substring-related delta evicts");

        // A structural mutation clears wholesale.
        c.store(
            db.epoch(),
            &[key("vc1", "VMicrosoft")],
            &d,
            deps(&[0], &["vc1"]),
        );
        db.add_table(Table::new("P", vec!["K"], vec![vec!["vk1"]]).unwrap())
            .unwrap();
        c.validate_db(&db);
        assert_eq!(c.example_entries(), 0, "structural delta clears examples");
    }

    /// A tiny structure distinguishable by its node value.
    fn named_struct(tag: &str) -> SemDStruct {
        SemDStruct {
            nodes: vec![crate::dstruct::SemNode {
                vals: vec![Symbol::intern(tag)],
                progs: vec![crate::dstruct::GenLookupU::Var(0)],
            }],
            top: None,
        }
    }

    fn tag(d: &SemDStruct) -> &'static str {
        d.nodes[0].vals[0].as_str()
    }

    #[test]
    fn prefix_memo_keys_by_example_chain() {
        let mut db = two_table_db();
        let c = DagCache::new();
        c.validate_db(&db);
        let epoch = db.epoch();
        let (a, b) = (key("vc2", "VGoogle"), key("vm1", "VJanuary"));
        let ab = [a.clone(), b.clone()];
        assert!(c.lookup(epoch, &ab).is_none());
        assert_eq!(
            c.stats().intersect_misses,
            1,
            "long chains probe as intersections"
        );
        assert_eq!(c.stats().example_misses, 0);
        // The chain's deps are the union of its examples' reads.
        c.store(
            epoch,
            &ab,
            &named_struct("ab"),
            deps(&[0, 1], &["vc2", "VGoogle", "vm1", "VJanuary"]),
        );
        c.store(
            epoch,
            std::slice::from_ref(&a),
            &named_struct("a"),
            deps(&[0], &["vc2"]),
        );
        assert_eq!(tag(&c.lookup(epoch, &ab).expect("stored")), "ab");
        assert_eq!(
            tag(&c.lookup(epoch, std::slice::from_ref(&a)).expect("stored")),
            "a"
        );
        assert_eq!(c.stats().intersect_hits, 1);
        assert_eq!(c.stats().example_hits, 1);
        assert!(
            c.lookup(epoch, &[b.clone(), a.clone()]).is_none(),
            "order is part of the key"
        );
        assert_eq!((c.example_entries(), c.intersection_entries()), (1, 1));
        // A probe validated against a different db epoch must miss even
        // though the key is present (cross-database cache sharing), and a
        // store against a stale epoch is dropped.
        assert!(c.lookup(epoch + 1000, &ab).is_none());
        c.store(
            epoch + 1000,
            std::slice::from_ref(&b),
            &named_struct("b"),
            None,
        );
        assert_eq!(c.example_entries(), 1, "stale-epoch store dropped");

        // A write to a table only `b` read evicts the chain through the
        // union, and keeps `a` warm.
        db.insert_rows(1, vec![vec!["vm3", "VMarch"]]).unwrap();
        c.validate_db(&db);
        assert!(c.lookup(db.epoch(), &[a]).is_some());
        assert!(c.lookup(db.epoch(), &ab).is_none(), "chain evicted");
        assert_eq!((c.example_entries(), c.intersection_entries()), (1, 0));
    }

    #[test]
    fn store_is_first_insert_wins() {
        let c = DagCache::new();
        let chain = [key("fi", "fo")];
        c.store(0, &chain, &named_struct("first"), None);
        c.store(0, &chain, &named_struct("second"), None);
        assert_eq!(tag(&c.lookup(0, &chain).expect("stored")), "first");
        assert!(
            c.lookup(7, &chain).is_none(),
            "epoch-mismatched probe misses"
        );
    }

    #[test]
    fn arena_stats_track_dedup() {
        let c = DagCache::new();
        assert_eq!(c.arena_stats().stored, 0, "no entries, empty arena");
        let d = named_struct("dup");
        c.store(0, &[key("a1", "b1")], &d, None);
        c.store(0, &[key("a2", "b2")], &d, None);
        let stats = c.arena_stats();
        assert!(stats.hits() > 0, "second intern of the same value hits");
        assert!(stats.dedup_ratio() > 1.0);
        assert!(stats.resident_bytes > 0);
        assert_eq!(c.arena_stats(), stats, "built fresh, so calls agree");
    }

    #[test]
    fn snapshot_round_trips_cache_state() {
        use sst_arena::{SymDecoder, SymEncoder};

        let c = DagCache::new();
        let e = c.epoch_of(&[Symbol::intern("snap-src")]);
        let dag_val = Symbol::intern("snap-val");
        c.dag_for(e, dag_val, || dag(3));
        let (ka, kb) = (key("snap-in", "snap-out"), key("snap-in2", "snap-out"));
        let ab = [ka.clone(), kb];
        c.store(
            0,
            std::slice::from_ref(&ka),
            &named_struct("snap-a"),
            deps(&[0], &["snap-in"]),
        );
        c.store(0, &ab, &named_struct("snap-ab"), None);

        let mut body = sst_arena::Writer::new();
        let mut enc = SymEncoder::new();
        c.encode_snapshot(&mut body, &mut enc);
        let mut w = sst_arena::Writer::new();
        enc.write_table(&mut w);
        let body = body.into_bytes();
        w.raw(&body);
        let bytes = w.into_bytes();

        let mut r = sst_arena::Reader::new(&bytes);
        let dec = SymDecoder::read_table(&mut r).unwrap();
        let restored = DagCache::decode_snapshot(&mut r, &dec, 77).unwrap();
        r.expect_end().unwrap();

        assert_eq!(restored.db_epoch(), 77, "binds to the caller's epoch");
        assert_eq!(restored.example_entries(), 1);
        assert_eq!(restored.intersection_entries(), 1);
        assert_eq!(restored.dag_entries(), 1);
        assert_eq!(restored.arena_stats(), c.arena_stats());
        // Warm probes hit and return the same values.
        let d = restored.lookup(77, &[ka]).expect("warm example");
        assert_eq!(tag(&d), "snap-a");
        let d = restored.lookup(77, &ab).expect("warm intersection");
        assert_eq!(tag(&d), "snap-ab");
        let hit = restored.dag_for(
            restored.epoch_of(&[Symbol::intern("snap-src")]),
            dag_val,
            || unreachable!("must be warm"),
        );
        assert_eq!(hit.num_nodes, 3);
        let stats = restored.stats();
        assert_eq!((stats.example_hits, stats.intersect_hits), (1, 1));
    }

    #[test]
    fn decode_rejects_out_of_range_ids() {
        use sst_arena::{SymDecoder, SymEncoder};

        let c = DagCache::new();
        c.store(0, &[key("oi", "oo")], &named_struct("oob"), None);
        let mut body = sst_arena::Writer::new();
        let mut enc = SymEncoder::new();
        c.encode_snapshot(&mut body, &mut enc);
        let mut w = sst_arena::Writer::new();
        enc.write_table(&mut w);
        let body = body.into_bytes();
        // Cut into the memo entry's struct id (a u32 followed by one deps
        // flag byte).
        w.raw(&body[..body.len() - 4]);
        let bytes = w.into_bytes();
        let mut r = sst_arena::Reader::new(&bytes);
        let dec = SymDecoder::read_table(&mut r).unwrap();
        let err = DagCache::decode_snapshot(&mut r, &dec, 0).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Truncated | SnapshotError::Corrupt(_)),
            "typed error, no panic: {err}"
        );
    }

    #[test]
    fn concurrent_readers_share_the_plane() {
        let c = Arc::new(DagCache::new());
        let e = c.epoch_of(&[Symbol::intern("cc-s")]);
        let v = Symbol::intern("cc-v");
        let canonical = c.dag_for(e, v, || dag(4));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                let canonical = Arc::clone(&canonical);
                s.spawn(move || {
                    for _ in 0..100 {
                        let hit = c.dag_for(e, v, || unreachable!("must be a hit"));
                        assert!(Arc::ptr_eq(&hit, &canonical));
                    }
                });
            }
        });
        assert_eq!(c.stats().dag_hits, 400);
        assert_eq!(c.stats().dag_misses, 1);
    }
}
