//! The DAG data structure for sets of `Ls` expressions.
//!
//! Following §5.2 of the paper, a set of `Concatenate` expressions is
//! represented as `Dag(α̃, α_s, α_t, ξ̃, W)`: nodes, a source, a target, and
//! a map `W` from edges to *sets of atomic expressions*. An edge `(i, j)`
//! built from an output string carries every atomic expression that can
//! produce `output[i..j]`, and the represented set is every concatenation
//! along any source→target path (cross product over edges).
//!
//! Atomic-expression sets themselves are succinct: a [`PosSet`] folds many
//! `pos(r1, r2, c)` expressions whose components are interchangeable (the
//! cross product of `r1s × r2s × cs` all evaluate to the same position).
//!
//! Invariant: edges always go from a lower to a higher node id, so the node
//! ids are a topological order and every DP below is a single backward scan.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use sst_counting::BigUint;

use crate::language::{AtomicExpr, PosExpr, RegexSeq, StringExpr};

/// A set of position expressions that all evaluate to the same position of
/// the same subject string.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PosSet {
    /// A single constant position.
    CPos(i32),
    /// `{pos(r1, r2, c) | r1 ∈ r1s, r2 ∈ r2s, c ∈ cs}` — all valid.
    Pos {
        /// Interchangeable left contexts (identical end-position sets).
        r1s: Vec<RegexSeq>,
        /// Interchangeable right contexts (identical start-position sets).
        r2s: Vec<RegexSeq>,
        /// Valid occurrence indices (typically one positive, one negative).
        cs: Vec<i32>,
    },
}

impl PosSet {
    /// Number of concrete position expressions represented.
    pub fn count(&self) -> BigUint {
        match self {
            PosSet::CPos(_) => BigUint::one(),
            PosSet::Pos { r1s, r2s, cs } => {
                BigUint::from(r1s.len() as u64)
                    * BigUint::from(r2s.len() as u64)
                    * BigUint::from(cs.len() as u64)
            }
        }
    }

    /// Size in terminal symbols (the paper's Figure 11(b) unit): every
    /// token, integer and constant counts one.
    pub fn size(&self) -> usize {
        match self {
            PosSet::CPos(_) => 1,
            PosSet::Pos { r1s, r2s, cs } => {
                let seqs = |v: &Vec<RegexSeq>| v.iter().map(|r| r.0.len().max(1)).sum::<usize>();
                seqs(r1s) + seqs(r2s) + cs.len()
            }
        }
    }

    /// The concrete position expressions represented, lazily, in
    /// `r1 × r2 × c` order.
    fn positions(&self) -> impl Iterator<Item = PosExpr> + '_ {
        let (cpos, pos) = match self {
            PosSet::CPos(k) => (Some(PosExpr::CPos(*k)), None),
            PosSet::Pos { r1s, r2s, cs } => (None, Some((r1s, r2s, cs))),
        };
        let pos = pos.into_iter().flat_map(|(r1s, r2s, cs)| {
            r1s.iter().flat_map(move |r1| {
                r2s.iter().flat_map(move |r2| {
                    cs.iter().map(move |&c| PosExpr::Pos {
                        r1: r1.clone(),
                        r2: r2.clone(),
                        c,
                    })
                })
            })
        });
        cpos.into_iter().chain(pos)
    }

    /// Enumerates up to `limit` concrete position expressions.
    pub fn enumerate(&self, limit: usize) -> Vec<PosExpr> {
        self.positions().take(limit).collect()
    }
}

/// A set of atomic expressions sharing one structure (§5.2's `f̃`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AtomSet<S> {
    /// The constant string.
    ConstStr(String),
    /// The whole source string.
    Whole(S),
    /// Substrings of a source: any start position set × end position set.
    SubStr {
        /// Subject source.
        src: S,
        /// Start-position alternatives (all evaluate to the same offset).
        /// Shared: every occurrence probe hitting the same boundary reuses
        /// one learned vector, and intersection memoizes on its identity.
        p1: Arc<Vec<PosSet>>,
        /// End-position alternatives.
        p2: Arc<Vec<PosSet>>,
    },
}

impl<S> AtomSet<S> {
    /// Number of concrete atoms, given the count of programs of a source.
    pub fn count(&self, src_count: &mut impl FnMut(&S) -> BigUint) -> BigUint {
        match self {
            AtomSet::ConstStr(_) => BigUint::one(),
            AtomSet::Whole(s) => src_count(s),
            AtomSet::SubStr { src, p1, p2 } => {
                let sum = |ps: &[PosSet]| ps.iter().map(PosSet::count).sum::<BigUint>();
                src_count(src) * sum(p1) * sum(p2)
            }
        }
    }

    /// Size in terminal symbols, given source sizes.
    pub fn size(&self, src_size: &mut impl FnMut(&S) -> usize) -> usize {
        match self {
            AtomSet::ConstStr(_) => 1,
            AtomSet::Whole(s) => src_size(s),
            AtomSet::SubStr { src, p1, p2 } => {
                src_size(src)
                    + p1.iter().map(PosSet::size).sum::<usize>()
                    + p2.iter().map(PosSet::size).sum::<usize>()
            }
        }
    }

    /// True iff the set contains a non-constant expression.
    pub fn is_nonconst(&self) -> bool {
        !matches!(self, AtomSet::ConstStr(_))
    }
}

/// The DAG representing a set of concatenation programs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Dag<S> {
    /// Number of nodes; ids are `0..num_nodes` in topological order.
    pub num_nodes: u32,
    /// Source node (paper's `α_s`).
    pub source: u32,
    /// Target node (paper's `α_t`).
    pub target: u32,
    /// Edge map `W`; keys `(a, b)` always satisfy `a < b`.
    pub edges: BTreeMap<(u32, u32), Vec<AtomSet<S>>>,
}

impl<S> Dag<S> {
    /// The DAG denoting only the empty program (empty output string).
    pub fn empty_output() -> Self {
        Dag {
            num_nodes: 1,
            source: 0,
            target: 0,
            edges: BTreeMap::new(),
        }
    }

    /// Outgoing edges of `node`.
    pub fn outgoing(&self, node: u32) -> impl Iterator<Item = (&(u32, u32), &Vec<AtomSet<S>>)> {
        self.edges.range((node, 0)..(node + 1, 0))
    }

    /// Number of programs represented; `src_count` supplies the program
    /// count of a source (1 for a plain variable).
    pub fn count_programs(&self, src_count: &mut impl FnMut(&S) -> BigUint) -> BigUint {
        // ways[n] = number of programs along paths n -> target.
        let mut ways = vec![BigUint::zero(); self.num_nodes as usize];
        ways[self.target as usize] = BigUint::one();
        for node in (0..self.num_nodes).rev() {
            if node == self.target {
                continue;
            }
            let mut total = BigUint::zero();
            for (&(_, next), atoms) in self.outgoing(node) {
                if ways[next as usize].is_zero() {
                    continue;
                }
                let edge_count: BigUint = atoms.iter().map(|a| a.count(src_count)).sum();
                total += &(edge_count * ways[next as usize].clone());
            }
            ways[node as usize] = total;
        }
        ways[self.source as usize].clone()
    }

    /// Size in terminal symbols.
    pub fn size(&self, src_size: &mut impl FnMut(&S) -> usize) -> usize {
        self.edges
            .values()
            .flat_map(|atoms| atoms.iter())
            .map(|a| a.size(src_size))
            .sum()
    }

    /// True iff some source→target path exists where every edge has at
    /// least one atom and at least one edge offers a non-constant atom
    /// (the §5.3 "uses a variable" check).
    pub fn has_nonconst_program(&self) -> bool {
        // state: (node, seen_nonconst) reachability, backward from target.
        let reach_plain = self.reachable_to_target(|_| true);
        if !reach_plain[self.source as usize] {
            return false;
        }
        // DP: can node reach target using at least one non-const atom?
        let mut with = vec![false; self.num_nodes as usize];
        for node in (0..self.num_nodes).rev() {
            if node == self.target {
                continue;
            }
            let mut ok = false;
            for (&(_, next), atoms) in self.outgoing(node) {
                if atoms.is_empty() {
                    continue;
                }
                let next_plain = reach_plain[next as usize];
                let next_with = with[next as usize];
                let has_nonconst_atom = atoms.iter().any(AtomSet::is_nonconst);
                if (has_nonconst_atom && next_plain) || next_with {
                    ok = true;
                    break;
                }
            }
            with[node as usize] = ok;
        }
        with[self.source as usize]
    }

    /// True iff at least one program is represented.
    pub fn is_nonempty(&self) -> bool {
        self.reachable_to_target(|_| true)[self.source as usize]
    }

    fn reachable_to_target(&self, edge_ok: impl Fn(&Vec<AtomSet<S>>) -> bool) -> Vec<bool> {
        let mut reach = vec![false; self.num_nodes as usize];
        reach[self.target as usize] = true;
        for node in (0..self.num_nodes).rev() {
            if node == self.target {
                continue;
            }
            reach[node as usize] = self.outgoing(node).any(|(&(_, next), atoms)| {
                !atoms.is_empty() && edge_ok(atoms) && reach[next as usize]
            });
        }
        reach
    }

    /// Removes edges/nodes not on any source→target path and renumbers the
    /// remaining nodes (preserving topological order). Returns `false` if
    /// the DAG becomes empty (no program represented).
    pub fn prune(&mut self) -> bool {
        let back = self.reachable_to_target(|_| true);
        let mut fwd = vec![false; self.num_nodes as usize];
        fwd[self.source as usize] = true;
        for node in 0..self.num_nodes {
            if !fwd[node as usize] {
                continue;
            }
            let nexts: Vec<u32> = self
                .outgoing(node)
                .filter(|(_, atoms)| !atoms.is_empty())
                .map(|(&(_, next), _)| next)
                .collect();
            for next in nexts {
                fwd[next as usize] = true;
            }
        }
        if !(back[self.source as usize] && fwd[self.target as usize]) {
            return false;
        }
        let keep: Vec<bool> = (0..self.num_nodes as usize)
            .map(|n| fwd[n] && back[n])
            .collect();
        let mut remap = vec![u32::MAX; self.num_nodes as usize];
        let mut next_id = 0u32;
        for (n, &k) in keep.iter().enumerate() {
            if k {
                remap[n] = next_id;
                next_id += 1;
            }
        }
        let old = std::mem::take(&mut self.edges);
        for ((a, b), atoms) in old {
            if keep[a as usize] && keep[b as usize] && !atoms.is_empty() {
                self.edges
                    .insert((remap[a as usize], remap[b as usize]), atoms);
            }
        }
        self.source = remap[self.source as usize];
        self.target = remap[self.target as usize];
        self.num_nodes = next_id;
        true
    }

    /// Enumerates up to `limit` concrete programs (for tests; exponential in
    /// general). Sources are kept abstract (`Whole`/`SubStr` keep `S`).
    pub fn enumerate_programs(&self, limit: usize) -> Vec<StringExpr<S>>
    where
        S: Clone,
    {
        let mut out = Vec::new();
        let mut prefix: Vec<AtomicExpr<S>> = Vec::new();
        self.enumerate_from(self.source, &mut prefix, &mut out, limit);
        out
    }

    fn enumerate_from(
        &self,
        node: u32,
        prefix: &mut Vec<AtomicExpr<S>>,
        out: &mut Vec<StringExpr<S>>,
        limit: usize,
    ) where
        S: Clone,
    {
        if out.len() >= limit {
            return;
        }
        if node == self.target {
            out.push(StringExpr {
                atoms: prefix.clone(),
            });
            return;
        }
        // Longest edges first: full-span atoms (whole-source references)
        // surface before single-character decompositions, which matters
        // when the enumeration limit is small.
        let mut nexts: Vec<_> = self.outgoing(node).collect();
        nexts.sort_by_key(|&(&(_, next), _)| std::cmp::Reverse(next));
        for (&(_, next), atoms) in nexts {
            for aset in atoms {
                for atom in enumerate_atoms(aset).take(limit.saturating_sub(out.len())) {
                    if out.len() >= limit {
                        return;
                    }
                    prefix.push(atom);
                    self.enumerate_from(next, prefix, out, limit);
                    prefix.pop();
                }
            }
        }
    }
}

/// The concrete atoms of an atom set, lazily: start positions outermost,
/// then end positions, each in list and then [`PosSet::positions`] order.
fn enumerate_atoms<S: Clone>(aset: &AtomSet<S>) -> Box<dyn Iterator<Item = AtomicExpr<S>> + '_> {
    match aset {
        AtomSet::ConstStr(s) => Box::new(std::iter::once(AtomicExpr::ConstStr(s.clone()))),
        AtomSet::Whole(s) => Box::new(std::iter::once(AtomicExpr::Whole(s.clone()))),
        AtomSet::SubStr { src, p1, p2 } => {
            Box::new(p1.iter().flat_map(PosSet::positions).flat_map(move |a| {
                p2.iter()
                    .flat_map(PosSet::positions)
                    .map(move |b| AtomicExpr::SubStr {
                        src: src.clone(),
                        p1: a.clone(),
                        p2: b,
                    })
            }))
        }
    }
}

impl<S: fmt::Display> fmt::Display for Dag<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Dag(nodes={}, source={}, target={})",
            self.num_nodes, self.source, self.target
        )?;
        for ((a, b), atoms) in &self.edges {
            writeln!(f, "  ({a},{b}): {} atom set(s)", atoms.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn const_edge(s: &str) -> Vec<AtomSet<u32>> {
        vec![AtomSet::ConstStr(s.to_string())]
    }

    /// A 3-node chain DAG: 0 -> 1 -> 2, plus a skip edge 0 -> 2.
    fn diamond() -> Dag<u32> {
        let mut edges = BTreeMap::new();
        edges.insert((0, 1), const_edge("a"));
        edges.insert(
            (1, 2),
            vec![AtomSet::ConstStr("b".into()), AtomSet::Whole(0)],
        );
        edges.insert((0, 2), const_edge("ab"));
        Dag {
            num_nodes: 3,
            source: 0,
            target: 2,
            edges,
        }
    }

    fn one() -> BigUint {
        BigUint::one()
    }

    #[test]
    fn count_paths_with_atom_multiplicity() {
        let d = diamond();
        // Path 0->1->2: 1 * (1 + 1) = 2 programs; path 0->2: 1. Total 3.
        assert_eq!(d.count_programs(&mut |_| one()).to_u64(), Some(3));
    }

    #[test]
    fn count_empty_output_dag() {
        let d = Dag::<u32>::empty_output();
        assert_eq!(d.count_programs(&mut |_| one()).to_u64(), Some(1));
        assert!(d.is_nonempty());
    }

    #[test]
    fn size_sums_atom_terminals() {
        let d = diamond();
        // ConstStr=1 each (3 of them) + Whole=src_size (say 1).
        assert_eq!(d.size(&mut |_| 1), 4);
    }

    #[test]
    fn nonconst_detection() {
        let d = diamond();
        assert!(d.has_nonconst_program());
        let mut edges = BTreeMap::new();
        edges.insert((0, 1), const_edge("a"));
        let all_const = Dag::<u32> {
            num_nodes: 2,
            source: 0,
            target: 1,
            edges,
        };
        assert!(!all_const.has_nonconst_program());
        assert!(all_const.is_nonempty());
    }

    #[test]
    fn prune_drops_dead_nodes() {
        let mut edges = BTreeMap::new();
        edges.insert((0, 1), const_edge("a"));
        edges.insert((1, 3), const_edge("b"));
        edges.insert((0, 2), const_edge("dead")); // 2 has no way to target
        let mut d = Dag::<u32> {
            num_nodes: 4,
            source: 0,
            target: 3,
            edges,
        };
        assert!(d.prune());
        assert_eq!(d.num_nodes, 3);
        assert_eq!(d.edges.len(), 2);
        assert_eq!(d.count_programs(&mut |_| one()).to_u64(), Some(1));
    }

    #[test]
    fn prune_reports_empty() {
        let mut d = Dag::<u32> {
            num_nodes: 2,
            source: 0,
            target: 1,
            edges: BTreeMap::new(),
        };
        assert!(!d.prune());
        assert!(!d.is_nonempty());
    }

    #[test]
    fn enumerate_programs_lists_cross_product() {
        let d = diamond();
        let progs = d.enumerate_programs(10);
        assert_eq!(progs.len(), 3);
        let rendered: Vec<String> = progs.iter().map(|p| p.to_string()).collect();
        assert!(rendered.iter().any(|s| s.contains("ConstStr(\"ab\")")));
    }

    #[test]
    fn enumerate_respects_limit() {
        let d = diamond();
        assert_eq!(d.enumerate_programs(2).len(), 2);
    }

    #[test]
    fn posset_count_and_size() {
        let p = PosSet::Pos {
            r1s: vec![RegexSeq::epsilon(), RegexSeq(vec![])],
            r2s: vec![RegexSeq::epsilon()],
            cs: vec![1, -1],
        };
        assert_eq!(p.count().to_u64(), Some(4));
        assert_eq!(p.size(), 2 + 1 + 2);
        assert_eq!(PosSet::CPos(3).count().to_u64(), Some(1));
        assert_eq!(PosSet::CPos(3).size(), 1);
    }

    #[test]
    fn atomset_count_multiplies_positions() {
        let aset: AtomSet<u32> = AtomSet::SubStr {
            src: 0,
            p1: Arc::new(vec![PosSet::CPos(0), PosSet::CPos(1)]),
            p2: Arc::new(vec![PosSet::CPos(2)]),
        };
        assert_eq!(aset.count(&mut |_| BigUint::from(3u64)).to_u64(), Some(6));
    }
}
