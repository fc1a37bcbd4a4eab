//! Ranking of `Ls` programs (§3.1 "Ranking", §5.4).
//!
//! The data structure shares sub-expressions, so the paper requires any
//! ranking to be a partial order decomposable over that sharing: the score
//! of a path is the sum of its edge scores, the score of an edge is the best
//! score among its atoms, and atom scores only look at un-shared attributes.
//! That makes top-1 extraction a shortest-path DP over the DAG.
//!
//! Extraction runs in two passes. The *pricing* pass computes costs only:
//! each node records its cost to the target and the index of its chosen
//! edge, atom set and position alternatives, and nothing is cloned. The
//! *build* pass walks the chosen chain and materializes only those atoms.
//! [`RankWeights::program_cost`] stops after pricing, which is all a caller
//! that only compares costs (a nested predicate DAG that may lose) needs.
//! Each cost formula is written once and shared by the set pricing and the
//! concrete-expression pricing ([`RankWeights::atom_expr_cost`]).
//!
//! The concrete weights implement the paper's stated preferences:
//! * fewer concatenation arguments (a fixed per-atom charge),
//! * substring/source atoms over constants (generalization),
//! * whole-source references over substrings,
//! * relative (`pos`) positions over interior absolute ones; the string
//!   edges `CPos(0)`/`CPos(-1)` are as robust as anchors,
//! * among `pos` expressions, shorter token sequences and smaller
//!   occurrence indices.

use std::sync::Arc;

use sst_tables::IntMap;

use crate::dag::{AtomSet, Dag, PosSet};
use crate::language::{AtomicExpr, PosExpr, RegexSeq, StringExpr};

/// Tunable score weights; lower cost = preferred.
#[derive(Debug, Clone)]
pub struct RankWeights {
    /// Charge per concatenation argument (prefers fewer atoms).
    pub per_atom: u64,
    /// Base cost of a constant-string atom.
    pub const_str: u64,
    /// Cost per alphanumeric character of a constant. Content characters
    /// rarely belong in constants (they should generalize from the inputs
    /// or a lookup), so this is steep.
    pub const_char_alnum: u64,
    /// Cost per non-alphanumeric character of a constant. Separators and
    /// punctuation are legitimately constant, so this is mild.
    pub const_char_other: u64,
    /// Cost of referencing a whole source.
    pub whole: u64,
    /// Base cost of a substring atom (positions/source costs are added).
    pub substr: u64,
    /// Cost of `CPos(0)` / `CPos(-1)` (string edges).
    pub cpos_edge: u64,
    /// Cost of any other constant position.
    pub cpos_interior: u64,
    /// Base cost of a `pos(r1, r2, c)` position.
    pub pos: u64,
    /// Extra cost per token beyond the first in each context.
    pub pos_token: u64,
    /// Extra cost when `|c| > 1`.
    pub pos_far_count: u64,
}

impl Default for RankWeights {
    fn default() -> Self {
        RankWeights {
            per_atom: 20,
            const_str: 6,
            const_char_alnum: 40,
            const_char_other: 3,
            whole: 2,
            substr: 6,
            cpos_edge: 2,
            cpos_interior: 9,
            pos: 1,
            pos_token: 1,
            pos_far_count: 1,
        }
    }
}

/// The pricing pass's choice inside one position set: indices into its
/// `r1s`, `r2s` and `cs` (all 0 for `CPos`).
#[derive(Debug, Clone, Copy, Default)]
struct PosPick {
    r1: usize,
    r2: usize,
    c: usize,
}

/// The pricing pass's choice inside one atom set: for a `SubStr`, the
/// chosen start and end position sets and the picks inside them.
#[derive(Debug, Clone, Copy, Default)]
struct AtomPick {
    p1: (usize, PosPick),
    p2: (usize, PosPick),
}

/// One node of the program DP: cost to the target, and the chosen edge
/// (next node, atom set, pick inside it), which is `None` at the target.
type Step<'d, S> = (u64, Option<(u32, &'d AtomSet<S>, AtomPick)>);

/// Memoized position-list prices, keyed by the list's allocation (valid
/// while the DAG that holds the lists is borrowed).
type ListPrices = IntMap<*const Vec<PosSet>, Option<(u64, (usize, PosPick))>>;

impl RankWeights {
    fn cpos_cost(&self, k: i32) -> u64 {
        if k == 0 || k == -1 {
            self.cpos_edge
        } else {
            self.cpos_interior
        }
    }

    /// ε is fine but a 1-token context is the most readable; extra tokens
    /// cost more.
    fn seq_cost(&self, r: &RegexSeq) -> u64 {
        (r.0.len() as u64).saturating_sub(1) * self.pos_token
    }

    fn pos_parts_cost(&self, r1: &RegexSeq, r2: &RegexSeq, c: i32) -> u64 {
        let far = if c.unsigned_abs() > 1 {
            self.pos_far_count
        } else {
            0
        };
        self.pos + self.seq_cost(r1) + self.seq_cost(r2) + far
    }

    fn const_cost(&self, s: &str) -> u64 {
        let chars = s
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    self.const_char_alnum
                } else {
                    self.const_char_other
                }
            })
            .sum::<u64>();
        self.const_str + chars
    }

    fn whole_cost(&self, src: u64) -> u64 {
        self.whole + src
    }

    fn substr_cost(&self, src: u64, p1: u64, p2: u64) -> u64 {
        self.substr + src + p1 + p2
    }

    /// Prices a position set: the cost of its best concrete position and
    /// where that position sits in the set. Ties between contexts break
    /// toward the smaller `RegexSeq`; among counts, the smallest `|c|`
    /// wins, positive first.
    fn pos_cost(&self, pset: &PosSet) -> (u64, PosPick) {
        match pset {
            PosSet::CPos(k) => (self.cpos_cost(*k), PosPick::default()),
            PosSet::Pos { r1s, r2s, cs } => {
                let pick_seq = |seqs: &[RegexSeq]| -> usize {
                    seqs.iter()
                        .enumerate()
                        .map(|(i, r)| (self.seq_cost(r), r, i))
                        .min_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(b.1)))
                        .expect("non-empty seq list")
                        .2
                };
                let (r1, r2) = (pick_seq(r1s), pick_seq(r2s));
                let (c, _) = cs
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, c)| (c.unsigned_abs(), c.is_negative()))
                    .expect("non-empty count list");
                let cost = self.pos_parts_cost(&r1s[r1], &r2s[r2], cs[c]);
                (cost, PosPick { r1, r2, c })
            }
        }
    }

    /// Prices a list of position alternatives: the first cheapest set wins.
    fn pos_list_cost(&self, psets: &[PosSet]) -> Option<(u64, (usize, PosPick))> {
        psets
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let (cost, pick) = self.pos_cost(p);
                (cost, (i, pick))
            })
            .min_by_key(|(cost, _)| *cost)
    }

    /// Prices an atom set. `src_cost` prices a source handle (0 for
    /// variables; lookup depth for `Lu` nodes) and may veto it with `None`.
    /// Position lists are `Arc`-shared by every atom that starts or ends at
    /// the same boundary, so their prices are memoized in `lists` by
    /// allocation.
    fn atom_cost<S>(
        &self,
        aset: &AtomSet<S>,
        src_cost: &mut impl FnMut(&S) -> Option<u64>,
        lists: &mut ListPrices,
    ) -> Option<(u64, AtomPick)> {
        match aset {
            AtomSet::ConstStr(s) => Some((self.const_cost(s), AtomPick::default())),
            AtomSet::Whole(src) => Some((self.whole_cost(src_cost(src)?), AtomPick::default())),
            AtomSet::SubStr { src, p1, p2 } => {
                let c = src_cost(src)?;
                let mut list = |ps: &Arc<Vec<PosSet>>| {
                    *lists
                        .entry(Arc::as_ptr(ps))
                        .or_insert_with(|| self.pos_list_cost(ps))
                };
                let (c1, p1) = list(p1)?;
                let (c2, p2) = list(p2)?;
                Some((self.substr_cost(c, c1, c2), AtomPick { p1, p2 }))
            }
        }
    }

    /// Cost of one concrete position, by the same formula [`Self::pos_cost`]
    /// minimizes.
    fn pos_expr_cost(&self, p: &PosExpr) -> u64 {
        match p {
            PosExpr::CPos(k) => self.cpos_cost(*k),
            PosExpr::Pos { r1, r2, c } => self.pos_parts_cost(r1, r2, *c),
        }
    }

    /// Cost of one concrete atom, by the same formula [`Self::best_atom`]
    /// minimizes; `None` when `src_cost` vetoes its source.
    pub fn atom_expr_cost<S>(
        &self,
        atom: &AtomicExpr<S>,
        src_cost: &mut impl FnMut(&S) -> Option<u64>,
    ) -> Option<u64> {
        Some(match atom {
            AtomicExpr::ConstStr(s) => self.const_cost(s),
            AtomicExpr::Whole(src) => self.whole_cost(src_cost(src)?),
            AtomicExpr::SubStr { src, p1, p2 } => self.substr_cost(
                src_cost(src)?,
                self.pos_expr_cost(p1),
                self.pos_expr_cost(p2),
            ),
        })
    }

    fn build_pos(pset: &PosSet, pick: PosPick) -> PosExpr {
        match pset {
            PosSet::CPos(k) => PosExpr::CPos(*k),
            PosSet::Pos { r1s, r2s, cs } => PosExpr::Pos {
                r1: r1s[pick.r1].clone(),
                r2: r2s[pick.r2].clone(),
                c: cs[pick.c],
            },
        }
    }

    fn build_atom<S: Clone>(aset: &AtomSet<S>, pick: AtomPick) -> AtomicExpr<S> {
        match aset {
            AtomSet::ConstStr(s) => AtomicExpr::ConstStr(s.clone()),
            AtomSet::Whole(src) => AtomicExpr::Whole(src.clone()),
            AtomSet::SubStr { src, p1, p2 } => AtomicExpr::SubStr {
                src: src.clone(),
                p1: Self::build_pos(&p1[pick.p1.0], pick.p1.1),
                p2: Self::build_pos(&p2[pick.p2.0], pick.p2.1),
            },
        }
    }

    /// Cost and best concrete expression of a position set.
    pub fn best_pos(&self, pset: &PosSet) -> (u64, PosExpr) {
        let (cost, pick) = self.pos_cost(pset);
        (cost, Self::build_pos(pset, pick))
    }

    /// Cost and best concrete atom of an atom set. `src_cost` prices a
    /// source handle and may veto it with `None`.
    pub fn best_atom<S: Clone>(
        &self,
        aset: &AtomSet<S>,
        src_cost: &mut impl FnMut(&S) -> Option<u64>,
    ) -> Option<(u64, AtomicExpr<S>)> {
        let (cost, pick) = self.atom_cost(aset, src_cost, &mut ListPrices::default())?;
        Some((cost, Self::build_atom(aset, pick)))
    }

    /// The pricing pass: a backward shortest-path DP that records, per
    /// node, the cost to the target and the chosen edge. The first
    /// strictly cheaper candidate wins, in edge order, then atom order.
    fn price_program<'d, S>(
        &self,
        dag: &'d Dag<S>,
        src_cost: &mut impl FnMut(&S) -> Option<u64>,
    ) -> Vec<Option<Step<'d, S>>> {
        let mut best: Vec<Option<Step<'d, S>>> = vec![None; dag.num_nodes as usize];
        best[dag.target as usize] = Some((0, None));
        let mut lists = ListPrices::default();
        for node in (0..dag.num_nodes).rev() {
            if node == dag.target {
                continue;
            }
            let mut chosen: Option<Step<'d, S>> = None;
            for (&(_, next), atoms) in dag.outgoing(node) {
                let Some((next_cost, _)) = best[next as usize] else {
                    continue;
                };
                for aset in atoms {
                    if let Some((atom_cost, pick)) = self.atom_cost(aset, src_cost, &mut lists) {
                        let total = atom_cost + self.per_atom + next_cost;
                        if chosen.is_none_or(|(c, _)| total < c) {
                            chosen = Some((total, Some((next, aset, pick))));
                        }
                    }
                }
            }
            best[node as usize] = chosen;
        }
        best
    }

    /// Cost of the minimum-cost program of a DAG, without building it;
    /// `None` when the DAG is empty or every path is vetoed.
    pub fn program_cost<S>(
        &self,
        dag: &Dag<S>,
        src_cost: &mut impl FnMut(&S) -> Option<u64>,
    ) -> Option<u64> {
        self.price_program(dag, src_cost)[dag.source as usize].map(|(cost, _)| cost)
    }

    /// Extracts the minimum-cost program from a DAG: the pricing pass, then
    /// a walk down the chosen chain that builds only its atoms.
    ///
    /// Returns the cost and the program, or `None` when the DAG is empty
    /// (or every atom's source is vetoed by `src_cost`).
    pub fn best_program<S: Clone>(
        &self,
        dag: &Dag<S>,
        src_cost: &mut impl FnMut(&S) -> Option<u64>,
    ) -> Option<(u64, StringExpr<S>)> {
        let best = self.price_program(dag, src_cost);
        let (cost, _) = best[dag.source as usize]?;
        let mut atoms = Vec::new();
        let mut node = dag.source;
        while node != dag.target {
            let (_, step) = best[node as usize]?;
            let (next, aset, pick) = step?;
            atoms.push(Self::build_atom(aset, pick));
            node = next;
        }
        Some((cost, StringExpr { atoms }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_dag, GenOptions};
    use crate::language::Var;
    use crate::tokens::Token;
    use proptest::prelude::*;

    fn w() -> RankWeights {
        RankWeights::default()
    }

    fn gen(inputs: &[&str], output: &str) -> Dag<Var> {
        let sources: Vec<(Var, &str)> = inputs
            .iter()
            .enumerate()
            .map(|(i, s)| (Var(i as u32), *s))
            .collect();
        generate_dag(&sources, output, &GenOptions::default())
    }

    fn var_cost(_: &Var) -> Option<u64> {
        Some(0)
    }

    #[test]
    fn prefers_whole_var_over_const() {
        let dag = gen(&["abc"], "abc");
        let (_, prog) = w().best_program(&dag, &mut var_cost).unwrap();
        assert_eq!(prog.to_string(), "v1");
    }

    #[test]
    fn prefers_substring_over_const() {
        let dag = gen(&["ab 12 cd"], "12");
        let (_, prog) = w().best_program(&dag, &mut var_cost).unwrap();
        assert!(
            prog.to_string().starts_with("SubStr"),
            "expected a substring, got {prog}"
        );
    }

    #[test]
    fn unrelated_output_falls_back_to_const() {
        let dag = gen(&["xyz"], "Q");
        let (_, prog) = w().best_program(&dag, &mut var_cost).unwrap();
        assert_eq!(prog.to_string(), "ConstStr(\"Q\")");
    }

    #[test]
    fn fewer_atoms_preferred() {
        // "abab" from "ab": whole-string duplication needs 2 atoms, but a
        // 4-char constant needs 1; the constant's per-char charge must still
        // favor the two source atoms.
        let dag = gen(&["ab"], "abab");
        let (_, prog) = w().best_program(&dag, &mut var_cost).unwrap();
        assert_eq!(prog.arity(), 2, "got {prog}");
        assert!(!prog.to_string().contains("ConstStr"));
    }

    #[test]
    fn pos_preferred_over_interior_cpos() {
        let (cost_pos, _) = w().best_pos(&PosSet::Pos {
            r1s: vec![RegexSeq::token(Token::Num)],
            r2s: vec![RegexSeq::epsilon()],
            cs: vec![1],
        });
        let (cost_interior, _) = w().best_pos(&PosSet::CPos(5));
        let (cost_edge, _) = w().best_pos(&PosSet::CPos(0));
        assert!(cost_pos < cost_interior);
        assert!(cost_edge < cost_interior);
    }

    #[test]
    fn smaller_count_preferred() {
        let pset = PosSet::Pos {
            r1s: vec![RegexSeq::token(Token::Num)],
            r2s: vec![RegexSeq::epsilon()],
            cs: vec![3, -1],
        };
        let (_, p) = w().best_pos(&pset);
        match p {
            PosExpr::Pos { c, .. } => assert_eq!(c, -1),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn veto_source_falls_back() {
        let dag = gen(&["abc"], "abc");
        // Veto all sources: only the constant remains.
        let (_, prog) = w().best_program(&dag, &mut |_: &Var| None).unwrap();
        assert_eq!(prog.to_string(), "ConstStr(\"abc\")");
    }

    /// Two paths of equal cost to the target: `v2 v3` through node 1 (the
    /// first edge out of node 0) and `v1` straight to node 2 (the second).
    /// Edge (0, 1) also carries two equally priced atoms.
    #[test]
    fn equal_cost_ties_go_to_the_first_edge_and_atom() {
        let mut edges = std::collections::BTreeMap::new();
        edges.insert((0, 1), vec![AtomSet::Whole(Var(1)), AtomSet::Whole(Var(3))]);
        edges.insert((0, 2), vec![AtomSet::Whole(Var(0))]);
        edges.insert((1, 2), vec![AtomSet::Whole(Var(2))]);
        let dag = Dag {
            num_nodes: 3,
            source: 0,
            target: 2,
            edges,
        };
        let w = w();
        // Path through node 1: two atoms at cost whole + per_atom each.
        let two_atoms = 2 * (w.whole + w.per_atom);
        let mut src_cost = |v: &Var| {
            Some(if v.0 == 0 {
                two_atoms - w.whole - w.per_atom
            } else {
                0
            })
        };
        let (cost, prog) = w.best_program(&dag, &mut src_cost).unwrap();
        assert_eq!(cost, two_atoms);
        assert_eq!(prog.to_string(), "Concatenate(v2, v3)");
        assert_eq!(w.program_cost(&dag, &mut src_cost), Some(cost));
    }

    /// Prices variables by index and vetoes `v3`, so source costs vary and
    /// some atoms drop out.
    fn graded_cost(v: &Var) -> Option<u64> {
        (v.0 < 2).then_some(u64::from(v.0) * 3)
    }

    /// The pricing pass and the build pass agree on every position set,
    /// atom set and whole program of a DAG, and the concrete-expression
    /// pricing re-derives each built expression's cost.
    fn passes_agree(dag: &Dag<Var>) -> Result<(), proptest::TestCaseError> {
        let w = w();
        for src_cost in [var_cost as fn(&Var) -> Option<u64>, graded_cost] {
            let mut src_cost = src_cost;
            let best = w.best_program(dag, &mut src_cost);
            prop_assert_eq!(
                w.program_cost(dag, &mut src_cost),
                best.as_ref().map(|b| b.0)
            );
            if let Some((cost, prog)) = &best {
                let mut repriced = 0;
                for atom in &prog.atoms {
                    repriced += w.atom_expr_cost(atom, &mut src_cost).unwrap() + w.per_atom;
                }
                prop_assert_eq!(repriced, *cost, "program {}", prog);
            }
            for aset in dag.edges.values().flatten() {
                let built = w.best_atom(aset, &mut src_cost);
                let priced = w.atom_cost(aset, &mut src_cost, &mut ListPrices::default());
                prop_assert_eq!(priced.map(|p| p.0), built.as_ref().map(|b| b.0));
                if let Some((cost, atom)) = &built {
                    prop_assert_eq!(w.atom_expr_cost(atom, &mut src_cost), Some(*cost));
                }
                if let AtomSet::SubStr { p1, p2, .. } = aset {
                    for pset in p1.iter().chain(p2.iter()) {
                        let (cost, pos) = w.best_pos(pset);
                        prop_assert_eq!(w.pos_cost(pset).0, cost);
                        prop_assert_eq!(w.pos_expr_cost(&pos), cost);
                    }
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// DAGs generated from two inputs and an output spliced from both
        /// plus a constant separator: many atoms and positions tie.
        #[test]
        fn pricing_and_build_passes_agree(
            a in "[A-Za-z0-9 ,.-]{1,10}",
            b in "[a-z0-9 ]{1,8}",
            i in 0usize..10,
            j in 0usize..10,
        ) {
            let (i, j) = (i % a.len(), j % b.len());
            let output = format!("{}-{}", &a[i..], &b[..=j]);
            passes_agree(&gen(&[&a, &b], &output))?;
        }
    }

    #[test]
    fn empty_dag_gives_empty_program() {
        let dag = Dag::<Var>::empty_output();
        let (cost, prog) = w().best_program(&dag, &mut var_cost).unwrap();
        assert_eq!(cost, 0);
        assert_eq!(prog.arity(), 0);
    }
}
