//! Conversions between the `Du` tree types and the flat arena reprs of
//! [`sst_arena`] — the bridge the snapshot codec writes and reads through.
//!
//! Interning is bottom-up (position sets → atoms → DAGs → programs →
//! nodes → whole structure), so a [`StructId`] is a *value* name: two
//! structurally equal structures intern to the same id no matter which
//! code path built them or which process they came from. Extraction
//! inverts interning; an [`ExtractCtx`] shared across one decode pass
//! rebuilds the `Arc` sharing the tree form relies on (every reference to
//! one interned DAG aliases one allocation, exactly like a live
//! `DagCache` fill).

use std::sync::Arc;

use sst_arena::{
    Arena, CondRepr, DagId, NodeRepId, NodeRepr, ProgId, ProgRepr, StructId, StructRepr, SymListId,
};
use sst_lookup::NodeId;
use sst_syntactic::Dag;
use sst_tables::IntMap;

use crate::dstruct::{GenCondU, GenLookupU, GenPredU, SemDStruct, SemNode};

/// Interns one whole `Du` structure, returning its arena-wide value name.
///
/// Predicate DAGs are `Arc`-shared heavily within one structure (every
/// column of an activated row references the row's key DAG); a per-call
/// pointer memo interns each distinct allocation once, so interning cost
/// tracks the *shared* size, not the unfolded size.
pub(crate) fn intern_struct(arena: &mut Arena, d: &SemDStruct) -> StructId {
    let mut dag_memo: IntMap<usize, DagId> = IntMap::default();
    let mut intern_dag = |arena: &mut Arena, dag: &Arc<Dag<NodeId>>| -> DagId {
        let key = Arc::as_ptr(dag) as usize;
        if let Some(&id) = dag_memo.get(&key) {
            return id;
        }
        let id = arena.intern_dag(dag);
        dag_memo.insert(key, id);
        id
    };
    let mut nodes = Vec::with_capacity(d.nodes.len());
    for node in &d.nodes {
        let vals = SymListId(arena.sym_lists.intern(node.vals.as_slice().into()));
        let mut progs = Vec::with_capacity(node.progs.len());
        for prog in &node.progs {
            let repr = match prog {
                GenLookupU::Var(v) => ProgRepr::Var(*v),
                GenLookupU::Select { col, table, conds } => {
                    let conds = conds
                        .iter()
                        .map(|cond| CondRepr {
                            key: cond.key as u32,
                            preds: cond
                                .preds
                                .iter()
                                .map(|p| (p.col, intern_dag(arena, &p.dag)))
                                .collect(),
                        })
                        .collect();
                    ProgRepr::Select {
                        col: *col,
                        table: *table,
                        conds,
                    }
                }
            };
            progs.push(ProgId(arena.progs.intern(repr)));
        }
        nodes.push(NodeRepId(arena.nodes.intern(NodeRepr {
            vals,
            progs: progs.into(),
        })));
    }
    let top = d.top.as_ref().map(|dag| intern_dag(arena, dag));
    StructId(arena.structs.intern(StructRepr {
        nodes: nodes.into(),
        top,
    }))
}

/// Shared-extraction state for one decode pass: every [`DagId`] extracts
/// to one `Arc<Dag>` allocation, re-establishing the pointer sharing that
/// intersection's nested-DAG memos and `prune`'s traversal memos exploit.
#[derive(Debug, Default)]
pub(crate) struct ExtractCtx {
    dags: IntMap<u32, Arc<Dag<NodeId>>>,
}

impl ExtractCtx {
    /// An empty context.
    pub(crate) fn new() -> Self {
        ExtractCtx::default()
    }

    fn dag(&mut self, arena: &Arena, id: DagId) -> Arc<Dag<NodeId>> {
        if let Some(dag) = self.dags.get(&id.0) {
            return Arc::clone(dag);
        }
        let dag = Arc::new(arena.extract_dag(id));
        self.dags.insert(id.0, Arc::clone(&dag));
        dag
    }
}

/// Rebuilds the tree form of one interned structure.
pub(crate) fn extract_struct(arena: &Arena, id: StructId, ctx: &mut ExtractCtx) -> SemDStruct {
    let repr = arena.structs.get(id.0).clone();
    let mut nodes = Vec::with_capacity(repr.nodes.len());
    for &node_id in repr.nodes.iter() {
        let node = arena.nodes.get(node_id.0);
        let vals = arena.sym_lists.get(node.vals.0).to_vec();
        let mut progs = Vec::with_capacity(node.progs.len());
        for &prog_id in node.progs.iter() {
            let prog = match arena.progs.get(prog_id.0) {
                ProgRepr::Var(v) => GenLookupU::Var(*v),
                ProgRepr::Select { col, table, conds } => GenLookupU::Select {
                    col: *col,
                    table: *table,
                    conds: Arc::new(
                        conds
                            .iter()
                            .map(|cond| GenCondU {
                                key: cond.key as usize,
                                preds: cond
                                    .preds
                                    .iter()
                                    .map(|&(col, dag)| GenPredU {
                                        col,
                                        dag: ctx.dag(arena, dag),
                                    })
                                    .collect(),
                            })
                            .collect(),
                    ),
                },
            };
            progs.push(prog);
        }
        nodes.push(SemNode { vals, progs });
    }
    let top = repr.top.map(|dag| ctx.dag(arena, dag));
    SemDStruct { nodes, top }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_syntactic::AtomSet;
    use sst_tables::Symbol;
    use std::collections::BTreeMap;

    fn sample_struct(output: &str) -> SemDStruct {
        let key_dag = Arc::new(Dag {
            num_nodes: 2,
            source: 0,
            target: 1,
            edges: {
                let mut e = BTreeMap::new();
                e.insert(
                    (0u32, 1u32),
                    vec![
                        AtomSet::ConstStr("k1".to_string()),
                        AtomSet::Whole(NodeId(0)),
                    ],
                );
                e
            },
        });
        let conds = Arc::new(vec![GenCondU {
            key: 0,
            preds: vec![
                GenPredU {
                    col: 0,
                    dag: Arc::clone(&key_dag),
                },
                GenPredU {
                    col: 1,
                    dag: Arc::clone(&key_dag),
                },
            ],
        }]);
        let top = Arc::new(Dag {
            num_nodes: 2,
            source: 0,
            target: 1,
            edges: {
                let mut e = BTreeMap::new();
                e.insert((0u32, 1u32), vec![AtomSet::ConstStr(output.to_string())]);
                e
            },
        });
        SemDStruct {
            nodes: vec![
                SemNode {
                    vals: vec![Symbol::intern("in")],
                    progs: vec![GenLookupU::Var(0)],
                },
                SemNode {
                    vals: vec![Symbol::intern(output)],
                    progs: vec![GenLookupU::Select {
                        col: 1,
                        table: 0,
                        conds,
                    }],
                },
            ],
            top: Some(top),
        }
    }

    fn struct_eq(a: &SemDStruct, b: &SemDStruct) -> bool {
        a.nodes.len() == b.nodes.len()
            && a.nodes
                .iter()
                .zip(&b.nodes)
                .all(|(x, y)| x.vals == y.vals && x.progs == y.progs)
            && match (&a.top, &b.top) {
                (None, None) => true,
                (Some(x), Some(y)) => **x == **y,
                _ => false,
            }
    }

    #[test]
    fn intern_is_content_addressed() {
        let mut arena = Arena::new();
        let a = intern_struct(&mut arena, &sample_struct("née"));
        let b = intern_struct(&mut arena, &sample_struct("née"));
        let c = intern_struct(&mut arena, &sample_struct("other"));
        assert_eq!(a, b, "equal values, equal ids — across separate builds");
        assert_ne!(a, c);
    }

    #[test]
    fn extract_inverts_intern_and_reshares_dags() {
        let mut arena = Arena::new();
        let d = sample_struct("out");
        let id = intern_struct(&mut arena, &d);
        let mut ctx = ExtractCtx::new();
        let back = extract_struct(&arena, id, &mut ctx);
        assert!(struct_eq(&d, &back));
        // The key DAG appears twice (two predicate columns); extraction
        // re-shares one allocation.
        let GenLookupU::Select { conds, .. } = &back.nodes[1].progs[0] else {
            panic!("expected select");
        };
        assert!(Arc::ptr_eq(&conds[0].preds[0].dag, &conds[0].preds[1].dag));
        // A second extraction through the same ctx shares with the first.
        let again = extract_struct(&arena, id, &mut ctx);
        assert!(Arc::ptr_eq(
            back.top.as_ref().unwrap(),
            again.top.as_ref().unwrap()
        ));
    }

    #[test]
    fn empty_struct_round_trips() {
        let mut arena = Arena::new();
        let d = SemDStruct::default();
        let id = intern_struct(&mut arena, &d);
        let back = extract_struct(&arena, id, &mut ExtractCtx::new());
        assert!(struct_eq(&d, &back));
        assert_eq!(intern_struct(&mut arena, &SemDStruct::default()), id);
    }
}
