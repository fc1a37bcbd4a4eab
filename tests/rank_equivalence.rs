//! Ranking pin: the text *and cost* of every ranked program.
//!
//! The other differential harnesses (`intern_equivalence`,
//! `dag_memo_equivalence`) compare what ranked programs *output*, so a
//! tie-break flip to a different but equivalent program passes them. This
//! harness folds the display string and `cost()` of `top()` and of every
//! `top_k(10)` entry into one FNV-1a digest, over each task's single-row
//! example sets plus the ordered pairs `(row 0, row j)` for the first few
//! `j`. Any change to which program wins a tie, or to what a program costs,
//! moves the digest.
//!
//! Run with `cargo test -q --test rank_equivalence`.

use std::sync::Arc;

use semantic_strings::benchmarks::all_tasks;
use semantic_strings::core::Example;
use semantic_strings::prelude::*;

/// Top-k width of the pinned rankings.
const TOP_K: usize = 10;
/// Pairs `(row 0, row j)` for `j` in `1..=PAIRS_PER_TASK`.
const PAIRS_PER_TASK: usize = 4;

/// Lines folded into the digest.
const EXPECTED_LINES: usize = 1660;
/// FNV-1a 64 digest of those lines.
const EXPECTED_DIGEST: u64 = 0x47d2_7f6b_5b8c_8690;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Digest {
    hash: u64,
    lines: usize,
}

impl Digest {
    fn line(&mut self, line: &str) {
        for &b in line.as_bytes().iter().chain(b"\n") {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
        self.lines += 1;
    }
}

/// The example sets ranked for one task: every single row, then `(row 0,
/// row j)`.
fn example_sets(rows: &[Example]) -> Vec<(String, Vec<Example>)> {
    let mut sets: Vec<(String, Vec<Example>)> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| (format!("[{i}]"), vec![r.clone()]))
        .collect();
    for j in 1..rows.len().min(PAIRS_PER_TASK + 1) {
        sets.push((format!("[0,{j}]"), vec![rows[0].clone(), rows[j].clone()]));
    }
    sets
}

#[test]
fn ranked_text_and_cost_are_pinned() {
    let mut digest = Digest {
        hash: FNV_OFFSET,
        lines: 0,
    };
    for task in all_tasks() {
        let synth = Synthesizer::new(Arc::new(task.db.clone()));
        for (label, examples) in example_sets(&task.rows) {
            let head = format!("{} {label}", task.id);
            let learned = match synth.learn(&examples) {
                Ok(learned) => learned,
                Err(e) => {
                    digest.line(&format!("{head} err {e}"));
                    continue;
                }
            };
            match learned.top() {
                Some(p) => digest.line(&format!("{head} top {} {p}", p.cost())),
                None => digest.line(&format!("{head} top none")),
            }
            for (rank, p) in learned.top_k(TOP_K).iter().enumerate() {
                digest.line(&format!("{head} k{rank} {} {p}", p.cost()));
            }
        }
    }
    assert_eq!(
        (digest.lines, format!("{:#018x}", digest.hash)),
        (EXPECTED_LINES, format!("{EXPECTED_DIGEST:#018x}")),
        "ranked programs' text or cost drifted"
    );
}
