//! Benchmark task model.
//!
//! Each task reconstructs one help-forum problem from the paper's 50-task
//! corpus (§7): a small database of helper tables plus the full spreadsheet
//! (input rows with ground-truth outputs). The synthesizer sees rows as
//! examples only when the interaction loop asks for them; the rest are
//! held out for checking generalization.

use sst_core::Example;
use sst_tables::Database;

/// Which language fragment the task needs (the paper's 12/38 split).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Expressible in the pure lookup language `Lt` (§4).
    Lookup,
    /// Requires the full semantic language `Lu` (§5) — syntactic
    /// manipulation before/after lookups, or concatenation.
    Semantic,
}

/// One reconstructed help-forum benchmark.
#[derive(Debug, Clone)]
pub struct BenchmarkTask {
    /// Stable id (1-based, 1..=50).
    pub id: usize,
    /// Short snake-case name.
    pub name: &'static str,
    /// Language fragment needed.
    pub category: Category,
    /// What the end-user asked for.
    pub description: &'static str,
    /// Helper tables (user tables and/or §6 background tables).
    pub db: Database,
    /// The full spreadsheet: every row with its ground-truth output.
    pub rows: Vec<Example>,
}

impl BenchmarkTask {
    /// The first `n` rows as training examples.
    pub fn examples(&self, n: usize) -> &[Example] {
        &self.rows[..n.min(self.rows.len())]
    }

    /// Input rows only (for the interaction model).
    pub fn input_rows(&self) -> Vec<Vec<String>> {
        self.rows.iter().map(|r| r.inputs.clone()).collect()
    }
}

/// Convenience example constructor used throughout the suite.
pub fn ex(inputs: &[&str], output: &str) -> Example {
    Example::new(inputs.to_vec(), output)
}
