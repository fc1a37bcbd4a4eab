//! Property tests pinning [`SubstringIndex`] to the brute-force scan.
//!
//! [`Table::cells_related_to`] — the full cell scan with two `contains`
//! checks per cell — is the correctness oracle for the §5.3 substring
//! relation. The indexed path ([`Database::cells_related_to`], backed by
//! the q-gram / length-bucket postings of [`SubstringIndex`]) must return
//! exactly the same cell set on every table and probe, including the edge
//! cases the postings treat specially: empty probes and empty cells (never
//! relate), cells shorter than the gram width `q` (their own gram keys),
//! zero bytes and multi-byte UTF-8 values (packed gram keys, byte-window
//! probes), and repeated values/grams.

use proptest::prelude::*;

use sst_tables::{CellRef, Database, Table, TableId};

/// Alphabet exercising the index's special paths: ASCII letters shared
/// between cells and probes (frequent overlaps), a space, NUL (a zero
/// byte inside a packed gram key), 2-, 3- and 4-byte chars (grams that
/// straddle char boundaries), and a character that appears only in
/// probes.
const CELL: &str = "[abψ\u{0}€𝄞 ]{0,6}";
const PROBE: &str = "[abψ\u{0}€𝄞 cz]{0,9}";

/// Builds a one-table database whose data cells are the generated strings
/// (any content, including empty and duplicate cells) behind a synthetic
/// unique id column that guarantees a candidate key.
fn db_from_cells(cells: &[Vec<String>]) -> Database {
    let rows: Vec<Vec<String>> = cells
        .iter()
        .enumerate()
        .map(|(i, data)| {
            let mut row = vec![format!("row-id-{i}")];
            row.extend(data.iter().cloned());
            row
        })
        .collect();
    let table = Table::new("T", vec!["Id", "A", "B"], rows).expect("id column is a key");
    Database::from_tables(vec![table]).unwrap()
}

/// The oracle: per-table full scan.
fn scan(db: &Database, probe: &str) -> Vec<(TableId, CellRef)> {
    let mut out: Vec<(TableId, CellRef)> = db
        .iter()
        .flat_map(|(tid, t)| t.cells_related_to(probe).map(move |(cell, _)| (tid, cell)))
        .collect();
    out.sort_unstable();
    out
}

/// The production path: `SubstringIndex` postings.
fn indexed(db: &Database, probe: &str) -> Vec<(TableId, CellRef)> {
    let mut out: Vec<(TableId, CellRef)> = db.cells_related_to(probe).collect();
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The indexed answer set equals the brute-force scan on randomized
    /// tables and probes.
    #[test]
    fn index_matches_bruteforce_scan(
        rows in prop::collection::vec(prop::collection::vec(CELL, 2..3), 1..9),
        probe in PROBE,
    ) {
        let db = db_from_cells(&rows);
        prop_assert_eq!(
            indexed(&db, &probe),
            scan(&db, &probe),
            "probe {:?} over rows {:?}", probe, rows
        );
    }

    /// Probing with a value drawn from the table itself (the common
    /// frontier case: a known string that certainly relates) agrees with
    /// the oracle, as does the empty probe.
    #[test]
    fn index_matches_on_cell_probes(
        rows in prop::collection::vec(prop::collection::vec(CELL, 2..3), 1..9),
        pick in 0usize..64,
    ) {
        let db = db_from_cells(&rows);
        let row = &rows[pick % rows.len()];
        let probe = row[pick % row.len()].clone();
        prop_assert_eq!(indexed(&db, &probe), scan(&db, &probe));
        prop_assert_eq!(indexed(&db, ""), Vec::new());
    }
}

/// Deterministic spot-checks for every length class the postings split on:
/// below-q cells, exactly-q cells, long cells; below-q and long probes.
#[test]
fn length_classes_match_oracle() {
    let db = db_from_cells(&[
        vec!["a".into(), "ab".into()],
        vec!["abc".into(), "abcd".into()],
        vec!["ψψψψ".into(), "".into()],
    ]);
    for probe in ["", "a", "ab", "abc", "abcdabc", "ψ", "ψψψψψ", "zzz"] {
        assert_eq!(indexed(&db, probe), scan(&db, probe), "probe {probe:?}");
    }
}
