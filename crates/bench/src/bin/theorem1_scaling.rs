//! Theorem 1 / §4.2 scaling study (supports Fig. 4 and the CNF example):
//! consistent-program counts explode exponentially while the data
//! structure stays polynomial (linear here).

#![forbid(unsafe_code)]

use sst_benchmarks::{chain_database, wide_key_database};
use sst_counting::BigUint;
use sst_lookup::{generate_str_t, LtOptions};

fn main() {
    println!("== Chain workload (Example 3 / Fig. 4) ==");
    println!("{:>4} {:>16} {:>8}", "m", "count", "size");
    for m in (2..=18).step_by(2) {
        let (db, example) = chain_database(m);
        let refs: Vec<&str> = example.inputs.iter().map(String::as_str).collect();
        let d = generate_str_t(&db, &refs, &example.output, &LtOptions::default());
        println!(
            "{:>4} {:>16} {:>8}",
            m,
            d.count(db.len()).to_scientific(),
            d.size()
        );
    }

    println!();
    println!("== Wide-key workload (§4.2 CNF example): count = (m+1)^n ==");
    println!(
        "{:>4} {:>4} {:>16} {:>16} {:>8}",
        "n", "m", "count", "expected", "size"
    );
    for (n, m) in [(2usize, 2usize), (3, 3), (4, 4), (6, 5), (8, 8), (10, 10)] {
        let (db, example) = wide_key_database(n, m);
        let refs: Vec<&str> = example.inputs.iter().map(String::as_str).collect();
        let d = generate_str_t(&db, &refs, &example.output, &LtOptions::default());
        let expected = BigUint::from(m as u64 + 1).pow(n as u32);
        println!(
            "{:>4} {:>4} {:>16} {:>16} {:>8}",
            n,
            m,
            d.count(db.len()).to_scientific(),
            expected.to_scientific(),
            d.size()
        );
    }
}
