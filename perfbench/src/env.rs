//! Seeded randomness, the hardware stamp, process memory, and the
//! result the command prints.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// splitmix64: a seeded stream with no dependency; the same seed gives
/// the same inputs on every run and platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose of one run.
    pub fn derive(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// Deals `0..n` in successive seeded permutations: every index comes up
/// once per round, so a run's mix does not hinge on a lucky draw.
#[derive(Debug, Clone)]
pub struct Deck {
    rng: Rng,
    n: usize,
    hand: Vec<usize>,
}

impl Deck {
    pub fn new(rng: Rng, n: usize) -> Deck {
        Deck {
            rng,
            n,
            hand: Vec::new(),
        }
    }

    pub fn deal(&mut self) -> usize {
        if self.hand.is_empty() {
            self.hand = self.rng.permutation(self.n);
        }
        self.hand.pop().expect("a deck of at least one card")
    }
}

/// `nproc`, the CPU model, and how much parallel throughput two threads
/// really get: two identical spin loops run together versus one alone
/// (2.0 means two full cores, 1.0 means one core shared).
#[derive(Debug, Clone)]
pub struct Hardware {
    pub nproc: usize,
    pub cpu_model: String,
    pub effective_parallelism: f64,
    /// One thread's spin-loop speed, nanoseconds per million iterations.
    pub spin_ns_per_m: f64,
}

impl Hardware {
    pub fn probe() -> Hardware {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        const SPINS: u64 = 20_000_000;
        let one = (0..3)
            .map(|_| time_spin(SPINS))
            .min()
            .expect("three probes");
        let two = (0..3)
            .map(|_| {
                let start = Instant::now();
                std::thread::scope(|s| {
                    let a = s.spawn(|| time_spin(SPINS));
                    time_spin(SPINS);
                    a.join().expect("spin thread");
                });
                start.elapsed()
            })
            .min()
            .expect("three probes");
        Hardware {
            nproc,
            cpu_model,
            effective_parallelism: 2.0 * one.as_secs_f64() / two.as_secs_f64(),
            spin_ns_per_m: one.as_nanos() as f64 / (SPINS as f64 / 1e6),
        }
    }
}

/// Pins the calling thread, and every thread it spawns afterwards, to
/// one CPU it may run on; returns that CPU.
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: the call writes at most `size_of_val(&mask)` bytes into
    // `mask`, which outlives it; pid 0 names the calling thread.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if got != 0 {
        return None;
    }
    // The last allowed CPU: the first usually takes more of the interrupts.
    let cpu = (0..mask.len() * 64).rfind(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the call reads `size_of_val(&one)` bytes of `one`, which
    // outlives it; pid 0 names the calling thread.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (set == 0).then_some(cpu)
}

fn time_spin(n: u64) -> Duration {
    let start = Instant::now();
    let mut x = std::hint::black_box(1u64);
    for i in 0..n {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    std::hint::black_box(x);
    start.elapsed()
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in bytes.
pub fn proc_status_bytes(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// Host-wide CPU time stolen by the hypervisor and total CPU time, in
/// clock ticks, from the first line of `/proc/stat`.
pub fn steal_and_total_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// The process's peak resident memory so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_bytes("VmHWM:") as f64 / (1024.0 * 1024.0)
}

/// What one invocation measured: metrics by name and unit, operation
/// counts, and human-readable lines printed ahead of the result.
#[derive(Debug, Default)]
pub struct Report {
    pub lines: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Counts one attempted operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The final result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// A float as a JSON number with every digit Rust's shortest round-trip
/// form keeps (`1.0` stays `1.0`, never `1`).
pub fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('e') {
        format!("{v}")
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::derive(7, 0).next()).collect();
        assert!(a.iter().all(|&x| x == a[0]));
        let mut r1 = Rng::derive(7, 1);
        let mut r2 = Rng::derive(7, 2);
        assert_ne!(r1.next(), r2.next());
        let p = Rng::derive(3, 0).permutation(50);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn deck_deals_every_index_once_per_round() {
        let mut deck = Deck::new(Rng::derive(9, 0), 5);
        for _ in 0..3 {
            let mut round: Vec<usize> = (0..5).map(|_| deck.deal()).collect();
            round.sort_unstable();
            assert_eq!(round, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.metric("p50_ms", 1.25, "ms");
        r.metric("count", 3.0, "count");
        r.op(true);
        r.op(false);
        assert_eq!(
            r.result_json(),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
        assert_eq!(json_number(1e-7), "0.0000001");
    }
}
