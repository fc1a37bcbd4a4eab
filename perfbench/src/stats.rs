//! The benchmark's own statistics: percentiles under the sample-count
//! rule, and open-loop due-time latency accounting.

use std::time::Duration;

/// Samples required beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The tail percentile every latency metric aims for.
pub const WANTED_TAIL: f64 = 0.99;

/// Nearest-rank `q`-quantile of ascending `sorted` samples: the smallest
/// sample with at least `q · n` samples at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    // The epsilon keeps `0.98 · 500` from rounding up past rank 490.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest quantile, at most `wanted`, that leaves at least
/// [`TAIL_SAMPLES`] samples strictly above its nearest rank in `n`
/// samples; never below the median. With `n ≥ 1000` this is `wanted`
/// itself for `wanted = 0.99`.
pub fn supported_tail(n: usize, wanted: f64) -> f64 {
    if n <= TAIL_SAMPLES {
        return 0.5;
    }
    let reachable = (n - TAIL_SAMPLES) as f64 / n as f64;
    wanted.min(reachable).max(0.5)
}

/// A quantile as a percentile label: `p99`, `p98.7`.
pub fn percentile_label(q: f64) -> String {
    let pct = (q * 1000.0).round() / 10.0;
    if pct.fract() == 0.0 {
        format!("p{pct:.0}")
    } else {
        format!("p{pct:.1}")
    }
}

/// Median and tail of a latency sample set, with the tail quantile the
/// sample count supports.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail_q: f64,
    pub tail: f64,
}

impl Summary {
    /// Summarizes `samples` (any order; at least one).
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_q = supported_tail(sorted.len(), WANTED_TAIL);
        Summary {
            n: sorted.len(),
            p50: quantile(&sorted, 0.5),
            tail_q,
            tail: quantile(&sorted, tail_q),
        }
    }

    /// Medians over consecutive windows of `window` samples (a short
    /// last window joins the one before): the median of the windows'
    /// p50s and of their tails, at the tail quantile every window
    /// supports. A stall confined to one window moves neither.
    pub fn windowed(samples: &[f64], window: usize) -> Summary {
        let count = (samples.len() / window.max(1)).max(1);
        let size = samples.len() / count;
        let windows: Vec<Vec<f64>> = (0..count)
            .map(|w| {
                let end = if w + 1 == count {
                    samples.len()
                } else {
                    (w + 1) * size
                };
                let mut sorted = samples[w * size..end].to_vec();
                sorted.sort_by(f64::total_cmp);
                sorted
            })
            .collect();
        let tail_q = windows
            .iter()
            .map(|w| supported_tail(w.len(), WANTED_TAIL))
            .fold(WANTED_TAIL, f64::min);
        let at = |q: f64| median(&windows.iter().map(|w| quantile(w, q)).collect::<Vec<_>>());
        Summary {
            n: samples.len(),
            p50: at(0.5),
            tail_q,
            tail: at(tail_q),
        }
    }

    /// `p99` when the sample count supports it, else the percentile the
    /// tail value actually reaches.
    pub fn tail_label(&self) -> String {
        percentile_label(self.tail_q)
    }
}

/// Median of a few repeated measurements (any order; at least one).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// An open-loop arrival schedule: request `i` is due `i / rate` seconds
/// after the phase starts, whatever happened to earlier requests.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub rate: f64,
}

impl Schedule {
    /// Offset of request `i`'s due time from the phase start.
    pub fn due(&self, i: u64) -> Duration {
        Duration::from_nanos((i as f64 * 1e9 / self.rate).round() as u64)
    }

    /// Requests due within the first `span` of the phase.
    pub fn count_within(&self, span: Duration) -> u64 {
        (span.as_secs_f64() * self.rate).ceil() as u64
    }
}

/// One request's timing in an open loop, as offsets from the phase start.
/// Latency runs from the *due* time, not the send time, so a stall that
/// delays later sends counts against every request it delayed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DueTiming {
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
}

impl DueTiming {
    /// What the user waited: due time to response.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent the request.
    pub fn late(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }

    /// Time the request spent on the wire and in the server.
    pub fn service(&self) -> Duration {
        self.done.saturating_sub(self.sent)
    }
}

/// Milliseconds of a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(supported_tail(1000, 0.99), 0.99);
        assert_eq!(supported_tail(5000, 0.99), 0.99);
        // 999 samples leave only nine above the p99 rank.
        assert!(supported_tail(999, 0.99) < 0.99);
        assert_eq!(supported_tail(500, 0.99), 0.98);
        assert_eq!(supported_tail(10, 0.99), 0.5);
        assert_eq!(supported_tail(12, 0.99), 0.5);
    }

    #[test]
    fn supported_tail_leaves_ten_samples_beyond() {
        for n in [11usize, 20, 57, 200, 999, 1000, 1001, 4321] {
            let q = supported_tail(n, 0.99);
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let v = quantile(&xs, q);
            let beyond = xs.iter().filter(|&&x| x > v).count();
            assert!(
                beyond >= TAIL_SAMPLES || q == 0.5,
                "n={n} q={q} beyond={beyond}"
            );
        }
    }

    #[test]
    fn summary_names_the_reached_percentile() {
        let s = Summary::of(&(0..400).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.n, 400);
        assert_eq!(s.tail_label(), "p97.5");
        assert_eq!(s.tail, 389.0);
        let s = Summary::of(&(0..2000).rev().map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail_label(), "p99");
        assert_eq!(s.p50, 999.0);
    }

    #[test]
    fn windowed_summary_shrugs_off_one_stalled_window() {
        // Five windows of 1000 samples; the third stalls at 100x.
        let samples: Vec<f64> = (0..5000)
            .map(|i| {
                let base = 1.0 + (i % 1000) as f64 / 1000.0;
                if (2000..3000).contains(&i) {
                    base * 100.0
                } else {
                    base
                }
            })
            .collect();
        let w = Summary::windowed(&samples, 1000);
        assert_eq!(w.n, 5000);
        assert_eq!(w.tail_label(), "p99");
        assert!((w.p50 - 1.499).abs() < 1e-9, "p50 {}", w.p50);
        assert!((w.tail - 1.989).abs() < 1e-9, "tail {}", w.tail);
        // Pooled, the stalled window owns the whole tail.
        assert!(Summary::of(&samples).tail > 100.0);
        // A short remainder joins the last window; too few samples for
        // p99 anywhere names the percentile reached.
        let w = Summary::windowed(&samples[..1500], 1000);
        assert_eq!(w.tail_label(), "p99");
        let w = Summary::windowed(&samples[..400], 1000);
        assert_eq!(w.tail_label(), "p97.5");
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn due_time_latency_counts_the_wait_a_stall_imposes() {
        // One worker, 100 requests/s: request 0 stalls for 50 ms, the
        // rest take 1 ms. Simulate the worker on a virtual clock.
        let schedule = Schedule { rate: 100.0 };
        let service = |i: u64| Duration::from_millis(if i == 0 { 50 } else { 1 });
        let mut free_at = Duration::ZERO;
        let timings: Vec<DueTiming> = (0..10)
            .map(|i| {
                let due = schedule.due(i);
                let sent = due.max(free_at);
                let done = sent + service(i);
                free_at = done;
                DueTiming { due, sent, done }
            })
            .collect();
        // Request 1 was due at 10 ms, sent at 50 ms, done at 51 ms: it
        // waited 41 ms, all of which counts.
        assert_eq!(timings[1].late(), Duration::from_millis(40));
        assert_eq!(timings[1].latency(), Duration::from_millis(41));
        assert_eq!(timings[1].service(), Duration::from_millis(1));
        // Timed from the send, the stall would vanish from request 1.
        assert!(timings[1].service() < timings[1].latency());
        // The backlog drains by request 6 (due 60 ms, worker free at 55 ms).
        assert_eq!(timings[6].late(), Duration::ZERO);
        assert_eq!(timings[6].latency(), Duration::from_millis(1));
    }

    #[test]
    fn schedule_is_fixed_rate() {
        let s = Schedule { rate: 200.0 };
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(200), Duration::from_secs(1));
        assert_eq!(s.count_within(Duration::from_secs(2)), 400);
    }

    #[test]
    fn percentile_labels() {
        assert_eq!(percentile_label(0.99), "p99");
        assert_eq!(percentile_label(0.5), "p50");
        assert_eq!(percentile_label(0.987), "p98.7");
    }
}
