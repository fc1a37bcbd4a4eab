//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload learn_cold|serve_mix|apply_bulk --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it sets the workload up several times,
//! measures it for `--seconds`, checks every output, and prints the
//! end-to-end metrics. With `--trace 1` it records spans around the
//! benchmark's calls into each layer, prints the per-layer metrics and
//! the tracing overhead, and writes the spans to
//! `.bench_out/trace-<workload>-<seed>.json`. The last line of standard
//! output is always the JSON result; the exit code is non-zero when any
//! output was wrong. See `perfbench/README.md`.

mod apply_bulk;
mod env;
mod layers;
mod learn_cold;
mod serve_mix;
mod stats;
mod suite;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

use env::{Hardware, Report};
use stats::Summary;

/// What a workload's timed part measured: the latency of one operation,
/// and the throughput the workload is about.
pub struct Measured {
    pub summary: Summary,
    pub throughput: f64,
    /// `VmHWM` once the measured work is done, in MiB.
    pub rss_peak_mb: f64,
}

const WORKLOADS: [&str; 3] = ["learn_cold", "serve_mix", "apply_bulk"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed takes a non-negative integer".to_string())?;
    let seconds = value("--seconds")?
        .parse()
        .ok()
        .filter(|&s| s >= 1)
        .ok_or_else(|| "--seconds takes a positive integer".to_string())?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".to_string()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Sets the workload up and measures it for `budget`, untraced.
fn end_to_end(args: &Args, budget: Duration, report: &mut Report) {
    let (measured, setups) = match args.workload.as_str() {
        "learn_cold" => {
            let (fx, setups) = suite::repeated_setup(learn_cold::setup);
            (learn_cold::measure(&fx, args.seed, budget, report), setups)
        }
        "apply_bulk" => {
            let (fx, setups) = suite::repeated_setup(|| apply_bulk::setup(args.seed));
            (apply_bulk::measure(&fx, args.seed, budget, report), setups)
        }
        _ => {
            let (fx, setups) = suite::repeated_setup(serve_mix::setup);
            (
                serve_mix::measure(&fx, args.seed, budget, true, report).0,
                setups,
            )
        }
    };
    let s = &measured.summary;
    report.line(format!(
        "{} setup_s runs {:?}",
        args.workload,
        setups.iter().map(|t| format!("{t:.3}")).collect::<Vec<_>>()
    ));
    report.metric("setup_s", stats::median(&setups), "s");
    report.metric("p50_ms", s.p50, "ms");
    report.metric("p99_ms", s.tail, "ms");
    report.metric("throughput_per_s", measured.throughput, "1/s");
    report.metric("rss_peak_mb", measured.rss_peak_mb, "MB");
    report.line(format!(
        "{} n {} p50 {:.4} ms {} {:.4} ms",
        args.workload,
        s.n,
        s.p50,
        s.tail_label(),
        s.tail
    ));
}

/// Measures the workload in four slices of an eighth of the budget each,
/// alternating untraced and traced, so drift on the host hits both sides
/// alike; then runs the layer sweep with tracing on.
fn traced(args: &Args, budget: Duration, report: &mut Report) {
    let slice = (budget / 8).max(Duration::from_secs(1));
    let mut side = Report::default();
    // Each slice gets its own seed stream, so serve_mix's novel learns
    // are new to the memo in every slice.
    let seed = |k: u64| args.seed ^ (k << 40);
    let mut p50s: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut slices = |measure: &mut dyn FnMut(u64, &mut Report) -> Measured| {
        for k in 0..4u64 {
            let on = k % 2 == 1;
            if on {
                trace::enable();
            } else {
                trace::disable();
            }
            p50s[on as usize].push(measure(seed(k), &mut side).summary.p50);
        }
    };
    match args.workload.as_str() {
        "learn_cold" => {
            let fx = learn_cold::setup();
            slices(&mut |s, r| learn_cold::measure(&fx, s, slice, r));
        }
        "apply_bulk" => {
            let fx = apply_bulk::setup(args.seed);
            slices(&mut |s, r| apply_bulk::measure(&fx, s, slice, r));
        }
        _ => {
            let fx = serve_mix::setup();
            slices(&mut |s, r| serve_mix::measure(&fx, s, slice, false, r).0);
        }
    }
    trace::enable();
    report.attempted += side.attempted;
    report.failed += side.failed;
    report
        .lines
        .extend(side.lines.into_iter().filter(|l| l.contains("WRONG")));
    let (untraced, traced) = (stats::median(&p50s[0]), stats::median(&p50s[1]));
    let overhead = 100.0 * (traced - untraced) / untraced;
    report.line(format!(
        "{} trace overhead: p50 untraced {:?} ms, traced {:?} ms ({overhead:+.2}%)",
        args.workload, p50s[0], p50s[1]
    ));

    layers::sweep(args.seed, report);
    report.metric("trace.overhead_pct", overhead, "%");
    trace::disable();

    let spans = trace::take();
    for (name, t) in trace::self_times(&spans) {
        report.line(format!(
            "self_time {name:<32} calls {:>7} total_ms {:>10.3} self_ms {:>10.3}",
            t.calls,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    let path = format!(".bench_out/trace-{}-{}.json", args.workload, args.seed);
    let written = std::fs::create_dir_all(".bench_out")
        .and_then(|()| std::fs::write(&path, trace::write_json(&spans)));
    match written {
        Ok(()) => report.line(format!("spans written to {path} ({} spans)", spans.len())),
        Err(e) => report.line(format!("spans not written to {path}: {e}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let hardware = Hardware::probe();
    // The program reads the machine width once; read it before pinning so
    // the shipped defaults keep it.
    let width = sst_core::default_threads();
    let pinned = env::pin_to_one_cpu();
    let mut report = Report::default();
    report.line(format!(
        "hardware nproc {} cpu \"{}\" effective_parallelism {:.3} spin_ns_per_m {:.0}",
        hardware.nproc, hardware.cpu_model, hardware.effective_parallelism, hardware.spin_ns_per_m
    ));
    report.line(format!(
        "run workload {} seed {} seconds {} trace {} default_threads {width} pinned_cpu {pinned:?}",
        args.workload, args.seed, args.seconds, args.trace as u8
    ));
    let budget = Duration::from_secs(args.seconds);
    let ticks_before = env::steal_and_total_ticks();
    if args.trace {
        traced(&args, budget, &mut report);
    } else {
        end_to_end(&args, budget, &mut report);
    }
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, env::steal_and_total_ticks()) {
        report.line(format!(
            "host cpu stolen during the run: {:.1}%",
            100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64
        ));
    }
    report.line(format!(
        "{} error_ratio {} ({} failed of {} attempted)",
        args.workload,
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    ));
    for line in &report.lines {
        println!("{line}");
    }
    for (name, value, unit) in &report.metrics {
        println!("metric {name} {} {unit}", env::json_number(*value));
    }
    println!("{}", report.result_json());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
