//! In-memory spans around the benchmark's calls into each layer.
//!
//! Off by default: [`span`] then costs one relaxed load and records
//! nothing. The traced run turns recording on, and at exit [`take`] hands
//! back every span (name, start, end, parent, request id) for
//! [`self_times`] and [`write_json`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans of this thread, innermost last: the parent of a new span.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One finished span; times are nanoseconds since the trace epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Starts recording spans.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stops recording spans.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// An open span; recorded when dropped.
pub struct Span {
    open: Option<(u32, Option<u32>, &'static str, u64, Instant)>,
}

/// Opens a span named `name` for request `request`, a child of the
/// innermost span open on this thread.
pub fn span(name: &'static str, request: u64) -> Span {
    if !ENABLED.load(Ordering::Relaxed) {
        return Span { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied();
        open.push(id);
        parent
    });
    Span {
        open: Some((id, parent, name, request, Instant::now())),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((id, parent, name, request, start)) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(at) = open.iter().rposition(|&o| o == id) {
                open.remove(at);
            }
        });
        let base = epoch();
        let record = SpanRecord {
            id,
            parent,
            name,
            request,
            start_ns: start.duration_since(base).as_nanos() as u64,
            end_ns: end.duration_since(base).as_nanos() as u64,
        };
        // A poisoned lock only means another thread panicked mid-push;
        // the vector itself is still whole.
        SPANS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(record);
    }
}

/// Every span recorded so far, in completion order; clears the store.
pub fn take() -> Vec<SpanRecord> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    )
}

/// Per span name: calls, total time and self time (nanoseconds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A span's self time is its duration minus the part of its interval its
/// children cover (children may overlap one another when they ran on
/// other threads, so the covered part is the union of their intervals).
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        let entry = out.entry(s.name).or_default();
        entry.calls += 1;
        entry.total_ns += s.duration_ns();
        entry.self_ns += s.duration_ns() - covered;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// The spans as one JSON document: `{"spans": [...], "self_times": {...}}`.
pub fn write_json(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 < spans.len() { "," } else { "" };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"request\": {}, \"start_ns\": {}, \"end_ns\": {}}}{sep}",
            s.id, s.name, s.request, s.start_ns, s.end_ns
        );
    }
    out.push_str("], \"self_times\": {\n");
    let times = self_times(spans);
    for (i, (name, t)) in times.iter().enumerate() {
        let sep = if i + 1 < times.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "\"{name}\": {{\"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}{sep}",
            t.calls, t.total_ns, t.self_ns
        );
    }
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u32, parent: Option<u32>, name: &'static str, s: u64, e: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            request: 0,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            rec(2, Some(1), "child", 10, 30),
            rec(3, Some(1), "child", 40, 50),
            rec(1, None, "root", 0, 100),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"].self_ns, 70);
        assert_eq!(t["root"].total_ns, 100);
        assert_eq!(t["child"].calls, 2);
        assert_eq!(t["child"].self_ns, 30);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            rec(1, None, "root", 0, 100),
            rec(2, Some(1), "a", 10, 60),
            rec(3, Some(1), "b", 40, 120),
        ];
        // The children cover [10, 100) of the root.
        assert_eq!(self_times(&spans)["root"].self_ns, 10);
    }

    #[test]
    fn spans_nest_on_one_thread() {
        // The only test that records, so no other test races the store.
        enable();
        {
            let _outer = span("outer", 7);
            let _inner = span("inner", 7);
        }
        disable();
        let spans = take();
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(inner.request, 7);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        let _off = span("off", 0);
        drop(_off);
        assert!(take().is_empty());
    }
}
