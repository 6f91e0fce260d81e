//! Spans recorded around the calls into each layer, and the self-time table
//! built from them.
//!
//! Each rank runs on one thread, so a rank's spans nest without overlap.
//! Parents are found after the run by interval containment, which lets
//! spans from the benchmark's own clock and regions read from the
//! program's `RunTrace` share one tree.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// One timed interval on one rank. Times are nanoseconds since the
/// replay's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub rank: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same list, set by [`link`].
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A rank's span buffer. Shared (single-threaded) between the timing
/// decorator and the search hooks of that rank.
#[derive(Clone)]
pub struct SpanLog {
    epoch: Instant,
    rank: usize,
    spans: Rc<RefCell<Vec<Span>>>,
}

impl SpanLog {
    pub fn new(epoch: Instant, rank: usize) -> SpanLog {
        SpanLog {
            epoch,
            rank,
            spans: Rc::default(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span called `name`.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let out = f();
        self.push(name, start_ns, self.now_ns());
        out
    }

    pub fn push(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.borrow_mut().push(Span {
            name,
            rank: self.rank,
            start_ns,
            end_ns,
            parent: None,
        });
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.spans.borrow_mut())
    }
}

/// Slack when deciding containment: spans read from the program's trace
/// are on the recorder's clock, whose epoch is known to within this.
const TOLERANCE_NS: u64 = 2_000;

/// Sort `spans` by rank and start time and set each span's parent to the
/// innermost span on the same rank that contains it.
pub fn link(spans: &mut [Span]) {
    spans.sort_by(|a, b| {
        (a.rank, a.start_ns, std::cmp::Reverse(a.end_ns)).cmp(&(
            b.rank,
            b.start_ns,
            std::cmp::Reverse(b.end_ns),
        ))
    });
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        while let Some(&top) = stack.last() {
            let t = &spans[top];
            let s = &spans[i];
            if t.rank == s.rank && s.start_ns < t.end_ns && s.end_ns <= t.end_ns + TOLERANCE_NS {
                break;
            }
            stack.pop();
        }
        spans[i].parent = stack.last().copied();
        stack.push(i);
    }
}

/// Per-name totals over linked spans of one rank.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    /// Span time minus the time its child spans cover.
    pub self_ns: u64,
}

pub fn totals(spans: &[Span], rank: usize) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans.iter().filter(|s| s.rank == rank) {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.rank == rank) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
    }
    out
}

/// The spans as JSON lines: `{"name","rank","start_ns","end_ns","parent"}`.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 80);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"rank\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}\n",
            s.name, s.rank, s.start_ns, s.end_ns, parent
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, rank: usize, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            rank,
            start_ns,
            end_ns,
            parent: None,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = vec![
            span("child", 0, 10_000, 20_000),
            span("root", 0, 0, 100_000),
            span("child", 0, 30_000, 60_000),
            span("grandchild", 0, 40_000, 50_000),
            span("root", 1, 0, 5_000),
        ];
        link(&mut spans);
        let t = totals(&spans, 0);
        assert_eq!(t["root"].calls, 1);
        assert_eq!(t["root"].self_ns, 100_000 - 10_000 - 30_000);
        assert_eq!(t["child"].total_ns, 40_000);
        assert_eq!(t["child"].self_ns, 40_000 - 10_000);
        assert_eq!(t["grandchild"].self_ns, 10_000);
        assert_eq!(totals(&spans, 1)["root"].self_ns, 5_000);
    }
}
