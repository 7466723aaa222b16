//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span is `(name, start, end, parent, request id)` plus how many units of
//! work it covered, kept in memory and written out when the benchmark ends.
//! Each client thread owns a [`ThreadTrace`] (no locks on the timed path);
//! the buffers are merged after the window. Spans inside the program itself
//! are a later change (ROADMAP item 2); these are taken from outside.

use crate::json::Value;
use crate::stats;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within a run: `(thread << 40) | (index + 1)`.
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Layer-qualified name (`"wire.recv"`, `"nn.infer"`, ...).
    pub name: &'static str,
    /// Request, burst, call, step or replay-chunk number the span belongs to;
    /// spans of one request share it.
    pub request: u64,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Units of work inside (rows, frames, requests): per-unit cost is
    /// `duration / ops`.
    pub ops: u32,
}

impl Span {
    /// `end - start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer with its stack of open spans.
#[derive(Debug)]
pub struct ThreadTrace {
    thread: u64,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl ThreadTrace {
    /// A buffer for `thread`; `epoch` is shared by every thread of the run.
    pub fn new(thread: u64, epoch: Instant) -> Self {
        Self { thread, epoch, spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; close it with
    /// [`ThreadTrace::exit`].
    pub fn enter(&mut self, name: &'static str, request: u64, ops: u32) {
        let index = self.spans.len();
        let parent = self.open.last().map_or(0, |&p| self.spans[p].id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id: (self.thread << 40) | (index as u64 + 1),
            parent,
            name,
            request,
            start_ns,
            end_ns: start_ns,
            ops,
        });
        self.open.push(index);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("exit without a matching enter");
        self.spans[index].end_ns = end_ns;
    }

    /// Record `f` as one leaf span.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        request: u64,
        ops: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        self.enter(name, request, ops);
        let result = f();
        self.exit();
        result
    }

    /// The recorded spans (every `enter` must have been closed).
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "trace ended with an open span");
        self.spans
    }
}

/// Run `f`, as a leaf span when tracing is on.
#[inline]
pub fn leaf<R>(
    trace: &mut Option<ThreadTrace>,
    name: &'static str,
    request: u64,
    ops: u32,
    f: impl FnOnce() -> R,
) -> R {
    match trace {
        Some(t) => t.leaf(name, request, ops, f),
        None => f(),
    }
}

/// Self time of every span: its duration minus the part its direct children
/// cover. Children lie inside their parent by construction (a thread's spans
/// nest), so the subtraction never goes negative for a well-formed trace;
/// it saturates at zero otherwise.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let index_of: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(&parent) = index_of.get(&span.parent) {
            let lo = span.start_ns.max(spans[parent].start_ns);
            let hi = span.end_ns.min(spans[parent].end_ns);
            covered[parent] += hi.saturating_sub(lo);
        }
    }
    spans.iter().zip(covered).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
}

/// Median over the spans called `name` of `duration / ops`, in nanoseconds;
/// `None` when no such span was recorded.
pub fn median_ns_per_op(spans: &[Span], name: &str) -> Option<f64> {
    let per_op: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name && s.ops > 0)
        .map(|s| s.duration_ns() as f64 / f64::from(s.ops))
        .collect();
    (!per_op.is_empty()).then(|| stats::median(&per_op))
}

/// The trace as JSON: one object per span, with its self time.
pub fn to_json(spans: &[Span]) -> Value {
    let self_ns = self_times_ns(spans);
    Value::Arr(
        spans
            .iter()
            .zip(self_ns)
            .map(|(s, self_ns)| {
                Value::obj([
                    ("id", Value::Num(s.id as f64)),
                    ("parent", Value::Num(s.parent as f64)),
                    ("name", Value::Str(s.name.to_string())),
                    ("request", Value::Num(s.request as f64)),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    ("ops", Value::Num(f64::from(s.ops))),
                    ("self_ns", Value::Num(self_ns as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64, ops: u32) -> Span {
        Span { id, parent, name, request: 0, start_ns: start, end_ns: end, ops }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(1, 0, "request", 0, 100, 1),
            span(2, 1, "flush", 10, 30, 1),
            span(3, 1, "recv", 40, 90, 1),
            span(4, 3, "decode", 50, 60, 1),
            // A child that overruns its parent only counts for the overlap.
            span(5, 4, "overrun", 55, 80, 1),
            // An orphan (parent not in the trace) is its own root.
            span(6, 99, "orphan", 0, 7, 1),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 5, 25, 7]);
    }

    #[test]
    fn nesting_assigns_parents_and_requests() {
        let mut t = ThreadTrace::new(3, Instant::now());
        t.enter("burst", 42, 2);
        t.leaf("submit", 42, 1, || ());
        let got = t.leaf("recv", 42, 1, || 7);
        t.exit();
        t.leaf("next", 43, 1, || ());
        assert_eq!(got, 7);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[2].parent, spans[0].id);
        assert_eq!(spans[3].parent, 0, "a span opened after exit is a root again");
        assert!(spans.iter().all(|s| s.id >> 40 == 3 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns, "parent closes after its children");
        let total: u64 = self_times_ns(&spans)[..3].iter().sum();
        assert_eq!(total, spans[0].duration_ns(), "self times of a tree add up to its root");
    }

    #[test]
    fn per_op_median_divides_by_the_work_inside() {
        let spans = vec![
            span(1, 0, "fill", 0, 640, 64),
            span(2, 0, "fill", 0, 1_280, 64),
            span(3, 0, "fill", 0, 1_920, 64),
            span(4, 0, "other", 0, 5, 1),
        ];
        assert_eq!(median_ns_per_op(&spans, "fill"), Some(20.0));
        assert_eq!(median_ns_per_op(&spans, "missing"), None);
    }

    #[test]
    fn untraced_leaf_just_runs_the_call() {
        let mut none: Option<ThreadTrace> = None;
        assert_eq!(leaf(&mut none, "x", 0, 1, || 5), 5);
        let mut some = Some(ThreadTrace::new(0, Instant::now()));
        assert_eq!(leaf(&mut some, "x", 9, 1, || 6), 6);
        let spans = some.expect("set above").into_spans();
        assert_eq!((spans.len(), spans[0].request), (1, 9));
    }
}
