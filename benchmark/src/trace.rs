//! In-memory spans recorded by the benchmark around its calls into
//! each layer (spans inside the program are a later change). A traced
//! run keeps them in a `Vec` and writes a summary when it ends.

use crate::json::{obj, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span inside its tracer; `NO_PARENT` marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: SpanId,
    /// Shared by all spans of one request.
    pub request: u64,
}

/// One thread's span buffer. A disabled tracer records nothing and
/// never reads the clock, so the untraced run pays one branch.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// All tracers of a run share `origin`, so their spans share a clock.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer { origin, enabled, spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span (or bare, when disabled).
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce(&mut Tracer, SpanId) -> R,
    ) -> R {
        if !self.enabled {
            return f(self, NO_PARENT);
        }
        let id = self.spans.len() as SpanId;
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        let out = f(self, id);
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates per-thread buffers, re-basing parent indices.
pub fn merge(buffers: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::with_capacity(buffers.iter().map(Vec::len).sum());
    for buf in buffers {
        let base = all.len() as SpanId;
        all.extend(buf.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
    all
}

/// Self time of every span: its duration minus the part of that
/// interval its direct children cover (children clipped to the parent;
/// overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per-name totals of a span set.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut by_name: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = by_name.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    by_name
}

/// How many raw spans a trace file carries besides the totals: enough
/// to read whole requests, small enough to open in an editor.
const RAW_SPANS_WRITTEN: usize = 512;

/// The trace file body: per-name totals plus the first raw spans.
pub fn to_json(spans: &[Span]) -> Value {
    let by_name = totals(spans)
        .into_iter()
        .map(|(name, t)| {
            obj([
                ("name", name.into()),
                ("count", t.count.into()),
                ("total_ns", t.total_ns.into()),
                ("self_ns", t.self_ns.into()),
            ])
        })
        .collect();
    let raw = spans
        .iter()
        .take(RAW_SPANS_WRITTEN)
        .map(|s| {
            obj([
                ("name", s.name.into()),
                ("start_ns", s.start_ns.into()),
                ("end_ns", s.end_ns.into()),
                (
                    "parent",
                    if s.parent == NO_PARENT { Value::Null } else { (s.parent as u64).into() },
                ),
                ("request", s.request.into()),
            ])
        })
        .collect();
    obj([
        ("spans_recorded", spans.len().into()),
        ("totals", Value::Arr(by_name)),
        ("first_spans", Value::Arr(raw)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span { name, start_ns, end_ns, parent, request: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("engine.cold", 0, 100, NO_PARENT),
            span("core.extract", 10, 30, 0),
            span("formats.convert", 30, 80, 0),
            span("formats.spmv", 85, 95, 0),
            span("leaf.of.child", 40, 50, 2),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 40, 10, 10]);
        let t = totals(&spans);
        assert_eq!(t["engine.cold"], Totals { count: 1, total_ns: 100, self_ns: 20 });
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("parent", 100, 200, NO_PARENT),
            span("a", 90, 150, 0),  // starts before the parent: clipped
            span("b", 140, 180, 0), // overlaps a by 10
            span("c", 250, 260, 0), // wholly outside: ignored
        ];
        assert_eq!(self_times(&spans)[0], 100 - 80);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let out = t.span("x", NO_PARENT, 1, |t, id| {
            assert_eq!(id, NO_PARENT);
            t.span("y", id, 1, |_, _| 7)
        });
        assert_eq!(out, 7);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent_and_merge_rebases() {
        let origin = Instant::now();
        let mut t = Tracer::new(true, origin);
        t.span("outer", NO_PARENT, 9, |t, outer| t.span("inner", outer, 9, |_, _| ()));
        let a = t.into_spans();
        assert_eq!((a[0].parent, a[1].parent, a[1].request), (NO_PARENT, 0, 9));
        assert!(a[0].start_ns <= a[1].start_ns && a[1].end_ns <= a[0].end_ns);
        let merged = merge(vec![a.clone(), a]);
        assert_eq!(merged[3].parent, 2);
        assert_eq!(merged[2].parent, NO_PARENT);
    }
}
