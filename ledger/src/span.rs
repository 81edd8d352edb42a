//! Ledger-side spans: a timer around each call into a layer's public
//! function, kept in memory and written out when the run ends.
//!
//! The ledger measures every layer from outside, so a span here is never
//! inside the program under test. A layer's *self time* is its span minus
//! the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Serialize;

/// One timed interval. `parent` indexes into the same span list; spans of
/// one operation share `op_id`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Span {
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
}

/// Handle returned by [`Tracer::enter`]; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// An in-memory span recorder. Disabled, it reads no clock and allocates
/// nothing, so the plain pass pays one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op_id: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer::with_epoch(enabled, Instant::now())
    }

    /// A tracer sharing another's time origin (one per generator thread,
    /// merged afterwards with [`Tracer::absorb`]).
    pub fn with_epoch(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op_id: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Spans opened from now on belong to operation `op_id`.
    pub fn set_op(&mut self, op_id: u64) {
        self.op_id = op_id;
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_us = self.now_us();
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_us,
            end_us: start_us,
            parent: self.stack.last().copied(),
            op_id: self.op_id,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close a span opened by [`Tracer::enter`]. Spans close innermost
    /// first; closing an outer span closes what is still open inside it.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end_us = self.now_us();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_us = end_us;
            if top == id {
                break;
            }
        }
    }

    /// Time `f` under a span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Lay `durations_us` end to end as children of the span `open`,
    /// starting where it starts — how per-engine times the program
    /// reports (not wall-clock stamps) become child spans.
    pub fn synthesize_children(&mut self, open: Open, name: &str, durations_us: &[u64]) {
        let Some(parent) = open.0 else { return };
        let mut at = self.spans[parent].start_us;
        for (i, d) in durations_us.iter().enumerate() {
            self.spans.push(Span {
                name: format!("{name}[{i}]"),
                start_us: at,
                end_us: at + d,
                parent: Some(parent),
                op_id: self.spans[parent].op_id,
            });
            at += d;
        }
    }

    /// Append another tracer's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, µs: its duration minus the union of the
/// intervals its direct children cover (clipped to the span).
pub fn self_times_us(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let start = s.start_us.max(spans[p].start_us);
            let end = s.end_us.min(spans[p].end_us);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_us;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            (s.end_us - s.start_us).saturating_sub(covered)
        })
        .collect()
}

/// Per span name (synthesised `name[i]` folded into `name`): how many
/// spans, their total time and their total self time, µs.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<String, (u64, u64, u64)> {
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for (s, self_us) in spans.iter().zip(self_times_us(spans)) {
        let name = s.name.split('[').next().unwrap_or(&s.name).to_owned();
        let e = out.entry(name).or_default();
        e.0 += 1;
        e.1 += s.end_us - s.start_us;
        e.2 += self_us;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: u64, end_us: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start_us,
            end_us,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` by 10 µs: the union covers 10..60, not 30+30.
            span("b", 30, 60, Some(0)),
            // Grandchild: taken from `a`, never from `op`.
            span("a.inner", 15, 25, Some(1)),
            // Sticks out past its parent: only 90..100 counts.
            span("c", 90, 130, Some(0)),
        ];
        assert_eq!(self_times_us(&spans), vec![40, 20, 30, 10, 40]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let o = t.enter("x");
        t.synthesize_children(o, "child", &[5, 5]);
        t.exit(o);
        assert_eq!(t.span("y", || 3), 3);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_ops_and_synthesised_children() {
        let mut t = Tracer::new(true);
        t.set_op(7);
        let op = t.enter("op");
        t.span("core.parse", || ());
        let exec = t.enter("core.execute");
        t.synthesize_children(exec, "dataflow.engine", &[30, 20]);
        t.exit(exec);
        t.exit(op);
        let s = t.spans();
        assert_eq!(s.len(), 5);
        assert!(s.iter().all(|x| x.op_id == 7));
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!((s[3].parent, s[4].parent), (Some(2), Some(2)));
        assert_eq!(s[3].end_us, s[4].start_us, "laid end to end");
        assert_eq!(s[4].end_us - s[3].start_us, 50);
        let by = self_time_by_name(s);
        assert_eq!(by["dataflow.engine"].0, 2);
        assert_eq!(by["dataflow.engine"].1, 50);

        let mut other = Tracer::with_epoch(true, t.epoch());
        let o = other.enter("op");
        other.span("child", || ());
        other.exit(o);
        t.absorb(other);
        assert_eq!(t.spans()[6].parent, Some(5), "parents re-based on merge");
    }
}
