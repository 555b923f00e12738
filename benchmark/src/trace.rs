//! Spans recorded from the benchmark's own files, around the calls
//! into each layer. Kept in memory; written out when the run ends.
//!
//! A span's *self time* is its duration minus the part of that interval
//! its child spans cover, so the self times of one op's spans add up to
//! the op's root span exactly.

use std::time::Instant;

use crate::json::{obj, Json};

/// One recorded interval. `op` groups the spans of one benchmark
/// operation (a cell, a walked request); `parent` is the span that was
/// open when this one started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle returned by [`Tracer::enter`], given back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<u32>);

/// Single-threaded span recorder. Disabled, `enter`/`exit` cost one
/// branch each — the same pass run both ways measures the tracing
/// overhead.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Starts the next operation; spans entered from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op: self.op,
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id as usize].end_ns = end;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded spans as a JSON array of
    /// `{id, parent, op, name, start_ns, end_ns}`.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    obj([
                        ("id", Json::Num(f64::from(s.id))),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                        ),
                        ("op", Json::Num(f64::from(s.op))),
                        ("name", Json::Str(s.name.into())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span, indexed by span id: duration minus the
/// union of the child intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, op: u32, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            op,
            name,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            span(0, None, 1, "op", 0, 100),
            span(1, Some(0), 1, "a", 10, 30),
            span(2, Some(0), 1, "b", 40, 90),
            span(3, Some(2), 1, "c", 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
        // Self times of an op add up to its root span.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span(0, None, 1, "op", 100, 200),
            span(1, Some(0), 1, "a", 110, 150),
            span(2, Some(0), 1, "b", 140, 160), // overlaps a by 10
            span(3, Some(0), 1, "c", 190, 250), // overhangs the parent by 50
        ];
        // Covered: 110..160 (50) + 190..200 (10).
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.next_op();
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        t.exit(inner);
        t.exit(outer);
        t.next_op();
        let lone = t.enter("outer");
        t.exit(lone);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[1].op), (Some(0), 1));
        assert_eq!((s[2].parent, s[2].op), (None, 2));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let selfs = self_times(s);
        assert_eq!(selfs[0] + selfs[1], s[0].end_ns - s[0].start_ns);

        let mut off = Tracer::new(false);
        let o = off.enter("x");
        off.exit(o);
        assert!(off.spans().is_empty());
    }
}
