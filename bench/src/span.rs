//! Harness-side spans: `{name, start, end, parent, trace}` records kept
//! in memory around the calls into each layer and written out as JSONL
//! when the run ends. A layer's self time is its span's duration minus
//! the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;

/// One recorded span. `parent` indexes the owning [`SpanLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`serve.client.submit`, `core.infer.score_one.exact`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the run's origin.
    pub end_ns: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u32>,
    /// Identifier shared by every span of one request.
    pub trace: u64,
}

/// Per-name totals over a log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span durations minus what their children cover.
    pub self_ns: u64,
}

/// An append-only span log. One per thread; merged with
/// [`SpanLog::absorb`] when the run ends.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Records a closed span and returns its id (usable as a `parent`).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        trace: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        debug_assert!(end_ns >= start_ns, "span {name} ends before it starts");
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            trace,
        });
        (self.spans.len() - 1) as u32
    }

    /// Opens a span whose end is not known yet; close it with
    /// [`SpanLog::close`]. Lets a parent be recorded before its children.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        trace: u64,
        start_ns: u64,
    ) -> u32 {
        self.record(name, parent, trace, start_ns, start_ns)
    }

    /// Sets the end of a span opened with [`SpanLog::open`].
    pub fn close(&mut self, id: u32, end_ns: u64) {
        let span = &mut self.spans[id as usize];
        debug_assert!(end_ns >= span.start_ns);
        span.end_ns = end_ns;
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Appends another thread's log, re-basing its parent ids.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per-name count, total time and self time.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                // Only the part inside the parent's interval counts.
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if hi > lo {
                    children[p as usize].push((lo, hi));
                }
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            let total = s.end_ns - s.start_ns;
            let entry = out.entry(s.name).or_default();
            entry.count += 1;
            entry.total_ns += total;
            entry.self_ns += total - covered(kids);
        }
        out
    }

    /// Writes the log as JSONL, one span per line, ids implied by line
    /// order (line `n` is span `n`).
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            write!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.name, s.start_ns, s.end_ns
            )?;
            match s.parent {
                Some(p) => write!(w, "{p}")?,
                None => write!(w, "null")?,
            }
            writeln!(w, ",\"trace\":{}}}", s.trace)?;
        }
        w.flush()
    }
}

/// Length of the union of a set of intervals (sorted in place).
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(lo, hi) in intervals.iter() {
        let lo = lo.max(reach);
        if hi > lo {
            total += hi - lo;
            reach = hi;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let mut log = SpanLog::default();
        let op = log.open("op", None, 7, 100);
        log.record("gen", Some(op), 7, 100, 130);
        log.record("submit", Some(op), 7, 140, 190);
        log.close(op, 200);
        let t = log.self_times();
        assert_eq!(
            t["op"],
            SelfTime {
                count: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        assert_eq!(t["gen"].self_ns, 30);
        assert_eq!(t["submit"].self_ns, 50);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let mut log = SpanLog::default();
        let p = log.record("parent", None, 0, 0, 100);
        log.record("a", Some(p), 0, 10, 60);
        log.record("b", Some(p), 0, 40, 80); // overlaps a on [40, 60)
        log.record("c", Some(p), 0, 90, 150); // overhangs the parent by 50
        let t = log.self_times();
        // Covered: [10, 80) ∪ [90, 100) = 80.
        assert_eq!(t["parent"].self_ns, 20);
        assert_eq!(t["c"].total_ns, 60, "a child keeps its own full duration");
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let mut log = SpanLog::default();
        let a = log.record("a", None, 0, 0, 100);
        let b = log.record("b", Some(a), 0, 20, 80);
        log.record("c", Some(b), 0, 30, 50);
        let t = log.self_times();
        assert_eq!(t["a"].self_ns, 40);
        assert_eq!(t["b"].self_ns, 40);
        assert_eq!(t["c"].self_ns, 20);
    }

    #[test]
    fn absorb_rebases_parent_ids() {
        let mut main = SpanLog::default();
        main.record("x", None, 0, 0, 10);
        let mut other = SpanLog::default();
        let p = other.record("p", None, 1, 0, 10);
        other.record("k", Some(p), 1, 2, 6);
        main.absorb(other);
        assert_eq!(main.len(), 3);
        let t = main.self_times();
        assert_eq!(t["p"].self_ns, 6, "k still points at p after the merge");
        assert_eq!(t["x"].self_ns, 10);
    }
}
