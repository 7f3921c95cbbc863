//! The traced replay's span recorder: spans and counts are kept in memory
//! and summarized once the run ends.
//!
//! A span is one call into a layer's public function, timed from the
//! benchmark's own code: its name, start, end, the span that caused it and
//! the job (or request) it belongs to. A disabled tracer runs the same
//! closures without recording anything, which is how the benchmark measures
//! the tracing overhead.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sop.expand`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recording.
    pub parent: Option<usize>,
    /// The job or request the span belongs to.
    pub job: u32,
}

/// Records spans and counts for one thread of the replay.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    job: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
    /// Input fingerprints seen in the current job.
    seen: HashSet<u64>,
}

impl Tracer {
    /// A tracer whose times count from `epoch`; a disabled one records
    /// nothing.
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            enabled,
            job: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
            seen: HashSet::new(),
        }
    }

    /// Whether spans and counts are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags every following span with `job` and forgets the inputs seen in
    /// the previous one.
    pub fn set_job(&mut self, job: u32) {
        self.job = job;
        self.seen.clear();
    }

    /// `true` the first time the current job shows `fingerprint`.
    pub fn first_sight(&mut self, fingerprint: u64) -> bool {
        self.seen.insert(fingerprint)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` become its
    /// children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, job: self.job });
        self.stack.push(index);
        let result = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// Adds `n` to the count called `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_default() += n;
        }
    }

    /// Moves another tracer's recording into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
        for (name, n) in other.counts {
            *self.counts.entry(name).or_default() += n;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The value of a count (0 if never counted).
    pub fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

/// Per-name totals of a recording.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Number of spans.
    pub calls: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times: duration minus the time the children cover.
    pub self_ns: u64,
}

/// Totals per span name, plus the summed duration and self time of the
/// root spans.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Totals keyed by span name.
    pub by_name: BTreeMap<&'static str, NameTotals>,
    /// Summed duration of spans without a parent.
    pub root_ns: u64,
    /// Summed self time of spans without a parent.
    pub root_self_ns: u64,
}

impl Summary {
    /// Share of the root spans' time that lies inside the layers' spans
    /// under them. A root span wraps one job or request; its self time is
    /// code no layer span covers, so an untraced layer call lowers this.
    pub fn coverage(&self) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        (self.root_ns - self.root_self_ns) as f64 / self.root_ns as f64
    }

    /// Totals of one span name (zeros if it never occurred).
    pub fn of(&self, name: &str) -> NameTotals {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Summed duration of a span name in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.of(name).total_ns as f64 / 1e6
    }

    /// Summed self time of a span name in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.of(name).self_ns as f64 / 1e6
    }
}

/// Summarizes spans; a span's self time is its duration minus the union of
/// its children's intervals clipped to it.
pub fn summarize(spans: &[Span]) -> Summary {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut summary = Summary::default();
    for span in spans {
        match span.parent {
            Some(p) => children[p].push((span.start_ns, span.end_ns)),
            None => summary.root_ns += span.end_ns - span.start_ns,
        }
    }
    for (span, kids) in spans.iter().zip(&mut children) {
        let duration = span.end_ns - span.start_ns;
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for &(start, end) in kids.iter() {
            let (start, end) = (start.max(reach), end.min(span.end_ns));
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        let self_ns = duration - covered.min(duration);
        if span.parent.is_none() {
            summary.root_self_ns += self_ns;
        }
        let totals = summary.by_name.entry(span.name).or_default();
        totals.calls += 1;
        totals.total_ns += duration;
        totals.self_ns += self_ns;
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, job: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)), // overlaps a: the union is 10..50
            span("leaf", 25, 45, Some(2)),
            span("c", 90, 120, Some(0)), // clipped to the parent's end
        ];
        let s = summarize(&spans);
        assert_eq!(s.of("root"), NameTotals { calls: 1, total_ns: 100, self_ns: 100 - 40 - 10 });
        assert_eq!(s.of("b").self_ns, 30 - 20);
        assert_eq!(s.of("leaf").self_ns, 20);
        assert_eq!(s.root_ns, 100);
        assert_eq!(s.root_self_ns, 50);
        assert_eq!(s.coverage(), 0.5);
        assert_eq!(s.of("missing"), NameTotals::default());
    }

    #[test]
    fn recorded_spans_nest_and_absorb_keeps_parents() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, true);
        t.set_job(7);
        let x = t.span("outer", |t| {
            t.count("things", 2);
            t.span("inner", |_| 41) + 1
        });
        assert_eq!(x, 42);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].job, 7);
        assert!(t.spans()[0].start_ns <= t.spans()[1].start_ns);
        assert!(t.spans()[1].end_ns <= t.spans()[0].end_ns);

        let mut merged = Tracer::new(epoch, true);
        merged.span("first", |_| ());
        merged.absorb(t);
        assert_eq!(merged.spans()[2].parent, Some(1));
        assert_eq!(merged.get("things"), 2);

        let mut off = Tracer::new(epoch, false);
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 5)), 5);
        off.count("things", 1);
        assert!(off.spans().is_empty());
        assert_eq!(off.get("things"), 0);
    }
}
