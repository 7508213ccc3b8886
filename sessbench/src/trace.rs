//! In-memory span recorder for the traced run. Spans are recorded from
//! the benchmark's own code around calls into each layer's public
//! functions; nothing inside the program is instrumented. Spans stay in
//! memory while the workload runs and are written out at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Stage name, `<layer>.<stage>`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin (`start_ns` while open).
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Session (request ticket or fabric slot) the span belongs to.
    pub session: u64,
}

impl Span {
    /// Span duration, nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name aggregate over every span of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTime {
    /// Spans recorded.
    pub calls: u64,
    /// Summed self time (duration minus the part child spans cover).
    pub self_ns: u64,
}

impl StageTime {
    /// Mean self time per call, milliseconds (0 when never called).
    pub fn self_ms_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1e6
        }
    }
}

/// Single-threaded span recorder with an explicit open-span stack.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, session: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.push(name, session, start_ns, start_ns)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, session: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, session);
        let out = f();
        self.end(id);
        out
    }

    fn push(&mut self, name: &'static str, session: u64, start_ns: u64, end_ns: u64) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            session,
        });
        self.open.push(id);
        id
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Aggregates spans by name. A span's self time is its duration
    /// minus its direct children's durations (clipped to the parent's
    /// interval); grandchildren are already inside their parent's
    /// child, so they are never subtracted twice.
    pub fn stage_times(&self) -> BTreeMap<&'static str, StageTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                child_ns[p] += hi.saturating_sub(lo);
            }
        }
        let mut out: BTreeMap<&'static str, StageTime> = BTreeMap::new();
        for (s, &covered) in self.spans.iter().zip(&child_ns) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.self_ns += s.dur_ns().saturating_sub(covered);
        }
        out
    }

    /// Renders every span as one JSON object per line: name, start, end,
    /// parent span index (`null` for roots) and session id.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"session\": {}}}",
                s.name, s.start_ns, s.end_ns, s.session
            );
        }
        out
    }
}

/// Host cost of recording one span (a `begin`/`end` pair), ns: the
/// median of five timed batches on a scratch recorder.
pub fn span_cost_ns() -> f64 {
    const BATCH: u64 = 20_000;
    let mut per_batch = [0.0; 5];
    for slot in &mut per_batch {
        let mut t = Tracer::new();
        t.spans.reserve(BATCH as usize);
        let t0 = Instant::now();
        for i in 0..BATCH {
            let id = t.begin("calibrate", i);
            t.end(id);
        }
        *slot = t0.elapsed().as_nanos() as f64 / BATCH as f64;
        std::hint::black_box(&t.spans);
    }
    crate::stats::median(&per_batch)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a tracer from hand-placed spans (start, end, parent).
    fn fixed(spans: &[(&'static str, u64, u64, Option<SpanId>)]) -> Tracer {
        let mut t = Tracer::new();
        for &(name, start_ns, end_ns, parent) in spans {
            t.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                session: 0,
            });
        }
        t
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // session [0, 100): field1 [10, 30), field2 [40, 90) which holds
        // render [45, 75). Grandchild render must not be subtracted from
        // the session a second time.
        let t = fixed(&[
            ("session", 0, 100, None),
            ("field1", 10, 30, Some(0)),
            ("field2", 40, 90, Some(0)),
            ("render", 45, 75, Some(2)),
        ]);
        let st = t.stage_times();
        assert_eq!(st["session"].self_ns, 100 - 20 - 50);
        assert_eq!(st["field2"].self_ns, 50 - 30);
        assert_eq!(st["render"].self_ns, 30);
        assert_eq!(st["field1"].self_ns, 20);
        // Self times partition the root interval exactly.
        let sum: u64 = st.values().map(|s| s.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn repeated_stages_accumulate_calls() {
        let t = fixed(&[
            ("session", 0, 50, None),
            ("field1", 0, 10, Some(0)),
            ("field1", 10, 20, Some(0)),
            ("session", 50, 60, None),
        ]);
        let st = t.stage_times();
        assert_eq!(st["field1"].calls, 2);
        assert_eq!(st["session"].calls, 2);
        assert_eq!(st["session"].self_ns, 30 + 10);
        assert_eq!(st["field1"].self_ms_per_call(), 10.0 / 1e6);
    }

    #[test]
    fn child_outside_parent_is_clipped() {
        let t = fixed(&[("root", 10, 20, None), ("late", 15, 30, Some(0))]);
        assert_eq!(t.stage_times()["root"].self_ns, 5);
    }

    #[test]
    fn live_spans_nest_and_serialize() {
        let mut t = Tracer::new();
        let root = t.begin("session", 7);
        t.time("stage", 7, || std::hint::black_box(3 + 4));
        t.end(root);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"name\": \"stage\"") && jsonl.contains("\"parent\": 0"));
        assert!(jsonl.contains("\"session\": 7"));
    }
}
