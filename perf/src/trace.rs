//! In-memory spans around every call the benchmark makes into a layer.
//!
//! Spans are recorded from the benchmark's side of the API only (spans
//! inside the program are ROADMAP item 2). Each thread records into its
//! own [`Recorder`] buffer, which is merged into the [`Tracer`] when the
//! recorder is dropped; nothing is written until the run ends. With
//! tracing off a recorder neither reads the clock nor stores anything, so
//! untraced runs pay one predictable branch per call.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// `req` of a span that belongs to no single request.
pub const NO_REQ: u64 = u64::MAX;
/// Parent id of a top-level span.
pub const ROOT: u32 = 0;
/// One request in this many gets a request span and has its `submit` span
/// written to the trace file.
pub const REQUEST_SAMPLE: u64 = 256;

/// Span names, one per layer boundary the benchmark crosses.
pub mod name {
    pub const RUN: &str = "run";
    pub const EPOCH: &str = "steady.epoch";
    pub const PACED: &str = "paced.segment";
    pub const RECOVERY: &str = "recovery.round";
    pub const PROBES: &str = "probes";
    pub const SETUP: &str = "setup";
    pub const PARSE: &str = "ir.parse";
    pub const TRANSLATE: &str = "translate.translate";
    pub const START: &str = "deploy.start";
    pub const PRELOAD: &str = "deploy.preload";
    pub const FEED: &str = "feed";
    pub const SUBMIT: &str = "deploy.submit";
    pub const REQUEST: &str = "request";
    pub const QUIESCE: &str = "deploy.quiesce";
    pub const CHECKPOINT: &str = "reconfigure.checkpoint";
    pub const RECOVER: &str = "reconfigure.fail_and_recover";
    pub const METRICS: &str = "deploy.metrics";
    pub const WITH_STATE: &str = "deploy.with_state";
    pub const VERIFY: &str = "oracle.verify";
    pub const SHUTDOWN: &str = "deploy.shutdown";
}

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has begun; hand it back to [`Recorder::end`].
#[must_use = "an open span records nothing until it is ended"]
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: u32,
    pub start_ns: u64,
    parent: u32,
    name: &'static str,
    req: u64,
}

/// The run-wide span store and clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer was created: the run's one time base.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The `Instant` that [`Tracer::now_ns`] counts from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// A recorder for the calling thread. `on = false` yields a recorder
    /// that drops everything, which is how a traced run leaves alternate
    /// epochs untraced to measure its own overhead.
    pub fn recorder(&self, on: bool) -> Recorder<'_> {
        Recorder {
            tracer: self,
            on: on && self.enabled,
            buf: Vec::new(),
        }
    }

    /// All spans recorded so far, ordered by start time.
    pub fn snapshot(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("no recorder panics while flushing")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// A thread's span buffer.
#[derive(Debug)]
pub struct Recorder<'t> {
    tracer: &'t Tracer,
    on: bool,
    buf: Vec<Span>,
}

impl Recorder<'_> {
    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span under `parent` for request `req` (or [`NO_REQ`]).
    pub fn begin(&self, name: &'static str, parent: u32, req: u64) -> Open {
        if !self.on {
            return Open {
                id: ROOT,
                parent,
                name,
                start_ns: 0,
                req,
            };
        }
        Open {
            // Relaxed: the id only has to be unique, it publishes nothing.
            id: self.tracer.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns: self.tracer.now_ns(),
            req,
        }
    }

    /// Closes `open` now.
    pub fn end(&mut self, open: Open) {
        if self.on {
            let end_ns = self.tracer.now_ns();
            self.buf.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                req: open.req,
            });
        }
    }

    /// Records a span whose interval was measured elsewhere (a request
    /// span is assembled from its submit time and its output's arrival).
    pub fn leaf(&mut self, name: &'static str, parent: u32, req: u64, start_ns: u64, end_ns: u64) {
        if self.on {
            let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
            self.buf.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
                req,
            });
        }
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        f: impl FnOnce(&mut Self, u32) -> R,
    ) -> R {
        let open = self.begin(name, parent, NO_REQ);
        let r = f(self, open.id);
        self.end(open);
        r
    }
}

impl Drop for Recorder<'_> {
    fn drop(&mut self) {
        if !self.buf.is_empty() {
            // A poisoned store only loses this thread's spans; Drop must
            // not panic.
            if let Ok(mut all) = self.tracer.spans.lock() {
                all.append(&mut self.buf);
            }
        }
    }
}

/// Self time per span id: the span's duration minus the part of its
/// interval covered by the union of its children (children may overlap
/// each other and may run on other threads).
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != ROOT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut cursor) = (0, lo);
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(cursor), end.min(hi));
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// Count, total and self time of every span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += selfs.get(&s.id).copied().unwrap_or(0);
    }
    out
}

/// Renders the trace file: per-name totals with self times, then the
/// spans themselves. `deploy.submit` spans run to millions, so only those
/// of sampled requests are listed; the totals cover all of them.
pub fn render_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let listed: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name != name::SUBMIT || s.req % REQUEST_SAMPLE == 0)
        .collect();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans_recorded\":{},\"spans_listed\":{},\n\"by_name\":[",
        spans.len(),
        listed.len()
    );
    for (i, (name, t)) in totals_by_name(spans).iter().enumerate() {
        let _ = write!(
            out,
            "{}\n{{\"name\":\"{name}\",\"count\":{},\"total_ms\":{:.3},\"self_ms\":{:.3}}}",
            if i == 0 { "" } else { "," },
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    out.push_str("],\n\"spans\":[");
    for (i, s) in listed.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
            if i == 0 { "" } else { "," },
            s.id,
            s.parent,
            s.name,
            s.start_ns,
            s.end_ns
        );
        if s.req != NO_REQ {
            let _ = write!(out, ",\"req\":{}", s.req);
        }
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            req: NO_REQ,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, ROOT, "epoch", 0, 100),
            // Two overlapping children (one on another thread) and one
            // that sticks out past the parent's end.
            span(2, 1, "feed", 10, 50),
            span(3, 1, "checkpoint", 40, 70),
            span(4, 1, "late", 90, 130),
            // A grandchild does not count against the grandparent.
            span(5, 2, "submit", 10, 20),
        ];
        let selfs = self_times(&spans);
        // Children cover [10,70] and [90,100] of the parent: 70 of 100.
        assert_eq!(selfs[&1], 30);
        assert_eq!(selfs[&2], 30);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&5], 10);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span(1, ROOT, "epoch", 0, 100),
            span(2, 1, "submit", 0, 10),
            span(3, 1, "submit", 10, 30),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["submit"],
            NameTotals {
                count: 2,
                total_ns: 30,
                self_ns: 30
            }
        );
        assert_eq!(totals["epoch"].self_ns, 70);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let tracer = Tracer::new(false);
        let mut rec = tracer.recorder(true);
        let open = rec.begin("x", ROOT, NO_REQ);
        assert_eq!(open.id, ROOT);
        rec.end(open);
        rec.leaf("y", ROOT, 1, 0, 1);
        drop(rec);
        assert!(tracer.snapshot().is_empty());
    }

    #[test]
    fn recorders_merge_on_drop_with_unique_ids_and_parents() {
        let tracer = Tracer::new(true);
        let mut a = tracer.recorder(true);
        let outer = a.begin("outer", ROOT, NO_REQ);
        let outer_id = outer.id;
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut b = tracer.recorder(true);
                let inner = b.begin("inner", outer_id, 7);
                b.end(inner);
            });
        });
        a.end(outer);
        drop(a);
        let spans = tracer.snapshot();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_ne!(outer.id, inner.id);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.req, 7);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn the_trace_file_lists_only_sampled_submit_spans() {
        let mut spans = vec![span(1, ROOT, "epoch", 0, 10_000)];
        for i in 0..600u64 {
            spans.push(Span {
                id: 2 + i as u32,
                parent: 1,
                name: name::SUBMIT,
                start_ns: i * 10,
                end_ns: i * 10 + 5,
                req: i,
            });
        }
        let json = render_json("w", 3, &spans);
        let parsed = sdg_common::obs::json::parse(&json).expect("valid json");
        assert_eq!(parsed.get("spans_recorded").unwrap().as_u64(), Some(601));
        // Requests 0, 256 and 512 plus the epoch.
        assert_eq!(parsed.get("spans").unwrap().as_array().unwrap().len(), 4);
        let by_name = parsed.get("by_name").unwrap().as_array().unwrap();
        let submit = by_name
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some(name::SUBMIT))
            .unwrap();
        assert_eq!(submit.get("count").unwrap().as_u64(), Some(600));
    }
}
