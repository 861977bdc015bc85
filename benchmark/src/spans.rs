//! Wall-clock spans recorded by the driver *around* each call into the
//! program (choosing-metrics §4: spans inside the program are a later
//! change). Every call is timed in both kinds of pass — the per-name totals
//! feed the end-to-end metrics — but only a traced pass keeps the individual
//! span records, in memory, and writes them out when the pass ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;
use crate::obj;

/// Index of a span in its recorder. Span 0 is the pass itself.
pub type SpanId = u32;

/// The root span every pass opens first.
pub const ROOT: SpanId = 0;

/// One recorded call: `name`, the span that caused it, and wall-clock
/// start/end in nanoseconds since the recorder was created.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: SpanId,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name aggregate over a pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
}

pub struct Recorder {
    origin: Instant,
    /// Keep individual spans (traced pass) or only the totals.
    keep: bool,
    /// Kept spans; a span's id is its index.
    spans: Vec<Span>,
    /// Spans opened and not yet closed, innermost last: `(id, name, start)`.
    open: Vec<(SpanId, &'static str, u64)>,
    totals: BTreeMap<&'static str, Total>,
    next_id: SpanId,
}

impl Recorder {
    pub fn new(keep: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            keep,
            spans: Vec::new(),
            open: Vec::new(),
            totals: BTreeMap::new(),
            next_id: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn record(&mut self, name: &'static str, parent: SpanId, start_ns: u64, end_ns: u64) {
        self.next_id += 1;
        if self.keep {
            self.spans.push(Span { name, parent, start_ns, end_ns });
        }
    }

    fn add_total(&mut self, name: &'static str, dur: u64) {
        let t = self.totals.entry(name).or_default();
        t.count += 1;
        t.total_ns += dur;
    }

    /// Opens a span; close it with [`Recorder::close`]. For spans whose body
    /// calls back into the recorder ([`Recorder::time`] borrows it for the
    /// whole call). Open spans close innermost first.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let id = self.next_id;
        let start_ns = self.now_ns();
        self.record(name, parent, start_ns, start_ns);
        self.open.push((id, name, start_ns));
        id
    }

    /// Closes the innermost open span, which must be `id`; returns its
    /// duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let end_ns = self.now_ns();
        let (top, name, start_ns) = self.open.pop().expect("a span is open");
        assert_eq!(top, id, "spans close innermost first");
        if self.keep {
            self.spans[id as usize].end_ns = end_ns;
        }
        self.add_total(name, end_ns - start_ns);
        end_ns - start_ns
    }

    /// Times one call as a leaf span under `parent`; returns the call's
    /// result and its duration in nanoseconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(name, parent, start, end);
        self.add_total(name, end - start);
        (out, end - start)
    }

    /// Total wall time of every span called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |t| t.total_ns)
    }

    /// [`Recorder::total_ns`] in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.total_ns(name) as f64 / 1e6
    }

    /// The trace document written to `out/<workload>.trace.json`: every span
    /// as `[id, parent, name index, start_ns, end_ns]` plus per-name totals
    /// and self times. All spans of a pass share `run_id`.
    pub fn to_json(&self, run_id: &str) -> Json {
        let mut names: Vec<&'static str> = Vec::new();
        let mut rows = Vec::with_capacity(self.spans.len());
        for (id, s) in self.spans.iter().enumerate() {
            let idx = names.iter().position(|&n| n == s.name).unwrap_or_else(|| {
                names.push(s.name);
                names.len() - 1
            });
            rows.push(Json::Arr(vec![
                id.into(),
                (s.parent as usize).into(),
                idx.into(),
                s.start_ns.into(),
                s.end_ns.into(),
            ]));
        }
        let self_ns = self_times(&self.spans);
        let totals = self
            .totals
            .iter()
            .map(|(&name, t)| {
                let own = self_ns.get(name).copied().unwrap_or(0);
                (
                    name.to_string(),
                    obj! { "count" => t.count, "total_ns" => t.total_ns, "self_ns" => own },
                )
            })
            .collect();
        obj! {
            "run_id" => run_id,
            "columns" => "id,parent,name,start_ns,end_ns",
            "names" => Json::Arr(names.into_iter().map(Json::from).collect()),
            "totals" => Json::Obj(totals),
            "spans" => Json::Arr(rows),
        }
    }
}

/// Self time per span name: each span's duration minus the part of that
/// interval its direct children cover (children may not overlap each other
/// here — the driver is single-threaded — but the union is taken anyway so
/// the arithmetic holds for any well-nested input).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for (id, s) in spans.iter().enumerate() {
        if id as SpanId != ROOT && (s.parent as usize) < spans.len() {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = s.start_ns;
        for &(a, b) in kids.iter() {
            let a = a.clamp(cursor, s.end_ns);
            let b = b.clamp(cursor, s.end_ns);
            covered += b - a;
            cursor = b;
        }
        *out.entry(s.name).or_default() += (s.end_ns - s.start_ns) - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span { name, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("pass", ROOT, 0, 100),
            span("setup", 0, 10, 40),
            span("new", 1, 15, 35),
            span("tick", 0, 50, 70),
            // Overlaps the previous sibling: only 70..80 is newly covered.
            span("tick", 0, 60, 80),
            // Sticks out of its parent: clamped to the parent's interval.
            span("deploy", 0, 90, 120),
        ];
        let own = self_times(&spans);
        // pass: 100 − (30 + 20 + 10 + 10) = 30.
        assert_eq!(own["pass"], 30);
        assert_eq!(own["setup"], 10);
        assert_eq!(own["new"], 20);
        assert_eq!(own["tick"], 40);
        assert_eq!(own["deploy"], 30);
        // A leaf's self time is its duration; totals add up level by level.
        assert_eq!(own["setup"] + own["new"], 30);
    }

    #[test]
    fn traced_and_untraced_recorders_agree_on_totals() {
        for keep in [true, false] {
            let mut r = Recorder::new(keep);
            let root = r.open("pass", ROOT);
            let outer = r.open("drive", root);
            let ((), dur) = r.time("tick", outer, std::thread::yield_now);
            r.time("tick", outer, || ());
            let outer_ns = r.close(outer);
            r.close(root);
            assert_eq!(r.totals["tick"].count, 2);
            assert_eq!(r.totals["drive"].count, 1);
            assert!(r.total_ms("tick") * 1e6 >= dur as f64);
            assert!(r.total_ms("drive") * 1e6 >= outer_ns as f64 - 1.0);
            assert_eq!(r.spans.len(), if keep { 4 } else { 0 });
        }
    }

    #[test]
    fn trace_document_lists_every_span_under_one_run_id() {
        let mut r = Recorder::new(true);
        let root = r.open("pass", ROOT);
        r.time("deploy", root, || ());
        r.close(root);
        let doc = r.to_json("w-1");
        assert_eq!(doc.get("run_id").unwrap().as_str(), Some("w-1"));
        assert_eq!(doc.get("spans").unwrap().as_arr().unwrap().len(), 2);
        let own = doc.get("totals").unwrap().get("deploy").unwrap();
        assert_eq!(own.get("count").unwrap().as_f64(), Some(1.0));
    }
}
