//! Virtual-time span tracing with deterministic sampling.
//!
//! Spans open and close at **simulated** timestamps (the runtime's
//! `SimTime`, passed in as milliseconds) — never wall clock — so a trace
//! is a pure function of `(topology, seed, config)` and two runs of the
//! same configuration emit byte-identical traces regardless of worker-pool
//! width. The runtime guarantees this by emitting only from its serial
//! orchestration paths; this module guarantees its half by never consulting
//! ambient state: the [`Sampler`] is seeded, keyed per span kind, and
//! decides from `(seed, kind, per-kind sequence number)` alone.
//!
//! Events flow to pluggable [`TraceSink`]s: [`JsonlSink`] writes one JSON
//! object per line (the schema `trace_check` validates), [`TreeSink`]
//! renders a human-readable nested summary, and [`NullSink`] counts —
//! useful for overhead measurement and invisibility tests.

use std::collections::BTreeMap;
use std::io::Write;

/// A typed field value attached to a trace event.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer payload (counts, ids).
    U64(u64),
    /// Float payload (must be finite — asserted at emission).
    F64(f64),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> FieldValue {
        FieldValue::F64(v)
    }
}

/// Which edge of a span an event marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanPhase {
    /// Span opened.
    Start,
    /// Span closed.
    End,
    /// Instantaneous event (no duration).
    Point,
}

impl SpanPhase {
    /// The wire name used in the JSONL schema.
    pub fn wire(&self) -> &'static str {
        match self {
            SpanPhase::Start => "start",
            SpanPhase::End => "end",
            SpanPhase::Point => "point",
        }
    }
}

/// One emitted trace event.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Virtual timestamp in simulated milliseconds.
    pub time_ms: f64,
    /// Emission lane. The runtime emits only from serial paths, so it uses
    /// a single lane; the schema carries the lane so the monotonicity
    /// contract stays checkable if that ever changes.
    pub lane: u32,
    /// Span id (unique per trace; 0 for points).
    pub span: u64,
    /// Start / end / point.
    pub phase: SpanPhase,
    /// Span kind, e.g. `"reopt.rewrite"` or `"churn.tick"`.
    pub kind: &'static str,
    /// Extra fields, in emission order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// Receives trace events. Implementations must be order-preserving; the
/// tracer calls them from serial code only.
pub trait TraceSink {
    /// One event, in emission order.
    fn event(&mut self, ev: &TraceEvent);
    /// Called once when tracing finishes (flush buffers, render footers).
    fn finish(&mut self) {}
}

/// Counts events and does nothing else.
#[derive(Debug, Default)]
pub struct NullSink {
    /// Events received.
    pub events: u64,
}

impl TraceSink for NullSink {
    fn event(&mut self, _ev: &TraceEvent) {
        self.events += 1;
    }
}

/// Writes one JSON object per event:
/// `{"t":<ms>,"lane":<n>,"ev":"start|end|point","kind":"…","span":<id>,…fields}`.
/// `span` is omitted for points; field values must be finite. Float
/// formatting uses Rust's shortest-roundtrip `Display`, which is
/// deterministic across platforms.
pub struct JsonlSink<W: Write> {
    w: W,
    /// Lines written.
    pub lines: u64,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(w: W) -> JsonlSink<W> {
        JsonlSink { w, lines: 0 }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn event(&mut self, ev: &TraceEvent) {
        assert!(ev.time_ms.is_finite(), "trace timestamps must be finite");
        let mut line = format!(
            "{{\"t\":{},\"lane\":{},\"ev\":\"{}\",\"kind\":\"{}\"",
            ev.time_ms,
            ev.lane,
            ev.phase.wire(),
            ev.kind,
        );
        if ev.phase != SpanPhase::Point {
            line.push_str(&format!(",\"span\":{}", ev.span));
        }
        for (k, v) in &ev.fields {
            match v {
                FieldValue::U64(n) => line.push_str(&format!(",\"{k}\":{n}")),
                FieldValue::F64(x) => {
                    assert!(x.is_finite(), "trace field {k} must be finite");
                    line.push_str(&format!(",\"{k}\":{x}"));
                }
            }
        }
        line.push('}');
        writeln!(self.w, "{line}").expect("trace sink write failed");
        self.lines += 1;
    }

    fn finish(&mut self) {
        self.w.flush().expect("trace sink flush failed");
    }
}

/// Accumulates spans into a nested, human-readable summary.
#[derive(Debug, Default)]
pub struct TreeSink {
    lines: Vec<String>,
    stack: Vec<u64>,
    opened_at: BTreeMap<u64, (usize, f64)>,
    /// Events received.
    pub events: u64,
}

impl TreeSink {
    /// An empty tree.
    pub fn new() -> TreeSink {
        TreeSink::default()
    }

    /// The rendered summary, one line per event, indented by span depth.
    pub fn render(&self) -> String {
        self.lines.join("\n")
    }
}

impl TraceSink for TreeSink {
    fn event(&mut self, ev: &TraceEvent) {
        self.events += 1;
        let fields: String = ev
            .fields
            .iter()
            .map(|(k, v)| match v {
                FieldValue::U64(n) => format!(" {k}={n}"),
                FieldValue::F64(x) => format!(" {k}={x:.3}"),
            })
            .collect();
        match ev.phase {
            SpanPhase::Start => {
                let depth = self.stack.len();
                self.lines.push(format!(
                    "{}{} @ {:.3} ms{fields}",
                    "  ".repeat(depth),
                    ev.kind,
                    ev.time_ms
                ));
                self.opened_at.insert(ev.span, (self.lines.len() - 1, ev.time_ms));
                self.stack.push(ev.span);
            }
            SpanPhase::End => {
                if self.stack.last() == Some(&ev.span) {
                    self.stack.pop();
                }
                if let Some((line, t0)) = self.opened_at.remove(&ev.span) {
                    let dur = ev.time_ms - t0;
                    self.lines[line].push_str(&format!(" [+{dur:.3} ms{fields}]"));
                }
            }
            SpanPhase::Point => {
                let depth = self.stack.len();
                self.lines.push(format!(
                    "{}· {} @ {:.3} ms{fields}",
                    "  ".repeat(depth),
                    ev.kind,
                    ev.time_ms
                ));
            }
        }
    }
}

/// Deterministic per-kind sampling: keep 1 in `N` events of each kind,
/// where the kept subset is a pure function of `(seed, kind, per-kind
/// sequence number)` — never of wall clock, thread id, or ambient RNG.
#[derive(Clone, Debug)]
pub struct Sampler {
    seed: u64,
    default_rate: u64,
    rates: BTreeMap<String, u64>,
    seqs: BTreeMap<&'static str, u64>,
}

impl Sampler {
    /// A sampler keeping 1 in `default_rate` events per kind, with
    /// per-kind overrides. A rate of 0 drops every event of that kind.
    pub fn new(seed: u64, default_rate: u64, rates: Vec<(String, u64)>) -> Sampler {
        Sampler { seed, default_rate, rates: rates.into_iter().collect(), seqs: BTreeMap::new() }
    }

    /// Decides whether the next event of `kind` is kept, advancing that
    /// kind's sequence number.
    pub fn admit(&mut self, kind: &'static str) -> bool {
        let seq = self.seqs.entry(kind).or_insert(0);
        let n = *seq;
        *seq += 1;
        let rate = self.rates.get(kind).copied().unwrap_or(self.default_rate);
        match rate {
            0 => false,
            1 => true,
            _ => {
                splitmix64(self.seed ^ fnv1a(kind) ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % rate
                    == 0
            }
        }
    }
}

/// SplitMix64 finalizer — the standard 64-bit avalanche mix.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the kind string: stable across runs and platforms.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// An open span: carries the id and kind needed to close it.
#[derive(Clone, Copy, Debug)]
pub struct SpanId {
    id: u64,
    kind: &'static str,
}

/// The tracer: allocates span ids, applies sampling, and fans events out
/// to every sink. All methods take the virtual timestamp from the caller;
/// the tracer holds no clock.
pub struct Tracer {
    sinks: Vec<Box<dyn TraceSink>>,
    sampler: Sampler,
    next_span: u64,
    lane: u32,
    /// Events that passed sampling and reached the sinks.
    pub emitted: u64,
}

impl Tracer {
    /// A tracer with the given sampler and no sinks yet.
    pub fn new(sampler: Sampler) -> Tracer {
        Tracer { sinks: Vec::new(), sampler, next_span: 1, lane: 0, emitted: 0 }
    }

    /// Attaches a sink.
    pub fn add_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sinks.push(sink);
    }

    fn emit(&mut self, ev: TraceEvent) {
        self.emitted += 1;
        for s in &mut self.sinks {
            s.event(&ev);
        }
    }

    /// Opens a span of `kind` at virtual time `t_ms`. Returns `None` when
    /// the sampler drops this span — pass it to [`Tracer::span_end`]
    /// unchanged; the end is then dropped too, keeping traces balanced.
    pub fn span_start(
        &mut self,
        kind: &'static str,
        t_ms: f64,
        fields: Vec<(&'static str, FieldValue)>,
    ) -> Option<SpanId> {
        if !self.sampler.admit(kind) {
            return None;
        }
        let id = self.next_span;
        self.next_span += 1;
        self.emit(TraceEvent {
            time_ms: t_ms,
            lane: self.lane,
            span: id,
            phase: SpanPhase::Start,
            kind,
            fields,
        });
        Some(SpanId { id, kind })
    }

    /// Closes a span opened by [`Tracer::span_start`]; `None` (a sampled-out
    /// start) is a no-op.
    pub fn span_end(
        &mut self,
        span: Option<SpanId>,
        t_ms: f64,
        fields: Vec<(&'static str, FieldValue)>,
    ) {
        if let Some(SpanId { id, kind }) = span {
            self.emit(TraceEvent {
                time_ms: t_ms,
                lane: self.lane,
                span: id,
                phase: SpanPhase::End,
                kind,
                fields,
            });
        }
    }

    /// Emits an instantaneous event (subject to sampling).
    pub fn point(
        &mut self,
        kind: &'static str,
        t_ms: f64,
        fields: Vec<(&'static str, FieldValue)>,
    ) {
        if !self.sampler.admit(kind) {
            return;
        }
        self.emit(TraceEvent {
            time_ms: t_ms,
            lane: self.lane,
            span: 0,
            phase: SpanPhase::Point,
            kind,
            fields,
        });
    }

    /// Finishes every sink (flush/footers) and returns them.
    pub fn finish(mut self) -> Vec<Box<dyn TraceSink>> {
        for s in &mut self.sinks {
            s.finish();
        }
        self.sinks
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("sinks", &self.sinks.len())
            .field("next_span", &self.next_span)
            .field("emitted", &self.emitted)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_is_deterministic_per_seed_and_kind() {
        let decide = |seed: u64| -> Vec<bool> {
            let mut s = Sampler::new(seed, 4, vec![("keep".to_string(), 1)]);
            (0..32).flat_map(|_| [s.admit("a"), s.admit("keep"), s.admit("b")]).collect()
        };
        assert_eq!(decide(7), decide(7), "same seed, same decisions");
        assert_ne!(decide(7), decide(8), "the kept subset is seed-dependent");
        let kept = decide(7);
        assert!(kept.iter().skip(1).step_by(3).all(|&k| k), "rate-1 kind keeps everything");
    }

    #[test]
    fn sampler_decisions_ignore_interleaving() {
        // Per-kind sequence numbers make the decision for the i-th "a"
        // independent of how many other kinds fired in between.
        let mut tight = Sampler::new(3, 5, Vec::new());
        let a_tight: Vec<bool> = (0..64).map(|_| tight.admit("a")).collect();
        let mut mixed = Sampler::new(3, 5, Vec::new());
        let a_mixed: Vec<bool> = (0..64)
            .map(|i| {
                for _ in 0..(i % 3) {
                    mixed.admit("noise");
                }
                mixed.admit("a")
            })
            .collect();
        assert_eq!(a_tight, a_mixed);
    }

    #[test]
    fn sampled_out_spans_stay_balanced() {
        let mut tr = Tracer::new(Sampler::new(1, 0, vec![("kept".to_string(), 1)]));
        tr.add_sink(Box::new(NullSink::default()));
        let dropped = tr.span_start("dropped", 1.0, vec![]);
        assert!(dropped.is_none());
        let kept = tr.span_start("kept", 2.0, vec![]);
        assert!(kept.is_some());
        tr.span_end(kept, 3.0, vec![]);
        tr.span_end(dropped, 4.0, vec![]);
        assert_eq!(tr.emitted, 2, "only the kept span's two edges emit");
    }

    #[test]
    fn jsonl_schema_shape() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.event(&TraceEvent {
            time_ms: 100.0,
            lane: 0,
            span: 1,
            phase: SpanPhase::Start,
            kind: "churn.tick",
            fields: vec![("tick", 1u64.into()), ("load", FieldValue::F64(0.25))],
        });
        sink.event(&TraceEvent {
            time_ms: 100.5,
            lane: 0,
            span: 0,
            phase: SpanPhase::Point,
            kind: "catalog.register",
            fields: vec![],
        });
        let out = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(
            out,
            "{\"t\":100,\"lane\":0,\"ev\":\"start\",\"kind\":\"churn.tick\",\"span\":1,\
             \"tick\":1,\"load\":0.25}\n\
             {\"t\":100.5,\"lane\":0,\"ev\":\"point\",\"kind\":\"catalog.register\"}\n"
        );
    }

    #[test]
    fn tree_sink_nests_and_reports_durations() {
        let mut sink = TreeSink::new();
        let ev = |t, kind, span, phase| TraceEvent {
            time_ms: t,
            lane: 0,
            span,
            phase,
            kind,
            fields: vec![],
        };
        sink.event(&ev(0.0, "churn.tick", 1, SpanPhase::Start));
        sink.event(&ev(0.5, "catalog.register", 0, SpanPhase::Point));
        sink.event(&ev(1.0, "latency.repair", 2, SpanPhase::Start));
        sink.event(&ev(1.5, "latency.repair", 2, SpanPhase::End));
        sink.event(&ev(2.0, "churn.tick", 1, SpanPhase::End));
        let text = sink.render();
        assert!(text.contains("churn.tick @ 0.000 ms [+2.000 ms]"), "{text}");
        assert!(text.contains("  latency.repair @ 1.000 ms [+0.500 ms]"), "{text}");
        assert!(text.contains("  · catalog.register @ 0.500 ms"), "{text}");
    }
}
