//! Virtual-time span tracing: one event stream, formatted once.
//!
//! Spans open and close at **simulated** timestamps (the runtime's
//! `SimTime`, passed in as milliseconds) — never wall clock — so a trace
//! is a pure function of `(topology, seed, config)` and two runs of the
//! same configuration emit byte-identical traces regardless of worker-pool
//! width. The runtime guarantees this by emitting only from its serial
//! orchestration paths; the [`Tracer`] guarantees its half by consulting no
//! ambient state: it keeps every event, in emission order.
//!
//! Each event becomes one JSON line (the schema [`check_trace`] validates).
//! The tracer writes that line to the trace file when one is configured and
//! keeps the last `capacity` lines in a ring — the flight recorder the
//! runtime dumps on panic, which therefore holds the same bytes as the
//! file's tail.
//!
//! [`check_trace`]: crate::check_trace

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write as _};

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

/// An open span: carries the id and kind needed to close it.
#[derive(Clone, Copy, Debug)]
pub struct SpanId {
    id: u64,
    kind: &'static str,
}

/// The tracer: allocates span ids and formats each event as one JSON line,
/// `{"t":<ms>,"ev":"start|end|point","kind":"…","span":<id>,…fields}`
/// (`span` omitted for points). Float formatting uses Rust's
/// shortest-roundtrip `Display`, which is deterministic across platforms.
/// All methods take the virtual timestamp from the caller; the tracer holds
/// no clock.
#[derive(Debug)]
pub struct Tracer {
    file: Option<BufWriter<File>>,
    /// The last `capacity` lines, oldest first.
    ring: VecDeque<String>,
    capacity: usize,
    next_span: u64,
    /// Events emitted.
    pub emitted: u64,
}

impl Tracer {
    /// A tracer appending its lines to `file` (if any) and keeping the last
    /// `capacity` of them in memory.
    pub fn new(file: Option<File>, capacity: usize) -> Tracer {
        Tracer {
            file: file.map(BufWriter::new),
            ring: VecDeque::with_capacity(capacity),
            capacity,
            next_span: 1,
            emitted: 0,
        }
    }

    fn emit(
        &mut self,
        t_ms: f64,
        ev: &str,
        kind: &str,
        span: Option<u64>,
        fields: Vec<(&'static str, FieldValue)>,
    ) {
        assert!(t_ms.is_finite(), "trace timestamps must be finite");
        // A full ring lends its oldest line's buffer to the new one.
        let mut line = if self.ring.len() == self.capacity {
            self.ring.pop_front().unwrap_or_default()
        } else {
            String::new()
        };
        line.clear();
        let _ = write!(line, "{{\"t\":{t_ms},\"ev\":\"{ev}\",\"kind\":\"{kind}\"");
        if let Some(id) = span {
            let _ = write!(line, ",\"span\":{id}");
        }
        for (k, v) in fields {
            let _ = match v {
                FieldValue::U64(n) => write!(line, ",\"{k}\":{n}"),
                FieldValue::F64(x) => {
                    assert!(x.is_finite(), "trace field {k} must be finite");
                    write!(line, ",\"{k}\":{x}")
                }
            };
        }
        line.push('}');
        if let Some(w) = &mut self.file {
            writeln!(w, "{line}").expect("trace write failed");
        }
        if self.capacity > 0 {
            self.ring.push_back(line);
        }
        self.emitted += 1;
    }

    /// Opens a span of `kind` at virtual time `t_ms`.
    pub fn span_start(
        &mut self,
        kind: &'static str,
        t_ms: f64,
        fields: Vec<(&'static str, FieldValue)>,
    ) -> SpanId {
        let id = self.next_span;
        self.next_span += 1;
        self.emit(t_ms, "start", kind, Some(id), fields);
        SpanId { id, kind }
    }

    /// Closes a span opened by [`Tracer::span_start`].
    pub fn span_end(&mut self, span: SpanId, t_ms: f64, fields: Vec<(&'static str, FieldValue)>) {
        self.emit(t_ms, "end", span.kind, Some(span.id), fields);
    }

    /// Emits an instantaneous event.
    pub fn point(
        &mut self,
        kind: &'static str,
        t_ms: f64,
        fields: Vec<(&'static str, FieldValue)>,
    ) {
        self.emit(t_ms, "point", kind, None, fields);
    }

    /// The retained lines, oldest first: the trace file's last lines, byte
    /// for byte, without their newlines.
    pub fn tail(&self) -> impl Iterator<Item = &str> {
        self.ring.iter().map(String::as_str)
    }

    /// Renders the retained tail for a crash report.
    pub fn dump(&self) -> String {
        let mut out =
            format!("flight recorder: last {} of {} trace events\n", self.ring.len(), self.emitted);
        for line in self.tail() {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// Flushes the trace file.
    pub fn finish(self) {
        if let Some(mut w) = self.file {
            w.flush().expect("trace flush failed");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_schema_shape() {
        let mut tr = Tracer::new(None, 8);
        let span = tr.span_start("churn.tick", 100.0, vec![("tick", 1u64.into())]);
        tr.point("catalog.register", 100.5, vec![]);
        tr.span_end(span, 101.0, vec![("load", FieldValue::F64(0.25))]);
        assert_eq!(
            tr.tail().collect::<Vec<_>>(),
            [
                r#"{"t":100,"ev":"start","kind":"churn.tick","span":1,"tick":1}"#,
                r#"{"t":100.5,"ev":"point","kind":"catalog.register"}"#,
                r#"{"t":101,"ev":"end","kind":"churn.tick","span":1,"load":0.25}"#,
            ]
        );
        assert_eq!(tr.emitted, 3);
    }

    #[test]
    fn wraparound_keeps_the_newest_events_in_order() {
        let mut tr = Tracer::new(None, 3);
        for i in 0..7u64 {
            tr.point("ev", i as f64, vec![("i", i.into())]);
        }
        assert_eq!(tr.emitted, 7);
        let kept: Vec<&str> = tr.tail().collect();
        assert_eq!(
            kept,
            [
                r#"{"t":4,"ev":"point","kind":"ev","i":4}"#,
                r#"{"t":5,"ev":"point","kind":"ev","i":5}"#,
                r#"{"t":6,"ev":"point","kind":"ev","i":6}"#,
            ],
            "oldest-first, only the newest capacity events"
        );
        assert!(tr.dump().starts_with("flight recorder: last 3 of 7 trace events\n"));
    }

    #[test]
    fn wraparound_is_exact_at_the_boundary() {
        let mut tr = Tracer::new(None, 2);
        let line = |kind: &str| format!(r#"{{"t":0,"ev":"point","kind":"{kind}"}}"#);
        let kept = |tr: &Tracer| tr.tail().map(str::to_string).collect::<Vec<_>>();
        tr.point("a", 0.0, vec![]);
        assert_eq!(kept(&tr), [line("a")]);
        tr.point("b", 0.0, vec![]);
        assert_eq!(kept(&tr), [line("a"), line("b")]);
        tr.point("c", 0.0, vec![]);
        assert_eq!(kept(&tr), [line("b"), line("c")]);
    }
}
