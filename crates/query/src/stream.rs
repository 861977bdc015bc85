//! Source streams and the statistics over them: the one catalog.
//!
//! An SBON "often relays real-time data from a particular data source ...
//! and no other source can provide this particular data" (Section 2 — "one
//! cannot move mountains"). A stream therefore carries a *pinned* producer
//! node along with its publication rate; there is no data-placement problem.
//! The catalog also holds what the windowed join model needs beyond the
//! per-stream rates — pairwise selectivities and the window — so every fact
//! the optimizer reads has this one home; [`crate::stats`] derives the rates
//! that follow from them.

use std::collections::BTreeMap;

use sbon_netsim::graph::NodeId;

/// Identifier of a source stream, dense per [`StreamCatalog`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u32);

impl StreamId {
    /// The id as a usize, for table indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for StreamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Definition of one source stream.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamDef {
    /// Human-readable name for harness output.
    pub name: String,
    /// Publication rate in normalized data units per second.
    pub rate: f64,
    /// The physical node where the producer lives (pinned).
    pub producer: NodeId,
}

/// The streams known to a deployment and their statistics. Mutable: "the
/// selectivity estimates used to favor one plan over another may change as a
/// circuit matures" (Section 3.3), and re-optimization reacts to such
/// updates.
#[derive(Clone, Debug)]
pub struct StreamCatalog {
    /// Dense by [`StreamId`].
    streams: Vec<StreamDef>,
    /// Pairwise join selectivities keyed `(low id, high id)`; a pair not
    /// listed joins at `default_selectivity`.
    selectivities: BTreeMap<(StreamId, StreamId), f64>,
    default_selectivity: f64,
    /// Seconds of stream state a join matches against.
    pub(crate) window: f64,
}

impl Default for StreamCatalog {
    fn default() -> Self {
        StreamCatalog {
            streams: Vec::new(),
            selectivities: BTreeMap::new(),
            default_selectivity: 1.0,
            window: 1.0,
        }
    }
}

impl StreamCatalog {
    /// An empty catalog: window 1, and every pair joins at selectivity 1
    /// until [`StreamCatalog::set_default_selectivity`] or
    /// [`StreamCatalog::set_join_selectivity`] says otherwise.
    pub fn new() -> Self {
        StreamCatalog::default()
    }

    /// Registers a stream and returns its id. Panics on a non-finite or
    /// non-positive rate.
    pub fn register(&mut self, name: impl Into<String>, rate: f64, producer: NodeId) -> StreamId {
        check_positive("stream rate", rate);
        let id = StreamId(self.streams.len() as u32);
        self.streams.push(StreamDef { name: name.into(), rate, producer });
        id
    }

    /// Number of registered streams.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// True when no stream is registered.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Looks up one stream. Panics if it is unknown — the optimizer must
    /// never cost a plan over unregistered sources.
    pub fn get(&self, id: StreamId) -> &StreamDef {
        let len = self.len();
        self.streams.get(id.index()).unwrap_or_else(|| unknown_stream(id, len))
    }

    /// Base rate of a stream.
    pub fn rate(&self, id: StreamId) -> f64 {
        self.get(id).rate
    }

    /// Overrides one stream's base rate.
    pub fn set_rate(&mut self, id: StreamId, rate: f64) {
        check_positive("stream rate", rate);
        let len = self.len();
        self.streams.get_mut(id.index()).unwrap_or_else(|| unknown_stream(id, len)).rate = rate;
    }

    /// Sets the selectivity of every pair that
    /// [`StreamCatalog::set_join_selectivity`] does not name.
    pub fn set_default_selectivity(&mut self, sel: f64) {
        check_positive("default join selectivity", sel);
        self.default_selectivity = sel;
    }

    /// Sets the pairwise selectivity between two streams (symmetric).
    pub fn set_join_selectivity(&mut self, a: StreamId, b: StreamId, sel: f64) {
        check_positive("join selectivity", sel);
        self.selectivities.insert((a.min(b), a.max(b)), sel);
    }

    /// Pairwise selectivity (falls back to the default).
    pub fn join_selectivity(&self, a: StreamId, b: StreamId) -> f64 {
        *self.selectivities.get(&(a.min(b), a.max(b))).unwrap_or(&self.default_selectivity)
    }

    /// Sets the join window factor (seconds of stream state joined against).
    pub fn set_window(&mut self, window: f64) {
        check_positive("join window", window);
        self.window = window;
    }
}

fn check_positive(what: &str, value: f64) {
    assert!(value.is_finite() && value > 0.0, "{what} must be positive and finite, got {value}");
}

fn unknown_stream(id: StreamId, len: usize) -> ! {
    panic!("unknown stream {id}: the catalog registers {len}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_assigns_dense_ids() {
        let mut c = StreamCatalog::new();
        let a = c.register("temps", 10.0, NodeId(3));
        let b = c.register("quakes", 2.5, NodeId(7));
        assert_eq!((a, b), (StreamId(0), StreamId(1)));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(b).rate, 2.5);
        assert_eq!(c.get(a).producer, NodeId(3));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        StreamCatalog::new().register("bad", 0.0, NodeId(0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(StreamId(4).to_string(), "s4");
    }

    /// The rate a stream registers with and the rate the model reads are one
    /// value: an override is what `get` reports too.
    #[test]
    fn set_rate_overrides_the_registered_rate() {
        let mut c = StreamCatalog::new();
        let a = c.register("a", 7.0, NodeId(0));
        assert_eq!(c.rate(a), 7.0);
        c.set_rate(a, 3.0);
        assert_eq!((c.rate(a), c.get(a).rate), (3.0, 3.0));
    }
}
