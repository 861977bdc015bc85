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
use std::sync::Arc;

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
///
/// **Copy on write.** The streams, selectivities, default selectivity and
/// window live in one shared body: a `clone` shares it (a reference-count
/// bump, so every query drawn from one catalog costs no copy of it), and the
/// first write through any writer — [`StreamCatalog::register`],
/// [`StreamCatalog::set_rate`], [`StreamCatalog::set_default_selectivity`],
/// [`StreamCatalog::set_join_selectivity`], [`StreamCatalog::set_window`] —
/// unshares that one handle, leaving every other clone as it was. The body
/// is behind an `Arc`, not an `Rc`: re-optimization reads queries' catalogs
/// from the thread pool.
#[derive(Clone, Debug, Default)]
pub struct StreamCatalog {
    body: Arc<CatalogBody>,
}

/// What a [`StreamCatalog`] shares between its clones.
#[derive(Clone, Debug)]
struct CatalogBody {
    /// Dense by [`StreamId`].
    streams: Vec<StreamDef>,
    /// Pairwise join selectivities keyed `(low id, high id)`; a pair not
    /// listed joins at `default_selectivity`.
    selectivities: BTreeMap<(StreamId, StreamId), f64>,
    default_selectivity: f64,
    /// Seconds of stream state a join matches against.
    window: f64,
}

impl Default for CatalogBody {
    fn default() -> Self {
        CatalogBody {
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

    /// The body to write, unshared from every other clone first.
    fn body_mut(&mut self) -> &mut CatalogBody {
        Arc::make_mut(&mut self.body)
    }

    /// Registers a stream and returns its id. Panics on a non-finite or
    /// non-positive rate.
    pub fn register(&mut self, name: impl Into<String>, rate: f64, producer: NodeId) -> StreamId {
        check_positive("stream rate", rate);
        let id = StreamId(self.len() as u32);
        self.body_mut().streams.push(StreamDef { name: name.into(), rate, producer });
        id
    }

    /// Number of registered streams.
    pub fn len(&self) -> usize {
        self.body.streams.len()
    }

    /// True when no stream is registered.
    pub fn is_empty(&self) -> bool {
        self.body.streams.is_empty()
    }

    /// Looks up one stream. Panics if it is unknown — the optimizer must
    /// never cost a plan over unregistered sources.
    pub fn get(&self, id: StreamId) -> &StreamDef {
        let len = self.len();
        self.body.streams.get(id.index()).unwrap_or_else(|| unknown_stream(id, len))
    }

    /// Base rate of a stream.
    pub fn rate(&self, id: StreamId) -> f64 {
        self.get(id).rate
    }

    /// Overrides one stream's base rate.
    pub fn set_rate(&mut self, id: StreamId, rate: f64) {
        check_positive("stream rate", rate);
        let len = self.len();
        let stream = self.body_mut().streams.get_mut(id.index());
        stream.unwrap_or_else(|| unknown_stream(id, len)).rate = rate;
    }

    /// Sets the selectivity of every pair that
    /// [`StreamCatalog::set_join_selectivity`] does not name.
    pub fn set_default_selectivity(&mut self, sel: f64) {
        check_positive("default join selectivity", sel);
        self.body_mut().default_selectivity = sel;
    }

    /// Sets the pairwise selectivity between two streams (symmetric).
    pub fn set_join_selectivity(&mut self, a: StreamId, b: StreamId, sel: f64) {
        check_positive("join selectivity", sel);
        self.body_mut().selectivities.insert((a.min(b), a.max(b)), sel);
    }

    /// Pairwise selectivity (falls back to the default).
    pub fn join_selectivity(&self, a: StreamId, b: StreamId) -> f64 {
        let body = &*self.body;
        *body.selectivities.get(&(a.min(b), a.max(b))).unwrap_or(&body.default_selectivity)
    }

    /// Sets the join window factor (seconds of stream state joined against).
    pub fn set_window(&mut self, window: f64) {
        check_positive("join window", window);
        self.body_mut().window = window;
    }

    /// The join window factor.
    pub(crate) fn window(&self) -> f64 {
        self.body.window
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

    /// A catalog with every field off its default: two streams, a default
    /// and a pairwise selectivity, a window.
    fn populated() -> StreamCatalog {
        let mut c = StreamCatalog::new();
        let a = c.register("a", 7.0, NodeId(1));
        let b = c.register("b", 3.0, NodeId(2));
        c.set_default_selectivity(0.2);
        c.set_join_selectivity(a, b, 0.05);
        c.set_window(1.5);
        c
    }

    /// Every field, floats by bits: what "bit-identical" means for a body.
    fn fingerprint(c: &StreamCatalog) -> String {
        let b = &*c.body;
        let streams: Vec<_> =
            b.streams.iter().map(|s| (s.name.clone(), s.rate.to_bits(), s.producer)).collect();
        let sels: Vec<_> = b.selectivities.iter().map(|(k, v)| (*k, v.to_bits())).collect();
        format!("{streams:?} {sels:?} {} {}", b.default_selectivity.to_bits(), b.window.to_bits())
    }

    /// Each writer, applied to a catalog.
    const WRITERS: [fn(&mut StreamCatalog); 5] = [
        |c| {
            c.register("c", 9.0, NodeId(3));
        },
        |c| c.set_rate(StreamId(0), 11.0),
        |c| c.set_default_selectivity(0.7),
        |c| c.set_join_selectivity(StreamId(1), StreamId(0), 0.9),
        |c| c.set_window(4.0),
    ];

    #[test]
    fn a_clone_shares_its_body_until_its_first_write() {
        for write in WRITERS {
            let original = populated();
            let mut copy = original.clone();
            assert!(Arc::ptr_eq(&original.body, &copy.body), "a clone is a refcount bump");
            write(&mut copy);
            assert!(!Arc::ptr_eq(&original.body, &copy.body), "a write unshares the clone");
            let body = Arc::as_ptr(&copy.body);
            write(&mut copy);
            assert_eq!(Arc::as_ptr(&copy.body), body, "an unshared body is written in place");
        }
    }

    /// A write through either handle leaves the other bit-identical, and the
    /// written one differs.
    #[test]
    fn a_write_to_one_clone_leaves_the_other_bit_identical() {
        for (i, write) in WRITERS.into_iter().enumerate() {
            let before = fingerprint(&populated());
            // The clone written, the original read; then the reverse.
            let original = populated();
            let mut copy = original.clone();
            write(&mut copy);
            assert_eq!(fingerprint(&original), before, "writer {i} on the clone");
            assert_ne!(fingerprint(&copy), before, "writer {i} wrote nothing");
            let mut original = populated();
            let copy = original.clone();
            write(&mut original);
            assert_eq!(fingerprint(&copy), before, "writer {i} on the original");
        }
    }
}
