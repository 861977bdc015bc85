//! The metrics registry: named counters, gauges, and histograms with a
//! diffable point-in-time snapshot.
//!
//! Registration resolves a `subsystem.name` key to a typed
//! handle once; the hot path then increments through the handle — a plain
//! `Vec` index, no map lookup, no allocation — so instrumented code costs
//! the same as the ad-hoc struct fields it replaced. Keys live in
//! `BTreeMap`s and snapshots render in key order, so every view of the
//! registry is deterministic.

use std::collections::BTreeMap;
use std::fmt;

use crate::hist::Histogram;

/// The rendered identity of one metric: `subsystem.name`.
fn key(subsystem: &str, name: &str) -> String {
    format!("{subsystem}.{name}")
}

/// Handle to a registered counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistId(usize);

#[derive(Clone, Copy, Debug)]
enum Slot {
    Counter(usize),
    Gauge(usize),
    Hist(usize),
}

/// The registry. See the module docs for the handle-based design.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    index: BTreeMap<String, Slot>,
    counter_keys: Vec<String>,
    counters: Vec<u64>,
    gauge_keys: Vec<String>,
    gauges: Vec<f64>,
    hist_keys: Vec<String>,
    hists: Vec<Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Registers (or re-resolves) a counter. Panics if the key is already
    /// registered as a different metric kind.
    pub fn counter(&mut self, subsystem: &str, name: &str) -> CounterId {
        let key = key(subsystem, name);
        match self.index.get(&key) {
            Some(Slot::Counter(i)) => CounterId(*i),
            Some(_) => panic!("{key} is already registered as a non-counter"),
            None => {
                let i = self.counters.len();
                self.counters.push(0);
                self.counter_keys.push(key.clone());
                self.index.insert(key, Slot::Counter(i));
                CounterId(i)
            }
        }
    }

    /// Adds to a counter.
    #[inline]
    pub fn inc(&mut self, id: CounterId, by: u64) {
        self.counters[id.0] += by;
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0]
    }

    /// Registers (or re-resolves) a gauge.
    pub fn gauge(&mut self, subsystem: &str, name: &str) -> GaugeId {
        let key = key(subsystem, name);
        match self.index.get(&key) {
            Some(Slot::Gauge(i)) => GaugeId(*i),
            Some(_) => panic!("{key} is already registered as a non-gauge"),
            None => {
                let i = self.gauges.len();
                self.gauges.push(0.0);
                self.gauge_keys.push(key.clone());
                self.index.insert(key, Slot::Gauge(i));
                GaugeId(i)
            }
        }
    }

    /// Adds to a gauge (accumulation order is the caller's call order, so
    /// serial call sites stay bit-deterministic).
    #[inline]
    pub fn gauge_add(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0] += v;
    }

    /// Current value of a gauge.
    pub fn gauge_value(&self, id: GaugeId) -> f64 {
        self.gauges[id.0]
    }

    /// Registers (or re-resolves) a histogram with no fixed buckets.
    pub fn histogram(&mut self, subsystem: &str, name: &str) -> HistId {
        self.histogram_with(subsystem, name, Histogram::new())
    }

    /// Registers a histogram with an explicit (possibly bucketed)
    /// prototype; re-resolves if already present.
    pub fn histogram_with(&mut self, subsystem: &str, name: &str, proto: Histogram) -> HistId {
        let key = key(subsystem, name);
        match self.index.get(&key) {
            Some(Slot::Hist(i)) => HistId(*i),
            Some(_) => panic!("{key} is already registered as a non-histogram"),
            None => {
                let i = self.hists.len();
                self.hists.push(proto);
                self.hist_keys.push(key.clone());
                self.index.insert(key, Slot::Hist(i));
                HistId(i)
            }
        }
    }

    /// Records one sample into a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistId, v: f64) {
        self.hists[id.0].record(v);
    }

    /// Read access to a registered histogram.
    pub fn hist(&self, id: HistId) -> &Histogram {
        &self.hists[id.0]
    }

    /// A point-in-time snapshot of every registered metric, in key order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for (key, v) in self.counter_keys.iter().zip(&self.counters) {
            snap.counters.insert(key.clone(), *v);
        }
        for (key, v) in self.gauge_keys.iter().zip(&self.gauges) {
            snap.gauges.insert(key.clone(), *v);
        }
        for (key, h) in self.hist_keys.iter().zip(&self.hists) {
            snap.histograms.insert(key.clone(), HistogramSnapshot::of(h));
        }
        snap
    }
}

/// Frozen summary of one histogram at snapshot time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Sample count.
    pub count: u64,
    /// Sample sum.
    pub sum: f64,
    /// Minimum (0 when empty).
    pub min: f64,
    /// Maximum (0 when empty).
    pub max: f64,
    /// Interpolated median.
    pub p50: f64,
    /// Interpolated 99th percentile.
    pub p99: f64,
    /// Fixed-bucket counts (empty when the histogram has no buckets).
    pub bucket_counts: Vec<u64>,
}

impl HistogramSnapshot {
    /// Summarizes a histogram.
    pub fn of(h: &Histogram) -> HistogramSnapshot {
        HistogramSnapshot {
            count: h.count(),
            sum: h.sum(),
            min: h.min().unwrap_or(0.0),
            max: h.max().unwrap_or(0.0),
            p50: h.quantile_interpolated(0.50),
            p99: h.quantile_interpolated(0.99),
            bucket_counts: h.bucket_counts().to_vec(),
        }
    }
}

/// A diffable point-in-time view of a [`MetricsRegistry`], keyed by
/// rendered metric name. All maps are `BTreeMap`s; iteration and
/// [`fmt::Display`] output are deterministic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The change from `earlier` to `self`: counters and bucket counts
    /// subtract (saturating — a metric absent earlier diffs from zero),
    /// gauges and histogram sums subtract arithmetically. Order statistics
    /// (`min`/`max`/`p50`/`p99`) are not diffable; the diff carries
    /// `self`'s values as the better-than-nothing point-in-time reading.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        for (k, v) in out.counters.iter_mut() {
            *v = v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0));
        }
        for (k, v) in out.gauges.iter_mut() {
            *v -= earlier.gauges.get(k).copied().unwrap_or(0.0);
        }
        for (k, h) in out.histograms.iter_mut() {
            if let Some(e) = earlier.histograms.get(k) {
                h.count = h.count.saturating_sub(e.count);
                h.sum -= e.sum;
                for (b, eb) in h.bucket_counts.iter_mut().zip(&e.bucket_counts) {
                    *b = b.saturating_sub(*eb);
                }
            }
        }
        out
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.counters {
            writeln!(f, "{k} = {v}")?;
        }
        for (k, v) in &self.gauges {
            writeln!(f, "{k} = {v:.3}")?;
        }
        for (k, h) in &self.histograms {
            writeln!(
                f,
                "{k}: n={} mean={:.3} p50={:.3} p99={:.3} max={:.3}",
                h.count,
                if h.count == 0 { 0.0 } else { h.sum / h.count as f64 },
                h.p50,
                h.p99,
                h.max,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_resolve_idempotently() {
        let mut r = MetricsRegistry::new();
        let a = r.counter("cp", "ticks");
        let b = r.counter("cp", "ticks");
        assert_eq!(a, b);
        r.inc(a, 2);
        r.inc(b, 3);
        assert_eq!(r.counter_value(a), 5);
    }

    #[test]
    #[should_panic(expected = "non-counter")]
    fn kind_conflict_panics() {
        let mut r = MetricsRegistry::new();
        r.gauge("cp", "x");
        r.counter("cp", "x");
    }

    #[test]
    fn snapshot_diff_subtracts_counters_and_buckets() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("cp", "ticks");
        let h = r.histogram_with("cp", "lat", crate::hist::Histogram::with_bounds(vec![1.0]));
        r.inc(c, 4);
        r.observe(h, 0.5);
        let early = r.snapshot();
        r.inc(c, 6);
        r.observe(h, 2.0);
        let late = r.snapshot();
        let d = late.diff(&early);
        assert_eq!(d.counters["cp.ticks"], 6);
        assert_eq!(d.histograms["cp.lat"].count, 1);
        assert_eq!(d.histograms["cp.lat"].bucket_counts, vec![0, 1]);
    }
}
