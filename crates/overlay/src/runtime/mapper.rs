//! The runtime-owned physical mapper behind [`MapperBackend`]: build, the
//! per-evaluation read view, charging a view's traffic back, the routed
//! settle, and the backend stats. `MapperState` is self-contained — no
//! method takes [`OverlayRuntime`]; `settle` borrows the [`LatencyState`]
//! and [`RuntimeObs`] from its caller.
//!
//! A settle prices every routed message through one
//! `LatencyState::pair_reader` — a row-free `PairReader`, each value
//! bit-identical to the row's — so settling faults in no latency row. The
//! one row `settle` makes resident is the origin member's, which sends
//! every lookup request of the run: the reader serves those requests and
//! each reply to the origin from it, the distance being the same from
//! either end. A registration is a `Register` and its `Ack`: when neither
//! end has a row, the reader's one bidirectional search prices both, the
//! `Ack` from its memo.
//!
//! `impl OverlayRuntime` here **reads** `mapper` and writes nothing.

use sbon_core::costspace::CostSpace;
use sbon_core::placement::{
    DhtMapper, DhtMapperConfig, LiveOracleMapper, MapperCatalog, MapperReadView, PhysicalMapper,
    ReadObservation, RoutedMapper,
};
use sbon_dht::catalog::CatalogStats;
use sbon_dht::proto::RoutedStats;
use sbon_netsim::graph::NodeId;
use sbon_netsim::sim::SimTime;

use super::config::MapperBackend;
use super::latency::LatencyState;
use super::stats::RuntimeObs;
use super::OverlayRuntime;

/// The runtime-owned mapper behind [`MapperBackend`].
#[expect(
    clippy::large_enum_variant,
    reason = "the runtime holds exactly one for its whole lifetime, so the size gap costs one value's slack, not N"
)]
pub(super) enum MapperState {
    Dht(DhtMapper),
    Oracle(LiveOracleMapper),
    Routed(RoutedMapper),
}

impl MapperState {
    /// Builds the configured backend over `space` with `members` registered.
    pub(super) fn build(backend: MapperBackend, space: &CostSpace, members: Vec<NodeId>) -> Self {
        // The catalog backends share one sizing: grid resolution capped so
        // the Hilbert key fits the 128-bit ring whatever the space's
        // dimensionality, and the full scalar range — load churn must never
        // push a registered coordinate outside the quantizer box.
        let catalog_config = |bits: u32, scan_width| DhtMapperConfig {
            bits: bits.min((128 / space.dims() as u32).max(1)),
            scan_width,
            ..DhtMapperConfig::default()
        };
        match backend {
            MapperBackend::Dht { bits, scan_width } => MapperState::Dht(
                DhtMapper::build_with_members(space, &catalog_config(bits, scan_width), &members),
            ),
            MapperBackend::Oracle => {
                MapperState::Oracle(LiveOracleMapper::with_members(space.num_nodes(), members))
            }
            MapperBackend::Routed { bits, scan_width, proto } => {
                MapperState::Routed(RoutedMapper::build_with_members(
                    space,
                    &catalog_config(bits, scan_width),
                    proto,
                    &members,
                ))
            }
        }
    }

    pub(super) fn as_dyn_mut(&mut self) -> &mut dyn PhysicalMapper {
        match self {
            MapperState::Dht(m) => m,
            MapperState::Oracle(m) => m,
            MapperState::Routed(m) => m,
        }
    }

    /// The one catalog both catalog backends answer from; `None` under the
    /// oracle scan.
    fn catalog(&self) -> Option<&MapperCatalog> {
        match self {
            MapperState::Dht(m) => Some(m.catalog()),
            MapperState::Oracle(_) => None,
            MapperState::Routed(m) => Some(m.routed().catalog()),
        }
    }

    fn catalog_mut(&mut self) -> Option<&mut MapperCatalog> {
        match self {
            MapperState::Dht(m) => Some(m.catalog_mut()),
            MapperState::Oracle(_) => None,
            MapperState::Routed(m) => Some(m.routed_mut().catalog_mut()),
        }
    }

    /// A read-only view for one circuit evaluation: answers exactly like
    /// the live mapper, accumulates traffic/read-set observations locally,
    /// and memoises repeated lookups of bit-identical ideal points. The
    /// routed backend hands out the same catalog-only view the DHT backend
    /// does — routed traffic is replayed only for live-path lookups, on the
    /// serial settle points.
    pub(super) fn read_view(&self) -> MapperReadView<'_> {
        match self {
            MapperState::Dht(m) => m.read_view(),
            MapperState::Oracle(m) => m.read_view(),
            MapperState::Routed(m) => MapperReadView::new(m.routed().catalog()),
        }
    }

    /// Folds a read view's deferred catalog traffic back onto the live
    /// mapper (a no-op for the oracle, which has no traffic counters).
    pub(super) fn charge_observed(&mut self, obs: &ReadObservation) {
        if let Some(catalog) = self.catalog_mut() {
            catalog.charge_stats(obs.stats);
        }
    }

    /// Replays lookups and registrations parked by the routed mapper as
    /// message traffic over the live latencies, driving the control
    /// plane's event queue to quiescence. A no-op under the other
    /// backends. Runs only on serial paths (tick boundaries, deploy,
    /// failure handling), so thread count never touches the routed clock.
    ///
    /// Every message is priced by one [`LatencyState::pair_reader`], which
    /// lives as long as the settle. Iterative routing sends every lookup
    /// request from the origin member, so its row is prewarmed first and
    /// serves those and their replies; every other delay is a
    /// point-to-point read that caches no row.
    pub(super) fn settle(&mut self, at: SimTime, latency: &LatencyState, obs: &mut RuntimeObs) {
        let MapperState::Routed(m) = self else { return };
        if m.pending_traffic() == 0 && m.routed().is_quiescent() {
            return;
        }
        if let Some(origin) = m.origin_member() {
            latency.provider().ensure_rows(&[NodeId(origin)], None);
        }
        let counts = |m: &RoutedMapper| {
            let rs = m.routed_stats();
            [rs.messages, rs.lookups, rs.registrations, rs.timeouts]
        };
        let before = counts(m);
        let pair_settles = || latency.provider().stats().pair_vertices_settled;
        let settled_before = pair_settles();
        let pairs = latency.pair_reader();
        let link = |a: u32, b: u32| pairs(NodeId(a), NodeId(b));
        m.settle(at, &link);
        let after = counts(m);
        let [msgs, lookups, regs, timeouts] = std::array::from_fn(|i| after[i] - before[i]);
        let settled = pair_settles() - settled_before;
        obs.point("routed.settle", || {
            vec![
                ("messages", msgs.into()),
                ("lookups", lookups.into()),
                ("registrations", regs.into()),
                ("timeouts", timeouts.into()),
                ("settled", settled.into()),
            ]
        });
    }
}

impl OverlayRuntime {
    /// Name of the active physical-mapping backend.
    pub fn mapper_name(&self) -> &'static str {
        match &self.mapper {
            MapperState::Dht(m) => m.name(),
            MapperState::Oracle(m) => m.name(),
            MapperState::Routed(m) => m.name(),
        }
    }

    /// Catalog traffic counters of the DHT mapper; `None` under the oracle
    /// backend.
    pub fn dht_stats(&self) -> Option<CatalogStats> {
        self.mapper.catalog().map(|catalog| catalog.stats())
    }

    /// Message-traffic statistics of the routed control plane; `None`
    /// under the other backends.
    pub fn routed_stats(&self) -> Option<&RoutedStats> {
        match &self.mapper {
            MapperState::Routed(m) => Some(m.routed_stats()),
            _ => None,
        }
    }
}
