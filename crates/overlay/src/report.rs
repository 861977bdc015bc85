//! Run reports: the time series a simulation produces.

/// One sampled instant of a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Simulation time in milliseconds.
    pub time_ms: f64,
    /// Instantaneous network usage across all circuits
    /// (Σ rate × latency; data in transit).
    pub network_usage: f64,
    /// Cumulative usage integrated up to this instant
    /// (Σ rate × latency × dt, in usage·seconds).
    pub cumulative_usage: f64,
    /// Migrations executed so far.
    pub migrations: usize,
    /// Full circuit replacements so far.
    pub replacements: usize,
    /// Queries running at this instant (the active-query gauge; retained
    /// shared subtrees of departed queries are not counted).
    pub active_queries: usize,
}

/// The full record of one simulation run.
///
/// `PartialEq` compares every sample and counter bit-for-bit — the
/// equality the parallel-tick determinism contract is pinned against
/// (a run on any thread count must equal the serial run exactly).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// Periodic samples in time order.
    pub samples: Vec<Sample>,
    /// Total migrations.
    pub migrations: usize,
    /// Total full-circuit replacements.
    pub replacements: usize,
    /// Network-usage·seconds charged for migrations/replacements
    /// (state-transfer penalty).
    pub adaptation_cost: f64,
    /// Query arrivals (successful `deploy` calls) over the runtime's
    /// lifetime so far.
    pub arrivals: usize,
    /// Query departures (`undeploy` calls) over the runtime's lifetime so
    /// far.
    pub departures: usize,
    /// Arrivals that attached to at least one running operator instance
    /// (multi-query reuse hits; 0 unless reuse is enabled).
    pub reuse_hits: usize,
}

impl RunReport {
    /// Final cumulative usage including adaptation penalties.
    pub fn total_cost(&self) -> f64 {
        self.samples.last().map_or(0.0, |s| s.cumulative_usage) + self.adaptation_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression guard for the empty-sample-set convention: a run that
    /// produced no samples carried no traffic.
    #[test]
    fn empty_report_is_zero() {
        let r = RunReport::default();
        assert_eq!(r.total_cost(), 0.0);
    }

    #[test]
    fn total_cost_includes_adaptation() {
        let r = RunReport {
            samples: vec![Sample {
                time_ms: 1000.0,
                network_usage: 5.0,
                cumulative_usage: 5.0,
                migrations: 1,
                replacements: 0,
                active_queries: 1,
            }],
            migrations: 1,
            replacements: 0,
            adaptation_cost: 2.5,
            ..Default::default()
        };
        assert_eq!(r.total_cost(), 7.5);
    }
}
