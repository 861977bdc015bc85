//! Zipf query-template generation over a shared [`StreamCatalog`].
//!
//! Tenants subscribe to overlapping combinations of a few popular feeds:
//! stream popularity follows a Zipf law, and each arriving query is drawn
//! from a weighted mix of templates — popular-feed joins, fan-in
//! aggregations, and chain filters. Skewed popularity is what makes
//! multi-query reuse pay: the more two tenants' join sets overlap, the more
//! often an arriving circuit finds its subtree already running.

use rand::Rng;

use sbon_core::optimizer::QuerySpec;
use sbon_netsim::graph::NodeId;
use sbon_netsim::rng::Zipf;
use sbon_query::stream::{StreamCatalog, StreamId};

/// One query shape an arriving tenant may ask for.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QueryTemplate {
    /// A `ways`-way join over Zipf-popular feeds delivered to a random
    /// consumer — the bread-and-butter continuous query.
    PopularFeedJoin {
        /// Streams joined (clamped to the catalog size; ≥ 1).
        ways: usize,
    },
    /// A `ways`-way join rolled up by an aggregation before delivery
    /// (fan-in: high input rate, low delivery rate).
    FanInAggregate {
        /// Streams joined (clamped to the catalog size; ≥ 1).
        ways: usize,
        /// Aggregation output ratio in `(0, 1]`.
        ratio: f64,
    },
    /// A single stream pushed through a chain of `filters` selections — the
    /// alert/watchlist shape.
    ChainFilter {
        /// Stacked σ services above the source (≥ 1).
        filters: usize,
        /// Per-filter selectivity in `(0, 1]`.
        selectivity: f64,
    },
}

/// Draws [`QuerySpec`]s from a weighted template mix over one catalog.
///
/// All randomness flows through the caller's RNG: the same generator and
/// RNG seed reproduce the same query sequence bit-for-bit.
///
/// Every drawn query's catalog is a clone of the generator's, and a
/// [`StreamCatalog`] clone shares its body: a draw copies no stream, and
/// thousands of live queries hold one catalog. A write to a drawn query's
/// catalog ([`QuerySpec::with_rate`], [`QuerySpec::with_selectivity`])
/// unshares that query's alone; the generator and every other draw keep
/// theirs.
#[derive(Clone, Debug)]
pub struct QueryGenerator {
    catalog: StreamCatalog,
    zipf: Zipf,
    consumers: Vec<NodeId>,
    /// `(template, cumulative weight)` for roulette selection.
    mix_cdf: Vec<(QueryTemplate, f64)>,
}

impl QueryGenerator {
    /// Builds a generator. `zipf_exponent` skews feed popularity (0 =
    /// uniform); `join_selectivity` becomes the catalog's default pairwise
    /// selectivity; `consumers` are the candidate consumer hosts (drawn
    /// uniformly). Panics on an empty catalog, consumer set, or template
    /// mix, on non-positive weights, and — naming the template and the
    /// value — on a `ChainFilter` selectivity or `FanInAggregate` ratio
    /// outside `(0, 1]`.
    pub fn new(
        mut catalog: StreamCatalog,
        join_selectivity: f64,
        zipf_exponent: f64,
        consumers: Vec<NodeId>,
        mix: &[(QueryTemplate, f64)],
    ) -> Self {
        assert!(!catalog.is_empty(), "need at least one stream");
        assert!(!consumers.is_empty(), "need at least one consumer host");
        assert!(!mix.is_empty(), "need at least one template");
        catalog.set_default_selectivity(join_selectivity);
        let zipf = Zipf::new(catalog.len(), zipf_exponent);
        let mut acc = 0.0;
        let mix_cdf = mix
            .iter()
            .map(|&(t, w)| {
                assert!(w > 0.0 && w.is_finite(), "template weights must be positive");
                if let QueryTemplate::FanInAggregate { ratio: x, .. }
                | QueryTemplate::ChainFilter { selectivity: x, .. } = t
                {
                    assert!(x > 0.0 && x <= 1.0, "{t:?}: fraction must be in (0, 1], got {x}");
                }
                acc += w;
                (t, acc)
            })
            .collect();
        QueryGenerator { catalog, zipf, consumers, mix_cdf }
    }

    /// The catalog the generator draws from.
    pub fn catalog(&self) -> &StreamCatalog {
        &self.catalog
    }

    /// Draws one query.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> QuerySpec {
        let total = self.mix_cdf.last().expect("non-empty mix").1;
        let u = rng.gen_range(0.0..total);
        let template = self
            .mix_cdf
            .iter()
            .find(|&&(_, cum)| u < cum)
            .map(|&(t, _)| t)
            .unwrap_or(self.mix_cdf.last().expect("non-empty mix").0);
        let consumer = self.consumers[rng.gen_range(0..self.consumers.len())];
        match template {
            QueryTemplate::PopularFeedJoin { ways } => {
                let set = self.draw_streams(ways, rng);
                QuerySpec::new(self.catalog.clone(), set, consumer)
            }
            QueryTemplate::FanInAggregate { ways, ratio } => {
                let set = self.draw_streams(ways, rng);
                QuerySpec::new(self.catalog.clone(), set, consumer).with_root_aggregate(ratio)
            }
            QueryTemplate::ChainFilter { filters, selectivity } => {
                let set = self.draw_streams(1, rng);
                let stream = set[0];
                let mut q = QuerySpec::new(self.catalog.clone(), set, consumer);
                for _ in 0..filters.max(1) {
                    q = q.with_source_filter(stream, selectivity);
                }
                q
            }
        }
    }

    /// Draws `ways` *distinct* streams by Zipf popularity (clamped to the
    /// catalog size).
    fn draw_streams<R: Rng + ?Sized>(&self, ways: usize, rng: &mut R) -> Vec<StreamId> {
        let ways = ways.clamp(1, self.catalog.len());
        let mut set: Vec<StreamId> = Vec::with_capacity(ways);
        while set.len() < ways {
            let id = StreamId(self.zipf.sample(rng) as u32);
            if !set.contains(&id) {
                set.push(id);
            }
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbon_netsim::rng::rng_from_seed;

    fn catalog(feeds: usize) -> StreamCatalog {
        let mut c = StreamCatalog::new();
        for i in 0..feeds {
            c.register(format!("feed{i}"), 10.0, NodeId(i as u32));
        }
        c
    }

    fn generator(mix: &[(QueryTemplate, f64)]) -> QueryGenerator {
        QueryGenerator::new(catalog(12), 0.02, 1.2, (20..30).map(NodeId).collect(), mix)
    }

    #[test]
    fn popular_join_draws_distinct_streams() {
        let g = generator(&[(QueryTemplate::PopularFeedJoin { ways: 3 }, 1.0)]);
        let mut rng = rng_from_seed(1);
        for _ in 0..100 {
            let q = g.draw(&mut rng);
            assert_eq!(q.join_set.len(), 3);
            let mut dedup = q.join_set.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "streams must be distinct");
            assert!(q.root_aggregate.is_none());
        }
    }

    #[test]
    fn zipf_skew_prefers_popular_feeds() {
        let g = generator(&[(QueryTemplate::PopularFeedJoin { ways: 2 }, 1.0)]);
        let mut rng = rng_from_seed(2);
        let mut counts = vec![0usize; 12];
        for _ in 0..5_000 {
            for s in g.draw(&mut rng).join_set {
                counts[s.index()] += 1;
            }
        }
        assert!(counts[0] > counts[6], "feed0 must beat mid-rank: {counts:?}");
        assert!(counts[0] > counts[11], "feed0 must beat the tail: {counts:?}");
    }

    #[test]
    fn fan_in_aggregate_decorates_the_root() {
        let g = generator(&[(QueryTemplate::FanInAggregate { ways: 4, ratio: 0.1 }, 1.0)]);
        let mut rng = rng_from_seed(3);
        let q = g.draw(&mut rng);
        assert_eq!(q.join_set.len(), 4);
        assert_eq!(q.root_aggregate, Some(0.1));
    }

    /// A drawn query shares the generator's catalog, and a rate written to
    /// it lands in that query alone: the generator's catalog and an earlier
    /// draw keep every stream as it was.
    #[test]
    fn a_rate_written_to_one_draw_stays_in_that_draw() {
        let g = generator(&[(QueryTemplate::PopularFeedJoin { ways: 2 }, 1.0)]);
        let mut rng = rng_from_seed(9);
        let earlier = g.draw(&mut rng);
        let later = g.draw(&mut rng).with_rate(StreamId(0), 99.0);
        assert_eq!(later.catalog.rate(StreamId(0)), 99.0);
        let untouched = catalog(12);
        for seen in [g.catalog(), &earlier.catalog] {
            assert_eq!(seen.len(), untouched.len());
            for id in (0..12).map(StreamId) {
                assert_eq!(seen.get(id), untouched.get(id), "stream {id}");
            }
            assert_eq!(seen.join_selectivity(StreamId(0), StreamId(1)), 0.02);
        }
    }

    #[test]
    fn chain_filter_stacks_selections_on_one_stream() {
        let g = generator(&[(QueryTemplate::ChainFilter { filters: 3, selectivity: 0.5 }, 1.0)]);
        let mut rng = rng_from_seed(4);
        let q = g.draw(&mut rng);
        assert_eq!(q.join_set.len(), 1);
        assert_eq!(q.source_filters.len(), 3);
        assert!(q.source_filters.iter().all(|&(s, sel)| s == q.join_set[0] && sel == 0.5));
    }

    #[test]
    fn mixed_templates_all_appear() {
        let g = generator(&[
            (QueryTemplate::PopularFeedJoin { ways: 2 }, 3.0),
            (QueryTemplate::FanInAggregate { ways: 3, ratio: 0.2 }, 1.0),
            (QueryTemplate::ChainFilter { filters: 2, selectivity: 0.3 }, 1.0),
        ]);
        let mut rng = rng_from_seed(5);
        let (mut joins, mut aggs, mut chains) = (0, 0, 0);
        for _ in 0..500 {
            let q = g.draw(&mut rng);
            if q.root_aggregate.is_some() {
                aggs += 1;
            } else if !q.source_filters.is_empty() {
                chains += 1;
            } else {
                joins += 1;
            }
        }
        assert!(joins > aggs && joins > chains, "{joins}/{aggs}/{chains}");
        assert!(aggs > 0 && chains > 0);
    }

    #[test]
    fn generation_is_deterministic_by_seed() {
        let g = generator(&[
            (QueryTemplate::PopularFeedJoin { ways: 2 }, 1.0),
            (QueryTemplate::ChainFilter { filters: 1, selectivity: 0.4 }, 1.0),
        ]);
        let draw = || {
            let mut rng = rng_from_seed(7);
            (0..64)
                .map(|_| {
                    let q = g.draw(&mut rng);
                    (q.join_set.clone(), q.consumer, q.source_filters.clone())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(), draw());
    }

    #[test]
    #[should_panic(
        expected = "ChainFilter { filters: 2, selectivity: 0.0 }: fraction must be in (0, 1], got 0"
    )]
    fn chain_filter_selectivity_outside_the_unit_interval_is_rejected() {
        generator(&[(QueryTemplate::ChainFilter { filters: 2, selectivity: 0.0 }, 1.0)]);
    }

    #[test]
    #[should_panic(
        expected = "FanInAggregate { ways: 3, ratio: 1.5 }: fraction must be in (0, 1], got 1.5"
    )]
    fn fan_in_ratio_outside_the_unit_interval_is_rejected() {
        generator(&[
            (QueryTemplate::PopularFeedJoin { ways: 2 }, 1.0),
            (QueryTemplate::FanInAggregate { ways: 3, ratio: 1.5 }, 1.0),
        ]);
    }
}
