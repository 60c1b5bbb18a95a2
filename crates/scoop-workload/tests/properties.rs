//! Property-based tests for the workload generators: every source stays in
//! its domain for arbitrary nodes and times, and the query generator always
//! produces well-formed queries within the configured width band.

use proptest::prelude::*;
use scoop_types::{
    Attribute, DataSourceKind, NodeId, QueryWorkloadConfig, SimDuration, SimTime, ValueRange,
};
use scoop_workload::{make_source, QueryGenerator};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every data source produces values inside its configured domain for any
    /// node id and sample time, and is reproducible from its seed.
    #[test]
    fn sources_respect_domain_and_are_deterministic(
        kind_idx in 0usize..5,
        num_nodes in 2usize..80,
        seed in 0u64..1000,
        lo in 0i32..50,
        width in 5i32..200,
        times in proptest::collection::vec(0u64..4000, 1..40),
    ) {
        let kind = DataSourceKind::ALL[kind_idx];
        let domain = ValueRange::new(lo, lo + width);
        let a = make_source(kind, domain, num_nodes, seed);
        let b = make_source(kind, domain, num_nodes, seed);
        for (i, &t) in times.iter().enumerate() {
            let node = NodeId((i % num_nodes + 1) as u16);
            let now = SimTime::from_secs(t);
            let va = a.sample(node, now);
            let vb = b.sample(node, now);
            prop_assert!(domain.contains(va), "{kind}: {va} outside {domain}");
            prop_assert_eq!(va, vb, "{} not deterministic", kind);
        }
    }

    /// Queries always lie inside the domain and inside the requested width
    /// band, and their time window never extends into the future.
    #[test]
    fn query_generator_produces_well_formed_queries(
        seed in 0u64..1000,
        min_frac in 0.005f64..0.2,
        extra_frac in 0.0f64..0.3,
        issue_times in proptest::collection::vec(0u64..10_000, 1..50),
    ) {
        let domain = ValueRange::new(0, 149);
        let cfg = QueryWorkloadConfig {
            query_interval: SimDuration::from_secs(15),
            min_width_frac: min_frac,
            max_width_frac: (min_frac + extra_frac).min(1.0),
            history_samples: 8,
        };
        let mut gen = QueryGenerator::new(Attribute::Light, domain, cfg.clone(), SimDuration::from_secs(15), seed);
        for &t in &issue_times {
            let now = SimTime::from_secs(t);
            let q = gen.next_query(now);
            prop_assert!(domain.covers(&q.values), "query {:?} outside domain", q.values);
            let frac = q.width_fraction(&domain);
            // Rounding to whole values can push the width slightly past the
            // bound; allow one value of slack.
            let slack = 1.0 / domain.width() as f64;
            prop_assert!(frac + 1e-9 >= cfg.min_width_frac.min(1.0) - slack);
            prop_assert!(frac <= cfg.max_width_frac + slack, "width {frac}");
            prop_assert!(q.time_hi == now);
            prop_assert!(q.time_lo <= q.time_hi);
            prop_assert_eq!(q.issued_at, now);
        }
    }
}
