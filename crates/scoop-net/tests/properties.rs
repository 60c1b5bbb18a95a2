//! Property-based tests for the network substrate: topology generators and
//! the link model must uphold their structural invariants for any size and
//! seed.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scoop_net::{FaultSchedule, LinkModel, NodePosition, Topology};
use scoop_types::{LinkSpec, NodeId, ScoopError, SimTime, TopologyKind, TopologySpec};
use std::time::{Duration, Instant};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Office-floor topologies of any supported size are connected, have
    /// symmetric radio-range adjacency, and keep every sensor within a
    /// bounded number of hops of the basestation.
    #[test]
    fn office_floor_structural_invariants(nodes in 4usize..100, seed in 0u64..500) {
        let topo = Topology::office_floor(nodes, seed).expect("within limits");
        prop_assert_eq!(topo.len(), nodes + 1);
        prop_assert!(topo.is_connected());
        // Adjacency is symmetric because range is distance-based.
        for a in topo.nodes() {
            for &b in topo.neighbors(a) {
                prop_assert!(topo.in_range(b, a), "asymmetric adjacency {a} {b}");
            }
        }
        // Depth stays moderate: the generator aims for a multi-hop but not
        // degenerate network.
        prop_assert!(topo.network_depth() >= 1);
        prop_assert!(topo.network_depth() <= 16, "depth {}", topo.network_depth());
    }

    /// Hop distances satisfy the triangle inequality over the radio graph.
    #[test]
    fn hop_distance_triangle_inequality(seed in 0u64..100) {
        let topo = Topology::office_floor(20, seed).expect("topology");
        let nodes: Vec<NodeId> = topo.nodes().collect();
        for &a in nodes.iter().step_by(3) {
            for &b in nodes.iter().step_by(4) {
                for &c in nodes.iter().step_by(5) {
                    if let (Some(ab), Some(bc), Some(ac)) = (
                        topo.hop_distance(a, b),
                        topo.hop_distance(b, c),
                        topo.hop_distance(a, c),
                    ) {
                        prop_assert!(ac <= ab + bc, "{a}->{c} {ac} > {a}->{b} {ab} + {b}->{c} {bc}");
                    }
                }
            }
        }
    }

    /// Link delivery probabilities are always within [0, 1], dead outside
    /// radio range, and usable (eventually deliverable) within range.
    #[test]
    fn link_model_probability_bounds(nodes in 4usize..60, seed in 0u64..300) {
        let topo = Topology::office_floor(nodes, seed).expect("topology");
        let links = LinkModel::from_spec(&LinkSpec::legacy(), &topo, seed).expect("valid spec");
        for a in topo.nodes() {
            for b in topo.nodes() {
                let q = links.link(a, b);
                prop_assert!((0.0..=1.0).contains(&q.delivery_prob));
                if a == b {
                    prop_assert!(!q.is_usable());
                } else if topo.in_range(a, b) {
                    prop_assert!(q.is_usable(), "in-range link {a}->{b} must be usable");
                    prop_assert!(q.etx() >= 1.0);
                } else {
                    prop_assert!(!q.is_usable(), "out-of-range link {a}->{b} must be dead");
                }
            }
        }
    }

    /// Grid topologies have the expected regular structure regardless of
    /// spacing.
    #[test]
    fn grid_structure(side in 2usize..8, spacing in 1.0f64..50.0) {
        let topo = Topology::grid(side, spacing).expect("grid");
        prop_assert_eq!(topo.len(), side * side);
        prop_assert!(topo.is_connected());
        // Corner nodes always have exactly 3 neighbors.
        prop_assert_eq!(topo.neighbors(NodeId(0)).len(), 3);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Topology::from_positions`'s binned CSR adjacency equals the all-pairs
    /// scan — same sets, same ascending order — on arbitrary geometry: random
    /// clouds, collinear points and stacks of coincident points, with ranges
    /// from 10⁻³ × the arena (the cell grid must coarsen) to beyond the
    /// arena (everything lands in one cell).
    #[test]
    fn csr_adjacency_matches_the_all_pairs_oracle_on_arbitrary_geometry(
        shape in 0usize..3,
        raw in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 2..160),
        arena_log10 in -2.0f64..4.0,
        range_log10 in -3.0f64..0.5,
        slope in -3.0f64..3.0,
    ) {
        let arena = 10f64.powf(arena_log10);
        let positions: Vec<NodePosition> = raw
            .iter()
            .map(|&(u, v)| match shape {
                // A random cloud.
                0 => NodePosition { x: u * arena, y: v * arena },
                // Collinear points on a line of random slope.
                1 => NodePosition { x: u * arena, y: slope * u * arena },
                // Coincident points: every node sits on one of four spots.
                _ => {
                    let (x, y) = raw[(u * 4.0) as usize % raw.len()];
                    NodePosition { x: x * arena, y: y * arena }
                }
            })
            .collect();
        let range = arena * 10f64.powf(range_log10);
        let topo = Topology::from_positions(TopologyKind::UniformRandom, positions.clone(), range)
            .expect("finite positions");
        for (i, p) in positions.iter().enumerate() {
            let oracle: Vec<NodeId> = positions
                .iter()
                .enumerate()
                .filter(|&(j, q)| j != i && p.distance(q) <= range)
                .map(|(j, _)| NodeId(j as u16))
                .collect();
            prop_assert_eq!(
                topo.neighbors(NodeId(i as u16)),
                oracle.as_slice(),
                "node {} (shape {}, {} nodes, range {})",
                i, shape, positions.len(), range
            );
        }
    }

    /// The link model's memoized `powf` shaping is bit-identical to calling
    /// `powf` on every link: each CSR entry's probability equals the
    /// unmemoized formula, recomputed here from the same seeded noise stream,
    /// for the calibrated exponent and for arbitrary ones in (0, 64].
    #[test]
    fn shaped_link_probabilities_equal_the_unmemoized_formula(
        kind_index in 0usize..TopologyKind::ALL.len(),
        nodes in 2usize..120,
        seed in 0u64..500,
        calibrated in 0usize..2,
        offset in 0.0f64..64.0,
    ) {
        let spec = TopologySpec {
            kind: TopologyKind::ALL[kind_index],
            ..TopologySpec::office_floor()
        };
        let topo = Topology::connected(&spec, nodes, seed).expect("within limits");
        let link = LinkSpec {
            distance_exponent: if calibrated == 1 {
                LinkSpec::calibrated().distance_exponent
            } else {
                64.0 - offset
            },
            ..LinkSpec::calibrated()
        };
        let links = LinkModel::from_spec(&link, &topo, seed).expect("valid spec");
        let (max_delivery, min_delivery) = (link.max_delivery(), link.edge_delivery);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x11d4_11d4);
        for a in topo.nodes() {
            let mut expected = Vec::new();
            for &b in topo.neighbors(a) {
                let d = topo.distance(a, b).expect("both exist");
                let frac = (d / topo.radio_range()).clamp(0.0, 1.0);
                let shaped = if link.distance_exponent == 1.0 {
                    frac
                } else {
                    frac.powf(link.distance_exponent)
                };
                let base = max_delivery - shaped * (max_delivery - min_delivery);
                let noise: f64 = (rng.gen_range(-1.0..1.0) + rng.gen_range(-1.0..1.0)) / 2.0
                    * link.asymmetry_noise
                    * 2.0;
                let p = (base + noise).clamp(min_delivery * 0.5, max_delivery);
                if p > 0.0 {
                    expected.push((b, p.clamp(0.0, 1.0).to_bits()));
                }
            }
            let (row_nodes, row_probs) = links.neighbors(a);
            let got: Vec<(NodeId, u64)> = row_nodes
                .iter()
                .zip(row_probs)
                .map(|(&node, p)| (node, p.to_bits()))
                .collect();
            prop_assert_eq!(
                got, expected,
                "row {} ({:?}, {} nodes, seed {}, exponent {})",
                a, spec.kind, nodes, seed, link.distance_exponent
            );
        }
    }
}

/// Two nodes 10¹² m apart with a 1 mm range would need 10³⁰ cells of side
/// `radio_range`; the coarsened grid keeps the build O(n) and fast.
#[test]
fn far_apart_nodes_with_a_tiny_range_build_quickly() {
    let positions = vec![
        NodePosition { x: 0.0, y: 0.0 },
        NodePosition { x: 1e12, y: -1e12 },
    ];
    let start = Instant::now();
    let topo = Topology::from_positions(TopologyKind::UniformRandom, positions, 1e-3)
        .expect("finite positions");
    let elapsed = start.elapsed();
    assert!(topo.neighbors(NodeId(0)).is_empty());
    assert!(topo.neighbors(NodeId(1)).is_empty());
    assert!(
        elapsed < Duration::from_millis(100),
        "a two-node build took {elapsed:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The engine's CSR neighbor table visits exactly the nodes the
    /// historical dense-row scan visited — same set, same ascending order,
    /// same (pre-clamped) delivery probabilities — for every placement
    /// family, node count, and seed. This is the structural half of the
    /// byte-identical-RNG guarantee: one `gen_bool` per listed neighbor in
    /// listing order reproduces the old random stream exactly.
    #[test]
    fn csr_neighbor_table_matches_dense_row_scan(
        kind_index in 0usize..TopologyKind::ALL.len(),
        nodes in 2usize..80,
        seed in 0u64..200,
    ) {
        let spec = TopologySpec {
            kind: TopologyKind::ALL[kind_index],
            ..TopologySpec::office_floor()
        };
        let topo = Topology::connected(&spec, nodes, seed).expect("within limits");
        let links = LinkModel::from_spec(&LinkSpec::legacy(), &topo, seed).expect("valid spec");
        for a in topo.nodes() {
            // The old dense scan, reimplemented verbatim as the oracle.
            let (dense_nodes, dense_probs): (Vec<NodeId>, Vec<f64>) = (0..links.len())
                .map(|i| NodeId(i as u16))
                .filter(|&m| m != a && links.link(a, m).is_usable())
                .map(|m| (m, links.link(a, m).delivery_prob.clamp(0.0, 1.0)))
                .unzip();
            prop_assert_eq!(
                links.neighbors(a), (dense_nodes.as_slice(), dense_probs.as_slice()),
                "CSR row of {} diverges from the dense scan ({:?}, {} nodes, seed {})",
                a, spec.kind, nodes, seed
            );
        }
    }

    /// Reliability is monotone in the loss floor: with everything else held
    /// fixed (topology, seed — hence the exact same per-pair noise draws —
    /// edge delivery, exponent, noise level), lowering `loss_floor` toward 0
    /// never lowers any directed link's delivery probability, for every
    /// topology kind. This is the soundness property the calibration
    /// subsystem leans on when it reads the grid: gentler floors cannot
    /// secretly hurt delivery.
    #[test]
    fn delivery_is_monotone_as_loss_floor_falls(
        kind_index in 0usize..TopologyKind::ALL.len(),
        nodes in 4usize..48,
        seed in 0u64..200,
        floor_harsh in 0.05f64..0.8,
        floor_scale in 0.0f64..1.0,
    ) {
        let spec = TopologySpec {
            kind: TopologyKind::ALL[kind_index],
            ..TopologySpec::office_floor()
        };
        let topo = Topology::connected(&spec, nodes, seed).expect("within limits");
        let defaults = LinkSpec::default();
        let harsh_spec = LinkSpec {
            loss_floor: floor_harsh,
            edge_delivery: defaults.edge_delivery.min(1.0 - floor_harsh),
            ..defaults
        };
        let gentle_spec = LinkSpec {
            loss_floor: floor_harsh * floor_scale,
            ..harsh_spec
        };
        let harsh = LinkModel::from_spec(&harsh_spec, &topo, seed).expect("valid spec");
        let gentle = LinkModel::from_spec(&gentle_spec, &topo, seed).expect("valid spec");
        for a in topo.nodes() {
            for b in topo.nodes() {
                prop_assert!(
                    gentle.link(a, b).delivery_prob >= harsh.link(a, b).delivery_prob,
                    "lowering loss_floor {floor_harsh} -> {} reduced delivery {a}->{b}",
                    gentle_spec.loss_floor
                );
            }
        }
        prop_assert!(gentle.mean_loss() <= harsh.mean_loss());
    }

    /// Reliability is monotone in the edge delivery: raising `edge_delivery`
    /// toward 1 (capped by `1 - loss_floor`) never lowers any directed
    /// link's delivery probability, for every topology kind.
    #[test]
    fn delivery_is_monotone_as_edge_delivery_rises(
        kind_index in 0usize..TopologyKind::ALL.len(),
        nodes in 4usize..48,
        seed in 0u64..200,
        floor in 0.0f64..0.5,
        edge_low in 0.01f64..0.4,
        edge_lift in 0.0f64..1.0,
    ) {
        let spec = TopologySpec {
            kind: TopologyKind::ALL[kind_index],
            ..TopologySpec::office_floor()
        };
        let topo = Topology::connected(&spec, nodes, seed).expect("within limits");
        let low_spec = LinkSpec {
            loss_floor: floor,
            edge_delivery: edge_low.min(1.0 - floor),
            ..LinkSpec::default()
        };
        let high_spec = LinkSpec {
            edge_delivery: low_spec.edge_delivery
                + edge_lift * (1.0 - floor - low_spec.edge_delivery),
            ..low_spec
        };
        let low = LinkModel::from_spec(&low_spec, &topo, seed).expect("valid spec");
        let high = LinkModel::from_spec(&high_spec, &topo, seed).expect("valid spec");
        for a in topo.nodes() {
            for b in topo.nodes() {
                prop_assert!(
                    high.link(a, b).delivery_prob >= low.link(a, b).delivery_prob,
                    "raising edge_delivery {} -> {} reduced delivery {a}->{b}",
                    low_spec.edge_delivery, high_spec.edge_delivery
                );
            }
        }
        prop_assert!(high.mean_loss() <= low.mean_loss());
    }

    /// Adversarially *extreme but valid* LinkSpec values — floors at the top
    /// of the range, edge deliveries near the cap, exponents up to the
    /// maximum, huge asymmetry noise — always yield a CSR neighbor table
    /// whose pre-clamped probabilities land in [0, 1], for every topology
    /// kind. The engine samples these without a per-draw clamp, so an
    /// out-of-range entry here would corrupt the loss model silently.
    #[test]
    fn csr_probabilities_stay_in_unit_range_for_extreme_specs(
        kind_index in 0usize..TopologyKind::ALL.len(),
        nodes in 2usize..40,
        seed in 0u64..200,
        floor in 0.0f64..0.89,
        exponent in 0.05f64..64.0,
        noise in 0.0f64..10.0,
    ) {
        let spec = TopologySpec {
            kind: TopologyKind::ALL[kind_index],
            ..TopologySpec::office_floor()
        };
        let topo = Topology::connected(&spec, nodes, seed).expect("within limits");
        let link_spec = LinkSpec {
            loss_floor: floor,
            edge_delivery: (1.0 - floor).min(0.99),
            distance_exponent: exponent,
            asymmetry_noise: noise,
            ..LinkSpec::default()
        };
        link_spec.validate().expect("spec is in the valid range");
        let links = LinkModel::from_spec(&link_spec, &topo, seed).expect("valid spec");
        for a in topo.nodes() {
            let (nodes, probs) = links.neighbors(a);
            for (&node, &p) in nodes.iter().zip(probs) {
                prop_assert!(
                    (0.0..=1.0).contains(&p) && p > 0.0,
                    "CSR entry {a}->{} carries probability {}",
                    node, p
                );
                prop_assert!(p.is_finite());
            }
        }
    }

    /// The spec-driven generator — the path `build_engine` builds every
    /// experiment through — yields a connected topology for *every* placement
    /// family at any supported node count and seed: the basestation (node 0)
    /// is reachable from every node.
    #[test]
    fn every_topology_spec_is_connected(
        kind_index in 0usize..TopologyKind::ALL.len(),
        nodes in 2usize..120,
        seed in 0u64..300,
    ) {
        let spec = TopologySpec {
            kind: TopologyKind::ALL[kind_index],
            ..TopologySpec::office_floor()
        };
        let topo = Topology::connected(&spec, nodes, seed).expect("within limits");
        prop_assert_eq!(topo.len(), nodes + 1);
        prop_assert!(topo.is_connected(), "{:?} disconnected at {} nodes seed {}",
            spec.kind, nodes, seed);
        for n in topo.nodes() {
            prop_assert!(
                topo.hop_distance(n, NodeId::BASESTATION).is_some(),
                "node {n} cannot reach the basestation ({:?}, {} nodes, seed {})",
                spec.kind, nodes, seed
            );
        }
    }
}

/// Checks the one-BFS `hops_from` / `is_connected` / `network_depth` against
/// the pairwise early-exit `hop_distance` oracle on every pair of `topo`.
fn assert_bfs_matches_pairwise_oracle(topo: &Topology) {
    for a in topo.nodes() {
        let hops = topo.hops_from(a);
        assert_eq!(hops.len(), topo.len());
        for b in topo.nodes() {
            let expected = topo.hop_distance(a, b).unwrap_or(u32::MAX);
            assert_eq!(hops[b.index()], expected, "hops {a} -> {b}");
        }
    }
    let from_base: Vec<Option<u32>> = topo
        .nodes()
        .map(|n| topo.hop_distance(NodeId::BASESTATION, n))
        .collect();
    assert_eq!(topo.is_connected(), from_base.iter().all(Option::is_some));
    assert_eq!(
        topo.network_depth(),
        from_base.iter().flatten().copied().max().unwrap_or(0)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The single full BFS agrees with the pairwise oracle for every
    /// placement family, on connected *and* disconnected layouts: the range
    /// factor is drawn low enough that many raw `from_spec` results have
    /// unreachable islands (a grid below 2/3 has no links at all), and the
    /// generator's escalation loop must then rescue exactly those.
    #[test]
    fn hops_from_matches_the_pairwise_oracle(
        kind_index in 0usize..TopologyKind::ALL.len(),
        nodes in 2usize..200,
        seed in 0u64..50,
        range_factor in 0.2f64..1.1,
    ) {
        let spec = TopologySpec {
            kind: TopologyKind::ALL[kind_index],
            range_factor,
            ..TopologySpec::office_floor()
        };
        let raw = Topology::from_spec(&spec, nodes, seed).expect("within limits");
        assert_bfs_matches_pairwise_oracle(&raw);
        // An unknown source reaches nothing, like `hop_distance` from it.
        prop_assert!(raw.hops_from(NodeId(raw.len() as u16)).iter().all(|&d| d == u32::MAX));

        let escalated = Topology::connected(&spec, nodes, seed).expect("escalates");
        if raw.is_connected() {
            prop_assert_eq!(escalated.radio_range(), raw.radio_range());
        } else {
            prop_assert!(escalated.radio_range() > raw.radio_range());
        }
        prop_assert!(escalated
            .nodes()
            .all(|n| escalated.hop_distance(NodeId::BASESTATION, n).is_some()));
    }
}

/// The property above only bites if its input space really contains
/// disconnected layouts; pin that down for every family at a fixed point.
#[test]
fn starved_range_disconnects_every_family_and_escalation_rescues_it() {
    for kind in TopologyKind::ALL {
        let spec = TopologySpec {
            kind,
            range_factor: 0.2,
            ..TopologySpec::office_floor()
        };
        let raw = Topology::from_spec(&spec, 60, 3).expect("within limits");
        assert!(!raw.is_connected(), "{kind:?} should be starved at 0.2");
        let rescued = Topology::connected(&spec, 60, 3).expect("escalates");
        assert!(rescued.is_connected(), "{kind:?}");
        assert!(rescued.radio_range() > raw.radio_range());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Overlapping partition cuts union: a pair is severed at `t` iff at
    /// least one cut, applied alone, severs it at `t`. Composing cuts can
    /// only widen the blackout — never narrow, shift, or cancel it — for
    /// any mix of windows (overlapping, nested, disjoint, inverted) and any
    /// side assignment, including degenerate all-on-one-side cuts.
    #[test]
    fn partition_cuts_union_like_their_singletons(
        cuts in proptest::collection::vec(
            (
                0u64..120,
                0u64..120,
                proptest::collection::vec((0u8..2).prop_map(|b| b == 1), 2..10),
            ),
            1..5,
        ),
        probe_t in 0u64..140,
    ) {
        let mut combined = FaultSchedule::empty();
        let mut singles = Vec::new();
        for (a, b, side) in &cuts {
            let (from, until) = (SimTime::from_secs(*a), SimTime::from_secs(*b));
            combined.add_partition(from, until, side.clone());
            let mut single = FaultSchedule::empty();
            single.add_partition(from, until, side.clone());
            singles.push(single);
        }
        let t = SimTime::from_secs(probe_t);
        // Probe every pair, including ids beyond the side vectors (which
        // belong to the majority side by definition).
        let n = cuts.iter().map(|(_, _, s)| s.len()).max().unwrap_or(0) as u16 + 2;
        for i in 0..n {
            for j in 0..n {
                let expected = singles.iter().any(|s| s.is_cut(NodeId(i), NodeId(j), t));
                prop_assert_eq!(
                    combined.is_cut(NodeId(i), NodeId(j), t), expected,
                    "pair ({i}, {j}) at t={probe_t}: union diverges from singleton OR"
                );
                prop_assert_eq!(
                    combined.is_cut(NodeId(i), NodeId(j), t),
                    combined.is_cut(NodeId(j), NodeId(i), t),
                    "cuts must stay symmetric"
                );
            }
        }
    }
}

/// Adversarial *invalid* LinkSpec values — NaN, negative, infinite, or
/// absurdly large knobs — are rejected by `LinkModel::from_spec` with a
/// typed `ScoopError::InvalidConfig`, never a panic and never a silently
/// NaN-ridden link table.
#[test]
fn adversarial_link_specs_get_typed_errors_not_panics() {
    let topo = Topology::grid(4, 10.0).expect("grid");
    let poisons: &[fn(&mut LinkSpec)] = &[
        |l| l.loss_floor = f64::NAN,
        |l| l.loss_floor = -0.2,
        |l| l.loss_floor = 1.0,
        |l| l.loss_floor = f64::INFINITY,
        |l| l.edge_delivery = f64::NAN,
        |l| l.edge_delivery = 0.0,
        |l| l.edge_delivery = -1.0,
        |l| l.edge_delivery = 2.0,
        |l| l.distance_exponent = f64::NAN,
        |l| l.distance_exponent = 0.0,
        |l| l.distance_exponent = -3.0,
        |l| l.distance_exponent = f64::INFINITY,
        |l| l.distance_exponent = 1e9,
        |l| l.asymmetry_noise = f64::NAN,
        |l| l.asymmetry_noise = -0.5,
        |l| l.asymmetry_noise = f64::INFINITY,
    ];
    for (i, poison) in poisons.iter().enumerate() {
        let mut spec = LinkSpec::default();
        poison(&mut spec);
        match LinkModel::from_spec(&spec, &topo, 1) {
            Err(ScoopError::InvalidConfig(_)) => {}
            other => panic!(
                "poisoned spec #{i} ({spec:?}) must yield InvalidConfig, got {:?}",
                other.map(|m| m.len())
            ),
        }
    }
    // The boundary itself stays accepted.
    let spec = LinkSpec {
        distance_exponent: LinkSpec::MAX_DISTANCE_EXPONENT,
        ..LinkSpec::default()
    };
    assert!(LinkModel::from_spec(&spec, &topo, 1).is_ok());
}
