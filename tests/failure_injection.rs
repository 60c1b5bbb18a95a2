//! Failure-injection integration tests: the protocol must keep working (with
//! degraded performance, not collapse) when links die, when a whole region of
//! the network goes silent, or when loss is extreme.

use scoop::net::{LinkModel, Topology};
use scoop::sim::SimNode;
use scoop::types::{
    DataSourceKind, FaultWindow, LinkSpec, NodeId, ScenarioSpec, SimDuration, SimTime,
    StoragePolicy,
};

fn tiny_cfg() -> ScenarioSpec {
    let mut cfg = ScenarioSpec::small_test();
    cfg.num_nodes = 10;
    cfg.duration = SimDuration::from_mins(9);
    cfg.warmup = SimDuration::from_mins(2);
    cfg.policy.scoop.summary_interval = SimDuration::from_secs(45);
    cfg.policy.scoop.remap_interval = SimDuration::from_secs(90);
    cfg.workload.data_source = DataSourceKind::Gaussian;
    cfg.policy.kind = StoragePolicy::Scoop;
    cfg.seed = 13;
    cfg
}

fn run_with_links(
    cfg: &ScenarioSpec,
    mutate: impl FnOnce(&Topology, &mut LinkModel),
) -> scoop::net::Engine<SimNode> {
    let topo = Topology::office_floor(cfg.num_nodes, cfg.seed).expect("topology");
    let mut links = LinkModel::from_spec(&LinkSpec::legacy(), &topo, cfg.seed).expect("valid spec");
    mutate(&topo, &mut links);
    let mut engine = scoop::sim::build_engine_with(cfg, topo, links).expect("engine");
    engine.run_until(SimTime::ZERO + cfg.duration);
    engine
}

#[test]
fn network_survives_a_dead_node() {
    let cfg = tiny_cfg();
    // Kill every link to and from node 5: it can neither send nor receive.
    let engine = run_with_links(&cfg, |topo, links| {
        for other in topo.nodes() {
            links.set_link(NodeId(5), other, 0.0);
            links.set_link(other, NodeId(5), 0.0);
        }
    });
    // The rest of the network still samples, stores, and answers queries.
    let stored: u64 = engine.iter_nodes().map(|(_, n)| n.metrics.stored).sum();
    assert!(stored > 0, "the surviving nodes must still store data");
    // The dead node itself never got anything delivered to it by others.
    assert_eq!(engine.stats().node(NodeId(5)).rx.total(), 0);
    // And the basestation still managed to disseminate at least one index.
    assert!(engine.node(NodeId::BASESTATION).indices_disseminated() >= 1);
}

#[test]
fn extreme_loss_degrades_but_does_not_wedge() {
    let cfg = tiny_cfg();
    let engine = run_with_links(&cfg, |topo, links| {
        // Make every usable link terrible (90 % loss).
        for a in topo.nodes() {
            for b in topo.nodes() {
                if a != b && links.link(a, b).is_usable() {
                    links.set_link(a, b, 0.10);
                }
            }
        }
    });
    let sampled: u64 = engine.iter_nodes().map(|(_, n)| n.metrics.sampled).sum();
    let stored: u64 = engine.iter_nodes().map(|(_, n)| n.metrics.stored).sum();
    assert!(sampled > 0);
    // Much of the data still lands somewhere (locally at worst); the system
    // must not lose everything or hang.
    assert!(
        stored as f64 >= sampled as f64 * 0.3,
        "only {stored}/{sampled} readings stored under extreme loss"
    );
    // Retransmissions should show up as a high transmission count per
    // delivered packet.
    assert!(engine.stats().total_tx().total() > 0);
}

#[test]
fn perfect_links_give_near_perfect_reliability() {
    let cfg = tiny_cfg();
    let engine = run_with_links(&cfg, |topo, links| {
        *links = LinkModel::perfect(topo);
    });
    let sampled: u64 = engine.iter_nodes().map(|(_, n)| n.metrics.sampled).sum();
    let stored: u64 = engine.iter_nodes().map(|(_, n)| n.metrics.stored).sum();
    // Readings still sitting in an unflushed batch (or in flight) at the end
    // of the run are neither stored nor lost.
    let batched: u64 = engine
        .iter_nodes()
        .map(|(_, n)| n.pending_batched() as u64)
        .sum();
    assert!(sampled > 0);
    assert!(
        (stored + batched) as f64 >= sampled as f64 * 0.93,
        "with perfect links almost everything should be stored ({stored}+{batched} of {sampled})"
    );
    // No unicast should ever fail.
    let failures: u64 = (0..engine.topology().len())
        .map(|i| engine.stats().node(NodeId(i as u16)).send_failures)
        .sum();
    assert_eq!(failures, 0);
}

#[test]
fn fault_spec_blackout_window_silences_and_revives_nodes() {
    // The declarative fault axis: a third of the sensors lose their radio
    // for minutes 3..6 of a 9-minute run, then come back (churn).
    let mut cfg = tiny_cfg();
    cfg.faults
        .windows
        .push(FaultWindow::blackout(180, 360, 0.34));
    let mut engine = scoop::sim::build_engine(&cfg).expect("engine");
    let affected: Vec<NodeId> = engine.fault_schedule().iter().map(|o| o.node).collect();
    assert_eq!(affected.len(), 3, "round(0.34 × 10) sensors go down");

    // During the window the affected radios are dead both ways.
    engine.run_until(SimTime::ZERO + SimDuration::from_secs(180));
    let tx_at_start: Vec<u64> = affected
        .iter()
        .map(|&n| engine.stats().node(n).tx.total())
        .collect();
    engine.run_until(SimTime::ZERO + SimDuration::from_secs(359));
    for (&node, &before) in affected.iter().zip(&tx_at_start) {
        assert_eq!(
            engine.stats().node(node).tx.total(),
            before,
            "{node} transmitted during its outage"
        );
    }

    // After the window closes the node rejoins and transmits again.
    engine.run_until(SimTime::ZERO + cfg.duration);
    assert!(
        affected
            .iter()
            .zip(&tx_at_start)
            .any(|(&n, &before)| engine.stats().node(n).tx.total() > before),
        "no affected node ever rejoined after the outage window"
    );
    // The rest of the network kept working throughout.
    let stored: u64 = engine.iter_nodes().map(|(_, n)| n.metrics.stored).sum();
    assert!(stored > 0);
}

#[test]
fn fault_runs_are_deterministic_and_differ_from_fault_free_runs() {
    let mut faulty = tiny_cfg();
    faulty
        .faults
        .windows
        .push(FaultWindow::blackout(180, 360, 0.34));
    let a = scoop::sim::run_experiment(&faulty).expect("faulty run");
    let b = scoop::sim::run_experiment(&faulty).expect("faulty run repeat");
    assert_eq!(a.messages, b.messages, "fault runs must stay deterministic");
    assert_eq!(a.storage, b.storage);

    let clean = scoop::sim::run_experiment(&tiny_cfg()).expect("clean run");
    assert_ne!(
        a.messages, clean.messages,
        "a blackout window must actually change the traffic"
    );
}
