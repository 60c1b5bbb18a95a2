//! Every delivery finds its link record at its sender's slot. The engine
//! announces each node's transmitters when the run starts, and `SimNode`
//! debug-asserts on every delivery that the slot names the sender's record,
//! so this debug-built run fails if the estimator's search fallback is ever
//! needed.

use scoop_sim::build_engine;
use scoop_types::{NodeId, ScenarioSpec, SimTime};

#[test]
fn a_paper_scale_warm_up_keeps_one_heard_record_per_sender() {
    let spec = ScenarioSpec::paper_defaults();
    let mut engine = build_engine(&spec).expect("paper network builds");
    engine.run_until(SimTime::from_secs(1_200));
    assert!(engine.events_processed() > 100_000, "the warm-up ran");
    let n = engine.topology().len();
    let mut senders = vec![0usize; n];
    for src in (0..n).map(|i| NodeId(i as u16)) {
        for &l in engine.links().neighbors(src).0 {
            senders[l.index()] += 1;
        }
    }
    for (id, node) in engine.iter_nodes() {
        assert_eq!(
            node.routing().estimator().len(),
            senders[id.index()],
            "node {id} does not track every transmitter it can hear"
        );
    }
}
