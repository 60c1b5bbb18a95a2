//! The chaos acceptance gates from the adversarial fault model contract:
//!
//! * partition-and-heal — post-heal storage and query success must recover
//!   to at least 90 % of the unfaulted control run;
//! * basestation failover — query success of the 2-sink federation under a
//!   sink crash must stay within tolerance of the single-sink control;
//! * mass churn — the surviving-plus-joined network must recover too.
//!
//! These run the same deterministic quick-scale chaos suite the
//! `scoop-lab check --suite chaos` CI gate snapshots, so a baseline re-bless
//! cannot quietly lower the bar: the gates here are absolute.

use scoop_lab::check::{run_masked, Suite};
use scoop_lab::rows::RowSet;

fn phase_metrics(rows: &RowSet, phase: &str) -> (f64, f64, f64, f64) {
    match rows {
        RowSet::Chaos(rows) => {
            let r = rows
                .iter()
                .find(|r| r.phase == phase)
                .unwrap_or_else(|| panic!("missing phase {phase}"));
            (
                r.storage_success,
                r.query_success,
                r.control_storage_success,
                r.control_query_success,
            )
        }
        other => panic!("chaos artifact carries {other:?}"),
    }
}

#[test]
fn chaos_scenarios_meet_the_recovery_gates() {
    let artifacts = run_masked(Suite::Chaos).expect("chaos suite runs");
    assert_eq!(artifacts.len(), 3);
    for artifact in &artifacts {
        let (storage, query, ctrl_storage, ctrl_query) = phase_metrics(&artifact.rows, "after");
        assert!(
            storage >= ctrl_storage * 0.9,
            "{}: post-fault storage {storage:.3} below 90 % of control {ctrl_storage:.3}",
            artifact.experiment
        );
        assert!(
            query >= ctrl_query * 0.9,
            "{}: post-fault query success {query:.3} below 90 % of control {ctrl_query:.3}",
            artifact.experiment
        );
    }

    // Failover specifically: query success within tolerance of the
    // single-sink control in *every* phase — the federation must not trade
    // steady-state query reliability for redundancy, and the root's
    // takeover must keep queries flowing while the peer sink is dead.
    let failover = artifacts
        .iter()
        .find(|a| a.experiment == "chaos-failover")
        .expect("failover artifact");
    for phase in ["before", "during", "after"] {
        let (_, query, _, ctrl_query) = phase_metrics(&failover.rows, phase);
        assert!(
            query >= ctrl_query - 0.15,
            "failover {phase}: query success {query:.3} not within tolerance \
             of single-sink control {ctrl_query:.3}"
        );
    }

    // Partition specifically: the cut must actually bite while open —
    // otherwise the recovery gates above are vacuous.
    let partition = artifacts
        .iter()
        .find(|a| a.experiment == "chaos-partition")
        .expect("partition artifact");
    let (storage, _, ctrl_storage, _) = phase_metrics(&partition.rows, "during");
    assert!(
        storage < ctrl_storage - 0.1,
        "partition during-phase storage {storage:.3} should degrade vs control {ctrl_storage:.3}"
    );
}
