//! Plain-text and JSON rendering of experiment rows.
//!
//! `scoop-lab run` prints these tables so that its output can be compared
//! line by line with the paper's figures; the same rows are emitted as JSON
//! for EXPERIMENTS.md bookkeeping.

use crate::experiments::{
    AblationRow, AggregateOpsRow, ChaosRow, Fig3Row, Fig4Row, Fig5Row, LinkCalibrationRow,
    RangeWidthRow, ReliabilityRow, RootSkewRow, SampleIntervalRow, ScalingRow,
};
use scoop_types::ScoopError;
use serde::Serialize;

/// Renders any serializable row set as pretty JSON (one array).
pub fn to_json<T: Serialize>(rows: &[T]) -> Result<String, ScoopError> {
    serde_json::to_string_pretty(rows).map_err(|e| ScoopError::Serialization(e.to_string()))
}

/// Formats the Figure 3 rows as the stacked-bar table from the paper.
pub fn fig3_table(title: &str, rows: &[Fig3Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<22} {:>10} {:>10} {:>10} {:>12} {:>10}\n",
        "policy/source", "data", "summary", "mapping", "query/reply", "total"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<22} {:>10} {:>10} {:>10} {:>12} {:>10}\n",
            format!("{}/{}", r.policy, r.source),
            r.messages.data,
            r.messages.summary,
            r.messages.mapping,
            r.messages.query_reply,
            r.total
        ));
    }
    out
}

/// Formats the Figure 4 rows (cost vs % nodes queried).
pub fn fig4_table(rows: &[Fig4Row]) -> String {
    let mut out = String::from("Figure 4: cost vs. % of nodes queried\n");
    out.push_str(&format!(
        "{:<8} {:>14} {:>18} {:>14}\n",
        "policy", "req. width", "% nodes queried", "messages"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:>13.0}% {:>17.1}% {:>14}\n",
            r.policy.to_string(),
            r.requested_width_frac * 100.0,
            r.fraction_nodes_queried * 100.0,
            r.total_messages
        ));
    }
    out
}

/// Formats the Figure 5 rows (cost vs query interval).
pub fn fig5_table(rows: &[Fig5Row]) -> String {
    let mut out = String::from("Figure 5: cost vs. query interval\n");
    out.push_str(&format!(
        "{:<8} {:>16} {:>14}\n",
        "policy", "interval (s)", "messages"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:>16} {:>14}\n",
            r.policy.to_string(),
            r.query_interval_secs,
            r.total_messages
        ));
    }
    out
}

/// Formats the sample-interval sweep rows.
pub fn sample_interval_table(rows: &[SampleIntervalRow]) -> String {
    let mut out = String::from("Sample-interval sweep (SCOOP)\n");
    out.push_str(&format!(
        "{:<10} {:>14} {:>12} {:>14}\n",
        "source", "interval (s)", "messages", "non-data msgs"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>14} {:>12} {:>14}\n",
            r.source.to_string(),
            r.sample_interval_secs,
            r.total_messages,
            r.non_data_messages
        ));
    }
    out
}

/// Formats the reliability rows.
pub fn reliability_table(rows: &[ReliabilityRow]) -> String {
    let mut out =
        String::from("Reliability (paper: ~93 % stored, ~78 % of query results, ~85 % at owner)\n");
    out.push_str(&format!(
        "{:<8} {:>16} {:>14} {:>22}\n",
        "policy", "storage success", "query success", "destination accuracy"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:>15.1}% {:>13.1}% {:>21.1}%\n",
            r.policy.to_string(),
            r.storage_success * 100.0,
            r.query_success * 100.0,
            r.destination_accuracy * 100.0
        ));
    }
    out
}

/// Formats the chaos rows: per-phase reliability of a faulted run next to
/// its unfaulted control.
pub fn chaos_table(title: &str, rows: &[ChaosRow]) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "{:<18} {:>16} {:>14} {:>18} {:>16}\n",
        "scenario/phase", "storage success", "query success", "control storage", "control query"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:>15.1}% {:>13.1}% {:>17.1}% {:>15.1}%\n",
            format!("{}/{}", r.scenario, r.phase),
            r.storage_success * 100.0,
            r.query_success * 100.0,
            r.control_storage_success * 100.0,
            r.control_query_success * 100.0
        ));
    }
    out
}

/// Formats the link-calibration rows.
pub fn link_calibration_table(rows: &[LinkCalibrationRow]) -> String {
    let mut out = String::from(
        "Link calibration (SCOOP; paper reliability: ~93 % stored, ~78 % of query results)\n",
    );
    out.push_str(&format!(
        "{:<12} {:>10} {:>16} {:>14} {:>12}\n",
        "loss floor", "exponent", "storage success", "query success", "messages"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12.2} {:>10.1} {:>15.1}% {:>13.1}% {:>12}\n",
            r.loss_floor,
            r.distance_exponent,
            r.storage_success * 100.0,
            r.query_success * 100.0,
            r.total_messages
        ));
    }
    out
}

/// Formats the root-skew rows.
pub fn root_skew_table(rows: &[RootSkewRow]) -> String {
    let mut out = String::from("Root-node skew\n");
    out.push_str(&format!(
        "{:<8} {:>10} {:>10} {:>16} {:>12}\n",
        "policy", "root tx", "root rx", "mean sensor tx", "total msgs"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:>10} {:>10} {:>16.1} {:>12}\n",
            r.policy.to_string(),
            r.root_tx,
            r.root_rx,
            r.mean_sensor_tx,
            r.total_messages
        ));
    }
    out
}

/// Formats the scaling rows, titled `title` (the scaling grid runs under
/// more than one policy, so the heading cannot be hardcoded).
pub fn scaling_table(title: &str, rows: &[ScalingRow]) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "{:<10} {:>8} {:>12} {:>16} {:>16}\n",
        "source", "nodes", "messages", "msgs per node", "storage success"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>8} {:>12} {:>16.1} {:>15.1}%\n",
            r.source.to_string(),
            r.num_nodes,
            r.total_messages,
            r.messages_per_node,
            r.storage_success * 100.0
        ));
    }
    out
}

/// Formats the range-width sweep rows.
pub fn range_width_table(rows: &[RangeWidthRow]) -> String {
    let mut out = String::from("Range workloads: cost vs. fixed query width\n");
    out.push_str(&format!(
        "{:<8} {:>10} {:>18} {:>12} {:>14}\n",
        "policy", "width", "% nodes queried", "messages", "query success"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:>9.0}% {:>17.1}% {:>12} {:>13.1}%\n",
            r.policy.to_string(),
            r.width_frac * 100.0,
            r.fraction_nodes_queried * 100.0,
            r.total_messages,
            r.query_success * 100.0
        ));
    }
    out
}

/// Formats the aggregate-operator grid rows.
pub fn aggregate_ops_table(rows: &[AggregateOpsRow]) -> String {
    let mut out = String::from("Aggregate workloads: cost per operator\n");
    out.push_str(&format!(
        "{:<8} {:<6} {:>12} {:>14} {:>14}\n",
        "policy", "op", "messages", "query/reply", "query success"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:<6} {:>12} {:>14} {:>13.1}%\n",
            r.policy.to_string(),
            r.op,
            r.total_messages,
            r.query_reply_messages,
            r.query_success * 100.0
        ));
    }
    out
}

/// Formats the ablation rows.
pub fn ablation_table(rows: &[AblationRow]) -> String {
    let mut out = String::from("Ablations (SCOOP)\n");
    out.push_str(&format!(
        "{:<24} {:<10} {:>12} {:>10} {:>10}\n",
        "variant", "source", "messages", "data", "mapping"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<24} {:<10} {:>12} {:>10} {:>10}\n",
            r.variant,
            r.source.to_string(),
            r.total_messages,
            r.data_messages,
            r.mapping_messages
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MessageBreakdown;
    use scoop_types::{DataSourceKind, StoragePolicy};

    #[test]
    fn fig3_table_contains_every_row_and_column() {
        let rows = vec![Fig3Row {
            policy: StoragePolicy::Scoop,
            source: DataSourceKind::Real,
            messages: MessageBreakdown {
                data: 1,
                summary: 2,
                mapping: 3,
                query_reply: 4,
            },
            total: 10,
        }];
        let t = fig3_table("Figure 3 (middle)", &rows);
        assert!(t.contains("scoop/real"));
        assert!(t.contains("query/reply"));
        assert!(t.contains("10"));
    }

    #[test]
    fn json_rendering_is_valid() {
        let rows = vec![Fig5Row {
            policy: StoragePolicy::Local,
            query_interval_secs: 15,
            total_messages: 1234,
        }];
        let json = to_json(&rows).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed[0]["total_messages"], 1234);
    }

    #[test]
    fn other_tables_render() {
        assert!(fig4_table(&[]).contains("Figure 4"));
        assert!(reliability_table(&[]).contains("Reliability"));
        assert!(root_skew_table(&[]).contains("Root-node skew"));
        assert!(scaling_table("Scaling study", &[]).contains("Scaling"));
        assert!(ablation_table(&[]).contains("Ablations"));
        assert!(sample_interval_table(&[]).contains("Sample-interval"));
        assert!(range_width_table(&[]).contains("Range workloads"));
        assert!(aggregate_ops_table(&[]).contains("Aggregate workloads"));
    }
}
