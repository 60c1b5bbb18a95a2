//! The typed union of every experiment's row type, plus the derived metric
//! view the diff engine and the report renderer consume.
//!
//! Each experiment in `scoop_sim::experiments` returns its own row struct.
//! [`RowSet`] wraps them all behind one serializable type so artifacts can
//! carry any experiment's output, and [`RowSet::measured_rows`] flattens a
//! row set into keyed `(metric, value)` pairs — including the *normalized*
//! metrics (ratios to a reference row) that the paper's figures actually
//! argue about, so baselines transfer across absolute-scale differences
//! between the paper's testbed and this simulator. [`RowSet::table`] renders
//! the same flattening, so which fields a row has is decided in one place.

use scoop_sim::experiments::{
    calibration, AblationRow, AggregateOpsRow, CalibrationRow, ChaosRow, Fig3Row, Fig4Row, Fig5Row,
    RangeWidthRow, ReliabilityRow, RootSkewRow, SampleIntervalRow, ScalingRow,
};
use scoop_types::{LinkSpec, ScoopError};
use serde::{Deserialize, Serialize};

/// The rows of one experiment run, tagged by experiment family.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum RowSet {
    /// A Figure 3 panel (stacked message breakdowns).
    Fig3(Vec<Fig3Row>),
    /// The Figure 4 selectivity sweep.
    Fig4(Vec<Fig4Row>),
    /// The Figure 5 query-interval sweep.
    Fig5(Vec<Fig5Row>),
    /// The ablation suite.
    Ablations(Vec<AblationRow>),
    /// The sample-interval sweep.
    SampleInterval(Vec<SampleIntervalRow>),
    /// The reliability measurements.
    Reliability(Vec<ReliabilityRow>),
    /// The root-skew analysis.
    RootSkew(Vec<RootSkewRow>),
    /// The scaling study.
    Scaling(Vec<ScalingRow>),
    /// The link-model calibration grid.
    Calibration(Vec<CalibrationRow>),
    /// A chaos scenario (per-phase reliability under scheduled faults).
    Chaos(Vec<ChaosRow>),
    /// The range-workload width sweep.
    RangeWidth(Vec<RangeWidthRow>),
    /// The aggregate-operator grid.
    Aggregate(Vec<AggregateOpsRow>),
}

/// One row of any experiment, flattened to named numeric metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct MeasuredRow {
    /// Stable row key (e.g. `scoop/real`, `scoop/width-50%`).
    pub key: String,
    /// `(metric name, value)` pairs, in presentation order.
    pub metrics: Vec<(String, f64)>,
}

/// Formats one metric value for a table: success rates and accuracies as
/// percentages, ratios, fractions and the calibration objective to three
/// decimals, counts as integers.
pub(crate) fn fmt_value(metric: &str, value: f64) -> String {
    if metric.ends_with("_success") || metric.ends_with("_accuracy") {
        format!("{:.1}%", value * 100.0)
    } else if metric.starts_with("total_vs")
        || metric.starts_with("fraction")
        || metric.ends_with("_ratio")
        || metric == "objective"
    {
        format!("{value:.3}")
    } else if value.fract() == 0.0 {
        format!("{value:.0}")
    } else {
        format!("{value:.1}")
    }
}

impl MeasuredRow {
    /// The value of the named metric, if present.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(m, _)| m == name)
            .map(|&(_, v)| v)
    }
}

impl RowSet {
    /// Number of rows carried.
    pub fn len(&self) -> usize {
        match self {
            RowSet::Fig3(r) => r.len(),
            RowSet::Fig4(r) => r.len(),
            RowSet::Fig5(r) => r.len(),
            RowSet::Ablations(r) => r.len(),
            RowSet::SampleInterval(r) => r.len(),
            RowSet::Reliability(r) => r.len(),
            RowSet::RootSkew(r) => r.len(),
            RowSet::Scaling(r) => r.len(),
            RowSet::Calibration(r) => r.len(),
            RowSet::Chaos(r) => r.len(),
            RowSet::RangeWidth(r) => r.len(),
            RowSet::Aggregate(r) => r.len(),
        }
    }

    /// Whether the set carries no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the set as a plain-text table titled `title`: one column per
    /// absolute metric, one line per row. A calibration set also names its
    /// grid winner.
    pub fn table(&self, title: &str) -> String {
        let rows = self.raw_rows();
        let header = rows
            .first()
            .into_iter()
            .flat_map(|r| r.metrics.iter().map(|(m, _)| m.clone()));
        let mut lines: Vec<Vec<String>> =
            vec![std::iter::once("row".to_string()).chain(header).collect()];
        lines.extend(rows.iter().map(|r| {
            std::iter::once(r.key.clone())
                .chain(r.metrics.iter().map(|(m, v)| fmt_value(m, *v)))
                .collect()
        }));
        let widths: Vec<usize> = (0..lines[0].len())
            .map(|c| {
                lines
                    .iter()
                    .filter_map(|l| l.get(c))
                    .map(String::len)
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let mut out = format!("{title}\n");
        for line in &lines {
            let Some((key, values)) = line.split_first() else {
                continue;
            };
            out.push_str(&format!("{key:<width$}", width = widths[0]));
            for (value, width) in values.iter().zip(&widths[1..]) {
                out.push_str(&format!("  {value:>width$}"));
            }
            out.push('\n');
        }
        if let Some(winner) = match self {
            RowSet::Calibration(rows) => calibration::winner(rows),
            _ => None,
        } {
            out.push_str(&format!(
                "winner: {} ({} LinkSpec::default())\n",
                calibration::label(&winner.point),
                if winner.point == LinkSpec::default() {
                    "is"
                } else {
                    "is NOT"
                }
            ));
        }
        out
    }

    /// Renders the bare rows as a pretty JSON *array* (the machine-readable
    /// format `scoop-lab run --json` prints), without the enum tag
    /// that [`serde::Serialize`] adds for artifact files.
    pub fn rows_json(&self) -> Result<String, ScoopError> {
        match self {
            RowSet::Fig3(rows) => serde_json::to_string_pretty(rows),
            RowSet::Fig4(rows) => serde_json::to_string_pretty(rows),
            RowSet::Fig5(rows) => serde_json::to_string_pretty(rows),
            RowSet::Ablations(rows) => serde_json::to_string_pretty(rows),
            RowSet::SampleInterval(rows) => serde_json::to_string_pretty(rows),
            RowSet::Reliability(rows) => serde_json::to_string_pretty(rows),
            RowSet::RootSkew(rows) => serde_json::to_string_pretty(rows),
            RowSet::Scaling(rows) => serde_json::to_string_pretty(rows),
            RowSet::Calibration(rows) => serde_json::to_string_pretty(rows),
            RowSet::Chaos(rows) => serde_json::to_string_pretty(rows),
            RowSet::RangeWidth(rows) => serde_json::to_string_pretty(rows),
            RowSet::Aggregate(rows) => serde_json::to_string_pretty(rows),
        }
        .map_err(|e| ScoopError::Serialization(e.to_string()))
    }

    /// Flattens the rows into keyed metric vectors.
    ///
    /// `reference_key` names the row used as the denominator for the
    /// normalized `*_vs_ref` metrics (see [`crate::suite::ExperimentId::
    /// reference_key`]); rows in families without a reference (or when the
    /// reference row is absent) simply omit the ratio metrics.
    pub fn measured_rows(&self, reference_key: Option<&str>) -> Vec<MeasuredRow> {
        let mut rows = self.raw_rows();
        // Figures 4 and 5 (and the range-width sweep, their steady-state
        // cousin) compare policies *pointwise*: normalize each row to the
        // BASE row at the same sweep point (same width / same interval).
        if matches!(
            self,
            RowSet::Fig4(_) | RowSet::Fig5(_) | RowSet::RangeWidth(_)
        ) {
            let base_totals: Vec<(String, f64)> = rows
                .iter()
                .filter(|r| r.key.starts_with("base/"))
                .filter_map(|r| {
                    let point = r.key.trim_start_matches("base/").to_string();
                    r.metric("total_messages").map(|t| (point, t))
                })
                .collect();
            for row in &mut rows {
                let point = row.key.split_once('/').map(|(_, p)| p).unwrap_or("");
                let reference = base_totals
                    .iter()
                    .find(|(p, _)| p == point)
                    .map(|&(_, t)| t)
                    .filter(|&t| t > 0.0);
                if let (Some(total), Some(base)) = (row.metric("total_messages"), reference) {
                    row.metrics.push(("total_vs_base".into(), total / base));
                }
            }
        }
        if let Some(reference) = reference_key {
            let ref_total = rows
                .iter()
                .find(|r| r.key == reference)
                .and_then(|r| r.metric("total_messages"));
            if let Some(ref_total) = ref_total.filter(|&t| t > 0.0) {
                for row in &mut rows {
                    if let Some(total) = row.metric("total_messages") {
                        row.metrics
                            .push(("total_vs_ref".to_string(), total / ref_total));
                    }
                }
            }
        }
        rows
    }

    /// The per-family flattening, absolute metrics only.
    fn raw_rows(&self) -> Vec<MeasuredRow> {
        match self {
            RowSet::Fig3(rows) => rows
                .iter()
                .map(|r| MeasuredRow {
                    key: format!("{}/{}", r.policy, r.source),
                    metrics: vec![
                        ("total_messages".into(), r.total as f64),
                        ("data_messages".into(), r.messages.data as f64),
                        ("summary_messages".into(), r.messages.summary as f64),
                        ("mapping_messages".into(), r.messages.mapping as f64),
                        ("query_reply_messages".into(), r.messages.query_reply as f64),
                    ],
                })
                .collect(),
            RowSet::Fig4(rows) => rows
                .iter()
                .map(|r| MeasuredRow {
                    key: format!("{}/width-{:.0}%", r.policy, r.requested_width_frac * 100.0),
                    metrics: vec![
                        ("total_messages".into(), r.total_messages as f64),
                        ("fraction_nodes_queried".into(), r.fraction_nodes_queried),
                    ],
                })
                .collect(),
            RowSet::Fig5(rows) => rows
                .iter()
                .map(|r| MeasuredRow {
                    key: format!("{}/interval-{}s", r.policy, r.query_interval_secs),
                    metrics: vec![("total_messages".into(), r.total_messages as f64)],
                })
                .collect(),
            RowSet::Ablations(rows) => rows
                .iter()
                .map(|r| MeasuredRow {
                    key: r.variant.clone(),
                    metrics: vec![
                        ("total_messages".into(), r.total_messages as f64),
                        ("data_messages".into(), r.data_messages as f64),
                        ("mapping_messages".into(), r.mapping_messages as f64),
                    ],
                })
                .collect(),
            RowSet::SampleInterval(rows) => rows
                .iter()
                .map(|r| MeasuredRow {
                    key: format!("{}/sample-{}s", r.source, r.sample_interval_secs),
                    metrics: vec![
                        ("total_messages".into(), r.total_messages as f64),
                        ("non_data_messages".into(), r.non_data_messages as f64),
                    ],
                })
                .collect(),
            RowSet::Reliability(rows) => rows
                .iter()
                .map(|r| MeasuredRow {
                    key: r.policy.to_string(),
                    metrics: vec![
                        ("storage_success".into(), r.storage_success),
                        ("query_success".into(), r.query_success),
                        ("destination_accuracy".into(), r.destination_accuracy),
                    ],
                })
                .collect(),
            RowSet::RootSkew(rows) => rows
                .iter()
                .map(|r| MeasuredRow {
                    key: r.policy.to_string(),
                    metrics: vec![
                        ("root_tx".into(), r.root_tx as f64),
                        ("root_rx".into(), r.root_rx as f64),
                        ("mean_sensor_tx".into(), r.mean_sensor_tx),
                        ("total_messages".into(), r.total_messages as f64),
                    ],
                })
                .collect(),
            RowSet::Scaling(rows) => rows
                .iter()
                .map(|r| MeasuredRow {
                    key: format!("{}/{}-nodes", r.source, r.num_nodes),
                    metrics: vec![
                        ("total_messages".into(), r.total_messages as f64),
                        ("messages_per_node".into(), r.messages_per_node),
                        ("storage_success".into(), r.storage_success),
                    ],
                })
                .collect(),
            RowSet::Calibration(rows) => rows
                .iter()
                .map(|r| MeasuredRow {
                    key: calibration::label(&r.point),
                    metrics: vec![
                        ("storage_success".into(), r.storage_success),
                        ("query_success".into(), r.query_success),
                        ("destination_accuracy".into(), r.destination_accuracy),
                        ("scoop_messages".into(), r.scoop_messages as f64),
                        ("base_messages".into(), r.base_messages as f64),
                        ("cost_ratio".into(), r.cost_ratio),
                        ("objective".into(), r.objective),
                    ],
                })
                .collect(),
            RowSet::Chaos(rows) => rows
                .iter()
                .map(|r| MeasuredRow {
                    key: format!("{}/{}", r.scenario, r.phase),
                    metrics: vec![
                        ("storage_success".into(), r.storage_success),
                        ("query_success".into(), r.query_success),
                        ("control_storage_success".into(), r.control_storage_success),
                        ("control_query_success".into(), r.control_query_success),
                    ],
                })
                .collect(),
            RowSet::RangeWidth(rows) => rows
                .iter()
                .map(|r| MeasuredRow {
                    key: format!("{}/width-{:.0}%", r.policy, r.width_frac * 100.0),
                    metrics: vec![
                        ("total_messages".into(), r.total_messages as f64),
                        ("fraction_nodes_queried".into(), r.fraction_nodes_queried),
                        ("query_success".into(), r.query_success),
                    ],
                })
                .collect(),
            RowSet::Aggregate(rows) => rows
                .iter()
                .map(|r| MeasuredRow {
                    key: format!("{}/{}", r.policy, r.op),
                    metrics: vec![
                        ("total_messages".into(), r.total_messages as f64),
                        ("query_reply_messages".into(), r.query_reply_messages as f64),
                        ("query_success".into(), r.query_success),
                    ],
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scoop_sim::MessageBreakdown;
    use scoop_types::{DataSourceKind, StoragePolicy};

    fn fig3_set() -> RowSet {
        RowSet::Fig3(vec![
            Fig3Row {
                policy: StoragePolicy::Scoop,
                source: DataSourceKind::Real,
                messages: MessageBreakdown {
                    data: 10,
                    summary: 5,
                    mapping: 3,
                    query_reply: 2,
                },
                total: 20,
            },
            Fig3Row {
                policy: StoragePolicy::Base,
                source: DataSourceKind::Real,
                messages: MessageBreakdown {
                    data: 40,
                    summary: 0,
                    mapping: 0,
                    query_reply: 0,
                },
                total: 40,
            },
        ])
    }

    #[test]
    fn measured_rows_include_normalized_ratio() {
        let rows = fig3_set().measured_rows(Some("base/real"));
        let scoop = rows.iter().find(|r| r.key == "scoop/real").unwrap();
        assert_eq!(scoop.metric("total_messages"), Some(20.0));
        assert_eq!(scoop.metric("total_vs_ref"), Some(0.5));
        let base = rows.iter().find(|r| r.key == "base/real").unwrap();
        assert_eq!(base.metric("total_vs_ref"), Some(1.0));
    }

    #[test]
    fn missing_reference_omits_ratio() {
        let rows = fig3_set().measured_rows(Some("hash/real"));
        assert!(rows[0].metric("total_vs_ref").is_none());
        let rows = fig3_set().measured_rows(None);
        assert!(rows[0].metric("total_vs_ref").is_none());
    }

    #[test]
    fn fig5_rows_normalize_to_base_at_same_interval() {
        let set = RowSet::Fig5(vec![
            Fig5Row {
                policy: StoragePolicy::Scoop,
                query_interval_secs: 5,
                total_messages: 30,
            },
            Fig5Row {
                policy: StoragePolicy::Base,
                query_interval_secs: 5,
                total_messages: 60,
            },
            Fig5Row {
                policy: StoragePolicy::Scoop,
                query_interval_secs: 45,
                total_messages: 10,
            },
            Fig5Row {
                policy: StoragePolicy::Base,
                query_interval_secs: 45,
                total_messages: 50,
            },
        ]);
        let rows = set.measured_rows(None);
        let ratio = |key: &str| {
            rows.iter()
                .find(|r| r.key == key)
                .unwrap()
                .metric("total_vs_base")
                .unwrap()
        };
        assert_eq!(ratio("scoop/interval-5s"), 0.5);
        assert_eq!(ratio("scoop/interval-45s"), 0.2);
        assert_eq!(ratio("base/interval-45s"), 1.0);
    }

    #[test]
    fn row_set_len_and_table() {
        let set = fig3_set();
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        assert!(set.table("Fig 3").contains("scoop/real"));
    }

    #[test]
    fn rows_json_is_a_bare_array() {
        let json = fig3_set().rows_json().unwrap();
        assert!(json.trim_start().starts_with('['), "{json}");
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed[0]["total"], 20);
    }

    #[test]
    fn row_set_serde_round_trips() {
        let set = fig3_set();
        let json = serde_json::to_string(&set).unwrap();
        let back: RowSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(
            back.measured_rows(None),
            set.measured_rows(None),
            "metric view survives the round trip"
        );
    }
}
