//! The metric registry and the per-run report.
//!
//! `BENCHMARK.json` lists exactly the names in [`END_TO_END`] and
//! [`PER_LAYER`] (a self-test compares them), so a metric cannot be printed
//! under a name the contract does not know, or declared and never printed.

use serde_json::Value;
use std::collections::BTreeMap;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger readings are better (throughputs, hit ratios).
    Higher,
    /// Smaller readings are better (times, sizes, costs).
    Lower,
}

impl Better {
    /// `"higher"` / `"lower"`, as `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric the benchmark can report.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]`, at most 64 characters.
    pub name: &'static str,
    /// Unit, at most 16 characters.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// `--compare` calls it a regression; `None` for informational metrics.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn info(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Metrics every workload reports from its untraced run. Later changes are
/// gated on these, so only metrics that repeat within their bound across
/// seeds on this class of sandbox are here. Every wall-clock rate and
/// latency failed that test (10–40 % run-to-run spread, see
/// `bench/README.md`) and was demoted to [`PER_LAYER`]: still printed, not
/// gated.
pub const END_TO_END: &[MetricDef] = &[
    gated("setup_s", "s", Lower, 0.25),
    gated("peak_rss_mib", "MiB", Lower, 0.15),
];

/// Metrics of single layers, plus the workload-family end-to-end metrics
/// that only some workloads have (a metric the running workload does not
/// exercise reads 0). `bound` here is what `run.sh --compare` applies; the
/// driver applies none.
pub const PER_LAYER: &[MetricDef] = &[
    // Family end-to-end metrics (issue names), reported where they apply.
    gated("run_s", "s", Lower, 0.10),
    gated("failed_frac", "ratio", Lower, 0.0),
    gated("sim_events_per_s", "events/s", Higher, 0.10),
    gated("sim_run_s", "s", Lower, 0.10),
    gated("store_ingest_records_per_s", "records/s", Higher, 0.10),
    gated("store_point_p50_us", "us", Lower, 0.10),
    gated("store_point_p99_us", "us", Lower, 0.15),
    gated("store_range_rows_per_s", "rows/s", Higher, 0.10),
    gated("store_bytes_per_record", "B/record", Lower, 0.01),
    gated("serve_qps", "q/s", Higher, 0.10),
    gated("serve_p50_ms", "ms", Lower, 0.10),
    gated("serve_p99_ms", "ms", Lower, 0.15),
    gated("serve_restart_s", "s", Lower, 0.10),
    // scoop-net
    info("net.topology_build_s.n32k", "s", Lower),
    info("net.links_build_s.n32k", "s", Lower),
    info("net.engine_new_s.n32k", "s", Lower),
    info("net.queue_hold_ns.d1k", "ns", Lower),
    info("net.queue_hold_ns.d1m", "ns", Lower),
    info("net.queue_hold_ns.d1m.s8", "ns", Lower),
    info("net.flood_events_per_s.n64", "events/s", Higher),
    info("net.flood_events_per_s.n4096", "events/s", Higher),
    info("net.flood_events_per_s.n32k", "events/s", Higher),
    info("net.rss_bytes_per_node.n32k", "B/node", Lower),
    // scoop-core
    info("core.index_build_ms.n62", "ms", Lower),
    info("core.index_build_ms.n256", "ms", Lower),
    info("core.index_build_ms.n1024", "ms", Lower),
    info("core.cost_rows_materialized.n1024", "count", Lower),
    info("core.record_summary_ns", "ns", Lower),
    info("core.record_query_ns", "ns", Lower),
    // scoop-sim
    info("sim.host_ns_per_event.paper62", "ns/event", Lower),
    info("sim.host_ns_per_event.scoop1k", "ns/event", Lower),
    info("sim.host_ns_per_event.hash32k", "ns/event", Lower),
    info("sim.handler_ns_per_event.n4096", "ns/event", Lower),
    info("sim.slice_ms.p50.scoop1k", "ms", Lower),
    info("sim.slice_ms.max.scoop1k", "ms", Lower),
    info("sim.sweep_speedup.t2", "ratio", Higher),
    // scoop-routing, scoop-trickle, scoop-storage, scoop-workload
    info("routing.on_beacon_ns", "ns", Lower),
    info("routing.next_hop_ns", "ns", Lower),
    info("trickle.split_accept_us.n1024", "us", Lower),
    info("storage.buffer_store_ns", "ns", Lower),
    info("storage.read_new_since_ns_per_reading", "ns", Lower),
    info("workload.next_query_ns", "ns", Lower),
    info("workload.source_sample_ns", "ns", Lower),
    // scoop-store
    info("store.append_us_per_batch.b4096", "us", Lower),
    info("store.append_us_per_batch.b62", "us", Lower),
    info("store.seal_ms", "ms", Lower),
    info("store.index_build_s", "s", Lower),
    info("store.compact_s", "s", Lower),
    info("store.compactions", "count", Lower),
    info("store.open_ms", "ms", Lower),
    info("store.scan_all_records_per_s", "records/s", Higher),
    info("store.point_blocks_per_lookup", "blocks", Lower),
    info("store.range_blocks_per_lookup", "blocks", Lower),
    info("store.index_fallback_lookups", "count", Lower),
    info("store.pla_segments", "count", Lower),
    info("store.segments.bulk", "count", Lower),
    info("store.segments.mixed", "count", Lower),
    info("store.seals_per_lookup.mixed", "ratio", Lower),
    info("store.block_decode_ns", "ns", Lower),
    info("store.learned_lookup_ns", "ns", Lower),
    info("store.btree_lookup_ns", "ns", Lower),
    // scoop-serve
    info("serve.poll_us_per_req", "us", Lower),
    info("serve.submit_ns_per_req", "ns", Lower),
    info("serve.tick_ms.p50", "ms", Lower),
    info("serve.tick_ms.p99", "ms", Lower),
    info("serve.deliver_us_per_req", "us", Lower),
    info("serve.client_send_us_per_req", "us", Lower),
    info("serve.client_recv_us_per_req", "us", Lower),
    info("serve.core_answer_ns.hit", "ns", Lower),
    info("serve.core_answer_ns.miss", "ns", Lower),
    info("serve.core_ingest_ns_per_reading", "ns", Lower),
    info("serve.engine_tick_ms", "ms", Lower),
    info("serve.cache_hit_ratio", "ratio", Higher),
    info("serve.cache_invalidated_per_tick", "count", Lower),
    info("serve.coalesce_ratio", "ratio", Higher),
    info("serve.rows_per_answer", "rows", Lower),
    info("serve.bytes_per_answer", "B", Lower),
    info("serve.inproc_qps.hot", "q/s", Higher),
    info("serve.inproc_qps.cold", "q/s", Higher),
    info("serve.preload_scan_s", "s", Lower),
    info("serve.preload_index_s", "s", Lower),
    // scoop-types, scoop-lab
    info("types.request_codec_ns", "ns", Lower),
    info("types.rows_decode_ns_per_row", "ns", Lower),
    info("lab.suite_overhead_frac", "ratio", Lower),
    info("lab.artifact_json_ms", "ms", Lower),
    info("lab.paper_drift_rows", "count", Lower),
    // the harness itself
    info("harness.spans", "count", Lower),
    info("harness.span_cost_ns", "ns", Lower),
    info("harness.trace_overhead_frac", "ratio", Lower),
];

/// Looks a metric up in either table.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// The contract's name rule: starts with a letter or digit, then letters,
/// digits, `_`, `.` and `-`, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The contract's unit rule.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// What one run of one workload measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, (f64, Option<usize>)>,
    notes: Vec<(&'static str, String)>,
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations that failed or were refused.
    pub failed: u64,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a reading. Panics on a name the registry does not list: that
    /// is a bug in the harness, caught by the first run.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.record(name, value, None);
    }

    /// Records a reading together with the number of samples behind it.
    pub fn set_n(&mut self, name: &'static str, value: f64, samples: usize) {
        self.record(name, value, Some(samples));
    }

    fn record(&mut self, name: &'static str, value: f64, samples: Option<usize>) {
        assert!(lookup(name).is_some(), "metric {name} is not registered");
        self.values.insert(name, (value, samples));
    }

    /// The reading recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| *v)
    }

    /// Records a non-numeric output (a digest) printed beside the metrics.
    pub fn note(&mut self, key: &'static str, value: String) {
        self.notes.push((key, value));
    }

    /// Counts one checked operation; a failed one is described on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("CHECK FAILED: {}", what());
            }
        }
    }

    /// Counts `attempted` checked operations of which `failed` failed.
    pub fn check_many(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("CHECK FAILED: {failed} of {attempted} {what}");
        }
    }

    /// `name value unit [n=samples]` lines for every reading and note.
    pub fn human_lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .values
            .iter()
            .map(|(name, (value, samples))| {
                let unit = lookup(name).map(|m| m.unit).unwrap_or("");
                match samples {
                    Some(n) => format!("{name} {value} {unit} n={n}"),
                    None => format!("{name} {value} {unit}"),
                }
            })
            .collect();
        lines.extend(self.notes.iter().map(|(k, v)| format!("{k} {v}")));
        lines
    }

    /// The contract's result object: `correct`, `attempted`, `failed`, and
    /// exactly the metrics of `table`. A per-layer metric this workload does
    /// not exercise reads 0; a missing or non-finite end-to-end metric is an
    /// error.
    pub fn result_json(&self, table: &[MetricDef], required: bool) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(table.len());
        for def in table {
            let value = match self.get(def.name) {
                Some(v) if v.is_finite() => v,
                Some(v) => return Err(format!("metric {} is not finite ({v})", def.name)),
                None if required => return Err(format!("metric {} was not measured", def.name)),
                None => 0.0,
            };
            metrics.push((
                def.name.to_string(),
                Value::Object(vec![
                    ("value".to_string(), Value::F64(value)),
                    ("unit".to_string(), Value::Str(def.unit.to_string())),
                ]),
            ));
        }
        let object = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.failed == 0)),
            ("attempted".to_string(), Value::U64(self.attempted.max(1))),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&object).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_obey_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(def.name), "bad metric name {:?}", def.name);
            assert!(valid_unit(def.unit), "bad unit {:?}", def.unit);
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = lookup("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        for bad in ["", "-x", ".x", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} must be rejected");
        }
        assert!(valid_name("net.queue_hold_ns.d1m.s8") && valid_name("9lives"));
        assert!(valid_unit("events/s") && !valid_unit("µs") && !valid_unit("a b"));
    }

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn listed(section: &Value) -> Vec<(String, String, String, Option<f64>)> {
        let Value::Array(items) = section else {
            panic!("metric section is not an array");
        };
        items
            .iter()
            .map(|m| {
                let text = |key: &str| match m.get(key) {
                    Some(Value::Str(s)) => s.clone(),
                    other => panic!("metric field {key} is {other:?}"),
                };
                let bound = match m.get("bound") {
                    Some(Value::F64(b)) => Some(*b),
                    None => None,
                    other => panic!("bound is {other:?}"),
                };
                (text("name"), text("unit"), text("better"), bound)
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let manifest = manifest();
        for (key, table, bounded) in [
            ("end_to_end", END_TO_END, true),
            ("per_layer", PER_LAYER, false),
        ] {
            let declared = listed(manifest.get(key).expect("section present"));
            let registry: Vec<_> = table
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        m.better.name().to_string(),
                        m.bound.filter(|_| bounded),
                    )
                })
                .collect();
            assert_eq!(declared, registry, "BENCHMARK.json {key} drifted");
        }
    }

    #[test]
    fn result_json_has_exactly_the_contract_keys() {
        let mut report = Report::new();
        report.set_n("setup_s", 0.5, 40);
        report.set("peak_rss_mib", 12.25);
        report.check(true, || unreachable!());
        let text = report.result_json(END_TO_END, true).unwrap();
        let parsed: Value = serde_json::from_str(&text).unwrap();
        let Value::Object(fields) = &parsed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Value::Bool(true)));
        let Some(Value::Object(metrics)) = parsed.get("metrics") else {
            panic!("metrics missing")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert!(text.contains("\"peak_rss_mib\":{\"value\":12.25,\"unit\":\"MiB\"}"));

        // A missing end-to-end metric is an error, a missing layer metric 0.
        assert!(Report::new().result_json(END_TO_END, true).is_err());
        let layers = Report::new().result_json(PER_LAYER, false).unwrap();
        assert!(layers.contains("\"store.seal_ms\":{\"value\":0.0,\"unit\":\"ms\"}"));

        report.check(false, || "planted".to_string());
        let failed = report.result_json(END_TO_END, true).unwrap();
        assert!(failed.contains("\"correct\":false") && failed.contains("\"failed\":1"));
        assert!(report
            .human_lines()
            .contains(&"setup_s 0.5 s n=40".to_string()));
    }
}
