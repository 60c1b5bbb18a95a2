//! Factory-floor monitoring: the motivating scenario from the paper's
//! introduction.
//!
//! ```bash
//! cargo run --release --example factory_monitoring
//! ```
//!
//! A factory instruments its equipment with battery-powered vibration
//! sensors. Each sensor classifies its recent readings into a vibration
//! class; an engineer occasionally asks "which machines vibrated in class
//! 15-20 over the last few minutes?". Shipping every reading to a gateway
//! (the TinyDB model) would drain the batteries; flooding every query is just
//! as bad. This example compares the three policies on exactly that workload
//! and prints the expected battery lifetime of an average node and of the
//! gateway-adjacent root under each.

use scoop::net::Topology;
use scoop::sim::run_experiment;
use scoop::types::{
    Attribute, DataSourceKind, ExperimentConfig, SimDuration, StoragePolicy, ValueRange,
};

/// Radio cost per bit sent or received (Section 2.1: about 700 nJ/bit).
const RADIO_NJ_PER_BIT: f64 = 700.0;
/// Bytes on air per message: about 29 bytes of TinyOS payload plus header.
const MESSAGE_BYTES: f64 = 36.0;
/// Usable energy of a pair of AA cells, in joules.
const BATTERY_JOULES: f64 = 10_000.0;

/// Days a battery lasts at the rate of `messages` per `window_secs`
/// (infinite when nothing is sent or received).
fn lifetime_days(messages: f64, window_secs: f64) -> f64 {
    let joules = messages * MESSAGE_BYTES * 8.0 * RADIO_NJ_PER_BIT * 1e-9;
    if joules <= 0.0 {
        return f64::INFINITY;
    }
    BATTERY_JOULES / (joules / window_secs) / 86_400.0
}

fn show(days: f64) -> String {
    if days.is_infinite() {
        "unbounded".to_string()
    } else {
        format!("{days:.0} days")
    }
}

fn main() {
    // Vibration classes 0-20 (Section 4's "classify ... on a scale of 1-20").
    // Machines in the same bay vibrate similarly: the GAUSSIAN source (fixed
    // per-node mean, small variance) is the right stand-in.
    let mut base = ExperimentConfig::paper_defaults();
    base.num_nodes = 40;
    base.workload.attribute = Attribute::Acceleration;
    base.workload.value_domain = ValueRange::new(0, 20);
    base.workload.data_source = DataSourceKind::Gaussian;
    base.workload.sample_interval = SimDuration::from_secs(10);
    base.workload.queries.query_interval = SimDuration::from_secs(60);
    base.duration = SimDuration::from_mins(30);
    base.warmup = SimDuration::from_mins(8);
    base.seed = 7;

    let window_secs = base.measured_duration().as_secs_f64();

    println!("== Factory monitoring: 40 vibration sensors, query every 60 s ==\n");
    println!(
        "{:<8} {:>10} {:>12} {:>20} {:>20}",
        "policy", "messages", "data msgs", "avg node lifetime", "root lifetime"
    );

    // (policy, average-node lifetime, root lifetime) in days.
    let mut rows = Vec::new();
    for policy in [
        StoragePolicy::Scoop,
        StoragePolicy::Local,
        StoragePolicy::Base,
    ] {
        let mut cfg = base.clone();
        cfg.policy.kind = policy;
        let result = run_experiment(&cfg).expect("valid configuration");

        // Approximate per-node energy from transmissions (communication
        // dominates, Section 2.1). Receptions at the root are charged too.
        let sensors = cfg.num_nodes as f64;
        let mean_tx = result.per_node_tx.iter().skip(1).sum::<u64>() as f64 / sensors;
        let mean_rx = result.per_node_rx.iter().skip(1).sum::<u64>() as f64 / sensors;
        let node_days = lifetime_days(mean_tx + mean_rx, window_secs);
        let root_messages = (result.per_node_tx[0] + result.per_node_rx[0]) as f64;
        let root_days = lifetime_days(root_messages, window_secs);

        println!(
            "{:<8} {:>10} {:>12} {:>20} {:>20}",
            policy.to_string(),
            result.total_messages(),
            result.messages.data,
            show(node_days),
            show(root_days),
        );
        rows.push((policy, node_days, root_days));
    }

    // The conclusion is read off the rows above, not assumed.
    let longest = |days: fn(&(StoragePolicy, f64, f64)) -> f64| {
        rows.iter()
            .max_by(|a, b| days(a).total_cmp(&days(b)))
            .map(|row| row.0)
            .expect("three policies ran")
    };
    println!();
    println!(
        "Longest average-node lifetime: {}. Longest root lifetime: {}.",
        longest(|row| row.1),
        longest(|row| row.2)
    );

    // Topology context for the curious.
    let topo = Topology::office_floor(base.num_nodes, base.seed).expect("topology");
    println!(
        "\n(network: {} nodes, depth {} hops, {:.0} % average connectivity)",
        topo.len(),
        topo.network_depth(),
        topo.connectivity_fraction() * 100.0
    );
}
