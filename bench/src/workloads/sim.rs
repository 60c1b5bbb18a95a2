//! The simulator workloads: paper scale through `scoop_lab::run_suite`, the
//! SCOOP remap at 1024 sensors, and HASH at the 32,767-sensor cap.
//!
//! Host time is what the simulator takes; simulated time is what the
//! modelled network would take. Every rate here is events per *host*
//! second. A simulator-only speed-up must leave `sim_stats_digest`
//! identical.

use super::{fastest, timed, total_rate, Ctx};
use crate::micro;
use crate::stats::{median, percentile, sorted, Digest};
use crate::trace::durations_ms;
use scoop::lab::{
    diff_rows, paper_baseline, run_suite, Artifact, ExperimentId, PointSet, Scale, SuiteOptions,
};
use scoop::net::{Engine, LinkGen, StdLinkGen, StdTopologyGen, TopologyGen};
use scoop::sim::{build_engine, build_engine_with, SimNode, SweepRunner};
use scoop::types::{
    DataSourceKind, ExperimentConfig, MessageStats, SimTime, StoragePolicy, TopologyKind,
};

/// Folds what a finished engine simulated: events, per-kind message totals,
/// readings sampled and stored. Returns `(sampled, stored)` too.
fn fold_engine(digest: &mut Digest, engine: &Engine<SimNode>) -> (u64, u64) {
    let fold_stats = |digest: &mut Digest, s: MessageStats| {
        for v in [
            s.data,
            s.summary,
            s.mapping,
            s.query,
            s.reply,
            s.aggregate,
            s.heartbeat,
        ] {
            digest.fold_u64(v);
        }
    };
    digest.fold_u64(engine.events_processed());
    fold_stats(digest, engine.stats().total_tx());
    fold_stats(digest, engine.stats().total_rx());
    let (mut sampled, mut stored) = (0, 0);
    for (_, node) in engine.iter_nodes() {
        sampled += node.metrics.sampled;
        stored += node.metrics.stored;
    }
    digest.fold_u64(sampled);
    digest.fold_u64(stored);
    (sampled, stored)
}

/// Advances `engine` to `until_secs` in `step_secs` slices of simulated
/// time, returning `(events, host seconds)` per slice — `run_until`
/// unrolled, so every slice is one span and one sample.
fn drive(
    ctx: &mut Ctx,
    engine: &mut Engine<SimNode>,
    until_secs: u64,
    step_secs: u64,
) -> Vec<(f64, f64)> {
    let mut slices = Vec::new();
    let mut at = engine.now().as_millis() / 1_000;
    while at < until_secs {
        at = (at + step_secs).min(until_secs);
        let before = engine.events_processed();
        let span = ctx.tracer.begin("sim.slice");
        let (secs, ()) = timed(|| engine.run_until(SimTime::from_secs(at)));
        ctx.tracer.end(span);
        slices.push(((engine.events_processed() - before) as f64, secs));
    }
    slices
}

/// The sanity checks every simulator workload makes on a finished engine.
fn check_engine(ctx: &mut Ctx, digest: &mut Digest, engine: &Engine<SimNode>) {
    let (sampled, stored) = fold_engine(digest, engine);
    let events = engine.events_processed();
    ctx.report.check(events > 0 && stored <= sampled, || {
        format!("events {events}, stored {stored} > sampled {sampled}")
    });
}

/// Runs one short spec of `policy` twice and requires identical statistics.
fn check_determinism(ctx: &mut Ctx, policy: StoragePolicy) {
    let mut cfg = ExperimentConfig::small_test();
    cfg.policy.kind = policy;
    cfg.workload.data_source = DataSourceKind::Gaussian;
    cfg.seed = ctx.seed;
    let digest_of = |cfg: &ExperimentConfig| -> Result<String, String> {
        let mut engine = build_engine(cfg).map_err(|e| e.to_string())?;
        engine.run_until(SimTime::ZERO + cfg.duration);
        let mut digest = Digest::new();
        fold_engine(&mut digest, &engine);
        Ok(digest.render())
    };
    let (a, b) = (digest_of(&cfg), digest_of(&cfg));
    ctx.report.check(a.is_ok() && a == b, || {
        format!("short {policy} spec is not deterministic: {a:?} vs {b:?}")
    });
}

fn record_run(ctx: &mut Ctx, label: &'static str, slices: &[(f64, f64)], digest: &Digest) {
    let events: f64 = slices.iter().map(|s| s.0).sum();
    let secs: f64 = slices.iter().map(|s| s.1).sum();
    let rate = total_rate(slices);
    ctx.report.set_n("sim_events_per_s", rate, slices.len());
    ctx.report.set("sim_run_s", secs);
    ctx.report.set("run_s", secs);
    ctx.report.set(label, secs * 1e9 / events.max(1.0));
    ctx.report.note("sim_stats_digest", digest.render());
    ctx.report.note("sim_events", format!("{events}"));
}

// ------------------------------------------------------------ sim-paper62

const PAPER62_EXPERIMENTS: [ExperimentId; 5] = [
    ExperimentId::Fig3Middle,
    ExperimentId::Fig5,
    ExperimentId::RangeWidth,
    ExperimentId::AggregateOps,
    ExperimentId::ChaosSinkFailover,
];

/// `sim-paper62`: the paper's own scale through the lab's suite runner.
pub fn paper62(ctx: &mut Ctx) -> Result<(), String> {
    let mut base = Scale::Paper.base_config();
    base.seed = ctx.seed;
    // Set-up is what each of the suite's runs pays before simulating.
    const SETUPS: usize = 200;
    let (setup_s, built) = fastest(SETUPS, || build_engine(&base).map(|e| e.pending_events()));
    built.map_err(|e| e.to_string())?;
    ctx.report.set_n("setup_s", setup_s, SETUPS);

    let passes = ctx.scaled(1, 1);
    let mut slices = Vec::new();
    let mut digest = Digest::new();
    let (mut suite_secs, mut inner_secs) = (0.0, 0.0);
    // The artifact with the most rows, for the serialization probe.
    let mut last: Option<Artifact> = None;
    for pass in 0..passes {
        let options = SuiteOptions {
            scale: Scale::Paper,
            trials: 1,
            seed: ctx.seed + pass as u64,
            points: PointSet::Full,
            experiments: PAPER62_EXPERIMENTS.to_vec(),
            overrides: Vec::new(),
        };
        let span = ctx.tracer.begin("lab.run_suite");
        let (secs, artifacts) = timed(|| run_suite(&options, |_| ()));
        ctx.tracer.end(span);
        suite_secs += secs;
        for artifact in artifacts.map_err(|e| e.to_string())? {
            let p = &artifact.provenance;
            slices.push((p.events_processed as f64, p.wall_clock_secs));
            inner_secs += p.wall_clock_secs;
            digest.fold(
                artifact
                    .deterministic_json()
                    .map_err(|e| e.to_string())?
                    .as_bytes(),
            );
            let (rows, events) = (artifact.rows.len(), p.events_processed);
            ctx.report.check(rows > 0 && events > 0, || {
                format!("{}: {rows} rows, {events} events", artifact.experiment)
            });
            if last.as_ref().is_none_or(|l: &Artifact| l.rows.len() < rows) {
                last = Some(artifact);
            }
        }
    }
    // Rate over the suite's own wall clock, set-up of its runs included:
    // `run_suite` does not expose the split.
    let events: f64 = slices.iter().map(|s| s.0).sum();
    record_run(
        ctx,
        "sim.host_ns_per_event.paper62",
        &[(events, suite_secs)],
        &digest,
    );
    ctx.report.set(
        "lab.suite_overhead_frac",
        (1.0 - inner_secs / suite_secs).max(0.0),
    );
    check_determinism(ctx, StoragePolicy::Scoop);

    if ctx.traced() {
        ctx.report
            .set("net.queue_hold_ns.d1k", micro::queue_hold_ns(1_000, 1));
        let flood = micro::flood_grid(8, 1_800);
        ctx.report
            .set("net.flood_events_per_s.n64", flood.events_per_s);
        ctx.report
            .set("core.index_build_ms.n62", micro::index_build_ms(62, 9));
        let (on_beacon, next_hop) = micro::routing_ns();
        ctx.report.set("routing.on_beacon_ns", on_beacon);
        ctx.report.set("routing.next_hop_ns", next_hop);
        let (store, read) = micro::data_buffer_ns();
        ctx.report.set("storage.buffer_store_ns", store);
        ctx.report
            .set("storage.read_new_since_ns_per_reading", read);
        if let Some(artifact) = &last {
            let samples: Vec<f64> = (0..9)
                .map(|_| timed(|| artifact.to_json().map(|j| j.len())).0 * 1e3)
                .collect();
            ctx.report
                .set_n("lab.artifact_json_ms", median(&samples), samples.len());
        }
        ctx.report.set("lab.paper_drift_rows", paper_drift_rows()?);
        ctx.report
            .set("sim.sweep_speedup.t2", sweep_speedup(ctx.seed)?);
    }
    Ok(())
}

/// Figure 4 at the committed seed against the paper's own numbers: how many
/// baseline rows drift. Stated beside every simulator speed-up so accuracy
/// is never silently traded for speed.
fn paper_drift_rows() -> Result<f64, String> {
    let options = SuiteOptions {
        scale: Scale::Paper,
        trials: 1,
        seed: 1,
        points: PointSet::Full,
        experiments: vec![ExperimentId::Fig4],
        overrides: Vec::new(),
    };
    let artifacts = run_suite(&options, |_| ()).map_err(|e| e.to_string())?;
    let baseline = paper_baseline(ExperimentId::Fig4).ok_or("no paper baseline for fig4")?;
    let measured = artifacts[0]
        .rows
        .measured_rows(ExperimentId::Fig4.reference_key());
    let (_, drift, missing) = diff_rows(&measured, &baseline).counts();
    Ok((drift + missing) as f64)
}

/// Sequential over two-thread wall clock of eight quick configurations.
fn sweep_speedup(seed: u64) -> Result<f64, String> {
    let configs: Vec<ExperimentConfig> = (0..8)
        .map(|i| {
            let mut cfg = ExperimentConfig::small_test();
            cfg.workload.data_source = DataSourceKind::Gaussian;
            cfg.seed = seed + i;
            cfg
        })
        .collect();
    let (sequential, a) = timed(|| SweepRunner::sequential().run_configs(&configs));
    let (threaded, b) = timed(|| SweepRunner::with_threads(2).run_configs(&configs));
    let events = |r: Result<Vec<scoop::sim::RunResult>, _>| -> Result<Vec<u64>, String> {
        r.map(|rs| rs.iter().map(|r| r.events_processed).collect())
            .map_err(|e: scoop::types::ScoopError| e.to_string())
    };
    if events(a)? != events(b)? {
        return Err("threaded sweep disagrees with the sequential one".into());
    }
    Ok(sequential / threaded.max(1e-9))
}

// ------------------------------------------------------------ sim-scoop1k

fn grid_config(policy: StoragePolicy, sensors: usize, seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_defaults();
    cfg.topology.kind = TopologyKind::Grid;
    cfg.workload.data_source = DataSourceKind::Gaussian;
    cfg.policy.kind = policy;
    cfg.num_nodes = sensors;
    cfg.seed = seed;
    cfg
}

/// `sim-scoop1k`: SCOOP on a 1024-sensor grid at the paper's durations.
pub fn scoop1k(ctx: &mut Ctx) -> Result<(), String> {
    const SETUPS: usize = 30;
    let repetitions = ctx.scaled(2, 1);
    let mut setup_s = f64::INFINITY;
    let mut slices = Vec::new();
    let mut digest = Digest::new();
    for rep in 0..repetitions {
        let cfg = grid_config(StoragePolicy::Scoop, 1024, ctx.seed + rep as u64);
        let (secs, engine) = fastest(SETUPS, || build_engine(&cfg));
        setup_s = setup_s.min(secs);
        let mut engine = engine.map_err(|e| e.to_string())?;
        // `run_built_experiment` unrolled: 60-simulated-second slices to
        // the spec's duration, so remap slices stand out.
        let until = cfg.duration.as_millis() / 1_000;
        slices.extend(drive(ctx, &mut engine, until, 60));
        check_engine(ctx, &mut digest, &engine);
    }
    ctx.report.set_n("setup_s", setup_s, SETUPS * repetitions);
    record_run(ctx, "sim.host_ns_per_event.scoop1k", &slices, &digest);
    check_determinism(ctx, StoragePolicy::Scoop);

    if ctx.traced() {
        let slice_ms = sorted(durations_ms(ctx.tracer.spans(), "sim.slice"));
        ctx.report.set_n(
            "sim.slice_ms.p50.scoop1k",
            percentile(&slice_ms, 0.5).unwrap_or(0.0),
            slice_ms.len(),
        );
        ctx.report.set(
            "sim.slice_ms.max.scoop1k",
            slice_ms.last().copied().unwrap_or(0.0),
        );
        ctx.report
            .set("core.index_build_ms.n256", micro::index_build_ms(256, 5));
        ctx.report
            .set("core.index_build_ms.n1024", micro::index_build_ms(1024, 1));
        ctx.report.set(
            "core.cost_rows_materialized.n1024",
            micro::cost_rows_materialized(1024),
        );
        let (summary, query) = micro::stats_store_ns();
        ctx.report.set("core.record_summary_ns", summary);
        ctx.report.set("core.record_query_ns", query);
        ctx.report.set(
            "trickle.split_accept_us.n1024",
            micro::trickle_split_accept_us(),
        );
    }
    Ok(())
}

// ------------------------------------------------------------ sim-hash32k

/// `SimBuilder::build` unrolled, so each generator is one span: the engine
/// and the seconds `[topology, links, assemble]` took.
fn build_unrolled(
    ctx: &mut Ctx,
    cfg: &ExperimentConfig,
) -> Result<(Engine<SimNode>, [f64; 3]), String> {
    let err = |e: scoop::types::ScoopError| e.to_string();
    let span = ctx.tracer.begin("sim.build_engine");
    let (topology_s, topology) = ctx.tracer.span("net.topology_build", || {
        timed(|| StdTopologyGen.generate(&cfg.topology, cfg.num_nodes, cfg.seed))
    });
    let topology = topology.map_err(err)?;
    let (links_s, links) = ctx.tracer.span("net.links_build", || {
        timed(|| StdLinkGen.generate(&cfg.link, &topology, cfg.seed))
    });
    let links = links.map_err(err)?;
    let (assemble_s, engine) = ctx.tracer.span("sim.assemble", || {
        timed(|| build_engine_with(cfg, topology, links))
    });
    ctx.tracer.end(span);
    Ok((engine.map_err(err)?, [topology_s, links_s, assemble_s]))
}

/// `sim-hash32k`: HASH at the `MAX_NODES` cap.
pub fn hash32k(ctx: &mut Ctx) -> Result<(), String> {
    const WARMUP_SECS: u64 = 90;
    const SLICE_SECS: u64 = 30;
    let mut cfg = grid_config(StoragePolicy::Hash, 32_767, ctx.seed);
    cfg.warmup = scoop::types::SimDuration::from_secs(WARMUP_SECS);
    let run_slices = ctx.scaled(10, 5) as u64;
    cfg.duration = scoop::types::SimDuration::from_secs(WARMUP_SECS + run_slices * SLICE_SECS);

    let err = |e: scoop::types::ScoopError| e.to_string();
    let rss_before = crate::sys::rss_mib();
    let (mut engine, mut build_s) = build_unrolled(ctx, &cfg)?;
    // Resident memory the built network holds (topology, links, node state,
    // engine), per node.
    let built_mib = crate::sys::rss_mib() - rss_before;
    let nodes = engine.topology().len() as f64;

    let warmup = ctx.tracer.begin("sim.warmup");
    engine.run_until(SimTime::ZERO + cfg.warmup);
    ctx.tracer.end(warmup);
    let until = cfg.duration.as_millis() / 1_000;
    let slices = drive(ctx, &mut engine, until, SLICE_SECS);
    let mut digest = Digest::new();
    check_engine(ctx, &mut digest, &engine);
    record_run(ctx, "sim.host_ns_per_event.hash32k", &slices, &digest);
    // The traced run floods the same network with the bare engine.
    let flood_network = ctx
        .traced()
        .then(|| (engine.topology().clone(), engine.links().clone()));
    drop(engine);
    // One build cannot be repeated inside a second; a second one, taken
    // after the run, lets `setup_s` report the faster of two that ran some
    // ten seconds apart.
    let (_, again) = build_unrolled(ctx, &cfg)?;
    if again.iter().sum::<f64>() < build_s.iter().sum::<f64>() {
        build_s = again;
    }
    ctx.report.set_n("setup_s", build_s.iter().sum(), 2);
    check_determinism(ctx, StoragePolicy::Hash);

    if let Some((topology, links)) = flood_network {
        ctx.report.set("net.topology_build_s.n32k", build_s[0]);
        ctx.report.set("net.links_build_s.n32k", build_s[1]);
        let flood = micro::flood(topology, links, 60);
        ctx.report.set("net.engine_new_s.n32k", flood.engine_new_s);
        ctx.report
            .set("net.flood_events_per_s.n32k", flood.events_per_s);
        ctx.report.set(
            "net.rss_bytes_per_node.n32k",
            built_mib * 1024.0 * 1024.0 / nodes,
        );
        ctx.report
            .set("net.queue_hold_ns.d1m", micro::queue_hold_ns(1_000_000, 1));
        ctx.report.set(
            "net.queue_hold_ns.d1m.s8",
            micro::queue_hold_ns(1_000_000, 8),
        );
        // SimNode handler cost at 4096 nodes: HASH ns/event minus the bare
        // engine's ns/event on the same grid.
        let flood4k = micro::flood_grid(64, 240);
        ctx.report
            .set("net.flood_events_per_s.n4096", flood4k.events_per_s);
        let cfg4k = grid_config(StoragePolicy::Hash, 4_095, ctx.seed);
        let mut engine4k = build_engine(&cfg4k).map_err(err)?;
        let (secs, ()) = timed(|| engine4k.run_until(SimTime::from_secs(240)));
        let hash_ns = secs * 1e9 / engine4k.events_processed().max(1) as f64;
        ctx.report.set(
            "sim.handler_ns_per_event.n4096",
            hash_ns - 1e9 / flood4k.events_per_s,
        );
    }
    Ok(())
}
