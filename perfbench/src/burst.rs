//! `cloud_burst`: the cloud and stream tiers alone, under a noisy
//! neighbour. Four tenants share an ingest pipeline (per-tenant queues,
//! 2 threaded drain shards) with write-ahead log, 25.6 k/s per-tenant
//! admission and 10 s tumbling windows; tenant 0 reports 4x faster than
//! the others, so it overruns its admission contract and the shed paths
//! run. Closed windows are reported into a `TwinStore`. The live run's
//! log is then replayed through a fresh pipeline, timed on its own.

use crate::check::{crc32, window_digest, Digest, Fingerprint};
use crate::layers::{Counts, Span, Tracer};
use crate::{drain, ingest_latency, process_cpu, report_windows, Outcome, Shape};
use iiot_cloud::{
    metrics, replay, DeviceRegistry, IngestConfig, IngestPipeline, SessionGen, SessionPlan,
    StreamConfig, TenantId, TwinStore, UplinkMsg,
};
use iiot_security::Key;
use iiot_sim::seed;
use iiot_sim::SimDuration;
use iiot_stream::{LogConfig, RateLimit, WindowSpec};
use std::time::Instant;

/// Tenants sharing the pipeline; tenant 0 is the noisy neighbour.
const TENANTS: u16 = 4;

/// Fingerprint keys of the tenants' summaries.
const TENANT_KEYS: [&str; TENANTS as usize] = ["tenant0", "tenant1", "tenant2", "tenant3"];

/// Devices per tenant and messages per device for each shape.
fn size(shape: Shape) -> (u32, u32) {
    match shape {
        Shape::Full => (25_000, 4),
        Shape::Tiny => (500, 4),
    }
}

/// A registry of [`TENANTS`] fleets with keys derived from `seed`.
fn fleet(devices: u32, seed_val: u64) -> DeviceRegistry {
    let mut reg = DeviceRegistry::new();
    for i in 0..TENANTS {
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&seed::derive(seed_val, i as u64).to_le_bytes());
        key[8..].copy_from_slice(&seed::derive(seed_val ^ 0xA5, i as u64).to_le_bytes());
        let t = reg.create_tenant(&format!("tenant-{i}"), Key(key));
        reg.register_fleet(t, devices);
    }
    reg
}

fn ingest_config() -> IngestConfig {
    IngestConfig {
        shards: 2,
        ..IngestConfig::default()
    }
}

/// 1.024 admitted msgs/s per device: 25.6 k/s for 25 k devices, the
/// drain capacity of one tenant queue (256 msgs per 10 ms tick).
fn stream_config(devices: u32) -> StreamConfig {
    StreamConfig::logged(LogConfig::default())
        .with_admission(RateLimit::per_sec(devices as u64 * 1024 / 1000, 1024))
        .with_windows(WindowSpec::tumbling(SimDuration::from_secs(10)))
}

/// Everything built before the timed phase: the materialized offer
/// sequence, the live pipeline and a second registry for the replay.
pub struct Setup {
    msgs: Vec<UplinkMsg>,
    pipeline: IngestPipeline,
    replay_registry: DeviceRegistry,
    twins: TwinStore,
    devices: u32,
}

/// Generates the sessions for `seed` and builds both pipelines' inputs.
pub fn setup(shape: Shape, seed_val: u64) -> Setup {
    let (devices, per_device) = size(shape);
    let registry = fleet(devices, seed_val);
    let plan = SessionPlan {
        msgs_per_device: per_device,
        noisy: Some((TenantId(0), 4)),
        ..SessionPlan::default()
    };
    let mut gen = SessionGen::new(&registry, plan, seed_val);
    let mut msgs = Vec::with_capacity(gen.total_msgs() as usize);
    while let Some(m) = gen.next_msg(&registry) {
        msgs.push(m);
    }
    let mut pipeline = IngestPipeline::new(registry, ingest_config());
    pipeline.attach_stream(stream_config(devices));
    Setup {
        msgs,
        pipeline,
        replay_registry: fleet(devices, seed_val),
        twins: TwinStore::new(),
        devices,
    }
}

/// Runs the live and replay phases and checks their outputs.
pub fn run(s: Setup, tracer: &mut Tracer) -> Outcome {
    let Setup {
        msgs,
        mut pipeline,
        replay_registry,
        mut twins,
        devices,
    } = s;
    let tick = pipeline.config().tick.as_micros();
    let mut drain_ticks = 0u64;
    let mut windows_seen = 0usize;

    let cpu0 = process_cpu();
    let started = Instant::now();
    // Offers are timed in runs between drain ticks: one clock read per
    // message would cost as much as the offer itself.
    let mut offers = tracer.mark();
    for &msg in &msgs {
        if msg.t.as_micros() / tick > pipeline.now().as_micros() / tick {
            tracer.charge(Span::CloudOffer, offers);
            drain_ticks += drain(&mut pipeline, tracer, |p| p.drain_until(msg.t));
            windows_seen =
                report_windows(pipeline.closed_windows(), windows_seen, &mut twins, tracer);
            offers = tracer.mark();
        }
        pipeline.offer(msg);
    }
    tracer.charge(Span::CloudOffer, offers);
    drain_ticks += drain(&mut pipeline, tracer, IngestPipeline::drain_remaining);
    tracer.time(Span::StreamFlush, || pipeline.flush_windows());
    report_windows(pipeline.closed_windows(), windows_seen, &mut twins, tracer);
    let live_wall = started.elapsed();

    let wal = pipeline.wal().expect("wal attached").as_bytes();
    let replay_started = Instant::now();
    let (replayed, report) = tracer.time(Span::Replay, || {
        replay(
            wal,
            replay_registry,
            ingest_config(),
            stream_config(devices),
            None,
        )
    });
    let replay_wall = replay_started.elapsed();
    let wall = live_wall + replay_wall;
    let cpu = process_cpu() - cpu0;

    // Outputs and checks, outside the timed phase.
    let (offered, accepted, shed, drained) = pipeline.totals();
    let summaries = metrics::summarize(&pipeline);
    let mut errors = Vec::new();
    if offered != msgs.len() as u64 || accepted + shed != offered || accepted != drained {
        errors.push(format!(
            "ingest totals inconsistent: {} generated, {offered} offered, {accepted} accepted, {shed} shed, {drained} drained",
            msgs.len()
        ));
    }
    if report.records != offered || report.truncated_bytes != 0 {
        errors.push(format!(
            "recovery kept {} of {offered} records, truncated {} B",
            report.records, report.truncated_bytes
        ));
    }
    if metrics::summarize(&replayed) != summaries {
        errors.push("replay did not reproduce the live per-tenant summaries".into());
    }
    if replayed.closed_windows() != pipeline.closed_windows() {
        errors.push("replay did not reproduce the live closed windows".into());
    }
    if replayed.wal().map(|w| w.as_bytes()) != Some(wal) {
        errors.push("replay did not re-persist byte-identical log bytes".into());
    }
    let observed = pipeline.windows().map_or(0, |w| w.observed());
    if observed != accepted {
        errors.push(format!(
            "{observed} window observations for {accepted} accepted"
        ));
    }
    let ratelimited: u64 = summaries.iter().map(|x| x.shed_ratelimit).sum();
    if ratelimited == 0 {
        errors.push("the noisy tenant never hit its admission limit".into());
    }

    let mut fp = Fingerprint::default();
    for x in &summaries {
        let mut d = Digest::default();
        for w in [
            x.offered,
            x.accepted,
            x.shed_auth,
            x.shed_ratelimit,
            x.shed_full,
            x.p50_us,
            x.p99_us,
        ] {
            d.word(w);
        }
        fp.put(TENANT_KEYS[x.tenant.0 as usize], d.value());
    }
    fp.put("offered", offered)
        .put("accepted", accepted)
        .put("shed", shed)
        .put("log_bytes", wal.len() as u64)
        .put("log_crc", crc32(wal) as u64)
        .put("windows", pipeline.closed_windows().len() as u64)
        .put("window_digest", window_digest(pipeline.closed_windows()))
        .put("twins", twins.len() as u64)
        .put("twin_events", twins.total_events());

    let quiet = ingest_latency(&pipeline, |t| t != TenantId(0));
    let report_metrics = vec![
        (
            "msgs_per_s",
            offered as f64 / live_wall.as_secs_f64(),
            "1/s",
        ),
        (
            "replay_msgs_per_s",
            offered as f64 / replay_wall.as_secs_f64(),
            "1/s",
        ),
        (
            "ingest_p99_ms",
            ingest_latency(&pipeline, |_| true).quantile(0.99) / 1e3,
            "ms",
        ),
        ("quiet_p99_ms", quiet.quantile(0.99) / 1e3, "ms"),
        ("shed_ratio", shed as f64 / offered.max(1) as f64, "ratio"),
    ];
    let mut counts = Counts::default();
    crate::ingest_counts(&mut counts, &pipeline, drain_ticks);
    counts.set("cloud.twin_updates", twins.total_events() as f64);

    Outcome {
        wall,
        cpu,
        // Live offers plus the replay's re-offers of every logged one.
        ops: offered + report.records,
        attempted: offered,
        errors,
        fingerprint: fp,
        report: report_metrics,
        counts,
        timings: tracer.timings(),
    }
}
