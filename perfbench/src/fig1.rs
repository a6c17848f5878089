//! `fig1_field`: the paper's Fig. 1 path in one process.
//!
//! Field: a CSMA/DODAG grid (20 m spacing, E5's routing defaults and
//! traffic: one 10 B reading per node every 30 s once the DODAG has had
//! 60 s to form), run in 1 s virtual slices. Gateway: after each slice a
//! benchmark-side adapter hands the root's new readings to
//! `Gateway::poll_all`, and `CloudUplink::drain` batches them northbound.
//! Cloud: every record becomes a token-bearing `UplinkMsg` stamped with
//! its root arrival time and goes through `IngestPipeline` (2 threaded
//! drain shards) with write-ahead log, admission and 10 s tumbling
//! windows; every closed window is reported into a `TwinStore`.

use crate::check::{crc32, window_digest, Digest, Fingerprint};
use crate::layers::{Counts, Span, Tracer};
use crate::{drain, ingest_latency, process_cpu, report_windows, Outcome, Shape};
use iiot_cloud::{
    DeviceRegistry, IngestConfig, IngestPipeline, StreamConfig, TenantId, TwinStore, UplinkMsg,
};
use iiot_core::deployment::{Deployment, MacChoice};
use iiot_crdt::ReplicaId;
use iiot_gateway::{
    Adapter, CloudUplink, Gateway, Measurement, PointInfo, Quality, Unit, WriteError,
};
use iiot_mac::csma::CsmaMac;
use iiot_routing::dodag::DodagNode;
use iiot_routing::Collected;
use iiot_security::Key;
use iiot_sim::{SimDuration, SimTime, Topology};
use iiot_stream::{LogConfig, RateLimit, WindowSpec};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Grid side and simulated seconds per shape.
fn size(shape: Shape) -> (usize, u64) {
    match shape {
        Shape::Full => (24, 900),
        Shape::Tiny => (5, 120),
    }
}

/// The single tenant the plant reports under.
const TENANT: TenantId = TenantId(0);

/// Readings the root collected but the gateway has not polled yet.
type Inbox = Arc<Mutex<Vec<Collected>>>;

/// The southbound adapter for the field: the DODAG root's collected
/// readings, one point per sensing node.
struct RootTap {
    inbox: Inbox,
    points: Vec<String>,
    devices: Vec<String>,
}

impl Adapter for RootTap {
    fn device(&self) -> &str {
        "dodag-root"
    }

    fn protocol(&self) -> &'static str {
        "rpl-dodag"
    }

    fn points(&self) -> Vec<PointInfo> {
        self.points
            .iter()
            .skip(1)
            .map(|p| PointInfo {
                point: p.clone(),
                unit: Unit::Raw,
                writable: false,
            })
            .collect()
    }

    fn poll(&mut self, _now_us: u64) -> Vec<Measurement> {
        let inbox = std::mem::take(&mut *self.inbox.lock().expect("inbox lock"));
        inbox
            .into_iter()
            .map(|c| Measurement {
                point: self.points[c.origin.0 as usize].clone(),
                value: c.seq as f64,
                unit: Unit::Raw,
                quality: Quality::Good,
                timestamp_us: c.received_at.as_micros(),
                device: self.devices[c.origin.0 as usize].clone(),
            })
            .collect()
    }

    fn write(&mut self, _point: &str, _value: f64) -> Result<(), WriteError> {
        Err(WriteError::ReadOnly)
    }
}

/// Everything built before the timed phase.
pub struct Setup {
    deployment: Deployment,
    gateway: Gateway,
    uplink: CloudUplink,
    inbox: Inbox,
    pipeline: IngestPipeline,
    tokens: Vec<u64>,
    twins: TwinStore,
    secs: u64,
}

/// Builds the field, gateway and cloud for `seed`.
pub fn setup(shape: Shape, seed: u64) -> Setup {
    let (side, secs) = size(shape);
    let n = side * side;
    let deployment = Deployment::builder(Topology::grid(side, side, 20.0))
        .mac(MacChoice::Csma)
        .seed(seed)
        .traffic(SimDuration::from_secs(30), 10, SimDuration::from_secs(60))
        .build();

    let mut registry = DeviceRegistry::new();
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&seed.to_le_bytes());
    let tenant = registry.create_tenant("plant", Key(key));
    assert_eq!(tenant, TENANT);
    registry.register_fleet(tenant, n as u32);
    let tokens = (0..n as u32)
        .map(|d| registry.token(tenant, d).expect("registered device"))
        .collect();

    let inbox = Inbox::default();
    let mut gateway = Gateway::new(ReplicaId(1));
    let uplink = CloudUplink::new(&gateway, TENANT.0, "field/");
    gateway.add_adapter(Box::new(RootTap {
        inbox: Arc::clone(&inbox),
        points: (0..n).map(|i| format!("field/n{i}")).collect(),
        devices: (0..n).map(|i| i.to_string()).collect(),
    }));

    let mut pipeline = IngestPipeline::new(
        registry,
        IngestConfig {
            shards: 2,
            ..IngestConfig::default()
        },
    );
    pipeline.attach_stream(
        StreamConfig::logged(LogConfig::default())
            .with_admission(RateLimit::per_sec(1_000, 1_000))
            .with_windows(WindowSpec::tumbling(SimDuration::from_secs(10))),
    );
    Setup {
        deployment,
        gateway,
        uplink,
        inbox,
        pipeline,
        tokens,
        twins: TwinStore::new(),
        secs,
    }
}

/// Runs the timed phase and checks its outputs.
pub fn run(s: Setup, tracer: &mut Tracer) -> Outcome {
    let Setup {
        mut deployment,
        mut gateway,
        uplink,
        inbox,
        mut pipeline,
        tokens,
        mut twins,
        secs,
    } = s;
    let mut collected_seen = 0usize;
    let mut windows_seen = 0usize;
    let mut records = 0u64;
    let mut errors = Vec::new();
    let mut drain_ticks = 0u64;

    let cpu0 = process_cpu();
    let started = Instant::now();
    for _ in 0..secs {
        tracer.time(Span::SimRun, || {
            deployment.run_for(SimDuration::from_secs(1))
        });
        let now = deployment.world.now();
        let root = deployment
            .world
            .proto::<DodagNode<CsmaMac>>(deployment.root);
        let fresh = &root.collected()[collected_seen..];
        collected_seen += fresh.len();
        inbox.lock().expect("inbox lock").extend_from_slice(fresh);

        tracer.time(Span::GatewayPoll, || gateway.poll_all(now.as_micros()));
        let batch = tracer.time(Span::UplinkDrain, || uplink.drain());
        records += batch.len() as u64;
        for rec in batch {
            let device = match rec.device.parse::<u32>() {
                Ok(d) if (d as usize) < tokens.len() => d,
                _ => {
                    errors.push(format!(
                        "uplink record from unknown device {:?}",
                        rec.device
                    ));
                    continue;
                }
            };
            let msg = UplinkMsg {
                tenant: TenantId(rec.tenant),
                device,
                token: tokens[device as usize],
                value: rec.value,
                t: SimTime::from_micros(rec.timestamp_us),
            };
            drain_ticks += drain(&mut pipeline, tracer, |p| p.drain_until(msg.t));
            tracer.time(Span::CloudOffer, || pipeline.offer(msg));
        }
        drain_ticks += drain(&mut pipeline, tracer, |p| p.drain_until(now));
        windows_seen = report_windows(pipeline.closed_windows(), windows_seen, &mut twins, tracer);
    }
    drain_ticks += drain(&mut pipeline, tracer, IngestPipeline::drain_remaining);
    tracer.time(Span::StreamFlush, || pipeline.flush_windows());
    report_windows(pipeline.closed_windows(), windows_seen, &mut twins, tracer);
    let wall = started.elapsed();
    let cpu = process_cpu() - cpu0;

    // Outputs, outside the timed phase.
    let world = &deployment.world;
    let stats = world.stats();
    let medium = world.medium().stats();
    let events = world.events_dispatched();
    let generated = stats.node_total("data_origin") as u64;
    let root = world.proto::<DodagNode<CsmaMac>>(deployment.root);
    let collected = root.collected();
    let (offered, accepted, shed, drained) = pipeline.totals();
    let st = pipeline.tenant_stats(TENANT).expect("plant tenant stats");
    let wal = pipeline.wal().expect("wal attached");
    let windows = pipeline.windows().expect("windows attached");
    let closed = pipeline.closed_windows();

    let mut readings = Digest::default();
    let mut latencies: Vec<u64> = Vec::with_capacity(collected.len());
    for c in collected {
        readings.word(((c.origin.0 as u64) << 16) | c.seq as u64);
        readings.word(c.received_at.as_micros());
        latencies.push(c.latency().as_micros());
    }
    latencies.sort_unstable();

    if gateway.measurements_processed() != collected.len() as u64 {
        errors.push(format!(
            "gateway normalized {} measurements for {} collected readings",
            gateway.measurements_processed(),
            collected.len()
        ));
    }
    if records != collected.len() as u64 || offered != records {
        errors.push(format!(
            "{} collected, {records} uplinked, {offered} offered",
            collected.len()
        ));
    }
    if accepted != drained || accepted + shed != offered {
        errors.push(format!(
            "ingest totals inconsistent: {offered} offered, {accepted} accepted, {shed} shed, {drained} drained"
        ));
    }
    if wal.records() != offered {
        errors.push(format!(
            "{} log records for {offered} offers",
            wal.records()
        ));
    }
    if windows.observed() != accepted {
        errors.push(format!(
            "{} window observations for {accepted} accepted",
            windows.observed()
        ));
    }

    let mut fp = Fingerprint::default();
    fp.put("events", events)
        .put("tx_started", medium.tx_started)
        .put("delivered", medium.delivered)
        .put("lost_collision", medium.lost_collision)
        .put("lost_prr", medium.lost_prr)
        .put("generated", generated)
        .put("collected", collected.len() as u64)
        .put("readings", readings.value())
        .put("offered", offered)
        .put("accepted", accepted)
        .put("shed", shed)
        .put("max_depth", st.max_depth as u64)
        .put("log_bytes", wal.len_bytes())
        .put("log_crc", crc32(wal.as_bytes()) as u64)
        .put("windows", closed.len() as u64)
        .put("window_digest", window_digest(closed))
        .put("twins", twins.len() as u64)
        .put("twin_events", twins.total_events());

    let quantile = |q: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let i = ((latencies.len() as f64 * q).ceil() as usize).clamp(1, latencies.len()) - 1;
        latencies[i] as f64 / 1e6
    };
    let host = wall.as_secs_f64();
    let report = vec![
        ("events_per_s", events as f64 / host, "1/s"),
        ("readings_per_s", accepted as f64 / host, "1/s"),
        (
            "delivery_ratio",
            accepted as f64 / generated.max(1) as f64,
            "ratio",
        ),
        ("field_latency_p50_s", quantile(0.5), "s"),
        ("field_latency_p99_s", quantile(0.99), "s"),
        ("field_latency_samples", latencies.len() as f64, "count"),
        (
            "ingest_p99_ms",
            ingest_latency(&pipeline, |_| true).quantile(0.99) / 1e3,
            "ms",
        ),
    ];

    let mut counts = Counts::default();
    let mac_tx = stats.node_total("mac_tx_data");
    let mac_fail = stats.node_total("mac_tx_fail");
    counts.set("sim.events", events as f64);
    crate::medium_counts(&mut counts, &medium);
    counts.set("mac.tx_data", mac_tx);
    counts.set("mac.tx_fail", mac_fail);
    counts.set("mac.cca_fail", stats.node_total("mac_cca_fail"));
    counts.set("mac.ack_timeout", stats.node_total("mac_ack_timeout"));
    counts.set("mac.fail_ratio", Counts::ratio(mac_fail, mac_tx));
    counts.set("routing.dio_tx", stats.node_total("dio_tx"));
    counts.set("routing.data_fwd", stats.node_total("data_fwd"));
    counts.set("routing.parent_switch", stats.node_total("parent_switch"));
    let drops: f64 = [
        "data_drop_queue",
        "data_drop_size",
        "data_drop_ttl",
        "data_drop_retries",
    ]
    .iter()
    .map(|k| stats.node_total(k))
    .sum();
    counts.set("routing.data_drop", drops);
    counts.set(
        "routing.tx_per_delivered",
        Counts::ratio(mac_tx, collected.len() as f64),
    );
    counts.set(
        "gateway.measurements",
        gateway.measurements_processed() as f64,
    );
    counts.set("gateway.records", records as f64);
    crate::ingest_counts(&mut counts, &pipeline, drain_ticks);
    counts.set("cloud.twin_updates", twins.total_events() as f64);

    Outcome {
        wall,
        cpu,
        ops: events,
        attempted: generated,
        errors,
        fingerprint: fp,
        report,
        counts,
        timings: tracer.timings(),
    }
}
