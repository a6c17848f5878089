//! Per-layer accounting: host time spent in calls into each crate's
//! public functions (timed from the benchmark's side of the call) and
//! the work counts each crate reports about itself.
//!
//! Timers cost one branch when tracing is off: [`Tracer::time`] only
//! reads the clock when the tracer was built enabled.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A timed call site: one public entry point of one crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// `Sim::run` / `Deployment::run_for` (sim + mac + routing).
    SimRun,
    /// `Gateway::poll_all`.
    GatewayPoll,
    /// `CloudUplink::drain`.
    UplinkDrain,
    /// `IngestPipeline::offer` (log append, admission, auth, enqueue).
    CloudOffer,
    /// `IngestPipeline::drain_until` / `drain_remaining`.
    CloudDrain,
    /// `TwinStore::report`.
    TwinReport,
    /// `IngestPipeline::flush_windows`.
    StreamFlush,
    /// `cloud::replay` (log recovery + re-offer).
    Replay,
}

const SPANS: usize = 8;

impl Span {
    /// The per-layer metric this span's busy time is reported as.
    fn metric(self) -> &'static str {
        match self {
            Span::SimRun => "sim.run_s",
            Span::GatewayPoll => "gateway.poll_s",
            Span::UplinkDrain => "gateway.uplink_drain_s",
            Span::CloudOffer => "cloud.offer_s",
            Span::CloudDrain => "cloud.drain_s",
            Span::TwinReport => "cloud.twin_report_s",
            Span::StreamFlush => "stream.flush_s",
            Span::Replay => "cloud.replay_s",
        }
    }

    const ALL: [Span; SPANS] = [
        Span::SimRun,
        Span::GatewayPoll,
        Span::UplinkDrain,
        Span::CloudOffer,
        Span::CloudDrain,
        Span::TwinReport,
        Span::StreamFlush,
        Span::Replay,
    ];
}

/// Accumulates busy time per [`Span`] when enabled.
pub struct Tracer {
    on: bool,
    busy: [Duration; SPANS],
}

impl Tracer {
    /// A tracer that times calls (`on`) or only forwards them.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            busy: [Duration::ZERO; SPANS],
        }
    }

    /// Runs `f`, charging its wall time to `span` when tracing.
    #[inline]
    pub fn time<R>(&mut self, span: Span, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let r = f();
        self.busy[span as usize] += start.elapsed();
        r
    }

    /// The current instant when tracing, for [`charge`](Self::charge).
    #[inline]
    pub fn mark(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    /// Charges the time since `mark` to `span`.
    #[inline]
    pub fn charge(&mut self, span: Span, mark: Option<Instant>) {
        if let Some(m) = mark {
            self.busy[span as usize] += m.elapsed();
        }
    }

    /// Busy seconds per span metric; empty when tracing was off.
    pub fn timings(&self) -> BTreeMap<&'static str, f64> {
        if !self.on {
            return BTreeMap::new();
        }
        Span::ALL
            .iter()
            .map(|&s| (s.metric(), self.busy[s as usize].as_secs_f64()))
            .collect()
    }
}

/// Every per-layer metric the traced run reports, with its unit, in
/// output order. A workload reports 0 for a layer it does not touch.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.run_s", "s"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.tx_started", "count"),
    ("sim.delivered", "count"),
    ("sim.lost_collision", "count"),
    ("sim.lost_prr", "count"),
    ("sim.delivered_per_tx", "ratio"),
    ("mac.tx_data", "count"),
    ("mac.tx_fail", "count"),
    ("mac.cca_fail", "count"),
    ("mac.ack_timeout", "count"),
    ("mac.fail_ratio", "ratio"),
    ("routing.dio_tx", "count"),
    ("routing.data_fwd", "count"),
    ("routing.parent_switch", "count"),
    ("routing.data_drop", "count"),
    ("routing.tx_per_delivered", "ratio"),
    ("gateway.poll_s", "s"),
    ("gateway.measurements", "count"),
    ("gateway.uplink_drain_s", "s"),
    ("gateway.records", "count"),
    ("cloud.offer_s", "s"),
    ("cloud.offers", "count"),
    ("cloud.ns_per_offer", "ns"),
    ("cloud.accept_ratio", "ratio"),
    ("cloud.shed_auth", "count"),
    ("cloud.shed_ratelimit", "count"),
    ("cloud.shed_full", "count"),
    ("cloud.max_depth", "count"),
    ("cloud.drain_s", "s"),
    ("cloud.drain_ticks", "count"),
    ("cloud.drained", "count"),
    ("cloud.twin_report_s", "s"),
    ("cloud.twin_updates", "count"),
    ("cloud.replay_s", "s"),
    ("stream.flush_s", "s"),
    ("stream.log_records", "count"),
    ("stream.log_bytes", "B"),
    ("stream.segments", "count"),
    ("stream.windows_closed", "count"),
    ("stream.window_obs", "count"),
    ("stream.obs_per_window", "ratio"),
    ("stream.late", "count"),
    ("bench.traced_cpu_s", "s"),
    ("bench.untraced_cpu_s", "s"),
    ("bench.trace_overhead", "ratio"),
];

/// Work counts one iteration's layers reported, keyed by per-layer
/// metric name. Deterministic: a pure function of workload and seed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts(pub BTreeMap<&'static str, f64>);

impl Counts {
    /// Sets one count.
    pub fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name, v);
    }

    /// `num / den`, or 0 when `den` is 0.
    pub fn ratio(num: f64, den: f64) -> f64 {
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }
}
