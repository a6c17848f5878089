//! The repository benchmark.
//!
//! ```text
//! iiot-perfbench --workload <fig1_field|cloud_burst> --seed <n>
//!                --seconds <s> --trace <0|1>
//! iiot-perfbench --workload <name> --seed <n> --record
//! ```
//!
//! One run repeats one workload for `--seconds` of host time. Each
//! iteration builds its inputs from the workload seed (timed as set-up),
//! runs the timed phase, and checks the outputs: the built-in
//! invariants, the deterministic fingerprint against the run's first
//! iteration and, for recorded seeds, against `fingerprints.txt`.
//! The last stdout line is one JSON object: end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`. A traced run
//! alternates untraced and traced iterations, so it also reports the
//! tracing overhead. `--record` prints the `fingerprints.txt` lines of
//! one seed instead. See `README.md` for the workloads and metrics.

mod burst;
mod check;
mod fig1;
mod layers;

use check::Fingerprint;
use iiot_cloud::{IngestPipeline, TenantId, TwinStore};
use iiot_crdt::ReplicaId;
use iiot_sim::obs::Histogram;
use iiot_sim::radio::MediumStats;
use iiot_stream::WindowResult;
use layers::{Counts, Span, Tracer, PER_LAYER};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Every workload the binary runs, all gated by `BENCHMARK.json`.
const WORKLOADS: [&str; 2] = ["fig1_field", "cloud_burst"];

/// End-to-end metrics, with units, reported on every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "1/s"),
];

/// Fewest iterations a run measures, whatever `--seconds` says.
const MIN_ITERATIONS: usize = 3;

/// Workload sizes: `Full` is what the benchmark measures, `Tiny` is
/// for the self-test, which runs it under [`TINY_SEED`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    Full,
    Tiny,
}

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Full => "full",
            Shape::Tiny => "tiny",
        }
    }
}

/// What one iteration of a workload produced.
pub struct Outcome {
    /// Wall-clock time of the timed phase.
    pub wall: Duration,
    /// CPU time of the timed phase, all threads (see [`process_cpu`]).
    pub cpu: Duration,
    /// The workload's headline operations in the timed phase: kernel
    /// events, or cloud offers (live and replayed).
    pub ops: u64,
    /// Operations the iteration's checks cover: readings generated,
    /// frames sent or messages offered.
    pub attempted: u64,
    /// Built-in invariants that did not hold.
    pub errors: Vec<String>,
    pub fingerprint: Fingerprint,
    /// Workload-specific metrics for the human-readable report.
    pub report: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer work counts (deterministic).
    pub counts: Counts,
    /// Per-layer busy time; empty unless traced.
    pub timings: BTreeMap<&'static str, f64>,
}

/// Merged ingest-latency histogram (µs of virtual time) of the tenants
/// `keep` selects.
pub fn ingest_latency(p: &IngestPipeline, keep: impl Fn(TenantId) -> bool) -> Histogram {
    let mut h = Histogram::new();
    for (t, st) in p.stats() {
        if keep(t) {
            h.merge(&st.latency_us);
        }
    }
    h
}

/// Runs one drain call on `p`, timed as `cloud.drain_s`; returns the
/// number of drain ticks it ran.
pub fn drain(
    p: &mut IngestPipeline,
    tracer: &mut Tracer,
    call: impl FnOnce(&mut IngestPipeline),
) -> u64 {
    let tick = p.config().tick.as_micros();
    let before = p.now().as_micros() / tick;
    tracer.time(Span::CloudDrain, || call(p));
    p.now().as_micros() / tick - before
}

/// Reports the windows closed since `from` into the twin store (the
/// window's mean, stamped with its end); returns the new cursor.
pub fn report_windows(
    closed: &[WindowResult],
    from: usize,
    twins: &mut TwinStore,
    tracer: &mut Tracer,
) -> usize {
    for r in &closed[from..] {
        let mean = r.sum / r.count.max(1) as f64;
        tracer.time(Span::TwinReport, || {
            twins.report(
                TenantId(r.key.tenant),
                r.key.metric,
                r.end.as_micros(),
                ReplicaId(0),
                "mean_10s",
                mean,
            )
        });
    }
    closed.len()
}

/// The radio medium's counters as per-layer `sim.*` counts.
pub fn medium_counts(c: &mut Counts, m: &MediumStats) {
    c.set("sim.tx_started", m.tx_started as f64);
    c.set("sim.delivered", m.delivered as f64);
    c.set("sim.lost_collision", m.lost_collision as f64);
    c.set("sim.lost_prr", m.lost_prr as f64);
    c.set(
        "sim.delivered_per_tx",
        Counts::ratio(m.delivered as f64, m.tx_started as f64),
    );
}

/// The ingest pipeline's and stream plane's counters as per-layer
/// `cloud.*` and `stream.*` counts.
pub fn ingest_counts(c: &mut Counts, p: &IngestPipeline, drain_ticks: u64) {
    let (offered, accepted, _, drained) = p.totals();
    let sum = |f: fn(&iiot_cloud::TenantStats) -> u64| p.stats().map(|(_, s)| f(s)).sum::<u64>();
    c.set("cloud.offers", offered as f64);
    c.set(
        "cloud.accept_ratio",
        Counts::ratio(accepted as f64, offered as f64),
    );
    c.set("cloud.shed_auth", sum(|s| s.shed_auth) as f64);
    c.set("cloud.shed_ratelimit", sum(|s| s.shed_ratelimit) as f64);
    c.set("cloud.shed_full", sum(|s| s.shed_full) as f64);
    c.set(
        "cloud.max_depth",
        p.stats().map(|(_, s)| s.max_depth).max().unwrap_or(0) as f64,
    );
    c.set("cloud.drain_ticks", drain_ticks as f64);
    c.set("cloud.drained", drained as f64);
    if let Some(wal) = p.wal() {
        c.set("stream.log_records", wal.records() as f64);
        c.set("stream.log_bytes", wal.len_bytes() as f64);
        c.set("stream.segments", wal.sealed_segments() as f64);
    }
    if let Some(w) = p.windows() {
        let closed = p.closed_windows().len() as f64;
        c.set("stream.windows_closed", closed);
        c.set("stream.window_obs", w.observed() as f64);
        c.set(
            "stream.obs_per_window",
            Counts::ratio(w.observed() as f64, closed),
        );
        c.set("stream.late", w.late_total() as f64);
    }
}

/// The run seed whose tiny-shape fingerprints are recorded.
const TINY_SEED: u64 = 1;

/// Builds and runs one iteration; returns the set-up CPU time and the
/// outcome.
fn iterate(workload: &str, shape: Shape, seed: u64, traced: bool) -> (Duration, Outcome) {
    let mut tracer = Tracer::new(traced);
    let cpu0 = process_cpu();
    match workload {
        "fig1_field" => {
            let s = fig1::setup(shape, seed);
            let setup = process_cpu() - cpu0;
            (setup, fig1::run(s, &mut tracer))
        }
        "cloud_burst" => {
            let s = burst::setup(shape, seed);
            let setup = process_cpu() - cpu0;
            (setup, burst::run(s, &mut tracer))
        }
        other => unreachable!("workload {other} validated by the caller"),
    }
}

/// The workload's own seed: independent of which other workloads run.
fn workload_seed(seed: u64, workload: &str) -> u64 {
    iiot_sim::seed::derive_labeled(seed, workload)
}

/// Median of `xs` (mean of the middle pair for even lengths).
fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// CPU time this process has used so far: user plus system, all threads,
/// including threads that have exited. Under a hypervisor with steal-time
/// accounting, time the host gave to other guests is not counted, so on
/// a shared machine this repeats far better than wall-clock time.
pub fn process_cpu() -> Duration {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux) for the duration of the call, which writes only `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size of this process, MiB (0 where unknown).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
    stamps: Vec<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        record: false,
        stamps: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            a.record = true;
            continue;
        }
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {v:?}");
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--stamp" => {
                let (k, val) = v.split_once('=').ok_or_else(|| bad("key=value"))?;
                a.stamps.push((k.to_string(), val.to_string()));
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            a.workload
        ));
    }
    Ok(a)
}

/// One run's accumulated iterations.
#[derive(Default)]
struct Run {
    setup: Vec<f64>,
    wall: Vec<f64>,
    cpu: Vec<f64>,
    traced_cpu: Vec<f64>,
    ops_per_s: Vec<f64>,
    report: BTreeMap<&'static str, (Vec<f64>, &'static str)>,
    timings: BTreeMap<&'static str, Vec<f64>>,
    first: Option<(Fingerprint, Counts)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Run {
    /// Folds in one iteration, checking it against the first.
    fn add(&mut self, setup: Duration, o: Outcome, traced: bool) {
        self.setup.push(setup.as_secs_f64());
        if traced {
            self.traced_cpu.push(o.cpu.as_secs_f64());
            for (k, v) in o.timings {
                self.timings.entry(k).or_default().push(v);
            }
        } else {
            self.wall.push(o.wall.as_secs_f64());
            self.cpu.push(o.cpu.as_secs_f64());
            self.ops_per_s.push(o.ops as f64 / o.cpu.as_secs_f64());
            for (name, v, unit) in o.report {
                self.report
                    .entry(name)
                    .or_insert((Vec::new(), unit))
                    .0
                    .push(v);
            }
        }
        let mut errors = o.errors;
        match &self.first {
            None => self.first = Some((o.fingerprint, o.counts)),
            Some((fp, counts)) => {
                if *fp != o.fingerprint {
                    errors.push(format!(
                        "fingerprint changed between iterations (traced: {traced}): {fp} vs {}",
                        o.fingerprint
                    ));
                }
                if *counts != o.counts {
                    errors.push(format!(
                        "layer counts changed between iterations (traced: {traced})"
                    ));
                }
            }
        }
        self.attempted += o.attempted;
        if !errors.is_empty() {
            self.failed += o.attempted;
            for e in errors {
                if !self.errors.contains(&e) {
                    self.errors.push(e);
                }
            }
        }
    }

    fn iterations(&self) -> usize {
        self.setup.len()
    }

    /// Every end-to-end metric: medians over the untraced iterations.
    fn end_to_end(&mut self, peak_rss_mb: f64) -> Vec<Metric> {
        let values = [
            median(&mut self.setup),
            median(&mut self.cpu),
            peak_rss_mb,
            median(&mut self.ops_per_s),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    }

    /// Every per-layer metric: the layers' counts, the median busy time
    /// of each timed call over the traced iterations, and the tracing
    /// overhead (traced against untraced median CPU time).
    fn per_layer(&mut self, counts: &Counts) -> Vec<Metric> {
        let untraced = median(&mut self.cpu);
        let traced = median(&mut self.traced_cpu);
        let mut values: BTreeMap<&str, f64> = counts.0.clone();
        for (k, v) in self.timings.iter_mut() {
            values.insert(k, median(v));
        }
        values.insert("bench.traced_cpu_s", traced);
        values.insert("bench.untraced_cpu_s", untraced);
        values.insert("bench.trace_overhead", traced / untraced - 1.0);
        let get = |k: &str| values.get(k).copied().unwrap_or(0.0);
        let ns_per_event = Counts::ratio(get("sim.run_s") * 1e9, get("sim.events"));
        let ns_per_offer = Counts::ratio(get("cloud.offer_s") * 1e9, get("cloud.offers"));
        values.insert("sim.ns_per_event", ns_per_event);
        values.insert("cloud.ns_per_offer", ns_per_offer);
        for k in values.keys() {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == k),
                "undeclared per-layer metric {k}"
            );
        }
        PER_LAYER
            .iter()
            // `+ 0.0` turns the -0.0 of an empty sum into 0.
            .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0) + 0.0, unit))
            .collect()
    }
}

/// Prints the `fingerprints.txt` lines of `workload` under `seed`: the
/// full shape, and for [`TINY_SEED`] the tiny shape too. Exits with 1,
/// printing nothing, if an iteration's checks fail.
fn record(workload: &str, seed: u64) {
    let shapes: &[Shape] = if seed == TINY_SEED {
        &[Shape::Full, Shape::Tiny]
    } else {
        &[Shape::Full]
    };
    let mut lines = Vec::new();
    for &shape in shapes {
        let (_, o) = iterate(workload, shape, workload_seed(seed, workload), false);
        if !o.errors.is_empty() {
            eprintln!("iiot-perfbench: check failed: {:?}", o.errors);
            std::process::exit(1);
        }
        lines.push(format!(
            "{workload} {} {seed} {}",
            shape.name(),
            o.fingerprint
        ));
    }
    println!("{}", lines.join("\n"));
}

/// One reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// The result line: correctness, operation counts and the metrics.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("iiot-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.record {
        record(&args.workload, args.seed);
        return;
    }
    let seed = workload_seed(args.seed, &args.workload);
    let mut run = Run::default();
    let started = Instant::now();
    loop {
        // A traced run alternates untraced and traced iterations, so
        // both see the same machine state over the run.
        let traced = args.trace && run.iterations() % 2 == 1;
        let began = Instant::now();
        let (setup, outcome) = iterate(&args.workload, Shape::Full, seed, traced);
        println!(
            "# iteration {} setup_s {:.6} wall_s {:.6} cpu_s {:.6}{}",
            run.iterations(),
            setup.as_secs_f64(),
            outcome.wall.as_secs_f64(),
            outcome.cpu.as_secs_f64(),
            if traced { " traced" } else { "" }
        );
        run.add(setup, outcome, traced);
        let enough = run.iterations() >= MIN_ITERATIONS + usize::from(args.trace);
        // Start no iteration that, as long as the last one, would end
        // after `--seconds`.
        let next_ends = started.elapsed() + began.elapsed();
        if enough && next_ends.as_secs_f64() > args.seconds {
            break;
        }
    }

    let (fingerprint, counts) = run.first.clone().expect("at least one iteration ran");
    match check::recorded(&args.workload, Shape::Full.name(), args.seed) {
        Some(expected) if expected != fingerprint.to_string() => {
            run.errors.push(format!(
                "fingerprint differs from the recorded one for seed {}: got {fingerprint}, recorded {expected}",
                args.seed
            ));
            run.failed = run.attempted;
        }
        Some(_) => println!(
            "# fingerprint matches the recorded one for seed {}",
            args.seed
        ),
        None => println!(
            "# no recorded fingerprint for seed {}; checked across iterations only",
            args.seed
        ),
    }
    for e in &run.errors {
        eprintln!("iiot-perfbench: check failed: {e}");
    }

    let rss = peak_rss_mb();
    println!(
        "# {} seed {} (workload seed {seed:#018x}), {} iterations in {:.1} s",
        args.workload,
        args.seed,
        run.iterations(),
        started.elapsed().as_secs_f64()
    );
    let mut stamps = args.stamps.clone();
    stamps.push((
        "nproc".into(),
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .to_string(),
    ));
    stamps.push((
        "profile".into(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
        .into(),
    ));
    println!(
        "# identity {}",
        stamps
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!("# fingerprint {fingerprint}");

    let metrics = if args.trace {
        run.per_layer(&counts)
    } else {
        println!("# report wall_s {} s", median(&mut run.wall));
        for (name, (mut vs, unit)) in std::mem::take(&mut run.report) {
            println!("# report {name} {} {unit}", median(&mut vs));
        }
        run.end_to_end(rss)
    };
    for (name, v, unit) in &metrics {
        println!("# metric {name} {v} {unit}");
    }
    let correct = run.errors.is_empty();
    println!(
        "{}",
        result_json(correct, run.attempted, run.failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One tiny iteration of `workload` under the default seed.
    fn tiny(workload: &str, traced: bool) -> Outcome {
        iterate(
            workload,
            Shape::Tiny,
            workload_seed(TINY_SEED, workload),
            traced,
        )
        .1
    }

    #[test]
    fn tiny_shapes_repeat_their_recorded_fingerprint_traced_or_not() {
        for w in WORKLOADS {
            let plain = tiny(w, false);
            let traced = tiny(w, true);
            assert!(plain.errors.is_empty(), "{w}: {:?}", plain.errors);
            assert!(traced.errors.is_empty(), "{w}: {:?}", traced.errors);
            assert_eq!(plain.fingerprint, traced.fingerprint, "{w}");
            assert_eq!(plain.counts, traced.counts, "{w}");
            assert_eq!(
                check::recorded(w, "tiny", TINY_SEED),
                Some(plain.fingerprint.to_string().as_str()),
                "{w}: recorded tiny fingerprint"
            );
            assert!(plain.timings.is_empty() && !traced.timings.is_empty());
        }
    }

    #[test]
    fn every_metric_is_reported_with_its_unit() {
        for w in WORKLOADS {
            let mut run = Run::default();
            for i in 0..4 {
                let (setup, o) = iterate(w, Shape::Tiny, workload_seed(2, w), i % 2 == 1);
                run.add(setup, o, i % 2 == 1);
            }
            assert!(run.errors.is_empty(), "{w}: {:?}", run.errors);
            let counts = run.first.clone().expect("iterations ran").1;
            let e2e = run.end_to_end(1.0);
            let layers = run.per_layer(&counts);
            for (got, want) in [(&e2e, END_TO_END), (&layers, PER_LAYER)] {
                let names: Vec<_> = got.iter().map(|(n, _, u)| (*n, *u)).collect();
                assert_eq!(names, want.to_vec(), "{w}");
                assert!(got.iter().all(|m| m.1.is_finite()), "{w}: {got:?}");
            }
            assert!(e2e.iter().all(|m| m.1 > 0.0), "{w}: {e2e:?}");
        }
    }

    #[test]
    fn benchmark_json_declares_the_same_metrics_and_workloads() {
        let doc = include_str!("../../BENCHMARK.json");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert_eq!(doc.matches(&entry).count(), 1, "{entry}");
        }
        let listed = WORKLOADS
            .iter()
            .filter(|w| doc.contains(&format!("{{\"name\": \"{w}\"")))
            .count();
        assert_eq!(
            listed,
            WORKLOADS.len(),
            "BENCHMARK.json gates every workload"
        );
        // Every other `name` is a metric, so no unknown workload is listed.
        let declared = END_TO_END.len() + PER_LAYER.len() + listed;
        assert_eq!(doc.matches("\"name\":").count(), declared);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(true, 3, 0, &[("wall_s", 1.5, "s"), ("x.y", 0.0, "count")]);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": 1.5, "unit": "s"}, "x.y": {"value": 0, "unit": "count"}}}"#
        );
    }
}
