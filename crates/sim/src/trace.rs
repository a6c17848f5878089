//! Metric collection: counters, sample series and bounded histograms
//! for experiments.

use crate::ids::NodeId;
use crate::obs::Histogram;
use std::collections::BTreeMap;

/// Summary statistics over one sample series.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean (0 if empty).
    pub mean: f64,
    /// Minimum (0 if empty).
    pub min: f64,
    /// Maximum (0 if empty).
    pub max: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Counters and sample series collected during a simulation.
///
/// Counters are keyed by name (and optionally node); series accumulate
/// raw samples, e.g. per-packet latencies, and can be summarized.
///
/// # Examples
///
/// ```
/// use iiot_sim::trace::Stats;
/// use iiot_sim::NodeId;
///
/// let mut s = Stats::new();
/// s.inc("tx", 1.0);
/// s.inc_node(NodeId(3), "tx", 1.0);
/// s.record("latency_s", 0.25);
/// assert_eq!(s.get("tx"), 1.0);
/// assert_eq!(s.get_node(NodeId(3), "tx"), 1.0);
/// assert_eq!(s.summary("latency_s").count, 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Stats {
    counters: BTreeMap<String, f64>,
    /// Per-node counters, keyed by name first so a hot-path increment
    /// is two lookups and allocates only on a name's first use.
    node_counters: BTreeMap<String, BTreeMap<NodeId, f64>>,
    series: BTreeMap<String, Vec<f64>>,
    histograms: BTreeMap<String, Histogram>,
}

impl Stats {
    /// An empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to the global counter `name`.
    pub fn inc(&mut self, name: &str, v: f64) {
        // Allocate the key only on first use, as `observe` does.
        if let Some(c) = self.counters.get_mut(name) {
            *c += v;
        } else {
            *self.counters.entry(name.to_owned()).or_insert(0.0) += v;
        }
    }

    /// Adds `v` to the per-node counter `name` for `node`.
    pub fn inc_node(&mut self, node: NodeId, name: &str, v: f64) {
        let per_node = if let Some(m) = self.node_counters.get_mut(name) {
            m
        } else {
            self.node_counters.entry(name.to_owned()).or_default()
        };
        *per_node.entry(node).or_insert(0.0) += v;
    }

    /// Value of the global counter `name`, or 0 if never touched.
    pub fn get(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Value of the per-node counter, or 0 if never touched.
    pub fn get_node(&self, node: NodeId, name: &str) -> f64 {
        self.node_counters
            .get(name)
            .and_then(|m| m.get(&node))
            .copied()
            .unwrap_or(0.0)
    }

    /// Sum of the per-node counter `name` over all nodes.
    pub fn node_total(&self, name: &str) -> f64 {
        self.node_counters
            .get(name)
            .into_iter()
            .flat_map(BTreeMap::values)
            .sum()
    }

    /// Per-node values of counter `name`, in node-id order.
    pub fn node_values(&self, name: &str) -> Vec<(NodeId, f64)> {
        self.node_counters
            .get(name)
            .into_iter()
            .flatten()
            .map(|(id, v)| (*id, *v))
            .collect()
    }

    /// Appends a raw sample to the series `name`.
    pub fn record(&mut self, name: &str, v: f64) {
        self.series.entry(name.to_owned()).or_default().push(v);
    }

    /// The raw samples of series `name` (empty slice if absent).
    pub fn samples(&self, name: &str) -> &[f64] {
        self.series.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Summary statistics of series `name`.
    pub fn summary(&self, name: &str) -> Summary {
        summarize(self.samples(name))
    }

    /// Records `v` into the bounded log-scale histogram `name`. Unlike
    /// [`Stats::record`], memory stays constant no matter how many
    /// samples arrive — the right choice for hot-path metrics such as
    /// queue depths and per-packet latencies.
    ///
    /// # Examples
    ///
    /// ```
    /// use iiot_sim::trace::Stats;
    ///
    /// let mut s = Stats::new();
    /// for depth in [1.0, 2.0, 4.0] {
    ///     s.observe("queue_depth", depth);
    /// }
    /// let h = s.histogram("queue_depth").unwrap();
    /// assert_eq!(h.count(), 3);
    /// assert_eq!(h.max(), 4.0);
    /// ```
    pub fn observe(&mut self, name: &str, v: f64) {
        // Allocate the key only on first use; steady state is a lookup.
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(v);
        } else {
            self.histograms
                .entry(name.to_owned())
                .or_default()
                .observe(v);
        }
    }

    /// The histogram `name`, if any sample was observed into it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Names of all histograms, in name order.
    pub fn histogram_names(&self) -> impl Iterator<Item = &str> {
        self.histograms.keys().map(String::as_str)
    }

    /// Names of all global counters, for debugging dumps.
    pub fn counter_names(&self) -> impl Iterator<Item = &str> {
        self.counters.keys().map(String::as_str)
    }

    /// All global counters as `(name, value)` pairs, in name order.
    /// The stable export surface used by trial runners and JSON dumps.
    ///
    /// # Examples
    ///
    /// ```
    /// use iiot_sim::trace::Stats;
    ///
    /// let mut s = Stats::new();
    /// s.inc("rx", 2.0);
    /// s.inc("tx", 5.0);
    /// let all: Vec<_> = s.counters().collect();
    /// assert_eq!(all, vec![("rx", 2.0), ("tx", 5.0)]);
    /// ```
    pub fn counters(&self) -> impl Iterator<Item = (&str, f64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Names of all sample series, in name order.
    ///
    /// # Examples
    ///
    /// ```
    /// use iiot_sim::trace::Stats;
    ///
    /// let mut s = Stats::new();
    /// s.record("latency_s", 0.2);
    /// assert_eq!(s.series_names().collect::<Vec<_>>(), vec!["latency_s"]);
    /// ```
    pub fn series_names(&self) -> impl Iterator<Item = &str> {
        self.series.keys().map(String::as_str)
    }

    /// Merges another `Stats` into this one (counters add, series append).
    pub fn merge(&mut self, other: &Stats) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0.0) += v;
        }
        for (k, per_node) in &other.node_counters {
            let mine = self.node_counters.entry(k.clone()).or_default();
            for (node, v) in per_node {
                *mine.entry(*node).or_insert(0.0) += v;
            }
        }
        for (k, v) in &other.series {
            self.series.entry(k.clone()).or_default().extend(v);
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
    }
}

/// Summarizes an arbitrary sample slice.
pub fn summarize(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        return Summary::default();
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let pct = |p: f64| -> f64 {
        let idx = ((sorted.len() as f64 - 1.0) * p).floor() as usize;
        sorted[idx]
    };
    Summary {
        count: sorted.len(),
        mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        min: sorted[0],
        max: *sorted.last().expect("non-empty"),
        p50: pct(0.50),
        p95: pct(0.95),
        p99: pct(0.99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new();
        s.inc("a", 1.0);
        s.inc("a", 2.0);
        assert_eq!(s.get("a"), 3.0);
        assert_eq!(s.get("missing"), 0.0);
    }

    #[test]
    fn node_counters() {
        let mut s = Stats::new();
        s.inc_node(NodeId(0), "fwd", 2.0);
        s.inc_node(NodeId(1), "fwd", 3.0);
        s.inc_node(NodeId(1), "other", 9.0);
        assert_eq!(s.get_node(NodeId(1), "fwd"), 3.0);
        assert_eq!(s.node_total("fwd"), 5.0);
        assert_eq!(
            s.node_values("fwd"),
            vec![(NodeId(0), 2.0), (NodeId(1), 3.0)]
        );
    }

    /// The name-first per-node layout must answer exactly as a flat
    /// `(name, node)` map does — values, node order and the summation
    /// order behind `node_total` — merges included.
    #[test]
    fn node_counters_match_the_flat_layout() {
        type Flat = BTreeMap<(String, NodeId), f64>;
        let names = ["tx", "rx", "fwd"];
        let (mut a, mut b) = (Stats::new(), Stats::new());
        let (mut fa, mut fb) = (Flat::new(), Flat::new());
        for i in 0..300u32 {
            let (node, name) = (NodeId(i * 7 % 13), names[(i * 5 % 7 % 3) as usize]);
            let v = f64::from(i * 37 % 11) * 0.1 - 0.3;
            let (s, f) = if i % 3 == 0 {
                (&mut b, &mut fb)
            } else {
                (&mut a, &mut fa)
            };
            s.inc_node(node, name, v);
            *f.entry((name.to_owned(), node)).or_insert(0.0) += v;
        }
        a.merge(&b);
        for (k, v) in &fb {
            *fa.entry(k.clone()).or_insert(0.0) += v;
        }
        let bits = |vs: Vec<(NodeId, f64)>| -> Vec<(NodeId, u64)> {
            vs.into_iter().map(|(n, v)| (n, v.to_bits())).collect()
        };
        for name in ["tx", "rx", "fwd", "absent"] {
            let flat = fa.iter().filter(|((n, _), _)| n == name);
            let values: Vec<_> = flat.clone().map(|((_, id), v)| (*id, *v)).collect();
            let total: f64 = flat.map(|(_, v)| v).sum();
            assert_eq!(bits(a.node_values(name)), bits(values), "{name}");
            assert_eq!(a.node_total(name).to_bits(), total.to_bits(), "{name}");
        }
        for ((name, node), v) in &fa {
            assert_eq!(a.get_node(*node, name).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn series_summary() {
        let mut s = Stats::new();
        for i in 1..=100 {
            s.record("lat", i as f64);
        }
        let sum = s.summary("lat");
        assert_eq!(sum.count, 100);
        assert_eq!(sum.min, 1.0);
        assert_eq!(sum.max, 100.0);
        assert!((sum.mean - 50.5).abs() < 1e-9);
        assert_eq!(sum.p50, 50.0);
        assert_eq!(sum.p95, 95.0);
        assert_eq!(sum.p99, 99.0);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        assert_eq!(summarize(&[]), Summary::default());
        let s = Stats::new();
        assert_eq!(s.summary("none").count, 0);
        assert!(s.samples("none").is_empty());
    }

    #[test]
    fn merge_combines() {
        let mut a = Stats::new();
        a.inc("x", 1.0);
        a.record("r", 1.0);
        let mut b = Stats::new();
        b.inc("x", 2.0);
        b.record("r", 2.0);
        b.inc_node(NodeId(0), "n", 1.0);
        a.merge(&b);
        assert_eq!(a.get("x"), 3.0);
        assert_eq!(a.samples("r"), &[1.0, 2.0]);
        assert_eq!(a.get_node(NodeId(0), "n"), 1.0);
    }
}
