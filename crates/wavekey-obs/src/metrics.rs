//! Metrics: counters, gauges, and log-linear histograms behind a registry.
//!
//! The registry is one map keyed by metric name, owned by one
//! [`crate::Obs`] handle on the thread that drives its sessions.
//! Histograms are log-linear — 16 linear sub-buckets per power of two —
//! which bounds the relative quantile error at ≈6% while keeping updates
//! O(1) and allocation-free after the first observation.
//!
//! Two exporters are provided: a Prometheus-style text rendering
//! ([`Registry::prometheus_text`]) and a JSON tree ([`Registry::to_json`])
//! used by the `results/OBS_session.json` artifact.

use crate::json::Json;
use std::cell::RefCell;
use std::collections::HashMap;

/// Number of linear sub-buckets per power of two.
const SUB_BUCKETS: usize = 16;
/// Smallest binary exponent tracked (values below land in bucket 0).
const MIN_EXP: i32 = -64;
/// Largest binary exponent tracked (values above land in the last bucket).
const MAX_EXP: i32 = 63;
const BUCKETS: usize = ((MAX_EXP - MIN_EXP + 1) as usize) * SUB_BUCKETS;

/// A log-linear histogram over non-negative `f64` samples.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram { counts: Vec::new(), count: 0, sum: 0.0, min: f64::INFINITY, max: 0.0 }
    }

    fn bucket_index(value: f64) -> usize {
        if !(value > 0.0) || !value.is_finite() {
            return 0;
        }
        let exp = value.log2().floor() as i32;
        let exp = exp.clamp(MIN_EXP, MAX_EXP);
        let lower = (exp as f64).exp2();
        let frac = (value / lower - 1.0).clamp(0.0, 1.0 - f64::EPSILON);
        let sub = (frac * SUB_BUCKETS as f64) as usize;
        ((exp - MIN_EXP) as usize) * SUB_BUCKETS + sub.min(SUB_BUCKETS - 1)
    }

    /// The representative (midpoint) value of a bucket.
    fn bucket_value(index: usize) -> f64 {
        let exp = MIN_EXP + (index / SUB_BUCKETS) as i32;
        let sub = index % SUB_BUCKETS;
        let lower = (exp as f64).exp2();
        lower * (1.0 + (sub as f64 + 0.5) / SUB_BUCKETS as f64)
    }

    /// The inclusive lower edge of a bucket: values `v` with
    /// `lower_edge ≤ v < upper_edge` land in it (modulo the underflow and
    /// overflow clamps at the ends).
    fn bucket_lower_edge(index: usize) -> f64 {
        let exp = MIN_EXP + (index / SUB_BUCKETS) as i32;
        let sub = index % SUB_BUCKETS;
        (exp as f64).exp2() * (1.0 + sub as f64 / SUB_BUCKETS as f64)
    }

    /// The exclusive upper edge of a bucket (hence a valid Prometheus
    /// `le=` bound: every sample in the bucket is strictly below it).
    fn bucket_upper_edge(index: usize) -> f64 {
        let exp = MIN_EXP + (index / SUB_BUCKETS) as i32;
        let sub = index % SUB_BUCKETS;
        (exp as f64).exp2() * (1.0 + (sub as f64 + 1.0) / SUB_BUCKETS as f64)
    }

    /// The non-empty buckets in value order, with their edges, midpoint
    /// representatives, and counts. Feeds the Prometheus
    /// `_bucket{le="..."}` exposition and the bucket-resolution SLO
    /// evaluator.
    pub fn buckets(&self) -> Vec<Bucket> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| Bucket {
                lower: Self::bucket_lower_edge(i),
                upper: Self::bucket_upper_edge(i),
                midpoint: Self::bucket_value(i),
                count: *c as u64,
            })
            .collect()
    }

    /// Record one sample. Negative, zero, and non-finite samples all land
    /// in the underflow bucket but still count toward `count`/`sum`.
    pub fn observe(&mut self, value: f64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        self.counts[Self::bucket_index(value)] += 1;
        self.count += 1;
        if value.is_finite() {
            self.sum += value;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all finite samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of all finite samples (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observed sample (`0.0` when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observed sample (`0.0` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Approximate quantile `q ∈ [0, 1]`: the representative value of the
    /// first bucket whose cumulative count reaches `q · count`. Clamped to
    /// the exact observed min/max so the tails never over-shoot.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cumulative += *c as u64;
            if cumulative >= target {
                return Self::bucket_value(i).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// One non-empty histogram bucket (see [`Histogram::buckets`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bucket {
    /// Inclusive lower edge.
    pub lower: f64,
    /// Exclusive upper edge.
    pub upper: f64,
    /// Midpoint representative (what [`Histogram::quantile`] answers in).
    pub midpoint: f64,
    /// Samples in the bucket.
    pub count: u64,
}

/// One metric slot in the registry.
#[derive(Debug, Clone)]
enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

/// Point-in-time copy of one named metric.
#[derive(Debug, Clone)]
pub enum MetricSnapshot {
    /// Monotonic event count.
    Counter(u64),
    /// Last-set value.
    Gauge(f64),
    /// Full histogram copy.
    Histogram(Histogram),
}

/// Metric registry: one map from metric name to slot.
///
/// Metric kind is fixed by first use: incrementing a name that currently
/// holds a gauge (or vice versa) silently re-types the slot — instrumented
/// code keeps naming disciplined via the `stage`/`span.` prefixes instead
/// of the registry policing it.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: RefCell<HashMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Add `delta` to the named counter (creating it at zero).
    pub fn inc_counter(&self, name: &str, delta: u64) {
        let mut metrics = self.metrics.borrow_mut();
        match metrics.get_mut(name) {
            Some(Metric::Counter(v)) => *v += delta,
            Some(slot) => *slot = Metric::Counter(delta),
            None => {
                metrics.insert(name.to_string(), Metric::Counter(delta));
            }
        }
    }

    /// Set the named gauge.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.metrics.borrow_mut().insert(name.to_string(), Metric::Gauge(value));
    }

    /// Record a histogram sample under `name`.
    pub fn observe(&self, name: &str, value: f64) {
        let mut metrics = self.metrics.borrow_mut();
        match metrics.get_mut(name) {
            Some(Metric::Histogram(h)) => h.observe(value),
            Some(slot) => {
                let mut h = Histogram::new();
                h.observe(value);
                *slot = Metric::Histogram(h);
            }
            None => {
                let mut h = Histogram::new();
                h.observe(value);
                metrics.insert(name.to_string(), Metric::Histogram(h));
            }
        }
    }

    /// Copy out every metric, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, MetricSnapshot)> {
        let mut out: Vec<(String, MetricSnapshot)> = self
            .metrics
            .borrow()
            .iter()
            .map(|(name, metric)| {
                let snap = match metric {
                    Metric::Counter(v) => MetricSnapshot::Counter(*v),
                    Metric::Gauge(v) => MetricSnapshot::Gauge(*v),
                    Metric::Histogram(h) => MetricSnapshot::Histogram(h.clone()),
                };
                (name.clone(), snap)
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Render every metric in Prometheus text exposition format.
    /// Histograms are true Prometheus histograms: cumulative
    /// `_bucket{le="..."}` series over the non-empty log-linear buckets
    /// (each `le` is the bucket's exclusive upper edge, so the cumulative
    /// counts are exact), a closing `le="+Inf"` bucket, then `_sum` and
    /// `_count`.
    ///
    /// Counter / gauge names may carry a Prometheus label suffix —
    /// `wavekey_failures_total{label="timeout_ota"}` — which is preserved
    /// verbatim: sanitization applies to the *family* (the part before
    /// `{`) only, and the `# TYPE` header is emitted once per family, not
    /// once per labeled series. A labeled histogram merges `le` into the
    /// existing label set.
    pub fn prometheus_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut typed: std::collections::HashSet<String> = std::collections::HashSet::new();
        for (name, metric) in self.snapshot() {
            let (family, labels) = match name.find('{') {
                Some(split) => (sanitize(&name[..split]), &name[split..]),
                None => (sanitize(&name), ""),
            };
            match metric {
                MetricSnapshot::Counter(v) => {
                    if typed.insert(family.clone()) {
                        let _ = writeln!(out, "# TYPE {family} counter");
                    }
                    let _ = writeln!(out, "{family}{labels} {v}");
                }
                MetricSnapshot::Gauge(v) => {
                    if typed.insert(family.clone()) {
                        let _ = writeln!(out, "# TYPE {family} gauge");
                    }
                    let _ = writeln!(out, "{family}{labels} {v}");
                }
                MetricSnapshot::Histogram(h) => {
                    if typed.insert(family.clone()) {
                        let _ = writeln!(out, "# TYPE {family} histogram");
                    }
                    // Merge `le` into any pre-existing label suffix.
                    let bucket_labels = |le: &str| match labels.strip_suffix('}') {
                        Some(prefix) if !labels.is_empty() => {
                            format!("{prefix},le=\"{le}\"}}")
                        }
                        _ => format!("{{le=\"{le}\"}}"),
                    };
                    let mut cumulative = 0u64;
                    for bucket in h.buckets() {
                        cumulative += bucket.count;
                        let _ = writeln!(
                            out,
                            "{family}_bucket{} {cumulative}",
                            bucket_labels(&format!("{}", bucket.upper))
                        );
                    }
                    let _ =
                        writeln!(out, "{family}_bucket{} {}", bucket_labels("+Inf"), h.count());
                    let _ = writeln!(out, "{family}_sum{labels} {}", h.sum());
                    let _ = writeln!(out, "{family}_count{labels} {}", h.count());
                }
            }
        }
        out
    }

    /// Export every metric as a JSON object keyed by metric name.
    pub fn to_json(&self) -> Json {
        let mut pairs = Vec::new();
        for (name, metric) in self.snapshot() {
            let value = match metric {
                MetricSnapshot::Counter(v) => Json::obj(vec![
                    ("type", Json::Str("counter".into())),
                    ("value", Json::Num(v as f64)),
                ]),
                MetricSnapshot::Gauge(v) => Json::obj(vec![
                    ("type", Json::Str("gauge".into())),
                    ("value", Json::Num(v)),
                ]),
                MetricSnapshot::Histogram(h) => Json::obj(vec![
                    ("type", Json::Str("histogram".into())),
                    ("count", Json::Num(h.count() as f64)),
                    ("mean", Json::Num(h.mean())),
                    ("p50", Json::Num(h.quantile(0.50))),
                    ("p90", Json::Num(h.quantile(0.90))),
                    ("p99", Json::Num(h.quantile(0.99))),
                    ("min", Json::Num(h.min())),
                    ("max", Json::Num(h.max())),
                ]),
            };
            pairs.push((name, value));
        }
        Json::Obj(pairs)
    }
}

/// Prometheus metric names allow `[a-zA-Z0-9_:]`; map everything else to `_`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_track_known_uniform_distribution() {
        // 1..=10_000 uniformly: p50 ≈ 5000, p90 ≈ 9000, p99 ≈ 9900. The
        // log-linear layout guarantees ≤ 1/16 relative bucket error.
        let mut h = Histogram::new();
        for v in 1..=10_000 {
            h.observe(v as f64);
        }
        for (q, expected) in [(0.50, 5000.0), (0.90, 9000.0), (0.99, 9900.0)] {
            let got = h.quantile(q);
            let rel = (got - expected).abs() / expected;
            assert!(rel < 0.08, "q{q}: got {got}, expected ≈{expected} (rel {rel:.3})");
        }
        assert_eq!(h.count(), 10_000);
        assert!((h.mean() - 5000.5).abs() < 1e-6);
        // Tail quantiles use midpoint representatives clamped to the
        // exact observed min/max, so they stay within one sub-bucket.
        assert!((1.0..1.07).contains(&h.quantile(0.0)));
        assert!((9300.0..=10_000.0).contains(&h.quantile(1.0)));
    }

    #[test]
    fn histogram_handles_sub_second_timings_and_degenerate_input() {
        let mut h = Histogram::new();
        for i in 0..1000 {
            h.observe(1e-6 * (1.0 + i as f64 / 1000.0)); // 1–2 µs spread
        }
        let p50 = h.quantile(0.5);
        assert!((1.4e-6..1.6e-6).contains(&p50), "p50 = {p50}");

        let mut empty = Histogram::new();
        assert_eq!(empty.quantile(0.5), 0.0);
        empty.observe(0.0);
        empty.observe(-3.0);
        assert_eq!(empty.count(), 2);
        // Non-positive samples share the underflow bucket; the clamp to
        // [min, max] caps the representative at the observed max (0.0).
        assert_eq!(empty.quantile(0.5), 0.0);
        assert_eq!(empty.min(), -3.0);
    }

    #[test]
    fn prometheus_text_shape() {
        let reg = Registry::new();
        reg.inc_counter("enroll_total", 3);
        reg.set_gauge("deadline_budget_seconds", 2.12);
        reg.observe("stage.ot_round_a", 0.05);
        let text = reg.prometheus_text();
        assert!(text.contains("# TYPE enroll_total counter"));
        assert!(text.contains("enroll_total 3"));
        assert!(text.contains("# TYPE deadline_budget_seconds gauge"));
        assert!(text.contains("# TYPE stage_ot_round_a histogram"));
        assert!(text.contains("stage_ot_round_a_count 1"));
        assert!(text.contains("stage_ot_round_a_bucket{le=\"+Inf\"} 1"));
        // 0.05 lands in [0.048828125, 0.05078125): exponent −5, sub-bucket 9.
        assert!(text.contains("stage_ot_round_a_bucket{le=\"0.05078125\"} 1"), "{text}");
        assert!(text.contains("stage_ot_round_a_sum 0.05"));
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative_and_label_aware() {
        let reg = Registry::new();
        for v in [0.5, 0.5, 3.0] {
            reg.observe("lat{tenant=\"a\"}", v);
        }
        let text = reg.prometheus_text();
        assert!(text.contains("# TYPE lat histogram"));
        // 0.5 is an exact lower edge (2^-1, sub 0): upper edge 0.53125.
        assert!(text.contains("lat_bucket{tenant=\"a\",le=\"0.53125\"} 2"), "{text}");
        // 3.0 is the lower edge of (2^1, sub 8): upper edge 3.125; the
        // cumulative count includes the two earlier samples.
        assert!(text.contains("lat_bucket{tenant=\"a\",le=\"3.125\"} 3"), "{text}");
        assert!(text.contains("lat_bucket{tenant=\"a\",le=\"+Inf\"} 3"));
        assert!(text.contains("lat_sum{tenant=\"a\"} 4"));
        assert!(text.contains("lat_count{tenant=\"a\"} 3"));
        assert_eq!(text.matches("# TYPE lat histogram").count(), 1);
    }

    #[test]
    fn bucket_boundaries_pin_power_of_two_edges() {
        // Every power of two is the inclusive lower edge of its
        // exponent's sub-bucket 0, and a value just below it lands in the
        // previous exponent's top sub-bucket.
        for exp in -16i32..=16 {
            let v = (exp as f64).exp2();
            let idx = Histogram::bucket_index(v);
            assert_eq!(idx, ((exp - MIN_EXP) as usize) * SUB_BUCKETS, "2^{exp}");
            assert_eq!(Histogram::bucket_lower_edge(idx), v, "2^{exp} lower edge");
            assert_eq!(
                Histogram::bucket_upper_edge(idx),
                v * (1.0 + 1.0 / SUB_BUCKETS as f64),
                "2^{exp} upper edge"
            );
            let below = v * (1.0 - 1e-12);
            assert_eq!(
                Histogram::bucket_index(below),
                ((exp - 1 - MIN_EXP) as usize) * SUB_BUCKETS + (SUB_BUCKETS - 1),
                "just below 2^{exp}"
            );
        }
    }

    #[test]
    fn bucket_edges_bracket_every_sample() {
        // Seeded LCG sweep: every sample must satisfy
        // lower ≤ v < upper for its own bucket, and the bucket list must
        // partition the sample set exactly.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut h = Histogram::new();
        let mut samples = Vec::new();
        for _ in 0..4096 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Spread over ~12 powers of two around seconds-scale timings.
            let v = 1e-4 * (1.0 + (state >> 40) as f64 / 1e3);
            let idx = Histogram::bucket_index(v);
            assert!(
                Histogram::bucket_lower_edge(idx) <= v && v < Histogram::bucket_upper_edge(idx),
                "{v} not inside bucket {idx}"
            );
            h.observe(v);
            samples.push(v);
        }
        let buckets = h.buckets();
        assert_eq!(buckets.iter().map(|b| b.count).sum::<u64>(), 4096);
        for b in &buckets {
            let exact = samples.iter().filter(|v| b.lower <= **v && **v < b.upper).count();
            assert_eq!(exact as u64, b.count, "bucket [{}, {})", b.lower, b.upper);
            assert!(b.lower < b.midpoint && b.midpoint < b.upper);
        }
        // Ascending, non-overlapping.
        for pair in buckets.windows(2) {
            assert!(pair[0].upper <= pair[1].lower + 1e-18);
        }
    }

    #[test]
    fn prometheus_text_preserves_label_suffixes() {
        let reg = Registry::new();
        reg.inc_counter("wavekey_failures_total{label=\"timeout_ota\"}", 2);
        reg.inc_counter("wavekey_failures_total{label=\"worker_panic\"}", 1);
        reg.inc_counter("wavekey_failures_total{label=\"timeout_ota\"}", 1);
        let text = reg.prometheus_text();
        // The labels survive untouched (no `_`-mangling of `{`, `"`, `=`)
        // and the family gets exactly one TYPE header.
        assert!(text.contains("wavekey_failures_total{label=\"timeout_ota\"} 3"));
        assert!(text.contains("wavekey_failures_total{label=\"worker_panic\"} 1"));
        assert_eq!(text.matches("# TYPE wavekey_failures_total counter").count(), 1);
        assert!(!text.contains("wavekey_failures_total_label"));
    }

    #[test]
    fn eviction_reason_series_export_as_one_labeled_family() {
        // The gateway's eviction counters: one family, one labeled series
        // per reason, exported coherently by both exporters.
        let reg = Registry::new();
        for (reason, n) in [("idle", 3u64), ("backpressure", 2), ("shutdown", 1)] {
            for _ in 0..n {
                reg.inc_counter(&format!("wavekey_evictions_total{{reason=\"{reason}\"}}"), 1);
            }
        }
        let text = reg.prometheus_text();
        assert_eq!(text.matches("# TYPE wavekey_evictions_total counter").count(), 1);
        assert!(text.contains("wavekey_evictions_total{reason=\"idle\"} 3"), "{text}");
        assert!(text.contains("wavekey_evictions_total{reason=\"backpressure\"} 2"));
        assert!(text.contains("wavekey_evictions_total{reason=\"shutdown\"} 1"));
        // Snapshot order is sorted by full name, so scrapes are stable
        // run-to-run (the timeline-determinism artifacts depend on this).
        let series: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("wavekey_evictions_total{"))
            .collect();
        assert_eq!(
            series,
            vec![
                "wavekey_evictions_total{reason=\"backpressure\"} 2",
                "wavekey_evictions_total{reason=\"idle\"} 3",
                "wavekey_evictions_total{reason=\"shutdown\"} 1",
            ]
        );
        // The JSON exporter keys by the full labeled name with exact counts.
        let json = reg.to_json();
        let idle = json
            .get("wavekey_evictions_total{reason=\"idle\"}")
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(idle, Some(3.0));
    }
}
