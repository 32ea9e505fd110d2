//! The metrics registry: counters, gauges, and fixed-bucket latency
//! histograms with percentile estimation and Prometheus/JSON export.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The instrumented pipeline stages, each backed by one fixed-bucket
/// latency histogram in every [`Registry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// SQL / QUEL parsing.
    Parse,
    /// Forward/backward type inference (one query's `infer`).
    Inference,
    /// A full ILS induction pass.
    Induction,
    /// One storage relation scan (selection over a relation).
    Scan,
    /// One serve request, accept-to-reply (execution included).
    Request,
    /// Time a serve request waited in the queue before a worker took it.
    QueueWait,
    /// One durable WAL append, write-to-acknowledgement (fsync
    /// included when the policy demands one).
    WalAppend,
    /// One replicated record applied on a follower, receipt-to-install.
    ReplApply,
}

impl Stage {
    /// Every stage, in display order.
    pub const ALL: [Stage; 8] = [
        Stage::Parse,
        Stage::Inference,
        Stage::Induction,
        Stage::Scan,
        Stage::Request,
        Stage::QueueWait,
        Stage::WalAppend,
        Stage::ReplApply,
    ];

    /// The stage's wire/metric name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Inference => "inference",
            Stage::Induction => "induction",
            Stage::Scan => "scan",
            Stage::Request => "request",
            Stage::QueueWait => "queue_wait",
            Stage::WalAppend => "wal_append",
            Stage::ReplApply => "repl_apply",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            Stage::Parse => 0,
            Stage::Inference => 1,
            Stage::Induction => 2,
            Stage::Scan => 3,
            Stage::Request => 4,
            Stage::QueueWait => 5,
            Stage::WalAppend => 6,
            Stage::ReplApply => 7,
        }
    }
}

/// Histogram bucket upper bounds in microseconds (a final unbounded
/// overflow bucket is added on top). Roughly logarithmic from 1 µs to
/// 10 s, which spans a sub-microsecond scan to a multi-second induction.
pub const BUCKET_BOUNDS_US: [u64; 22] = [
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
    250_000, 500_000, 1_000_000, 2_500_000, 5_000_000, 10_000_000,
];

const N_BUCKETS: usize = BUCKET_BOUNDS_US.len() + 1; // + overflow

/// A thread-safe fixed-bucket latency histogram (microsecond units).
///
/// Recording is three relaxed atomic increments; snapshots are
/// near-consistent (counts may be mid-update by at most the number of
/// concurrently recording threads, never corrupted).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }

    /// Record one observation in microseconds.
    pub fn record_us(&self, us: u64) {
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(N_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Record one observation as a [`Duration`].
    pub fn record(&self, d: Duration) {
        self.record_us(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy with percentile estimates.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        let sum_us = self.sum_us.load(Ordering::Relaxed);
        let pct = |p: f64| percentile_from_buckets(&buckets, count, p);
        HistogramSnapshot {
            count,
            sum_us,
            p50_us: pct(0.50),
            p95_us: pct(0.95),
            p99_us: pct(0.99),
            buckets,
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_us.store(0, Ordering::Relaxed);
    }
}

/// Percentile as the upper bound of the bucket holding the rank
/// (Prometheus-style conservative estimate). The overflow bucket
/// reports the largest finite bound.
fn percentile_from_buckets(buckets: &[u64], count: u64, p: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((count as f64) * p).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return BUCKET_BOUNDS_US
                .get(i)
                .copied()
                .unwrap_or(BUCKET_BOUNDS_US[BUCKET_BOUNDS_US.len() - 1]);
        }
    }
    BUCKET_BOUNDS_US[BUCKET_BOUNDS_US.len() - 1]
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations, in microseconds.
    pub sum_us: u64,
    /// Estimated 50th percentile (µs, bucket upper bound).
    pub p50_us: u64,
    /// Estimated 95th percentile (µs, bucket upper bound).
    pub p95_us: u64,
    /// Estimated 99th percentile (µs, bucket upper bound).
    pub p99_us: u64,
    /// Per-bucket counts, aligned with [`BUCKET_BOUNDS_US`] plus a
    /// final overflow bucket.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observation in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }
}

/// A metrics registry: named counters and gauges plus one latency
/// histogram per pipeline [`Stage`].
///
/// Most code uses the process-global registry via [`crate::metrics`];
/// independent instances exist so tests can assert exact counts.
#[derive(Debug, Default)]
pub struct Registry {
    stages: [Histogram; Stage::ALL.len()],
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, i64>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry {
            stages: std::array::from_fn(|_| Histogram::new()),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
        }
    }

    /// The histogram for a pipeline stage.
    pub fn stage(&self, stage: Stage) -> &Histogram {
        &self.stages[stage.index()]
    }

    /// Increment a named counter by `n` (created at 0 on first use).
    pub fn add(&self, name: &str, n: u64) {
        let mut counters = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        match counters.get_mut(name) {
            Some(v) => *v = v.saturating_add(n),
            None => {
                counters.insert(name.to_string(), n);
            }
        }
    }

    /// Increment a named counter by 1.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Read one counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Set a named gauge to `value`.
    pub fn gauge(&self, name: &str, value: i64) {
        self.gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string(), value);
    }

    /// Read one gauge (`None` when never set).
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        self.gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .copied()
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone(),
            gauges: self
                .gauges
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone(),
            stages: Stage::ALL
                .iter()
                .map(|s| (s.name().to_string(), self.stage(*s).snapshot()))
                .collect(),
        }
    }

    /// Zero every metric (test/bench convenience).
    pub fn reset(&self) {
        for h in &self.stages {
            h.reset();
        }
        self.counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self.gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }
}

/// A point-in-time copy of a whole [`Registry`], exportable as JSON or
/// Prometheus text.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → value.
    pub gauges: BTreeMap<String, i64>,
    /// Stage name → histogram snapshot, in [`Stage::ALL`] order.
    pub stages: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Look up one stage's histogram by name.
    pub fn stage(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.stages.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Encode as a single-line JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{"parse":{"count":..,"sum_us":..,"p50_us":..,"p95_us":..,"p99_us":..},...}}`
    /// (bucket arrays are omitted from JSON; use the Prometheus export
    /// for full bucket detail).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            crate::push_json_str(&mut out, k);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            crate::push_json_str(&mut out, k);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            crate::push_json_str(&mut out, name);
            let _ = write!(
                out,
                ":{{\"count\":{},\"sum_us\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}",
                h.count, h.sum_us, h.p50_us, h.p95_us, h.p99_us
            );
        }
        out.push_str("}}");
        out
    }

    /// Encode as Prometheus-style exposition text: counters as
    /// `intensio_<name>_total`, gauges as `intensio_<name>`, and stage
    /// histograms as `intensio_<stage>_latency_us` with cumulative
    /// `_bucket{le=...}` series plus `_sum`/`_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let name = sanitize(k);
            let _ = writeln!(out, "# TYPE intensio_{name}_total counter");
            let _ = writeln!(out, "intensio_{name}_total {v}");
        }
        for (k, v) in &self.gauges {
            let name = sanitize(k);
            let _ = writeln!(out, "# TYPE intensio_{name} gauge");
            let _ = writeln!(out, "intensio_{name} {v}");
        }
        for (stage, h) in &self.stages {
            let name = format!("intensio_{}_latency_us", sanitize(stage));
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (i, c) in h.buckets.iter().enumerate() {
                cumulative += c;
                match BUCKET_BOUNDS_US.get(i) {
                    Some(b) => {
                        let _ = writeln!(out, "{name}_bucket{{le=\"{b}\"}} {cumulative}");
                    }
                    None => {
                        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                    }
                }
            }
            let _ = writeln!(out, "{name}_sum {}", h.sum_us);
            let _ = writeln!(out, "{name}_count {}", h.count);
            // A pre-computed summary alongside the raw buckets, so
            // scrapers without histogram_quantile get p50/p95/p99.
            let _ = writeln!(out, "# TYPE {name}_summary summary");
            for (q, v) in [("0.5", h.p50_us), ("0.95", h.p95_us), ("0.99", h.p99_us)] {
                let _ = writeln!(out, "{name}_summary{{quantile=\"{q}\"}} {v}");
            }
            let _ = writeln!(out, "{name}_summary_sum {}", h.sum_us);
            let _ = writeln!(out, "{name}_summary_count {}", h.count);
        }
        out
    }
}

/// Prometheus metric names allow `[a-zA-Z0-9_:]`.
fn sanitize(k: &str) -> String {
    k.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_inclusive_upper_bounds() {
        let h = Histogram::new();
        h.record_us(1); // -> bucket le=1
        h.record_us(2); // -> bucket le=2
        h.record_us(3); // -> bucket le=5
        h.record_us(10_000_001); // -> overflow
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum_us, 1 + 2 + 3 + 10_000_001);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[2], 1);
        assert_eq!(*s.buckets.last().unwrap(), 1);
    }

    #[test]
    fn percentiles_estimate_bucket_upper_bounds() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record_us(40); // le=50
        }
        for _ in 0..9 {
            h.record_us(400); // le=500
        }
        h.record_us(9_000); // le=10000
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_us, 50);
        assert_eq!(s.p95_us, 500);
        assert_eq!(s.p99_us, 500);
        assert_eq!(s.mean_us(), (90 * 40 + 9 * 400 + 9_000) / 100);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(
            (s.count, s.p50_us, s.p95_us, s.p99_us, s.mean_us()),
            (0, 0, 0, 0, 0)
        );
    }

    #[test]
    fn counters_and_gauges_round_trip() {
        let r = Registry::new();
        r.inc("a.b");
        r.add("a.b", 4);
        r.gauge("g", -7);
        assert_eq!(r.counter("a.b"), 5);
        assert_eq!(r.counter("missing"), 0);
        let s = r.snapshot();
        assert_eq!(s.counters["a.b"], 5);
        assert_eq!(s.gauges["g"], -7);
        r.reset();
        assert_eq!(r.counter("a.b"), 0);
        assert_eq!(r.stage(Stage::Parse).count(), 0);
    }

    #[test]
    fn json_and_prometheus_exports_name_every_stage() {
        let r = Registry::new();
        r.stage(Stage::Parse).record_us(10);
        r.inc("serve.cache_hits");
        let s = r.snapshot();
        let json = s.to_json();
        for stage in Stage::ALL {
            assert!(json.contains(&format!("\"{}\"", stage.name())), "{json}");
        }
        assert!(json.contains("\"serve.cache_hits\":1"));
        assert!(!json.contains('\n'));
        let prom = s.to_prometheus();
        assert!(prom.contains("intensio_parse_latency_us_bucket{le=\"10\"} 1"));
        assert!(prom.contains("intensio_serve_cache_hits_total 1"));
        assert!(prom.contains("intensio_parse_latency_us_count 1"));
        assert!(prom.contains("le=\"+Inf\""));
        // Summary quantiles ride alongside the raw buckets, for every
        // stage including the replication-era ones.
        assert!(prom.contains("intensio_parse_latency_us_summary{quantile=\"0.5\"} 10"));
        assert!(prom.contains("intensio_parse_latency_us_summary{quantile=\"0.99\"} 10"));
        assert!(prom.contains("intensio_repl_apply_latency_us_summary{quantile=\"0.95\"} 0"));
        assert!(prom.contains("intensio_wal_append_latency_us_summary{quantile=\"0.5\"} 0"));
    }

    #[test]
    fn snapshot_percentiles_saturate_at_largest_finite_bound() {
        let h = Histogram::new();
        h.record_us(u64::MAX / 2);
        let s = h.snapshot();
        assert_eq!(s.p99_us, BUCKET_BOUNDS_US[BUCKET_BOUNDS_US.len() - 1]);
    }
}
