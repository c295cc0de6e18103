//! iyp-telemetry: metrics and span timing for the IYP stack.
//!
//! A zero-dependency instrumentation layer shared by the graph store,
//! the Cypher executor, the build pipeline, and the server:
//!
//! - [`counter`] / [`gauge`] / [`histogram`] return cheap cloneable
//!   handles registered in a global, thread-safe recorder.
//! - [`span`] returns a drop guard that records elapsed wall time into
//!   a log-bucketed histogram.
//! - [`render`] emits a Prometheus-style text exposition of everything
//!   recorded so far.
//!
//! The recorder starts **disabled**: every handle checks one relaxed
//! atomic load and skips all work, so instrumented hot paths cost a
//! few cycles when telemetry is off (guarded by the
//! `telemetry_overhead` bench in `crates/bench`). Call [`enable`] to
//! start recording.
//!
//! Metric names follow Prometheus conventions; labels are encoded in
//! the name itself via [`labeled`], e.g.
//! `iyp_build_import_seconds{dataset="tranco_list"}`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Canonical metric names used across the IYP stack. Instrumented
/// crates reference these constants (never ad-hoc strings), and the
/// generated `documentation/telemetry.md` page renders [`names::ALL`],
/// so the docs cannot drift from the instrumentation.
pub mod names {
    /// Counter: Cypher queries started (any mode).
    pub const CYPHER_QUERIES_TOTAL: &str = "iyp_cypher_queries_total";
    /// Histogram: end-to-end Cypher query latency.
    pub const CYPHER_QUERY_SECONDS: &str = "iyp_cypher_query_seconds";
    /// Histogram: full pipeline build wall time.
    pub const BUILD_SECONDS: &str = "iyp_build_seconds";
    /// Histogram (per `dataset` label): one dataset's import time.
    pub const BUILD_IMPORT_SECONDS: &str = "iyp_build_import_seconds";
    /// Histogram (per `pass` label): one refinement pass's wall time.
    pub const BUILD_REFINE_SECONDS: &str = "iyp_build_refine_seconds";
    /// Counter: relationships created by crawler imports.
    pub const BUILD_LINKS_TOTAL: &str = "iyp_build_links_total";
    /// Gauge: node count of the most recently built graph.
    pub const GRAPH_NODES: &str = "iyp_graph_nodes";
    /// Gauge: relationship count of the most recently built graph.
    pub const GRAPH_RELS: &str = "iyp_graph_rels";
    /// Histogram: server-side query request latency.
    pub const SERVER_REQUEST_SECONDS: &str = "iyp_server_request_seconds";
    /// Counter: server queries slower than the slow-query threshold.
    pub const SERVER_SLOW_QUERIES_TOTAL: &str = "iyp_server_slow_queries_total";
    /// Counter: write queries executed by the server.
    pub const SERVER_WRITE_QUERIES_TOTAL: &str = "iyp_server_write_queries_total";
    /// Counter: Cypher write queries executed.
    pub const CYPHER_WRITE_QUERIES_TOTAL: &str = "iyp_cypher_write_queries_total";
    /// Counter: bytes appended to the write-ahead log.
    pub const JOURNAL_APPEND_BYTES_TOTAL: &str = "iyp_journal_append_bytes_total";
    /// Counter: fsync calls issued by the journal.
    pub const JOURNAL_FSYNCS_TOTAL: &str = "iyp_journal_fsyncs_total";
    /// Counter: graph ops replayed during crash recovery.
    pub const JOURNAL_REPLAYED_OPS_TOTAL: &str = "iyp_journal_replayed_ops_total";
    /// Counter: torn-tail bytes truncated from the WAL during recovery.
    pub const JOURNAL_TRUNCATED_BYTES_TOTAL: &str = "iyp_journal_truncated_bytes_total";
    /// Histogram: checkpoint (WAL compaction into a snapshot) wall time.
    pub const JOURNAL_CHECKPOINT_SECONDS: &str = "iyp_journal_checkpoint_seconds";
    /// Counter: work chunks dispatched to parallel Cypher worker threads.
    pub const CYPHER_PARALLEL_CHUNKS_TOTAL: &str = "iyp_cypher_parallel_chunks_total";
    /// Histogram: wall time spent inside parallel Cypher workers.
    pub const CYPHER_WORKER_SECONDS: &str = "iyp_cypher_worker_seconds";
    /// Counter: structural group/DISTINCT keys hashed during projection.
    pub const CYPHER_GROUP_KEYS_TOTAL: &str = "iyp_cypher_group_keys_total";
    /// Counter: connections rejected because the in-flight handler cap
    /// was reached.
    pub const SERVER_BUSY_REJECTED_TOTAL: &str = "iyp_server_busy_rejected_total";
    /// Counter: queries cancelled for exceeding the server deadline.
    pub const SERVER_QUERY_TIMEOUT_TOTAL: &str = "iyp_server_query_timeout_total";
    /// Counter: malformed records skipped by importer quarantine.
    pub const BUILD_QUARANTINED_RECORDS_TOTAL: &str = "iyp_build_quarantined_records_total";
    /// Counter: dataset fetch retries after transient failures.
    pub const BUILD_RETRIES_TOTAL: &str = "iyp_build_retries_total";
    /// Counter: datasets that failed or were skipped during a build.
    pub const BUILD_FAILED_DATASETS_TOTAL: &str = "iyp_build_failed_datasets_total";
    /// Counter: query-cache lookups answered from a cached result.
    pub const CYPHER_CACHE_HITS_TOTAL: &str = "iyp_cypher_cache_hits_total";
    /// Counter: query-cache lookups that fell through to execution.
    pub const CYPHER_CACHE_MISSES_TOTAL: &str = "iyp_cypher_cache_misses_total";
    /// Counter: cached results evicted to stay under the byte budget.
    pub const CYPHER_CACHE_EVICTIONS_TOTAL: &str = "iyp_cypher_cache_evictions_total";
    /// Gauge: bytes currently held by the query result cache.
    pub const CYPHER_CACHE_BYTES: &str = "iyp_cypher_cache_bytes";

    /// Every canonical metric as `(name, kind, labels, description)` —
    /// the source of truth for `documentation/telemetry.md`.
    pub const ALL: [(&str, &str, &str, &str); 29] = [
        (
            CYPHER_QUERIES_TOTAL,
            "counter",
            "",
            "Cypher queries started (any mode)",
        ),
        (
            CYPHER_QUERY_SECONDS,
            "histogram",
            "",
            "end-to-end Cypher query latency",
        ),
        (
            BUILD_SECONDS,
            "histogram",
            "",
            "full pipeline build wall time",
        ),
        (
            BUILD_IMPORT_SECONDS,
            "histogram",
            "dataset",
            "per-dataset import time",
        ),
        (
            BUILD_REFINE_SECONDS,
            "histogram",
            "pass",
            "per-refinement-pass wall time",
        ),
        (
            BUILD_LINKS_TOTAL,
            "counter",
            "",
            "relationships created by crawler imports",
        ),
        (
            GRAPH_NODES,
            "gauge",
            "",
            "node count of the most recently built graph",
        ),
        (
            GRAPH_RELS,
            "gauge",
            "",
            "relationship count of the most recently built graph",
        ),
        (
            SERVER_REQUEST_SECONDS,
            "histogram",
            "",
            "server-side query request latency",
        ),
        (
            SERVER_SLOW_QUERIES_TOTAL,
            "counter",
            "",
            "server queries slower than 250 ms",
        ),
        (
            SERVER_WRITE_QUERIES_TOTAL,
            "counter",
            "",
            "write queries executed by the server",
        ),
        (
            CYPHER_WRITE_QUERIES_TOTAL,
            "counter",
            "",
            "Cypher write queries executed",
        ),
        (
            JOURNAL_APPEND_BYTES_TOTAL,
            "counter",
            "",
            "bytes appended to the write-ahead log",
        ),
        (
            JOURNAL_FSYNCS_TOTAL,
            "counter",
            "",
            "fsync calls issued by the journal",
        ),
        (
            JOURNAL_REPLAYED_OPS_TOTAL,
            "counter",
            "",
            "graph ops replayed during crash recovery",
        ),
        (
            JOURNAL_TRUNCATED_BYTES_TOTAL,
            "counter",
            "",
            "torn-tail bytes truncated from the WAL during recovery",
        ),
        (
            JOURNAL_CHECKPOINT_SECONDS,
            "histogram",
            "",
            "checkpoint (WAL compaction into a snapshot) wall time",
        ),
        (
            CYPHER_PARALLEL_CHUNKS_TOTAL,
            "counter",
            "",
            "work chunks dispatched to parallel Cypher worker threads",
        ),
        (
            CYPHER_WORKER_SECONDS,
            "histogram",
            "",
            "wall time spent inside parallel Cypher workers",
        ),
        (
            CYPHER_GROUP_KEYS_TOTAL,
            "counter",
            "",
            "structural group/DISTINCT keys hashed during projection",
        ),
        (
            SERVER_BUSY_REJECTED_TOTAL,
            "counter",
            "",
            "connections rejected because the in-flight handler cap was reached",
        ),
        (
            SERVER_QUERY_TIMEOUT_TOTAL,
            "counter",
            "",
            "queries cancelled for exceeding the server deadline",
        ),
        (
            BUILD_QUARANTINED_RECORDS_TOTAL,
            "counter",
            "",
            "malformed records skipped by importer quarantine",
        ),
        (
            BUILD_RETRIES_TOTAL,
            "counter",
            "",
            "dataset fetch retries after transient failures",
        ),
        (
            BUILD_FAILED_DATASETS_TOTAL,
            "counter",
            "",
            "datasets that failed or were skipped during a build",
        ),
        (
            CYPHER_CACHE_HITS_TOTAL,
            "counter",
            "",
            "query-cache lookups answered from a cached result",
        ),
        (
            CYPHER_CACHE_MISSES_TOTAL,
            "counter",
            "",
            "query-cache lookups that fell through to execution",
        ),
        (
            CYPHER_CACHE_EVICTIONS_TOTAL,
            "counter",
            "",
            "cached results evicted to stay under the byte budget",
        ),
        (
            CYPHER_CACHE_BYTES,
            "gauge",
            "",
            "bytes currently held by the query result cache",
        ),
    ];
}

/// Number of log2 buckets in a histogram: bucket `i` counts samples in
/// `[2^i, 2^(i+1))` nanoseconds, which spans 1 ns to ~584 years.
const BUCKETS: usize = 64;

static ENABLED: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Option<BTreeMap<String, Metric>>> = Mutex::new(None);

/// Turns recording on.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns recording off. Existing handles become no-ops.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// True when the recorder is on. One relaxed load; safe in hot paths.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes every registered metric (the handles stay valid).
pub fn reset() {
    if let Some(reg) = registry().as_ref() {
        for metric in reg.values() {
            metric.reset();
        }
    }
}

/// Encodes labels into a metric name: `labeled("x", &[("k", "v")])`
/// yields `x{k="v"}`.
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", k, v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("{}{{{}}}", name, body.join(","))
}

fn registry() -> MutexGuard<'static, Option<BTreeMap<String, Metric>>> {
    let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    if guard.is_none() {
        *guard = Some(BTreeMap::new());
    }
    guard
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn reset(&self) {
        match self {
            Metric::Counter(c) => c.value.store(0, Ordering::Relaxed),
            Metric::Gauge(g) => g.value.store(0, Ordering::Relaxed),
            Metric::Histogram(h) => {
                h.inner.count.store(0, Ordering::Relaxed);
                h.inner.sum_ns.store(0, Ordering::Relaxed);
                for b in h.inner.buckets.iter() {
                    b.store(0, Ordering::Relaxed);
                }
            }
        }
    }
}

/// A monotonically increasing counter.
#[derive(Clone)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`. No-op while the recorder is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can move up and down.
#[derive(Clone)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the gauge. No-op while the recorder is disabled.
    #[inline]
    pub fn set(&self, v: i64) {
        if enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adds a (possibly negative) delta. No-op while disabled.
    #[inline]
    pub fn add(&self, delta: i64) {
        if enabled() {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

/// A log2-bucketed latency histogram over nanosecond samples.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    /// Records one duration. No-op while the recorder is disabled.
    #[inline]
    pub fn record(&self, d: Duration) {
        if enabled() {
            self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
        }
    }

    fn record_ns(&self, ns: u64) {
        let bucket = if ns == 0 {
            0
        } else {
            63 - ns.leading_zeros() as usize
        };
        self.inner.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> Duration {
        Duration::from_nanos(self.inner.sum_ns.load(Ordering::Relaxed))
    }

    /// Mean sample, or zero when empty.
    pub fn mean(&self) -> Duration {
        let sum = self.inner.sum_ns.load(Ordering::Relaxed);
        match sum.checked_div(self.count()) {
            Some(ns) => Duration::from_nanos(ns),
            None => Duration::ZERO,
        }
    }
}

/// Returns (registering on first use) the counter with this name.
pub fn counter(name: &str) -> Counter {
    let mut reg = registry();
    let map = reg.as_mut().unwrap();
    match map.get(name) {
        Some(Metric::Counter(c)) => c.clone(),
        Some(_) => panic!("metric `{}` already registered with another type", name),
        None => {
            let c = Counter {
                value: Arc::new(AtomicU64::new(0)),
            };
            map.insert(name.to_string(), Metric::Counter(c.clone()));
            c
        }
    }
}

/// Returns (registering on first use) the gauge with this name.
pub fn gauge(name: &str) -> Gauge {
    let mut reg = registry();
    let map = reg.as_mut().unwrap();
    match map.get(name) {
        Some(Metric::Gauge(g)) => g.clone(),
        Some(_) => panic!("metric `{}` already registered with another type", name),
        None => {
            let g = Gauge {
                value: Arc::new(AtomicI64::new(0)),
            };
            map.insert(name.to_string(), Metric::Gauge(g.clone()));
            g
        }
    }
}

/// Returns (registering on first use) the histogram with this name.
pub fn histogram(name: &str) -> Histogram {
    let mut reg = registry();
    let map = reg.as_mut().unwrap();
    match map.get(name) {
        Some(Metric::Histogram(h)) => h.clone(),
        Some(_) => panic!("metric `{}` already registered with another type", name),
        None => {
            let h = Histogram {
                inner: Arc::new(HistogramInner {
                    buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                    count: AtomicU64::new(0),
                    sum_ns: AtomicU64::new(0),
                }),
            };
            map.insert(name.to_string(), Metric::Histogram(h.clone()));
            h
        }
    }
}

/// Drop guard that records elapsed wall time into a histogram.
///
/// While the recorder is disabled, [`span`] takes no timestamp and the
/// guard's drop does nothing.
pub struct Span {
    target: Option<(Histogram, Instant)>,
}

impl Span {
    /// Elapsed time so far (zero while disabled).
    pub fn elapsed(&self) -> Duration {
        self.target
            .as_ref()
            .map(|(_, start)| start.elapsed())
            .unwrap_or(Duration::ZERO)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((hist, start)) = self.target.take() {
            hist.record(start.elapsed());
        }
    }
}

/// Starts a span recording into the named histogram when dropped.
pub fn span(name: &str) -> Span {
    if !enabled() {
        return Span { target: None };
    }
    Span {
        target: Some((histogram(name), Instant::now())),
    }
}

/// A point-in-time reading of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram reading: sample count and sum of samples.
    Histogram {
        /// Number of samples.
        count: u64,
        /// Sum of all samples.
        sum: Duration,
    },
}

/// Snapshots every registered metric, sorted by name.
pub fn snapshot() -> Vec<(String, MetricValue)> {
    let reg = registry();
    let map = reg.as_ref().unwrap();
    map.iter()
        .map(|(name, metric)| {
            let value = match metric {
                Metric::Counter(c) => MetricValue::Counter(c.get()),
                Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                Metric::Histogram(h) => MetricValue::Histogram {
                    count: h.count(),
                    sum: h.sum(),
                },
            };
            (name.clone(), value)
        })
        .collect()
}

/// Renders all metrics in Prometheus text exposition format.
///
/// Histograms emit cumulative `_bucket{le="..."}` lines (upper bounds
/// in seconds), plus `_sum` (seconds) and `_count`.
pub fn render() -> String {
    let reg = registry();
    let map = reg.as_ref().unwrap();
    // The text format wants each family's series together under one
    // `# TYPE` line. Name order alone does not group them (`x_total`
    // sorts between `x` and `x{..}`), so order by family first; the
    // stable sort keeps name order within a family.
    let mut series: Vec<(&str, &str, &String, &Metric)> = map
        .iter()
        .map(|(name, metric)| {
            let (base, labels) = split_labels(name);
            (base, labels, name, metric)
        })
        .collect();
    series.sort_by_key(|(base, ..)| *base);
    let mut out = String::new();
    let mut family = None;
    for (base, labels, name, metric) in series {
        if family != Some(base) {
            family = Some(base);
            let kind = match metric {
                Metric::Counter(_) => "counter",
                Metric::Gauge(_) => "gauge",
                Metric::Histogram(_) => "histogram",
            };
            out.push_str(&format!("# TYPE {base} {kind}\n"));
        }
        match metric {
            Metric::Counter(c) => out.push_str(&format!("{} {}\n", name, c.get())),
            Metric::Gauge(g) => out.push_str(&format!("{} {}\n", name, g.get())),
            Metric::Histogram(h) => {
                let mut cumulative = 0u64;
                for (i, bucket) in h.inner.buckets.iter().enumerate() {
                    let n = bucket.load(Ordering::Relaxed);
                    if n == 0 {
                        continue;
                    }
                    cumulative += n;
                    let upper_ns = if i >= 63 { u64::MAX } else { 1u64 << (i + 1) };
                    let le = upper_ns as f64 / 1e9;
                    out.push_str(&format!(
                        "{}_bucket{{{}le=\"{:e}\"}} {}\n",
                        base,
                        labels_prefix(labels),
                        le,
                        cumulative
                    ));
                }
                out.push_str(&format!(
                    "{}_bucket{{{}le=\"+Inf\"}} {}\n",
                    base,
                    labels_prefix(labels),
                    h.count()
                ));
                let sum_line = if labels.is_empty() {
                    format!("{}_sum {}\n", base, h.sum().as_secs_f64())
                } else {
                    format!("{}_sum{{{}}} {}\n", base, labels, h.sum().as_secs_f64())
                };
                out.push_str(&sum_line);
                let count_line = if labels.is_empty() {
                    format!("{}_count {}\n", base, h.count())
                } else {
                    format!("{}_count{{{}}} {}\n", base, labels, h.count())
                };
                out.push_str(&count_line);
            }
        }
    }
    out
}

/// Splits `name{a="b"}` into (`name`, `a="b"`); labels are empty when absent.
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(open) => (&name[..open], name[open + 1..].trim_end_matches('}')),
        None => (name, ""),
    }
}

fn labels_prefix(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{},", labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All tests share one global recorder; serialise them.
    fn locked() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_recorder_is_noop() {
        let _g = locked();
        disable();
        reset();
        let c = counter("test_noop_total");
        c.incr();
        c.add(10);
        assert_eq!(c.get(), 0);
        let h = histogram("test_noop_seconds");
        h.record(Duration::from_millis(5));
        assert_eq!(h.count(), 0);
        let s = span("test_noop_span_seconds");
        assert_eq!(s.elapsed(), Duration::ZERO);
        drop(s);
        assert_eq!(histogram("test_noop_span_seconds").count(), 0);
    }

    #[test]
    fn counters_and_gauges_record_when_enabled() {
        let _g = locked();
        enable();
        reset();
        let c = counter("test_ops_total");
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = gauge("test_depth");
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
        disable();
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let _g = locked();
        enable();
        reset();
        let h = histogram("test_latency_seconds");
        h.record(Duration::from_nanos(3)); // bucket 1: [2,4)
        h.record(Duration::from_nanos(3));
        h.record(Duration::from_nanos(100)); // bucket 6: [64,128)
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), Duration::from_nanos(106));
        let text = render();
        assert!(text.contains("# TYPE test_latency_seconds histogram"));
        assert!(text.contains("test_latency_seconds_count 3"));
        // The +Inf bucket always matches the count.
        assert!(text.contains("le=\"+Inf\"} 3"));
        disable();
    }

    #[test]
    fn span_records_elapsed_time() {
        let _g = locked();
        enable();
        reset();
        {
            let _s = span("test_span_seconds");
            std::thread::sleep(Duration::from_millis(2));
        }
        let h = histogram("test_span_seconds");
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= Duration::from_millis(2));
        disable();
    }

    #[test]
    fn labeled_encodes_and_render_splits() {
        let _g = locked();
        enable();
        reset();
        let name = labeled("test_import_total", &[("dataset", "tranco_list")]);
        assert_eq!(name, "test_import_total{dataset=\"tranco_list\"}");
        counter(&name).add(3);
        let text = render();
        assert!(text.contains("# TYPE test_import_total counter"));
        assert!(text.contains("test_import_total{dataset=\"tranco_list\"} 3"));
        disable();
    }

    #[test]
    fn snapshot_lists_all_metrics_sorted() {
        let _g = locked();
        enable();
        reset();
        counter("test_snap_b_total").incr();
        gauge("test_snap_a").set(1);
        let snap = snapshot();
        let names: Vec<&str> = snap
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| n.starts_with("test_snap_"))
            .collect();
        assert_eq!(names, vec!["test_snap_a", "test_snap_b_total"]);
        disable();
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let _g = locked();
        enable();
        let c = counter("test_reset_total");
        c.add(9);
        reset();
        assert_eq!(c.get(), 0);
        c.incr();
        assert_eq!(c.get(), 1);
        disable();
    }
}
