//! The lock-sharded metrics registry.
//!
//! A registry maps `(name, labels)` to a metric cell. Handles returned by
//! [`Registry::counter`] / [`Registry::gauge`] / [`Registry::histogram`]
//! are `Arc`s over the shared atomics: fetch once, update lock-free. The
//! shard locks are touched only at handle creation and exposition.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::histogram::{Histogram, HistogramSnapshot};

const SHARDS: usize = 16;

/// The counter of requests for an existing metric under another kind
/// (see [`Registry::counter_with`]).
pub const KIND_CONFLICTS: &str = "tdb_obs_kind_conflicts_total";

/// A monotone counter handle.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle (a settable signed value).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Clone)]
enum Cell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<Histogram>),
}

/// Metric identity: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Key {
    name: String,
    labels: Vec<(String, String)>,
}

impl Key {
    fn new(name: &str, labels: &[(&str, &str)]) -> Key {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Key {
            name: name.to_string(),
            labels,
        }
    }

    /// `name` or `name{k="v",…}` — the exposition/JSON key.
    fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let mut s = format!("{}{{", self.name);
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{k}=\"{}\"", escape(v));
        }
        s.push('}');
        s
    }
}

/// The metrics registry. Cheap to create; most code uses the process-wide
/// [`crate::global`] instance so one exposition spans every layer.
#[derive(Debug, Default)]
pub struct Registry {
    shards: [Mutex<HashMap<Key, Cell>>; SHARDS],
}

fn shard_of(key: &Key) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % SHARDS
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Fetches (creating if absent) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Fetches (creating if absent) the counter `name{labels…}`.
    ///
    /// If `name`+`labels` already names a metric of another kind, the
    /// handle is detached: it works, but no exposition shows it, and
    /// [`KIND_CONFLICTS`] counts the request. The same holds for gauges and
    /// histograms.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.cell(name, labels, || Cell::Counter(Arc::default())) {
            Cell::Counter(c) => Counter(c),
            _ => {
                self.conflict();
                Counter(Arc::default())
            }
        }
    }

    /// Fetches (creating if absent) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Fetches (creating if absent) the gauge `name{labels…}`.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.cell(name, labels, || Cell::Gauge(Arc::default())) {
            Cell::Gauge(g) => Gauge(g),
            _ => {
                self.conflict();
                Gauge(Arc::default())
            }
        }
    }

    /// Fetches (creating if absent) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[])
    }

    /// Fetches (creating if absent) the histogram `name{labels…}`.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.cell(name, labels, || Cell::Histogram(Arc::new(Histogram::new()))) {
            Cell::Histogram(h) => h,
            _ => {
                self.conflict();
                Arc::new(Histogram::new())
            }
        }
    }

    /// Counts a request for a metric under a kind it does not have. Not
    /// through `counter`: were [`KIND_CONFLICTS`] itself taken by another
    /// kind, that would recurse.
    fn conflict(&self) {
        if let Cell::Counter(c) = self.cell(KIND_CONFLICTS, &[], || Cell::Counter(Arc::default())) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn cell(&self, name: &str, labels: &[(&str, &str)], make: impl FnOnce() -> Cell) -> Cell {
        let key = Key::new(name, labels);
        let shard = &self.shards[shard_of(&key)];
        let mut shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
        shard.entry(key).or_insert_with(make).clone()
    }

    /// Zeroes every registered metric (handles stay valid). Test support.
    pub fn reset(&self) {
        for shard in &self.shards {
            let cells = shard.lock().unwrap_or_else(PoisonError::into_inner);
            for cell in cells.values() {
                match cell {
                    Cell::Counter(c) => c.store(0, Ordering::Relaxed),
                    Cell::Gauge(g) => g.store(0, Ordering::Relaxed),
                    Cell::Histogram(h) => h.reset(),
                }
            }
        }
    }

    /// A point-in-time copy of every metric, sorted by name then labels.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut rows: Vec<(Key, MetricValue)> = Vec::new();
        for shard in &self.shards {
            for (key, cell) in shard.lock().unwrap_or_else(PoisonError::into_inner).iter() {
                let value = match cell {
                    Cell::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                    Cell::Gauge(g) => MetricValue::Gauge(g.load(Ordering::Relaxed)),
                    Cell::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                };
                rows.push((key.clone(), value));
            }
        }
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        RegistrySnapshot {
            metrics: rows
                .into_iter()
                .map(|(key, value)| MetricSnapshot {
                    name: key.name.clone(),
                    labels: key.labels.clone(),
                    rendered: key.render(),
                    value,
                })
                .collect(),
        }
    }

    /// Prometheus text exposition (version 0.0.4): one `# TYPE` line per
    /// metric family, histogram families as sparse cumulative `_bucket`
    /// series plus `_sum`/`_count`. Deterministic (sorted) output.
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }

    /// JSON snapshot of every metric (see
    /// [`RegistrySnapshot::to_json`]).
    pub fn render_json(&self) -> String {
        self.snapshot().to_json()
    }
}

/// One metric in a snapshot.
#[derive(Debug, Clone)]
pub struct MetricSnapshot {
    pub name: String,
    pub labels: Vec<(String, String)>,
    /// `name` or `name{k="v",…}`.
    pub rendered: String,
    pub value: MetricValue,
}

/// A snapshot value.
#[derive(Debug, Clone)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    /// Boxed: a histogram snapshot carries its full bucket array, which
    /// would otherwise dominate the enum's size.
    Histogram(Box<HistogramSnapshot>),
}

/// A point-in-time copy of a whole registry.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Sorted by name, then labels.
    pub metrics: Vec<MetricSnapshot>,
}

impl RegistrySnapshot {
    /// The counter `name` (no labels), if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.metrics.iter().find_map(|m| match &m.value {
            MetricValue::Counter(v) if m.rendered == name => Some(*v),
            _ => None,
        })
    }

    /// Sum of every labeled/unlabeled counter in family `name`.
    pub fn counter_family(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|m| m.name == name)
            .map(|m| match &m.value {
                MetricValue::Counter(v) => *v,
                _ => 0,
            })
            .sum()
    }

    /// The gauge `name` (no labels), if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.metrics.iter().find_map(|m| match &m.value {
            MetricValue::Gauge(v) if m.rendered == name => Some(*v),
            _ => None,
        })
    }

    /// The histogram `name` (no labels), if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.metrics.iter().find_map(|m| match &m.value {
            MetricValue::Histogram(h) if m.rendered == name => Some(h.as_ref()),
            _ => None,
        })
    }

    /// Prometheus text exposition of the snapshot.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family: Option<&str> = None;
        for m in &self.metrics {
            if last_family != Some(m.name.as_str()) {
                let kind = match &m.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# TYPE {} {kind}", m.name);
                last_family = Some(m.name.as_str());
            }
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{} {v}", m.rendered);
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{} {v}", m.rendered);
                }
                MetricValue::Histogram(h) => {
                    for (le, cum) in h.cumulative() {
                        let _ = writeln!(
                            out,
                            "{} {cum}",
                            with_label(&m.name, &m.labels, "le", &le.to_string(), "_bucket")
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{} {}",
                        with_label(&m.name, &m.labels, "le", "+Inf", "_bucket"),
                        h.count
                    );
                    let _ = writeln!(out, "{}_sum {}", m.rendered, h.sum);
                    let _ = writeln!(out, "{}_count {}", m.rendered, h.count);
                }
            }
        }
        out
    }

    /// The whole snapshot as a JSON object:
    ///
    /// ```json
    /// {
    ///   "counters": {"tdb_x_total": 3, "tdb_y_total{worker=\"0\"}": 1},
    ///   "gauges": {"tdb_z": -4},
    ///   "histograms": {"tdb_h_ns": {"count": 2, "sum": 9,
    ///                               "buckets": [[3, 1], [7, 2]]}}
    /// }
    /// ```
    ///
    /// Histogram buckets are `(inclusive upper bound, cumulative count)`
    /// pairs, sparse (only buckets the cumulative count changed at).
    pub fn to_json(&self) -> String {
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut histograms = String::new();
        for m in &self.metrics {
            match &m.value {
                MetricValue::Counter(v) => {
                    if !counters.is_empty() {
                        counters.push_str(",\n");
                    }
                    let _ = write!(counters, "    \"{}\": {v}", escape(&m.rendered));
                }
                MetricValue::Gauge(v) => {
                    if !gauges.is_empty() {
                        gauges.push_str(",\n");
                    }
                    let _ = write!(gauges, "    \"{}\": {v}", escape(&m.rendered));
                }
                MetricValue::Histogram(h) => {
                    if !histograms.is_empty() {
                        histograms.push_str(",\n");
                    }
                    let buckets: Vec<String> = h
                        .cumulative()
                        .iter()
                        .map(|(le, cum)| format!("[{le}, {cum}]"))
                        .collect();
                    let _ = write!(
                        histograms,
                        "    \"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [{}]}}",
                        escape(&m.rendered),
                        h.count,
                        h.sum,
                        buckets.join(", ")
                    );
                }
            }
        }
        format!(
            "{{\n  \"counters\": {{\n{counters}\n  }},\n  \"gauges\": {{\n{gauges}\n  }},\n  \"histograms\": {{\n{histograms}\n  }}\n}}\n"
        )
    }
}

/// `name<suffix>{labels…, extra="…"}`.
fn with_label(
    name: &str,
    labels: &[(String, String)],
    extra_key: &str,
    extra_val: &str,
    suffix: &str,
) -> String {
    let mut s = format!("{name}{suffix}{{");
    for (k, v) in labels {
        let _ = write!(s, "{k}=\"{}\",", escape(v));
    }
    let _ = write!(s, "{extra_key}=\"{}\"", escape(extra_val));
    s.push('}');
    s
}

/// Escapes `"` and `\` (and newlines) for label values / JSON strings.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    #[test]
    fn handles_share_the_cell() {
        let r = Registry::new();
        let a = r.counter("tdb_x_total");
        let b = r.counter("tdb_x_total");
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(r.snapshot().counter("tdb_x_total"), Some(3));
    }

    #[test]
    fn labels_are_distinct_series_and_sorted() {
        let r = Registry::new();
        r.counter_with("tdb_w_total", &[("worker", "1")]).add(5);
        r.counter_with("tdb_w_total", &[("worker", "0")]).add(7);
        let snap = r.snapshot();
        assert_eq!(snap.counter("tdb_w_total{worker=\"0\"}"), Some(7));
        assert_eq!(snap.counter("tdb_w_total{worker=\"1\"}"), Some(5));
        assert_eq!(snap.counter_family("tdb_w_total"), 12);
        // Label order in the key does not split the series.
        let a = r.counter_with("tdb_l_total", &[("a", "1"), ("b", "2")]);
        let b = r.counter_with("tdb_l_total", &[("b", "2"), ("a", "1")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
    }

    #[test]
    fn gauge_sets_and_adds() {
        let r = Registry::new();
        let g = r.gauge("tdb_g");
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
        assert_eq!(r.snapshot().gauge("tdb_g"), Some(7));
    }

    #[test]
    fn a_kind_conflict_is_counted_and_detached() {
        let r = Registry::new();
        r.counter("tdb_kind").add(2);
        let g = r.gauge("tdb_kind");
        g.set(7);
        assert_eq!(g.get(), 7, "the detached gauge still works");
        let h = r.histogram_with("tdb_kind", &[]);
        h.observe(1);
        r.counter(KIND_CONFLICTS);
        r.gauge(KIND_CONFLICTS);
        let snap = r.snapshot();
        assert_eq!(
            snap.counter("tdb_kind"),
            Some(2),
            "the registered counter is untouched"
        );
        assert_eq!(snap.gauge("tdb_kind"), None);
        assert_eq!(snap.counter(KIND_CONFLICTS), Some(3));
    }

    #[test]
    fn prometheus_rendering_is_deterministic() {
        let r = Registry::new();
        r.counter("tdb_b_total").add(2);
        r.counter("tdb_a_total").add(1);
        r.gauge("tdb_g").set(-4);
        r.histogram("tdb_h_ns").observe(5);
        r.histogram("tdb_h_ns").observe(0);
        let text = r.render_prometheus();
        assert_eq!(
            text,
            "# TYPE tdb_a_total counter\n\
             tdb_a_total 1\n\
             # TYPE tdb_b_total counter\n\
             tdb_b_total 2\n\
             # TYPE tdb_g gauge\n\
             tdb_g -4\n\
             # TYPE tdb_h_ns histogram\n\
             tdb_h_ns_bucket{le=\"0\"} 1\n\
             tdb_h_ns_bucket{le=\"7\"} 2\n\
             tdb_h_ns_bucket{le=\"+Inf\"} 2\n\
             tdb_h_ns_sum 5\n\
             tdb_h_ns_count 2\n"
        );
        assert_eq!(text, r.render_prometheus(), "stable across calls");
    }

    #[test]
    fn json_snapshot_round_trips_values() {
        let r = Registry::new();
        r.counter("tdb_c_total").add(3);
        r.gauge("tdb_g").set(9);
        r.histogram("tdb_h").observe(2);
        let json = r.render_json();
        assert!(json.contains("\"tdb_c_total\": 3"));
        assert!(json.contains("\"tdb_g\": 9"));
        assert!(json.contains("\"tdb_h\": {\"count\": 1, \"sum\": 2, \"buckets\": [[3, 1]]}"));
    }

    #[test]
    fn reset_keeps_handles_valid() {
        let r = Registry::new();
        let c = r.counter("tdb_r_total");
        c.add(5);
        r.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(r.snapshot().counter("tdb_r_total"), Some(1));
    }
}
