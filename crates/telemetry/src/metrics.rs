//! The process-wide metrics registry: counters, gauges, and histograms with
//! fixed log-scale buckets, rendered in Prometheus text exposition format.
//!
//! Metrics are registered once by `(family name, label set)` and the handle
//! is leaked, so hot paths hold a `&'static Counter` and pay exactly one
//! relaxed `fetch_add` per event — the same cost as the free-standing
//! atomics the workspace already used.  Crates that keep their own statics
//! (the numeric tower and the FM engine, whose bump macros predate this
//! registry) register those atomics *by reference* instead, so their hot
//! paths do not change at all and the registry still renders them.
//!
//! Registration is idempotent: asking for an existing `(name, labels)` pair
//! returns the existing handle.  Registering the same family under two
//! different kinds is a programmer error and panics.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A monotonically increasing counter (relaxed atomics throughout).
///
/// [`Counter::store`] exists for two sanctioned non-monotonic uses: the
/// bench harness resetting between measurement windows, and scrape-time
/// synchronization from instance-owned counters (e.g. a `TieredStore`'s
/// internal atomics copied into the registry before rendering).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Overwrites the value (reset / scrape-time sync only).
    #[inline]
    pub fn store(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }
}

/// A value that can go up or down (u64; the workspace has no signed or
/// floating gauges).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// The fixed log-scale histogram bounds, in milliseconds: powers of two
/// from 0.25 ms to ~65.5 s (19 buckets plus the implicit `+Inf`).
pub const DEFAULT_BOUNDS_MS: [f64; 19] = [
    0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0,
    8192.0, 16384.0, 32768.0, 65536.0,
];

/// A histogram of millisecond durations over [`DEFAULT_BOUNDS_MS`].
///
/// Buckets are stored *non*-cumulative (`buckets[i]` counts observations in
/// `(bounds[i-1], bounds[i]]`, with one extra overflow bucket), so the sum
/// of all bucket counts always equals the observation count; the Prometheus
/// renderer accumulates them into the conventional `le` form.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; DEFAULT_BOUNDS_MS.len() + 1],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation of `ms` milliseconds (negative values clamp
    /// to zero).
    pub fn observe_ms(&self, ms: f64) {
        let ms = if ms.is_finite() { ms.max(0.0) } else { 0.0 };
        let idx = DEFAULT_BOUNDS_MS
            .iter()
            .position(|&bound| ms <= bound)
            .unwrap_or(DEFAULT_BOUNDS_MS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros
            .fetch_add((ms * 1000.0).round() as u64, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values, in milliseconds.
    pub fn sum_ms(&self) -> f64 {
        self.sum_micros.load(Ordering::Relaxed) as f64 / 1000.0
    }

    /// Per-bucket (non-cumulative) counts, overflow bucket last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// What a registered series points at: an owned (leaked) metric, or a
/// borrowed static atomic owned by another crate's stats module.
#[derive(Clone, Copy)]
enum Handle {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
    BorrowedCounter(&'static AtomicU64),
    BorrowedGauge(&'static AtomicU64),
}

impl Handle {
    fn kind(&self) -> &'static str {
        match self {
            Handle::Counter(_) | Handle::BorrowedCounter(_) => "counter",
            Handle::Gauge(_) | Handle::BorrowedGauge(_) => "gauge",
            Handle::Histogram(_) => "histogram",
        }
    }
}

/// One metric family: a help string, a kind, and one series per label set.
struct Family {
    help: &'static str,
    kind: &'static str,
    /// Keyed by the rendered label block (`""` for an unlabelled series,
    /// `endpoint="/v1/analyze",code="2xx"` otherwise).
    series: BTreeMap<String, Handle>,
}

/// The process-wide registry; obtain it with [`registry`].
#[derive(Default)]
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<&'static str, Family>>,
}

/// The one global registry.
pub fn registry() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::default)
}

/// Renders a label slice into the canonical series key; values are escaped
/// per the exposition format (backslash, double quote, newline).
fn label_key(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out
}

impl MetricsRegistry {
    /// The one registration primitive: finds or creates the family, checks
    /// kind agreement, and finds or creates the series under its label key.
    /// Owned metrics are allocated once and leaked — a bounded leak, one
    /// per distinct `(family, labels)` pair over the process lifetime.
    fn series(
        &self,
        name: &'static str,
        help: &'static str,
        kind: &'static str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        let mut families = self.families.lock().expect("metrics registry lock");
        let family = families.entry(name).or_insert_with(|| Family {
            help,
            kind,
            series: BTreeMap::new(),
        });
        assert_eq!(
            family.kind, kind,
            "metric family {name} already registered as a {}",
            family.kind
        );
        let handle = *family.series.entry(label_key(labels)).or_insert_with(make);
        assert_eq!(
            handle.kind(),
            kind,
            "metric series {name} already registered as a {}",
            handle.kind()
        );
        handle
    }

    /// An unlabelled counter.
    pub fn counter(&self, name: &'static str, help: &'static str) -> &'static Counter {
        self.counter_with(name, help, &[])
    }

    /// A counter series under `labels`.
    pub fn counter_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> &'static Counter {
        match self.series(name, help, "counter", labels, || {
            Handle::Counter(Box::leak(Box::default()))
        }) {
            Handle::Counter(c) => c,
            _ => panic!("metric {name} is registered as a borrowed counter"),
        }
    }

    /// An unlabelled gauge.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> &'static Gauge {
        self.gauge_with(name, help, &[])
    }

    /// A gauge series under `labels`.
    pub fn gauge_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> &'static Gauge {
        match self.series(name, help, "gauge", labels, || {
            Handle::Gauge(Box::leak(Box::default()))
        }) {
            Handle::Gauge(g) => g,
            _ => panic!("metric {name} is registered as a borrowed gauge"),
        }
    }

    /// An unlabelled histogram over [`DEFAULT_BOUNDS_MS`].
    pub fn histogram(&self, name: &'static str, help: &'static str) -> &'static Histogram {
        self.histogram_with(name, help, &[])
    }

    /// A histogram series under `labels`.
    pub fn histogram_with(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> &'static Histogram {
        match self.series(name, help, "histogram", labels, || {
            Handle::Histogram(Box::leak(Box::default()))
        }) {
            Handle::Histogram(h) => h,
            _ => unreachable!("histogram families hold only histogram handles"),
        }
    }

    /// Registers a counter backed by a static atomic another crate owns and
    /// bumps directly (the numeric-tower and FM stats modules): the hot
    /// path keeps its existing `fetch_add` on the original static, and the
    /// registry reads the same cell at render time.
    pub fn register_counter_static(
        &self,
        name: &'static str,
        help: &'static str,
        cell: &'static AtomicU64,
    ) {
        self.series(name, help, "counter", &[], || Handle::BorrowedCounter(cell));
    }

    /// Registers a gauge backed by a static atomic another crate owns
    /// (e.g. a high-water mark maintained with `fetch_max`).
    pub fn register_gauge_static(
        &self,
        name: &'static str,
        help: &'static str,
        cell: &'static AtomicU64,
    ) {
        self.series(name, help, "gauge", &[], || Handle::BorrowedGauge(cell));
    }

    /// Renders every registered family in Prometheus text exposition
    /// format (`text/plain; version=0.0.4`): families sorted by name, one
    /// `# HELP` and `# TYPE` header each, series sorted by label key.
    pub fn render_prometheus(&self) -> String {
        let families = self.families.lock().expect("metrics registry lock");
        let mut out = String::new();
        for (name, family) in families.iter() {
            out.push_str("# HELP ");
            out.push_str(name);
            out.push(' ');
            for c in family.help.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(family.kind);
            out.push('\n');
            for (labels, handle) in &family.series {
                match handle {
                    Handle::Counter(c) => render_scalar(&mut out, name, labels, c.get()),
                    Handle::Gauge(g) => render_scalar(&mut out, name, labels, g.get()),
                    Handle::BorrowedCounter(cell) | Handle::BorrowedGauge(cell) => {
                        render_scalar(&mut out, name, labels, cell.load(Ordering::Relaxed));
                    }
                    Handle::Histogram(h) => render_histogram(&mut out, name, labels, h),
                }
            }
        }
        out
    }
}

/// One `name{labels} value` line.
fn render_scalar(out: &mut String, name: &str, labels: &str, value: u64) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        out.push_str(labels);
        out.push('}');
    }
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

/// Formats a bucket bound the way Prometheus conventionally does: integral
/// bounds without a trailing `.0`.
fn fmt_bound(bound: f64) -> String {
    if bound.fract() == 0.0 {
        format!("{}", bound as u64)
    } else {
        format!("{bound}")
    }
}

/// The cumulative `_bucket`/`_sum`/`_count` block of one histogram series.
fn render_histogram(out: &mut String, name: &str, labels: &str, h: &Histogram) {
    let counts = h.bucket_counts();
    let mut cumulative = 0u64;
    let sep = if labels.is_empty() { "" } else { "," };
    for (i, bound) in DEFAULT_BOUNDS_MS.iter().enumerate() {
        cumulative += counts[i];
        out.push_str(&format!(
            "{name}_bucket{{{labels}{sep}le=\"{}\"}} {cumulative}\n",
            fmt_bound(*bound)
        ));
    }
    cumulative += counts[DEFAULT_BOUNDS_MS.len()];
    out.push_str(&format!(
        "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cumulative}\n"
    ));
    let braces = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    out.push_str(&format!("{name}_sum{braces} {}\n", h.sum_ms()));
    out.push_str(&format!("{name}_count{braces} {}\n", h.count()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let r = registry();
        let a = r.counter("test_idempotent_total", "help");
        let b = r.counter("test_idempotent_total", "help");
        assert!(std::ptr::eq(a, b));
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn labelled_series_are_distinct() {
        let r = registry();
        let a = r.counter_with("test_labelled_total", "help", &[("k", "a")]);
        let b = r.counter_with("test_labelled_total", "help", &[("k", "b")]);
        assert!(!std::ptr::eq(a, b));
        a.add(2);
        b.add(5);
        let text = r.render_prometheus();
        assert!(text.contains("test_labelled_total{k=\"a\"} 2"));
        assert!(text.contains("test_labelled_total{k=\"b\"} 5"));
        assert!(text.contains("# TYPE test_labelled_total counter"));
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let r = registry();
        let h = r.histogram("test_histogram_ms", "help");
        h.observe_ms(0.1); // le 0.25
        h.observe_ms(3.0); // le 4
        h.observe_ms(1e9); // +Inf overflow
        assert_eq!(h.count(), 3);
        let text = r.render_prometheus();
        assert!(text.contains("test_histogram_ms_bucket{le=\"0.25\"} 1"));
        assert!(text.contains("test_histogram_ms_bucket{le=\"4\"} 2"));
        assert!(text.contains("test_histogram_ms_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("test_histogram_ms_count 3"));
    }

    #[test]
    fn borrowed_statics_render_live_values() {
        static CELL: AtomicU64 = AtomicU64::new(0);
        let r = registry();
        r.register_counter_static("test_borrowed_total", "help", &CELL);
        CELL.store(7, Ordering::Relaxed);
        assert!(r.render_prometheus().contains("test_borrowed_total 7"));
    }
}
