//! The named metrics view: counters, gauges and latency histograms.
//!
//! A [`MetricsSnapshot`] owns no live state. The engine's typed stats are
//! where every counter lives; `HtapStats::metrics` derives this name-keyed
//! view from them on demand. Counters are monotonic, gauges are
//! point-in-time samples, histograms are mergeable distributions.

use h2tap_common::Histogram;
use std::collections::BTreeMap;

/// A point-in-time name-to-value map. `BTreeMap`s keep iteration
/// deterministically ordered by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// The named monotonic counter, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The named gauge, if recorded.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, name-ordered.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All gauges, name-ordered.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms, name-ordered.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Whether nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Sets the named monotonic counter.
    pub fn set_counter(&mut self, name: impl Into<String>, value: u64) {
        self.counters.insert(name.into(), value);
    }

    /// Sets the named gauge to a point-in-time sample.
    pub fn set_gauge(&mut self, name: impl Into<String>, value: f64) {
        self.gauges.insert(name.into(), value);
    }

    /// Sets the named histogram.
    pub fn set_histogram(&mut self, name: impl Into<String>, histogram: Histogram) {
        self.histograms.insert(name.into(), histogram);
    }
}

/// The one shared percentile-line formatter: every latency report (bench
/// binary, dashboard example, JSON artifacts) renders p50/p95/p99/max the
/// same way, in milliseconds.
pub fn format_latency_secs(h: &Histogram) -> String {
    match (h.p50(), h.p95(), h.p99(), h.max()) {
        (Some(p50), Some(p95), Some(p99), Some(max)) => format!(
            "p50 {:.3} ms | p95 {:.3} ms | p99 {:.3} ms | max {:.3} ms ({} samples)",
            p50 * 1e3,
            p95 * 1e3,
            p99 * 1e3,
            max * 1e3,
            h.count()
        ),
        _ => "no samples".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let mut m = MetricsSnapshot::default();
        assert!(m.is_empty());
        m.set_counter("olap.queries.gpu", 2);
        m.set_counter("olap.queries.gpu", 5);
        m.set_counter("cache.hits", 11);
        m.set_gauge("cache.occupancy_bytes", 4096.0);
        let mut h = Histogram::new();
        for i in 1..=100 {
            h.record(i as f64 * 1e-3);
        }
        m.set_histogram("olap.latency.secs", h);
        assert_eq!(m.counter("olap.queries.gpu"), Some(5));
        assert_eq!(m.counter("cache.hits"), Some(11));
        assert_eq!(m.gauge("cache.occupancy_bytes"), Some(4096.0));
        let h = m.histogram("olap.latency.secs").unwrap();
        assert_eq!(h.count(), 100);
        let p50 = h.p50().unwrap();
        assert!((p50 - 0.050).abs() / 0.050 < 0.05, "p50 {p50}");
        assert!(m.counter("missing").is_none());
        assert!(m.histogram("missing").is_none());
        // Iteration is name-ordered.
        let names: Vec<&str> = m.counters().map(|(name, _)| name).collect();
        assert_eq!(names, ["cache.hits", "olap.queries.gpu"]);
    }

    #[test]
    fn latency_line_formats_percentiles_once_for_everyone() {
        let mut h = Histogram::new();
        assert_eq!(format_latency_secs(&h), "no samples");
        for _ in 0..10 {
            h.record(0.002);
        }
        let line = format_latency_secs(&h);
        assert!(line.contains("p50 2.000 ms"), "{line}");
        assert!(line.contains("p99 2.000 ms"), "{line}");
        assert!(line.contains("10 samples"), "{line}");
    }
}
