//! Streaming statistics used by the experiment harness, the scheduler and
//! the observability layer.
//!
//! [`Summary`] covers the paper's mean/min/max series (Figures 5-9);
//! [`Histogram`] adds the log-bucketed percentile view (p50/p95/p99/max)
//! that latency reporting and the `h2tap-obs` metrics registry build on —
//! constant memory, mergeable across threads, with a bounded relative
//! quantile error set by the bucket growth factor.

use serde::{Deserialize, Serialize};

/// Running summary of a series of `f64` observations.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct Summary {
    count: u64,
    sum: f64,
    sum_sq: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        self.sum_sq += x * x;
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest observation.
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Largest observation.
    pub fn max(&self) -> Option<f64> {
        self.max
    }

    /// Population standard deviation, or `None` when empty.
    #[cfg(test)]
    pub(crate) fn std_dev(&self) -> Option<f64> {
        self.mean().map(|m| {
            let var = (self.sum_sq / self.count as f64 - m * m).max(0.0);
            var.sqrt()
        })
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

/// Buckets of [`Histogram`]: bucket 0 holds everything at or below
/// [`HIST_MIN_VALUE`], the rest grow geometrically by [`HIST_GROWTH`].
const HIST_BUCKETS: usize = 512;

/// Smallest distinguishable observation (1 ns when observations are seconds).
const HIST_MIN_VALUE: f64 = 1e-9;

/// Per-bucket growth factor: 2^(1/8), i.e. eight buckets per doubling. The
/// geometric-midpoint representative then carries a worst-case relative
/// error of `sqrt(2^(1/8)) - 1` (~4.4%).
const HIST_GROWTH: f64 = 1.090_507_732_665_257_7;

/// Log-bucketed histogram of non-negative `f64` observations (latencies in
/// seconds, byte counts, ...).
///
/// Fixed memory (512 buckets, eight per doubling from 1 ns up), O(1)
/// `record`, exact count/sum/min/max, and quantiles within ~4.5% relative
/// error of an exact sorted oracle. Two histograms recorded on different
/// threads [`merge`](Histogram::merge) losslessly, which is what makes the
/// percentiles reported by `HtapStats::metrics` safe to aggregate.
/// Non-finite and negative observations are ignored rather than poisoning
/// every later quantile.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self { counts: vec![0; HIST_BUCKETS], count: 0, sum: 0.0, min: None, max: None }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(x: f64) -> usize {
        if x <= HIST_MIN_VALUE {
            return 0;
        }
        let idx = 1 + ((x / HIST_MIN_VALUE).ln() / HIST_GROWTH.ln()).floor() as usize;
        idx.min(HIST_BUCKETS - 1)
    }

    /// Lower bound of bucket `idx` (the upper bound of bucket `idx - 1`).
    fn bucket_floor(idx: usize) -> f64 {
        if idx == 0 {
            0.0
        } else {
            HIST_MIN_VALUE * HIST_GROWTH.powi(idx as i32 - 1)
        }
    }

    /// Adds one observation; non-finite or negative values are ignored.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() || x < 0.0 {
            return;
        }
        self.counts[Self::bucket_of(x)] += 1;
        self.count += 1;
        self.sum += x;
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest recorded observation (exact), or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Largest recorded observation (exact), or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.max
    }

    /// The `q`-quantile (`0.0..=1.0`), or `None` when empty. Within a bucket
    /// the geometric midpoint stands in for the true value, clamped to the
    /// exact observed `[min, max]`, so single-value series report exactly and
    /// everything else stays within the bucket's relative-error bound.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let lo = Self::bucket_floor(idx);
                let hi = Self::bucket_floor(idx + 1);
                let mid = if idx == 0 { HIST_MIN_VALUE } else { (lo * hi).sqrt() };
                let (min, max) = (self.min.unwrap_or(mid), self.max.unwrap_or(mid));
                return Some(mid.clamp(min, max));
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Merges another histogram into this one (lossless: bucket counts add,
    /// extrema combine), making per-thread recording safe to aggregate.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

/// Hit/miss counters of the snapshot-keyed plan-data cache (materialised
/// columns + zonemap stats, and join hash tables) shared by the execution
/// sites. Reported through the engine's `HtapStats` so workloads can see how
/// much of the shared OLAP data path they amortise across queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Column-materialisation requests answered from the cache.
    pub column_hits: u64,
    /// Column-materialisation requests that had to materialise.
    pub column_misses: u64,
    /// Join-hash-table requests answered from the cache.
    pub hash_hits: u64,
    /// Join-hash-table requests that had to build.
    pub hash_misses: u64,
    /// Entries dropped because a version derived from a newer snapshot
    /// replaced them (or the cache was reset by hand).
    pub invalidations: u64,
    /// Entries evicted by the byte-budget LRU policy (distinct from
    /// `invalidations`, which counts correctness-driven drops).
    pub evictions: u64,
    /// Shared-scan attaches: requests that found the same derivation already
    /// *in flight* on another thread and waited for its result instead of
    /// racing to build a duplicate. Zero under serial workloads; under a
    /// concurrent same-table mix this counts the de-duplicated work.
    pub shared_scan_attaches: u64,
    /// Column chunks a versioned rebuild shared with the version cached for
    /// an older snapshot instead of gathering them again.
    pub chunks_reused: u64,
    /// Column chunks gathered from pages (every chunk of a from-scratch
    /// materialisation, the written chunks of a versioned rebuild).
    pub chunks_rebuilt: u64,
    /// Join hash tables carried forward whole to a newer snapshot because
    /// their build table had not been written since.
    pub hashes_carried: u64,
    /// Bytes currently held by cached entries. **A point-in-time gauge**,
    /// sampled when the stats are read: it can go *down* between two samples
    /// (eviction, invalidation) while every other field in this struct is a
    /// monotonic counter. `HtapStats::metrics` exports it as a gauge.
    pub occupancy_bytes: u64,
    /// The configured byte budget, or `None` when the cache is unbounded.
    /// A configuration gauge, like `occupancy_bytes`.
    pub budget_bytes: Option<u64>,
}

impl PlanCacheStats {
    /// Total requests answered from the cache.
    pub fn hits(&self) -> u64 {
        self.column_hits + self.hash_hits
    }

    /// Total requests that had to recompute.
    pub fn misses(&self) -> u64 {
        self.column_misses + self.hash_misses
    }

    /// Fraction of requests answered from the cache, or `None` before any
    /// request was made.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits() + self.misses();
        (total > 0).then(|| self.hits() as f64 / total as f64)
    }
}

/// Computes throughput in operations per second from a count and a wall-clock
/// duration, returning 0 for zero durations.
pub fn throughput(ops: u64, elapsed: std::time::Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs <= 0.0 {
        0.0
    } else {
        ops as f64 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_has_no_stats() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert!(s.mean().is_none());
        assert!(s.min().is_none());
        assert!(s.max().is_none());
        assert!(s.std_dev().is_none());
    }

    #[test]
    fn mean_min_max() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 6.0] {
            s.record(x);
        }
        assert_eq!(s.mean(), Some(4.0));
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(6.0));
        assert_eq!(s.count(), 3);
        assert_eq!(s.sum(), 12.0);
    }

    #[test]
    fn std_dev_of_constant_series_is_zero() {
        let mut s = Summary::new();
        for _ in 0..10 {
            s.record(5.0);
        }
        assert!(s.std_dev().unwrap() < 1e-9);
    }

    #[test]
    fn merge_combines() {
        let mut a = Summary::new();
        a.record(1.0);
        a.record(3.0);
        let mut b = Summary::new();
        b.record(5.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.mean(), Some(3.0));
        assert_eq!(a.max(), Some(5.0));
        // merging into an empty summary keeps the other's extrema
        let mut empty = Summary::new();
        empty.merge(&a);
        assert_eq!(empty.min(), Some(1.0));
    }

    #[test]
    fn throughput_handles_zero_duration() {
        assert_eq!(throughput(100, std::time::Duration::ZERO), 0.0);
        let t = throughput(100, std::time::Duration::from_secs(2));
        assert!((t - 50.0).abs() < 1e-9);
    }

    /// Exact quantile of a sorted sample, matching the histogram's
    /// ceil-rank convention.
    fn oracle_quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    fn assert_quantiles_close(values: &[f64], tolerance: f64) {
        let mut h = Histogram::new();
        let mut sorted = values.to_vec();
        for &v in values {
            h.record(v);
        }
        sorted.sort_by(f64::total_cmp);
        for q in [0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0] {
            let exact = oracle_quantile(&sorted, q);
            let approx = h.quantile(q).unwrap();
            let rel = (approx - exact).abs() / exact.abs().max(1e-12);
            assert!(rel <= tolerance, "q={q}: histogram {approx} vs oracle {exact} (rel {rel:.4})");
        }
    }

    #[test]
    fn histogram_quantiles_track_a_uniform_oracle() {
        // Uniform over three decades of latency.
        let values: Vec<f64> = (1..=2000).map(|i| 1e-5 + i as f64 * (1e-2 - 1e-5) / 2000.0).collect();
        assert_quantiles_close(&values, 0.05);
    }

    #[test]
    fn histogram_quantiles_track_a_bimodal_oracle() {
        // Two tight modes three orders of magnitude apart (cache hit vs
        // cold derivation) — the shape percentile reporting exists for.
        let mut values = Vec::new();
        for i in 0..900 {
            values.push(2e-6 * (1.0 + (i % 10) as f64 * 0.01));
        }
        for i in 0..100 {
            values.push(3e-3 * (1.0 + (i % 10) as f64 * 0.01));
        }
        assert_quantiles_close(&values, 0.05);
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        // p50 sits in the fast mode, p95+ in the slow mode.
        assert!(h.p50().unwrap() < 1e-4);
        assert!(h.p95().unwrap() > 1e-3);
    }

    #[test]
    fn histogram_single_value_series_is_exact() {
        let mut h = Histogram::new();
        for _ in 0..57 {
            h.record(0.012_345);
        }
        // min==max clamping makes every quantile exact, not just close.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(0.012_345));
        }
        assert_eq!(h.max(), Some(0.012_345));
        assert_eq!(h.count(), 57);
    }

    #[test]
    fn histogram_empty_has_none_semantics() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.quantile(0.5).is_none());
        assert!(h.p50().is_none());
        assert!(h.p95().is_none());
        assert!(h.p99().is_none());
        assert!(h.min().is_none());
        assert!(h.max().is_none());
        assert!(h.mean().is_none());
    }

    #[test]
    fn histogram_ignores_non_finite_and_negative() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(-1.0);
        assert_eq!(h.count(), 0);
        h.record(0.5);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), Some(0.5));
    }

    #[test]
    fn histogram_merge_is_associative_and_lossless() {
        let make = |seed: u64, n: u64| {
            let mut h = Histogram::new();
            for i in 0..n {
                // Deterministic pseudo-random spread across decades.
                let x = ((seed * 2_654_435_761 + i * 40_503) % 100_000) as f64 * 1e-7 + 1e-6;
                h.record(x);
            }
            h
        };
        let (a, b, c) = (make(1, 400), make(2, 300), make(3, 500));

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);

        assert_eq!(left.counts, right.counts, "bucket counts must merge associatively");
        assert_eq!(left.count(), right.count());
        assert_eq!(left.min(), right.min());
        assert_eq!(left.max(), right.max());
        assert!((left.sum() - right.sum()).abs() < 1e-9);
        for q in [0.1, 0.5, 0.95, 0.99] {
            assert_eq!(left.quantile(q), right.quantile(q));
        }
        // Merging equals recording everything into one histogram.
        let mut all = make(1, 400);
        all.merge(&make(2, 300));
        all.merge(&make(3, 500));
        assert_eq!(all.counts, left.counts);
    }
}
