//! `htapbench compare A.json B.json`: two reports side by side.
//!
//! For every workload and end-to-end metric it prints both values, the
//! relative change from A to B and the metric's bound. B is worse than A
//! when a metric worsened by more than its bound or when a larger share of
//! operations failed.

use crate::json::Json;
use crate::metrics::{self, Better};

/// One compared (workload, metric) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// A's value.
    pub a: f64,
    /// B's value.
    pub b: f64,
    /// How much worse B is than A, as a share of A (negative = better).
    pub worsened: f64,
    /// The metric's bound.
    pub bound: f64,
}

impl Row {
    /// Whether B worsened beyond the bound.
    pub fn regressed(&self) -> bool {
        self.worsened > self.bound
    }
}

/// The outcome of a comparison.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Comparison {
    /// Every pair both reports hold.
    pub rows: Vec<Row>,
    /// Workloads whose failed share rose from A to B, with both shares.
    pub failed_share_rose: Vec<(String, f64, f64)>,
}

impl Comparison {
    /// Whether B is acceptable against A.
    pub fn ok(&self) -> bool {
        self.failed_share_rose.is_empty() && !self.rows.iter().any(Row::regressed)
    }
}

fn failed_share(workload: &Json) -> Option<f64> {
    let attempted = workload.get("ops_attempted")?.as_f64()?;
    let failed = workload.get("ops_failed")?.as_f64()?;
    Some(if attempted > 0.0 { failed / attempted } else { 0.0 })
}

/// Compares two `htapbench.json` documents.
pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    let workloads_a = a.get("workloads").ok_or("A has no workloads")?;
    let workloads_b = b.get("workloads").ok_or("B has no workloads")?;
    let mut out = Comparison::default();
    for (workload, in_a) in workloads_a.entries() {
        let Some(in_b) = workloads_b.get(workload) else { continue };
        if let (Some(share_a), Some(share_b)) = (failed_share(in_a), failed_share(in_b)) {
            if share_b > share_a {
                out.failed_share_rose.push((workload.clone(), share_a, share_b));
            }
        }
        for def in metrics::END_TO_END {
            let value = |doc: &Json| doc.get("end_to_end")?.get(def.name)?.get("value")?.as_f64();
            let (Some(a), Some(b)) = (value(in_a), value(in_b)) else { continue };
            let worsened = match def.better {
                _ if a == 0.0 => 0.0,
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            out.rows.push(Row { workload: workload.clone(), metric: def.name, a, b, worsened, bound: def.bound });
        }
    }
    if out.rows.is_empty() {
        return Err("the two reports share no (workload, metric) pair".to_string());
    }
    Ok(out)
}

/// Prints the comparison as a table.
pub fn print(comparison: &Comparison) {
    println!("{:<12} {:<22} {:>14} {:>14} {:>9} {:>6}", "workload", "metric", "A", "B", "worse by", "bound");
    for row in &comparison.rows {
        println!(
            "{:<12} {:<22} {:>14.4} {:>14.4} {:>+8.1}% {:>5.0}%{}",
            row.workload,
            row.metric,
            row.a,
            row.b,
            row.worsened * 100.0,
            row.bound * 100.0,
            if row.regressed() { "  REGRESSED" } else { "" }
        );
    }
    for (workload, a, b) in &comparison.failed_share_rose {
        println!("{workload}: failed share rose from {a:.6} to {b:.6}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(qps: f64, scan_ms: f64, failed: u64) -> Json {
        let metric = |value: f64| Json::obj().with("value", value);
        Json::obj().with(
            "workloads",
            Json::obj().with(
                "olap-cached",
                Json::obj().with("ops_attempted", 1000u64).with("ops_failed", failed).with(
                    "end_to_end",
                    Json::obj().with("olap_qps", metric(qps)).with("olap_scan_p50_ms", metric(scan_ms)),
                ),
            ),
        )
    }

    #[test]
    fn direction_and_bound_decide_a_regression() {
        let bound = metrics::find("olap_qps").unwrap().bound;
        assert_eq!(bound, metrics::find("olap_scan_p50_ms").unwrap().bound);
        let (inside, outside) = (bound / 2.0, bound * 1.2);
        // Throughput down, latency up, both by half the bound.
        let within = compare(&doc(100.0, 10.0, 0), &doc(100.0 * (1.0 - inside), 10.0 * (1.0 + inside), 0)).unwrap();
        assert!(within.ok());
        assert_eq!(within.rows.len(), 2);
        assert!((within.rows[0].worsened - inside).abs() < 1e-12);
        // An improvement is never a regression, however large.
        assert!(compare(&doc(100.0, 10.0, 0), &doc(300.0, 2.0, 0)).unwrap().ok());
        // Throughput down beyond the bound.
        let slower = compare(&doc(100.0, 10.0, 0), &doc(100.0 * (1.0 - outside), 10.0, 0)).unwrap();
        assert!(!slower.ok());
        assert!(slower.rows[0].regressed() && !slower.rows[1].regressed());
        // Latency up beyond the bound.
        assert!(!compare(&doc(100.0, 10.0, 0), &doc(100.0, 10.0 * (1.0 + outside), 0)).unwrap().ok());
    }

    #[test]
    fn a_rising_failed_share_fails_the_comparison() {
        let worse = compare(&doc(100.0, 10.0, 0), &doc(100.0, 10.0, 3)).unwrap();
        assert!(!worse.ok());
        assert_eq!(worse.failed_share_rose, vec![("olap-cached".to_string(), 0.0, 0.003)]);
        assert!(compare(&doc(100.0, 10.0, 3), &doc(100.0, 10.0, 3)).unwrap().ok());
    }

    #[test]
    fn unrelated_documents_are_an_error() {
        assert!(compare(&Json::obj(), &doc(1.0, 1.0, 0)).is_err());
        assert!(compare(&Json::obj().with("workloads", Json::obj()), &doc(1.0, 1.0, 0)).is_err());
    }
}
