//! The CPU arm of a [`crate::Site`]: a zonemap-skipping vectorised scan
//! running on the CPU cores of the data-parallel archipelago
//! ([`crate::Site::cpu`], [`crate::Site::archipelago_default`]).
//!
//! This site started life as the Figure-4 "MonetDB-like" baseline and was
//! promoted so that placement decisions have a real CPU target: the engine
//! dispatches to it whenever [`h2tap_scheduler::place_olap_query_sites`]
//! picks the CPU, and the Figure-4 CPU bars are this same site under its two
//! [`CpuScanProfile`]s. Like the GPU arm, it computes **exact** answers over
//! the real data while charging time to the same simulated-hardware frame of
//! reference (the paper's dual-socket 24-core server by default).
//!
//! Execution model: accessed columns are materialised into fixed
//! [`h2tap_common::PLAN_CHUNK_ROWS`] chunks (column-at-a-time vectorised
//! execution) that the site's one answer path evaluates **on a scoped thread
//! pool sized by the site's core count**; per-chunk min/max zonemaps skip
//! chunks that cannot satisfy the probe predicates, and the analytical time
//! model treats the work as memory-bandwidth bound with per-tuple work spread
//! over those cores — so a site granted more cores is faster in both the
//! simulated and the wall-clock query times.
//! Chunk boundaries and the ascending merge order are part of the IR
//! contract ([`h2tap_common::plan`]), which is why the thread schedule cannot
//! perturb a single bit of the f64 results.

use crate::operators::PlanEvaluation;
use crate::site::Price;
use h2tap_common::{ExecBreakdown, OlapPlan, Result, SimDuration};
use h2tap_scheduler::{overlap_secs, CPU_CACHE_LINE_BYTES};
use h2tap_storage::SnapshotTable;

/// Per-tuple cost of one hash-table probe (hash, compare, branch) on top of
/// the base scan work, in nanoseconds.
const HASH_PROBE_NS: f64 = 24.0;

/// Per-tuple cost of one group-accumulator update (hash the key, load/store
/// the accumulators) in nanoseconds.
const GROUP_UPDATE_NS: f64 = 12.0;

/// How the engine executes a plan: per-tuple cost and whether zonemaps are
/// consulted before each chunk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuScanProfile {
    /// Aggregate per-tuple processing cost in nanoseconds (column-at-a-time
    /// execution materialises intermediates per operator, which is why this
    /// is far above a single fused-loop pass).
    pub per_tuple_ns: f64,
    /// Whether per-chunk min/max zonemaps ("secondary indexes") are consulted
    /// to skip chunks that cannot qualify.
    pub use_zonemaps: bool,
}

impl CpuScanProfile {
    /// Zonemap-skipping vectorised execution — the Caldera CPU site and the
    /// MonetDB-like Figure-4 baseline. Calibrated against the paper: MonetDB
    /// answers Q6 over SF-300 (1.8 B rows) in about 7 s on 24 cores, i.e.
    /// roughly 93 ns of aggregate per-tuple work.
    pub fn vectorized() -> Self {
        Self { per_tuple_ns: 93.0, use_zonemaps: true }
    }

    /// Plain parallel scan without skipping — the "DBMS-C"-like Figure-4
    /// baseline, 1.27x slower than MonetDB in the paper.
    pub fn materializing() -> Self {
        Self { per_tuple_ns: 118.0, use_zonemaps: false }
    }
}

/// The CPU socket configuration of the paper's evaluation server: two
/// 12-core Xeon E5-2650L v3 with about 2 x 34 GB/s of sustained memory
/// bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSpec {
    /// Cores used for the scan.
    pub cores: u32,
    /// Sustained aggregate memory bandwidth in GB/s.
    pub mem_bandwidth_gbps: f64,
}

impl Default for CpuSpec {
    fn default() -> Self {
        Self { cores: 24, mem_bandwidth_gbps: 68.0 }
    }
}

impl CpuSpec {
    /// Sustained per-core bandwidth, the figure the placement heuristic
    /// scales by the archipelago's current core count.
    pub fn per_core_bandwidth_gbps(&self) -> f64 {
        self.mem_bandwidth_gbps / f64::from(self.cores.max(1))
    }
}

/// The CPU arm of a site's charge: the site's cores under one execution
/// profile, priced by a closed-form time model. It registers nothing — the
/// CPU streams straight out of the shared-memory snapshot. The spec is fixed
/// at construction, so concurrent plans share it without a lock.
pub(crate) struct CpuCharge {
    profile: CpuScanProfile,
    spec: CpuSpec,
}

impl CpuCharge {
    pub(crate) fn new(spec: CpuSpec, profile: CpuScanProfile) -> Self {
        Self { profile, spec }
    }

    /// The cores the site runs on.
    pub(crate) fn cores(&self) -> u32 {
        self.spec.cores
    }

    /// Evaluates the plan through `answer` on a scoped thread pool **sized
    /// by the site's core count**, so wall-clock time scales with the cores
    /// and not only the simulated cost, skipping the chunks whose zonemap
    /// rules out the probe predicates when the profile says so, and prices
    /// the evaluation. Neither the parallel schedule nor the
    /// skipping can perturb the f64 aggregates: every chunk's partial is
    /// deterministic, a skipped chunk's would be empty, and partials merge in
    /// ascending chunk order regardless of which thread produced them.
    pub(crate) fn run(
        &self,
        probe_table: &SnapshotTable,
        build_table: Option<&SnapshotTable>,
        plan: &OlapPlan,
        answer: impl FnOnce(usize, bool) -> Result<PlanEvaluation>,
    ) -> Result<(PlanEvaluation, Price)> {
        let eval = answer(self.spec.cores as usize, self.profile.use_zonemaps)?;
        let (totals, rows_scanned, rows) = (eval.totals, eval.rows_scanned, probe_table.row_count());

        // Analytical time model: streamed column bytes (zonemap skipping
        // reduces them — the columns of skipped chunks are still summarised
        // by the index, charged at 1% of their size) plus cache-line-granular
        // random traffic for hash probes and group updates, overlapped with
        // per-tuple work spread across the cores.
        let skipped_bytes = plan.probe_scan_bytes(&probe_table.schema, rows - rows_scanned.min(rows));
        let mut bytes_moved = plan.probe_scan_bytes(&probe_table.schema, rows_scanned) + skipped_bytes / 100;
        let mut tuple_ns = rows_scanned as f64 * self.profile.per_tuple_ns;
        if let (Some(_), Some(build)) = (&plan.join, build_table) {
            // The hash build considers every build row, before its predicates.
            bytes_moved += plan.build_scan_bytes(&build.schema, build.row_count());
            tuple_ns += build.row_count() as f64 * self.profile.per_tuple_ns;
            bytes_moved += totals.selected * CPU_CACHE_LINE_BYTES;
            tuple_ns += totals.selected as f64 * HASH_PROBE_NS;
        }
        if plan.group_by.is_some() {
            bytes_moved += totals.joined * CPU_CACHE_LINE_BYTES;
            tuple_ns += totals.joined as f64 * GROUP_UPDATE_NS;
        }
        let bandwidth_time = bytes_moved as f64 / (self.spec.mem_bandwidth_gbps * 1e9);
        let cpu_time = tuple_ns * 1e-9 / f64::from(self.spec.cores.max(1));
        let price = Price {
            time: SimDuration::from_secs_f64(overlap_secs(bandwidth_time, cpu_time)),
            breakdown: ExecBreakdown::new(bandwidth_time, cpu_time, 0.0),
            kernels: Vec::new(),
            interconnect_bytes: 0,
        };
        Ok((eval, price))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{OlapOutcome, PlanOutcome};
    use crate::site::Site;
    use h2tap_common::{AggExpr, AttrType, PartitionId, Predicate, ScanAggQuery, Schema, Value};
    use h2tap_storage::{Database, Layout};

    /// A CPU site with `profile` on the paper's server spec.
    fn site(profile: CpuScanProfile) -> Site {
        Site::cpu(CpuSpec::default(), profile)
    }

    /// Runs `query` as the scan-shaped plan it is.
    fn scan(site: &Site, table: &SnapshotTable, query: &ScanAggQuery) -> OlapOutcome {
        site.execute(table, None, &OlapPlan::scan(query)).map(PlanOutcome::into_scan_outcome).unwrap()
    }

    /// Builds a 2-column table: col0 = 0..n (sorted), col1 = col0 * 2.
    fn table(n: i64) -> SnapshotTable {
        let db = Database::new(1);
        let schema = Schema::homogeneous("c", 2, AttrType::Int64);
        let t = db.create_table("t", schema, Layout::Dsm).unwrap();
        for i in 0..n {
            db.insert(PartitionId(0), t, &[Value::Int64(i), Value::Int64(i * 2)]).unwrap();
        }
        let snap = db.snapshot();
        snap.table(t).unwrap().clone()
    }

    #[test]
    fn both_profiles_compute_the_same_exact_answer() {
        let t = table(10_000);
        let query =
            ScanAggQuery { predicates: vec![Predicate::between(0, 0.0, 999.0)], aggregate: AggExpr::SumProduct(0, 1) };
        let vectorized = scan(&site(CpuScanProfile::vectorized()), &t, &query);
        let materializing = scan(&site(CpuScanProfile::materializing()), &t, &query);
        let expected: f64 = (0..1000).map(|i| (i * i * 2) as f64).sum();
        assert_eq!(vectorized.value, expected);
        assert_eq!(materializing.value, expected);
        assert_eq!(vectorized.qualifying_rows, 1000);
    }

    #[test]
    fn zonemaps_skip_chunks_on_clustered_predicates() {
        // col0 is inserted in sorted order, so zonemaps can skip chunks.
        let t = table(300_000);
        let query = ScanAggQuery { predicates: vec![Predicate::between(0, 0.0, 9_999.0)], aggregate: AggExpr::Count };
        let skipping = scan(&site(CpuScanProfile::vectorized()), &t, &query);
        let full = scan(&site(CpuScanProfile::materializing()), &t, &query);
        assert_eq!(skipping.value, 10_000.0);
        assert!(skipping.chunks_skipped > 0, "zonemaps should skip chunks on sorted data");
        assert_eq!(full.chunks_skipped, 0);
        assert!(skipping.rows_scanned < full.rows_scanned);
        assert!(skipping.time < full.time);
    }

    #[test]
    fn count_without_predicates_needs_no_columns() {
        let t = table(1_234);
        let r = scan(&site(CpuScanProfile::vectorized()), &t, &ScanAggQuery::aggregate_only(AggExpr::Count));
        assert_eq!(r.value, 1_234.0);
        assert_eq!(r.qualifying_rows, 1_234);
    }

    #[test]
    fn sim_time_scales_with_data_size() {
        let small = table(10_000);
        let big = table(100_000);
        let query = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![0, 1]));
        let engine = site(CpuScanProfile::materializing());
        let ts = scan(&engine, &small, &query).time;
        let tb = scan(&engine, &big, &query).time;
        let ratio = tb.as_secs_f64() / ts.as_secs_f64();
        assert!((8.0..12.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn more_cores_speed_up_the_cpu_site() {
        let t = table(500_000);
        let query = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![0, 1]));
        let slow = scan(&Site::archipelago_default(2), &t, &query).time;
        let fast = scan(&Site::archipelago_default(16), &t, &query).time;
        assert!(fast < slow, "16 cores {fast} should beat 2 cores {slow}");
    }

    /// Dimension table: key = i, size = i % 7, class = i % 4.
    fn dim_table(keys: i64) -> SnapshotTable {
        let db = Database::new(1);
        let schema = Schema::new(vec![
            h2tap_common::Attribute::new("key", AttrType::Int64),
            h2tap_common::Attribute::new("size", AttrType::Int32),
            h2tap_common::Attribute::new("class", AttrType::Int32),
        ])
        .unwrap();
        let t = db.create_table("dim", schema, Layout::Dsm).unwrap();
        for i in 0..keys {
            db.insert(
                PartitionId(0),
                t,
                &[Value::Int64(i), Value::Int32((i % 7) as i32), Value::Int32((i % 4) as i32)],
            )
            .unwrap();
        }
        let snap = db.snapshot();
        snap.table(t).unwrap().clone()
    }

    /// Fact table: col0 = i, col1 = i % 50 (the foreign key into the
    /// dimension table).
    fn fact_table(n: i64) -> SnapshotTable {
        let db = Database::new(1);
        let t = db.create_table("fact", Schema::homogeneous("c", 2, AttrType::Int64), Layout::Dsm).unwrap();
        for i in 0..n {
            db.insert(PartitionId(0), t, &[Value::Int64(i), Value::Int64(i % 50)]).unwrap();
        }
        let snap = db.snapshot();
        snap.table(t).unwrap().clone()
    }

    fn class_plan() -> h2tap_common::OlapPlan {
        h2tap_common::OlapPlan {
            predicates: vec![],
            join: Some(h2tap_common::JoinSpec {
                probe_column: 1,
                build_key: 0,
                build_predicates: vec![Predicate::between(1, 0.0, 3.0)],
            }),
            group_by: Some(h2tap_common::PlanColumn::Build(2)),
            aggregates: vec![AggExpr::SumColumns(vec![0]), AggExpr::Count],
        }
    }

    #[test]
    fn plan_pipeline_is_byte_identical_across_thread_counts() {
        let fact = fact_table(300_000); // several PLAN_CHUNK_ROWS chunks
        let dim = dim_table(50);
        let plan = class_plan();
        let sequential = Site::archipelago_default(1).execute(&fact, Some(&dim), &plan).unwrap();
        let parallel = Site::archipelago_default(8).execute(&fact, Some(&dim), &plan).unwrap();
        assert_eq!(sequential.threads_used, 1);
        assert!(parallel.threads_used > 1, "8 cores over several chunks must use the pool");
        // The IR's chunk-order contract: the schedule cannot change a bit.
        assert_eq!(sequential.groups, parallel.groups);
        assert_eq!(sequential.qualifying_rows, parallel.qualifying_rows);
    }

    #[test]
    fn plan_pipeline_matches_a_scalar_reference() {
        let fact = fact_table(10_000);
        let dim = dim_table(50);
        let result = Site::archipelago_default(4).execute(&fact, Some(&dim), &class_plan()).unwrap();
        // Reference: keys with key % 7 <= 3 survive the build filter.
        let mut expect: std::collections::BTreeMap<u64, (f64, u64)> = std::collections::BTreeMap::new();
        for i in 0..10_000i64 {
            let fk = i % 50;
            if fk % 7 <= 3 {
                let class = (fk % 4) as u64;
                let e = expect.entry(class).or_default();
                e.0 += i as f64;
                e.1 += 1;
            }
        }
        assert_eq!(result.groups.len(), expect.len());
        for g in &result.groups {
            let (sum, rows) = expect[&g.key];
            assert_eq!(g.rows, rows);
            assert!((g.values[0] - sum).abs() < 1e-9, "class {}: {} vs {sum}", g.key, g.values[0]);
            assert_eq!(g.values[1], rows as f64);
        }
    }

    #[test]
    fn join_and_group_charge_more_than_the_plain_scan_plan() {
        let fact = fact_table(200_000);
        let dim = dim_table(50);
        let engine = Site::archipelago_default(8);
        let join = engine.execute(&fact, Some(&dim), &class_plan()).unwrap();
        let scan_plan = h2tap_common::OlapPlan {
            predicates: vec![],
            join: None,
            group_by: None,
            aggregates: vec![AggExpr::SumColumns(vec![0]), AggExpr::Count],
        };
        let scan = engine.execute(&fact, None, &scan_plan).unwrap();
        assert!(join.time > scan.time, "join {} scan {}", join.time, scan.time);
    }

    #[test]
    fn join_plans_inherit_zonemap_skipping_without_changing_a_bit() {
        // col0 is inserted in sorted order, so a predicate on it is
        // clustered: the zonemaps rule out every chunk past the first.
        let fact = fact_table(300_000);
        let dim = dim_table(50);
        let plan = h2tap_common::OlapPlan { predicates: vec![Predicate::between(0, 0.0, 9_999.0)], ..class_plan() };
        let skipping = site(CpuScanProfile::vectorized()).execute(&fact, Some(&dim), &plan).unwrap();
        let full = site(CpuScanProfile::materializing()).execute(&fact, Some(&dim), &plan).unwrap();
        assert!(skipping.chunks_skipped > 0, "clustered predicate must skip chunks of a join plan too");
        assert_eq!(full.chunks_skipped, 0);
        assert_eq!(full.rows_scanned, 300_000);
        assert!(skipping.rows_scanned < full.rows_scanned);
        // A skipped chunk contributes an empty partial: identical groups.
        assert_eq!(skipping.groups, full.groups);
        assert_eq!(skipping.qualifying_rows, full.qualifying_rows);
        assert!(!skipping.groups.is_empty());
        assert!(skipping.time < full.time, "skipped chunks are charged at 1% of their bytes");
    }

    #[test]
    fn plan_wall_clock_benefits_from_more_threads() {
        // Not a timing assertion (CI noise): just check the pool is sized by
        // the site's core count.
        let fact = fact_table(400_000);
        let dim = dim_table(50);
        let plan = class_plan();
        let two = Site::archipelago_default(2).execute(&fact, Some(&dim), &plan).unwrap();
        let sixteen = Site::archipelago_default(16).execute(&fact, Some(&dim), &plan).unwrap();
        assert_eq!(two.threads_used, 2);
        assert!(sixteen.threads_used > two.threads_used);
        assert_eq!(two.groups, sixteen.groups);
        assert!(sixteen.time < two.time, "more cores must lower the simulated time");
    }
}
