//! The CPU execution site: a zonemap-skipping vectorised scan engine running
//! on the CPU cores of the data-parallel archipelago.
//!
//! This engine started life as the Figure-4 "MonetDB-like" baseline and was
//! promoted here so that placement decisions have a real CPU target: the
//! engine dispatches to it through [`crate::ExecutionSite`] whenever
//! [`h2tap_scheduler::place_olap_query_sites`] picks the CPU, and the
//! Figure-4 CPU bars are this same engine under its two
//! [`CpuScanProfile`]s. Like the GPU engine, it computes **exact** answers
//! over the real data while charging time to the same simulated-hardware
//! frame of reference (the paper's dual-socket 24-core server by default).
//!
//! Execution model: accessed columns are materialised into fixed
//! [`h2tap_common::PLAN_CHUNK_ROWS`] chunks (column-at-a-time vectorised
//! execution) that the one plan pipeline evaluates **on a scoped thread pool
//! sized by the archipelago's current core count**; per-chunk min/max
//! zonemaps skip chunks that cannot satisfy the probe predicates, and the
//! analytical time model treats the work as memory-bandwidth bound with
//! per-tuple work spread over the cores the archipelago currently owns — so
//! core migration changes both the simulated and the wall-clock query times.
//! Chunk boundaries and the ascending merge order are part of the IR
//! contract ([`h2tap_common::plan`]), which is why the thread schedule cannot
//! perturb a single bit of the f64 results.

use crate::cache::PlanDataCache;
use crate::engine::{PlanOutcome, RegisteredTable};
use crate::operators;
use crate::site::{emit_execution_spans, ExecutionSite};
use h2tap_common::{ExecBreakdown, GroupRow, H2Error, OlapPlan, Result, ScanAggQuery, SimDuration};
use h2tap_obs::Tracer;
use h2tap_scheduler::{overlap_secs, OlapTarget, SiteCapability, CPU_CACHE_LINE_BYTES};
use h2tap_storage::SnapshotTable;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

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

/// [`CpuPlanResult`] of a scan-shaped plan, with the single global group
/// flattened to a scalar — what [`CpuOlapEngine::execute_scan`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuOlapResult {
    /// The aggregate value.
    pub value: f64,
    /// Number of qualifying records.
    pub qualifying_rows: u64,
    /// Records actually scanned (after zonemap skipping).
    pub rows_scanned: u64,
    /// Chunks skipped thanks to zonemaps.
    pub chunks_skipped: u64,
    /// Worker threads the chunked scan actually used.
    pub threads_used: usize,
    /// Modelled execution time on the configured server spec.
    pub sim_time: SimDuration,
    /// How the modelled time splits into the cost model's terms.
    pub breakdown: ExecBreakdown,
    /// Wall-clock time of the real computation in this process.
    pub wall_time: std::time::Duration,
}

/// Result of running a relational plan on the CPU engine, with pipeline
/// detail the compact [`PlanOutcome`] does not carry.
#[derive(Debug, Clone)]
pub struct CpuPlanResult {
    /// Result groups in ascending raw-key order (byte-identical to the GPU
    /// site's for the same snapshot).
    pub groups: Vec<GroupRow>,
    /// Rows that reached the aggregation (post filter and join).
    pub qualifying_rows: u64,
    /// Probe rows actually scanned (after zonemap skipping).
    pub rows_scanned: u64,
    /// Probe chunks skipped thanks to zonemaps.
    pub chunks_skipped: u64,
    /// Worker threads the chunk pipeline actually used.
    pub threads_used: usize,
    /// Modelled execution time on the configured server spec.
    pub sim_time: SimDuration,
    /// How the modelled time splits into the cost model's terms.
    pub breakdown: ExecBreakdown,
    /// Wall-clock time of the real computation in this process.
    pub wall_time: std::time::Duration,
}

/// A CPU columnar scan engine: vectorised chunk-at-a-time execution with
/// optional zonemap skipping, usable directly or as an [`ExecutionSite`].
///
/// Concurrent: the mutable pieces — the migratable core count and the vended
/// registration handles — sit behind their own short-lived locks, and the
/// scan/pipeline hot paths only *copy the spec out* before computing, so
/// simultaneous `execute` calls from many client threads never serialise on
/// the site.
#[derive(Debug)]
pub struct CpuOlapEngine {
    profile: CpuScanProfile,
    /// Current hardware spec; mutated by core migration while queries run.
    spec: Mutex<CpuSpec>,
    /// Per-core bandwidth fixed at construction so [`CpuOlapEngine::set_cores`]
    /// scales aggregate bandwidth with the core count.
    per_core_bandwidth_gbps: f64,
    /// Handles this site has vended for the current snapshot.
    registered: Mutex<HashSet<usize>>,
    next_tag: AtomicUsize,
    /// Snapshot-keyed plan-data cache (the engine's shared one after
    /// [`CpuOlapEngine::with_shared`], private otherwise).
    cache: PlanDataCache,
    /// Trace handle; disabled (no-op) unless the engine shared one.
    tracer: Tracer,
}

impl CpuOlapEngine {
    /// Creates an engine with the given profile on the default server spec.
    pub fn new(profile: CpuScanProfile) -> Self {
        Self::with_spec_and_profile(CpuSpec::default(), profile)
    }

    /// Creates the data-parallel archipelago's CPU site: vectorised profile,
    /// paper per-core bandwidth, and `cores` CPU cores (the archipelago's
    /// current allotment; updated on migration via [`ExecutionSite::set_cores`]).
    pub fn archipelago_default(cores: u32) -> Self {
        let paper = CpuSpec::default();
        Self::with_spec_and_profile(
            CpuSpec {
                cores: cores.max(1),
                mem_bandwidth_gbps: paper.per_core_bandwidth_gbps() * f64::from(cores.max(1)),
            },
            CpuScanProfile::vectorized(),
        )
    }

    /// Creates an engine with an explicit hardware spec (used by ablations).
    pub fn with_spec_and_profile(spec: CpuSpec, profile: CpuScanProfile) -> Self {
        Self {
            profile,
            spec: Mutex::new(spec),
            per_core_bandwidth_gbps: spec.per_core_bandwidth_gbps(),
            registered: Mutex::new(HashSet::new()),
            next_tag: AtomicUsize::new(0),
            cache: PlanDataCache::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Builds the site into an engine: it answers from the engine's shared
    /// plan-data cache and records into the engine's tracer from here on.
    pub fn with_shared(mut self, cache: PlanDataCache, tracer: Tracer) -> Self {
        self.cache = cache.traced(tracer.clone());
        self.tracer = tracer;
        self
    }

    /// The current hardware spec (a copy — migration may change it).
    pub fn spec(&self) -> CpuSpec {
        *self.spec.lock()
    }

    /// [`CpuOlapEngine::execute_plan_pipeline`] over [`OlapPlan::scan`],
    /// with the global group flattened to a scalar. Kept only because the
    /// frozen `benchmark/` package calls it; the engine itself runs scans as
    /// plans.
    pub fn execute_scan(&self, table: &SnapshotTable, query: &ScanAggQuery) -> Result<CpuOlapResult> {
        let plan = self.execute_plan_pipeline(table, None, &OlapPlan::scan(query))?;
        Ok(CpuOlapResult {
            value: plan.groups[0].values[0],
            qualifying_rows: plan.qualifying_rows,
            rows_scanned: plan.rows_scanned,
            chunks_skipped: plan.chunks_skipped,
            threads_used: plan.threads_used,
            sim_time: plan.sim_time,
            breakdown: plan.breakdown,
            wall_time: plan.wall_time,
        })
    }

    /// Executes a relational plan over frozen tables: builds the join hash
    /// table from the filtered build side, then runs the probe/aggregate
    /// pipeline chunk-by-chunk **on a scoped thread pool sized by the
    /// engine's current core count**, so wall-clock time scales with
    /// migrated cores and not only the simulated cost. Chunks whose zonemap
    /// rules out the probe predicates are skipped when the profile says so.
    /// Chunk boundaries and the merge order are fixed by the plan IR (see
    /// [`h2tap_common::plan`]), which is why neither the parallel schedule
    /// nor the skipping can perturb the f64 aggregates: every chunk's
    /// partial is deterministic, a skipped chunk's would be empty, and
    /// partials merge in ascending chunk order regardless of which thread
    /// produced them.
    pub fn execute_plan_pipeline(
        &self,
        probe_table: &SnapshotTable,
        build_table: Option<&SnapshotTable>,
        plan: &OlapPlan,
    ) -> Result<CpuPlanResult> {
        let started = Instant::now();
        // Copy the spec out: core migration may change it mid-plan, and the
        // whole plan must be costed against one consistent spec.
        let spec = self.spec();
        let rows = probe_table.row_count();
        let data = self.cache.prepare_plan(probe_table, build_table, plan)?;
        let eval = operators::evaluate_plan(
            &data,
            plan,
            spec.cores as usize,
            self.profile.use_zonemaps,
            &self.tracer,
            OlapTarget::Cpu,
        );
        let (totals, rows_scanned) = (eval.totals, eval.rows_scanned);

        // Analytical time model: streamed column bytes (zonemap skipping
        // reduces them — the columns of skipped chunks are still summarised
        // by the index, charged at 1% of their size) plus cache-line-granular
        // random traffic for hash probes and group updates, overlapped with
        // per-tuple work spread across the cores.
        let skipped_bytes = plan.probe_scan_bytes(&probe_table.schema, rows - rows_scanned.min(rows));
        let mut bytes_moved = plan.probe_scan_bytes(&probe_table.schema, rows_scanned) + skipped_bytes / 100;
        let mut tuple_ns = rows_scanned as f64 * self.profile.per_tuple_ns;
        if let (Some(hash), Some(build)) = (data.hash.as_ref(), build_table) {
            bytes_moved += plan.build_scan_bytes(&build.schema, build.row_count());
            tuple_ns += hash.build_rows_in as f64 * self.profile.per_tuple_ns;
            bytes_moved += totals.selected * CPU_CACHE_LINE_BYTES;
            tuple_ns += totals.selected as f64 * HASH_PROBE_NS;
        }
        if plan.group_by.is_some() {
            bytes_moved += totals.joined * CPU_CACHE_LINE_BYTES;
            tuple_ns += totals.joined as f64 * GROUP_UPDATE_NS;
        }
        let bandwidth_time = bytes_moved as f64 / (spec.mem_bandwidth_gbps * 1e9);
        let cpu_time = tuple_ns * 1e-9 / f64::from(spec.cores.max(1));
        let breakdown = ExecBreakdown::new(bandwidth_time, cpu_time, 0.0);
        let sim_time = SimDuration::from_secs_f64(overlap_secs(bandwidth_time, cpu_time));

        Ok(CpuPlanResult {
            groups: eval.groups,
            qualifying_rows: totals.joined,
            rows_scanned,
            chunks_skipped: eval.chunks_skipped,
            threads_used: eval.threads_used,
            sim_time,
            breakdown,
            wall_time: started.elapsed(),
        })
    }
}

impl ExecutionSite for CpuOlapEngine {
    fn target(&self) -> OlapTarget {
        OlapTarget::Cpu
    }

    fn label(&self) -> &'static str {
        "cpu"
    }

    fn register_table(&self, _table: &SnapshotTable, _label: &str) -> Result<RegisteredTable> {
        // The CPU streams straight out of the shared-memory snapshot, so
        // registration only vends a handle for lifecycle symmetry with the
        // GPU site.
        let tag = self.next_tag.fetch_add(1, Ordering::Relaxed);
        self.registered.lock().insert(tag);
        Ok(RegisteredTable::cpu(tag))
    }

    fn reset_tables(&self) {
        self.registered.lock().clear();
    }

    fn unregister_table(&self, handle: RegisteredTable) {
        self.registered.lock().remove(&handle.tag());
    }

    fn execute(
        &self,
        probe: RegisteredTable,
        probe_table: &SnapshotTable,
        build: Option<(RegisteredTable, &SnapshotTable)>,
        plan: &OlapPlan,
    ) -> Result<PlanOutcome> {
        let handles = [Some(probe), build.map(|(handle, _)| handle)];
        if !handles.iter().flatten().all(|handle| self.registered.lock().contains(&handle.tag())) {
            return Err(H2Error::InvalidKernel("table not registered with the CPU site".into()));
        }
        let result = self.execute_plan_pipeline(probe_table, build.map(|(_, t)| t), plan)?;
        let out = PlanOutcome {
            groups: result.groups,
            qualifying_rows: result.qualifying_rows,
            grouped: plan.group_by.is_some(),
            time: result.sim_time,
            kernels: Vec::new(),
            interconnect_bytes: 0,
            breakdown: result.breakdown,
            site: OlapTarget::Cpu,
        };
        emit_execution_spans(&self.tracer, &out);
        Ok(out)
    }

    fn resident_fraction(&self) -> f64 {
        // The CPU's "device memory" is host DRAM, where every snapshot
        // already lives.
        1.0
    }

    fn capability(&self) -> SiteCapability {
        SiteCapability::Cpu { cores: self.spec().cores }
    }

    fn set_cores(&self, cores: u32) {
        let cores = cores.max(1);
        let mut spec = self.spec.lock();
        spec.cores = cores;
        spec.mem_bandwidth_gbps = self.per_core_bandwidth_gbps * f64::from(cores);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2tap_common::{AggExpr, AttrType, PartitionId, Predicate, Schema, Value};
    use h2tap_storage::{Database, Layout};

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
        let vectorized = CpuOlapEngine::new(CpuScanProfile::vectorized()).execute_scan(&t, &query).unwrap();
        let materializing = CpuOlapEngine::new(CpuScanProfile::materializing()).execute_scan(&t, &query).unwrap();
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
        let skipping = CpuOlapEngine::new(CpuScanProfile::vectorized()).execute_scan(&t, &query).unwrap();
        let full = CpuOlapEngine::new(CpuScanProfile::materializing()).execute_scan(&t, &query).unwrap();
        assert_eq!(skipping.value, 10_000.0);
        assert!(skipping.chunks_skipped > 0, "zonemaps should skip chunks on sorted data");
        assert_eq!(full.chunks_skipped, 0);
        assert!(skipping.rows_scanned < full.rows_scanned);
        assert!(skipping.sim_time < full.sim_time);
    }

    #[test]
    fn count_without_predicates_needs_no_columns() {
        let t = table(1_234);
        let r = CpuOlapEngine::new(CpuScanProfile::vectorized())
            .execute_scan(&t, &ScanAggQuery::aggregate_only(AggExpr::Count))
            .unwrap();
        assert_eq!(r.value, 1_234.0);
        assert_eq!(r.qualifying_rows, 1_234);
    }

    #[test]
    fn sim_time_scales_with_data_size() {
        let small = table(10_000);
        let big = table(100_000);
        let query = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![0, 1]));
        let engine = CpuOlapEngine::new(CpuScanProfile::materializing());
        let ts = engine.execute_scan(&small, &query).unwrap().sim_time;
        let tb = engine.execute_scan(&big, &query).unwrap().sim_time;
        let ratio = tb.as_secs_f64() / ts.as_secs_f64();
        assert!((8.0..12.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn core_migration_speeds_up_the_cpu_site() {
        let t = table(500_000);
        let query = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![0, 1]));
        let site = CpuOlapEngine::archipelago_default(2);
        let handle = site.register_table(&t, "t").unwrap();
        let slow = site.execute(handle, &t, None, &OlapPlan::scan(&query)).unwrap().time;
        site.set_cores(16);
        let fast = site.execute(handle, &t, None, &OlapPlan::scan(&query)).unwrap().time;
        assert!(fast < slow, "16 cores {fast} should beat 2 cores {slow}");
    }

    #[test]
    fn unregistered_handles_are_rejected() {
        let t = table(10);
        let site = CpuOlapEngine::archipelago_default(4);
        let handle = site.register_table(&t, "t").unwrap();
        site.reset_tables();
        let query = ScanAggQuery::aggregate_only(AggExpr::Count);
        assert!(site.execute(handle, &t, None, &OlapPlan::scan(&query)).is_err());
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
        let sequential = CpuOlapEngine::archipelago_default(1).execute_plan_pipeline(&fact, Some(&dim), &plan).unwrap();
        let parallel = CpuOlapEngine::archipelago_default(8).execute_plan_pipeline(&fact, Some(&dim), &plan).unwrap();
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
        let result =
            CpuOlapEngine::archipelago_default(4).execute_plan_pipeline(&fact, Some(&dim), &class_plan()).unwrap();
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
        let engine = CpuOlapEngine::archipelago_default(8);
        let join = engine.execute_plan_pipeline(&fact, Some(&dim), &class_plan()).unwrap();
        let scan_plan = h2tap_common::OlapPlan {
            predicates: vec![],
            join: None,
            group_by: None,
            aggregates: vec![AggExpr::SumColumns(vec![0]), AggExpr::Count],
        };
        let scan = engine.execute_plan_pipeline(&fact, None, &scan_plan).unwrap();
        assert!(join.sim_time > scan.sim_time, "join {} scan {}", join.sim_time, scan.sim_time);
    }

    #[test]
    fn join_plans_inherit_zonemap_skipping_without_changing_a_bit() {
        // col0 is inserted in sorted order, so a predicate on it is
        // clustered: the zonemaps rule out every chunk past the first.
        let fact = fact_table(300_000);
        let dim = dim_table(50);
        let plan = h2tap_common::OlapPlan { predicates: vec![Predicate::between(0, 0.0, 9_999.0)], ..class_plan() };
        let skipping =
            CpuOlapEngine::new(CpuScanProfile::vectorized()).execute_plan_pipeline(&fact, Some(&dim), &plan).unwrap();
        let full = CpuOlapEngine::new(CpuScanProfile::materializing())
            .execute_plan_pipeline(&fact, Some(&dim), &plan)
            .unwrap();
        assert!(skipping.chunks_skipped > 0, "clustered predicate must skip chunks of a join plan too");
        assert_eq!(full.chunks_skipped, 0);
        assert_eq!(full.rows_scanned, 300_000);
        assert!(skipping.rows_scanned < full.rows_scanned);
        // A skipped chunk contributes an empty partial: identical groups.
        assert_eq!(skipping.groups, full.groups);
        assert_eq!(skipping.qualifying_rows, full.qualifying_rows);
        assert!(!skipping.groups.is_empty());
        assert!(skipping.sim_time < full.sim_time, "skipped chunks are charged at 1% of their bytes");
    }

    #[test]
    fn plan_wall_clock_benefits_from_more_threads() {
        // Not a timing assertion (CI noise): just check the pool is sized by
        // set_cores through the ExecutionSite surface.
        let fact = fact_table(400_000);
        let dim = dim_table(50);
        let site = CpuOlapEngine::archipelago_default(2);
        let ph = site.register_table(&fact, "fact").unwrap();
        let bh = site.register_table(&dim, "dim").unwrap();
        let plan = class_plan();
        let two = site.execute_plan_pipeline(&fact, Some(&dim), &plan).unwrap();
        site.set_cores(16);
        let sixteen = site.execute_plan_pipeline(&fact, Some(&dim), &plan).unwrap();
        assert_eq!(two.threads_used, 2);
        assert!(sixteen.threads_used > two.threads_used);
        assert_eq!(two.groups, sixteen.groups);
        assert!(sixteen.sim_time < two.sim_time, "more cores must lower the simulated time");
        // The ExecutionSite wrapper enforces registration.
        site.reset_tables();
        assert!(site.execute(ph, &fact, Some((bh, &dim)), &plan).is_err());
    }
}
