//! The vocabulary every execution site shares: where the GPU site keeps
//! table data ([`DataPlacement`]) and what a site hands back for a plan
//! ([`PlanOutcome`], and [`OlapOutcome`] for its scan-shaped special case).
//! The site itself is [`crate::Site`]; this module's tests exercise the
//! one-device GPU site ([`crate::Site::gpu`]).

use h2tap_common::{ExecBreakdown, GroupRow, OlapTarget, SimDuration};
use h2tap_gpu_sim::{AccessMode, KernelMetrics};

/// Where the engine keeps table data relative to the GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataPlacement {
    /// Data stays in host shared memory and is accessed with the given mode
    /// (the H2TAP design point; UVA is what the Caldera prototype uses).
    Host(AccessMode),
    /// Data is copied into device memory ahead of time (the Figure 11
    /// configuration).
    DeviceResident,
}

/// Result of one [`h2tap_common::ScanAggQuery`]: the [`PlanOutcome`] of its
/// scan-shaped plan with the single global group flattened to a scalar.
#[derive(Debug, Clone)]
pub struct OlapOutcome {
    /// The aggregate value (exact, computed over the real data).
    pub value: f64,
    /// Number of records satisfying all predicates.
    pub qualifying_rows: u64,
    /// Records actually scanned (after zonemap skipping).
    pub rows_scanned: u64,
    /// Chunks skipped thanks to zonemaps.
    pub chunks_skipped: u64,
    /// Worker threads the chunked scan ran on.
    pub threads_used: usize,
    /// Simulated execution time (kernels plus any explicit transfers).
    pub time: SimDuration,
    /// Per-kernel metrics, in launch order (empty for sites that do not
    /// launch kernels, such as the CPU scan engine).
    pub kernels: Vec<KernelMetrics>,
    /// Bytes moved over the host-device interconnect.
    pub interconnect_bytes: u64,
    /// How the simulated time splits into the cost model's terms (streaming,
    /// compute, fixed overhead) — the signal the placement calibrator fits
    /// its per-term constants against.
    pub breakdown: ExecBreakdown,
    /// The execution site that answered the query.
    pub site: OlapTarget,
}

/// Result of one relational-plan execution: per-group aggregates plus the
/// site's simulated cost.
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    /// Result groups in ascending raw-key order (one global group with key 0
    /// for plans without `group_by`). Byte-identical across sites.
    pub groups: Vec<GroupRow>,
    /// Rows that reached the aggregation (post filter and join).
    pub qualifying_rows: u64,
    /// Whether the plan had a `group_by` (a grouped result with one group
    /// whose key happens to be 0 is otherwise indistinguishable from the
    /// global group of a scan-style plan).
    pub grouped: bool,
    /// Probe rows actually evaluated (after zonemap skipping).
    pub rows_scanned: u64,
    /// Probe chunks a zonemap ruled out.
    pub chunks_skipped: u64,
    /// Worker threads the chunk pipeline ran on.
    pub threads_used: usize,
    /// Simulated execution time (kernels plus any explicit transfers).
    pub time: SimDuration,
    /// Per-kernel metrics in launch order (empty for the CPU site).
    pub kernels: Vec<KernelMetrics>,
    /// Bytes moved over the host-device interconnect.
    pub interconnect_bytes: u64,
    /// How the simulated time splits into the cost model's terms.
    pub breakdown: ExecBreakdown,
    /// The execution site that answered the plan.
    pub site: OlapTarget,
}

impl PlanOutcome {
    /// The group with the given raw key cell, if present.
    pub fn group(&self, key: u64) -> Option<&GroupRow> {
        self.groups.iter().find(|g| g.key == key)
    }

    /// The outcome of a scan-shaped plan as the scalar [`OlapOutcome`] the
    /// `ScanAggQuery` API returns. Plans without `group_by` always produce
    /// exactly one global group, whose first aggregate is the scan's value.
    pub fn into_scan_outcome(self) -> OlapOutcome {
        OlapOutcome {
            value: self.single_value().unwrap_or(0.0),
            qualifying_rows: self.qualifying_rows,
            rows_scanned: self.rows_scanned,
            chunks_skipped: self.chunks_skipped,
            threads_used: self.threads_used,
            time: self.time,
            kernels: self.kernels,
            interconnect_bytes: self.interconnect_bytes,
            breakdown: self.breakdown,
            site: self.site,
        }
    }

    /// First aggregate of the single global group — the scan-plan
    /// equivalent of [`OlapOutcome::value`]. Plans without `group_by` always
    /// produce exactly one global group (zeroed when nothing qualified), so
    /// this is `Some` for them; `None` when the plan grouped (including a
    /// grouped result that happens to be empty).
    pub fn single_value(&self) -> Option<f64> {
        if self.grouped {
            return None;
        }
        match self.groups.as_slice() {
            [g] if g.key == 0 => g.values.first().copied(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::Site;
    use h2tap_common::{
        AggExpr, AttrType, OlapPlan, PartitionId, PlanColumn, Predicate, Result, ScanAggQuery, Schema, Value,
    };
    use h2tap_gpu_sim::{GpuDevice, GpuSpec};
    use h2tap_storage::{Database, Layout, SnapshotTable};

    /// A small table: col0 = i, col1 = i % 10, col2 = 2.5 (float), 16 cols total
    /// only for the first three used.
    fn snapshot_table(layout: Layout, rows: i64) -> SnapshotTable {
        let db = Database::new(1);
        let schema = h2tap_common::Schema::new(vec![
            h2tap_common::Attribute::new("k", AttrType::Int64),
            h2tap_common::Attribute::new("bucket", AttrType::Int32),
            h2tap_common::Attribute::new("price", AttrType::Float64),
        ])
        .unwrap();
        let t = db.create_table("t", schema, layout).unwrap();
        for i in 0..rows {
            db.insert(PartitionId(0), t, &[Value::Int64(i), Value::Int32((i % 10) as i32), Value::Float64(2.5)])
                .unwrap();
        }
        let snap = db.snapshot();
        snap.table(t).unwrap().clone()
    }

    fn engine(placement: DataPlacement) -> Site {
        Site::gpu(vec![GpuDevice::new(GpuSpec::gtx_980())], placement).unwrap()
    }

    /// Runs `query` as the scan-shaped plan it is.
    fn scan(eng: &Site, table: &SnapshotTable, query: &ScanAggQuery) -> Result<OlapOutcome> {
        eng.execute(table, None, &OlapPlan::scan(query)).map(PlanOutcome::into_scan_outcome)
    }

    /// The launched kernels' names without the `.d<device>` suffix the GPU
    /// site appends.
    fn kernel_names(out: &PlanOutcome) -> Vec<&str> {
        out.kernels.iter().map(|k| k.name.split('.').next().unwrap_or("")).collect()
    }

    fn bucket_query() -> ScanAggQuery {
        ScanAggQuery { predicates: vec![Predicate::between(1, 0.0, 4.0)], aggregate: AggExpr::SumProduct(1, 2) }
    }

    #[test]
    fn exact_answer_matches_a_scalar_computation() {
        let table = snapshot_table(Layout::Dsm, 1000);
        let eng = engine(DataPlacement::Host(AccessMode::Uva));
        let out = scan(&eng, &table, &bucket_query()).unwrap();
        let expected: f64 = (0..1000).map(|i| i % 10).filter(|b| *b <= 4).map(|b| b as f64 * 2.5).sum();
        assert_eq!(out.value, expected);
        assert_eq!(out.qualifying_rows, 500);
        assert_eq!(out.kernels.len(), 2, "one selection kernel + one aggregation kernel");
        assert!(out.time > SimDuration::ZERO);
    }

    #[test]
    fn all_layouts_agree_on_the_answer() {
        let query = bucket_query();
        let mut answers = Vec::new();
        for layout in [Layout::Nsm, Layout::Dsm, Layout::PAPER_PAX] {
            let table = snapshot_table(layout, 500);
            let eng = engine(DataPlacement::Host(AccessMode::Uva));
            answers.push(scan(&eng, &table, &query).unwrap().value);
        }
        assert!(answers.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-9), "{answers:?}");
    }

    #[test]
    fn nsm_is_slower_than_dsm_over_uva() {
        let query = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![0]));
        let mut times = Vec::new();
        for layout in [Layout::Dsm, Layout::Nsm] {
            let table = snapshot_table(layout, 200_000);
            let eng = engine(DataPlacement::Host(AccessMode::Uva));
            times.push(scan(&eng, &table, &query).unwrap().time.as_secs_f64());
        }
        assert!(times[1] > 1.5 * times[0], "NSM {} DSM {}", times[1], times[0]);
    }

    #[test]
    fn pax_is_close_to_dsm() {
        let query = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![0, 1]));
        let mut times = Vec::new();
        for layout in [Layout::Dsm, Layout::PAPER_PAX] {
            let table = snapshot_table(layout, 200_000);
            let eng = engine(DataPlacement::Host(AccessMode::Uva));
            times.push(scan(&eng, &table, &query).unwrap().time.as_secs_f64());
        }
        let ratio = times[1] / times[0];
        assert!((0.95..1.2).contains(&ratio), "PAX/DSM ratio {ratio}");
    }

    #[test]
    fn unified_memory_queries_get_faster_after_first_touch() {
        let table = snapshot_table(Layout::Dsm, 500_000);
        let eng = engine(DataPlacement::Host(AccessMode::UnifiedMemory));
        let q = bucket_query();
        let first = scan(&eng, &table, &q).unwrap();
        let second = scan(&eng, &table, &q).unwrap();
        assert_eq!(first.value, second.value);
        assert!(first.time > second.time, "first {} second {}", first.time, second.time);
        assert_eq!(second.interconnect_bytes, 0);
    }

    #[test]
    fn device_resident_execution_is_fastest() {
        let q = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![0, 1]));
        let table = snapshot_table(Layout::Dsm, 500_000);
        let uva = engine(DataPlacement::Host(AccessMode::Uva));
        let t_uva = scan(&uva, &table, &q).unwrap().time;
        let dev = engine(DataPlacement::DeviceResident);
        let t_dev = scan(&dev, &table, &q).unwrap().time;
        assert!(t_dev < t_uva, "device {} uva {}", t_dev, t_uva);
    }

    #[test]
    fn memcpy_placement_charges_transfers() {
        let table = snapshot_table(Layout::Dsm, 100_000);
        let eng = engine(DataPlacement::Host(AccessMode::Memcpy));
        let out = scan(&eng, &table, &bucket_query()).unwrap();
        assert!(out.interconnect_bytes > 0);
    }

    #[test]
    fn empty_table_is_rejected() {
        let db = Database::new(1);
        let t = db.create_table("t", Schema::homogeneous("c", 2, AttrType::Int32), Layout::Dsm).unwrap();
        let snap = db.snapshot();
        let table = snap.table(t).unwrap().clone();
        let eng = engine(DataPlacement::Host(AccessMode::Uva));
        assert!(scan(&eng, &table, &bucket_query()).is_err());
    }

    /// Build table keyed 0..10: key = i, size = i, brand = i % 3.
    fn build_table(keys: i64) -> SnapshotTable {
        let db = Database::new(1);
        let schema = h2tap_common::Schema::new(vec![
            h2tap_common::Attribute::new("key", AttrType::Int64),
            h2tap_common::Attribute::new("size", AttrType::Int32),
            h2tap_common::Attribute::new("brand", AttrType::Int32),
        ])
        .unwrap();
        let t = db.create_table("dim", schema, Layout::Dsm).unwrap();
        for i in 0..keys {
            db.insert(PartitionId(0), t, &[Value::Int64(i), Value::Int32(i as i32), Value::Int32((i % 3) as i32)])
                .unwrap();
        }
        let snap = db.snapshot();
        snap.table(t).unwrap().clone()
    }

    /// Join the fact table's bucket column (i % 10) against the dimension
    /// keys with size <= 4, group by brand, SUM(bucket * price) + COUNT.
    fn join_plan() -> OlapPlan {
        OlapPlan {
            predicates: vec![],
            join: Some(h2tap_common::JoinSpec {
                probe_column: 1,
                build_key: 0,
                build_predicates: vec![Predicate::between(1, 0.0, 4.0)],
            }),
            group_by: Some(PlanColumn::Build(2)),
            aggregates: vec![AggExpr::SumProduct(1, 2), AggExpr::Count],
        }
    }

    #[test]
    fn failed_registration_frees_its_partial_allocations() {
        // A device that fits the first columns but not the whole table: the
        // failed call must not consume capacity (OOM fallback retries
        // registration on every query).
        let table = snapshot_table(Layout::Dsm, 100_000); // 8 + 4 + 8 bytes/row
        let mut spec = GpuSpec::gtx_980();
        spec.mem_capacity_mib = 1;
        let eng = Site::gpu(vec![GpuDevice::new(spec)], DataPlacement::DeviceResident).unwrap();
        assert!(scan(&eng, &table, &bucket_query()).is_err());
        assert_eq!(eng.device_used_bytes(), [0], "partial column buffers must be freed");
    }

    /// A failed call rolls back only what it registered itself: a table an
    /// earlier call registered keeps its buffers and stays queryable.
    #[test]
    fn unregister_table_frees_only_that_tables_buffers() {
        let t1 = snapshot_table(Layout::Dsm, 10_000); // 200 kB of columns
        let t2 = snapshot_table(Layout::Dsm, 30_000); // 600 kB, and a 480 kB hash replica
        let mut spec = GpuSpec::gtx_980();
        spec.mem_capacity_mib = 1;
        let eng = Site::gpu(vec![GpuDevice::new(spec)], DataPlacement::DeviceResident).unwrap();
        scan(&eng, &t1, &bucket_query()).unwrap();
        let after_first = eng.device_used_bytes();
        let join = OlapPlan {
            predicates: vec![],
            join: Some(h2tap_common::JoinSpec { probe_column: 0, build_key: 0, build_predicates: vec![] }),
            group_by: None,
            aggregates: vec![AggExpr::Count],
        };
        assert!(eng.execute(&t1, Some(&t2), &join).is_err(), "t2 registers, its hash replica does not fit");
        assert_eq!(eng.device_used_bytes(), after_first, "only t2's buffers are freed");
        // t1 stays fully queryable.
        let out = scan(&eng, &t1, &bucket_query()).unwrap();
        assert_eq!(out.qualifying_rows, 5_000);
    }

    #[test]
    fn join_group_by_plan_computes_exact_groups() {
        let probe = snapshot_table(Layout::Dsm, 1_000);
        let build = build_table(10);
        let eng = engine(DataPlacement::Host(AccessMode::Uva));
        let out = eng.execute(&probe, Some(&build), &join_plan()).unwrap();
        // Buckets 0..=4 join (size <= 4); brands of keys 0..=4 are
        // 0 -> {0,3}, 1 -> {1,4}, 2 -> {2}; 100 rows per bucket.
        assert_eq!(out.qualifying_rows, 500);
        assert_eq!(out.groups.len(), 3);
        let sums: Vec<(u64, f64, u64)> = out.groups.iter().map(|g| (g.key, g.values[0], g.rows)).collect();
        assert_eq!(sums, vec![(0, 750.0, 200), (1, 1250.0, 200), (2, 500.0, 100)]);
        for g in &out.groups {
            assert_eq!(g.values[1], g.rows as f64, "COUNT aggregate tracks rows");
        }
        assert_eq!(kernel_names(&out), vec!["hash_build", "hash_probe", "partial_aggregate", "merge_groups"]);
        assert!(out.time > SimDuration::ZERO);
    }

    #[test]
    fn random_probes_dominate_join_cost_over_uva() {
        let probe = snapshot_table(Layout::Dsm, 200_000);
        let build = build_table(10);
        let plan = join_plan();
        let scan_equivalent = OlapPlan { join: None, group_by: None, ..plan.clone() };
        let eng = engine(DataPlacement::Host(AccessMode::Uva));
        let join_time = eng.execute(&probe, Some(&build), &plan).unwrap().time.as_secs_f64();
        let scan_time = eng.execute(&probe, None, &scan_equivalent).unwrap().time.as_secs_f64();
        // Every probe gathers a full interconnect transaction: the join costs
        // far more than streaming the same probe columns.
        assert!(join_time > 3.0 * scan_time, "join {join_time} scan {scan_time}");

        // Device-resident hash state caps the waste at the 128-byte device
        // transaction, collapsing the penalty.
        let dev = engine(DataPlacement::DeviceResident);
        let dev_join = dev.execute(&probe, Some(&build), &plan).unwrap().time.as_secs_f64();
        assert!(dev_join < join_time / 3.0, "device {dev_join} uva {join_time}");
    }

    /// What the two tables of the join tests occupy once registered: 10 000
    /// probe rows of 8 + 4 + 8 bytes and 10 build rows of 8 + 4 + 4 bytes.
    const REGISTERED_BYTES: u64 = 10_000 * 20 + 10 * 16;

    #[test]
    fn plan_scratch_buffers_do_not_leak_device_memory() {
        let probe = snapshot_table(Layout::Dsm, 10_000);
        let build = build_table(10);
        let eng = engine(DataPlacement::DeviceResident);
        eng.execute(&probe, Some(&build), &join_plan()).unwrap();
        assert_eq!(eng.device_used_bytes(), [REGISTERED_BYTES], "hash/group scratch must be freed");
    }

    /// A plan whose probe predicate selects nothing still launches every
    /// kernel: the hash-table and group-arena gathers are charged one entry,
    /// never zero bytes, and the scratch is freed afterwards.
    #[test]
    fn zero_selectivity_join_plans_launch_the_full_kernel_list() {
        let probe = snapshot_table(Layout::Dsm, 10_000);
        let build = build_table(10);
        let eng = engine(DataPlacement::DeviceResident);
        // Buckets are 0..=9: nothing passes the probe predicate.
        let plan = OlapPlan { predicates: vec![Predicate::between(1, 100.0, 200.0)], ..join_plan() };
        let out = eng.execute(&probe, Some(&build), &plan).unwrap();
        assert_eq!(out.qualifying_rows, 0);
        assert!(out.groups.is_empty());
        let names = kernel_names(&out);
        assert_eq!(names, vec!["select_0", "hash_build", "hash_probe", "partial_aggregate", "merge_groups"]);
        assert!(out.time > SimDuration::ZERO && out.time.as_secs_f64().is_finite(), "{}", out.time);
        assert_eq!(eng.device_used_bytes(), [REGISTERED_BYTES], "hash/group scratch must be freed");
    }

    #[test]
    fn plan_rejects_mismatched_join_and_build() {
        let probe = snapshot_table(Layout::Dsm, 100);
        let build = build_table(10);
        let eng = engine(DataPlacement::Host(AccessMode::Uva));
        // Join without a build table.
        assert!(eng.execute(&probe, None, &join_plan()).is_err());
        // Build table without a join.
        let scan = OlapPlan { predicates: vec![], join: None, group_by: None, aggregates: vec![AggExpr::Count] };
        assert!(eng.execute(&probe, Some(&build), &scan).is_err());
    }
}
