//! Integration tests for heterogeneous OLAP dispatch: the CPU and GPU
//! execution sites must be interchangeable answer-wise, and the scheduler's
//! placement decision must route real queries to the site the paper's
//! heuristic predicts.

use caldera::{Caldera, CalderaConfig, DataPlacement, OlapTarget, SnapshotPolicy};
use h2tap_common::{AggExpr, OlapPlan, PartitionId, Predicate, ScanAggQuery, Value};
use h2tap_olap::{CpuScanProfile, CpuSpec, PlanOutcome, Site};
use h2tap_storage::Layout;
use h2tap_workloads::tpch::{self, q6};
use std::sync::Arc;

fn caldera_with_lineitem(mut config: CalderaConfig, layout: Layout, rows: u64) -> (Caldera, h2tap_common::TableId) {
    config.snapshot_policy = SnapshotPolicy::Manual;
    let mut builder = Caldera::builder(config);
    let table = tpch::load_lineitem(&mut builder, layout, rows, 7).unwrap();
    (builder.start().unwrap(), table)
}

/// CPU and GPU sites must return identical `value` / `qualifying_rows` for
/// the same snapshot, whatever the storage layout.
#[test]
fn cpu_and_gpu_sites_agree_on_q6_across_all_layouts() {
    let rows = 40_000;
    let expected = tpch::q6_reference(rows, 7);
    for layout in [Layout::Nsm, Layout::Dsm, Layout::PAPER_PAX] {
        let (caldera, table) = caldera_with_lineitem(CalderaConfig::with_workers(1), layout, rows);
        let query = q6();
        let gpu = caldera.run_olap_on(table, &query, OlapTarget::Gpu).unwrap();
        let cpu = caldera.run_olap_on(table, &query, OlapTarget::Cpu).unwrap();
        assert_eq!(gpu.site, OlapTarget::Gpu);
        assert_eq!(cpu.site, OlapTarget::Cpu);
        assert!((gpu.value - expected).abs() < 1e-6, "{layout:?}: gpu {} vs reference {expected}", gpu.value);
        assert_eq!(gpu.value, cpu.value, "{layout:?}");
        assert_eq!(gpu.qualifying_rows, cpu.qualifying_rows, "{layout:?}");
        let stats = caldera.shutdown();
        assert_eq!(stats.olap_queries_on(OlapTarget::Gpu), 1);
        assert_eq!(stats.olap_queries_on(OlapTarget::Cpu), 1);
    }
}

/// Sites also agree under predicates + sum aggregates on a hand-built table
/// that mixes attribute types.
#[test]
fn sites_agree_on_filtered_aggregates_over_mixed_types() {
    let mut config = CalderaConfig::with_workers(2);
    config.snapshot_policy = SnapshotPolicy::Manual;
    let mut builder = Caldera::builder(config);
    let schema = h2tap_common::Schema::new(vec![
        h2tap_common::Attribute::new("k", h2tap_common::AttrType::Int64),
        h2tap_common::Attribute::new("bucket", h2tap_common::AttrType::Int32),
        h2tap_common::Attribute::new("price", h2tap_common::AttrType::Float64),
    ])
    .unwrap();
    let table = builder.create_table("orders", schema, Layout::PAPER_PAX).unwrap();
    for k in 0..10_000i64 {
        builder
            .load(table, k, &[Value::Int64(k), Value::Int32((k % 10) as i32), Value::Float64(k as f64 * 0.5)])
            .unwrap();
    }
    let caldera = builder.start().unwrap();
    let query =
        ScanAggQuery { predicates: vec![Predicate::between(1, 2.0, 6.0)], aggregate: AggExpr::SumProduct(1, 2) };
    let gpu = caldera.run_olap_on(table, &query, OlapTarget::Gpu).unwrap();
    let cpu = caldera.run_olap_on(table, &query, OlapTarget::Cpu).unwrap();
    assert_eq!(gpu.value, cpu.value);
    assert_eq!(gpu.qualifying_rows, cpu.qualifying_rows);
    assert_eq!(gpu.qualifying_rows, 5_000);
    caldera.shutdown();
}

/// Scan answers are **byte-identical** across sites — the same chunked-merge
/// contract join plans have — even over float data whose sums are not
/// exactly representable, where any difference in chunking or merge order
/// would change low-order bits. Q6's SumProduct over generated f64 prices
/// and discounts is exactly such a sum.
#[test]
fn scan_answers_are_byte_identical_across_sites_and_thread_counts() {
    let mut config = CalderaConfig::with_workers(1);
    config.olap_cpu_cores = 8;
    // > 2 chunks of PLAN_CHUNK_ROWS so the parallel scan really splits.
    let (caldera, table) = caldera_with_lineitem(config, Layout::Dsm, 150_000);
    let query = q6();
    let gpu = caldera.run_olap_on(table, &query, OlapTarget::Gpu).unwrap();
    let cpu = caldera.run_olap_on(table, &query, OlapTarget::Cpu).unwrap();
    assert_eq!(gpu.value.to_bits(), cpu.value.to_bits(), "gpu {} vs cpu {}", gpu.value, cpu.value);
    assert_eq!(gpu.qualifying_rows, cpu.qualifying_rows);

    // The CPU scan actually runs on the scoped thread pool, and the thread
    // count cannot perturb a single bit of the answer.
    let snap = caldera.database().snapshot();
    let frozen = snap.table(table).unwrap();
    let scan = |site: Site| site.execute(frozen, None, &OlapPlan::scan(&query)).map(PlanOutcome::into_scan_outcome);
    let sequential = scan(Site::archipelago_default(1)).unwrap();
    let parallel = scan(Site::archipelago_default(16)).unwrap();
    assert_eq!(sequential.threads_used, 1);
    assert!(parallel.threads_used > 1, "a multi-chunk scan on 16 cores must use the pool");
    assert_eq!(sequential.value.to_bits(), parallel.value.to_bits());
    assert_eq!(sequential.value.to_bits(), cpu.value.to_bits(), "standalone engine agrees with the site");
    assert_eq!(sequential.qualifying_rows, parallel.qualifying_rows);
    assert_eq!(sequential.rows_scanned, parallel.rows_scanned);
    assert_eq!(sequential.chunks_skipped, parallel.chunks_skipped);
    caldera.shutdown();
}

/// Zonemap skipping (the vectorised profile) still cannot change the f64
/// answer relative to a profile that scans everything: a skipped chunk's
/// partial is exactly zero.
#[test]
fn zonemap_skipping_preserves_bitwise_equality_on_clustered_predicates() {
    let mut config = CalderaConfig::with_workers(1);
    config.olap_cpu_cores = 8;
    let (caldera, table) = caldera_with_lineitem(config, Layout::Dsm, 150_000);
    // ORDERKEY is loaded in ascending order, so its zonemaps are tight.
    let query = ScanAggQuery {
        predicates: vec![Predicate::between(tpch::columns::ORDERKEY, 0.0, 9_999.0)],
        aggregate: AggExpr::SumProduct(tpch::columns::EXTENDEDPRICE, tpch::columns::DISCOUNT),
    };
    let snap = caldera.database().snapshot();
    let frozen = snap.table(table).unwrap();
    let scan = |profile| {
        let site = Site::cpu(CpuSpec::default(), profile);
        site.execute(frozen, None, &OlapPlan::scan(&query)).map(PlanOutcome::into_scan_outcome)
    };
    let skipping = scan(CpuScanProfile::vectorized()).unwrap();
    let full = scan(CpuScanProfile::materializing()).unwrap();
    assert!(skipping.chunks_skipped > 0, "clustered predicate must skip chunks");
    assert_eq!(full.chunks_skipped, 0);
    assert_eq!(skipping.value.to_bits(), full.value.to_bits());
    assert_eq!(skipping.qualifying_rows, full.qualifying_rows);
    caldera.shutdown();
}

/// The CPU, one GPU and a three-device heterogeneous GPU mix all stay
/// byte-identical on Q6 through the production dispatch path — the same
/// chunked-merge contract, across every device list.
#[test]
fn all_three_sites_agree_byte_identically_on_q6() {
    let mut config = CalderaConfig::with_workers(1);
    config.olap_cpu_cores = 8;
    let (caldera, table) = caldera_with_lineitem(config.clone(), Layout::Dsm, 150_000);
    config.olap_device.gpus = h2tap_gpu_sim::table1_mix(3);
    let (mixed, mixed_table) = caldera_with_lineitem(config, Layout::Dsm, 150_000);
    let query = q6();
    let cpu = caldera.run_olap_on(table, &query, OlapTarget::Cpu).unwrap();
    let gpu = caldera.run_olap_on(table, &query, OlapTarget::Gpu).unwrap();
    let mix = mixed.run_olap_on(mixed_table, &query, OlapTarget::Gpu).unwrap();
    assert_eq!(mix.site, OlapTarget::Gpu);
    assert_eq!(cpu.value.to_bits(), gpu.value.to_bits());
    assert_eq!(cpu.value.to_bits(), mix.value.to_bits());
    assert_eq!(cpu.qualifying_rows, mix.qualifying_rows);
    caldera.shutdown();
    let stats = mixed.shutdown();
    assert_eq!(stats.olap_sites.len(), 2, "a device mix is the one GPU site");
    assert_eq!(stats.olap_queries_on(OlapTarget::Gpu), 1);
}

/// A tiny scan over host-resident data routes to the CPU site: the fixed GPU
/// dispatch cost dominates and the snapshot already lives in host DRAM.
#[test]
fn tiny_host_resident_scan_routes_to_cpu() {
    let mut config = CalderaConfig::with_workers(2);
    config.olap_cpu_cores = 8;
    let (caldera, table) = caldera_with_lineitem(config, Layout::Dsm, 2_000);
    let out = caldera.run_olap(table, &q6()).unwrap();
    assert_eq!(out.site, OlapTarget::Cpu);
    let stats = caldera.shutdown();
    assert_eq!(stats.olap_queries_on(OlapTarget::Cpu), 1);
    assert_eq!(stats.olap_queries_on(OlapTarget::Gpu), 0);
}

/// A large device-resident scan routes to the GPU site: device memory
/// bandwidth dwarfs what the archipelago's CPU cores can stream.
#[test]
fn large_device_resident_scan_routes_to_gpu() {
    let mut config = CalderaConfig::with_workers(2);
    config.olap_cpu_cores = 8;
    config.olap_device.placement = DataPlacement::DeviceResident;
    let (caldera, table) = caldera_with_lineitem(config, Layout::Dsm, 150_000);
    let out = caldera.run_olap(table, &q6()).unwrap();
    assert_eq!(out.site, OlapTarget::Gpu);
    let stats = caldera.shutdown();
    assert_eq!(stats.olap_queries_on(OlapTarget::Gpu), 1);
    assert_eq!(stats.olap_queries_on(OlapTarget::Cpu), 0);
}

fn caldera_with_lineitem_and_part(
    mut config: CalderaConfig,
    layout: Layout,
    rows: u64,
    parts: u64,
) -> (Caldera, h2tap_common::TableId, h2tap_common::TableId) {
    config.snapshot_policy = SnapshotPolicy::Manual;
    let mut builder = Caldera::builder(config);
    let lineitem = tpch::load_lineitem(&mut builder, layout, rows, 7).unwrap();
    let part = tpch::load_part(&mut builder, layout, parts, 11).unwrap();
    (builder.start().unwrap(), lineitem, part)
}

/// CPU and GPU sites must return **byte-identical** join/group-by results
/// for the same snapshot, whatever the storage layout of either table —
/// the cross-site equivalence contract of the relational operator subsystem.
#[test]
fn cpu_and_gpu_sites_agree_on_join_group_by_across_all_layouts() {
    let rows = 30_000;
    let parts = 2_000;
    let max_size = 25;
    for layout in [Layout::Nsm, Layout::Dsm, Layout::PAPER_PAX] {
        let (caldera, lineitem, part) =
            caldera_with_lineitem_and_part(CalderaConfig::with_workers(2), layout, rows, parts);
        for plan in [tpch::brand_revenue_plan(max_size), tpch::partkey_revenue_plan(max_size)] {
            let gpu = caldera.run_olap_plan_on(lineitem, Some(part), &plan, OlapTarget::Gpu).unwrap();
            let cpu = caldera.run_olap_plan_on(lineitem, Some(part), &plan, OlapTarget::Cpu).unwrap();
            assert_eq!(gpu.site, OlapTarget::Gpu);
            assert_eq!(cpu.site, OlapTarget::Cpu);
            // Byte-identical: same keys, bit-equal f64 aggregates, same counts.
            assert_eq!(gpu.groups, cpu.groups, "{layout:?}");
            assert_eq!(gpu.qualifying_rows, cpu.qualifying_rows, "{layout:?}");
            assert!(!gpu.groups.is_empty(), "{layout:?}: the join must produce groups at this scale");
        }
        caldera.shutdown();
    }
}

/// The engines' group results agree with an independent scalar evaluation of
/// the same generated data (tolerance compare: the reference accumulates in
/// generation order, the engines in chunked storage order).
#[test]
fn join_group_by_matches_the_scalar_reference() {
    let rows = 30_000;
    let parts = 2_000;
    let max_size = 25;
    let (caldera, lineitem, part) =
        caldera_with_lineitem_and_part(CalderaConfig::with_workers(1), Layout::Dsm, rows, parts);
    for by_partkey in [false, true] {
        let plan = if by_partkey { tpch::partkey_revenue_plan(max_size) } else { tpch::brand_revenue_plan(max_size) };
        let out = caldera.run_olap_plan(lineitem, Some(part), &plan).unwrap();
        let reference = tpch::brand_revenue_reference(rows, parts, max_size, 7, 11, by_partkey);
        assert_eq!(out.groups.len(), reference.len(), "by_partkey={by_partkey}");
        for (got, want) in out.groups.iter().zip(&reference) {
            assert_eq!(got.key, want.key);
            assert_eq!(got.rows, want.rows);
            assert!(
                (got.values[0] - want.values[0]).abs() < 1e-6,
                "group {}: engine {} reference {}",
                got.key,
                got.values[0],
                want.values[0]
            );
        }
    }
    caldera.shutdown();
}

/// Identical byte-level results must survive the CPU site's thread pool:
/// an engine granted more OLAP cores runs a different parallel schedule but
/// not a bit of a different answer.
#[test]
fn cpu_plan_results_are_stable_across_core_grants() {
    let run_on_cores = |cores: usize| {
        let mut config = CalderaConfig::with_workers(2);
        config.olap_cpu_cores = cores;
        let (caldera, lineitem, part) = caldera_with_lineitem_and_part(config, Layout::Dsm, 150_000, 2_000);
        let out = caldera.run_olap_plan_on(lineitem, Some(part), &tpch::brand_revenue_plan(30), OlapTarget::Cpu);
        caldera.shutdown();
        out.unwrap()
    };
    let (single, pooled) = (run_on_cores(1), run_on_cores(7));
    assert_eq!((single.threads_used, pooled.threads_used > 1), (1, true));
    assert_eq!(single.groups, pooled.groups);
    assert!(pooled.time < single.time, "7 cores {} should beat 1 core {}", pooled.time, single.time);
}

/// The dispatch loop keeps working across snapshot refreshes and OLTP
/// updates: both sites see the same fresh data after a refresh.
#[test]
fn sites_stay_consistent_across_snapshot_refreshes() {
    let mut config = CalderaConfig::with_workers(2);
    config.snapshot_policy = SnapshotPolicy::Manual;
    let mut builder = Caldera::builder(config);
    let table = builder
        .create_table("accounts", h2tap_common::Schema::homogeneous("c", 2, h2tap_common::AttrType::Int64), Layout::Dsm)
        .unwrap();
    for k in 0..1_000i64 {
        builder.load(table, k, &[Value::Int64(k), Value::Int64(1)]).unwrap();
    }
    let caldera = builder.start().unwrap();
    let query = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![1]));
    assert_eq!(caldera.run_olap_on(table, &query, OlapTarget::Cpu).unwrap().value, 1_000.0);
    assert_eq!(caldera.run_olap_on(table, &query, OlapTarget::Gpu).unwrap().value, 1_000.0);
    caldera
        .execute_txn_on(
            PartitionId(0),
            Arc::new(move |ctx| {
                let mut rec = ctx.read_for_update(table, 0)?;
                rec[1] = Value::Int64(501);
                ctx.update(table, 0, rec)
            }),
        )
        .unwrap();
    // Stale until the snapshot refreshes, on both sites.
    assert_eq!(caldera.run_olap_on(table, &query, OlapTarget::Cpu).unwrap().value, 1_000.0);
    caldera.refresh_snapshot().unwrap();
    assert_eq!(caldera.run_olap_on(table, &query, OlapTarget::Cpu).unwrap().value, 1_500.0);
    assert_eq!(caldera.run_olap_on(table, &query, OlapTarget::Gpu).unwrap().value, 1_500.0);
    let stats = caldera.shutdown();
    assert_eq!(stats.olap_queries, 5);
    assert_eq!(stats.snapshots_taken, 2);
}

/// After writes and a refresh the sites no longer evaluate a from-scratch
/// materialisation: the written chunks were gathered again and the rest is
/// shared with the previous snapshot's version. Every site, and the
/// row-at-a-time reference over a from-scratch materialisation of the same
/// snapshot, must still agree bit for bit — on the scan and on the join,
/// whose hash table is carried forward while `part` stays unwritten.
#[test]
fn sites_and_the_reference_agree_bit_for_bit_after_writes_and_a_refresh() {
    use h2tap_olap::operators as ops;
    let rows = 150_000; // three chunks
                        // One GPU, then a three-device heterogeneous mix, each on its own engine.
    let device_lists = [vec![h2tap_gpu_sim::GpuSpec::gtx_980()], h2tap_gpu_sim::table1_mix(3)];
    for (layout, gpus) in [Layout::Nsm, Layout::Dsm, Layout::PAPER_PAX]
        .into_iter()
        .flat_map(|layout| device_lists.iter().map(move |gpus| (layout, gpus)))
    {
        let mut config = CalderaConfig::with_workers(1);
        config.olap_cpu_cores = 8;
        config.olap_device.gpus = gpus.clone();
        let (caldera, lineitem, part) = caldera_with_lineitem_and_part(config, layout, rows, 2_000);
        let scan = h2tap_common::OlapPlan::scan(&q6());
        let join = tpch::brand_revenue_plan(30);
        let sites = [OlapTarget::Cpu, OlapTarget::Gpu];
        for round in 0..3i64 {
            // Rewrite a run of rows inside the middle chunk: prices move, and
            // some rows start or stop qualifying for Q6.
            caldera
                .execute_txn_on(
                    PartitionId(0),
                    Arc::new(move |ctx| {
                        for key in (70_000 + 500 * round)..(70_040 + 500 * round) {
                            let mut rec = ctx.read_for_update(lineitem, key)?;
                            rec[tpch::columns::EXTENDEDPRICE] = Value::Float64(1_234.5 + key as f64 / 7.0);
                            rec[tpch::columns::DISCOUNT] = Value::Float64(0.06);
                            rec[tpch::columns::QUANTITY] = Value::Float64(3.0 + round as f64);
                            rec[tpch::columns::SHIPDATE] = Value::Date(800);
                            ctx.update(lineitem, key, rec)?;
                        }
                        Ok(())
                    }),
                )
                .unwrap();
            caldera.refresh_snapshot().unwrap();
            let snapshot = caldera.current_snapshot().unwrap();
            let (frozen, build) = (snapshot.table(lineitem).unwrap(), snapshot.table(part).unwrap());
            for (plan, build) in [(&scan, None), (&join, Some(build))] {
                let group_col = ops::check_plan(plan, build.is_some()).unwrap();
                let hash = plan.join.as_ref().zip(build).map(|(j, b)| ops::build_hash_table(b, j, group_col).unwrap());
                let mat = Arc::new(ops::MaterializedColumns::new(frozen, plan.probe_columns_accessed()).unwrap());
                let data = ops::PlanData { mat: Arc::clone(&mat), hash: hash.map(Arc::new) };
                let bound = data.bind(plan).unwrap();
                let partials =
                    (0..mat.chunk_count()).map(|i| ops::process_chunk_reference(&bound, mat.chunk_range(i))).collect();
                let (reference, _) = ops::merge_partials(plan, partials);
                for site in sites {
                    let got = caldera.run_olap_plan_on(lineitem, build.map(|_| part), plan, site).unwrap().groups;
                    assert_eq!(got.len(), reference.len(), "{layout:?} round {round} {site:?}");
                    for (g, r) in got.iter().zip(&reference) {
                        assert_eq!((g.key, g.rows), (r.key, r.rows), "{layout:?} round {round} {site:?}");
                        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(&g.values),
                            bits(&r.values),
                            "{layout:?} round {round} {site:?} group {}",
                            g.key
                        );
                    }
                }
            }
        }
        let cache = caldera.shutdown().plan_cache;
        assert!(
            cache.chunks_reused > 0 && cache.hashes_carried > 0,
            "{layout:?}: rounds must rebuild incrementally: {cache:?}"
        );
    }
}
