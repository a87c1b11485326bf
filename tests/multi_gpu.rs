//! Cross-site equivalence harness for the multi-GPU execution site.
//!
//! The byte-identity contract: for the same snapshot, the CPU site (any
//! thread count), the single-GPU site (any placement) and the multi-GPU site
//! (any device mix, any shard count) must return **bit-equal** f64 answers
//! and identical group rows — the fixed 64Ki-row chunking and the ascending
//! chunk-ordered merge are the IR contract that makes the heterogeneous
//! archipelago swappable. These tests sweep the matrix the issue pins:
//! every layout, fast+slow device mixes, shard counts 1..=5, thread counts,
//! and the boundary tables (empty, one chunk, exact chunk multiple).

use caldera::{Caldera, CalderaConfig, DataPlacement, OlapMultiGpuConfig, OlapTarget, SnapshotPolicy};
use h2tap_common::{AggExpr, AttrType, OlapPlan, PartitionId, Predicate, ScanAggQuery, Schema, Value, PLAN_CHUNK_ROWS};
use h2tap_gpu_sim::{table1_mix, AccessMode, GpuDevice, GpuSpec};
use h2tap_olap::Site;
use h2tap_storage::{Database, Layout, SnapshotTable};
use h2tap_workloads::tpch::{self, q6};

/// A float-heavy table whose sums are not exactly representable, so any
/// deviation in chunking or merge order flips low-order bits: col0 = k,
/// col1 = k % 10, col2 = k * 0.1.
fn float_table(layout: Layout, rows: i64) -> SnapshotTable {
    let db = Database::new(1);
    let schema = Schema::new(vec![
        h2tap_common::Attribute::new("k", AttrType::Int64),
        h2tap_common::Attribute::new("bucket", AttrType::Int32),
        h2tap_common::Attribute::new("price", AttrType::Float64),
    ])
    .unwrap();
    let t = db.create_table("t", schema, layout).unwrap();
    for k in 0..rows {
        db.insert(PartitionId(0), t, &[Value::Int64(k), Value::Int32((k % 10) as i32), Value::Float64(k as f64 * 0.1)])
            .unwrap();
    }
    let snap = db.snapshot();
    snap.table(t).unwrap().clone()
}

fn bucket_query() -> ScanAggQuery {
    ScanAggQuery { predicates: vec![Predicate::between(1, 0.0, 6.0)], aggregate: AggExpr::SumProduct(1, 2) }
}

fn multi_engine(n: usize, placement: DataPlacement) -> Site {
    Site::sharded(table1_mix(n).into_iter().map(GpuDevice::new).collect(), placement).unwrap()
}

/// One scan answer (value bits, qualifying rows) from any site, or `None`
/// when the site rejected the query (empty tables must be rejected by every
/// site identically).
fn scan_bits(site: &Site, table: &SnapshotTable, query: &ScanAggQuery) -> Option<(u64, u64)> {
    let out = site.execute(table, None, &OlapPlan::scan(query)).ok()?.into_scan_outcome();
    Some((out.value.to_bits(), out.qualifying_rows))
}

/// The full equivalence matrix over one (layout, rows) cell: CPU at 1 and 8
/// threads, single GPU over UVA and device-resident, multi-GPU at the given
/// shard counts over UVA (plus one device-resident mix).
fn assert_matrix_cell(layout: Layout, rows: i64, shard_counts: &[usize]) {
    let table = float_table(layout, rows);
    let query = bucket_query();
    let mut answers: Vec<(String, Option<(u64, u64)>)> = Vec::new();
    for threads in [1u32, 8] {
        let cpu = Site::archipelago_default(threads);
        answers.push((format!("cpu x{threads}"), scan_bits(&cpu, &table, &query)));
    }
    for (placement, label) in
        [(DataPlacement::Host(AccessMode::Uva), "uva"), (DataPlacement::DeviceResident, "resident")]
    {
        let gpu = Site::gpu(GpuDevice::new(GpuSpec::gtx_980()), placement);
        answers.push((format!("gpu {label}"), scan_bits(&gpu, &table, &query)));
    }
    for &n in shard_counts {
        let multi = multi_engine(n, DataPlacement::Host(AccessMode::Uva));
        answers.push((format!("multi-gpu x{n} uva"), scan_bits(&multi, &table, &query)));
    }
    let resident_mix = multi_engine(2, DataPlacement::DeviceResident);
    answers.push(("multi-gpu x2 resident".into(), scan_bits(&resident_mix, &table, &query)));

    let (first_label, first) = &answers[0];
    if rows == 0 {
        for (label, answer) in &answers {
            assert!(answer.is_none(), "{layout:?}/{rows}: {label} must reject the empty table");
        }
        return;
    }
    for (label, answer) in &answers[1..] {
        assert_eq!(answer, first, "{layout:?}/{rows}: {label} disagrees with {first_label}");
    }
}

#[test]
fn scan_answers_are_byte_identical_across_every_site_and_shard_count() {
    // The full shard sweep on DSM, including the boundary row counts:
    // empty, one chunk, an exact chunk multiple, and a partial tail chunk.
    for rows in [0i64, 1_000, (PLAN_CHUNK_ROWS * 2) as i64, 200_000] {
        assert_matrix_cell(Layout::Dsm, rows, &[1, 2, 3, 4, 5]);
    }
}

#[test]
fn scan_answers_are_byte_identical_on_nsm_and_pax_layouts() {
    for layout in [Layout::Nsm, Layout::PAPER_PAX] {
        assert_matrix_cell(layout, 200_000, &[1, 3, 5]);
    }
}

#[test]
fn join_group_by_plans_are_byte_identical_across_sites_and_mixes() {
    let plan = OlapPlan {
        predicates: vec![Predicate::between(0, 0.0, 149_999.0)],
        join: Some(h2tap_common::JoinSpec {
            probe_column: 1,
            build_key: 0,
            build_predicates: vec![Predicate::between(1, 0.0, 4.0)],
        }),
        group_by: Some(h2tap_common::PlanColumn::Build(2)),
        aggregates: vec![AggExpr::SumProduct(1, 2), AggExpr::Count],
    };
    for layout in [Layout::Nsm, Layout::Dsm, Layout::PAPER_PAX] {
        let probe = float_table(layout, 180_000);
        let db = Database::new(1);
        let schema = Schema::new(vec![
            h2tap_common::Attribute::new("key", AttrType::Int64),
            h2tap_common::Attribute::new("size", AttrType::Int32),
            h2tap_common::Attribute::new("brand", AttrType::Int32),
        ])
        .unwrap();
        let t = db.create_table("dim", schema, layout).unwrap();
        for i in 0..10i64 {
            db.insert(PartitionId(0), t, &[Value::Int64(i), Value::Int32(i as i32), Value::Int32((i % 3) as i32)])
                .unwrap();
        }
        let build = db.snapshot().table(t).unwrap().clone();

        let cpu = Site::archipelago_default(8);
        let reference = cpu.execute(&probe, Some(&build), &plan).unwrap();
        assert!(!reference.groups.is_empty());

        let gpu = Site::gpu(GpuDevice::new(GpuSpec::gtx_980()), DataPlacement::Host(AccessMode::Uva));
        let gpu_out = gpu.execute(&probe, Some(&build), &plan).unwrap();
        assert_eq!(gpu_out.groups, reference.groups, "{layout:?}: single GPU");

        for n in [2usize, 4] {
            let multi = multi_engine(n, DataPlacement::Host(AccessMode::Uva));
            let out = multi.execute(&probe, Some(&build), &plan).unwrap();
            assert_eq!(out.groups, reference.groups, "{layout:?}: {n}-device mix");
            assert_eq!(out.qualifying_rows, reference.qualifying_rows, "{layout:?}: {n}-device mix");
        }
    }
}

// ---------------------------------------------------------------------------
// Through the production engine: config, dispatch, routing, stats, fallback.
// ---------------------------------------------------------------------------

fn caldera_with_multi(
    mut config: CalderaConfig,
    mix: Vec<GpuSpec>,
    placement: DataPlacement,
    rows: u64,
) -> (Caldera, h2tap_common::TableId) {
    config.snapshot_policy = SnapshotPolicy::Manual;
    config.olap_multi_gpu = Some(OlapMultiGpuConfig::new(mix).with_placement(placement));
    let mut builder = Caldera::builder(config);
    let table = tpch::load_lineitem(&mut builder, Layout::Dsm, rows, 7).unwrap();
    (builder.start().unwrap(), table)
}

/// The acceptance scenario: a large device-resident scan routes to the
/// multi-GPU site, and neither the CPU nor the single GPU beats it there.
#[test]
fn large_device_resident_scans_route_to_the_multi_gpu_site() {
    let mut config = CalderaConfig::with_workers(2);
    config.olap_cpu_cores = 8;
    config.olap_device.placement = DataPlacement::DeviceResident;
    let (caldera, table) = caldera_with_multi(
        config,
        vec![GpuSpec::gtx_980(), GpuSpec::gtx_980()],
        DataPlacement::DeviceResident,
        150_000,
    );
    let routed = caldera.run_olap(table, &q6()).unwrap();
    assert_eq!(routed.site, OlapTarget::MultiGpu, "two sharded devices must win the large resident scan");
    // Forced-site oracle: the multi-GPU site is genuinely the fastest, and
    // all three answers are byte-identical.
    let cpu = caldera.run_olap_on(table, &q6(), OlapTarget::Cpu).unwrap();
    let gpu = caldera.run_olap_on(table, &q6(), OlapTarget::Gpu).unwrap();
    let multi = caldera.run_olap_on(table, &q6(), OlapTarget::MultiGpu).unwrap();
    assert!(multi.time < gpu.time, "multi {} must beat single {}", multi.time, gpu.time);
    assert!(multi.time < cpu.time, "multi {} must beat cpu {}", multi.time, cpu.time);
    assert_eq!(multi.value.to_bits(), cpu.value.to_bits());
    assert_eq!(multi.value.to_bits(), gpu.value.to_bits());
    assert_eq!(multi.qualifying_rows, cpu.qualifying_rows);
    let stats = caldera.shutdown();
    assert_eq!(stats.olap_sites.len(), 3, "the third site is first-class in the stats");
    assert_eq!(stats.olap_queries_on(OlapTarget::MultiGpu), 2);
    assert_eq!(stats.olap_queries_on(OlapTarget::Gpu), 1);
    assert_eq!(stats.olap_queries_on(OlapTarget::Cpu), 1);
}

/// Tables sized to an exact chunk multiple (no partial tail chunk) stay
/// byte-identical through the production dispatch path.
#[test]
fn exact_chunk_multiple_tables_agree_through_dispatch() {
    let mut config = CalderaConfig::with_workers(1);
    config.olap_cpu_cores = 4;
    config.snapshot_policy = SnapshotPolicy::Manual;
    config.olap_multi_gpu = Some(OlapMultiGpuConfig::new(table1_mix(3)));
    let mut builder = Caldera::builder(config);
    let table = tpch::load_lineitem_chunks(&mut builder, "lineitem", Layout::Dsm, 2, 7).unwrap();
    let caldera = builder.start().unwrap();
    let cpu = caldera.run_olap_on(table, &q6(), OlapTarget::Cpu).unwrap();
    let gpu = caldera.run_olap_on(table, &q6(), OlapTarget::Gpu).unwrap();
    let multi = caldera.run_olap_on(table, &q6(), OlapTarget::MultiGpu).unwrap();
    assert_eq!(cpu.value.to_bits(), gpu.value.to_bits());
    assert_eq!(cpu.value.to_bits(), multi.value.to_bits());
    assert_eq!(cpu.qualifying_rows, multi.qualifying_rows);
    caldera.shutdown();
}

/// Forcing the multi-GPU target on an engine without one is a configuration
/// error, not a panic.
#[test]
fn forcing_an_unconfigured_multi_gpu_site_errors() {
    let mut config = CalderaConfig::with_workers(1);
    config.snapshot_policy = SnapshotPolicy::Manual;
    let mut builder = Caldera::builder(config);
    let table = tpch::load_lineitem(&mut builder, Layout::Dsm, 1_000, 7).unwrap();
    let caldera = builder.start().unwrap();
    assert!(caldera.run_olap_on(table, &q6(), OlapTarget::MultiGpu).is_err());
    // Routed queries never try to use the absent site.
    assert!(caldera.run_olap(table, &q6()).is_ok());
    caldera.shutdown();
}

/// A device mix whose members cannot hold their shards OOMs at registration
/// and falls back to the CPU site — with no stranded device memory, so the
/// next query repeats the attempt cleanly.
#[test]
fn multi_gpu_oom_falls_back_to_the_cpu_site() {
    let mut tiny = GpuSpec::gtx_980();
    tiny.mem_capacity_mib = 1;
    let mut config = CalderaConfig::with_workers(1);
    config.olap_cpu_cores = 2;
    // The single GPU is also too small, so whichever GPU-family site the
    // heuristic picks, the query must still be answered by the CPU.
    config.olap_device.placement = DataPlacement::DeviceResident;
    config.olap_device.gpu.mem_capacity_mib = 1;
    let (caldera, table) = caldera_with_multi(config, vec![tiny.clone(), tiny], DataPlacement::DeviceResident, 200_000);
    for _ in 0..2 {
        let out = caldera.run_olap(table, &q6()).unwrap();
        assert_eq!(out.site, OlapTarget::Cpu);
    }
    // Forcing the multi site surfaces the real error instead of falling back.
    assert!(caldera.run_olap_on(table, &q6(), OlapTarget::MultiGpu).is_err());
    let stats = caldera.shutdown();
    assert_eq!(stats.olap_queries_on(OlapTarget::Cpu), 2);
    assert_eq!(stats.olap_queries_on(OlapTarget::MultiGpu), 0);
}

/// The min-per-shard free-bytes semantics at the engine surface: the site
/// reports the smallest device's headroom, never a (saturating) sum.
#[test]
fn multi_gpu_free_bytes_is_the_min_across_the_mix() {
    let mut small = GpuSpec::gtx_980();
    small.mem_capacity_mib = 32;
    let eng =
        Site::sharded(vec![GpuDevice::new(GpuSpec::gtx_980()), GpuDevice::new(small)], DataPlacement::DeviceResident)
            .unwrap();
    assert_eq!(eng.free_device_bytes(), Some(32 * 1024 * 1024));
}
