//! Experiment drivers: one function per table/figure of the paper.
//!
//! Every function returns plain row structs so the `experiments` binary can
//! print them and tests can assert the qualitative shapes the paper reports. Data sizes are scaled
//! down from the paper's (SF-300, 16 GB, 24 cores) so a full sweep finishes
//! in minutes on a laptop; the scale knobs are explicit parameters.

use caldera::{
    Caldera, CalderaConfig, DataPlacement, DeviceLossPoint, FaultPlan, OlapDeviceConfig, OlapTarget, SnapshotPolicy,
};
use h2tap_baselines::SiloRuntime;
use h2tap_common::rng::SplitMixRng;
use h2tap_common::stats::Histogram;
use h2tap_common::{OlapPlan, PartitionId, Predicate, ScanAggQuery, SimDuration, TableId};
use h2tap_gpu_sim::{AccessMode, AccessPattern, GpuDevice, GpuSpec, KernelDesc, TransferDirection};
use h2tap_olap::{CpuScanProfile, CpuSpec, PlanOutcome, Site};
use h2tap_oltp::TxnGenerator;
use h2tap_storage::Layout;
use h2tap_workloads::layoutbench;
use h2tap_workloads::multisite::{
    load_multisite_caldera, load_multisite_silo, load_multisite_sn, multisite_partitioner, CalderaMultisiteGenerator,
    MultisiteConfig, SiloMultisiteGenerator, SnSiloMultisiteGenerator,
};
use h2tap_workloads::tpcc::{
    load_tpcc, load_tpcc_silo, standalone_tables, tpcc_partitioner, NewOrderGenerator, SiloNewOrderGenerator,
    TpccConfig,
};
use h2tap_workloads::tpch::{self, q6};
use h2tap_workloads::ycsb::{YcsbConfig, YcsbGenerator};
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Default scale used by the binary: rows of lineitem for the HTAP
/// experiments (the paper uses SF-300 = 1.8 B rows; 300k keeps the full sweep
/// under a minute while staying far larger than any cache).
pub const DEFAULT_LINEITEM_ROWS: u64 = 300_000;

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

/// One row of Table 1.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// GPU marketing name.
    pub gpu: String,
    /// Architecture generation.
    pub architecture: String,
    /// CUDA cores.
    pub cores: u32,
    /// FP32 throughput in GFLOP/s.
    pub fp32_gflops: f64,
    /// Memory capacity in MiB.
    pub mem_capacity_mib: u64,
    /// Memory bandwidth in GB/s.
    pub mem_bandwidth_gbps: f64,
    /// Interconnect type.
    pub interface: String,
    /// Interconnect bandwidth in GB/s.
    pub interface_gbps: f64,
}

/// Reproduces Table 1 from the device catalogue.
pub fn table1() -> Vec<Table1Row> {
    h2tap_gpu_sim::table1_catalog()
        .into_iter()
        .map(|spec| Table1Row {
            gpu: spec.name.clone(),
            architecture: spec.architecture.name().to_string(),
            cores: spec.cores,
            fp32_gflops: spec.fp32_gflops,
            mem_capacity_mib: spec.mem_capacity_mib,
            mem_bandwidth_gbps: spec.mem_bandwidth_gbps,
            interface: spec.interconnect.kind.label().to_string(),
            interface_gbps: spec.interconnect.kind.bandwidth_gbps(),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 1: transfer modes across GPU generations
// ---------------------------------------------------------------------------

/// One bar of Figure 1: total time for five filter queries under one
/// GPU/access-mode combination.
#[derive(Debug, Clone, Serialize)]
pub struct Fig1Row {
    /// GPU used.
    pub gpu: String,
    /// Access mode label ("memcpy", "uva", "um").
    pub mode: String,
    /// Per-query execution times in seconds.
    pub per_query_secs: Vec<f64>,
    /// Total time for the five queries in seconds.
    pub total_secs: f64,
}

/// Runs the Figure 1 microbenchmark: five filter kernels over a column of
/// `column_bytes` bytes of integers (the paper uses 2 GiB).
pub fn fig1(column_bytes: u64) -> Vec<Fig1Row> {
    let combos: Vec<(GpuSpec, AccessMode, &str)> = vec![
        (GpuSpec::tesla_m2090(), AccessMode::Memcpy, "memcpy"),
        (GpuSpec::tesla_m2090(), AccessMode::Uva, "uva"),
        (GpuSpec::gtx_980(), AccessMode::Memcpy, "memcpy"),
        (GpuSpec::gtx_980(), AccessMode::Uva, "uva"),
        (GpuSpec::gtx_980(), AccessMode::UnifiedMemory, "um"),
    ];
    let mut rows = Vec::new();
    for (spec, mode, label) in combos {
        let gpu_name = format!("{} ({})", spec.name, spec.architecture.name());
        let mut device = GpuDevice::new(spec);
        let buffer = device
            .register_buffer("fig1.column", column_bytes, mode)
            .expect("Figure 1 column fits every evaluated configuration");
        let elements = column_bytes / 4;
        let mut per_query = Vec::with_capacity(5);
        for q in 0..5 {
            let mut total = SimDuration::ZERO;
            if mode == AccessMode::Memcpy {
                total += device.memcpy(column_bytes, TransferDirection::HostToDevice);
            }
            let desc = KernelDesc::new(format!("filter_q{q}"), elements)
                .flops_per_element(2.0)
                .read(buffer, column_bytes, AccessPattern::Sequential)
                .write(elements / 8);
            total += device.account(&desc).expect("kernel").time;
            if mode == AccessMode::Memcpy {
                total += device.memcpy(elements / 8, TransferDirection::DeviceToHost);
            }
            per_query.push(total.as_secs_f64());
        }
        rows.push(Fig1Row {
            gpu: gpu_name,
            mode: label.to_string(),
            total_secs: per_query.iter().sum(),
            per_query_secs: per_query,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 4: TPC-H Q6, GPU Caldera vs CPU column stores
// ---------------------------------------------------------------------------

/// One bar of Figure 4.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4Row {
    /// Engine name.
    pub engine: String,
    /// Q6 execution time in seconds (simulated hardware frame of reference).
    pub seconds: f64,
    /// The Q6 revenue aggregate (identical across engines).
    pub revenue: f64,
}

/// Runs Figure 4: Q6 on Caldera and on the two CPU baselines, without
/// concurrent transactions. The Caldera bar goes through `Caldera::run_olap_on`
/// — the exact dispatch path production queries take — and the CPU baselines
/// are Caldera's own CPU site engine under the two scan profiles, so every
/// bar exercises first-class code.
pub fn fig4(rows: u64) -> Vec<Fig4Row> {
    let mut config = CalderaConfig::with_workers(1);
    config.snapshot_policy = SnapshotPolicy::Manual;
    let mut builder = Caldera::builder(config);
    let table = tpch::load_lineitem(&mut builder, Layout::Dsm, rows, 42).unwrap();
    let caldera = builder.start().unwrap();
    let query = q6();
    let mut rows_out = Vec::new();

    let outcome = caldera.run_olap_on(table, &query, OlapTarget::Gpu).unwrap();
    rows_out.push(Fig4Row {
        engine: "Caldera (GPU)".into(),
        seconds: outcome.time.as_secs_f64(),
        revenue: outcome.value,
    });

    // The baselines answer the same query over a snapshot of the same data.
    let snap = caldera.database().snapshot();
    let frozen = snap.table(table).unwrap();
    for (engine, profile) in [("DBMS-C", CpuScanProfile::materializing()), ("MonetDB", CpuScanProfile::vectorized())] {
        let site = Site::cpu(CpuSpec::default(), profile);
        let result = site.execute(frozen, None, &OlapPlan::scan(&query)).map(PlanOutcome::into_scan_outcome).unwrap();
        rows_out.push(Fig4Row { engine: engine.into(), seconds: result.time.as_secs_f64(), revenue: result.value });
    }
    caldera.shutdown();
    rows_out
}

// ---------------------------------------------------------------------------
// Placement: the CPU/GPU crossover the site dispatch makes real
// ---------------------------------------------------------------------------

/// One configuration of the placement sweep: where the scheduler routed Q6
/// and what each site would have charged for it.
#[derive(Debug, Clone, Serialize)]
pub struct PlacementRow {
    /// Rows in the lineitem table.
    pub lineitem_rows: u64,
    /// GPU data placement label ("host-uva" or "device-resident").
    pub placement: String,
    /// CPU cores owned by the data-parallel archipelago.
    pub cpu_cores: u32,
    /// Bytes Q6 must scan at this size.
    pub bytes_to_scan: u64,
    /// Site the placement heuristic chose ("cpu" or "gpu").
    pub chosen: String,
    /// Simulated Q6 time on the CPU site in seconds.
    pub cpu_secs: f64,
    /// Simulated Q6 time on the GPU site in seconds.
    pub gpu_secs: f64,
}

/// Sweeps data size x GPU residency and records, per configuration, the
/// scheduler's routing decision next to both sites' actual simulated times —
/// the crossover behind the paper's claim that the scheduler should pick
/// CPU or GPU per query. All queries run through `Caldera::run_olap` /
/// `run_olap_on`, i.e. the production dispatch path.
pub fn fig_placement(row_counts: &[u64], cpu_cores: usize) -> Vec<PlacementRow> {
    let mut out = Vec::new();
    for &rows in row_counts {
        for (placement, label) in
            [(DataPlacement::Host(AccessMode::Uva), "host-uva"), (DataPlacement::DeviceResident, "device-resident")]
        {
            let mut config = CalderaConfig::with_workers(1);
            config.olap_cpu_cores = cpu_cores;
            config.olap_device.placement = placement;
            // One snapshot for the whole sweep: routing, CPU and GPU probes
            // must see identical data.
            config.snapshot_policy = SnapshotPolicy::Manual;
            let mut builder = Caldera::builder(config);
            let table = tpch::load_lineitem(&mut builder, Layout::Dsm, rows, 7).unwrap();
            let caldera = builder.start().unwrap();
            let query = q6();
            let routed = caldera.run_olap(table, &query).unwrap();
            let cpu = caldera.run_olap_on(table, &query, OlapTarget::Cpu).unwrap();
            let gpu = caldera.run_olap_on(table, &query, OlapTarget::Gpu).unwrap();
            assert_eq!(cpu.value, gpu.value, "sites disagree on Q6 revenue");
            out.push(PlacementRow {
                lineitem_rows: rows,
                placement: label.to_string(),
                cpu_cores: cpu_cores as u32,
                bytes_to_scan: tpch::q6_scan_bytes(rows),
                chosen: routed.site.label().to_string(),
                cpu_secs: cpu.time.as_secs_f64(),
                gpu_secs: gpu.time.as_secs_f64(),
            });
            caldera.shutdown();
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Operators: join/group-by placement vs pure scans (the relational operator
// subsystem's experiment)
// ---------------------------------------------------------------------------

/// One configuration of the operators sweep: where the scheduler routed the
/// TPC-H-style join/group-by plan versus the pure scan of the same probe
/// columns, with both sites' actual simulated plan times.
#[derive(Debug, Clone, Serialize)]
pub struct OperatorsRow {
    /// Rows in the lineitem (probe) table.
    pub lineitem_rows: u64,
    /// Rows in the part (build) table.
    pub parts: u64,
    /// GPU data placement label ("host-uva" or "device-resident").
    pub placement: String,
    /// Build-side selectivity knob: parts with `p_size <= max_size` (of 50)
    /// enter the hash table.
    pub max_size: i32,
    /// Group-by column ("brand" = 25 groups, "partkey" = one per part).
    pub group_by: String,
    /// Result groups the plan produced.
    pub groups: u64,
    /// Lineitem rows surviving filter + join.
    pub joined_rows: u64,
    /// Site the placement heuristic chose for the join plan.
    pub plan_chosen: String,
    /// Site the placement heuristic chose for the pure scan of the same
    /// probe columns.
    pub scan_chosen: String,
    /// Simulated plan time on the CPU site in seconds.
    pub cpu_secs: f64,
    /// Simulated plan time on the GPU site in seconds.
    pub gpu_secs: f64,
}

/// Sweeps GPU residency × build selectivity × group cardinality for the
/// `lineitem ⋈ part` brand-revenue plan, recording the scheduler's routing
/// decision for the plan *and* for a pure scan of the same probe columns.
/// This is the experiment behind the paper's claim that placement must see
/// access patterns: with host-resident data the probes' random gathers make
/// the GPU pay an interconnect transaction per row, so join plans flip to
/// the CPU while the equivalent scan stays on the GPU.
pub fn fig_operators(lineitem_rows: u64, parts: u64, cpu_cores: usize) -> Vec<OperatorsRow> {
    let mut out = Vec::new();
    for (placement, placement_label) in
        [(DataPlacement::Host(AccessMode::Uva), "host-uva"), (DataPlacement::DeviceResident, "device-resident")]
    {
        let mut config = CalderaConfig::with_workers(1);
        config.olap_cpu_cores = cpu_cores;
        config.olap_device.placement = placement;
        config.snapshot_policy = SnapshotPolicy::Manual;
        let mut builder = Caldera::builder(config);
        let lineitem = tpch::load_lineitem(&mut builder, Layout::Dsm, lineitem_rows, 7).unwrap();
        let part = tpch::load_part(&mut builder, Layout::Dsm, parts, 11).unwrap();
        let caldera = builder.start().unwrap();

        // The pure scan of the same probe columns, for the routing contrast.
        let scan = h2tap_common::ScanAggQuery {
            predicates: vec![h2tap_common::Predicate::between(tpch::columns::SHIPDATE, 730.0, 1094.0)],
            aggregate: h2tap_common::AggExpr::SumProduct(tpch::columns::EXTENDEDPRICE, tpch::columns::DISCOUNT),
        };
        let scan_chosen = caldera.run_olap(lineitem, &scan).unwrap().site.label().to_string();

        for max_size in [12, 50] {
            for by_partkey in [false, true] {
                let plan =
                    if by_partkey { tpch::partkey_revenue_plan(max_size) } else { tpch::brand_revenue_plan(max_size) };
                let routed = caldera.run_olap_plan(lineitem, Some(part), &plan).unwrap();
                let cpu = caldera.run_olap_plan_on(lineitem, Some(part), &plan, OlapTarget::Cpu).unwrap();
                let gpu = caldera.run_olap_plan_on(lineitem, Some(part), &plan, OlapTarget::Gpu).unwrap();
                assert_eq!(cpu.groups, gpu.groups, "sites disagree on the join/group-by result");
                out.push(OperatorsRow {
                    lineitem_rows,
                    parts,
                    placement: placement_label.to_string(),
                    max_size,
                    group_by: if by_partkey { "partkey".to_string() } else { "brand".to_string() },
                    groups: routed.groups.len() as u64,
                    joined_rows: routed.qualifying_rows,
                    plan_chosen: routed.site.label().to_string(),
                    scan_chosen: scan_chosen.clone(),
                    cpu_secs: cpu.time.as_secs_f64(),
                    gpu_secs: gpu.time.as_secs_f64(),
                });
            }
        }
        caldera.shutdown();
    }
    out
}

// ---------------------------------------------------------------------------
// Multi-GPU: device-list x residency sweep with two-way routing
// ---------------------------------------------------------------------------

/// One configuration of the multi-GPU sweep: where the scheduler routed Q6
/// between the CPU and the GPU site over one device list, with both sites'
/// forced (oracle) times.
#[derive(Debug, Clone, Serialize)]
pub struct GpuMixRow {
    /// Device-list label (e.g. "2x GTX 980").
    pub mix: String,
    /// Devices in the list.
    pub devices: u32,
    /// GPU data placement label ("host-uva" or "device-resident").
    pub placement: String,
    /// Rows in the lineitem table.
    pub lineitem_rows: u64,
    /// Site the placement argmin chose.
    pub chosen: String,
    /// Forced Q6 time on the CPU site in milliseconds.
    pub cpu_ms: f64,
    /// Forced Q6 time on the GPU site over the device list in milliseconds.
    pub gpu_ms: f64,
}

/// Sweeps device lists (the lone GTX 980, a homogeneous pair, a fast+slow
/// generation pair and a four-card Table 1 mix) x GPU residency x data
/// size, one engine per configuration, recording the routing decision next
/// to both sites' forced times. A mix's `gpu_ms` set against the lone
/// card's row shows where adding devices pays — and, for the fast+slow
/// pair, where the slow card's round-robin shard costs more than it adds.
pub fn fig_multigpu(row_counts: &[u64], cpu_cores: usize) -> Vec<GpuMixRow> {
    let mixes: Vec<(&str, Vec<GpuSpec>)> = vec![
        ("1x GTX 980", vec![GpuSpec::gtx_980()]),
        ("2x GTX 980", vec![GpuSpec::gtx_980(), GpuSpec::gtx_980()]),
        ("980 Ti + GTX 580", vec![GpuSpec::gtx_980_ti(), GpuSpec::gtx_580()]),
        ("4x Table-1 mix", h2tap_gpu_sim::table1_mix(4)),
    ];
    let mut out = Vec::new();
    for (mix_label, gpus) in &mixes {
        for (placement, placement_label) in
            [(DataPlacement::Host(AccessMode::Uva), "host-uva"), (DataPlacement::DeviceResident, "device-resident")]
        {
            for &rows in row_counts {
                let mut config = CalderaConfig::with_workers(1);
                config.olap_cpu_cores = cpu_cores;
                config.olap_device = OlapDeviceConfig { gpus: gpus.clone(), placement };
                config.snapshot_policy = SnapshotPolicy::Manual;
                let mut builder = Caldera::builder(config);
                let table = tpch::load_lineitem(&mut builder, Layout::Dsm, rows, 7).unwrap();
                let caldera = builder.start().unwrap();
                let query = q6();
                let routed = caldera.run_olap(table, &query).unwrap();
                let cpu = caldera.run_olap_on(table, &query, OlapTarget::Cpu).unwrap();
                let gpu = caldera.run_olap_on(table, &query, OlapTarget::Gpu).unwrap();
                assert_eq!(cpu.value.to_bits(), gpu.value.to_bits(), "sites disagree on Q6 revenue");
                out.push(GpuMixRow {
                    mix: mix_label.to_string(),
                    devices: gpus.len() as u32,
                    placement: placement_label.to_string(),
                    lineitem_rows: rows,
                    chosen: routed.site.label().to_string(),
                    cpu_ms: cpu.time.as_millis_f64(),
                    gpu_ms: gpu.time.as_millis_f64(),
                });
                caldera.shutdown();
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Calibration: the placement feedback loop converging on the oracle
// ---------------------------------------------------------------------------

/// One query of the calibration experiment.
#[derive(Debug, Clone, Serialize)]
pub struct CalibrationQueryRow {
    /// Query index within the stream.
    pub query: u64,
    /// Rows of the lineitem table this query scanned.
    pub lineitem_rows: u64,
    /// Site the (continuously recalibrated) placement heuristic chose.
    pub chosen: String,
    /// Site that was actually faster, measured by forced runs on both sites.
    pub oracle: String,
    /// Whether placement agreed with the oracle.
    pub agree: bool,
    /// Measured CPU-site time in milliseconds.
    pub cpu_ms: f64,
    /// Measured GPU-site time in milliseconds.
    pub gpu_ms: f64,
}

/// Summary of one calibration run: agreement trajectory, steady-state
/// prediction error, and the model before/after.
#[derive(Debug, Clone, Serialize)]
pub struct CalibrationSummary {
    /// Queries in the stream (each also runs forced on both sites).
    pub queries: u64,
    /// Queries counted as warm-up — the stream position at which 50 total
    /// observations (placed + forced) have been folded into the calibrator.
    pub warmup_queries: u64,
    /// Oracle-agreement fraction during warm-up.
    pub agreement_early: f64,
    /// Oracle-agreement fraction after the first 50 observations — the
    /// acceptance metric (>= 0.9 with 2x/5x-wrong seeds).
    pub agreement_steady: f64,
    /// Steady-state mean relative prediction error on the CPU site.
    pub cpu_mean_rel_error: f64,
    /// Steady-state mean relative prediction error on the GPU site.
    pub gpu_mean_rel_error: f64,
    /// The deliberately wrong seed model the engine started from.
    pub initial_model: h2tap_scheduler::CostModel,
    /// The calibrated model after the stream.
    pub calibrated_model: h2tap_scheduler::CostModel,
    /// Per-query rows, in stream order.
    pub rows: Vec<CalibrationQueryRow>,
}

/// Runs the placement-calibration experiment: one engine whose cost model is
/// seeded deliberately wrong — per-tuple CPU cost 2x too high, GPU dispatch
/// overhead 5x too low, exactly the drift ROADMAP warns about — answering a
/// round-robin stream of Q6 instances over four lineitem sizes that straddle
/// the CPU/GPU crossover. Every query also runs forced on both sites, which
/// (a) measures the oracle placement and (b) feeds the calibrator
/// ground-truth observations from each site. With the wrong seeds the small
/// sizes misroute to the GPU at first; the feedback loop re-estimates the
/// constants from the sites' reported time breakdowns and placement converges
/// to the oracle within tens of observations.
pub fn fig_calibration(queries: u64, cpu_cores: usize) -> CalibrationSummary {
    use h2tap_scheduler::CostModel;
    let sizes: [u64; 4] = [3_000, 8_000, 30_000, 100_000];
    let true_model = CostModel::default();
    let initial_model = CostModel {
        cpu_per_tuple_ns: true_model.cpu_per_tuple_ns * 2.0,
        gpu_dispatch_overhead_secs: true_model.gpu_dispatch_overhead_secs / 5.0,
        ..true_model
    };

    let mut config = CalderaConfig::with_workers(1);
    config.olap_cpu_cores = cpu_cores;
    config.snapshot_policy = SnapshotPolicy::Manual;
    config.cost_model_seed = initial_model;
    let mut builder = Caldera::builder(config);
    let tables: Vec<TableId> = sizes
        .iter()
        .map(|&rows| {
            tpch::load_lineitem_named(&mut builder, &format!("lineitem_{rows}"), Layout::Dsm, rows, 7).unwrap()
        })
        .collect();
    let caldera = builder.start().unwrap();
    let query = q6();

    // Each stream position records three observations (placed + two forced);
    // "after the first 50 observations" therefore begins at this query index.
    let warmup_queries = 50u64.div_ceil(3);
    let mut rows_out = Vec::with_capacity(queries as usize);
    let mut agree_early = 0u64;
    let mut agree_steady = 0u64;
    for i in 0..queries {
        let rows = sizes[(i % sizes.len() as u64) as usize];
        let table = tables[(i % sizes.len() as u64) as usize];
        let routed = caldera.run_olap(table, &query).unwrap();
        let cpu = caldera.run_olap_on(table, &query, OlapTarget::Cpu).unwrap();
        let gpu = caldera.run_olap_on(table, &query, OlapTarget::Gpu).unwrap();
        let oracle = if cpu.time < gpu.time { OlapTarget::Cpu } else { OlapTarget::Gpu };
        let agree = routed.site == oracle;
        if i < warmup_queries {
            agree_early += u64::from(agree);
        } else {
            agree_steady += u64::from(agree);
        }
        rows_out.push(CalibrationQueryRow {
            query: i,
            lineitem_rows: rows,
            chosen: routed.site.label().to_string(),
            oracle: oracle.label().to_string(),
            agree,
            cpu_ms: cpu.time.as_millis_f64(),
            gpu_ms: gpu.time.as_millis_f64(),
        });
    }
    let calibrated_model = caldera.cost_model();
    let stats = caldera.shutdown();
    let steady = queries.saturating_sub(warmup_queries);
    CalibrationSummary {
        queries,
        warmup_queries,
        agreement_early: agree_early as f64 / warmup_queries.min(queries).max(1) as f64,
        agreement_steady: agree_steady as f64 / steady.max(1) as f64,
        cpu_mean_rel_error: stats.prediction_error_on(OlapTarget::Cpu).unwrap_or(f64::NAN),
        gpu_mean_rel_error: stats.prediction_error_on(OlapTarget::Gpu).unwrap_or(f64::NAN),
        initial_model,
        calibrated_model,
        rows: rows_out,
    }
}

// ---------------------------------------------------------------------------
// Figures 5-7: HTAP with software snapshotting
// ---------------------------------------------------------------------------

/// One measurement of the mixed HTAP workload.
#[derive(Debug, Clone, Serialize)]
pub struct HtapRow {
    /// OLTP working-set percentage.
    pub working_set_pct: u32,
    /// Snapshot sharing degree (queries per snapshot).
    pub queries_per_snapshot: u32,
    /// Number of OLAP queries executed.
    pub olap_queries: u32,
    /// OLTP throughput while the queries ran (transactions per second).
    pub oltp_tps: f64,
    /// Average OLAP response time in seconds.
    pub olap_avg_secs: f64,
    /// Minimum OLAP response time in seconds.
    pub olap_min_secs: f64,
    /// Maximum OLAP response time in seconds.
    pub olap_max_secs: f64,
    /// Median OLAP response time in seconds.
    pub olap_p50_secs: f64,
    /// 99th-percentile OLAP response time in seconds.
    pub olap_p99_secs: f64,
    /// Pages shadow-copied during the run.
    pub cow_pages: u64,
}

/// Parameters of the mixed HTAP experiments (Figures 5, 6, 7).
#[derive(Debug, Clone, Copy)]
pub struct HtapParams {
    /// Rows in the lineitem table.
    pub lineitem_rows: u64,
    /// OLTP worker threads (= partitions).
    pub oltp_workers: usize,
    /// Number of OLAP queries to run back-to-back.
    pub olap_queries: u32,
    /// Queries that share one snapshot.
    pub queries_per_snapshot: u32,
    /// OLTP working-set percentage (1-100).
    pub working_set_pct: u32,
}

impl Default for HtapParams {
    fn default() -> Self {
        Self {
            lineitem_rows: DEFAULT_LINEITEM_ROWS,
            oltp_workers: 4,
            olap_queries: 10,
            queries_per_snapshot: 10,
            working_set_pct: 100,
        }
    }
}

/// The Caldera engine of one figure 5-7 point: `params.lineitem_rows` rows
/// of lineitem in `PAPER_PAX` over `params.oltp_workers` partitions, a
/// snapshot per `params.queries_per_snapshot` queries, and the YCSB update
/// generator over `params.working_set_pct` % of each partition. The timed
/// figures and the ledger both start from it.
fn htap_engine(params: &HtapParams) -> (Caldera, TableId, Arc<dyn TxnGenerator>) {
    let mut config = CalderaConfig::with_workers(params.oltp_workers);
    config.snapshot_policy = SnapshotPolicy::EveryN { queries: params.queries_per_snapshot };
    let mut builder = Caldera::builder(config);
    let table = tpch::load_lineitem(&mut builder, Layout::PAPER_PAX, params.lineitem_rows, 7).unwrap();
    let ycsb: Arc<dyn TxnGenerator> = Arc::new(YcsbGenerator::new(YcsbConfig {
        working_set_pct: params.working_set_pct,
        ..YcsbConfig::paper_default(table, params.lineitem_rows, params.oltp_workers as u64)
    }));
    builder.set_generator(Arc::clone(&ycsb));
    (builder.start().unwrap(), table, ycsb)
}

/// Runs the mixed workload of Section 5.1 once: the YCSB-like update workload
/// runs on the CPU archipelago while `olap_queries` Q6 instances run on the
/// GPU archipelago, sharing snapshots per the policy.
pub fn run_htap(params: HtapParams) -> HtapRow {
    let (caldera, table, _) = htap_engine(&params);

    // Start the OLTP window in a helper thread while OLAP queries run here,
    // mirroring "the OLTP workload is executed by the CPU until all OLAP
    // queries terminate".
    let oltp_handle = {
        let query_budget = Duration::from_millis(120 * u64::from(params.olap_queries.max(1)));
        let caldera_ref: &Caldera = &caldera;
        std::thread::scope(|scope| {
            let window = scope.spawn(move || caldera_ref.run_oltp_window(query_budget));
            let mut times = Histogram::new();
            let query = q6();
            for _ in 0..params.olap_queries {
                let outcome = caldera_ref.run_olap(table, &query).unwrap();
                times.record(outcome.time.as_secs_f64());
            }
            let bench = window.join().expect("oltp window thread").expect("oltp window");
            (bench, times)
        })
    };
    let (bench, times) = oltp_handle;
    let stats = caldera.shutdown();
    HtapRow {
        working_set_pct: params.working_set_pct,
        queries_per_snapshot: params.queries_per_snapshot,
        olap_queries: params.olap_queries,
        oltp_tps: bench.throughput_tps,
        olap_avg_secs: times.mean().unwrap_or(0.0),
        olap_min_secs: times.min().unwrap_or(0.0),
        olap_max_secs: times.max().unwrap_or(0.0),
        olap_p50_secs: times.p50().unwrap_or(0.0),
        olap_p99_secs: times.p99().unwrap_or(0.0),
        cow_pages: stats.cow.pages_copied,
    }
}

/// Figure 5: OLTP throughput vs working-set % for four snapshot frequencies.
pub fn fig5(lineitem_rows: u64, oltp_workers: usize, working_sets: &[u32]) -> Vec<HtapRow> {
    let mut rows = Vec::new();
    // q1 / q1,5 / q1,3,5,7 / q1-10 correspond to 10, 5, 2.5 and 1 queries per
    // snapshot; 2.5 is rounded to 3.
    for queries_per_snapshot in [10u32, 5, 3, 1] {
        for &ws in working_sets {
            rows.push(run_htap(HtapParams {
                lineitem_rows,
                oltp_workers,
                queries_per_snapshot,
                working_set_pct: ws,
                ..HtapParams::default()
            }));
        }
    }
    rows
}

/// Figure 6: OLAP response times vs working-set %, one shared snapshot.
pub fn fig6(lineitem_rows: u64, oltp_workers: usize, working_sets: &[u32]) -> Vec<HtapRow> {
    working_sets
        .iter()
        .map(|&ws| {
            run_htap(HtapParams {
                lineitem_rows,
                oltp_workers,
                queries_per_snapshot: 10,
                working_set_pct: ws,
                ..HtapParams::default()
            })
        })
        .collect()
}

/// Figure 7: sweep the number of queries sharing a snapshot at 100 % working
/// set.
pub fn fig7(lineitem_rows: u64, oltp_workers: usize, query_counts: &[u32]) -> Vec<HtapRow> {
    query_counts
        .iter()
        .map(|&n| {
            run_htap(HtapParams {
                lineitem_rows,
                oltp_workers,
                olap_queries: n,
                queries_per_snapshot: n,
                working_set_pct: 100,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 8: TPC-C scalability, Caldera vs Silo
// ---------------------------------------------------------------------------

/// One point of Figure 8 or 9.
#[derive(Debug, Clone, Serialize)]
pub struct OltpComparisonRow {
    /// X-axis value (cores for Fig 8, multisite % for Fig 9).
    pub x: u32,
    /// System name.
    pub system: String,
    /// Committed transactions per second.
    pub tps: f64,
}

/// The Caldera engine of one figure 8 point: TPC-C with one warehouse per
/// core and the NewOrder generator, shared by [`fig8`] and the ledger.
fn fig8_engine(cores: usize, cfg: TpccConfig) -> (Caldera, Arc<dyn TxnGenerator>) {
    let mut config = CalderaConfig::with_workers(cores);
    config.oltp.seed = 0xF18;
    let mut builder = Caldera::builder(config);
    builder.set_partitioner(Arc::new(tpcc_partitioner(cores))).unwrap();
    let tables = load_tpcc(&mut builder, cores, cfg).unwrap();
    let new_order: Arc<dyn TxnGenerator> = Arc::new(NewOrderGenerator::new(tables, cfg, cores));
    builder.set_generator(Arc::clone(&new_order));
    (builder.start().unwrap(), new_order)
}

/// Runs Figure 8: TPC-C NewOrder throughput as the number of cores (and
/// warehouses) grows, for Caldera and Silo.
pub fn fig8(core_counts: &[usize], window: Duration) -> Vec<OltpComparisonRow> {
    let cfg = TpccConfig::default();
    let mut out = Vec::new();
    for &cores in core_counts {
        let (caldera, _) = fig8_engine(cores, cfg);
        let window_result = caldera.run_oltp_window(window).unwrap();
        out.push(OltpComparisonRow { x: cores as u32, system: "Caldera".into(), tps: window_result.throughput_tps });
        caldera.shutdown();

        // Silo.
        let silo_tables = standalone_tables();
        let silo = load_tpcc_silo(silo_tables, cores, cfg).unwrap();
        let runtime = SiloRuntime::new(Arc::clone(&silo), cores);
        let silo_window = runtime.run_for(Arc::new(SiloNewOrderGenerator::new(silo_tables, cfg, cores)), window);
        out.push(OltpComparisonRow { x: cores as u32, system: "Silo".into(), tps: silo_window.throughput_tps });
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 9: multisite sensitivity, Caldera vs Silo vs SN-Silo
// ---------------------------------------------------------------------------

/// The Caldera engine of one figure 9 point: the multi-site records table
/// over `partitions` partitions and its generator with `pct` % multi-site
/// transactions, shared by [`fig9`] and the ledger.
fn fig9_engine(partitions: usize, rows_per_partition: u64, pct: u32) -> (Caldera, Arc<dyn TxnGenerator>) {
    let mut config = CalderaConfig::with_workers(partitions);
    config.oltp.seed = 0xF19;
    let mut builder = Caldera::builder(config);
    builder.set_partitioner(Arc::new(multisite_partitioner(partitions))).unwrap();
    let table = load_multisite_caldera(&mut builder, rows_per_partition, partitions).unwrap();
    let multisite: Arc<dyn TxnGenerator> =
        Arc::new(CalderaMultisiteGenerator::new(MultisiteConfig::paper(table, rows_per_partition, partitions, pct)));
    builder.set_generator(Arc::clone(&multisite));
    (builder.start().unwrap(), multisite)
}

/// Runs Figure 9: throughput as the share of multi-site transactions grows.
pub fn fig9(
    partitions: usize,
    rows_per_partition: u64,
    multisite_percentages: &[u32],
    window: Duration,
) -> Vec<OltpComparisonRow> {
    let mut out = Vec::new();
    for &pct in multisite_percentages {
        let (caldera, _) = fig9_engine(partitions, rows_per_partition, pct);
        let w = caldera.run_oltp_window(window).unwrap();
        out.push(OltpComparisonRow { x: pct, system: "Caldera".into(), tps: w.throughput_tps });
        caldera.shutdown();

        // Silo (single shared instance).
        let table_id = TableId(0);
        let silo = load_multisite_silo(table_id, rows_per_partition, partitions).unwrap();
        let silo_cfg = MultisiteConfig::paper(table_id, rows_per_partition, partitions, pct);
        let runtime = SiloRuntime::new(Arc::clone(&silo), partitions);
        let sw = runtime.run_for(Arc::new(SiloMultisiteGenerator::new(silo_cfg)), window);
        out.push(OltpComparisonRow { x: pct, system: "Silo".into(), tps: sw.throughput_tps });

        // SN-Silo (instance per core + 2PC).
        let sn = load_multisite_sn(partitions, table_id, rows_per_partition).unwrap();
        let sn_cfg = MultisiteConfig::paper(table_id, rows_per_partition, partitions, pct);
        let snw =
            h2tap_baselines::run_sn_silo_benchmark(&sn, Arc::new(SnSiloMultisiteGenerator::new(sn_cfg)), window, 0xF19);
        out.push(OltpComparisonRow { x: pct, system: "SN-Silo".into(), tps: snw.throughput_tps });
        sn.shutdown();
    }
    out
}

// ---------------------------------------------------------------------------
// The work ledger: what each point of figures 5-9 does, counted
// ---------------------------------------------------------------------------

/// Lineitem rows of the ledger's figure 5-7 points: just over one plan chunk
/// (65 536 rows), so the table has a second chunk that no working set below
/// 100 % reaches, which a refresh can reuse.
const LEDGER_LINEITEM_ROWS: u64 = 66_000;
/// OLTP workers (= partitions) of the figure 5-7 and figure 9 points.
const LEDGER_WORKERS: usize = 2;
/// Transactions submitted before each Q6 of a figure 5-7 point.
const LEDGER_TXNS_PER_QUERY: u64 = 10;
/// Transactions of each figure 8 and figure 9 point.
const LEDGER_OLTP_TXNS: u64 = 200;
/// Records per partition of the figure 9 table.
const LEDGER_MULTISITE_ROWS: u64 = 1_000;

/// Counters of [`caldera::HtapStats::metrics`] that count the host's timing,
/// not the work, and so stay out of the ledger.
const LEDGER_TIMED_COUNTERS: [&str; 1] = [
    // One per return of an idle worker's blocking wait: whether a lock
    // release and the next lock request reach a worker in one wake-up or in
    // two is a race.
    "oltp.idle_wakeups",
];

/// Submits `txns` transactions from `generator` one at a time, waiting for
/// each: the `seq`-th goes to worker `seq mod workers`.
fn drive_txns(caldera: &Caldera, generator: &dyn TxnGenerator, txns: u64, seq: &mut u64, rng: &mut SplitMixRng) {
    let workers = caldera.oltp().workers() as u64;
    for _ in 0..txns {
        let home = PartitionId((*seq % workers) as u32);
        let txn = generator.next_txn(home, *seq, rng);
        caldera.execute_txn_on(home, txn).expect("a lone client's transaction has nothing to conflict with");
        *seq += 1;
    }
}

/// Shuts `caldera` down and returns the ledger line of `point`: every
/// counter of its metrics but [`LEDGER_TIMED_COUNTERS`], and each site's
/// simulated time as `olap.sim_ns.<site>`, sorted by name.
fn ledger_line(point: &str, caldera: Caldera) -> String {
    let stats = caldera.shutdown();
    let metrics = stats.metrics();
    let mut counters: BTreeMap<String, u128> = metrics
        .counters()
        .filter(|(name, _)| !LEDGER_TIMED_COUNTERS.contains(name))
        .map(|(name, value)| (name.to_string(), u128::from(value)))
        .collect();
    for site in &stats.olap_sites {
        counters.insert(format!("olap.sim_ns.{}", site.label), site.time.as_nanos());
    }
    let fields: Vec<String> = counters.iter().map(|(name, value)| format!("\"{name}\": {value}")).collect();
    format!("\"{point}\": {{{}}}", fields.join(", "))
}

/// The work ledger: the Caldera points of figures 5-9, each driven by one
/// client that submits a transaction from the figure's own generator and
/// waits for it, with Q6 after every [`LEDGER_TXNS_PER_QUERY`] transactions
/// in figures 5-7. Nothing waits on a clock, so every count is a function
/// of `seed`: one JSON object, one point per line, each mapping counter
/// names (sorted) to what the point's engine counted by its shutdown.
/// `BENCH_ledger.json` holds seed 1; a change to the work a figure does
/// shows as a diff of that file.
pub fn ledger(seed: u64) -> String {
    // Figures 5-7: the working sets x queries per snapshot of `--quick` at
    // ten queries (figure 6 is the row at ten per snapshot), then the rest
    // of figure 7's sharing sweep, every query of a point on one snapshot.
    let grid = [10, 5, 3, 1].into_iter().flat_map(|qps| [1, 16, 100].map(move |ws| (ws, qps, 10)));
    let sharing = [50, 100].map(|queries| (100, queries, queries));
    let mut lines = Vec::new();
    for (working_set_pct, queries_per_snapshot, olap_queries) in grid.chain(sharing) {
        let params = HtapParams {
            lineitem_rows: LEDGER_LINEITEM_ROWS,
            oltp_workers: LEDGER_WORKERS,
            olap_queries,
            queries_per_snapshot,
            working_set_pct,
        };
        let (caldera, table, ycsb) = htap_engine(&params);
        let (mut seq, mut rng) = (0, SplitMixRng::new(seed));
        for _ in 0..olap_queries {
            drive_txns(&caldera, &*ycsb, LEDGER_TXNS_PER_QUERY, &mut seq, &mut rng);
            caldera.run_olap(table, &q6()).expect("Q6 runs on a fault-free engine");
        }
        let point = format!("figs5-7 ws={working_set_pct}% qps={queries_per_snapshot} queries={olap_queries}");
        lines.push(ledger_line(&point, caldera));
    }
    for cores in [1, 2, 4] {
        let (caldera, new_order) = fig8_engine(cores, TpccConfig::default());
        drive_txns(&caldera, &*new_order, LEDGER_OLTP_TXNS, &mut 0, &mut SplitMixRng::new(seed));
        lines.push(ledger_line(&format!("fig8 cores={cores}"), caldera));
    }
    for pct in [0, 50, 100] {
        let (caldera, multisite) = fig9_engine(LEDGER_WORKERS, LEDGER_MULTISITE_ROWS, pct);
        drive_txns(&caldera, &*multisite, LEDGER_OLTP_TXNS, &mut 0, &mut SplitMixRng::new(seed));
        lines.push(ledger_line(&format!("fig9 multisite={pct}%"), caldera));
    }
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

// ---------------------------------------------------------------------------
// Figures 10 & 11: storage layouts on the GPU
// ---------------------------------------------------------------------------

/// One point of Figure 10 or 11.
#[derive(Debug, Clone, Serialize)]
pub struct LayoutRow {
    /// Layout label.
    pub layout: String,
    /// Attributes accessed by the query.
    pub attributes: usize,
    /// GPU used.
    pub gpu: String,
    /// Execution time in seconds.
    pub seconds: f64,
    /// The (exact) aggregate, identical across layouts.
    pub sum: f64,
}

/// Runs Figure 10: `SUM(col1+...+colN)` for N in `attribute_counts`, over a
/// host-resident (UVA) table in DSM, PAX and NSM.
pub fn fig10(rows: u64, attribute_counts: &[usize]) -> Vec<LayoutRow> {
    let mut out = Vec::new();
    for layout in [Layout::Dsm, Layout::PAPER_PAX, Layout::Nsm] {
        let (db, table) = layoutbench::build_layout_table(rows, layout, 99).unwrap();
        let snap = db.snapshot();
        let frozen = snap.table(table).unwrap();
        let engine = Site::gpu(vec![GpuDevice::new(GpuSpec::gtx_980())], DataPlacement::Host(AccessMode::Uva)).unwrap();
        for &n in attribute_counts {
            let outcome =
                engine.execute(frozen, None, &OlapPlan::scan(&layoutbench::sum_query(n))).unwrap().into_scan_outcome();
            out.push(LayoutRow {
                layout: layout.label().to_string(),
                attributes: n,
                gpu: "GTX 980 (Maxwell, UVA)".into(),
                seconds: outcome.time.as_secs_f64(),
                sum: outcome.value,
            });
        }
    }
    out
}

/// Runs Figure 11: the two-attribute query with all data resident in GPU
/// memory, on the Fermi and Maxwell devices.
pub fn fig11(rows: u64) -> Vec<LayoutRow> {
    let mut out = Vec::new();
    for spec in [GpuSpec::tesla_m2090(), GpuSpec::gtx_980()] {
        for layout in [Layout::Dsm, Layout::PAPER_PAX, Layout::Nsm] {
            let (db, table) = layoutbench::build_layout_table(rows, layout, 99).unwrap();
            let snap = db.snapshot();
            let frozen = snap.table(table).unwrap();
            let engine = Site::gpu(vec![GpuDevice::new(spec.clone())], DataPlacement::DeviceResident).unwrap();
            let outcome =
                engine.execute(frozen, None, &OlapPlan::scan(&layoutbench::sum_query(2))).unwrap().into_scan_outcome();
            out.push(LayoutRow {
                layout: layout.label().to_string(),
                attributes: 2,
                gpu: format!("{} ({})", spec.name, spec.architecture.name()),
                seconds: outcome.time.as_secs_f64(),
                sum: outcome.value,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// hostperf: real wall-clock of the shared host data path
// ---------------------------------------------------------------------------

/// One point of hostperf's `refresh` leg: what re-materialising Q6's columns
/// for a new snapshot costs when `dirty_chunks` of the table's chunks were
/// written since the base snapshot, beside a from-scratch materialisation of
/// the same snapshot.
#[derive(Debug, Clone, Serialize)]
pub struct RefreshRow {
    /// Share of the chunks asked to be dirtied, in percent.
    pub dirty_pct: u32,
    /// Chunks written between the base snapshot and the measured one.
    pub dirty_chunks: u64,
    /// Chunks the table has.
    pub chunks: u64,
    /// Fastest `MaterializedColumns::build` from the base, on a fresh
    /// snapshot per pass.
    pub rebuild_ms: f64,
    /// Fastest `MaterializedColumns::new` under the same conditions.
    pub cold_ms: f64,
    /// Median over passes of one pass's rebuild time over the cold time
    /// measured right after it: the figure the release gate reads, since
    /// drift between the two legs of a pass cancels in its ratio.
    pub rebuild_cold_ratio: f64,
    /// Column chunks the rebuild shared with the base.
    pub chunks_reused: u64,
    /// Column chunks the rebuild gathered.
    pub chunks_rebuilt: u64,
}

/// hostperf's `snapshot` leg: what a refresh pays before its query can
/// start, on a table nothing was written to, beside one `column_into` of
/// one column of the same table, timed in the same process.
#[derive(Debug, Clone, Serialize)]
pub struct SnapshotRow {
    /// Rows of the table (one partition, 11 `Int64` columns, `PAPER_PAX`).
    pub rows: u64,
    /// Median `Database::snapshot()`.
    pub snapshot_us: f64,
    /// Median first `SnapshotTable::row_count()` on the new snapshot.
    pub row_count_us: f64,
    /// Median drop of the snapshot it supersedes.
    pub drop_us: f64,
    /// Median `SnapshotTable::column_into` of one whole column.
    pub column_into_us: f64,
}

impl SnapshotRow {
    /// Snapshot, first row count and drop together, per `column_into`.
    pub fn ratio(&self) -> f64 {
        (self.snapshot_us + self.row_count_us + self.drop_us) / self.column_into_us.max(1e-9)
    }
}

/// One point of hostperf's `kernel` leg: three compilations of the chunk
/// kernel (`operators::KERNEL_COMPILATIONS`) — the row-at-a-time
/// `process_chunk_reference`, the vectorized body built for the baseline ISA
/// and the same body dispatched to the widest ISA the host has
/// (`process_chunk`) — timed in alternation over one warm materialisation,
/// in one process.
#[derive(Debug, Clone, Serialize)]
pub struct KernelRow {
    /// Plan label ("q6", "pass-10%", "dense", "brand-join", "sparse-join", ...).
    pub plan: &'static str,
    /// Fastest pass of the row-at-a-time reference over every chunk, per row.
    pub reference_ns_per_row: f64,
    /// Fastest pass of the baseline compilation over every chunk, per row.
    pub baseline_ns_per_row: f64,
    /// Fastest pass of the dispatched compilation over every chunk, per row.
    pub dispatched_ns_per_row: f64,
}

/// Result of the hostperf experiment: its kernel, refresh and snapshot legs.
#[derive(Debug, Clone)]
pub struct HostPerfSummary {
    /// The `kernel` leg: Q6, one predicate passing 0.04 % to 100 % of the
    /// rows, the dense plan, and the brand join three ways: grouped by brand
    /// and by part key over the direct join index, and by brand over the
    /// hash fallback.
    pub kernel: Vec<KernelRow>,
    /// The compilation `process_chunk` dispatches to on this host: "avx2"
    /// or "baseline".
    pub isa: &'static str,
    /// The `refresh` leg: 0 %, 25 % and 100 % of the chunks dirty.
    pub refresh: Vec<RefreshRow>,
    /// The `snapshot` leg.
    pub snapshot: SnapshotRow,
}

/// Measures **real wall-clock** (not simulated) of the shared host data
/// path in three legs: the chunk kernel compiled three ways (row-at-a-time
/// reference, vectorized for the baseline ISA, vectorized as dispatched),
/// which must agree bitwise (asserted here); a refresh's re-materialisation
/// against a build from scratch; and a snapshot's take, first row count and
/// drop against one column copy. Every leg compares code within this one
/// process, so its ratios are signal even where absolute times are not.
pub fn fig_hostperf(lineitem_rows: u64, part_keys: u64, repeats: u32) -> HostPerfSummary {
    use h2tap_common::{GroupRow, RecordId, Value};
    use h2tap_olap::operators as ops;
    use h2tap_storage::SnapshotTable;
    use std::time::Instant;

    // Load both tables once; every leg queries the same frozen snapshot.
    let mut builder = Caldera::builder(CalderaConfig::with_workers(1));
    let lineitem = tpch::load_lineitem(&mut builder, Layout::Dsm, lineitem_rows, 7).unwrap();
    let part = tpch::load_part(&mut builder, Layout::Dsm, part_keys, 11).unwrap();
    // The same parts plus one at key 2^40 that passes every size filter:
    // that one key makes the key span sparse, so joining against this table
    // takes the join index's hash fallback on the very probes the dense
    // `part` answers from its direct index.
    let sparse_part = builder.create_table("part_sparse", tpch::part_schema(), Layout::Dsm).unwrap();
    let mut rng = SplitMixRng::new(11);
    for key in 0..part_keys {
        builder.load(sparse_part, key as i64, &tpch::part_row(key, &mut rng)).unwrap();
    }
    let far = 1u64 << 40;
    let mut far_row = tpch::part_row(far, &mut rng);
    far_row[tpch::part_columns::SIZE] = Value::Int32(1);
    builder.load(sparse_part, far as i64, &far_row).unwrap();
    let snap = builder.database().unwrap().snapshot();
    let fact = snap.table(lineitem).unwrap();
    let dim = snap.table(part).unwrap();
    let sparse_dim = snap.table(sparse_part).unwrap();

    // The kernel leg. Kernel time differs by tens of percent between two
    // binaries from code placement alone; all three compilations live in
    // this one, so their ratios here are signal. `l_shipdate` is uniform
    // over 2 526 days, so a span of days is a selectivity.
    let pass = |plan: &'static str, days: f64| {
        let predicates = vec![Predicate::between(tpch::columns::SHIPDATE, 0.0, days - 1.0)];
        (plan, OlapPlan::scan(&ScanAggQuery { predicates, aggregate: q6().aggregate }), None)
    };
    let kernel_plans = [
        ("q6", OlapPlan::scan(&q6()), None),
        pass("pass-0.04%", 1.0),
        pass("pass-1%", 25.0),
        pass("pass-10%", 253.0),
        pass("pass-50%", 1263.0),
        pass("pass-100%", 2526.0),
        ("dense", OlapPlan::scan(&ScanAggQuery::aggregate_only(q6().aggregate)), None),
        ("brand-join", tpch::brand_revenue_plan(30), Some(dim)),
        ("partkey-join", tpch::partkey_revenue_plan(30), Some(dim)),
        ("sparse-join", tpch::brand_revenue_plan(30), Some(sparse_dim)),
    ];
    let mut cols: Vec<usize> = kernel_plans.iter().flat_map(|(_, plan, _)| plan.probe_columns_accessed()).collect();
    cols.sort_unstable();
    cols.dedup();
    let mat = Arc::new(ops::MaterializedColumns::new(fact, cols).unwrap());
    let kernels = ops::KERNEL_COMPILATIONS;
    let kernel = kernel_plans
        .into_iter()
        .map(|(label, plan, build)| {
            let group_col = ops::check_plan(&plan, build.is_some()).unwrap();
            let hash =
                build.map(|b| Arc::new(ops::build_hash_table(b, plan.join.as_ref().unwrap(), group_col).unwrap()));
            // Bound once, outside the timed loop: only the kernels are timed.
            let data = ops::PlanData { mat: Arc::clone(&mat), hash };
            let bound = data.bind(&plan).unwrap();
            // Each compilation's answer over every chunk, bit for bit (f64
            // `==` would miss a -0.0/+0.0 drift): the only thing the three
            // may differ in is time.
            let answers = kernels.map(|kernel| {
                let partials = (0..mat.chunk_count()).map(|i| kernel(&bound, mat.chunk_range(i))).collect();
                let (groups, totals) = ops::merge_partials(&plan, partials);
                let bits = |g: &GroupRow| (g.key, g.rows, g.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
                (totals.joined, groups.iter().map(bits).collect::<Vec<_>>())
            });
            assert!(answers.iter().all(|a| *a == answers[0]), "{label}: the three compilations must be bit-identical");
            // [reference, baseline, dispatched]: the fastest of alternating
            // passes.
            let mut ns_per_row = [f64::INFINITY; 3];
            for _ in 0..3 * repeats {
                for (best, kernel) in ns_per_row.iter_mut().zip(kernels) {
                    let started = Instant::now();
                    for i in 0..mat.chunk_count() {
                        std::hint::black_box(kernel(&bound, mat.chunk_range(i)));
                    }
                    *best = best.min(started.elapsed().as_secs_f64() * 1e9 / lineitem_rows as f64);
                }
            }
            let [reference_ns_per_row, baseline_ns_per_row, dispatched_ns_per_row] = ns_per_row;
            KernelRow { plan: label, reference_ns_per_row, baseline_ns_per_row, dispatched_ns_per_row }
        })
        .collect();
    #[cfg(target_arch = "x86_64")]
    let isa = if std::arch::is_x86_feature_detected!("avx2") { "avx2" } else { "baseline" };
    #[cfg(not(target_arch = "x86_64"))]
    let isa = "baseline";

    // The refresh leg: a base materialisation of Q6's columns, then writes
    // to a share of the chunks (one row each, rewritten with the values it
    // holds — enough to shadow-copy a page and dirty the chunk), then per
    // repeat a fresh snapshot re-materialised from the base and from
    // scratch. A fresh snapshot per timing, as a real refresh takes. Dirty
    // pages stay dirty relative to the base, so the legs run in ascending
    // order on the one database.
    let db = builder.database().unwrap();
    let cols = q6().columns_accessed();
    let base_snap = db.snapshot();
    let base = ops::MaterializedColumns::new(base_snap.table(lineitem).unwrap(), cols.clone()).unwrap();
    let chunks = base.chunk_count() as u64;
    let mut dirtied = 0u64;
    let mut refresh = Vec::new();
    for dirty_pct in [0u32, 25, 100] {
        let dirty_chunks = (chunks * u64::from(dirty_pct)).div_ceil(100);
        for chunk in dirtied..dirty_chunks {
            let rid = RecordId::new(PartitionId(0), lineitem, base.chunk_range(chunk as usize).start as u64);
            db.update(rid, &db.read(rid).unwrap()).unwrap();
        }
        dirtied = dirtied.max(dirty_chunks);
        // Rebuild and cold timings alternate, so machine drift hits both.
        let timed = |derive: &dyn Fn(&SnapshotTable) -> ops::MaterializedColumns| {
            let snap = db.snapshot();
            let started = Instant::now();
            let mat = derive(snap.table(lineitem).unwrap());
            (started.elapsed().as_secs_f64(), mat.work())
        };
        let (mut rebuild_secs, mut cold_secs, mut work) = (f64::INFINITY, f64::INFINITY, ops::BuildWork::default());
        // Both legs of the 100 %-dirty row time the same gather, so its gate
        // reads the median of the passes' paired ratios, over as many passes
        // as the kernel leg.
        let mut ratios = Vec::new();
        for _ in 0..3 * repeats {
            let (rebuild, did) = timed(&|t| ops::MaterializedColumns::build(t, cols.clone(), &[&base]).unwrap());
            work = did;
            let cold = timed(&|t| ops::MaterializedColumns::new(t, cols.clone()).unwrap()).0;
            rebuild_secs = rebuild_secs.min(rebuild);
            cold_secs = cold_secs.min(cold);
            ratios.push(rebuild / cold.max(1e-12));
        }
        refresh.push(RefreshRow {
            dirty_pct,
            dirty_chunks,
            chunks,
            rebuild_ms: rebuild_secs * 1e3,
            cold_ms: cold_secs * 1e3,
            rebuild_cold_ratio: median(&mut ratios),
            chunks_reused: work.chunks_reused,
            chunks_rebuilt: work.chunks_rebuilt,
        });
    }

    let snapshot = snapshot_leg(lineitem_rows, (3 * repeats).max(21));
    HostPerfSummary { kernel, isa, refresh, snapshot }
}

/// Median of `values` (the mean of the middle two for an even count); NaN
/// for none.
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// hostperf's `snapshot` leg over a `rows`-row table: per pass, a snapshot,
/// its first row count, the drop of the snapshot before it, and a copy of
/// one whole column out of it; medians over `passes`. Nothing is written,
/// so a refresh should cost the table's segments, not its pages.
fn snapshot_leg(rows: u64, passes: u32) -> SnapshotRow {
    use h2tap_common::{AttrType, Schema, Value};
    use h2tap_storage::Database;
    use std::time::Instant;

    const COLUMNS: usize = 11;
    let db = Database::new(1);
    let table =
        db.create_table("snapshot_leg", Schema::homogeneous("c", COLUMNS, AttrType::Int64), Layout::PAPER_PAX).unwrap();
    for start in (0..rows as i64).step_by(4096) {
        let records: Vec<[Value; COLUMNS]> =
            (start..(start + 4096).min(rows as i64)).map(|row| std::array::from_fn(|_| Value::Int64(row))).collect();
        let inserts: Vec<_> = records.iter().map(|record| (PartitionId(0), table, &record[..])).collect();
        db.commit(&[], &inserts).unwrap();
    }
    let us = |started: Instant| started.elapsed().as_secs_f64() * 1e6;
    let mut cells = vec![0u64; rows as usize];
    let mut previous = db.snapshot();
    let [mut take, mut count, mut release, mut copy] = [(); 4].map(|()| Vec::with_capacity(passes as usize));
    for _ in 0..passes {
        let started = Instant::now();
        let snapshot = db.snapshot();
        take.push(us(started));
        let frozen = snapshot.table(table).unwrap();
        let started = Instant::now();
        std::hint::black_box(frozen.row_count());
        count.push(us(started));
        let started = Instant::now();
        drop(std::mem::replace(&mut previous, Arc::clone(&snapshot)));
        release.push(us(started));
        let started = Instant::now();
        frozen.column_into(0, 0..rows as usize, &mut cells);
        copy.push(us(started));
        std::hint::black_box(&cells);
    }
    SnapshotRow {
        rows,
        snapshot_us: median(&mut take),
        row_count_us: median(&mut count),
        drop_us: median(&mut release),
        column_into_us: median(&mut copy),
    }
}

// ---------------------------------------------------------------------------
// chaos: availability and exactness under injected faults
// ---------------------------------------------------------------------------

/// Per-query wall-clock latency percentiles of one chaos phase, in
/// milliseconds, so tail behaviour under faults (retries, breaker trips,
/// re-routes) is visible next to the availability counts.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct LatencyPercentiles {
    /// Median per-query latency.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Slowest observed query.
    pub max_ms: f64,
}

impl LatencyPercentiles {
    /// Extracts the percentiles from a histogram of per-query *seconds*.
    pub fn from_secs_histogram(h: &Histogram) -> Self {
        let ms = |v: Option<f64>| v.unwrap_or(0.0) * 1e3;
        Self { p50_ms: ms(h.p50()), p95_ms: ms(h.p95()), p99_ms: ms(h.p99()), max_ms: ms(h.max()) }
    }

    /// The `{"p50_ms":..}` object `BENCH_chaos.json` embeds per phase.
    pub fn json(&self) -> String {
        format!(
            "{{\"p50_ms\":{:.4},\"p95_ms\":{:.4},\"p99_ms\":{:.4},\"max_ms\":{:.4}}}",
            self.p50_ms, self.p95_ms, self.p99_ms, self.max_ms
        )
    }
}

/// One fault-plan phase of the chaos experiment.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosPhaseRow {
    /// Phase label ("fault_free", "transient_storm", "device_loss").
    pub phase: &'static str,
    /// Concurrent client threads.
    pub clients: u32,
    /// Queries issued by the phase.
    pub queries: u64,
    /// Queries that returned an error to a client (the ladder failed).
    pub client_errors: u64,
    /// Successful queries whose bits differed from the serial oracle.
    pub wrong_answers: u64,
    /// `(queries - client_errors) / queries`.
    pub availability: f64,
    /// Typed faults the dispatch layer observed during the phase.
    pub faults: u64,
    /// In-place transient retries during the phase.
    pub retries: u64,
    /// Next-best-site fallbacks during the phase.
    pub fallbacks: u64,
    /// Times the GPU site's breaker tripped during the phase.
    pub gpu_quarantines: u64,
    /// Wall-clock of the whole phase.
    pub wall_ms: f64,
    /// Per-query wall-clock latency percentiles (p99-under-faults).
    pub latency: LatencyPercentiles,
}

/// Result of the chaos experiment: the per-phase rows plus the headline
/// gate numbers (worst-phase availability, total wrong answers, how fast
/// the engine recovered from a permanent device loss).
#[derive(Debug, Clone)]
pub struct ChaosSummary {
    /// One row per fault-plan phase, in execution order.
    pub phases: Vec<ChaosPhaseRow>,
    /// The minimum availability across every phase.
    pub availability: f64,
    /// Total bit-mismatches against the oracle (must be zero).
    pub wrong_answers: u64,
    /// Total client-visible errors (must be zero: every fault is absorbed).
    pub client_errors: u64,
    /// Wall-clock latency of the serial query during which the scheduled
    /// device loss fired — detection, breaker trip and re-route included,
    /// i.e. the time a client waited for the engine to recover.
    pub time_to_recover_ms: f64,
    /// The GPU breaker's position after the device-loss phase
    /// ("quarantined"/"half_open": the dead device stayed fenced off).
    pub final_gpu_state: &'static str,
}

fn chaos_engine(lineitem_rows: u64, fault_plan: Option<FaultPlan>) -> (Caldera, TableId) {
    let mut config = CalderaConfig::with_workers(2);
    config.olap_cpu_cores = 8;
    // Device-resident data so placement genuinely prefers the GPU — the
    // site the fault plans then sabotage.
    config.olap_device.placement = DataPlacement::DeviceResident;
    config.snapshot_policy = SnapshotPolicy::Manual;
    config.olap_admission_in_flight = Some(8);
    config.fault_plan = fault_plan;
    let mut builder = Caldera::builder(config);
    let lineitem = tpch::load_lineitem(&mut builder, Layout::Dsm, lineitem_rows, 7).unwrap();
    (builder.start().unwrap(), lineitem)
}

/// Runs one fault-plan phase: `clients` threads issue `per_client` Q6 scans
/// each against a fresh engine under `fault_plan`, counting (not asserting)
/// client-visible errors and oracle mismatches so the caller can report and
/// gate on them.
fn chaos_phase(
    phase: &'static str,
    lineitem_rows: u64,
    fault_plan: Option<FaultPlan>,
    clients: u32,
    per_client: u32,
    oracle_bits: u64,
) -> (ChaosPhaseRow, caldera::HtapStats) {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;
    use std::time::Instant;

    let (caldera, lineitem) = chaos_engine(lineitem_rows, fault_plan);
    let scan = q6();
    let caldera = Arc::new(caldera);
    let errors = Arc::new(AtomicU64::new(0));
    let wrong = Arc::new(AtomicU64::new(0));
    let hist = Arc::new(std::sync::Mutex::new(Histogram::new()));
    let barrier = Arc::new(Barrier::new(clients as usize + 1));
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let caldera = Arc::clone(&caldera);
            let barrier = Arc::clone(&barrier);
            let errors = Arc::clone(&errors);
            let wrong = Arc::clone(&wrong);
            let hist = Arc::clone(&hist);
            let scan = scan.clone();
            std::thread::spawn(move || {
                let mut local = Histogram::new();
                barrier.wait();
                for _ in 0..per_client {
                    let started = Instant::now();
                    match caldera.run_olap(lineitem, &scan) {
                        Ok(out) => {
                            if out.value.to_bits() != oracle_bits {
                                wrong.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    local.record(started.elapsed().as_secs_f64());
                }
                hist.lock().unwrap().merge(&local);
            })
        })
        .collect();
    barrier.wait();
    let started = Instant::now();
    for h in handles {
        h.join().unwrap();
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    let caldera = Arc::try_unwrap(caldera).unwrap_or_else(|_| panic!("all clients joined"));
    let stats = caldera.shutdown();
    let queries = u64::from(clients) * u64::from(per_client);
    let client_errors = errors.load(Ordering::Relaxed);
    let row = ChaosPhaseRow {
        phase,
        clients,
        queries,
        client_errors,
        wrong_answers: wrong.load(Ordering::Relaxed),
        availability: if queries > 0 { (queries - client_errors) as f64 / queries as f64 } else { 1.0 },
        faults: stats.resilience.faults,
        retries: stats.resilience.retries,
        fallbacks: stats.resilience.fallbacks,
        gpu_quarantines: stats
            .olap_sites
            .iter()
            .find(|s| s.target == OlapTarget::Gpu)
            .map_or(0, |s| s.health.quarantines),
        wall_ms,
        latency: LatencyPercentiles::from_secs_histogram(&hist.lock().unwrap()),
    };
    (row, stats)
}

/// The chaos experiment: the PR-9 concurrency harness under seeded fault
/// plans. Three phases against identical data — fault-free (the oracle and
/// the latency baseline), a transient-fault storm (retries must absorb it),
/// and a mid-stream permanent GPU loss (the breaker must quarantine the
/// dead device and re-route every query). Every successful answer is
/// bit-checked against the fault-free serial oracle; the summary carries
/// the availability/exactness gate numbers plus a serially measured
/// time-to-recover for the device loss.
pub fn fig_chaos(lineitem_rows: u64, clients: u32, per_client: u32) -> ChaosSummary {
    use std::time::Instant;

    // Serial oracle on a clean engine: the law for every phase below.
    let (clean, lineitem) = chaos_engine(lineitem_rows, None);
    let oracle_bits = clean.run_olap(lineitem, &q6()).unwrap().value.to_bits();
    clean.shutdown();

    let total_queries = u64::from(clients) * u64::from(per_client);
    let mut loss_plan = FaultPlan::transient_storm(0xC1DA05);
    // Kill the device roughly a third of the way through the stream, with
    // the storm still raging around it.
    loss_plan.device_loss_at = Some(DeviceLossPoint { device: 0, launch: (total_queries / 3).max(2) });

    let phases_spec: Vec<(&'static str, Option<FaultPlan>)> = vec![
        ("fault_free", None),
        ("transient_storm", Some(FaultPlan::transient_storm(0xC1DA))),
        ("device_loss", Some(loss_plan)),
    ];
    let mut phases = Vec::new();
    let mut final_gpu_state = "closed";
    for (phase, plan) in phases_spec {
        let (row, stats) = chaos_phase(phase, lineitem_rows, plan, clients, per_client, oracle_bits);
        if phase == "device_loss" {
            final_gpu_state = stats
                .olap_sites
                .iter()
                .find(|s| s.target == OlapTarget::Gpu)
                .map_or("closed", |s| s.health.state.name());
        }
        phases.push(row);
    }

    // Time-to-recover, measured serially so the number is attributable: one
    // client, a scheduled loss a few launches in, and the wall-clock of the
    // query that absorbs the loss (fault -> breaker trip -> re-route -> CPU
    // answer) is the recovery time a caller would observe.
    let mut serial_plan = FaultPlan::quiet(0x0C1DA);
    serial_plan.device_loss_at = Some(DeviceLossPoint { device: 0, launch: 4 });
    let (caldera, lineitem) = chaos_engine(lineitem_rows, Some(serial_plan));
    let scan = q6();
    let mut time_to_recover_ms = 0.0;
    for _ in 0..16 {
        let started = Instant::now();
        let out = caldera.run_olap(lineitem, &scan).unwrap();
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        assert_eq!(out.value.to_bits(), oracle_bits, "the recovery query must stay exact");
        if time_to_recover_ms == 0.0 && caldera.stats().resilience.faults > 0 {
            time_to_recover_ms = elapsed_ms;
        }
    }
    caldera.shutdown();

    ChaosSummary {
        availability: phases.iter().map(|p| p.availability).fold(1.0, f64::min),
        wrong_answers: phases.iter().map(|p| p.wrong_answers).sum(),
        client_errors: phases.iter().map(|p| p.client_errors).sum(),
        time_to_recover_ms,
        final_gpu_state,
        phases,
    }
}

// ---------------------------------------------------------------------------
// Trace capture: the --trace-out artifact
// ---------------------------------------------------------------------------

/// Runs a brand-revenue join stream through the full engine with tracing
/// enabled and returns the Chrome trace-event JSON (Perfetto-loadable).
/// The stream shares one snapshot so the trace shows the cold dispatch
/// (cache misses, materialisation, hash build) followed by warm cache-hit
/// repeats — the shape `--trace-out` is meant to make visible.
pub fn capture_trace(lineitem_rows: u64, part_keys: u64, queries: u32) -> String {
    let mut config = CalderaConfig::with_workers(2);
    config.observability.tracing = true;
    config.snapshot_policy = SnapshotPolicy::EveryN { queries: 1_000 };
    let mut builder = Caldera::builder(config);
    let lineitem = tpch::load_lineitem(&mut builder, Layout::PAPER_PAX, lineitem_rows, 7).unwrap();
    let part = tpch::load_part(&mut builder, Layout::PAPER_PAX, part_keys, 11).unwrap();
    let caldera = builder.start().unwrap();
    let plan = tpch::brand_revenue_plan(30);
    for _ in 0..queries.max(1) {
        caldera.run_olap_plan(lineitem, Some(part), &plan).unwrap();
    }
    let json = caldera.chrome_trace_json();
    caldera.shutdown();
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_five_rows_in_generation_order() {
        let rows = table1();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].gpu, "GeForce 8800");
        assert_eq!(rows[4].interface, "NVLink");
    }

    #[test]
    fn hostperf_vectorized_kernel_beats_the_reference() {
        // Small scale to stay fast in tier-1; fig_hostperf itself asserts the
        // three kernel compilations are bit-identical.
        let s = fig_hostperf(60_000, 4_000, 2);
        // The kernel leg timed all three compilations at all ten points.
        assert_eq!(s.kernel.len(), 10);
        for k in &s.kernel {
            assert!(k.reference_ns_per_row > 0.0 && k.baseline_ns_per_row > 0.0 && k.dispatched_ns_per_row > 0.0);
            // Wall-clock ratios mean something only in optimised builds: a
            // debug build keeps the vectorized loops' bounds checks and
            // closure frames.
            #[cfg(not(debug_assertions))]
            assert!(
                k.dispatched_ns_per_row < k.reference_ns_per_row,
                "kernel {}: vectorization must beat row-at-a-time: {:.3} vs {:.3} ns/row",
                k.plan,
                k.dispatched_ns_per_row,
                k.reference_ns_per_row
            );
        }
        // The refresh leg rebuilt exactly the chunks it dirtied and shared
        // the rest with the base, per column (60 000 rows are one chunk).
        let work: Vec<_> = s.refresh.iter().map(|r| (r.dirty_pct, r.dirty_chunks, r.chunks)).collect();
        assert_eq!(work, [(0, 0, 1), (25, 1, 1), (100, 1, 1)]);
        for r in &s.refresh {
            let columns = q6().columns_accessed().len() as u64;
            assert_eq!(r.chunks_rebuilt, r.dirty_chunks * columns, "{r:?}");
            assert_eq!(r.chunks_reused, (r.chunks - r.dirty_chunks) * columns, "{r:?}");
            assert!(r.rebuild_ms > 0.0 && r.cold_ms > 0.0 && r.rebuild_cold_ratio > 0.0, "{r:?}");
        }
        // The snapshot leg timed every step on the whole table.
        assert_eq!(s.snapshot.rows, 60_000);
        assert!(s.snapshot.column_into_us > 0.0 && s.snapshot.ratio() > 0.0, "{:?}", s.snapshot);
    }

    /// Seed 1's ledger, built once for the tests that read it.
    fn seed1_ledger() -> &'static str {
        static LEDGER: std::sync::OnceLock<String> = std::sync::OnceLock::new();
        LEDGER.get_or_init(|| ledger(1))
    }

    /// A ledger's counts, keyed by point and counter.
    fn ledger_counts(text: &str) -> BTreeMap<(String, String), u128> {
        let point = |line: &str| {
            let (point, fields) = line.split_once("\": {")?;
            let counts = fields.strip_suffix('}')?.split(", ").map(|field| {
                let (counter, value) = field.strip_prefix('"')?.split_once("\": ")?;
                let Ok(count) = value.parse() else { return None };
                Some(((point.to_string(), counter.to_string()), count))
            });
            counts.collect::<Option<Vec<_>>>()
        };
        let lines = text.lines().filter_map(|line| line.trim_end_matches(',').strip_prefix('"'));
        lines.flat_map(|line| point(line).unwrap_or_else(|| panic!("not a ledger line: {line}"))).collect()
    }

    #[test]
    fn ledger_matches_the_committed_file() {
        // Seed 2's ledger is built beside seed 1's: the ledger must depend
        // on its seed.
        std::thread::scope(|scope| {
            let seed2 = scope.spawn(|| ledger(2));
            let fresh = seed1_ledger();
            assert_ne!(seed2.join().unwrap(), fresh, "seeds 1 and 2 drove the same work");
        });
        let (committed, fresh) = (include_str!("../../../BENCH_ledger.json"), seed1_ledger());
        if fresh != committed {
            let (was, now) = (ledger_counts(committed), ledger_counts(fresh));
            let keys: std::collections::BTreeSet<_> = was.keys().chain(now.keys()).collect();
            let diffs: Vec<String> = keys
                .into_iter()
                .filter(|key| was.get(*key) != now.get(*key))
                .map(|key @ (point, counter)| format!("  {point}: {counter}: {:?} -> {:?}", was.get(key), now.get(key)))
                .collect();
            panic!(
                "seed 1's work ledger differs from BENCH_ledger.json{}:\n{}\nIf the change in work is intended, \
                 regenerate the file with `cargo run --release -p h2tap-bench --bin experiments -- ledger --json` and \
                 commit it.",
                if diffs.is_empty() { " in its formatting only" } else { "" },
                diffs.join("\n")
            );
        }
    }

    #[test]
    fn ledger_shows_the_shapes_of_figures_5_to_9() {
        let counts = ledger_counts(seed1_ledger());
        let count = |point: &str, counter: &str| {
            let key = (point.to_string(), counter.to_string());
            *counts.get(&key).unwrap_or_else(|| panic!("the ledger has no {counter} at {point}"))
        };
        // Figures 5-7: a larger working set dirties more pages between two
        // snapshots, and a snapshot shared by more queries is taken less
        // often, so fewer pages are copied on write.
        let copied =
            |ws: u32, qps: u32| count(&format!("figs5-7 ws={ws}% qps={qps} queries=10"), "storage.pages_copied");
        for qps in [10, 5, 3, 1] {
            let by_ws = [1, 16, 100].map(|ws| copied(ws, qps));
            assert!(by_ws.is_sorted_by(|a, b| a < b), "pages copied at {qps} queries per snapshot: {by_ws:?}");
        }
        for ws in [1, 16, 100] {
            let by_qps = [1, 3, 5, 10].map(|qps| copied(ws, qps));
            assert!(by_qps.is_sorted_by(|a, b| a > b), "pages copied at {ws} % working set: {by_qps:?}");
        }
        // Figure 9: a single-site transaction sends no lock message, and
        // messages per transaction rise with the share of multi-site ones.
        let per_txn = [0, 50, 100].map(|pct| {
            let point = format!("fig9 multisite={pct}%");
            count(&point, "oltp.messages") as f64 / count(&point, "oltp.committed") as f64
        });
        assert_eq!(per_txn[0], 0.0, "messages per transaction at 0 % multi-site");
        assert!(per_txn.is_sorted_by(|a, b| a < b), "messages per transaction: {per_txn:?}");
    }

    #[test]
    fn fig1_shape_matches_the_paper() {
        let rows = fig1(256 << 20);
        let get = |gpu: &str, mode: &str| {
            rows.iter().find(|r| r.gpu.contains(gpu) && r.mode == mode).map(|r| r.total_secs).unwrap()
        };
        // Fermi: UVA slower than memcpy. Maxwell: UVA faster than memcpy,
        // UM fastest overall.
        assert!(get("Fermi", "uva") > get("Fermi", "memcpy"));
        assert!(get("Maxwell", "uva") < get("Maxwell", "memcpy"));
        assert!(get("Maxwell", "um") < get("Maxwell", "uva"));
        assert!(get("Maxwell", "memcpy") < get("Fermi", "memcpy"));
    }

    #[test]
    fn fig4_gpu_beats_cpu_and_monet_beats_dbmsc() {
        let rows = fig4(60_000);
        let get = |name: &str| rows.iter().find(|r| r.engine.contains(name)).unwrap();
        let caldera = get("Caldera");
        let monet = get("MonetDB");
        let dbmsc = get("DBMS-C");
        assert!(caldera.seconds < monet.seconds);
        assert!(monet.seconds <= dbmsc.seconds);
        // All engines agree on the revenue.
        assert!((caldera.revenue - monet.revenue).abs() < 1e-6);
        assert!((caldera.revenue - dbmsc.revenue).abs() < 1e-6);
    }

    #[test]
    fn fig_placement_shows_the_cpu_gpu_crossover() {
        let rows = fig_placement(&[5_000, 120_000], 24);
        let get =
            |placement: &str, n: u64| rows.iter().find(|r| r.placement == placement && r.lineitem_rows == n).unwrap();
        // Tiny scans route to the CPU regardless of residency: the fixed GPU
        // dispatch cost dominates at this size.
        assert_eq!(get("host-uva", 5_000).chosen, "cpu");
        assert_eq!(get("device-resident", 5_000).chosen, "cpu");
        // Large scans route to the GPU: device bandwidth (resident) or the
        // interconnect (UVA) beats per-tuple-bound CPU execution.
        assert_eq!(get("host-uva", 120_000).chosen, "gpu");
        assert_eq!(get("device-resident", 120_000).chosen, "gpu");
        // The routing decisions agree with the sites' actual simulated times.
        for r in &rows {
            let faster = if r.cpu_secs < r.gpu_secs { "cpu" } else { "gpu" };
            assert_eq!(r.chosen, faster, "{r:?}");
        }
    }

    #[test]
    fn fig_operators_routes_join_plans_differently_than_scans() {
        let rows = fig_operators(60_000, 2_000, 24);
        assert_eq!(rows.len(), 8);
        // Host-resident data: streaming the scan favours the GPU, but the
        // join's random probes flip every plan configuration to the CPU —
        // the acceptance contrast of the operator subsystem.
        for r in rows.iter().filter(|r| r.placement == "host-uva") {
            assert_eq!(r.scan_chosen, "gpu", "{r:?}");
            assert_eq!(r.plan_chosen, "cpu", "{r:?}");
            assert!(r.cpu_secs < r.gpu_secs, "routing must agree with the measured site times: {r:?}");
        }
        // Device-resident hash state caps the probe waste: plans stay where
        // the scan goes.
        for r in rows.iter().filter(|r| r.placement == "device-resident") {
            assert_eq!(r.scan_chosen, "gpu", "{r:?}");
            assert_eq!(r.plan_chosen, "gpu", "{r:?}");
        }
        // The sweep knobs act: wider size range → more joined rows; partkey
        // grouping → more groups.
        let get = |placement: &str, size: i32, group: &str| {
            rows.iter().find(|r| r.placement == placement && r.max_size == size && r.group_by == group).unwrap()
        };
        assert!(get("host-uva", 50, "brand").joined_rows > get("host-uva", 12, "brand").joined_rows);
        assert!(get("host-uva", 50, "partkey").groups > get("host-uva", 50, "brand").groups);
        // Every group is one of the 25 brands (empty brands may drop out at
        // this scale).
        assert!(get("host-uva", 50, "brand").groups <= tpch::PART_BRANDS);
        assert!(get("host-uva", 50, "brand").groups > 1);
    }

    #[test]
    fn fig_multigpu_routes_a_workload_only_the_multi_gpu_site_wins() {
        let rows = fig_multigpu(&[5_000, 150_000], 24);
        assert_eq!(rows.len(), 16);
        let row = |mix: &str, placement: &str, lineitem_rows: u64| {
            rows.iter()
                .find(|r| r.mix == mix && r.placement == placement && r.lineitem_rows == lineitem_rows)
                .unwrap_or_else(|| panic!("no row {mix} / {placement} / {lineitem_rows}"))
        };
        // Acceptance: at least one workload routes to a device mix's GPU
        // site and neither the CPU nor the lone GTX 980 beats it there.
        assert!(
            rows.iter().any(|r| r.devices > 1
                && r.chosen == "gpu"
                && r.gpu_ms < r.cpu_ms
                && r.gpu_ms < row("1x GTX 980", &r.placement, r.lineitem_rows).gpu_ms),
            "some workload must route to a device mix that beats one card: {rows:?}"
        );
        // Tiny scans keep routing to the CPU whatever the device list — the
        // argmin did not degenerate to "always GPU".
        assert!(rows.iter().filter(|r| r.lineitem_rows == 5_000).all(|r| r.chosen == "cpu"), "{rows:?}");
        // Every large device-resident homogeneous-pair configuration picks
        // the pair: halving the critical shard beats one card outright.
        let pair = row("2x GTX 980", "device-resident", 150_000);
        assert_eq!(pair.chosen, "gpu", "{pair:?}");
        assert!(pair.gpu_ms < row("1x GTX 980", "device-resident", 150_000).gpu_ms, "{pair:?}");
        // The fast+slow mix still beats the lone GTX 980 on resident data
        // (even its slow-generation shard streams concurrently); that the
        // slow card *bounds* the mix relative to a homogeneous fast pair is
        // pinned by the olap unit tests, where both mixes are constructed.
        let mixed = row("980 Ti + GTX 580", "device-resident", 150_000);
        assert!(mixed.gpu_ms < row("1x GTX 980", "device-resident", 150_000).gpu_ms, "{mixed:?}");
    }

    #[test]
    fn fig_calibration_converges_to_the_oracle_placement() {
        let s = fig_calibration(120, 24);
        // The very first query (3k rows) misroutes: the 5x-low dispatch
        // overhead and 2x-high per-tuple cost both push small scans to the
        // GPU while the measured oracle is the CPU.
        assert!(!s.rows[0].agree, "seed constants must misplace the first small query: {:?}", s.rows[0]);
        assert_eq!(s.rows[0].chosen, "gpu");
        assert_eq!(s.rows[0].oracle, "cpu");
        // Acceptance: >= 90% oracle agreement after the first 50 observations
        // and per-site steady-state prediction error under 10%.
        assert!(s.agreement_steady >= 0.9, "steady agreement {}", s.agreement_steady);
        assert!(s.cpu_mean_rel_error < 0.10, "cpu error {}", s.cpu_mean_rel_error);
        assert!(s.gpu_mean_rel_error < 0.10, "gpu error {}", s.gpu_mean_rel_error);
        // The model moved from the wrong seeds toward the true constants.
        assert!(
            (s.calibrated_model.cpu_per_tuple_ns - 93.0).abs() < (s.initial_model.cpu_per_tuple_ns - 93.0).abs(),
            "per-tuple: {} -> {}",
            s.initial_model.cpu_per_tuple_ns,
            s.calibrated_model.cpu_per_tuple_ns
        );
        assert!(
            s.calibrated_model.gpu_dispatch_overhead_secs > s.initial_model.gpu_dispatch_overhead_secs,
            "dispatch overhead must rise from its 5x-low seed"
        );
    }

    #[test]
    fn fig10_nsm_is_slowest_and_dsm_pax_close() {
        let rows = fig10(30_000, &[1, 16]);
        let get = |layout: &str, n: usize| {
            rows.iter().find(|r| r.layout == layout && r.attributes == n).map(|r| r.seconds).unwrap()
        };
        assert!(get("NSM", 1) > get("DSM", 1));
        assert!(get("NSM", 1) > get("PAX", 1));
        let ratio = get("PAX", 16) / get("DSM", 16);
        assert!((0.9..1.25).contains(&ratio), "PAX/DSM {ratio}");
        // All layouts agree on the sums.
        let sums: Vec<f64> = rows.iter().filter(|r| r.attributes == 16).map(|r| r.sum).collect();
        assert!(sums.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-6));
    }

    #[test]
    fn fig11_gap_collapses_when_device_resident() {
        let rows = fig11(30_000);
        let get = |gpu: &str, layout: &str| {
            rows.iter().find(|r| r.gpu.contains(gpu) && r.layout == layout).map(|r| r.seconds).unwrap()
        };
        // Maxwell is faster than Fermi for every layout.
        for layout in ["DSM", "PAX", "NSM"] {
            assert!(get("Maxwell", layout) < get("Fermi", layout), "{layout}");
        }
        // NSM penalty is bounded (2-4x) rather than the >10x of the UVA case.
        let fermi_ratio = get("Fermi", "NSM") / get("Fermi", "DSM");
        let maxwell_ratio = get("Maxwell", "NSM") / get("Maxwell", "DSM");
        assert!(fermi_ratio < 4.5, "fermi NSM/DSM {fermi_ratio}");
        assert!(maxwell_ratio < 3.0, "maxwell NSM/DSM {maxwell_ratio}");
        assert!(maxwell_ratio <= fermi_ratio + 0.2);
    }

    #[test]
    fn fig_chaos_absorbs_faults_without_wrong_answers() {
        // Small scale to stay fast in tier-1; the full-scale availability
        // and exactness gates run in the release-mode chaos smoke step.
        let s = fig_chaos(30_000, 4, 8);
        assert_eq!(s.phases.len(), 3);
        assert_eq!(s.wrong_answers, 0, "a fault path changed an answer");
        assert_eq!(s.client_errors, 0, "the resilience ladder leaked an error to a client");
        assert!((s.availability - 1.0).abs() < f64::EPSILON);
        let storm = s.phases.iter().find(|p| p.phase == "transient_storm").unwrap();
        assert!(storm.faults > 0, "the storm must actually fire");
        let loss = s.phases.iter().find(|p| p.phase == "device_loss").unwrap();
        assert!(loss.gpu_quarantines >= 1, "the device loss must trip the breaker");
        assert!(loss.fallbacks >= 1, "queries must re-route off the dead device");
        assert_ne!(s.final_gpu_state, "closed", "a still-dead device must stay fenced off");
        assert!(s.time_to_recover_ms > 0.0, "the serial loss run must measure a recovery");
        let clean = s.phases.iter().find(|p| p.phase == "fault_free").unwrap();
        assert_eq!(clean.faults, 0);
        assert_eq!(clean.retries, 0);
        assert_eq!(clean.fallbacks, 0);
    }
}
