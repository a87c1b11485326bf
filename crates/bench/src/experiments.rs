//! Experiment drivers: one function per table/figure of the paper.
//!
//! Every function returns plain row structs so the `experiments` binary can
//! print them and tests can assert the qualitative shapes the paper reports. Data sizes are scaled
//! down from the paper's (SF-300, 16 GB, 24 cores) so a full sweep finishes
//! in minutes on a laptop; the scale knobs are explicit parameters.

use caldera::{Caldera, CalderaConfig, DataPlacement, DeviceLossPoint, FaultPlan, OlapTarget, SnapshotPolicy};
use h2tap_baselines::{SiloDb, SiloRuntime, SnSilo};
use h2tap_common::stats::Histogram;
use h2tap_common::{OlapPlan, Predicate, ScanAggQuery, SimDuration, TableId};
use h2tap_gpu_sim::{AccessMode, AccessPattern, GpuDevice, GpuSpec, KernelDesc, TransferDirection};
use h2tap_olap::{CpuScanProfile, CpuSpec, PlanOutcome, Site};
use h2tap_oltp::OltpConfig;
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
    let _ = caldera.database().release_snapshot(&snap);
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
                chosen: site_label(routed.site),
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

fn site_label(site: OlapTarget) -> String {
    match site {
        OlapTarget::Cpu => "cpu".to_string(),
        OlapTarget::Gpu => "gpu".to_string(),
        OlapTarget::MultiGpu => "multi-gpu".to_string(),
    }
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
        let scan_chosen = site_label(caldera.run_olap(lineitem, &scan).unwrap().site);

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
                    plan_chosen: site_label(routed.site),
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
// Multi-GPU: device-mix x residency sweep with three-way routing
// ---------------------------------------------------------------------------

/// One configuration of the multi-GPU sweep: where the scheduler routed Q6
/// among the CPU, single-GPU and multi-GPU sites, with all three sites'
/// forced (oracle) times.
#[derive(Debug, Clone, Serialize)]
pub struct MultiGpuRow {
    /// Device-mix label (e.g. "2x GTX 980").
    pub mix: String,
    /// Devices in the mix.
    pub devices: u32,
    /// GPU data placement label ("host-uva" or "device-resident"), shared by
    /// the single-GPU and multi-GPU sites.
    pub placement: String,
    /// Rows in the lineitem table.
    pub lineitem_rows: u64,
    /// Site the three-way placement argmin chose.
    pub chosen: String,
    /// Forced Q6 time on the CPU site in milliseconds.
    pub cpu_ms: f64,
    /// Forced Q6 time on the single-GPU site in milliseconds.
    pub gpu_ms: f64,
    /// Forced Q6 time on the multi-GPU site in milliseconds.
    pub multi_gpu_ms: f64,
}

/// Sweeps device mixes (homogeneous pairs, a fast+slow generation pair, and
/// a four-card Table 1 mix) x GPU residency x data size, recording the
/// three-way routing decision next to every site's forced time. This is the
/// experiment behind the multi-GPU acceptance criterion: at least one
/// workload must route to the multi-GPU site *and* win there — a placement
/// outcome neither the CPU nor the single GPU could produce.
pub fn fig_multigpu(row_counts: &[u64], cpu_cores: usize) -> Vec<MultiGpuRow> {
    let mixes: Vec<(&str, Vec<GpuSpec>)> = vec![
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
                config.olap_device.placement = placement;
                config.olap_multi_gpu = Some(caldera::OlapMultiGpuConfig::new(gpus.clone()).with_placement(placement));
                config.snapshot_policy = SnapshotPolicy::Manual;
                let mut builder = Caldera::builder(config);
                let table = tpch::load_lineitem(&mut builder, Layout::Dsm, rows, 7).unwrap();
                let caldera = builder.start().unwrap();
                let query = q6();
                let routed = caldera.run_olap(table, &query).unwrap();
                let cpu = caldera.run_olap_on(table, &query, OlapTarget::Cpu).unwrap();
                let gpu = caldera.run_olap_on(table, &query, OlapTarget::Gpu).unwrap();
                let multi = caldera.run_olap_on(table, &query, OlapTarget::MultiGpu).unwrap();
                assert_eq!(cpu.value.to_bits(), multi.value.to_bits(), "sites disagree on Q6 revenue");
                assert_eq!(gpu.value.to_bits(), multi.value.to_bits(), "sites disagree on Q6 revenue");
                out.push(MultiGpuRow {
                    mix: mix_label.to_string(),
                    devices: gpus.len() as u32,
                    placement: placement_label.to_string(),
                    lineitem_rows: rows,
                    chosen: site_label(routed.site),
                    cpu_ms: cpu.time.as_millis_f64(),
                    gpu_ms: gpu.time.as_millis_f64(),
                    multi_gpu_ms: multi.time.as_millis_f64(),
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
    let true_model = CalderaConfig::default().initial_cost_model();
    let initial_model = CostModel {
        cpu_per_tuple_ns: true_model.cpu_per_tuple_ns * 2.0,
        gpu_dispatch_overhead_secs: true_model.gpu_dispatch_overhead_secs / 5.0,
        ..true_model
    };

    let mut config = CalderaConfig::with_workers(1);
    config.olap_cpu_cores = cpu_cores;
    config.snapshot_policy = SnapshotPolicy::Manual;
    config.cost_model_seed = Some(initial_model);
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
            chosen: site_label(routed.site),
            oracle: site_label(oracle),
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

/// Runs the mixed workload of Section 5.1 once: the YCSB-like update workload
/// runs on the CPU archipelago while `olap_queries` Q6 instances run on the
/// GPU archipelago, sharing snapshots per the policy.
pub fn run_htap(params: HtapParams) -> HtapRow {
    let mut config = CalderaConfig::with_workers(params.oltp_workers);
    config.oltp = OltpConfig { workers: params.oltp_workers, ..OltpConfig::default() };
    config.snapshot_policy = SnapshotPolicy::EveryN { queries: params.queries_per_snapshot };
    let mut builder = Caldera::builder(config);
    let table = tpch::load_lineitem(&mut builder, Layout::PAPER_PAX, params.lineitem_rows, 7).unwrap();
    let ycsb = YcsbGenerator::new(YcsbConfig {
        working_set_pct: params.working_set_pct,
        ..YcsbConfig::paper_default(table, params.lineitem_rows, params.oltp_workers as u64)
    });
    builder.set_generator(Arc::new(ycsb));
    let caldera = builder.start().unwrap();

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

/// Runs Figure 8: TPC-C NewOrder throughput as the number of cores (and
/// warehouses) grows, for Caldera and Silo.
pub fn fig8(core_counts: &[usize], window: Duration) -> Vec<OltpComparisonRow> {
    let cfg = TpccConfig::default();
    let mut out = Vec::new();
    for &cores in core_counts {
        // Caldera.
        let mut config = CalderaConfig::with_workers(cores);
        config.oltp.seed = 0xF18;
        let mut builder = Caldera::builder(config);
        builder.set_partitioner(Arc::new(tpcc_partitioner(cores))).unwrap();
        let tables = load_tpcc(&mut builder, cores, cfg).unwrap();
        builder.set_generator(Arc::new(NewOrderGenerator::new(tables, cfg, cores)));
        let caldera = builder.start().unwrap();
        let window_result = caldera.run_oltp_window(window).unwrap();
        out.push(OltpComparisonRow { x: cores as u32, system: "Caldera".into(), tps: window_result.throughput_tps });
        caldera.shutdown();

        // Silo.
        let silo = SiloDb::new();
        let silo_tables = standalone_tables();
        load_tpcc_silo(&silo, silo_tables, cores, cfg).unwrap();
        let runtime = SiloRuntime::new(Arc::clone(&silo), cores);
        let silo_window = runtime.run_for(Arc::new(SiloNewOrderGenerator::new(silo_tables, cfg, cores)), window);
        out.push(OltpComparisonRow { x: cores as u32, system: "Silo".into(), tps: silo_window.throughput_tps });
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 9: multisite sensitivity, Caldera vs Silo vs SN-Silo
// ---------------------------------------------------------------------------

/// Runs Figure 9: throughput as the share of multi-site transactions grows.
pub fn fig9(
    partitions: usize,
    rows_per_partition: u64,
    multisite_percentages: &[u32],
    window: Duration,
) -> Vec<OltpComparisonRow> {
    let mut out = Vec::new();
    for &pct in multisite_percentages {
        // Caldera.
        let mut config = CalderaConfig::with_workers(partitions);
        config.oltp.seed = 0xF19;
        let mut builder = Caldera::builder(config);
        builder.set_partitioner(Arc::new(multisite_partitioner(partitions))).unwrap();
        let table = load_multisite_caldera(&mut builder, rows_per_partition, partitions).unwrap();
        let cfg = MultisiteConfig::paper(table, rows_per_partition, partitions, pct);
        builder.set_generator(Arc::new(CalderaMultisiteGenerator::new(cfg)));
        let caldera = builder.start().unwrap();
        let w = caldera.run_oltp_window(window).unwrap();
        out.push(OltpComparisonRow { x: pct, system: "Caldera".into(), tps: w.throughput_tps });
        caldera.shutdown();

        // Silo (single shared instance).
        let silo = SiloDb::new();
        let table_id = TableId(0);
        load_multisite_silo(&silo, table_id, rows_per_partition, partitions).unwrap();
        let silo_cfg = MultisiteConfig::paper(table_id, rows_per_partition, partitions, pct);
        let runtime = SiloRuntime::new(Arc::clone(&silo), partitions);
        let sw = runtime.run_for(Arc::new(SiloMultisiteGenerator::new(silo_cfg)), window);
        out.push(OltpComparisonRow { x: pct, system: "Silo".into(), tps: sw.throughput_tps });

        // SN-Silo (instance per core + 2PC).
        let sn = SnSilo::new(partitions);
        load_multisite_sn(&sn, table_id, rows_per_partition).unwrap();
        let sn_cfg = MultisiteConfig::paper(table_id, rows_per_partition, partitions, pct);
        let snw =
            h2tap_baselines::run_sn_silo_benchmark(&sn, Arc::new(SnSiloMultisiteGenerator::new(sn_cfg)), window, 0xF19);
        out.push(OltpComparisonRow { x: pct, system: "SN-Silo".into(), tps: snw.throughput_tps });
        sn.shutdown();
    }
    out
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
        let engine = Site::gpu(GpuDevice::new(GpuSpec::gtx_980()), DataPlacement::Host(AccessMode::Uva));
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
            let engine = Site::gpu(GpuDevice::new(spec.clone()), DataPlacement::DeviceResident);
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

/// Per-query wall-clock latency percentiles of one timed code path, in
/// milliseconds — read off the same repeated stream the `*_ms` totals come
/// from, so tail behaviour (allocator stalls, preemption) is visible next
/// to the noise-robust min-based totals.
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

    /// The `{"p50_ms":..}` object the tracked JSON artifacts embed.
    pub fn json(&self) -> String {
        format!(
            "{{\"p50_ms\":{:.4},\"p95_ms\":{:.4},\"p99_ms\":{:.4},\"max_ms\":{:.4}}}",
            self.p50_ms, self.p95_ms, self.p99_ms, self.max_ms
        )
    }
}

/// One workload of the host-path wall-clock experiment: the same repeated
/// query stream timed on three code paths of the shared operator pipeline.
#[derive(Debug, Clone, Serialize)]
pub struct HostPerfRow {
    /// Workload label ("q6-scan", "brand-join").
    pub workload: String,
    /// Rows of the lineitem (probe) table.
    pub lineitem_rows: u64,
    /// Queries in the repeated stream (per code path).
    pub queries: u32,
    /// Total wall-clock of the retained oracle path: row-at-a-time chunk
    /// evaluation, per-query O(chunk) zonemap recomputation, and a fresh
    /// materialisation + hash build per query.
    pub reference_ms: f64,
    /// Total wall-clock of the production (SIMD) path with a *cold* cache
    /// (every query re-derives its plan data): isolates the vectorization
    /// win.
    pub vectorized_cold_ms: f64,
    /// Total wall-clock of the production path against a *warm* shared
    /// plan-data cache: every query reuses the snapshot's materialised
    /// columns, zonemap stats and join hash table.
    pub vectorized_cached_ms: f64,
    /// `reference_ms / vectorized_cold_ms`.
    pub cold_speedup: f64,
    /// `reference_ms / vectorized_cached_ms`.
    pub cached_speedup: f64,
    /// Per-query latency percentiles of the reference path.
    pub reference_latency: LatencyPercentiles,
    /// Per-query latency percentiles of the production path, cold cache.
    pub vectorized_cold_latency: LatencyPercentiles,
    /// Per-query latency percentiles of the production path, warm cache.
    pub vectorized_cached_latency: LatencyPercentiles,
}

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
    /// Fastest `MaterializedColumns::build` from the base, fresh snapshot
    /// (page walk included) per repeat.
    pub rebuild_ms: f64,
    /// Fastest `MaterializedColumns::new` under the same conditions.
    pub cold_ms: f64,
    /// Column chunks the rebuild shared with the base.
    pub chunks_reused: u64,
    /// Column chunks the rebuild gathered.
    pub chunks_rebuilt: u64,
}

/// One point of hostperf's `kernel` leg: the two compilations of the one
/// chunk-kernel body — `process_chunk_portable` (the build's baseline ISA)
/// and `process_chunk` (dispatched to the widest ISA the host has) — timed
/// back to back over one warm materialisation, in one process.
#[derive(Debug, Clone, Serialize)]
pub struct KernelRow {
    /// Plan label ("q6", "pass-10%", "dense", "brand-join").
    pub plan: &'static str,
    /// Fastest pass of the baseline compilation over every chunk, per row.
    pub baseline_ns_per_row: f64,
    /// Fastest pass of the dispatched compilation over every chunk, per row.
    pub dispatched_ns_per_row: f64,
}

/// Result of the hostperf experiment: per-workload rows plus the worst-case
/// speedups (the acceptance figures) and the warm cache's counters.
#[derive(Debug, Clone)]
pub struct HostPerfSummary {
    /// Per-workload measurements.
    pub rows: Vec<HostPerfRow>,
    /// The `kernel` leg: Q6, one predicate passing 0.04 % to 100 % of the
    /// rows, the dense plan and the brand join.
    pub kernel: Vec<KernelRow>,
    /// The compilation `process_chunk` dispatches to on this host: "avx2"
    /// or "baseline".
    pub isa: &'static str,
    /// The `refresh` leg: 0 %, 25 % and 100 % of the chunks dirty.
    pub refresh: Vec<RefreshRow>,
    /// Smallest cold (vectorization-only) speedup across workloads.
    pub min_cold_speedup: f64,
    /// Smallest cached speedup across workloads.
    pub min_cached_speedup: f64,
    /// Hit/miss counters of the warm cache after the cached runs.
    pub cache: h2tap_common::PlanCacheStats,
}

/// Measures **real wall-clock** (not simulated) execution of the shared
/// host data path over a repeated-query workload — Q6 (selective scan, run
/// as the scan-shaped plan it is) and the brand-revenue join plan — on three
/// code paths: the retained row-at-a-time reference, the production path
/// cold (fresh derivation per query), and the production path against the
/// warm snapshot-keyed cache. All three paths must produce bit-identical
/// answers (asserted here), so the only thing that differs is time. This is
/// the first entry of the repository's measured performance trajectory.
pub fn fig_hostperf(lineitem_rows: u64, part_keys: u64, repeats: u32) -> HostPerfSummary {
    use h2tap_common::{GroupRow, PartitionId, RecordId};
    use h2tap_olap::operators as ops;
    use h2tap_olap::PlanDataCache;
    use h2tap_storage::SnapshotTable;
    use std::time::Instant;

    // Load both tables once; every path queries the same frozen snapshot.
    let mut builder = Caldera::builder(CalderaConfig::with_workers(1));
    let lineitem = tpch::load_lineitem(&mut builder, Layout::Dsm, lineitem_rows, 7).unwrap();
    let part = tpch::load_part(&mut builder, Layout::Dsm, part_keys, 11).unwrap();
    let snap = builder.database().snapshot();
    let fact = snap.table(lineitem).unwrap();
    let dim = snap.table(part).unwrap();

    // Stream time = repeats x the *fastest* single query. The minimum is
    // the standard noise-robust location estimator for wall-clock micro
    // measurements: a query can only measure slow (scheduler preemption,
    // a concurrent test thread on the same core), never fast, so the min
    // is the cleanest observation while keeping the total-stream-ms scale
    // of the tracked artifacts.
    // Alongside the total, every per-query time feeds a histogram so the
    // artifact also reports the latency *distribution* of each path.
    let time_stream = |query_once: &mut dyn FnMut()| -> (f64, LatencyPercentiles) {
        let mut best = f64::INFINITY;
        let mut hist = Histogram::new();
        for _ in 0..repeats {
            let started = Instant::now();
            query_once();
            let secs = started.elapsed().as_secs_f64();
            hist.record(secs);
            best = best.min(secs);
        }
        (best * f64::from(repeats) * 1e3, LatencyPercentiles::from_secs_histogram(&hist))
    };

    // The oracle path: fresh materialisation *without* zonemap statistics,
    // O(chunk) zonemap recomputation per chunk per query, a fresh hash
    // build, row-at-a-time evaluation. (One residual deviation understates
    // the win: the hash build uses the multiply-shift hasher rather than
    // the SipHash the row-at-a-time era had.)
    let reference = |plan: &OlapPlan, build: Option<&SnapshotTable>| -> (Vec<GroupRow>, u64) {
        let group_col = ops::check_plan(plan, build.is_some()).unwrap();
        let hash = plan.join.as_ref().zip(build).map(|(join, b)| ops::build_hash_table(b, join, group_col).unwrap());
        let mat = ops::MaterializedColumns::new_without_zonemaps(fact, plan.probe_columns_accessed()).unwrap();
        let partials: Vec<_> = (0..mat.chunk_count())
            .map(|i| mat.chunk_range(i))
            .filter(|range| ops::scan_chunk_can_qualify_reference(&mat, &plan.predicates, range.clone()))
            .map(|range| ops::process_chunk_reference(&mat, plan, hash.as_ref(), range))
            .collect();
        let (groups, totals) = ops::merge_partials(plan, partials);
        (groups, totals.joined)
    };
    // The production path: cached preparation, zonemap-statistics skipping,
    // SIMD kernels — what the CPU site's pipeline runs per query.
    let vectorized = |cache: &PlanDataCache, plan: &OlapPlan, build: Option<&SnapshotTable>| {
        let data = cache.prepare_plan(fact, build, plan).unwrap();
        let partials: Vec<_> = (0..data.mat.chunk_count())
            .filter(|&i| ops::scan_chunk_can_qualify(&data.mat, &plan.predicates, i))
            .map(|i| ops::process_chunk(&data.mat, plan, data.hash.as_deref(), data.mat.chunk_range(i)))
            .collect();
        let (groups, totals) = ops::merge_partials(plan, partials);
        (groups, totals.joined)
    };

    let cold_cache = PlanDataCache::new();
    let warm_cache = PlanDataCache::new();
    let mut rows = Vec::new();
    for (workload, plan, build) in
        [("q6-scan", OlapPlan::scan(&q6()), None), ("brand-join", tpch::brand_revenue_plan(30), Some(dim))]
    {
        let want = reference(&plan, build);
        // Bitwise comparison (f64 `==` would both miss a -0.0/+0.0 drift and
        // spuriously reject bit-identical NaN aggregates).
        let assert_bit_identical = |(groups, joined): (Vec<GroupRow>, u64)| {
            assert_eq!(joined, want.1, "{workload}: the production path must agree on qualifying rows");
            assert_eq!(groups.len(), want.0.len());
            for (g, w) in groups.iter().zip(&want.0) {
                assert_eq!((g.key, g.rows), (w.key, w.rows));
                for (x, y) in g.values.iter().zip(&w.values) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{workload}: must be bit-identical: {x} vs {y}");
                }
            }
        };
        cold_cache.invalidate();
        assert_bit_identical(vectorized(&cold_cache, &plan, build));
        // This also warms the warm cache with the snapshot's derivation.
        assert_bit_identical(vectorized(&warm_cache, &plan, build));

        let (reference_ms, reference_latency) = time_stream(&mut || {
            reference(&plan, build);
        });
        let (vectorized_cold_ms, vectorized_cold_latency) = time_stream(&mut || {
            cold_cache.invalidate();
            vectorized(&cold_cache, &plan, build);
        });
        // The repeated-query, cache-hit regime.
        let (vectorized_cached_ms, vectorized_cached_latency) = time_stream(&mut || {
            vectorized(&warm_cache, &plan, build);
        });
        rows.push(HostPerfRow {
            workload: workload.into(),
            lineitem_rows,
            queries: repeats,
            reference_ms,
            vectorized_cold_ms,
            vectorized_cached_ms,
            cold_speedup: reference_ms / vectorized_cold_ms.max(1e-9),
            cached_speedup: reference_ms / vectorized_cached_ms.max(1e-9),
            reference_latency,
            vectorized_cold_latency,
            vectorized_cached_latency,
        });
    }

    // The kernel leg. Kernel time differs by tens of percent between two
    // binaries from code placement alone; both compilations live in this
    // one, so their ratio here is signal. `l_shipdate` is uniform over
    // 2 526 days, so a span of days is a selectivity.
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
    ];
    let mut cols: Vec<usize> = kernel_plans.iter().flat_map(|(_, plan, _)| plan.probe_columns_accessed()).collect();
    cols.sort_unstable();
    cols.dedup();
    let mat = ops::MaterializedColumns::new(fact, cols).unwrap();
    let kernel = kernel_plans
        .into_iter()
        .map(|(label, plan, build)| {
            let group_col = ops::check_plan(&plan, build.is_some()).unwrap();
            let hash = build.map(|b| ops::build_hash_table(b, plan.join.as_ref().unwrap(), group_col).unwrap());
            // [baseline, dispatched]: the fastest of alternating passes.
            let mut ns_per_row = [f64::INFINITY; 2];
            for _ in 0..3 * repeats {
                let kernels = [ops::process_chunk_portable, ops::process_chunk];
                for (best, kernel) in ns_per_row.iter_mut().zip(kernels) {
                    let started = Instant::now();
                    for i in 0..mat.chunk_count() {
                        std::hint::black_box(kernel(&mat, &plan, hash.as_ref(), mat.chunk_range(i)));
                    }
                    *best = best.min(started.elapsed().as_secs_f64() * 1e9 / lineitem_rows as f64);
                }
            }
            KernelRow { plan: label, baseline_ns_per_row: ns_per_row[0], dispatched_ns_per_row: ns_per_row[1] }
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
    // scratch. A fresh snapshot per timing, so each pays its page walk as a
    // real refresh does. Dirty pages stay dirty relative to the base, so the
    // legs run in ascending order on the one database.
    let db = builder.database();
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
            let secs = started.elapsed().as_secs_f64();
            let work = mat.work();
            drop(mat);
            db.release_snapshot(&snap).unwrap();
            (secs, work)
        };
        let (mut rebuild_secs, mut cold_secs, mut work) = (f64::INFINITY, f64::INFINITY, ops::BuildWork::default());
        for _ in 0..repeats {
            let (secs, did) = timed(&|t| ops::MaterializedColumns::build(t, cols.clone(), &[&base]).unwrap());
            rebuild_secs = rebuild_secs.min(secs);
            work = did;
            cold_secs = cold_secs.min(timed(&|t| ops::MaterializedColumns::new(t, cols.clone()).unwrap()).0);
        }
        refresh.push(RefreshRow {
            dirty_pct,
            dirty_chunks,
            chunks,
            rebuild_ms: rebuild_secs * 1e3,
            cold_ms: cold_secs * 1e3,
            chunks_reused: work.chunks_reused,
            chunks_rebuilt: work.chunks_rebuilt,
        });
    }

    let min_cold = rows.iter().map(|r| r.cold_speedup).fold(f64::INFINITY, f64::min);
    let min_cached = rows.iter().map(|r| r.cached_speedup).fold(f64::INFINITY, f64::min);
    HostPerfSummary {
        cache: warm_cache.stats(),
        rows,
        kernel,
        isa,
        refresh,
        min_cold_speedup: min_cold,
        min_cached_speedup: min_cached,
    }
}

// ---------------------------------------------------------------------------
// concurrency: wall-clock scaling of concurrent OLAP serving
// ---------------------------------------------------------------------------

/// One thread-count point of the concurrency experiment.
#[derive(Debug, Clone, Serialize)]
pub struct ConcurrencyRow {
    /// Client threads issuing queries concurrently.
    pub threads: u32,
    /// Total queries the round executed (threads x per-thread stream).
    pub queries: u64,
    /// Wall-clock of the whole round (all threads, barrier to last join).
    pub wall_ms: f64,
    /// Sustained throughput of the round.
    pub queries_per_sec: f64,
    /// `queries_per_sec / serial_qps` (the 1-thread round of the same run).
    pub speedup_vs_serial: f64,
    /// Per-query wall-clock latency percentiles across every client.
    pub latency: LatencyPercentiles,
}

/// Result of the concurrency experiment: the thread sweep plus the shared
/// counters that prove *why* it scales (shared-scan attaches) and that the
/// admission layer saw real contention (queued admissions).
#[derive(Debug, Clone)]
pub struct ConcurrencySummary {
    /// One row per swept thread count, in sweep order.
    pub rows: Vec<ConcurrencyRow>,
    /// Concurrent same-key materialisations that attached to an in-flight
    /// build instead of duplicating it (the shared-scan counter).
    pub shared_scan_attaches: u64,
    /// Admissions (across all sites) that waited behind the in-flight
    /// budget.
    pub admission_queued: u64,
    /// Throughput of the 1-thread round, the speedup baseline.
    pub serial_qps: f64,
}

impl ConcurrencySummary {
    /// The measured speedup at `threads` clients (`None` if not swept).
    pub fn speedup_at(&self, threads: u32) -> Option<f64> {
        self.rows.iter().find(|r| r.threads == threads).map(|r| r.speedup_vs_serial)
    }
}

/// Measures **real wall-clock** throughput and latency of the engine's
/// concurrent OLAP path: per round, the snapshot is refreshed (cold cache,
/// fresh epoch) and `threads` clients hammer the same Q6 scan + brand-join
/// plan stream through the production dispatch. Every answer is compared
/// bit-for-bit against a serial oracle taken on the same data, so the sweep
/// can only trade time, never correctness. Scaling comes from two places:
/// queries execute concurrently under the snapshot gate's read lock, and
/// the racing cold queries of each round share one materialisation instead
/// of duplicating it (counted in `shared_scan_attaches`).
pub fn fig_concurrency(
    lineitem_rows: u64,
    part_keys: u64,
    per_thread: u32,
    thread_counts: &[u32],
    admission_in_flight: Option<u32>,
) -> ConcurrencySummary {
    use std::sync::Barrier;
    use std::time::Instant;

    let mut config = CalderaConfig::with_workers(2);
    config.olap_cpu_cores = 8;
    // Freshness is driven by the experiment itself (one refresh per round),
    // not by query count.
    config.snapshot_policy = SnapshotPolicy::Manual;
    config.olap_admission_in_flight = admission_in_flight;
    let mut builder = Caldera::builder(config);
    let lineitem = tpch::load_lineitem(&mut builder, Layout::Dsm, lineitem_rows, 7).unwrap();
    let part = tpch::load_part(&mut builder, Layout::Dsm, part_keys, 11).unwrap();
    let caldera = Arc::new(builder.start().unwrap());

    // Serial oracle on the same data: the bit patterns every concurrent
    // client must reproduce.
    let scan = q6();
    let plan = tpch::brand_revenue_plan(30);
    caldera.refresh_snapshot().unwrap();
    let oracle_scan = caldera.run_olap(lineitem, &scan).unwrap();
    let oracle_groups = caldera.run_olap_plan(lineitem, Some(part), &plan).unwrap().groups;

    let mut rows: Vec<ConcurrencyRow> = Vec::new();
    let mut serial_qps = 0.0;
    for &threads in thread_counts {
        // A fresh epoch per round: the round's first queries race to
        // rebuild the derived state, exercising the shared-scan attach path
        // instead of serving everything from a warm cache.
        caldera.refresh_snapshot().unwrap();
        let barrier = Arc::new(Barrier::new(threads as usize + 1));
        let hist = Arc::new(std::sync::Mutex::new(Histogram::new()));
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let caldera = Arc::clone(&caldera);
                let barrier = Arc::clone(&barrier);
                let hist = Arc::clone(&hist);
                let scan = scan.clone();
                let plan = plan.clone();
                let oracle_groups = oracle_groups.clone();
                let oracle_bits = oracle_scan.value.to_bits();
                std::thread::spawn(move || {
                    let mut local = Histogram::new();
                    barrier.wait();
                    for i in 0..per_thread {
                        let started = Instant::now();
                        // Alternate the two shapes, offset per worker so the
                        // mix is interleaved, not phased.
                        if (i + worker).is_multiple_of(2) {
                            let out = caldera.run_olap(lineitem, &scan).unwrap();
                            assert_eq!(
                                out.value.to_bits(),
                                oracle_bits,
                                "concurrent scan answers must stay bit-identical to serial"
                            );
                        } else {
                            let out = caldera.run_olap_plan(lineitem, Some(part), &plan).unwrap();
                            assert_eq!(
                                out.groups, oracle_groups,
                                "concurrent plan answers must stay bit-identical to serial"
                            );
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
        let wall_secs = started.elapsed().as_secs_f64().max(1e-9);
        let queries = u64::from(threads) * u64::from(per_thread);
        let qps = queries as f64 / wall_secs;
        if threads == 1 {
            serial_qps = qps;
        }
        rows.push(ConcurrencyRow {
            threads,
            queries,
            wall_ms: wall_secs * 1e3,
            queries_per_sec: qps,
            speedup_vs_serial: if serial_qps > 0.0 { qps / serial_qps } else { 0.0 },
            latency: LatencyPercentiles::from_secs_histogram(&hist.lock().unwrap()),
        });
    }

    let caldera = Arc::try_unwrap(caldera).unwrap_or_else(|_| panic!("all clients joined"));
    let stats = caldera.shutdown();
    ConcurrencySummary {
        rows,
        shared_scan_attaches: stats.plan_cache.shared_scan_attaches,
        admission_queued: stats.olap_sites.iter().map(|s| s.admission.queued).sum(),
        serial_qps,
    }
}

// ---------------------------------------------------------------------------
// chaos: availability and exactness under injected faults
// ---------------------------------------------------------------------------

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
    loss_plan.device_loss_at =
        Some(DeviceLossPoint { site: "gpu".into(), device: 0, launch: (total_queries / 3).max(2) });

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
    serial_plan.device_loss_at = Some(DeviceLossPoint { site: "gpu".into(), device: 0, launch: 4 });
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
    fn hostperf_vectorized_and_cached_paths_beat_the_reference() {
        // Small scale to stay fast in CI; fig_hostperf itself asserts the
        // three code paths are bit-identical. The thresholds here are
        // deliberately looser than the full-scale acceptance figures
        // (>= 1.5x cold, >= 3x cached) to tolerate noisy shared runners.
        let s = fig_hostperf(60_000, 4_000, 4);
        assert_eq!(s.rows.len(), 2);
        // Wall-clock ratios are only meaningful in optimised builds; in
        // debug builds (tier-1 `cargo test`) the vectorized loops keep
        // their bounds checks and closure frames, so only the structural
        // and bit-identity guarantees are asserted there.
        #[cfg(not(debug_assertions))]
        {
            assert!(s.min_cold_speedup > 1.0, "vectorization must beat row-at-a-time: {:.2}x", s.min_cold_speedup);
            assert!(
                s.min_cached_speedup > 1.5,
                "the warm cache must amortise derivation: {:.2}x",
                s.min_cached_speedup
            );
            for r in &s.rows {
                assert!(
                    r.cached_speedup >= r.cold_speedup * 0.8,
                    "{}: caching must not materially lose to cold",
                    r.workload
                );
            }
        }
        // The kernel leg timed both compilations at all eight points.
        assert_eq!(s.kernel.len(), 8);
        assert!(s.kernel.iter().all(|k| k.baseline_ns_per_row > 0.0 && k.dispatched_ns_per_row > 0.0));
        // The warm cache served every repeat from its derived state.
        assert_eq!(s.cache.misses(), 3, "one scan materialisation + one probe materialisation + one hash build");
        assert!(s.cache.hits() > 0);
        // An unbounded cache still reports its occupancy (and no budget,
        // no evictions).
        assert!(s.cache.occupancy_bytes > 0, "the warm cache holds derived state");
        assert_eq!(s.cache.budget_bytes, None);
        assert_eq!(s.cache.evictions, 0);
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
        assert_eq!(rows.len(), 12);
        // Acceptance: at least one workload routes to the multi-GPU site and
        // neither the CPU nor the single GPU beats it there.
        let winner =
            rows.iter().find(|r| r.chosen == "multi-gpu").expect("some workload must route to the multi-GPU site");
        assert!(
            winner.multi_gpu_ms < winner.cpu_ms && winner.multi_gpu_ms < winner.gpu_ms,
            "the routed multi-GPU workload must be one neither other site wins: {winner:?}"
        );
        // Tiny scans keep routing to the CPU even with the mix available —
        // the argmin did not degenerate to "always multi".
        assert!(rows.iter().any(|r| r.chosen == "cpu"), "{rows:?}");
        // Every large device-resident homogeneous-pair configuration picks
        // the mix: halving the critical shard beats one card outright.
        for r in rows
            .iter()
            .filter(|r| r.mix == "2x GTX 980" && r.placement == "device-resident" && r.lineitem_rows == 150_000)
        {
            assert_eq!(r.chosen, "multi-gpu", "{r:?}");
            assert!(r.multi_gpu_ms < r.gpu_ms, "{r:?}");
        }
        // The fast+slow mix still beats the lone GTX 980 on resident data
        // (even its slow-generation shard streams concurrently); that the
        // slow card *bounds* the mix relative to a homogeneous fast pair is
        // pinned by the olap unit tests, where both mixes are constructed.
        let mixed = rows
            .iter()
            .find(|r| r.mix == "980 Ti + GTX 580" && r.placement == "device-resident" && r.lineitem_rows == 150_000)
            .unwrap();
        assert!(mixed.multi_gpu_ms < mixed.gpu_ms, "{mixed:?}");
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
