//! Integration tests for the placement feedback loop: an engine whose cost
//! model is seeded with deliberately wrong constants must recalibrate itself
//! from the site times its own dispatches report — through the production
//! `run_olap` path, with no out-of-band measurements — and placement must
//! converge to the forced-site oracle.

use caldera::{Caldera, CalderaConfig, DataPlacement, OlapTarget, SnapshotPolicy};
use h2tap_common::TableId;
use h2tap_gpu_sim::GpuSpec;
use h2tap_scheduler::CostModel;
use h2tap_storage::Layout;
use h2tap_workloads::tpch::{self, q6};

/// An engine with 24 data-parallel CPU cores whose placement model starts
/// from the drifted constants of the issue: per-tuple CPU cost 2x too high,
/// GPU dispatch overhead 5x too low. One lineitem table per requested size.
fn miscalibrated_engine(sizes: &[u64]) -> (Caldera, Vec<TableId>) {
    let mut config = CalderaConfig::with_workers(1);
    config.olap_cpu_cores = 24;
    config.snapshot_policy = SnapshotPolicy::Manual;
    let truth = CostModel::default();
    config.cost_model_seed = CostModel {
        cpu_per_tuple_ns: truth.cpu_per_tuple_ns * 2.0,
        gpu_dispatch_overhead_secs: truth.gpu_dispatch_overhead_secs / 5.0,
        ..truth
    };
    let mut builder = Caldera::builder(config);
    let tables = sizes
        .iter()
        .map(|&rows| {
            tpch::load_lineitem_named(&mut builder, &format!("lineitem_{rows}"), Layout::Dsm, rows, 7).unwrap()
        })
        .collect();
    (builder.start().unwrap(), tables)
}

/// The tentpole behaviour end to end: mis-tuned constants misplace queries at
/// first, and the loop self-corrects *from routed queries alone* — placement
/// flips mid-workload once the model has caught up with the measured sites.
#[test]
fn placement_self_corrects_from_wrong_constants_via_routed_queries_only() {
    let (caldera, tables) = miscalibrated_engine(&[5_000, 100_000]);
    let (small, large) = (tables[0], tables[1]);
    let query = q6();

    // With the seeded constants the small scan misroutes to the GPU: the
    // 5x-low dispatch overhead hides the GPU's fixed cost and the 2x-high
    // per-tuple cost inflates the CPU estimate.
    let first = caldera.run_olap(small, &query).unwrap();
    assert_eq!(first.site, OlapTarget::Gpu, "seed constants must misplace the small scan");

    // Keep answering the mixed stream through the production dispatch path.
    let mut small_sites = Vec::new();
    let mut large_sites = Vec::new();
    for _ in 0..40 {
        small_sites.push(caldera.run_olap(small, &query).unwrap().site);
        large_sites.push(caldera.run_olap(large, &query).unwrap().site);
    }

    // Placement flipped mid-workload: the tail of the stream routes the
    // small scan to the CPU (its measured oracle) while the large scan stays
    // on the GPU.
    assert!(small_sites[15..].iter().all(|&s| s == OlapTarget::Cpu), "small scans must flip to CPU: {small_sites:?}");
    assert!(large_sites[15..].iter().all(|&s| s == OlapTarget::Gpu), "large scans must stay on GPU: {large_sites:?}");
    assert!(
        small_sites.first() != small_sites.last(),
        "the flip must happen mid-workload, not be the static choice: {small_sites:?}"
    );

    // The model moved from the wrong seeds toward the sites' true constants,
    // and the oracle (forced runs) agrees with the final placements.
    let model = caldera.cost_model();
    assert!((model.cpu_per_tuple_ns - 93.0).abs() / 93.0 < 0.05, "per-tuple {}", model.cpu_per_tuple_ns);
    assert!(model.gpu_dispatch_overhead_secs > 2e-5, "dispatch overhead {}", model.gpu_dispatch_overhead_secs);
    let cpu = caldera.run_olap_on(small, &query, OlapTarget::Cpu).unwrap();
    let gpu = caldera.run_olap_on(small, &query, OlapTarget::Gpu).unwrap();
    assert!(cpu.time < gpu.time, "oracle check: CPU {} must beat GPU {} on the small scan", cpu.time, gpu.time);
    let stats = caldera.shutdown();
    assert!(stats.calibration.observations >= 40);
    for site in [OlapTarget::Cpu, OlapTarget::Gpu] {
        let err = stats.prediction_error_on(site).unwrap();
        assert!(err < 0.10, "steady-state {site:?} prediction error {err} must be under 10%");
    }
}

/// Regression for the forced-dispatch contract: `run_olap_on` observations
/// still feed the calibrator (they are ground truth about their site) but a
/// forced run never recurses into the placement heuristic — it executes
/// exactly where it was forced, even when the calibrated model disagrees.
#[test]
fn forced_site_runs_feed_calibration_but_never_recurse_into_placement() {
    let (caldera, tables) = miscalibrated_engine(&[5_000]);
    let small = tables[0];
    let query = q6();

    for _ in 0..15 {
        let out = caldera.run_olap_on(small, &query, OlapTarget::Gpu).unwrap();
        assert_eq!(out.site, OlapTarget::Gpu, "a forced run must never be redirected");
    }
    let report = caldera.stats().calibration;
    assert_eq!(report.site(OlapTarget::Gpu).unwrap().observations, 15, "forced runs must feed calibration");
    assert_eq!(report.site(OlapTarget::Gpu).unwrap().forced_observations, 15, "and be reported as forced");
    assert_eq!(report.site(OlapTarget::Cpu).unwrap().observations, 0);
    // The forced observations recalibrated the GPU model (its 5x-low
    // dispatch overhead is gone) …
    assert!(report.model.gpu_dispatch_overhead_secs > 2e-5);
    // … so the *next routed* query sees through the GPU's fixed cost and
    // places the small scan on the CPU — proof the forced runs calibrated
    // placement without ever being placed themselves.
    let routed = caldera.run_olap(small, &query).unwrap();
    assert_eq!(routed.site, OlapTarget::Cpu);
    let stats = caldera.shutdown();
    assert_eq!(stats.olap_queries_on(OlapTarget::Gpu), 15);
    assert_eq!(stats.olap_queries_on(OlapTarget::Cpu), 1);
}

/// Mirror of the placement-recovery test for a two-device GPU site: its
/// bandwidth scale is seeded 3x too high, so the model first over-predicts
/// the pair's scans. Forced-site runs feed the calibrator ground truth about
/// both sites; the scale over the critical device's shard time converges,
/// and routed placement agrees with the forced-site oracle to >= 90% within
/// the first 50 observations.
#[test]
fn two_gpu_bandwidth_scale_recalibrates_and_recovers_the_oracle() {
    let mut config = CalderaConfig::with_workers(1);
    config.olap_cpu_cores = 24;
    config.snapshot_policy = SnapshotPolicy::Manual;
    config.olap_device.gpus = vec![GpuSpec::gtx_980(), GpuSpec::gtx_980()];
    config.olap_device.placement = DataPlacement::DeviceResident;
    let truth = CostModel::default();
    config.cost_model_seed = CostModel { gpu_bandwidth_scale: truth.gpu_bandwidth_scale * 3.0, ..truth };
    let mut builder = Caldera::builder(config);
    let small = tpch::load_lineitem_named(&mut builder, "lineitem_small", Layout::Dsm, 5_000, 7).unwrap();
    let large = tpch::load_lineitem_named(&mut builder, "lineitem_large", Layout::Dsm, 150_000, 7).unwrap();
    let caldera = builder.start().unwrap();
    let query = q6();

    // The 3x-wrong scale over-predicts the pair's first large scan.
    caldera.run_olap_on(large, &query, OlapTarget::Gpu).unwrap();
    let first = *caldera.stats().calibration.site(OlapTarget::Gpu).unwrap();
    assert!(first.signed_error < -0.2, "the 3x-wrong seed must over-predict the first large scan: {first:?}");

    // Answer a mixed stream; each iteration also runs the forced-site oracle
    // (which doubles as ground-truth calibration input for both sites).
    // Observations per iteration: 1 routed + 2 forced = 3.
    let mut decisions: Vec<bool> = Vec::new();
    for i in 0..32 {
        let table = if i % 2 == 0 { large } else { small };
        let routed = caldera.run_olap(table, &query).unwrap();
        let cpu = caldera.run_olap_on(table, &query, OlapTarget::Cpu).unwrap();
        let gpu = caldera.run_olap_on(table, &query, OlapTarget::Gpu).unwrap();
        let oracle = if cpu.time < gpu.time { OlapTarget::Cpu } else { OlapTarget::Gpu };
        decisions.push(routed.site == oracle);
        // Both sites stay byte-identical while the model moves.
        assert_eq!(cpu.value.to_bits(), gpu.value.to_bits());
    }
    // 3 observations per iteration, plus the first: "within 50
    // observations" = after the first 17 iterations (52 observations),
    // agreement must be >= 90%.
    let tail = &decisions[17..];
    let agreement = tail.iter().filter(|&&a| a).count() as f64 / tail.len() as f64;
    assert!(agreement >= 0.9, "oracle agreement after 50 observations was {agreement}: {decisions:?}");

    // The scale moved from its 3x-wrong seed toward the truth, and the
    // tail routes large scans to the pair.
    let model = caldera.cost_model();
    assert!(model.gpu_bandwidth_scale < 2.0, "scale must fall from 3.0, got {}", model.gpu_bandwidth_scale);
    let routed = caldera.run_olap(large, &query).unwrap();
    assert_eq!(routed.site, OlapTarget::Gpu, "calibrated placement must keep large scans on the pair");
    let stats = caldera.shutdown();
    let row = stats.calibration.site(OlapTarget::Gpu).unwrap();
    assert!(row.observations >= 32, "forced GPU runs must feed the calibrator");
    assert!(stats.prediction_error_on(OlapTarget::Gpu).unwrap() < 0.15);
}

/// The OOM fallback records its observation against the site that actually
/// answered: a GPU-placed query that falls back to the CPU is a CPU
/// observation, so the calibrator never attributes CPU times to the GPU
/// model.
#[test]
fn oom_fallback_observations_are_attributed_to_the_cpu() {
    let mut config = CalderaConfig::with_workers(1);
    config.olap_cpu_cores = 2;
    config.olap_device.placement = h2tap_olap::DataPlacement::DeviceResident;
    config.olap_device.gpus[0].mem_capacity_mib = 1; // everything OOMs
    config.snapshot_policy = SnapshotPolicy::Manual;
    let mut builder = Caldera::builder(config);
    let table = tpch::load_lineitem(&mut builder, Layout::Dsm, 60_000, 7).unwrap();
    let caldera = builder.start().unwrap();
    let out = caldera.run_olap(table, &q6()).unwrap();
    assert_eq!(out.site, OlapTarget::Cpu, "device-resident table cannot fit: CPU answers");
    let report = caldera.stats().calibration;
    assert_eq!(report.site(OlapTarget::Cpu).unwrap().observations, 1);
    assert_eq!(report.site(OlapTarget::Gpu).unwrap().observations, 0);
    caldera.shutdown();
}
