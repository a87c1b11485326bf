//! Engine configuration.

use h2tap_gpu_sim::{AccessMode, FaultPlan, GpuSpec};
use h2tap_obs::ObsConfig;
use h2tap_olap::{DataPlacement, SnapshotPolicy};
use h2tap_oltp::OltpConfig;
use h2tap_scheduler::CostModel;

/// The GPUs of the data-parallel archipelago and how table data is exposed
/// to them. The device list is the whole GPU site: one card, or a
/// (possibly heterogeneous) Table 1 mix that shards every table's chunks
/// round-robin.
#[derive(Debug, Clone)]
pub struct OlapDeviceConfig {
    /// The devices, in shard order (defaults to the one GTX 980 of the
    /// paper's testbed). Must not be empty.
    pub gpus: Vec<GpuSpec>,
    /// Data placement shared by every device (defaults to UVA host-resident
    /// shared memory, the Caldera prototype's choice).
    pub placement: DataPlacement,
}

impl Default for OlapDeviceConfig {
    fn default() -> Self {
        Self { gpus: vec![GpuSpec::gtx_980()], placement: DataPlacement::Host(AccessMode::Uva) }
    }
}

/// Top-level Caldera configuration.
///
/// Everything else is a constant of the code, not a knob: the OLTP
/// partitioner starts as modulo hashing (`CalderaBuilder::set_partitioner`
/// replaces it), the CPU site is `Site::archipelago_default`, the calibrator's
/// gains, the circuit breaker's thresholds and the transient-fault retry
/// budget are fixed.
#[derive(Debug, Clone)]
pub struct CalderaConfig {
    /// The task-parallel (OLTP) archipelago configuration: one worker per
    /// CPU core, one partition per worker.
    pub oltp: OltpConfig,
    /// CPU cores granted to the data-parallel archipelago's CPU site, fixed
    /// for the engine's life. 0 reserves none: placement never picks the
    /// CPU, and forced runs and fallbacks get a one-core CPU site.
    pub olap_cpu_cores: usize,
    /// The data-parallel archipelago's GPUs.
    pub olap_device: OlapDeviceConfig,
    /// How often OLAP queries refresh their snapshot.
    pub snapshot_policy: SnapshotPolicy,
    /// The placement cost model the calibrator starts from. The default is
    /// the constants the sites are built with; experiments start from
    /// deliberately wrong constants and watch the feedback loop correct them.
    pub cost_model_seed: CostModel,
    /// Byte budget of the shared plan-data cache (materialised columns +
    /// join hash tables). `None` (the default) is unbounded — the pre-budget
    /// behaviour; `Some(0)` disables the cache; any other value bounds
    /// occupancy with LRU eviction that never drops entries pinned by
    /// in-flight queries.
    pub olap_plan_cache_budget_bytes: Option<u64>,
    /// Per-site OLAP admission budget: how many queries one execution site
    /// runs concurrently. The excess waits in strict arrival order. `None`
    /// (the default) is unbounded; `Some(0)` is clamped to one in-flight
    /// query per site.
    pub olap_admission_in_flight: Option<u32>,
    /// Query tracing. Off by default (the hot path pays one relaxed atomic
    /// load per would-be span); when enabled every dispatch records typed
    /// spans into a bounded ring readable via `Caldera::trace_spans` /
    /// `Caldera::chrome_trace_json`.
    pub observability: ObsConfig,
    /// Deterministic fault injection for the simulated GPUs. `None` (the
    /// default) injects nothing; a quiet plan (all rates zero) is
    /// observationally identical to `None`. Faults surface as typed
    /// `H2Error::Fault` errors and feed the engine's resilience ladder. A
    /// scheduled device loss must name a configured device.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for CalderaConfig {
    fn default() -> Self {
        Self {
            oltp: OltpConfig::default(),
            olap_cpu_cores: 0,
            olap_device: OlapDeviceConfig::default(),
            snapshot_policy: SnapshotPolicy::PerQuery,
            cost_model_seed: CostModel::default(),
            olap_plan_cache_budget_bytes: None,
            olap_admission_in_flight: None,
            observability: ObsConfig::default(),
            fault_plan: None,
        }
    }
}

impl CalderaConfig {
    /// Convenience: a config with `workers` OLTP workers and defaults
    /// everywhere else.
    pub fn with_workers(workers: usize) -> Self {
        Self { oltp: OltpConfig::with_workers(workers), ..Self::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Caldera;
    use h2tap_common::{AttrType, Schema};
    use h2tap_olap::{CpuScanProfile, CpuSpec};
    use h2tap_storage::Layout;

    /// The cost model an engine built from `config` reports before any query.
    fn engine_cost_model(config: CalderaConfig) -> CostModel {
        let mut builder = Caldera::builder(config);
        builder.create_table("t", Schema::homogeneous("c", 2, AttrType::Int64), Layout::Dsm).unwrap();
        let caldera = builder.start().unwrap();
        let model = caldera.cost_model();
        caldera.shutdown();
        model
    }

    #[test]
    fn defaults_match_the_paper_prototype() {
        let c = CalderaConfig::default();
        let names: Vec<&str> = c.olap_device.gpus.iter().map(|g| g.name.as_str()).collect();
        assert_eq!(names, ["GTX 980"]);
        assert!(matches!(c.olap_device.placement, DataPlacement::Host(AccessMode::Uva)));
        assert!(matches!(c.snapshot_policy, SnapshotPolicy::PerQuery));
        assert!(!c.observability.tracing, "query tracing is opt-in");
        assert_eq!(c.cost_model_seed, CostModel::default());
    }

    #[test]
    fn the_default_cost_model_is_the_cpu_sites_own_constants() {
        // The calibrator starts from the constants the CPU site is built
        // with (`Site::archipelago_default`); the model and the site must
        // not drift apart.
        let model = CostModel::default();
        assert_eq!(model.cpu_per_tuple_ns, CpuScanProfile::vectorized().per_tuple_ns);
        assert_eq!(model.cpu_core_bandwidth_gbps, CpuSpec::default().per_core_bandwidth_gbps());
        // 24-core server with 68 GB/s aggregate: ~2.83 GB/s per core.
        assert!((model.cpu_core_bandwidth_gbps - 68.0 / 24.0).abs() < 1e-9);
        assert!(model.gpu_dispatch_overhead_secs > 0.0);
        assert_eq!(model.gpu_bandwidth_scale, 1.0);
    }

    #[test]
    fn a_device_mix_is_seeded_like_one_gpu() {
        let mut c = CalderaConfig::with_workers(1);
        c.olap_device.gpus = h2tap_gpu_sim::table1_mix(2);
        c.cost_model_seed.gpu_dispatch_overhead_secs = 75e-6;
        let seed = engine_cost_model(c);
        assert_eq!(seed.gpu_dispatch_overhead_secs, 75e-6);
        assert_eq!(seed.gpu_bandwidth_scale, 1.0);
    }

    #[test]
    fn explicit_cost_model_seed_wins() {
        let c = CalderaConfig {
            cost_model_seed: CostModel { cpu_per_tuple_ns: 500.0, ..CostModel::default() },
            ..CalderaConfig::with_workers(1)
        };
        assert_eq!(engine_cost_model(c).cpu_per_tuple_ns, 500.0);
    }

    #[test]
    fn with_workers_sets_worker_count() {
        assert_eq!(CalderaConfig::with_workers(8).oltp.workers, 8);
    }
}
