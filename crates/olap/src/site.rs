//! The one execution site type: every place an analytical query can run in
//! the data-parallel archipelago is a [`Site`].
//!
//! "The scheduler can combine dynamic run-time information, such as data
//! locality, with static optimizer cost models to decide if a given
//! analytical query should be executed on CPU or GPU cores in the
//! data-parallel archipelago." The archipelago has two kinds of compute, and
//! both answer a plan the same way: the shared [`PlanDataCache`] prepares
//! the plan's columns and hash table, and one routine evaluates the fixed
//! chunks in ascending order and merges them in that order. What sets one
//! site apart from another is only what it *charges*, and a closed enum of
//! charge arms owns that: the CPU arm ([`crate::cpu`]) prices the plan in
//! closed form over the archipelago's cores, and the GPU arm
//! ([`crate::multi_gpu`]) registers tables in device memory and prices
//! simulated kernels and transfers over one device or a chunk-sharded mix.
//! The engine's one dispatch path picks between the sites it was built with
//! per query with [`h2tap_scheduler::place_olap_query_sites`].
//!
//! [`OlapPlan`] is the only IR a site sees: a
//! [`h2tap_common::ScanAggQuery`] reaches it as the degenerate plan
//! [`OlapPlan::scan`] (no join, no group-by, one aggregate), which every
//! site answers through the same data path and charges by the plan's shape.
//!
//! Sites are immutable once built: every method takes `&self`, and what an
//! engine shares between its sites (the plan-data cache, the tracer) is
//! handed over by the consuming [`Site::with_shared`] step. Sites are also
//! **concurrent** — the engine serves analytical queries from many client
//! threads at once, so each arm keeps its mutable state behind short-lived
//! locks that are never held across host compute.

use crate::cache::PlanDataCache;
use crate::cpu::{CpuCharge, CpuScanProfile, CpuSpec};
use crate::engine::{DataPlacement, OlapOutcome, PlanOutcome};
use crate::multi_gpu::GpuCharge;
use crate::operators::{self, PlanEvaluation};
use h2tap_common::{ExecBreakdown, H2Error, OlapPlan, OlapTarget, Result, ScanAggQuery, SimDuration};
use h2tap_gpu_sim::{GpuDevice, KernelMetrics};
use h2tap_obs::{SpanEvent, SpanKind, Tracer};
use h2tap_scheduler::SiteCapability;
use h2tap_storage::SnapshotTable;

/// A place where analytical queries execute: the CPU cores of the
/// data-parallel archipelago, its GPU, or a mix of GPUs that shard every
/// table. The constructor fixes which [`OlapTarget`] the site serves.
pub struct Site {
    target: OlapTarget,
    charge: Charge,
    /// Snapshot-keyed plan-data cache (the engine's shared one after
    /// [`Site::with_shared`], private otherwise).
    cache: PlanDataCache,
    /// Trace handle; disabled (no-op) unless the engine shared one.
    tracer: Tracer,
}

/// What a site charges for the answer it computes, and what it registers and
/// reports to placement to do so.
enum Charge {
    /// Closed-form CPU seconds over the archipelago's cores.
    Cpu(CpuCharge),
    /// Simulated kernels and transfers over one or more GPUs.
    Gpu(GpuCharge),
}

/// What a charge arm bills one evaluation: the simulated time, how it splits
/// into the cost model's terms, the kernels launched and the bytes moved
/// over the interconnect.
pub(crate) struct Price {
    pub(crate) time: SimDuration,
    pub(crate) breakdown: ExecBreakdown,
    pub(crate) kernels: Vec<KernelMetrics>,
    pub(crate) interconnect_bytes: u64,
}

/// The CPU site of the frozen benchmark's probes. Kept for the frozen
/// benchmark; ROADMAP 3f / 11e deletes.
pub type CpuOlapEngine = Site;

impl Site {
    fn new(target: OlapTarget, charge: Charge) -> Self {
        Self { target, charge, cache: PlanDataCache::new(), tracer: Tracer::disabled() }
    }

    /// A CPU site ([`OlapTarget::Cpu`]) with an explicit hardware spec and
    /// execution profile.
    pub fn cpu(spec: CpuSpec, profile: CpuScanProfile) -> Self {
        Self::new(OlapTarget::Cpu, Charge::Cpu(CpuCharge::new(spec, profile)))
    }

    /// The data-parallel archipelago's CPU site: vectorised profile, the
    /// paper's per-core bandwidth, and `cores` CPU cores (the archipelago's
    /// current allotment; updated on migration via [`Site::set_cores`]).
    pub fn archipelago_default(cores: u32) -> Self {
        let cores = cores.max(1);
        let per_core = CpuSpec::default().per_core_bandwidth_gbps();
        Self::cpu(CpuSpec { cores, mem_bandwidth_gbps: per_core * f64::from(cores) }, CpuScanProfile::vectorized())
    }

    /// The single-GPU site ([`OlapTarget::Gpu`]) on `device` with the given
    /// data placement: the mix of one device, which holds every chunk.
    pub fn gpu(device: GpuDevice, placement: DataPlacement) -> Self {
        Self::new(OlapTarget::Gpu, Charge::Gpu(GpuCharge::new(vec![device], placement)))
    }

    /// The multi-GPU site ([`OlapTarget::MultiGpu`]) over `devices` with the
    /// given (shared) data placement. At least one device is required.
    pub fn sharded(devices: Vec<GpuDevice>, placement: DataPlacement) -> Result<Self> {
        if devices.is_empty() {
            return Err(H2Error::Config("a multi-GPU site needs at least one device".into()));
        }
        Ok(Self::new(OlapTarget::MultiGpu, Charge::Gpu(GpuCharge::new(devices, placement))))
    }

    /// Builds the site into an engine: it answers from the engine's shared
    /// plan-data cache and records into the engine's tracer from here on.
    pub fn with_shared(mut self, cache: PlanDataCache, tracer: Tracer) -> Self {
        self.cache = cache.traced(tracer.clone());
        self.tracer = tracer;
        self
    }

    /// Which placement target this site serves.
    pub fn target(&self) -> OlapTarget {
        self.target
    }

    /// Executes a relational plan (filter → optional hash join → optional
    /// group-by) over a frozen probe table and, for join plans, a frozen
    /// build table. Every site returns **byte-identical**
    /// [`h2tap_common::GroupRow`]s for the same plan over the same snapshot
    /// (see [`h2tap_common::plan`] for the evaluation-order contract); only
    /// the simulated cost differs.
    ///
    /// The steps run once for every arm: validate the plan against its
    /// tables; let the arm take what it needs up front (the GPU arm registers
    /// the tables on first use and reserves its hash replicas, so an
    /// out-of-memory device fails before any work); prepare the plan's data
    /// through the shared cache; evaluate it; let the arm price the
    /// evaluation and release what it took; emit the execution spans.
    pub fn execute(
        &self,
        probe: &SnapshotTable,
        build: Option<&SnapshotTable>,
        plan: &OlapPlan,
    ) -> Result<PlanOutcome> {
        operators::check_plan_tables(probe, build, plan)?;
        let answer = |threads: usize, zonemaps: bool| -> Result<PlanEvaluation> {
            let data = self.cache.prepare_plan(probe, build, plan)?;
            Ok(operators::evaluate_plan(&data, plan, threads, zonemaps, &self.tracer, self.target))
        };
        let (eval, price) = match &self.charge {
            Charge::Cpu(cpu) => cpu.run(probe, build, plan, answer)?,
            Charge::Gpu(gpu) => gpu.run(probe, build, plan, answer)?,
        };
        let out = PlanOutcome {
            groups: eval.groups,
            qualifying_rows: eval.totals.joined,
            grouped: plan.group_by.is_some(),
            rows_scanned: eval.rows_scanned,
            chunks_skipped: eval.chunks_skipped,
            threads_used: eval.threads_used,
            time: price.time,
            kernels: price.kernels,
            interconnect_bytes: price.interconnect_bytes,
            breakdown: price.breakdown,
            site: self.target,
        };
        emit_execution_spans(&self.tracer, &out);
        Ok(out)
    }

    /// [`Site::execute`] over [`OlapPlan::scan`], with the global group
    /// flattened to a scalar. Kept for the frozen benchmark; ROADMAP 3f / 11e
    /// deletes.
    pub fn execute_scan(&self, table: &SnapshotTable, query: &ScanAggQuery) -> Result<OlapOutcome> {
        self.execute(table, None, &OlapPlan::scan(query)).map(PlanOutcome::into_scan_outcome)
    }

    /// [`Site::execute`] under its former name. Kept for the frozen
    /// benchmark; ROADMAP 3f / 11e deletes.
    pub fn execute_plan_pipeline(
        &self,
        probe: &SnapshotTable,
        build: Option<&SnapshotTable>,
        plan: &OlapPlan,
    ) -> Result<PlanOutcome> {
        self.execute(probe, build, plan)
    }

    /// Releases every table registration (called on snapshot refresh).
    pub fn reset_tables(&self) {
        if let Charge::Gpu(gpu) = &self.charge {
            gpu.reset_tables();
        }
    }

    /// Reacts to archipelago core migration: the CPU site runs and prices
    /// its next plans on `cores` cores. GPU sites ignore it.
    pub fn set_cores(&self, cores: u32) {
        if let Charge::Cpu(cpu) = &self.charge {
            cpu.set_cores(cores);
        }
    }

    /// Capacity hint: the smallest free device memory across the site's
    /// devices — the headroom any *replicated* per-device structure (the
    /// join hash table) must fit. `None` for the CPU, which streams from
    /// host DRAM, so the placement heuristic skips its footprint check.
    pub fn free_device_bytes(&self) -> Option<u64> {
        match &self.charge {
            Charge::Cpu(_) => None,
            Charge::Gpu(gpu) => Some(gpu.free_device_bytes()),
        }
    }

    /// Cost hint: the fraction of registered bytes already resident next to
    /// this site's compute (device memory for a GPU, host DRAM — where every
    /// snapshot already lives — for the CPU), in `[0, 1]`. The placement
    /// heuristic charges non-resident bytes to the interconnect.
    pub fn resident_fraction(&self) -> f64 {
        match &self.charge {
            Charge::Cpu(_) => 1.0,
            Charge::Gpu(gpu) => gpu.resident_fraction(),
        }
    }

    /// The site's self-description for placement: CPU core count, or the
    /// per-device specs / shard fractions / residency / free memory of a
    /// GPU site. Sites *enumerate* their capabilities so the scheduler's
    /// decision is an N-way argmin over whatever sites the engine runs.
    pub fn capability(&self) -> SiteCapability {
        match &self.charge {
            Charge::Cpu(cpu) => SiteCapability::Cpu { cores: cpu.cores() },
            Charge::Gpu(gpu) => gpu.capability(self.target),
        }
    }

    /// Bytes currently allocated on each device (registered tables plus any
    /// live scratch), in shard order; empty for the CPU.
    pub fn device_used_bytes(&self) -> Vec<u64> {
        match &self.charge {
            Charge::Cpu(_) => Vec::new(),
            Charge::Gpu(gpu) => gpu.device_used_bytes(),
        }
    }
}

/// Emits an execution's kernel/merge spans: one span per launched kernel
/// (simulated durations — the same frame of reference as the outcome's
/// [`ExecBreakdown`], so per-query span sums are comparable with the
/// query's breakdown), with the full breakdown attached to the *last* span.
/// An arm without per-kernel metrics (the CPU) gets one `Kernel` span
/// covering its whole execution.
fn emit_execution_spans(tracer: &Tracer, out: &PlanOutcome) {
    if !tracer.enabled() {
        return;
    }
    if out.kernels.is_empty() {
        tracer.record(
            SpanEvent::new(SpanKind::Kernel)
                .site(out.site)
                .dur_secs(out.time.as_secs_f64())
                .bytes(out.interconnect_bytes)
                .breakdown(out.breakdown),
        );
        return;
    }
    for (i, k) in out.kernels.iter().enumerate() {
        let kind = if k.name.starts_with("merge") { SpanKind::Merge } else { SpanKind::Kernel };
        let mut event = SpanEvent::new(kind).site(out.site).dur_secs(k.time.as_secs_f64()).bytes(k.interconnect_bytes);
        if i + 1 == out.kernels.len() {
            event = event.breakdown(out.breakdown);
        }
        tracer.record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2tap_common::{AggExpr, AttrType, PartitionId, Predicate, ScanAggQuery, Schema, Value};
    use h2tap_gpu_sim::GpuSpec;
    use h2tap_storage::{Database, Layout};

    fn snapshot_table(rows: i64) -> SnapshotTable {
        let db = Database::new(1);
        let t = db.create_table("t", Schema::homogeneous("c", 2, AttrType::Int64), Layout::Dsm).unwrap();
        for i in 0..rows {
            db.insert(PartitionId(0), t, &[Value::Int64(i), Value::Int64(2 * i)]).unwrap();
        }
        let snap = db.snapshot();
        snap.table(t).unwrap().clone()
    }

    fn sites() -> Vec<Site> {
        vec![
            Site::gpu(GpuDevice::new(GpuSpec::gtx_980()), DataPlacement::DeviceResident),
            Site::archipelago_default(4),
            Site::sharded(
                vec![GpuDevice::new(GpuSpec::gtx_980_ti()), GpuDevice::new(GpuSpec::gtx_580())],
                DataPlacement::DeviceResident,
            )
            .unwrap(),
        ]
    }

    #[test]
    fn all_sites_agree_through_the_trait() {
        let table = snapshot_table(1_000);
        let query = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![1]));
        let mut answers = Vec::new();
        for site in sites() {
            let out = site.execute(&table, None, &OlapPlan::scan(&query)).unwrap();
            assert_eq!(out.site, site.target());
            answers.push(out.single_value().unwrap());
            site.reset_tables();
        }
        assert!(answers.windows(2).all(|w| w[0].to_bits() == w[1].to_bits()), "{answers:?}");
        assert_eq!(answers[0], (0..1_000).map(|i| 2.0 * i as f64).sum::<f64>());
    }

    #[test]
    fn both_sites_agree_on_a_join_group_by_plan() {
        // Probe: c0 = i, c1 = 2i; the build table is keyed on the even
        // values c1 takes, classed modulo 3.
        let probe = snapshot_table(500);
        let db = Database::new(1);
        let t = db
            .create_table(
                "dim",
                Schema::new(vec![
                    h2tap_common::Attribute::new("key", h2tap_common::AttrType::Int64),
                    h2tap_common::Attribute::new("class", h2tap_common::AttrType::Int32),
                ])
                .unwrap(),
                Layout::Dsm,
            )
            .unwrap();
        for i in 0..300i64 {
            db.insert(PartitionId(0), t, &[Value::Int64(2 * i), Value::Int32((i % 3) as i32)]).unwrap();
        }
        let build = db.snapshot().table(t).unwrap().clone();
        let plan = h2tap_common::OlapPlan {
            predicates: vec![h2tap_common::Predicate::between(0, 0.0, 399.0)],
            join: Some(h2tap_common::JoinSpec { probe_column: 1, build_key: 0, build_predicates: vec![] }),
            group_by: Some(h2tap_common::PlanColumn::Build(1)),
            aggregates: vec![AggExpr::SumColumns(vec![1]), AggExpr::Count],
        };
        let mut results = Vec::new();
        for site in sites() {
            let out = site.execute(&probe, Some(&build), &plan).unwrap();
            assert_eq!(out.site, site.target());
            results.push(out);
            site.reset_tables();
        }
        // Byte-identical groups on every site.
        for pair in results.windows(2) {
            assert_eq!(pair[0].groups, pair[1].groups);
            assert_eq!(pair[0].qualifying_rows, pair[1].qualifying_rows);
        }
        // Probe rows 0..=399 have c1 = 2i in 0..=798; build keys reach 598,
        // so rows with c1 <= 598 (i <= 299) survive the join.
        assert_eq!(results[0].qualifying_rows, 300);
        assert_eq!(results[0].groups.len(), 3);
    }

    /// Every arm reports what its evaluation did, under the evaluation
    /// parameters it has always used: the vectorised CPU skips the chunks a
    /// clustered predicate rules out, on its cores; a GPU site evaluates
    /// every chunk on one host thread, and both charge the same answer.
    #[test]
    fn execute_reports_the_evaluation_on_every_arm() {
        let table = snapshot_table(300_000); // c0 sorted: tight zonemaps
        let query = ScanAggQuery { predicates: vec![Predicate::between(0, 0.0, 9_999.0)], aggregate: AggExpr::Count };
        let outs: Vec<PlanOutcome> =
            sites().iter().map(|site| site.execute(&table, None, &OlapPlan::scan(&query)).unwrap()).collect();
        let [gpu, cpu, multi] = [&outs[0], &outs[1], &outs[2]];
        assert!(cpu.chunks_skipped > 0 && cpu.rows_scanned < 300_000, "{cpu:?}");
        assert_eq!(cpu.threads_used, 4, "the pool is sized by the site's cores");
        for out in [gpu, multi] {
            assert_eq!((out.chunks_skipped, out.rows_scanned, out.threads_used), (0, 300_000, 1), "{:?}", out.site);
            assert_eq!(out.groups, cpu.groups);
        }
    }

    #[test]
    fn free_device_bytes_distinguishes_bounded_sites() {
        let all = sites();
        assert!(all[0].free_device_bytes().is_some(), "the GPU site has bounded device memory");
        assert!(all[1].free_device_bytes().is_none(), "the CPU streams from host DRAM");
        assert!(all[2].free_device_bytes().is_some(), "the multi-GPU site reports its min per-device headroom");
    }

    #[test]
    fn targets_and_labels_identify_the_sites() {
        let all = sites();
        assert_eq!(all[0].target(), OlapTarget::Gpu);
        assert_eq!(all[1].target(), OlapTarget::Cpu);
        assert_eq!(all[2].target(), OlapTarget::MultiGpu);
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.target().label(), b.target().label());
            }
        }
    }

    #[test]
    fn capabilities_enumerate_the_sites_for_placement() {
        let all = sites();
        for site in &all {
            assert_eq!(site.capability().target(), site.target());
        }
        match all[2].capability() {
            h2tap_scheduler::SiteCapability::Gpu { devices, .. } => {
                assert_eq!(devices.len(), 2);
                let total: f64 = devices.iter().map(|d| d.shard_fraction).sum();
                assert!((total - 1.0).abs() < 1e-12, "shard fractions cover the table");
            }
            other => panic!("multi-GPU capability must enumerate devices: {other:?}"),
        }
    }

    #[test]
    fn resident_fraction_reflects_placement() {
        let device_resident = sites().remove(0);
        assert_eq!(device_resident.resident_fraction(), 1.0);
        let uva = Site::gpu(GpuDevice::new(GpuSpec::gtx_980()), DataPlacement::Host(h2tap_gpu_sim::AccessMode::Uva));
        assert_eq!(uva.resident_fraction(), 0.0);
        // The CPU always streams from host DRAM: everything is "resident".
        assert_eq!(Site::archipelago_default(8).resident_fraction(), 1.0);
    }
}
