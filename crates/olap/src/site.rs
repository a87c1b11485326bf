//! The `ExecutionSite` abstraction: one interface over every place an
//! analytical query can run in the data-parallel archipelago.
//!
//! "The scheduler can combine dynamic run-time information, such as data
//! locality, with static optimizer cost models to decide if a given
//! analytical query should be executed on CPU or GPU cores in the
//! data-parallel archipelago." For that decision to be *real* the engine
//! needs both targets behind one dispatchable interface: the GPU
//! kernel-at-a-time executor ([`crate::GpuOlapEngine`], over one device or a
//! sharded mix) and the CPU vectorised scan engine
//! ([`crate::CpuOlapEngine`]) are the two implementations of
//! [`ExecutionSite`], and the engine's one dispatch path picks between the
//! sites it was built with per query with
//! [`h2tap_scheduler::place_olap_query_sites`].
//!
//! Sites are immutable once built: every trait method takes `&self`, and
//! what an engine shares between its sites (the plan-data cache, the
//! tracer) is handed over by a consuming `with_shared` step before the site
//! is boxed.
//!
//! [`OlapPlan`] is the only IR a site sees: a
//! [`h2tap_common::ScanAggQuery`] reaches it as the degenerate plan
//! [`OlapPlan::scan`] (no join, no group-by, one aggregate), which every
//! site answers through the same shared data path and charges by the
//! plan's shape.
//!
//! Besides execution, a site exposes the *cost and capability hints* the
//! placement heuristic consumes: which [`OlapTarget`] it serves, what
//! fraction of registered bytes already lives next to its compute
//! ([`ExecutionSite::resident_fraction`]), and how it reacts to core
//! migration ([`ExecutionSite::set_cores`]).

use crate::engine::{PlanOutcome, RegisteredTable};
use h2tap_common::{OlapPlan, Result};
use h2tap_obs::{SpanEvent, SpanKind, Tracer};
use h2tap_scheduler::{OlapTarget, SiteCapability};
use h2tap_storage::SnapshotTable;

/// A place where analytical queries execute: the simulated GPU or the CPU
/// cores of the data-parallel archipelago.
///
/// The lifecycle mirrors snapshot-based OLAP: tables of the current snapshot
/// are registered once ([`ExecutionSite::register_table`]), queried any
/// number of times ([`ExecutionSite::execute`]), and dropped together when
/// the snapshot is refreshed ([`ExecutionSite::reset_tables`]).
///
/// Every method takes `&self`: sites are **concurrent** — the engine serves
/// analytical queries from many client threads at once, so each impl owns
/// its mutable state behind interior mutability and must keep `execute`
/// safe (and, for throughput, actually parallel — don't hold a site-wide
/// lock across host compute) under simultaneous calls.
pub trait ExecutionSite: Send + Sync {
    /// Which placement target this site serves.
    fn target(&self) -> OlapTarget;

    /// Human-readable site name for stats and experiment output.
    fn label(&self) -> &'static str;

    /// Registers a snapshot table with the site. Must be called once per
    /// snapshot table before queries run against it.
    fn register_table(&self, table: &SnapshotTable, label: &str) -> Result<RegisteredTable>;

    /// Releases every registration (called on snapshot refresh).
    fn reset_tables(&self);

    /// Releases one table registration, freeing whatever site-local
    /// resources (device buffers) it holds. Used to roll back the tables a
    /// *failed* multi-table attempt registered, so an OOM fallback does not
    /// strand device memory until the next snapshot refresh.
    fn unregister_table(&self, handle: RegisteredTable);

    /// Executes a relational plan (filter → optional hash join → optional
    /// group-by) against a registered probe table and, for join plans, a
    /// registered build table. Sites must return **byte-identical**
    /// [`h2tap_common::GroupRow`]s for the same plan over the same snapshot
    /// (see [`h2tap_common::plan`] for the evaluation-order contract); only
    /// the simulated cost differs.
    fn execute(
        &self,
        probe: RegisteredTable,
        probe_table: &SnapshotTable,
        build: Option<(RegisteredTable, &SnapshotTable)>,
        plan: &OlapPlan,
    ) -> Result<PlanOutcome>;

    /// Capacity hint: free device-local memory in bytes, for sites whose
    /// compute sits next to a bounded memory (the GPU). `None` for sites
    /// that stream from host DRAM — the placement heuristic then skips its
    /// hash-table footprint check.
    fn free_device_bytes(&self) -> Option<u64> {
        None
    }

    /// Cost hint: the fraction of registered bytes already resident next to
    /// this site's compute (device memory for the GPU, host DRAM for the
    /// CPU), in `[0, 1]`. The placement heuristic charges non-resident bytes
    /// to the interconnect.
    fn resident_fraction(&self) -> f64;

    /// The site's self-description for placement: CPU core count, or the
    /// per-device specs / shard fractions / residency / free memory of a
    /// GPU-backed site. Sites *enumerate* their capabilities so the
    /// scheduler's decision is an N-way argmin over whatever sites the
    /// engine actually runs, not a hardcoded CPU-vs-GPU pair.
    fn capability(&self) -> SiteCapability;

    /// Capability hint: reacts to archipelago core migration. Sites that do
    /// not execute on CPU cores ignore it.
    fn set_cores(&self, _cores: u32) {}
}

/// Emits a site execution's kernel/merge spans: one span per launched kernel
/// (simulated durations — the same frame of reference as the site's
/// [`ExecBreakdown`], so per-query span sums are comparable with the
/// query's breakdown), with the full breakdown attached to the *last* span.
/// A site without per-kernel metrics (the CPU pipeline) gets one `Kernel`
/// span covering its whole execution. Shared by both site implementations
/// so their traces cannot drift apart in shape.
pub(crate) fn emit_execution_spans(tracer: &Tracer, out: &PlanOutcome) {
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
    use crate::cpu::CpuOlapEngine;
    use crate::engine::DataPlacement;
    use crate::multi_gpu::GpuOlapEngine;
    use h2tap_common::{AggExpr, AttrType, PartitionId, ScanAggQuery, Schema, Value};
    use h2tap_gpu_sim::{GpuDevice, GpuSpec};
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

    fn sites() -> Vec<Box<dyn ExecutionSite>> {
        vec![
            Box::new(GpuOlapEngine::new(GpuDevice::new(GpuSpec::gtx_980()), DataPlacement::DeviceResident)),
            Box::new(CpuOlapEngine::archipelago_default(4)),
            Box::new(
                GpuOlapEngine::sharded(
                    vec![GpuDevice::new(GpuSpec::gtx_980_ti()), GpuDevice::new(GpuSpec::gtx_580())],
                    DataPlacement::DeviceResident,
                )
                .unwrap(),
            ),
        ]
    }

    #[test]
    fn all_sites_agree_through_the_trait() {
        let table = snapshot_table(1_000);
        let query = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![1]));
        let mut answers = Vec::new();
        for site in sites() {
            let handle = site.register_table(&table, "t").unwrap();
            let out = site.execute(handle, &table, None, &OlapPlan::scan(&query)).unwrap();
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
            let ph = site.register_table(&probe, "fact").unwrap();
            let bh = site.register_table(&build, "dim").unwrap();
            let out = site.execute(ph, &probe, Some((bh, &build)), &plan).unwrap();
            assert_eq!(out.site, site.target());
            results.push(out);
            site.reset_tables();
        }
        // Byte-identical groups through the trait, on every site.
        for pair in results.windows(2) {
            assert_eq!(pair[0].groups, pair[1].groups);
            assert_eq!(pair[0].qualifying_rows, pair[1].qualifying_rows);
        }
        // Probe rows 0..=399 have c1 = 2i in 0..=798; build keys reach 598,
        // so rows with c1 <= 598 (i <= 299) survive the join.
        assert_eq!(results[0].qualifying_rows, 300);
        assert_eq!(results[0].groups.len(), 3);
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
                assert_ne!(a.label(), b.label());
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
        let uva: Box<dyn ExecutionSite> = Box::new(GpuOlapEngine::new(
            GpuDevice::new(GpuSpec::gtx_980()),
            DataPlacement::Host(h2tap_gpu_sim::AccessMode::Uva),
        ));
        assert_eq!(uva.resident_fraction(), 0.0);
        // The CPU always streams from host DRAM: everything is "resident".
        let cpu: Box<dyn ExecutionSite> = Box::new(CpuOlapEngine::archipelago_default(8));
        assert_eq!(cpu.resident_fraction(), 1.0);
    }
}
