//! The running Caldera engine: both archipelagos over one shared database.
//!
//! Analytical queries are not hard-wired to a device. [`OlapPlan`] is the
//! only IR below the public API — `run_olap` is a shim that runs a
//! [`ScanAggQuery`] as the degenerate plan [`OlapPlan::scan`] — and the one
//! dispatch path builds [`PlacementHints`] from live state (the plan's scan
//! footprint and access-pattern features, GPU residency, the CPU cores the
//! data-parallel archipelago currently owns), asks
//! [`place_olap_query_sites`] for a target, and dispatches to the matching
//! [`Site`] — a simulated GPU site or the archipelago's CPU cores.
//!
//! # Concurrency
//!
//! The engine serves analytical queries from many client threads at once.
//! Instead of one big lock around all OLAP state, the state is split by
//! what actually needs exclusion:
//!
//! - `snap` (`RwLock`): the execution sites and the snapshot they answer
//!   from. Queries hold it **shared** for their whole execution, so any
//!   number run concurrently; a snapshot refresh takes it **exclusive**,
//!   draining in-flight queries first so it can never yank a table a site
//!   registered out from under a running scan.
//! - `meta` (`Mutex`): small bookkeeping — query numbering, snapshot and
//!   time counters, the placement calibrator. Held only for microseconds
//!   around dispatch edges, never across execution.
//! - per-site state ([`SiteSlot`]): counters, the circuit breaker and the
//!   [`AdmissionGate`] that bounds how many queries one site runs at once
//!   (excess admissions wait in strict arrival order).
//!
//! The sites themselves are `&self`-concurrent and own their table
//! registrations (see [`Site`]), and the shared plan-data cache deduplicates
//! concurrent materialisations of the same derived state (shared scans), so
//! the answer of every query stays byte-identical to a serial execution.

use crate::admission::{AdmissionGate, AdmissionStats};
use crate::config::CalderaConfig;
use crate::health::{SiteHealth, SiteHealthState, SiteHealthStats};
use h2tap_common::{H2Error, OlapPlan, PartitionId, PlanCacheStats, Result, ScanAggQuery, SimDuration, TableId};
use h2tap_obs::{MetricsRegistry, MetricsSnapshot, SpanEvent, SpanKind, SpanRecord, Tracer};
use h2tap_olap::{OlapOutcome, PlanDataCache, PlanOutcome, Site, SnapshotPolicy};
use h2tap_oltp::{BenchmarkWindow, OltpRuntime, OltpStats, TxnProc};
use h2tap_scheduler::{
    estimate_target_secs, place_olap_query_sites, ArchipelagoKind, CalibrationReport, CostCalibrator, CostModel,
    OlapTarget, PlacementExplanation, PlacementHints, PlacementObservation, Scheduler, SiteCapability,
};
use h2tap_storage::{CowStats, Database, Snapshot};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-execution-site OLAP counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OlapSiteStats {
    /// The placement target this site serves.
    pub target: OlapTarget,
    /// Site name ("gpu", "cpu").
    pub label: &'static str,
    /// Queries dispatched to the site.
    pub queries: u64,
    /// Total simulated execution time on the site.
    pub time: SimDuration,
    /// Admission counters: executions admitted, admissions that had to
    /// queue behind the site's in-flight budget, permits currently held.
    pub admission: AdmissionStats,
    /// Circuit-breaker position and fault counters for the site.
    pub health: SiteHealthStats,
}

/// Engine-wide resilience-ladder counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Typed site faults observed by dispatch (injected or organic).
    pub faults: u64,
    /// In-place retries after transient faults.
    pub retries: u64,
    /// Dispatches re-routed to the next-best site after a failure.
    pub fallbacks: u64,
    /// Queries abandoned because the per-query deadline expired mid-ladder.
    pub deadline_timeouts: u64,
}

/// Interior-mutable backing for [`ResilienceStats`].
#[derive(Debug, Default)]
struct ResilienceCounters {
    faults: AtomicU64,
    retries: AtomicU64,
    fallbacks: AtomicU64,
    deadline_timeouts: AtomicU64,
}

impl ResilienceCounters {
    fn snapshot(&self) -> ResilienceStats {
        ResilienceStats {
            faults: self.faults.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            deadline_timeouts: self.deadline_timeouts.load(Ordering::Relaxed),
        }
    }
}

/// Combined HTAP statistics for experiment reporting.
#[derive(Debug, Clone, Default)]
pub struct HtapStats {
    /// OLTP-side counters.
    pub oltp: OltpStats,
    /// Copy-on-write / snapshot GC counters.
    pub cow: CowStats,
    /// Analytical queries executed (all sites).
    pub olap_queries: u64,
    /// Total simulated OLAP execution time (all sites).
    pub olap_time: SimDuration,
    /// Per-site OLAP counters, in site order (GPU first).
    pub olap_sites: Vec<OlapSiteStats>,
    /// Snapshots taken by the OLAP path.
    pub snapshots_taken: u64,
    /// Snapshot releases that failed during shutdown (the storage layer no
    /// longer knew the snapshot — an accounting bug upstream). Refresh-path
    /// release failures are not counted here: they fail the refresh itself.
    pub snapshot_release_failures: u64,
    /// Placement feedback-loop state: the current calibrated cost model and
    /// per-site predicted-vs-actual error statistics.
    pub calibration: CalibrationReport,
    /// Hit/miss counters of the plan-data cache shared by every execution
    /// site (materialised columns + zonemap stats, join hash tables).
    pub plan_cache: PlanCacheStats,
    /// Metrics registry snapshot: per-path latency histograms
    /// (`olap.latency.*`, simulated seconds), per-site query counters, and
    /// the plan-cache counter/gauge families mirrored at sampling time.
    pub metrics: MetricsSnapshot,
    /// The most recent placement decisions (bounded ring, newest last):
    /// every site's estimated time, the chosen and executing site, the
    /// observed time and the regret against the best estimate.
    pub placements: Vec<PlacementExplanation>,
    /// Resilience-ladder counters: faults observed, in-place retries,
    /// next-best-site fallbacks, deadline expiries.
    pub resilience: ResilienceStats,
}

impl HtapStats {
    /// Queries the given site answered.
    pub fn olap_queries_on(&self, target: OlapTarget) -> u64 {
        self.olap_sites.iter().find(|s| s.target == target).map_or(0, |s| s.queries)
    }

    /// Mean relative prediction error for `target` (EWMA of
    /// `|predicted - actual| / actual` over that site's observations).
    pub fn prediction_error_on(&self, target: OlapTarget) -> Option<f64> {
        self.calibration.site(target).filter(|s| s.observations > 0).map(|s| s.mean_rel_error)
    }
}

/// Stable metric-name suffix for a placement target.
fn site_key(target: OlapTarget) -> &'static str {
    match target {
        OlapTarget::Gpu => "gpu",
        OlapTarget::Cpu => "cpu",
        OlapTarget::MultiGpu => "multi_gpu",
    }
}

/// One execution site plus its counters, circuit breaker and admission gate.
/// Everything is interior-mutable so concurrent queries share the slot
/// through the snapshot gate's read lock.
struct SiteSlot {
    site: Site,
    queries: AtomicU64,
    time: Mutex<SimDuration>,
    admission: AdmissionGate,
    /// Per-site circuit breaker consulted by placement and fed by every
    /// dispatch outcome.
    health: SiteHealth,
}

impl SiteSlot {
    fn new(site: Site, admission_budget: Option<u32>, health: crate::health::SiteHealthConfig) -> Self {
        Self {
            site,
            queries: AtomicU64::new(0),
            time: Mutex::new(SimDuration::ZERO),
            admission: AdmissionGate::new(admission_budget),
            health: SiteHealth::new(health),
        }
    }

    fn stats(&self) -> OlapSiteStats {
        OlapSiteStats {
            target: self.site.target(),
            label: self.site.target().label(),
            queries: self.queries.load(Ordering::Relaxed),
            time: *self.time.lock(),
            admission: self.admission.stats(),
            health: self.health.stats(),
        }
    }
}

/// The execution sites and the snapshot they are registered against —
/// everything a snapshot refresh must replace atomically. Queries read it
/// shared; refreshes write it exclusively (draining in-flight queries).
struct SnapshotGate {
    sites: Vec<SiteSlot>,
    snapshot: Option<Arc<Snapshot>>,
}

impl SnapshotGate {
    fn slot(&self, target: OlapTarget) -> Option<&SiteSlot> {
        self.sites.iter().find(|slot| slot.site.target() == target)
    }

    /// The slot serving `target`, or a configuration error when the engine
    /// was built without that site (e.g. `run_olap_on(.., MultiGpu)` with no
    /// `olap_multi_gpu` configured).
    fn require_slot(&self, target: OlapTarget) -> Result<&SiteSlot> {
        self.slot(target).ok_or_else(|| H2Error::Config(format!("no execution site configured for target {target:?}")))
    }

    /// The capabilities of every site the engine actually runs — what the
    /// N-way placement argmin and the calibrator consume.
    fn capabilities(&self) -> Vec<SiteCapability> {
        self.sites.iter().map(|slot| slot.site.capability()).collect()
    }
}

/// Small dispatch bookkeeping: query numbering, refresh/time counters and
/// the placement feedback loop. Locked briefly at dispatch edges, never
/// across query execution.
struct OlapMeta {
    query_index: u64,
    snapshots_taken: u64,
    total_time: SimDuration,
    /// The placement feedback loop: every dispatch records an observation
    /// here, and placement reads its calibrated model back out.
    calibrator: CostCalibrator,
}

/// The snapshot-gate guard an analytical query executes under: shared in
/// the common case, exclusive when this query performed the refresh.
enum QueryGuard<'a> {
    Shared(RwLockReadGuard<'a, SnapshotGate>),
    Exclusive(RwLockWriteGuard<'a, SnapshotGate>),
}

impl Deref for QueryGuard<'_> {
    type Target = SnapshotGate;

    fn deref(&self) -> &SnapshotGate {
        match self {
            QueryGuard::Shared(guard) => guard,
            QueryGuard::Exclusive(guard) => guard,
        }
    }
}

/// The running engine.
pub struct Caldera {
    config: CalderaConfig,
    db: Arc<Database>,
    oltp: OltpRuntime,
    /// Sites + current snapshot (see [`SnapshotGate`]). Queries hold the
    /// read side for their whole execution; refreshes take the write side.
    snap: RwLock<SnapshotGate>,
    /// Dispatch bookkeeping (see [`OlapMeta`]). Lock order: `snap` before
    /// `meta`, never the reverse.
    meta: Mutex<OlapMeta>,
    /// The plan-data cache shared by every site. Its entries are versioned
    /// by snapshot epoch, so a refresh leaves it alone.
    plan_cache: PlanDataCache,
    scheduler: Scheduler,
    next_home: AtomicU64,
    /// Query tracing (a no-op unless `config.observability.tracing`); every
    /// execution site and the shared plan-data cache were built with the
    /// same handle.
    tracer: Tracer,
    /// Counters and latency histograms every dispatch feeds.
    metrics: MetricsRegistry,
    /// Engine-wide resilience-ladder counters (faults, retries, fallbacks,
    /// deadline expiries).
    resilience: ResilienceCounters,
}

impl Caldera {
    /// Begins building an engine.
    pub fn builder(config: CalderaConfig) -> crate::builder::CalderaBuilder {
        crate::builder::CalderaBuilder::new(config)
    }

    pub(crate) fn assemble(
        config: CalderaConfig,
        db: Arc<Database>,
        oltp: OltpRuntime,
        sites: Vec<Site>,
        scheduler: Scheduler,
        plan_cache: PlanDataCache,
        tracer: Tracer,
    ) -> Self {
        let calibrator = CostCalibrator::new(config.calibration, config.initial_cost_model());
        let admission_budget = config.olap_admission_in_flight;
        let health_config = config.site_health;
        Self {
            config,
            db,
            oltp,
            snap: RwLock::new(SnapshotGate {
                sites: sites.into_iter().map(|site| SiteSlot::new(site, admission_budget, health_config)).collect(),
                snapshot: None,
            }),
            meta: Mutex::new(OlapMeta {
                query_index: 0,
                snapshots_taken: 0,
                total_time: SimDuration::ZERO,
                calibrator,
            }),
            plan_cache,
            scheduler,
            next_home: AtomicU64::new(0),
            tracer,
            metrics: MetricsRegistry::new(),
            resilience: ResilienceCounters::default(),
        }
    }

    /// The shared-memory database.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The OLTP runtime (task-parallel archipelago).
    pub fn oltp(&self) -> &OltpRuntime {
        &self.oltp
    }

    /// The archipelago scheduler.
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// The configured snapshot policy.
    pub fn snapshot_policy(&self) -> SnapshotPolicy {
        self.config.snapshot_policy
    }

    /// The snapshot analytical queries currently run against: `None` before
    /// the first query (and after a refresh failed partway).
    pub fn current_snapshot(&self) -> Option<Arc<Snapshot>> {
        self.snap.read().snapshot.clone()
    }

    /// The current calibrated placement cost model — starts at the
    /// configured seed and tracks measured site times from then on.
    pub fn cost_model(&self) -> CostModel {
        self.meta.lock().calibrator.model()
    }

    /// A snapshot of the placement feedback loop's state (also available as
    /// [`HtapStats::calibration`]).
    pub fn calibration_report(&self) -> CalibrationReport {
        self.meta.lock().calibrator.report()
    }

    /// The recorded trace spans, oldest first. Empty unless the engine was
    /// built with `config.observability.tracing` set.
    pub fn trace_spans(&self) -> Vec<SpanRecord> {
        self.tracer.snapshot()
    }

    /// The recorded trace as Chrome trace-event JSON — load it in Perfetto
    /// or `chrome://tracing` to see every query's placement, cache,
    /// materialisation and kernel spans per execution site.
    pub fn chrome_trace_json(&self) -> String {
        h2tap_obs::chrome_trace_json(&self.trace_spans())
    }

    /// A point-in-time snapshot of the metrics registry (the same content
    /// [`HtapStats::metrics`] carries): query counters, latency histograms,
    /// plan-cache counter/gauge families, admission counters, trace-ring
    /// health.
    pub fn metrics(&self) -> MetricsSnapshot {
        let cache = self.plan_cache.stats();
        let sites = self.site_stats();
        self.metrics_snapshot(&cache, &sites)
    }

    /// Point-in-time per-site counters (shared read of the snapshot gate).
    fn site_stats(&self) -> Vec<OlapSiteStats> {
        let snap = self.snap.read();
        snap.sites.iter().map(SiteSlot::stats).collect()
    }

    /// Mirrors the point-in-time cache, admission and trace-ring state into
    /// the registry (counters and gauges kept in their own families — see
    /// [`PlanCacheStats::counters`] / [`PlanCacheStats::gauges`]) and
    /// snapshots it.
    fn metrics_snapshot(&self, cache: &PlanCacheStats, sites: &[OlapSiteStats]) -> MetricsSnapshot {
        let counters = cache.counters();
        self.metrics.counter_set("plan_cache.column_hits", counters.column_hits);
        self.metrics.counter_set("plan_cache.column_misses", counters.column_misses);
        self.metrics.counter_set("plan_cache.hash_hits", counters.hash_hits);
        self.metrics.counter_set("plan_cache.hash_misses", counters.hash_misses);
        self.metrics.counter_set("plan_cache.invalidations", counters.invalidations);
        self.metrics.counter_set("plan_cache.evictions", counters.evictions);
        self.metrics.counter_set("plan_cache.shared_scan_attaches", counters.shared_scan_attaches);
        self.metrics.counter_set("plan_cache.chunks_reused", counters.chunks_reused);
        self.metrics.counter_set("plan_cache.chunks_rebuilt", counters.chunks_rebuilt);
        self.metrics.counter_set("plan_cache.hashes_carried", counters.hashes_carried);
        let gauges = cache.gauges();
        self.metrics.gauge_set("plan_cache.occupancy_bytes", gauges.occupancy_bytes as f64);
        if let Some(budget) = gauges.budget_bytes {
            self.metrics.gauge_set("plan_cache.budget_bytes", budget as f64);
        }
        for site in sites {
            let key = site_key(site.target);
            self.metrics.counter_set(&format!("olap.admission.admitted.{key}"), site.admission.admitted);
            self.metrics.counter_set(&format!("olap.admission.queued.{key}"), site.admission.queued);
            self.metrics.counter_set(&format!("olap.admission.timeouts.{key}"), site.admission.timeouts);
            self.metrics.gauge_set(&format!("olap.admission.in_flight.{key}"), f64::from(site.admission.in_flight));
            self.metrics.counter_set(&format!("olap.site_health.failures.{key}"), site.health.failures);
            self.metrics.counter_set(&format!("olap.site_health.quarantines.{key}"), site.health.quarantines);
            self.metrics.counter_set(&format!("olap.site_health.probes.{key}"), site.health.probes);
            // Breaker position as a step gauge: 0 closed, 1 half-open,
            // 2 quarantined (dashboards alert on anything > 0).
            let state = match site.health.state {
                SiteHealthState::Closed => 0.0,
                SiteHealthState::HalfOpen => 1.0,
                SiteHealthState::Quarantined => 2.0,
            };
            self.metrics.gauge_set(&format!("olap.site_health.state.{key}"), state);
            self.metrics.gauge_set(&format!("olap.site_health.window_error_rate.{key}"), site.health.window_error_rate);
        }
        let resilience = self.resilience.snapshot();
        self.metrics.counter_set("olap.faults.observed", resilience.faults);
        self.metrics.counter_set("olap.faults.retries", resilience.retries);
        self.metrics.counter_set("olap.faults.fallbacks", resilience.fallbacks);
        self.metrics.counter_set("olap.faults.deadline_timeouts", resilience.deadline_timeouts);
        self.metrics.counter_set("trace.spans.recorded", self.tracer.recorded());
        self.metrics.counter_set("trace.spans.dropped", self.tracer.dropped());
        self.metrics.snapshot()
    }

    /// Executes a transaction on an explicitly chosen home worker.
    pub fn execute_txn_on(&self, home: PartitionId, proc: TxnProc) -> Result<()> {
        self.scheduler.record_dispatch(ArchipelagoKind::TaskParallel, 1.0);
        self.oltp.execute(home, proc)
    }

    /// Executes a transaction, choosing a home worker round-robin ("an
    /// incoming transaction can be scheduled to run on any thread").
    pub fn execute_txn(&self, proc: TxnProc) -> Result<()> {
        let workers = self.oltp.workers() as u64;
        if workers == 0 {
            // Unreachable through `CalderaBuilder::start` (the runtime
            // refuses to start with zero workers), but a modulo by zero
            // must never panic a library call.
            return Err(H2Error::Config("cannot route a transaction: the engine has no OLTP workers".into()));
        }
        let home = PartitionId((self.next_home.fetch_add(1, Ordering::Relaxed) % workers) as u32);
        self.execute_txn_on(home, proc)
    }

    /// Runs the OLTP benchmark generator (if one was configured) for
    /// `window` and returns throughput.
    pub fn run_oltp_window(&self, window: Duration) -> Result<BenchmarkWindow> {
        self.oltp.run_for(window)
    }

    /// Takes a fresh snapshot immediately, releasing the previous OLAP
    /// snapshot (manual freshness control). Waits for in-flight analytical
    /// queries to drain, so no query ever loses its tables mid-execution.
    pub fn refresh_snapshot(&self) -> Result<()> {
        let mut snap = self.snap.write();
        Self::refresh_gate(&self.db, &mut snap)?;
        // h2tap: allow(lock_order) — ordering rule: `snap` is always acquired before `meta`, never the reverse; the meta guard here is a statement temporary that cannot outlive the snap guard.
        self.meta.lock().snapshots_taken += 1;
        Ok(())
    }

    /// Replaces the gate's snapshot: resets every site's registrations,
    /// releases the old snapshot and takes a new one. Requires the gate's
    /// write side. The plan-data cache is left alone: its entries are
    /// versioned by snapshot epoch, and the new snapshot's first queries
    /// rebuild from them only the chunks written since.
    ///
    /// A failed release is a real accounting bug (the snapshot was already
    /// released behind the engine's back) and is propagated, not swallowed;
    /// the gate is left without a snapshot, so the next query — or retry —
    /// starts clean instead of double-counting against the broken one.
    fn refresh_gate(db: &Arc<Database>, snap: &mut SnapshotGate) -> Result<()> {
        let old = snap.snapshot.take();
        for slot in &snap.sites {
            slot.site.reset_tables();
        }
        if let Some(old) = old {
            db.release_snapshot(&old)?;
        }
        snap.snapshot = Some(db.snapshot());
        Ok(())
    }

    /// Runs an analytical query against `table` on the data-parallel
    /// archipelago: [`Caldera::run_olap_plan`] over the scan-shaped plan
    /// [`OlapPlan::scan`], with the single global group flattened back to a
    /// scalar.
    pub fn run_olap(&self, table: TableId, query: &ScanAggQuery) -> Result<OlapOutcome> {
        self.run_olap_plan(table, None, &OlapPlan::scan(query)).map(PlanOutcome::into_scan_outcome)
    }

    /// Like [`Caldera::run_olap`] but forces the execution site, bypassing
    /// the placement heuristic (used by experiments and site-equivalence
    /// tests; production queries should go through `run_olap`).
    pub fn run_olap_on(&self, table: TableId, query: &ScanAggQuery, target: OlapTarget) -> Result<OlapOutcome> {
        self.run_olap_plan_on(table, None, &OlapPlan::scan(query), target).map(PlanOutcome::into_scan_outcome)
    }

    /// Runs a relational plan (filter → optional hash join on `build` →
    /// optional group-by, see [`OlapPlan`]) on the data-parallel
    /// archipelago, refreshing the snapshot according to the configured
    /// [`SnapshotPolicy`] and dispatching to the execution site the
    /// scheduler's placement heuristic picks from live hints.
    /// Placement uses the plan's access-pattern features —
    /// probe-side random bytes and hash-table footprint against free device
    /// memory — on top of the scan hints, so a join plan can route
    /// differently than a scan of the same table.
    pub fn run_olap_plan(&self, probe: TableId, build: Option<TableId>, plan: &OlapPlan) -> Result<PlanOutcome> {
        self.run_olap_plan_dispatch(probe, build, plan, None)
    }

    /// Like [`Caldera::run_olap_plan`] but forces the execution site,
    /// bypassing the placement heuristic.
    pub fn run_olap_plan_on(
        &self,
        probe: TableId,
        build: Option<TableId>,
        plan: &OlapPlan,
        target: OlapTarget,
    ) -> Result<PlanOutcome> {
        self.run_olap_plan_dispatch(probe, build, plan, Some(target))
    }

    /// Draws this query's number, refreshes the snapshot if the policy (or
    /// a missing snapshot) demands it, and returns the gate guard the query
    /// executes under plus its snapshot and 1-based sequence number.
    ///
    /// Fast path: the policy did not fire and a snapshot exists — a shared
    /// read of the gate, so queries run concurrently. Slow path: take the
    /// write side (draining in-flight queries) and re-check, so racing
    /// first queries refresh the missing snapshot exactly once while a
    /// policy-fired refresh (e.g. `PerQuery`) always happens.
    fn snapshot_for_query(&self) -> Result<(QueryGuard<'_>, Arc<Snapshot>, u64)> {
        let (index, policy_fired) = {
            let mut meta = self.meta.lock();
            let index = meta.query_index;
            meta.query_index += 1;
            (index, self.config.snapshot_policy.should_refresh(index))
        };
        if !policy_fired {
            let snap = self.snap.read();
            if let Some(snapshot) = snap.snapshot.clone() {
                return Ok((QueryGuard::Shared(snap), snapshot, index + 1));
            }
        }
        let mut snap = self.snap.write();
        if policy_fired || snap.snapshot.is_none() {
            Self::refresh_gate(&self.db, &mut snap)?;
            // h2tap: allow(lock_order) — ordering rule: `snap` is always acquired before `meta`, never the reverse; the meta guard here is a statement temporary that cannot outlive the snap guard.
            self.meta.lock().snapshots_taken += 1;
        }
        let snapshot =
            snap.snapshot.clone().ok_or_else(|| H2Error::Config("snapshot missing after refresh".to_string()))?;
        Ok((QueryGuard::Exclusive(snap), snapshot, index + 1))
    }

    /// Folds one finished dispatch into the meta bookkeeping and records it
    /// with the calibrator. The sites' enumerated capabilities supply the
    /// streaming feature of the site that actually answered (per-device
    /// specs and shard fractions for the GPU family), so each site's terms
    /// calibrate against its own mix.
    fn account_outcome(
        &self,
        capabilities: &[SiteCapability],
        hints: &PlacementHints,
        forced: bool,
        chosen: OlapTarget,
        outcome: &PlanOutcome,
        query_seq: u64,
    ) {
        let (site, secs) = (outcome.site, outcome.time.as_secs_f64());
        let observation = PlacementObservation {
            site,
            forced,
            hints: *hints,
            predicted_secs: estimate_target_secs(capabilities, site, hints),
            actual_secs: secs,
            breakdown: Some(outcome.breakdown),
        };
        self.metrics.counter_add("olap.queries", 1);
        self.metrics.counter_add(&format!("olap.queries.{}", site_key(site)), 1);
        self.metrics.observe_secs("olap.latency.secs", secs);
        self.metrics.observe_secs(&format!("olap.latency.{}", site_key(site)), secs);
        let mut meta = self.meta.lock();
        meta.total_time += outcome.time;
        meta.calibrator.observe_sites(capabilities, &observation);
        // Explain the dispatch against the freshly calibrated model: every
        // site's estimate, the regret of the executing site vs the best, and
        // the running regret summary `CalibrationReport::regret` exposes.
        meta.calibrator.explain_dispatch(capabilities, chosen, &observation, query_seq);
    }

    /// Health-aware placement: consults every site's circuit breaker so
    /// quarantined sites never enter the argmin (and the calibrator never
    /// learns from a poisoned site), then charges a probe slot when a
    /// half-open site is the winner. When *every* site is inadmissible the
    /// plain argmin over all sites decides — serving a query on a sick site
    /// beats refusing it outright.
    fn place_with_health(
        &self,
        snap: &SnapshotGate,
        capabilities: &[SiteCapability],
        hints: &PlacementHints,
    ) -> OlapTarget {
        let mut healthy: Vec<SiteCapability> = Vec::with_capacity(capabilities.len());
        for cap in capabilities {
            let Some(slot) = snap.slot(cap.target()) else { continue };
            let verdict = slot.health.consult();
            if verdict.reopened {
                // Quarantined → half-open: the backoff elapsed, probes run.
                self.tracer.record(SpanEvent::new(SpanKind::Quarantine).site(cap.target()));
                self.metrics.counter_add(&format!("olap.site_health.reopened.{}", site_key(cap.target())), 1);
            }
            if verdict.admissible {
                healthy.push(cap.clone());
            }
        }
        let target = if healthy.is_empty() {
            place_olap_query_sites(capabilities, hints)
        } else {
            place_olap_query_sites(&healthy, hints)
        };
        if let Some(slot) = snap.slot(target) {
            slot.health.note_probe();
        }
        target
    }

    /// The next-best execution site once `excluded` sites have failed this
    /// query: the placement argmin over the remaining admissible sites, with
    /// the CPU site as the guaranteed last resort (host DRAM always holds
    /// the data, even when the eligibility heuristics rule the CPU out).
    fn next_best_site(
        snap: &SnapshotGate,
        capabilities: &[SiteCapability],
        hints: &PlacementHints,
        excluded: &[OlapTarget],
    ) -> Option<OlapTarget> {
        let remaining: Vec<SiteCapability> = capabilities
            .iter()
            .filter(|cap| !excluded.contains(&cap.target()))
            .filter(|cap| snap.slot(cap.target()).is_some_and(|slot| slot.health.is_admissible()))
            .cloned()
            .collect();
        if !remaining.is_empty() {
            let chosen = place_olap_query_sites(&remaining, hints);
            // The argmin's nothing-eligible default is not necessarily in
            // `remaining`; never route back to a site that already failed.
            if remaining.iter().any(|cap| cap.target() == chosen) {
                if let Some(slot) = snap.slot(chosen) {
                    slot.health.note_probe();
                }
                return Some(chosen);
            }
        }
        (!excluded.contains(&OlapTarget::Cpu) && snap.slot(OlapTarget::Cpu).is_some()).then_some(OlapTarget::Cpu)
    }

    /// Runs `attempt` through the resilience ladder. Transient faults are
    /// retried in place with doubling backoff; persistent faults, device OOM
    /// and admission congestion fall back to the next-best healthy site; a
    /// configured per-query deadline cuts the ladder with
    /// [`H2Error::Timeout`]. Every outcome feeds the attempted site's
    /// circuit breaker (congestion excepted — a full queue is not the site's
    /// fault). Forced dispatches still retry transient faults in place but
    /// never fall back: the caller asked for exactly that site, and the
    /// site-equivalence tests rely on seeing its error. All successful paths
    /// return bit-identical results because every site computes the same
    /// fixed-chunked, chunk-ordered answer.
    fn run_resilient(
        &self,
        snap: &SnapshotGate,
        capabilities: &[SiteCapability],
        hints: &PlacementHints,
        forced: bool,
        initial: OlapTarget,
        mut attempt: impl FnMut(OlapTarget) -> Result<PlanOutcome>,
    ) -> Result<PlanOutcome> {
        let deadline = self.config.olap_query_deadline.map(|d| Instant::now() + d);
        let mut target = initial;
        let mut excluded: Vec<OlapTarget> = Vec::new();
        let mut retries: u32 = 0;
        loop {
            let err = match attempt(target) {
                Ok(out) => {
                    if let Some(slot) = snap.slot(target) {
                        if slot.health.record_success() {
                            // Probe budget met: the quarantine is lifted.
                            self.tracer.record(SpanEvent::new(SpanKind::Quarantine).site(target));
                            self.metrics.counter_add(&format!("olap.site_health.readmissions.{}", site_key(target)), 1);
                        }
                    }
                    return Ok(out);
                }
                Err(err) => err,
            };
            let expired = deadline.is_some_and(|d| Instant::now() >= d);
            // Classify the failure: does it earn an in-place retry, and is
            // it evidence against the site's health?
            let (retry_in_place, health_feed) = match &err {
                H2Error::Fault { kind, transient, .. } => {
                    self.resilience.faults.fetch_add(1, Ordering::Relaxed);
                    self.metrics.counter_add(&format!("olap.faults.{}", kind.name()), 1);
                    self.tracer.record(SpanEvent::new(SpanKind::Fault).site(target));
                    (*transient, Some(!*transient))
                }
                // The placement hints cannot see every device constraint (a
                // device-resident table can simply not fit): a fallback site
                // still holds the data, so OOM reroutes instead of failing.
                H2Error::GpuOutOfMemory { .. } => (false, Some(false)),
                // Admission congestion: the site is healthy but full —
                // another site may have room right now.
                H2Error::Timeout(_) => (false, None),
                _ => return Err(err),
            };
            if retry_in_place && retries < self.config.olap_retry_max {
                if expired {
                    self.resilience.deadline_timeouts.fetch_add(1, Ordering::Relaxed);
                    return Err(H2Error::Timeout(format!(
                        "query deadline expired after {retries} retries on {target:?}"
                    )));
                }
                retries += 1;
                self.resilience.retries.fetch_add(1, Ordering::Relaxed);
                self.tracer.record(SpanEvent::new(SpanKind::Retry).site(target));
                let backoff = self.config.olap_retry_backoff.saturating_mul(1u32 << retries.min(10));
                if backoff > Duration::ZERO {
                    std::thread::sleep(backoff);
                }
                continue;
            }
            // Retries exhausted, a persistent fault, OOM or congestion: this
            // site is done for this query. Feed the breaker, then fail over.
            if let Some(persistent) = health_feed {
                if let Some(slot) = snap.slot(target) {
                    if slot.health.record_failure(persistent) {
                        self.tracer.record(SpanEvent::new(SpanKind::Quarantine).site(target));
                        self.metrics.counter_add(&format!("olap.site_health.quarantines.{}", site_key(target)), 1);
                    }
                }
            }
            if forced {
                return Err(err);
            }
            if expired {
                self.resilience.deadline_timeouts.fetch_add(1, Ordering::Relaxed);
                return Err(H2Error::Timeout(format!("query deadline expired while failing over from {target:?}")));
            }
            excluded.push(target);
            let Some(next) = Self::next_best_site(snap, capabilities, hints, &excluded) else {
                return Err(err);
            };
            self.resilience.fallbacks.fetch_add(1, Ordering::Relaxed);
            self.tracer.record(SpanEvent::new(SpanKind::Fallback).site(next));
            retries = 0;
            target = next;
        }
    }

    fn run_olap_plan_dispatch(
        &self,
        probe: TableId,
        build: Option<TableId>,
        plan: &OlapPlan,
        forced: Option<OlapTarget>,
    ) -> Result<PlanOutcome> {
        self.scheduler.record_dispatch(ArchipelagoKind::DataParallel, 1.0);
        let (snap, snapshot, query_seq) = self.snapshot_for_query()?;
        let probe_frozen = snapshot.table(probe)?;
        let build_frozen = build.map(|id| snapshot.table(id)).transpose()?;

        // Live placement inputs: the plan's scan footprint, how much of the
        // data already sits in device memory, and the CPU cores the
        // data-parallel archipelago owns right now (core migration
        // included), plus the access-pattern features: how many bytes the
        // hash probes gather at random, and whether the hash state fits in
        // free device memory at all. Hints are built for forced dispatches
        // too: a forced run is ground truth about its site and must still
        // feed the calibrator — it just never consults the placement
        // heuristic.
        let cpu_cores = self.scheduler.archipelago(ArchipelagoKind::DataParallel).core_count() as u32;
        let probe_rows = probe_frozen.row_count();
        let build_bytes = build_frozen.map_or(0, |frozen| plan.build_scan_bytes(&frozen.schema, frozen.row_count()));
        let gpu_slot = snap.slot(OlapTarget::Gpu);
        // Cost constants come from the **calibrated** model (seeded by
        // configuration, then continuously re-estimated from measured site
        // times — the feedback loop that keeps hand-tuned constants from
        // silently drifting away from what the engines actually report).
        let model = self.meta.lock().calibrator.model();
        let hints = model.apply_to(PlacementHints {
            bytes_to_scan: plan.probe_scan_bytes(&probe_frozen.schema, probe_rows) + build_bytes,
            rows: probe_rows,
            random_access_bytes: plan.random_access_bytes(probe_rows),
            hash_table_bytes: build_frozen.map_or(0, |frozen| plan.hash_table_bytes(frozen.row_count())),
            // None (a host-DRAM "device") means unbounded headroom. The
            // multi-GPU site's per-device free memory travels through the
            // enumerated capabilities instead (min-per-shard footprint).
            gpu_free_bytes: gpu_slot.and_then(|slot| slot.site.free_device_bytes()).unwrap_or(u64::MAX),
            gpu_resident_fraction: gpu_slot.map_or(0.0, |slot| slot.site.resident_fraction()),
            available_cpu_cores: cpu_cores,
            ..PlacementHints::default()
        });
        let capabilities = snap.capabilities();
        self.tracer.set_query(query_seq);
        let placing = self.tracer.start();
        let target = forced.unwrap_or_else(|| self.place_with_health(&snap, &capabilities, &hints));
        self.tracer.record_wall(SpanEvent::new(SpanKind::Placement).site(target), placing);

        let admission_timeout = self.config.olap_admission_timeout;
        let run = |target: OlapTarget| -> Result<PlanOutcome> {
            let slot = snap.require_slot(target)?;
            // RAII admission: held for registration + execution, released on
            // every path — an OOM error frees this site's slot before the
            // fallback competes for the next site's gate. A configured
            // timeout bounds the queue wait so a wedged site cannot strand
            // clients (the ladder then tries another site).
            let _permit = slot.admission.admit_timeout(admission_timeout)?;
            // A query placed on CPU must see the archipelago's current core
            // count, not the count at construction time (GPU sites ignore it).
            slot.site.set_cores(cpu_cores.max(1));
            // The site registers the tables it needs on first use and rolls
            // back what a failed call registered, so the fallback — and
            // every later query on this snapshot — inherits no stranded
            // device buffers.
            let outcome = slot.site.execute(probe_frozen, build_frozen, plan)?;
            slot.queries.fetch_add(1, Ordering::Relaxed);
            *slot.time.lock() += outcome.time;
            Ok(outcome)
        };

        let outcome = self.run_resilient(&snap, &capabilities, &hints, forced.is_some(), target, run)?;
        // Close the loop: predicted vs site-reported time recalibrates the
        // cost model (outcome.site, not target — an OOM fallback is a CPU
        // observation).
        self.account_outcome(&capabilities, &hints, forced.is_some(), target, &outcome, query_seq);
        Ok(outcome)
    }

    /// Combined statistics across both archipelagos.
    pub fn stats(&self) -> HtapStats {
        self.stats_with_oltp(self.oltp.stats(), 0)
    }

    fn stats_with_oltp(&self, oltp: OltpStats, snapshot_release_failures: u64) -> HtapStats {
        let plan_cache = self.plan_cache.stats();
        let olap_sites = self.site_stats();
        let metrics = self.metrics_snapshot(&plan_cache, &olap_sites);
        let meta = self.meta.lock();
        HtapStats {
            oltp,
            cow: self.db.telemetry(),
            olap_queries: meta.query_index,
            olap_time: meta.total_time,
            olap_sites,
            snapshots_taken: meta.snapshots_taken,
            snapshot_release_failures,
            calibration: meta.calibrator.report(),
            plan_cache,
            metrics,
            placements: meta.calibrator.recent_placements().cloned().collect(),
            resilience: self.resilience.snapshot(),
        }
    }

    /// Stops the OLTP workers, releases the OLAP snapshot and returns final
    /// statistics.
    ///
    /// The workers stop **before** the statistics are captured, so the
    /// final counters include every transaction the workers drained on the
    /// way out (capturing first under-counted whatever committed during the
    /// stop). A snapshot release the storage layer refuses is counted in
    /// [`HtapStats::snapshot_release_failures`] instead of being swallowed.
    pub fn shutdown(mut self) -> HtapStats {
        let oltp = self.oltp.stop();
        let mut release_failures = 0;
        {
            let mut snap = self.snap.write();
            if let Some(snapshot) = snap.snapshot.take() {
                if self.db.release_snapshot(&snapshot).is_err() {
                    release_failures += 1;
                }
            }
        }
        self.stats_with_oltp(oltp, release_failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CalderaConfig;
    use h2tap_common::{AggExpr, AttrType, Schema, Value};
    use h2tap_gpu_sim::DeviceLossPoint;
    use h2tap_olap::DataPlacement;
    use h2tap_storage::Layout;

    fn engine_with_rows(workers: usize, rows: i64, policy: SnapshotPolicy) -> (Caldera, TableId) {
        let mut config = CalderaConfig::with_workers(workers);
        config.snapshot_policy = policy;
        engine_with_config(config, rows)
    }

    fn engine_with_config(config: CalderaConfig, rows: i64) -> (Caldera, TableId) {
        let mut builder = Caldera::builder(config);
        let t =
            builder.create_table("accounts", Schema::homogeneous("c", 2, AttrType::Int64), Layout::PAPER_PAX).unwrap();
        for k in 0..rows {
            builder.load(t, k, &[Value::Int64(k), Value::Int64(1)]).unwrap();
        }
        (builder.start().unwrap(), t)
    }

    #[test]
    fn htap_oltp_and_olap_coexist() {
        let (caldera, t) = engine_with_rows(2, 100, SnapshotPolicy::PerQuery);
        // OLAP before any update: sum of col1 = 100.
        let q = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![1]));
        let before = caldera.run_olap(t, &q).unwrap();
        assert_eq!(before.value, 100.0);
        // A transaction bumps one record.
        caldera
            .execute_txn(Arc::new(move |ctx| {
                let mut rec = ctx.read_for_update(t, 7)?;
                rec[1] = Value::Int64(rec[1].as_i64().unwrap() + 9);
                ctx.update(t, 7, rec)
            }))
            .unwrap();
        // PerQuery policy: the next OLAP query sees the update.
        let after = caldera.run_olap(t, &q).unwrap();
        assert_eq!(after.value, 109.0);
        let stats = caldera.shutdown();
        assert_eq!(stats.oltp.committed, 1);
        assert_eq!(stats.olap_queries, 2);
        assert_eq!(stats.snapshots_taken, 2);
        assert_eq!(stats.snapshot_release_failures, 0);
        assert!(stats.olap_time > SimDuration::ZERO);
        // No CPU cores were reserved, so every query ran on the GPU.
        assert_eq!(stats.olap_queries_on(OlapTarget::Gpu), 2);
        assert_eq!(stats.olap_queries_on(OlapTarget::Cpu), 0);
    }

    #[test]
    fn shared_snapshots_trade_freshness_for_fewer_refreshes() {
        let (caldera, t) = engine_with_rows(2, 50, SnapshotPolicy::EveryN { queries: 10 });
        let q = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![1]));
        let first = caldera.run_olap(t, &q).unwrap();
        assert_eq!(first.value, 50.0);
        caldera
            .execute_txn(Arc::new(move |ctx| {
                let mut rec = ctx.read_for_update(t, 0)?;
                rec[1] = Value::Int64(100);
                ctx.update(t, 0, rec)
            }))
            .unwrap();
        // Still within the same snapshot window: the update is not visible.
        let stale = caldera.run_olap(t, &q).unwrap();
        assert_eq!(stale.value, 50.0);
        let stats = caldera.shutdown();
        assert_eq!(stats.snapshots_taken, 1);
        // The update did trigger copy-on-write against the shared snapshot.
        assert!(stats.cow.pages_copied >= 1);
    }

    #[test]
    fn manual_policy_requires_explicit_refresh() {
        let (caldera, t) = engine_with_rows(2, 10, SnapshotPolicy::Manual);
        let q = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![1]));
        // First query takes the initial snapshot even under Manual.
        assert_eq!(caldera.run_olap(t, &q).unwrap().value, 10.0);
        caldera
            .execute_txn(Arc::new(move |ctx| {
                let mut rec = ctx.read_for_update(t, 3)?;
                rec[1] = Value::Int64(5);
                ctx.update(t, 3, rec)
            }))
            .unwrap();
        assert_eq!(caldera.run_olap(t, &q).unwrap().value, 10.0, "stale until refreshed");
        caldera.refresh_snapshot().unwrap();
        assert_eq!(caldera.run_olap(t, &q).unwrap().value, 14.0);
        caldera.shutdown();
    }

    #[test]
    fn round_robin_hosting_spreads_transactions() {
        let (caldera, t) = engine_with_rows(4, 40, SnapshotPolicy::PerQuery);
        for _ in 0..8 {
            caldera.execute_txn(Arc::new(move |ctx| ctx.read(t, 1).map(|_| ()))).unwrap();
        }
        let stats = caldera.shutdown();
        assert_eq!(stats.oltp.committed, 8);
        // Three of every four transactions were hosted away from key 1's
        // partition and had to use the message protocol.
        assert!(stats.oltp.remote_requests >= 4);
    }

    #[test]
    fn host_resident_scans_route_to_cpu_when_cores_are_available() {
        // 8 archipelago CPU cores at ~2.8 GB/s each beat the PCIe link for
        // host-resident (UVA) data, so placement must pick the CPU site.
        let mut config = CalderaConfig::with_workers(2);
        config.olap_cpu_cores = 8;
        let (caldera, t) = engine_with_config(config, 200);
        let q = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![1]));
        let out = caldera.run_olap(t, &q).unwrap();
        assert_eq!(out.site, OlapTarget::Cpu);
        assert_eq!(out.value, 200.0);
        let stats = caldera.shutdown();
        assert_eq!(stats.olap_queries_on(OlapTarget::Cpu), 1);
        assert_eq!(stats.olap_queries_on(OlapTarget::Gpu), 0);
    }

    #[test]
    fn device_resident_scans_route_to_gpu() {
        let mut config = CalderaConfig::with_workers(2);
        config.olap_cpu_cores = 8;
        config.olap_device.placement = DataPlacement::DeviceResident;
        let (caldera, t) = engine_with_config(config, 200_000);
        let q = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![0, 1]));
        let out = caldera.run_olap(t, &q).unwrap();
        assert_eq!(out.site, OlapTarget::Gpu);
        let stats = caldera.shutdown();
        assert_eq!(stats.olap_queries_on(OlapTarget::Gpu), 1);
    }

    #[test]
    fn gpu_out_of_memory_falls_back_to_the_cpu_site() {
        // A device-resident table that cannot fit in device memory must not
        // fail the query: the scheduler's choice is overridden by the OOM and
        // the CPU site (which reads host DRAM) answers instead.
        let mut config = CalderaConfig::with_workers(2);
        config.olap_cpu_cores = 2;
        config.olap_device.placement = DataPlacement::DeviceResident;
        config.olap_device.gpu.mem_capacity_mib = 1; // 1 MiB device
        let (caldera, t) = engine_with_config(config, 200_000); // ~3 MiB of columns
        let q = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![1]));
        let out = caldera.run_olap(t, &q).unwrap();
        assert_eq!(out.site, OlapTarget::Cpu);
        assert_eq!(out.value, 200_000.0);
        // Forcing the GPU surfaces the real error instead of falling back.
        assert!(caldera.run_olap_on(t, &q, OlapTarget::Gpu).is_err());
        let stats = caldera.shutdown();
        assert_eq!(stats.olap_queries_on(OlapTarget::Cpu), 1);
        assert_eq!(stats.olap_queries_on(OlapTarget::Gpu), 0);
    }

    #[test]
    fn forced_sites_agree_and_are_counted_separately() {
        let (caldera, t) = engine_with_rows(2, 500, SnapshotPolicy::EveryN { queries: 10 });
        let q = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![1]));
        let gpu = caldera.run_olap_on(t, &q, OlapTarget::Gpu).unwrap();
        let cpu = caldera.run_olap_on(t, &q, OlapTarget::Cpu).unwrap();
        assert_eq!(gpu.site, OlapTarget::Gpu);
        assert_eq!(cpu.site, OlapTarget::Cpu);
        assert_eq!(gpu.value, cpu.value);
        assert_eq!(gpu.qualifying_rows, cpu.qualifying_rows);
        let stats = caldera.shutdown();
        assert_eq!(stats.olap_queries, 2);
        assert_eq!(stats.olap_queries_on(OlapTarget::Gpu), 1);
        assert_eq!(stats.olap_queries_on(OlapTarget::Cpu), 1);
        assert_eq!(stats.olap_sites.iter().map(|s| s.queries).sum::<u64>(), 2);
        // Every execution took exactly one admission permit and returned it.
        for site in &stats.olap_sites {
            assert_eq!(site.admission.admitted, site.queries);
            assert_eq!(site.admission.in_flight, 0);
        }
    }

    /// Fact table (k, fk = k % 40, v = 1) plus a 40-key dimension table
    /// (key, class = key % 4) loaded into one engine.
    fn engine_with_join_tables(mut config: CalderaConfig, rows: i64) -> (Caldera, TableId, TableId) {
        config.snapshot_policy = SnapshotPolicy::Manual;
        let mut builder = Caldera::builder(config);
        let fact = builder.create_table("fact", Schema::homogeneous("c", 3, AttrType::Int64), Layout::Dsm).unwrap();
        for k in 0..rows {
            builder.load(fact, k, &[Value::Int64(k), Value::Int64(k % 40), Value::Int64(1)]).unwrap();
        }
        let dim = builder.create_table("dim", Schema::homogeneous("d", 2, AttrType::Int64), Layout::Dsm).unwrap();
        for k in 0..40i64 {
            builder.load(dim, k, &[Value::Int64(k), Value::Int64(k % 4)]).unwrap();
        }
        (builder.start().unwrap(), fact, dim)
    }

    fn class_revenue_plan() -> OlapPlan {
        OlapPlan {
            predicates: vec![],
            join: Some(h2tap_common::JoinSpec {
                probe_column: 1,
                build_key: 0,
                // Keep keys 0..=19: half the fact rows join.
                build_predicates: vec![h2tap_common::Predicate::between(0, 0.0, 19.0)],
            }),
            group_by: Some(h2tap_common::PlanColumn::Build(1)),
            aggregates: vec![h2tap_common::AggExpr::SumColumns(vec![2]), h2tap_common::AggExpr::Count],
        }
    }

    #[test]
    fn join_plans_run_through_dispatch_and_agree_across_sites() {
        let (caldera, fact, dim) = engine_with_join_tables(CalderaConfig::with_workers(2), 2_000);
        let plan = class_revenue_plan();
        let gpu = caldera.run_olap_plan_on(fact, Some(dim), &plan, OlapTarget::Gpu).unwrap();
        let cpu = caldera.run_olap_plan_on(fact, Some(dim), &plan, OlapTarget::Cpu).unwrap();
        assert_eq!(gpu.site, OlapTarget::Gpu);
        assert_eq!(cpu.site, OlapTarget::Cpu);
        // Byte-identical groups through the production dispatch path.
        assert_eq!(gpu.groups, cpu.groups);
        assert_eq!(gpu.qualifying_rows, 1_000);
        // Classes 0..4 of the 20 surviving keys, 50 fact rows per key.
        assert_eq!(gpu.groups.len(), 4);
        for g in &gpu.groups {
            assert_eq!(g.rows, 250);
            assert_eq!(g.values[0], 250.0, "SUM(v) with v = 1 counts rows");
        }
        let stats = caldera.shutdown();
        assert_eq!(stats.olap_queries, 2);
        assert_eq!(stats.olap_queries_on(OlapTarget::Gpu), 1);
        assert_eq!(stats.olap_queries_on(OlapTarget::Cpu), 1);
    }

    #[test]
    fn join_plans_route_to_cpu_where_the_same_scan_routes_to_gpu() {
        // Host-resident (UVA) data, 8 archipelago cores: streaming 150k rows
        // favours the GPU, but the join's hash probes gather an interconnect
        // transaction per row — the planner must split the two.
        let mut config = CalderaConfig::with_workers(2);
        config.olap_cpu_cores = 8;
        let (caldera, fact, dim) = engine_with_join_tables(config, 150_000);
        let scan = ScanAggQuery::aggregate_only(h2tap_common::AggExpr::SumColumns(vec![1, 2]));
        let scan_out = caldera.run_olap(fact, &scan).unwrap();
        assert_eq!(scan_out.site, OlapTarget::Gpu);
        let plan_out = caldera.run_olap_plan(fact, Some(dim), &class_revenue_plan()).unwrap();
        assert_eq!(plan_out.site, OlapTarget::Cpu);
        let stats = caldera.shutdown();
        assert_eq!(stats.olap_queries_on(OlapTarget::Gpu), 1);
        assert_eq!(stats.olap_queries_on(OlapTarget::Cpu), 1);
    }

    #[test]
    fn plan_gpu_oom_falls_back_to_the_cpu_site() {
        let mut config = CalderaConfig::with_workers(2);
        config.olap_cpu_cores = 2;
        config.olap_device.placement = DataPlacement::DeviceResident;
        config.olap_device.gpu.mem_capacity_mib = 1; // ~5 MiB of fact columns
        let (caldera, fact, dim) = engine_with_join_tables(config, 200_000);
        let plan = class_revenue_plan();
        let out = caldera.run_olap_plan(fact, Some(dim), &plan).unwrap();
        assert_eq!(out.site, OlapTarget::Cpu);
        assert_eq!(out.qualifying_rows, 100_000);
        // Forcing the GPU surfaces the real error instead of falling back.
        assert!(caldera.run_olap_plan_on(fact, Some(dim), &plan, OlapTarget::Gpu).is_err());
        caldera.shutdown();
    }

    #[test]
    fn plan_snapshot_freshness_follows_the_policy() {
        let (caldera, fact, dim) = engine_with_join_tables(CalderaConfig::with_workers(2), 400);
        let plan = class_revenue_plan();
        let before = caldera.run_olap_plan(fact, Some(dim), &plan).unwrap();
        let sum_before: f64 = before.groups.iter().map(|g| g.values[0]).sum();
        caldera
            .execute_txn(Arc::new(move |ctx| {
                let mut rec = ctx.read_for_update(fact, 0)?;
                rec[2] = Value::Int64(100);
                ctx.update(fact, 0, rec)
            }))
            .unwrap();
        // Manual policy: stale until an explicit refresh.
        let stale = caldera.run_olap_plan(fact, Some(dim), &plan).unwrap();
        assert_eq!(stale.groups.iter().map(|g| g.values[0]).sum::<f64>(), sum_before);
        caldera.refresh_snapshot().unwrap();
        let fresh = caldera.run_olap_plan(fact, Some(dim), &plan).unwrap();
        assert_eq!(fresh.groups.iter().map(|g| g.values[0]).sum::<f64>(), sum_before + 99.0);
        caldera.shutdown();
    }

    #[test]
    fn plan_cache_is_shared_across_sites_and_versioned_across_refreshes() {
        let (caldera, t) = engine_with_rows(2, 5_000, SnapshotPolicy::EveryN { queries: 100 });
        let q = ScanAggQuery {
            predicates: vec![h2tap_common::Predicate::between(0, 0.0, 2_000.0)],
            aggregate: AggExpr::SumColumns(vec![1]),
        };
        // First dispatch (GPU) materialises; the forced CPU repeat of the
        // same snapshot + column set must reuse the same derived state.
        let gpu = caldera.run_olap_on(t, &q, OlapTarget::Gpu).unwrap();
        let after_first = caldera.stats().plan_cache;
        assert_eq!(after_first.column_misses, 1);
        assert_eq!(after_first.column_hits, 0);
        let cpu = caldera.run_olap_on(t, &q, OlapTarget::Cpu).unwrap();
        assert_eq!(gpu.value.to_bits(), cpu.value.to_bits());
        let after_second = caldera.stats().plan_cache;
        assert_eq!(after_second.column_misses, 1, "the CPU site reuses the GPU dispatch's materialisation");
        assert_eq!(after_second.column_hits, 1);
        // A transaction plus an explicit refresh: the refresh itself leaves
        // the cache alone; the fresh snapshot's first query rebuilds the
        // written chunk from the stale version, replaces it — and sees the
        // update.
        caldera
            .execute_txn(Arc::new(move |ctx| {
                let mut rec = ctx.read_for_update(t, 7)?;
                rec[1] = Value::Int64(rec[1].as_i64().unwrap() + 41);
                ctx.update(t, 7, rec)
            }))
            .unwrap();
        caldera.refresh_snapshot().unwrap();
        assert_eq!(caldera.stats().plan_cache, after_second, "a refresh drops nothing and derives nothing");
        let fresh = caldera.run_olap_on(t, &q, OlapTarget::Cpu).unwrap();
        assert_eq!(fresh.value, cpu.value + 41.0, "a stale cached materialisation must never be served");
        let stats = caldera.shutdown();
        let cache = stats.plan_cache;
        assert_eq!(cache.invalidations, 1, "the stale version went when its successor landed");
        assert_eq!(cache.column_misses, 2);
        assert_eq!(cache.hit_rate(), Some(1.0 / 3.0));
        // One chunk, two columns: gathered once per version, nothing shared.
        assert_eq!((cache.chunks_rebuilt, cache.chunks_reused, cache.hashes_carried), (4, 0, 0));
        assert_eq!(stats.metrics.counter("plan_cache.chunks_rebuilt"), Some(4));
        assert_eq!(stats.metrics.counter("plan_cache.chunks_reused"), Some(0));
        assert_eq!(stats.metrics.counter("plan_cache.hashes_carried"), Some(0));
    }

    #[test]
    fn plan_cache_budget_flows_from_config_to_stats() {
        let q = ScanAggQuery {
            predicates: vec![h2tap_common::Predicate::between(0, 0.0, 2_000.0)],
            aggregate: AggExpr::SumColumns(vec![1]),
        };
        // A budget comfortably above one entry: the repeat hits and the
        // occupancy stays within the configured bound.
        let mut config = CalderaConfig::with_workers(2);
        config.snapshot_policy = SnapshotPolicy::EveryN { queries: 100 };
        config.olap_plan_cache_budget_bytes = Some(1 << 20);
        let (caldera, t) = engine_with_config(config, 5_000);
        caldera.run_olap(t, &q).unwrap();
        caldera.run_olap(t, &q).unwrap();
        let cache = caldera.stats().plan_cache;
        assert_eq!(cache.budget_bytes, Some(1 << 20));
        assert_eq!(cache.column_misses, 1);
        assert_eq!(cache.column_hits, 1);
        assert!(cache.occupancy_bytes > 0);
        assert!(cache.occupancy_bytes <= 1 << 20);
        caldera.shutdown();
        // A budget too small for even one entry: every query recomputes,
        // nothing is retained, and no futile eviction is counted.
        let mut config = CalderaConfig::with_workers(2);
        config.snapshot_policy = SnapshotPolicy::EveryN { queries: 100 };
        config.olap_plan_cache_budget_bytes = Some(64);
        let (caldera, t) = engine_with_config(config, 5_000);
        caldera.run_olap(t, &q).unwrap();
        caldera.run_olap(t, &q).unwrap();
        let cache = caldera.stats().plan_cache;
        assert_eq!(cache.budget_bytes, Some(64));
        assert_eq!(cache.column_misses, 2);
        assert_eq!(cache.column_hits, 0);
        assert_eq!(cache.occupancy_bytes, 0);
        assert_eq!(cache.evictions, 0);
        caldera.shutdown();
    }

    #[test]
    fn calibration_recalibrates_wrong_seeds_from_forced_runs() {
        use h2tap_scheduler::CostModel;
        // Seed the placement model with a 2x-too-high per-tuple cost; the
        // sites themselves run with the true constants, so every dispatch
        // produces a corrective observation.
        let mut config = CalderaConfig::with_workers(2);
        config.olap_cpu_cores = 8;
        config.snapshot_policy = SnapshotPolicy::EveryN { queries: 1000 };
        config.cost_model_seed = Some(CostModel { cpu_per_tuple_ns: 186.0, ..CostModel::default() });
        let (caldera, t) = engine_with_config(config, 100_000);
        assert_eq!(caldera.cost_model().cpu_per_tuple_ns, 186.0);
        let q = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![0, 1]));
        for _ in 0..40 {
            caldera.run_olap_on(t, &q, OlapTarget::Cpu).unwrap();
        }
        let model = caldera.cost_model();
        assert!(
            (model.cpu_per_tuple_ns - 93.0).abs() / 93.0 < 0.05,
            "model should converge to the site's true 93 ns/tuple, got {}",
            model.cpu_per_tuple_ns
        );
        let stats = caldera.shutdown();
        assert_eq!(stats.calibration.site(OlapTarget::Cpu).unwrap().observations, 40);
        assert_eq!(stats.calibration.site(OlapTarget::Gpu).unwrap().observations, 0);
        let err = stats.prediction_error_on(OlapTarget::Cpu).unwrap();
        assert!(err < 0.10, "steady-state CPU prediction error {err} should be under 10%");
        // Forced runs fed calibration but never recursed into placement: all
        // 40 queries ran exactly where they were forced.
        assert_eq!(stats.olap_queries_on(OlapTarget::Cpu), 40);
        assert_eq!(stats.olap_queries_on(OlapTarget::Gpu), 0);
    }

    #[test]
    fn calibration_can_be_disabled() {
        use h2tap_scheduler::{CalibrationConfig, CostModel};
        let mut config = CalderaConfig::with_workers(2);
        config.olap_cpu_cores = 4;
        config.calibration = CalibrationConfig { enabled: false, ..CalibrationConfig::default() };
        config.cost_model_seed = Some(CostModel { cpu_per_tuple_ns: 186.0, ..CostModel::default() });
        let (caldera, t) = engine_with_config(config, 50_000);
        let q = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![1]));
        for _ in 0..5 {
            caldera.run_olap_on(t, &q, OlapTarget::Cpu).unwrap();
        }
        // The model is frozen, but the error is still measured.
        assert_eq!(caldera.cost_model().cpu_per_tuple_ns, 186.0);
        let report = caldera.calibration_report();
        assert!(!report.enabled);
        assert_eq!(report.site(OlapTarget::Cpu).unwrap().observations, 5);
        assert!(report.site(OlapTarget::Cpu).unwrap().mean_rel_error > 0.0);
        caldera.shutdown();
    }

    #[test]
    fn cpu_queries_see_migrated_cores() {
        // Start with 2 OLAP CPU cores, then migrate 6 more from the (8-core)
        // task-parallel archipelago: the same CPU query must get faster.
        let mut config = CalderaConfig::with_workers(8);
        config.olap_cpu_cores = 2;
        config.snapshot_policy = SnapshotPolicy::EveryN { queries: 100 };
        let (caldera, t) = engine_with_config(config, 50_000);
        let q = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![0, 1]));
        let before = caldera.run_olap_on(t, &q, OlapTarget::Cpu).unwrap();
        for core in 0..6 {
            caldera
                .scheduler()
                .migrate_core(core, ArchipelagoKind::TaskParallel, ArchipelagoKind::DataParallel)
                .unwrap();
        }
        let after = caldera.run_olap_on(t, &q, OlapTarget::Cpu).unwrap();
        assert_eq!(before.value, after.value);
        assert!(after.time < before.time, "8 cores {} should beat 2 cores {}", after.time, before.time);
        caldera.shutdown();
    }

    #[test]
    fn caldera_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Caldera>();
    }

    #[test]
    fn zero_workers_is_a_config_error_not_a_panic() {
        let mut builder = Caldera::builder(CalderaConfig::with_workers(0));
        builder.create_table("t", Schema::homogeneous("c", 2, AttrType::Int64), Layout::Dsm).unwrap();
        // The runtime refuses to start (there is nowhere to route
        // transactions) instead of panicking later in `execute_txn`.
        assert!(matches!(builder.start(), Err(H2Error::Config(_))));
    }

    #[test]
    fn refresh_propagates_a_failed_snapshot_release() {
        let (caldera, t) = engine_with_rows(2, 10, SnapshotPolicy::Manual);
        let q = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![1]));
        assert_eq!(caldera.run_olap(t, &q).unwrap().value, 10.0);
        // Release the engine's snapshot behind its back: the refresh's own
        // release now fails, and the error must surface, not vanish.
        let snapshot = caldera.current_snapshot().expect("a query ran, so a snapshot exists");
        caldera.database().release_snapshot(&snapshot).unwrap();
        assert!(matches!(caldera.refresh_snapshot(), Err(H2Error::UnknownSnapshot(_))));
        // Recovery is clean: the failed refresh left no snapshot behind, so
        // the next query takes a fresh one and answers correctly.
        assert_eq!(caldera.run_olap(t, &q).unwrap().value, 10.0);
        let stats = caldera.shutdown();
        assert_eq!(stats.snapshot_release_failures, 0);
    }

    #[test]
    fn shutdown_counts_a_failed_snapshot_release() {
        let (caldera, t) = engine_with_rows(2, 10, SnapshotPolicy::Manual);
        let q = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![1]));
        caldera.run_olap(t, &q).unwrap();
        let snapshot = caldera.current_snapshot().unwrap();
        caldera.database().release_snapshot(&snapshot).unwrap();
        let stats = caldera.shutdown();
        assert_eq!(stats.snapshot_release_failures, 1, "a swallowed release failure is an accounting leak");
    }

    #[test]
    fn shutdown_drains_submitted_transactions_before_counting() {
        let (caldera, t) = engine_with_rows(2, 10, SnapshotPolicy::Manual);
        // Fire-and-forget submissions against a partition-local key (2 lives
        // on partition 0 under the modulo partitioner): the workers may
        // still be draining these when shutdown begins.
        let mut receivers = Vec::new();
        for _ in 0..50 {
            receivers.push(
                caldera
                    .oltp()
                    .submit(
                        PartitionId(0),
                        Arc::new(move |ctx| {
                            let mut rec = ctx.read_for_update(t, 2)?;
                            rec[1] = Value::Int64(rec[1].as_i64().unwrap() + 1);
                            ctx.update(t, 2, rec)
                        }),
                    )
                    .unwrap(),
            );
        }
        let stats = caldera.shutdown();
        assert_eq!(
            stats.oltp.committed, 50,
            "shutdown must stop the workers before capturing statistics, so every drained commit is counted"
        );
        drop(receivers);
    }

    #[test]
    fn admission_budget_bounds_and_counts_concurrent_queries() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 8;
        let mut config = CalderaConfig::with_workers(2);
        config.olap_cpu_cores = 4;
        config.snapshot_policy = SnapshotPolicy::EveryN { queries: 100_000 };
        config.olap_admission_in_flight = Some(1);
        let (caldera, t) = engine_with_config(config, 100_000);
        let q = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![0, 1]));
        let serial = caldera.run_olap_on(t, &q, OlapTarget::Cpu).unwrap().value;
        let caldera = Arc::new(caldera);
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let caldera = Arc::clone(&caldera);
                let barrier = Arc::clone(&barrier);
                let q = q.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    for _ in 0..PER_THREAD {
                        let out = caldera.run_olap_on(t, &q, OlapTarget::Cpu).unwrap();
                        assert_eq!(out.value.to_bits(), serial.to_bits(), "concurrent answers must stay exact");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let Ok(caldera) = Arc::try_unwrap(caldera) else { panic!("all clients joined") };
        let stats = caldera.shutdown();
        let cpu = stats.olap_sites.iter().find(|s| s.target == OlapTarget::Cpu).unwrap();
        assert_eq!(cpu.admission.admitted, (THREADS * PER_THREAD + 1) as u64);
        assert!(cpu.admission.queued > 0, "4 clients against a budget of 1 must have queued");
        assert_eq!(cpu.admission.in_flight, 0);
        assert_eq!(stats.olap_queries, (THREADS * PER_THREAD + 1) as u64);
    }

    /// Runs the same mixed workload (scans on both targets' favourite
    /// shapes) and returns (result bits, final stats).
    fn fault_comparison_run(fault_plan: Option<h2tap_gpu_sim::FaultPlan>) -> (Vec<u64>, HtapStats) {
        let mut config = CalderaConfig::with_workers(2);
        config.olap_cpu_cores = 8;
        config.olap_device.placement = DataPlacement::DeviceResident;
        config.snapshot_policy = SnapshotPolicy::EveryN { queries: 100 };
        config.fault_plan = fault_plan;
        let (caldera, t) = engine_with_config(config, 50_000);
        let q = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![0, 1]));
        let mut bits = Vec::new();
        for _ in 0..6 {
            bits.push(caldera.run_olap(t, &q).unwrap().value.to_bits());
        }
        (bits, caldera.shutdown())
    }

    #[test]
    fn quiet_fault_plan_is_byte_identical_to_no_plan() {
        // A zero-rate plan must be observationally identical to no plan:
        // same result bits, same routing, same simulated times, and not a
        // single resilience counter moved.
        let (none_bits, none_stats) = fault_comparison_run(None);
        let (quiet_bits, quiet_stats) = fault_comparison_run(Some(h2tap_gpu_sim::FaultPlan::quiet(0xC1DA)));
        assert_eq!(none_bits, quiet_bits);
        assert_eq!(none_stats.olap_queries, quiet_stats.olap_queries);
        assert_eq!(none_stats.olap_time, quiet_stats.olap_time);
        assert_eq!(none_stats.snapshots_taken, quiet_stats.snapshots_taken);
        for (a, b) in none_stats.olap_sites.iter().zip(quiet_stats.olap_sites.iter()) {
            assert_eq!(a.target, b.target);
            assert_eq!(a.queries, b.queries);
            assert_eq!(a.time, b.time);
        }
        assert_eq!(quiet_stats.resilience, ResilienceStats::default());
        assert_eq!(none_stats.resilience, ResilienceStats::default());
    }

    #[test]
    fn transient_storm_retries_keep_answers_exact() {
        let mut config = CalderaConfig::with_workers(2);
        config.olap_cpu_cores = 8;
        config.olap_device.placement = DataPlacement::DeviceResident;
        config.snapshot_policy = SnapshotPolicy::EveryN { queries: 1_000 };
        config.olap_retry_backoff = Duration::ZERO;
        let mut plan = h2tap_gpu_sim::FaultPlan::transient_storm(7);
        plan.transient_kernel_rate = 0.35; // storm hard enough to force retries
        config.fault_plan = Some(plan);
        let (caldera, t) = engine_with_config(config, 200_000);
        let q = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![1]));
        for _ in 0..25 {
            let out = caldera.run_olap(t, &q).unwrap();
            assert_eq!(out.value.to_bits(), 200_000.0_f64.to_bits(), "a retried or re-routed query must stay exact");
        }
        let stats = caldera.shutdown();
        assert!(stats.resilience.faults > 0, "the storm must actually fire");
        assert!(stats.resilience.retries > 0, "transient faults must be retried in place");
        assert_eq!(stats.olap_queries, 25);
        assert_eq!(stats.olap_sites.iter().map(|s| s.queries).sum::<u64>(), 25, "no query may be lost to a fault");
    }

    #[test]
    fn mid_stream_device_loss_quarantines_and_reroutes() {
        let mut config = CalderaConfig::with_workers(2);
        config.olap_cpu_cores = 8;
        config.olap_device.placement = DataPlacement::DeviceResident;
        config.snapshot_policy = SnapshotPolicy::EveryN { queries: 1_000 };
        config.olap_retry_backoff = Duration::ZERO;
        let mut plan = h2tap_gpu_sim::FaultPlan::quiet(11);
        plan.device_loss_at = Some(DeviceLossPoint { site: "gpu".into(), device: 0, launch: 4 });
        config.fault_plan = Some(plan);
        let (caldera, t) = engine_with_config(config, 200_000);
        let q = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![1]));
        // Every query — before the loss, at the loss, and long after it —
        // must succeed with the exact answer; the ladder absorbs the dead
        // device (including failed half-open probes after the backoff).
        for _ in 0..30 {
            let out = caldera.run_olap(t, &q).unwrap();
            assert_eq!(out.value.to_bits(), 200_000.0_f64.to_bits());
        }
        let stats = caldera.shutdown();
        let gpu = stats.olap_sites.iter().find(|s| s.target == OlapTarget::Gpu).unwrap();
        assert!(gpu.health.persistent_failures >= 1, "the loss must be recorded as persistent");
        assert!(gpu.health.quarantines >= 1, "a dead device must trip the breaker");
        assert_ne!(gpu.health.state, SiteHealthState::Closed, "a still-dead device must not be re-admitted");
        assert!(stats.resilience.fallbacks >= 1, "queries must re-route off the dead device");
        assert!(stats.olap_queries_on(OlapTarget::Gpu) >= 1, "the device served queries before it died");
        assert!(stats.olap_queries_on(OlapTarget::Cpu) >= 1, "the CPU site must absorb the re-routed queries");
        assert_eq!(stats.olap_queries, 30);
    }

    #[test]
    fn a_failed_forced_gpu_scan_rolls_its_registration_back() {
        // The device dies on the scan's first kernel launch — after the
        // attempt registered (and, device-resident, allocated) the table.
        // Scans dispatch as plans, so they inherit the plan path's
        // registration rollback: the failed attempt must leave the site's
        // free device memory exactly where it started.
        let mut config = CalderaConfig::with_workers(2);
        config.olap_device.placement = DataPlacement::DeviceResident;
        config.olap_retry_max = 0;
        let mut plan = h2tap_gpu_sim::FaultPlan::quiet(17);
        plan.device_loss_at = Some(DeviceLossPoint { site: "gpu".into(), device: 0, launch: 0 });
        config.fault_plan = Some(plan);
        let (caldera, t) = engine_with_config(config, 50_000);
        let free_device_bytes = || caldera.snap.read().slot(OlapTarget::Gpu).and_then(|s| s.site.free_device_bytes());
        let before = free_device_bytes().expect("the GPU site reports its device memory");
        let q = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![1]));
        let err = caldera.run_olap_on(t, &q, OlapTarget::Gpu).unwrap_err();
        assert!(matches!(err, H2Error::Fault { transient: false, .. }), "expected the device loss, got {err:?}");
        assert_eq!(free_device_bytes(), Some(before), "the failed scan must not strand its table on the device");
        // The CPU site still answers from host DRAM.
        assert_eq!(caldera.run_olap_on(t, &q, OlapTarget::Cpu).unwrap().value, 50_000.0);
        caldera.shutdown();
    }

    #[test]
    fn query_deadline_cuts_the_retry_ladder() {
        let mut config = CalderaConfig::with_workers(2);
        config.olap_cpu_cores = 2;
        config.olap_retry_backoff = Duration::ZERO;
        config.olap_query_deadline = Some(Duration::ZERO);
        let mut plan = h2tap_gpu_sim::FaultPlan::quiet(3);
        plan.transient_kernel_rate = 1.0; // every attempt faults
        config.fault_plan = Some(plan);
        let (caldera, t) = engine_with_config(config, 1_000);
        let q = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![1]));
        let err = caldera.run_olap_on(t, &q, OlapTarget::Gpu).unwrap_err();
        assert!(matches!(err, H2Error::Timeout(_)), "expected a deadline timeout, got {err:?}");
        let stats = caldera.shutdown();
        assert_eq!(stats.resilience.deadline_timeouts, 1);
        assert!(stats.resilience.faults >= 1);
    }

    #[test]
    fn fault_spans_and_metrics_surface_through_obs() {
        let mut config = CalderaConfig::with_workers(2);
        config.olap_cpu_cores = 8;
        config.olap_device.placement = DataPlacement::DeviceResident;
        config.snapshot_policy = SnapshotPolicy::EveryN { queries: 1_000 };
        config.olap_retry_backoff = Duration::ZERO;
        config.observability.tracing = true;
        let mut plan = h2tap_gpu_sim::FaultPlan::quiet(5);
        plan.device_loss_at = Some(DeviceLossPoint { site: "gpu".into(), device: 0, launch: 2 });
        config.fault_plan = Some(plan);
        let (caldera, t) = engine_with_config(config, 200_000);
        let q = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![1]));
        for _ in 0..10 {
            caldera.run_olap(t, &q).unwrap();
        }
        let spans = caldera.trace_spans();
        assert!(spans.iter().any(|s| s.event.kind == SpanKind::Fault), "faults must leave spans");
        assert!(spans.iter().any(|s| s.event.kind == SpanKind::Fallback), "fallbacks must leave spans");
        assert!(spans.iter().any(|s| s.event.kind == SpanKind::Quarantine), "the quarantine must leave a span");
        let stats = caldera.shutdown();
        assert!(stats.metrics.counter("olap.faults.device_lost").is_some_and(|v| v >= 1));
        assert!(stats.metrics.counter("olap.faults.fallbacks").is_some_and(|v| v >= 1));
        assert!(stats.metrics.counter("olap.site_health.quarantines.gpu").is_some_and(|v| v >= 1));
    }
}
