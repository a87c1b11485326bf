//! The running Caldera engine: both archipelagos over one shared database.
//!
//! Analytical queries are not hard-wired to a device. [`OlapPlan`] is the
//! only IR below the public API — `run_olap` is a shim that runs a
//! [`ScanAggQuery`] as the degenerate plan [`OlapPlan::scan`] — and the one
//! dispatch path builds [`PlacementHints`] from live state (the plan's scan
//! footprint and access-pattern features, GPU residency, the CPU cores
//! granted to the data-parallel archipelago), asks
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
//! - `meta` (`Mutex`): small bookkeeping — query numbering and the
//!   placement calibrator. Held only for microseconds around dispatch
//!   edges, never across execution.
//! - per-site state ([`SiteSlot`]): counters, the simulated-time total and
//!   latency histogram, the circuit breaker and the [`AdmissionGate`] that
//!   bounds how many queries one site runs at once (excess admissions wait
//!   in strict arrival order).
//!
//! The sites themselves are `&self`-concurrent and own their table
//! registrations (see [`Site`]), and the shared plan-data cache deduplicates
//! concurrent materialisations of the same derived state (shared scans), so
//! the answer of every query stays byte-identical to a serial execution.

use crate::admission::{AdmissionGate, AdmissionStats};
use crate::config::CalderaConfig;
use crate::health::{SiteHealth, SiteHealthState, SiteHealthStats};
use h2tap_common::{
    FaultKind, H2Error, Histogram, OlapPlan, PartitionId, PlanCacheStats, Result, ScanAggQuery, SimDuration, TableId,
};
use h2tap_obs::{MetricsSnapshot, SpanEvent, SpanKind, SpanRecord, Tracer};
use h2tap_olap::{OlapOutcome, PlanDataCache, PlanOutcome, Site, SnapshotPolicy};
use h2tap_oltp::{BenchmarkWindow, OltpRuntime, OltpStats, TxnProc};
use h2tap_scheduler::{
    estimate_target_secs, place_olap_query_sites, CalibrationReport, CostCalibrator, CostModel, OlapTarget,
    PlacementExplanation, PlacementHints, PlacementObservation, SiteCapability,
};
use h2tap_storage::{CowStats, Database, Snapshot};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// In-place retries a transient fault earns before the dispatch falls back
/// to the next-best site. Retries do not back off: fault injection is a pure
/// function of the seed, site, device and launch index, so waiting cannot
/// change whether a retry succeeds.
const OLAP_RETRY_MAX: u32 = 3;

/// Per-execution-site OLAP counters.
#[derive(Debug, Clone)]
pub struct OlapSiteStats {
    /// The placement target this site serves.
    pub target: OlapTarget,
    /// Site name ("gpu", "cpu").
    pub label: &'static str,
    /// Queries dispatched to the site.
    pub queries: u64,
    /// Total simulated execution time on the site.
    pub time: SimDuration,
    /// Distribution of the site's per-query simulated execution time, in
    /// seconds.
    pub latency: Histogram,
    /// Admission counters: executions admitted, admissions that had to
    /// queue behind the site's in-flight budget, permits currently held.
    pub admission: AdmissionStats,
    /// Circuit-breaker position and fault counters for the site.
    pub health: SiteHealthStats,
}

/// Engine-wide resilience-ladder counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Typed site faults observed by dispatch (injected or organic): the sum
    /// of `faults_by_kind`.
    pub faults: u64,
    /// Faults observed per kind, in [`FaultKind::ALL`] order.
    pub faults_by_kind: [u64; FaultKind::ALL.len()],
    /// In-place retries after transient faults.
    pub retries: u64,
    /// Dispatches re-routed to the next-best site after a failure.
    pub fallbacks: u64,
}

/// Interior-mutable backing for [`ResilienceStats`].
#[derive(Debug, Default)]
struct ResilienceCounters {
    /// One counter per fault kind, indexed by declaration order (which is
    /// [`FaultKind::ALL`] order).
    faults: [AtomicU64; FaultKind::ALL.len()],
    retries: AtomicU64,
    fallbacks: AtomicU64,
}

impl ResilienceCounters {
    fn snapshot(&self) -> ResilienceStats {
        let faults_by_kind = self.faults.each_ref().map(|count| count.load(Ordering::Relaxed));
        ResilienceStats {
            faults: faults_by_kind.iter().sum(),
            faults_by_kind,
            retries: self.retries.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
        }
    }
}

/// Combined HTAP statistics for experiment reporting.
#[derive(Debug, Clone, Default)]
pub struct HtapStats {
    /// OLTP-side counters.
    pub oltp: OltpStats,
    /// Copy-on-write counters, and the superseded pages that snapshot drops
    /// reclaimed.
    pub cow: CowStats,
    /// Analytical queries that drew a query number (all sites), failed ones
    /// included. Queries the sites answered are `olap_sites`' `queries`,
    /// exported as `olap.queries`.
    pub olap_queries: u64,
    /// Total simulated OLAP execution time: the sum of `olap_sites`' `time`.
    pub olap_time: SimDuration,
    /// Per-site OLAP counters, in site order (GPU first).
    pub olap_sites: Vec<OlapSiteStats>,
    /// Snapshots taken by the OLAP path.
    pub snapshots_taken: u64,
    /// Snapshots taken and not yet dropped, the engine's own included. After
    /// [`Caldera::shutdown`] this is the number a caller still holds (from
    /// [`Caldera::current_snapshot`] or the database): each one pins the
    /// superseded pages only it still holds.
    pub live_snapshots: u64,
    /// Placement feedback-loop state: the current calibrated cost model and
    /// per-site predicted-vs-actual error statistics.
    pub calibration: CalibrationReport,
    /// Hit/miss counters of the plan-data cache shared by every execution
    /// site (materialised columns + zonemap stats, join hash tables).
    pub plan_cache: PlanCacheStats,
    /// The most recent placement decisions (bounded ring, newest last):
    /// every site's estimated time, the chosen and executing site, the
    /// observed time and the regret against the best estimate.
    pub placements: Vec<PlacementExplanation>,
    /// Resilience-ladder counters: faults observed, in-place retries,
    /// next-best-site fallbacks.
    pub resilience: ResilienceStats,
    /// Trace spans the tracer recorded.
    pub trace_spans_recorded: u64,
    /// Trace spans the tracer dropped (ring slot contended).
    pub trace_spans_dropped: u64,
}

/// Exports each listed field of `$stats` as the counter `<$prefix>.<field>`,
/// so an exported name cannot drift from the field it reads.
macro_rules! export_counters {
    ($m:ident, $prefix:literal, $stats:expr; $($field:ident)+) => {
        $($m.set_counter(concat!($prefix, ".", stringify!($field)), $stats.$field);)+
    };
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

    /// The named view of these stats: `olap.*` (per site, per fault kind,
    /// snapshots), `plan_cache.*`, `trace.spans.*`, `oltp.*` and `storage.*`
    /// (with the gauge `storage.live_snapshots`).
    /// Every value is read from the typed field it names; this is the only
    /// place a stat gets a name and is sorted into counter, gauge or
    /// histogram.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::default();
        let mut latency = Histogram::new();
        for site in &self.olap_sites {
            let (key, health) = (site.label, &site.health);
            latency.merge(&site.latency);
            m.set_histogram(format!("olap.latency.{key}"), site.latency.clone());
            for (name, value) in [
                ("queries", site.queries),
                ("admission.admitted", site.admission.admitted),
                ("admission.queued", site.admission.queued),
                ("site_health.failures", health.failures),
                ("site_health.quarantines", health.quarantines),
                ("site_health.probes", health.probes),
                ("site_health.reopened", health.reopened),
                ("site_health.readmissions", health.readmissions),
            ] {
                m.set_counter(format!("olap.{name}.{key}"), value);
            }
            // Breaker position as a step gauge: 0 closed, 1 half-open,
            // 2 quarantined (dashboards alert on anything > 0).
            let state = match health.state {
                SiteHealthState::Closed => 0.0,
                SiteHealthState::HalfOpen => 1.0,
                SiteHealthState::Quarantined => 2.0,
            };
            m.set_gauge(format!("olap.admission.in_flight.{key}"), f64::from(site.admission.in_flight));
            m.set_gauge(format!("olap.site_health.state.{key}"), state);
            m.set_gauge(format!("olap.site_health.window_error_rate.{key}"), health.window_error_rate);
        }
        m.set_histogram("olap.latency.secs", latency);
        let res = &self.resilience;
        for (kind, count) in FaultKind::ALL.iter().zip(res.faults_by_kind) {
            m.set_counter(format!("olap.faults.{}", kind.name()), count);
        }
        m.set_counter("olap.queries", self.olap_sites.iter().map(|s| s.queries).sum());
        m.set_counter("olap.faults.observed", res.faults);
        m.set_counter("olap.faults.retries", res.retries);
        m.set_counter("olap.faults.fallbacks", res.fallbacks);
        m.set_counter("trace.spans.recorded", self.trace_spans_recorded);
        m.set_counter("trace.spans.dropped", self.trace_spans_dropped);
        export_counters!(m, "olap", self; snapshots_taken);
        let cache = &self.plan_cache;
        export_counters!(m, "plan_cache", cache; column_hits column_misses hash_hits hash_misses invalidations evictions
            shared_scan_attaches chunks_reused chunks_rebuilt hashes_carried);
        export_counters!(m, "oltp", self.oltp; committed aborted retries remote_requests remote_denied messages
            writebacks submitted idle_wakeups);
        export_counters!(m, "storage", self.cow; pages_copied bytes_copied segments_copied in_place_updates
            pages_reclaimed bytes_reclaimed);
        // Live snapshots, cache occupancy and budget are point-in-time
        // samples, not monotonic counts.
        m.set_gauge("storage.live_snapshots", self.live_snapshots as f64);
        m.set_gauge("plan_cache.occupancy_bytes", cache.occupancy_bytes as f64);
        if let Some(budget) = cache.budget_bytes {
            m.set_gauge("plan_cache.budget_bytes", budget as f64);
        }
        m
    }
}

/// A site's simulated execution time: the running total and the per-query
/// distribution, updated together under one lock.
#[derive(Default)]
struct SiteTime {
    total: SimDuration,
    latency: Histogram,
}

/// One execution site plus its counters, circuit breaker and admission gate.
/// Everything is interior-mutable so concurrent queries share the slot
/// through the snapshot gate's read lock.
struct SiteSlot {
    site: Site,
    queries: AtomicU64,
    time: Mutex<SiteTime>,
    admission: AdmissionGate,
    /// Per-site circuit breaker consulted by placement and fed by every
    /// dispatch outcome.
    health: SiteHealth,
}

impl SiteSlot {
    fn new(site: Site, admission_budget: Option<u32>) -> Self {
        Self {
            site,
            queries: AtomicU64::new(0),
            time: Mutex::default(),
            admission: AdmissionGate::new(admission_budget),
            health: SiteHealth::default(),
        }
    }

    fn stats(&self) -> OlapSiteStats {
        let time = self.time.lock();
        OlapSiteStats {
            target: self.site.target(),
            label: self.site.target().label(),
            queries: self.queries.load(Ordering::Relaxed),
            time: time.total,
            latency: time.latency.clone(),
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
    /// Snapshots taken by [`Caldera::refresh_gate`].
    snapshots_taken: u64,
}

impl SnapshotGate {
    fn slot(&self, target: OlapTarget) -> Option<&SiteSlot> {
        self.sites.iter().find(|slot| slot.site.target() == target)
    }

    /// The slot serving `target`, or a configuration error when the engine
    /// was assembled without that site.
    fn require_slot(&self, target: OlapTarget) -> Result<&SiteSlot> {
        self.slot(target).ok_or_else(|| H2Error::Config(format!("no execution site configured for target {target:?}")))
    }

    /// The capabilities of every site the engine actually runs — what the
    /// N-way placement argmin and the calibrator consume.
    fn capabilities(&self) -> Vec<SiteCapability> {
        self.sites.iter().map(|slot| slot.site.capability()).collect()
    }
}

/// Small dispatch bookkeeping: query numbering and the placement feedback
/// loop. Locked briefly at dispatch edges, never across query execution.
struct OlapMeta {
    query_index: u64,
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
    /// Query tracing (a no-op unless `config.observability.tracing`); every
    /// execution site and the shared plan-data cache were built with the
    /// same handle.
    tracer: Tracer,
    /// Engine-wide resilience-ladder counters (faults, retries, fallbacks).
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
        plan_cache: PlanDataCache,
        tracer: Tracer,
    ) -> Self {
        let calibrator = CostCalibrator::new(config.cost_model_seed);
        let admission_budget = config.olap_admission_in_flight;
        Self {
            config,
            db,
            oltp,
            snap: RwLock::new(SnapshotGate {
                sites: sites.into_iter().map(|site| SiteSlot::new(site, admission_budget)).collect(),
                snapshot: None,
                snapshots_taken: 0,
            }),
            meta: Mutex::new(OlapMeta { query_index: 0, calibrator }),
            plan_cache,
            tracer,
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

    /// The configured snapshot policy.
    pub fn snapshot_policy(&self) -> SnapshotPolicy {
        self.config.snapshot_policy
    }

    /// The snapshot analytical queries currently run against: `None` before
    /// the first query and after [`Caldera::shutdown`]. Holding the returned
    /// `Arc` keeps the snapshot alive across refreshes, pinning the pages
    /// written since (see [`HtapStats::live_snapshots`]).
    pub fn current_snapshot(&self) -> Option<Arc<Snapshot>> {
        self.snap.read().snapshot.clone()
    }

    /// The current calibrated placement cost model — starts at the
    /// configured seed and tracks measured site times from then on.
    pub fn cost_model(&self) -> CostModel {
        self.meta.lock().calibrator.model()
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

    /// The named metrics view of [`Caldera::stats`] (see
    /// [`HtapStats::metrics`]).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.stats().metrics()
    }

    /// Executes a transaction on an explicitly chosen home worker.
    pub fn execute_txn_on(&self, home: PartitionId, proc: TxnProc) -> Result<()> {
        self.oltp.execute(home, proc)
    }

    /// Runs the OLTP benchmark generator (if one was configured) for
    /// `window` and returns throughput.
    pub fn run_oltp_window(&self, window: Duration) -> Result<BenchmarkWindow> {
        self.oltp.run_for(window)
    }

    /// Takes a fresh snapshot immediately, dropping the engine's handle on
    /// the previous one (manual freshness control). Waits for in-flight
    /// analytical queries to drain, so no query ever loses its tables
    /// mid-execution. Never fails; the `Result` is kept for callers.
    pub fn refresh_snapshot(&self) -> Result<()> {
        Self::refresh_gate(&self.db, &mut self.snap.write());
        Ok(())
    }

    /// Replaces the gate's snapshot: resets every site's registrations,
    /// installs a new snapshot and returns it, then drops the gate's handle
    /// on the old one. Requires the gate's write side, so the old snapshot —
    /// if the gate held its last `Arc` — is released, and its superseded
    /// pages freed, before any query sees the new one. The plan-data cache is
    /// left alone: its entries are versioned by snapshot epoch, and the new
    /// snapshot's first queries rebuild from them only the chunks written
    /// since.
    fn refresh_gate(db: &Arc<Database>, snap: &mut SnapshotGate) -> Arc<Snapshot> {
        for slot in &snap.sites {
            slot.site.reset_tables();
        }
        let snapshot = db.snapshot();
        let old = snap.snapshot.replace(Arc::clone(&snapshot));
        snap.snapshots_taken += 1;
        drop(old);
        snapshot
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
        let snapshot = match snap.snapshot.clone() {
            Some(snapshot) if !policy_fired => snapshot,
            _ => Self::refresh_gate(&self.db, &mut snap),
        };
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
        let mut meta = self.meta.lock();
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
    /// retried in place up to [`OLAP_RETRY_MAX`] times; persistent faults,
    /// exhausted retries and device OOM fall back to the next-best healthy
    /// site. Every failure feeds the attempted site's circuit breaker.
    /// Forced dispatches still retry transient faults in place but
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
                        }
                    }
                    return Ok(out);
                }
                Err(err) => err,
            };
            // Classify the failure: does it earn an in-place retry, and was
            // it a persistent one?
            let (retry_in_place, persistent) = match &err {
                H2Error::Fault { kind, transient, .. } => {
                    self.resilience.faults[*kind as usize].fetch_add(1, Ordering::Relaxed);
                    self.tracer.record(SpanEvent::new(SpanKind::Fault).site(target));
                    (*transient, !*transient)
                }
                // The placement hints cannot see every device constraint (a
                // device-resident table can simply not fit): a fallback site
                // still holds the data, so OOM reroutes instead of failing.
                H2Error::GpuOutOfMemory { .. } => (false, false),
                _ => return Err(err),
            };
            if retry_in_place && retries < OLAP_RETRY_MAX {
                retries += 1;
                self.resilience.retries.fetch_add(1, Ordering::Relaxed);
                self.tracer.record(SpanEvent::new(SpanKind::Retry).site(target));
                continue;
            }
            // Retries exhausted, a persistent fault or OOM: this site is done
            // for this query. Feed the breaker, then fail over.
            if let Some(slot) = snap.slot(target) {
                if slot.health.record_failure(persistent) {
                    self.tracer.record(SpanEvent::new(SpanKind::Quarantine).site(target));
                }
            }
            if forced {
                return Err(err);
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
        let (snap, snapshot, query_seq) = self.snapshot_for_query()?;
        let probe_frozen = snapshot.table(probe)?;
        let build_frozen = build.map(|id| snapshot.table(id)).transpose()?;

        // Live placement inputs: the plan's scan footprint and the CPU cores
        // granted to the data-parallel archipelago (0 means none are
        // reserved, so placement never picks the CPU), plus the
        // access-pattern features: how many bytes the hash probes gather at
        // random, and how large the hash state is.
        // How much data already sits in device memory and how much device
        // memory is free come from the sites' enumerated capabilities
        // instead, per device. Hints are built for forced dispatches
        // too: a forced run is ground truth about its site and must still
        // feed the calibrator — it just never consults the placement
        // heuristic.
        let cpu_cores = self.config.olap_cpu_cores as u32;
        let probe_rows = probe_frozen.row_count();
        let build_bytes = build_frozen.map_or(0, |frozen| plan.build_scan_bytes(&frozen.schema, frozen.row_count()));
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
            available_cpu_cores: cpu_cores,
            ..PlacementHints::default()
        });
        let capabilities = snap.capabilities();
        self.tracer.set_query(query_seq);
        let placing = self.tracer.start();
        let target = forced.unwrap_or_else(|| self.place_with_health(&snap, &capabilities, &hints));
        self.tracer.record_wall(SpanEvent::new(SpanKind::Placement).site(target), placing);

        let run = |target: OlapTarget| -> Result<PlanOutcome> {
            let slot = snap.require_slot(target)?;
            // RAII admission: held for registration + execution, released on
            // every path — an OOM error frees this site's slot before the
            // fallback competes for the next site's gate.
            let _permit = slot.admission.admit();
            // The site registers the tables it needs on first use and rolls
            // back what a failed call registered, so the fallback — and
            // every later query on this snapshot — inherits no stranded
            // device buffers.
            let outcome = slot.site.execute(probe_frozen, build_frozen, plan)?;
            slot.queries.fetch_add(1, Ordering::Relaxed);
            let mut time = slot.time.lock();
            time.total += outcome.time;
            time.latency.record(outcome.time.as_secs_f64());
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
        self.stats_with_oltp(self.oltp.stats())
    }

    fn stats_with_oltp(&self, oltp: OltpStats) -> HtapStats {
        let (olap_sites, snapshots_taken) = {
            let snap = self.snap.read();
            (snap.sites.iter().map(SiteSlot::stats).collect::<Vec<_>>(), snap.snapshots_taken)
        };
        let meta = self.meta.lock();
        HtapStats {
            oltp,
            cow: self.db.telemetry(),
            olap_queries: meta.query_index,
            olap_time: olap_sites.iter().map(|site| site.time).sum(),
            olap_sites,
            snapshots_taken,
            live_snapshots: self.db.active_snapshot_count(),
            calibration: meta.calibrator.report(),
            plan_cache: self.plan_cache.stats(),
            placements: meta.calibrator.recent_placements().cloned().collect(),
            resilience: self.resilience.snapshot(),
            trace_spans_recorded: self.tracer.recorded(),
            trace_spans_dropped: self.tracer.dropped(),
        }
    }

    /// Stops the OLTP workers, drops the engine's handle on the OLAP
    /// snapshot and returns final statistics.
    ///
    /// The workers stop **before** the statistics are captured, so the
    /// final counters include every transaction the workers drained on the
    /// way out (capturing first under-counted whatever committed during the
    /// stop). The snapshot drops first too, so [`HtapStats::live_snapshots`]
    /// counts only the snapshots a caller still holds.
    pub fn shutdown(mut self) -> HtapStats {
        let oltp = self.oltp.stop();
        self.snap.write().snapshot = None;
        self.stats_with_oltp(oltp)
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
            .execute_txn_on(
                PartitionId(0),
                Arc::new(move |ctx| {
                    let mut rec = ctx.read_for_update(t, 7)?;
                    rec[1] = Value::Int64(rec[1].as_i64().unwrap() + 9);
                    ctx.update(t, 7, rec)
                }),
            )
            .unwrap();
        // PerQuery policy: the next OLAP query sees the update.
        let after = caldera.run_olap(t, &q).unwrap();
        assert_eq!(after.value, 109.0);
        let stats = caldera.shutdown();
        assert_eq!(stats.oltp.committed, 1);
        assert_eq!(stats.olap_queries, 2);
        assert_eq!(stats.snapshots_taken, 2);
        assert_eq!(stats.live_snapshots, 0);
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
            .execute_txn_on(
                PartitionId(0),
                Arc::new(move |ctx| {
                    let mut rec = ctx.read_for_update(t, 0)?;
                    rec[1] = Value::Int64(100);
                    ctx.update(t, 0, rec)
                }),
            )
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
            .execute_txn_on(
                PartitionId(0),
                Arc::new(move |ctx| {
                    let mut rec = ctx.read_for_update(t, 3)?;
                    rec[1] = Value::Int64(5);
                    ctx.update(t, 3, rec)
                }),
            )
            .unwrap();
        assert_eq!(caldera.run_olap(t, &q).unwrap().value, 10.0, "stale until refreshed");
        caldera.refresh_snapshot().unwrap();
        assert_eq!(caldera.run_olap(t, &q).unwrap().value, 14.0);
        caldera.shutdown();
    }

    #[test]
    fn round_robin_hosting_spreads_transactions() {
        let (caldera, t) = engine_with_rows(4, 40, SnapshotPolicy::PerQuery);
        for i in 0..8 {
            caldera.execute_txn_on(PartitionId(i % 4), Arc::new(move |ctx| ctx.read(t, 1).map(|_| ()))).unwrap();
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
        config.olap_device.gpus[0].mem_capacity_mib = 1; // 1 MiB device
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
        config.olap_device.gpus[0].mem_capacity_mib = 1; // ~5 MiB of fact columns
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
            .execute_txn_on(
                PartitionId(0),
                Arc::new(move |ctx| {
                    let mut rec = ctx.read_for_update(fact, 0)?;
                    rec[2] = Value::Int64(100);
                    ctx.update(fact, 0, rec)
                }),
            )
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
            .execute_txn_on(
                PartitionId(0),
                Arc::new(move |ctx| {
                    let mut rec = ctx.read_for_update(t, 7)?;
                    rec[1] = Value::Int64(rec[1].as_i64().unwrap() + 41);
                    ctx.update(t, 7, rec)
                }),
            )
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
        let metrics = stats.metrics();
        assert_eq!(metrics.counter("plan_cache.chunks_rebuilt"), Some(4));
        assert_eq!(metrics.counter("plan_cache.chunks_reused"), Some(0));
        assert_eq!(metrics.counter("plan_cache.hashes_carried"), Some(0));
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
        config.cost_model_seed = CostModel { cpu_per_tuple_ns: 186.0, ..CostModel::default() };
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
    fn cpu_queries_see_the_core_grant() {
        // The same CPU query on engines granted 2 and 8 OLAP CPU cores: the
        // same answer, less simulated time on more cores.
        let run_on_cores = |cores: usize| {
            let mut config = CalderaConfig::with_workers(2);
            config.olap_cpu_cores = cores;
            let (caldera, t) = engine_with_config(config, 50_000);
            let q = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![0, 1]));
            let out = caldera.run_olap_on(t, &q, OlapTarget::Cpu).unwrap();
            caldera.shutdown();
            out
        };
        let (two, eight) = (run_on_cores(2), run_on_cores(8));
        assert_eq!(two.value, eight.value);
        assert!(eight.time < two.time, "8 cores {} should beat 2 cores {}", eight.time, two.time);
    }

    #[test]
    fn a_zero_core_grant_keeps_placement_off_a_one_core_cpu_site() {
        // The default grant is 0 OLAP CPU cores: placement must not see the
        // CPU as eligible, yet the CPU site exists (one core) for forced
        // runs and fallbacks.
        let config = CalderaConfig::with_workers(2);
        assert_eq!(config.olap_cpu_cores, 0);
        // Host-resident data: with even one core granted, the 40-row scan
        // below would route to the CPU (the GPU's dispatch overhead
        // dominates), and with 8 the join would too, on several threads.
        let (caldera, fact, dim) = engine_with_join_tables(config, 150_000);
        assert!(caldera.snap.read().capabilities().contains(&SiteCapability::Cpu { cores: 1 }));
        let plan = class_revenue_plan();
        let tiny = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![1]));
        assert_eq!(caldera.run_olap(dim, &tiny).unwrap().site, OlapTarget::Gpu);
        let placed = caldera.run_olap_plan(fact, Some(dim), &plan).unwrap();
        assert_eq!(placed.site, OlapTarget::Gpu);
        let cpu = caldera.run_olap_plan_on(fact, Some(dim), &plan, OlapTarget::Cpu).unwrap();
        assert_eq!(cpu.threads_used, 1);
        let bits = |out: &PlanOutcome| -> Vec<(u64, u64, Vec<u64>)> {
            out.groups.iter().map(|g| (g.key, g.rows, g.values.iter().map(|v| v.to_bits()).collect())).collect()
        };
        assert_eq!(bits(&cpu), bits(&placed));
        let stats = caldera.shutdown();
        assert_eq!(stats.olap_queries_on(OlapTarget::Cpu), 1, "only the forced run");
        assert_eq!(stats.olap_queries_on(OlapTarget::Gpu), 2);

        let mut config = CalderaConfig::with_workers(2);
        config.olap_cpu_cores = 3;
        let (caldera, _, _) = engine_with_join_tables(config, 10);
        assert!(caldera.snap.read().capabilities().contains(&SiteCapability::Cpu { cores: 3 }));
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
        // transactions) instead of panicking later in `execute_txn_on`.
        assert!(matches!(builder.start(), Err(H2Error::Config(_))));
    }

    #[test]
    fn a_held_snapshot_outlives_refresh_and_shutdown() {
        let (caldera, t) = engine_with_rows(2, 10, SnapshotPolicy::Manual);
        let q = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![1]));
        assert_eq!(caldera.run_olap(t, &q).unwrap().value, 10.0);
        let held = caldera.current_snapshot().expect("a query ran, so a snapshot exists");
        let base = caldera.database().telemetry();
        caldera
            .execute_txn_on(
                PartitionId(0),
                Arc::new(move |ctx| {
                    let mut rec = ctx.read_for_update(t, 0)?;
                    rec[1] = Value::Int64(5);
                    ctx.update(t, 0, rec)
                }),
            )
            .unwrap();
        caldera.refresh_snapshot().unwrap();
        assert_eq!(caldera.run_olap(t, &q).unwrap().value, 14.0);
        // The held snapshot still reads the old value and still pins the
        // page the update superseded.
        assert_eq!(held.table(t).unwrap().column(1).iter().sum::<u64>(), 10);
        let reclaimed = || caldera.database().telemetry().delta_since(&base).pages_reclaimed;
        assert_eq!(reclaimed(), 0, "the refresh dropped the engine's handle, not the last one");
        let stats = caldera.stats();
        assert_eq!((stats.live_snapshots, stats.metrics().gauge("storage.live_snapshots")), (2, Some(2.0)));
        drop(held);
        assert_eq!(reclaimed(), 1);
        let stats = caldera.shutdown();
        assert_eq!(stats.live_snapshots, 0);
        assert_eq!(stats.cow.pages_reclaimed, base.pages_reclaimed + 1);
    }

    /// Shutdown cannot release a snapshot a caller still holds: it reports
    /// it in `live_snapshots`, and the caller's drop releases it later.
    #[test]
    fn shutdown_counts_a_failed_snapshot_release() {
        let (caldera, t) = engine_with_rows(2, 10, SnapshotPolicy::Manual);
        let q = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![1]));
        caldera.run_olap(t, &q).unwrap();
        let held = caldera.current_snapshot().unwrap();
        let db = Arc::clone(caldera.database());
        let stats = caldera.shutdown();
        assert_eq!(stats.live_snapshots, 1, "a snapshot still held at shutdown is not lost track of");
        assert_eq!(stats.metrics().gauge("storage.live_snapshots"), Some(1.0));
        drop(held);
        assert_eq!(db.active_snapshot_count(), 0);
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
        let mut plan = h2tap_gpu_sim::FaultPlan::quiet(11);
        plan.device_loss_at = Some(DeviceLossPoint { device: 0, launch: 4 });
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
        let mut plan = h2tap_gpu_sim::FaultPlan::quiet(17);
        plan.device_loss_at = Some(DeviceLossPoint { device: 0, launch: 0 });
        config.fault_plan = Some(plan);
        let (caldera, t) = engine_with_config(config, 50_000);
        let used_bytes = || caldera.snap.read().slot(OlapTarget::Gpu).map(|s| s.site.device_used_bytes());
        let before = used_bytes().expect("the engine has a GPU site");
        let q = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![1]));
        let err = caldera.run_olap_on(t, &q, OlapTarget::Gpu).unwrap_err();
        assert!(matches!(err, H2Error::Fault { transient: false, .. }), "expected the device loss, got {err:?}");
        assert_eq!(used_bytes(), Some(before), "the failed scan must not strand its table on the device");
        // The CPU site still answers from host DRAM.
        assert_eq!(caldera.run_olap_on(t, &q, OlapTarget::Cpu).unwrap().value, 50_000.0);
        caldera.shutdown();
    }

    #[test]
    fn a_loss_scheduled_on_the_second_gpu_of_a_mix_fires() {
        // The ordinal names a device of the configured list: with a two-GPU
        // site, device 1 owns every second chunk, so its loss fails the
        // forced scan on the first launch, under the one `gpu` site label.
        let mut config = CalderaConfig::with_workers(2);
        config.olap_device.gpus = h2tap_gpu_sim::table1_mix(2);
        let mut plan = h2tap_gpu_sim::FaultPlan::quiet(23);
        plan.device_loss_at = Some(DeviceLossPoint { device: 1, launch: 0 });
        config.fault_plan = Some(plan);
        let (caldera, t) = engine_with_config(config, 200_000);
        let q = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![1]));
        let err = caldera.run_olap_on(t, &q, OlapTarget::Gpu).unwrap_err();
        assert!(
            matches!(&err, H2Error::Fault { site, transient: false, .. } if site == "gpu"),
            "expected the loss of the second GPU, got {err:?}"
        );
        assert_eq!(caldera.run_olap_on(t, &q, OlapTarget::Cpu).unwrap().value, 200_000.0);
        caldera.shutdown();
    }

    #[test]
    fn transient_faults_are_retried_a_bounded_number_of_times() {
        let mut config = CalderaConfig::with_workers(2);
        config.olap_cpu_cores = 2;
        let mut plan = h2tap_gpu_sim::FaultPlan::quiet(3);
        plan.transient_kernel_rate = 1.0; // every attempt faults
        config.fault_plan = Some(plan);
        let (caldera, t) = engine_with_config(config, 1_000);
        let q = ScanAggQuery::aggregate_only(AggExpr::SumColumns(vec![1]));
        // A forced dispatch never falls back: once its retries are spent,
        // the caller sees the site's own error.
        let err = caldera.run_olap_on(t, &q, OlapTarget::Gpu).unwrap_err();
        assert!(matches!(err, H2Error::Fault { transient: true, .. }), "expected the transient fault, got {err:?}");
        let stats = caldera.shutdown();
        assert_eq!(stats.resilience.retries, u64::from(OLAP_RETRY_MAX));
        assert_eq!(stats.resilience.faults, u64::from(OLAP_RETRY_MAX) + 1);
        assert_eq!(stats.resilience.fallbacks, 0);
        // The failed query drew a number but no site answered it.
        assert_eq!(stats.olap_queries, stats.olap_sites.iter().map(|s| s.queries).sum::<u64>() + 1);
    }

    #[test]
    fn fault_spans_and_metrics_surface_through_obs() {
        let mut config = CalderaConfig::with_workers(2);
        config.olap_cpu_cores = 8;
        config.olap_device.placement = DataPlacement::DeviceResident;
        config.snapshot_policy = SnapshotPolicy::EveryN { queries: 1_000 };
        config.observability.tracing = true;
        let mut plan = h2tap_gpu_sim::FaultPlan::quiet(5);
        plan.device_loss_at = Some(DeviceLossPoint { device: 0, launch: 2 });
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
        let res = &stats.resilience;
        assert_eq!(res.faults, res.faults_by_kind.iter().sum::<u64>());
        let gpu = stats.olap_sites.iter().find(|s| s.target == OlapTarget::Gpu).unwrap();
        assert_eq!(gpu.health.quarantines, 1);
        assert_eq!(gpu.health.state, SiteHealthState::Quarantined);

        let metrics = stats.metrics();
        let counter = |name: &str| metrics.counter(name).unwrap_or_else(|| panic!("counter {name} missing"));
        let gauge = |name: &str| metrics.gauge(name).unwrap_or_else(|| panic!("gauge {name} missing"));
        assert_eq!((counter("olap.queries"), counter("olap.queries.cpu"), counter("olap.queries.gpu")), (10, 8, 2));
        assert_eq!(counter("olap.faults.observed"), res.faults);
        assert_eq!(counter("olap.faults.device_lost"), 1);
        assert_eq!(counter("olap.faults.transient_kernel"), 0, "kinds that never fired still export");
        assert_eq!(counter("olap.faults.fallbacks"), 1);
        assert_eq!(counter("olap.site_health.quarantines.gpu"), 1);
        assert_eq!(gauge("olap.site_health.state.gpu"), 2.0);
        assert_eq!(gauge("olap.site_health.window_error_rate.gpu"), 1.0 / 3.0);
        assert_eq!(counter("trace.spans.recorded"), stats.trace_spans_recorded);
        let latency = metrics.histogram("olap.latency.secs").unwrap();
        assert_eq!(latency.count(), 10);
        assert_eq!(latency.max(), metrics.histogram("olap.latency.cpu").unwrap().max());

        // Every name the string-keyed registry used to export is still
        // exported.
        let counters: Vec<&str> = metrics.counters().map(|(name, _)| name).collect();
        let gauges: Vec<&str> = metrics.gauges().map(|(name, _)| name).collect();
        let histograms: Vec<&str> = metrics.histograms().map(|(name, _)| name).collect();
        for name in [
            "olap.queries",
            "olap.queries.cpu",
            "olap.queries.gpu",
            "olap.admission.admitted.cpu",
            "olap.admission.admitted.gpu",
            "olap.admission.queued.cpu",
            "olap.admission.queued.gpu",
            "olap.site_health.failures.cpu",
            "olap.site_health.failures.gpu",
            "olap.site_health.probes.cpu",
            "olap.site_health.probes.gpu",
            "olap.site_health.quarantines.cpu",
            "olap.site_health.quarantines.gpu",
            "olap.faults.observed",
            "olap.faults.retries",
            "olap.faults.fallbacks",
            "olap.faults.device_lost",
            "plan_cache.column_hits",
            "plan_cache.column_misses",
            "plan_cache.hash_hits",
            "plan_cache.hash_misses",
            "plan_cache.invalidations",
            "plan_cache.evictions",
            "plan_cache.shared_scan_attaches",
            "plan_cache.chunks_reused",
            "plan_cache.chunks_rebuilt",
            "plan_cache.hashes_carried",
            "trace.spans.recorded",
            "trace.spans.dropped",
        ] {
            assert!(counters.contains(&name), "counter {name} no longer exported");
        }
        for name in [
            "olap.admission.in_flight.cpu",
            "olap.admission.in_flight.gpu",
            "olap.site_health.state.cpu",
            "olap.site_health.state.gpu",
            "olap.site_health.window_error_rate.cpu",
            "olap.site_health.window_error_rate.gpu",
            "plan_cache.occupancy_bytes",
        ] {
            assert!(gauges.contains(&name), "gauge {name} no longer exported");
        }
        for name in ["olap.latency.secs", "olap.latency.cpu", "olap.latency.gpu"] {
            assert!(histograms.contains(&name), "histogram {name} no longer exported");
        }
    }

    #[test]
    fn plan_cache_fields_export_once_as_counters_or_gauges() {
        let stats = HtapStats {
            plan_cache: PlanCacheStats {
                column_hits: 1,
                column_misses: 2,
                hash_hits: 3,
                hash_misses: 4,
                invalidations: 5,
                evictions: 6,
                shared_scan_attaches: 7,
                chunks_reused: 8,
                chunks_rebuilt: 9,
                hashes_carried: 10,
                occupancy_bytes: 4096,
                budget_bytes: Some(8192),
            },
            ..HtapStats::default()
        };
        let metrics = stats.metrics();
        let counters: Vec<(&str, u64)> =
            metrics.counters().filter(|(name, _)| name.starts_with("plan_cache.")).collect();
        let gauges: Vec<(&str, f64)> = metrics.gauges().filter(|(name, _)| name.starts_with("plan_cache.")).collect();
        assert!(metrics.histograms().all(|(name, _)| !name.starts_with("plan_cache.")));
        // Ten distinct values, ten counters: each field exported exactly once.
        let mut values: Vec<u64> = counters.iter().map(|(_, value)| *value).collect();
        values.sort_unstable();
        assert_eq!(values, (1..=10).collect::<Vec<u64>>(), "{counters:?}");
        assert_eq!(gauges, [("plan_cache.budget_bytes", 8192.0), ("plan_cache.occupancy_bytes", 4096.0)]);
    }
}
