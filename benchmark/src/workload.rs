//! The four workloads and the driver that runs one of them in one process:
//! load, start, warm up, measure, check.
//!
//! Every workload keeps at most one busy thread per archipelago (only
//! `oltp-only` runs two OLTP workers), because the sandbox has two cores and
//! a third runnable thread turns every number into a scheduler lottery.
//!
//! Each workload measures the metrics it is about in its main phase. The
//! benchmark contract wants every end-to-end metric from every workload, so
//! a short *complement* phase measures the others where they cannot perturb
//! the main phase: the OLAP workloads run their transactions before the
//! first snapshot exists (no copy-on-write), `oltp-only` asks its queries
//! after the last transaction.

use crate::analyst::{Analyst, LatencyClass, Oracle, QueryKind, QuerySample, ANALYST_RATE, CYCLE_LEN};
use crate::data::{self, Loaded, Scale, Seeds};
use crate::json::Json;
use crate::metrics;
use crate::probes;
use crate::procstat::{self, ForeignCpu};
use crate::spans::Recorder;
use crate::stats;
use crate::txn::{self, PacedResult, RmwGenerator, Sampling, SaturatedWindow};
use caldera::{Caldera, CalderaBuilder, CalderaConfig, GroupRow, HtapStats, OlapTarget, SnapshotPolicy};
use h2tap_common::rng::SplitMixRng;
use h2tap_common::{H2Error, PartitionId, Result};
use h2tap_workloads::ycsb::{YcsbConfig, YcsbGenerator};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Warm-up before the main phase, in seconds.
const WARMUP_S: f64 = 0.2;
/// Length of a complement generator window and of a complement paced phase.
const COMPLEMENT_S: f64 = 0.3;
/// Snapshot cycles a complement analyst runs.
const COMPLEMENT_CYCLES: usize = 3;
/// `htap-mixed` OLTP-alone window of the traced run, for the degradation
/// ratio.
const ALONE_S: f64 = 1.0;
/// Share of `oltp-only`'s measured time spent in the saturated phase; the
/// rest is the paced phase.
const SATURATED_SHARE: f64 = 0.6;
/// Percent of each partition `htap-mixed` writes to: a quarter of the table
/// is dirty per snapshot, so a later incremental-snapshot change has
/// something to show.
const MIXED_WORKING_SET_PCT: u32 = 25;
/// Percent of `oltp-only` transactions that take one remote lock.
const REMOTE_PCT: u64 = 10;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Scan and join alternate over one cached snapshot.
    OlapCached,
    /// The same queries, a fresh snapshot for each.
    OlapFresh,
    /// Transactions only; no snapshot exists while they run.
    OltpOnly,
    /// Saturated writes beside a paced analyst sharing snapshots.
    HtapMixed,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [Workload::OlapCached, Workload::OlapFresh, Workload::OltpOnly, Workload::HtapMixed];

    /// The workload's name in `BENCHMARK.json` and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OlapCached => "olap-cached",
            Workload::OlapFresh => "olap-fresh",
            Workload::OltpOnly => "oltp-only",
            Workload::HtapMixed => "htap-mixed",
        }
    }

    /// Why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Workload::OlapCached => {
                "one snapshot, plan cache always hits: kernels, merge, placement and dispatch do all the work; \
                 snapshot, copy-on-write and materialisation do none"
            }
            Workload::OlapFresh => {
                "a snapshot per query, no writes: gate drain, snapshot, registration, materialisation and hash \
                 build dominate and the cache is bypassed - the data-movement workload"
            }
            Workload::OltpOnly => {
                "2 workers, no snapshot: locks, index, messaging (10% remote) and in-place update do all the work; \
                 copy-on-write and every OLAP layer do none"
            }
            Workload::HtapMixed => {
                "saturated writes beside a 10 q/s analyst sharing a snapshot per 8 queries: copy-on-write, GC, \
                 cache invalidation and CPU interference - where a gain for one side that costs the other shows"
            }
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The query rotation, as the digest records it.
    pub fn rotation(self) -> &'static str {
        match self {
            Workload::OlapCached | Workload::OlapFresh => "scan,join",
            Workload::OltpOnly | Workload::HtapMixed => "scan,join,scan,join,scan,join,scan,audit",
        }
    }

    /// The throughput the workload is about; tracing overhead is measured
    /// on it.
    pub fn primary_metric(self) -> &'static str {
        match self {
            Workload::OlapCached | Workload::OlapFresh => "olap_qps",
            Workload::OltpOnly | Workload::HtapMixed => "oltp_tps",
        }
    }

    fn workers(self) -> usize {
        if self == Workload::OltpOnly {
            2
        } else {
            1
        }
    }

    /// The engine configuration: shared settings plus the workload's worker
    /// count and snapshot policy.
    pub fn config(self, seeds: Seeds, trace: bool) -> CalderaConfig {
        let mut config = CalderaConfig::with_workers(self.workers());
        config.oltp.seed = seeds.oltp;
        config.olap_cpu_cores = 1;
        // Both tables' derived state fits with room to spare, so nothing is
        // ever evicted: capacity misses are deliberately not measured.
        config.olap_plan_cache_budget_bytes = Some(256 << 20);
        config.snapshot_policy = match self {
            Workload::OlapFresh => SnapshotPolicy::PerQuery,
            Workload::HtapMixed => SnapshotPolicy::EveryN { queries: CYCLE_LEN as u32 },
            Workload::OlapCached | Workload::OltpOnly => SnapshotPolicy::Manual,
        };
        config.observability.tracing = trace;
        config.observability.trace_capacity = 1 << 16;
        config
    }
}

/// What one driver process is asked to do.
#[derive(Debug, Clone)]
pub struct DriverOptions {
    /// The workload to run.
    pub workload: Workload,
    /// The run's seed.
    pub seed: u64,
    /// Which fresh-process repeat this is (recorded, not used).
    pub repeat: u32,
    /// Measured seconds of the main phase.
    pub seconds: f64,
    /// Whether this is the traced run: engine tracing on, benchmark spans
    /// recorded, layer probes run, trace files written to `out_dir`.
    pub trace: bool,
    /// Table sizes.
    pub scale: Scale,
    /// Where a traced run writes `trace_<workload>.json` and
    /// `trace_<workload>.engine.json`.
    pub out_dir: PathBuf,
}

/// What one driver process measured.
#[derive(Debug, Clone, PartialEq)]
pub struct DriverReport {
    /// The workload run.
    pub workload: Workload,
    /// Which repeat this was.
    pub repeat: u32,
    /// Every end-to-end metric, in `metrics::END_TO_END` order.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Every per-layer metric of a traced run (empty otherwise).
    pub per_layer: Vec<(&'static str, f64)>,
    /// Queries, paced transactions and generator transactions attempted.
    pub attempted: u64,
    /// Those that failed: an `Err`, a wrong answer, or a transaction aborted
    /// after its retries.
    pub failed: u64,
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Digest of everything the seed decided.
    pub digest: String,
    /// CPU other processes used while this driver ran, as a share of a core.
    pub foreign_cpu_frac: f64,
    /// The forced-CPU answers every other answer was compared with; the
    /// parent checks them against the generator's references.
    pub oracle: Option<Oracle>,
    /// One line per failed check.
    pub notes: Vec<String>,
}

impl DriverReport {
    /// The value of one end-to-end metric.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.end_to_end.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Reads back what [`DriverReport::to_json`] wrote. Metrics this build
    /// does not know are dropped.
    pub fn from_json(json: &Json) -> Option<Self> {
        let pairs = |key: &str| -> Vec<(&'static str, f64)> {
            json.get(key)
                .map_or(&[][..], Json::entries)
                .iter()
                .filter_map(|(name, value)| Some((metrics::find(name)?.name, value.as_f64()?)))
                .collect()
        };
        let oracle = json.get("oracle").and_then(|o| {
            let join = o.get("join")?.as_array()?.iter().map(|row| {
                let cells = row.as_array()?;
                Some(GroupRow {
                    key: cells.first()?.as_u64()?,
                    rows: cells.get(1)?.as_u64()?,
                    values: cells[2..].iter().map(Json::as_f64).collect::<Option<_>>()?,
                })
            });
            Some(Oracle { scan: o.get("scan")?.as_f64()?, join: join.collect::<Option<_>>()? })
        });
        Some(Self {
            workload: Workload::parse(json.get("workload")?.as_str()?)?,
            repeat: json.get("repeat")?.as_u64()? as u32,
            end_to_end: pairs("end_to_end"),
            per_layer: pairs("per_layer"),
            attempted: json.get("attempted")?.as_u64()?,
            failed: json.get("failed")?.as_u64()?,
            correct: json.get("correct")?.as_bool()?,
            digest: json.get("digest")?.as_str()?.to_string(),
            foreign_cpu_frac: json.get("foreign_cpu_frac")?.as_f64()?,
            oracle,
            notes: json.get("notes")?.as_array()?.iter().filter_map(|n| n.as_str().map(String::from)).collect(),
        })
    }

    /// The report as the one JSON line a driver prints.
    pub fn to_json(&self) -> Json {
        let pairs =
            |items: &[(&'static str, f64)]| items.iter().fold(Json::obj(), |obj, (name, value)| obj.with(name, *value));
        let oracle = self.oracle.as_ref().map_or(Json::Null, |o| {
            let groups = o
                .join
                .iter()
                .map(|g| {
                    let mut row = vec![Json::from(g.key), Json::from(g.rows)];
                    row.extend(g.values.iter().map(|v| Json::Num(*v)));
                    Json::Arr(row)
                })
                .collect::<Vec<_>>();
            Json::obj().with("scan", o.scan).with("join", groups)
        });
        Json::obj()
            .with("workload", self.workload.name())
            .with("repeat", u64::from(self.repeat))
            .with("end_to_end", pairs(&self.end_to_end))
            .with("per_layer", pairs(&self.per_layer))
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("correct", self.correct)
            .with("digest", self.digest.as_str())
            .with("foreign_cpu_frac", self.foreign_cpu_frac)
            .with("oracle", oracle)
            .with("notes", self.notes.iter().map(|n| Json::from(n.as_str())).collect::<Vec<_>>())
    }
}

/// Everything the phases of one workload produced.
#[derive(Default)]
struct Phases {
    /// Seconds from process start to the main phase, less any complement
    /// phase measured on the way.
    setup_s: f64,
    /// The generator window behind `oltp_tps`.
    generator: Option<SaturatedWindow>,
    /// `htap-mixed`, traced: the generator alone, before any snapshot.
    generator_alone: Option<SaturatedWindow>,
    /// Workers × generator window length, for `oltp.busy_us_per_txn`.
    worker_secs: f64,
    /// The paced client.
    paced: PacedResult,
    /// Every measured query.
    queries: Vec<QuerySample>,
    /// Queries per second: the closed loop's rate, or the rate the paced
    /// analyst achieved.
    qps: f64,
    /// Engine query numbers of the main phase, for joining engine spans.
    main_requests: std::ops::Range<u64>,
    /// Counter deltas over the main phase (traced runs).
    window: Option<(HtapStats, HtapStats, f64)>,
    /// Audits whose sum cut through a commit.
    torn_audits: u64,
    /// Audits taken while transactions ran.
    live_audits: u64,
}

struct Driver<'a> {
    opts: &'a DriverOptions,
    caldera: &'a Caldera,
    rec: &'a Recorder,
    loaded: Loaded,
    generator: RmwGenerator,
    keys_rng: SplitMixRng,
    process_start: Instant,
    notes: Vec<String>,
    check_failures: u64,
}

impl<'a> Driver<'a> {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures += 1;
            let note = what();
            eprintln!("htapbench: check failed: {note}");
            self.notes.push(note);
        }
    }

    /// Samples the engine's counters at the start of the main phase (traced
    /// runs only).
    fn open_window(&self) -> Option<(HtapStats, Instant)> {
        self.opts.trace.then(|| (self.caldera.stats(), Instant::now()))
    }

    /// Samples them again at its end: before, after, seconds between.
    fn close_window(&self, open: Option<(HtapStats, Instant)>) -> Option<(HtapStats, HtapStats, f64)> {
        open.map(|(before, started)| (before, self.caldera.stats(), started.elapsed().as_secs_f64()))
    }

    fn analyst(&self) -> Analyst<'a> {
        Analyst::new(self.caldera, self.rec, self.loaded.lineitem, self.loaded.part)
    }

    fn paced(&mut self, secs: f64) -> PacedResult {
        // Request ids of transactions live far above the analyst's.
        txn::paced(self.caldera, &self.generator, &mut self.keys_rng, secs, self.rec, 1 << 32)
    }

    /// With transactions quiescent, `SUM(l_quantity)` must have grown by
    /// exactly ten per committed transaction.
    fn check_conservation(&mut self, audit: &QuerySample) {
        let committed = self.caldera.oltp().stats().committed;
        let expected = self.loaded.quantity_sum + (txn::OPS_PER_TXN as u64 * committed) as f64;
        let value = audit.value;
        self.check(value == expected, || {
            format!("SUM(l_quantity) = {value}, expected {expected} after {committed} commits")
        });
    }

    /// `olap-cached` / `olap-fresh`.
    fn run_olap(&mut self, cached: bool) -> Result<(Phases, Option<Oracle>)> {
        let mut phases = Phases::default();
        // Complement, before any snapshot exists: transactions that add 0.0.
        let generator = txn::saturated(self.caldera, COMPLEMENT_S, Sampling::Slices, self.rec)?;
        phases.paced = self.paced(COMPLEMENT_S);
        let mut measured = generator.elapsed + phases.paced.elapsed;
        phases.worker_secs = generator.elapsed.as_secs_f64();
        phases.generator = Some(generator);

        let mut analyst = self.analyst();
        let oracle = analyst.take_oracle()?;
        if cached {
            // Complement: what a refresh would cost here. It is also the
            // warm-up: the last cycle leaves every derived column cached.
            let started = Instant::now();
            phases.queries = analyst.closed_cycles(COMPLEMENT_CYCLES, true);
            measured += started.elapsed();
        } else {
            analyst.closed_loop(WARMUP_S);
        }

        phases.setup_s = (self.process_start.elapsed() - measured).as_secs_f64();
        let window = self.open_window();
        let first = analyst.issued + 1;
        let (main, qps) = analyst.closed_loop(self.opts.seconds);
        phases.qps = qps;
        phases.main_requests = first..analyst.issued + 1;
        phases.window = self.close_window(window);
        phases.queries.extend(main);
        self.check_failures += analyst.failed;
        Ok((phases, Some(oracle)))
    }

    /// `oltp-only`.
    fn run_oltp(&mut self) -> Result<(Phases, Option<Oracle>)> {
        let mut phases = Phases::default();
        txn::saturated(self.caldera, WARMUP_S, Sampling::Slices, self.rec)?;

        phases.setup_s = self.process_start.elapsed().as_secs_f64();
        let window = self.open_window();
        let generator = txn::saturated(self.caldera, self.opts.seconds * SATURATED_SHARE, Sampling::Slices, self.rec)?;
        phases.worker_secs = generator.elapsed.as_secs_f64() * self.caldera.oltp().workers() as f64;
        phases.generator = Some(generator);
        phases.paced = self.paced(self.opts.seconds * (1.0 - SATURATED_SHARE));
        phases.window = self.close_window(window);

        // The first snapshot of the process: the final audit.
        let mut analyst = self.analyst();
        let audit = analyst.issue(QueryKind::Audit, LatencyClass::Other, None, true, None);
        self.check_conservation(&audit);
        // Complement: the analyst's cycle over the now quiet table.
        let oracle = analyst.take_oracle()?;
        let started = Instant::now();
        phases.queries = analyst.closed_cycles(COMPLEMENT_CYCLES, true);
        phases.qps = phases.queries.len() as f64 / started.elapsed().as_secs_f64();
        self.check_failures += analyst.failed;
        Ok((phases, Some(oracle)))
    }

    /// `htap-mixed`.
    fn run_mixed(&mut self) -> Result<(Phases, Option<Oracle>)> {
        let mut phases = Phases::default();
        if self.opts.trace {
            phases.generator_alone = Some(txn::saturated(self.caldera, ALONE_S, Sampling::Slices, self.rec)?);
        }
        // One warm-up cycle; it also leaves the engine's query count on a
        // cycle boundary, so the policy refreshes at position 0 from here on.
        let mut analyst = self.analyst();
        let warmup = analyst.closed_cycles(1, false);
        self.check_conservation(&warmup[CYCLE_LEN - 1]);

        let cycle_secs = CYCLE_LEN as f64 / ANALYST_RATE;
        let cycles = ((self.opts.seconds / cycle_secs).round() as usize).max(1);
        let window_secs = cycles as f64 * cycle_secs;
        let cycle = Duration::from_secs_f64(cycle_secs);
        phases.setup_s = self.process_start.elapsed().as_secs_f64();
        let window = self.open_window();
        let first = analyst.issued + 1;
        let started = Instant::now();
        let (caldera, rec) = (self.caldera, self.rec);
        let (generator, queries) = std::thread::scope(|scope| {
            let oltp = scope.spawn(move || txn::saturated(caldera, window_secs, Sampling::Cycles(cycle), rec));
            let queries = analyst.open_cycles(cycles);
            (oltp.join().expect("the generator window panicked"), queries)
        });
        let generator = generator?;
        phases.qps = queries.len() as f64 / started.elapsed().as_secs_f64();
        phases.main_requests = first..analyst.issued + 1;
        phases.window = self.close_window(window);
        phases.worker_secs = generator.elapsed.as_secs_f64();
        phases.generator = Some(generator);

        // Audits under writes: monotone always; a sum that is not a whole
        // number of transactions cut through a commit. That is reported,
        // not failed: the engine's snapshot does not quiesce commits today.
        let mut last = self.loaded.quantity_sum;
        for (i, q) in queries.iter().enumerate() {
            self.check(q.installed_snapshot == (i % CYCLE_LEN == 0), || {
                format!("query {i}: unexpected snapshot cycle position")
            });
            if q.kind == QueryKind::Audit && q.value.is_finite() {
                phases.live_audits += 1;
                phases.torn_audits += u64::from((q.value - self.loaded.quantity_sum) % txn::OPS_PER_TXN as f64 != 0.0);
                let value = q.value;
                self.check(value >= last, || format!("audit went backwards: {value} after {last}"));
                last = value;
            }
        }
        phases.queries = queries;

        // Complement: paced transactions (the held snapshot makes some of
        // them copy a page).
        phases.paced = self.paced(COMPLEMENT_S);
        let audit = analyst.issue(QueryKind::Audit, LatencyClass::Other, None, true, None);
        self.check_conservation(&audit);
        self.check_failures += analyst.failed;
        Ok((phases, None))
    }
}

fn p50(samples: impl Iterator<Item = f64>) -> f64 {
    stats::percentile(&stats::sorted(samples.collect()), 50.0).unwrap_or(0.0)
}

/// The nine end-to-end metrics from the phases.
fn end_to_end(phases: &Phases) -> Vec<(&'static str, f64)> {
    let q = &phases.queries;
    let class = |c: LatencyClass| p50(q.iter().filter(move |s| s.class == c).map(|s| s.latency_ms));
    vec![
        ("setup_s", phases.setup_s),
        ("peak_rss_mb", procstat::peak_rss_mb()),
        ("oltp_tps", phases.generator.map_or(0.0, |g| g.tps)),
        ("oltp_txn_p50_us", phases.paced.p50_us()),
        ("olap_qps", phases.qps),
        ("olap_scan_p50_ms", class(LatencyClass::Scan)),
        ("olap_join_p50_ms", class(LatencyClass::Join)),
        (
            "olap_refresh_p50_ms",
            p50(q.iter().filter(|s| s.kind == QueryKind::Scan && s.installed_snapshot).map(|s| s.latency_ms)),
        ),
        // Over warm scans only. Ages come in groups, one per cycle position;
        // a median over all answers lands on the edge of a group and reports
        // that group's slowest query. The warm scans form an odd number of
        // groups (or, without cycles, a single one), so their median is a
        // median *within* the middle group.
        ("snapshot_age_p50_ms", p50(q.iter().filter(|s| s.class == LatencyClass::Scan).map(|s| s.snapshot_age_ms))),
    ]
}

/// Per-layer metrics that come from the measured phases themselves (the
/// isolated probes add the rest).
fn phase_layers(phases: &Phases, workload: Workload, engine_spans: &[caldera::SpanRecord]) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let q = &phases.queries;

    if let Some((before, after, secs)) = &phases.window {
        let cow = after.cow.delta_since(&before.cow);
        let oltp = after.oltp.delta_since(&before.oltp);
        let snapshots = (after.snapshots_taken - before.snapshots_taken) as f64;
        let committed = oltp.committed as f64;
        out.push(("storage.cow_pages_per_snapshot", ratio(cow.pages_copied as f64, snapshots.max(1.0))));
        out.push(("storage.cow_bytes_per_txn", ratio(cow.bytes_copied as f64, committed)));
        out.push((
            "storage.in_place_frac",
            ratio(cow.in_place_updates as f64, (cow.in_place_updates + cow.pages_copied) as f64),
        ));
        out.push(("storage.reclaimed_pages_per_snapshot", ratio(cow.pages_reclaimed as f64, snapshots.max(1.0))));
        let cache = (&after.plan_cache, &before.plan_cache);
        let hits = (cache.0.hits() - cache.1.hits()) as f64;
        let misses = (cache.0.misses() - cache.1.misses()) as f64;
        let queries = (after.olap_queries - before.olap_queries) as f64;
        out.push(("olap.cache_hit_rate", ratio(hits, hits + misses)));
        out.push(("olap.cache_misses_per_query", ratio(misses, queries)));
        out.push((
            "olap.cache_invalidations_per_s",
            ratio((cache.0.invalidations - cache.1.invalidations) as f64, *secs),
        ));
        out.push(("olap.cache_evictions", (cache.0.evictions - cache.1.evictions) as f64));
        out.push(("olap.cache_occupancy_mb", cache.0.occupancy_bytes as f64 / (1 << 20) as f64));
        out.push(("olap.shared_scan_attaches", (cache.0.shared_scan_attaches - cache.1.shared_scan_attaches) as f64));
        let admitted: u64 = after.olap_sites.iter().map(|s| s.admission.admitted).sum::<u64>()
            - before.olap_sites.iter().map(|s| s.admission.admitted).sum::<u64>();
        let queued: u64 = after.olap_sites.iter().map(|s| s.admission.queued).sum::<u64>()
            - before.olap_sites.iter().map(|s| s.admission.queued).sum::<u64>();
        out.push(("engine.snapshots_per_s", ratio(snapshots, *secs)));
        out.push(("engine.admission_queued_frac", ratio(queued as f64, admitted as f64)));
        out.push(("engine.faults", (after.resilience.faults - before.resilience.faults) as f64));
        out.push(("engine.retries", (after.resilience.retries - before.resilience.retries) as f64));
        out.push(("engine.fallbacks", (after.resilience.fallbacks - before.resilience.fallbacks) as f64));
        let err = |site| after.prediction_error_on(site).unwrap_or(0.0);
        out.push(("scheduler.pred_err.cpu", err(OlapTarget::Cpu)));
        out.push(("scheduler.pred_err.gpu", err(OlapTarget::Gpu)));
        let regret = after.calibration.regret;
        out.push(("scheduler.regret_frac", ratio(regret.misplacements as f64, regret.decisions as f64)));
    }
    out.push(("storage.torn_snapshot_frac", ratio(phases.torn_audits as f64, phases.live_audits as f64)));

    if let Some(generator) = &phases.generator {
        let s = generator.stats;
        let txns = (s.committed + s.aborted) as f64;
        out.push(("oltp.busy_us_per_txn", ratio(phases.worker_secs * 1e6, s.committed as f64)));
        out.push(("oltp.abort_frac", ratio(s.aborted as f64, txns)));
        out.push(("oltp.retries_per_txn", ratio(s.retries as f64, txns)));
        out.push(("oltp.remote_per_txn", ratio(s.remote_requests as f64, txns)));
        out.push(("oltp.msgs_per_txn", ratio(s.messages as f64, txns)));
        // Count over time on both sides: the two windows' `tps` are sampled
        // differently and do not compare.
        let mean_tps = |w: &SaturatedWindow| ratio(w.stats.committed as f64, w.elapsed.as_secs_f64());
        let degradation =
            phases.generator_alone.map_or(0.0, |alone| 1.0 - ratio(mean_tps(generator), mean_tps(&alone)));
        out.push(("engine.oltp_degradation_frac", degradation));
    }
    let paced = &phases.paced;
    out.push(("oltp.queue_us", p50(paced.queue_us.iter().copied())));
    out.push(("oltp.proc_us", p50(paced.proc_us.iter().copied())));
    out.push(("oltp.reply_us", p50(paced.reply_us.iter().copied())));
    let late_us = stats::sorted(paced.late_us.clone());
    out.push(("bench.oltp_late_p99_us", stats::percentile(&late_us, 99.0).unwrap_or(0.0)));
    out.push(("bench.oltp_achieved_tps", paced.achieved_tps()));
    let (pct, tail) = stats::supported_tail(&stats::sorted(paced.latency_us.clone())).unwrap_or((0.0, 0.0));
    out.push(("bench.oltp_txn_tail_us", tail));
    out.push(("bench.oltp_txn_tail_pct", pct));

    let late_ms = stats::sorted(q.iter().map(|s| s.late_ms).collect());
    out.push(("bench.olap_late_p99_ms", stats::percentile(&late_ms, 99.0).unwrap_or(0.0)));
    out.push(("bench.olap_achieved_qps", phases.qps));
    // The tail of the workload's most common warm class.
    let tail_class = if workload == Workload::OltpOnly { LatencyClass::Other } else { LatencyClass::Scan };
    let warm = stats::sorted(q.iter().filter(|s| s.class == tail_class).map(|s| s.latency_ms).collect());
    let (pct, tail) = stats::supported_tail(&warm).unwrap_or((0.0, 0.0));
    out.push(("bench.olap_tail_ms", tail));
    out.push(("bench.olap_tail_pct", pct));
    out.push(("bench.olap_n", q.len() as f64));

    let on_gpu = q.iter().filter(|s| s.site == OlapTarget::Gpu).count();
    out.push(("olap.site_share.gpu", ratio(on_gpu as f64, q.len() as f64)));
    let mean = |kind: QueryKind, f: &dyn Fn(&QuerySample) -> f64| {
        let of_kind: Vec<f64> = q.iter().filter(|s| s.kind == kind).map(f).collect();
        ratio(of_kind.iter().sum(), of_kind.len() as f64)
    };
    out.push(("gpu-sim.sim_ms.scan", mean(QueryKind::Scan, &|s| s.sim_ms)));
    out.push(("gpu-sim.sim_ms.join", mean(QueryKind::Join, &|s| s.sim_ms)));
    out.push(("gpu-sim.sim_wall_ratio.scan", mean(QueryKind::Scan, &|s| ratio(s.sim_ms, s.latency_ms))));
    out.push(("gpu-sim.sim_wall_ratio.join", mean(QueryKind::Join, &|s| ratio(s.sim_ms, s.latency_ms))));
    out.push(("gpu-sim.kernels_per_query", ratio(q.iter().map(|s| s.kernels as f64).sum(), q.len() as f64)));
    out.push((
        "gpu-sim.interconnect_mb_per_query",
        ratio(q.iter().map(|s| s.interconnect_bytes as f64).sum::<f64>() / (1 << 20) as f64, q.len() as f64),
    ));

    // The engine's own spans, joined to the main phase's requests by the
    // engine's query number.
    let main: Vec<&caldera::SpanRecord> =
        engine_spans.iter().filter(|s| phases.main_requests.contains(&s.query)).collect();
    let main_queries = (phases.main_requests.end - phases.main_requests.start) as f64;
    out.push(("obs.spans_per_query", ratio(main.len() as f64, main_queries)));
    for (name, label) in [
        ("obs.span_ms.placement", "placement"),
        ("obs.span_ms.cache_lookup", "cache_lookup"),
        ("obs.span_ms.materialise", "materialise"),
        ("obs.span_ms.hash_build", "hash_build"),
        ("obs.span_ms.kernel", "kernel"),
        ("obs.span_ms.merge", "merge"),
    ] {
        let total: f64 = main.iter().filter(|s| s.event.kind.label() == label).map(|s| s.event.dur_secs * 1e3).sum();
        out.push((name, ratio(total, main_queries)));
    }
    out
}

/// A loaded, not yet started engine with everything the seed decided.
pub struct Prepared {
    /// The builder, tables loaded and generator installed.
    pub builder: CalderaBuilder,
    /// The loaded tables.
    pub loaded: Loaded,
    /// The benchmark's transaction generator (what the paced client draws
    /// from, and the engine's generator except on `htap-mixed`).
    pub generator: RmwGenerator,
    /// Digest of the table contents, the first transactions' keys and the
    /// query rotation.
    pub digest: String,
}

/// Generates and loads a workload's inputs from the seed.
pub fn prepare(workload: Workload, seeds: Seeds, scale: Scale, trace: bool) -> Result<Prepared> {
    let mut builder = Caldera::builder(workload.config(seeds, trace));
    let loaded = data::load(&mut builder, scale, seeds)?;
    let partitions = workload.workers() as u64;
    let rows_per_partition = scale.lineitem_rows / partitions;
    // `htap-mixed` writes to the leading quarter of the table; `oltp-only`
    // keeps the last sixteenth of each partition for remote operations.
    let (local_rows, remote_rows) = match workload {
        Workload::HtapMixed => (rows_per_partition * u64::from(MIXED_WORKING_SET_PCT) / 100, 0),
        Workload::OltpOnly => (rows_per_partition - rows_per_partition / 16, rows_per_partition / 16),
        Workload::OlapCached | Workload::OlapFresh => (rows_per_partition, 0),
    };
    let generator = RmwGenerator {
        table: loaded.lineitem,
        partitions,
        local_rows,
        remote_rows,
        remote_pct: REMOTE_PCT,
        // The OLAP workloads check answers against references computed from
        // the generated data, so their transactions must not change it.
        delta: if matches!(workload, Workload::OlapCached | Workload::OlapFresh) { 0.0 } else { 1.0 },
    };
    if workload == Workload::HtapMixed {
        builder.set_generator(Arc::new(YcsbGenerator::new(YcsbConfig {
            working_set_pct: MIXED_WORKING_SET_PCT,
            ..YcsbConfig::paper_default(loaded.lineitem, scale.lineitem_rows, partitions)
        })));
    } else {
        builder.set_generator(Arc::new(generator.clone()));
    }
    // The digest covers the first transactions of the paced client, whose
    // keys the benchmark draws itself.
    let mut rng = SplitMixRng::new(seeds.keys);
    let keys: Vec<i64> = (0..64).flat_map(|_| generator.keys(PartitionId(0), &mut rng)).collect();
    let digest = data::workload_digest(&loaded, &keys, workload.rotation());
    Ok(Prepared { builder, loaded, generator, digest })
}

/// Runs one workload in this process and reports what it measured.
pub fn run(opts: &DriverOptions) -> Result<DriverReport> {
    let process_start = Instant::now();
    let foreign = ForeignCpu::start();
    let workload = opts.workload;
    let seeds = Seeds::derive(opts.seed);
    let rec = Recorder::new(opts.trace);
    let Prepared { builder, loaded, generator, digest } =
        rec.time("bench.prepare", None, 0, || prepare(workload, seeds, opts.scale, opts.trace))?;
    let caldera = rec.time("engine.start", None, 0, || builder.start())?;
    let mut driver = Driver {
        opts,
        caldera: &caldera,
        rec: &rec,
        loaded,
        generator,
        keys_rng: SplitMixRng::new(seeds.keys),
        process_start,
        notes: Vec::new(),
        check_failures: 0,
    };
    let (phases, oracle) = match workload {
        Workload::OlapCached => driver.run_olap(true)?,
        Workload::OlapFresh => driver.run_olap(false)?,
        Workload::OltpOnly => driver.run_oltp()?,
        Workload::HtapMixed => driver.run_mixed()?,
    };
    let foreign_cpu_frac = foreign.finish();
    let end_to_end = end_to_end(&phases);

    let mut per_layer = Vec::new();
    if opts.trace {
        let engine_spans = caldera.trace_spans();
        per_layer = phase_layers(&phases, workload, &engine_spans);
        per_layer.push(("obs.spans_dropped", caldera.metrics().counter("trace.spans.dropped").unwrap_or(0) as f64));
        per_layer.push(("bench.foreign_cpu_frac", foreign_cpu_frac));
        let engine_trace = caldera.chrome_trace_json();
        per_layer.extend(probes::run(&caldera, &driver.loaded, &rec)?);
        std::fs::create_dir_all(&opts.out_dir)
            .and_then(|()| {
                std::fs::write(opts.out_dir.join(format!("trace_{}.engine.json", workload.name())), engine_trace)
            })
            .and_then(|()| {
                std::fs::write(
                    opts.out_dir.join(format!("trace_{}.json", workload.name())),
                    format!("{}\n", rec.to_json()),
                )
            })
            .map_err(|e| H2Error::Config(format!("cannot write traces to {}: {e}", opts.out_dir.display())))?;
    }

    let generator_txns = phases.generator.map_or(0, |g| g.stats.committed + g.stats.aborted);
    let generator_aborts = phases.generator.map_or(0, |g| g.stats.aborted);
    let attempted = generator_txns + phases.paced.attempted + phases.queries.len() as u64;
    let failed = generator_aborts + phases.paced.failed + driver.check_failures;
    let correct = driver.check_failures == 0;
    let notes = std::mem::take(&mut driver.notes);
    caldera.shutdown();
    Ok(DriverReport {
        workload,
        repeat: opts.repeat,
        end_to_end,
        per_layer,
        attempted,
        failed,
        correct,
        digest,
        foreign_cpu_frac,
        oracle,
        notes,
    })
}
