//! Online cost-model calibration: the placement feedback loop.
//!
//! "The scheduler can combine dynamic run-time information … with static
//! optimizer cost models." The static half lives in [`crate::placement`]; this
//! module supplies the dynamic half. Every analytical dispatch produces a
//! [`PlacementObservation`] — the hints the decision saw, the site that ran,
//! the closed-form prediction and the time the site actually reported — and
//! the [`CostCalibrator`] folds it into an exponentially-weighted regression
//! over the model's linear terms:
//!
//! * **CPU site**: the time model is `overlap(stream, tuple)` with
//!   `stream = bytes / (cores · bw)` and `tuple = rows · ns / cores`. The
//!   site reports both terms in its [`ExecBreakdown`], so each constant is a
//!   one-dimensional regression `y = θ·x` solved per observation and smoothed
//!   exponentially: effective per-core bandwidth and per-tuple nanoseconds.
//! * **GPU site**: the time model is affine in the spec-derived streaming
//!   time, `y = overhead + scale · t_stream(spec, hints)`. The site's
//!   breakdown separates launch overhead from data movement, so the intercept
//!   (dispatch overhead) and slope (bandwidth scale) are each estimated
//!   directly and smoothed.
//!
//! A hand-tuned constant that drifts from what the engines actually report is
//! a systematic mis-placement bug; with this loop it self-corrects within
//! tens of queries, and placement can flip mid-workload when one side's
//! measured behaviour changes.

use crate::placement::{
    estimate_site_secs, gpu_site_stream_feature, OlapTarget, PlacementHints, SiteCapability, CPU_CACHE_LINE_BYTES,
    DEFAULT_GPU_DISPATCH_OVERHEAD_SECS,
};
use h2tap_common::{ExecBreakdown, HASH_ENTRY_BYTES};
use h2tap_gpu_sim::GpuSpec;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// The calibratable constants of the placement cost model. Seeded from
/// configuration, then continuously re-estimated from measured site times.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Aggregate per-tuple CPU processing cost in nanoseconds.
    pub cpu_per_tuple_ns: f64,
    /// Effective sustained per-core CPU memory bandwidth in GB/s.
    pub cpu_core_bandwidth_gbps: f64,
    /// Fixed per-query GPU dispatch cost in seconds.
    pub gpu_dispatch_overhead_secs: f64,
    /// Multiplier on the spec-derived GPU streaming time (1.0 = datasheet).
    pub gpu_bandwidth_scale: f64,
    /// Fixed per-query dispatch cost of the multi-GPU site in seconds.
    /// A separate intercept from the single GPU's: launching on every device
    /// of a shard has its own fixed cost.
    pub multi_gpu_dispatch_overhead_secs: f64,
    /// Multiplier on the multi-GPU site's streaming feature (the critical
    /// device's shard time). Per-site so each device mix converges to its
    /// own effective bandwidth.
    pub multi_gpu_bandwidth_scale: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            cpu_per_tuple_ns: 93.0,
            cpu_core_bandwidth_gbps: 68.0 / 24.0,
            gpu_dispatch_overhead_secs: DEFAULT_GPU_DISPATCH_OVERHEAD_SECS,
            gpu_bandwidth_scale: 1.0,
            multi_gpu_dispatch_overhead_secs: DEFAULT_GPU_DISPATCH_OVERHEAD_SECS,
            multi_gpu_bandwidth_scale: 1.0,
        }
    }
}

impl CostModel {
    /// Returns `hints` with the model's calibratable constants filled in —
    /// the hook `Caldera` uses so every placement decision consults the
    /// *calibrated* model instead of the static configuration seeds.
    #[must_use]
    pub fn apply_to(&self, hints: PlacementHints) -> PlacementHints {
        PlacementHints {
            cpu_per_tuple_ns: self.cpu_per_tuple_ns,
            cpu_core_bandwidth_gbps: self.cpu_core_bandwidth_gbps,
            gpu_dispatch_overhead_secs: self.gpu_dispatch_overhead_secs,
            gpu_bandwidth_scale: self.gpu_bandwidth_scale,
            multi_gpu_dispatch_overhead_secs: self.multi_gpu_dispatch_overhead_secs,
            multi_gpu_bandwidth_scale: self.multi_gpu_bandwidth_scale,
            ..hints
        }
        .sanitized()
    }
}

/// One completed analytical dispatch, as seen by the feedback loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementObservation {
    /// The site that actually executed the query (after any OOM fallback).
    pub site: OlapTarget,
    /// Whether the site was forced (`run_olap_on`) rather than placed.
    /// Forced observations still calibrate the model — they are ground truth
    /// about the site — but they never *came from* the placement heuristic,
    /// so they are reported separately
    /// ([`SiteCalibration::forced_observations`]) and agreement statistics
    /// must not count them.
    pub forced: bool,
    /// The placement hints the dispatch was (or would have been) decided on.
    pub hints: PlacementHints,
    /// The closed-form predicted time for `site`, in seconds.
    pub predicted_secs: f64,
    /// The simulated time the site reported, in seconds.
    pub actual_secs: f64,
    /// The site's time breakdown, when it reports one.
    pub breakdown: Option<ExecBreakdown>,
}

/// Tuning knobs of the calibrator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CalibrationConfig {
    /// Whether observations update the model. Error statistics are tracked
    /// either way, so a disabled calibrator still measures how wrong the
    /// static constants are.
    pub enabled: bool,
    /// EWMA gain for the model terms, in (0, 1]. Higher adapts faster but
    /// tracks noise; 0.25 converges within tens of queries.
    pub gain: f64,
    /// EWMA gain for the error statistics (kept slower than the model so
    /// "steady-state error" means something).
    pub error_gain: f64,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        Self { enabled: true, gain: 0.25, error_gain: 0.1 }
    }
}

/// Per-site prediction-quality statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SiteCalibration {
    /// Which site the row describes.
    pub target: OlapTarget,
    /// Observations recorded for the site (placed and forced).
    pub observations: u64,
    /// How many of those came from forced dispatches (`run_olap_on`) rather
    /// than the placement heuristic — they calibrate the model like any
    /// other observation, but agreement/placement statistics must not count
    /// them as decisions.
    pub forced_observations: u64,
    /// Exponentially-weighted mean of `|predicted - actual| / actual` — the
    /// headline "how well does the model predict this site" number.
    pub mean_rel_error: f64,
    /// Exponentially-weighted mean of `(actual - predicted) / actual`.
    /// Persistently positive means the site keeps running slower than its
    /// calibrated model.
    pub signed_error: f64,
    /// Most recent prediction, in seconds.
    pub last_predicted_secs: f64,
    /// Most recent site-reported time, in seconds.
    pub last_actual_secs: f64,
    /// Valid (finite, positive-time) error samples folded into the EWMAs.
    /// Kept separate from `observations` so a degenerate first observation
    /// cannot consume the EWMA seed slot and dilute later real samples.
    error_samples: u64,
}

impl SiteCalibration {
    fn new(target: OlapTarget) -> Self {
        Self {
            target,
            observations: 0,
            forced_observations: 0,
            mean_rel_error: 0.0,
            signed_error: 0.0,
            last_predicted_secs: 0.0,
            last_actual_secs: 0.0,
            error_samples: 0,
        }
    }

    fn record(&mut self, predicted: f64, actual: f64, forced: bool, gain: f64) {
        self.observations += 1;
        self.forced_observations += u64::from(forced);
        self.last_predicted_secs = predicted;
        self.last_actual_secs = actual;
        if actual <= 0.0 || !predicted.is_finite() || !actual.is_finite() {
            return;
        }
        let rel = (predicted - actual).abs() / actual;
        let signed = (actual - predicted) / actual;
        // Seed the EWMAs with the first *valid* sample so early readings are
        // not dragged toward an arbitrary zero start.
        self.error_samples += 1;
        if self.error_samples == 1 {
            self.mean_rel_error = rel;
            self.signed_error = signed;
        } else {
            self.mean_rel_error += gain * (rel - self.mean_rel_error);
            self.signed_error += gain * (signed - self.signed_error);
        }
    }
}

/// One site's estimated time as seen by a placement decision — a row of the
/// N-way comparison a [`PlacementExplanation`] preserves.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SiteSecsEstimate {
    /// The site the estimate is for.
    pub target: OlapTarget,
    /// Estimated execution time in seconds (`INFINITY` = ineligible, e.g.
    /// the working set does not fit the GPU).
    pub secs: f64,
}

/// Why a dispatch went where it went: the full N-way estimate comparison,
/// the chosen and executed sites, the observed time and the decision's
/// regret against the estimate-oracle (the site the *post-observation*
/// model says was fastest). Produced by [`CostCalibrator::explain_dispatch`]
/// after each query and exposed through `HtapStats::placements`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementExplanation {
    /// The engine's query index for this dispatch.
    pub query: u64,
    /// Every site's estimated time under the current (post-update) model,
    /// in the engine's capability order.
    pub estimates: Vec<SiteSecsEstimate>,
    /// The site placement picked (or the caller forced).
    pub chosen: OlapTarget,
    /// The site that actually ran the query (differs from `chosen` after an
    /// OOM fallback).
    pub executed: OlapTarget,
    /// Whether the caller forced the site rather than letting placement
    /// decide (forced dispatches are excluded from regret accounting — they
    /// are not the heuristic's decisions).
    pub forced: bool,
    /// The simulated time the executing site reported, in seconds.
    pub actual_secs: f64,
    /// `est(executed) - min(est)`: how much slower the model believes the
    /// executed site is than the best available one. Zero when the decision
    /// agrees with the oracle.
    pub regret_secs: f64,
    /// Whether the post-update model would have placed the query elsewhere.
    pub misplaced: bool,
}

impl PlacementExplanation {
    /// The estimate row for `target`.
    pub fn estimate(&self, target: OlapTarget) -> Option<f64> {
        self.estimates.iter().find(|e| e.target == target).map(|e| e.secs)
    }
}

/// Running regret of the placement heuristic against the forced-site oracle
/// (the per-query argmin of the calibrated estimates). Forced dispatches are
/// not counted — they are ground truth for the model, not decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RegretSummary {
    /// Placement decisions accounted (non-forced dispatches).
    pub decisions: u64,
    /// Decisions where the post-update model prefers a different site.
    pub misplacements: u64,
    /// Summed `regret_secs` over all counted decisions.
    pub total_regret_secs: f64,
}

impl RegretSummary {
    /// Mean per-decision regret in seconds (`None` before any decision).
    pub fn mean_regret_secs(&self) -> Option<f64> {
        (self.decisions > 0).then(|| self.total_regret_secs / self.decisions as f64)
    }

    fn record(&mut self, explanation: &PlacementExplanation) {
        if explanation.forced {
            return;
        }
        self.decisions += 1;
        self.misplacements += u64::from(explanation.misplaced);
        if explanation.regret_secs.is_finite() {
            self.total_regret_secs += explanation.regret_secs;
        }
    }
}

/// Snapshot of the feedback loop's state, exposed through `HtapStats`.
/// The `Default` value (no sites, zero observations) is only a placeholder
/// for empty statistics; a live engine always reports both sites.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CalibrationReport {
    /// Whether observations were updating the model.
    pub enabled: bool,
    /// Observations folded in so far (all sites).
    pub observations: u64,
    /// The current calibrated model.
    pub model: CostModel,
    /// Per-site prediction-quality rows, GPU first.
    pub sites: Vec<SiteCalibration>,
    /// Running placement regret vs the estimate-oracle.
    pub regret: RegretSummary,
}

impl CalibrationReport {
    /// The row for `target`.
    pub fn site(&self, target: OlapTarget) -> Option<&SiteCalibration> {
        self.sites.iter().find(|s| s.target == target)
    }
}

/// The online estimator: holds the current [`CostModel`] and re-fits its
/// terms from every [`PlacementObservation`].
#[derive(Debug, Clone)]
pub struct CostCalibrator {
    cfg: CalibrationConfig,
    model: CostModel,
    gpu: SiteCalibration,
    cpu: SiteCalibration,
    multi_gpu: SiteCalibration,
    regret: RegretSummary,
    recent: VecDeque<PlacementExplanation>,
}

/// How many [`PlacementExplanation`]s the calibrator retains for
/// `HtapStats::placements`. Bounded so a long workload cannot grow the
/// engine's statistics without limit.
pub const RECENT_PLACEMENTS_CAP: usize = 64;

/// Bytes the CPU model charges to the bandwidth term for one query — the
/// *hint-side* (pre-execution) bytes, deliberately: placement only ever sees
/// hint features, so inverting against them makes the calibrated constant an
/// **effective** bandwidth that absorbs whatever the hints cannot express
/// (zonemap skipping, join selectivity). Predictions then match what the
/// site actually reports for the observed workload class; the cost is that
/// the constant tracks the recent class rather than physical hardware, which
/// is why samples are trust-region-clamped below and why per-query-class
/// calibration is the recorded ROADMAP follow-on.
fn cpu_stream_bytes(hints: &PlacementHints) -> f64 {
    let cache_waste = (CPU_CACHE_LINE_BYTES / HASH_ENTRY_BYTES) as f64;
    hints.bytes_to_scan as f64 + hints.random_access_bytes as f64 * cache_waste
}

/// Largest multiplicative move a single observation may propose. EWMA steps
/// toward `sample`, but a workload whose effective constants differ wildly
/// from the model's (a 97%-zonemap-skipped scan implies a ~30x "effective"
/// bandwidth) must bend the model gradually — sustained evidence still gets
/// there, one outlier cannot teleport placement.
const MAX_SAMPLE_STEP: f64 = 4.0;

/// EWMA step toward `sample`, ignoring non-finite or out-of-range samples so
/// one degenerate observation (zero-byte breakdown, infinite ratio) cannot
/// wreck the model, and clamping each sample into a trust region of
/// [`MAX_SAMPLE_STEP`] around the current estimate.
fn ewma_toward(current: &mut f64, sample: f64, gain: f64, lo: f64, hi: f64) {
    if sample.is_finite() && sample >= lo && sample <= hi {
        let stepped =
            if *current > 0.0 { sample.clamp(*current / MAX_SAMPLE_STEP, *current * MAX_SAMPLE_STEP) } else { sample };
        *current += gain * (stepped - *current);
    }
}

impl CostCalibrator {
    /// Creates a calibrator seeded with `model`.
    pub fn new(cfg: CalibrationConfig, model: CostModel) -> Self {
        Self {
            cfg,
            model,
            gpu: SiteCalibration::new(OlapTarget::Gpu),
            cpu: SiteCalibration::new(OlapTarget::Cpu),
            multi_gpu: SiteCalibration::new(OlapTarget::MultiGpu),
            regret: RegretSummary::default(),
            recent: VecDeque::new(),
        }
    }

    /// The current calibrated model.
    pub fn model(&self) -> CostModel {
        self.model
    }

    /// Folds one completed dispatch into the error statistics and (when
    /// enabled) the model terms, for the classic CPU + single-GPU pair.
    /// `gpu` is the device the GPU-side streaming feature is computed
    /// against — the same spec placement used. Engines with more sites call
    /// [`CostCalibrator::observe_sites`] with their enumerated capabilities.
    pub fn observe(&mut self, gpu: &GpuSpec, obs: &PlacementObservation) {
        let sites =
            [SiteCapability::single_gpu(gpu, &obs.hints), SiteCapability::Cpu { cores: obs.hints.available_cpu_cores }];
        self.observe_sites(&sites, obs);
    }

    /// Folds one completed dispatch into the error statistics and (when
    /// enabled) the model terms. `sites` are the engine's enumerated
    /// capabilities — the GPU-family streaming feature of the observed site
    /// (critical device's shard time) is computed from them, which is what
    /// lets the bandwidth scale converge **per device mix**.
    pub fn observe_sites(&mut self, sites: &[SiteCapability], obs: &PlacementObservation) {
        let row = match obs.site {
            OlapTarget::Gpu => &mut self.gpu,
            OlapTarget::Cpu => &mut self.cpu,
            OlapTarget::MultiGpu => &mut self.multi_gpu,
        };
        row.record(obs.predicted_secs, obs.actual_secs, obs.forced, self.cfg.error_gain);
        if !self.cfg.enabled || !obs.actual_secs.is_finite() || obs.actual_secs <= 0.0 {
            return;
        }
        let hints = obs.hints.sanitized();
        let gain = self.cfg.gain;
        match obs.site {
            OlapTarget::Cpu => {
                let Some(b) = obs.breakdown else { return };
                let cores = f64::from(hints.available_cpu_cores.max(1));
                // tuple = rows · ns / cores  ⇒  ns = tuple · cores / rows.
                if hints.rows > 0 && b.compute_secs > 0.0 {
                    let ns = b.compute_secs * 1e9 * cores / hints.rows as f64;
                    ewma_toward(&mut self.model.cpu_per_tuple_ns, ns, gain, 0.0, 1e6);
                }
                // stream = bytes / (cores · bw · 1e9)  ⇒  bw = bytes / (stream · cores · 1e9).
                let bytes = cpu_stream_bytes(&hints);
                if bytes > 0.0 && b.stream_secs > 0.0 {
                    let bw = bytes / (b.stream_secs * cores * 1e9);
                    ewma_toward(&mut self.model.cpu_core_bandwidth_gbps, bw, gain, 1e-3, 1e4);
                }
            }
            OlapTarget::Gpu | OlapTarget::MultiGpu => {
                // The streaming feature comes from the observed site's own
                // device list; without it no bandwidth term is attributable.
                let Some(SiteCapability::Gpu { devices, .. }) = sites.iter().find(|s| s.target() == obs.site) else {
                    return;
                };
                let stream_feature = gpu_site_stream_feature(devices, &hints);
                let (mut overhead, mut scale) = match obs.site {
                    OlapTarget::Gpu => (self.model.gpu_dispatch_overhead_secs, self.model.gpu_bandwidth_scale),
                    _ => (self.model.multi_gpu_dispatch_overhead_secs, self.model.multi_gpu_bandwidth_scale),
                };
                match obs.breakdown {
                    Some(b) => {
                        ewma_toward(&mut overhead, b.overhead_secs, gain, 0.0, 1.0);
                        if stream_feature > 1e-12 && b.stream_secs > 0.0 {
                            let sample = b.stream_secs / stream_feature;
                            ewma_toward(&mut scale, sample, gain, 1e-2, 1e2);
                        }
                    }
                    None => {
                        // Without a breakdown only the intercept is
                        // attributable: whatever the bandwidth terms cannot
                        // explain is charged to the dispatch overhead.
                        let residual = (obs.actual_secs - scale * stream_feature).max(0.0);
                        ewma_toward(&mut overhead, residual, gain, 0.0, 1.0);
                    }
                }
                match obs.site {
                    OlapTarget::Gpu => {
                        self.model.gpu_dispatch_overhead_secs = overhead;
                        self.model.gpu_bandwidth_scale = scale;
                    }
                    _ => {
                        self.model.multi_gpu_dispatch_overhead_secs = overhead;
                        self.model.multi_gpu_bandwidth_scale = scale;
                    }
                }
            }
        }
    }

    /// Explains one completed dispatch against the *post-observation* model:
    /// re-estimates every capability with the freshly calibrated constants,
    /// derives the decision's regret versus the per-query oracle (the argmin
    /// of those estimates) and folds it into the running [`RegretSummary`].
    /// Call after [`CostCalibrator::observe_sites`] for the same dispatch.
    /// The explanation is retained (ring of [`RECENT_PLACEMENTS_CAP`]) for
    /// `HtapStats::placements`.
    #[expect(clippy::expect_used, reason = "back() directly after push_back on a non-empty deque cannot be None.")]
    pub fn explain_dispatch(
        &mut self,
        sites: &[SiteCapability],
        chosen: OlapTarget,
        obs: &PlacementObservation,
        query: u64,
    ) -> &PlacementExplanation {
        let hints = self.model.apply_to(obs.hints);
        let estimates: Vec<SiteSecsEstimate> = sites
            .iter()
            .map(|site| SiteSecsEstimate { target: site.target(), secs: estimate_site_secs(site, &hints) })
            .collect();
        let best = estimates.iter().map(|e| e.secs).filter(|s| s.is_finite()).fold(f64::INFINITY, f64::min);
        let executed_secs = estimates.iter().find(|e| e.target == obs.site).map(|e| e.secs).unwrap_or(f64::INFINITY);
        let regret_secs =
            if best.is_finite() && executed_secs.is_finite() { (executed_secs - best).max(0.0) } else { 0.0 };
        let explanation = PlacementExplanation {
            query,
            estimates,
            chosen,
            executed: obs.site,
            forced: obs.forced,
            actual_secs: obs.actual_secs,
            regret_secs,
            misplaced: regret_secs > 0.0,
        };
        self.regret.record(&explanation);
        if self.recent.len() == RECENT_PLACEMENTS_CAP {
            self.recent.pop_front();
        }
        self.recent.push_back(explanation);
        self.recent.back().expect("just pushed")
    }

    /// The retained placement explanations, oldest first (bounded at
    /// [`RECENT_PLACEMENTS_CAP`]).
    pub fn recent_placements(&self) -> impl Iterator<Item = &PlacementExplanation> {
        self.recent.iter()
    }

    /// A snapshot of the current state for statistics reporting.
    pub fn report(&self) -> CalibrationReport {
        CalibrationReport {
            enabled: self.cfg.enabled,
            observations: self.gpu.observations + self.cpu.observations + self.multi_gpu.observations,
            model: self.model,
            sites: vec![self.gpu, self.cpu, self.multi_gpu],
            regret: self.regret,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{cpu_term_secs, gpu_site_stream_feature, GpuDeviceCapability};

    /// Emulates a CPU site whose true constants differ from the model seeds:
    /// builds the observation a dispatch over `rows`/`bytes` would produce.
    fn cpu_observation(model: &CostModel, rows: u64, bytes: u64, cores: u32) -> PlacementObservation {
        const TRUE_NS: f64 = 93.0;
        const TRUE_BW: f64 = 68.0 / 24.0;
        let hints = model.apply_to(PlacementHints {
            bytes_to_scan: bytes,
            rows,
            available_cpu_cores: cores,
            ..PlacementHints::default()
        });
        let stream = bytes as f64 / (f64::from(cores) * TRUE_BW * 1e9);
        let tuple = rows as f64 * TRUE_NS * 1e-9 / f64::from(cores);
        let actual = crate::placement::overlap_secs(stream, tuple);
        let (pred_stream, pred_tuple) = cpu_term_secs(&hints);
        PlacementObservation {
            site: OlapTarget::Cpu,
            forced: false,
            hints,
            predicted_secs: crate::placement::overlap_secs(pred_stream, pred_tuple),
            actual_secs: actual,
            breakdown: Some(ExecBreakdown::new(stream, tuple, 0.0)),
        }
    }

    #[test]
    fn cpu_terms_recalibrate_from_wrong_seeds() {
        // Per-tuple cost seeded 2x too high, bandwidth 2x too low.
        let seed = CostModel { cpu_per_tuple_ns: 186.0, cpu_core_bandwidth_gbps: 68.0 / 48.0, ..CostModel::default() };
        let mut cal = CostCalibrator::new(CalibrationConfig::default(), seed);
        let gpu = GpuSpec::gtx_980();
        for i in 0..40u64 {
            let rows = 10_000 + (i % 5) * 20_000;
            let obs = cpu_observation(&cal.model(), rows, rows * 16, 24);
            cal.observe(&gpu, &obs);
        }
        let m = cal.model();
        assert!((m.cpu_per_tuple_ns - 93.0).abs() / 93.0 < 0.02, "per-tuple {}", m.cpu_per_tuple_ns);
        assert!(
            (m.cpu_core_bandwidth_gbps - 68.0 / 24.0).abs() / (68.0 / 24.0) < 0.02,
            "bw {}",
            m.cpu_core_bandwidth_gbps
        );
        // Steady state: the model predicts the site within a few percent.
        let report = cal.report();
        assert!(report.site(OlapTarget::Cpu).unwrap().mean_rel_error < 0.10, "{report:?}");
    }

    #[test]
    fn gpu_overhead_and_scale_recalibrate() {
        // Overhead seeded 5x too low, true device 20% slower than datasheet.
        let seed = CostModel { gpu_dispatch_overhead_secs: 6e-6, ..CostModel::default() };
        let mut cal = CostCalibrator::new(CalibrationConfig::default(), seed);
        let gpu = GpuSpec::gtx_980();
        const TRUE_OVERHEAD: f64 = 32e-6;
        const TRUE_SCALE: f64 = 1.2;
        for i in 0..40u64 {
            let bytes = (1 + i % 4) * (8 << 20);
            let hints = cal.model().apply_to(PlacementHints {
                bytes_to_scan: bytes,
                available_cpu_cores: 24,
                ..PlacementHints::default()
            });
            let device = GpuDeviceCapability {
                spec: gpu.clone(),
                shard_fraction: 1.0,
                resident_fraction: 0.0,
                free_bytes: None,
            };
            let stream_feature = gpu_site_stream_feature(&[device], &hints);
            let actual_stream = TRUE_SCALE * stream_feature;
            let obs = PlacementObservation {
                site: OlapTarget::Gpu,
                forced: false,
                hints,
                predicted_secs: hints.gpu_dispatch_overhead_secs + hints.gpu_bandwidth_scale * stream_feature,
                actual_secs: TRUE_OVERHEAD + actual_stream,
                breakdown: Some(ExecBreakdown::new(actual_stream, 0.0, TRUE_OVERHEAD)),
            };
            cal.observe(&gpu, &obs);
        }
        let m = cal.model();
        assert!((m.gpu_dispatch_overhead_secs - TRUE_OVERHEAD).abs() / TRUE_OVERHEAD < 0.02, "{m:?}");
        assert!((m.gpu_bandwidth_scale - TRUE_SCALE).abs() / TRUE_SCALE < 0.02, "{m:?}");
        assert!(cal.report().site(OlapTarget::Gpu).unwrap().mean_rel_error < 0.10);
    }

    #[test]
    fn multi_gpu_terms_recalibrate_independently_of_the_single_gpu() {
        // Multi-GPU bandwidth scale seeded 3x too high; the single GPU's
        // terms must not move from multi-GPU observations (per-site terms).
        let seed = CostModel { multi_gpu_bandwidth_scale: 3.0, ..CostModel::default() };
        let mut cal = CostCalibrator::new(CalibrationConfig::default(), seed);
        let device =
            |spec: GpuSpec| GpuDeviceCapability { spec, shard_fraction: 0.5, resident_fraction: 1.0, free_bytes: None };
        let sites = [
            SiteCapability::single_gpu(&GpuSpec::gtx_980(), &PlacementHints::default()),
            SiteCapability::Cpu { cores: 24 },
            SiteCapability::Gpu {
                target: OlapTarget::MultiGpu,
                devices: vec![device(GpuSpec::gtx_980()), device(GpuSpec::gtx_980())],
            },
        ];
        const TRUE_SCALE: f64 = 1.1;
        const TRUE_OVERHEAD: f64 = 40e-6;
        for i in 0..40u64 {
            let bytes = (1 + i % 4) * (8 << 20);
            let hints = cal.model().apply_to(PlacementHints {
                bytes_to_scan: bytes,
                gpu_resident_fraction: 1.0,
                available_cpu_cores: 24,
                ..PlacementHints::default()
            });
            let feature = gpu_site_stream_feature(
                match &sites[2] {
                    SiteCapability::Gpu { devices, .. } => devices,
                    _ => unreachable!(),
                },
                &hints,
            );
            let actual_stream = TRUE_SCALE * feature;
            let obs = PlacementObservation {
                site: OlapTarget::MultiGpu,
                forced: true,
                hints,
                predicted_secs: hints.multi_gpu_dispatch_overhead_secs + hints.multi_gpu_bandwidth_scale * feature,
                actual_secs: TRUE_OVERHEAD + actual_stream,
                breakdown: Some(ExecBreakdown::new(actual_stream, 0.0, TRUE_OVERHEAD)),
            };
            cal.observe_sites(&sites, &obs);
        }
        let m = cal.model();
        assert!((m.multi_gpu_bandwidth_scale - TRUE_SCALE).abs() / TRUE_SCALE < 0.05, "{m:?}");
        assert!((m.multi_gpu_dispatch_overhead_secs - TRUE_OVERHEAD).abs() / TRUE_OVERHEAD < 0.05, "{m:?}");
        // The single-GPU terms never moved.
        assert_eq!(m.gpu_bandwidth_scale, seed.gpu_bandwidth_scale);
        assert_eq!(m.gpu_dispatch_overhead_secs, seed.gpu_dispatch_overhead_secs);
        let report = cal.report();
        let row = report.site(OlapTarget::MultiGpu).unwrap();
        assert_eq!(row.observations, 40);
        assert_eq!(row.forced_observations, 40);
        assert!(row.mean_rel_error.is_finite());
        // The report now carries three rows: GPU, CPU, multi-GPU.
        assert_eq!(report.sites.len(), 3);
        assert_eq!(report.sites[0].target, OlapTarget::Gpu);
        assert_eq!(report.sites[1].target, OlapTarget::Cpu);
        assert_eq!(report.sites[2].target, OlapTarget::MultiGpu);
    }

    #[test]
    fn disabled_calibration_tracks_error_but_freezes_the_model() {
        let seed = CostModel { cpu_per_tuple_ns: 186.0, ..CostModel::default() };
        let cfg = CalibrationConfig { enabled: false, ..CalibrationConfig::default() };
        let mut cal = CostCalibrator::new(cfg, seed);
        let gpu = GpuSpec::gtx_980();
        for _ in 0..10 {
            let obs = cpu_observation(&cal.model(), 1_000_000, 16_000_000, 24);
            cal.observe(&gpu, &obs);
        }
        assert_eq!(cal.model(), seed, "disabled calibration must not move the model");
        let report = cal.report();
        let cpu = report.site(OlapTarget::Cpu).unwrap();
        assert_eq!(cpu.observations, 10);
        assert!(cpu.mean_rel_error > 0.3, "2x-wrong per-tuple cost must show up as error: {cpu:?}");
    }

    #[test]
    fn one_outlier_sample_moves_the_model_only_within_the_trust_region() {
        // A 97%-zonemap-skipped scan reports a stream time implying a ~30x
        // "effective" bandwidth. One such observation may bend the model by
        // at most gain * (MAX_SAMPLE_STEP - 1); sustained evidence still
        // converges, a single outlier cannot teleport placement.
        let mut cal = CostCalibrator::new(CalibrationConfig::default(), CostModel::default());
        let before = cal.model().cpu_core_bandwidth_gbps;
        let gpu = GpuSpec::gtx_980();
        let hints = cal.model().apply_to(PlacementHints {
            bytes_to_scan: 150_000 * 28,
            rows: 150_000,
            available_cpu_cores: 24,
            ..PlacementHints::default()
        });
        let implied_stream = 150_000.0 * 28.0 / (24.0 * before * 1e9);
        let obs = PlacementObservation {
            site: OlapTarget::Cpu,
            forced: true,
            hints,
            predicted_secs: implied_stream,
            actual_secs: implied_stream / 30.0,
            // Stream time 30x shorter than the hint bytes imply.
            breakdown: Some(ExecBreakdown::new(implied_stream / 30.0, 1e-4, 0.0)),
        };
        cal.observe(&gpu, &obs);
        let after = cal.model().cpu_core_bandwidth_gbps;
        assert!(after > before, "the sample must still pull the estimate up");
        assert!(
            after <= before * (1.0 + 0.25 * (MAX_SAMPLE_STEP - 1.0)) + 1e-9,
            "one observation moved bandwidth {before} -> {after}, beyond the trust region"
        );
        // Sustained identical evidence keeps converging toward the sample.
        for _ in 0..40 {
            cal.observe(&gpu, &obs);
        }
        assert!(cal.model().cpu_core_bandwidth_gbps > before * 10.0, "sustained evidence must still get there");
    }

    #[test]
    fn degenerate_first_observation_does_not_consume_the_ewma_seed() {
        let mut cal = CostCalibrator::new(CalibrationConfig::default(), CostModel::default());
        let gpu = GpuSpec::gtx_980();
        let hints = PlacementHints { available_cpu_cores: 4, ..PlacementHints::default() };
        // First observation is degenerate (zero actual time): no error sample.
        cal.observe(
            &gpu,
            &PlacementObservation {
                site: OlapTarget::Cpu,
                forced: false,
                hints,
                predicted_secs: 1.0,
                actual_secs: 0.0,
                breakdown: None,
            },
        );
        // The first *valid* sample must seed the EWMA outright, not be
        // diluted toward the artificial 0.0 start.
        cal.observe(
            &gpu,
            &PlacementObservation {
                site: OlapTarget::Cpu,
                forced: false,
                hints,
                predicted_secs: 2.0,
                actual_secs: 1.0,
                breakdown: None,
            },
        );
        let cpu = cal.report();
        let cpu = cpu.site(OlapTarget::Cpu).unwrap();
        assert_eq!(cpu.observations, 2);
        assert_eq!(cpu.mean_rel_error, 1.0, "a 2x-wrong prediction must read as 100% error, not 10%");
    }

    #[test]
    fn forced_observations_are_counted_separately() {
        let mut cal = CostCalibrator::new(CalibrationConfig::default(), CostModel::default());
        let gpu = GpuSpec::gtx_980();
        for forced in [true, true, false] {
            let mut obs = cpu_observation(&cal.model(), 10_000, 160_000, 8);
            obs.forced = forced;
            cal.observe(&gpu, &obs);
        }
        let report = cal.report();
        let cpu = report.site(OlapTarget::Cpu).unwrap();
        assert_eq!(cpu.observations, 3);
        assert_eq!(cpu.forced_observations, 2);
    }

    #[test]
    fn degenerate_observations_cannot_wreck_the_model() {
        let mut cal = CostCalibrator::new(CalibrationConfig::default(), CostModel::default());
        let before = cal.model();
        let gpu = GpuSpec::gtx_980();
        let hints = PlacementHints { bytes_to_scan: 0, rows: 0, available_cpu_cores: 4, ..PlacementHints::default() };
        for actual in [f64::NAN, 0.0, -1.0] {
            cal.observe(
                &gpu,
                &PlacementObservation {
                    site: OlapTarget::Cpu,
                    forced: true,
                    hints,
                    predicted_secs: f64::NAN,
                    actual_secs: actual,
                    breakdown: Some(ExecBreakdown::new(f64::NAN, f64::INFINITY, -1.0)),
                },
            );
        }
        assert_eq!(cal.model(), before);
        assert!(cal.report().site(OlapTarget::Cpu).unwrap().mean_rel_error.is_finite());
    }

    #[test]
    fn explain_dispatch_computes_estimates_regret_and_misplacement() {
        let mut cal = CostCalibrator::new(CalibrationConfig::default(), CostModel::default());
        let gpu = GpuSpec::gtx_980();
        let sites = [SiteCapability::single_gpu(&gpu, &PlacementHints::default()), SiteCapability::Cpu { cores: 24 }];
        // A tiny scan: dispatch overhead dominates, the CPU wins the
        // estimate comparison; executing on the GPU is a misplacement.
        let hints = cal.model().apply_to(PlacementHints {
            bytes_to_scan: 4096,
            rows: 128,
            available_cpu_cores: 24,
            ..PlacementHints::default()
        });
        let obs = PlacementObservation {
            site: OlapTarget::Gpu,
            forced: false,
            hints,
            predicted_secs: 1e-5,
            actual_secs: 1e-5,
            breakdown: None,
        };
        let e = cal.explain_dispatch(&sites, OlapTarget::Gpu, &obs, 3).clone();
        assert_eq!(e.query, 3);
        assert_eq!(e.estimates.len(), 2);
        assert_eq!(e.chosen, OlapTarget::Gpu);
        assert_eq!(e.executed, OlapTarget::Gpu);
        let est_gpu = e.estimate(OlapTarget::Gpu).unwrap();
        let est_cpu = e.estimate(OlapTarget::Cpu).unwrap();
        assert!(est_cpu < est_gpu, "tiny scan: CPU beats GPU overhead ({est_cpu} vs {est_gpu})");
        assert!(e.misplaced);
        assert!((e.regret_secs - (est_gpu - est_cpu)).abs() < 1e-12);

        // A decision that agrees with the oracle has zero regret.
        let obs_cpu = PlacementObservation { site: OlapTarget::Cpu, ..obs };
        let e2 = cal.explain_dispatch(&sites, OlapTarget::Cpu, &obs_cpu, 4).clone();
        assert!(!e2.misplaced);
        assert_eq!(e2.regret_secs, 0.0);

        let report = cal.report();
        assert_eq!(report.regret.decisions, 2);
        assert_eq!(report.regret.misplacements, 1);
        assert!(report.regret.total_regret_secs > 0.0);
        assert_eq!(report.regret.mean_regret_secs().unwrap(), report.regret.total_regret_secs / 2.0);
        assert_eq!(cal.recent_placements().count(), 2);
    }

    #[test]
    fn forced_dispatches_are_retained_but_not_counted_as_decisions() {
        let mut cal = CostCalibrator::new(CalibrationConfig::default(), CostModel::default());
        let gpu = GpuSpec::gtx_980();
        let sites = [SiteCapability::single_gpu(&gpu, &PlacementHints::default()), SiteCapability::Cpu { cores: 24 }];
        let hints = PlacementHints { bytes_to_scan: 4096, available_cpu_cores: 24, ..PlacementHints::default() };
        let obs = PlacementObservation {
            site: OlapTarget::Gpu,
            forced: true,
            hints,
            predicted_secs: 1e-5,
            actual_secs: 1e-5,
            breakdown: None,
        };
        let e = cal.explain_dispatch(&sites, OlapTarget::Gpu, &obs, 0).clone();
        assert!(e.forced);
        let report = cal.report();
        assert_eq!(report.regret.decisions, 0, "forced dispatches are not heuristic decisions");
        assert_eq!(report.regret, RegretSummary::default());
        assert_eq!(cal.recent_placements().count(), 1, "but the explanation is still retained");
        assert!(report.regret.mean_regret_secs().is_none());
    }

    #[test]
    fn recent_placements_are_bounded() {
        let mut cal = CostCalibrator::new(CalibrationConfig::default(), CostModel::default());
        let sites = [SiteCapability::Cpu { cores: 8 }];
        let hints = PlacementHints { bytes_to_scan: 1 << 20, available_cpu_cores: 8, ..PlacementHints::default() };
        for q in 0..(RECENT_PLACEMENTS_CAP as u64 + 10) {
            let obs = PlacementObservation {
                site: OlapTarget::Cpu,
                forced: false,
                hints,
                predicted_secs: 1e-4,
                actual_secs: 1e-4,
                breakdown: None,
            };
            cal.explain_dispatch(&sites, OlapTarget::Cpu, &obs, q);
        }
        assert_eq!(cal.recent_placements().count(), RECENT_PLACEMENTS_CAP);
        // Oldest explanations were evicted: the first retained query is 10.
        assert_eq!(cal.recent_placements().next().unwrap().query, 10);
        assert_eq!(cal.report().regret.decisions, RECENT_PLACEMENTS_CAP as u64 + 10);
    }

    #[test]
    fn apply_to_fills_the_model_constants() {
        let model = CostModel {
            cpu_per_tuple_ns: 50.0,
            cpu_core_bandwidth_gbps: 4.0,
            gpu_dispatch_overhead_secs: 1e-5,
            gpu_bandwidth_scale: 1.5,
            multi_gpu_dispatch_overhead_secs: 2e-5,
            multi_gpu_bandwidth_scale: 0.8,
        };
        let hints = model.apply_to(PlacementHints { bytes_to_scan: 100, ..PlacementHints::default() });
        assert_eq!(hints.cpu_per_tuple_ns, 50.0);
        assert_eq!(hints.cpu_core_bandwidth_gbps, 4.0);
        assert_eq!(hints.gpu_dispatch_overhead_secs, 1e-5);
        assert_eq!(hints.gpu_bandwidth_scale, 1.5);
        assert_eq!(hints.multi_gpu_dispatch_overhead_secs, 2e-5);
        assert_eq!(hints.multi_gpu_bandwidth_scale, 0.8);
        assert_eq!(hints.bytes_to_scan, 100);
    }
}
