//! Per-site health tracking: a circuit breaker between placement and the
//! execution sites.
//!
//! Every dispatch outcome feeds the target site's [`SiteHealth`]. A site
//! whose windowed error rate crosses a fixed threshold — or that
//! reports a *persistent* fault such as permanent device loss — trips into
//! [`SiteHealthState::Quarantined`]: placement stops considering it, so the
//! argmin routes around the sick site and the calibrator never learns from
//! poisoned observations. After a fixed number of placement consults
//! the breaker moves to [`SiteHealthState::HalfOpen`] and lets a bounded
//! number of probe queries through; enough consecutive probe successes
//! re-admit the site, any probe failure re-quarantines it.
//!
//! State transitions are driven by dispatch events only (no wall-clock
//! timers), so the breaker's behaviour is deterministic under a seeded
//! [`FaultPlan`](h2tap_gpu_sim::FaultPlan).

use parking_lot::Mutex;

/// Sliding window (in dispatch outcomes) the error rate is computed over.
const WINDOW: usize = 16;
/// Error rate in `[0, 1]` over the window that trips the breaker.
const ERROR_THRESHOLD: f64 = 0.5;
/// Minimum outcomes in the window before the rate is meaningful.
const MIN_OBSERVATIONS: usize = 4;
/// Placement consults a quarantined site sits out before it is allowed
/// half-open probes.
const QUARANTINE_BACKOFF: u64 = 8;
/// Consecutive half-open probe successes required to close the breaker, and
/// the number of probes that may run at once.
const PROBE_BUDGET: u32 = 2;

/// The breaker's position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SiteHealthState {
    /// Healthy: placement considers the site normally.
    #[default]
    Closed,
    /// Tripped: placement excludes the site.
    Quarantined,
    /// Probation: a bounded number of probe queries may run.
    HalfOpen,
}

impl SiteHealthState {
    /// Stable lower-case label (metric values, dashboard rows).
    pub fn name(self) -> &'static str {
        match self {
            SiteHealthState::Closed => "closed",
            SiteHealthState::Quarantined => "quarantined",
            SiteHealthState::HalfOpen => "half_open",
        }
    }
}

/// Point-in-time health counters of one site.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SiteHealthStats {
    /// Current breaker position.
    pub state: SiteHealthState,
    /// Successful dispatches recorded.
    pub successes: u64,
    /// Failed dispatches recorded (transient and persistent).
    pub failures: u64,
    /// Failures whose fault was persistent (e.g. device loss).
    pub persistent_failures: u64,
    /// Times the breaker tripped into quarantine.
    pub quarantines: u64,
    /// Half-open probe queries admitted.
    pub probes: u64,
    /// Times a quarantined breaker sat out its backoff and reopened
    /// half-open.
    pub reopened: u64,
    /// Times enough probe successes closed a half-open breaker.
    pub readmissions: u64,
    /// Error rate over the current window (0 when the window is empty).
    pub window_error_rate: f64,
}

#[derive(Debug, Default)]
struct HealthInner {
    state: SiteHealthState,
    /// Ring of recent outcomes (`true` = failure), newest overwrites
    /// oldest once `filled == WINDOW`.
    window: [bool; WINDOW],
    cursor: usize,
    filled: usize,
    /// Placement consults seen while quarantined (drives the backoff).
    skips: u64,
    /// Consecutive successes while half-open.
    probe_successes: u32,
    /// Probe queries currently running (chosen but no outcome yet).
    outstanding_probes: u32,
    successes: u64,
    failures: u64,
    persistent_failures: u64,
    quarantines: u64,
    probes: u64,
    reopened: u64,
    readmissions: u64,
}

/// A per-site circuit breaker, closed by default. `&self`-concurrent
/// (internal mutex); one lives in every `SiteSlot`.
#[derive(Debug, Default)]
pub struct SiteHealth {
    inner: Mutex<HealthInner>,
}

/// What a placement consult learned about the site, plus whether the
/// breaker changed state during the consult (for span emission).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admissibility {
    /// Whether placement may consider the site right now.
    pub admissible: bool,
    /// `true` when this consult moved the breaker Quarantined → HalfOpen.
    pub reopened: bool,
}

impl SiteHealth {
    /// Consulted by placement once per dispatch: is the site currently a
    /// legitimate argmin candidate? Quarantined sites tick their backoff
    /// here and eventually move to half-open; a half-open site is a
    /// candidate while it has probe budget left (the probe itself is only
    /// consumed by [`SiteHealth::note_probe`] when placement picks it).
    pub fn consult(&self) -> Admissibility {
        let mut inner = self.inner.lock();
        match inner.state {
            SiteHealthState::Closed => Admissibility { admissible: true, reopened: false },
            SiteHealthState::Quarantined => {
                inner.skips += 1;
                if inner.skips >= QUARANTINE_BACKOFF {
                    inner.state = SiteHealthState::HalfOpen;
                    inner.probe_successes = 0;
                    inner.outstanding_probes = 0;
                    inner.reopened += 1;
                    Admissibility { admissible: true, reopened: true }
                } else {
                    Admissibility { admissible: false, reopened: false }
                }
            }
            SiteHealthState::HalfOpen => {
                Admissibility { admissible: inner.outstanding_probes < PROBE_BUDGET, reopened: false }
            }
        }
    }

    /// Read-only admissibility (fallback candidate filtering): no backoff
    /// tick, no state transition.
    pub fn is_admissible(&self) -> bool {
        let inner = self.inner.lock();
        match inner.state {
            SiteHealthState::Closed => true,
            SiteHealthState::Quarantined => false,
            SiteHealthState::HalfOpen => inner.outstanding_probes < PROBE_BUDGET,
        }
    }

    /// Called when placement actually chooses this site while half-open:
    /// one probe slot is consumed until the dispatch's outcome lands.
    pub fn note_probe(&self) {
        let mut inner = self.inner.lock();
        if inner.state == SiteHealthState::HalfOpen {
            inner.outstanding_probes += 1;
            inner.probes += 1;
        }
    }

    /// Records a successful dispatch. Returns `true` when this success
    /// closed a half-open breaker (quarantine lifted).
    pub fn record_success(&self) -> bool {
        let mut inner = self.inner.lock();
        inner.successes += 1;
        Self::push_window(&mut inner, false);
        if inner.state == SiteHealthState::HalfOpen {
            inner.outstanding_probes = inner.outstanding_probes.saturating_sub(1);
            inner.probe_successes += 1;
            if inner.probe_successes >= PROBE_BUDGET {
                inner.state = SiteHealthState::Closed;
                inner.skips = 0;
                inner.outstanding_probes = 0;
                // A re-admitted site starts with a clean slate: the faults
                // that tripped the breaker are history, not evidence.
                inner.window.iter_mut().for_each(|f| *f = false);
                inner.filled = 0;
                inner.cursor = 0;
                inner.readmissions += 1;
                return true;
            }
        }
        false
    }

    /// Records a failed dispatch (`persistent` for faults that cannot heal,
    /// e.g. device loss). Returns `true` when this failure tripped the
    /// breaker into quarantine.
    pub fn record_failure(&self, persistent: bool) -> bool {
        let mut inner = self.inner.lock();
        inner.failures += 1;
        if persistent {
            inner.persistent_failures += 1;
        }
        Self::push_window(&mut inner, true);
        if inner.state == SiteHealthState::Quarantined {
            return false;
        }
        let trip = if persistent || inner.state == SiteHealthState::HalfOpen {
            // A dead device or a failed probe needs no statistics.
            true
        } else {
            let rate = Self::window_rate(&inner);
            inner.filled >= MIN_OBSERVATIONS && rate >= ERROR_THRESHOLD
        };
        if trip {
            inner.state = SiteHealthState::Quarantined;
            inner.skips = 0;
            inner.probe_successes = 0;
            inner.outstanding_probes = 0;
            inner.quarantines += 1;
        }
        trip
    }

    /// Current counters and breaker position.
    pub fn stats(&self) -> SiteHealthStats {
        let inner = self.inner.lock();
        SiteHealthStats {
            state: inner.state,
            successes: inner.successes,
            failures: inner.failures,
            persistent_failures: inner.persistent_failures,
            quarantines: inner.quarantines,
            probes: inner.probes,
            reopened: inner.reopened,
            readmissions: inner.readmissions,
            window_error_rate: Self::window_rate(&inner),
        }
    }

    fn push_window(inner: &mut HealthInner, failed: bool) {
        inner.window[inner.cursor] = failed;
        inner.cursor = (inner.cursor + 1) % WINDOW;
        inner.filled = (inner.filled + 1).min(WINDOW);
    }

    fn window_rate(inner: &HealthInner) -> f64 {
        if inner.filled == 0 {
            return 0.0;
        }
        let failures = inner.window.iter().take(inner.filled).filter(|f| **f).count();
        failures as f64 / inner.filled as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A breaker that has just tripped on a device loss.
    fn quarantined() -> SiteHealth {
        let h = SiteHealth::default();
        h.record_failure(true);
        h
    }

    /// A breaker that has sat out its backoff and is half-open.
    fn half_open() -> SiteHealth {
        let h = quarantined();
        for _ in 0..QUARANTINE_BACKOFF {
            h.consult();
        }
        assert_eq!(h.stats().state, SiteHealthState::HalfOpen);
        h
    }

    #[test]
    fn windowed_error_rate_trips_the_breaker() {
        let h = SiteHealth::default();
        for _ in 1..MIN_OBSERVATIONS {
            assert!(!h.record_failure(false), "fewer than MIN_OBSERVATIONS outcomes are not evidence");
        }
        assert_eq!(h.stats().state, SiteHealthState::Closed);
        assert!(h.record_failure(false), "4/4 failures cross the 0.5 threshold");
        assert_eq!(h.stats().state, SiteHealthState::Quarantined);
        assert_eq!(h.stats().quarantines, 1);
        // Only the last WINDOW outcomes count: after a long healthy run, the
        // breaker trips once half of the window has failed.
        let h = SiteHealth::default();
        for _ in 0..2 * WINDOW {
            h.record_success();
        }
        for _ in 1..WINDOW / 2 {
            assert!(!h.record_failure(false), "under half of the window failed");
        }
        assert!(h.record_failure(false), "8 of the last 16 outcomes failed");
        assert_eq!(h.stats().window_error_rate, ERROR_THRESHOLD);
    }

    #[test]
    fn persistent_fault_quarantines_immediately() {
        let h = SiteHealth::default();
        for _ in 0..10 {
            h.record_success();
        }
        assert!(h.record_failure(true), "device loss needs no statistics");
        assert_eq!(h.stats().state, SiteHealthState::Quarantined);
        assert_eq!(h.stats().persistent_failures, 1);
    }

    #[test]
    fn quarantine_backs_off_then_probes_then_readmits() {
        let h = quarantined();
        // Seven consults sit out the backoff, the eighth reopens half-open.
        for _ in 1..QUARANTINE_BACKOFF {
            assert!(!h.consult().admissible);
        }
        let last = h.consult();
        assert!(last.admissible && last.reopened);
        assert_eq!(h.stats().state, SiteHealthState::HalfOpen);
        // First probe success is not enough; the second closes the breaker.
        h.note_probe();
        assert!(!h.record_success());
        assert!(h.consult().admissible);
        h.note_probe();
        assert!(h.record_success(), "probe budget met: quarantine lifted");
        assert_eq!(h.stats().state, SiteHealthState::Closed);
        assert_eq!(h.stats().probes, u64::from(PROBE_BUDGET));
        assert_eq!(h.stats().reopened, 1);
        assert_eq!(h.stats().readmissions, 1);
        // The window was reset: one new failure is not instant re-quarantine.
        assert!(!h.record_failure(false));
        assert_eq!(h.stats().state, SiteHealthState::Closed);
    }

    #[test]
    fn failed_probe_requarantines() {
        let h = half_open();
        h.note_probe();
        assert!(h.record_failure(false), "a failed probe re-trips immediately");
        assert_eq!(h.stats().state, SiteHealthState::Quarantined);
        assert_eq!(h.stats().quarantines, 2);
    }

    #[test]
    fn half_open_bounds_concurrent_probes() {
        let h = half_open();
        // Two probe slots: both can be claimed, the third consult is turned
        // away until an outcome frees a slot.
        h.note_probe();
        assert!(h.consult().admissible);
        h.note_probe();
        assert!(!h.consult().admissible, "probe budget exhausted until an outcome lands");
        assert!(!h.is_admissible());
        h.record_failure(false);
        assert_eq!(h.stats().state, SiteHealthState::Quarantined);
    }
}
