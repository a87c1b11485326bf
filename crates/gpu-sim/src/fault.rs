//! Deterministic fault injection for the simulated device fleet.
//!
//! A [`FaultPlan`] is a seeded, fully reproducible description of how the
//! hardware should misbehave: per-launch rates for transient kernel faults,
//! OOM spikes and interconnect stalls, plus permanent device loss either at
//! a scheduled launch index or at a per-launch rate. The plan itself holds
//! no state; [`FaultPlan::injector_for`] derives one [`FaultInjector`] per
//! physical device, seeded from the plan seed, the owning site's label and
//! the device ordinal, so every device sees an independent but reproducible
//! fault sequence. The injector is consulted once per kernel launch
//! ([`GpuDevice::account`](crate::GpuDevice::account)); its decisions are a
//! pure function of the seed and the launch index.
//!
//! Faults only ever change *timing* (stalls) or turn launches into typed
//! [`H2Error::Fault`](h2tap_common::H2Error) errors — results are still
//! computed on the host, so any query that completes, however many retries
//! or fallbacks it took, returns bit-identical f64 values.

use h2tap_common::rng::SplitMixRng;
use h2tap_common::{FaultKind, SimDuration};

/// A scheduled permanent device loss: GPU `device` — its ordinal in the
/// engine's configured device list — dies at its `launch`-th kernel launch
/// (0-based) and every launch from that point on fails with a persistent
/// [`FaultKind::DeviceLost`] fault. The engine rejects an ordinal past the
/// end of its device list at startup, so a scheduled loss always fires.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceLossPoint {
    /// Ordinal of the device in the configured device list (0 is the first).
    pub device: usize,
    /// 0-based launch index at which the device disappears.
    pub launch: u64,
}

/// A seeded, reproducible fault schedule for the whole device fleet.
///
/// Rates are per-launch probabilities in `[0, 1]` and are evaluated in a
/// fixed order (device loss, transient kernel, OOM spike, interconnect
/// stall) against a single uniform draw, so the fault sequence for a given
/// seed never depends on float rounding of partial sums being re-ordered.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Master seed; per-device injector seeds are derived from it.
    pub seed: u64,
    /// Per-launch probability of a retryable kernel fault.
    pub transient_kernel_rate: f64,
    /// Per-launch probability of a transient allocation-pressure failure.
    pub oom_spike_rate: f64,
    /// Per-launch probability of an interconnect stall (time-only).
    pub interconnect_stall_rate: f64,
    /// Simulated extra latency one stall adds to the launch.
    pub stall_penalty: SimDuration,
    /// Per-launch probability of spontaneous permanent device loss.
    pub device_loss_rate: f64,
    /// Scheduled permanent loss of one specific device, if any.
    pub device_loss_at: Option<DeviceLossPoint>,
}

impl FaultPlan {
    /// A plan with every rate at zero and no scheduled loss: installing it
    /// is observationally identical to installing no plan at all.
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            transient_kernel_rate: 0.0,
            oom_spike_rate: 0.0,
            interconnect_stall_rate: 0.0,
            stall_penalty: SimDuration::ZERO,
            device_loss_rate: 0.0,
            device_loss_at: None,
        }
    }

    /// The default chaos plan: a storm of transient faults and stalls at
    /// rates high enough to exercise every rung of the retry ladder, with
    /// no permanent loss.
    pub fn transient_storm(seed: u64) -> Self {
        Self {
            seed,
            transient_kernel_rate: 0.05,
            oom_spike_rate: 0.02,
            interconnect_stall_rate: 0.03,
            stall_penalty: SimDuration::from_micros(200),
            device_loss_rate: 0.0,
            device_loss_at: None,
        }
    }

    /// Derives the injector for one device. The sub-seed folds in the site
    /// label and device ordinal so sibling devices draw independent
    /// sequences, while the same (plan seed, site, ordinal) triple always
    /// produces the same injector.
    pub fn injector_for(&self, site: &str, device: usize) -> FaultInjector {
        // FNV-1a over the site label keeps the derivation dependency-free
        // and stable across runs/platforms.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in site.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let sub_seed = self.seed ^ h ^ (device as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let loss_at = self.device_loss_at.as_ref().filter(|p| p.device == device).map(|p| p.launch);
        FaultInjector {
            site: site.to_string(),
            rng: SplitMixRng::new(sub_seed),
            launches: 0,
            lost: false,
            transient_kernel_rate: self.transient_kernel_rate,
            oom_spike_rate: self.oom_spike_rate,
            interconnect_stall_rate: self.interconnect_stall_rate,
            stall_penalty: self.stall_penalty,
            device_loss_rate: self.device_loss_rate,
            loss_at,
        }
    }
}

/// What the injector decided for one launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultDecision {
    /// The launch proceeds normally.
    Pass,
    /// The launch proceeds but pays the stall penalty on top of its
    /// simulated time.
    Stall(SimDuration),
    /// The launch fails with a typed fault.
    Fail { kind: FaultKind, transient: bool },
}

/// Per-device fault state: the derived RNG stream, the launch counter the
/// decisions are keyed on, and the sticky device-lost flag.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    site: String,
    rng: SplitMixRng,
    launches: u64,
    lost: bool,
    transient_kernel_rate: f64,
    oom_spike_rate: f64,
    interconnect_stall_rate: f64,
    stall_penalty: SimDuration,
    device_loss_rate: f64,
    loss_at: Option<u64>,
}

impl FaultInjector {
    /// The site key injected faults are attributed to.
    pub fn site(&self) -> &str {
        &self.site
    }

    /// True once the device has been permanently lost.
    pub fn is_lost(&self) -> bool {
        self.lost
    }

    /// Decides the fate of the next launch. Called exactly once per
    /// [`GpuDevice::account`](crate::GpuDevice::account); the sequence of
    /// decisions is a pure function of the injector's seed.
    pub fn decide(&mut self) -> FaultDecision {
        let idx = self.launches;
        self.launches += 1;
        if self.lost {
            return FaultDecision::Fail { kind: FaultKind::DeviceLost, transient: false };
        }
        if self.loss_at == Some(idx) {
            self.lost = true;
            return FaultDecision::Fail { kind: FaultKind::DeviceLost, transient: false };
        }
        let u = self.rng.next_f64();
        let mut acc = self.device_loss_rate;
        if u < acc {
            self.lost = true;
            return FaultDecision::Fail { kind: FaultKind::DeviceLost, transient: false };
        }
        acc += self.transient_kernel_rate;
        if u < acc {
            return FaultDecision::Fail { kind: FaultKind::TransientKernel, transient: true };
        }
        acc += self.oom_spike_rate;
        if u < acc {
            return FaultDecision::Fail { kind: FaultKind::OomSpike, transient: true };
        }
        acc += self.interconnect_stall_rate;
        if u < acc {
            return FaultDecision::Stall(self.stall_penalty);
        }
        FaultDecision::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storm() -> FaultPlan {
        let mut p = FaultPlan::transient_storm(42);
        // Crank the rates so a short sequence contains every decision kind.
        p.transient_kernel_rate = 0.3;
        p.oom_spike_rate = 0.2;
        p.interconnect_stall_rate = 0.2;
        p
    }

    #[test]
    fn same_seed_produces_the_identical_fault_sequence() {
        let plan = storm();
        let mut a = plan.injector_for("gpu", 0);
        let mut b = plan.injector_for("gpu", 0);
        let seq_a: Vec<FaultDecision> = (0..10_000).map(|_| a.decide()).collect();
        let seq_b: Vec<FaultDecision> = (0..10_000).map(|_| b.decide()).collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().any(|d| matches!(d, FaultDecision::Fail { transient: true, .. })));
        assert!(seq_a.iter().any(|d| matches!(d, FaultDecision::Stall(_))));
        assert!(seq_a.iter().any(|d| matches!(d, FaultDecision::Pass)));
    }

    #[test]
    fn sibling_devices_draw_independent_sequences() {
        let plan = storm();
        let mut a = plan.injector_for("gpu", 0);
        let mut b = plan.injector_for("gpu", 1);
        let seq_a: Vec<FaultDecision> = (0..256).map(|_| a.decide()).collect();
        let seq_b: Vec<FaultDecision> = (0..256).map(|_| b.decide()).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn quiet_plan_always_passes() {
        let mut inj = FaultPlan::quiet(7).injector_for("gpu", 0);
        assert!((0..1_000).all(|_| inj.decide() == FaultDecision::Pass));
    }

    #[test]
    fn scheduled_loss_is_sticky_and_device_scoped() {
        let mut plan = FaultPlan::quiet(9);
        plan.device_loss_at = Some(DeviceLossPoint { device: 0, launch: 3 });
        let mut hit = plan.injector_for("gpu", 0);
        for _ in 0..3 {
            assert_eq!(hit.decide(), FaultDecision::Pass);
        }
        for _ in 0..4 {
            assert_eq!(hit.decide(), FaultDecision::Fail { kind: FaultKind::DeviceLost, transient: false });
        }
        assert!(hit.is_lost());
        // A different device of the same plan never dies.
        let mut other = plan.injector_for("gpu", 1);
        assert!((0..16).all(|_| other.decide() == FaultDecision::Pass));
    }
}
