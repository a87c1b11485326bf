//! Bounded, FIFO admission to an execution site.
//!
//! Every OLAP dispatch acquires an [`AdmissionPermit`] from its target
//! site's [`AdmissionGate`] before executing and releases it when the
//! execution finishes (RAII, so error paths — notably the GPU-OOM → CPU
//! fallback — free the failed site's slot before competing for another).
//! A gate with a budget caps the queries a site executes at once; the
//! excess waits in strict arrival order, so a burst of cheap queries
//! cannot starve an earlier expensive one. A gate without a budget only
//! counts traffic.

use parking_lot::Mutex;
use std::sync::{Condvar, PoisonError};

/// Point-in-time admission counters of one gate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Queries admitted to the site (every execution acquires exactly one
    /// permit, so this equals the site's execution attempts).
    pub admitted: u64,
    /// Admissions that had to wait because the in-flight budget was
    /// exhausted (or an earlier arrival was still waiting).
    pub queued: u64,
    /// Permits currently held.
    pub in_flight: u32,
}

#[derive(Debug, Default)]
struct GateState {
    in_flight: u32,
    /// Next ticket to hand out. Tickets are served strictly in order:
    /// `now_serving` counts tickets admitted so far, so a ticket enters
    /// exactly when every earlier ticket has been admitted and the budget
    /// has room.
    next_ticket: u64,
    now_serving: u64,
    admitted: u64,
    queued: u64,
}

/// A FIFO ticket gate bounding in-flight executions on one site.
#[derive(Debug)]
pub struct AdmissionGate {
    state: Mutex<GateState>,
    cv: Condvar,
    budget: Option<u32>,
}

impl AdmissionGate {
    /// A gate admitting at most `budget` concurrent executions; `None` is
    /// unbounded (counting only). A budget of zero would deadlock every
    /// caller and is clamped to one.
    pub fn new(budget: Option<u32>) -> Self {
        Self { state: Mutex::new(GateState::default()), cv: Condvar::new(), budget: budget.map(|b| b.max(1)) }
    }

    /// The configured in-flight budget (`None` = unbounded).
    pub fn budget(&self) -> Option<u32> {
        self.budget
    }

    /// Blocks until the site has room, in strict arrival order, and returns
    /// the RAII permit that occupies the slot.
    pub fn admit(&self) -> AdmissionPermit<'_> {
        let mut state = self.state.lock();
        let Some(budget) = self.budget else {
            state.admitted += 1;
            state.in_flight += 1;
            return AdmissionPermit { gate: self };
        };
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        if ticket != state.now_serving || state.in_flight >= budget {
            state.queued += 1;
            while ticket != state.now_serving || state.in_flight >= budget {
                state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
        }
        state.now_serving += 1;
        state.in_flight += 1;
        state.admitted += 1;
        // Advancing `now_serving` may have unblocked the next ticket even
        // though no permit was released (budget not yet full): wake the
        // queue so it can re-check.
        if state.in_flight < budget {
            drop(state);
            self.cv.notify_all();
        }
        AdmissionPermit { gate: self }
    }

    fn release(&self) {
        let mut state = self.state.lock();
        state.in_flight = state.in_flight.saturating_sub(1);
        drop(state);
        self.cv.notify_all();
    }

    /// Current counters.
    pub fn stats(&self) -> AdmissionStats {
        let state = self.state.lock();
        AdmissionStats { admitted: state.admitted, queued: state.queued, in_flight: state.in_flight }
    }
}

/// Occupancy of one admission slot; dropping it frees the slot and wakes
/// the queue.
#[must_use = "dropping the permit immediately releases the admission slot"]
pub struct AdmissionPermit<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.gate.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::{Arc, Barrier};

    #[test]
    fn unbounded_gate_counts_but_never_queues() {
        let gate = AdmissionGate::new(None);
        let a = gate.admit();
        let b = gate.admit();
        assert_eq!(gate.stats().admitted, 2);
        assert_eq!(gate.stats().queued, 0);
        assert_eq!(gate.stats().in_flight, 2);
        drop(a);
        drop(b);
        assert_eq!(gate.stats().in_flight, 0);
    }

    #[test]
    fn zero_budget_is_clamped_to_one_instead_of_deadlocking() {
        let gate = AdmissionGate::new(Some(0));
        assert_eq!(gate.budget(), Some(1));
        let permit = gate.admit();
        drop(permit);
        assert_eq!(gate.stats().admitted, 1);
    }

    #[test]
    fn budget_bounds_concurrent_permits_and_queues_the_rest() {
        const BUDGET: u32 = 3;
        const THREADS: usize = 8;
        let gate = Arc::new(AdmissionGate::new(Some(BUDGET)));
        let barrier = Arc::new(Barrier::new(THREADS));
        let concurrent = Arc::new(AtomicU32::new(0));
        let peak = Arc::new(AtomicU32::new(0));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let gate = Arc::clone(&gate);
                let barrier = Arc::clone(&barrier);
                let concurrent = Arc::clone(&concurrent);
                let peak = Arc::clone(&peak);
                std::thread::spawn(move || {
                    barrier.wait();
                    for _ in 0..20 {
                        let _permit = gate.admit();
                        let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        concurrent.fetch_sub(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = gate.stats();
        assert!(peak.load(Ordering::SeqCst) <= BUDGET, "budget breached: {}", peak.load(Ordering::SeqCst));
        assert_eq!(stats.admitted, (THREADS * 20) as u64);
        assert!(stats.queued > 0, "8 threads against a budget of 3 must have queued");
        assert_eq!(stats.in_flight, 0);
    }

    #[test]
    fn admissions_are_served_in_arrival_order() {
        // One slot, one holder; three queued threads must be admitted in
        // the order their tickets were drawn, not wake-up order.
        let gate = Arc::new(AdmissionGate::new(Some(1)));
        let order = Arc::new(Mutex::new(Vec::new()));
        let holder = gate.admit();
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let gate = Arc::clone(&gate);
                let order = Arc::clone(&order);
                std::thread::spawn(move || {
                    // Stagger arrivals so ticket order is deterministic:
                    // thread i draws its ticket only once i earlier arrivals
                    // are already queued behind the held slot.
                    while gate.stats().queued < i {
                        std::thread::yield_now();
                    }
                    let _permit = gate.admit();
                    order.lock().push(i);
                })
            })
            .collect();
        // Wait until all three have drawn tickets before opening the gate.
        while gate.stats().queued < 3 {
            std::thread::yield_now();
        }
        drop(holder);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock(), vec![0, 1, 2]);
    }
}
