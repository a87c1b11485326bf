//! Allow-annotated fixture: the same violation shapes as the known-bad set,
//! each carrying a well-formed reasoned escape hatch. Expected: findings are
//! still reported (one lock_order, one determinism hash-iteration, one
//! determinism f64 fold, one error_swallow, one timed_poll) but every one is
//! allowed, so the unannotated count is zero.

use std::collections::HashMap;

use crate::sync::Mutex;

pub struct Pair {
    a: Mutex<u32>,
    b: Mutex<u32>,
}

impl Pair {
    pub fn a_then_b(&self) -> u32 {
        let ga = self.a.lock();
        // h2tap: allow(lock_order) — ordering rule: a before b everywhere in this fixture, never reversed.
        let gb = self.b.lock();
        *ga + *gb
    }
}

pub fn count_only(m: &HashMap<u64, f64>) -> usize {
    // h2tap: allow(determinism) — only the count is observed, so iteration order cannot reach the result.
    m.iter().count()
}

pub fn fold(xs: &[f64]) -> f64 {
    // h2tap: allow(determinism) — fixture models a blessed kernel fold whose input order is pinned by the caller.
    xs.iter().sum::<f64>()
}

pub fn release(dev: &mut Device, id: BufferId) {
    // h2tap: allow(error_swallow) — fixture models a best-effort free on an error path where the failure is unactionable.
    dev.memory_mut().free(id).ok();
}

pub fn await_doorbell(dev: &Device) {
    while !dev.doorbell_rang() {
        // h2tap: allow(timed_poll) — fixture models a device that raises no interrupt, so its doorbell can only be polled.
        std::thread::sleep(Duration::from_micros(100));
    }
}
