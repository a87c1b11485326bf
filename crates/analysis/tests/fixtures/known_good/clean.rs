//! Known-good fixture: the deterministic, error-preserving counterparts of
//! the known-bad patterns. Expected findings: none.

use std::collections::BTreeMap;
use std::sync::Mutex;

pub struct Pair {
    a: Mutex<u32>,
    b: Mutex<u32>,
}

impl Pair {
    /// One lock at a time: the first guard is a statement temporary released
    /// before the second acquisition begins.
    pub fn sequential(&self) -> u32 {
        let x = self.a.lock().map(|g| *g).unwrap_or(0);
        let y = self.b.lock().map(|g| *g).unwrap_or(0);
        x + y
    }
}

/// Ordered iteration: a BTreeMap walk is deterministic by construction.
pub fn totals(m: &BTreeMap<u64, f64>) -> f64 {
    let mut total = 0.0;
    for (_k, v) in m.iter() {
        total += v;
    }
    total
}

/// An explicit left-to-right loop fold fixes the association order without
/// relying on the `Sum` impl.
pub fn fold(xs: &[f64]) -> f64 {
    let mut acc = 0.0;
    for x in xs {
        acc += *x;
    }
    acc
}

/// Errors surface as values, not panics.
pub fn first(xs: &[u32]) -> Result<u32, String> {
    xs.first().copied().ok_or_else(|| "empty input".to_string())
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_tests_is_fine() {
        assert_eq!(super::first(&[7]).unwrap(), 7);
    }
}
