//! Deterministic pseudo-random number generation for workloads.
//!
//! Workload generators (YCSB-style updates, TPC-C NewOrder, the multi-site
//! microbenchmark) must be reproducible across runs so that experiment output
//! is stable. We use a small xoshiro256** generator seeded explicitly, plus a
//! Zipfian generator because the paper describes its OLTP workload as "an
//! update-only YCSB workload with a theta value (zipfian distribution) of
//! zero" — i.e. uniform — but the harness also sweeps non-zero theta as an
//! ablation.

/// A small, fast, deterministic PRNG (xoshiro256**).
#[derive(Debug, Clone)]
pub struct SplitMixRng {
    s: [u64; 4],
}

impl SplitMixRng {
    /// Creates a generator from a 64-bit seed using SplitMix64 expansion.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self { s: [next(), next(), next(), next()] }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`. `bound` must be nonzero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "bound must be nonzero");
        // Multiply-shift reduction; bias is negligible for bound << 2^64.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fisher-Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Zipfian key-distribution generator over `[0, n)` with skew `theta`.
///
/// `theta == 0` degenerates to the uniform distribution, which is what the
/// paper's OLTP workload uses; larger values concentrate accesses on a hot
/// set (used by the hot/cold ablation).
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// Creates a Zipfian generator over `n` items with parameter `theta`.
    ///
    /// # Panics
    /// Panics when `n == 0` or `theta >= 1.0` (the standard YCSB formulation
    /// is undefined at 1.0).
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "Zipf domain must be nonempty");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Self { n, theta, alpha, zetan, eta }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact for small n, sampled approximation for very large n to keep
        // construction O(1M) at most.
        let step = (n / 1_000_000).max(1);
        let mut sum = 0.0;
        let mut i = 1;
        while i <= n {
            sum += step as f64 / (i as f64).powf(theta);
            i += step;
        }
        sum
    }

    /// Draws the next key in `[0, n)`.
    pub fn sample(&self, rng: &mut SplitMixRng) -> u64 {
        if self.theta == 0.0 {
            return rng.next_below(self.n);
        }
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5_f64.powf(self.theta) {
            return 1;
        }
        let k = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        k.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMixRng::new(42);
        let mut b = SplitMixRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMixRng::new(1);
        let mut b = SplitMixRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn bounded_values_respect_bound() {
        let mut r = SplitMixRng::new(7);
        for _ in 0..10_000 {
            assert!(r.next_below(10) < 10);
        }
    }

    #[test]
    fn floats_are_unit_interval() {
        let mut r = SplitMixRng::new(11);
        for _ in 0..10_000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SplitMixRng::new(3);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_theta_zero_is_roughly_uniform() {
        let mut r = SplitMixRng::new(13);
        let z = Zipf::new(10, 0.0);
        let mut counts = [0u64; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut r) as usize] += 1;
        }
        let min = *counts.iter().min().unwrap() as f64;
        let max = *counts.iter().max().unwrap() as f64;
        assert!(max / min < 1.2, "uniform draw too skewed: {counts:?}");
    }

    #[test]
    fn zipf_high_theta_is_skewed() {
        let mut r = SplitMixRng::new(17);
        let z = Zipf::new(1_000, 0.99);
        let mut head = 0u64;
        let total = 100_000;
        for _ in 0..total {
            if z.sample(&mut r) < 10 {
                head += 1;
            }
        }
        // with theta=0.99, the top-10 keys of 1000 should absorb well over 20%
        assert!(head as f64 / total as f64 > 0.2);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn zipf_rejects_empty_domain() {
        let _ = Zipf::new(0, 0.5);
    }
}
