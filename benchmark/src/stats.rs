//! The harness arithmetic: percentiles, the supported tail, medians of
//! repeats and their spread.

/// Sorts samples ascending (NaNs last, so they never become a median).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// The `pct`-th percentile (0–100) of ascending `sorted` samples by the
/// nearest-rank rule: the smallest sample with at least `pct` percent of the
/// samples at or below it. `None` when there are no samples.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of unsorted values (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values.to_vec());
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The second best of the values — the second largest when `higher_is_better`,
/// else the second smallest — or the only one. `None` when empty.
///
/// On a shared machine the noise is one-sided: neighbours only ever make a
/// measurement worse. The better side of the values estimates the undisturbed
/// machine; the second best and not the best, so that one freak cannot set
/// the value.
pub fn second_best(values: &[f64], higher_is_better: bool) -> Option<f64> {
    let mut v = sorted(values.to_vec());
    if higher_is_better {
        v.reverse();
    }
    v.get(1).or(v.first()).copied()
}

/// The highest percentile that still has at least ten samples beyond it, and
/// its value: with `n` samples that is the `(n - 10)`-th smallest, at
/// percentile `100 * (n - 10) / n`. `None` below eleven samples — a tail
/// resting on fewer than ten observations is noise, not a percentile.
pub fn supported_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    (n > 10).then(|| (100.0 * (n - 10) as f64 / n as f64, sorted[n - 11]))
}

/// `(max - min) / median` of the values: how far the repeats of one metric
/// lie apart, as a share of their median. Zero for fewer than two values or
/// a zero median.
pub fn spread_frac(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    match (v.first(), v.last(), median(&v)) {
        (Some(min), Some(max), Some(mid)) if v.len() > 1 && mid != 0.0 => (max - min) / mid.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        // The median of five repeats ignores one outlier on either side.
        assert_eq!(median(&[57.5, 58.5, 12.0, 57.2, 99.0]), Some(57.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn second_best_follows_the_better_direction() {
        let v = [57.5, 58.5, 41.0, 57.2, 57.9];
        assert_eq!(second_best(&v, true), Some(57.9));
        assert_eq!(second_best(&v, false), Some(57.2));
        assert_eq!(second_best(&[3.0], true), Some(3.0));
        assert_eq!(second_best(&[], false), None);
    }

    #[test]
    fn supported_tail_keeps_ten_samples_beyond_it() {
        assert_eq!(supported_tail(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        // Eleven samples: only the smallest has ten beyond it.
        assert_eq!(supported_tail(&v), Some((100.0 / 11.0, 1.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (pct, value) = supported_tail(&v).unwrap();
        assert_eq!((pct, value), (99.0, 990.0));
        assert_eq!(v.iter().filter(|x| **x > value).count(), 10);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread_frac(&[10.0, 11.0, 9.0]), 0.2);
        assert_eq!(spread_frac(&[5.0]), 0.0);
        assert_eq!(spread_frac(&[]), 0.0);
        assert_eq!(spread_frac(&[0.0, 0.0]), 0.0);
    }
}
