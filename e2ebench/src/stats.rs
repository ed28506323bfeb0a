//! Order statistics and the layer-subtraction arithmetic the report uses.

/// Nearest-rank quantile: the smallest sample with at least `q · n` samples
/// at or below it (rank `ceil(q · n)`, clamped to `1..=n`). Samples are
/// ordered with `f64::total_cmp`, so an infinite latency (a failed request)
/// sorts after every finite one. Returns NaN for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean (NaN for an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Buckets `(time, value)` samples into the slices that end at `ends`
/// (ascending; the first starts at 0). Samples past the last end fall in
/// the last slice.
pub fn bucket(samples: &[(f32, f32)], ends: &[f64]) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); ends.len()];
    if ends.is_empty() {
        return out;
    }
    for &(t, v) in samples {
        let i = ends.partition_point(|&e| e <= f64::from(t)).min(ends.len() - 1);
        out[i].push(f64::from(v));
    }
    out
}

/// `|total − Σ parts| / total`: how far a layer breakdown misses the
/// end-to-end figure it should add up to.
pub fn gap_share(total: f64, parts: &[f64]) -> f64 {
    (total - parts.iter().sum::<f64>()).abs() / total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceil_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        // Rank 0 clamps to the minimum.
        assert_eq!(quantile(&xs, 0.0), 1.0);
        // 0.5 · 101 = 50.5 → rank 51.
        let odd: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&odd, 0.5), 51.0);
    }

    #[test]
    fn quantile_ignores_input_order_and_handles_small_samples() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[4.0, 1.0]), 1.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn failed_requests_sort_last_and_reach_the_tail() {
        let mut xs = vec![1.0; 98];
        xs.extend([f64::INFINITY, f64::INFINITY]);
        assert_eq!(quantile(&xs, 0.5), 1.0);
        assert_eq!(quantile(&xs, 0.98), 1.0);
        assert_eq!(quantile(&xs, 0.99), f64::INFINITY);
    }

    #[test]
    fn samples_fall_into_their_slices() {
        let samples = [(0.1, 1.0), (1.0, 2.0), (1.5, 3.0), (2.4, 4.0), (2.6, 5.0)];
        // A sample at a boundary opens the next slice; a late one joins the last.
        assert_eq!(
            bucket(&samples, &[1.0, 2.0, 2.5]),
            vec![vec![1.0], vec![2.0, 3.0], vec![4.0, 5.0]]
        );
        assert!(bucket(&samples, &[]).is_empty());
    }

    #[test]
    fn layer_subtraction_adds_back_up() {
        // train_s = block1 + block2 + block3 + eval, missing by 0.04 s.
        let parts = [1.8, 0.01, 2.7, 0.25];
        assert!((gap_share(4.8, &parts) - 0.04 / 4.8).abs() < 1e-12);
        // Parts that overshoot miss by the same kind of share.
        assert!((gap_share(1.0, &[0.7, 0.5]) - 0.2).abs() < 1e-12);
        assert_eq!(gap_share(2.0, &[1.5, 0.5]), 0.0);
    }
}
