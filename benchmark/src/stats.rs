//! Order statistics over measured samples.

/// The `q`-quantile (nearest rank) of `sorted`; 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sort(v: &mut [f64]) {
    v.sort_unstable_by(f64::total_cmp);
}

pub fn median(mut v: Vec<f64>) -> f64 {
    sort(&mut v);
    quantile(&v, 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The highest of p90 / p99 / p99.9 that still has at least ten samples
/// beyond it, as `(quantile, label)`; `None` under 100 samples.
pub fn tail_quantile(samples: usize) -> Option<(f64, &'static str)> {
    [(999, "p99.9"), (990, "p99"), (900, "p90")]
        .into_iter()
        .find(|(permille, _)| samples * (1000 - permille) >= 10_000)
        .map(|(permille, label)| (permille as f64 / 1000.0, label))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(99), None);
        assert_eq!(tail_quantile(100).unwrap().1, "p90");
        assert_eq!(tail_quantile(1000).unwrap().1, "p99");
        assert_eq!(tail_quantile(9_999).unwrap().1, "p99");
        assert_eq!(tail_quantile(10_000).unwrap().1, "p99.9");
    }
}
