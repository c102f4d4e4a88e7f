//! Order statistics for the reported timings.

/// Median of `xs` (mean of the two middle values for even lengths); 0
/// for no samples, which only a run that already failed a check reports.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean of `xs`.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// The tail the benchmark reports: the highest percentile that still has
/// at least ten samples beyond it. Returns `(percentile, value)`; with ten
/// or fewer samples no percentile qualifies and the maximum is reported
/// as percentile 100.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "tail of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n <= 10 {
        return (100.0, s[n - 1]);
    }
    // Rank `n - 11` (0-based) leaves exactly ten samples above it.
    let rank = n - 11;
    let pct = ((rank + 1) as f64 / n as f64 * 100.0).floor();
    (pct, s[rank])
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let (pct, v) = tail(&xs);
        assert_eq!(v, 30.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert_eq!(pct, 75.0);
        assert_eq!(tail(&[5.0, 7.0]), (100.0, 7.0));
    }
}
