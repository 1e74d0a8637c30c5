//! The benchmark's own statistics: geometric means, medians, and
//! percentiles that say how many samples lie beyond them.

/// A percentile needs at least this many samples beyond it before it is
/// reported as meeting the tail rule (p90 therefore needs 92 samples).
pub const MIN_BEYOND: usize = 10;

/// The geometric mean of strictly positive values; `None` when empty or
/// when any value is not a positive finite number.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// The median (mean of the two middle values for an even count); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A percentile and the number of samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The Harrell–Davis estimate: a weighted mean of every order
    /// statistic, weighted by the Beta(q(n+1), (1−q)(n+1)) mass of its
    /// rank's share of [0, 1].  Unlike a single order statistic it does not
    /// jump when two samples near the percentile swap places.
    pub value: f64,
    /// Samples ranked above rank `q·(n−1)` (0-based).
    pub beyond: usize,
    /// Samples.
    pub samples: usize,
}

impl Percentile {
    /// Whether enough samples lie beyond the percentile to trust it.
    pub fn meets_tail_rule(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// Integration cells per sample of the Beta weights.
const CELLS: usize = 64;

/// The `q`-quantile (`0 < q < 1`, clamped) of `samples`; `None` when
/// empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * (n - 1) as f64).floor() as usize;
    let q = q.clamp(1e-6, 1.0 - 1e-6);
    let (a, b) = (q * (n + 1) as f64, (1.0 - q) * (n + 1) as f64);
    // The Beta density at the midpoints of n·CELLS equal cells, in logs
    // shifted by their maximum so that large n does not underflow.
    let cells = n * CELLS;
    let log_density: Vec<f64> = (0..cells)
        .map(|c| {
            let x = (c as f64 + 0.5) / cells as f64;
            (a - 1.0) * x.ln() + (b - 1.0) * (-x).ln_1p()
        })
        .collect();
    let top = log_density
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let weights: Vec<f64> = log_density
        .chunks_exact(CELLS)
        .map(|rank| rank.iter().map(|l| (l - top).exp()).sum())
        .collect();
    let total: f64 = weights.iter().sum();
    let value = sorted.iter().zip(&weights).map(|(v, w)| v * w).sum::<f64>() / total;
    Some(Percentile {
        value,
        beyond: n - rank - 1,
        samples: n,
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_powers_is_the_middle_power() {
        let g = geomean(&[1.0, 10.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12);
        assert!((geomean(&[4.0]).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_rejects_empty_and_nonpositive_inputs() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_of_one_hundred_samples_has_ten_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = percentile(&samples, 0.9).unwrap();
        assert!((p.value - 90.9).abs() < 0.5, "{}", p.value);
        assert_eq!(p.beyond, 10);
        assert!(p.meets_tail_rule());
    }

    #[test]
    fn p90_of_fewer_than_ninety_two_samples_fails_the_tail_rule() {
        let samples: Vec<f64> = (1..=91).map(f64::from).collect();
        let p = percentile(&samples, 0.9).unwrap();
        assert_eq!(p.beyond, 9);
        assert!(!p.meets_tail_rule());
        let suite_programs: Vec<f64> = (1..=33).map(f64::from).collect();
        assert!(!percentile(&suite_programs, 0.9).unwrap().meets_tail_rule());
    }

    #[test]
    fn the_median_of_symmetric_samples_is_their_centre() {
        let samples: Vec<f64> = (1..=33).map(|i| f64::from(i * i)).collect();
        let mirrored: Vec<f64> = samples.iter().map(|v| 2000.0 - v).collect();
        let (p, m) = (
            percentile(&samples, 0.5).unwrap(),
            percentile(&mirrored, 0.5).unwrap(),
        );
        assert!((p.value + m.value - 2000.0).abs() < 1e-9);
        let even: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((percentile(&even, 0.5).unwrap().value - 5.5).abs() < 1e-9);
    }

    #[test]
    fn a_swap_next_to_the_median_moves_it_little() {
        // Two programs either side of the middle trade places: a single
        // order statistic would jump from 10 to 20; the estimate moves by
        // a fraction of that.
        let mut samples: Vec<f64> = (0..33).map(|i| if i < 16 { 1.0 } else { 30.0 }).collect();
        samples[16] = 10.0;
        let before = percentile(&samples, 0.5).unwrap().value;
        samples[16] = 20.0;
        let after = percentile(&samples, 0.5).unwrap().value;
        assert!((after - before).abs() < 5.0, "{before} -> {after}");
    }

    #[test]
    fn percentile_is_order_independent_and_bounded() {
        let a = percentile(&[5.0, 1.0, 3.0], 0.5).unwrap();
        let b = percentile(&[1.0, 3.0, 5.0], 0.5).unwrap();
        assert_eq!(a, b);
        assert!((a.value - 3.0).abs() < 1e-9);
        assert_eq!(percentile(&[7.0], 0.9).unwrap().value, 7.0);
        let top = percentile(&[1.0, 2.0], 1.0).unwrap();
        assert_eq!(top.beyond, 0);
        assert!(top.value > 1.5 && top.value <= 2.0);
        assert_eq!(percentile(&[], 0.5), None);
    }
}
