//! The independent answer oracle: a seeded Monte-Carlo simulation per
//! program, run outside the timed region.
//!
//! Every raw-moment interval the analyzer reports must contain the
//! simulated estimate of that moment within a `Z`-standard-error band.  The
//! same simulation fixes each program's tail threshold (`TAIL_MULTIPLE` ×
//! the simulated mean cost).

use std::time::Duration;

use central_moment_analysis::sim::{simulate, SimConfig};
use central_moment_analysis::{Interval, Program, Var};

/// Trials per program.
pub const TRIALS: usize = 2_000;
/// Steps after which one trial counts as unfinished.
pub const MAX_STEPS: usize = 200_000;
/// Wall-clock budget of one program's simulation.
pub const SIM_TIMEOUT: Duration = Duration::from_secs(2);
/// Width of the acceptance band, in standard errors of the estimate.
pub const Z: f64 = 6.0;
/// Relative slack on top of the band, for floating-point round-off in the
/// reported bounds.
pub const REL_TOL: f64 = 1e-6;
/// The tail threshold is this multiple of the simulated mean cost.
pub const TAIL_MULTIPLE: f64 = 4.0;

/// Monte-Carlo estimates of one program's raw cost moments.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// `moments[k-1]` is `(mean of C^k, standard error of that mean)`.
    pub moments: Vec<(f64, f64)>,
}

impl Estimate {
    /// Estimates from the costs of independent trials, up to degree `m`.
    pub fn from_costs(costs: &[f64], m: usize) -> Estimate {
        let n = costs.len() as f64;
        let moments = (1..=m as i32)
            .map(|k| {
                let powers: Vec<f64> = costs.iter().map(|c| c.powi(k)).collect();
                let mean = powers.iter().sum::<f64>() / n;
                let var = powers.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / (n - 1.0);
                (mean, (var / n).sqrt())
            })
            .collect();
        Estimate { moments }
    }

    /// The simulated mean cost.
    pub fn mean(&self) -> f64 {
        self.moments[0].0
    }

    /// The tail threshold `t` of `P[C ≥ t]`, or `None` when the simulated
    /// mean is not positive (no meaningful multiple exists).
    pub fn tail_threshold(&self) -> Option<f64> {
        let mean = self.mean();
        (mean > 0.0).then_some(TAIL_MULTIPLE * mean)
    }

    /// The raw moments whose reported interval (`raw[k]` bounds `E[C^k]`)
    /// misses the estimate's band, one message per miss.
    pub fn violations(&self, raw: &[Interval]) -> Vec<String> {
        raw.iter()
            .enumerate()
            .skip(1)
            .zip(&self.moments)
            .filter_map(|((k, interval), &(est, se))| {
                let slack = Z * se + REL_TOL * est.abs().max(1.0);
                let outside = est + slack < interval.lo() || est - slack > interval.hi();
                outside.then(|| {
                    format!(
                        "E[C^{k}] in [{}, {}] but simulated {est} ± {se}",
                        interval.lo(),
                        interval.hi()
                    )
                })
            })
            .collect()
    }
}

/// Simulates `program` from `initial` with a seeded generator.  `None` when
/// some trial did not finish within [`MAX_STEPS`] or the simulation ran out
/// of time: such programs are skipped by the oracle, not failed.
pub fn simulate_program(
    program: &Program,
    initial: &[(Var, f64)],
    degree: usize,
    seed: u64,
) -> Option<Estimate> {
    let config = SimConfig {
        trials: TRIALS,
        seed,
        max_steps: MAX_STEPS,
        initial: initial.to_vec(),
        strict_init: false,
        timeout: Some(SIM_TIMEOUT),
    };
    let samples = simulate(program, &config);
    if samples.cutoff_trials() > 0 || samples.timed_out() || samples.len() < 2 {
        return None;
    }
    Some(Estimate::from_costs(samples.costs(), degree))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coin_costs() -> Vec<f64> {
        // A fair coin between cost 2 and cost 4: E[C] = 3, E[C^2] = 10.
        (0..1000)
            .map(|i| if i % 2 == 0 { 2.0 } else { 4.0 })
            .collect()
    }

    #[test]
    fn estimates_match_the_closed_form_moments() {
        let est = Estimate::from_costs(&coin_costs(), 2);
        assert!((est.moments[0].0 - 3.0).abs() < 1e-12);
        assert!((est.moments[1].0 - 10.0).abs() < 1e-12);
        assert!(est.moments[0].1 > 0.0);
        assert_eq!(est.tail_threshold(), Some(12.0));
    }

    #[test]
    fn correct_intervals_pass_the_bracket() {
        let est = Estimate::from_costs(&coin_costs(), 2);
        let raw = [
            Interval::new(1.0, 1.0),
            Interval::new(3.0, 3.0),
            Interval::new(9.0, 11.0),
        ];
        assert!(est.violations(&raw).is_empty());
    }

    #[test]
    fn a_planted_wrong_interval_is_flagged() {
        let est = Estimate::from_costs(&coin_costs(), 2);
        // The upper bound on E[C] is below the true mean 3: unsound.
        let raw = [
            Interval::new(1.0, 1.0),
            Interval::new(0.0, 2.5),
            Interval::new(9.0, 11.0),
        ];
        let violations = est.violations(&raw);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].starts_with("E[C^1]"));
    }

    #[test]
    fn nonpositive_means_have_no_tail_threshold() {
        let est = Estimate::from_costs(&[-1.0, 1.0, 0.0], 1);
        assert_eq!(est.tail_threshold(), None);
    }
}
