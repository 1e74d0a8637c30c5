//! Pricing, anti-degeneracy, and the solver's per-session settings.
//!
//! Pricing — choosing the *entering column* each iteration — is where the
//! simplex method wins or loses on degenerate instances.  Under pure
//! Dantzig pricing (most negative reduced cost) the long-chain global-mode
//! LPs of the central-moment analysis stall: the rule repeatedly selects
//! columns whose pivots make no progress.  The core therefore prices with
//! **devex** (approximate steepest edge, [`DevexPricer`]): columns are
//! scored by `rc²/w` against reference-framework weights that are updated
//! from the pivot row and reset when they overflow — far fewer iterations
//! on degenerate instances.  Bland's rule stays the termination-guaranteeing
//! *last resort*, entered only after [`bland_fallback_threshold`] pivots.
//!
//! A pivot's pricing work is proportional to its pivot row `ρ`, not to the
//! constraint matrix.  The core keeps each candidate column's reduced cost
//! across pivots.  After a pivot it recomputes only the columns next to the
//! support of `ρ`, which the kernel lists on both of its paths: the same
//! list the devex weight update walks, and the only columns whose dot
//! product reads a dual price the pivot moved.  [`DevexPricer::select`] is
//! then one scan over two dense slices, the prices and the weights.
//!
//! The module also holds the per-session settings threaded from the
//! analysis down to the core: [`SolverTuning`], the session's budget.

use std::time::{Duration, Instant};

/// Reduced costs below `-EPS` qualify a column for entering the basis (the
/// same tolerance the solvers use).
const EPS: f64 = 1e-9;

/// Devex weights above this trigger a reference-framework reset (all weights
/// back to 1): the approximation has drifted too far from the reference frame
/// to stay meaningful.
const DEVEX_RESET: f64 = 1e7;

/// Baseline number of pivots under devex pricing before the solver falls
/// back to Bland's rule.
pub const BLAND_FALLBACK_BASE: usize = 2_000;

/// Additional Bland-fallback pivots granted per row/column of the instance:
/// bigger systems legitimately pivot more, so the fallback — whose
/// termination guarantee costs an order of magnitude in iteration count —
/// must not engage on size alone.
pub const BLAND_FALLBACK_PER_DIM: usize = 4;

/// Number of pivots tolerated under devex pricing before the solver switches
/// to Bland's rule as the cycling backstop of last resort.
///
/// Scales with problem size (`rows + cols` in standard form): the old
/// behavior — two diverging magic formulas that both collapsed to a flat
/// `2_000` — throttled large instances that were still making progress.
/// Anti-degeneracy now rests on the Harris ratio test and the bounded
/// right-hand-side perturbation; this threshold only guards genuine cycling.
pub fn bland_fallback_threshold(rows: usize, cols: usize) -> usize {
    BLAND_FALLBACK_BASE + BLAND_FALLBACK_PER_DIM * (rows + cols)
}

/// Relaxation of the feasibility tolerance used by the first pass of the
/// Harris ratio test: rows whose exact ratio lies within this slack of the
/// relaxed minimum are eligible, and the numerically largest pivot among
/// them wins.
pub(crate) const HARRIS_RELAX: f64 = 1e-7;

/// Consecutive degenerate pivots (step length ≈ 0) tolerated before the
/// solver engages the bounded right-hand-side perturbation.
pub(crate) const DEGEN_PIVOT_STREAK: usize = 64;

/// The bounded anti-degeneracy perturbation applied to a zero basic value:
/// a deterministic, row-unique nudge in `[PERTURB_EPS, 2·PERTURB_EPS)`.
///
/// Perturbing the *basic values* (the primal analogue of the classic cost
/// perturbation, which fights dual degeneracy) makes the tied ratio tests
/// that sustain a cycle pick distinct rows and strictly positive steps, so
/// no basis can repeat while the perturbation is live.  It is bounded well
/// below the feasibility tolerance, and it washes out at the next basis
/// refactorization (which recomputes the basic values from the pristine
/// right-hand sides) — solvers force one before extracting a solution.
/// Cost perturbation was rejected here: any cost noise above the `1e-9`
/// optimality tolerance masks barely-improving columns and stalls
/// convergence instead of helping it.
pub(crate) fn degeneracy_shift(row: usize, round: usize) -> f64 {
    // Cheap deterministic hash of the row index → a unique multiplier in
    // [1, 2), scaled up with each engagement round.  The round factor is
    // capped so the shift stays *bounded* — ≤ 2·PERTURB_EPS·PERTURB_MAX_ROUND
    // = 1.28e-7, safely under the 1e-6 feasibility tolerance — no matter how
    // often a pathological solve re-engages (re-engagements still act on
    // fresh basis states, so the cap does not weaken the tie-breaking).
    let h = (row.wrapping_mul(2_654_435_761) >> 8) % 1024;
    PERTURB_EPS * round.min(PERTURB_MAX_ROUND) as f64 * (1.0 + h as f64 / 1024.0)
}

/// Base magnitude of [`degeneracy_shift`]: far below the `1e-6` feasibility
/// tolerance, far above f64 noise at the problem scales the analysis emits.
pub(crate) const PERTURB_EPS: f64 = 1e-9;

/// Cap on the [`degeneracy_shift`] round multiplier (keeps the total shift
/// under the feasibility tolerance on solves that re-engage many times).
pub(crate) const PERTURB_MAX_ROUND: usize = 64;

/// Per-session solver settings threaded from the analysis down to the
/// solver (see [`LpBackend::open_with`](crate::LpBackend::open_with)): the
/// session's resource budget, covering *every* `minimize` (and warm
/// re-solve, and in-session extension) the session performs.  The spend
/// carries over, so a session's total cost is bounded no matter how many
/// times it is re-entered.
///
/// Exhausting any limb yields [`LpStatus::BudgetExhausted`](crate::LpStatus::BudgetExhausted)
/// — a statement about *resources*, never about feasibility.  A budgeted
/// solve that runs out of budget makes no claim the unbudgeted solve would
/// not make; in particular it must never be treated as an infeasibility
/// proof (see the backend contract in [`backend`](crate::backend)).
///
/// All limbs default to `None` (unlimited); `SolverTuning::default()` is
/// the unbudgeted solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverTuning {
    /// Absolute wall-clock deadline.  Checked cooperatively once per pivot
    /// batch (every `DEADLINE_CHECK_PERIOD` pivots and at every
    /// refactorization), so overshoot is bounded by a batch of pivots.
    pub deadline: Option<Instant>,
    /// Wall-clock budget of each session, measured from the moment the
    /// backend opens it (presolve included) and capped by
    /// [`deadline`](Self::deadline).  One tuning shared by several sessions
    /// (a batch) gives each its own budget.
    pub timeout: Option<Duration>,
    /// Cap on total simplex iterations (primal and dual pivots both count)
    /// across the session's lifetime.
    pub max_iters: Option<usize>,
}

/// Pivots between cooperative deadline checks: `Instant::now()` per pivot
/// would dominate small pivots, and the refresh period (100) is too coarse
/// for tight timeouts on expensive pivots.
pub const DEADLINE_CHECK_PERIOD: usize = 16;

impl SolverTuning {
    /// The tuning of a session that opens now: [`timeout`](Self::timeout)
    /// becomes a deadline from now, capped by [`deadline`](Self::deadline).
    pub(crate) fn started(&self) -> SolverTuning {
        let session_deadline = self.timeout.map(|t| Instant::now() + t);
        SolverTuning {
            deadline: match (self.deadline, session_deadline) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
            timeout: None,
            max_iters: self.max_iters,
        }
    }

    /// Whether the wall-clock deadline (if any) has passed.
    pub(crate) fn deadline_passed(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Iterations remaining before the cap, given `spent` so far
    /// (`usize::MAX` when uncapped).
    pub(crate) fn iters_remaining(&self, spent: usize) -> usize {
        match self.max_iters {
            Some(cap) => cap.saturating_sub(spent),
            None => usize::MAX,
        }
    }
}

/// Everything the pricer inspects when observing a pivot: the pre-pivot
/// pivot-row entries `alpha[j] = (B⁻¹A)_pj` (devex weight updates need them)
/// plus which columns entered and left.
pub(crate) struct PivotView<'a> {
    /// The column entering the basis.
    pub entering: usize,
    /// The column leaving the basis.
    pub leaving: usize,
    /// The pivot element `alpha[entering]`.
    pub alpha_q: f64,
    /// Number of standard-form columns.
    pub n_cols: usize,
    /// Whether a column is a pricing candidate (nonbasic and not banned).
    pub candidate: &'a dyn Fn(usize) -> bool,
    /// Pre-pivot pivot-row entry of each column (at least `n_cols` long).
    pub alpha: &'a [f64],
    /// Each column adjacent to a nonzero of the row, once — a superset of
    /// the columns with `alpha[j] ≠ 0`.  Every other column's entry is an
    /// exact zero.
    pub touched: &'a [usize],
}

/// Approximate steepest edge (devex) with reference-framework resets,
/// stateful across the iterations of one solve.  Deterministic: the same
/// sequence of views yields the same selections (a backend contract
/// obligation).
pub(crate) struct DevexPricer {
    weights: Vec<f64>,
    /// Columns whose weight may exceed [`DEVEX_RESET`].  Only the
    /// post-scan leaving-column assignment can park a weight above the
    /// reset threshold without tripping the reset (an in-scan update that
    /// high trips it immediately), so tracking those few columns lets the
    /// touched-only path decide the reset exactly as the full scan would
    /// — without visiting every candidate weight.  May carry stale
    /// entries; they are pruned lazily.
    hot: Vec<usize>,
    /// Reference-framework resets so far (test coverage bookkeeping).
    #[cfg(test)]
    pub(crate) resets: usize,
}

impl DevexPricer {
    pub(crate) fn new(n_cols: usize) -> Self {
        DevexPricer {
            weights: vec![1.0; n_cols],
            hot: Vec::new(),
            #[cfg(test)]
            resets: 0,
        }
    }

    fn ensure(&mut self, n_cols: usize) {
        if self.weights.len() < n_cols {
            self.weights.resize(n_cols, 1.0);
        }
    }
}

impl DevexPricer {
    /// Chooses the entering column from the core's reduced costs `price`:
    /// the best `p²/w` among columns priced below `-EPS`, first index on
    /// ties, or `None` when no column improves.  Non-candidates are priced
    /// `0.0`, so the scan needs no candidate test of its own.
    pub(crate) fn select(&mut self, price: &[f64]) -> Option<usize> {
        self.ensure(price.len());
        let mut best = None;
        let mut best_score = 0.0;
        for (j, (&p, &w)) in price.iter().zip(&self.weights).enumerate() {
            if p < -EPS {
                let score = p * p / w;
                if score > best_score {
                    best_score = score;
                    best = Some(j);
                }
            }
        }
        best
    }

    /// Observes the pivot performed on the previously selected column,
    /// visiting only the touched columns: the others have an exactly zero
    /// pivot-row entry, so their weights are unchanged, and only `hot`
    /// carry-overs can push the weights' maximum past the reset threshold
    /// without being updated here.
    pub(crate) fn observe_pivot(&mut self, view: &PivotView<'_>) {
        self.ensure(view.n_cols);
        let aq2 = view.alpha_q * view.alpha_q;
        if aq2 < 1e-20 {
            return;
        }
        let ratio = Self::reference_ratio(self.weights[view.entering], aq2);
        // Whether any candidate's post-update weight exceeds the reset
        // threshold — exactly the verdict of a sweep over every candidate.
        let mut trip = false;
        for &j in view.touched {
            if j == view.entering || !(view.candidate)(j) {
                continue;
            }
            let a = view.alpha[j];
            if a != 0.0 {
                let w = a * a * ratio;
                if w > self.weights[j] {
                    self.weights[j] = w;
                }
                trip = trip || self.weights[j] > DEVEX_RESET;
            }
        }
        let weights = &self.weights;
        self.hot.retain(|&j| weights[j] > DEVEX_RESET);
        trip = trip
            || self
                .hot
                .iter()
                .any(|&j| j != view.entering && (view.candidate)(j));
        self.finish_pivot(view.leaving, ratio, trip);
    }

    /// Reference weight carried by the entering column, propagated to the
    /// rest of the framework through the pivot row.
    fn reference_ratio(entering_weight: f64, aq2: f64) -> f64 {
        (entering_weight / aq2).max(1.0 / aq2)
    }

    /// The leaving column re-enters the nonbasic pool with the reference
    /// weight of the pivot; then the reset, if a weight tripped it.
    fn finish_pivot(&mut self, leaving: usize, ratio: f64, trip: bool) {
        self.weights[leaving] = ratio.max(1.0);
        if trip {
            // Reference-framework reset: the approximation drifted too far.
            for w in &mut self.weights {
                *w = 1.0;
            }
            self.hot.clear();
            #[cfg(test)]
            {
                self.resets += 1;
            }
        } else if self.weights[leaving] > DEVEX_RESET && !self.hot.contains(&leaving) {
            self.hot.push(leaving);
        }
    }
}

/// The full sweep over every candidate that the touched-only
/// [`DevexPricer::observe_pivot`] must reproduce.
#[cfg(test)]
impl DevexPricer {
    pub(crate) fn observe_pivot_by_sweep(&mut self, view: &PivotView<'_>) {
        self.ensure(view.n_cols);
        let aq2 = view.alpha_q * view.alpha_q;
        if aq2 < 1e-20 {
            return;
        }
        let ratio = Self::reference_ratio(self.weights[view.entering], aq2);
        let mut trip = false;
        for j in 0..view.n_cols {
            if j == view.entering || !(view.candidate)(j) {
                continue;
            }
            let a = view.alpha[j];
            if a != 0.0 {
                let w = a * a * ratio;
                if w > self.weights[j] {
                    self.weights[j] = w;
                }
            }
            trip = trip || self.weights[j] > DEVEX_RESET;
        }
        let weights = &self.weights;
        self.hot.retain(|&j| weights[j] > DEVEX_RESET);
        self.finish_pivot(view.leaving, ratio, trip);
    }
}

/// The closure-based scan that [`DevexPricer::select`] replaced, kept as
/// the reference the core's pricing audit compares every selection with.
#[cfg(test)]
impl DevexPricer {
    pub(crate) fn select_by_scan(
        &mut self,
        n_cols: usize,
        candidate: impl Fn(usize) -> bool,
        reduced_cost: impl Fn(usize) -> f64,
    ) -> Option<usize> {
        self.ensure(n_cols);
        let mut best = None;
        let mut best_score = 0.0;
        for j in 0..n_cols {
            if !candidate(j) {
                continue;
            }
            let rc = reduced_cost(j);
            if rc < -EPS {
                let score = rc * rc / self.weights[j];
                if score > best_score {
                    best_score = score;
                    best = Some(j);
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all(_: usize) -> bool {
        true
    }

    #[test]
    fn bland_threshold_scales_with_problem_size() {
        assert_eq!(bland_fallback_threshold(0, 0), BLAND_FALLBACK_BASE);
        assert_eq!(
            bland_fallback_threshold(100, 400),
            BLAND_FALLBACK_BASE + 500 * BLAND_FALLBACK_PER_DIM
        );
        // Monotone in both dimensions — bigger instances get more headroom
        // before the slow Bland backstop engages.
        assert!(bland_fallback_threshold(10, 10) < bland_fallback_threshold(10, 1000));
        assert!(bland_fallback_threshold(10, 10) < bland_fallback_threshold(1000, 10));
    }

    #[test]
    fn degeneracy_shift_stays_bounded_and_row_unique() {
        let bound = 2.0 * PERTURB_EPS * PERTURB_MAX_ROUND as f64;
        assert!(
            bound < 1e-6,
            "shift bound must stay under the feasibility tolerance"
        );
        for round in [1, PERTURB_MAX_ROUND, 10_000] {
            for row in 0..100 {
                let shift = degeneracy_shift(row, round);
                assert!(
                    shift > 0.0 && shift <= bound,
                    "round {round} row {row}: {shift}"
                );
            }
        }
        // Distinct rows get distinct nudges (the tie-breaking property)…
        assert_ne!(degeneracy_shift(0, 1), degeneracy_shift(1, 1));
        // …and runaway rounds saturate at the cap instead of growing.
        assert_eq!(
            degeneracy_shift(3, 10_000),
            degeneracy_shift(3, PERTURB_MAX_ROUND)
        );
    }

    #[test]
    fn devex_prefers_low_weight_columns_and_resets() {
        let mut devex = DevexPricer::new(3);
        // Equal weights: degenerate to Dantzig (by squared cost).
        assert_eq!(devex.select(&[-1.0, -2.0, -1.5]), Some(1));
        // A pivot whose row loads column 1 heavily raises its weight…
        devex.observe_pivot(&PivotView {
            entering: 1,
            leaving: 0,
            alpha_q: 0.5,
            n_cols: 3,
            candidate: &all,
            alpha: &[0.0, 0.5, 40.0],
            touched: &[1, 2],
        });
        // …so column 2 (weight exploded) loses to column 1's replacement
        // score even at a slightly larger reduced cost.
        assert_eq!(devex.select(&[-1.0, -0.1, -1.5]), Some(0));
        // Overflowing weights reset the reference framework.
        devex.observe_pivot(&PivotView {
            entering: 0,
            leaving: 1,
            alpha_q: 1e-5,
            n_cols: 3,
            candidate: &all,
            alpha: &[1e3; 3],
            touched: &[0, 1, 2],
        });
        assert!(
            devex.weights.iter().all(|&w| w == 1.0),
            "{:?}",
            devex.weights
        );
    }

    #[test]
    fn devex_touched_path_matches_full_scan() {
        // Two pricers fed the same pivot sequence — one through the full
        // sweep, one through the touched-only path — must evolve identical
        // weights, including the reference-framework reset triggered by a
        // column whose weight was parked above the threshold by an earlier
        // leaving assignment and that no later pivot row touches.
        let mut dense = DevexPricer::new(6);
        let mut sparse = DevexPricer::new(6);
        // Pivot 1: a tiny pivot element explodes the reference ratio, so
        // the leaving column 1 re-enters the pool with weight 1e8 — above
        // DEVEX_RESET, but parked *after* the scan, so no reset fires.
        let view = PivotView {
            entering: 0,
            leaving: 1,
            alpha_q: 1e-4,
            n_cols: 6,
            candidate: &|j| j != 0,
            alpha: &[0.0, 0.0, 1e-3, 1e-3, 0.0, 0.0],
            touched: &[2, 3],
        };
        dense.observe_pivot_by_sweep(&view);
        sparse.observe_pivot(&view);
        assert_eq!(dense.weights, sparse.weights);
        assert!(dense.weights[1] > DEVEX_RESET, "{:?}", dense.weights);
        // Pivot 2 does not touch column 1, but its oversized weight must
        // still trip the reset on both paths (the full sweep sees it
        // directly, the touched-only path through its hot set).
        let view = PivotView {
            entering: 2,
            leaving: 3,
            alpha_q: 1.0,
            n_cols: 6,
            candidate: &|j| j != 2,
            alpha: &[0.0, 0.0, 0.0, 0.0, 0.5, 0.0],
            touched: &[4],
        };
        dense.observe_pivot_by_sweep(&view);
        sparse.observe_pivot(&view);
        assert_eq!(dense.weights, sparse.weights);
        assert!(
            sparse.weights.iter().all(|&w| w == 1.0),
            "{:?}",
            sparse.weights
        );
    }
}
