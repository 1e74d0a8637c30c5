//! Property and unit tests for the budget contract of [`SolverTuning`].
//!
//! * **verdict invariance** — a budgeted solve may return `BudgetExhausted`,
//!   but whenever it *does* reach a verdict that verdict matches the
//!   unbudgeted solve: running out of budget truncates the search, it never
//!   flips feasible to infeasible (or vice versa).
//! * **deadline slack** — a solve with a wall-clock deadline returns within
//!   the deadline plus a bounded slack (one pivot batch of cooperative
//!   cancellation latency), no matter the instance.
//! * **carry-over** — the budget spans a session's whole lifetime: repeated
//!   minimizes draw down the same iteration pool.

mod common;

use std::time::{Duration, Instant};

use cma_lp::{Cmp, LpBackend, LpProblem, LpStatus, SimplexBackend, SolverTuning};
use common::decode;
use proptest::prelude::*;

/// Wall-clock slack allowed past the deadline: the cooperative check runs
/// once per pivot batch, so overshoot is a handful of pivots on these
/// instance sizes.  Generous for CI jitter, still far below a hang.
const DEADLINE_SLACK: Duration = Duration::from_millis(500);

proptest! {
    /// A budget never flips a verdict: for every iteration cap, the budgeted
    /// status is either `BudgetExhausted` or exactly the unbudgeted status.
    #[test]
    fn budget_exhaustion_never_flips_a_verdict(
        seed in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0), 1..9),
        vars in 1usize..6,
        cap in 1usize..40,
    ) {
        let (lp, _) = decode(&seed, vars);
        let unbudgeted = SimplexBackend.solve(&lp);
        let tuning = SolverTuning {
            max_iters: Some(cap),
            ..SolverTuning::default()
        };
        let budgeted = SimplexBackend.solve_with(&lp, &tuning);
        prop_assert!(
            budgeted.status == LpStatus::BudgetExhausted
                || budgeted.status == unbudgeted.status,
            "cap {cap}: budgeted {:?} vs unbudgeted {:?}",
            budgeted.status,
            unbudgeted.status,
        );
        if budgeted.status == LpStatus::Optimal {
            prop_assert!(
                (budgeted.objective - unbudgeted.objective).abs() < 1e-6,
                "optimal under budget but objective drifted: {} vs {}",
                budgeted.objective,
                unbudgeted.objective,
            );
        }
    }

    /// A wall-clock deadline is respected within the cooperative-check
    /// slack, and an already-expired deadline returns promptly.  The clock
    /// is polled every `DEADLINE_CHECK_PERIOD` pivots; on these small LPs a
    /// period of pivots takes microseconds, so overshoot is bounded by CI
    /// jitter.
    #[test]
    fn deadline_is_respected_within_slack(
        seed in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0), 1..9),
        vars in 1usize..6,
        timeout_ms in 0u64..20,
    ) {
        let (lp, _) = decode(&seed, vars);
        let timeout = Duration::from_millis(timeout_ms);
        let deadline = Instant::now() + timeout;
        let tuning = SolverTuning {
            timeout: Some(timeout),
            ..SolverTuning::default()
        };
        let solution = SimplexBackend.solve_with(&lp, &tuning);
        let finished = Instant::now();
        prop_assert!(
            finished <= deadline + DEADLINE_SLACK,
            "solve overshot its deadline by {:?}",
            finished.duration_since(deadline),
        );
        // Whatever the outcome, it is a real status — and if the deadline
        // cut the solve short, that is exactly what the status says.
        if solution.status != LpStatus::BudgetExhausted {
            let unbudgeted = SimplexBackend.solve(&lp);
            prop_assert_eq!(solution.status, unbudgeted.status);
        }
    }
}

#[test]
fn expired_deadline_reports_exhaustion_not_infeasibility() {
    // A perfectly feasible system under an already-expired deadline must
    // report BudgetExhausted — never Infeasible.
    let mut lp = LpProblem::new();
    let x = lp.add_var("x", false);
    lp.add_constraint(vec![(x, 1.0)], Cmp::Ge, 1.0);
    lp.set_objective(vec![(x, 1.0)]);
    let expired = SolverTuning {
        deadline: Some(Instant::now() - Duration::from_secs(1)),
        ..SolverTuning::default()
    };
    let sol = SimplexBackend.solve_with(&lp, &expired);
    assert_eq!(sol.status, LpStatus::BudgetExhausted);
}

#[test]
fn session_budget_carries_over_across_minimizes() {
    // One pool for the whole session: an iteration budget generous enough
    // for one solve runs dry after enough re-minimizes.
    let mut lp = LpProblem::new();
    let x = lp.add_var("x", false);
    let y = lp.add_var("y", false);
    lp.add_constraint(vec![(x, 1.0), (y, 2.0)], Cmp::Ge, 4.0);
    lp.add_constraint(vec![(x, 3.0), (y, 1.0)], Cmp::Ge, 6.0);
    let first_cost = SimplexBackend
        .solve_with(
            &{
                let mut p = lp.clone();
                p.set_objective(vec![(x, 1.0), (y, 1.0)]);
                p
            },
            &SolverTuning::default(),
        )
        .stats
        .iterations;
    assert!(first_cost > 0);
    // Enough for the first solve and a bit of warm re-minimizing, but not
    // for an unbounded number of them.
    let tuning = SolverTuning {
        max_iters: Some(first_cost + 4),
        ..SolverTuning::default()
    };
    let mut session = SimplexBackend.open_with(&lp, &tuning);
    let mut statuses = Vec::new();
    for round in 0..50 {
        let objective = if round % 2 == 0 {
            vec![(x, 1.0), (y, 1.0)]
        } else {
            vec![(x, 5.0), (y, 1.0)]
        };
        statuses.push(session.minimize(&objective).status);
    }
    assert_eq!(statuses[0], LpStatus::Optimal, "{tuning:?}");
    assert_eq!(
        *statuses.last().unwrap(),
        LpStatus::BudgetExhausted,
        "session budget never ran dry under {tuning:?}"
    );
    // Once exhausted, the session stays exhausted (no verdict can be
    // manufactured out of an empty budget).
    let from_first_exhaustion = statuses
        .iter()
        .skip_while(|&&s| s != LpStatus::BudgetExhausted);
    assert!(from_first_exhaustion
        .clone()
        .all(|&s| s == LpStatus::BudgetExhausted));
}
