//! Properties pinning the solver's warm paths to their cold references on
//! random LPs.
//!
//! * **warm vs cold** — a session that receives rows incrementally (repaired
//!   by dual-simplex pivots from its warm basis) must agree with a
//!   from-scratch solve of the assembled problem on status and optimum.
//!
//! The Forrest–Tomlin-vs-refactorize and hyper-sparse-vs-dense-scan
//! properties live next to the factorization (`factor.rs`), the
//! presolve-vs-no-presolve one in `presolve_pricing_agreement.rs`.

mod common;

use cma_lp::{Cmp, LpBackend, LpProblem, LpStatus, SimplexBackend};
use common::{add_rows_from, decode, prefix};
use proptest::prelude::*;

const TOL: f64 = 1e-6;

proptest! {
    #[test]
    fn warm_and_cold_resolves_agree_on_incremental_rows(
        seed in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0), 2..8),
        vars in 1usize..5,
        split in 1usize..4,
    ) {
        // Open a session on a prefix of the rows, feed the rest
        // incrementally, and compare against a from-scratch solve of the
        // full system.
        let (full, _ids) = decode(&seed, vars);
        let split = split.min(full.num_constraints());
        let cold = SimplexBackend.solve(&full);
        let mut session = SimplexBackend.open(&prefix(&full, split));
        session.minimize(full.objective());
        add_rows_from(session.as_mut(), &full, split);
        let warm = session.minimize(full.objective());
        prop_assert_eq!(warm.status, cold.status);
        if cold.status == LpStatus::Optimal {
            prop_assert!(
                (cold.objective - warm.objective).abs() <= TOL * (1.0 + cold.objective.abs()),
                "warm optimum {} vs cold {}",
                warm.objective,
                cold.objective
            );
        }
    }
}

/// The headline scenario of the dual warm re-solve: a cutting row on an
/// optimal session is repaired by dual pivots — reported in `SolveStats` —
/// with no phase-1 restart, landing on the from-scratch optimum.
#[test]
fn cutting_row_resolves_via_dual_pivots() {
    let mut lp = LpProblem::new();
    let x = lp.add_var("x", false);
    let y = lp.add_var("y", false);
    lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
    lp.add_constraint(vec![(y, 1.0)], Cmp::Le, 3.0);
    let objective = [(x, -1.0), (y, -2.0)];

    let mut session = SimplexBackend.open(&lp);
    assert!(session.minimize(&objective).is_optimal());
    session.add_constraint(&[(y, 1.0)], Cmp::Le, 1.0); // cuts the optimum
    let warm = session.minimize(&objective);
    assert!(warm.is_optimal());
    assert!((warm.objective - (-5.0)).abs() < TOL);
    assert!(
        warm.stats.dual_pivots > 0,
        "cutting row resolved without dual pivots"
    );

    lp.add_constraint(vec![(y, 1.0)], Cmp::Le, 1.0);
    lp.set_objective(objective.to_vec());
    let cold = SimplexBackend.solve(&lp);
    assert!((cold.objective - warm.objective).abs() < TOL);
    assert_eq!(cold.stats.dual_pivots, 0);
}
