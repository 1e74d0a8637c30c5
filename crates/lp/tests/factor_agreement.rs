//! Properties pinning the solver's warm paths and kernels to their cold and
//! dense-scan references on random LPs.
//!
//! * **warm vs cold** — a session that receives rows incrementally (repaired
//!   by dual-simplex pivots from its warm basis) must agree with a
//!   from-scratch solve of the assembled problem on status and optimum.
//! * **hyper-sparse vs dense scan** — every kernel of a solved LU basis gives
//!   the same vector on the hyper-sparse path and pinned to the dense scan.
//!
//! The Forrest–Tomlin-vs-refactorize property lives next to the
//! factorization (`factor.rs`), the presolve-vs-no-presolve one in
//! `presolve_pricing_agreement.rs`.

mod common;

use cma_lp::{Cmp, LpBackend, LpProblem, LpStatus, SimplexBackend, SolverTuning};
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

/// Per-component tolerance for hyper-sparse vs dense-scan kernels: both run
/// over the *same* factorization, so they differ only in traversal order
/// and dropped ~0 entries — essentially bit-level agreement.
const KERNEL_TOL: f64 = 1e-9;

proptest! {
    /// On random solved LU bases, every kernel (ftran of each nonbasic
    /// column, btran of the objective costs, each row of B⁻¹) must produce
    /// the same vector on the hyper-sparse path and pinned to the dense
    /// scan (`force_dense`).  The hyper-sparse traversal is an access-order
    /// optimization, never an answer change.
    #[test]
    fn hyper_sparse_kernels_agree_with_dense_scan(
        seed in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0), 1..9),
        vars in 1usize..6,
    ) {
        let (lp, _ids) = decode(&seed, vars);
        // Infeasible/unbounded decodes have no basis to probe.
        let Some(mut fx) =
            cma_lp::bench_support::KernelFixture::solve(&lp, &SolverTuning::default())
        else {
            return;
        };
        let (mut hyper, mut dense) = (Vec::new(), Vec::new());
        let check = |hyper: &[f64], dense: &[f64], what: &str| {
            for (i, (h, d)) in hyper.iter().zip(dense).enumerate() {
                assert!(
                    (h - d).abs() <= KERNEL_TOL,
                    "{what}[{i}]: hyper {h} vs dense {d}"
                );
            }
        };
        for j in fx.nonbasic_cols() {
            fx.force_dense(false);
            fx.ftran_into(j, &mut hyper);
            fx.force_dense(true);
            fx.ftran_into(j, &mut dense);
            check(&hyper, &dense, "ftran");
        }
        fx.force_dense(false);
        fx.btran_into(&mut hyper);
        fx.force_dense(true);
        fx.btran_into(&mut dense);
        check(&hyper, &dense, "btran");
        for p in 0..fx.rows() {
            fx.force_dense(false);
            fx.inverse_row_into(p, &mut hyper);
            fx.force_dense(true);
            fx.inverse_row_into(p, &mut dense);
            check(&hyper, &dense, "inverse_row");
        }
    }
}
