//! Duality certificates for the solver's answers (after Neumaier &
//! Shcherbina, "Safe bounds in linear and mixed-integer programming",
//! Math. Prog. 2004).
//!
//! The solver's optimum is checked against its LP dual instead of against
//! another configuration of the same simplex.  For a primal
//! `min cᵀx s.t. a_iᵀx {≤,≥,=} b_i`, `x_j ≥ 0` or free, the dual is
//! `max bᵀy s.t. (Aᵀy)_j ≤ c_j` on non-negative columns and `= c_j` on free
//! ones, with `y_i ≤ 0` on `≤` rows and `y_i ≥ 0` on `≥` rows.  The test
//! builds that dual explicitly, solves it, and then verifies by plain
//! arithmetic over the problem data — not through the solver — that the
//! primal point is feasible, the dual point is feasible, and the two
//! objectives meet: `|cᵀx − bᵀy| ≤ 1e-6·(1 + |cᵀx|)`.  Weak duality makes
//! that a proof of optimality up to the tolerances.  A primal that is
//! infeasible or unbounded must meet a dual that is not optimal.

mod common;

use cma_lp::{Cmp, LpBackend, LpProblem, LpSolution, LpStatus, LpVarId, SimplexBackend};
use common::{add_rows_from, decode, prefix};
use proptest::prelude::*;

/// Feasibility and duality-gap tolerance (relative to `1 + |value|`).
const TOL: f64 = 1e-6;

/// The explicit dual of `lp` (see the module docs), as a minimization of
/// `−bᵀy`.  Dual variable `i` belongs to row `i`; a `≤` row's multiplier is
/// stored negated (`u_i = −y_i ≥ 0`), so [`dual_values`] undoes the sign.
fn dual_of(lp: &LpProblem) -> LpProblem {
    let mut dual = LpProblem::new();
    let y: Vec<LpVarId> = (0..lp.num_constraints())
        .map(|i| dual.add_var(format!("y{i}"), lp.cmp(i) == Cmp::Eq))
        .collect();
    // sign[i]·u_i = y_i.
    let sign = |i: usize| if lp.cmp(i) == Cmp::Le { -1.0 } else { 1.0 };
    let mut columns: Vec<Vec<(LpVarId, f64)>> = vec![Vec::new(); lp.num_vars()];
    for (i, &yi) in y.iter().enumerate() {
        for (v, a) in lp.constraint_terms(i) {
            columns[v.index()].push((yi, sign(i) * a));
        }
    }
    let costs = objective_vector(lp);
    for (j, terms) in columns.into_iter().enumerate() {
        let free = lp.is_free(LpVarId::from_index(j));
        dual.add_constraint(terms, if free { Cmp::Eq } else { Cmp::Le }, costs[j]);
    }
    dual.set_objective(
        y.iter()
            .enumerate()
            .map(|(i, &yi)| (yi, -sign(i) * lp.rhs(i)))
            .collect(),
    );
    dual
}

/// The row multipliers `y` of a solved [`dual_of`].
fn dual_values(lp: &LpProblem, dual: &LpSolution) -> Vec<f64> {
    (0..lp.num_constraints())
        .map(|i| {
            let u = dual.value(LpVarId::from_index(i));
            if lp.cmp(i) == Cmp::Le {
                -u
            } else {
                u
            }
        })
        .collect()
}

/// The objective as a dense cost vector (duplicate terms add up).
fn objective_vector(lp: &LpProblem) -> Vec<f64> {
    let mut c = vec![0.0; lp.num_vars()];
    for &(v, coeff) in lp.objective() {
        c[v.index()] += coeff;
    }
    c
}

/// Checks the certificate `(x, y)` for `lp` by plain arithmetic: primal
/// feasibility, dual feasibility, and a closed duality gap.
fn certify(lp: &LpProblem, x: &[f64], y: &[f64]) -> Result<(), String> {
    let near = |a: f64, b: f64| (a - b).abs() <= TOL * (1.0 + b.abs());
    for (j, &xj) in x.iter().enumerate() {
        if !lp.is_free(LpVarId::from_index(j)) && xj < -TOL {
            return Err(format!("x{j} = {xj} violates x{j} >= 0"));
        }
    }
    let mut aty = vec![0.0; lp.num_vars()];
    for (i, &yi) in y.iter().enumerate() {
        let (lhs, rhs) = (
            lp.constraint_terms(i)
                .map(|(v, a)| a * x[v.index()])
                .sum::<f64>(),
            lp.rhs(i),
        );
        let slack = TOL * (1.0 + rhs.abs());
        let (row_ok, sign_ok) = match lp.cmp(i) {
            Cmp::Le => (lhs <= rhs + slack, yi <= TOL),
            Cmp::Ge => (lhs >= rhs - slack, yi >= -TOL),
            Cmp::Eq => ((lhs - rhs).abs() <= slack, true),
        };
        if !row_ok {
            return Err(format!("row {i}: {lhs} {:?} {rhs} violated", lp.cmp(i)));
        }
        if !sign_ok {
            return Err(format!("y{i} = {yi} has the wrong sign"));
        }
        for (v, a) in lp.constraint_terms(i) {
            aty[v.index()] += a * yi;
        }
    }
    let c = objective_vector(lp);
    for (j, (&cj, &rj)) in c.iter().zip(&aty).enumerate() {
        let free = lp.is_free(LpVarId::from_index(j));
        let ok = if free {
            near(rj, cj)
        } else {
            rj <= cj + TOL * (1.0 + cj.abs())
        };
        if !ok {
            return Err(format!("dual row {j}: (Aᵀy)_{j} = {rj} vs c_{j} = {cj}"));
        }
    }
    let primal: f64 = c.iter().zip(x).map(|(cj, xj)| cj * xj).sum();
    let dual: f64 = y.iter().enumerate().map(|(i, yi)| lp.rhs(i) * yi).sum();
    if (primal - dual).abs() > TOL * (1.0 + primal.abs()) {
        return Err(format!("duality gap: cᵀx = {primal} vs bᵀy = {dual}"));
    }
    Ok(())
}

/// Judges the solver's answer `solution` for `lp` against the explicit dual.
fn check_against_dual(lp: &LpProblem, solution: &LpSolution) -> Result<(), String> {
    let dual_lp = dual_of(lp);
    let dual = SimplexBackend.solve(&dual_lp);
    match solution.status {
        LpStatus::Optimal => {
            if dual.status != LpStatus::Optimal {
                return Err(format!("optimal primal met a {:?} dual", dual.status));
            }
            certify(lp, solution.values(), &dual_values(lp, &dual))
        }
        LpStatus::Infeasible | LpStatus::Unbounded => {
            if dual.status == LpStatus::Optimal {
                return Err(format!("{:?} primal met an optimal dual", solution.status));
            }
            Ok(())
        }
        LpStatus::BudgetExhausted => Err("no verdict on a tiny LP".into()),
    }
}

proptest! {
    #[test]
    fn one_shot_optima_carry_a_duality_certificate(
        seed in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0), 1..9),
        vars in 1usize..6,
    ) {
        let (lp, _ids) = decode(&seed, vars);
        for solution in [SimplexBackend.solve(&lp), lp.solve()] {
            prop_assert_eq!(check_against_dual(&lp, &solution), Ok(()));
        }
    }

    #[test]
    fn incremental_row_sessions_carry_a_duality_certificate(
        seed in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0), 2..8),
        vars in 1usize..5,
        split in 1usize..4,
    ) {
        // Open the session on a prefix of the rows, feed the rest
        // incrementally, and certify the warm answer against the dual of
        // the assembled system.
        let (full, _ids) = decode(&seed, vars);
        let split = split.min(full.num_constraints());
        let mut session = SimplexBackend.open(&prefix(&full, split));
        session.minimize(full.objective());
        add_rows_from(session.as_mut(), &full, split);
        let incremental = session.minimize(full.objective());
        prop_assert_eq!(check_against_dual(&full, &incremental), Ok(()));
    }
}

/// The check has teeth: a known optimum certifies, and the same point with
/// one value 1e-3 off on a tight row does not.
#[test]
fn a_corrupted_optimum_fails_the_certificate() {
    // minimize -x - 2y  s.t.  x + y <= 4, y <= 3: optimum -7 at (1, 3),
    // where both rows are tight.
    let mut lp = LpProblem::new();
    let x = lp.add_var("x", false);
    let y = lp.add_var("y", false);
    lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
    lp.add_constraint(vec![(y, 1.0)], Cmp::Le, 3.0);
    lp.set_objective(vec![(x, -1.0), (y, -2.0)]);
    let solution = SimplexBackend.solve(&lp);
    assert_eq!(solution.status, LpStatus::Optimal);
    assert_eq!(check_against_dual(&lp, &solution), Ok(()));

    let multipliers = dual_values(&lp, &SimplexBackend.solve(&dual_of(&lp)));
    let mut point = solution.values().to_vec();
    certify(&lp, &point, &multipliers).expect("the optimum certifies");
    point[x.index()] += 1e-3;
    let verdict = certify(&lp, &point, &multipliers);
    assert!(verdict.is_err(), "a 1e-3 violation of x + y <= 4 passed");
}
