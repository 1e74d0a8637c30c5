//! The [`LpBackend`] conformance suite.
//!
//! Every obligation of the backend contract (see `crates/lp/src/backend.rs`
//! and `DESIGN.md`) is exercised by `conformance::<B>()`, instantiated here
//! for the built-in [`SimplexBackend`] (under its former name
//! `SparseBackend` too).  A new backend earns its
//! place by adding one `#[test]` that calls the same function.
//! The suite covers both the one-shot `solve` path and the session
//! obligations (re-minimize determinism, incremental rows and columns).

use cma_lp::{Cmp, LpBackend, LpProblem, LpStatus, SimplexBackend, SparseBackend};

const TOL: f64 = 1e-6;

/// Runs the whole conformance suite against `backend`.
fn conformance<B: LpBackend>(backend: &B) {
    assert!(!backend.name().is_empty(), "backends must be nameable");
    solves_bounded_problems_to_optimality(backend);
    respects_equality_constraints(backend);
    handles_free_variables(backend);
    reports_infeasibility(backend);
    reports_unboundedness(backend);
    keeps_nonnegative_domains(backend);
    is_deterministic(backend);
    tolerates_empty_and_degenerate_problems(backend);
    session_matches_one_shot_solve(backend);
    session_reminimize_is_deterministic(backend);
    session_incremental_rows_match_scratch(backend);
    session_incremental_vars_match_scratch(backend);
    session_reports_infeasibility_of_added_rows(backend);
    batch_matches_sequential(backend);
}

/// Obligation 1: feasible bounded problems come back `Optimal` with the
/// minimum attained.
fn solves_bounded_problems_to_optimality<B: LpBackend>(backend: &B) {
    // minimize -x - 2y  s.t.  x + y <= 4, y <= 3; optimum -7 at (1, 3).
    let mut lp = LpProblem::new();
    let x = lp.add_var("x", false);
    let y = lp.add_var("y", false);
    lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
    lp.add_constraint(vec![(y, 1.0)], Cmp::Le, 3.0);
    lp.set_objective(vec![(x, -1.0), (y, -2.0)]);
    let sol = backend.solve(&lp);
    assert_eq!(sol.status, LpStatus::Optimal);
    assert!(
        (sol.objective - (-7.0)).abs() < TOL,
        "objective {}",
        sol.objective
    );
    assert!((sol.value(x) - 1.0).abs() < TOL);
    assert!((sol.value(y) - 3.0).abs() < TOL);
}

/// Obligation 1 (equalities): `=` rows hold exactly at the solution.
fn respects_equality_constraints<B: LpBackend>(backend: &B) {
    // minimize x + y  s.t.  x + y = 5, x >= 2  → optimum 5 with x in [2, 5].
    let mut lp = LpProblem::new();
    let x = lp.add_var("x", false);
    let y = lp.add_var("y", false);
    lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 5.0);
    lp.add_constraint(vec![(x, 1.0)], Cmp::Ge, 2.0);
    lp.set_objective(vec![(x, 1.0), (y, 1.0)]);
    let sol = backend.solve(&lp);
    assert_eq!(sol.status, LpStatus::Optimal);
    assert!((sol.objective - 5.0).abs() < TOL);
    assert!((sol.value(x) + sol.value(y) - 5.0).abs() < TOL);
    assert!(sol.value(x) >= 2.0 - TOL);
}

/// Obligation 4 (free variables): sign-unrestricted variables may go negative.
fn handles_free_variables<B: LpBackend>(backend: &B) {
    // minimize z  s.t.  z >= -10  → optimum -10 (z free).
    let mut lp = LpProblem::new();
    let z = lp.add_var("z", true);
    lp.add_constraint(vec![(z, 1.0)], Cmp::Ge, -10.0);
    lp.set_objective(vec![(z, 1.0)]);
    let sol = backend.solve(&lp);
    assert_eq!(sol.status, LpStatus::Optimal);
    assert!(
        (sol.value(z) - (-10.0)).abs() < TOL,
        "free var hit {}",
        sol.value(z)
    );
}

/// Obligation 2: contradictory constraints are `Infeasible`.
fn reports_infeasibility<B: LpBackend>(backend: &B) {
    let mut lp = LpProblem::new();
    let x = lp.add_var("x", false);
    lp.add_constraint(vec![(x, 1.0)], Cmp::Ge, 3.0);
    lp.add_constraint(vec![(x, 1.0)], Cmp::Le, 1.0);
    lp.set_objective(vec![(x, 1.0)]);
    assert_eq!(backend.solve(&lp).status, LpStatus::Infeasible);
}

/// Obligation 3: an objective unbounded below is `Unbounded`.
fn reports_unboundedness<B: LpBackend>(backend: &B) {
    // minimize -x  s.t.  x >= 0 (no upper bound).
    let mut lp = LpProblem::new();
    let x = lp.add_var("x", false);
    lp.add_constraint(vec![(x, 1.0)], Cmp::Ge, 0.0);
    lp.set_objective(vec![(x, -1.0)]);
    assert_eq!(backend.solve(&lp).status, LpStatus::Unbounded);
}

/// Obligation 4: non-negative variables stay ≥ 0 even when the objective
/// pushes them down.
fn keeps_nonnegative_domains<B: LpBackend>(backend: &B) {
    // minimize x + y  s.t.  x + y >= -5  → optimum 0 at the origin.
    let mut lp = LpProblem::new();
    let x = lp.add_var("x", false);
    let y = lp.add_var("y", false);
    lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, -5.0);
    lp.set_objective(vec![(x, 1.0), (y, 1.0)]);
    let sol = backend.solve(&lp);
    assert_eq!(sol.status, LpStatus::Optimal);
    assert!(sol.value(x) >= -TOL && sol.value(y) >= -TOL);
    assert!(sol.objective.abs() < TOL);
}

/// Obligation 5: re-solving yields the identical outcome.
fn is_deterministic<B: LpBackend>(backend: &B) {
    let mut lp = LpProblem::new();
    let vars: Vec<_> = (0..6)
        .map(|i| lp.add_var(format!("v{i}"), i % 2 == 0))
        .collect();
    for (i, pair) in vars.windows(2).enumerate() {
        lp.add_constraint(
            vec![(pair[0], 1.0), (pair[1], 0.5)],
            if i % 2 == 0 { Cmp::Le } else { Cmp::Ge },
            i as f64,
        );
    }
    lp.set_objective(vars.iter().map(|&v| (v, 1.0)).collect());
    let a = backend.solve(&lp);
    let b = backend.solve(&lp);
    assert_eq!(a.status, b.status);
    if a.status == LpStatus::Optimal {
        assert_eq!(a.objective, b.objective);
        assert_eq!(a.values(), b.values());
    }
}

/// Obligation 6: degenerate input must not panic.
fn tolerates_empty_and_degenerate_problems<B: LpBackend>(backend: &B) {
    // No variables, no constraints.
    let empty = LpProblem::new();
    let sol = backend.solve(&empty);
    assert_eq!(sol.status, LpStatus::Optimal);
    assert!(sol.objective.abs() < TOL);

    // A variable that appears in no constraint, minimized: bounded at 0 for a
    // non-negative variable.
    let mut lp = LpProblem::new();
    let x = lp.add_var("x", false);
    lp.set_objective(vec![(x, 1.0)]);
    let sol = backend.solve(&lp);
    assert_eq!(sol.status, LpStatus::Optimal);
    assert!(sol.value(x).abs() < TOL);
}

/// A reference polytope with a non-trivial optimum, reused by the session
/// obligations:  minimize -x - 2y  s.t.  x + y <= 4, y <= 3.
fn session_problem() -> (LpProblem, cma_lp::LpVarId, cma_lp::LpVarId) {
    let mut lp = LpProblem::new();
    let x = lp.add_var("x", false);
    let y = lp.add_var("y", false);
    lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
    lp.add_constraint(vec![(y, 1.0)], Cmp::Le, 3.0);
    (lp, x, y)
}

/// Obligation 1 via sessions: `open` + `minimize` agrees with `solve`.
fn session_matches_one_shot_solve<B: LpBackend>(backend: &B) {
    let (mut lp, x, y) = session_problem();
    lp.set_objective(vec![(x, -1.0), (y, -2.0)]);
    let one_shot = backend.solve(&lp);
    let via_session = backend.open(&lp).minimize(lp.objective());
    assert_eq!(one_shot.status, via_session.status);
    assert!((one_shot.objective - via_session.objective).abs() < TOL);
}

/// Obligation 5 (sessions): re-minimizing the same objective — including
/// after solving a different objective in between — yields identical results.
fn session_reminimize_is_deterministic<B: LpBackend>(backend: &B) {
    let (lp, x, y) = session_problem();
    let mut session = backend.open(&lp);
    let obj_a = [(x, -1.0), (y, -2.0)];
    let obj_b = [(x, 1.0), (y, 1.0)];
    let first = session.minimize(&obj_a);
    let between = session.minimize(&obj_b);
    let second = session.minimize(&obj_a);
    assert_eq!(first.status, LpStatus::Optimal);
    assert_eq!(first.status, second.status);
    assert_eq!(first.objective, second.objective, "re-minimize drifted");
    assert_eq!(first.values(), second.values());
    // The in-between objective is a genuinely different solve.
    assert!((between.objective - 0.0).abs() < TOL);
    assert!((first.objective - (-7.0)).abs() < TOL);
}

/// Soundness of incremental rows: a session extended row by row must agree
/// with solving the fully assembled problem from scratch.
fn session_incremental_rows_match_scratch<B: LpBackend>(backend: &B) {
    let (lp, x, y) = session_problem();
    let objective = [(x, -1.0), (y, -2.0)];
    let mut session = backend.open(&lp);
    assert!(session.minimize(&objective).is_optimal());

    // Layer three rows on top, one at a time, mixing satisfied rows, cutting
    // rows, and an equality; compare against a from-scratch solve each time.
    type Row<'a> = (&'a [(cma_lp::LpVarId, f64)], Cmp, f64);
    let additions: [Row; 3] = [
        (&[(x, 1.0), (y, 1.0)], Cmp::Ge, 1.0), // already satisfied
        (&[(y, 1.0)], Cmp::Le, 1.0),           // cuts the current optimum
        (&[(x, 1.0)], Cmp::Eq, 2.0),           // equality pin
    ];
    let mut scratch = lp.clone();
    for (terms, cmp, rhs) in additions {
        session.add_constraint(terms, cmp, rhs);
        scratch.add_constraint(terms.to_vec(), cmp, rhs);
        scratch.set_objective(objective.to_vec());
        let incremental = session.minimize(&objective);
        let reference = backend.solve(&scratch);
        assert_eq!(incremental.status, reference.status);
        assert!(
            (incremental.objective - reference.objective).abs() < TOL,
            "incremental {} vs scratch {}",
            incremental.objective,
            reference.objective
        );
    }
    assert_eq!(session.num_constraints(), 5);
}

/// Soundness of incremental columns: a variable added mid-session behaves
/// exactly like one declared up front.
fn session_incremental_vars_match_scratch<B: LpBackend>(backend: &B) {
    let (lp, x, y) = session_problem();
    let mut session = backend.open(&lp);
    assert!(session.minimize(&[(x, -1.0), (y, -2.0)]).is_optimal());
    let z = session.add_var("z", true);
    session.add_constraint(&[(z, 1.0)], Cmp::Ge, -2.5);
    let sol = session.minimize(&[(z, 1.0)]);
    assert_eq!(sol.status, LpStatus::Optimal);
    assert!(
        (sol.value(z) - (-2.5)).abs() < TOL,
        "free var {}",
        sol.value(z)
    );
    assert_eq!(session.num_vars(), 3);
}

/// Obligation 2 via sessions: rows that contradict the existing system flip
/// the session to `Infeasible`, deterministically.
fn session_reports_infeasibility_of_added_rows<B: LpBackend>(backend: &B) {
    let (lp, x, _y) = session_problem();
    let mut session = backend.open(&lp);
    assert!(session.minimize(&[(x, 1.0)]).is_optimal());
    session.add_constraint(&[(x, 1.0)], Cmp::Ge, 100.0); // x + y <= 4 forbids this
    assert_eq!(session.minimize(&[(x, 1.0)]).status, LpStatus::Infeasible);
    assert_eq!(session.minimize(&[(x, 1.0)]).status, LpStatus::Infeasible);
}

/// `solve_batch` must agree with one-by-one solves regardless of thread count.
fn batch_matches_sequential<B: LpBackend>(backend: &B) {
    let problems: Vec<LpProblem> = (0..5)
        .map(|i| {
            let mut lp = LpProblem::new();
            let x = lp.add_var("x", false);
            let y = lp.add_var("y", i % 2 == 0);
            lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, i as f64 + 1.0);
            lp.add_constraint(vec![(y, 1.0)], Cmp::Ge, -1.0);
            lp.set_objective(vec![(x, -1.0), (y, 1.0)]);
            lp
        })
        .collect();
    let sequential: Vec<_> = problems.iter().map(|p| backend.solve(p)).collect();
    for threads in [1, 3, 8] {
        let batch = backend.solve_batch(&problems, threads);
        assert_eq!(batch.len(), sequential.len());
        for (b, s) in batch.iter().zip(&sequential) {
            assert_eq!(b.status, s.status);
            assert!((b.objective - s.objective).abs() < TOL);
        }
    }
}

#[test]
fn simplex_backend_conforms() {
    conformance(&SimplexBackend);
}

/// The former name of the solver keeps naming a conforming backend.
#[test]
fn sparse_backend_conforms() {
    conformance(&SparseBackend);
}

#[test]
fn borrowed_and_dyn_backends_conform() {
    // The blanket impl for references must preserve conformance.
    let backend = SimplexBackend;
    conformance(&&backend);
    let dynamic: &dyn LpBackend = &backend;
    conformance(&dynamic);
}
