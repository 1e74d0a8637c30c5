//! Random LPs shared by the LP integration tests.
// Each test crate compiles its own copy and uses a subset of the helpers.
#![allow(dead_code)]

use cma_lp::{Cmp, LpProblem, LpVarId};

/// Deterministically decodes a generated seed vector into an LP: a mix of
/// free/non-negative variables, Le/Ge/Eq rows with small half-integer
/// coefficients, and a signed objective.  Infeasible and unbounded instances
/// are generated on purpose, and the singleton and duplicate rows presolve
/// rewrites occur naturally at small variable counts.
pub fn decode(seed: &[(f64, f64, f64)], vars: usize) -> (LpProblem, Vec<LpVarId>) {
    let mut lp = LpProblem::new();
    let ids: Vec<LpVarId> = (0..vars)
        .map(|i| lp.add_var(format!("v{i}"), i % 3 == 0))
        .collect();
    for (i, &(a, b, c)) in seed.iter().enumerate() {
        let terms: Vec<(LpVarId, f64)> = ids
            .iter()
            .enumerate()
            .map(|(j, &v)| (v, ((a * (j as f64 + 1.0) + b).sin() * 4.0).round() / 2.0))
            .filter(|&(_, coeff)| coeff != 0.0)
            .collect();
        let cmp = match i % 3 {
            0 => Cmp::Le,
            1 => Cmp::Ge,
            _ => Cmp::Eq,
        };
        if terms.is_empty() {
            continue;
        }
        lp.add_constraint(terms, cmp, (c * 10.0).round() / 2.0);
    }
    lp.set_objective(
        ids.iter()
            .enumerate()
            .map(|(j, &v)| (v, if j % 2 == 0 { 1.0 } else { 0.5 }))
            .collect(),
    );
    (lp, ids)
}

/// The first `rows` constraint rows of `full` over the same variables (same
/// creation order, hence the same ids) and the same objective.
pub fn prefix(full: &LpProblem, rows: usize) -> LpProblem {
    let mut lp = LpProblem::new();
    for v in 0..full.num_vars() {
        let v = LpVarId::from_index(v);
        lp.add_var("", full.is_free(v));
    }
    for i in 0..rows.min(full.num_constraints()) {
        lp.add_constraint(full.constraint_terms(i).collect(), full.cmp(i), full.rhs(i));
    }
    lp.set_objective(full.objective().to_vec());
    lp
}

/// Appends rows `from..` of `full` to an open session.
pub fn add_rows_from(session: &mut dyn cma_lp::LpSession, full: &LpProblem, from: usize) {
    for i in from..full.num_constraints() {
        let terms: Vec<(LpVarId, f64)> = full.constraint_terms(i).collect();
        session.add_constraint(&terms, full.cmp(i), full.rhs(i));
    }
}
