//! The LP constraint builder.
//!
//! Collects the linear constraints emitted by the derivation rules (§3.4)
//! and the objective that rewards tight bounds.  Inference LPs are `=`
//! systems: template coefficients are free columns, certificate
//! multipliers non-negative ones, and every rule matches coefficients
//! ([`constrain_zero_coef`](ConstraintBuilder::constrain_zero_coef)), so
//! no column has an upper bound.
//!
//! One builder owns one group's LP: the sparse [`LpProblem`] under
//! construction, the raw objective terms, how much of it an open
//! [`LpSession`] already holds, and the [`DerivationPlan`] its walks
//! record.  The engine either snapshots it into one problem per group
//! ([`to_problem`](ConstraintBuilder::to_problem), batch solving) or opens
//! a session over it ([`open_session`](ConstraintBuilder::open_session))
//! and later [`flush`](ConstraintBuilder::flush)es just the increment into
//! that session: degree escalation extends the live system this way
//! instead of re-deriving it.  Flushing relies on the session contract of
//! `cma-lp`: a session shares the id space of the problem it was opened
//! on, and ids created through `LpSession::add_var` continue that space,
//! so the builder keeps allocating columns locally and replays them into
//! the session in order.
//!
//! Columns are anonymous: a template coefficient or a certificate
//! multiplier is its [`LpVarId`] and nothing else, so minting one builds
//! no string.  Annotations are minted only through
//! [`planned_moment`](ConstraintBuilder::planned_moment), at the next slot
//! of the builder's [`DerivationPlan`].

use std::collections::BTreeMap;

use cma_lp::{
    Cmp, LpBackend, LpProblem, LpSession, LpSolution, LpVarId, SimplexBackend, SolverTuning,
};
use cma_semiring::poly::{Monomial, Var};

use crate::plan::DerivationPlan;
use crate::template::{LinCoef, SymInterval, SymMoment, TemplatePoly};

/// Builder that accumulates LP variables, constraints, and the objective.
///
/// The builder also carries the run's [`DerivationPlan`]: the walk records
/// template slots into it (or replays against it) through
/// [`planned_moment`](Self::planned_moment), and consults it through the
/// gate [`require_contains`](crate::weaken::require_contains) uses.
#[derive(Debug, Default)]
pub struct ConstraintBuilder {
    problem: LpProblem,
    objective: Vec<(LpVarId, f64)>,
    flushed_vars: usize,
    flushed_rows: usize,
    pub(crate) plan: DerivationPlan,
}

impl ConstraintBuilder {
    /// Creates an empty builder (with an empty plan).
    pub fn new() -> Self {
        ConstraintBuilder::default()
    }

    /// Number of LP variables created so far.
    pub fn num_vars(&self) -> usize {
        self.problem.num_vars()
    }

    /// Number of LP constraints emitted so far.
    pub fn num_constraints(&self) -> usize {
        self.problem.num_constraints()
    }

    /// A fresh non-negative LP unknown (used for certificate multipliers).
    pub fn fresh_multiplier(&mut self) -> LpVarId {
        self.problem.add_var("", false)
    }

    /// A fresh template polynomial over `vars` with total degree ≤ `degree`.
    pub fn fresh_poly(&mut self, vars: &[Var], degree: u32) -> TemplatePoly {
        fresh_poly(&mut self.problem, vars, degree)
    }

    /// The `level`-restricted moment annotation of degree `m` at the
    /// template slot the walk visits next: components `k < level` are the
    /// zero interval, and component `k ≥ level` is a template of polynomial
    /// degree `k · poly_degree`.  The slot is resolved against the builder's
    /// [`DerivationPlan`], so components an earlier walk already minted are
    /// *reused* (their LP columns come back verbatim) and only new
    /// components allocate fresh coefficients.
    pub fn planned_moment(
        &mut self,
        vars: &[Var],
        m: usize,
        poly_degree: u32,
        level: usize,
    ) -> SymMoment {
        let problem = &mut self.problem;
        self.plan.moment(level, m, |k| {
            if k < level {
                return SymInterval::zero();
            }
            let degree = component_degree(k, poly_degree);
            SymInterval {
                lo: fresh_poly(problem, vars, degree),
                hi: fresh_poly(problem, vars, degree),
            }
        })
    }

    /// Gate for a constraint recipe at restriction level `level` about to
    /// instantiate components `0..=m`: the first component whose rows must
    /// actually be emitted (see [`DerivationPlan::recipe_gate`]).
    pub fn recipe_gate(&mut self, level: usize, m: usize) -> usize {
        self.plan.recipe_gate(level, m)
    }

    /// Emits the constraint `coef = 0`.
    pub fn constrain_zero_coef(&mut self, coef: &LinCoef) {
        let terms: Vec<(LpVarId, f64)> = coef.terms().collect();
        if terms.is_empty() {
            // A non-zero constant with no unknowns can never be satisfied; emit
            // an explicitly infeasible constraint so the solver reports it.
            if coef.constant_part().abs() > 1e-9 {
                let dummy = self.fresh_multiplier();
                self.problem
                    .add_constraint(vec![(dummy, 0.0)], Cmp::Eq, 1.0);
            }
            return;
        }
        self.problem
            .add_constraint(terms, Cmp::Eq, -coef.constant_part());
    }

    /// Emits `poly = 0` coefficient-wise (one equality per monomial).
    pub fn constrain_zero_poly(&mut self, poly: &TemplatePoly) {
        for (_, coef) in poly.terms() {
            self.constrain_zero_coef(coef);
        }
    }

    /// Adds `weight · value(coef)` to the minimization objective.
    pub fn add_objective(&mut self, coef: &LinCoef, weight: f64) {
        for (v, c) in coef.terms() {
            self.objective.push((v, c * weight));
        }
    }

    /// The objective terms aggregated by variable (the form
    /// [`LpSession::minimize`] expects).
    pub fn objective(&self) -> Vec<(LpVarId, f64)> {
        let mut aggregated: BTreeMap<LpVarId, f64> = BTreeMap::new();
        for &(v, c) in &self.objective {
            *aggregated.entry(v).or_insert(0.0) += c;
        }
        aggregated.into_iter().collect()
    }

    /// A solve-ready snapshot: the constraint system with the full
    /// aggregated objective set (what `solve_batch` consumes).
    pub fn to_problem(&self) -> LpProblem {
        let mut problem = self.problem.clone();
        problem.set_objective(self.objective());
        problem
    }

    /// Opens a backend session over the system built so far, under
    /// `tuning` (the session budget), and marks all of it as flushed.
    pub fn open_session<'a>(
        &mut self,
        backend: &'a dyn LpBackend,
        tuning: &SolverTuning,
    ) -> Box<dyn LpSession + 'a> {
        let session = backend.open_with(&self.problem, tuning);
        self.flushed_vars = self.problem.num_vars();
        self.flushed_rows = self.problem.num_constraints();
        session
    }

    /// Replays everything added since the last open/flush — new variables
    /// (their kinds) first, then new rows — into the session, preserving the
    /// shared id space.
    pub fn flush(&mut self, session: &mut dyn LpSession) {
        for index in self.flushed_vars..self.problem.num_vars() {
            let var = LpVarId::from_index(index);
            let mirrored = session.add_var("", self.problem.is_free(var));
            debug_assert_eq!(mirrored, var, "session id space diverged from the builder");
        }
        self.flushed_vars = self.problem.num_vars();
        for row in self.flushed_rows..self.problem.num_constraints() {
            let terms: Vec<(LpVarId, f64)> = self.problem.constraint_terms(row).collect();
            session.add_constraint(&terms, self.problem.cmp(row), self.problem.rhs(row));
        }
        self.flushed_rows = self.problem.num_constraints();
    }

    /// Solves the accumulated problem with the default simplex backend.
    pub fn solve(&self) -> LpSolution {
        SimplexBackend.solve(&self.to_problem())
    }
}

/// A fresh template polynomial over `vars` with total degree ≤ `degree`,
/// one free column per monomial.
fn fresh_poly(problem: &mut LpProblem, vars: &[Var], degree: u32) -> TemplatePoly {
    TemplatePoly::from_terms(
        Monomial::all_up_to_degree(vars, degree)
            .into_iter()
            .map(|m| (m, LinCoef::var(problem.add_var("", true)))),
    )
}

/// Template degree of the `k`-th moment component under base degree `d`.
fn component_degree(k: usize, poly_degree: u32) -> u32 {
    (k as u32 * poly_degree).max(if k == 0 { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cma_lp::{LpStatus, SparseBackend};
    use cma_semiring::poly::Polynomial;

    #[test]
    fn fresh_poly_has_all_monomials() {
        let mut b = ConstraintBuilder::new();
        let vars = [Var::new("x"), Var::new("y")];
        let p = b.fresh_poly(&vars, 2);
        assert_eq!(p.monomials().count(), 6);
        assert_eq!(b.num_vars(), 6);
    }

    #[test]
    fn fresh_moment_respects_restriction() {
        let mut b = ConstraintBuilder::new();
        let vars = [Var::new("x")];
        let q = b.planned_moment(&vars, 2, 1, 1);
        assert!(q.component(0).is_zero());
        assert!(!q.component(1).is_zero());
        assert!(!q.component(2).is_zero());
        // Degree of the k-th component is k.
        assert_eq!(q.component(2).hi.monomials().count(), 3);
    }

    #[test]
    fn constrain_zero_poly_pins_template_to_concrete_value() {
        // fresh p(x) constrained to equal 3x + 1, objective irrelevant.
        let mut b = ConstraintBuilder::new();
        let x = Var::new("x");
        let p = b.fresh_poly(std::slice::from_ref(&x), 1);
        let target = TemplatePoly::from_concrete(
            &Polynomial::var(x.clone())
                .scale(3.0)
                .add(&Polynomial::constant(1.0)),
        );
        b.constrain_zero_poly(&p.sub(&target));
        let sol = b.solve();
        assert!(sol.is_optimal());
        let resolved = p.resolve(&|v| sol.value(v));
        assert!((resolved.coefficient(&Monomial::var(x.clone())) - 3.0).abs() < 1e-6);
        assert!((resolved.coefficient(&Monomial::unit()) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn objective_minimizes_upper_end() {
        // p(x) >= 5 at coefficient level (constant term), minimize its value at x=0.
        let mut b = ConstraintBuilder::new();
        let x = Var::new("x");
        let p = b.fresh_poly(std::slice::from_ref(&x), 1);
        // The constant term minus 5 equals a non-negative multiplier.
        let slack = LinCoef::var(b.fresh_multiplier());
        b.constrain_zero_coef(
            &p.coefficient(&Monomial::unit())
                .sub(&LinCoef::constant(5.0))
                .sub(&slack),
        );
        // Also force the x coefficient to be exactly 2.
        b.constrain_zero_coef(
            &p.coefficient(&Monomial::var(x.clone()))
                .sub(&LinCoef::constant(2.0)),
        );
        let at_zero = p.eval_vars(&|_| 0.0);
        b.add_objective(&at_zero, 1.0);
        let sol = b.solve();
        assert!(sol.is_optimal());
        let resolved = p.resolve(&|v| sol.value(v));
        assert!((resolved.coefficient(&Monomial::unit()) - 5.0).abs() < 1e-6);
        assert!((resolved.coefficient(&Monomial::var(x)) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn impossible_constant_constraint_is_infeasible() {
        let mut b = ConstraintBuilder::new();
        b.constrain_zero_coef(&LinCoef::constant(1.0));
        let sol = b.solve();
        assert!(!sol.is_optimal());
    }

    /// Emits `Σ vars = rhs`.
    fn constrain_sum(b: &mut ConstraintBuilder, vars: &[LpVarId], rhs: f64) {
        let sum = vars
            .iter()
            .fold(LinCoef::constant(-rhs), |acc, &v| acc.add(&LinCoef::var(v)));
        b.constrain_zero_coef(&sum);
    }

    fn backend_roundtrip(backend: &dyn LpBackend) {
        // Multipliers serve as the slacks of the `≤`/`≥` rows.
        let mut b = ConstraintBuilder::new();
        let x = b.fresh_multiplier();
        let y = b.fresh_multiplier();
        let s = b.fresh_multiplier();
        constrain_sum(&mut b, &[x, y, s], 4.0); // x + y ≤ 4
        b.add_objective(&LinCoef::var(x), -1.0);
        b.add_objective(&LinCoef::var(y), -2.0);
        b.add_objective(&LinCoef::var(y), 0.0); // duplicate entries aggregate

        let mut session = b.open_session(backend, &SolverTuning::default());
        let first = session.minimize(&b.objective());
        assert_eq!(first.status, LpStatus::Optimal);
        assert!((first.objective - (-8.0)).abs() < 1e-6); // y = 4

        // Extend: a new variable, a cutting row, and an objective term.
        let z = b.fresh_multiplier();
        let s_y = b.fresh_multiplier();
        constrain_sum(&mut b, &[y, s_y], 1.0); // y ≤ 1
        let s_zx = b.fresh_multiplier();
        b.constrain_zero_coef(
            &LinCoef::var(z)
                .add(&LinCoef::var(x))
                .sub(&LinCoef::var(s_zx))
                .sub(&LinCoef::constant(2.0)),
        ); // z + x ≥ 2
        b.add_objective(&LinCoef::var(z), 1.0);
        b.flush(session.as_mut());
        assert_eq!(session.num_vars(), 6);
        assert_eq!(session.num_constraints(), 3);

        let ext = session.minimize(&[(z, 1.0)]);
        assert_eq!(ext.status, LpStatus::Optimal);
        // minimize z s.t. x + z >= 2, x + y <= 4, y <= 1: z can reach 0.
        assert!(ext.objective.abs() < 1e-6);

        // The full objective still solves over the extended system.
        let full = session.minimize(&b.objective());
        assert_eq!(full.status, LpStatus::Optimal);
        assert!((full.objective - (-5.0)).abs() < 1e-6); // x = 3, y = 1, z = 0
    }

    #[test]
    fn flush_roundtrips_through_both_backends() {
        backend_roundtrip(&SimplexBackend);
        backend_roundtrip(&SparseBackend);
    }

    #[test]
    fn to_problem_carries_the_aggregated_objective() {
        let mut b = ConstraintBuilder::new();
        let x = b.fresh_multiplier();
        let s = b.fresh_multiplier();
        constrain_sum(&mut b, &[x, s], 5.0); // x ≤ 5
        b.add_objective(&LinCoef::var(x), -0.5);
        b.add_objective(&LinCoef::var(x), -0.5);
        let problem = b.to_problem();
        assert_eq!(problem.objective(), &[(x, -1.0)]);
        let sol = problem.solve();
        assert!((sol.value(x) - 5.0).abs() < 1e-6);
    }
}
