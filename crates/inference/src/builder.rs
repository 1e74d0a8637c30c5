//! The LP constraint builder.
//!
//! Collects the linear constraints emitted by the derivation rules (§3.4)
//! and the objective that rewards tight bounds.  Inference LPs are `=`
//! systems: template coefficients are free columns, certificate
//! multipliers non-negative ones, and every rule matches coefficients
//! ([`constrain_zero_coef`](ConstraintBuilder::constrain_zero_coef)), so
//! no column has an upper bound.  Rows are emitted sparsely into a shared
//! [`ConstraintStore`], which the engine either snapshots into one
//! [`cma_lp::LpProblem`] per group (batch solving) or flushes incrementally
//! into an open [`cma_lp::LpSession`] (degree escalation extends the live
//! system this way instead of re-deriving it).
//!
//! Columns are anonymous: a template coefficient or a certificate
//! multiplier is its [`LpVarId`] and nothing else, so minting one builds
//! no string.  Annotations are minted only through
//! [`planned_moment`](ConstraintBuilder::planned_moment), at the next slot
//! of the builder's [`DerivationPlan`].

use cma_lp::{Cmp, LpBackend, LpSolution, LpVarId, SimplexBackend};
use cma_semiring::poly::{Monomial, Var};

use crate::plan::DerivationPlan;
use crate::store::ConstraintStore;
use crate::template::{LinCoef, SymInterval, SymMoment, TemplatePoly};

/// Builder that accumulates LP variables, constraints, and the objective.
///
/// The builder also carries the run's [`DerivationPlan`]: the walk records
/// template slots into it (or replays against it) through
/// [`planned_moment`](Self::planned_moment), and consults it through the
/// gate [`require_contains`](crate::weaken::require_contains) uses.
#[derive(Debug, Default)]
pub struct ConstraintBuilder {
    store: ConstraintStore,
    plan: DerivationPlan,
}

impl ConstraintBuilder {
    /// Creates an empty builder (with an empty plan).
    pub fn new() -> Self {
        ConstraintBuilder::default()
    }

    /// Number of LP variables created so far.
    pub fn num_vars(&self) -> usize {
        self.store.num_vars()
    }

    /// Number of LP constraints emitted so far.
    pub fn num_constraints(&self) -> usize {
        self.store.num_constraints()
    }

    /// The underlying constraint store.
    pub fn store(&self) -> &ConstraintStore {
        &self.store
    }

    /// Mutable access to the underlying constraint store (the engine opens
    /// sessions and flushes increments through it).
    pub fn store_mut(&mut self) -> &mut ConstraintStore {
        &mut self.store
    }

    /// The derivation plan this builder records into / replays against.
    pub fn plan(&self) -> &DerivationPlan {
        &self.plan
    }

    /// Mutable access to the plan (the engine ends each walk through it).
    pub fn plan_mut(&mut self) -> &mut DerivationPlan {
        &mut self.plan
    }

    /// A fresh free (sign-unrestricted) LP unknown for a template coefficient.
    pub fn fresh_coefficient(&mut self) -> LpVarId {
        self.store.add_var(true)
    }

    /// A fresh non-negative LP unknown (used for certificate multipliers).
    pub fn fresh_multiplier(&mut self) -> LpVarId {
        self.store.add_var(false)
    }

    /// A fresh template polynomial over `vars` with total degree ≤ `degree`.
    pub fn fresh_poly(&mut self, vars: &[Var], degree: u32) -> TemplatePoly {
        fresh_poly(&mut self.store, vars, degree)
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
        let store = &mut self.store;
        self.plan.moment(level, m, |k| {
            if k < level {
                return SymInterval::zero();
            }
            let degree = component_degree(k, poly_degree);
            SymInterval {
                lo: fresh_poly(store, vars, degree),
                hi: fresh_poly(store, vars, degree),
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
                self.store.add_constraint(vec![(dummy, 0.0)], Cmp::Eq, 1.0);
            }
            return;
        }
        self.store
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
            self.store.add_objective_term(v, c * weight);
        }
    }

    /// Solves the accumulated problem with the default simplex backend.
    pub fn solve(&mut self) -> LpSolution {
        self.solve_with(&SimplexBackend)
    }

    /// Solves the accumulated problem with the given [`LpBackend`]
    /// (duplicate objective entries aggregate).
    pub fn solve_with(&mut self, backend: &dyn LpBackend) -> LpSolution {
        backend.solve(&self.store.to_problem())
    }
}

/// A fresh template polynomial over `vars` with total degree ≤ `degree`,
/// one free column per monomial.
fn fresh_poly(store: &mut ConstraintStore, vars: &[Var], degree: u32) -> TemplatePoly {
    TemplatePoly::from_terms(
        Monomial::all_up_to_degree(vars, degree)
            .into_iter()
            .map(|m| (m, LinCoef::var(store.add_var(true)))),
    )
}

/// Template degree of the `k`-th moment component under base degree `d`.
fn component_degree(k: usize, poly_degree: u32) -> u32 {
    (k as u32 * poly_degree).max(if k == 0 { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let five = LinCoef::constant(5.0);
        let diff = p.coefficient(&Monomial::unit()).sub(&five);
        b.store_mut()
            .add_constraint(diff.terms().collect(), Cmp::Ge, -diff.constant_part());
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
}
