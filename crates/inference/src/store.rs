//! The shared constraint store.
//!
//! One analysis run builds one constraint system per solved group, and degree
//! escalation extends the main group's store instead of re-deriving it: it
//! appends the new moment components.  The [`ConstraintStore`] makes that
//! sharing explicit: it owns the sparse [`LpProblem`] under construction
//! plus the raw objective terms, tracks how much of it has already been
//! handed to an open [`LpSession`], and can flush just the increment (new
//! variables, new rows) into that session.
//!
//! The store relies on the session contract of `cma-lp`: a session shares
//! the id space of the problem it was opened on, and ids created through
//! `LpSession::add_var` continue that space — so the store can keep
//! allocating variables locally and replay them into the session in order.

use cma_lp::{Cmp, LpBackend, LpProblem, LpSession, LpVarId, SolverTuning};

/// A sparse constraint system under construction, with incremental flushing
/// into an open solver session.
#[derive(Debug, Default)]
pub struct ConstraintStore {
    problem: LpProblem,
    objective: Vec<(LpVarId, f64)>,
    flushed_vars: usize,
    flushed_rows: usize,
}

impl ConstraintStore {
    /// An empty store.
    pub fn new() -> Self {
        ConstraintStore::default()
    }

    /// Adds an anonymous variable (non-negative unless `free`).
    pub fn add_var(&mut self, free: bool) -> LpVarId {
        self.problem.add_var("", free)
    }

    /// Appends the constraint `Σ coeff·var cmp rhs`.
    pub fn add_constraint(&mut self, terms: Vec<(LpVarId, f64)>, cmp: Cmp, rhs: f64) {
        self.problem.add_constraint(terms, cmp, rhs);
    }

    /// Appends `weight · var` to the (raw, unaggregated) objective.
    pub fn add_objective_term(&mut self, var: LpVarId, weight: f64) {
        self.objective.push((var, weight));
    }

    /// Number of variables in the store.
    pub fn num_vars(&self) -> usize {
        self.problem.num_vars()
    }

    /// Number of constraint rows in the store.
    pub fn num_constraints(&self) -> usize {
        self.problem.num_constraints()
    }

    /// The objective terms aggregated by variable (the form
    /// [`LpSession::minimize`] expects).
    pub fn aggregated_objective(&self) -> Vec<(LpVarId, f64)> {
        let mut aggregated: std::collections::BTreeMap<LpVarId, f64> = Default::default();
        for &(v, c) in &self.objective {
            *aggregated.entry(v).or_insert(0.0) += c;
        }
        aggregated.into_iter().collect()
    }

    /// A solve-ready snapshot: the constraint system with the full
    /// aggregated objective set (what `solve_batch` consumes).
    pub fn to_problem(&self) -> LpProblem {
        let mut problem = self.problem.clone();
        problem.set_objective(self.aggregated_objective());
        problem
    }

    /// Opens a backend session over the current system and marks everything
    /// built so far as flushed.
    pub fn open_session<'a>(&mut self, backend: &'a dyn LpBackend) -> Box<dyn LpSession + 'a> {
        self.open_session_with(backend, &SolverTuning::default())
    }

    /// [`open_session`](Self::open_session) under explicit solver tuning
    /// (the session budget).
    pub fn open_session_with<'a>(
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
            debug_assert_eq!(
                mirrored, var,
                "session id space diverged from the constraint store"
            );
        }
        self.flushed_vars = self.problem.num_vars();
        for row in self.flushed_rows..self.problem.num_constraints() {
            let terms: Vec<(LpVarId, f64)> = self.problem.constraint_terms(row).collect();
            session.add_constraint(&terms, self.problem.cmp(row), self.problem.rhs(row));
        }
        self.flushed_rows = self.problem.num_constraints();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cma_lp::{LpStatus, SimplexBackend, SparseBackend};

    fn backend_roundtrip(backend: &dyn LpBackend) {
        let mut store = ConstraintStore::new();
        let x = store.add_var(false);
        let y = store.add_var(false);
        store.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        store.add_objective_term(x, -1.0);
        store.add_objective_term(y, -2.0);
        store.add_objective_term(y, 0.0); // duplicate entries aggregate

        let mut session = store.open_session(backend);
        let first = session.minimize(&store.aggregated_objective());
        assert_eq!(first.status, LpStatus::Optimal);
        assert!((first.objective - (-8.0)).abs() < 1e-6); // y = 4

        // Extend: a new variable, a cutting row, and an objective term.
        let z = store.add_var(false);
        store.add_constraint(vec![(y, 1.0)], Cmp::Le, 1.0);
        store.add_constraint(vec![(z, 1.0), (x, 1.0)], Cmp::Ge, 2.0);
        store.add_objective_term(z, 1.0);
        store.flush(session.as_mut());
        assert_eq!(session.num_vars(), 3);
        assert_eq!(session.num_constraints(), 3);

        let ext = session.minimize(&[(z, 1.0)]);
        assert_eq!(ext.status, LpStatus::Optimal);
        // minimize z s.t. x + z >= 2, x + y <= 4, y <= 1: z can reach 0.
        assert!(ext.objective.abs() < 1e-6);

        // The full objective still solves over the extended system.
        let full = session.minimize(&store.aggregated_objective());
        assert_eq!(full.status, LpStatus::Optimal);
        assert!((full.objective - (-5.0)).abs() < 1e-6); // x = 3, y = 1, z = 0
    }

    #[test]
    fn store_flush_roundtrips_through_both_backends() {
        backend_roundtrip(&SimplexBackend);
        backend_roundtrip(&SparseBackend);
    }

    #[test]
    fn to_problem_carries_the_aggregated_objective() {
        let mut store = ConstraintStore::new();
        let x = store.add_var(false);
        store.add_constraint(vec![(x, 1.0)], Cmp::Le, 5.0);
        store.add_objective_term(x, -0.5);
        store.add_objective_term(x, -0.5);
        let problem = store.to_problem();
        assert_eq!(problem.objective(), &[(x, -1.0)]);
        let sol = problem.solve();
        assert!((sol.value(x) - 5.0).abs() < 1e-6);
    }
}
