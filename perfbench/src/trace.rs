//! The LP-call tracer of the traced run: a forwarding [`LpBackend`] that
//! times every call into the solver layer from outside and keeps the
//! solver's own counters of each answer.
//!
//! Every method whose default would change behaviour is forwarded —
//! `open_with` (the tuning the engine passes), `solve_batch_with` (the
//! backend's own batch path), `warm_resolves_in_place` (which decides where
//! the soundness extension solves) and `name` (reported in the report).

use std::sync::Mutex;
use std::time::{Duration, Instant};

use central_moment_analysis::lp::{Cmp, LpProblem, LpSolution, LpStatus, LpVarId};
use central_moment_analysis::{LpBackend, LpSession, SolveStats, SolverTuning};

/// Which solver entry point a call went through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    Open,
    Minimize,
    SolveBatch,
}

/// One timed call into the solver layer.
#[derive(Debug, Clone)]
pub struct LpCall {
    pub kind: CallKind,
    pub start: Instant,
    pub elapsed: Duration,
    /// Counters of every solution the call returned, summed.
    pub stats: SolveStats,
    /// Statuses of every solution the call returned.
    pub statuses: Vec<LpStatus>,
}

/// Wraps a backend and logs every call made through it.
#[derive(Debug)]
pub struct Tracer<B> {
    inner: B,
    calls: Mutex<Vec<LpCall>>,
}

impl<B: LpBackend> Tracer<B> {
    pub fn new(inner: B) -> Self {
        Tracer {
            inner,
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Takes the calls logged so far.
    pub fn drain(&self) -> Vec<LpCall> {
        std::mem::take(&mut *self.calls.lock().expect("tracer log poisoned"))
    }

    fn record(&self, kind: CallKind, start: Instant, solutions: &[LpSolution]) {
        let elapsed = start.elapsed();
        let mut stats = SolveStats::default();
        for s in solutions {
            add_stats(&mut stats, &s.stats);
        }
        self.calls
            .lock()
            .expect("tracer log poisoned")
            .push(LpCall {
                kind,
                start,
                elapsed,
                stats,
                statuses: solutions.iter().map(|s| s.status).collect(),
            });
    }

    fn wrap<'a>(
        &'a self,
        start: Instant,
        inner: Box<dyn LpSession + 'a>,
    ) -> Box<dyn LpSession + 'a> {
        self.record(CallKind::Open, start, &[]);
        Box::new(TracedSession {
            tracer: self,
            inner,
        })
    }
}

fn add_stats(total: &mut SolveStats, s: &SolveStats) {
    total.iterations += s.iterations;
    total.refactorizations += s.refactorizations;
    total.presolve_rows += s.presolve_rows;
    total.presolve_cols += s.presolve_cols;
    total.dual_pivots += s.dual_pivots;
    total.ftran_ns += s.ftran_ns;
    total.btran_ns += s.btran_ns;
    total.pricing_ns += s.pricing_ns;
    total.ratio_ns += s.ratio_ns;
    total.kernel_allocs += s.kernel_allocs;
}

impl<B: LpBackend> LpBackend for Tracer<B> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn open<'a>(&'a self, problem: &LpProblem) -> Box<dyn LpSession + 'a> {
        let start = Instant::now();
        let inner = self.inner.open(problem);
        self.wrap(start, inner)
    }

    fn open_with<'a>(
        &'a self,
        problem: &LpProblem,
        tuning: &SolverTuning,
    ) -> Box<dyn LpSession + 'a> {
        let start = Instant::now();
        let inner = self.inner.open_with(problem, tuning);
        self.wrap(start, inner)
    }

    fn solve_batch_with(
        &self,
        problems: &[LpProblem],
        threads: usize,
        tuning: &SolverTuning,
    ) -> Vec<LpSolution> {
        let start = Instant::now();
        let solutions = self.inner.solve_batch_with(problems, threads, tuning);
        self.record(CallKind::SolveBatch, start, &solutions);
        solutions
    }
}

struct TracedSession<'a, B> {
    tracer: &'a Tracer<B>,
    inner: Box<dyn LpSession + 'a>,
}

impl<B: LpBackend> LpSession for TracedSession<'_, B> {
    fn add_var(&mut self, name: &str, free: bool) -> LpVarId {
        self.inner.add_var(name, free)
    }

    fn add_constraint(&mut self, terms: &[(LpVarId, f64)], cmp: Cmp, rhs: f64) {
        self.inner.add_constraint(terms, cmp, rhs);
    }

    fn minimize(&mut self, objective: &[(LpVarId, f64)]) -> LpSolution {
        let start = Instant::now();
        let solution = self.inner.minimize(objective);
        self.tracer
            .record(CallKind::Minimize, start, std::slice::from_ref(&solution));
        solution
    }

    fn num_vars(&self) -> usize {
        self.inner.num_vars()
    }

    fn num_constraints(&self) -> usize {
        self.inner.num_constraints()
    }

    fn warm_resolves_in_place(&self) -> bool {
        self.inner.warm_resolves_in_place()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use central_moment_analysis::{SimplexBackend, SparseBackend};

    fn toy() -> LpProblem {
        // minimize x + y  s.t.  x + y >= 2, x >= 0.5
        let mut p = LpProblem::new();
        let x = p.add_var("x", false);
        let y = p.add_var("y", false);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 2.0);
        p.add_constraint(vec![(x, 1.0)], Cmp::Ge, 0.5);
        p.set_objective(vec![(x, 1.0), (y, 1.0)]);
        p
    }

    #[test]
    fn forwards_answers_names_and_warm_capability() {
        let p = toy();
        for (traced, plain) in [
            (
                &Tracer::new(SimplexBackend) as &dyn LpBackend,
                &SimplexBackend as &dyn LpBackend,
            ),
            (&Tracer::new(SparseBackend), &SparseBackend),
        ] {
            assert_eq!(traced.name(), plain.name());
            let tuning = SolverTuning::default();
            let a = traced.solve_with(&p, &tuning);
            let b = plain.solve_with(&p, &tuning);
            assert_eq!(a.status, b.status);
            assert_eq!(a.objective, b.objective);
            assert_eq!(
                traced.open_with(&p, &tuning).warm_resolves_in_place(),
                plain.open_with(&p, &tuning).warm_resolves_in_place()
            );
        }
    }

    #[test]
    fn logs_each_entry_point_once() {
        let tracer = Tracer::new(SimplexBackend);
        let p = toy();
        let mut session = tracer.open_with(&p, &SolverTuning::default());
        session.minimize(p.objective());
        drop(session);
        let batch = tracer.solve_batch_with(&[p.clone(), p], 2, &SolverTuning::default());
        assert_eq!(batch.len(), 2);
        let kinds: Vec<CallKind> = tracer.drain().iter().map(|c| c.kind).collect();
        assert_eq!(
            kinds,
            [CallKind::Open, CallKind::Minimize, CallKind::SolveBatch]
        );
        assert!(tracer.drain().is_empty());
    }
}
