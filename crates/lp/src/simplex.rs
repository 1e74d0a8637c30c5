//! The LP problem model and the one-shot solve.
//!
//! This module owns the crate's vocabulary — [`LpProblem`], [`LpSolution`],
//! [`LpStatus`], [`SolveStats`] — and the one-shot entry point
//! [`LpProblem::solve`], which runs the same `SimplexCore` as every session
//! of [`SimplexBackend`](crate::SimplexBackend), without presolve.

use std::fmt;

use crate::core::SimplexCore;
use crate::pricing::SolverTuning;
use crate::sparse::SparseMatrix;

/// How a counter combines across solves in [`SolveStats::merge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    /// The values add up.
    Sum,
    /// The larger value wins (a high-water mark).
    Peak,
}

impl Merge {
    fn apply<T: Ord + std::ops::Add<Output = T>>(self, a: T, b: T) -> T {
        match self {
            Merge::Sum => a + b,
            Merge::Peak => a.max(b),
        }
    }
}

/// What a counter observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// The solver's path: the same on every run over the same system.
    Path,
    /// A wall-clock timer, or the workspace's allocation count, which vary
    /// from run to run.  [`SolveStats`] equality ignores these.
    Volatile,
}

/// One row of the [`SolveStats`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter {
    /// The field name, which is also the counter's key in the report JSON
    /// and in the bench rows.
    pub name: &'static str,
    /// How two solves' values combine.
    pub merge: Merge,
    /// Path or volatile.
    pub kind: CounterKind,
}

/// Declares [`SolveStats`] from its table: each counter once, with its type,
/// merge rule and kind.  `merge`, [`SolveStats::COUNTERS`],
/// [`SolveStats::counters`] and its inverse [`SolveStats::from_values`] are
/// generated from the table, and every consumer (the report JSON, the bench
/// rows, the golden-test normalizer) iterates them, so a new counter is its
/// table entry plus its increment.
macro_rules! solve_stats {
    ($($(#[doc = $doc:literal])* $name:ident: $ty:ty, $merge:ident, $kind:ident;)*) => {
        /// Per-solve solver effort and presolve-reduction counters, carried on
        /// every [`LpSolution`] so degeneracy regressions are observable
        /// without a profiler (they surface in `AnalysisReport`'s per-group LP
        /// stats).
        ///
        /// Equality compares the [`CounterKind::Path`] counters only: two
        /// solves are equal whenever they pivoted identically, however long
        /// the clock said it took.
        #[derive(Debug, Clone, Copy, Default)]
        pub struct SolveStats {
            $($(#[doc = $doc])* pub $name: $ty,)*
        }

        impl SolveStats {
            /// The table: every counter in declaration order.
            pub const COUNTERS: &'static [Counter] = &[$(Counter {
                name: stringify!($name),
                merge: Merge::$merge,
                kind: CounterKind::$kind,
            },)*];

            /// Combines two solves' counters, each by its [`Merge`] rule (used
            /// to aggregate phase and group stats).
            pub fn merge(&self, other: &SolveStats) -> SolveStats {
                SolveStats {
                    $($name: Merge::$merge.apply(self.$name, other.$name),)*
                }
            }

            /// Every counter with its value, in table order.
            pub fn counters(&self) -> impl Iterator<Item = (&'static Counter, u64)> {
                Self::COUNTERS.iter().zip([$(self.$name as u64),*])
            }

            /// The inverse of [`counters`](Self::counters): the stats whose
            /// counters take `values`, in table order (missing values are 0).
            pub fn from_values(values: &[u64]) -> SolveStats {
                let mut values = values.iter().copied();
                SolveStats {
                    $($name: values.next().unwrap_or(0) as $ty,)*
                }
            }
        }
    };
}

solve_stats! {
    /// Simplex iterations across all phases of the solve (dual-simplex
    /// restoration pivots included).
    iterations: usize, Sum, Path;
    /// Basis refactorizations (rebuilds of the factorization from the
    /// pristine columns).
    refactorizations: usize, Sum, Path;
    /// Constraint rows presolve removed since the session's previous
    /// solve: the rows the session's open removed, on its first solve, and
    /// after that the rows a later increment's substitution emptied.  Each
    /// removal is reported once.
    presolve_rows: usize, Sum, Path;
    /// Columns presolve removed (fixed by singleton rows or empty), on the
    /// session's first solve; a column a later row brings back stays
    /// counted.
    presolve_cols: usize, Sum, Path;
    /// Successful Forrest–Tomlin updates of the LU factorization (each
    /// appends at most one row eta).
    etas: usize, Sum, Path;
    /// Dual-simplex pivots spent restoring primal feasibility after warm
    /// incremental rows (0 for cold solves).
    dual_pivots: usize, Sum, Path;
    /// Rows whose cold start put a structural column in the basis: the
    /// size of the crash basis, summed over the solve's cold starts.
    crash_basics: usize, Sum, Path;
    /// U entries retired in place by Forrest–Tomlin column replacements —
    /// the growth a product-form eta file would have accumulated instead —
    /// as each update of the solve reports them.
    eta_compactions: usize, Sum, Path;
    /// Peak length of the LU eta file observed during the solve.
    eta_len: usize, Peak, Path;
    /// Nanoseconds spent in forward solves (`B⁻¹·`: directions, basic-value
    /// recomputation).
    ftran_ns: u64, Sum, Volatile;
    /// Nanoseconds spent in backward solves (`·B⁻¹`: dual prices, pivot
    /// rows).
    btran_ns: u64, Sum, Volatile;
    /// Nanoseconds spent choosing entering columns (primal) and leaving
    /// rows (dual).
    pricing_ns: u64, Sum, Volatile;
    /// Nanoseconds spent in ratio tests (primal Harris/Bland passes and the
    /// dual entering scan).
    ratio_ns: u64, Sum, Volatile;
    /// Nanoseconds spent refactorizing the basis (rebuilding the LU factors
    /// from the pristine columns; the basic-value recomputation that
    /// follows is `ftran_ns`).
    refactor_ns: u64, Sum, Volatile;
    /// Nanoseconds spent in Forrest–Tomlin updates of the LU factors at
    /// each basis change (a failed update's attempt included).
    update_ns: u64, Sum, Volatile;
    /// Forward solves the simplex core sent down the hyper-sparse
    /// (Gilbert–Peierls) path of the LU kernels, counted where its path
    /// rule decides.
    hyper_sparse_ftrans: u64, Sum, Path;
    /// Backward solves the simplex core sent down the hyper-sparse path.
    hyper_sparse_btrans: u64, Sum, Path;
    /// LU solves the simplex core sent to the dense scan: a basis of fewer
    /// than 16 rows, a right-hand side wider than 0.15·m, or a dense
    /// result-density forecast.
    dense_fallbacks: u64, Sum, Path;
    /// Kernel-workspace growth events after initial sizing — heap
    /// allocations on the per-pivot hot path, 0 in steady state (CI
    /// asserts this).  The workspace counts them from 0 at each solve.
    kernel_allocs: u64, Sum, Volatile;
}

impl PartialEq for SolveStats {
    fn eq(&self, other: &Self) -> bool {
        self.counters()
            .zip(other.counters())
            .all(|((c, a), (_, b))| c.kind == CounterKind::Volatile || a == b)
    }
}

impl Eq for SolveStats {}

/// Identifier of a variable in an [`LpProblem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LpVarId(usize);

impl LpVarId {
    /// Index of the variable in the order of creation.
    pub fn index(&self) -> usize {
        self.0
    }

    /// The variable with the given creation index.
    ///
    /// Sessions share one id space with the [`LpProblem`] they were opened
    /// on (see [`LpSession`](crate::LpSession)), so callers that track
    /// variables by index can reconstruct ids; an index that was never
    /// created yields a dangling id.
    pub fn from_index(index: usize) -> Self {
        LpVarId(index)
    }
}

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `a·x ≤ b`
    Le,
    /// `a·x ≥ b`
    Ge,
    /// `a·x = b`
    Eq,
}

/// Outcome status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal solution was found.
    Optimal,
    /// The constraint system has no feasible point.
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded,
    /// The solve ran out of resources — its wall-clock deadline or its
    /// iteration cap (explicit via [`SolverTuning`], or the solver's
    /// built-in runaway backstop) — before reaching a verdict.
    ///
    /// This is a statement about *resources*, never about the problem:
    /// callers must not treat it as infeasibility (it must not trigger
    /// poly-degree escalation retries) and must not trust the accompanying
    /// objective/values.  The [`SolveStats`] on the solution record how much
    /// was spent before the budget ran out.
    ///
    /// It also covers the one numerical dead end the solver does not
    /// report as a verdict: an optimum at a basic point that violates a
    /// row or a sign, which a cold restart under Bland's rule also ended
    /// at.
    BudgetExhausted,
}

impl fmt::Display for LpStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LpStatus::Optimal => "optimal",
            LpStatus::Infeasible => "infeasible",
            LpStatus::Unbounded => "unbounded",
            LpStatus::BudgetExhausted => "budget exhausted",
        };
        write!(f, "{s}")
    }
}

/// A solution returned by [`LpProblem::solve`].
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Status of the solve; values are meaningful only when `Optimal`.
    pub status: LpStatus,
    /// Objective value at the solution.
    pub objective: f64,
    /// Solver-effort and presolve counters of the solve that produced this
    /// solution.
    pub stats: SolveStats,
    values: Vec<f64>,
}

impl LpSolution {
    /// Assembles a solution (used by in-crate backends).
    pub(crate) fn new(status: LpStatus, objective: f64, values: Vec<f64>) -> Self {
        LpSolution {
            status,
            objective,
            stats: SolveStats::default(),
            values,
        }
    }

    /// Attaches solve statistics.
    pub(crate) fn with_stats(mut self, stats: SolveStats) -> Self {
        self.stats = stats;
        self
    }

    /// The value of a variable in the solution (0 unless the status is
    /// [`LpStatus::Optimal`]).
    pub fn value(&self, var: LpVarId) -> f64 {
        self.values.get(var.0).copied().unwrap_or(0.0)
    }

    /// All variable values in creation order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Whether the solve succeeded.
    pub fn is_optimal(&self) -> bool {
        self.status == LpStatus::Optimal
    }
}

/// A linear program: minimize `c·x` subject to linear constraints, with each
/// variable either non-negative or free.
///
/// Constraint rows are stored sparsely (CSR, see [`SparseMatrix`]): the
/// builder emits rows with a handful of nonzeros each, and the simplex core
/// consumes them directly.
#[derive(Debug, Clone, Default)]
pub struct LpProblem {
    free: Vec<bool>,
    rows: SparseMatrix,
    cmps: Vec<Cmp>,
    rhs: Vec<f64>,
    objective: Vec<(LpVarId, f64)>,
}

impl LpProblem {
    /// Creates an empty problem.
    pub fn new() -> Self {
        LpProblem::default()
    }

    /// Adds a variable.  `free = false` constrains it to be non-negative;
    /// `free = true` lets it take any real value.  Columns are anonymous:
    /// the name is not stored, and callers may pass `""`.
    pub fn add_var(&mut self, _name: impl Into<String>, free: bool) -> LpVarId {
        self.free.push(free);
        LpVarId(self.free.len() - 1)
    }

    /// Number of variables added so far.
    pub fn num_vars(&self) -> usize {
        self.free.len()
    }

    /// Number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.cmps.len()
    }

    /// Whether a variable is sign-unrestricted.
    pub fn is_free(&self, var: LpVarId) -> bool {
        self.free[var.0]
    }

    /// Adds the constraint `Σ coeff·var  cmp  rhs`.
    ///
    /// Duplicate variables in `terms` are accepted (their coefficients add up).
    pub fn add_constraint(&mut self, terms: Vec<(LpVarId, f64)>, cmp: Cmp, rhs: f64) {
        self.rows.push_row(terms.into_iter().map(|(v, c)| (v.0, c)));
        self.rows.grow_cols(self.free.len());
        self.cmps.push(cmp);
        self.rhs.push(rhs);
    }

    /// The sparse coefficient matrix of the constraint rows (columns are
    /// variable indices in creation order).
    pub fn matrix(&self) -> &SparseMatrix {
        &self.rows
    }

    /// The comparison operator of constraint `i`.
    // Takes a row index, so no confusion with `Ord::cmp` in practice.
    #[allow(clippy::should_implement_trait)]
    pub fn cmp(&self, i: usize) -> Cmp {
        self.cmps[i]
    }

    /// The right-hand side of constraint `i`.
    pub fn rhs(&self, i: usize) -> f64 {
        self.rhs[i]
    }

    /// The `(variable, coefficient)` entries of constraint `i`.
    pub fn constraint_terms(&self, i: usize) -> impl Iterator<Item = (LpVarId, f64)> + '_ {
        self.rows.row(i).map(|(c, v)| (LpVarId(c), v))
    }

    /// Sets the objective `minimize Σ coeff·var`.
    pub fn set_objective(&mut self, terms: Vec<(LpVarId, f64)>) {
        self.objective = terms;
    }

    /// The objective terms as set by [`set_objective`](Self::set_objective).
    pub fn objective(&self) -> &[(LpVarId, f64)] {
        &self.objective
    }

    /// Solves the problem with the two-phase simplex method: the simplex
    /// core of [`SimplexBackend`](crate::SimplexBackend) on the raw system,
    /// without presolve (the entailment checks of `cma-logic` solve many
    /// tiny LPs this way).
    pub fn solve(&self) -> LpSolution {
        SimplexCore::solve_problem(self, &SolverTuning::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn simple_maximization_via_minimization() {
        // max x + y s.t. x <= 2, y <= 3, x + y <= 4  => 4
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        let y = lp.add_var("y", false);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Le, 2.0);
        lp.add_constraint(vec![(y, 1.0)], Cmp::Le, 3.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        lp.set_objective(vec![(x, -1.0), (y, -1.0)]);
        let sol = lp.solve();
        assert!(sol.is_optimal());
        assert_close(sol.objective, -4.0);
    }

    #[test]
    fn equality_constraints_need_phase_one() {
        // min x + y s.t. x + 2y = 4, 3x + 2y = 8  => x=2, y=1
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        let y = lp.add_var("y", false);
        lp.add_constraint(vec![(x, 1.0), (y, 2.0)], Cmp::Eq, 4.0);
        lp.add_constraint(vec![(x, 3.0), (y, 2.0)], Cmp::Eq, 8.0);
        lp.set_objective(vec![(x, 1.0), (y, 1.0)]);
        let sol = lp.solve();
        assert!(sol.is_optimal());
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 1.0);
        assert_close(sol.objective, 3.0);
    }

    #[test]
    fn greater_equal_constraints() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3  => x=7, y=3 obj 23
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        let y = lp.add_var("y", false);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 10.0);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Ge, 2.0);
        lp.add_constraint(vec![(y, 1.0)], Cmp::Ge, 3.0);
        lp.set_objective(vec![(x, 2.0), (y, 3.0)]);
        let sol = lp.solve();
        assert!(sol.is_optimal());
        assert_close(sol.objective, 23.0);
    }

    #[test]
    fn free_variables_can_go_negative() {
        // min x s.t. x >= -5 (x free)  => x = -5
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", true);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Ge, -5.0);
        lp.set_objective(vec![(x, 1.0)]);
        let sol = lp.solve();
        assert!(sol.is_optimal());
        assert_close(sol.value(x), -5.0);
    }

    #[test]
    fn free_variable_equality_system() {
        // x + y = 1, x - y = 5, both free: x = 3, y = -2.
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", true);
        let y = lp.add_var("y", true);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Cmp::Eq, 5.0);
        lp.set_objective(vec![(x, 1.0)]);
        let sol = lp.solve();
        assert!(sol.is_optimal());
        assert_close(sol.value(x), 3.0);
        assert_close(sol.value(y), -2.0);
    }

    #[test]
    fn detects_infeasibility() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Le, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Ge, 2.0);
        lp.set_objective(vec![(x, 1.0)]);
        assert_eq!(lp.solve().status, LpStatus::Infeasible);
    }

    #[test]
    fn detects_unboundedness() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Ge, 1.0);
        lp.set_objective(vec![(x, -1.0)]);
        assert_eq!(lp.solve().status, LpStatus::Unbounded);
    }

    #[test]
    fn duplicate_terms_accumulate() {
        // min x s.t. x + x >= 6  => x = 3.
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        lp.add_constraint(vec![(x, 1.0), (x, 1.0)], Cmp::Ge, 6.0);
        lp.set_objective(vec![(x, 1.0)]);
        let sol = lp.solve();
        assert!(sol.is_optimal());
        assert_close(sol.value(x), 3.0);
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // min y s.t. -x - y <= -4 (i.e. x + y >= 4), x <= 1  => y = 3.
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        let y = lp.add_var("y", false);
        lp.add_constraint(vec![(x, -1.0), (y, -1.0)], Cmp::Le, -4.0);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Le, 1.0);
        lp.set_objective(vec![(y, 1.0)]);
        let sol = lp.solve();
        assert!(sol.is_optimal());
        assert_close(sol.objective, 3.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // A classic degenerate corner; must not cycle.
        let mut lp = LpProblem::new();
        let x1 = lp.add_var("x1", false);
        let x2 = lp.add_var("x2", false);
        let x3 = lp.add_var("x3", false);
        let x4 = lp.add_var("x4", false);
        lp.add_constraint(
            vec![(x1, 0.5), (x2, -5.5), (x3, -2.5), (x4, 9.0)],
            Cmp::Le,
            0.0,
        );
        lp.add_constraint(
            vec![(x1, 0.5), (x2, -1.5), (x3, -0.5), (x4, 1.0)],
            Cmp::Le,
            0.0,
        );
        lp.add_constraint(vec![(x1, 1.0)], Cmp::Le, 1.0);
        lp.set_objective(vec![(x1, -10.0), (x2, 57.0), (x3, 9.0), (x4, 24.0)]);
        let sol = lp.solve();
        assert!(sol.is_optimal());
        assert_close(sol.objective, -1.0);
    }

    #[test]
    fn larger_random_feasible_problems_have_bounded_residuals() {
        // Deterministic pseudo-random LPs: minimize sum of vars subject to
        // cover constraints; verify feasibility of the returned point.
        let mut seed = 0x12345678u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % 1000) as f64 / 1000.0
        };
        for _ in 0..5 {
            let mut lp = LpProblem::new();
            let vars: Vec<_> = (0..12)
                .map(|i| lp.add_var(format!("v{i}"), false))
                .collect();
            let mut rows = Vec::new();
            for _ in 0..8 {
                let terms: Vec<_> = vars.iter().map(|&v| (v, 0.2 + next())).collect();
                let rhs = 1.0 + 3.0 * next();
                rows.push((terms.clone(), rhs));
                lp.add_constraint(terms, Cmp::Ge, rhs);
            }
            lp.set_objective(vars.iter().map(|&v| (v, 1.0)).collect());
            let sol = lp.solve();
            assert!(sol.is_optimal());
            for (terms, rhs) in rows {
                let lhs: f64 = terms.iter().map(|&(v, c)| c * sol.value(v)).sum();
                assert!(lhs >= rhs - 1e-6, "constraint violated: {lhs} < {rhs}");
            }
            for &v in &vars {
                assert!(sol.value(v) >= -1e-9);
            }
        }
    }

    #[test]
    fn solve_stats_count_iterations_and_merge() {
        // min x + y s.t. x + 2y >= 4, 3x + y >= 6 — needs phase 1 + pivots.
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        let y = lp.add_var("y", false);
        lp.add_constraint(vec![(x, 1.0), (y, 2.0)], Cmp::Ge, 4.0);
        lp.add_constraint(vec![(x, 3.0), (y, 1.0)], Cmp::Ge, 6.0);
        lp.set_objective(vec![(x, 1.0), (y, 1.0)]);
        let sol = lp.solve();
        assert!(sol.is_optimal(), "{:?}", sol.status);
        assert!(sol.stats.iterations > 0, "no iterations reported");
        assert_close(sol.objective, 2.8);
        // The one-shot solve has no presolve stage and no warm rows to
        // restore dually.
        assert_eq!(sol.stats.presolve_rows, 0);
        assert_eq!(sol.stats.dual_pivots, 0);
        // Every counter merges by its table rule: sums add, peaks keep the
        // larger side.
        let n = SolveStats::COUNTERS.len() as u64;
        let a = SolveStats::from_values(&(1..=n).collect::<Vec<_>>());
        let b = SolveStats::from_values(&(1..=n).map(|v| 2 * n - 2 * v).collect::<Vec<_>>());
        let merged = a.merge(&b);
        for ((c, m), ((_, x), (_, y))) in merged.counters().zip(a.counters().zip(b.counters())) {
            let want = match c.merge {
                Merge::Sum => x + y,
                Merge::Peak => x.max(y),
            };
            assert_eq!(m, want, "{}", c.name);
        }
        // The longest eta file either side saw, not their sum.
        let peak = SolveStats {
            eta_len: 10,
            ..SolveStats::default()
        }
        .merge(&SolveStats {
            eta_len: 7,
            ..SolveStats::default()
        });
        assert_eq!(peak.eta_len, 10);
    }

    #[test]
    fn solution_accessors() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        assert_eq!(lp.num_vars(), 1);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Le, 5.0);
        assert_eq!(lp.num_constraints(), 1);
        lp.set_objective(vec![(x, -1.0)]);
        let sol = lp.solve();
        assert_eq!(sol.values().len(), 1);
        assert_close(sol.value(x), 5.0);
        assert_eq!(LpStatus::Optimal.to_string(), "optimal");
    }
}
