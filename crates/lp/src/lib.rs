//! A self-contained linear-programming solver.
//!
//! The template-based inference of the central-moment analysis reduces bound
//! derivation to linear programming (§3.4 of the paper).  The paper's artifact
//! handed every LP to one off-the-shelf solver (Gurobi); this crate provides
//! the substitute, likewise one solver: [`SimplexBackend`], a revised simplex
//! over `f64`.
//!
//! The solver is session-based: the [`LpBackend`] trait (see [`backend`] and
//! `DESIGN.md` for the contract) decouples problem construction from
//! solving, and [`LpBackend::open`] yields an [`LpSession`] that supports
//! repeated `minimize` calls and incremental row/column addition;
//! [`LpBackend::solve_batch`] solves independent problems concurrently.
//! Behind both sits one simplex core:
//! sparse columns, a Markowitz LU basis factorization with Forrest–Tomlin
//! updates and hyper-sparse solves, devex pricing with the Harris ratio test
//! and a bounded anti-degeneracy perturbation, Bland's rule as a size-scaled
//! last resort ([`bland_fallback_threshold`]), a presolve pass at session
//! open, and a **dual-simplex warm re-solve** (devex row weights, a
//! least-ratio entering scan) that repairs a session after incremental rows
//! with a handful of dual pivots instead of a phase-1 restart.  Every solve
//! reports its effort in [`SolveStats`].
//!
//! Solves can be **budgeted** ([`SolverTuning`]): an absolute wall-clock
//! deadline, a per-session timeout (a deadline from the moment the session
//! opens), and an iteration cap, checked cooperatively per pivot batch and
//! carried over across every minimize/warm re-solve of a session.  Running out yields
//! [`LpStatus::BudgetExhausted`] — a statement about resources that is never
//! an infeasibility verdict (see the contract in [`backend`]).
//!
//! The problem format is deliberately small: anonymous variables, indexed in
//! creation order, that are either non-negative or free (free variables are
//! split internally), linear constraints `a·x {≤,≥,=} b`, and a linear
//! objective to *minimize*.
//!
//! # Example
//!
//! ```
//! use cma_lp::{Cmp, LpProblem, LpStatus};
//!
//! // minimize  -x - 2y   s.t.  x + y <= 4,  y <= 3,  x, y >= 0
//! let mut lp = LpProblem::new();
//! let x = lp.add_var("x", false);
//! let y = lp.add_var("y", false);
//! lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
//! lp.add_constraint(vec![(y, 1.0)], Cmp::Le, 3.0);
//! lp.set_objective(vec![(x, -1.0), (y, -2.0)]);
//! let sol = lp.solve();
//! assert_eq!(sol.status, LpStatus::Optimal);
//! assert!((sol.objective - (-7.0)).abs() < 1e-7);
//! assert!((sol.value(x) - 1.0).abs() < 1e-7);
//! assert!((sol.value(y) - 3.0).abs() < 1e-7);
//! ```

pub mod backend;
mod core;
mod factor;
mod presolve;
mod pricing;
pub mod simplex;
pub mod sparse;

/// The former name of [`SimplexBackend`], kept so code that names the
/// sparse backend keeps compiling: both names are the one solver.
pub use backend::SimplexBackend as SparseBackend;
pub use backend::{LpBackend, LpSession, SimplexBackend};
pub use pricing::{bland_fallback_threshold, SolverTuning, DEADLINE_CHECK_PERIOD};
pub use simplex::{
    Cmp, Counter, CounterKind, LpProblem, LpSolution, LpStatus, LpVarId, Merge, SolveStats,
};
pub use sparse::SparseMatrix;
