//! Benchmark harness regenerating the tables and figures of the paper's
//! evaluation section.
//!
//! The [`experiments`] module contains one function per experiment id (see
//! `DESIGN.md` §6); the `tables` binary dispatches on a command-line argument
//! and prints the corresponding rows/series as plain text / CSV.

pub mod experiments;

pub use experiments::{run_experiment, ExperimentReport, EXPERIMENT_IDS};

use central_moment_analysis::lp::{Cmp, LpProblem, LpVarId};

/// The chain-*shaped* LP that the warm-resolve and kernel guards solve: a
/// coupled path of `vars` non-negative columns (`x_i − 0.5·x_{i+1} ≥ 1`)
/// plus the head bound `x_0 ≤ 400`, minimizing the column sum.  Returns the
/// problem (objective set) and its columns in path order.
pub fn chain_stand_in(vars: usize) -> (LpProblem, Vec<LpVarId>) {
    let mut lp = LpProblem::new();
    let ids: Vec<_> = (0..vars)
        .map(|i| lp.add_var(format!("x{i}"), false))
        .collect();
    for w in ids.windows(2) {
        lp.add_constraint(vec![(w[0], 1.0), (w[1], -0.5)], Cmp::Ge, 1.0);
    }
    lp.add_constraint(vec![(ids[0], 1.0)], Cmp::Le, 400.0);
    lp.set_objective(ids.iter().map(|&v| (v, 1.0)).collect());
    (lp, ids)
}
