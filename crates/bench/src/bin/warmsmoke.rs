//! Warm-resolve smoke guard (run by the CI `bench-smoke` job).
//!
//! Verifies the dual-simplex warm re-solve contract: an incremental row
//! added to an optimal session over a hand-built chain-*shaped* LP (a
//! 120-variable coupled path; `CUTTING_ROW_DUAL_BUDGET` is calibrated to
//! it) must re-solve through a *small* number of dual pivots (no phase-1
//! restart, no iteration blow-up).  The iterations of the walk-chain
//! degree 1 → 2 escalations are pinned by `chainscheck`, which compares
//! every path counter of the committed `BENCH_chains.json` escalation
//! rows.
//!
//! Exits nonzero (panics) on a violated budget, failing the CI job.

use central_moment_analysis::lp::{Cmp, LpBackend, SimplexBackend};
use cma_bench::chain_stand_in;

/// Dual pivots allowed for a single cutting row on the chain system.
/// Tightened from 32 to 8: weighted (devex) leaving-row pricing repairs a
/// single cut in a handful of pivots where the old most-negative/Harris
/// combination wandered.
const CUTTING_ROW_DUAL_BUDGET: usize = 8;

fn main() {
    // A chain-shaped LP stand-in with the same warm-resolve mechanics: a
    // long path of coupled rows, solved, then cut.
    let (problem, vars) = chain_stand_in(120);
    let objective = problem.objective();
    let mut session = SimplexBackend.open(&problem);
    let first = session.minimize(objective);
    assert!(first.is_optimal(), "chain stand-in must solve: {first:?}");
    // Cut: force the head variable above its current optimum.
    session.add_constraint(&[(vars[0], 1.0)], Cmp::Ge, first.value(vars[0]) + 5.0);
    let recut = session.minimize(objective);
    assert!(
        recut.is_optimal(),
        "cut re-solve must stay optimal: {recut:?}"
    );
    assert!(
        recut.stats.dual_pivots >= 1,
        "cutting row resolved without dual pivots (phase-1 restart?)"
    );
    assert!(
        recut.stats.dual_pivots <= CUTTING_ROW_DUAL_BUDGET,
        "cutting row took {} dual pivots (budget {CUTTING_ROW_DUAL_BUDGET})",
        recut.stats.dual_pivots
    );
    eprintln!(
        "warmsmoke: cutting row re-solved in {} dual pivots, {} iterations",
        recut.stats.dual_pivots, recut.stats.iterations
    );
}
