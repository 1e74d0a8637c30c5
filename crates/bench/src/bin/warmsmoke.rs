//! Warm-resolve smoke guard (run by the CI `bench-smoke` job).
//!
//! Verifies the dual-simplex warm re-solve contract twice over:
//!
//! 1. **cutting row** — an incremental row added to an optimal session over
//!    a hand-built chain-*shaped* LP (a 120-variable coupled path;
//!    `CUTTING_ROW_DUAL_BUDGET` is calibrated to it) must re-solve through a
//!    *small* number of dual pivots (no phase-1 restart, no iteration
//!    blow-up);
//! 2. **escalation pinned** — the degree 1 → 2 in-session escalation of
//!    the two largest committed walk chains must spend exactly its pinned
//!    number of simplex iterations (path counters repeat exactly), printed
//!    beside the cold degree-2 solve's count.  The cold solve, whose phase
//!    1 starts from a crash basis, is the cheaper one (717 against 997
//!    iterations at n = 7, 868 against 1,163 at n = 8), so the pin is a
//!    count, not a sign.
//!
//! Exits nonzero (panics) on any violated budget, failing the CI job.

use central_moment_analysis::lp::{Cmp, LpBackend, SimplexBackend};
use central_moment_analysis::suite::{synthetic, Benchmark};
use central_moment_analysis::{Analysis, SolveMode};
use cma_bench::chain_stand_in;

/// The simplex iterations of the degree 1 → 2 in-session escalation of the
/// walk chain of each size.
const ESCALATION_ITERATIONS: [(usize, usize); 2] = [(7, 997), (8, 1_163)];

/// Dual pivots allowed for a single cutting row on the chain system.
/// Tightened from 32 to 8: weighted (devex) leaving-row pricing repairs a
/// single cut in a handful of pivots where the old most-negative/Harris
/// combination wandered.
const CUTTING_ROW_DUAL_BUDGET: usize = 8;

fn main() {
    // --- Scenario 1: one cutting row on a solved chain-shaped LP. --------
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

    // --- Scenario 2: in-session degree escalation, pinned. ----------------
    // The warm dual repair after a degree 1 → 2 escalation must take the
    // path it took when the pin was set; the cold degree-2 solve is
    // printed beside it.  Guarded on the two largest chain sizes the CI
    // bench sweep commits.
    for (n, pinned) in ESCALATION_ITERATIONS {
        let chain = synthetic::random_walk_chain(n).in_suite("synthetic");
        let base = |b: &Benchmark| {
            Analysis::benchmark(b)
                .degree(2)
                .mode(SolveMode::Global)
                .soundness(false)
        };
        let cold = base(&chain).run().expect("cold walk-chain analyzable");
        let escalated = base(&chain)
            .escalate_from(1)
            .run()
            .expect("escalated walk-chain analyzable");
        assert_eq!(
            escalated.lp.totals.iterations, pinned,
            "escalated walk-chain n={n} took {} iterations, pinned at {pinned}: \
             the warm dual repair moved",
            escalated.lp.totals.iterations
        );
        eprintln!(
            "warmsmoke: walk-chain n={n} escalation {} iterations (pinned) vs cold {}",
            escalated.lp.totals.iterations, cold.lp.totals.iterations
        );
    }
}
