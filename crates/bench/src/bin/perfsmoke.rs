//! Kernel-profile smoke guard (run by the CI `bench-smoke` job).
//!
//! Pins the headline outcomes of the kernel work so they cannot silently
//! regress.  The three shares are read on `RUNS` analyses and the median
//! of each is pinned, so one preempted run cannot decide the guard:
//!
//! 1. **btran share** — on the n=8 walk-chain global analysis, backward
//!    solves must stay a bounded share of the pivot-level profile
//!    (`btran_ns / (ftran+btran+pricing+ratio)`).  Before the hyper-sparse
//!    unit-rhs btran and the sparse-loaded dual-price btran, the m seeding
//!    btrans of dual steepest edge dominated the profile; the guard fails
//!    if that world comes back.
//! 2. **refactorization share** — on the same analysis, rebuilding the LU
//!    factors must stay a bounded share of the profile with the refactor
//!    timer included (`refactor_ns / (ftran+btran+pricing+ratio+refactor)`).
//!    On a 2-vCPU x86-64 host a Markowitz search that rescans the active
//!    submatrix at every elimination step reads 0.52–0.54 here; the
//!    candidate-set search reads 0.15–0.19.
//! 3. **steady-state kernel allocations** — a warm re-minimize on a solved
//!    chain session must report `kernel_allocs == 0`: every ftran/btran of
//!    the hot loop ran inside the session workspace without growing it.
//! 4. **pricing share** — on the n=8 analysis of pins 1 and 2, pricing must
//!    stay a bounded share of the pivot-level profile
//!    (`pricing_ns / (ftran+btran+pricing+ratio)`).  On a 2-vCPU x86-64
//!    host a full reprice of every candidate per pivot reads 0.57–0.63
//!    here; keeping the reduced costs across pivots and repricing only the
//!    columns next to the pivot row reads 0.33–0.36.
//!
//! Exits nonzero (panics) on any violated pin, failing the CI job.

use central_moment_analysis::lp::{Cmp, LpBackend, SimplexBackend};
use central_moment_analysis::{Analysis, SolveMode};
use cma_bench::chain_stand_in;
use cma_suite::synthetic;

/// Maximum btran share of the pivot-level profile on the n=8 global
/// analysis.  Observed ~0.16 with the hyper-sparse kernels; a dense
/// per-row seeding regression pushes it well past 0.6.  Pinned with ~3×
/// headroom for machine noise.
const BTRAN_SHARE_MAX: f64 = 0.5;

/// Maximum refactorization share of the profile on the n=8 global
/// analysis, between the two readings of the module docs.
const REFACTOR_SHARE_MAX: f64 = 0.40;

/// Maximum pricing share of the pivot-level profile on the n=8 global
/// analysis, between the two readings of the module docs.
const PRICING_SHARE_MAX: f64 = 0.48;

/// Analyses of walk-chain n=8 the share pins take the median of.  Each
/// times about 45 ms of pivot work on a 2-vCPU x86-64 host, so one
/// preemption can swing a single reading.
const RUNS: usize = 5;

fn main() {
    // --- Pins 1, 2 and 4: kernel shares on the n=8 walk-chain global
    // analysis, one reading per run. --------------------------------------
    let benchmark = synthetic::random_walk_chain(8).in_suite("synthetic");
    let (mut btran, mut refactor, mut pricing) = (Vec::new(), Vec::new(), Vec::new());
    for run in 1..=RUNS {
        let report = Analysis::benchmark(&benchmark)
            .degree(2)
            .mode(SolveMode::Global)
            .soundness(false)
            .run()
            .expect("n=8 walk-chain must analyze");
        let lp = &report.lp.totals;
        let profile = lp.ftran_ns + lp.btran_ns + lp.pricing_ns + lp.ratio_ns;
        assert!(profile > 0, "pivot-level profile is empty");
        let share = lp.btran_ns as f64 / profile as f64;
        let refactor_share = lp.refactor_ns as f64 / (profile + lp.refactor_ns) as f64;
        let pricing_share = lp.pricing_ns as f64 / profile as f64;
        eprintln!(
            "perfsmoke: n=8 global run {run}/{RUNS} — ftran {} µs, btran {} µs \
             ({share:.2} of profile), pricing {} µs over {} iterations \
             ({pricing_share:.2} of profile), ratio {} µs; refactor {} µs over {} \
             refactorizations ({refactor_share:.2} of the profile with refactor); \
             hyper {} ftran / {} btran, {} dense fallbacks",
            lp.ftran_ns / 1_000,
            lp.btran_ns / 1_000,
            lp.pricing_ns / 1_000,
            lp.iterations,
            lp.ratio_ns / 1_000,
            lp.refactor_ns / 1_000,
            lp.refactorizations,
            lp.hyper_sparse_ftrans,
            lp.hyper_sparse_btrans,
            lp.dense_fallbacks,
        );
        btran.push(share);
        refactor.push(refactor_share);
        pricing.push(pricing_share);
    }

    // --- Pin 1: btran share. ---------------------------------------------
    let share = median(&mut btran);
    eprintln!("perfsmoke: n=8 global — median btran share {share:.2}");
    assert!(
        share <= BTRAN_SHARE_MAX,
        "the median btran share is {share:.2} of the pivot profile (pinned ≤ {BTRAN_SHARE_MAX})"
    );

    // --- Pin 2: refactorization share. -----------------------------------
    let refactor_share = median(&mut refactor);
    eprintln!("perfsmoke: n=8 global — median refactor share {refactor_share:.2}");
    assert!(
        refactor_share <= REFACTOR_SHARE_MAX,
        "the median refactorization share is {refactor_share:.2} of the profile \
         (pinned ≤ {REFACTOR_SHARE_MAX})"
    );

    // --- Pin 3: steady-state kernel allocations on a warm session. -------
    let (problem, vars) = chain_stand_in(120);
    let objective = problem.objective();
    let mut session = SimplexBackend.open(&problem);
    let first = session.minimize(objective);
    assert!(first.is_optimal(), "chain stand-in must solve: {first:?}");
    session.add_constraint(&[(vars[0], 1.0)], Cmp::Ge, first.value(vars[0]) + 5.0);
    let recut = session.minimize(objective);
    assert!(recut.is_optimal(), "cut re-solve must stay optimal");
    let steady = session.minimize(objective);
    assert!(
        steady.is_optimal(),
        "steady-state re-solve must stay optimal"
    );
    assert_eq!(
        steady.stats.kernel_allocs, 0,
        "steady-state re-solve grew a kernel workspace buffer"
    );
    eprintln!(
        "perfsmoke: steady-state re-minimize kept kernel_allocs == 0 \
         ({} hyper ftran / {} hyper btran)",
        steady.stats.hyper_sparse_ftrans, steady.stats.hyper_sparse_btrans
    );

    // --- Pin 4: pricing share. -------------------------------------------
    let pricing_share = median(&mut pricing);
    eprintln!("perfsmoke: n=8 global — median pricing share {pricing_share:.2}");
    assert!(
        pricing_share <= PRICING_SHARE_MAX,
        "the median pricing share is {pricing_share:.2} of the pivot profile \
         (pinned ≤ {PRICING_SHARE_MAX})"
    );
}

/// The median of an odd number of shares.
fn median(shares: &mut [f64]) -> f64 {
    shares.sort_by(f64::total_cmp);
    shares[shares.len() / 2]
}
