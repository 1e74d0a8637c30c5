//! Pins the allocator traffic of constraint derivation.
//!
//! A counting `#[global_allocator]` wraps the system allocator, and the
//! analysis runs against a stub backend whose `minimize` answers
//! "infeasible" at once, so what is counted is derivation alone: the
//! template arithmetic of every rule, the certificates of every weakening,
//! the entailment LPs of the loop-head invariants, and the snapshot of the
//! constraint store handed to the backend.  Template sums accumulate in
//! place and LP columns are anonymous; a return to clone-per-sum arithmetic
//! (which roughly doubles the count on both fixtures) or to a `format!`ed
//! name per column (1.35–1.40× on these two) blows through the budgets.
//!
//! This file holds exactly one `#[test]`: the allocation counter is
//! process-global and a sibling test running concurrently would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cma_inference::{analyze_with, AnalysisError, AnalysisOptions, SolveMode};
use cma_lp::{Cmp, LpBackend, LpProblem, LpSession, LpSolution, LpStatus, LpVarId};
use cma_suite::{running, synthetic, Benchmark};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`; the counter is a relaxed
// atomic with no allocation of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Allocator calls the derivation of walk-chain n=8 (global mode, degree 2,
/// 1,482 rows) may spend: about 1.25× the observed count of 29,574.
const WALK_CHAIN_BUDGET: u64 = 37_000;

/// Allocator calls the derivation of `running/rdwalk` (global mode,
/// degree 2, 406 rows) may spend: about 1.25× the observed count of 7,357.
const RDWALK_BUDGET: u64 = 9_200;

/// A backend that answers every `minimize` with a stored infeasible
/// solution, so an analysis stops right after its first derivation.
struct InfeasibleBackend(LpSolution);

struct InfeasibleSession<'a> {
    answer: &'a LpSolution,
    vars: usize,
    rows: usize,
}

impl LpSession for InfeasibleSession<'_> {
    fn add_var(&mut self, _name: &str, _free: bool) -> LpVarId {
        self.vars += 1;
        LpVarId::from_index(self.vars - 1)
    }

    fn add_constraint(&mut self, _terms: &[(LpVarId, f64)], _cmp: Cmp, _rhs: f64) {
        self.rows += 1;
    }

    fn minimize(&mut self, _objective: &[(LpVarId, f64)]) -> LpSolution {
        self.answer.clone()
    }

    fn num_vars(&self) -> usize {
        self.vars
    }

    fn num_constraints(&self) -> usize {
        self.rows
    }
}

impl LpBackend for InfeasibleBackend {
    fn name(&self) -> &str {
        "infeasible-stub"
    }

    fn open<'a>(&'a self, problem: &LpProblem) -> Box<dyn LpSession + 'a> {
        Box::new(InfeasibleSession {
            answer: &self.0,
            vars: problem.num_vars(),
            rows: problem.num_constraints(),
        })
    }
}

/// Allocator calls spent deriving `benchmark` in global mode at its own
/// degree, checked to stop at the stub's infeasible answer.
fn derivation_allocs(benchmark: &Benchmark, backend: &InfeasibleBackend) -> u64 {
    let options = AnalysisOptions::degree(benchmark.degree)
        .with_valuation(benchmark.valuation.clone())
        .with_mode(SolveMode::Global);
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let outcome = analyze_with(&benchmark.program, &options, backend);
    let spent = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert!(
        matches!(
            outcome,
            Err(AnalysisError::LpFailed {
                status: LpStatus::Infeasible,
                ..
            })
        ),
        "{}: expected the stub's infeasible verdict, got {outcome:?}",
        benchmark.name
    );
    spent
}

#[test]
fn derivation_stays_within_its_allocation_budget() {
    // `LpSolution::new` is private to `cma-lp`: take the stub's answer from
    // a one-row infeasible problem, before counting starts.
    let mut lp = LpProblem::new();
    let x = lp.add_var("x", false);
    lp.add_constraint(vec![(x, 1.0)], Cmp::Le, -1.0);
    let answer = lp.solve();
    assert_eq!(answer.status, LpStatus::Infeasible);
    let backend = InfeasibleBackend(answer);

    let spent: Vec<_> = [
        (synthetic::random_walk_chain(8), WALK_CHAIN_BUDGET),
        (running::rdwalk(), RDWALK_BUDGET),
    ]
    .into_iter()
    .map(|(benchmark, budget)| {
        let spent = derivation_allocs(&benchmark, &backend);
        println!(
            "{}: {spent} allocator calls (budget {budget})",
            benchmark.name
        );
        (benchmark.name, spent, budget)
    })
    .collect();
    for (name, spent, budget) in spent {
        assert!(
            spent <= budget,
            "deriving {name} made {spent} allocator calls (budget {budget})"
        );
    }
}
