//! Pins the allocator traffic of constraint derivation and of opening a
//! solver session on the LP it emits.
//!
//! A counting `#[global_allocator]` wraps the system allocator and counts
//! calls and bytes requested (the size of each `alloc`, the new size of each
//! `realloc`).  The analysis runs against a stub backend whose `minimize`
//! answers "infeasible" at once, so what is counted is derivation alone:
//! the template arithmetic of every rule, the certificates of every
//! weakening, the entailment LPs of the loop-head invariants, and the
//! snapshot of the builder's LP handed to the backend.  The stub keeps
//! a copy of that LP (uncounted), and `SimplexBackend::open` on it is
//! counted apart: presolve and the session's set-up.
//!
//! Each fixture has three budgets:
//! - derivation calls: template sums accumulate in place and LP columns are
//!   anonymous; a return to clone-per-sum arithmetic (which roughly doubles
//!   the count on both fixtures) or to a `format!`ed name per column
//!   (1.35–1.40× on these two) blows through them;
//! - derivation bytes: a monomial is a sorted vector of (variable,
//!   exponent) pairs; a `BTreeMap` monomial (a ~250-byte leaf per clone)
//!   requests 1.25× (walk chain) and 1.5× (rdwalk) the bytes;
//! - open calls: presolve's duplicate-row pass fingerprints rows in place;
//!   with one SipHashed `Vec` key per live row it made 1.35× the calls.
//!
//! This file holds exactly one `#[test]`: the allocation counter is
//! process-global and a sibling test running concurrently would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use cma_inference::{analyze_with, AnalysisError, AnalysisOptions, SolveMode};
use cma_lp::{Cmp, LpBackend, LpProblem, LpSession, LpSolution, LpStatus, LpVarId, SimplexBackend};
use cma_suite::{running, synthetic, Benchmark};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
/// Set while the stub copies the LP it is opened on.
static PAUSED: AtomicBool = AtomicBool::new(false);

fn count(bytes: usize) {
    if !PAUSED.load(Ordering::Relaxed) {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Allocator calls and bytes requested so far.
fn counters() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

// SAFETY: delegates every operation to `System`; the counters are relaxed
// atomics with no allocation of their own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// What one fixture may spend, about 1.2–1.25× its observed counts.
struct Budget {
    derive_calls: u64,
    derive_bytes: u64,
    open_calls: u64,
}

/// Walk-chain n=8 (global mode, degree 2, 1,482 rows): derivation 28,110
/// calls and 5.24 MB, `open` 10,457 calls.
const WALK_CHAIN_BUDGET: Budget = Budget {
    derive_calls: 35_000,
    derive_bytes: 6_300_000,
    open_calls: 12_500,
};

/// `running/rdwalk` (global mode, degree 2, 406 rows): derivation 6,891
/// calls and 1.02 MB, `open` 2,741 calls.
const RDWALK_BUDGET: Budget = Budget {
    derive_calls: 8_600,
    derive_bytes: 1_250_000,
    open_calls: 3_300,
};

/// A backend that answers every `minimize` with a stored infeasible
/// solution, so an analysis stops right after its first derivation, and
/// keeps a copy of the last LP it was opened on.
struct InfeasibleBackend {
    answer: LpSolution,
    opened: Mutex<Option<LpProblem>>,
}

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
        PAUSED.store(true, Ordering::Relaxed);
        let copy = problem.clone();
        PAUSED.store(false, Ordering::Relaxed);
        *self.opened.lock().expect("no test thread panics") = Some(copy);
        Box::new(InfeasibleSession {
            answer: &self.answer,
            vars: problem.num_vars(),
            rows: problem.num_constraints(),
        })
    }
}

/// Allocator calls and bytes spent deriving `benchmark` in global mode at
/// its own degree, checked to stop at the stub's infeasible answer, and the
/// allocator calls of opening a `SimplexBackend` session on its LP.
fn allocs(benchmark: &Benchmark, backend: &InfeasibleBackend) -> (u64, u64, u64) {
    let options = AnalysisOptions::degree(benchmark.degree)
        .with_valuation(benchmark.valuation.clone())
        .with_mode(SolveMode::Global);
    let before = counters();
    let outcome = analyze_with(&benchmark.program, &options, backend);
    let after = counters();
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
    let problem = backend
        .opened
        .lock()
        .expect("no test thread panics")
        .take()
        .expect("the analysis opened a session");
    let before_open = counters();
    let session = SimplexBackend.open(&problem);
    let open_calls = counters().0 - before_open.0;
    assert_eq!(session.num_constraints(), problem.num_constraints());
    (after.0 - before.0, after.1 - before.1, open_calls)
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
    let backend = InfeasibleBackend {
        answer,
        opened: Mutex::new(None),
    };

    let spent: Vec<_> = [
        (synthetic::random_walk_chain(8), WALK_CHAIN_BUDGET),
        (running::rdwalk(), RDWALK_BUDGET),
    ]
    .into_iter()
    .map(|(benchmark, budget)| {
        let (calls, bytes, open_calls) = allocs(&benchmark, &backend);
        println!(
            "{}: derivation {calls} allocator calls (budget {}), {bytes} bytes \
             (budget {}); open {open_calls} allocator calls (budget {})",
            benchmark.name, budget.derive_calls, budget.derive_bytes, budget.open_calls
        );
        (benchmark.name, [calls, bytes, open_calls], budget)
    })
    .collect();
    for (name, [calls, bytes, open_calls], budget) in spent {
        assert!(
            calls <= budget.derive_calls,
            "deriving {name} made {calls} allocator calls (budget {})",
            budget.derive_calls
        );
        assert!(
            bytes <= budget.derive_bytes,
            "deriving {name} requested {bytes} bytes (budget {})",
            budget.derive_bytes
        );
        assert!(
            open_calls <= budget.open_calls,
            "opening {name}'s LP made {open_calls} allocator calls (budget {})",
            budget.open_calls
        );
    }
}
