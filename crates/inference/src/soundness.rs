//! Algorithmic checks of the soundness side conditions of Theorem 4.4 (§4.3).
//!
//! The expected-potential method is sound for a program and target degree `m`
//! whenever
//!
//! 1. `E[T^{m·d}] < ∞` — the `(m·d)`-th moment of the stopping time is finite,
//!    checked by re-running the bound inference with every evaluation step
//!    costing one unit ([`CostModel::Steps`]), and
//! 2. the program has **bounded updates** — every assignment changes the
//!    assigned variable by an almost-surely bounded amount, so that
//!    `∥Y_n∥∞ ∈ O((n+1)^{m·d})` (Lemma F.3).
//!
//! The step count is a cost model of the derivation, not a rewritten
//! program: the re-analysis derives the program as written, so the static
//! checker's range facts, proved for the program and keyed by span, prune
//! exactly what they prune in the main analysis.

use cma_appl::ast::{Expr, Program, Stmt, StmtKind};
use cma_lp::LpBackend;
use cma_semiring::poly::Var;

use crate::derive::CostModel;
use crate::engine::{
    analyze_session_for, AnalysisError, AnalysisOptions, AnalysisResult, Goal, SolveMode,
};

/// The outcome of the combined soundness check.
#[derive(Debug, Clone)]
pub struct SoundnessReport {
    /// Whether the bounded-update check passed.
    pub bounded_updates: bool,
    /// Offending statements reported by the bounded-update check.
    pub violations: Vec<String>,
    /// Whether a finite bound on `E[T^k]` was derived (and for which `k`).
    pub termination_moment: Option<usize>,
    /// LP variables of the step-counting re-analysis (0 when it failed, and
    /// when the program left by pruning is straight-line code that needs no
    /// LP).
    pub extension_variables: usize,
    /// LP constraint rows of the step-counting re-analysis (0 when it
    /// failed, and when the program left by pruning needs no LP).
    pub extension_constraints: usize,
    /// Dual-simplex pivots the re-analysis's solve took.  It is solved cold
    /// as its own LP, so this is 0 unless a backend repairs it warm.
    pub extension_dual_pivots: usize,
    /// Whether the re-analysis shared template columns with the main
    /// derivation.  Always `false`: it derives with fresh templates into an
    /// LP of its own.
    pub shared_templates: bool,
}

impl SoundnessReport {
    /// Whether both side conditions hold.
    pub fn is_sound(&self) -> bool {
        self.bounded_updates && self.termination_moment.is_some()
    }
}

/// Checks the bounded-update property (§4.3, Lemma F.3).
///
/// An assignment `x := e` has bounded update when `e − x` is a constant, or
/// `e` is a constant, or `e − x` is a sum of a constant and variables that are
/// only ever assigned by bounded-support sampling ("noise variables").
/// A sampling statement has bounded update when its support is bounded.
///
/// Returns the list of violating statements (empty means the check passed).
pub fn check_bounded_update(program: &Program) -> Vec<String> {
    let noise_vars = noise_variables(program);
    let mut violations = Vec::new();
    let mut check_body = |body: &Stmt| collect_violations(body, &noise_vars, &mut violations);
    check_body(program.main());
    for f in program.functions() {
        check_body(f.body());
    }
    violations
}

/// Variables that are only ever assigned through bounded-support sampling.
fn noise_variables(program: &Program) -> Vec<Var> {
    let mut sampled: Vec<Var> = Vec::new();
    let mut assigned_otherwise: Vec<Var> = Vec::new();
    let mut scan = |stmt: &Stmt| {
        stmt.walk(&mut |s| match s.kind() {
            StmtKind::Sample(x, d) => {
                let (lo, hi) = d.support();
                if lo.is_finite() && hi.is_finite() {
                    sampled.push(x.clone());
                } else {
                    assigned_otherwise.push(x.clone());
                }
            }
            StmtKind::Assign(x, _) => assigned_otherwise.push(x.clone()),
            _ => {}
        });
    };
    scan(program.main());
    for f in program.functions() {
        scan(f.body());
    }
    sampled
        .into_iter()
        .filter(|v| !assigned_otherwise.contains(v))
        .collect()
}

fn collect_violations(stmt: &Stmt, noise_vars: &[Var], out: &mut Vec<String>) {
    stmt.walk(&mut |s| match s.kind() {
        StmtKind::Assign(x, e) if !assignment_is_bounded(x, e, noise_vars) => {
            out.push(format!("{x} := {e}"));
        }
        StmtKind::Sample(x, d) => {
            let (lo, hi) = d.support();
            if !(lo.is_finite() && hi.is_finite()) {
                out.push(format!("{x} ~ {d}"));
            }
        }
        _ => {}
    });
}

fn assignment_is_bounded(x: &Var, e: &Expr, noise_vars: &[Var]) -> bool {
    let poly = e.to_polynomial();
    // e constant: the variable jumps to a fixed value.
    if poly.as_constant().is_some() {
        return true;
    }
    // Otherwise require e − x to be affine in noise variables plus a constant.
    let delta = poly.sub(&cma_semiring::poly::Polynomial::var(x.clone()));
    if delta.degree() > 1 {
        return false;
    }
    delta.vars().iter().all(|v| noise_vars.contains(v))
}

/// Runs both side conditions of Theorem 4.4 at moment degree `degree` and
/// assembles a report.
///
/// Condition (i) re-runs the bound inference with every evaluation step
/// costing one unit, as [`step_count_analysis`] does: a finite bound on
/// `E[T^degree]` establishes it.  The re-analysis takes `options` with two
/// changes — global mode and no poly-degree retry — so callers pass the
/// poly degree the main analysis landed on and whatever remains of its
/// deadline.  It keeps `options.range_facts`: it derives the program as
/// written, so it prunes the refuted branches, never-entered loops and dead
/// template variables the main analysis prunes (unreachable code
/// contributes no steps).  It asks only whether a bound *exists*, so its LP
/// is solved for feasibility: the same rows and columns as
/// [`step_count_analysis`] would solve, with an empty objective instead of
/// the tightness objective.  A re-analysis that finds no bound, or runs out
/// of budget, leaves the finite `E[T^degree]` not established.
pub fn soundness_report(
    program: &Program,
    degree: usize,
    options: &AnalysisOptions,
    backend: &dyn LpBackend,
) -> SoundnessReport {
    let violations = check_bounded_update(program);
    let mut opts = options.clone();
    opts.degree = degree;
    opts.mode = SolveMode::Global;
    opts.max_poly_degree = None;
    let reanalysis = analyze_session_for(program, &opts, backend, CostModel::Steps, Goal::Feasible)
        .ok()
        .map(|session| session.result);
    SoundnessReport {
        bounded_updates: violations.is_empty(),
        violations,
        termination_moment: reanalysis.as_ref().map(|_| degree),
        extension_variables: reanalysis.as_ref().map_or(0, |r| r.lp_variables),
        extension_constraints: reanalysis.as_ref().map_or(0, |r| r.lp_constraints),
        extension_dual_pivots: reanalysis
            .map_or(0, |r| r.groups.iter().map(|g| g.stats.dual_pivots).sum()),
        shared_templates: false,
    }
}

/// Bounds the moments `E[T^k]` of the stopping time of `program`: the
/// analysis of [`analyze_with`](crate::analyze_with) under `options`, with
/// one unit per evaluation step charged in place of the program's ticks
/// ([`CostModel::Steps`]), under the tightness objective.  The LP is the
/// one [`soundness_report`] solves for feasibility.
///
/// # Errors
///
/// As [`analyze_with`](crate::analyze_with).
pub fn step_count_analysis(
    program: &Program,
    options: &AnalysisOptions,
    backend: &dyn LpBackend,
) -> Result<AnalysisResult, AnalysisError> {
    analyze_session_for(program, options, backend, CostModel::Steps, Goal::Tightest)
        .map(|session| session.result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cma_appl::build::*;
    use cma_lp::SimplexBackend;

    #[test]
    fn bounded_update_accepts_paper_style_programs() {
        // x := x + t with t ~ uniform(-1, 2): bounded.
        let program = ProgramBuilder::new()
            .function(
                "rdwalk",
                if_then(
                    lt(v("x"), v("d")),
                    seq([
                        sample("t", uniform(-1.0, 2.0)),
                        assign("x", add(v("x"), v("t"))),
                        call("rdwalk"),
                        tick(1.0),
                    ]),
                ),
            )
            .main(seq([assign("x", cst(0.0)), call("rdwalk")]))
            .build()
            .unwrap();
        assert!(check_bounded_update(&program).is_empty());
    }

    #[test]
    fn bounded_update_accepts_constant_steps_and_rejects_doubling() {
        let ok = ProgramBuilder::new()
            .main(seq([
                assign("x", cst(5.0)),
                assign("x", sub(v("x"), cst(1.0))),
                assign("y", add(v("y"), cst(3.0))),
            ]))
            .build()
            .unwrap();
        assert!(check_bounded_update(&ok).is_empty());

        let doubling = ProgramBuilder::new()
            .main(assign("x", mul(v("x"), cst(2.0))))
            .build()
            .unwrap();
        let violations = check_bounded_update(&doubling);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("x :="));
    }

    #[test]
    fn bounded_update_rejects_copying_unbounded_variables() {
        // y is assigned from x (not a noise variable): rejected because the
        // jump |y' - y| is unbounded in general.
        let program = ProgramBuilder::new()
            .main(assign("y", add(v("y"), v("x"))))
            .build()
            .unwrap();
        assert_eq!(check_bounded_update(&program).len(), 1);
    }

    #[test]
    fn noise_variables_must_not_be_reassigned() {
        // t is sampled but also assigned from x + x, so x := x + t is rejected.
        let program = ProgramBuilder::new()
            .main(seq([
                sample("t", uniform(0.0, 1.0)),
                assign("t", add(v("x"), v("x"))),
                assign("x", add(v("x"), v("t"))),
            ]))
            .build()
            .unwrap();
        let violations = check_bounded_update(&program);
        assert!(violations.iter().any(|s| s.starts_with("x :=")));
    }

    #[test]
    fn step_count_analysis_charges_every_step() {
        let program = ProgramBuilder::new()
            .main(seq([
                assign("n", cst(3.0)),
                while_loop(
                    gt(v("n"), cst(0.0)),
                    seq([assign("n", sub(v("n"), cst(1.0))), tick(5.0)]),
                ),
            ]))
            .build()
            .unwrap();
        // 11 steps: the assignment, the loop's entry, and three iterations of
        // an iteration step, an assignment and a tick charged 1 instead of 5.
        let result =
            step_count_analysis(&program, &AnalysisOptions::degree(1), &SimplexBackend).unwrap();
        let steps = result.raw_moment_at(1, &[]);
        assert!((steps.lo() - 11.0).abs() < 1e-6, "{steps:?}");
        assert!((steps.hi() - 14.0).abs() < 1e-6, "{steps:?}");
    }

    fn geometric() -> Program {
        ProgramBuilder::new()
            .function(
                "geo",
                if_prob(0.5, seq([tick(1.0), call("geo")]), tick(1.0)),
            )
            .main(call("geo"))
            .build()
            .unwrap()
    }

    #[test]
    fn termination_moment_check_succeeds_for_geometric() {
        let report = soundness_report(
            &geometric(),
            2,
            &AnalysisOptions::degree(1),
            &SimplexBackend,
        );
        assert!(report.is_sound());
        assert_eq!(report.termination_moment, Some(2));
    }

    #[test]
    fn report_counts_the_reanalysis_lp() {
        let program = geometric();
        // Compositional mode and a retry budget are the main analysis's
        // business: the re-analysis runs global, without retries.
        let options = AnalysisOptions::degree(2)
            .with_mode(SolveMode::Compositional)
            .with_max_poly_degree(3);
        let report = soundness_report(&program, 2, &options, &SimplexBackend);
        assert_eq!(report.termination_moment, Some(2));
        assert!(!report.shared_templates);
        let reanalysis =
            step_count_analysis(&program, &AnalysisOptions::degree(2), &SimplexBackend).unwrap();
        assert_eq!(reanalysis.lp_solves, 1);
        assert_eq!(report.extension_variables, reanalysis.lp_variables);
        assert_eq!(report.extension_constraints, reanalysis.lp_constraints);
        assert!(report.extension_constraints > 0);
    }

    #[test]
    fn report_reflects_violations() {
        let program = ProgramBuilder::new()
            .main(assign("x", mul(v("x"), v("x"))))
            .build()
            .unwrap();
        let report = soundness_report(&program, 1, &AnalysisOptions::degree(1), &SimplexBackend);
        assert!(!report.bounded_updates);
        assert!(!report.violations.is_empty());
    }
}
