//! The fluent pipeline facade: [`Analysis`].
//!
//! One entry point wires together everything the constituent crates provide —
//! parsing, template-based moment inference over a pluggable
//! [`LpBackend`], central-moment derivation, tail bounds, and the soundness
//! side conditions — and returns a single [`AnalysisReport`]:
//!
//! ```
//! use central_moment_analysis::{Analysis, SolveMode};
//!
//! let report = Analysis::parse(r#"
//!     func main() begin
//!       if prob(0.5) then tick(2) else tick(4) fi
//!     end
//! "#)
//! .unwrap()
//! .degree(2)
//! .mode(SolveMode::Global)
//! .run()
//! .unwrap();
//! // E[C] = 3 and E[C^2] = 10 exactly; the report brackets both.
//! assert!(report.mean().lo() <= 3.0 + 1e-6 && report.mean().hi() >= 3.0 - 1e-6);
//! assert!(report.raw_moment(2).hi() >= 10.0 - 1e-6);
//! ```
//!
//! Solver choice is a type parameter, not a hard dependency: swap the LP
//! engine with [`Analysis::backend`] and everything downstream — engine,
//! the soundness step-count re-analysis, report statistics — uses it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cma_appl::{parse_program, Program};
use cma_check::CheckConfig;
use cma_inference::{
    analyze_resilient, analyze_session, soundness_report, tail_curve, AnalysisOptions,
    CentralMoments, DegradationStep, SolveMode,
};
use cma_lp::{LpBackend, SimplexBackend, SolveStats};
use cma_semiring::poly::Var;
use cma_suite::Benchmark;

use crate::error::CmaError;
use crate::report::{AnalysisReport, CheckStats, LpStats, PhaseTimings};

/// Fluent builder for one end-to-end analysis run.
///
/// Construct with [`Analysis::of`] (from an AST), [`Analysis::parse`] (from
/// Appl source), or [`Analysis::benchmark`] (from a suite benchmark, adopting
/// its valuation and degree), chain configuration, then call
/// [`run`](Analysis::run).
#[derive(Debug, Clone)]
pub struct Analysis<B: LpBackend = SimplexBackend> {
    program: Program,
    label: Option<String>,
    options: AnalysisOptions,
    backend: B,
    tail_thresholds: Option<Vec<f64>>,
    check_soundness: bool,
    escalate_from: Option<usize>,
    parse_elapsed: Option<Duration>,
    run_checks: bool,
    check_pruning: bool,
    check_nonneg_cost: bool,
    /// The original source text (kept by [`Analysis::parse`]) so the checker
    /// can resolve diagnostic spans to line:column.
    source: Option<String>,
}

impl Analysis<SimplexBackend> {
    /// A pipeline over an already-constructed program, with default options
    /// (degree 2, global mode, simplex backend).
    pub fn of(program: &Program) -> Self {
        Analysis {
            program: program.clone(),
            label: None,
            options: AnalysisOptions::degree(2),
            backend: SimplexBackend,
            tail_thresholds: None,
            check_soundness: true,
            escalate_from: None,
            parse_elapsed: None,
            run_checks: true,
            check_pruning: true,
            check_nonneg_cost: false,
            source: None,
        }
    }

    /// Parses Appl source text and builds a pipeline over it.
    ///
    /// # Errors
    ///
    /// Returns [`CmaError::Parse`] when the source does not parse.
    pub fn parse(source: &str) -> Result<Self, CmaError> {
        let start = Instant::now();
        let program = parse_program(source)?;
        let parse_elapsed = start.elapsed();
        let mut analysis = Analysis::of(&program);
        analysis.parse_elapsed = Some(parse_elapsed);
        analysis.source = Some(source.to_string());
        Ok(analysis)
    }

    /// A pipeline over a suite [`Benchmark`], adopting its program, name
    /// (namespaced when the benchmark belongs to a suite, e.g.
    /// `running/rdwalk`), target degree and valuation.
    pub fn benchmark(benchmark: &Benchmark) -> Self {
        Analysis::of(&benchmark.program)
            .degree(benchmark.degree)
            .valuation(benchmark.valuation.clone())
            .label(benchmark.qualified_name())
    }
}

impl<B: LpBackend> Analysis<B> {
    /// Sets the target moment degree `m` (2 for variance, 4 for kurtosis).
    pub fn degree(mut self, m: usize) -> Self {
        self.options.degree = m;
        self
    }

    /// Sets the base polynomial degree of the templates.
    pub fn poly_degree(mut self, d: u32) -> Self {
        self.options.poly_degree = d;
        self
    }

    /// Enables automatic poly-degree escalation: when the LP is infeasible
    /// (templates too weak), retry `d → d+1` up to `max`, each retry a fresh
    /// analysis at the higher degree.
    pub fn max_poly_degree(mut self, max: u32) -> Self {
        self.options.max_poly_degree = Some(max);
        self
    }

    /// Reaches the target degree by **in-session escalation**: the analysis
    /// first solves at degree `from`, then escalates the live warm session
    /// degree by appending only the new moment components (see
    /// [`AnalysisSession::escalate_degree`](cma_inference::AnalysisSession::escalate_degree)).
    /// The report's `escalation` section carries the reuse statistics.
    pub fn escalate_from(mut self, from: usize) -> Self {
        self.escalate_from = Some(from);
        self
    }

    /// Sets the solving strategy (global or compositional).
    pub fn mode(mut self, mode: SolveMode) -> Self {
        self.options.mode = mode;
        self
    }

    /// Sets the valuation at which bounds are evaluated and the LP objective
    /// minimizes imprecision.
    pub fn valuation(mut self, valuation: Vec<(Var, f64)>) -> Self {
        self.options.valuation = valuation;
        self
    }

    /// Adds one variable binding to the valuation.
    pub fn at(mut self, var: impl AsRef<str>, value: f64) -> Self {
        self.options.valuation.push((Var::new(var.as_ref()), value));
        self
    }

    /// Sets the number of worker threads used to solve independent
    /// compositional SCC groups concurrently (default 1; only
    /// [`SolveMode::Compositional`] has independent groups).
    pub fn threads(mut self, threads: usize) -> Self {
        self.options.threads = threads.max(1);
        self
    }

    /// Bounds the whole analysis by a wall-clock deadline; the soundness
    /// re-analysis runs under whatever the analysis left of it.  A spent
    /// deadline ends the run with the budget-exhaustion error: no rung of
    /// the graceful-degradation ladder has time left to retry.  The ladder
    /// (compositional mode, lower degree, labeled in the report's
    /// `degradation` section) descends only when a group's own budget
    /// ([`group_timeout`](Self::group_timeout)) or the solver's iteration
    /// backstop runs out.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.options.timeout = Some(timeout);
        self
    }

    /// Bounds each LP group solve by its own wall-clock deadline, on top of
    /// (and capped by) any whole-analysis [`timeout`](Self::timeout).
    pub fn group_timeout(mut self, timeout: Duration) -> Self {
        self.options.group_timeout = Some(timeout);
        self
    }

    /// Labels the report (shown by the CLI and in `to_json`).
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Requests tail bounds `P[C ≥ d]` at the given thresholds.  Without this
    /// call, thresholds default to 2×/4×/8× the derived mean upper bound.
    pub fn tail_at(mut self, thresholds: impl IntoIterator<Item = f64>) -> Self {
        self.tail_thresholds = Some(thresholds.into_iter().collect());
        self
    }

    /// Enables or disables the soundness side-condition checks (enabled by
    /// default; disabling skips the step-counting re-analysis).
    pub fn soundness(mut self, check: bool) -> Self {
        self.check_soundness = check;
        self
    }

    /// Enables or disables the pre-analysis static checks (enabled by
    /// default).  When enabled, error-severity diagnostics abort the run
    /// with [`CmaError::Check`]; warnings ride along in
    /// [`AnalysisReport::check`].
    pub fn check(mut self, check: bool) -> Self {
        self.run_checks = check;
        self
    }

    /// Enables or disables LP pruning from the checker's exported range
    /// facts (enabled by default; a no-op when the checks themselves are
    /// disabled).  The facts prune both LPs, the main analysis's and the
    /// soundness re-analysis's; disabling isolates the checker's effect on
    /// their sizes.
    pub fn check_pruning(mut self, prune: bool) -> Self {
        self.check_pruning = prune;
        self
    }

    /// Declares that the program's costs are meant to be nonnegative
    /// (disabled by default).  The checker then reports any statically
    /// negative `tick` as an error (CMA007), which aborts the run.
    pub fn check_nonneg_cost(mut self, nonneg: bool) -> Self {
        self.check_nonneg_cost = nonneg;
        self
    }

    /// Swaps the LP backend; all later phases (inference and the soundness
    /// re-analysis) solve with it.
    pub fn backend<B2: LpBackend>(self, backend: B2) -> Analysis<B2> {
        Analysis {
            program: self.program,
            label: self.label,
            options: self.options,
            backend,
            tail_thresholds: self.tail_thresholds,
            check_soundness: self.check_soundness,
            escalate_from: self.escalate_from,
            parse_elapsed: self.parse_elapsed,
            run_checks: self.run_checks,
            check_pruning: self.check_pruning,
            check_nonneg_cost: self.check_nonneg_cost,
            source: self.source,
        }
    }

    /// The program this pipeline will analyze.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The engine options this pipeline will run with.
    pub fn options(&self) -> &AnalysisOptions {
        &self.options
    }

    /// Runs the pipeline: inference, central moments, tail bounds, and (when
    /// enabled) the soundness checks, all against the configured backend.
    ///
    /// # Errors
    ///
    /// Returns [`CmaError::Analysis`] when constraint generation fails or the
    /// LP backend reports the program unsolvable at the configured degrees.
    /// A failing *soundness check* is not an error: it is reported in
    /// [`AnalysisReport::soundness`].
    pub fn run(&self) -> Result<AnalysisReport, CmaError> {
        if self.options.degree == 0 {
            return Err(CmaError::Usage(
                "analysis degree must be at least 1 (use 2 for variance bounds)".into(),
            ));
        }
        if let Some(from) = self.escalate_from {
            if from == 0 || from >= self.options.degree {
                return Err(CmaError::Usage(format!(
                    "escalation must start at a degree in 1..{} (got {from})",
                    self.options.degree
                )));
            }
        }
        let total_start = Instant::now();

        // The static checks run first: error diagnostics abort (the derived
        // bounds would be over a defective program), warnings ride along in
        // the report, and the exported range facts prune statically-refuted
        // branches and dead template variables from the derivation.
        let (check_report, check_elapsed) = if self.run_checks {
            let start = Instant::now();
            let config = CheckConfig {
                nonneg_cost: self.check_nonneg_cost,
                assume_init: self
                    .options
                    .valuation
                    .iter()
                    .map(|(v, _)| v.clone())
                    .collect(),
            };
            let mut report = cma_check::check_program(&self.program, &config);
            if let Some(source) = &self.source {
                // `Analysis::parse` parsed the program from this very text.
                report = report.with_source(source);
            }
            if report.has_errors() {
                return Err(CmaError::Check(Box::new(report)));
            }
            (Some(report), Some(start.elapsed()))
        } else {
            (None, None)
        };

        let mut options = self.options.clone();
        if self.check_pruning {
            if let Some(report) = &check_report {
                if !report.facts().is_empty() {
                    options.range_facts = Some(Arc::new(report.facts().clone()));
                }
            }
        }

        let analysis_start = Instant::now();
        // With escalation enabled, solve at the starting degree first, then
        // escalate the live session to the target — the warm basis absorbs
        // the new moment components instead of a cold re-derive — and drop
        // the session.  The plain path runs the resilient driver, which
        // degrades (and labels the degradation) instead of failing when a
        // budget runs out.
        let result = match self.escalate_from {
            Some(from) => {
                let mut start_options = options.clone();
                start_options.degree = from;
                let (_low, mut session) =
                    analyze_session(&self.program, &start_options, &self.backend)?;
                session.escalate_degree(options.degree)?
            }
            None => analyze_resilient(&self.program, &options, &self.backend)?,
        };
        let analysis_elapsed = analysis_start.elapsed();
        // Degradation may have landed below the requested degree or switched
        // the mode; everything downstream — soundness, report header, the
        // raw-moment listing — must describe the run that actually happened.
        let degree_used = result.degree();
        let mode_used = if result
            .degradation
            .steps
            .contains(&DegradationStep::CompositionalMode)
        {
            SolveMode::Compositional
        } else {
            self.options.mode
        };

        let tail_start = Instant::now();
        let raw_intervals = result.raw_intervals_at(&self.options.valuation);
        let central = CentralMoments::from_raw_intervals(&raw_intervals);
        let thresholds = match &self.tail_thresholds {
            Some(t) => t.clone(),
            None => default_thresholds(&central),
        };
        let tail = tail_curve(&central, thresholds);
        let tail_elapsed = tail_start.elapsed();

        // The soundness side conditions re-run the analysis charging one
        // unit per evaluation step, at the degree and poly degree this run
        // landed on, under what remains of the analysis deadline.
        let (soundness, soundness_elapsed) = if self.check_soundness {
            let start = Instant::now();
            let mut soundness_options = options.clone();
            soundness_options.poly_degree = result.poly_degree;
            soundness_options.timeout = options
                .timeout
                .map(|t| t.saturating_sub(analysis_start.elapsed()));
            let report = soundness_report(
                &self.program,
                degree_used,
                &soundness_options,
                &self.backend,
            );
            (Some(report), Some(start.elapsed()))
        } else {
            (None, None)
        };

        let lp = LpStats {
            variables: result.lp_variables,
            constraints: result.lp_constraints,
            solves: result.lp_solves,
            totals: result
                .groups
                .iter()
                .fold(SolveStats::default(), |total, g| total.merge(&g.stats)),
            groups: result.groups.clone(),
        };
        let check = check_report.map(|r| CheckStats {
            diagnostics: r.diagnostics().iter().map(|d| d.to_string()).collect(),
            warnings: r.warning_count(),
            pruning: result.pruning,
        });
        Ok(AnalysisReport {
            label: self.label.clone(),
            degree: degree_used,
            mode: mode_used,
            backend: self.backend.name().to_string(),
            parallelism: self.options.threads,
            poly_degree: result.poly_degree,
            poly_retries: result.poly_retries,
            escalation: result.escalation,
            degradation: result.degradation.clone(),
            plan: result.plan,
            valuation: self.options.valuation.clone(),
            result,
            raw_intervals,
            central,
            tail,
            soundness,
            check,
            timings: PhaseTimings {
                parse: self.parse_elapsed,
                check: check_elapsed,
                analysis: analysis_elapsed,
                soundness: soundness_elapsed,
                tail: tail_elapsed,
                total: total_start.elapsed(),
            },
            lp,
        })
    }
}

/// Default tail thresholds: 2×, 4×, and 8× the mean upper bound (the paper's
/// Fig. 1(c) evaluates `P[C ≥ 4d]`-style multiples).  Empty when the mean
/// bound is non-positive or infinite.
fn default_thresholds(central: &CentralMoments) -> Vec<f64> {
    let mean_ub = central.mean().hi();
    if mean_ub.is_finite() && mean_ub > 0.0 {
        vec![2.0 * mean_ub, 4.0 * mean_ub, 8.0 * mean_ub]
    } else {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cma_inference::AnalysisError;
    use cma_lp::{LpProblem, LpSolution};
    use cma_suite::running;

    #[test]
    fn fluent_pipeline_matches_paper_bounds() {
        let report = Analysis::benchmark(&running::rdwalk())
            .soundness(false)
            .run()
            .expect("rdwalk is analyzable");
        // Fig. 1(b) at d = 10: E[tick] <= 24, V[tick] <= 248.
        assert!(report.mean().hi() <= 24.0 + 1e-3);
        assert!(report.variance_upper().unwrap() <= 248.0 + 1e-2);
        assert_eq!(report.backend, "revised-simplex");
        assert_eq!(report.degree, 2);
        assert!(report.lp.variables > 0 && report.lp.constraints > 0);
        assert_eq!(report.lp.solves, 1);
        // Default thresholds are multiples of the mean upper bound.
        assert_eq!(report.tail.len(), 3);
        assert!(report.tail[0].probability >= report.tail[2].probability);
    }

    #[test]
    fn parse_entry_point_records_parse_time_and_runs_soundness() {
        let report =
            Analysis::parse("func main() begin if prob(0.5) then tick(2) else tick(4) fi end")
                .unwrap()
                .degree(2)
                .label("coinflip")
                .run()
                .unwrap();
        assert!(report.timings.parse.is_some());
        assert_eq!(report.is_sound(), Some(true));
        assert_eq!(report.label.as_deref(), Some("coinflip"));
        assert!((report.mean().mid() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn parse_errors_become_cma_errors() {
        let err = Analysis::parse("func main( begin end").unwrap_err();
        assert!(matches!(err, CmaError::Parse(_)));
    }

    #[test]
    fn explicit_tail_thresholds_are_respected() {
        let report = Analysis::benchmark(&running::rdwalk())
            .soundness(false)
            .tail_at([40.0, 80.0])
            .run()
            .unwrap();
        assert_eq!(report.tail.len(), 2);
        assert_eq!(report.tail[0].threshold, 40.0);
        assert!(report.tail[1].probability <= report.tail[0].probability);
    }

    /// A third-party backend wrapping the built-in solver in sessions that
    /// count their `minimize` calls — the pluggable seam exercised end to
    /// end, including the required-`open` contract.  Backends must be
    /// `Sync`, hence the atomic.
    struct CountingBackend {
        minimizes: std::sync::atomic::AtomicUsize,
        /// The `minimize` call, counted from 0, whose verdict is replaced by
        /// `Infeasible`.
        infeasible_call: Option<usize>,
    }

    impl CountingBackend {
        fn new() -> Self {
            CountingBackend {
                minimizes: std::sync::atomic::AtomicUsize::new(0),
                infeasible_call: None,
            }
        }

        fn minimizes(&self) -> usize {
            self.minimizes.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    struct CountingSession<'a> {
        inner: Box<dyn cma_lp::LpSession + 'a>,
        backend: &'a CountingBackend,
    }

    impl cma_lp::LpSession for CountingSession<'_> {
        fn add_var(&mut self, name: &str, free: bool) -> cma_lp::LpVarId {
            self.inner.add_var(name, free)
        }

        fn add_constraint(&mut self, terms: &[(cma_lp::LpVarId, f64)], cmp: cma_lp::Cmp, rhs: f64) {
            self.inner.add_constraint(terms, cmp, rhs);
        }

        fn minimize(&mut self, objective: &[(cma_lp::LpVarId, f64)]) -> LpSolution {
            let call = self
                .backend
                .minimizes
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let mut solution = self.inner.minimize(objective);
            if self.backend.infeasible_call == Some(call) {
                solution.status = cma_lp::LpStatus::Infeasible;
            }
            solution
        }

        fn num_vars(&self) -> usize {
            self.inner.num_vars()
        }

        fn num_constraints(&self) -> usize {
            self.inner.num_constraints()
        }
    }

    impl LpBackend for CountingBackend {
        fn name(&self) -> &str {
            "counting-simplex"
        }

        fn open<'a>(&'a self, problem: &LpProblem) -> Box<dyn cma_lp::LpSession + 'a> {
            Box::new(CountingSession {
                inner: SimplexBackend.open(problem),
                backend: self,
            })
        }
    }

    #[test]
    fn custom_backends_are_threaded_through_every_phase() {
        let backend = CountingBackend::new();
        let report = Analysis::benchmark(&running::rdwalk())
            .backend(&backend)
            .run()
            .unwrap();
        assert_eq!(report.backend, "counting-simplex");
        // Inference minimized once and the soundness re-analysis once more,
        // through a session of its own opened on the same backend.
        assert!(report.soundness.is_some());
        assert_eq!(report.lp.solves, 1);
        let uses = backend.minimizes();
        assert!(uses >= 2, "backend used {uses} times");
    }

    /// A failed in-place escalation of a program with only `main` names the
    /// group `main`, as a failed solve at the starting degree does.
    #[test]
    fn a_failed_escalation_of_main_names_main() {
        let backend = CountingBackend {
            infeasible_call: Some(1),
            ..CountingBackend::new()
        };
        let err =
            Analysis::parse("func main() begin x := 3; while x > 0 do x := x - 1; tick(1) od end")
                .unwrap()
                .backend(&backend)
                .escalate_from(1)
                .soundness(false)
                .run()
                .unwrap_err();
        assert_eq!(backend.minimizes(), 2);
        let CmaError::Analysis(AnalysisError::LpFailed {
            status,
            group,
            degree,
            ..
        }) = err
        else {
            panic!("not an LP failure: {err:?}");
        };
        assert_eq!(status, cma_lp::LpStatus::Infeasible);
        assert_eq!((group, degree), (vec!["main".to_string()], 2));
    }

    #[test]
    fn soundness_reanalysis_agrees_under_both_backends() {
        use cma_appl::build::*;

        let program = ProgramBuilder::new()
            .function(
                "geo",
                if_prob(0.5, seq([tick(1.0), call("geo")]), tick(1.0)),
            )
            .main(call("geo"))
            .build()
            .unwrap();
        let builtin = Analysis::of(&program).run().unwrap();
        let counting = CountingBackend::new();
        let wrapped = Analysis::of(&program).backend(&counting).run().unwrap();
        for report in [&builtin, &wrapped] {
            let s = report.soundness.as_ref().unwrap();
            assert!(s.extension_constraints > 0);
            assert!(!s.shared_templates);
            assert_eq!(report.is_sound(), Some(true));
            // The re-analysis is no group of the main analysis's LP stats.
            assert_eq!(report.lp.solves, 1);
        }
        let (a, b) = (builtin.soundness.unwrap(), wrapped.soundness.unwrap());
        assert_eq!(a.extension_variables, b.extension_variables);
        assert_eq!(a.extension_constraints, b.extension_constraints);
        // One minimize for the main analysis, one for the re-analysis.
        assert_eq!(counting.minimizes(), 2);
    }

    #[test]
    fn threads_flow_into_the_report_and_keep_bounds_identical() {
        let base = Analysis::benchmark(&cma_suite::synthetic::coupon_chain(4))
            .degree(2)
            .mode(SolveMode::Compositional)
            .soundness(false);
        let sequential = base.clone().run().unwrap();
        let parallel = base.threads(4).run().unwrap();
        assert_eq!(sequential.parallelism, 1);
        assert_eq!(parallel.parallelism, 4);
        assert_eq!(sequential.lp.solves, parallel.lp.solves);
        assert_eq!(sequential.lp.groups, parallel.lp.groups);
        assert_eq!(sequential.raw_intervals, parallel.raw_intervals);
    }

    #[test]
    fn per_group_lp_stats_cover_the_whole_system() {
        let report = Analysis::benchmark(&cma_suite::synthetic::coupon_chain(3))
            .degree(2)
            .mode(SolveMode::Compositional)
            .soundness(false)
            .run()
            .unwrap();
        assert_eq!(report.lp.groups.len(), report.lp.solves);
        let vars: usize = report.lp.groups.iter().map(|g| g.variables).sum();
        let cons: usize = report.lp.groups.iter().map(|g| g.constraints).sum();
        assert_eq!(vars, report.lp.variables);
        assert_eq!(cons, report.lp.constraints);
        assert_eq!(report.lp.groups.last().unwrap().name, "main");
    }

    #[test]
    fn compositional_mode_reports_multiple_solves() {
        let report = Analysis::benchmark(&cma_suite::synthetic::coupon_chain(3))
            .degree(2)
            .mode(SolveMode::Compositional)
            .soundness(false)
            .run()
            .unwrap();
        assert!(report.lp.solves > 1, "got {} solves", report.lp.solves);
    }

    /// The canonical triangular-loop fixture (quadratic cost, infeasible at
    /// poly degree 1) — shared with the CLI tests and the inference-level
    /// escalation tests, which parse the same file.
    const TRIANGLE: &str = include_str!("../examples/triangle.appl");

    #[test]
    fn escalated_pipeline_matches_the_direct_run_and_reports_reuse() {
        let direct = Analysis::benchmark(&running::rdwalk())
            .soundness(false)
            .run()
            .unwrap();
        let escalated = Analysis::benchmark(&running::rdwalk())
            .escalate_from(1)
            .soundness(false)
            .run()
            .unwrap();
        assert!((escalated.mean().hi() - direct.mean().hi()).abs() < 1e-3);
        assert!(
            (escalated.variance_upper().unwrap() - direct.variance_upper().unwrap()).abs() < 1e-1
        );
        let stats = escalated.escalation.expect("escalation stats in report");
        assert_eq!((stats.from_degree, stats.to_degree), (1, 2));
        assert_eq!(stats.cold_restarts, 0);
        assert!(stats.reused_columns > 0);
        assert!(stats.dual_pivots > 0, "warm dual re-solve expected");
        // Still one LP solve: the escalation re-minimized the live session.
        assert_eq!(escalated.lp.solves, 1);
        assert!(escalated.plan.slots_reused > 0);
    }

    /// An escalation reports the open's presolve once, on the solve at the
    /// starting degree: Fig. 2's 1 → 2 report totals what a cold degree-1
    /// run presolves.
    #[test]
    fn escalation_counts_the_opens_presolve_once() {
        let fig2 = || {
            Analysis::parse(include_str!("../examples/fig2.appl"))
                .unwrap()
                .at("d", 10.0)
                .at("x", 0.0)
                .soundness(false)
        };
        let presolved = |report: &AnalysisReport| {
            let totals = &report.lp.totals;
            (totals.presolve_rows, totals.presolve_cols)
        };
        let cold = fig2().degree(1).run().unwrap();
        let escalated = fig2().degree(2).escalate_from(1).run().unwrap();
        assert_eq!(presolved(&cold), (44, 40));
        assert_eq!(presolved(&escalated), presolved(&cold));
    }

    #[test]
    fn escalated_run_keeps_soundness_and_json_fields_consistent() {
        let report =
            Analysis::parse("func main() begin if prob(0.5) then tick(2) else tick(4) fi end")
                .unwrap()
                .escalate_from(1)
                .run()
                .unwrap();
        assert_eq!(report.is_sound(), Some(true));
        let json = report.to_json();
        assert!(
            json.contains("\"escalation\":{\"from_degree\":1,\"to_degree\":2"),
            "{json}"
        );
        assert!(json.contains("\"plan\":{\"slots_created\":"), "{json}");
        assert!(json.contains("\"shared_templates\":"), "{json}");
        assert!(json.contains("\"poly_degree\":1"), "{json}");
    }

    #[test]
    fn invalid_escalation_start_is_a_usage_error() {
        for from in [0usize, 2, 3] {
            let err = Analysis::benchmark(&running::rdwalk())
                .escalate_from(from)
                .soundness(false)
                .run()
                .unwrap_err();
            assert!(matches!(err, CmaError::Usage(_)), "from={from}: {err}");
        }
    }

    #[test]
    fn max_poly_degree_retries_infeasible_templates() {
        let failing = Analysis::parse(TRIANGLE)
            .unwrap()
            .degree(1)
            .soundness(false);
        let err = failing.clone().run().unwrap_err();
        assert_eq!(err.infeasible_at(), Some((1, 1)), "{err}");

        let report = failing.max_poly_degree(2).at("n", 4.0).run().unwrap();
        assert_eq!(report.poly_retries, 1);
        assert_eq!(report.poly_degree, 2);
        // Triangular cost n(n+1)/2 = 10 at n = 4, bracketed by the bounds.
        assert!(report.mean().hi() >= 10.0 - 1e-5);
        assert!(report.mean().lo() <= 10.0 + 1e-5);
        let json = report.to_json();
        assert!(json.contains("\"poly_degree\":2"), "{json}");
        assert!(json.contains("\"poly_retries\":1"), "{json}");
    }

    /// A program the checker can prune: one statically-refuted branch, one
    /// never-entered loop, one dead template variable.
    const PRUNABLE: &str = "func main() begin\n  x := 1;\n  waste := 7;\n  if x < 0 then tick(9) else tick(1) fi;\n  while x < 0 do tick(5) od\nend\n";

    #[test]
    fn checker_errors_abort_the_run_with_the_report() {
        // Malformed distributions and calls never reach the checker through
        // `Analysis::parse` — the parse-time validator rejects them first,
        // with a span of its own.
        let err = Analysis::parse("func main() begin\n  x ~ uniform(2, 1);\n  tick(1)\nend\n")
            .unwrap_err();
        assert!(matches!(err, CmaError::Parse(_)), "{err}");

        // The checker's own error path on a *valid* program: a negative tick
        // under the declared nonnegative-cost mode (CMA007).
        let src = "func main() begin\n  tick(-2)\nend\n";
        let err = Analysis::parse(src)
            .unwrap()
            .check_nonneg_cost(true)
            .run()
            .unwrap_err();
        assert!(matches!(err, CmaError::Check(_)), "{err}");
        let report = err.check_report().expect("report rides on the error");
        assert!(report.has_errors());
        assert!(err.to_string().contains("static checks failed"), "{err}");

        // Without the mode (or with the checks disabled) the same program
        // analyzes fine — the engine handles nonmonotone costs.
        let ran = Analysis::parse(src)
            .unwrap()
            .check(false)
            .soundness(false)
            .run();
        assert!(ran.is_ok(), "{:?}", ran.err().map(|e| e.to_string()));
        assert!(ran.unwrap().check.is_none());
    }

    #[test]
    fn checker_warnings_ride_in_the_report() {
        let report = Analysis::parse(PRUNABLE)
            .unwrap()
            .soundness(false)
            .run()
            .unwrap();
        let check = report.check.as_ref().expect("checks ran");
        // CMA002 (refuted branch), CMA002/CMA004 (dead loop), CMA005 (waste).
        assert!(check.warnings >= 3, "{:?}", check.diagnostics);
        assert!(
            check.diagnostics.iter().any(|d| d.contains("CMA005")),
            "{:?}",
            check.diagnostics
        );
        let rendered = report.to_string();
        assert!(rendered.contains("checks: "), "{rendered}");
    }

    #[test]
    fn check_pruning_shrinks_the_lp_and_keeps_the_exact_bound() {
        let base = Analysis::parse(PRUNABLE)
            .unwrap()
            .check_pruning(false)
            .soundness(false)
            .run()
            .unwrap();
        let pruned = Analysis::parse(PRUNABLE)
            .unwrap()
            .soundness(false)
            .run()
            .unwrap();
        // Unpruned run still reports the checker outcome, with zero savings.
        assert!(!base.check.as_ref().unwrap().pruning.any());
        let stats = pruned.check.as_ref().unwrap().pruning;
        assert_eq!(stats.refuted_branches, 1);
        assert_eq!(stats.skipped_loops, 1);
        assert_eq!(stats.dropped_template_vars, 1);
        assert!(
            pruned.lp.constraints < base.lp.constraints,
            "pruned {} vs {}",
            pruned.lp.constraints,
            base.lp.constraints
        );
        assert!(pruned.lp.variables < base.lp.variables);
        // The only live path ticks exactly 1.
        for report in [&base, &pruned] {
            assert!((report.mean().lo() - 1.0).abs() < 1e-6, "{}", report.mean());
            assert!((report.mean().hi() - 1.0).abs() < 1e-6, "{}", report.mean());
        }
    }

    #[test]
    fn check_pruning_shrinks_the_soundness_reanalysis_too() {
        let run = |prune: bool| {
            Analysis::parse(PRUNABLE)
                .unwrap()
                .check_pruning(prune)
                .run()
                .unwrap()
                .soundness
                .expect("soundness ran")
        };
        let (base, pruned) = (run(false), run(true));
        for report in [&base, &pruned] {
            assert_eq!(report.termination_moment, Some(2));
        }
        assert!(
            pruned.extension_constraints < base.extension_constraints,
            "pruned {} vs {}",
            pruned.extension_constraints,
            base.extension_constraints
        );
        assert!(pruned.extension_variables < base.extension_variables);
    }

    #[test]
    fn json_report_is_well_formed_and_complete() {
        let report = Analysis::benchmark(&running::rdwalk())
            .tail_at([40.0])
            .run()
            .unwrap();
        let json = report.to_json();
        for key in [
            "\"label\":\"rdwalk\"",
            "\"degree\":2",
            "\"mode\":\"global\"",
            "\"backend\":\"revised-simplex\"",
            "\"parallelism\":1",
            "\"poly_degree\":1",
            "\"poly_retries\":0",
            "\"raw_moments\":[",
            "\"central_moments\":",
            "\"tail_bounds\":[{\"threshold\":40",
            "\"soundness\":{",
            "\"extension_constraints\":",
            "\"shared_templates\":",
            "\"lp\":{",
            "\"groups\":[{\"name\":\"global\"",
            "\"plan\":{\"slots_created\":",
            "\"escalation\":null",
            "\"degradation\":{\"degraded\":false,\"steps\":[]}",
            "\"check\":{\"warnings\":0",
            "\"pruning\":{\"refuted_branches\":0",
            "\"timings\":{",
            "\"check_ms\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Balanced braces/brackets — cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn expired_timeout_surfaces_as_budget_exhaustion_not_infeasibility() {
        // A zero budget exhausts every ladder rung before any solve can
        // finish; the error must say "out of budget", never "infeasible".
        let err = Analysis::benchmark(&running::rdwalk())
            .soundness(false)
            .timeout(Duration::ZERO)
            .run()
            .unwrap_err();
        assert!(err.budget_exhausted(), "{err}");
        assert!(err.is_analysis_failure());
        assert_eq!(err.infeasible_at(), None);
        assert!(err.to_string().contains("budget exhausted"), "{err}");
    }

    #[test]
    fn timeout_bounds_the_soundness_phase() {
        // Unbudgeted, the degree-3 soundness LP of the Fig. 2 walk runs
        // for minutes; its main analysis takes a fraction of a second.  The
        // whole-analysis deadline must stop the soundness phase too, and an
        // exhausted soundness LP leaves the finite E[T^k] not established.
        // (A debug build spends about a third of the budget on the main
        // analysis.)
        let timeout = Duration::from_secs(3);
        let start = Instant::now();
        let report = Analysis::benchmark(&running::rdwalk())
            .degree(3)
            .timeout(timeout)
            .run()
            .expect("the main analysis fits the budget");
        let elapsed = start.elapsed();
        assert!(
            elapsed < timeout + Duration::from_secs(1),
            "the run took {elapsed:?} under a {timeout:?} budget"
        );
        assert!(!report.degradation.degraded());
        assert_eq!(report.is_sound(), Some(false));
        let soundness = report.soundness.expect("soundness was checked");
        assert_eq!(soundness.termination_moment, None);
    }

    #[test]
    fn generous_timeout_changes_nothing_and_stays_unlabeled() {
        let plain = Analysis::benchmark(&running::rdwalk())
            .soundness(false)
            .run()
            .unwrap();
        let budgeted = Analysis::benchmark(&running::rdwalk())
            .soundness(false)
            .timeout(Duration::from_secs(600))
            .group_timeout(Duration::from_secs(60))
            .run()
            .unwrap();
        assert!(!budgeted.result.degradation.degraded());
        assert_eq!(budgeted.degree, plain.degree);
        assert_eq!(budgeted.raw_intervals, plain.raw_intervals);
    }

    #[test]
    fn degraded_reports_are_always_labeled_in_text_and_json() {
        let mut report = Analysis::benchmark(&running::rdwalk())
            .soundness(false)
            .run()
            .unwrap();
        report.degradation = cma_inference::DegradationStats {
            steps: vec![
                DegradationStep::CompositionalMode,
                DegradationStep::ReduceDegree { from: 2, to: 1 },
            ],
        };
        let rendered = report.to_string();
        assert!(
            rendered.contains("degraded: global->compositional, degree:2->1"),
            "{rendered}"
        );
        let json = report.to_json();
        assert!(
            json.contains(
                "\"degradation\":{\"degraded\":true,\
                 \"steps\":[\"global->compositional\",\"degree:2->1\"]}"
            ),
            "{json}"
        );
    }
}
