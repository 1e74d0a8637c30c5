//! The analysis driver: call-graph decomposition, specification templates,
//! objectives, LP solving, and bound extraction.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cma_appl::{Program, RangeFacts};
use cma_logic::Context;
use cma_lp::{LpBackend, LpSession, LpSolution, LpStatus, SolveStats, SolverTuning};
use cma_semiring::poly::{Polynomial, Var};
use cma_semiring::Interval;

use crate::builder::ConstraintBuilder;
use crate::central::CentralMoments;
use crate::derive::{transform, CostModel, DeriveCtx, DeriveError};
use crate::plan::PlanStats;
use crate::spec::{ResolvedSpec, SpecEntry, SpecTable};
use crate::template::SymMoment;
use crate::weaken::require_contains;

/// How the per-function specifications are solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveMode {
    /// One linear program for the whole program (most precise; the default).
    #[default]
    Global,
    /// One linear program per call-graph SCC, callees first, with resolved
    /// specifications frozen before moving on.  Scales linearly in the number
    /// of functions (Fig. 10) but requires cross-component calls to be in
    /// tail position (see `DESIGN.md`).
    Compositional,
}

/// User-facing options of the analysis.
#[derive(Debug, Clone)]
pub struct AnalysisOptions {
    /// Target moment degree `m` (2 for variance, 4 for the fourth central
    /// moment, …).
    pub degree: usize,
    /// Base polynomial degree `d`: the `k`-th moment component uses templates
    /// of degree `k·d`.
    pub poly_degree: u32,
    /// Solving strategy.
    pub mode: SolveMode,
    /// Concrete valuation at which imprecision is minimized (§3.4);
    /// unmentioned variables default to 1.
    pub valuation: Vec<(Var, f64)>,
    /// Worker threads for solving independent compositional SCC groups
    /// concurrently (1 = sequential; only [`SolveMode::Compositional`] has
    /// independent groups to parallelize).
    pub threads: usize,
    /// Upper limit for automatic base-polynomial-degree escalation: when the
    /// generated LP is *infeasible* at `poly_degree` (templates too weak to
    /// express a bound), the analysis retries `d → d+1` up to this limit,
    /// each retry a fresh analysis at the higher degree.  `None` (the
    /// default) disables retries.
    pub max_poly_degree: Option<u32>,
    /// Facts exported by the static checker (`cma-check`): statically
    /// refuted branches are derived one-sided (no join template, no
    /// containment rows), never-entered loops collapse to their
    /// continuation, and templates do not range over variables the checker
    /// proved dead.  The facts must come from a checker run over *this*
    /// program under the same preconditions.  They prune the step count of
    /// [`soundness_report`](crate::soundness_report) as well, which derives
    /// the same program under another cost model.  `None` (the default)
    /// disables pruning.
    pub range_facts: Option<Arc<RangeFacts>>,
    /// Wall-clock budget for the **whole analysis**: every LP solve — across
    /// compositional groups, poly-degree retries, and degradation rungs —
    /// draws down the one deadline derived from this duration at analysis
    /// start.  Exhaustion surfaces as
    /// [`LpStatus::BudgetExhausted`] inside [`AnalysisError::LpFailed`],
    /// never as infeasibility, so it cannot trigger a poly-degree retry.
    /// Nor does it send [`analyze_resilient`] down its ladder: once this
    /// deadline has passed, no rung has time left, and the error is
    /// returned as is.  The ladder descends when a group's own budget
    /// ([`group_timeout`](Self::group_timeout)) or the solver's iteration
    /// backstop runs out.  `None` (the default) leaves solves unbudgeted.
    pub timeout: Option<Duration>,
    /// Wall-clock budget for **each LP group solve**, measured from the
    /// moment the group's solver session opens and capped by whatever
    /// remains of [`timeout`](Self::timeout).  `None` (the default) gives
    /// groups no deadline of their own.
    pub group_timeout: Option<Duration>,
}

impl AnalysisOptions {
    /// Options for analyzing moments up to degree `m` with linear base
    /// templates.
    pub fn degree(m: usize) -> Self {
        AnalysisOptions {
            degree: m,
            poly_degree: 1,
            mode: SolveMode::Global,
            valuation: Vec::new(),
            threads: 1,
            max_poly_degree: None,
            range_facts: None,
            timeout: None,
            group_timeout: None,
        }
    }

    /// Sets the objective valuation.
    pub fn with_valuation(mut self, valuation: Vec<(Var, f64)>) -> Self {
        self.valuation = valuation;
        self
    }

    /// Sets the solving mode.
    pub fn with_mode(mut self, mode: SolveMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the base polynomial degree.
    pub fn with_poly_degree(mut self, d: u32) -> Self {
        self.poly_degree = d;
        self
    }

    /// Sets the number of worker threads for independent group solves.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables automatic poly-degree escalation on infeasibility, retrying
    /// `d → d+1` up to `max`, each retry a fresh analysis.
    pub fn with_max_poly_degree(mut self, max: u32) -> Self {
        self.max_poly_degree = Some(max);
        self
    }

    /// Attaches checker-exported range facts; the derivation then skips
    /// refuted branches and never-entered loops and drops dead template
    /// variables (see [`AnalysisResult::pruning`]).
    pub fn with_range_facts(mut self, facts: Arc<RangeFacts>) -> Self {
        self.range_facts = Some(facts);
        self
    }

    /// Bounds the whole analysis by a wall-clock deadline (see
    /// [`timeout`](Self::timeout)).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Bounds each LP group solve by its own wall-clock deadline (see
    /// [`group_timeout`](Self::group_timeout)).
    pub fn with_group_timeout(mut self, timeout: Duration) -> Self {
        self.group_timeout = Some(timeout);
        self
    }

    /// The solver tuning of the group solves: the whole-analysis deadline
    /// (if any) and [`group_timeout`](Self::group_timeout), which the backend
    /// turns into a deadline of its own for each session it opens.
    pub(crate) fn group_tuning(&self, deadline: Option<Instant>) -> SolverTuning {
        SolverTuning {
            deadline,
            timeout: self.group_timeout,
            max_iters: None,
        }
    }

    fn valuation_fn(&self) -> impl Fn(&Var) -> f64 + '_ {
        move |v: &Var| {
            self.valuation
                .iter()
                .find(|(var, _)| var == v)
                .map(|(_, value)| *value)
                .unwrap_or(1.0)
        }
    }
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions::degree(2)
    }
}

/// Failures of the analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// The generated LP has no solution: the templates (at the given degree)
    /// cannot express a bound, or a weakening certificate does not exist.
    LpFailed {
        /// Solver status (infeasible, unbounded, budget exhausted).
        status: LpStatus,
        /// Functions whose constraints were being solved.
        group: Vec<String>,
        /// Target moment degree `m` of the failed system.
        degree: usize,
        /// Base polynomial degree `d` of the failed templates (an
        /// *infeasible* status at this degree usually means the templates
        /// are too weak — retrying at `d+1` via
        /// [`AnalysisOptions::max_poly_degree`] often succeeds).
        poly_degree: u32,
    },
    /// Constraint generation failed.
    Derivation(DeriveError),
    /// [`AnalysisSession::escalate_degree`] called with a target that does
    /// not exceed the session's current degree.
    InvalidEscalation {
        /// The session's current moment degree.
        from: usize,
        /// The requested target degree.
        to: usize,
    },
    /// A previous failed escalation left rows without an optimum in the
    /// live solver session (appended rows cannot be retracted); no further
    /// escalation is possible — start a fresh [`analyze_session`].
    SessionPoisoned,
}

impl AnalysisError {
    /// Whether the root cause is an *infeasible* LP — the signal that the
    /// templates at the current poly degree cannot express a bound and a
    /// `d → d+1` retry may help.  Returns the failing `(degree, poly_degree)`.
    pub fn infeasible_at(&self) -> Option<(usize, u32)> {
        match self {
            AnalysisError::LpFailed {
                status: LpStatus::Infeasible,
                degree,
                poly_degree,
                ..
            } => Some((*degree, *poly_degree)),
            _ => None,
        }
    }

    /// Whether the root cause is an exhausted [`SolverTuning`] budget — a
    /// statement about resources, never about feasibility: retrying with
    /// more budget (or degrading via [`analyze_resilient`]) may succeed,
    /// while escalating the poly degree will not.
    pub fn budget_exhausted(&self) -> bool {
        matches!(
            self,
            AnalysisError::LpFailed {
                status: LpStatus::BudgetExhausted,
                ..
            }
        )
    }
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::LpFailed {
                status,
                group,
                degree,
                poly_degree,
            } => {
                write!(
                    f,
                    "linear program {status} while solving {group:?} \
                     (moment degree {degree}, poly degree {poly_degree})"
                )
            }
            AnalysisError::Derivation(e) => write!(f, "derivation failed: {e}"),
            AnalysisError::InvalidEscalation { from, to } => write!(
                f,
                "cannot escalate the session from degree {from} to {to} \
                 (the target must be strictly larger)"
            ),
            AnalysisError::SessionPoisoned => write!(
                f,
                "the session's live LP was left without an optimum by a \
                 failed escalation; start a fresh analysis"
            ),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<DeriveError> for AnalysisError {
    fn from(e: DeriveError) -> Self {
        AnalysisError::Derivation(e)
    }
}

/// Symbolic interval bound on one raw moment of the accumulated cost.
#[derive(Debug, Clone, PartialEq)]
pub struct MomentBound {
    /// Lower-bound polynomial over the program variables (initial state).
    pub lower: Polynomial,
    /// Upper-bound polynomial over the program variables (initial state).
    pub upper: Polynomial,
}

impl MomentBound {
    /// Evaluates the bound at an initial valuation (unmentioned variables
    /// default to 0, matching the all-zero initial state of the semantics).
    pub fn at(&self, valuation: &[(Var, f64)]) -> Interval {
        let val = |v: &Var| {
            valuation
                .iter()
                .find(|(var, _)| var == v)
                .map(|(_, value)| *value)
                .unwrap_or(0.0)
        };
        Interval::hull(self.lower.eval(&val), self.upper.eval(&val))
    }
}

/// Per-group size and solver-effort statistics of one solved linear program.
///
/// Equality compares the solver *path* (sizes and the path counters of
/// [`SolveStats`]), not the volatile counters — two runs over the same
/// system are equal whenever they pivoted identically, however long the
/// clock said it took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupLpStats {
    /// Display name of the group (`"global"`, `"main"`, or the functions of
    /// a compositional SCC joined with `+`).
    pub name: String,
    /// The functions whose specifications the group solved (empty for the
    /// final `main`-only group).
    pub functions: Vec<String>,
    /// LP variables of the group's system.
    pub variables: usize,
    /// LP constraint rows of the group's system.
    pub constraints: usize,
    /// Solver counters of the group's solve.
    pub stats: SolveStats,
}

/// The outcome of a successful analysis.
#[derive(Debug, Clone)]
pub struct AnalysisResult {
    /// Interval bounds on the raw moments `E[C^k]` for `k = 0..=m`, as
    /// polynomials over the program variables at the start of `main`.
    pub bounds: Vec<MomentBound>,
    /// Resolved per-function specifications (function name, restriction level).
    pub specs: BTreeMap<(String, usize), ResolvedSpec>,
    /// Total number of LP variables generated.
    pub lp_variables: usize,
    /// Total number of LP constraints generated.
    pub lp_constraints: usize,
    /// Number of linear programs handed to the backend (1 in global mode, one
    /// per call-graph SCC plus one for `main` in compositional mode).
    pub lp_solves: usize,
    /// Size statistics of every solved group, in solve order (degree
    /// escalations append a pseudo-group carrying the increment's sizes).
    pub groups: Vec<GroupLpStats>,
    /// Base polynomial degree the successful instantiation used (larger than
    /// the requested degree when automatic poly-degree escalation retried).
    pub poly_degree: u32,
    /// Automatic `d → d+1` retries spent before the system became feasible.
    pub poly_retries: usize,
    /// Derivation-plan counters of the successful attempt: what its first
    /// walks recorded plus what in-place degree escalations reused (a
    /// poly-degree retry or a cold restart starts from a fresh plan, so this
    /// equals a direct run at the degrees it landed on).
    pub plan: PlanStats,
    /// Statistics of the in-session degree escalation that produced this
    /// result (`None` for from-scratch analyses).
    pub escalation: Option<EscalationStats>,
    /// Derivation work skipped thanks to checker-exported range facts
    /// (all-zero when [`AnalysisOptions::range_facts`] is unset).
    pub pruning: PruningStats,
    /// Degradation-ladder rungs descended to produce this result (empty for
    /// a full-precision run; only [`analyze_resilient`] ever records
    /// any).
    pub degradation: DegradationStats,
    /// Wall-clock time spent in the analysis.
    pub elapsed: Duration,
}

/// Derivation work skipped thanks to checker-exported range facts
/// ([`AnalysisOptions::with_range_facts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PruningStats {
    /// `if` statements derived one-sided because the checker refuted the
    /// other branch: no join template, no containment rows.
    pub refuted_branches: usize,
    /// `while` loops collapsed to their continuation because the guard is
    /// refuted on entry: no invariant template, no body or exit rows.
    pub skipped_loops: usize,
    /// Program variables the moment templates do not range over because the
    /// checker proved them write-only.
    pub dropped_template_vars: usize,
}

impl PruningStats {
    /// Whether any pruning happened at all.
    pub fn any(&self) -> bool {
        self.refuted_branches > 0 || self.skipped_loops > 0 || self.dropped_template_vars > 0
    }

    fn absorb(&mut self, other: &PruningStats) {
        self.refuted_branches += other.refuted_branches;
        self.skipped_loops += other.skipped_loops;
        self.dropped_template_vars += other.dropped_template_vars;
    }
}

/// One precision-for-progress rung of the graceful-degradation ladder,
/// taken by [`analyze_resilient`] after an attempt exhausted its
/// [`SolverTuning`] budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationStep {
    /// Global mode was downgraded to compositional: one small LP per
    /// call-graph SCC instead of one monolithic system.
    CompositionalMode,
    /// The target moment degree was lowered — fewer, cheaper moment
    /// components, so the bounds stop at `to` instead of `from`.
    ReduceDegree {
        /// Moment degree before the reduction.
        from: usize,
        /// Moment degree after the reduction.
        to: usize,
    },
}

impl std::fmt::Display for DegradationStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradationStep::CompositionalMode => write!(f, "global->compositional"),
            DegradationStep::ReduceDegree { from, to } => write!(f, "degree:{from}->{to}"),
        }
    }
}

/// The degradation rungs an analysis descended before producing its result —
/// empty for a full-precision run.  A nonempty value labels the bounds as
/// **degraded**: still sound (every rung re-runs the full analysis under
/// weaker options, it never edits bounds after the fact), but less precise
/// than requested.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DegradationStats {
    /// Ladder rungs taken, in the order they were taken.
    pub steps: Vec<DegradationStep>,
}

impl DegradationStats {
    /// Whether any rung was taken at all.
    pub fn degraded(&self) -> bool {
        !self.steps.is_empty()
    }
}

impl std::fmt::Display for DegradationStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for step in &self.steps {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{step}")?;
        }
        Ok(())
    }
}

/// Observable effort of one [`AnalysisSession::escalate_degree`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EscalationStats {
    /// Moment degree the session was at before the escalation.
    pub from_degree: usize,
    /// Target moment degree after the escalation.
    pub to_degree: usize,
    /// LP columns appended for the new moment components.
    pub appended_variables: usize,
    /// LP constraint rows appended for the new moment components.
    pub appended_constraints: usize,
    /// Template slots replayed from the derivation plan (0 on a cold
    /// restart, which derives from a fresh plan).
    pub reused_slots: usize,
    /// Existing LP template columns the new components ride on.
    pub reused_columns: usize,
    /// Dual-simplex pivots the warm re-solve spent repairing the appended
    /// rows (0 when the open session re-solves from scratch).
    pub dual_pivots: usize,
    /// Simplex iterations of the escalated re-minimize.
    pub iterations: usize,
    /// From-scratch restarts the escalation had to fall back to (0 on the
    /// happy path: compositional sessions and poly-degree bumps restart).
    pub cold_restarts: usize,
    /// Automatic poly-degree retries spent during the escalation.
    pub poly_retries: usize,
}

impl AnalysisResult {
    /// The target moment degree `m`.
    pub fn degree(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The symbolic bound on the `k`-th raw moment.
    pub fn raw_moment_bound(&self, k: usize) -> &MomentBound {
        &self.bounds[k]
    }

    /// The `k`-th raw moment bound evaluated at an initial valuation.
    pub fn raw_moment_at(&self, k: usize, valuation: &[(Var, f64)]) -> Interval {
        self.bounds[k].at(valuation)
    }

    /// All raw-moment intervals at an initial valuation.
    pub fn raw_intervals_at(&self, valuation: &[(Var, f64)]) -> Vec<Interval> {
        self.bounds.iter().map(|b| b.at(valuation)).collect()
    }

    /// Central-moment information (variance, central 3rd/4th moments,
    /// skewness, kurtosis) at an initial valuation.
    pub fn central_at(&self, valuation: &[(Var, f64)]) -> CentralMoments {
        CentralMoments::from_raw_intervals(&self.raw_intervals_at(valuation))
    }

    /// Symbolic upper bound on the variance: `U₂ − L₁²`
    /// (valid wherever `L₁ ≥ 0`, cf. Ex. 2.4).
    pub fn variance_upper_poly(&self) -> Option<Polynomial> {
        if self.bounds.len() < 3 {
            return None;
        }
        let u2 = &self.bounds[2].upper;
        let l1 = &self.bounds[1].lower;
        Some(u2.sub(&l1.mul(l1)))
    }

    /// The resolved specification of a function at a restriction level.
    pub fn spec(&self, function: &str, level: usize) -> Option<&ResolvedSpec> {
        self.specs.get(&(function.to_string(), level))
    }
}

/// Analyzes a program, deriving symbolic interval bounds on the raw moments
/// `E[C^k]`, `k ≤ m`, of its accumulated cost, solving every generated linear
/// program with the given [`LpBackend`].
///
/// # Errors
///
/// Returns [`AnalysisError`] when constraint generation fails or the LP has no
/// solution under the chosen template degrees.
pub fn analyze_with(
    program: &Program,
    options: &AnalysisOptions,
    backend: &dyn LpBackend,
) -> Result<AnalysisResult, AnalysisError> {
    analyze_session_for(program, options, backend, CostModel::Ticks, Goal::Tightest)
        .map(|session| session.result)
}

/// The engine state kept alive after [`analyze_session`]: the main group's
/// [`ConstraintBuilder`], the open solver session over its LP, and the
/// [`AnalysisResult`] the two produced.
/// [`escalate_degree`](Self::escalate_degree) extends all three in place
/// instead of re-deriving the main system from scratch.
pub struct AnalysisSession<'a> {
    builder: ConstraintBuilder,
    session: Box<dyn LpSession + 'a>,
    backend: &'a dyn LpBackend,
    options: AnalysisOptions,
    cost: CostModel,
    program: &'a Program,
    pub(crate) result: AnalysisResult,
    poisoned: bool,
    minimizes: usize,
}

impl<'a> AnalysisSession<'a> {
    /// Total `minimize` calls issued for the session so far (1 after the
    /// main solve; +1 per degree escalation).
    pub fn minimizes(&self) -> usize {
        self.minimizes
    }

    /// Escalates the session to moment degree `target` **in place**: the
    /// walk replays the recorded
    /// [`DerivationPlan`](crate::plan::DerivationPlan), so the existing
    /// template columns back the components `≤ m` verbatim and only the
    /// new components `m+1..=target` mint columns and emit rows, which are
    /// flushed into the live solver session and re-minimized warm (dual
    /// pivots from the still-dual-feasible basis — no cold re-derive, no
    /// phase-1 restart on the happy path).
    ///
    /// The escalated system is *identical* (modulo column/row order) to a
    /// from-scratch degree-`target` derivation: component-`k` rows are
    /// degree-invariant because frames are `(h+1)`-restricted (zero on
    /// components `≤ m`), so the old rows are exactly the component-`≤m`
    /// slice of the new system.  Bounds therefore match a cold degree-
    /// `target` analysis within solver tolerance.
    ///
    /// The escalation extends the session's own result and returns a copy
    /// of it: the increment joins [`AnalysisResult::groups`] as a group of
    /// its own (no new LP, so `lp_solves` stays), the sizes grow by it, and
    /// the bounds, specifications, plan counters, escalation statistics
    /// and elapsed time are the escalation's.
    ///
    /// Compositional sessions freeze resolved callee specifications per
    /// degree and cannot extend them in place: they fall back to a cold
    /// re-analysis at the target degree (reported via
    /// [`EscalationStats::cold_restarts`]).  An infeasible escalated system
    /// falls back the same way at `d+1` when
    /// [`AnalysisOptions::max_poly_degree`] allows.  A successful cold
    /// re-analysis replaces this session.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::InvalidEscalation`] when `target` does not exceed
    /// the current degree, [`AnalysisError::LpFailed`] when the escalated
    /// system has no optimum (after any permitted poly-degree retries).  A
    /// failed cold re-analysis leaves the session as it was; a failed
    /// in-place extension poisons it ([`AnalysisError::SessionPoisoned`] on
    /// further escalations), since its appended rows cannot be retracted.
    pub fn escalate_degree(&mut self, target: usize) -> Result<AnalysisResult, AnalysisError> {
        let from_degree = self.options.degree;
        if target <= from_degree {
            return Err(AnalysisError::InvalidEscalation {
                from: from_degree,
                to: target,
            });
        }
        if self.poisoned {
            return Err(AnalysisError::SessionPoisoned);
        }
        let mut options = self.options.clone();
        options.degree = target;

        if self.options.mode == SolveMode::Compositional {
            // Resolved callee specs have no components above `from_degree`;
            // re-run the compositional pipeline cold at the target degree.
            return self.escalate_cold(options, from_degree, 0);
        }

        let start = Instant::now();
        let plan_before = self.builder.plan.stats();
        let final_group = function_names(self.program);
        let built = build_group(
            &mut self.builder,
            self.program,
            &options,
            self.cost,
            &final_group,
            true,
            &BTreeMap::new(),
        );
        let build = match built {
            Ok(build) => build,
            Err(e) => {
                // The walk stopped midway, so the plan no longer matches
                // the rows in the builder; further replays would skip rows
                // that were never instantiated.
                self.poisoned = true;
                return Err(e);
            }
        };

        self.builder.flush(self.session.as_mut());
        let solution = self.session.minimize(&self.builder.objective());
        self.minimizes += 1;

        if !solution.is_optimal() {
            // The escalated rows are irreversibly part of the live session
            // and the system has no optimum: the session cannot be ridden
            // any further (unless a cold retry replaces it).
            self.poisoned = true;
            let max_d = options.max_poly_degree.unwrap_or(options.poly_degree);
            if solution.status == LpStatus::Infeasible && options.poly_degree < max_d {
                // Templates too weak at this poly degree: re-analyze at
                // `d+1` from scratch.
                options.poly_degree += 1;
                return self.escalate_cold(options, from_degree, 1);
            }
        }
        let outcome = extract_outcome(build, &solution, &final_group, true, &options)?;

        // The escalated group joins the result, whose sizes are still the
        // builder's before this walk; its poly degree, pruning and
        // (cumulative) poly retries are the session's and stay.
        let result = &mut self.result;
        result.plan = self.builder.plan.stats();
        let plan_delta = result.plan.since(&plan_before);
        let appended_variables = self.builder.num_vars() - result.lp_variables;
        let appended_constraints = self.builder.num_constraints() - result.lp_constraints;
        result.escalation = Some(EscalationStats {
            from_degree,
            to_degree: target,
            appended_variables,
            appended_constraints,
            reused_slots: plan_delta.slots_reused,
            reused_columns: plan_delta.columns_reused,
            dual_pivots: solution.stats.dual_pivots,
            iterations: solution.stats.iterations,
            cold_restarts: 0,
            poly_retries: 0,
        });
        result.groups.push(GroupLpStats {
            name: format!("escalate({from_degree}->{target})"),
            functions: final_group,
            variables: appended_variables,
            constraints: appended_constraints,
            stats: solution.stats,
        });
        result.bounds = outcome
            .main_bounds
            .expect("main bounds computed by the escalated group");
        result.specs = outcome.specs;
        result.lp_variables = self.builder.num_vars();
        result.lp_constraints = self.builder.num_constraints();
        result.elapsed = start.elapsed();
        self.options.degree = target;
        Ok(self.result.clone())
    }

    /// Cold escalation path: re-analyzes at the target degree (and poly
    /// degree) from scratch and swaps the fresh session into `self`.  On
    /// error `self` is left untouched.
    fn escalate_cold(
        &mut self,
        options: AnalysisOptions,
        from_degree: usize,
        extra_poly_retries: usize,
    ) -> Result<AnalysisResult, AnalysisError> {
        let mut fresh = analyze_session_for(
            self.program,
            &options,
            self.backend,
            self.cost,
            Goal::Tightest,
        )?;
        // Retries spent *during* this escalation vs the session's cumulative
        // total (which includes the original lower-degree analysis's).
        let during = fresh.result.poly_retries + extra_poly_retries;
        fresh.result.poly_retries = self.result.poly_retries + during;
        fresh.result.escalation = Some(EscalationStats {
            from_degree,
            to_degree: options.degree,
            cold_restarts: 1,
            poly_retries: during,
            ..EscalationStats::default()
        });
        *self = fresh;
        Ok(self.result.clone())
    }
}

/// [`analyze_with`], additionally returning the live [`AnalysisSession`] so
/// [`escalate_degree`](AnalysisSession::escalate_degree) can extend the main
/// constraint system in place instead of re-deriving it.
///
/// An attempt whose LP is infeasible at poly degree `d` is retried as a fresh
/// analysis at `d+1` while [`AnalysisOptions::max_poly_degree`] allows; every
/// attempt draws on the one deadline of [`AnalysisOptions::timeout`].
///
/// # Errors
///
/// Returns [`AnalysisError`] when constraint generation fails or the LP has no
/// solution under the chosen template degrees.
pub fn analyze_session<'a>(
    program: &'a Program,
    options: &AnalysisOptions,
    backend: &'a dyn LpBackend,
) -> Result<(AnalysisResult, AnalysisSession<'a>), AnalysisError> {
    let session = analyze_session_for(program, options, backend, CostModel::Ticks, Goal::Tightest)?;
    Ok((session.result.clone(), session))
}

/// What the final `minimize` of an analysis asks of its LP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Goal {
    /// The tightness objective at the valuation (§3.4): the bounds are read
    /// off its optimum.
    Tightest,
    /// Any feasible point: the objective is empty, so phase 2 ends at its
    /// first pricing pass.  For a caller that reads only whether the
    /// analysis finds a bound and how large its LP is (the Thm 4.4
    /// re-analysis): derivation, rows and columns are the same, and the
    /// bounds it returns are valid but not tight.
    Feasible,
}

/// [`analyze_session`] bounding the moments of `cost`, with the final
/// solve's [`Goal`].
pub(crate) fn analyze_session_for<'a>(
    program: &'a Program,
    options: &AnalysisOptions,
    backend: &'a dyn LpBackend,
    cost: CostModel,
    goal: Goal,
) -> Result<AnalysisSession<'a>, AnalysisError> {
    let start = Instant::now();
    // One deadline for the whole analysis, shared by every poly-degree
    // retry: an attempt that exhausts it fails with `BudgetExhausted`,
    // which `infeasible_at` never matches, so the retry loop stops too.
    let deadline = options.timeout.map(|t| start + t);
    let base_d = options.poly_degree;
    let max_d = options.max_poly_degree.unwrap_or(base_d).max(base_d);
    let mut poly_retries = 0usize;
    loop {
        let mut attempt = options.clone();
        attempt.poly_degree = base_d + poly_retries as u32;
        match analyze_attempt(program, &attempt, backend, deadline, cost, goal) {
            Ok(mut session) => {
                session.result.elapsed = start.elapsed();
                session.result.poly_retries = poly_retries;
                return Ok(session);
            }
            Err(e) if e.infeasible_at().is_some() && attempt.poly_degree < max_d => {
                // Templates too weak: retry at the next base degree.
                poly_retries += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// [`analyze_with`] with a **graceful-degradation ladder**: when an
/// attempt fails because its [`SolverTuning`] budget ran out — never on
/// infeasibility or any other verdict — the analysis retries under
/// progressively cheaper options, each retry under whatever remains of the
/// whole-analysis deadline.  The rungs, in order:
///
/// 1. global → compositional mode (one small LP per SCC instead of one
///    monolithic system);
/// 2. moment degree `m → m−1`, repeated down to degree 1.
///
/// Every rung taken is recorded in [`AnalysisResult::degradation`], so a
/// degraded bound is always labeled, never silent.  Compositional mode is
/// the one rung that can *introduce* failures of its own (it rejects
/// non-tail cross-component calls); if its attempt fails with a non-budget
/// error, the rung is reverted and the descent continues past it.
///
/// # Errors
///
/// Returns [`AnalysisError`] when constraint generation fails or the LP has
/// no solution, and the original budget-exhaustion error when the ladder
/// runs out of rungs (or of wall clock) without landing an answer.
pub fn analyze_resilient(
    program: &Program,
    options: &AnalysisOptions,
    backend: &dyn LpBackend,
) -> Result<AnalysisResult, AnalysisError> {
    let deadline = options.timeout.map(|t| Instant::now() + t);
    let mut attempt = options.clone();
    let mut steps: Vec<DegradationStep> = Vec::new();
    let mut mode_rung_tried = attempt.mode != SolveMode::Global;
    loop {
        match analyze_with(program, &attempt, backend) {
            Ok(mut result) => {
                result.degradation = DegradationStats { steps };
                return Ok(result);
            }
            Err(e) => {
                if !e.budget_exhausted() {
                    if steps.last() == Some(&DegradationStep::CompositionalMode) {
                        // The mode rung itself broke the analysis — revert
                        // it and keep descending the remaining rungs.
                        attempt.mode = options.mode;
                        steps.pop();
                    } else {
                        return Err(e);
                    }
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    return Err(e);
                }
                if !mode_rung_tried {
                    mode_rung_tried = true;
                    attempt.mode = SolveMode::Compositional;
                    steps.push(DegradationStep::CompositionalMode);
                } else if attempt.degree > 1 {
                    steps.push(DegradationStep::ReduceDegree {
                        from: attempt.degree,
                        to: attempt.degree - 1,
                    });
                    attempt.degree -= 1;
                } else {
                    return Err(e);
                }
                if let Some(d) = deadline {
                    // The retry gets what is left of the one deadline.
                    attempt.timeout = Some(d.duration_since(Instant::now()));
                }
            }
        }
    }
}

/// One full derivation + solve pass at fixed options; `cost` decides what
/// the derivation charges, `goal` what the final group's solve minimizes.
fn analyze_attempt<'a>(
    program: &'a Program,
    options: &AnalysisOptions,
    backend: &'a dyn LpBackend,
    deadline: Option<Instant>,
    cost: CostModel,
    goal: Goal,
) -> Result<AnalysisSession<'a>, AnalysisError> {
    let start = Instant::now();
    let mut resolved: BTreeMap<(String, usize), ResolvedSpec> = BTreeMap::new();
    let mut group_stats: Vec<GroupLpStats> = Vec::new();
    let mut plan_stats = PlanStats::default();
    let mut pruning = PruningStats::default();
    if options.range_facts.is_some() {
        pruning.dropped_template_vars =
            program.vars().len() - template_vars(program, options).len();
    }

    // Solve every non-final group (compositional mode only); groups at the
    // same dependency level are independent and go through `solve_batch`.
    if options.mode == SolveMode::Compositional {
        let groups = program.call_graph_sccs();
        for level in scc_levels(program, &groups) {
            let mut builds = Vec::with_capacity(level.len());
            for &g in &level {
                let mut builder = ConstraintBuilder::new();
                let build = build_group(
                    &mut builder,
                    program,
                    options,
                    cost,
                    &groups[g],
                    false,
                    &resolved,
                )?;
                pruning.absorb(&build.pruning);
                builds.push((builder, build, groups[g].clone()));
            }
            let problems: Vec<cma_lp::LpProblem> = builds
                .iter()
                .map(|(builder, _, _)| builder.to_problem())
                .collect();
            let solutions = backend.solve_batch_with(
                &problems,
                options.threads,
                &options.group_tuning(deadline),
            );
            let mut failure = None;
            for ((builder, build, group), solution) in builds.into_iter().zip(solutions) {
                group_stats.push(group_lp_stats(
                    group.join("+"),
                    group.clone(),
                    &builder,
                    solution.stats,
                ));
                plan_stats = plan_stats.merge(&builder.plan.stats());
                if failure.is_none() {
                    match extract_outcome(build, &solution, &group, false, options) {
                        Ok(outcome) => resolved.extend(outcome.specs),
                        Err(e) => failure = Some(e),
                    }
                }
            }
            if let Some(e) = failure {
                return Err(e);
            }
        }
    }

    // The final group — everything (global mode) or just `main` over the
    // frozen specifications (compositional mode) — is solved through an open
    // session that stays alive for degree escalation.
    let (final_group, name) = match options.mode {
        SolveMode::Global => (function_names(program), "global"),
        SolveMode::Compositional => (Vec::new(), "main"),
    };
    let mut builder = ConstraintBuilder::new();
    let build = build_group(
        &mut builder,
        program,
        options,
        cost,
        &final_group,
        true,
        &resolved,
    )?;
    pruning.absorb(&build.pruning);
    let objective = match goal {
        Goal::Tightest => builder.objective(),
        Goal::Feasible => Vec::new(),
    };
    let mut session = builder.open_session(backend, &options.group_tuning(deadline));
    let solution = session.minimize(&objective);
    group_stats.push(group_lp_stats(
        name.to_string(),
        final_group.clone(),
        &builder,
        solution.stats,
    ));
    let outcome = extract_outcome(build, &solution, &final_group, true, options)?;
    resolved.extend(outcome.specs);

    let result = AnalysisResult {
        bounds: outcome
            .main_bounds
            .expect("main bounds computed by the final group"),
        specs: resolved,
        lp_variables: group_stats.iter().map(|g| g.variables).sum(),
        lp_constraints: group_stats.iter().map(|g| g.constraints).sum(),
        lp_solves: group_stats.len(),
        groups: group_stats,
        poly_degree: options.poly_degree,
        poly_retries: 0,
        plan: plan_stats.merge(&builder.plan.stats()),
        escalation: None,
        pruning,
        degradation: DegradationStats::default(),
        elapsed: start.elapsed(),
    };
    Ok(AnalysisSession {
        builder,
        session,
        backend,
        options: options.clone(),
        cost,
        program,
        result,
        poisoned: false,
        minimizes: 1,
    })
}

/// Assembles one group's LP stats from its builder sizes and the solver
/// counters of its solution.
fn group_lp_stats(
    name: String,
    functions: Vec<String>,
    builder: &ConstraintBuilder,
    stats: SolveStats,
) -> GroupLpStats {
    GroupLpStats {
        name,
        functions,
        variables: builder.num_vars(),
        constraints: builder.num_constraints(),
        stats,
    }
}

/// Every function of `program` by name: the group a global solve covers.
fn function_names(program: &Program) -> Vec<String> {
    program.functions().map(|f| f.name().to_string()).collect()
}

/// Dependency levels of the call-graph SCCs: level 0 groups call nothing
/// outside themselves, level `n + 1` groups call only groups of level ≤ `n`.
/// Groups within one level are independent and can be solved concurrently.
fn scc_levels(program: &Program, sccs: &[Vec<String>]) -> Vec<Vec<usize>> {
    let graph = program.call_graph();
    let mut scc_of: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, scc) in sccs.iter().enumerate() {
        for f in scc {
            scc_of.insert(f, i);
        }
    }
    let mut level = vec![0usize; sccs.len()];
    // `Program::call_graph_sccs` emits callees first, so every callee SCC's
    // level is final by the time its callers are processed.
    for (i, scc) in sccs.iter().enumerate() {
        for f in scc {
            for callee in graph.get(f.as_str()).into_iter().flatten() {
                if let Some(&j) = scc_of.get(callee.as_str()) {
                    if j != i {
                        level[i] = level[i].max(level[j] + 1);
                    }
                }
            }
        }
    }
    let max_level = level.iter().copied().max().map_or(0, |m| m + 1);
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); max_level];
    for (i, &l) in level.iter().enumerate() {
        buckets[l].push(i);
    }
    buckets.retain(|b| !b.is_empty());
    buckets
}

struct GroupOutcome {
    specs: BTreeMap<(String, usize), ResolvedSpec>,
    main_bounds: Option<Vec<MomentBound>>,
}

/// Everything `build_group` produces besides the constraints themselves:
/// the fresh specification templates and (for the final group) the derived
/// pre-annotation of `main`, both awaiting a solution to resolve against.
struct GroupBuild {
    specs: SpecTable,
    main_pre: Option<SymMoment>,
    pruning: PruningStats,
}

/// The variables templates range over: the program's, minus those the
/// checker proved dead.
fn template_vars(program: &Program, options: &AnalysisOptions) -> Vec<Var> {
    let mut vars = program.vars();
    if let Some(facts) = &options.range_facts {
        // Write-only variables cannot influence cost or control flow;
        // templates need not range over them.
        vars.retain(|v| !facts.dead_template_vars().contains(v));
    }
    vars
}

/// Emits the constraint system of one group into `builder`: fresh templates
/// for the group's functions, derivation of every body under `cost`, export
/// constraints (compositional mode), the tightness objective, and — when
/// `include_main` — the derivation of `main` itself.
fn build_group(
    builder: &mut ConstraintBuilder,
    program: &Program,
    options: &AnalysisOptions,
    cost: CostModel,
    group: &[String],
    include_main: bool,
    resolved: &BTreeMap<(String, usize), ResolvedSpec>,
) -> Result<GroupBuild, AnalysisError> {
    let m = options.degree;
    let d = options.poly_degree;
    let vars = template_vars(program, options);
    let valuation = options.valuation_fn();
    let facts = options.range_facts.as_deref();
    // Per-group walk counters; `dropped_template_vars` is a whole-program
    // property and is filled in once by the caller.
    let mut pruning = PruningStats::default();

    let mut specs = SpecTable::new();

    // Resolved specifications from earlier groups become constant annotations.
    for ((name, level), spec) in resolved {
        specs.insert(name, *level, spec.to_entry());
    }
    // Fresh templates for the functions of this group (plan slots, so a
    // degree-escalation replay reuses the recorded columns instead of
    // minting them anew).
    for name in group {
        for level in 0..=m {
            let entry = SpecEntry {
                pre: builder.planned_moment(&vars, m, d, level),
                post: builder.planned_moment(&vars, m, d, level),
            };
            specs.insert(name, level, entry);
        }
    }

    // In compositional mode the exported specifications must stay usable by
    // later callers: the level-0 post must cover the identity annotation and
    // higher-level posts must cover the zero annotation.
    if options.mode == SolveMode::Compositional {
        for name in group {
            for level in 0..=m {
                let post = specs.get(name, level).expect("just inserted").post.clone();
                let target = if level == 0 {
                    SymMoment::one(m)
                } else {
                    SymMoment::zero(m)
                };
                require_contains(builder, &Context::top(), &post, &target, d, level);
            }
        }
    }

    // Justify every specification of the group by analyzing the body.  The
    // body's contexts do not depend on the level: one flow serves them all.
    for name in group {
        let function = program
            .function(name)
            .expect("group members are declared functions");
        let flow = Context::from_conditions(function.precondition()).flow(function.body(), program);
        for level in 0..=m {
            let entry = specs.get(name, level).expect("just inserted").clone();
            let dctx =
                DeriveCtx::for_unit(&specs, m, d, vars.clone(), level, cost).with_facts(facts);
            let derived_pre =
                transform(builder, &dctx, function.body(), &flow, entry.post.clone())?;
            pruning.refuted_branches += dctx.pruned_branches.get();
            pruning.skipped_loops += dctx.pruned_loops.get();
            require_contains(builder, flow.before(), &entry.pre, &derived_pre, d, level);
            // Reward tight specifications (lower weight for deeper levels);
            // plan replays add terms only for components not yet rewarded.
            let weight = 0.1 / (1.0 + level as f64);
            let from = builder.recipe_gate(level, m);
            for k in from..=m {
                builder.add_objective(&entry.pre.component(k).hi.eval_vars(&valuation), weight);
                builder.add_objective(&entry.pre.component(k).lo.eval_vars(&valuation), -weight);
            }
        }
    }

    // Analyze `main` with the identity post-annotation.
    let main_pre = if include_main {
        let flow = Context::from_conditions(program.precondition()).flow(program.main(), program);
        let dctx = DeriveCtx::for_unit(&specs, m, d, vars.clone(), 0, cost).with_facts(facts);
        let pre = transform(builder, &dctx, program.main(), &flow, SymMoment::one(m))?;
        pruning.refuted_branches += dctx.pruned_branches.get();
        pruning.skipped_loops += dctx.pruned_loops.get();
        let from = builder.recipe_gate(0, m);
        for k in from..=m {
            builder.add_objective(&pre.component(k).hi.eval_vars(&valuation), 1.0);
            builder.add_objective(&pre.component(k).lo.eval_vars(&valuation), -1.0);
        }
        Some(pre)
    } else {
        None
    };
    builder.plan.finish_walk(m);

    Ok(GroupBuild {
        specs,
        main_pre,
        pruning,
    })
}

/// Resolves a group's templates against an LP solution (or reports the LP
/// failure for the group).
fn extract_outcome(
    build: GroupBuild,
    solution: &LpSolution,
    group: &[String],
    include_main: bool,
    options: &AnalysisOptions,
) -> Result<GroupOutcome, AnalysisError> {
    if !solution.is_optimal() {
        return Err(AnalysisError::LpFailed {
            status: solution.status,
            group: if include_main && group.is_empty() {
                vec!["main".to_string()]
            } else {
                group.to_vec()
            },
            degree: options.degree,
            poly_degree: options.poly_degree,
        });
    }

    let values = |v| solution.value(v);
    let mut resolved_specs = BTreeMap::new();
    for name in group {
        let mut level = 0;
        while let Some(entry) = build.specs.get(name, level) {
            resolved_specs.insert(
                (name.clone(), level),
                ResolvedSpec {
                    pre: entry.pre.resolve(&values),
                    post: entry.post.resolve(&values),
                },
            );
            level += 1;
        }
    }
    let main_bounds = build.main_pre.map(|pre| {
        pre.resolve(&values)
            .into_iter()
            .map(|(lower, upper)| MomentBound { lower, upper })
            .collect()
    });

    Ok(GroupOutcome {
        specs: resolved_specs,
        main_bounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cma_appl::build::*;
    use cma_lp::SimplexBackend;

    /// A program with one refuted branch (`x < 0` right after `x := 1`), one
    /// never-entered loop, and one write-only variable, plus the facts a
    /// checker run would export for it.  True cost: exactly 1.
    fn pruned_fixture() -> (Program, cma_appl::RangeFacts) {
        let source = "func main() begin\n  x := 1;\n  waste := 7;\n  \
                      if x < 0 then tick(9) else tick(1) fi;\n  \
                      while x < 0 do tick(5) od\nend\n";
        let program = cma_appl::parse_program_unchecked(source).unwrap();
        fn mark(stmt: &cma_appl::Stmt, facts: &mut cma_appl::RangeFacts) {
            use cma_appl::ast::StmtKind;
            match stmt.kind() {
                StmtKind::If(..) => {
                    facts.insert_refuted(stmt.span(), cma_appl::BranchFact::ThenUnreachable)
                }
                StmtKind::While(..) => {
                    facts.insert_refuted(stmt.span(), cma_appl::BranchFact::LoopNeverEntered)
                }
                StmtKind::Seq(ss) => ss.iter().for_each(|s| mark(s, facts)),
                _ => {}
            }
        }
        let mut facts = cma_appl::RangeFacts::new();
        mark(program.main(), &mut facts);
        facts.insert_dead_template_var(Var::new("waste"));
        (program, facts)
    }

    #[test]
    fn range_facts_prune_the_generated_lp() {
        let (program, facts) = pruned_fixture();
        let base = analyze_with(&program, &AnalysisOptions::degree(2), &SimplexBackend).unwrap();
        assert!(!base.pruning.any());

        let options = AnalysisOptions::degree(2).with_range_facts(Arc::new(facts));
        let pruned = analyze_with(&program, &options, &SimplexBackend).unwrap();
        assert_eq!(
            pruned.pruning,
            PruningStats {
                refuted_branches: 1,
                skipped_loops: 1,
                dropped_template_vars: 1,
            }
        );
        assert!(
            pruned.lp_constraints < base.lp_constraints,
            "pruned {} vs base {}",
            pruned.lp_constraints,
            base.lp_constraints
        );
        assert!(pruned.lp_variables < base.lp_variables);

        // Only `tick(1)` is live: both analyses must bracket cost 1, and the
        // pruned one is deterministic (no templates left, exact moments).
        for result in [&base, &pruned] {
            let e1 = result.raw_moment_at(1, &[(Var::new("x"), 1.0)]);
            assert!(e1.lo() <= 1.0 + 1e-6 && e1.hi() >= 1.0 - 1e-6, "{e1:?}");
        }
        let e1 = pruned.raw_moment_at(1, &[(Var::new("x"), 1.0)]);
        assert!(e1.width() < 1e-6, "pruned bound not exact: {e1:?}");
    }

    #[test]
    fn pruned_session_escalates_and_extends_consistently() {
        let (program, facts) = pruned_fixture();
        let facts = Arc::new(facts);
        let backend = SimplexBackend;
        let options = AnalysisOptions::degree(1).with_range_facts(facts.clone());
        let (r1, mut session) = analyze_session(&program, &options, &backend).unwrap();
        assert_eq!(r1.pruning.refuted_branches, 1);

        // In-place escalation replays the pruned plan with the same facts.
        let r2 = session.escalate_degree(2).unwrap();
        assert_eq!(r2.pruning, r1.pruning);
        let cold_options = AnalysisOptions::degree(2).with_range_facts(facts);
        let cold = analyze_with(&program, &cold_options, &SimplexBackend).unwrap();
        for k in 1..=2 {
            let hot = r2.raw_moment_at(k, &[(Var::new("x"), 1.0)]);
            let ref_b = cold.raw_moment_at(k, &[(Var::new("x"), 1.0)]);
            assert!(
                (hot.hi() - ref_b.hi()).abs() < 1e-6,
                "k={k}: {hot:?} vs {ref_b:?}"
            );
        }

        // The soundness re-analysis keeps the facts (it derives the same
        // program, charging steps), so it prunes what the main analysis
        // prunes, and establishes k = 2 on fewer rows than an unpruned
        // re-analysis.
        let soundness = crate::soundness::soundness_report(&program, 2, &options, &backend);
        assert_eq!(soundness.termination_moment, Some(2));
        let unpruned =
            crate::soundness::soundness_report(&program, 2, &AnalysisOptions::degree(2), &backend);
        assert_eq!(unpruned.termination_moment, Some(2));
        assert!(
            soundness.extension_constraints < unpruned.extension_constraints,
            "pruned {} vs unpruned {}",
            soundness.extension_constraints,
            unpruned.extension_constraints
        );
    }

    #[test]
    fn scc_levels_bucket_independent_groups_together() {
        // main → a; a → {b, c}; b → d; c → d: levels d | b,c | a.
        let program = ProgramBuilder::new()
            .function("a", seq([call("b"), call("c")]))
            .function("b", call("d"))
            .function("c", call("d"))
            .function("d", if_prob(0.5, call("d"), skip()))
            .main(call("a"))
            .build()
            .unwrap();
        let sccs = program.call_graph_sccs();
        let levels = scc_levels(&program, &sccs);
        assert_eq!(levels.len(), 3);
        let names_at = |l: usize| {
            let mut names: Vec<&str> = levels[l]
                .iter()
                .flat_map(|&i| sccs[i].iter().map(String::as_str))
                .collect();
            names.sort_unstable();
            names
        };
        assert_eq!(names_at(0), vec!["d"]);
        assert_eq!(names_at(1), vec!["b", "c"]);
        assert_eq!(names_at(2), vec!["a"]);
    }

    #[test]
    fn parallel_compositional_solves_match_sequential() {
        // Two independent tail-recursive functions (one dependency level with
        // two groups → exercised by `solve_batch`), called from `main` in
        // tail position of a probabilistic branch.
        let program = ProgramBuilder::new()
            .function("b", if_prob(0.5, seq([tick(1.0), call("b")]), skip()))
            .function("c", if_prob(0.25, seq([tick(2.0), call("c")]), tick(1.0)))
            .main(if_prob(0.5, call("b"), call("c")))
            .build()
            .unwrap();
        let sequential = AnalysisOptions::degree(2).with_mode(SolveMode::Compositional);
        let parallel = sequential.clone().with_threads(4);
        let seq_result = analyze_with(&program, &sequential, &SimplexBackend).unwrap();
        let par_result = analyze_with(&program, &parallel, &SimplexBackend).unwrap();
        assert_eq!(seq_result.lp_solves, par_result.lp_solves);
        assert_eq!(seq_result.groups, par_result.groups);
        for (s, p) in seq_result.bounds.iter().zip(&par_result.bounds) {
            assert_eq!(s, p, "parallel bounds diverged from sequential");
        }
    }

    #[test]
    fn result_reports_per_group_stats() {
        let program = ProgramBuilder::new()
            .function("geo", if_prob(0.5, seq([tick(1.0), call("geo")]), skip()))
            .main(call("geo"))
            .build()
            .unwrap();
        let global = analyze_with(&program, &AnalysisOptions::degree(2), &SimplexBackend).unwrap();
        assert_eq!(global.groups.len(), 1);
        assert_eq!(global.groups[0].name, "global");
        assert_eq!(global.groups[0].variables, global.lp_variables);
        assert_eq!(global.groups[0].constraints, global.lp_constraints);

        let options = AnalysisOptions::degree(2).with_mode(SolveMode::Compositional);
        let compositional = analyze_with(&program, &options, &SimplexBackend).unwrap();
        assert_eq!(compositional.groups.len(), 2);
        assert_eq!(compositional.groups[0].name, "geo");
        assert_eq!(compositional.groups.last().unwrap().name, "main");
        let total: usize = compositional.groups.iter().map(|g| g.constraints).sum();
        assert_eq!(total, compositional.lp_constraints);
    }

    #[test]
    fn straight_line_program_moments_are_exact() {
        let program = ProgramBuilder::new()
            .main(seq([tick(2.0), tick(3.0)]))
            .build()
            .unwrap();
        let result = analyze_with(&program, &AnalysisOptions::degree(3), &SimplexBackend).unwrap();
        let intervals = result.raw_intervals_at(&[]);
        assert!((intervals[1].mid() - 5.0).abs() < 1e-6);
        assert!((intervals[2].mid() - 25.0).abs() < 1e-6);
        assert!((intervals[3].mid() - 125.0).abs() < 1e-6);
        assert!(intervals[1].width() < 1e-6);
        assert_eq!(result.degree(), 3);
    }

    #[test]
    fn probabilistic_choice_moments_are_exact() {
        // cost 2 w.p. 1/2, else 4: E = 3, E² = 10, E³ = 36.
        let program = ProgramBuilder::new()
            .main(if_prob(0.5, tick(2.0), tick(4.0)))
            .build()
            .unwrap();
        let result = analyze_with(&program, &AnalysisOptions::degree(3), &SimplexBackend).unwrap();
        let i = result.raw_intervals_at(&[]);
        assert!((i[1].mid() - 3.0).abs() < 1e-6 && i[1].width() < 1e-6);
        assert!((i[2].mid() - 10.0).abs() < 1e-6);
        assert!((i[3].mid() - 36.0).abs() < 1e-6);
        // Variance = 10 - 9 = 1.
        let central = result.central_at(&[]);
        assert!(central.variance_upper() >= 1.0 - 1e-6);
        assert!(central.variance_upper() <= 1.0 + 1e-4);
    }

    #[test]
    fn geometric_recursion_is_bounded() {
        // Geometric(1/2): E = 2, E[C²] = 6.
        let program = ProgramBuilder::new()
            .function(
                "geo",
                if_prob(0.5, seq([tick(1.0), call("geo")]), tick(1.0)),
            )
            .main(call("geo"))
            .build()
            .unwrap();
        let result = analyze_with(&program, &AnalysisOptions::degree(2), &SimplexBackend).unwrap();
        let i = result.raw_intervals_at(&[]);
        assert!(i[1].lo() <= 2.0 + 1e-6 && i[1].hi() >= 2.0 - 1e-6);
        assert!(i[2].hi() >= 6.0 - 1e-6);
        // The bounds should be reasonably tight for this simple program.
        assert!(i[1].hi() <= 2.0 + 1e-4, "upper bound {}", i[1].hi());
        assert!(i[2].hi() <= 6.0 + 1e-3, "upper bound {}", i[2].hi());
    }

    #[test]
    fn unknown_callee_levels_surface_as_errors() {
        // Force an error by requesting a compositional analysis of a program
        // whose cross-group call is *not* in tail position with a large
        // trailing cost — the exported specification cannot cover it exactly
        // when the callee's exported post is too narrow.  The analysis must
        // not panic; it either succeeds (with a valid bound) or reports an
        // LP failure.
        let program = ProgramBuilder::new()
            .function("leaf", tick(1.0))
            .function("wrap", seq([call("leaf"), tick(5.0)]))
            .main(call("wrap"))
            .build()
            .unwrap();
        let options = AnalysisOptions::degree(2).with_mode(SolveMode::Compositional);
        match analyze_with(&program, &options, &SimplexBackend) {
            Ok(result) => {
                let i = result.raw_intervals_at(&[]);
                assert!(i[1].hi() >= 6.0 - 1e-6);
            }
            Err(AnalysisError::LpFailed { .. }) => {}
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn options_builders() {
        let o = AnalysisOptions::degree(4)
            .with_poly_degree(2)
            .with_mode(SolveMode::Compositional)
            .with_valuation(vec![(Var::new("d"), 10.0)])
            .with_timeout(Duration::from_secs(30))
            .with_group_timeout(Duration::from_secs(5));
        assert_eq!(o.degree, 4);
        assert_eq!(o.poly_degree, 2);
        assert_eq!(o.mode, SolveMode::Compositional);
        assert_eq!((o.valuation_fn())(&Var::new("d")), 10.0);
        assert_eq!((o.valuation_fn())(&Var::new("zzz")), 1.0);
        assert_eq!(o.timeout, Some(Duration::from_secs(30)));
        assert_eq!(o.group_timeout, Some(Duration::from_secs(5)));
    }

    /// An authentic `BudgetExhausted` solution, produced by a real solve
    /// under an already-expired deadline (the [`LpSolution`] constructor is
    /// crate-private to `cma-lp`).
    fn exhausted_solution() -> LpSolution {
        use cma_lp::{Cmp, LpProblem};
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Ge, 1.0);
        lp.set_objective(vec![(x, 1.0)]);
        let expired = SolverTuning {
            deadline: Some(Instant::now() - Duration::from_secs(1)),
            ..SolverTuning::default()
        };
        SimplexBackend.solve_with(&lp, &expired)
    }

    /// A backend whose first `failures` minimizes come back budget-exhausted
    /// and which then behaves exactly like [`SimplexBackend`] — the
    /// deterministic stand-in for "the deadline fired mid-campaign".
    struct FlakyBudget {
        failures: std::sync::atomic::AtomicUsize,
    }

    impl FlakyBudget {
        fn failing(failures: usize) -> Self {
            FlakyBudget {
                failures: std::sync::atomic::AtomicUsize::new(failures),
            }
        }
    }

    struct FlakySession<'a> {
        inner: Box<dyn LpSession + 'a>,
        failures: &'a std::sync::atomic::AtomicUsize,
    }

    impl LpSession for FlakySession<'_> {
        fn add_var(&mut self, name: &str, free: bool) -> cma_lp::LpVarId {
            self.inner.add_var(name, free)
        }
        fn add_constraint(&mut self, terms: &[(cma_lp::LpVarId, f64)], cmp: cma_lp::Cmp, rhs: f64) {
            self.inner.add_constraint(terms, cmp, rhs)
        }
        fn minimize(&mut self, objective: &[(cma_lp::LpVarId, f64)]) -> LpSolution {
            use std::sync::atomic::Ordering;
            let drained = self
                .failures
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok();
            if drained {
                exhausted_solution()
            } else {
                self.inner.minimize(objective)
            }
        }
        fn num_vars(&self) -> usize {
            self.inner.num_vars()
        }
        fn num_constraints(&self) -> usize {
            self.inner.num_constraints()
        }
    }

    impl LpBackend for FlakyBudget {
        fn name(&self) -> &str {
            "flaky-budget"
        }
        fn open<'a>(&'a self, problem: &cma_lp::LpProblem) -> Box<dyn LpSession + 'a> {
            Box::new(FlakySession {
                inner: SimplexBackend.open(problem),
                failures: &self.failures,
            })
        }
    }

    fn coin_program() -> Program {
        cma_appl::parse_program("func main() begin if prob(0.5) then tick(2) else tick(4) fi end")
            .unwrap()
    }

    #[test]
    fn expired_deadline_is_budget_exhaustion_not_infeasibility() {
        let program = coin_program();
        let options = AnalysisOptions::degree(2).with_timeout(Duration::ZERO);
        let err = analyze_with(&program, &options, &SimplexBackend).unwrap_err();
        assert!(err.budget_exhausted(), "{err:?}");
        // The one invariant the whole budget design hangs on: exhaustion is
        // never infeasibility, so it can never trigger a poly-degree retry.
        assert_eq!(err.infeasible_at(), None);
    }

    #[test]
    fn resilient_ladder_degrades_mode_then_degree_and_labels_the_result() {
        let program = coin_program();
        // Two exhausted attempts: global fails, compositional fails, the
        // degree-reduced retry lands.
        let backend = FlakyBudget::failing(2);
        let result = analyze_resilient(&program, &AnalysisOptions::degree(2), &backend).unwrap();
        assert_eq!(
            result.degradation.steps,
            vec![
                DegradationStep::CompositionalMode,
                DegradationStep::ReduceDegree { from: 2, to: 1 },
            ]
        );
        assert!(result.degradation.degraded());
        assert_eq!(result.degree(), 1);
        // Degraded, not wrong: the first moment still brackets E[C] = 3.
        let e1 = result.raw_moment_at(1, &[]);
        assert!(e1.lo() <= 3.0 + 1e-6 && 3.0 - 1e-6 <= e1.hi(), "{e1:?}");
    }

    #[test]
    fn resilient_ladder_out_of_rungs_returns_the_exhaustion() {
        let program = coin_program();
        let backend = FlakyBudget::failing(usize::MAX);
        // The ladder is mode + one degree drop.
        match analyze_resilient(&program, &AnalysisOptions::degree(2), &backend) {
            Err(err) => assert!(err.budget_exhausted(), "{err:?}"),
            Ok(_) => panic!("an always-exhausted backend cannot produce a result"),
        };
    }

    #[test]
    fn resilient_without_exhaustion_records_no_degradation() {
        let program = coin_program();
        let result =
            analyze_resilient(&program, &AnalysisOptions::degree(2), &SimplexBackend).unwrap();
        assert!(!result.degradation.degraded());
        assert_eq!(result.degradation.to_string(), "");
        assert_eq!(result.degree(), 2);
    }

    /// A backend that spends 300 ms opening every session before it hands
    /// the problem and tuning to [`SimplexBackend`].
    struct SlowOpen;

    impl LpBackend for SlowOpen {
        fn name(&self) -> &str {
            "slow-open"
        }
        fn open<'a>(&'a self, problem: &cma_lp::LpProblem) -> Box<dyn LpSession + 'a> {
            self.open_with(problem, &SolverTuning::default())
        }
        fn open_with<'a>(
            &'a self,
            problem: &cma_lp::LpProblem,
            tuning: &SolverTuning,
        ) -> Box<dyn LpSession + 'a> {
            std::thread::sleep(Duration::from_millis(300));
            SimplexBackend.open_with(problem, tuning)
        }
    }

    #[test]
    fn group_timeout_budgets_each_group_of_a_level() {
        // `f` and `g` form one dependency level, solved one after the other
        // on one thread: each group gets its own 500 ms, so `g` is not left
        // with what `f` did not spend.
        let program = ProgramBuilder::new()
            .function("f", tick(1.0))
            .function("g", tick(2.0))
            .main(if_prob(0.5, call("f"), call("g")))
            .build()
            .unwrap();
        let options = AnalysisOptions::degree(1)
            .with_mode(SolveMode::Compositional)
            .with_group_timeout(Duration::from_millis(500));
        let result = analyze_with(&program, &options, &SlowOpen);
        assert!(result.is_ok(), "{:?}", result.err());
    }

    #[test]
    fn failed_cold_escalation_leaves_the_session_usable() {
        let program = coin_program();
        let backend = FlakyBudget::failing(0);
        let options = AnalysisOptions::degree(1).with_mode(SolveMode::Compositional);
        let (_, mut session) = analyze_session(&program, &options, &backend).unwrap();
        // Compositional sessions escalate by a cold re-analysis; make it run
        // out of budget.
        backend
            .failures
            .store(1, std::sync::atomic::Ordering::SeqCst);
        let err = session.escalate_degree(2).unwrap_err();
        assert!(err.budget_exhausted(), "{err:?}");
        // The failed re-analysis touched nothing: the session escalates on
        // the next try.
        let escalated = session.escalate_degree(2).unwrap();
        assert_eq!(escalated.escalation.unwrap().cold_restarts, 1);
        let scratch = analyze_with(
            &program,
            &AnalysisOptions::degree(2).with_mode(SolveMode::Compositional),
            &SimplexBackend,
        )
        .unwrap();
        assert_eq!(escalated.bounds, scratch.bounds);
    }

    #[test]
    fn degradation_steps_display_stable_labels() {
        let stats = DegradationStats {
            steps: vec![
                DegradationStep::CompositionalMode,
                DegradationStep::ReduceDegree { from: 3, to: 2 },
            ],
        };
        assert_eq!(stats.to_string(), "global->compositional, degree:3->2");
    }
}
