//! The structured, self-describing result of an [`Analysis`](crate::Analysis)
//! run.
//!
//! [`AnalysisReport`] bundles everything one invocation of the pipeline
//! produces — raw and central moment intervals, tail bounds, the soundness
//! report, per-phase timings, and LP statistics — and renders itself either
//! human-readable (via [`Display`](std::fmt::Display), what `cma analyze`
//! prints) or as JSON (via [`AnalysisReport::to_json`], what `--json` emits).
//! The JSON encoder is hand-rolled: the grammar is tiny and the build
//! environment is dependency-free by design.

use std::fmt;
use std::time::Duration;

use cma_inference::{
    AnalysisResult, CentralMoments, DegradationStats, EscalationStats, GroupLpStats, PlanStats,
    PruningStats, SolveMode, SoundnessReport, TailBound,
};
use cma_semiring::poly::Var;
use cma_semiring::Interval;

/// Minimal JSON building blocks shared by every `--json` emitter (this
/// report, the CLI's `suite list`/`suite run` rows, the simulator output).
/// The grammar is tiny and the build environment is dependency-free by
/// design, so the encoder is hand-rolled — but hand-rolled *once*, here.
pub mod json {
    /// JSON string literal with escaping for everything Appl text can carry.
    pub fn string(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Finite floats render as shortest-round-trip decimals; infinities and
    /// NaN (which JSON cannot represent) become `null`.
    pub fn num(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }

    /// [`num`] lifted over `Option` (`None` → `null`).
    pub fn opt_num(v: Option<f64>) -> String {
        v.map(num).unwrap_or_else(|| "null".to_string())
    }

    /// A JSON object from `(key, already-encoded value)` pairs.
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
        let body = fields
            .into_iter()
            .map(|(k, v)| format!("{}:{v}", string(k)))
            .collect::<Vec<_>>()
            .join(",");
        format!("{{{body}}}")
    }

    /// A JSON array from already-encoded values.
    pub fn array(items: impl IntoIterator<Item = String>) -> String {
        format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
    }
}

/// Wall-clock time spent in each phase of the pipeline.
#[derive(Debug, Clone, Default)]
pub struct PhaseTimings {
    /// Parsing the source text (absent when the program was given as an AST).
    pub parse: Option<Duration>,
    /// The pre-analysis static checks (absent when disabled).
    pub check: Option<Duration>,
    /// Constraint derivation plus LP solving.
    pub analysis: Duration,
    /// The soundness side-condition checks (absent when disabled).
    pub soundness: Option<Duration>,
    /// Central-moment and tail-bound evaluation.
    pub tail: Duration,
    /// End-to-end time of `run()`.
    pub total: Duration,
}

/// Outcome of the pre-analysis static checks: the (warning-severity)
/// diagnostics the run surfaced and the derivation work the checker's
/// exported range facts saved.  Error-severity diagnostics never reach a
/// report — they abort the run with [`CmaError::Check`](crate::CmaError).
#[derive(Debug, Clone, Default)]
pub struct CheckStats {
    /// Rendered diagnostics, in source order.
    pub diagnostics: Vec<String>,
    /// Number of warnings raised.
    pub warnings: usize,
    /// Branches/loops/template variables the checker's facts pruned from the
    /// derivation (all zero when pruning was disabled or nothing was refuted).
    pub pruning: PruningStats,
}

/// Size and solver-effort statistics of the linear programs handed to the
/// backend.
#[derive(Debug, Clone, Default)]
pub struct LpStats {
    /// Total LP variables generated.
    pub variables: usize,
    /// Total LP constraints generated.
    pub constraints: usize,
    /// Number of LP solves (one per solved group; the soundness phase adds
    /// none — it extends the main group's constraint store, see
    /// [`SoundnessReport::reused_constraint_store`]).
    pub solves: usize,
    /// Total simplex iterations across all group solves (the degeneracy
    /// observable: iteration blow-up at fixed size is a pricing regression).
    pub iterations: usize,
    /// Total basis refactorizations across all group solves.
    pub refactorizations: usize,
    /// Total constraint rows removed by LP presolve.
    pub presolve_rows: usize,
    /// Total LP columns removed by presolve (fixed or unreferenced).
    pub presolve_cols: usize,
    /// Total Forrest–Tomlin updates of the LU factorization.
    pub etas: usize,
    /// Total dual-simplex pivots spent on warm incremental-row re-solves.
    pub dual_pivots: usize,
    /// Total nonbasic bound flips performed by the long-step dual ratio test.
    pub bound_flips: usize,
    /// Total Forrest–Tomlin eta-file compactions performed by the LU updates.
    pub eta_compactions: usize,
    /// Peak eta-file length observed between refactorizations (max over
    /// groups).
    pub eta_len: usize,
    /// Total nanoseconds spent in forward solves (`ftran`).
    pub ftran_ns: u64,
    /// Total nanoseconds spent in backward solves (`btran`).
    pub btran_ns: u64,
    /// Total nanoseconds spent pricing entering columns / leaving rows.
    pub pricing_ns: u64,
    /// Total nanoseconds spent in primal/dual ratio tests.
    pub ratio_ns: u64,
    /// Total LU forward solves that completed on the hyper-sparse path.
    pub hyper_sparse_ftrans: u64,
    /// Total LU backward solves that completed on the hyper-sparse path.
    pub hyper_sparse_btrans: u64,
    /// Total kernel solves that ran (or fell back to) the dense scan.
    pub dense_fallbacks: u64,
    /// Total kernel-workspace reallocations after first sizing (0 in a
    /// steady-state solve: the hot loop is allocation-free).
    pub kernel_allocs: u64,
    /// Per-group sizes and solver counters, in solve order.
    pub groups: Vec<GroupLpStats>,
}

impl LpStats {
    /// Assembles the totals from per-group stats and the engine-wide counts.
    pub(crate) fn from_groups(
        variables: usize,
        constraints: usize,
        solves: usize,
        groups: Vec<GroupLpStats>,
    ) -> LpStats {
        LpStats {
            variables,
            constraints,
            solves,
            iterations: groups.iter().map(|g| g.iterations).sum(),
            refactorizations: groups.iter().map(|g| g.refactorizations).sum(),
            presolve_rows: groups.iter().map(|g| g.presolve_rows).sum(),
            presolve_cols: groups.iter().map(|g| g.presolve_cols).sum(),
            etas: groups.iter().map(|g| g.etas).sum(),
            dual_pivots: groups.iter().map(|g| g.dual_pivots).sum(),
            bound_flips: groups.iter().map(|g| g.bound_flips).sum(),
            eta_compactions: groups.iter().map(|g| g.eta_compactions).sum(),
            eta_len: groups.iter().map(|g| g.eta_len).max().unwrap_or(0),
            ftran_ns: groups.iter().map(|g| g.ftran_ns).sum(),
            btran_ns: groups.iter().map(|g| g.btran_ns).sum(),
            pricing_ns: groups.iter().map(|g| g.pricing_ns).sum(),
            ratio_ns: groups.iter().map(|g| g.ratio_ns).sum(),
            hyper_sparse_ftrans: groups.iter().map(|g| g.hyper_sparse_ftrans).sum(),
            hyper_sparse_btrans: groups.iter().map(|g| g.hyper_sparse_btrans).sum(),
            dense_fallbacks: groups.iter().map(|g| g.dense_fallbacks).sum(),
            kernel_allocs: groups.iter().map(|g| g.kernel_allocs).sum(),
            groups,
        }
    }
}

/// The complete, self-describing outcome of one pipeline run.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Optional label of the analyzed program (benchmark name or file name).
    pub label: Option<String>,
    /// Target moment degree `m`.
    pub degree: usize,
    /// Solving strategy used.
    pub mode: SolveMode,
    /// Name of the LP backend that solved the programs.
    pub backend: String,
    /// Worker threads used for independent group solves (1 = sequential).
    pub parallelism: usize,
    /// Base polynomial degree the successful instantiation solved with
    /// (larger than requested when automatic poly-degree escalation kicked
    /// in — see [`poly_retries`](Self::poly_retries)).
    pub poly_degree: u32,
    /// Automatic `d → d+1` template retries spent before feasibility.
    pub poly_retries: usize,
    /// In-session degree escalation statistics (present when the analysis
    /// reached its target degree by escalating a lower-degree session).
    pub escalation: Option<EscalationStats>,
    /// Degradation-ladder rungs the analysis descended after budget
    /// exhaustion (empty for a full-precision run).  A nonempty value means
    /// every bound below is **degraded**: still sound, but produced under
    /// weaker options than requested — and this field is the label that
    /// keeps that fact from ever being silent.
    pub degradation: DegradationStats,
    /// Derivation-plan reuse counters (slots/columns/recipes reused vs
    /// created across instantiations and extensions).
    pub plan: PlanStats,
    /// The initial-state valuation at which intervals below are evaluated.
    pub valuation: Vec<(Var, f64)>,
    /// The raw engine result (symbolic bounds, resolved specs, elapsed time).
    pub result: AnalysisResult,
    /// Interval bounds on `E[C^k]`, `k = 0..=m`, at [`valuation`](Self::valuation).
    pub raw_intervals: Vec<Interval>,
    /// Central moments derived from the raw intervals.
    pub central: CentralMoments,
    /// Best tail bounds `P[C ≥ d]` at the requested thresholds.
    pub tail: Vec<TailBound>,
    /// Soundness side conditions of Theorem 4.4 (absent when disabled).
    pub soundness: Option<SoundnessReport>,
    /// Static-check diagnostics and fact-pruning statistics (absent when the
    /// checks were disabled).
    pub check: Option<CheckStats>,
    /// Per-phase wall-clock timings.
    pub timings: PhaseTimings,
    /// LP size statistics.
    pub lp: LpStats,
}

impl AnalysisReport {
    /// The interval bracketing the expected cost `E[C]`.
    pub fn mean(&self) -> Interval {
        self.central.mean()
    }

    /// The interval bound on the `k`-th raw moment at the report valuation.
    pub fn raw_moment(&self, k: usize) -> Interval {
        self.raw_intervals[k]
    }

    /// Upper bound on the variance of the cost (needs degree ≥ 2).
    pub fn variance_upper(&self) -> Option<f64> {
        (self.central.degree() >= 2).then(|| self.central.variance_upper())
    }

    /// Lower bound on the variance of the cost (needs degree ≥ 2).
    pub fn variance_lower(&self) -> Option<f64> {
        (self.central.degree() >= 2).then(|| self.central.variance_lower())
    }

    /// Whether both soundness side conditions were checked and hold.
    pub fn is_sound(&self) -> Option<bool> {
        self.soundness.as_ref().map(|s| s.is_sound())
    }

    /// Serializes the full report as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        match &self.label {
            Some(label) => push_field(&mut out, "label", &json::string(label)),
            None => push_field(&mut out, "label", "null"),
        }
        push_field(&mut out, "degree", &self.degree.to_string());
        let mode = match self.mode {
            SolveMode::Global => "global",
            SolveMode::Compositional => "compositional",
        };
        push_field(&mut out, "mode", &json::string(mode));
        push_field(&mut out, "backend", &json::string(&self.backend));
        push_field(&mut out, "parallelism", &self.parallelism.to_string());
        push_field(&mut out, "poly_degree", &self.poly_degree.to_string());
        push_field(&mut out, "poly_retries", &self.poly_retries.to_string());

        let valuation = self
            .valuation
            .iter()
            .map(|(v, x)| format!("{}:{}", json::string(v.name()), json::num(*x)))
            .collect::<Vec<_>>()
            .join(",");
        push_field(&mut out, "valuation", &format!("{{{valuation}}}"));

        let raw = self
            .raw_intervals
            .iter()
            .enumerate()
            .map(|(k, i)| {
                format!(
                    "{{\"k\":{k},\"lower\":{},\"upper\":{},\"symbolic_lower\":{},\"symbolic_upper\":{}}}",
                    json::num(i.lo()),
                    json::num(i.hi()),
                    json::string(&self.result.bounds[k].lower.to_string()),
                    json::string(&self.result.bounds[k].upper.to_string()),
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        push_field(&mut out, "raw_moments", &format!("[{raw}]"));

        let central_list = (0..=self.central.degree())
            .map(|k| {
                let i = self.central.central(k);
                format!(
                    "{{\"k\":{k},\"lower\":{},\"upper\":{}}}",
                    json::num(i.lo()),
                    json::num(i.hi())
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let central = format!(
            "{{\"moments\":[{central_list}],\"variance_lower\":{},\"variance_upper\":{},\"skewness_upper\":{},\"kurtosis_upper\":{}}}",
            json::opt_num(self.variance_lower()),
            json::opt_num(self.variance_upper()),
            json::opt_num(self.central.skewness_upper()),
            json::opt_num(self.central.kurtosis_upper()),
        );
        push_field(&mut out, "central_moments", &central);

        let tail = self
            .tail
            .iter()
            .map(|t| {
                format!(
                    "{{\"threshold\":{},\"probability\":{}}}",
                    json::num(t.threshold),
                    json::num(t.probability)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        push_field(&mut out, "tail_bounds", &format!("[{tail}]"));

        let soundness = match &self.soundness {
            Some(s) => {
                let violations = s
                    .violations
                    .iter()
                    .map(|v| json::string(v))
                    .collect::<Vec<_>>()
                    .join(",");
                format!(
                    "{{\"bounded_updates\":{},\"violations\":[{violations}],\"termination_moment\":{},\"is_sound\":{},\"reused_constraint_store\":{},\"extension_variables\":{},\"extension_constraints\":{},\"extension_dual_pivots\":{},\"shared_templates\":{}}}",
                    s.bounded_updates,
                    s.termination_moment
                        .map(|k| k.to_string())
                        .unwrap_or_else(|| "null".into()),
                    s.is_sound(),
                    s.reused_constraint_store,
                    s.extension_variables,
                    s.extension_constraints,
                    s.extension_dual_pivots,
                    s.shared_templates,
                )
            }
            None => "null".to_string(),
        };
        push_field(&mut out, "soundness", &soundness);

        let groups = self
            .lp
            .groups
            .iter()
            .map(|g| {
                format!(
                    "{{\"name\":{},\"variables\":{},\"constraints\":{},\"iterations\":{},\"refactorizations\":{},\"presolve_rows\":{},\"presolve_cols\":{},\"etas\":{},\"dual_pivots\":{},\"bound_flips\":{},\"eta_compactions\":{},\"eta_len\":{},\"ftran_ns\":{},\"btran_ns\":{},\"pricing_ns\":{},\"ratio_ns\":{},\"hyper_sparse_ftrans\":{},\"hyper_sparse_btrans\":{},\"dense_fallbacks\":{},\"kernel_allocs\":{}}}",
                    json::string(&g.name),
                    g.variables,
                    g.constraints,
                    g.iterations,
                    g.refactorizations,
                    g.presolve_rows,
                    g.presolve_cols,
                    g.etas,
                    g.dual_pivots,
                    g.bound_flips,
                    g.eta_compactions,
                    g.eta_len,
                    g.ftran_ns,
                    g.btran_ns,
                    g.pricing_ns,
                    g.ratio_ns,
                    g.hyper_sparse_ftrans,
                    g.hyper_sparse_btrans,
                    g.dense_fallbacks,
                    g.kernel_allocs,
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let lp = format!(
            "{{\"variables\":{},\"constraints\":{},\"solves\":{},\"iterations\":{},\"refactorizations\":{},\"presolve_rows\":{},\"presolve_cols\":{},\"etas\":{},\"dual_pivots\":{},\"bound_flips\":{},\"eta_compactions\":{},\"eta_len\":{},\"ftran_ns\":{},\"btran_ns\":{},\"pricing_ns\":{},\"ratio_ns\":{},\"hyper_sparse_ftrans\":{},\"hyper_sparse_btrans\":{},\"dense_fallbacks\":{},\"kernel_allocs\":{},\"groups\":[{groups}]}}",
            self.lp.variables,
            self.lp.constraints,
            self.lp.solves,
            self.lp.iterations,
            self.lp.refactorizations,
            self.lp.presolve_rows,
            self.lp.presolve_cols,
            self.lp.etas,
            self.lp.dual_pivots,
            self.lp.bound_flips,
            self.lp.eta_compactions,
            self.lp.eta_len,
            self.lp.ftran_ns,
            self.lp.btran_ns,
            self.lp.pricing_ns,
            self.lp.ratio_ns,
            self.lp.hyper_sparse_ftrans,
            self.lp.hyper_sparse_btrans,
            self.lp.dense_fallbacks,
            self.lp.kernel_allocs,
        );
        push_field(&mut out, "lp", &lp);

        let plan = json::object([
            ("slots_created", self.plan.slots_created.to_string()),
            ("slots_reused", self.plan.slots_reused.to_string()),
            ("columns_created", self.plan.columns_created.to_string()),
            ("columns_reused", self.plan.columns_reused.to_string()),
            ("recipes_recorded", self.plan.recipes_recorded.to_string()),
            ("recipes_replayed", self.plan.recipes_replayed.to_string()),
            (
                "components_skipped",
                self.plan.components_skipped.to_string(),
            ),
            ("loop_heads_reused", self.plan.loop_heads_reused.to_string()),
        ]);
        push_field(&mut out, "plan", &plan);

        let escalation = match &self.escalation {
            Some(e) => json::object([
                ("from_degree", e.from_degree.to_string()),
                ("to_degree", e.to_degree.to_string()),
                ("appended_variables", e.appended_variables.to_string()),
                ("appended_constraints", e.appended_constraints.to_string()),
                ("reused_slots", e.reused_slots.to_string()),
                ("reused_columns", e.reused_columns.to_string()),
                ("dual_pivots", e.dual_pivots.to_string()),
                ("iterations", e.iterations.to_string()),
                ("cold_restarts", e.cold_restarts.to_string()),
                ("poly_retries", e.poly_retries.to_string()),
            ]),
            None => "null".to_string(),
        };
        push_field(&mut out, "escalation", &escalation);

        let degradation = format!(
            "{{\"degraded\":{},\"steps\":[{}]}}",
            self.degradation.degraded(),
            self.degradation
                .steps
                .iter()
                .map(|s| json::string(&s.to_string()))
                .collect::<Vec<_>>()
                .join(","),
        );
        push_field(&mut out, "degradation", &degradation);

        let check = match &self.check {
            Some(c) => {
                let diags = c
                    .diagnostics
                    .iter()
                    .map(|d| json::string(d))
                    .collect::<Vec<_>>()
                    .join(",");
                format!(
                    "{{\"warnings\":{},\"diagnostics\":[{diags}],\"pruning\":{{\"refuted_branches\":{},\"skipped_loops\":{},\"dropped_template_vars\":{}}}}}",
                    c.warnings,
                    c.pruning.refuted_branches,
                    c.pruning.skipped_loops,
                    c.pruning.dropped_template_vars,
                )
            }
            None => "null".to_string(),
        };
        push_field(&mut out, "check", &check);

        // Timings go last so consumers comparing reports can cheaply strip the
        // single volatile section.
        let timings = format!(
            "{{\"parse_ms\":{},\"check_ms\":{},\"analysis_ms\":{},\"soundness_ms\":{},\"tail_ms\":{},\"total_ms\":{}}}",
            json::opt_num(self.timings.parse.map(|d| d.as_secs_f64() * 1e3)),
            json::opt_num(self.timings.check.map(|d| d.as_secs_f64() * 1e3)),
            json::num(self.timings.analysis.as_secs_f64() * 1e3),
            json::opt_num(self.timings.soundness.map(|d| d.as_secs_f64() * 1e3)),
            json::num(self.timings.tail.as_secs_f64() * 1e3),
            json::num(self.timings.total.as_secs_f64() * 1e3),
        );
        push_last_field(&mut out, "timings", &timings);
        out.push('}');
        out
    }
}

fn push_field(out: &mut String, key: &str, value: &str) {
    out.push_str(&format!("{}:{value},", json::string(key)));
}

fn push_last_field(out: &mut String, key: &str, value: &str) {
    out.push_str(&format!("{}:{value}", json::string(key)));
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(label) = &self.label {
            writeln!(f, "program:  {label}")?;
        }
        let mode = match self.mode {
            SolveMode::Global => "global",
            SolveMode::Compositional => "compositional",
        };
        write!(
            f,
            "analysis: degree {} · {mode} mode · backend {}",
            self.degree, self.backend
        )?;
        if self.parallelism > 1 {
            write!(f, " · {} threads", self.parallelism)?;
        }
        if self.poly_degree > 1 || self.poly_retries > 0 {
            write!(f, " · poly degree {}", self.poly_degree)?;
            if self.poly_retries > 0 {
                let plural = if self.poly_retries == 1 {
                    "retry"
                } else {
                    "retries"
                };
                write!(f, " (after {} automatic {plural})", self.poly_retries)?;
            }
        }
        writeln!(f)?;
        if let Some(e) = &self.escalation {
            if e.cold_restarts == 0 {
                writeln!(
                    f,
                    "escalated: degree {} -> {} in session (+{} vars, +{} rows, \
                     {} reused columns, {} dual pivots)",
                    e.from_degree,
                    e.to_degree,
                    e.appended_variables,
                    e.appended_constraints,
                    e.reused_columns,
                    e.dual_pivots
                )?;
            } else {
                writeln!(
                    f,
                    "escalated: degree {} -> {} via cold re-derive \
                     ({} plan slots replayed)",
                    e.from_degree, e.to_degree, e.reused_slots
                )?;
            }
        }
        if self.degradation.degraded() {
            writeln!(
                f,
                "degraded: {} (budget ran out; bounds are sound but below \
                 the requested precision)",
                self.degradation
            )?;
        }
        if !self.valuation.is_empty() {
            let at = self
                .valuation
                .iter()
                .map(|(v, x)| format!("{v} = {x}"))
                .collect::<Vec<_>>()
                .join(", ");
            writeln!(f, "at:       {at}")?;
        }
        writeln!(f)?;

        writeln!(f, "raw moments of the accumulated cost C:")?;
        for k in 1..=self.degree {
            let i = self.raw_intervals[k];
            writeln!(
                f,
                "  E[C^{k}]  in [{:.6}, {:.6}]   (symbolic: [{}, {}])",
                i.lo(),
                i.hi(),
                self.result.bounds[k].lower,
                self.result.bounds[k].upper
            )?;
        }
        if let (Some(lo), Some(hi)) = (self.variance_lower(), self.variance_upper()) {
            writeln!(f)?;
            writeln!(f, "central moments:")?;
            writeln!(f, "  V[C]    in [{lo:.6}, {hi:.6}]")?;
            if let Some(s) = self.central.skewness_upper() {
                writeln!(f, "  skewness upper bound: {s:.6}")?;
            }
            if let Some(k) = self.central.kurtosis_upper() {
                writeln!(f, "  kurtosis upper bound: {k:.6}")?;
            }
        }

        if !self.tail.is_empty() {
            writeln!(f)?;
            writeln!(f, "tail bounds (best of Markov/Cantelli/Chebyshev):")?;
            for t in &self.tail {
                writeln!(f, "  P[C >= {:.4}] <= {:.6}", t.threshold, t.probability)?;
            }
        }

        if let Some(s) = &self.soundness {
            writeln!(f)?;
            writeln!(
                f,
                "soundness (Thm 4.4): bounded updates: {}; finite E[T^k]: {}",
                if s.bounded_updates { "yes" } else { "NO" },
                match s.termination_moment {
                    Some(k) => format!("yes (k = {k})"),
                    None => "not established".to_string(),
                }
            )?;
            for v in &s.violations {
                writeln!(f, "  unbounded update: {v}")?;
            }
            if s.reused_constraint_store && s.extension_constraints > 0 {
                writeln!(
                    f,
                    "  (side conditions derived into the main constraint store: +{} rows, +{} vars)",
                    s.extension_constraints, s.extension_variables
                )?;
            }
        }

        if let Some(c) = &self.check {
            writeln!(f)?;
            if c.warnings == 0 {
                write!(f, "checks: clean")?;
            } else {
                let plural = if c.warnings == 1 { "" } else { "s" };
                write!(f, "checks: {} warning{plural}", c.warnings)?;
            }
            let p = &c.pruning;
            if p.any() {
                write!(
                    f,
                    " · pruned {} refuted branch(es), {} dead loop(s), \
                     {} dead template var(s)",
                    p.refuted_branches, p.skipped_loops, p.dropped_template_vars
                )?;
            }
            writeln!(f)?;
        }

        writeln!(f)?;
        write!(
            f,
            "lp: {} variables, {} constraints, {} solve(s)",
            self.lp.variables, self.lp.constraints, self.lp.solves,
        )?;
        if self.lp.groups.len() > 1 {
            write!(f, " across {} groups", self.lp.groups.len())?;
        }
        write!(
            f,
            " · {} iterations, {} refactorizations",
            self.lp.iterations, self.lp.refactorizations
        )?;
        if self.lp.etas > 0 || self.lp.dual_pivots > 0 {
            write!(
                f,
                " · {} etas, {} dual pivots",
                self.lp.etas, self.lp.dual_pivots
            )?;
        }
        if self.lp.bound_flips > 0 || self.lp.eta_compactions > 0 {
            write!(
                f,
                " · {} bound flips, {} eta compactions (peak eta {})",
                self.lp.bound_flips, self.lp.eta_compactions, self.lp.eta_len
            )?;
        }
        if self.lp.hyper_sparse_ftrans > 0 || self.lp.hyper_sparse_btrans > 0 {
            write!(
                f,
                " · hyper-sparse {} ftran / {} btran ({} dense fallbacks, {} kernel allocs)",
                self.lp.hyper_sparse_ftrans,
                self.lp.hyper_sparse_btrans,
                self.lp.dense_fallbacks,
                self.lp.kernel_allocs
            )?;
        }
        if self.lp.presolve_rows > 0 || self.lp.presolve_cols > 0 {
            write!(
                f,
                " · presolve −{} rows −{} cols",
                self.lp.presolve_rows, self.lp.presolve_cols
            )?;
        }
        writeln!(
            f,
            " · analysis {:.1} ms · total {:.1} ms",
            self.timings.analysis.as_secs_f64() * 1e3,
            self.timings.total.as_secs_f64() * 1e3,
        )
    }
}
