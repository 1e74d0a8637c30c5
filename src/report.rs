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
use cma_lp::SolveStats;
use cma_semiring::poly::Var;
use cma_semiring::Interval;

/// Minimal JSON building blocks, shared by this report (`cma analyze` and
/// `cma tail`) and the CLI's other `--json` emitters: `simulate`, `suite
/// list`/`suite run` and `corpus gen`, and the label `check` splices into
/// each report.  `cma check --json` and `cma corpus run --json` encode
/// their bodies themselves (`CheckReport::to_json`,
/// `CampaignReport::to_json`): the crate graph pinned by
/// `perfbench/Cargo.lock` keeps `cma-check` and `cma-corpus` off this
/// crate.  The grammar is tiny and the build environment is
/// dependency-free by design, so the encoder is hand-rolled.
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

    /// The `(name, value)` fields of every solver counter, in table order
    /// (to chain into an [`object`]).
    pub fn counters(stats: &cma_lp::SolveStats) -> impl Iterator<Item = (&'static str, String)> {
        stats.counters().map(|(c, v)| (c.name, v.to_string()))
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
    /// Number of LP solves (one per solved group; the soundness
    /// re-analysis is not counted here, see [`SoundnessReport`]).
    pub solves: usize,
    /// The groups' solver counters, each merged by its rule.
    pub totals: SolveStats,
    /// Per-group sizes and solver counters, in solve order.
    pub groups: Vec<GroupLpStats>,
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
    /// Derivation-plan counters: slots/columns/recipes the successful
    /// attempt's first walk created vs what in-place escalations reused.
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
        let null = || "null".to_string();
        let mode = match self.mode {
            SolveMode::Global => "global",
            SolveMode::Compositional => "compositional",
        };
        let valuation = json::object(
            self.valuation
                .iter()
                .map(|(v, x)| (v.name(), json::num(*x))),
        );

        let raw_moments = json::array(
            self.raw_intervals
                .iter()
                .zip(&self.result.bounds)
                .enumerate()
                .map(|(k, (i, bound))| {
                    json::object([
                        ("k", k.to_string()),
                        ("lower", json::num(i.lo())),
                        ("upper", json::num(i.hi())),
                        ("symbolic_lower", json::string(&bound.lower.to_string())),
                        ("symbolic_upper", json::string(&bound.upper.to_string())),
                    ])
                }),
        );

        let central_moments = (0..=self.central.degree()).map(|k| {
            let i = self.central.central(k);
            json::object([
                ("k", k.to_string()),
                ("lower", json::num(i.lo())),
                ("upper", json::num(i.hi())),
            ])
        });
        let central = json::object([
            ("moments", json::array(central_moments)),
            ("variance_lower", json::opt_num(self.variance_lower())),
            ("variance_upper", json::opt_num(self.variance_upper())),
            (
                "skewness_upper",
                json::opt_num(self.central.skewness_upper()),
            ),
            (
                "kurtosis_upper",
                json::opt_num(self.central.kurtosis_upper()),
            ),
        ]);

        let tail = json::array(self.tail.iter().map(|t| {
            json::object([
                ("threshold", json::num(t.threshold)),
                ("probability", json::num(t.probability)),
            ])
        }));

        let soundness = self.soundness.as_ref().map_or_else(null, |s| {
            json::object([
                ("bounded_updates", s.bounded_updates.to_string()),
                (
                    "violations",
                    json::array(s.violations.iter().map(|v| json::string(v))),
                ),
                (
                    "termination_moment",
                    s.termination_moment.map_or_else(null, |k| k.to_string()),
                ),
                ("is_sound", s.is_sound().to_string()),
                ("extension_variables", s.extension_variables.to_string()),
                ("extension_constraints", s.extension_constraints.to_string()),
                ("extension_dual_pivots", s.extension_dual_pivots.to_string()),
                ("shared_templates", s.shared_templates.to_string()),
            ])
        });

        let groups = self.lp.groups.iter().map(|g| {
            json::object(
                [
                    ("name", json::string(&g.name)),
                    ("variables", g.variables.to_string()),
                    ("constraints", g.constraints.to_string()),
                ]
                .into_iter()
                .chain(json::counters(&g.stats)),
            )
        });
        let lp = json::object(
            [
                ("variables", self.lp.variables.to_string()),
                ("constraints", self.lp.constraints.to_string()),
                ("solves", self.lp.solves.to_string()),
            ]
            .into_iter()
            .chain(json::counters(&self.lp.totals))
            .chain([("groups", json::array(groups))]),
        );

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
        ]);

        let escalation = self.escalation.as_ref().map_or_else(null, |e| {
            json::object([
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
            ])
        });

        let steps = self.degradation.steps.iter();
        let degradation = json::object([
            ("degraded", self.degradation.degraded().to_string()),
            (
                "steps",
                json::array(steps.map(|s| json::string(&s.to_string()))),
            ),
        ]);

        let check = self.check.as_ref().map_or_else(null, |c| {
            json::object([
                ("warnings", c.warnings.to_string()),
                (
                    "diagnostics",
                    json::array(c.diagnostics.iter().map(|d| json::string(d))),
                ),
                (
                    "pruning",
                    json::object([
                        ("refuted_branches", c.pruning.refuted_branches.to_string()),
                        ("skipped_loops", c.pruning.skipped_loops.to_string()),
                        (
                            "dropped_template_vars",
                            c.pruning.dropped_template_vars.to_string(),
                        ),
                    ]),
                ),
            ])
        });

        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let timings = json::object([
            ("parse_ms", json::opt_num(self.timings.parse.map(ms))),
            ("check_ms", json::opt_num(self.timings.check.map(ms))),
            ("analysis_ms", json::num(ms(self.timings.analysis))),
            (
                "soundness_ms",
                json::opt_num(self.timings.soundness.map(ms)),
            ),
            ("tail_ms", json::num(ms(self.timings.tail))),
            ("total_ms", json::num(ms(self.timings.total))),
        ]);

        json::object([
            (
                "label",
                self.label.as_deref().map_or_else(null, json::string),
            ),
            ("degree", self.degree.to_string()),
            ("mode", json::string(mode)),
            ("backend", json::string(&self.backend)),
            ("parallelism", self.parallelism.to_string()),
            ("poly_degree", self.poly_degree.to_string()),
            ("poly_retries", self.poly_retries.to_string()),
            ("valuation", valuation),
            ("raw_moments", raw_moments),
            ("central_moments", central),
            ("tail_bounds", tail),
            ("soundness", soundness),
            ("lp", lp),
            ("plan", plan),
            ("escalation", escalation),
            ("degradation", degradation),
            ("check", check),
            // Timings go last so consumers comparing reports can cheaply
            // strip the single volatile section.
            ("timings", timings),
        ])
    }
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
                    "escalated: degree {} -> {} via cold re-derive",
                    e.from_degree, e.to_degree
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
            if s.extension_constraints > 0 {
                writeln!(
                    f,
                    "  (step-counting re-analysis: {} rows, {} vars)",
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
        let t = &self.lp.totals;
        write!(
            f,
            " · {} iterations, {} refactorizations",
            t.iterations, t.refactorizations
        )?;
        if t.etas > 0 || t.dual_pivots > 0 {
            write!(f, " · {} etas, {} dual pivots", t.etas, t.dual_pivots)?;
        }
        if t.eta_compactions > 0 {
            write!(
                f,
                " · {} eta compactions (peak eta {})",
                t.eta_compactions, t.eta_len
            )?;
        }
        if t.hyper_sparse_ftrans > 0 || t.hyper_sparse_btrans > 0 {
            write!(
                f,
                " · hyper-sparse {} ftran / {} btran ({} dense fallbacks, {} kernel allocs)",
                t.hyper_sparse_ftrans, t.hyper_sparse_btrans, t.dense_fallbacks, t.kernel_allocs
            )?;
        }
        if t.presolve_rows > 0 || t.presolve_cols > 0 {
            write!(
                f,
                " · presolve −{} rows −{} cols",
                t.presolve_rows, t.presolve_cols
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Analysis;
    use cma_lp::CounterKind;

    /// Splits the body of a JSON object or array at its top-level commas.
    fn parts(json: &str) -> Vec<&str> {
        let body = &json[1..json.len() - 1];
        let (mut depth, mut in_string, mut escaped, mut start) = (0, false, false, 0);
        let mut parts = Vec::new();
        for (i, c) in body.char_indices() {
            if in_string {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_string = false;
                }
                continue;
            }
            match c {
                '"' => in_string = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                ',' if depth == 0 => {
                    parts.push(&body[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
        if !body.is_empty() {
            parts.push(&body[start..]);
        }
        parts
    }

    /// The `(key, raw value)` fields of a JSON object, in order.
    fn fields(object: &str) -> Vec<(&str, &str)> {
        parts(object)
            .into_iter()
            .map(|field| {
                let (key, value) = field.split_once(':').expect("a key-value field");
                (key.trim_matches('"'), value)
            })
            .collect()
    }

    fn compositional_report() -> AnalysisReport {
        let report = Analysis::benchmark(&cma_suite::synthetic::coupon_chain(3))
            .mode(SolveMode::Compositional)
            .soundness(false)
            .run()
            .unwrap();
        assert!(report.lp.groups.len() > 1);
        report
    }

    #[test]
    fn every_counter_appears_in_table_order_in_the_totals_and_every_group() {
        let report = compositional_report();
        let json = report.to_json();
        let top = fields(&json);
        let lp = top.iter().find(|(k, _)| *k == "lp").expect("lp section").1;
        let counters = SolveStats::COUNTERS.iter().map(|c| c.name);
        let totals: Vec<&str> = ["variables", "constraints", "solves"]
            .into_iter()
            .chain(counters.clone())
            .chain(["groups"])
            .collect();
        let lp_fields = fields(lp);
        assert_eq!(lp_fields.iter().map(|f| f.0).collect::<Vec<_>>(), totals);
        let group_keys: Vec<&str> = ["name", "variables", "constraints"]
            .into_iter()
            .chain(counters)
            .collect();
        let groups = parts(lp_fields.last().unwrap().1);
        assert_eq!(groups.len(), report.lp.groups.len());
        for (group, stats) in groups.iter().zip(&report.lp.groups) {
            let group_fields = fields(group);
            assert_eq!(
                group_fields.iter().map(|f| f.0).collect::<Vec<_>>(),
                group_keys
            );
            for ((_, value), (_, count)) in group_fields[3..].iter().zip(stats.stats.counters()) {
                assert_eq!(*value, count.to_string());
            }
        }
        for ((_, value), (_, count)) in lp_fields[3..].iter().zip(report.lp.totals.counters()) {
            assert_eq!(*value, count.to_string());
        }
    }

    #[test]
    fn group_equality_ignores_exactly_the_volatile_counters() {
        let report = compositional_report();
        let group = &report.lp.groups[0];
        let values: Vec<u64> = group.stats.counters().map(|(_, v)| v).collect();
        assert_eq!(SolveStats::from_values(&values), group.stats);
        for (i, counter) in SolveStats::COUNTERS.iter().enumerate() {
            let mut bumped = values.clone();
            bumped[i] += 1;
            let other = GroupLpStats {
                stats: SolveStats::from_values(&bumped),
                ..group.clone()
            };
            assert_eq!(
                other == *group,
                counter.kind == CounterKind::Volatile,
                "{}",
                counter.name
            );
        }
    }
}
