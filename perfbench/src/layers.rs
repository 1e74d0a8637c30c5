//! Per-layer accounting of the traced run.
//!
//! Every layer is timed from outside: `Analysis::parse` for the parser, the
//! report's `PhaseTimings` for the checker, the analysis phase, the
//! soundness phase and the tail bounds, and the [`Tracer`](crate::trace)
//! for each call into the LP layer.  An LP call belongs to the soundness
//! phase when it starts after the analysis phase and the tail bounds have
//! ended, as `PhaseTimings` delimit them; the derivation time of a phase is
//! the phase minus its LP calls.

use std::collections::BTreeMap;
use std::time::Duration;

use central_moment_analysis::lp::LpStatus;

use crate::trace::{CallKind, LpCall};
use crate::workload::Run;

/// Every per-layer metric, with its unit, in output order.
pub const METRICS: [(&str, &str); 47] = [
    ("appl.parse.ms", "ms"),
    ("appl.parse.calls", "count"),
    ("appl.parse.rejected", "count"),
    ("check.ms", "ms"),
    ("check.warnings", "count"),
    ("check.rejected", "count"),
    ("check.pruned_sites", "count"),
    ("check.dropped_template_vars", "count"),
    ("inference.analysis.ms", "ms"),
    ("inference.derive.ms", "ms"),
    ("inference.lp_rows", "count"),
    ("inference.lp_cols", "count"),
    ("inference.plan_slots_created", "count"),
    ("inference.poly_retries", "count"),
    ("inference.degraded", "count"),
    ("lp.open.ms", "ms"),
    ("lp.open.calls", "count"),
    ("lp.minimize.ms", "ms"),
    ("lp.minimize.calls", "count"),
    ("lp.minimize.not_optimal", "count"),
    ("lp.minimize.infeasible", "count"),
    ("lp.minimize.unbounded", "count"),
    ("lp.minimize.budget_exhausted", "count"),
    ("lp.solve_batch.ms", "ms"),
    ("lp.solve_batch.calls", "count"),
    ("lp.iterations", "count"),
    ("lp.refactorizations", "count"),
    ("lp.dual_pivots", "count"),
    ("lp.presolve_rows", "count"),
    ("lp.pricing_ns", "ns"),
    ("lp.ftran_ns", "ns"),
    ("lp.btran_ns", "ns"),
    ("lp.ratio_ns", "ns"),
    ("lp.kernel_allocs", "count"),
    ("soundness.ms", "ms"),
    ("soundness.lp.ms", "ms"),
    ("soundness.derive.ms", "ms"),
    ("soundness.extension_rows", "count"),
    ("soundness.extension_cols", "count"),
    ("soundness.dual_pivots", "count"),
    ("soundness.shared_templates", "count"),
    ("tail.ms", "ms"),
    ("pipeline.unattributed_ms", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.passes", "count"),
];

/// The layers whose self times partition an analysis's wall time.
pub const SELF_TIMES: [&str; 9] = [
    "appl.parse.ms",
    "check.ms",
    "inference.derive.ms",
    "lp.open.ms",
    "lp.minimize.ms",
    "lp.solve_batch.ms",
    "soundness.derive.ms",
    "tail.ms",
    "pipeline.unattributed_ms",
];

/// Per-layer totals over the traced analyses.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    totals: BTreeMap<&'static str, f64>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Layers {
    fn add(&mut self, name: &'static str, value: f64) {
        debug_assert!(METRICS.iter().any(|(m, _)| *m == name), "{name}");
        *self.totals.entry(name).or_default() += value;
    }

    fn count(&mut self, name: &'static str, n: usize) {
        self.add(name, n as f64);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }

    /// The sum of the self times, as a percentage of the traced wall time.
    pub fn coverage_pct(&self) -> f64 {
        let attributed: f64 = SELF_TIMES.iter().map(|m| self.get(m)).sum();
        100.0 * attributed / self.get("trace.wall_ms")
    }

    /// Accounts one traced analysis that took `wall` end to end and made
    /// `calls` into the LP layer.  `run` is `None` when the analysis
    /// panicked.
    pub fn add_run(&mut self, run: Option<&Run>, wall: Duration, calls: &[LpCall]) {
        self.add("trace.wall_ms", ms(wall));
        if let Some(parse) = run.and_then(|r| r.parse) {
            self.add("appl.parse.ms", ms(parse));
            self.count("appl.parse.calls", 1);
        }
        // The soundness phase begins after the analysis phase and the tail
        // bounds; splitting at the middle of the (microsecond) tail phase
        // keeps the split robust to the report's own bookkeeping.
        let report = run.and_then(|r| r.result.as_ref().ok());
        let boundary = run
            .and_then(|r| r.run_start)
            .zip(report)
            .map(|(start, report)| {
                let t = &report.timings;
                start + t.check.unwrap_or_default() + t.analysis + t.tail / 2
            });
        let (mut analysis_lp, mut soundness_lp) = (0.0, 0.0);
        for call in calls {
            let elapsed = ms(call.elapsed);
            if boundary.is_some_and(|b| call.start >= b) {
                soundness_lp += elapsed;
            } else {
                analysis_lp += elapsed;
            }
            self.add_call(call);
        }
        match (run, report) {
            (Some(run), Some(report)) => {
                let t = &report.timings;
                let check = t.check.map_or(0.0, ms);
                let soundness = t.soundness.map_or(0.0, ms);
                self.add("check.ms", check);
                self.add("inference.analysis.ms", ms(t.analysis));
                self.add("inference.derive.ms", ms(t.analysis) - analysis_lp);
                self.add("soundness.ms", soundness);
                self.add("soundness.lp.ms", soundness_lp);
                self.add("soundness.derive.ms", soundness - soundness_lp);
                self.add("tail.ms", ms(t.tail));
                let phases = check + ms(t.analysis) + soundness + ms(t.tail);
                self.add("pipeline.unattributed_ms", ms(t.total) - phases);
                debug_assert!(run.run_wall >= t.total);
                if let Some(c) = &report.check {
                    self.count("check.warnings", c.warnings);
                    self.count(
                        "check.pruned_sites",
                        c.pruning.refuted_branches + c.pruning.skipped_loops,
                    );
                    self.count(
                        "check.dropped_template_vars",
                        c.pruning.dropped_template_vars,
                    );
                }
                self.count("inference.lp_rows", report.lp.constraints);
                self.count("inference.lp_cols", report.lp.variables);
                self.count("inference.plan_slots_created", report.plan.slots_created);
                self.count("inference.poly_retries", report.poly_retries);
                self.count(
                    "inference.degraded",
                    usize::from(report.degradation.degraded()),
                );
                if let Some(s) = &report.soundness {
                    self.count("soundness.extension_rows", s.extension_constraints);
                    self.count("soundness.extension_cols", s.extension_variables);
                    self.count("soundness.dual_pivots", s.extension_dual_pivots);
                    self.count(
                        "soundness.shared_templates",
                        usize::from(s.shared_templates),
                    );
                }
            }
            (Some(run), None) if run.run_start.is_none() => {
                self.count("appl.parse.rejected", 1);
            }
            (Some(run), None)
                if run
                    .result
                    .as_ref()
                    .is_err_and(|e| e.check_report().is_some()) =>
            {
                self.add("check.ms", ms(run.run_wall));
                self.count("check.rejected", 1);
            }
            // A failed or panicked analysis: everything outside the LP calls
            // is derivation (including the checks it passed).
            (run, _) => {
                let spent = run.map_or(ms(wall), |r| ms(r.run_wall));
                self.add("inference.analysis.ms", spent);
                self.add("inference.derive.ms", spent - analysis_lp);
            }
        }
    }

    fn add_call(&mut self, call: &LpCall) {
        let elapsed = ms(call.elapsed);
        match call.kind {
            CallKind::Open => {
                self.add("lp.open.ms", elapsed);
                self.count("lp.open.calls", 1);
            }
            CallKind::Minimize => {
                self.add("lp.minimize.ms", elapsed);
                self.count("lp.minimize.calls", 1);
                for status in &call.statuses {
                    let name = match status {
                        LpStatus::Optimal => continue,
                        LpStatus::Infeasible => "lp.minimize.infeasible",
                        LpStatus::Unbounded => "lp.minimize.unbounded",
                        LpStatus::BudgetExhausted => "lp.minimize.budget_exhausted",
                    };
                    self.count(name, 1);
                    self.count("lp.minimize.not_optimal", 1);
                }
            }
            CallKind::SolveBatch => {
                self.add("lp.solve_batch.ms", elapsed);
                self.count("lp.solve_batch.calls", 1);
            }
        }
        let s = &call.stats;
        self.count("lp.iterations", s.iterations);
        self.count("lp.refactorizations", s.refactorizations);
        self.count("lp.dual_pivots", s.dual_pivots);
        self.count("lp.presolve_rows", s.presolve_rows);
        self.add("lp.pricing_ns", s.pricing_ns as f64);
        self.add("lp.ftran_ns", s.ftran_ns as f64);
        self.add("lp.btran_ns", s.btran_ns as f64);
        self.add("lp.ratio_ns", s.ratio_ns as f64);
        self.add("lp.kernel_allocs", s.kernel_allocs as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use crate::workload::{self, Config, Input, Item};
    use central_moment_analysis::{Analysis, SimplexBackend};
    use std::time::Instant;

    #[test]
    fn self_times_partition_a_traced_analysis() {
        let item = Item {
            name: "rdwalk".into(),
            input: Input::Built(Box::new(central_moment_analysis::suite::running::rdwalk())),
        };
        let config = Config {
            soundness: true,
            ..Config::default()
        };
        let tracer = Tracer::new(SimplexBackend);
        let start = Instant::now();
        let run = workload::analyze(&item, &config, Some(&tracer));
        let wall = start.elapsed();
        let mut layers = Layers::default();
        layers.add_run(Some(&run), wall, &tracer.drain());
        assert!(run.result.is_ok());
        assert!(
            layers.get("lp.minimize.calls") >= 2.0,
            "analysis and soundness solves"
        );
        assert!(layers.get("soundness.lp.ms") > 0.0);
        let coverage = layers.coverage_pct();
        assert!((95.0..=100.0 + 1e-9).contains(&coverage), "{coverage}");
    }

    #[test]
    fn rejections_are_attributed_to_their_stage() {
        let mut layers = Layers::default();
        let item = Item {
            name: "bad".into(),
            input: Input::Source("func main( begin end".into()),
        };
        let run = workload::analyze(&item, &Config::default(), None::<SimplexBackend>);
        layers.add_run(Some(&run), Duration::from_millis(1), &[]);
        // CMA007: a negative tick is an error in nonnegative-cost mode.
        let run_start = Instant::now();
        let result = Analysis::parse("func main() begin tick(-2) end")
            .expect("parses")
            .check_nonneg_cost(true)
            .run();
        let run = Run {
            parse: Some(Duration::ZERO),
            run_start: Some(run_start),
            run_wall: run_start.elapsed(),
            result,
        };
        layers.add_run(Some(&run), run.run_wall, &[]);
        assert_eq!(layers.get("appl.parse.calls"), 2.0);
        assert_eq!(layers.get("appl.parse.rejected"), 1.0);
        assert_eq!(layers.get("check.rejected"), 1.0);
        assert!(layers.get("check.ms") > 0.0);
        assert_eq!(layers.get("inference.analysis.ms"), 0.0);
    }
}
