//! The Thm 4.4 re-analysis under the checker's range facts, property-tested
//! over generated programs: pruning never costs a verdict and never grows
//! the step-counting LP.
//!
//! The re-analysis derives the program as written, charging one unit per
//! evaluation step, so the facts the checker proved for the program prune
//! it exactly as they prune the main analysis.  Over every generated
//! program whose checker run exports facts, a re-analysis that establishes
//! `E[T^k] < ∞` without them must establish it with them, on no more rows
//! and columns.

use std::sync::Arc;

use central_moment_analysis::appl::parse_program;
use central_moment_analysis::check::{check_program, CheckConfig};
use central_moment_analysis::inference::{soundness_report, step_count_analysis, AnalysisOptions};
use central_moment_analysis::lp::SimplexBackend;
use cma_corpus::gen::gen_program;

/// A pruned `if` and a never-entered loop still cost their entry step: the
/// step count is the assignment, the `if`, its live `skip` and the loop's
/// entry, exactly, with no LP left to solve.
#[test]
fn the_step_model_charges_pruned_statements() {
    let program = parse_program(
        "func main() begin x := 0; if x > 5 then tick(1) else skip fi; \
         while x > 3 do x := x - 1 od end",
    )
    .unwrap();
    let check = check_program(&program, &CheckConfig::default());
    let options = AnalysisOptions::degree(2).with_range_facts(Arc::new(check.facts().clone()));
    let result = step_count_analysis(&program, &options, &SimplexBackend).unwrap();
    assert_eq!(result.pruning.refuted_branches, 1);
    assert_eq!(result.pruning.skipped_loops, 1);
    assert_eq!(result.lp_constraints, 0);
    for (k, exact) in [(1, 4.0), (2, 16.0)] {
        let moment = result.raw_moment_at(k, &[]);
        assert_eq!((moment.lo(), moment.hi()), (exact, exact), "E[T^{k}]");
    }
}

#[test]
fn pruned_reanalysis_keeps_every_verdict_on_no_larger_lp() {
    let (mut with_facts, mut established) = (0, 0);
    for seed in 0..240 {
        let source = gen_program(seed);
        // Not every seed parses (the generator's `;` placement is
        // heuristic), and a checker error would abort the pipeline.
        let Ok(program) = parse_program(&source) else {
            continue;
        };
        let check = check_program(&program, &CheckConfig::default());
        if check.has_errors() || check.facts().is_empty() {
            continue;
        }
        with_facts += 1;
        let plain = AnalysisOptions::degree(2);
        let pruned = plain
            .clone()
            .with_range_facts(Arc::new(check.facts().clone()));
        let base = soundness_report(&program, 2, &plain, &SimplexBackend);
        let report = soundness_report(&program, 2, &pruned, &SimplexBackend);
        if base.termination_moment.is_none() {
            continue;
        }
        established += 1;
        assert_eq!(
            report.termination_moment, base.termination_moment,
            "seed {seed}:\n{source}"
        );
        assert!(
            report.extension_constraints <= base.extension_constraints
                && report.extension_variables <= base.extension_variables,
            "seed {seed}: pruned {} x {} vs unpruned {} x {}\n{source}",
            report.extension_constraints,
            report.extension_variables,
            base.extension_constraints,
            base.extension_variables
        );
    }
    // Guards the property against a generator that stops producing facts.
    assert!(
        with_facts >= 25 && established >= 20,
        "{with_facts} programs with facts, {established} established"
    );
}
