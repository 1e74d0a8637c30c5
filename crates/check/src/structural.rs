//! Structural (flow-insensitive) lints: invalid constant parameters
//! (CMA003), bad calls and unconditional recursion (CMA006), and negative
//! ticks under the nonnegative-cost soundness mode (CMA007).
//!
//! These passes walk every statement of every unit, including code the
//! interval analysis proves unreachable — a malformed distribution is a
//! defect of the program text regardless of reachability.

use std::collections::BTreeSet;

use cma_appl::{Program, Stmt, StmtKind};

use crate::diagnostics::{Code, Diagnostic, Severity};
use crate::CheckConfig;

pub(crate) fn check(program: &Program, config: &CheckConfig, diags: &mut Vec<Diagnostic>) {
    for (_, body) in crate::units(program) {
        body.walk(&mut |stmt| lint_stmt(program, config, stmt, diags));
    }
    lint_unconditional_recursion(program, diags);
}

fn lint_stmt(program: &Program, config: &CheckConfig, stmt: &Stmt, diags: &mut Vec<Diagnostic>) {
    match stmt.kind() {
        StmtKind::Sample(x, d) => {
            if let Err(msg) = d.validate() {
                diags.push(Diagnostic::new(
                    Code::InvalidDistribution,
                    Severity::Error,
                    format!("cannot sample `{}`: {msg}", x.name()),
                    stmt.span(),
                ));
            }
        }
        StmtKind::IfProb(p, _, _) if !(0.0..=1.0).contains(p) => {
            diags.push(Diagnostic::new(
                Code::InvalidDistribution,
                Severity::Error,
                format!("branch probability {p} is not in [0, 1]"),
                stmt.span(),
            ));
        }
        StmtKind::Call(f) if program.function(f).is_none() => {
            diags.push(Diagnostic::new(
                Code::BadCall,
                Severity::Error,
                format!("call to undefined function `{f}`"),
                stmt.span(),
            ));
        }
        StmtKind::Tick(c) if config.nonneg_cost && *c < 0.0 => {
            diags.push(Diagnostic::new(
                Code::NegativeTick,
                Severity::Error,
                format!(
                    "tick({c}) is negative, but the nonnegative-cost soundness \
                     mode requires every tick to be >= 0"
                ),
                stmt.span(),
            ));
        }
        _ => {}
    }
}

/// Warns (CMA006) about every function whose strongly connected component
/// in the call graph recurses on *every* execution path: once entered, such
/// a function can never return.
fn lint_unconditional_recursion(program: &Program, diags: &mut Vec<Diagnostic>) {
    // Components in the order of their first function name: builder
    // programs tie on (dummy) spans, so this is the order diagnostics keep.
    let mut sccs: Vec<BTreeSet<String>> = program
        .call_graph_sccs()
        .into_iter()
        .map(|scc| scc.into_iter().collect())
        .collect();
    sccs.sort();
    for scc in sccs {
        // A one-function component recurses only through a self-call, which
        // `must_call_into` demands of it on every path.
        let diverges = scc.iter().all(|g| {
            program
                .function(g)
                .is_some_and(|f| must_call_into(f.body(), &scc))
        });
        if !diverges {
            continue;
        }
        for g in &scc {
            let span = program
                .function(g)
                .map(|f| f.body().span())
                .unwrap_or_default();
            diags.push(Diagnostic::new(
                Code::BadCall,
                Severity::Warning,
                format!("function `{g}` recurses on every path and can never return"),
                span,
            ));
        }
    }
}

/// Whether every execution path through `stmt` performs a call into `targets`.
fn must_call_into(stmt: &Stmt, targets: &BTreeSet<String>) -> bool {
    match stmt.kind() {
        StmtKind::Call(f) => targets.contains(f),
        StmtKind::Seq(ss) => ss.iter().any(|s| must_call_into(s, targets)),
        StmtKind::If(_, a, b) | StmtKind::IfProb(_, a, b) => {
            must_call_into(a, targets) && must_call_into(b, targets)
        }
        // A loop body may execute zero times.
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use cma_appl::parse_program_unchecked;

    use super::*;

    fn codes(source: &str) -> Vec<(&'static str, Severity)> {
        let program = parse_program_unchecked(source).unwrap();
        let mut diags = Vec::new();
        check(&program, &CheckConfig::default(), &mut diags);
        diags
            .iter()
            .map(|d| (d.code().as_str(), d.severity()))
            .collect()
    }

    #[test]
    fn invalid_distribution_and_probability_are_errors() {
        let got = codes(
            "func main() begin\n  x ~ uniform(2, 1);\n  if prob(1.5) then skip else skip fi\nend\n",
        );
        assert_eq!(
            got,
            vec![("CMA003", Severity::Error), ("CMA003", Severity::Error)]
        );
    }

    #[test]
    fn undefined_call_is_an_error() {
        assert_eq!(
            codes("func main() begin call ghost end\n"),
            vec![("CMA006", Severity::Error)]
        );
    }

    #[test]
    fn unconditional_recursion_is_a_warning() {
        let source = "func spin() begin tick(1); call spin end\nfunc main() begin skip end\n";
        assert_eq!(codes(source), vec![("CMA006", Severity::Warning)]);
    }

    #[test]
    fn guarded_recursion_is_fine() {
        let source =
            "func f() begin if x < 3 then call f else skip fi end\nfunc main() begin call f end\n";
        assert!(codes(source).is_empty());
    }

    #[test]
    fn mutual_unconditional_recursion_flags_both() {
        let source =
            "func a() begin call b end\nfunc b() begin call a end\nfunc main() begin skip end\n";
        let got = codes(source);
        assert_eq!(got.len(), 2);
        assert!(got
            .iter()
            .all(|(c, s)| *c == "CMA006" && *s == Severity::Warning));
    }

    #[test]
    fn builder_recursion_warnings_follow_component_names() {
        use cma_appl::build::*;
        // Callees-first SCC order is [n, m], [z], [a]; the warnings follow
        // each component's first name instead.
        let program = ProgramBuilder::new()
            .function("a", seq([call("n"), call("z"), call("a")]))
            .function("m", call("n"))
            .function("n", call("m"))
            .function("z", call("z"))
            .build()
            .unwrap();
        let report = crate::check_program(&program, &CheckConfig::default());
        let flagged: Vec<&str> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code() == Code::BadCall)
            .map(|d| d.message().split('`').nth(1).unwrap())
            .collect();
        assert_eq!(flagged, ["a", "m", "n", "z"]);
    }

    #[test]
    fn negative_tick_only_under_nonneg_mode() {
        let source = "func main() begin tick(-2) end\n";
        assert!(codes(source).is_empty());
        let program = parse_program_unchecked(source).unwrap();
        let mut diags = Vec::new();
        let config = CheckConfig {
            nonneg_cost: true,
            ..CheckConfig::default()
        };
        check(&program, &config, &mut diags);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code(), Code::NegativeTick);
        assert_eq!(diags[0].severity(), Severity::Error);
    }
}
