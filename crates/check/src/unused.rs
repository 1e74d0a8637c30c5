//! Unused-variable analysis (CMA005).
//!
//! A variable that is written somewhere but read nowhere — not in an
//! expression, not in a guard, not in a precondition — cannot influence
//! control flow or cost.  Besides the lint, each such variable is exported
//! in [`RangeFacts::dead_template_vars`]: moment templates need not range
//! over it, which shrinks the LP the inference engine generates.

use std::collections::{BTreeMap, BTreeSet};

use cma_appl::{Program, RangeFacts, Span, StmtKind, Var};

use crate::diagnostics::{Code, Diagnostic, Severity};

pub(crate) fn check(program: &Program, diags: &mut Vec<Diagnostic>, facts: &mut RangeFacts) {
    let mut reads: BTreeSet<Var> = BTreeSet::new();
    for c in program.precondition() {
        reads.extend(c.vars());
    }
    for f in program.functions() {
        for c in f.precondition() {
            reads.extend(c.vars());
        }
    }

    let mut first_write: BTreeMap<Var, Span> = BTreeMap::new();
    for (_, body) in crate::units(program) {
        body.walk(&mut |stmt| match stmt.kind() {
            StmtKind::Assign(x, e) => {
                reads.extend(e.vars());
                first_write.entry(x.clone()).or_insert_with(|| stmt.span());
            }
            StmtKind::Sample(x, _) => {
                first_write.entry(x.clone()).or_insert_with(|| stmt.span());
            }
            StmtKind::If(c, _, _) | StmtKind::While(c, _) => {
                reads.extend(c.vars());
            }
            _ => {}
        });
    }

    for (var, span) in first_write {
        if !reads.contains(&var) {
            diags.push(Diagnostic::new(
                Code::UnusedVariable,
                Severity::Warning,
                format!("variable `{}` is written but never read", var.name()),
                span,
            ));
            facts.insert_dead_template_var(var);
        }
    }
}

#[cfg(test)]
mod tests {
    use cma_appl::parse_program_unchecked;

    use super::*;

    fn run(source: &str) -> (Vec<Diagnostic>, RangeFacts) {
        let program = parse_program_unchecked(source).unwrap();
        let mut diags = Vec::new();
        let mut facts = RangeFacts::new();
        check(&program, &mut diags, &mut facts);
        (diags, facts)
    }

    #[test]
    fn write_only_variable_is_flagged_and_exported() {
        let (diags, facts) = run("func main() begin\n  waste ~ uniform(0, 1);\n  tick(1)\nend\n");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code(), Code::UnusedVariable);
        assert!(diags[0].message().contains("`waste`"));
        assert!(facts.dead_template_vars().contains(&Var::new("waste")));
    }

    #[test]
    fn reads_anywhere_count() {
        // Guard read, expression read, and precondition read all silence it.
        let (d1, _) = run("func main() begin x := 1; if x < 2 then tick(1) fi end\n");
        assert!(d1.is_empty());
        let (d2, _) = run("func main() begin x := 1; y := x end\n");
        assert_eq!(d2.len(), 1, "y is still unused");
        assert!(d2[0].message().contains("`y`"));
        let (d3, _) = run("pre x >= 0\nfunc main() begin x := 1 end\n");
        assert!(d3.is_empty());
    }

    #[test]
    fn self_update_counts_as_a_read() {
        let (diags, _) = run("func main() begin x := x + 1 end\n");
        assert!(diags.is_empty());
    }
}
