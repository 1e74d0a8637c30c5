//! Interval abstract interpretation (CMA002, CMA004) and range-fact export.
//!
//! A forward pass over each unit (`main` and every function body) tracks a
//! box `var -> [lo, hi]` per program point, starting from the unit's
//! precondition.  Loop heads iterate to a post-fixpoint with standard
//! widening (a moving bound jumps to infinity) followed by one narrowing
//! step; calls havoc every variable the callee transitively modifies.
//!
//! Out of this fall two lints — statically-refuted branches (CMA002) and
//! loops whose guard no body write can ever change (CMA004) — and the
//! [`RangeFacts`] the inference engine uses to skip derivation work for
//! branches that cannot be taken.

use std::collections::{BTreeMap, BTreeSet};

use cma_appl::{BranchFact, Cond, Expr, Program, RangeFacts, Stmt, StmtKind, Var};
use cma_semiring::Interval;

use crate::diagnostics::{Code, Diagnostic, Severity};

/// Abstract store: absent variables are unbounded (top).
type Env = BTreeMap<Var, Interval>;

/// Cap on widening rounds; with delayed widening the fixpoint converges in
/// a handful of rounds, the cap only guards pathological inputs.
const MAX_ROUNDS: usize = 24;

pub(crate) fn check(program: &Program, diags: &mut Vec<Diagnostic>, facts: &mut RangeFacts) {
    // The havoc set of `call f`: what `f` modifies directly or through
    // (possibly recursive) calls.
    let trans_mod: BTreeMap<String, BTreeSet<Var>> = program
        .functions()
        .map(|f| f.name())
        .map(|f| (f.to_string(), program.transitively_modified(f)))
        .collect();
    for (unit, body) in crate::units(program) {
        let preconds: &[Cond] = if unit == "main" {
            program.precondition()
        } else {
            program
                .function(unit)
                .map(|f| f.precondition())
                .unwrap_or(&[])
        };
        let mut env = Env::new();
        for c in preconds {
            if let Some(refined) = constrain(&env, c) {
                env = refined;
            }
        }
        let mut pass = Pass {
            trans_mod: &trans_mod,
            diags: &mut *diags,
            facts: &mut *facts,
            reporting: true,
        };
        pass.exec(Some(env), body);
    }
}

struct Pass<'a> {
    trans_mod: &'a BTreeMap<String, BTreeSet<Var>>,
    diags: &'a mut Vec<Diagnostic>,
    facts: &'a mut RangeFacts,
    /// Diagnostics and facts are suppressed while iterating a loop to its
    /// fixpoint (the body is re-executed per round); the final descent with
    /// the stable head environment reports exactly once.
    reporting: bool,
}

impl Pass<'_> {
    /// Transfer function: abstract state after `stmt`, `None` = unreachable.
    fn exec(&mut self, env: Option<Env>, stmt: &Stmt) -> Option<Env> {
        let mut env = env?;
        match stmt.kind() {
            StmtKind::Skip | StmtKind::Tick(_) => Some(env),
            StmtKind::Assign(x, e) => {
                let value = eval(&env, e);
                set(&mut env, x.clone(), value);
                Some(env)
            }
            StmtKind::Sample(x, d) => {
                match d.validate() {
                    Ok(()) => {
                        let (lo, hi) = d.support();
                        set(&mut env, x.clone(), Interval::new(lo, hi));
                    }
                    // Malformed distribution (CMA003 elsewhere): no range.
                    Err(_) => {
                        env.remove(x);
                    }
                }
                Some(env)
            }
            StmtKind::Call(f) => {
                match self.trans_mod.get(f) {
                    Some(havoc) => {
                        for v in havoc {
                            env.remove(v);
                        }
                    }
                    // Undefined callee (CMA006 elsewhere): havoc everything.
                    None => env.clear(),
                }
                Some(env)
            }
            StmtKind::If(c, then_branch, else_branch) => match cond_truth(&env, c) {
                Some(true) => {
                    self.record(
                        stmt,
                        BranchFact::ElseUnreachable,
                        else_branch,
                        format!("condition `{c}` always holds; the `else` branch is unreachable"),
                    );
                    self.exec(constrain(&env, c), then_branch)
                }
                Some(false) => {
                    self.record(
                        stmt,
                        BranchFact::ThenUnreachable,
                        then_branch,
                        format!(
                            "condition `{c}` is statically refuted; the `then` branch is unreachable"
                        ),
                    );
                    self.exec(constrain(&env, &c.negate()), else_branch)
                }
                None => {
                    let out_then = self.exec(constrain(&env, c), then_branch);
                    let out_else = self.exec(constrain(&env, &c.negate()), else_branch);
                    join_states(out_then, out_else)
                }
            },
            StmtKind::IfProb(_, a, b) => {
                let out_a = self.exec(Some(env.clone()), a);
                let out_b = self.exec(Some(env), b);
                join_states(out_a, out_b)
            }
            StmtKind::While(c, body) => self.exec_while(env, stmt, c, body),
            StmtKind::Seq(ss) => {
                let mut state = Some(env);
                for s in ss {
                    state = self.exec(state, s);
                }
                state
            }
        }
    }

    fn exec_while(&mut self, env: Env, stmt: &Stmt, c: &Cond, body: &Stmt) -> Option<Env> {
        if cond_truth(&env, c) == Some(false) {
            self.record(
                stmt,
                BranchFact::LoopNeverEntered,
                body,
                format!("loop guard `{c}` is statically refuted; the body never runs"),
            );
            return constrain(&env, &c.negate()).or(Some(env));
        }

        // CMA004: nothing in the body (including callees) ever writes a
        // guard variable — once entered, the loop cannot terminate.
        let guard_vars = c.vars();
        if self.reporting && !guard_vars.is_empty() {
            let written = self.modified_with_calls(body);
            if guard_vars.is_disjoint(&written) {
                self.diags.push(Diagnostic::new(
                    Code::StuckLoopGuard,
                    Severity::Warning,
                    format!(
                        "no variable of loop guard `{c}` is written in the loop body; \
                         once entered the loop never terminates"
                    ),
                    stmt.span(),
                ));
            }
        }

        // Loop-head fixpoint: join for two rounds (precision), then widen.
        let was_reporting = std::mem::replace(&mut self.reporting, false);
        let mut head = env.clone();
        let mut converged = false;
        for round in 0..MAX_ROUNDS {
            let body_out = self.exec(constrain(&head, c), body);
            let next = join_states(Some(env.clone()), body_out).unwrap_or_else(|| env.clone());
            if env_subset(&next, &head) {
                converged = true;
                break;
            }
            head = if round < 2 {
                join_env(&head, &next)
            } else {
                widen_env(&head, &next)
            };
        }
        if converged {
            // One narrowing step recovers precision lost to widening; it is
            // sound only below a genuine post-fixpoint.
            if let Some(body_out) = self.exec(constrain(&head, c), body) {
                head = join_env(&env, &body_out);
            }
        } else {
            // Bail out soundly: entry values for unmodified variables, top
            // for everything the body can touch.
            head = env.clone();
            for v in self.modified_with_calls(body) {
                head.remove(&v);
            }
        }
        self.reporting = was_reporting;

        // Final descent through the body with the stable head environment:
        // this is the pass that reports nested diagnostics and facts.
        let _ = self.exec(constrain(&head, c), body);

        // After the loop the guard is false; `None` here means the guard
        // can never become false (e.g. `while true`) — code after the loop
        // is unreachable.
        constrain(&head, &c.negate())
    }

    /// Variables `body` modifies directly or via the functions it calls.
    fn modified_with_calls(&self, body: &Stmt) -> BTreeSet<Var> {
        let mut vars = body.modified_vars();
        for callee in body.called_functions() {
            if let Some(more) = self.trans_mod.get(&callee) {
                vars.extend(more.iter().cloned());
            }
        }
        vars
    }

    /// Records a refuted-branch fact, plus the CMA002 diagnostic unless the
    /// dead code is a bare `skip` (the parser's stand-in for a missing
    /// `else`, where a lint would be noise).
    fn record(&mut self, stmt: &Stmt, fact: BranchFact, dead: &Stmt, message: String) {
        if !self.reporting {
            return;
        }
        self.facts.insert_refuted(stmt.span(), fact);
        if !matches!(dead.kind(), StmtKind::Skip) {
            self.diags.push(Diagnostic::new(
                Code::RefutedBranch,
                Severity::Warning,
                message,
                stmt.span(),
            ));
        }
    }
}

/// Binds `var` in `env`, treating top as "unbound".
fn set(env: &mut Env, var: Var, value: Interval) {
    if value.is_top() {
        env.remove(&var);
    } else {
        env.insert(var, value);
    }
}

/// Abstract evaluation of an expression. Non-finite constants (overflowed
/// literals) evaluate to top so the arithmetic below never produces NaN.
fn eval(env: &Env, e: &Expr) -> Interval {
    match e {
        Expr::Var(v) => env.get(v).copied().unwrap_or_else(Interval::top),
        Expr::Const(c) => {
            if c.is_finite() {
                Interval::point(*c)
            } else {
                Interval::top()
            }
        }
        Expr::Add(a, b) => eval(env, a).add(eval(env, b)),
        Expr::Sub(a, b) => eval(env, a).sub(eval(env, b)),
        Expr::Mul(a, b) => eval(env, a).mul(eval(env, b)),
    }
}

/// Three-valued truth of a condition under `env`.
fn cond_truth(env: &Env, c: &Cond) -> Option<bool> {
    match c {
        Cond::True => Some(true),
        Cond::Not(inner) => cond_truth(env, inner).map(|b| !b),
        Cond::And(a, b) => match (cond_truth(env, a), cond_truth(env, b)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        Cond::Le(a, b) => le_truth(eval(env, a), eval(env, b), false),
        Cond::Lt(a, b) => le_truth(eval(env, a), eval(env, b), true),
        Cond::Ge(a, b) => le_truth(eval(env, b), eval(env, a), false),
        Cond::Gt(a, b) => le_truth(eval(env, b), eval(env, a), true),
        Cond::Eq(a, b) => {
            let ia = eval(env, a);
            let ib = eval(env, b);
            if ia.width() == 0.0 && ib.width() == 0.0 && ia.lo() == ib.lo() {
                Some(true)
            } else if ia.intersect(ib).is_none() {
                Some(false)
            } else {
                None
            }
        }
    }
}

/// Truth of `ia <= ib` (or `<` when `strict`).
fn le_truth(ia: Interval, ib: Interval, strict: bool) -> Option<bool> {
    if strict {
        if ia.hi() < ib.lo() {
            Some(true)
        } else if ia.lo() >= ib.hi() {
            Some(false)
        } else {
            None
        }
    } else if ia.hi() <= ib.lo() {
        Some(true)
    } else if ia.lo() > ib.hi() {
        Some(false)
    } else {
        None
    }
}

/// Refines `env` under the assumption that `c` holds; `None` = infeasible.
/// Strict comparisons are approximated by their closed counterparts, which
/// is sound (the refined box still contains every satisfying state).
fn constrain(env: &Env, c: &Cond) -> Option<Env> {
    if cond_truth(env, c) == Some(false) {
        return None;
    }
    match c {
        Cond::True => Some(env.clone()),
        Cond::Not(inner) => {
            let negated = inner.negate();
            if matches!(negated, Cond::Not(_)) {
                // Negation did not push through (e.g. `not (a and b)`):
                // keep the unrefined box, which is always sound.
                Some(env.clone())
            } else {
                constrain(env, &negated)
            }
        }
        Cond::And(a, b) => {
            let refined = constrain(env, a)?;
            constrain(&refined, b)
        }
        Cond::Le(a, b) | Cond::Lt(a, b) => bound_le(env, a, b),
        Cond::Ge(a, b) | Cond::Gt(a, b) => bound_le(env, b, a),
        Cond::Eq(a, b) => {
            let mut out = env.clone();
            let meet = eval(&out, a).intersect(eval(&out, b))?;
            if let Expr::Var(x) = &**a {
                set(&mut out, x.clone(), meet);
            }
            if let Expr::Var(y) = &**b {
                set(&mut out, y.clone(), meet);
            }
            Some(out)
        }
    }
}

/// Refines `env` under `a <= b`, tightening whichever side is a variable.
fn bound_le(env: &Env, a: &Expr, b: &Expr) -> Option<Env> {
    let mut out = env.clone();
    let ia = eval(&out, a);
    let ib = eval(&out, b);
    if ia.lo() > ib.hi() {
        return None;
    }
    if let Expr::Var(x) = a {
        let clamped = ia.intersect(Interval::new(f64::NEG_INFINITY, ib.hi()))?;
        set(&mut out, x.clone(), clamped);
    }
    if let Expr::Var(y) = b {
        let clamped = ib.intersect(Interval::new(ia.lo(), f64::INFINITY))?;
        set(&mut out, y.clone(), clamped);
    }
    Some(out)
}

/// Join of two reachability states (`None` is the identity).
fn join_states(a: Option<Env>, b: Option<Env>) -> Option<Env> {
    match (a, b) {
        (Some(ea), Some(eb)) => Some(join_env(&ea, &eb)),
        (Some(e), None) | (None, Some(e)) => Some(e),
        (None, None) => None,
    }
}

/// Pointwise join: a variable stays bounded only if bounded on both sides.
fn join_env(a: &Env, b: &Env) -> Env {
    let mut out = Env::new();
    for (v, ia) in a {
        if let Some(ib) = b.get(v) {
            let joined = ia.join(*ib);
            if !joined.is_top() {
                out.insert(v.clone(), joined);
            }
        }
    }
    out
}

/// Whether `next` is contained in `head` (pointwise; absent = top).
fn env_subset(next: &Env, head: &Env) -> bool {
    head.iter()
        .all(|(v, ih)| next.get(v).map(|iv| iv.subset_of(ih)).unwrap_or(false))
}

/// Pointwise widening: bounds that moved between `head` and `next` jump to
/// infinity; stable bounds survive.
fn widen_env(head: &Env, next: &Env) -> Env {
    let mut out = Env::new();
    for (v, ih) in head {
        if let Some(iv) = next.get(v) {
            let widened = ih.widen(ih.join(*iv));
            if !widened.is_top() {
                out.insert(v.clone(), widened);
            }
        }
    }
    out
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
    fn refuted_then_branch_is_found_with_a_fact() {
        let source = "func main() begin\n  x := 1;\n  if x < 0 then tick(5) else tick(1) fi\nend\n";
        let (diags, facts) = run(source);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code(), Code::RefutedBranch);
        assert!(
            diags[0].message().contains("then"),
            "{}",
            diags[0].message()
        );
        assert_eq!(facts.refuted_count(), 1);
        assert_eq!(
            facts.refuted().next().map(|(_, f)| *f),
            Some(BranchFact::ThenUnreachable)
        );
    }

    #[test]
    fn tautological_guard_flags_the_else_branch() {
        let source =
            "func main() begin\n  x := 2;\n  if x >= 0 then tick(1) else tick(9) fi\nend\n";
        let (diags, facts) = run(source);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code(), Code::RefutedBranch);
        assert!(
            diags[0].message().contains("else"),
            "{}",
            diags[0].message()
        );
        assert_eq!(
            facts.refuted().next().map(|(_, f)| *f),
            Some(BranchFact::ElseUnreachable)
        );
    }

    #[test]
    fn refuted_branch_over_elided_else_records_fact_without_lint() {
        // The fact is still valuable for pruning, but linting a `skip` the
        // parser inserted would be noise.
        let source = "func main() begin\n  x := 2;\n  if x >= 0 then tick(1) fi\nend\n";
        let (diags, facts) = run(source);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(facts.refuted_count(), 1);
    }

    #[test]
    fn never_entered_loop_is_found() {
        let source =
            "func main() begin\n  n := 0;\n  while n >= 1 do tick(1); n := n - 1 od\nend\n";
        let (diags, facts) = run(source);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code(), Code::RefutedBranch);
        assert!(diags[0].message().contains("never runs"));
        assert_eq!(
            facts.refuted().next().map(|(_, f)| *f),
            Some(BranchFact::LoopNeverEntered)
        );
    }

    #[test]
    fn stuck_loop_guard_is_found() {
        let source =
            "pre n >= 1\nfunc main() begin\n  while n >= 1 do x := x + 1; tick(1) od\nend\n";
        let (diags, _) = run(source);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code(), Code::StuckLoopGuard);
    }

    #[test]
    fn guard_written_through_a_call_is_not_stuck() {
        let source = "pre n >= 1\nfunc dec() begin n := n - 1 end\nfunc main() begin\n  while n >= 1 do call dec; tick(1) od\nend\n";
        let (diags, _) = run(source);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn while_true_is_not_a_stuck_guard() {
        // `while true` is idiomatic for "loop until break-by-prob"; with no
        // guard variables CMA004 stays silent. Code after it is simply
        // unreachable, which is not this pass's concern.
        let source = "func main() begin\n  while true do x := x + 1; tick(1) od\nend\n";
        let (diags, _) = run(source);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn widening_terminates_and_keeps_stable_bounds() {
        // x counts 0,1,2,... — unbounded above, but never below 0, and the
        // guard is honest, so nothing is flagged.
        let source = "pre n >= 0\nfunc main() begin\n  x := 0;\n  while x < n do x := x + 1; tick(1) od\nend\n";
        let (diags, _) = run(source);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn nested_loop_diagnostics_are_reported_once() {
        let source = "pre n >= 0\nfunc main() begin\n  while 1 <= n do\n    if n < 0 then tick(7) else tick(1) fi;\n    n := n - 1\n  od\nend\n";
        let (diags, facts) = run(source);
        let refuted: Vec<_> = diags
            .iter()
            .filter(|d| d.code() == Code::RefutedBranch)
            .collect();
        assert_eq!(refuted.len(), 1, "{diags:?}");
        assert_eq!(facts.refuted_count(), 1);
    }

    #[test]
    fn sampling_bounds_feed_refutation() {
        let source = "func main() begin\n  t ~ uniform(0, 1);\n  if t > 5 then tick(9) else tick(1) fi\nend\n";
        let (diags, facts) = run(source);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code(), Code::RefutedBranch);
        assert_eq!(
            facts.refuted().next().map(|(_, f)| *f),
            Some(BranchFact::ThenUnreachable)
        );
    }

    #[test]
    fn clean_programs_stay_clean() {
        let fig2 = "pre d > 0\nfunc rdwalk()\n  pre x < d + 2\n  pre d > 0\nbegin\n  if x < d then\n    t ~ uniform(-1, 2);\n    x := x + t;\n    call rdwalk;\n    tick(1)\n  fi\nend\nfunc main() begin\n  x := 0;\n  call rdwalk\nend\n";
        let (diags, facts) = run(fig2);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(facts.refuted_count(), 0);
    }
}
