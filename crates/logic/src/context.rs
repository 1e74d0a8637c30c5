//! Logical contexts `Γ`: conjunctions of linear facts about reachable states.
//!
//! A context is updated *forward* through statements (guards add facts,
//! assignments substitute or drop facts, sampling adds support bounds, calls
//! havoc the callee's modified variables) and consumed by the weakening rule,
//! which expresses slack polynomials as conical combinations of products of
//! the context's constraints (Handelman certificates).
//!
//! [`Context::flow`] is the one forward walk.  It returns a [`Flow`]: the
//! context before and after every statement of a body, nested the way the
//! statements are, each computed once (a loop's head invariant by a
//! fixpoint whose last pass also yields the body's flow).  The derivation
//! only reads it, at every restriction level.

use std::collections::BTreeSet;
use std::rc::Rc;

use cma_appl::ast::{Cond, Expr, Stmt, StmtKind};
use cma_appl::dist::Dist;
use cma_appl::Program;
use cma_semiring::poly::{Polynomial, Var};

use crate::constraint::{conjuncts_of, LinExpr, LinearConstraint};

/// A logical context: the conjunction of a finite set of linear constraints
/// `eᵢ ≥ 0` over program variables.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Context {
    constraints: Vec<LinearConstraint>,
}

impl Context {
    /// The empty (trivially true) context.
    pub fn top() -> Self {
        Context::default()
    }

    /// Builds a context from a conjunction of Appl conditions (non-linear
    /// parts are dropped, which is sound).
    pub fn from_conditions(conds: &[Cond]) -> Self {
        let mut ctx = Context::top();
        for c in conds {
            ctx.assume(c);
        }
        ctx
    }

    /// The constraints of the context.
    pub fn constraints(&self) -> &[LinearConstraint] {
        &self.constraints
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Whether the context contains no constraints.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Adds a raw constraint, dropping trivial duplicates.
    pub fn add_constraint(&mut self, c: LinearConstraint) {
        if c.is_trivial() || self.constraints.contains(&c) {
            return;
        }
        self.constraints.push(c);
    }

    /// Conjoins the linear facts of an Appl condition.
    pub fn assume(&mut self, cond: &Cond) {
        for c in conjuncts_of(cond) {
            self.add_constraint(c);
        }
    }

    /// Returns a copy of the context extended with a condition.
    pub fn and(&self, cond: &Cond) -> Context {
        let mut ctx = self.clone();
        ctx.assume(cond);
        ctx
    }

    /// Removes every constraint that mentions any of `vars`.
    pub fn havoc(&mut self, vars: &BTreeSet<Var>) {
        self.constraints
            .retain(|c| !vars.iter().any(|v| c.mentions(v)));
    }

    /// Updates the context across the assignment `x := e`.
    ///
    /// If `e` is affine with a non-zero coefficient on `x`, the assignment is
    /// invertible and existing facts are rewritten; otherwise facts mentioning
    /// `x` are dropped.  When `e` is affine, the equality `x = e` over the
    /// *old* values is retained in the invertible case and added in the
    /// non-self-referential case.
    pub fn assign(&mut self, x: &Var, e: &Expr) {
        let rhs = LinExpr::from_expr(e);
        match rhs {
            Some(rhs) => {
                let a = rhs.coefficient(x);
                if a != 0.0 {
                    // Invertible update: old_x = (new_x - rest) / a.
                    let mut rest = rhs.clone();
                    let rest_without_x = {
                        let mut r = LinExpr::zero();
                        for v in rest.vars() {
                            if v != x {
                                r = r.add(&LinExpr::var(v.clone()).scale(rest.coefficient(v)));
                            }
                        }
                        r.add(&LinExpr::constant(rest.constant_term()))
                    };
                    rest = rest_without_x;
                    let inverse = LinExpr::var(x.clone()).sub(&rest).scale(1.0 / a);
                    self.constraints = self
                        .constraints
                        .iter()
                        .map(|c| c.substitute(x, &inverse))
                        .filter(|c| !c.is_trivial())
                        .collect();
                } else {
                    // Non-self-referential: drop old facts about x, add x = e.
                    let vars: BTreeSet<Var> = [x.clone()].into_iter().collect();
                    self.havoc(&vars);
                    self.add_constraint(LinearConstraint::nonneg(
                        LinExpr::var(x.clone()).sub(&rhs),
                    ));
                    self.add_constraint(LinearConstraint::nonneg(
                        rhs.sub(&LinExpr::var(x.clone())),
                    ));
                }
            }
            None => {
                let vars: BTreeSet<Var> = [x.clone()].into_iter().collect();
                self.havoc(&vars);
            }
        }
    }

    /// Updates the context across the sampling statement `x ~ d`.
    pub fn sample(&mut self, x: &Var, d: &Dist) {
        let vars: BTreeSet<Var> = [x.clone()].into_iter().collect();
        self.havoc(&vars);
        let (lo, hi) = d.support();
        if lo.is_finite() {
            self.add_constraint(LinearConstraint::nonneg(
                LinExpr::var(x.clone()).sub(&LinExpr::constant(lo)),
            ));
        }
        if hi.is_finite() {
            self.add_constraint(LinearConstraint::nonneg(
                LinExpr::constant(hi).sub(&LinExpr::var(x.clone())),
            ));
        }
    }

    /// The join of two contexts for branch merges: a fact is kept when the
    /// *other* context entails it (so the result holds on both branches).
    pub fn join(&self, other: &Context) -> Context {
        let mut result = Context::top();
        for c in &self.constraints {
            if other.entails(c) {
                result.add_constraint(c.clone());
            }
        }
        for c in &other.constraints {
            if self.entails(c) {
                result.add_constraint(c.clone());
            }
        }
        result
    }

    /// Whether every constraint holds under a valuation.
    pub fn holds(&self, valuation: &dyn Fn(&Var) -> f64) -> bool {
        self.constraints.iter().all(|c| c.holds(valuation))
    }

    /// All products of context constraints (as polynomials) with total degree
    /// at most `degree`, including the constant polynomial `1`.
    ///
    /// Every conical combination of these products is nonnegative wherever the
    /// context holds; the weakening rule searches for slack polynomials in
    /// this cone (Handelman representation).
    pub fn certificate_products(&self, degree: u32) -> Vec<Polynomial> {
        let base: Vec<Polynomial> = self
            .constraints
            .iter()
            .map(|c| c.expr().to_polynomial())
            .collect();
        let mut products = vec![Polynomial::constant(1.0)];
        // Breadth-first expansion by repeatedly multiplying with base factors;
        // the frontier is the products the previous round added.
        let mut frontier = 0..products.len();
        for _ in 0..degree {
            let round_start = products.len();
            for i in frontier {
                for b in &base {
                    let candidate = products[i].mul(b);
                    if candidate.degree() <= degree && !products.contains(&candidate) {
                        products.push(candidate);
                    }
                }
            }
            frontier = round_start..products.len();
            if frontier.is_empty() {
                break;
            }
        }
        products
    }

    /// The flow of `stmt` from this context: the context before and after
    /// every statement it contains (see [`Flow`]).  `stmt` is a whole body:
    /// nothing reads the context after it, so the `after` of its tail — a
    /// trailing assignment, sample or branch join — is left uncomputed.
    pub fn flow(self, stmt: &Stmt, program: &Program) -> Flow {
        Flow::walk(Rc::new(self), stmt, program, true)
    }

    /// Whether the context logically entails `goal`.
    ///
    /// A context entails each of its own facts, vacuously when it is
    /// infeasible, so a fact the context states is answered `true` without
    /// an LP; the LP answers `true` as well, since the fact bounds its own
    /// minimum.  Any other goal is checked with a small LP: the minimum of
    /// `goal`'s expression over the context is non-negative.
    ///
    /// Returns `true` when the context is infeasible (vacuous entailment) and
    /// `false` when the minimum is negative or unbounded below.
    pub fn entails(&self, goal: &LinearConstraint) -> bool {
        if goal.is_trivial() || self.constraints.contains(goal) {
            return true;
        }
        self.entails_by_lp(goal)
    }

    /// The LP check of [`entails`](Self::entails).
    fn entails_by_lp(&self, goal: &LinearConstraint) -> bool {
        // Collect the variables involved.
        let mut vars: BTreeSet<Var> = goal.expr().vars().cloned().collect();
        for c in &self.constraints {
            vars.extend(c.expr().vars().cloned());
        }
        let mut lp = cma_lp::LpProblem::new();
        let lp_vars: std::collections::BTreeMap<Var, cma_lp::LpVarId> = vars
            .iter()
            .map(|v| (v.clone(), lp.add_var("", true)))
            .collect();
        let to_terms = |e: &LinExpr| -> Vec<(cma_lp::LpVarId, f64)> {
            e.vars().map(|v| (lp_vars[v], e.coefficient(v))).collect()
        };
        for c in &self.constraints {
            lp.add_constraint(
                to_terms(c.expr()),
                cma_lp::Cmp::Ge,
                -c.expr().constant_term(),
            );
        }
        lp.set_objective(to_terms(goal.expr()));
        let sol = lp.solve();
        match sol.status {
            cma_lp::LpStatus::Optimal => sol.objective + goal.expr().constant_term() >= -1e-7,
            cma_lp::LpStatus::Infeasible => true,
            _ => false,
        }
    }

    /// Keeps only the constraints `other` entails.
    pub fn retain_entailed_by(&mut self, other: &Context) {
        self.constraints.retain(|c| other.entails(c));
    }

    /// The candidate loop-head facts of `while guard do body od` entered in
    /// this context: its own facts plus the guard's facts relaxed by the
    /// body's bounded per-iteration change, keeping those that hold on
    /// entry — the role played by the APRON-based numeric analysis in the
    /// paper's implementation.  The loop-head invariant is what a fixpoint
    /// of one iteration under the guard keeps of them (see [`Flow`]).
    pub fn loop_head_candidates(&self, guard: &Cond, body: &Stmt, program: &Program) -> Context {
        let mut candidates: Vec<LinearConstraint> = self.constraints.clone();
        // Relaxed guard facts: if an iteration can decrease a guard expression
        // g by at most δ, then g ≥ −δ holds at every loop head reached from a
        // state inside the loop; it must also hold initially to be invariant,
        // which the entry check below establishes.
        let steps = per_iteration_change(body, program);
        for g in conjuncts_of(guard) {
            let mut worst_decrease = 0.0f64;
            let mut bounded = true;
            for v in g.expr().vars() {
                let coeff = g.expr().coefficient(v);
                match steps.get(v) {
                    Some(Some(interval)) => {
                        let delta = if coeff >= 0.0 {
                            coeff * interval.lo()
                        } else {
                            coeff * interval.hi()
                        };
                        worst_decrease += delta.min(0.0);
                    }
                    Some(None) => {
                        bounded = false;
                        break;
                    }
                    None => {}
                }
            }
            if bounded {
                candidates.push(LinearConstraint::nonneg(
                    g.expr().add(&LinExpr::constant(-worst_decrease)),
                ));
            }
        }
        candidates.retain(|c| !c.is_trivial());
        candidates.dedup();
        // Keep only facts that hold on entry.
        candidates.retain(|c| self.entails(c));
        Context {
            constraints: candidates,
        }
    }
}

/// The contexts before and after every statement of one body, nested the
/// way the statements are.  The children of an `if` are its branches,
/// entered under the guard and under its negation; of a probabilistic
/// branch, its branches; of a `while`, its body, entered under the
/// loop-head invariant and the guard; of a sequence, its statements.
///
/// Each context is computed once and shared (`Rc`): a statement's `after`
/// is the next statement's `before`.  Contexts follow the statements (guards
/// add facts, assignments substitute or drop them, samples add support
/// bounds, calls havoc what the callee may transitively modify, branches
/// join), and a loop exits under its head invariant and the negated guard.
#[derive(Debug)]
pub struct Flow {
    before: Rc<Context>,
    after: Option<Rc<Context>>,
    children: Vec<Flow>,
}

impl Flow {
    /// The context before the statement.
    pub fn before(&self) -> &Context {
        &self.before
    }

    /// The context after the statement; `None` for a tail statement whose
    /// `after` nothing reads (see [`Context::flow`]).  Always computed for a
    /// call and a loop.
    pub fn after(&self) -> Option<&Context> {
        self.after.as_deref()
    }

    /// The flows of the statement's children, in order.
    pub fn children(&self) -> &[Flow] {
        &self.children
    }

    /// The flow of `stmt` entered in `before`; `tail` says nothing reads the
    /// context after `stmt`.
    fn walk(before: Rc<Context>, stmt: &Stmt, program: &Program, tail: bool) -> Flow {
        let updated = |update: &dyn Fn(&mut Context)| {
            let mut ctx = Context::clone(&before);
            update(&mut ctx);
            Some(Rc::new(ctx))
        };
        let (after, children) = match stmt.kind() {
            StmtKind::Assign(..) | StmtKind::Sample(..) if tail => (None, Vec::new()),
            StmtKind::Skip | StmtKind::Tick(_) => (Some(before.clone()), Vec::new()),
            StmtKind::Assign(x, e) => (updated(&|ctx| ctx.assign(x, e)), Vec::new()),
            StmtKind::Sample(x, d) => (updated(&|ctx| ctx.sample(x, d)), Vec::new()),
            StmtKind::Call(f) => {
                let callee_writes = program.transitively_modified(f);
                (updated(&|ctx| ctx.havoc(&callee_writes)), Vec::new())
            }
            StmtKind::If(c, s1, s2) => {
                let then = Flow::walk(Rc::new(before.and(c)), s1, program, tail);
                let other = Flow::walk(Rc::new(before.and(&c.negate())), s2, program, tail);
                (Flow::join(&then, &other, tail), vec![then, other])
            }
            StmtKind::IfProb(_, s1, s2) => {
                let a = Flow::walk(before.clone(), s1, program, tail);
                let b = Flow::walk(before.clone(), s2, program, tail);
                (Flow::join(&a, &b, tail), vec![a, b])
            }
            StmtKind::While(c, body) => {
                let (head, body) = Flow::loop_head(&before, c, body, program);
                (Some(Rc::new(head.and(&c.negate()))), vec![body])
            }
            StmtKind::Seq(stmts) => {
                let mut children: Vec<Flow> = Vec::with_capacity(stmts.len());
                for (i, s) in stmts.iter().enumerate() {
                    let entry = match children.last() {
                        Some(prev) => prev.after.clone().expect("only the tail has no after"),
                        None => before.clone(),
                    };
                    children.push(Flow::walk(entry, s, program, tail && i + 1 == stmts.len()));
                }
                let after = match children.last() {
                    Some(last) => last.after.clone(),
                    None => Some(before.clone()),
                };
                (after, children)
            }
        };
        Flow {
            before,
            after,
            children,
        }
    }

    /// The join of two branches' `after`s, unless nothing reads it.
    fn join(a: &Flow, b: &Flow, tail: bool) -> Option<Rc<Context>> {
        fn after(f: &Flow) -> &Context {
            f.after().expect("a branch outside the tail has an after")
        }
        (!tail).then(|| Rc::new(after(a).join(after(b))))
    }

    /// The loop-head invariant of `while guard do body od` entered in
    /// `entry`, and the flow of `body` from it: the candidate facts, filtered
    /// to those one iteration under the guard preserves, until a pass keeps
    /// them all.  That last pass walked the body from the invariant itself,
    /// so its walk is the body's flow.
    fn loop_head(entry: &Context, guard: &Cond, body: &Stmt, program: &Program) -> (Context, Flow) {
        let mut head = entry.loop_head_candidates(guard, body, program);
        loop {
            let body = Flow::walk(Rc::new(head.and(guard)), body, program, false);
            let n = head.len();
            head.retain_entailed_by(body.after().expect("a loop body is walked in full"));
            if head.len() == n {
                return (head, body);
            }
        }
    }
}

/// The per-iteration change of each variable modified by `body`, as an
/// interval when it is syntactically bounded (`x := x + c`, `x := x + noise`
/// with bounded-support noise), `None` when unbounded.
fn per_iteration_change(
    body: &Stmt,
    program: &Program,
) -> std::collections::BTreeMap<Var, Option<cma_semiring::Interval>> {
    use cma_semiring::Interval;
    // Support intervals of variables sampled within the body.
    let mut sampled: std::collections::BTreeMap<Var, Interval> = Default::default();
    body.walk(&mut |s| {
        if let StmtKind::Sample(x, d) = s.kind() {
            let (lo, hi) = d.support();
            if lo.is_finite() && hi.is_finite() {
                sampled.insert(x.clone(), Interval::new(lo, hi));
            }
        }
    });

    let mut changes: std::collections::BTreeMap<Var, Option<Interval>> = Default::default();
    accumulate_changes(body, program, &sampled, &mut changes);
    changes
}

fn accumulate_changes(
    stmt: &Stmt,
    program: &Program,
    sampled: &std::collections::BTreeMap<Var, cma_semiring::Interval>,
    out: &mut std::collections::BTreeMap<Var, Option<cma_semiring::Interval>>,
) {
    use cma_semiring::Interval;
    let mut record = |v: &Var, delta: Option<Interval>| {
        let entry = out
            .entry(v.clone())
            .or_insert_with(|| Some(Interval::point(0.0)));
        *entry = match (*entry, delta) {
            (Some(acc), Some(d)) => Some(acc.add(d).join(acc)),
            _ => None,
        };
    };
    match stmt.kind() {
        StmtKind::Assign(x, e) => {
            // delta = e - x must be a constant plus bounded sampled variables.
            let delta_poly = e
                .to_polynomial()
                .sub(&cma_semiring::poly::Polynomial::var(x.clone()));
            if delta_poly.degree() > 1 {
                record(x, None);
                return;
            }
            let mut interval = Interval::point(0.0);
            let mut bounded = true;
            for (m, c) in delta_poly.terms() {
                if m.is_unit() {
                    interval = interval.add(Interval::point(c));
                } else {
                    let v = m.vars().next().expect("degree-1 monomial");
                    match sampled.get(v) {
                        Some(range) => interval = interval.add(range.scale(c)),
                        None => {
                            bounded = false;
                            break;
                        }
                    }
                }
            }
            record(x, if bounded { Some(interval) } else { None });
        }
        StmtKind::Sample(x, _) => {
            // The absolute change of a freshly sampled variable is unbounded in
            // general (it depends on the previous value).
            record(x, None);
        }
        StmtKind::Call(f) => {
            for v in program.transitively_modified(f) {
                record(&v, None);
            }
        }
        StmtKind::If(_, a, b) | StmtKind::IfProb(_, a, b) => {
            accumulate_changes(a, program, sampled, out);
            accumulate_changes(b, program, sampled, out);
        }
        StmtKind::While(_, s) => {
            // Nested loops can iterate arbitrarily often.
            for v in s.modified_vars() {
                record(&v, None);
            }
        }
        StmtKind::Seq(ss) => {
            for s in ss {
                accumulate_changes(s, program, sampled, out);
            }
        }
        StmtKind::Skip | StmtKind::Tick(_) => {}
    }
}

impl std::fmt::Display for Context {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.constraints.is_empty() {
            return write!(f, "true");
        }
        for (i, c) in self.constraints.iter().enumerate() {
            if i > 0 {
                write!(f, " /\\ ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cma_appl::build::*;
    use proptest::test_runner::TestRng;

    fn x() -> Var {
        Var::new("x")
    }
    fn d() -> Var {
        Var::new("d")
    }

    fn empty_program() -> Program {
        ProgramBuilder::new().build().unwrap()
    }

    #[test]
    fn assume_and_holds() {
        let mut ctx = Context::top();
        assert!(ctx.is_empty());
        ctx.assume(&lt(v("x"), v("d")));
        ctx.assume(&ge(v("x"), cst(0.0)));
        assert_eq!(ctx.len(), 2);
        assert!(ctx.holds(&|var| if *var == x() { 1.0 } else { 2.0 }));
        assert!(!ctx.holds(&|var| if *var == x() { -1.0 } else { 2.0 }));
        // Duplicate facts are not added twice.
        ctx.assume(&lt(v("x"), v("d")));
        assert_eq!(ctx.len(), 2);
    }

    #[test]
    fn invertible_assignment_rewrites_facts() {
        // Γ = {d - x >= 0}; after x := x + t the fact becomes d - x + t >= 0.
        let mut ctx = Context::top();
        ctx.assume(&le(v("x"), v("d")));
        ctx.assign(&x(), &add(v("x"), v("t")));
        assert_eq!(ctx.len(), 1);
        let c = &ctx.constraints()[0];
        assert_eq!(c.expr().coefficient(&x()), -1.0);
        assert_eq!(c.expr().coefficient(&Var::new("t")), 1.0);
        assert_eq!(c.expr().coefficient(&d()), 1.0);
    }

    #[test]
    fn non_self_referential_assignment_adds_equality() {
        let mut ctx = Context::top();
        ctx.assume(&le(v("x"), cst(5.0)));
        ctx.assign(&x(), &cst(0.0));
        // Old fact dropped; x = 0 recorded as two inequalities.
        assert_eq!(ctx.len(), 2);
        assert!(ctx.holds(&|_| 0.0));
        assert!(!ctx.holds(&|_| 1.0));
    }

    #[test]
    fn nonlinear_assignment_havocs() {
        let mut ctx = Context::top();
        ctx.assume(&le(v("x"), cst(5.0)));
        ctx.assume(&le(v("y"), cst(2.0)));
        ctx.assign(&x(), &mul(v("x"), v("x")));
        assert_eq!(ctx.len(), 1);
        assert!(!ctx.constraints()[0].mentions(&x()));
    }

    #[test]
    fn sampling_adds_support_bounds() {
        let mut ctx = Context::top();
        ctx.assume(&le(v("t"), cst(100.0)));
        ctx.sample(&Var::new("t"), &Dist::Uniform(-1.0, 2.0));
        assert_eq!(ctx.len(), 2);
        assert!(ctx.holds(&|_| 0.0));
        assert!(!ctx.holds(&|_| 3.0));
    }

    #[test]
    fn join_keeps_common_facts() {
        let mut a = Context::top();
        a.assume(&ge(v("x"), cst(0.0)));
        a.assume(&le(v("x"), cst(5.0)));
        let mut b = Context::top();
        b.assume(&ge(v("x"), cst(0.0)));
        let j = a.join(&b);
        assert_eq!(j.len(), 1);
    }

    #[test]
    fn certificate_products_include_constant_and_pairs() {
        let mut ctx = Context::top();
        ctx.assume(&ge(v("x"), cst(0.0)));
        ctx.assume(&le(v("x"), v("d")));
        let products = ctx.certificate_products(2);
        // 1, x, d-x, x², x(d-x), (d-x)² — six distinct products.
        assert_eq!(products.len(), 6);
        assert!(products.contains(&Polynomial::constant(1.0)));
        // Degree-1 request excludes the quadratic products.
        assert_eq!(ctx.certificate_products(1).len(), 3);
    }

    #[test]
    fn after_stmt_threads_contexts_through_control_flow() {
        let program = ProgramBuilder::new()
            .function("f", assign("x", cst(0.0)))
            .main(skip())
            .build()
            .unwrap();
        let mut ctx = Context::top();
        ctx.assume(&ge(v("d"), cst(1.0)));
        ctx.assume(&ge(v("x"), cst(0.0)));
        // The context after `stmt` is the one before the statement after it.
        let after = |stmt: Stmt, program: &Program| {
            let flow = ctx.clone().flow(&seq([stmt, skip()]), program);
            flow.children()[1].before().clone()
        };

        // A call havocs variables the callee modifies.
        let after_call = after(call("f"), &program);
        assert_eq!(after_call.len(), 1);

        // A sequence of assignments updates facts.
        let after_seq = after(seq([assign("x", add(v("x"), cst(1.0)))]), &program);
        assert!(after_seq.holds(&|_| 1.0));

        // A conditional joins branch facts; here both branches keep d >= 1.
        let branchy = if_then_else(lt(v("x"), cst(3.0)), assign("x", cst(1.0)), skip());
        let after_if = after(branchy, &program);
        assert!(after_if.constraints().iter().any(|c| c.mentions(&d())));

        // A loop havocs modified variables and adds the negated guard.
        let loop_stmt = while_loop(lt(v("x"), v("d")), assign("x", add(v("x"), cst(1.0))));
        let after_loop = after(loop_stmt, &empty_program());
        assert!(after_loop
            .constraints()
            .iter()
            .any(|c| c.expr().coefficient(&x()) == 1.0 && c.expr().coefficient(&d()) == -1.0));
    }

    #[test]
    fn flow_shares_one_context_between_neighbours() {
        let body = seq([
            assign("x", cst(0.0)),
            tick(1.0),
            while_loop(lt(v("x"), v("n")), assign("x", add(v("x"), cst(1.0)))),
            skip(),
        ]);
        let flow = Context::top().flow(&body, &empty_program());
        // A statement's after is the next statement's before, not a copy.
        for pair in flow.children().windows(2) {
            assert!(Rc::ptr_eq(pair[0].after.as_ref().unwrap(), &pair[1].before));
        }
    }

    /// A random fact `Σ aᵢ·vᵢ + b ≥ 0` over the first `nvars` of x, y, z, w,
    /// with small integer coefficients.
    fn random_fact(rng: &mut TestRng, nvars: usize) -> LinearConstraint {
        let mut e = LinExpr::constant(rng.below(7) as f64 - 3.0);
        for name in ["x", "y", "z", "w"].into_iter().take(nvars) {
            let a = rng.below(5) as f64 - 2.0;
            e = e.add(&LinExpr::var(Var::new(name)).scale(a));
        }
        LinearConstraint::nonneg(e)
    }

    #[test]
    fn stated_facts_skip_the_lp_with_its_verdicts() {
        let mut rng = TestRng::deterministic("stated_facts_skip_the_lp_with_its_verdicts");
        let (mut infeasible, mut unstated_true, mut unstated_false) = (0, 0, 0);
        for _ in 0..200 {
            let nvars = 2 + rng.below(3) as usize;
            let mut ctx = Context::top();
            let len = 1 + rng.below(6) as usize;
            while ctx.len() < len {
                ctx.add_constraint(random_fact(&mut rng, nvars));
            }
            if rng.below(4) == 0 {
                // Plant a contradiction: x ≥ 1 and x ≤ 0.
                ctx.add_constraint(LinearConstraint::nonneg(
                    LinExpr::var(x()).sub(&LinExpr::constant(1.0)),
                ));
                ctx.add_constraint(LinearConstraint::nonneg(LinExpr::var(x()).scale(-1.0)));
            }
            let unsat = !ctx.entails_by_lp(&LinearConstraint::nonneg(LinExpr::constant(-1.0)));
            infeasible += usize::from(unsat);
            for fact in ctx.constraints() {
                assert!(ctx.entails(fact), "{ctx} does not entail its own {fact}");
                assert!(ctx.entails_by_lp(fact), "the LP rejects {fact} of {ctx}");
            }
            // Unstated goals: random facts, and sums and scalings of stated
            // ones (entailed, but never equal to a stated fact).
            let facts = ctx.constraints();
            let mut goals: Vec<LinearConstraint> =
                (0..4).map(|_| random_fact(&mut rng, nvars)).collect();
            goals.push(LinearConstraint::nonneg(facts[0].expr().scale(2.0)));
            goals.push(LinearConstraint::nonneg(
                facts[0].expr().add(facts[facts.len() - 1].expr()),
            ));
            for goal in goals {
                if goal.is_trivial() || facts.contains(&goal) {
                    continue;
                }
                let by_lp = ctx.entails_by_lp(&goal);
                assert_eq!(ctx.entails(&goal), by_lp, "{ctx} ⊢ {goal}");
                unstated_true += usize::from(by_lp);
                unstated_false += usize::from(!by_lp);
            }
        }
        // The draw covers infeasible contexts and both verdicts.
        assert!(infeasible > 20, "{infeasible} infeasible contexts");
        assert!(
            unstated_true > 50 && unstated_false > 50,
            "{unstated_true}/{unstated_false}"
        );
    }

    #[test]
    fn display_renders_conjunction() {
        let ctx = Context::from_conditions(&[ge(v("x"), cst(0.0)), le(v("x"), cst(2.0))]);
        let s = ctx.to_string();
        assert!(s.contains(">= 0"));
        assert!(s.contains("/\\"));
        assert_eq!(Context::top().to_string(), "true");
    }
}
