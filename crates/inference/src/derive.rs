//! The backward annotation transformer implementing the syntax-directed
//! derivation rules of Fig. 6 / Fig. 14.
//!
//! Given a statement, its [`Flow`] (the logical contexts before and after it
//! and every statement inside it), and the annotation bounding the moments of
//! the cost of the computation *after* it, [`transform`] produces an
//! annotation bounding the moments of the whole computation, emitting LP
//! constraints along the way (fresh templates at joins and loop heads,
//! weakening certificates, call-site requirements).  Annotations flow
//! backward; the contexts were computed forward once, by
//! [`Context::flow`](cma_logic::Context::flow), and the transformer only
//! reads them.
//!
//! What the walk charges is its [`CostModel`]: the program's `tick`s, or
//! one unit per evaluation step, which bounds the moments of the stopping
//! time for Theorem 4.4.  Neither changes a context, so both walk the same
//! flow and mint the same templates and containments.
//!
//! The walk is deterministic: at a given restriction level it visits the
//! same template slots and containments in the same order at every moment
//! degree, which is all the builder's
//! [`DerivationPlan`](crate::plan::DerivationPlan) needs to replay it.

use cma_appl::ast::{Stmt, StmtKind};
use cma_appl::{BranchFact, RangeFacts};
use cma_logic::Flow;
use cma_semiring::poly::Var;

use crate::builder::ConstraintBuilder;
use crate::spec::SpecTable;
use crate::template::SymMoment;
use crate::weaken::require_contains;

/// Errors raised during constraint generation.
#[derive(Debug, Clone, PartialEq)]
pub enum DeriveError {
    /// No specification is available for a called function at some level.
    MissingSpec(String, usize),
}

impl std::fmt::Display for DeriveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeriveError::MissingSpec(name, level) => {
                write!(f, "no specification for function `{name}` at level {level}")
            }
        }
    }
}

impl std::error::Error for DeriveError {}

/// The cost a derivation bounds the moments of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostModel {
    /// The program's own `tick`s: the accumulated cost `C`.
    Ticks,
    /// One unit per evaluation step: the stopping time `T` of Theorem 4.4's
    /// side condition (i), over-approximating the steps of the Markov-chain
    /// semantics.  Every statement but a sequence costs one step on entry
    /// (a `tick(c)` one step in place of `c`; a pruned `if` or a
    /// never-entered loop its one step too), and every loop iteration one
    /// more.
    Steps,
}

/// Static information threaded through a derivation.
pub struct DeriveCtx<'a> {
    /// Specifications available for function calls.
    pub specs: &'a SpecTable,
    /// Target moment degree `m`.
    pub degree: usize,
    /// Base polynomial degree `d` (the `k`-th component uses degree `k·d`).
    pub poly_degree: u32,
    /// Variables over which fresh templates range.
    pub template_vars: Vec<Var>,
    /// Restriction level `h` of the current derivation.
    pub level: usize,
    /// What the walk charges.
    pub cost: CostModel,
    /// Checker-exported range facts (refuted branches, never-entered loops)
    /// keyed by source span; `None` disables pruning.
    pub facts: Option<&'a RangeFacts>,
    /// `if` statements whose refuted side this walk skipped.
    pub pruned_branches: std::cell::Cell<usize>,
    /// `while` loops this walk replaced by their continuation because the
    /// guard is refuted on entry.
    pub pruned_loops: std::cell::Cell<usize>,
}

impl<'a> DeriveCtx<'a> {
    /// A derivation context for one unit (function body at a level, or main).
    pub fn for_unit(
        specs: &'a SpecTable,
        degree: usize,
        poly_degree: u32,
        template_vars: Vec<Var>,
        level: usize,
        cost: CostModel,
    ) -> Self {
        DeriveCtx {
            specs,
            degree,
            poly_degree,
            template_vars,
            level,
            cost,
            facts: None,
            pruned_branches: std::cell::Cell::new(0),
            pruned_loops: std::cell::Cell::new(0),
        }
    }

    /// Attaches checker-exported facts: the walk then derives only the live
    /// side of statically-refuted `if`s and drops never-entered loops.
    pub fn with_facts(mut self, facts: Option<&'a RangeFacts>) -> Self {
        self.facts = facts;
        self
    }

    /// `annotation` behind one evaluation step: unchanged under
    /// [`CostModel::Ticks`], which charges no steps.
    fn step(&self, annotation: SymMoment) -> SymMoment {
        match self.cost {
            CostModel::Ticks => annotation,
            CostModel::Steps => annotation.prepend_cost(1.0),
        }
    }

    fn refuted_at(&self, stmt: &Stmt) -> Option<BranchFact> {
        self.facts.and_then(|f| f.refuted_at(stmt.span()))
    }

    fn spec_pair(&self, name: &str) -> Result<(SymMoment, SymMoment), DeriveError> {
        let h = self.level;
        let base = self
            .specs
            .get(name, h)
            .ok_or_else(|| DeriveError::MissingSpec(name.to_string(), h))?;
        if h < self.degree {
            let frame = self
                .specs
                .get(name, h + 1)
                .ok_or_else(|| DeriveError::MissingSpec(name.to_string(), h + 1))?;
            Ok((base.pre.combine(&frame.pre), base.post.combine(&frame.post)))
        } else {
            Ok((base.pre.clone(), base.post.clone()))
        }
    }
}

/// Transforms the post-annotation of `stmt` into a pre-annotation, emitting
/// constraints into `builder`; `flow` is the flow of `stmt`.
///
/// # Errors
///
/// Returns [`DeriveError::MissingSpec`] when a call has no registered
/// specification at the required level.
pub fn transform(
    builder: &mut ConstraintBuilder,
    dctx: &DeriveCtx<'_>,
    stmt: &Stmt,
    flow: &Flow,
    post: SymMoment,
) -> Result<SymMoment, DeriveError> {
    let pre = match stmt.kind() {
        StmtKind::Tick(c) if dctx.cost == CostModel::Ticks => post.prepend_cost(*c),
        StmtKind::Skip | StmtKind::Tick(_) => post,
        StmtKind::Assign(x, e) => post.substitute(x, &e.to_polynomial()),
        StmtKind::Sample(x, dist) => {
            let max_power = post.max_power(x);
            let moments: Vec<f64> = (0..=max_power).map(|j| dist.raw_moment(j)).collect();
            post.expect_over(x, &moments)
        }
        StmtKind::Call(name) => {
            // Q-Call-Poly / Q-Call-Mono: the pre-annotation is the (framed)
            // specification's pre; the specification's post must cover the
            // annotation required by the continuation after the call.
            let (pre, spec_post) = dctx.spec_pair(name)?;
            require_contains(
                builder,
                flow.after().expect("a call's after is always computed"),
                &spec_post,
                &post,
                dctx.poly_degree,
                dctx.level,
            );
            pre
        }
        StmtKind::If(_, s1, s2) => {
            // A branch the checker refuted is never executed: derive only
            // the live side, under the context the refutation implies, and
            // skip the join template and both containment rows entirely.
            // Entering the `if` is still a step.
            let (then_flow, else_flow) = (&flow.children()[0], &flow.children()[1]);
            match dctx.refuted_at(stmt) {
                Some(BranchFact::ThenUnreachable) => {
                    dctx.pruned_branches.set(dctx.pruned_branches.get() + 1);
                    return Ok(dctx.step(transform(builder, dctx, s2, else_flow, post)?));
                }
                Some(BranchFact::ElseUnreachable) => {
                    dctx.pruned_branches.set(dctx.pruned_branches.get() + 1);
                    return Ok(dctx.step(transform(builder, dctx, s1, then_flow, post)?));
                }
                _ => {}
            }
            // Q-Cond + Q-Weaken: analyze both branches, then take a fresh
            // annotation containing both branch pre-annotations.
            let pre_then = transform(builder, dctx, s1, then_flow, post.clone())?;
            let pre_else = transform(builder, dctx, s2, else_flow, post)?;
            let joined = builder.planned_moment(
                &dctx.template_vars,
                dctx.degree,
                dctx.poly_degree,
                dctx.level,
            );
            require_contains(
                builder,
                then_flow.before(),
                &joined,
                &pre_then,
                dctx.poly_degree,
                dctx.level,
            );
            require_contains(
                builder,
                else_flow.before(),
                &joined,
                &pre_else,
                dctx.poly_degree,
                dctx.level,
            );
            joined
        }
        StmtKind::IfProb(p, s1, s2) => {
            // Q-Prob: the pre-annotation is the probability-weighted ⊕ of the
            // two branch pre-annotations.
            let pre_then = transform(builder, dctx, s1, &flow.children()[0], post.clone())?;
            let pre_else = transform(builder, dctx, s2, &flow.children()[1], post)?;
            pre_then
                .scale_probability(*p)
                .combine(&pre_else.scale_probability(1.0 - *p))
        }
        StmtKind::While(_, body) => {
            // A loop whose guard the checker refuted on entry exits
            // immediately, after its entry step: no invariant template, no
            // body or exit rows.
            if dctx.refuted_at(stmt) == Some(BranchFact::LoopNeverEntered) {
                dctx.pruned_loops.set(dctx.pruned_loops.get() + 1);
                return Ok(dctx.step(post));
            }
            // Q-Loop: a fresh invariant annotation that (i) is preserved by
            // the body under the guard and (ii) covers the continuation when
            // the guard fails.
            let invariant = builder.planned_moment(
                &dctx.template_vars,
                dctx.degree,
                dctx.poly_degree,
                dctx.level,
            );
            // The body is entered under the loop-head invariant and the
            // guard, one more step per iteration; the loop exits under the
            // invariant and the negation.
            let body_flow = &flow.children()[0];
            let body_pre = transform(builder, dctx, body, body_flow, invariant.clone())?;
            require_contains(
                builder,
                body_flow.before(),
                &invariant,
                &dctx.step(body_pre),
                dctx.poly_degree,
                dctx.level,
            );
            require_contains(
                builder,
                flow.after().expect("a loop's after is always computed"),
                &invariant,
                &post,
                dctx.poly_degree,
                dctx.level,
            );
            invariant
        }
        StmtKind::Seq(stmts) => {
            // A sequence is no step of its own.
            let mut annotation = post;
            for (s, f) in stmts.iter().zip(flow.children()).rev() {
                annotation = transform(builder, dctx, s, f, annotation)?;
            }
            return Ok(annotation);
        }
    };
    // Entering any other statement is one evaluation step.
    Ok(dctx.step(pre))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cma_appl::build::*;
    use cma_appl::Program;
    use cma_logic::Context;
    use cma_semiring::poly::{Monomial, Polynomial};

    fn dctx<'a>(program: &Program, specs: &'a SpecTable, m: usize) -> DeriveCtx<'a> {
        DeriveCtx::for_unit(specs, m, 1, program.vars(), 0, CostModel::Ticks)
    }

    fn empty_program() -> Program {
        ProgramBuilder::new().main(skip()).build().unwrap()
    }

    fn resolve_constant(q: &SymMoment, k: usize) -> (f64, f64) {
        let lo = q.component(k).lo.resolve(&|_| 0.0);
        let hi = q.component(k).hi.resolve(&|_| 0.0);
        (
            lo.as_constant().unwrap_or(f64::NAN),
            hi.as_constant().unwrap_or(f64::NAN),
        )
    }

    #[test]
    fn tick_accumulates_binomially() {
        let program = empty_program();
        let specs = SpecTable::new();
        let mut b = ConstraintBuilder::new();
        let d = dctx(&program, &specs, 2);
        let stmt = seq([tick(1.0), tick(2.0)]);
        let f = Context::top().flow(&stmt, &program);
        let pre = transform(&mut b, &d, &stmt, &f, SymMoment::one(2)).unwrap();
        // Total cost 3 deterministically: moments 1, 3, 9.
        assert_eq!(resolve_constant(&pre, 0), (1.0, 1.0));
        assert_eq!(resolve_constant(&pre, 1), (3.0, 3.0));
        assert_eq!(resolve_constant(&pre, 2), (9.0, 9.0));
    }

    #[test]
    fn probabilistic_branch_mixes_moments() {
        // cost 2 with prob 0.5, cost 4 otherwise: E = 3, E[C²] = 10.
        let program = empty_program();
        let specs = SpecTable::new();
        let mut b = ConstraintBuilder::new();
        let d = dctx(&program, &specs, 2);
        let stmt = if_prob(0.5, tick(2.0), tick(4.0));
        let f = Context::top().flow(&stmt, &program);
        let pre = transform(&mut b, &d, &stmt, &f, SymMoment::one(2)).unwrap();
        assert_eq!(resolve_constant(&pre, 0), (1.0, 1.0));
        assert_eq!(resolve_constant(&pre, 1), (3.0, 3.0));
        assert_eq!(resolve_constant(&pre, 2), (10.0, 10.0));
    }

    #[test]
    fn sampling_then_branching_uses_distribution_moments() {
        // t ~ uniform(-1, 2); cost = t via assignment is not expressible with
        // tick, so check the annotation arithmetic directly:
        // post second component x², assignment x := x + t, sampling t.
        let program = empty_program();
        let specs = SpecTable::new();
        let mut b = ConstraintBuilder::new();
        let d = dctx(&program, &specs, 2);
        let x = Var::new("x");
        let post = SymMoment::from_components(vec![
            crate::template::SymInterval::point(1.0),
            crate::template::SymInterval::point_poly(&Polynomial::var(x.clone())),
            crate::template::SymInterval::point_poly(&Polynomial::var(x.clone()).pow(2)),
        ]);
        let stmt = seq([
            sample("t", uniform(-1.0, 2.0)),
            assign("x", add(v("x"), v("t"))),
        ]);
        let f = Context::top().flow(&stmt, &program);
        let pre = transform(&mut b, &d, &stmt, &f, post).unwrap();
        // E[(x+t)²] = x² + x + 1 with E[t]=1/2, E[t²]=1.
        let hi2 = pre.component(2).hi.resolve(&|_| 0.0);
        assert_eq!(hi2.coefficient(&Monomial::var_pow(x.clone(), 2)), 1.0);
        assert_eq!(hi2.coefficient(&Monomial::var(x.clone())), 1.0);
        assert_eq!(hi2.coefficient(&Monomial::unit()), 1.0);
        // First component: x + 1/2.
        let hi1 = pre.component(1).hi.resolve(&|_| 0.0);
        assert_eq!(hi1.coefficient(&Monomial::unit()), 0.5);
    }

    #[test]
    fn missing_spec_is_reported() {
        let program = ProgramBuilder::new()
            .function("f", tick(1.0))
            .main(call("f"))
            .build()
            .unwrap();
        let specs = SpecTable::new();
        let mut b = ConstraintBuilder::new();
        let d = dctx(&program, &specs, 1);
        let f = Context::top().flow(program.main(), &program);
        let err = transform(&mut b, &d, program.main(), &f, SymMoment::one(1)).unwrap_err();
        assert_eq!(err, DeriveError::MissingSpec("f".into(), 0));
        assert!(err.to_string().contains('f'));
    }

    #[test]
    fn conditional_join_produces_sound_bounds_after_solving() {
        // if x <= 0 then tick(1) else tick(5): bounds must contain [1, 5].
        let program = empty_program();
        let specs = SpecTable::new();
        let mut b = ConstraintBuilder::new();
        let d = DeriveCtx::for_unit(&specs, 1, 1, vec![Var::new("x")], 0, CostModel::Ticks);
        let stmt = if_then_else(le(v("x"), cst(0.0)), tick(1.0), tick(5.0));
        let f = Context::top().flow(&stmt, &program);
        let pre = transform(&mut b, &d, &stmt, &f, SymMoment::one(1)).unwrap();
        // Minimize the width of the first component at x = 0 and x = 3.
        for val in [0.0, 3.0] {
            b.add_objective(&pre.component(1).hi.eval_vars(&|_| val), 1.0);
            b.add_objective(&pre.component(1).lo.eval_vars(&|_| val), -1.0);
        }
        let sol = b.solve();
        assert!(sol.is_optimal());
        let hi = pre.component(1).hi.resolve(&|v| sol.value(v));
        let lo = pre.component(1).lo.resolve(&|v| sol.value(v));
        for x_val in [-2.0, 0.0, 1.0, 4.0] {
            assert!(hi.eval(&|_| x_val) >= 5.0 - 1e-5 || x_val <= 0.0);
            assert!(hi.eval(&|_| x_val) >= 1.0 - 1e-5);
            assert!(lo.eval(&|_| x_val) <= 1.0 + 1e-5 || x_val > 0.0);
            assert!(lo.eval(&|_| x_val) <= 5.0 + 1e-5);
        }
    }

    #[test]
    fn loop_invariant_bounds_a_deterministic_loop() {
        // while 1 <= n do tick(1); n := n - 1 od  with n >= 0: cost is exactly n.
        let program = empty_program();
        let specs = SpecTable::new();
        let mut b = ConstraintBuilder::new();
        let n = Var::new("n");
        let d = DeriveCtx::for_unit(&specs, 1, 1, vec![n.clone()], 0, CostModel::Ticks);
        let stmt = while_loop(
            le(cst(1.0), v("n")),
            seq([tick(1.0), assign("n", sub(v("n"), cst(1.0)))]),
        );
        let ctx = Context::from_conditions(&[ge(v("n"), cst(0.0))]);
        let f = ctx.flow(&stmt, &program);
        let pre = transform(&mut b, &d, &stmt, &f, SymMoment::one(1)).unwrap();
        b.add_objective(&pre.component(1).hi.eval_vars(&|_| 10.0), 1.0);
        b.add_objective(&pre.component(1).lo.eval_vars(&|_| 10.0), -1.0);
        let sol = b.solve();
        assert!(sol.is_optimal());
        let hi = pre.component(1).hi.resolve(&|v| sol.value(v));
        let lo = pre.component(1).lo.resolve(&|v| sol.value(v));
        // At n = 10 the true cost is 10; bounds must bracket it and, thanks to
        // the objective, tightly so.
        assert!(hi.eval(&|_| 10.0) >= 10.0 - 1e-4);
        assert!(hi.eval(&|_| 10.0) <= 10.0 + 1e-3);
        assert!(lo.eval(&|_| 10.0) <= 10.0 + 1e-4);
    }
}
