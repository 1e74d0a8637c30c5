//! [`Context::flow`] against a test-local copy of the walker the derivation
//! used before it, which recomputed the context after a statement from the
//! context before it, subtree and loop fixpoints included, wherever one was
//! read.  Every node's `before` and `after` must come out bit-identical, in
//! every function body and `main` of every suite benchmark and of every
//! `examples/*.appl`.

use std::path::Path;

use cma_appl::{parse_program, Cond, Program, Stmt, StmtKind};
use cma_logic::{Context, Flow};

/// The context after `stmt` entered in `ctx`, the old way.
fn old_after(ctx: &Context, stmt: &Stmt, program: &Program) -> Context {
    match stmt.kind() {
        StmtKind::Skip | StmtKind::Tick(_) => ctx.clone(),
        StmtKind::Assign(x, e) => {
            let mut ctx = ctx.clone();
            ctx.assign(x, e);
            ctx
        }
        StmtKind::Sample(x, d) => {
            let mut ctx = ctx.clone();
            ctx.sample(x, d);
            ctx
        }
        StmtKind::Call(f) => {
            let mut ctx = ctx.clone();
            ctx.havoc(&program.transitively_modified(f));
            ctx
        }
        StmtKind::If(c, s1, s2) => {
            let then_ctx = old_after(&ctx.and(c), s1, program);
            let else_ctx = old_after(&ctx.and(&c.negate()), s2, program);
            then_ctx.join(&else_ctx)
        }
        StmtKind::IfProb(_, s1, s2) => {
            old_after(ctx, s1, program).join(&old_after(ctx, s2, program))
        }
        StmtKind::While(c, body) => old_loop_head(ctx, c, body, program).and(&c.negate()),
        StmtKind::Seq(stmts) => stmts
            .iter()
            .fold(ctx.clone(), |ctx, s| old_after(&ctx, s, program)),
    }
}

/// The loop-head invariant, the old way: the candidates, filtered until one
/// iteration under the guard preserves them all.
fn old_loop_head(ctx: &Context, guard: &Cond, body: &Stmt, program: &Program) -> Context {
    let mut head = ctx.loop_head_candidates(guard, body, program);
    loop {
        let after = old_after(&head.and(guard), body, program);
        let n = head.len();
        head.retain_entailed_by(&after);
        if head.len() == n {
            return head;
        }
    }
}

/// Bit for bit: `Debug` prints every coefficient in its shortest
/// round-trip form, so two renderings agree exactly when the values do.
fn assert_same(actual: &Context, expected: &Context, at: &str, what: &str) {
    assert_eq!(
        format!("{actual:?}"),
        format!("{expected:?}"),
        "{at}: {what} differs"
    );
}

/// Walks a flow against the old walker, counting what it visited.
struct Checker<'a> {
    program: &'a Program,
    nodes: usize,
    loops: usize,
    tails: usize,
}

impl Checker<'_> {
    /// Checks `flow`, the flow of `stmt` entered in `before`, node by node;
    /// `tail` says nothing reads the context after `stmt`, so an
    /// assignment, sample or branch join there must be left uncomputed.
    fn check(&mut self, flow: &Flow, stmt: &Stmt, before: &Context, tail: bool, at: &str) {
        self.nodes += 1;
        assert_same(flow.before(), before, at, "before");
        let skippable = matches!(
            stmt.kind(),
            StmtKind::Assign(..) | StmtKind::Sample(..) | StmtKind::If(..) | StmtKind::IfProb(..)
        );
        match flow.after() {
            Some(after) => {
                assert!(!(tail && skippable), "{at}: a tail after was computed");
                assert_same(after, &old_after(before, stmt, self.program), at, "after");
            }
            None => {
                let seq = matches!(stmt.kind(), StmtKind::Seq(_));
                assert!(tail && (skippable || seq), "{at}: after missing");
                self.tails += 1;
            }
        }
        let children = flow.children();
        match stmt.kind() {
            StmtKind::If(c, s1, s2) => {
                self.check(
                    &children[0],
                    s1,
                    &before.and(c),
                    tail,
                    &format!("{at}.then"),
                );
                let else_ctx = before.and(&c.negate());
                self.check(&children[1], s2, &else_ctx, tail, &format!("{at}.else"));
            }
            StmtKind::IfProb(_, s1, s2) => {
                self.check(&children[0], s1, before, tail, &format!("{at}.a"));
                self.check(&children[1], s2, before, tail, &format!("{at}.b"));
            }
            StmtKind::While(c, body) => {
                self.loops += 1;
                let body_ctx = old_loop_head(before, c, body, self.program).and(c);
                self.check(&children[0], body, &body_ctx, false, &format!("{at}.body"));
            }
            StmtKind::Seq(stmts) => {
                assert_eq!(children.len(), stmts.len(), "{at}: one child per statement");
                let mut ctx = before.clone();
                for (i, (s, f)) in stmts.iter().zip(children).enumerate() {
                    let last = i + 1 == stmts.len();
                    self.check(f, s, &ctx, tail && last, &format!("{at}.{i}"));
                    if !last {
                        ctx = old_after(&ctx, s, self.program);
                    }
                }
            }
            _ => assert!(children.is_empty(), "{at}: a leaf has no children"),
        }
    }
}

/// Every suite benchmark and every shipped example program.
fn programs() -> Vec<(String, Program)> {
    let mut out: Vec<(String, Program)> = cma_suite::all_benchmarks()
        .into_iter()
        .map(|benchmark| (benchmark.qualified_name(), benchmark.program))
        .collect();
    let examples = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut sources: Vec<_> = std::fs::read_dir(&examples)
        .expect("the examples directory")
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "appl"))
        .collect();
    sources.sort();
    assert!(sources.len() >= 2, "no examples found in {examples:?}");
    for path in sources {
        let source = std::fs::read_to_string(&path).expect("a readable example");
        let program = parse_program(&source).expect("the shipped examples parse");
        out.push((path.display().to_string(), program));
    }
    out
}

#[test]
fn flow_equals_the_old_walker_on_every_shipped_program() {
    let (mut nodes, mut loops, mut tails) = (0, 0, 0);
    for (name, program) in programs() {
        let mut checker = Checker {
            program: &program,
            nodes: 0,
            loops: 0,
            tails: 0,
        };
        for function in program.functions() {
            let entry = Context::from_conditions(function.precondition());
            let flow = entry.clone().flow(function.body(), &program);
            let at = format!("{name}: {}", function.name());
            checker.check(&flow, function.body(), &entry, true, &at);
        }
        let entry = Context::from_conditions(program.precondition());
        let flow = entry.clone().flow(program.main(), &program);
        checker.check(
            &flow,
            program.main(),
            &entry,
            true,
            &format!("{name}: main"),
        );
        nodes += checker.nodes;
        loops += checker.loops;
        tails += checker.tails;
    }
    // The suite and the examples hold 388 statements, 37 loops and 33
    // uncomputed tails.
    assert!(
        nodes > 350 && loops > 30 && tails > 30,
        "{nodes} statements, {loops} loops, {tails} uncomputed tails"
    );
}
