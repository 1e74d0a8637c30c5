//! Abstract syntax of Appl (Fig. 5 of the paper).
//!
//! Statements `S`, conditions `L`, and expressions `E` follow the grammar
//!
//! ```text
//! S ::= skip | tick(c) | x := E | x ~ D | call f | while L do S od
//!     | if prob(p) then S1 else S2 fi | if L then S1 else S2 fi | S1; S2
//! L ::= true | not L | L1 and L2 | E1 <= E2
//! E ::= x | c | E1 + E2 | E1 * E2
//! ```
//!
//! with a handful of conveniences (subtraction, strict/flipped comparisons)
//! that are pure syntactic sugar over the paper's grammar.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use cma_semiring::poly::{Polynomial, Var};

use crate::dist::Dist;
use crate::span::Span;

/// Arithmetic expressions over program variables.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A program variable.
    Var(Var),
    /// A real constant.
    Const(f64),
    /// Addition `E1 + E2`.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction `E1 - E2` (sugar for `E1 + (-1)·E2`).
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication `E1 × E2`.
    Mul(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Converts the expression into a polynomial over program variables.
    pub fn to_polynomial(&self) -> Polynomial {
        match self {
            Expr::Var(v) => Polynomial::var(v.clone()),
            Expr::Const(c) => Polynomial::constant(*c),
            Expr::Add(a, b) => a.to_polynomial().add(&b.to_polynomial()),
            Expr::Sub(a, b) => a.to_polynomial().sub(&b.to_polynomial()),
            Expr::Mul(a, b) => a.to_polynomial().mul(&b.to_polynomial()),
        }
    }

    /// Variables mentioned in the expression.
    pub fn vars(&self) -> BTreeSet<Var> {
        let mut set = BTreeSet::new();
        self.collect_vars(&mut set);
        set
    }

    fn collect_vars(&self, set: &mut BTreeSet<Var>) {
        match self {
            Expr::Var(v) => {
                set.insert(v.clone());
            }
            Expr::Const(_) => {}
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                a.collect_vars(set);
                b.collect_vars(set);
            }
        }
    }

    /// Evaluates the expression under a valuation.
    pub fn eval(&self, valuation: &dyn Fn(&Var) -> f64) -> f64 {
        match self {
            Expr::Var(v) => valuation(v),
            Expr::Const(c) => *c,
            Expr::Add(a, b) => a.eval(valuation) + b.eval(valuation),
            Expr::Sub(a, b) => a.eval(valuation) - b.eval(valuation),
            Expr::Mul(a, b) => a.eval(valuation) * b.eval(valuation),
        }
    }

    /// Whether the expression is linear (degree ≤ 1) in the program variables.
    pub fn is_linear(&self) -> bool {
        self.to_polynomial().degree() <= 1
    }
}

/// Boolean conditions over program variables.
#[derive(Debug, Clone, PartialEq)]
pub enum Cond {
    /// The constant `true`.
    True,
    /// Negation `not L`.
    Not(Box<Cond>),
    /// Conjunction `L1 and L2`.
    And(Box<Cond>, Box<Cond>),
    /// Comparison `E1 ≤ E2`.
    Le(Box<Expr>, Box<Expr>),
    /// Comparison `E1 < E2` (sugar; treated as `≤` for logical contexts).
    Lt(Box<Expr>, Box<Expr>),
    /// Comparison `E1 ≥ E2` (sugar for `E2 ≤ E1`).
    Ge(Box<Expr>, Box<Expr>),
    /// Comparison `E1 > E2` (sugar for `E2 < E1`).
    Gt(Box<Expr>, Box<Expr>),
    /// Equality `E1 = E2` (sugar for `E1 ≤ E2 and E2 ≤ E1`).
    Eq(Box<Expr>, Box<Expr>),
}

impl Cond {
    /// Evaluates the condition under a valuation.
    pub fn eval(&self, valuation: &dyn Fn(&Var) -> f64) -> bool {
        match self {
            Cond::True => true,
            Cond::Not(c) => !c.eval(valuation),
            Cond::And(a, b) => a.eval(valuation) && b.eval(valuation),
            Cond::Le(a, b) => a.eval(valuation) <= b.eval(valuation),
            Cond::Lt(a, b) => a.eval(valuation) < b.eval(valuation),
            Cond::Ge(a, b) => a.eval(valuation) >= b.eval(valuation),
            Cond::Gt(a, b) => a.eval(valuation) > b.eval(valuation),
            Cond::Eq(a, b) => (a.eval(valuation) - b.eval(valuation)).abs() == 0.0,
        }
    }

    /// Variables mentioned in the condition.
    pub fn vars(&self) -> BTreeSet<Var> {
        match self {
            Cond::True => BTreeSet::new(),
            Cond::Not(c) => c.vars(),
            Cond::And(a, b) => {
                let mut s = a.vars();
                s.extend(b.vars());
                s
            }
            Cond::Le(a, b) | Cond::Lt(a, b) | Cond::Ge(a, b) | Cond::Gt(a, b) | Cond::Eq(a, b) => {
                let mut s = a.vars();
                s.extend(b.vars());
                s
            }
        }
    }

    /// The logical negation, pushed through the structure where easy.
    pub fn negate(&self) -> Cond {
        match self {
            Cond::Not(c) => (**c).clone(),
            Cond::Le(a, b) => Cond::Gt(a.clone(), b.clone()),
            Cond::Lt(a, b) => Cond::Ge(a.clone(), b.clone()),
            Cond::Ge(a, b) => Cond::Lt(a.clone(), b.clone()),
            Cond::Gt(a, b) => Cond::Le(a.clone(), b.clone()),
            other => Cond::Not(Box::new(other.clone())),
        }
    }
}

/// The statement forms of Appl, without position information.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// The no-op statement.
    Skip,
    /// `tick(c)`: add the constant `c` to the anonymous cost accumulator.
    Tick(f64),
    /// Deterministic assignment `x := E`.
    Assign(Var, Expr),
    /// Random-sampling assignment `x ~ D`.
    Sample(Var, Dist),
    /// Call to the function named `f`.
    Call(String),
    /// Conditional branching `if L then S1 else S2 fi`.
    If(Cond, Box<Stmt>, Box<Stmt>),
    /// Probabilistic branching `if prob(p) then S1 else S2 fi`.
    IfProb(f64, Box<Stmt>, Box<Stmt>),
    /// Loop `while L do S od`.
    While(Cond, Box<Stmt>),
    /// Sequential composition of zero or more statements.
    Seq(Vec<Stmt>),
}

/// A statement: a [`StmtKind`] plus the source [`Span`] it was parsed from.
///
/// Equality ignores spans (two programs are the same program regardless of
/// the formatting they were parsed from); builder-constructed statements
/// carry [`Span::DUMMY`].
#[derive(Debug, Clone)]
pub struct Stmt {
    kind: StmtKind,
    span: Span,
}

impl PartialEq for Stmt {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
    }
}

impl From<StmtKind> for Stmt {
    fn from(kind: StmtKind) -> Self {
        Stmt::new(kind)
    }
}

impl Stmt {
    /// A statement with no source position ([`Span::DUMMY`]).
    pub fn new(kind: StmtKind) -> Self {
        Stmt {
            kind,
            span: Span::DUMMY,
        }
    }

    /// The same statement positioned at `span`.
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = span;
        self
    }

    /// The statement's form.
    pub fn kind(&self) -> &StmtKind {
        &self.kind
    }

    /// The statement's source span ([`Span::DUMMY`] for synthetic nodes).
    pub fn span(&self) -> Span {
        self.span
    }

    /// Visits the statement, then every statement nested inside it in
    /// order — both branches of an `if` or `if prob`, a loop's body, a
    /// sequence's statements — each before its own children.
    pub fn walk(&self, visit: &mut impl FnMut(&Stmt)) {
        visit(self);
        match &self.kind {
            StmtKind::If(_, a, b) | StmtKind::IfProb(_, a, b) => {
                a.walk(visit);
                b.walk(visit);
            }
            StmtKind::While(_, s) => s.walk(visit),
            StmtKind::Seq(ss) => {
                for s in ss {
                    s.walk(visit);
                }
            }
            StmtKind::Skip
            | StmtKind::Tick(_)
            | StmtKind::Assign(..)
            | StmtKind::Sample(..)
            | StmtKind::Call(_) => {}
        }
    }

    /// Checks the statement itself, not its children: a branch probability
    /// lies in `[0, 1]` and a sampled distribution has valid parameters.
    ///
    /// # Errors
    ///
    /// Returns the [`ProgramError`] the statement violates.
    pub fn validate_local(&self) -> Result<(), ProgramError> {
        match &self.kind {
            StmtKind::IfProb(p, _, _) if !(0.0..=1.0).contains(p) => {
                Err(ProgramError::InvalidProbability(*p))
            }
            StmtKind::Sample(_, d) => d.validate().map_err(ProgramError::InvalidDistribution),
            _ => Ok(()),
        }
    }

    /// Variables assigned or sampled anywhere inside the statement.
    pub fn modified_vars(&self) -> BTreeSet<Var> {
        let mut set = BTreeSet::new();
        self.walk(&mut |s| {
            if let StmtKind::Assign(v, _) | StmtKind::Sample(v, _) = &s.kind {
                set.insert(v.clone());
            }
        });
        set
    }

    /// All variables mentioned anywhere inside the statement.
    pub fn vars(&self) -> BTreeSet<Var> {
        let mut set = BTreeSet::new();
        self.walk(&mut |s| match &s.kind {
            StmtKind::Assign(v, e) => {
                set.insert(v.clone());
                set.extend(e.vars());
            }
            StmtKind::Sample(v, _) => {
                set.insert(v.clone());
            }
            StmtKind::If(c, _, _) | StmtKind::While(c, _) => set.extend(c.vars()),
            _ => {}
        });
        set
    }

    /// Names of functions called anywhere inside the statement.
    pub fn called_functions(&self) -> BTreeSet<String> {
        let mut set = BTreeSet::new();
        self.walk(&mut |s| {
            if let StmtKind::Call(f) = &s.kind {
                set.insert(f.clone());
            }
        });
        set
    }

    /// Number of AST nodes — a proxy for "lines of code" used by the
    /// scalability study.
    pub fn size(&self) -> usize {
        match &self.kind {
            StmtKind::Skip
            | StmtKind::Tick(_)
            | StmtKind::Assign(..)
            | StmtKind::Sample(..)
            | StmtKind::Call(_) => 1,
            StmtKind::If(_, a, b) | StmtKind::IfProb(_, a, b) => 1 + a.size() + b.size(),
            StmtKind::While(_, s) => 1 + s.size(),
            StmtKind::Seq(ss) => ss.iter().map(Stmt::size).sum::<usize>().max(1),
        }
    }
}

/// A function declaration: a body together with an optional precondition that
/// the analysis may assume at every entry of the function.
///
/// In the paper the entry context is recovered by an interprocedural numeric
/// analysis (APRON); here the precondition plays that role and is additionally
/// cross-checked by the Monte-Carlo simulator in the test-suite.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    name: String,
    body: Stmt,
    precondition: Vec<Cond>,
}

impl Function {
    /// Creates a function with an empty precondition.
    pub fn new(name: impl Into<String>, body: Stmt) -> Self {
        Function {
            name: name.into(),
            body,
            precondition: Vec::new(),
        }
    }

    /// The function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The function's body.
    pub fn body(&self) -> &Stmt {
        &self.body
    }

    /// The conjunction of precondition facts.
    pub fn precondition(&self) -> &[Cond] {
        &self.precondition
    }

    /// Adds a precondition fact.
    pub fn add_precondition(&mut self, cond: Cond) {
        self.precondition.push(cond);
    }
}

/// Errors raised while assembling or validating a program.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgramError {
    /// A call targets a function that is not declared.
    UnknownFunction(String),
    /// A probability annotation lies outside `[0, 1]`.
    InvalidProbability(f64),
    /// A distribution parameter is invalid (e.g. `uniform(a, b)` with `a ≥ b`).
    InvalidDistribution(String),
    /// Two functions share the same name.
    DuplicateFunction(String),
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::UnknownFunction(name) => {
                write!(f, "call to undeclared function `{name}`")
            }
            ProgramError::InvalidProbability(p) => write!(f, "probability {p} is not in [0, 1]"),
            ProgramError::InvalidDistribution(msg) => write!(f, "invalid distribution: {msg}"),
            ProgramError::DuplicateFunction(name) => write!(f, "function `{name}` declared twice"),
        }
    }
}

impl std::error::Error for ProgramError {}

/// A complete Appl program `⟨𝒟, S_main⟩`: a finite map from function
/// identifiers to bodies plus the body of the `main` function.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    functions: BTreeMap<String, Function>,
    main: Stmt,
    /// Precondition assumed at the start of `main` (e.g. `d > 0` in Fig. 2).
    precondition: Vec<Cond>,
}

impl Program {
    /// Creates a program from its parts, validating call targets,
    /// probabilities, and distribution parameters.
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] if validation fails.
    pub fn new(
        functions: Vec<Function>,
        main: Stmt,
        precondition: Vec<Cond>,
    ) -> Result<Self, ProgramError> {
        let mut map = BTreeMap::new();
        for f in functions {
            if map.contains_key(f.name()) {
                return Err(ProgramError::DuplicateFunction(f.name().to_string()));
            }
            map.insert(f.name().to_string(), f);
        }
        let program = Program {
            functions: map,
            main,
            precondition,
        };
        program.validate()?;
        Ok(program)
    }

    /// Assembles a program **without** validating call targets,
    /// probabilities, or distribution parameters (duplicate function names
    /// keep the first declaration).
    ///
    /// Only diagnostics tooling should use this: it lets the static checker
    /// inspect malformed programs and report every problem with a source
    /// span.  Unchecked programs must not reach the analysis or simulator.
    pub fn new_unchecked(functions: Vec<Function>, main: Stmt, precondition: Vec<Cond>) -> Self {
        let mut map = BTreeMap::new();
        for f in functions {
            map.entry(f.name().to_string()).or_insert(f);
        }
        Program {
            functions: map,
            main,
            precondition,
        }
    }

    fn validate(&self) -> Result<(), ProgramError> {
        let bodies = self.functions.values().map(Function::body);
        for body in bodies.chain([&self.main]) {
            if let Some(f) = body
                .called_functions()
                .into_iter()
                .find(|f| !self.functions.contains_key(f))
            {
                return Err(ProgramError::UnknownFunction(f));
            }
            let mut first = Ok(());
            body.walk(&mut |s| {
                if first.is_ok() {
                    first = s.validate_local();
                }
            });
            first?;
        }
        Ok(())
    }

    /// The body of the `main` function.
    pub fn main(&self) -> &Stmt {
        &self.main
    }

    /// Looks up a declared function.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.get(name)
    }

    /// Iterates over all declared functions.
    pub fn functions(&self) -> impl Iterator<Item = &Function> {
        self.functions.values()
    }

    /// The precondition assumed at the start of `main`.
    pub fn precondition(&self) -> &[Cond] {
        &self.precondition
    }

    /// All program variables mentioned anywhere (the set `XID`).
    pub fn vars(&self) -> Vec<Var> {
        let mut set = self.main.vars();
        for f in self.functions.values() {
            set.extend(f.body().vars());
            for c in f.precondition() {
                set.extend(c.vars());
            }
        }
        for c in &self.precondition {
            set.extend(c.vars());
        }
        set.into_iter().collect()
    }

    /// Total AST size across `main` and all function bodies.
    pub fn size(&self) -> usize {
        self.main.size()
            + self
                .functions
                .values()
                .map(|f| f.body().size())
                .sum::<usize>()
    }

    /// The call graph as an adjacency list: `caller → set of callees`.
    pub fn call_graph(&self) -> BTreeMap<String, BTreeSet<String>> {
        let mut graph = BTreeMap::new();
        for (name, f) in &self.functions {
            graph.insert(name.clone(), f.body().called_functions());
        }
        graph
    }

    /// Strongly connected components of the call graph in reverse topological
    /// order (callees before callers).
    pub fn call_graph_sccs(&self) -> Vec<Vec<String>> {
        let graph: BTreeMap<String, BTreeSet<String>> = self.call_graph();
        let nodes: Vec<String> = graph.keys().cloned().collect();
        let mut state = TarjanState {
            graph: &graph,
            index: 0,
            indices: BTreeMap::new(),
            lowlink: BTreeMap::new(),
            on_stack: BTreeSet::new(),
            stack: Vec::new(),
            sccs: Vec::new(),
        };
        for node in &nodes {
            if !state.indices.contains_key(node) {
                state.strong_connect(node);
            }
        }
        // Tarjan emits SCCs in reverse topological order of the condensation
        // (an SCC is emitted only after all SCCs it can reach), i.e. callees first.
        state.sccs
    }

    /// Variables transitively modified by the body of function `f`.
    pub fn transitively_modified(&self, f: &str) -> BTreeSet<Var> {
        let mut visited = BTreeSet::new();
        let mut result = BTreeSet::new();
        let mut stack = vec![f.to_string()];
        while let Some(name) = stack.pop() {
            if !visited.insert(name.clone()) {
                continue;
            }
            if let Some(func) = self.function(&name) {
                result.extend(func.body().modified_vars());
                stack.extend(func.body().called_functions());
            }
        }
        result
    }
}

struct TarjanState<'a> {
    graph: &'a BTreeMap<String, BTreeSet<String>>,
    index: usize,
    indices: BTreeMap<String, usize>,
    lowlink: BTreeMap<String, usize>,
    on_stack: BTreeSet<String>,
    stack: Vec<String>,
    sccs: Vec<Vec<String>>,
}

impl TarjanState<'_> {
    fn strong_connect(&mut self, v: &str) {
        self.indices.insert(v.to_string(), self.index);
        self.lowlink.insert(v.to_string(), self.index);
        self.index += 1;
        self.stack.push(v.to_string());
        self.on_stack.insert(v.to_string());

        let successors: Vec<String> = self
            .graph
            .get(v)
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default();
        for w in successors {
            if !self.graph.contains_key(&w) {
                continue;
            }
            if !self.indices.contains_key(&w) {
                self.strong_connect(&w);
                let low = self.lowlink[&w].min(self.lowlink[v]);
                self.lowlink.insert(v.to_string(), low);
            } else if self.on_stack.contains(&w) {
                let low = self.indices[&w].min(self.lowlink[v]);
                self.lowlink.insert(v.to_string(), low);
            }
        }

        if self.lowlink[v] == self.indices[v] {
            let mut scc = Vec::new();
            while let Some(w) = self.stack.pop() {
                self.on_stack.remove(&w);
                let done = w == v;
                scc.push(w);
                if done {
                    break;
                }
            }
            scc.reverse();
            self.sccs.push(scc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;

    #[test]
    fn expr_to_polynomial_and_eval_agree() {
        let e = add(mul(v("x"), v("x")), sub(cst(3.0), v("y")));
        let p = e.to_polynomial();
        let val = |var: &Var| if var.name() == "x" { 2.0 } else { 5.0 };
        assert_eq!(e.eval(&val), p.eval(&val));
        assert_eq!(e.eval(&val), 4.0 + 3.0 - 5.0);
    }

    #[test]
    fn expr_vars_and_linearity() {
        let e = add(mul(v("x"), v("y")), cst(1.0));
        assert_eq!(e.vars().len(), 2);
        assert!(!e.is_linear());
        assert!(add(v("x"), cst(2.0)).is_linear());
    }

    #[test]
    fn cond_negation_flips_comparisons() {
        let c = lt(v("x"), v("d"));
        let n = c.negate();
        assert_eq!(n, ge(v("x"), v("d")));
        assert_eq!(Cond::True.negate(), Cond::Not(Box::new(Cond::True)));
        let val_true = |var: &Var| if var.name() == "x" { 0.0 } else { 1.0 };
        assert!(c.eval(&val_true));
        assert!(!n.eval(&val_true));
    }

    #[test]
    fn stmt_collections() {
        let s = seq([
            assign("x", cst(0.0)),
            while_loop(
                lt(v("x"), v("n")),
                seq([
                    sample("t", uniform(0.0, 1.0)),
                    assign("x", add(v("x"), v("t"))),
                    tick(1.0),
                ]),
            ),
            call("helper"),
        ]);
        let modified = s.modified_vars();
        assert!(modified.contains(&Var::new("x")));
        assert!(modified.contains(&Var::new("t")));
        assert!(!modified.contains(&Var::new("n")));
        assert!(s.vars().contains(&Var::new("n")));
        assert_eq!(s.called_functions().len(), 1);
        assert!(s.size() >= 5);
    }

    #[test]
    fn walk_visits_parents_before_children_in_order() {
        let s = seq([
            if_then_else(lt(v("x"), cst(0.0)), tick(1.0), tick(2.0)),
            while_loop(lt(v("x"), cst(3.0)), if_prob(0.5, tick(3.0), tick(4.0))),
            tick(5.0),
        ]);
        let mut order = Vec::new();
        s.walk(&mut |stmt| {
            order.push(match stmt.kind() {
                StmtKind::Tick(c) => format!("tick {c}"),
                StmtKind::If(..) => "if".to_string(),
                StmtKind::IfProb(..) => "if prob".to_string(),
                StmtKind::While(..) => "while".to_string(),
                StmtKind::Seq(_) => "seq".to_string(),
                other => panic!("unexpected statement {other:?}"),
            })
        });
        let expected = [
            "seq", "if", "tick 1", "tick 2", "while", "if prob", "tick 3", "tick 4", "tick 5",
        ];
        assert_eq!(order, expected);
    }

    #[test]
    fn program_validation_rejects_unknown_call() {
        let err = Program::new(vec![], call("nope"), vec![]).unwrap_err();
        assert_eq!(err, ProgramError::UnknownFunction("nope".into()));
    }

    #[test]
    fn program_validation_rejects_bad_probability() {
        let err = Program::new(vec![], if_prob(1.5, tick(1.0), skip()), vec![]).unwrap_err();
        assert_eq!(err, ProgramError::InvalidProbability(1.5));
    }

    #[test]
    fn program_validation_rejects_bad_distribution() {
        let err = Program::new(vec![], sample("x", uniform(2.0, 1.0)), vec![]).unwrap_err();
        assert!(matches!(err, ProgramError::InvalidDistribution(_)));
    }

    #[test]
    fn program_validation_rejects_duplicate_function() {
        let f1 = Function::new("f", skip());
        let f2 = Function::new("f", tick(1.0));
        let err = Program::new(vec![f1, f2], skip(), vec![]).unwrap_err();
        assert_eq!(err, ProgramError::DuplicateFunction("f".into()));
    }

    #[test]
    fn program_accessors() {
        let program = ProgramBuilder::new()
            .function("f", seq([tick(1.0), call("g")]))
            .function("g", tick(2.0))
            .main(call("f"))
            .precondition(gt(v("d"), cst(0.0)))
            .build()
            .unwrap();
        assert!(program.function("f").is_some());
        assert!(program.function("h").is_none());
        assert_eq!(program.functions().count(), 2);
        assert_eq!(program.precondition().len(), 1);
        assert!(program.vars().contains(&Var::new("d")));
        let graph = program.call_graph();
        assert!(graph["f"].contains("g"));
        assert!(graph["g"].is_empty());
    }

    #[test]
    fn sccs_are_in_callee_first_order() {
        let program = ProgramBuilder::new()
            .function("a", seq([call("b"), call("c")]))
            .function("b", call("c"))
            .function("c", if_prob(0.5, call("c"), skip()))
            .main(call("a"))
            .build()
            .unwrap();
        let sccs = program.call_graph_sccs();
        assert_eq!(sccs.len(), 3);
        let pos = |name: &str| {
            sccs.iter()
                .position(|s| s.contains(&name.to_string()))
                .unwrap()
        };
        assert!(pos("c") < pos("b"));
        assert!(pos("b") < pos("a"));
    }

    #[test]
    fn mutually_recursive_functions_form_one_scc() {
        let program = ProgramBuilder::new()
            .function("even", if_prob(0.5, call("odd"), skip()))
            .function("odd", call("even"))
            .main(call("even"))
            .build()
            .unwrap();
        let sccs = program.call_graph_sccs();
        assert_eq!(sccs.len(), 1);
        assert_eq!(sccs[0].len(), 2);
    }

    #[test]
    fn transitive_modification_follows_call_chains() {
        let program = ProgramBuilder::new()
            .function("a", seq([assign("x", cst(1.0)), call("b")]))
            .function("b", sample("y", uniform(0.0, 1.0)))
            .main(call("a"))
            .build()
            .unwrap();
        let vars = program.transitively_modified("a");
        assert!(vars.contains(&Var::new("x")));
        assert!(vars.contains(&Var::new("y")));
        let vars_b = program.transitively_modified("b");
        assert!(!vars_b.contains(&Var::new("x")));
    }

    #[test]
    fn error_display_is_informative() {
        let e = ProgramError::UnknownFunction("foo".into());
        assert!(e.to_string().contains("foo"));
        assert!(ProgramError::InvalidProbability(2.0)
            .to_string()
            .contains('2'));
    }
}
