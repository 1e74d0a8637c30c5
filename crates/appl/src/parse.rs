//! A parser for the concrete Appl syntax used in the paper's figures.
//!
//! The grammar (with `#`-to-end-of-line comments allowed anywhere):
//!
//! ```text
//! program ::= item*
//! item    ::= "pre" cond                       (global precondition)
//!           | "func" ident "()" ("pre" cond)* "begin" stmts "end"
//! stmts   ::= stmt (";" stmt)*
//! stmt    ::= "skip" | "tick" "(" num ")" | ident ":=" expr | ident "~" dist
//!           | "call" ident
//!           | "if" "prob" "(" num ")" "then" stmts ["else" stmts] "fi"
//!           | "if" cond "then" stmts ["else" stmts] "fi"
//!           | "while" cond "do" stmts "od"
//! cond    ::= catom ("and" catom)*
//! catom   ::= "true" | "not" catom | "(" cond ")" | expr cmp expr
//! cmp     ::= "<=" | "<" | ">=" | ">" | "=="
//! expr    ::= term (("+" | "-") term)*
//! term    ::= factor ("*" factor)*
//! factor  ::= num | ident | "(" expr ")" | "-" factor
//! dist    ::= "uniform" "(" num "," num ")" | "unif_int" "(" num "," num ")"
//!           | "bernoulli" "(" num ")" | "discrete" "(" num ":" num {"," num ":" num} ")"
//! ```
//!
//! The function named `main` becomes the program's `main` body.  Every parsed
//! statement carries its source [`Span`], and errors are reported as
//! `line:column` with a caret-annotated snippet.

use std::fmt;

use cma_semiring::poly::Var;

use crate::ast::{Cond, Expr, Function, Program, ProgramError, Stmt, StmtKind};
use crate::dist::Dist;
use crate::span::{SourceMap, Span};

/// Errors produced while parsing an Appl program.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable description of the problem.
    message: String,
    /// Source range where the error was detected.
    span: Span,
    /// 1-based line of `span.start` (0 when no source is available).
    line: usize,
    /// 1-based column of `span.start` (0 when no source is available).
    col: usize,
    /// Caret-annotated source snippet, when the source is available.
    snippet: Option<String>,
}

impl ParseError {
    fn new(message: impl Into<String>, position: usize) -> Self {
        ParseError {
            message: message.into(),
            span: Span::new(position, position + 1),
            line: 0,
            col: 0,
            snippet: None,
        }
    }

    fn spanned(message: impl Into<String>, span: Span) -> Self {
        ParseError {
            message: message.into(),
            span,
            line: 0,
            col: 0,
            snippet: None,
        }
    }

    /// Resolves the byte span against the source, filling line/column and the
    /// caret snippet.
    fn resolved(mut self, map: &SourceMap) -> Self {
        let at = map.line_col(self.span.start);
        self.line = at.line;
        self.col = at.col;
        self.snippet = Some(map.snippet(self.span));
        self
    }

    /// The error message.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The source range the error points at.
    pub fn span(&self) -> Span {
        self.span
    }

    /// The 1-based line of the error (0 when unresolved).
    pub fn line(&self) -> usize {
        self.line
    }

    /// The 1-based column of the error (0 when unresolved).
    pub fn col(&self) -> usize {
        self.col
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "parse error at {}:{}: {}",
                self.line, self.col, self.message
            )?;
        } else {
            write!(f, "parse error: {}", self.message)?;
        }
        if let Some(snippet) = &self.snippet {
            write!(f, "\n{snippet}")?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseError {}

impl From<ProgramError> for ParseError {
    fn from(e: ProgramError) -> Self {
        ParseError::spanned(e.to_string(), Span::DUMMY)
    }
}

/// Keywords that cannot be used as variable or function names.
const RESERVED: &[&str] = &[
    "func", "begin", "end", "if", "then", "else", "fi", "prob", "while", "do", "od", "skip",
    "tick", "call", "pre", "and", "not", "true",
];

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Number(f64),
    Symbol(&'static str),
}

struct Lexer<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Self {
        Lexer {
            input: input.as_bytes(),
            pos: 0,
        }
    }

    fn tokenize(mut self) -> Result<Vec<(Token, Span)>, ParseError> {
        let mut tokens = Vec::new();
        while self.pos < self.input.len() {
            let c = self.input[self.pos] as char;
            if c.is_whitespace() {
                self.pos += 1;
                continue;
            }
            if c == '#' {
                while self.pos < self.input.len() && self.input[self.pos] != b'\n' {
                    self.pos += 1;
                }
                continue;
            }
            let start = self.pos;
            if c.is_ascii_alphabetic() || c == '_' {
                while self.pos < self.input.len()
                    && ((self.input[self.pos] as char).is_ascii_alphanumeric()
                        || self.input[self.pos] == b'_')
                {
                    self.pos += 1;
                }
                let word = std::str::from_utf8(&self.input[start..self.pos]).unwrap();
                tokens.push((Token::Ident(word.to_string()), Span::new(start, self.pos)));
                continue;
            }
            if c.is_ascii_digit() || (c == '.' && self.peek_digit(1)) {
                while self.pos < self.input.len()
                    && ((self.input[self.pos] as char).is_ascii_digit()
                        || self.input[self.pos] == b'.'
                        || self.input[self.pos] == b'e'
                        || self.input[self.pos] == b'E'
                        || ((self.input[self.pos] == b'-' || self.input[self.pos] == b'+')
                            && self.pos > start
                            && (self.input[self.pos - 1] == b'e'
                                || self.input[self.pos - 1] == b'E')))
                {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.input[start..self.pos]).unwrap();
                let value: f64 = text
                    .parse()
                    .map_err(|_| ParseError::new(format!("invalid number `{text}`"), start))?;
                tokens.push((Token::Number(value), Span::new(start, self.pos)));
                continue;
            }
            let two = if self.pos + 1 < self.input.len() {
                &self.input[self.pos..self.pos + 2]
            } else {
                &self.input[self.pos..self.pos + 1]
            };
            let symbol = match two {
                b":=" => Some(":="),
                b"<=" => Some("<="),
                b">=" => Some(">="),
                b"==" => Some("=="),
                _ => None,
            };
            if let Some(s) = symbol {
                tokens.push((Token::Symbol(s), Span::new(start, start + 2)));
                self.pos += 2;
                continue;
            }
            let one = match c {
                '(' => "(",
                ')' => ")",
                ';' => ";",
                ',' => ",",
                ':' => ":",
                '~' => "~",
                '+' => "+",
                '-' => "-",
                '*' => "*",
                '<' => "<",
                '>' => ">",
                _ => {
                    return Err(ParseError::new(
                        format!("unexpected character `{c}`"),
                        start,
                    ));
                }
            };
            tokens.push((Token::Symbol(one), Span::new(start, start + 1)));
            self.pos += 1;
        }
        Ok(tokens)
    }

    fn peek_digit(&self, offset: usize) -> bool {
        self.input
            .get(self.pos + offset)
            .is_some_and(|b| (*b as char).is_ascii_digit())
    }
}

struct Parser {
    tokens: Vec<(Token, Span)>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn position(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|(_, s)| s.start)
            .unwrap_or_else(|| self.tokens.last().map(|(_, s)| s.end).unwrap_or(0))
    }

    /// End offset of the most recently consumed token.
    fn prev_end(&self) -> usize {
        if self.pos == 0 {
            0
        } else {
            self.tokens
                .get(self.pos - 1)
                .map(|(_, s)| s.end)
                .unwrap_or(0)
        }
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(t, _)| t.clone());
        self.pos += 1;
        t
    }

    fn expect_symbol(&mut self, s: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(Token::Symbol(sym)) if *sym == s => {
                self.pos += 1;
                Ok(())
            }
            other => Err(ParseError::new(
                format!("expected `{s}`, found {other:?}"),
                self.position(),
            )),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(Token::Ident(word)) if word == kw => {
                self.pos += 1;
                Ok(())
            }
            other => Err(ParseError::new(
                format!("expected keyword `{kw}`, found {other:?}"),
                self.position(),
            )),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(word)) if word == kw)
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.advance() {
            Some(Token::Ident(name)) => Ok(name),
            other => Err(ParseError::new(
                format!("expected identifier, found {other:?}"),
                self.position(),
            )),
        }
    }

    fn expect_number(&mut self) -> Result<f64, ParseError> {
        // Allow a leading minus sign in numeric positions (e.g. uniform(-1, 2)).
        let negative = matches!(self.peek(), Some(Token::Symbol("-")));
        if negative {
            self.pos += 1;
        }
        match self.advance() {
            Some(Token::Number(n)) => Ok(if negative { -n } else { n }),
            other => Err(ParseError::new(
                format!("expected number, found {other:?}"),
                self.position(),
            )),
        }
    }

    // -- programs ---------------------------------------------------------

    fn parse_program(&mut self) -> Result<ProgramParts, ParseError> {
        let mut functions = Vec::new();
        let mut main = None;
        let mut precondition = Vec::new();
        while self.peek().is_some() {
            if self.at_keyword("pre") {
                self.pos += 1;
                precondition.push(self.parse_cond()?);
            } else if self.at_keyword("func") {
                let (name, func_pre, body) = self.parse_function()?;
                if name == "main" {
                    main = Some(body);
                    precondition.extend(func_pre);
                } else {
                    let mut f = Function::new(name, body);
                    for c in func_pre {
                        f.add_precondition(c);
                    }
                    functions.push(f);
                }
            } else {
                return Err(ParseError::new(
                    format!("expected `pre` or `func`, found {:?}", self.peek()),
                    self.position(),
                ));
            }
        }
        Ok(ProgramParts {
            functions,
            main: main.unwrap_or_else(|| Stmt::new(StmtKind::Skip)),
            precondition,
        })
    }

    fn parse_function(&mut self) -> Result<(String, Vec<Cond>, Stmt), ParseError> {
        self.expect_keyword("func")?;
        let name = self.expect_ident()?;
        self.expect_symbol("(")?;
        self.expect_symbol(")")?;
        let mut preconditions = Vec::new();
        while self.at_keyword("pre") {
            self.pos += 1;
            preconditions.push(self.parse_cond()?);
        }
        self.expect_keyword("begin")?;
        let body = self.parse_stmts()?;
        self.expect_keyword("end")?;
        Ok((name, preconditions, body))
    }

    // -- statements -------------------------------------------------------

    fn parse_stmts(&mut self) -> Result<Stmt, ParseError> {
        let start = self.position();
        let mut stmts = vec![self.parse_stmt()?];
        while matches!(self.peek(), Some(Token::Symbol(";"))) {
            self.pos += 1;
            stmts.push(self.parse_stmt()?);
        }
        Ok(if stmts.len() == 1 {
            stmts.pop().unwrap()
        } else {
            let span = Span::new(start, self.prev_end());
            Stmt::new(StmtKind::Seq(stmts)).with_span(span)
        })
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        let start = self.position();
        let kind = self.parse_stmt_kind()?;
        let span = Span::new(start, self.prev_end());
        Ok(Stmt::new(kind).with_span(span))
    }

    fn parse_stmt_kind(&mut self) -> Result<StmtKind, ParseError> {
        match self.peek() {
            Some(Token::Ident(word)) => match word.as_str() {
                "skip" => {
                    self.pos += 1;
                    Ok(StmtKind::Skip)
                }
                "tick" => {
                    self.pos += 1;
                    self.expect_symbol("(")?;
                    let c = self.expect_number()?;
                    self.expect_symbol(")")?;
                    Ok(StmtKind::Tick(c))
                }
                "call" => {
                    self.pos += 1;
                    let name = self.expect_ident()?;
                    Ok(StmtKind::Call(name))
                }
                "if" => self.parse_if(),
                "while" => self.parse_while(),
                _ => {
                    let name = self.expect_ident()?;
                    match self.peek() {
                        Some(Token::Symbol(":=")) => {
                            self.pos += 1;
                            let e = self.parse_expr()?;
                            Ok(StmtKind::Assign(Var::new(&name), e))
                        }
                        Some(Token::Symbol("~")) => {
                            self.pos += 1;
                            let d = self.parse_dist()?;
                            Ok(StmtKind::Sample(Var::new(&name), d))
                        }
                        other => Err(ParseError::new(
                            format!("expected `:=` or `~` after `{name}`, found {other:?}"),
                            self.position(),
                        )),
                    }
                }
            },
            other => Err(ParseError::new(
                format!("expected statement, found {other:?}"),
                self.position(),
            )),
        }
    }

    fn parse_if(&mut self) -> Result<StmtKind, ParseError> {
        self.expect_keyword("if")?;
        if self.at_keyword("prob") {
            self.pos += 1;
            self.expect_symbol("(")?;
            let p = self.expect_number()?;
            self.expect_symbol(")")?;
            self.expect_keyword("then")?;
            let s1 = self.parse_stmts()?;
            let s2 = if self.at_keyword("else") {
                self.pos += 1;
                self.parse_stmts()?
            } else {
                Stmt::new(StmtKind::Skip)
            };
            self.expect_keyword("fi")?;
            Ok(StmtKind::IfProb(p, Box::new(s1), Box::new(s2)))
        } else {
            let cond = self.parse_cond()?;
            self.expect_keyword("then")?;
            let s1 = self.parse_stmts()?;
            let s2 = if self.at_keyword("else") {
                self.pos += 1;
                self.parse_stmts()?
            } else {
                Stmt::new(StmtKind::Skip)
            };
            self.expect_keyword("fi")?;
            Ok(StmtKind::If(cond, Box::new(s1), Box::new(s2)))
        }
    }

    fn parse_while(&mut self) -> Result<StmtKind, ParseError> {
        self.expect_keyword("while")?;
        let cond = self.parse_cond()?;
        self.expect_keyword("do")?;
        let body = self.parse_stmts()?;
        self.expect_keyword("od")?;
        Ok(StmtKind::While(cond, Box::new(body)))
    }

    // -- distributions ----------------------------------------------------

    fn parse_dist(&mut self) -> Result<Dist, ParseError> {
        let name = self.expect_ident()?;
        self.expect_symbol("(")?;
        let dist = match name.as_str() {
            "uniform" => {
                let a = self.expect_number()?;
                self.expect_symbol(",")?;
                let b = self.expect_number()?;
                Dist::Uniform(a, b)
            }
            "unif_int" => {
                let a = self.expect_number()?;
                self.expect_symbol(",")?;
                let b = self.expect_number()?;
                Dist::UniformInt(a as i64, b as i64)
            }
            "bernoulli" => Dist::Bernoulli(self.expect_number()?),
            "discrete" => {
                let mut choices = Vec::new();
                loop {
                    let v = self.expect_number()?;
                    self.expect_symbol(":")?;
                    let p = self.expect_number()?;
                    choices.push((v, p));
                    if matches!(self.peek(), Some(Token::Symbol(","))) {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                Dist::Discrete(choices)
            }
            other => {
                return Err(ParseError::new(
                    format!("unknown distribution `{other}`"),
                    self.position(),
                ));
            }
        };
        self.expect_symbol(")")?;
        Ok(dist)
    }

    // -- conditions -------------------------------------------------------

    fn parse_cond(&mut self) -> Result<Cond, ParseError> {
        let mut cond = self.parse_cond_atom()?;
        while self.at_keyword("and") {
            self.pos += 1;
            let rhs = self.parse_cond_atom()?;
            cond = Cond::And(Box::new(cond), Box::new(rhs));
        }
        Ok(cond)
    }

    fn parse_cond_atom(&mut self) -> Result<Cond, ParseError> {
        if self.at_keyword("true") {
            self.pos += 1;
            return Ok(Cond::True);
        }
        if self.at_keyword("not") {
            self.pos += 1;
            let inner = self.parse_cond_atom()?;
            return Ok(Cond::Not(Box::new(inner)));
        }
        // A parenthesis may open either a nested condition or an arithmetic
        // expression; try the condition first and backtrack on failure.
        if matches!(self.peek(), Some(Token::Symbol("("))) {
            let saved = self.pos;
            self.pos += 1;
            if let Ok(cond) = self.parse_cond() {
                if self.expect_symbol(")").is_ok() {
                    // Only accept if this is not actually the left operand of
                    // a comparison, e.g. `(x + 1) < y`.
                    if !matches!(
                        self.peek(),
                        Some(Token::Symbol("<=" | "<" | ">=" | ">" | "=="))
                    ) {
                        return Ok(cond);
                    }
                }
            }
            self.pos = saved;
        }
        let lhs = self.parse_expr()?;
        let op = match self.peek() {
            Some(Token::Symbol(s @ ("<=" | "<" | ">=" | ">" | "=="))) => *s,
            other => {
                return Err(ParseError::new(
                    format!("expected comparison operator, found {other:?}"),
                    self.position(),
                ));
            }
        };
        self.pos += 1;
        let rhs = self.parse_expr()?;
        Ok(match op {
            "<=" => Cond::Le(Box::new(lhs), Box::new(rhs)),
            "<" => Cond::Lt(Box::new(lhs), Box::new(rhs)),
            ">=" => Cond::Ge(Box::new(lhs), Box::new(rhs)),
            ">" => Cond::Gt(Box::new(lhs), Box::new(rhs)),
            _ => Cond::Eq(Box::new(lhs), Box::new(rhs)),
        })
    }

    // -- expressions ------------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        let mut expr = self.parse_term()?;
        loop {
            match self.peek() {
                Some(Token::Symbol("+")) => {
                    self.pos += 1;
                    let rhs = self.parse_term()?;
                    expr = Expr::Add(Box::new(expr), Box::new(rhs));
                }
                Some(Token::Symbol("-")) => {
                    self.pos += 1;
                    let rhs = self.parse_term()?;
                    expr = Expr::Sub(Box::new(expr), Box::new(rhs));
                }
                _ => break,
            }
        }
        Ok(expr)
    }

    fn parse_term(&mut self) -> Result<Expr, ParseError> {
        let mut expr = self.parse_factor()?;
        while matches!(self.peek(), Some(Token::Symbol("*"))) {
            self.pos += 1;
            let rhs = self.parse_factor()?;
            expr = Expr::Mul(Box::new(expr), Box::new(rhs));
        }
        Ok(expr)
    }

    fn parse_factor(&mut self) -> Result<Expr, ParseError> {
        match self.peek().cloned() {
            Some(Token::Number(n)) => {
                self.pos += 1;
                Ok(Expr::Const(n))
            }
            Some(Token::Ident(name)) => {
                if RESERVED.contains(&name.as_str()) {
                    return Err(ParseError::new(
                        format!("reserved keyword `{name}` cannot be used as a variable"),
                        self.position(),
                    ));
                }
                self.pos += 1;
                Ok(Expr::Var(Var::new(&name)))
            }
            Some(Token::Symbol("(")) => {
                self.pos += 1;
                let e = self.parse_expr()?;
                self.expect_symbol(")")?;
                Ok(e)
            }
            Some(Token::Symbol("-")) => {
                self.pos += 1;
                let inner = self.parse_factor()?;
                Ok(match inner {
                    Expr::Const(c) => Expr::Const(-c),
                    other => Expr::Sub(Box::new(Expr::Const(0.0)), Box::new(other)),
                })
            }
            other => Err(ParseError::new(
                format!("expected expression, found {other:?}"),
                self.position(),
            )),
        }
    }
}

/// The raw output of a parse, before program-level validation.
struct ProgramParts {
    functions: Vec<Function>,
    main: Stmt,
    precondition: Vec<Cond>,
}

impl ProgramParts {
    /// Spanned validation of statement-local properties: distribution
    /// parameters, probability annotations, and call targets.  Mirrors
    /// [`Program::new`]'s checks but points at the first offending statement
    /// in declaration order.
    fn validate_spanned(&self) -> Result<(), ParseError> {
        let names: std::collections::BTreeSet<&str> =
            self.functions.iter().map(|f| f.name()).collect();
        let mut first = Ok(());
        let bodies = self.functions.iter().map(Function::body);
        for body in bodies.chain([&self.main]) {
            body.walk(&mut |stmt| {
                if first.is_ok() {
                    first = match stmt.kind() {
                        StmtKind::Call(f) if !names.contains(f.as_str()) => {
                            Err(ProgramError::UnknownFunction(f.clone()))
                        }
                        _ => stmt.validate_local(),
                    }
                    .map_err(|e| ParseError::spanned(e.to_string(), stmt.span()));
                }
            });
        }
        first
    }
}

/// Parses a complete Appl program from its textual representation.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntactic or semantic
/// (validation) problem encountered, with line/column information and a
/// caret-annotated snippet.
///
/// ```
/// let source = r#"
///     pre d > 0
///     func rdwalk() pre x < d + 2 begin
///       if x < d then
///         t ~ uniform(-1, 2);
///         x := x + t;
///         call rdwalk;
///         tick(1)
///       fi
///     end
///     func main() begin
///       x := 0;
///       call rdwalk
///     end
/// "#;
/// let program = cma_appl::parse_program(source).unwrap();
/// assert!(program.function("rdwalk").is_some());
/// ```
pub fn parse_program(source: &str) -> Result<Program, ParseError> {
    let map = SourceMap::new(source);
    let parts = parse_parts(source).map_err(|e| e.resolved(&map))?;
    parts.validate_spanned().map_err(|e| e.resolved(&map))?;
    Program::new(parts.functions, parts.main, parts.precondition)
        .map_err(|e| ParseError::from(e).resolved(&map))
}

/// Parses a program *without* validating call targets, probabilities, or
/// distribution parameters.
///
/// This is the entry point for diagnostics tooling (`cma check`), which wants
/// to see the malformed AST so it can report every problem with a source span
/// instead of stopping at the first validation failure.  Programs obtained
/// this way must not be fed to the analysis or the simulator.
///
/// # Errors
///
/// Returns a [`ParseError`] for syntactic problems only.
pub fn parse_program_unchecked(source: &str) -> Result<Program, ParseError> {
    let map = SourceMap::new(source);
    let parts = parse_parts(source).map_err(|e| e.resolved(&map))?;
    Ok(Program::new_unchecked(
        parts.functions,
        parts.main,
        parts.precondition,
    ))
}

fn parse_parts(source: &str) -> Result<ProgramParts, ParseError> {
    let tokens = Lexer::new(source).tokenize()?;
    let mut parser = Parser { tokens, pos: 0 };
    parser.parse_program()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;

    const RDWALK: &str = r#"
        # The bounded, biased random walk of Fig. 2.
        pre d > 0
        func rdwalk() pre x < d + 2 begin
          if x < d then
            t ~ uniform(-1, 2);
            x := x + t;
            call rdwalk;
            tick(1)
          fi
        end
        func main() begin
          x := 0;
          call rdwalk
        end
    "#;

    #[test]
    fn parses_the_running_example() {
        let p = parse_program(RDWALK).unwrap();
        assert_eq!(p.functions().count(), 1);
        assert_eq!(p.precondition().len(), 1);
        let f = p.function("rdwalk").unwrap();
        assert_eq!(f.precondition().len(), 1);
        assert!(matches!(f.body().kind(), StmtKind::If(..)));
        assert!(matches!(p.main().kind(), StmtKind::Seq(ss) if ss.len() == 2));
    }

    #[test]
    fn parses_loops_probabilistic_branches_and_all_distributions() {
        let src = r#"
            func main() begin
              n := 10;
              while 0 < n do
                if prob(0.25) then
                  n := n - 1;
                  c ~ discrete(0: 0.5, 2: 0.5)
                else
                  y ~ unif_int(1, 6);
                  b ~ bernoulli(0.3)
                fi;
                tick(1)
              od;
              skip
            end
        "#;
        let p = parse_program(src).unwrap();
        assert!(matches!(p.main().kind(), StmtKind::Seq(_)));
        let text = p.to_string();
        assert!(text.contains("while"));
        assert!(text.contains("prob(0.25)"));
        assert!(text.contains("discrete"));
    }

    #[test]
    fn parses_nested_and_parenthesized_conditions() {
        let src = r#"
            func main() begin
              if (x < 1 and y >= 0) then tick(1) fi;
              if not (x == 0) then tick(2) fi;
              if (x + 1) * 2 <= y - 3 then tick(3) fi
            end
        "#;
        let p = parse_program(src).unwrap();
        assert!(p.to_string().contains("and"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_program("func main() begin x := fi end").is_err());
        assert!(parse_program("func main() begin tick() end").is_err());
        assert!(parse_program("blah").is_err());
        assert!(parse_program("func main() begin x ~ normal(0,1) end").is_err());
        assert!(parse_program("func main() begin call ghost end").is_err());
    }

    #[test]
    fn negative_numbers_in_distributions_and_constants() {
        let src = r#"
            func main() begin
              x := -3;
              t ~ uniform(-2.5, -0.5);
              y := x * -1
            end
        "#;
        let p = parse_program(src).unwrap();
        match p.main().kind() {
            StmtKind::Seq(ss) => {
                assert!(matches!(ss[0].kind(), StmtKind::Assign(_, Expr::Const(c)) if *c == -3.0));
                assert!(
                    matches!(ss[1].kind(), StmtKind::Sample(_, Dist::Uniform(a, b)) if *a == -2.5 && *b == -0.5)
                );
            }
            other => panic!("unexpected main {other:?}"),
        }
    }

    #[test]
    fn round_trips_through_the_pretty_printer() {
        let original = parse_program(RDWALK).unwrap();
        let reparsed = parse_program(&original.to_string()).unwrap();
        assert_eq!(original, reparsed);
    }

    #[test]
    fn round_trips_builder_programs() {
        let program = ProgramBuilder::new()
            .function(
                "work",
                while_loop(
                    gt(v("n"), cst(0.0)),
                    seq([
                        if_prob(0.75, assign("n", sub(v("n"), cst(1.0))), skip()),
                        tick(1.0),
                    ]),
                ),
            )
            .main(seq([assign("n", cst(5.0)), call("work")]))
            .precondition(ge(v("n"), cst(0.0)))
            .build()
            .unwrap();
        let reparsed = parse_program(&program.to_string()).unwrap();
        assert_eq!(program, reparsed);
    }

    #[test]
    fn parse_error_reports_position_and_message() {
        let err = parse_program("func main() begin @ end").unwrap_err();
        assert!(err.to_string().contains("parse error"));
        assert!(!err.message().is_empty());
    }

    #[test]
    fn parse_errors_carry_line_column_and_snippet() {
        let err = parse_program("func main() begin\n  x := @\nend").unwrap_err();
        assert_eq!(err.line(), 2);
        assert_eq!(err.col(), 8);
        let rendered = err.to_string();
        assert!(rendered.contains("parse error at 2:8"), "{rendered}");
        assert!(rendered.contains("x := @"), "{rendered}");
        assert!(rendered.contains('^'), "{rendered}");
    }

    #[test]
    fn validation_errors_point_at_the_offending_statement() {
        let err = parse_program("func main() begin\n  t ~ uniform(2, 1)\nend").unwrap_err();
        assert_eq!(err.line(), 2);
        assert_eq!(err.col(), 3);
        assert!(err.message().contains("invalid distribution"));
        assert!(err.to_string().contains("t ~ uniform(2, 1)"));

        let err = parse_program("func main() begin\n  call ghost\nend").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.message().contains("ghost"));

        let err =
            parse_program("func main() begin\n  if prob(1.5) then tick(1) fi\nend").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.message().contains("1.5"));
    }

    #[test]
    fn validation_reports_the_first_error_in_declaration_order() {
        // `b` is declared before `a`: its bad draw is reported, not the
        // bad probability of `a`, which comes first by name.
        let src = "func b() begin\n  t ~ uniform(2, 1)\nend\n\
                   func a() begin\n  if prob(1.5) then tick(1) fi\nend\n\
                   func main() begin call a; call b end";
        let err = parse_program(src).unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.message().contains("invalid distribution"), "{err}");
    }

    #[test]
    fn statements_carry_source_spans() {
        let src = "func main() begin\n  x := 0;\n  tick(1)\nend";
        let p = parse_program(src).unwrap();
        match p.main().kind() {
            StmtKind::Seq(ss) => {
                let assign_span = ss[0].span();
                assert_eq!(&src[assign_span.start..assign_span.end], "x := 0");
                let tick_span = ss[1].span();
                assert_eq!(&src[tick_span.start..tick_span.end], "tick(1)");
            }
            other => panic!("unexpected main {other:?}"),
        }
        // The sequence span covers both statements.
        assert_eq!(
            &src[p.main().span().start..p.main().span().end],
            "x := 0;\n  tick(1)"
        );
    }

    #[test]
    fn unchecked_parse_accepts_invalid_programs() {
        let p = parse_program_unchecked("func main() begin\n  t ~ uniform(2, 1)\nend").unwrap();
        assert!(matches!(p.main().kind(), StmtKind::Sample(..)));
        let p = parse_program_unchecked("func main() begin call ghost end").unwrap();
        assert!(matches!(p.main().kind(), StmtKind::Call(..)));
    }
}
