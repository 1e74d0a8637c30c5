//! `cma-check` — the static checker for Appl programs.
//!
//! A multi-pass analysis over the AST that runs before moment inference or
//! simulation:
//!
//! * **structural lints** — invalid constant distribution parameters and
//!   branch probabilities (CMA003), calls to undefined functions and
//!   unconditional recursion (CMA006), negative ticks under the
//!   nonnegative-cost soundness mode (CMA007);
//! * **definite initialization** (CMA001) — an interprocedural
//!   may-read-before-init analysis; the simulator silently reads unwritten
//!   variables as 0, which is almost never intended;
//! * **interval abstract interpretation** (CMA002, CMA004) — forward
//!   analysis with widening at loop heads over [`cma_semiring::Interval`],
//!   finding statically-refuted branches and loops whose guard the body
//!   can never change;
//! * **unused variables** (CMA005) — written-never-read variables.
//!
//! Besides diagnostics, the interval and unused passes export
//! [`RangeFacts`]: refuted branches and dead variables the inference
//! engine uses to skip derivation work and shrink the generated LP.
//!
//! # Example
//!
//! ```
//! use cma_check::{check_source, CheckConfig, Code};
//!
//! let report = check_source(
//!     "func main() begin\n  x := 1;\n  if x < 0 then tick(9) else tick(1) fi\nend\n",
//!     &CheckConfig::default(),
//! )
//! .unwrap();
//! assert_eq!(report.diagnostics().len(), 1);
//! assert_eq!(report.diagnostics()[0].code(), Code::RefutedBranch);
//! assert_eq!(report.facts().refuted_count(), 1);
//! ```

use std::collections::BTreeSet;
use std::fmt;

use cma_appl::{parse_program_unchecked, ParseError, Program, RangeFacts, SourceMap, Stmt, Var};

pub mod diagnostics;
mod init;
mod intervals;
mod structural;
mod unused;

pub use diagnostics::{Code, Diagnostic, Severity};

/// Configuration for a checker run.
#[derive(Debug, Clone, Default)]
pub struct CheckConfig {
    /// Enables CMA007: every `tick` must be nonnegative.  Off by default —
    /// the analysis handles nonmonotone costs; this mode is for users who
    /// rely on the stronger nonnegative-cost soundness argument.
    pub nonneg_cost: bool,
    /// Variables initialized externally (e.g. a benchmark valuation);
    /// reading them before a write is not a CMA001 warning.
    pub assume_init: BTreeSet<Var>,
}

/// The outcome of a checker run: diagnostics plus exported range facts.
#[derive(Debug, Clone)]
pub struct CheckReport {
    diagnostics: Vec<Diagnostic>,
    facts: RangeFacts,
}

impl CheckReport {
    /// All diagnostics, in source order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of warnings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Warning)
            .count()
    }

    /// Number of errors.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .count()
    }

    /// Whether any error-severity diagnostic was raised.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Whether the run produced no diagnostics at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The facts exported for the inference engine.
    pub fn facts(&self) -> &RangeFacts {
        &self.facts
    }

    /// Resolves every diagnostic's span against `source`, the text the
    /// checked program was parsed from, to `line:col` plus a caret snippet.
    pub fn with_source(mut self, source: &str) -> Self {
        let map = SourceMap::new(source);
        for d in &mut self.diagnostics {
            d.resolve(&map);
        }
        self
    }

    /// A one-line summary like `2 warnings, 1 error`.
    pub fn summary(&self) -> String {
        fn plural(n: usize, what: &str) -> String {
            format!("{n} {what}{}", if n == 1 { "" } else { "s" })
        }
        match (self.error_count(), self.warning_count()) {
            (0, 0) => "no diagnostics".to_string(),
            (0, w) => plural(w, "warning"),
            (e, 0) => plural(e, "error"),
            (e, w) => format!("{}, {}", plural(e, "error"), plural(w, "warning")),
        }
    }

    /// Renders the report as a JSON object (hand-rolled; the build has no
    /// serde): diagnostics with code/severity/message/span/line/col, plus
    /// counts.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"errors\":{},\"warnings\":{},\"diagnostics\":[",
            self.error_count(),
            self.warning_count()
        ));
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\",\
                 \"start\":{},\"end\":{},\"line\":{},\"col\":{}}}",
                d.code(),
                d.severity(),
                escape_json(d.message()),
                d.span().start,
                d.span().end,
                d.line_col()
                    .map_or("null".to_string(), |lc| lc.line.to_string()),
                d.line_col()
                    .map_or("null".to_string(), |lc| lc.col.to_string()),
            ));
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(f, "{}", self.summary())
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Checks a program that is already in memory.  Diagnostics carry spans
/// but no line:column until [`CheckReport::with_source`] resolves them
/// against the program's source text; builder-constructed programs carry
/// dummy spans, so their diagnostics have no position and their branch
/// facts cannot be keyed.
pub fn check_program(program: &Program, config: &CheckConfig) -> CheckReport {
    let mut diags = Vec::new();
    let mut facts = RangeFacts::new();
    structural::check(program, config, &mut diags);
    init::check(program, config, &mut diags);
    unused::check(program, &mut diags, &mut facts);
    intervals::check(program, &mut diags, &mut facts);
    diags.sort_by_key(|d| (d.span().start, d.span().end, d.code()));
    CheckReport {
        diagnostics: diags,
        facts,
    }
}

/// Parses `source` (without upfront validation — the checker reports
/// malformed constructs itself, with spans) and checks it.
///
/// # Errors
///
/// Returns the parse error if `source` is not syntactically valid Appl.
pub fn check_source(source: &str, config: &CheckConfig) -> Result<CheckReport, ParseError> {
    let program = parse_program_unchecked(source)?;
    Ok(check_program(&program, config).with_source(source))
}

/// The analysis units of a program: `main` first, then every function.
pub(crate) fn units(program: &Program) -> Vec<(&str, &Stmt)> {
    let mut units = vec![("main", program.main())];
    for f in program.functions() {
        units.push((f.name(), f.body()));
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_and_triangle_are_clean() {
        let fig2 = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/fig2.appl"
        ))
        .unwrap();
        let report = check_source(&fig2, &CheckConfig::default()).unwrap();
        assert!(report.is_clean(), "{report}");

        let triangle = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/triangle.appl"
        ))
        .unwrap();
        let report = check_source(&triangle, &CheckConfig::default()).unwrap();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn diagnostics_carry_line_and_column() {
        let source = "func main() begin\n  x := 1;\n  if x < 0 then tick(9) else tick(1) fi\nend\n";
        let report = check_source(source, &CheckConfig::default()).unwrap();
        assert_eq!(report.diagnostics().len(), 1);
        let d = &report.diagnostics()[0];
        let lc = d.line_col().expect("resolved against the source map");
        assert_eq!((lc.line, lc.col), (3, 3));
        assert!(d.snippet().unwrap().contains("if x < 0"));
    }

    #[test]
    fn report_summary_and_json() {
        let source = "func main() begin\n  w := 1;\n  x ~ uniform(2, 1)\nend\n";
        let report = check_source(source, &CheckConfig::default()).unwrap();
        // CMA003 error (bad uniform) + CMA005 warnings (w and x unused).
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.warning_count(), 2);
        assert!(report.has_errors());
        assert_eq!(report.summary(), "1 error, 2 warnings");
        let json = report.to_json();
        assert!(json.contains("\"errors\":1"), "{json}");
        assert!(json.contains("\"code\":\"CMA003\""), "{json}");
        assert!(json.contains("\"line\":3"), "{json}");
    }

    #[test]
    fn builder_programs_check_without_spans() {
        use cma_appl::build::*;
        let program = ProgramBuilder::new()
            .main(seq([assign("y", v("x")), tick(1.0)]))
            .build()
            .unwrap();
        let report = check_program(&program, &CheckConfig::default());
        // `x` read before init, `y` never read.
        assert_eq!(report.warning_count(), 2);
        assert!(report.diagnostics().iter().all(|d| d.line_col().is_none()));
        // Dummy spans cannot key branch facts, but dead vars still export.
        assert!(report.facts().dead_template_vars().contains(&Var::new("y")));
    }

    #[test]
    fn escape_json_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
