//! `cma` — the command line of the central-moment analysis.
//!
//! ```text
//! cma analyze  <file.appl> [--degree N] [--timeout SECS] [--json] …
//! cma check    <file.appl>… [--deny warnings] [--nonneg-cost] [--json]
//! cma simulate <file.appl> [--trials N] [--seed N] [--timeout SECS] [--json] …
//! cma tail     <file.appl> --thresholds d1,d2,… [--json] …
//! cma suite    list|run [name|all] [--degree N] [--json]
//! cma corpus   gen --out DIR [--seed N] [--count K] [--hostile]
//! cma corpus   run <file|dir>… [--jobs N] [--timeout SECS] [--journal FILE] …
//! ```
//!
//! Every subcommand accepts `--json` for machine-readable output; the human
//! rendering is the `Display` of the same [`AnalysisReport`], so the two views
//! never drift apart.  Argument parsing is hand-rolled: the dependency-free
//! build environment has no `clap`, and the grammar is small.
//!
//! [`AnalysisReport`]: central_moment_analysis::AnalysisReport

use std::io::Write as _;
use std::process::ExitCode;

use central_moment_analysis::suite::{self, Benchmark};
use central_moment_analysis::{check, json, Analysis, CheckConfig, CmaError, SolveMode, Var};

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => { write_stdout(format_args!($($arg)*)) };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    () => { out!("\n") };
    ($($arg:tt)*) => { out!("{}\n", format_args!($($arg)*)) };
}

/// Writes to stdout, where all of `cma`'s output goes.  A reader that
/// stopped reading (`cma analyze … | head -1`) ends the process quietly
/// with exit status 0: the output it wanted has been delivered.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    let written = {
        let mut stdout = std::io::stdout().lock();
        stdout.write_fmt(args).and_then(|()| stdout.flush())
    };
    match written {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

const USAGE: &str = "\
cma — central moment analysis for cost accumulators in probabilistic programs

USAGE:
    cma analyze  <file.appl> [OPTIONS]     derive moment/variance/tail bounds
    cma check    <file.appl>… [OPTIONS]    run the static checks (CMA001–CMA007)
    cma simulate <file.appl> [OPTIONS]     Monte-Carlo estimate of the same moments
    cma tail     <file.appl> --thresholds d1,d2,… [OPTIONS]
                                           tail bounds P[C >= d] at thresholds
    cma suite    list                      list the paper's benchmark programs
    cma suite    run <name|all> [OPTIONS]  analyze benchmark(s) from the suite
    cma corpus   gen --out DIR [OPTIONS]   write a deterministic generated corpus
    cma corpus   run <file|dir>… [OPTIONS] analyze a corpus in isolated child
                                           processes (crash/hang containment)

ANALYSIS OPTIONS:
    --degree N           target moment degree m (default 2)
    --poly-degree D      base polynomial degree of templates (default 1)
    --max-poly-degree D  on an infeasible LP, retry with base degrees up to D
                         (each retry a fresh analysis)
    --escalate M         solve at degree M first, then escalate the live LP
                         session to --degree (warm dual re-solve, no re-derive)
    --mode MODE          global | compositional (default global)
    --threads N          solve independent compositional groups on N threads
    --timeout SECS       wall-clock budget for the whole analysis, soundness
                         checks included; when it runs out, the analysis
                         fails with `budget exhausted`
    --group-timeout SECS wall-clock budget per LP group solve; when one runs
                         out, the degradation ladder retries with cheaper
                         settings and labels the (still sound) weaker bounds
    --valuation K=V,…    initial-state valuation, e.g. d=10,x=0
    --tail D1,D2,…       tail-bound thresholds (default 2x/4x/8x mean bound)
    --no-soundness       skip the Thm 4.4 side-condition checks
    --no-check           skip the pre-analysis static checks
    --no-check-pruning   run the checks but prune neither LP (the analysis's nor
                         the soundness re-analysis's) with their facts
    --nonneg-cost        enable CMA007 in the pre-analysis checks (see below)
    --label NAME         label the report (defaults to the file name)

CHECK OPTIONS:
    --deny warnings      treat warnings as fatal (exit 1)
    --nonneg-cost        enable CMA007: every tick must be nonnegative
    --valuation K=V,…    variables assumed initialized (suppresses CMA001)

SIMULATION OPTIONS:
    --trials N           number of Monte-Carlo trials (default 10000)
    --seed N             RNG seed (default 12648430)
    --max-steps N        per-trial step budget (default 1000000)
    --strict-init        abort a trial on any read of an uninitialized variable
    --timeout SECS       wall-clock budget; completed trials are kept and the
                         statistics are labeled as truncated

CORPUS OPTIONS:
    --out DIR            (gen) output directory for the generated programs
    --seed N             (gen) base seed; program i uses seed N+i (default 1)
    --count K            (gen) number of generated programs (default 100)
    --hostile            (gen) also write hostile.appl, a fixture whose
                         analysis is expensive enough to trip any deadline
    --jobs N             (run) concurrent child processes (default 4)
    --timeout SECS       (run) hard per-program deadline; the child process is
                         killed when it passes (default 10)
    --retries N          (run) extra attempts for crashes and hard-deadline
                         kills (default 1); an in-child budget exhaustion
                         is final
    --journal FILE       (run) NDJSON journal; re-running against an existing
                         journal resumes, skipping recorded programs
                         (default corpus.journal.ndjson)
    --cma PATH           (run) analyzer binary to invoke (default: this binary);
                         every ANALYSIS OPTION except --timeout is forwarded
                         to it

COMMON OPTIONS:
    --json               emit the full report as JSON on stdout
    -h, --help           show this help
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "-h" || args[0] == "--help" {
        out!("{USAGE}");
        return if args.is_empty() {
            ExitCode::from(2)
        } else {
            ExitCode::SUCCESS
        };
    }
    let result = match args[0].as_str() {
        "analyze" => cmd_analyze(&args[1..], false),
        "tail" => cmd_analyze(&args[1..], true),
        "check" => cmd_check(&args[1..]),
        "simulate" => cmd_simulate(&args[1..]),
        "suite" => cmd_suite(&args[1..]),
        "corpus" => cmd_corpus(&args[1..]),
        other => Err(CmaError::Usage(format!(
            "unknown subcommand `{other}` (expected analyze, check, simulate, tail, suite, or corpus)"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cma: {e}");
            if let Some((_, poly_degree)) = e.infeasible_at() {
                // If automatic escalation already ran, the budget was
                // exhausted — suggesting the same flag again would loop.
                let retried = std::env::args().any(|a| a == "--max-poly-degree");
                if retried {
                    eprintln!(
                        "hint: templates stayed infeasible up to the --max-poly-degree \
                         limit (last tried degree {poly_degree}); raise the limit only \
                         if a polynomial bound of higher degree plausibly exists"
                    );
                } else {
                    eprintln!(
                        "hint: the degree-{poly_degree} templates cannot express a bound \
                         for this program; retry with `--max-poly-degree {}` to let the \
                         analysis escalate the template degree automatically",
                        poly_degree + 1
                    );
                }
            }
            if e.is_usage() {
                eprintln!("run `cma --help` for usage");
                ExitCode::from(2)
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

/// Options shared by `analyze`, `tail`, and `suite run`.
#[derive(Debug, Clone, Default)]
struct AnalyzeOpts {
    degree: Option<usize>,
    poly_degree: Option<u32>,
    max_poly_degree: Option<u32>,
    escalate: Option<usize>,
    mode: Option<SolveMode>,
    threads: Option<usize>,
    valuation: Option<Vec<(Var, f64)>>,
    tail: Option<Vec<f64>>,
    no_soundness: bool,
    no_check: bool,
    no_check_pruning: bool,
    label: Option<String>,
    json: bool,
    /// Wall-clock budgets, in seconds (`analyze`: whole analysis and per LP
    /// group; `simulate`: the campaign; `corpus run`: hard kill deadline).
    timeout: Option<f64>,
    group_timeout: Option<f64>,
    /// Positional arguments (file name, benchmark name, …).
    positional: Vec<String>,
    /// Simulation-only knobs (accepted everywhere, used by `simulate`).
    trials: Option<usize>,
    seed: Option<u64>,
    max_steps: Option<usize>,
    strict_init: bool,
    /// `cma check`-only knobs.
    deny_warnings: bool,
    nonneg_cost: bool,
    /// `cma corpus`-only knobs.
    out: Option<String>,
    count: Option<usize>,
    hostile: bool,
    jobs: Option<usize>,
    retries: Option<u32>,
    journal: Option<String>,
    cma_binary: Option<String>,
    /// Every `--flag [value]` as given, in order (what `corpus run`
    /// forwards to its child analyses).
    flags: Vec<Vec<String>>,
}

fn parse_opts(args: &[String]) -> Result<AnalyzeOpts, CmaError> {
    let mut opts = AnalyzeOpts::default();
    let mut it = args.iter();
    let missing = |flag: &str| CmaError::Usage(format!("missing value for `{flag}`"));
    while let Some(arg) = it.next() {
        let start = args.len() - it.len() - 1;
        match arg.as_str() {
            "--json" => opts.json = true,
            "--no-soundness" => opts.no_soundness = true,
            "--no-check" => opts.no_check = true,
            "--no-check-pruning" => opts.no_check_pruning = true,
            "--strict-init" => opts.strict_init = true,
            "--nonneg-cost" => opts.nonneg_cost = true,
            "--deny" => {
                let v = it.next().ok_or_else(|| missing("--deny"))?;
                if v != "warnings" {
                    return Err(CmaError::Usage(format!(
                        "invalid value `{v}` for `--deny` (expected warnings)"
                    )));
                }
                opts.deny_warnings = true;
            }
            "--degree" => {
                let v = it.next().ok_or_else(|| missing("--degree"))?;
                opts.degree = Some(parse_num(v, "--degree")?);
            }
            "--poly-degree" => {
                let v = it.next().ok_or_else(|| missing("--poly-degree"))?;
                opts.poly_degree = Some(parse_num(v, "--poly-degree")?);
            }
            "--max-poly-degree" => {
                let v = it.next().ok_or_else(|| missing("--max-poly-degree"))?;
                opts.max_poly_degree = Some(parse_num(v, "--max-poly-degree")?);
            }
            "--escalate" => {
                let v = it.next().ok_or_else(|| missing("--escalate"))?;
                opts.escalate = Some(parse_num(v, "--escalate")?);
            }
            "--trials" => {
                let v = it.next().ok_or_else(|| missing("--trials"))?;
                opts.trials = Some(parse_num(v, "--trials")?);
            }
            "--seed" => {
                let v = it.next().ok_or_else(|| missing("--seed"))?;
                opts.seed = Some(parse_num(v, "--seed")?);
            }
            "--max-steps" => {
                let v = it.next().ok_or_else(|| missing("--max-steps"))?;
                opts.max_steps = Some(parse_num(v, "--max-steps")?);
            }
            "--mode" => {
                let v = it.next().ok_or_else(|| missing("--mode"))?;
                opts.mode = Some(match v.as_str() {
                    "global" => SolveMode::Global,
                    "compositional" => SolveMode::Compositional,
                    other => {
                        return Err(CmaError::Usage(format!(
                            "invalid --mode `{other}` (expected global or compositional)"
                        )))
                    }
                });
            }
            "--threads" => {
                let v = it.next().ok_or_else(|| missing("--threads"))?;
                opts.threads = Some(parse_num(v, "--threads")?);
            }
            "--valuation" => {
                let v = it.next().ok_or_else(|| missing("--valuation"))?;
                opts.valuation = Some(parse_valuation(v)?);
            }
            "--tail" | "--thresholds" => {
                let v = it.next().ok_or_else(|| missing(arg))?;
                opts.tail = Some(parse_f64_list(v, arg)?);
            }
            "--label" => {
                let v = it.next().ok_or_else(|| missing("--label"))?;
                opts.label = Some(v.clone());
            }
            "--timeout" => {
                let v = it.next().ok_or_else(|| missing("--timeout"))?;
                opts.timeout = Some(parse_secs(v, "--timeout")?);
            }
            "--group-timeout" => {
                let v = it.next().ok_or_else(|| missing("--group-timeout"))?;
                opts.group_timeout = Some(parse_secs(v, "--group-timeout")?);
            }
            "--out" => {
                let v = it.next().ok_or_else(|| missing("--out"))?;
                opts.out = Some(v.clone());
            }
            "--count" => {
                let v = it.next().ok_or_else(|| missing("--count"))?;
                opts.count = Some(parse_num(v, "--count")?);
            }
            "--hostile" => opts.hostile = true,
            "--jobs" => {
                let v = it.next().ok_or_else(|| missing("--jobs"))?;
                opts.jobs = Some(parse_num(v, "--jobs")?);
            }
            "--retries" => {
                let v = it.next().ok_or_else(|| missing("--retries"))?;
                opts.retries = Some(parse_num(v, "--retries")?);
            }
            "--journal" => {
                let v = it.next().ok_or_else(|| missing("--journal"))?;
                opts.journal = Some(v.clone());
            }
            "--cma" => {
                let v = it.next().ok_or_else(|| missing("--cma"))?;
                opts.cma_binary = Some(v.clone());
            }
            "-h" | "--help" => {
                out!("{USAGE}");
                std::process::exit(0);
            }
            flag if flag.starts_with("--") => {
                return Err(CmaError::Usage(format!("unknown option `{flag}`")));
            }
            positional => {
                opts.positional.push(positional.to_string());
                continue;
            }
        }
        opts.flags.push(args[start..args.len() - it.len()].to_vec());
    }
    Ok(opts)
}

fn parse_num<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, CmaError> {
    value
        .parse()
        .map_err(|_| CmaError::Usage(format!("invalid value `{value}` for `{flag}`")))
}

/// Parses a positive seconds value (fractions allowed: `0.25`).
fn parse_secs(value: &str, flag: &str) -> Result<f64, CmaError> {
    let secs: f64 = parse_num(value, flag)?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(CmaError::Usage(format!(
            "invalid value `{value}` for `{flag}` (expected a nonnegative number of seconds)"
        )));
    }
    Ok(secs)
}

/// Parses `d=10,x=0.5` into variable bindings.
fn parse_valuation(spec: &str) -> Result<Vec<(Var, f64)>, CmaError> {
    spec.split(',')
        .filter(|part| !part.is_empty())
        .map(|part| {
            let (name, value) = part.split_once('=').ok_or_else(|| {
                CmaError::Usage(format!(
                    "invalid valuation entry `{part}` (expected var=value)"
                ))
            })?;
            let value: f64 = value.parse().map_err(|_| {
                CmaError::Usage(format!(
                    "invalid number `{value}` in valuation entry `{part}`"
                ))
            })?;
            Ok((Var::new(name.trim()), value))
        })
        .collect()
}

fn parse_f64_list(spec: &str, flag: &str) -> Result<Vec<f64>, CmaError> {
    spec.split(',')
        .filter(|part| !part.is_empty())
        .map(|part| {
            part.trim()
                .parse()
                .map_err(|_| CmaError::Usage(format!("invalid number `{part}` for `{flag}`")))
        })
        .collect()
}

fn read_source(path: &str) -> Result<String, CmaError> {
    std::fs::read_to_string(path).map_err(|e| CmaError::io(path, e))
}

/// Applies every analysis knob of `opts` shared by `analyze`/`tail` and
/// `suite run` (labels are call-site specific).  One place to wire a new
/// flag, so the two paths cannot drift.
fn apply_analysis_opts(mut analysis: Analysis, opts: &AnalyzeOpts) -> Analysis {
    analysis = analysis
        .soundness(!opts.no_soundness)
        .check(!opts.no_check)
        .check_pruning(!opts.no_check_pruning)
        .check_nonneg_cost(opts.nonneg_cost);
    if let Some(degree) = opts.degree {
        analysis = analysis.degree(degree);
    }
    if let Some(d) = opts.poly_degree {
        analysis = analysis.poly_degree(d);
    }
    if let Some(d) = opts.max_poly_degree {
        analysis = analysis.max_poly_degree(d);
    }
    if let Some(from) = opts.escalate {
        analysis = analysis.escalate_from(from);
    }
    if let Some(mode) = opts.mode {
        analysis = analysis.mode(mode);
    }
    if let Some(threads) = opts.threads {
        analysis = analysis.threads(threads);
    }
    if let Some(secs) = opts.timeout {
        analysis = analysis.timeout(std::time::Duration::from_secs_f64(secs));
    }
    if let Some(secs) = opts.group_timeout {
        analysis = analysis.group_timeout(std::time::Duration::from_secs_f64(secs));
    }
    if let Some(valuation) = &opts.valuation {
        analysis = analysis.valuation(valuation.clone());
    }
    if let Some(tail) = &opts.tail {
        analysis = analysis.tail_at(tail.iter().copied());
    }
    analysis
}

fn configured_analysis(source: &str, path: &str, opts: &AnalyzeOpts) -> Result<Analysis, CmaError> {
    let analysis = Analysis::parse(source)
        .map_err(|e| e.with_context(format!("while parsing `{path}`")))?
        .label(opts.label.clone().unwrap_or_else(|| path.to_string()));
    Ok(apply_analysis_opts(analysis, opts))
}

/// Runs `f` with panic containment: a panic anywhere inside the analysis
/// becomes a structured [`CmaError::Internal`] carrying the program path,
/// instead of aborting the process.  One bad program must produce one bad
/// exit status — never take a batch driver (or the corpus runner's
/// bookkeeping of *why* a child died) down with it.
fn contain_panics<T>(path: &str, f: impl FnOnce() -> Result<T, CmaError>) -> Result<T, CmaError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "analysis panicked".to_string());
        Err(CmaError::internal(path, message))
    })
}

/// Test-only failure injection for the corpus runner's isolation tests:
/// `CMA_CRASH_ON=needle` aborts (an uncontainable process death) and
/// `CMA_PANIC_ON=needle` panics (contained by [`contain_panics`]) when the
/// program path contains the needle.
fn injected_failure(path: &str) {
    if let Ok(needle) = std::env::var("CMA_CRASH_ON") {
        if !needle.is_empty() && path.contains(&needle) {
            eprintln!("cma: injected crash for `{path}`");
            std::process::abort();
        }
    }
    if let Ok(needle) = std::env::var("CMA_PANIC_ON") {
        if !needle.is_empty() && path.contains(&needle) {
            panic!("injected panic for `{path}`");
        }
    }
}

fn cmd_analyze(args: &[String], tail_only: bool) -> Result<(), CmaError> {
    let opts = parse_opts(args)?;
    let [path] = opts.positional.as_slice() else {
        return Err(CmaError::Usage(
            "expected exactly one <file.appl> argument".into(),
        ));
    };
    if tail_only && opts.tail.is_none() {
        return Err(CmaError::Usage(
            "`cma tail` requires `--thresholds d1,d2,…`".into(),
        ));
    }
    let source = read_source(path)?;
    let report = contain_panics(path, || {
        injected_failure(path);
        configured_analysis(&source, path, &opts)?.run()
    })
    .map_err(|e| {
        print_check_diagnostics(&e);
        e.with_context(format!("while analyzing `{path}`"))
    })?;
    // Checker warnings surface once, on stderr, so `--json` stdout stays a
    // single machine-readable object (which carries them too).
    if !opts.json {
        if let Some(c) = &report.check {
            for d in &c.diagnostics {
                eprintln!("{d}");
            }
        }
    }
    if opts.json {
        outln!("{}", report.to_json());
    } else if tail_only {
        outln!("tail bounds for {path} (degree {}):", report.degree);
        for t in &report.tail {
            outln!("  P[C >= {:.4}] <= {:.6}", t.threshold, t.probability);
        }
    } else {
        out!("{report}");
    }
    Ok(())
}

/// Prints the individual diagnostics of a failed static check to stderr
/// (the error itself renders only the one-line summary).
fn print_check_diagnostics(e: &CmaError) {
    if let Some(report) = e.check_report() {
        for d in report.diagnostics() {
            eprintln!("{d}");
        }
    }
}

/// The checker configuration shared by `cma check` and the automatic checks
/// of `analyze`/`simulate`: a `--valuation` binding counts as initialized.
fn check_config(opts: &AnalyzeOpts) -> CheckConfig {
    CheckConfig {
        nonneg_cost: opts.nonneg_cost,
        assume_init: opts
            .valuation
            .iter()
            .flatten()
            .map(|(v, _)| v.clone())
            .collect(),
    }
}

fn cmd_check(args: &[String]) -> Result<(), CmaError> {
    let opts = parse_opts(args)?;
    if opts.positional.is_empty() {
        return Err(CmaError::Usage(
            "expected at least one <file.appl> argument".into(),
        ));
    }
    let config = check_config(&opts);
    let many = opts.positional.len() > 1;
    let mut failed: Option<CmaError> = None;
    for path in &opts.positional {
        let source = read_source(path)?;
        let report = check::check_source(&source, &config)
            .map_err(|e| CmaError::from(e).with_context(format!("while parsing `{path}`")))?;
        if opts.json {
            // One object per line (label spliced into the report object), so
            // multi-file runs stream as JSON lines.
            let body = report.to_json();
            outln!(
                "{{\"label\":{},{}",
                json::string(path),
                body.strip_prefix('{').unwrap_or(&body)
            );
        } else {
            if many {
                outln!("{path}:");
            }
            outln!("{report}");
        }
        let denied = report.has_errors() || (opts.deny_warnings && report.warning_count() > 0);
        if denied && failed.is_none() {
            failed = Some(CmaError::Check(Box::new(report)).with_context(format!("in `{path}`")));
        }
    }
    match failed {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

fn cmd_simulate(args: &[String]) -> Result<(), CmaError> {
    use central_moment_analysis::sim::{simulate, try_simulate_with, SimConfig};

    let opts = parse_opts(args)?;
    let [path] = opts.positional.as_slice() else {
        return Err(CmaError::Usage(
            "expected exactly one <file.appl> argument".into(),
        ));
    };
    let source = read_source(path)?;
    let program = central_moment_analysis::parse_program(&source)
        .map_err(|e| CmaError::from(e).with_context(format!("while parsing `{path}`")))?;
    // Same contract as `analyze`: checker errors abort before any trial runs
    // (a strict simulation of a use-before-init program would only confirm
    // what the checker already proved), warnings print once.
    if !opts.no_check {
        let report = check::check_program(&program, &check_config(&opts)).with_source(&source);
        for d in report.diagnostics() {
            eprintln!("{d}");
        }
        if report.has_errors() {
            return Err(CmaError::Check(Box::new(report))
                .with_context(format!("while simulating `{path}`")));
        }
    }
    let mut config = SimConfig {
        strict_init: opts.strict_init,
        ..SimConfig::default()
    };
    if let Some(trials) = opts.trials {
        config.trials = trials;
    }
    if let Some(seed) = opts.seed {
        config.seed = seed;
    }
    if let Some(max_steps) = opts.max_steps {
        config.max_steps = max_steps;
    }
    if let Some(valuation) = &opts.valuation {
        config.initial = valuation.clone();
    }
    if let Some(secs) = opts.timeout {
        config.timeout = Some(std::time::Duration::from_secs_f64(secs));
    }
    // Strict mode may legitimately abort a trial on an uninitialized read, so
    // it takes the fallible entry point.  Panic containment mirrors
    // `analyze`: one pathological program yields one structured error.
    let stats = contain_panics(path, || {
        if opts.strict_init {
            try_simulate_with(&program, &config, |_| {})
                .map_err(|e| CmaError::from(e).with_context(format!("while simulating `{path}`")))
        } else {
            Ok(simulate(&program, &config))
        }
    })?;
    if opts.json {
        outln!(
            "{}",
            json::object([
                ("label", json::string(path)),
                ("trials", stats.len().to_string()),
                ("seed", config.seed.to_string()),
                ("cutoff_trials", stats.cutoff_trials().to_string()),
                ("uninit_reads", stats.uninit_reads().to_string()),
                ("timed_out", stats.timed_out().to_string()),
                ("mean", json::num(stats.mean())),
                ("variance", json::num(stats.variance())),
                ("skewness", json::num(stats.skewness())),
                ("kurtosis", json::num(stats.kurtosis())),
                (
                    "raw_moments",
                    json::array((1..=4).map(|k| json::num(stats.raw_moment(k)))),
                ),
                ("min", json::num(stats.min())),
                ("max", json::num(stats.max())),
            ])
        );
    } else {
        outln!(
            "simulation of {path}: {} trials, seed {}",
            stats.len(),
            config.seed
        );
        if stats.timed_out() {
            outln!(
                "  warning: wall-clock budget ran out after {} of {} trials \
                 (statistics cover the completed prefix)",
                stats.len(),
                config.trials
            );
        }
        if stats.cutoff_trials() > 0 {
            outln!(
                "  warning: {} trials hit the step budget",
                stats.cutoff_trials()
            );
        }
        if stats.uninit_reads() > 0 {
            outln!(
                "  warning: {} reads of uninitialized variables (evaluated as 0; \
                 rerun with --strict-init to make them fatal)",
                stats.uninit_reads()
            );
        }
        outln!("  E[C]      = {:.6}", stats.mean());
        outln!("  E[C^2]    = {:.6}", stats.raw_moment(2));
        outln!("  V[C]      = {:.6}", stats.variance());
        outln!("  skewness  = {:.6}", stats.skewness());
        outln!("  kurtosis  = {:.6}", stats.kurtosis());
        outln!("  range     = [{:.4}, {:.4}]", stats.min(), stats.max());
    }
    Ok(())
}

/// Resolves a `suite run` id: qualified ids (`running/rdwalk`) are exact;
/// bare names are accepted when unambiguous and rejected with the matching
/// qualified ids otherwise.
fn resolve_benchmark(name: &str) -> Result<Benchmark, CmaError> {
    let matches = suite::find_benchmarks(name);
    match matches.len() {
        0 => Err(CmaError::Usage(format!(
            "unknown benchmark `{name}`; run `cma suite list`"
        ))),
        1 => Ok(matches.into_iter().next().expect("one match")),
        _ => {
            let ids = matches
                .iter()
                .map(|b| b.qualified_name())
                .collect::<Vec<_>>()
                .join(", ");
            Err(CmaError::Usage(format!(
                "ambiguous benchmark `{name}` (matches {ids}); use the qualified id"
            )))
        }
    }
}

fn cmd_suite(args: &[String]) -> Result<(), CmaError> {
    let Some(action) = args.first() else {
        return Err(CmaError::Usage(
            "expected `suite list` or `suite run <name|all>`".into(),
        ));
    };
    match action.as_str() {
        "list" => {
            let opts = parse_opts(&args[1..])?;
            let benchmarks = suite::all_benchmarks();
            if opts.json {
                // Rows go through the shared report JSON writer, so the
                // encoders of `suite list` and `analyze --json` cannot drift.
                let rows = benchmarks.iter().map(|b| {
                    json::object([
                        ("name", json::string(&b.qualified_name())),
                        ("suite", json::string(&b.suite)),
                        ("degree", b.degree.to_string()),
                        ("description", json::string(&b.description)),
                    ])
                });
                outln!("{}", json::array(rows));
            } else {
                outln!("{} benchmarks:", benchmarks.len());
                for b in &benchmarks {
                    outln!(
                        "  {:<26} (degree {})  {}",
                        b.qualified_name(),
                        b.degree,
                        b.description
                    );
                }
            }
            Ok(())
        }
        "run" => {
            let opts = parse_opts(&args[1..])?;
            let [name] = opts.positional.as_slice() else {
                return Err(CmaError::Usage("expected `suite run <name|all>`".into()));
            };
            let selected: Vec<Benchmark> = if name == "all" {
                suite::all_benchmarks()
            } else {
                vec![resolve_benchmark(name)?]
            };
            let mut json_rows = Vec::new();
            let mut failures = 0usize;
            for b in &selected {
                let mut analysis = apply_analysis_opts(Analysis::benchmark(b), &opts);
                if let Some(label) = &opts.label {
                    analysis = analysis.label(label.clone());
                }
                match analysis.run() {
                    Ok(report) => {
                        if opts.json {
                            json_rows.push(report.to_json());
                        } else {
                            out!("{report}");
                            outln!();
                        }
                    }
                    Err(e) => {
                        failures += 1;
                        if opts.json {
                            json_rows.push(json::object([
                                ("label", json::string(&b.qualified_name())),
                                ("error", json::string(&e.to_string())),
                            ]));
                        } else {
                            outln!("{}: {e}", b.qualified_name());
                            outln!();
                        }
                    }
                }
            }
            if opts.json {
                outln!("{}", json::array(json_rows));
            } else if failures > 0 {
                outln!("({failures} benchmark(s) not analyzable at the requested degree)");
            }
            Ok(())
        }
        other => Err(CmaError::Usage(format!(
            "unknown suite action `{other}` (expected list or run)"
        ))),
    }
}

/// Expands `corpus run` positionals: directories contribute their `.appl`
/// files (sorted, for deterministic journals), plain paths pass through.
fn collect_corpus(positional: &[String]) -> Result<Vec<std::path::PathBuf>, CmaError> {
    let mut programs = Vec::new();
    for arg in positional {
        let path = std::path::PathBuf::from(arg);
        if path.is_dir() {
            let mut files: Vec<_> = std::fs::read_dir(&path)
                .map_err(|e| CmaError::io(arg, e))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|ext| ext == "appl"))
                .collect();
            files.sort();
            programs.extend(files);
        } else {
            programs.push(path);
        }
    }
    if programs.is_empty() {
        return Err(CmaError::Usage(
            "`cma corpus run` found no programs (expected .appl files or directories)".into(),
        ));
    }
    Ok(programs)
}

/// Flags of `corpus run` itself, which its child analyses never see: the
/// runner sets the child's `--json` output and derives its soft `--timeout`
/// from the hard per-program deadline.
const CORPUS_RUN_FLAGS: [&str; 6] = [
    "--jobs",
    "--timeout",
    "--retries",
    "--journal",
    "--cma",
    "--json",
];

/// The flags forwarded verbatim to every child `cma analyze` of a corpus
/// campaign: every flag given to `corpus run` except its own.  Child and
/// parent parse flags with the same [`parse_opts`], so a new analysis flag
/// is forwarded without a line here.
fn corpus_passthrough(opts: &AnalyzeOpts) -> Vec<String> {
    opts.flags
        .iter()
        .filter(|flag| !CORPUS_RUN_FLAGS.contains(&flag[0].as_str()))
        .flatten()
        .cloned()
        .collect()
}

fn cmd_corpus(args: &[String]) -> Result<(), CmaError> {
    use cma_corpus::{run_campaign, write_corpus, CampaignConfig};

    let Some(action) = args.first() else {
        return Err(CmaError::Usage(
            "expected `corpus gen --out DIR` or `corpus run <file|dir>…`".into(),
        ));
    };
    match action.as_str() {
        "gen" => {
            let opts = parse_opts(&args[1..])?;
            let Some(out) = &opts.out else {
                return Err(CmaError::Usage(
                    "`cma corpus gen` requires `--out DIR`".into(),
                ));
            };
            let seed = opts.seed.unwrap_or(1);
            let count = opts.count.unwrap_or(100);
            let dir = std::path::Path::new(out);
            let paths =
                write_corpus(dir, seed, count, opts.hostile).map_err(|e| CmaError::io(out, e))?;
            if opts.json {
                outln!(
                    "{}",
                    json::object([
                        ("dir", json::string(out)),
                        ("seed", seed.to_string()),
                        ("count", paths.len().to_string()),
                        (
                            "programs",
                            json::array(paths.iter().map(|p| json::string(&p.to_string_lossy())),),
                        ),
                    ])
                );
            } else {
                outln!(
                    "wrote {} programs to {out} (seeds {seed}..{}{})",
                    paths.len(),
                    seed + count as u64,
                    if opts.hostile {
                        ", plus hostile.appl"
                    } else {
                        ""
                    }
                );
            }
            Ok(())
        }
        "run" => {
            let opts = parse_opts(&args[1..])?;
            let programs = collect_corpus(&opts.positional)?;
            let cma = match &opts.cma_binary {
                Some(path) => std::path::PathBuf::from(path),
                None => {
                    std::env::current_exe().map_err(|e| CmaError::io("current executable", e))?
                }
            };
            let config = CampaignConfig {
                cma,
                programs,
                jobs: opts.jobs.unwrap_or(4),
                timeout: std::time::Duration::from_secs_f64(opts.timeout.unwrap_or(10.0)),
                retries: opts.retries.unwrap_or(1),
                journal: std::path::PathBuf::from(
                    opts.journal.as_deref().unwrap_or("corpus.journal.ndjson"),
                ),
                analyze_args: corpus_passthrough(&opts),
            };
            let report = run_campaign(&config)
                .map_err(|e| CmaError::io(config.journal.display().to_string(), e))?;
            if opts.json {
                outln!("{}", report.to_json());
            } else {
                out!("{report}");
            }
            // Timeouts and rejected programs are expected in the wild;
            // crashes mean containment failed somewhere and must fail CI.
            if report.crashes() > 0 {
                return Err(CmaError::Internal {
                    path: None,
                    message: format!(
                        "{} program(s) crashed the analyzer (see the journal at `{}`)",
                        report.crashes(),
                        config.journal.display()
                    ),
                });
            }
            Ok(())
        }
        other => Err(CmaError::Usage(format!(
            "unknown corpus action `{other}` (expected gen or run)"
        ))),
    }
}
