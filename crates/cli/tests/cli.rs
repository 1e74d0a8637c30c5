//! End-to-end tests of the `cma` binary: a golden test pinning the
//! `analyze --json` report format, plus behavioral checks of the other
//! subcommands and of error handling.

use std::path::PathBuf;
use std::process::{Command, Output};

use central_moment_analysis::lp::CounterKind;
use central_moment_analysis::SolveStats;

fn cma() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cma"))
}

fn repo_root() -> PathBuf {
    // crates/cli → repo root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
        .to_path_buf()
}

fn fig2() -> String {
    repo_root().join("examples/fig2.appl").display().to_string()
}

fn run(args: &[&str]) -> Output {
    cma().args(args).output().expect("cma runs")
}

fn stdout(output: &Output) -> String {
    assert!(
        output.status.success(),
        "cma failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout.clone()).expect("utf-8 output")
}

/// Strips the single volatile section (`"timings":{…}`, always emitted last)
/// so reports compare reproducibly.
fn strip_timings(json: &str) -> String {
    let json = json.trim();
    match json.rfind(",\"timings\":") {
        Some(i) => format!("{}{}", &json[..i], "}"),
        None => json.to_string(),
    }
}

/// Zeroes every occurrence of the volatile solver counters
/// (`"ftran_ns":N`, …): the *presence* of the fields is pinned by the golden
/// report, their values are as volatile as the timings section.
fn zero_ns_fields(json: &str) -> String {
    let mut out = json.to_string();
    for counter in SolveStats::COUNTERS {
        if counter.kind != CounterKind::Volatile {
            continue;
        }
        let pat = format!("\"{}\":", counter.name);
        let mut normalized = String::with_capacity(out.len());
        let mut rest = out.as_str();
        while let Some(i) = rest.find(&pat) {
            let end = i + pat.len();
            normalized.push_str(&rest[..end]);
            normalized.push('0');
            rest = &rest[end..];
            let digits = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest = &rest[digits..];
        }
        normalized.push_str(rest);
        out = normalized;
    }
    out
}

#[test]
fn analyze_json_matches_the_golden_report() {
    let output = run(&[
        "analyze",
        &fig2(),
        "--degree",
        "2",
        "--valuation",
        "d=10,x=0",
        "--tail",
        "40,80",
        "--no-soundness",
        "--label",
        "fig2",
        "--json",
    ]);
    let actual = zero_ns_fields(&strip_timings(&stdout(&output)));
    let golden = include_str!("golden/fig2_analyze.json").trim();
    assert_eq!(
        actual, golden,
        "cma analyze --json drifted from the golden report"
    );
}

#[test]
fn analyze_human_output_reports_moments_variance_and_tail_in_one_invocation() {
    // The acceptance criterion of the pipeline redesign: E[C], E[C²],
    // variance, and a Cantelli-backed tail bound from a single `cma analyze`.
    let output = run(&[
        "analyze",
        &fig2(),
        "--valuation",
        "d=10,x=0",
        "--no-soundness",
    ]);
    let text = stdout(&output);
    assert!(text.contains("E[C^1]"), "missing E[C]: {text}");
    assert!(text.contains("E[C^2]"), "missing E[C^2]: {text}");
    assert!(text.contains("V[C]"), "missing variance: {text}");
    assert!(text.contains("P[C >="), "missing tail bound: {text}");
    // Fig. 1(b) at d = 10: E[tick] <= 24, V <= 248.
    assert!(text.contains("24.0000"), "mean bound drifted: {text}");
    assert!(text.contains("248.0000"), "variance bound drifted: {text}");
}

#[test]
fn analyze_with_soundness_reports_theorem_4_4() {
    // Small program so the step-counting re-analysis stays fast.
    let dir = std::env::temp_dir().join("cma-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("coin.appl");
    std::fs::write(
        &file,
        "func main() begin if prob(0.5) then tick(2) else tick(4) fi end",
    )
    .unwrap();
    let output = run(&["analyze", file.to_str().unwrap(), "--json"]);
    let json = stdout(&output);
    assert!(
        json.contains("\"soundness\":{\"bounded_updates\":true"),
        "{json}"
    );
    assert!(json.contains("\"is_sound\":true"), "{json}");
    assert!(json.contains("\"soundness_ms\":"), "{json}");
}

#[test]
fn simulate_agrees_with_the_analysis_bounds() {
    let output = run(&[
        "simulate",
        &fig2(),
        "--trials",
        "4000",
        "--seed",
        "9",
        "--valuation",
        "d=10",
        "--json",
    ]);
    let json = stdout(&output);
    // Extract the simulated mean and check it against the paper bound 2d+4.
    let mean: f64 = json
        .split("\"mean\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|v| v.parse().ok())
        .expect("mean field present");
    assert!(
        mean > 18.0 && mean <= 24.0,
        "simulated mean {mean} out of range"
    );
    assert!(json.contains("\"trials\":4000"));
}

#[test]
fn tail_subcommand_prints_requested_thresholds() {
    let output = run(&[
        "tail",
        &fig2(),
        "--thresholds",
        "40,80",
        "--valuation",
        "d=10,x=0",
        "--no-soundness",
    ]);
    let text = stdout(&output);
    assert!(text.contains("P[C >= 40.0000]"));
    assert!(text.contains("P[C >= 80.0000]"));
}

#[test]
fn suite_list_and_run_work() {
    let list = stdout(&run(&["suite", "list"]));
    assert!(list.contains("benchmarks:"));
    assert!(list.contains("coupon"), "{list}");
    // Ids are namespaced by suite.
    assert!(list.contains("running/rdwalk"), "{list}");
    assert!(list.contains("absynth/rdwalk"), "{list}");

    let json = stdout(&run(&["suite", "list", "--json"]));
    assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
    assert!(json.contains("\"name\":\"running/rdwalk\""), "{json}");
    assert!(json.contains("\"suite\":\"kura\""), "{json}");

    // A bare name that is unambiguous still works.
    let run_out = stdout(&run(&[
        "suite",
        "run",
        "(1-1)",
        "--degree",
        "2",
        "--no-soundness",
    ]));
    assert!(run_out.contains("E[C^1]"), "{run_out}");
}

#[test]
fn suite_run_accepts_qualified_ids_and_rejects_ambiguous_bare_names() {
    // `rdwalk` exists in both the running and absynth suites: the bare name
    // is ambiguous (the PR 1 behavior silently ran both)…
    let ambiguous = run(&["suite", "run", "rdwalk", "--no-soundness"]);
    assert_eq!(ambiguous.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&ambiguous.stderr);
    assert!(stderr.contains("ambiguous"), "{stderr}");
    assert!(stderr.contains("running/rdwalk"), "{stderr}");
    assert!(stderr.contains("absynth/rdwalk"), "{stderr}");

    // …while the qualified id selects exactly one benchmark.
    let qualified = stdout(&run(&[
        "suite",
        "run",
        "running/rdwalk",
        "--no-soundness",
        "--json",
    ]));
    assert!(
        qualified.contains("\"label\":\"running/rdwalk\""),
        "{qualified}"
    );
    assert_eq!(qualified.matches("\"label\":").count(), 1);
}

#[test]
fn threads_flag_is_honored_and_solver_knobs_are_gone() {
    let sequential = stdout(&run(&[
        "analyze",
        &fig2(),
        "--valuation",
        "d=10,x=0",
        "--no-soundness",
        "--json",
    ]));
    let threaded = stdout(&run(&[
        "analyze",
        &fig2(),
        "--valuation",
        "d=10,x=0",
        "--no-soundness",
        "--threads",
        "2",
        "--json",
    ]));
    assert!(
        threaded.contains("\"backend\":\"revised-simplex\""),
        "{threaded}"
    );
    assert!(threaded.contains("\"parallelism\":2"), "{threaded}");
    // Both runs derive the same Fig. 1(b) mean bound 2d + 4 = 24.
    for report in [&sequential, &threaded] {
        let upper: f64 = report
            .split("\"k\":1,\"lower\":")
            .nth(1)
            .and_then(|rest| rest.split("\"upper\":").nth(1))
            .and_then(|rest| rest.split(',').next())
            .and_then(|v| v.parse().ok())
            .expect("mean upper bound present");
        assert!((upper - 24.0).abs() < 1e-3, "mean upper {upper}");
    }

    // One solver ships: its former configuration flags are unknown options.
    for flag in [
        "--backend",
        "--pricing",
        "--factor",
        "--dual-pricing",
        "--dual-ratio",
        "--no-presolve",
    ] {
        let gone = run(&["analyze", &fig2(), flag, "sparse"]);
        assert_eq!(gone.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&gone.stderr);
        assert!(stderr.contains("unknown option"), "{flag}: {stderr}");
    }
}

fn triangle() -> String {
    repo_root()
        .join("examples/triangle.appl")
        .display()
        .to_string()
}

#[test]
fn escalate_flag_reaches_the_target_degree_in_session() {
    let output = run(&[
        "analyze",
        &fig2(),
        "--degree",
        "2",
        "--escalate",
        "1",
        "--valuation",
        "d=10,x=0",
        "--no-soundness",
        "--json",
    ]);
    let json = stdout(&output);
    assert!(
        json.contains("\"escalation\":{\"from_degree\":1,\"to_degree\":2"),
        "{json}"
    );
    assert!(json.contains("\"cold_restarts\":0"), "{json}");
    // The escalated session still derives the Fig. 1(b) bound 2d + 4 = 24.
    let upper: f64 = json
        .split("\"k\":1,\"lower\":")
        .nth(1)
        .and_then(|rest| rest.split("\"upper\":").nth(1))
        .and_then(|rest| rest.split(',').next())
        .and_then(|v| v.parse().ok())
        .expect("mean upper bound present");
    assert!((upper - 24.0).abs() < 1e-3, "mean upper {upper}");

    // A start at or above the target degree is a usage error.
    let bad = run(&["analyze", &fig2(), "--degree", "2", "--escalate", "2"]);
    assert_eq!(bad.status.code(), Some(2));
}

#[test]
fn infeasible_analyses_hint_at_max_poly_degree_and_the_retry_succeeds() {
    let failing = run(&[
        "analyze",
        &triangle(),
        "--degree",
        "1",
        "--valuation",
        "n=4",
    ]);
    assert_eq!(failing.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&failing.stderr);
    assert!(stderr.contains("infeasible"), "{stderr}");
    assert!(stderr.contains("--max-poly-degree 2"), "{stderr}");

    let retried = stdout(&run(&[
        "analyze",
        &triangle(),
        "--degree",
        "1",
        "--valuation",
        "n=4",
        "--max-poly-degree",
        "2",
        "--json",
    ]));
    assert!(retried.contains("\"poly_retries\":1"), "{retried}");
    assert!(retried.contains("\"poly_degree\":2"), "{retried}");
}

fn lint_fixture(name: &str) -> String {
    repo_root()
        .join("examples/lints")
        .join(name)
        .display()
        .to_string()
}

#[test]
fn check_reports_warnings_with_positions_and_exits_zero() {
    let output = run(&["check", &lint_fixture("cma002_refuted_branch.appl")]);
    assert_eq!(output.status.code(), Some(0));
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(text.contains("warning[CMA002]"), "{text}");
    assert!(text.contains("--> 5:3"), "{text}");
    assert!(text.contains("^^^"), "caret snippet missing: {text}");

    // `--deny warnings` turns the same report into a failure.
    let denied = run(&[
        "check",
        &lint_fixture("cma002_refuted_branch.appl"),
        "--deny",
        "warnings",
    ]);
    assert_eq!(denied.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&denied.stderr);
    assert!(stderr.contains("static checks failed"), "{stderr}");
    assert!(stderr.contains("cma002_refuted_branch.appl"), "{stderr}");
}

#[test]
fn check_reports_errors_with_exit_one_and_json_carries_the_code() {
    let output = run(&["check", &lint_fixture("cma003_invalid_dist.appl")]);
    assert_eq!(output.status.code(), Some(1));
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(text.contains("error[CMA003]"), "{text}");
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("static checks failed"),
        "{output:?}"
    );

    // JSON mode: one object per file, diagnostics carry stable codes and
    // resolved positions.
    let json_out = run(&["check", &lint_fixture("cma003_invalid_dist.appl"), "--json"]);
    let json = String::from_utf8_lossy(&json_out.stdout);
    assert!(json.contains("\"label\":"), "{json}");
    assert!(json.contains("\"code\":\"CMA003\""), "{json}");
    assert!(json.contains("\"line\":3,\"col\":3"), "{json}");

    // CMA007 is opt-in: the negative-tick fixture is clean by default and
    // an error under `--nonneg-cost`.
    let lenient = run(&["check", &lint_fixture("cma007_negative_tick.appl")]);
    assert_eq!(lenient.status.code(), Some(0));
    let strict = run(&[
        "check",
        &lint_fixture("cma007_negative_tick.appl"),
        "--nonneg-cost",
    ]);
    assert_eq!(strict.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&strict.stdout).contains("error[CMA007]"));
}

#[test]
fn analyze_auto_check_aborts_on_errors_and_surfaces_warnings() {
    // A warning-level lint does not stop the analysis; the diagnostics go to
    // stderr and the report carries the count.
    let output = run(&[
        "analyze",
        &lint_fixture("cma002_refuted_branch.appl"),
        "--no-soundness",
        "--json",
    ]);
    let json = stdout(&output);
    assert!(json.contains("\"check\":{\"warnings\":1"), "{json}");
    assert!(json.contains("\"refuted_branches\":1"), "{json}");

    // A negative tick under --nonneg-cost is an error: the analysis aborts
    // with the diagnostic rather than deriving bounds over a defective
    // program.
    let aborted = run(&[
        "analyze",
        &lint_fixture("cma007_negative_tick.appl"),
        "--nonneg-cost",
    ]);
    assert_eq!(aborted.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&aborted.stderr);
    assert!(stderr.contains("error[CMA007]"), "{stderr}");
    assert!(stderr.contains("static checks failed"), "{stderr}");

    // `--no-check` restores the legacy behavior.
    let skipped = run(&[
        "analyze",
        &lint_fixture("cma007_negative_tick.appl"),
        "--nonneg-cost",
        "--no-check",
        "--no-soundness",
    ]);
    assert_eq!(skipped.status.code(), Some(0));
}

#[test]
fn check_pruning_shrinks_the_lp_visibly_in_the_report() {
    let dir = std::env::temp_dir().join("cma-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("prunable.appl");
    std::fs::write(
        &file,
        "func main() begin\n  x := 1;\n  waste := 7;\n  \
         if x < 0 then tick(9) else tick(1) fi;\n  \
         while x < 0 do tick(5) od\nend\n",
    )
    .unwrap();
    let lp_size = |json: &str| -> (u64, u64) {
        let field = |key: &str| {
            json.split(key)
                .nth(1)
                .and_then(|rest| rest.split(&[',', '}'][..]).next())
                .and_then(|v| v.parse().ok())
                .expect("LP stats present")
        };
        (field("\"constraints\":"), field("\"variables\":"))
    };
    let base = stdout(&run(&[
        "analyze",
        file.to_str().unwrap(),
        "--no-soundness",
        "--no-check-pruning",
        "--json",
    ]));
    let pruned = stdout(&run(&[
        "analyze",
        file.to_str().unwrap(),
        "--no-soundness",
        "--json",
    ]));
    assert!(pruned.contains("\"refuted_branches\":1"), "{pruned}");
    assert!(pruned.contains("\"skipped_loops\":1"), "{pruned}");
    assert!(pruned.contains("\"dropped_template_vars\":1"), "{pruned}");
    let (base_rows, base_cols) = lp_size(&base);
    let (pruned_rows, pruned_cols) = lp_size(&pruned);
    assert!(
        pruned_rows < base_rows && pruned_cols < base_cols,
        "pruning did not shrink the LP: {base_rows}x{base_cols} -> {pruned_rows}x{pruned_cols}"
    );
}

#[test]
fn simulate_counts_uninit_reads_and_strict_init_makes_them_fatal() {
    let fixture = lint_fixture("cma001_use_before_init.appl");
    let lenient = run(&["simulate", &fixture, "--trials", "50"]);
    assert_eq!(lenient.status.code(), Some(0));
    // The auto-check flags the read on stderr, at its source position…
    let stderr = String::from_utf8_lossy(&lenient.stderr);
    assert!(stderr.contains("warning[CMA001]"), "{stderr}");
    assert!(stderr.contains(" --> 4:3"), "{stderr}");
    // …and the simulator reports how often it actually happened.
    let text = String::from_utf8_lossy(&lenient.stdout);
    assert!(
        text.contains("50 reads of uninitialized variables"),
        "{text}"
    );

    let json =
        String::from_utf8_lossy(&run(&["simulate", &fixture, "--trials", "50", "--json"]).stdout)
            .to_string();
    assert!(json.contains("\"uninit_reads\":50"), "{json}");

    let strict = run(&["simulate", &fixture, "--trials", "50", "--strict-init"]);
    assert_eq!(strict.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&strict.stderr);
    assert!(stderr.contains("read before initialization"), "{stderr}");
}

#[test]
fn a_reader_that_stops_reading_ends_the_output_quietly() {
    // `cma analyze … | head -1`: the reader is gone before `cma` writes.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let output = cma()
        .args([
            "analyze",
            &fig2(),
            "--valuation",
            "d=10,x=0",
            "--no-soundness",
        ])
        .stdout(writer)
        .output()
        .expect("cma runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn usage_errors_exit_with_code_2() {
    let bad_sub = run(&["frobnicate"]);
    assert_eq!(bad_sub.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad_sub.stderr).contains("unknown subcommand"));

    let bad_flag = run(&["analyze", "--frobnicate"]);
    assert_eq!(bad_flag.status.code(), Some(2));

    let missing_thresholds = run(&["tail", &fig2()]);
    assert_eq!(missing_thresholds.status.code(), Some(2));

    let check_without_files = run(&["check"]);
    assert_eq!(check_without_files.status.code(), Some(2));

    let bad_deny = run(&["check", &fig2(), "--deny", "everything"]);
    assert_eq!(bad_deny.status.code(), Some(2));

    let unknown_benchmark = run(&["suite", "run", "does-not-exist"]);
    assert_eq!(unknown_benchmark.status.code(), Some(2));
}

#[test]
fn missing_files_and_parse_errors_exit_with_code_1() {
    let missing = run(&["analyze", "/no/such/file.appl"]);
    assert_eq!(missing.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&missing.stderr).contains("cannot access"));

    let dir = std::env::temp_dir().join("cma-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.appl");
    std::fs::write(&bad, "func main( begin end").unwrap();
    let parse_fail = run(&["analyze", bad.to_str().unwrap()]);
    assert_eq!(parse_fail.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&parse_fail.stderr);
    assert!(stderr.contains("parse error"), "{stderr}");
    assert!(stderr.contains("while parsing"), "{stderr}");
}
