//! `cma corpus` end-to-end: generate a corpus, run a campaign over the real
//! analyzer binary with injected failures, and resume it.
//!
//! These tests exercise the full ISSUE contract: a panicking program and a
//! deadline-exceeding program are recorded as isolated failures while the
//! rest of the corpus completes, and a second run against the same journal
//! is a no-op that reproduces the same report.
#![cfg(unix)]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn cma() -> &'static str {
    env!("CARGO_BIN_EXE_cma")
}

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cma-cli-corpus-{}-{test}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(cma());
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().unwrap()
}

fn stdout_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// Extracts `"key":N` from the report JSON.
fn count_field(json: &str, key: &str) -> u64 {
    let marker = format!("\"{key}\":");
    let start = json
        .find(&marker)
        .unwrap_or_else(|| panic!("no {key} in {json}"))
        + marker.len();
    json[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

fn gen_corpus(dir: &Path, count: usize) {
    let out = run(
        &[
            "corpus",
            "gen",
            "--out",
            dir.to_str().unwrap(),
            "--seed",
            "7",
            "--count",
            &count.to_string(),
        ],
        &[],
    );
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn campaign_isolates_panics_and_crashes_and_resumes_idempotently() {
    let dir = scratch("isolate");
    let corpus = dir.join("corpus");
    gen_corpus(&corpus, 4);
    // Two saboteurs: one panics (contained by the analyzer, the process
    // still dies with a structured error), one aborts outright.
    fs::copy(corpus.join("seed_00007.appl"), corpus.join("panicky.appl")).unwrap();
    fs::copy(corpus.join("seed_00007.appl"), corpus.join("crashy.appl")).unwrap();
    let journal = dir.join("journal.ndjson");
    let args = [
        "corpus",
        "run",
        corpus.to_str().unwrap(),
        "--timeout",
        "30",
        "--jobs",
        "2",
        "--retries",
        "0",
        "--journal",
        journal.to_str().unwrap(),
        "--json",
    ];
    let envs = [("CMA_PANIC_ON", "panicky"), ("CMA_CRASH_ON", "crashy")];

    let first = run(&args, &envs);
    // Crashes are a campaign-level failure (nonzero exit) but the campaign
    // itself completed: every program has a recorded outcome.
    assert!(!first.status.success());
    let report = stdout_of(&first);
    assert_eq!(count_field(&report, "total"), 6);
    assert_eq!(count_field(&report, "crashes"), 2);
    assert_eq!(count_field(&report, "resumed"), 0);
    assert!(report.contains("\"path\":\"") && report.contains("panicky.appl"));
    let journal_text = fs::read_to_string(&journal).unwrap();
    assert_eq!(journal_text.lines().count(), 6);
    assert!(journal_text.contains("injected panic"));

    // Resume: nothing left to run, the journal is unchanged, and the report
    // (counts and per-program outcomes) is reproduced exactly.
    let second = run(&args, &envs);
    assert!(!second.status.success());
    let resumed = stdout_of(&second);
    assert_eq!(count_field(&resumed, "resumed"), 6);
    assert_eq!(resumed.replace("\"resumed\":6", "\"resumed\":0"), report);
    assert_eq!(fs::read_to_string(&journal).unwrap(), journal_text);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn the_hostile_fixture_times_out_instead_of_hanging() {
    let dir = scratch("hostile");
    let corpus = dir.join("corpus");
    let out = run(
        &[
            "corpus",
            "gen",
            "--out",
            corpus.to_str().unwrap(),
            "--count",
            "0",
            "--hostile",
        ],
        &[],
    );
    assert!(out.status.success(), "{out:?}");
    let journal = dir.join("journal.ndjson");
    // Unbudgeted, a degree-4 analysis of the hostile fixture runs for
    // minutes; the campaign's per-program deadline must cut it down to a
    // recorded timeout in a couple of seconds.
    let started = std::time::Instant::now();
    let out = run(
        &[
            "corpus",
            "run",
            corpus.join("hostile.appl").to_str().unwrap(),
            "--degree",
            "4",
            "--timeout",
            "2",
            "--retries",
            "0",
            "--journal",
            journal.to_str().unwrap(),
            "--json",
        ],
        &[],
    );
    // A timeout is an expected per-program outcome, not a campaign failure.
    assert!(out.status.success(), "{out:?}");
    let report = stdout_of(&out);
    assert_eq!(count_field(&report, "timeouts"), 1);
    assert_eq!(count_field(&report, "crashes"), 0);
    assert!(
        started.elapsed() < std::time::Duration::from_secs(20),
        "campaign took {:?}: the deadline did not bite",
        started.elapsed()
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn campaign_forwards_every_analysis_flag_to_the_child() {
    use std::os::unix::fs::PermissionsExt as _;

    let dir = scratch("passthrough");
    let corpus = dir.join("corpus");
    gen_corpus(&corpus, 1);
    // A stand-in analyzer that records its argv and reports a clean run.
    let argv_log = dir.join("argv.txt");
    let stub = dir.join("stub-cma.sh");
    fs::write(
        &stub,
        format!(
            "#!/bin/sh\necho \"$@\" >> {}\necho '{{\"degradation\":{{\"degraded\":false,\"steps\":[]}}}}'\n",
            argv_log.display()
        ),
    )
    .unwrap();
    fs::set_permissions(&stub, fs::Permissions::from_mode(0o755)).unwrap();
    let analysis_flags = [
        "--degree",
        "3",
        "--poly-degree",
        "1",
        "--max-poly-degree",
        "2",
        "--escalate",
        "1",
        "--mode",
        "compositional",
        "--threads",
        "2",
        "--group-timeout",
        "4",
        "--valuation",
        "n=4,x=1",
        "--tail",
        "10,20",
        "--no-soundness",
        "--no-check",
        "--no-check-pruning",
        "--nonneg-cost",
        "--label",
        "campaign",
    ];
    let journal = dir.join("journal.ndjson");
    let mut args = vec![
        "corpus",
        "run",
        corpus.to_str().unwrap(),
        "--cma",
        stub.to_str().unwrap(),
        "--timeout",
        "30",
        "--jobs",
        "1",
        "--retries",
        "0",
        "--journal",
        journal.to_str().unwrap(),
        "--json",
    ];
    args.extend(analysis_flags);
    let out = run(&args, &[]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(count_field(&stdout_of(&out), "ok"), 1);

    let argv = fs::read_to_string(&argv_log).unwrap();
    let argv: Vec<&str> = argv.split_whitespace().collect();
    assert_eq!(argv[0], "analyze");
    // The runner's own flags: one --json and the soft --timeout it derives,
    // never the campaign's --jobs/--retries/--journal/--cma.
    assert_eq!(argv.iter().filter(|a| **a == "--json").count(), 1);
    assert_eq!(argv.iter().filter(|a| **a == "--timeout").count(), 1);
    for own in ["--jobs", "--retries", "--journal", "--cma"] {
        assert!(!argv.contains(&own), "{own} leaked into {argv:?}");
    }
    // Every analysis flag arrives verbatim and in order.
    let tail = &argv[argv.len() - analysis_flags.len()..];
    assert_eq!(tail, analysis_flags);
    let _ = fs::remove_dir_all(&dir);
}
