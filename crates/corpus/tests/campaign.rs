//! End-to-end campaign tests against a scripted fake analyzer.
//!
//! A tiny shell script stands in for the `cma` binary: it logs each
//! invocation, then crashes, hangs, degrades, fails, or succeeds depending
//! on the program path it was handed.  This exercises the runner's whole
//! contract — crash isolation, kill-on-deadline, retry policy, journal
//! resume — without the cost (or nondeterminism) of real analyses.
#![cfg(unix)]

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use cma_corpus::{run_campaign, CampaignConfig, Journal, JournalEntry, Outcome};

/// A scratch directory unique to one test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cma-campaign-{}-{test}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes the fake analyzer: logs `$2` (the program path) and the value of
/// its `--timeout` to `log`, one line per invocation, then acts out the
/// behavior the program's name asks for.
fn fake_cma(dir: &Path, log: &Path) -> PathBuf {
    let path = dir.join("fake-cma.sh");
    let script = format!(
        "#!/bin/sh\n\
         prog=\"$2\"\n\
         soft=; prev=\n\
         for arg in \"$@\"; do [ \"$prev\" = --timeout ] && soft=\"$arg\"; prev=\"$arg\"; done\n\
         echo \"$prog $soft\" >> {log}\n\
         case \"$prog\" in\n\
           *crashy*) kill -ABRT $$ ;;\n\
           *sleepy*) sleep 30 ;;\n\
           *flaky*)\n\
             if [ -e \"$prog.tried\" ]; then\n\
               echo '{{\"degradation\":{{\"degraded\":false,\"steps\":[]}}}}'\n\
             else\n\
               touch \"$prog.tried\"\n\
               kill -ABRT $$\n\
             fi ;;\n\
           *starved*) echo 'cma: analysis failed: linear program budget exhausted' >&2; exit 1 ;;\n\
           *degraded*) echo '{{\"degradation\":{{\"degraded\":true,\"steps\":[\"degree:2->1\"]}}}}' ;;\n\
           *rejected*) echo 'cma: parse error: unexpected token' >&2; exit 1 ;;\n\
           *) echo '{{\"degradation\":{{\"degraded\":false,\"steps\":[]}}}}' ;;\n\
         esac\n",
        log = log.display()
    );
    fs::write(&path, script).unwrap();
    use std::os::unix::fs::PermissionsExt as _;
    fs::set_permissions(&path, fs::Permissions::from_mode(0o755)).unwrap();
    path
}

/// Creates empty `.appl` placeholder files and returns their paths.
fn programs(dir: &Path, names: &[&str]) -> Vec<PathBuf> {
    names
        .iter()
        .map(|name| {
            let path = dir.join(format!("{name}.appl"));
            fs::write(&path, "func main() begin skip end\n").unwrap();
            path
        })
        .collect()
}

fn config(dir: &Path, cma: PathBuf, programs: Vec<PathBuf>) -> CampaignConfig {
    CampaignConfig {
        cma,
        programs,
        jobs: 2,
        timeout: Duration::from_millis(300),
        retries: 0,
        journal: dir.join("journal.ndjson"),
        analyze_args: Vec::new(),
    }
}

fn outcome_of<'r>(report: &'r cma_corpus::CampaignReport, needle: &str) -> &'r JournalEntry {
    report
        .entries
        .iter()
        .find(|e| e.path.contains(needle))
        .unwrap_or_else(|| panic!("no entry for {needle}"))
}

#[test]
fn one_bad_program_cannot_take_the_campaign_down() {
    let dir = scratch("isolation");
    let log = dir.join("invocations.log");
    let cma = fake_cma(&dir, &log);
    let programs = programs(&dir, &["crashy", "sleepy", "degraded", "rejected", "plain"]);
    // The deadline also bounds the instant cases, whose `sh` start-up alone
    // can take hundreds of milliseconds on a busy host; `sleepy` sleeps 30 s,
    // so it still ends as a timeout.
    let config = CampaignConfig {
        timeout: Duration::from_secs(3),
        ..config(&dir, cma, programs)
    };
    let report = run_campaign(&config).unwrap();

    // Every program got a verdict: the crash and the hang were contained.
    assert_eq!(report.total, 5);
    assert_eq!(report.entries.len(), 5);
    assert_eq!(outcome_of(&report, "crashy").outcome, Outcome::Crash);
    assert_eq!(outcome_of(&report, "sleepy").outcome, Outcome::Timeout);
    assert_eq!(
        outcome_of(&report, "rejected").outcome,
        Outcome::AnalysisFailed
    );
    assert_eq!(outcome_of(&report, "plain").outcome, Outcome::Ok);
    // Degraded success is still success, but carries the label.
    let degraded = outcome_of(&report, "degraded");
    assert_eq!(degraded.outcome, Outcome::Ok);
    assert!(degraded.degraded);
    assert!(!outcome_of(&report, "plain").degraded);
    assert_eq!(report.crashes(), 1);
    assert_eq!(report.timeouts(), 1);
    assert_eq!(report.failed(), 1);
    assert_eq!(report.ok(), 2);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn rerunning_a_finished_campaign_invokes_nothing() {
    let dir = scratch("resume-idempotent");
    let log = dir.join("invocations.log");
    let cma = fake_cma(&dir, &log);
    let programs = programs(&dir, &["a", "b", "c"]);
    let config = config(&dir, cma, programs);

    let first = run_campaign(&config).unwrap();
    assert_eq!(first.resumed, 0);
    let invocations_after_first = fs::read_to_string(&log).unwrap().lines().count();
    assert_eq!(invocations_after_first, 3);

    // Second run: the journal already records everything, so the fake
    // analyzer must not be invoked at all — and the report is identical.
    let second = run_campaign(&config).unwrap();
    assert_eq!(second.resumed, 3);
    assert_eq!(
        second.to_json().replace("\"resumed\":3", "\"resumed\":0"),
        first.to_json()
    );
    let invocations_after_second = fs::read_to_string(&log).unwrap().lines().count();
    assert_eq!(invocations_after_second, invocations_after_first);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_campaign_killed_mid_run_resumes_where_it_stopped() {
    let dir = scratch("resume-partial");
    let log = dir.join("invocations.log");
    let cma = fake_cma(&dir, &log);
    let programs = programs(&dir, &["done", "pending1", "pending2"]);
    let config = config(&dir, cma, programs.clone());

    // Simulate a campaign killed after one program: its journal holds one
    // complete line plus a torn line from the in-flight write.
    let (journal, _) = Journal::open(&config.journal).unwrap();
    journal
        .record(&JournalEntry {
            path: programs[0].to_string_lossy().into_owned(),
            outcome: Outcome::Ok,
            attempts: 1,
            degraded: false,
            duration_ms: 10,
            detail: String::new(),
        })
        .unwrap();
    drop(journal);
    let mut file = fs::OpenOptions::new()
        .append(true)
        .open(&config.journal)
        .unwrap();
    write!(file, "{{\"path\":\"torn-mid-wr").unwrap();
    drop(file);

    let report = run_campaign(&config).unwrap();
    assert_eq!(report.resumed, 1);
    assert_eq!(report.total, 3);
    assert_eq!(report.entries.len(), 3);
    // Only the two unrecorded programs were actually run.
    let invoked = fs::read_to_string(&log).unwrap();
    assert!(!invoked.contains("done.appl"));
    assert!(invoked.contains("pending1.appl"));
    assert!(invoked.contains("pending2.appl"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn transient_failures_are_retried_and_deterministic_ones_are_not() {
    let dir = scratch("retries");
    let log = dir.join("invocations.log");
    let cma = fake_cma(&dir, &log);
    let programs = programs(&dir, &["flaky", "starved", "rejected"]);
    let mut config = config(&dir, cma, programs);
    config.retries = 2;

    let report = run_campaign(&config).unwrap();
    // `flaky` crashed once (a transient failure), then succeeded on the
    // retry, which got the same soft budget.
    let flaky = outcome_of(&report, "flaky");
    assert_eq!(flaky.outcome, Outcome::Ok);
    assert_eq!(flaky.attempts, 2);
    let invocations = fs::read_to_string(&log).unwrap();
    let soft_budgets: Vec<&str> = invocations
        .lines()
        .filter(|line| line.contains("flaky.appl"))
        .map(|line| line.rsplit(' ').next().unwrap())
        .collect();
    assert_eq!(soft_budgets.len(), 2, "{invocations}");
    assert!(!soft_budgets[0].is_empty(), "{invocations}");
    assert_eq!(soft_budgets[0], soft_budgets[1], "{invocations}");
    // An in-child budget exhaustion is final: a retry would get the same
    // budget and repeat the same work.
    let starved = outcome_of(&report, "starved");
    assert_eq!(starved.outcome, Outcome::Timeout);
    assert_eq!(starved.attempts, 1);
    // A deterministic rejection burns no retries.
    let rejected = outcome_of(&report, "rejected");
    assert_eq!(rejected.outcome, Outcome::AnalysisFailed);
    assert_eq!(rejected.attempts, 1);
    let _ = fs::remove_dir_all(&dir);
}
