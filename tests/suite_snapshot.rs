//! Snapshots of every suite benchmark's answers.
//!
//! `tests/fixtures/suite_snapshot.txt` holds the raw-moment intervals
//! (soundness off), recorded while the solver still shipped its dense
//! reference configuration, before the LP layer was reduced to one
//! production path.  The test pins the shipped solver to that record: every
//! program must reach the same verdict (bounds, or no bound at its degree),
//! and every interval endpoint must agree within 1e-6 relative.
//!
//! `tests/fixtures/suite_soundness.txt` holds the Theorem 4.4 outcomes
//! (soundness on): the termination verdict and the size and dual pivots of
//! the step-counting re-analysis, recorded while that re-analysis was still
//! derived into the main analysis's constraint store.  They must match
//! exactly.
//!
//! Re-record (only when an answer change is intended) with
//! `cargo test --release --test suite_snapshot -- --ignored`.

use std::fmt::Write as _;

use central_moment_analysis::{suite, Analysis};

const FIXTURE: &str = "tests/fixtures/suite_snapshot.txt";
const REL_TOL: f64 = 1e-6;

/// One program's outcome, rendered as a fixture line: the qualified name,
/// then `bounded` and the `lo hi` pair of each raw moment `E[C^0..=m]`
/// (exact `f64` round-trip formatting), or `no-bound` when the LP is
/// infeasible at the program's degree, or `error` for any other failure.
fn outcome(benchmark: &suite::Benchmark) -> String {
    let mut line = benchmark.qualified_name();
    match Analysis::benchmark(benchmark).soundness(false).run() {
        Ok(report) => {
            line.push_str(" bounded");
            for i in &report.raw_intervals {
                write!(line, " {:?} {:?}", i.lo(), i.hi()).expect("write to string");
            }
        }
        Err(e) if e.infeasible_at().is_some() => line.push_str(" no-bound"),
        Err(_) => line.push_str(" error"),
    }
    line
}

fn close(recorded: f64, now: f64) -> bool {
    if !recorded.is_finite() || !now.is_finite() {
        return recorded == now;
    }
    (recorded - now).abs() <= REL_TOL * recorded.abs().max(now.abs()).max(1.0)
}

#[test]
fn every_suite_bound_matches_the_recorded_snapshot() {
    let fixture = std::fs::read_to_string(FIXTURE).expect("snapshot fixture exists");
    let recorded: Vec<&str> = fixture.lines().filter(|l| !l.starts_with('#')).collect();
    let benchmarks = suite::all_benchmarks();
    assert_eq!(
        recorded.len(),
        benchmarks.len(),
        "the suite changed size since the snapshot was recorded"
    );
    let mut worst = (0.0f64, String::new());
    for (line, benchmark) in recorded.iter().zip(&benchmarks) {
        let now = outcome(benchmark);
        let (want, got): (Vec<&str>, Vec<&str>) = (
            line.split_whitespace().collect(),
            now.split_whitespace().collect(),
        );
        assert_eq!(want[..2], got[..2], "verdict changed: `{line}` vs `{now}`");
        assert_eq!(want.len(), got.len(), "moment count changed: `{now}`");
        for (a, b) in want[2..].iter().zip(&got[2..]) {
            let (a, b): (f64, f64) = (a.parse().unwrap(), b.parse().unwrap());
            assert!(
                close(a, b),
                "{}: bound {a} drifted to {b}",
                benchmark.qualified_name()
            );
            if a.is_finite() && a != b {
                let rel = (a - b).abs() / a.abs().max(b.abs()).max(1.0);
                if rel > worst.0 {
                    worst = (rel, benchmark.qualified_name());
                }
            }
        }
    }
    println!("largest relative deviation: {:.3e} ({})", worst.0, worst.1);
}

#[test]
#[ignore = "re-records the fixture"]
fn record_suite_snapshot() {
    let mut out = String::from(
        "# Raw-moment intervals of every suite benchmark (soundness off); see\n\
         # tests/suite_snapshot.rs for the line format.\n",
    );
    for benchmark in suite::all_benchmarks() {
        out.push_str(&outcome(&benchmark));
        out.push('\n');
    }
    std::fs::create_dir_all("tests/fixtures").expect("fixture directory");
    std::fs::write(FIXTURE, out).expect("write the fixture");
}

const SOUNDNESS_FIXTURE: &str = "tests/fixtures/suite_soundness.txt";

/// Runs for minutes before its termination LP gives up, so the soundness
/// snapshot leaves it out (`pipeline::tests::timeout_bounds_the_soundness_phase`
/// covers its deadline behaviour).
const SOUNDNESS_SKIPPED: &str = "synthetic/coupon-chain-5";

/// One program's Theorem 4.4 outcome (soundness on), as a fixture line: the
/// qualified name, then `k=K` when a finite `E[T^K]` was established or
/// `not-established`, then the LP variables, rows and dual pivots of the
/// step-counting re-analysis — or `no-bound`/`error` when the main analysis
/// itself fails.
fn soundness_outcome(benchmark: &suite::Benchmark) -> String {
    let mut line = benchmark.qualified_name();
    match Analysis::benchmark(benchmark).run() {
        Ok(report) => {
            let s = report.soundness.expect("soundness is on");
            match s.termination_moment {
                Some(k) => write!(line, " k={k}"),
                None => write!(line, " not-established"),
            }
            .expect("write to string");
            write!(
                line,
                " {} {} {}",
                s.extension_variables, s.extension_constraints, s.extension_dual_pivots
            )
            .expect("write to string");
        }
        Err(e) if e.infeasible_at().is_some() => line.push_str(" no-bound"),
        Err(_) => line.push_str(" error"),
    }
    line
}

fn soundness_benchmarks() -> Vec<suite::Benchmark> {
    suite::all_benchmarks()
        .into_iter()
        .filter(|b| b.qualified_name() != SOUNDNESS_SKIPPED)
        .collect()
}

#[test]
fn every_soundness_verdict_matches_the_recorded_snapshot() {
    let fixture = std::fs::read_to_string(SOUNDNESS_FIXTURE).expect("soundness fixture exists");
    let recorded: Vec<&str> = fixture.lines().filter(|l| !l.starts_with('#')).collect();
    let benchmarks = soundness_benchmarks();
    assert_eq!(
        recorded.len(),
        benchmarks.len(),
        "the suite changed size since the snapshot was recorded"
    );
    for (line, benchmark) in recorded.iter().zip(&benchmarks) {
        assert_eq!(*line, soundness_outcome(benchmark));
    }
}

#[test]
#[ignore = "re-records the fixture"]
fn record_soundness_snapshot() {
    let mut out = format!(
        "# Theorem 4.4 verdicts of every suite benchmark but {SOUNDNESS_SKIPPED}\n\
         # (soundness on); see tests/suite_snapshot.rs for the line format.\n",
    );
    for benchmark in soundness_benchmarks() {
        out.push_str(&soundness_outcome(&benchmark));
        out.push('\n');
    }
    std::fs::create_dir_all("tests/fixtures").expect("fixture directory");
    std::fs::write(SOUNDNESS_FIXTURE, out).expect("write the fixture");
}
