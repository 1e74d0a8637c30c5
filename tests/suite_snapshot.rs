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
//! `tests/fixtures/suite_lp.txt` fingerprints every LP the same soundness-on
//! runs hand to their backend: the rows of each opened problem and every
//! objective minimized over it, recorded before template arithmetic became
//! in place.  Derivation changes that claim to emit the same LPs must leave
//! every line as it is.
//!
//! Re-record a fixture (only when an answer or LP change is intended) with
//! `cargo test --release --test suite_snapshot -- --ignored --exact NAME`,
//! `NAME` one of `record_suite_snapshot`, `record_soundness_snapshot` and
//! `record_suite_lp_fingerprints`.

use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};

use central_moment_analysis::lp::{Cmp, LpProblem, LpSolution, LpVarId, SolverTuning};
use central_moment_analysis::{suite, Analysis, LpBackend, LpSession, SimplexBackend};

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

/// In-place escalation from degree 1 builds the system a cold degree-2
/// solve builds (DESIGN §2.1), so the two reach the same verdict on LPs of
/// the same size, with the same bounds within the snapshot's tolerance.
#[test]
fn escalation_from_degree_1_matches_the_cold_degree_2_solve() {
    for benchmark in suite::all_benchmarks() {
        let name = benchmark.qualified_name();
        let analysis = || Analysis::benchmark(&benchmark).degree(2).soundness(false);
        match (analysis().run(), analysis().escalate_from(1).run()) {
            (Ok(cold), Ok(escalated)) => {
                assert_eq!(cold.lp.variables, escalated.lp.variables, "{name}");
                assert_eq!(cold.lp.constraints, escalated.lp.constraints, "{name}");
                assert_eq!(cold.raw_intervals.len(), escalated.raw_intervals.len());
                for (k, (c, e)) in cold
                    .raw_intervals
                    .iter()
                    .zip(&escalated.raw_intervals)
                    .enumerate()
                {
                    assert!(
                        close(c.lo(), e.lo()) && close(c.hi(), e.hi()),
                        "{name} E[C^{k}]: cold {c:?}, escalated {e:?}"
                    );
                }
            }
            (Err(cold), Err(escalated)) => assert!(
                cold.infeasible_at().is_some() && escalated.infeasible_at().is_some(),
                "{name}: cold `{cold}`, escalated `{escalated}`"
            ),
            (cold, escalated) => panic!(
                "{name}: the verdicts differ: cold {:?}, escalated {:?}",
                cold.err(),
                escalated.err()
            ),
        }
    }
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

/// One program's Theorem 4.4 outcome (soundness on), as a fixture line: the
/// qualified name, then `k=K` when a finite `E[T^K]` was established or
/// `not-established`, then the LP variables, rows and dual pivots of the
/// step-counting re-analysis — or `no-bound`/`error` when the main analysis
/// itself fails.  Returned with the run's LP fingerprint line.
fn soundness_outcome(benchmark: &suite::Benchmark) -> (String, String) {
    let mut line = benchmark.qualified_name();
    let backend = FingerprintBackend::default();
    match Analysis::benchmark(benchmark).backend(&backend).run() {
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
    let print = backend.0.into_inner().expect("fingerprint lock");
    let lp_line = format!(
        "{} {} {} {} {:016x}",
        benchmark.qualified_name(),
        print.lps,
        print.rows,
        print.nonzeros,
        print.hash
    );
    (line, lp_line)
}

/// The soundness-on run of every benchmark, as `(verdict line, LP
/// fingerprint line)`: computed once and shared by the two fixtures, so the
/// suite is analyzed with soundness on only once.
fn soundness_runs() -> &'static [(String, String)] {
    static RUNS: OnceLock<Vec<(String, String)>> = OnceLock::new();
    RUNS.get_or_init(|| {
        suite::all_benchmarks()
            .iter()
            .map(soundness_outcome)
            .collect()
    })
}

fn recorded_lines(path: &str) -> Vec<String> {
    let fixture = std::fs::read_to_string(path).expect("fixture exists");
    let recorded: Vec<String> = fixture
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    assert_eq!(
        recorded.len(),
        suite::all_benchmarks().len(),
        "the suite changed size since {path} was recorded"
    );
    recorded
}

#[test]
fn every_soundness_verdict_matches_the_recorded_snapshot() {
    let recorded = recorded_lines(SOUNDNESS_FIXTURE);
    for (line, (now, _)) in recorded.iter().zip(soundness_runs()) {
        assert_eq!(line, now);
    }
}

#[test]
#[ignore = "re-records the fixture"]
fn record_soundness_snapshot() {
    let mut out = String::from(
        "# Theorem 4.4 verdicts of every suite benchmark (soundness on); see\n\
         # tests/suite_snapshot.rs for the line format.\n",
    );
    for (line, _) in soundness_runs() {
        out.push_str(line);
        out.push('\n');
    }
    std::fs::create_dir_all("tests/fixtures").expect("fixture directory");
    std::fs::write(SOUNDNESS_FIXTURE, out).expect("write the fixture");
}

const LP_FIXTURE: &str = "tests/fixtures/suite_lp.txt";

#[test]
fn every_suite_lp_matches_the_recorded_fingerprint() {
    let recorded = recorded_lines(LP_FIXTURE);
    for (line, (_, now)) in recorded.iter().zip(soundness_runs()) {
        assert_eq!(line, now, "the emitted LPs changed");
    }
}

#[test]
#[ignore = "re-records the fixture"]
fn record_suite_lp_fingerprints() {
    let mut out = String::from(
        "# LPs opened, rows, nonzeros and FNV-1a hash of every LP of every suite\n\
         # benchmark (soundness on); see tests/suite_snapshot.rs for what is\n\
         # hashed.\n",
    );
    for (_, line) in soundness_runs() {
        out.push_str(line);
        out.push('\n');
    }
    std::fs::create_dir_all("tests/fixtures").expect("fixture directory");
    std::fs::write(LP_FIXTURE, out).expect("write the fixture");
}

/// A running FNV-1a hash over the LPs one analysis hands to its backend,
/// with their count, rows and nonzeros.
///
/// Hashed, in the order the backend sees them: each opened problem's
/// variable domains and rows (variable index, coefficient, comparison,
/// rhs), rows and variables added to a live session, and every objective
/// passed to `minimize`.  Coefficients and right-hand sides enter rounded to
/// 12 significant digits, the precision at which debug and release builds
/// agree on every suite LP.
struct Fingerprint {
    lps: usize,
    rows: usize,
    nonzeros: usize,
    hash: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint {
            lps: 0,
            rows: 0,
            nonzeros: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Fingerprint {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn term(&mut self, v: LpVarId, c: f64) {
        self.bytes(&(v.index() as u64).to_le_bytes());
        self.number(c);
    }

    fn number(&mut self, x: f64) {
        self.bytes(format!("{x:.11e};").as_bytes());
    }

    fn var(&mut self, free: bool) {
        self.bytes(if free { b"f" } else { b"n" });
    }

    fn row(&mut self, terms: impl Iterator<Item = (LpVarId, f64)>, cmp: Cmp, rhs: f64) {
        self.rows += 1;
        self.bytes(b"r");
        for (v, c) in terms {
            self.nonzeros += 1;
            self.term(v, c);
        }
        self.bytes(match cmp {
            Cmp::Le => b"<",
            Cmp::Ge => b">",
            Cmp::Eq => b"=",
        });
        self.number(rhs);
    }

    fn open(&mut self, problem: &LpProblem) {
        self.lps += 1;
        self.bytes(b"open");
        for i in 0..problem.num_vars() {
            self.var(problem.is_free(LpVarId::from_index(i)));
        }
        for i in 0..problem.num_constraints() {
            self.row(problem.constraint_terms(i), problem.cmp(i), problem.rhs(i));
        }
    }

    fn minimize(&mut self, objective: &[(LpVarId, f64)]) {
        self.bytes(b"min");
        for &(v, c) in objective {
            self.term(v, c);
        }
    }
}

/// The built-in solver behind a [`Fingerprint`] of everything it is asked.
#[derive(Default)]
struct FingerprintBackend(Mutex<Fingerprint>);

impl FingerprintBackend {
    fn print(&self) -> std::sync::MutexGuard<'_, Fingerprint> {
        self.0.lock().expect("fingerprint lock")
    }
}

struct FingerprintSession<'a> {
    inner: Box<dyn LpSession + 'a>,
    backend: &'a FingerprintBackend,
}

impl LpSession for FingerprintSession<'_> {
    fn add_var(&mut self, name: &str, free: bool) -> LpVarId {
        self.backend.print().var(free);
        self.inner.add_var(name, free)
    }

    fn add_constraint(&mut self, terms: &[(LpVarId, f64)], cmp: Cmp, rhs: f64) {
        self.backend.print().row(terms.iter().copied(), cmp, rhs);
        self.inner.add_constraint(terms, cmp, rhs);
    }

    fn minimize(&mut self, objective: &[(LpVarId, f64)]) -> LpSolution {
        self.backend.print().minimize(objective);
        self.inner.minimize(objective)
    }

    fn num_vars(&self) -> usize {
        self.inner.num_vars()
    }

    fn num_constraints(&self) -> usize {
        self.inner.num_constraints()
    }
}

impl LpBackend for FingerprintBackend {
    fn name(&self) -> &str {
        SimplexBackend.name()
    }

    fn open<'a>(&'a self, problem: &LpProblem) -> Box<dyn LpSession + 'a> {
        self.open_with(problem, &SolverTuning::default())
    }

    fn open_with<'a>(
        &'a self,
        problem: &LpProblem,
        tuning: &SolverTuning,
    ) -> Box<dyn LpSession + 'a> {
        self.print().open(problem);
        Box::new(FingerprintSession {
            inner: SimplexBackend.open_with(problem, tuning),
            backend: self,
        })
    }
}
