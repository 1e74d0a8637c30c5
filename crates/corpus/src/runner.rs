//! The multi-process, crash-isolated campaign runner.
//!
//! Each program is analyzed by invoking the `cma` binary in a fresh child
//! process: the process boundary is what turns an analyzer abort, stack
//! overflow, or OOM kill into an isolated per-program failure instead of a
//! dead campaign.  Child output goes to scratch files rather than pipes, so
//! a chatty child can never deadlock against a parent that is not reading.
//!
//! Deadlines are layered.  The child gets a *soft* budget via `--timeout`
//! (0.8 of the per-program deadline, on every attempt), so an
//! analysis that runs out of time reports its own "budget exhausted"; the
//! parent holds the *hard* deadline and kills the child outright when it
//! passes.  The soft budget bounds the whole analysis and never sends the
//! analyzer down its degradation ladder: a forwarded `--group-timeout`
//! does.  Retries are bounded and restricted to transient runs (a
//! hard-deadline kill, a crash).  An in-child exhaustion is final: a retry
//! would get the same soft budget, repeat the same work and end the same
//! way.
//!
//! Workers steal programs from a shared atomic cursor — no work queue, no
//! channel, and naturally balanced when program costs vary by orders of
//! magnitude.

use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::journal::{Journal, JournalEntry, Outcome};

/// The child's soft `--timeout` as a share of the hard per-program
/// deadline: what is left is the child's time to report before the parent
/// kills it.
const SOFT_FRACTION: f64 = 0.8;

/// Everything a campaign needs: the binary, the programs, and the budgets.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Path to the `cma` binary to invoke per program.
    pub cma: PathBuf,
    /// The programs to analyze, in submission order.
    pub programs: Vec<PathBuf>,
    /// Number of concurrent worker threads (and hence child processes).
    pub jobs: usize,
    /// The hard per-program deadline; the child is killed when it passes.
    pub timeout: Duration,
    /// Extra attempts granted to transient failures (a hard-deadline kill,
    /// a crash).
    pub retries: u32,
    /// Journal path; an existing journal resumes the campaign.
    pub journal: PathBuf,
    /// Extra arguments appended to every `cma analyze` invocation
    /// (e.g. `--degree 4`).
    pub analyze_args: Vec<String>,
}

/// The aggregate result of a campaign, diffable across runs.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Programs submitted to this run (resumed ones included).
    pub total: usize,
    /// Programs skipped because the journal already recorded them.
    pub resumed: usize,
    /// Final per-program outcomes, sorted by path for stable diffs.
    pub entries: Vec<JournalEntry>,
}

impl CampaignReport {
    fn count(&self, outcome: Outcome) -> usize {
        self.entries.iter().filter(|e| e.outcome == outcome).count()
    }

    /// Successful analyses (including degraded ones).
    pub fn ok(&self) -> usize {
        self.count(Outcome::Ok)
    }

    /// Successful analyses whose bounds were budget-degraded.
    pub fn degraded(&self) -> usize {
        self.entries.iter().filter(|e| e.degraded).count()
    }

    /// Programs that exceeded their deadline (soft or hard).
    pub fn timeouts(&self) -> usize {
        self.count(Outcome::Timeout)
    }

    /// Programs whose analyzer process died abnormally.
    pub fn crashes(&self) -> usize {
        self.count(Outcome::Crash)
    }

    /// Programs rejected by the analyzer with an ordinary error.
    pub fn failed(&self) -> usize {
        self.count(Outcome::AnalysisFailed)
    }

    /// Renders the report as stable, diffable JSON: counts first, then the
    /// per-program outcomes sorted by path.  Volatile data (durations) is
    /// deliberately excluded so reruns of an identical corpus diff clean.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"total\":{},\"ok\":{},\"degraded\":{},\"timeouts\":{},\"crashes\":{},\"failed\":{},\"resumed\":{},\"programs\":[",
            self.total,
            self.ok(),
            self.degraded(),
            self.timeouts(),
            self.crashes(),
            self.failed(),
            self.resumed,
        );
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"path\":{},\"outcome\":\"{}\",\"attempts\":{},\"degraded\":{}}}",
                crate::journal::escape_str(&e.path),
                e.outcome,
                e.attempts,
                e.degraded,
            ));
        }
        out.push_str("]}");
        out
    }
}

impl std::fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "corpus campaign: {} programs ({} resumed from journal)",
            self.total, self.resumed
        )?;
        writeln!(
            f,
            "  ok: {} ({} degraded)   timeouts: {}   crashes: {}   failed: {}",
            self.ok(),
            self.degraded(),
            self.timeouts(),
            self.crashes(),
            self.failed(),
        )?;
        for e in &self.entries {
            if e.outcome != Outcome::Ok {
                writeln!(
                    f,
                    "  [{}] {} (attempts: {}) {}",
                    e.outcome, e.path, e.attempts, e.detail
                )?;
            }
        }
        Ok(())
    }
}

/// What one child-process run of one program produced.
struct RunResult {
    outcome: Outcome,
    /// Whether another attempt could end differently (a hard-deadline kill
    /// or a crash).
    retryable: bool,
    degraded: bool,
    detail: String,
}

/// Runs `cma analyze` on one program in a child process, killing it past
/// the hard deadline.
fn run_one(config: &CampaignConfig, program: &Path, scratch_tag: &str) -> io::Result<RunResult> {
    let scratch = std::env::temp_dir();
    let out_path = scratch.join(format!(
        "cma-corpus-{}-{scratch_tag}.out",
        std::process::id()
    ));
    let err_path = scratch.join(format!(
        "cma-corpus-{}-{scratch_tag}.err",
        std::process::id()
    ));
    let out_file = File::create(&out_path)?;
    let err_file = File::create(&err_path)?;

    let soft_secs = (config.timeout.as_secs_f64() * SOFT_FRACTION).max(0.001);
    let mut child = Command::new(&config.cma)
        .arg("analyze")
        .arg(program)
        .arg("--json")
        .arg("--timeout")
        .arg(format!("{soft_secs}"))
        .args(&config.analyze_args)
        .stdin(Stdio::null())
        .stdout(Stdio::from(out_file))
        .stderr(Stdio::from(err_file))
        .spawn()?;

    let hard_deadline = Instant::now() + config.timeout;
    let mut killed = false;
    let status = loop {
        if let Some(status) = child.try_wait()? {
            break status;
        }
        if Instant::now() >= hard_deadline {
            // Past the hard deadline: the child gets no further grace.
            let _ = child.kill();
            killed = true;
            break child.wait()?;
        }
        std::thread::sleep(Duration::from_millis(5));
    };

    let stdout = std::fs::read_to_string(&out_path).unwrap_or_default();
    let stderr = std::fs::read_to_string(&err_path).unwrap_or_default();
    let _ = std::fs::remove_file(&out_path);
    let _ = std::fs::remove_file(&err_path);

    // Prefer the analyzer's structured one-liner (panic hooks write a noisy
    // multi-line backtrace around it); otherwise the first non-empty line.
    let first_err_line = stderr
        .lines()
        .map(str::trim)
        .find(|l| l.contains("internal error"))
        .or_else(|| stderr.lines().map(str::trim).find(|l| !l.is_empty()))
        .unwrap_or("")
        .to_string();
    let result = if killed {
        RunResult {
            outcome: Outcome::Timeout,
            retryable: true,
            degraded: false,
            detail: format!(
                "killed after {:.2}s hard deadline",
                config.timeout.as_secs_f64()
            ),
        }
    } else if status.success() {
        RunResult {
            outcome: Outcome::Ok,
            retryable: false,
            degraded: stdout.contains("\"degraded\":true"),
            detail: String::new(),
        }
    } else if status.code().is_none() {
        // No exit code: the child died to a signal (abort, segfault, …).
        RunResult {
            outcome: Outcome::Crash,
            retryable: true,
            degraded: false,
            detail: describe_signal_death(&status, &first_err_line),
        }
    } else if stderr.contains("budget exhausted") || stdout.contains("budget exhausted") {
        // The in-child soft budget ran out before the analysis produced a
        // result; every attempt gets the same budget, so this is final.
        RunResult {
            outcome: Outcome::Timeout,
            retryable: false,
            degraded: false,
            detail: format!("in-child budget ({soft_secs:.2}s) exhausted"),
        }
    } else if stderr.contains("internal error") {
        // A contained panic: the child survived to report it, but the
        // analyzer state is gone — classify with the crashes.
        RunResult {
            outcome: Outcome::Crash,
            retryable: true,
            degraded: false,
            detail: first_err_line,
        }
    } else {
        RunResult {
            outcome: Outcome::AnalysisFailed,
            retryable: false,
            degraded: false,
            detail: first_err_line,
        }
    };
    Ok(result)
}

#[cfg(unix)]
fn describe_signal_death(status: &std::process::ExitStatus, fallback: &str) -> String {
    use std::os::unix::process::ExitStatusExt as _;
    match status.signal() {
        Some(sig) => format!("killed by signal {sig}"),
        None => fallback.to_string(),
    }
}

#[cfg(not(unix))]
fn describe_signal_death(_status: &std::process::ExitStatus, fallback: &str) -> String {
    fallback.to_string()
}

/// Runs (or resumes) a campaign: every program not yet in the journal is
/// analyzed in an isolated child process, with bounded retries for
/// transient failures (a hard-deadline kill, a crash), and the journal
/// grows one line per finished program.
///
/// # Errors
///
/// Returns the first I/O error hit while spawning children or writing the
/// journal.  Per-program analyzer failures are *not* errors — they are
/// outcomes in the report.
pub fn run_campaign(config: &CampaignConfig) -> io::Result<CampaignReport> {
    let (journal, prior) = Journal::open(&config.journal)?;
    let done: std::collections::BTreeSet<&str> = prior.iter().map(|e| e.path.as_str()).collect();
    let pending: Vec<&PathBuf> = config
        .programs
        .iter()
        .filter(|p| !done.contains(p.to_string_lossy().as_ref()))
        .collect();
    let resumed = config.programs.len() - pending.len();

    // Child output files are named by process, campaign and attempt, so
    // campaigns running concurrently in one process never share one.
    static CAMPAIGNS: AtomicUsize = AtomicUsize::new(0);
    let campaign = CAMPAIGNS.fetch_add(1, Ordering::Relaxed);
    let cursor = AtomicUsize::new(0);
    let fresh: Mutex<Vec<JournalEntry>> = Mutex::new(Vec::new());
    let failure: Mutex<Option<io::Error>> = Mutex::new(None);
    let workers = config.jobs.max(1).min(pending.len().max(1));

    std::thread::scope(|scope| {
        for worker in 0..workers {
            let cursor = &cursor;
            let fresh = &fresh;
            let failure = &failure;
            let journal = &journal;
            let pending = &pending;
            scope.spawn(move || loop {
                if failure.lock().expect("failure lock poisoned").is_some() {
                    return;
                }
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(program) = pending.get(idx) else {
                    return;
                };
                let started = Instant::now();
                let mut attempts = 0u32;
                let run = loop {
                    attempts += 1;
                    let tag = format!("c{campaign}-w{worker}-i{idx}-a{attempts}");
                    match run_one(config, program, &tag) {
                        Ok(run) => {
                            if run.retryable && attempts <= config.retries {
                                continue;
                            }
                            break run;
                        }
                        Err(e) => {
                            let mut slot = failure.lock().expect("failure lock poisoned");
                            slot.get_or_insert(e);
                            return;
                        }
                    }
                };
                let entry = JournalEntry {
                    path: program.to_string_lossy().into_owned(),
                    outcome: run.outcome,
                    attempts,
                    degraded: run.degraded,
                    duration_ms: started.elapsed().as_millis() as u64,
                    detail: run.detail,
                };
                if let Err(e) = journal.record(&entry) {
                    let mut slot = failure.lock().expect("failure lock poisoned");
                    slot.get_or_insert(e);
                    return;
                }
                fresh.lock().expect("entry lock poisoned").push(entry);
            });
        }
    });

    if let Some(e) = failure.into_inner().expect("failure lock poisoned") {
        return Err(e);
    }

    // The report covers this run's submission set: resumed entries come
    // from the journal, fresh ones from the workers.
    let submitted: std::collections::BTreeSet<String> = config
        .programs
        .iter()
        .map(|p| p.to_string_lossy().into_owned())
        .collect();
    let mut entries: Vec<JournalEntry> = prior
        .into_iter()
        .filter(|e| submitted.contains(&e.path))
        .chain(fresh.into_inner().expect("entry lock poisoned"))
        .collect();
    entries.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(CampaignReport {
        total: config.programs.len(),
        resumed,
        entries,
    })
}
