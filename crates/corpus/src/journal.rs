//! The resumable campaign journal: one NDJSON line per finished program.
//!
//! The journal is the campaign's only durable state.  Every completed
//! program appends exactly one line — written and flushed under a lock, so
//! concurrent workers never interleave bytes — and a campaign restarted
//! against the same journal simply skips every program already recorded.
//! A process killed mid-write leaves at most one torn final line; the
//! reader drops unparseable lines, so the only consequence is that the one
//! interrupted program is run again.  Re-running an analysis is idempotent,
//! so this recovery needs no fsync ceremony or write-ahead protocol.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::Mutex;

/// The classification of one program's run under the campaign runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The analyzer exited successfully (possibly with degraded bounds).
    Ok,
    /// The run exceeded its deadline: either the in-child budget reported
    /// exhaustion, or the parent killed the child past the hard deadline.
    Timeout,
    /// The child died abnormally (signal, abort, uncontained panic).
    Crash,
    /// The analyzer exited with an ordinary error (parse failure, checker
    /// rejection, unsupported construct).  Not retried: deterministic.
    AnalysisFailed,
}

impl Outcome {
    /// The stable string used in the journal and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Timeout => "timeout",
            Outcome::Crash => "crash",
            Outcome::AnalysisFailed => "analysis-failed",
        }
    }

    /// Parses the stable string form; `None` for anything else.
    pub fn parse(s: &str) -> Option<Outcome> {
        match s {
            "ok" => Some(Outcome::Ok),
            "timeout" => Some(Outcome::Timeout),
            "crash" => Some(Outcome::Crash),
            "analysis-failed" => Some(Outcome::AnalysisFailed),
            _ => None,
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One journal line: the durable record of one program's campaign result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// The program path, exactly as handed to the runner.
    pub path: String,
    /// The final classification after retries.
    pub outcome: Outcome,
    /// How many times the program was run (1 = no retry needed).
    pub attempts: u32,
    /// Whether the analyzer reported degraded (budget-limited) bounds.
    pub degraded: bool,
    /// Wall-clock milliseconds across all attempts.
    pub duration_ms: u64,
    /// A short human-readable note (first stderr line, kill reason, …).
    pub detail: String,
}

impl JournalEntry {
    /// Serializes the entry as one NDJSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        format!(
            "{{\"path\":{},\"outcome\":\"{}\",\"attempts\":{},\"degraded\":{},\"duration_ms\":{},\"detail\":{}}}",
            escape_str(&self.path),
            self.outcome,
            self.attempts,
            self.degraded,
            self.duration_ms,
            escape_str(&self.detail),
        )
    }

    /// Parses one journal line; `None` for torn or foreign lines.
    pub fn from_line(line: &str) -> Option<JournalEntry> {
        let line = line.trim();
        if !line.starts_with('{') || !line.ends_with('}') {
            return None;
        }
        Some(JournalEntry {
            path: string_field(line, "path")?,
            outcome: Outcome::parse(&string_field(line, "outcome")?)?,
            attempts: u64_field(line, "attempts")? as u32,
            degraded: bool_field(line, "degraded")?,
            duration_ms: u64_field(line, "duration_ms")?,
            detail: string_field(line, "detail")?,
        })
    }
}

/// Escapes a string into a JSON string literal (quotes included).
pub(crate) fn escape_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Extracts the string value of `"key":"…"`, unescaping our own escapes.
fn string_field(line: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\":\"");
    let start = line.find(&marker)? + marker.len();
    let mut out = String::new();
    let mut chars = line[start..].chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
}

/// Extracts the numeric value of `"key":N`.
fn u64_field(line: &str, key: &str) -> Option<u64> {
    let marker = format!("\"{key}\":");
    let start = line.find(&marker)? + marker.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Extracts the boolean value of `"key":true|false`.
fn bool_field(line: &str, key: &str) -> Option<bool> {
    let marker = format!("\"{key}\":");
    let start = line.find(&marker)? + marker.len();
    if line[start..].starts_with("true") {
        Some(true)
    } else if line[start..].starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// An append-only NDJSON journal shared by all campaign workers.
pub struct Journal {
    file: Mutex<File>,
}

impl Journal {
    /// Opens (or creates) the journal at `path`, returning the journal
    /// handle plus every entry already recorded by earlier runs.  Torn or
    /// foreign lines are dropped — their programs will simply be re-run.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than the file not existing yet.
    pub fn open(path: &Path) -> io::Result<(Journal, Vec<JournalEntry>)> {
        let prior = match std::fs::read_to_string(path) {
            Ok(text) => text.lines().filter_map(JournalEntry::from_line).collect(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok((
            Journal {
                file: Mutex::new(file),
            },
            prior,
        ))
    }

    /// Appends one entry as a single flushed line.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write or flush failure.
    pub fn record(&self, entry: &JournalEntry) -> io::Result<()> {
        let mut file = self.file.lock().expect("journal lock poisoned");
        writeln!(file, "{}", entry.to_line())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JournalEntry {
        JournalEntry {
            path: "corpus/seed_00042.appl".to_string(),
            outcome: Outcome::Timeout,
            attempts: 3,
            degraded: false,
            duration_ms: 1500,
            detail: "killed after 0.5s (attempt 3)".to_string(),
        }
    }

    #[test]
    fn entries_round_trip_through_the_line_format() {
        let entry = sample();
        assert_eq!(JournalEntry::from_line(&entry.to_line()), Some(entry));
    }

    #[test]
    fn hostile_strings_survive_escaping() {
        let entry = JournalEntry {
            path: "a \"b\"\\c\n\t\u{1}.appl".to_string(),
            detail: "line1\nline2 \"quoted\"".to_string(),
            ..sample()
        };
        assert_eq!(JournalEntry::from_line(&entry.to_line()), Some(entry));
    }

    #[test]
    fn torn_lines_are_dropped_not_fatal() {
        assert_eq!(
            JournalEntry::from_line("{\"path\":\"x.appl\",\"outco"),
            None
        );
        assert_eq!(JournalEntry::from_line(""), None);
        assert_eq!(JournalEntry::from_line("not json at all"), None);
    }

    #[test]
    fn journal_resumes_with_prior_entries() {
        let dir = std::env::temp_dir().join(format!("cma-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.ndjson");
        let entry = sample();
        {
            let (journal, prior) = Journal::open(&path).unwrap();
            assert!(prior.is_empty());
            journal.record(&entry).unwrap();
        }
        // Simulate a torn final line from a mid-write kill.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"path\":\"torn").unwrap();
        }
        let (_, prior) = Journal::open(&path).unwrap();
        assert_eq!(prior, vec![entry]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
