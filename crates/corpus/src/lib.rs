//! Ecosystem-scale corpus campaigns for the central-moment analyzer.
//!
//! Running the analyzer over one program is a library call; running it over
//! thousands of programs of unknown provenance is an operations problem.
//! A single pathological input must not be able to take the whole campaign
//! down with it — not by crashing (a panic or abort in the analyzer), not by
//! hanging (an LP that never converges), and not by forcing a restart from
//! scratch after the machine reboots.  This crate provides the three pieces
//! that make such campaigns routine:
//!
//! * [`gen`] — a deterministic, seed-driven program generator (promoted from
//!   the checker's property tests) plus a hand-tuned *hostile* fixture whose
//!   analysis is expensive enough to trip any reasonable deadline;
//! * [`journal`] — an append-only NDJSON journal of per-program outcomes.
//!   Each line is written and flushed atomically under a lock, so a campaign
//!   killed mid-run resumes exactly where it left off (a torn final line is
//!   ignored, and its program is simply re-run);
//! * [`runner`] — a multi-process work-stealing runner that invokes the
//!   `cma` binary once per program in a *child process*, redirects its
//!   output to scratch files, polls for completion, and kills it past the
//!   per-program deadline.  Crashes and timeouts are recorded as isolated
//!   failures of that one program; the campaign marches on.
//!
//! The process boundary is the crash-isolation mechanism: an `abort()`, a
//! stack overflow, or an OOM kill in the analyzer takes down only the child.
//! The runner classifies every exit into an [`Outcome`] — `Ok`, `Timeout`,
//! `Crash`, or `AnalysisFailed` — retries only the transient runs (a
//! hard-deadline kill, a crash) a bounded number of times with the same
//! in-child budget, and aggregates everything into a diffable
//! [`CampaignReport`].
//!
//! The crate is deliberately std-only so any other crate in the workspace
//! (including dev-dependencies of low-level crates) can use the generator
//! without dependency cycles.

pub mod gen;
pub mod journal;
pub mod runner;

pub use gen::{gen_program, hostile_source, write_corpus};
pub use journal::{Journal, JournalEntry, Outcome};
pub use runner::{run_campaign, CampaignConfig, CampaignReport};
