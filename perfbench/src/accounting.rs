//! Verdicts and their tally: which outcomes are answers and which are
//! failures.
//!
//! A parse or check rejection and an LP-infeasible "no bound at this
//! degree" are verdicts the analyzer is entitled to give.  Panics, any
//! other error, and bounds the oracle refutes are failures.

use central_moment_analysis::{AnalysisReport, CmaError};

/// The stage that rejected a program before analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Parse,
    Check,
}

/// What one analysis ended with.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Moment bounds were reported.  `sound` says whether both Thm 4.4
    /// side conditions were established and `terminates` whether the LP
    /// one (a finite `E[T^k]`) was; both are `None` when not checked.
    Bounded {
        sound: Option<bool>,
        terminates: Option<bool>,
    },
    /// The LP is infeasible at the requested degree: no bound exists there.
    NoBound,
    /// The program was rejected before analysis.
    Rejected(Stage),
    /// A panic, an unexpected error, or a refuted bound.
    Failed(String),
}

impl Verdict {
    /// Classifies the result of one pipeline run.
    pub fn of(result: &Result<AnalysisReport, CmaError>) -> Verdict {
        match result {
            Ok(report) => Verdict::Bounded {
                sound: report.is_sound(),
                terminates: report
                    .soundness
                    .as_ref()
                    .map(|s| s.termination_moment.is_some()),
            },
            Err(e) if e.check_report().is_some() => Verdict::Rejected(Stage::Check),
            Err(e) if is_parse_error(e) => Verdict::Rejected(Stage::Parse),
            Err(e) if e.infeasible_at().is_some() => Verdict::NoBound,
            Err(e) => Verdict::Failed(e.to_string()),
        }
    }
}

fn is_parse_error(e: &CmaError) -> bool {
    match e {
        CmaError::Parse(_) | CmaError::Program(_) => true,
        CmaError::Context { source, .. } => is_parse_error(source),
        _ => false,
    }
}

/// Verdict counts over the programs of one workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    pub attempted: usize,
    pub bounded: usize,
    /// Bounded programs whose soundness was checked.
    pub sound_checked: usize,
    /// Checked programs whose side conditions were established.
    pub sound: usize,
    /// Checked programs with a finite `E[T^k]` established.
    pub terminating: usize,
    pub no_bound: usize,
    pub rejected_parse: usize,
    pub rejected_check: usize,
    /// `(program, reason)` of every failure.
    pub failures: Vec<(String, String)>,
}

impl Tally {
    pub fn add(&mut self, program: &str, verdict: &Verdict) {
        self.attempted += 1;
        match verdict {
            Verdict::Bounded { sound, terminates } => {
                self.bounded += 1;
                if let (Some(sound), Some(terminates)) = (sound, terminates) {
                    self.sound_checked += 1;
                    self.sound += usize::from(*sound);
                    self.terminating += usize::from(*terminates);
                }
            }
            Verdict::NoBound => self.no_bound += 1,
            Verdict::Rejected(Stage::Parse) => self.rejected_parse += 1,
            Verdict::Rejected(Stage::Check) => self.rejected_check += 1,
            Verdict::Failed(why) => self.failures.push((program.to_string(), why.clone())),
        }
    }

    /// Programs that reached the analysis (not rejected before it).
    pub fn analyzed(&self) -> usize {
        self.attempted - self.rejected_parse - self.rejected_check
    }

    pub fn failed(&self) -> usize {
        self.failures.len()
    }

    /// `1 − failed_share`: the share of programs whose verdict is an answer
    /// the oracle accepts.
    pub fn ok_share(&self) -> f64 {
        1.0 - self.failed() as f64 / self.attempted as f64
    }

    pub fn bounded_share(&self) -> f64 {
        self.bounded as f64 / self.attempted as f64
    }

    /// Share of checked bounded programs with a finite `E[T^k]`
    /// established; 1 when no program was checked (every check requested
    /// succeeded, vacuously).
    pub fn termination_share(&self) -> f64 {
        if self.sound_checked == 0 {
            1.0
        } else {
            self.terminating as f64 / self.sound_checked as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use central_moment_analysis::Analysis;

    #[test]
    fn rejections_and_no_bound_are_verdicts_not_failures() {
        let mut tally = Tally::default();
        tally.add("a", &Verdict::Rejected(Stage::Parse));
        tally.add("b", &Verdict::Rejected(Stage::Check));
        tally.add("c", &Verdict::NoBound);
        tally.add(
            "d",
            &Verdict::Bounded {
                sound: Some(true),
                terminates: Some(true),
            },
        );
        assert_eq!(tally.failed(), 0);
        assert_eq!(tally.ok_share(), 1.0);
        assert_eq!(tally.analyzed(), 2);
        assert_eq!(tally.bounded_share(), 0.25);
    }

    #[test]
    fn failures_are_counted_against_programs_attempted() {
        let mut tally = Tally::default();
        tally.add(
            "ok",
            &Verdict::Bounded {
                sound: Some(false),
                terminates: Some(false),
            },
        );
        tally.add("bad", &Verdict::Failed("panic".into()));
        assert_eq!(tally.failures, [("bad".to_string(), "panic".to_string())]);
        assert_eq!(tally.ok_share(), 0.5);
        assert_eq!(tally.termination_share(), 0.0);
    }

    #[test]
    fn unchecked_soundness_is_vacuously_complete() {
        let mut tally = Tally::default();
        tally.add(
            "x",
            &Verdict::Bounded {
                sound: None,
                terminates: None,
            },
        );
        assert_eq!(tally.sound_checked, 0);
        assert_eq!(tally.termination_share(), 1.0);
    }

    #[test]
    fn pipeline_errors_classify_by_stage() {
        let parse = Analysis::parse("func main( begin end").map(|_| unreachable!());
        assert_eq!(Verdict::of(&parse), Verdict::Rejected(Stage::Parse));
        // CMA007: a negative tick is an error in nonnegative-cost mode.
        let check = Analysis::parse("func main() begin tick(-2) end")
            .expect("parses")
            .check_nonneg_cost(true)
            .run();
        assert_eq!(Verdict::of(&check), Verdict::Rejected(Stage::Check));
        let ok = Analysis::parse("func main() begin tick(1) end")
            .expect("parses")
            .soundness(false)
            .run();
        assert_eq!(
            Verdict::of(&ok),
            Verdict::Bounded {
                sound: None,
                terminates: None
            }
        );
    }
}
