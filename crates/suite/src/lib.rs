//! The benchmark programs of the paper's evaluation (§6 and appendices),
//! expressed with the `cma-appl` builder DSL.
//!
//! Every benchmark carries the metadata the harness needs to reproduce the
//! corresponding table row or figure series: the program, the valuation at
//! which bounds are reported (and at which the LP objective minimizes
//! imprecision), the target moment degree, and the initial valuation used by
//! the Monte-Carlo cross-check.
//!
//! | Module | Paper experiment |
//! |---|---|
//! | [`running`]     | Fig. 1/2/3/7 running example, Tab. 2 / Fig. 11 variants |
//! | [`kura`]        | Tab. 1/3/4, Fig. 9/15 — comparison with Kura et al. |
//! | [`absynth`]     | Tab. 5 — expected monotone costs (Absynth suite subset) |
//! | [`nonmonotone`] | Tab. 6 — non-monotone expected costs (Wang et al. suite) |
//! | [`synthetic`]   | Fig. 10 — scalability chains |
//! | [`timing`]      | Appendix I — timing-attack case study |

pub mod absynth;
pub mod kura;
pub mod nonmonotone;
pub mod running;
pub mod synthetic;
pub mod timing;

use cma_appl::Program;
use cma_semiring::poly::Var;

/// A benchmark program plus the metadata needed to reproduce the paper's
/// experiment for it.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Short identifier used in tables (e.g. `"(2-1)"` or `"coupon"`).
    pub name: String,
    /// The suite the benchmark belongs to (`"running"`, `"kura"`, …); empty
    /// for ad-hoc benchmarks.  Suites namespace the ids: two suites may both
    /// have an `rdwalk`, distinguished as `running/rdwalk` and
    /// `absynth/rdwalk` (see [`Benchmark::qualified_name`]).
    pub suite: String,
    /// What the benchmark models and which experiment uses it.
    pub description: String,
    /// The program itself.
    pub program: Program,
    /// Valuation of symbolic parameters at which bounds are evaluated and at
    /// which the analysis minimizes imprecision.
    pub valuation: Vec<(Var, f64)>,
    /// Target moment degree for the experiment (2 or 4 in the paper).
    pub degree: usize,
}

impl Benchmark {
    /// Builds a benchmark with the given data.
    pub fn new(
        name: impl Into<String>,
        description: impl Into<String>,
        program: Program,
        valuation: Vec<(Var, f64)>,
        degree: usize,
    ) -> Self {
        Benchmark {
            name: name.into(),
            suite: String::new(),
            description: description.into(),
            program,
            valuation,
            degree,
        }
    }

    /// Tags the benchmark as belonging to a suite (namespacing its id).
    pub fn in_suite(mut self, suite: impl Into<String>) -> Self {
        self.suite = suite.into();
        self
    }

    /// The namespaced id: `suite/name`, or the bare name for suite-less
    /// benchmarks.
    pub fn qualified_name(&self) -> String {
        if self.suite.is_empty() {
            self.name.clone()
        } else {
            format!("{}/{}", self.suite, self.name)
        }
    }

    /// Whether `id` selects this benchmark: either the qualified id or the
    /// bare name (bare names can be ambiguous across suites — callers should
    /// check how many benchmarks match).
    pub fn matches_id(&self, id: &str) -> bool {
        self.name == id || self.qualified_name() == id
    }

    /// The valuation as `(name, value)` pairs for the simulator's initial
    /// state.
    pub fn initial_state(&self) -> Vec<(Var, f64)> {
        self.valuation.clone()
    }
}

/// Convenience: a variable by name.
pub fn var(name: &str) -> Var {
    Var::new(name)
}

/// All benchmarks used by the moment-bound tables (Tab. 1/3/4, Fig. 9),
/// namespaced under `kura/`.
pub fn kura_suite() -> Vec<Benchmark> {
    kura::all()
        .into_iter()
        .map(|b| b.in_suite("kura"))
        .collect()
}

/// All benchmarks of the expected-cost comparison (Tab. 5), namespaced under
/// `absynth/`.
pub fn absynth_suite() -> Vec<Benchmark> {
    absynth::all()
        .into_iter()
        .map(|b| b.in_suite("absynth"))
        .collect()
}

/// All benchmarks of the non-monotone comparison (Tab. 6), namespaced under
/// `nonmonotone/`.
pub fn nonmonotone_suite() -> Vec<Benchmark> {
    nonmonotone::all()
        .into_iter()
        .map(|b| b.in_suite("nonmonotone"))
        .collect()
}

/// Every named benchmark of the paper's evaluation, across all suites, each
/// tagged with its suite so ids are unambiguous (`running/rdwalk` vs
/// `absynth/rdwalk`).
pub fn all_benchmarks() -> Vec<Benchmark> {
    let mut all = kura_suite();
    all.extend(absynth_suite());
    all.extend(nonmonotone_suite());
    all.push(running::rdwalk().in_suite("running"));
    all.push(running::rdwalk_variant_1().in_suite("running"));
    all.push(running::rdwalk_variant_2().in_suite("running"));
    all.push(timing::password_checker(8).in_suite("timing"));
    all.push(synthetic::coupon_chain(5).in_suite("synthetic"));
    all.push(synthetic::random_walk_chain(5).in_suite("synthetic"));
    all
}

/// The benchmarks selected by `id`: a qualified id (`running/rdwalk`)
/// matches exactly one benchmark; a bare name matches every suite that has
/// it (callers decide whether ambiguity is an error).
pub fn find_benchmarks(id: &str) -> Vec<Benchmark> {
    let all = all_benchmarks();
    // An exact qualified match wins outright.
    if let Some(b) = all.iter().find(|b| b.qualified_name() == id) {
        return vec![b.clone()];
    }
    all.into_iter().filter(|b| b.matches_id(id)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_suites_build_valid_programs() {
        let mut total = 0;
        for b in kura_suite()
            .into_iter()
            .chain(absynth_suite())
            .chain(nonmonotone_suite())
            .chain([
                running::rdwalk(),
                running::rdwalk_variant_1(),
                running::rdwalk_variant_2(),
            ])
            .chain([timing::password_checker(8)])
            .chain([synthetic::coupon_chain(5), synthetic::random_walk_chain(5)])
        {
            assert!(!b.name.is_empty());
            assert!(!b.description.is_empty());
            assert!(b.degree >= 1);
            assert!(b.program.size() > 0);
            total += 1;
        }
        assert!(total >= 20, "expected a sizable suite, got {total}");
    }

    #[test]
    fn benchmark_metadata_helpers() {
        let b = running::rdwalk();
        assert_eq!(b.initial_state(), b.valuation);
        assert_eq!(b.qualified_name(), "rdwalk"); // suite-less: bare name
        let tagged = b.in_suite("running");
        assert_eq!(tagged.qualified_name(), "running/rdwalk");
        assert!(tagged.matches_id("rdwalk"));
        assert!(tagged.matches_id("running/rdwalk"));
        assert!(!tagged.matches_id("absynth/rdwalk"));
    }

    #[test]
    fn qualified_ids_are_unique_and_resolve_collisions() {
        let all = all_benchmarks();
        let mut ids: Vec<String> = all.iter().map(|b| b.qualified_name()).collect();
        ids.sort();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "qualified ids must be unique");

        // The PR 1 collision: two suites both ship an `rdwalk`.
        let bare = find_benchmarks("rdwalk");
        assert!(
            bare.len() >= 2,
            "expected the rdwalk collision, got {bare:?}"
        );
        let qualified = find_benchmarks("running/rdwalk");
        assert_eq!(qualified.len(), 1);
        assert_eq!(qualified[0].suite, "running");
        let loop_form = find_benchmarks("absynth/rdwalk");
        assert_eq!(loop_form.len(), 1);
        assert_eq!(loop_form[0].suite, "absynth");

        // Unambiguous bare names still work.
        let unique = find_benchmarks("(1-1)");
        assert_eq!(unique.len(), 1);
        assert!(find_benchmarks("no-such-benchmark").is_empty());
    }
}
