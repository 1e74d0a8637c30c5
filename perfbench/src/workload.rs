//! The four workloads and the one call that analyzes an input.

use std::time::{Duration, Instant};

use central_moment_analysis::suite::{self, synthetic, Benchmark};
use central_moment_analysis::{
    parse_program, Analysis, AnalysisReport, CmaError, LpBackend, Program, SimplexBackend,
    SolveMode, Var,
};

/// Suite programs left out of the `suite` workload: on the shipped
/// defaults their soundness phase alone takes 159 s and 345 s, and
/// `--timeout` does not bound that phase.
pub const SUITE_EXCLUDED: [&str; 2] = ["kura/(1-2)", "synthetic/coupon-chain-5"];

/// Programs per `corpus` pass.
pub const CORPUS_COUNT: usize = 500;

/// Worker threads of the compositional workload (the machine's core count
/// when the workload was defined).
pub const COMPOSITIONAL_THREADS: usize = 2;

/// Names of the workloads, in the order BENCHMARK.json lists them.
pub const NAMES: [&str; 4] = ["suite", "chains-global", "chains-compositional", "corpus"];

/// What the analyzer receives: a built program or source text.
#[derive(Debug, Clone)]
pub enum Input {
    Built(Box<Benchmark>),
    Source(String),
}

/// One program of a workload.
#[derive(Debug, Clone)]
pub struct Item {
    pub name: String,
    pub input: Input,
}

impl Item {
    /// The program and initial state the oracle simulates; `None` when the
    /// source does not parse.
    pub fn simulation_input(&self) -> Option<(Program, Vec<(Var, f64)>)> {
        match &self.input {
            Input::Built(b) => Some((b.program.clone(), b.initial_state())),
            Input::Source(text) => parse_program(text).ok().map(|p| (p, Vec::new())),
        }
    }
}

/// Options a workload sets on top of the pipeline's defaults.
#[derive(Debug, Clone, Copy, Default)]
pub struct Config {
    pub degree: Option<usize>,
    pub mode: Option<SolveMode>,
    pub threads: Option<usize>,
    pub soundness: bool,
}

impl Config {
    fn apply<B: LpBackend>(&self, mut a: Analysis<B>) -> Analysis<B> {
        if let Some(degree) = self.degree {
            a = a.degree(degree);
        }
        if let Some(mode) = self.mode {
            a = a.mode(mode);
        }
        if let Some(threads) = self.threads {
            a = a.threads(threads);
        }
        a.soundness(self.soundness)
    }
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub items: Vec<Item>,
    pub config: Config,
}

fn built(benchmarks: impl IntoIterator<Item = Benchmark>) -> Vec<Item> {
    benchmarks
        .into_iter()
        .map(|b| Item {
            name: b.qualified_name(),
            input: Input::Built(Box::new(b)),
        })
        .collect()
}

fn chains(ns: &[usize], coupon_ns: &[usize]) -> Vec<Item> {
    built(
        ns.iter()
            .map(|&n| synthetic::random_walk_chain(n))
            .chain(coupon_ns.iter().map(|&n| synthetic::coupon_chain(n))),
    )
}

/// Builds the named workload's inputs; `corpus_seed` seeds the generated
/// corpus.  `None` for an unknown name.
pub fn build(name: &str, corpus_seed: u64) -> Option<Workload> {
    let chain_config = |mode, threads| Config {
        degree: Some(2),
        mode: Some(mode),
        threads,
        soundness: false,
    };
    let (name, items, config) = match name {
        "suite" => (
            NAMES[0],
            built(
                suite::all_benchmarks()
                    .into_iter()
                    .filter(|b| !SUITE_EXCLUDED.contains(&b.qualified_name().as_str())),
            ),
            Config {
                soundness: true,
                ..Config::default()
            },
        ),
        "chains-global" => (
            NAMES[1],
            chains(&[2, 4, 6, 8], &[4, 8]),
            chain_config(SolveMode::Global, None),
        ),
        "chains-compositional" => (
            NAMES[2],
            chains(&[8, 16, 32], &[8, 16, 32]),
            chain_config(SolveMode::Compositional, Some(COMPOSITIONAL_THREADS)),
        ),
        "corpus" => (
            NAMES[3],
            (0..CORPUS_COUNT as u64)
                .map(|i| {
                    let s = corpus_seed.wrapping_add(i);
                    Item {
                        name: format!("seed_{s:05}"),
                        input: Input::Source(cma_corpus::gen::gen_program(s)),
                    }
                })
                .collect(),
            Config {
                soundness: true,
                ..Config::default()
            },
        ),
        _ => return None,
    };
    Some(Workload {
        name,
        items,
        config,
    })
}

/// A tiny program analyzed once, untimed, in the workload's own input form
/// and options, so that lazy initialization happens before measuring.
pub fn warm_up(workload: &Workload) {
    let input = match workload.items[0].input {
        Input::Built(_) => Input::Built(Box::new(synthetic::coupon_chain(2))),
        Input::Source(_) => {
            Input::Source("func main() begin if prob(0.5) then tick(2) else tick(4) fi end".into())
        }
    };
    let item = Item {
        name: "warm-up".into(),
        input,
    };
    let run = analyze(&item, &workload.config, None::<SimplexBackend>);
    assert!(run.result.is_ok(), "the warm-up program analyzes");
}

/// One analysis as the closed loop ran it.
pub struct Run {
    /// Time spent in `Analysis::parse` (source inputs only).
    pub parse: Option<Duration>,
    /// When `Analysis::run` was entered (absent when parsing failed).
    pub run_start: Option<Instant>,
    /// Wall time of `Analysis::run`.
    pub run_wall: Duration,
    pub result: Result<AnalysisReport, CmaError>,
}

/// Analyzes one input with the workload's options, on the default backend
/// or — for the traced run — on `backend`.
pub fn analyze<B: LpBackend>(item: &Item, config: &Config, backend: Option<B>) -> Run {
    let (analysis, parse) = match &item.input {
        Input::Built(b) => (Ok(Analysis::benchmark(b)), None),
        Input::Source(text) => {
            let start = Instant::now();
            let parsed = Analysis::parse(text);
            (parsed, Some(start.elapsed()))
        }
    };
    let analysis = match analysis {
        Ok(a) => config.apply(a),
        Err(e) => {
            return Run {
                parse,
                run_start: None,
                run_wall: Duration::ZERO,
                result: Err(e),
            }
        }
    };
    let run_start = Instant::now();
    let result = match backend {
        None => analysis.run(),
        Some(backend) => analysis.backend(backend).run(),
    };
    Run {
        parse,
        run_start: Some(run_start),
        run_wall: run_start.elapsed(),
        result,
    }
}
