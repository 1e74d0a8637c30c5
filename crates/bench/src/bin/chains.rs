//! Fig. 10 chain-scaling experiment.
//!
//! Runs the coupon-chain and random-walk-chain families (`cma-suite`'s
//! `synthetic` module) at growing chain lengths, once per solve mode, and
//! writes the measurements as a JSON array — the `BENCH_chains.json`
//! artifact the CI `bench-smoke` job uploads to track the perf trajectory.
//! Rows carry every solver counter, under the report's names, so degeneracy
//! regressions show up as iteration blow-up at fixed problem size.  Each row
//! is analyzed [`RUNS`] times: `analysis_ms` is the median, and every run
//! must take the same solver path (equal path counters).
//!
//! ```text
//! cargo run -p cma-bench --release --bin chains -- \
//!     [--out BENCH_chains.json] [--max-n 10] [--step 3] [--threads N]
//!     [--global-cap 8] [--escalate]
//! ```
//!
//! `--escalate` additionally measures every global-mode row via an
//! in-session degree 1 → 2 escalation (`Analysis::escalate_from`), with
//! plan-reuse and escalation-pivot columns in the JSON rows.  The sweep then
//! also visits `--global-cap` itself (even when the stride would skip it):
//! the cap is the largest size global mode runs at, which is exactly where
//! the warm-escalation-vs-cold comparison matters.
//!
//! Compositional mode (the regime Fig. 10 actually evaluates — one LP per
//! SCC) is measured across the whole sweep.  Global mode — one monolithic LP
//! per program — is capped at `--global-cap` chain links (default 8).

use std::io::Write as _;

use central_moment_analysis::{json, Analysis, SolveMode, SolveStats};
use cma_suite::{synthetic, Benchmark};

/// Analyses per row; `analysis_ms` is their median.
const RUNS: usize = 5;

struct Row {
    family: &'static str,
    n: usize,
    mode: &'static str,
    /// Whether the degree-2 result was reached by in-session escalation
    /// from a degree-1 session (`--escalate`) instead of a direct solve.
    escalated: bool,
    analysis_ms: f64,
    lp_variables: usize,
    lp_constraints: usize,
    lp_solves: usize,
    /// Solver counters, merged over every solve of the row.
    stats: SolveStats,
    /// Template columns the escalation replayed from the derivation plan.
    plan_reused_columns: usize,
    /// Dual-simplex pivots the escalated warm re-solve spent.
    escalation_dual_pivots: usize,
    mean_upper: f64,
}

fn measure(
    benchmark: &Benchmark,
    family: &'static str,
    n: usize,
    mode: SolveMode,
    threads: usize,
    escalate: bool,
) -> Option<Row> {
    let mut analysis = Analysis::benchmark(benchmark)
        .degree(2)
        .mode(mode)
        .threads(threads)
        .soundness(false);
    if escalate {
        analysis = analysis.escalate_from(1);
    }
    let mut reports = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        reports.push(analysis.clone().run().ok()?);
    }
    let report = &reports[0];
    for other in &reports[1..] {
        assert!(
            other.lp.totals == report.lp.totals,
            "{family}/{n} {mode:?}: the solver path differs between runs"
        );
    }
    let mut ms: Vec<f64> = reports
        .iter()
        .map(|r| r.timings.analysis.as_secs_f64() * 1e3)
        .collect();
    ms.sort_by(f64::total_cmp);
    let escalation = report.escalation;
    Some(Row {
        family,
        n,
        mode: match mode {
            SolveMode::Global => "global",
            SolveMode::Compositional => "compositional",
        },
        escalated: escalate,
        // The full derive+solve time: for escalated runs `result.elapsed`
        // covers only the escalation step, while the analysis phase timing
        // includes the mandatory lower-degree base solve as well.
        analysis_ms: ms[RUNS / 2],
        lp_variables: report.lp.variables,
        lp_constraints: report.lp.constraints,
        lp_solves: report.lp.solves,
        stats: report.lp.totals,
        plan_reused_columns: escalation.map_or(0, |e| e.reused_columns),
        escalation_dual_pivots: escalation.map_or(0, |e| e.dual_pivots),
        mean_upper: report.mean().hi(),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_chains.json".to_string();
    let mut max_n = 10usize;
    let mut step = 3usize;
    let mut threads = 1usize;
    let mut global_cap = 8usize;
    let mut escalate = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("missing value for {flag}");
                    std::process::exit(2);
                })
                .clone()
        };
        match arg.as_str() {
            "--out" => out_path = value("--out"),
            "--max-n" => max_n = value("--max-n").parse().expect("numeric --max-n"),
            "--step" => step = value("--step").parse().expect("numeric --step"),
            "--threads" => threads = value("--threads").parse().expect("numeric --threads"),
            "--global-cap" => {
                global_cap = value("--global-cap").parse().expect("numeric --global-cap")
            }
            "--escalate" => escalate = true,
            other => {
                eprintln!(
                    "unknown option `{other}` (expected --out/--max-n/--step/\
                     --threads/--global-cap/--escalate)"
                );
                std::process::exit(2);
            }
        }
    }

    let mut rows: Vec<Row> = Vec::new();
    let mut sizes = synthetic::sweep(max_n, step);
    if escalate && global_cap <= max_n && !sizes.contains(&global_cap) {
        sizes.push(global_cap);
        sizes.sort_unstable();
    }
    for n in sizes {
        let coupon = synthetic::coupon_chain(n).in_suite("synthetic");
        let walk = synthetic::random_walk_chain(n).in_suite("synthetic");
        for mode in [SolveMode::Global, SolveMode::Compositional] {
            if mode == SolveMode::Global && n > global_cap {
                continue;
            }
            for (family, b) in [("coupon-chain", &coupon), ("walk-chain", &walk)] {
                // With --escalate, global-mode rows are additionally measured
                // via a degree 1 -> 2 in-session escalation (compositional
                // sessions would restart cold, so the sweep skips them).
                let mut variants = vec![false];
                if escalate && mode == SolveMode::Global {
                    variants.push(true);
                }
                for escalated in variants {
                    match measure(b, family, n, mode, threads, escalated) {
                        Some(row) => {
                            eprintln!(
                                "{family}/{n} {}{}: {:.1} ms ({} vars, {} rows, {} solves, {} iters, {} etas, {} plan cols reused)",
                                row.mode,
                                if row.escalated { " escalate" } else { "" },
                                row.analysis_ms,
                                row.lp_variables,
                                row.lp_constraints,
                                row.lp_solves,
                                row.stats.iterations,
                                row.stats.etas,
                                row.plan_reused_columns
                            );
                            rows.push(row);
                        }
                        None => eprintln!("{family}/{n} {mode:?}: not analyzable"),
                    }
                }
            }
        }
    }

    // Rows go through the shared report JSON writer so this encoder cannot
    // drift from the CLI's.
    let json = json::object([
        ("experiment", json::string("fig10-chains")),
        ("threads", threads.to_string()),
        (
            "rows",
            json::array(rows.iter().map(|r| {
                json::object(
                    [
                        ("family", json::string(r.family)),
                        ("n", r.n.to_string()),
                        ("mode", json::string(r.mode)),
                        ("escalated", r.escalated.to_string()),
                        (
                            "analysis_ms",
                            json::num((r.analysis_ms * 1e3).round() / 1e3),
                        ),
                        ("lp_variables", r.lp_variables.to_string()),
                        ("lp_constraints", r.lp_constraints.to_string()),
                        ("lp_solves", r.lp_solves.to_string()),
                    ]
                    .into_iter()
                    .chain(json::counters(&r.stats))
                    .chain([
                        ("plan_reused_columns", r.plan_reused_columns.to_string()),
                        (
                            "escalation_dual_pivots",
                            r.escalation_dual_pivots.to_string(),
                        ),
                        ("mean_upper", json::num((r.mean_upper * 1e6).round() / 1e6)),
                    ]),
                )
            })),
        ),
    ]);

    let mut file = std::fs::File::create(&out_path).expect("create output file");
    file.write_all(json.as_bytes()).expect("write output");
    file.write_all(b"\n").expect("write trailing newline");
    eprintln!("wrote {} rows to {out_path}", rows.len());
}
