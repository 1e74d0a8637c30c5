//! End-to-end benchmark of the central-moment analyzer on its shipped
//! defaults.
//!
//! ```text
//! perfbench --workload <suite|chains-global|chains-compositional|corpus>
//!           --seed N --seconds S --trace <0|1>
//!           [--corpus-seed N] [--oracle-seed N]
//! ```
//!
//! One client analyzes the workload's programs in a closed loop, one after
//! the other, in passes (each pass in an order shuffled by `--seed`) until
//! `--seconds` are spent.  Between analyses it reads the host's speed off a
//! fixed reference kernel ([`speed`]), and every time metric is normalized
//! to a nominal host speed.  A seeded Monte-Carlo oracle then checks every
//! reported bound outside the timed region.  With `--trace 0` the last
//! stdout line carries the end-to-end metrics; with `--trace 1` half the
//! time runs untraced and half through the LP-call tracer, and the last
//! line carries the per-layer metrics.

mod accounting;
mod layers;
mod oracle;
mod speed;
mod stats;
mod trace;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use central_moment_analysis::inference::tail::tail_curve;
use central_moment_analysis::{CentralMoments, GroupLpStats, Interval, SimplexBackend};

use accounting::{Tally, Verdict};
use layers::Layers;
use speed::Gauge;
use trace::Tracer;
use workload::Workload;

/// Every end-to-end metric, with its unit, in output order.
const END_TO_END: [(&str, &str); 10] = [
    ("verdict_ms.geomean", "ms"),
    ("verdict_ms.p50", "ms"),
    ("verdict_ms.p90", "ms"),
    ("programs_per_s", "1/s"),
    ("ok_share", "ratio"),
    ("bounded_share", "ratio"),
    ("termination_share", "ratio"),
    ("tail_bound.geomean", "prob"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Fresh processes timed for `setup_s`; the median is reported.
const SETUP_REPS: usize = 31;
/// Tail bounds are floored here before the geometric mean, so a program
/// whose bound is exactly 0 (a constant cost) does not zero the mean.
const TAIL_FLOOR: f64 = 1e-6;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    corpus_seed: u64,
    oracle_seed: u64,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        corpus_seed: 0,
        oracle_seed: 0,
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            args.setup_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, got `{value}`"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            "--corpus-seed" => args.corpus_seed = value.parse().map_err(|_| bad())?,
            "--oracle-seed" => args.oracle_seed = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !workload::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workload::NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// splitmix64: the benchmark's own deterministic generator.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The item order of one pass: a Fisher–Yates shuffle seeded by the run
/// seed and the pass number.
fn pass_order(n: usize, seed: u64, pass: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = mix(seed ^ mix(pass as u64));
    for i in (1..n).rev() {
        state = mix(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

/// What the first pass learned about one program.
#[derive(Debug, Clone)]
struct Summary {
    verdict: Verdict,
    raw: Vec<Interval>,
    central: Option<CentralMoments>,
    groups: Vec<GroupLpStats>,
}

impl Summary {
    /// Equal verdicts, bit-identical raw intervals, equal LP counters.
    fn same_answer(&self, other: &Summary) -> bool {
        let bits = |v: &[Interval]| -> Vec<(u64, u64)> {
            v.iter()
                .map(|i| (i.lo().to_bits(), i.hi().to_bits()))
                .collect()
        };
        self.verdict == other.verdict
            && bits(&self.raw) == bits(&other.raw)
            && self.groups == other.groups
    }
}

/// One analysis of the closed loop.
#[derive(Debug, Clone, Copy)]
struct Sample {
    item: usize,
    start: Instant,
    end: Instant,
}

impl Sample {
    fn wall_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

struct Measurement {
    samples: Vec<Sample>,
    /// Passes begun (the last may be cut short by the budget).
    passes: usize,
    /// Wall time of the closed loop.
    wall: Duration,
    first: Vec<Option<Summary>>,
    /// Programs whose answer changed between analyses.
    unstable: Vec<String>,
    layers: Layers,
}

/// How the closed loop spends its budget.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// The timed run: the loop stops as soon as the budget is spent after
    /// the first pass, so that every program has run at least once and the
    /// run takes `--seconds` on any host.
    Timed,
    /// The traced run: only whole passes (another starts when at least half
    /// of it fits the budget), since its metrics are per pass.
    Traced,
}

fn measure(
    w: &Workload,
    seed: u64,
    budget: Duration,
    shape: Shape,
    tracer: Option<&Tracer<SimplexBackend>>,
    gauge: &mut Gauge,
) -> Measurement {
    let n = w.items.len();
    let mut m = Measurement {
        samples: Vec::new(),
        passes: 0,
        wall: Duration::ZERO,
        first: vec![None; n],
        unstable: Vec::new(),
        layers: Layers::default(),
    };
    let started = Instant::now();
    'run: loop {
        let pass_start = Instant::now();
        m.passes += 1;
        for i in pass_order(n, seed, m.passes - 1) {
            if shape == Shape::Timed && m.passes > 1 && started.elapsed() >= budget {
                m.wall += pass_start.elapsed();
                break 'run;
            }
            let read = gauge.tick();
            analyze_once(w, i, tracer, &mut m);
            // The gauge's kernel has just evicted the analyzer's data and
            // code from the core's caches, which costs a quick analysis up
            // to several times its warm time: time such an analysis again.
            let last = m.samples.last().expect("just analyzed");
            if read && shape == Shape::Timed && last.end - last.start < speed::PERIOD {
                m.samples.pop();
                analyze_once(w, i, tracer, &mut m);
            }
        }
        m.wall += pass_start.elapsed();
        let half_pass = m.wall / (2 * m.passes as u32);
        if shape == Shape::Traced && started.elapsed() + half_pass > budget {
            break;
        }
    }
    gauge.read();
    m
}

/// Analyzes program `i` once and records its sample and its answer.
fn analyze_once(
    w: &Workload,
    i: usize,
    tracer: Option<&Tracer<SimplexBackend>>,
    m: &mut Measurement,
) {
    let start = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| {
        workload::analyze(&w.items[i], &w.config, tracer)
    }));
    let end = Instant::now();
    m.samples.push(Sample {
        item: i,
        start,
        end,
    });
    if let Some(tracer) = tracer {
        m.layers
            .add_run(run.as_ref().ok(), end - start, &tracer.drain());
    }
    let summary = match &run {
        Ok(run) => {
            let report = run.result.as_ref().ok();
            Summary {
                verdict: Verdict::of(&run.result),
                raw: report.map(|r| r.raw_intervals.clone()).unwrap_or_default(),
                central: report.map(|r| r.central.clone()),
                groups: report.map(|r| r.lp.groups.clone()).unwrap_or_default(),
            }
        }
        Err(payload) => Summary {
            verdict: Verdict::Failed(format!("panic: {}", panic_message(payload))),
            raw: Vec::new(),
            central: None,
            groups: Vec::new(),
        },
    };
    match &m.first[i] {
        None => m.first[i] = Some(summary),
        Some(first) if !first.same_answer(&summary) => {
            if !m.unstable.contains(&w.items[i].name) {
                m.unstable.push(w.items[i].name.clone())
            }
        }
        Some(_) => {}
    }
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".into())
}

/// The oracle's judgement of a workload: the verdict tally (refuted bounds
/// count as failures) and the tail bound of each program it could judge.
struct Judgement {
    tally: Tally,
    tail_bounds: Vec<f64>,
    /// Bounded programs the simulator could not finish.
    skipped: Vec<String>,
}

fn judge(w: &Workload, first: &[Option<Summary>], oracle_seed: u64) -> Judgement {
    let mut j = Judgement {
        tally: Tally::default(),
        tail_bounds: Vec::new(),
        skipped: Vec::new(),
    };
    for (i, (item, summary)) in w.items.iter().zip(first).enumerate() {
        let summary = summary.as_ref().expect("every item ran at least once");
        let mut verdict = summary.verdict.clone();
        if let (Verdict::Bounded { .. }, Some(central)) = (&verdict, &summary.central) {
            let estimate = item.simulation_input().and_then(|(program, initial)| {
                let seed = mix(oracle_seed ^ mix(i as u64));
                oracle::simulate_program(&program, &initial, summary.raw.len() - 1, seed)
            });
            match estimate {
                None => j.skipped.push(item.name.clone()),
                Some(estimate) => {
                    let violations = estimate.violations(&summary.raw);
                    if !violations.is_empty() {
                        verdict = Verdict::Failed(format!("oracle: {}", violations.join("; ")));
                    } else if let Some(t) = estimate.tail_threshold() {
                        let bound = tail_curve(central, [t])[0].probability;
                        j.tail_bounds.push(bound.max(TAIL_FLOOR));
                    }
                }
            }
        }
        j.tally.add(&item.name, &verdict);
    }
    j
}

/// Peak resident set size of this process, in MiB; `None` where the
/// kernel does not report it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Median normalized wall time of a fresh process that builds the
/// workload's inputs and warms the analyzer up.
fn setup_seconds(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut gauge = Gauge::new(1);
    let mut probes = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        gauge.read();
        let start = Instant::now();
        let status = Command::new(&exe)
            .args(["--setup-probe", "--workload", &args.workload])
            .args(["--corpus-seed", &args.corpus_seed.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot start the setup probe: {e}"))?;
        if !status.success() {
            return Err(format!("setup probe failed: {status}"));
        }
        probes.push((start, Instant::now()));
    }
    gauge.read();
    let times: Vec<f64> = probes
        .iter()
        .map(|&(start, end)| (end - start).as_secs_f64() * gauge.speed(start, end))
        .collect();
    Ok(stats::median(&times).expect("at least one repetition"))
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[(&str, f64, &str)]) {
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(metrics)
    );
}

fn report_judgement(w: &Workload, m: &Measurement, j: &Judgement) -> bool {
    let t = &j.tally;
    println!(
        "{}: {} programs, {} passes, {} analyses in {:.3} s",
        w.name,
        w.items.len(),
        m.passes,
        m.samples.len(),
        m.wall.as_secs_f64()
    );
    println!(
        "verdicts: {} bounded ({} sound, {} with finite E[T^k], of {} checked), {} no bound, {} rejected by parse, {} rejected by check, {} failed; {} analyzed",
        t.bounded, t.sound, t.terminating, t.sound_checked, t.no_bound, t.rejected_parse, t.rejected_check,
        t.failed(), t.analyzed()
    );
    println!(
        "oracle: {} bounded programs skipped (simulation unfinished){}{}",
        j.skipped.len(),
        if j.skipped.is_empty() { "" } else { ": " },
        j.skipped.join(", ")
    );
    for (program, why) in &t.failures {
        println!("FAILED {program}: {why}");
    }
    for program in &m.unstable {
        println!("UNSTABLE {program}: answers differ between passes");
    }
    t.failures.is_empty() && m.unstable.is_empty()
}

/// The time metrics of one closed loop, under one way of timing a sample.
/// Each program counts once, at its median time, however many times the
/// loop analyzed it.
struct Times {
    /// Each program's median time.
    medians: Vec<f64>,
    geomean: f64,
    p50: stats::Percentile,
    p90: stats::Percentile,
    /// Programs per second of a pass at those medians.
    per_s: f64,
}

impl Times {
    fn of(samples: &[Sample], programs: usize, ms: impl Fn(&Sample) -> f64) -> Times {
        let mut per_program: Vec<Vec<f64>> = vec![Vec::new(); programs];
        for s in samples {
            per_program[s.item].push(ms(s));
        }
        let medians: Vec<f64> = per_program
            .iter()
            .map(|s| stats::median(s).expect("every program ran"))
            .collect();
        Times {
            geomean: stats::geomean(&medians).expect("positive times"),
            p50: stats::percentile(&medians, 0.5).expect("programs"),
            p90: stats::percentile(&medians, 0.9).expect("programs"),
            per_s: 1e3 * programs as f64 / medians.iter().sum::<f64>(),
            medians,
        }
    }
}

fn run_untraced(args: &Args, w: &Workload, setup_s: f64) -> ExitCode {
    let mut gauge = Gauge::new(w.config.threads.unwrap_or(1));
    let budget = Duration::from_secs_f64(args.seconds);
    let m = measure(w, args.seed, budget, Shape::Timed, None, &mut gauge);
    let Some(peak) = peak_rss_mb() else {
        eprintln!("perfbench: the kernel does not report the peak resident set");
        return ExitCode::FAILURE;
    };
    let j = judge(w, &m.first, args.oracle_seed);
    let correct = report_judgement(w, &m, &j);

    let normalized = |s: &Sample| s.wall_ms() * gauge.speed(s.start, s.end);
    let times = Times::of(&m.samples, w.items.len(), normalized);
    let raw = Times::of(&m.samples, w.items.len(), Sample::wall_ms);
    println!(
        "  {:<32} {:>12} {:>12}  verdict",
        "program", "median ms", "(wall ms)"
    );
    let rows = w
        .items
        .iter()
        .zip(&m.first)
        .zip(times.medians.iter().zip(&raw.medians));
    for ((item, summary), (median, wall)) in rows {
        let verdict = &summary.as_ref().expect("ran").verdict;
        println!(
            "  {:<32} {median:>12.3} {wall:>12.3}  {verdict:?}",
            item.name
        );
    }
    let p90 = times.p90;
    println!(
        "verdict_ms: {} analyses; percentiles over {} program medians, {} beyond p90 ({} the ≥{} rule)",
        m.samples.len(),
        p90.samples,
        p90.beyond,
        if p90.meets_tail_rule() {
            "meets"
        } else {
            "misses"
        },
        stats::MIN_BEYOND
    );
    println!(
        "gauge: median slice {:.1} µs (nominal {:.1} µs); in wall time, geomean {:.6} ms, p50 {:.6} ms, p90 {:.6} ms, {:.6} programs/s",
        gauge.median_slice_s().expect("readings") * 1e6,
        speed::NOMINAL_SLICE_S * 1e6,
        raw.geomean,
        raw.p50.value,
        raw.p90.value,
        raw.per_s
    );
    let tail = stats::geomean(&j.tail_bounds).unwrap_or(1.0);
    println!("tail_bound: geomean over {} programs", j.tail_bounds.len());
    let t = &j.tally;
    let values = [
        times.geomean,
        times.p50.value,
        times.p90.value,
        times.per_s,
        t.ok_share(),
        t.bounded_share(),
        t.termination_share(),
        tail,
        peak,
        setup_s,
    ];
    let metrics: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect();
    for (name, value, unit) in &metrics {
        println!("{name:<20} {value:>14.6} {unit}");
    }
    print_result(correct, t.attempted, t.failed(), &metrics);
    ExitCode::SUCCESS
}

fn run_traced(args: &Args, w: &Workload) -> ExitCode {
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let mut gauge = Gauge::new(w.config.threads.unwrap_or(1));
    let plain = measure(w, args.seed, half, Shape::Traced, None, &mut gauge);
    let tracer = Tracer::new(SimplexBackend);
    let traced = measure(w, args.seed, half, Shape::Traced, Some(&tracer), &mut gauge);
    let j = judge(w, &traced.first, args.oracle_seed);
    let mut correct = report_judgement(w, &traced, &j);

    for ((item, a), b) in w.items.iter().zip(&plain.first).zip(&traced.first) {
        let (a, b) = (a.as_ref().expect("ran"), b.as_ref().expect("ran"));
        if !a.same_answer(b) {
            println!("MISMATCH {}: traced and untraced answers differ", item.name);
            correct = false;
        }
    }
    let layers = &traced.layers;
    let passes = traced.passes as f64;
    let plain_ms: f64 =
        plain.samples.iter().map(Sample::wall_ms).sum::<f64>() / plain.passes as f64;
    let traced_ms = layers.get("trace.wall_ms") / passes;
    let coverage = layers.coverage_pct();
    if !(95.0..=105.0).contains(&coverage) {
        println!("COVERAGE {coverage:.2}%: layer self times do not add up to the wall time");
        correct = false;
    }
    let metrics: Vec<(&str, f64, &str)> = layers::METRICS
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "trace.coverage_pct" => coverage,
                "trace.overhead_pct" => 100.0 * (traced_ms / plain_ms - 1.0),
                "trace.passes" => passes,
                _ => layers.get(name) / passes,
            };
            (name, value, unit)
        })
        .collect();
    for (name, value, unit) in &metrics {
        println!("{name:<30} {value:>16.4} {unit}");
    }
    print_result(correct, j.tally.attempted, j.tally.failed(), &metrics);
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let build = || workload::build(&args.workload, args.corpus_seed).expect("validated name");
    if args.setup_probe {
        workload::warm_up(&build());
        return ExitCode::SUCCESS;
    }
    let setup_s = if args.trace {
        0.0
    } else {
        match setup_seconds(&args) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let w = build();
    workload::warm_up(&w);
    if args.trace {
        run_traced(&args, &w)
    } else {
        run_untraced(&args, &w, setup_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_orders_are_seeded_permutations() {
        let a = pass_order(33, 7, 0);
        assert_eq!(a, pass_order(33, 7, 0));
        assert_ne!(a, pass_order(33, 8, 0));
        assert_ne!(a, pass_order(33, 7, 1));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..33).collect::<Vec<_>>());
    }

    #[test]
    fn suite_workload_has_33_programs_without_the_exclusions() {
        let w = workload::build("suite", 0).unwrap();
        assert_eq!(w.items.len(), 33);
        for excluded in workload::SUITE_EXCLUDED {
            assert!(w.items.iter().all(|i| i.name != excluded));
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let reported: Vec<(&str, &str)> = END_TO_END
            .iter()
            .chain(layers::METRICS.iter())
            .copied()
            .collect();
        for (name, unit) in &reported {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{name} ({unit}) missing");
        }
        let declared = json.matches("\"unit\": ").count();
        assert_eq!(declared, reported.len());
    }

    #[test]
    fn corpus_is_a_function_of_its_seed() {
        let a = workload::build("corpus", 0).unwrap();
        let b = workload::build("corpus", 1).unwrap();
        assert_eq!(a.items.len(), workload::CORPUS_COUNT);
        assert_eq!(a.items[1].name, b.items[0].name);
    }
}
