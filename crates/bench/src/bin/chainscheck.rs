//! Solver-path guard for the chain-scaling artifact (run by the CI
//! `bench-smoke` job after it regenerates `BENCH_chains.json`).
//!
//! Compares a regenerated `BENCH_chains.json` with the committed one, row by
//! row: the rows must agree in number and identity (family, size, mode,
//! escalation), in every path counter of the `SolveStats` table (read from
//! `SolveStats::COUNTERS`, so a new counter is covered without editing this
//! file), in the LP size (`lp_variables`, `lp_constraints`, `lp_solves`) and
//! in `mean_upper`.  Timings and the other volatile counters may differ.  A
//! kernel change that moves a single pivot shows up here as a diff.
//!
//! ```text
//! cargo run -p cma-bench --release --bin chainscheck -- COMMITTED REGENERATED
//! ```
//!
//! Exits 1 listing every differing field, 2 on a usage or read error.

use central_moment_analysis::lp::CounterKind;
use central_moment_analysis::SolveStats;

/// The fields that name a row.
const IDENTITY: [&str; 4] = ["family", "n", "mode", "escalated"];

/// The fields besides the path counters that must not move.
const PINNED: [&str; 4] = ["lp_variables", "lp_constraints", "lp_solves", "mean_upper"];

/// One row of the artifact: its `(key, encoded value)` fields.
type Row = Vec<(String, String)>;

/// The rows of a `BENCH_chains.json` document.  The rows are flat objects
/// of numbers, booleans and comma-free strings (the `chains` binary's
/// output), so splitting on `,` and the first `:` suffices.
fn rows(doc: &str) -> Result<Vec<Row>, String> {
    const KEY: &str = "\"rows\":[";
    let start = doc.find(KEY).ok_or("no \"rows\" array")? + KEY.len();
    let mut rest = &doc[start..];
    let mut rows = Vec::new();
    while let Some(body) = rest.strip_prefix('{') {
        let end = body.find('}').ok_or("unterminated row")?;
        let row = body[..end]
            .split(',')
            .map(|field| {
                let (key, value) = field
                    .split_once(':')
                    .ok_or_else(|| format!("malformed field `{field}`"))?;
                Ok((key.trim_matches('"').to_string(), value.to_string()))
            })
            .collect::<Result<Row, String>>()?;
        rows.push(row);
        rest = body[end + 1..].trim_start_matches(',');
    }
    if !rest.starts_with(']') {
        return Err("malformed \"rows\" array".to_string());
    }
    Ok(rows)
}

fn field<'a>(row: &'a Row, key: &str) -> Option<&'a str> {
    row.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

fn read_rows(path: &str) -> Vec<Row> {
    let parsed = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|doc| rows(&doc));
    parsed.unwrap_or_else(|e| {
        eprintln!("chainscheck: {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [committed, regenerated] = args.as_slice() else {
        eprintln!("usage: chainscheck COMMITTED REGENERATED");
        std::process::exit(2);
    };
    let (old, new) = (read_rows(committed), read_rows(regenerated));
    let pinned: Vec<&str> = SolveStats::COUNTERS
        .iter()
        .filter(|c| c.kind == CounterKind::Path)
        .map(|c| c.name)
        .chain(PINNED)
        .collect();

    let mut diffs = Vec::new();
    if old.len() != new.len() {
        diffs.push(format!(
            "{} rows committed, {} regenerated",
            old.len(),
            new.len()
        ));
    }
    for (i, (a, b)) in old.iter().zip(&new).enumerate() {
        let name = |row: &Row| -> String {
            IDENTITY
                .iter()
                .map(|&k| field(row, k).unwrap_or("?"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        for key in IDENTITY.iter().chain(&pinned) {
            let (va, vb) = (field(a, key), field(b, key));
            if va != vb {
                diffs.push(format!(
                    "row {i} ({}): {key} {} -> {}",
                    name(a),
                    va.unwrap_or("missing"),
                    vb.unwrap_or("missing")
                ));
            }
        }
    }
    if diffs.is_empty() {
        eprintln!(
            "chainscheck: {} rows agree on {} path counters, LP sizes and mean_upper",
            new.len(),
            pinned.len() - PINNED.len()
        );
    } else {
        for d in &diffs {
            eprintln!("chainscheck: {d}");
        }
        eprintln!(
            "chainscheck: {} difference(s) from {committed}",
            diffs.len()
        );
        std::process::exit(1);
    }
}
