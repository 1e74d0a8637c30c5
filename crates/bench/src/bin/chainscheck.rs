//! Solver-path guard for the chain-scaling artifact (run by the CI
//! `bench-smoke` job after it regenerates `BENCH_chains.json`).
//!
//! Compares a regenerated `BENCH_chains.json` with the committed one.  Rows
//! are paired by identity (family, size, mode, escalation), and every row
//! must have a partner.  Paired rows must agree in every path counter of
//! the `SolveStats` table (read from `SolveStats::COUNTERS`, so a new
//! counter is covered without editing this file), in the LP size
//! (`lp_variables`, `lp_constraints`, `lp_solves`) and in `mean_upper`.
//! Timings and the other volatile counters may differ.  A kernel change
//! that moves a single pivot shows up here as a diff.
//!
//! ```text
//! cargo run -p cma-bench --release --bin chainscheck -- COMMITTED REGENERATED
//! ```
//!
//! Exits 1 naming every row found in one file only and every differing
//! field, 2 on a usage or read error.

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

/// The row's identity, `family n mode escalated`.
fn identity(row: &Row) -> String {
    IDENTITY
        .iter()
        .map(|&k| field(row, k).map_or("?", |v| v.trim_matches('"')))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Every difference between the `old` and `new` rows: each row without a
/// partner of the same identity on the other side, and each `pinned` field
/// that differs between partners.  `old_name` and `new_name` label the two
/// sides.
fn differences(
    old: &[Row],
    new: &[Row],
    pinned: &[&str],
    old_name: &str,
    new_name: &str,
) -> Vec<String> {
    let mut diffs = Vec::new();
    let mut paired = vec![false; new.len()];
    for a in old {
        let id = identity(a);
        let partner = (0..new.len()).find(|&j| !paired[j] && identity(&new[j]) == id);
        let Some(j) = partner else {
            diffs.push(format!("row {id}: only in {old_name}"));
            continue;
        };
        paired[j] = true;
        for key in pinned {
            let (va, vb) = (field(a, key), field(&new[j], key));
            if va != vb {
                diffs.push(format!(
                    "row {id}: {key} {} -> {}",
                    va.unwrap_or("missing"),
                    vb.unwrap_or("missing")
                ));
            }
        }
    }
    for (b, _) in new.iter().zip(&paired).filter(|(_, &p)| !p) {
        diffs.push(format!("row {}: only in {new_name}", identity(b)));
    }
    diffs
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

    let diffs = differences(&old, &new, &pinned, committed, regenerated);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(rows: &[&str]) -> Vec<Row> {
        let rows: Vec<String> = rows.iter().map(|r| format!("{{{r}}}")).collect();
        super::rows(&format!("{{\"rows\":[{}]}}", rows.join(","))).expect("well-formed")
    }

    #[test]
    fn rows_pair_by_identity_and_unpaired_rows_are_named() {
        let id = |family: &str, n: u32| {
            format!("\"family\":\"{family}\",\"n\":{n},\"mode\":\"global\",\"escalated\":false")
        };
        let old = doc(&[
            &format!("{},\"iterations\":7", id("walk-chain", 1)),
            &format!("{},\"iterations\":3", id("gone", 2)),
            &format!("{},\"iterations\":9", id("coupon-chain", 1)),
        ]);
        // Reordered, one row dropped, one added, one counter moved.
        let new = doc(&[
            &format!("{},\"iterations\":9", id("coupon-chain", 1)),
            &format!("{},\"iterations\":8", id("walk-chain", 1)),
            &format!("{},\"iterations\":5", id("added", 4)),
        ]);
        let diffs = differences(&old, &new, &["iterations"], "OLD", "NEW");
        assert_eq!(
            diffs,
            [
                "row walk-chain 1 global false: iterations 7 -> 8",
                "row gone 2 global false: only in OLD",
                "row added 4 global false: only in NEW",
            ]
        );
        assert!(differences(&old, &old, &["iterations"], "OLD", "NEW").is_empty());
    }
}
