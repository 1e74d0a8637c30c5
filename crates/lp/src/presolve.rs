//! LP presolve: problem reductions applied at session open.
//!
//! The constraint systems the template-based analysis emits carry removable
//! structure: singleton equality rows that pin a template coefficient,
//! duplicate rows emitted by overlapping derivation obligations, and columns
//! no constraint mentions.  Shrinking the system *before* the simplex runs
//! shrinks the basis (and with it every `O(m²)` iteration and `O(m³)`
//! refactorization), so [`presolve`] runs whenever the backend opens a
//! session; only the one-shot [`LpProblem::solve`] skips it.
//!
//! Reductions, iterated to a fixpoint:
//!
//! * **fixed columns** — a singleton `a·x = b` row fixes `x = b/a` (and a
//!   singleton `a·x ≤ 0`-shaped row over a non-negative `x` fixes `x = 0`);
//!   the value is substituted into every other row and the column dropped;
//! * **redundant / violated rows** — rows emptied by substitution are
//!   checked and dropped (or flag the whole system infeasible), and
//!   singleton inequality rows implied by a variable's non-negativity are
//!   dropped;
//! * **duplicate rows** — rows identical after sign/scale canonicalization
//!   collapse to the tightest right-hand side (equal-pattern `=` rows with
//!   incompatible right-hand sides prove infeasibility);
//! * **empty columns** — columns left unreferenced by every surviving row
//!   are dropped from the matrix; their optimal value is decided per
//!   objective at `minimize` time (0, or the whole problem is unbounded).
//!
//! [`PresolvedSession`] wraps the backend's real session over the reduced
//! problem behind the *original* id space, so presolve composes with the
//! session contract: incrementally added rows substitute fixed columns,
//! re-materialize dropped columns they mention, and keep
//! `num_vars`/`num_constraints` counting caller-visible entities.  Each
//! solution is *postsolved* — the full primal point is reconstructed and the
//! objective re-evaluated over it — before it reaches the caller.  Each
//! reduction is reported once, in the [`SolveStats`] of the `minimize` that
//! follows it: the open's on the first, and after that the rows a later
//! increment's substitution emptied.

use crate::backend::LpSession;
use crate::simplex::{Cmp, LpProblem, LpSolution, LpStatus, LpVarId, SolveStats};

const EPS: f64 = 1e-9;
/// Feasibility tolerance for constant rows produced by substitution.
const FEAS_EPS: f64 = 1e-7;

/// What became of an original (or session-added) column.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ColFate {
    /// Survives as column `r` of the reduced problem.
    Kept(usize),
    /// Fixed to a constant by a singleton row; substituted out.
    Fixed(f64),
    /// Referenced by no surviving row; dropped from the matrix (value decided
    /// against the objective at `minimize`, re-materialized if a later
    /// incremental row mentions it).
    Dropped,
}

/// The outcome of [`presolve`]: the reduced problem plus everything needed
/// to map sessions and solutions back to the original id space.
pub(crate) struct Presolved {
    reduced: LpProblem,
    col_fate: Vec<ColFate>,
    /// Original free flags (needed to judge dropped columns at minimize).
    free: Vec<bool>,
    /// Original row count (sessions keep counting caller-visible rows).
    num_rows: usize,
    /// The presolve proved the row system infeasible outright.
    infeasible: bool,
    rows_dropped: usize,
    cols_dropped: usize,
}

/// One mutable row during presolve.
#[derive(Debug, Clone)]
struct WorkRow {
    terms: Vec<(usize, f64)>,
    cmp: Cmp,
    rhs: f64,
    alive: bool,
}

/// Runs the reduction passes over `problem` (objective ignored — sessions
/// receive objectives per `minimize`).
pub(crate) fn presolve(problem: &LpProblem) -> Presolved {
    let n = problem.num_vars();
    let m = problem.num_constraints();
    let mut rows: Vec<WorkRow> = (0..m)
        .map(|i| WorkRow {
            terms: problem.matrix().row(i).collect(),
            cmp: problem.cmp(i),
            rhs: problem.rhs(i),
            alive: true,
        })
        .collect();
    let mut fixed: Vec<Option<f64>> = vec![None; n];
    let mut infeasible = false;

    // Iterate substitution + singleton detection + duplicate removal until
    // nothing changes (each pass strictly removes rows or fixes columns, so
    // the loop terminates; the cap is belt and braces).
    for _pass in 0..usize::max(4, n) {
        let mut changed = false;
        for row in rows.iter_mut() {
            if !row.alive {
                continue;
            }
            // Substitute the columns fixed so far.
            row.terms.retain(|&(c, a)| {
                if let Some(v) = fixed[c] {
                    row.rhs -= a * v;
                    changed = true;
                    false
                } else {
                    true
                }
            });
            if row.terms.is_empty() {
                // A constant row: satisfied (drop) or a contradiction.
                let ok = match row.cmp {
                    Cmp::Le => row.rhs >= -FEAS_EPS,
                    Cmp::Ge => row.rhs <= FEAS_EPS,
                    Cmp::Eq => row.rhs.abs() <= FEAS_EPS,
                };
                if !ok {
                    infeasible = true;
                }
                row.alive = false;
                changed = true;
                continue;
            }
            if row.terms.len() == 1 {
                let (c, a) = row.terms[0];
                if a.abs() <= EPS {
                    continue;
                }
                let bound = row.rhs / a;
                let is_free = problem.is_free(LpVarId::from_index(c));
                match row.cmp {
                    Cmp::Eq => {
                        if !is_free && bound < -FEAS_EPS {
                            infeasible = true;
                        } else {
                            fixed[c] = Some(if is_free { bound } else { bound.max(0.0) });
                        }
                        row.alive = false;
                        changed = true;
                    }
                    Cmp::Le | Cmp::Ge if !is_free => {
                        // Normalized direction of the singleton bound.
                        let lower = (row.cmp == Cmp::Ge) == (a > 0.0);
                        if lower && bound <= FEAS_EPS {
                            // x ≥ bound ≤ 0: implied by non-negativity.
                            row.alive = false;
                            changed = true;
                        } else if !lower && bound < -FEAS_EPS {
                            // x ≤ bound < 0: contradicts non-negativity.
                            infeasible = true;
                            row.alive = false;
                            changed = true;
                        } else if !lower && bound <= FEAS_EPS {
                            // x ≤ 0 and x ≥ 0: fixed at zero.
                            fixed[c] = Some(0.0);
                            row.alive = false;
                            changed = true;
                        }
                        // A genuine upper/lower bound stays a row: the
                        // standard form has no bound constraints.
                    }
                    _ => {}
                }
            }
        }
        if infeasible {
            break;
        }
        changed |= drop_duplicate_rows(&mut rows, &mut infeasible);
        if !changed || infeasible {
            break;
        }
    }

    // Column occupancy over the surviving rows.
    let mut occupied = vec![false; n];
    if !infeasible {
        for row in rows.iter().filter(|r| r.alive) {
            for &(c, _) in &row.terms {
                occupied[c] = true;
            }
        }
    }
    let mut col_fate = Vec::with_capacity(n);
    let mut reduced = LpProblem::new();
    let mut cols_dropped = 0usize;
    for c in 0..n {
        let var = LpVarId::from_index(c);
        if let Some(v) = fixed[c] {
            col_fate.push(ColFate::Fixed(v));
            cols_dropped += 1;
        } else if occupied[c] {
            let id = reduced.add_var("", problem.is_free(var));
            col_fate.push(ColFate::Kept(id.index()));
        } else {
            col_fate.push(ColFate::Dropped);
            cols_dropped += 1;
        }
    }
    let mut rows_kept = 0usize;
    if !infeasible {
        for row in rows.iter().filter(|r| r.alive) {
            let terms: Vec<(LpVarId, f64)> = row
                .terms
                .iter()
                .map(|&(c, a)| match col_fate[c] {
                    ColFate::Kept(r) => (LpVarId::from_index(r), a),
                    _ => unreachable!("surviving rows only reference kept columns"),
                })
                .collect();
            reduced.add_constraint(terms, row.cmp, row.rhs);
            rows_kept += 1;
        }
    }

    Presolved {
        reduced,
        col_fate,
        free: (0..n)
            .map(|c| problem.is_free(LpVarId::from_index(c)))
            .collect(),
        num_rows: m,
        infeasible,
        rows_dropped: m - rows_kept,
        cols_dropped,
    }
}

/// Collapses rows that are identical after canonicalization (scale so the
/// leading coefficient is `+1`, flipping `≤`/`≥` under a negative scale) to
/// the tightest right-hand side.  Returns whether anything changed.
///
/// Two rows are duplicates when their canonical comparisons agree and so do
/// their scaled terms, column by column and bit for bit.  Each live row is
/// fingerprinted in place (see [`row_fingerprint`]); a table maps each
/// fingerprint to the first row that has it, and later rows with the same
/// fingerprint but different terms are chained behind it in row order.  A
/// row is a duplicate only when a chain member matches it exactly, so the
/// representative is the first live row of its class, and right-hand sides
/// tighten in row order.
fn drop_duplicate_rows(rows: &mut [WorkRow], infeasible: &mut bool) -> bool {
    drop_duplicate_rows_by(rows, infeasible, row_fingerprint)
}

/// [`drop_duplicate_rows`] with the fingerprint as a parameter, so a test
/// can put every row in one bucket.
fn drop_duplicate_rows_by(
    rows: &mut [WorkRow],
    infeasible: &mut bool,
    fingerprint: impl Fn(Cmp, &[(usize, f64)], f64) -> u64,
) -> bool {
    use std::collections::HashMap;

    const END: usize = usize::MAX;
    // The first row of each fingerprint, and each row's successor in its
    // fingerprint's chain.
    let mut heads: HashMap<u64, usize> = HashMap::with_capacity(rows.len());
    let mut next = vec![END; rows.len()];
    let mut changed = false;
    for i in 0..rows.len() {
        if !rows[i].alive {
            continue;
        }
        let lead = rows[i].terms[0].1;
        if lead.abs() <= EPS {
            continue;
        }
        let cmp = canonical_cmp(rows[i].cmp, lead);
        let rhs = rows[i].rhs / lead;
        let head = *heads
            .entry(fingerprint(cmp, &rows[i].terms, lead))
            .or_insert(i);
        if head == i {
            // The first row with this fingerprint.
            continue;
        }
        // Walk the chain for an exact match; append the row if none matches.
        let mut j = head;
        let rep = loop {
            let j_lead = rows[j].terms[0].1;
            if canonical_cmp(rows[j].cmp, j_lead) == cmp
                && same_scaled_terms(&rows[j].terms, j_lead, &rows[i].terms, lead)
            {
                break Some(j);
            }
            if next[j] == END {
                next[j] = i;
                break None;
            }
            j = next[j];
        };
        let Some(rep) = rep else { continue };
        let rep_lead = rows[rep].terms[0].1;
        let rep_rhs = rows[rep].rhs / rep_lead;
        match cmp {
            Cmp::Eq => {
                if (rhs - rep_rhs).abs() > FEAS_EPS * (1.0 + rep_rhs.abs()) {
                    *infeasible = true;
                    return true;
                }
            }
            // Keep the tighter bound on the representative.
            Cmp::Le => {
                if rhs < rep_rhs {
                    rows[rep].rhs = rhs * rep_lead;
                }
            }
            Cmp::Ge => {
                if rhs > rep_rhs {
                    rows[rep].rhs = rhs * rep_lead;
                }
            }
        }
        rows[i].alive = false;
        changed = true;
    }
    changed
}

/// A row's comparison after scaling by its leading coefficient `lead`.
fn canonical_cmp(cmp: Cmp, lead: f64) -> Cmp {
    match (cmp, lead > 0.0) {
        (Cmp::Eq, _) => Cmp::Eq,
        (c, true) => c,
        (Cmp::Le, false) => Cmp::Ge,
        (Cmp::Ge, false) => Cmp::Le,
    }
}

/// Whether two rows' terms, each scaled by its own leading coefficient,
/// agree column by column and bit for bit.
fn same_scaled_terms(a: &[(usize, f64)], a_lead: f64, b: &[(usize, f64)], b_lead: f64) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(&(ca, x), &(cb, y))| {
            ca == cb && (x / a_lead).to_bits() == (y / b_lead).to_bits()
        })
}

/// A row's fingerprint: its canonical comparison and every (column,
/// scaled-value bits) pair, mixed by a multiplicative hash.  Rows that
/// [`same_scaled_terms`] calls equal get equal fingerprints.
fn row_fingerprint(cmp: Cmp, terms: &[(usize, f64)], lead: f64) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
    terms.iter().fold(cmp as u64, |h, &(c, a)| {
        mix(mix(h, c as u64), (a / lead).to_bits())
    })
}

impl Presolved {
    /// The reduced problem the backend's real session should open on.
    pub(crate) fn reduced(&self) -> &LpProblem {
        &self.reduced
    }

    /// Wraps the inner session (opened on [`reduced`](Self::reduced)) behind
    /// the original id space.
    pub(crate) fn into_session<'a>(self, inner: Box<dyn LpSession + 'a>) -> PresolvedSession<'a> {
        PresolvedSession {
            inner,
            col_fate: self.col_fate,
            free: self.free,
            num_rows: self.num_rows,
            infeasible: self.infeasible,
            unreported: SolveStats {
                presolve_rows: self.rows_dropped,
                presolve_cols: self.cols_dropped,
                ..SolveStats::default()
            },
        }
    }
}

/// A backend session over the presolve-reduced problem, exposed through the
/// original problem's id space (see the [module docs](self)).
pub(crate) struct PresolvedSession<'a> {
    inner: Box<dyn LpSession + 'a>,
    col_fate: Vec<ColFate>,
    free: Vec<bool>,
    num_rows: usize,
    /// Sticky: rows only ever get added, so a system once proved infeasible
    /// stays infeasible.
    infeasible: bool,
    /// The reductions the next `minimize` reports (see the
    /// [module docs](self)).
    unreported: SolveStats,
}

impl PresolvedSession<'_> {
    /// Ensures an originally dropped column exists in the inner session
    /// (an incremental row or a test of its objective needs it live).
    fn materialize(&mut self, index: usize) -> usize {
        match self.col_fate[index] {
            ColFate::Kept(r) => r,
            ColFate::Dropped => {
                let id = self.inner.add_var("", self.free[index]);
                self.col_fate[index] = ColFate::Kept(id.index());
                id.index()
            }
            ColFate::Fixed(_) => unreachable!("fixed columns are substituted, not materialized"),
        }
    }
}

impl LpSession for PresolvedSession<'_> {
    fn add_var(&mut self, _name: &str, free: bool) -> LpVarId {
        let inner_id = self.inner.add_var("", free);
        self.col_fate.push(ColFate::Kept(inner_id.index()));
        self.free.push(free);
        LpVarId::from_index(self.col_fate.len() - 1)
    }

    fn add_constraint(&mut self, terms: &[(LpVarId, f64)], cmp: Cmp, rhs: f64) {
        self.num_rows += 1;
        let mut rhs = rhs;
        let mut mapped: Vec<(LpVarId, f64)> = Vec::with_capacity(terms.len());
        for &(v, a) in terms {
            match self.col_fate[v.index()] {
                ColFate::Fixed(value) => rhs -= a * value,
                ColFate::Kept(_) | ColFate::Dropped => {
                    let r = self.materialize(v.index());
                    mapped.push((LpVarId::from_index(r), a));
                }
            }
        }
        if mapped.is_empty() {
            // Substitution emptied the row: it is a constant check.
            let ok = match cmp {
                Cmp::Le => rhs >= -FEAS_EPS,
                Cmp::Ge => rhs <= FEAS_EPS,
                Cmp::Eq => rhs.abs() <= FEAS_EPS,
            };
            if !ok {
                self.infeasible = true;
            }
            self.unreported.presolve_rows += 1;
            return;
        }
        self.inner.add_constraint(&mapped, cmp, rhs);
    }

    fn minimize(&mut self, objective: &[(LpVarId, f64)]) -> LpSolution {
        let n = self.col_fate.len();
        let reduction = std::mem::take(&mut self.unreported);
        if self.infeasible {
            return LpSolution::new(LpStatus::Infeasible, 0.0, vec![0.0; n]).with_stats(reduction);
        }
        // Aggregate the objective per variable, then split it across the
        // column fates: kept terms go to the inner solve, fixed terms are
        // constants, and a negative-improving term on a dropped column makes
        // the whole problem unbounded (the column is unconstrained).
        let mut aggregated: std::collections::BTreeMap<usize, f64> = Default::default();
        for &(v, c) in objective {
            *aggregated.entry(v.index()).or_insert(0.0) += c;
        }
        let mut reduced_objective: Vec<(LpVarId, f64)> = Vec::new();
        let mut dropped_unbounded = false;
        for (&v, &c) in &aggregated {
            match self.col_fate[v] {
                ColFate::Kept(r) => reduced_objective.push((LpVarId::from_index(r), c)),
                ColFate::Fixed(_) => {}
                ColFate::Dropped => {
                    if (self.free[v] && c.abs() > EPS) || c < -EPS {
                        dropped_unbounded = true;
                    }
                }
            }
        }
        let inner_solution = self.inner.minimize(&reduced_objective);
        let stats = inner_solution.stats.merge(&reduction);
        if inner_solution.status == LpStatus::Infeasible {
            return LpSolution::new(LpStatus::Infeasible, 0.0, vec![0.0; n]).with_stats(stats);
        }
        if dropped_unbounded
            && matches!(
                inner_solution.status,
                LpStatus::Optimal | LpStatus::Unbounded
            )
        {
            // The kept part is feasible and a dropped column improves the
            // objective without bound.
            return LpSolution::new(LpStatus::Unbounded, 0.0, vec![0.0; n]).with_stats(stats);
        }
        // Postsolve: reconstruct the full primal point and re-evaluate the
        // objective over it (fixed columns contribute their constants).
        let values: Vec<f64> = (0..n)
            .map(|v| match self.col_fate[v] {
                ColFate::Kept(r) => inner_solution.value(LpVarId::from_index(r)),
                ColFate::Fixed(value) => value,
                ColFate::Dropped => 0.0,
            })
            .collect();
        let objective_value = objective.iter().map(|&(v, c)| c * values[v.index()]).sum();
        LpSolution::new(inner_solution.status, objective_value, values).with_stats(stats)
    }

    fn num_vars(&self) -> usize {
        self.col_fate.len()
    }

    fn num_constraints(&self) -> usize {
        self.num_rows
    }

    fn warm_resolves_in_place(&self) -> bool {
        self.inner.warm_resolves_in_place()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{LpBackend, SimplexBackend};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn singleton_equalities_fix_and_substitute() {
        // x = 2 (singleton), x + y <= 5, minimize -y → y = 3.
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        let y = lp.add_var("y", false);
        lp.add_constraint(vec![(x, 2.0)], Cmp::Eq, 4.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 5.0);
        let pre = presolve(&lp);
        assert!(!pre.infeasible);
        assert_eq!(pre.reduced.num_vars(), 1); // only y survives
        assert_eq!(pre.reduced.num_constraints(), 1); // y <= 3
        assert_eq!(pre.cols_dropped, 1);
        assert_eq!(pre.rows_dropped, 1);

        let mut session = SimplexBackend.open(&lp);
        let sol = session.minimize(&[(y, -1.0)]);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 3.0);
        assert_close(sol.objective, -3.0);
        assert!(sol.stats.presolve_rows >= 1);
        assert!(sol.stats.presolve_cols >= 1);
    }

    #[test]
    fn chained_substitution_reaches_a_fixpoint() {
        // x = 1; x + y = 3 becomes a singleton fixing y = 2; y + z <= 4
        // becomes z <= 2.
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        let y = lp.add_var("y", false);
        let z = lp.add_var("z", false);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Eq, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 3.0);
        lp.add_constraint(vec![(y, 1.0), (z, 1.0)], Cmp::Le, 4.0);
        let pre = presolve(&lp);
        assert_eq!(pre.reduced.num_vars(), 1);
        assert_eq!(pre.reduced.num_constraints(), 1);
        let sol = SimplexBackend.open(&lp).minimize(&[(z, -1.0)]);
        assert_close(sol.value(x), 1.0);
        assert_close(sol.value(y), 2.0);
        assert_close(sol.value(z), 2.0);
    }

    #[test]
    fn contradictory_singletons_prove_infeasibility() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Eq, -2.0); // x = -2, x >= 0
        lp.add_constraint(vec![(x, 1.0)], Cmp::Le, 5.0);
        assert!(presolve(&lp).infeasible);
        let sol = SimplexBackend.open(&lp).minimize(&[(x, 1.0)]);
        assert_eq!(sol.status, LpStatus::Infeasible);
    }

    #[test]
    fn duplicate_rows_collapse_to_the_tightest_rhs() {
        // The same row three times (one scaled/flipped); tightest wins.
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        let y = lp.add_var("y", false);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 9.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        lp.add_constraint(vec![(x, -2.0), (y, -2.0)], Cmp::Ge, -16.0); // x + y <= 8
        let pre = presolve(&lp);
        assert_eq!(pre.reduced.num_constraints(), 1);
        assert_eq!(pre.rows_dropped, 2);
        let sol = SimplexBackend.open(&lp).minimize(&[(x, -1.0)]);
        assert_close(sol.objective, -4.0);
    }

    /// The duplicate-row pass as it was before the chained table: one
    /// SipHashed `Vec` key per live row.  The reference the table must
    /// reproduce exactly.
    fn drop_duplicate_rows_by_key(rows: &mut [WorkRow], infeasible: &mut bool) -> bool {
        use std::collections::HashMap;

        type Key = (u8, Vec<(usize, u64)>);
        let mut seen: HashMap<Key, (usize, f64)> = HashMap::new();
        let mut changed = false;
        for i in 0..rows.len() {
            if !rows[i].alive {
                continue;
            }
            let lead = rows[i].terms[0].1;
            if lead.abs() <= EPS {
                continue;
            }
            let cmp = canonical_cmp(rows[i].cmp, lead);
            let key: Key = (
                cmp as u8,
                rows[i]
                    .terms
                    .iter()
                    .map(|&(c, a)| (c, (a / lead).to_bits()))
                    .collect(),
            );
            let rhs = rows[i].rhs / lead;
            match seen.get(&key) {
                None => {
                    seen.insert(key, (i, lead));
                }
                Some(&(rep, rep_lead)) => {
                    let rep_rhs = rows[rep].rhs / rep_lead;
                    match cmp {
                        Cmp::Eq => {
                            if (rhs - rep_rhs).abs() > FEAS_EPS * (1.0 + rep_rhs.abs()) {
                                *infeasible = true;
                                return true;
                            }
                        }
                        Cmp::Le => {
                            if rhs < rep_rhs {
                                rows[rep].rhs = rhs * rep_lead;
                            }
                        }
                        Cmp::Ge => {
                            if rhs > rep_rhs {
                                rows[rep].rhs = rhs * rep_lead;
                            }
                        }
                    }
                    rows[i].alive = false;
                    changed = true;
                }
            }
        }
        changed
    }

    /// A random row set with planted duplicates: copies of earlier rows
    /// scaled by ±2, ±0.5 or −3 (`≤`/`≥` flipped under a negative scale),
    /// with a new right-hand side, and now and then an `=` row repeated with
    /// an incompatible one.  Some rows are dead, some lead with a
    /// coefficient below `EPS`.
    fn random_rows(rng: &mut proptest::test_runner::TestRng) -> Vec<WorkRow> {
        let cmps = [Cmp::Le, Cmp::Ge, Cmp::Eq];
        let mut rows: Vec<WorkRow> = Vec::new();
        for _ in 0..4 + rng.below(40) {
            let planted = !rows.is_empty() && rng.below(2) == 0;
            let row = if planted {
                let mut row = rows[rng.below(rows.len() as u64) as usize].clone();
                let scale = [2.0, -2.0, 0.5, -0.5, -3.0][rng.below(5) as usize];
                for t in &mut row.terms {
                    t.1 *= scale;
                }
                if scale < 0.0 {
                    row.cmp = match row.cmp {
                        Cmp::Le => Cmp::Ge,
                        Cmp::Ge => Cmp::Le,
                        Cmp::Eq => Cmp::Eq,
                    };
                }
                let incompatible = row.cmp == Cmp::Eq && rng.below(8) == 0;
                row.rhs = if incompatible {
                    row.rhs * scale + 1.0
                } else {
                    (rng.below(9) as f64 - 4.0) * scale
                };
                row.alive = rng.below(10) != 0;
                row
            } else {
                let mut terms: Vec<(usize, f64)> = Vec::new();
                for c in 0..6 {
                    if rng.below(2) == 0 {
                        terms.push((c, rng.below(7) as f64 - 3.0 + 0.25 * rng.below(4) as f64));
                    }
                }
                if terms.is_empty() {
                    terms.push((rng.below(6) as usize, 1.0));
                }
                if rng.below(20) == 0 {
                    terms[0].1 = 1e-12;
                }
                WorkRow {
                    terms,
                    cmp: cmps[rng.below(3) as usize],
                    rhs: rng.below(9) as f64 - 4.0,
                    alive: rng.below(10) != 0,
                }
            };
            rows.push(row);
        }
        rows
    }

    #[test]
    fn chained_duplicate_table_matches_the_key_reference() {
        let mut rng = proptest::test_runner::TestRng::deterministic("chained_duplicate_table");
        let (mut dropped, mut infeasible_sets) = (0, 0);
        for _ in 0..300 {
            let rows = random_rows(&mut rng);
            let mut want = rows.clone();
            let mut want_infeasible = false;
            let want_changed = drop_duplicate_rows_by_key(&mut want, &mut want_infeasible);
            dropped += want
                .iter()
                .zip(&rows)
                .filter(|(w, r)| r.alive && !w.alive)
                .count();
            infeasible_sets += usize::from(want_infeasible);
            // The production fingerprint, and one that chains every row in
            // a single bucket.
            let one_bucket = |_: Cmp, _: &[(usize, f64)], _: f64| 0;
            for bucketed in [false, true] {
                let mut got = rows.clone();
                let mut got_infeasible = false;
                let got_changed = if bucketed {
                    drop_duplicate_rows_by(&mut got, &mut got_infeasible, one_bucket)
                } else {
                    drop_duplicate_rows(&mut got, &mut got_infeasible)
                };
                assert_eq!(got_changed, want_changed);
                assert_eq!(got_infeasible, want_infeasible);
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.alive, w.alive);
                    assert_eq!(g.rhs.to_bits(), w.rhs.to_bits());
                }
            }
        }
        // The draw plants duplicates and incompatible `=` pairs.
        assert!(dropped > 500, "{dropped} duplicates dropped");
        assert!(
            infeasible_sets > 10,
            "{infeasible_sets} infeasible row sets"
        );
    }

    #[test]
    fn dropped_columns_resolve_against_the_objective() {
        // y appears in no row: minimizing +y keeps it at 0, minimizing -y is
        // unbounded, and a free unconstrained z is unbounded in any direction.
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        let y = lp.add_var("y", false);
        let z = lp.add_var("z", true);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Le, 5.0);
        let mut session = SimplexBackend.open(&lp);
        let down = session.minimize(&[(x, -1.0), (y, 1.0)]);
        assert_eq!(down.status, LpStatus::Optimal);
        assert_close(down.value(x), 5.0);
        assert_close(down.value(y), 0.0);
        assert_eq!(session.minimize(&[(y, -1.0)]).status, LpStatus::Unbounded);
        assert_eq!(session.minimize(&[(z, 1.0)]).status, LpStatus::Unbounded);
    }

    /// The `(presolve_rows, presolve_cols)` a solution reports.
    fn reduction(sol: &LpSolution) -> (usize, usize) {
        (sol.stats.presolve_rows, sol.stats.presolve_cols)
    }

    #[test]
    fn incremental_rows_substitute_and_rematerialize() {
        // x fixed by presolve; y dropped (no rows).  A later row mentioning
        // both substitutes x and re-materializes y.
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        let y = lp.add_var("y", false);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Eq, 2.0);
        let mut session = SimplexBackend.open(&lp);
        let first = session.minimize(&[(y, 1.0)]);
        assert!(first.is_optimal());
        // The open's reduction: the row, x and y.
        assert_eq!(reduction(&first), (1, 2));
        session.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 6.0); // y >= 4
        let sol = session.minimize(&[(y, 1.0)]);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 4.0);
        assert_eq!(session.num_vars(), 2);
        assert_eq!(session.num_constraints(), 2);
        // The row survived substitution, and bringing y back does not
        // un-count the open's reduction.
        assert_eq!(reduction(&sol), (0, 0));

        // A constant row that contradicts the fixed value flips the session
        // to (sticky) infeasible; the next minimize reports that row.
        session.add_constraint(&[(x, 1.0)], Cmp::Ge, 3.0);
        let contradicted = session.minimize(&[(y, 1.0)]);
        assert_eq!(contradicted.status, LpStatus::Infeasible);
        assert_eq!(reduction(&contradicted), (1, 0));
        let again = session.minimize(&[(y, 1.0)]);
        assert_eq!(again.status, LpStatus::Infeasible);
        assert_eq!(reduction(&again), (0, 0));
        assert_eq!(session.num_constraints(), 3);
    }
}
