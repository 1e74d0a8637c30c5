//! The simplex core behind [`SimplexBackend`](crate::SimplexBackend).
//!
//! [`SimplexCore`] is a revised simplex over sparse non-negative columns
//! ([`ColumnStore`]) with a Markowitz LU basis factorization
//! ([`LuFactor`](crate::factor)).  It is stateful and implements the full
//! [`LpSession`] contract:
//!
//! * **re-minimize** — a new objective restarts phase 2 from the previous
//!   optimal basis and skips phase 1 entirely;
//! * **incremental rows** — an appended row extends the basis in place with
//!   the row's slack (or an artificial for equality rows).  A row the
//!   current point violates makes its new basic variable *negative*, and the
//!   next solve restores primal feasibility with **dual-simplex pivots**
//!   from the still-dual-feasible optimal basis — a handful of pivots
//!   instead of a phase-1 restart;
//! * **incremental columns** — a new variable enters nonbasic at zero and
//!   disturbs nothing.
//!
//! Numerical discipline: devex pricing, the Harris two-pass ratio test with
//! a bounded right-hand-side perturbation against degenerate cycling,
//! Bland's rule as the size-scaled last resort, periodic refactorization
//! from the pristine columns, and fresh-refactorized confirmation before
//! optimality or unboundedness is declared.  The dual-simplex driver gets
//! the same treatment: devex row weights, a least-ratio entering scan
//! with stability-first tie-breaking, a Bland-style fallback, and a hard
//! cap after which the solve falls back to a cold phase-1 start rather than
//! risk a wrong verdict.
//!
//! No column has an upper bound: the analyzer's inference LPs are `=`
//! systems over free template coefficients and non-negative multipliers,
//! and its entailment LPs are `≥` systems over free variables, which the
//! core splits into two non-negative columns each.
//!
//! Every cold start — a session's first solve, a warm solve that falls
//! back, [`LpProblem::solve`] and the Bland restart — begins from a
//! **crash basis**: the slack/artificial basis with the artificials of as
//! many rows as a triangular crash finds replaced by non-negative
//! structural columns, the certificate multipliers (after Bixby,
//! "Implementing the simplex method: the initial basis", ORSA J. Computing
//! 4(3), 1992).  Free columns stay out.  A multiplier or artificial that
//! comes out negative is exchanged until every basic is non-negative, and
//! a crash that cannot get there falls back to the slack/artificial basis.
//! Phase 1 then pivots out only the artificials the crash left, instead of
//! one degenerate pivot per `=` row from the slack/artificial basis.
//!
//! The primal loop keeps its pricing state across pivots: each candidate
//! column's reduced cost `c_j − A_j·y`.  It is recomputed in full wherever
//! `y` is recomputed from scratch, and after a pivot only for the columns
//! next to the support of the pivot row — every other column reads the
//! same `y` bits, so its cached value equals a fresh dot bit for bit.  The
//! pivot sequence is therefore the one a full scan per pivot would take.
//!
//! One rule here ([`SimplexCore::hyper_path`]) picks the kernel path of
//! every LU solve and counts it, and the kernel runs that path start to
//! finish.  Each of the loops' three kinds of triangular solve — the entering column's ftran, the pivot row's
//! btran and the dual prices' btran — forecasts its result density from its
//! own recent results ([`DensityForecast`]) and runs hyper-sparse only while
//! the forecast is sparse (after Hall & McKinnon, "Hyper-sparsity in the
//! revised simplex method and how to exploit it", Comput. Optim. Appl. 32,
//! 2005), the basis is not small and the right-hand side is narrow.  Both
//! kernel paths compute the same values, so the rule moves time, never a
//! pivot.

// Simplex kernels index several parallel vectors (directions, basic values)
// at once; indexed loops are the clearest form here.
#![allow(clippy::needless_range_loop)]

use std::collections::BTreeMap;
use std::time::Instant;

use crate::backend::LpSession;
use crate::factor::{KernelWs, LuFactor};
use crate::pricing::{
    bland_fallback_threshold, DevexPricer, PivotView, SolverTuning, DEADLINE_CHECK_PERIOD,
};
use crate::simplex::{Cmp, LpProblem, LpSolution, LpStatus, LpVarId, SolveStats};

const EPS: f64 = 1e-9;
/// Minimum magnitude accepted for a pivot element.
const PIVOT_EPS: f64 = 1e-7;
const FEAS_EPS: f64 = 1e-6;
/// Reduced costs this far below zero disqualify the warm basis from a dual
/// re-solve (numerics drifted; fall back to a cold start).
const DUAL_FEAS_EPS: f64 = 1e-6;
/// The smallest crash pivot, relative to the largest magnitude of its
/// column.
const CRASH_REL_PIVOT: f64 = 0.01;
/// Sign fix-up rounds after which a crash basis with a negative basic is
/// given up for the slack/artificial basis.
const CRASH_FIX_ROUNDS: usize = 4;

/// Weight of the newest result in a [`DensityForecast`].
const DENSITY_WEIGHT: f64 = 0.05;
/// Forecast densities up to which the entering column's ftran, the pivot
/// row's btran and the dual prices' btran run the hyper-sparse path.  Dual
/// prices keep it longer: they are solved only at refresh points, and
/// those of the compositional chain LPs fill 13% of their rows, where the
/// hyper-sparse path still pays.
const DIRECTION_HYPER_MAX: f64 = 0.10;
const PIVOT_ROW_HYPER_MAX: f64 = 0.10;
const PRICES_HYPER_MAX: f64 = 0.20;

/// Bases of fewer rows take the dense scan for every solve: the scan is a
/// handful of cache lines, and the hyper-sparse path's symbolic
/// bookkeeping costs more than it saves.
const HYPER_MIN_DIM: usize = 16;
/// Right-hand sides with more nonzeros than this share of the rows take the
/// dense scan: the hyper-sparse path's worklist holds at least their rows.
const HYPER_DENSITY: f64 = 0.15;

/// The running result density of one kind of triangular solve, and the
/// density up to which that kind runs the hyper-sparse kernel path.
///
/// A hyper-sparse solve pays a heap-ordered worklist per entry it reaches,
/// so a result that fills a tenth of its rows or more is faster on the
/// dense scan.  Each kind of solve has its own forecast because the
/// densities differ more by kind than from solve to solve: on the
/// compositional chain LPs, entering columns fill about 7% of their rows,
/// pivot rows 3% and dual prices 13%.
#[derive(Debug, Clone, Copy)]
struct DensityForecast {
    /// Running average of nonzeros ÷ m, weight [`DENSITY_WEIGHT`] per
    /// result.
    density: f64,
    hyper_max: f64,
}

impl DensityForecast {
    const fn new(hyper_max: f64) -> Self {
        DensityForecast {
            density: 0.0,
            hyper_max,
        }
    }

    /// Whether the forecast is sparse enough for the hyper-sparse path.
    fn hyper(&self) -> bool {
        self.density <= self.hyper_max
    }

    /// Learns from a result whose support has `nnz` of `m` rows (a session
    /// that presolved to no rows teaches nothing).
    fn observe(&mut self, nnz: usize, m: usize) {
        if m > 0 {
            self.density += DENSITY_WEIGHT * (nnz as f64 / m as f64 - self.density);
        }
    }
}

/// What a standard-form column stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColKind {
    /// A (split) problem variable.
    Structural,
    /// A slack variable of an inequality row.
    Slack,
    /// An artificial variable (phase-1 only; banned from phase 2 and from
    /// entering during dual pivots).
    Artificial,
}

/// The constraint columns in standard form: one `(row, coeff)` list per
/// column plus a row-major mirror of the same entries — the adjacency the
/// devex α-scatter walks when the pivot row is hyper-sparse.
#[derive(Debug, Clone, Default)]
pub(crate) struct ColumnStore {
    cols: Vec<Vec<(usize, f64)>>,
    rows: Vec<Vec<(u32, f64)>>,
}

impl ColumnStore {
    /// Number of columns.
    pub(crate) fn num_cols(&self) -> usize {
        self.cols.len()
    }

    /// Appends an empty column, returning its index.
    pub(crate) fn push_col(&mut self) -> usize {
        self.cols.push(Vec::new());
        self.cols.len() - 1
    }

    /// Adds `val` to entry (`row`, `j`).
    pub(crate) fn push_entry(&mut self, j: usize, row: usize, val: f64) {
        self.cols[j].push((row, val));
        if self.rows.len() <= row {
            self.rows.resize_with(row + 1, Vec::new);
        }
        self.rows[row].push((j as u32, val));
    }

    /// The nonzero `(row, value)` entries of column `j`.
    pub(crate) fn col(&self, j: usize) -> &[(usize, f64)] {
        &self.cols[j]
    }

    /// The row-major mirror: the `(column, value)` entries of every row.
    fn rows(&self) -> &[Vec<(u32, f64)>] {
        &self.rows
    }

    /// The dot product of column `j` with a row-indexed vector.
    fn dot(&self, j: usize, x: &[f64]) -> f64 {
        self.cols[j].iter().map(|&(r, a)| a * x[r]).sum()
    }
}

/// The crash basis's buffers (see [`SimplexCore::crash`]), kept for the
/// session so that a cold restart allocates nothing.
#[derive(Debug, Default)]
struct CrashWs {
    /// Whether a row's basic is still its initial artificial.
    open: Vec<bool>,
    /// Per multiplier column, its nonzeros in open rows (0 for every other
    /// column).
    open_nnz: Vec<u32>,
}

/// Outcome of the dual-simplex feasibility restoration.
enum DualOutcome {
    /// Primal feasibility restored; the basis is optimal for the old costs.
    Restored,
    /// A violated row admits no entering column: the system is primal
    /// infeasible (confirmed by a cold solve before it is reported).
    Infeasible,
    /// Internal iteration cap or numerics — restart cold instead.
    GaveUp,
    /// The session's budget ([`SolverTuning`]) ran out mid-restoration.
    /// Unlike `GaveUp`, this must *not* restart cold (that would burn more
    /// time the caller no longer has) — the minimize reports
    /// [`LpStatus::BudgetExhausted`] instead.
    Exhausted,
}

/// The unified simplex state (see the [module docs](self)).
pub(crate) struct SimplexCore {
    /// Problem variable → (positive column, optional negative column).
    var_cols: Vec<(usize, Option<usize>)>,
    /// Standard-form constraint columns.
    cols: ColumnStore,
    kind: Vec<ColKind>,
    /// Right-hand sides, sign-normalized at row entry so the initial basic
    /// value of every row is non-negative.
    b: Vec<f64>,
    /// Per-row column forming the from-scratch initial basis (slack with
    /// coefficient +1, or an artificial).
    init_basis: Vec<usize>,
    basis: Vec<usize>,
    is_basic: Vec<bool>,
    /// The basis factorization.
    factor: LuFactor,
    /// The factorization no longer matches `basis` (declined update or row
    /// extension); rebuilt from pristine columns before the next pivots.
    factor_stale: bool,
    /// Current basic values, aligned with `basis`.  May carry *negative*
    /// entries after warm row extension.
    xb: Vec<f64>,
    /// Whether `basis`/`factor`/`xb` describe the state left by an
    /// `Optimal` minimize (false forces a cold rebuild and phase 1).
    warm: bool,
    /// Standard-form costs of the last successful minimize — the objective
    /// the warm basis is dual feasible for, which is what the dual-simplex
    /// restoration prices with.
    last_costs: Option<Vec<f64>>,
    /// Pivots applied since the factorization was last rebuilt from pristine
    /// columns.  Gates the periodic refreshes.
    stale_pivots: usize,
    /// Per-`minimize` solver counters (reset at each `minimize`).
    stats: SolveStats,
    /// Whether `xb` currently carries an anti-degeneracy shift (washed out
    /// by the next refactorization; must be washed before values are
    /// extracted).
    xb_shifted: bool,
    /// The session's resource budget, its timeout already turned into a
    /// deadline by the backend.  The deadline is absolute and the spend
    /// counter below is *never* reset, so the budget covers the session's
    /// whole lifetime — every minimize, warm re-solve, and in-session
    /// extension draws from the same pool.
    budget: SolverTuning,
    /// Lifetime iterations charged against `budget.max_iters` (unlike
    /// `stats.iterations`, which resets per minimize).
    budget_iters: usize,
    /// The session-lifetime kernel workspace: every ftran/btran of the hot
    /// loop writes into these buffers, so pivots allocate nothing.
    ws: KernelWs,
    /// Reusable staging buffer for sparse right-hand sides (column entries,
    /// basic costs).
    rhs_buf: Vec<(usize, f64)>,
    /// Devex α-scatter workspace: the pivot row's entries `α_j = ρ·A_j` by
    /// column (all-zero outside `alpha_touched` between pivots).
    alpha_scratch: Vec<f64>,
    /// Columns the last α-scatter wrote, each once.
    alpha_touched: Vec<usize>,
    /// Whether a column is in `alpha_touched` (all-false outside it
    /// between pivots).
    alpha_seen: Vec<bool>,
    /// The pricer's input: `c_j − A_j·y` of every pricing candidate under
    /// the primal loop's current dual prices, and `0.0` for every other
    /// column.
    price: Vec<f64>,
    /// Sorted, deduplicated copy of the pivot row's support (scratch).
    alpha_rows: Vec<usize>,
    /// Result-density forecasts of the entering column's ftran, the pivot
    /// row's btran and the dual prices' btran, kept for the session.
    direction_density: DensityForecast,
    pivot_row_density: DensityForecast,
    price_density: DensityForecast,
    crash_ws: CrashWs,
    /// What the pricing audit of the unit tests checked.
    #[cfg(test)]
    audit: tests::PricingAudit,
    /// Starts every cold solve from the slack/artificial basis: the
    /// reference the unit tests compare the crash with.
    #[cfg(test)]
    no_crash: bool,
}

impl SimplexCore {
    /// Opens a core over the problem's variables and constraint rows under
    /// the given tuning (presolve is the backend wrapper's business).
    pub(crate) fn open_with(problem: &LpProblem, tuning: &SolverTuning) -> SimplexCore {
        let mut core = SimplexCore {
            var_cols: Vec::new(),
            cols: ColumnStore::default(),
            kind: Vec::new(),
            b: Vec::new(),
            init_basis: Vec::new(),
            basis: Vec::new(),
            is_basic: Vec::new(),
            factor: LuFactor::default(),
            factor_stale: false,
            xb: Vec::new(),
            warm: false,
            last_costs: None,
            stale_pivots: 0,
            stats: SolveStats::default(),
            xb_shifted: false,
            budget: *tuning,
            budget_iters: 0,
            ws: KernelWs::default(),
            rhs_buf: Vec::new(),
            alpha_scratch: Vec::new(),
            alpha_touched: Vec::new(),
            alpha_seen: Vec::new(),
            price: Vec::new(),
            alpha_rows: Vec::new(),
            direction_density: DensityForecast::new(DIRECTION_HYPER_MAX),
            pivot_row_density: DensityForecast::new(PIVOT_ROW_HYPER_MAX),
            price_density: DensityForecast::new(PRICES_HYPER_MAX),
            crash_ws: CrashWs::default(),
            #[cfg(test)]
            audit: tests::PricingAudit::default(),
            #[cfg(test)]
            no_crash: false,
        };
        for v in 0..problem.num_vars() {
            core.push_var(problem.is_free(LpVarId::from_index(v)));
        }
        for i in 0..problem.num_constraints() {
            let terms: Vec<(LpVarId, f64)> = problem.constraint_terms(i).collect();
            core.append_row(&terms, problem.cmp(i), problem.rhs(i));
        }
        core
    }

    /// Solves one problem in place: open + a single `minimize` of the
    /// problem's own objective (no presolve).
    pub(crate) fn solve_problem(problem: &LpProblem, tuning: &SolverTuning) -> LpSolution {
        let mut core = SimplexCore::open_with(problem, tuning);
        core.minimize(problem.objective())
    }

    fn push_var(&mut self, free: bool) -> LpVarId {
        let pos = self.new_col(ColKind::Structural);
        let neg = free.then(|| self.new_col(ColKind::Structural));
        self.var_cols.push((pos, neg));
        LpVarId::from_index(self.var_cols.len() - 1)
    }

    fn new_col(&mut self, kind: ColKind) -> usize {
        let j = self.cols.push_col();
        self.kind.push(kind);
        self.is_basic.push(false);
        j
    }

    /// Splits free variables and accumulates a constraint row into per-column
    /// entries (sorted and deduplicated by the map).
    fn split_row(&self, terms: &[(LpVarId, f64)]) -> BTreeMap<usize, f64> {
        let mut entries: BTreeMap<usize, f64> = BTreeMap::new();
        for &(v, coeff) in terms {
            let (pos, neg) = self.var_cols[v.index()];
            *entries.entry(pos).or_insert(0.0) += coeff;
            if let Some(neg) = neg {
                *entries.entry(neg).or_insert(0.0) -= coeff;
            }
        }
        entries.retain(|_, v| *v != 0.0);
        entries
    }

    /// Appends a row in standard form (sign-normalized, slack attached, an
    /// artificial created when the slack cannot seed the initial basis).
    /// When the session is warm, the basis is extended in place.
    fn append_row(&mut self, terms: &[(LpVarId, f64)], cmp: Cmp, rhs: f64) {
        let mut entries = self.split_row(terms);
        let (mut rhs, mut cmp) = (rhs, cmp);
        if rhs < 0.0 {
            for v in entries.values_mut() {
                *v = -*v;
            }
            rhs = -rhs;
            cmp = match cmp {
                Cmp::Le => Cmp::Ge,
                Cmp::Ge => Cmp::Le,
                Cmp::Eq => Cmp::Eq,
            };
        }
        let row = self.b.len();
        for (&col, &val) in &entries {
            self.cols.push_entry(col, row, val);
        }
        let slack = match cmp {
            Cmp::Le | Cmp::Ge => {
                let coeff = if cmp == Cmp::Le { 1.0 } else { -1.0 };
                let col = self.new_col(ColKind::Slack);
                self.cols.push_entry(col, row, coeff);
                Some((col, coeff))
            }
            Cmp::Eq => None,
        };
        let init_col = match slack {
            Some((col, coeff)) if coeff > 0.0 => col,
            _ => {
                let art = self.new_col(ColKind::Artificial);
                self.cols.push_entry(art, row, 1.0);
                art
            }
        };
        self.b.push(rhs);
        self.init_basis.push(init_col);

        if self.warm {
            self.extend_basis(row, &entries, slack, init_col, rhs);
        }
    }

    /// Extends the warm basis with a freshly appended row.
    ///
    /// The new basic variable is the row's own slack (or, for equality rows,
    /// an artificial whose coefficient sign makes its value non-positive); a
    /// violated row simply leaves that basic *negative*, to be repaired by
    /// dual pivots at the next solve.  The LU factors are not bordered: the
    /// basis bookkeeping grows here and the factorization is rebuilt from
    /// pristine columns before the next solve.
    fn extend_basis(
        &mut self,
        row: usize,
        entries: &BTreeMap<usize, f64>,
        slack: Option<(usize, f64)>,
        init_col: usize,
        rhs: f64,
    ) {
        // Current point, per column: basic values, every nonbasic zero.
        let lhs: f64 = entries
            .iter()
            .map(|(&col, &a)| {
                if self.is_basic[col] {
                    let k = self.basis.iter().position(|&c| c == col).expect("basic");
                    a * self.xb[k]
                } else {
                    0.0
                }
            })
            .sum();
        let resid = rhs - lhs;

        let (basic_col, value) = match slack {
            // Slack rows: the slack is always basic; a violated row shows as
            // a negative slack value.
            Some((col, sc)) => (col, resid / sc),
            // Equality rows: an artificial whose sign keeps the basic value
            // ≤ 0, so the dual pivots drive it to its bound (0) and retire
            // it.  `init_col` (coefficient +1) serves when the residual is
            // non-positive; a violated direction gets a −1 artificial.
            None if resid <= EPS => (init_col, resid),
            None => (self.negative_artificial(row), -resid),
        };
        self.factor_stale = true;
        self.basis.push(basic_col);
        self.is_basic[basic_col] = true;
        self.xb.push(value);
    }

    /// Resets the solver state to the from-scratch initial basis: the
    /// slack/artificial basis with as many artificials replaced by
    /// multiplier columns as [`crash`](Self::crash) finds.
    fn rebuild(&mut self) {
        self.install_slack_basis();
        self.stale_pivots = 0;
        self.xb_shifted = false;
        self.last_costs = None;
        let taken = self.crash();
        self.stats.crash_basics += taken;
    }

    /// Makes the one slack/artificial with coefficient +1 per row the
    /// basis: B = I, so a refactorization is exact and cheap, and the basic
    /// values are the (sign-normalized, non-negative) right-hand sides.
    fn install_slack_basis(&mut self) {
        let m = self.b.len();
        self.basis.clone_from(&self.init_basis);
        self.is_basic.fill(false);
        for &col in &self.basis {
            self.is_basic[col] = true;
        }
        let t = Instant::now();
        self.factor.refactorize(m, &self.basis, &self.cols);
        self.stats.refactor_ns += t.elapsed().as_nanos() as u64;
        self.factor_stale = false;
        self.xb.clone_from(&self.b);
    }

    /// Replaces artificials of the slack/artificial basis by multiplier
    /// columns (non-negative structurals) in a triangular crash (Bixby,
    /// "Implementing the simplex method: the initial basis", ORSA J.
    /// Computing 4(3), 1992), so phase 1 need not pivot them in one
    /// degenerate step at a time.  Returns how many rows it kept; a crash
    /// that takes no row leaves the slack basis installed.
    ///
    /// A row is *open* while its basic is its artificial.  One pass over
    /// the multipliers, in column order, lets each take an open row when
    /// that row is its only nonzero among the open rows, the entry is at
    /// least [`CRASH_REL_PIVOT`] of the column's largest magnitude, and it
    /// is positive unless the right-hand side is 0.  Taking a row closes it
    /// and decrements the open counts of the columns in that row, so a
    /// later column may come down to one open row: the basis is lower
    /// triangular and found in O(nnz).  A work queue that also revisited
    /// earlier columns took more rows, and left the degree-3 Fig. 2 LP's
    /// phase 1 degenerate at one artificial until a tiny pivot broke the
    /// factorization.  Free columns stay out: a crash of free template
    /// columns made an in-session escalation's dual pivots far slower.
    ///
    /// The basic values then come from one refactorization, and each
    /// negative basic is fixed: a multiplier hands its row back to the
    /// artificial, and an artificial gives way to the row's artificial of
    /// the other sign.  A singular crash basis, or a negative value that
    /// survives [`CRASH_FIX_ROUNDS`] rounds, gives the crash up.
    fn crash(&mut self) -> usize {
        #[cfg(test)]
        if self.no_crash {
            return 0;
        }
        // Nothing to crash: no row is open (only `≤` rows), or no column is
        // a multiplier (the entailment LPs' columns are all free).
        if self
            .init_basis
            .iter()
            .all(|&c| self.kind[c] != ColKind::Artificial)
            || self.var_cols.iter().all(|&(_, neg)| neg.is_some())
        {
            return 0;
        }
        let m = self.b.len();
        let mut ws = std::mem::take(&mut self.crash_ws);
        ws.open.clear();
        ws.open.extend(
            self.init_basis
                .iter()
                .map(|&c| self.kind[c] == ColKind::Artificial),
        );
        ws.open_nnz.clear();
        ws.open_nnz.resize(self.cols.num_cols(), 0);
        for &(j, neg) in &self.var_cols {
            if neg.is_none() {
                let open = self.cols.col(j).iter().filter(|&&(r, _)| ws.open[r]);
                ws.open_nnz[j] = open.count() as u32;
            }
        }
        let mut taken = 0;
        for &(j, neg) in &self.var_cols {
            if neg.is_some() || ws.open_nnz[j] != 1 {
                continue;
            }
            let entries = self.cols.col(j);
            let largest = entries.iter().fold(0.0f64, |acc, &(_, a)| acc.max(a.abs()));
            let &(r, a) = entries
                .iter()
                .find(|&&(r, _)| ws.open[r])
                .expect("one open row");
            if a.abs() < CRASH_REL_PIVOT * largest || (self.b[r] != 0.0 && a < 0.0) {
                continue;
            }
            ws.open[r] = false;
            self.is_basic[self.basis[r]] = false;
            self.is_basic[j] = true;
            self.basis[r] = j;
            taken += 1;
            for &(k, _) in &self.cols.rows()[r] {
                let k = k as usize;
                ws.open_nnz[k] = ws.open_nnz[k].saturating_sub(1);
            }
        }
        self.crash_ws = ws;
        if taken == 0 {
            return 0;
        }
        for _ in 0..CRASH_FIX_ROUNDS {
            if !self.refactorize() {
                break;
            }
            let mut negative = false;
            for r in 0..m {
                if self.xb[r] >= -EPS {
                    continue;
                }
                negative = true;
                let col = self.basis[r];
                let replacement = match self.kind[col] {
                    ColKind::Structural => {
                        taken -= 1;
                        self.init_basis[r]
                    }
                    ColKind::Artificial if col == self.init_basis[r] => self.negative_artificial(r),
                    ColKind::Artificial => self.init_basis[r],
                    // A slack's row was never open: only a later round
                    // that hands back a multiplier can lift it.
                    ColKind::Slack => continue,
                };
                self.is_basic[col] = false;
                self.is_basic[replacement] = true;
                self.basis[r] = replacement;
            }
            if !negative {
                return taken;
            }
        }
        self.install_slack_basis();
        0
    }

    /// Row `r`'s artificial with coefficient −1, made on first use.  It
    /// carries a value the row's +1 artificial would carry negative.
    fn negative_artificial(&mut self, r: usize) -> usize {
        let existing = self.cols.rows()[r]
            .iter()
            .find(|&&(j, a)| a < 0.0 && self.kind[j as usize] == ColKind::Artificial);
        if let Some(&(j, _)) = existing {
            return j as usize;
        }
        let art = self.new_col(ColKind::Artificial);
        self.cols.push_entry(art, r, -1.0);
        art
    }

    /// The kernel path of one LU solve over the `m`-row basis, of a
    /// right-hand side with `rhs_nnz` nonzeros: hyper-sparse when the basis
    /// has at least [`HYPER_MIN_DIM`] rows, the right-hand side at most
    /// `HYPER_DENSITY·m` nonzeros, and the forecast of that kind of solve is
    /// sparse; the dense scan otherwise.  The solve is counted here, in this
    /// minimize's stats: as a hyper-sparse ftran (`ftran` set) or btran, or
    /// as a dense scan.
    fn hyper_path(&mut self, rhs_nnz: usize, forecast_sparse: bool, ftran: bool) -> bool {
        let m = self.basis.len();
        let hyper =
            forecast_sparse && m >= HYPER_MIN_DIM && rhs_nnz <= (HYPER_DENSITY * m as f64) as usize;
        match (hyper, ftran) {
            (true, true) => self.stats.hyper_sparse_ftrans += 1,
            (true, false) => self.stats.hyper_sparse_btrans += 1,
            (false, _) => self.stats.dense_fallbacks += 1,
        }
        hyper
    }

    /// `y = c_Bᵀ B⁻¹` via btran, into the caller's reusable buffer.  The
    /// basic-cost right-hand side is loaded *sparse* — most basics (slacks,
    /// retired artificials, off-objective structurals) cost 0 — so the
    /// hyper-sparse kernel engages on shallow objectives.
    fn dual_prices_into(&mut self, col_costs: &[f64], y: &mut Vec<f64>) {
        let m = self.basis.len();
        let mut entries = std::mem::take(&mut self.rhs_buf);
        entries.clear();
        for (i, &col) in self.basis.iter().enumerate() {
            let c = col_costs.get(col).copied().unwrap_or(0.0);
            if c != 0.0 {
                entries.push((i, c));
            }
        }
        self.ws.load_sparse(&entries, m);
        self.rhs_buf = entries;
        let forecast = self.price_density.hyper();
        let hyper = self.hyper_path(self.ws.rhs_pattern.len(), forecast, false);
        let t = Instant::now();
        self.factor.btran_ws(&mut self.ws, hyper);
        self.stats.btran_ns += t.elapsed().as_nanos() as u64;
        self.price_density.observe(self.ws.nnz, m);
        self.ws.copy_sol_into(y);
    }

    /// Reduced cost of one column under dual prices `y`.
    fn reduced_cost(&self, j: usize, col_costs: &[f64], y: &[f64]) -> f64 {
        col_costs[j] - self.cols.dot(j, y)
    }

    /// Whether column `j` may enter the basis in the primal loop: nonbasic
    /// and not a banned artificial.
    fn is_candidate(&self, j: usize, ban_artificials: bool) -> bool {
        !(self.is_basic[j] || ban_artificials && self.kind[j] == ColKind::Artificial)
    }

    /// Brings column `j`'s entry of `price` up to date with `y` and the
    /// column's current status.
    fn reprice(&mut self, j: usize, col_costs: &[f64], ban_artificials: bool, y: &[f64]) {
        self.price[j] = if self.is_candidate(j, ban_artificials) {
            self.reduced_cost(j, col_costs, y)
        } else {
            0.0
        };
    }

    /// Reprices every column (see [`reprice`](Self::reprice)), after `y`
    /// was recomputed from scratch.
    fn reprice_all(&mut self, col_costs: &[f64], ban_artificials: bool, y: &[f64]) {
        let n = self.cols.num_cols();
        self.price.resize(n, 0.0);
        for j in 0..n {
            self.reprice(j, col_costs, ban_artificials, y);
        }
    }

    /// Recomputes `y = c_Bᵀ B⁻¹` from scratch and every candidate's reduced
    /// cost from it.  The primal loop calls this wherever it recomputes
    /// `y`, so the cached prices can never lag behind a fresh `y`; the
    /// reprice is pricing work and is timed as such.
    fn refresh_prices(&mut self, col_costs: &[f64], ban_artificials: bool, y: &mut Vec<f64>) {
        self.dual_prices_into(col_costs, y);
        let t = Instant::now();
        self.reprice_all(col_costs, ban_artificials, y);
        self.stats.pricing_ns += t.elapsed().as_nanos() as u64;
    }

    /// The entering column: devex over the cached prices, or Bland's first
    /// improving column in the last-resort regime.
    fn pick(&self, pricer: &mut DevexPricer, bland: bool) -> Option<usize> {
        if bland {
            self.price.iter().position(|&p| p < -EPS)
        } else {
            pricer.select(&self.price)
        }
    }

    /// `d = B⁻¹ A_j` via the sparse-rhs ftran kernel, into the caller's
    /// reusable buffer (timed into the per-solve profile).
    fn direction_into(&mut self, j: usize, out: &mut Vec<f64>) {
        let m = self.basis.len();
        let mut entries = std::mem::take(&mut self.rhs_buf);
        entries.clear();
        entries.extend_from_slice(self.cols.col(j));
        self.ws.load_sparse(&entries, m);
        self.rhs_buf = entries;
        let forecast = self.direction_density.hyper();
        let hyper = self.hyper_path(self.ws.rhs_pattern.len(), forecast, true);
        let t = Instant::now();
        self.factor.ftran_ws(&mut self.ws, hyper);
        self.stats.ftran_ns += t.elapsed().as_nanos() as u64;
        self.direction_density.observe(self.ws.nnz, m);
        self.ws.copy_sol_into(out);
    }

    /// Row `p` of `B⁻¹` (a unit-rhs btran, timed as btran work), into the
    /// caller's reusable buffer.  Its support stays listed in `ws.pattern`
    /// whichever kernel path produced it.
    fn inverse_row_into(&mut self, p: usize, out: &mut Vec<f64>) {
        let m = self.basis.len();
        // The right-hand side is the unit vector e_p.
        let hyper = self.hyper_path(1, self.pivot_row_density.hyper(), false);
        let t = Instant::now();
        self.factor.inverse_row_ws(p, &mut self.ws, hyper);
        self.stats.btran_ns += t.elapsed().as_nanos() as u64;
        self.pivot_row_density.observe(self.ws.nnz, m);
        self.ws.copy_sol_into(out);
    }

    /// Performs the basis change bookkeeping and the factorization update:
    /// the entering column moves from its nonbasic value 0 by `delta`, and
    /// the leaving column exits at 0.
    fn pivot(&mut self, p: usize, entering: usize, d: &[f64], delta: f64) {
        let m = self.basis.len();
        for i in 0..m {
            if i != p {
                self.xb[i] -= delta * d[i];
            }
        }
        // `0.0 + delta`, not `delta`: a −0.0 step enters at +0.0.
        self.xb[p] = 0.0 + delta;
        let leaving = self.basis[p];
        self.is_basic[leaving] = false;
        self.is_basic[entering] = true;
        self.basis[p] = entering;
        let t = Instant::now();
        let updated = self.factor.update(p, d);
        self.stats.update_ns += t.elapsed().as_nanos() as u64;
        if let Ok(retired) = updated {
            self.stats.etas += 1;
            self.stats.eta_compactions += retired;
            self.stats.eta_len = self.stats.eta_len.max(self.factor.eta_count());
        } else {
            // Unstable or saturated update: rebuild from pristine columns
            // before the next pivots.
            self.factor_stale = true;
        }
        self.stale_pivots = self.stale_pivots.saturating_add(1);
    }

    /// Nudges every (near-)zero basic value by a tiny, row-unique amount —
    /// the bounded right-hand-side perturbation that breaks degenerate pivot
    /// cycles (see [`degeneracy_shift`](crate::pricing::degeneracy_shift)).
    /// Temporary: any refactorization recomputes `xb` from the pristine
    /// right-hand sides.
    fn shift_degenerate_basics(&mut self, round: usize) {
        for (i, x) in self.xb.iter_mut().enumerate() {
            if x.abs() <= FEAS_EPS {
                *x += crate::pricing::degeneracy_shift(i, round);
            }
        }
        self.xb_shifted = true;
    }

    /// Rebuilds the factorization from the pristine basis columns and
    /// recomputes `x_B = B⁻¹ b`; returns `false` on a numerically singular
    /// basis, leaving the state untouched.
    fn refactorize(&mut self) -> bool {
        let m = self.basis.len();
        let t = Instant::now();
        let nonsingular = self.factor.refactorize(m, &self.basis, &self.cols);
        self.stats.refactor_ns += t.elapsed().as_nanos() as u64;
        if !nonsingular {
            return false;
        }
        self.ws.load_dense(&self.b);
        // `x_B` has no forecast of its own: only its width gates it.
        let hyper = self.hyper_path(self.ws.rhs_pattern.len(), true, true);
        let t = Instant::now();
        self.factor.ftran_ws(&mut self.ws, hyper);
        self.stats.ftran_ns += t.elapsed().as_nanos() as u64;
        self.ws.copy_sol_into(&mut self.xb);
        self.stale_pivots = 0;
        self.stats.refactorizations += 1;
        self.xb_shifted = false;
        self.factor_stale = false;
        true
    }

    /// Whether the session's budget has run out, checked cooperatively at
    /// every pivot (the iteration cap) and every [`DEADLINE_CHECK_PERIOD`]-th
    /// pivot of a loop (the wall clock — `Instant::now()` per pivot would
    /// dominate cheap pivots).
    fn budget_exhausted(&self, iter_in_loop: usize) -> bool {
        self.budget.iters_remaining(self.budget_iters) == 0
            || (iter_in_loop.is_multiple_of(DEADLINE_CHECK_PERIOD) && self.budget.deadline_passed())
    }

    /// Runs primal simplex iterations for the given standard-form column
    /// costs.  `ban_artificials` excludes artificial columns from entering
    /// (phase 2).  `bland` prices by Bland's rule, with the exact ratio
    /// test, from the first pivot; otherwise Bland's rule is the
    /// size-scaled last resort.
    fn iterate(
        &mut self,
        col_costs: &[f64],
        ban_artificials: bool,
        max_iters: usize,
        bland: bool,
    ) -> Result<(), LpStatus> {
        let bland_after = if bland {
            0
        } else {
            bland_fallback_threshold(self.basis.len(), self.cols.num_cols())
        };
        // How many pivots of drift the factorization may accumulate before
        // it is recomputed from the pristine columns — both periodically and
        // before declaring optimality.
        let refresh_period = 100;
        let mut pricer = DevexPricer::new(self.cols.num_cols());
        let mut degen_streak = 0usize;
        let mut shift_rounds = 0usize;
        // Dual prices are maintained incrementally (Δy along the pivot row)
        // and recomputed from scratch at refresh points and before any
        // optimality/unboundedness verdict.  The candidates' reduced costs
        // `rc`/`price` follow `y`: a full reprice wherever `y` is recomputed
        // (`refresh_prices`), and after a pivot only the columns whose dot
        // product reads a moved `y` entry.  The direction/pivot-row/price
        // buffers below are the loop's only vectors: allocated (at most)
        // once per phase, written in place by the workspace kernels.
        let mut y: Vec<f64> = Vec::new();
        self.refresh_prices(col_costs, ban_artificials, &mut y);
        let mut d: Vec<f64> = Vec::new();
        let mut rho: Vec<f64> = Vec::new();
        for iter in 0..max_iters {
            self.stats.iterations += 1;
            self.budget_iters += 1;
            if self.budget_exhausted(iter) {
                return Err(LpStatus::BudgetExhausted);
            }
            if self.factor_stale || self.stale_pivots >= refresh_period {
                // Also washes out any live anti-degeneracy shift: the basic
                // values are recomputed from the pristine right-hand sides.
                self.refactorize();
                // Poll the clock directly after a whole refresh: the
                // periodic check could let a deadline slip by a period of
                // heavy work.
                if self.budget.deadline_passed() {
                    return Err(LpStatus::BudgetExhausted);
                }
                self.refresh_prices(col_costs, ban_artificials, &mut y);
            }
            let bland = iter >= bland_after;
            if !bland && degen_streak >= crate::pricing::DEGEN_PIVOT_STREAK {
                // A cycle-length streak of zero-length steps: engage the
                // bounded right-hand-side perturbation so the tied ratio
                // tests pick distinct rows and strictly positive steps.
                shift_rounds += 1;
                self.shift_degenerate_basics(shift_rounds);
                degen_streak = 0;
            }
            let t_price = Instant::now();
            let mut entering = self.pick(&mut pricer, bland);
            self.stats.pricing_ns += t_price.elapsed().as_nanos() as u64;
            #[cfg(test)]
            self.audit_selection(col_costs, ban_artificials, &y, &mut pricer, bland, entering);
            if entering.is_none() {
                // Recompute the incrementally maintained duals before
                // trusting the verdict, and — when a full period of drift
                // has accumulated — refactorize the basis too.
                if self.stale_pivots >= refresh_period {
                    self.refactorize();
                }
                self.refresh_prices(col_costs, ban_artificials, &mut y);
                let t_price = Instant::now();
                entering = self.pick(&mut pricer, bland);
                self.stats.pricing_ns += t_price.elapsed().as_nanos() as u64;
                #[cfg(test)]
                self.audit_selection(col_costs, ban_artificials, &y, &mut pricer, bland, entering);
                if entering.is_none() {
                    return Ok(());
                }
            }
            let entering = entering.expect("checked above");

            self.direction_into(entering, &mut d);
            let t_ratio = Instant::now();
            let leaving = if bland {
                self.ratio_test(&d, ban_artificials)
            } else {
                self.harris_ratio_test(&d, ban_artificials)
            };
            self.stats.ratio_ns += t_ratio.elapsed().as_nanos() as u64;
            let Some(p) = leaving else {
                // Apparent unboundedness: refactorize and re-confirm before
                // reporting, so drift (or a live shift) cannot cause a false
                // positive.  The re-check uses pricing's own thresholds, so
                // either verdict moves on: a column whose fresh price no
                // longer improves is not picked again, and a fresh direction
                // that meets a row gives the ratio test that row.  Any
                // improving column whose ray meets no row is a proof,
                // however flat the ray.
                self.refactorize();
                self.refresh_prices(col_costs, ban_artificials, &mut y);
                if self.price[entering] >= -EPS {
                    continue;
                }
                self.direction_into(entering, &mut d);
                if d.iter()
                    .enumerate()
                    .any(|(i, &di)| self.blocking_rate(i, di, ban_artificials) > PIVOT_EPS)
                {
                    continue;
                }
                return Err(LpStatus::Unbounded);
            };
            // Exact step to the blocking row.
            let theta = self.blocking_value(p, d[p]) / self.blocking_rate(p, d[p], ban_artificials);
            if theta.abs() <= FEAS_EPS {
                degen_streak += 1;
            } else {
                degen_streak = 0;
            }
            let rc_entering = self.reduced_cost(entering, col_costs, &y);
            // Pre-pivot pivot row ρ = (B⁻¹)ₚ: feeds the devex weight update
            // (α_j = ρ·A_j) and the incremental dual-price update.
            #[cfg(test)]
            let hyper_btrans = self.stats.hyper_sparse_btrans;
            self.inverse_row_into(p, &mut rho);
            #[cfg(test)]
            let rho_hyper = self.stats.hyper_sparse_btrans > hyper_btrans;
            let dp = d[p];
            // Classic dual-price update: Δy = (r_q / d_p) · ρ — it zeroes
            // the entering column's reduced cost.  It reads nothing the basis
            // change writes, so it runs before it, where the pricing block
            // below can reprice against the moved `y`.
            let y_moved = rc_entering.abs() > EPS;
            if y_moved {
                let scale = rc_entering / dp;
                for (yr, rr) in y.iter_mut().zip(&rho) {
                    *yr += scale * rr;
                }
            }
            #[cfg(test)]
            let resets_before = pricer.resets;
            {
                // The weight propagation's α_j = ρ·A_j is pricing work —
                // timed into the same bucket as `select`.  α_j can only be
                // nonzero on columns adjacent to ρ's support rows, so it
                // is scattered along the row-major mirror instead of dotted
                // column by column.  Ascending-row accumulation keeps each
                // α bit-identical to the full dot (the skipped terms are
                // exact zeros).
                let t_price = Instant::now();
                debug_assert!(self.ws.sparse, "the pivot row's support is listed");
                let n_cols = self.cols.num_cols();
                let mut scratch = std::mem::take(&mut self.alpha_scratch);
                let mut touched = std::mem::take(&mut self.alpha_touched);
                let mut seen = std::mem::take(&mut self.alpha_seen);
                let mut support = std::mem::take(&mut self.alpha_rows);
                for &j in &touched {
                    scratch[j] = 0.0;
                    seen[j] = false;
                }
                touched.clear();
                if scratch.len() < n_cols {
                    scratch.resize(n_cols, 0.0);
                    seen.resize(n_cols, false);
                }
                support.clear();
                support.extend_from_slice(&self.ws.pattern);
                support.sort_unstable();
                support.dedup();
                let rows = self.cols.rows();
                for &r in &support {
                    let rr = rho[r];
                    if rr == 0.0 {
                        continue;
                    }
                    let Some(adj) = rows.get(r) else { continue };
                    for &(j, a) in adj {
                        let j = j as usize;
                        scratch[j] += a * rr;
                        if !seen[j] {
                            seen[j] = true;
                            touched.push(j);
                        }
                    }
                }
                pricer.observe_pivot(&PivotView {
                    entering,
                    leaving: self.basis[p],
                    alpha_q: dp,
                    n_cols,
                    candidate: &|j| self.is_candidate(j, ban_artificials),
                    alpha: &scratch,
                    touched: &touched,
                });
                // `y` moved only where ρ is nonzero, so only the touched
                // columns' dot products read a moved entry; every other
                // column reads the same bits, and its cached reduced cost
                // equals a fresh one.
                if y_moved {
                    for &j in &touched {
                        self.reprice(j, col_costs, ban_artificials, &y);
                    }
                }
                self.stats.pricing_ns += t_price.elapsed().as_nanos() as u64;
                self.alpha_scratch = scratch;
                self.alpha_touched = touched;
                self.alpha_seen = seen;
                self.alpha_rows = support;
            }
            let leaving = self.basis[p];
            self.pivot(p, entering, &d, theta);
            // The entering column left the candidates; the leaving column
            // joins them with a reduced cost under the moved `y`.
            let t_price = Instant::now();
            self.price[entering] = 0.0;
            self.reprice(leaving, col_costs, ban_artificials, &y);
            self.stats.pricing_ns += t_price.elapsed().as_nanos() as u64;
            #[cfg(test)]
            {
                self.audit.record_pivot(rho_hyper, ban_artificials);
                self.audit.devex_resets += pricer.resets - resets_before;
                self.audit_prices(col_costs, ban_artificials, &y);
            }
        }
        // The built-in runaway backstop tripped: the solver ran out of
        // resources without a verdict — same contract as an explicit budget.
        Err(LpStatus::BudgetExhausted)
    }

    /// The rate at which row `i`'s basic value approaches its blocking bound
    /// as the entering variable rises (`di` is the basic response), or 0
    /// when the row does not block.
    ///
    /// Ordinary rows block when `di > 0` (the basic value falls toward 0).
    /// A row whose basic variable is a *zero-valued artificial* also blocks
    /// when `di < 0`: the artificial would re-grow above zero, silently
    /// abandoning the (equality) row it stands for — it must leave the basis
    /// in a degenerate pivot instead.
    /// `guard_artificials` is set in phase 2 only: there a leaving artificial
    /// can never re-enter (artificials are banned from pricing), so each
    /// guard pivot permanently retires one.  In phase 1 artificials are
    /// ordinary objective variables and the guard would two-cycle them.
    fn blocking_rate(&self, i: usize, di: f64, guard_artificials: bool) -> f64 {
        if di > PIVOT_EPS {
            di
        } else if di < -PIVOT_EPS
            && guard_artificials
            && self.kind[self.basis[i]] == ColKind::Artificial
            && self.xb[i] <= FEAS_EPS
        {
            -di
        } else {
            0.0
        }
    }

    /// Distance of row `i`'s basic value to the bound it blocks at
    /// (companion of [`blocking_rate`](Self::blocking_rate)).
    fn blocking_value(&self, i: usize, di: f64) -> f64 {
        if di > PIVOT_EPS {
            self.xb[i]
        } else {
            // The [0, 0] artificial guard: distance to its upper bound 0.
            -self.xb[i]
        }
    }

    /// The classic exact ratio test with smallest-basis-index tie-breaking —
    /// the form Bland's anti-cycling guarantee requires, used only in the
    /// last-resort Bland regime.
    fn ratio_test(&self, d: &[f64], guard_artificials: bool) -> Option<usize> {
        let mut leaving: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for (i, &di) in d.iter().enumerate() {
            let rate = self.blocking_rate(i, di, guard_artificials);
            if rate > PIVOT_EPS {
                let ratio = self.blocking_value(i, di) / rate;
                if ratio < best_ratio - EPS
                    || (ratio < best_ratio + EPS
                        && leaving.is_some_and(|l| self.basis[i] < self.basis[l]))
                {
                    best_ratio = ratio;
                    leaving = Some(i);
                }
            }
        }
        leaving
    }

    /// Two-pass Harris ratio test: pass 1 relaxes the feasibility tolerance
    /// to find the loosest admissible step, pass 2 picks the numerically
    /// largest pivot among rows whose exact ratio stays within it —
    /// degenerate corners get stable pivots instead of tiny cycling ones.
    fn harris_ratio_test(&self, d: &[f64], guard_artificials: bool) -> Option<usize> {
        let mut theta_relaxed = f64::INFINITY;
        for (i, &di) in d.iter().enumerate() {
            let rate = self.blocking_rate(i, di, guard_artificials);
            if rate > PIVOT_EPS {
                let relaxed = (self.blocking_value(i, di) + crate::pricing::HARRIS_RELAX) / rate;
                if relaxed < theta_relaxed {
                    theta_relaxed = relaxed;
                }
            }
        }
        if !theta_relaxed.is_finite() {
            return None;
        }
        let mut leaving: Option<usize> = None;
        let mut best_pivot = 0.0;
        for (i, &di) in d.iter().enumerate() {
            let rate = self.blocking_rate(i, di, guard_artificials);
            if rate > PIVOT_EPS && self.blocking_value(i, di) / rate <= theta_relaxed {
                let better = rate > best_pivot
                    || (rate == best_pivot
                        && leaving.is_some_and(|l| self.basis[i] < self.basis[l]));
                if better {
                    best_pivot = rate;
                    leaving = Some(i);
                }
            }
        }
        leaving
    }

    /// Phase 1 over the artificial columns (`bland` as in
    /// [`iterate`](Self::iterate)); returns `false` when the system is
    /// infeasible.  A start without a basic artificial is feasible already
    /// and takes no iteration.
    fn run_phase1(&mut self, max_iters: usize, bland: bool) -> Result<bool, LpStatus> {
        if !self
            .basis
            .iter()
            .any(|&c| self.kind[c] == ColKind::Artificial)
        {
            return Ok(true);
        }
        let costs: Vec<f64> = self
            .kind
            .iter()
            .map(|&k| if k == ColKind::Artificial { 1.0 } else { 0.0 })
            .collect();
        self.iterate(&costs, false, max_iters, bland)?;
        if self.xb_shifted {
            // Wash the anti-degeneracy shift out before judging feasibility.
            self.refactorize();
        }
        let artificial_sum: f64 = self
            .basis
            .iter()
            .zip(&self.xb)
            .filter(|&(&col, _)| self.kind[col] == ColKind::Artificial)
            .map(|(_, &v)| v)
            .sum();
        if artificial_sum > FEAS_EPS {
            return Ok(false);
        }
        self.drive_out_artificials();
        Ok(true)
    }

    /// Pivots zero-valued basic artificials out of the basis when a
    /// non-artificial column with a usable pivot element exists.
    fn drive_out_artificials(&mut self) {
        let m = self.basis.len();
        let mut rho: Vec<f64> = Vec::new();
        let mut d: Vec<f64> = Vec::new();
        for p in 0..m {
            if self.kind[self.basis[p]] != ColKind::Artificial {
                continue;
            }
            self.inverse_row_into(p, &mut rho);
            let candidate = (0..self.cols.num_cols()).find(|&j| {
                if self.is_basic[j] || self.kind[j] == ColKind::Artificial {
                    return false;
                }
                self.cols.dot(j, &rho).abs() > PIVOT_EPS
            });
            if let Some(j) = candidate {
                self.direction_into(j, &mut d);
                // The artificial leaves exactly at 0, so the point barely
                // moves.
                let delta = self.xb[p] / d[p];
                self.pivot(p, j, &d, delta);
                if self.factor_stale {
                    self.refactorize();
                }
            }
        }
    }

    /// Rebuilds the from-scratch basis and runs phase 1 (`bland` as in
    /// [`iterate`](Self::iterate)); returns the solve's verdict when phase
    /// 1 ends it.
    fn cold_start(&mut self, max_iters: usize, bland: bool) -> Option<LpSolution> {
        self.warm = false;
        self.rebuild();
        match self.run_phase1(max_iters, bland) {
            Ok(true) => None,
            Ok(false) => Some(self.infeasible()),
            // Resource exhaustion is not an infeasibility proof, and phase
            // 1 (objective ≥ 0) cannot be genuinely unbounded — either way
            // the solver gave up without a verdict.
            Err(_) => Some(self.exhausted()),
        }
    }

    /// Phase 2 for the standard-form `costs` (`bland` as in
    /// [`iterate`](Self::iterate)), with any anti-degeneracy shift washed
    /// out of the basic values afterwards.
    fn run_phase2(&mut self, costs: &[f64], max_iters: usize, bland: bool) -> LpStatus {
        let status = match self.iterate(costs, true, max_iters, bland) {
            Ok(()) => LpStatus::Optimal,
            Err(s) => s,
        };
        if self.xb_shifted {
            // Wash the anti-degeneracy shift out before extracting values.
            self.refactorize();
        }
        status
    }

    /// Dual-simplex feasibility restoration (see the [module docs](self)):
    /// prices with `last_costs` — the objective the warm basis is optimal,
    /// hence dual feasible, for — and pivots the infeasible basic variables
    /// out until every basic value is admissible again.
    ///
    /// Basic artificials are treated as bounded in `[0, 0]`: a nonzero value
    /// in either direction makes them leaving candidates, so an equality row
    /// appended warm is enforced the moment its artificial reaches zero.
    ///
    /// The leaving row is priced by `viol²/γ` with devex reference weights
    /// `γ` — on the totally degenerate systems the analysis produces, naive
    /// row choice repairs the same rows hundreds of times over.  The
    /// entering column has the least ratio `rc_j/|α_j|` among the eligible
    /// columns; exact ties go to the larger `|α|` (the Harris stability
    /// rule), then to the first column.
    fn dual_restore(&mut self, max_iters: usize) -> DualOutcome {
        let Some(costs) = self.last_costs.clone() else {
            return DualOutcome::GaveUp;
        };
        let mut costs = costs;
        costs.resize(self.cols.num_cols(), 0.0);
        let n_cols = self.cols.num_cols();
        let bland_after = bland_fallback_threshold(self.basis.len(), n_cols) / 4;
        let mut y: Vec<f64> = Vec::new();
        self.dual_prices_into(&costs, &mut y);

        // The warm basis must actually be dual feasible for the old costs —
        // every nonbasic column needs rc ≥ 0; drift beyond tolerance sends
        // the solve down the cold path.
        for j in 0..n_cols {
            if self.is_basic[j] || self.kind[j] == ColKind::Artificial {
                continue;
            }
            if self.reduced_cost(j, &costs, &y) < -DUAL_FEAS_EPS {
                return DualOutcome::GaveUp;
            }
        }

        let m = self.basis.len();
        // Reference weights: γ_i approximates the squared norm of row i of
        // B⁻¹, starting from the all-ones reference frame (devex).
        let mut gamma = vec![1.0f64; m];

        // Hot-loop scratch: allocated (at most) once per restoration,
        // written in place by the workspace kernels each pivot.
        let mut rho: Vec<f64> = Vec::new();
        let mut d: Vec<f64> = Vec::new();

        for iter in 0..max_iters {
            if self.budget_exhausted(iter) {
                return DualOutcome::Exhausted;
            }
            // Leaving row: maximize viol²/γ over the violated basics.
            // Ordinary basics violate below 0; basic artificials at any
            // nonzero value.
            let t_price = Instant::now();
            let mut leave: Option<usize> = None;
            let mut best_score = 0.0f64;
            for i in 0..m {
                let x = self.xb[i];
                let viol = if self.kind[self.basis[i]] == ColKind::Artificial {
                    x.abs()
                } else {
                    -x
                };
                if viol > FEAS_EPS {
                    let score = viol * viol / gamma[i];
                    if score > best_score {
                        best_score = score;
                        leave = Some(i);
                    }
                }
            }
            self.stats.pricing_ns += t_price.elapsed().as_nanos() as u64;
            let Some(p) = leave else {
                return DualOutcome::Restored;
            };
            self.inverse_row_into(p, &mut rho);
            let bland = iter >= bland_after;
            // Eligibility: the entering column rises from 0, so it must move
            // the leaving basic toward 0 — up from below, down from above
            // (artificials only).
            let sig = if self.xb[p] < 0.0 { -1.0 } else { 1.0 };

            let t_ratio = Instant::now();
            let mut entering: Option<usize> = None;
            let (mut best_ratio, mut best_alpha) = (f64::INFINITY, 0.0);
            for j in 0..n_cols {
                if self.is_basic[j] || self.kind[j] == ColKind::Artificial {
                    continue;
                }
                let alpha = self.cols.dot(j, &rho);
                let eligible = sig * alpha > PIVOT_EPS;
                if !eligible {
                    continue;
                }
                if bland {
                    // Bland regime: first eligible column, cycling-proof.
                    entering = Some(j);
                    break;
                }
                let ratio = self.reduced_cost(j, &costs, &y).max(0.0) / alpha.abs();
                if entering.is_none()
                    || ratio < best_ratio
                    || (ratio == best_ratio && alpha.abs() > best_alpha)
                {
                    entering = Some(j);
                    best_ratio = ratio;
                    best_alpha = alpha.abs();
                }
            }
            self.stats.ratio_ns += t_ratio.elapsed().as_nanos() as u64;
            let Some(q) = entering else {
                // No column can repair this row: primal infeasible.  The
                // caller re-confirms with a cold solve before reporting.
                return DualOutcome::Infeasible;
            };

            let rc_q = self.reduced_cost(q, &costs, &y);
            self.direction_into(q, &mut d);
            if d[p].abs() < PIVOT_EPS {
                return DualOutcome::GaveUp;
            }
            let dp = d[p];
            // Step the entering value by exactly what lands the leaving
            // basic on 0.
            self.pivot(p, q, &d, self.xb[p] / dp);
            self.stats.iterations += 1;
            self.stats.dual_pivots += 1;
            self.budget_iters += 1;

            // Devex weight recurrence for the next leaving choice: the cheap
            // monotone approximation of the steepest-edge norms — no extra
            // solve per pivot.
            let gamma_p = gamma[p];
            for i in 0..m {
                if i == p || d[i] == 0.0 {
                    continue;
                }
                let r = d[i] / dp;
                gamma[i] = gamma[i].max(r * r * gamma_p);
            }
            gamma[p] = (gamma_p / (dp * dp)).max(1.0);

            if self.factor_stale || self.stale_pivots >= 100 {
                // Refresh point: rebuild the factorization and the dual
                // prices from scratch, washing out incremental drift.
                if !self.refactorize() {
                    return DualOutcome::GaveUp;
                }
                // A direct clock poll after the refresh, as in the primal loop.
                if self.budget.deadline_passed() {
                    return DualOutcome::Exhausted;
                }
                self.dual_prices_into(&costs, &mut y);
            } else if rc_q.abs() > EPS {
                // Same O(m) incremental dual-price update as the primal
                // loop: Δy = (r_q / α_pq)·ρ zeroes the entering column's
                // reduced cost — no per-pivot btran needed.
                let scale = rc_q / dp;
                for (yr, rr) in y.iter_mut().zip(&rho) {
                    *yr += scale * rr;
                }
            }
        }
        DualOutcome::GaveUp
    }

    /// Standard-form column costs for a problem-variable objective.
    fn split_costs(&self, objective: &[(LpVarId, f64)]) -> Vec<f64> {
        let mut costs = vec![0.0; self.cols.num_cols()];
        for &(v, coeff) in objective {
            let (pos, neg) = self.var_cols[v.index()];
            costs[pos] += coeff;
            if let Some(neg) = neg {
                costs[neg] -= coeff;
            }
        }
        costs
    }

    /// This minimize's counters; the workspace counts its own growth,
    /// from 0 at each minimize.
    fn snapshot_stats(&self) -> SolveStats {
        SolveStats {
            kernel_allocs: self.ws.kernel_allocs,
            ..self.stats
        }
    }

    fn extract(&self, objective: &[(LpVarId, f64)], status: LpStatus) -> LpSolution {
        let mut col_values = vec![0.0; self.cols.num_cols()];
        for (k, &col) in self.basis.iter().enumerate() {
            col_values[col] = self.xb[k];
        }
        let values: Vec<f64> = self
            .var_cols
            .iter()
            .map(|&(pos, neg)| col_values[pos] - neg.map(|n| col_values[n]).unwrap_or(0.0))
            .collect();
        let objective_value = objective.iter().map(|&(v, c)| c * values[v.index()]).sum();
        LpSolution::new(status, objective_value, values).with_stats(self.snapshot_stats())
    }

    fn infeasible(&self) -> LpSolution {
        LpSolution::new(LpStatus::Infeasible, 0.0, vec![0.0; self.var_cols.len()])
            .with_stats(self.snapshot_stats())
    }

    /// The budget ran out without a verdict: values are meaningless, stats
    /// record what was spent.
    fn exhausted(&self) -> LpSolution {
        LpSolution::new(
            LpStatus::BudgetExhausted,
            0.0,
            vec![0.0; self.var_cols.len()],
        )
        .with_stats(self.snapshot_stats())
    }

    /// Whether any basic value is primal infeasible (negative, or nonzero
    /// for a basic artificial) — the condition the dual-simplex restoration
    /// repairs after warm row extension, and that no `Optimal` point may
    /// meet.
    fn has_infeasible_basics(&self) -> bool {
        self.basis.iter().zip(&self.xb).any(|(&col, &x)| {
            if self.kind[col] == ColKind::Artificial {
                x.abs() > FEAS_EPS
            } else {
                x < -FEAS_EPS
            }
        })
    }
}

impl LpSession for SimplexCore {
    fn add_var(&mut self, _name: &str, free: bool) -> LpVarId {
        // A fresh column enters nonbasic at zero: the warm basis survives.
        self.push_var(free)
    }

    fn add_constraint(&mut self, terms: &[(LpVarId, f64)], cmp: Cmp, rhs: f64) {
        self.append_row(terms, cmp, rhs);
    }

    fn minimize(&mut self, objective: &[(LpVarId, f64)]) -> LpSolution {
        let m = self.b.len();
        // The built-in runaway backstop, tightened to whatever iteration
        // budget the session has left (the budget spans every minimize of
        // the session's lifetime, so warm re-solves draw down the same pool).
        let max_iters = (20_000 + 50 * (self.cols.num_cols() + m))
            .min(self.budget.iters_remaining(self.budget_iters));
        self.stats = SolveStats::default();
        self.ws.kernel_allocs = 0;
        if self.budget_exhausted(0) {
            // The session's budget was already spent by earlier minimizes:
            // refuse to burn more, and report it as what it is.
            self.warm = false;
            return self.exhausted();
        }
        if self.warm && self.factor_stale {
            // Deferred row extensions: one rebuild absorbs any number of
            // appended rows.
            if !self.refactorize() {
                self.warm = false;
            }
        }
        if self.warm && self.has_infeasible_basics() {
            match self.dual_restore(max_iters) {
                DualOutcome::Restored => {}
                // Both the giving-up and the infeasibility verdicts restart
                // cold: phase 1 is the arbiter of infeasibility, so a dual
                // dead end can never mis-report a feasible system.
                DualOutcome::Infeasible | DualOutcome::GaveUp => self.warm = false,
                // Out of budget: do *not* restart cold — that would spend
                // time the caller no longer has.
                DualOutcome::Exhausted => {
                    self.warm = false;
                    return self.exhausted();
                }
            }
        }
        if !self.warm {
            if let Some(verdict) = self.cold_start(max_iters, false) {
                return verdict;
            }
        }
        let costs = self.split_costs(objective);
        let mut status = self.run_phase2(&costs, max_iters, false);
        if status == LpStatus::Optimal && self.has_infeasible_basics() {
            // An optimum at an infeasible point: a Harris step left a basic
            // slightly negative, and a later pivot on a tiny element took a
            // long step from it.  Solve once more from the cold basis under
            // Bland's rule, whose exact ratio test takes no such step; the
            // restart spends the same stats and budget.  A restart that
            // ends there too reports no verdict.
            if let Some(verdict) = self.cold_start(max_iters, true) {
                return verdict;
            }
            status = match self.run_phase2(&costs, max_iters, true) {
                LpStatus::Optimal if self.has_infeasible_basics() => LpStatus::BudgetExhausted,
                status => status,
            };
        }
        self.warm = status == LpStatus::Optimal;
        self.last_costs = self.warm.then_some(costs);
        self.extract(objective, status)
    }

    fn num_vars(&self) -> usize {
        self.var_cols.len()
    }

    fn num_constraints(&self) -> usize {
        self.b.len()
    }

    fn warm_resolves_in_place(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{LpBackend, SimplexBackend};
    use proptest::test_runner::TestRng;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    /// What the pricing audit of one core checked, by kind of event.
    #[derive(Debug, Default, Clone, Copy)]
    pub(super) struct PricingAudit {
        /// Selections compared with the reference scan.
        pub(super) selections: usize,
        /// Pivots whose row ρ came off the hyper-sparse kernel path.
        pub(super) hyper_sparse_pivots: usize,
        /// Pivots whose row ρ came from the dense scan (and was priced
        /// along the support the scan listed).
        pub(super) dense_pivots: usize,
        pub(super) devex_resets: usize,
        /// Pivots of phase 1 (artificials may enter) and of phase 2.
        pub(super) phase1_pivots: usize,
        pub(super) phase2_pivots: usize,
    }

    impl PricingAudit {
        pub(super) fn record_pivot(&mut self, rho_hyper: bool, ban_artificials: bool) {
            if rho_hyper {
                self.hyper_sparse_pivots += 1;
            } else {
                self.dense_pivots += 1;
            }
            if ban_artificials {
                self.phase2_pivots += 1;
            } else {
                self.phase1_pivots += 1;
            }
        }

        fn absorb(&mut self, other: &PricingAudit) {
            self.selections += other.selections;
            self.hyper_sparse_pivots += other.hyper_sparse_pivots;
            self.dense_pivots += other.dense_pivots;
            self.devex_resets += other.devex_resets;
            self.phase1_pivots += other.phase1_pivots;
            self.phase2_pivots += other.phase2_pivots;
        }
    }

    /// The audit a unit-test build runs after every primal pivot and at
    /// every selection.
    impl SimplexCore {
        /// Every candidate's cached `price` equals a fresh `c_j − A_j·y` bit
        /// for bit; every other column is priced `0.0`.
        pub(super) fn audit_prices(&self, col_costs: &[f64], ban_artificials: bool, y: &[f64]) {
            for j in 0..self.cols.num_cols() {
                if self.is_candidate(j, ban_artificials) {
                    let rc = self.reduced_cost(j, col_costs, y);
                    assert_eq!(
                        self.price[j].to_bits(),
                        rc.to_bits(),
                        "column {j}: cached price {} vs fresh {rc}",
                        self.price[j]
                    );
                } else {
                    assert_eq!(self.price[j].to_bits(), 0.0f64.to_bits(), "column {j}");
                }
            }
        }

        /// [`audit_prices`](Self::audit_prices), and `entering` is what the
        /// closure-based scan (or Bland's first improving column) picks from
        /// fresh reduced costs under the same devex weights.
        pub(super) fn audit_selection(
            &mut self,
            col_costs: &[f64],
            ban_artificials: bool,
            y: &[f64],
            pricer: &mut DevexPricer,
            bland: bool,
            entering: Option<usize>,
        ) {
            self.audit_prices(col_costs, ban_artificials, y);
            let n = self.cols.num_cols();
            let candidate = |j: usize| self.is_candidate(j, ban_artificials);
            let rc = |j: usize| self.reduced_cost(j, col_costs, y);
            let reference = if bland {
                (0..n).find(|&j| candidate(j) && rc(j) < -EPS)
            } else {
                pricer.select_by_scan(n, candidate, rc)
            };
            assert_eq!(entering, reference, "selection differs from the scan");
            self.audit.selections += 1;
        }
    }

    impl SimplexCore {
        /// Makes `basis` the current basis and refactorizes it.
        fn install_basis(&mut self, basis: &[usize]) {
            self.is_basic.fill(false);
            for &col in basis {
                self.is_basic[col] = true;
            }
            self.basis = basis.to_vec();
            assert!(self.refactorize(), "singular basis");
        }
    }

    /// Coefficients over seven decades: some pivot rows carry entries large
    /// enough to trip the devex reset.
    const COEFFS: [f64; 10] = [1.0, -1.0, 2.0, -0.5, 3.0, -4.0, 1e-3, 2e3, -1.5e3, 0.25];

    fn pick(rng: &mut TestRng, n: usize) -> usize {
        rng.below(n as u64) as usize
    }

    /// A random LP around a known point, so most are feasible: fewer than
    /// 16 rows (the kernels stay dense) or 16 and more (hyper-sparse pivot
    /// rows), a few free variables, singleton `≤` rows (plain rows like any
    /// other), and `=`/`≥` rows that need phase 1.  Zero coordinates make
    /// many pivots degenerate.
    fn random_lp(rng: &mut TestRng) -> LpProblem {
        let m = if pick(rng, 2) == 0 {
            3 + pick(rng, 12)
        } else {
            16 + pick(rng, 48)
        };
        let n = m + pick(rng, m);
        let mut lp = LpProblem::new();
        let vars: Vec<LpVarId> = (0..n)
            .map(|i| lp.add_var(format!("x{i}"), pick(rng, 8) == 0))
            .collect();
        let point: Vec<f64> = (0..n).map(|_| pick(rng, 4) as f64).collect();
        for (i, &v) in vars.iter().enumerate() {
            if !lp.is_free(v) && pick(rng, 3) == 0 {
                lp.add_constraint(vec![(v, 1.0)], Cmp::Le, point[i] + pick(rng, 3) as f64);
            }
        }
        for _ in 0..m {
            let terms: Vec<(LpVarId, f64)> = (0..2 + pick(rng, 3))
                .map(|_| (vars[pick(rng, n)], COEFFS[pick(rng, COEFFS.len())]))
                .collect();
            let at: f64 = terms.iter().map(|&(v, a)| a * point[v.index()]).sum();
            let (cmp, rhs) = match pick(rng, 4) {
                0 => (Cmp::Eq, at),
                1 => (Cmp::Ge, at - pick(rng, 2) as f64),
                _ => (Cmp::Le, at + pick(rng, 2) as f64),
            };
            lp.add_constraint(terms, cmp, rhs);
        }
        let mut objective = Vec::new();
        for &v in &vars {
            if pick(rng, 2) == 0 {
                objective.push((v, COEFFS[pick(rng, COEFFS.len())]));
            }
        }
        lp.set_objective(objective);
        lp
    }

    /// At every primal pivot and selection of random LPs the cached reduced
    /// costs equal fresh dots bit for bit, and the slice scan picks exactly
    /// what the closure-based scan picks (the audit above panics otherwise).
    /// The coverage counters show the runs reached both kernel paths of ρ,
    /// devex resets and both phases.
    #[test]
    fn cached_prices_pick_exactly_what_the_scan_picks() {
        let mut rng = TestRng::deterministic("cached_prices");
        let mut seen = PricingAudit::default();
        for _ in 0..300 {
            let lp = random_lp(&mut rng);
            let mut core = SimplexCore::open_with(&lp, &SolverTuning::default());
            core.minimize(lp.objective());
            // A second objective re-enters phase 2 from a warm basis.
            let flipped: Vec<(LpVarId, f64)> =
                lp.objective().iter().map(|&(v, c)| (v, -c)).collect();
            core.minimize(&flipped);
            seen.absorb(&core.audit);
        }
        for (what, n) in [
            ("selections", seen.selections),
            ("hyper-sparse pivot rows", seen.hyper_sparse_pivots),
            ("dense pivot rows", seen.dense_pivots),
            ("devex resets", seen.devex_resets),
            ("phase-1 pivots", seen.phase1_pivots),
            ("phase-2 pivots", seen.phase2_pivots),
        ] {
            assert!(n > 0, "no {what} in {seen:?}");
        }
    }

    /// Random LP 140 of the audit above.  Its flipped objective is
    /// unbounded along a flat ray: x0 = x2 = 0, x1 = t, x3 = (13 + t/2)/2 is
    /// feasible for every t ≥ 3.5 and lowers the objective by 2.5e-4 per
    /// unit of t, so the refreshed price of the column that moves along it
    /// is only −8.3e-8 after row scaling.  A re-check that asked for −1e-6
    /// found that ray too flat, pricing picked the same column again, and
    /// the solve spun to the iteration backstop (`BudgetExhausted` after
    /// 20,603 iterations).
    #[test]
    fn a_flat_unbounded_ray_ends_unbounded() {
        let mut lp = LpProblem::new();
        let x: Vec<LpVarId> = (0..4)
            .map(|i| lp.add_var(format!("x{i}"), i == 3))
            .collect();
        lp.add_constraint(vec![(x[0], 3.0), (x[1], -0.5), (x[3], 2.0)], Cmp::Le, 13.0);
        lp.add_constraint(vec![(x[2], 2000.0)], Cmp::Eq, 0.0);
        lp.add_constraint(
            vec![(x[0], -1500.0), (x[1], -3000.0), (x[3], -0.5)],
            Cmp::Le,
            -10500.0,
        );
        let objective = [(x[0], -1.0), (x[2], -1500.0), (x[3], 0.001)];
        let mut core = SimplexCore::open_with(&lp, &SolverTuning::default());
        assert_eq!(core.minimize(&objective).status, LpStatus::Unbounded);
        let flipped = objective.map(|(v, c)| (v, -c));
        let sol = core.minimize(&flipped);
        assert_eq!(
            sol.status,
            LpStatus::Unbounded,
            "after {} iterations",
            sol.stats.iterations
        );
        assert!(
            sol.stats.iterations <= 50,
            "{} iterations",
            sol.stats.iterations
        );
    }

    /// A literal constraint row: `(variable, coefficient)` terms, `cmp`,
    /// right-hand side.
    type Row = (&'static [(usize, f64)], Cmp, f64);

    /// The rows of random LP 213 from `TestRng::deterministic("warm_cuts")`
    /// (51 variables, 7, 8, 25 and 28 free), before the cut.
    const LP_213_ROWS: [Row; 44] = [
        (&[(6, 1.0)], Cmp::Le, 0.0),
        (&[(10, 1.0)], Cmp::Le, 4.0),
        (&[(13, 1.0)], Cmp::Le, 1.0),
        (&[(14, 1.0)], Cmp::Le, 1.0),
        (&[(16, 1.0)], Cmp::Le, 0.0),
        (&[(19, 1.0)], Cmp::Le, 3.0),
        (&[(23, 1.0)], Cmp::Le, 2.0),
        (&[(24, 1.0)], Cmp::Le, 2.0),
        (&[(26, 1.0)], Cmp::Le, 1.0),
        (&[(31, 1.0)], Cmp::Le, 3.0),
        (&[(38, 1.0)], Cmp::Le, 3.0),
        (&[(41, 1.0)], Cmp::Le, 3.0),
        (&[(50, 1.0)], Cmp::Le, 4.0),
        (
            &[(1, -1.0), (13, -0.5), (33, -1.0), (39, 2000.0)],
            Cmp::Le,
            -2.5,
        ),
        (&[(8, 2000.0), (28, -1.0), (35, 0.001)], Cmp::Eq, 3997.0),
        (&[(0, 2.0), (41, 3.0), (46, 2.0)], Cmp::Le, 18.0),
        (&[(19, -4.0), (27, -1500.0), (46, -4.0)], Cmp::Le, -4523.0),
        (&[(5, -0.5), (23, 2.0), (48, 3.0)], Cmp::Ge, 3.5),
        (&[(28, -4.0), (33, 2.0), (37, 3.0)], Cmp::Eq, -7.0),
        (
            &[(3, 0.001), (27, 2.0), (44, -4.0), (45, -0.5)],
            Cmp::Le,
            -6.999,
        ),
        (&[(9, -0.5), (18, 2000.0), (45, 3.0)], Cmp::Ge, 2005.0),
        (&[(8, 3.0), (48, 1.0)], Cmp::Le, 7.0),
        (&[(13, -1.0), (17, 0.001), (47, -4.0)], Cmp::Ge, -1.999),
        (&[(25, -1500.0), (38, 0.25)], Cmp::Eq, -1499.75),
        (&[(0, 0.25), (26, -1500.0)], Cmp::Ge, -1500.75),
        (
            &[(12, -4.0), (18, 0.001), (39, 3.0), (48, -4.0)],
            Cmp::Ge,
            -8.999,
        ),
        (
            &[(8, -1.0), (26, 0.25), (44, 2000.0), (47, -0.5)],
            Cmp::Le,
            5999.25,
        ),
        (
            &[(17, 0.25), (18, 0.25), (36, 2000.0), (41, 3.0)],
            Cmp::Eq,
            4009.5,
        ),
        (
            &[(16, 3.0), (27, -0.5), (28, 2.0), (43, 2.0)],
            Cmp::Eq,
            10.5,
        ),
        (&[(4, 0.25), (6, -4.0)], Cmp::Ge, -1.0),
        (
            &[(1, 3.0), (5, 3.0), (22, -4.0), (43, -1500.0)],
            Cmp::Le,
            -4502.0,
        ),
        (&[(31, 1.0), (33, 0.25), (34, 2000.0)], Cmp::Ge, 2002.25),
        (&[(24, -4.0), (33, 0.001)], Cmp::Eq, 0.001),
        (&[(2, 2.0), (5, 0.25), (37, 0.25)], Cmp::Eq, 4.5),
        (
            &[(5, 0.25), (12, -1500.0), (48, 1.0), (50, 2.0)],
            Cmp::Eq,
            -1494.75,
        ),
        (
            &[(10, 0.001), (17, -0.5), (33, 2.0), (45, 1.0)],
            Cmp::Eq,
            3.502,
        ),
        (&[(3, 0.001), (18, 0.25), (26, 1.0)], Cmp::Le, 2.251),
        (&[(6, -1.0), (20, -1.0), (45, -1500.0)], Cmp::Ge, -3002.0),
        (&[(19, -0.5), (35, 1.0)], Cmp::Le, -1.5),
        (
            &[(4, 0.25), (18, -1.0), (30, 1.0), (50, 0.001)],
            Cmp::Le,
            2.002,
        ),
        (
            &[(15, 0.25), (19, 0.25), (20, -1500.0), (21, -1500.0)],
            Cmp::Le,
            -5998.25,
        ),
        (&[(2, 1.0), (17, 0.25)], Cmp::Eq, 2.25),
        (&[(16, -4.0), (40, 1.0), (44, -1500.0)], Cmp::Eq, -4500.0),
        (
            &[(5, -4.0), (8, -4.0), (37, 0.001), (50, 0.001)],
            Cmp::Ge,
            -11.997,
        ),
    ];

    /// Random LP 213 of the generator above, with the cut Σ(non-free
    /// variables) ≤ ½ of that sum at its first optimum appended.  Its cold
    /// solve once ended `Optimal` at −1503.97 with a non-free variable at
    /// −249.43: Harris steps left a basic at −3.1e-5, and a later pivot on
    /// that row, whose element was 1.25e-7, stepped θ = −249.43.  The warm
    /// re-solve of a session over the same rows reads −1501.86.
    #[test]
    fn an_optimum_is_never_reported_at_an_infeasible_point() {
        let mut lp = LpProblem::new();
        let x: Vec<LpVarId> = (0..51)
            .map(|i| lp.add_var("", [7, 8, 25, 28].contains(&i)))
            .collect();
        for (terms, cmp, rhs) in LP_213_ROWS {
            lp.add_constraint(terms.iter().map(|&(v, a)| (x[v], a)).collect(), cmp, rhs);
        }
        let cut: Vec<(LpVarId, f64)> = x
            .iter()
            .filter(|&&v| !lp.is_free(v))
            .map(|&v| (v, 1.0))
            .collect();
        lp.add_constraint(cut, Cmp::Le, 40.00674662607394);
        lp.set_objective(
            [
                (2, 0.25),
                (5, -0.5),
                (6, 0.25),
                (8, -1.0),
                (11, 1.0),
                (13, -1500.0),
                (15, 3.0),
                (16, -4.0),
                (18, 0.25),
                (20, 0.001),
                (22, 0.001),
                (25, 3.0),
                (28, 3.0),
                (29, 2000.0),
                (33, 0.001),
                (35, -1500.0),
                (41, -1.0),
                (45, -4.0),
                (47, -4.0),
                (50, 1.0),
            ]
            .iter()
            .map(|&(v, c)| (x[v], c))
            .collect(),
        );
        let sol = SimplexCore::solve_problem(&lp, &SolverTuning::default());
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(
            (sol.objective - -1501.858202463235).abs() < 1e-6,
            "objective {}",
            sol.objective
        );
        for &v in &x {
            assert!(
                lp.is_free(v) || sol.value(v) >= -FEAS_EPS,
                "x{} = {}",
                v.index(),
                sol.value(v)
            );
        }
        for i in 0..lp.num_constraints() {
            let lhs: f64 = lp.constraint_terms(i).map(|(v, a)| a * sol.value(v)).sum();
            let slack = lhs - lp.rhs(i);
            let ok = match lp.cmp(i) {
                Cmp::Le => slack <= FEAS_EPS,
                Cmp::Ge => slack >= -FEAS_EPS,
                Cmp::Eq => slack.abs() <= FEAS_EPS,
            };
            assert!(ok, "row {i} violated by {slack}");
        }
    }

    /// The 300 random LPs of `TestRng::deterministic("warm_cuts")`.
    fn warm_cuts_lps() -> Vec<LpProblem> {
        let mut rng = TestRng::deterministic("warm_cuts");
        (0..300).map(|_| random_lp(&mut rng)).collect()
    }

    /// Solves `lp` from scratch, with or without the crash.
    fn cold_solve(lp: &LpProblem, crash: bool) -> LpSolution {
        let mut core = SimplexCore::open_with(lp, &SolverTuning::default());
        core.no_crash = !crash;
        core.minimize(lp.objective())
    }

    /// Whether two solves reach the same verdict, and the same objective
    /// within 1e-6 when it is `Optimal`.
    fn same_answer(a: &LpSolution, b: &LpSolution) -> bool {
        a.status == b.status
            && (a.status != LpStatus::Optimal || (a.objective - b.objective).abs() <= 1e-6)
    }

    /// An LP in which every row has a multiplier of its own, or gets one
    /// once a crashed row closes, starts phase 1 with no basic artificial:
    /// the crash takes every row and phase 1 takes no iteration, where the
    /// slack/artificial start pivots once per row.  One row has a 0
    /// right-hand side, where a negative multiplier entry may take it too.
    #[test]
    fn a_crash_of_multiplier_singletons_skips_phase_one() {
        let mut lp = LpProblem::new();
        let t = lp.add_var("", true);
        let l: Vec<LpVarId> = (0..5).map(|_| lp.add_var("", false)).collect();
        lp.add_constraint(vec![(l[0], 1.0), (t, 1.0)], Cmp::Eq, 3.0);
        lp.add_constraint(vec![(l[1], 1.0), (t, -1.0)], Cmp::Eq, 2.0);
        lp.add_constraint(vec![(l[2], -1.0), (t, 2.0)], Cmp::Eq, 0.0);
        // l4 sits in two open rows until l3 takes the first of them.
        lp.add_constraint(vec![(l[3], 1.0), (l[4], 1.0), (t, 0.5)], Cmp::Eq, 5.0);
        lp.add_constraint(vec![(l[4], 2.0), (t, -1.0)], Cmp::Eq, 2.0);
        for crash in [true, false] {
            let mut core = SimplexCore::open_with(&lp, &SolverTuning::default());
            core.no_crash = !crash;
            assert!(core.cold_start(1000, false).is_none(), "crash {crash}");
            if crash {
                assert_eq!(core.stats.crash_basics, 5);
                assert_eq!(core.stats.iterations, 0);
            } else {
                assert_eq!(core.stats.crash_basics, 0);
                assert!(core.stats.iterations >= 5, "{:?}", core.stats);
            }
            // t ranges over [0, 3].
            let sol = core.minimize(&[(t, -1.0)]);
            assert_eq!(sol.status, LpStatus::Optimal);
            assert_close(sol.value(t), 3.0);
        }
    }

    /// A crashed multiplier that comes out negative hands its row back to
    /// the artificial, and an artificial that comes out negative gives way
    /// to the row's −1 artificial: no basic starts phase 1 negative.
    #[test]
    fn the_crash_fixes_negative_basics() {
        let mut lp = LpProblem::new();
        let t = lp.add_var("", true);
        let l: Vec<LpVarId> = (0..2).map(|_| lp.add_var("", false)).collect();
        // l0 takes row 0, which leaves l1 one open row, row 1.  Then l1 = 1
        // and l0 = 1 − 3 = −2: l0 hands its row back, and the row's
        // artificial reads −2 in its place.
        lp.add_constraint(vec![(l[0], 1.0), (l[1], 3.0), (t, 1.0)], Cmp::Eq, 1.0);
        lp.add_constraint(vec![(l[1], 1.0)], Cmp::Eq, 1.0);
        let mut core = SimplexCore::open_with(&lp, &SolverTuning::default());
        core.rebuild();
        assert_eq!(core.stats.crash_basics, 1);
        assert!(core.xb.iter().all(|&x| x >= 0.0), "{:?}", core.xb);
        let art = core.basis[0];
        assert_eq!(core.kind[art], ColKind::Artificial);
        assert_eq!(core.cols.col(art), [(0, -1.0)]);
        // t = −2 − l0 ≤ −2.
        let sol = core.minimize(&[(t, -1.0)]);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.value(t), -2.0);
    }

    /// The crash moves pivots, not answers: over the `warm_cuts` LPs a
    /// cold solve from the slack/artificial basis reaches the verdict and
    /// objective of the crashed one.
    #[test]
    fn the_crash_keeps_every_status_and_objective() {
        let mut crashed = 0;
        for (i, lp) in warm_cuts_lps().iter().enumerate() {
            let (with, without) = (cold_solve(lp, true), cold_solve(lp, false));
            assert!(
                same_answer(&with, &without),
                "LP {i}: {:?} {} with the crash, {:?} {} without",
                with.status,
                with.objective,
                without.status,
                without.objective
            );
            assert_eq!(without.stats.crash_basics, 0);
            crashed += usize::from(with.stats.crash_basics > 0);
        }
        assert!(crashed > 50, "{crashed} LPs crashed");
    }

    /// When a session's first minimize is optimal, the cut Σ(non-free
    /// variables) ≤ ½ of that sum at the optimum is appended, and the warm
    /// re-solve must agree with a cold solve of the assembled LP.  LP 209
    /// is the known exception (ROADMAP item 2): its cold solve reports
    /// `Infeasible`, with the crash as from the slack/artificial basis,
    /// where the warm point satisfies every row.
    #[test]
    fn warm_resolves_agree_with_cold_solves_but_lp_209() {
        let mut disagree = Vec::new();
        for (i, lp) in warm_cuts_lps().into_iter().enumerate() {
            let mut session = SimplexCore::open_with(&lp, &SolverTuning::default());
            let first = session.minimize(lp.objective());
            if !first.is_optimal() {
                continue;
            }
            let nonfree = (0..lp.num_vars())
                .map(LpVarId::from_index)
                .filter(|&v| !lp.is_free(v));
            let cut: Vec<(LpVarId, f64)> = nonfree.map(|v| (v, 1.0)).collect();
            let half = cut.iter().map(|&(v, _)| first.value(v)).sum::<f64>() / 2.0;
            session.add_constraint(&cut, Cmp::Le, half);
            let warm = session.minimize(lp.objective());
            let mut assembled = lp;
            assembled.add_constraint(cut, Cmp::Le, half);
            let cold = SimplexCore::solve_problem(&assembled, &SolverTuning::default());
            if !same_answer(&warm, &cold) {
                disagree.push(i);
            }
        }
        assert_eq!(disagree, [209]);
    }

    /// The (hyper-sparse, dense-scan) LU solves the core has counted in its
    /// stats so far.
    fn paths(core: &SimplexCore) -> (u64, u64) {
        let s = &core.stats;
        let hyper = s.hyper_sparse_ftrans + s.hyper_sparse_btrans;
        (hyper, s.dense_fallbacks)
    }

    /// The kernel path each kind of solve takes follows its own density
    /// forecast.  On a basis with a dense inverse every result is dense:
    /// the solves asked to run hyper-sparse before the forecast learns that
    /// complete on that path, and then the forecast turns to the scan; on
    /// the slack basis the results are sparse again, the forecast keeps
    /// them on the scan until it has learned that, and then returns them to
    /// the hyper-sparse path.
    #[test]
    fn density_forecasts_choose_each_solves_kernel_path() {
        let m = 40;
        let mut lp = LpProblem::new();
        let x: Vec<LpVarId> = (0..m).map(|_| lp.add_var("", false)).collect();
        for i in 0..m {
            let mut terms = vec![(x[i], 1.0)];
            if i > 0 {
                terms.push((x[i - 1], -1.0));
            }
            lp.add_constraint(terms, Cmp::Le, 1.0);
        }
        let mut core = SimplexCore::open_with(&lp, &SolverTuning::default());
        // x_k sits in rows k and k+1, so the structural basis is
        // bidiagonal and its inverse is the all-ones lower triangle.
        let bidiagonal: Vec<usize> = core.var_cols.iter().map(|&(pos, _)| pos).collect();
        let slacks = core.init_basis.clone();
        let mut costs = vec![0.0; core.cols.num_cols()];
        costs[bidiagonal[m - 1]] = 1.0;
        costs[slacks[m - 1]] = 1.0;
        let direction = |core: &mut SimplexCore, out: &mut Vec<f64>| {
            core.direction_into(slacks[0], out);
        };
        let pivot_row = |core: &mut SimplexCore, out: &mut Vec<f64>| {
            core.inverse_row_into(m - 1, out);
        };
        let prices = |core: &mut SimplexCore, out: &mut Vec<f64>| {
            core.dual_prices_into(&costs, out);
        };
        type Solve<'a> = &'a dyn Fn(&mut SimplexCore, &mut Vec<f64>);
        type Forecast = fn(&SimplexCore) -> DensityForecast;
        // Each role, with the dense results its forecast takes to learn
        // that they are dense: 1 − 0.95^k passes 0.10 at k = 3 and 0.20 at
        // k = 5.
        let roles: [(&str, Solve, Forecast, u64); 3] = [
            ("direction", &direction, |core| core.direction_density, 3),
            ("pivot row", &pivot_row, |core| core.pivot_row_density, 3),
            ("dual prices", &prices, |core| core.price_density, 5),
        ];
        let mut out = Vec::new();
        for (role, solve, forecast, learned) in roles {
            core.install_basis(&bidiagonal);
            let (hyper, dense) = paths(&core);
            for _ in 0..40 {
                solve(&mut core, &mut out);
                assert_eq!(out.iter().filter(|&&v| v != 0.0).count(), m, "{role}");
            }
            assert_eq!(
                paths(&core),
                (hyper + learned, dense + 40 - learned),
                "{role}"
            );
            assert!(!forecast(&core).hyper(), "{role}: {:?}", forecast(&core));

            core.install_basis(&slacks);
            let (hyper, dense) = paths(&core);
            let mut scans = 0;
            while !forecast(&core).hyper() {
                solve(&mut core, &mut out);
                assert_eq!(out.iter().filter(|&&v| v != 0.0).count(), 1, "{role}");
                scans += 1;
                assert!(scans < 200, "{role}: {:?}", forecast(&core));
            }
            assert!(scans > 0);
            assert_eq!(paths(&core), (hyper, dense + scans), "{role}");
            for _ in 0..10 {
                solve(&mut core, &mut out);
            }
            assert_eq!(paths(&core), (hyper + 10, dense + scans), "{role}");
        }
    }

    /// The rule's two gates send a solve to the scan even while its
    /// forecast is sparse (a fresh core's are): a basis of fewer than 16
    /// rows, and a right-hand side of more than 0.15·m nonzeros.  All four
    /// solve sites follow the rule; the pivot row's right-hand side is a
    /// unit vector, so only the dimension gates it.
    #[test]
    fn small_bases_and_wide_right_hand_sides_take_the_scan() {
        /// Whether `solve`, one LU solve, was sent down the hyper-sparse
        /// path.
        fn ran_hyper(core: &mut SimplexCore, solve: impl FnOnce(&mut SimplexCore)) -> bool {
            let (hyper, dense) = paths(core);
            solve(core);
            let (hyper2, dense2) = paths(core);
            assert_eq!(hyper2 + dense2, hyper + dense + 1);
            hyper2 > hyper
        }
        // (rows, right-hand-side nonzeros): 0.15·40 = 6.
        for (m, width) in [(15, 1), (16, 1), (40, 6), (40, 7)] {
            // Rows x_i + w ≤ 1 for i < width and x_i ≤ 0 after: the slack
            // basis is the identity, and b, w's column and the costs of
            // the first `width` slacks have `width` nonzeros each.
            let mut lp = LpProblem::new();
            let w = lp.add_var("", false);
            for i in 0..m {
                let x = lp.add_var("", false);
                if i < width {
                    lp.add_constraint(vec![(x, 1.0), (w, 1.0)], Cmp::Le, 1.0);
                } else {
                    lp.add_constraint(vec![(x, 1.0)], Cmp::Le, 0.0);
                }
            }
            let mut core = SimplexCore::open_with(&lp, &SolverTuning::default());
            let slacks = core.init_basis.clone();
            let w_col = core.var_cols[w.index()].0;
            let mut costs = vec![0.0; core.cols.num_cols()];
            for &s in &slacks[..width] {
                costs[s] = 1.0;
            }
            let mut out = Vec::new();
            let sites = [
                ran_hyper(&mut core, |core| core.install_basis(&slacks)),
                ran_hyper(&mut core, |core| core.direction_into(w_col, &mut out)),
                ran_hyper(&mut core, |core| core.dual_prices_into(&costs, &mut out)),
                ran_hyper(&mut core, |core| core.inverse_row_into(0, &mut out)),
            ];
            let (large, narrow) = (m >= 16, width <= 6);
            let expected = [large && narrow, large && narrow, large && narrow, large];
            assert_eq!(sites, expected, "{m} rows, {width} nonzeros");
        }
    }

    /// A session without rows (every row presolved away) still prices,
    /// and its density forecasts learn nothing from empty results.
    #[test]
    fn a_session_without_rows_solves() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        let y = lp.add_var("y", true);
        let mut core = SimplexCore::open_with(&lp, &SolverTuning::default());
        let sol = core.minimize(&[(x, 1.0)]);
        assert_eq!((sol.status, sol.objective), (LpStatus::Optimal, 0.0));
        assert_eq!(core.minimize(&[(y, 1.0)]).status, LpStatus::Unbounded);
        assert_eq!(core.direction_density.density, 0.0);
        assert_eq!(core.price_density.density, 0.0);
    }

    /// Sessions over `lp` with and without the presolve wrapper: the
    /// backend's own, and the bare core.
    fn sessions(lp: &LpProblem) -> [Box<dyn LpSession>; 2] {
        let backend: &'static SimplexBackend = &SimplexBackend;
        [
            backend.open(lp),
            Box::new(SimplexCore::open_with(lp, &SolverTuning::default())),
        ]
    }

    #[test]
    fn equality_rows_and_free_variables() {
        // x + y = 1, x - y = 5, both free: x = 3, y = -2.
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", true);
        let y = lp.add_var("y", true);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Cmp::Eq, 5.0);
        lp.set_objective(vec![(x, 1.0)]);
        for (i, mut session) in sessions(&lp).into_iter().enumerate() {
            let sol = session.minimize(lp.objective());
            assert!(sol.is_optimal(), "session {i}");
            assert_close(sol.value(x), 3.0);
            assert_close(sol.value(y), -2.0);
        }
    }

    #[test]
    fn reminimize_skips_phase_one_and_stays_exact() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        let y = lp.add_var("y", false);
        lp.add_constraint(vec![(x, 1.0), (y, 2.0)], Cmp::Ge, 4.0);
        lp.add_constraint(vec![(x, 3.0), (y, 1.0)], Cmp::Ge, 6.0);
        let mut session = SimplexBackend.open(&lp);
        let a = session.minimize(&[(x, 1.0), (y, 1.0)]);
        assert!(a.is_optimal());
        let b = session.minimize(&[(x, 5.0), (y, 1.0)]);
        assert!(b.is_optimal());
        // minimize 5x + y over the region: best at x = 0, y = 6 → 6.
        assert_close(b.objective, 6.0);
        let a_again = session.minimize(&[(x, 1.0), (y, 1.0)]);
        assert_eq!(a.status, a_again.status);
        assert_close(a.objective, a_again.objective);
    }

    #[test]
    fn incremental_rows_tighten_the_optimum_under_every_configuration() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        let y = lp.add_var("y", false);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        for (i, mut session) in sessions(&lp).into_iter().enumerate() {
            let first = session.minimize(&[(x, -1.0), (y, -2.0)]);
            assert_close(first.objective, -8.0); // y = 4

            // A cutting row the current point violates: y <= 1.
            session.add_constraint(&[(y, 1.0)], Cmp::Le, 1.0);
            let second = session.minimize(&[(x, -1.0), (y, -2.0)]);
            assert!(second.is_optimal(), "session {i}");
            assert_close(second.objective, -5.0); // x = 3, y = 1
            assert!(
                second.stats.dual_pivots > 0,
                "the cut was repaired without dual pivots: session {i}"
            );
            // And an equality row forcing x = 2.
            session.add_constraint(&[(x, 1.0)], Cmp::Eq, 2.0);
            let third = session.minimize(&[(x, -1.0), (y, -2.0)]);
            assert!(third.is_optimal(), "session {i}");
            assert_close(third.objective, -4.0);
            assert_eq!(session.num_constraints(), 3);
        }
    }

    #[test]
    fn incremental_vars_enter_at_zero() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Le, 5.0);
        let mut session = SimplexBackend.open(&lp);
        assert_close(session.minimize(&[(x, -1.0)]).objective, -5.0);
        let z = session.add_var("z", false);
        session.add_constraint(&[(x, 1.0), (z, 1.0)], Cmp::Le, 6.0);
        let sol = session.minimize(&[(x, -1.0), (z, -1.0)]);
        assert!(sol.is_optimal());
        assert_close(sol.objective, -6.0);
        assert_eq!(session.num_vars(), 2);
    }

    #[test]
    fn infeasible_session_recovers_after_rebuild() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Le, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Ge, 2.0);
        let mut session = SimplexBackend.open(&lp);
        assert_eq!(session.minimize(&[(x, 1.0)]).status, LpStatus::Infeasible);
        // Deterministic on retry.
        assert_eq!(session.minimize(&[(x, 1.0)]).status, LpStatus::Infeasible);
    }

    #[test]
    fn degenerate_problem_terminates() {
        let mut lp = LpProblem::new();
        let x1 = lp.add_var("x1", false);
        let x2 = lp.add_var("x2", false);
        let x3 = lp.add_var("x3", false);
        let x4 = lp.add_var("x4", false);
        lp.add_constraint(
            vec![(x1, 0.5), (x2, -5.5), (x3, -2.5), (x4, 9.0)],
            Cmp::Le,
            0.0,
        );
        lp.add_constraint(
            vec![(x1, 0.5), (x2, -1.5), (x3, -0.5), (x4, 1.0)],
            Cmp::Le,
            0.0,
        );
        lp.add_constraint(vec![(x1, 1.0)], Cmp::Le, 1.0);
        lp.set_objective(vec![(x1, -10.0), (x2, 57.0), (x3, 9.0), (x4, 24.0)]);
        for (i, mut session) in sessions(&lp).into_iter().enumerate() {
            let sol = session.minimize(lp.objective());
            assert!(sol.is_optimal(), "session {i}");
            assert_close(sol.objective, -1.0);
        }
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // min y s.t. -x - y <= -4 (i.e. x + y >= 4), x <= 1  => y = 3.
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", false);
        let y = lp.add_var("y", false);
        lp.add_constraint(vec![(x, -1.0), (y, -1.0)], Cmp::Le, -4.0);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Le, 1.0);
        lp.set_objective(vec![(y, 1.0)]);
        let sol = SimplexBackend.solve(&lp);
        assert!(sol.is_optimal());
        assert_close(sol.objective, 3.0);
    }

    #[test]
    fn lu_factor_reports_etas() {
        let mut lp = LpProblem::new();
        let vars: Vec<_> = (0..6).map(|i| lp.add_var(format!("v{i}"), false)).collect();
        for (i, pair) in vars.windows(2).enumerate() {
            lp.add_constraint(
                vec![(pair[0], 1.0), (pair[1], 2.0)],
                if i % 2 == 0 { Cmp::Ge } else { Cmp::Le },
                1.0 + i as f64,
            );
        }
        lp.set_objective(vars.iter().map(|&v| (v, 1.0)).collect());
        let sol = SimplexBackend.solve(&lp);
        assert!(sol.is_optimal());
        assert!(sol.stats.etas > 0, "LU solve recorded no eta updates");
    }
}
