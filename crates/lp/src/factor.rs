//! The basis factorization behind the simplex core: Markowitz LU with
//! Forrest–Tomlin updates and hyper-sparse triangular solves.
//!
//! Every revised-simplex iteration needs the basis matrix `B` applied in two
//! directions — `ftran` solves `B·d = a` (the pivot direction) and `btran`
//! solves `Bᵀ·y = c_B` (the dual prices) — plus a cheap `update` when one
//! basic column is replaced, and a from-scratch `refactorize` that washes
//! out the drift the updates accumulate.  [`LuFactor`] provides all four:
//!
//! * **Markowitz ordering** — pivots are chosen to minimize
//!   `(rowcount−1)·(colcount−1)` fill, under a threshold guard for
//!   stability;
//! * **Forrest–Tomlin updates** — a basis change replaces the departing
//!   column of `U` in place with the spike `U·d`, moves its pivot step to the
//!   end of the elimination order, and eliminates the pending row into one
//!   sparse *row eta*, so `U` stays triangular and compact instead of
//!   growing an unbounded product-form eta file.  An update declines
//!   (forcing refactorization) only when the new pivot is unstable relative
//!   to the spike or the eliminated row fills beyond a threshold;
//! * **hyper-sparse solves** — Gilbert–Peierls traversals that touch only
//!   the entries a sparse right-hand side can reach (see [`KernelWs`]).
//!   Every solve runs the path its caller names, start to finish; the
//!   simplex core's one rule picks it.
//!
//! **The pivot search** (after Suhl & Suhl, "Computing sparse LU
//! factorizations for large-scale linear programming bases", ORSA J.
//! Computing 2(4), 1990) finds the Markowitz pivot without rescanning the
//! active submatrix.  The rule it implements is a scan of the active
//! columns in ascending order, each column's entries by row: the pivot is
//! the entry of least score among those at least `LU_THRESHOLD` of their
//! column's largest magnitude (and at least `SINGULAR_TOL`), ties going to
//! the larger magnitude and then to the first entry scanned; the scan stops
//! after the first column holding a score-0 (fill-free) candidate, and the
//! basis is singular when it meets an empty or sub-`SINGULAR_TOL` column
//! first.  The active submatrix lives in flat lists (columns sorted by row,
//! rows as column sets), and every column caches its count, its largest
//! magnitude and whether it holds a score-0 candidate.  Two ordered sets
//! hold the columns with a score-0 candidate and the singular columns, so
//! the scan's outcome is known from their two minima whenever a score-0
//! candidate exists: the first such column is the one the scan stops at,
//! no column before it can hold a candidate the scan would keep (its score
//! would be positive), and within it the scan keeps the score-0 candidate
//! of largest magnitude, first in row order.  A step re-derives the cached
//! status only of the columns it changed — the pivot row's — and of the
//! columns of rows whose count entered or left 1, the only other way a
//! column gains or loses a score-0 candidate.  The full scan runs only on
//! nucleus steps, where no score-0 candidate exists.  Every elimination
//! step performs the same floating-point operations, in the same order, as
//! a scan of the whole submatrix would, so the factors are bit-for-bit
//! those of the plain rule.
//!
//! On the analysis's extremely sparse bases both solves and updates cost
//! time proportional to the nonzeros they touch rather than `O(m²)`: an
//! update computes the spike only for the steps `d`'s support reaches,
//! eliminates the pending row by popping its entries in elimination order,
//! and rewrites only the `U` rows holding the replaced column or a spike
//! entry; beyond that it moves one step to the end of the order (an `O(m)`
//! shift of a permutation).  Refactorization and update keep their scratch
//! in the [`LuFactor`], so neither allocates once its buffers are sized.
//! Appended rows (the warm `add_constraint` path) are not bordered in: the
//! core marks the factorization stale and refactorizes lazily at the next
//! solve, so one rebuild absorbs any number of appended rows.

use crate::core::ColumnStore;

/// Minimum magnitude accepted for an update pivot (matches the solvers'
/// pivot tolerance).
const PIVOT_EPS: f64 = 1e-7;
/// Below this magnitude a candidate LU pivot counts as structurally zero and
/// the basis as numerically singular.
const SINGULAR_TOL: f64 = 1e-11;
/// Threshold-pivoting factor: an LU pivot must be at least this fraction of
/// the largest entry in its column (the classic Markowitz/threshold
/// compromise between sparsity and stability).
const LU_THRESHOLD: f64 = 0.1;
/// Entries driven below this magnitude by elimination are dropped as exact
/// cancellations.
const DROP_TOL: f64 = 1e-13;
/// Hard cap on the row-eta file; reaching it forces a refactorization (the
/// core's periodic refresh normally keeps the file far shorter).
const ETA_CAP: usize = 512;
/// A Forrest–Tomlin update declines when the new diagonal is smaller than
/// this fraction of the spike's largest entry: the replacement would be
/// numerically dominated and the basis should be refactorized instead.
const FT_STAB_TOL: f64 = 1e-8;
/// A Forrest–Tomlin update declines when eliminating the pending row takes
/// more than this many row operations — the fill has outgrown what an
/// in-place update saves over refactorizing.
const FT_FILL_CAP: usize = 64;

/// Why an update declined; the core reacts by refactorizing from pristine
/// columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FactorError {
    /// The update pivot is too small to apply stably.
    UnstablePivot,
    /// The eta file or the update's fill outgrew what an in-place update
    /// saves; rebuild at the next solve.
    NeedsRefactorization,
}

/// Sift-up push into a max-heap of `(key, step)` pairs kept in a plain
/// `Vec` so the buffer is reusable across solves.  Min-order stages push
/// `usize::MAX - key`.
fn heap_push(heap: &mut Vec<(usize, usize)>, item: (usize, usize)) {
    heap.push(item);
    let mut i = heap.len() - 1;
    while i > 0 {
        let p = (i - 1) / 2;
        if heap[p] < heap[i] {
            heap.swap(p, i);
            i = p;
        } else {
            break;
        }
    }
}

/// Pop the max `(key, step)` pair (see [`heap_push`]).
fn heap_pop(heap: &mut Vec<(usize, usize)>) -> Option<(usize, usize)> {
    let n = heap.len();
    if n == 0 {
        return None;
    }
    heap.swap(0, n - 1);
    let top = heap.pop();
    let n = heap.len();
    let mut i = 0;
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut big = i;
        if l < n && heap[l] > heap[big] {
            big = l;
        }
        if r < n && heap[r] > heap[big] {
            big = r;
        }
        if big == i {
            break;
        }
        heap.swap(i, big);
        i = big;
    }
    top
}

/// Caller-owned scratch for the in-place kernel API.
///
/// One `KernelWs` carries everything an [`LuFactor`] solve needs —
/// the right-hand side, the solution, the symbolic-DFS worklist, and
/// epoch-tagged marks — so a solve performs **zero heap allocation**
/// once the workspace has been sized for the basis dimension.  The
/// `SimplexCore` owns one workspace per concurrent solve role and
/// reuses them across every pivot of a solve.
///
/// Contract between loads and kernels:
/// * `rhs` is all-zero between calls; [`load_dense`](Self::load_dense)/
///   [`load_sparse`](Self::load_sparse)/[`load_unit`](Self::load_unit)
///   populate it plus `rhs_pattern`, and the kernel consumes it back to
///   all-zero.
/// * After a kernel returns, `sol` holds the solution and `nnz` the size
///   of its support; when `sparse` is set, `pattern` lists a superset of
///   its nonzero indices and `sol` is exactly `+0.0` everywhere else.  The
///   next kernel call clears it.
#[derive(Debug, Default)]
pub(crate) struct KernelWs {
    /// Right-hand side / mid-solve vector (row-indexed in ftran,
    /// position-indexed in btran).  All-zero between calls.
    pub(crate) rhs: Vec<f64>,
    /// Support of `rhs` (may contain duplicates or exact-zero entries).
    pub(crate) rhs_pattern: Vec<usize>,
    /// Solution vector (position-indexed in ftran, row-indexed in btran).
    pub(crate) sol: Vec<f64>,
    /// Superset of `sol`'s nonzero indices when `sparse`.
    pub(crate) pattern: Vec<usize>,
    /// Whether `pattern` describes `sol`: set by the hyper-sparse path,
    /// and by a dense inverse row, which lists its support.
    pub(crate) sparse: bool,
    /// Size of `sol`'s support, which the caller's density forecast learns
    /// from: its nonzero count, except on the hyper-sparse btran path,
    /// where counting would cost a pass of its own and `pattern`'s length
    /// (a superset) serves.
    pub(crate) nnz: usize,
    /// Indices of `rhs` dirtied by the current solve (for O(support)
    /// re-zeroing instead of an O(m) clear).
    touched: Vec<usize>,
    /// Epoch-tagged marks over rows and positions/steps; bumping the
    /// epoch invalidates all marks in O(1).
    mark_row: Vec<u32>,
    mark_pos: Vec<u32>,
    epoch_row: u32,
    epoch_pos: u32,
    /// Reusable binary-heap buffer for the symbolic worklists.
    heap: Vec<(usize, usize)>,
    /// Dimension the buffers are sized for (high-water mark).
    sized_for: usize,
    /// Dimension of the solve that produced `sol` (for dense clears).
    dim: usize,
    /// Solves the caller sent down the hyper-sparse path.
    pub(crate) hyper_ftrans: u64,
    pub(crate) hyper_btrans: u64,
    /// Solves the caller sent to the dense scan.
    pub(crate) dense_fallbacks: u64,
    /// Workspace growth events after the first sizing — the hot loop's
    /// allocation count, asserted zero in steady state by CI.
    pub(crate) kernel_allocs: u64,
}

impl KernelWs {
    /// Grows every buffer to dimension `m`; growth after the first
    /// sizing counts as a hot-path allocation.
    pub(crate) fn ensure(&mut self, m: usize) {
        if m > self.sized_for {
            if self.sized_for > 0 {
                self.kernel_allocs += 1;
            }
            self.rhs.resize(m, 0.0);
            self.sol.resize(m, 0.0);
            self.mark_row.resize(m, 0);
            self.mark_pos.resize(m, 0);
            self.rhs_pattern
                .reserve(m.saturating_sub(self.rhs_pattern.len()));
            self.pattern.reserve(m.saturating_sub(self.pattern.len()));
            self.touched.reserve(m.saturating_sub(self.touched.len()));
            self.heap.reserve(m.saturating_sub(self.heap.len()));
            self.sized_for = m;
        }
    }

    /// Loads a dense right-hand side, scanning its support.
    pub(crate) fn load_dense(&mut self, b: &[f64]) {
        self.ensure(b.len());
        self.rhs[..b.len()].copy_from_slice(b);
        self.rhs_pattern.clear();
        for (i, &v) in b.iter().enumerate() {
            if v != 0.0 {
                self.rhs_pattern.push(i);
            }
        }
    }

    /// Loads a sparse right-hand side given as `(index, value)` entries.
    pub(crate) fn load_sparse(&mut self, entries: &[(usize, f64)], m: usize) {
        self.ensure(m);
        self.rhs_pattern.clear();
        self.bump_row_epoch();
        for &(i, a) in entries {
            if a == 0.0 {
                continue;
            }
            if !self.row_marked(i) {
                self.mark_row_on(i);
                self.rhs_pattern.push(i);
            }
            self.rhs[i] += a;
        }
    }

    /// Loads the unit right-hand side `e_p`.
    pub(crate) fn load_unit(&mut self, p: usize, m: usize) {
        self.ensure(m);
        self.rhs[p] = 1.0;
        self.rhs_pattern.clear();
        self.rhs_pattern.push(p);
    }

    /// Kernel prologue: clears the previous solution's support and
    /// resets the per-solve scratch.  Kernels call this exactly once.
    fn begin(&mut self, m: usize) {
        self.ensure(m);
        if self.sparse {
            for idx in 0..self.pattern.len() {
                let i = self.pattern[idx];
                self.sol[i] = 0.0;
            }
        } else {
            self.sol[..self.dim].fill(0.0);
        }
        self.pattern.clear();
        self.sparse = true;
        self.touched.clear();
        self.heap.clear();
        self.dim = m;
        self.bump_row_epoch();
        self.bump_pos_epoch();
    }

    fn bump_row_epoch(&mut self) {
        if self.epoch_row == u32::MAX {
            self.mark_row.fill(0);
            self.epoch_row = 0;
        }
        self.epoch_row += 1;
    }

    fn bump_pos_epoch(&mut self) {
        if self.epoch_pos == u32::MAX {
            self.mark_pos.fill(0);
            self.epoch_pos = 0;
        }
        self.epoch_pos += 1;
    }

    fn row_marked(&self, i: usize) -> bool {
        self.mark_row[i] == self.epoch_row
    }

    fn mark_row_on(&mut self, i: usize) {
        self.mark_row[i] = self.epoch_row;
    }

    fn pos_marked(&self, i: usize) -> bool {
        self.mark_pos[i] == self.epoch_pos
    }

    fn mark_pos_on(&mut self, i: usize) {
        self.mark_pos[i] = self.epoch_pos;
    }

    /// Kernel epilogue for the RHS: restores the all-zero invariant,
    /// either via the touched list or an O(m) fill after a dense stage.
    fn consume_rhs(&mut self, dense: bool) {
        if dense {
            self.rhs[..self.dim].fill(0.0);
        } else {
            for idx in 0..self.rhs_pattern.len() {
                let i = self.rhs_pattern[idx];
                self.rhs[i] = 0.0;
            }
            for idx in 0..self.touched.len() {
                let i = self.touched[idx];
                self.rhs[i] = 0.0;
            }
        }
        self.rhs_pattern.clear();
    }

    /// Copies the solution out as a dense `Vec`.
    #[cfg(test)]
    fn sol_vec(&self) -> Vec<f64> {
        self.sol[..self.dim].to_vec()
    }

    /// Copies the solution into a caller-owned buffer (no allocation once
    /// the buffer has reached the solve dimension).
    pub(crate) fn copy_sol_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(&self.sol[..self.dim]);
    }

    /// The lifetime solve counters `(hyper_ftrans, hyper_btrans,
    /// dense_fallbacks, kernel_allocs)` — monotone; per-solve deltas are the
    /// caller's business (see `SimplexCore::snapshot_stats`).
    pub(crate) fn counters(&self) -> (u64, u64, u64, u64) {
        (
            self.hyper_ftrans,
            self.hyper_btrans,
            self.dense_fallbacks,
            self.kernel_allocs,
        )
    }
}

/// One Forrest–Tomlin row eta: the elimination of the pending row recorded
/// as `row[target] ← row[target] − Σ mult·row[src]`.  Solves apply the same
/// combination to the right-hand side (`v[target] -= Σ mult·v[src]` in
/// ftran, the transpose in btran).
#[derive(Debug, Clone)]
struct RowEta {
    /// Constraint row the pending step pivots on.
    target: usize,
    /// Its `(source constraint row, multiplier)` pairs, all sources
    /// unchanged by this update (so the combination may be applied as one
    /// batch), as a range of [`LuFactor::eta_terms`].
    start: usize,
    end: usize,
}

/// A set of indices below a bound fixed at [`reset`](Self::reset), with
/// `O(log₆₄ n)` insert, remove and minimum, in storage reused across
/// resets.
#[derive(Debug, Clone, Default)]
struct IndexSet {
    /// `levels[0]` holds one bit per index; bit `i` of `levels[l + 1]` is
    /// set when word `i` of `levels[l]` is nonzero.  The last level is one
    /// word.
    levels: Vec<Vec<u64>>,
}

impl IndexSet {
    /// Empties the set and sizes it for indices below `n`.
    fn reset(&mut self, n: usize) {
        let mut words = n.div_ceil(64).max(1);
        let mut depth = 0;
        loop {
            if self.levels.len() == depth {
                self.levels.push(Vec::new());
            }
            let level = &mut self.levels[depth];
            level.clear();
            level.resize(words, 0);
            depth += 1;
            if words == 1 {
                break;
            }
            words = words.div_ceil(64);
        }
        self.levels.truncate(depth);
    }

    fn insert(&mut self, mut i: usize) {
        for level in &mut self.levels {
            let word = &mut level[i / 64];
            let was_empty = *word == 0;
            *word |= 1 << (i % 64);
            if !was_empty {
                return;
            }
            i /= 64;
        }
    }

    fn remove(&mut self, mut i: usize) {
        for level in &mut self.levels {
            let word = &mut level[i / 64];
            *word &= !(1 << (i % 64));
            if *word != 0 {
                return;
            }
            i /= 64;
        }
    }

    fn min(&self) -> Option<usize> {
        let mut i = 0;
        for level in self.levels.iter().rev() {
            let word = level[i];
            if word == 0 {
                return None;
            }
            i = i * 64 + word.trailing_zeros() as usize;
        }
        Some(i)
    }
}

/// Whether magnitude `va` fails the threshold-pivoting guard of a column
/// whose largest magnitude is `colmax`.
fn below_threshold(va: f64, colmax: f64) -> bool {
    va < LU_THRESHOLD * colmax || va < SINGULAR_TOL
}

/// The value of row `r` in a column sorted by row.
fn entry_at(col: &[(usize, f64)], r: usize) -> f64 {
    let idx = col
        .binary_search_by_key(&r, |&(i, _)| i)
        .expect("the pivot row has an entry in every column it lists");
    col[idx].1
}

/// A `(score, row, column, |value|)` pivot candidate.
type Candidate = (usize, usize, usize, f64);

/// The working state of [`LuFactor::refactorize`], kept between calls so a
/// refactorization allocates nothing once its buffers are sized: the active
/// submatrix with its cached pivot-candidate status, and the step lists
/// being built (swapped with the live ones when the basis turns out
/// nonsingular).
#[derive(Debug, Clone, Default)]
struct Elimination {
    /// Active column → its entries, sorted by row.
    cols: Vec<Vec<(usize, f64)>>,
    /// Active row → its active columns, unordered.
    rows: Vec<Vec<usize>>,
    /// Active column → its largest magnitude.
    colmax: Vec<f64>,
    /// Active columns holding a score-0 pivot candidate.
    fill_free: IndexSet,
    /// Active columns that are empty or whose largest magnitude is below
    /// `SINGULAR_TOL`.
    singular: IndexSet,
    /// Columns whose status the current step must re-derive (`dirty_mark`
    /// dedupes).
    dirty: Vec<usize>,
    dirty_mark: Vec<bool>,
    /// Row counts of the pivot column's rows before the current step.
    old_counts: Vec<usize>,
    /// Merge buffer for one column's elimination.
    merged: Vec<(usize, f64)>,
    /// `(row, entry order, value)` buffer for loading an unsorted column.
    sorted: Vec<(usize, usize, f64)>,
    pivot_row: Vec<usize>,
    pivot_col: Vec<usize>,
    upivot: Vec<f64>,
    lower: Vec<Vec<(usize, f64)>>,
    upper: Vec<Vec<(usize, f64)>>,
}

impl Elimination {
    /// Loads the basis columns as the active submatrix (repeated rows of a
    /// column summed in entry order) and classifies every column.
    fn load(&mut self, m: usize, basis: &[usize], store: &ColumnStore) {
        self.cols.resize_with(m, Vec::new);
        self.rows.resize_with(m, Vec::new);
        for list in &mut self.cols {
            list.clear();
        }
        for list in &mut self.rows {
            list.clear();
        }
        self.colmax.clear();
        self.colmax.resize(m, 0.0);
        self.dirty_mark.clear();
        self.dirty_mark.resize(m, false);
        self.fill_free.reset(m);
        self.singular.reset(m);
        self.pivot_row.clear();
        self.pivot_col.clear();
        self.upivot.clear();
        self.lower.resize_with(m, Vec::new);
        self.upper.resize_with(m, Vec::new);

        for (k, &c) in basis.iter().enumerate() {
            let col = &mut self.cols[k];
            col.extend(store.col(c).iter().copied().filter(|&(_, a)| a != 0.0));
            if !col.windows(2).all(|w| w[0].0 < w[1].0) {
                self.sorted.clear();
                self.sorted
                    .extend(col.iter().enumerate().map(|(s, &(r, a))| (r, s, a)));
                self.sorted.sort_unstable_by_key(|&(r, s, _)| (r, s));
                col.clear();
                for &(r, _, a) in &self.sorted {
                    match col.last_mut() {
                        Some(last) if last.0 == r => last.1 += a,
                        _ => col.push((r, a)),
                    }
                }
            }
            for &(r, _) in col.iter() {
                self.rows[r].push(k);
            }
        }
        for k in 0..m {
            self.classify(k);
        }
    }

    /// Re-derives column `k`'s cached largest magnitude and its membership
    /// in the fill-free and singular sets.  An entry scores 0 exactly when
    /// its column or its row holds nothing else.
    fn classify(&mut self, k: usize) {
        let col = &self.cols[k];
        let cc = col.len();
        let colmax = col.iter().fold(0.0f64, |acc, &(_, v)| acc.max(v.abs()));
        self.colmax[k] = colmax;
        let singular = cc == 0 || colmax < SINGULAR_TOL;
        let fill_free = !singular
            && col.iter().any(|&(r, v)| {
                !below_threshold(v.abs(), colmax) && (cc == 1 || self.rows[r].len() == 1)
            });
        if singular {
            self.singular.insert(k);
        } else {
            self.singular.remove(k);
        }
        if fill_free {
            self.fill_free.insert(k);
        } else {
            self.fill_free.remove(k);
        }
    }

    /// The pivot of this step as `(row, column)`, or `None` when the basis
    /// is singular (see the [module docs](self)).
    fn find_pivot(&self) -> Option<(usize, usize)> {
        let first_free = self.fill_free.min();
        if let Some(k) = self.singular.min() {
            if first_free.is_none_or(|f| k < f) {
                return None;
            }
        }
        let mut best = None;
        match first_free {
            Some(k) => self.scan(k, &mut best),
            // Nucleus step: no column is singular, so every active column
            // holds a candidate (retired columns are empty and offer none).
            None => {
                for k in 0..self.cols.len() {
                    self.scan(k, &mut best);
                }
            }
        }
        best.map(|(_, r, k, _)| (r, k))
    }

    /// Offers column `k`'s candidates to `best`, by row: a lower score
    /// wins, then a strictly larger magnitude.
    fn scan(&self, k: usize, best: &mut Option<Candidate>) {
        let col = &self.cols[k];
        let (cc, colmax) = (col.len(), self.colmax[k]);
        for &(r, v) in col {
            let va = v.abs();
            if below_threshold(va, colmax) {
                continue;
            }
            let score = (self.rows[r].len() - 1) * (cc - 1);
            let better = match *best {
                None => true,
                Some((bs, _, _, bv)) => score < bs || (score == bs && va > bv),
            };
            if better {
                *best = Some((score, r, k, va));
            }
        }
    }

    /// Step `t`: records the pivot `(pr, pk)` with its U row and L
    /// multipliers, eliminates it from the active submatrix, and
    /// re-derives the status of the columns whose candidates it changed.
    fn eliminate(&mut self, t: usize, pr: usize, pk: usize) {
        let Elimination {
            cols,
            rows,
            fill_free,
            singular,
            dirty,
            dirty_mark,
            old_counts,
            merged,
            lower,
            upper,
            ..
        } = self;
        let pivot = entry_at(&cols[pk], pr);
        let urow = &mut upper[t];
        urow.clear();
        rows[pr].sort_unstable();
        for &j in &rows[pr] {
            if j != pk {
                urow.push((j, entry_at(&cols[j], pr)));
            }
        }
        let lcol = &mut lower[t];
        lcol.clear();
        for &(i, v) in &cols[pk] {
            if i != pr {
                lcol.push((i, v / pivot));
            }
        }
        old_counts.clear();
        old_counts.extend(lcol.iter().map(|&(i, _)| rows[i].len()));

        // col_j ← col_j − urj·lcol for every column of the pivot row, as a
        // merge of two row-sorted lists that also drops row `pr`.
        for &(j, urj) in urow.iter() {
            merged.clear();
            let mut pending = lcol.iter().peekable();
            for &(r, v) in &cols[j] {
                while let Some(&(i, l)) = pending.next_if(|&&(i, _)| i < r) {
                    fill(merged, &mut rows[i], i, j, 0.0 - l * urj);
                }
                if r == pr {
                    continue;
                }
                match pending.next_if(|&&(i, _)| i == r) {
                    Some(&(_, l)) => {
                        let e = v - l * urj;
                        if e.abs() < DROP_TOL {
                            remove_col(&mut rows[r], j);
                        } else {
                            merged.push((r, e));
                        }
                    }
                    None => merged.push((r, v)),
                }
            }
            for &(i, l) in pending {
                fill(merged, &mut rows[i], i, j, 0.0 - l * urj);
            }
            std::mem::swap(&mut cols[j], merged);
        }

        // Retire the pivot row and column.
        for &(i, _) in lcol.iter() {
            remove_col(&mut rows[i], pk);
        }
        rows[pr].clear();
        cols[pk].clear();
        fill_free.remove(pk);
        singular.remove(pk);

        let mut mark = |j: usize| {
            if !dirty_mark[j] {
                dirty_mark[j] = true;
                dirty.push(j);
            }
        };
        for &(j, _) in urow.iter() {
            mark(j);
        }
        for (&(i, _), &old) in lcol.iter().zip(old_counts.iter()) {
            if (old == 1) != (rows[i].len() == 1) {
                for &j in &rows[i] {
                    mark(j);
                }
            }
        }
        while let Some(j) = self.dirty.pop() {
            self.dirty_mark[j] = false;
            self.classify(j);
        }
        self.pivot_row.push(pr);
        self.pivot_col.push(pk);
        self.upivot.push(pivot);
    }
}

/// Appends fill entry `(i, e)` to column `j`'s merge unless it cancelled
/// below `DROP_TOL`.
fn fill(merged: &mut Vec<(usize, f64)>, row: &mut Vec<usize>, i: usize, j: usize, e: f64) {
    if e.abs() < DROP_TOL {
        return;
    }
    merged.push((i, e));
    row.push(j);
}

/// Removes column `j` from an active row's column set.
fn remove_col(row: &mut Vec<usize>, j: usize) {
    if let Some(idx) = row.iter().position(|&c| c == j) {
        row.swap_remove(idx);
    }
}

/// Where a basis position stands in an update's dry-run elimination.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Pending {
    /// Outside the pending row and not queued.
    #[default]
    Absent,
    /// In the pending row, queued at its step's elimination position.
    Queued,
    /// Queued, but its entry cancelled to at most `DROP_TOL` (a later row
    /// operation may revive it from 0).
    Dropped,
}

/// Scratch of [`LuFactor::update`], kept between calls so an update
/// allocates nothing once its buffers are sized.
#[derive(Debug, Clone, Default)]
struct UpdateScratch {
    /// The spike `U·d` by constraint row; all-zero between calls.
    spike: Vec<f64>,
    /// The steps whose spike entry may be nonzero, extended before the
    /// commit by the steps whose U row may hold the replaced column.
    steps: Vec<usize>,
    /// Epoch-tagged marks over steps, deduping `steps`.
    step_mark: Vec<u32>,
    epoch: u32,
    /// The pending row by basis position, with each position's state.
    pending: Vec<f64>,
    state: Vec<Pending>,
    /// Queued positions keyed `usize::MAX − elimination position`, so the
    /// max-heap pops them in elimination order.
    heap: Vec<(usize, usize)>,
}

impl UpdateScratch {
    /// Sizes the buffers for dimension `m` and starts a new mark epoch.
    fn begin(&mut self, m: usize) {
        if self.spike.len() < m {
            self.spike.resize(m, 0.0);
            self.step_mark.resize(m, 0);
            self.pending.resize(m, 0.0);
            self.state.resize(m, Pending::Absent);
        }
        if self.epoch == u32::MAX {
            self.step_mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.steps.clear();
    }

    /// Lists step `t` in `steps` unless it is already there.
    fn add_step(&mut self, t: usize) {
        if self.step_mark[t] != self.epoch {
            self.step_mark[t] = self.epoch;
            self.steps.push(t);
        }
    }
}

/// Markowitz-ordered sparse LU with Forrest–Tomlin updates (see the
/// [module docs](self)).
///
/// The elimination is stored in "elimination form": step `t` pivots on
/// constraint row `pivot_row[t]` and basis position `pivot_col[t]`, with the
/// step's L multipliers (`lower[t]`, by row) and the pivot row's surviving U
/// entries (`upper[t]`, by basis position, pivot excluded) kept sparse.
///
/// The **L part is immutable** between refactorizations and is always
/// applied in original step order.  The **U part is mutable**: a
/// Forrest–Tomlin [`update`](LuFactor::update) replaces one column of
/// `U` in place and moves its step to the end of [`order`](Self::order),
/// appending one [`RowEta`] that keeps `U` triangular *with respect to that
/// order*.  The factored operator is therefore
/// `B⁻¹ = U⁻¹ · R_K···R_1 · L⁻¹` with `R_i` the row etas in creation order.
#[derive(Debug, Clone, Default)]
pub(crate) struct LuFactor {
    m: usize,
    pivot_row: Vec<usize>,
    pivot_col: Vec<usize>,
    upivot: Vec<f64>,
    lower: Vec<Vec<(usize, f64)>>,
    upper: Vec<Vec<(usize, f64)>>,
    /// Step indices in current elimination order (updates move steps to the
    /// end; `0..m` after a refactorization).
    order: Vec<usize>,
    /// Inverse of `order`: step index → position in `order`.
    order_pos: Vec<usize>,
    /// Basis position → step index (inverse of `pivot_col`).
    col_step: Vec<usize>,
    /// Constraint row → step index (inverse of `pivot_row`), for seeding
    /// the hyper-sparse worklists from an RHS support.
    row_step: Vec<usize>,
    /// Row → steps whose `lower` list touches that row (Lᵀ adjacency for
    /// the hyper-sparse btran).  L is immutable between refactorizations,
    /// so this is exact.
    ltrans: Vec<Vec<usize>>,
    /// Basis position → steps whose `upper` list carries an entry at that
    /// position (Uᵀ adjacency for the hyper-sparse ftran).  Maintained
    /// through Forrest–Tomlin updates as a **superset** — stale steps are
    /// sound because the numeric phase reads exact values — and rebuilt
    /// exactly at each refactorization.
    utrans: Vec<Vec<usize>>,
    /// Forrest–Tomlin row etas, in creation order.
    row_etas: Vec<RowEta>,
    /// The row etas' terms, back to back.
    eta_terms: Vec<(usize, f64)>,
    /// Lifetime count of `U` entries retired by updates (see
    /// [`compactions`](LuFactor::compactions)).
    compactions: usize,
    /// Working state of `refactorize`.
    work: Elimination,
    /// Scratch of `update`.
    scratch: UpdateScratch,
}

impl LuFactor {
    /// Solves `B·x = b` **in place**: the caller loads `b` by row into `ws`
    /// via [`KernelWs::load_dense`]/[`load_sparse`](KernelWs::load_sparse),
    /// and on return `ws.sol` holds `x` by basis position, with
    /// `ws.pattern` listing a superset of its nonzeros when `ws.sparse`.
    /// The RHS is consumed (`ws.rhs` returns to all-zero).  This is the
    /// hot-path kernel: it allocates nothing once `ws` is sized.
    ///
    /// `hyper` names the path, which the solve runs start to finish: the
    /// hyper-sparse traversal or the dense scan (the simplex core's rule
    /// picks it).  Both paths compute every entry with the same operations
    /// in the same order, so the result does not depend on the path.
    pub(crate) fn ftran_ws(&self, ws: &mut KernelWs, hyper: bool) {
        let m = self.m;
        ws.begin(m);

        // --- L stage + row etas on v = ws.rhs (row-indexed) ---
        // Gilbert–Peierls: steps reachable from the RHS support, popped in
        // increasing step order (pushes are monotone: applying step t only
        // fills rows pivoting later).
        if hyper {
            for idx in 0..ws.rhs_pattern.len() {
                let r = ws.rhs_pattern[idx];
                if !ws.row_marked(r) {
                    ws.mark_row_on(r);
                    ws.touched.push(r);
                    let t = self.row_step[r];
                    heap_push(&mut ws.heap, (usize::MAX - t, t));
                }
            }
            while let Some((_, t)) = heap_pop(&mut ws.heap) {
                let vr = ws.rhs[self.pivot_row[t]];
                if vr != 0.0 {
                    for &(i, l) in &self.lower[t] {
                        ws.rhs[i] -= l * vr;
                        if !ws.row_marked(i) {
                            ws.mark_row_on(i);
                            ws.touched.push(i);
                            let ti = self.row_step[i];
                            heap_push(&mut ws.heap, (usize::MAX - ti, ti));
                        }
                    }
                }
            }
        } else {
            for t in 0..m {
                let vr = ws.rhs[self.pivot_row[t]];
                if vr != 0.0 {
                    for &(i, l) in &self.lower[t] {
                        ws.rhs[i] -= l * vr;
                    }
                }
            }
        }
        // Forrest–Tomlin row etas in creation order; on the sparse path an
        // eta whose target and sources are all outside the support is a
        // no-op and newly filled targets join the support.
        for eta in &self.row_etas {
            let mut s = ws.rhs[eta.target];
            let mut live = s != 0.0;
            for &(src, mult) in &self.eta_terms[eta.start..eta.end] {
                let vs = ws.rhs[src];
                if vs != 0.0 {
                    live = true;
                    s -= mult * vs;
                }
            }
            if live {
                ws.rhs[eta.target] = s;
                if hyper && !ws.row_marked(eta.target) {
                    ws.mark_row_on(eta.target);
                    ws.touched.push(eta.target);
                }
            }
        }

        // --- U back substitution into x = ws.sol (position-indexed) ---
        // Hyper path: steps popped in decreasing `order` position (every
        // dependency of a step sits later in the order, so it pops first);
        // propagation follows `utrans`, whose stale entries are harmless.
        let mut nnz = 0;
        if hyper {
            ws.bump_pos_epoch();
            for idx in 0..ws.touched.len() {
                let r = ws.touched[idx];
                if ws.rhs[r] != 0.0 {
                    let t = self.row_step[r];
                    if !ws.pos_marked(t) {
                        ws.mark_pos_on(t);
                        heap_push(&mut ws.heap, (self.order_pos[t], t));
                    }
                }
            }
            while let Some((pos, t)) = heap_pop(&mut ws.heap) {
                let mut s = ws.rhs[self.pivot_row[t]];
                for &(j, u) in &self.upper[t] {
                    s -= u * ws.sol[j];
                }
                let x = s / self.upivot[t];
                let j0 = self.pivot_col[t];
                ws.sol[j0] = x;
                ws.pattern.push(j0);
                if x != 0.0 {
                    nnz += 1;
                    for &t2 in &self.utrans[j0] {
                        if self.order_pos[t2] < pos && !ws.pos_marked(t2) {
                            ws.mark_pos_on(t2);
                            heap_push(&mut ws.heap, (self.order_pos[t2], t2));
                        }
                    }
                }
            }
            ws.hyper_ftrans += 1;
        } else {
            for &t in self.order.iter().rev() {
                let mut s = ws.rhs[self.pivot_row[t]];
                for &(j, u) in &self.upper[t] {
                    s -= u * ws.sol[j];
                }
                let x = s / self.upivot[t];
                ws.sol[self.pivot_col[t]] = x;
                nnz += usize::from(x != 0.0);
            }
            ws.dense_fallbacks += 1;
        }
        ws.nnz = nnz;
        ws.sparse = hyper;
        ws.consume_rhs(!hyper);
    }

    /// Solves `Bᵀ·y = c` **in place**: `c` by basis position loaded into
    /// `ws`, `y` by row in `ws.sol` on return (same contract as
    /// [`ftran_ws`](Self::ftran_ws)).
    pub(crate) fn btran_ws(&self, ws: &mut KernelWs, hyper: bool) {
        self.btran(ws, hyper, false);
    }

    /// Row `p` of `B⁻¹` (row-indexed) into `ws.sol` — needed once per pivot
    /// for the devex weight and dual-price updates: a unit-rhs btran.
    /// Its support is listed on both paths: a dense result leaves
    /// `ws.sparse` set, with `ws.pattern` listing every entry that is not
    /// `+0.0` in ascending row order.
    pub(crate) fn inverse_row_ws(&self, p: usize, ws: &mut KernelWs, hyper: bool) {
        ws.load_unit(p, self.m);
        self.btran(ws, hyper, true);
    }

    /// [`btran_ws`](Self::btran_ws), listing a dense result's support when
    /// `list_support` is set.
    fn btran(&self, ws: &mut KernelWs, hyper: bool, list_support: bool) {
        let m = self.m;
        ws.begin(m);

        // --- Uᵀ stage: v = ws.rhs (position-indexed), w = ws.sol (rows).
        // Forward over `order`; hyper path pops steps in increasing order
        // position (fill-in from `upper` lands at strictly later
        // positions, so pushes stay monotone).  `upper` is exact, so no
        // staleness care is needed here.
        if hyper {
            for idx in 0..ws.rhs_pattern.len() {
                let j = ws.rhs_pattern[idx];
                if !ws.pos_marked(j) {
                    ws.mark_pos_on(j);
                    ws.touched.push(j);
                    let t = self.col_step[j];
                    heap_push(&mut ws.heap, (usize::MAX - self.order_pos[t], t));
                }
            }
            while let Some((_, t)) = heap_pop(&mut ws.heap) {
                let wt = ws.rhs[self.pivot_col[t]] / self.upivot[t];
                if wt != 0.0 {
                    let r = self.pivot_row[t];
                    ws.sol[r] = wt;
                    ws.mark_row_on(r);
                    ws.pattern.push(r);
                    for &(j, u) in &self.upper[t] {
                        ws.rhs[j] -= u * wt;
                        if !ws.pos_marked(j) {
                            ws.mark_pos_on(j);
                            ws.touched.push(j);
                            let t2 = self.col_step[j];
                            heap_push(&mut ws.heap, (usize::MAX - self.order_pos[t2], t2));
                        }
                    }
                }
            }
        } else {
            for &t in self.order.iter() {
                let wt = ws.rhs[self.pivot_col[t]] / self.upivot[t];
                ws.sol[self.pivot_row[t]] = wt;
                if wt != 0.0 {
                    for &(j, u) in &self.upper[t] {
                        ws.rhs[j] -= u * wt;
                    }
                }
            }
        }
        ws.consume_rhs(!hyper);

        // --- Transposed row etas, newest first: O(1) skip on a zero
        // target; fill joins the tracked support on the hyper path.
        for eta in self.row_etas.iter().rev() {
            let wt = ws.sol[eta.target];
            if wt != 0.0 {
                for &(src, mult) in &self.eta_terms[eta.start..eta.end] {
                    ws.sol[src] -= mult * wt;
                    if hyper && !ws.row_marked(src) {
                        ws.mark_row_on(src);
                        ws.pattern.push(src);
                    }
                }
            }
        }

        // --- Lᵀ stage on w = ws.sol.  A step finalizes only its own
        // pivot row; readers of a nonzero row are its `ltrans` steps, all
        // strictly earlier, so a max-first pop order is monotone.  Rows
        // outside the worklist keep their (already final) values.
        if hyper {
            ws.bump_pos_epoch();
            for idx in 0..ws.pattern.len() {
                let r = ws.pattern[idx];
                for &t in &self.ltrans[r] {
                    if !ws.pos_marked(t) {
                        ws.mark_pos_on(t);
                        heap_push(&mut ws.heap, (t, t));
                    }
                }
            }
            while let Some((_, t)) = heap_pop(&mut ws.heap) {
                let r = self.pivot_row[t];
                let mut s = ws.sol[r];
                for &(i, l) in &self.lower[t] {
                    s -= l * ws.sol[i];
                }
                ws.sol[r] = s;
                if s != 0.0 && !ws.row_marked(r) {
                    ws.mark_row_on(r);
                    ws.pattern.push(r);
                    for &t2 in &self.ltrans[r] {
                        if !ws.pos_marked(t2) {
                            ws.mark_pos_on(t2);
                            heap_push(&mut ws.heap, (t2, t2));
                        }
                    }
                }
            }
        } else {
            for t in (0..m).rev() {
                let mut s = ws.sol[self.pivot_row[t]];
                for &(i, l) in &self.lower[t] {
                    s -= l * ws.sol[i];
                }
                ws.sol[self.pivot_row[t]] = s;
            }
        }
        ws.sparse = hyper;
        if hyper {
            ws.hyper_btrans += 1;
            ws.nnz = ws.pattern.len();
        } else if list_support {
            ws.dense_fallbacks += 1;
            ws.pattern.clear();
            let mut nnz = 0;
            for r in 0..m {
                let x = ws.sol[r];
                if x.to_bits() != 0 {
                    ws.pattern.push(r);
                    nnz += usize::from(x != 0.0);
                }
            }
            ws.nnz = nnz;
            ws.sparse = true;
        } else {
            ws.dense_fallbacks += 1;
            ws.nnz = ws.sol[..m].iter().filter(|&&x| x != 0.0).count();
        }
    }

    /// Replaces the basic column at position `p`; `d = B⁻¹A_q` is the
    /// ftran'd entering column.  On `Err` the factorization is unchanged
    /// and the caller must refactorize before the next solve.
    pub(crate) fn update(&mut self, p: usize, d: &[f64]) -> Result<(), FactorError> {
        let dp = d[p];
        if dp.abs() < PIVOT_EPS || !dp.is_finite() {
            return Err(FactorError::UnstablePivot);
        }
        if self.row_etas.len() >= ETA_CAP {
            return Err(FactorError::NeedsRefactorization);
        }
        let spike_max = self.load_spike(&d[..self.m]);
        let result = self.replace_column(p, spike_max);
        for &t in &self.scratch.steps {
            self.scratch.spike[self.pivot_row[t]] = 0.0;
        }
        result
    }

    /// The spike `v = U·d` by constraint row, into `scratch.spike`, and its
    /// largest magnitude.  Since `d = B⁻¹a_q` and `B = L·R⁻¹·U`, this equals
    /// `R·L⁻¹·a_q` — exactly the column that must replace column `p` of U
    /// for the invariant to keep holding.  Only the steps `d`'s support
    /// reaches (the support's own steps and their `utrans` readers) are
    /// summed, into `scratch.steps`; every other step's sum is an exact
    /// zero, which the drop below turns into `0.0` anyway.
    fn load_spike(&mut self, d: &[f64]) -> f64 {
        let scratch = &mut self.scratch;
        scratch.begin(self.m);
        for (j, &dj) in d.iter().enumerate() {
            if dj != 0.0 {
                scratch.add_step(self.col_step[j]);
                for &t in &self.utrans[j] {
                    scratch.add_step(t);
                }
            }
        }
        let mut spike_max = 0.0f64;
        for &t in &scratch.steps {
            let mut s = self.upivot[t] * d[self.pivot_col[t]];
            for &(j, u) in &self.upper[t] {
                s += u * d[j];
            }
            if s.abs() <= DROP_TOL {
                s = 0.0;
            }
            scratch.spike[self.pivot_row[t]] = s;
            spike_max = spike_max.max(s.abs());
        }
        spike_max
    }

    /// The Forrest–Tomlin replacement of column `p` by the loaded spike.
    fn replace_column(&mut self, p: usize, spike_max: f64) -> Result<(), FactorError> {
        let m = self.m;
        let t_p = self.col_step[p];
        let r_p = self.pivot_row[t_p];
        let pos_p = self.order_pos[t_p];
        let scratch = &mut self.scratch;

        // With column `p` replaced and step `t_p` moved to the end of the
        // elimination order, only the old row of step `t_p` breaks
        // triangularity: its surviving entries now sit below the diagonal.
        // Dry-run its elimination (nothing mutated yet, so any decline
        // leaves the factorization untouched), accumulating the row eta.
        // Every entry of the pending row sits at a later position than the
        // step that put it there, so popping them in elimination order
        // visits exactly the steps a walk over every later position would
        // act on, in the same order.
        let queue = |scratch: &mut UpdateScratch, j: usize| {
            scratch.state[j] = Pending::Queued;
            let key = usize::MAX - self.order_pos[self.col_step[j]];
            heap_push(&mut scratch.heap, (key, j));
        };
        scratch.heap.clear();
        for &(j, u) in &self.upper[t_p] {
            if j != p {
                scratch.pending[j] = u;
                queue(scratch, j);
            }
        }
        let mut pend_p = scratch.spike[r_p];
        let start = self.eta_terms.len();
        while let Some((_, j)) = heap_pop(&mut scratch.heap) {
            let state = std::mem::take(&mut scratch.state[j]);
            let u = scratch.pending[j];
            if state == Pending::Dropped || u.abs() <= DROP_TOL {
                continue;
            }
            let s = self.col_step[j];
            let mult = u / self.upivot[s];
            self.eta_terms.push((self.pivot_row[s], mult));
            if self.eta_terms.len() - start > FT_FILL_CAP {
                while let Some((_, j)) = heap_pop(&mut scratch.heap) {
                    scratch.state[j] = Pending::Absent;
                }
                self.eta_terms.truncate(start);
                return Err(FactorError::NeedsRefactorization);
            }
            for &(j2, u2) in &self.upper[s] {
                if j2 == p {
                    continue;
                }
                match scratch.state[j2] {
                    Pending::Absent => {
                        scratch.pending[j2] = 0.0;
                        queue(scratch, j2);
                    }
                    Pending::Dropped => {
                        scratch.pending[j2] = 0.0;
                        scratch.state[j2] = Pending::Queued;
                    }
                    Pending::Queued => {}
                }
                let e = &mut scratch.pending[j2];
                *e -= mult * u2;
                if e.abs() <= DROP_TOL {
                    scratch.state[j2] = Pending::Dropped;
                }
            }
            // Row `pivot_row[s]`'s entry in the replaced column is the
            // spike value, kept out of the pending row and tracked
            // separately.
            pend_p -= mult * scratch.spike[self.pivot_row[s]];
        }
        let new_diag = pend_p;
        if new_diag.abs() < FT_STAB_TOL * spike_max || new_diag.abs() < SINGULAR_TOL {
            self.eta_terms.truncate(start);
            return Err(FactorError::UnstablePivot);
        }

        // Commit.  Replace column `p` of U with the spike (retired entries
        // are the growth a product-form eta file would have kept), visiting
        // in ascending order the steps whose U row may hold column `p` (a
        // superset: `utrans[p]`) or gains a spike entry.  The Uᵀ adjacency
        // for column `p` is rebuilt exactly here; removals elsewhere leave
        // stale `utrans` entries, which the hyper-sparse solves tolerate as
        // a superset.
        for &t in &self.utrans[p] {
            scratch.add_step(t);
        }
        scratch.steps.sort_unstable();
        self.utrans[p].clear();
        for &t in &scratch.steps {
            if let Some(idx) = self.upper[t].iter().position(|&(j, _)| j == p) {
                self.upper[t].swap_remove(idx);
                self.compactions += 1;
            }
            if t != t_p {
                let sv = scratch.spike[self.pivot_row[t]];
                if sv != 0.0 {
                    self.upper[t].push((p, sv));
                    self.utrans[p].push(t);
                }
            }
        }
        // ...retire the eliminated row, move its step to the end of the
        // elimination order, and record the row eta for solves.
        self.compactions += self.upper[t_p].len();
        self.upper[t_p].clear();
        self.upivot[t_p] = new_diag;
        self.order.remove(pos_p);
        self.order.push(t_p);
        for pos in pos_p..m {
            self.order_pos[self.order[pos]] = pos;
        }
        if self.eta_terms.len() > start {
            self.row_etas.push(RowEta {
                target: r_p,
                start,
                end: self.eta_terms.len(),
            });
        }
        Ok(())
    }

    /// Rebuilds from the pristine basis columns; returns `false` (leaving
    /// the previous factorization in place) when the basis is numerically
    /// singular.  The pivots follow the Markowitz rule of the
    /// [module docs](self).
    pub(crate) fn refactorize(&mut self, m: usize, basis: &[usize], cols: &ColumnStore) -> bool {
        let work = &mut self.work;
        work.load(m, basis, cols);
        for t in 0..m {
            let Some((pr, pk)) = work.find_pivot() else {
                return false; // structurally or numerically singular
            };
            work.eliminate(t, pr, pk);
        }
        std::mem::swap(&mut self.pivot_row, &mut work.pivot_row);
        std::mem::swap(&mut self.pivot_col, &mut work.pivot_col);
        std::mem::swap(&mut self.upivot, &mut work.upivot);
        std::mem::swap(&mut self.lower, &mut work.lower);
        std::mem::swap(&mut self.upper, &mut work.upper);

        self.m = m;
        self.col_step.resize(m, 0);
        self.row_step.resize(m, 0);
        for (t, &k) in self.pivot_col.iter().enumerate() {
            self.col_step[k] = t;
        }
        for (t, &r) in self.pivot_row.iter().enumerate() {
            self.row_step[r] = t;
        }
        // Transpose adjacencies for the hyper-sparse solves: exact at
        // refactorization time (updates keep `utrans` a sound superset).
        for (trans, steps) in [
            (&mut self.ltrans, &self.lower),
            (&mut self.utrans, &self.upper),
        ] {
            trans.resize_with(m, Vec::new);
            for list in trans.iter_mut() {
                list.clear();
            }
            for (t, entries) in steps.iter().enumerate() {
                for &(i, _) in entries {
                    trans[i].push(t);
                }
            }
        }
        self.order.clear();
        self.order.extend(0..m);
        self.order_pos.clear();
        self.order_pos.extend(0..m);
        self.row_etas.clear();
        self.eta_terms.clear();
        // `compactions` is a lifetime counter and deliberately survives.
        true
    }

    /// Live row etas accumulated since the last refactorization.
    pub(crate) fn eta_count(&self) -> usize {
        self.row_etas.len()
    }

    /// Cumulative count of `U` entries retired in place by Forrest–Tomlin
    /// column replacements over the factorization's lifetime — the growth a
    /// product-form eta file would have accumulated instead.  Monotone; the
    /// core reads deltas into [`SolveStats::eta_compactions`](crate::SolveStats).
    pub(crate) fn compactions(&self) -> usize {
        self.compactions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a ColumnStore holding the columns of a small matrix given
    /// column-major.
    fn store_from(columns: &[&[(usize, f64)]]) -> ColumnStore {
        let mut cols = ColumnStore::default();
        for entries in columns {
            let j = cols.push_col();
            for &(r, v) in *entries {
                cols.push_entry(j, r, v);
            }
        }
        cols
    }

    /// Column `j` of the store as a dense vector of length `m`.
    fn dense_col(cols: &ColumnStore, j: usize, m: usize) -> Vec<f64> {
        let mut a = vec![0.0; m];
        for &(r, v) in cols.col(j) {
            a[r] += v;
        }
        a
    }

    fn ftran(lu: &LuFactor, b: &[f64]) -> Vec<f64> {
        let mut ws = KernelWs::default();
        ws.load_dense(b);
        lu.ftran_ws(&mut ws, true);
        ws.sol_vec()
    }

    fn ftran_sparse(lu: &LuFactor, entries: &[(usize, f64)]) -> Vec<f64> {
        let mut ws = KernelWs::default();
        ws.load_sparse(entries, lu.m);
        lu.ftran_ws(&mut ws, true);
        ws.sol_vec()
    }

    fn btran(lu: &LuFactor, c: &[f64]) -> Vec<f64> {
        let mut ws = KernelWs::default();
        ws.load_dense(c);
        lu.btran_ws(&mut ws, true);
        ws.sol_vec()
    }

    fn assert_vec_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-9, "{a:?} != {b:?}");
        }
    }

    /// The largest residuals `‖B·ftran(a) − a‖∞` and `‖Bᵀ·btran(a) − a‖∞`
    /// of `probe` against the pristine columns of `basis` — the check that
    /// pins the factorization to the matrix it claims to factor.
    fn residuals(lu: &LuFactor, cols: &ColumnStore, basis: &[usize], probe: &[f64]) -> (f64, f64) {
        let m = basis.len();
        let x = ftran(lu, probe);
        let mut bx = vec![0.0; m];
        for (k, &col) in basis.iter().enumerate() {
            for &(r, a) in cols.col(col) {
                bx[r] += a * x[k];
            }
        }
        let y = btran(lu, probe);
        let bty: Vec<f64> = basis
            .iter()
            .map(|&col| cols.col(col).iter().map(|&(r, a)| a * y[r]).sum())
            .collect();
        let max_gap = |v: &[f64]| -> f64 {
            v.iter()
                .zip(probe)
                .fold(0.0, |acc, (a, b)| acc.max((a - b).abs()))
        };
        (max_gap(&bx), max_gap(&bty))
    }

    fn assert_small_residuals(lu: &LuFactor, cols: &ColumnStore, basis: &[usize], probe: &[f64]) {
        let (primal, dual) = residuals(lu, cols, basis, probe);
        assert!(
            primal <= 1e-9 && dual <= 1e-9,
            "residuals ‖B·ftran − a‖ = {primal:e}, ‖Bᵀ·btran − c‖ = {dual:e}"
        );
    }

    /// A 3×3 basis factored, then updated: ftran and btran must solve the
    /// pristine basis columns to 1e-9 before and after the update.
    #[test]
    fn lu_solves_leave_small_residuals_on_a_small_basis() {
        // B = [[2,0,1],[0,1,0],[1,0,1]] (columns listed column-major).
        let cols = store_from(&[
            &[(0, 2.0), (2, 1.0)],
            &[(1, 1.0)],
            &[(0, 1.0), (2, 1.0)],
            // A spare column to pivot in: A_3 = (1, 1, 0).
            &[(0, 1.0), (1, 1.0)],
        ]);
        let mut basis = [0usize, 1, 2];
        let mut lu = LuFactor::default();
        assert!(lu.refactorize(3, &basis, &cols));
        assert_eq!(lu.eta_count(), 0);
        let probes = [[3.0, -1.0, 2.0], [1.0, 2.0, -0.5]];
        for probe in &probes {
            assert_small_residuals(&lu, &cols, &basis, probe);
        }

        // Replace basis position 0 by the spare column and check again.
        let d = ftran(&lu, &dense_col(&cols, 3, 3));
        lu.update(0, &d).unwrap();
        basis[0] = 3;
        // A Forrest–Tomlin update keeps U compact: at most one row eta.
        assert!(lu.eta_count() <= 1);
        for probe in &probes {
            assert_small_residuals(&lu, &cols, &basis, probe);
        }
    }

    /// A 5×5 circulant basis driven through a pivot sequence: after every
    /// Forrest–Tomlin update the factorization must solve the current
    /// basis to 1e-9, and at the end agree with a from-scratch
    /// refactorization of the final basis.
    #[test]
    fn ft_updates_match_refactorize_from_scratch() {
        // Basis columns B_k = e_k + 0.5·e_{k+1 mod 5}; spares 5..9 mix rows.
        let cols = store_from(&[
            &[(0, 1.0), (1, 0.5)],
            &[(1, 1.0), (2, 0.5)],
            &[(2, 1.0), (3, 0.5)],
            &[(3, 1.0), (4, 0.5)],
            &[(4, 1.0), (0, 0.5)],
            &[(0, 1.0), (2, 1.0), (4, -1.0)],
            &[(1, 2.0), (3, -0.5)],
            &[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0)],
            &[(2, -1.0), (4, 2.0)],
        ]);
        let mut basis = vec![0usize, 1, 2, 3, 4];
        let mut lu = LuFactor::default();
        assert!(lu.refactorize(5, &basis, &cols));

        let probes: [[f64; 5]; 2] = [[1.0, -2.0, 0.5, 3.0, -1.0], [0.0, 1.0, 0.0, -1.0, 2.0]];
        for (pos, col) in [(0usize, 5usize), (2, 6), (4, 7), (1, 8)] {
            let d = ftran(&lu, &dense_col(&cols, col, 5));
            lu.update(pos, &d).unwrap();
            basis[pos] = col;
            for probe in &probes {
                assert_small_residuals(&lu, &cols, &basis, probe);
            }
        }
        // The eta file stays far below one eta per pivot's worth of fill,
        // and the retired-entry counter has seen real compaction.
        assert!(lu.eta_count() <= 4);
        assert!(lu.compactions() > 0);

        // Refactorize a fresh factorization on the final basis: the updated
        // one must solve identically (within roundoff).
        let mut fresh = LuFactor::default();
        assert!(fresh.refactorize(5, &basis, &cols));
        assert_eq!(fresh.eta_count(), 0);
        for probe in &probes {
            assert_vec_close(&ftran(&fresh, probe), &ftran(&lu, probe));
            assert_vec_close(&btran(&fresh, probe), &btran(&lu, probe));
        }
        // Refactorizing the live factorization clears its eta file but not
        // the lifetime compaction counter.
        let before = lu.compactions();
        assert!(lu.refactorize(5, &basis, &cols));
        assert_eq!(lu.eta_count(), 0);
        assert_eq!(lu.compactions(), before);
    }

    proptest::proptest! {
        /// Random pivot sequences: a diagonally dominant basis driven through
        /// arbitrary Forrest–Tomlin updates (refactorizing whenever an update
        /// declines, exactly as the simplex core does) must solve the current
        /// basis to 1e-9 after every pivot and agree with a from-scratch
        /// refactorization of the final basis at the end.
        #[test]
        fn prop_ft_updates_match_refactorize_after_random_pivots(
            m in 3usize..7,
            off in proptest::collection::vec((-0.45f64..0.45, -0.45f64..0.45), 12..13),
            pivots in proptest::collection::vec((0usize..6, 0usize..12), 1..10),
        ) {
            // Base columns B_k = (2+a)·e_k + b·e_{k+1 mod m}; spare pool of
            // 12 columns with the same shape shifted, so every replacement
            // keeps the basis comfortably nonsingular.
            let mut cols = ColumnStore::default();
            for k in 0..m {
                let (a, b) = off[k % off.len()];
                let j = cols.push_col();
                cols.push_entry(j, k, 2.0 + a);
                cols.push_entry(j, (k + 1) % m, b);
            }
            for (s, &(a, b)) in off.iter().enumerate() {
                let j = cols.push_col();
                cols.push_entry(j, s % m, 2.5 + a);
                cols.push_entry(j, (s + 2) % m, 0.5 + b);
            }
            let mut basis: Vec<usize> = (0..m).collect();
            let mut lu = LuFactor::default();
            proptest::prop_assert!(lu.refactorize(m, &basis, &cols));

            let probe: Vec<f64> = (0..m).map(|i| 1.0 - 0.5 * i as f64).collect();
            for &(pos, spare) in &pivots {
                let (pos, col) = (pos % m, m + spare);
                let a = dense_col(&cols, col, m);
                // Mirror the solver contract: a declined update refactorizes
                // on the *old* basis and retries the pivot from pristine
                // factors.
                if lu.update(pos, &ftran(&lu, &a)).is_err() {
                    proptest::prop_assert!(lu.refactorize(m, &basis, &cols));
                    if lu.update(pos, &ftran(&lu, &a)).is_err() {
                        continue; // genuinely unstable pivot: skip it
                    }
                }
                basis[pos] = col;
                let (primal, dual) = residuals(&lu, &cols, &basis, &probe);
                proptest::prop_assert!(primal <= 1e-9 && dual <= 1e-9, "{primal:e} {dual:e}");
            }

            let mut fresh = LuFactor::default();
            proptest::prop_assert!(fresh.refactorize(m, &basis, &cols));
            proptest::prop_assert_eq!(fresh.eta_count(), 0);
            for (x, y) in ftran(&fresh, &probe).iter().zip(&ftran(&lu, &probe)) {
                proptest::prop_assert!((x - y).abs() < 1e-8);
            }
            for (x, y) in btran(&fresh, &probe).iter().zip(&btran(&lu, &probe)) {
                proptest::prop_assert!((x - y).abs() < 1e-8);
            }
        }
    }

    /// A declined update must leave the factorization fully usable.
    #[test]
    fn ft_decline_leaves_factorization_intact() {
        let cols = store_from(&[
            &[(0, 1.0)],
            &[(1, 1.0)],
            // Entering column nearly parallel to the departing one: the
            // replacement pivot is ~0 and the update must decline.
            &[(0, 1e-10), (1, 1.0)],
        ]);
        let mut lu = LuFactor::default();
        assert!(lu.refactorize(2, &[0, 1], &cols));
        let d = ftran(&lu, &dense_col(&cols, 2, 2));
        assert_eq!(lu.update(0, &d), Err(FactorError::UnstablePivot));
        // Still solves for the *old* basis.
        let b = [3.0, -4.0];
        assert_vec_close(&ftran(&lu, &b), &b);
        assert_vec_close(&btran(&lu, &b), &b);
        assert_eq!(lu.eta_count(), 0);
    }

    /// Both ways a basis can be singular — a repeated column and an empty
    /// one — are rejected, leaving nothing half-built.
    #[test]
    fn singular_bases_are_rejected_by_both() {
        let repeated = store_from(&[&[(0, 1.0), (1, 2.0)], &[(0, 1.0), (1, 2.0)]]);
        let empty = store_from(&[&[(0, 1.0)], &[]]);
        for cols in [&repeated, &empty] {
            let mut lu = LuFactor::default();
            assert!(!lu.refactorize(2, &[0, 1], cols));
        }
    }

    /// Builds the banded circulant basis `B_k = a·e_k + b·e_{k+1 mod m}`,
    /// whose inverse is dense.
    fn circulant(m: usize) -> (ColumnStore, Vec<usize>) {
        let mut cols = ColumnStore::default();
        for k in 0..m {
            let j = cols.push_col();
            cols.push_entry(j, k, 2.0 + 0.01 * k as f64);
            cols.push_entry(j, (k + 1) % m, 0.5 - 0.002 * k as f64);
        }
        // Spare columns 3 entries wide, to pivot in.
        for s in 0..m {
            let j = cols.push_col();
            cols.push_entry(j, s, 1.5 + 0.01 * s as f64);
            cols.push_entry(j, (s + 3) % m, -0.7);
            cols.push_entry(j, (s + 7) % m, 0.3);
        }
        (cols, (0..m).collect())
    }

    /// The hyper-sparse LU ftran/btran must agree with the dense-scan
    /// kernels of the same factors entry for entry (`==`) on unit and
    /// sparse right-hand sides, before and after Forrest–Tomlin updates,
    /// solve the basis to 1e-9, and complete every solve asked to run
    /// hyper-sparse on that path — the circulant's dense results included —
    /// with zero workspace growth after sizing.  Every result's `nnz` is
    /// its nonzero count, and a dense inverse row lists exactly its entries
    /// that are not `+0.0`.
    #[test]
    fn hyper_sparse_solves_match_dense_reference() {
        let m = 48;
        let (cols, mut basis) = circulant(m);
        let mut lu = LuFactor::default();
        assert!(lu.refactorize(m, &basis, &cols));

        let mut ws = KernelWs::default();
        ws.ensure(m);
        let sized_allocs = ws.kernel_allocs;
        let mut scan = KernelWs::default();

        let check_all = |lu: &LuFactor, basis: &[usize], ws: &mut KernelWs, scan: &mut KernelWs| {
            for p in [0usize, 5, m / 2, m - 1] {
                // ftran on the unit row RHS e_p.
                ws.load_unit(p, m);
                lu.ftran_ws(ws, true);
                scan.load_unit(p, m);
                lu.ftran_ws(scan, false);
                assert_same_solution(ws, scan);
                if ws.sparse {
                    // Pattern superset contract: zeros outside it.
                    let mut inpat = vec![false; m];
                    for &j in &ws.pattern {
                        inpat[j] = true;
                    }
                    for (j, &x) in ws.sol[..m].iter().enumerate() {
                        assert!(inpat[j] || x == 0.0, "sol[{j}]={x} outside pattern");
                    }
                }
                // btran on e_p (inverse row); the dense one lists its support.
                lu.inverse_row_ws(p, ws, true);
                lu.inverse_row_ws(p, scan, false);
                assert_same_solution(ws, scan);
                assert_lists_its_support(scan);
            }
            // A 3-entry sparse RHS through both directions.
            let entries = [(1usize, 0.7), (m / 2, -1.3), (m - 2, 0.25)];
            for solve in [LuFactor::ftran_ws, LuFactor::btran_ws] {
                ws.load_sparse(&entries, m);
                solve(lu, ws, true);
                scan.load_sparse(&entries, m);
                solve(lu, scan, false);
                assert_same_solution(ws, scan);
            }
            let mut probe = vec![0.0; m];
            for &(i, a) in &entries {
                probe[i] += a;
            }
            assert_small_residuals(lu, &cols, basis, &probe);
        };
        // Each round asks for five ftrans and five btrans on each path.
        let assert_paths = |ws: &KernelWs, scan: &KernelWs, rounds: u64| {
            let paths = |ws: &KernelWs| (ws.hyper_ftrans, ws.hyper_btrans, ws.dense_fallbacks);
            assert_eq!(paths(ws), (5 * rounds, 5 * rounds, 0));
            assert_eq!(paths(scan), (0, 0, 10 * rounds));
        };

        check_all(&lu, &basis, &mut ws, &mut scan);
        assert_eq!(ws.nnz, m, "the circulant's inverse is dense");
        assert_paths(&ws, &scan, 1);

        // Drive a pivot sequence (spares are wider, so updates exercise
        // utrans maintenance + row etas), refactorizing on a decline and
        // retrying from pristine factors as the solver does.
        for (pos, spare) in [(0usize, 0usize), (11, 4), (30, 9), (m - 1, 2)] {
            let col = m + spare;
            let a = dense_col(&cols, col, m);
            if lu.update(pos, &ftran(&lu, &a)).is_err() {
                assert!(lu.refactorize(m, &basis, &cols));
                if lu.update(pos, &ftran(&lu, &a)).is_err() {
                    continue;
                }
            }
            basis[pos] = col;
        }
        check_all(&lu, &basis, &mut ws, &mut scan);
        assert_paths(&ws, &scan, 2);

        // Zero-allocation contract: the workspace never grew past its
        // initial sizing across every solve above.
        assert_eq!(ws.kernel_allocs, sized_allocs);

        // And a refactorized-from-scratch LU still agrees.
        let mut fresh = LuFactor::default();
        assert!(fresh.refactorize(m, &basis, &cols));
        check_all(&fresh, &basis, &mut ws, &mut scan);
        assert_paths(&ws, &scan, 3);
    }

    /// A solve that may take the hyper-sparse path (`a`) and a dense scan
    /// (`b`) of one right-hand side hold the same solution entry for entry;
    /// the scan counts its nonzeros, and `a` at least as many.
    fn assert_same_solution(a: &KernelWs, b: &KernelWs) {
        let (x, y) = (a.sol_vec(), b.sol_vec());
        assert_eq!(x, y, "the two kernel paths disagree");
        let nonzeros = y.iter().filter(|&&v| v != 0.0).count();
        assert_eq!(b.nnz, nonzeros);
        assert!(
            a.nnz >= nonzeros && a.nnz <= x.len(),
            "{} of {nonzeros}",
            a.nnz
        );
    }

    /// A dense inverse row lists its support: every entry that is not
    /// `+0.0`, in ascending row order.
    fn assert_lists_its_support(ws: &KernelWs) {
        assert!(ws.sparse, "a dense inverse row must list its support");
        let support: Vec<usize> = (0..ws.dim).filter(|&r| ws.sol[r].to_bits() != 0).collect();
        assert_eq!(ws.pattern, support);
    }

    proptest::proptest! {
        /// Random sparse RHS + random pivot sequences at dimensions the
        /// simplex core sends down the hyper-sparse path (16 rows and
        /// more): the hyper-sparse solves must match the dense scan of
        /// the same factors entry for entry, and a fresh refactorization of
        /// the final basis within 1e-6 of the solve's magnitude.
        #[test]
        fn prop_hyper_sparse_agrees_with_dense_reference(
            m in 20usize..40,
            rhs in proptest::collection::vec((0usize..40, -2.0f64..2.0), 1..4),
            pivots in proptest::collection::vec((0usize..40, 0usize..40), 0..6),
        ) {
            let (cols, mut basis) = circulant(m);
            let mut lu = LuFactor::default();
            proptest::prop_assert!(lu.refactorize(m, &basis, &cols));
            for &(pos, spare) in &pivots {
                let (pos, col) = (pos % m, m + spare % m);
                let d = ftran(&lu, &dense_col(&cols, col, m));
                if lu.update(pos, &d).is_err() {
                    proptest::prop_assert!(lu.refactorize(m, &basis, &cols));
                    continue;
                }
                basis[pos] = col;
            }
            let entries: Vec<(usize, f64)> =
                rhs.iter().map(|&(r, v)| (r % m, v)).collect();
            let mut ws = KernelWs::default();
            let mut ws_dense = KernelWs::default();
            let mut c = vec![0.0; m];
            for &(i, a) in &entries {
                c[i] += a;
            }

            // The hyper-sparse path is pinned to the LU dense scan entry
            // for entry: same factors, same operation order, the symbolic
            // pass only skips exact zeros.
            for solve in [LuFactor::ftran_ws, LuFactor::btran_ws] {
                ws.load_sparse(&entries, m);
                solve(&lu, &mut ws, true);
                ws_dense.load_sparse(&entries, m);
                solve(&lu, &mut ws_dense, false);
                proptest::prop_assert_eq!(ws.sol_vec(), ws_dense.sol_vec());
            }
            for p in [0, m / 2, m - 1] {
                lu.inverse_row_ws(p, &mut ws, true);
                lu.inverse_row_ws(p, &mut ws_dense, false);
                proptest::prop_assert_eq!(ws.sol_vec(), ws_dense.sol_vec());
                assert_lists_its_support(&ws_dense);
            }

            // Against scratch solves of the final basis — the conformance
            // bound: the updated LU sits within 1e-6 of a fresh
            // refactorization, scaled by the solve's magnitude (update
            // drift is exactly what periodic refactorization washes out).
            let mut fresh = LuFactor::default();
            proptest::prop_assert!(fresh.refactorize(m, &basis, &cols));
            for (label, reference, updated) in [
                ("ftran", ftran_sparse(&fresh, &entries), ftran_sparse(&lu, &entries)),
                ("btran", btran(&fresh, &c), btran(&lu, &c)),
            ] {
                let scale = 1.0 + reference.iter().fold(0.0f64, |a, x| a.max(x.abs()));
                for (&x, &y) in updated.iter().zip(&reference) {
                    proptest::prop_assert!((x - y).abs() < 1e-6 * scale, "{label} {x} vs {y}");
                }
            }
        }
    }

    /// What the random bases of the bit-identity properties exercised, as
    /// counted by the reference search.
    #[derive(Debug, Default)]
    struct Coverage {
        column_singletons: usize,
        row_singletons: usize,
        nucleus_steps: usize,
        score_ties: usize,
        magnitude_ties: usize,
        cancelled_fill: usize,
        empty_columns: usize,
        tiny_columns: usize,
    }

    /// The plain Markowitz rule the candidate-set search must reproduce:
    /// every step rescans every active column over BTree working sets.
    fn reference_refactorize(
        lu: &mut LuFactor,
        m: usize,
        basis: &[usize],
        cols: &ColumnStore,
        cov: &mut Coverage,
    ) -> bool {
        use std::collections::{BTreeMap, BTreeSet};

        let mut col: Vec<BTreeMap<usize, f64>> = vec![BTreeMap::new(); m];
        let mut row_cols: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); m];
        for (k, &c) in basis.iter().enumerate() {
            for &(r, a) in cols.col(c) {
                if a != 0.0 {
                    *col[k].entry(r).or_insert(0.0) += a;
                    row_cols[r].insert(k);
                }
            }
        }
        let mut col_active = vec![true; m];
        let mut pivot_row = Vec::with_capacity(m);
        let mut pivot_col = Vec::with_capacity(m);
        let mut upivot = Vec::with_capacity(m);
        let mut lower: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut upper: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);

        for _step in 0..m {
            let mut best: Option<(usize, usize, usize, f64)> = None;
            for (k, active) in col_active.iter().enumerate() {
                if !active {
                    continue;
                }
                let cc = col[k].len();
                let colmax = col[k].values().fold(0.0f64, |acc, v| acc.max(v.abs()));
                if cc == 0 || colmax < SINGULAR_TOL {
                    if cc == 0 {
                        cov.empty_columns += 1;
                    } else {
                        cov.tiny_columns += 1;
                    }
                    return false;
                }
                for (&r, &v) in &col[k] {
                    let va = v.abs();
                    if va < LU_THRESHOLD * colmax || va < SINGULAR_TOL {
                        continue;
                    }
                    let score = (row_cols[r].len() - 1) * (cc - 1);
                    let better = match best {
                        None => true,
                        Some((bs, _, _, bv)) => {
                            if score == bs {
                                cov.score_ties += 1;
                                if va == bv {
                                    cov.magnitude_ties += 1;
                                }
                            }
                            score < bs || (score == bs && va > bv)
                        }
                    };
                    if better {
                        best = Some((score, r, k, va));
                    }
                }
                if matches!(best, Some((0, ..))) {
                    break;
                }
            }
            let Some((score, pr, pk, _)) = best else {
                return false;
            };
            if score > 0 {
                cov.nucleus_steps += 1;
            } else if col[pk].len() == 1 {
                cov.column_singletons += 1;
            } else {
                cov.row_singletons += 1;
            }
            let pivot = col[pk][&pr];
            let urow: Vec<(usize, f64)> = row_cols[pr]
                .iter()
                .filter(|&&j| j != pk)
                .map(|&j| (j, col[j][&pr]))
                .collect();
            let lcol: Vec<(usize, f64)> = col[pk]
                .iter()
                .filter(|&(&i, _)| i != pr)
                .map(|(&i, &v)| (i, v / pivot))
                .collect();
            for &(j, urj) in &urow {
                for &(i, l) in &lcol {
                    let e = col[j].entry(i).or_insert(0.0);
                    *e -= l * urj;
                    if e.abs() < DROP_TOL {
                        cov.cancelled_fill += 1;
                        col[j].remove(&i);
                        row_cols[i].remove(&j);
                    } else {
                        row_cols[i].insert(j);
                    }
                }
                col[j].remove(&pr);
            }
            for (&i, _) in col[pk].iter() {
                row_cols[i].remove(&pk);
            }
            col[pk].clear();
            row_cols[pr].clear();
            col_active[pk] = false;
            pivot_row.push(pr);
            pivot_col.push(pk);
            upivot.push(pivot);
            lower.push(lcol);
            upper.push(urow);
        }

        let mut col_step = vec![0usize; m];
        let mut row_step = vec![0usize; m];
        for (t, &k) in pivot_col.iter().enumerate() {
            col_step[k] = t;
        }
        for (t, &r) in pivot_row.iter().enumerate() {
            row_step[r] = t;
        }
        let mut ltrans: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (t, lcol) in lower.iter().enumerate() {
            for &(i, _) in lcol {
                ltrans[i].push(t);
            }
        }
        let mut utrans: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (t, urow) in upper.iter().enumerate() {
            for &(j, _) in urow {
                utrans[j].push(t);
            }
        }
        lu.m = m;
        lu.pivot_row = pivot_row;
        lu.pivot_col = pivot_col;
        lu.upivot = upivot;
        lu.lower = lower;
        lu.upper = upper;
        lu.order = (0..m).collect();
        lu.order_pos = (0..m).collect();
        lu.col_step = col_step;
        lu.row_step = row_step;
        lu.ltrans = ltrans;
        lu.utrans = utrans;
        lu.row_etas.clear();
        lu.eta_terms.clear();
        true
    }

    /// The plain Forrest–Tomlin update the sparse one must reproduce: a
    /// dense spike over every step, a dry run visiting every later
    /// position, and a commit over every step.
    fn reference_update(lu: &mut LuFactor, p: usize, d: &[f64]) -> Result<(), FactorError> {
        let dp = d[p];
        if dp.abs() < PIVOT_EPS || !dp.is_finite() {
            return Err(FactorError::UnstablePivot);
        }
        if lu.row_etas.len() >= ETA_CAP {
            return Err(FactorError::NeedsRefactorization);
        }
        let m = lu.m;
        let t_p = lu.col_step[p];
        let r_p = lu.pivot_row[t_p];
        let pos_p = lu.order_pos[t_p];

        let mut spike = vec![0.0; m];
        let mut spike_max = 0.0f64;
        for t in 0..m {
            let mut s = lu.upivot[t] * d[lu.pivot_col[t]];
            for &(j, u) in &lu.upper[t] {
                s += u * d[j];
            }
            if s.abs() <= DROP_TOL {
                s = 0.0;
            }
            spike[lu.pivot_row[t]] = s;
            spike_max = spike_max.max(s.abs());
        }

        use std::collections::BTreeMap;
        let mut pending: BTreeMap<usize, f64> = lu.upper[t_p]
            .iter()
            .filter(|&&(j, _)| j != p)
            .copied()
            .collect();
        let mut pend_p = spike[r_p];
        let mut terms: Vec<(usize, f64)> = Vec::new();
        for pos in pos_p + 1..m {
            let s = lu.order[pos];
            let Some(u) = pending.remove(&lu.pivot_col[s]) else {
                continue;
            };
            if u.abs() <= DROP_TOL {
                continue;
            }
            let mult = u / lu.upivot[s];
            terms.push((lu.pivot_row[s], mult));
            if terms.len() > FT_FILL_CAP {
                return Err(FactorError::NeedsRefactorization);
            }
            for &(j2, u2) in &lu.upper[s] {
                if j2 == p {
                    continue;
                }
                let e = pending.entry(j2).or_insert(0.0);
                *e -= mult * u2;
                if e.abs() <= DROP_TOL {
                    pending.remove(&j2);
                }
            }
            pend_p -= mult * spike[lu.pivot_row[s]];
        }
        assert!(
            pending.is_empty(),
            "pending row should eliminate completely"
        );
        let new_diag = pend_p;
        if new_diag.abs() < FT_STAB_TOL * spike_max || new_diag.abs() < SINGULAR_TOL {
            return Err(FactorError::UnstablePivot);
        }

        lu.utrans[p].clear();
        for t in 0..m {
            if let Some(idx) = lu.upper[t].iter().position(|&(j, _)| j == p) {
                lu.upper[t].swap_remove(idx);
                lu.compactions += 1;
            }
            if t != t_p {
                let sv = spike[lu.pivot_row[t]];
                if sv != 0.0 {
                    lu.upper[t].push((p, sv));
                    lu.utrans[p].push(t);
                }
            }
        }
        lu.compactions += lu.upper[t_p].len();
        lu.upper[t_p].clear();
        lu.upivot[t_p] = new_diag;
        lu.order.remove(pos_p);
        lu.order.push(t_p);
        for (pos, &t) in lu.order.iter().enumerate().skip(pos_p) {
            lu.order_pos[t] = pos;
        }
        if !terms.is_empty() {
            let start = lu.eta_terms.len();
            lu.eta_terms.extend_from_slice(&terms);
            lu.row_etas.push(RowEta {
                target: r_p,
                start,
                end: lu.eta_terms.len(),
            });
        }
        Ok(())
    }

    /// Every field of a factorization, floats by their bits and lists in
    /// stored order.
    #[derive(Debug, PartialEq)]
    struct Bits {
        m: usize,
        pivot_row: Vec<usize>,
        pivot_col: Vec<usize>,
        upivot: Vec<u64>,
        lower: Vec<Vec<(usize, u64)>>,
        upper: Vec<Vec<(usize, u64)>>,
        order: Vec<usize>,
        order_pos: Vec<usize>,
        col_step: Vec<usize>,
        row_step: Vec<usize>,
        ltrans: Vec<Vec<usize>>,
        utrans: Vec<Vec<usize>>,
        row_etas: Vec<(usize, Vec<(usize, u64)>)>,
        compactions: usize,
    }

    fn bits(lu: &LuFactor) -> Bits {
        let entries = |list: &[(usize, f64)]| -> Vec<(usize, u64)> {
            list.iter().map(|&(i, v)| (i, v.to_bits())).collect()
        };
        Bits {
            m: lu.m,
            pivot_row: lu.pivot_row.clone(),
            pivot_col: lu.pivot_col.clone(),
            upivot: lu.upivot.iter().map(|v| v.to_bits()).collect(),
            lower: lu.lower.iter().map(|l| entries(l)).collect(),
            upper: lu.upper.iter().map(|u| entries(u)).collect(),
            order: lu.order.clone(),
            order_pos: lu.order_pos.clone(),
            col_step: lu.col_step.clone(),
            row_step: lu.row_step.clone(),
            ltrans: lu.ltrans.clone(),
            utrans: lu.utrans.clone(),
            row_etas: lu
                .row_etas
                .iter()
                .map(|eta| (eta.target, entries(&lu.eta_terms[eta.start..eta.end])))
                .collect(),
            compactions: lu.compactions,
        }
    }

    use proptest::test_runner::TestRng;

    /// Coefficients with many exact magnitude ties, and one that cancels
    /// against 1 to below `DROP_TOL`.
    const POOL: [f64; 8] = [1.0, -1.0, 2.0, -2.0, 0.5, 3.0, 1.0 + 4e-16, -0.25];

    fn pick(rng: &mut TestRng, n: usize) -> usize {
        rng.below(n as u64) as usize
    }

    fn coefficient(rng: &mut TestRng) -> f64 {
        POOL[pick(rng, POOL.len())]
    }

    /// Pushes a random sparse column (1–3 entries from [`POOL`], some rows
    /// possibly repeated) into `cols`.
    fn push_random_col(cols: &mut ColumnStore, rng: &mut TestRng, m: usize) -> usize {
        let j = cols.push_col();
        for _ in 0..1 + pick(rng, 3) {
            cols.push_entry(j, pick(rng, m), coefficient(rng));
        }
        j
    }

    /// A random sparse basis of dimension 2..=33: a permuted diagonal plus
    /// random off-diagonal entries (column and row singletons, chains), a
    /// dense block of rank-deficient-looking `J + D` shape (a nucleus, with
    /// fill that cancels), and now and then an empty column, a column below
    /// `SINGULAR_TOL`, duplicate rows, or two columns equal up to 4e-16.
    fn random_basis(rng: &mut TestRng) -> (usize, ColumnStore, Vec<usize>) {
        let m = 2 + pick(rng, 32);
        let mut perm: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            perm.swap(i, pick(rng, i + 1));
        }
        let mut entries: Vec<Vec<(usize, f64)>> =
            (0..m).map(|k| vec![(perm[k], coefficient(rng))]).collect();
        for column in entries.iter_mut() {
            for _ in 0..pick(rng, 3) {
                column.push((pick(rng, m), coefficient(rng)));
            }
        }
        if m >= 4 && pick(rng, 3) > 0 {
            let size = 3 + pick(rng, (m - 2).min(5));
            let base = pick(rng, m - size + 1);
            let ones = coefficient(rng);
            for c in 0..size {
                for r in 0..size {
                    let mut v = ones;
                    if r == c && pick(rng, 4) > 0 {
                        v += coefficient(rng);
                    }
                    entries[base + c].push((perm[base + r], v));
                }
            }
        }
        match pick(rng, 8) {
            0 => entries[pick(rng, m)].clear(),
            1 => {
                let k = pick(rng, m);
                for e in entries[k].iter_mut() {
                    e.1 *= 1e-12;
                }
            }
            2 => {
                let k = pick(rng, m);
                let (r, v) = entries[k][0];
                entries[k].push((r, -v));
                entries[k].push((r, v));
            }
            3 => {
                let (a, b) = (pick(rng, m), pick(rng, m));
                if a != b {
                    entries[b] = entries[a].clone();
                    entries[b][0].1 *= 1.0 + 4e-16;
                }
            }
            _ => {}
        }
        let mut cols = ColumnStore::default();
        for column in &entries {
            let j = cols.push_col();
            for &(r, v) in column {
                cols.push_entry(j, r, v);
            }
        }
        (m, cols, (0..m).collect())
    }

    proptest::proptest! {
        /// On random sparse bases the candidate-set search agrees with the
        /// plain rule bit for bit: same verdict, same pivots, `upivot` and
        /// L/U entries equal by bits in stored order, same transposes — and
        /// on a singular basis both leave the previous factors in place.
        /// One factorization object is reused across bases of varying
        /// size, so stale scratch cannot leak into a result.
        #[test]
        fn prop_refactorize_matches_the_plain_markowitz_rule_bit_for_bit(
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = TestRng::deterministic(&seed.to_string());
            let mut cov = Coverage::default();
            let mut fast = LuFactor::default();
            let mut plain = LuFactor::default();
            let mut verdicts = [0usize; 2];
            for _ in 0..48 {
                let (m, cols, basis) = random_basis(&mut rng);
                let ok = fast.refactorize(m, &basis, &cols);
                proptest::prop_assert_eq!(
                    ok,
                    reference_refactorize(&mut plain, m, &basis, &cols, &mut cov)
                );
                proptest::prop_assert_eq!(bits(&fast), bits(&plain));
                verdicts[ok as usize] += 1;
            }
            proptest::prop_assert!(verdicts[0] > 0 && verdicts[1] > 0, "{verdicts:?}");
            for (what, n) in [
                ("column singletons", cov.column_singletons),
                ("row singletons", cov.row_singletons),
                ("nucleus steps", cov.nucleus_steps),
                ("score ties", cov.score_ties),
                ("magnitude ties", cov.magnitude_ties),
                ("cancelled fill", cov.cancelled_fill),
                ("empty columns", cov.empty_columns),
                ("tiny columns", cov.tiny_columns),
            ] {
                proptest::prop_assert!(n > 0, "no {what} in {cov:?}");
            }
        }

        /// Random update sequences on random sparse bases and on long
        /// chains (whose pending rows outgrow `FT_FILL_CAP`): the sparse
        /// update returns what the plain one returns and leaves the same
        /// `upper`, `utrans`, order, row etas and compaction count, bit for
        /// bit — declines included, after which both refactorize as the
        /// simplex core does.
        #[test]
        fn prop_update_matches_the_plain_forrest_tomlin_update_bit_for_bit(
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = TestRng::deterministic(&seed.to_string());
            let mut cov = Coverage::default();
            let mut outcomes = [0usize; 3];
            for round in 0..6 {
                let (m, mut cols, mut basis) = if round == 0 {
                    let m = 80 + pick(&mut rng, 16);
                    let mut cols = ColumnStore::default();
                    for k in 0..m {
                        let j = cols.push_col();
                        cols.push_entry(j, k, 1.0);
                        if k > 0 {
                            cols.push_entry(j, k - 1, 1.0);
                        }
                    }
                    (m, cols, (0..m).collect::<Vec<_>>())
                } else {
                    random_basis(&mut rng)
                };
                let mut fast = LuFactor::default();
                if !fast.refactorize(m, &basis, &cols) {
                    continue;
                }
                let mut plain = LuFactor::default();
                reference_refactorize(&mut plain, m, &basis, &cols, &mut cov);
                for _ in 0..24 {
                    // Low positions head the longest pending rows of a chain.
                    let p = pick(&mut rng, if round == 0 { 4 } else { m });
                    let q = if pick(&mut rng, 2) == 0 {
                        push_random_col(&mut cols, &mut rng, m)
                    } else {
                        // ε·(departing column) + large multiples of others:
                        // small ε makes the new diagonal tiny next to the
                        // spike (or `d[p]` itself too small).
                        let j = cols.push_col();
                        let eps = [1e-9, 1e-6, 1.0][pick(&mut rng, 3)];
                        let leaving: Vec<(usize, f64)> = cols.col(basis[p]).to_vec();
                        for (r, v) in leaving {
                            cols.push_entry(j, r, eps * v);
                        }
                        for _ in 0..1 + pick(&mut rng, 3) {
                            let k = basis[pick(&mut rng, m)];
                            let scale = 1e3 * coefficient(&mut rng);
                            let other: Vec<(usize, f64)> = cols.col(k).to_vec();
                            for (r, v) in other {
                                cols.push_entry(j, r, scale * v);
                            }
                        }
                        j
                    };
                    let d = ftran(&fast, &dense_col(&cols, q, m));
                    let result = fast.update(p, &d);
                    proptest::prop_assert_eq!(result, reference_update(&mut plain, p, &d));
                    proptest::prop_assert_eq!(bits(&fast), bits(&plain));
                    match result {
                        Ok(()) => {
                            outcomes[0] += 1;
                            basis[p] = q;
                        }
                        Err(e) => {
                            outcomes[1 + (e == FactorError::NeedsRefactorization) as usize] += 1;
                            let ok = fast.refactorize(m, &basis, &cols);
                            proptest::prop_assert_eq!(
                                ok,
                                reference_refactorize(&mut plain, m, &basis, &cols, &mut cov)
                            );
                            proptest::prop_assert_eq!(bits(&fast), bits(&plain));
                        }
                    }
                }
            }
            proptest::prop_assert!(outcomes.iter().all(|&n| n > 0), "{outcomes:?}");
        }
    }
}
