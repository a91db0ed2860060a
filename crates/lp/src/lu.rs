//! The simplex basis: one sparse LU factorization and the two ways of
//! carrying it across pivots.
//!
//! [`LuFactors::factorize`] is the only factorization: a left-looking
//! column LU (`P B Q = L U` with unit-lower `L`) whose [`PivotRule`] is its
//! only parameter. Basis matrices in this workload are dominated by
//! slack/artificial unit columns, so the factors stay extremely sparse and
//! refactorization is cheap.
//!
//! The factors are flat: `L` and `U` are each one entry array split into
//! columns by one `start` offset array. The transposed adjacencies only the
//! hypersparse transposed solves walk (the `Lᵀ` dependants, and the
//! row-wise `U` of the eta file) are built from them by counting sort on
//! the first such solve ([`Rows`]), so a factorization whose solves all
//! run densely never builds them. The elimination appends each column to
//! the flat arrays and queues earlier pivots on the same bitmap worklist
//! as the solves ([`sweep_up`]), so it allocates nothing per column.
//!
//! The frozen `L` ([`LFactor`]) and its four solves — forward and
//! transposed, dense and pattern-tracked — serve both representations, and
//! every pattern-tracked triangular solve runs on the bitmap worklists of
//! [`LuScratch`] ([`sweep_up`], [`sweep_down`]). The dense solves borrow its
//! `z` as their pivot-space vector and leave it zeroed.
//!
//! [`BasisRepr`] is what a solve maintains between factorizations, chosen by
//! the solve's [`Engine`](crate::Engine): the product-form eta file ([`Eta`]) over
//! partial-pivoting factors, or Forrest–Tomlin updates
//! ([`FtFactors`]) of Markowitz-ordered ones. Each representation carries
//! its own refactorization trigger ([`BasisRepr::refactor_due`]); the
//! simplex calls its methods and never names a variant.
#![allow(clippy::needless_range_loop)] // dense kernels index several arrays in lockstep

use std::cell::OnceCell;

use crate::ft::FtFactors;
use crate::options::BasisUpdate;
use crate::sparse::CscMatrix;
use crate::tol::{is_nonzero, is_zero};
use crate::LpError;

/// How the factorization orders its columns and picks each pivot row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PivotRule {
    /// Columns in basis order; the largest-magnitude row of each column
    /// (the eta file's rule: pivot `j` is basis position `j`).
    Partial,
    /// Columns in ascending static nonzero count (ties by basis position);
    /// among rows within [`MARKOWITZ_REL`] of the column's largest
    /// magnitude, the one touching the fewest basis columns (ties by row).
    /// Trades a bounded loss of growth protection for markedly less fill on
    /// the wide, slack-heavy bases this workload produces.
    Markowitz,
}

/// Rows with magnitude at least this fraction of the column maximum are
/// acceptable Markowitz pivots; among them the smallest static row count
/// wins. The classic "0.1 rule" — looser thresholds fill less but grow
/// more.
const MARKOWITZ_REL: f64 = 0.1;

/// The frozen unit-lower factor `L` with its row permutation, in pivot
/// coordinates: pivot `j` eliminated original row `pivot_row[j]`. Both
/// representations keep it unchanged until the next factorization.
#[derive(Debug, Clone)]
pub(crate) struct LFactor {
    /// `pivot_row[j]` = original row index of pivot `j`.
    pivot_row: Vec<usize>,
    /// `pivot_pos[r]` = pivot of original row `r`.
    pivot_pos: Vec<usize>,
    /// `L` below the diagonal, column by column: column `j` (see
    /// [`col`](Self::col)) holds `(original_row, multiplier)`.
    cols: Vec<(usize, f64)>,
    /// Column `j` of `L` is `cols[col_start[j]..col_start[j + 1]]`.
    col_start: Vec<usize>,
    /// Reverse adjacency of `Lᵀ`: row `k` lists the pivots `j < k` whose
    /// `L` column touches a row pivoted at `k`, ascending (see
    /// [`deps`](Self::deps)). Drives the hypersparse `Lᵀ` solve, which
    /// builds it on first use.
    deps: OnceCell<Rows<usize>>,
}

/// Flat rows of a transposed adjacency: row `k` is
/// `entries[start[k]..start[k + 1]]`.
#[derive(Debug, Clone)]
struct Rows<T> {
    start: Vec<usize>,
    entries: Vec<T>,
}

impl<T> Rows<T> {
    fn row(&self, k: usize) -> &[T] {
        &self.entries[self.start[k]..self.start[k + 1]]
    }
}

impl LFactor {
    /// Off-diagonal nonzeros.
    pub(crate) fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Column `j` of `L` below the diagonal: `(original_row, multiplier)`.
    fn col(&self, j: usize) -> &[(usize, f64)] {
        &self.cols[self.col_start[j]..self.col_start[j + 1]]
    }

    /// The `Lᵀ` dependants, row `k` holding the pivots `j < k` whose `L`
    /// column touches the row pivoted at `k`; built on the first call.
    fn deps(&self) -> &Rows<usize> {
        self.deps.get_or_init(|| {
            let pivot_pos = &self.pivot_pos;
            transpose(pivot_pos.len(), &self.col_start, &self.cols, |j, (r, _)| {
                (pivot_pos[r], j)
            })
        })
    }

    /// Forward solve: on entry `buf` holds `b` (by original row); writes
    /// `z = L⁻¹ P b` in pivot coordinates over all of `z`, leaving `buf`
    /// scrambled.
    pub(crate) fn ftran(&self, buf: &mut [f64], z: &mut [f64]) {
        for j in 0..self.pivot_row.len() {
            // Final once pivot `j` is reached: later columns touch only
            // rows pivoted after it.
            let zj = buf[self.pivot_row[j]];
            z[j] = zj;
            if is_nonzero(zj) {
                for &(r, mult) in self.col(j) {
                    buf[r] -= zj * mult;
                }
            }
        }
    }

    /// Backward solve `Lᵀ v = z` in place on `z` (pivot coordinates), then
    /// scatters `v` into `buf` by original row, leaving `z` zeroed.
    pub(crate) fn btran(&self, z: &mut [f64], buf: &mut [f64]) {
        for j in (0..z.len()).rev() {
            let mut s = z[j];
            for &(r, mult) in self.col(j) {
                s -= mult * z[self.pivot_pos[r]];
            }
            z[j] = s;
        }
        for (j, &r) in self.pivot_row.iter().enumerate() {
            buf[r] = std::mem::take(&mut z[j]);
        }
    }

    /// Pattern-tracked [`ftran`](Self::ftran): visits only the pivots
    /// reachable from `pattern`, the nonzero rows of `buf`, in ascending
    /// order, so a row is fully updated before its own pivot is visited
    /// (the invariant the dense loop gets for free). Moves each nonzero
    /// `z_j` into `z` and lists `j` in `stage` (ascending), leaving `buf`
    /// all zero and `bits` clear.
    pub(crate) fn ftran_sparse(
        &self,
        buf: &mut [f64],
        pattern: &[usize],
        bits: &mut [u64],
        z: &mut [f64],
        stage: &mut Vec<usize>,
    ) {
        for &r in pattern {
            mark(bits, self.pivot_pos[r]);
        }
        stage.clear();
        sweep_up(bits, |j, bits| {
            let zj = buf[self.pivot_row[j]];
            buf[self.pivot_row[j]] = 0.0;
            if is_nonzero(zj) {
                z[j] = zj;
                stage.push(j);
                for &(r, mult) in self.col(j) {
                    buf[r] -= zj * mult;
                    mark(bits, self.pivot_pos[r]);
                }
            }
        });
    }

    /// Pattern-tracked [`btran`](Self::btran) of the pivots queued in
    /// `bits`, whose values are in `z` (zero elsewhere), into the all-zero
    /// `buf`: `v_j` depends on `v_k` for pivots `k > j` whose row appears
    /// in column `j` of `L`, and a nonzero `v_j` queues the pivots in row
    /// `j` of [`deps`](Self::deps). Values stay live until every dependant is
    /// done, so the scatter clears `z` afterwards. On exit `pattern` lists
    /// the nonzero rows of `buf` (unsorted).
    pub(crate) fn btran_sparse(
        &self,
        buf: &mut [f64],
        pattern: &mut Vec<usize>,
        bits: &mut [u64],
        z: &mut [f64],
        pops: &mut Vec<usize>,
    ) {
        let deps = self.deps();
        pops.clear();
        sweep_down(bits, |j, bits| {
            let mut s = z[j];
            for &(r, mult) in self.col(j) {
                s -= mult * z[self.pivot_pos[r]];
            }
            z[j] = s;
            pops.push(j);
            if is_nonzero(s) {
                for &k in deps.row(j) {
                    mark(bits, k);
                }
            }
        });
        pattern.clear();
        for &j in pops.iter() {
            let v = z[j];
            z[j] = 0.0;
            if is_nonzero(v) {
                buf[self.pivot_row[j]] = v;
                pattern.push(self.pivot_row[j]);
            }
        }
    }
}

/// LU factors of a basis matrix: the frozen [`LFactor`] and a static `U`.
///
/// Storage is in pivot coordinates. Under [`PivotRule::Partial`] pivot `j`
/// factored basis position `j`, which the solves below assume; under
/// [`PivotRule::Markowitz`] it factored `cols[j]`, and the Forrest–Tomlin
/// representation takes the factors apart ([`FtFactors::new`]).
#[derive(Debug, Clone)]
pub(crate) struct LuFactors {
    pub(crate) l: LFactor,
    /// `cols[j]` = basis position factored at pivot `j` under
    /// [`PivotRule::Markowitz`]; empty under [`PivotRule::Partial`].
    pub(crate) cols: Vec<usize>,
    /// `U` above the diagonal, column by column: column `j` (see
    /// [`u_col`](Self::u_col)) holds `(pivot k < j, value)`, pivots
    /// ascending.
    pub(crate) u_cols: Vec<(usize, f64)>,
    /// Column `j` of `U` is `u_cols[u_col_start[j]..u_col_start[j + 1]]`.
    u_col_start: Vec<usize>,
    /// Diagonal of `U`.
    pub(crate) u_diag: Vec<f64>,
    /// Row-wise copy of `U`: row `k` (see [`u_rows`](Self::u_rows)) holds
    /// `(column j > k, u_kj)`, columns ascending. Drives the eta file's
    /// hypersparse `Uᵀ` solve, which pushes each nonzero `z_k` along its
    /// row and builds the copy on first use (Forrest–Tomlin keeps live rows
    /// of its own).
    u_rows: OnceCell<Rows<(usize, f64)>>,
}

/// Reusable workspace for the hypersparse (pattern-tracked) triangular
/// solves, owned by the caller so repeated solves allocate nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct LuScratch {
    /// Worklist bitmap, one bit per pivot, slot or triangular position,
    /// swept in order (see [`sweep_up`]).
    pub(crate) bits: Vec<u64>,
    /// Pivot-space values; all zero between solves.
    pub(crate) z: Vec<f64>,
    pub(crate) stage: Vec<usize>,
    pub(crate) pops: Vec<usize>,
}

/// Queues entry `j` in a worklist bitmap.
pub(crate) fn mark(bits: &mut [u64], j: usize) {
    bits[j >> 6] |= 1 << (j & 63);
}

/// Queues entry `j` in a bitmap used as a set; returns whether it was new.
fn insert(bits: &mut [u64], j: usize) -> bool {
    let (w, b) = (j >> 6, 1u64 << (j & 63));
    let new = bits[w] & b == 0;
    bits[w] |= b;
    new
}

/// Visits the queued entries of `bits` in ascending order, unqueueing each
/// before `visit` runs. `visit` may queue only entries above the one it is
/// given, so one pass over the words sees every entry exactly once — the
/// order a min-heap worklist pops them in, for `O(m/64)` extra work.
pub(crate) fn sweep_up(bits: &mut [u64], visit: impl FnMut(usize, &mut [u64])) {
    sweep_up_from(bits, 0, visit);
}

/// [`sweep_up`] of a worklist with nothing queued below word `from`.
fn sweep_up_from(bits: &mut [u64], from: usize, mut visit: impl FnMut(usize, &mut [u64])) {
    for w in from..bits.len() {
        while bits[w] != 0 {
            let b = bits[w].trailing_zeros() as usize;
            bits[w] &= bits[w] - 1;
            visit(w * 64 + b, bits);
        }
    }
}

/// Descending mirror of [`sweep_up`]: `visit` may queue only entries below
/// the one it is given.
pub(crate) fn sweep_down(bits: &mut [u64], mut visit: impl FnMut(usize, &mut [u64])) {
    for w in (0..bits.len()).rev() {
        while bits[w] != 0 {
            let b = 63 - bits[w].leading_zeros() as usize;
            bits[w] &= !(1 << b);
            visit(w * 64 + b, bits);
        }
    }
}

/// Counting-sort transpose of flat columns (`entries`, split by `start`)
/// into `n` flat rows: `place(j, e)` names the row of entry `e` of column
/// `j` and what the row stores for it. Each row lists its entries in
/// ascending column order.
fn transpose<T: Copy + Default>(
    n: usize,
    start: &[usize],
    entries: &[(usize, f64)],
    place: impl Fn(usize, (usize, f64)) -> (usize, T),
) -> Rows<T> {
    let mut row_start = vec![0usize; n + 1];
    for j in 0..start.len() - 1 {
        for &e in &entries[start[j]..start[j + 1]] {
            row_start[place(j, e).0 + 1] += 1;
        }
    }
    for k in 0..n {
        row_start[k + 1] += row_start[k];
    }
    let mut fill = row_start[..n].to_vec();
    let mut rows = vec![T::default(); row_start[n]];
    for j in 0..start.len() - 1 {
        for &e in &entries[start[j]..start[j + 1]] {
            let (k, t) = place(j, e);
            rows[fill[k]] = t;
            fill[k] += 1;
        }
    }
    Rows {
        start: row_start,
        entries: rows,
    }
}

impl LuScratch {
    /// Once the retained capacity exceeds this multiple of the current
    /// problem dimension (and the dimension is non-trivial), the workspace
    /// is compacted: a scratch that served a large instance must not pin
    /// its memory for the lifetime of a solver now working on small ones.
    const SHRINK_FACTOR: usize = 8;

    /// Prepares the workspace for a solve of dimension `m` whose bitmap
    /// sweeps cover `labels ≥ m` entries (Forrest–Tomlin labels outnumber
    /// the rows by its updates): grows the arrays when either grew,
    /// compacts everything when `m` shrank far below the retained capacity,
    /// and asserts — in debug builds — that the previous caller left the
    /// workspace clean. Every solve, dense or hypersparse, eta file or
    /// Forrest–Tomlin, enters through here.
    pub(crate) fn ensure(&mut self, m: usize, labels: usize) {
        let words = labels.div_ceil(64);
        if self.z.len() < m {
            self.z.resize(m, 0.0);
        } else if self.z.len() > Self::SHRINK_FACTOR * m.max(64) {
            self.bits.truncate(words);
            self.bits.shrink_to_fit();
            self.z.truncate(m);
            self.z.shrink_to_fit();
            self.stage.truncate(0);
            self.stage.shrink_to(m);
            self.pops.truncate(0);
            self.pops.shrink_to(m);
        }
        if self.bits.len() < words {
            self.bits.resize(words, 0);
        }
        debug_assert!(self.bits.iter().all(|&b| b == 0), "scratch left dirty");
        debug_assert!(self.z.iter().all(|&v| is_zero(v)), "scratch left dirty");
    }
}

impl LuFactors {
    /// Factorizes the basis formed by columns `basis` of `a` under `rule`.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::SingularBasis`] if no acceptable pivot (magnitude
    /// `> pivot_tol`) exists for some column.
    pub(crate) fn factorize(
        a: &CscMatrix,
        basis: &[usize],
        pivot_tol: f64,
        rule: PivotRule,
    ) -> Result<Self, LpError> {
        let m = a.nrows();
        assert_eq!(basis.len(), m, "basis must have one column per row");
        // Markowitz costs: a column's static nonzero count orders the
        // columns, a row's count of basis columns touching it ranks rows.
        let mut cols = Vec::new();
        let mut row_count = Vec::new();
        if rule == PivotRule::Markowitz {
            cols = (0..m).collect();
            cols.sort_by_key(|&p| (a.col_nnz(basis[p]), p));
            row_count = vec![0usize; m];
            for &c in basis {
                for (r, _) in a.col(c) {
                    row_count[r] += 1;
                }
            }
        }
        let mut pivot_row = vec![usize::MAX; m];
        let mut pivot_pos = vec![usize::MAX; m];
        // `L` and `U` below and above the diagonal, column by column:
        // column `j` of `L` is `l_cols[l_col_start[j]..l_col_start[j + 1]]`,
        // and likewise for `U`.
        let mut l_cols: Vec<(usize, f64)> = Vec::new();
        let mut u_cols: Vec<(usize, f64)> = Vec::new();
        let mut l_col_start = Vec::with_capacity(m + 1);
        let mut u_col_start = Vec::with_capacity(m + 1);
        l_col_start.push(0);
        u_col_start.push(0);
        let mut u_diag = Vec::with_capacity(m);

        // Dense workspace reused per column. Rows already pivoted are queued
        // for elimination; free rows are listed in `touched`, in the order
        // they are first touched, with a membership mask so each enters it
        // once (a value can cancel to exactly zero and be rewritten;
        // duplicate entries would corrupt `L`).
        let mut x = vec![0.0f64; m];
        let mut in_touched = vec![false; m];
        let mut touched: Vec<usize> = Vec::with_capacity(64);

        // Worklist of earlier pivots whose rows hold nonzeros, swept in
        // ascending order so the update loop stays proportional to the
        // fill-in instead of `O(j)` per column. Every queued pivot lies
        // below `j`, and applying pivot `k` queues only pivots above `k`
        // (the rows of `L` column `k` were free at pivot `k`).
        let mut bits = vec![0u64; m.div_ceil(64)];

        for j in 0..m {
            // Scatter b_j.
            let p = cols.get(j).copied().unwrap_or(j);
            let mut lo = j;
            for (r, v) in a.col(basis[p]) {
                x[r] = v;
                let k = pivot_pos[r];
                if k != usize::MAX {
                    mark(&mut bits, k);
                    lo = lo.min(k);
                } else if !in_touched[r] {
                    in_touched[r] = true;
                    touched.push(r);
                }
            }
            // Apply previous columns (solve with partial L) in ascending
            // pivot order; a pivot's row is final when it is reached, so
            // its value moves into `U`.
            sweep_up_from(&mut bits[..j.div_ceil(64)], lo / 64, |k, bits| {
                let xk = std::mem::take(&mut x[pivot_row[k]]);
                if is_nonzero(xk) {
                    u_cols.push((k, xk));
                    for &(r, mult) in &l_cols[l_col_start[k]..l_col_start[k + 1]] {
                        x[r] -= xk * mult;
                        let kr = pivot_pos[r];
                        if kr != usize::MAX {
                            mark(bits, kr);
                        } else if !in_touched[r] {
                            in_touched[r] = true;
                            touched.push(r);
                        }
                    }
                }
            });
            let best_row = match rule {
                PivotRule::Partial => {
                    // Largest magnitude among rows without a pivot yet.
                    let mut best_row = usize::MAX;
                    let mut best_val = 0.0f64;
                    for &r in &touched {
                        if x[r].abs() > best_val {
                            best_val = x[r].abs();
                            best_row = r;
                        }
                    }
                    if best_row == usize::MAX || best_val <= pivot_tol {
                        return Err(LpError::SingularBasis);
                    }
                    best_row
                }
                PivotRule::Markowitz => {
                    // Among stability-acceptable rows, the one touching the
                    // fewest basis columns (ties: smallest row).
                    let vmax = touched.iter().fold(0.0f64, |v, &r| v.max(x[r].abs()));
                    if vmax <= pivot_tol {
                        return Err(LpError::SingularBasis);
                    }
                    let mut best_row = usize::MAX;
                    let mut best_cost = (usize::MAX, usize::MAX);
                    for &r in &touched {
                        if x[r].abs() >= MARKOWITZ_REL * vmax {
                            let cost = (row_count[r], r);
                            if cost < best_cost {
                                best_cost = cost;
                                best_row = r;
                            }
                        }
                    }
                    best_row
                }
            };
            let piv = x[best_row];
            pivot_row[j] = best_row;
            pivot_pos[best_row] = j;
            // The other nonzeros form column `j` of `L`; the workspace
            // clears.
            for &r in &touched {
                let xr = std::mem::take(&mut x[r]);
                in_touched[r] = false;
                if r != best_row && is_nonzero(xr) {
                    l_cols.push((r, xr / piv));
                }
            }
            touched.clear();
            l_col_start.push(l_cols.len());
            u_col_start.push(u_cols.len());
            u_diag.push(piv);
        }
        Ok(Self {
            l: LFactor {
                pivot_row,
                pivot_pos,
                cols: l_cols,
                col_start: l_col_start,
                deps: OnceCell::new(),
            },
            cols,
            u_cols,
            u_col_start,
            u_diag,
            u_rows: OnceCell::new(),
        })
    }

    /// Column `j` of `U` above the diagonal: `(pivot k < j, u_kj)`, pivots
    /// ascending.
    pub(crate) fn u_col(&self, j: usize) -> &[(usize, f64)] {
        &self.u_cols[self.u_col_start[j]..self.u_col_start[j + 1]]
    }

    /// `U` by rows above the diagonal, row `k` holding `(column j > k,
    /// u_kj)` with columns ascending; built on the first call. Read under
    /// [`PivotRule::Partial`] only, where pivot `j` is basis position `j`.
    fn u_rows(&self) -> &Rows<(usize, f64)> {
        self.u_rows.get_or_init(|| {
            transpose(
                self.u_diag.len(),
                &self.u_col_start,
                &self.u_cols,
                |j, (k, u)| (k, (j, u)),
            )
        })
    }

    /// Solves `B w = b` in place: on entry `buf` holds `b` (indexed by
    /// original row); on exit it holds `w` (indexed by basis position).
    pub(crate) fn ftran(&self, buf: &mut [f64], scratch: &mut LuScratch) {
        let m = self.u_diag.len();
        debug_assert_eq!(buf.len(), m);
        scratch.ensure(m, m);
        let z = &mut scratch.z[..m];
        self.l.ftran(buf, z);
        // Backward: U w = z, each w_j final when reached, so it moves
        // straight into `buf` (pivot `j` is basis position `j`).
        for j in (0..m).rev() {
            let wj = std::mem::take(&mut z[j]) / self.u_diag[j];
            buf[j] = wj;
            if is_nonzero(wj) {
                for &(k, u) in self.u_col(j) {
                    z[k] -= wj * u;
                }
            }
        }
    }

    /// Solves `Bᵀ y = c` in place: on entry `buf` holds `c` (indexed by basis
    /// position); on exit it holds `y` (indexed by original row).
    pub(crate) fn btran(&self, buf: &mut [f64], scratch: &mut LuScratch) {
        let m = self.u_diag.len();
        debug_assert_eq!(buf.len(), m);
        scratch.ensure(m, m);
        let z = &mut scratch.z[..m];
        // Forward: Uᵀ z = c.
        for j in 0..m {
            let mut s = buf[j];
            for &(k, u) in self.u_col(j) {
                s -= u * z[k];
            }
            z[j] = s / self.u_diag[j];
        }
        self.l.btran(z, buf);
    }

    /// Hypersparse [`ftran`](Self::ftran): same solve, but only the pivot
    /// positions reachable from the nonzeros of `b` are visited.
    ///
    /// On entry `buf` holds `b` and `pattern` its nonzero original rows (no
    /// duplicates); positions outside `pattern` must be zero. On exit `buf`
    /// holds `w` and `pattern` its nonzero basis positions (unsorted).
    /// Work is proportional to the solution's fill-in, not to `m`.
    pub(crate) fn ftran_sparse(
        &self,
        buf: &mut [f64],
        pattern: &mut Vec<usize>,
        scratch: &mut LuScratch,
    ) {
        let m = self.u_diag.len();
        debug_assert_eq!(buf.len(), m);
        scratch.ensure(m, m);
        let LuScratch { bits, z, stage, .. } = scratch;
        // The active words of the bitmap: `ensure` keeps a longer one after
        // serving a larger dimension.
        let bits = &mut bits[..m.div_ceil(64)];
        self.l.ftran_sparse(buf, pattern, bits, z, stage);
        // Backward U solve on the staged nonzeros, descending.
        for &j in stage.iter() {
            mark(bits, j);
        }
        pattern.clear();
        sweep_down(bits, |j, bits| {
            let wj = z[j] / self.u_diag[j];
            z[j] = 0.0;
            if is_nonzero(wj) {
                buf[j] = wj;
                pattern.push(j);
                for &(k, u) in self.u_col(j) {
                    z[k] -= wj * u;
                    mark(bits, k);
                }
            }
        });
    }

    /// Hypersparse [`btran`](Self::btran): same solve, pattern-tracked.
    ///
    /// On entry `buf` holds `c` and `pattern` its nonzero basis positions (no
    /// duplicates); positions outside `pattern` must be zero. On exit `buf`
    /// holds `y` and `pattern` its nonzero original rows (unsorted).
    pub(crate) fn btran_sparse(
        &self,
        buf: &mut [f64],
        pattern: &mut Vec<usize>,
        scratch: &mut LuScratch,
    ) {
        let m = self.u_diag.len();
        debug_assert_eq!(buf.len(), m);
        scratch.ensure(m, m);
        let LuScratch {
            bits,
            z,
            stage,
            pops,
        } = scratch;
        let bits = &mut bits[..m.div_ceil(64)];
        // Forward Uᵀ solve, ascending: z_j = (c_j − Σ_k u_kj z_k) / u_jj.
        // Each nonzero z_k is pushed along row k of U into `buf`, so every
        // c_j loses its nonzero terms in ascending k — the order the dense
        // column loop subtracts them in — without visiting the zero ones.
        let u_rows = self.u_rows();
        for &j in pattern.iter() {
            mark(bits, j);
        }
        stage.clear();
        sweep_up(bits, |j, bits| {
            let zj = buf[j] / self.u_diag[j];
            buf[j] = 0.0;
            if is_nonzero(zj) {
                z[j] = zj;
                stage.push(j);
                for &(j2, u) in u_rows.row(j) {
                    buf[j2] -= u * zj;
                    mark(bits, j2);
                }
            }
        });
        for &j in stage.iter() {
            mark(bits, j);
        }
        self.l.btran_sparse(buf, pattern, bits, z, pops);
    }
}

/// One product-form update of the eta file: the basis change at position
/// `r` whose FTRAN column was `w`.
#[derive(Debug, Clone)]
pub(crate) struct Eta {
    /// Basis position of the pivot.
    r: usize,
    /// Nonzero entries of the FTRAN column `w`, excluding position `r`,
    /// ascending (their order is part of the arithmetic of the `Bᵀ` solve).
    entries: Vec<(usize, f64)>,
    /// Pivot element `w[r]`.
    wr: f64,
}

impl Eta {
    /// The eta of the pivot at `r` with FTRAN column `w`. `pat`, when
    /// known, must be a duplicate-free ascending superset of the nonzeros
    /// of `w`; either way the entries come out the same.
    fn new(r: usize, w: &[f64], pat: Option<&[usize]>, ptol: f64) -> Eta {
        let wr = w[r];
        debug_assert!(wr.abs() > ptol / 10.0, "tiny pivot in eta");
        let entries = match pat {
            Some(pat) => {
                debug_assert!(pat.windows(2).all(|p| p[0] < p[1]), "pattern not sorted");
                pat.iter()
                    .filter(|&&i| i != r && is_nonzero(w[i]))
                    .map(|&i| (i, w[i]))
                    .collect()
            }
            None => w
                .iter()
                .enumerate()
                .filter(|&(i, &v)| i != r && is_nonzero(v))
                .map(|(i, &v)| (i, v))
                .collect(),
        };
        Eta { r, entries, wr }
    }
}

/// Dynamic (Forrest–Tomlin) refactorization: rebuild once the factors hold
/// this many times the nonzeros they started with. Below it, an aging
/// factorization is still cheaper to apply than a rebuild is to run.
const DYNAMIC_FILL_LIMIT: f64 = 2.0;

/// Dynamic (Forrest–Tomlin) refactorization: hard cap on recorded updates,
/// as a multiple of [`LpOptions::refactor_every`](crate::LpOptions::refactor_every), so slowly-filling
/// factorizations still retire before roundoff accumulates.
const DYNAMIC_UPDATE_CAP: usize = 4;

/// The maintained representation of the basis inverse, selected by the
/// solve's [`Engine::basis_update`](crate::Engine::basis_update).
///
/// The `Eta` variant is the legacy product-form scheme whose pivot
/// sequence the golden tests pin. The `Ft` variant applies Forrest–Tomlin
/// updates directly to a Markowitz-ordered `U` factor instead of appending
/// etas, which keeps FTRAN/BTRAN cost flat as pivots accumulate.
// One instance lives per solve (never in a collection), so the size gap
// between variants costs nothing; boxing would tax every FTRAN/BTRAN.
#[allow(clippy::large_enum_variant)]
pub(crate) enum BasisRepr {
    Eta { lu: LuFactors, etas: Vec<Eta> },
    Ft(FtFactors),
}

impl BasisRepr {
    /// Factorizes the basis columns `basic` of `a` into the representation
    /// `kind` names, accepting pivots larger than `pivot_tol`.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::SingularBasis`] if the basis is numerically
    /// singular.
    pub(crate) fn factorize(
        a: &CscMatrix,
        basic: &[usize],
        pivot_tol: f64,
        kind: BasisUpdate,
    ) -> Result<Self, LpError> {
        Ok(match kind {
            BasisUpdate::Eta => BasisRepr::Eta {
                lu: LuFactors::factorize(a, basic, pivot_tol, PivotRule::Partial)?,
                etas: Vec::new(),
            },
            BasisUpdate::FtMarkowitz => BasisRepr::Ft(FtFactors::new(LuFactors::factorize(
                a,
                basic,
                pivot_tol,
                PivotRule::Markowitz,
            )?)),
        })
    }

    /// Basis changes recorded since the last (re)factorization.
    pub(crate) fn updates_len(&self) -> usize {
        match self {
            BasisRepr::Eta { etas, .. } => etas.len(),
            BasisRepr::Ft(ft) => ft.updates_len(),
        }
    }

    /// Whether the representation is due for a rebuild.
    ///
    /// The eta file keeps the legacy schedule exactly: rebuild after
    /// `refactor_every` recorded updates, because every FTRAN/BTRAN replays
    /// the whole file. Forrest–Tomlin factors rebuild on measured fill-in
    /// growth ([`DYNAMIC_FILL_LIMIT`]) with an update-count backstop
    /// ([`DYNAMIC_UPDATE_CAP`]); the stability half of their trigger is the
    /// pivot test itself, whose rejection [`update`](Self::update) reports.
    pub(crate) fn refactor_due(&self, refactor_every: usize) -> bool {
        match self {
            BasisRepr::Eta { etas, .. } => etas.len() >= refactor_every,
            BasisRepr::Ft(ft) => {
                ft.fill_ratio() > DYNAMIC_FILL_LIMIT
                    || ft.updates_len() >= DYNAMIC_UPDATE_CAP * refactor_every
            }
        }
    }

    /// Records the pivot at basis position `r` (FTRAN column `w`, with its
    /// ascending nonzero pattern when known): the eta file appends an eta,
    /// Forrest–Tomlin updates `U` in place. Returns `false` when a
    /// Forrest–Tomlin update fails its stability test; the factors are then
    /// unchanged and must be rebuilt before the next solve.
    pub(crate) fn update(
        &mut self,
        r: usize,
        w: &[f64],
        wpat: Option<&[usize]>,
        pivot_tol: f64,
    ) -> bool {
        match self {
            BasisRepr::Eta { etas, .. } => {
                etas.push(Eta::new(r, w, wpat, pivot_tol));
                true
            }
            BasisRepr::Ft(ft) => ft.update(r, w, wpat, pivot_tol),
        }
    }

    /// Solves `B w = b` in place (`b` by original row, `w` by basis
    /// position): for the eta file, the LU solve then the etas in order.
    /// `lsc` lends its zeroed `z` and gets it back zeroed.
    pub(crate) fn ftran(&self, buf: &mut [f64], lsc: &mut LuScratch) {
        match self {
            BasisRepr::Eta { lu, etas } => {
                lu.ftran(buf, lsc);
                for eta in etas {
                    let xr = buf[eta.r] / eta.wr;
                    buf[eta.r] = xr;
                    if is_nonzero(xr) {
                        for &(i, wi) in &eta.entries {
                            buf[i] -= wi * xr;
                        }
                    }
                }
            }
            BasisRepr::Ft(ft) => ft.ftran(buf, lsc),
        }
    }

    /// Solves `Bᵀ y = c` in place (`c` by basis position, `y` by original
    /// row): for the eta file, the etas in reverse then the LU solve.
    /// `lsc` lends its zeroed `z` and gets it back zeroed.
    pub(crate) fn btran(&self, buf: &mut [f64], lsc: &mut LuScratch) {
        match self {
            BasisRepr::Eta { lu, etas } => {
                for eta in etas.iter().rev() {
                    let mut s = buf[eta.r];
                    for &(i, wi) in &eta.entries {
                        s -= wi * buf[i];
                    }
                    buf[eta.r] = s / eta.wr;
                }
                lu.btran(buf, lsc);
            }
            BasisRepr::Ft(ft) => ft.btran(buf, lsc),
        }
    }

    /// The dense fallback of both hypersparse solves: a right-hand side
    /// with more than a quarter of its entries nonzero is solved by `solve`
    /// and its result's nonzeros listed in `pattern`. Returns whether it
    /// ran.
    fn solved_densely(
        buf: &mut [f64],
        pattern: &mut Vec<usize>,
        solve: impl FnOnce(&mut [f64]),
    ) -> bool {
        let m = buf.len();
        if pattern.len() * 4 <= m {
            return false;
        }
        solve(buf);
        pattern.clear();
        pattern.extend((0..m).filter(|&i| is_nonzero(buf[i])));
        true
    }

    /// Hypersparse [`ftran`](Self::ftran): `pattern` holds the nonzeros of
    /// `buf` on entry and a duplicate-free superset of them on exit. On the
    /// eta file the result has the dense solve's bits, which the Dantzig
    /// kernel sites rely on.
    pub(crate) fn ftran_sparse(
        &self,
        buf: &mut [f64],
        pattern: &mut Vec<usize>,
        lsc: &mut LuScratch,
    ) {
        if Self::solved_densely(buf, pattern, |b| self.ftran(b, lsc)) {
            return;
        }
        match self {
            BasisRepr::Eta { lu, etas } => {
                lu.ftran_sparse(buf, pattern, lsc);
                if etas.is_empty() {
                    return;
                }
                let bits = &mut lsc.bits;
                for &p in pattern.iter() {
                    mark(bits, p);
                }
                for eta in etas {
                    let xr = buf[eta.r] / eta.wr;
                    buf[eta.r] = xr;
                    if is_nonzero(xr) {
                        if insert(bits, eta.r) {
                            pattern.push(eta.r);
                        }
                        for &(i, wi) in &eta.entries {
                            buf[i] -= wi * xr;
                            if insert(bits, i) {
                                pattern.push(i);
                            }
                        }
                    }
                }
                for &p in pattern.iter() {
                    bits[p >> 6] = 0;
                }
            }
            BasisRepr::Ft(ft) => ft.ftran_sparse(buf, pattern, lsc),
        }
    }

    /// Hypersparse [`btran`](Self::btran), mirror of
    /// [`ftran_sparse`](Self::ftran_sparse).
    pub(crate) fn btran_sparse(
        &self,
        buf: &mut [f64],
        pattern: &mut Vec<usize>,
        lsc: &mut LuScratch,
    ) {
        if Self::solved_densely(buf, pattern, |b| self.btran(b, lsc)) {
            return;
        }
        match self {
            BasisRepr::Eta { lu, etas } => {
                if !etas.is_empty() {
                    lsc.ensure(buf.len(), buf.len());
                    let bits = &mut lsc.bits;
                    for &p in pattern.iter() {
                        mark(bits, p);
                    }
                    for eta in etas.iter().rev() {
                        let mut s = buf[eta.r];
                        for &(i, wi) in &eta.entries {
                            s -= wi * buf[i];
                        }
                        s /= eta.wr;
                        buf[eta.r] = s;
                        if is_nonzero(s) && insert(bits, eta.r) {
                            pattern.push(eta.r);
                        }
                    }
                    for &p in pattern.iter() {
                        bits[p >> 6] = 0;
                    }
                }
                lu.btran_sparse(buf, pattern, lsc);
            }
            BasisRepr::Ft(ft) => ft.btran_sparse(buf, pattern, lsc),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tol::exact_bits;

    /// Dense reference solve via Gaussian elimination with partial pivoting.
    pub(crate) fn dense_solve(a: &[Vec<f64>], b: &[f64]) -> Vec<f64> {
        let m = a.len();
        let mut aug: Vec<Vec<f64>> = a
            .iter()
            .zip(b)
            .map(|(row, &bi)| {
                let mut r = row.clone();
                r.push(bi);
                r
            })
            .collect();
        for col in 0..m {
            let piv = (col..m)
                .max_by(|&i, &j| aug[i][col].abs().partial_cmp(&aug[j][col].abs()).unwrap())
                .unwrap();
            aug.swap(col, piv);
            let p = aug[col][col];
            assert!(p.abs() > 1e-12, "singular test matrix");
            for i in 0..m {
                if i != col && aug[i][col] != 0.0 {
                    let f = aug[i][col] / p;
                    for k in col..=m {
                        aug[i][k] -= f * aug[col][k];
                    }
                }
            }
        }
        (0..m).map(|i| aug[i][m] / aug[i][i]).collect()
    }

    /// The dense basis matrix of columns `basis` of `a`, and its transpose.
    pub(crate) fn basis_dense(a: &CscMatrix, basis: &[usize]) -> [Vec<Vec<f64>>; 2] {
        let dense = a.to_dense();
        let m = a.nrows();
        let bd: Vec<Vec<f64>> = (0..m)
            .map(|r| basis.iter().map(|&c| dense[r][c]).collect())
            .collect();
        let bt = (0..m).map(|r| (0..m).map(|c| bd[c][r]).collect()).collect();
        [bd, bt]
    }

    fn partial(a: &CscMatrix, basis: &[usize]) -> LuFactors {
        LuFactors::factorize(a, basis, 1e-10, PivotRule::Partial).unwrap()
    }

    fn check_ftran_btran(a: &CscMatrix, basis: &[usize]) {
        let lu = partial(a, basis);
        let m = a.nrows();
        let mut lsc = LuScratch::default();
        let [bd, bt] = basis_dense(a, basis);
        // FTRAN against dense solve for a few rhs.
        for t in 0..3 {
            let b: Vec<f64> = (0..m).map(|i| ((i * 7 + t * 3) % 5) as f64 - 2.0).collect();
            let mut buf = b.clone();
            lu.ftran(&mut buf, &mut lsc);
            let want = dense_solve(&bd, &b);
            for i in 0..m {
                assert!(
                    (buf[i] - want[i]).abs() < 1e-8,
                    "ftran mismatch at {i}: {} vs {}",
                    buf[i],
                    want[i]
                );
            }
        }
        // BTRAN: Bᵀ y = c  ⇔ dense transpose solve.
        for t in 0..3 {
            let c: Vec<f64> = (0..m).map(|i| ((i * 11 + t) % 7) as f64 - 3.0).collect();
            let mut buf = c.clone();
            lu.btran(&mut buf, &mut lsc);
            let want = dense_solve(&bt, &c);
            for i in 0..m {
                assert!(
                    (buf[i] - want[i]).abs() < 1e-8,
                    "btran mismatch at {i}: {} vs {}",
                    buf[i],
                    want[i]
                );
            }
        }
    }

    #[test]
    fn identity_basis() {
        // A = [ I | other ]; basis = identity columns.
        let a = CscMatrix::from_triplets(
            3,
            4,
            vec![
                (0, 0, 1.0),
                (1, 1, 1.0),
                (2, 2, 1.0),
                (0, 3, 5.0),
                (2, 3, -1.0),
            ],
        );
        let lu = partial(&a, &[0, 1, 2]);
        let mut lsc = LuScratch::default();
        let mut b = vec![3.0, -2.0, 7.0];
        lu.ftran(&mut b, &mut lsc);
        assert_eq!(b, vec![3.0, -2.0, 7.0]);
        let mut c = vec![1.0, 2.0, 3.0];
        lu.btran(&mut c, &mut lsc);
        assert_eq!(c, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn general_basis_matches_dense() {
        let a = CscMatrix::from_triplets(
            3,
            5,
            vec![
                (0, 0, 2.0),
                (1, 0, 1.0),
                (0, 1, 1.0),
                (2, 1, 3.0),
                (1, 2, 4.0),
                (2, 2, 1.0),
                (0, 3, 1.0),
                (1, 4, 1.0),
            ],
        );
        check_ftran_btran(&a, &[0, 1, 2]);
        check_ftran_btran(&a, &[3, 1, 2]);
        check_ftran_btran(&a, &[0, 4, 1]);
    }

    #[test]
    fn permutation_heavy_basis() {
        // Columns that force row pivoting in a scrambled order.
        let a = CscMatrix::from_triplets(
            4,
            4,
            vec![
                (3, 0, 1.0),
                (0, 1, 1.0),
                (2, 1, 0.5),
                (1, 2, -2.0),
                (2, 3, 1.0),
                (0, 3, 0.25),
            ],
        );
        check_ftran_btran(&a, &[0, 1, 2, 3]);
    }

    #[test]
    fn singular_detected() {
        // Two identical columns, under either pivot rule.
        let a = CscMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 1, 1.0)]);
        for rule in [PivotRule::Partial, PivotRule::Markowitz] {
            assert_eq!(
                LuFactors::factorize(&a, &[0, 1], 1e-10, rule).unwrap_err(),
                LpError::SingularBasis
            );
        }
    }

    /// Sparse solves must agree with the dense ones bit for bit and report
    /// exactly the nonzero pattern, for every unit rhs and a couple of
    /// multi-entry ones.
    fn check_sparse_solves(a: &CscMatrix, basis: &[usize]) {
        let lu = partial(a, basis);
        let m = a.nrows();
        let mut scratch = LuScratch::default();
        let mut rhss: Vec<Vec<usize>> = (0..m).map(|i| vec![i]).collect();
        if m >= 3 {
            rhss.push(vec![0, m - 1]);
            rhss.push(vec![1, 2]);
        }
        type Dense = fn(&LuFactors, &mut [f64], &mut LuScratch);
        type Sparse = fn(&LuFactors, &mut [f64], &mut Vec<usize>, &mut LuScratch);
        let pairs: [(Dense, Sparse); 2] = [
            (LuFactors::ftran, LuFactors::ftran_sparse),
            (LuFactors::btran, LuFactors::btran_sparse),
        ];
        for rows in rhss {
            for &(solve, sparse) in &pairs {
                let mut dense_buf = vec![0.0; m];
                let mut sparse_buf = vec![0.0; m];
                for (t, &r) in rows.iter().enumerate() {
                    dense_buf[r] = 1.5 + t as f64;
                    sparse_buf[r] = 1.5 + t as f64;
                }
                let mut pattern = rows.clone();
                solve(&lu, &mut dense_buf, &mut scratch);
                sparse(&lu, &mut sparse_buf, &mut pattern, &mut scratch);
                for i in 0..m {
                    assert_eq!(
                        exact_bits(sparse_buf[i]),
                        exact_bits(dense_buf[i]),
                        "sparse/dense mismatch at {i}: {} vs {}",
                        sparse_buf[i],
                        dense_buf[i]
                    );
                }
                let mut sorted = pattern.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), pattern.len(), "pattern has duplicates");
                for i in 0..m {
                    assert_eq!(
                        pattern.contains(&i),
                        sparse_buf[i] != 0.0,
                        "pattern wrong at {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn sparse_solves_match_dense() {
        let a = CscMatrix::from_triplets(
            3,
            5,
            vec![
                (0, 0, 2.0),
                (1, 0, 1.0),
                (0, 1, 1.0),
                (2, 1, 3.0),
                (1, 2, 4.0),
                (2, 2, 1.0),
                (0, 3, 1.0),
                (1, 4, 1.0),
            ],
        );
        check_sparse_solves(&a, &[0, 1, 2]);
        check_sparse_solves(&a, &[3, 1, 2]);
        check_sparse_solves(&a, &[0, 4, 1]);
        let p = CscMatrix::from_triplets(
            4,
            4,
            vec![
                (3, 0, 1.0),
                (0, 1, 1.0),
                (2, 1, 0.5),
                (1, 2, -2.0),
                (2, 3, 1.0),
                (0, 3, 0.25),
            ],
        );
        check_sparse_solves(&p, &[0, 1, 2, 3]);
    }

    /// A deterministic xorshift stream of floats in `[0, 1)`.
    pub(crate) fn uniform(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A deterministic sparse basis matrix of dimension `m` whose factors
    /// have long `L` and `U` columns, with inexact coefficients so that any
    /// change in the order of a sum changes its bits.
    fn random_sparse_basis(m: usize, seed: u64) -> CscMatrix {
        let mut next = uniform(seed);
        let mut trips = Vec::new();
        for c in 0..m {
            trips.push((c, c, 2.0 + next()));
            for r in 0..m {
                if r != c && next() < 3.0 / m as f64 {
                    trips.push((r, c, next() * 2.0 - 1.0));
                }
            }
        }
        CscMatrix::from_triplets(m, m, trips)
    }

    #[test]
    fn sparse_solves_match_dense_bit_for_bit_on_random_bases() {
        for (m, seed) in [(12, 7u64), (40, 11), (90, 13)] {
            let a = random_sparse_basis(m, seed);
            let basis: Vec<usize> = (0..m).collect();
            check_sparse_solves(&a, &basis);
            let reversed: Vec<usize> = (0..m).rev().collect();
            check_sparse_solves(&a, &reversed);
        }
    }

    /// A factorization leaves the transposed adjacencies unbuilt, and so
    /// do the dense solves and the hypersparse forward solve; the first
    /// hypersparse transposed solve builds both.
    #[test]
    fn transposes_wait_for_the_first_hypersparse_transposed_solve() {
        let m = 90;
        let a = random_sparse_basis(m, 17);
        let basis: Vec<usize> = (0..m).collect();
        let lu = LuFactors::factorize(&a, &basis, 1e-10, PivotRule::Partial).unwrap();
        let built = |lu: &LuFactors| (lu.l.deps.get().is_some(), lu.u_rows.get().is_some());
        assert_eq!(built(&lu), (false, false), "after factorize");
        let mut lsc = LuScratch::default();
        let unit = |i: usize| {
            let mut buf = vec![0.0; m];
            buf[i] = 1.0;
            buf
        };
        lu.ftran(&mut unit(3), &mut lsc);
        lu.btran(&mut unit(3), &mut lsc);
        lu.ftran_sparse(&mut unit(3), &mut vec![3], &mut lsc);
        assert_eq!(built(&lu), (false, false), "after dense and forward solves");
        lu.btran_sparse(&mut unit(5), &mut vec![5], &mut lsc);
        assert_eq!(built(&lu), (true, true), "after a transposed sparse solve");
    }

    /// The factors of a textbook dense left-looking elimination of the
    /// basis columns `basis` of `a` under `rule`.
    struct DenseFactors {
        /// Basis position factored at each pivot.
        order: Vec<usize>,
        pivot_row: Vec<usize>,
        /// Per pivot: `L` below the diagonal (rows ascending), `U` above
        /// it (earlier pivots ascending), and the diagonal.
        l: Vec<Vec<(usize, f64)>>,
        u: Vec<Vec<(usize, f64)>>,
        diag: Vec<f64>,
    }

    /// Each column in turn is copied out dense, every earlier pivot in
    /// ascending order is applied to it, and the pivot row is chosen among
    /// all rows still free by `rule`'s documented criterion. Pivot ties
    /// would leave that criterion open, so the inputs must have none.
    fn dense_left_looking(a: &CscMatrix, basis: &[usize], rule: PivotRule) -> DenseFactors {
        let m = a.nrows();
        let [bd, _] = basis_dense(a, basis);
        let col_nnz = |p: usize| (0..m).filter(|&r| bd[r][p] != 0.0).count();
        let row_count: Vec<usize> = (0..m)
            .map(|r| bd[r].iter().filter(|&&v| v != 0.0).count())
            .collect();
        let mut order: Vec<usize> = (0..m).collect();
        if rule == PivotRule::Markowitz {
            order.sort_by_key(|&p| (col_nnz(p), p));
        }
        let mut f = DenseFactors {
            order: order.clone(),
            pivot_row: Vec::new(),
            l: Vec::new(),
            u: Vec::new(),
            diag: Vec::new(),
        };
        let mut pivoted = vec![false; m];
        for p in order {
            let mut x: Vec<f64> = (0..m).map(|r| bd[r][p]).collect();
            let mut u_col = Vec::new();
            for k in 0..f.pivot_row.len() {
                let xk = x[f.pivot_row[k]];
                if xk != 0.0 {
                    u_col.push((k, xk));
                    for &(r, mult) in &f.l[k] {
                        x[r] -= xk * mult;
                    }
                }
            }
            let free: Vec<usize> = (0..m).filter(|&r| !pivoted[r] && x[r] != 0.0).collect();
            let vmax = free.iter().fold(0.0f64, |v, &r| v.max(x[r].abs()));
            assert!(vmax > 1e-10, "singular test basis");
            let row = match rule {
                PivotRule::Partial => {
                    let ties: Vec<usize> = free
                        .iter()
                        .copied()
                        .filter(|&r| x[r].abs() == vmax)
                        .collect();
                    assert_eq!(ties.len(), 1, "pivot tie in the test basis: {ties:?}");
                    ties[0]
                }
                PivotRule::Markowitz => free
                    .iter()
                    .copied()
                    .filter(|&r| x[r].abs() >= MARKOWITZ_REL * vmax)
                    .min_by_key(|&r| (row_count[r], r))
                    .unwrap(),
            };
            pivoted[row] = true;
            f.pivot_row.push(row);
            f.diag.push(x[row]);
            f.l.push(
                free.iter()
                    .filter(|&&r| r != row)
                    .map(|&r| (r, x[r] / x[row]))
                    .collect(),
            );
            f.u.push(u_col);
        }
        f
    }

    /// A slack-heavy basis of `[I | S]`: `q` structural columns first,
    /// then the slacks of all rows but the structurals' home rows. Each
    /// structural's largest entry lies in a slack row, so under partial
    /// pivoting it takes that row and the row's slack meets its fill later.
    fn slack_heavy_basis(m: usize, q: usize, seed: u64) -> (CscMatrix, Vec<usize>) {
        let mut next = uniform(seed);
        let mut trips: Vec<(usize, usize, f64)> = (0..m).map(|r| (r, r, 1.0)).collect();
        // Home rows are every fourth row; the big entries go elsewhere.
        let home = |i: usize| 4 * i;
        for i in 0..q {
            let c = m + i;
            let big = 4 * ((next() * q as f64) as usize) + 1 + (next() * 3.0) as usize;
            trips.push((home(i), c, 1.0 + next()));
            trips.push((big, c, 3.0 + next()));
            for r in 0..m {
                if r != home(i) && r != big && next() < 3.0 / m as f64 {
                    trips.push((r, c, next() * 2.0 - 1.0));
                }
            }
        }
        let a = CscMatrix::from_triplets(m, m + q, trips);
        let slacks = (0..m).filter(|&r| r % 4 != 0 || r / 4 >= q);
        (a, (m..m + q).chain(slacks).collect())
    }

    /// `factorize` computes, bit for bit, the factors of the dense
    /// reference elimination: the pivot order, every `L` multiplier, `U`
    /// entry and diagonal, under both pivot rules. Its derived adjacencies
    /// are the transposes of its columns.
    #[test]
    fn factors_match_dense_reference_elimination_bit_for_bit() {
        let mut cases: Vec<(CscMatrix, Vec<usize>)> = Vec::new();
        for (m, seed) in [(12, 7u64), (90, 13), (200, 17)] {
            let a = random_sparse_basis(m, seed);
            cases.push((a.clone(), (0..m).collect()));
            cases.push((a, (0..m).rev().collect()));
        }
        for (m, q, seed) in [(40, 10, 3u64), (300, 75, 5)] {
            cases.push(slack_heavy_basis(m, q, seed));
        }
        let mut fill_in_slacks = 0;
        for (a, basis) in &cases {
            let m = a.nrows();
            for rule in [PivotRule::Partial, PivotRule::Markowitz] {
                let lu = LuFactors::factorize(a, basis, 1e-10, rule).unwrap();
                let want = dense_left_looking(a, basis, rule);
                let ctx = format!("m {m} {rule:?}");
                match rule {
                    PivotRule::Partial => assert!(lu.cols.is_empty(), "{ctx}"),
                    PivotRule::Markowitz => assert_eq!(lu.cols, want.order, "{ctx}"),
                }
                assert_eq!(lu.l.pivot_row, want.pivot_row, "{ctx}: pivot rows");
                let bits = |col: &[(usize, f64)]| -> Vec<(usize, u64)> {
                    col.iter().map(|&(i, v)| (i, v.to_bits())).collect()
                };
                for j in 0..m {
                    let mut l_col = lu.l.col(j).to_vec();
                    l_col.sort_by_key(|&(r, _)| r);
                    assert_eq!(bits(&l_col), bits(&want.l[j]), "{ctx}: L column {j}");
                    assert_eq!(bits(lu.u_col(j)), bits(&want.u[j]), "{ctx}: U column {j}");
                    assert_eq!(
                        lu.u_diag[j].to_bits(),
                        want.diag[j].to_bits(),
                        "{ctx}: diagonal {j}"
                    );
                    if rule == PivotRule::Partial
                        && a.col_nnz(basis[j]) == 1
                        && !want.l[j].is_empty()
                    {
                        fill_in_slacks += 1;
                    }
                }
                for k in 0..m {
                    let deps: Vec<usize> = (0..k)
                        .filter(|&j| lu.l.col(j).iter().any(|&(r, _)| r == lu.l.pivot_row[k]))
                        .collect();
                    assert_eq!(lu.l.deps().row(k), deps, "{ctx}: Lᵀ dependants of {k}");
                    if rule == PivotRule::Partial {
                        let row: Vec<(usize, f64)> = (k + 1..m)
                            .flat_map(|j| {
                                lu.u_col(j)
                                    .iter()
                                    .filter(|e| e.0 == k)
                                    .map(move |e| (j, e.1))
                            })
                            .collect();
                        assert_eq!(bits(lu.u_rows().row(k)), bits(&row), "{ctx}: U row {k}");
                    }
                }
            }
        }
        assert!(
            fill_in_slacks > 20,
            "slack columns met too little fill: {fill_in_slacks}"
        );
    }

    /// An eta-file basis of a pseudo-random sparse `m × 2m` matrix after
    /// `pivots` product-form updates, built the way the simplex builds it
    /// (largest-magnitude pivot of each FTRAN column).
    fn eta_basis_after(m: usize, pivots: usize) -> BasisRepr {
        let mut next = uniform(0x9e3779b97f4a7c15u64 ^ m as u64);
        let mut trips = Vec::new();
        for c in 0..2 * m {
            if c < m {
                trips.push((c, c, 2.0 + next()));
            }
            for r in 0..m {
                if r != c && next() < 3.0 / m as f64 {
                    trips.push((r, c, next() * 2.0 - 1.0));
                }
            }
        }
        let a = CscMatrix::from_triplets(m, 2 * m, trips);
        let basis: Vec<usize> = (0..m).collect();
        let pivot_tol = 1e-9;
        let mut repr = BasisRepr::factorize(&a, &basis, pivot_tol, BasisUpdate::Eta).unwrap();
        let mut lsc = LuScratch::default();
        for q in m..m + pivots {
            let mut w = vec![0.0; m];
            a.col_axpy(q, 1.0, &mut w);
            repr.ftran(&mut w, &mut lsc);
            let r = (0..m)
                .max_by(|&i, &k| w[i].abs().total_cmp(&w[k].abs()))
                .unwrap();
            if w[r].abs() > 1e-6 {
                assert!(repr.update(r, &w, None, pivot_tol));
            }
        }
        assert!(repr.updates_len() * 2 > pivots, "too few etas");
        repr
    }

    /// The eta file's hypersparse solves reproduce the dense ones bit for
    /// bit (up to the sign of a zero) over a non-empty eta file.
    #[test]
    fn eta_file_sparse_solves_match_dense_bit_for_bit() {
        for (m, pivots) in [(30, 6), (80, 20)] {
            let repr = eta_basis_after(m, pivots);
            let mut lsc = LuScratch::default();
            let mut rhss: Vec<Vec<usize>> = (0..m).step_by(3).map(|i| vec![i]).collect();
            rhss.push(vec![1, m / 2, m - 2]);
            type Dense = fn(&BasisRepr, &mut [f64], &mut LuScratch);
            type Sparse = fn(&BasisRepr, &mut [f64], &mut Vec<usize>, &mut LuScratch);
            let pairs: [(Dense, Sparse); 2] = [
                (BasisRepr::ftran, BasisRepr::ftran_sparse),
                (BasisRepr::btran, BasisRepr::btran_sparse),
            ];
            for rows in &rhss {
                for &(dense, sparse) in &pairs {
                    let mut dense_buf = vec![0.0; m];
                    for (t, &r) in rows.iter().enumerate() {
                        dense_buf[r] = 0.7 + t as f64 / 3.0;
                    }
                    let mut sparse_buf = dense_buf.clone();
                    let mut pattern = rows.clone();
                    dense(&repr, &mut dense_buf, &mut lsc);
                    sparse(&repr, &mut sparse_buf, &mut pattern, &mut lsc);
                    for i in 0..m {
                        assert_eq!(
                            exact_bits(sparse_buf[i]),
                            exact_bits(dense_buf[i]),
                            "m {m} rhs {rows:?} at {i}: {} vs {}",
                            sparse_buf[i],
                            dense_buf[i]
                        );
                        assert!(
                            is_zero(dense_buf[i]) || pattern.contains(&i),
                            "m {m} rhs {rows:?}: nonzero {i} missing from the pattern"
                        );
                    }
                    assert!(lsc.bits.iter().all(|&b| b == 0), "bitmap left dirty");
                }
            }
        }
    }

    #[test]
    fn scratch_reuses_and_compacts_across_dimensions() {
        // A scratch that served a large solve must keep working — and give
        // its memory back — when reused for much smaller systems.
        let mut scratch = LuScratch::default();
        scratch.ensure(10_000, 10_000);
        assert_eq!(scratch.z.len(), 10_000);
        assert_eq!(scratch.bits.len(), 157);
        let small = CscMatrix::from_triplets(2, 2, vec![(0, 0, 2.0), (1, 0, 1.0), (1, 1, 3.0)]);
        let lu = partial(&small, &[0, 1]);
        let mut buf = vec![0.0; 2];
        buf[0] = 4.0;
        let mut pattern = vec![0];
        lu.ftran_sparse(&mut buf, &mut pattern, &mut scratch);
        assert!(
            scratch.z.len() <= LuScratch::SHRINK_FACTOR * 64
                && scratch.bits.len() <= LuScratch::SHRINK_FACTOR,
            "oversized scratch was not compacted: {} values, {} words",
            scratch.z.len(),
            scratch.bits.len()
        );
        // Still correct after the compaction, and clean for the next call.
        assert!((buf[0] - 2.0).abs() < 1e-12 && (buf[1] + 2.0 / 3.0).abs() < 1e-12);
        lu.btran_sparse(&mut buf, &mut pattern, &mut scratch);
        assert!(scratch.bits.iter().all(|&b| b == 0));
        assert!(scratch.z.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pseudo_random_matrices_match_dense() {
        // Deterministic pseudo-random dense-ish matrices of sizes 2..=8.
        let mut next = uniform(0x9E3779B97F4A7C15u64);
        for m in 2..=8usize {
            let mut trips = Vec::new();
            for r in 0..m {
                for c in 0..m {
                    let v = next();
                    if v > 0.4 || r == c {
                        trips.push((r, c, v * 4.0 - 2.0 + if r == c { 3.0 } else { 0.0 }));
                    }
                }
            }
            let a = CscMatrix::from_triplets(m, m, trips);
            let basis: Vec<usize> = (0..m).collect();
            check_ftran_btran(&a, &basis);
        }
    }
}
