//! Sparse LU factorization of simplex basis matrices.
//!
//! Left-looking column LU with partial pivoting (`P B = L U` with unit-lower
//! `L`). Basis matrices in this workload are dominated by slack/artificial
//! unit columns, so the factors stay extremely sparse and refactorization is
//! cheap; product-form (eta) updates between refactorizations live in
//! [`crate::simplex`].
#![allow(clippy::needless_range_loop)] // dense kernels index several arrays in lockstep

use crate::sparse::CscMatrix;
use crate::tol::{is_nonzero, is_zero};
use crate::LpError;

/// LU factors of a basis matrix, with row pivoting.
///
/// Storage is in "pivot coordinates": pivot position `j` corresponds to the
/// `j`-th basis column; `pivot_row[j]` is the original row chosen as its
/// pivot.
#[derive(Debug, Clone)]
pub struct LuFactors {
    pub(crate) m: usize,
    /// `pivot_row[j]` = original row index of pivot `j`.
    pub(crate) pivot_row: Vec<usize>,
    /// `pivot_pos[r]` = pivot position of original row `r`.
    pub(crate) pivot_pos: Vec<usize>,
    /// Column `j` of `L` below the diagonal: `(original_row, multiplier)`.
    pub(crate) l_cols: Vec<Vec<(usize, f64)>>,
    /// Column `j` of `U` above the diagonal: `(pivot_pos k < j, value)`.
    pub(crate) u_cols: Vec<Vec<(usize, f64)>>,
    /// Diagonal of `U`.
    pub(crate) u_diag: Vec<f64>,
    /// Row-wise copy of `U` in one array: row `k` (see
    /// [`u_row`](Self::u_row)) holds `(column j > k, u_kj)`, columns
    /// ascending. Drives the hypersparse `Uᵀ` solve, which pushes each
    /// nonzero `z_k` along its row.
    pub(crate) u_rows: Vec<(usize, f64)>,
    /// Row `k` of `U` is `u_rows[u_row_start[k]..u_row_start[k + 1]]`.
    pub(crate) u_row_start: Vec<usize>,
    /// Reverse adjacency of `Lᵀ`: pivot `k` → pivots `j < k` whose `L`
    /// column touches a row pivoted at `k`. Drives hypersparse BTRAN.
    pub(crate) l_deps: Vec<Vec<usize>>,
}

/// Reusable workspace for the hypersparse (pattern-tracked) triangular
/// solves, owned by the caller so repeated solves allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct LuScratch {
    pub(crate) min_heap: std::collections::BinaryHeap<std::cmp::Reverse<usize>>,
    pub(crate) max_heap: std::collections::BinaryHeap<usize>,
    pub(crate) queued: Vec<bool>,
    /// Worklist bitmap of the [`LuFactors`] solves, one bit per pivot,
    /// swept in pivot order (see [`sweep_up`]).
    pub(crate) bits: Vec<u64>,
    pub(crate) z: Vec<f64>,
    pub(crate) stage: Vec<usize>,
    pub(crate) pops: Vec<usize>,
}

/// Queues pivot `j` in a worklist bitmap.
fn mark(bits: &mut [u64], j: usize) {
    bits[j >> 6] |= 1 << (j & 63);
}

/// Visits the queued pivots of `bits` in ascending order, unqueueing each
/// before `visit` runs. `visit` may queue only pivots above the one it is
/// given, so one pass over the words sees every pivot exactly once — the
/// order a min-heap worklist pops them in, for `O(m/64)` extra work.
fn sweep_up(bits: &mut [u64], mut visit: impl FnMut(usize, &mut [u64])) {
    for w in 0..bits.len() {
        while bits[w] != 0 {
            let b = bits[w].trailing_zeros() as usize;
            bits[w] &= bits[w] - 1;
            visit(w * 64 + b, bits);
        }
    }
}

/// Descending mirror of [`sweep_up`]: `visit` may queue only pivots below
/// the one it is given.
fn sweep_down(bits: &mut [u64], mut visit: impl FnMut(usize, &mut [u64])) {
    for w in (0..bits.len()).rev() {
        while bits[w] != 0 {
            let b = 63 - bits[w].leading_zeros() as usize;
            bits[w] &= !(1 << b);
            visit(w * 64 + b, bits);
        }
    }
}

impl LuScratch {
    /// Once the retained capacity exceeds this multiple of the current
    /// problem dimension (and the dimension is non-trivial), the workspace
    /// is compacted: a scratch that served a large instance must not pin
    /// its memory for the lifetime of a solver now working on small ones.
    const SHRINK_FACTOR: usize = 8;

    /// Prepares the workspace for a solve of dimension `m`: grows the
    /// dense arrays when `m` grew, compacts everything (including the heap
    /// buffers, which `BinaryHeap` never shrinks on its own) when `m`
    /// shrank far below the retained capacity, and asserts — in debug
    /// builds — that the previous caller left the workspace clean. Every
    /// hypersparse solve, legacy or Forrest–Tomlin, enters through here.
    pub(crate) fn ensure(&mut self, m: usize) {
        if self.queued.len() < m {
            self.queued.resize(m, false);
            self.bits.resize(m.div_ceil(64), 0);
            self.z.resize(m, 0.0);
        } else if self.queued.len() > Self::SHRINK_FACTOR * m.max(64) {
            self.queued.truncate(m);
            self.queued.shrink_to_fit();
            self.bits.truncate(m.div_ceil(64));
            self.bits.shrink_to_fit();
            self.z.truncate(m);
            self.z.shrink_to_fit();
            self.min_heap.shrink_to(m);
            self.max_heap.shrink_to(m);
            self.stage.truncate(0);
            self.stage.shrink_to(m);
            self.pops.truncate(0);
            self.pops.shrink_to(m);
        }
        debug_assert!(self.min_heap.is_empty() && self.max_heap.is_empty());
        debug_assert!(self.queued.iter().all(|&q| !q), "scratch left dirty");
        debug_assert!(self.bits.iter().all(|&b| b == 0), "scratch left dirty");
        debug_assert!(self.z.iter().all(|&v| is_zero(v)), "scratch left dirty");
    }
}

impl LuFactors {
    /// Factorizes the basis formed by columns `basis` of `a`.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::SingularBasis`] if no acceptable pivot (magnitude
    /// `> pivot_tol`) exists for some column.
    pub fn factorize(a: &CscMatrix, basis: &[usize], pivot_tol: f64) -> Result<Self, LpError> {
        let m = a.nrows();
        assert_eq!(basis.len(), m, "basis must have one column per row");
        let mut pivot_row = vec![usize::MAX; m];
        let mut pivot_pos = vec![usize::MAX; m];
        let mut l_cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut u_cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut u_diag = Vec::with_capacity(m);

        // Dense workspace reused per column, with a membership mask so each
        // row enters `touched` at most once (a value can cancel to exactly
        // zero and be rewritten; duplicate entries would corrupt `l_col`).
        let mut x = vec![0.0f64; m];
        let mut in_touched = vec![false; m];
        let mut touched: Vec<usize> = Vec::with_capacity(64);

        // Worklist of pivot positions whose rows hold nonzeros, processed in
        // ascending order (a binary min-heap). This keeps the update loop
        // proportional to actual fill-in instead of `O(j)` per column.
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<usize>> =
            std::collections::BinaryHeap::new();
        let mut queued = vec![false; m];

        for (j, &col) in basis.iter().enumerate() {
            // Scatter b_j, queueing already-pivoted rows for elimination.
            for (r, v) in a.col(col) {
                x[r] = v;
                if !in_touched[r] {
                    in_touched[r] = true;
                    touched.push(r);
                }
                let k = pivot_pos[r];
                if k != usize::MAX && !queued[k] {
                    queued[k] = true;
                    heap.push(std::cmp::Reverse(k));
                }
            }
            // Apply previous columns (solve with partial L) in ascending
            // pivot order; updates may queue further pivots downstream.
            let mut u_col = Vec::new();
            while let Some(std::cmp::Reverse(k)) = heap.pop() {
                queued[k] = false;
                let xk = x[pivot_row[k]];
                if is_nonzero(xk) {
                    u_col.push((k, xk));
                    for &(r, mult) in &l_cols[k] {
                        if !in_touched[r] {
                            in_touched[r] = true;
                            touched.push(r);
                        }
                        x[r] -= xk * mult;
                        let kr = pivot_pos[r];
                        if kr != usize::MAX && kr > k && !queued[kr] {
                            queued[kr] = true;
                            heap.push(std::cmp::Reverse(kr));
                        }
                    }
                }
            }
            // Pivot: largest magnitude among rows without a pivot yet.
            let mut best_row = usize::MAX;
            let mut best_val = 0.0f64;
            for &r in &touched {
                if pivot_pos[r] == usize::MAX && x[r].abs() > best_val {
                    best_val = x[r].abs();
                    best_row = r;
                }
            }
            if best_row == usize::MAX || best_val <= pivot_tol {
                return Err(LpError::SingularBasis);
            }
            let piv = x[best_row];
            pivot_row[j] = best_row;
            pivot_pos[best_row] = j;
            let mut l_col = Vec::new();
            for &r in &touched {
                if pivot_pos[r] == usize::MAX && is_nonzero(x[r]) {
                    l_col.push((r, x[r] / piv));
                }
            }
            u_diag.push(piv);
            u_cols.push(u_col);
            l_cols.push(l_col);
            // Clear workspace.
            for &r in &touched {
                x[r] = 0.0;
                in_touched[r] = false;
            }
            touched.clear();
        }
        // Adjacency for the hypersparse solves. `u_row(k)` is row `k` of U
        // (filled by ascending column, so each row comes out sorted);
        // `l_deps[k]` lists the pivots whose L column touches the row
        // pivoted at `k`.
        let mut u_row_start = vec![0usize; m + 1];
        for u_col in &u_cols {
            for &(k, _) in u_col {
                u_row_start[k + 1] += 1;
            }
        }
        for k in 0..m {
            u_row_start[k + 1] += u_row_start[k];
        }
        let mut fill = u_row_start.clone();
        let mut u_rows = vec![(0, 0.0); u_row_start[m]];
        for (j, u_col) in u_cols.iter().enumerate() {
            for &(k, u) in u_col {
                u_rows[fill[k]] = (j, u);
                fill[k] += 1;
            }
        }
        let mut l_deps: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (j, l_col) in l_cols.iter().enumerate() {
            for &(r, _) in l_col {
                l_deps[pivot_pos[r]].push(j);
            }
        }
        Ok(Self {
            m,
            pivot_row,
            pivot_pos,
            l_cols,
            u_cols,
            u_diag,
            u_rows,
            u_row_start,
            l_deps,
        })
    }

    /// Row `k` of `U` above the diagonal: `(column j > k, u_kj)`, columns
    /// ascending.
    fn u_row(&self, k: usize) -> &[(usize, f64)] {
        &self.u_rows[self.u_row_start[k]..self.u_row_start[k + 1]]
    }

    /// Dimension of the basis.
    #[allow(dead_code)] // part of the module's natural API surface
    pub fn dim(&self) -> usize {
        self.m
    }

    /// Stored nonzeros across both factors (`L` off-diagonals, `U`
    /// off-diagonals, and the `U` diagonal) — the baseline the dynamic
    /// refactorization trigger measures update fill-in against.
    pub fn nnz(&self) -> usize {
        self.m
            + self.l_cols.iter().map(Vec::len).sum::<usize>()
            + self.u_cols.iter().map(Vec::len).sum::<usize>()
    }

    /// Solves `B w = b` in place: on entry `buf` holds `b` (indexed by
    /// original row); on exit it holds `w` (indexed by basis position).
    pub fn ftran(&self, buf: &mut [f64]) {
        debug_assert_eq!(buf.len(), self.m);
        // Forward: z_j = (L^{-1} P b)_j, accumulated in original-row space.
        for j in 0..self.m {
            let zj = buf[self.pivot_row[j]];
            if is_nonzero(zj) {
                for &(r, mult) in &self.l_cols[j] {
                    buf[r] -= zj * mult;
                }
            }
        }
        // Gather z into pivot coordinates.
        let mut z: Vec<f64> = (0..self.m).map(|j| buf[self.pivot_row[j]]).collect();
        // Backward: U w = z.
        for j in (0..self.m).rev() {
            let wj = z[j] / self.u_diag[j];
            z[j] = wj;
            if is_nonzero(wj) {
                for &(k, u) in &self.u_cols[j] {
                    z[k] -= wj * u;
                }
            }
        }
        buf.copy_from_slice(&z);
    }

    /// Solves `Bᵀ y = c` in place: on entry `buf` holds `c` (indexed by basis
    /// position); on exit it holds `y` (indexed by original row).
    pub fn btran(&self, buf: &mut [f64]) {
        debug_assert_eq!(buf.len(), self.m);
        // Forward: Uᵀ z = c.
        let mut z = vec![0.0f64; self.m];
        for j in 0..self.m {
            let mut s = buf[j];
            for &(k, u) in &self.u_cols[j] {
                s -= u * z[k];
            }
            z[j] = s / self.u_diag[j];
        }
        // Backward: Lᵀ v = z (pivot coordinates).
        for j in (0..self.m).rev() {
            let mut s = z[j];
            for &(r, mult) in &self.l_cols[j] {
                s -= mult * z[self.pivot_pos[r]];
            }
            z[j] = s;
        }
        // Scatter to original rows: y[pivot_row[j]] = v[j].
        for r in buf.iter_mut() {
            *r = 0.0;
        }
        for j in 0..self.m {
            buf[self.pivot_row[j]] = z[j];
        }
    }

    /// Hypersparse [`ftran`](Self::ftran): same solve, but only the pivot
    /// positions reachable from the nonzeros of `b` are visited.
    ///
    /// On entry `buf` holds `b` and `pattern` its nonzero original rows (no
    /// duplicates); positions outside `pattern` must be zero. On exit `buf`
    /// holds `w` and `pattern` its nonzero basis positions (unsorted).
    /// Work is proportional to the solution's fill-in, not to `m`.
    pub fn ftran_sparse(&self, buf: &mut [f64], pattern: &mut Vec<usize>, scratch: &mut LuScratch) {
        debug_assert_eq!(buf.len(), self.m);
        scratch.ensure(self.m);
        let LuScratch { bits, z, stage, .. } = scratch;
        // The active words of the bitmap: `ensure` keeps a longer one after
        // serving a larger dimension.
        let bits = &mut bits[..self.m.div_ceil(64)];
        // Forward L solve: process reachable pivots in ascending order so a
        // row is fully updated before its own pivot is visited (the
        // invariant the dense loop gets for free).
        for &r in pattern.iter() {
            mark(bits, self.pivot_pos[r]);
        }
        stage.clear();
        sweep_up(bits, |j, bits| {
            let zj = buf[self.pivot_row[j]];
            buf[self.pivot_row[j]] = 0.0;
            if is_nonzero(zj) {
                z[j] = zj;
                stage.push(j);
                for &(r, mult) in &self.l_cols[j] {
                    buf[r] -= zj * mult;
                    mark(bits, self.pivot_pos[r]);
                }
            }
        });
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
                for &(k, u) in &self.u_cols[j] {
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
    pub fn btran_sparse(&self, buf: &mut [f64], pattern: &mut Vec<usize>, scratch: &mut LuScratch) {
        debug_assert_eq!(buf.len(), self.m);
        scratch.ensure(self.m);
        let LuScratch {
            bits,
            z,
            stage,
            pops,
            ..
        } = scratch;
        let bits = &mut bits[..self.m.div_ceil(64)];
        // Forward Uᵀ solve, ascending: z_j = (c_j − Σ_k u_kj z_k) / u_jj.
        // Each nonzero z_k is pushed along row k of U into `buf`, so every
        // c_j loses its nonzero terms in ascending k — the order the dense
        // column loop subtracts them in — without visiting the zero ones.
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
                for &(j2, u) in self.u_row(j) {
                    buf[j2] -= u * zj;
                    mark(bits, j2);
                }
            }
        });
        // Backward Lᵀ solve, descending: v_j depends on v_k for pivots
        // k > j whose row appears in l_cols[j]; a nonzero v_j feeds the
        // pivots in l_deps[j]. Values stay live until all dependants are
        // done, so clearing happens in the scatter pass below.
        for &j in stage.iter() {
            mark(bits, j);
        }
        pops.clear();
        sweep_down(bits, |j, bits| {
            let mut s = z[j];
            for &(r, mult) in &self.l_cols[j] {
                s -= mult * z[self.pivot_pos[r]];
            }
            z[j] = s;
            pops.push(j);
            if is_nonzero(s) {
                for &k in &self.l_deps[j] {
                    mark(bits, k);
                }
            }
        });
        // Scatter to original rows and clean the workspace.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tol::exact_bits;

    /// Dense reference solve via Gaussian elimination with partial pivoting.
    fn dense_solve(a: &[Vec<f64>], b: &[f64]) -> Vec<f64> {
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

    fn basis_dense(a: &CscMatrix, basis: &[usize]) -> Vec<Vec<f64>> {
        let dense = a.to_dense();
        let m = a.nrows();
        (0..m)
            .map(|r| basis.iter().map(|&c| dense[r][c]).collect())
            .collect()
    }

    fn check_ftran_btran(a: &CscMatrix, basis: &[usize]) {
        let lu = LuFactors::factorize(a, basis, 1e-10).unwrap();
        let m = a.nrows();
        let bd = basis_dense(a, basis);
        // FTRAN against dense solve for a few rhs.
        for t in 0..3 {
            let b: Vec<f64> = (0..m).map(|i| ((i * 7 + t * 3) % 5) as f64 - 2.0).collect();
            let mut buf = b.clone();
            lu.ftran(&mut buf);
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
        let bt: Vec<Vec<f64>> = (0..m).map(|r| (0..m).map(|c| bd[c][r]).collect()).collect();
        for t in 0..3 {
            let c: Vec<f64> = (0..m).map(|i| ((i * 11 + t) % 7) as f64 - 3.0).collect();
            let mut buf = c.clone();
            lu.btran(&mut buf);
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
        let lu = LuFactors::factorize(&a, &[0, 1, 2], 1e-10).unwrap();
        let mut b = vec![3.0, -2.0, 7.0];
        lu.ftran(&mut b);
        assert_eq!(b, vec![3.0, -2.0, 7.0]);
        let mut c = vec![1.0, 2.0, 3.0];
        lu.btran(&mut c);
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
        // Two identical columns.
        let a = CscMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 1, 1.0)]);
        assert_eq!(
            LuFactors::factorize(&a, &[0, 1], 1e-10).unwrap_err(),
            LpError::SingularBasis
        );
    }

    /// Sparse solves must agree with the dense ones bit for bit and report
    /// exactly the nonzero pattern, for every unit rhs and a couple of
    /// multi-entry ones.
    fn check_sparse_solves(a: &CscMatrix, basis: &[usize]) {
        let lu = LuFactors::factorize(a, basis, 1e-10).unwrap();
        let m = a.nrows();
        let mut scratch = LuScratch::default();
        let mut rhss: Vec<Vec<usize>> = (0..m).map(|i| vec![i]).collect();
        if m >= 3 {
            rhss.push(vec![0, m - 1]);
            rhss.push(vec![1, 2]);
        }
        type Dense = fn(&LuFactors, &mut [f64]);
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
                solve(&lu, &mut dense_buf);
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

    /// A deterministic sparse basis matrix of dimension `m` whose factors
    /// have long `L` and `U` columns, with inexact coefficients so that any
    /// change in the order of a sum changes its bits.
    fn random_sparse_basis(m: usize, seed: u64) -> CscMatrix {
        let mut state = seed;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
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

    #[test]
    fn scratch_reuses_and_compacts_across_dimensions() {
        // A scratch that served a large solve must keep working — and give
        // its memory back — when reused for much smaller systems.
        let mut scratch = LuScratch::default();
        scratch.ensure(10_000);
        assert_eq!(scratch.queued.len(), 10_000);
        let small = CscMatrix::from_triplets(2, 2, vec![(0, 0, 2.0), (1, 0, 1.0), (1, 1, 3.0)]);
        let lu = LuFactors::factorize(&small, &[0, 1], 1e-10).unwrap();
        let mut buf = vec![0.0; 2];
        buf[0] = 4.0;
        let mut pattern = vec![0];
        lu.ftran_sparse(&mut buf, &mut pattern, &mut scratch);
        assert!(
            scratch.queued.len() <= LuScratch::SHRINK_FACTOR * 64,
            "oversized scratch was not compacted: {}",
            scratch.queued.len()
        );
        // Still correct after the compaction, and clean for the next call.
        assert!((buf[0] - 2.0).abs() < 1e-12 && (buf[1] + 2.0 / 3.0).abs() < 1e-12);
        lu.btran_sparse(&mut buf, &mut pattern, &mut scratch);
        assert!(scratch.queued.iter().all(|&q| !q));
        assert!(scratch.bits.iter().all(|&b| b == 0));
        assert!(scratch.z.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn lu_nnz_counts_all_stored_entries() {
        let a = CscMatrix::from_triplets(
            2,
            2,
            vec![(0, 0, 2.0), (1, 0, 1.0), (0, 1, 1.0), (1, 1, 3.0)],
        );
        let lu = LuFactors::factorize(&a, &[0, 1], 1e-10).unwrap();
        // Dense 2x2: 1 L off-diagonal + 1 U off-diagonal + 2 diagonals.
        assert_eq!(lu.nnz(), 4);
    }

    #[test]
    fn pseudo_random_matrices_match_dense() {
        // Deterministic pseudo-random dense-ish matrices of sizes 2..=8.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 // in [0,1)
        };
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
