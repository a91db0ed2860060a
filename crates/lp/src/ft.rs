//! Forrest–Tomlin basis maintenance: LU factors updated in place.
//!
//! The legacy path in [`crate::simplex`] keeps the factorization frozen
//! and appends product-form eta columns; every FTRAN/BTRAN then replays
//! the whole eta file, and the only defence against fill-in is a fixed
//! refactorization period. This module instead applies each basis change
//! *to the `U` factor itself* (Forrest–Tomlin, 1972): the leaving
//! column's row is eliminated into a small row-eta, the entering
//! column's spike becomes the new last column of `U`, and the triangular
//! solves keep their hypersparse pattern-tracked form. Fill-in lands
//! where it belongs — in `U` — instead of accumulating as a replayed
//! transformation list.
//!
//! # Representation
//!
//! A factorized basis is `B = L · R₁⁻¹ · … · R_k⁻¹ · U · Q` where
//!
//! * `L` (with its row permutation) is frozen at refactorization time and
//!   stored exactly like [`crate::lu::LuFactors`] stores it;
//! * each `R_i` is a row-eta recorded by update `i` (the elimination of
//!   the leaving row), applied to the right-hand side between the `L`
//!   and `U` solves;
//! * `U` is the *live* upper-triangular factor, stored both column-wise
//!   and row-wise with values so updates can walk rows cheaply;
//! * `Q` maps **slots** to basis positions. A slot is the sequence index
//!   a column had at factorization time; when a column is replaced, the
//!   entering column inherits the leaving column's slot, so `L`, the
//!   etas, and the row lists never need relabelling. Only the
//!   triangular *order* of the slots changes (the updated slot moves to
//!   the last position).
//!
//! # Stability
//!
//! `update` is read-only until the transformed diagonal `d` is known; if
//! `d` fails [`crate::tol::ft_pivot_ok`] the factors are left untouched
//! and the caller refactorizes. The factorization itself pivots by
//! (static Markowitz count × relative stability) instead of pure partial
//! pivoting, trading a bounded loss of growth protection for markedly
//! less fill on the wide, slack-heavy bases this workload produces.
#![allow(clippy::needless_range_loop)] // dense kernels index several arrays in lockstep

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::lu::LuScratch;
use crate::sparse::CscMatrix;
use crate::tol::{ft_pivot_ok, is_nonzero};
use crate::LpError;

/// Rows with magnitude at least this fraction of the column maximum are
/// acceptable Markowitz pivots; among them the smallest static row count
/// wins. The classic "0.1 rule" — looser thresholds fill less but grow
/// more.
const MARKOWITZ_REL: f64 = 0.1;

/// One recorded row elimination: FTRAN applies
/// `z[r] -= Σ μ_t · z[t]`, BTRAN applies the transpose.
#[derive(Debug, Clone)]
struct FtEta {
    /// Slot whose row was eliminated (the replaced column's slot).
    r: usize,
    /// `(slot, multiplier)` pairs, in ascending elimination order.
    entries: Vec<(usize, f64)>,
}

/// LU factors of a basis matrix maintained under Forrest–Tomlin updates.
#[derive(Debug, Clone)]
pub(crate) struct FtFactors {
    m: usize,
    /// `pivot_row[s]` = original row index of slot `s` (frozen `L` part).
    pivot_row: Vec<usize>,
    /// `pivot_pos[r]` = slot of original row `r`.
    pivot_pos: Vec<usize>,
    /// Column `s` of `L` below the diagonal: `(original_row, multiplier)`.
    l_cols: Vec<Vec<(usize, f64)>>,
    /// Reverse adjacency of `Lᵀ` (see [`crate::lu::LuFactors`]). Frozen.
    l_deps: Vec<Vec<usize>>,
    /// Live `U`, column-wise: `ucol[s]` holds `(t, U[t,s])` for the
    /// above-diagonal entries of column `s` (`pos[t] < pos[s]`).
    ucol: Vec<Vec<(usize, f64)>>,
    /// Live `U`, row-wise: `urow[t]` holds `(s, U[t,s])` — same entries
    /// as `ucol`, kept in sync so updates can walk rows.
    urow: Vec<Vec<(usize, f64)>>,
    /// Diagonal of `U`, by slot.
    diag: Vec<f64>,
    /// Triangular order: `order[p]` = slot at position `p`.
    order: Vec<usize>,
    /// Inverse of `order`: `pos[s]` = position of slot `s`.
    pos: Vec<usize>,
    /// `col_of_slot[s]` = basis position whose column lives in slot `s`.
    col_of_slot: Vec<usize>,
    /// Inverse of `col_of_slot`.
    slot_of_col: Vec<usize>,
    /// Row etas in append order.
    etas: Vec<FtEta>,
    /// Accepted updates since factorization (etas may be fewer — empty
    /// eliminations are not stored).
    num_updates: usize,
    /// Total stored nonzeros at factorization time (fill baseline).
    base_nnz: usize,
    /// Static `L` off-diagonal count.
    l_nnz: usize,
    /// Live `U` off-diagonal count (each entry counted once).
    u_nnz: usize,
    /// Total eta multiplier count.
    eta_nnz: usize,
    // Owned workspace for `update`, so steady-state updates allocate
    // only the eta they record.
    work_v: Vec<f64>,
    work_in_v: Vec<bool>,
    work_vpat: Vec<usize>,
    work_acc: Vec<f64>,
    work_in_acc: Vec<bool>,
    work_heap: BinaryHeap<Reverse<(usize, usize)>>,
}

impl FtFactors {
    /// Factorizes columns `basis` of `a` with Markowitz pivoting: columns
    /// are processed in ascending static nonzero count, and within each
    /// column the pivot row minimizes the static row count among rows
    /// that pass the relative stability test ([`MARKOWITZ_REL`]).
    ///
    /// # Errors
    ///
    /// Returns [`LpError::SingularBasis`] if no acceptable pivot
    /// (magnitude `> pivot_tol`) exists for some column.
    pub(crate) fn factorize_markowitz(
        a: &CscMatrix,
        basis: &[usize],
        pivot_tol: f64,
    ) -> Result<Self, LpError> {
        let m = a.nrows();
        assert_eq!(basis.len(), m, "basis must have one column per row");
        // Static orderings: cheapest (sparsest) columns first, stable by
        // basis position; row cost = how many basis columns touch it.
        let mut col_order: Vec<usize> = (0..m).collect();
        col_order.sort_by_key(|&p| (a.col_nnz(basis[p]), p));
        let mut row_count = vec![0usize; m];
        for &c in basis {
            for (r, _) in a.col(c) {
                row_count[r] += 1;
            }
        }

        let mut pivot_row = vec![usize::MAX; m];
        let mut pivot_pos = vec![usize::MAX; m];
        let mut l_cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut ucol: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut diag = Vec::with_capacity(m);

        // Left-looking elimination identical in structure to
        // `LuFactors::factorize`; only the pivot choice differs.
        let mut x = vec![0.0f64; m];
        let mut in_touched = vec![false; m];
        let mut touched: Vec<usize> = Vec::with_capacity(64);
        let mut heap: BinaryHeap<Reverse<usize>> = BinaryHeap::new();
        let mut queued = vec![false; m];

        for (s, &p) in col_order.iter().enumerate() {
            for (r, v) in a.col(basis[p]) {
                x[r] = v;
                if !in_touched[r] {
                    in_touched[r] = true;
                    touched.push(r);
                }
                let k = pivot_pos[r];
                if k != usize::MAX && !queued[k] {
                    queued[k] = true;
                    heap.push(Reverse(k));
                }
            }
            let mut u_col = Vec::new();
            while let Some(Reverse(k)) = heap.pop() {
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
                            heap.push(Reverse(kr));
                        }
                    }
                }
            }
            // Markowitz pivot: among stability-acceptable rows, the one
            // touching the fewest basis columns (ties: smallest row).
            let mut vmax = 0.0f64;
            for &r in &touched {
                if pivot_pos[r] == usize::MAX {
                    vmax = vmax.max(x[r].abs());
                }
            }
            if vmax <= pivot_tol {
                return Err(LpError::SingularBasis);
            }
            let mut best_row = usize::MAX;
            let mut best_cost = (usize::MAX, usize::MAX);
            for &r in &touched {
                if pivot_pos[r] == usize::MAX && x[r].abs() >= MARKOWITZ_REL * vmax {
                    let cost = (row_count[r], r);
                    if cost < best_cost {
                        best_cost = cost;
                        best_row = r;
                    }
                }
            }
            let piv = x[best_row];
            pivot_row[s] = best_row;
            pivot_pos[best_row] = s;
            let mut l_col = Vec::new();
            for &r in &touched {
                if pivot_pos[r] == usize::MAX && is_nonzero(x[r]) {
                    l_col.push((r, x[r] / piv));
                }
            }
            diag.push(piv);
            ucol.push(u_col);
            l_cols.push(l_col);
            for &r in &touched {
                x[r] = 0.0;
                in_touched[r] = false;
            }
            touched.clear();
        }

        let mut urow: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
        for (s, u_col) in ucol.iter().enumerate() {
            for &(t, v) in u_col {
                urow[t].push((s, v));
            }
        }
        let mut l_deps: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (s, l_col) in l_cols.iter().enumerate() {
            for &(r, _) in l_col {
                l_deps[pivot_pos[r]].push(s);
            }
        }
        let l_nnz: usize = l_cols.iter().map(Vec::len).sum();
        let u_nnz: usize = ucol.iter().map(Vec::len).sum();
        let mut slot_of_col = vec![0usize; m];
        for (s, &p) in col_order.iter().enumerate() {
            slot_of_col[p] = s;
        }
        Ok(Self {
            m,
            pivot_row,
            pivot_pos,
            l_cols,
            l_deps,
            ucol,
            urow,
            diag,
            order: (0..m).collect(),
            pos: (0..m).collect(),
            col_of_slot: col_order,
            slot_of_col,
            etas: Vec::new(),
            num_updates: 0,
            base_nnz: m + l_nnz + u_nnz,
            l_nnz,
            u_nnz,
            eta_nnz: 0,
            work_v: vec![0.0; m],
            work_in_v: vec![false; m],
            work_vpat: Vec::new(),
            work_acc: vec![0.0; m],
            work_in_acc: vec![false; m],
            work_heap: BinaryHeap::new(),
        })
    }

    /// Accepted updates since the last refactorization.
    pub(crate) fn updates_len(&self) -> usize {
        self.num_updates
    }

    /// Stored nonzeros now (factors plus etas) relative to the
    /// factorization baseline — the dynamic refactorization trigger's
    /// fill-growth measure. Starts at exactly `1.0`.
    pub(crate) fn fill_ratio(&self) -> f64 {
        let live = self.m + self.l_nnz + self.u_nnz + self.eta_nnz;
        live as f64 / self.base_nnz.max(1) as f64
    }

    /// Solves `B w = b` in place: on entry `buf` holds `b` (indexed by
    /// original row); on exit it holds `w` (indexed by basis position).
    pub(crate) fn ftran(&self, buf: &mut [f64]) {
        debug_assert_eq!(buf.len(), self.m);
        // Frozen L, in original-row space.
        for s in 0..self.m {
            let zs = buf[self.pivot_row[s]];
            if is_nonzero(zs) {
                for &(r, mult) in &self.l_cols[s] {
                    buf[r] -= zs * mult;
                }
            }
        }
        // Gather into slot space and apply the row etas in append order.
        let mut z: Vec<f64> = (0..self.m).map(|s| buf[self.pivot_row[s]]).collect();
        for eta in &self.etas {
            let mut delta = 0.0;
            for &(t, mu) in &eta.entries {
                delta += mu * z[t];
            }
            z[eta.r] -= delta;
        }
        // Backward U solve in descending triangular position.
        for p in (0..self.m).rev() {
            let s = self.order[p];
            let ws = z[s] / self.diag[s];
            z[s] = ws;
            if is_nonzero(ws) {
                for &(t, u) in &self.ucol[s] {
                    z[t] -= ws * u;
                }
            }
        }
        // Scatter to basis positions.
        for s in 0..self.m {
            buf[self.col_of_slot[s]] = z[s];
        }
    }

    /// Solves `Bᵀ y = c` in place: on entry `buf` holds `c` (indexed by
    /// basis position); on exit it holds `y` (indexed by original row).
    pub(crate) fn btran(&self, buf: &mut [f64]) {
        debug_assert_eq!(buf.len(), self.m);
        // Forward Uᵀ solve in ascending triangular position.
        let mut z = vec![0.0f64; self.m];
        for p in 0..self.m {
            let s = self.order[p];
            let mut sum = buf[self.col_of_slot[s]];
            for &(t, u) in &self.ucol[s] {
                sum -= u * z[t];
            }
            z[s] = sum / self.diag[s];
        }
        // Transposed row etas, reverse order.
        for eta in self.etas.iter().rev() {
            let zr = z[eta.r];
            if is_nonzero(zr) {
                for &(t, mu) in &eta.entries {
                    z[t] -= mu * zr;
                }
            }
        }
        // Backward Lᵀ solve in slot space.
        for s in (0..self.m).rev() {
            let mut sum = z[s];
            for &(r, mult) in &self.l_cols[s] {
                sum -= mult * z[self.pivot_pos[r]];
            }
            z[s] = sum;
        }
        for r in buf.iter_mut() {
            *r = 0.0;
        }
        for s in 0..self.m {
            buf[self.pivot_row[s]] = z[s];
        }
    }

    /// Hypersparse [`ftran`](Self::ftran): only slots reachable from the
    /// nonzeros of `b` are visited. Same contract as
    /// [`LuFactors::ftran_sparse`](crate::lu::LuFactors::ftran_sparse).
    pub(crate) fn ftran_sparse(
        &self,
        buf: &mut [f64],
        pattern: &mut Vec<usize>,
        scratch: &mut LuScratch,
    ) {
        debug_assert_eq!(buf.len(), self.m);
        scratch.ensure(self.m);
        // Frozen L phase, keyed by slot (identical to the legacy path).
        for &r in pattern.iter() {
            let s = self.pivot_pos[r];
            if !scratch.queued[s] {
                scratch.queued[s] = true;
                scratch.min_heap.push(Reverse(s));
            }
        }
        scratch.stage.clear();
        while let Some(Reverse(s)) = scratch.min_heap.pop() {
            scratch.queued[s] = false;
            let zs = buf[self.pivot_row[s]];
            buf[self.pivot_row[s]] = 0.0;
            if is_nonzero(zs) {
                scratch.z[s] = zs;
                scratch.stage.push(s);
                for &(r, mult) in &self.l_cols[s] {
                    buf[r] -= zs * mult;
                    let k = self.pivot_pos[r];
                    if !scratch.queued[k] {
                        scratch.queued[k] = true;
                        scratch.min_heap.push(Reverse(k));
                    }
                }
            }
        }
        // Row etas in append order, on the staged values (`z` is zero
        // outside the stage, so reads need no membership test).
        for &s in scratch.stage.iter() {
            scratch.queued[s] = true;
        }
        for eta in &self.etas {
            let mut delta = 0.0;
            for &(t, mu) in &eta.entries {
                delta += mu * scratch.z[t];
            }
            if is_nonzero(delta) {
                scratch.z[eta.r] -= delta;
                if !scratch.queued[eta.r] {
                    scratch.queued[eta.r] = true;
                    scratch.stage.push(eta.r);
                }
            }
        }
        // Backward U solve on the staged slots, descending by position
        // (every staged slot is already marked queued).
        for &s in scratch.stage.iter() {
            scratch.max_heap.push(self.pos[s]);
        }
        pattern.clear();
        while let Some(p) = scratch.max_heap.pop() {
            let s = self.order[p];
            scratch.queued[s] = false;
            let ws = scratch.z[s] / self.diag[s];
            scratch.z[s] = 0.0;
            if is_nonzero(ws) {
                buf[self.col_of_slot[s]] = ws;
                pattern.push(self.col_of_slot[s]);
                for &(t, u) in &self.ucol[s] {
                    scratch.z[t] -= ws * u;
                    if !scratch.queued[t] {
                        scratch.queued[t] = true;
                        scratch.max_heap.push(self.pos[t]);
                    }
                }
            }
        }
    }

    /// Hypersparse [`btran`](Self::btran). Same contract as
    /// [`LuFactors::btran_sparse`](crate::lu::LuFactors::btran_sparse).
    pub(crate) fn btran_sparse(
        &self,
        buf: &mut [f64],
        pattern: &mut Vec<usize>,
        scratch: &mut LuScratch,
    ) {
        debug_assert_eq!(buf.len(), self.m);
        scratch.ensure(self.m);
        // Forward Uᵀ solve, ascending by position: z[s] needs z[t] for
        // the above-diagonal entries of column s; a nonzero z[s] feeds
        // every column of row s.
        for &p in pattern.iter() {
            let s = self.slot_of_col[p];
            if !scratch.queued[s] {
                scratch.queued[s] = true;
                scratch.min_heap.push(Reverse(self.pos[s]));
            }
        }
        scratch.stage.clear();
        while let Some(Reverse(p)) = scratch.min_heap.pop() {
            let s = self.order[p];
            scratch.queued[s] = false;
            let mut sum = buf[self.col_of_slot[s]];
            buf[self.col_of_slot[s]] = 0.0;
            for &(t, u) in &self.ucol[s] {
                sum -= u * scratch.z[t];
            }
            let zs = sum / self.diag[s];
            if is_nonzero(zs) {
                scratch.z[s] = zs;
                scratch.stage.push(s);
                for &(t, _) in &self.urow[s] {
                    if !scratch.queued[t] {
                        scratch.queued[t] = true;
                        scratch.min_heap.push(Reverse(self.pos[t]));
                    }
                }
            }
        }
        // Transposed row etas, reverse order, staging new nonzeros.
        for &s in scratch.stage.iter() {
            scratch.queued[s] = true;
        }
        for eta in self.etas.iter().rev() {
            let zr = scratch.z[eta.r];
            if is_nonzero(zr) {
                for &(t, mu) in &eta.entries {
                    scratch.z[t] -= mu * zr;
                    if !scratch.queued[t] {
                        scratch.queued[t] = true;
                        scratch.stage.push(t);
                    }
                }
            }
        }
        // Backward Lᵀ solve, descending by slot; values stay live until
        // every dependant is done, so cleanup happens in the scatter.
        for &s in scratch.stage.iter() {
            scratch.max_heap.push(s);
        }
        scratch.pops.clear();
        while let Some(s) = scratch.max_heap.pop() {
            scratch.queued[s] = false;
            let mut sum = scratch.z[s];
            for &(r, mult) in &self.l_cols[s] {
                sum -= mult * scratch.z[self.pivot_pos[r]];
            }
            scratch.z[s] = sum;
            scratch.pops.push(s);
            if is_nonzero(sum) {
                for &k in &self.l_deps[s] {
                    if !scratch.queued[k] {
                        scratch.queued[k] = true;
                        scratch.max_heap.push(k);
                    }
                }
            }
        }
        pattern.clear();
        for &s in scratch.pops.iter() {
            let v = scratch.z[s];
            scratch.z[s] = 0.0;
            if is_nonzero(v) {
                buf[self.pivot_row[s]] = v;
                pattern.push(self.pivot_row[s]);
            }
        }
    }

    /// Forrest–Tomlin update: replaces the basis column at position `c`
    /// with the column whose FTRAN solution is `w` (`w = B⁻¹ a`, indexed
    /// by basis position; `wpat` is its nonzero pattern when known).
    ///
    /// Returns `true` and commits the update if the transformed diagonal
    /// passes the stability test; returns `false` and leaves the factors
    /// **bit-identical** otherwise — the caller must refactorize before
    /// the next solve.
    pub(crate) fn update(
        &mut self,
        c: usize,
        w: &[f64],
        wpat: Option<&[usize]>,
        pivot_tol: f64,
    ) -> bool {
        debug_assert_eq!(w.len(), self.m);
        let s_r = self.slot_of_col[c];

        // (a) Spike v = U · (Q w) in slot space, read-only. Each nonzero
        // w[p] contributes through column `slot_of_col[p]` of the live U.
        let mut v = std::mem::take(&mut self.work_v);
        let mut in_v = std::mem::take(&mut self.work_in_v);
        let mut vpat = std::mem::take(&mut self.work_vpat);
        {
            let mut spike = |p: usize| {
                let ws = w[p];
                if !is_nonzero(ws) {
                    return;
                }
                let s = self.slot_of_col[p];
                if !in_v[s] {
                    in_v[s] = true;
                    vpat.push(s);
                }
                v[s] += self.diag[s] * ws;
                for &(t, u) in &self.ucol[s] {
                    if !in_v[t] {
                        in_v[t] = true;
                        vpat.push(t);
                    }
                    v[t] += u * ws;
                }
            };
            match wpat {
                Some(pat) => {
                    for &p in pat {
                        spike(p);
                    }
                }
                None => {
                    for p in 0..self.m {
                        spike(p);
                    }
                }
            }
        }

        // (b) Eliminate row s_r of U, read-only: walk its entries in
        // ascending triangular position; each surviving entry becomes an
        // eta multiplier and propagates that pivot's row into the
        // accumulator. Propagation only reaches strictly later
        // positions, so nothing pops twice. Entries of the old column
        // s_r are skipped — the spike replaces that column.
        let mut acc = std::mem::take(&mut self.work_acc);
        let mut in_acc = std::mem::take(&mut self.work_in_acc);
        let mut heap = std::mem::take(&mut self.work_heap);
        let mut entries: Vec<(usize, f64)> = Vec::new();
        for &(t, val) in &self.urow[s_r] {
            acc[t] += val;
            if !in_acc[t] {
                in_acc[t] = true;
                heap.push(Reverse((self.pos[t], t)));
            }
        }
        while let Some(Reverse((_, t))) = heap.pop() {
            let val = acc[t];
            acc[t] = 0.0;
            in_acc[t] = false;
            if !is_nonzero(val) {
                continue;
            }
            let mu = val / self.diag[t];
            entries.push((t, mu));
            for &(t2, u2) in &self.urow[t] {
                if t2 == s_r {
                    continue;
                }
                if !in_acc[t2] {
                    in_acc[t2] = true;
                    heap.push(Reverse((self.pos[t2], t2)));
                }
                acc[t2] -= mu * u2;
            }
        }

        // (c) Transformed diagonal and the stability verdict. The same
        // elimination applied to the spike column leaves d in the last
        // position.
        let mut d = v[s_r];
        for &(t, mu) in &entries {
            d -= mu * v[t];
        }
        let mut vmax = 0.0f64;
        for &t in &vpat {
            vmax = vmax.max(v[t].abs());
        }
        let accept = ft_pivot_ok(d, vmax, pivot_tol);

        if accept {
            // (d) Commit. Detach the old column and the old (now
            // eliminated) row of s_r from both adjacency directions.
            for (t, _) in std::mem::take(&mut self.ucol[s_r]) {
                self.urow[t].retain(|&(s2, _)| s2 != s_r);
                self.u_nnz -= 1;
            }
            for (t, _) in std::mem::take(&mut self.urow[s_r]) {
                self.ucol[t].retain(|&(s2, _)| s2 != s_r);
                self.u_nnz -= 1;
            }
            // Install the spike as the new column of slot s_r.
            let mut new_col = Vec::with_capacity(vpat.len());
            for &t in &vpat {
                let val = v[t];
                v[t] = 0.0;
                in_v[t] = false;
                if t != s_r && is_nonzero(val) {
                    new_col.push((t, val));
                    self.urow[t].push((s_r, val));
                    self.u_nnz += 1;
                }
            }
            vpat.clear();
            self.ucol[s_r] = new_col;
            self.diag[s_r] = d;
            // Slot s_r moves to the last triangular position.
            let p_r = self.pos[s_r];
            self.order.remove(p_r);
            self.order.push(s_r);
            for q in p_r..self.m {
                self.pos[self.order[q]] = q;
            }
            self.num_updates += 1;
            if !entries.is_empty() {
                self.eta_nnz += entries.len();
                self.etas.push(FtEta { r: s_r, entries });
            }
        } else {
            for &t in &vpat {
                v[t] = 0.0;
                in_v[t] = false;
            }
            vpat.clear();
        }

        self.work_v = v;
        self.work_in_v = in_v;
        self.work_vpat = vpat;
        self.work_acc = acc;
        self.work_in_acc = in_acc;
        self.work_heap = heap;
        accept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::LuFactors;
    use proptest::prelude::*;

    /// Dense reference solve via Gaussian elimination, partial pivoting.
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

    fn transpose(bd: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let m = bd.len();
        (0..m).map(|r| (0..m).map(|c| bd[c][r]).collect()).collect()
    }

    /// Checks dense and sparse FTRAN/BTRAN of `ft` against dense solves
    /// of the basis matrix, plus exact sparse pattern reporting.
    fn check_all_solves(ft: &FtFactors, a: &CscMatrix, basis: &[usize], tol: f64) {
        let m = a.nrows();
        let bd = basis_dense(a, basis);
        let bt = transpose(&bd);
        let mut scratch = LuScratch::default();
        for t in 0..3 {
            let b: Vec<f64> = (0..m)
                .map(|i| {
                    if (i + t) % 3 == 0 {
                        ((i * 7 + t * 3) % 5) as f64 - 2.0
                    } else {
                        0.0
                    }
                })
                .collect();
            let want = dense_solve(&bd, &b);
            let mut buf = b.clone();
            ft.ftran(&mut buf);
            for i in 0..m {
                assert!(
                    (buf[i] - want[i]).abs() < tol,
                    "ftran mismatch at {i}: {} vs {}",
                    buf[i],
                    want[i]
                );
            }
            let mut sbuf = b.clone();
            let mut pat: Vec<usize> = (0..m).filter(|&i| b[i] != 0.0).collect();
            ft.ftran_sparse(&mut sbuf, &mut pat, &mut scratch);
            for i in 0..m {
                assert!(
                    (sbuf[i] - buf[i]).abs() < 1e-12,
                    "sparse ftran deviates at {i}: {} vs {}",
                    sbuf[i],
                    buf[i]
                );
                assert_eq!(
                    pat.contains(&i),
                    sbuf[i] != 0.0,
                    "ftran pattern wrong at {i}"
                );
            }
            let want_t = dense_solve(&bt, &b);
            let mut tbuf = b.clone();
            ft.btran(&mut tbuf);
            for i in 0..m {
                assert!(
                    (tbuf[i] - want_t[i]).abs() < tol,
                    "btran mismatch at {i}: {} vs {}",
                    tbuf[i],
                    want_t[i]
                );
            }
            let mut stbuf = b.clone();
            let mut tpat: Vec<usize> = (0..m).filter(|&i| b[i] != 0.0).collect();
            ft.btran_sparse(&mut stbuf, &mut tpat, &mut scratch);
            for i in 0..m {
                assert!(
                    (stbuf[i] - tbuf[i]).abs() < 1e-12,
                    "sparse btran deviates at {i}: {} vs {}",
                    stbuf[i],
                    tbuf[i]
                );
                assert_eq!(
                    tpat.contains(&i),
                    stbuf[i] != 0.0,
                    "btran pattern wrong at {i}"
                );
            }
        }
    }

    /// Computes `w = B⁻¹ a_col` via the factors' own dense FTRAN.
    fn ftran_col(ft: &FtFactors, a: &CscMatrix, col: usize) -> Vec<f64> {
        let mut buf = vec![0.0; a.nrows()];
        for (r, val) in a.col(col) {
            buf[r] = val;
        }
        ft.ftran(&mut buf);
        buf
    }

    #[test]
    fn markowitz_matches_dense() {
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
        let basis = [0usize, 1, 2, 3];
        let ft = FtFactors::factorize_markowitz(&a, &basis, 1e-10).unwrap();
        check_all_solves(&ft, &a, &basis, 1e-8);
    }

    #[test]
    fn markowitz_detects_singular() {
        let a = CscMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 1, 1.0)]);
        assert_eq!(
            FtFactors::factorize_markowitz(&a, &[0, 1], 1e-10).unwrap_err(),
            LpError::SingularBasis
        );
    }

    #[test]
    fn update_sequence_matches_dense() {
        // 3x3 with a pool of replacement columns; every accepted update
        // must keep all four solve paths agreeing with a dense solve of
        // the *current* basis.
        let a = CscMatrix::from_triplets(
            3,
            6,
            vec![
                (0, 0, 2.0),
                (1, 0, 1.0),
                (0, 1, 1.0),
                (2, 1, 3.0),
                (1, 2, 4.0),
                (2, 2, 1.0),
                (0, 3, 1.0),
                (1, 3, 1.0),
                (2, 4, 2.0),
                (0, 4, -1.0),
                (1, 5, 1.0),
                (2, 5, 1.0),
            ],
        );
        let mut basis = vec![0usize, 1, 2];
        let mut ft = FtFactors::factorize_markowitz(&a, &basis, 1e-10).unwrap();
        for (step, (c, new_col)) in [(0usize, 3usize), (2, 4), (1, 5), (0, 2)]
            .into_iter()
            .enumerate()
        {
            let w = ftran_col(&ft, &a, new_col);
            assert!(ft.update(c, &w, None, 1e-10), "step {step} rejected");
            basis[c] = new_col;
            check_all_solves(&ft, &a, &basis, 1e-8);
            assert_eq!(ft.updates_len(), step + 1);
        }
        assert!(ft.fill_ratio() >= 1.0);
    }

    #[test]
    fn rejected_update_leaves_factors_unchanged() {
        // Replacing column 0 with a duplicate of basis column 1 makes the
        // basis singular: the transformed diagonal is exactly zero, the
        // update must refuse, and the factors must keep solving the old
        // basis exactly.
        let a = CscMatrix::from_triplets(
            2,
            3,
            vec![(0, 0, 2.0), (1, 0, 1.0), (1, 1, 3.0), (1, 2, 3.0)],
        );
        let basis = [0usize, 1];
        let mut ft = FtFactors::factorize_markowitz(&a, &basis, 1e-10).unwrap();
        let w = ftran_col(&ft, &a, 2);
        assert!(!ft.update(0, &w, None, 1e-10), "singular update accepted");
        assert_eq!(ft.updates_len(), 0);
        check_all_solves(&ft, &a, &basis, 1e-10);
        // The workspace must be clean: a later, valid update still works.
        let w = ftran_col(&ft, &a, 2);
        assert!(ft.update(1, &w, None, 1e-10));
        check_all_solves(&ft, &a, &[0, 2], 1e-10);
    }

    #[derive(Debug, Clone)]
    struct UpdatePlan {
        m: usize,
        /// Dense-ish entries for `2m` columns: (row, col, value·10).
        entries: Vec<(usize, usize, i32)>,
        /// Replacement steps: (basis position, pool column, use sparse w).
        steps: Vec<(usize, usize, bool)>,
    }

    fn update_plan(max_steps: usize) -> impl Strategy<Value = UpdatePlan> {
        (3usize..=8).prop_flat_map(move |m| {
            let entry = (0..m, 0..2 * m, -40i32..=40);
            let entries = prop::collection::vec(entry, 6 * m..12 * m);
            let step = (0..m, 0..2 * m, any::<bool>());
            let steps = prop::collection::vec(step, 1..=max_steps);
            (Just(m), entries, steps).prop_map(|(m, entries, steps)| UpdatePlan {
                m,
                entries,
                steps,
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// After up to 200 Forrest–Tomlin updates, FTRAN/BTRAN (dense and
        /// hypersparse) still match a dense `B⁻¹` solve, and a forced
        /// refactorization of the final basis reproduces the same
        /// solution.
        #[test]
        fn long_update_chains_match_dense_and_refactorization(plan in update_plan(200)) {
            let m = plan.m;
            // Diagonal dominance on the first m columns guarantees a
            // nonsingular starting basis; the pool columns stay random.
            let mut trips: Vec<(usize, usize, f64)> = plan
                .entries
                .iter()
                .map(|&(r, c, v)| (r, c, f64::from(v) / 10.0))
                .collect();
            for i in 0..m {
                trips.push((i, i, 8.0));
            }
            let a = CscMatrix::from_triplets(m, 2 * m, trips);
            let mut basis: Vec<usize> = (0..m).collect();
            let mut ft = FtFactors::factorize_markowitz(&a, &basis, 1e-10).unwrap();
            let mut scratch = LuScratch::default();
            let mut accepted = 0usize;
            for &(c, new_col, sparse) in &plan.steps {
                if basis.contains(&new_col) {
                    continue; // would be trivially singular
                }
                let ok = if sparse {
                    let mut buf = vec![0.0; m];
                    let mut pat = Vec::new();
                    for (r, val) in a.col(new_col) {
                        buf[r] = val;
                        pat.push(r);
                    }
                    ft.ftran_sparse(&mut buf, &mut pat, &mut scratch);
                    ft.update(c, &buf, Some(&pat), 1e-10)
                } else {
                    let w = ftran_col(&ft, &a, new_col);
                    ft.update(c, &w, None, 1e-10)
                };
                if ok {
                    basis[c] = new_col;
                    accepted += 1;
                }
                // A rejected update leaves the factors on the old basis;
                // either way they must solve the basis they represent.
            }
            prop_assert_eq!(ft.updates_len(), accepted);
            let bd = basis_dense(&a, &basis);
            let b: Vec<f64> = (0..m).map(|i| (i % 3) as f64 - 1.0).collect();
            let want = dense_solve(&bd, &b);
            let mut got = b.clone();
            ft.ftran(&mut got);
            for i in 0..m {
                prop_assert!((got[i] - want[i]).abs() < 1e-6 * want[i].abs().max(1.0),
                    "ftran drifted at {} after {} updates: {} vs {}",
                    i, accepted, got[i], want[i]);
            }
            // A forced refactorization under either pivot rule (Markowitz,
            // or the eta file's partial pivoting) reproduces the same
            // solution from scratch.
            let mut markowitz = b.clone();
            FtFactors::factorize_markowitz(&a, &basis, 1e-10).unwrap().ftran(&mut markowitz);
            let mut partial = b.clone();
            LuFactors::factorize(&a, &basis, 1e-10).unwrap().ftran(&mut partial);
            for (rule, refreshed) in [("markowitz", &markowitz), ("partial", &partial)] {
                for i in 0..m {
                    prop_assert!((refreshed[i] - got[i]).abs() < 1e-6 * got[i].abs().max(1.0),
                        "{} refactorization disagrees at {}", rule, i);
                }
            }
            check_all_solves(&ft, &a, &basis, 1e-5);
        }
    }
}
