//! Forrest–Tomlin basis maintenance: LU factors updated in place.
//!
//! The eta file in [`crate::lu::BasisRepr`] keeps the factorization
//! frozen and appends product-form eta columns; every FTRAN/BTRAN then
//! replays the whole eta file, and the only defence against fill-in is a
//! fixed refactorization period. This module instead applies each basis
//! change *to the `U` factor itself* (Forrest–Tomlin, 1972): the leaving
//! column's row is eliminated into a small row-eta, the entering column's
//! spike becomes the new last column of `U`, and the triangular solves
//! keep their hypersparse pattern-tracked form. Fill-in lands where it
//! belongs — in `U` — instead of accumulating as a replayed transformation
//! list.
//!
//! # Representation
//!
//! A factorized basis is `B = L · R₁⁻¹ · … · R_k⁻¹ · U · Q` where
//!
//! * `L` (with its row permutation) is the shared frozen
//!   [`LFactor`] of a [`PivotRule::Markowitz`](crate::lu::PivotRule)
//!   factorization, solved by its own kernels;
//! * each `R_i` is a row-eta recorded by update `i` (the elimination of
//!   the leaving row), applied to the right-hand side between the `L`
//!   and `U` solves;
//! * `U` is the *live* upper-triangular factor, stored both column-wise
//!   and row-wise with values so updates can walk rows cheaply;
//! * `Q` maps **slots** to basis positions. A slot is the pivot a column
//!   had at factorization time; when a column is replaced, the entering
//!   column inherits the leaving column's slot, so `L`, the etas, and the
//!   row lists never need relabelling. Only the triangular *order* of the
//!   slots changes (the updated slot moves to the last position).
//!
//! Triangular positions are **labels** that only ascend: factorization
//! labels slot `s` with `s`, and an update gives the moved slot the next
//! unused label, leaving a hole at its old one. The other slots keep their
//! labels and their relative order, so an update reorders in `O(1)` and
//! every solve visits the slots in the order a renumbered list would.
//!
//! The hypersparse solves sweep the bitmap worklist of [`LuScratch`], and
//! the update one of its own ([`sweep_up`]): the `U` and `Uᵀ` passes and
//! the row elimination key them by label (`m` plus the updates so far), the
//! `L` and `Lᵀ` passes by slot.
//!
//! # Stability
//!
//! `update` is read-only until the transformed diagonal `d` is known; if
//! `d` fails [`crate::tol::ft_pivot_ok`] the factors are left untouched
//! and the caller refactorizes.
#![allow(clippy::needless_range_loop)] // dense kernels index several arrays in lockstep

use crate::lu::{mark, sweep_down, sweep_up, LFactor, LuFactors, LuScratch};
use crate::tol::{ft_pivot_ok, is_nonzero};

/// The slot of a label that an update retired.
const HOLE: usize = usize::MAX;

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
    /// The frozen `L`, by slot.
    l: LFactor,
    /// Live `U`, column-wise: `ucol[s]` holds `(t, U[t,s])` for the
    /// above-diagonal entries of column `s` (`pos[t] < pos[s]`).
    ucol: Vec<Vec<(usize, f64)>>,
    /// Live `U`, row-wise: `urow[t]` holds `(s, U[t,s])` — same entries
    /// as `ucol`, kept in sync so updates can walk rows.
    urow: Vec<Vec<(usize, f64)>>,
    /// Diagonal of `U`, by slot.
    diag: Vec<f64>,
    /// Triangular order by label: `order[p]` = slot labelled `p`, or
    /// [`HOLE`]. Its length, `m` plus the accepted updates, bounds every
    /// label sweep.
    order: Vec<usize>,
    /// Inverse of `order`: `pos[s]` = label of slot `s`.
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
    work_bits: Vec<u64>,
}

impl FtFactors {
    /// Takes over factors built under
    /// [`PivotRule::Markowitz`](crate::lu::PivotRule): their `L` stays
    /// frozen, their `U` becomes the live factor (each slot at its own
    /// triangular position), and their column order becomes the slot maps.
    pub(crate) fn new(lu: LuFactors) -> Self {
        let m = lu.u_diag.len();
        debug_assert_eq!(lu.cols.len(), m, "Forrest–Tomlin needs Markowitz factors");
        // Live lists from the flat columns: each column as stored, and each
        // row filled in ascending column order.
        let ucol: Vec<Vec<(usize, f64)>> = (0..m).map(|s| lu.u_col(s).to_vec()).collect();
        let mut row_len = vec![0usize; m];
        for &(t, _) in &lu.u_cols {
            row_len[t] += 1;
        }
        let mut urow: Vec<Vec<(usize, f64)>> =
            row_len.iter().map(|&n| Vec::with_capacity(n)).collect();
        for (s, col) in ucol.iter().enumerate() {
            for &(t, u) in col {
                urow[t].push((s, u));
            }
        }
        let u_nnz = lu.u_cols.len();
        let LuFactors {
            l, cols, u_diag, ..
        } = lu;
        let l_nnz = l.nnz();
        let mut slot_of_col = vec![0usize; m];
        for (s, &p) in cols.iter().enumerate() {
            slot_of_col[p] = s;
        }
        Self {
            m,
            l,
            ucol,
            urow,
            diag: u_diag,
            order: (0..m).collect(),
            pos: (0..m).collect(),
            col_of_slot: cols,
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
            work_bits: vec![0; m.div_ceil(64)],
        }
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
    pub(crate) fn ftran(&self, buf: &mut [f64], scratch: &mut LuScratch) {
        debug_assert_eq!(buf.len(), self.m);
        scratch.ensure(self.m, self.order.len());
        let z = &mut scratch.z[..self.m];
        // Frozen L into slot space, then the row etas in append order.
        self.l.ftran(buf, z);
        for eta in &self.etas {
            let mut delta = 0.0;
            for &(t, mu) in &eta.entries {
                delta += mu * z[t];
            }
            z[eta.r] -= delta;
        }
        // Backward U solve in descending triangular position; each w_s is
        // final when reached, so it moves straight to its basis position.
        for &s in self.order.iter().rev() {
            if s == HOLE {
                continue;
            }
            let ws = std::mem::take(&mut z[s]) / self.diag[s];
            buf[self.col_of_slot[s]] = ws;
            if is_nonzero(ws) {
                for &(t, u) in &self.ucol[s] {
                    z[t] -= ws * u;
                }
            }
        }
    }

    /// Solves `Bᵀ y = c` in place: on entry `buf` holds `c` (indexed by
    /// basis position); on exit it holds `y` (indexed by original row).
    pub(crate) fn btran(&self, buf: &mut [f64], scratch: &mut LuScratch) {
        debug_assert_eq!(buf.len(), self.m);
        scratch.ensure(self.m, self.order.len());
        let z = &mut scratch.z[..self.m];
        // Forward Uᵀ solve in ascending triangular position.
        for &s in &self.order {
            if s == HOLE {
                continue;
            }
            let mut sum = buf[self.col_of_slot[s]];
            for &(t, u) in &self.ucol[s] {
                sum -= u * z[t];
            }
            z[s] = sum / self.diag[s];
        }
        // Transposed row etas, reverse order, then the frozen Lᵀ.
        for eta in self.etas.iter().rev() {
            let zr = z[eta.r];
            if is_nonzero(zr) {
                for &(t, mu) in &eta.entries {
                    z[t] -= mu * zr;
                }
            }
        }
        self.l.btran(z, buf);
    }

    /// Hypersparse [`ftran`](Self::ftran): only slots reachable from the
    /// nonzeros of `b` are visited. Same contract as
    /// [`LuFactors::ftran_sparse`].
    pub(crate) fn ftran_sparse(
        &self,
        buf: &mut [f64],
        pattern: &mut Vec<usize>,
        scratch: &mut LuScratch,
    ) {
        debug_assert_eq!(buf.len(), self.m);
        scratch.ensure(self.m, self.order.len());
        let LuScratch { bits, z, stage, .. } = scratch;
        let bits = &mut bits[..self.order.len().div_ceil(64)];
        self.l
            .ftran_sparse(buf, pattern, &mut bits[..self.m.div_ceil(64)], z, stage);
        // Row etas in append order on the staged values (`z` is zero
        // outside the stage, so reads need no membership test), queueing
        // every staged slot by label for the U pass.
        for &s in stage.iter() {
            mark(bits, self.pos[s]);
        }
        for eta in &self.etas {
            let mut delta = 0.0;
            for &(t, mu) in &eta.entries {
                delta += mu * z[t];
            }
            if is_nonzero(delta) {
                z[eta.r] -= delta;
                mark(bits, self.pos[eta.r]);
            }
        }
        // Backward U solve, descending by label.
        pattern.clear();
        sweep_down(bits, |p, bits| {
            let s = self.order[p];
            let ws = z[s] / self.diag[s];
            z[s] = 0.0;
            if is_nonzero(ws) {
                buf[self.col_of_slot[s]] = ws;
                pattern.push(self.col_of_slot[s]);
                for &(t, u) in &self.ucol[s] {
                    z[t] -= ws * u;
                    mark(bits, self.pos[t]);
                }
            }
        });
    }

    /// Hypersparse [`btran`](Self::btran). Same contract as
    /// [`LuFactors::btran_sparse`].
    pub(crate) fn btran_sparse(
        &self,
        buf: &mut [f64],
        pattern: &mut Vec<usize>,
        scratch: &mut LuScratch,
    ) {
        debug_assert_eq!(buf.len(), self.m);
        scratch.ensure(self.m, self.order.len());
        let LuScratch {
            bits,
            z,
            stage,
            pops,
        } = scratch;
        // Forward Uᵀ solve, ascending by label: z[s] needs z[t] for the
        // above-diagonal entries of column s; a nonzero z[s] feeds every
        // column of row s.
        let labels = &mut bits[..self.order.len().div_ceil(64)];
        for &p in pattern.iter() {
            mark(labels, self.pos[self.slot_of_col[p]]);
        }
        stage.clear();
        sweep_up(labels, |p, bits| {
            let s = self.order[p];
            let mut sum = buf[self.col_of_slot[s]];
            buf[self.col_of_slot[s]] = 0.0;
            for &(t, u) in &self.ucol[s] {
                sum -= u * z[t];
            }
            let zs = sum / self.diag[s];
            if is_nonzero(zs) {
                z[s] = zs;
                stage.push(s);
                for &(t, _) in &self.urow[s] {
                    mark(bits, self.pos[t]);
                }
            }
        });
        // Transposed row etas, reverse order, queueing every staged and
        // touched slot for the frozen Lᵀ pass.
        let bits = &mut bits[..self.m.div_ceil(64)];
        for &s in stage.iter() {
            mark(bits, s);
        }
        for eta in self.etas.iter().rev() {
            let zr = z[eta.r];
            if is_nonzero(zr) {
                for &(t, mu) in &eta.entries {
                    z[t] -= mu * zr;
                    mark(bits, t);
                }
            }
        }
        self.l.btran_sparse(buf, pattern, bits, z, pops);
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

        // (b) Eliminate row s_r of U, read-only: sweep its entries in
        // ascending label; each surviving entry becomes an eta multiplier
        // and propagates that pivot's row into the accumulator.
        // Propagation only reaches strictly later labels, so nothing is
        // visited twice. Entries of the old column s_r are skipped — the
        // spike replaces that column.
        let mut acc = std::mem::take(&mut self.work_acc);
        let mut bits = std::mem::take(&mut self.work_bits);
        bits.resize(self.order.len().div_ceil(64), 0);
        let mut entries: Vec<(usize, f64)> = Vec::new();
        for &(t, val) in &self.urow[s_r] {
            acc[t] += val;
            mark(&mut bits, self.pos[t]);
        }
        sweep_up(&mut bits, |p, bits| {
            let t = self.order[p];
            let val = acc[t];
            acc[t] = 0.0;
            if !is_nonzero(val) {
                return;
            }
            let mu = val / self.diag[t];
            entries.push((t, mu));
            for &(t2, u2) in &self.urow[t] {
                if t2 == s_r {
                    continue;
                }
                mark(bits, self.pos[t2]);
                acc[t2] -= mu * u2;
            }
        });

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
            // Slot s_r moves to the last triangular position: the next
            // unused label.
            self.order[self.pos[s_r]] = HOLE;
            self.pos[s_r] = self.order.len();
            self.order.push(s_r);
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
        self.work_bits = bits;
        accept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::tests::{basis_dense, dense_solve, uniform};
    use crate::lu::PivotRule;
    use crate::sparse::CscMatrix;
    use proptest::prelude::*;

    /// Forrest–Tomlin factors of columns `basis` of `a`.
    fn markowitz(a: &CscMatrix, basis: &[usize]) -> FtFactors {
        FtFactors::new(LuFactors::factorize(a, basis, 1e-10, PivotRule::Markowitz).unwrap())
    }

    /// Checks dense and sparse FTRAN/BTRAN of `ft` against dense solves
    /// of the basis matrix, plus exact sparse pattern reporting.
    fn check_all_solves(ft: &FtFactors, a: &CscMatrix, basis: &[usize], tol: f64) {
        let m = a.nrows();
        let [bd, bt] = basis_dense(a, basis);
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
            ft.ftran(&mut buf, &mut scratch);
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
            ft.btran(&mut tbuf, &mut scratch);
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
        ft.ftran(&mut buf, &mut LuScratch::default());
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
        let ft = markowitz(&a, &basis);
        check_all_solves(&ft, &a, &basis, 1e-8);
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
        let mut ft = markowitz(&a, &basis);
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
        let mut ft = markowitz(&a, &basis);
        let w = ftran_col(&ft, &a, 2);
        assert!(!ft.update(0, &w, None, 1e-10), "singular update accepted");
        assert_eq!(ft.updates_len(), 0);
        check_all_solves(&ft, &a, &basis, 1e-10);
        // The workspace must be clean: a later, valid update still works.
        let w = ftran_col(&ft, &a, 2);
        assert!(ft.update(1, &w, None, 1e-10));
        check_all_solves(&ft, &a, &[0, 2], 1e-10);
    }

    /// An update chain on an 80-row basis, so that the slot bitmap spans
    /// two words and the label bitmap grows to four as updates retire
    /// labels: after every accepted update, the dense and hypersparse
    /// solves match the dense reference, with exact patterns.
    #[test]
    fn update_chain_beyond_one_bitmap_word_matches_dense_after_every_update() {
        let m = 80;
        let mut next = uniform(0x1f83d9abfb41bd6b);
        // Columns `i` and `m + i` both carry 8 at row `i` and three inexact
        // entries of magnitude at most 2 elsewhere, so every basis that
        // holds one of each pair is column diagonally dominant: position
        // `c` swaps its column for the other of its pair.
        let mut trips = Vec::new();
        for c in 0..2 * m {
            trips.push((c % m, c, 8.0));
            for _ in 0..3 {
                let r = (next() * m as f64) as usize;
                trips.push((r, c, next() * 4.0 - 2.0));
            }
        }
        let a = CscMatrix::from_triplets(m, 2 * m, trips);
        let mut basis: Vec<usize> = (0..m).collect();
        let mut ft = markowitz(&a, &basis);
        let mut scratch = LuScratch::default();
        let mut accepted = 0;
        for step in 0..150 {
            let c = (next() * m as f64) as usize;
            let new_col = (basis[c] + m) % (2 * m);
            let ok = if step % 2 == 0 {
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
                check_all_solves(&ft, &a, &basis, 1e-8);
            }
        }
        assert_eq!(ft.updates_len(), accepted);
        assert_eq!(ft.order.len(), m + accepted);
        assert!(m + accepted > 3 * 64, "only {accepted} accepted updates");
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
            let mut ft = markowitz(&a, &basis);
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
            let [bd, _] = basis_dense(&a, &basis);
            let b: Vec<f64> = (0..m).map(|i| (i % 3) as f64 - 1.0).collect();
            let want = dense_solve(&bd, &b);
            let mut got = b.clone();
            ft.ftran(&mut got, &mut scratch);
            for i in 0..m {
                prop_assert!((got[i] - want[i]).abs() < 1e-6 * want[i].abs().max(1.0),
                    "ftran drifted at {} after {} updates: {} vs {}",
                    i, accepted, got[i], want[i]);
            }
            // A forced refactorization under either pivot rule (Markowitz,
            // or the eta file's partial pivoting) reproduces the same
            // solution from scratch.
            let mut by_markowitz = b.clone();
            markowitz(&a, &basis).ftran(&mut by_markowitz, &mut scratch);
            let mut by_partial = b.clone();
            LuFactors::factorize(&a, &basis, 1e-10, PivotRule::Partial)
                .unwrap()
                .ftran(&mut by_partial, &mut scratch);
            for (rule, refreshed) in [("markowitz", &by_markowitz), ("partial", &by_partial)] {
                for i in 0..m {
                    prop_assert!((refreshed[i] - got[i]).abs() < 1e-6 * got[i].abs().max(1.0),
                        "{} refactorization disagrees at {}", rule, i);
                }
            }
            check_all_solves(&ft, &a, &basis, 1e-5);
        }
    }
}
