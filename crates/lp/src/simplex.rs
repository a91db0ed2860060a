//! Bounded-variable revised simplex: primal (two-phase, artificial cold
//! start) and dual (warm restarts after bound changes in branch-and-bound).
//!
//! The basis is one [`BasisRepr`] (the pinned eta file or Forrest–Tomlin
//! factors, see [`crate::lu`]). The simplex factorizes it, solves with it,
//! records each pivot in it and asks it when a rebuild is due, without
//! naming the representation; only the Dantzig engine's choice of kernel
//! ([`KernelSites`]) reads [`LpOptions::basis_update`].
//!
//! Style note: the numerical kernels iterate dense work arrays by index on
//! purpose (several arrays are updated in lockstep); the iterator forms
//! clippy suggests would obscure the mathematics.
#![allow(clippy::needless_range_loop)]

use std::time::Instant;

use crate::internal::CoreLp;
use crate::lu::{BasisRepr, LuScratch};
use crate::options::{BasisUpdate, LpOptions, Pricing};
use crate::problem::{LpError, Problem};
use crate::profile::{tick, tock, SimplexProfile};
use crate::sparse::CsrMatrix;
use crate::status::LpStatus;
use crate::tol::{is_neg_infinite, is_nonzero, is_pos_infinite, is_zero};

/// Nonbasic/basic status of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VStat {
    Basic,
    AtLower,
    AtUpper,
    /// Free nonbasic, held at value 0.
    Free,
}

/// A snapshot of a simplex basis, used to warm-start node LPs in
/// branch-and-bound.
#[derive(Debug, Clone)]
pub(crate) struct BasisSnapshot {
    pub basic: Vec<usize>,
    pub stat: Vec<VStat>,
}

/// Result of solving over a [`CoreLp`] (internal column space).
#[derive(Debug, Clone)]
pub(crate) struct CoreOutcome {
    pub status: LpStatus,
    /// Values for every column (structurals, slacks, artificials).
    pub x: Vec<f64>,
    /// Phase-2 objective value (meaningless unless `status == Optimal`).
    pub objective: f64,
    /// Dual values per row (`y = B⁻ᵀ c_B` at the final basis).
    pub duals: Vec<f64>,
    pub snapshot: BasisSnapshot,
    pub iterations: usize,
    pub profile: SimplexProfile,
}

/// Why a warm-started dual solve could not be used.
#[derive(Debug)]
pub(crate) enum WarmFail {
    /// The starting basis is not dual feasible (or too ill-conditioned);
    /// fall back to a cold solve.
    NotDualFeasible,
    /// A hard error (iteration limit, singular basis).
    Error(LpError),
}

/// Preallocated per-solve work vectors, so no simplex iteration allocates.
///
/// Length-`m` buffers (`w`, `rho`, `y`, `rhs`) and their pattern lists must
/// be returned to all-zero / cleared between uses; `mask` (length `m`) and
/// `amask` (length `n`) are membership masks that every user resets before
/// releasing. `alpha` is lazily zeroed via `touched`, so it may hold stale
/// values at untouched positions.
#[derive(Default)]
struct Scratch {
    /// FTRAN column and its nonzero pattern.
    w: Vec<f64>,
    wpat: Vec<usize>,
    /// BTRAN row `ρ = B⁻ᵀ e_r` and its nonzero pattern.
    rho: Vec<f64>,
    rpat: Vec<usize>,
    /// Membership mask in row/basis-position space (length `m`).
    mask: Vec<bool>,
    /// Dual vector workspace for `Bᵀ y = c_B`.
    y: Vec<f64>,
    /// Right-hand-side accumulator (xb recompute, dual bound-flip batch).
    rhs: Vec<f64>,
    rhs_pat: Vec<usize>,
    /// Reduced costs (length `n`).
    d: Vec<f64>,
    /// Pivot row `αᵀ = ρᵀ A` (length `n`), lazily reset via `touched`.
    alpha: Vec<f64>,
    amask: Vec<bool>,
    touched: Vec<usize>,
    /// Devex reference weights (length `n`).
    devex: Vec<f64>,
    /// Dual ratio-test breakpoints `(|d_j/α_j|, j)`.
    breakpoints: Vec<(f64, usize)>,
    /// Columns flipped by the current bound-flipping ratio test pass.
    flips: Vec<usize>,
    /// Columns with a nonzero cost in the current primal phase, ascending.
    cost_cols: Vec<usize>,
    lu: LuScratch,
}

impl Scratch {
    fn ensure(&mut self, m: usize, n: usize) {
        self.w.resize(m, 0.0);
        self.rho.resize(m, 0.0);
        self.y.resize(m, 0.0);
        self.rhs.resize(m, 0.0);
        self.mask.resize(m, false);
        self.d.resize(n, 0.0);
        self.alpha.resize(n, 0.0);
        self.amask.resize(n, false);
        self.devex.resize(n, 0.0);
    }

    /// Forms the pivot row `αᵀ = ρᵀ A` from the nonzeros of `rho`, listed
    /// in `rpat`, in time proportional to the row nonzeros of `A` met,
    /// accumulating into `alpha`/`touched` (lazily zeroed via `amask`),
    /// then clears `rho`/`rpat`. Each `α_j` adds its terms in `rpat` order,
    /// so an ascending `rpat` reproduces
    /// [`CscMatrix::col_dot`](crate::sparse::CscMatrix::col_dot) bit for
    /// bit (up to the sign of a zero). Release with
    /// [`clear_alpha`](Self::clear_alpha).
    fn form_pivot_row(&mut self, rows_of_a: &CsrMatrix) {
        debug_assert!(self.touched.is_empty(), "pivot row not released");
        for &i in &self.rpat {
            let ri = self.rho[i];
            if is_zero(ri) {
                continue;
            }
            for (j, v) in rows_of_a.row(i) {
                if !self.amask[j] {
                    self.amask[j] = true;
                    self.alpha[j] = 0.0;
                    self.touched.push(j);
                }
                self.alpha[j] += ri * v;
            }
        }
        for &i in &self.rpat {
            self.rho[i] = 0.0;
        }
        self.rpat.clear();
    }

    /// `c_j − (Aᵀy)_j` from the product [`form_pivot_row`](Self::form_pivot_row)
    /// formed with `ρ = y`: a column it never touched has `(Aᵀy)_j = 0`.
    fn reduced_cost(&self, costs: &[f64], j: usize) -> f64 {
        if self.amask[j] {
            costs[j] - self.alpha[j]
        } else {
            costs[j]
        }
    }

    /// Releases the pivot row built by [`form_pivot_row`](Self::form_pivot_row).
    fn clear_alpha(&mut self) {
        for &j in &self.touched {
            self.amask[j] = false;
        }
        self.touched.clear();
    }
}

/// A kernel site of the Dantzig engine: a step with a dense and a
/// pattern-tracked (hypersparse) kernel that compute the same values.
#[derive(Debug, Clone, Copy)]
enum Site {
    /// `y = B⁻ᵀ c_B`, `Aᵀy`, and Dantzig pricing or the full reduced-cost
    /// recompute.
    Price,
    /// Primal FTRAN of the entering column, its ratio test, `x_B` step and
    /// eta.
    Ftran,
    /// Dual `ρ = B⁻ᵀ e_r`, the pivot row `αᵀ = ρᵀA`, the dual ratio test
    /// and the reduced-cost update.
    Rho,
    /// Dual FTRAN of the entering column, its `x_B` step and eta.
    DualFtran,
}

/// Per-call dense/sparse choice of the Dantzig engine's kernel sites.
///
/// Both kernels of a site add the same nonzero terms in the same order
/// (DESIGN.md §5b), so the choice moves time, never a pivot. Each site
/// starts dense and takes its sparse kernel while the output of its
/// previous call was sparser than [`SPARSE_BELOW`](Self::SPARSE_BELOW).
#[derive(Debug, Clone, Copy, Default)]
struct KernelSites {
    /// Only the Dantzig engine on the eta-file basis takes sparse kernels;
    /// the devex engine and the Forrest–Tomlin bases keep their own.
    /// Sparse pricing skips zero-cost columns `Aᵀy` never touched, which
    /// needs `opt_tol ≥ 0`.
    enabled: bool,
    sparse: [bool; 4],
}

#[cfg(test)]
thread_local! {
    /// Test-only override of every enabled site: `Some(true)` forces the
    /// sparse kernels, `Some(false)` the dense ones.
    static FORCE_SPARSE: std::cell::Cell<Option<bool>> = const { std::cell::Cell::new(None) };
}

/// Forces (`Some`) or releases (`None`) the Dantzig kernel choice on this
/// thread, for equivalence tests.
#[cfg(test)]
pub(crate) fn force_sparse_kernels(force: Option<bool>) {
    FORCE_SPARSE.with(|f| f.set(force));
}

impl KernelSites {
    /// Output density (nonzeros per entry) below which a site's next call
    /// runs its sparse kernel.
    const SPARSE_BELOW: f64 = 0.1;

    fn new(opts: &LpOptions) -> Self {
        KernelSites {
            enabled: opts.pricing == Pricing::Dantzig
                && opts.basis_update == BasisUpdate::Eta
                && opts.opt_tol >= 0.0,
            sparse: [false; 4],
        }
    }

    fn sparse(&self, site: Site) -> bool {
        #[cfg(test)]
        if let Some(force) = FORCE_SPARSE.with(|f| f.get()) {
            return self.enabled && force;
        }
        self.enabled && self.sparse[site as usize]
    }

    /// Records the output density of a call at `site`.
    fn record(&mut self, site: Site, nnz: usize, len: usize) {
        self.sparse[site as usize] = (nnz as f64) < Self::SPARSE_BELOW * len as f64;
    }

    /// Records the output density of a dense call at `site`; the nonzero
    /// count is skipped while no site is enabled.
    fn record_dense(&mut self, site: Site, buf: &[f64]) {
        if self.enabled {
            let nnz = buf.iter().filter(|&&v| is_nonzero(v)).count();
            self.record(site, nnz, buf.len());
        }
    }
}

struct Simplex<'a> {
    core: &'a CoreLp,
    opts: &'a LpOptions,
    lower: Vec<f64>,
    upper: Vec<f64>,
    stat: Vec<VStat>,
    basic: Vec<usize>,
    basis: BasisRepr,
    /// Values of basic variables, indexed by basis position.
    xb: Vec<f64>,
    iterations: usize,
    degen_streak: usize,
    scratch: Scratch,
    profile: SimplexProfile,
    /// Section timers enabled ([`LpOptions::profile`]).
    timers: bool,
    sites: KernelSites,
}

impl<'a> Simplex<'a> {
    /// A solver over `core` at the basis `basic` (basic values `xb`), with
    /// its starting factorization built (counted in `factorizations`,
    /// timed in `factor_secs` and, with the mid-solve rebuilds, in
    /// `refactor_secs`) and its work vectors allocated (timed as other
    /// work).
    fn new(
        core: &'a CoreLp,
        opts: &'a LpOptions,
        lower: Vec<f64>,
        upper: Vec<f64>,
        stat: Vec<VStat>,
        basic: Vec<usize>,
        xb: Vec<f64>,
    ) -> Result<Self, LpError> {
        let tfac = tick(opts.profile);
        let basis = BasisRepr::factorize(&core.a, &basic, opts)?;
        let mut profile = SimplexProfile {
            factorizations: 1,
            ..SimplexProfile::default()
        };
        tock(tfac, &mut profile.factor_secs);
        profile.refactor_secs = profile.factor_secs;
        let talloc = tick(opts.profile);
        let mut scratch = Scratch::default();
        scratch.ensure(core.m, core.n);
        tock(talloc, &mut profile.other_secs);
        Ok(Simplex {
            core,
            opts,
            lower,
            upper,
            stat,
            basic,
            basis,
            xb,
            iterations: 0,
            degen_streak: 0,
            scratch,
            profile,
            timers: opts.profile,
            sites: KernelSites::new(opts),
        })
    }

    /// Value a nonbasic column rests at.
    fn nonbasic_value(&self, j: usize) -> f64 {
        match self.stat[j] {
            VStat::AtLower => self.lower[j],
            VStat::AtUpper => self.upper[j],
            VStat::Free => 0.0,
            VStat::Basic => unreachable!("nonbasic_value on basic column"),
        }
    }

    /// Checks the shared solve budget (its stop flags, pivot caps and
    /// deadlines) and the scripted clock-skew fault, every 32 iterations.
    fn hit_deadline(&self) -> bool {
        if !self.iterations.is_multiple_of(32) {
            return false;
        }
        if let Some(faults) = &self.opts.faults {
            if faults.trip(crate::faults::FaultSite::ClockSkew) {
                return true;
            }
        }
        self.opts
            .budget
            .as_ref()
            .is_some_and(|budget| budget.should_stop(self.iterations))
    }

    /// Recomputes `xb` from scratch: `x_B = B⁻¹ (b − N x_N)`.
    fn recompute_xb(&mut self) {
        let m = self.core.m;
        self.scratch.rhs.copy_from_slice(&self.core.b);
        for j in 0..self.core.n {
            if self.stat[j] != VStat::Basic {
                let v = self.nonbasic_value(j);
                if is_nonzero(v) {
                    self.core.a.col_axpy(j, -v, &mut self.scratch.rhs);
                }
            }
        }
        debug_assert_eq!(self.scratch.rhs.len(), m);
        self.basis
            .ftran(&mut self.scratch.rhs, &mut self.scratch.lu);
        self.xb.copy_from_slice(&self.scratch.rhs);
        self.scratch.rhs.fill(0.0);
    }

    fn refactor(&mut self) -> Result<(), LpError> {
        let t = tick(self.timers);
        inject_singular(self.opts)?;
        self.basis = BasisRepr::factorize(&self.core.a, &self.basic, self.opts)?;
        self.recompute_xb();
        self.profile.refactors += 1;
        tock(t, &mut self.profile.refactor_secs);
        Ok(())
    }

    fn maybe_refactor(&mut self) -> Result<(), LpError> {
        if self.basis.refactor_due(self.opts.refactor_every) {
            self.refactor()?;
        }
        Ok(())
    }

    /// Reduced costs `d_j = c_j − y·a_j` for all columns (basic ones ≈ 0),
    /// written into `d` (any length; resized to `n`). Uses `scratch.y`, or
    /// the `ρ` and pivot-row buffers on the sparse kernel, so `d` must not
    /// alias them.
    fn reduced_costs_into(&mut self, costs: &[f64], d: &mut Vec<f64>) {
        let t = self.reduced_costs_pricing(costs, d);
        tock(t, &mut self.profile.pricing_secs);
    }

    /// [`reduced_costs_into`](Self::reduced_costs_into) that leaves its
    /// pricing section running, so a caller pricing next extends it
    /// instead of opening another.
    fn reduced_costs_pricing(&mut self, costs: &[f64], d: &mut Vec<f64>) -> Option<Instant> {
        d.resize(self.core.n, 0.0);
        if self.sites.sparse(Site::Price) {
            self.btran_costs_sparse(costs);
            let t = tick(self.timers);
            self.scratch.form_pivot_row(&self.core.rows_of_a);
            for j in 0..self.core.n {
                d[j] = if self.stat[j] == VStat::Basic {
                    0.0
                } else {
                    self.scratch.reduced_cost(costs, j)
                };
            }
            self.scratch.clear_alpha();
            return t;
        }
        let t = tick(self.timers);
        self.scratch.y.fill(0.0);
        for (pos, &col) in self.basic.iter().enumerate() {
            self.scratch.y[pos] = costs[col];
        }
        self.basis.btran(&mut self.scratch.y, &mut self.scratch.lu);
        self.sites.record_dense(Site::Price, &self.scratch.y);
        tock(t, &mut self.profile.btran_secs);
        let t = tick(self.timers);
        for j in 0..self.core.n {
            d[j] = if self.stat[j] == VStat::Basic {
                0.0
            } else {
                costs[j] - self.core.a.col_dot(j, &self.scratch.y)
            };
        }
        t
    }

    /// Sparse kernel of [`Site::Price`]: `y = B⁻ᵀ c_B` in `scratch.rho`
    /// with its rows ascending in `scratch.rpat`, the order in which
    /// [`Scratch::form_pivot_row`] must add `Aᵀy` to match the dense
    /// column dots.
    fn btran_costs_sparse(&mut self, costs: &[f64]) {
        let t = tick(self.timers);
        let s = &mut self.scratch;
        debug_assert!(s.rpat.is_empty(), "ρ buffers not released");
        for (pos, &col) in self.basic.iter().enumerate() {
            if is_nonzero(costs[col]) {
                s.rho[pos] = costs[col];
                s.rpat.push(pos);
            }
        }
        self.basis.btran_sparse(&mut s.rho, &mut s.rpat, &mut s.lu);
        s.rpat.sort_unstable();
        self.sites.record(Site::Price, s.rpat.len(), self.core.m);
        tock(t, &mut self.profile.btran_secs);
    }

    /// [`reduced_costs_into`](Self::reduced_costs_into) targeting
    /// `scratch.d` (the common case).
    fn update_reduced_costs(&mut self, costs: &[f64]) {
        let mut d = std::mem::take(&mut self.scratch.d);
        self.reduced_costs_into(costs, &mut d);
        self.scratch.d = d;
    }

    /// How far nonbasic column `j` with reduced cost `dj` violates dual
    /// feasibility beyond `opt_tol` (`0` when it may not enter).
    fn pricing_violation(&self, j: usize, dj: f64) -> f64 {
        let tol = self.opts.opt_tol;
        match self.stat[j] {
            VStat::AtLower => (-dj - tol).max(0.0),
            VStat::AtUpper => (dj - tol).max(0.0),
            VStat::Free => (dj.abs() - tol).max(0.0),
            VStat::Basic => 0.0,
        }
    }

    /// Dantzig (or Bland, under degeneracy) pricing. Returns the entering
    /// column, or `None` at optimality.
    fn price(&self, d: &[f64], bland: bool) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for j in 0..self.core.n {
            if self.stat[j] == VStat::Basic || self.lower[j] == self.upper[j] {
                continue;
            }
            let viol = self.pricing_violation(j, d[j]);
            if viol > 0.0 {
                if bland {
                    return Some(j);
                }
                if best.is_none_or(|(_, bv)| viol > bv) {
                    best = Some((j, viol));
                }
            }
        }
        best.map(|(j, _)| j)
    }

    /// Prices from freshly recomputed reduced costs at [`Site::Price`].
    /// Returns the entering column and its reduced cost, or `None` at
    /// optimality.
    ///
    /// The sparse kernel never forms `d`. A zero-cost column that `Aᵀy`
    /// never touched has `d_j = 0`, which cannot price in, so only the
    /// nonzero-cost and touched columns are candidates. The dense scan
    /// keeps the first (smallest-index) maximum, and Bland the first
    /// violation; the sparse scan states both as a smallest-index rule, so
    /// its visiting order does not matter.
    fn price_dantzig(&mut self, costs: &[f64], bland: bool) -> Option<(usize, f64)> {
        if !self.sites.sparse(Site::Price) {
            let mut d = std::mem::take(&mut self.scratch.d);
            let t = self.reduced_costs_pricing(costs, &mut d);
            let entering = self.price(&d, bland).map(|q| (q, d[q]));
            self.scratch.d = d;
            tock(t, &mut self.profile.pricing_secs);
            return entering;
        }
        self.btran_costs_sparse(costs);
        let t = tick(self.timers);
        self.scratch.form_pivot_row(&self.core.rows_of_a);
        let s = &self.scratch;
        let zero_cost_touched = s.touched.iter().copied().filter(|&j| is_zero(costs[j]));
        let mut best: Option<(usize, f64, f64)> = None; // (col, violation, d)
        for j in s.cost_cols.iter().copied().chain(zero_cost_touched) {
            if self.stat[j] == VStat::Basic || self.lower[j] == self.upper[j] {
                continue;
            }
            let dj = s.reduced_cost(costs, j);
            let viol = self.pricing_violation(j, dj);
            if viol > 0.0
                && best.is_none_or(|(bj, bv, _)| {
                    if bland {
                        j < bj
                    } else {
                        viol > bv || (viol == bv && j < bj)
                    }
                })
            {
                best = Some((j, viol, dj));
            }
        }
        self.scratch.clear_alpha();
        tock(t, &mut self.profile.pricing_secs);
        best.map(|(j, _, dj)| (j, dj))
    }

    /// Objective value of the current (possibly mid-pivot) iterate, over
    /// the phase's nonzero-cost columns.
    fn current_objective(&self, costs: &[f64]) -> f64 {
        let mut obj = 0.0;
        for &j in &self.scratch.cost_cols {
            if self.stat[j] != VStat::Basic {
                obj += costs[j] * self.nonbasic_value(j);
            }
        }
        for (pos, &col) in self.basic.iter().enumerate() {
            if is_nonzero(costs[col]) {
                obj += costs[col] * self.xb[pos];
            }
        }
        obj
    }

    /// FTRAN of column `q` of `A` into the all-zero `w` at `site`. The
    /// sparse kernel leaves the nonzero rows of `w` ascending in `wpat` and
    /// returns `true`; the dense one leaves `wpat` empty. Release the
    /// buffers with [`release_w`](Self::release_w).
    fn ftran_column(&mut self, q: usize, site: Site, w: &mut [f64], wpat: &mut Vec<usize>) -> bool {
        let t = tick(self.timers);
        let sparse = self.sites.sparse(site);
        if sparse {
            for (r, v) in self.core.a.col(q) {
                w[r] = v;
                wpat.push(r);
            }
            let s = &mut self.scratch;
            self.basis.ftran_sparse(w, wpat, &mut s.lu);
            wpat.sort_unstable();
            self.sites.record(site, wpat.len(), self.core.m);
        } else {
            for (r, v) in self.core.a.col(q) {
                w[r] = v;
            }
            self.basis.ftran(w, &mut self.scratch.lu);
            self.sites.record_dense(site, w);
        }
        tock(t, &mut self.profile.ftran_secs);
        sparse
    }

    /// Returns the FTRAN buffers of [`ftran_column`](Self::ftran_column) to
    /// `scratch`, all-zero. Untimed: the clearing costs less than a timer.
    fn release_w(&mut self, mut w: Vec<f64>, mut wpat: Vec<usize>, sparse: bool) {
        if sparse {
            for &i in &wpat {
                w[i] = 0.0;
            }
            wpat.clear();
        } else {
            w.fill(0.0);
        }
        self.scratch.w = w;
        self.scratch.wpat = wpat;
    }

    /// Primal ratio test over the FTRAN column `w` of entering column `q`
    /// moving in direction `dir`, visiting the ascending rows `pat` (all
    /// rows when `None`). Returns the step and the leaving basis position
    /// with the bound it hits; no position means the entering column
    /// reaches its other bound first (or, at an infinite step, the phase is
    /// unbounded).
    fn primal_ratio_test(
        &self,
        w: &[f64],
        pat: Option<&[usize]>,
        q: usize,
        dir: f64,
        bland: bool,
    ) -> (f64, Option<(usize, VStat)>) {
        let ptol = self.opts.pivot_tol;
        let gap = self.upper[q] - self.lower[q];
        let mut t_best = if gap.is_finite() { gap } else { f64::INFINITY };
        let mut leave: Option<(usize, VStat)> = None; // (basis pos, bound hit)
        let mut leave_piv = 0.0f64;
        let mut visit = |i: usize| {
            let wi = w[i];
            if wi.abs() <= ptol {
                return;
            }
            let bcol = self.basic[i];
            let delta = dir * wi; // x_B[i] moves by −t·delta
            let (t_i, hit) = if delta > 0.0 {
                let lo = self.lower[bcol];
                if is_neg_infinite(lo) {
                    return;
                }
                (((self.xb[i] - lo) / delta).max(0.0), VStat::AtLower)
            } else {
                let hi = self.upper[bcol];
                if is_pos_infinite(hi) {
                    return;
                }
                (((self.xb[i] - hi) / delta).max(0.0), VStat::AtUpper)
            };
            let better = if bland {
                // Bland's anti-cycling rule needs the smallest-index
                // leaving variable among ties, not the largest pivot.
                t_i < t_best - 1e-12
                    || (t_i < t_best + 1e-12 && leave.is_none_or(|(li, _)| bcol < self.basic[li]))
            } else {
                t_i < t_best - 1e-12 || (t_i < t_best + 1e-12 && wi.abs() > leave_piv.abs())
            };
            if better {
                t_best = t_i;
                leave = Some((i, hit));
                leave_piv = wi;
            }
        };
        match pat {
            Some(pat) => pat.iter().for_each(|&i| visit(i)),
            None => (0..w.len()).for_each(visit),
        }
        (t_best, leave)
    }

    /// `x_B −= scale·w` over the ascending rows `pat` of `w` (all rows when
    /// `None`).
    fn step_xb(xb: &mut [f64], w: &[f64], pat: Option<&[usize]>, scale: f64) {
        let mut step = |i: usize| {
            if is_nonzero(w[i]) {
                xb[i] -= scale * w[i];
            }
        };
        match pat {
            Some(pat) => pat.iter().for_each(|&i| step(i)),
            None => (0..w.len()).for_each(step),
        }
    }

    /// One primal phase with cost vector `costs`. Returns `Optimal` or
    /// `Unbounded`. When `stop_at` is set, the phase also ends (reported as
    /// `Optimal`) once the objective reaches that value — used to cut phase 1
    /// short at zero infeasibility instead of stalling on degenerate pivots.
    ///
    /// Dispatch: [`Pricing::Dantzig`] runs the full-pricing engine whose
    /// pivot sequence is pinned by golden tests; devex and Bland run the
    /// incremental engine.
    fn primal(&mut self, costs: &[f64], stop_at: Option<f64>) -> Result<LpStatus, LpError> {
        let t = tick(self.timers);
        let cols = &mut self.scratch.cost_cols;
        cols.clear();
        cols.extend((0..self.core.n).filter(|&j| is_nonzero(costs[j])));
        tock(t, &mut self.profile.other_secs);
        match self.opts.pricing {
            Pricing::Dantzig => self.primal_dantzig(costs, stop_at),
            Pricing::Devex | Pricing::Bland => self.primal_incremental(costs, stop_at),
        }
    }

    fn primal_dantzig(&mut self, costs: &[f64], stop_at: Option<f64>) -> Result<LpStatus, LpError> {
        loop {
            if self.iterations >= self.opts.max_iterations {
                return Err(LpError::IterationLimit);
            }
            if self.hit_deadline() {
                return Err(LpError::Timeout);
            }
            self.maybe_refactor()?;
            if let Some(target) = stop_at {
                let t = tick(self.timers);
                let reached = self.current_objective(costs) <= target + self.opts.feas_tol;
                tock(t, &mut self.profile.other_secs);
                if reached {
                    return Ok(LpStatus::Optimal);
                }
            }
            let bland = self.degen_streak > 40;
            let Some((q, dq)) = self.price_dantzig(costs, bland) else {
                return Ok(LpStatus::Optimal);
            };
            // Direction of the entering variable.
            let dir = match self.stat[q] {
                VStat::AtLower => 1.0,
                VStat::AtUpper => -1.0,
                VStat::Free => {
                    if dq < 0.0 {
                        1.0
                    } else {
                        -1.0
                    }
                }
                VStat::Basic => unreachable!(),
            };
            let mut w = std::mem::take(&mut self.scratch.w);
            let mut wpat = std::mem::take(&mut self.scratch.wpat);
            let sparse = self.ftran_column(q, Site::Ftran, &mut w, &mut wpat);
            let pat = sparse.then_some(wpat.as_slice());
            let tr = tick(self.timers);
            let (t_best, leave) = self.primal_ratio_test(&w, pat, q, dir, bland);
            tock(tr, &mut self.profile.ratio_secs);
            if t_best.is_infinite() {
                self.release_w(w, wpat, sparse);
                return Ok(LpStatus::Unbounded);
            }
            self.iterations += 1;
            self.profile.primal_iterations += 1;
            if t_best <= 1e-10 {
                self.degen_streak += 1;
            } else {
                self.degen_streak = 0;
            }
            // Apply the step.
            let t = t_best;
            Self::step_xb(&mut self.xb, &w, pat, t * dir);
            match leave {
                None => {
                    // Bound flip of the entering variable.
                    self.stat[q] = match self.stat[q] {
                        VStat::AtLower => VStat::AtUpper,
                        VStat::AtUpper => VStat::AtLower,
                        s => s,
                    };
                    self.profile.bound_flips += 1;
                }
                Some((r, hit)) => {
                    let entering_value = self.nonbasic_value(q) + t * dir;
                    let leaving_col = self.basic[r];
                    self.stat[leaving_col] = if self.lower[leaving_col] == self.upper[leaving_col] {
                        VStat::AtLower
                    } else {
                        hit
                    };
                    self.stat[q] = VStat::Basic;
                    self.basic[r] = q;
                    self.xb[r] = entering_value;
                    self.update_basis(r, &w, pat)?;
                }
            }
            self.release_w(w, wpat, sparse);
        }
    }

    /// Records the pivot at basis position `r` (FTRAN column `w`, optional
    /// ascending nonzero pattern) in the basis representation. An update
    /// rejected as numerically unsafe refactorizes immediately —
    /// `basic[r]`/`stat`/`xb` must already describe the post-pivot basis
    /// when this is called.
    fn update_basis(&mut self, r: usize, w: &[f64], wpat: Option<&[usize]>) -> Result<(), LpError> {
        let t = tick(self.timers);
        let accepted = self.basis.update(r, w, wpat, self.opts.pivot_tol);
        tock(t, &mut self.profile.update_secs);
        if !accepted {
            self.refactor()?;
        }
        Ok(())
    }

    /// Devex (max `d_j²/w_j`) or Bland (smallest index) pricing over
    /// incrementally maintained reduced costs.
    fn price_incremental(&self, d: &[f64], bland: bool) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for j in 0..self.core.n {
            if self.stat[j] == VStat::Basic || self.lower[j] == self.upper[j] {
                continue;
            }
            let viol = self.pricing_violation(j, d[j]);
            if viol > 0.0 {
                if bland {
                    return Some(j);
                }
                let score = d[j] * d[j] / self.scratch.devex[j].max(1.0);
                if best.is_none_or(|(_, bs)| score > bs) {
                    best = Some((j, score));
                }
            }
        }
        best.map(|(j, _)| j)
    }

    /// Incremental-pricing primal engine behind [`Pricing::Devex`] and
    /// [`Pricing::Bland`].
    ///
    /// Differences from the legacy Dantzig engine:
    /// * reduced costs are updated from the pivot row `αᵀ = ρᵀ A` after each
    ///   pivot (`d'_j = d_j − θ·α_j`) instead of recomputed from `Bᵀy = c_B`
    ///   every iteration, with full recomputes only at refactorizations and
    ///   once to confirm apparent optimality;
    /// * devex reference weights steer the entering choice (unless Bland);
    /// * FTRAN/BTRAN are always hypersparse (pattern-tracked), where the
    ///   Dantzig engine picks per call, and the ratio test and basics
    ///   update only touch the column's nonzeros.
    fn primal_incremental(
        &mut self,
        costs: &[f64],
        stop_at: Option<f64>,
    ) -> Result<LpStatus, LpError> {
        self.update_reduced_costs(costs);
        self.scratch.devex.fill(1.0);
        let mut d = std::mem::take(&mut self.scratch.d);
        let res = self.primal_incremental_inner(costs, stop_at, &mut d);
        self.scratch.d = d;
        res
    }

    fn primal_incremental_inner(
        &mut self,
        costs: &[f64],
        stop_at: Option<f64>,
        d: &mut Vec<f64>,
    ) -> Result<LpStatus, LpError> {
        let ptol = self.opts.pivot_tol;
        // `d` is exact right after a full recompute; incremental updates
        // drift, so apparent optimality under a stale `d` is confirmed by
        // one full recompute before returning.
        let mut fresh = true;
        loop {
            if self.iterations >= self.opts.max_iterations {
                return Err(LpError::IterationLimit);
            }
            if self.hit_deadline() {
                return Err(LpError::Timeout);
            }
            if self.basis.refactor_due(self.opts.refactor_every) {
                self.refactor()?;
                self.reduced_costs_into(costs, d);
                fresh = true;
            }
            if let Some(target) = stop_at {
                let t = tick(self.timers);
                let reached = self.current_objective(costs) <= target + self.opts.feas_tol;
                tock(t, &mut self.profile.other_secs);
                if reached {
                    return Ok(LpStatus::Optimal);
                }
            }
            let bland = matches!(self.opts.pricing, Pricing::Bland) || self.degen_streak > 40;
            let tp = tick(self.timers);
            let entering = self.price_incremental(d, bland);
            tock(tp, &mut self.profile.pricing_secs);
            let Some(q) = entering else {
                if fresh {
                    return Ok(LpStatus::Optimal);
                }
                self.reduced_costs_into(costs, d);
                fresh = true;
                continue;
            };
            let dir = match self.stat[q] {
                VStat::AtLower => 1.0,
                VStat::AtUpper => -1.0,
                VStat::Free => {
                    if d[q] < 0.0 {
                        1.0
                    } else {
                        -1.0
                    }
                }
                VStat::Basic => unreachable!(),
            };
            // Hypersparse FTRAN of the entering column.
            let mut w = std::mem::take(&mut self.scratch.w);
            let mut wpat = std::mem::take(&mut self.scratch.wpat);
            wpat.clear();
            for (r, v) in self.core.a.col(q) {
                w[r] = v;
                wpat.push(r);
            }
            let tf = tick(self.timers);
            self.basis
                .ftran_sparse(&mut w, &mut wpat, &mut self.scratch.lu);
            tock(tf, &mut self.profile.ftran_secs);
            // Ascending pattern: the ratio test tie-breaking then matches a
            // dense scan, and eta entries stay ordered.
            wpat.sort_unstable();
            // Ratio test over the column's nonzeros.
            let tr = tick(self.timers);
            let (t_best, leave) = self.primal_ratio_test(&w, Some(&wpat), q, dir, bland);
            tock(tr, &mut self.profile.ratio_secs);
            if t_best.is_infinite() {
                for &i in &wpat {
                    w[i] = 0.0;
                }
                self.scratch.w = w;
                self.scratch.wpat = wpat;
                return Ok(LpStatus::Unbounded);
            }
            self.iterations += 1;
            self.profile.primal_iterations += 1;
            if t_best <= 1e-10 {
                self.degen_streak += 1;
            } else {
                self.degen_streak = 0;
            }
            let t = t_best;
            Self::step_xb(&mut self.xb, &w, Some(&wpat), t * dir);
            match leave {
                None => {
                    // Bound flip of the entering variable: the basis (and
                    // hence `d` and the devex weights) is unchanged.
                    self.stat[q] = match self.stat[q] {
                        VStat::AtLower => VStat::AtUpper,
                        VStat::AtUpper => VStat::AtLower,
                        s => s,
                    };
                    self.profile.bound_flips += 1;
                }
                Some((r, hit)) => {
                    // Pivot row w.r.t. the *pre-pivot* basis, for the d and
                    // devex updates.
                    let tb = tick(self.timers);
                    self.scratch.rho[r] = 1.0;
                    self.scratch.rpat.clear();
                    self.scratch.rpat.push(r);
                    let s = &mut self.scratch;
                    self.basis.btran_sparse(&mut s.rho, &mut s.rpat, &mut s.lu);
                    self.scratch.form_pivot_row(&self.core.rows_of_a);
                    tock(tb, &mut self.profile.btran_secs);
                    let alpha_q = if self.scratch.amask[q] {
                        self.scratch.alpha[q]
                    } else {
                        0.0
                    };
                    let entering_value = self.nonbasic_value(q) + t * dir;
                    let leaving_col = self.basic[r];
                    self.stat[leaving_col] = if self.lower[leaving_col] == self.upper[leaving_col] {
                        VStat::AtLower
                    } else {
                        hit
                    };
                    self.stat[q] = VStat::Basic;
                    self.basic[r] = q;
                    self.xb[r] = entering_value;
                    self.update_basis(r, &w, Some(&wpat))?;
                    let tp2 = tick(self.timers);
                    if alpha_q.abs() <= ptol {
                        // FTRAN and BTRAN disagree about the pivot; a full
                        // recompute is safer than an incremental update.
                        self.reduced_costs_into(costs, d);
                        fresh = true;
                    } else {
                        let theta = d[q] / alpha_q;
                        let wq = self.scratch.devex[q].max(1.0);
                        let mut wmax = 0.0f64;
                        {
                            let s = &mut self.scratch;
                            for &j in &s.touched {
                                if self.stat[j] == VStat::Basic {
                                    continue;
                                }
                                let aj = s.alpha[j];
                                if is_nonzero(aj) {
                                    d[j] -= theta * aj;
                                    let cand = (aj / alpha_q) * (aj / alpha_q) * wq;
                                    if cand > s.devex[j] {
                                        s.devex[j] = cand;
                                    }
                                    if s.devex[j] > wmax {
                                        wmax = s.devex[j];
                                    }
                                }
                            }
                        }
                        d[leaving_col] = -theta;
                        d[q] = 0.0;
                        let wl = (wq / (alpha_q * alpha_q)).max(1.0);
                        self.scratch.devex[leaving_col] = wl;
                        if wl.max(wmax) > 1e9 {
                            // Reference framework drifted: restart it.
                            self.scratch.devex.fill(1.0);
                            self.profile.devex_resets += 1;
                        }
                        fresh = false;
                    }
                    tock(tp2, &mut self.profile.pricing_secs);
                    self.scratch.clear_alpha();
                }
            }
            for &i in &wpat {
                w[i] = 0.0;
            }
            self.scratch.w = w;
            self.scratch.wpat = wpat;
        }
    }

    /// Dual simplex: restores primal feasibility while keeping dual
    /// feasibility. Requires a dual-feasible starting basis.
    ///
    /// Dispatch mirrors [`primal`](Self::primal): Dantzig keeps the pinned
    /// legacy engine; devex/Bland run the bound-flipping (long-step) ratio
    /// test with hypersparse solves.
    fn dual(&mut self, costs: &[f64]) -> Result<LpStatus, WarmFail> {
        let mut d = std::mem::take(&mut self.scratch.d);
        let res = match self.opts.pricing {
            Pricing::Dantzig => self.dual_dantzig(costs, &mut d),
            Pricing::Devex | Pricing::Bland => self.dual_bfrt(costs, &mut d),
        };
        self.scratch.d = d;
        res
    }

    /// Checks dual feasibility of the starting basis against `d`.
    fn start_is_dual_feasible(&self, d: &[f64]) -> bool {
        let dual_tol = self.opts.opt_tol * 100.0;
        for j in 0..self.core.n {
            if self.stat[j] == VStat::Basic || self.lower[j] == self.upper[j] {
                continue;
            }
            let bad = match self.stat[j] {
                VStat::AtLower => d[j] < -dual_tol,
                VStat::AtUpper => d[j] > dual_tol,
                VStat::Free => d[j].abs() > dual_tol,
                VStat::Basic => false,
            };
            if bad {
                return false;
            }
        }
        true
    }

    /// Dantzig dual loop. Reduced costs are maintained incrementally across
    /// dual pivots (`d'_j = d_j − θ·α_j`) and refreshed from scratch at
    /// every refactorization to bound drift.
    fn dual_dantzig(&mut self, costs: &[f64], d: &mut Vec<f64>) -> Result<LpStatus, WarmFail> {
        // Verify dual feasibility of the start.
        self.reduced_costs_into(costs, d);
        if !self.start_is_dual_feasible(d) {
            return Err(WarmFail::NotDualFeasible);
        }
        let ptol = self.opts.pivot_tol;
        loop {
            if self.iterations >= self.opts.max_iterations {
                return Err(WarmFail::Error(LpError::IterationLimit));
            }
            if self.iterations >= self.opts.dual_iteration_cap {
                // Degenerate grind: let the caller fall back to a cold solve.
                return Err(WarmFail::NotDualFeasible);
            }
            if self.hit_deadline() {
                return Err(WarmFail::Error(LpError::Timeout));
            }
            if self.basis.refactor_due(self.opts.refactor_every) {
                self.refactor().map_err(WarmFail::Error)?;
                self.reduced_costs_into(costs, d);
            }
            // Leaving: most violated basic.
            let tl = tick(self.timers);
            let ftol = self.opts.feas_tol;
            let mut leave: Option<(usize, f64, bool)> = None; // (pos, viol, at_lower_violation)
            for i in 0..self.core.m {
                let col = self.basic[i];
                let below = self.lower[col] - self.xb[i];
                let above = self.xb[i] - self.upper[col];
                if below > ftol && leave.is_none_or(|(_, v, _)| below > v) {
                    leave = Some((i, below, true));
                }
                if above > ftol && leave.is_none_or(|(_, v, _)| above > v) {
                    leave = Some((i, above, false));
                }
            }
            tock(tl, &mut self.profile.pricing_secs);
            let Some((r, _viol, low_viol)) = leave else {
                return Ok(LpStatus::Optimal);
            };
            let sparse_row = self.sites.sparse(Site::Rho);
            let Some((q, alpha_q)) = self.dual_pivot_column(r, low_viol, d, sparse_row) else {
                // Dual unbounded ⇒ primal infeasible.
                self.scratch.clear_alpha();
                return Ok(LpStatus::Infeasible);
            };
            self.iterations += 1;
            self.profile.dual_iterations += 1;
            // Primal pivot.
            let mut w = std::mem::take(&mut self.scratch.w);
            let mut wpat = std::mem::take(&mut self.scratch.wpat);
            let sparse = self.ftran_column(q, Site::DualFtran, &mut w, &mut wpat);
            let wr = w[r];
            if wr.abs() <= ptol {
                self.release_w(w, wpat, sparse);
                self.scratch.clear_alpha();
                // Numerical disagreement between rho·a_q and the FTRAN column;
                // refactor once and retry, else give up to the cold path.
                if self.basis.updates_len() == 0 {
                    return Err(WarmFail::NotDualFeasible);
                }
                self.refactor().map_err(WarmFail::Error)?;
                self.reduced_costs_into(costs, d);
                continue;
            }
            let pat = sparse.then_some(wpat.as_slice());
            let target = if low_viol {
                self.lower[self.basic[r]]
            } else {
                self.upper[self.basic[r]]
            };
            let t = (self.xb[r] - target) / wr;
            Self::step_xb(&mut self.xb, &w, pat, t);
            let entering_value = self.nonbasic_value(q) + t;
            let leaving_col = self.basic[r];
            // A leaving fixed column (l == u) rests at its (single) bound.
            self.stat[leaving_col] =
                if low_viol || self.lower[leaving_col] == self.upper[leaving_col] {
                    VStat::AtLower
                } else {
                    VStat::AtUpper
                };
            self.stat[q] = VStat::Basic;
            self.basic[r] = q;
            self.xb[r] = entering_value;
            self.update_basis(r, &w, pat).map_err(WarmFail::Error)?;
            self.release_w(w, wpat, sparse);
            // Incremental reduced-cost update: d'_j = d_j − θ·α_j, with the
            // leaving column picking up d = −θ and the entering one 0.
            let tp = tick(self.timers);
            let theta = d[q] / alpha_q;
            if is_nonzero(theta) {
                let s = &self.scratch;
                let mut update = |j: usize| {
                    if is_nonzero(s.alpha[j]) {
                        d[j] -= theta * s.alpha[j];
                    }
                };
                if sparse_row {
                    s.touched.iter().for_each(|&j| update(j));
                } else {
                    (0..self.core.n).for_each(update);
                }
            }
            d[q] = 0.0;
            d[leaving_col] = -theta;
            self.scratch.clear_alpha();
            tock(tp, &mut self.profile.pricing_secs);
        }
    }

    /// Row `r` of `B⁻¹N` (`ρ = B⁻ᵀ e_r`, `α_j = ρ·a_j`) and the Dantzig
    /// dual ratio test, on the `sparse` or dense kernel of [`Site::Rho`].
    /// Returns the entering column and its `α_q`, or `None` when the dual
    /// is unbounded along the row.
    ///
    /// `α` is left in `scratch.alpha` for the reduced-cost update, zero on
    /// basic and fixed columns: over every column on the dense kernel, over
    /// `scratch.touched` (ascending) on the sparse one. Release it with
    /// [`Scratch::clear_alpha`].
    fn dual_pivot_column(
        &mut self,
        r: usize,
        low_viol: bool,
        d: &[f64],
        sparse: bool,
    ) -> Option<(usize, f64)> {
        let tb = tick(self.timers);
        let s = &mut self.scratch;
        s.rho[r] = 1.0;
        if sparse {
            s.rpat.push(r);
            self.basis.btran_sparse(&mut s.rho, &mut s.rpat, &mut s.lu);
            s.rpat.sort_unstable();
            self.sites.record(Site::Rho, s.rpat.len(), self.core.m);
        } else {
            self.basis.btran(&mut s.rho, &mut s.lu);
            self.sites.record_dense(Site::Rho, &s.rho);
        }
        tock(tb, &mut self.profile.btran_secs);
        let tr = tick(self.timers);
        let mut best: Option<(usize, f64, f64)> = None; // (col, step s, alpha)
        if sparse {
            self.scratch.form_pivot_row(&self.core.rows_of_a);
            let mut alpha = std::mem::take(&mut self.scratch.alpha);
            let mut touched = std::mem::take(&mut self.scratch.touched);
            touched.sort_unstable();
            for &j in &touched {
                if self.stat[j] == VStat::Basic || self.lower[j] == self.upper[j] {
                    alpha[j] = 0.0;
                    continue;
                }
                self.dual_ratio_candidate(j, alpha[j], d[j], low_viol, &mut best);
            }
            self.scratch.alpha = alpha;
            self.scratch.touched = touched;
        } else {
            let mut alpha = std::mem::take(&mut self.scratch.alpha);
            let mut rho = std::mem::take(&mut self.scratch.rho);
            for j in 0..self.core.n {
                alpha[j] = 0.0;
                if self.stat[j] == VStat::Basic || self.lower[j] == self.upper[j] {
                    continue;
                }
                let aj = self.core.a.col_dot(j, &rho);
                alpha[j] = aj;
                self.dual_ratio_candidate(j, aj, d[j], low_viol, &mut best);
            }
            rho.fill(0.0);
            self.scratch.alpha = alpha;
            self.scratch.rho = rho;
        }
        tock(tr, &mut self.profile.ratio_secs);
        best.map(|(q, _, alpha_q)| (q, alpha_q))
    }

    /// Offers nonbasic column `j` (pivot-row entry `aj`, reduced cost `dj`)
    /// to the Dantzig dual ratio test: the smallest step before a reduced
    /// cost changes sign, ties within `1e-12` to the larger `|α_j|`, then
    /// to the earlier offer.
    fn dual_ratio_candidate(
        &self,
        j: usize,
        aj: f64,
        dj: f64,
        low_viol: bool,
        best: &mut Option<(usize, f64, f64)>,
    ) {
        if aj.abs() <= self.opts.pivot_tol {
            return;
        }
        let eligible = if low_viol {
            // x_Br must increase.
            match self.stat[j] {
                VStat::AtLower => aj < 0.0,
                VStat::AtUpper => aj > 0.0,
                VStat::Free => true,
                VStat::Basic => false,
            }
        } else {
            // x_Br must decrease.
            match self.stat[j] {
                VStat::AtLower => aj > 0.0,
                VStat::AtUpper => aj < 0.0,
                VStat::Free => true,
                VStat::Basic => false,
            }
        };
        if !eligible {
            return;
        }
        // Max dual step before d_j flips sign.
        let s = (dj / aj).abs().max(0.0);
        if best.is_none_or(|(_, bs, ba)| s < bs - 1e-12 || (s < bs + 1e-12 && aj.abs() > ba.abs()))
        {
            *best = Some((j, s, aj));
        }
    }

    /// Dual simplex with the bound-flipping (long-step) ratio test and
    /// hypersparse solves — the engine behind [`Pricing::Devex`] and
    /// [`Pricing::Bland`] warm restarts.
    ///
    /// Breakpoints of the piecewise-linear dual objective are walked in
    /// ascending ratio order; a *boxed* column whose flip keeps the dual
    /// slope positive flips lower↔upper (absorbed into one batched FTRAN)
    /// instead of terminating the step, so one dual iteration can do the
    /// work of many — particularly effective on 0-1 models where most
    /// columns are boxed.
    fn dual_bfrt(&mut self, costs: &[f64], d: &mut Vec<f64>) -> Result<LpStatus, WarmFail> {
        self.reduced_costs_into(costs, d);
        if !self.start_is_dual_feasible(d) {
            return Err(WarmFail::NotDualFeasible);
        }
        let ptol = self.opts.pivot_tol;
        let ftol = self.opts.feas_tol;
        loop {
            if self.iterations >= self.opts.max_iterations {
                return Err(WarmFail::Error(LpError::IterationLimit));
            }
            if self.iterations >= self.opts.dual_iteration_cap {
                // Degenerate grind: let the caller fall back to a cold solve.
                return Err(WarmFail::NotDualFeasible);
            }
            if self.hit_deadline() {
                return Err(WarmFail::Error(LpError::Timeout));
            }
            if self.basis.refactor_due(self.opts.refactor_every) {
                self.refactor().map_err(WarmFail::Error)?;
                self.reduced_costs_into(costs, d);
            }
            // Leaving: most violated basic (same rule as the legacy engine).
            let tl = tick(self.timers);
            let mut leave: Option<(usize, f64, bool)> = None;
            for i in 0..self.core.m {
                let col = self.basic[i];
                let below = self.lower[col] - self.xb[i];
                let above = self.xb[i] - self.upper[col];
                let (viol, low) = if below > above {
                    (below, true)
                } else {
                    (above, false)
                };
                if viol > ftol && leave.is_none_or(|(_, v, _)| viol > v) {
                    leave = Some((i, viol, low));
                }
            }
            tock(tl, &mut self.profile.pricing_secs);
            let Some((r, viol, low_viol)) = leave else {
                return Ok(LpStatus::Optimal);
            };
            // ρ = B⁻ᵀ e_r (hypersparse) and the pivot row αᵀ = ρᵀ A.
            let tb = tick(self.timers);
            self.scratch.rho[r] = 1.0;
            self.scratch.rpat.clear();
            self.scratch.rpat.push(r);
            let s = &mut self.scratch;
            self.basis.btran_sparse(&mut s.rho, &mut s.rpat, &mut s.lu);
            self.scratch.form_pivot_row(&self.core.rows_of_a);
            tock(tb, &mut self.profile.btran_secs);
            // Bound-flipping ratio test: collect breakpoints, walk them in
            // ascending ratio order flipping boxed columns while the slope
            // stays positive.
            let tr = tick(self.timers);
            {
                let s = &mut self.scratch;
                s.breakpoints.clear();
                for &j in &s.touched {
                    if self.stat[j] == VStat::Basic || self.lower[j] == self.upper[j] {
                        continue;
                    }
                    let aj = s.alpha[j];
                    if aj.abs() <= ptol {
                        continue;
                    }
                    let eligible = if low_viol {
                        // x_Br must increase.
                        match self.stat[j] {
                            VStat::AtLower => aj < 0.0,
                            VStat::AtUpper => aj > 0.0,
                            VStat::Free => true,
                            VStat::Basic => false,
                        }
                    } else {
                        // x_Br must decrease.
                        match self.stat[j] {
                            VStat::AtLower => aj > 0.0,
                            VStat::AtUpper => aj < 0.0,
                            VStat::Free => true,
                            VStat::Basic => false,
                        }
                    };
                    if eligible {
                        s.breakpoints.push(((d[j] / aj).abs(), j));
                    }
                }
                s.breakpoints
                    .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            }
            let mut chosen: Option<(f64, usize)> = None;
            {
                let s = &mut self.scratch;
                s.flips.clear();
                // Walk the sorted breakpoints while flipping keeps the
                // remaining violation clearly positive (at `slope − reduce
                // ≈ 0` roundoff must not turn a degenerate final pivot into
                // a flip — exhausting the breakpoints would fabricate an
                // infeasibility certificate). `stop` is the first
                // breakpoint the dual step cannot pass.
                let mut slope = viol;
                let mut stop = s.breakpoints.len();
                for (bi, &(_, j)) in s.breakpoints.iter().enumerate() {
                    let gap = self.upper[j] - self.lower[j];
                    let reduce = s.alpha[j].abs() * gap;
                    if gap.is_finite() && slope - reduce > ftol {
                        slope -= reduce;
                    } else {
                        stop = bi;
                        break;
                    }
                }
                if stop < s.breakpoints.len() {
                    // Pivot tie-break among breakpoints within 1e-12 of the
                    // stopping ratio: prefer a slack/artificial entering
                    // column over a structural one, then the largest |α|.
                    // Degenerate ties resolved toward a tiny pivot element
                    // stall the dual in roundoff, and keeping structural 0-1
                    // columns *nonbasic* parks them on integral bounds — the
                    // branch-and-bound tree shrinks measurably when the
                    // relaxation vertex carries fewer fractional binaries.
                    let (stop_ratio, mut best_j) = s.breakpoints[stop];
                    let tie = stop_ratio + 1e-12;
                    let ns = self.core.num_structs;
                    for &(ratio, j) in &s.breakpoints[stop + 1..] {
                        if ratio > tie {
                            break;
                        }
                        if (j >= ns, s.alpha[j].abs()) > (best_j >= ns, s.alpha[best_j].abs()) {
                            best_j = j;
                        }
                    }
                    let theta_abs = stop_ratio;
                    chosen = Some((theta_abs, best_j));
                    // Keep only the *mandatory* flips: columns whose
                    // breakpoint the dual step strictly passes, so their
                    // reduced cost really changes sign. A breakpoint at (or
                    // within tolerance of) the step itself ends with d ≈ 0
                    // and must keep its bound — flipping it gains nothing
                    // dual-wise but perturbs x_B, and on degenerate (θ ≈ 0)
                    // steps that churn cycles the same columns forever.
                    let cut = theta_abs - 1e-9 * (1.0 + theta_abs);
                    for &(ratio, j) in &s.breakpoints[..stop] {
                        if ratio < cut && j != best_j {
                            s.flips.push(j);
                        }
                    }
                }
            }
            tock(tr, &mut self.profile.ratio_secs);
            let Some((_, q)) = chosen else {
                // Every breakpoint flips and infeasibility remains: the dual
                // is unbounded along this row ⇒ the primal is infeasible.
                self.scratch.clear_alpha();
                return Ok(LpStatus::Infeasible);
            };
            let alpha_q = self.scratch.alpha[q];
            // FTRAN of the entering column, before any state is mutated, so
            // an untrustworthy pivot can retry after a refactorization.
            let mut w = std::mem::take(&mut self.scratch.w);
            let mut wpat = std::mem::take(&mut self.scratch.wpat);
            wpat.clear();
            for (row, v) in self.core.a.col(q) {
                w[row] = v;
                wpat.push(row);
            }
            let tf = tick(self.timers);
            self.basis
                .ftran_sparse(&mut w, &mut wpat, &mut self.scratch.lu);
            tock(tf, &mut self.profile.ftran_secs);
            wpat.sort_unstable();
            let wr = w[r];
            if wr.abs() <= ptol {
                for &i in &wpat {
                    w[i] = 0.0;
                }
                self.scratch.w = w;
                self.scratch.wpat = wpat;
                self.scratch.clear_alpha();
                if self.basis.updates_len() == 0 {
                    return Err(WarmFail::NotDualFeasible);
                }
                self.refactor().map_err(WarmFail::Error)?;
                self.reduced_costs_into(costs, d);
                continue;
            }
            self.iterations += 1;
            self.profile.dual_iterations += 1;
            // Apply the accumulated bound flips: their combined effect on
            // x_B is one batched FTRAN of Σ Δx_j·a_j.
            if !self.scratch.flips.is_empty() {
                let tfl = tick(self.timers);
                {
                    let core = self.core;
                    let s = &mut self.scratch;
                    s.rhs_pat.clear();
                    for fi in 0..s.flips.len() {
                        let j = s.flips[fi];
                        let (delta, flipped) = match self.stat[j] {
                            VStat::AtLower => (self.upper[j] - self.lower[j], VStat::AtUpper),
                            VStat::AtUpper => (self.lower[j] - self.upper[j], VStat::AtLower),
                            _ => unreachable!("only boxed nonbasic columns flip"),
                        };
                        self.stat[j] = flipped;
                        for (row, v) in core.a.col(j) {
                            if !s.mask[row] {
                                s.mask[row] = true;
                                s.rhs_pat.push(row);
                            }
                            s.rhs[row] += delta * v;
                        }
                    }
                    for &row in &s.rhs_pat {
                        s.mask[row] = false;
                    }
                }
                let s = &mut self.scratch;
                self.basis
                    .ftran_sparse(&mut s.rhs, &mut s.rhs_pat, &mut s.lu);
                {
                    let s = &mut self.scratch;
                    for &i in &s.rhs_pat {
                        if is_nonzero(s.rhs[i]) {
                            self.xb[i] -= s.rhs[i];
                        }
                        s.rhs[i] = 0.0;
                    }
                    s.rhs_pat.clear();
                    self.profile.bound_flips += s.flips.len();
                }
                tock(tfl, &mut self.profile.ftran_secs);
            }
            // Pivot, against the post-flip basic values.
            let target = if low_viol {
                self.lower[self.basic[r]]
            } else {
                self.upper[self.basic[r]]
            };
            let t = (self.xb[r] - target) / wr;
            Self::step_xb(&mut self.xb, &w, Some(&wpat), t);
            let entering_value = self.nonbasic_value(q) + t;
            let leaving_col = self.basic[r];
            // A leaving fixed column (l == u) rests at its (single) bound.
            self.stat[leaving_col] =
                if low_viol || self.lower[leaving_col] == self.upper[leaving_col] {
                    VStat::AtLower
                } else {
                    VStat::AtUpper
                };
            self.stat[q] = VStat::Basic;
            self.basic[r] = q;
            self.xb[r] = entering_value;
            self.update_basis(r, &w, Some(&wpat))
                .map_err(WarmFail::Error)?;
            for &i in &wpat {
                w[i] = 0.0;
            }
            self.scratch.w = w;
            self.scratch.wpat = wpat;
            // Incremental d update from the pivot row. Flipped columns are
            // updated by the same formula: passing their breakpoint flips
            // the sign of their reduced cost, which their new bound status
            // makes dual feasible.
            let tp = tick(self.timers);
            let theta = d[q] / alpha_q;
            if is_nonzero(theta) {
                let s = &self.scratch;
                for &j in &s.touched {
                    if is_nonzero(s.alpha[j]) && self.stat[j] != VStat::Basic {
                        d[j] -= theta * s.alpha[j];
                    }
                }
            }
            d[q] = 0.0;
            d[leaving_col] = -theta;
            tock(tp, &mut self.profile.pricing_secs);
            self.scratch.clear_alpha();
        }
    }

    /// Dual values `y = B⁻ᵀ c_B` in original row space, computed in
    /// `scratch.y` and cloned once for the outcome.
    fn duals(&mut self, costs: &[f64]) -> Vec<f64> {
        let t = tick(self.timers);
        self.scratch.y.fill(0.0);
        for (pos, &col) in self.basic.iter().enumerate() {
            self.scratch.y[pos] = costs[col];
        }
        self.basis.btran(&mut self.scratch.y, &mut self.scratch.lu);
        let y = self.scratch.y.clone();
        tock(t, &mut self.profile.btran_secs);
        y
    }

    /// Extracts the full solution vector.
    fn extract_x(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.core.n];
        for j in 0..self.core.n {
            if self.stat[j] != VStat::Basic {
                x[j] = self.nonbasic_value(j);
            }
        }
        for (pos, &col) in self.basic.iter().enumerate() {
            x[col] = self.xb[pos];
        }
        x
    }

    fn snapshot(&self) -> BasisSnapshot {
        BasisSnapshot {
            basic: self.basic.clone(),
            stat: self.stat.clone(),
        }
    }
}

/// Scripted [`FaultSite::SingularBasis`](crate::FaultSite) injection (inert
/// without a fault plan).
fn inject_singular(opts: &LpOptions) -> Result<(), LpError> {
    if let Some(faults) = &opts.faults {
        if faults.trip(crate::faults::FaultSite::SingularBasis) {
            return Err(LpError::SingularBasis);
        }
    }
    Ok(())
}

/// Scripted [`FaultSite::IterationCap`](crate::FaultSite) injection (inert
/// without a fault plan).
fn inject_itercap(opts: &LpOptions) -> Result<(), LpError> {
    if let Some(faults) = &opts.faults {
        if faults.trip(crate::faults::FaultSite::IterationCap) {
            return Err(LpError::IterationLimit);
        }
    }
    Ok(())
}

/// Deterministic outward bound relaxation for the final retry rung. Every
/// finite bound moves at most ~1.4e-9 *away* from the domain — far below
/// the 1e-6 branch-and-bound integrality tolerance — so the feasible
/// region only grows and the perturbed optimum remains a valid relaxation
/// bound for pruning.
fn perturbed_bounds(lower: &[f64], upper: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut lo = lower.to_vec();
    let mut up = upper.to_vec();
    for (j, v) in lo.iter_mut().enumerate() {
        if v.is_finite() {
            *v -= 1e-10 * (1.0 + (j % 13) as f64);
        }
    }
    for (j, v) in up.iter_mut().enumerate() {
        if v.is_finite() {
            *v += 1e-10 * (1.0 + ((j + 5) % 13) as f64);
        }
    }
    (lo, up)
}

/// Cold two-phase primal solve with a numerical retry ladder. A recoverable
/// failure — a singular basis (eta-chain drift making a refactorization
/// fail) or a stalled solve hitting the iteration limit — is retried: first
/// with more frequent refactorization and a tighter pivot tolerance, then
/// with cycling-proof Bland pricing, and finally with a tiny deterministic
/// outward bound perturbation (see [`perturbed_bounds`]). Each rung changes
/// the pivot sequence, which in practice escapes the degenerate corner that
/// produced the failure. Rungs climbed before success are counted in
/// [`SimplexProfile::retries`]; a clean first-rung solve is bit-identical
/// to a ladder-free solve.
pub(crate) fn solve_core_cold(
    core: &CoreLp,
    lower: &[f64],
    upper: &[f64],
    opts: &LpOptions,
) -> Result<CoreOutcome, LpError> {
    let ladder: [(usize, f64, Option<Pricing>, bool); 5] = [
        (opts.refactor_every, opts.pivot_tol, None, false),
        (16, opts.pivot_tol, None, false),
        (4, 1e-11, None, false),
        (8, opts.pivot_tol, Some(Pricing::Bland), false),
        (4, 1e-11, Some(Pricing::Bland), true),
    ];
    let mut last = LpError::SingularBasis;
    for (rung, (refactor_every, pivot_tol, pricing, perturb)) in ladder.into_iter().enumerate() {
        let mut o = opts.clone();
        o.refactor_every = refactor_every;
        o.pivot_tol = pivot_tol;
        if let Some(p) = pricing {
            o.pricing = p;
        }
        let attempt = if perturb {
            let (lo, up) = perturbed_bounds(lower, upper);
            solve_core_cold_once(core, &lo, &up, &o)
        } else {
            solve_core_cold_once(core, lower, upper, &o)
        };
        match attempt {
            Err(e @ (LpError::SingularBasis | LpError::IterationLimit)) => last = e,
            Ok(mut out) => {
                out.profile.retries += rung;
                return Ok(out);
            }
            other => return other,
        }
    }
    Err(last)
}

/// One branch-and-bound node relaxation with the full recovery ladder:
/// a warm dual start when a snapshot is available, a cold fallback when
/// the warm solve is abandoned (dual-infeasible start, degenerate dual
/// exceeding its cap, or a recoverable numerical failure), and the cold
/// retry ladder of [`solve_core_cold`] underneath. Fallbacks to a cold
/// solve are counted in [`SimplexProfile::warm_fallbacks`].
pub(crate) fn solve_node_resilient(
    core: &CoreLp,
    lower: &[f64],
    upper: &[f64],
    warm: Option<&BasisSnapshot>,
    opts: &LpOptions,
) -> Result<CoreOutcome, LpError> {
    if let Some(snapshot) = warm {
        match solve_core_warm(core, lower, upper, snapshot, opts) {
            Ok(out) => return Ok(out),
            Err(WarmFail::NotDualFeasible)
            | Err(WarmFail::Error(LpError::SingularBasis))
            | Err(WarmFail::Error(LpError::IterationLimit)) => {
                let mut out = solve_core_cold(core, lower, upper, opts)?;
                out.profile.warm_fallbacks += 1;
                return Ok(out);
            }
            Err(WarmFail::Error(e)) => return Err(e),
        }
    }
    solve_core_cold(core, lower, upper, opts)
}

fn solve_core_cold_once(
    core: &CoreLp,
    lower: &[f64],
    upper: &[f64],
    opts: &LpOptions,
) -> Result<CoreOutcome, LpError> {
    inject_itercap(opts)?;
    // audit: allow(nondet) — profiling timer only (reported in SimplexProfile).
    let t0 = Instant::now();
    let tsetup = tick(opts.profile);
    let m = core.m;
    let n = core.n;
    let mut lower = lower.to_vec();
    let mut upper = upper.to_vec();
    // Initial nonbasic statuses for non-artificial columns.
    let mut stat = vec![VStat::AtLower; n];
    for j in 0..core.num_structs + m {
        stat[j] = if lower[j].is_finite() {
            if upper[j].is_finite() && upper[j].abs() < lower[j].abs() {
                VStat::AtUpper
            } else {
                VStat::AtLower
            }
        } else if upper[j].is_finite() {
            VStat::AtUpper
        } else {
            VStat::Free
        };
    }
    // Residuals with all *structural* columns at their initial values.
    let mut resid = core.b.clone();
    for j in 0..core.num_structs {
        let v = match stat[j] {
            VStat::AtLower => lower[j],
            VStat::AtUpper => upper[j],
            _ => 0.0,
        };
        if is_nonzero(v) {
            core.a.col_axpy(j, -v, &mut resid);
        }
    }
    // Slack crash basis: whenever the row residual fits inside the slack's
    // bounds, the slack absorbs it and the row starts feasible with no
    // artificial work. Otherwise the slack rests at its nearest bound and
    // the artificial carries the (small) remainder into phase 1. Both
    // choices keep the starting basis an identity matrix.
    let mut phase1_cost = vec![0.0; n];
    let mut basic = Vec::with_capacity(m);
    let mut xb0 = Vec::with_capacity(m);
    for r in 0..m {
        let scol = core.slack_col(r);
        let acol = core.artificial_col(r);
        let res = resid[r];
        if res >= lower[scol] && res <= upper[scol] {
            stat[scol] = VStat::Basic;
            basic.push(scol);
            xb0.push(res);
            lower[acol] = 0.0;
            upper[acol] = 0.0;
            stat[acol] = VStat::AtLower;
        } else {
            let sval = res.clamp(lower[scol], upper[scol]);
            debug_assert!(sval.is_finite(), "slack bound clamp must be finite");
            stat[scol] = if sval == lower[scol] {
                VStat::AtLower
            } else {
                VStat::AtUpper
            };
            let rem = res - sval;
            lower[acol] = rem.min(0.0);
            upper[acol] = rem.max(0.0);
            phase1_cost[acol] = if rem > 0.0 {
                1.0
            } else if rem < 0.0 {
                -1.0
            } else {
                0.0
            };
            stat[acol] = VStat::Basic;
            basic.push(acol);
            xb0.push(rem);
        }
    }
    let mut setup_secs = 0.0;
    tock(tsetup, &mut setup_secs);
    inject_singular(opts)?;
    let mut sx = Simplex::new(core, opts, lower, upper, stat, basic, xb0)?;
    sx.profile.other_secs += setup_secs;
    // Phase 1: drive the total artificial infeasibility to zero, stopping
    // the moment it reaches zero (degenerate pivots at the optimum would
    // otherwise stall).
    let p1 = sx.primal(&phase1_cost, Some(0.0))?;
    debug_assert_ne!(p1, LpStatus::Unbounded, "phase 1 is bounded below by 0");
    // Sum |artificial| over basic positions directly (artificials occupy
    // the trailing column range), then the nonbasic remainder — no
    // per-column basis search, no panic on a corrupted basis.
    let art0 = core.artificial_col(0);
    let mut infeas: f64 = sx
        .basic
        .iter()
        .zip(&sx.xb)
        .filter(|&(&col, _)| col >= art0)
        .map(|(_, &v)| v.abs())
        .sum();
    for r in 0..m {
        let col = core.artificial_col(r);
        if sx.stat[col] != VStat::Basic {
            infeas += sx.nonbasic_value(col).abs();
        }
    }
    let scale = 1.0 + core.b.iter().map(|v| v.abs()).sum::<f64>();
    if infeas > opts.feas_tol * scale {
        let mut profile = sx.profile;
        profile.solves = 1;
        profile.lp_secs = t0.elapsed().as_secs_f64();
        return Ok(CoreOutcome {
            status: LpStatus::Infeasible,
            x: sx.extract_x(),
            objective: f64::INFINITY,
            duals: vec![0.0; core.m],
            snapshot: sx.snapshot(),
            iterations: sx.iterations,
            profile,
        });
    }
    // Fix artificials at zero for phase 2.
    let tmid = tick(sx.timers);
    for r in 0..m {
        let col = core.artificial_col(r);
        sx.lower[col] = 0.0;
        sx.upper[col] = 0.0;
        if sx.stat[col] != VStat::Basic {
            sx.stat[col] = VStat::AtLower;
        }
    }
    sx.recompute_xb();
    tock(tmid, &mut sx.profile.other_secs);
    let status = sx.primal(&core.c, None)?;
    let tout = tick(sx.timers);
    let x = sx.extract_x();
    let objective = core.c.iter().zip(&x).map(|(c, v)| c * v).sum();
    tock(tout, &mut sx.profile.other_secs);
    let duals = sx.duals(&core.c);
    let mut profile = sx.profile;
    profile.solves = 1;
    profile.lp_secs = t0.elapsed().as_secs_f64();
    Ok(CoreOutcome {
        status,
        x,
        objective,
        duals,
        snapshot: sx.snapshot(),
        iterations: sx.iterations,
        profile,
    })
}

/// Warm-started dual solve from a basis snapshot after bound changes.
pub(crate) fn solve_core_warm(
    core: &CoreLp,
    lower: &[f64],
    upper: &[f64],
    snapshot: &BasisSnapshot,
    opts: &LpOptions,
) -> Result<CoreOutcome, WarmFail> {
    let mut stat = snapshot.stat.clone();
    // Nonbasic variables whose bound vanished or moved keep their side; a
    // collapsed domain forces AtLower (== AtUpper).
    for (j, s) in stat.iter_mut().enumerate() {
        if *s == VStat::Basic {
            continue;
        }
        *s = match *s {
            VStat::AtLower if lower[j].is_finite() => VStat::AtLower,
            VStat::AtUpper if upper[j].is_finite() => VStat::AtUpper,
            VStat::Free => VStat::Free,
            _ => {
                if lower[j].is_finite() {
                    VStat::AtLower
                } else if upper[j].is_finite() {
                    VStat::AtUpper
                } else {
                    VStat::Free
                }
            }
        };
    }
    // audit: allow(nondet) — profiling timer only (reported in SimplexProfile).
    let t0 = Instant::now();
    inject_itercap(opts).map_err(WarmFail::Error)?;
    inject_singular(opts).map_err(WarmFail::Error)?;
    let mut sx = Simplex::new(
        core,
        opts,
        lower.to_vec(),
        upper.to_vec(),
        stat,
        snapshot.basic.clone(),
        vec![0.0; core.m],
    )
    .map_err(WarmFail::Error)?;
    let tmid = tick(sx.timers);
    sx.recompute_xb();
    tock(tmid, &mut sx.profile.other_secs);
    let status = sx.dual(&core.c)?;
    let tout = tick(sx.timers);
    let x = sx.extract_x();
    let objective = core.c.iter().zip(&x).map(|(c, v)| c * v).sum();
    tock(tout, &mut sx.profile.other_secs);
    let duals = sx.duals(&core.c);
    let mut profile = sx.profile;
    profile.solves = 1;
    profile.lp_secs = t0.elapsed().as_secs_f64();
    Ok(CoreOutcome {
        status,
        x,
        objective,
        duals,
        snapshot: sx.snapshot(),
        iterations: sx.iterations,
        profile,
    })
}

/// Outcome of [`solve_lp`].
#[derive(Debug, Clone)]
pub struct LpOutcome {
    /// Termination status.
    pub status: LpStatus,
    /// Values of the problem's variables (empty unless optimal).
    pub x: Vec<f64>,
    /// Objective value (`+∞` if infeasible, `−∞` if unbounded).
    pub objective: f64,
    /// Dual value (shadow price `∂obj/∂rhs`) per constraint row; empty
    /// unless optimal. For `min` problems a binding `≤` row has a
    /// non-positive dual and a binding `≥` row a non-negative one.
    pub duals: Vec<f64>,
    /// Reduced cost per variable (`c_j − y·a_j`); zero for basic variables.
    /// Empty unless optimal.
    pub reduced_costs: Vec<f64>,
    /// Simplex iterations across both phases.
    pub iterations: usize,
    /// Per-phase counters (and, with [`LpOptions::profile`], section
    /// timers) of the solve.
    pub profile: SimplexProfile,
}

/// Solves the LP relaxation of `problem` (binaries relaxed to `[0, 1]`).
///
/// # Errors
///
/// * [`LpError::IterationLimit`] — the simplex did not converge within
///   [`LpOptions::max_iterations`].
/// * [`LpError::SingularBasis`] — basis factorization failed irrecoverably.
///
/// # Examples
///
/// ```
/// use tempart_lp::{Problem, VarKind, Sense, solve_lp, LpOptions, LpStatus};
///
/// # fn main() -> Result<(), tempart_lp::LpError> {
/// let mut p = Problem::new("lp");
/// let x = p.add_var("x", VarKind::Continuous, -1.0)?; // maximize x
/// p.add_constraint("c", [(x, 2.0)], Sense::Le, 3.0)?;
/// let out = solve_lp(&p, &LpOptions::default())?;
/// assert_eq!(out.status, LpStatus::Optimal);
/// assert!((out.x[0] - 1.5).abs() < 1e-7);
/// # Ok(())
/// # }
/// ```
pub fn solve_lp(problem: &Problem, opts: &LpOptions) -> Result<LpOutcome, LpError> {
    let core = CoreLp::from_problem(problem);
    let out = solve_core_cold(&core, &core.lower, &core.upper, opts)?;
    let x = out.x[..core.num_structs].to_vec();
    let (duals, reduced_costs) = if out.status == LpStatus::Optimal {
        let rc: Vec<f64> = (0..core.num_structs)
            .map(|j| core.c[j] - core.a.col_dot(j, &out.duals))
            .collect();
        (out.duals.clone(), rc)
    } else {
        (Vec::new(), Vec::new())
    };
    Ok(LpOutcome {
        status: out.status,
        x,
        objective: match out.status {
            LpStatus::Optimal => out.objective,
            LpStatus::Infeasible => f64::INFINITY,
            LpStatus::Unbounded => f64::NEG_INFINITY,
        },
        duals,
        reduced_costs,
        iterations: out.iterations,
        profile: out.profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Sense, VarKind};
    use crate::tol::exact_bits;

    fn opts() -> LpOptions {
        LpOptions::default()
    }

    #[test]
    fn simple_maximization() {
        // max 3x + 2y s.t. x + y <= 4, x <= 2, y <= 3  (minimize negation)
        let mut p = Problem::new("t");
        let x = p.add_var("x", VarKind::Continuous, -3.0).unwrap();
        let y = p.add_var("y", VarKind::Continuous, -2.0).unwrap();
        p.add_constraint("c1", [(x, 1.0), (y, 1.0)], Sense::Le, 4.0)
            .unwrap();
        p.set_bounds(x, 0.0, 2.0).unwrap();
        p.set_bounds(y, 0.0, 3.0).unwrap();
        let out = solve_lp(&p, &opts()).unwrap();
        assert_eq!(out.status, LpStatus::Optimal);
        assert!(
            (out.objective - (-10.0)).abs() < 1e-7,
            "obj={}",
            out.objective
        );
        assert!((out.x[0] - 2.0).abs() < 1e-7);
        assert!((out.x[1] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn equality_and_ge_constraints() {
        // min x + y s.t. x + 2y = 4, x - y >= -1, x,y >= 0
        // Optimum: intersection? Try y as large as possible: x = 4-2y >= 0,
        // x - y = 4 - 3y >= -1 → y <= 5/3; obj = 4 - y minimized at y = 5/3:
        // obj = 7/3, x = 2/3.
        let mut p = Problem::new("t");
        let x = p.add_var("x", VarKind::Continuous, 1.0).unwrap();
        let y = p.add_var("y", VarKind::Continuous, 1.0).unwrap();
        p.add_constraint("eq", [(x, 1.0), (y, 2.0)], Sense::Eq, 4.0)
            .unwrap();
        p.add_constraint("ge", [(x, 1.0), (y, -1.0)], Sense::Ge, -1.0)
            .unwrap();
        let out = solve_lp(&p, &opts()).unwrap();
        assert_eq!(out.status, LpStatus::Optimal);
        assert!(
            (out.objective - 7.0 / 3.0).abs() < 1e-7,
            "obj={}",
            out.objective
        );
        assert!((out.x[0] - 2.0 / 3.0).abs() < 1e-7);
        assert!((out.x[1] - 5.0 / 3.0).abs() < 1e-7);
    }

    #[test]
    fn detects_infeasible() {
        let mut p = Problem::new("t");
        let x = p.add_var("x", VarKind::Continuous, 1.0).unwrap();
        p.add_constraint("a", [(x, 1.0)], Sense::Ge, 5.0).unwrap();
        p.add_constraint("b", [(x, 1.0)], Sense::Le, 1.0).unwrap();
        let out = solve_lp(&p, &opts()).unwrap();
        assert_eq!(out.status, LpStatus::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut p = Problem::new("t");
        let x = p.add_var("x", VarKind::Continuous, -1.0).unwrap(); // max x
        p.add_constraint("a", [(x, -1.0)], Sense::Le, 0.0).unwrap(); // -x <= 0
        let out = solve_lp(&p, &opts()).unwrap();
        assert_eq!(out.status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x s.t. x >= -3 (bound), x + y >= -1, y <= 2.
        let mut p = Problem::new("t");
        let x = p.add_var("x", VarKind::Continuous, 1.0).unwrap();
        let y = p.add_var("y", VarKind::Continuous, 0.0).unwrap();
        p.set_bounds(x, -3.0, f64::INFINITY).unwrap();
        p.set_bounds(y, 0.0, 2.0).unwrap();
        p.add_constraint("c", [(x, 1.0), (y, 1.0)], Sense::Ge, -1.0)
            .unwrap();
        let out = solve_lp(&p, &opts()).unwrap();
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((out.x[0] - (-3.0)).abs() < 1e-7, "x={}", out.x[0]);
    }

    #[test]
    fn free_variable() {
        // min x s.t. x >= y - 2, y = 1, x free → x = -1.
        let mut p = Problem::new("t");
        let x = p.add_var("x", VarKind::Continuous, 1.0).unwrap();
        let y = p.add_var("y", VarKind::Continuous, 0.0).unwrap();
        p.set_bounds(x, f64::NEG_INFINITY, f64::INFINITY).unwrap();
        p.add_constraint("c", [(x, 1.0), (y, -1.0)], Sense::Ge, -2.0)
            .unwrap();
        p.add_constraint("e", [(y, 1.0)], Sense::Eq, 1.0).unwrap();
        let out = solve_lp(&p, &opts()).unwrap();
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((out.x[0] - (-1.0)).abs() < 1e-7, "x={}", out.x[0]);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Many redundant constraints through the same vertex.
        let mut p = Problem::new("t");
        let x = p.add_var("x", VarKind::Continuous, -1.0).unwrap();
        let y = p.add_var("y", VarKind::Continuous, -1.0).unwrap();
        for k in 1..=6 {
            let kf = k as f64;
            p.add_constraint(format!("c{k}"), [(x, kf), (y, kf)], Sense::Le, 2.0 * kf)
                .unwrap();
        }
        let out = solve_lp(&p, &opts()).unwrap();
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((out.objective - (-2.0)).abs() < 1e-7);
    }

    #[test]
    fn warm_start_dual_matches_cold() {
        // LP relaxation of a small knapsack; then fix a variable's bounds and
        // compare dual-warm vs cold-solved results.
        let mut p = Problem::new("t");
        let xs: Vec<_> = (0..4)
            .map(|i| {
                p.add_var(format!("x{i}"), VarKind::Binary, -((i + 1) as f64))
                    .unwrap()
            })
            .collect();
        p.add_constraint(
            "cap",
            xs.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
            Sense::Le,
            2.5,
        )
        .unwrap();
        let core = CoreLp::from_problem(&p);
        let root = solve_core_cold(&core, &core.lower, &core.upper, &opts()).unwrap();
        assert_eq!(root.status, LpStatus::Optimal);
        // Fix x3 = 0 (the most valuable one).
        let mut lo = core.lower.clone();
        let mut hi = core.upper.clone();
        hi[3] = 0.0;
        let warm = solve_core_warm(&core, &lo, &hi, &root.snapshot, &opts()).unwrap();
        let cold = solve_core_cold(&core, &lo, &hi, &opts()).unwrap();
        assert_eq!(warm.status, LpStatus::Optimal);
        assert!(
            (warm.objective - cold.objective).abs() < 1e-6,
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        // Fix x3 = 1 instead.
        lo[3] = 1.0;
        hi[3] = 1.0;
        let warm = solve_core_warm(&core, &lo, &hi, &root.snapshot, &opts()).unwrap();
        let cold = solve_core_cold(&core, &lo, &hi, &opts()).unwrap();
        assert!((warm.objective - cold.objective).abs() < 1e-6);
    }

    #[test]
    fn warm_start_with_collapsed_domains() {
        // Fix several variables to each bound after the root solve; the
        // warm dual must agree with cold solves in every case.
        let mut p = Problem::new("t");
        let vars: Vec<_> = (0..5)
            .map(|i| {
                p.add_var(format!("x{i}"), VarKind::Binary, (i as f64) - 2.0)
                    .unwrap()
            })
            .collect();
        p.add_constraint(
            "mix",
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, if i % 2 == 0 { 1.0 } else { -1.0 }))
                .collect::<Vec<_>>(),
            Sense::Le,
            1.5,
        )
        .unwrap();
        p.add_constraint(
            "ge",
            vars.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
            Sense::Ge,
            1.0,
        )
        .unwrap();
        let core = CoreLp::from_problem(&p);
        let root = solve_core_cold(&core, &core.lower, &core.upper, &opts()).unwrap();
        assert_eq!(root.status, LpStatus::Optimal);
        for fix_mask in 0..8u32 {
            let mut lo = core.lower.clone();
            let mut hi = core.upper.clone();
            for bit in 0..3 {
                let val = f64::from(fix_mask >> bit & 1);
                lo[bit] = val;
                hi[bit] = val;
            }
            let warm = solve_core_warm(&core, &lo, &hi, &root.snapshot, &opts());
            let cold = solve_core_cold(&core, &lo, &hi, &opts()).unwrap();
            match warm {
                Ok(w) => {
                    assert_eq!(w.status, cold.status, "mask {fix_mask}");
                    if w.status == LpStatus::Optimal {
                        assert!(
                            (w.objective - cold.objective).abs() < 1e-6,
                            "mask {fix_mask}: warm {} cold {}",
                            w.objective,
                            cold.objective
                        );
                    }
                }
                Err(WarmFail::NotDualFeasible) => { /* cold fallback path */ }
                Err(WarmFail::Error(e)) => panic!("mask {fix_mask}: {e}"),
            }
        }
    }

    #[test]
    fn warm_start_detects_infeasible_node() {
        // x0 + x1 >= 2 with both fixed to 0 is infeasible.
        let mut p = Problem::new("t");
        let a = p.add_var("a", VarKind::Binary, 1.0).unwrap();
        let b = p.add_var("b", VarKind::Binary, 1.0).unwrap();
        p.add_constraint("c", [(a, 1.0), (b, 1.0)], Sense::Ge, 2.0)
            .unwrap();
        let core = CoreLp::from_problem(&p);
        let root = solve_core_cold(&core, &core.lower, &core.upper, &opts()).unwrap();
        assert_eq!(root.status, LpStatus::Optimal);
        let lo = core.lower.clone();
        let mut hi = core.upper.clone();
        hi[0] = 0.0;
        hi[1] = 0.0;
        let warm = solve_core_warm(&core, &lo, &hi, &root.snapshot, &opts()).unwrap();
        assert_eq!(warm.status, LpStatus::Infeasible);
    }

    #[test]
    fn duals_and_reduced_costs_satisfy_complementary_slackness() {
        // min -3x - 2y s.t. x + y <= 4 (binding), x <= 3 (binding),
        // y <= 10 (slack): optimum x = 3, y = 1, obj = -11.
        let mut p = Problem::new("duals");
        let x = p.add_var("x", VarKind::Continuous, -3.0).unwrap();
        let y = p.add_var("y", VarKind::Continuous, -2.0).unwrap();
        let r0 = p
            .add_constraint("sum", [(x, 1.0), (y, 1.0)], Sense::Le, 4.0)
            .unwrap();
        let r1 = p
            .add_constraint("capx", [(x, 1.0)], Sense::Le, 3.0)
            .unwrap();
        let r2 = p
            .add_constraint("capy", [(y, 1.0)], Sense::Le, 10.0)
            .unwrap();
        let out = solve_lp(&p, &opts()).unwrap();
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((out.objective + 11.0).abs() < 1e-7);
        // Shadow prices: relaxing `sum` by 1 gains 2 (more y), relaxing
        // `capx` gains 1 (swap y for x); `capy` is slack ⇒ dual 0.
        assert!(
            (out.duals[r0.index()] + 2.0).abs() < 1e-6,
            "{:?}",
            out.duals
        );
        assert!((out.duals[r1.index()] + 1.0).abs() < 1e-6);
        assert!(out.duals[r2.index()].abs() < 1e-9);
        // Strong duality: y·b == objective.
        let yb: f64 = out.duals[r0.index()] * 4.0
            + out.duals[r1.index()] * 3.0
            + out.duals[r2.index()] * 10.0;
        assert!((yb - out.objective).abs() < 1e-6);
        // Both variables are basic at the optimum ⇒ zero reduced costs.
        assert!(out.reduced_costs[x.index()].abs() < 1e-6);
        assert!(out.reduced_costs[y.index()].abs() < 1e-6);
    }

    #[test]
    fn reduced_cost_nonzero_only_at_bounds() {
        // min x + y s.t. x + y >= 1, x in [0,1], y in [0,1]: many optima;
        // the solver lands on a vertex. Any variable strictly inside its
        // bounds must have zero reduced cost.
        let mut p = Problem::new("rc");
        let x = p.add_var("x", VarKind::Continuous, 1.0).unwrap();
        p.set_bounds(x, 0.0, 1.0).unwrap();
        let y = p.add_var("y", VarKind::Continuous, 2.0).unwrap();
        p.set_bounds(y, 0.0, 1.0).unwrap();
        p.add_constraint("c", [(x, 1.0), (y, 1.0)], Sense::Ge, 1.0)
            .unwrap();
        let out = solve_lp(&p, &opts()).unwrap();
        assert_eq!(out.status, LpStatus::Optimal);
        assert!((out.objective - 1.0).abs() < 1e-7); // x = 1, y = 0
        for (j, &v) in out.x.iter().enumerate() {
            let (lo, hi) = p.var_bounds(crate::VarId(j));
            if v > lo + 1e-7 && v < hi - 1e-7 {
                assert!(out.reduced_costs[j].abs() < 1e-6, "interior var {j}");
            }
        }
    }

    #[test]
    fn zero_time_budget_times_out() {
        // A generously-sized random LP with a zero wall-clock budget must
        // report Timeout instead of running.
        let mut p = Problem::new("t");
        let vars: Vec<_> = (0..40)
            .map(|i| {
                let v = p
                    .add_var(format!("x{i}"), VarKind::Continuous, -((i % 7) as f64))
                    .unwrap();
                p.set_bounds(v, 0.0, 1.0).unwrap();
                v
            })
            .collect();
        for r in 0..30 {
            let coeffs: Vec<_> = vars
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, ((i + r) % 5) as f64 - 2.0))
                .collect();
            p.add_constraint(format!("r{r}"), coeffs, Sense::Le, 1.0)
                .unwrap();
        }
        let mut o = opts();
        o.budget = Some(std::sync::Arc::new(crate::Budget::new(
            0.0,
            usize::MAX,
            usize::MAX,
        )));
        assert_eq!(solve_lp(&p, &o).unwrap_err(), LpError::Timeout);
    }

    #[test]
    fn pseudo_random_lps_agree_with_enumeration() {
        // Tiny LPs over the unit box with random costs/rows: compare the
        // simplex optimum against brute-force vertex enumeration done by
        // checking all 2^n bound patterns and all constraint intersections is
        // overkill; instead validate feasibility + objective not worse than
        // any box corner that satisfies the constraints.
        let mut seed = 12345u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            ((seed >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        for trial in 0..30 {
            let n = 3 + (trial % 3);
            let mut p = Problem::new("rnd");
            let vars: Vec<_> = (0..n)
                .map(|i| {
                    let v = p
                        .add_var(format!("x{i}"), VarKind::Continuous, next())
                        .unwrap();
                    p.set_bounds(v, 0.0, 1.0).unwrap();
                    v
                })
                .collect();
            for r in 0..3 {
                let coeffs: Vec<_> = vars.iter().map(|&v| (v, next())).collect();
                p.add_constraint(format!("r{r}"), coeffs, Sense::Le, 0.5 + next().abs())
                    .unwrap();
            }
            let out = solve_lp(&p, &opts()).unwrap();
            assert_eq!(out.status, LpStatus::Optimal, "trial {trial}");
            // Solution must satisfy constraints.
            assert_eq!(p.first_violated(&out.x, 1e-6), None, "trial {trial}");
            // Objective must beat every feasible box corner.
            for mask in 0..(1u32 << n) {
                let corner: Vec<f64> = (0..n)
                    .map(|i| if mask >> i & 1 == 1 { 1.0 } else { 0.0 })
                    .collect();
                if p.first_violated(&corner, 1e-9).is_none() {
                    let cobj = p.objective_value(&corner);
                    assert!(
                        out.objective <= cobj + 1e-6,
                        "trial {trial}: simplex {} worse than corner {:?} = {}",
                        out.objective,
                        corner,
                        cobj
                    );
                }
            }
        }
    }

    /// Differential check of the warm dual paths: after a cold solve, each
    /// bound tightening must warm-resolve to the same status/objective under
    /// the legacy Dantzig dual and the bound-flipping dual.
    /// Xorshift64 step: the deterministic stream of the pseudo-random
    /// model generators below.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A small pseudo-random 0-1 model with mixed row senses (3–8
    /// binaries, 2–6 rows).
    fn random_binary_model(state: &mut u64) -> Problem {
        let mut next = || xorshift(state);
        let mut p = Problem::new("warm");
        let nv = 3 + (next() % 6) as usize;
        let nc = 2 + (next() % 5) as usize;
        let vars: Vec<_> = (0..nv)
            .map(|i| {
                let c = (next() % 1000) as f64 / 100.0 - 5.0;
                p.add_var(format!("x{i}"), VarKind::Binary, c).unwrap()
            })
            .collect();
        for r in 0..nc {
            let mut coeffs = Vec::new();
            for &v in &vars {
                if next() % 3 != 0 {
                    coeffs.push((v, (next() % 9) as f64 - 4.0));
                }
            }
            let coeffs = if coeffs.is_empty() {
                vec![(vars[0], 1.0)]
            } else {
                coeffs
            };
            let sense = match next() % 4 {
                0 => Sense::Ge,
                1 => Sense::Eq,
                _ => Sense::Le,
            };
            let rhs = (next() % 9) as f64 - 3.0;
            p.add_constraint(format!("c{r}"), coeffs, sense, rhs)
                .unwrap();
        }
        p
    }

    #[test]
    fn warm_dual_bfrt_matches_dantzig() {
        let mut state = 0x9e3779b97f4a7c15u64;
        for trial in 0..400 {
            let p = random_binary_model(&mut state);
            let core = CoreLp::from_problem(&p);
            let base = match solve_core_cold(&core, &core.lower, &core.upper, &opts()) {
                Ok(out) if out.status == LpStatus::Optimal => out,
                _ => continue,
            };
            // Tighten each binary to each side in turn and warm-resolve.
            for j in 0..core.num_structs {
                for fixed in [0.0, 1.0] {
                    let mut lower = core.lower.clone();
                    let mut upper = core.upper.clone();
                    lower[j] = fixed;
                    upper[j] = fixed;
                    let mut od = opts();
                    od.pricing = Pricing::Dantzig;
                    let mut ox = opts();
                    ox.pricing = Pricing::Devex;
                    let a = solve_core_warm(&core, &lower, &upper, &base.snapshot, &od);
                    let b = solve_core_warm(&core, &lower, &upper, &base.snapshot, &ox);
                    let (Ok(a), Ok(b)) = (a, b) else {
                        // A warm failure on either path falls back to a cold
                        // solve in B&B; only compare completed warm solves.
                        continue;
                    };
                    assert_eq!(
                        a.status, b.status,
                        "trial {trial} fix x{j}={fixed}: dantzig {:?} vs bfrt {:?}",
                        a.status, b.status
                    );
                    if a.status == LpStatus::Optimal {
                        assert!(
                            (a.objective - b.objective).abs() <= 1e-6,
                            "trial {trial} fix x{j}={fixed}: dantzig obj {} vs bfrt obj {}",
                            a.objective,
                            b.objective
                        );
                    }
                }
            }
        }
    }

    /// A pseudo-random sparse LP with `m` rows: a banded structure (each
    /// column meets two to four nearby rows) with inexact coefficients and
    /// costs on about one column in eight, so `y = B⁻ᵀc_B` and the FTRAN
    /// columns stay hypersparse while every row sense occurs.
    fn random_banded_lp(m: usize, state: &mut u64) -> Problem {
        let mut next = || (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64;
        let mut p = Problem::new("banded");
        let mut rows: Vec<Vec<(crate::VarId, f64)>> = vec![Vec::new(); m];
        for j in 0..2 * m {
            let cost = if next() < 0.125 {
                next() * 4.0 - 3.0
            } else {
                0.0
            };
            let v = p
                .add_var(format!("x{j}"), VarKind::Continuous, cost)
                .unwrap();
            p.set_bounds(v, 0.0, 1.0 + 3.0 * next()).unwrap();
            let first = (j / 2 + (next() * 3.0) as usize) % m;
            for k in 0..2 + (next() * 3.0) as usize {
                rows[(first + k * k) % m].push((v, next() * 2.0 - 0.8));
            }
        }
        for (r, coeffs) in rows.into_iter().enumerate() {
            let sense = match r % 7 {
                0 => Sense::Ge,
                1 => Sense::Eq,
                _ => Sense::Le,
            };
            let rhs = if sense == Sense::Le {
                1.0 + next()
            } else {
                0.25 * next()
            };
            p.add_constraint(format!("r{r}"), coeffs, sense, rhs)
                .unwrap();
        }
        p
    }

    /// Runs `solve` with every Dantzig kernel site forced dense, then
    /// forced sparse.
    fn dense_and_sparse<T>(solve: impl Fn() -> T) -> (T, T) {
        force_sparse_kernels(Some(false));
        let dense = solve();
        force_sparse_kernels(Some(true));
        let sparse = solve();
        force_sparse_kernels(None);
        (dense, sparse)
    }

    fn assert_same_outcome(dense: &CoreOutcome, sparse: &CoreOutcome, what: &str) {
        assert_eq!(dense.status, sparse.status, "{what}: status");
        assert_eq!(dense.iterations, sparse.iterations, "{what}: iterations");
        assert_eq!(dense.snapshot.basic, sparse.snapshot.basic, "{what}: basis");
        assert_eq!(
            dense.snapshot.stat, sparse.snapshot.stat,
            "{what}: statuses"
        );
        assert_eq!(
            exact_bits(dense.objective),
            exact_bits(sparse.objective),
            "{what}: objective {} vs {}",
            dense.objective,
            sparse.objective
        );
        let bits = |x: &[f64]| x.iter().map(|&v| exact_bits(v)).collect::<Vec<_>>();
        assert_eq!(bits(&dense.x), bits(&sparse.x), "{what}: x");
        assert_eq!(bits(&dense.duals), bits(&sparse.duals), "{what}: duals");
    }

    /// The Dantzig engine's dense and sparse kernels are interchangeable:
    /// forcing every site one way or the other leaves each cold and warm
    /// solve with the same status, pivot count, final basis and bits.
    #[test]
    fn dantzig_kernels_dense_and_sparse_pivot_identically() {
        let mut state = 0x2545f4914f6cdd1du64;
        let mut solved = [0; 2];
        for trial in 0..200 {
            let banded = trial % 4 == 3;
            let p = if banded {
                random_banded_lp(60 + trial % 50, &mut state)
            } else {
                random_binary_model(&mut state)
            };
            let core = CoreLp::from_problem(&p);
            let (dense, sparse) =
                dense_and_sparse(|| solve_core_cold(&core, &core.lower, &core.upper, &opts()));
            let (Ok(dense), Ok(sparse)) = (dense, sparse) else {
                panic!("trial {trial}: cold solve failed");
            };
            assert_same_outcome(&dense, &sparse, &format!("trial {trial} cold"));
            if dense.status != LpStatus::Optimal {
                continue;
            }
            solved[usize::from(banded)] += 1;
            // Warm dual re-solves after tightening a few columns.
            for j in (0..core.num_structs).step_by(1 + core.num_structs / 4) {
                let lower = core.lower.clone();
                let mut upper = core.upper.clone();
                upper[j] = lower[j];
                let (dense_w, sparse_w) = dense_and_sparse(|| {
                    solve_core_warm(&core, &lower, &upper, &dense.snapshot, &opts()).ok()
                });
                assert_eq!(
                    dense_w.is_some(),
                    sparse_w.is_some(),
                    "trial {trial} warm x{j}"
                );
                if let (Some(a), Some(b)) = (dense_w, sparse_w) {
                    assert_same_outcome(&a, &b, &format!("trial {trial} warm x{j}"));
                }
            }
        }
        assert!(
            solved[0] > 40 && solved[1] > 25,
            "optimal trials {solved:?}"
        );
    }

    /// The same equivalence through a whole branch-and-bound search.
    #[test]
    fn dantzig_kernels_dense_and_sparse_search_identically() {
        let mut state = 0x853c49e6748fea9bu64;
        let mut next = || (xorshift(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        let mut p = Problem::new("multi-knapsack");
        let items: Vec<_> = (0..14)
            .map(|i| {
                let value = 5.0 + 20.0 * next();
                p.add_var(format!("x{i}"), VarKind::Binary, -value).unwrap()
            })
            .collect();
        for r in 0..3 {
            let weights: Vec<_> = items.iter().map(|&v| (v, 1.0 + 9.0 * next())).collect();
            p.add_constraint(format!("cap{r}"), weights, Sense::Le, 25.0 + 5.0 * r as f64)
                .unwrap();
        }
        let (dense, sparse) = dense_and_sparse(|| crate::BranchAndBound::new(&p).solve().unwrap());
        assert_eq!(dense.status, sparse.status);
        assert!(dense.stats.nodes > 10, "{} nodes", dense.stats.nodes);
        assert_eq!(dense.stats.nodes, sparse.stats.nodes);
        assert_eq!(dense.stats.lp_iterations, sparse.stats.lp_iterations);
        assert_eq!(
            dense.stats.simplex.refactors,
            sparse.stats.simplex.refactors
        );
        assert_eq!(exact_bits(dense.objective), exact_bits(sparse.objective));
        assert_eq!(dense.x, sparse.x);
    }

    /// The row-wise `Aᵀy` of [`Scratch::form_pivot_row`] over an ascending
    /// pattern reproduces the column dot products bit for bit.
    #[test]
    fn row_wise_pivot_row_matches_column_dots_bit_for_bit() {
        let mut state = 0x6a09e667f3bcc908u64;
        let mut next = || (xorshift(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        let (m, n) = (50, 90);
        let mut trips = Vec::new();
        for c in 0..n {
            for r in 0..m {
                if next() < 0.15 {
                    trips.push((r, c, next() * 2.0 - 1.0));
                }
            }
        }
        let a = crate::sparse::CscMatrix::from_triplets(m, n, trips);
        let rows_of_a = a.to_csr();
        let mut scratch = Scratch::default();
        scratch.ensure(m, n);
        for trial in 0..20 {
            let mut y = vec![0.0; m];
            for i in 0..m {
                if next() < 0.05 + 0.02 * trial as f64 {
                    y[i] = next() * 10.0 - 5.0;
                    scratch.rho[i] = y[i];
                    scratch.rpat.push(i);
                }
            }
            scratch.form_pivot_row(&rows_of_a);
            for j in 0..n {
                let row_wise = if scratch.amask[j] {
                    scratch.alpha[j]
                } else {
                    0.0
                };
                assert_eq!(
                    exact_bits(row_wise),
                    exact_bits(a.col_dot(j, &y)),
                    "trial {trial} column {j}"
                );
            }
            scratch.clear_alpha();
            assert!(scratch.rpat.is_empty() && scratch.rho.iter().all(|&v| is_zero(v)));
        }
    }

    /// At every solved basis of the banded LPs, each Dantzig kernel site
    /// computes the same bits on its sparse kernel as on its dense one:
    /// the reduced costs and entering choice of [`Site::Price`], and the
    /// pivot row and dual ratio test of [`Site::Rho`].
    #[test]
    fn dantzig_sites_agree_bit_for_bit_at_solved_bases() {
        let mut state = 0x3c6ef372fe94f82bu64;
        let o = opts();
        let mut checked = 0;
        for trial in 0..12 {
            let p = random_banded_lp(80 + 10 * trial, &mut state);
            let core = CoreLp::from_problem(&p);
            let out = solve_core_cold(&core, &core.lower, &core.upper, &o).unwrap();
            if out.status != LpStatus::Optimal {
                continue;
            }
            checked += 1;
            let (lower, upper) = (core.lower.clone(), core.upper.clone());
            let (stat, basic) = (out.snapshot.stat.clone(), out.snapshot.basic.clone());
            let mut sx =
                Simplex::new(&core, &o, lower, upper, stat, basic, vec![0.0; core.m]).unwrap();
            sx.recompute_xb();
            // The negated costs leave this basis far from optimal, so
            // pricing has many candidates.
            let costs: Vec<f64> = core.c.iter().map(|c| -c).collect();
            sx.scratch.cost_cols = (0..core.n).filter(|&j| is_nonzero(costs[j])).collect();
            let bits = |v: &[f64]| v.iter().map(|&x| exact_bits(x)).collect::<Vec<_>>();
            let mut d = [Vec::new(), Vec::new()];
            let mut entering = [None, None];
            for (k, force) in [false, true].into_iter().enumerate() {
                force_sparse_kernels(Some(force));
                sx.reduced_costs_into(&costs, &mut d[k]);
                entering[k] = sx.price_dantzig(&costs, trial % 2 == 1);
            }
            assert_eq!(bits(&d[0]), bits(&d[1]), "trial {trial}: reduced costs");
            assert!(entering[0].is_some(), "trial {trial}: nothing to price");
            let bits_of = |e: Option<(usize, f64)>| e.map(|(q, dq)| (q, exact_bits(dq)));
            assert_eq!(
                bits_of(entering[0]),
                bits_of(entering[1]),
                "trial {trial}: pricing"
            );
            for r in (0..core.m).step_by(7) {
                let mut rows = [None, None];
                let mut alphas = [Vec::new(), Vec::new()];
                for (k, sparse) in [false, true].into_iter().enumerate() {
                    rows[k] = sx.dual_pivot_column(r, r % 2 == 0, &d[0], sparse);
                    let s = &sx.scratch;
                    alphas[k] = (0..core.n)
                        .map(|j| {
                            if !sparse || s.amask[j] {
                                s.alpha[j]
                            } else {
                                0.0
                            }
                        })
                        .collect();
                    sx.scratch.clear_alpha();
                }
                assert_eq!(
                    rows[0].map(|e| e.0),
                    rows[1].map(|e| e.0),
                    "trial {trial} row {r}"
                );
                assert_eq!(
                    bits(&alphas[0]),
                    bits(&alphas[1]),
                    "trial {trial} row {r}: α"
                );
            }
            force_sparse_kernels(None);
        }
        assert!(checked >= 6, "only {checked} optimal trials");
    }
}
