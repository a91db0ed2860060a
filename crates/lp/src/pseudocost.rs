//! Pseudo-cost branching with reliability initialization.
//!
//! For every binary the engine maintains the average per-unit objective
//! degradation observed when branching it up (`x → 1`) and down (`x → 0`):
//! each solved child LP contributes `(child objective − parent bound) /
//! fractional distance`. Variable selection maximizes the standard product
//! score `max(ε, d·f) · max(ε, u·(1−f))`, which prefers variables that
//! degrade *both* children — the ones that actually split the search space.
//!
//! Until a variable has been observed [`PseudoCost::reliability`] times in
//! each direction its estimate is untrusted; at the root the serial driver
//! bootstraps the most fractional candidates with *strong-branching*
//! probes ([`reliability_init`]): both children solved to optimality under
//! an iteration cap, warm-started from the root basis. With no history at
//! all the caller falls back to the static
//! [`BranchingRule`](crate::BranchingRule), so the feature degrades
//! gracefully.
//!
//! Determinism: observations arrive in node-visit order, selection
//! tie-breaks on the variable index, and no wall-clock or hashing enters
//! any decision. The parallel driver shares one engine behind a mutex
//! (`// lock-order: 6` — a leaf lock, acquired with nothing else held), so
//! its observation order (and hence its node counts) varies run to run,
//! exactly like the rest of the parallel search.

use crate::branch::{is_fractional, BranchDirection};
use crate::internal::CoreLp;
use crate::options::LpOptions;
use crate::problem::{Problem, VarId, VarKind};
use crate::simplex::{solve_node_resilient, BasisSnapshot};
use crate::status::LpStatus;

/// Score floor: keeps the product score meaningful when one side has a
/// zero estimate (a degenerate child that did not move the objective).
const EPS: f64 = 1e-6;

/// Learned per-variable branching statistics.
#[derive(Debug, Clone)]
pub struct PseudoCost {
    up_sum: Vec<f64>,
    up_cnt: Vec<usize>,
    down_sum: Vec<f64>,
    down_cnt: Vec<usize>,
    /// Observations per direction below which a variable's own average is
    /// considered unreliable (strong-branching candidates at the root).
    reliability: usize,
    updates: usize,
}

impl PseudoCost {
    /// Creates an empty engine for `num_vars` variables.
    pub fn new(num_vars: usize, reliability: usize) -> Self {
        Self {
            up_sum: vec![0.0; num_vars],
            up_cnt: vec![0; num_vars],
            down_sum: vec![0.0; num_vars],
            down_cnt: vec![0; num_vars],
            reliability,
            updates: 0,
        }
    }

    /// Records one observed child: branching `var` in `dir` over fractional
    /// distance `frac_dist` raised the bound by `gain`.
    pub fn observe(&mut self, var: VarId, dir: BranchDirection, frac_dist: f64, gain: f64) {
        let unit = gain.max(0.0) / frac_dist.max(EPS);
        let j = var.index();
        match dir {
            BranchDirection::Up => {
                self.up_sum[j] += unit;
                self.up_cnt[j] += 1;
            }
            BranchDirection::Down => {
                self.down_sum[j] += unit;
                self.down_cnt[j] += 1;
            }
        }
        self.updates += 1;
    }

    /// Total observations recorded (the `pseudocost_updates` counter).
    pub fn updates(&self) -> usize {
        self.updates
    }

    /// Whether any history exists; without it the caller must use its
    /// static fallback rule.
    pub fn has_data(&self) -> bool {
        self.updates > 0
    }

    /// Whether `var` still wants strong-branching bootstrap.
    fn unreliable(&self, j: usize) -> bool {
        self.up_cnt[j] < self.reliability || self.down_cnt[j] < self.reliability
    }

    /// Per-direction estimate for variable `j`: its own average when any
    /// observation exists, else the global average across all variables.
    fn estimate(&self, j: usize, dir: BranchDirection) -> f64 {
        let (sum, cnt, gsum, gcnt) = match dir {
            BranchDirection::Up => (
                self.up_sum[j],
                self.up_cnt[j],
                self.up_sum.iter().sum::<f64>(),
                self.up_cnt.iter().sum::<usize>(),
            ),
            BranchDirection::Down => (
                self.down_sum[j],
                self.down_cnt[j],
                self.down_sum.iter().sum::<f64>(),
                self.down_cnt.iter().sum::<usize>(),
            ),
        };
        if cnt > 0 {
            sum / cnt as f64
        } else if gcnt > 0 {
            gsum / gcnt as f64
        } else {
            1.0
        }
    }

    /// Picks the fractional binary with the best product score; `None` when
    /// every binary is integral. The preferred direction is the child with
    /// the *smaller* estimated degradation (dive where the bound stays
    /// good). Deterministic: ties break on the lowest variable index.
    pub fn select(
        &self,
        problem: &Problem,
        x: &[f64],
        int_tol: f64,
    ) -> Option<(VarId, BranchDirection)> {
        let mut best: Option<(VarId, f64, BranchDirection)> = None;
        for v in problem.var_ids() {
            if problem.var_kind(v) != VarKind::Binary || !is_fractional(x[v.index()], int_tol) {
                continue;
            }
            let f = x[v.index()].clamp(0.0, 1.0).fract();
            let down = self.estimate(v.index(), BranchDirection::Down) * f;
            let up = self.estimate(v.index(), BranchDirection::Up) * (1.0 - f);
            let score = down.max(EPS) * up.max(EPS);
            let dir = if up <= down {
                BranchDirection::Up
            } else {
                BranchDirection::Down
            };
            if best.as_ref().is_none_or(|&(_, b, _)| score > b) {
                best = Some((v, score, dir));
            }
        }
        best.map(|(v, _, dir)| (v, dir))
    }
}

/// Strong-branching bootstrap at the root: solves both children of the
/// `top_k` most fractional unreliable binaries (warm from the root basis,
/// iteration-capped) and feeds the observed gains into `pc`.
///
/// Best-effort: a child that errors or hits a cap is skipped. Returns
/// `(probe solves, LP iterations spent)` so the caller can account the
/// work in its stats and budget.
#[allow(clippy::too_many_arguments)]
pub(crate) fn reliability_init(
    core: &CoreLp,
    problem: &Problem,
    x: &[f64],
    root_obj: f64,
    snapshot: &BasisSnapshot,
    lower: &[f64],
    upper: &[f64],
    lp_opts: &LpOptions,
    int_tol: f64,
    top_k: usize,
    pc: &mut PseudoCost,
) -> (usize, usize) {
    // Candidates: unreliable fractional binaries, most fractional first.
    let mut cands: Vec<(VarId, f64)> = problem
        .var_ids()
        .filter(|&v| {
            problem.var_kind(v) == VarKind::Binary
                && is_fractional(x[v.index()], int_tol)
                && pc.unreliable(v.index())
        })
        .map(|v| (v, (x[v.index()].clamp(0.0, 1.0).fract() - 0.5).abs()))
        .collect();
    cands.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.index().cmp(&b.0.index())));
    cands.truncate(top_k);

    let mut probe_opts = lp_opts.clone();
    probe_opts.max_iterations = probe_opts.max_iterations.min(1_000);
    let mut solves = 0usize;
    let mut iters = 0usize;
    let mut lo = lower.to_vec();
    let mut hi = upper.to_vec();
    for (v, _) in cands {
        let f = x[v.index()].clamp(0.0, 1.0).fract();
        for (dir, val, dist) in [
            (BranchDirection::Down, 0.0, f),
            (BranchDirection::Up, 1.0, 1.0 - f),
        ] {
            lo.copy_from_slice(lower);
            hi.copy_from_slice(upper);
            lo[v.index()] = val;
            hi[v.index()] = val;
            match solve_node_resilient(core, &lo, &hi, Some(snapshot), &probe_opts) {
                Ok(out) => {
                    solves += 1;
                    iters += out.iterations;
                    match out.status {
                        LpStatus::Optimal => {
                            pc.observe(v, dir, dist, out.objective - root_obj);
                        }
                        // An infeasible child is the strongest possible
                        // degradation signal; record a large finite gain.
                        LpStatus::Infeasible => pc.observe(v, dir, dist, 1e6),
                        LpStatus::Unbounded => {}
                    }
                }
                Err(_) => return (solves, iters), // budget/numerics: stop probing
            }
        }
    }
    (solves, iters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Sense;

    fn three_binary_problem() -> Problem {
        let mut p = Problem::new("t");
        for i in 0..3 {
            p.add_var(format!("x{i}"), VarKind::Binary, -1.0).unwrap();
        }
        let ids: Vec<VarId> = p.var_ids().collect();
        p.add_constraint(
            "r",
            ids.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
            Sense::Le,
            2.0,
        )
        .unwrap();
        p
    }

    #[test]
    fn no_data_means_fallback() {
        let pc = PseudoCost::new(3, 4);
        assert!(!pc.has_data());
        assert_eq!(pc.updates(), 0);
    }

    #[test]
    fn observations_steer_selection() {
        let p = three_binary_problem();
        let mut pc = PseudoCost::new(3, 1);
        // x1 is expensive in both directions; x0/x2 are cheap.
        pc.observe(VarId(1), BranchDirection::Up, 0.5, 5.0);
        pc.observe(VarId(1), BranchDirection::Down, 0.5, 4.0);
        pc.observe(VarId(0), BranchDirection::Up, 0.5, 0.1);
        pc.observe(VarId(0), BranchDirection::Down, 0.5, 0.1);
        pc.observe(VarId(2), BranchDirection::Up, 0.5, 0.1);
        pc.observe(VarId(2), BranchDirection::Down, 0.5, 0.1);
        let x = vec![0.5, 0.5, 0.5];
        let (v, dir) = pc.select(&p, &x, 1e-6).unwrap();
        assert_eq!(v, VarId(1), "highest product score wins");
        // The preferred child is the smaller estimated degradation: down
        // (8/unit) is cheaper than up (10/unit), so explore down first.
        assert_eq!(dir, BranchDirection::Down);
    }

    #[test]
    fn integral_point_selects_nothing() {
        let p = three_binary_problem();
        let pc = PseudoCost::new(3, 1);
        assert_eq!(pc.select(&p, &[1.0, 0.0, 1.0], 1e-6), None);
    }

    #[test]
    fn ties_break_on_lowest_index() {
        let p = three_binary_problem();
        let mut pc = PseudoCost::new(3, 1);
        for j in 0..3 {
            pc.observe(VarId(j), BranchDirection::Up, 0.5, 1.0);
            pc.observe(VarId(j), BranchDirection::Down, 0.5, 1.0);
        }
        let (v, _) = pc.select(&p, &[0.5, 0.5, 0.5], 1e-6).unwrap();
        assert_eq!(v, VarId(0));
    }

    #[test]
    fn unobserved_vars_use_the_global_average() {
        let mut pc = PseudoCost::new(3, 2);
        pc.observe(VarId(0), BranchDirection::Up, 0.5, 2.0);
        pc.observe(VarId(0), BranchDirection::Down, 0.5, 2.0);
        // x1 has no history: its estimate is the global 4.0/unit, and it
        // stays unreliable below the threshold of 2.
        assert!(pc.unreliable(1));
        assert!((pc.estimate(1, BranchDirection::Up) - 4.0).abs() < 1e-9);
        assert!(pc.has_data());
    }
}
