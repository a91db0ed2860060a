//! Depth-first branch and bound for 0-1 MIPs.
//!
//! Node LPs are warm-started from the parent basis with the dual simplex
//! (falling back to a cold two-phase primal on numerical trouble). Branching
//! is pluggable via [`BranchingRule`]; the paper's §8 heuristic is expressed
//! as a [`PriorityRule`] built by `tempart-core`.

use std::sync::Arc;

use crate::cuts;
use crate::faults::Budget;
use crate::internal::CoreLp;
use crate::options::{Engine, MipOptions};
use crate::problem::{LpError, Problem, VarId, VarKind};
use crate::profile::{ContentionProfile, ScaleProfile, SimplexProfile};
use crate::status::MipStatus;

/// Which child to explore first when branching on a binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchDirection {
    /// Explore `x = 1` first (the paper always branches up first, §8).
    Up,
    /// Explore `x = 0` first.
    Down,
}

/// Chooses the fractional variable (and direction) to branch on.
///
/// `x` is the node LP solution over the problem's variables. Implementations
/// must return a *fractional binary* (or `None`, meaning the solution is
/// integral as far as the rule is concerned — the solver independently
/// verifies integrality of all binaries).
pub trait BranchingRule {
    /// Picks the next branching variable from a fractional LP solution.
    fn select(
        &self,
        problem: &Problem,
        x: &[f64],
        int_tol: f64,
    ) -> Option<(VarId, BranchDirection)>;

    /// Human-readable rule name, used in benchmark reports.
    fn name(&self) -> &str;
}

/// Branch on the lowest-index fractional binary, exploring `1` first.
///
/// A deterministic stand-in for an unguided solver default (the paper notes
/// `lp_solve` "randomly chooses a variable to branch on"; randomness would
/// make Tables 1–2 irreproducible, so the lowest creation index is used).
#[derive(Debug, Clone, Default)]
pub struct FirstIndexRule;

impl BranchingRule for FirstIndexRule {
    fn select(
        &self,
        problem: &Problem,
        x: &[f64],
        int_tol: f64,
    ) -> Option<(VarId, BranchDirection)> {
        problem
            .var_ids()
            .find(|&v| {
                problem.var_kind(v) == VarKind::Binary && is_fractional(x[v.index()], int_tol)
            })
            .map(|v| (v, BranchDirection::Up))
    }

    fn name(&self) -> &str {
        "first-index"
    }
}

/// Branch on the most fractional binary (closest to 0.5), exploring the
/// nearest bound first.
#[derive(Debug, Clone, Default)]
pub struct MostFractionalRule;

impl BranchingRule for MostFractionalRule {
    fn select(
        &self,
        problem: &Problem,
        x: &[f64],
        int_tol: f64,
    ) -> Option<(VarId, BranchDirection)> {
        problem
            .var_ids()
            .filter(|&v| {
                problem.var_kind(v) == VarKind::Binary && is_fractional(x[v.index()], int_tol)
            })
            .map(|v| {
                let f = x[v.index()].fract();
                (v, (f - 0.5).abs())
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(v, _)| {
                let dir = if x[v.index()] >= 0.5 {
                    BranchDirection::Up
                } else {
                    BranchDirection::Down
                };
                (v, dir)
            })
    }

    fn name(&self) -> &str {
        "most-fractional"
    }
}

/// Branch by explicit priority classes: the fractional binary with the
/// *smallest* priority value wins; ties break on variable index. Each
/// variable carries a preferred direction.
///
/// Variables with priority `u32::MAX` are never selected while another
/// fractional variable exists; if *only* such variables are fractional the
/// lowest-index one is used (the solver must branch on something).
#[derive(Debug, Clone)]
pub struct PriorityRule {
    name: String,
    /// `(priority, preferred direction)` per variable index.
    prefs: Vec<(u32, BranchDirection)>,
}

impl PriorityRule {
    /// Creates a rule from per-variable `(priority, direction)` preferences;
    /// `prefs.len()` must equal the problem's variable count at solve time.
    pub fn new(name: impl Into<String>, prefs: Vec<(u32, BranchDirection)>) -> Self {
        Self {
            name: name.into(),
            prefs,
        }
    }
}

impl BranchingRule for PriorityRule {
    fn select(
        &self,
        problem: &Problem,
        x: &[f64],
        int_tol: f64,
    ) -> Option<(VarId, BranchDirection)> {
        debug_assert_eq!(self.prefs.len(), problem.num_vars());
        let mut best: Option<(VarId, u32)> = None;
        for v in problem.var_ids() {
            if problem.var_kind(v) != VarKind::Binary || !is_fractional(x[v.index()], int_tol) {
                continue;
            }
            let pri = self.prefs[v.index()].0;
            if best.is_none_or(|(_, bp)| pri < bp) {
                best = Some((v, pri));
            }
        }
        best.map(|(v, _)| (v, self.prefs[v.index()].1))
    }

    fn name(&self) -> &str {
        &self.name
    }
}

pub(crate) fn is_fractional(v: f64, tol: f64) -> bool {
    (v - v.round()).abs() > tol
}

/// Statistics of a branch-and-bound run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MipStats {
    /// Nodes whose LP relaxation was solved.
    pub nodes: usize,
    /// Total simplex iterations across all node LPs.
    pub lp_iterations: usize,
    /// Nodes pruned by bound.
    pub pruned_by_bound: usize,
    /// Nodes pruned by LP infeasibility.
    pub pruned_infeasible: usize,
    /// Nodes that produced an improved incumbent.
    pub incumbent_updates: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Nodes solved by each worker (one entry per worker; a single entry
    /// equal to `nodes` at one thread).
    pub per_worker_nodes: Vec<usize>,
    /// Contention counters of the work-stealing scheduler; see
    /// [`ContentionProfile`]. At one thread only `cow_clones` (shared warm
    /// starts) can be nonzero.
    pub contention: ContentionProfile,
    /// Merged simplex profile of every node LP solved during the search
    /// (counters always; section timers only with
    /// [`LpOptions::profile`](crate::LpOptions::profile)).
    pub simplex: SimplexProfile,
    /// Counters of the scale layer (cut separation, node propagation,
    /// pseudo-cost branching); all zero with the features off. See
    /// [`ScaleProfile`].
    pub scale: ScaleProfile,
    /// The simplex engine of the search's node LPs, and whether the caller
    /// or the size rule chose it (see
    /// [`LpOptions::engine`](crate::LpOptions::engine)).
    pub engine: Engine,
}

/// Result of a branch-and-bound solve.
#[derive(Debug, Clone)]
pub struct MipSolution {
    /// Termination status.
    pub status: MipStatus,
    /// Best integer solution found (empty if none).
    pub x: Vec<f64>,
    /// Its objective (`+∞` if none).
    pub objective: f64,
    /// A valid lower bound on the optimum: with status `Optimal` it equals
    /// `objective`; after a limit it is the smallest LP bound among the
    /// unexplored subproblems (`-∞` when nothing was pruned yet), giving the
    /// proven optimality gap `objective − best_bound`.
    pub best_bound: f64,
    /// Search statistics.
    pub stats: MipStats,
}

/// Per-node variable-bound overrides relative to the root relaxation.
///
/// Nodes never mutate the shared [`Problem`] or the root [`CoreLp`] bound
/// arrays; each node carries this overlay and workers apply it to their own
/// scratch copies of the root bounds. That makes node state self-contained,
/// which the work-stealing search relies on: any worker can pick up any
/// node.
#[derive(Debug, Clone, Default)]
pub(crate) struct BoundOverlay {
    /// `(variable, lower, upper)` overrides, in fixing order (root-most
    /// first). Later entries win, matching the order branching applied them.
    entries: Vec<(VarId, f64, f64)>,
}

impl BoundOverlay {
    /// The overlay extended by one more fixing.
    pub(crate) fn child(&self, var: VarId, lo: f64, hi: f64) -> Self {
        let mut entries = Vec::with_capacity(self.entries.len() + 1);
        entries.extend_from_slice(&self.entries);
        entries.push((var, lo, hi));
        Self { entries }
    }

    /// Resets `lower`/`upper` to the root bounds and applies the overlay.
    pub(crate) fn apply(&self, root: &CoreLp, lower: &mut [f64], upper: &mut [f64]) {
        lower.copy_from_slice(&root.lower);
        upper.copy_from_slice(&root.upper);
        for &(var, lo, hi) in &self.entries {
            lower[var.index()] = lo;
            upper[var.index()] = hi;
        }
    }
}

/// Depth-first 0-1 branch and bound over a [`Problem`].
///
/// # Examples
///
/// ```
/// use tempart_lp::{Problem, VarKind, Sense, BranchAndBound, MipStatus};
///
/// # fn main() -> Result<(), tempart_lp::LpError> {
/// // min -(x+y+z) s.t. x + y + z <= 2  → optimum -2.
/// let mut p = Problem::new("m");
/// let vars: Vec<_> = (0..3)
///     .map(|i| p.add_var(format!("b{i}"), VarKind::Binary, -1.0))
///     .collect::<Result<_, _>>()?;
/// p.add_constraint("cap", vars.iter().map(|&v| (v, 1.0)), Sense::Le, 2.0)?;
/// let out = BranchAndBound::new(&p).solve()?;
/// assert_eq!(out.status, MipStatus::Optimal);
/// assert!((out.objective + 2.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub struct BranchAndBound<'a> {
    problem: &'a Problem,
    options: MipOptions,
    rule: Box<dyn BranchingRule + Sync + 'a>,
}

impl<'a> BranchAndBound<'a> {
    /// Creates a solver with default options and the
    /// [`MostFractionalRule`].
    pub fn new(problem: &'a Problem) -> Self {
        Self {
            problem,
            options: MipOptions::default(),
            rule: Box::<MostFractionalRule>::default(),
        }
    }

    /// Replaces the solve options.
    #[must_use]
    pub fn options(mut self, options: MipOptions) -> Self {
        self.options = options;
        self
    }

    /// Replaces the branching rule.
    #[must_use]
    pub fn rule(mut self, rule: impl BranchingRule + Sync + 'a) -> Self {
        self.rule = Box::new(rule);
        self
    }

    /// Runs the search.
    ///
    /// One driver serves every thread count: the work-stealing search of
    /// the `parallel` module, with [`MipOptions::threads`] workers (`0`
    /// means one per CPU). One worker runs on the calling thread and visits
    /// nodes in a fixed depth-first order, so its node counts are
    /// deterministic; more workers prove the same objective and status,
    /// but node counts vary run to run. With [`MipOptions::cuts`] the root
    /// cut loop runs first and the search covers the strengthened problem.
    ///
    /// The solve runs under its own [`Budget`] built from the
    /// [`MipOptions`] limits and, when
    /// [`LpOptions::budget`](crate::LpOptions::budget) is set, scoped under
    /// that caller budget: the caller's stop request, deadline and pivot cap
    /// end the solve, the [`MipOptions`] node and pivot caps count this
    /// solve's work only, and a limit the solve hits never stops the
    /// caller's budget.
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable LP failures
    /// ([`LpError::IterationLimit`], [`LpError::SingularBasis`]).
    pub fn solve(&self) -> Result<MipSolution, LpError> {
        let opts = &self.options;
        let budget = Arc::new(Budget::scoped(
            opts.lp.budget.clone(),
            opts.time_limit_secs,
            opts.max_nodes,
            opts.max_lp_iterations,
        ));
        let workers = resolve_threads(opts.threads);
        let rule = self.rule.as_ref();
        if !opts.cuts {
            return crate::parallel::solve_parallel(self.problem, opts, rule, workers, budget);
        }
        // Cut-and-branch: the root cut loop adds `≤` rows only, so the
        // variable space — and with it every incumbent — keeps its meaning,
        // and its pivots count against this solve's cap.
        let mut scale = ScaleProfile::default();
        let root = cuts::root_cut_loop(self.problem, &opts.lp, opts.int_tol, &budget, &mut scale)?;
        budget.add_lp_iterations(root.lp_iterations);
        let mut sol = crate::parallel::solve_parallel(&root.problem, opts, rule, workers, budget)?;
        sol.stats.lp_iterations += root.lp_iterations;
        sol.stats.scale.absorb(&scale);
        Ok(sol)
    }
}

/// Whether a node with LP bound `bound` cannot beat incumbent `inc`.
pub(crate) fn prune_bound(bound: f64, inc: f64, opts: &MipOptions) -> bool {
    let effective = if opts.objective_is_integral {
        (bound - 1e-6).ceil()
    } else {
        bound
    };
    effective >= inc - opts.abs_gap
}

/// Resolves [`MipOptions::threads`] to a worker count (`0` = all CPUs).
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        threads
    }
}

/// Validates [`MipOptions::initial_incumbent`] exactly as the search would
/// accept an integral node: correct length, integral binaries, inside
/// bounds, feasible. Returns the point with its objective, or `None`.
pub(crate) fn validate_incumbent(
    problem: &Problem,
    opts: &MipOptions,
    num_structs: usize,
) -> Option<(Vec<f64>, f64)> {
    let x0 = opts.initial_incumbent.as_ref()?;
    let integral = x0.len() == num_structs
        && problem.var_ids().all(|v| {
            problem.var_kind(v) != VarKind::Binary || !is_fractional(x0[v.index()], opts.int_tol)
        })
        && problem.var_ids().all(|v| {
            let (lo, hi) = problem.var_bounds(v);
            x0[v.index()] >= lo - opts.int_tol && x0[v.index()] <= hi + opts.int_tol
        });
    if integral && problem.first_violated(x0, 1e-6).is_none() {
        let obj = problem.objective_value(x0);
        Some((x0.clone(), obj))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Branching;
    use crate::problem::Sense;

    /// Exhaustive reference solver for small 0-1 problems.
    fn brute_force(p: &Problem) -> Option<(Vec<f64>, f64)> {
        let n = p.num_vars();
        assert!(n <= 20);
        let mut best: Option<(Vec<f64>, f64)> = None;
        for mask in 0..(1u32 << n) {
            let x: Vec<f64> = (0..n)
                .map(|i| if mask >> i & 1 == 1 { 1.0 } else { 0.0 })
                .collect();
            // Respect bounds (for partially fixed vars).
            let ok_bounds = p.var_ids().all(|v| {
                let (lo, hi) = p.var_bounds(v);
                x[v.index()] >= lo - 1e-9 && x[v.index()] <= hi + 1e-9
            });
            if !ok_bounds || p.first_violated(&x, 1e-9).is_some() {
                continue;
            }
            let obj = p.objective_value(&x);
            if best.as_ref().is_none_or(|(_, b)| obj < *b) {
                best = Some((x, obj));
            }
        }
        best
    }

    fn knapsack(values: &[f64], weights: &[f64], cap: f64) -> Problem {
        let mut p = Problem::new("knap");
        let vars: Vec<_> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| p.add_var(format!("x{i}"), VarKind::Binary, -v).unwrap())
            .collect();
        p.add_constraint(
            "cap",
            vars.iter()
                .zip(weights)
                .map(|(&v, &w)| (v, w))
                .collect::<Vec<_>>(),
            Sense::Le,
            cap,
        )
        .unwrap();
        p
    }

    #[test]
    fn knapsack_optimal() {
        let p = knapsack(&[10.0, 13.0, 7.0, 8.0], &[3.0, 4.0, 2.0, 3.0], 7.0);
        let out = BranchAndBound::new(&p).solve().unwrap();
        assert_eq!(out.status, MipStatus::Optimal);
        let (bx, bobj) = brute_force(&p).unwrap();
        assert!(
            (out.objective - bobj).abs() < 1e-6,
            "bb {} vs brute {} ({bx:?})",
            out.objective,
            bobj
        );
    }

    #[test]
    fn infeasible_mip() {
        let mut p = Problem::new("inf");
        let a = p.add_var("a", VarKind::Binary, 1.0).unwrap();
        p.add_constraint("c", [(a, 2.0)], Sense::Eq, 1.0).unwrap();
        let out = BranchAndBound::new(&p).solve().unwrap();
        assert_eq!(out.status, MipStatus::Infeasible);
        assert!(out.x.is_empty());
    }

    #[test]
    fn equality_covering() {
        // Exactly-one constraints (like the paper's task-uniqueness (1)).
        let mut p = Problem::new("assign");
        let mut vars = Vec::new();
        for t in 0..3 {
            let row: Vec<_> = (0..3)
                .map(|q| {
                    p.add_var(format!("y{t}{q}"), VarKind::Binary, ((t + q) % 3) as f64)
                        .unwrap()
                })
                .collect();
            p.add_constraint(
                format!("one{t}"),
                row.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
                Sense::Eq,
                1.0,
            )
            .unwrap();
            vars.push(row);
        }
        let out = BranchAndBound::new(&p).solve().unwrap();
        assert_eq!(out.status, MipStatus::Optimal);
        let (_, bobj) = brute_force(&p).unwrap();
        assert!((out.objective - bobj).abs() < 1e-6);
        assert_eq!(out.objective, 0.0);
    }

    #[test]
    fn all_rules_agree_on_optimum() {
        let p = knapsack(
            &[6.0, 5.0, 9.0, 7.0, 3.0, 4.0],
            &[2.0, 3.0, 4.0, 3.0, 1.0, 2.0],
            8.0,
        );
        let (_, bobj) = brute_force(&p).unwrap();
        let o1 = BranchAndBound::new(&p)
            .rule(FirstIndexRule)
            .solve()
            .unwrap();
        let o2 = BranchAndBound::new(&p)
            .rule(MostFractionalRule)
            .solve()
            .unwrap();
        let prefs = vec![(0u32, BranchDirection::Up); p.num_vars()];
        let o3 = BranchAndBound::new(&p)
            .rule(PriorityRule::new("prio", prefs))
            .solve()
            .unwrap();
        for o in [&o1, &o2, &o3] {
            assert_eq!(o.status, MipStatus::Optimal);
            assert!(
                (o.objective - bobj).abs() < 1e-6,
                "{} vs {}",
                o.objective,
                bobj
            );
        }
    }

    #[test]
    fn best_bound_matches_objective_on_optimal() {
        let p = knapsack(&[10.0, 13.0, 7.0, 8.0], &[3.0, 4.0, 2.0, 3.0], 7.0);
        let out = BranchAndBound::new(&p).solve().unwrap();
        assert_eq!(out.status, MipStatus::Optimal);
        assert!((out.best_bound - out.objective).abs() < 1e-9);
    }

    #[test]
    fn node_limit_respected() {
        // Fractional root: the LP optimum is x0 = 1, x1 = 0.5, forcing at
        // least one branch, which the node limit forbids.
        let p = knapsack(&[2.0, 1.0], &[1.0, 1.0], 1.5);
        let opts = MipOptions {
            max_nodes: 1,
            ..MipOptions::default()
        };
        let out = BranchAndBound::new(&p).options(opts).solve().unwrap();
        assert_eq!(out.status, MipStatus::NodeLimit);
        assert!(out.stats.nodes <= 1);
        // The open children report the root LP bound, a valid lower bound.
        assert!(out.best_bound <= -2.0 + 1e-6, "bound {}", out.best_bound);
    }

    #[test]
    fn integral_objective_pruning_still_optimal() {
        let p = knapsack(&[5.0, 4.0, 3.0], &[4.0, 3.0, 2.0], 6.0);
        let opts = MipOptions {
            objective_is_integral: true,
            ..MipOptions::default()
        };
        let out = BranchAndBound::new(&p).options(opts).solve().unwrap();
        let (_, bobj) = brute_force(&p).unwrap();
        assert_eq!(out.status, MipStatus::Optimal);
        assert!((out.objective - bobj).abs() < 1e-6);
    }

    #[test]
    fn mixed_binary_continuous() {
        // min -y - 0.5 c s.t. c <= 3 y, c <= 2 → y=1, c=2, obj=-2.
        let mut p = Problem::new("mix");
        let y = p.add_var("y", VarKind::Binary, -1.0).unwrap();
        let c = p.add_var("c", VarKind::Continuous, -0.5).unwrap();
        p.set_bounds(c, 0.0, 2.0).unwrap();
        p.add_constraint("link", [(c, 1.0), (y, -3.0)], Sense::Le, 0.0)
            .unwrap();
        let out = BranchAndBound::new(&p).solve().unwrap();
        assert_eq!(out.status, MipStatus::Optimal);
        assert!((out.objective + 2.0).abs() < 1e-6, "obj={}", out.objective);
        assert!((out.x[0] - 1.0).abs() < 1e-6);
        assert!((out.x[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn pseudo_random_mips_match_brute_force() {
        let mut seed = 777u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            ((seed >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        for trial in 0..25 {
            let n = 4 + trial % 4;
            let mut p = Problem::new("rnd");
            let vars: Vec<_> = (0..n)
                .map(|i| {
                    p.add_var(format!("x{i}"), VarKind::Binary, next() * 5.0)
                        .unwrap()
                })
                .collect();
            for r in 0..3 {
                let coeffs: Vec<_> = vars.iter().map(|&v| (v, next() * 3.0)).collect();
                let sense = match r % 3 {
                    0 => Sense::Le,
                    1 => Sense::Ge,
                    _ => Sense::Le,
                };
                let rhs = next() * 2.0 + if sense == Sense::Le { 1.5 } else { -1.5 };
                p.add_constraint(format!("r{r}"), coeffs, sense, rhs)
                    .unwrap();
            }
            let out = BranchAndBound::new(&p).solve().unwrap();
            match brute_force(&p) {
                Some((_, bobj)) => {
                    assert_eq!(out.status, MipStatus::Optimal, "trial {trial}");
                    assert!(
                        (out.objective - bobj).abs() < 1e-5,
                        "trial {trial}: bb {} vs brute {}",
                        out.objective,
                        bobj
                    );
                    assert_eq!(p.first_violated(&out.x, 1e-5), None, "trial {trial}");
                }
                None => {
                    assert_eq!(out.status, MipStatus::Infeasible, "trial {trial}");
                }
            }
        }
    }

    #[test]
    fn initial_incumbent_seeds_and_prunes() {
        let p = knapsack(&[10.0, 13.0, 7.0, 8.0], &[3.0, 4.0, 2.0, 3.0], 7.0);
        // True optimum: x0 + x1 (10 + 13 = 23, weight 7). Seed with the
        // feasible but suboptimal x1 + x3 (21): the search must improve.
        let seed = vec![0.0, 1.0, 0.0, 1.0];
        let opts = MipOptions {
            initial_incumbent: Some(seed),
            ..MipOptions::default()
        };
        let out = BranchAndBound::new(&p).options(opts).solve().unwrap();
        assert_eq!(out.status, MipStatus::Optimal);
        assert!(
            (out.objective - (-23.0)).abs() < 1e-6,
            "obj={}",
            out.objective
        );
        assert!(out.stats.incumbent_updates >= 2, "seed + improvement");

        // An infeasible seed (weight 10 > 7) is silently ignored.
        let opts = MipOptions {
            initial_incumbent: Some(vec![1.0, 1.0, 0.0, 1.0]),
            ..MipOptions::default()
        };
        let out = BranchAndBound::new(&p).options(opts).solve().unwrap();
        assert_eq!(out.status, MipStatus::Optimal);
        assert!((out.objective - (-23.0)).abs() < 1e-6);

        // A fractional seed is ignored too.
        let opts = MipOptions {
            initial_incumbent: Some(vec![0.5, 0.5, 0.5, 0.5]),
            ..MipOptions::default()
        };
        let out = BranchAndBound::new(&p).options(opts).solve().unwrap();
        assert_eq!(out.status, MipStatus::Optimal);
        assert!((out.objective - (-23.0)).abs() < 1e-6);
    }

    #[test]
    fn unbounded_model_reports_truthful_status() {
        // min -c with c free above: the root relaxation is unbounded below,
        // which must surface as `MipStatus::Unbounded`, not an error.
        let mut p = Problem::new("unb");
        let y = p.add_var("y", VarKind::Binary, 1.0).unwrap();
        let c = p.add_var("c", VarKind::Continuous, -1.0).unwrap();
        p.set_bounds(c, 0.0, f64::INFINITY).unwrap();
        p.add_constraint("r", [(c, 1.0), (y, 1.0)], Sense::Ge, 0.0)
            .unwrap();
        let out = BranchAndBound::new(&p).solve().unwrap();
        assert_eq!(out.status, MipStatus::Unbounded);
        assert!(!out.status.may_have_solution());
        assert!(out.x.is_empty());
        assert_eq!(out.objective, f64::NEG_INFINITY);
        assert_eq!(out.best_bound, f64::NEG_INFINITY);
    }

    #[test]
    fn dual_cap_trip_recovers_via_cold_fallback() {
        // PR-2 degeneracy regression: a warm dual solve that trips
        // `dual_iteration_cap` must fall back to a cold solve, still prove
        // the optimum, and leave the fallbacks visible in the profile.
        let p = knapsack(
            &[6.0, 5.0, 9.0, 7.0, 3.0, 4.0],
            &[2.0, 3.0, 4.0, 3.0, 1.0, 2.0],
            8.0,
        );
        let mut opts = MipOptions::default();
        opts.lp.dual_iteration_cap = 1;
        let out = BranchAndBound::new(&p).options(opts).solve().unwrap();
        assert_eq!(out.status, MipStatus::Optimal);
        let (_, bobj) = brute_force(&p).unwrap();
        assert!((out.objective - bobj).abs() < 1e-6);
        assert!(
            out.stats.simplex.warm_fallbacks > 0,
            "a 1-pivot dual cap must force warm-to-cold fallbacks"
        );
    }

    #[test]
    fn lp_iteration_budget_stops_like_a_time_limit() {
        // A tiny pivot budget with a seeded incumbent: the search must stop
        // promptly with `TimeLimit` and keep the incumbent, never error.
        let p = knapsack(&[10.0, 13.0, 7.0, 8.0], &[3.0, 4.0, 2.0, 3.0], 7.0);
        let opts = MipOptions {
            max_lp_iterations: 1,
            initial_incumbent: Some(vec![0.0, 1.0, 0.0, 1.0]),
            ..MipOptions::default()
        };
        let out = BranchAndBound::new(&p).options(opts).solve().unwrap();
        assert_eq!(out.status, MipStatus::TimeLimit);
        assert!((out.objective - (-21.0)).abs() < 1e-6, "seed kept");
        assert!(out.best_bound <= out.objective + 1e-9, "bound stays valid");
    }

    #[test]
    fn full_scale_stack_proves_the_same_optimum() {
        // Cuts + propagation + pseudo-cost together must agree with the
        // features-off solver and surface their work in the counters.
        let p = knapsack(
            &[6.0, 5.0, 9.0, 7.0, 3.0, 4.0],
            &[2.0, 3.0, 4.0, 3.0, 1.0, 2.0],
            8.0,
        );
        let base = BranchAndBound::new(&p).solve().unwrap();
        assert!(base.stats.scale.is_empty(), "features-off runs stay clean");
        let opts = MipOptions {
            cuts: true,
            propagate: true,
            branching: Branching::Pseudocost,
            objective_is_integral: true,
            ..MipOptions::default()
        };
        let out = BranchAndBound::new(&p).options(opts).solve().unwrap();
        assert_eq!(out.status, MipStatus::Optimal);
        assert!(
            (out.objective - base.objective).abs() < 1e-6,
            "{} vs {}",
            out.objective,
            base.objective
        );
        assert!(out.stats.scale.cut_rounds >= 1, "{:?}", out.stats.scale);
    }

    #[test]
    fn cuts_alone_preserve_optimum_and_count_rounds() {
        let p = knapsack(&[10.0, 13.0, 7.0, 8.0], &[3.0, 4.0, 2.0, 3.0], 7.0);
        let base = BranchAndBound::new(&p).solve().unwrap();
        let opts = MipOptions {
            cuts: true,
            ..MipOptions::default()
        };
        let out = BranchAndBound::new(&p).options(opts).solve().unwrap();
        assert_eq!(out.status, MipStatus::Optimal);
        assert!((out.objective - base.objective).abs() < 1e-6);
        // The fractional knapsack root must trigger at least one round.
        assert!(out.stats.scale.cut_rounds >= 1, "{:?}", out.stats.scale);
        assert!(out.stats.scale.cuts_applied >= 1, "{:?}", out.stats.scale);
    }

    #[test]
    fn propagation_prunes_forced_infeasibility_without_lp() {
        // x0 + x1 ≥ 2 with x0 + x1 ≤ 1 at the binaries: branching x0 either
        // way forces contradictions that propagation catches LP-free.
        let mut p = Problem::new("prop");
        let a = p.add_var("a", VarKind::Binary, 1.0).unwrap();
        let b = p.add_var("b", VarKind::Binary, 1.0).unwrap();
        p.add_constraint("ge", [(a, 1.0), (b, 1.0)], Sense::Ge, 2.0)
            .unwrap();
        p.add_constraint("le", [(a, 1.0), (b, 1.0)], Sense::Le, 1.0)
            .unwrap();
        let opts = MipOptions {
            propagate: true,
            ..MipOptions::default()
        };
        let out = BranchAndBound::new(&p).options(opts).solve().unwrap();
        assert_eq!(out.status, MipStatus::Infeasible);
        assert!(
            out.stats.scale.propagation_infeasible >= 1,
            "{:?}",
            out.stats.scale
        );
        assert!(out.stats.nodes == 0, "no LP should ever run");
    }

    #[test]
    fn pseudocost_branching_matches_brute_force() {
        let p = knapsack(
            &[6.0, 5.0, 9.0, 7.0, 3.0, 4.0],
            &[2.0, 3.0, 4.0, 3.0, 1.0, 2.0],
            8.0,
        );
        let (_, bobj) = brute_force(&p).unwrap();
        let opts = MipOptions {
            branching: Branching::Pseudocost,
            ..MipOptions::default()
        };
        let out = BranchAndBound::new(&p).options(opts).solve().unwrap();
        assert_eq!(out.status, MipStatus::Optimal);
        assert!((out.objective - bobj).abs() < 1e-6);
        // The root bootstrap runs strong-branching probes, and the search
        // records observations from solved children.
        assert!(
            out.stats.scale.strong_branch_solves > 0,
            "{:?}",
            out.stats.scale
        );
        assert!(
            out.stats.scale.pseudocost_updates > 0,
            "{:?}",
            out.stats.scale
        );
    }

    #[test]
    fn scale_features_agree_across_thread_counts() {
        // One, two and four workers must prove the same optimum with the
        // scale stack enabled.
        let p = knapsack(
            &[6.0, 5.0, 9.0, 7.0, 3.0, 4.0],
            &[2.0, 3.0, 4.0, 3.0, 1.0, 2.0],
            8.0,
        );
        let (_, bobj) = brute_force(&p).unwrap();
        for threads in [1, 2, 4] {
            let out = BranchAndBound::new(&p)
                .options(MipOptions {
                    cuts: true,
                    propagate: true,
                    branching: Branching::Pseudocost,
                    threads,
                    ..MipOptions::default()
                })
                .solve()
                .unwrap();
            assert_eq!(out.status, MipStatus::Optimal, "threads {threads}");
            assert!((out.objective - bobj).abs() < 1e-6, "threads {threads}");
            assert_eq!(out.stats.per_worker_nodes.len(), threads);
        }
    }

    /// Records the thread of every branching decision.
    struct ThreadRecorder(Arc<std::sync::Mutex<Vec<std::thread::ThreadId>>>);

    impl BranchingRule for ThreadRecorder {
        fn select(
            &self,
            problem: &Problem,
            x: &[f64],
            int_tol: f64,
        ) -> Option<(VarId, BranchDirection)> {
            self.0
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(std::thread::current().id());
            FirstIndexRule.select(problem, x, int_tol)
        }

        fn name(&self) -> &str {
            "thread-recorder"
        }
    }

    #[test]
    fn one_thread_searches_on_the_callers_thread() {
        let p = knapsack(&[10.0, 13.0, 7.0, 8.0], &[3.0, 4.0, 2.0, 3.0], 7.0);
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let out = BranchAndBound::new(&p)
            .options(MipOptions {
                threads: 1,
                ..MipOptions::default()
            })
            .rule(ThreadRecorder(Arc::clone(&seen)))
            .solve()
            .unwrap();
        assert_eq!(out.status, MipStatus::Optimal);
        let seen = seen.lock().unwrap().clone();
        assert!(!seen.is_empty(), "the rule was consulted");
        let me = std::thread::current().id();
        assert!(seen.iter().all(|&t| t == me), "{seen:?} vs {me:?}");
    }

    #[test]
    fn priority_rule_orders_search() {
        // Priorities force branching on x2 before x0 despite index order.
        let p = knapsack(&[1.0, 1.0, 1.0], &[1.0, 1.0, 1.0], 1.5);
        let prefs = vec![
            (2, BranchDirection::Up),
            (1, BranchDirection::Up),
            (0, BranchDirection::Up),
        ];
        let out = BranchAndBound::new(&p)
            .rule(PriorityRule::new("rev", prefs))
            .solve()
            .unwrap();
        assert_eq!(out.status, MipStatus::Optimal);
        assert!((out.objective + 1.0).abs() < 1e-6);
    }
}
