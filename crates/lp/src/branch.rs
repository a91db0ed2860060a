//! Depth-first branch and bound for 0-1 MIPs.
//!
//! Node LPs are warm-started from the parent basis with the dual simplex
//! (falling back to a cold two-phase primal on numerical trouble). Branching
//! is pluggable via [`BranchingRule`]; the paper's §8 heuristic is expressed
//! as a [`PriorityRule`] built by `tempart-core`.

use std::sync::Arc;
use std::time::Instant;

use crate::cuts;
use crate::faults::Budget;
use crate::internal::CoreLp;
use crate::options::{Branching, MipOptions};
use crate::problem::{LpError, Problem, VarId, VarKind};
use crate::profile::{ContentionProfile, ScaleProfile, SimplexProfile};
use crate::propagate::{Propagation, Propagator};
use crate::pseudocost::{reliability_init, PseudoCost};
use crate::simplex::{solve_node_resilient, BasisSnapshot};
use crate::status::{LpStatus, MipStatus};

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

/// Observations per direction before a pseudo-cost estimate is trusted.
pub(crate) const PSEUDOCOST_RELIABILITY: usize = 8;
/// Strong-branching candidates bootstrapped at the root.
const STRONG_BRANCH_TOP_K: usize = 8;
/// Node cap on the RINS sub-MIP.
const RINS_NODE_CAP: usize = 2_000;
/// Pivot cap on the RINS sub-MIP.
const RINS_ITER_CAP: usize = 50_000;
/// Wall-clock cap (seconds) on the RINS sub-MIP.
const RINS_TIME_CAP: f64 = 5.0;

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
    /// equal to `nodes` for the serial solver). In portfolio mode, nodes
    /// solved by each racing arm.
    pub per_worker_nodes: Vec<usize>,
    /// Wall-clock seconds each worker spent processing nodes, as opposed to
    /// hunting for work (one entry per worker; equal to `seconds` for the
    /// serial solver). On a multi-core host the entries overlap in time, so
    /// their sum exceeding `seconds` is the parallelism, not an error.
    pub per_worker_busy_secs: Vec<f64>,
    /// Contention counters of the work-stealing parallel scheduler (all
    /// zero for the serial solver); see [`ContentionProfile`].
    pub contention: ContentionProfile,
    /// Name of the configuration that won a portfolio race (`None` unless
    /// [`MipOptions::portfolio`](crate::MipOptions) was set).
    pub portfolio_winner: Option<String>,
    /// Merged simplex profile of every node LP solved during the search
    /// (counters always; section timers only with
    /// [`LpOptions::profile`](crate::LpOptions::profile)).
    pub simplex: SimplexProfile,
    /// Counters of the cut-and-heuristic scale layer (cut separation, node
    /// propagation, RINS, pseudo-cost branching); all zero with the
    /// features off. See [`ScaleProfile`].
    pub scale: ScaleProfile,
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
/// which the parallel search relies on: any worker can pick up any node.
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

struct Node {
    /// Bound overrides relative to the root bounds.
    overlay: BoundOverlay,
    /// Basis of the parent's LP optimum, if available.
    warm: Option<BasisSnapshot>,
    /// Parent LP bound (for cheap pre-pruning).
    parent_bound: f64,
    /// The branching that created this node: `(variable, direction,
    /// fractional part at the parent)` — the pseudo-cost engine's
    /// observation context. `None` at the root. Carried unconditionally
    /// (it is memory-only, so the features-off path is unchanged).
    branched: Option<(VarId, BranchDirection, f64)>,
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
    /// With [`MipOptions::portfolio`](crate::MipOptions) set, a small set of
    /// solver configurations race as independent serial solves (see the
    /// `portfolio` module docs). Otherwise, with [`MipOptions::threads`]
    /// above one (or zero, meaning one worker per CPU) the node search runs
    /// on a work-stealing worker team; the returned objective and status
    /// are the same as the serial solver's, but node counts vary run to
    /// run. See `parallel` module docs.
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable LP failures
    /// ([`LpError::IterationLimit`], [`LpError::SingularBasis`]).
    pub fn solve(&self) -> Result<MipSolution, LpError> {
        if self.options.portfolio {
            return crate::portfolio::solve_portfolio(
                self.problem,
                &self.options,
                self.rule.as_ref(),
            );
        }
        let workers = resolve_threads(self.options.threads);
        if workers > 1 {
            // Root preparation (cut loop + RINS) runs serially before the
            // worker team spawns; the workers then search the strengthened
            // problem. A no-op (features off) dispatches directly.
            let budget = external_or_new_budget(&self.options);
            return match prepare_root(self.problem, &self.options, &budget)? {
                None => crate::parallel::solve_parallel(
                    self.problem,
                    &self.options,
                    self.rule.as_ref(),
                    workers,
                ),
                Some(prep) => {
                    let mut sol = crate::parallel::solve_parallel(
                        &prep.problem,
                        &prep.opts,
                        self.rule.as_ref(),
                        workers,
                    )?;
                    sol.stats.lp_iterations += prep.lp_iterations;
                    sol.stats.scale.absorb(&prep.scale);
                    Ok(sol)
                }
            };
        }
        // One budget for the whole search: the wall-clock deadline and the
        // LP-iteration cap are also checked *inside* the simplex pivot loop
        // (via `LpOptions::budget`), so a single long node LP cannot blow
        // through the global limits.
        let budget = external_or_new_budget(&self.options);
        solve_serial_prepared(self.problem, &self.options, self.rule.as_ref(), budget)
    }
}

/// The whole-search [`Budget`]: a caller-supplied one
/// ([`LpOptions::budget`](crate::LpOptions::budget)) when present — so an outside owner (the
/// `tempart-server` drain path, the CLI's Ctrl-C handler) can
/// [`Budget::request_stop`] the search — otherwise a fresh budget built
/// from the [`MipOptions`] limits, which nothing else holds, keeping the
/// stop check dead and the serial search bit-identical to the pins.
pub(crate) fn external_or_new_budget(opts: &MipOptions) -> Arc<Budget> {
    match &opts.lp.budget {
        Some(b) => Arc::clone(b),
        None => Arc::new(Budget::new(
            opts.time_limit_secs,
            opts.max_nodes,
            opts.max_lp_iterations,
        )),
    }
}

/// The exact depth-first serial algorithm (`threads == 1`): node visit
/// order, node counts, and the incumbent are fully deterministic.
///
/// The budget is injected so a portfolio race can cancel this solve
/// cooperatively ([`Budget::request_stop`] surfaces as a truthful
/// [`MipStatus::TimeLimit`]); a plain serial solve passes a budget nothing
/// else holds, making the stop check dead and the search bit-identical to
/// the pre-portfolio solver.
pub(crate) fn solve_serial(
    problem: &Problem,
    opts: &MipOptions,
    rule: &(dyn BranchingRule + Sync),
    budget: Arc<Budget>,
) -> Result<MipSolution, LpError> {
    {
        // audit: allow(nondet) — wall-clock start for the anytime time limit
        // and reported runtime; node selection never reads it.
        let start = Instant::now();
        let core = CoreLp::from_problem(problem);
        let ns = core.num_structs;
        let mut stats = MipStats::default();

        let mut incumbent = validate_incumbent(problem, opts, ns);
        if incumbent.is_some() {
            stats.incumbent_updates += 1;
        }
        // Live-progress board: publication sites are dead without one, so
        // the default path stays bit-identical to the golden pins.
        let progress = opts.progress.as_deref();
        if let (Some(p), Some((_, obj))) = (progress, &incumbent) {
            p.note_incumbent(*obj);
        }
        let mut stack: Vec<Node> = vec![Node {
            overlay: BoundOverlay::default(),
            warm: None,
            parent_bound: f64::NEG_INFINITY,
            branched: None,
        }];
        let mut status = MipStatus::Optimal;

        let mut lower = core.lower.clone();
        let mut upper = core.upper.clone();

        // Optional scale-layer engines: a shared propagator (immutable after
        // build) and a pseudo-cost history. Both are `None` with the
        // features off, leaving the golden serial path untouched.
        let propagator = opts
            .propagate
            .then(|| Propagator::build(problem, opts.lp.feas_tol));
        let mut pseudo = (opts.branching == Branching::Pseudocost)
            .then(|| PseudoCost::new(problem.num_vars(), PSEUDOCOST_RELIABILITY));

        while let Some(node) = stack.pop() {
            // Limit breaks push the in-flight node back so the epilogue's
            // best-bound fold over the open stack stays a valid bound.
            if stats.nodes >= opts.max_nodes {
                status = MipStatus::NodeLimit;
                stack.push(node);
                break;
            }
            let remaining = opts.time_limit_secs - start.elapsed().as_secs_f64();
            if remaining <= 0.0 {
                status = MipStatus::TimeLimit;
                stack.push(node);
                break;
            }
            if stats.lp_iterations >= opts.max_lp_iterations {
                // The deterministic work budget is spent: stop like a time
                // limit, keeping the incumbent and the proven bound.
                status = MipStatus::TimeLimit;
                stack.push(node);
                break;
            }
            if budget.stop_requested() {
                // A portfolio peer finished first and cancelled this arm;
                // stop truthfully as a limit, keeping the incumbent and the
                // proven bound. Never taken outside a race: nothing else
                // holds this solve's budget.
                status = MipStatus::TimeLimit;
                stack.push(node);
                break;
            }
            // Pre-prune on the parent bound.
            if let Some((_, inc_obj)) = &incumbent {
                if prune_bound(node.parent_bound, *inc_obj, opts) {
                    stats.pruned_by_bound += 1;
                    continue;
                }
            }
            // Apply node bounds.
            node.overlay.apply(&core, &mut lower, &mut upper);
            // Node presolve: bound propagation on the structural slices can
            // fix binaries (tightening the child LP) or prove the node
            // infeasible before any simplex work.
            if let Some(prop) = &propagator {
                match prop.propagate(&mut lower[..ns], &mut upper[..ns]) {
                    Propagation::Infeasible => {
                        stats.scale.propagation_infeasible += 1;
                        stats.pruned_infeasible += 1;
                        continue;
                    }
                    Propagation::Fixed(n) => stats.scale.propagation_fixings += n,
                }
            }
            // Solve the node LP (warm dual first, cold fallback with the
            // numerical retry ladder), bounded by the remaining wall-clock
            // budget so one long LP cannot blow through the global limit.
            let mut lp_opts = opts.lp.clone();
            lp_opts.time_limit_secs = lp_opts.time_limit_secs.min(remaining);
            lp_opts.budget = Some(Arc::clone(&budget));
            let solved = solve_node_resilient(&core, &lower, &upper, node.warm.as_ref(), &lp_opts);
            let outcome = match solved {
                Ok(o) => o,
                Err(LpError::Timeout) => {
                    status = MipStatus::TimeLimit;
                    stack.push(node);
                    break;
                }
                Err(LpError::IterationLimit) | Err(LpError::SingularBasis) => {
                    // The full retry ladder failed on this node: abandon the
                    // proof, keep the incumbent (reported as a limit, not an
                    // error).
                    status = MipStatus::NodeLimit;
                    stack.push(node);
                    break;
                }
                Err(e) => return Err(e),
            };
            stats.nodes += 1;
            stats.lp_iterations += outcome.iterations;
            budget.note_node();
            budget.add_lp_iterations(outcome.iterations);
            stats.simplex.absorb(&outcome.profile);
            match outcome.status {
                LpStatus::Infeasible => {
                    stats.pruned_infeasible += 1;
                    continue;
                }
                LpStatus::Unbounded => {
                    // The relaxation — and hence the model — is unbounded
                    // below (possible only with unbounded continuous vars):
                    // report it truthfully instead of faking an error.
                    status = MipStatus::Unbounded;
                    break;
                }
                LpStatus::Optimal => {
                    // The root relaxation objective is a valid global lower
                    // bound; publish it for pollers.
                    if stats.nodes == 1 {
                        if let Some(p) = progress {
                            p.note_bound(outcome.objective);
                        }
                    }
                }
            }
            // Pseudo-cost learning: the solved child reports the objective
            // degradation of the branching that created it. Root nodes with
            // no history bootstrap via strong-branching probes.
            if let Some(pc) = &mut pseudo {
                if let Some((v, dir, frac)) = node.branched {
                    if node.parent_bound.is_finite() {
                        let dist = match dir {
                            BranchDirection::Up => 1.0 - frac,
                            BranchDirection::Down => frac,
                        };
                        pc.observe(v, dir, dist, outcome.objective - node.parent_bound);
                    }
                } else if node.overlay.entries.is_empty() && !pc.has_data() {
                    let (solves, iters) = reliability_init(
                        &core,
                        problem,
                        &outcome.x[..ns],
                        outcome.objective,
                        &outcome.snapshot,
                        &lower,
                        &upper,
                        &lp_opts,
                        opts.int_tol,
                        STRONG_BRANCH_TOP_K,
                        pc,
                    );
                    stats.scale.strong_branch_solves += solves;
                    stats.lp_iterations += iters;
                    budget.add_lp_iterations(iters);
                }
            }
            // Prune by bound.
            if let Some((_, inc_obj)) = &incumbent {
                if prune_bound(outcome.objective, *inc_obj, opts) {
                    stats.pruned_by_bound += 1;
                    continue;
                }
            }
            let x = &outcome.x[..ns];
            // Pseudo-cost selection once history exists; the static rule is
            // the cold-start fallback (and the only path with the feature
            // off).
            let selected = match &pseudo {
                Some(pc) if pc.has_data() => pc.select(problem, x, opts.int_tol),
                _ => rule.select(problem, x, opts.int_tol),
            };
            match selected {
                None => {
                    // The rule sees no fractional binary; verify.
                    debug_assert!(
                        problem.var_ids().all(|v| {
                            problem.var_kind(v) != VarKind::Binary
                                || !is_fractional(x[v.index()], opts.int_tol * 10.0)
                        }),
                        "branching rule returned None on a fractional solution"
                    );
                    let obj = outcome.objective;
                    if incumbent
                        .as_ref()
                        .is_none_or(|(_, b)| obj < b - opts.abs_gap)
                    {
                        incumbent = Some((x.to_vec(), obj));
                        stats.incumbent_updates += 1;
                        if let Some(p) = progress {
                            p.note_incumbent(obj);
                        }
                    }
                }
                Some((v, dir)) => {
                    let frac = x[v.index()].clamp(0.0, 1.0).fract();
                    let fix = |val: f64, child_dir: BranchDirection| -> Node {
                        Node {
                            overlay: node.overlay.child(v, val, val),
                            warm: Some(outcome.snapshot.clone()),
                            parent_bound: outcome.objective,
                            branched: Some((v, child_dir, frac)),
                        }
                    };
                    let (first, second) = match dir {
                        BranchDirection::Up => (
                            fix(1.0, BranchDirection::Up),
                            fix(0.0, BranchDirection::Down),
                        ),
                        BranchDirection::Down => (
                            fix(0.0, BranchDirection::Down),
                            fix(1.0, BranchDirection::Up),
                        ),
                    };
                    // LIFO: push the second child first so the preferred
                    // direction is explored first.
                    stack.push(second);
                    stack.push(first);
                }
            }
        }
        stats.seconds = start.elapsed().as_secs_f64();
        stats.per_worker_nodes = vec![stats.nodes];
        stats.per_worker_busy_secs = vec![stats.seconds];
        if let Some(pc) = &pseudo {
            stats.scale.pseudocost_updates = pc.updates();
        }
        let (x, objective, status) = if status == MipStatus::Unbounded {
            // An unbounded relaxation makes the model's optimum −∞; an
            // incumbent objective is meaningless as a bound, so none is
            // reported ([`MipStatus::may_have_solution`] is false).
            (Vec::new(), f64::NEG_INFINITY, status)
        } else {
            match incumbent {
                Some((x, obj)) => (x, obj, status),
                None => (
                    Vec::new(),
                    f64::INFINITY,
                    if status == MipStatus::Optimal {
                        MipStatus::Infeasible
                    } else {
                        status
                    },
                ),
            }
        };
        // Lower bound: exact on completion; otherwise the weakest bound
        // still open on the stack.
        let best_bound = match status {
            MipStatus::Optimal => objective,
            MipStatus::Infeasible => f64::INFINITY,
            MipStatus::Unbounded => f64::NEG_INFINITY,
            _ => stack
                .iter()
                .map(|n| n.parent_bound)
                .fold(f64::INFINITY, f64::min),
        };
        // Fold the exact terminal values into the board so a poller's last
        // read agrees with the returned solution.
        if let Some(p) = progress {
            if objective.is_finite() {
                p.note_incumbent(objective);
            }
            if best_bound.is_finite() {
                p.note_bound(best_bound);
            }
        }
        Ok(MipSolution {
            status,
            x,
            objective,
            best_bound,
            stats,
        })
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

/// Root preparation artifacts: the (possibly cut-strengthened) problem and
/// the options to search it with (possibly carrying a RINS incumbent), plus
/// the accounting the caller must absorb into its stats.
pub(crate) struct Prepared {
    pub(crate) problem: Problem,
    pub(crate) opts: MipOptions,
    pub(crate) scale: ScaleProfile,
    pub(crate) lp_iterations: usize,
}

/// Runs the root scale layer: the cutting-plane loop strengthens the
/// relaxation (extra `≤` rows only — the variable space is unchanged, so
/// solution vectors and incumbents keep their meaning), and the RINS
/// heuristic turns the scheduler reference into a seeded incumbent via a
/// budgeted sub-MIP.
///
/// Returns `None` fast when both features are off: the golden features-off
/// path never even clones the problem.
pub(crate) fn prepare_root(
    problem: &Problem,
    opts: &MipOptions,
    budget: &Arc<Budget>,
) -> Result<Option<Prepared>, LpError> {
    if !opts.cuts && !opts.rins {
        return Ok(None);
    }
    let mut scale = ScaleProfile::default();
    let mut lp_iterations = 0usize;
    let mut root_x: Option<Vec<f64>> = None;
    let mut prepared = problem.clone();
    if opts.cuts {
        let res = cuts::root_cut_loop(problem, &opts.lp, opts.int_tol, budget, &mut scale)?;
        prepared = res.problem;
        root_x = res.root_x;
        lp_iterations += res.lp_iterations;
    }
    let mut prep_opts = opts.clone();
    if opts.rins {
        lp_iterations += rins(&prepared, opts, &mut prep_opts, root_x, budget, &mut scale)?;
    }
    // Root work counts against the same global pivot budget as the search.
    budget.add_lp_iterations(lp_iterations);
    Ok(Some(Prepared {
        problem: prepared,
        opts: prep_opts,
        scale,
        lp_iterations,
    }))
}

/// RINS: relaxation-induced neighborhood search driven by an external
/// reference solution (the Figure-2 list schedule, encoded by the caller
/// into [`MipOptions::rins_reference`]). Binaries where the root LP is
/// integral *and* agrees with the reference are fixed; the remaining
/// neighborhood is searched by a budgeted features-off sub-MIP seeded with
/// the reference. The best point found becomes the main search's initial
/// incumbent. Returns the LP iterations spent.
fn rins(
    prepared: &Problem,
    opts: &MipOptions,
    prep_opts: &mut MipOptions,
    root_x: Option<Vec<f64>>,
    budget: &Arc<Budget>,
    scale: &mut ScaleProfile,
) -> Result<usize, LpError> {
    let mut iters = 0usize;
    // Validate the reference exactly as the search validates an incumbent
    // (against the *strengthened* problem: cuts keep every integer point).
    let reference_opts = MipOptions {
        initial_incumbent: opts.rins_reference.clone(),
        ..opts.clone()
    };
    let Some((ref_x, ref_obj)) = validate_incumbent(prepared, &reference_opts, prepared.num_vars())
    else {
        return Ok(0); // no usable reference: RINS is a no-op
    };
    scale.rins_runs += 1;
    // Root LP point: reuse the cut loop's, else solve one fresh.
    let root = match root_x {
        Some(x) => Some(x),
        None => {
            let mut lp_opts = opts.lp.clone();
            lp_opts.budget = Some(Arc::clone(budget));
            match crate::simplex::solve_lp(prepared, &lp_opts) {
                Ok(out) => {
                    iters += out.iterations;
                    (out.status == LpStatus::Optimal).then_some(out.x)
                }
                Err(_) => None,
            }
        }
    };
    // Fix binaries where LP relaxation and reference agree on an integer.
    let mut sub = prepared.clone();
    let mut fixed = 0usize;
    if let Some(root) = &root {
        for v in prepared.var_ids() {
            if prepared.var_kind(v) != VarKind::Binary {
                continue;
            }
            let lp_val = root[v.index()];
            if !is_fractional(lp_val, opts.int_tol)
                && (lp_val.round() - ref_x[v.index()].round()).abs() < 0.5
            {
                let val = ref_x[v.index()].round();
                sub.set_bounds(v, val, val)?;
                fixed += 1;
            }
        }
    }
    let mut best = (ref_x.clone(), ref_obj);
    if fixed > 0 {
        let sub_opts = MipOptions {
            cuts: false,
            propagate: false,
            rins: false,
            rins_reference: None,
            branching: Branching::Rule,
            portfolio: false,
            threads: 1,
            initial_incumbent: Some(ref_x.clone()),
            max_nodes: RINS_NODE_CAP,
            max_lp_iterations: RINS_ITER_CAP,
            time_limit_secs: RINS_TIME_CAP.min(budget.remaining_secs()),
            ..opts.clone()
        };
        let sub_budget = Arc::new(Budget::new(
            sub_opts.time_limit_secs,
            sub_opts.max_nodes,
            sub_opts.max_lp_iterations,
        ));
        if let Ok(sol) = solve_serial(&sub, &sub_opts, &MostFractionalRule, sub_budget) {
            scale.rins_nodes += sol.stats.nodes;
            iters += sol.stats.lp_iterations;
            if sol.status.may_have_solution()
                && !sol.x.is_empty()
                && sol.objective < best.1 - opts.abs_gap
            {
                scale.rins_incumbents += 1;
                best = (sol.x, sol.objective);
            }
        }
    }
    // Seed the main search, unless the caller's own incumbent already beats
    // everything RINS produced.
    let existing = validate_incumbent(prepared, opts, prepared.num_vars());
    if existing.as_ref().is_none_or(|(_, obj)| best.1 < *obj) {
        prep_opts.initial_incumbent = Some(best.0);
    }
    Ok(iters)
}

/// Serial solve behind root preparation: the cut loop and RINS run first
/// (when enabled), then the exact serial search runs on the prepared
/// problem. With the features off this is the unmodified [`solve_serial`] —
/// the golden node/iteration pins are bit-identical.
pub(crate) fn solve_serial_prepared(
    problem: &Problem,
    opts: &MipOptions,
    rule: &(dyn BranchingRule + Sync),
    budget: Arc<Budget>,
) -> Result<MipSolution, LpError> {
    match prepare_root(problem, opts, &budget)? {
        None => solve_serial(problem, opts, rule, budget),
        Some(prep) => {
            let mut sol = solve_serial(&prep.problem, &prep.opts, rule, budget)?;
            sol.stats.lp_iterations += prep.lp_iterations;
            sol.stats.scale.absorb(&prep.scale);
            Ok(sol)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // Cuts + propagation + RINS + pseudo-cost together must agree with
        // the features-off solver and surface their work in the counters.
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
            rins: true,
            rins_reference: Some(vec![1.0, 0.0, 1.0, 0.0, 1.0, 0.0]),
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
        assert!(out.stats.scale.rins_runs >= 1, "{:?}", out.stats.scale);
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
    fn rins_adopts_the_reference_as_incumbent() {
        // Reference = the true optimum: RINS must install it, so the search
        // starts with a seeded incumbent (visible as an extra update).
        let p = knapsack(&[10.0, 13.0, 7.0, 8.0], &[3.0, 4.0, 2.0, 3.0], 7.0);
        let opts = MipOptions {
            rins: true,
            rins_reference: Some(vec![1.0, 1.0, 0.0, 0.0]),
            ..MipOptions::default()
        };
        let out = BranchAndBound::new(&p).options(opts).solve().unwrap();
        assert_eq!(out.status, MipStatus::Optimal);
        assert!((out.objective - (-23.0)).abs() < 1e-6);
        assert_eq!(out.stats.scale.rins_runs, 1);
        // An infeasible reference is ignored (weight 12 > 7): no crash, no
        // bogus incumbent.
        let opts = MipOptions {
            rins: true,
            rins_reference: Some(vec![1.0, 1.0, 1.0, 1.0]),
            ..MipOptions::default()
        };
        let out = BranchAndBound::new(&p).options(opts).solve().unwrap();
        assert_eq!(out.status, MipStatus::Optimal);
        assert!((out.objective - (-23.0)).abs() < 1e-6);
        assert_eq!(out.stats.scale.rins_runs, 0, "unusable reference skipped");
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
    fn scale_features_agree_across_drivers() {
        // Serial, work-stealing parallel, and portfolio must all prove the
        // same optimum with the scale stack enabled.
        let p = knapsack(
            &[6.0, 5.0, 9.0, 7.0, 3.0, 4.0],
            &[2.0, 3.0, 4.0, 3.0, 1.0, 2.0],
            8.0,
        );
        let (_, bobj) = brute_force(&p).unwrap();
        let base = MipOptions {
            cuts: true,
            propagate: true,
            branching: Branching::Pseudocost,
            ..MipOptions::default()
        };
        let serial = BranchAndBound::new(&p)
            .options(base.clone())
            .solve()
            .unwrap();
        let par = BranchAndBound::new(&p)
            .options(MipOptions {
                threads: 2,
                ..base.clone()
            })
            .solve()
            .unwrap();
        let race = BranchAndBound::new(&p)
            .options(MipOptions {
                portfolio: true,
                ..base
            })
            .solve()
            .unwrap();
        for out in [&serial, &par, &race] {
            assert_eq!(out.status, MipStatus::Optimal);
            assert!((out.objective - bobj).abs() < 1e-6);
        }
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
