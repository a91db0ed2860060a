//! The branch-and-bound search: one work-stealing driver at every thread
//! count.
//!
//! Entered from [`BranchAndBound::solve`](crate::BranchAndBound::solve)
//! with the worker count that [`MipOptions::threads`](crate::MipOptions::threads)
//! resolves to. One worker runs on the calling thread; more run on scoped
//! `std::thread`s. The search layer is contention-free on its hot path — a
//! worker dispatching its own node and warm-starting from its parent
//! touches no global lock:
//!
//! * **Per-worker work-stealing deques** — every worker owns a
//!   [`WorkDeque`]: it dives depth-first on the branching rule's preferred
//!   child through a *private* buffer (no synchronization at all) and
//!   publishes the sibling to its own deque with an uncontended `try_lock`
//!   (misses count as `lock_waits`). Idle workers steal from the *front*
//!   of a victim's deque — the root-most, typically best-bound node it has
//!   on offer — so global search order stays close to a best-bound pool
//!   without any shared queue. Exhaustion is detected by an atomic
//!   `outstanding` count; truly idle workers park on a condvar that
//!   publishers only touch when a sleeper is registered.
//! * **Copy-on-write warm starts** — a branched node's optimal basis is
//!   wrapped once in an `Arc<BasisSnapshot>` and shared by both children;
//!   nothing is deep-cloned at dispatch. The snapshot is materialized into
//!   a solver working basis only when a child actually solves — the
//!   copy-on-first-mutation point, counted as `cow_clones` while the
//!   sibling still shares the `Arc`.
//! * **Seqlock incumbent exchange** — the incumbent objective lives in an
//!   `AtomicU64` ([`bound_key`](crate::worksteal::bound_key) encoding)
//!   read wait-free by the pruning path; the solution vector sits in an
//!   [`IncumbentCell`] slot that writers claim with a CAS (retries counted
//!   as `incumbent_retries`).
//!   No mutex anywhere on the incumbent path, and improvements publish
//!   promptly — stale-incumbent node blowup is bounded by tests.
//! * **Per-solve budget** — node, pivot and wall-clock limits are checked
//!   against a [`Budget`] scoped to this solve (a child of the caller's
//!   budget, when one is attached). A limit that one worker detects sets
//!   an `AtomicBool` *and* raises the solve budget's stop flag, which the
//!   simplex pivot loop samples: a worker stuck in one long LP abandons it
//!   mid-solve instead of finishing the node. The caller's budget is never
//!   stopped, so a caller that spans several solves with it (a latency
//!   sweep) gives each its own limits. Workers fold their in-flight bounds
//!   into the shared open-bound so the reported `best_bound` stays a valid
//!   lower bound, then exit.
//! * **Panic isolation** — each node solve runs under `catch_unwind`; a
//!   panicking solve is logged, its node requeued once, and the search
//!   continues. A node that panics twice is abandoned and the final
//!   `Optimal` claim degraded to `NodeLimit` (its bound still counts
//!   toward `best_bound`). All locks are poison-proof.
//!
//! ## Determinism contract
//!
//! At any thread count the solver proves the same optimal objective (or the
//! same infeasibility). With one worker the search is fully deterministic:
//! the worker pops its dive buffer, then the newest sibling in its own
//! deque, which is exactly the depth-first order of a LIFO stack, so node
//! visit order, node and pivot counts and the incumbent are pinned by the
//! golden tests. Above one worker, node visit order, node/steal counts, and
//! which of several objective-tied optima becomes the incumbent vary run to
//! run; limit-terminated runs may also differ in their reported gap.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use tempart_race::sync::atomic::{AtomicBool, Ordering};
use tempart_race::sync::Mutex;

use crate::branch::{
    is_fractional, prune_bound, validate_incumbent, BoundOverlay, BranchDirection, BranchingRule,
    MipSolution, MipStats,
};
use crate::faults::{Budget, BudgetExceeded, FaultSite};
use crate::internal::CoreLp;
use crate::options::{Branching, MipOptions};
use crate::problem::{LpError, Problem, VarId, VarKind};
use crate::profile::{ContentionProfile, ScaleProfile, SimplexProfile};
use crate::propagate::{Propagation, Propagator};
use crate::pseudocost::{reliability_init, PseudoCost};
use crate::rendezvous::Rendezvous;
use crate::simplex::{solve_node_resilient, BasisSnapshot};
use crate::status::{LpStatus, MipStatus};
use crate::worksteal::{lock, IncumbentCell, StealFail, WorkDeque};

/// Observations per direction before a pseudo-cost estimate is trusted.
const PSEUDOCOST_RELIABILITY: usize = 8;
/// Strong-branching candidates bootstrapped at the root.
const STRONG_BRANCH_TOP_K: usize = 8;

struct Node {
    /// Bound overrides relative to the root bounds.
    overlay: BoundOverlay,
    /// Parent basis, shared copy-on-write with the sibling.
    warm: Option<Arc<BasisSnapshot>>,
    /// Parent LP bound (for cheap pre-pruning).
    parent_bound: f64,
    /// Whether a panicking solve already requeued this node once; a second
    /// panic abandons it instead of looping forever.
    requeued: bool,
    /// The branching that created this node: `(variable, direction,
    /// fractional part at the parent)` — the pseudo-cost engine's
    /// observation context. `None` exactly at the root.
    branched: Option<(VarId, BranchDirection, f64)>,
}

/// Per-worker tallies, merged into [`MipStats`] after the join.
#[derive(Debug, Clone, Default)]
struct WorkerStats {
    nodes: usize,
    lp_iterations: usize,
    pruned_by_bound: usize,
    pruned_infeasible: usize,
    incumbent_updates: usize,
    contention: ContentionProfile,
    simplex: SimplexProfile,
    scale: ScaleProfile,
}

struct Shared<'a> {
    core: &'a CoreLp,
    problem: &'a Problem,
    rule: &'a (dyn BranchingRule + Sync),
    opts: &'a MipOptions,
    /// One work-stealing deque per worker (its internal lock is
    /// `lock-order: 1`; a thief holds at most one deque lock at a time and
    /// never another lock with it).
    deques: Vec<WorkDeque<Node>>,
    /// Open-node accounting and the sleep/wake rendezvous (owns the idle
    /// mutex, `lock-order: 2`, and the `work_available` condvar). The
    /// model scenario `race_models::rendezvous_terminates` checks this
    /// protocol exhaustively.
    rv: Rendezvous,
    /// Seqlock incumbent slot + wait-free objective bound.
    incumbent: IncumbentCell,
    /// This solve's budget: node count (node-limit enforcement), wall-clock
    /// deadline, and LP-iteration cap, shared with every node LP so the
    /// pivot loop honours it mid-solve. Scoped to this solve, so raising
    /// its stop flag never reaches the caller's budget.
    budget: Arc<Budget>,
    // hb: release-store -> acquire-load (cancel) — a worker observing the
    // flag may rely on the flagger's status/error mutex write being
    // visible before it folds bounds and exits; the mutexes would cover
    // it, but the acquire edge keeps the exit path self-contained.
    cancel: AtomicBool,
    /// A node's subtree was abandoned (repeated panic or a crashed
    /// worker), so a final `Optimal` must degrade to `NodeLimit`.
    ///
    /// Pure boolean verdict: stored by workers, read once in the epilogue
    /// *after* every worker returned — the join edge (or, with one worker,
    /// program order) is the synchronisation, so `Relaxed` suffices on both
    /// sides. Pinned by `race_models::proof_incomplete_join_edge`.
    // hb: relaxed-store -> relaxed-load (proof_incomplete) — verdict flag
    // read only after the worker join; the join is the hb edge.
    proof_incomplete: AtomicBool,
    /// Weakest parent bound among nodes that left the search unexplored —
    /// abandoned panic subtrees, in-flight nodes and dive buffers folded
    /// in at a limit abort, and a crashed worker's lost work (folded as
    /// `-∞`). Combined with the deque leftovers in the epilogue so the
    /// reported `best_bound` stays a valid lower bound.
    // lock-order: 3
    open_bound: Mutex<f64>,
    // lock-order: 4
    status: Mutex<MipStatus>,
    // lock-order: 5
    error: Mutex<Option<LpError>>,
    /// Shared node-presolve engine (immutable after build; `None` with the
    /// feature off, so the default path never touches it).
    propagator: Option<Propagator>,
    /// Shared pseudo-cost history; `None` unless pseudo-cost branching is
    /// selected. A leaf lock: taken with no other lock held and released
    /// before any publish or incumbent call, so it cannot participate in a
    /// cycle. Above one worker, observation order varies run to run —
    /// exactly the determinism contract the search already has.
    // lock-order: 6
    pseudo: Option<Mutex<PseudoCost>>,
}

impl Shared<'_> {
    /// Publishes a node to `id`'s own deque and wakes a sleeper if any.
    fn publish(&self, id: usize, node: Node, contention: &mut ContentionProfile) {
        self.deques[id].push(node, &mut contention.lock_waits);
        self.rv.wake_if_sleepers();
    }

    /// Finds work for an empty-handed worker: own deque first (newest —
    /// the deepest sibling, best warm-start locality), then a steal sweep
    /// over the other workers' deques (oldest — their best bound on
    /// offer), then a parked sleep until someone publishes or the search
    /// ends. `None` means the search is over (exhausted or cancelled).
    fn find_work(&self, id: usize, contention: &mut ContentionProfile) -> Option<Node> {
        let w = self.deques.len();
        loop {
            if self.rv.is_done() {
                return None;
            }
            if let Some(n) = self.deques[id].pop(&mut contention.lock_waits) {
                return Some(n);
            }
            let mut saw_busy = false;
            for k in 1..w {
                match self.deques[(id + k) % w].steal() {
                    Ok(n) => {
                        contention.steals += 1;
                        return Some(n);
                    }
                    Err(StealFail::Busy) => {
                        contention.steal_failures += 1;
                        saw_busy = true;
                    }
                    Err(StealFail::Empty) => {}
                }
            }
            if saw_busy {
                // Someone holds a deque lock right now; spin once rather
                // than parking just to be woken immediately.
                tempart_race::hint::spin_loop();
                continue;
            }
            // Genuinely idle: park on the rendezvous until someone
            // publishes or the search ends (the registration/hint
            // handshake lives in [`Rendezvous::park_while`]).
            self.rv
                .park_while(|| self.deques.iter().all(WorkDeque::is_empty_hint));
        }
    }

    /// Folds the bound of a node that leaves the search unexplored.
    fn fold_open_bound(&self, bound: f64) {
        let mut b = lock(&self.open_bound);
        *b = b.min(bound);
    }

    /// Gives a node whose solve panicked back to the scheduler for one
    /// more try (any worker may pick it up).
    fn requeue(&self, id: usize, mut node: Node, contention: &mut ContentionProfile) {
        node.requeued = true;
        self.publish(id, node, contention);
    }

    /// Abandons a node's subtree (second panic): its bound still counts
    /// toward `best_bound` and the final status degrades from `Optimal`.
    fn abandon(&self, node: Node) {
        self.proof_incomplete.store(true, Ordering::Relaxed);
        self.fold_open_bound(node.parent_bound);
        self.rv.node_done();
    }

    /// Cancellation exit: folds the in-flight node and the private dive
    /// buffer into the open bound (keeping `best_bound` valid) and stops
    /// everyone.
    fn abort(&self, inflight: Option<Node>, local: &mut Vec<Node>) {
        {
            let mut b = lock(&self.open_bound);
            for n in inflight.iter().chain(local.iter()) {
                *b = b.min(n.parent_bound);
            }
        }
        local.clear();
        self.rv.finish();
    }

    /// Records a limit termination (first flag wins) and cancels, raising
    /// the solve budget's stop flag so peers mid-LP abandon their solves
    /// too.
    fn flag_limit(&self, s: MipStatus) {
        {
            let mut st = lock(&self.status);
            if *st == MipStatus::Optimal {
                *st = s;
            }
        }
        self.cancel.store(true, Ordering::Release);
        self.budget.request_stop();
    }

    /// Records a hard error (first error wins) and cancels.
    fn flag_error(&self, e: LpError) {
        {
            let mut err = lock(&self.error);
            if err.is_none() {
                *err = Some(e);
            }
        }
        self.cancel.store(true, Ordering::Release);
        self.budget.request_stop();
    }

    /// Last-resort cleanup when a worker dies outside a node solve: its
    /// private dive buffer is lost, so the proven bound collapses to `-∞`
    /// and the final status honestly degrades.
    fn worker_crashed(&self) {
        self.proof_incomplete.store(true, Ordering::Relaxed);
        self.fold_open_bound(f64::NEG_INFINITY);
        self.cancel.store(true, Ordering::Release);
        self.budget.request_stop();
        self.rv.finish();
    }
}

/// Runs the search with `workers ≥ 1` workers under the solve budget
/// `budget` (see [`BranchAndBound::solve`](crate::BranchAndBound::solve)).
pub(crate) fn solve_parallel(
    problem: &Problem,
    opts: &MipOptions,
    rule: &(dyn BranchingRule + Sync),
    workers: usize,
    budget: Arc<Budget>,
) -> Result<MipSolution, LpError> {
    // audit: allow(nondet) — wall-clock start for the reported runtime;
    // branching decisions never read it.
    let start = Instant::now();
    let core = CoreLp::from_problem(problem);

    let seeded = validate_incumbent(problem, opts, core.num_structs);
    let seeded_updates = usize::from(seeded.is_some());
    if let (Some(p), Some((_, obj))) = (opts.progress.as_deref(), &seeded) {
        p.note_incumbent(*obj);
    }

    let mut shared = Shared {
        core: &core,
        problem,
        rule,
        opts,
        deques: (0..workers).map(|_| WorkDeque::new()).collect(),
        rv: Rendezvous::new(1),
        incumbent: IncumbentCell::new(seeded),
        budget,
        cancel: AtomicBool::new(false),
        proof_incomplete: AtomicBool::new(false),
        open_bound: Mutex::new(f64::INFINITY),
        status: Mutex::new(MipStatus::Optimal),
        error: Mutex::new(None),
        propagator: opts
            .propagate
            .then(|| Propagator::build(problem, opts.lp.feas_tol)),
        pseudo: (opts.branching == Branching::Pseudocost)
            .then(|| Mutex::new(PseudoCost::new(problem.num_vars(), PSEUDOCOST_RELIABILITY))),
    };
    // Seed worker 0's deque with the root; a faster peer may steal it.
    shared.deques[0].push(
        Node {
            overlay: BoundOverlay::default(),
            warm: None,
            parent_bound: f64::NEG_INFINITY,
            requeued: false,
            branched: None,
        },
        &mut 0,
    );

    let worker_stats: Vec<WorkerStats> = if workers == 1 {
        // One worker runs on the calling thread: no spawn, no second stack.
        vec![run_worker(0, &shared)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|id| {
                    let shared = &shared;
                    scope.spawn(move || run_worker(id, shared))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_default())
                .collect()
        })
    };

    if let Some(e) = lock(&shared.error).take() {
        return Err(e);
    }
    let mut status = *lock(&shared.status);
    if status == MipStatus::Optimal && shared.proof_incomplete.load(Ordering::Relaxed) {
        // A subtree was abandoned (repeated panic or a crashed worker):
        // the incumbent stands but the optimality proof does not.
        status = MipStatus::NodeLimit;
    }
    let incumbent = shared.incumbent.take();

    let mut stats = MipStats {
        seconds: start.elapsed().as_secs_f64(),
        incumbent_updates: seeded_updates,
        per_worker_nodes: worker_stats.iter().map(|w| w.nodes).collect(),
        engine: opts.lp.engine(core.m),
        ..MipStats::default()
    };
    for w in &worker_stats {
        stats.nodes += w.nodes;
        stats.lp_iterations += w.lp_iterations;
        stats.pruned_by_bound += w.pruned_by_bound;
        stats.pruned_infeasible += w.pruned_infeasible;
        stats.incumbent_updates += w.incumbent_updates;
        stats.contention.absorb(&w.contention);
        stats.simplex.absorb(&w.simplex);
        stats.scale.absorb(&w.scale);
    }
    if let Some(pc) = &shared.pseudo {
        stats.scale.pseudocost_updates = lock(pc).updates();
    }

    let (x, objective, status) = if status == MipStatus::Unbounded {
        // No incumbent can certify anything against an unbounded
        // relaxation; report the truthful status with no solution.
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
    let best_bound = match status {
        MipStatus::Optimal => objective,
        MipStatus::Infeasible => f64::INFINITY,
        MipStatus::Unbounded => f64::NEG_INFINITY,
        _ => shared
            .deques
            .iter()
            .flat_map(WorkDeque::drain)
            .map(|n| n.parent_bound)
            .fold(*lock(&shared.open_bound), f64::min),
    };
    // Fold the exact terminal values into the live-progress board so a
    // poller's last read agrees with the returned solution.
    if let Some(p) = opts.progress.as_deref() {
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

/// Runs worker `id` to completion. Node solves already run under their own
/// `catch_unwind`; this outer net catches everything else so one broken
/// worker degrades the result instead of aborting the process.
fn run_worker(id: usize, shared: &Shared<'_>) -> WorkerStats {
    catch_unwind(AssertUnwindSafe(|| worker_loop(id, shared))).unwrap_or_else(|_| {
        eprintln!("tempart-lp: worker {id} crashed; degrading result");
        shared.worker_crashed();
        WorkerStats::default()
    })
}

fn worker_loop(id: usize, shared: &Shared<'_>) -> WorkerStats {
    let mut ws = WorkerStats::default();
    // Preferred child of the last expansion: the worker dives on it with no
    // synchronization at all, keeping depth-first warm-start locality.
    let mut local: Vec<Node> = Vec::new();
    let mut lower = shared.core.lower.clone();
    let mut upper = shared.core.upper.clone();
    let opts = shared.opts;
    let ns = shared.core.num_structs;

    loop {
        if shared.cancel.load(Ordering::Acquire) {
            shared.abort(None, &mut local);
            break;
        }
        let node = match local.pop() {
            Some(n) => n,
            None => match shared.find_work(id, &mut ws.contention) {
                Some(n) => n,
                None => break,
            },
        };
        // Limit checks against this solve's own node and pivot counts and
        // deadline, plus a stop request from the caller (the global node
        // count is approximate by up to one node per worker). The pivot
        // cap is a deterministic stand-in for a wall-clock limit and is
        // reported the same way.
        if let Some(hit) = shared.budget.exceeded(0) {
            shared.flag_limit(match hit {
                BudgetExceeded::Nodes => MipStatus::NodeLimit,
                BudgetExceeded::Time | BudgetExceeded::LpIterations => MipStatus::TimeLimit,
            });
            shared.abort(Some(node), &mut local);
            break;
        }
        // Pre-prune on the parent bound against the shared incumbent
        // (wait-free read of the seqlock's objective mirror).
        let inc_obj = shared.incumbent.bound();
        if inc_obj.is_finite() && prune_bound(node.parent_bound, inc_obj, opts) {
            ws.pruned_by_bound += 1;
            shared.rv.node_done();
            continue;
        }
        node.overlay.apply(shared.core, &mut lower, &mut upper);
        // Node presolve on the structural slices (shared immutable engine:
        // no lock, no contention).
        if let Some(prop) = &shared.propagator {
            match prop.propagate(&mut lower[..ns], &mut upper[..ns]) {
                Propagation::Infeasible => {
                    ws.scale.propagation_infeasible += 1;
                    ws.pruned_infeasible += 1;
                    shared.rv.node_done();
                    continue;
                }
                Propagation::Fixed(n) => ws.scale.propagation_fixings += n,
            }
        }
        // Warm dual first, cold fallback with the numerical retry ladder,
        // under the search budget, whose deadline the pivot loop checks so
        // one long LP cannot blow through the global limit.
        let mut lp_opts = opts.lp.clone();
        lp_opts.budget = Some(Arc::clone(&shared.budget));
        // Copy-on-write materialization point: the parent snapshot is
        // deep-copied into a working basis only here, and only counted
        // when the sibling still shares it (a uniquely held snapshot is
        // the last user of that basis).
        if let Some(w) = &node.warm {
            if Arc::strong_count(w) > 1 {
                ws.contention.cow_clones += 1;
            }
        }
        // The solve (and the scripted panic site) runs under catch_unwind
        // so a panicking node is contained: requeued once, then abandoned.
        let solved = catch_unwind(AssertUnwindSafe(|| {
            if let Some(plan) = &lp_opts.faults {
                if plan.trip(FaultSite::WorkerPanic) {
                    // audit: allow(no-panic) — deliberate scripted fault: this
                    // is the injection site the catch_unwind isolation exists
                    // to contain; it never fires without a FaultPlan.
                    panic!("injected worker panic (fault plan)");
                }
            }
            let warm = node.warm.as_deref();
            solve_node_resilient(shared.core, &lower, &upper, warm, &lp_opts)
        }));
        let solved = match solved {
            Ok(res) => res,
            Err(_) => {
                if node.requeued {
                    eprintln!(
                        "tempart-lp: worker {id}: node solve panicked again; \
                         abandoning its subtree"
                    );
                    shared.abandon(node);
                } else {
                    eprintln!("tempart-lp: worker {id}: node solve panicked; requeueing once");
                    shared.requeue(id, node, &mut ws.contention);
                }
                continue;
            }
        };
        let outcome = match solved {
            Ok(o) => o,
            Err(LpError::Timeout) => {
                shared.flag_limit(MipStatus::TimeLimit);
                shared.abort(Some(node), &mut local);
                break;
            }
            Err(LpError::IterationLimit) | Err(LpError::SingularBasis) => {
                // Stalled or numerically wedged node LP even after the
                // retry ladder: abandon the proof, keep the incumbent (a
                // limit, not an error).
                shared.flag_limit(MipStatus::NodeLimit);
                shared.abort(Some(node), &mut local);
                break;
            }
            Err(e) => {
                shared.flag_error(e);
                shared.abort(Some(node), &mut local);
                break;
            }
        };
        shared.budget.note_node();
        shared.budget.add_lp_iterations(outcome.iterations);
        ws.nodes += 1;
        ws.lp_iterations += outcome.iterations;
        ws.simplex.absorb(&outcome.profile);
        match outcome.status {
            LpStatus::Infeasible => {
                ws.pruned_infeasible += 1;
                shared.rv.node_done();
                continue;
            }
            LpStatus::Unbounded => {
                // An unbounded relaxation proves the integer model
                // unbounded: a truthful terminal status, not an error.
                shared.flag_limit(MipStatus::Unbounded);
                shared.abort(None, &mut local);
                break;
            }
            LpStatus::Optimal => {
                // The root relaxation objective is a valid global lower
                // bound; publish it for pollers.
                if node.branched.is_none() {
                    if let Some(p) = opts.progress.as_deref() {
                        p.note_bound(outcome.objective);
                    }
                }
            }
        }
        // Pseudo-cost learning: the solved child reports the objective
        // degradation of the branching that created it, and the root
        // bootstraps an empty history with strong-branching probes. The
        // engine lock is a leaf (lock-order: 6): nothing else is acquired
        // under it, and while the root is probed no other node is open.
        if let Some(pc) = &shared.pseudo {
            let mut pc = lock(pc);
            match node.branched {
                Some((v, dir, frac)) if node.parent_bound.is_finite() => {
                    let dist = match dir {
                        BranchDirection::Up => 1.0 - frac,
                        BranchDirection::Down => frac,
                    };
                    pc.observe(v, dir, dist, outcome.objective - node.parent_bound);
                }
                None if !pc.has_data() => {
                    let (solves, iters) = reliability_init(
                        shared.core,
                        shared.problem,
                        &outcome.x[..ns],
                        outcome.objective,
                        &outcome.snapshot,
                        &lower,
                        &upper,
                        &lp_opts,
                        opts.int_tol,
                        STRONG_BRANCH_TOP_K,
                        &mut pc,
                    );
                    ws.scale.strong_branch_solves += solves;
                    ws.lp_iterations += iters;
                    shared.budget.add_lp_iterations(iters);
                }
                _ => {}
            }
        }
        let inc_obj = shared.incumbent.bound();
        if inc_obj.is_finite() && prune_bound(outcome.objective, inc_obj, opts) {
            ws.pruned_by_bound += 1;
            shared.rv.node_done();
            continue;
        }
        let x = &outcome.x[..ns];
        // Pseudo-cost selection once history exists (lock released before
        // any publish); static rule as the cold-start fallback.
        let selected = match &shared.pseudo {
            Some(pc) => {
                let g = lock(pc);
                if g.has_data() {
                    g.select(shared.problem, x, opts.int_tol)
                } else {
                    drop(g);
                    shared.rule.select(shared.problem, x, opts.int_tol)
                }
            }
            None => shared.rule.select(shared.problem, x, opts.int_tol),
        };
        match selected {
            None => {
                debug_assert!(
                    shared.problem.var_ids().all(|v| {
                        shared.problem.var_kind(v) != VarKind::Binary
                            || !is_fractional(x[v.index()], opts.int_tol * 10.0)
                    }),
                    "branching rule returned None on a fractional solution"
                );
                if shared.incumbent.offer(
                    x,
                    outcome.objective,
                    opts.abs_gap,
                    &mut ws.contention.incumbent_retries,
                ) {
                    ws.incumbent_updates += 1;
                    if let Some(p) = opts.progress.as_deref() {
                        p.note_incumbent(outcome.objective);
                    }
                }
                shared.rv.node_done();
            }
            Some((v, dir)) => {
                // One Arc for both children: dispatch shares, the solve
                // clones (copy-on-write).
                let warm = Arc::new(outcome.snapshot);
                let frac = x[v.index()].clamp(0.0, 1.0).fract();
                let fix = |val: f64, child_dir: BranchDirection| -> Node {
                    Node {
                        overlay: node.overlay.child(v, val, val),
                        warm: Some(Arc::clone(&warm)),
                        parent_bound: outcome.objective,
                        requeued: false,
                        branched: Some((v, child_dir, frac)),
                    }
                };
                let (preferred, sibling) = match dir {
                    BranchDirection::Up => (
                        fix(1.0, BranchDirection::Up),
                        fix(0.0, BranchDirection::Down),
                    ),
                    BranchDirection::Down => (
                        fix(0.0, BranchDirection::Down),
                        fix(1.0, BranchDirection::Up),
                    ),
                };
                // Register the children before closing the parent so the
                // outstanding count never dips to zero early.
                shared.rv.open_children(2);
                shared.publish(id, sibling, &mut ws.contention);
                local.push(preferred);
                shared.rv.node_done();
            }
        }
    }
    ws
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::BranchAndBound;
    use crate::faults::FaultPlan;
    use crate::problem::Sense;

    /// 4-item knapsack: optimum -23 at x = [1, 1, 0, 0]; x = [0, 1, 0, 1]
    /// (-21) is a feasible but suboptimal seed.
    fn knapsack() -> Problem {
        let mut p = Problem::new("knap");
        let values = [10.0, 13.0, 7.0, 8.0];
        let weights = [3.0, 4.0, 2.0, 3.0];
        let vars: Vec<_> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| p.add_var(format!("x{i}"), VarKind::Binary, -v).unwrap())
            .collect();
        p.add_constraint(
            "cap",
            vars.iter()
                .zip(weights)
                .map(|(&v, w)| (v, w))
                .collect::<Vec<_>>(),
            Sense::Le,
            7.0,
        )
        .unwrap();
        p
    }

    fn opts(threads: usize, plan: &str) -> MipOptions {
        let mut o = MipOptions {
            threads,
            ..MipOptions::default()
        };
        if !plan.is_empty() {
            o.lp.faults = Some(Arc::new(FaultPlan::parse(plan).unwrap()));
        }
        o
    }

    /// Worker count for the generic scheduler tests; the CI smoke job
    /// overrides it via `TEMPART_TEST_THREADS`.
    fn test_threads() -> usize {
        std::env::var("TEMPART_TEST_THREADS")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&t| t >= 2)
            .unwrap_or(2)
    }

    #[test]
    fn faults_skew_two_workers_return_seed_promptly() {
        // One worker's deadline sample is skewed into expiry mid-LP; the
        // whole 2-worker search must stop as a time limit with the seed.
        let p = knapsack();
        let mut o = opts(2, "skew@1");
        o.initial_incumbent = Some(vec![0.0, 1.0, 0.0, 1.0]);
        let out = BranchAndBound::new(&p).options(o).solve().unwrap();
        assert_eq!(out.status, MipStatus::TimeLimit);
        assert_eq!(out.x, vec![0.0, 1.0, 0.0, 1.0], "seed kept");
        assert!(out.best_bound <= out.objective + 1e-9);
    }

    #[test]
    fn faults_wall_clock_limit_two_workers_keep_seed() {
        // An already-expired wall-clock budget: both workers must exit at
        // their first limit check, reporting the seed, never an error.
        let p = knapsack();
        let mut o = opts(2, "");
        o.time_limit_secs = 1e-9;
        o.initial_incumbent = Some(vec![0.0, 1.0, 0.0, 1.0]);
        let out = BranchAndBound::new(&p).options(o).solve().unwrap();
        assert_eq!(out.status, MipStatus::TimeLimit);
        assert_eq!(out.x, vec![0.0, 1.0, 0.0, 1.0], "seed kept");
    }

    #[test]
    fn faults_panic_requeues_node_and_completes() {
        // The first node solve panics; the node is requeued once and the
        // search still proves the optimum — one worker included.
        let p = knapsack();
        for threads in [1, 2] {
            let out = BranchAndBound::new(&p)
                .options(opts(threads, "panic@1"))
                .solve()
                .unwrap();
            assert_eq!(out.status, MipStatus::Optimal, "threads {threads}");
            assert!((out.objective - (-23.0)).abs() < 1e-6);
        }
    }

    #[test]
    fn faults_double_panic_abandons_root_subtree() {
        // The root solve panics on both tries: its subtree is abandoned,
        // the seed survives, and the proof honestly degrades (the root
        // bound -inf makes the reported gap unbounded).
        let p = knapsack();
        for threads in [1, 2] {
            let mut o = opts(threads, "panic@1,panic@2");
            o.initial_incumbent = Some(vec![0.0, 1.0, 0.0, 1.0]);
            let out = BranchAndBound::new(&p).options(o).solve().unwrap();
            assert_eq!(out.status, MipStatus::NodeLimit, "threads {threads}");
            assert_eq!(out.x, vec![0.0, 1.0, 0.0, 1.0], "seed kept");
            assert_eq!(out.best_bound, f64::NEG_INFINITY);
        }
    }

    #[test]
    fn single_node_search_stays_off_the_locks() {
        // The root LP is already integral, so exactly one node is solved:
        // the busy worker must never block on a lock and nothing is
        // copy-on-write cloned. (The root itself may be stolen by the
        // other worker — at most one steal.)
        let mut p = Problem::new("one");
        let x = p.add_var("x", VarKind::Binary, -1.0).unwrap();
        p.add_constraint("c", [(x, 1.0)], Sense::Le, 1.0).unwrap();
        let out = BranchAndBound::new(&p)
            .options(opts(2, ""))
            .solve()
            .unwrap();
        assert_eq!(out.status, MipStatus::Optimal);
        assert!((out.objective - (-1.0)).abs() < 1e-9);
        let c = &out.stats.contention;
        assert!(c.steals <= 1, "only the root can move: {c:?}");
        assert_eq!(c.lock_waits, 0, "owner path must not block: {c:?}");
        assert_eq!(c.cow_clones, 0, "no branch, no snapshot sharing: {c:?}");
        assert_eq!(c.incumbent_retries, 0, "single writer never retries");
    }

    #[test]
    fn per_worker_tallies_are_reported() {
        let p = knapsack();
        let t = test_threads();
        let out = BranchAndBound::new(&p)
            .options(opts(t, ""))
            .solve()
            .unwrap();
        assert_eq!(out.status, MipStatus::Optimal);
        assert!((out.objective - (-23.0)).abs() < 1e-6);
        assert_eq!(out.stats.per_worker_nodes.len(), t);
        assert_eq!(
            out.stats.per_worker_nodes.iter().sum::<usize>(),
            out.stats.nodes
        );
    }

    #[test]
    fn random_mips_prove_serial_objective_at_any_thread_count() {
        // Pseudo-random 0-1 MIPs: every thread count must prove the same
        // objective (or the same infeasibility) as one worker.
        let mut seed = 0x5eed5eedu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            ((seed >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        for trial in 0..8 {
            let n = 5 + trial % 3;
            let mut p = Problem::new("rnd");
            let vars: Vec<_> = (0..n)
                .map(|i| {
                    p.add_var(format!("x{i}"), VarKind::Binary, next() * 5.0)
                        .unwrap()
                })
                .collect();
            for r in 0..3 {
                let coeffs: Vec<_> = vars.iter().map(|&v| (v, next() * 3.0)).collect();
                let sense = if r % 2 == 0 { Sense::Le } else { Sense::Ge };
                let rhs = next() * 2.0 + if sense == Sense::Le { 1.5 } else { -1.5 };
                p.add_constraint(format!("r{r}"), coeffs, sense, rhs)
                    .unwrap();
            }
            let serial = BranchAndBound::new(&p).solve().unwrap();
            for t in [test_threads(), test_threads() + 1] {
                let par = BranchAndBound::new(&p)
                    .options(opts(t, ""))
                    .solve()
                    .unwrap();
                assert_eq!(par.status, serial.status, "trial {trial} x{t}");
                if serial.status == MipStatus::Optimal {
                    assert!(
                        (par.objective - serial.objective).abs() < 1e-6,
                        "trial {trial} x{t}: {} vs {}",
                        par.objective,
                        serial.objective
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_node_counts_stay_bounded_on_knapsack() {
        // The prompt seqlock incumbent keeps speculative exploration in
        // check: the parallel tree may not dwarf the one-worker tree.
        let p = knapsack();
        let serial = BranchAndBound::new(&p).solve().unwrap();
        for t in [2, 4] {
            let par = BranchAndBound::new(&p)
                .options(opts(t, ""))
                .solve()
                .unwrap();
            assert_eq!(par.status, MipStatus::Optimal);
            assert!(
                par.stats.nodes <= serial.stats.nodes * 3 + t,
                "x{t}: {} nodes vs serial {}",
                par.stats.nodes,
                serial.stats.nodes
            );
        }
    }
}
