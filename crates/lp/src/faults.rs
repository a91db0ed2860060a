//! Deterministic fault injection and shared solve budgets.
//!
//! The resilience layer has two moving parts, both defined here:
//!
//! * [`Budget`] — one shared wall-clock / node / LP-iteration budget for a
//!   whole branch-and-bound solve, checked between nodes by the search
//!   driver and *inside* the simplex pivot loop (piggybacking on the
//!   existing every-32-iterations deadline sample, so a solve without a
//!   budget attached pivots exactly as before). A worker that detects a
//!   limit raises the solve budget's stop flag, which cancels sibling
//!   workers mid-LP instead of letting them finish their node first.
//! * [`FaultPlan`] — a scripted, deterministic fault injector. It is
//!   compiled unconditionally but completely inert unless
//!   [`LpOptions::faults`](crate::LpOptions) is set, so ordinary
//!   `cargo test` exercises every recovery path with golden, reproducible
//!   outcomes.
//!
//! ## Fault-plan grammar
//!
//! A plan is a comma-separated list of `site@occurrence` terms:
//!
//! ```text
//! singular@2,itercap@1,panic@1,skew@3
//! ```
//!
//! Solver sites: `singular` (a basis refactorization reports
//! [`LpError::SingularBasis`](crate::LpError)), `itercap` (an LP solve
//! attempt reports [`LpError::IterationLimit`](crate::LpError) on entry),
//! `panic` (a search worker panics right before solving a node), `skew`
//! (a pivot-loop deadline sample behaves as if the wall clock jumped past
//! the deadline). Service sites, consulted only by `tempart-server`:
//! `slowclient` (the event writer stalls), `tornframe` (a frame truncates
//! mid-payload), `disconnect` (the client connection drops mid-job),
//! `cachepoison` (a warm-start cache entry is corrupted at store time).
//! Occurrences are 1-based and counted per site across the
//! whole solve: `singular@2` trips the second refactorization and no
//! other. The same site may appear multiple times (`panic@1,panic@2`).

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tempart_race::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// An injection site recognised by [`FaultPlan`].
///
/// The first four sites live inside the solver; the service-level sites
/// (`SlowClient` and later) are consulted by `tempart-server`'s connection
/// and cache layers — the solver itself never trips them, so a plan that
/// scripts only service sites leaves every solve untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Basis refactorization reports a singular basis.
    SingularBasis,
    /// An LP solve attempt reports an iteration limit on entry.
    IterationCap,
    /// A search worker panics before solving a node (at any thread count).
    /// `tempart-server` consults the same site before a pool worker starts
    /// a job, exercising its requeue-once recovery.
    WorkerPanic,
    /// A deadline sample in the pivot loop reports expiry regardless of
    /// the actual clock — a deterministic stand-in for clock skew or a
    /// suspended machine.
    ClockSkew,
    /// Service: the connection's event writer stalls before a frame write —
    /// a deterministic stand-in for a client draining its socket slowly.
    SlowClient,
    /// Service: a frame arrives truncated mid-payload (the read path must
    /// report a truthful protocol error, never block or panic).
    TornFrame,
    /// Service: the client connection drops while its job is still running
    /// (the job must still reach exactly one terminal status).
    Disconnect,
    /// Service: a warm-start cache entry is corrupted at store time
    /// (validation-on-hit must degrade to a cold solve, never a wrong
    /// answer).
    CachePoison,
}

const NUM_SITES: usize = 8;

const ALL_SITES: [FaultSite; NUM_SITES] = [
    FaultSite::SingularBasis,
    FaultSite::IterationCap,
    FaultSite::WorkerPanic,
    FaultSite::ClockSkew,
    FaultSite::SlowClient,
    FaultSite::TornFrame,
    FaultSite::Disconnect,
    FaultSite::CachePoison,
];

impl FaultSite {
    fn index(self) -> usize {
        match self {
            FaultSite::SingularBasis => 0,
            FaultSite::IterationCap => 1,
            FaultSite::WorkerPanic => 2,
            FaultSite::ClockSkew => 3,
            FaultSite::SlowClient => 4,
            FaultSite::TornFrame => 5,
            FaultSite::Disconnect => 6,
            FaultSite::CachePoison => 7,
        }
    }

    /// Stable lower-case name used by the plan grammar.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultSite::SingularBasis => "singular",
            FaultSite::IterationCap => "itercap",
            FaultSite::WorkerPanic => "panic",
            FaultSite::ClockSkew => "skew",
            FaultSite::SlowClient => "slowclient",
            FaultSite::TornFrame => "tornframe",
            FaultSite::Disconnect => "disconnect",
            FaultSite::CachePoison => "cachepoison",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "singular" => Some(FaultSite::SingularBasis),
            "itercap" => Some(FaultSite::IterationCap),
            "panic" => Some(FaultSite::WorkerPanic),
            "skew" => Some(FaultSite::ClockSkew),
            "slowclient" => Some(FaultSite::SlowClient),
            "tornframe" => Some(FaultSite::TornFrame),
            "disconnect" => Some(FaultSite::Disconnect),
            "cachepoison" => Some(FaultSite::CachePoison),
            _ => None,
        }
    }
}

/// A scripted fault plan: which occurrence of each site should fail.
///
/// Occurrence counters are interior-mutable so one plan can be shared via
/// `Arc` by every worker of a parallel solve; counting is atomic, and with
/// a deterministic solver (a one-worker search, or scripted per-worker sites)
/// the tripped occurrences are fully reproducible.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Per-site sorted list of 1-based occurrence numbers to trip.
    triggers: [Vec<usize>; NUM_SITES],
    /// Per-site count of occurrences seen so far.
    // hb: relaxed-rmw (counters) — independent per-site tallies; each trip
    // cares only about its own atomically-returned occurrence number.
    // hb: relaxed-load (counters) — monotone count, no payload published.
    counters: [AtomicUsize; NUM_SITES],
}

impl FaultPlan {
    /// A plan tripping a single occurrence of one site.
    pub fn single(site: FaultSite, occurrence: usize) -> FaultPlan {
        let mut plan = FaultPlan::default();
        plan.triggers[site.index()].push(occurrence);
        plan
    }

    /// Parses the `site@occurrence[,site@occurrence...]` grammar.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for an unknown site name, a
    /// malformed term, or a zero occurrence (occurrences are 1-based).
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for term in s.split(',') {
            let term = term.trim();
            if term.is_empty() {
                continue;
            }
            let (name, occ) = term
                .split_once('@')
                .ok_or_else(|| format!("fault term `{term}` is not `site@occurrence`"))?;
            let site = FaultSite::parse(name.trim()).ok_or_else(|| {
                format!(
                    "unknown fault site `{name}` (expected singular|itercap|panic|skew|\
                     slowclient|tornframe|disconnect|cachepoison)"
                )
            })?;
            let occ: usize = occ
                .trim()
                .parse()
                .map_err(|_| format!("fault occurrence `{occ}` is not a positive integer"))?;
            if occ == 0 {
                return Err(format!("fault term `{term}`: occurrences are 1-based"));
            }
            plan.triggers[site.index()].push(occ);
        }
        for list in &mut plan.triggers {
            list.sort_unstable();
            list.dedup();
        }
        Ok(plan)
    }

    /// Records one occurrence of `site` and reports whether the plan
    /// scripts a fault for it. Every call counts (even with no triggers
    /// for the site) so occurrence numbers stay stable across plans.
    pub fn trip(&self, site: FaultSite) -> bool {
        let i = site.index();
        let occurrence = self.counters[i].fetch_add(1, Ordering::Relaxed) + 1;
        self.triggers[i].binary_search(&occurrence).is_ok()
    }

    /// How many occurrences of `site` have been seen so far.
    pub fn occurrences(&self, site: FaultSite) -> usize {
        self.counters[site.index()].load(Ordering::Relaxed)
    }

    /// Whether the plan scripts at least one fault anywhere.
    pub fn is_empty(&self) -> bool {
        self.triggers.iter().all(Vec::is_empty)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for site in ALL_SITES {
            for occ in &self.triggers[site.index()] {
                if !first {
                    f.write_str(",")?;
                }
                write!(f, "{}@{}", site.as_str(), occ)?;
                first = false;
            }
        }
        Ok(())
    }
}

/// Why a [`Budget`] wants the solve to stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetExceeded {
    /// The wall-clock deadline passed (or a worker raised the stop flag).
    Time,
    /// The node budget is spent.
    Nodes,
    /// The LP-iteration budget is spent.
    LpIterations,
}

/// One shared wall-clock / node / LP-iteration budget for a whole
/// branch-and-bound solve.
///
/// The search driver checks it at every node, and the simplex pivot loop
/// checks [`Budget::should_stop`] at its periodic deadline sample, so an
/// expired budget interrupts even a single long-running LP. Expiry is
/// never an error: the driver translates it into
/// [`MipStatus::TimeLimit`](crate::MipStatus) /
/// [`MipStatus::NodeLimit`](crate::MipStatus) with the best incumbent and
/// proven bound found so far.
///
/// A caller that spans several solves with one budget (a latency sweep, a
/// server job) attaches it through
/// [`LpOptions::budget`](crate::LpOptions::budget); each solve then runs
/// under a [`Budget::scoped`] child that carries that solve's own limits,
/// so a limit one solve hits never stops the next.
#[derive(Debug)]
pub struct Budget {
    deadline: Option<Instant>,
    max_nodes: usize,
    max_lp_iterations: usize,
    // hb: relaxed-rmw -> relaxed-load (nodes) — monotone work tally; limit
    // checks tolerate staleness by up to one node per worker (documented in
    // the search driver) and publish nothing through it.
    nodes: AtomicUsize,
    // hb: relaxed-rmw -> relaxed-load (lp_iterations) — same monotone-tally
    // contract as `nodes`, sampled inside the pivot loop.
    lp_iterations: AtomicUsize,
    // hb: relaxed-store -> relaxed-load (stop) — pure latch: observers act
    // on the flag itself (stop searching) and consume no data published
    // before it; terminal state is read after thread joins.
    stop: AtomicBool,
    /// The caller's budget this one runs under: its stop flag, deadline and
    /// pivot cap stop this budget too, and every node and pivot counted here
    /// is counted there as well. Stopping this budget leaves it untouched.
    parent: Option<Arc<Budget>>,
}

impl Budget {
    /// Starts a budget now. `time_limit_secs` may be infinite and the
    /// counts `usize::MAX` to disable the respective dimension.
    pub fn new(time_limit_secs: f64, max_nodes: usize, max_lp_iterations: usize) -> Budget {
        Budget::scoped(None, time_limit_secs, max_nodes, max_lp_iterations)
    }

    /// Starts a budget now with its own limits and stop flag under an
    /// optional `parent` (see the `parent` field): the parent's stop
    /// request, deadline and pivot cap reach this budget, this budget's
    /// limits and [`Budget::request_stop`] never reach the parent. The
    /// parent's node cap is its owner's to enforce.
    pub fn scoped(
        parent: Option<Arc<Budget>>,
        time_limit_secs: f64,
        max_nodes: usize,
        max_lp_iterations: usize,
    ) -> Budget {
        let deadline = if time_limit_secs.is_finite() {
            Some(Instant::now() + Duration::from_secs_f64(time_limit_secs.max(0.0)))
        } else {
            None
        };
        Budget {
            deadline,
            max_nodes,
            max_lp_iterations,
            nodes: AtomicUsize::new(0),
            lp_iterations: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            parent,
        }
    }

    /// A budget with every dimension disabled.
    pub fn unlimited() -> Budget {
        Budget::new(f64::INFINITY, usize::MAX, usize::MAX)
    }

    /// The node cap.
    pub fn max_nodes(&self) -> usize {
        self.max_nodes
    }

    /// Counts one explored node (here and in the parent); returns this
    /// budget's new total.
    pub fn note_node(&self) -> usize {
        if let Some(p) = &self.parent {
            p.note_node();
        }
        self.nodes.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Nodes counted by this budget so far.
    pub fn nodes(&self) -> usize {
        self.nodes.load(Ordering::Relaxed)
    }

    /// Adds finished LP pivots (here and in the parent); returns this
    /// budget's new total.
    pub fn add_lp_iterations(&self, n: usize) -> usize {
        if let Some(p) = &self.parent {
            p.add_lp_iterations(n);
        }
        self.lp_iterations.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Seconds until the earlier of this budget's and the parent's
    /// deadlines (`f64::INFINITY` when neither has one, clamped at zero
    /// once passed).
    pub fn remaining_secs(&self) -> f64 {
        let own = match self.deadline {
            Some(d) => d
                .checked_duration_since(Instant::now())
                .map_or(0.0, |r| r.as_secs_f64()),
            None => f64::INFINITY,
        };
        self.parent
            .as_ref()
            .map_or(own, |p| own.min(p.remaining_secs()))
    }

    /// Which dimension (if any) is exhausted, counting `extra_lp` pivots
    /// still in flight inside the current LP: this budget's node cap, then
    /// the stop flags, pivot caps and deadlines of this budget and its
    /// parent. Checks the cheap flags and counters before sampling the
    /// clock.
    pub fn exceeded(&self, extra_lp: usize) -> Option<BudgetExceeded> {
        if self.nodes.load(Ordering::Relaxed) >= self.max_nodes {
            return Some(BudgetExceeded::Nodes);
        }
        if self.stop_requested() {
            return Some(BudgetExceeded::Time);
        }
        if self.lp_spent(extra_lp) {
            return Some(BudgetExceeded::LpIterations);
        }
        self.past_deadline().then_some(BudgetExceeded::Time)
    }

    /// Pivot-loop check: should the current LP abandon its solve?
    ///
    /// Checks the stop flags, the LP-iteration budgets (counting the
    /// in-flight pivots) and the deadlines — but *not* the node cap, which
    /// the driver enforces between nodes: a peer pushing the node count
    /// past the cap mid-LP must not make this solve report a timeout
    /// (the first worker to see the cap raises the stop flag instead).
    pub fn should_stop(&self, in_flight_lp: usize) -> bool {
        self.stop_requested() || self.lp_spent(in_flight_lp) || self.past_deadline()
    }

    /// Whether this budget's or the parent's pivot cap is reached with
    /// `extra_lp` pivots still in flight.
    fn lp_spent(&self, extra_lp: usize) -> bool {
        self.lp_iterations
            .load(Ordering::Relaxed)
            .saturating_add(extra_lp)
            >= self.max_lp_iterations
            || self.parent.as_ref().is_some_and(|p| p.lp_spent(extra_lp))
    }

    /// Whether this budget's or the parent's deadline has passed.
    fn past_deadline(&self) -> bool {
        matches!(self.deadline, Some(d) if Instant::now() > d)
            || self.parent.as_ref().is_some_and(|p| p.past_deadline())
    }

    /// Raises this budget's stop flag so every worker's next budget check
    /// fails — the cross-worker cancellation path. The parent's flag is
    /// left alone.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Whether [`Budget::request_stop`] was called on this budget or on
    /// its parent.
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
            || self.parent.as_ref().is_some_and(|p| p.stop_requested())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Sense, VarKind};
    use crate::{BranchAndBound, MipOptions, MipStatus, Problem};
    use std::sync::Arc;

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

    fn opts_with_plan(plan: &str) -> MipOptions {
        let mut opts = MipOptions::default();
        opts.lp.faults = Some(Arc::new(FaultPlan::parse(plan).unwrap()));
        opts
    }

    #[test]
    fn faults_singular_injection_recovers_to_optimum() {
        // The first refactorization reports a singular basis; the retry
        // ladder must absorb it and still prove the golden optimum.
        let p = knapsack();
        let out = BranchAndBound::new(&p)
            .options(opts_with_plan("singular@1"))
            .solve()
            .unwrap();
        assert_eq!(out.status, MipStatus::Optimal);
        assert!((out.objective - (-23.0)).abs() < 1e-6);
        assert!(out.stats.simplex.retries >= 1, "ladder rung not counted");
    }

    #[test]
    fn faults_itercap_injection_recovers_to_optimum() {
        // The first LP attempt dies with an iteration limit; same contract.
        let p = knapsack();
        let out = BranchAndBound::new(&p)
            .options(opts_with_plan("itercap@1"))
            .solve()
            .unwrap();
        assert_eq!(out.status, MipStatus::Optimal);
        assert!((out.objective - (-23.0)).abs() < 1e-6);
        assert!(out.stats.simplex.retries >= 1, "ladder rung not counted");
    }

    #[test]
    fn faults_skew_stops_serial_search_with_seed() {
        // A scripted deadline-sample expiry (clock skew) must terminate
        // the serial search as a time limit, keeping the seeded incumbent.
        let p = knapsack();
        let mut opts = opts_with_plan("skew@1");
        opts.initial_incumbent = Some(vec![0.0, 1.0, 0.0, 1.0]);
        let out = BranchAndBound::new(&p).options(opts).solve().unwrap();
        assert_eq!(out.status, MipStatus::TimeLimit);
        assert!((out.objective - (-21.0)).abs() < 1e-6, "seed kept");
        assert!(out.best_bound <= out.objective + 1e-9);
    }

    #[test]
    fn faults_exhausted_ladder_degrades_to_limit_not_error() {
        // Every rung of the 5-rung retry ladder fails: the solve must come
        // back as a limit status with the seeded incumbent, never an `Err`.
        let p = knapsack();
        let mut opts = opts_with_plan("singular@1,singular@2,singular@3,singular@4,singular@5");
        opts.initial_incumbent = Some(vec![0.0, 1.0, 0.0, 1.0]);
        let out = BranchAndBound::new(&p).options(opts).solve().unwrap();
        assert_eq!(out.status, MipStatus::NodeLimit);
        assert!((out.objective - (-21.0)).abs() < 1e-6, "seed kept");
    }

    #[test]
    fn faults_plan_grammar_roundtrip() {
        let plan = FaultPlan::parse("singular@2, itercap@1,panic@1,skew@3,panic@4").unwrap();
        assert_eq!(
            plan.to_string(),
            "singular@2,itercap@1,panic@1,panic@4,skew@3"
        );
        let again = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(again.to_string(), plan.to_string());
        assert!(!plan.is_empty());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn faults_plan_rejects_bad_terms() {
        assert!(FaultPlan::parse("singular").is_err());
        assert!(FaultPlan::parse("meteor@1").is_err());
        assert!(FaultPlan::parse("singular@zero").is_err());
        assert!(FaultPlan::parse("singular@0").is_err());
    }

    #[test]
    fn faults_trip_counts_occurrences_per_site() {
        let plan = FaultPlan::parse("singular@2,skew@1").unwrap();
        assert!(!plan.trip(FaultSite::SingularBasis)); // occurrence 1
        assert!(plan.trip(FaultSite::SingularBasis)); // occurrence 2: scripted
        assert!(!plan.trip(FaultSite::SingularBasis)); // occurrence 3
        assert!(plan.trip(FaultSite::ClockSkew));
        assert!(!plan.trip(FaultSite::IterationCap));
        assert_eq!(plan.occurrences(FaultSite::SingularBasis), 3);
    }

    #[test]
    fn faults_budget_counts_and_stops() {
        let b = Budget::new(f64::INFINITY, 10, 100);
        assert_eq!(b.exceeded(0), None);
        assert_eq!(b.note_node(), 1);
        assert_eq!(b.add_lp_iterations(40), 40);
        assert_eq!(b.exceeded(0), None);
        assert_eq!(b.exceeded(60), Some(BudgetExceeded::LpIterations));
        assert!(b.should_stop(60));
        b.add_lp_iterations(60);
        assert_eq!(b.exceeded(0), Some(BudgetExceeded::LpIterations));
        assert!(b.should_stop(0));
    }

    #[test]
    fn faults_budget_stop_flag_and_deadline() {
        let b = Budget::unlimited();
        assert_eq!(b.remaining_secs(), f64::INFINITY);
        assert!(!b.should_stop(0));
        b.request_stop();
        assert!(b.stop_requested());
        assert_eq!(b.exceeded(0), Some(BudgetExceeded::Time));

        let expired = Budget::new(0.0, usize::MAX, usize::MAX);
        assert_eq!(expired.exceeded(0), Some(BudgetExceeded::Time));
        assert_eq!(expired.remaining_secs(), 0.0);
    }

    #[test]
    fn faults_service_sites_roundtrip_and_stay_inert_in_solver() {
        // The service-level sites parse, print, and count like any other —
        // but nothing in the solver stack consults them, so a plan
        // scripting only service faults changes nothing about a solve.
        let plan = FaultPlan::parse("slowclient@1,tornframe@2,disconnect@1,cachepoison@3").unwrap();
        assert_eq!(
            plan.to_string(),
            "slowclient@1,tornframe@2,disconnect@1,cachepoison@3"
        );
        assert!(plan.trip(FaultSite::SlowClient));
        assert!(!plan.trip(FaultSite::TornFrame)); // occurrence 1
        assert!(plan.trip(FaultSite::TornFrame)); // occurrence 2: scripted
        assert!(plan.trip(FaultSite::Disconnect));
        assert!(!plan.trip(FaultSite::CachePoison));

        let p = knapsack();
        let mut opts = MipOptions::default();
        opts.lp.faults = Some(Arc::new(
            FaultPlan::parse("slowclient@1,tornframe@1,disconnect@1,cachepoison@1").unwrap(),
        ));
        let out = BranchAndBound::new(&p).options(opts).solve().unwrap();
        assert_eq!(out.status, MipStatus::Optimal);
        assert!((out.objective - (-23.0)).abs() < 1e-6);
    }

    #[test]
    fn faults_scoped_budget_reads_the_parent_but_never_stops_it() {
        let outer = Arc::new(Budget::new(f64::INFINITY, 1, 100));
        let inner = Budget::scoped(Some(Arc::clone(&outer)), f64::INFINITY, 7, usize::MAX);
        // Tallies reach the parent; the parent's node cap is not the
        // child's.
        inner.note_node();
        inner.add_lp_iterations(40);
        assert_eq!((outer.nodes(), inner.nodes()), (1, 1));
        assert_eq!(outer.exceeded(0), Some(BudgetExceeded::Nodes));
        assert_eq!(inner.exceeded(0), None);
        assert_eq!(inner.max_nodes(), 7);
        // The parent's pivot cap does reach the child.
        assert_eq!(inner.exceeded(60), Some(BudgetExceeded::LpIterations));
        // A child stop ends the child only.
        inner.request_stop();
        assert!(inner.stop_requested());
        assert!(!outer.stop_requested(), "the caller's budget never latches");
        // A parent stop reaches every child.
        let sibling = Budget::scoped(Some(Arc::clone(&outer)), f64::INFINITY, 7, usize::MAX);
        assert!(!sibling.should_stop(0));
        outer.request_stop();
        assert!(sibling.stop_requested());
        assert_eq!(sibling.exceeded(0), Some(BudgetExceeded::Time));
        // So does a passed parent deadline.
        let expired = Arc::new(Budget::new(0.0, usize::MAX, usize::MAX));
        let child = Budget::scoped(Some(expired), f64::INFINITY, usize::MAX, usize::MAX);
        assert!(child.should_stop(0));
        assert_eq!(child.remaining_secs(), 0.0);
    }

    #[test]
    fn faults_budget_node_cap() {
        let b = Budget::new(f64::INFINITY, 2, usize::MAX);
        b.note_node();
        assert_eq!(b.exceeded(0), None);
        b.note_node();
        assert_eq!(b.exceeded(0), Some(BudgetExceeded::Nodes));
        // The node cap never cancels an LP mid-solve; the driver enforces it
        // between nodes.
        assert!(!b.should_stop(0));
        assert_eq!(b.nodes(), 2);
        assert_eq!(b.max_nodes(), 2);
    }
}
