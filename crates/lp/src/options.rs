//! Solver options.

use std::sync::Arc;

use crate::faults::{Budget, FaultPlan};
use crate::progress::Progress;

/// Entering-variable pricing strategy for the simplex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pricing {
    /// Classic Dantzig pricing (most-violated reduced cost), recomputing
    /// reduced costs from scratch each iteration. This is the *legacy
    /// engine*: its pivot sequence is pinned by golden node-count tests, so
    /// it is the default and the reference for reproducibility. Its kernels
    /// switch to hypersparse (pattern-tracked) solves while their vectors
    /// are sparse, with the dense loops' arithmetic, so the pivots do not
    /// depend on which kernel ran (DESIGN.md §5b).
    #[default]
    Dantzig,
    /// Devex pricing (Forrest–Goldfarb reference-framework weights) with
    /// incrementally maintained reduced costs and the bound-flipping dual
    /// ratio test. The fast engine; proves the same optima as Dantzig but
    /// with its own pivot sequence.
    Devex,
    /// Bland's smallest-index rule on the incremental engine. Slow but
    /// cycling-proof; mainly a debugging fallback.
    Bland,
}

impl Pricing {
    /// Stable lower-case name (CLI flag values, JSON reports).
    pub fn as_str(self) -> &'static str {
        match self {
            Pricing::Dantzig => "dantzig",
            Pricing::Devex => "devex",
            Pricing::Bland => "bland",
        }
    }

    /// Parses a CLI-style name.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "dantzig" => Some(Pricing::Dantzig),
            "devex" => Some(Pricing::Devex),
            "bland" => Some(Pricing::Bland),
            _ => None,
        }
    }
}

impl std::fmt::Display for Pricing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Basis-maintenance strategy between refactorizations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BasisUpdate {
    /// Product-form eta file: every pivot appends an eta matrix that FTRAN/
    /// BTRAN apply on top of the last LU factorization. This is the *legacy
    /// engine* — its arithmetic is part of the pinned golden pivot
    /// sequence, so it is the default.
    #[default]
    Eta,
    /// Forrest–Tomlin updates applied directly to the `U` factor: each pivot
    /// replaces a `U` column with the spike and eliminates the spiked row
    /// into a short row eta, so solve cost tracks the (slowly growing) `U`
    /// fill instead of the eta-file length. Same optima, different float
    /// rounding, hence opt-in.
    Ft,
    /// Forrest–Tomlin updates over a Markowitz-ordered refactorization
    /// (pivots chosen by fill-in × stability instead of pure partial
    /// pivoting), minimizing the `U` fill the updates have to drag along.
    FtMarkowitz,
}

impl BasisUpdate {
    /// Stable lower-case name (CLI flag values, JSON reports).
    pub fn as_str(self) -> &'static str {
        match self {
            BasisUpdate::Eta => "eta",
            BasisUpdate::Ft => "ft",
            BasisUpdate::FtMarkowitz => "ft-markowitz",
        }
    }

    /// Parses a CLI-style name.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "eta" => Some(BasisUpdate::Eta),
            "ft" => Some(BasisUpdate::Ft),
            "ft-markowitz" => Some(BasisUpdate::FtMarkowitz),
            _ => None,
        }
    }
}

impl std::fmt::Display for BasisUpdate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// When to refactorize the basis from scratch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefactorSchedule {
    /// Refactorize after exactly [`LpOptions::refactor_every`] updates —
    /// the legacy fixed schedule. Its refactorization points are part of
    /// the pinned golden arithmetic, so it is the default.
    #[default]
    Fixed,
    /// Refactorize when the measured update fill-in has grown past a
    /// multiple of the factored nonzeros, when an update reports a
    /// stability concern, or at a hard update cap — whichever comes first.
    /// Cheap bases run much longer between refactorizations; ill-behaved
    /// ones refactorize sooner than the fixed schedule would.
    Dynamic,
}

impl RefactorSchedule {
    /// Stable lower-case name (CLI flag values, JSON reports).
    pub fn as_str(self) -> &'static str {
        match self {
            RefactorSchedule::Fixed => "fixed",
            RefactorSchedule::Dynamic => "dynamic",
        }
    }

    /// Parses a CLI-style name.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "fixed" => Some(RefactorSchedule::Fixed),
            "dynamic" => Some(RefactorSchedule::Dynamic),
            _ => None,
        }
    }
}

impl std::fmt::Display for RefactorSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Branching-variable selection strategy for branch and bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Branching {
    /// The caller-supplied static rule (the paper's §8 guided rule, the
    /// unguided first-index rule, or most-fractional diving). This is the
    /// pinned legacy path: its node sequence is golden-tested, so it is the
    /// default.
    #[default]
    Rule,
    /// Pseudo-cost branching with reliability initialization: per-variable
    /// up/down objective-degradation estimates learned from the search,
    /// bootstrapped by strong-branching probes at the root until a variable
    /// has enough observations to be trusted. Falls back to the static rule
    /// while no history exists. See `crates/lp/src/pseudocost.rs`.
    Pseudocost,
}

impl Branching {
    /// Stable lower-case name (CLI flag values, JSON reports).
    pub fn as_str(self) -> &'static str {
        match self {
            Branching::Rule => "rule",
            Branching::Pseudocost => "pseudocost",
        }
    }

    /// Parses a CLI-style name.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "rule" => Some(Branching::Rule),
            "pseudocost" => Some(Branching::Pseudocost),
            _ => None,
        }
    }
}

impl std::fmt::Display for Branching {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Options for a single LP solve.
#[derive(Debug, Clone)]
pub struct LpOptions {
    /// Primal feasibility tolerance.
    pub feas_tol: f64,
    /// Dual (reduced-cost / optimality) tolerance.
    pub opt_tol: f64,
    /// Minimum acceptable pivot magnitude.
    pub pivot_tol: f64,
    /// Hard iteration cap across both phases.
    pub max_iterations: usize,
    /// Refactorize the basis after this many eta updates (the
    /// [`RefactorSchedule::Fixed`] interval; the dynamic schedule uses it
    /// only as a scale for its hard cap).
    pub refactor_every: usize,
    /// Basis-maintenance strategy between refactorizations (see
    /// [`BasisUpdate`]). The default eta file is the pinned legacy engine.
    pub basis_update: BasisUpdate,
    /// Refactorization schedule (see [`RefactorSchedule`]). The default
    /// fixed interval is part of the pinned legacy arithmetic.
    pub refactor: RefactorSchedule,
    /// Wall-clock limit in seconds for one solve (`f64::INFINITY` to
    /// disable); exceeding it raises [`LpError::Timeout`](crate::LpError).
    pub time_limit_secs: f64,
    /// Iteration cap for a *warm-started dual* solve; a degenerate dual that
    /// exceeds it is abandoned in favour of a cold primal solve.
    pub dual_iteration_cap: usize,
    /// Entering-variable pricing strategy (see [`Pricing`]).
    pub pricing: Pricing,
    /// Collect per-phase wall-clock timers (pricing/ftran/btran/ratio-test/
    /// refactor) into the [`SimplexProfile`](crate::SimplexProfile). Counters
    /// (iterations, bound flips, devex resets, refactorizations) are always
    /// collected; the timers cost a few `Instant::now` calls per iteration,
    /// so they are opt-in.
    pub profile: bool,
    /// Scripted fault-injection plan (see [`FaultPlan`]). `None` — the
    /// default — leaves every injection site inert; tests set it to
    /// exercise the recovery paths deterministically.
    pub faults: Option<Arc<FaultPlan>>,
    /// Shared solve budget (see [`Budget`]). Branch and bound attaches one
    /// so the pivot loop honours the whole-solve deadline, node cap, and
    /// LP-iteration cap mid-LP; `None` (the default for standalone LP
    /// solves) checks only [`LpOptions::time_limit_secs`].
    pub budget: Option<Arc<Budget>>,
}

impl Default for LpOptions {
    fn default() -> Self {
        Self {
            feas_tol: 1e-7,
            opt_tol: 1e-7,
            pivot_tol: 1e-8,
            max_iterations: 200_000,
            refactor_every: 64,
            basis_update: BasisUpdate::Eta,
            refactor: RefactorSchedule::Fixed,
            time_limit_secs: f64::INFINITY,
            dual_iteration_cap: 2_000,
            pricing: Pricing::Dantzig,
            profile: false,
            faults: None,
            budget: None,
        }
    }
}

/// Options for a branch-and-bound solve.
#[derive(Debug, Clone)]
pub struct MipOptions {
    /// LP options for node relaxations.
    pub lp: LpOptions,
    /// Integrality tolerance: a value within this distance of an integer is
    /// considered integral.
    pub int_tol: f64,
    /// Maximum number of branch-and-bound nodes.
    pub max_nodes: usize,
    /// Wall-clock time limit in seconds (`f64::INFINITY` to disable).
    pub time_limit_secs: f64,
    /// Total simplex-pivot budget across every node LP (`usize::MAX` to
    /// disable) — a deterministic work limit where wall clocks are not.
    /// Exhausting it stops the search like a time limit
    /// ([`MipStatus::TimeLimit`](crate::MipStatus)) with the best
    /// incumbent found so far.
    pub max_lp_iterations: usize,
    /// If true, the objective is known to take integer values at integer
    /// points, enabling the stronger bound `ceil(lp_bound)` for pruning.
    pub objective_is_integral: bool,
    /// Absolute optimality gap at which a node is pruned against the
    /// incumbent.
    pub abs_gap: f64,
    /// A known-feasible starting point (full variable assignment). Checked
    /// against every constraint and the integrality of binaries before use;
    /// an invalid point is silently ignored.
    pub initial_incumbent: Option<Vec<f64>>,
    /// Worker threads for the tree search. `1` (the default) runs the exact
    /// serial algorithm with deterministic node counts; `0` means one worker
    /// per available CPU. Any thread count returns the same proven optimal
    /// objective — only node/steal counts and the incumbent's tie-broken
    /// argmin may vary above one thread.
    pub threads: usize,
    /// Portfolio racing mode: instead of parallelizing one tree search,
    /// race a small set of solver configurations (the caller's branching
    /// rule and the built-in unguided/diving rules, each under Dantzig and
    /// devex pricing) as independent serial solves, one thread per arm.
    /// The first arm to finish conclusively cancels the rest through its
    /// peers' cooperative [`Budget`]s; losers stop with truthful
    /// limit-style statuses. Every arm is the exact serial algorithm, so
    /// the proven optimum is deterministic even though the winning arm is
    /// a wall-clock race. Takes precedence over [`MipOptions::threads`].
    pub portfolio: bool,
    /// Cut-and-branch: separate lifted cover and clique cuts from fractional
    /// LP points at the root (multi-round, with shallow probe dives) and
    /// solve the search over the cut-strengthened problem. Off by default —
    /// the features-off path is bit-identical to the golden pins.
    pub cuts: bool,
    /// Node presolve: min-activity bound propagation before each node LP,
    /// fixing binaries and detecting infeasibility without a simplex solve.
    /// Off by default.
    pub propagate: bool,
    /// RINS-style primal heuristic at the root: fix the binaries on which
    /// the root LP relaxation and [`MipOptions::rins_reference`] agree,
    /// solve the restricted sub-MIP under a small budget, and adopt an
    /// improved incumbent. Off by default; a no-op without a reference.
    pub rins: bool,
    /// Integer-feasible reference point for RINS (full variable assignment
    /// in problem order). The caller supplies it — for the temporal
    /// partitioner this is the encoded Figure-2 list schedule, which lets
    /// the scheduler *drive* incumbents even on unseeded runs. Validated
    /// like [`MipOptions::initial_incumbent`]; an invalid point is ignored.
    pub rins_reference: Option<Vec<f64>>,
    /// Branching-variable selection (see [`Branching`]). The default
    /// [`Branching::Rule`] is the pinned static-rule path.
    pub branching: Branching,
    /// Live-progress board (see [`Progress`]): the search publishes
    /// validated incumbents and the root-relaxation bound so an external
    /// observer (the `tempart-server` event streamer) can poll a running
    /// solve lock-free. `None` (the default) keeps every publication site
    /// dead — required for the bit-identical golden pins.
    pub progress: Option<Arc<Progress>>,
}

impl Default for MipOptions {
    fn default() -> Self {
        Self {
            lp: LpOptions::default(),
            int_tol: 1e-6,
            max_nodes: 5_000_000,
            time_limit_secs: f64::INFINITY,
            max_lp_iterations: usize::MAX,
            objective_is_integral: false,
            abs_gap: 1e-9,
            initial_incumbent: None,
            threads: 1,
            portfolio: false,
            cuts: false,
            propagate: false,
            rins: false,
            rins_reference: None,
            branching: Branching::Rule,
            progress: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let lp = LpOptions::default();
        assert!(lp.feas_tol > 0.0 && lp.feas_tol < 1e-4);
        assert!(lp.refactor_every >= 8);
        assert_eq!(lp.pricing, Pricing::Dantzig, "legacy engine by default");
        assert_eq!(
            lp.basis_update,
            BasisUpdate::Eta,
            "legacy eta file by default — the pins depend on it"
        );
        assert_eq!(
            lp.refactor,
            RefactorSchedule::Fixed,
            "legacy fixed schedule by default — the pins depend on it"
        );
        assert!(!lp.profile, "timers are opt-in");
        let mip = MipOptions::default();
        assert!(mip.int_tol >= lp.feas_tol);
        assert!(!mip.objective_is_integral);
        assert!(mip.time_limit_secs.is_infinite());
        assert_eq!(mip.max_lp_iterations, usize::MAX, "pivot budget off");
        assert_eq!(mip.threads, 1, "serial by default");
        assert!(!mip.portfolio, "racing is opt-in");
        assert!(
            !mip.cuts && !mip.propagate && !mip.rins,
            "the scale features are opt-in — the pins depend on it"
        );
        assert!(mip.rins_reference.is_none());
        assert_eq!(mip.branching, Branching::Rule, "pinned static rule");
        assert!(
            lp.faults.is_none() && lp.budget.is_none() && mip.progress.is_none(),
            "inert by default"
        );
    }

    #[test]
    fn pricing_names_roundtrip() {
        for p in [Pricing::Dantzig, Pricing::Devex, Pricing::Bland] {
            assert_eq!(Pricing::parse(p.as_str()), Some(p));
            assert_eq!(Pricing::parse(&p.as_str().to_uppercase()), Some(p));
            assert_eq!(format!("{p}"), p.as_str());
        }
        assert_eq!(Pricing::parse("steepest"), None);
    }

    #[test]
    fn basis_update_names_roundtrip() {
        for b in [BasisUpdate::Eta, BasisUpdate::Ft, BasisUpdate::FtMarkowitz] {
            assert_eq!(BasisUpdate::parse(b.as_str()), Some(b));
            assert_eq!(BasisUpdate::parse(&b.as_str().to_uppercase()), Some(b));
            assert_eq!(format!("{b}"), b.as_str());
        }
        assert_eq!(BasisUpdate::parse("bartels-golub"), None);
    }

    #[test]
    fn refactor_schedule_names_roundtrip() {
        for r in [RefactorSchedule::Fixed, RefactorSchedule::Dynamic] {
            assert_eq!(RefactorSchedule::parse(r.as_str()), Some(r));
            assert_eq!(RefactorSchedule::parse(&r.as_str().to_uppercase()), Some(r));
            assert_eq!(format!("{r}"), r.as_str());
        }
        assert_eq!(RefactorSchedule::parse("never"), None);
    }

    #[test]
    fn branching_names_roundtrip() {
        for b in [Branching::Rule, Branching::Pseudocost] {
            assert_eq!(Branching::parse(b.as_str()), Some(b));
            assert_eq!(Branching::parse(&b.as_str().to_uppercase()), Some(b));
            assert_eq!(format!("{b}"), b.as_str());
        }
        assert_eq!(Branching::parse("strong"), None);
    }
}
