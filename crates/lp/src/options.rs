//! Solver options.

use std::sync::Arc;

use crate::faults::{Budget, FaultPlan};
use crate::progress::Progress;

/// Entering-variable pricing strategy for the simplex.
///
/// A caller that sets neither [`LpOptions::pricing`] nor
/// [`LpOptions::basis_update`] gets the engine [`LpOptions::engine`] picks
/// from the LP's size; one that sets only the basis update gets the
/// [`Default`] pricing, Dantzig.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pricing {
    /// Classic Dantzig pricing (most-violated reduced cost), recomputing
    /// reduced costs from scratch each iteration. This is the *legacy
    /// engine*, the paper-scale default: its pivot sequence is pinned by
    /// golden node-count tests, so it is the reference for
    /// reproducibility. Its kernels switch to hypersparse (pattern-tracked)
    /// solves while their vectors are sparse, with the dense loops'
    /// arithmetic, so the pivots do not depend on which kernel ran
    /// (DESIGN.md §5b).
    #[default]
    Dantzig,
    /// Devex pricing (Forrest–Goldfarb reference-framework weights) with
    /// incrementally maintained reduced costs and the bound-flipping dual
    /// ratio test. The fast engine, and the default above
    /// [`ENGINE_ROW_THRESHOLD`] rows; proves the same optima as Dantzig but
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

/// Basis-maintenance strategy between refactorizations. Each
/// representation carries its own refactorization trigger (DESIGN.md §5h).
///
/// A caller that sets only [`LpOptions::pricing`] gets the [`Default`]
/// basis update, the eta file; one that sets neither gets the engine
/// [`LpOptions::engine`] picks from the LP's size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BasisUpdate {
    /// Product-form eta file: every pivot appends an eta matrix that FTRAN/
    /// BTRAN apply on top of the last LU factorization, and the basis is
    /// refactorized after every [`LpOptions::refactor_every`] updates. This
    /// is the *legacy engine*, the paper-scale default — its arithmetic is
    /// part of the pinned golden pivot sequence.
    #[default]
    Eta,
    /// Forrest–Tomlin updates over a Markowitz-ordered factorization: each
    /// pivot replaces a `U` column with the spike and eliminates the spiked
    /// row into a short row eta, so solve cost tracks the (slowly growing)
    /// `U` fill instead of the eta-file length, and the Markowitz pivot
    /// order (fill-in × stability) keeps that fill small. The basis is
    /// refactorized when the measured fill doubles, when an update fails
    /// the stability test, or after `4 ×` [`LpOptions::refactor_every`]
    /// updates. Same optima, different float rounding; the default above
    /// [`ENGINE_ROW_THRESHOLD`] rows.
    FtMarkowitz,
}

impl BasisUpdate {
    /// Stable lower-case name (CLI flag values, JSON reports).
    pub fn as_str(self) -> &'static str {
        match self {
            BasisUpdate::Eta => "eta",
            BasisUpdate::FtMarkowitz => "ft-markowitz",
        }
    }

    /// Parses a CLI-style name.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "eta" => Some(BasisUpdate::Eta),
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

/// Row count above which an LP whose caller names no engine runs devex
/// pricing on Forrest–Tomlin–Markowitz factors (see [`LpOptions::engine`]).
///
/// It sits in the measured gap between the paper-scale LPs and the ten-task
/// models: the largest paper-scale LP has 1,251 rows (every graph-1 model
/// and every five-task specification of the benchmark is at or below it),
/// and the smallest ten-task model of the paper's Table 4 (graph 3 at
/// `N = 3`, `L = 5`) has 4,690.
pub const ENGINE_ROW_THRESHOLD: usize = 4_096;

/// Who chose the engine of a solve (see [`Engine`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineSource {
    /// The caller set [`LpOptions::pricing`] or [`LpOptions::basis_update`].
    #[default]
    Caller,
    /// The caller set neither, and the LP's row count chose
    /// (see [`ENGINE_ROW_THRESHOLD`]).
    SizeRule,
}

impl EngineSource {
    /// Stable lower-case name (JSON reports).
    pub fn as_str(self) -> &'static str {
        match self {
            EngineSource::Caller => "caller",
            EngineSource::SizeRule => "size-rule",
        }
    }
}

/// The simplex engine a solve runs: its pricing, its basis update, and who
/// chose them. Resolved once per LP solve by [`LpOptions::engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Engine {
    /// Entering-variable pricing.
    pub pricing: Pricing,
    /// Basis maintenance between refactorizations.
    pub basis_update: BasisUpdate,
    /// Whether the caller or the size rule chose the pair.
    pub source: EngineSource,
}

impl std::fmt::Display for Engine {
    /// `pricing/basis-update (chosen by …)`, e.g.
    /// `devex/ft-markowitz (chosen by size-rule)`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} (chosen by {})",
            self.pricing,
            self.basis_update,
            self.source.as_str()
        )
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
    /// Refactorize an eta-file basis after this many updates; a
    /// Forrest–Tomlin basis is refactorized after at most `4 ×` this many
    /// (see [`BasisUpdate`]). The numerical retry ladder lowers it.
    pub refactor_every: usize,
    /// Basis-maintenance strategy between refactorizations (see
    /// [`BasisUpdate`]). `None` (the default) leaves it, with
    /// [`pricing`](Self::pricing), to [`engine`](Self::engine).
    pub basis_update: Option<BasisUpdate>,
    /// Iteration cap for a *warm-started dual* solve; a degenerate dual that
    /// exceeds it is abandoned in favour of a cold primal solve.
    pub dual_iteration_cap: usize,
    /// Entering-variable pricing strategy (see [`Pricing`]). `None` (the
    /// default) leaves it, with [`basis_update`](Self::basis_update), to
    /// [`engine`](Self::engine).
    pub pricing: Option<Pricing>,
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
    /// Shared solve budget (see [`Budget`]): the only wall-clock limit of
    /// an LP solve. Branch and bound attaches its solve budget so the pivot
    /// loop honours the deadline, LP-iteration cap and stop requests
    /// mid-LP, and exceeding it raises [`LpError::Timeout`](crate::LpError);
    /// a caller that sets it on [`MipOptions::lp`] becomes that solve
    /// budget's parent. `None` (the default for standalone LP solves)
    /// leaves only [`LpOptions::max_iterations`].
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
            basis_update: None,
            dual_iteration_cap: 2_000,
            pricing: None,
            profile: false,
            faults: None,
            budget: None,
        }
    }
}

impl LpOptions {
    /// The engine a solve of an LP with `rows` constraint rows runs.
    ///
    /// A caller that sets [`pricing`](Self::pricing) or
    /// [`basis_update`](Self::basis_update) gets what it set, with the
    /// [`Default`] of the field it left unset (Dantzig, the eta file). A
    /// caller that sets neither gets the size rule: above
    /// [`ENGINE_ROW_THRESHOLD`] rows devex pricing on Forrest–Tomlin–
    /// Markowitz factors, at or below it the pinned Dantzig engine on the
    /// eta file.
    ///
    /// # Examples
    ///
    /// ```
    /// use tempart_lp::{BasisUpdate, EngineSource, LpOptions, Pricing, ENGINE_ROW_THRESHOLD};
    ///
    /// let large = LpOptions::default().engine(ENGINE_ROW_THRESHOLD + 1);
    /// assert_eq!(large.pricing, Pricing::Devex);
    /// assert_eq!(large.basis_update, BasisUpdate::FtMarkowitz);
    /// assert_eq!(large.source, EngineSource::SizeRule);
    ///
    /// let set = LpOptions { basis_update: Some(BasisUpdate::Eta), ..LpOptions::default() };
    /// assert_eq!(set.engine(ENGINE_ROW_THRESHOLD + 1).pricing, Pricing::Dantzig);
    /// ```
    pub fn engine(&self, rows: usize) -> Engine {
        match (self.pricing, self.basis_update) {
            (None, None) if rows > ENGINE_ROW_THRESHOLD => Engine {
                pricing: Pricing::Devex,
                basis_update: BasisUpdate::FtMarkowitz,
                source: EngineSource::SizeRule,
            },
            (None, None) => Engine {
                pricing: Pricing::Dantzig,
                basis_update: BasisUpdate::Eta,
                source: EngineSource::SizeRule,
            },
            (pricing, basis_update) => Engine {
                pricing: pricing.unwrap_or_default(),
                basis_update: basis_update.unwrap_or_default(),
                source: EngineSource::Caller,
            },
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
    /// Workers of the work-stealing tree search. `1` (the default) runs one
    /// worker on the calling thread, in a fixed depth-first order with
    /// deterministic node counts; `0` means one worker per available CPU.
    /// Any thread count returns the same proven optimal objective — only
    /// node/steal counts and the incumbent's tie-broken argmin may vary
    /// above one thread.
    pub threads: usize,
    /// Cut-and-branch: separate lifted cover and clique cuts from fractional
    /// LP points at the root (multi-round, with shallow probe dives) and
    /// solve the search over the cut-strengthened problem. Off by default —
    /// the features-off path is bit-identical to the golden pins.
    pub cuts: bool,
    /// Node presolve: min-activity bound propagation before each node LP,
    /// fixing binaries and detecting infeasibility without a simplex solve.
    /// Off by default.
    pub propagate: bool,
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
            cuts: false,
            propagate: false,
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
        assert_eq!(
            (lp.pricing, lp.basis_update),
            (None, None),
            "the engine is left to the size rule by default"
        );
        let paper = lp.engine(ENGINE_ROW_THRESHOLD);
        assert_eq!(
            (paper.pricing, paper.basis_update),
            (Pricing::Dantzig, BasisUpdate::Eta),
            "legacy engine at paper scale — the pins depend on it"
        );
        assert!(!lp.profile, "timers are opt-in");
        let mip = MipOptions::default();
        assert!(mip.int_tol >= lp.feas_tol);
        assert!(!mip.objective_is_integral);
        assert!(mip.time_limit_secs.is_infinite());
        assert_eq!(mip.max_lp_iterations, usize::MAX, "pivot budget off");
        assert_eq!(mip.threads, 1, "one worker by default");
        assert!(
            !mip.cuts && !mip.propagate,
            "the scale features are opt-in — the pins depend on it"
        );
        assert_eq!(mip.branching, Branching::Rule, "pinned static rule");
        assert!(
            lp.faults.is_none() && lp.budget.is_none() && mip.progress.is_none(),
            "inert by default"
        );
    }

    #[test]
    fn engine_rule_splits_at_the_threshold_and_honours_explicit_settings() {
        let legacy = (Pricing::Dantzig, BasisUpdate::Eta);
        let fast = (Pricing::Devex, BasisUpdate::FtMarkowitz);
        let pair = |e: Engine| (e.pricing, e.basis_update);
        let below = ENGINE_ROW_THRESHOLD - 1;
        let at = ENGINE_ROW_THRESHOLD;
        let above = ENGINE_ROW_THRESHOLD + 1;
        let unset = LpOptions::default();
        for (rows, want) in [(0, legacy), (below, legacy), (at, legacy), (above, fast)] {
            let e = unset.engine(rows);
            assert_eq!(pair(e), want, "unset, {rows} rows");
            assert_eq!(e.source, EngineSource::SizeRule, "unset, {rows} rows");
        }
        // Each explicit setting keeps its meaning on both sides; the field
        // left unset takes its legacy default.
        for pricing in [
            None,
            Some(Pricing::Dantzig),
            Some(Pricing::Devex),
            Some(Pricing::Bland),
        ] {
            for basis_update in [None, Some(BasisUpdate::Eta), Some(BasisUpdate::FtMarkowitz)] {
                if pricing.is_none() && basis_update.is_none() {
                    continue;
                }
                let opts = LpOptions {
                    pricing,
                    basis_update,
                    ..LpOptions::default()
                };
                let want = (
                    pricing.unwrap_or(Pricing::Dantzig),
                    basis_update.unwrap_or(BasisUpdate::Eta),
                );
                for rows in [below, at, above] {
                    let e = opts.engine(rows);
                    assert_eq!(pair(e), want, "{pricing:?}/{basis_update:?}, {rows} rows");
                    assert_eq!(e.source, EngineSource::Caller);
                }
            }
        }
        assert_eq!(
            unset.engine(above).to_string(),
            "devex/ft-markowitz (chosen by size-rule)"
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
        for b in [BasisUpdate::Eta, BasisUpdate::FtMarkowitz] {
            assert_eq!(BasisUpdate::parse(b.as_str()), Some(b));
            assert_eq!(BasisUpdate::parse(&b.as_str().to_uppercase()), Some(b));
            assert_eq!(format!("{b}"), b.as_str());
        }
        assert_eq!(BasisUpdate::parse("bartels-golub"), None);
        assert_eq!(BasisUpdate::parse("ft"), None);
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
