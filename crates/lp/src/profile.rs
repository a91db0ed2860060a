//! Solver profiling: per-phase counters and timers for the simplex engine.
//!
//! A [`SimplexProfile`] is accumulated inside every LP solve and carried out
//! on [`LpOutcome`](crate::LpOutcome); branch-and-bound merges the per-node
//! profiles into [`MipStats`](crate::MipStats) (serial and parallel alike),
//! where the CLI's `--stats` flag and the `tables -- simplex` experiment
//! read them. Counters are always collected; the wall-clock section timers
//! are gated behind [`LpOptions::profile`](crate::LpOptions::profile)
//! because they cost a few `Instant::now` calls per iteration.

use std::time::Instant;

/// Counters and timers of one or more simplex solves.
///
/// Section timers (`*_secs`) are zero unless the solve ran with
/// [`LpOptions::profile`](crate::LpOptions::profile) set; everything else is
/// always collected.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimplexProfile {
    /// LP solves merged into this profile.
    pub solves: usize,
    /// Primal pivots (phases 1 and 2).
    pub primal_iterations: usize,
    /// Dual pivots (warm restarts).
    pub dual_iterations: usize,
    /// Nonbasic bound flips: primal entering-variable flips plus the dual
    /// long-step (bound-flipping ratio test) flips, each of which replaces a
    /// full pivot.
    pub bound_flips: usize,
    /// Devex reference-framework resets (weights drifted too far).
    pub devex_resets: usize,
    /// Starting factorizations: one per solve attempt that factors its
    /// starting basis, the cold crash basis or a warm snapshot's basis.
    /// Like the pivot counters and the timers, it covers the attempt that
    /// returned: a warm start abandoned for a cold fallback, or a failed
    /// retry rung, is not counted. Every solve factors its own starting
    /// basis, so this equals [`solves`](Self::solves) unless a solve
    /// starts from factors built elsewhere.
    pub factorizations: usize,
    /// Mid-solve basis refactorizations (the starting factorization of
    /// each solve is counted in [`factorizations`](Self::factorizations)).
    pub refactors: usize,
    /// Warm dual solves abandoned for a cold primal solve (degenerate dual
    /// exceeded its cap, vanished-bound mismatch, or a numerical failure).
    pub warm_fallbacks: usize,
    /// Retry-ladder rungs climbed after a numerical failure (tighter
    /// refactorization, Bland pricing, bound perturbation) before a node
    /// LP succeeded.
    pub retries: usize,
    /// Total wall-clock seconds inside LP solves (always measured).
    pub lp_secs: f64,
    /// Entering/leaving selection and reduced-cost maintenance.
    pub pricing_secs: f64,
    /// Forward solves `B w = a_q` (LU + eta file).
    pub ftran_secs: f64,
    /// Backward solves `Bᵀ y = c` (eta file + LU).
    pub btran_secs: f64,
    /// Primal and dual ratio tests (incl. bound-flip breakpoint walks).
    pub ratio_secs: f64,
    /// Basis factorization time: mid-solve refactorizations *and* the
    /// starting factorization of every solve.
    pub refactor_secs: f64,
    /// The starting factorizations' share of
    /// [`refactor_secs`](Self::refactor_secs) (the time behind
    /// [`factorizations`](Self::factorizations)); not a bucket of its own
    /// in [`timed_secs`](Self::timed_secs).
    pub factor_secs: f64,
    /// Basis-update recording (eta push or Forrest–Tomlin U update).
    pub update_secs: f64,
    /// Everything else inside a solve that is measured but fits no kernel
    /// bucket: crash-basis setup, work-vector allocation, `x_B`
    /// recomputes, phase-1 objective checks, and solution extraction. Together with the kernel buckets
    /// this makes the per-phase timers sum to within a few percent of
    /// [`lp_secs`](Self::lp_secs).
    pub other_secs: f64,
}

impl SimplexProfile {
    /// Total simplex pivots.
    pub fn iterations(&self) -> usize {
        self.primal_iterations + self.dual_iterations
    }

    /// Merges another profile into this one (counters and timers add).
    pub fn absorb(&mut self, other: &SimplexProfile) {
        self.solves += other.solves;
        self.primal_iterations += other.primal_iterations;
        self.dual_iterations += other.dual_iterations;
        self.bound_flips += other.bound_flips;
        self.devex_resets += other.devex_resets;
        self.factorizations += other.factorizations;
        self.refactors += other.refactors;
        self.warm_fallbacks += other.warm_fallbacks;
        self.retries += other.retries;
        self.lp_secs += other.lp_secs;
        self.pricing_secs += other.pricing_secs;
        self.ftran_secs += other.ftran_secs;
        self.btran_secs += other.btran_secs;
        self.ratio_secs += other.ratio_secs;
        self.refactor_secs += other.refactor_secs;
        self.factor_secs += other.factor_secs;
        self.update_secs += other.update_secs;
        self.other_secs += other.other_secs;
    }

    /// Sum of the per-phase section timers (zero when profiling was off).
    pub fn timed_secs(&self) -> f64 {
        self.pricing_secs
            + self.ftran_secs
            + self.btran_secs
            + self.ratio_secs
            + self.refactor_secs
            + self.update_secs
            + self.other_secs
    }

    /// Multi-line human-readable report (the CLI's `--stats` block).
    pub fn report(&self) -> String {
        let mut s = format!(
            "simplex: {} solves, {} primal + {} dual pivots, {} bound flips, \
             {} factorizations + {} refactors, {} devex resets, {:.1} ms in LP",
            self.solves,
            self.primal_iterations,
            self.dual_iterations,
            self.bound_flips,
            self.factorizations,
            self.refactors,
            self.devex_resets,
            self.lp_secs * 1e3,
        );
        if self.warm_fallbacks > 0 || self.retries > 0 {
            s.push_str(&format!(
                "\n  recovery: {} warm-to-cold fallbacks, {} retry-ladder rungs",
                self.warm_fallbacks, self.retries,
            ));
        }
        if self.timed_secs() > 0.0 {
            s.push_str(&format!(
                "\n  breakdown: pricing {:.1} ms, ftran {:.1} ms, btran {:.1} ms, \
                 ratio {:.1} ms, refactor {:.1} ms (starting {:.1} ms), update {:.1} ms, \
                 other {:.1} ms",
                self.pricing_secs * 1e3,
                self.ftran_secs * 1e3,
                self.btran_secs * 1e3,
                self.ratio_secs * 1e3,
                self.refactor_secs * 1e3,
                self.factor_secs * 1e3,
                self.update_secs * 1e3,
                self.other_secs * 1e3,
            ));
        }
        s
    }
}

/// Contention counters of the parallel search layer.
///
/// All zeros for the serial solver. For the parallel solver these expose
/// how often the work-stealing scheduler left the uncontended fast path:
/// the hot path (a worker dispatching its own node and warm-starting from
/// its parent) takes no global lock, so on a tree deep enough to keep every
/// worker busy these counters stay near zero relative to `nodes`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContentionProfile {
    /// Nodes a worker took from another worker's deque.
    pub steals: usize,
    /// Steal attempts that found the victim's deque momentarily locked by
    /// its owner or another thief (the thief moved on to the next victim).
    pub steal_failures: usize,
    /// Node solves that materialized a working basis from a parent snapshot
    /// still shared with an unexplored sibling — the copy-on-write clone
    /// point. Dispatch itself never deep-clones a snapshot.
    pub cow_clones: usize,
    /// Seqlock acquisition retries while installing a new incumbent
    /// (two workers raced to publish improvements at the same instant).
    pub incumbent_retries: usize,
    /// Times a worker's own-deque `try_lock` missed (a thief held the lock)
    /// and the owner had to block — the only blocking a busy worker can do.
    pub lock_waits: usize,
}

impl ContentionProfile {
    /// Merges another contention profile into this one.
    pub fn absorb(&mut self, other: &ContentionProfile) {
        self.steals += other.steals;
        self.steal_failures += other.steal_failures;
        self.cow_clones += other.cow_clones;
        self.incumbent_retries += other.incumbent_retries;
        self.lock_waits += other.lock_waits;
    }

    /// One-line human-readable summary (the CLI's parallel stats line).
    pub fn report(&self) -> String {
        format!(
            "{} steals ({} failed), {} cow clones, {} lock waits, {} incumbent retries",
            self.steals,
            self.steal_failures,
            self.cow_clones,
            self.lock_waits,
            self.incumbent_retries,
        )
    }
}

/// Counters of the scale layer (cut separation, node propagation, and
/// pseudo-cost branching).
///
/// All zeros when the features are off — the features-off search leaves
/// this untouched, which the golden pins rely on. Merged into
/// [`MipStats`](crate::MipStats) like the other profiles and rendered by
/// the CLI's `--stats`/`--json` output and `tables -- scale`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScaleProfile {
    /// Cuts separated (violated cover/clique inequalities generated).
    pub cuts_separated: usize,
    /// Cuts applied to the working problem (in the pool at the final round).
    pub cuts_applied: usize,
    /// Cuts evicted from the pool for inactivity (eligible to re-separate).
    pub cuts_evicted: usize,
    /// Separation rounds run (root rounds plus shallow probe dives).
    pub cut_rounds: usize,
    /// Binary variables fixed by node bound propagation.
    pub propagation_fixings: usize,
    /// Nodes proven infeasible by propagation alone (no LP solved).
    pub propagation_infeasible: usize,
    /// Pseudo-cost observations recorded (child-LP objective gains).
    pub pseudocost_updates: usize,
    /// Strong-branching probe LPs solved for reliability initialization.
    pub strong_branch_solves: usize,
}

impl ScaleProfile {
    /// Merges another scale profile into this one.
    pub fn absorb(&mut self, other: &ScaleProfile) {
        self.cuts_separated += other.cuts_separated;
        self.cuts_applied += other.cuts_applied;
        self.cuts_evicted += other.cuts_evicted;
        self.cut_rounds += other.cut_rounds;
        self.propagation_fixings += other.propagation_fixings;
        self.propagation_infeasible += other.propagation_infeasible;
        self.pseudocost_updates += other.pseudocost_updates;
        self.strong_branch_solves += other.strong_branch_solves;
    }

    /// True when every counter is zero (nothing to report).
    pub fn is_empty(&self) -> bool {
        *self == ScaleProfile::default()
    }

    /// Multi-line human-readable report (the CLI's `--stats` block).
    pub fn report(&self) -> String {
        let mut s = format!(
            "cuts: {} separated over {} rounds, {} applied, {} evicted",
            self.cuts_separated, self.cut_rounds, self.cuts_applied, self.cuts_evicted,
        );
        s.push_str(&format!(
            "\npropagation: {} fixings, {} nodes cut infeasible pre-LP",
            self.propagation_fixings, self.propagation_infeasible,
        ));
        s.push_str(&format!(
            "\npseudo-cost: {} updates, {} strong-branch probes",
            self.pseudocost_updates, self.strong_branch_solves,
        ));
        s
    }
}

/// Starts a section timer when profiling is enabled (else free).
pub(crate) fn tick(enabled: bool) -> Option<Instant> {
    if enabled {
        Some(Instant::now())
    } else {
        None
    }
}

/// Stops a [`tick`] timer into an accumulator.
pub(crate) fn tock(start: Option<Instant>, acc: &mut f64) {
    if let Some(t) = start {
        *acc += t.elapsed().as_secs_f64();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_adds_counters_and_timers() {
        let mut a = SimplexProfile {
            solves: 1,
            primal_iterations: 10,
            dual_iterations: 5,
            bound_flips: 3,
            devex_resets: 1,
            factorizations: 3,
            refactors: 2,
            warm_fallbacks: 1,
            retries: 2,
            lp_secs: 0.5,
            pricing_secs: 0.1,
            ftran_secs: 0.2,
            btran_secs: 0.05,
            ratio_secs: 0.03,
            refactor_secs: 0.02,
            factor_secs: 0.015,
            update_secs: 0.01,
            other_secs: 0.04,
        };
        let b = a;
        a.absorb(&b);
        assert_eq!(a.solves, 2);
        assert_eq!(a.iterations(), 30);
        assert_eq!(a.bound_flips, 6);
        assert_eq!((a.factorizations, a.refactors), (6, 4));
        assert_eq!(a.warm_fallbacks, 2);
        assert_eq!(a.retries, 4);
        assert!((a.lp_secs - 1.0).abs() < 1e-12);
        assert!((a.ftran_secs - 0.4).abs() < 1e-12);
        assert!((a.update_secs - 0.02).abs() < 1e-12);
        assert!((a.factor_secs - 0.03).abs() < 1e-12);
        assert!(
            (a.timed_secs() - 0.9).abs() < 1e-12,
            "starting time is inside refactor"
        );
    }

    #[test]
    fn report_mentions_breakdown_only_when_timed() {
        let mut p = SimplexProfile {
            solves: 1,
            ..SimplexProfile::default()
        };
        assert!(!p.report().contains("breakdown"));
        p.factorizations = 3;
        p.refactors = 1;
        assert!(p.report().contains("3 factorizations + 1 refactors"));
        p.ftran_secs = 0.25;
        assert!(p.report().contains("breakdown"));
        assert!(p.report().contains("ftran 250.0 ms"));
        p.refactor_secs = 0.004;
        p.factor_secs = 0.003;
        assert!(
            p.report().contains("refactor 4.0 ms (starting 3.0 ms)"),
            "{}",
            p.report()
        );
    }

    #[test]
    fn contention_absorb_and_report() {
        let mut a = ContentionProfile {
            steals: 2,
            steal_failures: 1,
            cow_clones: 5,
            incumbent_retries: 0,
            lock_waits: 1,
        };
        let b = a;
        a.absorb(&b);
        assert_eq!(a.steals, 4);
        assert_eq!(a.cow_clones, 10);
        assert_eq!(a.lock_waits, 2);
        let r = a.report();
        assert!(r.contains("4 steals (2 failed)"), "{r}");
        assert!(r.contains("10 cow clones"), "{r}");
    }

    #[test]
    fn scale_absorb_and_report() {
        let mut a = ScaleProfile {
            cuts_separated: 3,
            cuts_applied: 2,
            cuts_evicted: 1,
            cut_rounds: 2,
            propagation_fixings: 7,
            propagation_infeasible: 1,
            pseudocost_updates: 9,
            strong_branch_solves: 4,
        };
        assert!(!a.is_empty());
        assert!(ScaleProfile::default().is_empty());
        let b = a;
        a.absorb(&b);
        assert_eq!(a.cuts_separated, 6);
        assert_eq!(a.propagation_fixings, 14);
        assert_eq!(a.strong_branch_solves, 8);
        let r = a.report();
        assert!(r.contains("6 separated over 4 rounds"), "{r}");
        assert!(r.contains("14 fixings"), "{r}");
        assert!(r.contains("18 updates"), "{r}");
    }

    #[test]
    fn tick_tock_disabled_is_free() {
        let mut acc = 0.0;
        tock(tick(false), &mut acc);
        assert_eq!(acc, 0.0);
        tock(tick(true), &mut acc);
        assert!(acc >= 0.0);
    }
}
