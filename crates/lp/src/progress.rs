//! Lock-free live progress for long solves.
//!
//! A [`Progress`] board is a handful of atomics the search drivers update
//! as they run — incumbent objective, a proven global lower bound, and the
//! incumbent-update count — so an outside observer (the `tempart-server`
//! event streamer, a progress bar) can poll a running solve without locks,
//! callbacks, or any effect on the search itself. Attach one via
//! [`MipOptions::progress`](crate::MipOptions::progress); `None` (the
//! default) keeps every update site dead.
//!
//! The board is deliberately conservative about what it publishes:
//!
//! * `incumbent` is the objective of a *validated* integer-feasible point
//!   (the seed or an installed incumbent) and only ever decreases.
//! * `bound` is a *valid global* lower bound — the root relaxation
//!   objective, published once the root LP is solved, and only ever
//!   increases. Mid-search the proven bound can be (much) better than
//!   this; the exact value is only folded at termination, so a poller
//!   sees a true but possibly loose gap.
//!
//! All orderings are relaxed: the board is monotone in both directions, so
//! a stale read is merely an older truth.

use tempart_race::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Shared live-progress board; see the module docs.
#[derive(Debug)]
pub struct Progress {
    /// Bit pattern of the best published incumbent objective
    /// (`f64::INFINITY` until one exists).
    // hb: relaxed-load -> relaxed-cas (incumbent) — monotone CAS board: a
    // stale read is an older truth, nothing is published through it.
    incumbent: AtomicU64,
    /// Bit pattern of the best published global lower bound
    /// (`f64::NEG_INFINITY` until the root LP is solved).
    // hb: relaxed-load -> relaxed-cas (bound) — same monotone-board
    // contract as `incumbent`, increasing instead of decreasing.
    bound: AtomicU64,
    /// Incumbent publications (seed included).
    // hb: relaxed-rmw -> relaxed-load (updates) — monotone tally.
    updates: AtomicUsize,
}

impl Default for Progress {
    fn default() -> Self {
        Progress {
            incumbent: AtomicU64::new(f64::INFINITY.to_bits()),
            bound: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            updates: AtomicUsize::new(0),
        }
    }
}

impl Progress {
    /// A fresh board (no incumbent, no bound).
    pub fn new() -> Progress {
        Progress::default()
    }

    /// Publishes an incumbent objective; kept only if it improves (strictly
    /// decreases) the published one. Counts every improving publication.
    pub fn note_incumbent(&self, objective: f64) {
        if monotone(&self.incumbent, objective, |new, cur| new < cur) {
            self.updates.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Publishes a proven global lower bound; kept only if it improves
    /// (strictly increases) the published one.
    pub fn note_bound(&self, bound: f64) {
        monotone(&self.bound, bound, |new, cur| new > cur);
    }

    /// The best published incumbent objective (`+∞` when none yet).
    pub fn incumbent(&self) -> f64 {
        f64::from_bits(self.incumbent.load(Ordering::Relaxed))
    }

    /// The best published global lower bound (`-∞` when none yet).
    pub fn bound(&self) -> f64 {
        f64::from_bits(self.bound.load(Ordering::Relaxed))
    }

    /// The proven optimality gap implied by the published pair (`+∞` while
    /// either side is missing).
    pub fn gap(&self) -> f64 {
        let (inc, bound) = (self.incumbent(), self.bound());
        if inc.is_finite() && bound.is_finite() {
            inc - bound
        } else {
            f64::INFINITY
        }
    }

    /// How many improving incumbents have been published.
    pub fn updates(&self) -> usize {
        self.updates.load(Ordering::Relaxed)
    }
}

/// CAS loop updating `cell` (an `f64` bit pattern) to `new` while `better`
/// holds against the current value; returns whether `new` was stored.
// hb: relaxed-load -> relaxed-cas -> relaxed-cas-fail (cell) — the `incumbent`/`bound` board
// words flow through this helper; see their declarations above.
fn monotone(cell: &AtomicU64, new: f64, better: impl Fn(f64, f64) -> bool) -> bool {
    if new.is_nan() {
        return false;
    }
    let mut cur = cell.load(Ordering::Relaxed);
    while better(new, f64::from_bits(cur)) {
        match cell.compare_exchange_weak(cur, new.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(seen) => cur = seen,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Sense, VarKind};
    use crate::{BranchAndBound, MipOptions, MipStatus, Problem};
    use std::sync::Arc;

    #[test]
    fn progress_board_is_monotone() {
        let p = Progress::new();
        assert_eq!(p.incumbent(), f64::INFINITY);
        assert_eq!(p.bound(), f64::NEG_INFINITY);
        assert_eq!(p.gap(), f64::INFINITY);
        p.note_incumbent(10.0);
        p.note_incumbent(12.0); // worse: ignored
        p.note_incumbent(7.0);
        assert_eq!(p.incumbent(), 7.0);
        assert_eq!(p.updates(), 2);
        p.note_bound(1.0);
        p.note_bound(-3.0); // worse: ignored
        p.note_bound(4.0);
        assert_eq!(p.bound(), 4.0);
        assert_eq!(p.gap(), 3.0);
        p.note_incumbent(f64::NAN);
        p.note_bound(f64::NAN);
        assert_eq!(p.incumbent(), 7.0, "NaN never published");
        assert_eq!(p.bound(), 4.0);
    }

    /// 4-item knapsack (the faults-module workhorse): optimum -23.
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

    #[test]
    fn progress_solver_publishes_incumbent_and_root_bound() {
        let p = knapsack();
        let board = Arc::new(Progress::new());
        let opts = MipOptions {
            progress: Some(Arc::clone(&board)),
            ..MipOptions::default()
        };
        let out = BranchAndBound::new(&p).options(opts).solve().unwrap();
        assert_eq!(out.status, MipStatus::Optimal);
        assert!((board.incumbent() - (-23.0)).abs() < 1e-6);
        assert!(board.updates() >= 1);
        assert!(
            board.bound().is_finite() && board.bound() <= -23.0 + 1e-6,
            "root LP bound {} must underestimate the optimum",
            board.bound()
        );
    }

    #[test]
    fn progress_seed_is_published_before_search() {
        let p = knapsack();
        let board = Arc::new(Progress::new());
        let opts = MipOptions {
            progress: Some(Arc::clone(&board)),
            initial_incumbent: Some(vec![0.0, 1.0, 0.0, 1.0]), // -21, feasible
            max_nodes: 0, // stop immediately: only the seed can be there
            ..MipOptions::default()
        };
        let out = BranchAndBound::new(&p).options(opts).solve().unwrap();
        assert_eq!(out.status, MipStatus::NodeLimit);
        assert!((board.incumbent() - (-21.0)).abs() < 1e-6);
    }

    #[test]
    fn progress_parallel_publishes_too() {
        let p = knapsack();
        let board = Arc::new(Progress::new());
        let opts = MipOptions {
            progress: Some(Arc::clone(&board)),
            threads: 2,
            ..MipOptions::default()
        };
        let out = BranchAndBound::new(&p).options(opts).solve().unwrap();
        assert_eq!(out.status, MipStatus::Optimal);
        assert!((board.incumbent() - (-23.0)).abs() < 1e-6);
    }
}
