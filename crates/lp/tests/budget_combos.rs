//! Budget deadline enforcement across the feature matrix.
//!
//! The `tempart-server` admits every job with one [`Budget`] created at
//! admission time and attached through [`LpOptions::budget`]; the whole
//! solve — node loop *and* the pivot loop inside each node LP — must
//! honour that deadline no matter which search features are switched on.
//! These tests pin that contract for the combinations the service exposes —
//! the default search, the scale stack (`cuts + propagate + pseudocost`
//! branching) and the work-stealing search — against a market-split
//! feasibility instance hard enough that no configuration finishes inside
//! the deadlines used. A caller budget may also span several solves (the
//! CLI's and the server's latency sweeps); each solve then keeps its own
//! node cap, and no solve's limit stops the next.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tempart_lp::{
    BranchAndBound, Branching, Budget, FirstIndexRule, MipOptions, MipStatus, Problem, Sense,
    VarKind,
};

/// A deterministic market-split feasibility instance: `m` dense equality
/// rows over `n` binaries with half-sum right-hand sides. These are
/// classically exponential for pure branch and bound — every tested
/// configuration runs far longer than the deadlines below, so a prompt
/// return can only come from the budget.
fn market_split(m: usize, n: usize) -> Problem {
    let mut p = Problem::new("market-split");
    let vars: Vec<_> = (0..n)
        .map(|j| {
            p.add_var(format!("x{j}"), VarKind::Binary, 1.0)
                .expect("finite objective")
        })
        .collect();
    // Deterministic coefficients from a fixed LCG — no RNG dependency.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        ((state >> 33) % 100) as f64
    };
    for i in 0..m {
        let coeffs: Vec<f64> = (0..n).map(|_| next()).collect();
        let rhs = (coeffs.iter().sum::<f64>() / 2.0).floor();
        p.add_constraint(
            format!("r{i}"),
            vars.iter()
                .zip(&coeffs)
                .map(|(&v, &c)| (v, c))
                .collect::<Vec<_>>(),
            Sense::Eq,
            rhs,
        )
        .expect("valid constraint");
    }
    p
}

/// The feature combinations the service can request on one admission.
fn combos() -> Vec<(&'static str, MipOptions)> {
    let base = MipOptions::default();
    let scale_stack = MipOptions {
        cuts: true,
        propagate: true,
        branching: Branching::Pseudocost,
        ..MipOptions::default()
    };
    let two_workers = MipOptions {
        threads: 2,
        ..MipOptions::default()
    };
    vec![
        ("default", base),
        ("cuts+propagate+pseudocost", scale_stack),
        ("threads=2", two_workers),
    ]
}

fn solve_with_budget(
    mut opts: MipOptions,
    budget: &Arc<Budget>,
) -> (MipStatus, f64, f64, Duration) {
    opts.lp.budget = Some(Arc::clone(budget));
    let p = market_split(4, 30);
    let started = Instant::now();
    let out = BranchAndBound::new(&p)
        .options(opts)
        .rule(FirstIndexRule)
        .solve()
        .expect("budgeted solve never errors");
    (out.status, out.objective, out.best_bound, started.elapsed())
}

#[test]
fn an_already_expired_deadline_stops_every_combination_at_once() {
    for (name, opts) in combos() {
        let budget = Arc::new(Budget::new(0.0, usize::MAX, usize::MAX));
        let (status, objective, best_bound, elapsed) = solve_with_budget(opts, &budget);
        assert_eq!(
            status,
            MipStatus::TimeLimit,
            "{name}: an expired deadline is a truthful time limit"
        );
        assert!(
            elapsed < Duration::from_secs(5),
            "{name}: expired budget must not search ({elapsed:?})"
        );
        if objective.is_finite() {
            assert!(
                best_bound <= objective + 1e-6,
                "{name}: any claimed bound stays valid ({best_bound} vs {objective})"
            );
        }
    }
}

#[test]
fn a_short_deadline_is_honoured_mid_search_by_every_combination() {
    // Every combination needs minutes on this instance; the deadline gives
    // it a fraction of a second. The slack absorbs one node LP plus loaded
    // CI jitter — what it cannot absorb is a search that ignores the clock.
    const DEADLINE: f64 = 0.25;
    const SLACK: Duration = Duration::from_secs(5);
    for (name, opts) in combos() {
        let budget = Arc::new(Budget::new(DEADLINE, usize::MAX, usize::MAX));
        let (status, objective, best_bound, elapsed) = solve_with_budget(opts, &budget);
        assert_eq!(
            status,
            MipStatus::TimeLimit,
            "{name}: the deadline ends an unfinished search truthfully"
        );
        assert!(
            elapsed < Duration::from_secs_f64(DEADLINE) + SLACK,
            "{name}: deadline {DEADLINE}s overrun to {elapsed:?}"
        );
        if objective.is_finite() {
            assert!(
                best_bound <= objective + 1e-6,
                "{name}: bound {best_bound} must not cross incumbent {objective}"
            );
        }
    }
}

#[test]
fn an_external_stop_request_unblocks_every_combination() {
    // The server's drain path: no limit at all, just `request_stop` from
    // another thread while the search runs.
    for (name, opts) in combos() {
        let budget = Arc::new(Budget::unlimited());
        let stopper = {
            let budget = Arc::clone(&budget);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(100));
                budget.request_stop();
            })
        };
        let (status, _, _, elapsed) = solve_with_budget(opts, &budget);
        stopper.join().expect("stopper thread");
        assert_eq!(
            status,
            MipStatus::TimeLimit,
            "{name}: a cooperative stop reports as a limit, not a failure"
        );
        assert!(
            elapsed < Duration::from_secs(10),
            "{name}: stop request left the search running ({elapsed:?})"
        );
    }
}

#[test]
fn one_caller_budget_gives_each_solve_its_own_node_cap() {
    // Two consecutive solves under one caller budget whose node cap equals
    // each solve's. Every solve must search under its own cap: a limit the
    // first solve hits may neither use up the second's nodes nor stop the
    // caller's budget.
    const CAP: usize = 50;
    let p = market_split(3, 18);
    for threads in [1usize, 2, 4] {
        let budget = Arc::new(Budget::new(f64::INFINITY, CAP, usize::MAX));
        for solve in ["first", "second"] {
            let mut opts = MipOptions {
                max_nodes: CAP,
                threads,
                ..MipOptions::default()
            };
            opts.lp.budget = Some(Arc::clone(&budget));
            let out = BranchAndBound::new(&p)
                .options(opts)
                .rule(FirstIndexRule)
                .solve()
                .expect("budgeted solve never errors");
            assert!(
                out.stats.nodes > 0,
                "threads {threads}, {solve} solve: searched no node ({:?})",
                out.status
            );
            assert_ne!(
                out.status,
                MipStatus::TimeLimit,
                "threads {threads}, {solve} solve: stopped by an earlier limit"
            );
            if threads == 1 {
                assert_eq!(
                    (out.status, out.stats.nodes),
                    (MipStatus::NodeLimit, CAP),
                    "{solve} solve: one worker stops exactly at its own cap"
                );
            }
        }
        assert!(
            !budget.stop_requested(),
            "threads {threads}: a solve's limit latched the caller's budget"
        );
        assert!(
            budget.nodes() >= 2,
            "threads {threads}: tallies reach the caller"
        );
    }
}
