//! Resilience acceptance tests: under every injected fault class, solving
//! the graph-1 workhorse (N=3, L=1, guided) returns `Ok` with a feasible,
//! validated partitioning and a reported gap/source — never an `Err`,
//! never an abort. The fault plans are deterministic (`site@occurrence`
//! counters, no randomness), so these are golden outcomes, not flaky
//! chaos tests.

use std::sync::Arc;

use tempart_bench::{date98_device, date98_instance};
use tempart_core::{IlpModel, ModelConfig, RuleKind, SolutionSource, SolveOptions, SolveOutcome};
use tempart_lp::{FaultPlan, MipOptions, MipStatus};

/// The Table 3 workhorse: graph 1, two adders + two multipliers + one
/// subtracter, N=3, L=1, tightened model. Serial guided search proves
/// cost 13 in ~585 nodes.
fn g1_model() -> IlpModel {
    let inst = date98_instance(1, 2, 2, 1, date98_device()).expect("graph-1 instance");
    IlpModel::build(inst, ModelConfig::tightened(3, 1)).expect("g1 model builds")
}

/// Solves g1 under `plan` with `threads` workers. Every fault class must
/// come back `Ok` — a panic or an `Err` here is the bug the resilience
/// layer exists to prevent.
fn solve_with_plan(plan: &str, threads: usize) -> SolveOutcome {
    let mut mip = MipOptions {
        threads,
        ..MipOptions::default()
    };
    mip.lp.faults = Some(Arc::new(FaultPlan::parse(plan).expect("plan parses")));
    g1_model()
        .solve(&SolveOptions {
            mip,
            rule: RuleKind::Paper,
            seed_incumbent: false,
        })
        .expect("fault-injected solve must not error")
}

/// A singular-basis failure in the first factorization is absorbed by the
/// retry ladder; the search still proves the optimum.
#[test]
fn faults_singular_basis_recovers_to_optimum() {
    let out = solve_with_plan("singular@1", 1);
    assert_eq!(out.status, MipStatus::Optimal);
    assert_eq!(out.source, SolutionSource::Exact);
    assert_eq!(out.gap, 0.0);
    let sol = out.solution.expect("feasible partitioning");
    assert_eq!(sol.communication_cost(), 13);
}

/// An iteration-cap trip in the first node LP falls back to a cold solve;
/// the search still proves the optimum.
#[test]
fn faults_iteration_cap_recovers_to_optimum() {
    let out = solve_with_plan("itercap@1", 1);
    assert_eq!(out.status, MipStatus::Optimal);
    assert_eq!(out.source, SolutionSource::Exact);
    assert_eq!(out.gap, 0.0);
    let sol = out.solution.expect("feasible partitioning");
    assert_eq!(sol.communication_cost(), 13);
}

/// A worker panic mid-search is caught, the node is requeued, and the
/// remaining workers finish the proof.
#[test]
fn faults_worker_panic_recovers_to_optimum() {
    let out = solve_with_plan("panic@1", 2);
    assert_eq!(out.status, MipStatus::Optimal);
    assert_eq!(out.source, SolutionSource::Exact);
    assert_eq!(out.gap, 0.0);
    let sol = out.solution.expect("feasible partitioning");
    assert_eq!(sol.communication_cost(), 13);
}

/// A clock-skew fault fires the deadline in the very first LP, before any
/// incumbent exists. The anytime contract degrades to the Figure-2
/// list-scheduling heuristic instead of erroring: still a feasible,
/// validated partitioning, tagged `heuristic`, with the (vacuous) gap
/// reported rather than hidden.
#[test]
fn faults_clock_skew_degrades_to_heuristic() {
    let out = solve_with_plan("skew@1", 1);
    assert_eq!(out.status, MipStatus::TimeLimit);
    assert_eq!(out.source, SolutionSource::Heuristic);
    let sol = out.solution.expect("heuristic fallback partitioning");
    // The list scheduler is feasibility-driven, not cost-optimal: any
    // validated answer is acceptable, and on g1 it happens to find the
    // optimum's cost too.
    assert!(
        sol.communication_cost() <= 28,
        "within total edge bandwidth"
    );
    assert!(
        out.gap.is_infinite() || out.gap >= 0.0,
        "gap is reported, not hidden: {}",
        out.gap
    );
}

/// The same deadline fault with a seeded incumbent keeps the exact tag:
/// the heuristic seed flows through the search's incumbent channel, so
/// the reported answer is the incumbent, not a post-hoc patch.
#[test]
fn faults_clock_skew_with_seed_keeps_exact_incumbent() {
    let mut mip = MipOptions::default();
    mip.lp.faults = Some(Arc::new(FaultPlan::parse("skew@1").expect("plan parses")));
    let out = g1_model()
        .solve(&SolveOptions {
            mip,
            rule: RuleKind::Paper,
            seed_incumbent: true,
        })
        .expect("fault-injected solve must not error");
    assert_eq!(out.status, MipStatus::TimeLimit);
    assert_eq!(out.source, SolutionSource::Exact);
    let sol = out
        .solution
        .expect("seeded incumbent survives the deadline");
    assert!(sol.communication_cost() <= 28);
    assert!(out.best_bound <= out.objective);
}

/// The anytime curve on g1 at one worker: each deterministic pivot budget,
/// the stand-in for a wall-clock deadline, pins the status, the solution
/// source, the work done and the cost. A budget that stops the search
/// before its first integral node still answers with the Figure-2
/// heuristic; from 2,000 pivots on, the answer is the search's own
/// incumbent; a seeded run answers exactly before solving any LP.
#[test]
fn pivot_budget_curve_is_pinned() {
    use MipStatus::{Optimal, TimeLimit};
    use SolutionSource::{Exact, Heuristic};
    // (seeded, pivot budget, status, source, nodes, pivots)
    type Point = (bool, usize, MipStatus, SolutionSource, usize, usize);
    let curve: [Point; 4] = [
        (false, 500, TimeLimit, Heuristic, 17, 466),
        (false, 2_000, TimeLimit, Exact, 92, 2_000),
        (true, 50, TimeLimit, Exact, 0, 0),
        (false, usize::MAX, Optimal, Exact, 601, 11_089),
    ];
    for (seeded, budget, status, source, nodes, pivots) in curve {
        let mip = MipOptions {
            max_lp_iterations: budget,
            threads: 1,
            ..MipOptions::default()
        };
        let out = g1_model()
            .solve(&SolveOptions {
                mip,
                rule: RuleKind::Paper,
                seed_incumbent: seeded,
            })
            .expect("a pivot budget is a limit, not an error");
        let point = format!("seeded {seeded}, budget {budget}");
        assert_eq!(out.status, status, "{point}");
        assert_eq!(out.source, source, "{point}");
        assert_eq!(out.stats.nodes, nodes, "{point}");
        assert_eq!(out.stats.lp_iterations, pivots, "{point}");
        let cost = out.solution.map(|s| s.communication_cost());
        assert_eq!(cost, Some(13), "{point}");
        if out.best_bound.is_finite() {
            assert!(out.best_bound <= 13.0, "{point}: bound {}", out.best_bound);
        }
    }
}
