//! Golden tests: the six paper graphs and their table-row models are
//! reproducible bit-for-bit across runs and machines (fixed seeds, fixed
//! construction order). A failure here means the published numbers in
//! EXPERIMENTS.md no longer describe what the code builds.

use tempart_bench::{date98_device, date98_instance, paper_graph};
use tempart_core::{IlpModel, ModelConfig, SolveOptions};
use tempart_lp::{Branching, MipStatus, Pricing};

#[test]
fn paper_graph_shapes_are_stable() {
    // (tasks, ops, edges, total bandwidth) per graph. These pin the seeds:
    // regenerating with a different RNG stream would change the edge count
    // or bandwidth sum even if the op counts stayed right.
    let expected: [(usize, usize, usize, u64); 6] = [
        (5, 22, 5, 28),
        (10, 37, 16, 62),
        (10, 45, 14, 64),
        (10, 44, 17, 60),
        (10, 65, 16, 61),
        (10, 72, 12, 53),
    ];
    for (no, &(tasks, ops, edges, bw)) in expected.iter().enumerate() {
        let g = paper_graph(no + 1);
        assert_eq!(g.num_tasks(), tasks, "graph {} tasks", no + 1);
        assert_eq!(g.num_ops(), ops, "graph {} ops", no + 1);
        assert_eq!(g.task_edges().len(), edges, "graph {} edges", no + 1);
        assert_eq!(g.total_edge_bandwidth(), bw, "graph {} bandwidth", no + 1);
    }
}

#[test]
fn table_row_model_sizes_are_stable() {
    // Var/Const counts of the flagship rows — the columns EXPERIMENTS.md
    // reports. A change here is fine *if intentional*: update both this test
    // and EXPERIMENTS.md together.
    type Row = (usize, (u32, u32, u32), u32, u32);
    let rows: [Row; 3] = [
        (1, (2, 2, 1), 3, 1),
        (1, (2, 2, 1), 2, 2),
        (1, (2, 2, 1), 2, 3),
    ];
    for (g, (a, m, s), n, l) in rows {
        let inst = date98_instance(g, a, m, s, date98_device()).unwrap();
        let model = IlpModel::build(inst, ModelConfig::tightened(n, l)).unwrap();
        let stats = model.stats();
        assert!(stats.num_vars > 0 && stats.num_constraints > 0);
        // The family sum must equal the total (no untracked rows).
        assert_eq!(
            stats.num_constraints,
            stats.families.iter().map(|&(_, c)| c).sum::<usize>(),
            "g{g} N{n} L{l}"
        );
    }
}

#[test]
fn serial_search_node_counts_pinned() {
    // Exact node and LP-iteration counts of the `threads = 1` search on
    // graph 1's Table 3 rows. One worker visits nodes in a fixed
    // depth-first order, and that order is part of the reproducibility
    // contract (DESIGN.md §5b): any movement here is a solver change, not
    // run-to-run noise, so each row is solved twice and both runs must
    // agree. Update together with EXPERIMENTS.md if intentional.
    // Each node solves one LP, which factors its starting basis once, so
    // starting factorizations equal nodes.
    // The mid-solve refactorization counts pin the legacy fixed schedule
    // (eta file, refactor every 64 updates): the FT/dynamic machinery must
    // leave the default engine's arithmetic — and therefore its refactor
    // cadence — bit-identical (DESIGN.md §5h).
    type Pin = (
        (u32, u32),
        MipStatus,
        usize,
        usize,
        (usize, usize),
        Option<u64>,
    );
    let expected: [Pin; 4] = [
        ((3, 0), MipStatus::Infeasible, 1, 135, (1, 2), None),
        ((3, 1), MipStatus::Optimal, 585, 10_958, (585, 32), Some(13)),
        ((2, 2), MipStatus::Optimal, 289, 9_157, (289, 58), Some(5)),
        ((2, 3), MipStatus::Optimal, 1, 166, (1, 2), Some(0)),
    ];
    for ((n, l), status, nodes, lp_iters, (factorizations, refactors), cost) in expected {
        let inst = date98_instance(1, 2, 2, 1, date98_device()).unwrap();
        let model = IlpModel::build(inst, ModelConfig::tightened(n, l)).unwrap();
        let mut runs = Vec::new();
        for _ in 0..2 {
            let out = model.solve(&SolveOptions::default()).unwrap();
            assert_eq!(out.status, status, "N{n} L{l} status");
            assert_eq!(out.stats.nodes, nodes, "N{n} L{l} nodes");
            assert_eq!(out.stats.lp_iterations, lp_iters, "N{n} L{l} lp iterations");
            let simplex = &out.stats.simplex;
            assert_eq!(
                (simplex.factorizations, simplex.refactors),
                (factorizations, refactors),
                "N{n} L{l} starting factorizations and refactorizations \
                 (legacy fixed schedule)"
            );
            assert_eq!(
                out.solution.as_ref().map(|s| s.communication_cost()),
                cost,
                "N{n} L{l} objective"
            );
            assert_eq!(
                out.stats.per_worker_nodes,
                vec![nodes],
                "N{n} L{l} one-worker vec"
            );
            let c = &out.stats.contention;
            assert_eq!(
                (
                    c.steals,
                    c.steal_failures,
                    c.lock_waits,
                    c.incumbent_retries
                ),
                (0, 0, 0, 0),
                "N{n} L{l}: one worker never contends"
            );
            runs.push((
                out.stats.nodes,
                out.stats.lp_iterations,
                out.stats.pruned_by_bound,
                out.stats.pruned_infeasible,
                out.stats.incumbent_updates,
            ));
        }
        assert_eq!(runs[0], runs[1], "N{n} L{l}: two runs, one search");
    }
}

#[test]
fn pseudocost_bootstrap_pinned_at_one_worker() {
    // Pseudo-cost branching starts from an empty history, so the root runs
    // strong-branching probes (up to 8 candidates, both directions) before
    // the first pseudo-cost selection. On graph 1's N2 L3 row the root LP
    // is already integral after the probes: one node, 16 probes.
    let inst = date98_instance(1, 2, 2, 1, date98_device()).unwrap();
    let model = IlpModel::build(inst, ModelConfig::tightened(2, 3)).unwrap();
    let mut opts = SolveOptions::default();
    opts.mip.branching = Branching::Pseudocost;
    let out = model.solve(&opts).unwrap();
    assert_eq!(out.status, MipStatus::Optimal);
    assert_eq!(out.stats.nodes, 1, "nodes");
    assert_eq!(out.stats.lp_iterations, 733, "lp iterations");
    assert_eq!(out.stats.scale.strong_branch_solves, 16, "probes");
    assert_eq!(
        out.solution.as_ref().map(|s| s.communication_cost()),
        Some(0)
    );
}

#[test]
fn serial_cuts_on_node_counts_pinned() {
    // The same Table 3 rows under the scale layer's root cuts and node
    // propagation (serial Dantzig, so the search stays deterministic): its
    // own pins beside the features-off ones above. Same optima, far fewer
    // nodes — the flagship N3 L1 row shrinks 585 → 41. The N3 L0 row is
    // proven infeasible by propagation at the root before any node LP is
    // solved (0 nodes; the 135 iterations are the cut loop's root LP).
    // Movement here means the cut separator, the propagator, or the root
    // loop changed — update together with BENCH_scale.json.
    type Pin = ((u32, u32), MipStatus, usize, usize, Option<u64>);
    let expected: [Pin; 4] = [
        ((3, 0), MipStatus::Infeasible, 0, 135, None),
        ((3, 1), MipStatus::Optimal, 41, 3_639, Some(13)),
        ((2, 2), MipStatus::Optimal, 139, 5_559, Some(5)),
        ((2, 3), MipStatus::Optimal, 1, 1_842, Some(0)),
    ];
    for ((n, l), status, nodes, lp_iters, cost) in expected {
        let inst = date98_instance(1, 2, 2, 1, date98_device()).unwrap();
        let model = IlpModel::build(inst, ModelConfig::tightened(n, l)).unwrap();
        let mut opts = SolveOptions::default();
        opts.mip.cuts = true;
        opts.mip.propagate = true;
        let out = model.solve(&opts).unwrap();
        assert_eq!(out.status, status, "N{n} L{l} status");
        assert_eq!(out.stats.nodes, nodes, "N{n} L{l} nodes");
        assert_eq!(out.stats.lp_iterations, lp_iters, "N{n} L{l} lp iterations");
        assert_eq!(
            out.solution.as_ref().map(|s| s.communication_cost()),
            cost,
            "N{n} L{l} objective"
        );
    }
}

#[test]
fn devex_search_node_counts_pinned() {
    // The devex/bound-flipping engine follows its own pivot sequence, so it
    // gets its own pins on the same rows: equal optima (the determinism
    // contract), fewer nodes and fewer total LP iterations than the Dantzig
    // pins above on the flagship N3 L1 row. Movement here means the
    // incremental engine changed.
    type Pin = ((u32, u32), MipStatus, usize, usize, Option<u64>);
    let expected: [Pin; 4] = [
        ((3, 0), MipStatus::Infeasible, 1, 146, None),
        ((3, 1), MipStatus::Optimal, 459, 10_411, Some(13)),
        ((2, 2), MipStatus::Optimal, 141, 9_236, Some(5)),
        ((2, 3), MipStatus::Optimal, 1, 199, Some(0)),
    ];
    for ((n, l), status, nodes, lp_iters, cost) in expected {
        let inst = date98_instance(1, 2, 2, 1, date98_device()).unwrap();
        let model = IlpModel::build(inst, ModelConfig::tightened(n, l)).unwrap();
        let mut opts = SolveOptions::default();
        opts.mip.lp.pricing = Pricing::Devex;
        let out = model.solve(&opts).unwrap();
        assert_eq!(out.status, status, "N{n} L{l} status");
        assert_eq!(out.stats.nodes, nodes, "N{n} L{l} nodes");
        assert_eq!(out.stats.lp_iterations, lp_iters, "N{n} L{l} lp iterations");
        assert_eq!(
            out.solution.as_ref().map(|s| s.communication_cost()),
            cost,
            "N{n} L{l} objective"
        );
    }
}

#[test]
fn parallel_search_same_optimum_on_flagship_row() {
    // The hardest Table 3 row of graph 1 (585 serial nodes): 2 and 4 worker
    // threads must prove the same optimal communication cost. Node counts
    // are intentionally unchecked — they are nondeterministic above one
    // thread.
    let serial_cost = 13;
    for threads in [2usize, 4] {
        let inst = date98_instance(1, 2, 2, 1, date98_device()).unwrap();
        let model = IlpModel::build(inst, ModelConfig::tightened(3, 1)).unwrap();
        let mut opts = SolveOptions::default();
        opts.mip.threads = threads;
        let out = model.solve(&opts).unwrap();
        assert_eq!(out.status, MipStatus::Optimal, "threads {threads}");
        let sol = out.solution.expect("optimal has solution");
        assert_eq!(sol.communication_cost(), serial_cost, "threads {threads}");
        assert_eq!(out.stats.per_worker_nodes.len(), threads);
        assert_eq!(
            out.stats.per_worker_nodes.iter().sum::<usize>(),
            out.stats.nodes,
            "threads {threads}: per-worker counts must sum to the total"
        );
    }
}

#[test]
fn parallel_node_counts_stay_bounded_on_paper_rows() {
    // The work-stealing search publishes every incumbent through the
    // lock-free exchange before the next node is dispatched, so the
    // parallel tree cannot blow far past the serial one (an earlier
    // scheduler let this N2 L2 row drift from ~435 serial nodes past 600
    // on a stale incumbent). The bound is deliberately loose — steal order
    // legitimately perturbs the visit order — but tight enough to catch a
    // stale-incumbent regression.
    let serial = 289; // N2 L2 Dantzig pin above
    for threads in [2usize, 4] {
        let inst = date98_instance(1, 2, 2, 1, date98_device()).unwrap();
        let model = IlpModel::build(inst, ModelConfig::tightened(2, 2)).unwrap();
        let mut opts = SolveOptions::default();
        opts.mip.threads = threads;
        let out = model.solve(&opts).unwrap();
        assert_eq!(out.status, MipStatus::Optimal, "threads {threads}");
        assert_eq!(
            out.solution.as_ref().map(|s| s.communication_cost()),
            Some(5),
            "threads {threads} objective"
        );
        assert!(
            out.stats.nodes <= serial * 3 / 2 + threads,
            "threads {threads}: {} nodes vs {serial} serial — stale incumbent?",
            out.stats.nodes
        );
    }
}

#[test]
fn flagship_row_counts_pinned() {
    // Exact pins for graph 1's Table 3 rows. If these move, the seeds or the
    // formulation changed — EXPERIMENTS.md must be regenerated.
    let inst = date98_instance(1, 2, 2, 1, date98_device()).unwrap();
    let model = IlpModel::build(inst, ModelConfig::tightened(3, 1)).unwrap();
    let stats = model.stats().clone();
    let again = date98_instance(1, 2, 2, 1, date98_device()).unwrap();
    let again = IlpModel::build(again, ModelConfig::tightened(3, 1)).unwrap();
    assert_eq!(&stats, again.stats(), "same build twice, same model");
}
