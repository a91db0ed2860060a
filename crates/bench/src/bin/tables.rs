//! Regenerates the paper's tables and the extension studies.
//!
//! ```text
//! cargo run --release -p tempart-bench --bin tables -- <experiment> [--limit SECS] [--threads T]
//! ```
//!
//! Experiments: `table1`, `table2`, `table3`, `table4`, `ablation`,
//! `simulate`, `parallel`, `simplex`, `kernel`, `resilience`,
//! `scale`, `service`, `all` (plus `scale-smoke` and `kernel-smoke`, the
//! budgeted CI variants of `scale` and `kernel`). The `service` experiment drives the solve server's
//! load-generator sweep (`service-bench` in the server crate) and writes
//! `BENCH_service.json`. The `race` experiment (requires `--features
//! race`) explores the lock-free-core models under full DPOR and writes
//! `BENCH_race.json`; it is not part of `all`.
//! The default
//! per-row time limit is 600 s (the paper cut Table 1 off at 7200 s on a
//! 175 MHz UltraSparc; modern hardware needs far less to show the same
//! contrast). The `resilience` experiment sweeps deterministic work
//! budgets over the graph-1 workhorse and records the anytime
//! gap-vs-deadline curve to `BENCH_resilience.json`.
//!
//! `--threads T` runs every table row on `T` branch-and-bound workers
//! (`0` = one per CPU; default `1`, the deterministic one-worker search).
//! The
//! `parallel` experiment ignores it and sweeps its own thread counts over
//! the work-stealing scheduler, writing the measurements — per-node
//! wall-clock, per-worker busy time, and the contention counters — plus a
//! pinned acceptance bar to `BENCH_parallel.json`. The `simplex`
//! experiment sweeps the pricing
//! rules (Dantzig / devex / Bland) over the same instances and writes
//! `BENCH_simplex.json`. The `kernel` experiment compares the two
//! basis-maintenance engines (the eta file vs Markowitz-pivoted
//! Forrest–Tomlin with the dynamic refactorization trigger) on an
//! equivalence tier, the flagship row, and the `--scale` replicated
//! instances, and writes `BENCH_kernel.json`.

use tempart_bench::report::{format_markdown, format_table};
use tempart_bench::{
    date98_device, date98_instance, date98_scaled_instance, run_row, ExperimentRow, RowConfig,
};
use tempart_core::{CutSet, IlpModel, Linearization, ModelConfig, RuleKind, SolveOptions, WForm};
use tempart_lp::{solve_lp, BasisUpdate, Branching, LpOptions, MipOptions, Pricing};
use tempart_sim::{execute, naive_partitioning};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut limit = 600.0f64;
    let mut threads = 1usize;
    let mut experiments: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--limit" {
            limit = it
                .next()
                .and_then(|s| s.parse().ok())
                .expect("--limit takes seconds");
        } else if a == "--threads" {
            threads = it
                .next()
                .and_then(|s| s.parse().ok())
                .expect("--threads takes a worker count (0 = all CPUs)");
        } else {
            experiments.push(a);
        }
    }
    if experiments.is_empty() {
        experiments.push("all".to_string());
    }
    for e in experiments {
        match e.as_str() {
            "table1" => table1(limit, threads),
            "table2" => table2(limit, threads),
            "table3" => table3(limit, threads),
            "table4" => table4(limit, threads),
            "ablation" => ablation(limit, threads),
            "simulate" => simulate(threads),
            "parallel" => parallel(limit),
            "simplex" => simplex(limit),
            "kernel" => kernel(limit, false),
            "kernel-smoke" => kernel(limit, true),
            "resilience" => resilience(limit),
            "scale" => scale(limit, false),
            "scale-smoke" => scale(limit, true),
            "service" => service(limit),
            "race" => race(),
            "all" => {
                table1(limit, threads);
                table2(limit, threads);
                table3(limit, threads);
                table4(limit, threads);
                ablation(limit, threads);
                simulate(threads);
                parallel(limit);
                simplex(limit);
                kernel(limit, false);
                resilience(limit);
                scale(limit, false);
                service(limit);
            }
            other => eprintln!(
                "unknown experiment `{other}` (try table1..4, ablation, simulate, parallel, simplex, kernel, kernel-smoke, resilience, scale, scale-smoke, service, race, all)"
            ),
        }
    }
}

fn run_and_print(title: &str, rows: &[RowConfig], limit: f64) -> Vec<ExperimentRow> {
    let mut results = Vec::new();
    for cfg in rows {
        match run_row(cfg) {
            Ok(r) => results.push(r),
            Err(e) => eprintln!("row failed: {e}"),
        }
    }
    println!("{}", format_table(title, &results, limit));
    println!("{}", format_markdown(&results, limit));
    results
}

/// The four preliminary rows, solved with the *basic* model — Fortet
/// product linearization, per-product `w` (4)–(5), no cuts — and the
/// unguided lowest-index rule: the paper's Table 1 setup, where three of
/// four rows blew the 7200 s budget before the §4/§6 improvements.
fn table1(limit: f64, threads: usize) {
    let rows: Vec<RowConfig> = [
        (1, (2, 2, 1), 3u32, 1u32),
        (1, (2, 2, 1), 2, 2),
        (1, (2, 2, 1), 2, 3),
        (3, (2, 2, 2), 3, 1),
    ]
    .into_iter()
    .map(|(g, ams, n, l)| {
        let config = ModelConfig::basic(n, l).with_linearization(Linearization::Fortet);
        let mut cfg = RowConfig::new(g, ams, config, RuleKind::FirstIndex, limit);
        cfg.solve.mip.threads = threads;
        cfg
    })
    .collect();
    run_and_print(
        "Table 1: basic formulation, unguided branching",
        &rows,
        limit,
    );
}

/// Same rows with the tightened constraints (Glover + cuts (28)-(30),(32) +
/// aggregated (31)), still unguided — the paper's Table 2.
fn table2(limit: f64, threads: usize) {
    let rows: Vec<RowConfig> = [
        (1, (2, 2, 1), 3u32, 1u32),
        (1, (2, 2, 1), 2, 2),
        (1, (2, 2, 1), 2, 3),
        (3, (2, 2, 2), 3, 1),
    ]
    .into_iter()
    .map(|(g, ams, n, l)| {
        let config = ModelConfig::tightened(n, l);
        let mut cfg = RowConfig::new(g, ams, config, RuleKind::FirstIndex, limit);
        cfg.solve.mip.threads = threads;
        cfg
    })
    .collect();
    run_and_print(
        "Table 2: tightened constraints, unguided branching",
        &rows,
        limit,
    );
}

/// Latency/partition trade-off on graph 1 (paper Table 3): tightened model
/// with the §8 guided rule.
fn table3(limit: f64, threads: usize) {
    let rows: Vec<RowConfig> = [(3u32, 0u32), (3, 1), (2, 2), (2, 3)]
        .into_iter()
        .map(|(n, l)| {
            let config = ModelConfig::tightened(n, l);
            let mut cfg = RowConfig::new(1, (2, 2, 1), config, RuleKind::Paper, limit);
            cfg.solve.mip.threads = threads;
            cfg
        })
        .collect();
    run_and_print(
        "Table 3: latency/partition trade-off on graph 1 (guided)",
        &rows,
        limit,
    );
}

/// All six graphs with the published (N, A+M+S, L) parameters (paper
/// Table 4): tightened model + guided rule.
fn table4(limit: f64, threads: usize) {
    // The paper's graphs and device are unpublished; these rows keep the
    // published N and A+M+S and re-fit L per substitute graph (smallest L at
    // which the instance is decidable — EXPERIMENTS.md "Deviations"). The
    // graph-4 N=3 row sits exactly on the feasibility boundary: the most
    // expensive, most interesting solve of the set.
    let rows: Vec<RowConfig> = [
        (1, (2u32, 2u32, 1u32), 3u32, 1u32),
        (2, (3, 2, 2), 4, 5),
        (3, (2, 2, 2), 3, 5),
        (4, (2, 2, 2), 2, 6),
        (4, (2, 2, 2), 3, 5),
        (5, (2, 2, 2), 3, 6),
        (5, (2, 2, 2), 2, 6),
        (6, (2, 2, 2), 2, 13),
        (6, (2, 2, 2), 3, 13),
    ]
    .into_iter()
    .map(|(g, ams, n, l)| {
        let config = ModelConfig::tightened(n, l);
        let mut cfg = RowConfig::new(g, ams, config, RuleKind::Paper, limit);
        cfg.solve.seed_incumbent = true;
        cfg.solve.mip.threads = threads;
        cfg
    })
    .collect();
    run_and_print(
        "Table 4: temporal partitioning results (guided)",
        &rows,
        limit,
    );
}

/// Ablation of the paper's design choices on the Table 3 workhorse
/// (graph 1, N=3, L=1): linearization method, cut families, branching rule.
fn ablation(limit: f64, threads: usize) {
    println!("Ablation: graph 1, N=3, L=1 (time limit {limit:.0} s per cell)");
    println!(
        "{:<34} {:>9} {:>9} {:>8} {:>8}",
        "variant", "time(s)", "feasible", "cost", "nodes"
    );
    let base = ModelConfig::tightened(3, 1);
    let variants: Vec<(String, ModelConfig, RuleKind, bool)> = vec![
        (
            "tightened + paper rule".into(),
            base.clone(),
            RuleKind::Paper,
            false,
        ),
        (
            "tightened + paper + incumbent".into(),
            base.clone(),
            RuleKind::Paper,
            true,
        ),
        (
            "tightened + first-index".into(),
            base.clone(),
            RuleKind::FirstIndex,
            false,
        ),
        (
            "tightened + most-fractional".into(),
            base.clone(),
            RuleKind::MostFractional,
            false,
        ),
        (
            "fortet products + paper rule".into(),
            base.clone().with_linearization(Linearization::Fortet),
            RuleKind::Paper,
            false,
        ),
        (
            "basic (no cuts) + paper rule".into(),
            ModelConfig::basic(3, 1),
            RuleKind::Paper,
            false,
        ),
        (
            "no producer cut (28)".into(),
            base.clone().with_cuts(CutSet {
                producer_after: false,
                ..CutSet::ALL
            }),
            RuleKind::Paper,
            false,
        ),
        (
            "no consumer cut (29)".into(),
            base.clone().with_cuts(CutSet {
                consumer_before: false,
                ..CutSet::ALL
            }),
            RuleKind::Paper,
            false,
        ),
        (
            "no same-partition cut (30)".into(),
            base.clone().with_cuts(CutSet {
                same_partition: false,
                ..CutSet::ALL
            }),
            RuleKind::Paper,
            false,
        ),
        (
            "no usage-link cut (32)".into(),
            base.clone().with_cuts(CutSet {
                usage_link: false,
                ..CutSet::ALL
            }),
            RuleKind::Paper,
            false,
        ),
    ];
    for (name, config, rule, seed_incumbent) in variants {
        let mut cfg = RowConfig::new(1, (2, 2, 1), config, rule, limit);
        cfg.solve.seed_incumbent = seed_incumbent;
        cfg.solve.mip.threads = threads;
        match run_row(&cfg) {
            Ok(r) => println!(
                "{:<34} {:>9} {:>9} {:>8} {:>8}",
                name,
                r.runtime_display(limit),
                r.feasible_display(),
                r.cost.map_or("-".to_string(), |c| c.to_string()),
                r.nodes
            ),
            Err(e) => println!("{name:<34} ERROR {e}"),
        }
    }
    println!();
}

/// End-to-end execution study: ILP-optimal vs bandwidth-oblivious naive
/// partitioning, total cycles including reconfiguration and staging.
fn simulate(threads: usize) {
    println!("Simulation: ILP vs naive partitioning (total execution cycles)");
    println!(
        "{:<7} {:>2} {:>2} {:>9} {:>10} {:>12} {:>12} {:>8}",
        "graph", "N", "L", "ilp-cost", "nv-cost", "ilp-cycles", "nv-cycles", "saved"
    );
    // Per-graph (N, L) settings at which the instance is decidable (see
    // EXPERIMENTS.md "Deviations").
    for (g, ams, n, l, budget) in [
        (1usize, (2u32, 2u32, 1u32), 3u32, 1u32, 120.0f64),
        (2, (3, 2, 2), 4, 5, 120.0),
        (3, (2, 2, 2), 3, 5, 120.0),
        (4, (2, 2, 2), 3, 5, 300.0),
    ] {
        let device = date98_device();
        let Ok(inst) = date98_instance(g, ams.0, ams.1, ams.2, device) else {
            continue;
        };
        let config = ModelConfig::tightened(n, l);
        let Ok(model) = IlpModel::build(inst.clone(), config.clone()) else {
            continue;
        };
        let mip = MipOptions {
            time_limit_secs: budget,
            threads,
            ..MipOptions::default()
        };
        let Ok(out) = model.solve(&SolveOptions {
            mip,
            rule: RuleKind::Paper,
            seed_incumbent: true,
        }) else {
            continue;
        };
        let Some(ilp) = out.solution else {
            println!(
                "{:<7} {n:>2} {l:>2} (no solution within {budget:.0}s)",
                format!("graph{g}")
            );
            continue;
        };
        let ri = execute(&inst, &ilp);
        match naive_partitioning(&inst, &config) {
            Some(naive) => {
                let rn = execute(&inst, &naive);
                println!(
                    "{:<7} {n:>2} {l:>2} {:>9} {:>10} {:>12} {:>12} {:>7.1}%",
                    format!("graph{g}"),
                    ilp.communication_cost(),
                    naive.communication_cost(),
                    ri.total_cycles(),
                    rn.total_cycles(),
                    100.0 * (1.0 - ri.total_cycles() as f64 / rn.total_cycles().max(1) as f64)
                );
            }
            None => {
                // The bandwidth-oblivious packer cannot even fit the horizon.
                println!(
                    "{:<7} {n:>2} {l:>2} {:>9} {:>10} {:>12} {:>12} {:>8}",
                    format!("graph{g}"),
                    ilp.communication_cost(),
                    "n/a",
                    ri.total_cycles(),
                    "n/a",
                    "-"
                );
            }
        }
    }
    println!();
}

/// Parallel-search speedup study: the heaviest decidable serial rows,
/// re-solved at 1, 2, and 4 branch-and-bound workers on the work-stealing
/// scheduler. Each cell is the best of three runs (wall-clock noise on
/// sub-second solves is real); the serial baseline is the exact
/// deterministic solver the tables use.
///
/// The headline per-node metric is `node_wall_us` — wall-clock per node,
/// which is flat in thread count at fixed per-node cost and *drops* with
/// effective parallelism. (The old `node_lp_us` summed LP time across
/// workers before dividing, so it grew with thread count even when nothing
/// regressed; that sum is still reported as `aggregate_lp_us_per_node`,
/// labeled as total CPU work.) Contention counters (steals, steal
/// failures, CoW basis clones, incumbent-exchange retries, lock waits) and
/// per-worker busy time go into `BENCH_parallel.json` alongside the
/// timings, and the host CPU count is recorded because it caps the
/// measured speedup: on a 1-CPU container the acceptance bar is per-node
/// wall overhead within 10% of serial, on a ≥4-core host it is ≥2×
/// wall-clock speedup at 4 threads on g1-N3-L1.
fn parallel(limit: f64) {
    const THREADS: [usize; 3] = [1, 2, 4];
    const REPS: usize = 3;
    // (label, graph, ams, N, L, rule). The guided rows are the unseeded
    // Table 3 workhorses (585 and 289 serial nodes); the unguided row is the
    // Table 2 flagship — ~10.7k cheap nodes, the tree shape where node-level
    // parallelism pays most.
    type Case = (&'static str, usize, (u32, u32, u32), u32, u32, RuleKind);
    let cases: [Case; 3] = [
        ("g1-N3-L1", 1, (2, 2, 1), 3, 1, RuleKind::Paper),
        ("g1-N2-L2", 1, (2, 2, 1), 2, 2, RuleKind::Paper),
        (
            "g1-N3-L1-unguided",
            1,
            (2, 2, 1),
            3,
            1,
            RuleKind::FirstIndex,
        ),
    ];
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    println!("Parallel branch and bound: wall-clock speedup over the serial solver");
    println!(
        "(host has {host_cpus} CPU{}; speedup is capped by the host core count)",
        if host_cpus == 1 { "" } else { "s" }
    );
    println!(
        "{:<18} {:>7} {:>9} {:>7} {:>5} {:>8} {:>10} {:>7} {:>6} {:>6}",
        "instance",
        "threads",
        "wall(ms)",
        "nodes",
        "cost",
        "speedup",
        "nd-wall-us",
        "steals",
        "cow",
        "waits"
    );
    let mut json_rows: Vec<String> = Vec::new();
    // (threads, wall_ms, node_wall_us) per case, for the acceptance bar.
    let mut flagship: Vec<(usize, f64, f64)> = Vec::new();
    for (label, g, ams, n, l, rule) in cases {
        let mut serial_ms = None;
        for threads in THREADS {
            let mut cfg = RowConfig::new(g, ams, ModelConfig::tightened(n, l), rule, limit);
            cfg.solve.mip.threads = threads;
            let mut best: Option<ExperimentRow> = None;
            for _ in 0..REPS {
                match run_row(&cfg) {
                    Ok(r) => {
                        if best.as_ref().is_none_or(|b| r.seconds < b.seconds) {
                            best = Some(r);
                        }
                    }
                    Err(e) => eprintln!("{label} x{threads} failed: {e}"),
                }
            }
            let Some(row) = best else { continue };
            let wall_ms = row.seconds * 1e3;
            if threads == 1 {
                serial_ms = Some(wall_ms);
            }
            let speedup = serial_ms.map(|s| s / wall_ms);
            let c = row.stats.contention;
            if label == "g1-N3-L1" {
                flagship.push((threads, wall_ms, row.node_wall_us()));
            }
            println!(
                "{:<18} {:>7} {:>9.1} {:>7} {:>5} {:>8} {:>10.1} {:>7} {:>6} {:>6}",
                label,
                threads,
                wall_ms,
                row.nodes,
                row.cost.map_or("-".to_string(), |c| c.to_string()),
                speedup.map_or("-".to_string(), |s| format!("{s:.2}x")),
                row.node_wall_us(),
                c.steals,
                c.cow_clones,
                c.lock_waits,
            );
            let busy_ms: Vec<String> = row
                .stats
                .per_worker_busy_secs
                .iter()
                .map(|s| format!("{:.3}", s * 1e3))
                .collect();
            json_rows.push(format!(
                "  {{\"instance\": \"{label}\", \"threads\": {threads}, \"host_cpus\": {host_cpus}, \
                 \"nodes\": {}, \"lp_iterations\": {}, \"node_wall_us\": {:.3}, \
                 \"aggregate_lp_us_per_node\": {:.3}, \"wall_ms\": {:.3}, \
                 \"worker_busy_ms\": [{}], \"steals\": {}, \"steal_failures\": {}, \
                 \"cow_clones\": {}, \"incumbent_retries\": {}, \"lock_waits\": {}, \
                 \"cost\": {}, \"speedup\": {}}}",
                row.nodes,
                row.lp_iterations,
                row.node_wall_us(),
                row.aggregate_lp_us_per_node(),
                wall_ms,
                busy_ms.join(", "),
                c.steals,
                c.steal_failures,
                c.cow_clones,
                c.incumbent_retries,
                c.lock_waits,
                row.cost.map_or("null".to_string(), |c| c.to_string()),
                speedup.map_or("null".to_string(), |s| format!("{s:.4}")),
            ));
        }
    }
    // Pinned acceptance bar on the flagship guided row: ≥2× speedup at 4
    // threads on a ≥4-core host; on smaller hosts (this container has 1
    // CPU) parallelism cannot pay, so the bar is scheduler overhead — wall
    // clock per node at 4 threads within 10% of serial.
    let bar = {
        let at = |t: usize| flagship.iter().find(|&&(th, _, _)| th == t);
        match (at(1), at(4)) {
            (Some(&(_, s_ms, s_nwu)), Some(&(_, p_ms, p_nwu))) => {
                let (criterion, value, pass) = if host_cpus >= 4 {
                    ("speedup_at_4_threads_ge_2", s_ms / p_ms, s_ms / p_ms >= 2.0)
                } else {
                    (
                        "node_wall_overhead_at_4_threads_le_1.10",
                        p_nwu / s_nwu,
                        p_nwu / s_nwu <= 1.10,
                    )
                };
                println!(
                    "acceptance [{}]: {criterion} = {value:.3} on g1-N3-L1",
                    if pass { "PASS" } else { "FAIL" }
                );
                format!(
                    "  {{\"acceptance\": \"{criterion}\", \"instance\": \"g1-N3-L1\", \
                     \"host_cpus\": {host_cpus}, \"value\": {value:.4}, \"pass\": {pass}}}"
                )
            }
            _ => "  {\"acceptance\": \"missing-flagship-rows\", \"pass\": false}".to_string(),
        }
    };
    json_rows.push(bar);
    let json = format!("[\n{}\n]\n", json_rows.join(",\n"));
    match std::fs::write("BENCH_parallel.json", &json) {
        Ok(()) => println!("wrote BENCH_parallel.json ({} rows)", json_rows.len()),
        Err(e) => eprintln!("cannot write BENCH_parallel.json: {e}"),
    }
    println!();
}

/// Pricing-rule study: the serial solver re-run under each simplex pricing
/// mode with the profiling layer on. Dantzig is the pinned legacy engine and
/// the baseline; devex adds incremental reduced costs, hypersparse solves,
/// and the bound-flipping dual ratio test; Bland is the anti-cycling rule
/// (slow by design — included as the lower anchor). Every mode proves the
/// same optimum. Each cell is the best of three runs; results go to stdout
/// and `BENCH_simplex.json`.
fn simplex(limit: f64) {
    const PRICINGS: [Pricing; 3] = [Pricing::Dantzig, Pricing::Devex, Pricing::Bland];
    const REPS: usize = 3;
    // The parallel study's three workhorses: two guided Table 3 rows and the
    // unguided Table 2 flagship (~10.7k nodes — the LP-bound regime where
    // pricing dominates the runtime).
    type Case = (&'static str, usize, (u32, u32, u32), u32, u32, RuleKind);
    let cases: [Case; 3] = [
        ("g1-N3-L1", 1, (2, 2, 1), 3, 1, RuleKind::Paper),
        ("g1-N2-L2", 1, (2, 2, 1), 2, 2, RuleKind::Paper),
        (
            "g1-N3-L1-unguided",
            1,
            (2, 2, 1),
            3,
            1,
            RuleKind::FirstIndex,
        ),
    ];
    println!("Simplex pricing: serial solver under each pricing rule (profiling on)");
    println!(
        "{:<18} {:>8} {:>9} {:>8} {:>9} {:>7} {:>6} {:>8}",
        "instance", "pricing", "lp-iters", "flips", "wall(ms)", "nodes", "cost", "speedup"
    );
    let mut json_rows: Vec<String> = Vec::new();
    for (label, g, ams, n, l, rule) in cases {
        let mut dantzig_ms = None;
        for pricing in PRICINGS {
            let mut cfg = RowConfig::new(g, ams, ModelConfig::tightened(n, l), rule, limit);
            cfg.solve.mip.lp.pricing = pricing;
            cfg.solve.mip.lp.profile = true;
            let mut best: Option<ExperimentRow> = None;
            for _ in 0..REPS {
                match run_row(&cfg) {
                    Ok(r) => {
                        if best.as_ref().is_none_or(|b| r.seconds < b.seconds) {
                            best = Some(r);
                        }
                    }
                    Err(e) => eprintln!("{label} {pricing} failed: {e}"),
                }
            }
            let Some(row) = best else { continue };
            let wall_ms = row.seconds * 1e3;
            if pricing == Pricing::Dantzig {
                dantzig_ms = Some(wall_ms);
            }
            let speedup = dantzig_ms.map(|d| d / wall_ms);
            let p = &row.stats.simplex;
            println!(
                "{:<18} {:>8} {:>9} {:>8} {:>9.1} {:>7} {:>6} {:>8}",
                label,
                pricing.as_str(),
                row.lp_iterations,
                p.bound_flips,
                wall_ms,
                row.nodes,
                row.cost.map_or("-".to_string(), |c| c.to_string()),
                speedup.map_or("-".to_string(), |s| format!("{s:.2}x")),
            );
            json_rows.push(format!(
                "  {{\"instance\": \"{label}\", \"pricing\": \"{}\", \"nodes\": {}, \
                 \"lp_iterations\": {}, \"bound_flips\": {}, \"devex_resets\": {}, \
                 \"refactors\": {}, \"wall_ms\": {:.3}, \"lp_ms\": {:.3}, \
                 \"pricing_ms\": {:.3}, \"ftran_ms\": {:.3}, \"btran_ms\": {:.3}, \
                 \"ratio_ms\": {:.3}, \"refactor_ms\": {:.3}, \
                 \"update_ms\": {:.3}, \"other_ms\": {:.3}, \
                 \"cost\": {}, \"speedup_vs_dantzig\": {}}}",
                pricing.as_str(),
                row.nodes,
                row.lp_iterations,
                p.bound_flips,
                p.devex_resets,
                p.refactors,
                wall_ms,
                p.lp_secs * 1e3,
                p.pricing_secs * 1e3,
                p.ftran_secs * 1e3,
                p.btran_secs * 1e3,
                p.ratio_secs * 1e3,
                p.refactor_secs * 1e3,
                p.update_secs * 1e3,
                p.other_secs * 1e3,
                row.cost.map_or("null".to_string(), |c| c.to_string()),
                speedup.map_or("null".to_string(), |s| format!("{s:.4}")),
            ));
        }
    }
    let json = format!("[\n{}\n]\n", json_rows.join(",\n"));
    match std::fs::write("BENCH_simplex.json", &json) {
        Ok(()) => println!("wrote BENCH_simplex.json ({} rows)", json_rows.len()),
        Err(e) => eprintln!("cannot write BENCH_simplex.json: {e}"),
    }
    println!();
}

/// Kernel-speed study (DESIGN.md §5h): the two basis-maintenance engines —
/// the pinned legacy eta file on its fixed refactorization interval, and
/// Markowitz-pivoted Forrest–Tomlin under the dynamic refactorization
/// trigger — compared on three tiers:
///
/// 1. *Equivalence*: every decidable Table 4 row (all six paper graphs),
///    solved guided and seeded under each kernel. The bar is identical
///    proven optima everywhere — the FT machinery changes arithmetic
///    cost, never answers. The scaled leg of the claim rides on tier 3:
///    where the root LP converges under the cap, every kernel must land
///    on the same LP optimum (the doubled-chain MIPs themselves are
///    undecidable in any reasonable budget).
/// 2. *Flagship*: the Table 2 unguided workhorse end-to-end, best of
///    `REPS` runs per kernel, with the pinned acceptance bar: the FT
///    kernel ≥1.25× the eta baseline's wall clock at the same proven
///    optimum 13.
/// 3. *Scaled*: externally timed root-LP solves at a fixed pivot cap on
///    the replicate-and-chain instances, including the ≥500-op `g1x23`
///    row. Both kernels spend the identical pivot budget, so the
///    wall-clock ratio *is* the LP-time ratio; the bar is FT ≥1.5× eta.
///
/// Every row stamps `host_cpus` and the instance size (`ops`, `rows`,
/// `cols`, `nnz`) so artifacts measured on different hosts stay
/// comparable. Results go to stdout and `BENCH_kernel.json` (written via
/// `BENCH_kernel.json.tmp` and renamed, so an interrupted run never
/// leaves a truncated artifact). `kernel-smoke` is the budgeted CI
/// variant: the g1 row only on the equivalence tier, single reps, the
/// smaller scaled row as the speed bar, and a separate gitignored artifact
/// (`BENCH_kernel_smoke.json`) so local `verify.sh` runs never clobber the
/// committed full-budget one.
fn kernel(limit: f64, smoke: bool) {
    // Each kernel is named for its representation and the refactorization
    // trigger that representation carries.
    const KERNELS: [(&str, BasisUpdate); 2] = [
        ("eta/fixed", BasisUpdate::Eta),
        ("ft-markowitz/dynamic", BasisUpdate::FtMarkowitz),
    ];
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let mut json_rows: Vec<String> = Vec::new();
    println!(
        "Kernel study: basis-maintenance engines (eta / FT-Markowitz){}",
        if smoke { " (smoke)" } else { "" }
    );

    // Tier 1 — equivalence: the decidable Table 4 row of every paper graph
    // (graph 4's N3 L5 boundary row is undecidable in the budget; its N2 L6
    // row is the decidable stand-in).
    type EqCase = (&'static str, usize, usize, (u32, u32, u32), u32, u32);
    const EQ_CASES: [EqCase; 6] = [
        ("g1-N3-L1", 1, 1, (2, 2, 1), 3, 1),
        ("g2-N4-L5", 2, 1, (3, 2, 2), 4, 5),
        ("g3-N3-L5", 3, 1, (2, 2, 2), 3, 5),
        ("g4-N2-L6", 4, 1, (2, 2, 2), 2, 6),
        ("g5-N3-L6", 5, 1, (2, 2, 2), 3, 6),
        ("g6-N2-L13", 6, 1, (2, 2, 2), 2, 13),
    ];
    let eq_cases: Vec<EqCase> = if smoke {
        vec![EQ_CASES[0]]
    } else {
        EQ_CASES.to_vec()
    };
    println!(
        "{:<20} {:>20} {:>9} {:>7} {:>9} {:>9} {:>5}",
        "instance", "kernel", "wall(ms)", "nodes", "lp-iters", "refactors", "cost"
    );
    let mut eq_instances = 0usize;
    let mut eq_pass = true;
    for (label, g, k, ams, n, l) in eq_cases {
        let mut costs: Vec<Option<u64>> = Vec::new();
        for (kname, basis_update) in KERNELS {
            let config = ModelConfig::tightened(n, l);
            let mut cfg = RowConfig::new(g, ams, config, RuleKind::Paper, limit);
            cfg.scale = k;
            cfg.solve.seed_incumbent = true;
            cfg.solve.mip.lp.basis_update = basis_update;
            cfg.solve.mip.lp.profile = true;
            let row = match run_row(&cfg) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("kernel equivalence {label} {kname} failed: {e}");
                    eq_pass = false;
                    continue;
                }
            };
            let proven = row
                .cost
                .filter(|_| !row.timed_out && row.feasible == Some(true));
            costs.push(proven);
            let p = &row.stats.simplex;
            println!(
                "{:<20} {:>20} {:>9.1} {:>7} {:>9} {:>9} {:>5}",
                label,
                kname,
                row.seconds * 1e3,
                row.nodes,
                row.lp_iterations,
                p.refactors,
                row.cost.map_or("-".to_string(), |c| c.to_string()),
            );
            json_rows.push(format!(
                "  {{\"tier\": \"equivalence\", \"instance\": \"{label}\", \
                 \"kernel\": \"{kname}\", \"optimal\": {}, \"cost\": {}, \
                 \"nodes\": {}, \"lp_iterations\": {}, \"refactors\": {}, \
                 \"wall_ms\": {:.3}, \"host_cpus\": {host_cpus}, \"ops\": {}, \
                 \"rows\": {}, \"cols\": {}, \"nnz\": {}}}",
                proven.is_some(),
                row.cost.map_or("null".to_string(), |c| c.to_string()),
                row.nodes,
                row.lp_iterations,
                p.refactors,
                row.seconds * 1e3,
                row.opers,
                row.consts,
                row.vars,
                row.nnz,
            ));
        }
        eq_instances += 1;
        let agreed = costs.len() == KERNELS.len()
            && costs
                .first()
                .is_some_and(|first| first.is_some() && costs.iter().all(|c| c == first));
        if !agreed {
            eq_pass = false;
            eprintln!("kernel equivalence {label}: kernels disagree ({costs:?})");
        }
    }
    json_rows.push(format!(
        "  {{\"acceptance\": \"identical_optima_across_kernels\", \
         \"instances\": {eq_instances}, \"kernels\": {}, \"pass\": {eq_pass}}}",
        KERNELS.len(),
    ));
    println!(
        "acceptance [{}]: identical optima across {} kernels on {} instances",
        if eq_pass { "PASS" } else { "FAIL" },
        KERNELS.len(),
        eq_instances,
    );

    // Tier 2 — flagship end-to-end (Table 2 unguided workhorse).
    let reps = if smoke { 1 } else { 2 };
    let mut flagship: Vec<(&str, ExperimentRow)> = Vec::new();
    for (kname, basis_update) in KERNELS {
        let config = ModelConfig::tightened(3, 1);
        let mut cfg = RowConfig::new(1, (2, 2, 1), config, RuleKind::FirstIndex, limit);
        cfg.solve.mip.lp.basis_update = basis_update;
        cfg.solve.mip.lp.profile = true;
        let mut best: Option<ExperimentRow> = None;
        for _ in 0..reps {
            match run_row(&cfg) {
                Ok(r) => {
                    if best.as_ref().is_none_or(|b| r.seconds < b.seconds) {
                        best = Some(r);
                    }
                }
                Err(e) => eprintln!("kernel flagship {kname} failed: {e}"),
            }
        }
        if let Some(row) = best {
            flagship.push((kname, row));
        }
    }
    let eta_flagship = flagship
        .iter()
        .find(|(k, _)| *k == "eta/fixed")
        .map(|(_, r)| (r.seconds, r.cost));
    for (kname, row) in &flagship {
        let wall_ms = row.seconds * 1e3;
        let speedup = eta_flagship.map(|(eta_secs, _)| eta_secs / row.seconds);
        let p = &row.stats.simplex;
        println!(
            "{:<20} {:>20} {:>9.1} {:>7} {:>9} {:>9} {:>5} {}",
            "g1-N3-L1-unguided",
            kname,
            wall_ms,
            row.nodes,
            row.lp_iterations,
            p.refactors,
            row.cost.map_or("-".to_string(), |c| c.to_string()),
            speedup.map_or("-".to_string(), |s| format!("{s:.2}x vs eta")),
        );
        json_rows.push(format!(
            "  {{\"tier\": \"flagship\", \"instance\": \"g1-N3-L1-unguided\", \
             \"kernel\": \"{kname}\", \"cost\": {}, \"nodes\": {}, \
             \"lp_iterations\": {}, \"refactors\": {}, \"wall_ms\": {:.3}, \
             \"lp_ms\": {:.3}, \"ftran_ms\": {:.3}, \"btran_ms\": {:.3}, \
             \"refactor_ms\": {:.3}, \"update_ms\": {:.3}, \
             \"speedup_vs_eta\": {}, \"host_cpus\": {host_cpus}, \
             \"ops\": {}, \"rows\": {}, \"cols\": {}, \"nnz\": {}}}",
            row.cost.map_or("null".to_string(), |c| c.to_string()),
            row.nodes,
            row.lp_iterations,
            p.refactors,
            wall_ms,
            p.lp_secs * 1e3,
            p.ftran_secs * 1e3,
            p.btran_secs * 1e3,
            p.refactor_secs * 1e3,
            p.update_secs * 1e3,
            speedup.map_or("null".to_string(), |s| format!("{s:.4}")),
            row.opers,
            row.consts,
            row.vars,
            row.nnz,
        ));
    }
    let ft_flagship = flagship.iter().find(|(k, _)| *k != "eta/fixed");
    if smoke {
        // CI hardware varies too much to pin a speed bar; the smoke gate is
        // the answer contract on the flagship row.
        let bar = match (eta_flagship, ft_flagship) {
            (Some((_, eta_cost)), Some((kname, row))) => {
                let pass = eta_cost == Some(13) && row.cost == Some(13);
                format!(
                    "  {{\"acceptance\": \"flagship_same_optimum_across_kernels\", \
                     \"instance\": \"g1-N3-L1-unguided\", \"eta_cost\": {}, \
                     \"ft_kernel\": \"{kname}\", \"ft_cost\": {}, \"pass\": {pass}}}",
                    eta_cost.map_or("null".to_string(), |c| c.to_string()),
                    row.cost.map_or("null".to_string(), |c| c.to_string()),
                )
            }
            _ => "  {\"acceptance\": \"flagship_same_optimum_across_kernels\", \
                  \"pass\": false}"
                .to_string(),
        };
        json_rows.push(bar);
    } else {
        // Pinned acceptance bar: the FT kernel beats the legacy eta
        // baseline by >=1.25x end-to-end at the same proven optimum 13.
        let bar = match (eta_flagship, ft_flagship) {
            (Some((eta_secs, eta_cost)), Some((kname, row))) => {
                let speedup = eta_secs / row.seconds;
                let pass = eta_cost == Some(13) && row.cost == Some(13) && speedup >= 1.25;
                println!(
                    "acceptance [{}]: {kname} {:.0} ms vs eta/fixed {:.0} ms \
                     ({speedup:.2}x — bar >=1.25x) at cost {} vs {}",
                    if pass { "PASS" } else { "FAIL" },
                    row.seconds * 1e3,
                    eta_secs * 1e3,
                    row.cost.map_or("-".to_string(), |c| c.to_string()),
                    eta_cost.map_or("-".to_string(), |c| c.to_string()),
                );
                format!(
                    "  {{\"acceptance\": \"flagship_speedup_ge_1.25_at_cost_13\", \
                     \"instance\": \"g1-N3-L1-unguided\", \"baseline_kernel\": \"eta/fixed\", \
                     \"baseline_ms\": {:.3}, \"best_kernel\": \"{kname}\", \
                     \"best_ms\": {:.3}, \"speedup\": {speedup:.4}, \
                     \"baseline_cost\": {}, \"best_cost\": {}, \"pass\": {pass}}}",
                    eta_secs * 1e3,
                    row.seconds * 1e3,
                    eta_cost.map_or("null".to_string(), |c| c.to_string()),
                    row.cost.map_or("null".to_string(), |c| c.to_string()),
                )
            }
            _ => "  {\"acceptance\": \"flagship_speedup_ge_1.25_at_cost_13\", \
                  \"pass\": false}"
                .to_string(),
        };
        json_rows.push(bar);
    }

    // Tier 3 — scaled root-LP tier: devex-priced solve_lp at a fixed pivot
    // cap, timed externally (hitting the cap is the expected termination;
    // the kernels then spend identical pivot budgets).
    type ScaledCase = (&'static str, usize, u32, u32, usize);
    let scaled_cases: Vec<ScaledCase> = if smoke {
        vec![("g1x4-N3-L6", 4, 3, 6, 1_500)]
    } else {
        vec![
            ("g1x4-N3-L6", 4, 3, 6, 3_000),
            ("g1x23-N3-L2", 23, 3, 2, 3_000),
        ]
    };
    println!(
        "{:<20} {:>20} {:>9} {:>9} {:>9} {:>12}",
        "instance", "kernel", "pivots", "lp(ms)", "us/pivot", "objective"
    );
    for (label, k, n, l, cap) in scaled_cases {
        let instance = match date98_scaled_instance(1, k, 2, 2, 1, date98_device()) {
            Ok(i) => i,
            Err(e) => {
                eprintln!("kernel scaled {label}: instance failed: {e}");
                continue;
            }
        };
        let ops = instance.graph().num_ops();
        let model = match IlpModel::build(instance, ModelConfig::tightened(n, l)) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("kernel scaled {label}: model failed: {e}");
                continue;
            }
        };
        let stats = model.stats().clone();
        let nnz: usize = model
            .problem()
            .rows_for_export()
            .map(|r| r.coeffs.len())
            .sum();
        let mut eta_cell: Option<(f64, usize)> = None;
        let mut ft_cell: Option<(&str, f64, usize)> = None;
        let mut lp_optima: Vec<f64> = Vec::new();
        for (kname, basis_update) in KERNELS {
            let opts = LpOptions {
                max_iterations: cap,
                pricing: Pricing::Devex,
                basis_update,
                ..LpOptions::default()
            };
            let mut best: Option<(f64, usize, Option<f64>)> = None;
            for _ in 0..reps {
                let started = std::time::Instant::now();
                let res = solve_lp(model.problem(), &opts);
                let wall = started.elapsed().as_secs_f64();
                let cell = match res {
                    Ok(out) => (wall, out.iterations, Some(out.objective)),
                    Err(tempart_lp::LpError::IterationLimit) => (wall, cap, None),
                    Err(e) => {
                        eprintln!("kernel scaled {label} {kname} failed: {e}");
                        continue;
                    }
                };
                if best.as_ref().is_none_or(|b| cell.0 < b.0) {
                    best = Some(cell);
                }
            }
            let Some((wall, iters, objective)) = best else {
                continue;
            };
            if let Some(obj) = objective {
                lp_optima.push(obj);
            }
            let us_per_iter = wall * 1e6 / iters.max(1) as f64;
            if kname == "eta/fixed" {
                eta_cell = Some((wall, iters));
            } else {
                ft_cell = Some((kname, wall, iters));
            }
            println!(
                "{:<20} {:>20} {:>9} {:>9.1} {:>9.1} {:>12}",
                label,
                kname,
                iters,
                wall * 1e3,
                us_per_iter,
                objective.map_or("cap hit".to_string(), |o| format!("{o:.3}")),
            );
            json_rows.push(format!(
                "  {{\"tier\": \"scaled\", \"instance\": \"{label}\", \
                 \"kernel\": \"{kname}\", \"pivot_cap\": {cap}, \"pivots\": {iters}, \
                 \"lp_ms\": {:.3}, \"us_per_pivot\": {us_per_iter:.3}, \
                 \"objective\": {}, \"host_cpus\": {host_cpus}, \"ops\": {ops}, \
                 \"rows\": {}, \"cols\": {}, \"nnz\": {nnz}}}",
                wall * 1e3,
                objective.map_or("null".to_string(), |o| format!("{o:.6}")),
                stats.num_constraints,
                stats.num_vars,
            ));
        }
        // The scaled leg of the equivalence claim: where the root LP
        // converges under the cap (the doubled-chain MIPs are undecidable
        // in any reasonable budget), every kernel must land on the same
        // LP optimum.
        if label == "g1x4-N3-L6" {
            let spread = lp_optima
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &o| {
                    (lo.min(o), hi.max(o))
                });
            let scale = lp_optima.first().map_or(1.0, |o| o.abs().max(1.0));
            let agree = lp_optima.len() == KERNELS.len() && (spread.1 - spread.0) <= 1e-6 * scale;
            println!(
                "acceptance [{}]: {label} root-LP optimum agrees across {} kernels                  (spread {:.2e})",
                if agree { "PASS" } else { "FAIL" },
                lp_optima.len(),
                (spread.1 - spread.0).max(0.0),
            );
            json_rows.push(format!(
                "  {{\"acceptance\": \"scaled_root_lp_objective_agreement\", \
                 \"instance\": \"{label}\", \"kernels\": {}, \
                 \"objective_spread\": {:.6e}, \"pass\": {agree}}}",
                lp_optima.len(),
                (spread.1 - spread.0).max(0.0),
            ));
        }
        // Pinned acceptance bar on the big row of each mode: FT >=1.5x eta
        // on LP time at the same pivot budget (per-pivot normalized, so an
        // early-converging run cannot skew the ratio).
        let is_bar_row = label == "g1x23-N3-L2" || (smoke && label == "g1x4-N3-L6");
        if is_bar_row {
            let bar = match (eta_cell, ft_cell) {
                (Some((eta_wall, eta_iters)), Some((kname, ft_wall, ft_iters))) => {
                    let speedup =
                        (eta_wall / eta_iters.max(1) as f64) / (ft_wall / ft_iters.max(1) as f64);
                    let pass = speedup >= 1.5;
                    println!(
                        "acceptance [{}]: {label} {kname} {:.0} ms vs eta {:.0} ms over \
                         equal pivot budgets ({speedup:.2}x — bar >=1.5x)",
                        if pass { "PASS" } else { "FAIL" },
                        ft_wall * 1e3,
                        eta_wall * 1e3,
                    );
                    format!(
                        "  {{\"acceptance\": \"scaled_ft_lp_speedup_ge_1.5\", \
                         \"instance\": \"{label}\", \"eta_lp_ms\": {:.3}, \
                         \"eta_pivots\": {eta_iters}, \"ft_kernel\": \"{kname}\", \
                         \"ft_lp_ms\": {:.3}, \"ft_pivots\": {ft_iters}, \
                         \"speedup\": {speedup:.4}, \"pass\": {pass}}}",
                        eta_wall * 1e3,
                        ft_wall * 1e3,
                    )
                }
                _ => format!(
                    "  {{\"acceptance\": \"scaled_ft_lp_speedup_ge_1.5\", \
                     \"instance\": \"{label}\", \"pass\": false}}"
                ),
            };
            json_rows.push(bar);
        }
    }

    let json = format!("[\n{}\n]\n", json_rows.join(",\n"));
    // The smoke run writes its own (gitignored) artifact so a local
    // `verify.sh` pass never clobbers the committed full-budget one.
    // Write-then-rename: a crash mid-write cannot corrupt the artifact.
    let path = if smoke {
        "BENCH_kernel_smoke.json"
    } else {
        "BENCH_kernel.json"
    };
    let tmp = format!("{path}.tmp");
    let write = std::fs::write(&tmp, &json).and_then(|()| std::fs::rename(&tmp, path));
    match write {
        Ok(()) => println!("wrote {path} ({} rows)", json_rows.len()),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
    println!();
}

/// Anytime-resilience study: the Table 3 workhorse (graph 1, N=3, L=1,
/// guided) solved under a sweep of deterministic simplex-pivot budgets —
/// the reproducible stand-in for a wall-clock deadline — seeded and
/// unseeded. Each point records the termination status, the solution
/// source (`exact` incumbent vs the Figure-2 `heuristic` degradation), the
/// cost, and the proven gap, tracing the gap-vs-deadline curve from "no
/// time at all" down to the proven optimum. The full serial solve takes
/// ~11k pivots, so the sweep brackets that. Results go to stdout and
/// `BENCH_resilience.json`.
fn resilience(limit: f64) {
    const BUDGETS: [usize; 6] = [50, 500, 2_000, 5_000, 9_000, usize::MAX];
    println!("Resilience: anytime gap vs deterministic pivot budget (g1, N=3, L=1, guided)");
    println!(
        "{:<10} {:>6} {:>11} {:>9} {:>6} {:>9} {:>7} {:>9}",
        "budget", "seeded", "status", "source", "cost", "gap", "nodes", "lp-iters"
    );
    let device = date98_device();
    let Ok(inst) = date98_instance(1, 2, 2, 1, device) else {
        eprintln!("resilience: cannot build graph-1 instance");
        return;
    };
    let config = ModelConfig::tightened(3, 1);
    let mut json_rows: Vec<String> = Vec::new();
    for seed_incumbent in [false, true] {
        for budget in BUDGETS {
            let Ok(model) = IlpModel::build(inst.clone(), config.clone()) else {
                continue;
            };
            let mip = MipOptions {
                time_limit_secs: limit,
                max_lp_iterations: budget,
                threads: 1,
                ..MipOptions::default()
            };
            let out = match model.solve(&SolveOptions {
                mip,
                rule: RuleKind::Paper,
                seed_incumbent,
            }) {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("resilience: budget {budget} failed: {e}");
                    continue;
                }
            };
            let budget_label = if budget == usize::MAX {
                "inf".to_string()
            } else {
                budget.to_string()
            };
            let cost = out.solution.as_ref().map(|s| s.communication_cost());
            let gap_label = if out.gap.is_finite() {
                format!("{:.1}", out.gap)
            } else {
                "inf".to_string()
            };
            println!(
                "{:<10} {:>6} {:>11} {:>9} {:>6} {:>9} {:>7} {:>9}",
                budget_label,
                seed_incumbent,
                out.status.as_str(),
                out.source.as_str(),
                cost.map_or("-".to_string(), |c| c.to_string()),
                gap_label,
                out.stats.nodes,
                out.stats.lp_iterations,
            );
            json_rows.push(format!(
                "  {{\"instance\": \"g1-N3-L1\", \"lp_budget\": {}, \"seeded\": {}, \
                 \"status\": \"{}\", \"source\": \"{}\", \"cost\": {}, \
                 \"objective\": {}, \"gap\": {}, \"best_bound\": {}, \
                 \"nodes\": {}, \"lp_iterations\": {}, \"wall_ms\": {:.3}}}",
                if budget == usize::MAX {
                    "null".to_string()
                } else {
                    budget.to_string()
                },
                seed_incumbent,
                out.status.as_str(),
                out.source.as_str(),
                cost.map_or("null".to_string(), |c| c.to_string()),
                if out.objective.is_finite() {
                    format!("{}", out.objective)
                } else {
                    "null".to_string()
                },
                if out.gap.is_finite() {
                    format!("{}", out.gap)
                } else {
                    "null".to_string()
                },
                if out.best_bound.is_finite() {
                    format!("{}", out.best_bound)
                } else {
                    "null".to_string()
                },
                out.stats.nodes,
                out.stats.lp_iterations,
                out.stats.seconds * 1e3,
            ));
        }
    }
    let json = format!("[\n{}\n]\n", json_rows.join(",\n"));
    match std::fs::write("BENCH_resilience.json", &json) {
        Ok(()) => println!("wrote BENCH_resilience.json ({} rows)", json_rows.len()),
        Err(e) => eprintln!("cannot write BENCH_resilience.json: {e}"),
    }
    println!();
}

/// Scale-layer study: the flagship unguided row (graph 1, N=3, L=1,
/// first-index rule, unseeded — the ~10.7k-node tree the scale layer
/// exists to shrink) re-solved under each scale feature alone and
/// under the full stack. Every variant must prove the same optimum
/// (cost 13); the headline acceptance bar is the full stack exploring at
/// most 70% of the baseline's nodes. `smoke` runs only the baseline and
/// the full stack (the budgeted CI variant). Results go to stdout and
/// `BENCH_scale.json` (written via `BENCH_scale.json.tmp` and renamed, so
/// an interrupted run never leaves a truncated artifact).
fn scale(limit: f64, smoke: bool) {
    type Variant = (&'static str, bool, bool, Branching);
    let all: [Variant; 5] = [
        ("baseline", false, false, Branching::Rule),
        ("cuts", true, false, Branching::Rule),
        ("propagate", false, true, Branching::Rule),
        ("pseudocost", false, false, Branching::Pseudocost),
        ("full-stack", true, true, Branching::Pseudocost),
    ];
    let variants: Vec<Variant> = if smoke {
        all.iter()
            .copied()
            .filter(|&(name, ..)| name == "baseline" || name == "full-stack")
            .collect()
    } else {
        all.to_vec()
    };
    println!(
        "Scale layer: g1-N3-L1 unguided under the scale stack{}",
        if smoke { " (smoke)" } else { "" }
    );
    println!(
        "{:<12} {:>9} {:>7} {:>9} {:>5} {:>6} {:>5} {:>5} {:>7}",
        "variant", "wall(ms)", "nodes", "lp-iters", "cost", "cuts", "prop", "sb", "vs-base"
    );
    let mut json_rows: Vec<String> = Vec::new();
    let mut baseline: Option<(usize, Option<u64>)> = None;
    let mut full: Option<(usize, Option<u64>)> = None;
    for (name, cuts, propagate, branching) in variants {
        let config = ModelConfig::tightened(3, 1);
        let mut cfg = RowConfig::new(1, (2, 2, 1), config, RuleKind::FirstIndex, limit);
        cfg.solve.mip.cuts = cuts;
        cfg.solve.mip.propagate = propagate;
        cfg.solve.mip.branching = branching;
        let row = match run_row(&cfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("scale {name} failed: {e}");
                continue;
            }
        };
        let wall_ms = row.seconds * 1e3;
        if name == "baseline" {
            baseline = Some((row.nodes, row.cost));
        }
        if name == "full-stack" {
            full = Some((row.nodes, row.cost));
        }
        let vs_base = baseline
            .filter(|&(b, _)| b > 0)
            .map(|(b, _)| row.nodes as f64 / b as f64);
        let s = row.stats.scale;
        println!(
            "{:<12} {:>9.1} {:>7} {:>9} {:>5} {:>6} {:>5} {:>5} {:>7}",
            name,
            wall_ms,
            row.nodes,
            row.lp_iterations,
            row.cost.map_or("-".to_string(), |c| c.to_string()),
            s.cuts_applied,
            s.propagation_fixings + s.propagation_infeasible,
            s.strong_branch_solves,
            vs_base.map_or("-".to_string(), |r| format!("{:.0}%", r * 100.0)),
        );
        json_rows.push(format!(
            "  {{\"variant\": \"{name}\", \"instance\": \"g1-N3-L1-unguided\", \
             \"cuts\": {cuts}, \"propagate\": {propagate}, \
             \"branching\": \"{}\", \"wall_ms\": {:.3}, \"nodes\": {}, \
             \"lp_iterations\": {}, \"cost\": {}, \
             \"cuts_separated\": {}, \"cuts_applied\": {}, \"cut_rounds\": {}, \
             \"propagation_fixings\": {}, \"propagation_infeasible\": {}, \
             \"pseudocost_updates\": {}, \"strong_branch_solves\": {}, \
             \"nodes_vs_baseline\": {}}}",
            branching.as_str(),
            wall_ms,
            row.nodes,
            row.lp_iterations,
            row.cost.map_or("null".to_string(), |c| c.to_string()),
            s.cuts_separated,
            s.cuts_applied,
            s.cut_rounds,
            s.propagation_fixings,
            s.propagation_infeasible,
            s.pseudocost_updates,
            s.strong_branch_solves,
            vs_base.map_or("null".to_string(), |r| format!("{r:.4}")),
        ));
    }
    // Pinned acceptance bar: the full stack proves the same optimum
    // (cost 13) in at most 70% of the baseline's nodes.
    let bar = match (baseline, full) {
        (Some((base_nodes, base_cost)), Some((full_nodes, full_cost))) if base_nodes > 0 => {
            let ratio = full_nodes as f64 / base_nodes as f64;
            let pass = base_cost == Some(13) && full_cost == Some(13) && ratio <= 0.70;
            println!(
                "acceptance [{}]: full stack {} nodes vs baseline {} ({:.0}% — bar ≤70%), \
                 cost {} vs {}",
                if pass { "PASS" } else { "FAIL" },
                full_nodes,
                base_nodes,
                ratio * 100.0,
                full_cost.map_or("-".to_string(), |c| c.to_string()),
                base_cost.map_or("-".to_string(), |c| c.to_string()),
            );
            format!(
                "  {{\"acceptance\": \"full_stack_nodes_le_0.70_of_baseline_at_cost_13\", \
                 \"instance\": \"g1-N3-L1-unguided\", \"baseline_nodes\": {base_nodes}, \
                 \"full_stack_nodes\": {full_nodes}, \"node_ratio\": {ratio:.4}, \
                 \"baseline_cost\": {}, \"full_stack_cost\": {}, \"pass\": {pass}}}",
                base_cost.map_or("null".to_string(), |c| c.to_string()),
                full_cost.map_or("null".to_string(), |c| c.to_string()),
            )
        }
        _ => "  {\"acceptance\": \"missing-scale-rows\", \"pass\": false}".to_string(),
    };
    json_rows.push(bar);
    let json = format!("[\n{}\n]\n", json_rows.join(",\n"));
    // Write-then-rename: the .tmp path is gitignored, and a crash mid-write
    // cannot corrupt the committed artifact.
    let write = std::fs::write("BENCH_scale.json.tmp", &json)
        .and_then(|()| std::fs::rename("BENCH_scale.json.tmp", "BENCH_scale.json"));
    match write {
        Ok(()) => println!("wrote BENCH_scale.json ({} rows)", json_rows.len()),
        Err(e) => eprintln!("cannot write BENCH_scale.json: {e}"),
    }
    println!();
}

/// Service-layer study: delegates to the `service-bench` load generator in
/// the server crate, which sweeps concurrent clients over a live
/// `tempart-server` (mixed warm/deadline workload, shed probe) and writes
/// `BENCH_service.json` with pinned acceptance bars. It runs as a
/// subprocess because the audit tool's default feature already closes the
/// package chain audit → bench, so this crate can depend on neither cli
/// nor server.
fn service(limit: f64) {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = std::process::Command::new(cargo)
        .args([
            "run",
            "--release",
            "-q",
            "-p",
            "tempart-server",
            "--bin",
            "service-bench",
            "--",
            "--limit",
        ])
        .arg(limit.to_string())
        .status();
    match status {
        Ok(s) if s.success() => {}
        Ok(s) => eprintln!("service-bench failed: {s}"),
        Err(e) => eprintln!("cannot launch service-bench: {e}"),
    }
    println!();
}

/// Model-checker exploration statistics: run every lp scenario under full
/// DPOR, print the per-primitive schedule/prune/depth numbers, and write
/// `BENCH_race.json`. The pinned acceptance bar — the reason this is a
/// bench experiment and not only a test — is that full DPOR on the
/// seqlock incumbent model *terminates* within the schedule budget with
/// zero truncated runs: the state space of the production primitive stays
/// finite and coverable as the code evolves.
#[cfg(feature = "race")]
fn race() {
    use tempart_lp::race_models;
    use tempart_race::explore::{Config, Report};

    let scenarios: [(&str, fn(Config) -> Report); 4] = [
        ("deque_no_lost_items", race_models::deque_no_lost_items),
        ("seqlock_keeps_minimum", race_models::seqlock_keeps_minimum),
        ("rendezvous_terminates", race_models::rendezvous_terminates),
        (
            "proof_incomplete_join_edge",
            race_models::proof_incomplete_join_edge,
        ),
    ];
    println!("race: full-DPOR exploration of the lock-free core models");
    println!(
        "{:<28} {:>10} {:>8} {:>9} {:>12} {:>9}  verdict",
        "model", "schedules", "pruned", "truncated", "transitions", "max-depth"
    );
    let mut rows = Vec::new();
    let mut failed = false;
    for (name, f) in scenarios {
        let start = std::time::Instant::now();
        let r = f(Config::full());
        let secs = start.elapsed().as_secs_f64();
        let clean = r.violation.is_none() && r.truncated == 0 && !r.exhausted;
        let verdict = match &r.violation {
            Some(v) => format!("VIOLATION: {v}"),
            None if r.exhausted => "EXHAUSTED (budget too small)".to_string(),
            None if r.truncated > 0 => "TRUNCATED (step cap hit)".to_string(),
            None => "ok".to_string(),
        };
        println!(
            "{:<28} {:>10} {:>8} {:>9} {:>12} {:>9}  {}",
            name, r.schedules, r.pruned, r.truncated, r.transitions, r.max_depth, verdict
        );
        rows.push(format!(
            "    {{\"model\": \"{name}\", \"schedules\": {}, \"pruned\": {}, \
             \"truncated\": {}, \"transitions\": {}, \"max_depth\": {}, \
             \"seconds\": {secs:.3}, \"clean\": {clean}}}",
            r.schedules, r.pruned, r.truncated, r.transitions, r.max_depth
        ));
        if !clean {
            failed = true;
        }
    }
    let json = format!(
        "{{\n  \"mode\": \"full-dpor\",\n  \"models\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    match std::fs::write("BENCH_race.json", &json) {
        Ok(()) => println!("wrote BENCH_race.json ({} models)", scenarios.len()),
        Err(e) => eprintln!("cannot write BENCH_race.json: {e}"),
    }
    println!();
    if failed {
        eprintln!("race: a model missed the full-coverage acceptance bar");
        std::process::exit(1);
    }
}

#[cfg(not(feature = "race"))]
fn race() {
    eprintln!(
        "the `race` experiment needs the model-checker build:\n  \
         cargo run --release -p tempart-bench --features race --bin tables -- race"
    );
}

// The WForm import is used indirectly through ModelConfig::basic; keep the
// symbol referenced so the harness fails to compile if the variant set
// changes under it.
#[allow(dead_code)]
const _: WForm = WForm::PerProduct;
