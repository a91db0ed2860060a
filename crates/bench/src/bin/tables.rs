//! Regenerates the paper's Tables 1–4, the ablation and simulation
//! studies, and the kernel and scale studies.
//!
//! ```text
//! cargo run --release -p tempart-bench --bin tables -- <experiment>... [--limit SECS] [--threads T]
//! ```
//!
//! Experiments: `table1`, `table2`, `table3`, `table4`, `ablation`,
//! `simulate`, `kernel`, `scale`, and `all` (every one of these, in that
//! order). `kernel-smoke` and `scale-smoke` are the budgeted CI variants
//! of `kernel` and `scale`: they print their acceptance bars and write no
//! file. The default per-row time limit is 600 s (the paper cut Table 1
//! off at 7200 s on a 175 MHz UltraSparc; modern hardware needs far less
//! to show the same contrast). `--threads T` runs every table, ablation
//! and simulation row on `T` branch-and-bound workers (`0` = one per CPU;
//! default `1`, the deterministic one-worker search).
//!
//! The process exits non-zero when an experiment name is unknown, a row
//! returns an error (a time limit is a result, not an error), an
//! acceptance bar fails, or an artifact cannot be written.

use std::fmt::Display;
use std::process::ExitCode;

use tempart_bench::report::{format_markdown, format_table, or_null, Report};
use tempart_bench::{
    date98_device, date98_instance, date98_scaled_instance, run_row, ExperimentRow, RowConfig,
};
use tempart_core::{
    CoreError, CutSet, IlpModel, Linearization, ModelConfig, RuleKind, SolveOptions,
};
use tempart_lp::{solve_lp, BasisUpdate, Branching, LpOptions, MipOptions, Pricing};
use tempart_sim::{execute, naive_partitioning};

fn main() -> ExitCode {
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
    let mut ok = true;
    for e in experiments {
        // `&=` rather than `&&`: a failed experiment does not skip the rest.
        ok &= match e.as_str() {
            "table1" => table1(limit, threads),
            "table2" => table2(limit, threads),
            "table3" => table3(limit, threads),
            "table4" => table4(limit, threads),
            "ablation" => ablation(limit, threads),
            "simulate" => simulate(threads),
            "kernel" => kernel(limit, false),
            "kernel-smoke" => kernel(limit, true),
            "scale" => scale(limit, false),
            "scale-smoke" => scale(limit, true),
            "all" => [
                table1(limit, threads),
                table2(limit, threads),
                table3(limit, threads),
                table4(limit, threads),
                ablation(limit, threads),
                simulate(threads),
                kernel(limit, false),
                scale(limit, false),
            ]
            .into_iter()
            .all(|passed| passed),
            other => {
                eprintln!(
                    "unknown experiment `{other}` (try table1..4, ablation, simulate, kernel, kernel-smoke, scale, scale-smoke, all)"
                );
                false
            }
        };
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Text-table rendering of an optional value: the value itself, or `-`.
fn or_dash(v: Option<impl Display>) -> String {
    v.map_or_else(|| "-".to_string(), |v| v.to_string())
}

/// Solves and prints `rows`; returns whether every row solved without an
/// error.
fn run_and_print(title: &str, rows: &[RowConfig], limit: f64) -> bool {
    let mut results = Vec::new();
    for cfg in rows {
        match run_row(cfg) {
            Ok(r) => results.push(r),
            Err(e) => eprintln!("row failed: {e}"),
        }
    }
    println!("{}", format_table(title, &results, limit));
    println!("{}", format_markdown(&results, limit));
    results.len() == rows.len()
}

/// The four preliminary rows, solved with the *basic* model — Fortet
/// product linearization, per-product `w` (4)–(5), no cuts — and the
/// unguided lowest-index rule: the paper's Table 1 setup, where three of
/// four rows blew the 7200 s budget before the §4/§6 improvements.
fn table1(limit: f64, threads: usize) -> bool {
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
    )
}

/// Same rows with the tightened constraints (Glover + cuts (28)-(30),(32) +
/// aggregated (31)), still unguided — the paper's Table 2.
fn table2(limit: f64, threads: usize) -> bool {
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
    )
}

/// Latency/partition trade-off on graph 1 (paper Table 3): tightened model
/// with the §8 guided rule.
fn table3(limit: f64, threads: usize) -> bool {
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
    )
}

/// All six graphs with the published (N, A+M+S, L) parameters (paper
/// Table 4): tightened model + guided rule.
fn table4(limit: f64, threads: usize) -> bool {
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
    )
}

/// Ablation of the paper's design choices on the Table 3 workhorse
/// (graph 1, N=3, L=1): linearization method, cut families, branching rule.
fn ablation(limit: f64, threads: usize) -> bool {
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
    let mut ok = true;
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
                or_dash(r.cost),
                r.nodes
            ),
            Err(e) => {
                println!("{name:<34} ERROR {e}");
                ok = false;
            }
        }
    }
    println!();
    ok
}

/// End-to-end execution study: ILP-optimal vs bandwidth-oblivious naive
/// partitioning, total cycles including reconfiguration and staging.
fn simulate(threads: usize) -> bool {
    println!("Simulation: ILP vs naive partitioning (total execution cycles)");
    println!(
        "{:<7} {:>2} {:>2} {:>9} {:>10} {:>12} {:>12} {:>8}",
        "graph", "N", "L", "ilp-cost", "nv-cost", "ilp-cycles", "nv-cycles", "saved"
    );
    let mut ok = true;
    // Per-graph (N, L) settings at which the instance is decidable (see
    // EXPERIMENTS.md "Deviations").
    for (g, ams, n, l, budget) in [
        (1usize, (2u32, 2u32, 1u32), 3u32, 1u32, 120.0f64),
        (2, (3, 2, 2), 4, 5, 120.0),
        (3, (2, 2, 2), 3, 5, 120.0),
        (4, (2, 2, 2), 3, 5, 300.0),
    ] {
        let config = ModelConfig::tightened(n, l);
        let solve = SolveOptions {
            mip: MipOptions {
                time_limit_secs: budget,
                threads,
                ..MipOptions::default()
            },
            rule: RuleKind::Paper,
            seed_incumbent: true,
        };
        let solved = date98_instance(g, ams.0, ams.1, ams.2, date98_device())
            .map_err(CoreError::from)
            .and_then(|inst| {
                let out = IlpModel::build(inst.clone(), config.clone())?.solve(&solve)?;
                Ok((inst, out))
            });
        let (inst, out) = match solved {
            Ok(solved) => solved,
            Err(e) => {
                eprintln!("simulate graph{g} failed: {e}");
                ok = false;
                continue;
            }
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
    ok
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
/// 2. *Flagship*: the Table 2 unguided workhorse end-to-end, best of two
///    runs per kernel, with the pinned acceptance bar: the FT kernel
///    ≥1.25× the eta baseline's wall clock at the same proven optimum 13.
/// 3. *Scaled*: externally timed root-LP solves at a fixed pivot cap on
///    the replicate-and-chain instances, including the ≥500-op `g1x23`
///    row. Both kernels spend the identical pivot budget, so the
///    wall-clock ratio *is* the LP-time ratio; the bar is FT ≥1.5× eta.
///
/// Every row stamps `host_cpus` and the instance size (`ops`, `rows`,
/// `cols`, `nnz`) so artifacts measured on different hosts stay
/// comparable. Results go to stdout and `BENCH_kernel.json`. `smoke` is
/// the budgeted CI variant: the g1 row only on the equivalence tier,
/// single reps, the same-optimum bar in place of the flagship speed bar,
/// the smaller scaled row as the speed bar, and no file written.
fn kernel(limit: f64, smoke: bool) -> bool {
    // Each kernel is named for its representation and the refactorization
    // trigger that representation carries.
    const KERNELS: [(&str, BasisUpdate); 2] = [
        ("eta/fixed", BasisUpdate::Eta),
        ("ft-markowitz/dynamic", BasisUpdate::FtMarkowitz),
    ];
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let mut report = Report::new("BENCH_kernel.json", !smoke);
    println!(
        "Kernel study: basis-maintenance engines (eta / FT-Markowitz){}",
        if smoke { " (smoke)" } else { "" }
    );

    // Tier 1 — equivalence: the decidable Table 4 row of every paper graph
    // (graph 4's N3 L5 boundary row is undecidable in the budget; its N2 L6
    // row is the decidable stand-in).
    type EqCase = (&'static str, usize, (u32, u32, u32), u32, u32);
    const EQ_CASES: [EqCase; 6] = [
        ("g1-N3-L1", 1, (2, 2, 1), 3, 1),
        ("g2-N4-L5", 2, (3, 2, 2), 4, 5),
        ("g3-N3-L5", 3, (2, 2, 2), 3, 5),
        ("g4-N2-L6", 4, (2, 2, 2), 2, 6),
        ("g5-N3-L6", 5, (2, 2, 2), 3, 6),
        ("g6-N2-L13", 6, (2, 2, 2), 2, 13),
    ];
    let eq_cases = if smoke { &EQ_CASES[..1] } else { &EQ_CASES[..] };
    println!(
        "{:<20} {:>20} {:>9} {:>7} {:>9} {:>9} {:>5}",
        "instance", "kernel", "wall(ms)", "nodes", "lp-iters", "refactors", "cost"
    );
    let mut eq_pass = true;
    for &(label, g, ams, n, l) in eq_cases {
        let mut costs: Vec<Option<u64>> = Vec::new();
        for (kname, basis_update) in KERNELS {
            let config = ModelConfig::tightened(n, l);
            let mut cfg = RowConfig::new(g, ams, config, RuleKind::Paper, limit);
            cfg.solve.seed_incumbent = true;
            cfg.solve.mip.lp.basis_update = basis_update;
            cfg.solve.mip.lp.profile = true;
            let row = match run_row(&cfg) {
                Ok(r) => r,
                Err(e) => {
                    report.error(format!("kernel equivalence {label} {kname} failed: {e}"));
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
                or_dash(row.cost),
            );
            report.row(&format!(
                "\"tier\": \"equivalence\", \"instance\": \"{label}\", \
                 \"kernel\": \"{kname}\", \"optimal\": {}, \"cost\": {}, \
                 \"nodes\": {}, \"lp_iterations\": {}, \"refactors\": {}, \
                 \"wall_ms\": {:.3}, \"host_cpus\": {host_cpus}, \"ops\": {}, \
                 \"rows\": {}, \"cols\": {}, \"nnz\": {}",
                proven.is_some(),
                or_null(row.cost),
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
        let agreed = costs.len() == KERNELS.len()
            && costs
                .first()
                .is_some_and(|first| first.is_some() && costs.iter().all(|c| c == first));
        if !agreed {
            eq_pass = false;
            eprintln!("kernel equivalence {label}: kernels disagree ({costs:?})");
        }
    }
    report.bar(
        "identical_optima_across_kernels",
        &format!(
            "\"instances\": {}, \"kernels\": {}",
            eq_cases.len(),
            KERNELS.len()
        ),
        eq_pass,
        format!(
            "identical optima across {} kernels on {} instances",
            KERNELS.len(),
            eq_cases.len()
        ),
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
                Err(e) => report.error(format!("kernel flagship {kname} failed: {e}")),
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
            or_dash(row.cost),
            or_dash(speedup.map(|s| format!("{s:.2}x vs eta"))),
        );
        report.row(&format!(
            "\"tier\": \"flagship\", \"instance\": \"g1-N3-L1-unguided\", \
             \"kernel\": \"{kname}\", \"cost\": {}, \"nodes\": {}, \
             \"lp_iterations\": {}, \"refactors\": {}, \"wall_ms\": {:.3}, \
             \"lp_ms\": {:.3}, \"ftran_ms\": {:.3}, \"btran_ms\": {:.3}, \
             \"refactor_ms\": {:.3}, \"update_ms\": {:.3}, \
             \"speedup_vs_eta\": {}, \"host_cpus\": {host_cpus}, \
             \"ops\": {}, \"rows\": {}, \"cols\": {}, \"nnz\": {}",
            or_null(row.cost),
            row.nodes,
            row.lp_iterations,
            p.refactors,
            wall_ms,
            p.lp_secs * 1e3,
            p.ftran_secs * 1e3,
            p.btran_secs * 1e3,
            p.refactor_secs * 1e3,
            p.update_secs * 1e3,
            or_null(speedup.map(|s| format!("{s:.4}"))),
            row.opers,
            row.consts,
            row.vars,
            row.nnz,
        ));
    }
    let ft_flagship = flagship.iter().find(|(k, _)| *k != "eta/fixed");
    // CI hardware varies too much to pin a speed bar, so the smoke gate is
    // the answer contract on the flagship row; the full run pins the FT
    // kernel beating the legacy eta baseline by >=1.25x end-to-end at the
    // same proven optimum 13.
    let flagship_bar = if smoke {
        "flagship_same_optimum_across_kernels"
    } else {
        "flagship_speedup_ge_1.25_at_cost_13"
    };
    match (eta_flagship, ft_flagship) {
        (Some((_, eta_cost)), Some((kname, row))) if smoke => report.bar(
            flagship_bar,
            &format!(
                "\"instance\": \"g1-N3-L1-unguided\", \"eta_cost\": {}, \
                 \"ft_kernel\": \"{kname}\", \"ft_cost\": {}",
                or_null(eta_cost),
                or_null(row.cost),
            ),
            eta_cost == Some(13) && row.cost == Some(13),
            format!(
                "{kname} cost {} vs eta/fixed cost {} (bar: both 13)",
                or_dash(row.cost),
                or_dash(eta_cost),
            ),
        ),
        (Some((eta_secs, eta_cost)), Some((kname, row))) => {
            let speedup = eta_secs / row.seconds;
            report.bar(
                flagship_bar,
                &format!(
                    "\"instance\": \"g1-N3-L1-unguided\", \"baseline_kernel\": \"eta/fixed\", \
                     \"baseline_ms\": {:.3}, \"best_kernel\": \"{kname}\", \
                     \"best_ms\": {:.3}, \"speedup\": {speedup:.4}, \
                     \"baseline_cost\": {}, \"best_cost\": {}",
                    eta_secs * 1e3,
                    row.seconds * 1e3,
                    or_null(eta_cost),
                    or_null(row.cost),
                ),
                eta_cost == Some(13) && row.cost == Some(13) && speedup >= 1.25,
                format!(
                    "{kname} {:.0} ms vs eta/fixed {:.0} ms ({speedup:.2}x — bar >=1.25x) \
                     at cost {} vs {}",
                    row.seconds * 1e3,
                    eta_secs * 1e3,
                    or_dash(row.cost),
                    or_dash(eta_cost),
                ),
            );
        }
        _ => report.bar(flagship_bar, "", false, "a flagship row is missing"),
    }

    // Tier 3 — scaled root-LP tier: devex-priced solve_lp at a fixed pivot
    // cap, timed externally (hitting the cap is the expected termination;
    // the kernels then spend identical pivot budgets).
    type ScaledCase = (&'static str, usize, u32, u32, usize);
    let scaled_cases: &[ScaledCase] = if smoke {
        &[("g1x4-N3-L6", 4, 3, 6, 1_500)]
    } else {
        &[
            ("g1x4-N3-L6", 4, 3, 6, 3_000),
            ("g1x23-N3-L2", 23, 3, 2, 3_000),
        ]
    };
    println!(
        "{:<20} {:>20} {:>9} {:>9} {:>9} {:>12}",
        "instance", "kernel", "pivots", "lp(ms)", "us/pivot", "objective"
    );
    for &(label, k, n, l, cap) in scaled_cases {
        let built = date98_scaled_instance(1, k, 2, 2, 1, date98_device())
            .map_err(CoreError::from)
            .and_then(|instance| IlpModel::build(instance, ModelConfig::tightened(n, l)));
        let model = match built {
            Ok(model) => model,
            Err(e) => {
                report.error(format!("kernel scaled {label}: model failed: {e}"));
                continue;
            }
        };
        let ops = model.instance().graph().num_ops();
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
                        report.error(format!("kernel scaled {label} {kname} failed: {e}"));
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
            report.row(&format!(
                "\"tier\": \"scaled\", \"instance\": \"{label}\", \
                 \"kernel\": \"{kname}\", \"pivot_cap\": {cap}, \"pivots\": {iters}, \
                 \"lp_ms\": {:.3}, \"us_per_pivot\": {us_per_iter:.3}, \
                 \"objective\": {}, \"host_cpus\": {host_cpus}, \"ops\": {ops}, \
                 \"rows\": {}, \"cols\": {}, \"nnz\": {nnz}",
                wall * 1e3,
                or_null(objective.map(|o| format!("{o:.6}"))),
                stats.num_constraints,
                stats.num_vars,
            ));
        }
        // The scaled leg of the equivalence claim: where the root LP
        // converges under the cap (the doubled-chain MIPs are undecidable
        // in any reasonable budget), every kernel must land on the same
        // LP optimum.
        if label == "g1x4-N3-L6" {
            let (lo, hi) = lp_optima
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &o| {
                    (lo.min(o), hi.max(o))
                });
            let spread = (hi - lo).max(0.0);
            let scale = lp_optima.first().map_or(1.0, |o| o.abs().max(1.0));
            report.bar(
                "scaled_root_lp_objective_agreement",
                &format!(
                    "\"instance\": \"{label}\", \"kernels\": {}, \
                     \"objective_spread\": {spread:.6e}",
                    lp_optima.len(),
                ),
                lp_optima.len() == KERNELS.len() && hi - lo <= 1e-6 * scale,
                format!(
                    "{label} root-LP optimum agrees across {} kernels (spread {spread:.2e})",
                    lp_optima.len(),
                ),
            );
        }
        // Pinned acceptance bar on the big row of each mode: FT >=1.5x eta
        // on LP time at the same pivot budget (per-pivot normalized, so an
        // early-converging run cannot skew the ratio).
        if label == "g1x23-N3-L2" || (smoke && label == "g1x4-N3-L6") {
            const BAR: &str = "scaled_ft_lp_speedup_ge_1.5";
            match (eta_cell, ft_cell) {
                (Some((eta_wall, eta_iters)), Some((kname, ft_wall, ft_iters))) => {
                    let speedup =
                        (eta_wall / eta_iters.max(1) as f64) / (ft_wall / ft_iters.max(1) as f64);
                    report.bar(
                        BAR,
                        &format!(
                            "\"instance\": \"{label}\", \"eta_lp_ms\": {:.3}, \
                             \"eta_pivots\": {eta_iters}, \"ft_kernel\": \"{kname}\", \
                             \"ft_lp_ms\": {:.3}, \"ft_pivots\": {ft_iters}, \
                             \"speedup\": {speedup:.4}",
                            eta_wall * 1e3,
                            ft_wall * 1e3,
                        ),
                        speedup >= 1.5,
                        format!(
                            "{label} {kname} {:.0} ms vs eta {:.0} ms over equal pivot \
                             budgets ({speedup:.2}x — bar >=1.5x)",
                            ft_wall * 1e3,
                            eta_wall * 1e3,
                        ),
                    );
                }
                _ => report.bar(
                    BAR,
                    &format!("\"instance\": \"{label}\""),
                    false,
                    format!("{label}: a kernel row is missing"),
                ),
            }
        }
    }
    report.finish()
}

/// Scale-layer study: the flagship unguided row (graph 1, N=3, L=1,
/// first-index rule, unseeded — the ~10.7k-node tree the scale layer
/// exists to shrink) re-solved under each scale feature alone and
/// under the full stack. Every variant must prove the same optimum
/// (cost 13); the headline acceptance bar is the full stack exploring at
/// most 70% of the baseline's nodes. Results go to stdout and
/// `BENCH_scale.json`. `smoke` runs only the baseline and the full stack
/// (the budgeted CI variant) and writes no file.
fn scale(limit: f64, smoke: bool) -> bool {
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
    let mut report = Report::new("BENCH_scale.json", !smoke);
    println!(
        "Scale layer: g1-N3-L1 unguided under the scale stack{}",
        if smoke { " (smoke)" } else { "" }
    );
    println!(
        "{:<12} {:>9} {:>7} {:>9} {:>5} {:>6} {:>5} {:>5} {:>7}",
        "variant", "wall(ms)", "nodes", "lp-iters", "cost", "cuts", "prop", "sb", "vs-base"
    );
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
                report.error(format!("scale {name} failed: {e}"));
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
            or_dash(row.cost),
            s.cuts_applied,
            s.propagation_fixings + s.propagation_infeasible,
            s.strong_branch_solves,
            or_dash(vs_base.map(|r| format!("{:.0}%", r * 100.0))),
        );
        report.row(&format!(
            "\"variant\": \"{name}\", \"instance\": \"g1-N3-L1-unguided\", \
             \"cuts\": {cuts}, \"propagate\": {propagate}, \
             \"branching\": \"{}\", \"wall_ms\": {:.3}, \"nodes\": {}, \
             \"lp_iterations\": {}, \"cost\": {}, \
             \"cuts_separated\": {}, \"cuts_applied\": {}, \"cut_rounds\": {}, \
             \"propagation_fixings\": {}, \"propagation_infeasible\": {}, \
             \"pseudocost_updates\": {}, \"strong_branch_solves\": {}, \
             \"nodes_vs_baseline\": {}",
            branching.as_str(),
            wall_ms,
            row.nodes,
            row.lp_iterations,
            or_null(row.cost),
            s.cuts_separated,
            s.cuts_applied,
            s.cut_rounds,
            s.propagation_fixings,
            s.propagation_infeasible,
            s.pseudocost_updates,
            s.strong_branch_solves,
            or_null(vs_base.map(|r| format!("{r:.4}"))),
        ));
    }
    // Pinned acceptance bar: the full stack proves the same optimum
    // (cost 13) in at most 70% of the baseline's nodes.
    const BAR: &str = "full_stack_nodes_le_0.70_of_baseline_at_cost_13";
    match (baseline, full) {
        (Some((base_nodes, base_cost)), Some((full_nodes, full_cost))) if base_nodes > 0 => {
            let ratio = full_nodes as f64 / base_nodes as f64;
            report.bar(
                BAR,
                &format!(
                    "\"instance\": \"g1-N3-L1-unguided\", \"baseline_nodes\": {base_nodes}, \
                     \"full_stack_nodes\": {full_nodes}, \"node_ratio\": {ratio:.4}, \
                     \"baseline_cost\": {}, \"full_stack_cost\": {}",
                    or_null(base_cost),
                    or_null(full_cost),
                ),
                base_cost == Some(13) && full_cost == Some(13) && ratio <= 0.70,
                format!(
                    "full stack {full_nodes} nodes vs baseline {base_nodes} ({:.0}% — bar ≤70%), \
                     cost {} vs {}",
                    ratio * 100.0,
                    or_dash(full_cost),
                    or_dash(base_cost),
                ),
            );
        }
        _ => report.bar(BAR, "", false, "the baseline or full-stack row is missing"),
    }
    report.finish()
}
