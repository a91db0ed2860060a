//! `tempart` — command-line temporal partitioning and synthesis.
//!
//! ```text
//! tempart solve <spec.json> [--partitions N] [--latency L] [--time-limit SECS]
//!               [--node-limit N] [--threads T]
//!               [--pricing dantzig|devex|bland]
//!               [--basis-update eta|ft-markowitz]
//!               [--cuts] [--propagate] [--branching rule|pseudocost]
//!               [--scale K] [--faults PLAN] [--stats] [--certify] [--json]
//! tempart estimate <spec.json>
//! tempart simulate <spec.json> [--partitions N] [--latency L] [--threads T]
//! tempart dot <spec.json> [--scale K]
//! tempart export <spec.json> [--partitions N] [--latency L] [--format lp|mps]
//! tempart example
//! ```
//!
//! `--threads T` runs the branch-and-bound node search on `T` workers
//! (`0` = one per CPU) of a work-stealing scheduler. The default `1` runs
//! one worker on the main thread with deterministic node counts; any `T`
//! proves the same optimum. Multi-worker runs print per-worker node counts
//! and the scheduler's contention counters (steals, lock waits,
//! copy-on-write basis clones, incumbent-exchange retries).
//!
//! `--time-limit SECS` (alias `--limit`) and `--node-limit N` bound the
//! search with anytime semantics: on expiry the best feasible answer found
//! so far is reported together with its proven optimality gap, and when the
//! search has no incumbent yet the Figure-2 list-scheduling heuristic
//! solution is reported instead (`source: heuristic`). `--json` prints a
//! machine-readable summary (`status`, `gap`, `source`, `objective`,
//! `nodes`, `engine`) instead of the human-readable report. The time limit covers the
//! whole command, an automatic latency sweep included; the node limit
//! applies to each solve of the sweep on its own.
//!
//! `--faults PLAN` injects deterministic solver faults
//! (`site@occurrence[,...]`, sites `singular|itercap|panic|skew`) to
//! exercise the resilience layer; see `tempart-lp`'s fault-plan grammar.
//!
//! `--certify` re-verifies the solver's claim after the solve with
//! `tempart-audit`'s exact certificate checker: the incumbent's feasibility
//! and objective are recomputed in exact arithmetic, and the reported
//! status/bound pair is checked for consistency. A rejected certificate is
//! a hard error (nonzero exit), independent of the float simplex's own
//! account of the solve.
//!
//! `--pricing` selects the simplex pricing rule (`dantzig` is the pinned
//! legacy engine, `devex` the incremental engine with bound-flipping dual
//! ratio test, `bland` the anti-cycling rule); every mode proves the same
//! optimum. `--stats` enables the solver profiling layer and prints the
//! engine that ran and a per-phase simplex time/count breakdown after the
//! solve.
//!
//! `--basis-update` selects the simplex basis-maintenance kernel: `eta` is
//! the pinned legacy product-form eta file, refactorized on a fixed
//! interval; `ft-markowitz` applies Forrest–Tomlin updates to the `U`
//! factor of a Markowitz-ordered factorization and refactorizes on fill-in
//! growth or a failed stability test. Both prove the same optimum.
//!
//! With neither flag the model's size picks the engine: `devex` on
//! `ft-markowitz` above 4,096 constraint rows (the ten-task models), and
//! `dantzig` on `eta` at or below it (every paper-scale model, so their
//! pinned node counts hold). With one flag, the other keeps its legacy
//! default (`dantzig` or `eta`). `--stats` and `--json` report the engine
//! and whether the size rule or a flag chose it.
//!
//! `--scale K` replicates the specification's task graph `K` times,
//! chaining each copy's sink tasks to the next copy's sources
//! (deterministic — no randomness), before solving. This grows a small
//! specification into a kernel-sized stress instance; see the `kernel`
//! bench experiment.
//!
//! The scale layer is opt-in and off by default (the defaults preserve the
//! pinned node counts bit for bit): `--cuts` runs root cover/clique cut
//! separation (cut-and-branch), `--propagate` turns on node bound
//! propagation, and `--branching pseudocost` switches variable selection to
//! pseudo-cost branching with strong-branching reliability initialization.
//! Every combination proves the same optimum; `--stats` prints the scale
//! counters (cuts, fixings, pseudo-cost updates) when any feature fired.
//!
//! An argument error (an unknown command or flag, a bad or missing value,
//! no spec file) prints the usage line after the message; a command that
//! fails for another reason prints only its error. Both exit nonzero.
//!
//! * `solve` — run the full Figure-2 pipeline and print the optimal
//!   partitioning, schedule, and solver statistics.
//! * `estimate` — print the mobility analysis and the heuristic
//!   partition-count estimate without solving.
//! * `simulate` — solve, then replay the result on the device timing model.
//! * `dot` — emit a Graphviz rendering of the specification.
//! * `export` — build the ILP and dump it in CPLEX-LP or MPS format for an
//!   external solver.
//! * `example` — print a template specification to start from.

use std::process::ExitCode;

use tempart_cli::SpecFile;
use tempart_core::{
    IlpModel, ModelConfig, PartitionerOptions, RuleKind, SolutionSource, SolveOptions,
    TemporalPartitioner,
};
use tempart_graph::{scale_task_graph, task_graph_to_dot};
use tempart_hls::{estimate_partitions, render_gantt, Mobility};
use tempart_lp::{BasisUpdate, Branching, FaultPlan, MipOptions, MipStatus, Pricing};
use tempart_sim::execute;

/// Graceful Ctrl-C (`solve`/`simulate` only): the first SIGINT trips the
/// solve [`Budget`](tempart_lp::Budget)'s cooperative stop flag, so the
/// search stops at its next check and reports the best incumbent + valid
/// bound with a truthful `time-limit` status; a second SIGINT restores the
/// default disposition (terminate). The handler itself only stores a flag
/// (async-signal-safe); a monitor thread does the talking.
#[cfg(unix)]
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use tempart_lp::Budget;

    // hb: seqcst-store -> seqcst-load (INTERRUPTED) — set from an async
    // signal handler, polled by the watcher thread; the strongest ordering
    // is the conservative choice for the one flag a handler may touch.
    static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIG_DFL: usize = 0;

    extern "C" {
        // libc is always linked; declaring `signal` directly avoids a
        // dependency the offline build could not fetch anyway.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sigint(_sig: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }

    pub fn install(budget: Arc<Budget>) {
        unsafe {
            signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
        }
        std::thread::spawn(move || loop {
            if INTERRUPTED.load(Ordering::SeqCst) {
                eprintln!(
                    "interrupted: stopping cooperatively — reporting the best \
                     incumbent and proven bound (Ctrl-C again to abort hard)"
                );
                budget.request_stop();
                unsafe {
                    signal(SIGINT, SIG_DFL);
                }
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        });
    }
}

struct Args {
    command: String,
    spec_path: Option<String>,
    partitions: Option<u32>,
    latency: Option<u32>,
    json: bool,
    format: String,
    certify: bool,
    scale: usize,
    /// The solver flags, parsed straight into the options they set.
    mip: MipOptions,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command")?;
    let mut args = Args {
        command,
        spec_path: None,
        partitions: None,
        latency: None,
        json: false,
        format: "lp".to_string(),
        certify: false,
        scale: 1,
        mip: MipOptions {
            time_limit_secs: 600.0,
            max_nodes: usize::MAX,
            ..MipOptions::default()
        },
    };
    let mip = &mut args.mip;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--partitions" | "-n" => {
                args.partitions = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--partitions takes a number")?,
                )
            }
            "--latency" | "-l" => {
                args.latency = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--latency takes a number")?,
                )
            }
            "--limit" | "--time-limit" => {
                mip.time_limit_secs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--time-limit takes seconds")?
            }
            "--node-limit" => {
                mip.max_nodes = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--node-limit takes a node count")?
            }
            "--faults" => {
                let plan = it.next().ok_or("--faults takes a fault plan")?;
                mip.lp.faults = Some(std::sync::Arc::new(FaultPlan::parse(&plan)?));
            }
            "--json" => args.json = true,
            "--format" => {
                args.format = it.next().ok_or("--format takes lp or mps")?;
            }
            "--threads" | "-j" => {
                mip.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--threads takes a worker count (0 = all CPUs)")?
            }
            "--pricing" => {
                mip.lp.pricing = Some(
                    it.next()
                        .as_deref()
                        .and_then(Pricing::parse)
                        .ok_or("--pricing takes dantzig, devex, or bland")?,
                )
            }
            "--stats" => mip.lp.profile = true,
            "--certify" => args.certify = true,
            "--cuts" => mip.cuts = true,
            "--propagate" => mip.propagate = true,
            "--branching" => {
                mip.branching = it
                    .next()
                    .as_deref()
                    .and_then(Branching::parse)
                    .ok_or("--branching takes rule or pseudocost")?
            }
            "--basis-update" => {
                mip.lp.basis_update = Some(
                    it.next()
                        .as_deref()
                        .and_then(BasisUpdate::parse)
                        .ok_or("--basis-update takes eta or ft-markowitz")?,
                )
            }
            "--scale" => {
                args.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&k| k >= 1)
                    .ok_or("--scale takes a replication factor >= 1")?
            }
            other if args.spec_path.is_none() && !other.starts_with('-') => {
                args.spec_path = Some(other.to_string())
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(args)
}

/// One-line machine-readable solve summary (`--json`). Non-finite gaps
/// become `null` — JSON has no Infinity literal.
fn json_summary(
    status: MipStatus,
    gap: f64,
    source: SolutionSource,
    objective: f64,
    stats: &tempart_lp::MipStats,
) -> String {
    let gap = if gap.is_finite() {
        format!("{gap}")
    } else {
        "null".to_string()
    };
    let objective = if objective.is_finite() {
        format!("{objective}")
    } else {
        "null".to_string()
    };
    // The scale block only appears when a scale feature fired, so the
    // features-off summary stays byte-identical to the pinned shape.
    let scale = if stats.scale.is_empty() {
        String::new()
    } else {
        let s = &stats.scale;
        format!(
            ",\"scale\":{{\"cuts_separated\":{},\"cuts_applied\":{},\"cut_rounds\":{},\
             \"propagation_fixings\":{},\"propagation_infeasible\":{},\
             \"pseudocost_updates\":{},\"strong_branch_solves\":{}}}",
            s.cuts_separated,
            s.cuts_applied,
            s.cut_rounds,
            s.propagation_fixings,
            s.propagation_infeasible,
            s.pseudocost_updates,
            s.strong_branch_solves,
        )
    };
    let engine = &stats.engine;
    format!(
        "{{\"status\":\"{}\",\"gap\":{},\"source\":\"{}\",\"objective\":{},\"nodes\":{},\
         \"engine\":{{\"pricing\":\"{}\",\"basis_update\":\"{}\",\"chosen_by\":\"{}\"}}{}}}",
        status.as_str(),
        gap,
        source.as_str(),
        objective,
        stats.nodes,
        engine.pricing,
        engine.basis_update,
        engine.source.as_str(),
        scale
    )
}

/// Re-verifies a solver claim with the exact certificate checker
/// (`--certify`). Returns the human-readable OK line; a rejected
/// certificate is an error.
fn certify_claim(
    problem: &tempart_lp::Problem,
    x: &[f64],
    objective: f64,
    best_bound: f64,
    status: MipStatus,
) -> Result<String, String> {
    let cert = tempart_audit::certify::Certificate {
        x: x.to_vec(),
        objective,
        best_bound,
        status,
        objective_is_integral: true,
    };
    let rep = tempart_audit::certify::certify(
        problem,
        &cert,
        &tempart_audit::certify::CertifyOptions::default(),
    )
    .map_err(|e| format!("certificate REJECTED: {e}"))?;
    Ok(format!(
        "certificate: OK — exact objective {}, {} vars, {} rows verified",
        rep.exact_objective, rep.vars_checked, rep.rows_checked
    ))
}

/// Why a command failed.
enum Failure {
    /// Bad or missing arguments: reported with the usage line.
    Usage(String),
    /// Anything else (unreadable spec, no feasible partitioning, a rejected
    /// certificate): reported on its own.
    Run(String),
}

impl From<String> for Failure {
    fn from(e: String) -> Self {
        Failure::Run(e)
    }
}

impl From<&str> for Failure {
    fn from(e: &str) -> Self {
        Failure::Run(e.to_string())
    }
}

fn load(path: &Option<String>) -> Result<SpecFile, Failure> {
    let path = path
        .as_ref()
        .ok_or_else(|| Failure::Usage("missing <spec.json> argument".to_string()))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(SpecFile::from_json(&text).map_err(|e| e.to_string())?)
}

/// Applies `--scale K`: replicate-and-chain the instance's task graph `K`
/// times (deterministic; `K = 1` is the identity).
fn apply_scale(
    inst: tempart_core::Instance,
    scale: usize,
) -> Result<tempart_core::Instance, String> {
    if scale <= 1 {
        return Ok(inst);
    }
    let graph = scale_task_graph(inst.graph(), scale).map_err(|e| e.to_string())?;
    tempart_core::Instance::new(graph, inst.fus().clone(), inst.device().clone())
        .map_err(|e| e.to_string())
}

fn run() -> Result<(), Failure> {
    let args = parse_args().map_err(Failure::Usage)?;
    match args.command.as_str() {
        "example" => {
            println!("{}", SpecFile::example().to_json());
            Ok(())
        }
        "dot" => {
            let spec = load(&args.spec_path)?;
            let inst = apply_scale(
                spec.build_instance().map_err(|e| e.to_string())?,
                args.scale,
            )?;
            println!("{}", task_graph_to_dot(inst.graph()));
            Ok(())
        }
        "export" => {
            let spec = load(&args.spec_path)?;
            let inst = spec.build_instance().map_err(|e| e.to_string())?;
            let config =
                ModelConfig::tightened(args.partitions.unwrap_or(2), args.latency.unwrap_or(0));
            let model = IlpModel::build(inst, config).map_err(|e| e.to_string())?;
            match args.format.as_str() {
                "lp" => println!("{}", tempart_lp::write_lp_format(model.problem())),
                "mps" => println!("{}", tempart_lp::write_mps(model.problem())),
                other => {
                    return Err(Failure::Usage(format!(
                        "unknown format `{other}` (lp or mps)"
                    )))
                }
            }
            Ok(())
        }
        "estimate" => {
            let spec = load(&args.spec_path)?;
            let inst = spec.build_instance().map_err(|e| e.to_string())?;
            let mob = Mobility::compute(inst.graph());
            println!("specification: {}", inst.graph());
            let stats = inst.graph().stats();
            let kinds: Vec<String> = stats
                .kind_histogram
                .iter()
                .filter(|&&(_, n)| n > 0)
                .map(|&(k, n)| format!("{n} {k}"))
                .collect();
            println!(
                "shape: task depth {}, largest task {} ops, kinds: {}",
                stats.task_depth,
                stats.max_task_ops,
                kinds.join(", ")
            );
            println!("critical path: {} control steps", mob.critical_path_len());
            let est = estimate_partitions(inst.graph(), inst.fus().library(), inst.device())
                .map_err(|e| e.to_string())?;
            println!(
                "estimated partitions (upper bound N): {}",
                est.num_partitions
            );
            for (p, seg) in est.segments.iter().enumerate() {
                let names: Vec<&str> = seg.iter().map(|&t| inst.graph().task(t).name()).collect();
                println!("  segment {}: {}", p + 1, names.join(", "));
            }
            Ok(())
        }
        "solve" | "simulate" => {
            let spec = load(&args.spec_path)?;
            let inst = apply_scale(
                spec.build_instance().map_err(|e| e.to_string())?,
                args.scale,
            )?;
            let mut mip = args.mip.clone();
            // Pre-build the whole-command budget and attach it: every solve
            // runs under it, so Ctrl-C trips one cooperative stop flag for
            // a graceful anytime exit, and on an automatic latency sweep
            // `--time-limit` covers the whole sweep. The node limit stays
            // per solve (`mip.max_nodes`).
            let budget = std::sync::Arc::new(tempart_lp::Budget::new(
                mip.time_limit_secs,
                usize::MAX,
                usize::MAX,
            ));
            mip.lp.budget = Some(std::sync::Arc::clone(&budget));
            #[cfg(unix)]
            sigint::install(budget);
            #[cfg(not(unix))]
            drop(budget);
            let solve = SolveOptions {
                mip,
                rule: RuleKind::Paper,
                seed_incumbent: true,
            };
            let (solution, config) = match (args.partitions, args.latency) {
                (Some(n), l) => {
                    let config = ModelConfig::tightened(n, l.unwrap_or(0));
                    let model =
                        IlpModel::build(inst.clone(), config.clone()).map_err(|e| e.to_string())?;
                    if args.json {
                        let out = model.solve(&solve).map_err(|e| e.to_string())?;
                        if args.certify {
                            // Validate hard, but keep stdout pure JSON.
                            let line = certify_claim(
                                model.problem(),
                                &out.raw_x,
                                out.objective,
                                out.best_bound,
                                out.status,
                            )?;
                            eprintln!("{line}");
                        }
                        println!(
                            "{}",
                            json_summary(
                                out.status,
                                out.gap,
                                out.source,
                                out.objective,
                                &out.stats
                            )
                        );
                        return Ok(());
                    }
                    println!("model: {}", model.stats());
                    let out = model.solve(&solve).map_err(|e| e.to_string())?;
                    if args.certify {
                        let line = certify_claim(
                            model.problem(),
                            &out.raw_x,
                            out.objective,
                            out.best_bound,
                            out.status,
                        )?;
                        println!("{line}");
                    }
                    println!(
                        "status: {}; {} nodes, {} LP iterations, {:.2}s",
                        out.status.as_str(),
                        out.stats.nodes,
                        out.stats.lp_iterations,
                        out.stats.seconds
                    );
                    if out.status != MipStatus::Optimal && out.solution.is_some() {
                        println!(
                            "anytime: source {}, gap {}",
                            out.source.as_str(),
                            if out.gap.is_finite() {
                                format!("{:.6}", out.gap)
                            } else {
                                "unbounded".to_string()
                            }
                        );
                    }
                    if out.stats.per_worker_nodes.len() > 1 {
                        println!(
                            "workers: {:?} nodes; {}",
                            out.stats.per_worker_nodes,
                            out.stats.contention.report()
                        );
                    }
                    if args.mip.lp.profile {
                        println!("engine: {}", out.stats.engine);
                        println!("{}", out.stats.simplex.report());
                        if !out.stats.scale.is_empty() {
                            println!("{}", out.stats.scale.report());
                        }
                    }
                    (out.solution.ok_or("no feasible partitioning")?, config)
                }
                (None, l) => {
                    let result = TemporalPartitioner::new(
                        inst.graph().clone(),
                        inst.fus().clone(),
                        inst.device().clone(),
                    )
                    .options(PartitionerOptions {
                        config: None,
                        solve,
                        max_latency_relaxation: l.or(Some(3)),
                    })
                    .run()
                    .map_err(|e| e.to_string())?;
                    if args.certify {
                        // The sweep's winning model is rebuilt from its
                        // settled config; model building is deterministic,
                        // so the Problem matches the raw incumbent.
                        let model = IlpModel::build(inst.clone(), result.config().clone())
                            .map_err(|e| e.to_string())?;
                        let line = certify_claim(
                            model.problem(),
                            result.raw_x(),
                            result.objective(),
                            result.best_bound(),
                            result.status(),
                        )?;
                        if args.json {
                            eprintln!("{line}");
                        } else {
                            println!("{line}");
                        }
                    }
                    if args.json {
                        println!(
                            "{}",
                            json_summary(
                                result.status(),
                                result.gap(),
                                result.source(),
                                result.solution().communication_cost() as f64,
                                result.mip_stats(),
                            )
                        );
                        return Ok(());
                    }
                    println!(
                        "auto: N = {}, L = {}; model {}; {} nodes",
                        result.config().num_partitions,
                        result.config().latency_relaxation,
                        result.model_stats(),
                        result.mip_stats().nodes
                    );
                    if result.status() != MipStatus::Optimal {
                        println!(
                            "anytime: status {}, source {}",
                            result.status().as_str(),
                            result.source().as_str()
                        );
                    }
                    if args.mip.lp.profile {
                        println!("engine: {}", result.mip_stats().engine);
                        println!("{}", result.mip_stats().simplex.report());
                        if !result.mip_stats().scale.is_empty() {
                            println!("{}", result.mip_stats().scale.report());
                        }
                    }
                    let cfg = result.config().clone();
                    (result.solution().clone(), cfg)
                }
            };
            println!("{solution}");
            // Gantt chart with reconfiguration boundaries (first step of
            // every partition after the first).
            let firsts: Vec<u32>;
            {
                use std::collections::BTreeMap;
                let mut first_step: BTreeMap<u32, u32> = BTreeMap::new();
                for op in inst.graph().ops() {
                    if let Some(a) = solution.schedule().get(op.id()) {
                        let p = solution.partition_of(op.task()).0;
                        let e = first_step.entry(p).or_insert(u32::MAX);
                        *e = (*e).min(a.step.0);
                    }
                }
                firsts = first_step.values().skip(1).copied().collect();
            }
            println!(
                "{}",
                render_gantt(inst.graph(), inst.fus(), solution.schedule(), &firsts)
            );
            let regs = tempart_core::registers::register_demand(&inst, &solution);
            println!(
                "register demand per partition: {:?} (peak {})",
                regs.demand,
                regs.peak()
            );
            if args.command == "simulate" {
                let report = execute(&inst, &solution);
                println!("simulation:");
                for e in &report.trace {
                    println!("  {e}");
                }
                println!(
                    "total {} cycles ({} compute, {} reconfig, {} memory; {:.1}% overhead)",
                    report.total_cycles(),
                    report.compute_cycles,
                    report.reconfig_cycles,
                    report.memory_cycles,
                    report.overhead_fraction() * 100.0
                );
            }
            let _ = config;
            Ok(())
        }
        other => Err(Failure::Usage(format!(
            "unknown command `{other}` (try solve, estimate, simulate, dot, export, example)"
        ))),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Run(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(Failure::Usage(e)) => {
            eprintln!("error: {e}");
            eprintln!("usage: tempart <solve|estimate|simulate|dot|export|example> [spec.json] [--partitions N] [--latency L] [--time-limit SECS] [--node-limit N] [--threads T] [--pricing dantzig|devex|bland] [--basis-update eta|ft-markowitz] [--cuts] [--propagate] [--branching rule|pseudocost] [--scale K] [--faults PLAN] [--format lp|mps] [--stats] [--certify] [--json]");
            eprintln!(
                "engine: with neither --pricing nor --basis-update, devex/ft-markowitz above {} rows, dantzig/eta otherwise",
                tempart_lp::ENGINE_ROW_THRESHOLD
            );
            ExitCode::FAILURE
        }
    }
}
