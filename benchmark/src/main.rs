//! `benchmark` — the repository benchmark.
//!
//! ```text
//! benchmark run [<workload> | --workload W] [--seed S] [--seconds T] [--trace [0|1]] [--out DIR]
//! benchmark all [--seed S] [--seconds T] [--out DIR]
//! benchmark check <runsA> <runsB> [--bench BENCHMARK.json]
//! ```
//!
//! `run` measures one workload (`ladder`, `wide`, `service`) in this
//! process, prints every metric with its unit, writes the result file (and,
//! traced, the span file) under `--out`, and ends with one JSON line:
//! untraced it carries the end-to-end metrics, traced the per-layer ones.
//! `all` runs every workload untraced and traced, each in its own process.
//! `check` compares two directories of result files against the bounds in
//! `BENCHMARK.json`. Timed runs refuse a debug build.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use tempart_benchmark::check;
use tempart_benchmark::report::{self, RunOptions, END_TO_END, PER_LAYER};
use tempart_benchmark::stats::beyond;
use tempart_benchmark::workload::{Sizes, Workload};

const DEFAULT_SEED: u64 = 1998;
const DEFAULT_SECONDS: f64 = 30.0;
const DEFAULT_OUT: &str = "target/benchmark";

struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    bench: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        positional: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from(DEFAULT_OUT),
        bench: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} takes {what}"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                a.seconds = value("seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds takes a positive number")?
            }
            "--out" => a.out = PathBuf::from(value("a directory")?),
            "--bench" => a.bench = PathBuf::from(value("a path")?),
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other if !other.starts_with("--") => a.positional.push(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(a)
}

fn refuse_debug() -> Result<(), String> {
    if cfg!(debug_assertions) {
        Err("refusing a timed run in a debug build; build with --release".into())
    } else {
        Ok(())
    }
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_run(a: &Args) -> Result<bool, String> {
    refuse_debug()?;
    let name = a
        .workload
        .clone()
        .or_else(|| a.positional.first().cloned())
        .ok_or("run needs a workload: ladder, wide or service")?;
    let workload = Workload::parse(&name)
        .ok_or(format!("unknown workload `{name}` (ladder, wide, service)"))?;
    let result = report::run(RunOptions {
        workload,
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        sizes: Sizes::frozen(),
    })?;
    let p = &result.untraced;
    let items = report::item_latencies(p).len();
    println!(
        "workload {} seed {} host_cpus {} profile {}: {} items x {} passes ({} items beyond p75), {:.2} s measured",
        workload.name(),
        a.seed,
        report::host_cpus(),
        report::build_profile(),
        items,
        p.passes,
        beyond(items, 0.75),
        p.wall,
    );
    for m in report::end_to_end(&result) {
        println!("  {:<24} {:>14.6} {}", m.name, m.value, m.unit);
    }
    for s in p
        .samples
        .iter()
        .chain(result.traced.iter().flat_map(|t| &t.samples))
    {
        if let tempart_benchmark::solve::Outcome::Failed(why) = &s.outcome {
            println!("  FAILED pass {} item {}: {why}", s.pass, s.item);
        }
    }
    let stem = format!("{}-{}", workload.name(), a.seed);
    if let Some(traced) = &result.traced {
        println!(
            "per layer (traced phase, {} samples):",
            traced.samples.len()
        );
        for (m, d) in report::per_layer(&result).iter().zip(PER_LAYER) {
            println!(
                "  {:<24} {:>14.6} {:<6} -> {}",
                m.name, m.value, m.unit, d.moves
            );
        }
        println!("self time:\n{}", report::self_time_table(&result));
        write(
            &a.out.join(format!("trace-{stem}.jsonl")),
            &report::trace_jsonl(&traced.spans),
        )?;
    }
    let file = if a.trace {
        format!("{stem}-trace.json")
    } else {
        format!("{stem}.json")
    };
    write(&a.out.join(file), &report::result_json(&result))?;
    let names: Vec<&str> = if a.trace {
        PER_LAYER.iter().map(|d| d.name).collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, _)| n)
            .filter(|&n| n != "fail_frac")
            .collect()
    };
    println!("{}", report::result_line(&result, &names));
    Ok(result.failed() == 0)
}

fn cmd_all(a: &Args) -> Result<bool, String> {
    refuse_debug()?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for trace in [false, true] {
        for w in Workload::ALL {
            let mut cmd = Command::new(&exe);
            cmd.arg("run")
                .arg(w.name())
                .args(["--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&a.out);
            println!(
                "== {} ({}) ==",
                w.name(),
                if trace { "traced" } else { "untraced" }
            );
            let status = cmd
                .status()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            ok &= status.success();
        }
    }
    Ok(ok)
}

fn cmd_check(a: &Args) -> Result<bool, String> {
    let [dir_a, dir_b] = a.positional.as_slice() else {
        return Err("check takes two result directories".into());
    };
    let bounds = check::load_bounds(&a.bench)?;
    let runs_a = check::load_runs(Path::new(dir_a))?;
    let runs_b = check::load_runs(Path::new(dir_b))?;
    let (table, ok) = check::report(&runs_a, &runs_b, &bounds);
    print!("{table}");
    println!(
        "{}",
        if ok {
            "no regression"
        } else {
            "NOT CLEAR: see rows above"
        }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: benchmark <run|all|check> ...");
        return ExitCode::from(2);
    };
    let result = parse(rest).and_then(|a| match command.as_str() {
        "run" => cmd_run(&a),
        "all" => cmd_all(&a),
        "check" => cmd_check(&a),
        other => Err(format!("unknown command `{other}` (run, all, check)")),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
