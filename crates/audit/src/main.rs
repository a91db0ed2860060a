//! `tempart-audit` — workspace lints and exact certificate checking.
//!
//! ```text
//! tempart-audit lint    [--deny] [--json] [--root PATH]
//! tempart-audit certify [--json]
//! ```
//!
//! `lint` scans the workspace sources and prints findings; with `--deny` it
//! exits nonzero on any unsuppressed finding (the CI gate). `certify`
//! re-solves the g1 golden benchmark rows and Table 4's graph 3 at N3 L5
//! on default options and verifies each claimed optimum in exact
//! arithmetic, exiting nonzero on the first rejected certificate or on a
//! row solved by another engine than its row count selects (the g1 rows
//! run Dantzig pricing on the eta file, the 4,690-row graph-3 model devex
//! on Forrest–Tomlin–Markowitz factors).

use std::path::PathBuf;
use std::process::ExitCode;

use tempart_audit::certify::{certify, Certificate, CertifyOptions};
use tempart_audit::report::findings_to_json;
use tempart_audit::run_lints;
use tempart_bench::{date98_device, date98_instance};
use tempart_core::{IlpModel, ModelConfig, SolveOptions};
use tempart_lp::{BasisUpdate, MipStatus, Pricing};

fn usage() -> ExitCode {
    eprintln!(
        "usage: tempart-audit lint [--deny] [--json] [--root PATH]\n       tempart-audit certify [--json]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(&args[1..]),
        Some("certify") => cmd_certify(&args[1..]),
        _ => usage(),
    }
}

fn cmd_lint(args: &[String]) -> ExitCode {
    let mut deny = false;
    let mut json = false;
    let mut root = PathBuf::from(".");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny" => deny = true,
            "--json" => json = true,
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let findings = match run_lints(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("audit: lint walk failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let unsuppressed = findings.iter().filter(|f| !f.suppressed).count();
    if json {
        print!("{}", findings_to_json(&findings));
    } else {
        for f in &findings {
            let tag = if f.suppressed { " (suppressed)" } else { "" };
            println!("{}:{}: [{}] {}{}", f.path, f.line, f.lint, f.message, tag);
        }
        println!(
            "audit: {} finding(s), {} unsuppressed, {} suppressed",
            findings.len(),
            unsuppressed,
            findings.len() - unsuppressed
        );
    }
    if deny && unsuppressed > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// A pricing and basis-update pair.
type EnginePair = (Pricing, BasisUpdate);

/// The paper-scale engine, and the engine above the size rule's threshold.
const LEGACY: EnginePair = (Pricing::Dantzig, BasisUpdate::Eta);
const LARGE: EnginePair = (Pricing::Devex, BasisUpdate::FtMarkowitz);

/// One certified row: paper graph, exploration set (adders, multipliers,
/// subtracters), N partitions, L relaxation, expected communication cost,
/// and the engine default options must run it on.
type CertRow = (usize, (u32, u32, u32), u32, u32, i64, EnginePair);

/// The g1 Table-3 rows with proven optima, below the engine size rule's
/// threshold, and Table 4's graph 3 at N3 L5, the smallest ten-task model
/// and above it — the same pins as `crates/bench/tests/golden_models.rs`.
const ROWS: &[CertRow] = &[
    (1, (2, 2, 1), 3, 1, 13, LEGACY),
    (1, (2, 2, 1), 2, 2, 5, LEGACY),
    (1, (2, 2, 1), 2, 3, 0, LEGACY),
    (3, (2, 2, 2), 3, 5, 0, LARGE),
];

fn cmd_certify(args: &[String]) -> ExitCode {
    let mut json = false;
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            _ => return usage(),
        }
    }
    let mut rows_json = Vec::new();
    for &(g, (a, m, s), n, l, expected_cost, engine) in ROWS {
        let label = format!("g{g} N{n} L{l}");
        let inst = match date98_instance(g, a, m, s, date98_device()) {
            Ok(i) => i,
            Err(e) => {
                eprintln!("audit: certify: building g{g} failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let model = match IlpModel::build(inst, ModelConfig::tightened(n, l)) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("audit: certify: {label}: model build failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let out = match model.solve(&SolveOptions::default()) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("audit: certify: {label}: solve failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if out.status != MipStatus::Optimal {
            eprintln!(
                "audit: certify: {label}: expected a proven optimum, got {}",
                out.status
            );
            return ExitCode::FAILURE;
        }
        let ran = out.stats.engine;
        if (ran.pricing, ran.basis_update) != engine {
            eprintln!(
                "audit: certify: {label}: default options ran {ran}, expected {}/{}",
                engine.0, engine.1
            );
            return ExitCode::FAILURE;
        }
        let cert = Certificate {
            x: out.raw_x.clone(),
            objective: out.objective,
            best_bound: out.best_bound,
            status: out.status,
            objective_is_integral: true,
        };
        let report = match certify(model.problem(), &cert, &CertifyOptions::default()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("audit: certify: {label}: REJECTED: {e}");
                return ExitCode::FAILURE;
            }
        };
        if report.exact_objective != expected_cost as f64 {
            eprintln!(
                "audit: certify: {label}: exact objective {} != pinned cost {expected_cost}",
                report.exact_objective
            );
            return ExitCode::FAILURE;
        }
        if json {
            rows_json.push(format!(
                "    {{\"row\": \"{label}\", \"engine\": \"{}/{}\", \"exact_objective\": {}, \"vars\": {}, \"rows\": {}, \"closed_by_rounding\": {}}}",
                ran.pricing,
                ran.basis_update,
                report.exact_objective,
                report.vars_checked,
                report.rows_checked,
                report.closed_by_rounding
            ));
        } else {
            println!(
                "audit: certify: {label}: OK — {ran}, exact objective {}, {} vars, {} rows verified{}",
                report.exact_objective,
                report.vars_checked,
                report.rows_checked,
                if report.closed_by_rounding {
                    " (gap closed by integral rounding)"
                } else {
                    ""
                }
            );
        }
    }
    if json {
        println!("{{\n  \"certified\": [\n{}\n  ]\n}}", rows_json.join(",\n"));
    } else {
        println!("audit: certify: all {} rows verified exactly", ROWS.len());
    }
    ExitCode::SUCCESS
}
