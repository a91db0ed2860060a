//! # tempart-audit
//!
//! Static-analysis lints and exact certificate checking for the `tempart`
//! solver stack — the correctness tooling behind `cargo run -p
//! tempart-audit -- lint|certify` and the CI `audit` gate.
//!
//! ## Lint engine
//!
//! A dependency-free hand-rolled Rust lexer ([`lexer`]) feeds five
//! solver-specific lints ([`lints`]):
//!
//! | lint | scope | invariant |
//! |------|-------|-----------|
//! | `no-panic` | `crates/lp/src`, `crates/core/src`, `crates/graph/src/scale.rs` | no `unwrap`/`expect`/`panic!`/`todo!` in non-test code |
//! | `float-eq` | `crates/lp/src`, `crates/core/src` | no exact float `==`/`!=` outside `crates/lp/src/tol.rs` |
//! | `nondet` | `crates/lp/src` except `faults.rs`, `profile.rs`; `crates/graph/src/scale.rs` | no `Instant::now`/`SystemTime`/`HashMap` in solver decision paths |
//! | `lock-order` | `crates/lp/src/{parallel,worksteal,pseudocost}.rs` | `lock(…)` acquisitions follow the `// lock-order: N` declarations |
//! | `atomic-ordering` | `crates/{lp,server,cli}/src` (bins included) | every atomic `Ordering` site matches a file-scoped `// hb:` declaration |
//!
//! L4 deliberately does not track atomics: the work-stealing scheduler's
//! lock-free structures (the seqlock incumbent exchange, the deques' `len`
//! hints, the termination/cancellation flags) cannot deadlock, so ordering
//! them would only add noise. Only blocking `lock(…)` acquisitions — the
//! deque mutexes and the idle/open-bound/status/error locks — carry
//! `// lock-order: N` declarations.
//!
//! Sites with a justified `// audit: allow(<lint>) — reason` comment are
//! reported as suppressed and do not fail `--deny`; reasonless or unknown
//! suppressions are themselves findings.
//!
//! ## Certificate engine
//!
//! [`certify`](certify::certify) re-verifies a solver claim (incumbent,
//! objective, bound, status) against the model in exact dyadic-rational
//! arithmetic ([`exact::Dyadic`]) — primal feasibility, objective
//! recomputation, and bound/status consistency — independently of the float
//! simplex that produced it.

pub mod certify;
pub mod exact;
pub mod lexer;
pub mod lints;
pub mod report;

use std::path::{Path, PathBuf};

use lints::{FileLints, Finding};

/// Decides which lints apply to a repo-relative path (forward-slash
/// normalized). Pure so fixtures can exercise the scoping rules.
pub fn lints_for_path(path: &str) -> FileLints {
    let in_lp = path.starts_with("crates/lp/src/");
    let in_core = path.starts_with("crates/core/src/");
    // The service layer holds the same no-panic bar as the solver (a panic
    // in a worker is an isolated fault, never a design choice) plus the
    // float-eq discipline for the objective comparisons it relays. Its
    // wall-clock nature (Instant-based deadlines, socket timing) makes the
    // nondeterminism lint a non-goal there. Process entry points
    // (`src/bin/`) stay out of scope: they report failures through exit
    // codes, not recovery paths.
    let in_server =
        path.starts_with("crates/server/src/") && !path.starts_with("crates/server/src/bin/");
    // The hand-rolled JSON layer feeds the wire protocol: hostile input
    // must never panic the parser.
    let in_cli_json = path == "crates/cli/src/json.rs";
    let nondet_exempt = matches!(path, "crates/lp/src/faults.rs" | "crates/lp/src/profile.rs");
    // The model-checker scenarios assert their invariants by panicking —
    // that *is* the violation signal the explorer catches and replays —
    // so the no-panic bar cannot apply to them. They still carry the
    // atomic-ordering contract.
    let model_harness = path.ends_with("/race_models.rs");
    // The scaled-instance generator underwrites the kernel benchmark's
    // reproducibility claim ("same (graph, k), same instance on every
    // host"), so it holds the solver's determinism bar — no clocks, no
    // hash-order iteration, no RNG-adjacent types — and the no-panic bar
    // (it feeds Result-returning builders).
    let in_scale = path == "crates/graph/src/scale.rs";
    FileLints {
        no_panic: (in_lp || in_core || in_server || in_cli_json || in_scale) && !model_harness,
        float_eq: (in_lp || in_core || in_server) && path != "crates/lp/src/tol.rs",
        nondet: (in_lp && !nondet_exempt) || in_scale,
        lock_order: matches!(
            path,
            "crates/lp/src/parallel.rs"
                | "crates/lp/src/worksteal.rs"
                | "crates/lp/src/pseudocost.rs"
                | "crates/server/src/lib.rs"
                | "crates/server/src/queue.rs"
                | "crates/server/src/cache.rs"
        ),
        // Every atomic in the solver, the service (its bins included), and
        // the CLI must carry a reviewed happens-before contract. The race
        // crate itself is exempt: its `SeqCst` internals *implement* the
        // model checker, they are not claims about production orderings.
        atomic_ordering: in_lp
            || path.starts_with("crates/server/src/")
            || path.starts_with("crates/cli/src/"),
    }
}

/// Walks `root` for workspace sources in lint scope (`crates/*/src/**/*.rs`)
/// and lints each. Returns findings sorted by path then line.
///
/// # Errors
///
/// Propagates I/O errors from directory walking or file reads.
pub fn run_lints(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    for krate in read_dir_sorted(&crates_dir)? {
        let src = krate.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    let mut findings = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let which = lints_for_path(&rel);
        if !(which.no_panic
            || which.float_eq
            || which.nondet
            || which.lock_order
            || which.atomic_ordering)
        {
            continue;
        }
        let src = std::fs::read_to_string(&file)?;
        findings.extend(lints::lint_file(&rel, &src, &which));
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
    Ok(findings)
}

fn read_dir_sorted(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    Ok(entries)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for path in read_dir_sorted(dir)? {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoping_rules() {
        let lp = lints_for_path("crates/lp/src/simplex.rs");
        assert!(lp.no_panic && lp.float_eq && lp.nondet && !lp.lock_order);

        let tol = lints_for_path("crates/lp/src/tol.rs");
        assert!(tol.no_panic && !tol.float_eq, "tol.rs is the L2 allowlist");

        let faults = lints_for_path("crates/lp/src/faults.rs");
        assert!(faults.no_panic && !faults.nondet, "faults.rs is L3-exempt");

        let par = lints_for_path("crates/lp/src/parallel.rs");
        assert!(par.lock_order);

        let ws = lints_for_path("crates/lp/src/worksteal.rs");
        assert!(ws.lock_order, "the deque locks are L4-ordered");
        let pc = lints_for_path("crates/lp/src/pseudocost.rs");
        assert!(
            pc.lock_order && pc.no_panic && pc.float_eq && pc.nondet,
            "the shared pseudo-cost engine is the L6 leaf lock"
        );
        let cuts = lints_for_path("crates/lp/src/cuts.rs");
        assert!(cuts.no_panic && cuts.float_eq && cuts.nondet && !cuts.lock_order);
        let prop = lints_for_path("crates/lp/src/propagate.rs");
        assert!(prop.no_panic && prop.float_eq && prop.nondet && !prop.lock_order);
        let ft = lints_for_path("crates/lp/src/ft.rs");
        assert!(
            ft.no_panic && ft.float_eq && ft.nondet && !ft.lock_order,
            "the Forrest–Tomlin kernel holds every solver bar"
        );
        let scale = lints_for_path("crates/graph/src/scale.rs");
        assert!(
            scale.no_panic && scale.nondet && !scale.float_eq && !scale.lock_order,
            "the scaled-instance generator holds the determinism and panic bars"
        );
        let graph_other = lints_for_path("crates/graph/src/builder.rs");
        assert!(
            !(graph_other.no_panic || graph_other.nondet),
            "the rest of the graph crate stays out of scope"
        );

        let core = lints_for_path("crates/core/src/model.rs");
        assert!(core.no_panic && core.float_eq && !core.nondet);

        let cli = lints_for_path("crates/cli/src/json.rs");
        assert!(
            cli.no_panic && !(cli.float_eq || cli.nondet || cli.lock_order),
            "the wire-facing JSON parser must never panic on hostile input"
        );
        let cli_other = lints_for_path("crates/cli/src/proto.rs");
        assert!(
            !(cli_other.no_panic || cli_other.float_eq || cli_other.nondet || cli_other.lock_order),
            "the rest of the CLI stays outside the panic/float/lock scopes"
        );

        // L5 covers every atomic in lp, server (bins too), and cli; the
        // race crate and the model harnesses keep only the parts that
        // make sense for them.
        for covered in [
            "crates/lp/src/worksteal.rs",
            "crates/server/src/stats.rs",
            "crates/server/src/bin/tempart-server.rs",
            "crates/cli/src/bin/tempart.rs",
        ] {
            assert!(
                lints_for_path(covered).atomic_ordering,
                "{covered} carries the hb contract"
            );
        }
        assert!(
            !lints_for_path("crates/race/src/sync.rs").atomic_ordering,
            "the checker's own internals are not production ordering claims"
        );
        let lp_models = lints_for_path("crates/lp/src/race_models.rs");
        assert!(
            lp_models.atomic_ordering && !lp_models.no_panic,
            "model scenarios assert by panicking but still declare orderings"
        );
        let srv_models = lints_for_path("crates/server/src/race_models.rs");
        assert!(srv_models.atomic_ordering && !srv_models.no_panic);

        let srv = lints_for_path("crates/server/src/worker.rs");
        assert!(
            srv.no_panic && srv.float_eq && !srv.nondet,
            "the service layer holds the solver's panic bar but is wall-clock by design"
        );
        for locked in [
            "crates/server/src/lib.rs",
            "crates/server/src/queue.rs",
            "crates/server/src/cache.rs",
        ] {
            assert!(
                lints_for_path(locked).lock_order,
                "{locked} declares ordered locks"
            );
        }
        assert!(
            !lints_for_path("crates/server/src/conn.rs").lock_order,
            "lock-free service files skip the ordering lint"
        );
        let srv_bin = lints_for_path("crates/server/src/bin/tempart-server.rs");
        assert!(
            !(srv_bin.no_panic || srv_bin.float_eq || srv_bin.nondet || srv_bin.lock_order),
            "process entry points are out of scope"
        );
    }
}
