//! End-to-end tests of the `tempart` binary.

use std::ffi::OsStr;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

fn tempart() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tempart"))
}

/// The example spec in a file of its own, deleted on drop. Tests run in
/// parallel (and several test processes may share the temp dir), so a
/// shared file could be read while another test is rewriting it.
struct ExampleSpec(PathBuf);

impl AsRef<OsStr> for ExampleSpec {
    fn as_ref(&self) -> &OsStr {
        self.0.as_os_str()
    }
}

impl Drop for ExampleSpec {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn example_spec_path() -> ExampleSpec {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join("tempart-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("example-{}-{n}.json", std::process::id()));
    let out = tempart().arg("example").output().expect("run example");
    assert!(out.status.success());
    std::fs::write(&path, &out.stdout).expect("write spec");
    ExampleSpec(path)
}

#[test]
fn example_emits_valid_spec() {
    let out = tempart().arg("example").output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    let spec = tempart_cli::SpecFile::from_json(&text).expect("parses");
    assert_eq!(spec.name, "dsp-block");
}

#[test]
fn solve_pipeline_via_binary() {
    let spec = example_spec_path();
    let out = tempart()
        .arg("solve")
        .arg(&spec)
        .args(["--partitions", "2", "--latency", "1", "--limit", "120"])
        .output()
        .expect("run solve");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("status: optimal"), "{stdout}");
    assert!(stdout.contains("communication cost") || stdout.contains("temporal partitioning"));
    assert!(stdout.contains("register demand"));
}

#[test]
fn solve_json_summary_via_binary() {
    let spec = example_spec_path();
    let out = tempart()
        .arg("solve")
        .arg(&spec)
        .args(["--partitions", "2", "--latency", "1", "--json"])
        .output()
        .expect("run solve --json");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.trim();
    assert!(line.starts_with('{') && line.ends_with('}'), "{stdout}");
    for key in [
        "\"status\":\"optimal\"",
        "\"gap\":0",
        "\"source\":\"exact\"",
        "\"objective\":0",
        "\"nodes\":",
    ] {
        assert!(line.contains(key), "missing {key} in {line}");
    }
}

#[test]
fn json_and_stats_name_the_engine_and_who_chose_it() {
    let spec = example_spec_path();
    let run = |extra: &[&str]| {
        let out = tempart()
            .arg("solve")
            .arg(&spec)
            .args(["--partitions", "2", "--latency", "1"])
            .args(extra)
            .output()
            .expect("run solve");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    // The example's 161 rows are below the threshold: the size rule keeps
    // the legacy engine.
    let line = run(&["--json"]);
    assert!(
        line.contains(
            "\"engine\":{\"pricing\":\"dantzig\",\"basis_update\":\"eta\",\"chosen_by\":\"size-rule\"}"
        ),
        "{line}"
    );
    let line = run(&["--pricing", "devex", "--json"]);
    assert!(
        line.contains(
            "\"engine\":{\"pricing\":\"devex\",\"basis_update\":\"eta\",\"chosen_by\":\"caller\"}"
        ),
        "{line}"
    );
    let stdout = run(&["--basis-update", "ft-markowitz", "--stats"]);
    assert!(
        stdout.contains("engine: dantzig/ft-markowitz (chosen by caller)"),
        "{stdout}"
    );
}

#[test]
fn solve_faulted_expired_limit_still_reports_answer() {
    // A fault plan plus an already-expired deadline: the anytime contract
    // must still exit 0 with a feasible answer and a reported source.
    let spec = example_spec_path();
    let out = tempart()
        .arg("solve")
        .arg(&spec)
        .args([
            "--partitions",
            "2",
            "--latency",
            "1",
            "--faults",
            "singular@1,skew@1",
            "--json",
        ])
        .output()
        .expect("run solve --faults");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.trim();
    assert!(line.contains("\"status\":"), "{line}");
    assert!(line.contains("\"source\":"), "{line}");
}

#[test]
fn solve_scale_flags_prove_the_same_optimum() {
    // Every scale feature on at once: the answer must match the default
    // features-off run (same status, same objective).
    let spec = example_spec_path();
    let out = tempart()
        .arg("solve")
        .arg(&spec)
        .args([
            "--partitions",
            "2",
            "--latency",
            "1",
            "--cuts",
            "--propagate",
            "--branching",
            "pseudocost",
            "--json",
        ])
        .output()
        .expect("run solve with scale flags");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.trim();
    assert!(line.contains("\"status\":\"optimal\""), "{line}");
    assert!(line.contains("\"objective\":0"), "{line}");

    let out = tempart()
        .arg("solve")
        .arg(&spec)
        .args(["--partitions", "2", "--branching", "strongest"])
        .output()
        .expect("run solve with bad branching");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--branching takes rule or pseudocost"),
        "{stderr}"
    );
}

#[test]
fn basis_update_flag_takes_the_surviving_kernels() {
    let spec = example_spec_path();
    let out = tempart()
        .arg("solve")
        .arg(&spec)
        .args(["--partitions", "2", "--latency", "1"])
        .args(["--basis-update", "ft-markowitz", "--json"])
        .output()
        .expect("run solve --basis-update ft-markowitz");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.trim();
    assert!(line.contains("\"status\":\"optimal\""), "{line}");
    assert!(line.contains("\"objective\":0"), "{line}");

    // `ft` is not a kernel and `--refactor` not a flag: each is a usage
    // error whose usage line names the kernels there are.
    for (flag, value, error) in [
        (
            "--basis-update",
            "ft",
            "--basis-update takes eta or ft-markowitz",
        ),
        ("--refactor", "dynamic", "unexpected argument `--refactor`"),
    ] {
        let out = tempart()
            .arg("solve")
            .arg(&spec)
            .args(["--partitions", "2", flag, value])
            .output()
            .expect("run solve with a removed kernel option");
        assert!(!out.status.success(), "{flag} {value} accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(error), "{flag} {value}: {stderr}");
        assert!(
            stderr.contains("usage: ") && stderr.contains("[--basis-update eta|ft-markowitz]"),
            "{flag} {value}: {stderr}"
        );
        assert!(!stderr.contains("[--refactor"), "{flag} {value}: {stderr}");
    }
}

#[test]
fn removed_search_flags_are_unexpected_arguments() {
    let spec = example_spec_path();
    for flag in ["--portfolio", "--rins"] {
        let out = tempart()
            .arg("solve")
            .arg(&spec)
            .args(["--partitions", "2", flag])
            .output()
            .expect("run solve with a removed flag");
        assert!(!out.status.success(), "{flag} accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unexpected argument `{flag}`")),
            "{flag}: {stderr}"
        );
        assert!(stderr.contains("usage: "), "{flag}: {stderr}");
        assert!(!stderr.contains(&format!("[{flag}]")), "{flag}: {stderr}");
    }
}

#[test]
fn solve_failure_prints_no_usage_line() {
    // A well-formed command that finds no partitioning is not a usage
    // error: the error and the exit code stay, the usage line does not.
    // The example's units need more area than a 100-unit device offers in
    // one partition.
    let spec = example_spec_path();
    let text = std::fs::read_to_string(&spec.0).expect("read spec");
    let small = text.replace("\"capacity\": 800", "\"capacity\": 100");
    assert_ne!(small, text, "the example spec names its capacity");
    std::fs::write(&spec.0, small).expect("write spec");
    let out = tempart()
        .arg("solve")
        .arg(&spec)
        .args(["--partitions", "1", "--latency", "0"])
        .output()
        .expect("run an infeasible solve");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("status: infeasible"), "{stdout}");
    assert!(
        stderr.contains("error: no feasible partitioning"),
        "{stderr}"
    );
    assert!(!stderr.contains("usage"), "{stderr}");

    // A missing spec file is a usage error, and the usage line names
    // every command.
    let out = tempart().arg("solve").output().expect("run solve");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("usage: tempart <solve|estimate|simulate|dot|export|example>"),
        "{stderr}"
    );
}

#[test]
fn estimate_reports_segments() {
    let spec = example_spec_path();
    let out = tempart().arg("estimate").arg(&spec).output().expect("run");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("critical path"));
    assert!(stdout.contains("segment 1"));
}

#[test]
fn dot_emits_graphviz() {
    let spec = example_spec_path();
    let out = tempart().arg("dot").arg(&spec).output().expect("run");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("digraph"));
}

#[test]
fn export_emits_lp_and_mps() {
    let spec = example_spec_path();
    for (fmt, marker) in [("lp", "Minimize"), ("mps", "ENDATA")] {
        let out = tempart()
            .arg("export")
            .arg(&spec)
            .args(["--partitions", "2", "--latency", "1", "--format", fmt])
            .output()
            .expect("run export");
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(marker),
            "format {fmt}: {}",
            &stdout[..200.min(stdout.len())]
        );
    }
}

#[test]
fn bad_usage_fails_with_message() {
    let out = tempart().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command"));

    let out = tempart().arg("solve").output().expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage"));
}
