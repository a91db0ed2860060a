//! The `tables` binary reports failure through its exit status, so CI and
//! `verify.sh` gate on the command itself rather than on its output.

use std::process::Command;

#[test]
fn unknown_experiment_exits_non_zero() {
    let status = Command::new(env!("CARGO_BIN_EXE_tables"))
        .arg("nosuch")
        .status()
        .expect("tables runs");
    assert!(!status.success(), "`tables nosuch` exited {status}");
}
