//! Model-checker verification of the lock-free core (feature-gated).
//!
//! Runs every `race_models` scenario under the tier selected by
//! `Config::ci_default()`: preemption-bounded by default (the CI smoke
//! job), full DPOR when `TEMPART_RACE_FULL=1` (the nightly job). A clean
//! report means *no interleaving in the explored tier* violates the
//! primitive's invariant — and `truncated == 0` means no run was cut off
//! by the step cap, so the tier's coverage claim is honest.
#![cfg(feature = "race-model")]

use tempart_lp::race_models;
use tempart_race::explore::{Config, Report};

fn assert_clean(name: &str, report: &Report) {
    assert!(
        report.violation.is_none(),
        "{name}: violation found: {}",
        report.violation.as_ref().unwrap()
    );
    assert_eq!(
        report.truncated, 0,
        "{name}: step-cap truncation: {report:?}"
    );
    assert!(!report.exhausted, "{name}: schedule budget exhausted");
    assert!(report.schedules >= 1, "{name}: nothing explored");
}

#[test]
fn deque_no_lost_items_all_interleavings() {
    let r = race_models::deque_no_lost_items(Config::ci_default());
    assert_clean("deque_no_lost_items", &r);
    assert!(r.schedules > 1, "owner/thief races must branch: {r:?}");
}

#[test]
fn seqlock_keeps_minimum_all_interleavings() {
    let r = race_models::seqlock_keeps_minimum(Config::ci_default());
    assert_clean("seqlock_keeps_minimum", &r);
    assert!(r.schedules > 1, "writer races must branch: {r:?}");
}

#[test]
fn rendezvous_terminates_all_interleavings() {
    let r = race_models::rendezvous_terminates(Config::ci_default());
    assert_clean("rendezvous_terminates", &r);
    assert!(r.schedules > 1, "park/publish races must branch: {r:?}");
}

#[test]
fn proof_incomplete_join_edge_all_interleavings() {
    let r = race_models::proof_incomplete_join_edge(Config::ci_default());
    assert_clean("proof_incomplete_join_edge", &r);
}
