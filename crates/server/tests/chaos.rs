//! Chaos suite: scripted faults at every service seam, with one invariant
//! throughout — every accepted job reaches exactly one truthful terminal
//! status, and no fault takes down the server or a bystander connection.
//!
//! All servers here run a single worker so fault-plan occurrence numbers
//! are schedule-independent.

mod common;

use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use common::*;
use tempart_cli::proto::{Request, Response};
use tempart_lp::FaultPlan;

fn plan(s: &str) -> Option<Arc<FaultPlan>> {
    Some(Arc::new(FaultPlan::parse(s).expect("valid plan")))
}

#[test]
fn injected_worker_panic_requeues_once_then_completes() {
    let handle = server(|c| c.faults = plan("panic@1"));
    let mut c = connect(&handle);
    let frames = rpc(&mut c, &solve_request(|_| {}));
    let s = summary(&frames);
    assert_eq!(s.status, "optimal", "the retry finishes the job");
    assert!(s.requeued, "the summary discloses the crash recovery");
    drop(c);
    let stats = handle.shutdown();
    assert_eq!((stats.panics, stats.requeues), (1, 1));
    assert_eq!((stats.completed, stats.failed), (1, 0));
    assert_eq!(stats.orphaned(), 0);
}

#[test]
fn double_panic_fails_truthfully_without_orphaning() {
    let handle = server(|c| c.faults = plan("panic@1,panic@2"));
    let mut c = connect(&handle);
    let frames = rpc(&mut c, &solve_request(|_| {}));
    let s = summary(&frames);
    assert_eq!(
        s.status, "failed",
        "requeue-once means the second crash is terminal"
    );
    assert!(s.requeued);
    drop(c);
    let stats = handle.shutdown();
    assert_eq!(stats.panics, 2);
    assert_eq!((stats.completed, stats.failed), (0, 1));
    assert_eq!(stats.orphaned(), 0, "even a failed job is accounted");
}

#[test]
fn poisoned_cache_entry_degrades_to_a_cold_solve_never_a_wrong_answer() {
    let handle = server(|c| c.faults = plan("cachepoison@1"));
    let mut c = connect(&handle);
    let run = |c: &mut std::net::TcpStream| {
        let frames = rpc(c, &solve_request(|p| p.warm_start = true));
        let s = summary(&frames);
        (s.cache.clone(), s.objective, s.cost, s.nodes)
    };
    // Store #1 is poisoned: the second job's hit fails exact validation,
    // evicts the entry, and solves cold — then re-stores a clean entry
    // (store #2), so later jobs hit for real and answer from it without
    // a search. Objectives must agree throughout.
    let a = run(&mut c);
    let b = run(&mut c);
    let d = run(&mut c);
    let e = run(&mut c);
    assert_eq!(
        [a.0.as_str(), b.0.as_str(), d.0.as_str(), e.0.as_str()],
        ["miss", "stale", "hit", "hit"]
    );
    assert!(b.3 >= 1, "the stale job solved cold");
    assert_eq!((d.3, e.3), (0, 0), "clean hits run no search");
    for other in [&b, &d, &e] {
        assert_eq!(a.1, other.1, "every path reports the same objective");
        assert_eq!(a.2, other.2);
    }
    drop(c);
    let stats = handle.shutdown();
    assert_eq!(
        (stats.cache_misses, stats.cache_stale, stats.cache_hits),
        (1, 1, 2)
    );
    assert_eq!(stats.orphaned(), 0);
}

#[test]
fn injected_torn_frame_closes_one_connection_not_the_server() {
    let handle = server(|c| c.faults = plan("tornframe@1"));
    let mut victim = connect(&handle);
    send(&mut victim, &Request::Ping);
    match recv(&mut victim) {
        Some(Response::Error { reason }) => {
            assert!(reason.contains("torn frame"), "truthful reason: {reason}")
        }
        other => panic!("expected torn-frame error, got {other:?}"),
    }
    assert!(recv(&mut victim).is_none(), "the torn connection closes");
    drop(victim);
    let mut bystander = connect(&handle);
    let frames = rpc(&mut bystander, &Request::Ping);
    assert!(matches!(frames.as_slice(), [Response::Pong]));
    drop(bystander);
    let stats = handle.shutdown();
    assert_eq!(stats.torn_frames, 1);
}

#[test]
fn real_torn_frame_is_survived_and_accounted() {
    let handle = server(|_| {});
    let mut liar = connect(&handle);
    // Claim 100 payload bytes, deliver 5, vanish.
    liar.write_all(&100u32.to_be_bytes()).expect("prefix");
    liar.write_all(b"tempa").expect("partial payload");
    drop(liar);
    let stats = wait_for(&handle, |s| s.torn_frames >= 1);
    assert_eq!(stats.torn_frames, 1, "the torn read is observed");
    let mut c = connect(&handle);
    let frames = rpc(&mut c, &Request::Ping);
    assert!(matches!(frames.as_slice(), [Response::Pong]));
    drop(c);
    assert_eq!(handle.shutdown().orphaned(), 0);
}

#[test]
fn mid_job_disconnect_still_reaches_one_terminal_status() {
    let handle = server(|c| c.faults = plan("disconnect@1"));
    let mut c = connect(&handle);
    send(&mut c, &solve_request(|p| p.progress = true));
    assert!(matches!(recv(&mut c), Some(Response::Accepted { .. })));
    assert!(
        recv(&mut c).is_none(),
        "the server drops the connection after accepting"
    );
    drop(c);
    let stats = wait_for(&handle, |s| s.completed + s.failed >= 1);
    assert_eq!(stats.disconnects, 1);
    assert_eq!(stats.completed, 1, "the abandoned job still finishes");
    assert_eq!(stats.orphaned(), 0);
    assert_eq!(handle.shutdown().orphaned(), 0);
}

#[test]
fn slow_client_is_stalled_not_corrupted() {
    let handle = server(|c| c.faults = plan("slowclient@1"));
    let mut c = connect(&handle);
    let started = Instant::now();
    let frames = rpc(&mut c, &Request::Ping);
    let elapsed = started.elapsed();
    assert!(matches!(frames.as_slice(), [Response::Pong]));
    assert!(
        elapsed.as_millis() >= 40,
        "the injected stall is visible ({elapsed:?})"
    );
    drop(c);
    assert_eq!(handle.shutdown().orphaned(), 0);
}

#[test]
fn chaos_storm_preserves_the_orphan_invariant() {
    // Several sites armed at once across sequential jobs: a panic on the
    // first, a poisoned store, a slow write, and a dropped client.
    let handle = server(|c| c.faults = plan("panic@1,cachepoison@1,slowclient@3,disconnect@2"));
    // Job 1: survives a panic (requeued), stores a poisoned entry.
    let mut c1 = connect(&handle);
    let s1 = {
        let frames = rpc(&mut c1, &solve_request(|p| p.warm_start = true));
        summary(&frames).clone()
    };
    assert_eq!((s1.status.as_str(), s1.requeued), ("optimal", true));
    drop(c1);
    // Job 2: the poisoned hit degrades to stale; its client is dropped
    // mid-job by the disconnect site.
    let mut c2 = connect(&handle);
    send(&mut c2, &solve_request(|p| p.warm_start = true));
    assert!(matches!(recv(&mut c2), Some(Response::Accepted { .. })));
    assert!(recv(&mut c2).is_none(), "disconnect site drops the client");
    drop(c2);
    wait_for(&handle, |s| s.completed + s.failed >= 2);
    // Job 3: a clean warm-started solve despite the slow-client stall.
    let mut c3 = connect(&handle);
    let s3 = {
        let frames = rpc(&mut c3, &solve_request(|p| p.warm_start = true));
        summary(&frames).clone()
    };
    assert_ne!(s3.status, "failed");
    assert_eq!(s1.objective, s3.objective, "chaos never changes the answer");
    drop(c3);
    let stats = handle.shutdown();
    assert_eq!(stats.accepted, 3);
    assert_eq!(stats.completed + stats.failed, 3);
    assert_eq!(stats.orphaned(), 0);
    assert_eq!(stats.cache_stale, 1);
}
