//! Happy-path service tests: admission, solving, caching, shedding, and
//! graceful drain over real sockets.

mod common;

use std::time::{Duration, Instant};

use common::*;
use tempart_cli::proto::{Request, Response};
use tempart_cli::SpecFile;

#[test]
fn ping_pong_over_the_wire() {
    let handle = server(|_| {});
    let mut c = connect(&handle);
    let frames = rpc(&mut c, &Request::Ping);
    assert!(matches!(frames.as_slice(), [Response::Pong]));
    drop(c);
    assert_eq!(handle.shutdown().orphaned(), 0);
}

#[test]
fn explicit_config_solve_reaches_optimal() {
    let handle = server(|_| {});
    let mut c = connect(&handle);
    let frames = rpc(&mut c, &solve_request(|_| {}));
    assert!(matches!(frames.first(), Some(Response::Accepted { .. })));
    let s = summary(&frames);
    assert_eq!(s.status, "optimal");
    assert!(s.cost.is_some(), "optimal solve reports a cost");
    assert_eq!(s.cache, "uncached", "no warm_start requested");
    assert!(!s.requeued);
    assert!(s.nodes >= 1 && s.lp_iterations >= 1);
    drop(c);
    let stats = handle.shutdown();
    assert_eq!(
        (stats.accepted, stats.completed, stats.orphaned()),
        (1, 1, 0)
    );
}

#[test]
fn auto_sweep_solves_without_explicit_config() {
    let handle = server(|_| {});
    let mut c = connect(&handle);
    let frames = rpc(
        &mut c,
        &Request::Solve {
            spec: SpecFile::example(),
            params: Default::default(),
        },
    );
    let s = summary(&frames);
    assert_eq!(s.status, "optimal");
    assert_eq!(s.cache, "uncached", "sweep jobs are uncacheable");
    drop(c);
    assert_eq!(handle.shutdown().orphaned(), 0);
}

#[test]
fn warm_cache_hits_on_the_second_identical_job() {
    let handle = server(|_| {});
    let mut c = connect(&handle);
    let first = rpc(&mut c, &solve_request(|p| p.warm_start = true));
    let second = rpc(&mut c, &solve_request(|p| p.warm_start = true));
    let (a, b) = (summary(&first), summary(&second));
    assert_eq!(a.cache, "miss");
    assert!(a.nodes >= 1, "the miss searched");
    assert_eq!(b.cache, "hit", "identical fingerprint reuses the optimum");
    assert_eq!(
        (b.nodes, b.lp_iterations),
        (0, 0),
        "the hit answers from the cache without a search"
    );
    assert_eq!(b.status, "optimal");
    assert_eq!(b.best_bound, b.objective, "a hit closes its gap");
    assert_eq!(b.source, "exact");
    assert_eq!(
        a.objective, b.objective,
        "the cache never changes the answer"
    );
    assert_eq!(a.cost, b.cost);
    drop(c);
    let stats = handle.shutdown();
    assert_eq!((stats.cache_misses, stats.cache_hits), (1, 1));
    assert_eq!(stats.orphaned(), 0);
}

#[test]
fn warm_hit_answers_optimal_even_when_its_budget_cannot_search() {
    let handle = server(|_| {});
    let mut c = connect(&handle);
    let primed = rpc(&mut c, &solve_request(|p| p.warm_start = true));
    assert_eq!(
        summary(&primed).status,
        "optimal",
        "priming proves the optimum"
    );
    let starved = |warm_start: bool| {
        solve_request(move |p| {
            p.warm_start = warm_start;
            p.time_limit_secs = Some(1e-6);
        })
    };
    // The stored proof is the answer: the hit needs no budget of its own.
    let hit = rpc(&mut c, &starved(true));
    let hit = summary(&hit);
    assert_eq!(hit.cache, "hit");
    assert_eq!(hit.status, "optimal");
    assert_eq!((hit.nodes, hit.lp_iterations), (0, 0));
    assert_eq!(hit.cost, summary(&primed).cost);
    // Without the cache the same budget stops the search at once.
    let cold = rpc(&mut c, &starved(false));
    let cold = summary(&cold);
    assert_eq!(cold.cache, "uncached");
    assert_eq!(cold.status, "time-limit");
    drop(c);
    assert_eq!(handle.shutdown().orphaned(), 0);
}

/// Linux's minimum delayed-ACK timeout. A frame held back by Nagle's
/// algorithm waits for the peer's ACK, so a stalled round trip costs at
/// least this much; a stall-free one on loopback costs well under a
/// millisecond plus the (warm, tiny) solve.
const DELAYED_ACK_FLOOR: Duration = Duration::from_millis(40);

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

#[test]
fn round_trips_on_one_connection_stay_below_the_delayed_ack_floor() {
    let handle = server(|_| {});
    let mut c = connect(&handle);
    let pings: Vec<Duration> = (0..20)
        .map(|_| {
            let started = Instant::now();
            let frames = rpc(&mut c, &Request::Ping);
            assert!(matches!(frames.as_slice(), [Response::Pong]));
            started.elapsed()
        })
        .collect();

    let warm = || solve_request(|p| p.warm_start = true);
    assert_eq!(
        summary(&rpc(&mut c, &warm())).cache,
        "miss",
        "primes the cache"
    );
    let (mut admits, mut gaps) = (Vec::new(), Vec::new());
    for _ in 0..10 {
        let sent = Instant::now();
        send(&mut c, &warm());
        assert!(matches!(recv(&mut c), Some(Response::Accepted { .. })));
        let accepted = Instant::now();
        match recv(&mut c) {
            Some(Response::Result { summary, .. }) => assert_eq!(summary.cache, "hit"),
            other => panic!("expected result, got {other:?}"),
        }
        admits.push(accepted - sent);
        gaps.push(accepted.elapsed());
    }
    drop(c);
    assert_eq!(handle.shutdown().orphaned(), 0);

    let bar = Duration::from_millis(15);
    for (what, samples) in [
        ("ping round trip", pings),
        ("send -> accepted", admits),
        ("accepted -> result", gaps),
    ] {
        let m = median(samples);
        assert!(
            m < bar,
            "median {what} {m:?} is not far below the {DELAYED_ACK_FLOOR:?} delayed-ACK floor \
             (a frame is waiting on Nagle)"
        );
    }
}

#[test]
fn inadmissible_budgets_are_rejected_immediately() {
    let handle = server(|_| {});
    let mut c = connect(&handle);
    for (request, needle) in [
        (solve_request(|p| p.time_limit_secs = Some(-1.0)), "budget"),
        (solve_request(|p| p.node_limit = Some(0)), "budget"),
        (solve_request(|p| p.config = Some((0, 0))), "partitions"),
        (
            solve_request(|p| p.branching = Some("strongest".to_string())),
            "branching",
        ),
    ] {
        let frames = rpc(&mut c, &request);
        match frames.as_slice() {
            [Response::Rejected { reason }] => {
                assert!(reason.contains(needle), "reason `{reason}` names the cause")
            }
            other => panic!("expected immediate rejection, got {other:?}"),
        }
    }
    drop(c);
    let stats = handle.shutdown();
    assert_eq!(stats.rejected, 4);
    assert_eq!(stats.accepted, 0);
}

#[test]
fn queue_full_sheds_fast_and_truthfully() {
    // A workerless server never pops, so the queue depth is deterministic:
    // this exercises the admission layer alone. (No shutdown — a drain
    // needs workers to retire the backlog.)
    let handle = server(|c| {
        c.workers = 0;
        c.queue_capacity = 1;
    });
    let mut first = connect(&handle);
    send(&mut first, &solve_request(|_| {}));
    assert!(
        matches!(recv(&mut first), Some(Response::Accepted { .. })),
        "first job fills the queue"
    );
    let mut second = connect(&handle);
    let started = Instant::now();
    let frames = rpc(&mut second, &solve_request(|_| {}));
    let elapsed = started.elapsed();
    match frames.as_slice() {
        [Response::Rejected { reason }] => assert_eq!(reason, "queue-full"),
        other => panic!("expected load shed, got {other:?}"),
    }
    assert!(
        elapsed.as_millis() < 1000,
        "shedding answers immediately, took {elapsed:?}"
    );
    let stats = handle.stats();
    assert_eq!((stats.accepted, stats.shed), (1, 1));
}

#[test]
fn protocol_errors_keep_the_connection_usable() {
    let handle = server(|_| {});
    let mut c = connect(&handle);
    tempart_cli::proto::write_frame(&mut c, "this is not json").expect("send");
    match recv(&mut c) {
        Some(Response::Error { .. }) => {}
        other => panic!("expected protocol error, got {other:?}"),
    }
    let frames = rpc(&mut c, &Request::Ping);
    assert!(matches!(frames.as_slice(), [Response::Pong]));
    drop(c);
    assert_eq!(handle.shutdown().orphaned(), 0);
}

#[test]
fn limit_statuses_are_truthful() {
    let handle = server(|_| {});
    let mut c = connect(&handle);
    // One pivot cannot finish the root LP: the solver must stop on its
    // budget and say so (the seeded heuristic incumbent keeps it anytime).
    let frames = rpc(&mut c, &solve_request(|p| p.pivot_limit = Some(1)));
    let s = summary(&frames);
    assert!(
        matches!(s.status.as_str(), "time-limit" | "node-limit" | "optimal"),
        "status `{}` is a truthful limit, not a failure",
        s.status
    );
    assert_ne!(s.status, "failed");
    if let (Some(obj), Some(bound)) = (s.objective, s.best_bound) {
        assert!(bound <= obj + 1e-6, "claimed bound stays valid");
    }
    drop(c);
    assert_eq!(handle.shutdown().orphaned(), 0);
}

#[test]
fn graceful_drain_finishes_in_flight_jobs_and_orphans_nothing() {
    let handle = server(|c| c.workers = 1);
    // Three jobs race one worker; some will still be queued or running
    // when the drain begins.
    let mut clients: Vec<_> = (0..3)
        .map(|_| {
            let mut c = connect(&handle);
            send(
                &mut c,
                &solve_request(|p| {
                    p.config = None; // the sweep takes longer than one frame
                    p.time_limit_secs = Some(20.0);
                }),
            );
            assert!(matches!(recv(&mut c), Some(Response::Accepted { .. })));
            c
        })
        .collect();
    let mut admin = connect(&handle);
    let frames = rpc(&mut admin, &Request::Shutdown);
    assert!(matches!(frames.as_slice(), [Response::Draining]));
    drop(admin);
    // Every accepted job still gets exactly one truthful terminal frame.
    for c in &mut clients {
        let resp = loop {
            match recv(c).expect("terminal frame before close") {
                Response::Progress { .. } => continue,
                other => break other,
            }
        };
        match resp {
            Response::Result { summary, .. } => {
                assert_ne!(summary.status, "failed");
            }
            other => panic!("expected result, got {other:?}"),
        }
    }
    drop(clients);
    let stats = handle.join();
    assert_eq!(stats.accepted, 3);
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.orphaned(), 0);
}
