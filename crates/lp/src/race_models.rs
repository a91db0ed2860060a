//! Model-checked scenarios over the crate's real lock-free primitives.
//!
//! Compiled only under the `race-model` feature. Each function builds a
//! small closed model around one production primitive — the actual
//! `WorkDeque` / `IncumbentCell` / `Rendezvous` code, not a copy — and
//! hands it to the `tempart-race` explorer, which enumerates every
//! interleaving of the sync-visible operations (full DPOR) or a
//! preemption-bounded subset (the CI smoke tier). The returned
//! [`Report`] carries the verdict plus exploration statistics; a
//! violation includes a replayable schedule string.
//!
//! The scenarios double as pins for the deliberate ordering *relaxations*
//! in this crate (`IncumbentCell::key` and the `proof_incomplete` verdict
//! flag): if someone later adds a consumer
//! that needs the stronger ordering, the corresponding model here is the
//! test that starts failing.

use tempart_race::explore::{check, Config, Report};
use tempart_race::sync::atomic::{AtomicBool, Ordering};
use tempart_race::sync::Arc;
use tempart_race::thread;

use crate::rendezvous::Rendezvous;
use crate::worksteal::{IncumbentCell, WorkDeque};

/// Work-deque conservation: an owner pushing and popping while a thief
/// steals must hand out every item exactly once — no schedule may lose
/// or duplicate one.
pub fn deque_no_lost_items(cfg: Config) -> Report {
    check(cfg, || {
        let d = Arc::new(WorkDeque::new());
        let mut waits = 0;
        d.push(1u32, &mut waits);
        d.push(2u32, &mut waits);
        let thief = {
            let d = Arc::clone(&d);
            thread::spawn(move || d.steal().ok())
        };
        let mut mine = Vec::new();
        let mut waits = 0;
        while let Some(v) = d.pop(&mut waits) {
            mine.push(v);
        }
        let stolen = thief.join().unwrap();
        let mut all: Vec<u32> = mine.into_iter().chain(stolen).collect();
        all.sort_unstable();
        assert_eq!(all, vec![1, 2], "each pushed item consumed exactly once");
    })
}

/// Seqlock incumbent under concurrent offers: the global minimum must be
/// installed, the slot never torn, and the wait-free `bound()` mirror
/// must agree with the slot — across every interleaving, with the `key`
/// word at `Relaxed` (the ordering relaxation this model pins).
pub fn seqlock_keeps_minimum(cfg: Config) -> Report {
    check(cfg, || {
        let mut cell = Arc::new(IncumbentCell::new(None));
        let writers: Vec<_> = [-21.0, -23.0]
            .into_iter()
            .map(|obj| {
                let cell = Arc::clone(&cell);
                thread::spawn(move || {
                    let mut retries = 0;
                    cell.offer(&[obj], obj, 1e-9, &mut retries)
                })
            })
            .collect();
        let accepted = writers
            .into_iter()
            .map(|t| t.join().unwrap())
            .filter(|&won| won)
            .count();
        // The -23 offer always lands; the -21 offer may lose the race to
        // publish first and then be rejected as worse, or land first and
        // be overwritten.
        assert!(accepted >= 1, "the best offer can never be rejected");
        let cell = Arc::get_mut(&mut cell).expect("writers joined");
        assert_eq!(cell.bound(), -23.0, "minimum wins every interleaving");
        let (x, obj) = cell.take().expect("an incumbent was installed");
        assert_eq!(obj, -23.0);
        assert_eq!(x, vec![-23.0], "vector matches its objective, never torn");
    })
}

/// The scheduler's termination rendezvous: a publisher pushes one node
/// and closes its own, a consumer parks when it sees no work. No
/// interleaving may strand the consumer asleep after the last node
/// closes (the two-flag `SeqCst` handshake is exactly what prevents the
/// lost-wakeup schedule), and the deque must drain.
pub fn rendezvous_terminates(cfg: Config) -> Report {
    check(cfg, || {
        // One node open initially (the publisher's in-flight "root").
        let rv = Arc::new(Rendezvous::new(1));
        let dq = Arc::new(WorkDeque::new());
        let consumer = {
            let rv = Arc::clone(&rv);
            let dq = Arc::clone(&dq);
            thread::spawn(move || {
                let mut got = 0u32;
                loop {
                    if rv.is_done() {
                        return got;
                    }
                    let mut waits = 0;
                    if let Some(v) = dq.pop(&mut waits) {
                        got += v;
                        rv.node_done();
                        continue;
                    }
                    rv.park_while(|| dq.is_empty_hint());
                }
            })
        };
        // Publisher: register the child *before* closing the parent, push
        // it (the deque's len store is the work hint), wake any sleeper.
        rv.open_children(1);
        let mut waits = 0;
        dq.push(7u32, &mut waits);
        rv.wake_if_sleepers();
        rv.node_done();
        let got = consumer.join().unwrap();
        assert!(rv.is_done(), "search must have terminated");
        assert_eq!(got, 7, "the published node must be consumed");
        let mut waits = 0;
        assert_eq!(dq.pop(&mut waits), None, "deque drained");
    })
}

/// The `proof_incomplete` verdict flag at `Relaxed` (the ordering
/// relaxation this model pins): a worker stores it, the driver joins the
/// worker and then reads it. The join edge alone must order the pair —
/// no interleaving may lose the store or trip the race detector.
// hb: relaxed-store -> relaxed-load (flag) — the point of the scenario:
// the join edge alone must order this pair.
pub fn proof_incomplete_join_edge(cfg: Config) -> Report {
    check(cfg, || {
        let flag = Arc::new(AtomicBool::new(false));
        let worker = {
            let flag = Arc::clone(&flag);
            thread::spawn(move || flag.store(true, Ordering::Relaxed))
        };
        worker.join().unwrap();
        assert!(
            flag.load(Ordering::Relaxed),
            "join edge publishes the relaxed verdict store"
        );
    })
}
