//! Lock-free service counters.
//!
//! The accounting invariant the chaos suite (and the CI smoke job) checks
//! is **zero orphans**: every accepted job reaches exactly one terminal
//! status, so `accepted == completed + failed` once the server drains.

use tempart_race::sync::atomic::{AtomicU64, Ordering};

/// Internal counters (relaxed atomics — monotone counts, no ordering
/// dependencies).
// hb: relaxed-rmw -> relaxed-load (cell) — every counter is a monotone
// tally bumped by `fetch_add` and read only by `snapshot`; no data is
// published through a count, so `Relaxed` is sufficient on both sides
// (model: `race_models::requeue_drain_no_orphans` pins the ledger).
// hb: relaxed-load (c) — `snapshot`'s closure-parameter reads of the same
// counters.
#[derive(Debug, Default)]
pub(crate) struct Stats {
    submitted: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    requeues: AtomicU64,
    panics: AtomicU64,
    torn_frames: AtomicU64,
    disconnects: AtomicU64,
    cache_hits: AtomicU64,
    cache_stale: AtomicU64,
    cache_misses: AtomicU64,
    cache_uncached: AtomicU64,
}

macro_rules! bump {
    ($($fn_name:ident => $field:ident),* $(,)?) => {
        $(pub(crate) fn $fn_name(&self) {
            // audit: allow(atomic-ordering) — the receiver is a macro
            // metavariable the textual lint cannot bind; the expanded
            // sites are the monotone tallies declared on `Stats` above.
            self.$field.fetch_add(1, Ordering::Relaxed);
        })*
    };
}

impl Stats {
    bump! {
        note_submitted => submitted,
        note_accepted => accepted,
        note_rejected => rejected,
        note_shed => shed,
        note_completed => completed,
        note_failed => failed,
        note_requeue => requeues,
        note_panic => panics,
        note_torn => torn_frames,
        note_disconnect => disconnects,
    }

    /// Records a terminal summary's cache disposition.
    pub(crate) fn note_cache(&self, disposition: &str) {
        let cell = match disposition {
            "hit" => &self.cache_hits,
            "stale" => &self.cache_stale,
            "miss" => &self.cache_misses,
            _ => &self.cache_uncached,
        };
        cell.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        StatsSnapshot {
            submitted: get(&self.submitted),
            accepted: get(&self.accepted),
            rejected: get(&self.rejected),
            shed: get(&self.shed),
            completed: get(&self.completed),
            failed: get(&self.failed),
            requeues: get(&self.requeues),
            panics: get(&self.panics),
            torn_frames: get(&self.torn_frames),
            disconnects: get(&self.disconnects),
            cache_hits: get(&self.cache_hits),
            cache_stale: get(&self.cache_stale),
            cache_misses: get(&self.cache_misses),
            cache_uncached: get(&self.cache_uncached),
        }
    }
}

/// A point-in-time copy of the service counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// `solve` requests received (before admission).
    pub submitted: u64,
    /// Jobs admitted to the queue.
    pub accepted: u64,
    /// Admission refusals other than load shedding (draining, bad budget,
    /// bad spec, bad config).
    pub rejected: u64,
    /// Load-shed refusals (`queue-full`).
    pub shed: u64,
    /// Jobs that reached a non-`failed` terminal status.
    pub completed: u64,
    /// Jobs that terminated as `failed` (two caught panics, solver error).
    pub failed: u64,
    /// Panic-recovery requeues.
    pub requeues: u64,
    /// Worker panics caught (injected or real).
    pub panics: u64,
    /// Torn frames observed (real truncation or the `tornframe` site).
    pub torn_frames: u64,
    /// Client connections dropped by the `disconnect` site.
    pub disconnects: u64,
    /// Warm-start cache hits that passed exact validation and were
    /// answered from the cache without a search.
    pub cache_hits: u64,
    /// Cache hits that failed validation and degraded to cold solves.
    pub cache_stale: u64,
    /// Warm-start lookups that found nothing.
    pub cache_misses: u64,
    /// Jobs that never consulted the cache (no `warm_start`, or
    /// uncacheable auto-sweep jobs).
    pub cache_uncached: u64,
}

impl StatsSnapshot {
    /// Accepted jobs that never reached a terminal status. Zero after a
    /// graceful drain — the invariant the chaos suite pins.
    pub fn orphaned(&self) -> u64 {
        self.accepted.saturating_sub(self.completed + self.failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orphan_accounting() {
        let s = Stats::default();
        s.note_accepted();
        s.note_accepted();
        s.note_completed();
        assert_eq!(s.snapshot().orphaned(), 1);
        s.note_failed();
        assert_eq!(s.snapshot().orphaned(), 0);
        s.note_cache("hit");
        s.note_cache("weird");
        let snap = s.snapshot();
        assert_eq!((snap.cache_hits, snap.cache_uncached), (1, 1));
    }
}
