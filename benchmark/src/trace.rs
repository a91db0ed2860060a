//! In-memory spans and counters, recorded by the benchmark around its own
//! calls into each layer (nothing is traced inside the program).
//!
//! A span is `(name, start, end, parent, spec)`; spans of one request share
//! the spec id. A layer's self time is its span's duration minus the part of
//! that interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use tempart_lp::MipStats;

/// One timed interval, in seconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name (`core.build`, `server.admit`, …).
    pub name: &'static str,
    /// Start time.
    pub start: f64,
    /// End time (`start` until closed).
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request (stream position) the span belongs to.
    pub spec: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Span recorder. A disabled tracer records nothing and reads no clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Seconds since the origin.
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span and returns its handle.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, spec: u64) -> usize {
        if !self.enabled {
            return 0;
        }
        let now = self.now();
        self.record(name, parent, spec, now, now)
    }

    /// Closes the span `id` now.
    pub fn close(&mut self, id: usize) {
        if self.enabled {
            let now = self.now();
            self.spans[id].end = now;
        }
    }

    /// Records a finished span with explicit times.
    fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        spec: u64,
        start: f64,
        end: f64,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            spec,
        });
        self.spans.len() - 1
    }

    /// Records a child of `parent` that lasted `secs` and ended with it —
    /// for work the program times itself (e.g. `MipStats::seconds`).
    pub fn child_of_duration(&mut self, name: &'static str, parent: usize, secs: f64) {
        if !self.enabled {
            return;
        }
        let p = &self.spans[parent];
        let (end, spec) = (p.end, p.spec);
        let start = (end - secs).max(p.start);
        self.record(name, Some(parent), spec, start, end);
    }

    /// Moves the spans out.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// An empty recorder on the same clock, for another thread.
    pub fn fork(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            origin: self.origin,
            spans: Vec::new(),
        }
    }

    /// Appends a forked recorder's spans.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered(lo: f64, hi: f64, intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Per-layer totals of a span set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTime {
    /// Spans of this name.
    pub count: usize,
    /// Summed duration.
    pub total: f64,
    /// Summed self time (duration minus child coverage).
    pub self_time: f64,
    /// Summed child coverage of the spans that have children.
    pub child_covered: f64,
    /// Summed duration of the spans that have children.
    pub with_children: f64,
}

/// Aggregates spans by name: total, self time, and child coverage.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let cover = covered(s.start, s.end, kids);
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total += s.secs();
        e.self_time += s.secs() - cover;
        if !kids.is_empty() {
            e.child_covered += cover;
            e.with_children += s.secs();
        }
    }
    out
}

/// Named counters summed over a run (work counts from the values the
/// program's calls return).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally(BTreeMap<String, f64>);

impl Tally {
    /// Adds `v` to counter `key`.
    pub fn add(&mut self, key: &str, v: f64) {
        *self.0.entry(key.to_string()).or_insert(0.0) += v;
    }

    /// Counter `key` (zero when never added).
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Adds every counter of `other`.
    pub fn merge(&mut self, other: &Tally) {
        for (k, v) in &other.0 {
            self.add(k, *v);
        }
    }

    /// Records one branch-and-bound run that ended in outcome `class`.
    pub fn mip(&mut self, stats: &MipStats, class: &str) {
        let s = &stats.simplex;
        let c = &stats.scale;
        for (key, v) in [
            ("lp.solves_mip", 1.0),
            ("lp.bb_s", stats.seconds),
            ("lp.nodes", stats.nodes as f64),
            ("lp.pruned_bound", stats.pruned_by_bound as f64),
            ("lp.pruned_infeasible", stats.pruned_infeasible as f64),
            ("lp.pivots", s.iterations() as f64),
            ("lp.lp_solves", s.solves as f64),
            ("lp.lp_s", s.lp_secs),
            ("lp.pricing_s", s.pricing_secs),
            ("lp.ftran_s", s.ftran_secs),
            ("lp.btran_s", s.btran_secs),
            ("lp.ratio_s", s.ratio_secs),
            ("lp.refactor_s", s.refactor_secs),
            ("lp.update_s", s.update_secs),
            ("lp.other_s", s.other_secs),
            ("lp.refactors", s.refactors as f64),
            ("lp.bound_flips", s.bound_flips as f64),
            ("lp.retries", s.retries as f64),
            ("lp.warm_fallbacks", s.warm_fallbacks as f64),
            ("lp.propagation_fixings", c.propagation_fixings as f64),
            ("lp.cuts_applied", c.cuts_applied as f64),
            ("lp.pseudocost_updates", c.pseudocost_updates as f64),
        ] {
            self.add(key, v);
        }
        self.add(&format!("lp.solves.{class}"), 1.0);
        self.add(&format!("lp.nodes.{class}"), stats.nodes as f64);
        self.add(&format!("lp.bb_s.{class}"), stats.seconds);
    }
}
