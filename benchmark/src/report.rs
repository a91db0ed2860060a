//! A run, its metrics, and the files it leaves under `target/benchmark/`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use tempart_cli::json::{self, Value};
use tempart_server::StatsSnapshot;

use crate::stats::{beyond, frac, median, nearest_rank};
use crate::trace::{layer_times, Span};
use crate::workload::{finish, measure, prepare, Phase, Sizes, Workload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Least passes of an untraced run: every item's latency is its median
/// over the passes, which keeps a noisy moment from moving a percentile.
pub const MIN_PASSES: usize = 3;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// End-to-end metrics, as `(name, unit)`; `fail_frac` is reported but not
/// gated by `BENCHMARK.json` (it is zero on a correct run; the result
/// line's `failed` carries it).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("specs_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p75_s", "s"),
    ("proven_frac", "ratio"),
    ("fail_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// A per-layer metric: name, unit, better direction, and the end-to-end
/// metric and workload it should move.
pub struct LayerDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit (`s` and counts are per spec answered unless noted).
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// End-to-end metric and workload it should move.
    pub moves: &'static str,
}

macro_rules! layers {
    ($(($name:literal, $unit:literal, $better:literal, $moves:literal)),* $(,)?) => {
        /// Every per-layer metric a traced run reports.
        pub const PER_LAYER: &[LayerDef] = &[
            $(LayerDef { name: $name, unit: $unit, better: $better, moves: $moves }),*
        ];
    };
}

layers![
    ("cli.parse_s", "s", "lower", "latency_p50_s on service"),
    ("core.build_s", "s", "lower", "latency_p50_s on wide"),
    ("core.rows", "count", "lower", "latency_p50_s on wide"),
    ("core.cols", "count", "lower", "latency_p50_s on wide"),
    ("core.nnz", "count", "lower", "latency_p50_s on wide"),
    ("core.solve_s", "s", "lower", "specs_per_s on ladder"),
    ("core.solve_self_s", "s", "lower", "specs_per_s on ladder"),
    ("lp.bb_s", "s", "lower", "specs_per_s on ladder"),
    (
        "lp.nodes",
        "count",
        "lower",
        "specs_per_s, proven_frac on ladder"
    ),
    ("lp.ms_per_node", "ms", "lower", "specs_per_s on ladder"),
    ("lp.pruned_bound", "count", "lower", "specs_per_s on ladder"),
    (
        "lp.pruned_infeasible",
        "count",
        "lower",
        "specs_per_s on ladder"
    ),
    ("lp.node_capped", "ratio", "lower", "proven_frac on ladder"),
    (
        "lp.nodes.optimal",
        "count",
        "lower",
        "specs_per_s on ladder"
    ),
    (
        "lp.nodes.infeasible",
        "count",
        "lower",
        "specs_per_s on ladder"
    ),
    ("lp.nodes.capped", "count", "lower", "proven_frac on ladder"),
    ("lp.bb_s.optimal", "s", "lower", "specs_per_s on ladder"),
    ("lp.bb_s.infeasible", "s", "lower", "specs_per_s on ladder"),
    ("lp.bb_s.capped", "s", "lower", "specs_per_s on ladder"),
    (
        "lp.pivots",
        "count",
        "lower",
        "latency_p50_s, latency_p75_s on wide"
    ),
    ("lp.lp_solves", "count", "lower", "latency_p50_s on wide"),
    (
        "lp.us_per_pivot",
        "us",
        "lower",
        "latency_p50_s, latency_p75_s on wide"
    ),
    ("lp.pricing_s", "s", "lower", "latency_p50_s on wide"),
    ("lp.ftran_s", "s", "lower", "latency_p50_s on wide"),
    ("lp.btran_s", "s", "lower", "latency_p50_s on wide"),
    ("lp.ratio_s", "s", "lower", "latency_p50_s on wide"),
    ("lp.refactor_s", "s", "lower", "latency_p50_s on wide"),
    ("lp.update_s", "s", "lower", "latency_p50_s on wide"),
    ("lp.other_s", "s", "lower", "latency_p50_s on wide"),
    ("lp.refactors", "count", "lower", "latency_p50_s on wide"),
    ("lp.bound_flips", "count", "higher", "latency_p50_s on wide"),
    ("lp.retries", "count", "lower", "latency_p75_s on wide"),
    (
        "lp.warm_fallbacks",
        "count",
        "lower",
        "latency_p75_s on wide"
    ),
    ("lp.retry_frac", "ratio", "lower", "latency_p75_s on wide"),
    (
        "lp.propagation_fixings",
        "count",
        "higher",
        "specs_per_s on ladder"
    ),
    (
        "lp.cuts_applied",
        "count",
        "higher",
        "specs_per_s on ladder"
    ),
    (
        "lp.pseudocost_updates",
        "count",
        "higher",
        "specs_per_s on ladder"
    ),
    ("audit.certify_s", "s", "lower", "latency_p50_s on wide"),
    (
        "audit.rows_checked",
        "count",
        "lower",
        "latency_p50_s on wide"
    ),
    ("server.admit_s", "s", "lower", "latency_p50_s on service"),
    ("server.job_s", "s", "lower", "latency_p50_s on service"),
    (
        "server.overhead_s",
        "s",
        "lower",
        "latency_p50_s on service"
    ),
    (
        "server.cache_hit_frac",
        "ratio",
        "higher",
        "specs_per_s, latency_p75_s on service"
    ),
    (
        "server.nodes.hit",
        "count",
        "lower",
        "specs_per_s on service"
    ),
    (
        "server.nodes.miss",
        "count",
        "lower",
        "specs_per_s on service"
    ),
    (
        "server.nodes.uncached",
        "count",
        "lower",
        "specs_per_s on service"
    ),
    ("server.job_s.hit", "s", "lower", "latency_p75_s on service"),
    (
        "server.job_s.miss",
        "s",
        "lower",
        "latency_p75_s on service"
    ),
    (
        "server.job_s.uncached",
        "s",
        "lower",
        "latency_p75_s on service"
    ),
    ("server.shed", "count", "lower", "fail_frac on service"),
    ("server.rejected", "count", "lower", "fail_frac on service"),
    ("server.failed", "count", "lower", "fail_frac on service"),
    ("server.orphaned", "count", "lower", "fail_frac on service"),
    ("server.requeues", "count", "lower", "fail_frac on service"),
    (
        "trace.overhead_frac",
        "ratio",
        "lower",
        "every metric (traced vs. untraced)"
    ),
    (
        "trace.coverage",
        "ratio",
        "higher",
        "children of each request span"
    ),
];

/// What one run asks for.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workload.
    pub workload: Workload,
    /// Seed of the visiting order.
    pub seed: u64,
    /// Measured seconds (split in half between untraced and traced phases
    /// when tracing).
    pub seconds: f64,
    /// Also run a traced phase.
    pub trace: bool,
    /// Catalogue sizes.
    pub sizes: Sizes,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct RunResult {
    /// What was asked.
    pub options: RunOptions,
    /// Duration of each set-up.
    pub setups: Vec<f64>,
    /// The untraced phase (end-to-end metrics).
    pub untraced: Phase,
    /// The traced phase (per-layer metrics).
    pub traced: Option<Phase>,
    /// Final service counters of the traced (else untraced) phase's server.
    pub server: Option<StatsSnapshot>,
    /// Peak resident set of this process, in MB.
    pub peak_rss_mb: f64,
}

impl RunResult {
    /// Attempts in the untraced phase (plus the traced phase, if any).
    pub fn attempted(&self) -> usize {
        self.phases().map(|p| p.samples.len()).sum()
    }

    /// Failed attempts across phases.
    pub fn failed(&self) -> usize {
        self.phases()
            .flat_map(|p| &p.samples)
            .filter(|s| s.outcome.failed())
            .count()
    }

    fn phases(&self) -> impl Iterator<Item = &Phase> {
        std::iter::once(&self.untraced).chain(self.traced.as_ref())
    }
}

/// Runs one workload: [`SETUPS`] set-ups, then the measured phases.
///
/// # Errors
///
/// A set-up that fails (wrong warm-up or priming answer, server boot).
pub fn run(options: RunOptions) -> Result<RunResult, String> {
    let w = options.workload;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let p = prepare(w, &options.sizes)?;
        setups.push(t0.elapsed().as_secs_f64());
        if let Some(old) = prepared.replace(p) {
            finish(old);
        }
    }
    let prepared = prepared.ok_or("no set-up ran")?;
    // Traced, the untraced phase is only the reference for the overhead.
    let (secs, passes) = if options.trace {
        (options.seconds / 2.0, 1)
    } else {
        (options.seconds, MIN_PASSES)
    };
    let untraced = measure(&prepared, options.seed, secs, passes, false);
    let mut server = finish(prepared);
    let traced = if options.trace {
        // A fresh set-up, so the traced phase meets the same cache state.
        let prepared = prepare(w, &options.sizes)?;
        let phase = measure(&prepared, options.seed, secs, 1, true);
        server = finish(prepared);
        Some(phase)
    } else {
        None
    };
    Ok(RunResult {
        options,
        setups,
        untraced,
        traced,
        server,
        peak_rss_mb: peak_rss_mb(),
    })
}

/// `VmHWM` of this process in MB (zero where `/proc` is missing).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per catalogue item, the median latency over the passes; a failed
/// attempt misses every latency limit (infinite latency).
pub fn item_latencies(p: &Phase) -> Vec<f64> {
    let mut by_item: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for s in &p.samples {
        let latency = if s.outcome.failed() {
            f64::INFINITY
        } else {
            s.latency
        };
        by_item.entry(s.item).or_default().push(latency);
    }
    by_item.values().filter_map(|v| median(v)).collect()
}

/// End-to-end metrics of the untraced phase, in [`END_TO_END`] order.
pub fn end_to_end(r: &RunResult) -> Vec<Metric> {
    let p = &r.untraced;
    let n = p.samples.len() as f64;
    let latencies = item_latencies(p);
    let count = |f: fn(&crate::solve::Outcome) -> bool| {
        p.samples.iter().filter(|s| f(&s.outcome)).count() as f64
    };
    let values = [
        median(&r.setups).unwrap_or(0.0),
        frac(n, p.wall),
        nearest_rank(&latencies, 0.50).unwrap_or(0.0),
        nearest_rank(&latencies, 0.75).unwrap_or(0.0),
        frac(count(crate::solve::Outcome::proven), n),
        frac(count(crate::solve::Outcome::failed), n),
        r.peak_rss_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect()
}

/// Per-layer metrics of the traced phase, in [`PER_LAYER`] order (zero
/// where a layer is not on the workload's path).
pub fn per_layer(r: &RunResult) -> Vec<Metric> {
    let Some(p) = &r.traced else {
        return Vec::new();
    };
    let t = &p.tally;
    let layers = layer_times(&p.spans);
    let n = p.samples.len() as f64;
    let span_total = |name: &str| layers.get(name).map_or(0.0, |l| l.total);
    let per = |v: f64| frac(v, n);
    let jobs = t.get("server.jobs");
    let class = |key: &str, class: &str, count: &str| {
        frac(
            t.get(&format!("{key}.{class}")),
            t.get(&format!("{count}.{class}")),
        )
    };
    let cache_answered =
        t.get("server.jobs.hit") + t.get("server.jobs.miss") + t.get("server.jobs.stale");
    // Seconds per answer, traced over untraced, on the same catalogue.
    let per_answer = |ph: &Phase| frac(ph.wall, ph.samples.len() as f64);
    let overhead = frac(per_answer(p), per_answer(&r.untraced)) - 1.0;
    let coverage = layers
        .get("request")
        .map_or(0.0, |l| frac(l.child_covered, l.with_children));
    let stats = r.server.unwrap_or_default();
    let value = |name: &str| -> f64 {
        match name {
            "cli.parse_s" => per(span_total("cli.parse")),
            "core.build_s" => per(span_total("core.build")),
            "core.rows"
            | "core.cols"
            | "core.nnz"
            | "lp.nodes"
            | "lp.pruned_bound"
            | "lp.pruned_infeasible"
            | "lp.pivots"
            | "lp.lp_solves"
            | "lp.refactors"
            | "lp.bound_flips"
            | "lp.retries"
            | "lp.warm_fallbacks"
            | "lp.propagation_fixings"
            | "lp.cuts_applied"
            | "lp.pseudocost_updates"
            | "lp.bb_s"
            | "lp.pricing_s"
            | "lp.ftran_s"
            | "lp.btran_s"
            | "lp.ratio_s"
            | "lp.refactor_s"
            | "lp.update_s"
            | "lp.other_s" => per(t.get(name)),
            "core.solve_s" => per(span_total("core.solve")),
            "core.solve_self_s" => per(span_total("core.solve") - t.get("lp.bb_s")),
            "lp.ms_per_node" => 1e3 * frac(t.get("lp.bb_s"), t.get("lp.nodes")),
            "lp.node_capped" => frac(t.get("lp.solves.capped"), t.get("lp.solves_mip")),
            "lp.nodes.optimal" | "lp.nodes.infeasible" | "lp.nodes.capped" => {
                class("lp.nodes", &name["lp.nodes.".len()..], "lp.solves")
            }
            "lp.bb_s.optimal" | "lp.bb_s.infeasible" | "lp.bb_s.capped" => {
                class("lp.bb_s", &name["lp.bb_s.".len()..], "lp.solves")
            }
            "lp.us_per_pivot" => 1e6 * frac(t.get("lp.lp_s"), t.get("lp.pivots")),
            "lp.retry_frac" => frac(t.get("lp.retries"), t.get("lp.lp_solves")),
            "audit.certify_s" => per(span_total("audit.certify")),
            "audit.rows_checked" => frac(
                t.get("audit.rows_checked"),
                layers.get("audit.certify").map_or(0.0, |l| l.count as f64),
            ),
            "server.admit_s" => frac(t.get("server.admit_s"), jobs),
            "server.job_s" => frac(t.get("server.job_s"), jobs),
            "server.overhead_s" => frac(t.get("server.latency_s") - t.get("server.job_s"), jobs),
            "server.cache_hit_frac" => frac(t.get("server.jobs.hit"), cache_answered),
            "server.nodes.hit" | "server.nodes.miss" | "server.nodes.uncached" => class(
                "server.nodes",
                &name["server.nodes.".len()..],
                "server.jobs",
            ),
            "server.job_s.hit" | "server.job_s.miss" | "server.job_s.uncached" => class(
                "server.job_s",
                &name["server.job_s.".len()..],
                "server.jobs",
            ),
            "server.shed" => stats.shed as f64,
            "server.rejected" => stats.rejected as f64,
            "server.failed" => stats.failed as f64,
            "server.orphaned" => stats.orphaned() as f64,
            "server.requeues" => stats.requeues as f64,
            "trace.overhead_frac" => overhead,
            "trace.coverage" => coverage,
            _ => 0.0,
        }
    };
    PER_LAYER
        .iter()
        .map(|d| Metric {
            name: d.name,
            unit: d.unit,
            value: value(d.name),
        })
        .collect()
}

/// The self-time table of the traced phase: per layer, spans, total and
/// self seconds per spec, and share of the request time.
pub fn self_time_table(r: &RunResult) -> String {
    let Some(p) = &r.traced else {
        return String::new();
    };
    let layers = layer_times(&p.spans);
    let n = p.samples.len().max(1) as f64;
    let root = layers.get("request").map_or(0.0, |l| l.total);
    let mut out = format!(
        "  {:<16} {:>7} {:>12} {:>12} {:>8}\n",
        "layer", "spans", "total s/spec", "self s/spec", "self %"
    );
    for (name, l) in &layers {
        let _ = writeln!(
            out,
            "  {:<16} {:>7} {:>12.6} {:>12.6} {:>7.1}%",
            name,
            l.count,
            l.total / n,
            l.self_time / n,
            100.0 * frac(l.self_time, root)
        );
    }
    out
}

/// `host_cpus` as the standard library sees them.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn metrics_obj(metrics: &[Metric]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::Obj(vec![
                        ("value".into(), Value::Num(m.value)),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The result file: the run's stamp (workload, seed, host CPUs, build
/// profile), counts and every metric measured.
pub fn result_json(r: &RunResult) -> String {
    let o = &r.options;
    let p = &r.untraced;
    let n = item_latencies(p).len();
    let fields = vec![
        ("workload".to_string(), Value::Str(o.workload.name().into())),
        ("seed".into(), Value::Num(o.seed as f64)),
        ("seconds".into(), Value::Num(o.seconds)),
        ("trace".into(), Value::Bool(o.trace)),
        ("host_cpus".into(), Value::Num(host_cpus() as f64)),
        ("profile".into(), Value::Str(build_profile().into())),
        ("correct".into(), Value::Bool(r.failed() == 0)),
        ("attempted".into(), Value::Num(r.attempted() as f64)),
        ("failed".into(), Value::Num(r.failed() as f64)),
        ("passes".into(), Value::Num(p.passes as f64)),
        ("items".into(), Value::Num(n as f64)),
        ("beyond_p75".into(), Value::Num(beyond(n, 0.75) as f64)),
        (
            "setups_s".into(),
            Value::Arr(r.setups.iter().map(|&s| Value::Num(s)).collect()),
        ),
        ("metrics".into(), metrics_obj(&end_to_end(r))),
        ("per_layer".into(), metrics_obj(&per_layer(r))),
    ];
    json::to_string(&Value::Obj(fields))
}

/// The last line of a run's output: `correct`, `attempted`, `failed` and
/// the metrics named in `names`.
pub fn result_line(r: &RunResult, names: &[&str]) -> String {
    let all: Vec<Metric> = if r.options.trace {
        per_layer(r)
    } else {
        end_to_end(r)
    };
    let chosen: Vec<Metric> = all
        .into_iter()
        .filter(|m| names.contains(&m.name))
        .collect();
    // Counts as JSON integers (`Value::Num` would print `48.0`).
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        r.failed() == 0,
        r.attempted(),
        r.failed(),
        json::to_string(&metrics_obj(&chosen))
    )
}

/// The spans as JSON lines.
pub fn trace_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or(Value::Null, |p| Value::Num(p as f64));
        out.push_str(&json::to_string(&Value::Obj(vec![
            ("name".into(), Value::Str(s.name.into())),
            ("start".into(), Value::Num(s.start)),
            ("end".into(), Value::Num(s.end)),
            ("parent".into(), parent),
            ("spec".into(), Value::Num(s.spec as f64)),
        ])));
        out.push('\n');
    }
    out
}

/// `release` or `debug`.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}
