//! `service-bench` — the `tempart-server` load-generator sweep.
//!
//! ```text
//! service-bench [--limit SECS] [--out PATH]
//! ```
//!
//! Boots an in-process server per row and drives 1/2/4/8 concurrent
//! clients through a mixed workload over real sockets:
//!
//! * **warm** jobs — the example specification at its pinned `(2, 1)`
//!   configuration with the warm-start cache on: the throughput/cache
//!   class (identical fingerprints, so every job after the first hits,
//!   and a hit answers with the stored optimum without a search).
//! * **deadline** jobs — the paper's graph-1 flagship (`g1-N3-L1`,
//!   ~1 s serial) under a 0.75 s admission deadline: the budget *binds*
//!   mid-search, so the job exercises the anytime path and the
//!   admission-time deadline clock (queue wait counts against it).
//!
//! The sweep records throughput and latency percentiles per client
//! count, the shed rate, and the cache hit rate; a separate workerless
//! probe measures pure load-shedding latency. Three pinned acceptance
//! bars go into `BENCH_service.json` (or `--out PATH`):
//!
//! 1. no job exceeds its admitted deadline by more than 10%,
//! 2. every shed response lands in under 10 ms,
//! 3. zero orphans and zero `failed` statuses across the sweep.
//!
//! The process exits non-zero when a bar fails or the file cannot be
//! written. This binary lives in the server crate rather than
//! `tempart-bench` because the audit tool's default feature already
//! closes the package chain audit → bench, so bench can depend on neither
//! cli nor server.

use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tempart_bench::paper_graph;
use tempart_bench::report::Report;
use tempart_cli::proto::{read_frame, write_frame, Request, Response, SolveParams};
use tempart_cli::{DeviceSpec, EdgeSpec, FuSpec, SpecFile, TaskSpec};
use tempart_server::{start, ServerConfig, ServerHandle};

const CLIENT_COUNTS: [usize; 4] = [1, 2, 4, 8];
const JOBS_PER_CLIENT: usize = 6;
/// Admitted wall-clock cap for the warm class (generous — these solve in
/// milliseconds; the deadline never binds).
const WARM_LIMIT_SECS: f64 = 5.0;
/// Admitted wall-clock cap for the deadline class. The flagship needs ~1 s
/// serial, so this always binds; the 10% acceptance margin (75 ms) absorbs
/// the fixed anytime wrap-up cost and scheduler jitter, but not a search
/// that ignores its clock.
const DEADLINE_LIMIT_SECS: f64 = 0.75;
const SHED_PROBES: usize = 20;

/// The paper's graph-1 flagship as a wire specification: the same
/// generated topology the table harness solves as `g1-N3-L1`, with the
/// `2+2+1` exploration set and the date98 device constants.
fn g1_spec() -> SpecFile {
    let g = paper_graph(1);
    let tasks = g
        .tasks()
        .iter()
        .map(|t| {
            let ids = t.ops();
            let local = |op| {
                ids.iter()
                    .position(|&o| o == op)
                    .expect("op belongs to its task")
            };
            TaskSpec {
                name: t.name().to_string(),
                ops: ids
                    .iter()
                    .map(|&o| g.op(o).kind().mnemonic().to_string())
                    .collect(),
                deps: t
                    .op_graph()
                    .edges()
                    .iter()
                    .map(|&(a, b)| [local(a), local(b)])
                    .collect(),
            }
        })
        .collect();
    let edges = g
        .task_edges()
        .iter()
        .map(|e| EdgeSpec {
            from: g.task(e.from).name().to_string(),
            to: g.task(e.to).name().to_string(),
            bandwidth: e.bandwidth.units(),
        })
        .collect();
    SpecFile {
        name: "date98-graph1".into(),
        tasks,
        edges,
        fus: vec![
            FuSpec {
                type_name: "add16".into(),
                count: 2,
            },
            FuSpec {
                type_name: "mul8".into(),
                count: 2,
            },
            FuSpec {
                type_name: "sub16".into(),
                count: 1,
            },
        ],
        device: DeviceSpec {
            name: "date98".into(),
            capacity: 100,
            scratch_memory: 2048,
            alpha: 0.7,
            reconfig_cycles: 164_000,
            memory_word_cycles: 1,
        },
    }
}

/// One client-side observation of one job.
struct JobResult {
    latency: Duration,
    /// The admitted wall-clock cap the client asked for.
    deadline_secs: f64,
    status: String,
    shed: bool,
}

fn send(stream: &mut TcpStream, request: &Request) {
    write_frame(stream, &request.to_json()).expect("send frame");
}

fn recv(stream: &mut TcpStream) -> Response {
    let payload = read_frame(stream)
        .expect("read frame")
        .expect("server must not close mid-job");
    Response::from_json(&payload).expect("parse response")
}

/// Submits one job and blocks until its terminal frame.
fn run_job(stream: &mut TcpStream, spec: &SpecFile, params: SolveParams) -> JobResult {
    let deadline_secs = params.time_limit_secs.unwrap_or(WARM_LIMIT_SECS);
    let request = Request::Solve {
        spec: spec.clone(),
        params,
    };
    let started = Instant::now();
    send(stream, &request);
    loop {
        match recv(stream) {
            Response::Accepted { .. } | Response::Progress { .. } => continue,
            Response::Result { summary, .. } => {
                return JobResult {
                    latency: started.elapsed(),
                    deadline_secs,
                    status: summary.status,
                    shed: false,
                }
            }
            Response::Rejected { reason } => {
                return JobResult {
                    latency: started.elapsed(),
                    deadline_secs,
                    status: format!("rejected:{reason}"),
                    shed: true,
                }
            }
            other => panic!("unexpected frame mid-job: {other:?}"),
        }
    }
}

/// Nearest-rank percentile of an already-sorted latency list, in ms.
fn percentile_ms(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_secs_f64() * 1e3
}

struct Row {
    clients: usize,
    results: Vec<JobResult>,
    wall: Duration,
    stats: tempart_server::StatsSnapshot,
}

/// One sweep row: `clients` concurrent connections, each running the mixed
/// job sequence against a fresh two-worker server.
fn run_row(clients: usize, limit: f64, warm_spec: &SpecFile, deadline_spec: &SpecFile) -> Row {
    let handle: ServerHandle = start(ServerConfig {
        workers: 2,
        queue_capacity: 64,
        cache_capacity: 32,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr();
    let results = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut stream = TcpStream::connect(addr).expect("connect");
                let mut local = Vec::with_capacity(JOBS_PER_CLIENT);
                for j in 0..JOBS_PER_CLIENT {
                    // Jobs 1 and 4 are the deadline class; the rest warm.
                    let result = if j % 3 == 1 {
                        run_job(
                            &mut stream,
                            deadline_spec,
                            SolveParams {
                                config: Some((3, 1)),
                                time_limit_secs: Some(DEADLINE_LIMIT_SECS.min(limit)),
                                ..SolveParams::default()
                            },
                        )
                    } else {
                        run_job(
                            &mut stream,
                            warm_spec,
                            SolveParams {
                                config: Some((2, 1)),
                                time_limit_secs: Some(WARM_LIMIT_SECS.min(limit)),
                                warm_start: true,
                                ..SolveParams::default()
                            },
                        )
                    };
                    local.push(result);
                }
                results.lock().expect("collector lock").extend(local);
            });
        }
    });
    let wall = started.elapsed();
    let stats = handle.shutdown();
    Row {
        clients,
        results: results.into_inner().expect("collector lock"),
        wall,
        stats,
    }
}

/// Measures pure load-shedding latency: a workerless single-slot server is
/// filled with one job, then every further submission must be refused
/// immediately. Returns shed latencies in ms.
fn shed_probe(warm_spec: &SpecFile) -> Vec<f64> {
    let handle = start(ServerConfig {
        workers: 0,
        queue_capacity: 1,
        ..ServerConfig::default()
    })
    .expect("probe server starts");
    let addr = handle.addr();
    let mut filler = TcpStream::connect(addr).expect("connect filler");
    send(
        &mut filler,
        &Request::Solve {
            spec: warm_spec.clone(),
            params: SolveParams {
                config: Some((2, 1)),
                time_limit_secs: Some(WARM_LIMIT_SECS),
                ..SolveParams::default()
            },
        },
    );
    assert!(
        matches!(recv(&mut filler), Response::Accepted { .. }),
        "the filler job occupies the only queue slot"
    );
    let mut latencies = Vec::with_capacity(SHED_PROBES);
    for _ in 0..SHED_PROBES {
        let mut probe = TcpStream::connect(addr).expect("connect probe");
        let result = run_job(
            &mut probe,
            warm_spec,
            SolveParams {
                config: Some((2, 1)),
                time_limit_secs: Some(WARM_LIMIT_SECS),
                ..SolveParams::default()
            },
        );
        assert!(result.shed, "a full workerless queue must shed");
        latencies.push(result.latency.as_secs_f64() * 1e3);
    }
    // A workerless server cannot drain; its parked threads die with the
    // process. (The `tempart-server` binary refuses `--workers 0` for the
    // same reason — this probe is the one legitimate use.)
    drop(filler);
    drop(handle);
    latencies
}

fn main() -> ExitCode {
    let mut limit = 600.0f64;
    let mut out = String::from("BENCH_service.json");
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--limit" => {
                limit = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--limit takes seconds")
            }
            "--out" => out = it.next().expect("--out takes a path"),
            other => {
                eprintln!("unexpected argument `{other}` (usage: service-bench [--limit SECS] [--out PATH])");
                return ExitCode::FAILURE;
            }
        }
    }
    let warm_spec = SpecFile::example();
    let deadline_spec = g1_spec();
    println!("Service: mixed workload vs concurrent clients (2 workers, queue 64)");
    println!(
        "(warm jobs: example spec @(2,1), cached; deadline jobs: g1-N3-L1 @{DEADLINE_LIMIT_SECS} s admission deadline)"
    );
    println!(
        "{:>7} {:>5} {:>8} {:>7} {:>8} {:>8} {:>8} {:>8} {:>5} {:>9} {:>8}",
        "clients",
        "jobs",
        "wall(s)",
        "jobs/s",
        "p50(ms)",
        "p90(ms)",
        "p99(ms)",
        "max(ms)",
        "shed",
        "hit-rate",
        "max-ddl"
    );
    let mut report = Report::new(out, true);
    let mut max_ratio = 0.0f64;
    let mut total_failed = 0u64;
    let mut total_orphaned = 0u64;
    for clients in CLIENT_COUNTS {
        let row = run_row(clients, limit, &warm_spec, &deadline_spec);
        let mut sorted: Vec<Duration> = row
            .results
            .iter()
            .filter(|r| !r.shed)
            .map(|r| r.latency)
            .collect();
        sorted.sort();
        let row_ratio = row
            .results
            .iter()
            .filter(|r| !r.shed)
            .map(|r| r.latency.as_secs_f64() / r.deadline_secs)
            .fold(0.0f64, f64::max);
        max_ratio = max_ratio.max(row_ratio);
        let failed = row.results.iter().filter(|r| r.status == "failed").count() as u64;
        total_failed += failed;
        total_orphaned += row.stats.orphaned();
        let cache_attempts = row.stats.cache_hits + row.stats.cache_misses + row.stats.cache_stale;
        let hit_rate = if cache_attempts == 0 {
            0.0
        } else {
            row.stats.cache_hits as f64 / cache_attempts as f64
        };
        let completed = sorted.len();
        let throughput = completed as f64 / row.wall.as_secs_f64();
        let (p50, p90, p99) = (
            percentile_ms(&sorted, 0.50),
            percentile_ms(&sorted, 0.90),
            percentile_ms(&sorted, 0.99),
        );
        let max_ms = percentile_ms(&sorted, 1.0);
        println!(
            "{:>7} {:>5} {:>8.2} {:>7.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>5} {:>8.0}% {:>8.3}",
            row.clients,
            completed,
            row.wall.as_secs_f64(),
            throughput,
            p50,
            p90,
            p99,
            max_ms,
            row.stats.shed,
            hit_rate * 100.0,
            row_ratio,
        );
        report.row(&format!(
            "\"clients\": {}, \"workers\": 2, \"jobs\": {completed}, \"wall_ms\": {:.3}, \
             \"throughput_jobs_per_sec\": {throughput:.3}, \"p50_ms\": {p50:.3}, \
             \"p90_ms\": {p90:.3}, \"p99_ms\": {p99:.3}, \"max_ms\": {max_ms:.3}, \
             \"shed\": {}, \"rejected\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
             \"cache_stale\": {}, \"cache_hit_rate\": {hit_rate:.4}, \
             \"max_deadline_ratio\": {row_ratio:.4}, \"failed\": {failed}, \"orphaned\": {}",
            row.clients,
            row.wall.as_secs_f64() * 1e3,
            row.stats.shed,
            row.stats.rejected,
            row.stats.cache_hits,
            row.stats.cache_misses,
            row.stats.cache_stale,
            row.stats.orphaned(),
        ));
    }
    let shed_ms = shed_probe(&warm_spec);
    let max_shed_ms = shed_ms.iter().copied().fold(0.0f64, f64::max);
    let mean_shed_ms = shed_ms.iter().sum::<f64>() / shed_ms.len().max(1) as f64;
    println!(
        "shed probe: {} refusals, mean {:.3} ms, max {:.3} ms",
        shed_ms.len(),
        mean_shed_ms,
        max_shed_ms
    );
    report.row(&format!(
        "\"probe\": \"shed\", \"refusals\": {}, \"mean_shed_ms\": {mean_shed_ms:.3}, \
         \"max_shed_ms\": {max_shed_ms:.3}",
        shed_ms.len(),
    ));
    // The pinned acceptance bars.
    let failures = total_orphaned + total_failed;
    for (name, value, pass) in [
        (
            "no_job_exceeds_deadline_by_10pct",
            max_ratio,
            max_ratio <= 1.10,
        ),
        ("shed_response_under_10ms", max_shed_ms, max_shed_ms < 10.0),
        ("zero_orphans_and_failures", failures as f64, failures == 0),
    ] {
        report.bar(
            name,
            &format!("\"value\": {value:.4}"),
            pass,
            format!("{name} = {value:.3}"),
        );
    }
    if report.finish() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
