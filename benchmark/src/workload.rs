//! The three workloads: what each sends, and the closed loop that sends it.
//!
//! * `ladder` (search-bound) — one serial caller solving the paper's
//!   Table-3 ladder `(N3,L0) (N3,L1) (N2,L2) (N2,L3)` on the committed g1
//!   spec and on 5-task/22-op catalogue specs under a node cap.
//! * `wide` (LP-bound) — one serial caller solving 10-task catalogue specs
//!   at `(N2,L10)` at the root only (node cap 1): large models, no
//!   branching.
//! * `service` (server-bound) — two connections in a closed loop against
//!   the default `tempart-server`: pinned repeats served from the primed
//!   warm-start cache, fresh cached-config jobs, and fresh automatic jobs.
//!
//! Each workload visits a frozen catalogue in passes. The specifications
//! come from [`CATALOGUE_SEED`]; the run's seed sets the order of every
//! pass and, for `service`, the names that make each fresh job a cache
//! miss. Solve times of generated specs span three orders of magnitude and
//! branch and bound is chaotic, so drawing fresh specs per seed would let
//! the seed, not the code, set every metric; a fixed catalogue makes every
//! run measure the same work.

use std::net::TcpStream;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tempart_cli::proto::{
    read_frame, write_frame, Request as Frame, Response, SolveParams, SolveSummary,
};
use tempart_cli::SpecFile;
use tempart_core::heuristic::heuristic_solution;
use tempart_core::ModelConfig;
use tempart_hls::estimate_partitions;
use tempart_server::{start, ServerConfig, ServerHandle, StatsSnapshot};

use crate::gen;
use crate::solve::{self, Outcome, Request};
use crate::trace::{Span, Tally, Tracer};

/// Seed of the frozen specification catalogue.
pub const CATALOGUE_SEED: u64 = 1998;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Search-bound ladder solves.
    Ladder,
    /// LP-bound root-only solves of large models.
    Wide,
    /// The solve service under a closed loop of two connections.
    Service,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Ladder, Workload::Wide, Workload::Service];

    /// Stable name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ladder => "ladder",
            Workload::Wide => "wide",
            Workload::Service => "service",
        }
    }

    /// Parses a name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The paper's Table-3 ladder: `(N, L)` per rung.
pub const LADDER: [(u32, u32); 4] = [(3, 0), (3, 1), (2, 2), (2, 3)];

/// Pinned g1 answers per rung (`None` = infeasible).
pub const G1_LADDER_ANSWERS: [Option<u64>; 4] = [None, Some(13), Some(5), Some(0)];

/// Pinned cost of `SpecFile::example()` at `(N2, L1)`.
pub const EXAMPLE_COST: u64 = 0;

/// Wall-clock safety deadline of a service job, in seconds; it must never
/// bind.
pub const SERVICE_DEADLINE_SECS: f64 = 10.0;

/// Closed-loop connections of the service workload: callers wait for their
/// reply, and the host has two CPUs.
pub const CONNECTIONS: usize = 2;

/// Largest latency relaxation of the server's automatic sweep.
const AUTO_MAX_LATENCY: u32 = 3;

/// Workload sizes. [`Sizes::frozen`] is what the benchmark measures; the
/// tests shrink it.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Ladder: catalogue specs besides g1.
    pub ladder_specs: usize,
    /// Ladder: `(tasks, ops)` of the catalogue specs.
    pub ladder_shape: (usize, usize),
    /// Ladder: node cap of the catalogue solves.
    pub ladder_cap: usize,
    /// Ladder and service: include the pinned g1 spec.
    pub g1: bool,
    /// Node cap of every g1 solve (ladder rungs, warm-up, service repeats):
    /// enough to prove each pinned answer.
    pub g1_cap: usize,
    /// Wide: catalogue specs.
    pub wide_specs: usize,
    /// Wide: tasks per spec.
    pub wide_tasks: usize,
    /// Wide: op counts, cycled over the catalogue.
    pub wide_ops: Vec<usize>,
    /// Service: jobs per pass; half are pinned repeats, a quarter fresh
    /// cached-config jobs and a quarter fresh automatic jobs.
    pub service_jobs: usize,
    /// Service: `(tasks, ops)` of the fresh specs.
    pub service_shape: (usize, usize),
    /// Service: node limit of the fresh jobs.
    pub service_cap: u64,
}

impl Sizes {
    /// The frozen sizes the benchmark measures.
    pub fn frozen() -> Self {
        Sizes {
            ladder_specs: 10,
            ladder_shape: (5, 22),
            ladder_cap: 200,
            g1: true,
            g1_cap: 1000,
            wide_specs: 48,
            wide_tasks: 10,
            wide_ops: vec![37, 44, 45],
            service_jobs: 48,
            service_shape: (5, 14),
            service_cap: 200,
        }
    }

    /// Tiny sizes for the smoke tests (debug builds).
    pub fn tiny() -> Self {
        Sizes {
            ladder_specs: 1,
            ladder_shape: (3, 8),
            ladder_cap: 20,
            g1: false,
            g1_cap: 20,
            wide_specs: 2,
            wide_tasks: 3,
            wide_ops: vec![8],
            service_jobs: 8,
            service_shape: (3, 8),
            service_cap: 20,
        }
    }
}

/// One answered (or failed) attempt.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Pass the attempt belongs to.
    pub pass: usize,
    /// Catalogue item (the same item in every pass).
    pub item: usize,
    /// Seconds from hand-off to answer.
    pub latency: f64,
    /// What came back.
    pub outcome: Outcome,
}

/// One measured phase of a run: whole passes over the catalogue.
#[derive(Debug, Default)]
pub struct Phase {
    /// Every attempt, ordered by pass.
    pub samples: Vec<Sample>,
    /// Passes measured.
    pub passes: usize,
    /// Wall time of all passes.
    pub wall: f64,
    /// Counters from the returned values.
    pub tally: Tally,
    /// Spans (empty when untraced).
    pub spans: Vec<Span>,
    /// Service counters at the end of the phase.
    pub server: Option<StatsSnapshot>,
}

/// A workload's inputs, built at set-up.
pub enum Prepared {
    /// In-process catalogue (ladder, wide).
    Local(Vec<Request>),
    /// A running, primed server and the service catalogue.
    Service(ServerHandle, ServiceCatalogue),
}

/// The service catalogue: pinned repeats and fresh specifications.
pub struct ServiceCatalogue {
    repeats: Vec<Job>,
    fresh: Vec<SpecFile>,
    cap: u64,
}

/// One service job: the spec text, its parameters, and its pinned answer.
#[derive(Debug, Clone)]
struct Job {
    /// Specification JSON as the caller holds it.
    json: String,
    /// Request parameters.
    params: SolveParams,
    /// Pinned answer (`Some(None)` = infeasible).
    pinned: Option<Option<u64>>,
}

/// The committed g1 fixture.
///
/// # Panics
///
/// When the fixture cannot be read: a broken checkout, not a measurement.
pub fn g1_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/g1.json");
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn ladder_catalogue(sizes: &Sizes) -> Vec<Request> {
    let mut out = Vec::new();
    let mut push = |json: String, node_limit: usize, pinned: [Option<Option<u64>>; 4]| {
        for (&(n, l), pinned) in LADDER.iter().zip(pinned) {
            out.push(Request {
                id: out.len() as u64,
                json: json.clone(),
                partitions: n,
                latency: l,
                node_limit,
                pinned,
            });
        }
    };
    if sizes.g1 {
        push(g1_json(), sizes.g1_cap, G1_LADDER_ANSWERS.map(Some));
    }
    let (tasks, ops) = sizes.ladder_shape;
    for k in 0..sizes.ladder_specs {
        let seed = gen::item_seed(CATALOGUE_SEED, k as u64);
        let json = gen::spec(&format!("ladder-{k}"), tasks, ops, seed, [2, 2, 1]).to_json();
        push(json, sizes.ladder_cap, [None; 4]);
    }
    out
}

fn wide_catalogue(sizes: &Sizes) -> Vec<Request> {
    (0..sizes.wide_specs)
        .map(|k| {
            let ops = sizes.wide_ops[k % sizes.wide_ops.len()];
            let seed = gen::item_seed(CATALOGUE_SEED, k as u64);
            let spec = gen::spec(&format!("wide-{k}"), sizes.wide_tasks, ops, seed, [2, 2, 2]);
            Request {
                id: k as u64,
                json: spec.to_json(),
                partitions: 2,
                latency: 10,
                node_limit: 1,
                pinned: None,
            }
        })
        .collect()
}

/// The four pinned repeats: g1 at `(3,1) (2,2) (2,3)` and the example spec
/// at `(2,1)`, each with the warm-start cache on.
fn service_repeats(sizes: &Sizes) -> Vec<Job> {
    let mut jobs = Vec::new();
    if sizes.g1 {
        let g1 = g1_json();
        for rung in 1..4 {
            jobs.push(Job {
                json: g1.clone(),
                params: service_params(Some(LADDER[rung]), true, sizes.g1_cap as u64),
                pinned: Some(G1_LADDER_ANSWERS[rung]),
            });
        }
    }
    jobs.push(Job {
        json: SpecFile::example().to_json(),
        params: service_params(Some((2, 1)), true, sizes.g1_cap as u64),
        pinned: Some(Some(EXAMPLE_COST)),
    });
    jobs
}

fn service_params(config: Option<(u32, u32)>, warm_start: bool, node_limit: u64) -> SolveParams {
    SolveParams {
        config,
        time_limit_secs: Some(SERVICE_DEADLINE_SECS),
        node_limit: Some(node_limit),
        warm_start,
        ..SolveParams::default()
    }
}

impl ServiceCatalogue {
    /// Jobs per pass: as many repeats as fresh jobs.
    fn len(&self) -> usize {
        2 * self.fresh.len()
    }

    fn new(sizes: &Sizes) -> Self {
        let (tasks, ops) = sizes.service_shape;
        ServiceCatalogue {
            repeats: service_repeats(sizes),
            fresh: (0u64..)
                .map(|k| {
                    let seed = gen::item_seed(CATALOGUE_SEED, k);
                    gen::spec(&format!("service-{k}"), tasks, ops, seed, [2, 2, 1])
                })
                .filter(answerable)
                .take(sizes.service_jobs / 2)
                .collect(),
            cap: sizes.service_cap,
        }
    }

    /// The jobs of pass `pass`, each with its catalogue position: the
    /// repeats in turn, then the fresh specs alternately as cached-config
    /// jobs renamed so they miss the cache (a miss, then a store) and as
    /// automatic jobs (uncached).
    fn pass_jobs(&self, seed: u64, pass: usize) -> Vec<(usize, Job)> {
        let mut jobs: Vec<Job> = (0..self.fresh.len())
            .map(|i| self.repeats[i % self.repeats.len()].clone())
            .collect();
        for (k, spec) in self.fresh.iter().enumerate() {
            let auto = k % 2 == 1;
            let mut spec = spec.clone();
            if !auto {
                spec.name = format!("{}-s{seed}-p{pass}", spec.name);
            }
            jobs.push(Job {
                json: spec.to_json(),
                params: if auto {
                    service_params(None, false, self.cap)
                } else {
                    service_params(Some((3, 1)), true, self.cap)
                },
                pinned: None,
            });
        }
        let order = pass_order(seed, pass, jobs.len());
        order.into_iter().map(|i| (i, jobs[i].clone())).collect()
    }
}

/// Whether the automatic pipeline answers `spec` under any node budget:
/// the Figure-2 heuristic partitions it at the estimated `N` for some
/// latency relaxation of the sweep. The server reports a sweep without a
/// partitioning as `failed`, so such specs stay out of the catalogue.
fn answerable(spec: &SpecFile) -> bool {
    let Ok(instance) = spec.build_instance() else {
        return false;
    };
    let graph = instance.graph();
    let Ok(estimate) = estimate_partitions(graph, instance.fus().library(), instance.device())
    else {
        return false;
    };
    (0..=AUTO_MAX_LATENCY).any(|l| {
        let config = ModelConfig::tightened(estimate.num_partitions, l);
        heuristic_solution(&instance, &config).is_some()
    })
}

/// The seeded visiting order of pass `pass`.
fn pass_order(seed: u64, pass: usize, n: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(gen::item_seed(seed, pass as u64));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// Builds the workload's catalogue, loads the fixture and runs the untimed
/// warm-up: one g1 solve in process, or, for `service`, server boot and
/// cache priming.
///
/// # Errors
///
/// A warm-up or priming answer that is wrong or missing.
pub fn prepare(workload: Workload, sizes: &Sizes) -> Result<Prepared, String> {
    match workload {
        Workload::Ladder | Workload::Wide => {
            let requests = match workload {
                Workload::Ladder => ladder_catalogue(sizes),
                _ => wide_catalogue(sizes),
            };
            // The g1 flagship rung: a real search, so the warm-up (and
            // `setup_s`) is a stable amount of work.
            let warm_up = if sizes.g1 {
                Request {
                    id: u64::MAX,
                    json: g1_json(),
                    partitions: LADDER[1].0,
                    latency: LADDER[1].1,
                    node_limit: sizes.g1_cap,
                    pinned: Some(G1_LADDER_ANSWERS[1]),
                }
            } else {
                requests[0].clone()
            };
            let outcome = solve::run(&warm_up, &mut Tracer::new(false), &mut Tally::default());
            if let Outcome::Failed(why) = outcome {
                return Err(format!("warm-up solve failed: {why}"));
            }
            Ok(Prepared::Local(requests))
        }
        Workload::Service => {
            let catalogue = ServiceCatalogue::new(sizes);
            let server = start(ServerConfig::default()).map_err(|e| format!("server: {e}"))?;
            let addr = server.addr();
            // Prime over as many connections as the measured loop, the
            // repeats dealt round-robin.
            let primed = std::thread::scope(|s| {
                let handles: Vec<_> = (0..CONNECTIONS)
                    .map(|c| {
                        let jobs = catalogue.repeats.iter().skip(c).step_by(CONNECTIONS);
                        s.spawn(move || -> Result<(), String> {
                            let mut conn = TcpStream::connect(addr).map_err(|e| e.to_string())?;
                            for job in jobs {
                                let (outcome, _) =
                                    submit(&mut conn, job, 0, &mut Tracer::new(false));
                                if outcome.failed() {
                                    return Err(format!("priming failed: {outcome:?}"));
                                }
                            }
                            Ok(())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|_| Err("priming panicked".into())))
                    .collect::<Result<Vec<()>, String>>()
            });
            match primed {
                Ok(_) => Ok(Prepared::Service(server, catalogue)),
                Err(e) => {
                    server.shutdown();
                    Err(e)
                }
            }
        }
    }
}

/// Stops a prepared workload's processes (the server), returning its final
/// counters.
pub fn finish(prepared: Prepared) -> Option<StatsSnapshot> {
    match prepared {
        Prepared::Local(_) => None,
        Prepared::Service(server, _) => Some(server.shutdown()),
    }
}

/// Decides at each pass boundary whether another pass runs: at least `min`
/// passes, then more while the mean pass still ends within `seconds`.
struct Passes {
    start: Instant,
    seconds: f64,
    min: usize,
}

impl Passes {
    fn another(&self, done: usize) -> bool {
        if done < self.min {
            return true;
        }
        let elapsed = self.start.elapsed().as_secs_f64();
        elapsed + elapsed / done as f64 <= self.seconds
    }
}

/// Measures whole passes over the catalogue, each in its seeded order: at
/// least `min_passes`, then more while the next pass is expected to end
/// within `seconds` of the start. Spans are recorded when `traced`.
pub fn measure(
    prepared: &Prepared,
    seed: u64,
    seconds: f64,
    min_passes: usize,
    traced: bool,
) -> Phase {
    let mut tracer = Tracer::new(traced);
    let mut phase = Phase::default();
    let passes = Passes {
        start: Instant::now(),
        seconds,
        min: min_passes,
    };
    match prepared {
        Prepared::Local(requests) => {
            while passes.another(phase.passes) {
                let order = pass_order(seed, phase.passes, requests.len());
                run_local(requests, &order, phase.passes, &mut tracer, &mut phase);
                phase.passes += 1;
            }
        }
        Prepared::Service(server, catalogue) => {
            run_service(server, catalogue, seed, &passes, &mut tracer, &mut phase);
            phase.server = Some(server.stats());
        }
    }
    phase.wall = passes.start.elapsed().as_secs_f64();
    phase.spans = tracer.into_spans();
    phase
}

fn run_local(
    requests: &[Request],
    order: &[usize],
    pass: usize,
    tracer: &mut Tracer,
    phase: &mut Phase,
) {
    for &item in order {
        let t0 = Instant::now();
        let outcome = solve::run(&requests[item], tracer, &mut phase.tally);
        phase.samples.push(Sample {
            pass,
            item,
            latency: t0.elapsed().as_secs_f64(),
            outcome,
        });
    }
}

/// The service loop's position in the job sequence (pass after pass).
struct Cursor {
    pass: usize,
    jobs: Vec<(usize, Job)>,
    next: usize,
}

/// The closed loop: each connection takes the next job of the sequence,
/// waits for its answer, and repeats. Passes follow each other without a
/// pause, so only the last pass has an idle tail.
fn run_service(
    server: &ServerHandle,
    catalogue: &ServiceCatalogue,
    seed: u64,
    passes: &Passes,
    tracer: &mut Tracer,
    phase: &mut Phase,
) {
    let cursor = Mutex::new(Cursor {
        pass: 0,
        jobs: catalogue.pass_jobs(seed, 0),
        next: 0,
    });
    let draw = || {
        // A panicking connection leaves the cursor consistent: every update
        // below is a single assignment.
        let mut c = cursor.lock().unwrap_or_else(PoisonError::into_inner);
        if c.next == c.jobs.len() {
            if !passes.another(c.pass + 1) {
                return None;
            }
            c.pass += 1;
            c.jobs = catalogue.pass_jobs(seed, c.pass);
            c.next = 0;
        }
        c.next += 1;
        Some((c.pass, c.jobs[c.next - 1].clone()))
    };
    let per_conn: Vec<(Vec<Sample>, Tally, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                let draw = &draw;
                let mut local = tracer.fork();
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut samples = Vec::new();
                    let mut conn = match TcpStream::connect(server.addr()) {
                        Ok(c) => c,
                        Err(e) => {
                            let outcome = Outcome::Failed(format!("connect: {e}"));
                            samples.push(Sample {
                                pass: 0,
                                item: usize::MAX,
                                latency: 0.0,
                                outcome,
                            });
                            return (samples, tally, local);
                        }
                    };
                    while let Some((pass, (item, job))) = draw() {
                        let t0 = Instant::now();
                        let id = (pass * catalogue.len() + item) as u64;
                        let (outcome, facts) = submit(&mut conn, &job, id, &mut local);
                        let latency = t0.elapsed().as_secs_f64();
                        if let Some(f) = facts {
                            tally.add("server.jobs", 1.0);
                            tally.add("server.admit_s", f.admit);
                            tally.add("server.job_s", f.summary.seconds);
                            tally.add("server.latency_s", latency);
                            let cache = f.summary.cache.as_str();
                            tally.add(&format!("server.jobs.{cache}"), 1.0);
                            tally.add(&format!("server.nodes.{cache}"), f.summary.nodes as f64);
                            tally.add(&format!("server.job_s.{cache}"), f.summary.seconds);
                        }
                        samples.push(Sample {
                            pass,
                            item,
                            latency,
                            outcome,
                        });
                    }
                    (samples, tally, local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let failed = Sample {
                        pass: 0,
                        item: usize::MAX,
                        latency: 0.0,
                        outcome: Outcome::Failed("client thread panicked".into()),
                    };
                    (vec![failed], Tally::default(), tracer.fork())
                })
            })
            .collect()
    });
    for (samples, tally, local) in per_conn {
        phase.samples.extend(samples);
        phase.tally.merge(&tally);
        tracer.absorb(local);
    }
    phase.samples.sort_by_key(|s| (s.pass, s.item));
    phase.passes = cursor
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .pass
        + 1;
}

/// What the client learned about one answered job.
struct Facts {
    summary: SolveSummary,
    /// Seconds from sending the request to reading `accepted`.
    admit: f64,
}

/// Sends one job and waits for its terminal frame.
fn submit(
    conn: &mut TcpStream,
    job: &Job,
    id: u64,
    tracer: &mut Tracer,
) -> (Outcome, Option<Facts>) {
    let root = tracer.open("request", None, id);
    let result = exchange(conn, job, id, tracer, root);
    tracer.close(root);
    match result {
        Err(why) => (Outcome::Failed(why), None),
        Ok(facts) => (judge(job, &facts.summary), Some(facts)),
    }
}

fn exchange(
    conn: &mut TcpStream,
    job: &Job,
    id: u64,
    tracer: &mut Tracer,
    root: usize,
) -> Result<Facts, String> {
    let span = tracer.open("cli.parse", Some(root), id);
    let spec = SpecFile::from_json(&job.json);
    tracer.close(span);
    let spec = spec.map_err(|e| format!("spec rejected: {e}"))?;
    let span = tracer.open("proto.encode", Some(root), id);
    let frame = Frame::Solve {
        spec,
        params: job.params.clone(),
    }
    .to_json();
    tracer.close(span);
    let mut span = tracer.open("server.admit", Some(root), id);
    let sent = Instant::now();
    write_frame(conn, &frame).map_err(|e| format!("send: {e}"))?;
    let mut admit = None;
    loop {
        let payload = read_frame(conn)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or("server closed the connection mid-job")?;
        match Response::from_json(&payload)? {
            Response::Accepted { .. } => {
                tracer.close(span);
                admit = Some(sent.elapsed().as_secs_f64());
                // Seen from the client: acceptance to the answer frame.
                span = tracer.open("server.job", Some(root), id);
            }
            Response::Progress { .. } => {}
            Response::Result { summary, .. } => {
                let admit = admit.ok_or("result before acceptance")?;
                tracer.close(span);
                return Ok(Facts { summary, admit });
            }
            Response::Rejected { reason } => return Err(format!("rejected: {reason}")),
            other => return Err(format!("unexpected frame {other:?}")),
        }
    }
}

/// Classifies a service answer and checks it: objective, cost and bound
/// must agree, an optimum must close its gap, and a pinned repeat must
/// return its pinned cost.
fn judge(job: &Job, s: &SolveSummary) -> Outcome {
    let outcome = match (s.status.as_str(), s.cost) {
        ("infeasible", _) => Outcome::Infeasible,
        ("node-limit", None) => Outcome::Capped(None),
        (status @ ("optimal" | "node-limit"), Some(cost)) => {
            let bound = s.best_bound.unwrap_or(f64::NEG_INFINITY);
            let c = cost as f64;
            if s.objective != Some(c) {
                Outcome::Failed(format!("objective {:?} but cost {cost}", s.objective))
            } else if bound > c + 1e-6 {
                Outcome::Failed(format!("bound {bound} above cost {cost}"))
            } else if status == "optimal" && bound <= c - 1.0 {
                Outcome::Failed(format!("optimal with an open gap: bound {bound}"))
            } else if status == "optimal" {
                Outcome::Optimal(cost)
            } else {
                Outcome::Capped(Some(cost))
            }
        }
        (other, _) => Outcome::Failed(format!("job ended `{other}`")),
    };
    outcome.pinned_to(job.pinned)
}
