//! `tempart-server` — the temporal-partitioning solver as a service.
//!
//! A std-only, thread-per-connection TCP service that multiplexes solve
//! jobs over a shared worker pool. The wire protocol (4-byte big-endian
//! length prefix + JSON) is shared with `tempart-client` and the bench
//! load generator via [`tempart_cli::proto`].
//!
//! ## Architecture
//!
//! ```text
//!              accept loop (one thread)
//!                    │ spawns
//!        connection threads (read frames, admit, stream)
//!                    │ admit → bounded queue ── shed when full
//!                    ▼
//!        worker pool (catch_unwind isolation, requeue-once)
//!                    │ terminal SolveSummary via per-job channel
//!                    ▼
//!        connection thread streams progress + the result frame
//! ```
//!
//! ## Robustness invariants
//!
//! * **Truthful admission** — a job is either `accepted` (and then reaches
//!   exactly one terminal status) or `rejected` immediately with the real
//!   reason (`queue-full` load shedding, `draining`, an inadmissible
//!   budget, or an invalid specification). Nothing is silently dropped.
//! * **Deadline propagation** — the admitted (server-clamped) wall/node/
//!   pivot budget becomes one [`Budget`] attached to the solve via
//!   `LpOptions::budget`, so the deadline is enforced *inside* the simplex
//!   pivot loop, and a draining server can cooperatively stop every
//!   in-flight job ([`Budget::request_stop`]) onto the anytime path: best
//!   incumbent plus a valid bound, never a hang.
//! * **Panic isolation** — a worker panic (injected by the chaos plan or
//!   real) is caught; the job is requeued once, and a second crash yields
//!   a truthful `failed` terminal status. The panic never takes down the
//!   server or another connection's job.
//! * **Cache hits never lie** — the LRU cache keyed by
//!   [`tempart_cli::proto::instance_fingerprint`] holds only proven optima.
//!   A hit is re-verified against the freshly built model: the audit
//!   crate's exact certificate checker recomputes feasibility and the
//!   objective, and the schedule must extract and validate. It then
//!   answers `optimal` with no search, on the optimality proof of the
//!   solve that stored it (equal keys build equal models). A stale or
//!   corrupted entry is evicted and the job solves cold
//!   (`cache: "stale"`); it cannot produce a wrong answer.
//!
//! The [`FaultPlan`] service sites (`slowclient`, `tornframe`,
//! `disconnect`, `panic`, `cachepoison`) are consulted at the matching
//! seams so the chaos suite can script deterministic failures; see
//! `tests/chaos.rs`.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;

// Sync primitives come from the facade: `std::sync` re-exports in every
// normal build, instrumented shims when the `race-model` feature hands
// the queue to the model checker (see `race_models`).
use std::thread;
use std::time::Instant;
use tempart_race::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use tempart_race::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use tempart_cli::proto::{self, Response, SolveParams};
use tempart_cli::SpecFile;
use tempart_lp::{Branching, Budget, FaultPlan, FaultSite, Progress};

mod cache;
mod conn;
mod queue;
#[cfg(feature = "race-model")]
pub mod race_models;
mod stats;
mod worker;

pub use cache::WarmCache;
pub use stats::StatsSnapshot;

use queue::{Job, JobQueue};
use stats::Stats;

/// Acquires a mutex, recovering the guard from a poisoned lock: a panicking
/// worker must never wedge the queue, cache, or registry for everyone else.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Condvar wait with the same poison recovery as [`lock`].
pub(crate) fn wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

/// Tunable service policy. Everything has a safe default; `addr` may use
/// port 0 to let the OS pick (read it back from [`ServerHandle::addr`]).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0`.
    pub addr: String,
    /// Worker-pool size (jobs solved concurrently). 0 is accepted for
    /// admission-layer tests but such a server never finishes a job.
    pub workers: usize,
    /// Bounded queue depth; an admission beyond this sheds (`queue-full`).
    pub queue_capacity: usize,
    /// Admission ceiling for a job's wall-clock budget: client requests are
    /// clamped here, never extended.
    pub max_time_limit_secs: f64,
    /// Wall-clock budget for jobs that do not request one.
    pub default_time_limit_secs: f64,
    /// Cap on per-job solver threads: the workers of one job's
    /// branch-and-bound search (`1` keeps the search on the pool worker's
    /// own thread).
    pub max_threads: usize,
    /// Warm-start cache entries (0 disables the cache).
    pub cache_capacity: usize,
    /// Deterministic chaos plan: service sites are consulted by the
    /// connection/worker/cache layers, solver sites propagate into solves.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 16,
            max_time_limit_secs: 30.0,
            default_time_limit_secs: 5.0,
            max_threads: 2,
            cache_capacity: 32,
            faults: None,
        }
    }
}

/// Shared server state: queue, cache, stats, drain flag, and the running-
/// budget registry that lets a drain stop every admitted job.
pub(crate) struct Inner {
    pub(crate) config: ServerConfig,
    pub(crate) addr: SocketAddr,
    pub(crate) queue: JobQueue,
    pub(crate) cache: WarmCache,
    pub(crate) stats: Stats,
    // hb: seqcst-rmw -> seqcst-load (draining) — the drain latch must be
    // totally ordered against every admission check: once `begin_drain`'s
    // claim-once swap lands, admission's load and `register`'s re-check
    // cannot both miss it, so no budget escapes the drain sweep (model:
    // `race_models::drain_refuses_admission`).
    pub(crate) draining: AtomicBool,
    // hb: relaxed-rmw (next_job) — a pure unique-id ticket: each admission
    // needs a distinct number, nothing is published through it.
    next_job: AtomicU64,
    /// Budgets of every admitted-but-not-terminal job, so `begin_drain`
    /// can cooperatively stop them all.
    // lock-order: 3
    running: Mutex<Vec<(u64, Arc<Budget>)>>,
    /// Connection threads, joined at shutdown so every terminal frame is
    /// flushed before the process exits.
    // lock-order: 4
    conns: Mutex<Vec<thread::JoinHandle<()>>>,
}

/// A successfully admitted job, from the connection thread's side.
pub(crate) struct Admission {
    pub id: u64,
    pub progress: Arc<Progress>,
    pub rx: mpsc::Receiver<Response>,
}

impl Inner {
    fn new(config: ServerConfig, addr: SocketAddr) -> Inner {
        let cache = WarmCache::new(config.cache_capacity);
        Inner {
            config,
            addr,
            queue: JobQueue::new(),
            cache,
            stats: Stats::default(),
            draining: AtomicBool::new(false),
            next_job: AtomicU64::new(0),
            running: Mutex::new(Vec::new()),
            conns: Mutex::new(Vec::new()),
        }
    }

    /// Consults the chaos plan for one service site.
    pub(crate) fn trip(&self, site: FaultSite) -> bool {
        self.config.faults.as_deref().is_some_and(|p| p.trip(site))
    }

    /// Full admission control for one `solve` request: policy checks,
    /// budget clamping, queue push (or shed). Every refusal is immediate
    /// and carries its reason.
    pub(crate) fn admit(&self, spec: SpecFile, params: SolveParams) -> Result<Admission, String> {
        self.stats.note_submitted();
        let reject = |reason: String| {
            self.stats.note_rejected();
            Err(reason)
        };
        if self.draining.load(Ordering::SeqCst) {
            return reject("draining".to_string());
        }
        if let Some(t) = params.time_limit_secs {
            if t.is_nan() || t <= 0.0 {
                return reject("inadmissible budget: time limit must be positive".to_string());
            }
        }
        if params.node_limit == Some(0) {
            return reject("inadmissible budget: node limit must be at least 1".to_string());
        }
        if params.pivot_limit == Some(0) {
            return reject("inadmissible budget: pivot limit must be at least 1".to_string());
        }
        if let Some((n, _)) = params.config {
            if n == 0 {
                return reject("inadmissible config: partitions must be at least 1".to_string());
            }
        }
        let branching = match &params.branching {
            None => Branching::default(),
            Some(name) => match Branching::parse(name) {
                Some(b) => b,
                None => return reject(format!("unknown branching rule `{name}`")),
            },
        };
        if let Err(e) = spec.build_instance() {
            return reject(format!("invalid spec: {e}"));
        }

        let time = params
            .time_limit_secs
            .unwrap_or(self.config.default_time_limit_secs)
            .min(self.config.max_time_limit_secs);
        let to_usize =
            |v: Option<u64>| v.map_or(usize::MAX, |n| usize::try_from(n).unwrap_or(usize::MAX));
        let nodes = to_usize(params.node_limit);
        let pivots = to_usize(params.pivot_limit);
        let threads = params
            .threads
            .map_or(1, |t| usize::try_from(t).unwrap_or(1))
            .clamp(1, self.config.max_threads.max(1));

        let id = self.next_job.fetch_add(1, Ordering::Relaxed) + 1;
        // The budget clock starts at admission: the deadline is a promise
        // to the client, so queue wait counts against it.
        let budget = Arc::new(Budget::new(time, nodes, pivots));
        let progress = Arc::new(Progress::new());
        let (tx, rx) = mpsc::channel();
        let fingerprint = proto::instance_fingerprint(&spec, &params);
        let job = Job {
            id,
            spec,
            params,
            fingerprint,
            progress: Arc::clone(&progress),
            budget: Arc::clone(&budget),
            tx,
            requeued: false,
            submitted: Instant::now(),
            time_limit_secs: time,
            node_limit: nodes,
            pivot_limit: pivots,
            threads,
            branching,
        };
        self.register(id, budget);
        match self.queue.try_push(job, self.config.queue_capacity) {
            Ok(()) => {
                self.stats.note_accepted();
                Ok(Admission { id, progress, rx })
            }
            Err(_job) => {
                self.unregister(id);
                self.stats.note_shed();
                Err("queue-full".to_string())
            }
        }
    }

    pub(crate) fn register(&self, id: u64, budget: Arc<Budget>) {
        lock(&self.running).push((id, Arc::clone(&budget)));
        // A drain that raced past `admit`'s check has already swept the
        // registry; make sure this budget is stopped too.
        if self.draining.load(Ordering::SeqCst) {
            budget.request_stop();
        }
    }

    pub(crate) fn unregister(&self, id: u64) {
        lock(&self.running).retain(|(j, _)| *j != id);
    }

    /// Starts a graceful drain (idempotent): new solves are refused,
    /// every admitted job's budget is stopped so it lands on the anytime
    /// path, and the queue closes once drained.
    pub(crate) fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        for (_, b) in lock(&self.running).iter() {
            b.request_stop();
        }
        self.queue.close();
    }
}

/// A running server. Dropping the handle leaves the threads running
/// (detached); call [`ServerHandle::shutdown`] for a graceful drain or
/// [`ServerHandle::join`] to wait for a wire-initiated one.
pub struct ServerHandle {
    addr: SocketAddr,
    inner: Arc<Inner>,
    acceptor: thread::JoinHandle<()>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time snapshot of the service counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Initiates a graceful drain and waits for it to complete. In-flight
    /// jobs finish on the anytime path; the final counters are returned.
    pub fn shutdown(self) -> StatsSnapshot {
        self.inner.begin_drain();
        // Wake the acceptor out of its blocking accept.
        let _ = TcpStream::connect(self.addr);
        self.join()
    }

    /// Waits for a drain initiated elsewhere (a wire `shutdown` request),
    /// then joins every thread. Worker threads are joined before the
    /// connection threads so each terminal frame is produced before we
    /// wait on its delivery.
    pub fn join(self) -> StatsSnapshot {
        let _ = self.acceptor.join();
        for w in self.workers {
            let _ = w.join();
        }
        let conns = std::mem::take(&mut *lock(&self.inner.conns));
        for c in conns {
            let _ = c.join();
        }
        self.inner.stats.snapshot()
    }
}

/// Binds the listener and spawns the acceptor and worker threads.
///
/// # Errors
///
/// Propagates bind/spawn I/O errors.
pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
    install_worker_panic_filter();
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let inner = Arc::new(Inner::new(config, addr));
    let mut workers = Vec::new();
    for i in 0..inner.config.workers {
        let inner = Arc::clone(&inner);
        workers.push(
            thread::Builder::new()
                .name(format!("tempart-worker-{i}"))
                .spawn(move || worker::run(inner))?,
        );
    }
    let acceptor_inner = Arc::clone(&inner);
    let acceptor = thread::Builder::new()
        .name("tempart-acceptor".to_string())
        .spawn(move || accept_loop(listener, acceptor_inner))?;
    Ok(ServerHandle {
        addr,
        inner,
        acceptor,
        workers,
    })
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if inner.draining.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if inner.draining.load(Ordering::SeqCst) {
            // The wake-up connection (or a late client): refuse by close.
            return;
        }
        // `result` follows `accepted` with no client bytes in between, so
        // with Nagle on it would wait for the client's delayed ACK (~40 ms)
        // whenever a job finishes soon after admission. A failure here only
        // costs latency, never correctness.
        let _ = stream.set_nodelay(true);
        let conn_inner = Arc::clone(&inner);
        let handle = thread::Builder::new()
            .name("tempart-conn".to_string())
            .spawn(move || conn::handle(conn_inner, stream));
        if let Ok(h) = handle {
            lock(&inner.conns).push(h);
        }
    }
}

/// Suppresses the default panic banner for pool workers: injected (and
/// real) worker panics are caught, accounted, and surfaced as truthful
/// `failed`/requeue outcomes — the stderr backtrace would only alarm.
/// Every other thread keeps the previous hook.
fn install_worker_panic_filter() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let worker = thread::current()
                .name()
                .is_some_and(|n| n.starts_with("tempart-worker"));
            if !worker {
                prev(info);
            }
        }));
    });
}
