//! Wire protocol shared by `tempart-server`, `tempart-client`, and the
//! bench load generator.
//!
//! ## Framing
//!
//! Each message is one frame: a 4-byte big-endian payload length followed
//! by that many bytes of UTF-8 JSON. Frames larger than
//! [`MAX_FRAME_BYTES`] are rejected before any allocation — an adversarial
//! length prefix cannot balloon memory. [`read_frame`] distinguishes a
//! *clean* end of stream (EOF on the length boundary → `Ok(None)`) from a
//! *torn* frame (EOF mid-prefix or mid-payload → `Err`), so a dropped
//! connection is always visible as such.
//!
//! ## Messages
//!
//! Client → server ([`Request`]):
//!
//! | `type` | fields |
//! |---|---|
//! | `solve` | `spec` (embedded specification object), optional `partitions` + `latency_relaxation` (explicit config; omitted → automatic estimate + sweep), optional `time_limit_secs` / `node_limit` / `pivot_limit` budget caps, option fields `threads`, `cuts`, `propagate` (each absent key keeps the solver library's default; `true` and `false` alike override it), `branching`, `progress` (stream progress frames), `warm_start` (answer from the server cache when it holds this job's proven optimum); unknown keys are ignored |
//! | `ping` | — |
//! | `shutdown` | — (graceful drain: in-flight jobs finish on the anytime path) |
//!
//! Server → client ([`Response`]):
//!
//! | `type` | meaning |
//! |---|---|
//! | `accepted` | job admitted; `job` id echoes in every later frame |
//! | `rejected` | load shed (queue full) or inadmissible budget — truthful immediate refusal, `reason` says why |
//! | `progress` | streamed incumbent/bound snapshot for a running job |
//! | `result` | terminal answer: kebab-case `status`, objective/bound, cost, work counters, `cache` disposition, `requeued` panic-recovery marker |
//! | `pong` | ping reply |
//! | `draining` | shutdown acknowledged |
//! | `error` | protocol-level failure (malformed frame, unknown type) |
//!
//! Every number crosses the wire as JSON `f64`; counters stay exact below
//! 2^53, far beyond any realistic solve.

use std::io::{self, Read, Write};

use crate::json::{self, Value};
use crate::{LoadError, SpecFile};

/// Hard cap on one frame's payload (shared with the JSON parser's input
/// limit, so any accepted frame is also parseable).
pub const MAX_FRAME_BYTES: usize = json::MAX_INPUT_BYTES;

/// Writes one length-prefixed frame.
///
/// The prefix and payload leave in a single `write_all`, so a small frame
/// is one TCP segment. Two writes (prefix, then payload) would let Nagle's
/// algorithm hold the payload until the peer's delayed ACK for the prefix
/// (~40 ms on Linux) — see DESIGN.md §5f, "one frame, one segment".
///
/// # Errors
///
/// `InvalidInput` if `payload` exceeds [`MAX_FRAME_BYTES`] (nothing is
/// written); otherwise any transport error.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame too large: {} bytes", bytes.len()),
        ));
    }
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one length-prefixed frame.
///
/// Returns `Ok(None)` on a clean end of stream (EOF exactly on the frame
/// boundary).
///
/// # Errors
///
/// * `UnexpectedEof` — the peer vanished mid-prefix or mid-payload (a torn
///   frame).
/// * `InvalidData` — length prefix beyond [`MAX_FRAME_BYTES`], or a
///   payload that is not UTF-8.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len = [0u8; 4];
    let mut filled = 0;
    while filled < len.len() {
        match r.read(&mut len[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "torn frame: EOF inside length prefix",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds limit {MAX_FRAME_BYTES}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "torn frame: EOF inside payload",
            )
        } else {
            e
        }
    })?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame payload is not UTF-8"))
}

/// Solver knobs and budget caps carried by a `solve` request.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveParams {
    /// Explicit `(N, latency_relaxation)` configuration; `None` runs the
    /// automatic estimate + latency sweep (uncacheable — the fingerprint
    /// would not pin the model).
    pub config: Option<(u32, u32)>,
    /// Client-requested wall-clock cap in seconds (the server clamps it to
    /// its own admission ceiling).
    pub time_limit_secs: Option<f64>,
    /// Client-requested branch-and-bound node cap (server-clamped).
    pub node_limit: Option<u64>,
    /// Client-requested total simplex-pivot cap (server-clamped).
    pub pivot_limit: Option<u64>,
    /// Worker threads inside the solve (server-clamped; default 1).
    pub threads: Option<u64>,
    /// Root cutting planes; `None` keeps the library default
    /// (`MipOptions::default().cuts`).
    pub cuts: Option<bool>,
    /// Node bound propagation; `None` keeps the library default
    /// (`MipOptions::default().propagate`).
    pub propagate: Option<bool>,
    /// Branching strategy name (`rule` / `pseudocost`).
    pub branching: Option<String>,
    /// Stream `progress` frames while the job runs.
    pub progress: bool,
    /// Consult the server's cache of proven optima (explicit-config jobs
    /// only). A hit is re-verified in exact arithmetic against the freshly
    /// built model and then answers the job without a search: `optimal`,
    /// the exact objective as both `objective` and `best_bound`, and zero
    /// nodes and pivots, whatever the job's own budget. An entry that fails
    /// the check is evicted and the job solves cold (`cache: "stale"`).
    pub warm_start: bool,
}

/// One client→server message.
// A `Request` is transient — parsed, dispatched, dropped, one per frame —
// so the `Solve` variant's inline `SpecFile` never amplifies into the
// bulk-storage cost the lint guards against, and boxing would only add
// indirection on the hot parse path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Request {
    /// Submit a solve job.
    Solve {
        /// The specification to partition.
        spec: SpecFile,
        /// Solver knobs and budget caps.
        params: SolveParams,
    },
    /// Liveness probe.
    Ping,
    /// Graceful drain: finish in-flight jobs on the anytime path, refuse
    /// new ones, then exit.
    Shutdown,
}

/// Terminal accounting for one finished job.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveSummary {
    /// Kebab-case [`MipStatus`](tempart_lp::MipStatus) name, or `failed`
    /// when the job crashed twice, or `infeasible-config` when the model
    /// admits no solution.
    pub status: String,
    /// Claimed objective (communication cost) of the reported solution.
    pub objective: Option<f64>,
    /// Proven lower bound at termination.
    pub best_bound: Option<f64>,
    /// Communication cost of the reported schedule (integer view of the
    /// objective).
    pub cost: Option<u64>,
    /// Branch-and-bound nodes spent; 0 on a cache hit, which runs no
    /// search.
    pub nodes: u64,
    /// Simplex pivots spent; 0 on a cache hit.
    pub lp_iterations: u64,
    /// `exact` or `heuristic` (anytime degradation).
    pub source: String,
    /// Cache disposition: `hit` (a stored optimum passed re-verification
    /// and is the answer), `stale` (the entry failed it, was evicted, and
    /// the job solved cold), `miss` (nothing stored; the job solved cold),
    /// or `uncached` (no `warm_start`, or an automatic-sweep job).
    pub cache: String,
    /// True when the job crashed once and was requeued before finishing.
    pub requeued: bool,
    /// Wall-clock seconds from admission to terminal status.
    pub seconds: f64,
}

/// One server→client message.
#[derive(Debug, Clone)]
pub enum Response {
    /// The job was admitted.
    Accepted {
        /// Server-assigned job id, echoed in every later frame.
        job: u64,
    },
    /// The job was refused immediately (load shed or inadmissible budget).
    Rejected {
        /// Why (`queue-full`, `draining`, …).
        reason: String,
    },
    /// Streamed snapshot of a running job.
    Progress {
        /// Job id.
        job: u64,
        /// Best validated incumbent objective so far.
        incumbent: Option<f64>,
        /// Proven global lower bound so far.
        bound: Option<f64>,
        /// Incumbent publications so far.
        updates: u64,
    },
    /// Terminal answer for a job.
    Result {
        /// Job id.
        job: u64,
        /// Accounting.
        summary: SolveSummary,
    },
    /// Ping reply.
    Pong,
    /// Shutdown acknowledged; the stream ends after in-flight results.
    Draining,
    /// Protocol-level failure.
    Error {
        /// What went wrong.
        reason: String,
    },
}

fn num(v: f64) -> Value {
    Value::Num(v)
}

fn opt_num(fields: &mut Vec<(String, Value)>, key: &str, v: Option<f64>) {
    if let Some(v) = v {
        if v.is_finite() {
            fields.push((key.to_string(), num(v)));
        }
    }
}

fn get_f64(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

fn get_u64(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(Value::as_u64)
}

fn get_bool(v: &Value, key: &str) -> bool {
    get_opt_bool(v, key) == Some(true)
}

fn get_opt_bool(v: &Value, key: &str) -> Option<bool> {
    v.get(key).and_then(Value::as_bool)
}

fn get_str(v: &Value, key: &str) -> Option<String> {
    v.get(key).and_then(Value::as_str).map(str::to_string)
}

impl Request {
    /// Serializes to one JSON payload (frame it with [`write_frame`]).
    pub fn to_json(&self) -> String {
        match self {
            Request::Ping => r#"{"type":"ping"}"#.to_string(),
            Request::Shutdown => r#"{"type":"shutdown"}"#.to_string(),
            Request::Solve { spec, params } => {
                let mut out = String::from(r#"{"type":"solve","spec":"#);
                // `SpecFile::to_json` emits a valid JSON object, so the
                // pretty text can be spliced directly into the frame.
                out.push_str(&spec.to_json());
                if let Some((n, l)) = params.config {
                    out.push_str(&format!(r#","partitions":{n},"latency_relaxation":{l}"#));
                }
                if let Some(t) = params.time_limit_secs {
                    if t.is_finite() {
                        out.push_str(r#","time_limit_secs":"#);
                        json::write_f64(&mut out, t);
                    }
                }
                for (key, v) in [
                    ("node_limit", params.node_limit),
                    ("pivot_limit", params.pivot_limit),
                    ("threads", params.threads),
                ] {
                    if let Some(v) = v {
                        out.push_str(&format!(r#","{key}":{v}"#));
                    }
                }
                for (key, v) in [("cuts", params.cuts), ("propagate", params.propagate)] {
                    if let Some(v) = v {
                        out.push_str(&format!(r#","{key}":{v}"#));
                    }
                }
                for (key, flag) in [
                    ("progress", params.progress),
                    ("warm_start", params.warm_start),
                ] {
                    if flag {
                        out.push_str(&format!(r#","{key}":true"#));
                    }
                }
                if let Some(b) = &params.branching {
                    out.push_str(r#","branching":"#);
                    json::write_escaped(&mut out, b);
                }
                out.push('}');
                out
            }
        }
    }

    /// Parses one request payload.
    ///
    /// # Errors
    ///
    /// A human-readable reason (also suitable for an `error` response).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        match v.get("type").and_then(Value::as_str) {
            Some("ping") => Ok(Request::Ping),
            Some("shutdown") => Ok(Request::Shutdown),
            Some("solve") => {
                let spec_v = v.get("spec").ok_or("solve request missing `spec`")?;
                let spec = SpecFile::from_value(spec_v).map_err(|e: LoadError| e.to_string())?;
                let config = match (get_u64(&v, "partitions"), get_u64(&v, "latency_relaxation")) {
                    (Some(n), l) => {
                        let n = u32::try_from(n).map_err(|_| "`partitions` out of range")?;
                        let l = u32::try_from(l.unwrap_or(0))
                            .map_err(|_| "`latency_relaxation` out of range")?;
                        Some((n, l))
                    }
                    (None, Some(_)) => {
                        return Err("`latency_relaxation` requires `partitions`".to_string())
                    }
                    (None, None) => None,
                };
                let params = SolveParams {
                    config,
                    time_limit_secs: get_f64(&v, "time_limit_secs"),
                    node_limit: get_u64(&v, "node_limit"),
                    pivot_limit: get_u64(&v, "pivot_limit"),
                    threads: get_u64(&v, "threads"),
                    cuts: get_opt_bool(&v, "cuts"),
                    propagate: get_opt_bool(&v, "propagate"),
                    branching: get_str(&v, "branching"),
                    progress: get_bool(&v, "progress"),
                    warm_start: get_bool(&v, "warm_start"),
                };
                Ok(Request::Solve { spec, params })
            }
            Some(other) => Err(format!("unknown request type `{other}`")),
            None => Err("request missing `type`".to_string()),
        }
    }
}

impl Response {
    /// Serializes to one JSON payload (frame it with [`write_frame`]).
    pub fn to_json(&self) -> String {
        let mut fields: Vec<(String, Value)> = Vec::new();
        let tag = |t: &str| ("type".to_string(), Value::Str(t.to_string()));
        match self {
            Response::Accepted { job } => {
                fields.push(tag("accepted"));
                fields.push(("job".to_string(), num(*job as f64)));
            }
            Response::Rejected { reason } => {
                fields.push(tag("rejected"));
                fields.push(("reason".to_string(), Value::Str(reason.clone())));
            }
            Response::Progress {
                job,
                incumbent,
                bound,
                updates,
            } => {
                fields.push(tag("progress"));
                fields.push(("job".to_string(), num(*job as f64)));
                opt_num(&mut fields, "incumbent", *incumbent);
                opt_num(&mut fields, "bound", *bound);
                fields.push(("updates".to_string(), num(*updates as f64)));
            }
            Response::Result { job, summary } => {
                fields.push(tag("result"));
                fields.push(("job".to_string(), num(*job as f64)));
                fields.push(("status".to_string(), Value::Str(summary.status.clone())));
                opt_num(&mut fields, "objective", summary.objective);
                opt_num(&mut fields, "best_bound", summary.best_bound);
                if let Some(c) = summary.cost {
                    fields.push(("cost".to_string(), num(c as f64)));
                }
                fields.push(("nodes".to_string(), num(summary.nodes as f64)));
                fields.push((
                    "lp_iterations".to_string(),
                    num(summary.lp_iterations as f64),
                ));
                fields.push(("source".to_string(), Value::Str(summary.source.clone())));
                fields.push(("cache".to_string(), Value::Str(summary.cache.clone())));
                fields.push(("requeued".to_string(), Value::Bool(summary.requeued)));
                fields.push(("seconds".to_string(), num(summary.seconds)));
            }
            Response::Pong => fields.push(tag("pong")),
            Response::Draining => fields.push(tag("draining")),
            Response::Error { reason } => {
                fields.push(tag("error"));
                fields.push(("reason".to_string(), Value::Str(reason.clone())));
            }
        }
        json::to_string(&Value::Obj(fields))
    }

    /// Parses one response payload.
    ///
    /// # Errors
    ///
    /// A human-readable reason.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        let reason = || get_str(&v, "reason").unwrap_or_default();
        match v.get("type").and_then(Value::as_str) {
            Some("accepted") => Ok(Response::Accepted {
                job: get_u64(&v, "job").ok_or("accepted frame missing `job`")?,
            }),
            Some("rejected") => Ok(Response::Rejected { reason: reason() }),
            Some("progress") => Ok(Response::Progress {
                job: get_u64(&v, "job").ok_or("progress frame missing `job`")?,
                incumbent: get_f64(&v, "incumbent"),
                bound: get_f64(&v, "bound"),
                updates: get_u64(&v, "updates").unwrap_or(0),
            }),
            Some("result") => Ok(Response::Result {
                job: get_u64(&v, "job").ok_or("result frame missing `job`")?,
                summary: SolveSummary {
                    status: get_str(&v, "status").ok_or("result frame missing `status`")?,
                    objective: get_f64(&v, "objective"),
                    best_bound: get_f64(&v, "best_bound"),
                    cost: get_u64(&v, "cost"),
                    nodes: get_u64(&v, "nodes").unwrap_or(0),
                    lp_iterations: get_u64(&v, "lp_iterations").unwrap_or(0),
                    source: get_str(&v, "source").unwrap_or_default(),
                    cache: get_str(&v, "cache").unwrap_or_default(),
                    requeued: get_bool(&v, "requeued"),
                    seconds: get_f64(&v, "seconds").unwrap_or(0.0),
                },
            }),
            Some("pong") => Ok(Response::Pong),
            Some("draining") => Ok(Response::Draining),
            Some("error") => Ok(Response::Error { reason: reason() }),
            Some(other) => Err(format!("unknown response type `{other}`")),
            None => Err("response missing `type`".to_string()),
        }
    }
}

/// The cache key for an explicit-config job: the canonical (re-serialized)
/// specification text plus the `(N, L)` configuration. Automatic-sweep jobs
/// have no stable model shape and return `None`.
///
/// A cache hit trusts the optimality proof of the solve that stored the
/// entry, so two requests may share a key only when they build the same
/// model. The server builds every explicit-config job as
/// `ModelConfig::tightened(N, L)` over the spec, so equal keys give equal
/// models. Options that cannot move the optimum stay out of the key:
/// `threads`, `cuts`, `propagate`, `branching` and the budget caps. A new
/// request field that changes the model must join the key.
pub fn instance_fingerprint(spec: &SpecFile, params: &SolveParams) -> Option<String> {
    let (n, l) = params.config?;
    Some(format!("N{n}-L{l}:{}", spec.to_json()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, r#"{"type":"ping"}"#).unwrap();
        write_frame(&mut buf, "second").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some(r#"{"type":"ping"}"#)
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("second"));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn torn_frames_are_visible() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        // Truncate inside the payload.
        let torn = &buf[..buf.len() - 2];
        let err = read_frame(&mut &torn[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Truncate inside the length prefix.
        let torn = &buf[..2];
        let err = read_frame(&mut &torn[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// A `Write` that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
        flushes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn write_frame_is_one_write_call() {
        let mut w = CountingWriter::default();
        write_frame(&mut w, "hello").unwrap();
        assert_eq!(
            w.writes,
            vec![b"\0\0\0\x05hello".to_vec()],
            "prefix and payload leave in one write"
        );
        assert_eq!(w.flushes, 1);
    }

    #[test]
    fn oversize_frame_writes_nothing() {
        let mut w = CountingWriter::default();
        let payload = "x".repeat(MAX_FRAME_BYTES + 1);
        let err = write_frame(&mut w, &payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(w.writes.is_empty(), "no bytes before the size check");
        assert_eq!(w.flushes, 0);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocation() {
        let mut buf = Vec::from(u32::MAX.to_be_bytes());
        buf.extend_from_slice(b"xx");
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn solve_request_round_trips() {
        let req = Request::Solve {
            spec: SpecFile::example(),
            params: SolveParams {
                config: Some((2, 1)),
                time_limit_secs: Some(1.5),
                node_limit: Some(1000),
                pivot_limit: None,
                threads: Some(2),
                cuts: Some(true),
                propagate: Some(false),
                branching: Some("pseudocost".to_string()),
                progress: true,
                warm_start: true,
            },
        };
        let Request::Solve { spec, params } = Request::from_json(&req.to_json()).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(spec.name, "dsp-block");
        assert_eq!(spec.tasks.len(), 2);
        let Request::Solve { params: sent, .. } = req else {
            unreachable!()
        };
        assert_eq!(params, sent);
        assert_eq!(
            params.propagate,
            Some(false),
            "an explicit false round-trips"
        );
        assert!(matches!(
            Request::from_json(r#"{"type":"ping"}"#).unwrap(),
            Request::Ping
        ));
        assert!(matches!(
            Request::from_json(r#"{"type":"shutdown"}"#).unwrap(),
            Request::Shutdown
        ));
    }

    #[test]
    fn absent_option_keys_parse_as_library_defaults() {
        let spec = SpecFile::example().to_json();
        let parse = |extra: &str| {
            let text = format!(r#"{{"type":"solve","spec":{spec}{extra}}}"#);
            match Request::from_json(&text).unwrap() {
                Request::Solve { params, .. } => params,
                _ => panic!("wrong variant"),
            }
        };
        let params = parse("");
        assert_eq!((params.cuts, params.propagate), (None, None));
        // Keys of options the solver no longer has are ignored like any
        // other unknown key.
        let params = parse(r#","portfolio":true,"rins":true,"cuts":false"#);
        assert_eq!((params.cuts, params.propagate), (Some(false), None));
    }

    #[test]
    fn malformed_requests_error_truthfully() {
        assert!(Request::from_json("garbage").is_err());
        assert!(Request::from_json(r#"{"no":"type"}"#).is_err());
        assert!(Request::from_json(r#"{"type":"fry"}"#).is_err());
        assert!(Request::from_json(r#"{"type":"solve"}"#).is_err());
        assert!(
            Request::from_json(r#"{"type":"solve","spec":{},"latency_relaxation":1}"#).is_err(),
            "L without N must be rejected"
        );
    }

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            Response::Accepted { job: 7 },
            Response::Rejected {
                reason: "queue-full".to_string(),
            },
            Response::Progress {
                job: 7,
                incumbent: Some(13.0),
                bound: Some(4.0),
                updates: 3,
            },
            Response::Result {
                job: 7,
                summary: SolveSummary {
                    status: "optimal".to_string(),
                    objective: Some(13.0),
                    best_bound: Some(13.0),
                    cost: Some(13),
                    nodes: 585,
                    lp_iterations: 10_958,
                    source: "exact".to_string(),
                    cache: "miss".to_string(),
                    requeued: false,
                    seconds: 1.25,
                },
            },
            Response::Pong,
            Response::Draining,
            Response::Error {
                reason: "bad frame".to_string(),
            },
        ];
        for resp in cases {
            let text = resp.to_json();
            let back = Response::from_json(&text).unwrap();
            // Compare through re-serialization (no PartialEq on Response).
            assert_eq!(back.to_json(), text, "{text}");
        }
    }

    #[test]
    fn fingerprint_only_for_explicit_configs() {
        let spec = SpecFile::example();
        let mut params = SolveParams::default();
        assert_eq!(instance_fingerprint(&spec, &params), None);
        params.config = Some((3, 1));
        let fp = instance_fingerprint(&spec, &params).unwrap();
        assert!(fp.starts_with("N3-L1:"));
        params.config = Some((3, 2));
        assert_ne!(instance_fingerprint(&spec, &params).unwrap(), fp);
    }
}
