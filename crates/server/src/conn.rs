//! Per-connection protocol handling.
//!
//! One thread per connection reads length-prefixed frames, runs admission
//! for `solve` requests, and streams progress + the terminal result back.
//! Service chaos sites consulted here:
//!
//! * `tornframe` — after each frame read, an injected truncation: the
//!   connection gets a truthful `error` frame and closes; the server (and
//!   every other connection) is unaffected. Real torn frames (EOF inside
//!   a frame) take the same accounting path.
//! * `slowclient` — a stall before a (non-progress) response write; other
//!   connections are isolated by the thread-per-connection design.
//!   Progress frames skip the site so its occurrence numbering stays
//!   independent of solve timing.
//! * `disconnect` — drops the connection right after `accepted`; the job
//!   still runs to exactly one terminal status (the orphan invariant).

use std::io;
use std::net::TcpStream;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use tempart_cli::proto::{self, Request, Response};
use tempart_lp::FaultSite;

use crate::{Admission, Inner};

/// How often a streaming connection samples the progress board while its
/// job runs.
const PROGRESS_POLL: Duration = Duration::from_millis(25);

/// Injected stall length for the `slowclient` site.
const SLOW_CLIENT_STALL: Duration = Duration::from_millis(50);

pub(crate) fn handle(inner: Arc<Inner>, stream: TcpStream) {
    let Ok(mut reader) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    loop {
        let frame = match proto::read_frame(&mut reader) {
            Ok(Some(f)) => f,
            Ok(None) => return, // clean EOF: client is done
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                // A real torn frame: the peer vanished mid-message.
                inner.stats.note_torn();
                return;
            }
            Err(e) => {
                let _ = send(
                    &inner,
                    &mut writer,
                    &Response::Error {
                        reason: e.to_string(),
                    },
                );
                return;
            }
        };
        if inner.trip(FaultSite::TornFrame) {
            inner.stats.note_torn();
            let _ = send(
                &inner,
                &mut writer,
                &Response::Error {
                    reason: "torn frame: injected truncation".to_string(),
                },
            );
            return;
        }
        let request = match Request::from_json(&frame) {
            Ok(r) => r,
            Err(reason) => {
                // Truthful protocol error; keep the connection usable.
                let _ = send(&inner, &mut writer, &Response::Error { reason });
                continue;
            }
        };
        match request {
            Request::Ping => {
                let _ = send(&inner, &mut writer, &Response::Pong);
            }
            Request::Shutdown => {
                inner.begin_drain();
                let _ = send(&inner, &mut writer, &Response::Draining);
                // Wake the acceptor so it can observe the drain and exit.
                let _ = TcpStream::connect(inner.addr);
            }
            Request::Solve { spec, params } => {
                let want_progress = params.progress;
                match inner.admit(spec, params) {
                    Err(reason) => {
                        // Load shedding and admission refusals answer
                        // immediately — the refusal is the answer.
                        let _ = send(&inner, &mut writer, &Response::Rejected { reason });
                    }
                    Ok(admission) => {
                        let _ = send(
                            &inner,
                            &mut writer,
                            &Response::Accepted { job: admission.id },
                        );
                        if inner.trip(FaultSite::Disconnect) {
                            // The job keeps running; the worker still
                            // records its terminal status.
                            inner.stats.note_disconnect();
                            return;
                        }
                        stream_job(&inner, &mut writer, &admission, want_progress);
                    }
                }
            }
        }
    }
}

/// Streams a running job: progress snapshots (when requested) until the
/// worker delivers the terminal result frame. A job without a progress
/// stream blocks on the channel; only progress streams poll the board.
fn stream_job(inner: &Inner, writer: &mut TcpStream, admission: &Admission, want_progress: bool) {
    if !want_progress {
        let resp = admission.rx.recv().unwrap_or_else(|_| channel_lost());
        let _ = send(inner, writer, &resp);
        return;
    }
    let board = &admission.progress;
    let mut last = (f64::INFINITY.to_bits(), f64::NEG_INFINITY.to_bits(), 0usize);
    loop {
        match admission.rx.recv_timeout(PROGRESS_POLL) {
            Ok(resp) => {
                let _ = send(inner, writer, &resp);
                return;
            }
            Err(RecvTimeoutError::Timeout) => {
                let (inc, bnd, upd) = (board.incumbent(), board.bound(), board.updates());
                let now = (inc.to_bits(), bnd.to_bits(), upd);
                if now == last {
                    continue;
                }
                last = now;
                let frame = Response::Progress {
                    job: admission.id,
                    incumbent: inc.is_finite().then_some(inc),
                    bound: bnd.is_finite().then_some(bnd),
                    updates: upd as u64,
                };
                if proto::write_frame(writer, &frame.to_json()).is_err() {
                    // Client gone mid-stream; the worker still owns the
                    // job's terminal accounting.
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                let _ = send(inner, writer, &channel_lost());
                return;
            }
        }
    }
}

/// Defensive: the worker dropped the sender without a result. Surface it
/// rather than hanging.
fn channel_lost() -> Response {
    Response::Error {
        reason: "job channel lost".to_string(),
    }
}

/// Writes one response frame, consulting the `slowclient` chaos site
/// first (progress frames bypass this via `write_frame` directly).
fn send(inner: &Inner, writer: &mut TcpStream, resp: &Response) -> io::Result<()> {
    if inner.trip(FaultSite::SlowClient) {
        thread::sleep(SLOW_CLIENT_STALL);
    }
    proto::write_frame(writer, &resp.to_json())
}
