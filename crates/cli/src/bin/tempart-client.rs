//! `tempart-client` — submit solve jobs to a running `tempart-server`.
//!
//! ```text
//! tempart-client <host:port> solve <spec.json>
//!                [--partitions N] [--latency L]
//!                [--time-limit SECS] [--node-limit N] [--pivot-limit P]
//!                [--threads T] [--cuts] [--propagate]
//!                [--branching rule|pseudocost]
//!                [--progress] [--warm-start] [--json]
//! tempart-client <host:port> ping
//! tempart-client <host:port> shutdown
//! ```
//!
//! One connection, one job: the client frames a `solve` request
//! (`tempart_cli::proto` wire format — 4-byte big-endian length prefix +
//! JSON), then prints every `progress` frame as it streams and the terminal
//! `result` frame at the end. `--json` echoes the raw response payloads
//! instead of the human-readable rendering, one JSON document per line.
//!
//! Exit code: 0 for any truthful terminal status (including `rejected` —
//! the refusal *is* the answer under load shedding), 1 for transport or
//! protocol failures.

use std::net::TcpStream;
use std::process::ExitCode;

use tempart_cli::proto::{read_frame, write_frame, Request, Response, SolveParams};
use tempart_cli::SpecFile;

struct Args {
    addr: String,
    command: String,
    spec_path: Option<String>,
    params: SolveParams,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let addr = it.next().ok_or("missing <host:port>")?;
    let command = it.next().ok_or("missing command (solve, ping, shutdown)")?;
    let mut args = Args {
        addr,
        command,
        spec_path: None,
        params: SolveParams::default(),
        json: false,
    };
    let mut partitions: Option<u32> = None;
    let mut latency: Option<u32> = None;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--partitions" | "-n" => {
                partitions = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--partitions takes a number")?,
                )
            }
            "--latency" | "-l" => {
                latency = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--latency takes a number")?,
                )
            }
            "--limit" | "--time-limit" => {
                args.params.time_limit_secs = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--time-limit takes seconds")?,
                )
            }
            "--node-limit" => {
                args.params.node_limit = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--node-limit takes a node count")?,
                )
            }
            "--pivot-limit" => {
                args.params.pivot_limit = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--pivot-limit takes a pivot count")?,
                )
            }
            "--threads" | "-j" => {
                args.params.threads = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--threads takes a worker count")?,
                )
            }
            "--cuts" => args.params.cuts = Some(true),
            "--propagate" => args.params.propagate = Some(true),
            "--branching" => {
                args.params.branching =
                    Some(it.next().ok_or("--branching takes rule or pseudocost")?)
            }
            "--progress" => args.params.progress = true,
            "--warm-start" => args.params.warm_start = true,
            "--json" => args.json = true,
            other if args.spec_path.is_none() && !other.starts_with('-') => {
                args.spec_path = Some(other.to_string())
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if let Some(n) = partitions {
        args.params.config = Some((n, latency.unwrap_or(0)));
    } else if latency.is_some() {
        return Err("--latency requires --partitions (the sweep picks L itself)".to_string());
    }
    Ok(args)
}

fn print_response(resp: &Response) {
    match resp {
        Response::Accepted { job } => println!("accepted: job {job}"),
        Response::Rejected { reason } => println!("rejected: {reason}"),
        Response::Progress {
            job,
            incumbent,
            bound,
            updates,
        } => {
            let fmt = |v: &Option<f64>| match v {
                Some(x) => format!("{x}"),
                None => "-".to_string(),
            };
            println!(
                "progress: job {job}, incumbent {}, bound {}, {updates} updates",
                fmt(incumbent),
                fmt(bound)
            );
        }
        Response::Result { job, summary } => {
            println!(
                "result: job {job}, status {}, objective {}, bound {}, {} nodes, {} pivots, \
                 source {}, cache {}{}, {:.3}s",
                summary.status,
                summary
                    .objective
                    .map_or("-".to_string(), |v| format!("{v}")),
                summary
                    .best_bound
                    .map_or("-".to_string(), |v| format!("{v}")),
                summary.nodes,
                summary.lp_iterations,
                summary.source,
                summary.cache,
                if summary.requeued { ", requeued" } else { "" },
                summary.seconds
            );
        }
        Response::Pong => println!("pong"),
        Response::Draining => println!("draining: server is finishing in-flight jobs"),
        Response::Error { reason } => println!("protocol error: {reason}"),
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let request = match args.command.as_str() {
        "ping" => Request::Ping,
        "shutdown" => Request::Shutdown,
        "solve" => {
            let path = args.spec_path.as_ref().ok_or("missing <spec.json>")?;
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let spec = SpecFile::from_json(&text).map_err(|e| e.to_string())?;
            Request::Solve {
                spec,
                params: args.params.clone(),
            }
        }
        other => return Err(format!("unknown command `{other}` (solve, ping, shutdown)")),
    };
    let mut stream = TcpStream::connect(&args.addr)
        .map_err(|e| format!("cannot connect to {}: {e}", args.addr))?;
    // Frames are latency-bound request/response traffic: no Nagle delay.
    let _ = stream.set_nodelay(true);
    write_frame(&mut stream, &request.to_json()).map_err(|e| format!("send failed: {e}"))?;
    loop {
        let Some(payload) = read_frame(&mut stream).map_err(|e| format!("receive failed: {e}"))?
        else {
            // The loop returns on every terminal frame, so EOF here means
            // the server vanished with the answer still owed — a transport
            // failure even when the close is clean.
            return Err("connection closed before a terminal frame".to_string());
        };
        let resp = Response::from_json(&payload)?;
        if args.json {
            println!("{payload}");
        } else {
            print_response(&resp);
        }
        match resp {
            // Terminal frames: one request, one answer.
            Response::Result { .. }
            | Response::Rejected { .. }
            | Response::Pong
            | Response::Draining => return Ok(()),
            Response::Error { reason } => return Err(format!("protocol error: {reason}")),
            Response::Accepted { .. } | Response::Progress { .. } => {}
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: tempart-client <host:port> <solve|ping|shutdown> [spec.json] \
                 [--partitions N] [--latency L] [--time-limit SECS] [--node-limit N] \
                 [--pivot-limit P] [--threads T] [--cuts] [--propagate] \
                 [--branching rule|pseudocost] [--progress] [--warm-start] [--json]"
            );
            ExitCode::FAILURE
        }
    }
}
