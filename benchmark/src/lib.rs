//! # tempart-benchmark
//!
//! The repository benchmark: three workloads driven through the public
//! entry points a caller uses, end-to-end metrics measured untraced, and a
//! per-layer breakdown from a traced run. See `README.md`.

pub mod check;
pub mod gen;
pub mod report;
pub mod solve;
pub mod stats;
pub mod trace;
pub mod workload;
