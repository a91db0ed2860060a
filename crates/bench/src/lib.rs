//! # tempart-bench
//!
//! Benchmark harness for the `tempart` reproduction of Kaul & Vemuri (DATE
//! 1998): the paper's six random task graphs, the experiment runner, the
//! report formatting that regenerates Tables 1–4 plus the ablation and
//! simulation studies, and [`report::Report`], the one emitter of the
//! `BENCH_*.json` files.
//!
//! Regenerate everything with:
//!
//! ```text
//! cargo run --release -p tempart-bench --bin tables -- all
//! ```
//!
//! or pick one experiment: `table1`, `table2`, `table3`, `table4`,
//! `ablation`, `simulate`, `kernel`, `scale`. The binary exits non-zero
//! when an experiment name is unknown, a row errors, a bar fails, or a file
//! cannot be written.

pub mod graphs;
pub mod kernels;
pub mod report;
pub mod runner;

pub use graphs::{date98_device, date98_instance, date98_scaled_instance, paper_graph, GraphSpec};
pub use runner::{paper_engine, run_row, ExperimentRow, RowConfig};
