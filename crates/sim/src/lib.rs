//! # tempart-sim
//!
//! Cycle-level execution simulator for temporally partitioned designs on a
//! reconfigurable processor.
//!
//! The paper motivates its objective — minimal inter-partition data
//! transfer — by the cost of reconfiguration and of saving/restoring live
//! data through the scratch memory, but never executes the partitioned
//! designs. This crate closes that loop: [`execute`] replays a
//! [`TemporalSolution`](tempart_core::TemporalSolution) on the
//! [`FpgaDevice`](tempart_graph::FpgaDevice) timing model
//! (`reconfig_cycles` per reconfiguration, `memory_word_cycles` per data
//! word saved or restored) and reports where the cycles went.
//!
//! [`naive_partitioning`] provides the bandwidth-oblivious baseline
//! (topological first-fit packing, the estimator's segments) so examples and
//! the `tables -- simulate` study can quantify how much the ILP's
//! communication minimization buys end to end.
//!
//! ```
//! use tempart_core::{Instance, IlpModel, ModelConfig, SolveOptions};
//! use tempart_graph::{TaskGraphBuilder, OpKind, Bandwidth, ComponentLibrary, FpgaDevice};
//! use tempart_sim::execute;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = TaskGraphBuilder::new("g");
//! let t0 = b.task("t0");
//! let a = b.op(t0, OpKind::Add)?;
//! let m = b.op(t0, OpKind::Mul)?;
//! b.op_edge(a, m)?;
//! let t1 = b.task("t1");
//! b.op(t1, OpKind::Sub)?;
//! b.task_edge(t0, t1, Bandwidth::new(4))?;
//! let lib = ComponentLibrary::date98_default();
//! let fus = lib.exploration_set(&[("add16", 1), ("mul8", 1), ("sub16", 1)])?;
//! let inst = Instance::new(b.build()?, fus, FpgaDevice::xc4010_board())?;
//! let model = IlpModel::build(inst.clone(), ModelConfig::tightened(2, 1))?;
//! let sol = model.solve(&SolveOptions::default())?.solution.expect("feasible");
//! let report = execute(&inst, &sol);
//! assert_eq!(report.reconfigurations, 1); // initial configuration only
//! assert_eq!(report.memory_cycles, 0);    // nothing crosses a boundary
//! # Ok(())
//! # }
//! ```

mod executor;
mod naive;
mod trace;
mod utilization;

pub use executor::{execute, ExecutionReport};
pub use naive::naive_partitioning;
pub use trace::TraceEvent;
pub use utilization::{utilization, FuUsage, PartitionUtilization};
