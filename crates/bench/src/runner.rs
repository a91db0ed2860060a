//! Experiment runner: builds and solves one table row.

use std::time::Instant;

use tempart_core::{CoreError, IlpModel, ModelConfig, RuleKind, SolveOptions};
use tempart_graph::FpgaDevice;
use tempart_lp::{MipStats, MipStatus};

use crate::graphs::{date98_device, date98_instance, date98_scaled_instance};

/// Configuration of one experiment row: the instance, and the solver
/// options it is solved with.
#[derive(Debug, Clone)]
pub struct RowConfig {
    /// Paper graph number (1-based).
    pub graph_no: usize,
    /// Exploration set: (adders, multipliers, subtracters).
    pub ams: (u32, u32, u32),
    /// Formulation variant, partitions `N`, latency relaxation `L`.
    pub config: ModelConfig,
    /// Target device.
    pub device: FpgaDevice,
    /// Instance replication factor: `1` solves the paper graph itself, `k >
    /// 1` the deterministic replicate-and-chain scaled instance
    /// ([`date98_scaled_instance`]) — the kernel tier where basis
    /// maintenance dominates.
    pub scale: usize,
    /// Branching rule, incumbent seeding, and every solver option.
    pub solve: SolveOptions,
}

impl RowConfig {
    /// Graph `graph_no` on the paper's device, unscaled, solved by `rule`
    /// within `time_limit_secs` on the default serial engine and without a
    /// seeded incumbent: the paper's experiments had no warm start, so the
    /// faithful table reproductions run unseeded. Studies change `solve`
    /// for anything else.
    pub fn new(
        graph_no: usize,
        ams: (u32, u32, u32),
        config: ModelConfig,
        rule: RuleKind,
        time_limit_secs: f64,
    ) -> Self {
        let mut solve = SolveOptions {
            rule,
            seed_incumbent: false,
            ..SolveOptions::default()
        };
        solve.mip.time_limit_secs = time_limit_secs;
        Self {
            graph_no,
            ams,
            config,
            device: date98_device(),
            scale: 1,
            solve,
        }
    }
}

/// Result of one experiment row, mirroring the paper's table columns.
#[derive(Debug, Clone)]
pub struct ExperimentRow {
    /// Paper graph number.
    pub graph_no: usize,
    /// Task count of the graph.
    pub tasks: usize,
    /// Operation count of the graph.
    pub opers: usize,
    /// Partitions `N`.
    pub n: u32,
    /// Exploration set.
    pub ams: (u32, u32, u32),
    /// Latency relaxation `L`.
    pub l: u32,
    /// Variable count (paper column `Var`).
    pub vars: usize,
    /// Constraint count (paper column `Const`).
    pub consts: usize,
    /// Constraint-matrix nonzeros — the size axis the kernel study's
    /// per-iteration costs scale with.
    pub nnz: usize,
    /// Wall-clock seconds for the solve.
    pub seconds: f64,
    /// Whether the time limit cut the run short.
    pub timed_out: bool,
    /// Proven feasibility (`None` when the limit struck before a proof or
    /// incumbent).
    pub feasible: Option<bool>,
    /// Optimal (or best incumbent) communication cost.
    pub cost: Option<u64>,
    /// Partitions actually used by the reported solution.
    pub partitions_used: Option<u32>,
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// Total simplex iterations.
    pub lp_iterations: usize,
    /// Branching rule used.
    pub rule: RuleKind,
    /// Full solver statistics: the merged simplex profile (timers populated
    /// only when [`LpOptions::profile`](tempart_lp::LpOptions::profile) was
    /// set), the contention and scale-layer counters, and the per-worker
    /// node counts.
    pub stats: MipStats,
}

impl ExperimentRow {
    /// The paper prints `>limit` for timed-out rows; this renders the
    /// runtime column accordingly.
    pub fn runtime_display(&self, limit: f64) -> String {
        if self.timed_out {
            format!(">{limit:.0}")
        } else {
            format!("{:.2}", self.seconds)
        }
    }

    /// `Yes`/`No`/`?` feasibility column.
    pub fn feasible_display(&self) -> &'static str {
        match self.feasible {
            Some(true) => "Yes",
            Some(false) => "No",
            None => "?",
        }
    }
}

/// Builds and solves one row.
///
/// # Errors
///
/// Propagates model-building and solver errors; a time limit is *not* an
/// error (reported via [`ExperimentRow::timed_out`]).
pub fn run_row(cfg: &RowConfig) -> Result<ExperimentRow, CoreError> {
    let (a, m, s) = cfg.ams;
    let instance = if cfg.scale > 1 {
        date98_scaled_instance(cfg.graph_no, cfg.scale, a, m, s, cfg.device.clone())?
    } else {
        date98_instance(cfg.graph_no, a, m, s, cfg.device.clone())?
    };
    let (tasks, opers) = (instance.graph().num_tasks(), instance.graph().num_ops());
    let model = IlpModel::build(instance, cfg.config.clone())?;
    let stats = model.stats().clone();
    let nnz = model
        .problem()
        .rows_for_export()
        .map(|r| r.coeffs.len())
        .sum();
    let started = Instant::now();
    let out = model.solve(&cfg.solve)?;
    let seconds = started.elapsed().as_secs_f64();
    let timed_out = matches!(out.status, MipStatus::TimeLimit | MipStatus::NodeLimit);
    let (feasible, cost) = match out.status {
        MipStatus::Optimal => (
            Some(true),
            Some(
                out.solution
                    .as_ref()
                    .expect("optimal has solution")
                    .communication_cost(),
            ),
        ),
        MipStatus::Infeasible => (Some(false), None),
        _ => (
            out.solution.is_some().then_some(true),
            out.solution.as_ref().map(|s| s.communication_cost()),
        ),
    };
    let partitions_used = out.solution.as_ref().map(|s| s.partitions_used());
    Ok(ExperimentRow {
        graph_no: cfg.graph_no,
        tasks,
        opers,
        n: cfg.config.num_partitions,
        ams: cfg.ams,
        l: cfg.config.latency_relaxation,
        vars: stats.num_vars,
        consts: stats.num_constraints,
        nnz,
        seconds,
        timed_out,
        feasible,
        cost,
        partitions_used,
        nodes: out.stats.nodes,
        lp_iterations: out.stats.lp_iterations,
        rule: cfg.solve.rule,
        stats: out.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_runs_graph1() {
        // Small time budget: this is a smoke test of the row plumbing, not a
        // benchmark; debug-mode solves of graph 1 can take a while.
        let mut cfg = RowConfig::new(
            1,
            (2, 2, 1),
            ModelConfig::tightened(2, 3),
            RuleKind::Paper,
            10.0,
        );
        cfg.solve.seed_incumbent = true;
        let row = run_row(&cfg).unwrap();
        assert_eq!(row.tasks, 5);
        assert_eq!(row.opers, 22);
        assert!(row.vars > 0 && row.consts > 0);
        assert!(row.nodes >= 1);
        if !row.timed_out {
            assert!(row.feasible.is_some());
        }
        assert!(!row.runtime_display(120.0).is_empty());
        assert!(!row.feasible_display().is_empty());
    }
}
