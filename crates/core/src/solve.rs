//! End-to-end pipeline (paper Figure 2): estimate `N`, compute mobility,
//! build the ILP, solve, and validate.

use tempart_graph::{ExplorationSet, FpgaDevice, TaskGraph};
use tempart_hls::{estimate_partitions, PartitionEstimate};
use tempart_lp::{MipStats, MipStatus};

use crate::config::ModelConfig;
use crate::instance::Instance;
use crate::model::{IlpModel, ModelStats, SolutionSource, SolveOptions, SolveOutcome};
use crate::solution::TemporalSolution;
use crate::CoreError;

/// Options for the end-to-end [`TemporalPartitioner`].
#[derive(Debug, Clone, Default)]
pub struct PartitionerOptions {
    /// Explicit model configuration. When `None`, `N` is estimated with the
    /// list-scheduling heuristic (Figure 2) and the latency relaxation is
    /// swept from 0 to [`Self::max_latency_relaxation`] until feasible.
    pub config: Option<ModelConfig>,
    /// Solver options (branching rule, limits, worker threads, and the
    /// scale-layer switches).
    pub solve: SolveOptions,
    /// Upper bound of the automatic latency sweep (ignored when `config` is
    /// set). Defaults to 3, the largest relaxation the paper explores.
    pub max_latency_relaxation: Option<u32>,
}

/// Result of a successful end-to-end run.
#[derive(Debug, Clone)]
pub struct PartitionerResult {
    solution: TemporalSolution,
    config: ModelConfig,
    estimate: Option<PartitionEstimate>,
    model_stats: ModelStats,
    mip_stats: MipStats,
    status: MipStatus,
    gap: f64,
    source: SolutionSource,
    objective: f64,
    best_bound: f64,
    raw_x: Vec<f64>,
}

impl PartitionerResult {
    /// The reported partitioning and schedule — proven optimal when
    /// [`PartitionerResult::status`] is [`MipStatus::Optimal`], otherwise
    /// the best answer available when a limit fired (anytime semantics).
    pub fn solution(&self) -> &TemporalSolution {
        &self.solution
    }

    /// Solver termination status.
    pub fn status(&self) -> MipStatus {
        self.status
    }

    /// Proven optimality gap (zero when optimal, `+∞` when no finite
    /// bound was proven before a limit fired).
    pub fn gap(&self) -> f64 {
        self.gap
    }

    /// Whether the solution came from the exact search or the heuristic
    /// degradation path.
    pub fn source(&self) -> SolutionSource {
        self.source
    }

    /// The configuration that produced the solution (including the latency
    /// relaxation the automatic sweep settled on).
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The heuristic estimate used for `N` (if automatic).
    pub fn estimate(&self) -> Option<&PartitionEstimate> {
        self.estimate.as_ref()
    }

    /// Size of the solved model.
    pub fn model_stats(&self) -> &ModelStats {
        &self.model_stats
    }

    /// Branch-and-bound statistics.
    pub fn mip_stats(&self) -> &MipStats {
        &self.mip_stats
    }

    /// Claimed objective of the reported solution (communication cost).
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Proven lower bound on the objective at termination.
    pub fn best_bound(&self) -> f64 {
        self.best_bound
    }

    /// The raw incumbent vector behind [`PartitionerResult::solution`], in
    /// the solved model's variable order — the claim `tempart-audit`'s
    /// certificate checker re-verifies (rebuild the model from
    /// [`PartitionerResult::config`] to recover the matching
    /// [`Problem`](tempart_lp::Problem)).
    pub fn raw_x(&self) -> &[f64] {
        &self.raw_x
    }
}

/// The end-to-end temporal partitioning and synthesis system of Figure 2.
///
/// # Examples
///
/// See the crate-level docs of [`tempart`](https://docs.rs/tempart) or
/// `examples/quickstart.rs`.
#[derive(Debug)]
pub struct TemporalPartitioner {
    graph: TaskGraph,
    fus: ExplorationSet,
    device: FpgaDevice,
    options: PartitionerOptions,
}

impl TemporalPartitioner {
    /// Creates a partitioner for one specification.
    pub fn new(graph: TaskGraph, fus: ExplorationSet, device: FpgaDevice) -> Self {
        Self {
            graph,
            fus,
            device,
            options: PartitionerOptions::default(),
        }
    }

    /// Replaces the options.
    #[must_use]
    pub fn options(mut self, options: PartitionerOptions) -> Self {
        self.options = options;
        self
    }

    /// Runs the full pipeline.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Graph`] — the exploration set cannot execute the
    ///   specification.
    /// * [`CoreError::InvalidConfig`] — no feasible solution within the
    ///   explored configurations (the message reports what was tried).
    /// * [`CoreError::Lp`] — unrecoverable solver failure.
    pub fn run(self) -> Result<PartitionerResult, CoreError> {
        let instance = Instance::new(self.graph, self.fus, self.device)?;
        match &self.options.config {
            Some(config) => {
                let (out, stats) = Self::solve_once(&instance, config, &self.options.solve)?;
                match Self::package(out, config.clone(), None, stats) {
                    Some(result) => Ok(result),
                    None => Err(CoreError::InvalidConfig(
                        "the requested configuration is infeasible",
                    )),
                }
            }
            None => {
                let estimate = estimate_partitions(
                    instance.graph(),
                    instance.fus().library(),
                    instance.device(),
                )?;
                let n = estimate.num_partitions;
                let max_l = self.options.max_latency_relaxation.unwrap_or(3);
                for l in 0..=max_l {
                    let config = ModelConfig::tightened(n, l);
                    let (out, stats) = Self::solve_once(&instance, &config, &self.options.solve)?;
                    if let Some(result) = Self::package(out, config, Some(estimate.clone()), stats)
                    {
                        return Ok(result);
                    }
                }
                Err(CoreError::InvalidConfig(
                    "no feasible partitioning within the latency sweep",
                ))
            }
        }
    }

    /// One build+solve.
    fn solve_once(
        instance: &Instance,
        config: &ModelConfig,
        solve: &SolveOptions,
    ) -> Result<(SolveOutcome, ModelStats), CoreError> {
        let model = IlpModel::build(instance.clone(), config.clone())?;
        let stats = model.stats().clone();
        let out = model.solve(solve)?;
        Ok((out, stats))
    }

    /// Wraps a solve outcome that carries a solution (optimal, or the
    /// anytime answer at a limit) into a result; `None` means infeasible
    /// (or unbounded) under this configuration.
    fn package(
        out: SolveOutcome,
        config: ModelConfig,
        estimate: Option<PartitionEstimate>,
        model_stats: ModelStats,
    ) -> Option<PartitionerResult> {
        let solution = out.solution?;
        Some(PartitionerResult {
            solution,
            config,
            estimate,
            model_stats,
            mip_stats: out.stats,
            status: out.status,
            gap: out.gap,
            source: out.source,
            objective: out.objective,
            best_bound: out.best_bound,
            raw_x: out.raw_x,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::tiny_instance;
    use tempart_lp::MipOptions;

    #[test]
    fn auto_pipeline_solves_tiny() {
        let inst = tiny_instance();
        let result = TemporalPartitioner::new(
            inst.graph().clone(),
            inst.fus().clone(),
            inst.device().clone(),
        )
        .run()
        .unwrap();
        assert_eq!(result.solution().communication_cost(), 0);
        assert!(result.estimate().is_some());
        assert!(result.model_stats().num_vars > 0);
        assert!(result.mip_stats().nodes >= 1);
        // Device is large: the estimator proposes a single partition.
        assert_eq!(result.config().num_partitions, 1);
    }

    #[test]
    fn explicit_config_used_verbatim() {
        let inst = tiny_instance();
        let result = TemporalPartitioner::new(
            inst.graph().clone(),
            inst.fus().clone(),
            inst.device().clone(),
        )
        .options(PartitionerOptions {
            config: Some(ModelConfig::tightened(2, 1)),
            ..Default::default()
        })
        .run()
        .unwrap();
        assert_eq!(result.config().num_partitions, 2);
        assert!(result.estimate().is_none());
        assert_eq!(result.solution().communication_cost(), 0);
    }

    #[test]
    fn infeasible_config_reports_error() {
        // A device too small to co-locate the tasks (capacity 80 excludes
        // the multiplier + subtracter together) *and* scratch memory smaller
        // than the edge bandwidth: every assignment is infeasible.
        let inst = tiny_instance();
        let dev = inst
            .device()
            .clone()
            .with_capacity(tempart_graph::FunctionGenerators::new(80))
            .with_scratch_memory(tempart_graph::Bandwidth::new(3));
        let result = TemporalPartitioner::new(inst.graph().clone(), inst.fus().clone(), dev)
            .options(PartitionerOptions {
                config: Some(ModelConfig::tightened(2, 1)),
                solve: SolveOptions {
                    mip: MipOptions::default(),
                    ..Default::default()
                },
                ..Default::default()
            })
            .run();
        assert!(matches!(result, Err(CoreError::InvalidConfig(_))));
    }
}
