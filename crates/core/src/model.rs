//! Model assembly, solving, and solution extraction.

use std::fmt;

use tempart_graph::{ControlStep, PartitionIndex};
use tempart_hls::{Mobility, Schedule};
use tempart_lp::{
    BranchAndBound, FirstIndexRule, MipOptions, MipStats, MipStatus, MostFractionalRule, Problem,
};

use crate::branching::paper_rule;
use crate::config::ModelConfig;
use crate::constraints::{
    csteps, memory, partitioning, resource, symmetry, synthesis, tighten, usage,
};
use crate::instance::Instance;
use crate::objective::set_objective;
use crate::solution::TemporalSolution;
use crate::vars::VarMap;
use crate::CoreError;

/// Size statistics of a built model, matching the paper's `Var`/`Const`
/// table columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelStats {
    /// Total variables (binaries + continuous products).
    pub num_vars: usize,
    /// Binary variables among them.
    pub num_binaries: usize,
    /// Total constraint rows.
    pub num_constraints: usize,
    /// Rows per constraint family, in generation order.
    pub families: Vec<(&'static str, usize)>,
}

impl fmt::Display for ModelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} vars ({} binary), {} constraints",
            self.num_vars, self.num_binaries, self.num_constraints
        )
    }
}

/// Which branching rule to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleKind {
    /// The paper's §8 guided heuristic (topological `y`, then `u`, branch
    /// to 1 first).
    Paper,
    /// Lowest-index fractional binary — the deterministic stand-in for an
    /// unguided solver default (Tables 1–2).
    FirstIndex,
    /// Most-fractional binary.
    MostFractional,
}

impl fmt::Display for RuleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RuleKind::Paper => "paper-s8",
            RuleKind::FirstIndex => "first-index",
            RuleKind::MostFractional => "most-fractional",
        })
    }
}

/// Options for one solve.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Branch-and-bound options. `objective_is_integral` is forced on —
    /// bandwidths are integers.
    pub mip: MipOptions,
    /// Branching rule.
    pub rule: RuleKind,
    /// Seed the search with the greedy constructive incumbent
    /// ([`crate::heuristic::heuristic_solution`]); never affects the proven
    /// optimum, only how fast bad subtrees are pruned.
    pub seed_incumbent: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self {
            mip: MipOptions::default(),
            rule: RuleKind::Paper,
            seed_incumbent: true,
        }
    }
}

/// Where a reported solution came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolutionSource {
    /// Produced by the branch-and-bound search (optimal when the status
    /// says so, else the best incumbent at the limit).
    Exact,
    /// The Figure-2 list-scheduling heuristic, used as the anytime answer
    /// when a limit fired before the search found any incumbent.
    Heuristic,
}

impl SolutionSource {
    /// Stable lower-case name (CLI/JSON reports).
    pub fn as_str(self) -> &'static str {
        match self {
            SolutionSource::Exact => "exact",
            SolutionSource::Heuristic => "heuristic",
        }
    }
}

impl fmt::Display for SolutionSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Result of solving a built model.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// Solver status (optimal / infeasible / hit a limit).
    pub status: MipStatus,
    /// The extracted, semantically validated solution, when one exists.
    pub solution: Option<TemporalSolution>,
    /// Objective value of the solution (`+∞` if none).
    pub objective: f64,
    /// Where the solution came from (exact search or the heuristic
    /// degradation path).
    pub source: SolutionSource,
    /// Proven optimality gap `objective − best_bound`: zero when optimal,
    /// `+∞` when no finite bound was proven before a limit fired.
    pub gap: f64,
    /// The proven lower bound on the objective.
    pub best_bound: f64,
    /// Search statistics.
    pub stats: MipStats,
    /// The raw 0-1 assignment behind [`SolveOutcome::solution`], in the
    /// model's variable order — the incumbent the solver actually returned
    /// (or the encoded heuristic on the degradation path). Empty when there
    /// is no solution. This is what `tempart-audit -- certify` re-verifies
    /// in exact arithmetic.
    pub raw_x: Vec<f64>,
}

/// A fully built ILP for one instance and configuration.
///
/// # Examples
///
/// ```
/// use tempart_core::{Instance, IlpModel, ModelConfig, SolveOptions};
/// use tempart_graph::{TaskGraphBuilder, OpKind, Bandwidth, ComponentLibrary, FpgaDevice};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = TaskGraphBuilder::new("two-task");
/// let t0 = b.task("t0");
/// let a = b.op(t0, OpKind::Add)?;
/// let m = b.op(t0, OpKind::Mul)?;
/// b.op_edge(a, m)?;
/// let t1 = b.task("t1");
/// b.op(t1, OpKind::Sub)?;
/// b.task_edge(t0, t1, Bandwidth::new(4))?;
/// let lib = ComponentLibrary::date98_default();
/// let fus = lib.exploration_set(&[("add16", 1), ("mul8", 1), ("sub16", 1)])?;
/// let inst = Instance::new(b.build()?, fus, FpgaDevice::xc4010_board())?;
///
/// let model = IlpModel::build(inst, ModelConfig::tightened(2, 0))?;
/// let out = model.solve(&SolveOptions::default())?;
/// let sol = out.solution.expect("feasible");
/// assert_eq!(sol.communication_cost(), 0); // both tasks fit in one partition
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct IlpModel {
    instance: Instance,
    config: ModelConfig,
    mobility: Mobility,
    problem: Problem,
    vars: VarMap,
    stats: ModelStats,
}

impl IlpModel {
    /// Builds the full constraint system for `instance` under `config`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidConfig`] — unusable configuration.
    /// * [`CoreError::Lp`] — a malformed coefficient (indicates a bug).
    pub fn build(instance: Instance, config: ModelConfig) -> Result<Self, CoreError> {
        config.check()?;
        let mobility = Mobility::compute_with(instance.graph(), instance.fus());
        let mut problem = Problem::new(format!(
            "tempart[{},N{},L{}]",
            instance.graph().name(),
            config.num_partitions,
            config.latency_relaxation
        ));
        let vars = VarMap::build(&instance, &config, &mobility, &mut problem)?;
        let mut families: Vec<(&'static str, usize)> = Vec::new();
        families.push((
            "uniqueness (1)",
            partitioning::add_uniqueness(&instance, &vars, &mut problem)?,
        ));
        families.push((
            "temporal order (2)",
            partitioning::add_temporal_order(&instance, &vars, &mut problem)?,
        ));
        families.push((
            "memory capacity (3)",
            memory::add_memory_capacity(&instance, &vars, &mut problem)?,
        ));
        families.push((
            "w definition (4-5)/(31)",
            memory::add_w_definition(&instance, &config, &vars, &mut problem)?,
        ));
        families.push((
            "unique assignment (6)",
            synthesis::add_unique_assignment(&instance, &vars, &mut problem)?,
        ));
        families.push((
            "fu exclusivity (7)",
            synthesis::add_fu_exclusivity(&instance, &vars, &mut problem)?,
        ));
        families.push((
            "dependencies (8)",
            synthesis::add_dependencies(&instance, &vars, &mut problem)?,
        ));
        families.push((
            "o definition (26-27)",
            usage::add_o_definition(&instance, &vars, &mut problem)?,
        ));
        families.push((
            "usage products (19-23)",
            usage::add_usage_products(&instance, &config, &vars, &mut problem)?,
        ));
        families.push((
            "resource capacity (11)",
            resource::add_resource_capacity(&instance, &vars, &mut problem)?,
        ));
        families.push((
            "cstep occupancy (12)",
            csteps::add_cstep_occupancy(&instance, &vars, &mut problem)?,
        ));
        families.push((
            "cstep uniqueness (13)",
            match config.cstep_encoding {
                crate::config::CstepEncoding::Pairwise => {
                    csteps::add_cstep_uniqueness(&instance, &vars, &mut problem)?
                }
                crate::config::CstepEncoding::Compact => {
                    csteps::add_cstep_uniqueness_compact(&instance, &vars, &mut problem)?
                }
            },
        ));
        families.push((
            "cuts (28-30,32)",
            tighten::add_cuts(&instance, &config.cuts, &vars, &mut problem)?,
        ));
        if config.symmetry_breaking {
            families.push((
                "fu symmetry (ext)",
                symmetry::add_fu_symmetry(&instance, &vars, &mut problem)?,
            ));
        }
        set_objective(&instance, &vars, &mut problem)?;
        let stats = ModelStats {
            num_vars: problem.num_vars(),
            num_binaries: problem.num_binaries(),
            num_constraints: problem.num_rows(),
            families,
        };
        Ok(Self {
            instance,
            config,
            mobility,
            problem,
            vars,
            stats,
        })
    }

    /// The instance being solved.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The active configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Model size statistics (the paper's `Var`/`Const` columns).
    pub fn stats(&self) -> &ModelStats {
        &self.stats
    }

    /// The underlying LP/MIP problem (read access for diagnostics).
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// Solves the model by branch and bound.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Lp`] — unrecoverable solver failure.
    /// * [`CoreError::InvalidSolution`] — the extracted solution failed
    ///   semantic validation (formulation/solver bug; never expected).
    pub fn solve(&self, options: &SolveOptions) -> Result<SolveOutcome, CoreError> {
        let mut mip = options.mip.clone();
        mip.objective_is_integral = true;
        if options.seed_incumbent && mip.initial_incumbent.is_none() {
            if let Some(h) = crate::heuristic::heuristic_solution(&self.instance, &self.config) {
                mip.initial_incumbent = self.encode_solution(&h);
            }
        }
        let bb = BranchAndBound::new(&self.problem).options(mip);
        let bb = match options.rule {
            RuleKind::Paper => bb.rule(paper_rule(&self.vars, &self.problem)),
            RuleKind::FirstIndex => bb.rule(FirstIndexRule),
            RuleKind::MostFractional => bb.rule(MostFractionalRule),
        };
        let mip_out = bb.solve().map_err(CoreError::Lp)?;
        let mut source = SolutionSource::Exact;
        let mut objective = mip_out.objective;
        let mut raw_x = mip_out.x.clone();
        let mut solution = if mip_out.x.is_empty() {
            None
        } else {
            let sol = self.extract_solution(&mip_out.x)?;
            sol.validate(&self.instance, &self.config)?;
            Some(sol)
        };
        if solution.is_none()
            && mip_out.status.may_have_solution()
            && mip_out.status != MipStatus::Optimal
        {
            // Anytime degradation: a limit fired before the search found
            // any incumbent. Fall back to the Figure-2 list-scheduling
            // heuristic so the caller still gets a feasible partitioning,
            // tagged with its source and an honest (possibly infinite) gap.
            if let Some(h) = crate::heuristic::heuristic_solution(&self.instance, &self.config) {
                if h.validate(&self.instance, &self.config).is_ok() {
                    objective = h.communication_cost() as f64;
                    raw_x = self.encode_solution(&h).unwrap_or_default();
                    solution = Some(h);
                    source = SolutionSource::Heuristic;
                }
            }
        }
        let gap = match (&solution, mip_out.status) {
            (_, MipStatus::Optimal) => 0.0,
            (Some(_), _) if mip_out.best_bound.is_finite() => {
                (objective - mip_out.best_bound).max(0.0)
            }
            _ => f64::INFINITY,
        };
        Ok(SolveOutcome {
            status: mip_out.status,
            solution,
            objective,
            source,
            gap,
            best_bound: mip_out.best_bound,
            stats: mip_out.stats,
            raw_x,
        })
    }

    /// Decodes a 0-1 solution vector into a [`TemporalSolution`].
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidSolution`] if `x` is not a complete integral
    /// solution of this model (some task without a partition or operation
    /// without an assignment) — a solver bug surfaced as a recoverable
    /// error instead of a panic.
    pub fn extract_solution(&self, x: &[f64]) -> Result<TemporalSolution, CoreError> {
        let graph = self.instance.graph();
        let assignment: Vec<PartitionIndex> = graph
            .tasks()
            .iter()
            .map(|task| {
                let row = &self.vars.y[task.id().index()];
                let p = row
                    .iter()
                    .position(|&v| x[v.index()] > 0.5)
                    .ok_or_else(|| {
                        CoreError::InvalidSolution(format!(
                            "task `{}` has no partition in the solution vector",
                            task.name()
                        ))
                    })?;
                Ok(PartitionIndex::new(p as u32))
            })
            .collect::<Result<_, CoreError>>()?;
        let mut schedule = Schedule::new();
        for op in graph.ops() {
            let &(j, k, _) = self.vars.x_of_op[op.id().index()]
                .iter()
                .find(|&&(_, _, v)| x[v.index()] > 0.5)
                .ok_or_else(|| {
                    CoreError::InvalidSolution(format!(
                        "operation {:?} has no schedule assignment in the solution vector",
                        op.id()
                    ))
                })?;
            schedule.assign(op.id(), ControlStep(j), k);
        }
        // Communication cost recomputed from the assignment (ground truth).
        let n = self.config.num_partitions;
        let mut cost = 0u64;
        for edge in graph.task_edges() {
            let p1 = assignment[edge.from.index()].0;
            let p2 = assignment[edge.to.index()].0;
            for b in 1..n {
                if p1 < b && p2 >= b {
                    cost += edge.bandwidth.units();
                }
            }
        }
        Ok(TemporalSolution::new(assignment, schedule, cost))
    }

    /// The mobility analysis used for the variable windows.
    pub fn mobility(&self) -> &Mobility {
        &self.mobility
    }

    /// Encodes a semantically valid [`TemporalSolution`] as a full variable
    /// assignment of this model (used to seed the branch and bound with a
    /// heuristic incumbent). Returns `None` if the solution cannot be
    /// expressed — e.g. an operation scheduled outside its mobility window.
    ///
    /// The binding is first normalized so identical functional-unit
    /// instances appear in descending-load order, matching the symmetry
    /// rows.
    pub fn encode_solution(&self, sol: &TemporalSolution) -> Option<Vec<f64>> {
        let graph = self.instance.graph();
        let fus = self.instance.fus();
        let n = self.config.num_partitions;
        // --- normalize identical-unit loads -----------------------------
        let mut load = vec![0usize; fus.num_instances()];
        for op in graph.ops() {
            load[sol.schedule().get(op.id())?.fu.index()] += 1;
        }
        let mut remap: Vec<tempart_graph::FuId> = (0..fus.num_instances())
            .map(|k| tempart_graph::FuId::new(k as u32))
            .collect();
        let mut start = 0;
        while start < fus.num_instances() {
            let ty = fus.instances()[start].ty();
            let mut end = start + 1;
            while end < fus.num_instances() && fus.instances()[end].ty() == ty {
                end += 1;
            }
            // Sort this identical run by load descending (stable on id).
            let mut ids: Vec<usize> = (start..end).collect();
            ids.sort_by_key(|&k| std::cmp::Reverse(load[k]));
            for (pos, &old) in ids.iter().enumerate() {
                remap[old] = tempart_graph::FuId::new((start + pos) as u32);
            }
            start = end;
        }
        // --- fill the assignment ----------------------------------------
        let mut x = vec![0.0f64; self.problem.num_vars()];
        for (t, p) in sol.assignment().iter().enumerate() {
            x[self.vars.y[t][p.index()].index()] = 1.0;
        }
        for op in graph.ops() {
            let a = sol.schedule().get(op.id())?;
            let fu = remap[a.fu.index()];
            let var = self.vars.x.get(&(op.id(), a.step.0, fu))?;
            x[var.index()] = 1.0;
            // c[t][j] across the unit's full latency span (constraint (12)).
            for j in a.step.0..a.step.0 + fus.latency(fu) {
                x[self.vars.c[op.task().index()][j as usize].index()] = 1.0;
            }
            // o[t][k]
            x[self.vars.o[op.task().index()][fu.index()].index()] = 1.0;
        }
        // u and z from y ∧ o.
        for t in 0..graph.num_tasks() {
            let p = sol.assignment()[t].index();
            for k in 0..fus.num_instances() {
                if x[self.vars.o[t][k].index()] > 0.5 {
                    x[self.vars.u[p][k].index()] = 1.0;
                    x[self.vars.z[p][t][k].index()] = 1.0;
                }
            }
        }
        // g (compact encoding): partition owning each occupied step.
        if !self.vars.g.is_empty() {
            for op in graph.ops() {
                let a = sol.schedule().get(op.id())?;
                let fu = remap[a.fu.index()];
                let p = sol.assignment()[op.task().index()].index();
                for j in a.step.0..a.step.0 + fus.latency(fu) {
                    x[self.vars.g[j as usize][p].index()] = 1.0;
                }
            }
        }
        // w and, in per-product mode, v.
        for (e, edge) in graph.task_edges().iter().enumerate() {
            let p1 = sol.assignment()[edge.from.index()].0;
            let p2 = sol.assignment()[edge.to.index()].0;
            for b in 1..n {
                if p1 < b && p2 >= b {
                    x[self.vars.w_at(b, e).index()] = 1.0;
                }
            }
            if let Some(&v) = self.vars.v.get(&(e, p1, p2)) {
                x[v.index()] = 1.0;
            }
        }
        Some(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{tiny_instance, tiny_instance_with_memory};

    #[test]
    fn build_reports_stats() {
        let model = IlpModel::build(tiny_instance(), ModelConfig::tightened(2, 1)).unwrap();
        let s = model.stats();
        assert!(s.num_vars > 0);
        assert!(s.num_binaries > 0);
        assert!(s.num_constraints > 0);
        assert_eq!(
            s.num_constraints,
            s.families.iter().map(|&(_, c)| c).sum::<usize>()
        );
        assert!(s.to_string().contains("vars"));
        assert_eq!(model.config().num_partitions, 2);
    }

    #[test]
    fn tiny_instance_optimal_is_single_partition() {
        let model = IlpModel::build(tiny_instance(), ModelConfig::tightened(2, 1)).unwrap();
        let out = model.solve(&SolveOptions::default()).unwrap();
        assert_eq!(out.status, MipStatus::Optimal);
        assert_eq!(out.source, SolutionSource::Exact);
        assert_eq!(out.gap, 0.0);
        let sol = out.solution.unwrap();
        assert_eq!(sol.communication_cost(), 0);
        assert_eq!(sol.partitions_used(), 1);
    }

    #[test]
    fn faults_limit_without_incumbent_degrades_to_heuristic() {
        // A 1-pivot LP budget with no seeded incumbent: the search stops
        // before finding anything, and solve() must degrade to the Figure-2
        // list-scheduling heuristic instead of returning nothing.
        let model = IlpModel::build(tiny_instance(), ModelConfig::tightened(2, 1)).unwrap();
        let mut options = SolveOptions {
            seed_incumbent: false,
            ..SolveOptions::default()
        };
        options.mip.max_lp_iterations = 1;
        let out = model.solve(&options).unwrap();
        assert_eq!(out.status, MipStatus::TimeLimit);
        assert_eq!(out.source, SolutionSource::Heuristic);
        let sol = out.solution.expect("anytime answer");
        sol.validate(model.instance(), model.config()).unwrap();
        assert!(out.gap >= 0.0, "gap {} must be reported", out.gap);
        assert_eq!(out.objective, sol.communication_cost() as f64);
    }

    #[test]
    fn forced_split_pays_bandwidth() {
        // Horizon without relaxation is exactly the critical path (3 steps),
        // too tight for two partitions of this chain; with L = 1 a split is
        // possible but costs the edge bandwidth. Force a split by shrinking
        // the device so t0's multiplier and t1's subtracter cannot coexist.
        let inst = tiny_instance_with_memory(100);
        let dev = inst.device().clone().with_capacity(
            // alpha 0.7: mul(96)+add(18) = 114*0.7 = 79.8 fits in 80, adding
            // sub(18) = 132*0.7 = 92.4 does not.
            tempart_graph::FunctionGenerators::new(80),
        );
        let inst = Instance::new(inst.graph().clone(), inst.fus().clone(), dev).unwrap();
        let model = IlpModel::build(inst, ModelConfig::tightened(2, 1)).unwrap();
        let out = model.solve(&SolveOptions::default()).unwrap();
        assert_eq!(out.status, MipStatus::Optimal);
        let sol = out.solution.unwrap();
        assert_eq!(sol.partitions_used(), 2);
        assert_eq!(sol.communication_cost(), 4);
    }

    #[test]
    fn infeasible_when_memory_too_small_for_required_split() {
        // Same forced split, but scratch memory below the edge bandwidth.
        let inst = tiny_instance_with_memory(3);
        let dev = inst
            .device()
            .clone()
            .with_capacity(tempart_graph::FunctionGenerators::new(80));
        let inst = Instance::new(inst.graph().clone(), inst.fus().clone(), dev).unwrap();
        let model = IlpModel::build(inst, ModelConfig::tightened(2, 1)).unwrap();
        let out = model.solve(&SolveOptions::default()).unwrap();
        assert_eq!(out.status, MipStatus::Infeasible);
        assert!(out.solution.is_none());
    }

    #[test]
    fn all_rules_reach_same_optimum() {
        for rule in [
            RuleKind::Paper,
            RuleKind::FirstIndex,
            RuleKind::MostFractional,
        ] {
            let model = IlpModel::build(tiny_instance(), ModelConfig::tightened(2, 1)).unwrap();
            let out = model
                .solve(&SolveOptions {
                    rule,
                    ..Default::default()
                })
                .unwrap();
            assert_eq!(out.status, MipStatus::Optimal, "rule {rule}");
            assert_eq!(out.solution.unwrap().communication_cost(), 0, "rule {rule}");
        }
    }

    #[test]
    fn encoded_heuristic_incumbent_is_lp_feasible() {
        // The encoded point must satisfy every generated row, including the
        // latency-spanning occupancy rows — for both unit-latency and
        // multicycle exploration sets.
        for extended in [false, true] {
            let inst = if extended {
                let mut b = tempart_graph::TaskGraphBuilder::new("mc");
                let t0 = b.task("t0");
                let m = b.op(t0, tempart_graph::OpKind::Mul).unwrap();
                let a = b.op(t0, tempart_graph::OpKind::Add).unwrap();
                b.op_edge(m, a).unwrap();
                let t1 = b.task("t1");
                b.op(t1, tempart_graph::OpKind::Mul).unwrap();
                b.task_edge(t0, t1, tempart_graph::Bandwidth::new(2))
                    .unwrap();
                let lib = tempart_graph::ComponentLibrary::date98_extended();
                let fus = lib.exploration_set(&[("add16", 1), ("mul8s", 1)]).unwrap();
                Instance::new(
                    b.build().unwrap(),
                    fus,
                    tempart_graph::FpgaDevice::xc4010_board(),
                )
                .unwrap()
            } else {
                tiny_instance()
            };
            let config = ModelConfig::tightened(2, 2);
            let model = IlpModel::build(inst.clone(), config.clone()).unwrap();
            let Some(h) = crate::heuristic::heuristic_solution(&inst, &config) else {
                panic!("heuristic must find something on a roomy board");
            };
            let x = model
                .encode_solution(&h)
                .expect("heuristic solutions encode");
            assert_eq!(
                model
                    .problem()
                    .first_violated(&x, 1e-6)
                    .map(|r| model.problem().row_name(r).to_string()),
                None,
                "extended={extended}"
            );
        }
    }

    #[test]
    fn basic_and_tightened_agree() {
        let a = IlpModel::build(tiny_instance(), ModelConfig::basic(2, 1))
            .unwrap()
            .solve(&SolveOptions::default())
            .unwrap();
        let b = IlpModel::build(tiny_instance(), ModelConfig::tightened(2, 1))
            .unwrap()
            .solve(&SolveOptions::default())
            .unwrap();
        assert_eq!(a.status, MipStatus::Optimal);
        assert_eq!(b.status, MipStatus::Optimal);
        assert_eq!(
            a.solution.unwrap().communication_cost(),
            b.solution.unwrap().communication_cost()
        );
    }
}
