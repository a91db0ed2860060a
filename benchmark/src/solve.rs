//! The in-process solve path of `tempart solve --partitions N --latency L
//! --node-limit C --certify`, timed layer by layer from the benchmark's
//! side of each public call.

use std::sync::Arc;

use tempart_audit::certify::{certify, Certificate, CertifyOptions};
use tempart_cli::SpecFile;
use tempart_core::{IlpModel, ModelConfig, RuleKind, SolveOptions};
use tempart_lp::{Budget, MipOptions, MipStatus};

use crate::trace::{Tally, Tracer};

/// Wall-clock safety deadline of one in-process solve, in seconds. It must
/// never bind: the node cap is the search budget, and a solve stopped by
/// this deadline counts as a failure.
pub const SAFETY_DEADLINE_SECS: f64 = 60.0;

/// How one attempt ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A proven optimum whose solution passed the exact certificate check.
    Optimal(u64),
    /// A proven infeasibility.
    Infeasible,
    /// The node cap stopped the search: a certified answer that is not
    /// proven optimal, or no answer at all (a truthful limit status, not a
    /// failure).
    Capped(Option<u64>),
    /// An error, a rejected certificate, a pinned-answer mismatch, a bound
    /// safety deadline, or a refused or lost service job.
    Failed(String),
}

impl Outcome {
    /// A certified optimum or a proven infeasibility.
    pub fn proven(&self) -> bool {
        matches!(self, Outcome::Optimal(_) | Outcome::Infeasible)
    }

    /// Counted in `fail_frac`.
    pub fn failed(&self) -> bool {
        matches!(self, Outcome::Failed(_))
    }

    /// The answer in pinned form: `Some(None)` for infeasible, `Some(cost)`
    /// for a solution, `None` when nothing was answered.
    pub fn answer(&self) -> Option<Option<u64>> {
        match self {
            Outcome::Optimal(c) | Outcome::Capped(Some(c)) => Some(Some(*c)),
            Outcome::Infeasible => Some(None),
            Outcome::Capped(None) | Outcome::Failed(_) => None,
        }
    }

    /// `self`, or a failure when it misses the `pinned` answer.
    pub fn pinned_to(self, pinned: Option<Option<u64>>) -> Outcome {
        match pinned {
            Some(want) if !self.failed() && self.answer() != Some(want) => {
                Outcome::Failed(format!("pinned answer {want:?}, got {:?}", self.answer()))
            }
            _ => self,
        }
    }
}

/// One solve request: a specification as JSON text and the explicit model
/// configuration it is solved under.
#[derive(Debug, Clone)]
pub struct Request {
    /// Stream position (span id of the request).
    pub id: u64,
    /// The specification exactly as a caller hands it over.
    pub json: String,
    /// Partitions `N`.
    pub partitions: u32,
    /// Latency relaxation `L`.
    pub latency: u32,
    /// Branch-and-bound node cap.
    pub node_limit: usize,
    /// The answer this request must return (`Some(None)` = infeasible), if
    /// pinned.
    pub pinned: Option<Option<u64>>,
}

/// Runs one request through parse → build → solve → certify, recording a
/// span per layer and the counters each call returns.
pub fn run(req: &Request, tracer: &mut Tracer, tally: &mut Tally) -> Outcome {
    let root = tracer.open("request", None, req.id);
    let outcome = stages(req, tracer, tally, root);
    tracer.close(root);
    outcome.pinned_to(req.pinned)
}

fn stages(req: &Request, tracer: &mut Tracer, tally: &mut Tally, root: usize) -> Outcome {
    let span = tracer.open("cli.parse", Some(root), req.id);
    let instance = SpecFile::from_json(&req.json).and_then(|s| s.build_instance());
    tracer.close(span);
    let instance = match instance {
        Ok(i) => i,
        Err(e) => return Outcome::Failed(format!("spec rejected: {e}")),
    };

    let span = tracer.open("core.build", Some(root), req.id);
    let model = IlpModel::build(
        instance,
        ModelConfig::tightened(req.partitions, req.latency),
    );
    tracer.close(span);
    let model = match model {
        Ok(m) => m,
        Err(e) => return Outcome::Failed(format!("model build failed: {e}")),
    };
    let problem = model.problem();
    tally.add("core.rows", problem.num_rows() as f64);
    tally.add("core.cols", problem.num_vars() as f64);
    let nnz: usize = problem.rows_for_export().map(|r| r.coeffs.len()).sum();
    tally.add("core.nnz", nnz as f64);

    // The CLI attaches one budget to the whole solve; so does the benchmark.
    let mut mip = MipOptions {
        time_limit_secs: SAFETY_DEADLINE_SECS,
        max_nodes: req.node_limit,
        ..MipOptions::default()
    };
    mip.lp.profile = tracer.enabled();
    mip.lp.budget = Some(Arc::new(Budget::new(
        SAFETY_DEADLINE_SECS,
        req.node_limit,
        usize::MAX,
    )));
    let options = SolveOptions {
        mip,
        rule: RuleKind::Paper,
        seed_incumbent: true,
    };
    let span = tracer.open("core.solve", Some(root), req.id);
    let out = model.solve(&options);
    tracer.close(span);
    let out = match out {
        Ok(o) => o,
        Err(e) => return Outcome::Failed(format!("solve failed: {e}")),
    };
    tracer.child_of_duration("lp.bb", span, out.stats.seconds);
    let class = match out.status {
        MipStatus::Optimal => "optimal",
        MipStatus::Infeasible => "infeasible",
        MipStatus::NodeLimit => "capped",
        other => return Outcome::Failed(format!("solve stopped by {other}")),
    };
    tally.mip(&out.stats, class);

    if out.status == MipStatus::Infeasible {
        return Outcome::Infeasible;
    }
    if out.raw_x.is_empty() {
        // Capped before any incumbent, and the list-scheduling fallback
        // found none either: nothing to certify.
        return Outcome::Capped(None);
    }
    let span = tracer.open("audit.certify", Some(root), req.id);
    let report = certify(
        problem,
        &Certificate {
            x: out.raw_x.clone(),
            objective: out.objective,
            best_bound: out.best_bound,
            status: out.status,
            objective_is_integral: true,
        },
        &CertifyOptions::default(),
    );
    tracer.close(span);
    let report = match report {
        Ok(r) => r,
        Err(e) => return Outcome::Failed(format!("certificate rejected: {e}")),
    };
    tally.add("audit.rows_checked", report.rows_checked as f64);
    let cost = report.exact_objective as u64;
    if out.status == MipStatus::Optimal {
        Outcome::Optimal(cost)
    } else {
        Outcome::Capped(Some(cost))
    }
}
