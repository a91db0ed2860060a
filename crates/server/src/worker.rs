//! The worker pool: executes queued jobs with panic isolation.
//!
//! Each worker loops popping jobs until the queue closes. A job runs under
//! `catch_unwind`; a caught panic requeues the job once (front of the
//! line — its budget is already burning) and a second panic produces a
//! truthful `failed` terminal status. Either way the connection gets
//! exactly one `result` frame and the accounting never orphans a job.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use tempart_audit::certify::{certify, Certificate, CertifyOptions};
use tempart_cli::proto::{Response, SolveSummary};
use tempart_core::{
    IlpModel, ModelConfig, PartitionerOptions, RuleKind, SolutionSource, SolveOptions,
    TemporalPartitioner,
};
use tempart_lp::{FaultSite, MipOptions, MipStatus};

use crate::cache::CacheEntry;
use crate::queue::Job;
use crate::{Inner, ServerConfig};

/// Worker main loop. Exits when the queue closes and drains.
pub(crate) fn run(inner: Arc<Inner>) {
    while let Some(mut job) = inner.queue.pop() {
        let outcome = catch_unwind(AssertUnwindSafe(|| execute(&inner, &job)));
        match outcome {
            Ok(summary) => deliver(&inner, &job, summary),
            Err(_) => {
                inner.stats.note_panic();
                if job.requeued {
                    // Second crash: a truthful terminal failure.
                    let summary = SolveSummary {
                        status: "failed".to_string(),
                        source: "none".to_string(),
                        cache: "uncached".to_string(),
                        requeued: true,
                        seconds: job.submitted.elapsed().as_secs_f64(),
                        ..SolveSummary::default()
                    };
                    deliver(&inner, &job, summary);
                } else {
                    job.requeued = true;
                    inner.stats.note_requeue();
                    inner.queue.push_front(job);
                }
            }
        }
    }
}

/// Terminal bookkeeping: unregister the budget, count the outcome, and
/// send the result frame (best effort — the client may be gone, but the
/// job still terminated truthfully).
fn deliver(inner: &Inner, job: &Job, summary: SolveSummary) {
    inner.unregister(job.id);
    inner.stats.note_cache(&summary.cache);
    if summary.status == "failed" {
        inner.stats.note_failed();
    } else {
        inner.stats.note_completed();
    }
    let _ = job.tx.send(Response::Result {
        job: job.id,
        summary,
    });
}

/// The answer a cache entry holds, once re-verified.
#[derive(Debug, PartialEq)]
struct CachedOptimum {
    /// The objective recomputed in exact arithmetic.
    objective: f64,
    /// The communication cost of the extracted schedule.
    cost: u64,
}

/// Re-verifies a cache entry against the freshly built model: the audit
/// crate's exact certificate checker recomputes feasibility and the
/// objective, and the vector must extract to a schedule that passes
/// semantic validation at the cost the checker found. The optimality
/// claim is not re-proven: it rests on the solve that stored the entry,
/// which searched this same model (see
/// [`tempart_cli::proto::instance_fingerprint`]). `None` means the entry
/// is stale or corrupt.
fn verified_optimum(model: &IlpModel, entry: CacheEntry) -> Option<CachedOptimum> {
    let cert = Certificate {
        x: entry.x,
        objective: entry.objective,
        best_bound: entry.objective,
        status: MipStatus::Optimal,
        objective_is_integral: true,
    };
    let report = certify(model.problem(), &cert, &CertifyOptions::default()).ok()?;
    let solution = model.extract_solution(&cert.x).ok()?;
    solution.validate(model.instance(), model.config()).ok()?;
    let cost = solution.communication_cost();
    (cost as f64 == report.exact_objective).then_some(CachedOptimum {
        objective: report.exact_objective,
        cost,
    })
}

/// Assembles the solver options an admitted job runs under: the library
/// defaults, overridden by the admitted limits and by each option the
/// request carries. The budget created at admission rides in via
/// `lp.budget`, so the simplex pivot loop enforces the deadline and a drain
/// can stop the job mid-solve.
fn mip_options(config: &ServerConfig, job: &Job) -> MipOptions {
    let mut mip = MipOptions {
        time_limit_secs: job.time_limit_secs,
        max_nodes: job.node_limit,
        max_lp_iterations: job.pivot_limit,
        threads: job.threads,
        branching: job.branching,
        progress: Some(Arc::clone(&job.progress)),
        ..MipOptions::default()
    };
    if let Some(cuts) = job.params.cuts {
        mip.cuts = cuts;
    }
    if let Some(propagate) = job.params.propagate {
        mip.propagate = propagate;
    }
    mip.lp.faults = config.faults.clone();
    mip.lp.budget = Some(Arc::clone(&job.budget));
    mip
}

/// Runs one job to a terminal summary. Panics (injected via the chaos
/// plan's `panic` site or real) are caught by [`run`].
fn execute(inner: &Inner, job: &Job) -> SolveSummary {
    if inner.trip(FaultSite::WorkerPanic) {
        // audit: allow(no-panic) — scripted chaos injection; the pool's
        // catch_unwind isolation and requeue-once recovery are the code
        // under test.
        panic!("injected worker panic (chaos plan)");
    }

    let mut summary = SolveSummary {
        status: "failed".to_string(),
        source: "none".to_string(),
        cache: "uncached".to_string(),
        requeued: job.requeued,
        ..SolveSummary::default()
    };

    // Admission already validated the spec; a failure here is a truthful
    // `failed`, never a panic.
    let instance = match job.spec.build_instance() {
        Ok(i) => i,
        Err(_) => {
            summary.seconds = job.submitted.elapsed().as_secs_f64();
            return summary;
        }
    };

    match job.params.config {
        Some((n, l)) => {
            let config = ModelConfig::tightened(n, l);
            let model = match IlpModel::build(instance, config) {
                Ok(m) => m,
                Err(_) => {
                    summary.status = "infeasible-config".to_string();
                    summary.seconds = job.submitted.elapsed().as_secs_f64();
                    return summary;
                }
            };
            if job.params.warm_start {
                summary.cache = "miss".to_string();
                if let Some(key) = &job.fingerprint {
                    if let Some(entry) = inner.cache.lookup(key) {
                        if let Some(hit) = verified_optimum(&model, entry) {
                            // The stored proof answers the job: no search.
                            job.progress.note_incumbent(hit.objective);
                            job.progress.note_bound(hit.objective);
                            summary.status = MipStatus::Optimal.as_str().to_string();
                            summary.objective = Some(hit.objective);
                            summary.best_bound = Some(hit.objective);
                            summary.cost = Some(hit.cost);
                            summary.source = SolutionSource::Exact.as_str().to_string();
                            summary.cache = "hit".to_string();
                            summary.seconds = job.submitted.elapsed().as_secs_f64();
                            return summary;
                        }
                        // Stale or poisoned: evict and solve cold.
                        inner.cache.invalidate(key);
                        summary.cache = "stale".to_string();
                    }
                }
            }
            let solve = SolveOptions {
                mip: mip_options(&inner.config, job),
                rule: RuleKind::Paper,
                seed_incumbent: true,
            };
            if let Ok(out) = model.solve(&solve) {
                summary.status = out.status.as_str().to_string();
                summary.objective = out.solution.is_some().then_some(out.objective);
                summary.best_bound = out.best_bound.is_finite().then_some(out.best_bound);
                summary.cost = out.solution.as_ref().map(|s| s.communication_cost());
                summary.nodes = out.stats.nodes as u64;
                summary.lp_iterations = out.stats.lp_iterations as u64;
                summary.source = out.source.as_str().to_string();
                if out.status == MipStatus::Optimal && !out.raw_x.is_empty() {
                    if let Some(key) = &job.fingerprint {
                        let poison = inner.trip(FaultSite::CachePoison);
                        inner
                            .cache
                            .store(key, out.raw_x.clone(), out.objective, poison);
                    }
                }
            }
        }
        None => {
            // Automatic estimate + latency sweep: no stable fingerprint,
            // so the cache is never consulted (`uncached`).
            let solve = SolveOptions {
                mip: mip_options(&inner.config, job),
                rule: RuleKind::Paper,
                seed_incumbent: true,
            };
            let result = TemporalPartitioner::new(
                instance.graph().clone(),
                instance.fus().clone(),
                instance.device().clone(),
            )
            .options(PartitionerOptions {
                config: None,
                solve,
                max_latency_relaxation: Some(3),
            })
            .run();
            if let Ok(r) = result {
                summary.status = r.status().as_str().to_string();
                summary.objective = Some(r.objective()).filter(|v| v.is_finite());
                summary.best_bound = Some(r.best_bound()).filter(|v| v.is_finite());
                summary.cost = Some(r.solution().communication_cost());
                summary.nodes = r.mip_stats().nodes as u64;
                summary.lp_iterations = r.mip_stats().lp_iterations as u64;
                summary.source = r.source().as_str().to_string();
            }
        }
    }
    summary.seconds = job.submitted.elapsed().as_secs_f64();
    summary
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::time::Instant;

    use tempart_cli::proto::SolveParams;
    use tempart_cli::SpecFile;
    use tempart_lp::{Branching, Budget, Progress};

    use super::*;

    fn job(params: SolveParams) -> Job {
        let (tx, _rx) = mpsc::channel();
        Job {
            id: 1,
            spec: SpecFile::example(),
            params,
            fingerprint: None,
            progress: Arc::new(Progress::new()),
            budget: Arc::new(Budget::unlimited()),
            tx,
            requeued: false,
            submitted: Instant::now(),
            time_limit_secs: 5.0,
            node_limit: 200,
            pivot_limit: usize::MAX,
            threads: 1,
            branching: Branching::default(),
        }
    }

    #[test]
    fn absent_option_keys_keep_the_library_defaults() {
        let defaults = MipOptions::default();
        let mip = mip_options(&ServerConfig::default(), &job(SolveParams::default()));
        assert_eq!(
            (mip.cuts, mip.propagate, mip.branching),
            (defaults.cuts, defaults.propagate, defaults.branching)
        );
        assert_eq!((mip.max_nodes, mip.threads), (200, 1), "admitted limits");
        assert!(mip.lp.budget.is_some(), "the admission budget rides along");

        // A carried key overrides the default either way.
        for v in [true, false] {
            let mip = mip_options(
                &ServerConfig::default(),
                &job(SolveParams {
                    cuts: Some(v),
                    propagate: Some(!v),
                    ..SolveParams::default()
                }),
            );
            assert_eq!((mip.cuts, mip.propagate), (v, !v));
        }
    }

    #[test]
    fn hit_check_accepts_a_solved_entry_and_rejects_a_tampered_one() {
        let instance = SpecFile::example().build_instance().unwrap();
        let model = IlpModel::build(instance, ModelConfig::tightened(2, 1)).unwrap();
        let out = model.solve(&SolveOptions::default()).unwrap();
        assert_eq!(out.status, MipStatus::Optimal);
        let entry = CacheEntry {
            x: out.raw_x.clone(),
            objective: out.objective,
        };
        let cost = out.solution.as_ref().unwrap().communication_cost();
        assert_eq!(
            verified_optimum(&model, entry.clone()),
            Some(CachedOptimum {
                objective: cost as f64,
                cost
            })
        );

        let wrong_objective = CacheEntry {
            objective: entry.objective + 1.0,
            ..entry.clone()
        };
        assert_eq!(verified_optimum(&model, wrong_objective), None);

        // The `cachepoison` site's corruption.
        let mut poisoned = entry;
        poisoned.x[0] += 0.5;
        assert_eq!(verified_optimum(&model, poisoned), None);
    }
}
