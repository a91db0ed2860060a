//! Tiny-size runs of every workload, and the g1 correctness oracle.

use tempart_benchmark::report::{self, RunOptions, END_TO_END, PER_LAYER};
use tempart_benchmark::solve::{self, Outcome, Request};
use tempart_benchmark::trace::{Tally, Tracer};
use tempart_benchmark::workload::{g1_json, Sizes, Workload, G1_LADDER_ANSWERS, LADDER};

#[test]
fn every_workload_runs_traced_at_tiny_size() {
    for workload in Workload::ALL {
        let result = report::run(RunOptions {
            workload,
            seed: 7,
            seconds: 0.2,
            trace: true,
            sizes: Sizes::tiny(),
        })
        .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        let name = workload.name();
        assert_eq!(result.failed(), 0, "{name}: {:?}", result.untraced.samples);
        assert!(result.attempted() > 0, "{name}");
        assert_eq!(result.setups.len(), report::SETUPS, "{name}");

        let e2e = report::end_to_end(&result);
        assert_eq!(e2e.len(), END_TO_END.len());
        for m in &e2e {
            assert!(m.value.is_finite() && m.value >= 0.0, "{name}: {m:?}");
        }
        let get = |name: &str| e2e.iter().find(|m| m.name == name).map(|m| m.value);
        assert!(get("specs_per_s").unwrap() > 0.0, "{name}");
        assert_eq!(get("fail_frac"), Some(0.0), "{name}");

        let layers = report::per_layer(&result);
        assert_eq!(layers.len(), PER_LAYER.len());
        let layer = |n: &str| layers.iter().find(|m| m.name == n).unwrap().value;
        assert!(layer("cli.parse_s") > 0.0, "{name}");
        let coverage = layer("trace.coverage");
        assert!(
            coverage > 0.9 && coverage <= 1.0 + 1e-9,
            "{name}: coverage {coverage}"
        );
        match workload {
            Workload::Service => assert!(layer("server.job_s") > 0.0),
            _ => {
                assert!(layer("core.build_s") > 0.0, "{name}");
                assert!(layer("core.rows") > 0.0, "{name}");
            }
        }
        assert!(report::self_time_table(&result).contains("request"));
        let line = report::result_line(&result, &["specs_per_s"]);
        assert!(
            line.starts_with("{\"correct\":true,\"attempted\":"),
            "{line}"
        );
    }
}

#[test]
fn g1_ladder_returns_the_pinned_answers_certified() {
    for (rung, (&(n, l), want)) in LADDER.iter().zip(G1_LADDER_ANSWERS).enumerate() {
        let req = Request {
            id: rung as u64,
            json: g1_json(),
            partitions: n,
            latency: l,
            node_limit: 1000,
            pinned: Some(want),
        };
        let outcome = solve::run(&req, &mut Tracer::new(false), &mut Tally::default());
        match want {
            None => assert_eq!(outcome, Outcome::Infeasible, "rung {rung}"),
            Some(cost) => assert_eq!(outcome, Outcome::Optimal(cost), "rung {rung}"),
        }
    }
}

#[test]
fn a_wrong_pin_is_a_failure() {
    let req = Request {
        id: 0,
        json: g1_json(),
        partitions: 2,
        latency: 3,
        node_limit: 1000,
        pinned: Some(Some(1)),
    };
    let outcome = solve::run(&req, &mut Tracer::new(false), &mut Tally::default());
    assert!(outcome.failed(), "{outcome:?}");
}
