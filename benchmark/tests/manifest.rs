//! `BENCHMARK.json` names exactly the metrics and workloads the program
//! reports.

use tempart_benchmark::report::{END_TO_END, PER_LAYER};
use tempart_benchmark::workload::Workload;
use tempart_cli::json::{self, Value};

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key).and_then(Value::as_arr).expect(key)
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).expect(key)
}

#[test]
fn manifest_matches_the_program() {
    let m = manifest();
    let workloads: Vec<&str> = list(&m, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expected);

    let gated: Vec<(&str, &str)> = list(&m, "end_to_end")
        .iter()
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect();
    let reported: Vec<(&str, &str)> = END_TO_END
        .iter()
        .copied()
        .filter(|&(n, _)| n != "fail_frac")
        .collect();
    assert_eq!(gated, reported);
    for e in list(&m, "end_to_end") {
        let bound = e.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{e:?}");
    }

    let layers: Vec<(&str, &str, &str)> = list(&m, "per_layer")
        .iter()
        .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
        .collect();
    let expected: Vec<(&str, &str, &str)> = PER_LAYER
        .iter()
        .map(|d| (d.name, d.unit, d.better))
        .collect();
    assert_eq!(layers, expected);
}
