//! The input generator: determinism, fidelity to `tempart_bench`'s
//! generator, and the committed g1 fixture.

use tempart_bench::{date98_device, date98_instance, paper_graph, GraphSpec};
use tempart_benchmark::gen;
use tempart_benchmark::workload::g1_json;
use tempart_cli::{EdgeSpec, SpecFile, TaskSpec};
use tempart_graph::TaskGraph;

/// `graph` as a specification with the `2+2+1` set on the date98 device.
fn graph_as_spec(name: &str, g: &TaskGraph) -> String {
    let mut spec = gen::spec(name, 1, 1, 0, [2, 2, 1]);
    spec.tasks = g
        .tasks()
        .iter()
        .map(|t| {
            let ids = t.ops();
            let local = |op| ids.iter().position(|&o| o == op).expect("op of its task");
            TaskSpec {
                name: t.name().to_string(),
                ops: ids
                    .iter()
                    .map(|&o| g.op(o).kind().mnemonic().to_string())
                    .collect(),
                deps: t
                    .op_graph()
                    .edges()
                    .iter()
                    .map(|&(a, b)| [local(a), local(b)])
                    .collect(),
            }
        })
        .collect();
    spec.edges = g
        .task_edges()
        .iter()
        .map(|e| EdgeSpec {
            from: g.task(e.from).name().to_string(),
            to: g.task(e.to).name().to_string(),
            bandwidth: e.bandwidth.units(),
        })
        .collect();
    spec.to_json()
}

#[test]
fn same_seed_same_json_and_another_seed_differs() {
    let a = gen::spec("s", 5, 22, 42, [2, 2, 1]).to_json();
    assert_eq!(a, gen::spec("s", 5, 22, 42, [2, 2, 1]).to_json());
    assert_ne!(a, gen::spec("s", 5, 22, 43, [2, 2, 1]).to_json());
    assert_ne!(gen::item_seed(1998, 0), gen::item_seed(1998, 1));
    assert_ne!(gen::item_seed(1998, 0), gen::item_seed(1999, 0));
}

#[test]
fn copy_matches_the_bench_generator() {
    for (tasks, ops, seed) in [(5, 22, 7), (10, 45, 11), (10, 72, 1998), (3, 8, 0)] {
        let reference = GraphSpec::new("x", tasks, ops, seed).generate();
        assert_eq!(
            gen::spec("x", tasks, ops, seed, [2, 2, 1]).to_json(),
            graph_as_spec("x", &reference),
            "{tasks} tasks / {ops} ops, seed {seed}"
        );
    }
}

#[test]
fn g1_fixture_is_paper_graph_1() {
    let fixture = SpecFile::from_json(&g1_json()).expect("fixture parses");
    assert_eq!(fixture.to_json(), gen::g1().to_json());
    assert_eq!(fixture.to_json(), graph_as_spec("graph1", &paper_graph(1)));
    let reference = date98_instance(1, 2, 2, 1, date98_device()).expect("g1 instance");
    let inst = fixture.build_instance().expect("fixture builds");
    assert_eq!(inst.device(), reference.device());
    assert_eq!(inst.fus(), reference.fus());
}
