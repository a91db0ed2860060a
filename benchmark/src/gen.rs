//! Seeded input generator.
//!
//! A copy of `tempart_bench::GraphSpec::generate` (same random stream, same
//! defaults) that emits [`SpecFile`] JSON instead of a `TaskGraph`, so the
//! program under test only ever receives the text a caller would send. The
//! copy is checked against the original by `tests/gen.rs`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tempart_cli::{DeviceSpec, EdgeSpec, FuSpec, SpecFile, TaskSpec};

/// Seed of the paper's graph 1 (`tempart_bench::graphs::PAPER_SEEDS[0]`).
pub const G1_SEED: u64 = 0xDA7E_1998 + 400;

/// Probability of an extra (non-backbone) task edge between an ordered pair.
const EXTRA_EDGE_PROB: f64 = 0.15;
/// Probability that an op depends on an earlier op of its task.
const INTRA_EDGE_PROB: f64 = 0.65;
/// Inclusive task-edge bandwidth range, in data words.
const BANDWIDTH_RANGE: (u64, u64) = (1, 8);
/// Probability that a task's backbone predecessor is its immediate neighbour.
const CHAIN_BIAS: f64 = 0.7;

/// Generates a `tasks`-task, `ops`-op specification with an
/// `adders + multipliers + subtracters` exploration set on the date98
/// device. Same `seed`, same specification.
///
/// # Panics
///
/// Panics if `tasks == 0` or `ops < tasks`.
pub fn spec(name: &str, tasks: usize, ops: usize, seed: u64, fus: [u32; 3]) -> SpecFile {
    assert!(tasks > 0 && ops >= tasks, "need at least one op per task");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut per_task = vec![1usize; tasks];
    for _ in 0..(ops - tasks) {
        per_task[rng.gen_range(0..tasks)] += 1;
    }
    let mut task_specs = Vec::with_capacity(tasks);
    for (ti, &count) in per_task.iter().enumerate() {
        let mut kinds = Vec::with_capacity(count);
        let mut deps = Vec::new();
        for i in 0..count {
            kinds.push(
                match rng.gen_range(0..10) {
                    0..=3 => "add",
                    4..=6 => "mul",
                    _ => "sub",
                }
                .to_string(),
            );
            if i > 0 && rng.gen_bool(INTRA_EDGE_PROB) {
                deps.push([rng.gen_range(0..i), i]);
            }
        }
        task_specs.push(TaskSpec {
            name: format!("t{ti}"),
            ops: kinds,
            deps,
        });
    }
    let mut edges: Vec<(usize, usize, u64)> = Vec::new();
    for ti in 1..tasks {
        let from = if rng.gen_bool(CHAIN_BIAS) {
            ti - 1
        } else {
            rng.gen_range(0..ti)
        };
        let bw = rng.gen_range(BANDWIDTH_RANGE.0..=BANDWIDTH_RANGE.1);
        edges.push((from, ti, bw));
    }
    for from in 0..tasks {
        for to in (from + 1)..tasks {
            if rng.gen_bool(EXTRA_EDGE_PROB) {
                let bw = rng.gen_range(BANDWIDTH_RANGE.0..=BANDWIDTH_RANGE.1);
                // The graph builder refuses a duplicate of a backbone edge.
                if !edges.iter().any(|&(f, t, _)| (f, t) == (from, to)) {
                    edges.push((from, to, bw));
                }
            }
        }
    }
    SpecFile {
        name: name.to_string(),
        tasks: task_specs,
        edges: edges
            .into_iter()
            .map(|(f, t, bandwidth)| EdgeSpec {
                from: format!("t{f}"),
                to: format!("t{t}"),
                bandwidth,
            })
            .collect(),
        fus: ["add16", "mul8", "sub16"]
            .iter()
            .zip(fus)
            .map(|(ty, count)| FuSpec {
                type_name: (*ty).to_string(),
                count,
            })
            .collect(),
        device: date98_device(),
    }
}

/// The device constants of the paper-table harness
/// (`tempart_bench::date98_device`).
pub fn date98_device() -> DeviceSpec {
    DeviceSpec {
        name: "date98".into(),
        capacity: 100,
        scratch_memory: 2048,
        alpha: 0.7,
        reconfig_cycles: 164_000,
        memory_word_cycles: 1,
    }
}

/// The paper's graph 1 with its `2+2+1` exploration set — the content of
/// `fixtures/g1.json`.
pub fn g1() -> SpecFile {
    spec("graph1", 5, 22, G1_SEED, [2, 2, 1])
}

/// Seed of item `index` of a workload stream (SplitMix64 over the workload
/// seed): independent items, and the same `(seed, index)` always gives the
/// same item.
pub fn item_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
