//! Constructive heuristic used to seed the branch and bound with an initial
//! incumbent.
//!
//! Tasks are split (in topological order) into at most `N` contiguous
//! chunks; for small graphs every boundary placement is enumerated, for
//! larger ones one balanced split per chunk count. Each chunk gets an
//! **area-feasible** functional-unit subset (cheapest cover, then greedy
//! widening while the α-derated area fits) and a critical-path list schedule
//! over exactly those units. Chunks are concatenated blockwise; a candidate
//! survives if the total length fits the `CP + L` horizon and every boundary
//! respects the scratch memory. The cheapest surviving candidate becomes the
//! incumbent.
//!
//! A good starting upper bound prunes large parts of the search tree before
//! the first leaf is reached — on the 10-task benchmark graphs this is the
//! difference between finding the optimum in seconds and wandering the
//! `y`-assignment tree. The heuristic is *optional* and never affects
//! optimality: the solver only uses it as an incumbent to beat.

use std::collections::{HashMap, HashSet};

use tempart_graph::{ControlStep, FuId, OpId, OpKind, PartitionIndex, TaskId};
use tempart_hls::{Mobility, Schedule};

use crate::config::ModelConfig;
use crate::instance::Instance;
use crate::solution::TemporalSolution;

/// Builds a feasible [`TemporalSolution`] for `instance` under `config`, or
/// `None` when no candidate chunking fits.
pub fn heuristic_solution(instance: &Instance, config: &ModelConfig) -> Option<TemporalSolution> {
    let graph = instance.graph();
    let mobility = Mobility::compute(graph);
    let horizon = mobility.horizon(config.latency_relaxation);
    let edges = graph.combined_op_edges();
    let order = graph.task_topo_order();
    let n = config.num_partitions as usize;
    let ms = instance.device().scratch_memory().units();

    let mut best: Option<(TemporalSolution, u64)> = None;
    for chunks in candidate_chunkings(graph, &order, n) {
        let Some((assignment, schedule)) = schedule_chunks(instance, &edges, &chunks, horizon)
        else {
            continue;
        };
        // Memory feasibility per boundary + cost.
        let mut cost = 0u64;
        let mut memory_ok = true;
        for b in 1..config.num_partitions {
            let traffic: u64 = graph
                .task_edges()
                .iter()
                .filter(|e| assignment[e.from.index()].0 < b && assignment[e.to.index()].0 >= b)
                .map(|e| e.bandwidth.units())
                .sum();
            if traffic > ms {
                memory_ok = false;
                break;
            }
            cost += traffic;
        }
        if !memory_ok {
            continue;
        }
        if best.as_ref().is_some_and(|&(_, c)| cost >= c) {
            continue; // not better; skip the validation work
        }
        let candidate = TemporalSolution::new(assignment, schedule, cost);
        if candidate.validate(instance, config).is_err() {
            continue;
        }
        best = Some((candidate, cost));
    }
    best.map(|(s, _)| s)
}

/// Contiguous chunkings into at most `n` chunks: exhaustive over boundary
/// positions for small task counts, one balanced chunking per chunk count
/// otherwise.
fn candidate_chunkings(
    graph: &tempart_graph::TaskGraph,
    order: &[TaskId],
    n: usize,
) -> Vec<Vec<Vec<TaskId>>> {
    let t = order.len();
    let mut out: Vec<Vec<Vec<TaskId>>> = Vec::new();
    if t <= 12 {
        for k in 1..=n.min(t) {
            let mut splits = Vec::with_capacity(k - 1);
            enumerate_splits(order, k, 1, &mut splits, &mut out);
        }
    } else {
        for k in 1..=n.min(t) {
            out.push(balanced_chunks(graph, order, k));
        }
    }
    out
}

/// Recursively chooses `k − 1 − splits.len()` more split points in
/// `from..order.len()` and emits each complete chunking.
fn enumerate_splits(
    order: &[TaskId],
    k: usize,
    from: usize,
    splits: &mut Vec<usize>,
    out: &mut Vec<Vec<Vec<TaskId>>>,
) {
    if splits.len() == k - 1 {
        let mut chunks = Vec::with_capacity(k);
        let mut start = 0;
        for &sp in splits.iter() {
            chunks.push(order[start..sp].to_vec());
            start = sp;
        }
        chunks.push(order[start..].to_vec());
        out.push(chunks);
        return;
    }
    let remaining = k - 1 - splits.len();
    for sp in from..=(order.len() - remaining) {
        splits.push(sp);
        enumerate_splits(order, k, sp + 1, splits, out);
        splits.pop();
    }
}

/// Splits tasks (already in topological order) into `k` contiguous chunks
/// with roughly equal operation counts.
fn balanced_chunks(
    graph: &tempart_graph::TaskGraph,
    order: &[TaskId],
    k: usize,
) -> Vec<Vec<TaskId>> {
    let total_ops: usize = graph.num_ops();
    let target = total_ops.div_ceil(k);
    let mut chunks: Vec<Vec<TaskId>> = Vec::with_capacity(k);
    let mut current: Vec<TaskId> = Vec::new();
    let mut current_ops = 0usize;
    for &t in order {
        let t_ops = graph.task(t).num_ops();
        if !current.is_empty() && current_ops + t_ops > target && chunks.len() + 1 < k {
            chunks.push(std::mem::take(&mut current));
            current_ops = 0;
        }
        current.push(t);
        current_ops += t_ops;
    }
    if !current.is_empty() {
        chunks.push(current);
    }
    chunks
}

/// Schedules every chunk blockwise; returns `None` if a chunk has no
/// area-feasible covering unit subset or the total exceeds the horizon.
fn schedule_chunks(
    instance: &Instance,
    edges: &[(OpId, OpId)],
    chunks: &[Vec<TaskId>],
    horizon: u32,
) -> Option<(Vec<PartitionIndex>, Schedule)> {
    let graph = instance.graph();
    let mut assignment = vec![PartitionIndex::new(0); graph.num_tasks()];
    let mut schedule = Schedule::new();
    let mut base = 0u32;
    for (p, chunk) in chunks.iter().enumerate() {
        for &t in chunk {
            assignment[t.index()] = PartitionIndex::new(p as u32);
        }
        let ops: Vec<OpId> = chunk
            .iter()
            .flat_map(|&t| graph.task(t).ops().iter().copied())
            .collect();
        if ops.is_empty() {
            continue;
        }
        // Cheap pruning: even a perfect schedule of this chunk cannot beat
        // the latency-weighted critical path / unit-scarcity bound.
        if base + tempart_hls::makespan_lower_bound(graph, &ops, edges, instance.fus()) > horizon {
            return None;
        }
        let allowed = choose_units(instance, &ops)?;
        let seg = list_schedule_subset(instance, &ops, edges, &allowed)?;
        let makespan = seg.makespan();
        for a in seg.iter() {
            schedule.assign(a.op, ControlStep(base + a.step.0), a.fu);
        }
        base += makespan;
        if base > horizon {
            return None;
        }
    }
    Some((assignment, schedule))
}

/// Picks an area-feasible unit subset covering the chunk's operation kinds:
/// cheapest capable instance per kind, then greedy widening (add an unused
/// capable instance for the kind with the highest ops-per-instance pressure)
/// while the α-derated area fits.
fn choose_units(instance: &Instance, ops: &[OpId]) -> Option<Vec<FuId>> {
    let graph = instance.graph();
    let fus = instance.fus();
    let device = instance.device();
    let mut kind_count: HashMap<OpKind, usize> = HashMap::new();
    for &op in ops {
        *kind_count.entry(graph.op(op).kind()).or_insert(0) += 1;
    }
    let mut chosen: Vec<FuId> = Vec::new();
    let area = |set: &[FuId]| -> u32 { set.iter().map(|&k| fus.cost(k).count()).sum() };
    // Cheapest cover.
    let mut kinds: Vec<OpKind> = kind_count.keys().copied().collect();
    kinds.sort();
    for kind in &kinds {
        if chosen.iter().any(|&k| fus.can_execute(k, *kind)) {
            continue;
        }
        let pick = fus
            .instances_for_kind(*kind)
            .filter(|k| !chosen.contains(k))
            .min_by_key(|&k| fus.cost(k).count())?;
        chosen.push(pick);
    }
    if !device.fits(tempart_graph::FunctionGenerators::new(area(&chosen))) {
        return None;
    }
    // Greedy widening.
    loop {
        let mut best_add: Option<(f64, FuId)> = None;
        for kind in &kinds {
            let owners = chosen
                .iter()
                .filter(|&&k| fus.can_execute(k, *kind))
                .count();
            let pressure = kind_count[kind] as f64 / owners.max(1) as f64;
            if pressure <= 1.0 {
                continue;
            }
            if let Some(k) = fus
                .instances_for_kind(*kind)
                .filter(|k| !chosen.contains(k))
                .min_by_key(|&k| fus.cost(k).count())
            {
                let mut trial = chosen.clone();
                trial.push(k);
                if device.fits(tempart_graph::FunctionGenerators::new(area(&trial)))
                    && best_add.is_none_or(|(bp, _)| pressure > bp)
                {
                    best_add = Some((pressure, k));
                }
            }
        }
        match best_add {
            Some((_, k)) => chosen.push(k),
            None => break,
        }
    }
    Some(chosen)
}

/// Critical-path list scheduling restricted to `allowed` units.
fn list_schedule_subset(
    instance: &Instance,
    ops: &[OpId],
    edges: &[(OpId, OpId)],
    allowed: &[FuId],
) -> Option<Schedule> {
    let graph = instance.graph();
    let fus = instance.fus();
    let op_set: HashSet<OpId> = ops.iter().copied().collect();
    let local: Vec<(OpId, OpId)> = edges
        .iter()
        .copied()
        .filter(|(a, b)| op_set.contains(a) && op_set.contains(b))
        .collect();
    // Longest path to sink priorities.
    let mut prio: HashMap<OpId, u32> = ops.iter().map(|&o| (o, 0)).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for &(a, b) in &local {
            let cand = prio[&b] + 1;
            if cand > prio[&a] {
                prio.insert(a, cand);
                changed = true;
            }
        }
    }
    let mut pending: HashMap<OpId, usize> = ops.iter().map(|&o| (o, 0)).collect();
    let mut succs: HashMap<OpId, Vec<OpId>> = HashMap::new();
    for &(a, b) in &local {
        // audit: allow(no-panic) — `pending` was seeded from `ops` above and
        // `local` only holds edges between members of `ops`.
        *pending.get_mut(&b).expect("in set") += 1;
        succs.entry(a).or_default().push(b);
    }
    let mut ready: Vec<OpId> = ops.iter().copied().filter(|o| pending[o] == 0).collect();
    let mut ready_at: HashMap<OpId, u32> = HashMap::new();
    let mut busy_until: HashMap<FuId, u32> = HashMap::new();
    let mut schedule = Schedule::new();
    let mut remaining = ops.len();
    let mut step = 0u32;
    let mut stall = 0u32;
    while remaining > 0 {
        ready.sort_by_key(|&o| (std::cmp::Reverse(prio[&o]), o));
        let mut placed: Vec<OpId> = Vec::new();
        for &op in &ready {
            if ready_at.get(&op).copied().unwrap_or(0) > step {
                continue; // producer result still in flight
            }
            let kind = graph.op(op).kind();
            let pick = allowed
                .iter()
                .copied()
                .filter(|&k| {
                    busy_until.get(&k).copied().unwrap_or(0) <= step && fus.can_execute(k, kind)
                })
                .min_by_key(|&k| (fus.latency(k), k));
            if let Some(fu) = pick {
                busy_until.insert(fu, step + fus.occupancy(fu));
                schedule.assign(op, ControlStep(step), fu);
                placed.push(op);
                if let Some(ss) = succs.get(&op) {
                    let done = step + fus.latency(fu);
                    for &s in ss {
                        let e = ready_at.entry(s).or_insert(0);
                        *e = (*e).max(done);
                    }
                }
            }
        }
        if placed.is_empty() {
            // Either everything is waiting on in-flight results/busy units
            // (progress resumes later) or some ready op has no capable unit
            // in `allowed` (no progress ever). Bound the stall to tell the
            // two apart without tracking release times explicitly.
            stall += 1;
            if stall > 64 {
                return None;
            }
        } else {
            stall = 0;
        }
        remaining -= placed.len();
        ready.retain(|o| !placed.contains(o));
        for op in placed {
            if let Some(ss) = succs.get(&op) {
                for &s in ss {
                    // audit: allow(no-panic) — successors come from the same
                    // edge list that seeded `pending`.
                    let c = pending.get_mut(&s).expect("in set");
                    *c -= 1;
                    if *c == 0 {
                        ready.push(s);
                    }
                }
            }
        }
        step += 1;
    }
    Some(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{tiny_instance, tiny_instance_with_memory};

    #[test]
    fn heuristic_finds_single_partition_solution() {
        let inst = tiny_instance();
        let cfg = ModelConfig::tightened(2, 1);
        let sol = heuristic_solution(&inst, &cfg).expect("roomy board");
        assert_eq!(sol.partitions_used(), 1);
        assert_eq!(sol.communication_cost(), 0);
    }

    #[test]
    fn heuristic_respects_memory_validation() {
        // With scratch memory 1 the only feasible candidates avoid crossing
        // the bandwidth-4 edge; the single-chunk candidate does exactly that.
        let inst = tiny_instance_with_memory(1);
        let cfg = ModelConfig::tightened(2, 1);
        let sol = heuristic_solution(&inst, &cfg);
        if let Some(s) = sol {
            assert_eq!(s.communication_cost(), 0);
        }
    }

    #[test]
    fn heuristic_splits_under_area_pressure() {
        // Capacity 80 excludes {mul + sub} in one segment: a valid incumbent
        // must split the tiny instance's two tasks.
        let inst = crate::test_support::tiny_instance_with_device(
            tempart_graph::FpgaDevice::builder("tight")
                .capacity(tempart_graph::FunctionGenerators::new(80))
                .scratch_memory(tempart_graph::Bandwidth::new(64))
                .alpha(0.7)
                .build()
                .unwrap(),
        );
        let cfg = ModelConfig::tightened(2, 1);
        let sol = heuristic_solution(&inst, &cfg).expect("split fits with L=1");
        assert_eq!(sol.partitions_used(), 2);
        assert_eq!(sol.communication_cost(), 4);
    }

    #[test]
    fn heuristic_gives_up_gracefully_when_impossible() {
        // Scratch memory below the mandatory crossing and area forcing a
        // split: no candidate survives validation.
        let inst = crate::test_support::tiny_instance_with_device(
            tempart_graph::FpgaDevice::builder("nano")
                .capacity(tempart_graph::FunctionGenerators::new(80))
                .scratch_memory(tempart_graph::Bandwidth::new(1))
                .alpha(0.7)
                .build()
                .unwrap(),
        );
        let cfg = ModelConfig::tightened(2, 1);
        assert!(heuristic_solution(&inst, &cfg).is_none());
    }

    #[test]
    fn chunk_enumeration_counts() {
        let inst = tiny_instance(); // 2 tasks
        let order = inst.graph().task_topo_order();
        // 2 tasks, n=2: k=1 (1 way) + k=2 (1 way) = 2 chunkings.
        let cands = candidate_chunkings(inst.graph(), &order, 2);
        assert_eq!(cands.len(), 2);
        // Every chunking covers all tasks exactly once.
        for chunks in &cands {
            let total: usize = chunks.iter().map(Vec::len).sum();
            assert_eq!(total, 2);
        }
    }
}
