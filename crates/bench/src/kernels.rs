//! Hand-written DSP kernels — the workload class the paper's introduction
//! motivates (behavioral specifications destined for reconfigurable
//! co-processors). Unlike the random table graphs these have documented
//! dataflow, so examples read naturally and regressions are easy to reason
//! about.

use tempart_graph::{Bandwidth, GraphError, OpKind, TaskGraph, TaskGraphBuilder};

/// An `taps`-tap transposed-form FIR filter split into coefficient-section
/// tasks: each section computes `acc' = acc + x·h_i`; sections chain with a
/// one-word accumulator edge.
///
/// # Errors
///
/// Propagates builder errors (none occur for `taps ≥ 1`).
///
/// # Panics
///
/// Panics if `taps == 0`.
pub fn fir(taps: usize) -> Result<TaskGraph, GraphError> {
    assert!(taps > 0, "a FIR filter needs at least one tap");
    let mut b = TaskGraphBuilder::new(format!("fir{taps}"));
    let mut prev = None;
    for i in 0..taps {
        let t = b.task(format!("tap{i}"));
        let m = b.named_op(t, OpKind::Mul, format!("x*h{i}"))?;
        let a = b.named_op(t, OpKind::Add, format!("acc{i}"))?;
        b.op_edge(m, a)?;
        if let Some(p) = prev {
            // Accumulator and the delayed sample travel to the next section.
            b.task_edge(p, t, Bandwidth::new(2))?;
        }
        prev = Some(t);
    }
    b.build()
}

/// A radix-2 FFT butterfly column: `pairs` butterflies (each
/// `a' = a + w·b`, `b' = a − w·b`), followed by a recombination task.
///
/// # Errors
///
/// Propagates builder errors.
///
/// # Panics
///
/// Panics if `pairs == 0`.
pub fn fft_butterflies(pairs: usize) -> Result<TaskGraph, GraphError> {
    assert!(pairs > 0, "need at least one butterfly");
    let mut b = TaskGraphBuilder::new(format!("fft{pairs}x"));
    let mut stages = Vec::new();
    for i in 0..pairs {
        let t = b.task(format!("bfly{i}"));
        let tw = b.named_op(t, OpKind::Mul, format!("w*b{i}"))?;
        let hi = b.named_op(t, OpKind::Add, format!("a+wb{i}"))?;
        let lo = b.named_op(t, OpKind::Sub, format!("a-wb{i}"))?;
        b.op_edge(tw, hi)?;
        b.op_edge(tw, lo)?;
        stages.push(t);
    }
    let comb = b.task("recombine");
    let c0 = b.named_op(comb, OpKind::Add, "pack0")?;
    let c1 = b.named_op(comb, OpKind::Logic, "pack1")?;
    b.op_edge(c0, c1)?;
    for t in stages {
        // Each butterfly contributes its two outputs.
        b.task_edge(t, comb, Bandwidth::new(2))?;
    }
    b.build()
}

/// A cascade of `sections` direct-form-II biquad IIR sections:
/// `y = b0·w + b1·w1 + b2·w2`, `w = x − a1·w1 − a2·w2` (5 multiplies, 4
/// adds/subs per section), one-word chaining between sections.
///
/// # Errors
///
/// Propagates builder errors.
///
/// # Panics
///
/// Panics if `sections == 0`.
pub fn iir_biquad(sections: usize) -> Result<TaskGraph, GraphError> {
    assert!(sections > 0, "need at least one biquad section");
    let mut b = TaskGraphBuilder::new(format!("iir{sections}"));
    let mut prev = None;
    for i in 0..sections {
        let t = b.task(format!("biquad{i}"));
        let a1 = b.named_op(t, OpKind::Mul, format!("a1*w1_{i}"))?;
        let a2 = b.named_op(t, OpKind::Mul, format!("a2*w2_{i}"))?;
        let s0 = b.named_op(t, OpKind::Sub, format!("x-a1w1_{i}"))?;
        let s1 = b.named_op(t, OpKind::Sub, format!("w_{i}"))?;
        b.op_edge(a1, s0)?;
        b.op_edge(a2, s1)?;
        b.op_edge(s0, s1)?;
        let b0 = b.named_op(t, OpKind::Mul, format!("b0*w_{i}"))?;
        let b1 = b.named_op(t, OpKind::Mul, format!("b1*w1_{i}"))?;
        let b2 = b.named_op(t, OpKind::Mul, format!("b2*w2_{i}"))?;
        b.op_edge(s1, b0)?;
        let y0 = b.named_op(t, OpKind::Add, format!("y0_{i}"))?;
        let y1 = b.named_op(t, OpKind::Add, format!("y_{i}"))?;
        b.op_edge(b0, y0)?;
        b.op_edge(b1, y0)?;
        b.op_edge(b2, y1)?;
        b.op_edge(y0, y1)?;
        if let Some(p) = prev {
            b.task_edge(p, t, Bandwidth::new(1))?;
        }
        prev = Some(t);
    }
    b.build()
}

/// A 2×2 matrix multiply `C = A·B`: one task per output element (2 muls +
/// 1 add), feeding a store task.
///
/// # Errors
///
/// Propagates builder errors.
pub fn matmul2() -> Result<TaskGraph, GraphError> {
    let mut b = TaskGraphBuilder::new("matmul2");
    let store = {
        let mut cells = Vec::new();
        for r in 0..2 {
            for c in 0..2 {
                let t = b.task(format!("c{r}{c}"));
                let m0 = b.named_op(t, OpKind::Mul, format!("a{r}0*b0{c}"))?;
                let m1 = b.named_op(t, OpKind::Mul, format!("a{r}1*b1{c}"))?;
                let s = b.named_op(t, OpKind::Add, format!("sum{r}{c}"))?;
                b.op_edge(m0, s)?;
                b.op_edge(m1, s)?;
                cells.push(t);
            }
        }
        let store = b.task("store");
        b.named_op(store, OpKind::Logic, "pack")?;
        for t in cells {
            b.task_edge(t, store, Bandwidth::new(1))?;
        }
        store
    };
    let _ = store;
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fir_shape() {
        let g = fir(4).unwrap();
        assert_eq!(g.num_tasks(), 4);
        assert_eq!(g.num_ops(), 8);
        assert_eq!(g.task_edges().len(), 3);
        g.validate().unwrap();
    }

    #[test]
    fn fft_shape() {
        let g = fft_butterflies(3).unwrap();
        assert_eq!(g.num_tasks(), 4);
        assert_eq!(g.num_ops(), 3 * 3 + 2);
        assert_eq!(g.task_edges().len(), 3);
        g.validate().unwrap();
    }

    #[test]
    fn iir_shape() {
        let g = iir_biquad(2).unwrap();
        assert_eq!(g.num_tasks(), 2);
        assert_eq!(g.num_ops(), 18);
        g.validate().unwrap();
    }

    #[test]
    fn matmul_shape() {
        let g = matmul2().unwrap();
        assert_eq!(g.num_tasks(), 5);
        assert_eq!(g.num_ops(), 13);
        assert_eq!(g.task_edges().len(), 4);
        g.validate().unwrap();
    }

    #[test]
    fn kernels_partition_end_to_end() {
        use tempart_core::{IlpModel, Instance, ModelConfig, RuleKind, SolveOptions};
        use tempart_graph::{ComponentLibrary, FpgaDevice};
        use tempart_lp::{MipOptions, MipStatus};
        let lib = ComponentLibrary::date98_default();
        // The FIR is the debug-build-friendly end-to-end check; the larger
        // kernels are exercised by the release-mode example.
        {
            let (g, n, l) = (fir(3).unwrap(), 2u32, 2u32);
            let fus = lib
                .exploration_set(&[("add16", 1), ("mul8", 1), ("sub16", 1), ("alu16", 1)])
                .unwrap();
            let inst = Instance::new(g, fus, FpgaDevice::xc4010_board()).unwrap();
            let model = IlpModel::build(inst.clone(), ModelConfig::tightened(n, l)).unwrap();
            let mip = MipOptions {
                time_limit_secs: 60.0,
                ..MipOptions::default()
            };
            let out = model
                .solve(&SolveOptions {
                    mip,
                    rule: RuleKind::Paper,
                    seed_incumbent: true,
                })
                .unwrap();
            assert_eq!(out.status, MipStatus::Optimal, "{}", inst.graph().name());
            out.solution
                .unwrap()
                .validate(&inst, model.config())
                .unwrap();
        }
    }
}
