//! Property-based tests for the LP/MIP solver: random instances are
//! cross-checked against exhaustive enumeration and basic LP invariants.

use proptest::prelude::*;
use tempart_lp::{
    separate_cuts, solve_lp, BranchAndBound, Branching, FirstIndexRule, LpOptions, LpStatus,
    MipOptions, MipStatus, MostFractionalRule, Pricing, Problem, Sense, VarKind,
};

/// Exhaustive 0-1 reference optimum.
fn brute_force(p: &Problem) -> Option<f64> {
    let n = p.num_vars();
    let mut best: Option<f64> = None;
    for mask in 0..(1u32 << n) {
        let x: Vec<f64> = (0..n)
            .map(|i| if mask >> i & 1 == 1 { 1.0 } else { 0.0 })
            .collect();
        if p.first_violated(&x, 1e-9).is_none() {
            let obj = p.objective_value(&x);
            if best.is_none_or(|b| obj < b) {
                best = Some(obj);
            }
        }
    }
    best
}

#[derive(Debug, Clone)]
struct RandomMip {
    n: usize,
    obj: Vec<i32>,
    rows: Vec<(Vec<i32>, u8, i32)>,
}

fn random_mip() -> impl Strategy<Value = RandomMip> {
    (2usize..=7).prop_flat_map(|n| {
        let obj = prop::collection::vec(-5i32..=5, n);
        let row = (prop::collection::vec(-3i32..=3, n), 0u8..=2, -4i32..=6);
        let rows = prop::collection::vec(row, 1..=4);
        (Just(n), obj, rows).prop_map(|(n, obj, rows)| RandomMip { n, obj, rows })
    })
}

fn build(mip: &RandomMip) -> Problem {
    let mut p = Problem::new("prop");
    let vars: Vec<_> = (0..mip.n)
        .map(|i| {
            p.add_var(format!("x{i}"), VarKind::Binary, f64::from(mip.obj[i]))
                .expect("finite objective")
        })
        .collect();
    for (ri, (coeffs, sense, rhs)) in mip.rows.iter().enumerate() {
        let sense = match sense % 3 {
            0 => Sense::Le,
            1 => Sense::Ge,
            _ => Sense::Eq,
        };
        p.add_constraint(
            format!("r{ri}"),
            vars.iter()
                .zip(coeffs)
                .map(|(&v, &c)| (v, f64::from(c)))
                .collect::<Vec<_>>(),
            sense,
            f64::from(*rhs),
        )
        .expect("valid constraint");
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Branch and bound finds exactly the brute-force optimum (or proves
    /// infeasibility), regardless of the branching rule.
    #[test]
    fn bb_matches_brute_force(mip in random_mip()) {
        let p = build(&mip);
        let reference = brute_force(&p);
        for rule in 0..2 {
            let bb = BranchAndBound::new(&p);
            let bb = if rule == 0 {
                bb.rule(FirstIndexRule)
            } else {
                bb.rule(MostFractionalRule)
            };
            let out = bb.solve().expect("solver must not error");
            match reference {
                Some(bobj) => {
                    prop_assert_eq!(out.status, MipStatus::Optimal);
                    prop_assert!((out.objective - bobj).abs() < 1e-5,
                        "rule {}: got {} want {}", rule, out.objective, bobj);
                    prop_assert!(p.first_violated(&out.x, 1e-5).is_none());
                    // All binaries integral.
                    for (i, &v) in out.x.iter().enumerate() {
                        prop_assert!((v - v.round()).abs() < 1e-5, "x{} = {} not integral", i, v);
                    }
                }
                None => prop_assert_eq!(out.status, MipStatus::Infeasible),
            }
        }
    }

    /// The search is objective-deterministic: every thread count proves
    /// the same optimum (or the same infeasibility), and the stats stay
    /// coherent (per-worker nodes sum to the total; only multi-worker runs
    /// can steal, wait on a lock, or retry an incumbent offer).
    #[test]
    fn thread_counts_agree_on_objective(mip in random_mip()) {
        let p = build(&mip);
        let reference = brute_force(&p);
        for threads in [1usize, 2, 4] {
            let opts = MipOptions { threads, ..MipOptions::default() };
            let out = BranchAndBound::new(&p)
                .options(opts)
                .solve()
                .expect("solver must not error");
            match reference {
                Some(bobj) => {
                    prop_assert_eq!(out.status, MipStatus::Optimal, "threads {}", threads);
                    prop_assert!((out.objective - bobj).abs() < 1e-5,
                        "threads {}: got {} want {}", threads, out.objective, bobj);
                    prop_assert!(p.first_violated(&out.x, 1e-5).is_none());
                    prop_assert!((out.best_bound - out.objective).abs() < 1e-9);
                }
                None => prop_assert_eq!(out.status, MipStatus::Infeasible, "threads {}", threads),
            }
            prop_assert_eq!(out.stats.per_worker_nodes.len(), threads);
            prop_assert_eq!(out.stats.per_worker_nodes.iter().sum::<usize>(), out.stats.nodes);
            if threads == 1 {
                let c = &out.stats.contention;
                prop_assert_eq!(
                    (c.steals, c.steal_failures, c.lock_waits, c.incumbent_retries),
                    (0, 0, 0, 0)
                );
            }
        }
    }

    /// Every pricing rule proves the same LP relaxation: devex and Bland
    /// follow their own pivot sequences but must agree with Dantzig on
    /// status and objective.
    #[test]
    fn pricing_rules_agree_on_lp_objective(mip in random_mip()) {
        let p = build(&mip);
        let base = solve_lp(&p, &LpOptions::default()).expect("dantzig lp");
        for pricing in [Pricing::Devex, Pricing::Bland] {
            let opts = LpOptions { pricing: Some(pricing), ..LpOptions::default() };
            let out = solve_lp(&p, &opts).expect("lp solve");
            prop_assert_eq!(out.status, base.status, "pricing {}", pricing);
            if base.status == LpStatus::Optimal {
                prop_assert!((out.objective - base.objective).abs() < 1e-6,
                    "pricing {}: got {} want {}", pricing, out.objective, base.objective);
                prop_assert!(p.first_violated(&out.x, 1e-5).is_none());
            }
        }
    }

    /// Every pricing rule proves the same 0-1 optimum through the full
    /// branch-and-bound (exercising the warm-start dual path — bound
    /// flipping under devex/Bland, the legacy ratio test under Dantzig).
    #[test]
    fn pricing_rules_agree_on_mip_objective(mip in random_mip()) {
        let p = build(&mip);
        let reference = brute_force(&p);
        for pricing in [Pricing::Dantzig, Pricing::Devex, Pricing::Bland] {
            let mut opts = MipOptions::default();
            opts.lp.pricing = Some(pricing);
            let out = BranchAndBound::new(&p)
                .options(opts)
                .solve()
                .expect("solver must not error");
            match reference {
                Some(bobj) => {
                    prop_assert_eq!(out.status, MipStatus::Optimal, "pricing {}", pricing);
                    prop_assert!((out.objective - bobj).abs() < 1e-5,
                        "pricing {}: got {} want {}", pricing, out.objective, bobj);
                    prop_assert!(p.first_violated(&out.x, 1e-5).is_none());
                }
                None => prop_assert_eq!(out.status, MipStatus::Infeasible, "pricing {}", pricing),
            }
        }
    }

    /// Every separated cut is globally valid: it may slice off the
    /// fractional LP point it was generated from, but it must never cut a
    /// feasible 0-1 point — the instances are small enough to check every
    /// one of them, not just the optimum.
    #[test]
    fn separated_cuts_never_cut_feasible_integer_points(mip in random_mip()) {
        let p = build(&mip);
        let lp = solve_lp(&p, &LpOptions::default()).expect("lp solve");
        if lp.status == LpStatus::Optimal {
            let cuts = separate_cuts(&p, &lp.x, 1e-4);
            for cut in &cuts {
                // A cut is only worth emitting if it actually cuts the
                // fractional point.
                prop_assert!(cut.violation(&lp.x) > 0.0,
                    "{} cut not violated at its own separation point", cut.family);
            }
            for mask in 0..(1u32 << mip.n) {
                let x: Vec<f64> = (0..mip.n)
                    .map(|i| if mask >> i & 1 == 1 { 1.0 } else { 0.0 })
                    .collect();
                if p.first_violated(&x, 1e-9).is_none() {
                    for cut in &cuts {
                        prop_assert!(cut.violation(&x) <= 1e-6,
                            "{} cut slices feasible point {:?} by {}",
                            cut.family, x, cut.violation(&x));
                    }
                }
            }
        }
    }

    /// The full scale stack — root cuts, node propagation, and pseudo-cost
    /// branching — still proves exactly the brute-force optimum (or the
    /// same infeasibility).
    #[test]
    fn scale_stack_matches_brute_force(mip in random_mip()) {
        let p = build(&mip);
        let reference = brute_force(&p);
        let opts = MipOptions {
            cuts: true,
            propagate: true,
            branching: Branching::Pseudocost,
            ..MipOptions::default()
        };
        let out = BranchAndBound::new(&p)
            .options(opts)
            .solve()
            .expect("solver must not error");
        match reference {
            Some(bobj) => {
                prop_assert_eq!(out.status, MipStatus::Optimal);
                prop_assert!((out.objective - bobj).abs() < 1e-5,
                    "scale stack: got {} want {}", out.objective, bobj);
                prop_assert!(p.first_violated(&out.x, 1e-5).is_none());
            }
            None => prop_assert_eq!(out.status, MipStatus::Infeasible),
        }
    }

    /// The LP relaxation is a valid lower bound on the integer optimum, and
    /// its solution satisfies all constraints.
    #[test]
    fn lp_relaxation_bounds_integer_optimum(mip in random_mip()) {
        let p = build(&mip);
        let lp = solve_lp(&p, &LpOptions::default()).expect("lp solve");
        if let Some(bobj) = brute_force(&p) {
            // A feasible integer point exists, so the relaxation is feasible.
            prop_assert_eq!(lp.status, LpStatus::Optimal);
            prop_assert!(lp.objective <= bobj + 1e-5,
                "lp bound {} above integer optimum {}", lp.objective, bobj);
            prop_assert!(p.first_violated(&lp.x, 1e-5).is_none());
            for (i, &v) in lp.x.iter().enumerate() {
                prop_assert!((-1e-7..=1.0 + 1e-7).contains(&v), "x{} = {} out of box", i, v);
            }
        }
    }
}
