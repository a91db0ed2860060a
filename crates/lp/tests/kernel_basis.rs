//! Basis-kernel integration tests: the Forrest–Tomlin representation must
//! agree with the legacy eta file through the public API, also across its
//! refactorizations, and the per-phase profile timers must account for the
//! solve wall clock.

use proptest::prelude::*;
use tempart_lp::{
    solve_lp, BasisUpdate, BranchAndBound, LpOptions, LpStatus, MipOptions, MipStatus, Pricing,
    Problem, Sense, SimplexProfile, VarKind,
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

/// The Forrest–Tomlin kernel under test. `refactor_every = 2` caps its
/// update chains at 8, so refactorizations (and chains spanning them)
/// happen even on small instances.
fn ft_options(pricing: Pricing) -> LpOptions {
    LpOptions {
        pricing: Some(pricing),
        basis_update: Some(BasisUpdate::FtMarkowitz),
        refactor_every: 2,
        ..LpOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The Forrest–Tomlin kernel proves the same LP relaxation as the
    /// legacy eta file, under both pricing engines.
    #[test]
    fn basis_kernels_agree_on_lp_objective(mip in random_mip()) {
        let p = build(&mip);
        for pricing in [Pricing::Dantzig, Pricing::Devex] {
            let base_opts = LpOptions { pricing: Some(pricing), ..LpOptions::default() };
            let base = solve_lp(&p, &base_opts).expect("eta lp");
            let out = solve_lp(&p, &ft_options(pricing)).expect("ft lp");
            prop_assert_eq!(out.status, base.status, "{}", pricing);
            if base.status == LpStatus::Optimal {
                prop_assert!((out.objective - base.objective).abs() < 1e-6,
                    "{}: got {} want {}", pricing, out.objective, base.objective);
                prop_assert!(p.first_violated(&out.x, 1e-5).is_none());
            }
        }
    }

    /// Full branch-and-bound (cold primal + warm dual restarts) proves the
    /// brute-force 0-1 optimum under the Forrest–Tomlin kernel.
    #[test]
    fn basis_kernels_agree_on_mip_objective(mip in random_mip()) {
        let p = build(&mip);
        let reference = brute_force(&p);
        let opts = MipOptions { lp: ft_options(Pricing::Dantzig), ..MipOptions::default() };
        let out = BranchAndBound::new(&p)
            .options(opts)
            .solve()
            .expect("solver must not error");
        match reference {
            Some(bobj) => {
                prop_assert_eq!(out.status, MipStatus::Optimal);
                prop_assert!((out.objective - bobj).abs() < 1e-5,
                    "got {} want {}", out.objective, bobj);
                prop_assert!(p.first_violated(&out.x, 1e-5).is_none());
            }
            None => prop_assert_eq!(out.status, MipStatus::Infeasible),
        }
    }
}

/// Forrest–Tomlin update chains that cross refactorizations (the update
/// cap of [`ft_options`], fill growth, or a rejected update) still prove
/// the eta file's LP optimum, under both pricing engines.
#[test]
fn ft_update_chains_cross_refactorizations() {
    for p in [timing_problem(8, 8), timing_problem(4, 12)] {
        for pricing in [Pricing::Dantzig, Pricing::Devex] {
            let base_opts = LpOptions {
                pricing: Some(pricing),
                ..LpOptions::default()
            };
            let base = solve_lp(&p, &base_opts).expect("eta lp");
            let out = solve_lp(&p, &ft_options(pricing)).expect("ft lp");
            assert_eq!(base.status, LpStatus::Optimal, "{} / {pricing}", p.name());
            assert_eq!(out.status, LpStatus::Optimal, "{} / {pricing}", p.name());
            assert!(
                out.profile.refactors > 0,
                "{} / {pricing}: {} pivots without a refactorization",
                p.name(),
                out.iterations
            );
            assert!(
                (out.objective - base.objective).abs() < 1e-6 * base.objective.abs().max(1.0),
                "{} / {pricing}: got {} want {}",
                p.name(),
                out.objective,
                base.objective
            );
            assert!(p.first_violated(&out.x, 1e-5).is_none());
        }
    }
}

/// A deterministic dense-ish LP big enough for the section timers to
/// accumulate measurable time: a capacitated assignment-like model with
/// `rows × cols` arcs.
fn timing_problem(rows: usize, cols: usize) -> Problem {
    let mut p = Problem::new("timing");
    let mut arcs = Vec::new();
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = || {
        // SplitMix64 step: deterministic, dependency-free coefficients.
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        (z ^ (z >> 31)) % 1000
    };
    for i in 0..rows {
        for j in 0..cols {
            let cost = 1.0 + (next() as f64) / 100.0;
            let v = p
                .add_var(format!("a{i}_{j}"), VarKind::Continuous, cost)
                .expect("var");
            p.set_bounds(v, 0.0, 4.0).expect("bounds");
            arcs.push((i, j, v));
        }
    }
    for i in 0..rows {
        let terms: Vec<_> = arcs
            .iter()
            .filter(|&&(r, _, _)| r == i)
            .map(|&(_, _, v)| (v, 1.0))
            .collect();
        p.add_constraint(format!("supply{i}"), terms, Sense::Eq, cols as f64)
            .expect("row");
    }
    for j in 0..cols {
        let terms: Vec<_> = arcs
            .iter()
            .filter(|&&(_, c, _)| c == j)
            .map(|&(_, _, v)| (v, 1.0))
            .collect();
        p.add_constraint(format!("demand{j}"), terms, Sense::Eq, rows as f64)
            .expect("row");
    }
    p
}

/// A deterministic banded LP with `rows` packing rows and `2 × rows`
/// columns, each meeting three nearby rows, with costs on one column in
/// 24. Its `y = B⁻ᵀc_B` and FTRAN columns stay a few percent dense, so
/// the Dantzig engine runs its hypersparse kernels on nearly every pivot.
fn hypersparse_timing_problem(rows: usize) -> Problem {
    let mut p = Problem::new("hypersparse");
    let mut state = 0x2545f4914f6cdd1du64;
    let mut next = || {
        // SplitMix64 step, as in `timing_problem`.
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        ((z ^ (z >> 31)) % 1000) as f64 / 1000.0
    };
    let mut terms = vec![Vec::new(); rows];
    for j in 0..2 * rows {
        let cost = if j % 24 == 0 { -1.0 - next() } else { 0.0 };
        let v = p
            .add_var(format!("x{j}"), VarKind::Continuous, cost)
            .expect("var");
        p.set_bounds(v, 0.0, 2.0).expect("bounds");
        for k in 0..3 {
            terms[(j / 2 + k * k) % rows].push((v, 0.5 + next()));
        }
    }
    for (i, row) in terms.into_iter().enumerate() {
        p.add_constraint(format!("cap{i}"), row, Sense::Le, 1.0 + next())
            .expect("row");
    }
    p
}

/// Satellite check: with profiling on, the per-phase section timers sum to
/// within 5% of the measured LP wall clock — no untimed hot path remains,
/// on the dense kernels and on the Dantzig engine's hypersparse ones.
#[test]
fn profile_sections_account_for_lp_time() {
    let dense = timing_problem(24, 24);
    let hypersparse = hypersparse_timing_problem(1500);
    for (p, basis_update) in [
        (&dense, BasisUpdate::Eta),
        (&dense, BasisUpdate::FtMarkowitz),
        (&hypersparse, BasisUpdate::Eta),
    ] {
        let opts = LpOptions {
            profile: true,
            basis_update: Some(basis_update),
            ..LpOptions::default()
        };
        let mut total = SimplexProfile::default();
        // Accumulate enough wall clock that timer granularity is noise.
        while total.lp_secs < 0.25 {
            let out = solve_lp(p, &opts).expect("lp solve");
            assert_eq!(out.status, LpStatus::Optimal);
            total.absorb(&out.profile);
        }
        let coverage = total.timed_secs() / total.lp_secs;
        assert!(
            (0.95..=1.01).contains(&coverage),
            "{}, {basis_update}: section timers cover {:.1}% of lp time \
             (pricing {:.1} ftran {:.1} btran {:.1} ratio {:.1} refactor {:.1} \
             update {:.1} other {:.1} vs lp {:.1} ms)",
            p.name(),
            coverage * 100.0,
            total.pricing_secs * 1e3,
            total.ftran_secs * 1e3,
            total.btran_secs * 1e3,
            total.ratio_secs * 1e3,
            total.refactor_secs * 1e3,
            total.update_secs * 1e3,
            total.other_secs * 1e3,
            total.lp_secs * 1e3,
        );
    }
}
