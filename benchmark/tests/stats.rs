//! Percentile, fraction and span arithmetic, and the `check` verdicts.

use tempart_benchmark::check::{compare, Bound, Verdict};
use tempart_benchmark::stats::{beyond, frac, nearest_rank, quartiles};
use tempart_benchmark::trace::{covered, layer_times, Span};

#[test]
fn nearest_rank_percentiles() {
    let v: Vec<f64> = (1..=40).rev().map(f64::from).collect();
    assert_eq!(nearest_rank(&v, 0.50), Some(20.0));
    assert_eq!(nearest_rank(&v, 0.75), Some(30.0));
    assert_eq!(nearest_rank(&v, 1.00), Some(40.0));
    assert_eq!(nearest_rank(&v, 0.01), Some(1.0));
    assert_eq!(nearest_rank(&[7.0], 0.75), Some(7.0));
    assert_eq!(nearest_rank(&[], 0.5), None);
    // 40 samples leave ten beyond the p75 rank.
    assert_eq!(beyond(40, 0.75), 10);
    assert_eq!(beyond(41, 0.75), 10);
    assert_eq!(beyond(0, 0.75), 0);
}

#[test]
fn fractions() {
    assert_eq!(frac(3.0, 4.0), 0.75);
    assert_eq!(frac(0.0, 0.0), 0.0);
    assert_eq!(frac(5.0, 0.0), 0.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
    assert_eq!(quartiles(&[4.0]), Some((4.0, 4.0, 4.0)));
    assert_eq!(quartiles(&[]), None);
}

fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
    Span {
        name,
        start,
        end,
        parent,
        spec: 0,
    }
}

#[test]
fn self_time_is_parent_minus_union_of_children() {
    // Children overlap ([1,4] and [3,5]) and one pokes out of the parent
    // ([9,12]); their union inside [0,10] is [1,5] + [9,10] = 5.
    let spans = vec![
        span("request", 0.0, 10.0, None),
        span("a", 1.0, 4.0, Some(0)),
        span("b", 3.0, 5.0, Some(0)),
        span("c", 9.0, 12.0, Some(0)),
        span("a.inner", 1.0, 2.0, Some(1)),
    ];
    let t = layer_times(&spans);
    let request = &t["request"];
    assert_eq!(request.total, 10.0);
    assert_eq!(request.self_time, 5.0);
    assert_eq!(request.child_covered, 5.0);
    assert_eq!(t["a"].self_time, 2.0);
    assert_eq!(t["a.inner"].self_time, 1.0);
    assert_eq!(t["c"].self_time, 3.0, "a leaf's self time is its duration");
    let mut no_children: Vec<(f64, f64)> = Vec::new();
    assert_eq!(covered(0.0, 1.0, &mut no_children), 0.0);
}

fn bound(lower_is_better: bool) -> Bound {
    Bound {
        name: "m".into(),
        unit: "s".into(),
        lower_is_better,
        bound: 0.10,
    }
}

#[test]
fn check_verdicts() {
    let a = [1.00, 1.01, 0.99, 1.00, 1.02];
    assert_eq!(
        compare(&a, &[1.03, 1.04, 1.02, 1.03, 1.05], &bound(true)).0,
        Verdict::Ok
    );
    assert_eq!(
        compare(&a, &[1.20, 1.21, 1.19, 1.20, 1.22], &bound(true)).0,
        Verdict::Regression
    );
    // Higher is better: the same drop is a regression.
    assert_eq!(
        compare(&a, &[0.80, 0.81, 0.79, 0.80, 0.82], &bound(false)).0,
        Verdict::Regression
    );
    // Spread wider than the bound: unresolved, unless B wins every pair.
    let noisy = [0.5, 1.5, 1.0, 0.7, 1.3];
    assert_eq!(compare(&a, &noisy, &bound(true)).0, Verdict::Unresolved);
    let better_noisy = [0.5, 0.9, 0.6, 0.95, 0.7];
    assert_eq!(compare(&a, &better_noisy, &bound(true)).0, Verdict::Ok);
    assert_eq!(compare(&a, &[], &bound(true)).0, Verdict::Missing);
}
