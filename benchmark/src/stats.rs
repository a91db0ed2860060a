//! Order statistics and fractions.

/// 1-based nearest rank of percentile `q` in `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile (`q` in `(0, 1]`) of `values`: the smallest
/// sample with at least `q·n` samples at or below it. `None` when empty.
pub fn nearest_rank(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// Samples ranked strictly beyond the nearest-rank `q` percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(rank(n, q))
}

/// `part / whole`, zero when `whole` is zero.
pub fn frac(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// The median (Python's `statistics.median`); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|q| q.1)
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(values,
/// n=4)` computes them (its default exclusive method). One value is its own
/// quartiles; `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        1 => Some((v[0], v[0], v[0])),
        _ => {
            let m = (n + 1) as i64;
            let cut = |i: i64| {
                let j = (i * m / 4).clamp(1, n as i64 - 1);
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some((cut(1), cut(2), cut(3)))
        }
    }
}
