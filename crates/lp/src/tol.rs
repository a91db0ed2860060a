//! Named exact-comparison and tolerance helpers.
//!
//! This module is the single place in `tempart-lp` where raw `f64`
//! equality against literals is allowed (it is the allow-listed helper
//! module of the `tempart-audit` `float-eq` lint). Everything here is
//! `#[inline(always)]` and compiles to the identical comparison it
//! replaces, so routing a call site through these helpers never changes
//! behaviour — the Dantzig golden node/iteration pins stay bit-identical.
//!
//! Two families, with different intent:
//!
//! * **Exact structural tests** ([`is_zero`], [`is_nonzero`],
//!   [`is_neg_infinite`], [`is_pos_infinite`]): these are *not* tolerance
//!   checks. A sparsity skip (`x == 0.0`) asks "was this entry never
//!   touched / exactly cancelled", and a bound-freedom test
//!   (`lo == -inf`) asks "is this bound absent". Replacing them with a
//!   tolerance would be wrong: a value of `1e-300` is numerically tiny
//!   but structurally nonzero, and skipping it would corrupt a factor
//!   or a pivot row.
//! * **Tolerance comparisons** stay where they are in the solver (they
//!   compare against named option fields like `feas_tol`, never against
//!   bare literals), so they are not findings of the lint in the first
//!   place.

/// Exact structural zero test (sparsity skip), **not** a tolerance check.
#[inline(always)]
pub(crate) fn is_zero(v: f64) -> bool {
    v == 0.0
}

/// Exact structural nonzero test (sparsity guard), **not** a tolerance
/// check.
#[inline(always)]
pub(crate) fn is_nonzero(v: f64) -> bool {
    v != 0.0
}

/// Bits of `v` with `−0` folded into `+0`, for tests that hold a
/// pattern-tracked kernel to its dense counterpart exactly: the two may
/// differ only in the sign of a zero.
#[cfg(test)]
pub(crate) fn exact_bits(v: f64) -> u64 {
    if is_zero(v) {
        0
    } else {
        v.to_bits()
    }
}

/// Relative stability floor for a Forrest–Tomlin replacement diagonal:
/// the transformed pivot must not be smaller than this fraction of the
/// largest spike entry, or the update is rejected and the caller
/// refactorizes instead. Deliberately loose — FT updates that pass it are
/// cheap, and the dynamic refactorization schedule bounds how long a
/// marginal factorization can live.
pub(crate) const FT_PIVOT_REL: f64 = 1e-9;

/// Whether a Forrest–Tomlin replacement diagonal `d` is numerically safe
/// to commit, given the largest spike magnitude `spike_max` and the
/// absolute pivot tolerance the factorization itself uses.
#[inline(always)]
pub(crate) fn ft_pivot_ok(d: f64, spike_max: f64, pivot_tol: f64) -> bool {
    d.abs() > pivot_tol && d.abs() >= FT_PIVOT_REL * spike_max
}

/// Whether a lower bound is absent (exactly `-∞`).
#[inline(always)]
pub(crate) fn is_neg_infinite(v: f64) -> bool {
    v == f64::NEG_INFINITY
}

/// Whether an upper bound is absent (exactly `+∞`).
#[inline(always)]
pub(crate) fn is_pos_infinite(v: f64) -> bool {
    v == f64::INFINITY
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactness_is_preserved() {
        assert!(is_zero(0.0));
        assert!(is_zero(-0.0));
        assert!(!is_zero(1e-300), "structurally nonzero, however tiny");
        assert!(is_nonzero(f64::MIN_POSITIVE));
        assert!(!is_nonzero(0.0));
        assert!(is_neg_infinite(f64::NEG_INFINITY));
        assert!(!is_neg_infinite(f64::MIN));
        assert!(is_pos_infinite(f64::INFINITY));
        assert!(!is_pos_infinite(f64::MAX));
        assert!(!is_zero(f64::NAN) && !is_nonzero(f64::NAN) || is_nonzero(f64::NAN));
    }

    #[test]
    fn ft_pivot_acceptance() {
        // Comfortably large pivot passes; an exactly-zero or relatively
        // tiny one is rejected.
        assert!(ft_pivot_ok(1.0, 1.0, 1e-10));
        assert!(ft_pivot_ok(-0.5, 10.0, 1e-10));
        assert!(!ft_pivot_ok(0.0, 1.0, 1e-10));
        assert!(!ft_pivot_ok(1e-12, 1.0, 1e-10));
        assert!(!ft_pivot_ok(1e-8, 1e3, 1e-10), "below the relative floor");
    }
}
