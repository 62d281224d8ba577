//! Deterministic dense-vector kernels shared by the QP solvers.
//!
//! Every reduction here is computed over the fixed [`VEC_GRAIN`]-sized
//! chunk decomposition of the input with the per-chunk partial sums
//! combined in chunk order. The serial and parallel paths therefore
//! produce **bitwise identical** results for any thread count — the only
//! thing parallelism changes is which thread evaluates which chunk.
//! The element-wise [`axpy`] is trivially deterministic.
//!
//! All kernels fall back to a plain serial loop below
//! [`VEC_PAR_CUTOFF`] elements, where fork-join overhead would dominate.

use crate::{
    par_chunks_mut, par_fill, par_reduce_sum, would_parallelize, VEC_GRAIN, VEC_PAR_CUTOFF,
};
use std::ops::Range;

/// The value `<f64 as Sum>` starts from (`-0.0`, the additive identity
/// that keeps a sum of negative zeros negative). A fused kernel that
/// reproduces a reduction here starts each chunk's sum from it.
pub const SUM_IDENTITY: f64 = -0.0;

fn chunk_dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Sums `K` reductions over the [`VEC_GRAIN`] chunks of `0..len`
/// serially, in exactly the order [`par_reduce_sum`] sums one: `f`
/// returns each chunk's partial sums (each accumulated in index order
/// from [`SUM_IDENTITY`]), and the partials are added in chunk order. A
/// single chunk's partials are the result as they are; an empty range
/// sums to `+0.0`.
///
/// Kernels that fuse several reductions into one pass over their vectors
/// call this, so their sums are bitwise those of the separate [`dot`]
/// and [`norm_sq`] calls they replace.
pub fn chunked_sums<const K: usize>(
    len: usize,
    mut f: impl FnMut(Range<usize>) -> [f64; K],
) -> [f64; K] {
    if len <= VEC_GRAIN {
        return if len == 0 { [0.0; K] } else { f(0..len) };
    }
    let mut total = [SUM_IDENTITY; K];
    for start in (0..len).step_by(VEC_GRAIN) {
        let part = f(start..(start + VEC_GRAIN).min(len));
        for (t, p) in total.iter_mut().zip(part) {
            *t += p;
        }
    }
    total
}

/// `par_reduce_sum` over the [`VEC_GRAIN`] chunks at or above
/// [`VEC_PAR_CUTOFF`] elements, the same chunks summed serially below it
/// (where a fork-join costs more than it saves): the bits are the same.
fn reduce_sum(len: usize, f: impl Fn(Range<usize>) -> f64 + Sync) -> f64 {
    if would_parallelize(len, VEC_PAR_CUTOFF) {
        par_reduce_sum(len, VEC_GRAIN, f)
    } else {
        chunked_sums(len, |r| [f(r)])[0]
    }
}

/// Dot product `aᵀb` with a fixed chunked reduction order.
///
/// # Panics
/// Panics if the lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    reduce_sum(a.len(), |r| chunk_dot(&a[r.clone()], &b[r]))
}

/// Squared Euclidean norm `‖v‖²` with a fixed chunked reduction order.
pub fn norm_sq(v: &[f64]) -> f64 {
    reduce_sum(v.len(), |r| chunk_dot(&v[r.clone()], &v[r]))
}

/// Euclidean norm `‖v‖`.
pub fn norm2(v: &[f64]) -> f64 {
    norm_sq(v).sqrt()
}

/// Infinity norm `max |vᵢ|` (order-independent, so parallel-safe by
/// construction).
pub fn inf_norm(v: &[f64]) -> f64 {
    if !would_parallelize(v.len(), VEC_PAR_CUTOFF) {
        return v.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    }
    let chunks = v.len().div_ceil(VEC_GRAIN);
    let mut partials = vec![0.0f64; chunks];
    par_fill(&mut partials, 1, |t| {
        let start = t * VEC_GRAIN;
        let end = (start + VEC_GRAIN).min(v.len());
        v[start..end].iter().fold(0.0f64, |m, x| m.max(x.abs()))
    });
    partials.iter().fold(0.0f64, |m, x| m.max(*x))
}

/// `y ← y + alpha·x`, element-wise.
///
/// # Panics
/// Panics if the lengths differ.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    if !would_parallelize(y.len(), VEC_PAR_CUTOFF) {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
        return;
    }
    par_chunks_mut(y, VEC_GRAIN, |start, chunk| {
        for (k, yi) in chunk.iter_mut().enumerate() {
            *yi += alpha * x[start + k];
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lock_switch, set_force_serial};

    fn vec_of(n: usize, f: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..n).map(f).collect()
    }

    /// Lengths on both sides of one chunk and of the parallel cutoff.
    const EDGE_LENGTHS: [usize; 12] = [
        0,
        1,
        VEC_GRAIN - 1,
        VEC_GRAIN,
        VEC_GRAIN + 1,
        2 * VEC_GRAIN + 5,
        VEC_PAR_CUTOFF - 1,
        VEC_PAR_CUTOFF,
        VEC_PAR_CUTOFF + 1,
        VEC_PAR_CUTOFF + VEC_GRAIN / 2,
        2 * VEC_PAR_CUTOFF,
        3 * VEC_PAR_CUTOFF + 17,
    ];

    /// Vector pairs whose chunks sum to ordinary values, to `-0.0` (every
    /// product a negative zero) and to `+0.0`.
    fn pairs(n: usize) -> Vec<(Vec<f64>, Vec<f64>)> {
        vec![
            (
                vec_of(n, |i| (i as f64 * 0.123).sin()),
                vec_of(n, |i| (i as f64 * 0.456).cos()),
            ),
            (vec_of(n, |_| -0.0), vec_of(n, |_| 1.0)),
            (
                vec_of(n, |i| {
                    if (i / VEC_GRAIN).is_multiple_of(2) {
                        -0.0
                    } else {
                        0.0
                    }
                }),
                vec_of(n, |i| 1.0 + i as f64),
            ),
        ]
    }

    #[test]
    fn sum_identity_is_the_std_sum_start() {
        let empty: f64 = std::iter::empty::<f64>().sum();
        assert_eq!(empty.to_bits(), SUM_IDENTITY.to_bits());
    }

    #[test]
    fn dot_matches_serial_bitwise() {
        let _switch = lock_switch();
        for n in EDGE_LENGTHS {
            for (a, b) in pairs(n) {
                let par = (dot(&a, &b), norm_sq(&a));
                // The reduction as it was defined before the cutoff: the
                // pool's chunked sum at every length.
                let pooled = (
                    par_reduce_sum(n, VEC_GRAIN, |r| chunk_dot(&a[r.clone()], &b[r])),
                    par_reduce_sum(n, VEC_GRAIN, |r| chunk_dot(&a[r.clone()], &a[r])),
                );
                set_force_serial(true);
                let ser = (dot(&a, &b), norm_sq(&a));
                set_force_serial(false);
                for (got, want) in [(par, ser), (par, pooled)] {
                    assert_eq!(got.0.to_bits(), want.0.to_bits(), "dot, n = {n}");
                    assert_eq!(got.1.to_bits(), want.1.to_bits(), "norm_sq, n = {n}");
                }
            }
        }
    }

    #[test]
    fn chunked_sums_fuse_reductions_bitwise() {
        for n in EDGE_LENGTHS {
            for (a, b) in pairs(n) {
                let [ab, aa] = chunked_sums(n, |r| {
                    let (mut ab, mut aa) = (SUM_IDENTITY, SUM_IDENTITY);
                    for i in r {
                        ab += a[i] * b[i];
                        aa += a[i] * a[i];
                    }
                    [ab, aa]
                });
                assert_eq!(ab.to_bits(), dot(&a, &b).to_bits(), "n = {n}");
                assert_eq!(aa.to_bits(), norm_sq(&a).to_bits(), "n = {n}");
            }
        }
    }

    #[test]
    fn reductions_below_the_cutoff_stay_on_the_caller() {
        let _switch = lock_switch();
        let caller = std::thread::current().id();
        for n in [VEC_GRAIN + 1, VEC_PAR_CUTOFF - 1] {
            let v = reduce_sum(n, |r| {
                assert_eq!(std::thread::current().id(), caller, "n = {n} forked");
                r.len() as f64
            });
            assert_eq!(v, n as f64);
        }
    }

    #[test]
    fn norms_agree_with_reference() {
        let v = vec_of(1000, |i| i as f64 - 500.0);
        let reference: f64 = v.iter().map(|x| x * x).sum();
        assert!((norm_sq(&v) - reference).abs() <= 1e-6 * reference);
        assert_eq!(inf_norm(&v), 500.0);
        assert_eq!(inf_norm(&[]), 0.0);
    }

    #[test]
    fn axpy_is_elementwise() {
        let n = VEC_PAR_CUTOFF + 3;
        let x = vec_of(n, |i| i as f64);
        let mut y = vec_of(n, |_| 1.0);
        axpy(2.0, &x, &mut y);
        assert_eq!(y[10], 21.0);
        assert_eq!(y[n - 1], 1.0 + 2.0 * (n - 1) as f64);
    }
}
