//! The fused Newton-step kernels against the composed kernels they
//! replaced, bit for bit: the operator as five separate products over `A`
//! and its transpose, the Jacobi-CG loop as eight vector-kernel calls per
//! iteration. Every check runs on the pool and under the serial switch.

use super::*;
use crate::test_support::{assert_same_bits, on_pool_and_serial, same_bits, Rng};
use dme_par::{VEC_GRAIN, VEC_PAR_CUTOFF};
use proptest::prelude::*;

/// The composed operator: `out = (P + diag(h) + AᵀDA + w·ggᵀ)·x` as
/// `P·x`, `A·x`, the `D` scaling, the transpose gather and an axpy, with
/// `tm` (one entry per row of `A`) and `tn` (one per column) as scratch.
#[allow(clippy::too_many_arguments)]
fn composed_apply_k(
    p: &CsrMatrix,
    a: &CsrMatrix,
    d: &[f64],
    row: Option<&PreparedRow>,
    x: &[f64],
    out: &mut [f64],
    tm: &mut [f64],
    tn: &mut [f64],
) {
    p.mul_vec_into(x, out);
    a.mul_vec_into(x, tm);
    for (t, &di) in tm.iter_mut().zip(d) {
        *t *= di;
    }
    a.mul_transpose_vec_into(tm, tn);
    vecops::axpy(1.0, tn, out);
    if let Some(r) = row {
        for j in 0..x.len() {
            out[j] += r.hessian[j] * x[j];
        }
        vecops::axpy(r.weight * vecops::dot(&r.gradient, x), &r.gradient, out);
    }
}

/// The CG update `x ← x + α·p; r ← r + β·q`, element by element.
fn cg_update(x: &mut [f64], alpha: f64, p: &[f64], r: &mut [f64], beta: f64, q: &[f64]) {
    for i in 0..x.len() {
        x[i] += alpha * p[i];
        r[i] += beta * q[i];
    }
}

/// `z ← d ⊙ r`, the Jacobi preconditioner's apply.
fn hadamard(d: &[f64], r: &[f64], z: &mut [f64]) {
    for i in 0..z.len() {
        z[i] = d[i] * r[i];
    }
}

/// `p ← r + β·p`, the direction update.
fn xpby(r: &[f64], beta: f64, p: &mut [f64]) {
    for (pi, ri) in p.iter_mut().zip(r) {
        *pi = ri + beta * *pi;
    }
}

/// The composed Jacobi-CG loop, one vector kernel per step.
#[allow(clippy::too_many_arguments)]
fn composed_cg(
    pm: &CsrMatrix,
    a: &CsrMatrix,
    d: &[f64],
    row: Option<&PreparedRow>,
    p_diag: &[f64],
    b: &[f64],
    x: &mut [f64],
    rel_tol: f64,
    abs_tol: f64,
) -> Result<CgSolve, SolveError> {
    let n = b.len();
    let m = a.nrows();
    let (mut r, mut z, mut p, mut kp) = (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let (mut sm, mut sn) = (vec![0.0; m], vec![0.0; n]);
    let mut inv_prec = vec![1e-12f64; n];
    for j in 0..n {
        inv_prec[j] += p_diag[j];
    }
    for (i, &di) in d.iter().enumerate().take(m) {
        for (c, v) in a.row(i) {
            inv_prec[c] += di * v * v;
        }
    }
    if let Some(r) = row {
        for ((ip, &h), &g) in inv_prec.iter_mut().zip(&r.hessian).zip(&r.gradient) {
            *ip += h + r.weight * g * g;
        }
    }
    for v in &mut inv_prec {
        *v = 1.0 / *v;
    }
    let b_norm = vecops::norm2(b).max(1e-300);
    r.copy_from_slice(b);
    hadamard(&inv_prec, &r, &mut z);
    let mut rz = vecops::dot(&r, &z);
    p.copy_from_slice(&z);
    let tol = (rel_tol * b_norm).min(abs_tol.max(rel_tol * b_norm * 1e-3));
    let mut iterations = 0usize;
    for _ in 0..CG_MAX_ITER {
        if vecops::norm2(&r) <= tol {
            break;
        }
        composed_apply_k(pm, a, d, row, &p, &mut kp, &mut sm, &mut sn);
        vecops::axpy(1e-12, &p, &mut kp);
        let pkp = vecops::dot(&p, &kp);
        if !pkp.is_finite() || pkp <= 0.0 {
            if pkp < 0.0 {
                return Err(SolveError::Numerical(
                    "CG encountered negative curvature; P is not PSD".into(),
                ));
            }
            break;
        }
        iterations += 1;
        let alpha = rz / pkp;
        cg_update(x, alpha, &p, &mut r, -alpha, &kp);
        hadamard(&inv_prec, &r, &mut z);
        let rz_new = vecops::dot(&r, &z);
        let beta = rz_new / rz.max(1e-300);
        rz = rz_new;
        xpby(&z, beta, &mut p);
    }
    let rel_residual = vecops::norm2(&r) / b_norm;
    let capped = iterations == CG_MAX_ITER && vecops::norm2(&r) > tol;
    if x.iter().any(|v| !v.is_finite()) {
        return Err(SolveError::Numerical(
            "CG produced non-finite iterate".into(),
        ));
    }
    Ok(CgSolve {
        iterations,
        rel_residual,
        capped,
    })
}

/// A random condensed system: `P`, `A` with rows of up to `max_row`
/// entries, the barrier weights (zeros included) and an optional
/// quadratic row.
struct Program {
    p: CsrMatrix,
    a: CsrMatrix,
    d: Vec<f64>,
    row: Option<PreparedRow>,
}

/// Shapes of [`program`].
#[derive(Clone, Copy)]
enum Shape {
    /// Any `P` (not necessarily PSD) and weights over twelve decades.
    Wild,
    /// Diagonally dominant `P` (PSD) and weights over twelve decades.
    Psd,
    /// Diagonally dominant `P` with a unit floor and weights in `[0.5, 2]`:
    /// CG converges in tens of iterations at any size.
    Tame,
}

/// A coefficient from a small palette (so rows cancel exactly) or uniform.
fn coefficient(rng: &mut Rng) -> f64 {
    if rng.chance(0.5) {
        rng.pick(&[-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    } else {
        rng.range(-3.0, 3.0)
    }
}

fn program(
    rng: &mut Rng,
    n: usize,
    m: usize,
    max_row: usize,
    shape: Shape,
    with_row: bool,
) -> Program {
    let rows: Vec<Vec<(usize, f64)>> = (0..m)
        .map(|_| {
            let len = rng.below(max_row + 1);
            (0..len).map(|_| (rng.below(n), coefficient(rng))).collect()
        })
        .collect();
    let a = CsrMatrix::from_rows(n, &rows);
    let mut trips = Vec::new();
    let mut off_abs = vec![0.0f64; n];
    for _ in 0..rng.below(n + 1) {
        let (i, j) = (rng.below(n), rng.below(n));
        if i != j {
            let v = 0.25 * coefficient(rng);
            trips.push((i, j, v));
            trips.push((j, i, v));
            off_abs[i] += v.abs();
            off_abs[j] += v.abs();
        }
    }
    for (j, &off) in off_abs.iter().enumerate() {
        let diag = if rng.chance(0.3) {
            0.0
        } else {
            rng.range(0.0, 4.0)
        };
        let v = match shape {
            Shape::Wild => diag,
            Shape::Psd => diag + off,
            Shape::Tame => 1.0 + diag + off,
        };
        trips.push((j, j, v));
    }
    let p = CsrMatrix::from_triplets(n, n, &trips);
    let d = (0..m + usize::from(with_row))
        .map(|_| match shape {
            Shape::Tame => rng.range(0.5, 2.0),
            _ if rng.chance(0.2) => 0.0,
            _ if rng.chance(0.2) => 1.0,
            _ => rng.decades(-6.0, 6.0),
        })
        .collect();
    let row = with_row.then(|| PreparedRow {
        hessian: (0..n)
            .map(|_| {
                if rng.chance(0.5) {
                    0.0
                } else {
                    rng.range(0.0, 2.0)
                }
            })
            .collect(),
        gradient: (0..n)
            .map(|_| {
                if rng.chance(0.3) {
                    0.0
                } else {
                    coefficient(rng)
                }
            })
            .collect(),
        weight: match shape {
            Shape::Tame => rng.range(0.5, 2.0),
            _ => rng.decades(-3.0, 3.0),
        },
        k_inv_g: Vec::new(),
        denom: 1.0,
    });
    Program { p, a, d, row }
}

/// A vector with signed zeros, small integers and, when asked, ±∞ and NaN.
fn operand(rng: &mut Rng, n: usize, non_finite: bool) -> Vec<f64> {
    (0..n)
        .map(|_| {
            if non_finite && rng.chance(0.05) {
                rng.pick(&[f64::INFINITY, f64::NEG_INFINITY, f64::NAN])
            } else if rng.chance(0.4) {
                rng.pick(&[0.0, -0.0, 1.0, -1.0, 0.5, 2.0])
            } else {
                rng.range(-3.0, 3.0)
            }
        })
        .collect()
}

/// [`apply_k`] on `x` against [`composed_apply_k`], twice on one scratch.
fn check_operator(prog: &Program, x: &[f64]) {
    let n = x.len();
    let m = prog.a.nrows();
    let row = prog.row.as_ref();
    let mut want = vec![0.0; n];
    let (mut tm, mut tn_c) = (vec![0.0; m], vec![0.0; n]);
    composed_apply_k(
        &prog.p, &prog.a, &prog.d, row, x, &mut want, &mut tm, &mut tn_c,
    );
    let mut xp = x.to_vec();
    xp.resize(n + PAD_COLUMNS, 0.0);
    let mut tn = vec![0.0; n + PAD_COLUMNS];
    for pass in 0..2 {
        let mut got = vec![f64::NAN; n];
        apply_k(&prog.p, &prog.a, &prog.d, row, &xp, &mut got, &mut tn);
        assert_same_bits(&format!("K·x (product {pass})"), &got, &want);
        assert!(
            tn[..n].iter().all(|v| v.to_bits() == 0),
            "the scatter scratch is left at +0.0"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random programs with rows longer than the padded width, rows whose
    /// product is `±0.0`, zero barrier weights, and ±∞/NaN in `x`.
    #[test]
    fn operator_matches_the_composed_products(
        seed in any::<u64>(),
        n in 1usize..40,
        m in 0usize..70,
        with_row in any::<bool>(),
        non_finite in any::<bool>(),
    ) {
        let mut rng = Rng::new(seed);
        let prog = program(&mut rng, n, m, 2 * ROW_WIDTH, Shape::Wild, with_row);
        let x = operand(&mut rng, n, non_finite);
        on_pool_and_serial(|| check_operator(&prog, &x));
    }
}

/// Lengths on both sides of one reduction chunk and of the pool cutoff.
const EDGE_LENGTHS: [usize; 7] = [
    1,
    VEC_GRAIN - 1,
    VEC_GRAIN,
    VEC_GRAIN + 1,
    2 * VEC_GRAIN + 7,
    VEC_PAR_CUTOFF,
    VEC_PAR_CUTOFF + 3,
];

#[test]
fn operator_matches_the_composed_products_across_chunk_edges() {
    for (k, &n) in EDGE_LENGTHS.iter().enumerate() {
        let mut rng = Rng::new(k as u64);
        let prog = program(&mut rng, n, 2 * n, ROW_WIDTH + 2, Shape::Wild, k % 2 == 0);
        let x = operand(&mut rng, n, k % 3 == 0);
        on_pool_and_serial(|| check_operator(&prog, &x));
    }
}

/// The three CG passes against the vector kernels they fuse, on
/// ordinary vectors and on vectors whose every product is `-0.0`, so a
/// chunk's sum depends on starting from `<f64 as Sum>`'s `-0.0`.
#[test]
fn cg_passes_match_the_vector_kernels() {
    for (k, &n) in EDGE_LENGTHS.iter().enumerate() {
        for negative_zeros in [false, true] {
            let mut rng = Rng::new(100 + k as u64);
            let prog = program(&mut rng, n, n, ROW_WIDTH, Shape::Psd, true);
            let row = prog.row.as_ref().expect("a quadratic row");
            let tiny = |rng: &mut Rng| if rng.chance(0.5) { 1e-200 } else { -1e-200 };
            let p: Vec<f64> = (0..n)
                .map(|_| {
                    if negative_zeros {
                        -0.0
                    } else {
                        rng.range(-1.0, 1.0)
                    }
                })
                .collect();
            let kp: Vec<f64> = (0..n)
                .map(|_| {
                    if negative_zeros {
                        0.0
                    } else {
                        rng.range(-1.0, 1.0)
                    }
                })
                .collect();
            let r0: Vec<f64> = (0..n)
                .map(|_| {
                    if negative_zeros {
                        tiny(&mut rng)
                    } else {
                        rng.range(-1.0, 1.0)
                    }
                })
                .collect();
            let inv: Vec<f64> = (0..n)
                .map(|_| {
                    if negative_zeros {
                        -1.0
                    } else {
                        rng.range(0.1, 2.0)
                    }
                })
                .collect();
            let x0 = operand(&mut rng, n, false);
            let z0: Vec<f64> = (0..n)
                .map(|_| {
                    if negative_zeros {
                        -rng.range(0.1, 1.0)
                    } else {
                        rng.range(-1.0, 1.0)
                    }
                })
                .collect();
            let g: Vec<f64> = if negative_zeros {
                vec![0.0; n]
            } else {
                row.gradient.clone()
            };
            let alpha = if negative_zeros {
                1.0
            } else {
                rng.range(0.1, 2.0)
            };
            let beta = rng.range(0.0, 1.0);
            on_pool_and_serial(|| {
                // Pass A, the operator's last pass, on the direction `p`.
                let mut want = vec![0.0; n];
                let (mut tm, mut tn_c) = (vec![0.0; n], vec![0.0; n]);
                composed_apply_k(
                    &prog.p,
                    &prog.a,
                    &prog.d,
                    Some(row),
                    &p,
                    &mut want,
                    &mut tm,
                    &mut tn_c,
                );
                vecops::axpy(1e-12, &p, &mut want);
                let want_pkp = vecops::dot(&p, &want);
                let mut pp = p.clone();
                pp.resize(n + PAD_COLUMNS, 0.0);
                let mut tn = vec![0.0; n + PAD_COLUMNS];
                scatter_normal(&prog.a, &prog.d, &pp, &mut tn);
                let c = row.weight * vecops::dot(&row.gradient, &p);
                let mut got = vec![0.0; n];
                let pkp = product_pass(&prog.p, Some((row, c)), &pp, &mut tn, &mut got);
                assert_same_bits("kp", &got, &want);
                assert!(
                    same_bits(pkp, want_pkp),
                    "p·kp at n = {n}: {pkp:e} vs {want_pkp:e}"
                );

                // Pass B.
                let (mut x1, mut r1, mut z1) = (x0.clone(), r0.clone(), vec![0.0; n]);
                cg_update(&mut x1, alpha, &p, &mut r1, -alpha, &kp);
                hadamard(&inv, &r1, &mut z1);
                let want_b = [vecops::dot(&r1, &z1), vecops::norm_sq(&r1)];
                let (mut x2, mut r2, mut z2) = (x0.clone(), r0.clone(), vec![0.0; n]);
                let got_b = step_pass(alpha, &p, &kp, &inv, &mut x2, &mut r2, &mut z2);
                assert_same_bits("x", &x2, &x1);
                assert_same_bits("r", &r2, &r1);
                assert_same_bits("z", &z2, &z1);
                for (got, want) in got_b.iter().zip(want_b) {
                    assert!(
                        same_bits(*got, want),
                        "[r·z, r·r] at n = {n}: {got:e} vs {want:e}"
                    );
                }

                // Pass C, with and without a quadratic row.
                let mut p1 = p.clone();
                xpby(&z0, beta, &mut p1);
                let want_gp = vecops::dot(&g, &p1);
                let mut p2 = pp.clone();
                let gp = direction_pass(beta, &z0, Some(&g), &mut p2);
                assert_same_bits("p", &p2[..n], &p1);
                assert!(
                    same_bits(gp, want_gp),
                    "g·p at n = {n}: {gp:e} vs {want_gp:e}"
                );
                let mut p3 = pp.clone();
                assert_eq!(direction_pass(beta, &z0, None, &mut p3), 0.0);
                assert_same_bits("p without a row", &p3[..n], &p1);
                assert!(
                    p3[n..].iter().all(|v| v.to_bits() == 0),
                    "the padding stays +0.0"
                );
            });
        }
    }
}

/// [`CgScratch::solve`] against [`composed_cg`]: iterations, `capped`,
/// `rel_residual` and `x`, or the same error; a second solve on the same
/// scratch repeats the first.
fn check_cg(prog: &Program, b: &[f64], rel_tol: f64, abs_tol: f64) {
    let n = b.len();
    let row = prog.row.as_ref();
    let p_diag = prog.p.diag();
    let mut x_want = vec![0.0; n];
    let want = composed_cg(
        &prog.p,
        &prog.a,
        &prog.d,
        row,
        &p_diag,
        b,
        &mut x_want,
        rel_tol,
        abs_tol,
    );
    let mut scratch = CgScratch::new(n);
    for solve in 0..2 {
        let mut x_got = vec![0.0; n];
        let got = scratch.solve(
            &prog.p, &prog.a, &prog.d, row, &p_diag, b, &mut x_got, rel_tol, abs_tol,
        );
        match (&got, &want) {
            (Ok(g), Ok(w)) => {
                assert_eq!(g.iterations, w.iterations, "iterations (solve {solve})");
                assert_eq!(g.capped, w.capped, "capped (solve {solve})");
                assert!(
                    same_bits(g.rel_residual, w.rel_residual),
                    "rel_residual (solve {solve}): {:e} vs {:e}",
                    g.rel_residual,
                    w.rel_residual
                );
            }
            (Err(g), Err(w)) => assert_eq!(g.to_string(), w.to_string()),
            _ => panic!("fused {got:?} vs composed {want:?}"),
        }
        assert_same_bits(&format!("x (solve {solve})"), &x_got, &x_want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Small PSD programs at three accuracy targets; the zero target runs
    /// every solve that does not break down into the iteration cap.
    #[test]
    fn cg_matches_the_composed_loop(
        seed in any::<u64>(),
        n in 1usize..30,
        m in 0usize..50,
        with_row in any::<bool>(),
        target in 0usize..3,
    ) {
        let mut rng = Rng::new(seed);
        let prog = program(&mut rng, n, m, 2 * ROW_WIDTH, Shape::Psd, with_row);
        let b = operand(&mut rng, n, false);
        let (rel_tol, abs_tol) = [(1e-10, 1e-13), (1e-4, 1e-6), (0.0, 0.0)][target];
        on_pool_and_serial(|| check_cg(&prog, &b, rel_tol, abs_tol));
    }
}

/// Multi-chunk solves: two chunks, three, and one past the pool cutoff,
/// where the composed loop's reductions fan out.
#[test]
fn cg_matches_the_composed_loop_across_chunk_edges() {
    for (k, n) in [VEC_GRAIN + 1, 2 * VEC_GRAIN + 7, VEC_PAR_CUTOFF + 3]
        .into_iter()
        .enumerate()
    {
        let with_row = k != 1;
        let mut rng = Rng::new(200 + k as u64);
        let prog = program(&mut rng, n, 2 * n, ROW_WIDTH + 1, Shape::Tame, with_row);
        let b = operand(&mut rng, n, false);
        on_pool_and_serial(|| check_cg(&prog, &b, 1e-6, 1e-12));
    }
}

#[test]
fn cg_hits_its_cap_like_the_composed_loop() {
    let mut rng = Rng::new(7);
    let prog = program(&mut rng, 40, 80, ROW_WIDTH, Shape::Psd, true);
    let b = operand(&mut rng, 40, false);
    let mut x = vec![0.0; 40];
    let p_diag = prog.p.diag();
    let stats = CgScratch::new(40)
        .solve(
            &prog.p,
            &prog.a,
            &prog.d,
            prog.row.as_ref(),
            &p_diag,
            &b,
            &mut x,
            0.0,
            0.0,
        )
        .expect("a PSD program");
    assert!(
        stats.capped,
        "a zero target on this program runs into the cap"
    );
    on_pool_and_serial(|| check_cg(&prog, &b, 0.0, 0.0));
}
