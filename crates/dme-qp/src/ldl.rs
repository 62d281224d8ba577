//! Sparse direct Newton backend: LDLᵀ on the assembled normal equations.
//!
//! Each IPM iteration solves `(P + AᵀDA)·Δx = rhs` where only the barrier
//! diagonal `D` changes. That split drives the design:
//!
//! - **once per `QuadProgram` structure**, in two stages so nothing is
//!   allocated for a factor the backend decision turns down:
//!   - [`Analysis::new`]: the sparsity pattern of `K = P + AᵀDA` (the
//!     symbolic `AᵀA` comes from per-row column pairs) and an approximate
//!     minimum degree ordering of it ([`crate::ordering`]), which also
//!     counts the factor's size and numeric flops — without its storage;
//!   - [`DirectSolver::build`], only for an accepted factor: the
//!     elimination tree, the `L` arrays, the permuted upper-triangular
//!     pattern, and a *scatter plan*
//!     mapping every `P` entry and every `A`-row entry pair to its slot in
//!     that pattern's value array;
//! - **once per IPM iteration** ([`DirectSolver::factor`]): a numeric
//!   assembly that replays the scatter plan with the current `D`, then an
//!   up-looking numeric refactorization into the cached symbolic
//!   structure — no allocation, no pattern work;
//! - **twice per iteration** ([`DirectSolver::solve`]): permuted
//!   triangular solves (predictor and corrector share one factor).
//!
//! The factorization follows Davis's `LDL` (up-looking, elimination-tree
//! driven); tiny or non-positive pivots — variables whose `K` diagonal
//! vanishes — are clamped to a floor proportional to the largest diagonal
//! entry and counted, and the IPM layer compensates with iterative
//! refinement.

use crate::observer::DecisionReason;
use crate::ordering::approximate_minimum_degree;
use crate::CsrMatrix;
use std::time::Instant;

/// A constraint row with this many nonzeros or more disqualifies the
/// direct backend: `AᵀA` gains `nnz_row²` entries per row, so a dense row
/// would densify `K`.
const DENSE_ROW_CAP: usize = 96;

/// Hard cap on the number of (pre-dedup) pattern entries the builder will
/// enumerate; beyond this the pattern build itself is the bottleneck and
/// the matrix-free CG path is the better tool.
const PATTERN_ENTRY_CAP: usize = 1 << 26;

/// Root marker of the elimination tree.
const NONE: usize = usize::MAX;

/// The pattern of `K = P + AᵀDA` in original indices: packed
/// `(max << 32 | min)` keys of the upper triangle (full diagonal
/// included), sorted and deduplicated, plus the symmetric off-diagonal
/// adjacency in CSR form.
struct Pattern {
    keys: Vec<u64>,
    adj_ptr: Vec<usize>,
    adj_idx: Vec<usize>,
}

fn unpack(key: u64) -> (usize, usize) {
    ((key & 0xffff_ffff) as usize, (key >> 32) as usize)
}

impl Pattern {
    /// Enumerates the pattern of `K` for `(p, a)`, or names the structural
    /// guard that rules the direct backend out: a dense constraint row or
    /// a pattern too large to enumerate.
    fn new(p: &CsrMatrix, a: &CsrMatrix) -> Result<Self, DecisionReason> {
        let n = p.nrows();
        let (a_ptr, a_idx, _) = a.raw_parts();
        let (p_ptr, p_idx, _) = p.raw_parts();
        let m = a.nrows();

        let mut pair_count = n + p.nnz();
        for r in 0..m {
            let len = a_ptr[r + 1] - a_ptr[r];
            if len > DENSE_ROW_CAP {
                return Err(DecisionReason::DenseRow);
            }
            pair_count += len * (len + 1) / 2;
            if pair_count > PATTERN_ENTRY_CAP {
                return Err(DecisionReason::PatternCap);
            }
        }

        // The full diagonal (so regularization always has a slot), upper
        // P entries, and all within-row column pairs of A.
        let mut keys: Vec<u64> = Vec::with_capacity(pair_count);
        let pack = |i: usize, j: usize| -> u64 {
            let (lo, hi) = if i <= j { (i, j) } else { (j, i) };
            ((hi as u64) << 32) | lo as u64
        };
        for j in 0..n {
            keys.push(pack(j, j));
        }
        for r in 0..n {
            for &c in &p_idx[p_ptr[r]..p_ptr[r + 1]] {
                if c >= r {
                    keys.push(pack(r, c));
                }
            }
        }
        for r in 0..m {
            let row = &a_idx[a_ptr[r]..a_ptr[r + 1]];
            for (k1, &c1) in row.iter().enumerate() {
                for &c2 in &row[k1..] {
                    keys.push(pack(c1, c2));
                }
            }
        }
        keys.sort_unstable();
        keys.dedup();

        // Off-diagonal adjacency, both directions. Keys are sorted by
        // (max, min), so every list comes out ascending.
        let mut adj_ptr = vec![0usize; n + 1];
        for &k in &keys {
            let (lo, hi) = unpack(k);
            if lo != hi {
                adj_ptr[lo + 1] += 1;
                adj_ptr[hi + 1] += 1;
            }
        }
        for v in 0..n {
            adj_ptr[v + 1] += adj_ptr[v];
        }
        let mut adj_idx = vec![0usize; adj_ptr[n]];
        let mut fill = adj_ptr.clone();
        for &k in &keys {
            let (lo, hi) = unpack(k);
            if lo != hi {
                adj_idx[fill[lo]] = hi;
                fill[lo] += 1;
                adj_idx[fill[hi]] = lo;
                fill[hi] += 1;
            }
        }
        Ok(Self {
            keys,
            adj_ptr,
            adj_idx,
        })
    }
}

/// Elimination tree and column counts of `L` (strict lower triangle) for
/// the symmetric pattern `adj` eliminated in the order `perm`
/// (`perm[new] = old`, `iperm` its inverse), in the permuted index space.
/// Walks each row's subtree of the elimination tree: `O(nnz(L))` time,
/// `O(n)` space, no factor storage.
pub(crate) fn etree_and_counts(
    adj_ptr: &[usize],
    adj_idx: &[usize],
    perm: &[usize],
    iperm: &[usize],
) -> (Vec<usize>, Vec<usize>) {
    let n = perm.len();
    let mut parent = vec![NONE; n];
    let mut counts = vec![0usize; n];
    let mut flag = vec![NONE; n];
    for k in 0..n {
        flag[k] = k;
        let v = perm[k];
        for &u in &adj_idx[adj_ptr[v]..adj_ptr[v + 1]] {
            let mut i = iperm[u];
            // Walk the elimination tree from i up toward k, marking.
            while i < k && flag[i] != k {
                if parent[i] == NONE {
                    parent[i] = k;
                }
                counts[i] += 1;
                flag[i] = k;
                i = parent[i];
            }
        }
    }
    (parent, counts)
}

/// The symbolic analysis behind the backend decision: the pattern of
/// `K`, its fill-reducing order, and the size and cost of the factor that
/// order gives — everything except the factor's storage.
pub(crate) struct Analysis {
    pattern: Pattern,
    /// Fill-reducing permutation, `perm[new] = old`.
    perm: Vec<usize>,
    /// Nonzeros in `L` (strict lower triangle).
    pub nnz_l: usize,
    /// Multiply-adds of one numeric factorization, `Σ colcountⱼ²`.
    pub flops: u64,
    /// Wall-clock nanoseconds spent in the ordering.
    pub ordering_ns: u64,
}

impl Analysis {
    /// Runs pattern and ordering for `(p, a)`, or names the structural
    /// guard that trips first.
    pub fn new(p: &CsrMatrix, a: &CsrMatrix) -> Result<Self, DecisionReason> {
        let pattern = Pattern::new(p, a)?;
        let t0 = Instant::now();
        let ordering = approximate_minimum_degree(p.nrows(), &pattern.adj_ptr, &pattern.adj_idx);
        Ok(Self {
            ordering_ns: t0.elapsed().as_nanos() as u64,
            pattern,
            perm: ordering.perm,
            nnz_l: ordering.nnz_l,
            flops: ordering.flops,
        })
    }

    /// Nonzeros in the upper triangle of `K` (diagonal included).
    pub fn nnz_k(&self) -> usize {
        self.pattern.keys.len()
    }
}

/// Symbolic + numeric state for the cached sparse LDLᵀ of `K = P + AᵀDA`.
#[derive(Debug, Clone)]
pub(crate) struct DirectSolver {
    /// Structural fingerprint of (P, A) this cache was built for.
    pub fingerprint: u64,
    n: usize,
    /// Fill-reducing permutation, `perm[new] = old`.
    perm: Vec<usize>,
    /// Column pointers of the permuted upper-triangular `K` (CSC).
    kp: Vec<usize>,
    /// Row indices of the permuted upper-triangular `K`.
    ki: Vec<usize>,
    /// Numeric values, rebuilt by [`DirectSolver::factor`].
    kx: Vec<f64>,
    /// Slot of the diagonal entry `(j, j)` per permuted column.
    diag_slot: Vec<usize>,
    /// `(slot, index into P.vals)` for every upper-triangular `P` entry.
    p_plan: Vec<(u32, u32)>,
    /// Scatter plan for `AᵀDA`: slot `+= d[row]·a.vals[ai]·a.vals[aj]`.
    a_slot: Vec<u32>,
    a_i: Vec<u32>,
    a_j: Vec<u32>,
    a_row: Vec<u32>,
    factor: LdlFactor,
    /// Nonzeros in `L` (strict lower triangle) from the symbolic phase.
    pub nnz_l: usize,
    /// Numeric factorizations performed since the symbolic build.
    pub factors: u64,
    /// Pivots the last numeric factorization clamped to its floor.
    pub pivots_clamped: usize,
    /// Permuted-space scratch for [`DirectSolver::solve`].
    scratch: Vec<f64>,
}

impl DirectSolver {
    /// Allocates the factor an [`Analysis`] sized — the elimination
    /// tree, the `L` arrays, the permuted pattern of `K`, and the scatter
    /// plans against the value layouts of `p` and `a` — ready for numeric
    /// refactorization.
    pub fn build(an: Analysis, p: &CsrMatrix, a: &CsrMatrix, fingerprint: u64) -> Self {
        let n = p.nrows();
        let (a_ptr, a_idx, _) = a.raw_parts();
        let (p_ptr, p_idx, _) = p.raw_parts();
        let m = a.nrows();
        let Analysis {
            pattern,
            perm,
            nnz_l,
            ..
        } = an;
        let mut iperm = vec![0usize; n];
        for (new, &old) in perm.iter().enumerate() {
            iperm[old] = new;
        }
        let (parent, counts) = etree_and_counts(&pattern.adj_ptr, &pattern.adj_idx, &perm, &iperm);
        debug_assert_eq!(counts.iter().sum::<usize>(), nnz_l);

        // Permuted upper-CSC pattern: entry (row pi, col pj) with pi <= pj,
        // sorted column-major.
        let ppack = |i: usize, j: usize| -> u64 {
            let (pi, pj) = (iperm[i], iperm[j]);
            let (lo, hi) = if pi <= pj { (pi, pj) } else { (pj, pi) };
            ((hi as u64) << 32) | lo as u64
        };
        let mut pkeys: Vec<u64> = pattern
            .keys
            .iter()
            .map(|&k| {
                let (i, j) = unpack(k);
                ppack(i, j)
            })
            .collect();
        pkeys.sort_unstable();
        let nnz_k = pkeys.len();
        let mut kp = vec![0usize; n + 1];
        let mut ki = vec![0usize; nnz_k];
        for (s, &k) in pkeys.iter().enumerate() {
            let (lo, hi) = unpack(k);
            kp[hi + 1] += 1;
            ki[s] = lo;
        }
        for j in 0..n {
            kp[j + 1] += kp[j];
        }
        let slot_of = |i: usize, j: usize| -> usize {
            // Upper-CSC binary search for permuted original-index (i, j).
            let (lo, hi) = unpack(ppack(i, j));
            let col = &ki[kp[hi]..kp[hi + 1]];
            kp[hi] + col.partition_point(|&r| r < lo)
        };
        let diag_slot: Vec<usize> = perm.iter().map(|&old| slot_of(old, old)).collect();

        // Scatter plans against the current value layouts of P and A.
        let mut p_plan = Vec::with_capacity(p.nnz());
        for r in 0..n {
            for (e, &c) in p_idx.iter().enumerate().take(p_ptr[r + 1]).skip(p_ptr[r]) {
                if c >= r {
                    p_plan.push((slot_of(r, c) as u32, e as u32));
                }
            }
        }
        let mut a_slot = Vec::new();
        let mut a_i = Vec::new();
        let mut a_j = Vec::new();
        let mut a_row = Vec::new();
        for r in 0..m {
            for e1 in a_ptr[r]..a_ptr[r + 1] {
                for e2 in e1..a_ptr[r + 1] {
                    a_slot.push(slot_of(a_idx[e1], a_idx[e2]) as u32);
                    a_i.push(e1 as u32);
                    a_j.push(e2 as u32);
                    a_row.push(r as u32);
                }
            }
        }

        let factor = LdlFactor::new(parent, &counts, &kp, &ki);
        Self {
            fingerprint,
            n,
            perm,
            kp,
            ki,
            kx: vec![0.0; nnz_k],
            diag_slot,
            p_plan,
            a_slot,
            a_i,
            a_j,
            a_row,
            factor,
            nnz_l,
            factors: 0,
            pivots_clamped: 0,
            scratch: vec![0.0; n],
        }
    }

    /// Numeric phase: reassembles `K = P + diag(h) + AᵀDA` through the
    /// cached scatter plan and refactors into the cached symbolic
    /// structure. `h` is an extra diagonal (empty for none); the pattern
    /// of `K` always holds the full diagonal.
    pub fn factor(&mut self, p: &CsrMatrix, a: &CsrMatrix, d: &[f64], h: &[f64]) {
        let (_, _, pv) = p.raw_parts();
        let (_, _, av) = a.raw_parts();
        self.kx.fill(0.0);
        for &(slot, e) in &self.p_plan {
            self.kx[slot as usize] += pv[e as usize];
        }
        if !h.is_empty() {
            for (new, &old) in self.perm.iter().enumerate() {
                self.kx[self.diag_slot[new]] += h[old];
            }
        }
        for q in 0..self.a_slot.len() {
            let w = d[self.a_row[q] as usize] * av[self.a_i[q] as usize] * av[self.a_j[q] as usize];
            self.kx[self.a_slot[q] as usize] += w;
        }
        let mut max_diag = 0.0f64;
        for &s in &self.diag_slot {
            max_diag = max_diag.max(self.kx[s].abs());
        }
        // Pivot floor: a vanished diagonal (variable untouched by P and
        // the active barrier rows) must not zero a pivot; refinement in
        // the IPM layer absorbs the perturbation.
        let pivot_floor = 1e-12 * max_diag.max(1e-300);
        self.pivots_clamped = self
            .factor
            .numeric(&self.kp, &self.ki, &self.kx, pivot_floor);
        self.factors += 1;
    }

    /// Solves `K·x = b` with the current factor (original variable order).
    pub fn solve(&mut self, b: &[f64], x: &mut [f64]) {
        for (new, &old) in self.perm.iter().enumerate() {
            self.scratch[new] = b[old];
        }
        self.factor.solve(&mut self.scratch);
        for (new, &old) in self.perm.iter().enumerate() {
            x[old] = self.scratch[new];
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }
}

/// Up-looking sparse LDLᵀ (Davis) with a persistent symbolic phase.
///
/// Each column of `L` ends in a run of consecutive row indices — the
/// dense trailing block of a supernode — starting at entry `run[j]`. The
/// column updates of [`LdlFactor::numeric`] and the forward sweep of
/// [`LdlFactor::solve`] apply that run as one slice update, which the
/// compiler vectorizes. The updates of one column touch distinct rows,
/// so each entry still sees the same subtractions in the same order.
#[derive(Debug, Clone)]
struct LdlFactor {
    n: usize,
    /// Elimination-tree parent per column (`NONE` = root).
    parent: Vec<usize>,
    /// Column pointers of `L` (strict lower triangle, CSC), length n+1.
    lp: Vec<usize>,
    /// Row indices of `L`, ascending within each column.
    li: Vec<usize>,
    /// First entry of each column's trailing run of consecutive rows.
    run: Vec<usize>,
    /// Values of `L`.
    lx: Vec<f64>,
    /// Diagonal `D`.
    d: Vec<f64>,
    /// Dense accumulator workspace.
    y: Vec<f64>,
    /// Nonzero-pattern stack workspace.
    pattern: Vec<usize>,
    /// Visitation stamps (column index of last touch).
    flag: Vec<usize>,
    /// Per-column entry counts during the numeric pass.
    lnz: Vec<usize>,
}

impl LdlFactor {
    /// Allocates the factor for an elimination tree and the column
    /// counts of `L`, and fills in the pattern of `L` for the permuted
    /// upper-triangular pattern `(kp, ki)` of `K`: row `k` of `L` is the
    /// elimination-tree reach of column `k` of `K`, so each column's rows
    /// come out ascending.
    fn new(parent: Vec<usize>, counts: &[usize], kp: &[usize], ki: &[usize]) -> Self {
        let n = parent.len();
        let mut lp = vec![0usize; n + 1];
        for j in 0..n {
            lp[j + 1] = lp[j] + counts[j];
        }
        let lnz_total = lp[n];
        let mut li = vec![0; lnz_total];
        let mut lnz = vec![0usize; n];
        let mut flag = vec![NONE; n];
        for k in 0..n {
            flag[k] = k;
            for &row in &ki[kp[k]..kp[k + 1]] {
                let mut i = row;
                while flag[i] != k {
                    li[lp[i] + lnz[i]] = k;
                    lnz[i] += 1;
                    flag[i] = k;
                    i = parent[i];
                }
            }
        }
        let run = (0..n)
            .map(|j| {
                let mut s = lp[j + 1];
                while s > lp[j] && (s == lp[j + 1] || li[s - 1] + 1 == li[s]) {
                    s -= 1;
                }
                s
            })
            .collect();
        Self {
            n,
            parent,
            lp,
            li,
            run,
            lx: vec![0.0; lnz_total],
            d: vec![0.0; n],
            y: vec![0.0; n],
            pattern: vec![0; n],
            flag: vec![NONE; n],
            lnz: vec![0; n],
        }
    }

    /// Numeric factorization into the symbolic structure. Pivots below
    /// `pivot_floor` are clamped to it (K is SPSD up to barrier
    /// regularization, so negative pivots only arise from roundoff);
    /// returns how many were.
    fn numeric(&mut self, kp: &[usize], ki: &[usize], kx: &[f64], pivot_floor: f64) -> usize {
        let n = self.n;
        self.y[..n].fill(0.0);
        self.flag.fill(NONE);
        self.lnz.fill(0);
        let mut clamped = 0;
        for k in 0..n {
            // Scatter column k of K and compute its L-pattern (the path
            // closure of the entries' rows in the elimination tree),
            // depth-first so `pattern[top..]` ends up topologically sorted.
            let mut top = n;
            self.flag[k] = k;
            for e in kp[k]..kp[k + 1] {
                let mut i = ki[e];
                self.y[i] += kx[e];
                let mut len = 0usize;
                while self.flag[i] != k {
                    self.pattern[len] = i;
                    len += 1;
                    self.flag[i] = k;
                    i = self.parent[i];
                }
                while len > 0 {
                    len -= 1;
                    top -= 1;
                    self.pattern[top] = self.pattern[len];
                }
            }
            let mut dk = self.y[k];
            self.y[k] = 0.0;
            for t in top..n {
                let i = self.pattern[t];
                let yi = self.y[i];
                self.y[i] = 0.0;
                let p2 = self.lp[i] + self.lnz[i];
                column_update(
                    &mut self.y,
                    &self.li,
                    &self.lx,
                    self.lp[i]..p2,
                    self.run[i],
                    yi,
                );
                let l_ki = yi / self.d[i];
                dk -= l_ki * yi;
                debug_assert_eq!(self.li[p2], k);
                self.lx[p2] = l_ki;
                self.lnz[i] += 1;
            }
            self.d[k] = if dk.is_finite() && dk > pivot_floor {
                dk
            } else {
                clamped += 1;
                pivot_floor
            };
        }
        clamped
    }

    /// In-place solve `L·D·Lᵀ·x = b` in the permuted index space.
    fn solve(&self, x: &mut [f64]) {
        let n = self.n;
        for j in 0..n {
            let xj = x[j];
            if xj != 0.0 {
                let entries = self.lp[j]..self.lp[j + 1];
                column_update(x, &self.li, &self.lx, entries, self.run[j], xj);
            }
        }
        for (xj, dj) in x.iter_mut().zip(&self.d) {
            *xj /= dj;
        }
        for j in (0..n).rev() {
            let mut xj = x[j];
            for e in self.lp[j]..self.lp[j + 1] {
                xj -= self.lx[e] * x[self.li[e]];
            }
            x[j] = xj;
        }
    }
}

/// `y[li[e]] −= lx[e]·s` for the entries `e` of one column of `L`: the
/// entries before `run` one by one, the rest — rows `li[run]`,
/// `li[run] + 1`, … — as one slice update.
#[inline]
fn column_update(
    y: &mut [f64],
    li: &[usize],
    lx: &[f64],
    entries: std::ops::Range<usize>,
    run: usize,
    s: f64,
) {
    let split = run.clamp(entries.start, entries.end);
    for e in entries.start..split {
        y[li[e]] -= lx[e] * s;
    }
    if split < entries.end {
        let r0 = li[split];
        let ys = &mut y[r0..r0 + (entries.end - split)];
        for (yv, &l) in ys.iter_mut().zip(&lx[split..entries.end]) {
            *yv -= l * s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{assert_same_bits, on_pool_and_serial, Rng};
    use proptest::prelude::*;

    /// The numeric pass as it ran before the slice updates: each column
    /// update one entry at a time, and each row index of `L` written into
    /// `li` as the pass reaches it.
    fn plain_numeric(
        f: &mut LdlFactor,
        kp: &[usize],
        ki: &[usize],
        kx: &[f64],
        pivot_floor: f64,
    ) -> usize {
        let n = f.n;
        f.y[..n].fill(0.0);
        f.flag.fill(NONE);
        f.lnz.fill(0);
        let mut clamped = 0;
        for k in 0..n {
            let mut top = n;
            f.flag[k] = k;
            for e in kp[k]..kp[k + 1] {
                let mut i = ki[e];
                f.y[i] += kx[e];
                let mut len = 0usize;
                while f.flag[i] != k {
                    f.pattern[len] = i;
                    len += 1;
                    f.flag[i] = k;
                    i = f.parent[i];
                }
                while len > 0 {
                    len -= 1;
                    top -= 1;
                    f.pattern[top] = f.pattern[len];
                }
            }
            let mut dk = f.y[k];
            f.y[k] = 0.0;
            for t in top..n {
                let i = f.pattern[t];
                let yi = f.y[i];
                f.y[i] = 0.0;
                let p2 = f.lp[i] + f.lnz[i];
                for e in f.lp[i]..p2 {
                    f.y[f.li[e]] -= f.lx[e] * yi;
                }
                let l_ki = yi / f.d[i];
                dk -= l_ki * yi;
                f.li[p2] = k;
                f.lx[p2] = l_ki;
                f.lnz[i] += 1;
            }
            f.d[k] = if dk.is_finite() && dk > pivot_floor {
                dk
            } else {
                clamped += 1;
                pivot_floor
            };
        }
        clamped
    }

    /// The solve with its forward sweep one entry at a time.
    fn plain_solve(f: &LdlFactor, x: &mut [f64]) {
        let n = f.n;
        for j in 0..n {
            let xj = x[j];
            if xj != 0.0 {
                for e in f.lp[j]..f.lp[j + 1] {
                    x[f.li[e]] -= f.lx[e] * xj;
                }
            }
        }
        for (xj, dj) in x.iter_mut().zip(&f.d) {
            *xj /= dj;
        }
        for j in (0..n).rev() {
            let mut xj = x[j];
            for e in f.lp[j]..f.lp[j + 1] {
                xj -= f.lx[e] * x[f.li[e]];
            }
            x[j] = xj;
        }
    }

    /// Factors `K = P + AᵀDA` and solves for each of `bs` (permuted
    /// space), and holds `L`, `D`, the clamp count and the solutions to
    /// the plain loops bit for bit. Returns the longest trailing run.
    fn check_against_plain_loops(
        p: &CsrMatrix,
        a: &CsrMatrix,
        d: &[f64],
        bs: &[Vec<f64>],
    ) -> usize {
        let mut ds = direct(p, a);
        let mut longest = 0;
        on_pool_and_serial(|| {
            ds.factor(p, a, d, &[]);
            let mut plain = ds.factor.clone();
            plain.li.fill(NONE);
            plain.lx.fill(f64::NAN);
            plain.d.fill(f64::NAN);
            let max_diag = ds
                .diag_slot
                .iter()
                .fold(0.0f64, |m, &s| m.max(ds.kx[s].abs()));
            let floor = 1e-12 * max_diag.max(1e-300);
            let clamped = plain_numeric(&mut plain, &ds.kp, &ds.ki, &ds.kx, floor);
            assert_eq!(plain.li, ds.factor.li, "the pattern of L");
            assert_eq!(clamped, ds.pivots_clamped, "clamped pivots");
            assert_same_bits("L", &ds.factor.lx, &plain.lx);
            assert_same_bits("D", &ds.factor.d, &plain.d);
            for b in bs {
                let (mut got, mut want) = (b.clone(), b.clone());
                ds.factor.solve(&mut got);
                plain_solve(&plain, &mut want);
                assert_same_bits("x", &got, &want);
            }
            let f = &ds.factor;
            longest = (0..f.n).map(|j| f.lp[j + 1] - f.run[j]).max().unwrap_or(0);
        });
        longest
    }

    /// Right-hand sides with zero entries (the forward sweep skips them).
    fn rhs(rng: &mut Rng, n: usize) -> Vec<Vec<f64>> {
        (0..2)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        if rng.chance(0.2) {
                            0.0
                        } else {
                            rng.range(-2.0, 2.0)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random SPD programs, barrier weights over sixteen decades.
        #[test]
        fn slice_updates_match_the_plain_loops(
            seed in any::<u64>(),
            n in 2usize..80,
            m in 1usize..120,
        ) {
            let mut rng = Rng::new(seed);
            let rows: Vec<Vec<(usize, f64)>> = (0..m)
                .map(|_| {
                    let len = 1 + rng.below(5);
                    (0..len).map(|_| (rng.below(n), rng.range(-2.0, 2.0))).collect()
                })
                .collect();
            let a = CsrMatrix::from_rows(n, &rows);
            let p_diag: Vec<f64> = (0..n)
                .map(|_| if rng.chance(0.3) { 0.0 } else { rng.range(0.0, 3.0) })
                .collect();
            let p = CsrMatrix::diagonal(&p_diag);
            let d: Vec<f64> = (0..m)
                .map(|_| if rng.chance(0.1) { 0.0 } else { rng.decades(-8.0, 8.0) })
                .collect();
            let bs = rhs(&mut rng, n);
            check_against_plain_loops(&p, &a, &d, &bs);
        }
    }

    /// The pattern of a 1000-cell DMopt program (`tests/data`), with
    /// seeded values: its trailing dose block gives columns runs of
    /// dozens of consecutive rows.
    #[test]
    fn slice_updates_match_the_plain_loops_on_a_dmopt_program() {
        let text = include_str!("../tests/data/dmopt_1k_s10.pattern");
        let mut lines = text.lines().filter(|l| !l.starts_with('#'));
        let numbers = |l: &str| -> Vec<usize> {
            l.split_whitespace()
                .map(|t| t.parse().expect("an index"))
                .collect()
        };
        let (n, m) = match numbers(lines.next().expect("sizes"))[..] {
            [n, m] => (n, m),
            _ => panic!("the first line holds n and m"),
        };
        let mut rng = Rng::new(10);
        let mut p_diag = vec![0.0; n];
        for j in numbers(lines.next().expect("P's diagonal")) {
            p_diag[j] = rng.decades(-2.0, 1.0);
        }
        let rows: Vec<Vec<(usize, f64)>> = lines
            .map(|l| {
                numbers(l)
                    .into_iter()
                    .map(|c| (c, rng.pick(&[-1.0, 1.0]) * rng.decades(-3.0, 0.5)))
                    .collect()
            })
            .collect();
        assert_eq!(rows.len(), m);
        let a = CsrMatrix::from_rows(n, &rows);
        let p = CsrMatrix::diagonal(&p_diag);
        for spread in [0.0, 8.0] {
            let d: Vec<f64> = (0..m).map(|_| rng.decades(-spread, spread)).collect();
            let bs = rhs(&mut rng, n);
            let longest = check_against_plain_loops(&p, &a, &d, &bs);
            assert!(
                longest >= 64,
                "the dose block's columns end in long runs ({longest})"
            );
        }
    }

    /// Dense reference: K·x for the assembled normal equations.
    fn normal_mul(p: &CsrMatrix, a: &CsrMatrix, d: &[f64], x: &[f64]) -> Vec<f64> {
        let mut y = p.mul_vec(x);
        let mut t = a.mul_vec(x);
        for (ti, &di) in t.iter_mut().zip(d) {
            *ti *= di;
        }
        let at = a.mul_transpose_vec(&t);
        for (yi, ai) in y.iter_mut().zip(at) {
            *yi += ai;
        }
        y
    }

    fn direct(p: &CsrMatrix, a: &CsrMatrix) -> DirectSolver {
        let an = Analysis::new(p, a).expect("buildable");
        DirectSolver::build(an, p, a, 0)
    }

    fn check_solve(p: &CsrMatrix, a: &CsrMatrix, d: &[f64], b: &[f64], tol: f64) {
        let mut ds = direct(p, a);
        ds.factor(p, a, d, &[]);
        let mut x = vec![0.0; b.len()];
        ds.solve(b, &mut x);
        let kx = normal_mul(p, a, d, &x);
        for i in 0..b.len() {
            assert!(
                (kx[i] - b[i]).abs() < tol,
                "residual at {i}: {} vs {}",
                kx[i],
                b[i]
            );
        }
    }

    #[test]
    fn factors_and_solves_a_small_spd_system() {
        // P diagonal + a few coupling rows: strictly positive definite K.
        let p = CsrMatrix::diagonal(&[2.0, 1.0, 3.0, 0.5]);
        let a = CsrMatrix::from_triplets(
            3,
            4,
            &[
                (0, 0, 1.0),
                (0, 1, -1.0),
                (1, 1, 2.0),
                (1, 2, 1.0),
                (2, 2, -1.0),
                (2, 3, 1.0),
            ],
        );
        let d = vec![1.5, 0.25, 4.0];
        check_solve(&p, &a, &d, &[1.0, -2.0, 0.5, 3.0], 1e-9);
    }

    #[test]
    fn refactor_tracks_changing_d() {
        let p = CsrMatrix::diagonal(&[1.0, 1.0, 1.0]);
        let a =
            CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 1.0), (1, 2, -1.0)]);
        let mut ds = direct(&p, &a);
        for scale in [1.0, 10.0, 1e4] {
            let d = vec![scale, 2.0 * scale];
            ds.factor(&p, &a, &d, &[]);
            let b = vec![1.0, 2.0, 3.0];
            let mut x = vec![0.0; 3];
            ds.solve(&b, &mut x);
            let kx = normal_mul(&p, &a, &d, &x);
            for i in 0..3 {
                assert!((kx[i] - b[i]).abs() < 1e-7 * scale, "scale {scale} row {i}");
            }
        }
        assert_eq!(ds.factors, 3);
    }

    #[test]
    fn zero_diagonal_variables_survive_via_pivot_floor() {
        // Variable 1 appears in neither P nor A: K has a zero diagonal.
        let p = CsrMatrix::diagonal(&[2.0, 0.0, 1.0]);
        let a = CsrMatrix::from_triplets(1, 3, &[(0, 0, 1.0), (0, 2, 1.0)]);
        let mut ds = direct(&p, &a);
        ds.factor(&p, &a, &[3.0], &[]);
        assert_eq!(ds.pivots_clamped, 1);
        let mut x = vec![0.0; 3];
        ds.solve(&[1.0, 0.0, 1.0], &mut x);
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn column_counts_match_the_numeric_factor() {
        // A grid-like coupling with fill: the symbolic counts must size
        // every column of L exactly as the numeric pass fills it.
        let n = 30usize;
        let p = CsrMatrix::identity(n);
        let mut trips = Vec::new();
        for r in 0..n - 6 {
            trips.push((r, r, 1.0));
            trips.push((r, r + 1, 0.5));
            trips.push((r, r + 6, -1.0));
        }
        let a = CsrMatrix::from_triplets(n - 6, n, &trips);
        let an = Analysis::new(&p, &a).expect("buildable");
        let nnz_l = an.nnz_l;
        let mut ds = DirectSolver::build(an, &p, &a, 0);
        ds.factor(&p, &a, &vec![1.0; n - 6], &[]);
        assert_eq!(ds.factor.lnz.iter().sum::<usize>(), nnz_l);
        assert_eq!(
            ds.factor.lnz,
            ds.factor
                .lp
                .windows(2)
                .map(|w| w[1] - w[0])
                .collect::<Vec<_>>()
        );
        assert_eq!(ds.pivots_clamped, 0);
    }

    #[test]
    fn dense_row_disqualifies_build() {
        let n = DENSE_ROW_CAP + 8;
        let p = CsrMatrix::identity(n);
        let trips: Vec<(usize, usize, f64)> = (0..n).map(|j| (0, j, 1.0)).collect();
        let a = CsrMatrix::from_triplets(1, n, &trips);
        assert!(matches!(
            Analysis::new(&p, &a),
            Err(DecisionReason::DenseRow)
        ));
    }

    #[test]
    fn chain_structure_stays_sparse() {
        // Tridiagonal-ish chain: the ordering + LDL must produce O(n) fill.
        let n = 500usize;
        let p = CsrMatrix::identity(n);
        let mut trips = Vec::new();
        for i in 0..n - 1 {
            trips.push((i, i, 1.0));
            trips.push((i, i + 1, -1.0));
        }
        let a = CsrMatrix::from_triplets(n - 1, n, &trips);
        let an = Analysis::new(&p, &a).expect("buildable");
        let fill_ratio = an.nnz_l as f64 / an.nnz_k() as f64;
        assert!(
            fill_ratio < 2.0,
            "chain fill ratio {fill_ratio} should be ~1"
        );
    }
}
