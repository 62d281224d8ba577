//! Fill-reducing ordering for the sparse LDLᵀ of the Newton system.
//!
//! The direct Newton backend factors `K = P + AᵀDA`; how much fill that
//! factorization produces depends entirely on the elimination order. On
//! the DMopt formulations each dose variable couples to every arrival
//! variable in its grid cell (a hub), so a good order eliminates the
//! chain-like arrival variables first and the hubs once their
//! neighborhoods have collapsed.
//!
//! [`approximate_minimum_degree`] is quotient-graph approximate minimum
//! degree (AMD; Amestoy, Davis & Duff, SIAM J. Matrix Anal. Appl. 17(4),
//! 1996). Eliminating a vertex makes its neighborhood a clique. An
//! elimination graph stores that clique edge by edge, which costs the
//! square of a hub's degree. The quotient graph keeps it implicit as an
//! *element*: the eliminated vertex, holding the list of variables the
//! clique spans. A variable's neighborhood is its remaining variable list
//! plus the variables of its elements, and storage never grows past the
//! input graph's. On top of that:
//!
//! - **element absorption**: the elements adjacent to a pivot are merged
//!   into the pivot's new element and dropped;
//! - **approximate external degrees**: a variable's degree is bounded
//!   from above by `|A_i| + |L_me \ i| + Σ_e |L_e \ L_me|` (or by its old
//!   bound plus `|L_me \ i|`), in time linear in its lists, instead of
//!   counted exactly;
//! - **supervariables with mass elimination**: variables with identical
//!   neighborhoods are merged and ordered together, and a variable whose
//!   only neighbor is the pivot's element is eliminated with the pivot;
//! - **aggressive absorption**: an element whose variables all lie in the
//!   new element is absorbed even when the pivot is not adjacent to it.
//!
//! The order is a function of the input lists alone: degree buckets are
//! FIFO queues, supervariable candidates meet in an index-sum hash table
//! held in plain arrays, and nothing depends on hasher state or memory
//! addresses.
//!
//! Each pivot's element is exactly the nonzero pattern of its columns in
//! `L`, so the ordering also counts the factor it produces — `nnz(L)` and
//! the numeric flops `Σ colcountⱼ²` — without an elimination-tree pass.

use std::mem::take;

/// Empty-slot marker for the linked lists below.
const NONE: usize = usize::MAX;

/// An elimination order and the size and cost of the factor it gives.
pub(crate) struct Ordering {
    /// `perm[new] = old`: the vertex eliminated at step `k` becomes
    /// column `k` of the permuted matrix.
    pub perm: Vec<usize>,
    /// Nonzeros in `L` (strict lower triangle).
    pub nnz_l: usize,
    /// Multiply-adds of one numeric factorization, `Σ colcountⱼ²`.
    pub flops: u64,
}

/// Computes an approximate-minimum-degree order of the undirected graph
/// given in CSR adjacency form (`adj_ptr`/`adj_idx`, each edge listed
/// from both ends; self loops and duplicate entries are ignored).
pub(crate) fn approximate_minimum_degree(
    n: usize,
    adj_ptr: &[usize],
    adj_idx: &[usize],
) -> Ordering {
    let mut amd = Amd::new(n, adj_ptr, adj_idx);
    let mut ordering = Ordering {
        perm: Vec::with_capacity(n),
        nnz_l: 0,
        flops: 0,
    };
    while amd.eliminated < n {
        let pivot = amd.pop_min_degree();
        amd.eliminate(pivot, &mut ordering);
    }
    ordering
}

/// Quotient-graph state. Node ids are the input vertex ids; a node is a
/// variable until it is chosen as a pivot and an element afterwards.
struct Amd {
    /// `E_i`: the elements adjacent to variable `i` (unused for elements).
    elems: Vec<Vec<usize>>,
    /// `A_i` for a variable; `L_e`, the variables it spans, for an element.
    vars: Vec<Vec<usize>>,
    /// Supervariable weight: positive for a principal variable, negated
    /// while the variable sits in the pivot's new element, 0 for an
    /// element or a variable merged into another supervariable.
    nv: Vec<isize>,
    /// Approximate external degree of a variable; weight `|L_e|` of an
    /// element.
    degree: Vec<usize>,
    /// Scratch marks. During a pivot step `w[e] − wflg = |L_e \ L_me|` for
    /// every live element `e` next to the new element; 0 marks an
    /// absorbed element. Supervariable comparison marks list entries with
    /// `wflg` itself.
    w: Vec<usize>,
    /// Current mark base; strictly above every live mark.
    wflg: usize,
    /// Largest element weight so far, which bounds how far marks reach
    /// above `wflg`.
    lemax: usize,
    /// Degree buckets: FIFO doubly linked lists of principal variables.
    head: Vec<usize>,
    tail: Vec<usize>,
    next: Vec<usize>,
    prev: Vec<usize>,
    /// No bucket below this is occupied.
    mindeg: usize,
    /// Supervariable member chains, so a pivot emits all its variables.
    member_next: Vec<usize>,
    member_last: Vec<usize>,
    /// Supervariable-detection hash buckets (singly linked).
    hash_head: Vec<usize>,
    hash_next: Vec<usize>,
    hash_of: Vec<usize>,
    /// Variables eliminated so far (counted by weight).
    eliminated: usize,
}

impl Amd {
    fn new(n: usize, adj_ptr: &[usize], adj_idx: &[usize]) -> Self {
        let vars: Vec<Vec<usize>> = (0..n)
            .map(|v| {
                let mut list: Vec<usize> = adj_idx[adj_ptr[v]..adj_ptr[v + 1]]
                    .iter()
                    .copied()
                    .filter(|&u| u != v)
                    .collect();
                list.sort_unstable();
                list.dedup();
                list
            })
            .collect();
        let degree: Vec<usize> = vars.iter().map(Vec::len).collect();
        let mut amd = Self {
            elems: vec![Vec::new(); n],
            vars,
            nv: vec![1; n],
            degree,
            w: vec![1; n],
            wflg: 2,
            lemax: 0,
            head: vec![NONE; n + 1],
            tail: vec![NONE; n + 1],
            next: vec![NONE; n],
            prev: vec![NONE; n],
            mindeg: 0,
            member_next: vec![NONE; n],
            member_last: (0..n).collect(),
            hash_head: vec![NONE; n],
            hash_next: vec![NONE; n],
            hash_of: vec![0; n],
            eliminated: 0,
        };
        for v in 0..n {
            amd.push_degree(v, amd.degree[v]);
        }
        amd
    }

    /// Appends `v` to the bucket of degree `d`.
    fn push_degree(&mut self, v: usize, d: usize) {
        self.prev[v] = self.tail[d];
        self.next[v] = NONE;
        match self.tail[d] {
            NONE => self.head[d] = v,
            t => self.next[t] = v,
        }
        self.tail[d] = v;
        self.mindeg = self.mindeg.min(d);
    }

    /// Unlinks `v` from the bucket of its current degree.
    fn remove_degree(&mut self, v: usize) {
        let d = self.degree[v];
        let (p, nx) = (self.prev[v], self.next[v]);
        match p {
            NONE => self.head[d] = nx,
            p => self.next[p] = nx,
        }
        match nx {
            NONE => self.tail[d] = p,
            nx => self.prev[nx] = p,
        }
    }

    /// Removes and returns the oldest variable of the lowest degree.
    fn pop_min_degree(&mut self) -> usize {
        while self.head[self.mindeg] == NONE {
            self.mindeg += 1;
        }
        let v = self.head[self.mindeg];
        self.remove_degree(v);
        v
    }

    /// Appends `b`'s member chain to `a`'s.
    fn merge_members(&mut self, a: usize, b: usize) {
        self.member_next[self.member_last[a]] = b;
        self.member_last[a] = self.member_last[b];
    }

    /// Eliminates supervariable `me`: forms its element `L_me`, updates
    /// the degrees of the variables in it, merges the indistinguishable
    /// ones, and appends the pivot's variables and their columns of `L`
    /// to `ordering`.
    fn eliminate(&mut self, me: usize, ordering: &mut Ordering) {
        let n = self.nv.len();
        let nvpiv = self.nv[me];
        let eliminated_before = self.eliminated;
        self.eliminated += nvpiv as usize;

        // 1. L_me: the variables of the absorbed elements of `me` plus its
        //    own variable list. Members are flagged by a negated weight and
        //    leave their degree buckets until step 5.
        self.nv[me] = -nvpiv;
        let mut lme = Vec::new();
        let mut degme = 0usize;
        for e in take(&mut self.elems[me]) {
            for v in take(&mut self.vars[e]) {
                self.flag_into(v, &mut lme, &mut degme);
            }
            self.w[e] = 0;
        }
        for v in take(&mut self.vars[me]) {
            self.flag_into(v, &mut lme, &mut degme);
        }

        // 2. |L_e \ L_me| for every live element next to L_me, as
        //    w[e] − wflg: start from |L_e| and subtract each member's weight.
        let wflg = self.wflg;
        for &i in &lme {
            let nvi = (-self.nv[i]) as usize;
            for &e in &self.elems[i] {
                let we = self.w[e];
                if we >= wflg {
                    self.w[e] = we - nvi;
                } else if we != 0 {
                    self.w[e] = self.degree[e] + wflg - nvi;
                }
            }
        }

        // 3. Per member: prune absorbed elements and covered variables,
        //    absorb elements now inside L_me, bound the external degree,
        //    and either mass-eliminate the member or hash it for step 4.
        for &i in &lme {
            let mut deg = 0usize;
            let mut hash = 0usize;
            let mut el = take(&mut self.elems[i]);
            el.retain(|&e| match self.w[e] {
                0 => false,
                we if we > wflg => {
                    deg += we - wflg;
                    hash = hash.wrapping_add(e);
                    true
                }
                we => {
                    // Aggressive absorption: L_e ⊆ L_me.
                    debug_assert_eq!(we, wflg, "live element missed by step 2");
                    self.w[e] = 0;
                    self.vars[e] = Vec::new();
                    false
                }
            });
            let mut va = take(&mut self.vars[i]);
            va.retain(|&j| {
                let nvj = self.nv[j];
                if nvj > 0 {
                    deg += nvj as usize;
                    hash = hash.wrapping_add(j);
                }
                nvj > 0
            });
            if el.is_empty() && va.is_empty() {
                // Mass elimination: `me`'s element is i's only neighbor.
                let nvi = (-self.nv[i]) as usize;
                degme -= nvi;
                self.eliminated += nvi;
                self.nv[i] = 0;
                self.merge_members(me, i);
            } else {
                self.degree[i] = self.degree[i].min(deg);
                el.push(me);
                self.elems[i] = el;
                self.vars[i] = va;
                let h = hash % n;
                self.hash_of[i] = h;
                self.hash_next[i] = self.hash_head[h];
                self.hash_head[h] = i;
            }
        }
        self.lemax = self.lemax.max(degme);
        self.wflg += self.lemax + 1;

        // 4. Supervariable detection among the members sharing a hash
        //    bucket: equal list lengths and equal entries (the new element
        //    sits last in every element list and is skipped).
        for &i in &lme {
            if self.nv[i] >= 0 {
                continue;
            }
            let mut a = std::mem::replace(&mut self.hash_head[self.hash_of[i]], NONE);
            while a != NONE {
                let ne = self.elems[a].len() - 1;
                for &e in &self.elems[a][..ne] {
                    self.w[e] = self.wflg;
                }
                for &v in &self.vars[a] {
                    self.w[v] = self.wflg;
                }
                let mut last = a;
                let mut b = self.hash_next[a];
                while b != NONE {
                    let after = self.hash_next[b];
                    let same = self.elems[b].len() == ne + 1
                        && self.vars[b].len() == self.vars[a].len()
                        && self.elems[b][..ne].iter().all(|&e| self.w[e] == self.wflg)
                        && self.vars[b].iter().all(|&v| self.w[v] == self.wflg);
                    if same {
                        // Both weights are negated while in L_me.
                        self.nv[a] += self.nv[b];
                        self.nv[b] = 0;
                        self.elems[b] = Vec::new();
                        self.vars[b] = Vec::new();
                        self.merge_members(a, b);
                        self.hash_next[last] = after;
                    } else {
                        last = b;
                    }
                    b = after;
                }
                self.wflg += 1;
                a = self.hash_next[a];
            }
        }

        // 5. Back into the degree buckets with the final bound
        //    min(bound + |L_me \ i|, variables left − |i|); L_me keeps only
        //    the principal members.
        let left = n - self.eliminated;
        lme.retain(|&i| self.nv[i] < 0);
        for &i in &lme {
            let nvi = -self.nv[i];
            self.nv[i] = nvi;
            let nvi = nvi as usize;
            let deg = (self.degree[i] + degme - nvi).min(left - nvi);
            self.degree[i] = deg;
            self.push_degree(i, deg);
        }
        self.degree[me] = degme;
        self.w[me] = if lme.is_empty() { 0 } else { 1 };
        self.vars[me] = lme;
        self.nv[me] = 0;
        let mut v = me;
        while v != NONE {
            ordering.perm.push(v);
            v = self.member_next[v];
        }
        // The pivot block's b columns hold the rest of the block and
        // L_me: counts degme + b − 1 down to degme.
        let (b, d) = ((self.eliminated - eliminated_before) as u128, degme as u128);
        ordering.nnz_l += (b * d + b * (b - 1) / 2) as usize;
        let flops = b * d * d + d * b * (b - 1) + (b - 1) * b * (2 * b - 1) / 6;
        ordering.flops = ordering
            .flops
            .saturating_add(u64::try_from(flops).unwrap_or(u64::MAX));
    }

    /// Moves principal variable `v` into `L_me` (once).
    fn flag_into(&mut self, v: usize, lme: &mut Vec<usize>, degme: &mut usize) {
        let nvv = self.nv[v];
        if nvv > 0 {
            *degme += nvv as usize;
            self.nv[v] = -nvv;
            self.remove_degree(v);
            lme.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ldl::etree_and_counts;
    use proptest::prelude::*;

    /// Symmetric CSR adjacency of an edge list (self loops and duplicate
    /// edges kept, as a careless caller might pass them).
    fn adjacency(n: usize, edges: &[(usize, usize)]) -> (Vec<usize>, Vec<usize>) {
        let mut lists = vec![Vec::new(); n];
        for &(a, b) in edges {
            lists[a].push(b);
            lists[b].push(a);
        }
        let mut ptr = vec![0];
        let mut idx = Vec::new();
        for list in lists {
            idx.extend(list);
            ptr.push(idx.len());
        }
        (ptr, idx)
    }

    /// Column counts of `L` for the graph eliminated in the order `perm`.
    fn column_counts(adj_ptr: &[usize], adj_idx: &[usize], perm: &[usize]) -> Vec<usize> {
        let mut iperm = vec![0; perm.len()];
        for (new, &old) in perm.iter().enumerate() {
            iperm[old] = new;
        }
        etree_and_counts(adj_ptr, adj_idx, perm, &iperm).1
    }

    fn amd(n: usize, adj_ptr: &[usize], adj_idx: &[usize]) -> Vec<usize> {
        approximate_minimum_degree(n, adj_ptr, adj_idx).perm
    }

    fn assert_permutation(n: usize, perm: &[usize]) {
        let mut seen = vec![false; n];
        assert_eq!(perm.len(), n, "{perm:?}");
        for &v in perm {
            assert!(!seen[v], "duplicate vertex {v} in {perm:?}");
            seen[v] = true;
        }
    }

    fn random_edges() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
        (1usize..40).prop_flat_map(|n| {
            let pairs = proptest::collection::vec((0..n, 0..n), 0..4 * n);
            // A hub joined to every vertex, on some cases.
            (Just(n), pairs, any::<bool>()).prop_map(|(n, mut edges, hub)| {
                if hub {
                    edges.extend((1..n).map(|v| (0, v)));
                }
                (n, edges)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Random graphs with isolated vertices, self loops, duplicate
        /// edges and hubs all come back as permutations.
        #[test]
        fn amd_returns_a_permutation((n, edges) in random_edges()) {
            let (ptr, idx) = adjacency(n, &edges);
            let ordering = approximate_minimum_degree(n, &ptr, &idx);
            assert_permutation(n, &ordering.perm);
            // The counts kept while ordering match the elimination tree's.
            let counts = column_counts(&ptr, &idx, &ordering.perm);
            prop_assert_eq!(ordering.nnz_l, counts.iter().sum::<usize>());
            prop_assert_eq!(ordering.flops, counts.iter().map(|&c| (c * c) as u64).sum::<u64>());
        }
    }

    #[test]
    fn a_path_has_zero_fill() {
        // Labels shuffled so the natural order would fill.
        let n = 64usize;
        let relabel = |v: usize| (v * 37) % n;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|v| (relabel(v), relabel(v + 1))).collect();
        let (ptr, idx) = adjacency(n, &edges);
        let ordering = approximate_minimum_degree(n, &ptr, &idx);
        assert_permutation(n, &ordering.perm);
        assert_eq!(ordering.nnz_l, n - 1);
        assert_eq!(
            column_counts(&ptr, &idx, &ordering.perm)
                .iter()
                .sum::<usize>(),
            n - 1
        );
    }

    #[test]
    fn a_star_hub_comes_last() {
        // Eliminating the hub early would turn all leaves into a clique.
        for n in [3usize, 9, 100] {
            let edges: Vec<(usize, usize)> = (1..n).map(|v| (0, v)).collect();
            let (ptr, idx) = adjacency(n, &edges);
            let perm = amd(n, &ptr, &idx);
            assert_permutation(n, &perm);
            assert_eq!(perm.last(), Some(&0), "hub not last in {perm:?}");
        }
    }

    #[test]
    fn isolated_and_empty_graphs_are_ordered() {
        assert!(amd(0, &[0], &[]).is_empty());
        let (ptr, idx) = adjacency(5, &[(1, 3), (2, 2)]);
        assert_permutation(5, &amd(5, &ptr, &idx));
    }

    #[test]
    fn the_same_input_gives_the_same_permutation() {
        // A 2-D grid has many degree ties and mergeable supervariables.
        let (w, h) = (23usize, 17usize);
        let mut edges = Vec::new();
        for y in 0..h {
            for x in 0..w {
                let v = y * w + x;
                if x + 1 < w {
                    edges.push((v, v + 1));
                }
                if y + 1 < h {
                    edges.push((v, v + w));
                    // Diagonals make 2x2 blocks of twins.
                    if x + 1 < w {
                        edges.push((v, v + w + 1));
                        edges.push((v + 1, v + w));
                    }
                }
            }
        }
        let (ptr, idx) = adjacency(w * h, &edges);
        let first = amd(w * h, &ptr, &idx);
        assert_permutation(w * h, &first);
        for _ in 0..3 {
            assert_eq!(amd(w * h, &ptr, &idx), first);
        }
    }
}
