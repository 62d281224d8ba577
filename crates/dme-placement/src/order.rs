//! Linear-time ascending order of coordinates, ties by id.

/// The ids `0..v.len()` in ascending `v` order, ties by ascending id: the
/// order `sort_by(|&a, &b| v[a].partial_cmp(&v[b]).unwrap().then(a.cmp(&b)))`
/// gives, in expected linear time on spread-out values.
///
/// A counting pass drops the ids into `n` equal-width value buckets, and
/// that comparison sorts each (mostly one- or two-id) bucket. The bucket
/// index never decreases as the value grows, so buckets are already in
/// order. An all-equal or unbounded input sorts as one bucket.
///
/// # Panics
///
/// Panics if a value is NaN.
pub(crate) fn ascending(v: &[f64]) -> Vec<u32> {
    let n = v.len();
    assert!(u32::try_from(n).is_ok(), "ids fit in u32");
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &a in v {
        assert!(!a.is_nan(), "NaN coordinate");
        lo = lo.min(a);
        hi = hi.max(a);
    }
    let cmp = |a: &u32, b: &u32| {
        let (va, vb) = (v[*a as usize], v[*b as usize]);
        va.partial_cmp(&vb).expect("no NaN").then(a.cmp(b))
    };
    let scale = n as f64 / (hi - lo);
    if !(scale.is_finite() && scale > 0.0) {
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by(cmp);
        return order;
    }
    let bucket = |a: f64| (((a - lo) * scale) as usize).min(n - 1);
    // Bucket b's size lands in `end[b + 1]`; the prefix sum turns `end[b]`
    // into b's start, and the scatter advances it to b's end.
    let mut end = vec![0u32; n + 1];
    for &a in v {
        end[bucket(a) + 1] += 1;
    }
    for b in 0..n {
        end[b + 1] += end[b];
    }
    let mut order = vec![0u32; n];
    for (i, &a) in v.iter().enumerate() {
        let b = bucket(a);
        order[end[b] as usize] = i as u32;
        end[b] += 1;
    }
    let mut begin = 0;
    for &e in &end[..n] {
        let e = e as usize;
        if e - begin > 1 {
            order[begin..e].sort_unstable_by(cmp);
        }
        begin = e;
    }
    order
}

/// The ids of `v` sorted by comparison: ascending `partial_cmp`, ties by
/// id — the order [`ascending`] must reproduce.
#[cfg(test)]
pub(crate) fn sorted_by_comparison(v: &[f64]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..v.len() as u32).collect();
    order.sort_by(|&a, &b| {
        v[a as usize]
            .partial_cmp(&v[b as usize])
            .expect("finite coordinates")
            .then(a.cmp(&b))
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn check(v: &[f64]) {
        assert_eq!(ascending(v), sorted_by_comparison(v), "{v:?}");
    }

    #[test]
    fn matches_comparison_sort_on_edge_cases() {
        check(&[]);
        check(&[4.5]);
        check(&[3.0, 1.0, 3.0, 2.0, 1.0, 3.0]);
        check(&[0.0, -0.0, 0.0, -0.0, 1.0, -1.0]);
        check(&[-0.0, 0.0, -0.0]);
        check(&[-5.0, -1e-12, -300.0, 2.0, -5.0]);
        // Past a 100 µm die on both sides.
        check(&[50.0, 100.0, 100.0 + 1e-9, -1e-9, 1e6, -1e6, 50.0]);
        check(&[7.25; 9]);
        check(&[f64::INFINITY, 1.0, f64::NEG_INFINITY, 1.0, f64::INFINITY]);
        check(&[f64::MAX, -f64::MAX, 0.0]);
        check(&[1e-300, 0.0, 5e-324, -5e-324]);
        // One far outlier puts every other value into the first bucket.
        let mut clustered: Vec<f64> = (0..200).map(|i| ((i * 37) % 101) as f64 * 1e-6).collect();
        clustered.push(1e9);
        check(&clustered);
    }

    #[test]
    fn matches_comparison_sort_on_random_values() {
        let mut rng = StdRng::seed_from_u64(11);
        for case in 0..200 {
            let n = 1 + rng.gen::<u64>() % 400;
            let distinct = 1 + rng.gen::<u64>() % (n + 1);
            let v: Vec<f64> = (0..n)
                .map(|_| match case % 3 {
                    // Few distinct values: long runs of ties.
                    0 => (rng.gen::<u64>() % distinct) as f64 - 3.0,
                    1 => (rng.gen::<f64>() - 0.2) * 120.0,
                    _ => [0.0, -0.0, 1.0][(rng.gen::<u64>() % 3) as usize],
                })
                .collect();
            check(&v);
        }
    }

    #[test]
    #[should_panic(expected = "NaN coordinate")]
    fn nan_panics() {
        ascending(&[1.0, f64::NAN, 0.5]);
    }
}
