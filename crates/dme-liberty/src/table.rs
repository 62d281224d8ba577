//! NLDM-style 2-D lookup tables with bilinear interpolation.

use std::fmt;

/// A lookup table indexed by input slew (rows) and output load (columns),
/// the shape Liberty NLDM `cell_rise`/`cell_fall` groups use.
///
/// Lookups bilinearly interpolate between the four surrounding corners;
/// queries outside the axis range extrapolate linearly from the outermost
/// segment, matching common STA-tool behavior.
#[derive(Clone, PartialEq)]
pub struct Table2d {
    slew_axis: Vec<f64>,
    load_axis: Vec<f64>,
    /// Row-major: `values[slew_index * load_axis.len() + load_index]`.
    values: Vec<f64>,
}

impl fmt::Debug for Table2d {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Table2d({}x{})",
            self.slew_axis.len(),
            self.load_axis.len()
        )
    }
}

impl Table2d {
    /// Builds a table by evaluating `f(slew, load)` at every grid point.
    ///
    /// # Panics
    ///
    /// Panics if either axis has fewer than two points or is not strictly
    /// increasing.
    pub fn tabulate<F: FnMut(f64, f64) -> f64>(
        slew_axis: &[f64],
        load_axis: &[f64],
        mut f: F,
    ) -> Self {
        let mut values = Vec::with_capacity(slew_axis.len() * load_axis.len());
        for &s in slew_axis {
            for &c in load_axis {
                values.push(f(s, c));
            }
        }
        Self::from_values(slew_axis, load_axis, values)
    }

    /// Builds a table from values already computed at every grid point,
    /// row-major: `values[slew_index * load_axis.len() + load_index]` —
    /// the order [`Table2d::tabulate`] evaluates in.
    ///
    /// # Panics
    ///
    /// Panics if either axis has fewer than two points or is not strictly
    /// increasing, or if `values` does not hold one entry per grid point.
    pub fn from_values(slew_axis: &[f64], load_axis: &[f64], values: Vec<f64>) -> Self {
        assert!(
            slew_axis.len() >= 2 && load_axis.len() >= 2,
            "axes need ≥ 2 points"
        );
        for axis in [slew_axis, load_axis] {
            for w in axis.windows(2) {
                assert!(w[1] > w[0], "table axis must be strictly increasing");
            }
        }
        assert_eq!(
            values.len(),
            slew_axis.len() * load_axis.len(),
            "one value per grid point"
        );
        Self {
            slew_axis: slew_axis.to_vec(),
            load_axis: load_axis.to_vec(),
            values,
        }
    }

    /// The slew (row) axis.
    pub fn slew_axis(&self) -> &[f64] {
        &self.slew_axis
    }

    /// The load (column) axis.
    pub fn load_axis(&self) -> &[f64] {
        &self.load_axis
    }

    /// Raw value at grid indices.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn at(&self, slew_idx: usize, load_idx: usize) -> f64 {
        assert!(slew_idx < self.slew_axis.len() && load_idx < self.load_axis.len());
        self.values[slew_idx * self.load_axis.len() + load_idx]
    }

    /// Bilinear interpolation (linear extrapolation outside the grid).
    pub fn lookup(&self, slew: f64, load: f64) -> f64 {
        let (i0, i1, ts) = segment(&self.slew_axis, slew);
        let (j0, j1, tl) = segment(&self.load_axis, load);
        let v00 = self.at(i0, j0);
        let v01 = self.at(i0, j1);
        let v10 = self.at(i1, j0);
        let v11 = self.at(i1, j1);
        let a = v00 + (v01 - v00) * tl;
        let b = v10 + (v11 - v10) * tl;
        a + (b - a) * ts
    }

    /// Index of the grid point whose (slew, load) coordinates are nearest
    /// to the query, as `(slew_idx, load_idx)`. Used when applying the
    /// "nearest entry" coefficient-selection rule from the paper.
    pub fn nearest_indices(&self, slew: f64, load: f64) -> (usize, usize) {
        (
            nearest(&self.slew_axis, slew),
            nearest(&self.load_axis, load),
        )
    }
}

/// Finds the interpolation segment for `x` in a sorted axis: returns the
/// two bracketing indices and the interpolation parameter `t` (which may
/// fall outside `[0, 1]` for extrapolation).
fn segment(axis: &[f64], x: f64) -> (usize, usize, f64) {
    let n = axis.len();
    let hi = match axis.iter().position(|&a| a >= x) {
        Some(0) => 1,
        Some(i) => i,
        None => n - 1,
    };
    let lo = hi - 1;
    let t = (x - axis[lo]) / (axis[hi] - axis[lo]);
    (lo, hi, t)
}

fn nearest(axis: &[f64], x: f64) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, &a) in axis.iter().enumerate() {
        let d = (a - x).abs();
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane() -> Table2d {
        // f(s, c) = 2 s + 3 c + 1 (bilinear interpolation is exact on planes)
        Table2d::tabulate(&[0.0, 1.0, 2.0], &[0.0, 10.0, 20.0], |s, c| {
            2.0 * s + 3.0 * c + 1.0
        })
    }

    #[test]
    fn exact_at_corners() {
        let t = plane();
        assert_eq!(t.lookup(0.0, 0.0), 1.0);
        assert_eq!(t.lookup(2.0, 20.0), 2.0 * 2.0 + 3.0 * 20.0 + 1.0);
    }

    #[test]
    fn exact_on_planes_between_corners() {
        let t = plane();
        for &(s, c) in &[(0.5, 5.0), (1.7, 12.3), (0.25, 19.0)] {
            let expect = 2.0 * s + 3.0 * c + 1.0;
            assert!((t.lookup(s, c) - expect).abs() < 1e-12, "at ({s},{c})");
        }
    }

    #[test]
    #[allow(clippy::neg_multiply)]
    fn linear_extrapolation_outside_grid() {
        let t = plane();
        let expect = 2.0 * 3.0 + 3.0 * 25.0 + 1.0;
        assert!((t.lookup(3.0, 25.0) - expect).abs() < 1e-12);
        let expect_low = 2.0 * -1.0 + 3.0 * -5.0 + 1.0;
        assert!((t.lookup(-1.0, -5.0) - expect_low).abs() < 1e-12);
    }

    #[test]
    fn monotone_table_interpolates_monotonically() {
        let t = Table2d::tabulate(&[0.0, 1.0], &[1.0, 2.0, 4.0], |s, c| s + c * c);
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let c = 1.0 + 3.0 * i as f64 / 20.0;
            let v = t.lookup(0.5, c);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn nearest_indices_pick_closest_entry() {
        let t = plane();
        assert_eq!(t.nearest_indices(0.4, 16.0), (0, 2));
        assert_eq!(t.nearest_indices(1.6, 4.0), (2, 0));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_axis_panics() {
        Table2d::tabulate(&[0.0, 0.0], &[0.0, 1.0], |_, _| 0.0);
    }
}
