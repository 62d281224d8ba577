//! Bounding boxes and half-perimeter wirelength primitives.

/// An axis-aligned bounding box in µm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// Left edge.
    pub x_min: f64,
    /// Right edge.
    pub x_max: f64,
    /// Bottom edge.
    pub y_min: f64,
    /// Top edge.
    pub y_max: f64,
}

impl BoundingBox {
    /// Bounding box of a point set; `None` when empty.
    pub fn of_points(points: &[(f64, f64)]) -> Option<Self> {
        let mut fold = BoxFold::default();
        for &p in points {
            fold.push(p);
        }
        fold.0
    }

    /// Half-perimeter (width + height).
    pub fn half_perimeter(&self) -> f64 {
        (self.x_max - self.x_min) + (self.y_max - self.y_min)
    }

    /// Whether a point lies inside (inclusive).
    pub fn contains(&self, x: f64, y: f64) -> bool {
        x >= self.x_min && x <= self.x_max && y >= self.y_min && y <= self.y_max
    }

    /// Whether this box intersects another (inclusive).
    pub fn intersects(&self, other: &BoundingBox) -> bool {
        self.x_min <= other.x_max
            && other.x_min <= self.x_max
            && self.y_min <= other.y_max
            && other.y_min <= self.y_max
    }

    /// Grows the box by `margin` on every side.
    pub fn expanded(&self, margin: f64) -> BoundingBox {
        BoundingBox {
            x_min: self.x_min - margin,
            x_max: self.x_max + margin,
            y_min: self.y_min - margin,
            y_max: self.y_max + margin,
        }
    }
}

/// A bounding box folded point by point in place, with no point buffer:
/// the first point opens the box and each later one widens it, so a fold
/// equals [`BoundingBox::of_points`] over the same points in the same
/// order bit for bit.
#[derive(Debug, Default)]
pub(crate) struct BoxFold(pub(crate) Option<BoundingBox>);

impl BoxFold {
    #[inline]
    pub(crate) fn push(&mut self, (x, y): (f64, f64)) {
        match &mut self.0 {
            None => {
                self.0 = Some(BoundingBox {
                    x_min: x,
                    x_max: x,
                    y_min: y,
                    y_max: y,
                })
            }
            Some(b) => {
                b.x_min = b.x_min.min(x);
                b.x_max = b.x_max.max(x);
                b.y_min = b.y_min.min(y);
                b.y_max = b.y_max.max(y);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn of_points_handles_empty_and_single() {
        assert!(BoundingBox::of_points(&[]).is_none());
        let b = BoundingBox::of_points(&[(1.0, 2.0)]).unwrap();
        assert_eq!(b.half_perimeter(), 0.0);
        assert!(b.contains(1.0, 2.0));
    }

    #[test]
    fn half_perimeter_is_width_plus_height() {
        let b = BoundingBox::of_points(&[(0.0, 0.0), (3.0, 4.0), (1.0, 1.0)]).unwrap();
        assert_eq!(b.half_perimeter(), 7.0);
    }

    #[test]
    fn containment_and_intersection() {
        let a = BoundingBox::of_points(&[(0.0, 0.0), (2.0, 2.0)]).unwrap();
        let b = BoundingBox::of_points(&[(1.0, 1.0), (3.0, 3.0)]).unwrap();
        let c = BoundingBox::of_points(&[(5.0, 5.0), (6.0, 6.0)]).unwrap();
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(a.contains(2.0, 2.0));
        assert!(!a.contains(2.1, 2.0));
    }

    #[test]
    fn expansion_grows_every_side() {
        let b = BoundingBox::of_points(&[(1.0, 1.0), (2.0, 2.0)])
            .unwrap()
            .expanded(0.5);
        assert!(b.contains(0.6, 0.6));
        assert!(b.contains(2.4, 2.4));
        assert!(!b.contains(0.4, 1.0));
    }
}
