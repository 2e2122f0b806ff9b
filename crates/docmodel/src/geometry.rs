//! Planar geometry primitives used throughout the document model.
//!
//! The paper represents every visual area by the smallest axis-aligned
//! bounding box that encloses it (§5.1). Coordinates follow the usual
//! raster convention: the origin is the top-left corner of the page,
//! `x` grows rightwards and `y` grows downwards.

/// A point on the document plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate, in document units (abstract "pixels").
    pub x: f64,
    /// Vertical coordinate, in document units.
    pub y: f64,
}

impl Point {
    /// Creates a point at `(x, y)`.
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean (L2) distance to `other`.
    pub fn distance(&self, other: &Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Manhattan (L1) distance to `other`, used by the multimodal
    /// disambiguation distance (Eq. 2 of the paper).
    pub fn l1_distance(&self, other: &Point) -> f64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Angular distance of the point from the page origin, in radians in
    /// `[0, π/2]` for points inside the page. One of the low-level visual
    /// features of Table 1.
    pub fn angular_distance(&self) -> f64 {
        self.y.atan2(self.x)
    }
}

/// An axis-aligned bounding box `b = (x_b, y_b, w_b, h_b)` as defined in
/// §5.1 of the paper: `(x, y)` is the top-left corner.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BBox {
    /// Left edge.
    pub x: f64,
    /// Top edge.
    pub y: f64,
    /// Width (non-negative).
    pub w: f64,
    /// Height (non-negative).
    pub h: f64,
}

impl BBox {
    /// Creates a bounding box from its top-left corner and extent.
    ///
    /// Negative extents are clamped to zero so that degenerate boxes behave
    /// as empty rather than inverted.
    pub fn new(x: f64, y: f64, w: f64, h: f64) -> Self {
        Self {
            x,
            y,
            w: w.max(0.0),
            h: h.max(0.0),
        }
    }

    /// Right edge (`x + w`).
    pub fn right(&self) -> f64 {
        self.x + self.w
    }

    /// Bottom edge (`y + h`).
    pub fn bottom(&self) -> f64 {
        self.y + self.h
    }

    /// Area of the box.
    pub fn area(&self) -> f64 {
        self.w * self.h
    }

    /// `true` when the box has zero area.
    pub fn is_empty(&self) -> bool {
        self.w <= 0.0 || self.h <= 0.0
    }

    /// Centroid of the box. Table 1's `centroid-position` feature.
    pub fn centroid(&self) -> Point {
        Point::new(self.x + self.w / 2.0, self.y + self.h / 2.0)
    }

    /// `true` when `p` lies inside the box (closed on the top-left edges,
    /// open on the bottom-right edges, so adjacent boxes do not share
    /// interior points).
    pub fn contains_point(&self, p: Point) -> bool {
        p.x >= self.x && p.x < self.right() && p.y >= self.y && p.y < self.bottom()
    }

    /// `true` when `other` is entirely inside `self` (closed comparison).
    pub fn contains_box(&self, other: &BBox) -> bool {
        other.x >= self.x
            && other.y >= self.y
            && other.right() <= self.right()
            && other.bottom() <= self.bottom()
    }

    /// Intersection of the two boxes, or `None` when they are disjoint.
    pub fn intersection(&self, other: &BBox) -> Option<BBox> {
        let x0 = self.x.max(other.x);
        let y0 = self.y.max(other.y);
        let x1 = self.right().min(other.right());
        let y1 = self.bottom().min(other.bottom());
        if x1 > x0 && y1 > y0 {
            Some(BBox::new(x0, y0, x1 - x0, y1 - y0))
        } else {
            None
        }
    }

    /// `true` when the two boxes overlap with positive area.
    pub fn intersects(&self, other: &BBox) -> bool {
        self.intersection(other).is_some()
    }

    /// Smallest box enclosing both operands.
    pub fn union(&self, other: &BBox) -> BBox {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        let x0 = self.x.min(other.x);
        let y0 = self.y.min(other.y);
        let x1 = self.right().max(other.right());
        let y1 = self.bottom().max(other.bottom());
        BBox::new(x0, y0, x1 - x0, y1 - y0)
    }

    /// Intersection-over-union, the segmentation evaluation metric of §6.2
    /// (a proposal counts as correct when IoU against ground truth ≥ 0.65,
    /// following Everingham et al.'s protocol).
    pub fn iou(&self, other: &BBox) -> f64 {
        let inter = self.intersection(other).map_or(0.0, |b| b.area());
        let uni = self.area() + other.area() - inter;
        if uni <= 0.0 {
            0.0
        } else {
            inter / uni
        }
    }

    /// Minimum Euclidean distance between the two boxes (0 when they touch
    /// or overlap). Used to find the *neighbouring bounding box* of a run of
    /// consecutive valid cuts in Algorithm 1.
    pub fn distance(&self, other: &BBox) -> f64 {
        let dx = (other.x - self.right())
            .max(self.x - other.right())
            .max(0.0);
        let dy = (other.y - self.bottom())
            .max(self.y - other.bottom())
            .max(0.0);
        (dx * dx + dy * dy).sqrt()
    }

    /// Smallest box enclosing every box in `boxes`; `None` when empty.
    pub fn enclosing<'a, I: IntoIterator<Item = &'a BBox>>(boxes: I) -> Option<BBox> {
        let mut it = boxes.into_iter();
        let first = *it.next()?;
        Some(it.fold(first, |acc, b| acc.union(b)))
    }

    /// Box grown by `margin` on every side (clamped to non-negative extent).
    pub fn inflate(&self, margin: f64) -> BBox {
        BBox::new(
            self.x - margin,
            self.y - margin,
            self.w + 2.0 * margin,
            self.h + 2.0 * margin,
        )
    }

    /// Box translated by `(dx, dy)`.
    pub fn translate(&self, dx: f64, dy: f64) -> BBox {
        BBox::new(self.x + dx, self.y + dy, self.w, self.h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distances() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.l1_distance(&b), 7.0);
    }

    #[test]
    fn angular_distance_is_zero_on_x_axis() {
        assert_eq!(Point::new(5.0, 0.0).angular_distance(), 0.0);
        let diag = Point::new(1.0, 1.0).angular_distance();
        assert!((diag - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
    }

    #[test]
    fn bbox_negative_extent_is_clamped() {
        let b = BBox::new(0.0, 0.0, -1.0, -2.0);
        assert!(b.is_empty());
        assert_eq!(b.area(), 0.0);
    }

    #[test]
    fn intersection_and_union() {
        let a = BBox::new(0.0, 0.0, 10.0, 10.0);
        let b = BBox::new(5.0, 5.0, 10.0, 10.0);
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, BBox::new(5.0, 5.0, 5.0, 5.0));
        let u = a.union(&b);
        assert_eq!(u, BBox::new(0.0, 0.0, 15.0, 15.0));
    }

    #[test]
    fn disjoint_boxes_do_not_intersect() {
        let a = BBox::new(0.0, 0.0, 2.0, 2.0);
        let b = BBox::new(3.0, 3.0, 2.0, 2.0);
        assert!(a.intersection(&b).is_none());
        assert!(!a.intersects(&b));
        // Touching edges count as disjoint (open bottom-right edges).
        let c = BBox::new(2.0, 0.0, 2.0, 2.0);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn iou_of_identical_boxes_is_one() {
        let a = BBox::new(1.0, 1.0, 4.0, 4.0);
        assert!((a.iou(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn iou_of_disjoint_boxes_is_zero() {
        let a = BBox::new(0.0, 0.0, 1.0, 1.0);
        let b = BBox::new(5.0, 5.0, 1.0, 1.0);
        assert_eq!(a.iou(&b), 0.0);
    }

    #[test]
    fn iou_half_overlap() {
        let a = BBox::new(0.0, 0.0, 2.0, 1.0);
        let b = BBox::new(1.0, 0.0, 2.0, 1.0);
        // intersection 1, union 3
        assert!((a.iou(&b) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn box_distance() {
        let a = BBox::new(0.0, 0.0, 1.0, 1.0);
        let b = BBox::new(4.0, 5.0, 1.0, 1.0);
        assert_eq!(a.distance(&b), 5.0); // dx=3, dy=4
        assert_eq!(a.distance(&a), 0.0);
        let touching = BBox::new(1.0, 0.0, 1.0, 1.0);
        assert_eq!(a.distance(&touching), 0.0);
    }

    #[test]
    fn contains() {
        let a = BBox::new(0.0, 0.0, 10.0, 10.0);
        assert!(a.contains_point(Point::new(0.0, 0.0)));
        assert!(!a.contains_point(Point::new(10.0, 10.0)));
        assert!(a.contains_box(&BBox::new(2.0, 2.0, 3.0, 3.0)));
        assert!(!a.contains_box(&BBox::new(8.0, 8.0, 5.0, 5.0)));
    }

    #[test]
    fn enclosing_of_boxes() {
        let boxes = [BBox::new(0.0, 0.0, 1.0, 1.0), BBox::new(9.0, 9.0, 1.0, 1.0)];
        let e = BBox::enclosing(boxes.iter()).unwrap();
        assert_eq!(e, BBox::new(0.0, 0.0, 10.0, 10.0));
        assert!(BBox::enclosing(std::iter::empty()).is_none());
    }

    #[test]
    fn inflate_and_translate() {
        let a = BBox::new(5.0, 5.0, 2.0, 2.0);
        assert_eq!(a.inflate(1.0), BBox::new(4.0, 4.0, 4.0, 4.0));
        assert_eq!(a.translate(1.0, -1.0), BBox::new(6.0, 4.0, 2.0, 2.0));
    }
}
