//! A rasterised occupancy grid over a visual area.
//!
//! §5.1.1 defines whitespace positions, valid k-hop movements and cuts over
//! a rectangular coordinate system. The grid discretises a visual area into
//! square cells; a cell is *occupied* when any element bounding box covers
//! it, and a *whitespace position* otherwise. The cut machinery in
//! `vs2-core::segment` runs on top of this structure.

use crate::geometry::{BBox, Point};

/// A row-major boolean raster of element occupancy over an area.
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancyGrid {
    origin: Point,
    cell: f64,
    cols: usize,
    rows: usize,
    occ: Vec<bool>,
}

impl OccupancyGrid {
    /// Rasterises `boxes` over `area` with square cells of side `cell`.
    ///
    /// Cells partially covered by a box count as occupied, matching the
    /// paper's definition that a whitespace position lies in *no* bounding
    /// box. A degenerate area produces an empty grid.
    pub fn rasterize(area: &BBox, boxes: &[BBox], cell: f64) -> Self {
        assert!(cell > 0.0, "cell size must be positive");
        // Non-finite extents (or a non-finite extent/cell ratio) rasterise
        // to an empty grid instead of a nonsense allocation.
        let cells_along = |extent: f64| -> usize {
            let n = (extent / cell).ceil();
            if n.is_finite() && n > 0.0 {
                n as usize
            } else {
                0
            }
        };
        // Hard ceiling on total cells: extents absurdly large relative to
        // `cell` (saturating the casts above) degrade to an empty grid
        // rather than overflowing `cols * rows` or aborting on allocation.
        const MAX_CELLS: usize = 1 << 30;
        let (cols, rows) = match cells_along(area.w).checked_mul(cells_along(area.h)) {
            Some(total) if total <= MAX_CELLS => (cells_along(area.w), cells_along(area.h)),
            _ => (0, 0),
        };
        let mut occ = vec![false; cols * rows];
        for b in boxes {
            let Some(ib) = b.intersection(area) else {
                continue;
            };
            let c0 = ((ib.x - area.x) / cell).floor().max(0.0) as usize;
            let r0 = ((ib.y - area.y) / cell).floor().max(0.0) as usize;
            // Subtract a hair before ceil so boxes ending exactly on a cell
            // boundary do not claim the next cell.
            let c1 = (((ib.right() - area.x) / cell - 1e-9).ceil() as usize).min(cols);
            let r1 = (((ib.bottom() - area.y) / cell - 1e-9).ceil() as usize).min(rows);
            for r in r0..r1 {
                for c in c0..c1 {
                    occ[r * cols + c] = true;
                }
            }
        }
        Self {
            origin: Point::new(area.x, area.y),
            cell,
            cols,
            rows,
            occ,
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Cell side length.
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Top-left corner of the rasterised area in document coordinates.
    pub fn origin(&self) -> Point {
        self.origin
    }

    /// `true` when the cell at `(col, row)` is covered by some element.
    /// Out-of-range coordinates are occupied — movements may not leave the
    /// area.
    pub fn is_occupied(&self, col: usize, row: usize) -> bool {
        if col >= self.cols || row >= self.rows {
            return true;
        }
        self.occ[row * self.cols + col]
    }

    /// `true` when the cell is a whitespace position (§5.1.1).
    pub fn is_whitespace(&self, col: usize, row: usize) -> bool {
        col < self.cols && row < self.rows && !self.occ[row * self.cols + col]
    }

    /// Fraction of cells occupied; 0 for an empty grid.
    pub fn occupancy(&self) -> f64 {
        if self.occ.is_empty() {
            return 0.0;
        }
        self.occ.iter().filter(|o| **o).count() as f64 / self.occ.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rasterize_marks_covered_cells() {
        let area = BBox::new(0.0, 0.0, 10.0, 10.0);
        let g = OccupancyGrid::rasterize(&area, &[BBox::new(2.0, 2.0, 3.0, 3.0)], 1.0);
        assert_eq!(g.cols(), 10);
        assert_eq!(g.rows(), 10);
        assert!(g.is_occupied(2, 2));
        assert!(g.is_occupied(4, 4));
        assert!(g.is_whitespace(5, 5));
        assert!(g.is_whitespace(0, 0));
    }

    #[test]
    fn boundary_aligned_box_does_not_leak() {
        let area = BBox::new(0.0, 0.0, 10.0, 10.0);
        let g = OccupancyGrid::rasterize(&area, &[BBox::new(0.0, 0.0, 5.0, 5.0)], 1.0);
        assert!(g.is_occupied(4, 4));
        assert!(g.is_whitespace(5, 0));
        assert!(g.is_whitespace(0, 5));
    }

    #[test]
    fn out_of_range_is_occupied() {
        let area = BBox::new(0.0, 0.0, 4.0, 4.0);
        let g = OccupancyGrid::rasterize(&area, &[], 1.0);
        assert!(g.is_occupied(4, 0));
        assert!(g.is_occupied(0, 4));
        assert!(!g.is_whitespace(4, 4));
    }

    #[test]
    fn occupancy_counts_covered_cells() {
        let area = BBox::new(0.0, 0.0, 4.0, 4.0);
        let g = OccupancyGrid::rasterize(&area, &[BBox::new(1.0, 0.0, 1.0, 4.0)], 1.0);
        assert!((g.occupancy() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn grid_respects_offset_origin() {
        let area = BBox::new(10.0, 20.0, 4.0, 4.0);
        let g = OccupancyGrid::rasterize(&area, &[BBox::new(11.0, 21.0, 1.0, 1.0)], 1.0);
        assert!(g.is_occupied(1, 1));
        assert!(g.is_whitespace(0, 0));
        assert_eq!(g.origin(), Point::new(10.0, 20.0));
    }

    #[test]
    fn boxes_outside_area_are_ignored() {
        let area = BBox::new(0.0, 0.0, 4.0, 4.0);
        let g = OccupancyGrid::rasterize(&area, &[BBox::new(100.0, 100.0, 5.0, 5.0)], 1.0);
        assert_eq!(g.occupancy(), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cell_size_panics() {
        OccupancyGrid::rasterize(&BBox::new(0.0, 0.0, 1.0, 1.0), &[], 0.0);
    }

    #[test]
    fn non_finite_area_rasterizes_empty() {
        let area = BBox::new(0.0, 0.0, f64::INFINITY, 10.0);
        let g = OccupancyGrid::rasterize(&area, &[BBox::new(1.0, 1.0, 2.0, 2.0)], 1.0);
        assert_eq!(g.cols(), 0);
        assert_eq!(g.occupancy(), 0.0);
    }

    #[test]
    fn absurdly_large_finite_area_rasterizes_empty() {
        // Past the cell ceiling the grid degrades to empty instead of
        // overflowing `cols * rows` or attempting a huge allocation.
        let area = BBox::new(0.0, 0.0, 1.0e300, 800.0);
        let g = OccupancyGrid::rasterize(&area, &[BBox::new(1.0, 1.0, 2.0, 2.0)], 4.0);
        assert_eq!((g.cols(), g.rows()), (0, 0));
        assert_eq!(g.occupancy(), 0.0);
    }
}
