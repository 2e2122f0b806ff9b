//! Word-packed whitespace bitmaps over a visual area — the raster behind
//! the segment fast path.
//!
//! [`PackedGrid`] rasterises the same area/boxes/cell geometry as
//! [`OccupancyGrid`](crate::OccupancyGrid) — cell for cell, including the
//! overflow ceiling and the boundary epsilon — but stores whitespace as
//! packed 64-bit words in *both* orientations: per-column words over rows
//! (the masks of a horizontal-cut sweep) and per-row words over columns
//! (vertical sweep). The cut machinery can then AND/shift whole words
//! instead of probing cells one at a time, and the masks come out with
//! their trailing bits already zero so no per-step tail clearing is
//! needed.
//!
//! Equivalence with `OccupancyGrid` is pinned by the unit tests below and
//! by the segment differential battery in `vs2-conformance`.

use crate::geometry::{BBox, Point};

/// Dual-orientation packed whitespace raster of a visual area.
/// `Default` is the empty raster, a buffer to [`rasterize_into`](Self::rasterize_into).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PackedGrid {
    origin: Point,
    cell: f64,
    cols: usize,
    rows: usize,
    /// Words per column mask (`ceil(rows / 64)`).
    words_per_col: usize,
    /// Words per row mask (`ceil(cols / 64)`).
    words_per_row: usize,
    /// `cols × words_per_col` whitespace words; column `c` covers rows.
    col_ws: Vec<u64>,
    /// `rows × words_per_row` whitespace words; row `r` covers columns.
    row_ws: Vec<u64>,
}

/// Fills `words` with all-ones over `n` bit positions, leaving the bits
/// past `n` in the last word zero.
fn ones(words: &mut [u64], n: usize) {
    for w in words.iter_mut() {
        *w = u64::MAX;
    }
    let excess = words.len() * 64 - n;
    if excess > 0 {
        if let Some(last) = words.last_mut() {
            *last &= u64::MAX >> excess;
        }
    }
}

/// Clears bits `[lo, hi)` in a word slice.
fn clear_range(words: &mut [u64], lo: usize, hi: usize) {
    if lo >= hi {
        return;
    }
    let (wl, bl) = (lo / 64, lo % 64);
    let (wh, bh) = (hi / 64, hi % 64);
    let lo_mask = u64::MAX << bl;
    let hi_mask = if bh == 0 { 0 } else { u64::MAX >> (64 - bh) };
    if wl == wh {
        words[wl] &= !(lo_mask & hi_mask);
        return;
    }
    words[wl] &= !lo_mask;
    for w in &mut words[wl + 1..wh] {
        *w = 0;
    }
    if bh > 0 {
        words[wh] &= !hi_mask;
    }
}

impl PackedGrid {
    /// Rasterises `boxes` over `area` with square cells of side `cell`,
    /// replicating [`OccupancyGrid::rasterize`](crate::OccupancyGrid::rasterize)
    /// exactly: the same `ceil` cell counts, the same `checked_mul`
    /// overflow ceiling degrading to an empty grid, and the same 1e-9
    /// boundary epsilon so boxes ending on a cell edge do not claim the
    /// next cell.
    pub fn rasterize(area: &BBox, boxes: &[BBox], cell: f64) -> Self {
        let mut grid = Self::default();
        grid.rasterize_into(area, boxes, cell);
        grid
    }

    /// [`rasterize`](Self::rasterize) into this grid, reusing its word
    /// buffers: a recursion that rasterises area after area allocates
    /// only when an area needs more words than any before it.
    pub fn rasterize_into(&mut self, area: &BBox, boxes: &[BBox], cell: f64) {
        assert!(cell > 0.0, "cell size must be positive");
        let cells_along = |extent: f64| -> usize {
            let n = (extent / cell).ceil();
            if n.is_finite() && n > 0.0 {
                n as usize
            } else {
                0
            }
        };
        // Same hard ceiling as OccupancyGrid: absurd extents degrade to an
        // empty grid rather than overflowing `cols * rows`.
        const MAX_CELLS: usize = 1 << 30;
        let (cols, rows) = match cells_along(area.w).checked_mul(cells_along(area.h)) {
            Some(total) if total <= MAX_CELLS => (cells_along(area.w), cells_along(area.h)),
            _ => (0, 0),
        };
        let words_per_col = rows.div_ceil(64);
        let words_per_row = cols.div_ceil(64);
        let col_ws = &mut self.col_ws;
        let row_ws = &mut self.row_ws;
        col_ws.clear();
        col_ws.resize(cols * words_per_col, 0);
        row_ws.clear();
        row_ws.resize(rows * words_per_row, 0);
        for c in 0..cols {
            ones(
                &mut col_ws[c * words_per_col..(c + 1) * words_per_col],
                rows,
            );
        }
        for r in 0..rows {
            ones(
                &mut row_ws[r * words_per_row..(r + 1) * words_per_row],
                cols,
            );
        }
        for b in boxes {
            let Some(ib) = b.intersection(area) else {
                continue;
            };
            let c0 = ((ib.x - area.x) / cell).floor().max(0.0) as usize;
            let r0 = ((ib.y - area.y) / cell).floor().max(0.0) as usize;
            let c1 = (((ib.right() - area.x) / cell - 1e-9).ceil() as usize).min(cols);
            let r1 = (((ib.bottom() - area.y) / cell - 1e-9).ceil() as usize).min(rows);
            for c in c0..c1 {
                clear_range(
                    &mut col_ws[c * words_per_col..(c + 1) * words_per_col],
                    r0,
                    r1,
                );
            }
            for r in r0..r1 {
                clear_range(
                    &mut row_ws[r * words_per_row..(r + 1) * words_per_row],
                    c0,
                    c1,
                );
            }
        }
        self.origin = Point::new(area.x, area.y);
        self.cell = cell;
        self.cols = cols;
        self.rows = rows;
        self.words_per_col = words_per_col;
        self.words_per_row = words_per_row;
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

    /// Whitespace words of column `col`, one bit per row, trailing bits
    /// zero.
    pub fn col_whitespace(&self, col: usize) -> &[u64] {
        &self.col_ws[col * self.words_per_col..(col + 1) * self.words_per_col]
    }

    /// Whitespace words of row `row`, one bit per column, trailing bits
    /// zero.
    pub fn row_whitespace(&self, row: usize) -> &[u64] {
        &self.row_ws[row * self.words_per_row..(row + 1) * self.words_per_row]
    }

    /// `true` when the cell is a whitespace position; out-of-range cells
    /// are not whitespace (same contract as `OccupancyGrid`).
    pub fn is_whitespace(&self, col: usize, row: usize) -> bool {
        col < self.cols
            && row < self.rows
            && self.col_whitespace(col)[row / 64] >> (row % 64) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::OccupancyGrid;

    /// Both rasters agree cell for cell (and on dimensions) for a layout.
    fn assert_matches_occupancy(area: BBox, boxes: &[BBox], cell: f64) {
        let occ = OccupancyGrid::rasterize(&area, boxes, cell);
        let packed = PackedGrid::rasterize(&area, boxes, cell);
        assert_eq!((occ.cols(), occ.rows()), (packed.cols(), packed.rows()));
        assert_eq!(occ.cell_size(), packed.cell_size());
        assert_eq!(occ.origin(), packed.origin());
        for r in 0..occ.rows() {
            for c in 0..occ.cols() {
                assert_eq!(
                    occ.is_whitespace(c, r),
                    packed.is_whitespace(c, r),
                    "cell ({c},{r}) disagrees"
                );
            }
        }
        // Row words carry the same bits as the column words.
        for r in 0..packed.rows() {
            for c in 0..packed.cols() {
                let bit = packed.row_whitespace(r)[c / 64] >> (c % 64) & 1 == 1;
                assert_eq!(bit, packed.is_whitespace(c, r), "row word ({c},{r})");
            }
        }
    }

    #[test]
    fn matches_occupancy_grid_on_basic_layouts() {
        assert_matches_occupancy(
            BBox::new(0.0, 0.0, 10.0, 10.0),
            &[BBox::new(2.0, 2.0, 3.0, 3.0)],
            1.0,
        );
        assert_matches_occupancy(
            BBox::new(10.0, 20.0, 40.0, 40.0),
            &[
                BBox::new(11.0, 21.0, 9.0, 9.0),
                BBox::new(30.0, 40.0, 15.0, 5.0),
            ],
            2.0,
        );
        // Boundary-aligned boxes must not leak into the next cell.
        assert_matches_occupancy(
            BBox::new(0.0, 0.0, 10.0, 10.0),
            &[BBox::new(0.0, 0.0, 5.0, 5.0)],
            1.0,
        );
    }

    #[test]
    fn reused_grid_equals_a_fresh_one() {
        // Larger, smaller and empty areas through one buffer: stale words
        // from an earlier area must never leak into a later raster.
        let layouts = [
            (
                BBox::new(0.0, 0.0, 130.0, 70.0),
                vec![BBox::new(5.0, 5.0, 100.0, 9.0)],
            ),
            (
                BBox::new(3.0, 4.0, 20.0, 10.0),
                vec![BBox::new(4.0, 5.0, 2.0, 2.0)],
            ),
            (BBox::new(0.0, 0.0, 0.0, 10.0), vec![]),
            (
                BBox::new(0.0, 0.0, 65.0, 129.0),
                vec![BBox::new(0.0, 64.0, 65.0, 1.0)],
            ),
        ];
        let mut reused = PackedGrid::default();
        for (area, boxes) in &layouts {
            reused.rasterize_into(area, boxes, 1.0);
            assert_eq!(reused, PackedGrid::rasterize(area, boxes, 1.0));
        }
    }

    #[test]
    fn partial_trailing_words_have_zero_tail_bits() {
        // 65, 63 and 64 rows: one full word plus one bit, one word short
        // of full, and exactly one word.
        for rows in [65.0, 63.0, 64.0] {
            let area = BBox::new(0.0, 0.0, 3.0, rows);
            let g = PackedGrid::rasterize(&area, &[], 1.0);
            let n = rows as usize;
            assert_eq!(g.rows(), n);
            let words = g.col_whitespace(0);
            assert_eq!(words.len(), n.div_ceil(64));
            let excess = words.len() * 64 - n;
            if excess > 0 {
                assert_eq!(
                    words.last().unwrap() & !(u64::MAX >> excess),
                    0,
                    "tail bits past row {n} must be zero"
                );
            }
            let total: u32 = words.iter().map(|w| w.count_ones()).sum();
            assert_eq!(total as usize, n, "all {n} rows whitespace");
        }
    }

    #[test]
    fn occupancy_clears_across_word_boundaries() {
        // A box spanning rows 60..70 hits both words of a 100-row column.
        let area = BBox::new(0.0, 0.0, 4.0, 100.0);
        let boxes = [BBox::new(0.0, 60.0, 4.0, 10.0)];
        assert_matches_occupancy(area, &boxes, 1.0);
        let g = PackedGrid::rasterize(&area, &boxes, 1.0);
        for r in 60..70 {
            assert!(!g.is_whitespace(0, r), "row {r} occupied");
        }
        assert!(g.is_whitespace(0, 59));
        assert!(g.is_whitespace(0, 70));
    }

    #[test]
    fn single_row_and_single_column_grids() {
        // One row: horizontal masks are per-column single bits.
        assert_matches_occupancy(
            BBox::new(0.0, 0.0, 100.0, 1.0),
            &[BBox::new(10.0, 0.0, 5.0, 1.0)],
            1.0,
        );
        // One column: vertical masks are per-row single bits.
        assert_matches_occupancy(
            BBox::new(0.0, 0.0, 1.0, 100.0),
            &[BBox::new(0.0, 10.0, 1.0, 5.0)],
            1.0,
        );
        let g = PackedGrid::rasterize(&BBox::new(0.0, 0.0, 100.0, 1.0), &[], 1.0);
        assert_eq!((g.cols(), g.rows()), (100, 1));
        assert_eq!(g.col_whitespace(0), &[1u64]);
        assert_eq!(g.row_whitespace(0).len(), 2);
    }

    #[test]
    fn overflow_guard_degrades_to_empty_grid() {
        // Same checked_mul ceiling as OccupancyGrid (PR 2 fix): absurd
        // finite extents degrade to (0, 0) instead of aborting.
        let area = BBox::new(0.0, 0.0, 1.0e300, 800.0);
        let g = PackedGrid::rasterize(&area, &[BBox::new(1.0, 1.0, 2.0, 2.0)], 4.0);
        assert_eq!((g.cols(), g.rows()), (0, 0));
        assert!(g.col_ws.is_empty() && g.row_ws.is_empty());
        assert_matches_occupancy(area, &[BBox::new(1.0, 1.0, 2.0, 2.0)], 4.0);
        // Non-finite extents: zero columns, same as OccupancyGrid.
        let inf = BBox::new(0.0, 0.0, f64::INFINITY, 10.0);
        let g = PackedGrid::rasterize(&inf, &[], 1.0);
        assert_eq!(g.cols(), 0);
        assert_matches_occupancy(inf, &[], 1.0);
    }

    #[test]
    fn boxes_outside_area_are_ignored() {
        let area = BBox::new(0.0, 0.0, 4.0, 4.0);
        let g = PackedGrid::rasterize(&area, &[BBox::new(100.0, 100.0, 5.0, 5.0)], 1.0);
        assert!(g.is_whitespace(0, 0) && g.is_whitespace(3, 3));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cell_size_panics() {
        PackedGrid::rasterize(&BBox::new(0.0, 0.0, 1.0, 1.0), &[], 0.0);
    }

    #[test]
    fn clear_range_edge_cases() {
        let mut w = vec![u64::MAX; 3];
        clear_range(&mut w, 0, 0); // empty range
        assert_eq!(w, vec![u64::MAX; 3]);
        clear_range(&mut w, 64, 128); // exactly one whole word
        assert_eq!(w, vec![u64::MAX, 0, u64::MAX]);
        let mut w = vec![u64::MAX; 2];
        clear_range(&mut w, 3, 5); // within one word
        assert_eq!(w[0], !(0b11u64 << 3));
        assert_eq!(w[1], u64::MAX);
        let mut w = vec![u64::MAX; 2];
        clear_range(&mut w, 60, 68); // straddles the boundary
        assert_eq!(w[0], !(u64::MAX << 60));
        assert_eq!(w[1], !(u64::MAX >> 60));
    }
}
