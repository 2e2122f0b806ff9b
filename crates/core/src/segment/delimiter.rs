//! Visual-delimiter identification — Algorithm 1 of the paper.
//!
//! Given the candidate separator strips (runs of consecutive valid cuts)
//! inside a visual area, decide which strips are *visual delimiters*
//! between semantically diverse areas and which are ordinary intra-block
//! spacing (line leading, word gaps).
//!
//! The paper's Algorithm 1 rests on two assumptions: (a) the distribution
//! of inter-area separation differs from intra-area separation, and (b)
//! font size is uniform within a coherent area. Each run's width is
//! normalised by the height of its *neighbouring bounding box* (the
//! element at minimum distance from the strip), the runs are ranked by
//! normalised width, and the first inflection point of the ranked
//! distribution splits delimiters from spacing. The Pearson-correlation
//! diagnostic the algorithm scans (lines 8–11) is not computed: the
//! ranked widths alone decide, and an explicit minimum width ratio
//! guards degenerate distributions. Interpretation choices are
//! documented in DESIGN.md.

use crate::segment::cuts::CutRun;
use vs2_docmodel::{BBox, OccupancyGrid, Point};

/// A separator strip with its Algorithm-1 statistics.
#[derive(Debug, Clone, Copy)]
pub struct ScoredRun {
    /// The underlying run of consecutive valid cuts.
    pub run: CutRun,
    /// Strip extent in document units (`|s| ×` cell size).
    pub gap: f64,
    /// Height of the nearest neighbouring element bounding box.
    pub neighbor_height: f64,
    /// `gap / neighbor_height` — the normalised width of Algorithm 1.
    pub width: f64,
}

/// Tuning knobs for delimiter selection.
#[derive(Debug, Clone, Copy)]
pub struct DelimiterConfig {
    /// Runs narrower than this ratio of neighbouring text height are never
    /// delimiters (ordinary leading is ≈ 0.35 of the font size).
    pub min_width_ratio: f64,
    /// Runs at least this ratio are always delimiters.
    pub strong_width_ratio: f64,
    /// Minimum relative drop between ranked widths to accept an inflection.
    pub min_drop: f64,
}

impl Default for DelimiterConfig {
    fn default() -> Self {
        Self {
            min_width_ratio: 0.7,
            strong_width_ratio: 1.4,
            min_drop: 1.35,
        }
    }
}

/// The bounding box of the strip a run occupies, in document
/// coordinates, from bare raster geometry (origin + cell size) — the
/// grid-representation-independent form shared by the packed fast path.
pub fn run_strip_geom(run: &CutRun, origin: Point, cell: f64, area: &BBox) -> BBox {
    if run.horizontal {
        BBox::new(
            area.x,
            origin.y + run.start as f64 * cell,
            area.w,
            run.len as f64 * cell,
        )
    } else {
        BBox::new(
            origin.x + run.start as f64 * cell,
            area.y,
            run.len as f64 * cell,
            area.h,
        )
    }
}

/// Scores each run against the element boxes of the area.
///
/// `all_boxes` supplies the geometry (the true gap between the content on
/// either side of the strip); `text_boxes` supplies the neighbour-height
/// normalisation — text only, because an image's extent says nothing
/// about the local font size (assumption (b) of Algorithm 1 concerns
/// text). The *true* gap is used rather than the run's cardinality: drift
/// paths inflate a run by the page-margin width, which would distort the
/// width distribution Algorithm 1 ranks.
pub fn score_runs(
    runs: &[CutRun],
    grid: &OccupancyGrid,
    area: &BBox,
    all_boxes: &[BBox],
    text_boxes: &[BBox],
) -> Vec<ScoredRun> {
    score_runs_geom(
        runs,
        grid.origin(),
        grid.cell_size(),
        area,
        all_boxes,
        text_boxes,
    )
}

/// [`score_runs`] over bare raster geometry — shared with the packed fast
/// path, which has no [`OccupancyGrid`] to hand. The scoring touches only
/// the raster's origin and cell size, so both entry points compute the
/// same statistics by construction.
pub fn score_runs_geom(
    runs: &[CutRun],
    origin: Point,
    cell: f64,
    area: &BBox,
    all_boxes: &[BBox],
    text_boxes: &[BBox],
) -> Vec<ScoredRun> {
    let mut out = Vec::with_capacity(runs.len());
    score_runs_geom_into(runs, origin, cell, area, all_boxes, text_boxes, &mut out);
    out
}

/// [`score_runs_geom`] appending into a caller-owned buffer — the fast
/// path reuses one scored-run buffer across the whole recursion. Pushes
/// the same values in the same order as the allocating form.
#[allow(clippy::too_many_arguments)]
pub fn score_runs_geom_into(
    runs: &[CutRun],
    origin: Point,
    cell: f64,
    area: &BBox,
    all_boxes: &[BBox],
    text_boxes: &[BBox],
    out: &mut Vec<ScoredRun>,
) {
    let text_boxes = if text_boxes.is_empty() {
        all_boxes
    } else {
        text_boxes
    };
    let max_h = text_boxes.iter().map(|b| b.h).fold(0.0, f64::max).max(1e-9);
    out.extend(runs.iter().map(|run| {
        let strip = run_strip_geom(run, origin, cell, area);
        // Neighbouring bounding box: minimum distance from the strip.
        // One distance per box; a later box wins only on a strictly
        // smaller distance, so this is the first minimum `min_by` keeps.
        let mut nearest: Option<(f64, f64)> = None;
        for b in text_boxes {
            let d = strip.distance(b);
            if nearest.is_none_or(|(best, _)| d.total_cmp(&best).is_lt()) {
                nearest = Some((d, b.h));
            }
        }
        let neighbor_height = nearest.map_or(max_h, |(_, h)| h);
        // True gap: distance between the closest content on either
        // side of the strip centre, both sides folded in one pass (each
        // side's fold keeps its order). Falls back to the run extent
        // for offset layouts where the sides overlap.
        let center = strip.centroid();
        let (mut before, mut after) = (f64::NEG_INFINITY, f64::INFINITY);
        for b in all_boxes {
            let c = b.centroid();
            if run.horizontal {
                if c.y < center.y {
                    before = before.max(b.bottom());
                }
                if c.y > center.y {
                    after = after.min(b.y);
                }
            } else {
                if c.x < center.x {
                    before = before.max(b.right());
                }
                if c.x > center.x {
                    after = after.min(b.x);
                }
            }
        }
        let gap = after - before;
        let gap = if gap.is_finite() && gap > 0.0 {
            gap
        } else {
            run.len as f64 * cell
        };
        ScoredRun {
            run: *run,
            gap,
            neighbor_height: neighbor_height.max(1e-9),
            width: gap / neighbor_height.max(1e-9),
        }
    }));
}

/// Selects the visual delimiters among scored runs.
///
/// Runs are ranked by normalised width (descending); the first inflection
/// point — the largest relative drop between consecutive ranked widths —
/// splits delimiters from intra-block spacing, guarded by the configured
/// width-ratio floor and ceiling.
pub fn select_delimiters(scored: &[ScoredRun], config: &DelimiterConfig) -> Vec<ScoredRun> {
    let mut ranked = Vec::new();
    let mut out = Vec::new();
    select_delimiters_into(scored, config, &mut ranked, &mut out);
    out
}

/// [`select_delimiters`] over caller-owned rank/output buffers — the
/// fast path reuses both across the whole recursion. `ranked` is scratch
/// (`ScoredRun` is `Copy`; a stable sort of copies ranks identically to
/// a stable sort of references); `out` receives the selected delimiters
/// in the same order as the allocating form.
pub fn select_delimiters_into(
    scored: &[ScoredRun],
    config: &DelimiterConfig,
    ranked: &mut Vec<ScoredRun>,
    out: &mut Vec<ScoredRun>,
) {
    out.clear();
    if scored.is_empty() {
        return;
    }
    ranked.clear();
    ranked.extend_from_slice(scored);
    ranked.sort_by(|a, b| b.width.total_cmp(&a.width));

    // First inflection: the largest relative drop in the ranked widths.
    // When no significant drop exists the spacing is uniform (assumption
    // (a) fails to discriminate) and only the strong-ratio rule applies.
    let mut split = 0;
    let mut best_drop = config.min_drop;
    for i in 0..ranked.len() - 1 {
        let hi = ranked[i].width;
        let lo = ranked[i + 1].width.max(1e-9);
        let drop = hi / lo;
        if drop > best_drop {
            best_drop = drop;
            split = i + 1;
        }
    }

    out.extend(ranked.iter().enumerate().filter_map(|(rank, s)| {
        if s.width < config.min_width_ratio {
            return None;
        }
        if s.width >= config.strong_width_ratio {
            return Some(*s);
        }
        // Mid-band: a horizontal strip that cleanly separates complete
        // lines is a delimiter at ≥ min ratio (intra-line content never
        // produces horizontal runs, so there is no uniform-leading
        // distribution to confuse it with once true gaps are used).
        // Vertical strips need the inflection contrast.
        if s.run.horizontal || rank < split {
            Some(*s)
        } else {
            None
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::cuts::{all_runs, CutRun};

    fn make(area: BBox, boxes: &[BBox]) -> (OccupancyGrid, Vec<CutRun>) {
        let grid = OccupancyGrid::rasterize(&area, boxes, 1.0);
        let runs = all_runs(&grid);
        (grid, runs)
    }

    /// Three lines of 10-unit text with 4-unit leading, then a 20-unit gap,
    /// then three more lines — the gap must be the only delimiter.
    fn two_paragraph_layout() -> (BBox, Vec<BBox>) {
        let area = BBox::new(0.0, 0.0, 100.0, 120.0);
        let mut boxes = Vec::new();
        let mut y = 2.0;
        for _ in 0..3 {
            boxes.push(BBox::new(2.0, y, 96.0, 10.0));
            y += 14.0; // 4-unit leading
        }
        y += 20.0; // inter-paragraph gap
        for _ in 0..3 {
            boxes.push(BBox::new(2.0, y, 96.0, 10.0));
            y += 14.0;
        }
        (area, boxes)
    }

    #[test]
    fn paragraph_gap_is_the_delimiter() {
        let (area, boxes) = two_paragraph_layout();
        let (grid, runs) = make(area, &boxes);
        let scored = score_runs(&runs, &grid, &area, &boxes, &boxes);
        // Interior strips only: ignore page-margin runs above/below all
        // content (the segmenter trims to content anyway).
        let interior: Vec<ScoredRun> = scored
            .into_iter()
            .filter(|s| s.run.horizontal && s.run.start > 2 && (s.run.end() as f64) < area.h - 2.0)
            .collect();
        let selected = select_delimiters(&interior, &DelimiterConfig::default());
        // The 24-unit gap (20 + leading) is selected; the 4-unit leadings
        // (width 0.4 < min ratio) are not.
        assert_eq!(selected.len(), 1, "{selected:?}");
        assert!(selected[0].gap >= 18.0);
    }

    #[test]
    fn uniform_leading_yields_no_delimiters() {
        let area = BBox::new(0.0, 0.0, 100.0, 100.0);
        let mut boxes = Vec::new();
        let mut y = 2.0;
        for _ in 0..6 {
            boxes.push(BBox::new(2.0, y, 96.0, 10.0));
            y += 14.0;
        }
        let (grid, runs) = make(area, &boxes);
        let scored = score_runs(&runs, &grid, &area, &boxes, &boxes);
        let interior: Vec<ScoredRun> = scored
            .into_iter()
            .filter(|s| s.run.horizontal && s.run.start > 2 && s.run.end() < 90)
            .collect();
        let selected = select_delimiters(&interior, &DelimiterConfig::default());
        assert!(selected.is_empty(), "{selected:?}");
    }

    #[test]
    fn normalisation_accounts_for_font_size() {
        // The same 12-unit gap: a delimiter next to 8-unit text, not next
        // to 30-unit text.
        let small_cfg = DelimiterConfig::default();
        let run = CutRun {
            horizontal: true,
            start: 10,
            len: 12,
        };
        let area = BBox::new(0.0, 0.0, 50.0, 50.0);
        let grid = OccupancyGrid::rasterize(&area, &[], 1.0);
        let small_text = vec![BBox::new(0.0, 0.0, 50.0, 8.0)];
        let big_text = vec![BBox::new(0.0, 0.0, 50.0, 30.0)];
        let s_small = score_runs(&[run], &grid, &area, &small_text, &small_text);
        let s_big = score_runs(&[run], &grid, &area, &big_text, &big_text);
        assert!(s_small[0].width > 1.0);
        assert!(s_big[0].width < 0.5);
        assert_eq!(select_delimiters(&s_small, &small_cfg).len(), 1);
        assert_eq!(select_delimiters(&s_big, &small_cfg).len(), 0);
    }

    #[test]
    fn empty_inputs() {
        assert!(select_delimiters(&[], &DelimiterConfig::default()).is_empty());
    }

    #[test]
    fn strip_geometry() {
        let area = BBox::new(10.0, 20.0, 100.0, 50.0);
        let grid = OccupancyGrid::rasterize(&area, &[], 2.0);
        let run = CutRun {
            horizontal: true,
            start: 5,
            len: 3,
        };
        let strip = run_strip_geom(&run, grid.origin(), grid.cell_size(), &area);
        assert_eq!(strip, BBox::new(10.0, 30.0, 100.0, 6.0));
        let vrun = CutRun {
            horizontal: false,
            start: 10,
            len: 2,
        };
        let vstrip = run_strip_geom(&vrun, grid.origin(), grid.cell_size(), &area);
        assert_eq!(vstrip, BBox::new(30.0, 20.0, 4.0, 50.0));
    }
}
