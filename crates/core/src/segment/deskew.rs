//! Skew estimation and correction — the "cleaning" step of Fig. 2.
//!
//! The paper's workflow "starts with cleaning (which includes perspective
//! warping, skew correction, and binarization)" before localisation. In
//! this reproduction the only geometric distortion the OCR channel
//! introduces is a global rotation, so cleaning reduces to deskewing:
//! estimate the page's skew angle from the text lines and rotate the
//! element boxes back.
//!
//! Estimation fits a straight line through each text line's word
//! centroids (least squares) and takes the median slope — robust to
//! short lines and to the odd vertical feature.

use std::cell::RefCell;

use crate::segment::segmenter::group_into_lines;
use crate::segment::SegmentConfig;
use vs2_docmodel::{BBox, Document, Point};

/// Minimum words on a line for its slope to vote.
const MIN_LINE_WORDS: usize = 3;

/// Reused estimation buffers (cleared and refilled on every call, so
/// reuse is a pure capacity optimisation).
#[derive(Default)]
struct SkewScratch {
    items: Vec<BBox>,
    line_boxes: Vec<BBox>,
    /// Lines still open to later words ([`group_into_lines`]).
    open_lines: Vec<u32>,
    tagged: Vec<(u32, Point)>,
    slopes: Vec<f64>,
}

thread_local! {
    static SKEW_SCRATCH: RefCell<SkewScratch> = RefCell::new(SkewScratch::default());
}

#[cfg(test)]
thread_local! {
    /// [`estimate_skew`] calls on this thread.
    pub(crate) static SKEW_ESTIMATES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Skew angles below this magnitude (radians) are treated as noise: the
/// segmenter analyses the raw geometry without rotating, and the plan
/// cache and the triage router consider the document un-skewed.
pub const SKEW_EPSILON: f64 = 0.005;

/// The cleaning step's one skew decision: the angle to correct when
/// `config.deskew` is on and the estimated skew reaches [`SKEW_EPSILON`]
/// (the segmenter rotates by it, the plan cache bypasses and triage
/// routes full on it), `None` otherwise.
pub fn skew_to_correct(doc: &Document, config: &SegmentConfig) -> Option<f64> {
    if !config.deskew {
        return None;
    }
    let angle = estimate_skew(doc);
    (angle.abs() >= SKEW_EPSILON).then_some(angle)
}

/// Estimates the page skew in radians (positive = clockwise text flow).
/// Returns 0.0 when too few usable lines exist.
pub fn estimate_skew(doc: &Document) -> f64 {
    #[cfg(test)]
    SKEW_ESTIMATES.with(|c| c.set(c.get() + 1));
    SKEW_SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        // Group words into lines by vertical overlap (same rule the reading
        // order uses). Points are tagged with the (first-matching) line they
        // join; iterating the flat tagged list filtered by line preserves
        // each line's insertion order, so the per-line least-squares sums
        // below are bit-identical to a per-line point list.
        let items = &mut scratch.items;
        items.clear();
        items.extend(doc.texts.iter().map(|t| t.bbox));
        items.sort_by(|a, b| a.y.total_cmp(&b.y));
        let line_boxes = &mut scratch.line_boxes;
        let tagged = &mut scratch.tagged;
        tagged.clear();
        group_into_lines(
            items.iter().map(|b| (b.centroid(), *b)),
            line_boxes,
            &mut scratch.open_lines,
            |li, c| tagged.push((li, c)),
        );

        // Least-squares slope per line; median over lines.
        let slopes = &mut scratch.slopes;
        slopes.clear();
        for li in 0..line_boxes.len() as u32 {
            let pts = || tagged.iter().filter(|(l, _)| *l == li).map(|(_, p)| p);
            let count = pts().count();
            if count < MIN_LINE_WORDS {
                continue;
            }
            let n = count as f64;
            let mx = pts().map(|p| p.x).sum::<f64>() / n;
            let my = pts().map(|p| p.y).sum::<f64>() / n;
            let sxx: f64 = pts().map(|p| (p.x - mx).powi(2)).sum();
            if sxx < 1e-9 {
                continue;
            }
            let sxy: f64 = pts().map(|p| (p.x - mx) * (p.y - my)).sum();
            slopes.push(sxy / sxx);
        }
        if slopes.is_empty() {
            return 0.0;
        }
        slopes.sort_by(|a, b| a.total_cmp(b));
        slopes[slopes.len() / 2].atan()
    })
}

fn rotate_bbox(b: &BBox, center: Point, cos: f64, sin: f64) -> BBox {
    let c = b.centroid();
    let dx = c.x - center.x;
    let dy = c.y - center.y;
    let nx = center.x + dx * cos - dy * sin;
    let ny = center.y + dx * sin + dy * cos;
    BBox::new(nx - b.w / 2.0, ny - b.h / 2.0, b.w, b.h)
}

/// Rotates every element box by `-angle` around the page centre,
/// straightening an `angle`-skewed page. Text content is untouched.
pub fn rotate_elements(doc: &Document, angle: f64) -> Document {
    let mut out = doc.clone();
    let center = Point::new(doc.width / 2.0, doc.height / 2.0);
    let (sin, cos) = (-angle).sin_cos();
    for t in out.texts.iter_mut() {
        t.bbox = rotate_bbox(&t.bbox, center, cos, sin);
    }
    for i in out.images.iter_mut() {
        i.bbox = rotate_bbox(&i.bbox, center, cos, sin);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs2_docmodel::TextElement;

    /// A three-line page rotated by `deg` degrees.
    fn skewed_doc(deg: f64) -> Document {
        let mut d = Document::new("skew", 400.0, 200.0);
        for line in 0..3 {
            for col in 0..6 {
                d.push_text(TextElement::word(
                    "word",
                    BBox::new(
                        20.0 + col as f64 * 60.0,
                        30.0 + line as f64 * 40.0,
                        50.0,
                        10.0,
                    ),
                ));
            }
        }
        rotate_elements(&d, -deg.to_radians())
    }

    #[test]
    fn estimates_known_skew() {
        for deg in [1.0f64, 2.5, -3.0] {
            let d = skewed_doc(deg);
            let est = estimate_skew(&d).to_degrees();
            assert!((est - deg).abs() < 0.4, "deg {deg}: estimated {est:.2}");
        }
    }

    #[test]
    fn straight_page_estimates_zero() {
        let d = skewed_doc(0.0);
        assert!(estimate_skew(&d).abs() < 1e-6);
        assert_eq!(skew_to_correct(&d, &SegmentConfig::default()), None);
    }

    #[test]
    fn deskew_straightens_lines() {
        let d = skewed_doc(3.0);
        let removed = skew_to_correct(&d, &SegmentConfig::default()).expect("skewed page");
        assert!(removed.abs() > 0.02, "removed {removed}");
        let residual = estimate_skew(&rotate_elements(&d, removed))
            .to_degrees()
            .abs();
        assert!(residual < 0.5, "residual skew {residual:.2}");
    }

    #[test]
    fn gate_is_off_without_deskew_and_estimates_nothing() {
        let d = skewed_doc(3.0);
        let off = SegmentConfig {
            deskew: false,
            ..SegmentConfig::default()
        };
        SKEW_ESTIMATES.with(|c| c.set(0));
        assert_eq!(skew_to_correct(&d, &off), None);
        assert_eq!(SKEW_ESTIMATES.with(std::cell::Cell::get), 0);
    }

    #[test]
    fn empty_and_sparse_documents() {
        let d = Document::new("e", 10.0, 10.0);
        assert_eq!(estimate_skew(&d), 0.0);
        let mut sparse = Document::new("s", 100.0, 100.0);
        sparse.push_text(TextElement::word("one", BBox::new(1.0, 1.0, 10.0, 5.0)));
        assert_eq!(estimate_skew(&sparse), 0.0, "too few words per line");
    }

    #[test]
    fn rotation_roundtrip_preserves_extents() {
        let d = skewed_doc(2.0);
        let out = rotate_elements(&d, estimate_skew(&d));
        assert_eq!(out.texts.len(), d.texts.len());
        for (a, b) in d.texts.iter().zip(&out.texts) {
            assert_eq!(a.text, b.text);
            assert!((a.bbox.w - b.bbox.w).abs() < 1e-9);
            assert!((a.bbox.h - b.bbox.h).abs() < 1e-9);
        }
    }
}
