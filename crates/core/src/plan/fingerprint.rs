//! Layout fingerprinting: a quantised sketch of a document's element
//! geometry, computed *before* segmentation and used as the plan-cache
//! lookup key (ROADMAP item 3; cf. VRDSynth's cross-document layout
//! regularity).
//!
//! The fingerprint combines a grid-binned occupancy histogram of element
//! centroids with an exact element-count / quantised page-shape
//! signature. It is deterministic in the document geometry and ignores
//! all textual content, so members of one template family — documents
//! whose token boxes are template-fixed and only differ in glyph
//! content — share a fingerprint.
//!
//! ## Robustness contract
//!
//! No quantised sketch can be invariant under *arbitrary* perturbation —
//! a centroid sitting exactly on a cell boundary flips cells under any
//! nonzero jitter. Stability is therefore a joint contract with the
//! template source: as long as every element centroid stays at least
//! [`CENTROID_MARGIN`] document units away from every grid-cell
//! boundary, per-coordinate bounding-box jitter up to
//! [`STABLE_JITTER`] (the OCR channel's light/templated bound; jitter on
//! `x` plus half the jitter on `w` shifts a centroid by at most
//! `1.5 × jitter < CENTROID_MARGIN`) cannot move any centroid across a
//! boundary, and the fingerprint is bit-identical. The
//! `vs2_synth::templated` generator places all token boxes to honour the
//! margin; the conformance suite proves both properties.

use vs2_docmodel::{Document, Point};

/// Largest per-coordinate bounding-box jitter the fingerprint absorbs
/// for margin-respecting templates (matches the OCR channel's light
/// noise and the templated corpus default).
pub const STABLE_JITTER: f64 = 1.0;

/// Minimum distance every element centroid must keep from all grid-cell
/// boundaries for the robustness contract to hold. Jitter `j` on `x`/`y`
/// plus `j` on `w`/`h` displaces a centroid by at most `1.5 j` per axis;
/// `1.5 × STABLE_JITTER = 1.5 < 2.0` leaves slack.
pub const CENTROID_MARGIN: f64 = 2.0;

/// Quantisation parameters of [`LayoutFingerprint::compute`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FingerprintConfig {
    /// Horizontal grid resolution of the occupancy histogram.
    pub grid_cols: usize,
    /// Vertical grid resolution of the occupancy histogram.
    pub grid_rows: usize,
    /// Page width/height quantum (document units) for the page-shape
    /// signature. Page dimensions are metadata, untouched by OCR noise,
    /// so the quantum only coalesces near-identical paper sizes.
    pub page_quantum: f64,
}

impl Default for FingerprintConfig {
    fn default() -> Self {
        Self {
            grid_cols: 16,
            grid_rows: 16,
            page_quantum: 8.0,
        }
    }
}

impl FingerprintConfig {
    /// Distance from point `p` to the nearest grid-cell boundary on a
    /// `page_w × page_h` page — the margin the robustness contract is
    /// stated over. Template generators (and the conformance suite) use
    /// this to keep token centroids clear of boundaries.
    pub fn boundary_margin(&self, page_w: f64, page_h: f64, p: Point) -> f64 {
        let axis = |v: f64, extent: f64, n: usize| -> f64 {
            if extent <= 0.0 || n == 0 {
                return f64::INFINITY;
            }
            let step = extent / n as f64;
            let offset = (v / step).rem_euclid(1.0) * step;
            offset.min(step - offset)
        };
        axis(p.x, page_w, self.grid_cols).min(axis(p.y, page_h, self.grid_rows))
    }
}

#[cfg(test)]
thread_local! {
    /// [`LayoutFingerprint::compute`] calls on this thread.
    pub(crate) static FINGERPRINTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The quantised layout sketch. All fields are integral, so equality,
/// hashing and ordering are exact; it is the key type of
/// [`crate::plan::PlanStore`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LayoutFingerprint {
    /// Quantised page width (`floor(width / page_quantum)`).
    pub page_w_q: u32,
    /// Quantised page height.
    pub page_h_q: u32,
    /// Exact text-element count. OCR jitter never changes counts; drops,
    /// merges and splits do — such documents simply miss the cache.
    pub n_texts: u32,
    /// Exact image-element count.
    pub n_images: u32,
    /// Grid occupancy histogram: 2 bits per cell in row-major order
    /// (occupancy buckets 0, 1, 2–3, ≥4), packed little-endian into
    /// 64-bit words.
    pub cells: Vec<u64>,
}

impl LayoutFingerprint {
    /// Computes the fingerprint of `doc` under `cfg`. Pure geometry: the
    /// result depends only on page dimensions and element bounding
    /// boxes, never on text or colour.
    pub fn compute(doc: &Document, cfg: &FingerprintConfig) -> Self {
        #[cfg(test)]
        FINGERPRINTS.with(|c| c.set(c.get() + 1));
        let cols = cfg.grid_cols.max(1);
        let rows = cfg.grid_rows.max(1);
        let mut counts = vec![0u32; cols * rows];
        for r in doc.element_refs() {
            let c = doc.bbox_of(r).centroid();
            let col = cell_index(c.x, doc.width, cols);
            let row = cell_index(c.y, doc.height, rows);
            counts[row * cols + col] = counts[row * cols + col].saturating_add(1);
        }
        let mut cells = vec![0u64; (cols * rows * 2).div_ceil(64)];
        for (i, n) in counts.iter().enumerate() {
            let bucket: u64 = match n {
                0 => 0,
                1 => 1,
                2..=3 => 2,
                _ => 3,
            };
            cells[(i * 2) / 64] |= bucket << ((i * 2) % 64);
        }
        let quantise = |v: f64| -> u32 {
            if cfg.page_quantum > 0.0 && v.is_finite() && v > 0.0 {
                (v / cfg.page_quantum).floor().min(u32::MAX as f64) as u32
            } else {
                0
            }
        };
        Self {
            page_w_q: quantise(doc.width),
            page_h_q: quantise(doc.height),
            n_texts: doc.texts.len().min(u32::MAX as usize) as u32,
            n_images: doc.images.len().min(u32::MAX as usize) as u32,
            cells,
        }
    }

    /// A 64-bit FNV-1a digest of the fingerprint, for logging and span
    /// tags. Not the cache key (the full struct is).
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.page_w_q as u64);
        eat(self.page_h_q as u64);
        eat(self.n_texts as u64);
        eat(self.n_images as u64);
        for w in &self.cells {
            eat(*w);
        }
        h
    }
}

/// Row/column of a coordinate, clamped into the grid so off-page
/// centroids (possible after heavy jitter near the page edge) still bin
/// deterministically.
fn cell_index(v: f64, extent: f64, n: usize) -> usize {
    if extent <= 0.0 || !v.is_finite() {
        return 0;
    }
    let raw = (v / extent * n as f64).floor();
    if raw.is_nan() {
        return 0;
    }
    (raw as i64).clamp(0, n as i64 - 1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs2_docmodel::{BBox, TextElement};

    fn doc_with(boxes: &[BBox]) -> Document {
        let mut d = Document::new("fp-test", 640.0, 800.0);
        for (i, b) in boxes.iter().enumerate() {
            d.push_text(TextElement::word(format!("w{i}"), *b));
        }
        d
    }

    #[test]
    fn geometry_only_text_changes_nothing() {
        let cfg = FingerprintConfig::default();
        let a = doc_with(&[BBox::new(100.0, 100.0, 40.0, 10.0)]);
        let mut b = doc_with(&[BBox::new(100.0, 100.0, 40.0, 10.0)]);
        b.texts[0].text = "different".into();
        assert_eq!(
            LayoutFingerprint::compute(&a, &cfg),
            LayoutFingerprint::compute(&b, &cfg)
        );
    }

    #[test]
    fn moved_element_changes_fingerprint() {
        let cfg = FingerprintConfig::default();
        let a = doc_with(&[BBox::new(100.0, 100.0, 40.0, 10.0)]);
        let b = doc_with(&[BBox::new(500.0, 700.0, 40.0, 10.0)]);
        assert_ne!(
            LayoutFingerprint::compute(&a, &cfg),
            LayoutFingerprint::compute(&b, &cfg)
        );
    }

    #[test]
    fn element_count_is_exact() {
        let cfg = FingerprintConfig::default();
        let one = doc_with(&[BBox::new(100.0, 100.0, 40.0, 10.0)]);
        let two = doc_with(&[
            BBox::new(100.0, 100.0, 40.0, 10.0),
            BBox::new(100.0, 100.0, 40.0, 10.0),
        ]);
        let (fa, fb) = (
            LayoutFingerprint::compute(&one, &cfg),
            LayoutFingerprint::compute(&two, &cfg),
        );
        assert_eq!(fa.n_texts, 1);
        assert_eq!(fb.n_texts, 2);
        assert_ne!(fa, fb);
    }

    #[test]
    fn margin_respecting_jitter_is_absorbed() {
        let cfg = FingerprintConfig::default();
        // 640/16 = 40-unit columns, 800/16 = 50-unit rows: a centroid at
        // (100, 125) sits 20 units from the nearest column boundary and
        // 25 from the nearest row boundary.
        let centre = BBox::new(76.0, 111.0, 48.0, 28.0); // centroid (100, 125)
        let base = doc_with(&[centre]);
        let fp = LayoutFingerprint::compute(&base, &cfg);
        let margin = cfg.boundary_margin(640.0, 800.0, centre.centroid());
        assert!(margin >= CENTROID_MARGIN, "margin {margin}");
        for (dx, dy, dw, dh) in [
            (STABLE_JITTER, STABLE_JITTER, STABLE_JITTER, STABLE_JITTER),
            (
                -STABLE_JITTER,
                -STABLE_JITTER,
                -STABLE_JITTER,
                -STABLE_JITTER,
            ),
            (STABLE_JITTER, -STABLE_JITTER, -STABLE_JITTER, STABLE_JITTER),
        ] {
            let jittered = doc_with(&[BBox::new(
                centre.x + dx,
                centre.y + dy,
                centre.w + dw,
                centre.h + dh,
            )]);
            assert_eq!(LayoutFingerprint::compute(&jittered, &cfg), fp);
        }
    }

    #[test]
    fn boundary_margin_measures_distance_to_grid_lines() {
        let cfg = FingerprintConfig::default();
        // 640/16 = 40-unit columns; x = 41 is 1 unit past a boundary.
        let m = cfg.boundary_margin(640.0, 800.0, Point::new(41.0, 120.0));
        assert!((m - 1.0).abs() < 1e-9, "{m}");
        let mid = cfg.boundary_margin(640.0, 800.0, Point::new(60.0, 125.0));
        assert!((mid - 20.0).abs() < 1e-9, "{mid}");
    }

    #[test]
    fn digest_is_stable_and_discriminating() {
        let cfg = FingerprintConfig::default();
        let a = doc_with(&[BBox::new(100.0, 100.0, 40.0, 10.0)]);
        let b = doc_with(&[BBox::new(500.0, 700.0, 40.0, 10.0)]);
        let fa = LayoutFingerprint::compute(&a, &cfg);
        assert_eq!(fa.digest(), LayoutFingerprint::compute(&a, &cfg).digest());
        assert_ne!(fa.digest(), LayoutFingerprint::compute(&b, &cfg).digest());
    }

    #[test]
    fn degenerate_pages_do_not_panic() {
        let cfg = FingerprintConfig::default();
        let mut d = Document::new("degenerate", 0.0, 0.0);
        d.push_text(TextElement::word("w", BBox::new(0.0, 0.0, 1.0, 1.0)));
        let fp = LayoutFingerprint::compute(&d, &cfg);
        assert_eq!(fp.n_texts, 1);
    }
}
