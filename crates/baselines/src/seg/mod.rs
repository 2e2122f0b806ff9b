//! Segmentation baselines of Table 5 (A1–A5).
//!
//! Every baseline implements [`Segmenter`] and can be plugged into the
//! same VS2-Select stage through
//! [`vs2_core::Vs2Pipeline::extract_on_blocks`], which is how the
//! Table 5 comparison localises named entities per algorithm.

pub mod tesseract;
pub mod textonly;
pub mod vips;
pub mod voronoi;
pub mod xycut;

use vs2_core::segment::{logical_blocks, LogicalBlock, SegmentConfig};
use vs2_docmodel::Document;

/// A page-segmentation algorithm producing logical-block proposals.
pub trait Segmenter {
    /// Display name used in the Table 5 rows.
    fn name(&self) -> &'static str;

    /// Decomposes a document into blocks.
    fn segment(&self, doc: &Document) -> Vec<LogicalBlock>;

    /// `false` when the algorithm cannot run on markup-free documents
    /// (VIPS on dataset D1, per the paper).
    fn requires_markup(&self) -> bool {
        false
    }
}

/// VS2-Segment itself (row A6), wrapped for the common interface.
#[derive(Debug, Clone, Default)]
pub struct Vs2Segmenter {
    /// Segmentation configuration.
    pub config: SegmentConfig,
}

impl Segmenter for Vs2Segmenter {
    fn name(&self) -> &'static str {
        "VS2-Segment"
    }

    fn segment(&self, doc: &Document) -> Vec<LogicalBlock> {
        logical_blocks(doc, &self.config)
    }
}

pub use tesseract::TesseractSegmenter;
pub use textonly::TextOnlySegmenter;
pub use vips::VipsSegmenter;
pub use voronoi::VoronoiSegmenter;
pub use xycut::XyCutSegmenter;

#[cfg(test)]
pub(crate) mod testdoc {
    use vs2_docmodel::{BBox, Document, MarkupClass, TextElement};

    /// A two-paragraph document with markup hints, shared by the
    /// baseline tests.
    pub fn two_paragraphs() -> Document {
        let mut d = Document::new("base", 200.0, 220.0);
        for line in 0..3 {
            for col in 0..4 {
                d.push_text(
                    TextElement::word(
                        "concert",
                        BBox::new(
                            10.0 + col as f64 * 45.0,
                            10.0 + line as f64 * 14.0,
                            40.0,
                            10.0,
                        ),
                    )
                    .with_markup(MarkupClass::Heading2),
                );
            }
        }
        for line in 0..3 {
            for col in 0..4 {
                d.push_text(
                    TextElement::word(
                        "acres",
                        BBox::new(
                            10.0 + col as f64 * 45.0,
                            140.0 + line as f64 * 14.0,
                            40.0,
                            10.0,
                        ),
                    )
                    .with_markup(MarkupClass::Paragraph),
                );
            }
        }
        d
    }
}
