//! Baseline A2: recursive XY-Cut.
//!
//! The classic top-down projection-profile segmenter (Nagy et al.): a
//! region is split at its widest empty valley in the horizontal or
//! vertical projection profile, recursively, until no valley exceeds a
//! fixed absolute threshold. Its fixed threshold — no font-relative
//! normalisation, no semantics — is exactly what VS2's Algorithm 1
//! improves on, and is why XY-Cut degrades on heterogeneous layouts
//! (Table 5: strong on D1's uniform grid, weak on D2/D3).
//!
//! The algorithm itself is [`vs2_core::triage::cheap_blocks`], which the
//! triage cheap path and the serving tier's degradation fallback also
//! run; this module only adapts it to the [`Segmenter`] interface.

use crate::seg::Segmenter;
use vs2_core::segment::LogicalBlock;
use vs2_core::triage::{cheap_blocks, CheapPathConfig};
use vs2_docmodel::Document;

/// Recursive XY-Cut with a fixed valley threshold (`min_gap`, document
/// units) and a recursion bound (`max_depth`).
pub type XyCutSegmenter = CheapPathConfig;

impl Segmenter for XyCutSegmenter {
    fn name(&self) -> &'static str {
        "XY-Cut"
    }

    fn segment(&self, doc: &Document) -> Vec<LogicalBlock> {
        cheap_blocks(doc, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seg::testdoc::two_paragraphs;
    use vs2_docmodel::BBox;

    #[test]
    fn splits_clear_paragraph_gap() {
        let doc = two_paragraphs();
        let blocks = XyCutSegmenter::default().segment(&doc);
        assert_eq!(blocks.len(), 2, "{blocks:?}");
    }

    #[test]
    fn fixed_threshold_misses_small_gaps() {
        // Gap of 8 < min_gap 10 — XY-Cut keeps one block where a
        // font-relative method would split 8-unit text.
        let mut d = Document::new("small", 100.0, 100.0);
        for (y, w) in [(10.0, "a"), (26.0, "b")] {
            d.push_text(vs2_docmodel::TextElement::word(
                w,
                BBox::new(10.0, y, 80.0, 8.0),
            ));
        }
        let blocks = XyCutSegmenter::default().segment(&d);
        assert_eq!(blocks.len(), 1);
    }

    #[test]
    fn empty_document() {
        let d = Document::new("e", 10.0, 10.0);
        assert!(XyCutSegmenter::default().segment(&d).is_empty());
    }

    #[test]
    fn all_elements_preserved() {
        let doc = two_paragraphs();
        let blocks = XyCutSegmenter::default().segment(&doc);
        let total: usize = blocks.iter().map(|b| b.elements.len()).sum();
        assert_eq!(total, doc.len());
    }
}
