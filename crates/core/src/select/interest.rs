//! Interest-point determination (§5.3.1).
//!
//! An interest point is a visually prominent or semantically significant
//! logical block. The paper casts this as optimal-subset selection over
//! three objectives — (1) maximise bounding-box height (big fonts signal
//! salience), (2) maximise semantic coherence (pairwise embedding cosine
//! of the block's words), (3) minimise average word density (sparse,
//! large blocks are highlights) — and takes the first-order Pareto front
//! by non-dominated sorting.

use crate::segment::LogicalBlock;
use vs2_docmodel::{Document, ElementRef};
use vs2_nlp::embedding::{cosine, Embedder, Vector};

/// The objective values of one block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objectives {
    /// Tallest element in the block (font-size proxy). Maximised.
    pub height: f64,
    /// Mean pairwise cosine similarity of the block's words. Maximised.
    /// (The paper sums; the mean is the scale-free equivalent — see
    /// DESIGN.md.)
    pub coherence: f64,
    /// Average word density over the block's area. Minimised.
    pub density: f64,
}

/// Computes the three §5.3.1 objectives for a block.
pub fn objectives<E: Embedder>(doc: &Document, block: &LogicalBlock, embedder: &E) -> Objectives {
    objectives_at(
        doc,
        block,
        doc.word_density(&block.bbox),
        &embedder.embed_column(&doc.texts),
    )
}

/// [`objectives`] with the block's word density already computed, over
/// the embedding of each of the document's text elements.
fn objectives_at(
    doc: &Document,
    block: &LogicalBlock,
    density: f64,
    column: &[Vector],
) -> Objectives {
    let height = block
        .elements
        .iter()
        .map(|r| doc.bbox_of(*r).h)
        .fold(0.0, f64::max);
    // The block's word vectors in element order.
    let words = || {
        block.elements.iter().filter_map(|r| match r {
            ElementRef::Text(i) => Some(&column[*i]),
            ElementRef::Image(_) => None,
        })
    };
    let mut coh = 0.0;
    let mut pairs = 0usize;
    for (i, a) in words().enumerate() {
        for b in words().skip(i + 1) {
            coh += cosine(a, b);
            pairs += 1;
        }
    }
    let coherence = if pairs == 0 { 0.0 } else { coh / pairs as f64 };
    Objectives {
        height,
        coherence,
        density,
    }
}

/// `true` when `a` Pareto-dominates `b`.
pub fn dominates(a: &Objectives, b: &Objectives) -> bool {
    let ge = a.height >= b.height && a.coherence >= b.coherence && a.density <= b.density;
    let strict = a.height > b.height || a.coherence > b.coherence || a.density < b.density;
    ge && strict
}

/// Indices of the blocks on the first-order Pareto front — the interest
/// points of the document.
pub fn interest_points<E: Embedder>(
    doc: &Document,
    blocks: &[LogicalBlock],
    embedder: &E,
) -> Vec<usize> {
    interest_points_with(doc, blocks, &block_densities(doc, blocks), embedder)
}

/// Word density of every block's box, in block order.
pub(crate) fn block_densities(doc: &Document, blocks: &[LogicalBlock]) -> Vec<f64> {
    blocks.iter().map(|b| doc.word_density(&b.bbox)).collect()
}

/// [`interest_points`] over precomputed [`block_densities`]. The select
/// stage computes them once per block and reuses them when scoring.
pub(crate) fn interest_points_with<E: Embedder>(
    doc: &Document,
    blocks: &[LogicalBlock],
    densities: &[f64],
    embedder: &E,
) -> Vec<usize> {
    debug_assert_eq!(blocks.len(), densities.len());
    let column = embedder.embed_column(&doc.texts);
    let objs: Vec<Objectives> = blocks
        .iter()
        .zip(densities)
        .map(|(b, d)| objectives_at(doc, b, *d, &column))
        .collect();
    (0..blocks.len())
        .filter(|&i| {
            !objs
                .iter()
                .enumerate()
                .any(|(j, o)| j != i && dominates(o, &objs[i]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs2_docmodel::{BBox, TextElement};
    use vs2_nlp::LexiconEmbedding;

    fn block(doc: &mut Document, words: &[(&str, f64, f64, f64)]) -> LogicalBlock {
        let mut elems = Vec::new();
        for (w, x, y, h) in words {
            elems.push(doc.push_text(TextElement::word(*w, BBox::new(*x, *y, 40.0, *h))));
        }
        let bbox = BBox::enclosing(
            elems
                .iter()
                .map(|r| doc.bbox_of(*r))
                .collect::<Vec<_>>()
                .iter(),
        )
        .unwrap();
        LogicalBlock {
            bbox,
            elements: elems,
        }
    }

    #[test]
    fn title_block_is_an_interest_point() {
        let mut d = Document::new("ip", 400.0, 300.0);
        let title = block(
            &mut d,
            &[("Grand", 10.0, 10.0, 36.0), ("Festival", 80.0, 10.0, 36.0)],
        );
        let body = block(
            &mut d,
            &[
                ("the", 10.0, 100.0, 9.0),
                ("concert", 40.0, 100.0, 9.0),
                ("details", 80.0, 100.0, 9.0),
                ("follow", 120.0, 100.0, 9.0),
                ("here", 150.0, 100.0, 9.0),
                ("soon", 180.0, 100.0, 9.0),
            ],
        );
        let blocks = vec![title, body];
        let ips = interest_points(&d, &blocks, &LexiconEmbedding);
        assert!(ips.contains(&0), "title must be an interest point: {ips:?}");
    }

    #[test]
    fn dominated_block_is_excluded() {
        let a = Objectives {
            height: 30.0,
            coherence: 0.8,
            density: 1.0,
        };
        let b = Objectives {
            height: 10.0,
            coherence: 0.5,
            density: 2.0,
        };
        assert!(dominates(&a, &b));
        assert!(!dominates(&b, &a));
        // Incomparable blocks both stay.
        let c = Objectives {
            height: 40.0,
            coherence: 0.2,
            density: 0.5,
        };
        assert!(!dominates(&a, &c) && !dominates(&c, &a));
    }

    #[test]
    fn pareto_front_is_nonempty_and_correct() {
        let mut d = Document::new("pf", 400.0, 300.0);
        let blocks = vec![
            block(&mut d, &[("big", 10.0, 10.0, 30.0)]),
            block(&mut d, &[("mid", 10.0, 60.0, 20.0)]),
            block(&mut d, &[("small", 10.0, 110.0, 10.0)]),
        ];
        let ips = interest_points(&d, &blocks, &LexiconEmbedding);
        assert!(!ips.is_empty());
        // Identical except height: only the tallest single-word block can
        // be non-dominated on height, but density differs too (same area
        // per word count); ensure the tallest is in.
        assert!(ips.contains(&0));
    }

    #[test]
    fn coherence_of_homogeneous_block_exceeds_mixed() {
        let mut d = Document::new("coh", 400.0, 300.0);
        let homog = block(
            &mut d,
            &[
                ("concert", 10.0, 10.0, 10.0),
                ("festival", 60.0, 10.0, 10.0),
            ],
        );
        let mixed = block(
            &mut d,
            &[("concert", 10.0, 60.0, 10.0), ("acres", 60.0, 60.0, 10.0)],
        );
        let oh = objectives(&d, &homog, &LexiconEmbedding);
        let om = objectives(&d, &mixed, &LexiconEmbedding);
        assert!(oh.coherence > om.coherence);
    }

    #[test]
    fn empty_blocks() {
        let d = Document::new("e", 10.0, 10.0);
        let ips = interest_points(&d, &[], &LexiconEmbedding);
        assert!(ips.is_empty());
    }
}
