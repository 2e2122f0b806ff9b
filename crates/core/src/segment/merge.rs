//! Semantic merging (§5.1.2, Eq. 1).
//!
//! Cut-based and cluster-based splitting over-segments — especially on
//! noisy transcriptions — so VS2-Segment merges sibling areas whose
//! *semantic contribution* is high. For a node `n_i` at level `h` of the
//! layout tree:
//!
//! ```text
//! SC(n_i) = Σ_j cos(n_i, sibling_j) − Σ_k cos(n_i, non-sibling same-level_k)
//! ```
//!
//! (both sums averaged here, so SC ∈ [−1, 1] regardless of arity). A node
//! whose SC exceeds θ_h = θ_min + (θ_max − θ_min)/10 · h merges with its
//! most semantically similar sibling, provided the two are not visually
//! separated. Merging repeats to a fixed point.

use vs2_docmodel::{BBox, Document, ElementRef, LayoutTree, NodeId};
use vs2_nlp::embedding::{cosine, Embedder, Vector};

/// Threshold parameters of Eq. 1's footnote: θ_h interpolates between
/// θ_min and θ_max with tree height.
#[derive(Debug, Clone, Copy)]
pub struct MergeConfig {
    /// θ_min (paper: 0).
    pub theta_min: f64,
    /// θ_max (paper: 1).
    pub theta_max: f64,
    /// Maximum merge sweeps (safety bound; convergence is usually fast).
    pub max_sweeps: usize,
    /// Floor on the actual cosine similarity of a merge pair: Eq. 1's
    /// contrastive score can cross θ_h on shallow trees through embedding
    /// noise alone, so the chosen sibling must also be genuinely similar.
    pub min_pair_similarity: f64,
    /// A whitespace gap of at least this many multiples of the nodes'
    /// text height marks the pair visually separated (no merge across a
    /// delimiter-strength gap).
    pub separation_gap_ratio: f64,
}

impl Default for MergeConfig {
    fn default() -> Self {
        Self {
            theta_min: 0.0,
            theta_max: 1.0,
            max_sweeps: 16,
            min_pair_similarity: 0.45,
            separation_gap_ratio: 0.9,
        }
    }
}

/// θ_h for a tree of height `h` (footnote 4 of the paper).
pub fn theta(cfg: &MergeConfig, h: usize) -> f64 {
    cfg.theta_min + (cfg.theta_max - cfg.theta_min) / 10.0 * h as f64
}

/// Embedding of a node: the normalised mean of its words' vectors. The
/// fast path derives the same bits from its per-call element column
/// (`vs2_nlp::embedding::mean_normalized` over the same vectors in the
/// same order).
pub(crate) fn node_embedding<E: Embedder>(
    doc: &Document,
    elements: &[ElementRef],
    embedder: &E,
) -> Vector {
    let words: Vec<&str> = elements.iter().filter_map(|r| doc.text_of(*r)).collect();
    embedder.embed_text(words)
}

/// `true` when `a` and `b` are visually separated — the "provided that
/// n_i and n_p are not visually separated" guard of §5.1.2. Two
/// conditions mark separation: (1) merging would swallow or cross a third
/// sibling, or (2) the whitespace gap between the two areas is of
/// delimiter strength relative to their text size (a gap a visual
/// delimiter would claim must not be merged across).
pub fn visually_separated(
    doc: &Document,
    tree: &LayoutTree,
    a: NodeId,
    b: NodeId,
    siblings: &[NodeId],
    gap_ratio: f64,
) -> bool {
    let ba = tree.node(a).bbox;
    let bb = tree.node(b).bbox;
    let union: BBox = ba.union(&bb);
    let crosses_sibling = siblings.iter().any(|&s| {
        if s == a || s == b {
            return false;
        }
        let sb = tree.node(s).bbox;
        match union.intersection(&sb) {
            Some(i) => i.area() > 0.3 * sb.area(),
            None => false,
        }
    });
    if crosses_sibling {
        return true;
    }
    // Delimiter-strength gap between the two areas, measured against the
    // larger text (font) size of either node.
    let gap_x = (bb.x - ba.right()).max(ba.x - bb.right()).max(0.0);
    let gap_y = (bb.y - ba.bottom()).max(ba.y - bb.bottom()).max(0.0);
    let gap = gap_x.max(gap_y);
    let font = |n: NodeId| {
        // Text heights only (images are not a font-size signal).
        let t = tree
            .node(n)
            .elements
            .iter()
            .filter(|r| r.is_text())
            .map(|r| doc.bbox_of(*r).h)
            .fold(0.0, f64::max);
        if t > 0.0 {
            t
        } else {
            tree.node(n)
                .elements
                .iter()
                .map(|r| doc.bbox_of(*r).h)
                .fold(0.0, f64::max)
        }
    };
    // Scale by the *smaller* of the two fonts: a gap separating a
    // headline from body text reads against the body size.
    let font = font(a).min(font(b)).max(1e-9);
    gap / font >= gap_ratio
}

/// Runs semantic merging over the tree's sibling groups until no further
/// merge applies. Returns the number of merges performed.
pub fn semantic_merge<E: Embedder>(
    doc: &Document,
    tree: &mut LayoutTree,
    embedder: &E,
    cfg: &MergeConfig,
) -> usize {
    let mut merges = 0;
    for _ in 0..cfg.max_sweeps {
        let h = tree.height();
        let threshold = theta(cfg, h);
        let mut merged_this_sweep = false;

        // Parents with ≥ 2 children, in stable order.
        let parents: Vec<NodeId> = tree
            .live_ids()
            .filter(|id| tree.node(*id).children.len() >= 2)
            .collect();
        'outer: for parent in parents {
            // Only leaf siblings merge: the logical blocks live at the
            // leaves, and merging a leaf into an internal node would hide
            // its elements behind the absorbed node's stale children.
            let children: Vec<NodeId> = tree
                .node(parent)
                .children
                .clone()
                .into_iter()
                .filter(|c| tree.node(*c).is_leaf())
                .collect();
            if children.len() < 2 {
                continue;
            }
            let embeddings: Vec<Vector> = children
                .iter()
                .map(|c| node_embedding(doc, &tree.node(*c).elements, embedder))
                .collect();
            for (ci, &c) in children.iter().enumerate() {
                // Same-level non-siblings for the contrast term.
                let same_level = tree.same_level(c);
                let sibling_sims: Vec<f64> = (0..children.len())
                    .filter(|&j| j != ci)
                    .map(|j| cosine(&embeddings[ci], &embeddings[j]))
                    .collect();
                let non_siblings: Vec<NodeId> = same_level
                    .into_iter()
                    .filter(|n| !children.contains(n))
                    .collect();
                let non_sibling_sims: Vec<f64> = non_siblings
                    .iter()
                    .map(|n| {
                        let e = node_embedding(doc, &tree.node(*n).elements, embedder);
                        cosine(&embeddings[ci], &e)
                    })
                    .collect();
                let avg = |v: &[f64]| {
                    if v.is_empty() {
                        0.0
                    } else {
                        v.iter().sum::<f64>() / v.len() as f64
                    }
                };
                let sc = avg(&sibling_sims) - avg(&non_sibling_sims);
                if sc <= threshold {
                    continue;
                }
                // Most similar sibling, not visually separated.
                let best = (0..children.len()).filter(|&j| j != ci).max_by(|&a, &b| {
                    cosine(&embeddings[ci], &embeddings[a])
                        .total_cmp(&cosine(&embeddings[ci], &embeddings[b]))
                });
                let Some(bj) = best else { continue };
                if cosine(&embeddings[ci], &embeddings[bj]) < cfg.min_pair_similarity {
                    continue;
                }
                let b = children[bj];
                if visually_separated(doc, tree, c, b, &children, cfg.separation_gap_ratio) {
                    continue;
                }
                tree.merge_siblings(c, b);
                merges += 1;
                merged_this_sweep = true;
                break 'outer; // tree changed — recompute from scratch
            }
        }
        if !merged_this_sweep {
            break;
        }
    }
    merges
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs2_docmodel::TextElement;
    use vs2_nlp::LexiconEmbedding;

    /// Document with two semantically coherent groups: event words on the
    /// left, measure words on the right.
    fn doc() -> (Document, Vec<ElementRef>) {
        let mut d = Document::new("m", 200.0, 100.0);
        let words = [
            ("concert", 10.0, 10.0),
            ("festival", 10.0, 25.0),
            ("workshop", 10.0, 40.0),
            ("acres", 150.0, 10.0),
            ("sqft", 150.0, 25.0),
            ("beds", 150.0, 40.0),
        ];
        let mut refs = Vec::new();
        for (w, x, y) in words {
            refs.push(d.push_text(TextElement::word(w, BBox::new(x, y, 30.0, 10.0))));
        }
        (d, refs)
    }

    #[test]
    fn merges_semantically_coherent_siblings() {
        let (d, refs) = doc();
        let mut tree = LayoutTree::new(d.page_bbox(), refs.clone());
        // Over-segmented: each event word its own node, measure words one node.
        let a = tree.add_child(tree.root(), d.bbox_of(refs[0]), vec![refs[0]]);
        let _b = tree.add_child(tree.root(), d.bbox_of(refs[1]), vec![refs[1]]);
        let _c = tree.add_child(tree.root(), d.bbox_of(refs[2]), vec![refs[2]]);
        let measures = tree.add_child(
            tree.root(),
            BBox::new(150.0, 10.0, 30.0, 40.0),
            vec![refs[3], refs[4], refs[5]],
        );
        let before = tree.leaves().len();
        let merges = semantic_merge(&d, &mut tree, &LexiconEmbedding, &MergeConfig::default());
        assert!(merges >= 2, "merges = {merges}");
        assert!(tree.leaves().len() < before);
        // The three event words coalesce; the measures node survives.
        let a_elems = tree.node(a).elements.len();
        assert_eq!(a_elems + tree.node(measures).elements.len(), 6);
        assert_eq!(tree.node(measures).elements.len(), 3);
    }

    #[test]
    fn does_not_merge_dissimilar_siblings() {
        let (d, refs) = doc();
        let mut tree = LayoutTree::new(d.page_bbox(), refs.clone());
        tree.add_child(
            tree.root(),
            BBox::new(10.0, 10.0, 30.0, 40.0),
            vec![refs[0], refs[1], refs[2]],
        );
        tree.add_child(
            tree.root(),
            BBox::new(150.0, 10.0, 30.0, 40.0),
            vec![refs[3], refs[4], refs[5]],
        );
        let merges = semantic_merge(&d, &mut tree, &LexiconEmbedding, &MergeConfig::default());
        assert_eq!(merges, 0, "event block must not merge with measure block");
        assert_eq!(tree.leaves().len(), 2);
    }

    #[test]
    fn threshold_grows_with_height() {
        let cfg = MergeConfig::default();
        assert_eq!(theta(&cfg, 0), 0.0);
        assert!((theta(&cfg, 5) - 0.5).abs() < 1e-12);
        assert!(theta(&cfg, 3) < theta(&cfg, 7));
    }

    #[test]
    fn visual_separation_blocks_merge() {
        let (d, refs) = doc();
        let mut tree = LayoutTree::new(d.page_bbox(), refs.clone());
        // Two event nodes at the far sides with a measure node *between*
        // them: merging across it is blocked.
        tree.add_child(tree.root(), BBox::new(0.0, 10.0, 30.0, 10.0), vec![refs[0]]);
        tree.add_child(
            tree.root(),
            BBox::new(80.0, 10.0, 40.0, 10.0),
            vec![refs[3], refs[4], refs[5]],
        );
        tree.add_child(
            tree.root(),
            BBox::new(170.0, 10.0, 30.0, 10.0),
            vec![refs[1]],
        );
        let merges = semantic_merge(&d, &mut tree, &LexiconEmbedding, &MergeConfig::default());
        assert_eq!(merges, 0, "separated siblings must not merge across");
    }

    #[test]
    fn empty_tree_is_noop() {
        let d = Document::new("e", 10.0, 10.0);
        let mut tree = LayoutTree::new(d.page_bbox(), vec![]);
        assert_eq!(
            semantic_merge(&d, &mut tree, &LexiconEmbedding, &MergeConfig::default()),
            0
        );
    }
}
