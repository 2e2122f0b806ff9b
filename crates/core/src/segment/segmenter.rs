//! The recursive VS2-Segment driver (§5.1.2).
//!
//! Each iteration searches a visual area for explicit visual delimiters
//! (runs of consecutive valid cuts accepted by Algorithm 1) and splits
//! along them; when no delimiter exists, the implicit-modifier clustering
//! over Table 1 features is tried. New child areas are appended to the
//! layout tree and processed in turn. After the recursion converges, the
//! semantic-merging step of Eq. 1 repairs over-segmentation. The leaves
//! of the resulting tree are the document's logical blocks.

use std::cell::RefCell;

use crate::segment::cluster::ClusterConfig;
use crate::segment::delimiter::{DelimiterConfig, ScoredRun};
use crate::segment::deskew::{rotate_elements, skew_to_correct};
use crate::segment::merge::MergeConfig;
use vs2_docmodel::{BBox, Document, ElementRef, LayoutTree, NodeId};

/// Reused buffers for [`split_by_delimiters`] / [`group_lines`]. The
/// splitter runs once per delimiter-bearing tree node, so buffer reuse
/// (clear + extend, never read stale) is a pure capacity optimisation.
#[derive(Default)]
struct SplitScratch {
    cuts: Vec<f64>,
    items: Vec<(ElementRef, BBox)>,
    tagged: Vec<(u32, ElementRef)>,
    line_boxes: Vec<BBox>,
    /// Lines still open to later elements ([`group_into_lines`]).
    open_lines: Vec<u32>,
    /// The tagged elements bucketed by line, stably.
    by_line: Vec<ElementRef>,
    /// `by_line[ends[li - 1]..ends[li]]` is line `li` (`0` before line 0).
    line_ends: Vec<usize>,
}

thread_local! {
    static SPLIT_SCRATCH: RefCell<SplitScratch> = RefCell::new(SplitScratch::default());
}

/// Full configuration of VS2-Segment, including the ablation switches of
/// §6.5 (Table 9).
#[derive(Debug, Clone, Copy)]
pub struct SegmentConfig {
    /// Apply the Fig. 2 cleaning step (skew correction) before
    /// segmentation.
    pub deskew: bool,
    /// Raster cell size in document units.
    pub cell_size: f64,
    /// Areas with fewer elements are never split further.
    pub min_block_elements: usize,
    /// Maximum recursion depth (safety bound).
    pub max_depth: usize,
    /// Ablation A2: enable the visual-feature clustering stage.
    pub use_visual_clustering: bool,
    /// Ablation A1: enable semantic merging.
    pub use_semantic_merge: bool,
    /// Delimiter-selection knobs (Algorithm 1).
    pub delimiter: DelimiterConfig,
    /// Clustering knobs (Table 1 weights).
    pub cluster: ClusterConfig,
    /// Semantic-merge thresholds (Eq. 1 footnote).
    pub merge: MergeConfig,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        Self {
            deskew: true,
            cell_size: 4.0,
            min_block_elements: 2,
            max_depth: 8,
            use_visual_clustering: true,
            use_semantic_merge: true,
            delimiter: DelimiterConfig::default(),
            cluster: ClusterConfig::default(),
            merge: MergeConfig::default(),
        }
    }
}

/// A logical block: a leaf of the converged layout tree.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalBlock {
    /// Smallest bounding box enclosing the block's elements.
    pub bbox: BBox,
    /// The block's atomic elements.
    pub elements: Vec<ElementRef>,
}

pub(crate) fn tight_bbox(doc: &Document, elements: &[ElementRef]) -> BBox {
    let mut it = elements.iter().map(|r| doc.bbox_of(*r));
    match it.next() {
        Some(first) => it.fold(first, |acc, b| acc.union(&b)),
        None => BBox::default(),
    }
}

/// Upper bound on raster cells per area. A handful of far-apart elements
/// on a huge page would otherwise demand a multi-terabyte occupancy grid
/// and abort on allocation; growing the cell instead keeps the raster
/// bounded while normal pages (a few thousand cells) are unaffected.
const MAX_GRID_CELLS: f64 = 4_000_000.0;

/// The configured cell size, grown just enough that rasterising `area`
/// stays within [`MAX_GRID_CELLS`].
pub(crate) fn effective_cell_size(area: &BBox, cell: f64) -> f64 {
    let cells = (area.w / cell) * (area.h / cell);
    // Within budget — and NaN/degenerate areas rasterise to an empty grid,
    // so they keep the configured cell too.
    if cells.partial_cmp(&MAX_GRID_CELLS) != Some(std::cmp::Ordering::Greater) {
        return cell;
    }
    let grown = cell * (cells / MAX_GRID_CELLS).sqrt();
    if grown.is_finite() {
        grown
    } else {
        // Area so large its cell count overflows f64: one giant cell.
        f64::MAX.sqrt()
    }
}

/// An interior delimiter must have content on both sides of its centre
/// line (a drift path may extend a run past the last element, so the
/// strip's extremities are not a reliable boundary test).
///
/// This is the scan the naive segmenter runs per delimiter; the fast
/// path asks the same question of a [`CentroidExtent`] folded once per
/// area, and the unit tests hold the two equal.
pub(crate) fn is_interior(delim: &ScoredRun, boxes: &[BBox], grid_area: &BBox, cell: f64) -> bool {
    let run = &delim.run;
    let center = run.center() * cell;
    if run.horizontal {
        let y = grid_area.y + center;
        let above = boxes.iter().any(|b| b.centroid().y < y);
        let below = boxes.iter().any(|b| b.centroid().y > y);
        above && below
    } else {
        let x = grid_area.x + center;
        let left = boxes.iter().any(|b| b.centroid().x < x);
        let right = boxes.iter().any(|b| b.centroid().x > x);
        left && right
    }
}

/// The extreme element centroids of one area, folded once so that each
/// delimiter's [`is_interior`] test is two comparisons instead of two
/// scans. `f64::min` and `f64::max` skip a NaN operand and the folds
/// start at ±∞, so `min.y < y` holds exactly when some centroid has
/// `c.y < y` (a comparison with NaN is false on both sides): the answer
/// of the scan, NaN and infinite centroids included.
pub(crate) struct CentroidExtent {
    min_x: f64,
    max_x: f64,
    min_y: f64,
    max_y: f64,
}

impl CentroidExtent {
    /// Folds the centroids of `boxes`.
    pub(crate) fn of(boxes: &[BBox]) -> Self {
        let mut e = CentroidExtent {
            min_x: f64::INFINITY,
            max_x: f64::NEG_INFINITY,
            min_y: f64::INFINITY,
            max_y: f64::NEG_INFINITY,
        };
        for b in boxes {
            let c = b.centroid();
            e.min_x = e.min_x.min(c.x);
            e.max_x = e.max_x.max(c.x);
            e.min_y = e.min_y.min(c.y);
            e.max_y = e.max_y.max(c.y);
        }
        e
    }

    /// [`is_interior`] over the folded centroids.
    pub(crate) fn is_interior(&self, delim: &ScoredRun, grid_area: &BBox, cell: f64) -> bool {
        let run = &delim.run;
        let center = run.center() * cell;
        if run.horizontal {
            let y = grid_area.y + center;
            self.min_y < y && self.max_y > y
        } else {
            let x = grid_area.x + center;
            self.min_x < x && self.max_x > x
        }
    }
}

/// Groups elements into *text lines* by transitive vertical overlap: two
/// elements share a line when their vertical extents overlap by more than
/// half the smaller height. A horizontal delimiter must never split a
/// line — on skewed scans a line straddles the cut's centre row.
///
/// Elements are tagged with the index of the (first-matching) line they
/// join; `line_boxes[i]` is the running union of line `i`'s element
/// boxes, which equals the enclosing box of its members exactly (union
/// is min/max). Returns the tagged elements in y-sorted order plus the
/// per-line boxes in line-creation order; `open` is scratch.
fn group_lines(
    doc: &Document,
    elements: &[ElementRef],
    items: &mut Vec<(ElementRef, BBox)>,
    tagged: &mut Vec<(u32, ElementRef)>,
    line_boxes: &mut Vec<BBox>,
    open: &mut Vec<u32>,
) {
    items.clear();
    items.extend(elements.iter().map(|r| (*r, doc.bbox_of(*r))));
    items.sort_by(|a, b| a.1.y.total_cmp(&b.1.y));
    tagged.clear();
    group_into_lines(items.iter().copied(), line_boxes, open, |li, r| {
        tagged.push((li, r))
    });
}

/// The line rule shared by the segmenter and skew estimation. `items`
/// must arrive sorted by `total_cmp` on their box's `y`. Each item joins
/// the first line, in creation order, whose running box overlaps it
/// vertically by more than half the smaller height (that box grows to
/// the union), or else opens a new line; `tag` receives each item with
/// its line's index, in item order. `line_boxes` receives the lines'
/// boxes in creation order; `open` is scratch.
///
/// A line whose bottom lies at or above an item's top overlaps neither
/// that item nor any later one (their tops lie no higher), so it leaves
/// the scan for good. A NaN top is compared with every line: `min` and
/// `max` skip a NaN operand, so such an item can match any line, and the
/// NaN tops sort to the two ends, so no finite top follows a
/// positive-NaN one.
pub(crate) fn group_into_lines<T>(
    items: impl IntoIterator<Item = (T, BBox)>,
    line_boxes: &mut Vec<BBox>,
    open: &mut Vec<u32>,
    mut tag: impl FnMut(u32, T),
) {
    let joins = |lb: &BBox, b: &BBox| {
        let overlap = (lb.bottom().min(b.bottom()) - lb.y.max(b.y)).max(0.0);
        overlap / lb.h.min(b.h).max(1e-9) > 0.5
    };
    line_boxes.clear();
    open.clear();
    for (item, b) in items {
        let placed = if b.y.is_nan() {
            line_boxes
                .iter()
                .position(|lb| joins(lb, &b))
                .map(|li| li as u32)
        } else {
            open.retain(|&li| {
                let bottom = line_boxes[li as usize].bottom();
                bottom > b.y || bottom.is_nan()
            });
            open.iter()
                .copied()
                .find(|&li| joins(&line_boxes[li as usize], &b))
        };
        let li = match placed {
            Some(li) => {
                let lb = &mut line_boxes[li as usize];
                *lb = lb.union(&b);
                li
            }
            None => {
                line_boxes.push(b);
                let li = (line_boxes.len() - 1) as u32;
                open.push(li);
                li
            }
        };
        tag(li, item);
    }
}

/// Splits elements into bands along the chosen delimiters (all of one
/// direction). Horizontal splits band whole text lines; vertical splits
/// band individual elements by centroid.
pub(crate) fn split_by_delimiters(
    doc: &Document,
    elements: &[ElementRef],
    delims: &[ScoredRun],
    horizontal: bool,
    grid_area: &BBox,
    cell: f64,
) -> Vec<Vec<ElementRef>> {
    SPLIT_SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        let cuts = &mut scratch.cuts;
        cuts.clear();
        cuts.extend(
            delims
                .iter()
                .filter(|d| d.run.horizontal == horizontal)
                .map(|d| {
                    let c = d.run.center() * cell;
                    if horizontal {
                        grid_area.y + c
                    } else {
                        grid_area.x + c
                    }
                }),
        );
        cuts.sort_by(|a, b| a.total_cmp(b));
        cuts.dedup_by(|a, b| (*a - *b).abs() < cell);
        if cuts.is_empty() {
            return vec![elements.to_vec()];
        }
        let mut bands: Vec<Vec<ElementRef>> = vec![Vec::new(); cuts.len() + 1];
        if horizontal {
            // Band whole lines by the centroid of the line's union box (the
            // running union equals the enclosing box of the line's members).
            group_lines(
                doc,
                elements,
                &mut scratch.items,
                &mut scratch.tagged,
                &mut scratch.line_boxes,
                &mut scratch.open_lines,
            );
            // One stable counting pass buckets the tagged elements by
            // line, so each line reaches its band in tagged order.
            let ends = &mut scratch.line_ends;
            ends.clear();
            ends.resize(scratch.line_boxes.len(), 0);
            for &(l, _) in &scratch.tagged {
                ends[l as usize] += 1;
            }
            let mut start = 0;
            for e in ends.iter_mut() {
                let len = *e;
                *e = start;
                start += len;
            }
            // `ends[l]` is now line `l`'s next write slot; after the
            // placement pass it is the line's end.
            scratch.by_line.clear();
            scratch
                .by_line
                .resize(scratch.tagged.len(), ElementRef::Text(0));
            for &(l, r) in &scratch.tagged {
                scratch.by_line[ends[l as usize]] = r;
                ends[l as usize] += 1;
            }
            let mut lo = 0;
            for (lb, &hi) in scratch.line_boxes.iter().zip(ends.iter()) {
                let cy = lb.centroid().y;
                let band = cuts.iter().position(|&cut| cy < cut).unwrap_or(cuts.len());
                bands[band].extend_from_slice(&scratch.by_line[lo..hi]);
                lo = hi;
            }
        } else {
            for &r in elements {
                let cx = doc.bbox_of(r).centroid().x;
                let band = cuts.iter().position(|&cut| cx < cut).unwrap_or(cuts.len());
                bands[band].push(r);
            }
        }
        bands.retain(|b| !b.is_empty());
        bands
    })
}

/// Runs VS2-Segment over a document and returns the layout tree. The
/// tree's leaves are the logical blocks.
///
/// This is the packed fast path ([`fast`](crate::segment::fast)):
/// word-packed whitespace sweeps, incremental extents and cached merge
/// embeddings. The pre-fast driver is preserved verbatim as
/// [`naive::segment_naive`](crate::segment::naive::segment_naive), and
/// the differential battery holds the two to byte-identical trees.
pub fn segment(doc: &Document, config: &SegmentConfig) -> LayoutTree {
    segment_with_embedder(doc, config, &vs2_nlp::LexiconEmbedding)
}

/// [`segment`] with an injected semantic-merge embedder. The zero-copy
/// pipeline passes its per-job memoising embedder
/// ([`crate::context::CtxEmbedder`]) so each text element is embedded
/// once per job across segmentation *and* selection. The embedder keys
/// on word strings, so it stays valid on the deskew branch's rotated
/// copy of the document (rotation changes geometry, not words); `embed`
/// purity keeps the tree bit-identical to the default embedder.
pub fn segment_with_embedder<E: vs2_nlp::Embedder>(
    doc: &Document,
    config: &SegmentConfig,
    embedder: &E,
) -> LayoutTree {
    segment_in_frame(doc, config, embedder, || skew_to_correct(doc, config))
}

/// Segments `doc` in the frame the skew gate picks. `skew` yields the
/// gate's verdict inside the deskew span; callers that already hold it
/// (the plan cache, the triage router) pass it in.
pub(crate) fn segment_in_frame<E: vs2_nlp::Embedder>(
    doc: &Document,
    config: &SegmentConfig,
    embedder: &E,
    skew: impl FnOnce() -> Option<f64>,
) -> LayoutTree {
    let _segment_span = vs2_obs::span(vs2_obs::stages::SEGMENT);
    // Cleaning (Fig. 2 step a): straighten a skewed capture first. The
    // resulting tree's boxes live in the original coordinate frame — only
    // the *analysis* runs on the deskewed geometry, and element indices
    // carry the partition back.
    if config.deskew {
        let deskew_span = vs2_obs::span(vs2_obs::stages::DESKEW);
        if let Some(angle) = skew() {
            let straightened = rotate_elements(doc, angle);
            drop(deskew_span);
            let mut cfg = *config;
            cfg.deskew = false;
            let tree = crate::segment::fast::segment_body_fast_with(&straightened, &cfg, embedder);
            return rebuild_in_original_frame(doc, &tree);
        }
    }
    crate::segment::fast::segment_body_fast_with(doc, config, embedder)
}

/// Recomputes every node's bounding box from its elements in the
/// original (pre-deskew) document frame, preserving the tree structure.
pub(crate) fn rebuild_in_original_frame(doc: &Document, tree: &LayoutTree) -> LayoutTree {
    let root_elems = tree.node(tree.root()).elements.clone();
    let root_bbox = if root_elems.is_empty() {
        doc.page_bbox()
    } else {
        tight_bbox(doc, &root_elems)
    };
    let mut out = LayoutTree::new(root_bbox, root_elems);
    fn copy(
        doc: &Document,
        src: &LayoutTree,
        src_node: NodeId,
        dst: &mut LayoutTree,
        dst_node: NodeId,
    ) {
        for &child in &src.node(src_node).children {
            let elems = src.node(child).elements.clone();
            let bbox = if elems.is_empty() {
                src.node(child).bbox
            } else {
                tight_bbox(doc, &elems)
            };
            let new_child = dst.add_child(dst_node, bbox, elems);
            copy(doc, src, child, dst, new_child);
        }
    }
    let dst_root = out.root();
    copy(doc, tree, tree.root(), &mut out, dst_root);
    out
}

/// Convenience: the logical blocks (leaves with at least one element).
pub fn logical_blocks(doc: &Document, config: &SegmentConfig) -> Vec<LogicalBlock> {
    let tree = segment(doc, config);
    blocks_of_tree(&tree)
}

/// [`logical_blocks`] over a per-job [`crate::context::DocContext`]:
/// segmentation runs with the context's memoising embedder, so merge
/// embeddings are shared with the select stage of the same job.
pub fn logical_blocks_ctx(
    ctx: &crate::context::DocContext<'_>,
    config: &SegmentConfig,
) -> Vec<LogicalBlock> {
    let tree = segment_with_embedder(ctx.doc(), config, &ctx.embedder());
    blocks_of_tree(&tree)
}

/// Extracts the logical blocks of an already-built layout tree.
pub fn blocks_of_tree(tree: &LayoutTree) -> Vec<LogicalBlock> {
    tree.leaves()
        .into_iter()
        .map(|id| {
            let n = tree.node(id);
            LogicalBlock {
                bbox: n.bbox,
                elements: n.elements.clone(),
            }
        })
        .filter(|b| !b.elements.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs2_docmodel::TextElement;

    /// Two well-separated paragraphs of same-font text.
    fn two_block_doc() -> Document {
        let mut d = Document::new("seg", 200.0, 200.0);
        for line in 0..3 {
            for col in 0..4 {
                d.push_text(TextElement::word(
                    "concert",
                    BBox::new(
                        10.0 + col as f64 * 45.0,
                        10.0 + line as f64 * 14.0,
                        40.0,
                        10.0,
                    ),
                ));
            }
        }
        for line in 0..3 {
            for col in 0..4 {
                d.push_text(TextElement::word(
                    "acres",
                    BBox::new(
                        10.0 + col as f64 * 45.0,
                        120.0 + line as f64 * 14.0,
                        40.0,
                        10.0,
                    ),
                ));
            }
        }
        d
    }

    #[test]
    fn splits_two_paragraphs() {
        let doc = two_block_doc();
        let blocks = logical_blocks(&doc, &SegmentConfig::default());
        assert_eq!(blocks.len(), 2, "{blocks:?}");
        let total: usize = blocks.iter().map(|b| b.elements.len()).sum();
        assert_eq!(total, 24);
        // Blocks are vertically disjoint.
        assert!(blocks[0].bbox.intersection(&blocks[1].bbox).is_none());
    }

    #[test]
    fn single_paragraph_is_one_block() {
        let mut d = Document::new("one", 200.0, 100.0);
        for line in 0..3 {
            for col in 0..4 {
                d.push_text(TextElement::word(
                    "concert",
                    BBox::new(
                        10.0 + col as f64 * 45.0,
                        10.0 + line as f64 * 14.0,
                        40.0,
                        10.0,
                    ),
                ));
            }
        }
        let blocks = logical_blocks(&d, &SegmentConfig::default());
        assert_eq!(blocks.len(), 1, "{blocks:?}");
    }

    #[test]
    fn columns_split_vertically() {
        let mut d = Document::new("cols", 300.0, 100.0);
        for line in 0..4 {
            d.push_text(TextElement::word(
                "concert",
                BBox::new(10.0, 10.0 + line as f64 * 14.0, 80.0, 10.0),
            ));
            d.push_text(TextElement::word(
                "acres",
                BBox::new(200.0, 10.0 + line as f64 * 14.0, 80.0, 10.0),
            ));
        }
        let blocks = logical_blocks(&d, &SegmentConfig::default());
        assert_eq!(blocks.len(), 2, "{blocks:?}");
        assert!(blocks.iter().any(|b| b.bbox.x < 100.0));
        assert!(blocks.iter().any(|b| b.bbox.x > 150.0));
    }

    #[test]
    fn empty_document() {
        let d = Document::new("empty", 100.0, 100.0);
        let blocks = logical_blocks(&d, &SegmentConfig::default());
        assert!(blocks.is_empty());
    }

    #[test]
    fn all_elements_preserved_in_blocks() {
        let doc = two_block_doc();
        let blocks = logical_blocks(&doc, &SegmentConfig::default());
        let mut seen: Vec<ElementRef> = blocks.iter().flat_map(|b| b.elements.clone()).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), doc.len(), "elements lost or duplicated");
    }

    #[test]
    fn merge_repairs_oversegmentation() {
        // Same content, same font, small gap — if clustering splits it,
        // semantic merging must reunite it.
        let mut d = Document::new("over", 200.0, 120.0);
        for line in 0..6 {
            for col in 0..3 {
                d.push_text(TextElement::word(
                    "concert",
                    BBox::new(
                        10.0 + col as f64 * 50.0,
                        10.0 + line as f64 * 16.0,
                        45.0,
                        10.0,
                    ),
                ));
            }
        }
        let with_merge = logical_blocks(&d, &SegmentConfig::default());
        let without = logical_blocks(
            &d,
            &SegmentConfig {
                use_semantic_merge: false,
                ..SegmentConfig::default()
            },
        );
        assert!(with_merge.len() <= without.len());
    }

    #[test]
    fn ablation_flags_change_behavior() {
        let doc = two_block_doc();
        let cfg_no_cluster = SegmentConfig {
            use_visual_clustering: false,
            ..SegmentConfig::default()
        };
        // Delimiter-based split still works without clustering.
        let blocks = logical_blocks(&doc, &cfg_no_cluster);
        assert_eq!(blocks.len(), 2);
    }

    /// SplitMix64 draws for the reference comparisons below.
    fn draws(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut state = seed;
        move |bound| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        }
    }

    fn run(horizontal: bool, start: usize, len: usize) -> ScoredRun {
        ScoredRun {
            run: crate::segment::CutRun {
                horizontal,
                start,
                len,
            },
            gap: 1.0,
            neighbor_height: 1.0,
            width: 1.0,
        }
    }

    #[test]
    fn centroid_extent_answers_like_the_scan() {
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
        let mut next = draws(7);
        for case in 0..2000 {
            let n = next(6) as usize;
            let boxes: Vec<BBox> = (0..n)
                .map(|_| {
                    let mut v = [0.0; 4];
                    for x in &mut v {
                        *x = match next(12) {
                            0 if case % 3 == 0 => specials[next(4) as usize],
                            _ => next(40) as f64,
                        };
                    }
                    BBox {
                        x: v[0],
                        y: v[1],
                        w: v[2],
                        h: v[3],
                    }
                })
                .collect();
            let extent = CentroidExtent::of(&boxes);
            let area = BBox::new(next(8) as f64, next(8) as f64, 60.0, 60.0);
            for cell in [0.5, 1.0, 4.0] {
                for horizontal in [true, false] {
                    let d = run(horizontal, next(30) as usize, 1 + next(4) as usize);
                    assert_eq!(
                        extent.is_interior(&d, &area, cell),
                        is_interior(&d, &boxes, &area, cell),
                        "{boxes:?} {d:?} cell {cell}"
                    );
                }
            }
        }
    }

    /// The line banding as it stood before the one-pass bucket: one
    /// filter over the tagged elements per line.
    fn split_reference(
        doc: &Document,
        elements: &[ElementRef],
        cuts: &[f64],
    ) -> Vec<Vec<ElementRef>> {
        let (mut items, mut tagged, mut line_boxes) = (Vec::new(), Vec::new(), Vec::new());
        group_lines(
            doc,
            elements,
            &mut items,
            &mut tagged,
            &mut line_boxes,
            &mut Vec::new(),
        );
        let mut bands: Vec<Vec<ElementRef>> = vec![Vec::new(); cuts.len() + 1];
        for (li, lb) in line_boxes.iter().enumerate() {
            let cy = lb.centroid().y;
            let band = cuts.iter().position(|&cut| cy < cut).unwrap_or(cuts.len());
            bands[band].extend(
                tagged
                    .iter()
                    .filter(|(l, _)| *l == li as u32)
                    .map(|(_, r)| *r),
            );
        }
        bands.retain(|b| !b.is_empty());
        bands
    }

    #[test]
    fn line_banding_matches_the_per_line_filter() {
        let mut next = draws(11);
        let mut interleaved = 0;
        for _ in 0..500 {
            let mut d = Document::new("bands", 200.0, 200.0);
            let refs: Vec<ElementRef> = (0..2 + next(30))
                .map(|_| {
                    // Tall and short boxes on a coarse lattice, so lines
                    // absorb later elements out of y order.
                    let (y, h) = (next(20) as f64 * 6.0, 4.0 + next(3) as f64 * 8.0);
                    let b = BBox::new(next(10) as f64 * 20.0, y, 15.0, h);
                    d.push_text(TextElement::word("w", b))
                })
                .collect();
            let cell = 4.0;
            let delims: Vec<ScoredRun> = (0..1 + next(3))
                .map(|_| run(true, next(50) as usize, 1 + next(3) as usize))
                .collect();
            let area = d.page_bbox();
            let mut cuts: Vec<f64> = delims
                .iter()
                .map(|r| area.y + r.run.center() * cell)
                .collect();
            cuts.sort_by(|a, b| a.total_cmp(b));
            cuts.dedup_by(|a, b| (*a - *b).abs() < cell);
            let want = split_reference(&d, &refs, &cuts);
            let got = split_by_delimiters(&d, &refs, &delims, true, &area, cell);
            assert_eq!(got, want);
            let (mut items, mut tagged, mut lines) = (Vec::new(), Vec::new(), Vec::new());
            group_lines(
                &d,
                &refs,
                &mut items,
                &mut tagged,
                &mut lines,
                &mut Vec::new(),
            );
            if tagged.windows(2).any(|w| w[1].0 < w[0].0) {
                interleaved += 1;
            }
        }
        assert!(
            interleaved >= 50,
            "only {interleaved} cases interleave lines"
        );
    }

    /// The line loop as it stood before open lines were tracked: every
    /// item scans every line.
    fn group_reference(items: &[BBox]) -> (Vec<u32>, Vec<BBox>) {
        let mut line_boxes: Vec<BBox> = Vec::new();
        let mut tags = Vec::new();
        for &b in items {
            let mut placed = None;
            for (li, lb) in line_boxes.iter_mut().enumerate() {
                let overlap = (lb.bottom().min(b.bottom()) - lb.y.max(b.y)).max(0.0);
                let min_h = lb.h.min(b.h).max(1e-9);
                if overlap / min_h > 0.5 {
                    *lb = lb.union(&b);
                    placed = Some(li as u32);
                    break;
                }
            }
            let li = placed.unwrap_or_else(|| {
                line_boxes.push(b);
                (line_boxes.len() - 1) as u32
            });
            tags.push(li);
        }
        (tags, line_boxes)
    }

    fn box_bits(b: &BBox) -> [u64; 4] {
        [b.x.to_bits(), b.y.to_bits(), b.w.to_bits(), b.h.to_bits()]
    }

    #[test]
    fn open_line_grouping_matches_the_full_scan() {
        let mut next = draws(29);
        // Lattice values plus every special value a box field can hold.
        let specials = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            1e-12,
            -3.0,
        ];
        let mut value = |lattice: f64| {
            if next(6) == 0 {
                specials[next(specials.len() as u64) as usize]
            } else {
                next(24) as f64 * lattice
            }
        };
        let (mut line_boxes, mut open) = (Vec::new(), Vec::new());
        let mut closed = 0;
        for case in 0..3000 {
            let n = 1 + case % 40;
            let mut items: Vec<BBox> = (0..n)
                .map(|_| BBox::new(value(9.0), value(5.0), value(7.0), value(3.0)))
                .collect();
            items.sort_by(|a, b| a.y.total_cmp(&b.y));
            let (want_tags, want_lines) = group_reference(&items);
            let mut tags = Vec::new();
            group_into_lines(
                items.iter().map(|b| ((), *b)),
                &mut line_boxes,
                &mut open,
                |li, ()| tags.push(li),
            );
            assert_eq!(tags, want_tags, "{items:?}");
            let bits = |lines: &[BBox]| lines.iter().map(box_bits).collect::<Vec<_>>();
            assert_eq!(bits(&line_boxes), bits(&want_lines), "{items:?}");
            closed += line_boxes.len() - open.len();
        }
        assert!(closed > 1000, "only {closed} lines closed early");
    }

    #[test]
    fn tree_structure_is_consistent() {
        let doc = two_block_doc();
        let tree = segment(&doc, &SegmentConfig::default());
        for id in tree.live_ids() {
            let n = tree.node(id);
            for c in &n.children {
                assert_eq!(tree.node(*c).parent, Some(id));
            }
        }
        assert!(tree.height() >= 1);
    }
}
