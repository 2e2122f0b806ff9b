//! The original VS2-Segment driver, kept verbatim as the executable
//! specification of segmentation.
//!
//! This is the segmenter exactly as it shipped before the packed fast
//! path ([`segment::fast`](crate::segment::fast)): a fresh
//! [`OccupancyGrid`](vs2_docmodel::OccupancyGrid) per area, the bitset
//! frontier sweep of [`cuts`](crate::segment::cuts) with one heap
//! allocation per hop, full tight-bbox rescans at every queue pop, and
//! semantic merging that re-derives every node embedding per candidate
//! comparison. Nothing in the serving path calls this module: it exists
//! so the differential battery (`crates/conformance/tests/segment_equiv.rs`)
//! and the segment-perf release gate can hold the fast path to
//! byte-identical layout trees, and so a service built with
//! `ServiceOptions::naive_segment` can be checked to render
//! byte-identically to one on the fast path.
//!
//! The helpers shared with the fast path (`tight_bbox`,
//! `effective_cell_size`, `is_interior`, `split_by_delimiters`,
//! `rebuild_in_original_frame`) live in [`segmenter`](super::segmenter)
//! so every float decision is taken by the same code in both paths.
//! Unlike the production path this module emits no tracing spans — only
//! the fast path participates in the documented span tree.

use crate::segment::cluster::cluster;
use crate::segment::cuts::{all_runs, CutRun};
use crate::segment::delimiter::{score_runs, select_delimiters, ScoredRun};
use crate::segment::merge::semantic_merge;
use crate::segment::segmenter::{
    blocks_of_tree, effective_cell_size, is_interior, rebuild_in_original_frame,
    split_by_delimiters, tight_bbox, LogicalBlock, SegmentConfig,
};
use vs2_docmodel::{BBox, Document, ElementRef, LayoutTree, NodeId};
use vs2_nlp::LexiconEmbedding;

/// Runs the reference segmenter over a document and returns the layout
/// tree. Mirrors [`segment`](crate::segment::segment) — including the
/// deskew wrapper — but through the preserved naive body.
pub fn segment_naive(doc: &Document, config: &SegmentConfig) -> LayoutTree {
    if config.deskew {
        let angle = crate::segment::deskew::estimate_skew(doc);
        if angle.abs() >= crate::segment::deskew::SKEW_EPSILON {
            let straightened = crate::segment::deskew::rotate_elements(doc, angle);
            let mut cfg = *config;
            cfg.deskew = false;
            let tree = segment_body_naive(&straightened, &cfg);
            return rebuild_in_original_frame(doc, &tree);
        }
    }
    segment_body_naive(doc, config)
}

/// The reference recursion: XY-cut area loop, clustering fallback and
/// semantic merging, exactly as before the fast path landed.
pub(crate) fn segment_body_naive(doc: &Document, config: &SegmentConfig) -> LayoutTree {
    let all = doc.element_refs();
    let root_bbox = if all.is_empty() {
        doc.page_bbox()
    } else {
        tight_bbox(doc, &all)
    };
    let mut tree = LayoutTree::new(root_bbox, all.clone());
    let mut queue: Vec<(NodeId, usize)> = vec![(tree.root(), 0)];

    while let Some((node, depth)) = queue.pop() {
        if depth >= config.max_depth {
            continue;
        }
        let elements = tree.node(node).elements.clone();
        if elements.len() < config.min_block_elements.max(2) {
            continue;
        }
        let tight = tight_bbox(doc, &elements);
        let cell = effective_cell_size(&tight.inflate(config.cell_size), config.cell_size);
        let area = tight.inflate(cell);
        let boxes: Vec<BBox> = elements.iter().map(|r| doc.bbox_of(*r)).collect();
        let text_boxes: Vec<BBox> = elements
            .iter()
            .filter(|r| r.is_text())
            .map(|r| doc.bbox_of(*r))
            .collect();
        let norm_boxes = if text_boxes.is_empty() {
            &boxes
        } else {
            &text_boxes
        };
        let grid = vs2_docmodel::OccupancyGrid::rasterize(&area, &boxes, cell);

        // Phase 1: explicit delimiters.
        let runs: Vec<CutRun> = all_runs(&grid);
        let scored = score_runs(&runs, &grid, &area, &boxes, norm_boxes);
        let interior: Vec<ScoredRun> = scored
            .into_iter()
            .filter(|s| is_interior(s, &boxes, &area, cell))
            .collect();
        let delims = select_delimiters(&interior, &config.delimiter);

        let mut parts: Vec<Vec<ElementRef>> = Vec::new();
        // Split along the direction of the widest delimiter first; the
        // recursion handles the other direction. (`max_by` is None on an
        // empty delimiter set — degenerate areas simply fall through to
        // clustering instead of panicking.)
        if let Some(widest) = delims.iter().max_by(|a, b| a.width.total_cmp(&b.width)) {
            let horizontal = widest.run.horizontal;
            parts = split_by_delimiters(doc, &elements, &delims, horizontal, &area, cell);
        }

        // Phase 2: implicit modifiers via clustering.
        if parts.len() < 2 && config.use_visual_clustering {
            let clustered = cluster(doc, &area, &elements, &config.cluster);
            if clustered.len() >= 2 {
                parts = clustered;
            }
        }

        if parts.len() >= 2 {
            for part in parts {
                let bbox = tight_bbox(doc, &part);
                let child = tree.add_child(node, bbox, part);
                queue.push((child, depth + 1));
            }
        }
    }

    if config.use_semantic_merge {
        semantic_merge(doc, &mut tree, &LexiconEmbedding, &config.merge);
    }
    tree
}

/// Convenience: the logical blocks of the reference segmenter.
pub fn logical_blocks_naive(doc: &Document, config: &SegmentConfig) -> Vec<LogicalBlock> {
    let tree = segment_naive(doc, config);
    blocks_of_tree(&tree)
}
