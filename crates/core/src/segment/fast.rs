//! The packed segmentation fast path — same trees, fraction of the time.
//!
//! This module is the production implementation of VS2-Segment. The
//! original driver is preserved verbatim in [`naive`](crate::segment::naive)
//! as the executable specification; the differential battery
//! (`crates/conformance/tests/segment_equiv.rs`) holds this path to
//! byte-identical layout trees and extractions against it, and the
//! segment-perf release gate holds it to ≥3× the naive `vs2.segment` p50
//! on D1.
//!
//! Three changes carry the speedup, none of which moves a float:
//!
//! 1. **Word-packed whitespace sweeps.** Each area rasterises to a
//!    [`PackedGrid`] (same cell math as `OccupancyGrid`, bit-packed in
//!    both orientations) and the frontier sweep of
//!    [`cuts`](crate::segment::cuts) is re-expressed over whole words:
//!    consecutive non-drift hops are pre-ANDed into per-drift-group
//!    masks (`mask_only` is associative-commutative intersection, and a
//!    drift's own mask can absorb the following intersections:
//!    `(drift(F) ∩ m₃) ∩ m₄ ∩ m₅ = drift(F) ∩ (m₃∩m₄∩m₅)`), and the AND
//!    of *all* step masks accepts most origins instantly — an origin
//!    whose stationary path is whitespace the whole way across never
//!    needs its frontier simulated. Only the leftover origins run the
//!    drift recurrence, over two reused scratch buffers instead of one
//!    heap allocation per hop.
//! 2. **Incremental extents.** The naive driver re-derives each area's
//!    tight bounding box from scratch at every queue pop; the fast path
//!    reuses the box the node was created with (`add_child` already
//!    receives the fold over the part's element boxes), so a pop starts
//!    with zero geometry rescans. Per-element boxes are gathered into
//!    scratch vectors reused across the whole recursion.
//! 3. **Cached merge embeddings.** Naive semantic merging re-derives
//!    `node_embedding` — a full tokenise-hash-normalise pass over a
//!    node's words — for every candidate comparison, every sweep. The
//!    fast path reads one embedding per text element from a column
//!    indexed by text index ([`Embedder::embed_column`]; the per-job
//!    context builds it once and shares it with selection's interest
//!    points), and derives a node's embedding as
//!    [`mean_normalized`] over its elements' column entries in element
//!    order — the rule [`Embedder::embed_text`] applies to the same
//!    vectors, so the bits are
//!    [`node_embedding`](crate::segment::merge::node_embedding)'s. Each
//!    node's embedding is cached with its squared norm ([`Normed`]) and
//!    dropped only for the absorbing node of a merge, so a cosine is one
//!    dot product.
//!
//! Two per-area loops are folded once as well: the interior-delimiter
//! filter reads a [`CentroidExtent`] instead of scanning the area's
//! boxes per delimiter, and a horizontal split buckets the tagged
//! elements by line in one stable pass.
//!
//! Merge embeddings intentionally do *not* reuse the select-side
//! [`BlockText`](crate::select::BlockText) tables. A `BlockText`
//! tokenises the block's text in reading order, while Eq. 1 embeds the
//! node's words in element order — swapping one for the other changes
//! embedding sums and therefore merge decisions.
//!
//! Spans: this path emits the same `vs2.segment.*` span tree as before
//! (AREA/GRID/CLUSTER/MERGE at identical points) plus two fast-path
//! children: `vs2.segment.fast.cuts` under each AREA (the packed sweep)
//! and `vs2.segment.fast.embed` under MERGE (fetching the element
//! embedding column, which builds it on a job's first use). The naive
//! module emits no spans.

use crate::segment::cluster::cluster;
use crate::segment::cuts::{cut_runs_into, CutRun, DRIFT_PERIOD};
use crate::segment::delimiter::{score_runs_geom_into, select_delimiters_into, ScoredRun};
use crate::segment::merge::{theta, visually_separated, MergeConfig};
use crate::segment::segmenter::{
    effective_cell_size, split_by_delimiters, tight_bbox, CentroidExtent, SegmentConfig,
};
use vs2_docmodel::{BBox, Document, ElementRef, LayoutTree, NodeId, PackedGrid};
use vs2_nlp::embedding::{mean_normalized, Embedder, Normed, Vector};

/// Reused buffers of the packed frontier sweep: group masks, the
/// all-steps AND, the accepted-origin set, and the two frontier words.
/// One `SweepScratch` serves the whole recursion — the naive sweep
/// allocates a fresh bitset per hop per origin.
#[derive(Default)]
struct SweepScratch {
    /// AND of the leading non-drift steps (identity when there are none).
    group0: Vec<u64>,
    /// Flattened per-drift-group masks, `words` words each.
    groups: Vec<u64>,
    /// AND of every step mask — the instant-accept filter.
    all_and: Vec<u64>,
    /// Accepted origins, assembled as a bitset.
    accepted: Vec<u64>,
    frontier: Vec<u64>,
    next: Vec<u64>,
}

/// Fills `words` with ones over `n` positions, trailing bits zero.
fn ones(words: &mut Vec<u64>, len: usize, n: usize) {
    words.clear();
    words.resize(len, u64::MAX);
    let excess = len * 64 - n;
    if excess > 0 {
        if let Some(last) = words.last_mut() {
            *last &= u64::MAX >> excess;
        }
    }
}

/// The packed equivalent of `cuts::sweep` over one grid orientation.
/// Clears `out` and fills it with the same origins, ascending.
/// `horizontal` selects per-column masks over rows (horizontal cuts);
/// otherwise per-row masks over columns.
fn sweep_packed_into(
    grid: &PackedGrid,
    horizontal: bool,
    s: &mut SweepScratch,
    out: &mut Vec<usize>,
) {
    let (n_steps, n_positions) = if horizontal {
        (grid.cols(), grid.rows())
    } else {
        (grid.rows(), grid.cols())
    };
    let mask = |step: usize| -> &[u64] {
        if horizontal {
            grid.col_whitespace(step)
        } else {
            grid.row_whitespace(step)
        }
    };
    let words = n_positions.div_ceil(64);

    // Group the hop sequence. Steps 1..DRIFT_PERIOD are plain
    // intersections; from there, each group starts with a drift at step
    // d (d % DRIFT_PERIOD == 0) whose mask absorbs the following
    // intersections up to the next drift.
    ones(&mut s.group0, words, n_positions);
    for step in 1..n_steps.min(DRIFT_PERIOD) {
        for (w, m) in s.group0.iter_mut().zip(mask(step)) {
            *w &= m;
        }
    }
    s.groups.clear();
    let mut n_groups = 0;
    let mut d = DRIFT_PERIOD;
    while d < n_steps {
        let base = s.groups.len();
        s.groups.extend_from_slice(mask(d));
        for step in d + 1..(d + DRIFT_PERIOD).min(n_steps) {
            for (w, m) in s.groups[base..].iter_mut().zip(mask(step)) {
                *w &= m;
            }
        }
        n_groups += 1;
        d += DRIFT_PERIOD;
    }

    // AND of every step mask: an origin with a stationary whitespace
    // path needs no frontier simulation at all.
    s.all_and.clear();
    s.all_and.extend_from_slice(&s.group0);
    for g in 0..n_groups {
        for (w, m) in s
            .all_and
            .iter_mut()
            .zip(&s.groups[g * words..(g + 1) * words])
        {
            *w &= m;
        }
    }

    let origin = mask(0);
    s.accepted.clear();
    s.accepted
        .extend(origin.iter().zip(&s.all_and).map(|(o, a)| o & a));

    // Simulate only the origins the shortcut could not settle.
    for (wi, origin_word) in origin.iter().enumerate() {
        let mut pending = origin_word & !s.all_and[wi];
        while pending != 0 {
            let bit = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            if s.group0[wi] >> bit & 1 == 0 {
                continue;
            }
            s.frontier.clear();
            s.frontier.resize(words, 0);
            s.frontier[wi] = 1 << bit;
            let mut alive = true;
            for g in 0..n_groups {
                let gmask = &s.groups[g * words..(g + 1) * words];
                s.next.clear();
                s.next.resize(words, 0);
                let mut any = 0u64;
                for (i, gm) in gmask.iter().enumerate() {
                    let w = s.frontier[i];
                    let mut v = w | (w << 1) | (w >> 1);
                    if i > 0 {
                        v |= s.frontier[i - 1] >> 63;
                    }
                    if i + 1 < words {
                        v |= s.frontier[i + 1] << 63;
                    }
                    let v = v & gm;
                    s.next[i] = v;
                    any |= v;
                }
                std::mem::swap(&mut s.frontier, &mut s.next);
                if any == 0 {
                    alive = false;
                    break;
                }
            }
            if alive {
                s.accepted[wi] |= 1 << bit;
            }
        }
    }

    out.clear();
    for wi in 0..words {
        let mut w = s.accepted[wi];
        while w != 0 {
            let bit = w.trailing_zeros() as usize;
            w &= w - 1;
            out.push(wi * 64 + bit);
        }
    }
}

/// Both kinds of runs for a packed grid — the fast equivalent of
/// [`all_runs`](crate::segment::cuts::all_runs). Clears `runs` and fills
/// it; `origins` is scratch for the sweeps.
fn packed_all_runs_into(
    grid: &PackedGrid,
    scratch: &mut SweepScratch,
    origins: &mut Vec<usize>,
    runs: &mut Vec<CutRun>,
) {
    runs.clear();
    if grid.cols() == 0 || grid.rows() == 0 {
        return;
    }
    sweep_packed_into(grid, true, scratch, origins);
    cut_runs_into(origins, true, runs);
    sweep_packed_into(grid, false, scratch, origins);
    cut_runs_into(origins, false, runs);
}

/// The fast recursion body: identical control flow to
/// [`naive::segment_body_naive`](crate::segment::naive), with the packed
/// raster, grouped sweeps, incremental extents and cached merge
/// embeddings substituted underneath.
/// The merge embedder is injected — the zero-copy pipeline passes the
/// per-job memoising embedder ([`crate::context::CtxEmbedder`]) here;
/// `embed` purity keeps the result bit-identical to the default
/// [`LexiconEmbedding`].
pub(crate) fn segment_body_fast_with<E: Embedder>(
    doc: &Document,
    config: &SegmentConfig,
    embedder: &E,
) -> LayoutTree {
    let all = doc.element_refs();
    let root_bbox = if all.is_empty() {
        doc.page_bbox()
    } else {
        tight_bbox(doc, &all)
    };
    let mut tree = LayoutTree::new(root_bbox, all.clone());
    let mut queue: Vec<(NodeId, usize)> = vec![(tree.root(), 0)];
    let mut boxes: Vec<BBox> = Vec::new();
    let mut text_boxes: Vec<BBox> = Vec::new();
    let mut scratch = SweepScratch::default();
    // Per-pop working buffers, reused across the whole recursion: the
    // node's element list (copied out so the tree stays mutable), sweep
    // origins, cut runs, scored runs, the two delimiter-selection
    // buffers and the packed raster's words. Only the child element
    // lists are allocated per node — the tree owns those.
    let mut elements: Vec<ElementRef> = Vec::new();
    let mut origins: Vec<usize> = Vec::new();
    let mut runs: Vec<CutRun> = Vec::new();
    let mut scored: Vec<ScoredRun> = Vec::new();
    let mut ranked: Vec<ScoredRun> = Vec::new();
    let mut delims: Vec<ScoredRun> = Vec::new();
    let mut grid = PackedGrid::default();

    while let Some((node, depth)) = queue.pop() {
        if depth >= config.max_depth {
            continue;
        }
        elements.clear();
        elements.extend_from_slice(&tree.node(node).elements);
        if elements.len() < config.min_block_elements.max(2) {
            continue;
        }
        let area_span = vs2_obs::span(vs2_obs::stages::AREA);
        area_span.tag("depth", depth as u64);
        area_span.tag("elements", elements.len() as u64);
        // Incremental extent recomputation: the node's bbox was already
        // folded tight over exactly these elements when the node was
        // created (root and children alike), so the naive full rescan at
        // every pop is redundant.
        let tight = tree.node(node).bbox;
        let cell = effective_cell_size(&tight.inflate(config.cell_size), config.cell_size);
        let area = tight.inflate(cell);
        boxes.clear();
        text_boxes.clear();
        for r in &elements {
            let b = doc.bbox_of(*r);
            boxes.push(b);
            if r.is_text() {
                text_boxes.push(b);
            }
        }
        let norm_boxes = if text_boxes.is_empty() {
            &boxes
        } else {
            &text_boxes
        };
        {
            let _grid_span = vs2_obs::span(vs2_obs::stages::GRID);
            grid.rasterize_into(&area, &boxes, cell);
        }

        // Phase 1: explicit delimiters, over the packed sweep.
        {
            let _cuts_span = vs2_obs::span(vs2_obs::stages::FAST_CUTS);
            packed_all_runs_into(&grid, &mut scratch, &mut origins, &mut runs);
        }
        scored.clear();
        score_runs_geom_into(
            &runs,
            grid.origin(),
            cell,
            &area,
            &boxes,
            norm_boxes,
            &mut scored,
        );
        // In-place interior filter over the area's centroid extremes:
        // `retain` keeps order, matching the collecting filter of the
        // allocating form.
        let extent = CentroidExtent::of(&boxes);
        scored.retain(|s| extent.is_interior(s, &area, cell));
        select_delimiters_into(&scored, &config.delimiter, &mut ranked, &mut delims);

        let mut parts: Vec<Vec<ElementRef>> = Vec::new();
        if let Some(widest) = delims.iter().max_by(|a, b| a.width.total_cmp(&b.width)) {
            let horizontal = widest.run.horizontal;
            parts = split_by_delimiters(doc, &elements, &delims, horizontal, &area, cell);
        }

        // Phase 2: implicit modifiers via clustering.
        if parts.len() < 2 && config.use_visual_clustering {
            let _cluster_span = vs2_obs::span(vs2_obs::stages::CLUSTER);
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
        let _merge_span = vs2_obs::span(vs2_obs::stages::MERGE);
        semantic_merge_fast(doc, &mut tree, embedder, &config.merge);
    }
    tree
}

/// The embedding of `id` with its squared norm, computed from the
/// element column on the first request since the node's element list
/// last changed.
fn node_embedding_cached<'c>(
    cache: &'c mut [Option<Normed>],
    column: &[Vector],
    tree: &LayoutTree,
    id: NodeId,
) -> &'c Normed {
    cache[id.0].get_or_insert_with(|| {
        #[cfg(test)]
        tests::NODE_EMBEDS.with(|c| c.set(c.get() + 1));
        // `node_embedding` embeds the node's text elements in element
        // order; the column holds exactly those vectors.
        Normed::new(mean_normalized(tree.node(id).elements.iter().filter_map(
            |r| match r {
                ElementRef::Text(i) => Some(&column[*i]),
                ElementRef::Image(_) => None,
            },
        )))
    })
}

/// Semantic merging over one per-call embedding column. The decision
/// sequence — sweep structure, parent/child iteration order, Eq. 1
/// scores, tie-breaks and separation guards — is byte-for-byte the one
/// in [`semantic_merge`](crate::segment::merge::semantic_merge); what it
/// no longer repeats:
///
/// * each text element is embedded once, into a column indexed by text
///   index ([`Embedder::embed_column`]: once per call, or once per job
///   through the context's embedder), and a node's embedding is the
///   normalised mean of its elements' column entries — the same sums in
///   the same order as
///   [`node_embedding`](crate::segment::merge::node_embedding);
/// * node embeddings are cached with their squared norms and dropped
///   only for the absorbing node of a merge, so a cosine costs one dot
///   product;
/// * one depth table per sweep replaces a tree walk per child, and a
///   sibling group's non-siblings (the same live nodes for every child of
///   one parent) are gathered once per group;
/// * each child's sibling cosines are evaluated once, and the best
///   sibling is read from those cosines.
///
/// Returns the number of merges performed.
pub fn semantic_merge_fast<E: Embedder>(
    doc: &Document,
    tree: &mut LayoutTree,
    embedder: &E,
    cfg: &MergeConfig,
) -> usize {
    let column = {
        let _embed_span = vs2_obs::span(vs2_obs::stages::FAST_EMBED);
        embedder.embed_column(&doc.texts)
    };
    // Merging only kills nodes, so the arena at entry covers every node
    // the sweeps can consult.
    let slots = tree.arena_len();
    let mut cache: Vec<Option<Normed>> = vec![None; slots];
    let mut merges = 0;
    // Sweep-scoped scratch, reused across all sweeps.
    let mut depths: Vec<usize> = Vec::new();
    let mut parents: Vec<NodeId> = Vec::new();
    let mut children: Vec<NodeId> = Vec::new();
    let mut others: Vec<NodeId> = Vec::new();
    // The current child's cosines to each sibling (its own slot unread).
    let mut row: Vec<f64> = Vec::new();
    for _ in 0..cfg.max_sweeps {
        depths.clear();
        depths.extend((0..slots).map(|i| tree.depth(NodeId(i))));
        let h = tree.live_ids().map(|id| depths[id.0]).max().unwrap_or(0);
        let threshold = theta(cfg, h);
        let mut merged_this_sweep = false;

        parents.clear();
        parents.extend(
            tree.live_ids()
                .filter(|id| tree.node(*id).children.len() >= 2),
        );
        'outer: for &parent in &parents {
            children.clear();
            children.extend(
                tree.node(parent)
                    .children
                    .iter()
                    .copied()
                    .filter(|c| tree.node(*c).is_leaf()),
            );
            let k = children.len();
            if k < 2 {
                continue;
            }
            // Same-level nodes outside the sibling group, in arena order:
            // the contrast term of every child of this parent.
            let level = depths[children[0].0];
            others.clear();
            others.extend(
                tree.live_ids()
                    .filter(|n| depths[n.0] == level && !children.contains(n)),
            );
            for &n in children.iter().chain(&others) {
                node_embedding_cached(&mut cache, &column, tree, n);
            }
            let emb = |n: NodeId| cache[n.0].as_ref().expect("filled above");
            for (ci, &c) in children.iter().enumerate() {
                row.clear();
                row.extend(children.iter().enumerate().map(|(j, &s)| {
                    if j == ci {
                        0.0
                    } else {
                        emb(c).cosine(emb(s))
                    }
                }));
                let avg = |sum: f64, len: usize| {
                    if len == 0 {
                        0.0
                    } else {
                        sum / len as f64
                    }
                };
                let sibling_sum: f64 = (0..k).filter(|&j| j != ci).map(|j| row[j]).sum();
                let non_sibling_sum: f64 = others.iter().map(|&n| emb(c).cosine(emb(n))).sum();
                let sc = avg(sibling_sum, k - 1) - avg(non_sibling_sum, others.len());
                if sc <= threshold {
                    continue;
                }
                // Most similar sibling (`max_by` keeps the last maximum).
                let best = (0..k)
                    .filter(|&j| j != ci)
                    .max_by(|&a, &b| row[a].total_cmp(&row[b]));
                let Some(bj) = best else { continue };
                if row[bj] < cfg.min_pair_similarity {
                    continue;
                }
                let b = children[bj];
                if visually_separated(doc, tree, c, b, &children, cfg.separation_gap_ratio) {
                    continue;
                }
                tree.merge_siblings(c, b);
                // The absorbing node's element list changed; the absorbed
                // node is dead and never consulted again.
                cache[c.0] = None;
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
    use crate::context::tests::ELEMENT_EMBEDS;
    use crate::context::DocContext;
    use crate::segment::cuts::{horizontal_cuts, vertical_cuts};
    use crate::segment::naive::segment_naive;
    use crate::segment::segment;
    use crate::segment::segmenter::blocks_of_tree;
    use crate::select::interest_points;
    use std::cell::Cell;
    use vs2_docmodel::{OccupancyGrid, TextElement};
    use vs2_nlp::LexiconEmbedding;

    thread_local! {
        /// Node embeddings (column means) on this thread.
        pub(super) static NODE_EMBEDS: Cell<u64> = const { Cell::new(0) };
    }

    /// [`LexiconEmbedding`] that counts its `embed` calls.
    #[derive(Default)]
    struct Counting(Cell<u64>);

    impl Embedder for Counting {
        fn embed(&self, word: &str) -> Vector {
            self.0.set(self.0.get() + 1);
            LexiconEmbedding.embed(word)
        }
    }

    fn sweep_packed(grid: &PackedGrid, horizontal: bool, s: &mut SweepScratch) -> Vec<usize> {
        let mut out = Vec::new();
        sweep_packed_into(grid, horizontal, s, &mut out);
        out
    }

    fn packed_all_runs(grid: &PackedGrid, scratch: &mut SweepScratch) -> Vec<CutRun> {
        let (mut origins, mut runs) = (Vec::new(), Vec::new());
        packed_all_runs_into(grid, scratch, &mut origins, &mut runs);
        runs
    }

    /// Packed sweeps agree with the reference bitset sweep, origin for
    /// origin, over hand-built rasters including word-boundary sizes.
    fn assert_cuts_match(area: BBox, boxes: &[BBox], cell: f64) {
        let occ = OccupancyGrid::rasterize(&area, boxes, cell);
        let packed = PackedGrid::rasterize(&area, boxes, cell);
        let mut scratch = SweepScratch::default();
        if occ.cols() == 0 || occ.rows() == 0 {
            assert!(packed_all_runs(&packed, &mut scratch).is_empty());
            return;
        }
        assert_eq!(
            horizontal_cuts(&occ),
            sweep_packed(&packed, true, &mut scratch),
            "horizontal origins"
        );
        assert_eq!(
            vertical_cuts(&occ),
            sweep_packed(&packed, false, &mut scratch),
            "vertical origins"
        );
    }

    #[test]
    fn packed_sweep_matches_reference() {
        assert_cuts_match(BBox::new(0.0, 0.0, 40.0, 40.0), &[], 1.0);
        assert_cuts_match(
            BBox::new(0.0, 0.0, 40.0, 40.0),
            &[BBox::new(0.0, 10.0, 40.0, 10.0)],
            1.0,
        );
        // The drift fixture from the reference suite.
        assert_cuts_match(
            BBox::new(0.0, 0.0, 40.0, 40.0),
            &[
                BBox::new(0.0, 10.0, 18.0, 10.0),
                BBox::new(22.0, 12.0, 18.0, 10.0),
            ],
            1.0,
        );
        // Word-boundary heights: 63/64/65/128 rows force partial and
        // exact trailing words in the frontier.
        for h in [63.0, 64.0, 65.0, 128.0] {
            assert_cuts_match(
                BBox::new(0.0, 0.0, 30.0, h),
                &[
                    BBox::new(0.0, h / 2.0, 30.0, 5.0),
                    BBox::new(4.0, 3.0, 9.0, h - 8.0),
                ],
                1.0,
            );
        }
        // Single row / single column.
        assert_cuts_match(
            BBox::new(0.0, 0.0, 100.0, 1.0),
            &[BBox::new(10.0, 0.0, 5.0, 1.0)],
            1.0,
        );
        assert_cuts_match(
            BBox::new(0.0, 0.0, 1.0, 100.0),
            &[BBox::new(0.0, 10.0, 1.0, 5.0)],
            1.0,
        );
    }

    #[test]
    fn packed_sweep_matches_on_staggered_obstacles() {
        // Offset boxes exercising the drift groups across several
        // periods, including paths that must drift more than once.
        let mut boxes = Vec::new();
        for i in 0..6 {
            boxes.push(BBox::new(i as f64 * 7.0, 8.0 + i as f64 * 1.5, 6.0, 20.0));
        }
        assert_cuts_match(BBox::new(0.0, 0.0, 42.0, 64.0), &boxes, 1.0);
        assert_cuts_match(BBox::new(0.0, 0.0, 42.0, 40.0), &boxes, 2.0);
    }

    #[test]
    fn huge_sparse_page_is_capped_not_oom() {
        // MAX_GRID_CELLS-capped page: two far-apart words on a giant
        // canvas must grow the cell, not the raster, and fast == naive.
        let mut d = Document::new("huge", 1.0e7, 1.0e7);
        d.push_text(TextElement::word(
            "concert",
            BBox::new(10.0, 10.0, 40.0, 10.0),
        ));
        d.push_text(TextElement::word(
            "acres",
            BBox::new(9.0e6, 9.0e6, 40.0, 10.0),
        ));
        let cfg = SegmentConfig::default();
        let fast = segment(&d, &cfg);
        let naive = segment_naive(&d, &cfg);
        assert_eq!(fast, naive);
    }

    #[test]
    fn fast_tree_equals_naive_tree_on_unit_fixtures() {
        // The segmenter's own fixture: two paragraphs.
        let mut d = Document::new("seg", 200.0, 200.0);
        for (y0, word) in [(10.0, "concert"), (120.0, "acres")] {
            for line in 0..3 {
                for col in 0..4 {
                    d.push_text(TextElement::word(
                        word,
                        BBox::new(
                            10.0 + col as f64 * 45.0,
                            y0 + line as f64 * 14.0,
                            40.0,
                            10.0,
                        ),
                    ));
                }
            }
        }
        for cfg in [
            SegmentConfig::default(),
            SegmentConfig {
                use_semantic_merge: false,
                ..SegmentConfig::default()
            },
            SegmentConfig {
                use_visual_clustering: false,
                ..SegmentConfig::default()
            },
        ] {
            let fast = segment(&d, &cfg);
            let naive = segment_naive(&d, &cfg);
            assert_eq!(fast, naive, "trees diverge under {cfg:?}");
            assert_eq!(format!("{fast:?}"), format!("{naive:?}"));
        }
    }

    /// Three event words as single leaves, the measure words as one, and
    /// an image beside them: the event leaves merge twice.
    fn merge_fixture() -> (Document, LayoutTree) {
        let mut d = Document::new("m", 200.0, 100.0);
        let words = [
            ("concert", 10.0, 10.0),
            ("festival", 10.0, 25.0),
            ("workshop", 10.0, 40.0),
            ("acres", 150.0, 10.0),
            ("sqft", 150.0, 25.0),
            ("beds", 150.0, 40.0),
        ];
        let mut refs: Vec<ElementRef> = words
            .iter()
            .map(|&(w, x, y)| d.push_text(TextElement::word(w, BBox::new(x, y, 30.0, 10.0))))
            .collect();
        let image = BBox::new(150.0, 70.0, 30.0, 20.0);
        refs.push(d.push_image(vs2_docmodel::ImageElement::new(
            1,
            image,
            vs2_docmodel::Lab::new(50.0, 0.0, 0.0),
        )));
        let mut tree = LayoutTree::new(d.page_bbox(), refs.clone());
        for r in &refs[..3] {
            tree.add_child(tree.root(), d.bbox_of(*r), vec![*r]);
        }
        tree.add_child(
            tree.root(),
            BBox::new(150.0, 10.0, 30.0, 40.0),
            vec![refs[3], refs[4], refs[5]],
        );
        tree.add_child(tree.root(), image, vec![refs[6]]);
        (d, tree)
    }

    #[test]
    fn one_embed_per_element_and_one_node_embedding_per_element_list() {
        let (d, tree) = merge_fixture();
        let leaves = tree.leaves().len() as u64;
        let cfg = MergeConfig::default();
        let counting = Counting::default();
        NODE_EMBEDS.with(|c| c.set(0));
        let merges = semantic_merge_fast(&d, &mut tree.clone(), &counting, &cfg);
        assert_eq!(merges, 2);
        // Every text element once, whatever the number of sweeps.
        assert_eq!(counting.0.get(), d.texts.len() as u64);
        // Each leaf once, plus the absorbing leaf once after each merge;
        // the root's embedding is never computed.
        assert_eq!(NODE_EMBEDS.with(Cell::get), leaves + merges as u64);

        // Through a job's context, every text element once per job,
        // across the merge and the interest points of its blocks.
        let ctx = DocContext::build(&d);
        let embedder = ctx.embedder();
        ELEMENT_EMBEDS.with(|c| c.set(0));
        let mut merged = tree;
        assert_eq!(
            semantic_merge_fast(&d, &mut merged, &embedder, &cfg),
            merges
        );
        let blocks = blocks_of_tree(&merged);
        let ips = interest_points(&d, &blocks, &embedder);
        assert_eq!(ips, interest_points(&d, &blocks, &LexiconEmbedding));
        assert_eq!(ELEMENT_EMBEDS.with(Cell::get), d.texts.len() as u64);
    }

    #[test]
    fn fast_merge_matches_naive_merge_counts() {
        use crate::segment::merge::{semantic_merge, MergeConfig};
        let (d, tree) = merge_fixture();
        let (mut t_naive, mut t_fast) = (tree.clone(), tree);
        let cfg = MergeConfig::default();
        let m_naive = semantic_merge(&d, &mut t_naive, &LexiconEmbedding, &cfg);
        let m_fast = semantic_merge_fast(&d, &mut t_fast, &LexiconEmbedding, &cfg);
        assert_eq!(m_naive, m_fast);
        assert_eq!(t_naive, t_fast);
    }

    #[test]
    fn fast_merge_matches_naive_merge_on_text_only_leaves() {
        use crate::segment::merge::{semantic_merge, MergeConfig};
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
        let build = |d: &Document| {
            let mut tree = LayoutTree::new(d.page_bbox(), refs.clone());
            for r in &refs[..3] {
                tree.add_child(tree.root(), d.bbox_of(*r), vec![*r]);
            }
            tree.add_child(
                tree.root(),
                BBox::new(150.0, 10.0, 30.0, 40.0),
                vec![refs[3], refs[4], refs[5]],
            );
            tree
        };
        let mut t_naive = build(&d);
        let mut t_fast = build(&d);
        let cfg = MergeConfig::default();
        let m_naive = semantic_merge(&d, &mut t_naive, &LexiconEmbedding, &cfg);
        let m_fast = semantic_merge_fast(&d, &mut t_fast, &LexiconEmbedding, &cfg);
        assert_eq!(m_naive, m_fast);
        assert_eq!(t_naive, t_fast);
    }
}
