//! Layout-complexity triage: route trivially regular documents around
//! the full VS2 segmenter (ROADMAP item 4).
//!
//! The paper's premise is that *heterogeneous* documents need adaptive
//! segmentation; the contrapositive is that homogeneous, whitespace-
//! regular layouts — tax-form grids, invoice line-item tables — do not,
//! and a production tier should not pay full VS2 cost on them. The
//! triage scorer decides, **before** segmentation, between:
//!
//! * [`TriageDecision::FullVs2`] — the adaptive segmenter (default, and
//!   always the choice for skewed or visually complex pages);
//! * [`TriageDecision::CheapPath`] — the recursive XY-cut fast path
//!   ([`cheap_blocks`]), the same segmenter as the serving tier's
//!   degradation fallback and the Table 5 A2 baseline;
//! * [`TriageDecision::PlanReplay`] — a validated cached segmentation
//!   plan (only ever emitted by [`routed_blocks_ctx`] for a
//!   `FullVs2`-scored document when a [`PlanStore`] is supplied and
//!   actually replays).
//!
//! ## Determinism contract
//!
//! [`triage_doc`] is a pure function of the document geometry and the
//! two configs: same document → same decision, on any thread, on the
//! owned or the arena path, across repeated runs. All features derive
//! from the plan-cache fingerprint on the default lattice
//! ([`LayoutFingerprint`] under [`FingerprintConfig::default`]: occupancy
//! histogram, element counts, page shape) plus the segmenter's own skew
//! gate ([`segment::skew_to_correct`]) — no randomness, no wall clock,
//! no cross-document state. The conformance suite pins the
//! purity and the metamorphic invariances property-style.

use crate::context::DocContext;
use crate::plan::{FingerprintConfig, LayoutFingerprint, PlanConfig, PlanOutcome, PlanStore};
use crate::segment::{self, LogicalBlock, SegmentConfig};
use vs2_docmodel::{BBox, Document, ElementRef};

/// Where the router sent a document. Wire names (`full` / `cheap` /
/// `replay`) feed the `triage_{full,cheap,replay}` serving counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TriageDecision {
    /// Full adaptive VS2 segmentation.
    FullVs2,
    /// The recursive XY-cut cheap path ([`cheap_blocks`]).
    CheapPath,
    /// A validated cached plan replayed (plan-cache composition only).
    PlanReplay,
}

impl TriageDecision {
    /// Stable lowercase name, used in summaries and span tags.
    pub fn name(&self) -> &'static str {
        match self {
            TriageDecision::FullVs2 => "full",
            TriageDecision::CheapPath => "cheap",
            TriageDecision::PlanReplay => "replay",
        }
    }
}

/// Thresholds of the layout-complexity scorer. The defaults route
/// sparse, whitespace-regular line layouts (invoice tables, fixed
/// templates — the D4/Templated traffic class) to the cheap path while
/// keeping ornate posters, ragged flyers and skewed scans on full VS2;
/// measured on the D1–D4 corpora (see EXPERIMENTS.md), where they
/// separate cleanly: D4 occupancy entropy tops out near 0.53 while
/// every D2/D3 document scores above 0.55 (and dense scanned D1 grids
/// above 1.19, independently diverted by the skew gate). The
/// conformance perf gate pins the trade-off at these values. Features
/// are computed on [`FingerprintConfig::default`], [`PlanConfig`]'s lattice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriageConfig {
    /// Maximum occupancy-histogram entropy (bits, of the 2-bit cell
    /// bucket distribution; ≤ 2.0) for the cheap path. Regular layouts
    /// concentrate cells in few buckets → low entropy.
    pub max_entropy: f64,
    /// Minimum column-regularity (0..=1) for the cheap path: the fill
    /// ratio of occupied fingerprint columns. Tables and grids fill
    /// their active columns evenly → high regularity.
    pub min_column_regularity: f64,
    /// Maximum image-element count for the cheap path. Pictorial pages
    /// are exactly the heterogeneous case VS2 exists for.
    pub max_images: u32,
    /// Minimum text-element count for the cheap path: tiny documents
    /// yield unreliable features (and save nothing by routing).
    pub min_texts: u32,
    /// Cheap-path segmenter geometry; the serving tier's degradation
    /// fallback segments with the same value.
    pub cheap: CheapPathConfig,
}

impl Default for TriageConfig {
    fn default() -> Self {
        Self {
            max_entropy: 0.55,
            min_column_regularity: 0.42,
            max_images: 0,
            min_texts: 12,
            cheap: CheapPathConfig::default(),
        }
    }
}

/// Geometry of the recursive XY-cut ([`cheap_blocks`]): the triage cheap
/// path, the serving tier's degradation fallback, and (as
/// `vs2-baselines`' `XyCutSegmenter`) the Table 5 A2 baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheapPathConfig {
    /// Minimum empty-valley extent (document units) to cut at.
    pub min_gap: f64,
    /// Maximum recursion depth.
    pub max_depth: usize,
}

impl Default for CheapPathConfig {
    fn default() -> Self {
        Self {
            min_gap: 10.0,
            max_depth: 8,
        }
    }
}

/// The fingerprint-derived features the scorer decides on. Every field
/// is a pure function of the document geometry. The page-skew gate is
/// not here: its estimate is an order of magnitude more expensive and is
/// only run once these gates pass.
struct LayoutFeatures {
    /// Exact text-element count (fingerprint field).
    n_texts: u32,
    /// Exact image-element count (fingerprint field).
    n_images: u32,
    /// Shannon entropy (bits) of the fingerprint's 2-bit cell-bucket
    /// histogram; 0 for an empty page, at most 2.0.
    occupancy_entropy: f64,
    /// Fill ratio of occupied fingerprint columns (0..=1): mean cell
    /// occupancy of the occupied columns relative to the fullest one.
    column_regularity: f64,
}

impl LayoutFeatures {
    fn passes(&self, cfg: &TriageConfig) -> bool {
        self.n_images <= cfg.max_images
            && self.n_texts >= cfg.min_texts
            && self.occupancy_entropy <= cfg.max_entropy
            && self.column_regularity >= cfg.min_column_regularity
    }
}

fn layout_features(doc: &Document) -> (LayoutFeatures, LayoutFingerprint) {
    let cfg = FingerprintConfig::default();
    let fp = LayoutFingerprint::compute(doc, &cfg);
    let cols = cfg.grid_cols.max(1);
    let rows = cfg.grid_rows.max(1);
    let n_cells = cols * rows;
    // Unpack the 2-bit buckets once for both histogram features.
    let mut bucket_counts = [0u32; 4];
    let mut col_occupied = vec![0u32; cols];
    for i in 0..n_cells {
        let word = fp.cells[(i * 2) / 64];
        let bucket = ((word >> ((i * 2) % 64)) & 0b11) as usize;
        bucket_counts[bucket] += 1;
        if bucket > 0 {
            col_occupied[i % cols] += 1;
        }
    }
    let occupancy_entropy = {
        let total = n_cells as f64;
        bucket_counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / total;
                -p * p.log2()
            })
            .sum()
    };
    let column_regularity = {
        let max = col_occupied.iter().copied().max().unwrap_or(0);
        let occupied: Vec<u32> = col_occupied.iter().copied().filter(|&c| c > 0).collect();
        if max == 0 || occupied.is_empty() {
            0.0
        } else {
            let sum: u32 = occupied.iter().sum();
            sum as f64 / (occupied.len() as f64 * max as f64)
        }
    };
    (
        LayoutFeatures {
            n_texts: fp.n_texts,
            n_images: fp.n_images,
            occupancy_entropy,
            column_regularity,
        },
        fp,
    )
}

/// The pure pre-segmentation scorer: [`TriageDecision::FullVs2`] or
/// [`TriageDecision::CheapPath`] from the document alone (never
/// `PlanReplay` — that outcome needs a plan store and is only produced
/// by [`routed_blocks_ctx`]). Deterministic in `(doc, seg, cfg)`.
///
/// The skew estimate runs lazily: documents that already fail the
/// layout gates skip it entirely, so scoring a full-VS2-bound page costs
/// one fingerprint pass (the conformance overhead suite relies on this).
pub fn triage_doc(doc: &Document, seg: &SegmentConfig, cfg: &TriageConfig) -> TriageDecision {
    triage_lazy(doc, seg, cfg).0
}

/// Lazy decision plus the fingerprint it derived from and, when the skew
/// gate ran (only if the layout gates passed) and diverted the page, its
/// angle (shared by [`triage_doc`] and [`routed_blocks_ctx`]).
fn triage_lazy(
    doc: &Document,
    seg: &SegmentConfig,
    cfg: &TriageConfig,
) -> (TriageDecision, LayoutFingerprint, Option<f64>) {
    let (lay, fp) = layout_features(doc);
    if !lay.passes(cfg) {
        return (TriageDecision::FullVs2, fp, None);
    }
    // Skewed pages need rotation-corrected analysis: content-dependent
    // by construction, so they always take the full path (the same gate
    // the plan cache bypasses on).
    match segment::skew_to_correct(doc, seg) {
        Some(angle) => (TriageDecision::FullVs2, fp, Some(angle)),
        None => (TriageDecision::CheapPath, fp, None),
    }
}

/// Recursive XY-cut over `doc` (Nagy et al.): a region is split at the
/// wider of its widest horizontal and vertical empty valleys,
/// recursively, until no valley reaches `cfg.min_gap` or `cfg.max_depth`
/// is hit. The one XY-cut in the workspace: the triage cheap path, the
/// serving tier's degradation fallback and the Table 5 A2 baseline
/// (`vs2-baselines`' `XyCutSegmenter`) all call it.
pub fn cheap_blocks(doc: &Document, cfg: &CheapPathConfig) -> Vec<LogicalBlock> {
    let elements = doc.element_refs();
    if elements.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    cut(doc, elements, 0, cfg, &mut out);
    out
}

/// Largest empty valley of a set of 1-D intervals; returns the valley
/// centre and extent.
fn largest_valley(mut intervals: Vec<(f64, f64)>) -> Option<(f64, f64)> {
    if intervals.len() < 2 {
        return None;
    }
    intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut best: Option<(f64, f64)> = None;
    let mut cover_end = intervals[0].1;
    for w in intervals.windows(2) {
        cover_end = cover_end.max(w[0].1);
        let gap = w[1].0 - cover_end;
        if gap > 0.0 && best.is_none_or(|(_, g)| gap > g) {
            best = Some((cover_end + gap / 2.0, gap));
        }
    }
    best
}

fn cut(
    doc: &Document,
    elements: Vec<ElementRef>,
    depth: usize,
    cfg: &CheapPathConfig,
    out: &mut Vec<LogicalBlock>,
) {
    let emit = |elements: Vec<ElementRef>, out: &mut Vec<LogicalBlock>| {
        let boxes: Vec<BBox> = elements.iter().map(|r| doc.bbox_of(*r)).collect();
        if let Some(bbox) = BBox::enclosing(boxes.iter()) {
            out.push(LogicalBlock { bbox, elements });
        }
    };
    if depth >= cfg.max_depth || elements.len() < 2 {
        emit(elements, out);
        return;
    }
    let ys: Vec<(f64, f64)> = elements
        .iter()
        .map(|r| {
            let b = doc.bbox_of(*r);
            (b.y, b.bottom())
        })
        .collect();
    let xs: Vec<(f64, f64)> = elements
        .iter()
        .map(|r| {
            let b = doc.bbox_of(*r);
            (b.x, b.right())
        })
        .collect();
    let vy = largest_valley(ys).filter(|(_, g)| *g >= cfg.min_gap);
    let vx = largest_valley(xs).filter(|(_, g)| *g >= cfg.min_gap);
    let (horizontal, at) = match (vy, vx) {
        (Some((cy, gy)), Some((cx, gx))) => {
            if gy >= gx {
                (true, cy)
            } else {
                (false, cx)
            }
        }
        (Some((cy, _)), None) => (true, cy),
        (None, Some((cx, _))) => (false, cx),
        (None, None) => {
            emit(elements, out);
            return;
        }
    };
    let (a, b): (Vec<ElementRef>, Vec<ElementRef>) = elements.into_iter().partition(|r| {
        let c = doc.bbox_of(*r).centroid();
        if horizontal {
            c.y < at
        } else {
            c.x < at
        }
    });
    if a.is_empty() || b.is_empty() {
        emit(a.into_iter().chain(b).collect(), out);
        return;
    }
    cut(doc, a, depth + 1, cfg, out);
    cut(doc, b, depth + 1, cfg, out);
}

/// The routed segmentation driver: triage → (plan replay | cheap path |
/// full VS2). Emits the `vs2.triage` span (tagged with the decision)
/// around the scoring pass.
///
/// Composition rules, in order:
///
/// 1. Skewed documents score `FullVs2` and (with a store) take the plan
///    cache's skew bypass — identical behaviour to the unrouted plan
///    path — reusing the scorer's skew angle when it has one.
/// 2. A `CheapPath` score runs XY-cut ([`cheap_blocks`]) and never
///    touches the store: before the skew gate the score is a pure
///    function of the fingerprint, and plans are only captured for
///    unskewed `FullVs2`-scored documents, so within one serving mode a
///    cheap-scored fingerprint never has a plan.
/// 3. A `FullVs2` score runs the normal segmentation path — through
///    the plan cache ([`crate::plan::planned_blocks_ctx`]) when a store
///    is given (so it may still replay, reported as `PlanReplay`; it
///    reuses the scorer's fingerprint when the plan config uses the
///    default lattice), the segmenter
///    ([`crate::segment::logical_blocks_ctx`]) otherwise.
///
/// Returns the blocks, the final decision, and the plan outcome when
/// the plan path ran (`None` on the storeless or cheap paths).
pub fn routed_blocks_ctx(
    ctx: &DocContext<'_>,
    seg: &SegmentConfig,
    cfg: &TriageConfig,
    plan: Option<(&PlanConfig, &PlanStore)>,
) -> (Vec<LogicalBlock>, TriageDecision, Option<PlanOutcome>) {
    let doc = ctx.doc();
    let (scored, fp, skew) = {
        let span = vs2_obs::span(vs2_obs::stages::TRIAGE);
        let (scored, fp, skew) = triage_lazy(doc, seg, cfg);
        span.tag("digest", fp.digest());
        span.tag("cheap", u64::from(scored == TriageDecision::CheapPath));
        (scored, fp, skew)
    };
    if scored == TriageDecision::CheapPath {
        return (cheap_blocks(doc, &cfg.cheap), scored, None);
    }
    let Some((plan_cfg, store)) = plan else {
        let skew = || skew.or_else(|| segment::skew_to_correct(doc, seg));
        let tree = segment::segmenter::segment_in_frame(doc, seg, &ctx.embedder(), skew);
        return (segment::blocks_of_tree(&tree), scored, None);
    };
    let fp = (plan_cfg.fingerprint == FingerprintConfig::default()).then_some(fp);
    let (blocks, outcome) = crate::plan::store::planned_blocks_with(
        doc,
        seg,
        plan_cfg,
        store,
        &ctx.embedder(),
        fp,
        skew,
    );
    let decision = match outcome {
        PlanOutcome::Replayed => TriageDecision::PlanReplay,
        _ => TriageDecision::FullVs2,
    };
    (blocks, decision, Some(outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs2_docmodel::TextElement;

    /// A sparse invoice-like column: 14 rows of 4 tightly packed words —
    /// the whitespace-regular traffic class the defaults route cheap.
    fn grid_doc() -> Document {
        let mut d = Document::new("grid", 612.0, 792.0);
        for row in 1..=14 {
            for i in 0..4 {
                let x = 80.0 + i as f64 * 19.0;
                let y = row as f64 * 49.5 + 14.0;
                d.push_text(TextElement::word(
                    format!("w{row}{i}"),
                    BBox::new(x - 8.0, y - 6.0, 16.0, 12.0),
                ));
            }
        }
        d
    }

    /// A ragged scatter: pseudo-random positions, images present.
    fn scatter_doc() -> Document {
        let mut d = Document::new("scatter", 612.0, 792.0);
        let mut s = 0x9E37u64;
        for i in 0..40 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (s >> 33) % 520;
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let y = (s >> 33) % 700;
            d.push_text(TextElement::word(
                format!("w{i}"),
                BBox::new(
                    x as f64 + 10.0,
                    y as f64 + 10.0,
                    30.0 + (i % 7) as f64 * 9.0,
                    10.0 + (i % 5) as f64 * 6.0,
                ),
            ));
        }
        d.push_image(vs2_docmodel::ImageElement::new(
            1,
            BBox::new(200.0, 300.0, 180.0, 140.0),
            vs2_docmodel::Lab::new(50.0, 10.0, -20.0),
        ));
        d
    }

    #[test]
    fn grid_routes_cheap_and_scatter_routes_full() {
        let seg = SegmentConfig::default();
        let cfg = TriageConfig::default();
        assert_eq!(
            triage_doc(&grid_doc(), &seg, &cfg),
            TriageDecision::CheapPath
        );
        assert_eq!(
            triage_doc(&scatter_doc(), &seg, &cfg),
            TriageDecision::FullVs2
        );
    }

    #[test]
    fn decision_is_deterministic() {
        let seg = SegmentConfig::default();
        let cfg = TriageConfig::default();
        for doc in [grid_doc(), scatter_doc()] {
            let first = triage_doc(&doc, &seg, &cfg);
            for _ in 0..10 {
                assert_eq!(triage_doc(&doc, &seg, &cfg), first);
            }
        }
    }

    /// Six sloped lines of eight words (same slope construction as the
    /// plan-store bypass test).
    fn skewed_doc() -> Document {
        let mut d = Document::new("skewed", 600.0, 800.0);
        for line in 0..6 {
            for i in 0..8 {
                let x = 40.0 + i as f64 * 60.0;
                let y = 80.0 + line as f64 * 60.0 + x * 0.02;
                d.push_text(TextElement::word(
                    format!("w{line}{i}"),
                    BBox::new(x, y, 40.0, 12.0),
                ));
            }
        }
        d
    }

    /// Two three-word rows 300 units apart on a `width × 800` page: too
    /// few texts to route cheap, and a plan the store admits.
    fn block_doc(width: f64) -> Document {
        let mut d = Document::new("blocks", width, 800.0);
        for y in [60.0, 360.0] {
            for i in 0..3 {
                d.push_text(TextElement::word(
                    format!("w{i}"),
                    BBox::new(60.0 + i as f64 * 50.0, y, 40.0, 12.0),
                ));
            }
        }
        d
    }

    #[test]
    fn skewed_documents_always_route_full() {
        let d = skewed_doc();
        assert!(segment::skew_to_correct(&d, &SegmentConfig::default()).is_some());
        assert_eq!(
            triage_doc(&d, &SegmentConfig::default(), &TriageConfig::default()),
            TriageDecision::FullVs2
        );
        // With deskew disabled the skew gate is off and the grid-like
        // geometry may score cheap — the gate must be config-driven.
        let no_deskew = SegmentConfig {
            deskew: false,
            ..SegmentConfig::default()
        };
        let cfg = TriageConfig::default();
        let (lay, _) = layout_features(&d);
        assert_eq!(
            triage_doc(&d, &no_deskew, &cfg) == TriageDecision::CheapPath,
            lay.passes(&cfg)
        );
    }

    #[test]
    fn lazy_scorer_matches_the_full_feature_rule() {
        // triage_doc short-circuits the skew estimate; its decision must
        // still equal the eager rule over every feature plus the skew.
        let seg = SegmentConfig::default();
        let cfg = TriageConfig::default();
        let mut cheap = 0;
        for doc in [grid_doc(), scatter_doc(), Document::new("e", 600.0, 800.0)] {
            let (lay, _) = layout_features(&doc);
            let eager = lay.passes(&cfg) && segment::skew_to_correct(&doc, &seg).is_none();
            let routed_cheap = triage_doc(&doc, &seg, &cfg) == TriageDecision::CheapPath;
            assert_eq!(routed_cheap, eager, "doc {}", doc.id);
            cheap += usize::from(routed_cheap);
        }
        assert_eq!(cheap, 1, "the grid is the one cheap-routed document");
    }

    #[test]
    fn tiny_documents_route_full() {
        let mut d = Document::new("tiny", 600.0, 800.0);
        d.push_text(TextElement::word("only", BBox::new(60.0, 60.0, 40.0, 12.0)));
        assert_eq!(
            triage_doc(&d, &SegmentConfig::default(), &TriageConfig::default()),
            TriageDecision::FullVs2
        );
    }

    #[test]
    fn empty_document_features_are_sane() {
        let d = Document::new("empty", 600.0, 800.0);
        let (f, _) = layout_features(&d);
        assert_eq!(f.n_texts, 0);
        assert_eq!(f.occupancy_entropy, 0.0);
        assert_eq!(f.column_regularity, 0.0);
        assert!(cheap_blocks(&d, &CheapPathConfig::default()).is_empty());
    }

    #[test]
    fn features_reuse_the_fingerprint() {
        let doc = grid_doc();
        let (f, fp) = layout_features(&doc);
        assert_eq!(
            fp,
            LayoutFingerprint::compute(&doc, &PlanConfig::default().fingerprint)
        );
        assert_eq!(f.n_texts, fp.n_texts);
        assert_eq!(f.n_images, fp.n_images);
    }

    #[test]
    fn valley_helper() {
        let v = largest_valley(vec![(0.0, 10.0), (30.0, 40.0), (12.0, 14.0)]);
        let (center, gap) = v.unwrap();
        assert_eq!(gap, 16.0);
        assert_eq!(center, 22.0);
        assert!(largest_valley(vec![(0.0, 10.0)]).is_none());
    }

    #[test]
    fn cheap_blocks_cover_every_element_exactly_once() {
        let doc = grid_doc();
        let blocks = cheap_blocks(&doc, &CheapPathConfig::default());
        let total: usize = blocks.iter().map(|b| b.elements.len()).sum();
        assert_eq!(total, doc.len());
        let mut seen: Vec<ElementRef> = blocks.iter().flat_map(|b| b.elements.clone()).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), doc.len());
        assert!(blocks.len() > 1, "a clear grid must split");
    }

    #[test]
    fn routed_cheap_without_plan_matches_cheap_blocks() {
        let doc = grid_doc();
        let ctx = DocContext::build(&doc);
        let tcfg = TriageConfig::default();
        let (blocks, decision, plan_outcome) =
            routed_blocks_ctx(&ctx, &SegmentConfig::default(), &tcfg, None);
        assert_eq!(decision, TriageDecision::CheapPath);
        assert_eq!(plan_outcome, None);
        let expected = cheap_blocks(&doc, &tcfg.cheap);
        assert_eq!(blocks.len(), expected.len());
        for (a, b) in blocks.iter().zip(&expected) {
            assert_eq!(a.bbox, b.bbox);
            assert_eq!(a.elements, b.elements);
        }
    }

    #[test]
    fn routed_full_matches_unrouted_segmentation() {
        let doc = scatter_doc();
        let ctx = DocContext::build(&doc);
        let seg = SegmentConfig::default();
        let (blocks, decision, _) = routed_blocks_ctx(&ctx, &seg, &TriageConfig::default(), None);
        assert_eq!(decision, TriageDecision::FullVs2);
        let expected = segment::logical_blocks_ctx(&ctx, &seg);
        assert_eq!(blocks.len(), expected.len());
        for (a, b) in blocks.iter().zip(&expected) {
            assert_eq!(a.bbox, b.bbox);
            assert_eq!(a.elements, b.elements);
        }
    }

    /// Runs `f` and returns its value with the skew estimates and
    /// fingerprints it computed on this thread.
    fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
        use crate::plan::fingerprint::FINGERPRINTS;
        use crate::segment::deskew::SKEW_ESTIMATES;
        use std::cell::Cell;
        SKEW_ESTIMATES.with(|c| c.set(0));
        FINGERPRINTS.with(|c| c.set(0));
        let out = f();
        (
            out,
            SKEW_ESTIMATES.with(Cell::get),
            FINGERPRINTS.with(Cell::get),
        )
    }

    #[test]
    fn each_document_is_deskew_gated_and_fingerprinted_once() {
        use crate::plan::ValidationReject;
        let seg = SegmentConfig::default();
        let tcfg = TriageConfig::default();
        let pcfg = PlanConfig::default();
        let store = PlanStore::default();
        // The skewed grid passes the layout gates, so the scorer runs the
        // skew gate itself and hands its angle to the plan bypass.
        let skewed_grid = segment::rotate_elements(&grid_doc(), -0.01);
        assert!(layout_features(&skewed_grid).0.passes(&tcfg));
        assert!(!layout_features(&skewed_doc()).0.passes(&tcfg));
        let routed = [
            (grid_doc(), TriageDecision::CheapPath, None),
            (
                skewed_doc(),
                TriageDecision::FullVs2,
                Some(PlanOutcome::Bypassed),
            ),
            (
                skewed_grid,
                TriageDecision::FullVs2,
                Some(PlanOutcome::Bypassed),
            ),
            (
                block_doc(600.0),
                TriageDecision::FullVs2,
                Some(PlanOutcome::Miss { inserted: true }),
            ),
            (
                block_doc(600.0),
                TriageDecision::PlanReplay,
                Some(PlanOutcome::Replayed),
            ),
            (
                block_doc(601.5),
                TriageDecision::FullVs2,
                Some(PlanOutcome::Rejected(ValidationReject::PageMismatch)),
            ),
        ];
        for (doc, decision, outcome) in &routed {
            let ctx = DocContext::build(doc);
            let ((_, d, o), skews, fps) =
                counted(|| routed_blocks_ctx(&ctx, &seg, &tcfg, Some((&pcfg, &store))));
            assert_eq!((d, o), (*decision, *outcome), "{decision:?}");
            assert!(
                skews <= 1,
                "{decision:?} {outcome:?}: {skews} skew estimates"
            );
            assert!(fps <= 1, "{decision:?} {outcome:?}: {fps} fingerprints");
            let (_, skews, fps) = counted(|| routed_blocks_ctx(&ctx, &seg, &tcfg, None));
            assert!(
                skews <= 1 && fps <= 1,
                "{decision:?} storeless: {skews}, {fps}"
            );
        }
        // The unrouted paths estimate the skew exactly once per document.
        let store = PlanStore::default();
        for doc in [
            skewed_doc(),
            block_doc(600.0),
            block_doc(600.0),
            block_doc(601.5),
        ] {
            let ctx = DocContext::build(&doc);
            let (_, skews, fps) =
                counted(|| crate::plan::planned_blocks_ctx(&ctx, &seg, &pcfg, &store));
            assert_eq!(skews, 1, "planned {}", doc.id);
            assert!(fps <= 1, "planned {}: {fps} fingerprints", doc.id);
            let (_, skews, fps) = counted(|| segment::logical_blocks_ctx(&ctx, &seg));
            assert_eq!((skews, fps), (1, 0), "logical {}", doc.id);
        }
        let counters = store.counters();
        assert_eq!(
            (
                counters.bypasses,
                counters.misses,
                counters.hits,
                counters.validation_rejects
            ),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn decision_names_are_wire_stable() {
        assert_eq!(TriageDecision::FullVs2.name(), "full");
        assert_eq!(TriageDecision::CheapPath.name(), "cheap");
        assert_eq!(TriageDecision::PlanReplay.name(), "replay");
    }
}
