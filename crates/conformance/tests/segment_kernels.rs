//! Reference battery for the segmentation kernels.
//!
//! The production Table 1 clustering (`segment::cluster::cluster`) and
//! Algorithm 1 run scoring (`segment::delimiter::score_runs_geom_into`)
//! are shared by the fast and the naive segmenter, so `segment_equiv`
//! holds them to nothing. This battery holds each to the verbatim
//! reference copy in `kernel_spec`: identical partitions, and
//! `ScoredRun`s equal field for field with floats compared by
//! `to_bits`.
//!
//! The generators aim at the places a faster kernel could drift: ties
//! (coarse lattice coordinates and a small colour palette), duplicate
//! boxes, images mixed into the area, every element in one quadrant,
//! zero-size and non-finite boxes, degenerate areas and configurations,
//! and element counts from 2 to past the distance-table bound.
//!
//! The fast path's Eq. 1 merge (`segment::fast::semantic_merge_fast`)
//! is held the same way to its pre-column copy in `kernel_spec::merge`:
//! the same merge count and layout trees equal node for node, boxes by
//! `to_bits`, over random trees with repeated words (equal sibling
//! cosines, where the last maximum must win), image-only and empty
//! nodes, internal siblings and non-sibling nodes on the same level, and
//! configurations that merge several times.
//!
//! Case counts honour `VS2_PROPTEST_CASES`; failures print a
//! `VS2_PROPTEST_SEED` repro command (see the `proptest` shim docs).

mod kernel_spec;

use proptest::collection::vec;
use proptest::prelude::*;
use vs2_core::segment::cluster::{cluster, ClusterConfig, DISTANCE_TABLE_MAX_N};
use vs2_core::segment::delimiter::{score_runs_geom_into, ScoredRun};
use vs2_core::segment::fast::semantic_merge_fast;
use vs2_core::segment::{CutRun, MergeConfig};
use vs2_docmodel::{
    BBox, Document, ElementRef, ImageElement, Lab, LayoutTree, NodeId, Point, TextElement,
};
use vs2_nlp::LexiconEmbedding;

/// Side of the square test page.
const PAGE: f64 = 200.0;

/// One generated element: lattice geometry `(x, y, w, h)` in steps, a
/// palette tone, a draw for the non-finite flavour and an image flag.
type RawElement = ((u32, u32, u32, u32), u32, u32, bool);

fn raw_element() -> impl Strategy<Value = RawElement> {
    (
        (0u32..24, 0u32..24, 0u32..6, 0u32..5),
        0u32..4,
        0u32..12,
        (0u32..4).prop_map(|v| v == 0),
    )
}

/// How a generated document bends its raw elements.
#[derive(Debug, Clone, Copy)]
enum Flavour {
    /// Lattice geometry as drawn: ties everywhere.
    Lattice,
    /// Every element repeats one of three boxes.
    Duplicates,
    /// Roughly a quarter of the elements are images.
    MixedImages,
    /// Every centroid falls in the top-left quadrant of the page.
    OneQuadrant,
    /// Every other element has zero width and height.
    ZeroSize,
    /// Some coordinates, sizes or colours are infinite, NaN, huge or
    /// negative.
    NonFinite,
}

const FLAVOURS: [Flavour; 6] = [
    Flavour::Lattice,
    Flavour::Duplicates,
    Flavour::MixedImages,
    Flavour::OneQuadrant,
    Flavour::ZeroSize,
    Flavour::NonFinite,
];

fn tone(t: u32) -> Lab {
    [
        Lab::new(0.0, 0.0, 0.0),
        Lab::new(0.0, 0.0, 0.0),
        Lab::new(50.0, 20.0, -10.0),
        Lab::new(90.0, -5.0, 5.0),
    ][t as usize % 4]
}

/// The box and colour of raw element `i` under `flavour`.
fn element_geometry(flavour: Flavour, raws: &[RawElement], i: usize) -> (BBox, Lab) {
    let source = match flavour {
        Flavour::Duplicates => &raws[i % 3.min(raws.len())],
        _ => &raws[i],
    };
    let ((xs, ys, ws, hs), t, special, _) = *source;
    let (mut x, mut y) = (f64::from(xs) * 8.0, f64::from(ys) * 8.0);
    let (mut w, mut h) = (f64::from(ws) * 6.0, f64::from(hs) * 4.0 + 4.0);
    let mut color = tone(t);
    match flavour {
        Flavour::OneQuadrant => {
            x /= 4.0;
            y /= 4.0;
            w = w.min(20.0);
            h = h.min(8.0);
        }
        Flavour::ZeroSize if i.is_multiple_of(2) => {
            w = 0.0;
            h = 0.0;
        }
        Flavour::NonFinite => match special {
            0 => x = f64::INFINITY,
            1 => y = f64::NEG_INFINITY,
            2 => w = f64::NAN,
            3 => h = f64::INFINITY,
            4 => x = 1e300,
            5 => color.l = f64::INFINITY,
            6 => color.a = f64::NAN,
            7 => w = -6.0,
            _ => {}
        },
        _ => {}
    }
    // A literal, not `BBox::new`, which would clamp NaN and negative
    // sizes to zero.
    (BBox { x, y, w, h }, color)
}

/// Builds the document and the element list handed to the kernel.
fn build(flavour: Flavour, raws: &[RawElement]) -> (Document, Vec<ElementRef>) {
    let mut doc = Document::new("kernel", PAGE, PAGE);
    let mut refs = Vec::with_capacity(raws.len());
    for (i, raw) in raws.iter().enumerate() {
        let (bbox, color) = element_geometry(flavour, raws, i);
        let image = matches!(flavour, Flavour::MixedImages) && raw.3;
        refs.push(if image {
            doc.push_image(ImageElement::new(i as u64, bbox, color))
        } else {
            doc.push_text(TextElement::word("w", bbox).with_color(color))
        });
    }
    (doc, refs)
}

/// The area the kernel clusters over.
fn area_for(mode: u32, doc: &Document, refs: &[ElementRef], draw: (u32, u32, u32, u32)) -> BBox {
    match mode % 4 {
        0 => doc.page_bbox(),
        1 => {
            let boxes: Vec<BBox> = refs.iter().map(|r| doc.bbox_of(*r)).collect();
            BBox::enclosing(&boxes).unwrap_or_default().inflate(4.0)
        }
        2 => BBox::new(
            f64::from(draw.0) * 5.0,
            f64::from(draw.1) * 5.0,
            f64::from(draw.2) * 10.0,
            f64::from(draw.3) * 10.0,
        ),
        _ => BBox::new(f64::from(draw.0), f64::from(draw.1), 0.0, 0.0),
    }
}

/// The clustering configuration: the default, or one bent towards ties,
/// no or one reassignment pass, or collapse never / always.
fn config_for(mode: u32) -> ClusterConfig {
    let base = ClusterConfig::default();
    match mode % 6 {
        0 | 1 => base,
        2 => ClusterConfig {
            w_position: 0.0,
            w_color: 0.0,
            ..base
        },
        3 => ClusterConfig {
            max_iters: (mode / 6) as usize % 2,
            ..base
        },
        4 => ClusterConfig {
            collapse_factor: 0.0,
            ..base
        },
        _ => ClusterConfig {
            collapse_factor: 1e9,
            ..base
        },
    }
}

type ClusterCase = (u32, u32, u32, (u32, u32, u32, u32), Vec<RawElement>);

fn cluster_case(len: std::ops::Range<usize>) -> impl Strategy<Value = ClusterCase> {
    (
        0u32..6,
        0u32..4,
        0u32..12,
        (0u32..40, 0u32..40, 0u32..20, 0u32..20),
        vec(raw_element(), len),
    )
}

/// Production and reference clustering agree on one generated case.
fn assert_cluster_matches((flavour, area_mode, cfg_mode, draw, raws): ClusterCase) {
    let flavour = FLAVOURS[flavour as usize];
    let (doc, refs) = build(flavour, &raws);
    let area = area_for(area_mode, &doc, &refs, draw);
    let cfg = config_for(cfg_mode);
    let reference = kernel_spec::cluster(&doc, &area, &refs, &cfg);
    let fast = cluster(&doc, &area, &refs, &cfg);
    assert_eq!(
        fast,
        reference,
        "partitions diverged: {flavour:?}, n = {}, area {area:?}, cfg {cfg:?}",
        refs.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    /// Small and mid-size areas: every flavour, area and configuration.
    #[test]
    fn cluster_matches_reference(case in cluster_case(2..48)) {
        assert_cluster_matches(case);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Around and past the distance-table bound, where distances switch
    /// from the table to on demand.
    #[test]
    fn cluster_matches_reference_past_the_table_bound(
        case in cluster_case(DISTANCE_TABLE_MAX_N - 4..DISTANCE_TABLE_MAX_N + 96)
    ) {
        assert_cluster_matches(case);
    }
}

/// A `ScoredRun` with every float as its bit pattern.
fn bits(s: &ScoredRun) -> (CutRun, u64, u64, u64) {
    (
        s.run,
        s.gap.to_bits(),
        s.neighbor_height.to_bits(),
        s.width.to_bits(),
    )
}

const CELLS: [f64; 4] = [0.5, 1.0, 2.0, 3.75];

type ScoreCase = (
    Vec<(bool, usize, usize)>,
    (u32, u32, u32),
    (u32, u32, u32, u32),
    Vec<(RawElement, bool)>,
    (u32, u32),
);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    /// Run scoring: ties between equidistant neighbours, duplicate and
    /// non-finite boxes, text subsets (empty, partial, all).
    #[test]
    fn scoring_matches_reference(
        case in (
            vec(((0u32..2).prop_map(|h| h == 0), 0usize..60, 1usize..20), 0..12),
            (0u32..40, 0u32..40, 0u32..4),
            (0u32..40, 0u32..40, 0u32..60, 0u32..60),
            vec((raw_element(), (0u32..2).prop_map(|t| t == 0)), 0..30),
            (0u32..6, 0u32..3),
        )
    ) {
        let (runs, (ox, oy, cell), draw, raws, (flavour, text_mode)): ScoreCase = case;
        let runs: Vec<CutRun> = runs
            .into_iter()
            .map(|(horizontal, start, len)| CutRun { horizontal, start, len })
            .collect();
        let origin = Point::new(f64::from(ox) * 2.0, f64::from(oy) * 2.0);
        let cell = CELLS[cell as usize];
        let flavour = FLAVOURS[flavour as usize];
        let elements: Vec<RawElement> = raws.iter().map(|(e, _)| *e).collect();
        let all_boxes: Vec<BBox> = (0..elements.len())
            .map(|i| element_geometry(flavour, &elements, i).0)
            .collect();
        let text_boxes: Vec<BBox> = match text_mode {
            0 => Vec::new(),
            1 => all_boxes
                .iter()
                .zip(&raws)
                .filter(|(_, (_, text))| *text)
                .map(|(b, _)| *b)
                .collect(),
            _ => all_boxes.clone(),
        };
        let area = if matches!(flavour, Flavour::NonFinite) && draw.0 % 5 == 0 {
            BBox::new(f64::NAN, 0.0, f64::INFINITY, PAGE)
        } else {
            BBox::new(
                f64::from(draw.0) * 2.0,
                f64::from(draw.1) * 2.0,
                f64::from(draw.2) * 4.0,
                f64::from(draw.3) * 4.0,
            )
        };
        // Both append after the same sentinel.
        let sentinel = ScoredRun {
            run: CutRun { horizontal: true, start: 7, len: 1 },
            gap: 1.0,
            neighbor_height: 1.0,
            width: 1.0,
        };
        let (mut reference, mut fast) = (vec![sentinel], vec![sentinel]);
        kernel_spec::score_runs_geom_into(
            &runs, origin, cell, &area, &all_boxes, &text_boxes, &mut reference,
        );
        score_runs_geom_into(&runs, origin, cell, &area, &all_boxes, &text_boxes, &mut fast);
        let reference: Vec<_> = reference.iter().map(bits).collect();
        let fast: Vec<_> = fast.iter().map(bits).collect();
        prop_assert_eq!(fast, reference, "scored runs diverged: {:?}, area {:?}", flavour, area);
    }
}

/// The cluster generator is not vacuous: many cases split their text
/// into several parts, and many carry image parts.
#[test]
fn generators_are_not_vacuous() {
    let mut rng = proptest::TestRng::from_label("segment_kernels::coverage");
    let (mut split, mut image_parts) = (0, 0);
    for _ in 0..200 {
        let (flavour, area_mode, cfg_mode, draw, raws) =
            Strategy::generate(&cluster_case(2..48), &mut rng);
        let flavour = FLAVOURS[flavour as usize];
        let (doc, refs) = build(flavour, &raws);
        let area = area_for(area_mode, &doc, &refs, draw);
        let parts = cluster(&doc, &area, &refs, &config_for(cfg_mode));
        let texts = parts
            .iter()
            .filter(|p| p.iter().all(|r| r.is_text()))
            .count();
        if texts >= 2 {
            split += 1;
        }
        if texts < parts.len() {
            image_parts += 1;
        }
    }
    assert!(split >= 20, "only {split} cases split the text");
    assert!(image_parts >= 10, "only {image_parts} cases carried images");
}

/// Element texts for the merge battery: two topics, a name, a number, an
/// unknown word and a two-word text. Small, so equal texts (and equal
/// sibling cosines) are common.
const MERGE_TEXTS: [&str; 9] = [
    "concert",
    "festival",
    "workshop",
    "acres",
    "sqft",
    "james",
    "2,465",
    "zorblax",
    "jazz concert",
];

/// One generated element: text (or image when `>= MERGE_TEXTS.len()`),
/// lattice position, top-level group and subgroup.
type MergeElement = (u32, (u32, u32), u32, u32);

/// Elements, the number of top-level groups, which groups split into
/// subgroups (bit mask), a text-palette narrowing and the configuration.
type MergeCase = (Vec<MergeElement>, u32, u32, u32, u32);

fn merge_case() -> impl Strategy<Value = MergeCase> {
    (
        vec(
            (
                0u32..MERGE_TEXTS.len() as u32 + 2,
                (0u32..24, 0u32..24),
                0u32..6,
                0u32..2,
            ),
            2..28,
        ),
        2u32..10,
        0u32..512,
        0u32..3,
        0u32..6,
    )
}

fn merge_config(mode: u32) -> MergeConfig {
    let base = MergeConfig::default();
    match mode {
        0 => base,
        // Contrast always clears θ and any pair is similar enough: the
        // tree merges until visual separation stops it.
        1 => MergeConfig {
            theta_max: 0.0,
            min_pair_similarity: -1.0,
            ..base
        },
        2 => MergeConfig {
            theta_max: 0.0,
            min_pair_similarity: 0.2,
            separation_gap_ratio: 1e9,
            ..base
        },
        3 => MergeConfig {
            max_sweeps: 2,
            theta_max: 0.0,
            min_pair_similarity: -1.0,
            ..base
        },
        4 => MergeConfig {
            min_pair_similarity: 0.0,
            separation_gap_ratio: 1e9,
            ..base
        },
        _ => MergeConfig {
            theta_min: -1.0,
            theta_max: -1.0,
            min_pair_similarity: -1.0,
            separation_gap_ratio: 1e9,
            ..base
        },
    }
}

/// The document and the tree of one case: the root holds every element;
/// group `g` is the root's `g`-th child (empty when no element drew it);
/// a group whose bit is set in `split` gets one child per subgroup.
fn merge_tree(case: &MergeCase) -> (Document, LayoutTree) {
    let (elements, groups, split, narrow, _) = case;
    let mut doc = Document::new("merge", 260.0, 220.0);
    let refs: Vec<ElementRef> = elements
        .iter()
        .map(|&(t, (x, y), _, _)| {
            let b = BBox::new(f64::from(x) * 10.0, f64::from(y) * 9.0, 30.0, 8.0);
            match MERGE_TEXTS.get(t as usize) {
                // Narrowed palettes repeat texts more often.
                Some(_) => {
                    let t = t as usize % (MERGE_TEXTS.len() >> narrow);
                    doc.push_text(TextElement::word(MERGE_TEXTS[t], b))
                }
                None => {
                    doc.push_image(ImageElement::new(u64::from(t), b, Lab::new(50.0, 0.0, 0.0)))
                }
            }
        })
        .collect();
    let bbox_of = |doc: &Document, part: &[ElementRef]| {
        let boxes: Vec<BBox> = part.iter().map(|r| doc.bbox_of(*r)).collect();
        BBox::enclosing(&boxes).unwrap_or_default()
    };
    let mut tree = LayoutTree::new(bbox_of(&doc, &refs), refs.clone());
    for g in 0..*groups {
        let part: Vec<ElementRef> = refs
            .iter()
            .zip(elements)
            .filter(|(_, e)| e.2 % groups == g)
            .map(|(r, _)| *r)
            .collect();
        let node = tree.add_child(tree.root(), bbox_of(&doc, &part), part.clone());
        if split >> g & 1 == 1 {
            for sub in 0..2 {
                let part: Vec<ElementRef> = refs
                    .iter()
                    .zip(elements)
                    .filter(|(_, e)| e.2 % groups == g && e.3 == sub)
                    .map(|(r, _)| *r)
                    .collect();
                tree.add_child(node, bbox_of(&doc, &part), part);
            }
        }
    }
    (doc, tree)
}

/// Every live node's id, parent, children, elements and box bits.
#[allow(clippy::type_complexity)]
fn tree_bits(
    tree: &LayoutTree,
) -> Vec<(
    NodeId,
    Option<NodeId>,
    Vec<NodeId>,
    Vec<ElementRef>,
    [u64; 4],
)> {
    tree.live_ids()
        .map(|id| {
            let n = tree.node(id);
            let b = n.bbox;
            (
                id,
                n.parent,
                n.children.clone(),
                n.elements.clone(),
                [b.x.to_bits(), b.y.to_bits(), b.w.to_bits(), b.h.to_bits()],
            )
        })
        .collect()
}

/// Production and reference merging of one case: the merge counts.
fn merge_both(case: &MergeCase) -> (usize, usize) {
    let (doc, tree) = merge_tree(case);
    let cfg = merge_config(case.4);
    let (mut reference, mut fast) = (tree.clone(), tree);
    let want =
        kernel_spec::merge::semantic_merge_fast(&doc, &mut reference, &LexiconEmbedding, &cfg);
    let got = semantic_merge_fast(&doc, &mut fast, &LexiconEmbedding, &cfg);
    assert_eq!(got, want, "merge counts diverged under {cfg:?}");
    assert_eq!(
        tree_bits(&fast),
        tree_bits(&reference),
        "trees diverged under {cfg:?}"
    );
    (got, tree_bits(&fast).len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Eq. 1 merging: same merges, same trees, bit for bit.
    #[test]
    fn merge_matches_reference(case in merge_case()) {
        merge_both(&case);
    }
}

/// The merge generator is not vacuous: many cases merge, many merge more
/// than once, and many carry image-only and empty nodes, equal sibling
/// texts and non-sibling nodes on the level of a sibling group.
#[test]
fn merge_generator_is_not_vacuous() {
    let mut rng = proptest::TestRng::from_label("segment_kernels::merge_coverage");
    let (mut merged, mut repeated, mut image_only, mut empty, mut tied, mut levels) =
        (0, 0, 0, 0, 0, 0);
    for _ in 0..300 {
        let case = Strategy::generate(&merge_case(), &mut rng);
        let (doc, tree) = merge_tree(&case);
        let leaves: Vec<&[ElementRef]> = tree
            .leaves()
            .into_iter()
            .map(|id| tree.node(id).elements.as_slice())
            .collect();
        let text_of = |part: &[ElementRef]| -> Vec<&str> {
            part.iter().filter_map(|r| doc.text_of(*r)).collect()
        };
        if leaves
            .iter()
            .any(|p| !p.is_empty() && p.iter().all(|r| !r.is_text()))
        {
            image_only += 1;
        }
        if leaves.iter().any(|p| p.is_empty()) {
            empty += 1;
        }
        let texts: Vec<Vec<&str>> = leaves.iter().map(|p| text_of(p)).collect();
        if (0..texts.len())
            .any(|i| (i + 1..texts.len()).any(|j| !texts[i].is_empty() && texts[i] == texts[j]))
        {
            tied += 1;
        }
        if case.2 & ((1 << case.1) - 1) != 0 {
            levels += 1;
        }
        let (merges, _) = merge_both(&case);
        if merges >= 1 {
            merged += 1;
        }
        if merges >= 2 {
            repeated += 1;
        }
    }
    assert!(merged >= 120, "only {merged} cases merged");
    assert!(repeated >= 55, "only {repeated} cases merged twice or more");
    assert!(
        image_only >= 70,
        "only {image_only} cases had an image-only node"
    );
    assert!(empty >= 140, "only {empty} cases had an empty node");
    assert!(tied >= 65, "only {tied} cases had equal sibling texts");
    assert!(levels >= 180, "only {levels} cases had internal siblings");
}
