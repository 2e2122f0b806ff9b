//! Visual clustering of atomic elements (§5.1.2, Table 1).
//!
//! When no explicit visual delimiter is found inside an area, VS2-Segment
//! groups the atomic elements by pairwise similarity of low-level visual
//! features — the implicit modifiers (proximity, alignment, negative
//! space) that whitespace cuts cannot see. Table 1's features are used:
//! centroid position, bounding-box height, average Lab colour, angular
//! distance of the centroid from the origin, and the (pairwise) sum of
//! angular distances. The process is seeded from a 2×2 grid over the
//! area (the medoid of each occupied cell) and elements are iteratively
//! reassigned to their nearest cluster until a fixed point.

use std::cell::RefCell;

use vs2_docmodel::{BBox, Document, ElementRef, Lab, Point};

/// The Table 1 feature encoding of one atomic element, normalised to the
/// enclosing area.
#[derive(Debug, Clone, Copy)]
pub struct VisualFeatures {
    /// Centroid, normalised to the area (`[0,1]²`).
    pub centroid: Point,
    /// Bounding-box height, normalised by the tallest element.
    pub height: f64,
    /// Average colour.
    pub color: Lab,
    /// Angular distance of the centroid from the area origin, in
    /// `[0, π/2]`, normalised to `[0, 1]`.
    pub angular: f64,
}

/// Relative weights of the feature groups in the pairwise distance.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Weight of centroid proximity.
    pub w_position: f64,
    /// Weight of height (font-size) difference.
    pub w_height: f64,
    /// Weight of colour difference (ΔE, scaled by 1/100).
    pub w_color: f64,
    /// Weight of angular-distance difference.
    pub w_angular: f64,
    /// Weight of the pairwise sum-of-angular-distances feature.
    pub w_sum_angular: f64,
    /// Maximum reassignment sweeps.
    pub max_iters: usize,
    /// Two clusters collapse when their average inter-cluster distance is
    /// below this multiple of the larger intra-cluster spread — the guard
    /// that keeps a visually homogeneous area in one cluster instead of
    /// four grid shards.
    pub collapse_factor: f64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            w_position: 1.0,
            w_height: 0.6,
            w_color: 0.4,
            w_angular: 0.15,
            w_sum_angular: 0.05,
            max_iters: 12,
            collapse_factor: 1.6,
        }
    }
}

fn features_of(doc: &Document, area: &BBox, r: ElementRef, max_h: f64) -> VisualFeatures {
    let b = doc.bbox_of(r);
    let c = b.centroid();
    let color = match r {
        ElementRef::Text(i) => doc.texts[i].color,
        ElementRef::Image(i) => doc.images[i].avg_color,
    };
    let local = Point::new(
        ((c.x - area.x) / area.w.max(1e-9)).clamp(0.0, 1.0),
        ((c.y - area.y) / area.h.max(1e-9)).clamp(0.0, 1.0),
    );
    VisualFeatures {
        centroid: local,
        height: b.h / max_h.max(1e-9),
        color,
        angular: local.angular_distance() / std::f64::consts::FRAC_PI_2,
    }
}

/// Pairwise distance in the Table 1 feature space.
pub fn feature_distance(a: &VisualFeatures, b: &VisualFeatures, cfg: &ClusterConfig) -> f64 {
    #[cfg(test)]
    tests::DISTANCE_CALLS.with(|c| c.set(c.get() + 1));
    let dpos = a.centroid.distance(&b.centroid);
    let dh = (a.height - b.height).abs();
    let dc = a.color.delta_e(&b.color) / 100.0;
    let da = (a.angular - b.angular).abs();
    let sa = a.angular + b.angular; // sum of angular distances (Table 1)
    cfg.w_position * dpos
        + cfg.w_height * dh
        + cfg.w_color * dc
        + cfg.w_angular * da
        + cfg.w_sum_angular * sa
}

/// Largest element count whose pairwise distances are tabulated: a
/// 512 × 512 table of `f64` is 2 MiB per thread. Larger areas compute
/// each distance on demand through the same accessor.
pub const DISTANCE_TABLE_MAX_N: usize = 512;

/// Reused working buffers of one thread's cluster calls — cleared and
/// refilled identically on every call, so reuse cannot change decisions.
#[derive(Default)]
struct ClusterScratch {
    feats: Vec<VisualFeatures>,
    /// Row-major `n × n` feature distances; empty when not tabulated.
    table: Vec<f64>,
    seeds: Vec<usize>,
    members: Vec<usize>,
    /// Each quadrant member's summed distance to the quadrant.
    medoid_sums: Vec<f64>,
    assign: Vec<usize>,
    parts: Vec<Vec<usize>>,
}

thread_local! {
    static CLUSTER_SCRATCH: RefCell<ClusterScratch> = RefCell::new(ClusterScratch::default());
}

/// `true` when every feature is finite. Over finite features
/// [`feature_distance`] is symmetric bit for bit (each term is a squared
/// difference, an `abs` or a commutative sum, and any NaN it makes is
/// the default one), so one table entry serves both orientations. A
/// non-finite input could carry a NaN payload that survives in one
/// orientation only, so such areas compute on demand instead.
fn is_finite(f: &VisualFeatures) -> bool {
    [
        f.centroid.x,
        f.centroid.y,
        f.height,
        f.color.l,
        f.color.a,
        f.color.b,
        f.angular,
    ]
    .iter()
    .all(|v| v.is_finite())
}

/// Refills `table` with every pairwise distance of `feats` — `n(n+1)/2`
/// evaluations, the diagonal included (a medoid sum counts `d(a, a)`) —
/// or leaves it empty when the area is too large or not finite.
fn fill_table(table: &mut Vec<f64>, feats: &[VisualFeatures], cfg: &ClusterConfig) {
    table.clear();
    let n = feats.len();
    if n > DISTANCE_TABLE_MAX_N || !feats.iter().all(is_finite) {
        return;
    }
    table.resize(n * n, 0.0);
    for i in 0..n {
        for j in i..n {
            let d = feature_distance(&feats[i], &feats[j], cfg);
            table[i * n + j] = d;
            table[j * n + i] = d;
        }
    }
}

/// The pairwise distances of one cluster call: a table lookup when the
/// table is filled, else [`feature_distance`] in the caller's orientation.
struct Distances<'a> {
    feats: &'a [VisualFeatures],
    table: &'a [f64],
    cfg: &'a ClusterConfig,
}

impl Distances<'_> {
    #[inline]
    fn d(&self, a: usize, b: usize) -> f64 {
        if self.table.is_empty() {
            feature_distance(&self.feats[a], &self.feats[b], self.cfg)
        } else {
            self.table[a * self.feats.len() + b]
        }
    }
}

/// Clusters the elements of an area. Returns a partition (each part
/// non-empty); a single part means "no split found".
pub fn cluster(
    doc: &Document,
    area: &BBox,
    elements: &[ElementRef],
    cfg: &ClusterConfig,
) -> Vec<Vec<ElementRef>> {
    // Images are atomic visual units: each forms its own part, and only
    // the text elements participate in feature clustering (merging text
    // into an image's cluster by mere proximity would glue banners to
    // titles). All-text areas (the common case) skip the partition.
    if elements.iter().any(|r| !r.is_text()) {
        let images = elements.iter().copied().filter(|r| !r.is_text());
        let texts: Vec<ElementRef> = elements.iter().copied().filter(|r| r.is_text()).collect();
        let mut parts: Vec<Vec<ElementRef>> = images.map(|r| vec![r]).collect();
        if !texts.is_empty() {
            parts.extend(
                CLUSTER_SCRATCH.with(|s| cluster_core(doc, area, &texts, cfg, &mut s.borrow_mut())),
            );
        }
        return parts;
    }
    CLUSTER_SCRATCH.with(|s| cluster_core(doc, area, elements, cfg, &mut s.borrow_mut()))
}

/// What the collapse loop reads of one cluster, computed once per
/// membership change.
#[derive(Clone, Copy, Default)]
struct PartSummary {
    /// Average intra-cluster distance (0 for a singleton).
    intra: f64,
    /// Enclosing box of the members.
    bbox: BBox,
    /// Height of the tallest member.
    font: f64,
}

/// The 2×2 seeding grid caps the cluster count.
const MAX_CLUSTERS: usize = 4;

/// The text-only clustering core, over caller-owned scratch. Every
/// element is text: [`cluster`] splits images off before calling it.
///
/// Every distance comes from one table filled once per call (see
/// [`fill_table`]), and every float is summed in the same order as the
/// direct form — each member over its quadrant in member order, each
/// element over the others in index order, each cluster pair over its
/// members in list order — so the partition is bit-identical to
/// recomputing each distance where it is used.
fn cluster_core(
    doc: &Document,
    area: &BBox,
    elements: &[ElementRef],
    cfg: &ClusterConfig,
    scratch: &mut ClusterScratch,
) -> Vec<Vec<ElementRef>> {
    let n = elements.len();
    if n < 2 {
        return vec![elements.to_vec()];
    }
    let max_h = elements
        .iter()
        .map(|r| doc.bbox_of(*r).h)
        .fold(0.0, f64::max);
    let ClusterScratch {
        feats,
        table,
        seeds,
        members,
        medoid_sums,
        assign,
        parts: pool,
    } = scratch;
    feats.clear();
    feats.extend(elements.iter().map(|r| features_of(doc, area, *r, max_h)));
    fill_table(table, feats, cfg);
    let dist = Distances { feats, table, cfg };

    // 2×2 grid seeding: the medoid of each occupied quadrant.
    seeds.clear();
    for qy in 0..2 {
        for qx in 0..2 {
            members.clear();
            members.extend((0..n).filter(|&i| {
                let c = feats[i].centroid;
                (c.x >= qx as f64 * 0.5 && c.x < (qx + 1) as f64 * 0.5 || (qx == 1 && c.x == 1.0))
                    && (c.y >= qy as f64 * 0.5 && c.y < (qy + 1) as f64 * 0.5
                        || (qy == 1 && c.y == 1.0))
            }));
            if members.is_empty() {
                continue;
            }
            // Medoid: minimum average distance to the rest of the cell
            // (the first minimum, as `min_by` keeps it).
            medoid_sums.clear();
            medoid_sums.extend(
                members
                    .iter()
                    .map(|&a| members.iter().map(|&m| dist.d(a, m)).sum::<f64>()),
            );
            let (medoid, _) = members
                .iter()
                .zip(medoid_sums.iter())
                .min_by(|(_, da), (_, db)| da.total_cmp(db))
                .unwrap();
            seeds.push(*medoid);
        }
    }
    if seeds.len() < 2 {
        return vec![elements.to_vec()];
    }
    let k_count = seeds.len();

    // Iterative reassignment to the nearest cluster (by average distance
    // to members) until stable.
    assign.clear();
    assign.extend((0..n).map(|i| {
        seeds
            .iter()
            .enumerate()
            .min_by(|(_, &a), (_, &b)| dist.d(i, a).total_cmp(&dist.d(i, b)))
            .map(|(k, _)| k)
            .unwrap()
    }));

    for _ in 0..cfg.max_iters {
        let mut changed = false;
        for i in 0..n {
            // Every cluster's distance sum in one pass over `j`; each sum
            // still runs in index order, so the floats are bit-identical
            // to summing one cluster at a time.
            let mut sums = [0.0f64; MAX_CLUSTERS];
            let mut counts = [0usize; MAX_CLUSTERS];
            for j in (0..n).filter(|&j| j != i) {
                let k = assign[j];
                sums[k] += dist.d(i, j);
                counts[k] += 1;
            }
            let mut best = assign[i];
            let mut best_d = f64::INFINITY;
            for k in 0..k_count {
                if counts[k] == 0 {
                    continue;
                }
                let d = sums[k] / counts[k] as f64;
                if d < best_d {
                    best_d = d;
                    best = k;
                }
            }
            if best != assign[i] {
                assign[i] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Partition by assignment into pooled index lists; only the returned
    // element lists below allocate.
    while pool.len() < k_count {
        pool.push(Vec::new());
    }
    for p in pool.iter_mut() {
        p.clear();
    }
    for (i, &k) in assign.iter().enumerate() {
        pool[k].push(i);
    }
    // Compact non-empty parts to the front, preserving order — the
    // pooled analogue of `retain(|p| !p.is_empty())`.
    let mut live = 0usize;
    for k in 0..k_count {
        if !pool[k].is_empty() {
            pool.swap(live, k);
            live += 1;
        }
    }

    // Collapse clusters that are not meaningfully separated: a visually
    // homogeneous area must stay one block, not four grid shards. Average
    // intra-cluster spread vs average inter-cluster (linkage) distance.
    let intra = |p: &[usize]| -> f64 {
        if p.len() < 2 {
            return 0.0;
        }
        let mut sum = 0.0;
        let mut n = 0usize;
        for (ai, &a) in p.iter().enumerate() {
            for &b in &p[ai + 1..] {
                sum += dist.d(a, b);
                n += 1;
            }
        }
        sum / n as f64
    };
    let inter = |p: &[usize], q: &[usize]| -> f64 {
        let mut sum = 0.0;
        for &a in p {
            for &b in q {
                sum += dist.d(a, b);
            }
        }
        sum / (p.len() * q.len()) as f64
    };
    let summarize = |p: &[usize]| -> PartSummary {
        // Spatial adjacency: two clusters whose bounding boxes (nearly)
        // touch are not visually separated, whatever the feature ratio
        // says — a continuous line of text must never shatter by position
        // alone. Same left fold as `BBox::enclosing`, without the collect.
        let mut boxes = p.iter().map(|&i| doc.bbox_of(elements[i]));
        let bbox = match boxes.next() {
            Some(first) => boxes.fold(first, |acc, b| acc.union(&b)),
            None => BBox::default(),
        };
        // The font scale for the adjacency test: the tallest element. A
        // pair combines its two by MIN — a gap next to a headline still
        // reads against the smaller neighbouring text, and a huge font
        // must not swallow its neighbours.
        let font = p
            .iter()
            .map(|&i| doc.bbox_of(elements[i]).h)
            .fold(0.0, f64::max);
        PartSummary {
            intra: intra(p),
            bbox,
            font,
        }
    };
    // Per-cluster summaries and per-pair linkage (`links[i][j]` for
    // `i < j`), kept slot-aligned with `pool`: a merge recomputes only
    // the entries of the absorbing cluster. Each is recomputed from its
    // member lists, never updated incrementally, so its summation order
    // is the one a fresh computation would use.
    let mut summary = [PartSummary::default(); MAX_CLUSTERS];
    let mut links = [[0.0f64; MAX_CLUSTERS]; MAX_CLUSTERS];
    for i in 0..live {
        summary[i] = summarize(&pool[i]);
        for j in i + 1..live {
            links[i][j] = inter(&pool[i], &pool[j]);
        }
    }
    loop {
        let mut best: Option<(usize, usize)> = None;
        let mut best_ratio = cfg.collapse_factor;
        for i in 0..live {
            for j in i + 1..live {
                let (si, sj) = (&summary[i], &summary[j]);
                let spread = si.intra.max(sj.intra).max(1e-3);
                let mut ratio = links[i][j] / spread;
                let gap = si.bbox.distance(&sj.bbox);
                let font = si.font.min(sj.font).max(1e-9);
                if gap / font < 0.7 {
                    ratio = 0.0; // adjacent — always collapse
                }
                if ratio < best_ratio {
                    best_ratio = ratio;
                    best = Some((i, j));
                }
            }
        }
        match best {
            Some((i, j)) => {
                // Merge j into i, then close the gap — the pooled,
                // order-preserving analogue of `remove(j)` + `extend`
                // (the emptied list rotates past the live region and
                // keeps its capacity for the next call). The caches
                // rotate with the pool.
                let (head, tail) = pool.split_at_mut(j);
                head[i].extend_from_slice(&tail[0]);
                tail[0].clear();
                pool[j..live].rotate_left(1);
                summary[j..live].rotate_left(1);
                links[j..live].rotate_left(1);
                for row in &mut links[..live] {
                    row[j..live].rotate_left(1);
                }
                live -= 1;
                summary[i] = summarize(&pool[i]);
                for x in 0..i {
                    links[x][i] = inter(&pool[x], &pool[i]);
                }
                for x in i + 1..live {
                    links[i][x] = inter(&pool[i], &pool[x]);
                }
            }
            None => break,
        }
    }

    pool[..live]
        .iter()
        .map(|p| p.iter().map(|&i| elements[i]).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use vs2_docmodel::TextElement;

    thread_local! {
        /// [`feature_distance`] evaluations on this thread.
        pub(super) static DISTANCE_CALLS: Cell<u64> = const { Cell::new(0) };
    }

    fn doc_with(words: &[(&str, f64, f64, f64)]) -> (Document, Vec<ElementRef>) {
        let mut d = Document::new("c", 100.0, 100.0);
        let mut refs = Vec::new();
        for (w, x, y, h) in words {
            refs.push(d.push_text(TextElement::word(*w, BBox::new(*x, *y, 20.0, *h))));
        }
        (d, refs)
    }

    #[test]
    fn spatially_separate_corners_split() {
        let (doc, refs) = doc_with(&[
            ("a", 5.0, 5.0, 10.0),
            ("b", 10.0, 8.0, 10.0),
            ("c", 80.0, 85.0, 10.0),
            ("d", 85.0, 80.0, 10.0),
        ]);
        let parts = cluster(&doc, &doc.page_bbox(), &refs, &ClusterConfig::default());
        assert_eq!(parts.len(), 2, "{parts:?}");
        assert_eq!(parts[0].len() + parts[1].len(), 4);
    }

    #[test]
    fn single_element_is_one_cluster() {
        let (doc, refs) = doc_with(&[("a", 5.0, 5.0, 10.0)]);
        let parts = cluster(&doc, &doc.page_bbox(), &refs, &ClusterConfig::default());
        assert_eq!(parts.len(), 1);
    }

    #[test]
    fn tight_cluster_stays_together() {
        let (doc, refs) = doc_with(&[
            ("a", 40.0, 40.0, 10.0),
            ("b", 45.0, 41.0, 10.0),
            ("c", 50.0, 42.0, 10.0),
        ]);
        let parts = cluster(&doc, &doc.page_bbox(), &refs, &ClusterConfig::default());
        // All in one quadrant-ish area — the partition must not scatter
        // them into three singletons.
        assert!(parts.len() <= 2, "{parts:?}");
        let largest = parts.iter().map(|p| p.len()).max().unwrap();
        assert!(largest >= 2);
    }

    #[test]
    fn font_size_contrast_contributes() {
        let cfg = ClusterConfig::default();
        let a = VisualFeatures {
            centroid: Point::new(0.5, 0.5),
            height: 1.0,
            color: Lab::default(),
            angular: 0.5,
        };
        let mut b = a;
        b.height = 0.2;
        assert!(feature_distance(&a, &b, &cfg) > 0.0);
        assert_eq!(feature_distance(&a, &a, &cfg), cfg.w_sum_angular * 1.0);
    }

    #[test]
    fn partition_preserves_all_elements() {
        let (doc, refs) = doc_with(&[
            ("a", 5.0, 5.0, 8.0),
            ("b", 90.0, 5.0, 24.0),
            ("c", 5.0, 90.0, 8.0),
            ("d", 90.0, 90.0, 24.0),
            ("e", 50.0, 50.0, 12.0),
        ]);
        let parts = cluster(&doc, &doc.page_bbox(), &refs, &ClusterConfig::default());
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, refs.len());
        let mut seen: Vec<ElementRef> = parts.concat();
        seen.sort();
        let mut expected = refs.clone();
        expected.sort();
        assert_eq!(seen, expected);
    }

    #[test]
    fn deterministic() {
        let (doc, refs) = doc_with(&[
            ("a", 5.0, 5.0, 10.0),
            ("b", 80.0, 80.0, 10.0),
            ("c", 20.0, 15.0, 10.0),
        ]);
        let p1 = cluster(&doc, &doc.page_bbox(), &refs, &ClusterConfig::default());
        let p2 = cluster(&doc, &doc.page_bbox(), &refs, &ClusterConfig::default());
        assert_eq!(p1, p2);
    }

    /// A `cols × rows` grid of words with varied heights, all text.
    fn grid_doc(cols: usize, rows: usize) -> (Document, Vec<ElementRef>) {
        let mut d = Document::new("g", 1000.0, 1000.0);
        let mut refs = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let h = 8.0 + ((r * 7 + c * 3) % 5) as f64;
                let b = BBox::new(10.0 + c as f64 * 45.0, 10.0 + r as f64 * 30.0, 40.0, h);
                refs.push(d.push_text(TextElement::word("w", b)));
            }
        }
        (d, refs)
    }

    /// Distance evaluations of one cluster call over the grid.
    fn calls_for(cols: usize, rows: usize) -> (u64, usize) {
        let (doc, refs) = grid_doc(cols, rows);
        DISTANCE_CALLS.with(|c| c.set(0));
        let parts = cluster(&doc, &doc.page_bbox(), &refs, &ClusterConfig::default());
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), refs.len());
        (DISTANCE_CALLS.with(Cell::get), refs.len())
    }

    #[test]
    fn one_cluster_call_evaluates_each_pair_once() {
        // n and 2n, both under the table bound: exactly n(n+1)/2
        // evaluations, whatever the number of reassignment passes and
        // collapse rounds.
        for (cols, rows) in [(6, 4), (6, 8), (12, 20), (12, 40)] {
            let (calls, n) = calls_for(cols, rows);
            assert!(n <= DISTANCE_TABLE_MAX_N);
            assert_eq!(calls, (n * (n + 1) / 2) as u64, "n = {n}");
        }
    }

    #[test]
    fn table_and_on_demand_distances_agree() {
        // Both orientations of every table entry equal the on-demand
        // distance bit for bit; a non-finite feature leaves the table
        // empty, so that area computes on demand.
        let (doc, refs) = grid_doc(5, 6);
        let cfg = ClusterConfig::default();
        let mut feats: Vec<VisualFeatures> = refs
            .iter()
            .map(|r| features_of(&doc, &doc.page_bbox(), *r, 12.0))
            .collect();
        let mut table = Vec::new();
        fill_table(&mut table, &feats, &cfg);
        assert_eq!(table.len(), feats.len() * feats.len());
        let on_demand = Distances {
            feats: &feats,
            table: &[],
            cfg: &cfg,
        };
        let tabulated = Distances {
            feats: &feats,
            table: &table,
            cfg: &cfg,
        };
        for a in 0..feats.len() {
            for b in 0..feats.len() {
                assert_eq!(
                    tabulated.d(a, b).to_bits(),
                    on_demand.d(a, b).to_bits(),
                    "d({a}, {b})"
                );
            }
        }
        feats[0].color.l = f64::INFINITY;
        fill_table(&mut table, &feats, &cfg);
        assert!(table.is_empty(), "non-finite features are not tabulated");
    }
}
