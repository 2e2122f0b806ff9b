//! The segmentation kernels as they stood before the per-area distance
//! table and one-pass delimiter scoring: Table 1 clustering
//! (`segment::cluster`) and Algorithm 1 run scoring
//! (`segment::delimiter::score_runs_geom_into`), copied verbatim. Both
//! the fast and the naive segmenter call the production kernels, so the
//! two-path battery (`segment_equiv`) cannot see a change to them; the
//! `segment_kernels` battery holds the production kernels to this copy
//! bit for bit instead. Test-only: nothing outside that battery links it.
//!
//! [`merge`] holds the fast path's Eq. 1 merge as it stood before the
//! per-call embedding column, for the same battery.

pub mod merge;

use std::cell::RefCell;

use vs2_core::segment::cluster::{ClusterConfig, VisualFeatures};
use vs2_core::segment::delimiter::{run_strip_geom, ScoredRun};
use vs2_core::segment::CutRun;
use vs2_docmodel::{BBox, Document, ElementRef, Point};

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

/// Reused working buffers of one thread's cluster calls — cleared and
/// refilled identically on every call, so reuse cannot change decisions.
#[derive(Default)]
struct ClusterScratch {
    feats: Vec<VisualFeatures>,
    seeds: Vec<usize>,
    members: Vec<usize>,
    assign: Vec<usize>,
    parts: Vec<Vec<usize>>,
}

thread_local! {
    static CLUSTER_SCRATCH: RefCell<ClusterScratch> = RefCell::new(ClusterScratch::default());
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

/// The text-only clustering core, over caller-owned scratch.
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
    let feats = &mut scratch.feats;
    feats.clear();
    feats.extend(elements.iter().map(|r| features_of(doc, area, *r, max_h)));
    let feats: &[VisualFeatures] = feats;

    // 2×2 grid seeding: the medoid of each occupied quadrant.
    let seeds = &mut scratch.seeds;
    seeds.clear();
    let members = &mut scratch.members;
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
            // Medoid: minimum average distance to the rest of the cell.
            let medoid = *members
                .iter()
                .min_by(|&&a, &&b| {
                    let da: f64 = members
                        .iter()
                        .map(|&m| feature_distance(&feats[a], &feats[m], cfg))
                        .sum();
                    let db: f64 = members
                        .iter()
                        .map(|&m| feature_distance(&feats[b], &feats[m], cfg))
                        .sum();
                    da.total_cmp(&db)
                })
                .unwrap();
            seeds.push(medoid);
        }
    }
    if seeds.len() < 2 {
        return vec![elements.to_vec()];
    }

    // Iterative reassignment to the nearest cluster (by average distance
    // to members) until stable.
    let assign = &mut scratch.assign;
    assign.clear();
    assign.extend((0..n).map(|i| {
        seeds
            .iter()
            .enumerate()
            .min_by(|(_, &a), (_, &b)| {
                feature_distance(&feats[i], &feats[a], cfg)
                    .total_cmp(&feature_distance(&feats[i], &feats[b], cfg))
            })
            .map(|(k, _)| k)
            .unwrap()
    }));

    for _ in 0..cfg.max_iters {
        let mut changed = false;
        for i in 0..n {
            let mut best = assign[i];
            let mut best_d = f64::INFINITY;
            for k in 0..seeds.len() {
                // Average distance to cluster k's members, streamed in
                // index order (same summation order as the collected
                // form, so the floats are bit-identical).
                let mut sum = 0.0;
                let mut count = 0usize;
                for j in (0..n).filter(|&j| assign[j] == k && j != i) {
                    sum += feature_distance(&feats[i], &feats[j], cfg);
                    count += 1;
                }
                if count == 0 {
                    continue;
                }
                let d = sum / count as f64;
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
    let pool = &mut scratch.parts;
    while pool.len() < seeds.len() {
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
    for k in 0..seeds.len() {
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
                sum += feature_distance(&feats[a], &feats[b], cfg);
                n += 1;
            }
        }
        sum / n as f64
    };
    let inter = |p: &[usize], q: &[usize]| -> f64 {
        let mut sum = 0.0;
        for &a in p {
            for &b in q {
                sum += feature_distance(&feats[a], &feats[b], cfg);
            }
        }
        sum / (p.len() * q.len()) as f64
    };
    // Spatial adjacency: two clusters whose bounding boxes (nearly) touch
    // are not visually separated, whatever the feature ratio says — a
    // continuous line of text must never shatter by position alone.
    let part_bbox = |p: &[usize]| -> BBox {
        // Same left fold as `BBox::enclosing`, without the collect.
        let mut it = p.iter().map(|&i| doc.bbox_of(elements[i]));
        match it.next() {
            Some(first) => it.fold(first, |acc, b| acc.union(&b)),
            None => BBox::default(),
        }
    };
    // The font scale of a cluster pair for the adjacency test: each
    // cluster's tallest *text* element (an image's extent is not a font
    // size), combined by MIN — a gap next to a headline still reads
    // against the smaller neighbouring text, and a huge font must not
    // swallow its neighbours.
    let cluster_font = |p: &[usize]| -> f64 {
        let text_max = p
            .iter()
            .filter(|&&i| elements[i].is_text())
            .map(|&i| doc.bbox_of(elements[i]).h)
            .fold(0.0, f64::max);
        if text_max > 0.0 {
            text_max
        } else {
            p.iter()
                .map(|&i| doc.bbox_of(elements[i]).h)
                .fold(0.0, f64::max)
        }
    };
    let pair_font = |p: &[usize], q: &[usize]| -> f64 { cluster_font(p).min(cluster_font(q)) };
    loop {
        let mut best: Option<(usize, usize)> = None;
        let mut best_ratio = cfg.collapse_factor;
        for i in 0..live {
            for j in i + 1..live {
                let spread = intra(&pool[i]).max(intra(&pool[j])).max(1e-3);
                let mut ratio = inter(&pool[i], &pool[j]) / spread;
                let gap = part_bbox(&pool[i]).distance(&part_bbox(&pool[j]));
                let font = pair_font(&pool[i], &pool[j]).max(1e-9);
                let has_text = |p: &[usize]| p.iter().any(|&k| elements[k].is_text());
                let (ti, tj) = (has_text(&pool[i]), has_text(&pool[j]));
                if ti != tj {
                    // An image is its own visual unit; it never joins a
                    // text cluster, however close or similar.
                    continue;
                }
                if gap / font < 0.7 && ti && tj {
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
                // keeps its capacity for the next call).
                let (head, tail) = pool.split_at_mut(j);
                head[i].extend_from_slice(&tail[0]);
                tail[0].clear();
                pool[j..live].rotate_left(1);
                live -= 1;
            }
            None => break,
        }
    }

    pool[..live]
        .iter()
        .map(|p| p.iter().map(|&i| elements[i]).collect())
        .collect()
}

/// [`score_runs_geom`] appending into a caller-owned buffer — the fast
/// path reuses one scored-run buffer across the whole recursion. Pushes
/// the same values in the same order as the allocating form.
#[allow(clippy::too_many_arguments)]
pub fn score_runs_geom_into(
    runs: &[CutRun],
    origin: Point,
    cell: f64,
    area: &BBox,
    all_boxes: &[BBox],
    text_boxes: &[BBox],
    out: &mut Vec<ScoredRun>,
) {
    let text_boxes = if text_boxes.is_empty() {
        all_boxes
    } else {
        text_boxes
    };
    let max_h = text_boxes.iter().map(|b| b.h).fold(0.0, f64::max).max(1e-9);
    out.extend(runs.iter().map(|run| {
        let strip = run_strip_geom(run, origin, cell, area);
        // Neighbouring bounding box: minimum distance from the strip.
        let neighbor_height = text_boxes
            .iter()
            .min_by(|a, b| strip.distance(a).total_cmp(&strip.distance(b)))
            .map(|b| b.h)
            .unwrap_or(max_h);
        // True gap: distance between the closest content on either
        // side of the strip centre. Falls back to the run extent for
        // offset layouts where the sides overlap.
        let center = strip.centroid();
        let gap = if run.horizontal {
            let above = all_boxes
                .iter()
                .filter(|b| b.centroid().y < center.y)
                .map(|b| b.bottom())
                .fold(f64::NEG_INFINITY, f64::max);
            let below = all_boxes
                .iter()
                .filter(|b| b.centroid().y > center.y)
                .map(|b| b.y)
                .fold(f64::INFINITY, f64::min);
            below - above
        } else {
            let left = all_boxes
                .iter()
                .filter(|b| b.centroid().x < center.x)
                .map(|b| b.right())
                .fold(f64::NEG_INFINITY, f64::max);
            let right = all_boxes
                .iter()
                .filter(|b| b.centroid().x > center.x)
                .map(|b| b.x)
                .fold(f64::INFINITY, f64::min);
            right - left
        };
        let gap = if gap.is_finite() && gap > 0.0 {
            gap
        } else {
            run.len as f64 * cell
        };
        ScoredRun {
            run: *run,
            gap,
            neighbor_height: neighbor_height.max(1e-9),
            width: gap / neighbor_height.max(1e-9),
        }
    }));
}
