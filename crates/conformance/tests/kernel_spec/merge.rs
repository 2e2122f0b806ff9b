//! Eq. 1 semantic merging (`segment::fast::semantic_merge_fast`) as it
//! stood before the per-call element-embedding column, copied verbatim
//! with the private `node_embedding` and the since-removed
//! `LayoutTree::same_level_into` it called (as a free function): one
//! node embedding per live node per sweep, recomputed from the node's
//! words, and every cosine from scratch. The naive `segment::merge::semantic_merge` is a
//! second oracle for the same decisions; this copy pins the fast path's
//! own cache and tie handling.

use vs2_core::segment::merge::{theta, visually_separated, MergeConfig};
use vs2_docmodel::{Document, ElementRef, LayoutTree, NodeId};
use vs2_nlp::embedding::{cosine, Embedder, Vector};

/// Embedding of a node: the normalised mean of its words' vectors.
fn node_embedding<E: Embedder>(doc: &Document, elements: &[ElementRef], embedder: &E) -> Vector {
    let words: Vec<&str> = elements.iter().filter_map(|r| doc.text_of(*r)).collect();
    embedder.embed_text(words)
}

/// Live nodes at the same depth as `id`, excluding `id` itself, into
/// `out` (cleared first).
fn same_level_into(tree: &LayoutTree, id: NodeId, out: &mut Vec<NodeId>) {
    let d = tree.depth(id);
    out.clear();
    out.extend(tree.live_ids().filter(|n| *n != id && tree.depth(*n) == d));
}

/// Returns the cached embedding of `id`, computing and storing it on the
/// first request since the node's elements last changed.
fn cached_embedding<E: Embedder>(
    cache: &mut Vec<Option<Vector>>,
    doc: &Document,
    tree: &LayoutTree,
    embedder: &E,
    id: NodeId,
) -> Vector {
    if cache.len() <= id.0 {
        cache.resize(id.0 + 1, None);
    }
    if let Some(v) = cache[id.0] {
        return v;
    }
    let v = node_embedding(doc, &tree.node(id).elements, embedder);
    cache[id.0] = Some(v);
    v
}

/// Semantic merging with an arena-indexed embedding cache. The decision
/// sequence — sweep structure, parent/child iteration order, Eq. 1
/// scores, tie-breaks and separation guards — is byte-for-byte the one
/// in [`semantic_merge`](crate::segment::merge::semantic_merge); only the
/// redundant per-comparison embedding recomputation is gone. Returns the
/// number of merges performed.
pub fn semantic_merge_fast<E: Embedder>(
    doc: &Document,
    tree: &mut LayoutTree,
    embedder: &E,
    cfg: &MergeConfig,
) -> usize {
    let mut cache: Vec<Option<Vector>> = Vec::new();
    let mut merges = 0;
    // Sweep-scoped scratch, reused across all sweeps. Each buffer is
    // cleared and refilled in the same order the per-sweep collects
    // produced, so every sum and comparison sees identical sequences.
    let mut parents: Vec<NodeId> = Vec::new();
    let mut children: Vec<NodeId> = Vec::new();
    let mut embeddings: Vec<Vector> = Vec::new();
    let mut same_level: Vec<NodeId> = Vec::new();
    let mut sibling_sims: Vec<f64> = Vec::new();
    let mut non_sibling_sims: Vec<f64> = Vec::new();
    for _ in 0..cfg.max_sweeps {
        let h = tree.height();
        let threshold = theta(cfg, h);
        let mut merged_this_sweep = false;

        {
            // Pre-fill the cache for every live node; embeddings are pure
            // in the element list, so extra fills cannot change decisions.
            let _embed_span = vs2_obs::span(vs2_obs::stages::FAST_EMBED);
            for id in tree.live_ids() {
                cached_embedding(&mut cache, doc, tree, embedder, id);
            }
        }

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
            if children.len() < 2 {
                continue;
            }
            embeddings.clear();
            for &child in &children {
                let e = cached_embedding(&mut cache, doc, tree, embedder, child);
                embeddings.push(e);
            }
            for (ci, &c) in children.iter().enumerate() {
                same_level_into(tree, c, &mut same_level);
                sibling_sims.clear();
                sibling_sims.extend(
                    (0..children.len())
                        .filter(|&j| j != ci)
                        .map(|j| cosine(&embeddings[ci], &embeddings[j])),
                );
                non_sibling_sims.clear();
                for &n in &same_level {
                    if children.contains(&n) {
                        continue;
                    }
                    let e = cached_embedding(&mut cache, doc, tree, embedder, n);
                    non_sibling_sims.push(cosine(&embeddings[ci], &e));
                }
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
                // The absorbing node's element list changed; the absorbed
                // node is dead and never consulted again.
                cache[c.0] = None;
                cache[b.0] = None;
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
