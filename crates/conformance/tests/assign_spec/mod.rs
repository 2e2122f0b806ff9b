//! The joint assignment as it stood before it went positional: the
//! `String`-keyed regret greedy of `vs2_core::pipeline::assign`, copied
//! verbatim. The `assign_equiv` battery holds the production assignment
//! to this copy byte for byte. Test-only: nothing outside that battery
//! links it.

use std::collections::BTreeMap;
use vs2_core::Extraction;

/// Greedy joint assignment of candidates to entities: the globally
/// best-scoring (entity, candidate) pairs claim their blocks one-to-one,
/// so two entities never extract from the same logical block while an
/// alternative exists. Entities whose candidates are all claimed fall
/// back to their best candidate.
pub fn assign(candidates: BTreeMap<String, Vec<Extraction>>) -> Vec<Extraction> {
    let _assign_span = vs2_obs::span(vs2_obs::stages::ASSIGN);
    let block_key = |e: &Extraction| -> (i64, i64, i64, i64) {
        (
            (e.block_bbox.x * 8.0) as i64,
            (e.block_bbox.y * 8.0) as i64,
            (e.block_bbox.w * 8.0) as i64,
            (e.block_bbox.h * 8.0) as i64,
        )
    };
    let mut claimed: std::collections::BTreeSet<(i64, i64, i64, i64)> =
        std::collections::BTreeSet::new();
    let mut unassigned: Vec<&String> = candidates.keys().collect();
    let mut chosen: BTreeMap<String, Extraction> = BTreeMap::new();

    // Regret-based greedy: at each round, the entity that would lose the
    // most by not getting its current best unclaimed candidate (the gap
    // to its second choice) assigns first.
    while !unassigned.is_empty() {
        let mut best_pick: Option<(f64, usize, &Extraction)> = None; // (regret, pos, cand)
        for (pos, entity) in unassigned.iter().enumerate() {
            let mut free = candidates[*entity]
                .iter()
                .filter(|c| !claimed.contains(&block_key(c)));
            let Some(first) = free.next() else { continue };
            let regret = free
                .next()
                .map(|second| second.score - first.score)
                .unwrap_or(f64::INFINITY);
            let better = match &best_pick {
                None => true,
                Some((r, _, _)) => regret > *r,
            };
            if better {
                best_pick = Some((regret, pos, first));
            }
        }
        match best_pick {
            Some((_, pos, cand)) => {
                claimed.insert(block_key(cand));
                let entity = unassigned.remove(pos);
                chosen.insert(entity.clone(), cand.clone());
            }
            None => break, // remaining entities have no free candidates
        }
    }
    // Fallback: an entity whose candidates were all claimed still emits
    // its best candidate.
    for (entity, cands) in &candidates {
        if !chosen.contains_key(entity) {
            if let Some(best) = cands.first() {
                chosen.insert(entity.clone(), best.clone());
            }
        }
    }
    chosen.into_values().collect()
}
