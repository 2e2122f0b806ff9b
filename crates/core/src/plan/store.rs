//! The bounded plan store and the cache-aware segmentation entry point.
//!
//! [`PlanStore`] maps [`LayoutFingerprint`]s to cached
//! [`SegmentationPlan`]s — at most [`PLAN_STORE_CAPACITY`] of them, with
//! LRU eviction — and keeps hit/miss/reject counters. [`planned_blocks`]
//! is the drop-in replacement for [`crate::segment::logical_blocks`]
//! used by the serving layer when the plan cache is enabled: skew gate →
//! fingerprint → lookup → validate → replay, falling back to full
//! segmentation (and capturing a new plan) on any miss or rejection.
//! Each document's skew verdict and fingerprint are derived once (or
//! taken from the triage router) and handed on, never recomputed.
//!
//! ## Cache-consistency invariants
//!
//! * **First plan wins.** A validation reject never replaces the cached
//!   plan — an adversarial near-miss template that collides with a
//!   family's fingerprint cannot evict or poison the family's plan by
//!   merely arriving (it falls back to full segmentation instead).
//! * **Self-validation before insert.** A freshly captured plan is
//!   cached only if validating and replaying it against its *own*
//!   source document reproduces the full-segmentation partition
//!   exactly. Documents whose geometry defeats the validator (e.g.
//!   overlapping blocks) are simply never cached.
//! * **Skew bypass.** When the skew gate
//!   ([`crate::segment::skew_to_correct`]) returns an angle, the plan
//!   path is bypassed entirely: rotation-corrected analysis is inherently
//!   content-dependent, so such documents always take the full path.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::segment::{self, LogicalBlock, SegmentConfig};
use vs2_docmodel::Document;

use super::fingerprint::LayoutFingerprint;
use super::replay::{PlanConfig, SegmentationPlan, ValidationReject};

/// Maximum number of plans a [`PlanStore`] holds; the least recently
/// used plan is evicted on overflow.
pub const PLAN_STORE_CAPACITY: usize = 256;

/// Counter snapshot of a [`PlanStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCounters {
    /// Lookups that validated and replayed a cached plan.
    pub hits: u64,
    /// Lookups with no plan under the fingerprint.
    pub misses: u64,
    /// Lookups whose cached plan failed validation (full fallback).
    pub validation_rejects: u64,
    /// Plans admitted into the store.
    pub inserts: u64,
    /// Plans evicted by the LRU bound.
    pub evictions: u64,
    /// Documents that bypassed the plan path (page skew).
    pub bypasses: u64,
    /// Captured plans refused at insert (failed self-validation).
    pub uncacheable: u64,
}

impl PlanCounters {
    /// Accumulates `other` into `self`, field by field — used to
    /// aggregate counters across plan namespaces.
    pub fn add(&mut self, other: &PlanCounters) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.validation_rejects += other.validation_rejects;
        self.inserts += other.inserts;
        self.evictions += other.evictions;
        self.bypasses += other.bypasses;
        self.uncacheable += other.uncacheable;
    }
}

/// How [`planned_blocks`] produced its blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanOutcome {
    /// A cached plan validated and was replayed — no segmentation ran.
    Replayed,
    /// No plan was cached; full segmentation ran. `inserted` tells
    /// whether the captured plan passed self-validation and was cached.
    Miss {
        /// `true` when the capture was admitted into the store.
        inserted: bool,
    },
    /// A cached plan failed validation; full segmentation ran and the
    /// cached plan was left untouched.
    Rejected(ValidationReject),
    /// The plan path was skipped (estimated skew at or above
    /// [`crate::segment::SKEW_EPSILON`] with deskew enabled).
    Bypassed,
}

struct Slot {
    plan: Arc<SegmentationPlan>,
    last_used: u64,
}

struct Inner {
    slots: HashMap<LayoutFingerprint, Slot>,
    clock: u64,
}

/// Bounded, thread-safe fingerprint → plan cache with LRU eviction.
pub struct PlanStore {
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    validation_rejects: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    bypasses: AtomicU64,
    uncacheable: AtomicU64,
}

impl Default for PlanStore {
    fn default() -> Self {
        Self {
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                clock: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            validation_rejects: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
            uncacheable: AtomicU64::new(0),
        }
    }
}

impl PlanStore {
    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("plan store lock").slots.len()
    }

    /// `true` when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up the plan under `fp`, refreshing its LRU stamp.
    /// Does not touch the hit/miss counters — [`planned_blocks`] counts
    /// outcomes, not raw probes.
    pub fn lookup(&self, fp: &LayoutFingerprint) -> Option<Arc<SegmentationPlan>> {
        let mut inner = self.inner.lock().expect("plan store lock");
        inner.clock += 1;
        let now = inner.clock;
        inner.slots.get_mut(fp).map(|slot| {
            slot.last_used = now;
            Arc::clone(&slot.plan)
        })
    }

    /// Inserts a plan under `fp`, evicting the least recently used
    /// entry on overflow. Existing entries are never replaced (first
    /// plan wins); returns `false` when the insert was skipped.
    pub fn insert(&self, fp: LayoutFingerprint, plan: Arc<SegmentationPlan>) -> bool {
        let mut inner = self.inner.lock().expect("plan store lock");
        if inner.slots.contains_key(&fp) {
            return false;
        }
        if inner.slots.len() >= PLAN_STORE_CAPACITY {
            // O(n) victim scan: capacities are small (hundreds) and
            // inserts only happen on cache misses that already paid for
            // a full segmentation run.
            if let Some(victim) = inner
                .slots
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.slots.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.clock += 1;
        let now = inner.clock;
        inner.slots.insert(
            fp,
            Slot {
                plan,
                last_used: now,
            },
        );
        self.inserts.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Exports every cached plan, sorted by fingerprint digest — the
    /// drain/handoff serialization order. Counters and LRU stamps are
    /// left untouched.
    pub fn export(&self) -> Vec<(LayoutFingerprint, Arc<SegmentationPlan>)> {
        let inner = self.inner.lock().expect("plan store lock");
        let mut out: Vec<_> = inner
            .slots
            .iter()
            .map(|(fp, slot)| (fp.clone(), Arc::clone(&slot.plan)))
            .collect();
        out.sort_by_key(|(fp, _)| fp.digest());
        out
    }

    /// Preloads plans into an empty-or-warm store without touching the
    /// insert/eviction counters — warm-starting from a handoff snapshot
    /// must not masquerade as serving traffic. Existing fingerprints are
    /// never replaced (first plan wins) and loading stops at capacity.
    /// Returns the number of plans admitted.
    pub fn preload(
        &self,
        entries: impl IntoIterator<Item = (LayoutFingerprint, Arc<SegmentationPlan>)>,
    ) -> usize {
        let mut inner = self.inner.lock().expect("plan store lock");
        let mut admitted = 0;
        for (fp, plan) in entries {
            if inner.slots.len() >= PLAN_STORE_CAPACITY {
                break;
            }
            if inner.slots.contains_key(&fp) {
                continue;
            }
            inner.clock += 1;
            let now = inner.clock;
            inner.slots.insert(
                fp,
                Slot {
                    plan,
                    last_used: now,
                },
            );
            admitted += 1;
        }
        admitted
    }

    /// Counter snapshot.
    pub fn counters(&self) -> PlanCounters {
        PlanCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            validation_rejects: self.validation_rejects.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            uncacheable: self.uncacheable.load(Ordering::Relaxed),
        }
    }
}

/// Cache-aware segmentation: the plan-path equivalent of
/// [`crate::segment::logical_blocks`]. Returns the logical blocks plus
/// how they were produced. Emits the `vs2.plan.*` span family; the full
/// fallback path emits the usual `vs2.segment.*` spans unchanged.
pub fn planned_blocks(
    doc: &Document,
    seg: &SegmentConfig,
    cfg: &PlanConfig,
    store: &PlanStore,
) -> (Vec<LogicalBlock>, PlanOutcome) {
    planned_blocks_with(doc, seg, cfg, store, &vs2_nlp::LexiconEmbedding, None, None)
}

/// Cache-aware segmentation over a borrowed [`DocContext`]: identical
/// decision logic to [`planned_blocks`], but every full-segmentation
/// fallback (skew bypass, validation reject, cache miss) runs through
/// the context's memoizing embedder instead of re-deriving embeddings
/// per call. Replay and fingerprinting are embedding-free, so hit-path
/// behaviour is unchanged.
pub fn planned_blocks_ctx(
    ctx: &crate::context::DocContext<'_>,
    seg: &SegmentConfig,
    cfg: &PlanConfig,
    store: &PlanStore,
) -> (Vec<LogicalBlock>, PlanOutcome) {
    planned_blocks_with(ctx.doc(), seg, cfg, store, &ctx.embedder(), None, None)
}

/// The cache-aware segmentation body. `fingerprint` (on
/// `cfg.fingerprint`) and `skew` (a skew-gate angle) are what the caller
/// already derived; each is derived here, once, when absent.
pub(crate) fn planned_blocks_with<E: vs2_nlp::Embedder>(
    doc: &Document,
    seg: &SegmentConfig,
    cfg: &PlanConfig,
    store: &PlanStore,
    embedder: &E,
    fingerprint: Option<LayoutFingerprint>,
    skew: Option<f64>,
) -> (Vec<LogicalBlock>, PlanOutcome) {
    let fp = {
        let span = vs2_obs::span(vs2_obs::stages::PLAN_FINGERPRINT);
        if let Some(angle) = skew.or_else(|| segment::skew_to_correct(doc, seg)) {
            span.tag("bypass", 1);
            drop(span);
            store.bypasses.fetch_add(1, Ordering::Relaxed);
            let tree = segment::segmenter::segment_in_frame(doc, seg, embedder, || Some(angle));
            return (segment::blocks_of_tree(&tree), PlanOutcome::Bypassed);
        }
        let fp = fingerprint.unwrap_or_else(|| LayoutFingerprint::compute(doc, &cfg.fingerprint));
        span.tag("digest", fp.digest());
        fp
    };
    // Past the gate the page is analysed unrotated.
    let full = || segment::segmenter::segment_in_frame(doc, seg, embedder, || None);

    if let Some(plan) = store.lookup(&fp) {
        let validated = {
            let _span = vs2_obs::span(vs2_obs::stages::PLAN_VALIDATE);
            plan.validate(doc, cfg)
        };
        match validated {
            Ok(assignment) => {
                let blocks = {
                    let span = vs2_obs::span(vs2_obs::stages::PLAN_REPLAY);
                    span.tag("blocks", assignment.len() as u64);
                    plan.replay(doc, &assignment)
                };
                store.hits.fetch_add(1, Ordering::Relaxed);
                return (blocks, PlanOutcome::Replayed);
            }
            Err(reject) => {
                store.validation_rejects.fetch_add(1, Ordering::Relaxed);
                // First plan wins: the cached plan stays; this document
                // pays for full segmentation and is not captured (its
                // fingerprint slot is taken).
                return (
                    segment::blocks_of_tree(&full()),
                    PlanOutcome::Rejected(reject),
                );
            }
        }
    }

    store.misses.fetch_add(1, Ordering::Relaxed);
    let tree = full();
    let blocks = segment::blocks_of_tree(&tree);
    let plan = SegmentationPlan::capture(doc, &tree);
    let inserted = if self_replay_matches(&plan, doc, cfg, &blocks) {
        store.insert(fp, Arc::new(plan))
    } else {
        store.uncacheable.fetch_add(1, Ordering::Relaxed);
        false
    };
    (blocks, PlanOutcome::Miss { inserted })
}

/// Capture-time self-validation: the plan must validate against its own
/// source document and replay the exact partition the full run
/// produced — same leaf order, same element sets, same tight boxes.
fn self_replay_matches(
    plan: &SegmentationPlan,
    doc: &Document,
    cfg: &PlanConfig,
    blocks: &[LogicalBlock],
) -> bool {
    let Ok(assignment) = plan.validate(doc, cfg) else {
        return false;
    };
    let replayed = plan.replay(doc, &assignment);
    if replayed.len() != blocks.len() {
        return false;
    }
    replayed.iter().zip(blocks).all(|(r, b)| {
        let mut expected = b.elements.clone();
        expected.sort();
        r.bbox == b.bbox && r.elements == expected
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs2_docmodel::{BBox, TextElement};

    fn block_doc(id: &str, origin_y: f64) -> Document {
        let mut d = Document::new(id, 600.0, 800.0);
        for (bx, by) in [(60.0, origin_y), (60.0, origin_y + 300.0)] {
            for i in 0..3 {
                d.push_text(TextElement::word(
                    format!("w{i}"),
                    BBox::new(bx + i as f64 * 50.0, by, 40.0, 12.0),
                ));
            }
        }
        d
    }

    fn run(doc: &Document, store: &PlanStore) -> (Vec<LogicalBlock>, PlanOutcome) {
        planned_blocks(
            doc,
            &SegmentConfig::default(),
            &PlanConfig::default(),
            store,
        )
    }

    #[test]
    fn miss_then_hit_produces_identical_blocks() {
        let store = PlanStore::default();
        let doc = block_doc("a", 60.0);
        let (cold, o1) = run(&doc, &store);
        assert_eq!(o1, PlanOutcome::Miss { inserted: true });
        let (warm, o2) = run(&doc, &store);
        assert_eq!(o2, PlanOutcome::Replayed);
        assert_eq!(cold.len(), warm.len());
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.bbox, w.bbox);
            let mut ce = c.elements.clone();
            ce.sort();
            assert_eq!(ce, w.elements);
        }
        let counters = store.counters();
        assert_eq!(counters.misses, 1);
        assert_eq!(counters.hits, 1);
        assert_eq!(counters.inserts, 1);
    }

    #[test]
    fn different_layouts_do_not_share_plans() {
        let store = PlanStore::default();
        let (_, o1) = run(&block_doc("a", 60.0), &store);
        assert_eq!(o1, PlanOutcome::Miss { inserted: true });
        let (_, o2) = run(&block_doc("b", 200.0), &store);
        // Shifted layout → different fingerprint → its own plan.
        assert_eq!(o2, PlanOutcome::Miss { inserted: true });
        assert_eq!(store.len(), 2);
    }

    /// `n` plans under distinct synthetic fingerprints (they differ in
    /// the text count), each a capture of one small document.
    fn synthetic_entries(n: usize) -> Vec<(LayoutFingerprint, Arc<SegmentationPlan>)> {
        let doc = block_doc("s", 60.0);
        let tree = crate::segment::segment(&doc, &SegmentConfig::default());
        let plan = Arc::new(SegmentationPlan::capture(&doc, &tree));
        let base = LayoutFingerprint::compute(&doc, &PlanConfig::default().fingerprint);
        (0..n)
            .map(|i| {
                let fp = LayoutFingerprint {
                    n_texts: 1000 + i as u32,
                    ..base.clone()
                };
                (fp, Arc::clone(&plan))
            })
            .collect()
    }

    #[test]
    fn lru_eviction_order_is_pinned() {
        let store = PlanStore::default();
        let mut entries = synthetic_entries(PLAN_STORE_CAPACITY + 1);
        let (overflow_fp, overflow_plan) = entries.pop().unwrap();
        for (fp, plan) in &entries {
            assert!(store.insert(fp.clone(), Arc::clone(plan)));
        }
        // Refresh the oldest entry: the second one is now least recently
        // used and is the one the overflow insert evicts.
        assert!(store.lookup(&entries[0].0).is_some());
        assert!(store.insert(overflow_fp.clone(), overflow_plan));
        assert_eq!(store.counters().evictions, 1);
        assert_eq!(store.len(), PLAN_STORE_CAPACITY);
        assert!(store.lookup(&entries[0].0).is_some());
        assert!(store.lookup(&overflow_fp).is_some());
        assert!(store.lookup(&entries[1].0).is_none());
    }

    #[test]
    fn first_plan_wins_on_reject() {
        let store = PlanStore::default();
        let doc = block_doc("a", 60.0);
        run(&doc, &store);
        // Same fingerprint cell occupancy but one extra element →
        // ElementCount reject; the cached plan must survive.
        let mut collider = block_doc("a", 60.0);
        collider.push_text(TextElement::word("x", BBox::new(62.0, 62.0, 10.0, 10.0)));
        let (_, o) = run(&collider, &store);
        if let PlanOutcome::Rejected(_) = o {
            // Reject path: the original family still replays.
            assert_eq!(run(&doc, &store).1, PlanOutcome::Replayed);
        } else {
            // The extra element changed the fingerprint — also fine,
            // but the original plan must still be intact.
            assert_eq!(run(&doc, &store).1, PlanOutcome::Replayed);
        }
    }

    #[test]
    fn export_and_preload_round_trip_without_counter_noise() {
        let store = PlanStore::default();
        run(&block_doc("a", 60.0), &store);
        run(&block_doc("b", 200.0), &store);
        let exported = store.export();
        assert_eq!(exported.len(), 2);
        // Export order is pinned by digest.
        assert!(exported[0].0.digest() < exported[1].0.digest());

        let warm = PlanStore::default();
        assert_eq!(warm.preload(exported.clone()), 2);
        assert_eq!(warm.len(), 2);
        // Preload is invisible to the counters...
        assert_eq!(warm.counters(), PlanCounters::default());
        // ...but the plans replay as first-class cache hits.
        assert_eq!(run(&block_doc("a", 60.0), &warm).1, PlanOutcome::Replayed);
        assert_eq!(run(&block_doc("b", 200.0), &warm).1, PlanOutcome::Replayed);
        assert_eq!(warm.counters().hits, 2);
        assert_eq!(warm.counters().misses, 0);

        // First plan wins on preload too, and capacity bounds the load.
        assert_eq!(warm.preload(exported), 0);
        let full = PlanStore::default();
        let entries = synthetic_entries(PLAN_STORE_CAPACITY + 1);
        assert_eq!(full.preload(entries), PLAN_STORE_CAPACITY);
        assert_eq!(full.len(), PLAN_STORE_CAPACITY);
    }

    #[test]
    fn skewed_documents_bypass() {
        // A visibly rotated multi-line doc: lines with a consistent slope.
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
        assert!(crate::segment::skew_to_correct(&d, &SegmentConfig::default()).is_some());
        let store = PlanStore::default();
        let (_, o) = run(&d, &store);
        assert_eq!(o, PlanOutcome::Bypassed);
        assert!(store.is_empty());
        assert_eq!(store.counters().bypasses, 1);
    }
}
