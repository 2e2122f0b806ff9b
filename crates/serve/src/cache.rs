//! The shared two-level model + plan cache: learn a dataset's pattern
//! inventory once, share it read-only across every worker via `Arc`,
//! and hang a per-model segmentation-plan namespace off each slot.
//!
//! Pattern mining over the holdout corpus dominates cold-start cost; a
//! batch of ten thousand jobs against the same dataset must pay it once,
//! not ten thousand times. [`Vs2Model`] is immutable after learning and
//! `Send + Sync` (asserted at compile time in `vs2-core`), so workers
//! share it with no locking on the hot path — the cache's mutex guards
//! only the lookup table, and learning itself runs under a per-key
//! `OnceLock` so two workers missing on the same key learn once.
//!
//! The model owns its compiled select-stage matcher
//! ([`vs2_core::select::PatternIndex`], built inside `Vs2Model::learn`),
//! so caching the model caches the index too: the phrase trie and the
//! anchor-grouped window patterns are compiled exactly once per key and
//! shared read-only by every worker's pipeline.
//!
//! ## Two levels
//!
//! The outer level maps `(dataset, model seed, learn config)` to a
//! model slot; the inner level is each slot's [`PlanStore`] — the
//! segmentation-plan cache of `vs2_core::plan`, namespaced per model so
//! plans learned while serving one dataset/configuration can never be
//! replayed under another. The outer level is unbounded and never
//! evicts: a service fixes its model seed and configuration, so its jobs
//! address at most one slot per [`DatasetId`].
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use vs2_core::pipeline::{Vs2Config, Vs2Pipeline};
use vs2_core::plan::{PlanCounters, PlanStore};
use vs2_core::select::{Eq2Weights, LearnConfig};
use vs2_core::Vs2Model;
use vs2_synth::dataset::{holdout_corpus, DatasetId};

use crate::handoff::{PlanEntry, PlanNamespace};

/// Per-dataset Eq. 2 weights, following §5.3.2: visually ornate posters
/// weight the visual modality up.
pub fn weights_for(dataset: DatasetId) -> Eq2Weights {
    match dataset {
        DatasetId::D2 => Eq2Weights::visual_heavy(),
        _ => Eq2Weights::balanced(),
    }
}

/// The default serving configuration for a dataset: [`Vs2Config`]
/// defaults with the dataset's Eq. 2 weights.
pub fn default_config_for(dataset: DatasetId) -> Vs2Config {
    Vs2Config {
        weights: weights_for(dataset),
        ..Vs2Config::default()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    dataset: DatasetId,
    model_seed: u64,
    learn: LearnKey,
}

/// A [`LearnConfig`] as a hash key: its float compares by bit pattern.
#[derive(Debug, Clone, Copy)]
struct LearnKey(LearnConfig);

impl LearnKey {
    fn parts(&self) -> (u64, usize, usize) {
        let LearnConfig {
            min_support_frac,
            max_tree_size,
            max_patterns,
        } = self.0;
        (min_support_frac.to_bits(), max_tree_size, max_patterns)
    }
}

impl PartialEq for LearnKey {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for LearnKey {}

impl std::hash::Hash for LearnKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

/// Canonical JSON of a learning configuration: a plan namespace's
/// identity in the handoff format.
fn learn_json(learn: &LearnConfig) -> String {
    serde_json::to_string(learn).expect("learn config serialises")
}

/// One model slot: the learn-once cell, the slot's plan namespace, and
/// the canonical JSON of its learn config (built once, with the slot).
struct Entry {
    model: Arc<OnceLock<Arc<Vs2Model>>>,
    plans: Arc<PlanStore>,
    learn: String,
}

/// Counter snapshot of the full two-level cache, for summaries and the
/// `{"record":"metrics",...}` tail.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Model lookups served from a warm slot.
    pub model_hits: u64,
    /// Model lookups whose own builder learned the model.
    pub model_misses: u64,
    /// Plan counters aggregated over every slot.
    pub plans: PlanCounters,
}

/// Learn-once, extract-many cache of [`Vs2Model`]s keyed by
/// `(dataset, model seed, learn config)`, with a [`PlanStore`]
/// namespace per slot.
#[derive(Default)]
pub struct ModelCache {
    entries: Mutex<HashMap<CacheKey, Entry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ModelCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn slots(&self) -> MutexGuard<'_, HashMap<CacheKey, Entry>> {
        // Learning runs outside the lock, so no panic can poison it.
        self.entries.lock().expect("slot table lock poisoned")
    }

    /// Resolves the slot for `key`, creating it when absent.
    fn entry(&self, key: CacheKey) -> (Arc<OnceLock<Arc<Vs2Model>>>, Arc<PlanStore>) {
        let mut entries = self.slots();
        let e = entries.entry(key).or_insert_with(|| Entry {
            model: Arc::default(),
            plans: Arc::default(),
            learn: learn_json(&key.learn.0),
        });
        (Arc::clone(&e.model), Arc::clone(&e.plans))
    }

    /// Returns the learned model for `(dataset, model_seed)`, learning it
    /// from the dataset's holdout corpus (seed `model_seed ^ 0x4001`) on
    /// first use. Concurrent callers missing on the same key block until
    /// the single learner finishes.
    pub fn model_for(
        &self,
        dataset: DatasetId,
        model_seed: u64,
        config: &Vs2Config,
    ) -> Arc<Vs2Model> {
        let key = Self::key(dataset, model_seed, config);
        self.model_with_builder(key, || {
            let corpus = holdout_corpus(dataset, model_seed ^ 0x4001);
            let entries: Vec<(String, String, String)> = corpus
                .entries
                .iter()
                .map(|e| (e.entity.clone(), e.text.clone(), e.context.clone()))
                .collect();
            Arc::new(Vs2Model::learn(
                entries
                    .iter()
                    .map(|(a, b, c)| (a.as_str(), b.as_str(), c.as_str())),
                &config.learn,
            ))
        })
    }

    /// The plan namespace of `(dataset, model_seed, config)`'s slot —
    /// the second cache level. Creating the slot does *not* learn the
    /// model; the namespace is shared with [`ModelCache::model_for`]'s
    /// slot for the same key.
    pub fn plan_store_for(
        &self,
        dataset: DatasetId,
        model_seed: u64,
        config: &Vs2Config,
    ) -> Arc<PlanStore> {
        self.entry(Self::key(dataset, model_seed, config)).1
    }

    fn key(dataset: DatasetId, model_seed: u64, config: &Vs2Config) -> CacheKey {
        CacheKey {
            dataset,
            model_seed,
            learn: LearnKey(config.learn),
        }
    }

    /// Lookup/learn with an injectable builder — the seam that lets
    /// tests drive the cache with panicking builders. A builder panic
    /// propagates to the caller but must not wedge the slot: the
    /// per-key `OnceLock` stays uninitialized, so the next caller (or a
    /// concurrent one) simply runs its own builder.
    fn model_with_builder<F>(&self, key: CacheKey, build: F) -> Arc<Vs2Model>
    where
        F: FnOnce() -> Arc<Vs2Model>,
    {
        let (slot, _plans) = self.entry(key);
        let mut learned = false;
        let model = Arc::clone(slot.get_or_init(|| {
            learned = true;
            build()
        }));
        let counter = if learned { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        model
    }

    /// A ready-to-run pipeline over the cached model.
    pub fn pipeline_for(
        &self,
        dataset: DatasetId,
        model_seed: u64,
        config: Vs2Config,
    ) -> Vs2Pipeline {
        Vs2Pipeline::from_model(self.model_for(dataset, model_seed, &config), config)
    }

    /// `(hits, misses)` counters. A miss is a call whose own builder
    /// learned the model; a caller that waited on another caller's learn
    /// counts a hit, so the counts do not depend on scheduling. A call
    /// whose builder panicked counts neither.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Plan counters aggregated over every slot.
    pub fn plan_counters(&self) -> PlanCounters {
        let entries = self.slots();
        let mut total = PlanCounters::default();
        for e in entries.values() {
            total.add(&e.plans.counters());
        }
        total
    }

    /// Exports every non-empty plan namespace for a drain/handoff
    /// snapshot, sorted by `(dataset name, model seed, learn config)` so
    /// the serialized order is stable.
    pub fn export_plan_namespaces(&self) -> Vec<PlanNamespace> {
        let entries = self.slots();
        let mut out: Vec<PlanNamespace> = entries
            .iter()
            .filter(|(_, e)| !e.plans.is_empty())
            .map(|(key, e)| PlanNamespace {
                dataset: key.dataset,
                model_seed: key.model_seed,
                learn: e.learn.clone(),
                entries: e
                    .plans
                    .export()
                    .into_iter()
                    .map(|(fingerprint, plan)| PlanEntry {
                        fingerprint,
                        plan: (*plan).clone(),
                    })
                    .collect(),
            })
            .collect();
        out.sort_by(|a, b| {
            (a.dataset.name(), a.model_seed, &a.learn).cmp(&(
                b.dataset.name(),
                b.model_seed,
                &b.learn,
            ))
        });
        out
    }

    /// Preloads an exported namespace's plans into the namespace of the
    /// same slot — the warm-start half of [`Self::export_plan_namespaces`]
    /// — when that slot is the one `(namespace.dataset, model_seed,
    /// config)` addresses. Any other namespace admits nothing and creates
    /// no slot: no lookup under this seed and config could reach it.
    /// Creates the slot (without learning its model) when absent; the
    /// plan store's own first-plan-wins and capacity rules apply.
    /// Returns the number of plans admitted.
    pub fn preload_plan_namespace(
        &self,
        namespace: &PlanNamespace,
        model_seed: u64,
        config: &Vs2Config,
    ) -> usize {
        if namespace.model_seed != model_seed || namespace.learn != learn_json(&config.learn) {
            return 0;
        }
        let (_model, plans) = self.entry(Self::key(namespace.dataset, model_seed, config));
        plans.preload(
            namespace
                .entries
                .iter()
                .map(|e| (e.fingerprint.clone(), Arc::new(e.plan.clone()))),
        )
    }

    /// Full counter snapshot of both cache levels.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            model_hits: self.hits.load(Ordering::Relaxed),
            model_misses: self.misses.load(Ordering::Relaxed),
            plans: self.plan_counters(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_once_per_key_and_shares() {
        let cache = ModelCache::new();
        let cfg = default_config_for(DatasetId::D2);
        let a = cache.model_for(DatasetId::D2, 7, &cfg);
        let b = cache.model_for(DatasetId::D2, 7, &cfg);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one model");
        assert_eq!(cache.counters(), (1, 1));
        let c = cache.model_for(DatasetId::D2, 8, &cfg);
        assert!(!Arc::ptr_eq(&a, &c), "different seed learns separately");
        assert_eq!(cache.counters(), (1, 2));
    }

    #[test]
    fn concurrent_misses_learn_exactly_once() {
        let cache = Arc::new(ModelCache::new());
        let start = Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (cache, start) = (Arc::clone(&cache), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    // Slow enough that the other three callers wait on it.
                    cache.model_with_builder(test_key(1), || {
                        std::thread::sleep(std::time::Duration::from_millis(100));
                        tiny_model()
                    })
                })
            })
            .collect();
        let models: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for m in &models[1..] {
            assert!(Arc::ptr_eq(&models[0], m));
        }
        assert_eq!(cache.counters(), (3, 1), "waiters count hits");
    }

    fn test_key(tag: u64) -> CacheKey {
        CacheKey {
            dataset: DatasetId::D1,
            model_seed: tag,
            learn: LearnKey(LearnConfig::default()),
        }
    }

    fn tiny_model() -> Arc<Vs2Model> {
        let cfg = default_config_for(DatasetId::D1);
        Arc::new(Vs2Model::learn([("entity", "text", "context")], &cfg.learn))
    }

    #[test]
    fn panicking_builder_does_not_poison_the_slot() {
        let cache = ModelCache::new();
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.model_with_builder(test_key(1), || panic!("learning blew up"))
        }));
        assert!(attempt.is_err(), "the builder panic must propagate");
        // Same key, next caller: must learn successfully, not deadlock
        // or return a wedged slot.
        let model = cache.model_with_builder(test_key(1), tiny_model);
        let again =
            cache.model_with_builder(test_key(1), || panic!("must not re-learn a cached key"));
        assert!(Arc::ptr_eq(&model, &again));
    }

    #[test]
    fn concurrent_access_with_panicking_builder_recovers() {
        let cache = Arc::new(ModelCache::new());
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        cache.model_with_builder(test_key(7), move || {
                            // Half the racers have broken builders.
                            if i % 2 == 0 {
                                panic!("racer {i} failed to learn");
                            }
                            tiny_model()
                        })
                    }));
                    result.ok()
                })
            })
            .collect();
        let models: Vec<Arc<Vs2Model>> = handles
            .into_iter()
            .filter_map(|h| h.join().unwrap())
            .collect();
        assert!(
            !models.is_empty(),
            "at least one healthy builder must have won"
        );
        for m in &models[1..] {
            assert!(Arc::ptr_eq(&models[0], m), "all survivors share one model");
        }
        // The key is now warm: a poisoned builder is never invoked again.
        let cached = cache.model_with_builder(test_key(7), || panic!("no re-learning"));
        assert!(Arc::ptr_eq(&models[0], &cached));
    }

    #[test]
    fn snapshot_aggregates_live_plan_counters() {
        let cache = ModelCache::new();
        let cfg = default_config_for(DatasetId::D1);
        let plans = cache.plan_store_for(DatasetId::D1, 1, &cfg);
        // Drive one miss through the namespace so a counter moves.
        let mut doc = vs2_docmodel::Document::new("snap", 600.0, 800.0);
        for i in 0..3 {
            doc.push_text(vs2_docmodel::TextElement::word(
                format!("w{i}"),
                vs2_docmodel::BBox::new(60.0 + i as f64 * 50.0, 60.0, 40.0, 12.0),
            ));
        }
        vs2_core::plan::planned_blocks(
            &doc,
            &vs2_core::segment::SegmentConfig::default(),
            &vs2_core::plan::PlanConfig::default(),
            &plans,
        );
        let snap = cache.snapshot();
        assert_eq!(snap.plans.misses, 1);
        assert_eq!(snap.plans.inserts, 1);
    }

    #[test]
    fn plan_namespaces_export_and_preload_across_caches() {
        let cache = ModelCache::new();
        let cfg = default_config_for(DatasetId::D1);
        let plans = cache.plan_store_for(DatasetId::D1, 1, &cfg);
        // An empty namespace exports nothing.
        assert!(cache.export_plan_namespaces().is_empty());
        let mut doc = vs2_docmodel::Document::new("ns", 600.0, 800.0);
        for i in 0..3 {
            doc.push_text(vs2_docmodel::TextElement::word(
                format!("w{i}"),
                vs2_docmodel::BBox::new(60.0 + i as f64 * 50.0, 60.0, 40.0, 12.0),
            ));
        }
        vs2_core::plan::planned_blocks(
            &doc,
            &vs2_core::segment::SegmentConfig::default(),
            &vs2_core::plan::PlanConfig::default(),
            &plans,
        );
        let exported = cache.export_plan_namespaces();
        assert_eq!(exported.len(), 1);
        assert_eq!(exported[0].dataset, DatasetId::D1);
        assert_eq!(exported[0].model_seed, 1);
        assert_eq!(exported[0].entries.len(), 1);

        // Warm-start a second cache from the export: the repeat document
        // replays with zero misses.
        let successor = ModelCache::new();
        assert_eq!(successor.preload_plan_namespace(&exported[0], 1, &cfg), 1);
        let warm = successor.plan_store_for(DatasetId::D1, 1, &cfg);
        let (_, outcome) = vs2_core::plan::planned_blocks(
            &doc,
            &vs2_core::segment::SegmentConfig::default(),
            &vs2_core::plan::PlanConfig::default(),
            &warm,
        );
        assert_eq!(outcome, vs2_core::plan::PlanOutcome::Replayed);
        assert_eq!(successor.snapshot().plans.misses, 0);
    }

    #[test]
    fn foreign_namespace_preloads_nothing_and_creates_no_slot() {
        let cfg = default_config_for(DatasetId::D1);
        let mut other = cfg;
        other.learn.max_patterns += 1;
        let cache = ModelCache::new();
        let namespace = |model_seed: u64, config: &Vs2Config| PlanNamespace {
            dataset: DatasetId::D1,
            model_seed,
            learn: learn_json(&config.learn),
            entries: Vec::new(),
        };
        assert_eq!(
            cache.preload_plan_namespace(&namespace(2, &cfg), 1, &cfg),
            0
        );
        cache.preload_plan_namespace(&namespace(1, &other), 1, &cfg);
        assert!(cache.slots().is_empty());
        cache.preload_plan_namespace(&namespace(1, &cfg), 1, &cfg);
        assert_eq!(cache.slots().len(), 1);
    }

    #[test]
    fn cached_model_shares_one_compiled_index() {
        let cache = ModelCache::new();
        let cfg = default_config_for(DatasetId::D2);
        let a = cache.pipeline_for(DatasetId::D2, 5, cfg);
        let b = cache.pipeline_for(DatasetId::D2, 5, cfg);
        // Both pipelines hold the same model Arc, hence the same
        // compiled PatternIndex — no per-pipeline or per-job rebuild.
        assert!(Arc::ptr_eq(a.model(), b.model()));
        assert!(std::ptr::eq(a.model().index(), b.model().index()));
        // The cached index actually covers the learned inventory.
        let n_patterns: usize = a.patterns().values().map(Vec::len).sum();
        let index = a.model().index();
        assert_eq!(index.entity_count(), a.patterns().len());
        assert_eq!(index.phrase_count() + index.window_count(), n_patterns);
    }

    #[test]
    fn cached_pipeline_matches_fresh_learning() {
        let cache = ModelCache::new();
        let cfg = default_config_for(DatasetId::D2);
        let served = cache.pipeline_for(DatasetId::D2, 3, cfg);
        let corpus = holdout_corpus(DatasetId::D2, 3 ^ 0x4001);
        let entries: Vec<(String, String, String)> = corpus
            .entries
            .iter()
            .map(|e| (e.entity.clone(), e.text.clone(), e.context.clone()))
            .collect();
        let fresh = Vs2Pipeline::learn(
            entries
                .iter()
                .map(|(a, b, c)| (a.as_str(), b.as_str(), c.as_str())),
            cfg,
        );
        assert_eq!(served.patterns(), fresh.patterns());
    }
}
