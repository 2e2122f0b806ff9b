//! Plan-cache conformance: caching segmentation plans must be purely an
//! optimisation.
//!
//! The end-to-end differential: plan cache on ≡ off over the paper
//! datasets, the D4 invoices, the templated corpus and its adversarial
//! near-miss colliders, warm and cold, at 1 and 4 workers and under
//! fault injection (the serving matrix, `serving_matrix.rs`, crosses it
//! with every other serving switch). Underneath it, the fingerprint
//! robustness contract, property-style: OCR jitter within the stability
//! bound never changes a templated document's fingerprint, distinct
//! template families never share one, and the near-miss colliders
//! collide by design yet fail validation.

use proptest::prelude::*;
use vs2_conformance::serving::{self, Mode};
use vs2_core::plan::{
    FingerprintConfig, LayoutFingerprint, PlanConfig, PlanCounters, CENTROID_MARGIN,
};
use vs2_serve::{FaultPlan, JobOutcome, JobSource, JobSpec, ServiceOptions, DEFAULT_DOC_SEED};
use vs2_synth::templated;
use vs2_synth::{generate_one, DatasetConfig, DatasetId};

/// The full differential batch: the paper datasets plus the D4 invoices
/// corpus, the templated corpus (several documents per family so warm
/// runs replay), and every adversarial near-miss template as an inline
/// job. D4 shares families the same way Templated does, so it also
/// exercises warm replays.
fn differential_batch() -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for i in 0..3 {
        for id in DatasetId::EXTENDED {
            specs.push(serving::synthetic(id, i));
        }
    }
    // 2 × FAMILIES invoices: every D4 family seen twice, so a warm pass
    // replays each family at least once.
    for i in 0..2 * vs2_synth::invoices::FAMILIES {
        specs.push(serving::synthetic(DatasetId::D4, i));
    }
    // 3 × FAMILIES documents: every family seen three times, so a warm
    // pass replays at least two of each.
    for i in 0..3 * templated::FAMILIES {
        specs.push(serving::synthetic(DatasetId::Templated, i));
    }
    for (i, labelled) in templated::adversarial_corpus(DEFAULT_DOC_SEED)
        .into_iter()
        .enumerate()
    {
        specs.push(JobSpec {
            job_id: Some(format!("near-miss-{i}")),
            source: JobSource::Inline(std::sync::Arc::new(labelled.doc)),
            ..serving::synthetic(DatasetId::Templated, 0)
        });
    }
    specs
}

/// Serves `specs` `passes` times on one service; returns each pass's
/// stdout and the final plan counters.
fn run_passes(
    workers: usize,
    plan_cache: bool,
    faults: Option<FaultPlan>,
    specs: &[JobSpec],
    passes: usize,
) -> (Vec<String>, PlanCounters) {
    let mode = Mode {
        faults,
        options: ServiceOptions {
            plan_cache,
            ..Default::default()
        },
        ..Mode::plain(workers)
    };
    serving::passes(&mode, specs, passes)
}

/// Plan cache on vs off, cold and warm, 1 and 4 workers — all
/// byte-identical, and the warm pass actually replays.
#[test]
fn plan_cache_on_equals_off_across_all_corpora() {
    let specs = differential_batch();
    let (off, _) = run_passes(1, false, None, &specs, 2);
    let (on_single, counters) = run_passes(1, true, None, &specs, 2);
    assert_eq!(off[0], on_single[0], "cold pass diverged (1 worker)");
    assert_eq!(off[1], on_single[1], "warm pass diverged (1 worker)");
    assert!(
        counters.hits >= (2 * templated::FAMILIES) as u64,
        "warm templated traffic must replay cached plans, got {counters:?}"
    );
    assert!(
        counters.validation_rejects > 0,
        "the near-miss colliders must exercise validation rejection, got {counters:?}"
    );

    let (on_parallel, _) = run_passes(4, true, None, &specs, 2);
    assert_eq!(off[0], on_parallel[0], "cold pass diverged (4 workers)");
    assert_eq!(off[1], on_parallel[1], "warm pass diverged (4 workers)");
}

/// Deterministic fault injection with the plan cache on must match the
/// cache-off run byte for byte, pass for pass, proving quarantined and
/// degraded jobs never leave a bad plan behind for later traffic to
/// replay.
#[test]
fn faulted_runs_never_poison_cached_plans() {
    let specs = differential_batch();
    let faults = Some(FaultPlan::chaos(0x91A4_5EED));
    let (off, _) = run_passes(2, false, faults, &specs, 3);
    let (on, counters) = run_passes(2, true, faults, &specs, 3);
    for (pass, (a, b)) in off.iter().zip(&on).enumerate() {
        assert_eq!(a, b, "faulted pass {pass} diverged with the plan cache on");
    }
    assert!(
        counters.hits > 0,
        "the faulted warm passes must still replay plans, got {counters:?}"
    );
}

/// Every clean templated centroid honours the fingerprint robustness
/// contract with room to spare: the synth corpus promises a margin at
/// least as large as the core contract demands.
#[test]
#[allow(clippy::assertions_on_constants)]
fn templated_centroids_respect_the_core_margin_contract() {
    assert!(
        templated::CENTROID_MARGIN >= CENTROID_MARGIN,
        "the synth margin promise ({}) must cover the core contract ({})",
        templated::CENTROID_MARGIN,
        CENTROID_MARGIN
    );
    let cfg = FingerprintConfig::default();
    for fam in 0..templated::FAMILIES {
        let doc = templated::generate_clean(fam, DEFAULT_DOC_SEED).doc;
        for r in doc.element_refs() {
            let c = doc.bbox_of(r).centroid();
            let margin = cfg.boundary_margin(doc.width, doc.height, c);
            assert!(
                margin >= CENTROID_MARGIN,
                "family {fam} centroid ({}, {}) margin {margin} below contract",
                c.x,
                c.y
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// OCR noise within the stability bound never changes a templated
    /// document's fingerprint: every noised family member fingerprints
    /// identically to its clean geometry.
    #[test]
    fn jitter_within_bound_never_changes_the_fingerprint(
        doc_index in 0usize..32,
        seed in 0u64..1_000_000,
    ) {
        let cfg = FingerprintConfig::default();
        let clean = templated::generate_clean(doc_index, seed).doc;
        let noised = templated::generate_one(doc_index, seed).doc;
        prop_assert_eq!(
            LayoutFingerprint::compute(&clean, &cfg),
            LayoutFingerprint::compute(&noised, &cfg),
            "noise moved the fingerprint for doc {} seed {}", doc_index, seed
        );
    }

    /// Distinct template families never share a fingerprint, clean or
    /// noised — the cache can never serve family A's plan to family B.
    #[test]
    fn distinct_families_never_collide(seed in 0u64..1_000_000) {
        let cfg = FingerprintConfig::default();
        let prints: Vec<LayoutFingerprint> = (0..templated::FAMILIES)
            .map(|fam| {
                LayoutFingerprint::compute(&templated::generate_one(fam, seed).doc, &cfg)
            })
            .collect();
        for a in 0..prints.len() {
            for b in (a + 1)..prints.len() {
                prop_assert_ne!(
                    &prints[a], &prints[b],
                    "families {} and {} collided at seed {}", a, b, seed
                );
            }
        }
    }
}

/// The near-miss colliders do what their name says: same fingerprint as
/// the family (kinds that preserve centroids), yet the family's plan
/// deterministically fails validation on them.
#[test]
fn near_misses_collide_on_fingerprint_but_fail_validation() {
    let fp_cfg = FingerprintConfig::default();
    let plan_cfg = PlanConfig::default();
    let seg = vs2_core::segment::SegmentConfig::default();
    for fam in 0..templated::FAMILIES {
        let family_doc = templated::generate_clean(fam, DEFAULT_DOC_SEED).doc;
        let store = vs2_core::plan::PlanStore::default();
        let (_, outcome) = vs2_core::plan::planned_blocks(&family_doc, &seg, &plan_cfg, &store);
        assert!(
            matches!(
                outcome,
                vs2_core::plan::PlanOutcome::Miss { inserted: true }
            ),
            "family {fam} plan must be cacheable, got {outcome:?}"
        );
        let family_fp = LayoutFingerprint::compute(&family_doc, &fp_cfg);
        for kind in 0..templated::NEAR_MISS_KINDS {
            let near = templated::generate_near_miss_clean(fam, kind, fam, DEFAULT_DOC_SEED).doc;
            assert_eq!(
                LayoutFingerprint::compute(&near, &fp_cfg),
                family_fp,
                "near-miss kind {kind} of family {fam} must collide by design"
            );
            let (_, outcome) = vs2_core::plan::planned_blocks(&near, &seg, &plan_cfg, &store);
            assert!(
                matches!(outcome, vs2_core::plan::PlanOutcome::Rejected(_)),
                "near-miss kind {kind} of family {fam} must be rejected, got {outcome:?}"
            );
        }
        // The family's own plan survived every collider.
        let (_, outcome) = vs2_core::plan::planned_blocks(&family_doc, &seg, &plan_cfg, &store);
        assert!(
            matches!(outcome, vs2_core::plan::PlanOutcome::Replayed),
            "family {fam} plan must survive its colliders, got {outcome:?}"
        );
    }
}

/// The `Templated` dataset id is servable end to end through the normal
/// job-spec path (D3 model, six entities).
#[test]
fn templated_dataset_serves_extractions() {
    let doc = generate_one(
        DatasetId::Templated,
        0,
        DatasetConfig::new(1, DEFAULT_DOC_SEED),
    );
    assert_eq!(doc.annotations.len(), 6);
    let mut service = Mode {
        options: ServiceOptions {
            plan_cache: true,
            ..Default::default()
        },
        ..Mode::plain(1)
    }
    .service();
    for i in 0..4 {
        service.submit(serving::synthetic(DatasetId::Templated, i));
    }
    let results = service.drain();
    service.shutdown();
    for done in &results {
        let JobOutcome::Ok(extractions) = &done.outcome else {
            panic!("templated job {} failed: {:?}", done.seq, done.outcome);
        };
        assert!(
            !extractions.is_empty(),
            "templated job {} extracted nothing",
            done.seq
        );
    }
}
