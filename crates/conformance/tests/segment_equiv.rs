//! Differential equivalence battery for the segmentation paths.
//!
//! [`vs2_core::segment::segment`] runs the packed fast path
//! (`segment::fast`: word-packed whitespace sweeps, incremental extents,
//! cached merge embeddings); [`vs2_core::segment::segment_naive`] drives
//! the original driver kept verbatim in `segment::naive`. The two share
//! every float decision (scoring, interiority, splitting, merging all go
//! through the same helpers), so these tests pin exactly the machinery
//! that changed: layout trees — structure, bounding boxes, element
//! partitions — and the extractions computed from them must be
//! byte-identical across the synthetic benchmark corpora, the templated
//! corpus, the adversarial corpus and arbitrary/degenerate random
//! documents, under every ablation switch and all three disambiguation
//! modes. On top of the two-path differential, the cross-feature
//! contracts are pinned: plan-cache capture/replay/collider-rejection
//! over fast-path trees, the served `naive_segment` escape hatch,
//! chaos determinism at 1 vs 4 workers with the fast path on, and the
//! degraded XY-cut fallback.
//!
//! Case counts honour `VS2_PROPTEST_CASES`; failures print a
//! `VS2_PROPTEST_SEED` repro command (see the `proptest` shim docs).

use proptest::prelude::*;
use serde::Serialize as _;
use vs2_conformance::serving::{self, Mode, Offline};
use vs2_conformance::strategy::arb_any_document;
use vs2_core::segment::{
    logical_blocks, logical_blocks_naive, segment, segment_naive, SegmentConfig,
};
use vs2_core::{DisambiguationMode, Vs2Pipeline};
use vs2_docmodel::Document;
use vs2_serve::{
    default_config_for, FaultPlan, JobSpec, ModelCache, ServiceOptions, DEFAULT_DOC_SEED,
};
use vs2_synth::{adversarial, generate_one, templated, DatasetConfig, DatasetId};

const MODES: [DisambiguationMode; 3] = [
    DisambiguationMode::Multimodal,
    DisambiguationMode::FirstMatch,
    DisambiguationMode::Lesk,
];

/// The ablation grid: the default configuration plus every switch the
/// fast path re-implements turned off in isolation (Table 9's axes).
fn config_grid(base: SegmentConfig) -> [SegmentConfig; 4] {
    [
        base,
        SegmentConfig {
            use_semantic_merge: false,
            ..base
        },
        SegmentConfig {
            use_visual_clustering: false,
            ..base
        },
        SegmentConfig {
            deskew: false,
            ..base
        },
    ]
}

/// The tree half of the contract: fast and naive agree structurally
/// *and* byte-for-byte in the debug rendering (structural `PartialEq`
/// alone would not catch `-0.0` vs `0.0` bbox drift; formatting does).
fn assert_trees_equiv(doc: &Document, cfg: &SegmentConfig) {
    let fast = segment(doc, cfg);
    let naive = segment_naive(doc, cfg);
    assert_eq!(fast, naive, "layout trees diverged (doc {})", doc.id);
    assert_eq!(
        format!("{fast:?}"),
        format!("{naive:?}"),
        "layout tree bytes diverged (doc {})",
        doc.id
    );
}

/// The extraction half: the pipeline over fast-path blocks must equal
/// the pipeline over naive blocks, in every disambiguation mode,
/// serialised so every score byte participates.
fn assert_extractions_equiv(pipeline: &Vs2Pipeline, doc: &Document) {
    let fast = logical_blocks(doc, &pipeline.config.segment);
    let naive = logical_blocks_naive(doc, &pipeline.config.segment);
    for mode in MODES {
        let mut p = pipeline.clone();
        p.config.disambiguation = mode;
        let on_fast = serde_json::to_string(&p.extract_on_blocks(doc, &fast).to_value()).unwrap();
        let on_naive = serde_json::to_string(&p.extract_on_blocks(doc, &naive).to_value()).unwrap();
        assert_eq!(
            on_fast, on_naive,
            "extractions diverged ({mode:?}, doc {})",
            doc.id
        );
    }
}

/// Synthetic benchmark corpora: the fast path must reproduce the naive
/// trees on the D1–D4 corpora under their per-dataset configs and the
/// whole ablation grid, and extractions must follow.
#[test]
fn fast_matches_naive_on_synthetic_corpora() {
    let cache = ModelCache::new();
    for dataset in DatasetId::EXTENDED {
        let pipeline = cache.pipeline_for(dataset, DEFAULT_DOC_SEED, default_config_for(dataset));
        for i in 0..6 {
            let doc = generate_one(dataset, i, DatasetConfig::new(1, DEFAULT_DOC_SEED)).doc;
            for cfg in config_grid(pipeline.config.segment) {
                assert_trees_equiv(&doc, &cfg);
            }
            assert_extractions_equiv(&pipeline, &doc);
        }
    }
}

/// The templated corpus (dense, gridded, table-heavy families — the
/// layouts that stress `segment.area` hardest) plus its adversarial
/// near-miss variants.
#[test]
fn fast_matches_naive_on_templated_corpus() {
    let cache = ModelCache::new();
    let pipeline = cache.pipeline_for(
        DatasetId::Templated,
        DEFAULT_DOC_SEED,
        default_config_for(DatasetId::Templated),
    );
    for i in 0..2 * templated::FAMILIES {
        let doc = templated::generate_one(i, DEFAULT_DOC_SEED).doc;
        assert_trees_equiv(&doc, &pipeline.config.segment);
        assert_extractions_equiv(&pipeline, &doc);
    }
    for labelled in templated::adversarial_corpus(DEFAULT_DOC_SEED) {
        assert_trees_equiv(&labelled.doc, &pipeline.config.segment);
        assert_extractions_equiv(&pipeline, &labelled.doc);
    }
}

/// The adversarial layout corpus (slivers, overlaps, huge skew — the
/// deskew wrapper and the grid cap both fire here) through the whole
/// ablation grid.
#[test]
fn fast_matches_naive_on_adversarial_corpus() {
    let cache = ModelCache::new();
    let pipeline = cache.pipeline_for(
        DatasetId::D1,
        DEFAULT_DOC_SEED,
        default_config_for(DatasetId::D1),
    );
    for (_, doc) in adversarial::corpus() {
        for cfg in config_grid(SegmentConfig::default()) {
            assert_trees_equiv(&doc, &cfg);
        }
        assert_extractions_equiv(&pipeline, &doc);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary + degenerate documents (empty, zero-area, duplicate,
    /// extreme-aspect — `arb_any_document` mixes all of them in) through
    /// the whole ablation grid.
    #[test]
    fn property_fast_equals_naive_on_arbitrary_documents(doc in arb_any_document()) {
        for cfg in config_grid(SegmentConfig::default()) {
            assert_trees_equiv(&doc, &cfg);
        }
    }
}

/// Plan-cache interaction: plans are captured from and replayed against
/// fast-path trees now. Capture must insert, replay must reproduce the
/// fast (and naive) blocks exactly, and the near-miss colliders must be
/// rejected by validation exactly as before the fast path landed.
#[test]
fn plan_replay_over_fast_trees_and_collider_rejection() {
    let fp_cfg = vs2_core::plan::FingerprintConfig::default();
    let plan_cfg = vs2_core::plan::PlanConfig::default();
    let seg = SegmentConfig::default();
    for fam in 0..templated::FAMILIES {
        let doc = templated::generate_clean(fam, DEFAULT_DOC_SEED).doc;
        let store = vs2_core::plan::PlanStore::default();
        let (cold, outcome) = vs2_core::plan::planned_blocks(&doc, &seg, &plan_cfg, &store);
        assert!(
            matches!(
                outcome,
                vs2_core::plan::PlanOutcome::Miss { inserted: true }
            ),
            "family {fam} capture over the fast tree must insert, got {outcome:?}"
        );
        let (warm, outcome) = vs2_core::plan::planned_blocks(&doc, &seg, &plan_cfg, &store);
        assert!(
            matches!(outcome, vs2_core::plan::PlanOutcome::Replayed),
            "family {fam} must replay, got {outcome:?}"
        );
        let direct_fast = logical_blocks(&doc, &seg);
        let direct_naive = logical_blocks_naive(&doc, &seg);
        for (label, blocks) in [("cold", &cold), ("warm", &warm)] {
            assert_eq!(
                format!("{blocks:?}"),
                format!("{direct_fast:?}"),
                "family {fam} {label} planned blocks diverged from the fast path"
            );
            assert_eq!(
                format!("{blocks:?}"),
                format!("{direct_naive:?}"),
                "family {fam} {label} planned blocks diverged from the naive path"
            );
        }
        // Colliders: same fingerprint, rejected by validation against the
        // plan captured from the fast-path tree.
        let family_fp = vs2_core::plan::LayoutFingerprint::compute(&doc, &fp_cfg);
        for kind in 0..templated::NEAR_MISS_KINDS {
            let near = templated::generate_near_miss_clean(fam, kind, fam, DEFAULT_DOC_SEED).doc;
            assert_eq!(
                vs2_core::plan::LayoutFingerprint::compute(&near, &fp_cfg),
                family_fp,
                "near-miss kind {kind} of family {fam} must still collide"
            );
            let (_, outcome) = vs2_core::plan::planned_blocks(&near, &seg, &plan_cfg, &store);
            assert!(
                matches!(outcome, vs2_core::plan::PlanOutcome::Rejected(_)),
                "near-miss kind {kind} of family {fam} must be rejected, got {outcome:?}"
            );
        }
    }
}

// --- Service-level interaction tests -----------------------------------

/// D1 synthetics plus the adversarial corpus as inline jobs — the same
/// mix the chaos suite uses, so the degradation path actually fires.
fn interaction_batch() -> Vec<JobSpec> {
    (0..4)
        .map(|doc_index| serving::synthetic(DatasetId::D1, doc_index))
        .chain(serving::adversarial_jobs())
        .collect()
}

const CHAOS_SEED: u64 = 0xFA57_5EED;

/// Serves `specs` on a fresh service and returns stdout.
fn run_service(
    workers: usize,
    faults: Option<FaultPlan>,
    naive_segment: bool,
    specs: &[JobSpec],
) -> String {
    let mode = Mode {
        faults,
        options: ServiceOptions {
            naive_segment,
            ..Default::default()
        },
        ..Mode::plain(workers)
    };
    serving::serve(&mode, specs).first.stdout
}

/// The `naive_segment` escape hatch is observationally invisible: a
/// fault-free service on the fast path (the default) renders byte-
/// identically to the same service on the preserved naive path, at 1 and
/// 4 workers.
#[test]
fn service_naive_segment_escape_hatch_is_byte_identical() {
    let specs = interaction_batch();
    let fast = run_service(1, None, false, &specs);
    for workers in [1, 4] {
        assert_eq!(
            fast,
            run_service(workers, None, true, &specs),
            "naive-segment service output diverged at {workers} workers"
        );
    }
}

/// Chaos determinism with the fast path on: for a fixed fault seed the
/// whole run — which jobs degrade, which retry, every extraction byte —
/// is identical at 1 and 4 workers, and identical to the naive path
/// under the same plan (the fault checkpoints sit outside the segment
/// branch, so the decision sequence cannot differ). The degraded jobs in
/// the batch also pin that the XY-cut fallback is unaffected: its output
/// goes through `vs2_core::cheap_blocks`, not the fast path.
#[test]
fn chaos_with_fast_segment_is_deterministic_across_workers() {
    let specs = interaction_batch();
    let faults = Some(FaultPlan::chaos(CHAOS_SEED));
    let single = run_service(1, faults, false, &specs);
    let parallel = run_service(4, faults, false, &specs);
    assert_eq!(single, parallel, "chaos run diverged across worker counts");
    assert!(
        single.contains("\"status\":\"degraded\""),
        "the chaos plan must degrade at least one job for the fallback check"
    );
    assert_eq!(
        single,
        run_service(1, faults, true, &specs),
        "chaos run diverged between fast and naive segmentation"
    );
}

/// The degraded XY-cut fallback bypasses the fast path entirely: a job
/// degraded under chaos carries exactly the extractions of the XY-cut
/// pipeline run directly, regardless of segment path.
#[test]
fn degraded_fallback_output_is_the_xy_cut_baseline() {
    let specs = interaction_batch();
    let mode = Mode {
        faults: Some(FaultPlan::chaos(CHAOS_SEED)),
        ..Mode::plain(1)
    };
    let run = serving::serve(&mode, &specs).first;
    let answers: Vec<_> = run.results.iter().collect();
    let checked = Offline::of(&specs).assert_degraded_are_fallback("chaos", &answers);
    assert!(checked > 0, "no degraded jobs to check");
}
