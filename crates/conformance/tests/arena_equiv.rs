//! Arena ≡ owned differential battery — the zero-copy pipeline contract.
//!
//! The arena path (one [`DocContext`] per job: interned tokens, shared
//! derived columns, memoising embedder, borrow-based stage interfaces)
//! must be *observationally identical* to the owned reference that
//! re-derives everything from the [`Document`]. These tests pin that
//! equivalence at every seam and at full-service scale:
//!
//! * layout trees and logical blocks — byte-identical debug renderings
//!   (full `f64` precision participates) against the owned segmenter;
//! * per-entity candidates and final extractions — byte-identical JSON,
//!   under all three disambiguation modes, against the naive select
//!   reference (`candidates_on_blocks_naive`: fully annotated
//!   `BlockText::build` texts, the entity × block × pattern loop);
//! * corpora: the three paper datasets, the templated corpus and its
//!   adversarial near-miss variants, the adversarial layout corpus, and
//!   proptest-generated arbitrary/degenerate documents;
//! * service arms: the ctx-path serving tier equals offline owned
//!   extraction job-for-job through plan-cache replay (cold and warm)
//!   and stays byte-identical between 1 and 4 workers under chaos fault
//!   injection (the serving matrix, `serving_matrix.rs`, crosses these
//!   with every other serving switch).
//!
//! Case counts honour `VS2_PROPTEST_CASES` (CI runs them uncapped, so
//! the full 256); failures print a `VS2_PROPTEST_SEED` repro command.

use proptest::prelude::*;
use serde::Serialize as _;
use vs2_conformance::serving::{self, extractions_json, Mode, Offline};
use vs2_conformance::strategy::arb_any_document;
use vs2_core::segment::{logical_blocks, logical_blocks_ctx, segment, segment_with_embedder};
use vs2_core::{DisambiguationMode, DocContext, Vs2Pipeline};
use vs2_docmodel::Document;
use vs2_serve::{
    default_config_for, FaultPlan, JobResult, JobSpec, JobStatus, ModelCache, ServiceOptions,
    DEFAULT_DOC_SEED,
};
use vs2_synth::{adversarial, generate_one, templated, DatasetConfig, DatasetId};

const MODES: [DisambiguationMode; 3] = [
    DisambiguationMode::Multimodal,
    DisambiguationMode::FirstMatch,
    DisambiguationMode::Lesk,
];

/// The core assertion: the arena path agrees with the owned reference
/// on `doc` — tree, blocks, candidates and extractions, every mode, byte
/// for byte.
fn assert_arena_equiv(pipeline: &Vs2Pipeline, doc: &Document) {
    let ctx = DocContext::build(doc);

    let owned_tree = segment(doc, &pipeline.config.segment);
    let ctx_tree = segment_with_embedder(doc, &pipeline.config.segment, &ctx.embedder());
    assert_eq!(
        format!("{owned_tree:?}"),
        format!("{ctx_tree:?}"),
        "layout trees diverged (doc {})",
        doc.id
    );

    let owned_blocks = logical_blocks(doc, &pipeline.config.segment);
    let ctx_blocks = logical_blocks_ctx(&ctx, &pipeline.config.segment);
    assert_eq!(
        format!("{owned_blocks:?}"),
        format!("{ctx_blocks:?}"),
        "logical blocks diverged (doc {})",
        doc.id
    );

    for mode in MODES {
        let mut p = pipeline.clone();
        p.config.disambiguation = mode;

        let owned_cands = p.candidates_on_blocks_naive(doc, &owned_blocks);
        let ctx_cands = p.candidates_on_blocks_ctx(&ctx, &ctx_blocks);
        let owned_json: Vec<String> = owned_cands
            .iter()
            .map(|(k, v)| format!("{k}={}", serde_json::to_string(&v.to_value()).unwrap()))
            .collect();
        let ctx_json: Vec<String> = ctx_cands
            .iter()
            .map(|(k, v)| format!("{k}={}", serde_json::to_string(&v.to_value()).unwrap()))
            .collect();
        assert_eq!(
            owned_json, ctx_json,
            "candidates diverged ({mode:?}, doc {})",
            doc.id
        );

        let owned_ex = p.extract_on_blocks_naive(doc, &owned_blocks);
        let ctx_ex = p.extract_on_blocks_ctx(&ctx, &ctx_blocks);
        assert_eq!(
            serde_json::to_string(&owned_ex.to_value()).unwrap(),
            serde_json::to_string(&ctx_ex.to_value()).unwrap(),
            "extractions diverged ({mode:?}, doc {})",
            doc.id
        );
    }
}

#[test]
fn arena_matches_owned_on_paper_datasets() {
    let cache = ModelCache::new();
    for dataset in DatasetId::EXTENDED {
        let pipeline = cache.pipeline_for(dataset, DEFAULT_DOC_SEED, default_config_for(dataset));
        for i in 0..6 {
            let doc = generate_one(dataset, i, DatasetConfig::new(1, DEFAULT_DOC_SEED)).doc;
            assert_arena_equiv(&pipeline, &doc);
        }
    }
}

#[test]
fn arena_matches_owned_on_templated_corpus() {
    let cache = ModelCache::new();
    let pipeline = cache.pipeline_for(
        DatasetId::Templated,
        DEFAULT_DOC_SEED,
        default_config_for(DatasetId::Templated),
    );
    for i in 0..2 * templated::FAMILIES {
        let doc = templated::generate_one(i, DEFAULT_DOC_SEED).doc;
        assert_arena_equiv(&pipeline, &doc);
    }
    for labelled in templated::adversarial_corpus(DEFAULT_DOC_SEED) {
        assert_arena_equiv(&pipeline, &labelled.doc);
    }
}

#[test]
fn arena_matches_owned_on_adversarial_layouts() {
    let cache = ModelCache::new();
    let pipeline = cache.pipeline_for(
        DatasetId::D1,
        DEFAULT_DOC_SEED,
        default_config_for(DatasetId::D1),
    );
    for (_, doc) in adversarial::corpus() {
        assert_arena_equiv(&pipeline, &doc);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary and degenerate documents (empty pages, zero-area boxes,
    /// duplicates, extreme aspect ratios — `arb_any_document` mixes them
    /// in) through the full arena-vs-owned witness.
    #[test]
    fn property_arena_equals_owned_on_arbitrary_documents(doc in arb_any_document()) {
        static PIPELINE: std::sync::OnceLock<Vs2Pipeline> = std::sync::OnceLock::new();
        let pipeline = PIPELINE.get_or_init(|| {
            let cache = ModelCache::new();
            cache.pipeline_for(
                DatasetId::D1,
                DEFAULT_DOC_SEED,
                default_config_for(DatasetId::D1),
            )
        });
        assert_arena_equiv(pipeline, &doc);
    }
}

/// The served battery: paper datasets plus two documents per templated
/// family, so the second pass over a family replays its plan.
fn service_batch() -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for i in 0..3 {
        for id in [DatasetId::D1, DatasetId::D2, DatasetId::D3] {
            specs.push(serving::synthetic(id, i));
        }
    }
    for i in 0..2 * templated::FAMILIES {
        specs.push(serving::synthetic(DatasetId::Templated, i));
    }
    specs
}

/// Serves `specs` `passes` times on one plan-cache service.
fn run_passes(
    workers: usize,
    faults: Option<FaultPlan>,
    specs: &[JobSpec],
    passes: usize,
) -> Vec<String> {
    let mode = Mode {
        faults,
        options: ServiceOptions {
            plan_cache: true,
            ..Default::default()
        },
        ..Mode::plain(workers)
    };
    serving::passes(&mode, specs, passes).0
}

/// Plan-replay arm: the ctx-path service — cold pass (plans learned) and
/// warm pass (plans replayed) — equals offline owned-path extraction for
/// every job, at 1 and 4 workers, and the passes are byte-identical to
/// each other.
#[test]
fn served_arena_path_equals_offline_owned_through_plan_replay() {
    let specs = service_batch();
    let expected = Offline::of(&specs).full;
    for workers in [1, 4] {
        let passes = run_passes(workers, None, &specs, 2);
        assert_eq!(
            passes[0], passes[1],
            "cold and warm (plan-replay) passes diverged ({workers} workers)"
        );
        for (pass, stdout) in passes.iter().enumerate() {
            assert_eq!(stdout.lines().count(), specs.len());
            for ((spec, want), line) in specs.iter().zip(&expected).zip(stdout.lines()) {
                let got: JobResult = serde_json::from_str(line).expect("result line parses");
                assert_eq!(got.status, JobStatus::Ok, "{line}");
                assert_eq!(
                    &extractions_json(&got.extractions),
                    want,
                    "served arena output diverged from offline owned extraction \
                     ({:?}, pass {pass}, {workers} workers)",
                    spec.dataset
                );
            }
        }
    }
}

/// Chaos arm: under deterministic fault injection the ctx-path service
/// stays byte-identical between 1 and 4 workers, pass for pass — worker
/// parallelism over shared arena state changes nothing, even on retry /
/// degraded paths.
#[test]
fn chaos_arena_service_identical_at_one_and_four_workers() {
    let specs = service_batch();
    let faults = Some(FaultPlan::chaos(0xA3E7_11D5));
    let single = run_passes(1, faults, &specs, 3);
    let parallel = run_passes(4, faults, &specs, 3);
    for (pass, (a, b)) in single.iter().zip(&parallel).enumerate() {
        assert_eq!(a, b, "chaos pass {pass} diverged between 1 and 4 workers");
    }
}
