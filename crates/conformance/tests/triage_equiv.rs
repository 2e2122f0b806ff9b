//! Triage-routing differential suite.
//!
//! Four contracts, each pinned byte-for-byte:
//!
//! 1. **Triage off is invisible.** The default service (no `--triage`)
//!    reproduces the golden fixtures exactly, at 1 and 4 workers — the
//!    router's existence must not perturb the unrouted path.
//! 2. **A `FullVs2` decision is invisible.** Every document the router
//!    sends to the full path extracts byte-identically to the unrouted
//!    pipeline; routing only ever changes cheap-routed documents.
//! 3. **The cheap path IS the degradation fallback.** Both segment with
//!    `cheap_blocks` and select through the context path, so a
//!    triage-cheap extraction equals what the serving tier's degraded
//!    lane produces for the same document.
//! 4. **Purity.** The decision is a pure function of the document: same
//!    doc → same decision across repeated runs, threads, and the
//!    arena-vs-owned seam, with permutation/translation metamorphic
//!    invariance where the underlying features are invariant.
//!
//! Served triage in combination with every other serving switch —
//! fault injection, admission, the plan cache, drain/resume — lives in
//! the serving matrix (`serving_matrix.rs`); the throughput/accuracy
//! release gate lives in `triage_perf.rs`.

use proptest::prelude::*;
use serde::Serialize as _;
use vs2_conformance::golden::{dataset_name, golden_path, render_snapshot, N_GOLDEN_DOCS};
use vs2_conformance::serving::{self, Mode};
use vs2_conformance::strategy::arb_any_document;
use vs2_conformance::transform::{permute_document, translate_document};
use vs2_core::triage::{cheap_blocks, triage_doc, TriageConfig, TriageDecision};
use vs2_core::{routed_blocks_ctx, DocContext, FingerprintConfig, SegmentConfig};
use vs2_serve::{default_config_for, JobSpec, JobStatus, ModelCache, DEFAULT_DOC_SEED};
use vs2_synth::{generate_one, DatasetConfig, DatasetId};

/// Contract 1: with triage off (the default), the served output over the
/// golden documents reassembles the checked-in fixtures byte for byte —
/// at 1 worker and at 4.
#[test]
fn triage_off_serving_output_matches_the_golden_fixtures() {
    for workers in [1, 4] {
        for dataset in DatasetId::EXTENDED {
            let specs: Vec<JobSpec> = (0..N_GOLDEN_DOCS)
                .map(|i| serving::synthetic(dataset, i))
                .collect();
            let run = serving::serve(&Mode::plain(workers), &specs).first;
            let rendered = render_snapshot(
                dataset,
                specs.iter().zip(run.results).map(|(spec, r)| {
                    assert_eq!(r.status, JobStatus::Ok, "golden doc {} failed", r.seq);
                    (spec.document().id, r.extractions)
                }),
            );
            let fixture = std::fs::read_to_string(golden_path(dataset))
                .expect("golden fixture exists (bless with the golden bin)");
            assert_eq!(
                rendered,
                fixture,
                "triage-off served output drifted from the {} golden at {workers} workers",
                dataset_name(dataset)
            );
        }
    }
}

/// Contract 2: routed `FullVs2` decisions are byte-identical to the
/// unrouted pipeline, document by document — and the corpus genuinely
/// exercises both branches (D1's skew gate forces full, D4 routes
/// cheap).
#[test]
fn routed_full_decisions_match_the_unrouted_pipeline_per_document() {
    let cache = ModelCache::new();
    let triage = TriageConfig::default();
    let mut full_seen = 0usize;
    let mut cheap_seen = 0usize;
    for dataset in DatasetId::EXTENDED {
        let pipeline = cache.pipeline_for(dataset, DEFAULT_DOC_SEED, default_config_for(dataset));
        for i in 0..N_GOLDEN_DOCS {
            let doc = generate_one(dataset, i, DatasetConfig::new(1, DEFAULT_DOC_SEED)).doc;
            let (routed, decision) = pipeline.extract_routed(&doc, &triage);
            match decision {
                TriageDecision::FullVs2 => {
                    full_seen += 1;
                    let unrouted = pipeline.extract_ctx(&doc);
                    assert_eq!(
                        serde_json::to_string(&routed.to_value()).unwrap(),
                        serde_json::to_string(&unrouted.to_value()).unwrap(),
                        "full-routed {} doc {i} diverged from the unrouted pipeline",
                        dataset_name(dataset)
                    );
                }
                TriageDecision::CheapPath => cheap_seen += 1,
                TriageDecision::PlanReplay => {
                    panic!("PlanReplay is impossible without a plan store")
                }
            }
        }
        // D1's fixed scan rotation trips the skew gate on every page.
        if dataset == DatasetId::D1 {
            assert_eq!(full_seen, N_GOLDEN_DOCS, "all D1 docs must route full");
        }
    }
    assert!(full_seen > 0 && cheap_seen > 0, "both branches must fire");
}

/// Contract 3: a triage-cheap extraction equals the degraded lane's
/// output for the same document — extraction over `cheap_blocks`
/// through the context select path, exactly what the serving tier's
/// degradation fallback runs.
#[test]
fn triage_cheap_equals_the_degradation_fallback() {
    let cache = ModelCache::new();
    let triage = TriageConfig::default();
    let mut cheap_seen = 0;
    for dataset in [DatasetId::D4, DatasetId::Templated] {
        let pipeline = cache.pipeline_for(dataset, DEFAULT_DOC_SEED, default_config_for(dataset));
        for i in 0..N_GOLDEN_DOCS {
            let doc = generate_one(dataset, i, DatasetConfig::new(1, DEFAULT_DOC_SEED)).doc;
            let (routed, decision) = pipeline.extract_routed(&doc, &triage);
            if decision == TriageDecision::CheapPath {
                cheap_seen += 1;
                let blocks = cheap_blocks(&doc, &triage.cheap);
                let degraded = pipeline.extract_on_blocks_ctx(&DocContext::build(&doc), &blocks);
                assert_eq!(
                    serde_json::to_string(&routed.to_value()).unwrap(),
                    serde_json::to_string(&degraded.to_value()).unwrap(),
                    "triage-cheap output diverged from the degraded lane ({} doc {i})",
                    dataset_name(dataset)
                );
            }
        }
    }
    assert!(cheap_seen > 0, "no document routed cheap");
}

/// Purity over the synthetic corpora: the decision is identical across
/// repeated runs, across threads, across the arena seam
/// (`routed_blocks_ctx` agrees with `triage_doc`), and under element
/// permutation.
#[test]
fn decision_is_stable_across_runs_threads_and_the_arena_seam() {
    let triage = TriageConfig::default();
    for dataset in DatasetId::EXTENDED {
        let seg = default_config_for(dataset).segment;
        for i in 0..N_GOLDEN_DOCS {
            let doc = generate_one(dataset, i, DatasetConfig::new(1, DEFAULT_DOC_SEED)).doc;
            let first = triage_doc(&doc, &seg, &triage);
            for _ in 0..3 {
                assert_eq!(triage_doc(&doc, &seg, &triage), first);
            }
            // Arena seam: the routed driver reaches the same decision.
            let ctx = DocContext::build(&doc);
            let (_, routed_decision, _) = routed_blocks_ctx(&ctx, &seg, &triage, None);
            assert_eq!(routed_decision, first);
            // Threads: the scorer shares no state.
            let from_threads: Vec<TriageDecision> = std::thread::scope(|scope| {
                (0..2)
                    .map(|_| scope.spawn(|| triage_doc(&doc, &seg, &triage)))
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect()
            });
            assert!(from_threads.iter().all(|d| *d == first));
            // Permutation: the features are order-free histograms.
            let shuffled = permute_document(&doc, 0x5EED ^ i as u64);
            assert_eq!(triage_doc(&shuffled, &seg, &triage), first);
        }
    }
}

proptest! {
    // 256 cases, all of which an uncapped run (as in CI) executes; the
    // features are one fingerprint pass per case, so the battery stays
    // cheap.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Purity on arbitrary documents: repeated scoring and the routed
    /// driver agree with the first decision.
    #[test]
    fn property_decision_is_pure(doc in arb_any_document()) {
        let seg = SegmentConfig::default();
        let triage = TriageConfig::default();
        let first = triage_doc(&doc, &seg, &triage);
        for _ in 0..3 {
            prop_assert_eq!(triage_doc(&doc, &seg, &triage), first);
        }
        let ctx = DocContext::build(&doc);
        let (_, decision, _) = routed_blocks_ctx(&ctx, &seg, &triage, None);
        prop_assert_eq!(decision, first);
    }

    /// Permutation invariance of the layout-feature rule: the occupancy
    /// histogram and counts are order-free. The skew gate is disabled
    /// here — float summation order can move the estimate by an ulp,
    /// which is the segmenter's own (separately pinned) contract, not
    /// the router's.
    #[test]
    fn property_decision_is_permutation_invariant(
        doc in arb_any_document(),
        seed in 0u64..1024,
    ) {
        let seg = SegmentConfig { deskew: false, ..SegmentConfig::default() };
        let triage = TriageConfig::default();
        let shuffled = permute_document(&doc, seed);
        prop_assert_eq!(
            triage_doc(&doc, &seg, &triage),
            triage_doc(&shuffled, &seg, &triage)
        );
    }

    /// Translation invariance by whole fingerprint cells: rigidly
    /// shifting all content by an exact multiple of the cell pitch
    /// (content staying on-page) preserves the occupancy multiset, so
    /// the decision cannot change.
    #[test]
    fn property_decision_is_cell_translation_invariant(
        doc in arb_any_document(),
        kx in 0usize..3,
        ky in 0usize..3,
    ) {
        let seg = SegmentConfig { deskew: false, ..SegmentConfig::default() };
        let triage = TriageConfig::default();
        let lattice = FingerprintConfig::default();
        let cols = lattice.grid_cols as f64;
        let rows = lattice.grid_rows as f64;
        let (dx, dy) = (kx as f64 * doc.width / cols, ky as f64 * doc.height / rows);
        // Keep every centroid strictly on-page after the shift and clear
        // of cell boundaries: on a boundary, the shifted float sum can
        // round into either cell — that is quantisation, not routing.
        let fits = doc.element_refs().iter().all(|r| {
            let c = doc.bbox_of(*r).centroid();
            c.x + dx < doc.width
                && c.y + dy < doc.height
                && lattice.boundary_margin(doc.width, doc.height, c) > 1e-6
        });
        if !fits {
            return; // vacuous case: the shift would clamp at the page edge
        }
        let moved = translate_document(&doc, dx, dy);
        prop_assert_eq!(
            triage_doc(&doc, &seg, &triage),
            triage_doc(&moved, &seg, &triage)
        );
    }
}
