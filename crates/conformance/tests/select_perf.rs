//! Select-stage performance gate: the indexed matcher must never be
//! slower than the naive reference it replaced.
//!
//! Both arms run the full search-and-select phase from the document
//! (`DocContext::build` + `candidates_on_blocks_ctx` vs
//! `candidates_on_blocks_naive`) over the same pre-segmented 60-doc D1
//! corpus — the dataset where the pattern inventory is largest and
//! select dominates end-to-end time. Passes are interleaved and the
//! minima compared (the most stable order statistic, same methodology as
//! the tracing-overhead gate), with a small absolute slack so timer
//! noise cannot fail a build that is actually at parity. CI runs this
//! under `--release` in the `release-gates` job; a debug-mode run is valid
//! too, just slower.

use std::time::{Duration, Instant};

use vs2_core::segment::logical_blocks;
use vs2_core::segment::LogicalBlock;
use vs2_core::DocContext;
use vs2_serve::{default_config_for, ModelCache, DEFAULT_DOC_SEED};
use vs2_synth::{generate, DatasetConfig, DatasetId};

#[test]
fn indexed_select_is_not_slower_than_naive() {
    let cache = ModelCache::new();
    let pipeline = cache.pipeline_for(
        DatasetId::D1,
        DEFAULT_DOC_SEED,
        default_config_for(DatasetId::D1),
    );
    let docs = generate(DatasetId::D1, DatasetConfig::new(60, DEFAULT_DOC_SEED));
    let segmented: Vec<(vs2_docmodel::Document, Vec<LogicalBlock>)> = docs
        .into_iter()
        .map(|labeled| {
            let blocks = logical_blocks(&labeled.doc, &pipeline.config.segment);
            (labeled.doc, blocks)
        })
        .collect();

    let pass_indexed = || {
        let started = Instant::now();
        for (doc, blocks) in &segmented {
            let ctx = DocContext::build(doc);
            std::hint::black_box(pipeline.candidates_on_blocks_ctx(&ctx, blocks));
        }
        started.elapsed()
    };
    let pass_naive = || {
        let started = Instant::now();
        for (doc, blocks) in &segmented {
            std::hint::black_box(pipeline.candidates_on_blocks_naive(doc, blocks));
        }
        started.elapsed()
    };

    // Warm-up: fault in lazy state before timing anything.
    pass_indexed();
    pass_naive();

    let mut best_indexed = Duration::MAX;
    let mut best_naive = Duration::MAX;
    for _ in 0..3 {
        best_naive = best_naive.min(pass_naive());
        best_indexed = best_indexed.min(pass_indexed());
    }

    let budget = best_naive + Duration::from_millis(10);
    assert!(
        best_indexed <= budget,
        "indexed select regressed below the naive matcher: indexed {:?} vs naive {:?}",
        best_indexed,
        best_naive,
    );
    println!(
        "select-perf: indexed {:?} vs naive {:?} over 60 docs (speedup {:.2}x)",
        best_indexed,
        best_naive,
        best_naive.as_secs_f64() / best_indexed.as_secs_f64().max(1e-9),
    );
}
