//! Segment-stage performance gate: the packed fast path must deliver at
//! least the 3× speedup over the preserved naive segmenter that
//! motivated it.
//!
//! Both arms run full segmentation (`segment` — the packed fast path —
//! vs `segment_naive`, the executable spec) over the same 40-doc D1
//! corpus, the dataset where `vs2.segment` dominates cold extract p50.
//! Passes are interleaved and the minima compared (the most stable order
//! statistic, same methodology as the select and tracing-overhead
//! gates). The ≥3× ratio gate only arms under `--release` — unoptimised
//! builds distort the two paths differently (bounds checks land almost
//! entirely on the packed words), so a debug run checks parity only.
//! CI runs this under `--release` in the `release-gates` job.

use std::time::{Duration, Instant};

use vs2_core::segment::{segment, segment_naive};
use vs2_serve::{default_config_for, ModelCache, DEFAULT_DOC_SEED};
use vs2_synth::{generate, DatasetConfig, DatasetId};

/// The release-mode speedup floor, from the issue: ≥3× segment p50 on D1.
const RELEASE_SPEEDUP_FLOOR: f64 = 3.0;

#[test]
fn fast_segment_is_at_least_3x_naive_on_d1() {
    let cache = ModelCache::new();
    let pipeline = cache.pipeline_for(
        DatasetId::D1,
        DEFAULT_DOC_SEED,
        default_config_for(DatasetId::D1),
    );
    let seg = pipeline.config.segment;
    let docs: Vec<vs2_docmodel::Document> =
        generate(DatasetId::D1, DatasetConfig::new(40, DEFAULT_DOC_SEED))
            .into_iter()
            .map(|labeled| labeled.doc)
            .collect();

    let pass_fast = || {
        let started = Instant::now();
        for doc in &docs {
            std::hint::black_box(segment(doc, &seg));
        }
        started.elapsed()
    };
    let pass_naive = || {
        let started = Instant::now();
        for doc in &docs {
            std::hint::black_box(segment_naive(doc, &seg));
        }
        started.elapsed()
    };

    // Warm-up: fault in lazy state before timing anything.
    pass_fast();
    pass_naive();

    let mut best_fast = Duration::MAX;
    let mut best_naive = Duration::MAX;
    for _ in 0..3 {
        best_naive = best_naive.min(pass_naive());
        best_fast = best_fast.min(pass_fast());
    }

    let speedup = best_naive.as_secs_f64() / best_fast.as_secs_f64().max(1e-9);
    println!(
        "segment-perf: fast {:?} vs naive {:?} over {} docs (speedup {:.2}x)",
        best_fast,
        best_naive,
        docs.len(),
        speedup,
    );

    // Parity floor in any profile: fast must never be slower than naive
    // (small absolute slack so timer noise cannot fail a parity build).
    assert!(
        best_fast <= best_naive + Duration::from_millis(10),
        "fast segmentation regressed below the naive path: fast {best_fast:?} vs naive {best_naive:?}",
    );
    if cfg!(debug_assertions) {
        return;
    }
    assert!(
        speedup >= RELEASE_SPEEDUP_FLOOR,
        "fast segmentation speedup {speedup:.2}x is below the {RELEASE_SPEEDUP_FLOOR}x release floor \
         (fast {best_fast:?} vs naive {best_naive:?})",
    );
}
