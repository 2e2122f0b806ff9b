//! Differential tests: independent execution paths through the same
//! pipeline must produce byte-identical results.
//!
//! Two axes are compared: the served path (`run_batch` over an
//! `ExtractService`, worker threads, model cache) versus a directly
//! built `Vs2Pipeline`, and a 1-worker engine versus an N-worker engine
//! over an interleaved batch. Results are compared as serialised JSON so
//! every field — entity, value, geometry, score — participates in the
//! comparison.

use std::sync::Arc;

use vs2_conformance::serving::{self, extractions_json, Mode, Run};
use vs2_serve::{default_config_for, JobSource, JobSpec, JobStatus, ModelCache, DEFAULT_DOC_SEED};
use vs2_synth::{generate_one, DatasetConfig, DatasetId};

fn interleaved_batch(per_dataset: usize) -> Vec<JobSpec> {
    (0..per_dataset)
        .flat_map(|i| {
            [DatasetId::D1, DatasetId::D2, DatasetId::D3].map(|d| serving::synthetic(d, i))
        })
        .collect()
}

/// Serves `specs` on a fresh service and checks every job succeeded.
fn run(workers: usize, queue_capacity: usize, specs: &[JobSpec]) -> Run {
    let mode = Mode {
        queue_capacity,
        ..Mode::plain(workers)
    };
    let run = serving::serve(&mode, specs).first;
    for r in &run.results {
        assert_eq!(
            r.status,
            JobStatus::Ok,
            "job {} failed: {:?}",
            r.seq,
            r.error
        );
    }
    run
}

/// Differential 1: the served path must agree byte-for-byte with a
/// directly constructed pipeline on every dataset and document.
#[test]
fn served_extractions_equal_direct_pipeline() {
    let specs = interleaved_batch(3);
    let served = run(2, 4, &specs);

    let cache = ModelCache::new();
    for (spec, result) in specs.iter().zip(&served.results) {
        let pipeline = cache.pipeline_for(
            spec.dataset,
            DEFAULT_DOC_SEED,
            default_config_for(spec.dataset),
        );
        let JobSource::Synthetic { doc_index, seed } = &spec.source else {
            panic!("batch is synthetic by construction");
        };
        let doc = generate_one(spec.dataset, *doc_index, DatasetConfig::new(1, *seed)).doc;
        assert_eq!(
            extractions_json(&pipeline.extract(&doc)),
            extractions_json(&result.extractions),
            "served output diverged from direct extraction for {:?} doc {doc_index}",
            spec.dataset
        );
    }
}

/// Differential 2: worker parallelism must not change results — a
/// 1-worker run and 4-worker runs (including one with a tight queue that
/// forces backpressure) are byte-identical.
#[test]
fn one_worker_and_many_workers_are_byte_identical() {
    let specs = interleaved_batch(4);
    let sequential = run(1, 4, &specs);
    assert_eq!(sequential.results.len(), specs.len());
    for (workers, queue_capacity) in [(4, 8), (4, 1)] {
        assert_eq!(
            run(workers, queue_capacity, &specs).stdout,
            sequential.stdout,
            "{workers}-worker / queue {queue_capacity} run diverged from sequential"
        );
    }
}

/// Differential 3: a document submitted inline must extract identically
/// to the same document fetched through the synthetic source.
#[test]
fn inline_and_synthetic_sources_agree() {
    let dataset = DatasetId::D3;
    let synthetic_spec = serving::synthetic(dataset, 2);
    let inline_spec = JobSpec {
        source: JobSource::Inline(Arc::new(synthetic_spec.document())),
        ..serving::synthetic(dataset, 2)
    };
    let synthetic = run(2, 4, &[synthetic_spec]);
    let inline = run(2, 4, &[inline_spec]);
    assert_eq!(
        extractions_json(&synthetic.results[0].extractions),
        extractions_json(&inline.results[0].extractions)
    );
}
