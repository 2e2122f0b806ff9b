//! End-to-end service tests: real pipeline, real synthetic documents.

use std::time::Duration;

use serde::Serialize;
use std::sync::Arc;

use vs2_serve::{
    AdmitConfig, BatchOptions, BatchRun, Completed, EngineConfig, ExtractService, FaultPlan,
    JobOutcome, JobSource, JobSpec, Lane, ServeError, ServiceOptions, DEFAULT_DOC_SEED,
};
use vs2_synth::dataset::{generate_one, DatasetConfig, DatasetId};

fn job(dataset: DatasetId, doc_index: usize) -> JobSpec {
    JobSpec {
        job_id: None,
        client: None,
        lane: None,
        dataset,
        source: JobSource::Synthetic {
            doc_index,
            seed: DEFAULT_DOC_SEED,
        },
        doc_cache: Default::default(),
    }
}

fn mixed_batch() -> Vec<JobSpec> {
    // Interleave datasets so worker scheduling and cache population
    // order genuinely vary between runs.
    (0..4)
        .flat_map(|i| {
            [
                job(DatasetId::D1, i),
                job(DatasetId::D2, i),
                job(DatasetId::D3, i),
            ]
        })
        .collect()
}

fn run_batch(workers: usize, specs: &[JobSpec]) -> Vec<String> {
    let mut service = ExtractService::with_options(
        EngineConfig {
            workers,
            queue_capacity: 4,
            job_timeout: Some(Duration::from_secs(60)),
            ..EngineConfig::default()
        },
        DEFAULT_DOC_SEED,
        None,
        ServiceOptions::default(),
        None,
    );
    for spec in specs {
        service.submit(spec.clone());
    }
    let results = service.drain();
    let stats = service.shutdown();
    assert_eq!(stats.ok, specs.len() as u64);
    results
        .iter()
        .map(|done: &Completed<_>| match &done.outcome {
            JobOutcome::Ok(extractions) => serde_json::to_string(&extractions.to_value()).unwrap(),
            other => panic!("job {} failed: {other:?}", done.seq),
        })
        .collect()
}

#[test]
fn output_is_identical_for_any_worker_count() {
    let specs = mixed_batch();
    let one = run_batch(1, &specs);
    for workers in [2, 4] {
        assert_eq!(
            run_batch(workers, &specs),
            one,
            "{workers}-worker output diverged from the 1-worker run"
        );
    }
}

#[test]
fn extractions_match_unserved_pipeline() {
    // A served job must produce exactly what a directly-built pipeline
    // produces on the same document.
    let dataset = DatasetId::D2;
    let spec = job(dataset, 1);
    let mut service = ExtractService::with_options(
        EngineConfig {
            workers: 2,
            queue_capacity: 2,
            ..EngineConfig::default()
        },
        DEFAULT_DOC_SEED,
        None,
        ServiceOptions::default(),
        None,
    );
    service.submit(spec.clone());
    let served = match service.drain().remove(0).outcome {
        JobOutcome::Ok(ex) => ex,
        other => panic!("{other:?}"),
    };

    let cache = vs2_serve::ModelCache::new();
    let pipeline = cache.pipeline_for(
        dataset,
        DEFAULT_DOC_SEED,
        vs2_serve::default_config_for(dataset),
    );
    let doc = generate_one(dataset, 1, DatasetConfig::new(1, DEFAULT_DOC_SEED)).doc;
    assert_eq!(served, pipeline.extract(&doc));
}

#[test]
fn one_model_learned_per_dataset() {
    // Single worker so cache hit/miss counts are deterministic; the
    // concurrent learn-once property is covered by the cache unit tests.
    let mut service = ExtractService::with_options(
        EngineConfig {
            workers: 1,
            queue_capacity: 8,
            ..EngineConfig::default()
        },
        DEFAULT_DOC_SEED,
        None,
        ServiceOptions::default(),
        None,
    );
    for spec in mixed_batch() {
        service.submit(spec);
    }
    let results = service.drain();
    assert_eq!(results.len(), 12);
    let (hits, misses) = service.cache_counters();
    assert_eq!(misses, 3, "one learn per dataset, shared across workers");
    assert_eq!(hits + misses, 12);
}

#[test]
fn job_soft_timeout_quarantines_on_the_first_trip() {
    // A 1µs deadline is shorter than real extraction, so every attempt
    // overruns: the first trip quarantines the job as a timeout — and
    // the service must keep running, not wedge or panic.
    let mut service = ExtractService::with_options(
        EngineConfig {
            workers: 1,
            queue_capacity: 4,
            job_timeout: Some(Duration::from_micros(1)),
            ..EngineConfig::default()
        },
        DEFAULT_DOC_SEED,
        None,
        ServiceOptions::default(),
        None,
    );
    service.submit(job(DatasetId::D2, 0));
    service.submit(job(DatasetId::D2, 1));
    let results = service.drain();
    assert_eq!(results.len(), 2);
    for done in &results {
        assert!(
            matches!(done.outcome, JobOutcome::Failed(ServeError::Timeout { .. })),
            "a 1µs deadline cannot be met by real extraction (seq {}): {:?}",
            done.seq,
            done.outcome
        );
        assert!(done.latency >= Duration::from_micros(1));
    }
    let ledger = service.quarantine();
    assert_eq!(ledger.len(), 2);
    assert!(ledger.iter().all(|e| e.error.kind() == "timeout"));
    let stats = service.shutdown();
    assert_eq!(stats.timed_out, 2, "one trip per job");
    assert_eq!(stats.ok, 0);
    assert_eq!(stats.quarantined, 2);
    assert_eq!(stats.completed, 2);
}

#[test]
fn queue_backpressure_stalls_are_counted() {
    // A 1-deep queue over a single worker doing real extraction forces
    // the submitting thread to block; the stall counter must record it.
    let mut service = ExtractService::with_options(
        EngineConfig {
            workers: 1,
            queue_capacity: 1,
            ..EngineConfig::default()
        },
        DEFAULT_DOC_SEED,
        None,
        ServiceOptions::default(),
        None,
    );
    for i in 0..6 {
        service.submit(job(DatasetId::D2, i));
    }
    let results = service.drain();
    assert_eq!(results.len(), 6);
    let stats = service.shutdown();
    assert_eq!(stats.ok, 6);
    assert!(
        stats.queue_stalls > 0,
        "six submissions through a 1-deep queue must stall at least once"
    );
}

#[test]
fn poisoned_jobs_degrade_to_xycut_baseline() {
    // A plan that injects a panic at every site fails every job's one
    // attempt; the service must answer each job through the XY-cut
    // fallback and mark it degraded — nothing is lost.
    let plan = FaultPlan {
        seed: 5,
        panic_per_mille: 1000,
        latency_per_mille: 0,
        injected_latency: Duration::ZERO,
    };
    let run = |workers: usize| {
        let mut service = ExtractService::with_options(
            EngineConfig {
                workers,
                queue_capacity: 4,
                faults: Some(plan),
                ..EngineConfig::default()
            },
            DEFAULT_DOC_SEED,
            None,
            ServiceOptions::default(),
            None,
        );
        for i in 0..3 {
            service.submit(job(DatasetId::D1, i));
        }
        let results = service.drain();
        let stats = service.stats();
        assert_eq!(stats.degraded, 3);
        assert_eq!(stats.panicked, 3, "the first site panics, once per job");
        assert_eq!(stats.quarantined, 0, "the fallback answers every job");
        assert!(service.quarantine().is_empty());
        results
    };
    let results = run(2);
    let cache = vs2_serve::ModelCache::new();
    let pipeline = cache.pipeline_for(
        DatasetId::D1,
        DEFAULT_DOC_SEED,
        vs2_serve::default_config_for(DatasetId::D1),
    );
    for (i, done) in results.iter().enumerate() {
        match &done.outcome {
            JobOutcome::Degraded { output, error } => {
                let panic =
                    format!("fatal: panic: injected panic at model_build (seq {i}, attempt 0)");
                assert_eq!(error.to_string(), panic);
                // The degraded answer is exactly the XY-cut cheap-path
                // segmentation driven through the same learned patterns.
                let doc =
                    generate_one(DatasetId::D1, i, DatasetConfig::new(1, DEFAULT_DOC_SEED)).doc;
                let blocks = vs2_core::cheap_blocks(&doc, &vs2_core::TriageConfig::default().cheap);
                assert_eq!(output, &pipeline.extract_on_blocks(&doc, &blocks));
            }
            other => panic!("expected degraded, got {other:?}"),
        }
    }
    // Degraded output is as deterministic as the healthy path.
    let again = run(1);
    for (a, b) in results.iter().zip(&again) {
        assert_eq!(a.outcome, b.outcome);
    }
}

#[test]
fn inert_fault_plan_changes_nothing() {
    // Enabling the fault machinery with all-zero rates must produce
    // byte-identical extractions to a plain run.
    let specs: Vec<JobSpec> = (0..3).map(|i| job(DatasetId::D3, i)).collect();
    let baseline = run_batch(2, &specs);
    let mut service = ExtractService::with_options(
        EngineConfig {
            workers: 2,
            queue_capacity: 4,
            faults: Some(FaultPlan::inert(123)),
            ..EngineConfig::default()
        },
        DEFAULT_DOC_SEED,
        None,
        ServiceOptions::default(),
        None,
    );
    for spec in &specs {
        service.submit(spec.clone());
    }
    let results = service.drain();
    let with_inert: Vec<String> = results
        .iter()
        .map(|done| match &done.outcome {
            JobOutcome::Ok(ex) => serde_json::to_string(&ex.to_value()).unwrap(),
            other => panic!("inert plan must not fail jobs: {other:?}"),
        })
        .collect();
    assert_eq!(with_inert, baseline);
}

#[test]
fn inline_geometry_is_checked_on_the_in_process_path() {
    // A hand-built inline spec skips the wire parser's check; the service
    // must still refuse it: quarantined as fatal with the field named,
    // on the primary path and on the admission degrade lane alike.
    let bad_job = |edit: fn(&mut vs2_docmodel::Document)| {
        let mut doc = generate_one(DatasetId::D4, 0, DatasetConfig::new(1, DEFAULT_DOC_SEED)).doc;
        edit(&mut doc);
        JobSpec {
            client: Some("flood".into()),
            source: JobSource::Inline(Arc::new(doc)),
            ..job(DatasetId::D4, 0)
        }
    };
    // One bucket token and no refill: the first job runs the primary
    // path, the second is routed straight to the fallback.
    let admit = AdmitConfig::for_queue(4)
        .inert_pressure()
        .with_buckets(1, 0);
    let mut service = ExtractService::with_options(
        EngineConfig {
            workers: 1,
            queue_capacity: 4,
            admit: Some(admit),
            ..EngineConfig::default()
        },
        DEFAULT_DOC_SEED,
        None,
        ServiceOptions::default(),
        None,
    );
    service.submit_spec(bad_job(|d| d.texts[0].bbox.w = -2.0), Lane::Batch);
    service.submit_spec(bad_job(|d| d.width = f64::NAN), Lane::Batch);
    let results = service.drain();
    let fields = ["doc.texts[0].bbox.w = -2: ", "doc.width = NaN: "];
    for (done, field) in results.iter().zip(fields) {
        match &done.outcome {
            JobOutcome::Failed(ServeError::Fatal(msg)) => {
                assert!(msg.starts_with(field), "seq {}: {msg}", done.seq)
            }
            other => panic!("seq {}: expected a fatal failure, got {other:?}", done.seq),
        }
    }
    assert_eq!(service.quarantine().len(), 2);
    let stats = service.shutdown();
    assert_eq!((stats.ok, stats.degraded, stats.quarantined), (0, 0, 2));
}

fn plan_cache_service(model_seed: u64) -> ExtractService {
    ExtractService::with_options(
        EngineConfig {
            workers: 2,
            queue_capacity: 4,
            ..EngineConfig::default()
        },
        model_seed,
        None,
        ServiceOptions {
            plan_cache: true,
            ..ServiceOptions::default()
        },
        None,
    )
}

fn serve_lines(service: &ExtractService, input: &str) -> BatchRun {
    let opts = BatchOptions::default();
    vs2_serve::run_batch(service, std::io::Cursor::new(input), std::io::sink(), &opts)
}

#[test]
fn warm_start_admits_only_namespaces_the_service_looks_up() {
    // Three documents per family, so the exporting run learns plans.
    let input: String = (0..3 * vs2_synth::templated::FAMILIES)
        .map(|i| format!("{{\"dataset\":\"Templated\",\"doc_index\":{i}}}\n"))
        .collect();
    let snapshot_under = |model_seed: u64| {
        let service = plan_cache_service(model_seed);
        let run = serve_lines(&service, &input);
        let snapshot = service.handoff_snapshot(&run, None);
        service.shutdown();
        assert!(
            !snapshot.plans.is_empty(),
            "seed {model_seed} learned no plans"
        );
        snapshot
    };

    // Plans learned under another model seed live in a namespace no job
    // of this service can address: nothing is admitted or carried on.
    let foreign = snapshot_under(1);
    let successor = plan_cache_service(DEFAULT_DOC_SEED);
    assert_eq!(successor.warm_start(&foreign), 0);
    let idle = serve_lines(&successor, "");
    assert!(successor.handoff_snapshot(&idle, None).plans.is_empty());
    successor.shutdown();

    // A same-seed snapshot admits every plan, and the repeat traffic
    // replays them without a miss.
    let same = snapshot_under(DEFAULT_DOC_SEED);
    let exported: usize = same.plans.iter().map(|ns| ns.entries.len()).sum();
    let successor = plan_cache_service(DEFAULT_DOC_SEED);
    assert_eq!(successor.warm_start(&same), exported);
    serve_lines(&successor, &input);
    let plans = successor.cache_snapshot().plans;
    assert_eq!(plans.misses, 0, "{plans:?}");
    assert!(plans.hits > 0, "{plans:?}");
    successor.shutdown();
}
