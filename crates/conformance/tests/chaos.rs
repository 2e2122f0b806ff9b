//! Chaos suite: the serving layer under deterministic fault injection.
//!
//! A seeded [`FaultPlan`] injects panics, transient errors and latency
//! at the pipeline's named sites (model build / segment / select). The
//! plan is a pure function of `(seed, site, seq, attempt)`, so for a
//! fixed fault seed an entire run — which jobs degrade, which retry,
//! which quarantine, and every extraction byte — must be reproducible
//! regardless of worker count or scheduling order. These tests pin that
//! contract, plus the ledger's bookkeeping invariants.
//!
//! Chaos runs are seeded and deliberately excluded from the golden
//! snapshots (see EXPERIMENTS.md): goldens pin the fault-free contract,
//! this suite pins the faulted one. All runs here use `job_timeout:
//! None` — watchdog deadlines are wall-clock and therefore outside the
//! determinism contract (they get their own engine unit tests).

use serde::Serialize as _;
use vs2_serve::{
    default_config_for, BatchEngine, EngineConfig, ExtractService, FaultPlan, FaultSite,
    JobOutcome, JobSource, JobSpec, ModelCache, RetryPolicy, ServeError, DEFAULT_DOC_SEED,
};
use vs2_synth::{adversarial, DatasetId};

const FAULT_SEED: u64 = 0xC4A0_5EED;

/// Synthetic D1 documents plus the whole adversarial corpus, served as
/// inline D1 jobs — the hostile documents exercise the degradation
/// fallback on inputs the XY-cut segmenter itself finds difficult.
fn chaos_batch() -> Vec<JobSpec> {
    let mut specs: Vec<JobSpec> = (0..6)
        .map(|doc_index| JobSpec {
            job_id: None,
            client: None,
            lane: None,
            dataset: DatasetId::D1,
            source: JobSource::Synthetic {
                doc_index,
                seed: DEFAULT_DOC_SEED,
            },
            doc_cache: Default::default(),
        })
        .collect();
    specs.extend(
        adversarial::corpus()
            .into_iter()
            .map(|(name, doc)| JobSpec {
                job_id: Some(name.to_string()),
                client: None,
                lane: None,
                dataset: DatasetId::D1,
                source: JobSource::Inline(std::sync::Arc::new(doc)),
                doc_cache: Default::default(),
            }),
    );
    specs
}

fn engine_config(workers: usize, faults: Option<FaultPlan>) -> EngineConfig {
    EngineConfig {
        workers,
        queue_capacity: 8,
        job_timeout: None,
        retry: RetryPolicy::immediate(3),
        faults,
        admit: None,
    }
}

/// One job's outcome, serialised without wall-clock fields: everything
/// that participates in the determinism contract and nothing that
/// doesn't.
fn render(done: &vs2_serve::Completed<Vec<vs2_core::Extraction>>) -> String {
    let (label, error, extractions) = match &done.outcome {
        JobOutcome::Ok(ex) => ("ok", String::new(), ex),
        JobOutcome::Degraded { output, error } => ("degraded", error.to_string(), output),
        JobOutcome::Failed(error) => {
            static EMPTY: Vec<vs2_core::Extraction> = Vec::new();
            ("failed", error.to_string(), &EMPTY)
        }
        JobOutcome::Shed(reason) => {
            static EMPTY: Vec<vs2_core::Extraction> = Vec::new();
            ("shed", reason.to_string(), &EMPTY)
        }
    };
    format!(
        "{} seq={} attempts={} error={:?} extractions={}",
        label,
        done.seq,
        done.attempts,
        error,
        serde_json::to_string(&extractions.to_value()).unwrap()
    )
}

/// Runs the chaos batch and returns every job rendered in submission
/// order, plus the rendered quarantine ledger (sorted by seq — ledger
/// order is quarantine-time order, which scheduling may permute).
fn run_service(workers: usize, faults: Option<FaultPlan>) -> (Vec<String>, Vec<String>) {
    let mut service = ExtractService::new(engine_config(workers, faults), DEFAULT_DOC_SEED, None);
    for spec in chaos_batch() {
        service.submit(spec);
    }
    let results = service.drain();
    let rendered: Vec<String> = results.iter().map(render).collect();
    let mut ledger = service.quarantine();
    ledger.sort_by_key(|e| e.seq);
    let ledger_rendered: Vec<String> = ledger
        .iter()
        .map(|e| {
            format!(
                "seq={} attempts={} kind={} error={}",
                e.seq,
                e.attempts,
                e.error.kind(),
                e.error
            )
        })
        .collect();
    // Exactly-once: every submitted seq has exactly one outcome, in
    // order, and the counters agree with the outcomes.
    let stats = service.shutdown();
    assert_eq!(results.len(), chaos_batch().len());
    for (i, done) in results.iter().enumerate() {
        assert_eq!(done.seq, i as u64, "outcomes must replay submission order");
    }
    assert_eq!(stats.completed, results.len() as u64);
    assert_eq!(
        stats.completed,
        stats.ok + stats.degraded + stats.quarantined
    );
    let failed = results
        .iter()
        .filter(|r| matches!(r.outcome, JobOutcome::Failed(_)))
        .count() as u64;
    assert_eq!(stats.quarantined, failed);
    assert_eq!(ledger_rendered.len() as u64, failed);
    (rendered, ledger_rendered)
}

#[test]
fn chaos_run_is_deterministic_across_worker_counts_and_repeats() {
    let plan = Some(FaultPlan::chaos(FAULT_SEED));
    let one = run_service(1, plan);
    let four = run_service(4, plan);
    assert_eq!(
        one, four,
        "a fixed fault seed must produce identical output for 1 and 4 workers"
    );
    let again = run_service(4, plan);
    assert_eq!(four, again, "repeat runs must be byte-identical");
    // The chosen seed must actually exercise the fault machinery:
    // something non-ok, something still ok.
    assert!(
        one.0.iter().any(|r| !r.starts_with("ok ")),
        "chaos seed fired no faults — pick a different FAULT_SEED"
    );
    assert!(
        one.0.iter().any(|r| r.starts_with("ok ")),
        "chaos seed broke every job — pick a different FAULT_SEED"
    );
}

#[test]
fn fault_free_jobs_are_untouched_by_their_neighbors_faults() {
    let plan = FaultPlan::chaos(FAULT_SEED);
    let baseline = run_service(2, None);
    let chaotic = run_service(2, Some(plan));
    let mut clean_jobs = 0;
    for seq in 0..chaos_batch().len() as u64 {
        // A job is clean if attempt 0 hits no panic or transient fault
        // at any site — it then completes first try; injected latency
        // may slow it but must not change a byte of its output.
        let clean = FaultSite::all().iter().all(|&site| {
            !matches!(
                plan.decide(site, seq, 0),
                Some(vs2_serve::FaultKind::Panic) | Some(vs2_serve::FaultKind::Transient)
            )
        });
        if clean {
            clean_jobs += 1;
            assert_eq!(
                chaotic.0[seq as usize], baseline.0[seq as usize],
                "fault-free job {seq} diverged under its neighbors' chaos"
            );
        }
    }
    assert!(clean_jobs > 0, "no clean jobs — the comparison is vacuous");
}

#[test]
fn inert_plan_is_indistinguishable_from_no_plan() {
    let disabled = run_service(2, None);
    let inert = run_service(2, Some(FaultPlan::inert(FAULT_SEED)));
    assert_eq!(disabled, inert);
    assert!(
        disabled.1.is_empty(),
        "fault-free adversarial corpus must not quarantine"
    );
    assert!(
        disabled.0.iter().all(|r| r.starts_with("ok ")),
        "fault-free adversarial corpus must extract on the primary path"
    );
}

/// The degradation fallback (XY-cut segmentation + the served model)
/// runs the same indexed select stage as the primary path — and the
/// indexed matcher stays equivalent to the naive reference on degraded
/// block partitions too. Each degraded job's served output must equal a
/// locally recomputed XY-cut extraction through *both* matchers.
#[test]
fn degraded_fallback_goes_through_the_indexed_matcher() {
    let plan = Some(FaultPlan::chaos(FAULT_SEED));
    let mut service = ExtractService::new(engine_config(2, plan), DEFAULT_DOC_SEED, None);
    let specs = chaos_batch();
    for spec in specs.clone() {
        service.submit(spec);
    }
    let results = service.drain();
    service.shutdown();

    let cache = ModelCache::new();
    let mut degraded = 0;
    for (spec, done) in specs.iter().zip(&results) {
        let JobOutcome::Degraded { output, .. } = &done.outcome else {
            continue;
        };
        degraded += 1;
        let pipeline = cache.pipeline_for(
            spec.dataset,
            DEFAULT_DOC_SEED,
            default_config_for(spec.dataset),
        );
        let doc = spec.document();
        let blocks = vs2_core::cheap_blocks(&doc, &vs2_core::TriageConfig::default().cheap);
        let indexed = pipeline.extract_on_blocks(&doc, &blocks);
        let naive = pipeline.extract_on_blocks_naive(&doc, &blocks);
        let served = serde_json::to_string(&output.to_value()).unwrap();
        assert_eq!(
            served,
            serde_json::to_string(&indexed.to_value()).unwrap(),
            "served degraded output diverged from local XY-cut extraction (seq {})",
            done.seq
        );
        assert_eq!(
            serde_json::to_string(&indexed.to_value()).unwrap(),
            serde_json::to_string(&naive.to_value()).unwrap(),
            "matchers diverged on the degraded partition (seq {})",
            done.seq
        );
    }
    assert!(
        degraded > 0,
        "chaos seed degraded no jobs — the comparison is vacuous"
    );
}

#[test]
fn quarantine_ledger_is_consistent_and_append_only() {
    // A fallback-less engine with a high transient rate: some jobs must
    // exhaust their budget and land in the ledger with no answer.
    let plan = FaultPlan {
        seed: FAULT_SEED,
        panic_per_mille: 100,
        transient_per_mille: 500,
        latency_per_mille: 0,
        injected_latency: std::time::Duration::ZERO,
    };
    let run = |workers: usize| {
        let mut engine: BatchEngine<u64, u64> =
            BatchEngine::new(engine_config(workers, Some(plan)), |job, ctx| {
                for site in FaultSite::all() {
                    ctx.checkpoint(site)?;
                }
                Ok(job * 2)
            });
        // Two submission waves with a drain between them: the ledger
        // must only ever grow, and wave-1 entries must survive wave 2.
        for j in 0..12u64 {
            engine.submit(j);
        }
        let first = engine.drain();
        let ledger_after_first = engine.quarantine();
        for j in 12..24u64 {
            engine.submit(j);
        }
        let second = engine.drain();
        let ledger_final = engine.quarantine();
        assert!(ledger_final.len() >= ledger_after_first.len());
        assert_eq!(
            &ledger_final[..ledger_after_first.len()],
            &ledger_after_first[..],
            "drain must not rewrite earlier quarantine entries"
        );
        let stats = engine.shutdown();
        assert_eq!(stats.quarantined, ledger_final.len() as u64);
        let failed: Vec<u64> = first
            .iter()
            .chain(&second)
            .filter(|c| matches!(c.outcome, JobOutcome::Failed(_)))
            .map(|c| c.seq)
            .collect();
        assert_eq!(failed.len(), ledger_final.len());
        let mut ledger_seqs: Vec<u64> = ledger_final.iter().map(|e| e.seq).collect();
        ledger_seqs.sort_unstable();
        let mut unique = ledger_seqs.clone();
        unique.dedup();
        assert_eq!(ledger_seqs, unique, "one ledger entry per quarantined job");
        let mut failed_sorted = failed;
        failed_sorted.sort_unstable();
        assert_eq!(ledger_seqs, failed_sorted, "ledger mirrors failed outcomes");
        for entry in &ledger_final {
            match &entry.error {
                ServeError::Poison { attempts, .. } => {
                    assert_eq!(*attempts, 3, "poison spends the whole budget");
                    assert_eq!(entry.attempts, 3);
                }
                ServeError::Fatal(msg) => {
                    assert!(msg.contains("injected panic"), "{msg}");
                }
                other => panic!("unexpected quarantine error {other:?}"),
            }
        }
        let mut rendered: Vec<String> = ledger_final
            .iter()
            .map(|e| format!("{} {} {}", e.seq, e.attempts, e.error))
            .collect();
        rendered.sort();
        rendered
    };
    let quarantined = run(1);
    assert!(
        !quarantined.is_empty(),
        "the plan must quarantine at least one job — adjust rates"
    );
    assert_eq!(run(4), quarantined, "quarantine set is seed-determined");
}
