//! Chaos suite: the serving layer under deterministic fault injection.
//!
//! A seeded [`FaultPlan`] injects panics and latency at the pipeline's
//! named sites (model build / segment / select). The plan is a pure
//! function of `(seed, site, seq)`, so for a fixed fault seed an entire
//! run — which jobs degrade, which quarantine, and every extraction
//! byte — must be reproducible
//! regardless of worker count or scheduling order. These tests pin that
//! contract on a chaos batch, plus the ledger's bookkeeping invariants;
//! the serving matrix (`serving_matrix.rs`) pins it again in every
//! combination with the other serving switches.
//!
//! Chaos runs are seeded and deliberately excluded from the golden
//! snapshots (see EXPERIMENTS.md): goldens pin the fault-free contract.

use vs2_conformance::serving::{self, Mode, Offline, Run, FAULT_SEED};
use vs2_serve::{BatchEngine, FaultPlan, FaultSite, JobOutcome, JobSpec, JobStatus, ServeError};
use vs2_synth::DatasetId;

/// Synthetic D1 documents plus the whole adversarial corpus, served as
/// inline D1 jobs.
fn chaos_batch() -> Vec<JobSpec> {
    (0..6)
        .map(|doc_index| serving::synthetic(DatasetId::D1, doc_index))
        .chain(serving::adversarial_jobs())
        .collect()
}

/// Serves the chaos batch under the chaos plan and checks exactly-once
/// accounting.
fn run_chaos(workers: usize) -> Run {
    let specs = chaos_batch();
    let mode = Mode {
        faults: Some(FaultPlan::chaos(FAULT_SEED)),
        ..Mode::plain(workers)
    };
    let run = serving::serve(&mode, &specs).first;
    run.assert_exactly_once(
        &format!("chaos at {workers} workers"),
        0,
        specs.len() as u64,
    );
    assert_eq!(run.stats.shed, 0, "nothing admits, so nothing sheds");
    run
}

#[test]
fn chaos_run_is_deterministic_across_worker_counts_and_repeats() {
    let one = run_chaos(1);
    let four = run_chaos(4);
    assert_eq!(
        one.stdout, four.stdout,
        "a fixed fault seed must produce identical output for 1 and 4 workers"
    );
    assert_eq!(one.stats.panicked, four.stats.panicked);
    let again = run_chaos(4);
    assert_eq!(
        four.stdout, again.stdout,
        "repeat runs must be byte-identical"
    );
    assert_eq!(four.stats.panicked, again.stats.panicked);
    // The chosen seed must actually exercise the fault machinery:
    // something non-ok, something still ok.
    assert!(
        one.results.iter().any(|r| r.status != JobStatus::Ok),
        "chaos seed fired no faults — pick a different FAULT_SEED"
    );
    assert!(
        one.results.iter().any(|r| r.status == JobStatus::Ok),
        "chaos seed broke every job — pick a different FAULT_SEED"
    );
}

/// The degradation fallback (XY-cut segmentation + the served model)
/// runs the same indexed select stage as the primary path — and the
/// indexed matcher stays equivalent to the naive reference on degraded
/// block partitions too. Each degraded job's served output must equal a
/// locally recomputed XY-cut extraction through *both* matchers.
#[test]
fn degraded_fallback_goes_through_the_indexed_matcher() {
    let run = run_chaos(2);
    let answers: Vec<_> = run.results.iter().collect();
    let degraded = Offline::of(&chaos_batch()).assert_degraded_are_fallback("chaos", &answers);
    assert!(
        degraded > 0,
        "chaos seed degraded no jobs — the comparison is vacuous"
    );
}

#[test]
fn inert_plan_is_indistinguishable_from_no_plan() {
    let specs = chaos_batch();
    let disabled = serving::serve(&Mode::plain(2), &specs).first;
    let inert = Mode {
        faults: Some(FaultPlan::inert(FAULT_SEED)),
        ..Mode::plain(2)
    };
    let inert = serving::serve(&inert, &specs).first;
    assert_eq!(disabled.stdout, inert.stdout);
    assert!(
        disabled.quarantine.is_empty(),
        "fault-free adversarial corpus must not quarantine"
    );
    assert!(
        disabled.results.iter().all(|r| r.status == JobStatus::Ok),
        "fault-free adversarial corpus must extract on the primary path"
    );
}

#[test]
fn quarantine_ledger_is_consistent_and_append_only() {
    // A fallback-less engine under injected panics: the jobs that draw
    // one land in the ledger with no answer.
    let plan = FaultPlan {
        seed: FAULT_SEED,
        panic_per_mille: 100,
        latency_per_mille: 0,
        injected_latency: std::time::Duration::ZERO,
    };
    let run = |workers: usize| {
        let config = Mode {
            faults: Some(plan),
            ..Mode::plain(workers)
        }
        .engine_config();
        let mut engine: BatchEngine<u64, u64> = BatchEngine::new(config, |job, ctx| {
            for site in FaultSite::all() {
                ctx.checkpoint(site);
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
                ServeError::Fatal(msg) => {
                    assert!(msg.contains("injected panic"), "{msg}");
                }
                other => panic!("unexpected quarantine error {other:?}"),
            }
        }
        assert_eq!(stats.panicked, ledger_final.len() as u64, "one per job");
        let mut rendered: Vec<String> = ledger_final
            .iter()
            .map(|e| format!("{} {}", e.seq, e.error))
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
