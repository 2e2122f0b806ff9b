//! Overload suite: admission control, fairness lanes and load shedding
//! under a two-wave overload scenario. The serving matrix
//! (`serving_matrix.rs`) additionally pins token-bucket admission in
//! every combination with chaos faults, drain/resume, triage and the
//! plan cache, and an inert controller byte-indistinguishable from none.
//!
//! The contract pinned here:
//!
//! * **Fairness** — a flooding batch-lane client exhausting its token
//!   bucket degrades (or sheds) *its own* traffic only; an interleaved
//!   interactive client inside its own budget is never shed and never
//!   degraded.
//! * **Determinism** — the token-bucket lane (refill driven by the
//!   admission tick counter, not wall clock) produces byte-identical
//!   runs for 1 and 4 workers, with and without chaos fault injection.
//! * **Typed overflow** — interactive jobs past their bucket shed with
//!   typed, in-order outcomes and never run.
//! * **Exactly-once accounting under real pressure** — pressure-watermark
//!   shedding (backlog depth / latency EWMA) is wall-clock-coupled, so
//!   it is pinned only up to accounting, plus the all-shed rule at
//!   saturation.

use vs2_conformance::serving::{self, Mode, FAULT_SEED};
use vs2_serve::{
    AdmitConfig, BatchEngine, EngineConfig, FaultPlan, JobOutcome, JobSpec, JobStatus, Lane,
    ShedReason,
};
use vs2_synth::DatasetId;

fn spec(doc_index: usize, client: &str, lane: Lane) -> JobSpec {
    JobSpec {
        client: Some(client.to_string()),
        lane: Some(lane),
        ..serving::synthetic(DatasetId::D1, doc_index)
    }
}

/// The two-wave overload batch: a flooding tenant pushing 40 batch-lane
/// jobs with a 10-job interactive tenant interleaved 1-in-5.
fn overload_batch() -> Vec<JobSpec> {
    (0..50)
        .map(|i| {
            if i % 5 == 4 {
                spec(i, "ui", Lane::Interactive)
            } else {
                spec(i, "flood", Lane::Batch)
            }
        })
        .collect()
}

/// 12 tokens per client, no refill, pressure watermarks inert: every
/// admission decision is a pure function of the submission stream,
/// independent of scheduling.
fn overload_mode(workers: usize) -> Mode {
    Mode {
        admit: Some(serving::inert_admission().with_buckets(12, 0)),
        ..Mode::plain(workers)
    }
}

/// Serves the two-wave batch, checks exactly-once accounting and
/// returns stdout.
fn run_overload(workers: usize, faults: Option<FaultPlan>) -> String {
    let batch = overload_batch();
    let mode = Mode {
        faults,
        ..overload_mode(workers)
    };
    let run = serving::serve(&mode, &batch).first;
    run.assert_exactly_once(&format!("{workers} workers"), 0, batch.len() as u64);
    run.stdout
}

#[test]
fn two_wave_overload_protects_the_interactive_lane_deterministically() {
    let run = serving::serve(&overload_mode(4), &overload_batch()).first;

    // Fairness: the interactive tenant is inside its budget — never
    // shed, never degraded by admission. The flooding tenant pays for
    // its own overload: its first 12 jobs are admitted normally, the
    // remaining 28 degrade through the XY-cut fallback.
    for (i, r) in run.results.iter().enumerate() {
        if i % 5 == 4 {
            assert_eq!(
                r.status,
                JobStatus::Ok,
                "interactive job {i} must be untouched: {:?}",
                r.error
            );
        }
    }
    let flood_degraded = run
        .results
        .iter()
        .enumerate()
        .filter(|(i, r)| i % 5 != 4 && r.status == JobStatus::Degraded)
        .count();
    assert_eq!(
        flood_degraded, 28,
        "flood jobs past the 12-token budget must degrade, not vanish"
    );
    assert_eq!(
        run.stats.shed, 0,
        "batch-lane overload degrades, never sheds"
    );
    assert_eq!(run.stats.ok, 22, "10 interactive + 12 in-budget flood jobs");

    // Byte determinism across worker counts and repeats.
    let one = run_overload(1, None);
    let four = run_overload(4, None);
    assert_eq!(
        one, four,
        "admission decisions must not depend on worker count"
    );
    assert_eq!(
        four,
        run_overload(4, None),
        "repeat runs must be byte-identical"
    );
}

#[test]
fn overload_and_chaos_compose_deterministically() {
    let plan = Some(FaultPlan::chaos(FAULT_SEED));
    assert_eq!(
        run_overload(1, plan),
        run_overload(4, plan),
        "admission + fault injection must stay deterministic across worker counts"
    );
}

/// A same-lane flood where the overflow is interactive: interactive
/// jobs past the bucket shed (typed, in-order), they never degrade.
#[test]
fn interactive_overflow_sheds_with_typed_outcomes() {
    let mut service = overload_mode(2).service();
    for i in 0..20 {
        service.submit_spec(spec(i, "burst", Lane::Interactive), Lane::Interactive);
    }
    let results = service.drain();
    let stats = service.shutdown();
    assert_eq!(stats.shed, 8);
    assert_eq!(stats.ok, 12);
    for (i, done) in results.iter().enumerate() {
        if i < 12 {
            assert!(done.outcome.is_ok(), "job {i} within budget must run");
        } else {
            assert!(
                matches!(done.outcome, JobOutcome::Shed(ShedReason::RateLimited)),
                "job {i} past budget must shed as rate_limited"
            );
            assert_eq!(
                done.latency,
                std::time::Duration::ZERO,
                "shed jobs must never run"
            );
        }
    }
}

/// Real pressure shedding (backlog watermarks, scheduling-dependent):
/// the byte contract does not apply, but exactly-once accounting must
/// hold and the open-loop producer must never block.
#[test]
fn pressure_shedding_keeps_exactly_once_accounting() {
    let engine: BatchEngine<u64, u64> = BatchEngine::new(
        EngineConfig {
            workers: 2,
            queue_capacity: 4,
            job_timeout: None,
            faults: None,
            admit: Some(AdmitConfig::for_queue(4)),
        },
        |job, _ctx| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            Ok(job * 2)
        },
    );
    let n = 200u64;
    let seqs: Vec<u64> = (0..n).map(|j| engine.submit(j)).collect();
    let mut ok = 0u64;
    let mut shed = 0u64;
    for seq in seqs {
        match engine.wait_result(seq).outcome {
            JobOutcome::Ok(v) => {
                assert_eq!(v, seq * 2);
                ok += 1;
            }
            JobOutcome::Shed(_) => shed += 1,
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    let stats = engine.shutdown();
    assert_eq!(ok + shed, n, "every job accounted exactly once");
    assert_eq!(stats.ok, ok);
    assert_eq!(stats.shed, shed);
    assert_eq!(stats.completed, n);
    assert!(
        shed > 0,
        "an open loop at 2ms/job into a 4-deep queue must trip the backlog watermark"
    );
    assert_eq!(stats.queue_stalls, 0, "shedding must fire before blocking");
}

/// Saturation sheds every interactive submission: with the latency
/// EWMA pinned past critical by the warm-up job (queue watermarks
/// inert), all 100 interactive jobs shed as `latency_ewma`, never run,
/// and a replay of the same stream agrees.
#[test]
fn saturated_interactive_jobs_all_shed() {
    let run = || -> Vec<Option<ShedReason>> {
        let engine: BatchEngine<u64, u64> = BatchEngine::new(
            EngineConfig {
                workers: 1,
                queue_capacity: 64,
                job_timeout: None,
                faults: None,
                admit: Some(AdmitConfig {
                    latency_high_us: 1,
                    latency_critical_us: 1,
                    ..AdmitConfig::for_queue(64).inert_pressure()
                }),
            },
            |job, _ctx| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                Ok(*job)
            },
        );
        // Prime the EWMA: one completed job pushes it past the 1us
        // critical watermark, pinning the controller at Saturated.
        let warm = engine.submit(0);
        engine.wait_result(warm);
        let seqs: Vec<u64> = (1..101).map(|j| engine.submit(j)).collect();
        let outcomes = seqs
            .iter()
            .map(|&s| {
                let done = engine.wait_result(s);
                assert_eq!(
                    done.latency,
                    std::time::Duration::ZERO,
                    "shed jobs must never run"
                );
                match done.outcome {
                    JobOutcome::Shed(reason) => Some(reason),
                    _ => None,
                }
            })
            .collect();
        engine.shutdown();
        outcomes
    };
    let a = run();
    assert_eq!(a, vec![Some(ShedReason::LatencyEwma); 100]);
    assert_eq!(a, run(), "same stream, same sheds");
}
