//! Drain/handoff lifecycle suite.
//!
//! The kill/resume scenario: a `vs2d`-shaped batch run drained
//! mid-stream, a handoff snapshot carried to a successor, and the pair
//! byte-equivalent to one uninterrupted run with exactly-once
//! accounting, at 1 and 4 workers, with and without chaos faults (the
//! serving matrix, `serving_matrix.rs`, crosses it with admission,
//! triage and the plan cache). Beside it, the pieces underneath:
//! handed-off plans warm-start the successor's plan cache, tampered
//! snapshots are rejected with typed errors, and a draining service
//! sheds every new submission.

use vs2_conformance::serving::{self, Mode, FAULT_SEED};
use vs2_serve::handoff::HANDOFF_VERSION;
use vs2_serve::{
    AnsweredLine, BatchOptions, FaultPlan, HandoffError, HandoffSnapshot, JobSpec, ServiceOptions,
};
use vs2_synth::DatasetId;

const LINES: usize = 12;
const CUT: u64 = 6;

fn input(dataset: DatasetId, lines: usize) -> String {
    let specs: Vec<JobSpec> = (0..lines).map(|i| serving::synthetic(dataset, i)).collect();
    serving::job_lines(&specs)
}

/// The kill/resume scenario at `workers`, optionally under chaos
/// faults: the victim drains after [`CUT`] of [`LINES`] D1 lines and a
/// successor resumes from its handoff snapshot. Checks the pair against
/// the uninterrupted run and returns the victim's, the successor's and
/// the uninterrupted run's stdout.
fn kill_and_resume(workers: usize, faults: Option<FaultPlan>) -> [String; 3] {
    let specs: Vec<JobSpec> = (0..LINES)
        .map(|i| serving::synthetic(DatasetId::D1, i))
        .collect();
    let mode = Mode {
        faults,
        ..Mode::plain(workers)
    };
    let reference = serving::serve(&mode, &specs);
    assert_eq!(
        serving::completed_seqs(&reference.first.batch),
        (0..LINES as u64).collect::<Vec<_>>()
    );
    let drained = serving::serve(
        &Mode {
            drain_after: Some(CUT),
            ..mode
        },
        &specs,
    );
    let successor = drained.successor.as_ref().expect("a drained mode resumes");
    assert_eq!(
        drained.first.batch.shed,
        LINES as u64 - CUT,
        "every post-drain line is answered as shed, never dropped"
    );
    assert_eq!(
        successor.batch.skipped, CUT,
        "already-answered lines are skipped"
    );
    assert_eq!(
        serving::completed_seqs(&successor.batch),
        (CUT..LINES as u64).collect::<Vec<_>>()
    );
    drained.assert_resumes(&format!("{workers} workers"), &reference, CUT);
    [
        drained.first.stdout.clone(),
        successor.stdout.clone(),
        reference.first.stdout,
    ]
}

#[test]
fn drain_handoff_resume_is_byte_equivalent_to_an_uninterrupted_run() {
    assert_eq!(
        kill_and_resume(1, None),
        kill_and_resume(4, None),
        "victim, successor and reference runs must agree across worker counts"
    );
}

#[test]
fn drain_handoff_resume_survives_chaos_faults() {
    // Fault decisions key on engine seqs; the successor burns one seq
    // per skipped line, so its fault draws line up with the seqs the
    // uninterrupted run would have used.
    let plan = Some(FaultPlan::chaos(FAULT_SEED));
    assert_eq!(kill_and_resume(1, plan), kill_and_resume(4, plan));
}

#[test]
fn handoff_plans_warm_start_the_successor_plan_cache() {
    let mode = Mode {
        options: ServiceOptions {
            plan_cache: true,
            ..ServiceOptions::default()
        },
        ..Mode::plain(2)
    };
    // Three documents per family so the victim both learns and replays
    // plans before it dies.
    let text = input(DatasetId::Templated, 3 * vs2_synth::templated::FAMILIES);
    let victim = mode.service();
    let (_, victim_run) = serving::pass(&victim, &text, &BatchOptions::default());
    let snapshot = victim.handoff_snapshot(&victim_run, None);
    assert!(
        !snapshot.plans.is_empty(),
        "a plan-cache service must export its learned plans"
    );
    let total_entries: usize = snapshot.plans.iter().map(|ns| ns.entries.len()).sum();
    assert!(total_entries > 0);
    victim.shutdown();

    let restored = HandoffSnapshot::parse(&snapshot.to_json()).expect("round trip");
    let successor = mode.service();
    let loaded = successor.warm_start(&restored);
    assert_eq!(loaded, total_entries, "every exported plan must preload");

    // The successor replays the corpus on warm plans: zero plan misses,
    // zero fresh inserts — the handoff carried the learning across.
    let before = successor.cache_snapshot().plans;
    assert_eq!(
        before.hits + before.misses,
        0,
        "preload must not count as traffic"
    );
    serving::pass(&successor, &text, &BatchOptions::default());
    let after = successor.cache_snapshot().plans;
    assert_eq!(after.misses, 0, "warm-started successor must never miss");
    assert_eq!(after.inserts, 0, "no re-learning after a plan handoff");
    assert!(after.hits > 0, "replays must hit the preloaded plans");
    successor.shutdown();
}

#[test]
fn tampered_snapshots_are_rejected_with_typed_errors() {
    let good = HandoffSnapshot {
        completed: (0..3).map(|seq| AnsweredLine { seq, hash: 0 }).collect(),
        ..HandoffSnapshot::default()
    }
    .to_json();

    let wrong_version = good.replace(&format!("\"version\":{HANDOFF_VERSION}"), "\"version\":7");
    assert!(matches!(
        HandoffSnapshot::parse(&wrong_version),
        Err(HandoffError::Version(7))
    ));

    let shuffled = good
        .replace("\"seq\":0", "\"seq\":x")
        .replace("\"seq\":2", "\"seq\":0")
        .replace("\"seq\":x", "\"seq\":2");
    assert!(matches!(
        HandoffSnapshot::parse(&shuffled),
        Err(HandoffError::NonMonotonicCompleted { prev: 2, next: 1 })
    ));

    assert!(matches!(
        HandoffSnapshot::parse("not json at all"),
        Err(HandoffError::Parse(_))
    ));
}

#[test]
fn draining_service_sheds_every_new_submission_with_dwell_zero() {
    // An (inert) admission controller is wired in so drain sheds are
    // visible in the admission snapshot as well as the engine stats.
    let svc = Mode {
        admit: Some(vs2_serve::AdmitConfig::for_queue(8).inert_pressure()),
        ..Mode::plain(2)
    }
    .service();
    let text = input(DatasetId::D1, 4);
    let (_, warm) = serving::pass(&svc, &text, &BatchOptions::default());
    assert_eq!(warm.shed, 0);
    svc.begin_drain();
    assert!(svc.is_draining());
    let (out, drained) = serving::pass(&svc, &text, &BatchOptions::default());
    assert_eq!(drained.shed, 4, "a draining service admits nothing");
    assert!(
        drained.latencies.is_empty(),
        "shed jobs never run, so they contribute no latencies"
    );
    for line in out.lines() {
        assert!(line.contains("draining"), "{line}");
    }
    let stats = svc.shutdown();
    assert_eq!(stats.shed, 4);
    assert_eq!(stats.ok, 4);
    assert_eq!(
        stats.completed,
        stats.ok + stats.degraded + stats.quarantined + stats.shed
    );
}
