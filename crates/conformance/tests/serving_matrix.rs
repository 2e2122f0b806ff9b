//! The serving-conformance matrix: the serving contracts checked across
//! every combination of the serving switches, on one generated batch.
//!
//! The matrix is the full 2⁶ = 64-cell product of
//!
//! | axis      | off            | on                                   |
//! |-----------|----------------|--------------------------------------|
//! | workers   | 1              | 4                                    |
//! | faults    | none           | [`FaultPlan::chaos`]                 |
//! | admission | off            | token buckets, inert pressure        |
//! | triage    | off            | on                                   |
//! | plan cache| off            | on                                   |
//! | drain     | uninterrupted  | drain after [`MATRIX_CUT`] + resume  |
//!
//! Each cell serves [`serving::matrix_batch`] through `run_batch` (the
//! `vs2d` front end). Every cell is computed once and shared; each test
//! below checks one invariant over every cell it applies to:
//!
//! * **1 ≡ 4 workers** — stdout is byte-identical, and one cell is run
//!   twice to show repeat-run identity;
//! * **exactly-once** — one result line per job line, in input order,
//!   with the engine, `BatchRun`, quarantine records and ledger counters
//!   all agreeing with the statuses on the wire;
//! * **plan cache on ≡ off** — stdout is identical, and the triage-off
//!   plan cells really replay and really reject colliders;
//! * **admission** — buckets degrade the flood client's over-budget jobs
//!   and never touch the interactive client; inert admission ≡ off;
//! * **drain/resume** — the successor-else-victim answer per line equals
//!   the uninterrupted sibling cell;
//! * **chaos** — a job that draws no panic answers exactly as in the
//!   fault-free sibling cell;
//! * **reference** — fault-free, triage-off, admission-off cells match
//!   the golden fixtures and the offline naive pipeline;
//! * **degraded lines** — every degraded answer is the XY-cut fallback;
//! * **routing** — ok answers are full VS2, or (triage on) the cheap
//!   path, and triage cells do route some documents cheap.

use std::sync::OnceLock;

use vs2_conformance::golden::{dataset_name, golden_path, render_snapshot, N_GOLDEN_DOCS};
use vs2_conformance::serving::{
    self, assert_same_output, extractions_json as json, result_line as line, Mode, Offline, Served,
    FAULT_SEED, FLOOD_CLIENT, MATRIX_CUT, SHARED_INLINE_ID, SHARED_SYNTHETIC_ID, UI_CLIENT,
};
use vs2_serve::{
    AdmitController, AdmitDecision, FaultKind, FaultPlan, FaultSite, JobResult, JobSpec, JobStatus,
    ServiceOptions, ShedReason,
};
use vs2_synth::DatasetId;

/// Axis bits of a cell index.
const W4: usize = 1;
const CHAOS: usize = 2;
const BUCKETS: usize = 4;
const TRIAGE: usize = 8;
const PLAN: usize = 16;
const DRAIN: usize = 32;
const CELLS: usize = 64;
const AXES: [&str; 6] = ["w4", "chaos", "buckets", "triage", "plan", "drain"];

/// The mode of cell `cell`.
fn mode(cell: usize) -> Mode {
    let on = |bit: usize| cell & bit != 0;
    Mode {
        faults: on(CHAOS).then(|| FaultPlan::chaos(FAULT_SEED)),
        admit: on(BUCKETS).then(serving::bucket_admission),
        options: ServiceOptions {
            triage: on(TRIAGE),
            plan_cache: on(PLAN),
            ..ServiceOptions::default()
        },
        drain_after: on(DRAIN).then_some(MATRIX_CUT),
        ..Mode::plain(if on(W4) { 4 } else { 1 })
    }
}

fn label(cell: usize) -> String {
    let on: Vec<&str> = (0..AXES.len())
        .filter(|b| cell & (1 << b) != 0)
        .map(|b| AXES[b])
        .collect();
    format!("cell {cell} [{}]", on.join(" "))
}

fn cells_with(bit: usize) -> impl Iterator<Item = usize> {
    (0..CELLS).filter(move |c| c & bit != 0)
}

/// Every cell served, plus the offline expectations per job.
struct Matrix {
    specs: Vec<JobSpec>,
    cells: Vec<Served>,
    offline: Offline,
}

fn matrix() -> &'static Matrix {
    static MATRIX: OnceLock<Matrix> = OnceLock::new();
    MATRIX.get_or_init(|| {
        let specs = serving::matrix_batch();
        // Two cells at a time: each cell is one to four workers plus the
        // batch reader, so two keep a small host busy without
        // oversubscribing it.
        const PARALLEL: usize = 2;
        let mut cells: Vec<Option<Served>> = (0..CELLS).map(|_| None).collect();
        std::thread::scope(|scope| {
            let specs = &specs;
            let workers: Vec<_> = (0..PARALLEL)
                .map(|t| {
                    scope.spawn(move || {
                        (t..CELLS)
                            .step_by(PARALLEL)
                            .map(|c| (c, serving::serve(&mode(c), specs)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for worker in workers {
                for (c, served) in worker.join().expect("cell worker") {
                    cells[c] = Some(served);
                }
            }
        });
        Matrix {
            offline: Offline::of(&specs),
            specs,
            cells: cells.into_iter().map(|c| c.expect("cell served")).collect(),
        }
    })
}

fn is_admission(result: &JobResult) -> bool {
    result
        .error
        .as_deref()
        .is_some_and(|e| e.starts_with("overloaded"))
}

#[test]
fn one_worker_equals_four_workers_in_every_cell() {
    let m = matrix();
    for cell in (0..CELLS).filter(|c| c & W4 == 0) {
        let (one, four) = (&m.cells[cell], &m.cells[cell | W4]);
        assert_eq!(one.runs().count(), four.runs().count());
        for (a, b) in one.runs().zip(four.runs()) {
            let context = format!("{} vs {}", label(cell), label(cell | W4));
            assert_same_output(&context, &a.stdout, &b.stdout);
        }
    }
    // Repeat-run identity, on the cell with every switch on.
    let all = CELLS - 1;
    let again = serving::serve(&mode(all), &m.specs);
    for (a, b) in m.cells[all].runs().zip(again.runs()) {
        assert_same_output(&format!("{} repeated", label(all)), &a.stdout, &b.stdout);
    }
}

#[test]
fn every_cell_answers_each_line_exactly_once() {
    let m = matrix();
    let n = m.specs.len() as u64;
    for cell in 0..CELLS {
        let served = &m.cells[cell];
        for (i, run) in served.runs().enumerate() {
            // The first run answers every line (a drained victim answers
            // post-drain lines as shed); a successor answers the lines
            // its predecessor did not complete.
            let skipped = if i == 0 { 0 } else { MATRIX_CUT };
            run.assert_exactly_once(&format!("{} run {i}", label(cell)), skipped, n);
        }
    }
}

#[test]
fn plan_cache_on_equals_off_in_every_cell() {
    let m = matrix();
    for cell in (0..CELLS).filter(|c| c & PLAN == 0) {
        let (off, on) = (&m.cells[cell], &m.cells[cell | PLAN]);
        for (a, b) in off.runs().zip(on.runs()) {
            let context = format!("{} vs {}", label(cell), label(cell | PLAN));
            assert_same_output(&context, &a.stdout, &b.stdout);
        }
    }
    for cell in cells_with(PLAN).filter(|c| c & TRIAGE == 0) {
        let served = &m.cells[cell];
        let hits = served.plan_total(|p| p.hits);
        let rejects = served.plan_total(|p| p.validation_rejects);
        assert!(hits > 0, "{}: templated repeats must replay", label(cell));
        assert!(
            rejects > 0,
            "{}: the near-miss colliders must fail validation",
            label(cell)
        );
    }
}

#[test]
fn bucket_admission_degrades_only_the_flood_client() {
    let m = matrix();
    // The deterministic lane's decisions are a pure function of the
    // submission stream: replay them on a bare controller.
    let controller = AdmitController::new(serving::bucket_admission());
    let decisions: Vec<AdmitDecision> = m
        .specs
        .iter()
        .map(|s| controller.decide(s.client.as_deref(), s.lane.unwrap_or_default(), 0))
        .collect();
    let over_budget =
        |seq: usize| decisions[seq] == AdmitDecision::Degrade(ShedReason::RateLimited);
    assert!(
        (0..decisions.len()).any(over_budget),
        "the flood client must overrun its bucket"
    );
    for cell in 0..CELLS {
        let buckets = cell & BUCKETS != 0;
        for (seq, (spec, answer)) in m.specs.iter().zip(m.cells[cell].answers()).enumerate() {
            let context = format!("{} job {}", label(cell), answer.job_id);
            match spec.client.as_deref() {
                Some(FLOOD_CLIENT) if buckets && over_budget(seq) => {
                    assert_eq!(answer.status, JobStatus::Degraded, "{context}");
                    assert_eq!(
                        answer.error.as_deref(),
                        Some("overloaded: rate_limited"),
                        "{context}"
                    );
                }
                Some(UI_CLIENT) if buckets => {
                    assert_eq!(decisions[seq], AdmitDecision::Accept, "{context}");
                    assert_ne!(answer.status, JobStatus::Shed, "{context}");
                    assert!(!is_admission(answer), "{context}");
                }
                _ => assert!(!is_admission(answer), "{context}: {:?}", answer.error),
            }
        }
    }
    // An admission controller that can never fire is indistinguishable
    // from none.
    let base = W4 | CHAOS;
    let inert = serving::serve(
        &Mode {
            admit: Some(serving::inert_admission()),
            ..mode(base)
        },
        &m.specs,
    );
    assert_same_output(
        &format!("inert admission vs {}", label(base)),
        &inert.first.stdout,
        &m.cells[base].first.stdout,
    );
}

#[test]
fn drain_and_resume_equal_the_uninterrupted_cell() {
    let m = matrix();
    for cell in cells_with(DRAIN) {
        let context = format!("{} vs {}", label(cell), label(cell ^ DRAIN));
        m.cells[cell].assert_resumes(&context, &m.cells[cell ^ DRAIN], MATRIX_CUT);
    }
}

#[test]
fn chaos_leaves_fault_free_jobs_untouched() {
    let m = matrix();
    let plan = FaultPlan::chaos(FAULT_SEED);
    // Engine seqs are wire seqs: the batch has no invalid lines.
    let clean: Vec<bool> = (0..m.specs.len() as u64)
        .map(|seq| {
            FaultSite::all()
                .iter()
                .all(|&site| plan.decide(site, seq) != Some(FaultKind::Panic))
        })
        .collect();
    assert!(
        clean.contains(&true),
        "no clean jobs — the check is vacuous"
    );
    for cell in cells_with(CHAOS) {
        let context = format!("{} vs {}", label(cell), label(cell ^ CHAOS));
        let faulted = m.cells[cell].answers();
        let baseline = m.cells[cell ^ CHAOS].answers();
        for ((a, b), clean) in faulted.iter().zip(&baseline).zip(&clean) {
            if *clean {
                assert_eq!(
                    line(a),
                    line(b),
                    "{context}: clean job {} diverged",
                    a.job_id
                );
            }
        }
        assert!(
            faulted
                .iter()
                .any(|r| r.status == JobStatus::Degraded && !is_admission(r)),
            "{context}: the chaos seed degraded nothing — pick a different FAULT_SEED"
        );
        assert!(
            faulted.iter().any(|r| r.status == JobStatus::Ok),
            "{context}: the chaos seed broke every job — pick a different FAULT_SEED"
        );
    }
}

#[test]
fn reference_cells_match_goldens_and_the_naive_pipeline() {
    let m = matrix();
    let index = |id: &str| {
        m.specs
            .iter()
            .position(|s| s.job_id.as_deref() == Some(id))
            .expect("job id in the batch")
    };
    for cell in (0..CELLS).filter(|c| c & (CHAOS | TRIAGE | BUCKETS) == 0) {
        let answers = m.cells[cell].answers();
        for (i, answer) in answers.iter().enumerate() {
            assert_eq!(
                answer.status,
                JobStatus::Ok,
                "{} {}",
                label(cell),
                answer.job_id
            );
            assert_eq!(
                json(&answer.extractions),
                m.offline.full[i],
                "{} {}: served output diverged from the offline naive pipeline",
                label(cell),
                answer.job_id
            );
        }
        for dataset in DatasetId::EXTENDED {
            let rendered = render_snapshot(
                dataset,
                (0..N_GOLDEN_DOCS).map(|i| {
                    let at = index(&format!("golden-{}-{i}", dataset_name(dataset)));
                    (m.specs[at].document().id, answers[at].extractions.clone())
                }),
            );
            let fixture = std::fs::read_to_string(golden_path(dataset))
                .expect("golden fixture exists (bless with the golden bin)");
            assert_eq!(
                rendered,
                fixture,
                "{}: served output drifted from the {} golden",
                label(cell),
                dataset_name(dataset)
            );
        }
    }
    // The inline and synthetic copies of one document agree wherever
    // their (different) seqs cannot draw different faults.
    let (inline, synthetic) = (index(SHARED_INLINE_ID), index(SHARED_SYNTHETIC_ID));
    for cell in (0..CELLS).filter(|c| c & CHAOS == 0) {
        let answers = m.cells[cell].answers();
        assert_eq!(answers[inline].status, answers[synthetic].status);
        assert_eq!(
            json(&answers[inline].extractions),
            json(&answers[synthetic].extractions),
            "{}: inline and synthetic copies diverged",
            label(cell)
        );
    }
}

#[test]
fn degraded_lines_are_the_xy_cut_fallback() {
    let m = matrix();
    let degraded: usize = (0..CELLS)
        .map(|cell| {
            let answers = m.cells[cell].answers();
            m.offline
                .assert_degraded_are_fallback(&label(cell), &answers)
        })
        .sum();
    assert!(degraded > 0, "no degraded lines — the check is vacuous");
}

#[test]
fn ok_lines_are_full_vs2_or_the_triage_cheap_path() {
    let m = matrix();
    for cell in 0..CELLS {
        let triage = cell & TRIAGE != 0;
        let served = &m.cells[cell];
        for (i, answer) in served.answers().iter().enumerate() {
            if answer.status != JobStatus::Ok {
                continue;
            }
            let got = json(&answer.extractions);
            assert!(
                got == m.offline.full[i] || (triage && got == m.offline.cheap[i]),
                "{} {}: ok line is neither full VS2 nor the routed cheap path",
                label(cell),
                answer.job_id
            );
        }
        if triage {
            assert!(
                served.counter_total("triage_cheap") > 0,
                "{}: triage routed nothing cheap",
                label(cell)
            );
        }
    }
}
