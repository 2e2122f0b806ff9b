//! End-to-end tests of the `vs2d` binary: a small mixed batch (synthetic
//! and inline D1/D4 jobs, one malformed line) under deterministic chaos,
//! checking that the stderr summary, the `--summary-json` file, the
//! `{"record":"metrics",...}` tail and the result lines all tell the
//! same story, and that the exit code follows from them.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::Instant;

use serde::{Serialize, Value};
use vs2_docmodel::{BBox, Document, TextElement};
use vs2_serve::{JobResult, JobStatus, DEFAULT_DOC_SEED};
use vs2_synth::dataset::{generate_one, DatasetConfig, DatasetId};

/// Chaos seed whose plan degrades at least one job of [`batch`].
const FAULT_SEED: &str = "0x5";

/// A scratch file under the test target's temporary directory.
fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("vs2d_cli-{name}"))
}

/// An inline job line embedding document `index` of `dataset`.
fn inline_line(dataset: DatasetId, index: usize) -> String {
    let doc = generate_one(dataset, index, DatasetConfig::new(1, DEFAULT_DOC_SEED)).doc;
    let spec = Value::Object(vec![
        ("dataset".to_string(), dataset.to_value()),
        ("doc".to_string(), doc.to_value()),
    ]);
    serde_json::to_string(&spec).unwrap()
}

/// Synthetic and inline D1/D4 jobs with one malformed line among them.
fn batch() -> String {
    let mut lines = Vec::new();
    for i in 0..4 {
        lines.push(format!("{{\"dataset\":\"D1\",\"doc_index\":{i}}}"));
        lines.push(format!("{{\"dataset\":\"D4\",\"doc_index\":{i}}}"));
    }
    lines.insert(3, inline_line(DatasetId::D1, 7));
    lines.insert(6, "{\"dataset\":\"D1\",\"doc_index\":".to_string());
    lines.push(inline_line(DatasetId::D4, 5));
    lines.push(inline_line(DatasetId::D4, 9));
    lines.join("\n") + "\n"
}

/// Runs `vs2d` over `input` with `flags` (plus two workers and the chaos
/// seed).
fn vs2d(input: &PathBuf, flags: &[&str]) -> Output {
    vs2d_with(
        input,
        &[&["--workers", "2", "--fault-seed", FAULT_SEED], flags].concat(),
    )
}

/// Runs `vs2d` over `input` with `flags` only.
fn vs2d_with(input: &PathBuf, flags: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vs2d"))
        .arg("--input")
        .arg(input)
        .args(flags)
        .output()
        .expect("vs2d runs")
}

/// The result lines of a run, parsed.
fn results(stdout: &str) -> Vec<JobResult> {
    stdout
        .lines()
        .filter(|l| !l.contains("\"record\":"))
        .map(|l| serde_json::from_str(l).expect("result line parses"))
        .collect()
}

/// The `{"record":"metrics","kind":"counter",...}` lines, by name.
fn metric_counters(stdout: &str) -> BTreeMap<String, u64> {
    stdout
        .lines()
        .filter(|l| l.contains("\"record\":\"metrics\"") && l.contains("\"kind\":\"counter\""))
        .map(|l| {
            let v = serde_json::parse(l).unwrap();
            (v.field("name").unwrap(), v.field("value").unwrap())
        })
        .collect()
}

/// The integers of a stderr summary line after its `vs2d:` prefix, in
/// order of appearance.
fn numbers(line: &str) -> Vec<u64> {
    let line = line.strip_prefix("vs2d:").expect("summary line prefix");
    line.split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().unwrap())
        .collect()
}

/// The stderr summary line containing `needle`.
fn stderr_line<'a>(stderr: &'a str, needle: &str) -> &'a str {
    stderr
        .lines()
        .find(|l| l.contains(needle))
        .unwrap_or_else(|| panic!("no stderr line with `{needle}` in:\n{stderr}"))
}

#[test]
fn summary_json_metrics_tail_stderr_and_wire_agree() {
    let input = scratch("summary.jsonl");
    let summary_path = scratch("summary.json");
    let input_lines = batch();
    std::fs::write(&input, &input_lines).unwrap();
    let out = vs2d(
        &input,
        &[
            "--triage",
            "--plan-cache",
            "--metrics",
            "--summary-json",
            summary_path.to_str().unwrap(),
        ],
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    let summary = serde_json::parse(&std::fs::read_to_string(&summary_path).unwrap()).unwrap();
    let field = |name: &str| -> u64 { summary.field(name).unwrap() };
    let results = results(&stdout);
    let wire = |status: JobStatus| results.iter().filter(|r| r.status == status).count() as u64;
    let metrics = metric_counters(&stdout);
    let metric = |name: &str| -> u64 {
        *metrics
            .get(name)
            .unwrap_or_else(|| panic!("no `{name}` counter line"))
    };

    // Non-vacuity: the batch exercises the ok, failure and invalid paths.
    assert_eq!(
        results.len(),
        input_lines.lines().count(),
        "one result line per input line"
    );
    assert!(wire(JobStatus::Ok) >= 1, "{stdout}");
    assert!(
        wire(JobStatus::Degraded) + wire(JobStatus::Quarantined) >= 1,
        "fault seed {FAULT_SEED} must degrade or quarantine a job"
    );
    assert_eq!(wire(JobStatus::Invalid), 1);

    // Summary ≡ wire ≡ metrics tail.
    for (key, status, counter) in [
        ("ok", JobStatus::Ok, Some("jobs_ok")),
        ("degraded", JobStatus::Degraded, Some("jobs_degraded")),
        (
            "quarantined",
            JobStatus::Quarantined,
            Some("jobs_quarantined"),
        ),
        ("shed", JobStatus::Shed, Some("jobs_shed")),
        ("invalid", JobStatus::Invalid, None),
    ] {
        assert_eq!(field(key), wire(status), "summary `{key}` vs the wire");
        if let Some(counter) = counter {
            assert_eq!(
                field(key),
                metric(counter),
                "summary `{key}` vs `{counter}`"
            );
        }
    }
    for (key, counter) in [
        ("panicked", "panics"),
        ("timed_out", "timeouts"),
        ("triage_full", "triage_full"),
        ("triage_cheap", "triage_cheap"),
        ("triage_replay", "triage_replay"),
    ] {
        assert_eq!(
            field(key),
            metric(counter),
            "summary `{key}` vs `{counter}`"
        );
    }
    assert_eq!(field("jobs"), results.len() as u64);
    assert!(field("triage_full") + field("triage_cheap") + field("triage_replay") > 0);

    // The stderr summary carries the same counts.
    let jobs_line = numbers(stderr_line(&stderr, " jobs ("));
    assert_eq!(
        jobs_line[..6],
        [
            field("jobs"),
            field("ok"),
            field("degraded"),
            field("quarantined"),
            field("shed"),
            field("invalid"),
        ],
        "{stderr}"
    );
    let fault_line = numbers(stderr_line(&stderr, " panics, "));
    assert_eq!(
        fault_line[..2],
        [field("panicked"), field("timed_out")],
        "{stderr}"
    );
    let triage_line = numbers(stderr_line(&stderr, "triage routed"));
    assert_eq!(
        triage_line,
        [
            field("triage_full"),
            field("triage_cheap"),
            field("triage_replay"),
        ],
        "{stderr}"
    );

    // One source per plan number: the plan store's counters feed the
    // summary, the tail and the stderr plan line alike.
    let plan_line = numbers(stderr_line(&stderr, "plan cache"));
    for (i, key) in [
        "plan_cache_hits",
        "plan_cache_misses",
        "plan_cache_validation_rejects",
        "plan_cache_bypasses",
    ]
    .into_iter()
    .enumerate()
    {
        assert_eq!(field(key), metric(key), "summary `{key}` vs the tail");
        assert_eq!(field(key), plan_line[i], "summary `{key}` vs {stderr}");
    }
    assert!(
        stderr_line(&stderr, "plan cache").contains(" validation rejects, "),
        "{stderr}"
    );
    // Under triage every plan replay is a `PlanReplay` decision.
    assert_eq!(field("triage_replay"), metric("plan_cache_hits"));
    let names: Vec<String> = stdout
        .lines()
        .filter(|l| l.contains("\"record\":\"metrics\""))
        .map(|l| serde_json::parse(l).unwrap().field("name").unwrap())
        .collect();
    assert_eq!(
        names.len(),
        names.iter().collect::<BTreeSet<_>>().len(),
        "a tail name repeats: {names:?}"
    );

    // Exit 1 exactly when something was quarantined or invalid.
    let failed = field("quarantined") + field("invalid") > 0;
    assert_eq!(out.status.code(), Some(i32::from(failed)), "{stderr}");
}

#[test]
fn triage_alone_prints_the_same_routing_line() {
    let input = scratch("triage.jsonl");
    std::fs::write(&input, batch()).unwrap();
    let with_metrics = vs2d(&input, &["--triage", "--plan-cache", "--metrics"]);
    let alone = vs2d(&input, &["--triage", "--plan-cache"]);
    let routed = |out: &Output| {
        let stderr = String::from_utf8(out.stderr.clone()).unwrap();
        stderr_line(&stderr, "triage routed").to_string()
    };
    let line = routed(&alone);
    assert!(
        numbers(&line).iter().sum::<u64>() > 0,
        "routing counts must be recorded without --metrics: {line}"
    );
    assert_eq!(line, routed(&with_metrics));
    assert!(
        !String::from_utf8(alone.stdout)
            .unwrap()
            .contains("\"record\":\"metrics\""),
        "no metrics tail without --metrics"
    );
    assert_eq!(
        alone.status.code(),
        Some(1),
        "the malformed line fails the run"
    );
}

/// Twelve synthetic jobs cycling D1, D4, Templated. Every Templated job
/// is of template family 0, so later ones replay the plan an earlier one
/// captured — across a restart only when the handoff carried it.
fn mixed_batch() -> String {
    (0..12)
        .map(|i| match i % 3 {
            0 => format!("{{\"dataset\":\"D1\",\"doc_index\":{}}}\n", i / 3),
            1 => format!("{{\"dataset\":\"D4\",\"doc_index\":{}}}\n", i / 3),
            _ => format!(
                "{{\"dataset\":\"Templated\",\"doc_index\":{}}}\n",
                8 * (i / 3)
            ),
        })
        .collect()
}

/// A run's non-shed result lines and its quarantine records.
fn answered(stdout: &str) -> (Vec<(u64, String)>, Vec<String>) {
    let mut lines = Vec::new();
    let mut quarantine = Vec::new();
    for line in stdout.lines() {
        if line.contains("\"record\":\"quarantine\"") {
            quarantine.push(line.to_string());
            continue;
        }
        let result: JobResult = serde_json::from_str(line).expect("result line parses");
        if result.status != JobStatus::Shed {
            lines.push((result.seq, line.to_string()));
        }
    }
    (lines, quarantine)
}

#[test]
fn restart_chain_answers_every_line_once_like_an_uninterrupted_run() {
    let input = scratch("chain.jsonl");
    std::fs::write(&input, mixed_batch()).unwrap();
    let [s1, s2] = [scratch("chain-s1.json"), scratch("chain-s2.json")];
    let [s1, s2] = [s1.to_str().unwrap(), s2.to_str().unwrap()];
    let uninterrupted = vs2d(&input, &["--plan-cache"]);
    let chain = [
        vs2d(
            &input,
            &["--plan-cache", "--drain-after", "4", "--handoff", s1],
        ),
        vs2d(
            &input,
            &[
                "--plan-cache",
                "--resume-from",
                s1,
                "--drain-after",
                "4",
                "--handoff",
                s2,
            ],
        ),
        vs2d(&input, &["--plan-cache", "--resume-from", s2]),
    ];

    let (expected, expected_quarantine) =
        answered(&String::from_utf8(uninterrupted.stdout).unwrap());
    assert_eq!(
        expected.iter().map(|(seq, _)| *seq).collect::<Vec<_>>(),
        (0..12).collect::<Vec<_>>(),
        "the uninterrupted run answers every line"
    );
    let mut lines = Vec::new();
    let mut quarantine = Vec::new();
    for (i, run) in chain.iter().enumerate() {
        let stderr = String::from_utf8(run.stderr.clone()).unwrap();
        let (run_lines, run_quarantine) = answered(&String::from_utf8(run.stdout.clone()).unwrap());
        assert_eq!(
            run_lines.iter().map(|(seq, _)| *seq).collect::<Vec<_>>(),
            (4 * i as u64..4 * i as u64 + 4).collect::<Vec<_>>(),
            "run {i} answers the four lines after its predecessors':\n{stderr}"
        );
        if i > 0 {
            assert_eq!(
                numbers(stderr_line(&stderr, "resumed from handoff")),
                [4 * i as u64],
                "run {i} skips every line its predecessors answered"
            );
        }
        lines.extend(run_lines);
        quarantine.extend(run_quarantine);
    }
    assert_eq!(
        lines, expected,
        "the chain's answers equal the uninterrupted run's"
    );
    assert_eq!(quarantine, expected_quarantine);

    // The second snapshot covers both predecessors, so the chain stays
    // exactly-once end to end; both carry the captured template plan.
    let snapshot = |path: &str| {
        vs2_serve::HandoffSnapshot::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    };
    // Each answered line carries the hash of the input line it answered.
    let hashes: Vec<u64> = mixed_batch()
        .lines()
        .map(|l| vs2_serve::handoff::line_hash(l.as_bytes()))
        .collect();
    for (path, n) in [(s1, 4), (s2, 8)] {
        let completed = snapshot(path).completed;
        let seqs: Vec<u64> = completed.iter().map(|l| l.seq).collect();
        assert_eq!(seqs, (0..n as u64).collect::<Vec<_>>(), "{path}");
        let line_hashes: Vec<u64> = completed.iter().map(|l| l.hash).collect();
        assert_eq!(line_hashes, hashes[..n], "{path}");
    }
    for path in [s1, s2] {
        assert!(!snapshot(path).plans.is_empty(), "{path} carries no plans");
    }
}

/// The `ok` result lines of a run.
fn ok_lines(out: &Output) -> Vec<String> {
    String::from_utf8(out.stdout.clone())
        .unwrap()
        .lines()
        .filter(|l| l.contains("\"status\":\"ok\""))
        .map(str::to_string)
        .collect()
}

#[test]
fn resume_skips_the_drain_control_record_its_predecessor_consumed() {
    // Six D4 jobs with an in-stream drain after the second: the first
    // process answers jobs 0 and 1 and sheds the rest; its successor must
    // skip the consumed record and answer jobs 2-5, not drain again.
    // The jobs carry their own ids; default ids are pinned by
    // `default_ids_ignore_blank_lines_and_control_records`.
    let jobs: Vec<String> = (0..6)
        .map(|i| format!("{{\"dataset\":\"D4\",\"doc_index\":{i},\"job_id\":\"d4-{i}\"}}"))
        .collect();
    let control = "{\"control\":\"drain\"}";
    let with_control = scratch("control.jsonl");
    let mut lines = jobs.clone();
    lines.insert(2, control.to_string());
    std::fs::write(&with_control, lines.join("\n") + "\n").unwrap();
    let without = scratch("control-free.jsonl");
    std::fs::write(&without, jobs.join("\n") + "\n").unwrap();
    let [s1, s2] = [scratch("control-s1.json"), scratch("control-s2.json")];
    let [s1, s2] = [s1.to_str().unwrap(), s2.to_str().unwrap()];

    let first = vs2d_with(&with_control, &["--workers", "2", "--handoff", s1]);
    let second = vs2d_with(
        &with_control,
        &["--workers", "2", "--resume-from", s1, "--handoff", s2],
    );
    let uninterrupted = vs2d_with(&without, &["--workers", "2"]);
    for run in [&first, &second, &uninterrupted] {
        assert_eq!(
            run.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
    }
    let first_out = String::from_utf8(first.stdout.clone()).unwrap();
    assert_eq!(first_out.matches("draining").count(), 4, "{first_out}");
    let second_out = String::from_utf8(second.stdout.clone()).unwrap();
    assert!(!second_out.contains("shed"), "{second_out}");
    let chain: Vec<String> = [ok_lines(&first), ok_lines(&second)].concat();
    assert_eq!(chain.len(), 6);
    assert_eq!(chain, ok_lines(&uninterrupted));

    // Both snapshots record the consumed record by line number and hash.
    let consumed = vs2_serve::ControlLine {
        line: 2,
        hash: vs2_serve::handoff::line_hash(control.as_bytes()),
    };
    for path in [s1, s2] {
        let snap =
            vs2_serve::HandoffSnapshot::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(snap.controls, [consumed], "{path}");
    }
    // A third process resuming from the chain's end has nothing left.
    let third = vs2d_with(&with_control, &["--workers", "2", "--resume-from", s2]);
    assert_eq!(third.status.code(), Some(0));
    assert!(
        third.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&third.stdout)
    );
}

#[test]
fn default_ids_ignore_blank_lines_and_control_records() {
    // Six D4 jobs without ids, a blank line after the first and a drain
    // record after the third, run as a resume chain: every ok line,
    // `job_id` included, equals the plain file's. A default id is the
    // line's wire seq, which neither consumes.
    let jobs: Vec<String> = (0..6)
        .map(|i| format!("{{\"dataset\":\"D4\",\"doc_index\":{i}}}"))
        .collect();
    let mut lines = jobs.clone();
    lines.insert(3, "{\"control\":\"drain\"}".to_string());
    lines.insert(1, String::new());
    let noisy = scratch("default-ids-noisy.jsonl");
    std::fs::write(&noisy, lines.join("\n") + "\n").unwrap();
    let plain = scratch("default-ids-plain.jsonl");
    std::fs::write(&plain, jobs.join("\n") + "\n").unwrap();
    let snap = scratch("default-ids-s1.json");
    let snap = snap.to_str().unwrap();

    let first = vs2d_with(&noisy, &["--workers", "2", "--handoff", snap]);
    let second = vs2d_with(&noisy, &["--workers", "2", "--resume-from", snap]);
    let uninterrupted = vs2d_with(&plain, &["--workers", "2"]);
    for run in [&first, &second, &uninterrupted] {
        assert_eq!(
            run.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
    }
    let chain: Vec<String> = [ok_lines(&first), ok_lines(&second)].concat();
    assert_eq!(ok_lines(&first).len(), 3, "the drain lands after job 2");
    assert_eq!(chain, ok_lines(&uninterrupted));
    let ids: Vec<String> = results(&String::from_utf8(uninterrupted.stdout.clone()).unwrap())
        .into_iter()
        .map(|r| r.job_id)
        .collect();
    assert_eq!(ids, ["job-0", "job-1", "job-2", "job-3", "job-4", "job-5"]);
}

#[test]
fn resuming_over_a_different_input_exits_2_naming_the_line() {
    let input = scratch("foreign-a.jsonl");
    std::fs::write(&input, mixed_batch()).unwrap();
    let snapshot = scratch("foreign-s1.json");
    let snapshot = snapshot.to_str().unwrap();
    let drained = vs2d(&input, &["--drain-after", "4", "--handoff", snapshot]);
    assert_eq!(drained.status.code(), Some(0));
    // The same first two lines, then other jobs: lines 0 and 1 are the
    // answered ones, line 2 answered seq 2 with different bytes.
    let other = scratch("foreign-b.jsonl");
    let lines: String = mixed_batch()
        .lines()
        .take(2)
        .map(|l| format!("{l}\n"))
        .chain((0..28).map(|i| format!("{{\"dataset\":\"D2\",\"doc_index\":{i}}}\n")))
        .collect();
    std::fs::write(&other, lines).unwrap();
    let resumed = vs2d(&other, &["--resume-from", snapshot]);
    let stderr = String::from_utf8(resumed.stderr).unwrap();
    assert_eq!(resumed.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("input line 2 differs"), "{stderr}");
    assert!(resumed.stdout.is_empty(), "nothing from line 2 on runs");
}

#[test]
fn counter_lines_do_not_depend_on_the_worker_count() {
    // Twenty synthetic jobs over five datasets: at four workers several
    // jobs wait on one model learn, which must count as a cache hit.
    // Under chaos too: each job's faults are keyed by its seq alone.
    let input = scratch("workers.jsonl");
    let lines: String = (0..20)
        .map(|i| {
            let dataset = ["D1", "D2", "D3", "D4", "Templated"][i % 5];
            format!("{{\"dataset\":\"{dataset}\",\"doc_index\":{}}}\n", i / 5)
        })
        .collect();
    std::fs::write(&input, lines).unwrap();
    let counters = |workers: &str, chaos: &[&str]| {
        let out = vs2d_with(
            &input,
            &[&["--workers", workers, "--metrics"], chaos].concat(),
        );
        assert_eq!(out.status.code(), Some(0));
        metric_counters(&String::from_utf8(out.stdout).unwrap())
    };
    let one = counters("1", &[]);
    assert_eq!(one["model_cache_misses"], 5, "one learn per dataset");
    assert_eq!(one, counters("4", &[]));
    let chaos = ["--fault-seed", FAULT_SEED];
    let one = counters("1", &chaos);
    assert!(
        one["panics"] > 0,
        "seed {FAULT_SEED} panics nowhere: {one:?}"
    );
    let faults = ["faults_model_build", "faults_segment", "faults_select"];
    assert!(faults.iter().any(|f| one[*f] > 0), "{one:?}");
    assert_eq!(one, counters("4", &chaos));
}

#[test]
fn max_attempts_is_an_unknown_flag() {
    let input = scratch("max-attempts.jsonl");
    std::fs::write(&input, "{\"dataset\":\"D4\",\"doc_index\":1}\n").unwrap();
    let out = vs2d_with(&input, &["--max-attempts", "3"]);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag `--max-attempts`"), "{stderr}");
    assert!(out.stdout.is_empty());
}

#[test]
fn metrics_tail_names_are_pinned_in_order() {
    let input = scratch("names.jsonl");
    std::fs::write(&input, "{\"dataset\":\"D4\",\"doc_index\":1}\n").unwrap();
    let out = vs2d_with(&input, &["--workers", "1", "--metrics"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let names: Vec<(String, String)> = stdout
        .lines()
        .filter(|l| l.contains("\"record\":\"metrics\""))
        .map(|l| {
            let v = serde_json::parse(l).unwrap();
            (v.field("kind").unwrap(), v.field("name").unwrap())
        })
        .collect();
    let counters = [
        "jobs_ok",
        "jobs_degraded",
        "jobs_quarantined",
        "panics",
        "timeouts",
        "faults_model_build",
        "faults_segment",
        "faults_select",
        "triage_full",
        "triage_cheap",
        "triage_replay",
        "jobs_shed",
        "admit_degrades",
        "lane_interactive",
        "lane_batch",
        "model_cache_hits",
        "model_cache_misses",
        "plan_cache_hits",
        "plan_cache_misses",
        "plan_cache_validation_rejects",
        "plan_cache_inserts",
        "plan_cache_evictions",
        "plan_cache_bypasses",
        "plan_cache_uncacheable",
    ]
    .map(|n| ("counter", n));
    let histograms = ["queue_dwell_us", "job_latency_us"].map(|n| ("histogram", n));
    let want: Vec<(String, String)> = counters
        .into_iter()
        .chain(histograms)
        .map(|(k, n)| (k.to_string(), n.to_string()))
        .collect();
    assert_eq!(names, want);
}

#[test]
fn a_deadline_trip_is_final() {
    // Each job learns its own model, so neither can meet a 1 ms deadline.
    let input = scratch("timeout.jsonl");
    std::fs::write(
        &input,
        "{\"dataset\":\"D2\",\"doc_index\":0}\n{\"dataset\":\"D3\",\"doc_index\":0}\n",
    )
    .unwrap();
    let out = vs2d_with(&input, &["--workers", "2", "--timeout-ms", "1"]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    let statuses: Vec<JobStatus> = results(&stdout).iter().map(|r| r.status).collect();
    assert_eq!(statuses, [JobStatus::Quarantined; 2], "{stdout}");
    let quarantine: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("\"record\":\"quarantine\""))
        .collect();
    assert_eq!(quarantine.len(), 2, "{stdout}");
    for record in quarantine {
        assert!(record.contains("\"kind\":\"timeout\""), "{record}");
        assert!(!record.contains("\"attempts\""), "{record}");
    }
    let fault_line = stderr_line(&stderr, " panics, ");
    assert!(
        fault_line.contains(" 0 panics, 2 timeout trips "),
        "{stderr}"
    );
    assert_eq!(out.status.code(), Some(1), "quarantines fail the run");
}

#[test]
fn summary_time_covers_shutdown() {
    // A word grid far past a 50 ms deadline: the watchdog answers it at
    // once, but its worker grinds on until the attempt returns, and
    // shutdown joins that worker before the process can exit.
    let mut grid = Document::new("grid", 40.0 * 100.0 + 20.0, 20.0 * 40.0 + 20.0);
    for row in 0..40 {
        for col in 0..100 {
            grid.push_text(TextElement::word(
                format!("w{row}x{col}"),
                BBox::new(
                    10.0 + 40.0 * col as f64,
                    10.0 + 20.0 * row as f64,
                    35.0,
                    10.0,
                ),
            ));
        }
    }
    let grid_line = Value::Object(vec![
        ("dataset".to_string(), DatasetId::D2.to_value()),
        ("doc".to_string(), grid.to_value()),
    ]);
    let input = scratch("shutdown.jsonl");
    std::fs::write(
        &input,
        format!(
            "{}\n{{\"dataset\":\"D1\",\"doc_index\":0}}\n",
            serde_json::to_string(&grid_line).unwrap()
        ),
    )
    .unwrap();
    let summary = scratch("shutdown-summary.json");
    let spawned = Instant::now();
    let out = vs2d_with(
        &input,
        &[
            "--workers",
            "2",
            "--timeout-ms",
            "50",
            "--summary-json",
            summary.to_str().unwrap(),
        ],
    );
    let lifetime = spawned.elapsed().as_secs_f64();
    assert_eq!(out.status.code(), Some(1), "the grid is quarantined");
    let summary = serde_json::parse(&std::fs::read_to_string(&summary).unwrap()).unwrap();
    let wall_s: f64 = summary.field("wall_s").unwrap();
    assert!(
        wall_s >= 0.8 * lifetime,
        "summary says {wall_s:.2}s, the process ran {lifetime:.2}s"
    );
}

#[test]
fn inline_geometry_that_cannot_be_segmented_is_invalid() {
    // A small valid inline page; each bad line bends one field of it.
    // `1e999` parses to infinity (JSON has no literal for it).
    let mut page = Document::new("page", 300.0, 200.0);
    page.push_text(TextElement::word(
        "Total",
        BBox::new(10.0, 10.0, 40.0, 12.0),
    ));
    page.push_text(TextElement::word(
        "12.50",
        BBox::new(60.0, 10.0, 40.0, 12.0),
    ));
    page.push_image(vs2_docmodel::ImageElement::new(
        1,
        BBox::new(10.0, 50.0, 80.0, 40.0),
        Default::default(),
    ));
    let line = |doc: &Document| {
        serde_json::to_string(&Value::Object(vec![
            ("dataset".to_string(), DatasetId::D4.to_value()),
            ("doc".to_string(), doc.to_value()),
        ]))
        .unwrap()
    };
    let bent = |bend: &dyn Fn(&mut Document)| {
        let mut doc = page.clone();
        bend(&mut doc);
        line(&doc)
    };
    let lines = [
        "{\"dataset\":\"D4\",\"doc_index\":0}".to_string(),
        bent(&|d| d.height = -10.0),
        bent(&|d| d.width = 0.0),
        line(&page).replacen("300.0", "1e999", 1),
        bent(&|d| d.texts[1].bbox.x = 777.25).replacen("777.25", "-1e999", 1),
        bent(&|d| d.images[0].bbox.h = -3.0),
        line(&page),
    ];
    let input = scratch("geometry.jsonl");
    std::fs::write(&input, lines.join("\n") + "\n").unwrap();
    let out = vs2d_with(&input, &["--workers", "2"]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let results = results(&stdout);
    let statuses: Vec<JobStatus> = results.iter().map(|r| r.status).collect();
    use JobStatus::{Invalid, Ok};
    assert_eq!(
        statuses,
        [Ok, Invalid, Invalid, Invalid, Invalid, Invalid, Ok],
        "{stdout}"
    );
    let fields = [
        "doc.height = -10: page size",
        "doc.width = 0: page size",
        "doc.width = inf: page size",
        "doc.texts[1].bbox.x = -inf: box coordinate",
        "doc.images[0].bbox.h = -3: box size",
    ];
    for (result, field) in results[1..6].iter().zip(fields) {
        let error = result.error.as_deref().unwrap_or_default();
        assert!(error.contains(field), "`{error}` does not name `{field}`");
    }
    assert_eq!(out.status.code(), Some(1), "invalid lines fail the run");
}
