//! Serving-layer throughput bench: batch extraction over the synthetic
//! tax corpus (D1) at 1/2/4/8 workers, plus an offered-load saturation
//! sweep against the admission-controlled service.
//!
//! Writes `results/serve_throughput.{txt,json}` plus `BENCH_serve.json`
//! at the workspace root — the workers × docs/s × p95 trajectory later
//! scaling PRs have to beat. Scaling is bounded by the host: the JSON
//! records `host_parallelism` so a 1-core CI run is not misread as a
//! scalability regression.
//!
//! The saturation sweep drives open-loop arrivals (submission times are
//! scheduled against the clock, never against completions) at 0.5×, 1×,
//! 2× and 4× of the measured 4-worker capacity and reports goodput, p99
//! sojourn (queue dwell + processing) of accepted jobs, and shed rate —
//! the overload contract: past saturation, goodput holds and the p99 of
//! what the server *accepts* stays bounded, because the excess is
//! answered with `shed` instead of queueing without bound.
//!
//! Usage: `cargo run --release -p vs2-bench --bin serve_throughput [n_docs]`

use std::time::{Duration, Instant};

use vs2_bench::ResultTable;
use vs2_serve::{
    AdmitConfig, EngineConfig, ExtractService, JobSource, JobSpec, LatencySummary, ServiceOptions,
};
use vs2_synth::DatasetId;

const DATASET: DatasetId = DatasetId::D1;
const SEED: u64 = 0xC0FFEE;

struct Run {
    workers: usize,
    wall: Duration,
    docs_per_s: f64,
    lat: LatencySummary,
    /// Queue stalls during the measured phase only.
    queue_stalls: u64,
    /// Queue stalls during cache warm-up (reported separately so the
    /// measured column reflects steady state, not cold start).
    warmup_stalls: u64,
}

struct SaturationArm {
    multiplier: f64,
    offered_per_s: f64,
    goodput_per_s: f64,
    sojourn: LatencySummary,
    shed: u64,
    total: u64,
}

fn spec(doc_index: usize) -> JobSpec {
    JobSpec {
        job_id: None,
        client: None,
        lane: None,
        dataset: DATASET,
        source: JobSource::Synthetic {
            doc_index,
            seed: SEED,
        },
        doc_cache: Default::default(),
    }
}

fn run(workers: usize, n_docs: usize) -> Run {
    let mut service = ExtractService::with_options(
        EngineConfig {
            workers,
            queue_capacity: 2 * workers.max(4),
            job_timeout: None,
            ..EngineConfig::default()
        },
        SEED,
        None,
        ServiceOptions::default(),
        None,
    );
    // Warm the model cache so the timed section measures extraction
    // throughput, not one-off pattern mining.
    service.submit(spec(0));
    service.drain();
    // Snapshot the stall counter at the phase boundary: warm-up stalls
    // must not be charged to the measured run.
    let warmup_stalls = service.stats().queue_stalls;

    let started = Instant::now();
    for i in 0..n_docs {
        service.submit(spec(i));
    }
    let results = service.drain();
    let wall = started.elapsed();
    let stats = service.shutdown();
    assert_eq!(results.len(), n_docs);
    assert!(results.iter().all(|r| r.outcome.is_ok()));
    let latencies: Vec<Duration> = results.iter().map(|r| r.latency).collect();
    Run {
        workers,
        wall,
        docs_per_s: n_docs as f64 / wall.as_secs_f64(),
        lat: LatencySummary::from_latencies(&latencies),
        queue_stalls: stats.queue_stalls - warmup_stalls,
        warmup_stalls,
    }
}

/// One open-loop offered-load arm: submit `n_docs` jobs on a fixed
/// schedule at `multiplier × capacity_per_s` against a fresh
/// admission-controlled 4-worker service.
fn saturation_arm(multiplier: f64, capacity_per_s: f64, n_docs: usize) -> SaturationArm {
    const WORKERS: usize = 4;
    const QUEUE: usize = 16;
    let service = ExtractService::with_options(
        EngineConfig {
            workers: WORKERS,
            queue_capacity: QUEUE,
            job_timeout: None,
            // Watermarks sit below the queue bound, so the open-loop
            // submitter sheds instead of blocking — offered load stays
            // on schedule even past saturation.
            admit: Some(AdmitConfig::for_queue(QUEUE)),
            ..EngineConfig::default()
        },
        SEED,
        None,
        ServiceOptions::default(),
        None,
    );
    let warm = service.submit(spec(0));
    service.wait_result(warm);

    let offered_per_s = multiplier * capacity_per_s;
    let interval = Duration::from_secs_f64(1.0 / offered_per_s);
    let started = Instant::now();
    let seqs: Vec<u64> = (0..n_docs)
        .map(|i| {
            // Open loop: arrival i is due at `started + i × interval`
            // regardless of how the server is keeping up.
            let due = interval.mul_f64(i as f64);
            if let Some(wait) = due.checked_sub(started.elapsed()) {
                std::thread::sleep(wait);
            }
            service.submit(spec(i))
        })
        .collect();
    let mut sojourns: Vec<Duration> = Vec::new();
    let mut shed = 0u64;
    for seq in seqs {
        let done = service.wait_result(seq);
        if done.outcome.is_shed() {
            shed += 1;
        } else {
            sojourns.push(done.dwell + done.latency);
        }
    }
    let wall = started.elapsed();
    service.shutdown();
    SaturationArm {
        multiplier,
        offered_per_s,
        goodput_per_s: sojourns.len() as f64 / wall.as_secs_f64(),
        sojourn: LatencySummary::from_latencies(&sojourns),
        shed,
        total: n_docs as u64,
    }
}

fn main() {
    let n_docs: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("n_docs"))
        .unwrap_or(200);
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut table = ResultTable::new(
        "Serving throughput: synthetic tax corpus (D1)",
        vec![
            "workers".into(),
            "docs/s".into(),
            "speedup".into(),
            "p50 (us)".into(),
            "p95 (us)".into(),
            "p99 (us)".into(),
            "stalls".into(),
            "warmup stalls".into(),
        ],
    );
    table.push_note(format!(
        "{n_docs} documents, seed {SEED:#x}, host parallelism {host_parallelism}"
    ));
    table.push_note(
        "stalls column counts the measured phase only; warm-up stalls reported separately"
            .to_string(),
    );

    let mut runs = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let r = run(workers, n_docs);
        eprintln!(
            "workers={} docs/s={:.2} wall={:.2}s p95={}us stalls={} (+{} warmup)",
            r.workers,
            r.docs_per_s,
            r.wall.as_secs_f64(),
            r.lat.p95_us,
            r.queue_stalls,
            r.warmup_stalls,
        );
        runs.push(r);
    }
    let base = runs[0].docs_per_s;
    for r in &runs {
        table.push_row(vec![
            r.workers.to_string(),
            format!("{:.2}", r.docs_per_s),
            format!("{:.2}x", r.docs_per_s / base),
            r.lat.p50_us.to_string(),
            r.lat.p95_us.to_string(),
            r.lat.p99_us.to_string(),
            r.queue_stalls.to_string(),
            r.warmup_stalls.to_string(),
        ]);
    }
    println!("{}", table.render());

    // Offered-load sweep against the measured 4-worker capacity.
    let capacity_per_s = runs
        .iter()
        .find(|r| r.workers == 4)
        .expect("4-worker run")
        .docs_per_s;
    let mut saturation_table = ResultTable::new(
        "Saturation sweep: open-loop offered load vs 4-worker capacity",
        vec![
            "offered".into(),
            "jobs/s".into(),
            "goodput/s".into(),
            "p99 sojourn (us)".into(),
            "shed".into(),
            "shed rate".into(),
        ],
    );
    saturation_table.push_note(format!(
        "capacity {capacity_per_s:.2} docs/s (4 workers), {n_docs} jobs per arm, admission on"
    ));
    let mut arms = Vec::new();
    for multiplier in [0.5f64, 1.0, 2.0, 4.0] {
        let arm = saturation_arm(multiplier, capacity_per_s, n_docs);
        eprintln!(
            "offered={:.1}x ({:.2}/s) goodput={:.2}/s p99_sojourn={}us shed={}/{}",
            arm.multiplier,
            arm.offered_per_s,
            arm.goodput_per_s,
            arm.sojourn.p99_us,
            arm.shed,
            arm.total,
        );
        arms.push(arm);
    }
    for a in &arms {
        saturation_table.push_row(vec![
            format!("{:.1}x", a.multiplier),
            format!("{:.2}", a.offered_per_s),
            format!("{:.2}", a.goodput_per_s),
            a.sojourn.p99_us.to_string(),
            a.shed.to_string(),
            format!("{:.3}", a.shed as f64 / a.total as f64),
        ]);
    }
    println!("{}", saturation_table.render());
    table.push_note(String::new());
    for line in saturation_table.render().lines() {
        table.push_note(line.to_string());
    }
    table.save("serve_throughput").expect("write results/");

    let bench = serde::Value::Object(vec![
        ("dataset".into(), serde::Value::Str("D1".into())),
        ("n_docs".into(), serde::Value::UInt(n_docs as u64)),
        (
            "host_parallelism".into(),
            serde::Value::UInt(host_parallelism as u64),
        ),
        (
            "runs".into(),
            serde::Value::Array(
                runs.iter()
                    .map(|r| {
                        serde::Value::Object(vec![
                            ("workers".into(), serde::Value::UInt(r.workers as u64)),
                            ("docs_per_s".into(), serde::Value::Float(r.docs_per_s)),
                            (
                                "speedup_vs_1".into(),
                                serde::Value::Float(r.docs_per_s / base),
                            ),
                            ("wall_s".into(), serde::Value::Float(r.wall.as_secs_f64())),
                            ("p50_us".into(), serde::Value::UInt(r.lat.p50_us)),
                            ("p95_us".into(), serde::Value::UInt(r.lat.p95_us)),
                            ("p99_us".into(), serde::Value::UInt(r.lat.p99_us)),
                            ("queue_stalls".into(), serde::Value::UInt(r.queue_stalls)),
                            ("warmup_stalls".into(), serde::Value::UInt(r.warmup_stalls)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "saturation".into(),
            serde::Value::Array(
                arms.iter()
                    .map(|a| {
                        serde::Value::Object(vec![
                            (
                                "offered_multiplier".into(),
                                serde::Value::Float(a.multiplier),
                            ),
                            ("offered_per_s".into(), serde::Value::Float(a.offered_per_s)),
                            ("goodput_per_s".into(), serde::Value::Float(a.goodput_per_s)),
                            (
                                "p50_sojourn_us".into(),
                                serde::Value::UInt(a.sojourn.p50_us),
                            ),
                            (
                                "p99_sojourn_us".into(),
                                serde::Value::UInt(a.sojourn.p99_us),
                            ),
                            ("shed".into(), serde::Value::UInt(a.shed)),
                            ("jobs".into(), serde::Value::UInt(a.total)),
                            (
                                "shed_rate".into(),
                                serde::Value::Float(a.shed as f64 / a.total as f64),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(
        "BENCH_serve.json",
        serde_json::to_string_pretty(&bench).expect("bench serialises"),
    )
    .expect("write BENCH_serve.json");
}
