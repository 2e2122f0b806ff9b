//! `vs2d` — batch document-extraction daemon front end.
//!
//! Reads JSONL job specs from a file or stdin, streams JSONL results to
//! stdout in input order, prints a throughput/latency summary to stderr
//! on shutdown. Run `vs2d --help` for the flag reference.
//!
//! ```text
//! $ printf '%s\n' '{"dataset":"D1","doc_index":0}' '{"dataset":"D2","doc_index":1}' \
//!     | vs2d --workers 4
//! {"seq":0,"job_id":"job-0","status":"ok","extractions":[...]}
//! {"seq":1,"job_id":"job-1","status":"ok","extractions":[...]}
//! vs2d: 2 jobs (2 ok, 0 degraded, 0 quarantined, 0 shed, 0 invalid) in 0.84s — 2.4 docs/s
//! vs2d: 0 panics, 0 timeout trips | latency p50 212332us p95 341007us p99 341007us | queue stalls 0 | model cache 2 miss, 0 hit | 4 workers
//! ```
//!
//! Result lines omit `latency_us` unless `--latency` is given, so the
//! default output of a batch is byte-identical across runs and worker
//! counts. Jobs whose primary pipeline fails either come back with
//! `status: "degraded"` (XY-cut fallback segmentation) or
//! `status: "quarantined"`, with one `{"record":"quarantine",...}` line
//! per quarantined job after the batch.
//!
//! Malformed input lines (bad JSON, invalid UTF-8, longer than
//! `vs2_serve::batch::MAX_LINE_BYTES`) never abort the batch: each
//! produces an in-stream `{"status":"invalid",...}` result carrying the
//! line number and error.

use std::io::BufRead;
use std::time::{Duration, Instant};

use vs2_core::pipeline::Vs2Config;
use vs2_core::triage::TriageDecision;
use vs2_serve::{
    run_batch, AdmitConfig, BatchOptions, EngineConfig, ExtractService, FaultPlan, HandoffSnapshot,
    Lane, DEFAULT_DOC_SEED,
};

const USAGE: &str = "\
vs2d — VS2 batch document-extraction service

USAGE: vs2d [OPTIONS]
  --input PATH         job-spec JSONL file, `-` for stdin (default -)
  --workers N          worker threads (default: available parallelism)
  --queue-capacity N   work-queue bound; submission blocks beyond it (default 32)
  --timeout-ms N       soft per-job deadline: a job past it is quarantined.
                       0 disables (default 0)
  --fault-seed N       enable deterministic chaos fault injection with
                       this seed (testing only; accepts 0x-prefixed hex)
  --model-seed N       holdout-corpus seed for model learning (default 0xC0FFEE)
  --config PATH        Vs2Config JSON applied to every dataset
                       (default: per-dataset defaults)
  --latency            include per-job latency_us on result lines
                       (off by default so output is byte-stable)
  --trace              interleave {\"record\":\"span\",...} lines after each
                       result and end the batch with {\"record\":\"metrics\",...}
                       lines (off by default; see README `Observability`)
  --metrics            end the batch with the {\"record\":\"metrics\",...}
                       tail only, without per-job span lines
  --plan-cache         reuse validated segmentation plans across documents
                       that share a layout fingerprint (identical output,
                       faster on templated traffic; see README `Plan cache`)
  --triage             route whitespace-regular documents through the cheap
                       XY-cut path instead of full VS2 (faster on templated
                       traffic, bounded accuracy cost; composes with
                       --plan-cache — see README `Triage routing`)
  --summary-json PATH  also write the shutdown summary as JSON
  --admit              enable admission control with watermarks derived
                       from --queue-capacity; overload answers jobs with
                       in-stream {\"status\":\"shed\",...} lines instead of
                       blocking (see README `Overload protection & drain`)
  --bucket-capacity N  per-client fairness token buckets of N tokens
                       (implies --admit; 0 disables, the default)
  --client NAME        client identity for specs that carry no `client`
                       field (feeds per-client fairness)
  --lane LANE          default queue class for specs that carry no `lane`
                       field: `interactive` (default) or `batch`
  --drain-after N      stop admitting after N submissions: later lines are
                       answered as shed (reason `draining`) while queued
                       work flushes; pair with --handoff for a warm restart
  --handoff PATH       on shutdown, write a handoff snapshot (answered wire
                       seqs and line hashes + the drain control line it
                       consumed + quarantine ledger + cached segmentation
                       plans)
  --resume-from PATH   warm-start from a handoff snapshot: skip answered
                       lines and consumed drain control lines, preload
                       cached plans, keep seq- and token-bucket decisions
                       aligned with an uninterrupted run; exit 2 at the
                       first recorded line whose bytes differ
";

struct Options {
    input: String,
    workers: usize,
    queue_capacity: usize,
    timeout_ms: u64,
    fault_seed: Option<u64>,
    model_seed: u64,
    config_path: Option<String>,
    latency: bool,
    trace: bool,
    metrics: bool,
    plan_cache: bool,
    triage: bool,
    summary_json: Option<String>,
    admit: bool,
    bucket_capacity: Option<u32>,
    client: Option<String>,
    lane: Lane,
    drain_after: Option<u64>,
    handoff: Option<String>,
    resume_from: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            input: "-".into(),
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            queue_capacity: 32,
            timeout_ms: 0,
            fault_seed: None,
            model_seed: DEFAULT_DOC_SEED,
            config_path: None,
            latency: false,
            trace: false,
            metrics: false,
            plan_cache: false,
            triage: false,
            summary_json: None,
            admit: false,
            bucket_capacity: None,
            client: None,
            lane: Lane::Interactive,
            drain_after: None,
            handoff: None,
            resume_from: None,
        }
    }
}

fn parse_seed(raw: &str) -> Result<u64, String> {
    if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).map_err(|e| e.to_string())
    } else {
        raw.parse()
            .map_err(|e: std::num::ParseIntError| e.to_string())
    }
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--input" => opts.input = value("--input")?,
            "--workers" => {
                opts.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--queue-capacity" => {
                opts.queue_capacity = value("--queue-capacity")?
                    .parse()
                    .map_err(|e| format!("--queue-capacity: {e}"))?;
            }
            "--timeout-ms" => {
                opts.timeout_ms = value("--timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--timeout-ms: {e}"))?;
            }
            "--fault-seed" => {
                let raw = value("--fault-seed")?;
                opts.fault_seed = Some(parse_seed(&raw).map_err(|e| format!("--fault-seed: {e}"))?);
            }
            "--model-seed" => {
                let raw = value("--model-seed")?;
                opts.model_seed = parse_seed(&raw).map_err(|e| format!("--model-seed: {e}"))?;
            }
            "--config" => opts.config_path = Some(value("--config")?),
            "--latency" => opts.latency = true,
            "--trace" => opts.trace = true,
            "--metrics" => opts.metrics = true,
            "--plan-cache" => opts.plan_cache = true,
            "--triage" => opts.triage = true,
            "--summary-json" => opts.summary_json = Some(value("--summary-json")?),
            "--admit" => opts.admit = true,
            "--bucket-capacity" => {
                opts.bucket_capacity = Some(
                    value("--bucket-capacity")?
                        .parse()
                        .map_err(|e| format!("--bucket-capacity: {e}"))?,
                );
            }
            "--client" => opts.client = Some(value("--client")?),
            "--lane" => {
                let raw = value("--lane")?;
                opts.lane = Lane::parse(&raw)
                    .ok_or_else(|| format!("--lane: unknown lane `{raw}` (interactive|batch)"))?;
            }
            "--drain-after" => {
                opts.drain_after = Some(
                    value("--drain-after")?
                        .parse()
                        .map_err(|e| format!("--drain-after: {e}"))?,
                );
            }
            "--handoff" => opts.handoff = Some(value("--handoff")?),
            "--resume-from" => opts.resume_from = Some(value("--resume-from")?),
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(opts)
}

fn fail(message: &str) -> ! {
    eprintln!("vs2d: {message}");
    std::process::exit(2);
}

fn main() {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => fail(&e),
    };
    let config: Option<Vs2Config> = opts.config_path.as_ref().map(|path| {
        let raw = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read --config {path}: {e}")));
        serde_json::from_str(&raw)
            .unwrap_or_else(|e| fail(&format!("invalid --config {path}: {e}")))
    });
    let resume: Option<HandoffSnapshot> = opts.resume_from.as_ref().map(|path| {
        let raw = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read --resume-from {path}: {e}")));
        HandoffSnapshot::parse(&raw)
            .unwrap_or_else(|e| fail(&format!("invalid --resume-from {path}: {e}")))
    });
    let reader: Box<dyn BufRead> = if opts.input == "-" {
        Box::new(std::io::stdin().lock())
    } else {
        match std::fs::File::open(&opts.input) {
            Ok(f) => Box::new(std::io::BufReader::new(f)),
            Err(e) => fail(&format!("cannot open --input {}: {e}", opts.input)),
        }
    };

    let engine_config = EngineConfig {
        workers: opts.workers,
        queue_capacity: opts.queue_capacity,
        job_timeout: (opts.timeout_ms > 0).then(|| Duration::from_millis(opts.timeout_ms)),
        faults: opts.fault_seed.map(FaultPlan::chaos),
        admit: (opts.admit || opts.bucket_capacity.is_some()).then(|| {
            let cfg = AdmitConfig::for_queue(opts.queue_capacity);
            match opts.bucket_capacity {
                Some(cap) => cfg.with_buckets(cap, cfg.refill_per_mille),
                None => cfg,
            }
        }),
    };
    let options = vs2_serve::ServiceOptions {
        plan_cache: opts.plan_cache,
        triage: opts.triage,
        ..Default::default()
    };
    // The service always counts into its ledger (the metrics tail and
    // the triage counts below read it); a hub only adds `--trace` span
    // capture.
    let hub = opts.trace.then(vs2_serve::ObsHub::new);
    let service =
        ExtractService::with_options(engine_config, opts.model_seed, config, options, hub);
    if let Some(snap) = &resume {
        service.warm_start(snap);
    }

    let started = Instant::now();
    let run = run_batch(
        &service,
        reader,
        std::io::BufWriter::new(std::io::stdout()),
        &BatchOptions {
            include_latency: opts.latency,
            emit_metrics: opts.metrics,
            default_client: opts.client.clone(),
            default_lane: opts.lane,
            drain_after: opts.drain_after,
            resume_completed: resume.as_ref().map(HandoffSnapshot::answered),
            resume_controls: resume
                .as_ref()
                .map(HandoffSnapshot::consumed_controls)
                .unwrap_or_default(),
        },
    );
    if let Some(line_no) = run.resume_mismatch {
        service.shutdown();
        fail(&format!(
            "--resume-from {}: input line {line_no} differs from the line the snapshot \
             recorded for it; this is not the predecessor's input, stopped before it",
            opts.resume_from.as_deref().unwrap_or_default(),
        ));
    }

    if let Some(path) = &opts.handoff {
        let snapshot = service.handoff_snapshot(&run, resume.as_ref());
        if let Err(e) = std::fs::write(path, snapshot.to_json()) {
            eprintln!("vs2d: cannot write --handoff {path}: {e}");
        }
    }

    let stats = service.stats();
    let (cache_hits, cache_misses) = service.cache_counters();
    let cache_snapshot = service.cache_snapshot();
    let [triage_full, triage_cheap, triage_replay] = [
        TriageDecision::FullVs2,
        TriageDecision::CheapPath,
        TriageDecision::PlanReplay,
    ]
    .map(|decision| service.metrics().triage_count(decision));
    service.shutdown();
    // Read after shutdown: it joins any worker still stuck in an attempt
    // the watchdog already tripped, and the process cannot exit sooner.
    let wall = started.elapsed();

    let lat = vs2_serve::LatencySummary::from_latencies(&run.latencies);
    let jobs = stats.submitted + run.invalid;
    let docs_per_s = if wall.as_secs_f64() > 0.0 {
        stats.completed as f64 / wall.as_secs_f64()
    } else {
        0.0
    };
    eprintln!(
        "vs2d: {jobs} jobs ({} ok, {} degraded, {} quarantined, {} shed, {} invalid) in {:.2}s — {:.1} docs/s",
        stats.ok,
        stats.degraded,
        stats.quarantined,
        stats.shed,
        run.invalid,
        wall.as_secs_f64(),
        docs_per_s,
    );
    if run.skipped > 0 {
        eprintln!(
            "vs2d: resumed from handoff — {} lines already answered by the predecessor",
            run.skipped
        );
    }
    eprintln!(
        "vs2d: {} panics, {} timeout trips | latency p50 {}us p95 {}us p99 {}us | queue stalls {} | model cache {} miss, {} hit | {} workers",
        stats.panicked,
        stats.timed_out,
        lat.p50_us,
        lat.p95_us,
        lat.p99_us,
        stats.queue_stalls,
        cache_misses,
        cache_hits,
        opts.workers,
    );
    if opts.plan_cache {
        let p = cache_snapshot.plans;
        eprintln!(
            "vs2d: plan cache {} hit, {} miss, {} validation rejects, {} bypassed | {} inserted, {} evicted, {} uncacheable",
            p.hits, p.misses, p.validation_rejects, p.bypasses, p.inserts, p.evictions, p.uncacheable,
        );
    }
    if opts.triage {
        eprintln!(
            "vs2d: triage routed {triage_full} full, {triage_cheap} cheap, {triage_replay} replay"
        );
    }
    if let Some(path) = &opts.summary_json {
        let summary = serde::Value::Object(vec![
            ("workers".into(), serde::Value::UInt(opts.workers as u64)),
            (
                "queue_capacity".into(),
                serde::Value::UInt(opts.queue_capacity as u64),
            ),
            ("jobs".into(), serde::Value::UInt(jobs)),
            ("ok".into(), serde::Value::UInt(stats.ok)),
            ("degraded".into(), serde::Value::UInt(stats.degraded)),
            ("quarantined".into(), serde::Value::UInt(stats.quarantined)),
            ("shed".into(), serde::Value::UInt(stats.shed)),
            ("panicked".into(), serde::Value::UInt(stats.panicked)),
            ("timed_out".into(), serde::Value::UInt(stats.timed_out)),
            ("invalid".into(), serde::Value::UInt(run.invalid)),
            ("wall_s".into(), serde::Value::Float(wall.as_secs_f64())),
            ("docs_per_s".into(), serde::Value::Float(docs_per_s)),
            ("p50_us".into(), serde::Value::UInt(lat.p50_us)),
            ("p95_us".into(), serde::Value::UInt(lat.p95_us)),
            ("p99_us".into(), serde::Value::UInt(lat.p99_us)),
            (
                "queue_stalls".into(),
                serde::Value::UInt(stats.queue_stalls),
            ),
            ("cache_misses".into(), serde::Value::UInt(cache_misses)),
            ("cache_hits".into(), serde::Value::UInt(cache_hits)),
            (
                "plan_cache_hits".into(),
                serde::Value::UInt(cache_snapshot.plans.hits),
            ),
            (
                "plan_cache_misses".into(),
                serde::Value::UInt(cache_snapshot.plans.misses),
            ),
            (
                "plan_cache_validation_rejects".into(),
                serde::Value::UInt(cache_snapshot.plans.validation_rejects),
            ),
            (
                "plan_cache_bypasses".into(),
                serde::Value::UInt(cache_snapshot.plans.bypasses),
            ),
            ("triage_full".into(), serde::Value::UInt(triage_full)),
            ("triage_cheap".into(), serde::Value::UInt(triage_cheap)),
            ("triage_replay".into(), serde::Value::UInt(triage_replay)),
        ]);
        if let Err(e) = std::fs::write(
            path,
            serde_json::to_string_pretty(&summary).expect("summary serialises"),
        ) {
            eprintln!("vs2d: cannot write --summary-json {path}: {e}");
        }
    }
    if stats.quarantined + run.invalid > 0 {
        std::process::exit(1);
    }
}
