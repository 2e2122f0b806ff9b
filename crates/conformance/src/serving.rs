//! Shared serving scaffold: job constructors, the serving-matrix batch, one
//! [`Mode`] value naming every serving switch, one runner that serves a
//! batch through [`run_batch`] (the `vs2d` front end), and the drain →
//! handoff → resume sequence.
//!
//! Every run goes through the wire format — JSONL job lines in, result
//! and quarantine lines out — with latency fields off, so outputs are
//! byte-comparable across worker counts, repeats and modes. Each
//! service's ledger ([`ExtractService::metrics`]) is read back so its
//! counters can be reconciled with the wire. Watchdog deadlines are wall-clock
//! and therefore outside the determinism contract, so every service
//! here runs with `job_timeout: None`.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::sync::Arc;

use serde::Serialize as _;
use vs2_core::plan::PlanCounters;
use vs2_core::segment::logical_blocks;
use vs2_core::{cheap_blocks, Extraction, TriageConfig};
use vs2_docmodel::Document;
use vs2_serve::{
    default_config_for, run_batch, AdmitConfig, BatchOptions, BatchRun, EngineConfig, EngineStats,
    ExtractService, FaultPlan, HandoffSnapshot, JobResult, JobSource, JobSpec, JobStatus, Lane,
    ModelCache, ServiceOptions, DEFAULT_DOC_SEED,
};
use vs2_synth::{adversarial, invoices, templated, DatasetId};

use crate::golden::{dataset_name, N_GOLDEN_DOCS};

/// Fault seed of the chaos axis ([`FaultPlan::chaos`]).
pub const FAULT_SEED: u64 = 0xC4A0_5EED;
/// Default work-queue bound. Small, so submission backpressure engages
/// at 4 workers.
const QUEUE_CAPACITY: usize = 4;
/// Token buckets of the matrix's admission axis: capacity and refill
/// (millitokens per admission tick). Chosen so the flood client both
/// degrades before the drain cut and holds a part-filled bucket across
/// it — a successor that failed to replay either the bucket charges or
/// the ticks of skipped lines would then decide differently.
const BUCKET_CAPACITY: u32 = 3;
const BUCKET_REFILL_PER_MILLE: u32 = 250;
/// The flooding batch-lane client of the matrix batch.
pub const FLOOD_CLIENT: &str = "flood";
/// The interactive client interleaved with the flood.
pub const UI_CLIENT: &str = "ui";
/// Job id of the inline copy of the shared document; its synthetic
/// copy is [`SHARED_SYNTHETIC_ID`].
pub const SHARED_INLINE_ID: &str = "shared-inline";
/// Job id of the synthetic copy of the shared document.
pub const SHARED_SYNTHETIC_ID: &str = "golden-D3-2";
/// Lines of the matrix batch before its flood block.
const PRE_FLOOD: usize = 4 * N_GOLDEN_DOCS + templated::FAMILIES;
/// Lines in the matrix batch's flood block.
const FLOOD_LINES: usize = 12;
/// Drain point of the matrix's drain axis: the victim drains after this
/// many submissions, halfway through the flood block.
pub const MATRIX_CUT: u64 = (PRE_FLOOD + FLOOD_LINES / 2) as u64;

/// A synthetic job at the default document seed.
pub fn synthetic(dataset: DatasetId, doc_index: usize) -> JobSpec {
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

/// An inline job carrying `doc`, served with `dataset`'s model.
fn inline(dataset: DatasetId, id: impl Into<String>, doc: Document) -> JobSpec {
    JobSpec {
        job_id: Some(id.into()),
        source: JobSource::Inline(Arc::new(doc)),
        ..synthetic(dataset, 0)
    }
}

/// The adversarial layout corpus as inline D1 jobs, named after their
/// corpus entries: hostile documents that exercise the degradation
/// fallback on inputs the XY-cut segmenter itself finds difficult.
pub fn adversarial_jobs() -> Vec<JobSpec> {
    adversarial::corpus()
        .into_iter()
        .map(|(name, doc)| inline(DatasetId::D1, name, doc))
        .collect()
}

fn named(id: String, spec: JobSpec) -> JobSpec {
    JobSpec {
        job_id: Some(id),
        ..spec
    }
}

/// The serving-matrix batch, in wire order:
///
/// 1. the D1–D4 golden documents (`golden-<dataset>-<i>`);
/// 2. one templated document per family (`templated-<i>`);
/// 3. the flood block straddling [`MATRIX_CUT`]: D1 documents from the
///    batch-lane [`FLOOD_CLIENT`], every fourth one from the
///    interactive [`UI_CLIENT`] instead;
/// 4. a second templated document per family and a second invoice of
///    each golden D4 family, so plans replay;
/// 5. the adversarial corpus as inline D1 jobs;
/// 6. an inline copy of [`SHARED_SYNTHETIC_ID`]'s document;
/// 7. the templated near-miss colliders (`near-miss-<i>`), which share a
///    family fingerprint but must fail plan validation.
pub fn matrix_batch() -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for dataset in DatasetId::EXTENDED {
        for i in 0..N_GOLDEN_DOCS {
            let id = format!("golden-{}-{i}", dataset_name(dataset));
            specs.push(named(id, synthetic(dataset, i)));
        }
    }
    for i in 0..templated::FAMILIES {
        specs.push(named(
            format!("templated-{i}"),
            synthetic(DatasetId::Templated, i),
        ));
    }
    for i in 0..FLOOD_LINES {
        let (client, lane) = if i % 4 == 3 {
            (UI_CLIENT, Lane::Interactive)
        } else {
            (FLOOD_CLIENT, Lane::Batch)
        };
        specs.push(JobSpec {
            client: Some(client.to_string()),
            lane: Some(lane),
            ..named(
                format!("{client}-{i}"),
                synthetic(DatasetId::D1, N_GOLDEN_DOCS + i),
            )
        });
    }
    for i in templated::FAMILIES..2 * templated::FAMILIES {
        specs.push(named(
            format!("templated-{i}"),
            synthetic(DatasetId::Templated, i),
        ));
    }
    for i in invoices::FAMILIES..invoices::FAMILIES + N_GOLDEN_DOCS {
        specs.push(named(format!("invoice-{i}"), synthetic(DatasetId::D4, i)));
    }
    specs.extend(adversarial_jobs());
    let shared = specs
        .iter()
        .find(|s| s.job_id.as_deref() == Some(SHARED_SYNTHETIC_ID))
        .expect("the shared document is a golden document")
        .document();
    specs.push(inline(DatasetId::D3, SHARED_INLINE_ID, shared));
    for (i, labelled) in templated::adversarial_corpus(DEFAULT_DOC_SEED)
        .into_iter()
        .enumerate()
    {
        specs.push(inline(
            DatasetId::Templated,
            format!("near-miss-{i}"),
            labelled.doc,
        ));
    }
    specs
}

/// Renders specs as JSONL job lines.
pub fn job_lines(specs: &[JobSpec]) -> String {
    specs
        .iter()
        .map(|spec| serde_json::to_string(spec).expect("job spec serialises") + "\n")
        .collect()
}

/// The matrix's admission axis: per-client token buckets with inert
/// pressure watermarks, so every decision is a pure function of the
/// submission stream.
pub fn bucket_admission() -> AdmitConfig {
    inert_admission().with_buckets(BUCKET_CAPACITY, BUCKET_REFILL_PER_MILLE)
}

/// An admission controller that can never fire: no buckets, inert
/// pressure watermarks.
pub fn inert_admission() -> AdmitConfig {
    AdmitConfig::for_queue(QUEUE_CAPACITY).inert_pressure()
}

/// One setting of every serving switch.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    /// Engine worker threads.
    pub workers: usize,
    /// Work-queue bound.
    pub queue_capacity: usize,
    /// Fault injection plan.
    pub faults: Option<FaultPlan>,
    /// Admission control.
    pub admit: Option<AdmitConfig>,
    /// Segmentation route: plan cache, triage, naive segmenter.
    pub options: ServiceOptions,
    /// Drain after this many submissions, hand off, and resume the rest
    /// on a successor service.
    pub drain_after: Option<u64>,
}

impl Mode {
    /// Every switch off.
    pub fn plain(workers: usize) -> Self {
        Self {
            workers,
            queue_capacity: QUEUE_CAPACITY,
            faults: None,
            admit: None,
            options: ServiceOptions::default(),
            drain_after: None,
        }
    }

    /// The engine configuration of this mode.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            workers: self.workers,
            queue_capacity: self.queue_capacity,
            job_timeout: None,
            faults: self.faults,
            admit: self.admit,
        }
    }

    /// A fresh service in this mode (tracing off).
    pub fn service(&self) -> ExtractService {
        ExtractService::with_options(
            self.engine_config(),
            DEFAULT_DOC_SEED,
            None,
            self.options,
            None,
        )
    }
}

/// One `run_batch` pass over a batch, on one service.
pub struct Run {
    /// The raw stdout.
    pub stdout: String,
    /// The result lines, parsed, in wire order.
    pub results: Vec<JobResult>,
    /// The raw `{"record":"quarantine",...}` lines, in wire order.
    pub quarantine: Vec<String>,
    /// What `run_batch` reported.
    pub batch: BatchRun,
    /// The engine's final counters.
    pub stats: EngineStats,
    /// The ledger's counters, by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// The plan cache's counters.
    pub plans: PlanCounters,
}

impl Run {
    /// Result lines with `status`.
    pub fn count(&self, status: JobStatus) -> u64 {
        self.results.iter().filter(|r| r.status == status).count() as u64
    }

    /// The ledger counter `name`.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Exactly-once accounting of a pass over an `n`-line batch whose
    /// first `skipped` lines were resumed past: one result line per
    /// remaining job line, in input order, and the engine counters,
    /// `BatchRun`, quarantine records and ledger `jobs_*` counters all
    /// agreeing with the statuses on the wire.
    pub fn assert_exactly_once(&self, context: &str, skipped: u64, n: u64) {
        assert_eq!(self.batch.skipped, skipped, "{context}");
        let seqs: Vec<u64> = self.results.iter().map(|r| r.seq).collect();
        assert_eq!(
            seqs,
            (skipped..n).collect::<Vec<_>>(),
            "{context}: one result line per job line, in input order"
        );
        let [ok, degraded, quarantined, shed] = [
            JobStatus::Ok,
            JobStatus::Degraded,
            JobStatus::Quarantined,
            JobStatus::Shed,
        ]
        .map(|s| self.count(s));
        assert_eq!(
            ok + degraded + quarantined + shed,
            n - skipped,
            "{context}: a line answered outside ok/degraded/quarantined/shed"
        );
        let s = &self.stats;
        assert_eq!(s.submitted, n - skipped, "{context}");
        assert_eq!(s.completed, s.ok + s.degraded + s.quarantined + s.shed);
        assert_eq!(
            [s.ok, s.degraded, s.quarantined, s.shed],
            [ok, degraded, quarantined, shed],
            "{context}: engine counters disagree with the wire"
        );
        assert_eq!(
            ["jobs_ok", "jobs_degraded", "jobs_quarantined", "jobs_shed"]
                .map(|name| self.counter(name)),
            [ok, degraded, quarantined, shed],
            "{context}: ledger counters disagree with the wire"
        );
        assert_eq!(self.batch.invalid, 0, "{context}");
        assert_eq!(self.batch.shed, shed, "{context}");
        let answered: Vec<u64> = self
            .results
            .iter()
            .filter(|r| r.status != JobStatus::Shed)
            .map(|r| r.seq)
            .collect();
        assert_eq!(completed_seqs(&self.batch), answered, "{context}");
        let quarantined_seqs: Vec<u64> = self
            .results
            .iter()
            .filter(|r| r.status == JobStatus::Quarantined)
            .map(|r| r.seq)
            .collect();
        let record_seqs: Vec<u64> = self
            .batch
            .quarantine_records
            .iter()
            .map(|q| q.seq)
            .collect();
        assert_eq!(record_seqs, quarantined_seqs, "{context}");
        assert_eq!(self.quarantine.len() as u64, quarantined, "{context}");
    }
}

/// A batch served in one mode: one run, or the victim and successor
/// runs of a drained mode.
pub struct Served {
    /// The only run, or the draining victim's.
    pub first: Run,
    /// The resumed successor's run, in drained modes.
    pub successor: Option<Run>,
}

impl Served {
    /// Every run, in process order.
    pub fn runs(&self) -> impl Iterator<Item = &Run> {
        std::iter::once(&self.first).chain(&self.successor)
    }

    /// The stream's answer per wire seq: the successor's when it gave
    /// one, the first run's otherwise.
    pub fn answers(&self) -> Vec<&JobResult> {
        let mut answers: Vec<&JobResult> = self.first.results.iter().collect();
        for r in self.successor.iter().flat_map(|s| &s.results) {
            answers[r.seq as usize] = r;
        }
        answers
    }

    /// The quarantine records of every run, concatenated.
    pub fn quarantine(&self) -> Vec<&str> {
        self.runs()
            .flat_map(|r| r.quarantine.iter().map(String::as_str))
            .collect()
    }

    /// A plan counter summed over every run.
    pub fn plan_total(&self, field: impl Fn(&PlanCounters) -> u64) -> u64 {
        self.runs().map(|r| field(&r.plans)).sum()
    }

    /// A ledger counter summed over every run.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.runs().map(|r| r.counter(name)).sum()
    }

    /// The drain/resume contract of a stream drained after `cut` lines:
    /// the victim terminally answers exactly the pre-drain lines and
    /// answers the rest as typed `draining` sheds; the successor-else-
    /// victim answer per line equals the `uninterrupted` serving of the
    /// same stream; and the quarantine records concatenate to its
    /// ledger.
    pub fn assert_resumes(&self, context: &str, uninterrupted: &Served, cut: u64) {
        let victim = &self.first;
        assert_eq!(
            completed_seqs(&victim.batch),
            (0..cut).collect::<Vec<_>>(),
            "{context}: the victim terminally answers exactly the pre-drain lines"
        );
        for r in &victim.results[cut as usize..] {
            assert!(
                r.status == JobStatus::Shed && r.error.as_deref() == Some("overloaded: draining"),
                "{context}: post-drain victim line must be a typed shed: {}",
                result_line(r)
            );
        }
        let render =
            |s: &Served| -> String { s.answers().iter().map(|r| result_line(r) + "\n").collect() };
        assert_same_output(context, &render(self), &render(uninterrupted));
        assert_eq!(
            self.quarantine(),
            uninterrupted.quarantine(),
            "{context}: quarantine records must concatenate to the uninterrupted ledger"
        );
    }
}

/// A result as its wire line.
pub fn result_line(result: &JobResult) -> String {
    serde_json::to_string(result).expect("result serialises")
}

/// Extractions as JSON.
pub fn extractions_json(extractions: &Vec<Extraction>) -> String {
    serde_json::to_string(&extractions.to_value()).expect("extractions serialise")
}

/// Byte equality of two outputs, reporting the first differing line.
pub fn assert_same_output(context: &str, a: &str, b: &str) {
    if a == b {
        return;
    }
    let (al, bl): (Vec<&str>, Vec<&str>) = (a.lines().collect(), b.lines().collect());
    let at = (0..al.len().max(bl.len()))
        .find(|&i| al.get(i) != bl.get(i))
        .unwrap_or(0);
    let clip = |l: Option<&&str>| l.map_or("<none>".to_string(), |l| l.chars().take(300).collect());
    panic!(
        "{context}: outputs differ at line {at}\n  left:  {}\n  right: {}",
        clip(al.get(at)),
        clip(bl.get(at))
    );
}

/// The offline answers to each job of a batch, as extraction JSON,
/// computed with each job's served model.
pub struct Offline {
    /// `extract_on_blocks_naive` over `logical_blocks`: full VS2.
    pub full: Vec<String>,
    /// `extract_on_blocks` over `cheap_blocks`: the XY-cut fallback.
    pub cheap: Vec<String>,
    /// `extract_on_blocks_naive` over `cheap_blocks`.
    pub cheap_naive: Vec<String>,
}

impl Offline {
    /// The offline answers to `specs`.
    pub fn of(specs: &[JobSpec]) -> Self {
        let cache = ModelCache::new();
        let cheap_cfg = TriageConfig::default().cheap;
        let mut offline = Self {
            full: Vec::new(),
            cheap: Vec::new(),
            cheap_naive: Vec::new(),
        };
        for spec in specs {
            let pipeline = cache.pipeline_for(
                spec.dataset,
                DEFAULT_DOC_SEED,
                default_config_for(spec.dataset),
            );
            let doc = spec.document();
            let blocks = logical_blocks(&doc, &pipeline.config.segment);
            let full = pipeline.extract_on_blocks_naive(&doc, &blocks);
            offline.full.push(extractions_json(&full));
            let blocks = cheap_blocks(&doc, &cheap_cfg);
            let cheap = pipeline.extract_on_blocks(&doc, &blocks);
            offline.cheap.push(extractions_json(&cheap));
            let cheap_naive = pipeline.extract_on_blocks_naive(&doc, &blocks);
            offline.cheap_naive.push(extractions_json(&cheap_naive));
        }
        offline
    }

    /// Every degraded answer among `answers` (one per job, in batch
    /// order) is the XY-cut fallback, and the naive matcher agrees with
    /// the indexed one on its partition. Returns the number of degraded
    /// answers checked.
    pub fn assert_degraded_are_fallback(&self, context: &str, answers: &[&JobResult]) -> usize {
        let mut degraded = 0;
        for (i, answer) in answers.iter().enumerate() {
            if answer.status != JobStatus::Degraded {
                continue;
            }
            degraded += 1;
            let context = format!("{context} {}", answer.job_id);
            assert_eq!(
                extractions_json(&answer.extractions),
                self.cheap[i],
                "{context}: degraded answer is not the XY-cut extraction"
            );
            assert_eq!(
                self.cheap[i], self.cheap_naive[i],
                "{context}: matchers diverged on the XY-cut partition"
            );
        }
        degraded
    }
}

/// Serves `specs` in `mode`. In a drained mode the victim drains after
/// `drain_after` submissions, its handoff snapshot round-trips through
/// JSON, and a successor preloads the snapshot's plans and resumes the
/// stream.
pub fn serve(mode: &Mode, specs: &[JobSpec]) -> Served {
    let input = job_lines(specs);
    let drain_after = BatchOptions {
        drain_after: mode.drain_after,
        ..BatchOptions::default()
    };
    let victim = mode.service();
    let (stdout, batch) = pass(&victim, &input, &drain_after);
    let snapshot = mode
        .drain_after
        .map(|_| victim.handoff_snapshot(&batch, None));
    let first = finish(victim, stdout, batch);
    let Some(snapshot) = snapshot else {
        return Served {
            first,
            successor: None,
        };
    };
    // Round-trip through the wire format, exactly as vs2d would.
    let restored = HandoffSnapshot::parse(&snapshot.to_json()).expect("snapshot round-trips");
    assert_eq!(restored.completed, snapshot.completed);
    let successor = mode.service();
    successor.warm_start(&restored);
    let resumed = BatchOptions {
        resume_completed: Some(restored.answered()),
        resume_controls: restored.consumed_controls(),
        ..BatchOptions::default()
    };
    let (stdout, batch) = pass(&successor, &input, &resumed);
    Served {
        first,
        successor: Some(finish(successor, stdout, batch)),
    }
}

/// Serves `specs` `n` times over on one fresh service in `mode` (so
/// later passes hit warm plan state); returns each pass's stdout and the
/// final plan counters. Engine seqs keep counting across passes, so a
/// fault plan draws afresh on every pass.
pub fn passes(mode: &Mode, specs: &[JobSpec], n: usize) -> (Vec<String>, PlanCounters) {
    let service = mode.service();
    let input = job_lines(specs);
    let stdouts = (0..n)
        .map(|_| pass(&service, &input, &BatchOptions::default()).0)
        .collect();
    let counters = service.cache_snapshot().plans;
    service.shutdown();
    (stdouts, counters)
}

/// One `run_batch` pass over `input`; returns stdout and the batch
/// report.
pub fn pass(service: &ExtractService, input: &str, opts: &BatchOptions) -> (String, BatchRun) {
    let mut out = Vec::new();
    let batch = run_batch(service, Cursor::new(input), &mut out, opts);
    (String::from_utf8(out).expect("output is UTF-8"), batch)
}

/// The wire seqs a pass answered terminally, in order.
pub fn completed_seqs(batch: &BatchRun) -> Vec<u64> {
    batch.completed.iter().map(|l| l.seq).collect()
}

/// Shuts `service` down after a pass and collects its run.
fn finish(service: ExtractService, stdout: String, batch: BatchRun) -> Run {
    let (quarantine, results): (Vec<&str>, Vec<&str>) = stdout
        .lines()
        .partition(|l| l.contains("\"record\":\"quarantine\""));
    let results = results
        .into_iter()
        .map(|l| serde_json::from_str::<JobResult>(l).expect("result line parses"))
        .collect();
    let quarantine = quarantine.into_iter().map(str::to_string).collect();
    let counters = service.metrics().counters().collect();
    let plans = service.cache_snapshot().plans;
    let stats = service.shutdown();
    Run {
        stdout,
        results,
        quarantine,
        batch,
        stats,
        counters,
        plans,
    }
}
