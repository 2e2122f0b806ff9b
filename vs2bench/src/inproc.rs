//! The in-process phases: the reference the `vs2d` output is checked
//! against, the closed-loop latency client, and the replay passes that
//! give the per-layer numbers.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use vs2_conformance::alloc::AllocProbe;
use vs2_core::pipeline::Vs2Pipeline;
use vs2_core::plan::{LayoutFingerprint, PlanConfig, PlanOutcome, PlanStore};
use vs2_core::triage::{TriageConfig, TriageDecision};
use vs2_core::DocContext;
use vs2_eval::{evaluate_end_to_end, ExtractionItem, PrCounts};
use vs2_serve::{
    default_config_for, EngineConfig, ExtractService, JobOutcome, JobResult, JobSpec, JobStatus,
    ModelCache, DEFAULT_DOC_SEED,
};
use vs2_synth::DatasetId;

use crate::drive::{Tally, WORKERS};
use crate::spans::SpanTree;
use crate::workload::{inline_spec, Job, Workload};

/// The result line `vs2d` writes for an `ok` job.
pub fn ok_line(seq: u64, extractions: Vec<vs2_core::Extraction>) -> String {
    let result = JobResult {
        seq,
        job_id: format!("job-{seq}"),
        status: JobStatus::Ok,
        extractions,
        error: None,
        latency_us: None,
    };
    serde_json::to_string(&result).expect("result serialises")
}

/// Pipelines built the way `vs2d`'s `ModelCache` builds them: the
/// dataset's default configuration and the daemon's default model seed.
pub struct Models {
    pipelines: HashMap<DatasetId, Vs2Pipeline>,
    /// Wall time of learning every model, cold.
    pub build: Duration,
}

impl Models {
    /// Learns every model of `workload`.
    pub fn learn(workload: Workload) -> Self {
        let cache = ModelCache::new();
        let started = Instant::now();
        let pipelines = workload
            .models()
            .into_iter()
            .map(|id| {
                let p = cache.pipeline_for(id, DEFAULT_DOC_SEED, default_config_for(id));
                (id, p)
            })
            .collect();
        let build = started.elapsed();
        Self { pipelines, build }
    }

    /// The pipeline serving `dataset`.
    pub fn pipeline(&self, dataset: DatasetId) -> &Vs2Pipeline {
        &self.pipelines[&dataset]
    }
}

/// The reference result line of job `seq`: the document parsed back
/// from the job line, extracted in-process with `extract_routed` under
/// triage and `extract_ctx` otherwise.
pub fn reference_line(workload: Workload, models: &Models, seq: u64, line: &str) -> String {
    let spec: JobSpec = serde_json::from_str(line).expect("generated job lines parse");
    let doc = spec.document_arc();
    let pipeline = models.pipeline(spec.dataset);
    let extractions = if workload == Workload::MixedRouted {
        pipeline.extract_routed(&doc, &TriageConfig::default()).0
    } else {
        pipeline.extract_ctx(&doc)
    };
    ok_line(seq, extractions)
}

/// Micro precision/recall counts of `results` against the ground truth
/// of `jobs`.
pub fn accuracy(jobs: &[Job], results: &[JobResult]) -> PrCounts {
    let mut counts = PrCounts::default();
    for (job, r) in jobs.iter().zip(results) {
        let preds: Vec<ExtractionItem> = r
            .extractions
            .iter()
            .map(|e| ExtractionItem::new(e.entity.clone(), e.span_bbox, e.text.clone()))
            .collect();
        let truth: Vec<ExtractionItem> = job
            .doc
            .annotations
            .iter()
            .map(|a| ExtractionItem::new(a.entity.clone(), a.bbox, a.text.clone()))
            .collect();
        counts.add(&evaluate_end_to_end(&preds, &truth));
    }
    counts
}

/// What the closed-loop latency client measured.
pub struct Latency {
    /// The best submit-to-result time of each job over every cycle,
    /// microseconds, in job order.
    pub best_us: Vec<f64>,
    /// Queue dwell of every measured job, microseconds.
    pub dwell_us: Vec<f64>,
    /// Status counts of the measured jobs.
    pub tally: Tally,
    /// Model-cache misses of the first cycle's service, warm-up included.
    pub model_misses: u64,
    /// Cycles run.
    pub cycles: usize,
}

/// The closed-loop latency client: one client with one outstanding job.
/// Each cycle starts a fresh service in the workload's serving mode on
/// `WORKERS` workers, warms it with one job per model, then submits
/// every job once, in order, waiting for each result before the next, so
/// every cycle sees the plan-store history a `vs2d` pass sees. Each job
/// keeps its best time over the cycles: the host is shared and its speed
/// swings by tens of percent within seconds, and the best of many tries
/// is the figure that repeats from run to run.
pub struct LatencyClient {
    out: Latency,
}

impl LatencyClient {
    /// A client for a job list of `n_jobs` jobs.
    pub fn new(n_jobs: usize) -> Self {
        Self {
            out: Latency {
                best_us: vec![f64::INFINITY; n_jobs],
                dwell_us: Vec::new(),
                tally: Tally::default(),
                model_misses: 0,
                cycles: 0,
            },
        }
    }

    /// Runs one cycle over `jobs`, after warming a fresh service with
    /// `warmup`.
    pub fn cycle(&mut self, workload: Workload, jobs: &[Job], warmup: &[Job]) {
        let service = ExtractService::with_options(
            EngineConfig {
                workers: WORKERS,
                ..EngineConfig::default()
            },
            DEFAULT_DOC_SEED,
            None,
            workload.service_options(),
            None,
        );
        for j in warmup {
            let seq = service.submit(inline_spec(j.dataset, &j.doc));
            service.wait_result(seq);
        }
        for (best, j) in self.out.best_us.iter_mut().zip(jobs) {
            let spec = inline_spec(j.dataset, &j.doc);
            let t0 = Instant::now();
            let seq = service.submit(spec);
            let done = service.wait_result(seq);
            *best = best.min(t0.elapsed().as_secs_f64() * 1e6);
            self.out.dwell_us.push(done.dwell.as_secs_f64() * 1e6);
            self.out.tally.count(match done.outcome {
                JobOutcome::Ok(_) => JobStatus::Ok,
                JobOutcome::Degraded { .. } => JobStatus::Degraded,
                JobOutcome::Failed(_) => JobStatus::Quarantined,
                JobOutcome::Shed(_) => JobStatus::Shed,
            });
        }
        if self.out.cycles == 0 {
            self.out.model_misses = service.cache_counters().1;
        }
        self.out.cycles += 1;
        service.shutdown();
    }

    /// Everything measured.
    pub fn finish(self) -> Latency {
        self.out
    }
}

/// Per-call samples of one replay pass, keyed by bench span name.
#[derive(Default)]
pub struct Replay {
    /// Call durations, nanoseconds, one per document that made the call.
    pub ns: BTreeMap<&'static str, Vec<u64>>,
    /// Allocation calls made inside each call, one per document.
    pub allocs: BTreeMap<&'static str, Vec<u64>>,
    /// Whole-document time, nanoseconds.
    pub doc_ns: Vec<u64>,
    /// Logical blocks per document.
    pub blocks: Vec<u64>,
    /// Candidate extractions per document.
    pub candidates: Vec<u64>,
    /// Job-line size per document, bytes.
    pub line_bytes: Vec<u64>,
    /// Triage decisions: full, cheap, replay.
    pub decisions: [u64; 3],
    /// Plan outcomes: hits, misses, inserts, rejects, bypasses.
    pub plan: [u64; 5],
    /// The span tree, for a traced pass.
    pub tree: Option<SpanTree>,
    /// Documents whose replayed result line differs from `vs2d`'s.
    pub mismatches: u64,
}

/// Times one public call: under a bench span with the program's trace
/// installed when a tree is given, with an allocation probe otherwise.
fn step<T>(r: &mut Replay, doc: u32, root: u32, name: &'static str, f: impl FnOnce() -> T) -> T {
    match r.tree.as_mut() {
        Some(tree) => {
            let (out, id) = tree.call(name, doc, root, f);
            let ns = tree.spans()[id as usize].dur_ns();
            r.ns.entry(name).or_default().push(ns);
            out
        }
        None => {
            let probe = AllocProbe::start();
            let t0 = Instant::now();
            let out = f();
            let ns = t0.elapsed().as_nanos() as u64;
            let allocs = probe.finish().allocs;
            r.ns.entry(name).or_default().push(ns);
            r.allocs.entry(name).or_default().push(allocs);
            out
        }
    }
}

/// Replays job lines in-process through the public calls of every
/// layer, routed exactly as the workload's `vs2d` mode routes them,
/// with a fresh plan store per model filled in job order:
///
/// parse → `DocContext` → (triage score) → (fingerprint) → blocks →
/// block texts → candidates → extract → serialise.
///
/// Untraced, each call is timed and its allocations counted; traced,
/// each call gets a bench span with the program's own spans below it.
/// Every serialised result is compared with `vs2d`'s line for the job.
pub fn replay(
    workload: Workload,
    models: &Models,
    lines: &[&str],
    vs2d_lines: &[&str],
    traced: bool,
) -> Replay {
    let plan_config = PlanConfig::default();
    let triage_config = TriageConfig::default();
    let mut stores: HashMap<DatasetId, PlanStore> = HashMap::new();
    let mut r = Replay {
        tree: traced.then(SpanTree::default),
        ..Replay::default()
    };
    for (i, line) in lines.iter().enumerate() {
        let doc_id = i as u32;
        let root = r.tree.as_mut().map_or(0, |t| t.open("doc", doc_id, None));
        let t0 = Instant::now();
        r.line_bytes.push(line.len() as u64);
        let spec: JobSpec = step(&mut r, doc_id, root, "wire.parse", || {
            serde_json::from_str(line).expect("generated job lines parse")
        });
        let doc = spec.document_arc();
        let pipeline = models.pipeline(spec.dataset);
        let seg = &pipeline.config.segment;
        let dctx = step(&mut r, doc_id, root, "context.build", || {
            DocContext::build(&doc)
        });
        let blocks = match workload {
            Workload::FormsFull => step(&mut r, doc_id, root, "segment.blocks", || {
                vs2_core::logical_blocks_ctx(&dctx, seg)
            }),
            Workload::TemplatedPlan | Workload::MixedRouted => {
                if workload == Workload::MixedRouted {
                    step(&mut r, doc_id, root, "triage.score", || {
                        vs2_core::triage_doc(&doc, seg, &triage_config)
                    });
                }
                step(&mut r, doc_id, root, "plan.fingerprint", || {
                    LayoutFingerprint::compute(&doc, &plan_config.fingerprint)
                });
                let store = stores.entry(spec.dataset).or_default();
                let (blocks, decision, outcome) = step(&mut r, doc_id, root, "plan.blocks", || {
                    if workload == Workload::MixedRouted {
                        vs2_core::routed_blocks_ctx(
                            &dctx,
                            seg,
                            &triage_config,
                            Some((&plan_config, &*store)),
                        )
                    } else {
                        let (b, o) = vs2_core::planned_blocks_ctx(&dctx, seg, &plan_config, store);
                        (b, TriageDecision::FullVs2, Some(o))
                    }
                });
                if workload == Workload::MixedRouted {
                    r.decisions[match decision {
                        TriageDecision::FullVs2 => 0,
                        TriageDecision::CheapPath => 1,
                        TriageDecision::PlanReplay => 2,
                    }] += 1;
                }
                match outcome {
                    Some(PlanOutcome::Replayed) => r.plan[0] += 1,
                    Some(PlanOutcome::Miss { inserted }) => {
                        r.plan[1] += 1;
                        r.plan[2] += u64::from(inserted);
                    }
                    Some(PlanOutcome::Rejected(_)) => r.plan[3] += 1,
                    Some(PlanOutcome::Bypassed) => r.plan[4] += 1,
                    None => {}
                }
                blocks
            }
        };
        r.blocks.push(blocks.len() as u64);
        step(&mut r, doc_id, root, "select.texts", || {
            pipeline.block_texts_ctx(&dctx, &blocks)
        });
        let candidates = step(&mut r, doc_id, root, "select.candidates", || {
            pipeline.candidates_on_blocks_ctx(&dctx, &blocks)
        });
        r.candidates
            .push(candidates.values().map(|c| c.len() as u64).sum());
        let extractions = step(&mut r, doc_id, root, "assign.extract", || {
            pipeline.extract_on_blocks_ctx(&dctx, &blocks)
        });
        let out = step(&mut r, doc_id, root, "wire.emit", || {
            ok_line(i as u64, extractions)
        });
        if vs2d_lines.get(i) != Some(&out.as_str()) {
            r.mismatches += 1;
        }
        if let Some(t) = r.tree.as_mut() {
            t.close(root);
        }
        r.doc_ns.push(t0.elapsed().as_nanos() as u64);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::result_lines;
    use crate::workload::{job_file, jobs};

    /// One malformed line among `n` makes `failed_frac` exactly `1/n`,
    /// through the same batch front end and accounting as a `vs2d` run.
    #[test]
    fn one_malformed_line_fails_one_job_in_n() {
        let w = Workload::TemplatedPlan;
        let mut file = job_file(&jobs(w, 11, 3));
        file.push_str("{\"dataset\":\"Templated\",\"doc\":\n");
        let n = 4u64;
        let service = ExtractService::with_options(
            EngineConfig {
                workers: WORKERS,
                ..EngineConfig::default()
            },
            DEFAULT_DOC_SEED,
            None,
            w.service_options(),
            None,
        );
        let mut out = Vec::new();
        vs2_serve::run_batch(
            &service,
            file.as_bytes(),
            &mut out,
            &vs2_serve::BatchOptions::default(),
        );
        service.shutdown();
        let stdout = String::from_utf8(out).unwrap();
        let (_, _, tally) = result_lines(&stdout).unwrap();
        assert_eq!(tally.attempted, n);
        assert_eq!(tally.invalid, 1);
        assert_eq!(tally.failed_frac(), 1.0 / n as f64);
    }

    /// The replay passes reproduce the reference line of every job, and
    /// the traced pass's tree has one root per document.
    #[test]
    fn replay_matches_the_reference_on_every_workload() {
        for w in Workload::ALL {
            let js = jobs(w, 5, 18);
            let models = Models::learn(w);
            let lines: Vec<&str> = js.iter().map(|j| j.line.as_str()).collect();
            let reference: Vec<String> = lines
                .iter()
                .enumerate()
                .map(|(i, l)| reference_line(w, &models, i as u64, l))
                .collect();
            let reference: Vec<&str> = reference.iter().map(String::as_str).collect();
            for traced in [false, true] {
                let r = replay(w, &models, &lines, &reference, traced);
                assert_eq!(r.mismatches, 0, "{} traced={traced}", w.name());
                assert_eq!(r.doc_ns.len(), js.len());
                if let Some(tree) = &r.tree {
                    crate::spans::check_tree(tree.spans(), js.len() as u32).unwrap();
                }
            }
        }
    }
}
