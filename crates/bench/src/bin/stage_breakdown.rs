//! Per-stage latency breakdown of the VS2 pipeline over the synthetic
//! datasets, measured through the `vs2-obs` span tracer.
//!
//! Each document is extracted under an installed [`vs2_obs::Trace`]; the
//! captured spans are summed per stage per document, and the per-stage
//! p50/p95 over documents is reported. Each dataset runs once through
//! `Vs2Pipeline::extract`, the context path serve workers use. The
//! templated serving corpus additionally runs a plan-replay arm
//! (`Templated(replay)`) against a warmed [`vs2_core::plan::PlanStore`],
//! so the `vs2.plan.*` stage family shows up alongside the segmentation
//! stages it displaces. Writes `results/stage_breakdown.{txt,json}` plus
//! `BENCH_stages.json` at the workspace root — the per-stage profile
//! later optimisation PRs can diff against.
//!
//! Usage: `cargo run --release -p vs2-bench --bin stage_breakdown [n_docs]`

use std::collections::BTreeMap;

use vs2_bench::{build_pipeline, dataset_docs, ResultTable, RunConfig};
use vs2_core::pipeline::Vs2Config;
use vs2_core::plan::{planned_blocks, PlanConfig, PlanStore};
use vs2_eval::stats::percentile_nearest_rank;
use vs2_synth::DatasetId;

const SEED: u64 = 0xC0FFEE;

/// Per-stage latency samples for one dataset arm: stage → per-document
/// totals (µs), only over documents where the stage fired.
struct StageSamples {
    label: String,
    n_docs: usize,
    per_stage: BTreeMap<&'static str, Vec<u64>>,
}

/// Sums the captured spans of one document into per-stage totals and
/// folds them into the running sample lists. A stage may fire many times
/// per document (one AREA span per XY-cut recursion step); the sample is
/// the per-document total.
fn fold_spans(per_stage: &mut BTreeMap<&'static str, Vec<u64>>, spans: &[vs2_obs::SpanRecord]) {
    let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    for span in spans {
        let slot = totals.entry(span.stage).or_insert(0);
        *slot = slot.saturating_add(span.dur_ns);
    }
    for (stage, ns) in totals {
        per_stage.entry(stage).or_default().push(ns / 1_000);
    }
}

fn profile(dataset: DatasetId, n_docs: usize) -> StageSamples {
    let pipeline = build_pipeline(dataset, SEED, Vs2Config::default());
    let docs = dataset_docs(dataset, &RunConfig { n_docs, seed: SEED });
    let mut per_stage: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for ad in &docs {
        let trace = vs2_obs::Trace::start();
        let extractions = pipeline.extract(&ad.doc);
        let spans = trace.finish();
        assert!(!extractions.is_empty(), "extraction must produce output");
        fold_spans(&mut per_stage, &spans);
    }
    for samples in per_stage.values_mut() {
        samples.sort_unstable();
    }
    StageSamples {
        label: format!("{dataset:?}"),
        n_docs,
        per_stage,
    }
}

/// The plan-replay arm: the templated corpus extracted through a warmed
/// plan store, so `vs2.plan.{fingerprint,validate,replay}` fire in place
/// of the full segmentation subtree on every replay hit.
fn profile_replay(n_docs: usize) -> StageSamples {
    let dataset = DatasetId::Templated;
    let pipeline = build_pipeline(dataset, SEED, Vs2Config::default());
    let docs = dataset_docs(dataset, &RunConfig { n_docs, seed: SEED });
    let plan_cfg = PlanConfig::default();
    let store = PlanStore::default();
    for ad in &docs {
        planned_blocks(&ad.doc, &pipeline.config.segment, &plan_cfg, &store);
    }
    let mut per_stage: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for ad in &docs {
        let trace = vs2_obs::Trace::start();
        let (blocks, _) = planned_blocks(&ad.doc, &pipeline.config.segment, &plan_cfg, &store);
        let extractions = pipeline.extract_on_blocks(&ad.doc, &blocks);
        let spans = trace.finish();
        assert!(!extractions.is_empty(), "extraction must produce output");
        fold_spans(&mut per_stage, &spans);
    }
    for samples in per_stage.values_mut() {
        samples.sort_unstable();
    }
    StageSamples {
        label: "Templated(replay)".into(),
        n_docs,
        per_stage,
    }
}

/// The triage-routed arm: the D4 invoices corpus through
/// [`Vs2Pipeline::extract_routed`], so the `vs2.triage` scoring span and
/// the cheap XY-cut path show up in place of the full segmentation
/// subtree on every cheap-routed document.
fn profile_routed(n_docs: usize) -> StageSamples {
    let dataset = DatasetId::D4;
    let pipeline = build_pipeline(dataset, SEED, Vs2Config::default());
    let docs = dataset_docs(dataset, &RunConfig { n_docs, seed: SEED });
    let triage = vs2_core::triage::TriageConfig::default();
    let mut per_stage: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for ad in &docs {
        let trace = vs2_obs::Trace::start();
        let (extractions, _) = pipeline.extract_routed(&ad.doc, &triage);
        let spans = trace.finish();
        assert!(!extractions.is_empty(), "extraction must produce output");
        fold_spans(&mut per_stage, &spans);
    }
    for samples in per_stage.values_mut() {
        samples.sort_unstable();
    }
    StageSamples {
        label: "D4(routed)".into(),
        n_docs,
        per_stage,
    }
}

fn main() {
    let n_docs: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("n_docs"))
        .unwrap_or(60);

    let mut table = ResultTable::new(
        "Per-stage pipeline latency (µs per document, nearest-rank percentiles)",
        vec![
            "dataset".into(),
            "stage".into(),
            "docs".into(),
            "p50 (us)".into(),
            "p95 (us)".into(),
        ],
    );
    table.push_note(format!(
        "{n_docs} documents per dataset, seed {SEED:#x}; a stage's sample is its \
         summed span time within one document, over documents where it fired"
    ));

    let mut datasets = Vec::new();
    let arms = DatasetId::ALL
        .into_iter()
        .chain([DatasetId::D4, DatasetId::Templated])
        .map(|dataset| profile(dataset, n_docs))
        .chain([profile_replay(n_docs), profile_routed(n_docs)]);
    for samples in arms {
        for stage in vs2_obs::stages::ALL {
            let Some(us) = samples.per_stage.get(stage) else {
                continue;
            };
            table.push_row(vec![
                samples.label.clone(),
                (*stage).to_string(),
                us.len().to_string(),
                percentile_nearest_rank(us, 50.0).to_string(),
                percentile_nearest_rank(us, 95.0).to_string(),
            ]);
        }
        eprintln!(
            "{}: {} stages profiled over {} docs",
            samples.label,
            samples.per_stage.len(),
            samples.n_docs
        );
        datasets.push(samples);
    }
    println!("{}", table.render());
    table.save("stage_breakdown").expect("write results/");

    let bench = serde::Value::Object(vec![
        ("n_docs".into(), serde::Value::UInt(n_docs as u64)),
        ("seed".into(), serde::Value::UInt(SEED)),
        (
            "datasets".into(),
            serde::Value::Array(
                datasets
                    .iter()
                    .map(|s| {
                        serde::Value::Object(vec![
                            ("dataset".into(), serde::Value::Str(s.label.clone())),
                            (
                                "stages".into(),
                                serde::Value::Array(
                                    vs2_obs::stages::ALL
                                        .iter()
                                        .filter_map(|stage| {
                                            let us = s.per_stage.get(stage)?;
                                            Some(serde::Value::Object(vec![
                                                (
                                                    "stage".into(),
                                                    serde::Value::Str((*stage).into()),
                                                ),
                                                (
                                                    "docs".into(),
                                                    serde::Value::UInt(us.len() as u64),
                                                ),
                                                (
                                                    "p50_us".into(),
                                                    serde::Value::UInt(percentile_nearest_rank(
                                                        us, 50.0,
                                                    )),
                                                ),
                                                (
                                                    "p95_us".into(),
                                                    serde::Value::UInt(percentile_nearest_rank(
                                                        us, 95.0,
                                                    )),
                                                ),
                                            ]))
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(
        "BENCH_stages.json",
        serde_json::to_string_pretty(&bench).expect("bench serialises"),
    )
    .expect("write BENCH_stages.json");
}
