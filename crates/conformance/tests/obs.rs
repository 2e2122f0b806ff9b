//! Observability conformance: structural invariants of the span tree the
//! tracer captures for one document, equality of traced and untraced
//! extractions, and wire-schema validation of the `--trace` JSONL
//! records emitted by the batch layer.
//!
//! The span-tree contract (see `vs2_obs::stages`): spans of a single
//! extraction form one rooted tree under `vs2.extract`; every child is
//! time-contained in its parent; and each stage in
//! [`vs2_obs::stages::ONCE_PER_DOC`] appears exactly once per document
//! (gated on the config switches that enable it).

use std::collections::BTreeMap;
use std::io::Cursor;

use serde::Serialize as _;
use vs2_obs::{stages, SpanRecord, Trace};
use vs2_serve::{
    default_config_for, run_batch, BatchOptions, EngineConfig, ExtractService, JobSource, JobSpec,
    ModelCache, ObsHub, ServiceOptions, DEFAULT_DOC_SEED,
};
use vs2_synth::{adversarial, DatasetId};

/// The traced corpus: every adversarial document plus a few ordinary
/// synthetic ones, all extracted with the served D1 pipeline.
fn traced_corpus() -> Vec<(String, vs2_docmodel::Document)> {
    let mut docs: Vec<(String, vs2_docmodel::Document)> = adversarial::corpus()
        .into_iter()
        .map(|(name, doc)| (name.to_string(), doc))
        .collect();
    for i in 0..3 {
        let spec = JobSpec {
            job_id: None,
            client: None,
            lane: None,
            dataset: DatasetId::D1,
            source: JobSource::Synthetic {
                doc_index: i,
                seed: DEFAULT_DOC_SEED,
            },
            doc_cache: Default::default(),
        };
        docs.push((format!("synthetic-{i}"), spec.document()));
    }
    docs
}

fn end_ns(s: &SpanRecord) -> u64 {
    s.start_ns.saturating_add(s.dur_ns)
}

#[test]
fn spans_form_a_single_rooted_time_contained_tree() {
    let cache = ModelCache::new();
    let config = default_config_for(DatasetId::D1);
    let pipeline = cache.pipeline_for(DatasetId::D1, DEFAULT_DOC_SEED, config);
    for (name, doc) in traced_corpus() {
        let trace = Trace::start();
        pipeline.extract(&doc);
        let spans = trace.finish();
        assert!(!spans.is_empty(), "{name}: no spans captured");

        // Ids are dense and in creation order.
        for (i, span) in spans.iter().enumerate() {
            assert_eq!(span.id as usize, i, "{name}: ids must be dense");
        }
        let by_id: BTreeMap<u32, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();

        // Exactly one root, and it is the extraction span.
        let roots: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent.is_none()).collect();
        assert_eq!(roots.len(), 1, "{name}: spans must form a single tree");
        assert_eq!(roots[0].stage, stages::EXTRACT, "{name}: root stage");

        for span in &spans {
            assert!(
                stages::ALL.contains(&span.stage),
                "{name}: undocumented stage {}",
                span.stage
            );
            let Some(parent_id) = span.parent else {
                continue;
            };
            let parent = by_id[&parent_id];
            assert!(
                parent.id < span.id,
                "{name}: parent must be created before child"
            );
            assert!(
                span.start_ns >= parent.start_ns && end_ns(span) <= end_ns(parent),
                "{name}: span {} [{}, {}] escapes parent {} [{}, {}]",
                span.stage,
                span.start_ns,
                end_ns(span),
                parent.stage,
                parent.start_ns,
                end_ns(parent),
            );
        }

        // Stage coverage: each documented per-document stage fires
        // exactly once (deskew and merge only when their config switch
        // is on — it is in every served default).
        let mut count: BTreeMap<&'static str, usize> = BTreeMap::new();
        for span in &spans {
            *count.entry(span.stage).or_insert(0) += 1;
        }
        for stage in stages::ONCE_PER_DOC {
            let expected = match *stage {
                stages::DESKEW if !config.segment.deskew => 0,
                stages::MERGE if !config.segment.use_semantic_merge => 0,
                _ => 1,
            };
            assert_eq!(
                count.get(stage).copied().unwrap_or(0),
                expected,
                "{name}: stage {stage} count"
            );
        }
    }
}

#[test]
fn tracing_does_not_change_extraction_output() {
    let cache = ModelCache::new();
    let pipeline = cache.pipeline_for(
        DatasetId::D1,
        DEFAULT_DOC_SEED,
        default_config_for(DatasetId::D1),
    );
    for (name, doc) in traced_corpus() {
        let untraced = pipeline.extract(&doc);
        let trace = Trace::start();
        let traced = pipeline.extract(&doc);
        trace.finish();
        let a = serde_json::to_string(&untraced.to_value()).unwrap();
        let b = serde_json::to_string(&traced.to_value()).unwrap();
        assert_eq!(a, b, "{name}: tracing must not perturb extraction");
    }
}

/// A span wire record's required fields, validated against the schema
/// documented in the README's Observability section.
fn check_span_line(value: &serde::Value) {
    let u64_field = |key: &str| -> u64 {
        value
            .field::<u64>(key)
            .unwrap_or_else(|e| panic!("span field {key}: {e}"))
    };
    u64_field("seq");
    u64_field("id");
    u64_field("start_ns");
    u64_field("dur_ns");
    value
        .field::<String>("job_id")
        .expect("span job_id is a string");
    let stage = value.field::<String>("stage").expect("span stage");
    assert!(
        stages::ALL.iter().any(|s| *s == stage),
        "undocumented stage on the wire: {stage}"
    );
    match value.get("parent") {
        Some(serde::Value::Null) | Some(serde::Value::Int(_)) | Some(serde::Value::UInt(_)) => {}
        other => panic!("span parent must be null or an id, got {other:?}"),
    }
    assert!(
        matches!(value.get("tags"), Some(serde::Value::Object(_))),
        "span tags must be an object"
    );
}

#[test]
fn trace_jsonl_matches_the_documented_schema() {
    let hub = ObsHub::new();
    let service = ExtractService::with_options(
        EngineConfig {
            workers: 2,
            queue_capacity: 4,
            ..EngineConfig::default()
        },
        DEFAULT_DOC_SEED,
        None,
        ServiceOptions::default(),
        Some(hub),
    );
    let input = concat!(
        "{\"dataset\":\"D1\",\"doc_index\":0}\n",
        "{\"dataset\":\"D2\",\"doc_index\":1}\n",
        "not json at all\n",
        "{\"dataset\":\"D3\",\"doc_index\":2}\n",
    );
    let mut out = Vec::new();
    run_batch(
        &service,
        Cursor::new(input),
        &mut out,
        &BatchOptions::default(),
    );
    service.shutdown();

    let text = String::from_utf8(out).unwrap();
    let mut span_roots: BTreeMap<u64, usize> = BTreeMap::new();
    let mut metric_names = Vec::new();
    let mut result_lines = 0usize;
    for line in text.lines() {
        let value = serde_json::parse(line).unwrap_or_else(|e| panic!("bad JSONL `{line}`: {e}"));
        match value.get("record") {
            None => result_lines += 1,
            Some(serde::Value::Str(kind)) if kind == "span" => {
                check_span_line(&value);
                let seq: u64 = value.field("seq").unwrap();
                if matches!(value.get("parent"), Some(serde::Value::Null)) {
                    *span_roots.entry(seq).or_insert(0) += 1;
                }
            }
            Some(serde::Value::Str(kind)) if kind == "metrics" => {
                let name: String = value.field("name").expect("metric name");
                match value.field::<String>("kind").expect("metric kind").as_str() {
                    "counter" => {
                        value.field::<u64>("value").expect("counter value");
                    }
                    "histogram" => {
                        for key in ["count", "sum", "p50", "p95", "p99"] {
                            value
                                .field::<u64>(key)
                                .unwrap_or_else(|e| panic!("histogram field {key}: {e}"));
                        }
                    }
                    other => panic!("unknown metric kind {other}"),
                }
                metric_names.push(name);
            }
            other => panic!("unknown record discriminator {other:?}"),
        }
    }
    assert_eq!(result_lines, 4, "one result line per input line");
    // The three ok jobs each contributed exactly one span tree; the
    // invalid line contributed none.
    assert_eq!(
        span_roots,
        BTreeMap::from([(0u64, 1usize), (1, 1), (3, 1)]),
        "span roots per wire seq"
    );
    for expected in [
        "jobs_ok",
        "jobs_degraded",
        "jobs_quarantined",
        "panics",
        "timeouts",
        "faults_model_build",
        "faults_segment",
        "faults_select",
        "model_cache_hits",
        "model_cache_misses",
        "queue_dwell_us",
        "job_latency_us",
    ] {
        assert!(
            metric_names.iter().any(|n| n == expected),
            "metric {expected} missing from the tail"
        );
    }
}
