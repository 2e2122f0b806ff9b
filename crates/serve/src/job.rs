//! JSONL job specs and results — the `vs2d` wire format.
//!
//! One job per line. A job addresses a document either synthetically
//! (`dataset` + `doc_index` [+ `seed`], resolved through
//! `vs2_synth::generate_one`) or inline (`dataset` + a serialized
//! `doc`; the dataset still selects the served model):
//!
//! ```text
//! {"job_id":"t-17","dataset":"D1","doc_index":17}
//! {"job_id":"p-3","dataset":"D2","doc_index":3,"seed":99}
//! {"dataset":"D3","doc":{"id":"upload-1","width":612.0,...}}
//! ```
//!
//! Result lines mirror submission order. `latency_us` is emitted only
//! when requested (`vs2d --latency`) so that default output is
//! byte-identical across runs and worker counts.

use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Error, Serialize, Value};
use vs2_core::Extraction;
use vs2_docmodel::Document;
use vs2_synth::dataset::{generate_one, DatasetConfig, DatasetId};

use crate::admit::Lane;
use crate::error::ServeError;

/// Generation seed used when a synthetic job spec omits `seed`; the
/// bench harness's `RunConfig` defaults to it too.
pub const DEFAULT_DOC_SEED: u64 = 0xC0FFEE;

/// Where a job's document comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSource {
    /// Generate document `doc_index` of the `(dataset, seed)` stream.
    Synthetic {
        /// Index into the synthetic document stream.
        doc_index: usize,
        /// Stream master seed.
        seed: u64,
    },
    /// The document is embedded in the job spec. `Arc` so that job
    /// clones across the queue boundary share one allocation.
    Inline(Arc<Document>),
}

/// Per-job memo of the materialised document, so the primary attempt,
/// the degraded fallback and observability all share one
/// `Arc<Document>` instead of re-generating (synthetic) or re-cloning
/// (inline).
///
/// Identity-transparent: clones carry the cached value forward (a
/// refcount bump, never a deep copy) and every `JobDocCache` compares
/// equal — the cache is derived state, not part of the job's value.
#[derive(Default)]
pub struct JobDocCache(OnceLock<Arc<Document>>);

impl Clone for JobDocCache {
    fn clone(&self) -> Self {
        let cell = OnceLock::new();
        if let Some(doc) = self.0.get() {
            let _ = cell.set(Arc::clone(doc));
        }
        Self(cell)
    }
}

impl PartialEq for JobDocCache {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for JobDocCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("JobDocCache")
            .field(&self.0.get().map(|d| d.id.as_str()))
            .finish()
    }
}

/// One extraction job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Caller-chosen id echoed into the result; defaults to the line's
    /// wire seq rendered as `job-<seq>` (blank lines and control records
    /// take no seq).
    pub job_id: Option<String>,
    /// Dataset the document belongs to — selects the served model.
    pub dataset: DatasetId,
    /// Document source.
    pub source: JobSource,
    /// Originating client, the fairness key for admission control's
    /// per-client token buckets. `None` is never rate limited.
    pub client: Option<String>,
    /// Queue class. `None` takes the daemon default (`vs2d --lane`),
    /// which itself defaults to interactive.
    pub lane: Option<Lane>,
    /// Materialisation memo for [`JobSpec::document_arc`]. Ignored by
    /// equality and the wire format.
    pub doc_cache: JobDocCache,
}

impl JobSpec {
    /// Materialises the job's document (generating it if synthetic).
    pub fn document(&self) -> Document {
        (*self.document_arc()).clone()
    }

    /// Materialises the job's document behind a shared `Arc`, memoised
    /// per job: the first call generates (synthetic) or shares (inline)
    /// the document; later calls — fallback, observability — are
    /// refcount bumps.
    pub fn document_arc(&self) -> Arc<Document> {
        Arc::clone(self.doc_cache.0.get_or_init(|| match &self.source {
            JobSource::Synthetic { doc_index, seed } => {
                Arc::new(generate_one(self.dataset, *doc_index, DatasetConfig::new(1, *seed)).doc)
            }
            JobSource::Inline(doc) => Arc::clone(doc),
        }))
    }

    /// Checks an inline document's geometry
    /// ([`Document::validate_geometry`]): geometry the segmenter cannot
    /// work with fails [`ServeError::Fatal`], naming the field as the
    /// wire's `invalid` answer does (`doc.texts[3].bbox.w = -2: ...`).
    /// Synthetic documents are generated valid.
    pub fn validate_geometry(&self) -> Result<(), ServeError> {
        match &self.source {
            JobSource::Inline(doc) => doc
                .validate_geometry()
                .map_err(|e| ServeError::Fatal(format!("doc.{e}"))),
            JobSource::Synthetic { .. } => Ok(()),
        }
    }
}

impl Serialize for JobSpec {
    fn to_value(&self) -> Value {
        let mut fields = Vec::new();
        if let Some(id) = &self.job_id {
            fields.push(("job_id".to_string(), Value::Str(id.clone())));
        }
        if let Some(client) = &self.client {
            fields.push(("client".to_string(), Value::Str(client.clone())));
        }
        if let Some(lane) = self.lane {
            fields.push(("lane".to_string(), Value::Str(lane.as_str().to_string())));
        }
        fields.push(("dataset".to_string(), self.dataset.to_value()));
        match &self.source {
            JobSource::Synthetic { doc_index, seed } => {
                fields.push(("doc_index".to_string(), Value::UInt(*doc_index as u64)));
                fields.push(("seed".to_string(), Value::UInt(*seed)));
            }
            JobSource::Inline(doc) => {
                fields.push(("doc".to_string(), doc.to_value()));
            }
        }
        Value::Object(fields)
    }
}

impl Deserialize for JobSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let job_id = match v.get("job_id") {
            Some(Value::Null) | None => None,
            Some(val) => Some(String::from_value(val)?),
        };
        let client = match v.get("client") {
            Some(Value::Null) | None => None,
            Some(val) => Some(String::from_value(val)?),
        };
        let lane = match v.get("lane") {
            Some(Value::Null) | None => None,
            Some(val) => {
                let name = String::from_value(val)?;
                Some(
                    Lane::parse(&name)
                        .ok_or_else(|| Error::new(format!("unknown lane `{name}`")))?,
                )
            }
        };
        let dataset: DatasetId = v.field("dataset")?;
        let source = if let Some(doc) = v.get("doc") {
            if v.get("doc_index").is_some() {
                return Err(Error::new("job has both `doc` and `doc_index`"));
            }
            let doc = Document::from_value(doc)?;
            // Geometry the segmenter cannot work with is a bad spec,
            // answered `invalid` with the field named, never `ok`.
            doc.validate_geometry()
                .map_err(|e| Error::new(format!("doc.{e}")))?;
            JobSource::Inline(Arc::new(doc))
        } else {
            JobSource::Synthetic {
                doc_index: v
                    .field("doc_index")
                    .map_err(|e| Error::new(format!("job needs `doc` or `doc_index`: {e}")))?,
                seed: v.field_or("seed", DEFAULT_DOC_SEED)?,
            }
        };
        Ok(Self {
            job_id,
            dataset,
            source,
            client,
            lane,
            doc_cache: JobDocCache::default(),
        })
    }
}

/// Terminal status of a job, as reported on the result line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Extraction succeeded.
    Ok,
    /// The primary pipeline failed every attempt; the extractions come
    /// from the XY-cut degradation fallback.
    Degraded,
    /// The job failed every attempt with no degraded answer; a matching
    /// `quarantine` record follows the batch.
    Quarantined,
    /// The job panicked inside the worker.
    Panicked,
    /// The job exceeded the per-job deadline.
    TimedOut,
    /// Admission control rejected the job (overload or drain); it was
    /// never processed. Resubmit once pressure clears.
    Shed,
    /// The input line was not a valid job spec.
    Invalid,
}

impl JobStatus {
    /// Wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobStatus::Ok => "ok",
            JobStatus::Degraded => "degraded",
            JobStatus::Quarantined => "quarantined",
            JobStatus::Panicked => "panicked",
            JobStatus::TimedOut => "timed_out",
            JobStatus::Shed => "shed",
            JobStatus::Invalid => "invalid",
        }
    }

    fn parse(s: &str) -> Result<Self, Error> {
        match s {
            "ok" => Ok(JobStatus::Ok),
            "degraded" => Ok(JobStatus::Degraded),
            "quarantined" => Ok(JobStatus::Quarantined),
            "panicked" => Ok(JobStatus::Panicked),
            "timed_out" => Ok(JobStatus::TimedOut),
            "shed" => Ok(JobStatus::Shed),
            "invalid" => Ok(JobStatus::Invalid),
            other => Err(Error::new(format!("unknown job status `{other}`"))),
        }
    }
}

/// One result line.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Input line number (0-based); results stream in this order.
    pub seq: u64,
    /// Echo of the job id.
    pub job_id: String,
    /// Terminal status.
    pub status: JobStatus,
    /// Extractions (empty unless `status == Ok`).
    pub extractions: Vec<Extraction>,
    /// Failure detail for panicked/invalid jobs.
    pub error: Option<String>,
    /// Processing latency in microseconds; omitted in stable output.
    pub latency_us: Option<u64>,
}

impl Serialize for JobResult {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("seq".to_string(), Value::UInt(self.seq)),
            ("job_id".to_string(), Value::Str(self.job_id.clone())),
            (
                "status".to_string(),
                Value::Str(self.status.as_str().to_string()),
            ),
            ("extractions".to_string(), self.extractions.to_value()),
        ];
        if let Some(err) = &self.error {
            fields.push(("error".to_string(), Value::Str(err.clone())));
        }
        if let Some(us) = self.latency_us {
            fields.push(("latency_us".to_string(), Value::UInt(us)));
        }
        Value::Object(fields)
    }
}

impl Deserialize for JobResult {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let status_name: String = v.field("status")?;
        Ok(Self {
            seq: v.field("seq")?,
            job_id: v.field("job_id")?,
            status: JobStatus::parse(&status_name)?,
            extractions: v.field("extractions")?,
            error: match v.get("error") {
                Some(Value::Null) | None => None,
                Some(val) => Some(String::from_value(val)?),
            },
            latency_us: match v.get("latency_us") {
                Some(Value::Null) | None => None,
                Some(val) => Some(u64::from_value(val)?),
            },
        })
    }
}

/// One quarantine-ledger line, emitted after the batch's result lines:
///
/// ```text
/// {"record":"quarantine","seq":4,"job_id":"job-4","kind":"timeout","error":"timeout after 31ms"}
/// ```
///
/// The `record` discriminator keeps these lines distinguishable from
/// result lines in a mixed stream. `elapsed_us` is wall-clock and only
/// present with `vs2d --latency`, so default output stays deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineRecord {
    /// Input line number of the quarantined job.
    pub seq: u64,
    /// Echo of the job id.
    pub job_id: String,
    /// Error taxonomy kind (`fatal` / `timeout` / `overloaded`).
    pub kind: String,
    /// Human-readable final error.
    pub error: String,
    /// The attempt's processing time; omitted in stable output.
    pub elapsed_us: Option<u64>,
}

impl Serialize for QuarantineRecord {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("record".to_string(), Value::Str("quarantine".to_string())),
            ("seq".to_string(), Value::UInt(self.seq)),
            ("job_id".to_string(), Value::Str(self.job_id.clone())),
            ("kind".to_string(), Value::Str(self.kind.clone())),
            ("error".to_string(), Value::Str(self.error.clone())),
        ];
        if let Some(us) = self.elapsed_us {
            fields.push(("elapsed_us".to_string(), Value::UInt(us)));
        }
        Value::Object(fields)
    }
}

impl Deserialize for QuarantineRecord {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let record: String = v.field("record")?;
        if record != "quarantine" {
            return Err(Error::new(format!("not a quarantine record: `{record}`")));
        }
        Ok(Self {
            seq: v.field("seq")?,
            job_id: v.field("job_id")?,
            kind: v.field("kind")?,
            error: v.field("error")?,
            elapsed_us: match v.get("elapsed_us") {
                Some(Value::Null) | None => None,
                Some(val) => Some(u64::from_value(val)?),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_spec_round_trips_with_default_seed() {
        let spec: JobSpec =
            serde_json::from_str(r#"{"job_id":"a","dataset":"D1","doc_index":4}"#).unwrap();
        assert_eq!(spec.dataset, DatasetId::D1);
        assert_eq!(
            spec.source,
            JobSource::Synthetic {
                doc_index: 4,
                seed: DEFAULT_DOC_SEED
            }
        );
        let back: JobSpec = serde_json::from_str(&serde_json::to_string(&spec).unwrap()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn inline_spec_round_trips() {
        let doc = generate_one(DatasetId::D3, 0, DatasetConfig::new(1, 5)).doc;
        let spec = JobSpec {
            job_id: None,
            dataset: DatasetId::D3,
            source: JobSource::Inline(Arc::new(doc.clone())),
            client: None,
            lane: None,
            doc_cache: JobDocCache::default(),
        };
        let back: JobSpec = serde_json::from_str(&serde_json::to_string(&spec).unwrap()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.document(), doc);
    }

    #[test]
    fn generated_corpora_pass_geometry_validation() {
        // Every corpus vs2d and the benchmark send inline must stay
        // `ok`: the generators' geometry is always valid.
        let datasets = DatasetId::EXTENDED
            .into_iter()
            .chain([DatasetId::Templated]);
        for dataset in datasets {
            for seed in [1, 1001, DEFAULT_DOC_SEED] {
                for i in 0..60 {
                    let doc = generate_one(dataset, i, DatasetConfig::new(1, seed)).doc;
                    assert_eq!(
                        doc.validate_geometry(),
                        Ok(()),
                        "{dataset:?} {i} seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn inline_geometry_is_validated_at_parse_time() {
        let doc = generate_one(DatasetId::D4, 0, DatasetConfig::new(1, 5)).doc;
        let line = |doc: &Document| {
            let spec = Value::Object(vec![
                ("dataset".to_string(), Value::Str("D4".to_string())),
                ("doc".to_string(), doc.to_value()),
            ]);
            serde_json::to_string(&spec).unwrap()
        };
        assert!(serde_json::from_str::<JobSpec>(&line(&doc)).is_ok());
        let mut bad = doc.clone();
        bad.texts[2].bbox.w = -1.0;
        let err = serde_json::from_str::<JobSpec>(&line(&bad)).unwrap_err();
        assert!(
            err.to_string().contains("doc.texts[2].bbox.w = -1"),
            "{err}"
        );
    }

    #[test]
    fn client_and_lane_round_trip_and_are_omitted_when_absent() {
        let spec: JobSpec =
            serde_json::from_str(r#"{"job_id":"a","dataset":"D1","doc_index":4}"#).unwrap();
        assert_eq!(spec.client, None);
        assert_eq!(spec.lane, None);
        let json = serde_json::to_string(&spec).unwrap();
        assert!(!json.contains("client"), "{json}");
        assert!(!json.contains("lane"), "{json}");
        let tagged: JobSpec = serde_json::from_str(
            r#"{"client":"tenant-7","lane":"batch","dataset":"D1","doc_index":4}"#,
        )
        .unwrap();
        assert_eq!(tagged.client.as_deref(), Some("tenant-7"));
        assert_eq!(tagged.lane, Some(Lane::Batch));
        let back: JobSpec = serde_json::from_str(&serde_json::to_string(&tagged).unwrap()).unwrap();
        assert_eq!(back, tagged);
        assert!(
            serde_json::from_str::<JobSpec>(r#"{"lane":"bulk","dataset":"D1","doc_index":4}"#)
                .is_err()
        );
    }

    #[test]
    fn spec_validation_rejects_ambiguity() {
        assert!(serde_json::from_str::<JobSpec>(r#"{"dataset":"D1"}"#).is_err());
        assert!(serde_json::from_str::<JobSpec>(
            r#"{"dataset":"D1","doc_index":0,"doc":{"id":"x","width":1.0,"height":1.0,"texts":[],"images":[]}}"#
        )
        .is_err());
        assert!(serde_json::from_str::<JobSpec>(r#"{"dataset":"D9","doc_index":0}"#).is_err());
    }

    #[test]
    fn synthetic_document_matches_dataset_stream() {
        let spec: JobSpec =
            serde_json::from_str(r#"{"dataset":"D2","doc_index":2,"seed":9}"#).unwrap();
        let expected = generate_one(DatasetId::D2, 2, DatasetConfig::new(1, 9)).doc;
        assert_eq!(spec.document(), expected);
    }

    #[test]
    fn result_line_round_trips_and_omits_absent_fields() {
        let r = JobResult {
            seq: 3,
            job_id: "job-3".into(),
            status: JobStatus::Ok,
            extractions: vec![],
            error: None,
            latency_us: None,
        };
        let json = serde_json::to_string(&r).unwrap();
        assert!(!json.contains("error"), "{json}");
        assert!(!json.contains("latency_us"), "{json}");
        let back: JobResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        let failed = JobResult {
            status: JobStatus::Panicked,
            error: Some("boom".into()),
            latency_us: Some(120),
            ..r
        };
        let back: JobResult =
            serde_json::from_str(&serde_json::to_string(&failed).unwrap()).unwrap();
        assert_eq!(back, failed);
    }

    #[test]
    fn every_status_round_trips_through_its_wire_name() {
        for status in [
            JobStatus::Ok,
            JobStatus::Degraded,
            JobStatus::Quarantined,
            JobStatus::Panicked,
            JobStatus::TimedOut,
            JobStatus::Shed,
            JobStatus::Invalid,
        ] {
            assert_eq!(JobStatus::parse(status.as_str()).unwrap(), status);
        }
        assert!(JobStatus::parse("poisoned").is_err());
    }

    #[test]
    fn quarantine_record_round_trips_and_is_discriminated() {
        let rec = QuarantineRecord {
            seq: 4,
            job_id: "job-4".into(),
            kind: "fatal".into(),
            error: "fatal: panic: boom".into(),
            elapsed_us: None,
        };
        let json = serde_json::to_string(&rec).unwrap();
        assert!(json.starts_with(r#"{"record":"quarantine""#), "{json}");
        assert!(!json.contains("elapsed_us"), "{json}");
        let back: QuarantineRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec);
        // A result line must not parse as a quarantine record.
        assert!(serde_json::from_str::<QuarantineRecord>(
            r#"{"record":"result","seq":0,"job_id":"a","kind":"fatal","error":"x"}"#
        )
        .is_err());
    }
}
