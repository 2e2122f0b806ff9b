//! Drain/handoff snapshots: the state a draining `vs2d` process writes
//! so a successor can warm-start and finish the stream.
//!
//! A snapshot captures three things:
//!
//! * **Answered lines** — the wire seqs (input line numbers) whose result
//!   lines the draining process already emitted, each with a hash of the
//!   input line it answered ([`line_hash`]). The successor skips a line
//!   only when both its seq and its hash match (replaying its engine
//!   sequence number and admission charge with
//!   [`crate::engine::BatchEngine::skip_submission`] so seq- and
//!   tick-keyed decisions line up with an uninterrupted run) and
//!   processes only the rest, giving exactly-once output across the
//!   pair of processes. A hash mismatch means the successor reads a
//!   different input: it stops there instead of skipping lines unrun.
//! * **Consumed control lines** — the input line numbers (and
//!   [`line_hash`]es) of the `{"control":"drain"}` records that drained
//!   the process. A control record takes no wire seq, so it cannot be
//!   answered; recording it is what lets a successor skip it instead of
//!   draining again on the same line. A successor skips a recorded line
//!   only when its hash matches; otherwise it stops, as for an answered
//!   line.
//! * **Quarantine ledger** — the records behind the draining run's
//!   `{"record":"quarantine",...}` lines, so accounting survives the
//!   process boundary.
//! * **Plan namespaces** — the contents of every non-empty
//!   segmentation-plan cache namespace, so the successor replays
//!   template plans instead of re-learning layouts it has never seen.
//!
//! [`crate::service::ExtractService::handoff_snapshot`] assembles a
//! snapshot after a run and [`crate::service::ExtractService::warm_start`]
//! applies one to a successor; `vs2d` goes through both.
//!
//! [`HandoffSnapshot::parse`] is strict: an unknown version or a ledger
//! whose wire seqs are not strictly increasing is rejected with a typed
//! [`HandoffError`], never silently accepted — a corrupted snapshot must
//! fail the warm start, not corrupt the successor's accounting.

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use vs2_core::plan::{LayoutFingerprint, SegmentationPlan};
use vs2_synth::dataset::DatasetId;

use crate::job::QuarantineRecord;

/// Snapshot format version written by this build. Version 4 dropped the
/// `attempts` field of the embedded quarantine records (every job has
/// one attempt), so a version 3 snapshot is rejected.
pub const HANDOFF_VERSION: u64 = 4;

/// One input line a process answered: its wire seq and the
/// [`line_hash`] of the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnsweredLine {
    /// Wire seq (input line number, empty lines and control records
    /// excluded).
    pub seq: u64,
    /// [`line_hash`] of the line's bytes as read.
    pub hash: u64,
}

/// One control record a process consumed: its 0-based input line number
/// (empty lines included) and the [`line_hash`] of the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlLine {
    /// 0-based input line number.
    pub line: u64,
    /// [`line_hash`] of the line's bytes as read.
    pub hash: u64,
}

/// 64-bit FNV-1a hash of one input line (without its terminator); a
/// line that could not be read hashes its read error's text.
pub fn line_hash(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One cached plan: the fingerprint key and the plan replayed under it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanEntry {
    /// The layout fingerprint the plan is cached under.
    pub fingerprint: LayoutFingerprint,
    /// The cached segmentation plan.
    pub plan: SegmentationPlan,
}

/// The exported contents of one plan-cache namespace
/// (`dataset × model seed × learn config`).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNamespace {
    /// Dataset of the namespace's model slot.
    pub dataset: DatasetId,
    /// Model seed of the namespace's model slot.
    pub model_seed: u64,
    /// Canonical JSON of the slot's learning configuration.
    pub learn: String,
    /// Cached plans, sorted by fingerprint digest.
    pub entries: Vec<PlanEntry>,
}

/// Everything a successor needs to warm-start after a drain.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HandoffSnapshot {
    /// Input lines whose result lines the draining process (and the
    /// processes it resumed from) emitted, in strictly increasing seq
    /// order.
    pub completed: Vec<AnsweredLine>,
    /// Drain control records the draining process (and the processes it
    /// resumed from) consumed, in strictly increasing line order.
    pub controls: Vec<ControlLine>,
    /// The draining run's quarantine ledger, in strictly increasing
    /// wire-seq order.
    pub quarantine: Vec<QuarantineRecord>,
    /// Exported plan-cache namespaces.
    pub plans: Vec<PlanNamespace>,
}

/// Typed rejection of a handoff snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum HandoffError {
    /// The snapshot was not valid JSON or was missing required fields.
    Parse(String),
    /// The snapshot's `version` field is not one this build understands.
    Version(u64),
    /// The `completed` list is not strictly increasing.
    NonMonotonicCompleted {
        /// The seq preceding the violation.
        prev: u64,
        /// The offending seq (≤ `prev`).
        next: u64,
    },
    /// The consumed control lines are not strictly increasing.
    NonMonotonicControls {
        /// The line number preceding the violation.
        prev: u64,
        /// The offending line number (≤ `prev`).
        next: u64,
    },
    /// The quarantine ledger's wire seqs are not strictly increasing.
    NonMonotonicLedger {
        /// The seq preceding the violation.
        prev: u64,
        /// The offending seq (≤ `prev`).
        next: u64,
    },
}

impl fmt::Display for HandoffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HandoffError::Parse(msg) => write!(f, "handoff parse error: {msg}"),
            HandoffError::Version(v) => {
                write!(
                    f,
                    "unsupported handoff version {v} (expected {HANDOFF_VERSION})"
                )
            }
            HandoffError::NonMonotonicCompleted { prev, next } => write!(
                f,
                "non-monotonic completed seqs in handoff: {next} after {prev}"
            ),
            HandoffError::NonMonotonicControls { prev, next } => write!(
                f,
                "non-monotonic control lines in handoff: {next} after {prev}"
            ),
            HandoffError::NonMonotonicLedger { prev, next } => write!(
                f,
                "non-monotonic quarantine ledger seqs in handoff: {next} after {prev}"
            ),
        }
    }
}

impl std::error::Error for HandoffError {}

impl Serialize for AnsweredLine {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("seq".to_string(), Value::UInt(self.seq)),
            ("hash".to_string(), Value::UInt(self.hash)),
        ])
    }
}

impl Deserialize for AnsweredLine {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        Ok(Self {
            seq: v.field("seq")?,
            hash: v.field("hash")?,
        })
    }
}

impl Serialize for ControlLine {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("line".to_string(), Value::UInt(self.line)),
            ("hash".to_string(), Value::UInt(self.hash)),
        ])
    }
}

impl Deserialize for ControlLine {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        Ok(Self {
            line: v.field("line")?,
            hash: v.field("hash")?,
        })
    }
}

impl Serialize for PlanEntry {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("fingerprint".to_string(), self.fingerprint.to_value()),
            ("plan".to_string(), self.plan.to_value()),
        ])
    }
}

impl Deserialize for PlanEntry {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        Ok(Self {
            fingerprint: v.field("fingerprint")?,
            plan: v.field("plan")?,
        })
    }
}

impl Serialize for PlanNamespace {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("dataset".to_string(), self.dataset.to_value()),
            ("model_seed".to_string(), Value::UInt(self.model_seed)),
            ("learn".to_string(), Value::Str(self.learn.clone())),
            ("entries".to_string(), self.entries.to_value()),
        ])
    }
}

impl Deserialize for PlanNamespace {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        Ok(Self {
            dataset: v.field("dataset")?,
            model_seed: v.field("model_seed")?,
            learn: v.field("learn")?,
            entries: v.field("entries")?,
        })
    }
}

impl Serialize for HandoffSnapshot {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("record".to_string(), Value::Str("handoff".to_string())),
            ("version".to_string(), Value::UInt(HANDOFF_VERSION)),
            ("completed".to_string(), self.completed.to_value()),
            ("controls".to_string(), self.controls.to_value()),
            ("quarantine".to_string(), self.quarantine.to_value()),
            ("plans".to_string(), self.plans.to_value()),
        ])
    }
}

impl Deserialize for HandoffSnapshot {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        Ok(Self {
            completed: v.field("completed")?,
            controls: v.field("controls")?,
            quarantine: v.field("quarantine")?,
            plans: v.field("plans")?,
        })
    }
}

/// Asserts that `seqs` is strictly increasing, returning the violating
/// pair otherwise.
fn check_monotonic(seqs: impl Iterator<Item = u64>) -> Result<(), (u64, u64)> {
    let mut prev: Option<u64> = None;
    for next in seqs {
        if let Some(p) = prev {
            if next <= p {
                return Err((p, next));
            }
        }
        prev = Some(next);
    }
    Ok(())
}

impl HandoffSnapshot {
    /// Renders the snapshot as one JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("handoff snapshot serialises")
    }

    /// Parses and validates a snapshot: the version must match, the
    /// completed list and the quarantine ledger must be strictly
    /// increasing in wire seq, and the control lines in line number.
    pub fn parse(raw: &str) -> Result<Self, HandoffError> {
        let value: Value =
            serde_json::parse(raw).map_err(|e| HandoffError::Parse(e.to_string()))?;
        let version: u64 = value
            .field("version")
            .map_err(|e| HandoffError::Parse(e.to_string()))?;
        if version != HANDOFF_VERSION {
            return Err(HandoffError::Version(version));
        }
        let snapshot =
            HandoffSnapshot::from_value(&value).map_err(|e| HandoffError::Parse(e.to_string()))?;
        check_monotonic(snapshot.completed.iter().map(|l| l.seq))
            .map_err(|(prev, next)| HandoffError::NonMonotonicCompleted { prev, next })?;
        check_monotonic(snapshot.controls.iter().map(|c| c.line))
            .map_err(|(prev, next)| HandoffError::NonMonotonicControls { prev, next })?;
        check_monotonic(snapshot.quarantine.iter().map(|r| r.seq))
            .map_err(|(prev, next)| HandoffError::NonMonotonicLedger { prev, next })?;
        Ok(snapshot)
    }

    /// The answered lines as a wire seq → line hash map, the form
    /// [`crate::batch::BatchOptions::resume_completed`] takes.
    pub fn answered(&self) -> HashMap<u64, u64> {
        self.completed.iter().map(|l| (l.seq, l.hash)).collect()
    }

    /// The consumed control lines as a line number → line hash map, the
    /// form [`crate::batch::BatchOptions::resume_controls`] takes.
    pub fn consumed_controls(&self) -> HashMap<u64, u64> {
        self.controls.iter().map(|c| (c.line, c.hash)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs2_core::plan::{FingerprintConfig, PlanConfig};
    use vs2_core::segment::{self, SegmentConfig};
    use vs2_docmodel::{BBox, Document, TextElement};

    fn quarantine(seq: u64) -> QuarantineRecord {
        QuarantineRecord {
            seq,
            job_id: format!("job-{seq}"),
            kind: "fatal".to_string(),
            error: "fatal: panic: boom".to_string(),
            elapsed_us: None,
        }
    }

    fn plan_namespace() -> PlanNamespace {
        let mut doc = Document::new("h", 600.0, 800.0);
        for i in 0..3 {
            doc.push_text(TextElement::word(
                format!("w{i}"),
                BBox::new(60.0 + i as f64 * 50.0, 60.0, 40.0, 12.0),
            ));
        }
        let fp = LayoutFingerprint::compute(&doc, &FingerprintConfig::default());
        let tree = segment::segment(&doc, &SegmentConfig::default());
        let plan = SegmentationPlan::capture(&doc, &tree);
        PlanNamespace {
            dataset: DatasetId::Templated,
            model_seed: 7,
            learn: "{}".to_string(),
            entries: vec![PlanEntry {
                fingerprint: fp,
                plan,
            }],
        }
    }

    fn answered(seqs: &[u64]) -> Vec<AnsweredLine> {
        seqs.iter()
            .map(|&seq| AnsweredLine {
                seq,
                hash: line_hash(format!("line {seq}").as_bytes()),
            })
            .collect()
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = HandoffSnapshot {
            completed: answered(&[0, 1, 4, 9]),
            controls: vec![ControlLine {
                line: 3,
                hash: line_hash(b"{\"control\":\"drain\"}"),
            }],
            quarantine: vec![quarantine(2), quarantine(5)],
            plans: vec![plan_namespace()],
        };
        let back = HandoffSnapshot::parse(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        // Replayability survives the round trip.
        let entry = &back.plans[0].entries[0];
        let mut doc = Document::new("h", 600.0, 800.0);
        for i in 0..3 {
            doc.push_text(TextElement::word(
                format!("w{i}"),
                BBox::new(60.0 + i as f64 * 50.0, 60.0, 40.0, 12.0),
            ));
        }
        let assignment = entry.plan.validate(&doc, &PlanConfig::default()).unwrap();
        assert!(!entry.plan.replay(&doc, &assignment).is_empty());
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = HandoffSnapshot::default();
        assert_eq!(HandoffSnapshot::parse(&snap.to_json()).unwrap(), snap);
    }

    #[test]
    fn unknown_version_is_rejected() {
        assert_eq!(HANDOFF_VERSION, 4);
        let snap = HandoffSnapshot::default();
        for old in [3, 9] {
            let raw = snap.to_json().replace(
                &format!("\"version\":{HANDOFF_VERSION}"),
                &format!("\"version\":{old}"),
            );
            assert_eq!(
                HandoffSnapshot::parse(&raw),
                Err(HandoffError::Version(old))
            );
        }
    }

    #[test]
    fn garbage_is_a_parse_error() {
        assert!(matches!(
            HandoffSnapshot::parse("not json"),
            Err(HandoffError::Parse(_))
        ));
        assert!(matches!(
            HandoffSnapshot::parse("{\"record\":\"handoff\"}"),
            Err(HandoffError::Parse(_))
        ));
    }

    #[test]
    fn non_monotonic_completed_is_rejected() {
        let snap = HandoffSnapshot {
            completed: answered(&[0, 3, 3]),
            ..HandoffSnapshot::default()
        };
        assert_eq!(
            HandoffSnapshot::parse(&snap.to_json()),
            Err(HandoffError::NonMonotonicCompleted { prev: 3, next: 3 })
        );
    }

    #[test]
    fn non_monotonic_controls_are_rejected() {
        let control = |line| ControlLine { line, hash: 1 };
        let snap = HandoffSnapshot {
            controls: vec![control(5), control(2)],
            ..HandoffSnapshot::default()
        };
        assert_eq!(
            HandoffSnapshot::parse(&snap.to_json()),
            Err(HandoffError::NonMonotonicControls { prev: 5, next: 2 })
        );
    }

    #[test]
    fn line_hash_is_fnv1a_64() {
        assert_eq!(line_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(line_hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(
            line_hash(b"{\"doc_index\":1}"),
            line_hash(b"{\"doc_index\":2}")
        );
    }

    #[test]
    fn non_monotonic_ledger_is_rejected() {
        let snap = HandoffSnapshot {
            quarantine: vec![quarantine(4), quarantine(2)],
            ..HandoffSnapshot::default()
        };
        assert_eq!(
            HandoffSnapshot::parse(&snap.to_json()),
            Err(HandoffError::NonMonotonicLedger { prev: 4, next: 2 })
        );
        let display = HandoffError::NonMonotonicLedger { prev: 4, next: 2 }.to_string();
        assert!(display.contains("non-monotonic"), "{display}");
    }
}
