//! The serving-layer error taxonomy.
//!
//! Workers report failures as structured [`ServeError`]s instead of
//! stringly panic payloads. The pipeline is a pure in-process function
//! of the document, so a failed attempt would fail the same way again:
//! every job gets one primary attempt, and a failure goes straight to
//! the degradation fallback. Jobs left with no answer land in the
//! quarantine ledger as [`QuarantineEntry`]s, surfaced through
//! [`crate::engine::BatchEngine::quarantine`] and the `vs2d` JSONL
//! `quarantine` records.

use std::time::Duration;

use crate::admit::ShedReason;

/// Why a job has no primary answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The processor failed (including worker panics): the job goes
    /// straight to degradation/quarantine.
    Fatal(String),
    /// An attempt overran the soft per-job deadline. Produced by the
    /// engine (its watchdog, or the overrunning worker), never by the
    /// processor. The job is quarantined, not degraded: the document
    /// already burnt its deadline.
    Timeout {
        /// Elapsed processing time when the trip fired.
        elapsed: Duration,
    },
    /// Admission control rejected (shed) or degrade-routed the job.
    /// The caller should back off and resubmit, or accept the degraded
    /// answer.
    Overloaded {
        /// What tripped admission control.
        reason: ShedReason,
    },
}

impl ServeError {
    /// Stable taxonomy name, used on the wire (`vs2d` quarantine
    /// records) and in logs.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Fatal(_) => "fatal",
            ServeError::Timeout { .. } => "timeout",
            ServeError::Overloaded { .. } => "overloaded",
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Fatal(msg) => write!(f, "fatal: {msg}"),
            ServeError::Timeout { elapsed } => {
                write!(f, "timeout after {}ms", elapsed.as_millis())
            }
            ServeError::Overloaded { reason } => {
                write!(f, "overloaded: {reason}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// One quarantined job: its primary attempt failed (or overran its
/// deadline) and no degraded answer could be produced.
///
/// The ledger is append-only for the lifetime of the engine — entries
/// survive [`crate::engine::BatchEngine::drain`] so operators can audit
/// an entire run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// Engine sequence number of the job.
    pub seq: u64,
    /// The final error.
    pub error: ServeError,
    /// Processing time of the attempt (wall clock; informational
    /// only — excluded from deterministic wire output).
    pub elapsed: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_display_are_stable() {
        let f = ServeError::Fatal("boom".into());
        assert_eq!(f.kind(), "fatal");
        assert_eq!(f.to_string(), "fatal: boom");
        let t = ServeError::Timeout {
            elapsed: Duration::from_millis(42),
        };
        assert_eq!(t.kind(), "timeout");
        assert_eq!(t.to_string(), "timeout after 42ms");
        let o = ServeError::Overloaded {
            reason: ShedReason::QueueDepth,
        };
        assert_eq!(o.kind(), "overloaded");
        assert_eq!(o.to_string(), "overloaded: queue_depth");
    }
}
