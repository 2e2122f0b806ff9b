//! The serving-layer error taxonomy.
//!
//! Workers report failures as structured [`ServeError`]s instead of
//! stringly panic payloads, so the engine can decide *mechanically* what
//! to do next: retry at once ([`ServeError::is_retryable`]), fail
//! fast, or quarantine. Jobs whose primary pipeline finally fails with
//! no degraded answer land in the quarantine ledger as
//! [`QuarantineEntry`]s, surfaced through
//! [`crate::engine::BatchEngine::quarantine`] and the `vs2d` JSONL
//! `quarantine` records.

use std::time::Duration;

use crate::admit::ShedReason;

/// Terminal or transient failure of one job attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A transient failure: the same attempt may succeed if re-run.
    /// The engine re-runs these at once until the attempt budget
    /// ([`crate::engine::EngineConfig::max_attempts`]) is spent. Only
    /// injected faults ([`crate::faults::FaultPlan`]) produce one: the
    /// pipeline is in-process, so nothing it calls recovers with time.
    Retryable(String),
    /// A permanent failure (including worker panics): retrying cannot
    /// help, the job goes straight to degradation/quarantine.
    Fatal(String),
    /// An attempt overran the soft per-job deadline. Produced by the
    /// engine (its watchdog, or the overrunning worker), never by the
    /// processor. Final: the pipeline is deterministic, so a re-run would
    /// overrun again — the job is quarantined, neither retried nor
    /// degraded.
    Timeout {
        /// Elapsed processing time when the trip fired.
        elapsed: Duration,
    },
    /// The retry budget was exhausted on transient failures — the job is
    /// presumed poisonous to the primary pipeline.
    Poison {
        /// Attempts consumed (including the first).
        attempts: u32,
        /// The last transient error observed.
        last: String,
    },
    /// Admission control rejected (shed) or degrade-routed the job.
    /// Never retried: the caller should back off and resubmit, or accept
    /// the degraded answer.
    Overloaded {
        /// What tripped admission control.
        reason: ShedReason,
    },
}

impl ServeError {
    /// `true` for the failures the engine retries: [`ServeError::Retryable`]
    /// only.
    pub fn is_retryable(&self) -> bool {
        matches!(self, ServeError::Retryable(_))
    }

    /// Stable taxonomy name, used on the wire (`vs2d` quarantine
    /// records) and in logs.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Retryable(_) => "retryable",
            ServeError::Fatal(_) => "fatal",
            ServeError::Timeout { .. } => "timeout",
            ServeError::Poison { .. } => "poison",
            ServeError::Overloaded { .. } => "overloaded",
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Retryable(msg) => write!(f, "retryable: {msg}"),
            ServeError::Fatal(msg) => write!(f, "fatal: {msg}"),
            ServeError::Timeout { elapsed } => {
                write!(f, "timeout after {}ms", elapsed.as_millis())
            }
            ServeError::Poison { attempts, last } => {
                write!(f, "poison after {attempts} attempts: {last}")
            }
            ServeError::Overloaded { reason } => {
                write!(f, "overloaded: {reason}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// One quarantined job: its primary pipeline failed every attempt (or
/// overran its deadline) and no degraded answer could be produced.
///
/// The ledger is append-only for the lifetime of the engine — entries
/// survive [`crate::engine::BatchEngine::drain`] so operators can audit
/// an entire run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// Engine sequence number of the job.
    pub seq: u64,
    /// Attempts consumed (including the first).
    pub attempts: u32,
    /// The final error.
    pub error: ServeError,
    /// Processing time of the final attempt (wall clock; informational
    /// only — excluded from deterministic wire output).
    pub elapsed: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryability_follows_the_taxonomy() {
        assert!(ServeError::Retryable("x".into()).is_retryable());
        assert!(!ServeError::Timeout {
            elapsed: Duration::from_millis(5)
        }
        .is_retryable());
        assert!(!ServeError::Fatal("x".into()).is_retryable());
        assert!(!ServeError::Poison {
            attempts: 3,
            last: "x".into()
        }
        .is_retryable());
    }

    #[test]
    fn kinds_and_display_are_stable() {
        let e = ServeError::Poison {
            attempts: 3,
            last: "flaky".into(),
        };
        assert_eq!(e.kind(), "poison");
        assert_eq!(e.to_string(), "poison after 3 attempts: flaky");
        let t = ServeError::Timeout {
            elapsed: Duration::from_millis(42),
        };
        assert_eq!(t.kind(), "timeout");
        assert_eq!(t.to_string(), "timeout after 42ms");
        assert_eq!(ServeError::Fatal("boom".into()).to_string(), "fatal: boom");
        let o = ServeError::Overloaded {
            reason: ShedReason::QueueDepth,
        };
        assert_eq!(o.kind(), "overloaded");
        assert_eq!(o.to_string(), "overloaded: queue_depth");
        assert!(!o.is_retryable());
    }
}
