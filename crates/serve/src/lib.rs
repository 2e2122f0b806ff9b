//! # vs2-serve
//!
//! Concurrent batch-extraction service over the VS2 pipeline: learn a
//! dataset's pattern inventory once, then extract from many documents in
//! parallel with bounded memory and reproducible output.
//!
//! ```text
//!                    ┌────────────────────────────┐
//!  submit ──────────▶│  LaneQueue (cap N)         │   backpressure:
//!  (blocks if full)  └──────────┬─────────────────┘   stalls counted
//!                               │ pop
//!            ┌──────────┬───────┴──┬──────────┐
//!            ▼          ▼          ▼          ▼
//!        worker-0   worker-1   worker-2   worker-3     std::thread pool
//!            │          │          │          │        catch_unwind per job
//!            └────┬─────┴────┬─────┴──────────┘
//!                 │          ▼
//!                 │   ModelCache (Arc<Vs2Model>)       learn once per
//!                 │   dataset × seed × learn-config    (dataset, seed)
//!                 ▼
//!        results: BTreeMap<seq, outcome>               drain() replays
//!                 ▲                                    submission order
//!            watchdog (soft per-job timeout)
//! ```
//!
//! Layers, bottom up:
//!
//! * [`queue::LaneQueue`] — the blocking MPMC work queue; its bound is
//!   the service's backpressure, its lanes the interactive/batch
//!   priority split.
//! * [`admit::AdmitController`] — admission control: deterministic
//!   per-client token buckets, backlog/latency pressure watermarks,
//!   load shedding and degrade routing.
//! * [`error::ServeError`] — the structured failure taxonomy (fatal /
//!   timeout / overloaded) every layer above speaks.
//! * [`faults::FaultPlan`] — deterministic fault injection at named
//!   pipeline sites, enabled only through [`engine::EngineConfig`].
//! * [`engine::BatchEngine`] — generic worker pool with one attempt per
//!   job, per-job panic isolation, soft timeouts (a job past its
//!   deadline is quarantined), graceful degradation, a quarantine ledger
//!   for jobs left without an answer, and submission-ordered results.
//! * [`cache::ModelCache`] — learn-once/extract-many `Vs2Model` sharing,
//!   one slot per `(dataset, seed, learn config)` key.
//! * [`obs::EngineMetrics`] / [`obs::ObsHub`] — the engine's always-on
//!   ledger (one table of atomic counters and two atomic histograms) and
//!   opt-in per-job span capture for `--trace`.
//! * [`service::ExtractService`] — the layers wired together over
//!   [`job::JobSpec`]s, degrading to XY-cut segmentation
//!   ([`vs2_core::cheap_blocks`]) when the learned pipeline fails a job.
//! * [`batch::run_batch`] and the `vs2d` binary — JSONL front end over
//!   [`service::ExtractService`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admit;
pub mod batch;
pub mod cache;
pub mod engine;
pub mod error;
pub mod faults;
pub mod handoff;
pub mod job;
pub mod obs;
pub mod queue;
pub mod service;

pub use admit::{AdmitConfig, AdmitController, AdmitDecision, Lane, PressureLevel, ShedReason};
pub use batch::{run_batch, BatchOptions, BatchRun};
pub use cache::{default_config_for, weights_for, CacheSnapshot, ModelCache};
pub use engine::{BatchEngine, Completed, EngineConfig, EngineStats, JobCtx, JobOutcome};
pub use error::{QuarantineEntry, ServeError};
pub use faults::{FaultKind, FaultPlan, FaultSite};
pub use handoff::{
    AnsweredLine, ControlLine, HandoffError, HandoffSnapshot, PlanEntry, PlanNamespace,
};
pub use job::{
    JobDocCache, JobResult, JobSource, JobSpec, JobStatus, QuarantineRecord, DEFAULT_DOC_SEED,
};
pub use obs::{EngineMetrics, ObsHub};
pub use queue::LaneQueue;
pub use service::{ExtractService, LatencySummary, ServiceOptions};
