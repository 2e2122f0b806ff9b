//! Template fingerprinting and segmentation-plan caching (ROADMAP
//! item 3).
//!
//! Templated traffic — per-broker flyers, fixed form faces — pays full
//! segmentation for every document even though near-duplicate layouts
//! dominate. This subsystem routes such documents down a cheap path:
//!
//! 1. [`LayoutFingerprint`] — a quantised, content-blind sketch of the
//!    element geometry, computed before segmentation ([`fingerprint`]);
//! 2. [`SegmentationPlan`] — a serialisable record of one full
//!    segmentation run, replayable after a strict validation pass
//!    ([`replay`]);
//! 3. [`PlanStore`] + [`planned_blocks`] — the bounded LRU cache and
//!    the skew gate → fingerprint → validate → replay → fallback path
//!    ([`store`]).
//!
//! Correctness stance: replay must be *byte-identical* to full
//! segmentation or not happen at all. Validation rejects fall back to
//! the full path, captured plans are self-validated before insertion,
//! and the conformance suite runs cache-on vs cache-off differentials
//! over every corpus, including adversarial near-miss templates built
//! to collide fingerprints.

pub mod fingerprint;
pub mod replay;
pub mod store;

pub use fingerprint::{FingerprintConfig, LayoutFingerprint, CENTROID_MARGIN, STABLE_JITTER};
pub use replay::{PlanConfig, PlanLeaf, PlanNode, SegmentationPlan, ValidationReject};
pub use store::{
    planned_blocks, planned_blocks_ctx, PlanCounters, PlanOutcome, PlanStore, PLAN_STORE_CAPACITY,
};
