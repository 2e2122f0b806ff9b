//! # vs2-obs
//!
//! Zero-external-dependency observability for the VS2 stack: lightweight
//! thread-local tracing spans around every pipeline stage, and an atomic
//! [`Histogram`] that is lock-free on the hot path.
//!
//! Design constraints, in order:
//!
//! 1. **Off means off.** With no [`Trace`] installed, [`span`] reads one
//!    thread-local flag and returns an inert guard. The serving layer's
//!    default output must stay byte-identical with instrumentation
//!    compiled in (the conformance overhead suite enforces this).
//! 2. **Lock-free recording.** Metrics writers record with relaxed
//!    atomic adds; a scrape reads the atomics into a snapshot.
//! 3. **Deterministic export.** Spans and metrics render to stable JSONL
//!    (`{"record":"span",...}` / `{"record":"metrics",...}`) via
//!    [`export`].
//!
//! The canonical stage names live in [`stages`]; instrumented code must
//! use those constants so the span-tree conformance tests can assert
//! coverage of the documented stage set.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod metrics;
pub mod span;

pub use metrics::{bucket_lower_bound, bucket_of, Histogram, HistogramSnapshot, BUCKET_COUNT};
pub use span::{enabled, span, SpanGuard, SpanRecord, Trace};

/// Canonical stage names for VS2 pipeline spans.
///
/// Nesting (default configuration):
///
/// ```text
/// vs2.extract
/// ├── vs2.segment
/// │   ├── vs2.segment.deskew          (once; skew estimation + rotation)
/// │   ├── vs2.segment.area            (one per visited area, tag depth=N)
/// │   │   ├── vs2.segment.grid        (packed-raster rasterisation)
/// │   │   ├── vs2.segment.fast.cuts   (word-packed whitespace sweep)
/// │   │   └── vs2.segment.cluster     (only when delimiters found < 2 parts)
/// │   └── vs2.segment.merge           (once; Eq. 1 semantic merging)
/// │       └── vs2.segment.fast.embed  (per-call element-embedding column)
/// ├── vs2.select                      (pattern search + disambiguation)
/// │   ├── vs2.select.index            (block texts, feature tables, interest points)
/// │   └── vs2.select.scan             (indexed pattern scan + scoring)
/// └── vs2.assign                      (greedy candidate→entity assignment)
/// ```
///
/// With the plan cache enabled (`vs2-serve --plan-cache`) the segment
/// subtree is preceded by the plan family, nested under `vs2.extract`:
///
/// ```text
/// vs2.plan.fingerprint                (quantised layout sketch; lookup key)
/// vs2.plan.validate                   (cache hit only; cover/bounds checks)
/// vs2.plan.replay                     (validation passed; replaces vs2.segment)
/// ```
pub mod stages {
    /// Root span of one document's extraction.
    pub const EXTRACT: &str = "vs2.extract";
    /// VS2-Segment: logical-block decomposition.
    pub const SEGMENT: &str = "vs2.segment";
    /// Skew estimation (and rotation when skew is detected). Where the
    /// plan cache or the triage router already ran the skew gate, it
    /// covers only the rotation.
    pub const DESKEW: &str = "vs2.segment.deskew";
    /// One XY-cut work-queue area visit; tagged with `depth`.
    pub const AREA: &str = "vs2.segment.area";
    /// Occupancy-grid rasterisation of one area.
    pub const GRID: &str = "vs2.segment.grid";
    /// Implicit-modifier visual clustering of one area.
    pub const CLUSTER: &str = "vs2.segment.cluster";
    /// Semantic merging (Eq. 1) over the converged layout tree.
    pub const MERGE: &str = "vs2.segment.merge";
    /// The word-packed whitespace sweep of one area (segment fast path);
    /// child of [`AREA`].
    pub const FAST_CUTS: &str = "vs2.segment.fast.cuts";
    /// The fast semantic merge's element-embedding column, fetched before
    /// the sweeps: built here on a job's first use (each text element
    /// embedded once), or per call on the owned path; child of [`MERGE`].
    pub const FAST_EMBED: &str = "vs2.segment.fast.embed";
    /// VS2-Select: pattern search and multimodal disambiguation.
    pub const SELECT: &str = "vs2.select";
    /// Select preparation: block texts, per-block feature tables and
    /// interest-point encodings.
    pub const SELECT_INDEX: &str = "vs2.select.index";
    /// The indexed per-block pattern scan plus candidate scoring.
    pub const SELECT_SCAN: &str = "vs2.select.scan";
    /// Greedy joint assignment of candidates to entities.
    pub const ASSIGN: &str = "vs2.assign";
    /// The skew gate, then the layout-fingerprint computation over the
    /// raw element geometry (plan-cache lookup key; emitted before
    /// segmentation). Under the triage router either may be the
    /// router's, handed on rather than recomputed.
    pub const PLAN_FINGERPRINT: &str = "vs2.plan.fingerprint";
    /// Validation of a cached segmentation plan against the incoming
    /// document (element cover, bounds and count checks).
    pub const PLAN_VALIDATE: &str = "vs2.plan.validate";
    /// Replay of a validated plan: block materialisation without a full
    /// segmentation pass.
    pub const PLAN_REPLAY: &str = "vs2.plan.replay";
    /// Pre-segmentation layout-complexity triage (routing decision);
    /// tagged with the fingerprint `digest` and the `cheap` verdict.
    /// Emitted only on the routed path (`--triage`).
    pub const TRIAGE: &str = "vs2.triage";

    /// Stages that appear exactly once per document under the default
    /// configuration (deskew and semantic merging enabled).
    pub const ONCE_PER_DOC: &[&str] = &[
        EXTRACT,
        SEGMENT,
        DESKEW,
        MERGE,
        SELECT,
        SELECT_INDEX,
        SELECT_SCAN,
        ASSIGN,
    ];

    /// Every documented stage name.
    pub const ALL: &[&str] = &[
        EXTRACT,
        SEGMENT,
        DESKEW,
        AREA,
        GRID,
        FAST_CUTS,
        CLUSTER,
        MERGE,
        FAST_EMBED,
        SELECT,
        SELECT_INDEX,
        SELECT_SCAN,
        ASSIGN,
        PLAN_FINGERPRINT,
        PLAN_VALIDATE,
        PLAN_REPLAY,
        TRIAGE,
    ];
}
