//! # vs2-core
//!
//! A from-scratch reproduction of **VS2** — *"Visual Segmentation for
//! Information Extraction from Heterogeneous Visually Rich Documents"*
//! (Ritesh Sarkhel & Arnab Nandi, SIGMOD 2019).
//!
//! VS2 extracts named entities from visually rich documents in two
//! phases:
//!
//! 1. **VS2-Segment** ([`segment`]) decomposes a document into *logical
//!    blocks* — visually isolated but semantically coherent areas — via a
//!    hierarchical segmentation that combines whitespace-cut detection
//!    (§5.1.1), visual-delimiter selection (Algorithm 1), low-level
//!    visual-feature clustering (Table 1) and semantic merging (Eq. 1).
//! 2. **VS2-Select** ([`select`]) searches lexico-syntactic patterns —
//!    learned from a text-only holdout corpus by frequent-subtree mining
//!    (distant supervision, §5.2.1) — within each block's context
//!    boundary, and resolves conflicting matches by minimising the
//!    multimodal distance of Eq. 2 to the document's interest points
//!    (§5.3).
//!
//! [`pipeline::Vs2Pipeline`] wires both phases into an end-to-end
//! extractor; its [`pipeline::Vs2Config`] exposes every ablation switch
//! of the paper's §6.5 study.
//!
//! ```
//! use vs2_core::pipeline::{Vs2Config, Vs2Pipeline};
//!
//! // Distant supervision: (entity, example text, context) triples.
//! let holdout = vec![
//!     ("organizer", "James Wilson", "hosted by James Wilson"),
//!     ("organizer", "Mary Davis", "hosted by Mary Davis"),
//! ];
//! let pipeline = Vs2Pipeline::learn(holdout, Vs2Config::default());
//! assert_eq!(pipeline.entities(), vec!["organizer"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod pipeline;
pub mod plan;
pub mod segment;
pub mod select;
#[cfg(feature = "serde")]
mod serde_impls;
pub mod triage;

pub use context::{CtxEmbedder, DocContext};
pub use pipeline::{DisambiguationMode, Extraction, Vs2Config, Vs2Model, Vs2Pipeline};
pub use plan::{
    planned_blocks, planned_blocks_ctx, FingerprintConfig, LayoutFingerprint, PlanConfig,
    PlanCounters, PlanOutcome, PlanStore, SegmentationPlan,
};
pub use segment::{
    logical_blocks, logical_blocks_ctx, logical_blocks_naive, segment, segment_naive,
    segment_with_embedder, LogicalBlock, SegmentConfig,
};
pub use select::{Eq2Weights, SyntacticPattern};
pub use triage::{
    cheap_blocks, routed_blocks_ctx, triage_doc, CheapPathConfig, TriageConfig, TriageDecision,
};
