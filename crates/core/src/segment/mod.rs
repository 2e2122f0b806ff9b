//! VS2-Segment: hierarchical page segmentation (§5.1 of the paper).
//!
//! The pipeline per visual area is: whitespace-cut detection ([`cuts`]) →
//! visual-delimiter selection, Algorithm 1 ([`delimiter`]) → implicit-
//! modifier clustering over Table 1 features ([`cluster`]) → recursive
//! splitting ([`segmenter`]) → semantic merging, Eq. 1 ([`merge`]).

pub mod cluster;
pub mod cuts;
pub mod delimiter;
pub mod deskew;
pub mod fast;
pub mod merge;
pub mod naive;
pub mod segmenter;

pub use cluster::ClusterConfig;
pub use cuts::{all_runs, cut_runs, horizontal_cuts, vertical_cuts, CutRun};
pub use delimiter::{select_delimiters, DelimiterConfig, ScoredRun};
pub use deskew::{estimate_skew, rotate_elements, skew_to_correct, SKEW_EPSILON};
pub use merge::{semantic_merge, theta, MergeConfig};
pub use naive::{logical_blocks_naive, segment_naive};
pub use segmenter::{
    blocks_of_tree, logical_blocks, logical_blocks_ctx, segment, segment_with_embedder,
    LogicalBlock, SegmentConfig,
};
