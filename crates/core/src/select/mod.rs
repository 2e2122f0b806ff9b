//! VS2-Select: distantly supervised search-and-select extraction (§5.2,
//! §5.3 of the paper).
//!
//! [`blocktext`] aligns block transcriptions with their source elements
//! and precomputes per-block feature tables; [`pattern`] implements the
//! lexico-syntactic pattern language of Tables 3 and 4; [`index`] compiles
//! an entity inventory into the [`PatternIndex`] fast-path matcher (shared
//! phrase trie + anchor-grouped windows); [`naive`] keeps the original
//! triple-loop matcher as the executable reference spec; [`learn`] mines
//! patterns from a holdout corpus (distant supervision); [`interest`]
//! selects the interest points by non-dominated sorting; [`disambiguate`]
//! ranks conflicting matches with the multimodal distance of Eq. 2.

pub mod blocktext;
pub mod disambiguate;
pub mod index;
pub mod interest;
pub mod learn;
pub mod learn_weights;
pub mod naive;
pub mod pattern;
pub mod tables;

pub use blocktext::{BlockText, FeatureTable, WindowRep};
pub use disambiguate::{distance_to_nearest, eq2_distance, AreaEncoding, Eq2Weights, PageScale};
pub use index::{BlockBest, PatternIndex, ReadSet, ScanScratch};
pub use interest::{dominates, interest_points, objectives, Objectives};
pub use learn::{learn_patterns, LearnConfig};
pub use learn_weights::{learn_weights, weight_grid, WeightSearchConfig};
pub use pattern::{features_of_span, Feature, PatternMatch, SyntacticPattern};
pub use tables::{table3, table4};
