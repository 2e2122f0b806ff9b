//! Golden-snapshot drift detection.
//!
//! Compares the live served-pipeline output against the fixtures under
//! `crates/conformance/golden/`. On an intentional behaviour change,
//! re-bless with `cargo run -p vs2-conformance --bin golden -- --bless`
//! and review the fixture diff in the PR.

use vs2_conformance::golden::{check_blocks_digest, check_golden, check_tree_golden};
use vs2_synth::DatasetId;

#[test]
fn d1_snapshot_matches_fixture() {
    check_golden(DatasetId::D1).unwrap();
}

#[test]
fn d2_snapshot_matches_fixture() {
    check_golden(DatasetId::D2).unwrap();
}

#[test]
fn d3_snapshot_matches_fixture() {
    check_golden(DatasetId::D3).unwrap();
}

#[test]
fn d4_snapshot_matches_fixture() {
    check_golden(DatasetId::D4).unwrap();
}

#[test]
fn d4_tree_snapshot_matches_fixture() {
    check_tree_golden(DatasetId::D4).unwrap();
}

#[test]
fn segmentation_partitions_match_digest() {
    check_blocks_digest().unwrap();
}
