//! Golden-snapshot plumbing.
//!
//! A snapshot pins the full extraction output of the served pipeline —
//! model learning included — over the first [`N_GOLDEN_DOCS`] documents
//! of each synthetic dataset at [`DEFAULT_DOC_SEED`]. The fixtures live
//! in `crates/conformance/golden/<dataset>.json`; the `golden` bin
//! checks them (default) or regenerates them (`--bless`), and
//! `tests/golden.rs` compares against them on every run. The bin also
//! checks (and blesses) `golden/blocks.digest`, one digest per corpus of
//! the segmentation partitions of its first [`N_DIGEST_DOCS`] documents.
//!
//! The snapshots derive from the repo's *synthetic* datasets, not the
//! paper's corpora — they pin this implementation against itself, not
//! against published figures.

use std::path::{Path, PathBuf};

use serde::{Serialize as _, Value};
use vs2_core::Extraction;
use vs2_serve::{default_config_for, ModelCache, DEFAULT_DOC_SEED};
use vs2_synth::{generate_one, DatasetConfig, DatasetId};

/// Documents snapshotted per dataset.
pub const N_GOLDEN_DOCS: usize = 4;

/// Stable fixture stem for a dataset (`D1` / `D2` / `D3`).
pub fn dataset_name(dataset: DatasetId) -> &'static str {
    match dataset {
        DatasetId::D1 => "D1",
        DatasetId::D2 => "D2",
        DatasetId::D3 => "D3",
        DatasetId::D4 => "D4",
        DatasetId::Templated => "Templated",
    }
}

/// Path of the checked-in fixture for `dataset`.
pub fn golden_path(dataset: DatasetId) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{}.json", dataset_name(dataset)))
}

/// Renders the current snapshot for `dataset`: learns the model once
/// (exactly the served configuration) and extracts every golden
/// document, serialising the results as pretty JSON with a trailing
/// newline.
pub fn golden_snapshot(dataset: DatasetId) -> String {
    let cache = ModelCache::new();
    let pipeline = cache.pipeline_for(dataset, DEFAULT_DOC_SEED, default_config_for(dataset));
    render_snapshot(
        dataset,
        (0..N_GOLDEN_DOCS).map(|i| {
            let doc = generate_one(dataset, i, DatasetConfig::new(1, DEFAULT_DOC_SEED)).doc;
            let extractions = pipeline.extract(&doc);
            (doc.id, extractions)
        }),
    )
}

/// Renders `dataset`'s golden snapshot from `(doc_id, extractions)`
/// pairs — the shape [`golden_snapshot`] pins, so a served run can be
/// compared with the fixture byte for byte.
pub fn render_snapshot(
    dataset: DatasetId,
    docs: impl IntoIterator<Item = (String, Vec<Extraction>)>,
) -> String {
    let docs: Vec<Value> = docs
        .into_iter()
        .map(|(id, extractions)| {
            Value::Object(vec![
                ("doc_id".into(), Value::Str(id)),
                ("extractions".into(), extractions.to_value()),
            ])
        })
        .collect();
    let snapshot = Value::Object(vec![
        ("dataset".into(), Value::Str(dataset_name(dataset).into())),
        ("model_seed".into(), DEFAULT_DOC_SEED.to_value()),
        ("documents".into(), Value::Array(docs)),
    ]);
    let mut text = serde_json::to_string_pretty(&snapshot).expect("snapshot serialises");
    text.push('\n');
    text
}

/// Path of the checked-in segmentation-tree fixture for `dataset`.
pub fn tree_golden_path(dataset: DatasetId) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{}.tree.txt", dataset_name(dataset)))
}

/// Renders the segmentation-tree snapshot for `dataset`: the layout
/// tree dump ([`vs2_docmodel::LayoutTree::dump`]) of every golden
/// document under the served segment configuration, one header line per
/// document. Pins the full tree — structure, bounding boxes, element
/// counts — not just the flattened blocks the extraction golden sees.
pub fn tree_snapshot(dataset: DatasetId) -> String {
    let config = default_config_for(dataset);
    let mut text = String::new();
    for i in 0..N_GOLDEN_DOCS {
        let doc = generate_one(dataset, i, DatasetConfig::new(1, DEFAULT_DOC_SEED)).doc;
        let tree = vs2_core::segment(&doc, &config.segment);
        text.push_str(&format!("== {} ==\n", doc.id));
        text.push_str(&tree.dump());
        if !text.ends_with('\n') {
            text.push('\n');
        }
    }
    text
}

/// Compares the live segmentation trees for `dataset` against the
/// checked-in `.tree.txt` fixture; same contract as [`check_golden`].
pub fn check_tree_golden(dataset: DatasetId) -> Result<(), String> {
    let path = tree_golden_path(dataset);
    let expected = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "missing tree golden fixture {} ({e}); generate it with \
             `cargo run -p vs2-conformance --bin golden -- --bless`",
            path.display()
        )
    })?;
    let actual = tree_snapshot(dataset);
    diff_against(dataset, &expected, &actual)
}

/// Documents per corpus folded into the partition digest: the 240 a
/// before/after `golden --dump-blocks 240` compares, so the digest pins
/// that whole dump (about 3.5 s in a debug build on a 2-CPU host).
pub const N_DIGEST_DOCS: usize = 240;

/// The corpora of the partition digest, in file order.
pub const DIGEST_DATASETS: [DatasetId; 5] = [
    DatasetId::D1,
    DatasetId::D2,
    DatasetId::D3,
    DatasetId::D4,
    DatasetId::Templated,
];

/// Path of the checked-in partition digest.
pub fn blocks_digest_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join("blocks.digest")
}

/// The `golden --dump-blocks` line of document `i` of `dataset`: its
/// `logical_blocks` under the served segmentation configuration, one
/// `Debug` rendering (every float in round-trip form).
pub fn blocks_line(dataset: DatasetId, i: usize) -> String {
    let segment = default_config_for(dataset).segment;
    let doc = generate_one(dataset, i, DatasetConfig::new(1, DEFAULT_DOC_SEED)).doc;
    let blocks = vs2_core::segment::logical_blocks(&doc, &segment);
    format!("{} {i} {blocks:?}", dataset_name(dataset))
}

/// 64-bit FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The partition digest: per corpus, the FNV-1a of its first `n`
/// dump-blocks lines, newlines included — one `<dataset> <n> <hex>`
/// line each. Pins every partition of those documents, not only the
/// ones the extraction goldens reach.
pub fn blocks_digest(n: usize) -> String {
    let mut out = String::new();
    for dataset in DIGEST_DATASETS {
        let h = (0..n).fold(0xcbf2_9ce4_8422_2325, |h, i| {
            fnv1a(fnv1a(h, blocks_line(dataset, i).as_bytes()), b"\n")
        });
        out.push_str(&format!("{} {n} {h:016x}\n", dataset_name(dataset)));
    }
    out
}

/// Compares the live partition digest against the checked-in one; same
/// contract as [`check_golden`], naming the corpora that drifted.
pub fn check_blocks_digest() -> Result<(), String> {
    let path = blocks_digest_path();
    let expected = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "missing partition digest {} ({e}); generate it with \
             `cargo run -p vs2-conformance --bin golden -- --bless`",
            path.display()
        )
    })?;
    let actual = blocks_digest(N_DIGEST_DOCS);
    if actual == expected {
        return Ok(());
    }
    let drifted: Vec<&str> = actual
        .lines()
        .zip(expected.lines())
        .filter(|(a, e)| a != e)
        .filter_map(|(a, _)| a.split(' ').next())
        .collect();
    Err(format!(
        "segmentation partitions drifted ({}); compare `golden --dump-blocks \
         {N_DIGEST_DOCS}` before and after the change, and re-bless with \
         `cargo run -p vs2-conformance --bin golden -- --bless` if the \
         change is intentional",
        if drifted.is_empty() {
            "line counts differ".to_string()
        } else {
            drifted.join(", ")
        }
    ))
}

/// Compares the live snapshot for `dataset` against the checked-in
/// fixture. `Ok(())` on a match; `Err` describes the drift (or a missing
/// fixture) and names the bless command.
pub fn check_golden(dataset: DatasetId) -> Result<(), String> {
    let path = golden_path(dataset);
    let expected = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "missing golden fixture {} ({e}); generate it with \
             `cargo run -p vs2-conformance --bin golden -- --bless`",
            path.display()
        )
    })?;
    let actual = golden_snapshot(dataset);
    diff_against(dataset, &expected, &actual)
}

fn diff_against(dataset: DatasetId, expected: &str, actual: &str) -> Result<(), String> {
    if actual == expected {
        return Ok(());
    }
    let diff_line = expected
        .lines()
        .zip(actual.lines())
        .position(|(e, a)| e != a)
        .map_or_else(
            || "line counts differ".to_string(),
            |i| format!("first divergence at line {}", i + 1),
        );
    Err(format!(
        "golden snapshot for {} drifted ({diff_line}). If the change is \
         intentional, re-bless with \
         `cargo run -p vs2-conformance --bin golden -- --bless` and review \
         the fixture diff.",
        dataset_name(dataset)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_deterministic() {
        let a = golden_snapshot(DatasetId::D2);
        let b = golden_snapshot(DatasetId::D2);
        assert_eq!(a, b);
        assert!(a.ends_with('\n'));
        assert!(a.contains("\"dataset\""));
    }

    #[test]
    fn golden_paths_are_distinct_per_dataset() {
        let paths: Vec<_> = DatasetId::EXTENDED
            .iter()
            .map(|d| golden_path(*d))
            .collect();
        assert_eq!(paths.len(), 4);
        assert!(paths.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn tree_snapshot_is_deterministic_and_headed() {
        let a = tree_snapshot(DatasetId::D4);
        assert_eq!(a, tree_snapshot(DatasetId::D4));
        assert_eq!(a.matches("== inv-").count(), N_GOLDEN_DOCS);
        assert!(a.ends_with('\n'));
    }
}
