//! Golden-snapshot tool.
//!
//! * `cargo run -p vs2-conformance --bin golden` — check mode: renders
//!   the live snapshot for every dataset and diffs it against the
//!   checked-in fixture, and compares the partition digest
//!   (`golden/blocks.digest`: per corpus, the FNV-1a of the
//!   `--dump-blocks` lines of its first `N_DIGEST_DOCS` documents);
//!   exits non-zero on drift or a missing fixture.
//! * `cargo run -p vs2-conformance --bin golden -- --bless` —
//!   regenerates every fixture and the digest in place.
//! * `cargo run --release -p vs2-conformance --bin golden -- --dump-blocks N`
//!   — prints the `logical_blocks` of documents `0..N` of D1–D4 and
//!   Templated, one `Debug` line per document, for a before/after `cmp`
//!   of a segmentation change (every float prints in round-trip form).

use std::process::ExitCode;

use vs2_conformance::golden::{
    blocks_digest, blocks_digest_path, blocks_line, check_blocks_digest, check_golden,
    check_tree_golden, dataset_name, golden_path, golden_snapshot, tree_golden_path, tree_snapshot,
    DIGEST_DATASETS, N_DIGEST_DOCS,
};
use vs2_synth::DatasetId;

fn bless_file(path: &std::path::Path, snapshot: &str) -> Result<(), ExitCode> {
    if let Some(dir) = path.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return Err(ExitCode::FAILURE);
        }
    }
    if let Err(e) = std::fs::write(path, snapshot) {
        eprintln!("cannot write {}: {e}", path.display());
        return Err(ExitCode::FAILURE);
    }
    println!("blessed {} ({} bytes)", path.display(), snapshot.len());
    Ok(())
}

/// Prints the logical blocks of the first `n` documents of every corpus.
fn dump_blocks(n: usize) {
    for dataset in DIGEST_DATASETS {
        for i in 0..n {
            println!("{}", blocks_line(dataset, i));
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bless = match args.as_slice() {
        [] => false,
        [flag] if flag == "--bless" => true,
        [flag, n] if flag == "--dump-blocks" => match n.parse() {
            Ok(n) => {
                dump_blocks(n);
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("--dump-blocks: `{n}` is not a document count: {e}");
                return ExitCode::FAILURE;
            }
        },
        other => {
            eprintln!("usage: golden [--bless | --dump-blocks N] (got {other:?})");
            return ExitCode::FAILURE;
        }
    };

    let mut failed = false;
    for dataset in DatasetId::EXTENDED {
        if bless {
            if let Err(code) = bless_file(&golden_path(dataset), &golden_snapshot(dataset)) {
                return code;
            }
        } else {
            match check_golden(dataset) {
                Ok(()) => println!("{}: ok", dataset_name(dataset)),
                Err(e) => {
                    eprintln!("{}: {e}", dataset_name(dataset));
                    failed = true;
                }
            }
        }
    }
    // The triage corpus additionally pins its segmentation trees: the
    // routed cheap path never runs the full segmenter, so extraction
    // goldens alone would not catch full-path tree drift on D4.
    let tree_dataset = DatasetId::D4;
    if bless {
        if let Err(code) = bless_file(
            &tree_golden_path(tree_dataset),
            &tree_snapshot(tree_dataset),
        ) {
            return code;
        }
    } else {
        match check_tree_golden(tree_dataset) {
            Ok(()) => println!("{} trees: ok", dataset_name(tree_dataset)),
            Err(e) => {
                eprintln!("{} trees: {e}", dataset_name(tree_dataset));
                failed = true;
            }
        }
    }
    if bless {
        if let Err(code) = bless_file(&blocks_digest_path(), &blocks_digest(N_DIGEST_DOCS)) {
            return code;
        }
    } else {
        match check_blocks_digest() {
            Ok(()) => println!("partitions of {N_DIGEST_DOCS} docs per corpus: ok"),
            Err(e) => {
                eprintln!("{e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
