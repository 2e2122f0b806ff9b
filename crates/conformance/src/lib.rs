//! # vs2-conformance
//!
//! The correctness backstop for the VS2 pipeline and its serving layer.
//! Perf and scaling PRs land against this crate's suite:
//!
//! * [`strategy`] — `proptest`-shim strategies for arbitrary (and
//!   deliberately degenerate) [`vs2_docmodel::Document`]s. Coordinates
//!   are quantised to 0.25-unit steps so rigid transforms stay exact in
//!   `f64` and metamorphic comparisons can be bitwise.
//! * [`transform`] — the metamorphic document transforms (permutation,
//!   rigid translation, uniform power-of-two scaling).
//! * [`invariants`] — structural checks over segmentation output:
//!   exact element coverage, partition disjointness at every tree level,
//!   canonical (order-independent) block encodings for comparison.
//! * [`golden`] — golden-snapshot plumbing shared by the `golden` bin
//!   (`--bless`) and the snapshot tests.
//! * [`serving`] — the shared serving scaffold: job constructors, the
//!   serving-matrix batch, a [`serving::Mode`] naming every serving
//!   switch, one runner over `vs2_serve::run_batch`, and the drain →
//!   handoff → resume sequence.
//!
//! The actual properties live in `tests/`: `properties.rs` (metamorphic
//! and structural), `differential.rs` (serve-vs-direct and 1-vs-N-worker
//! byte equality), `serving_matrix.rs` (every combination of workers
//! {1, 4}, chaos faults, token-bucket admission, triage, plan cache and
//! drain/resume, each checked for 1 ≡ 4 determinism, exactly-once
//! accounting, on ≡ off equivalences, drain ≡ uninterrupted, fault-free
//! jobs untouched by chaos, and the golden/naive reference),
//! `golden.rs` (snapshot drift), `regression.rs` (previously-panicking
//! degenerate inputs, pinned), and the per-feature batteries beside the
//! matrix, built on the same scaffold (`chaos.rs`, `overload.rs`, `drain.rs`, `plan_cache.rs`,
//! `triage_equiv.rs`, `arena_equiv.rs`, `segment_equiv.rs`,
//! `select_equiv.rs`). Chaos runs are seeded and excluded from the
//! golden snapshots.
//!
//! Suite-wide knobs (see the `proptest` shim): `VS2_PROPTEST_CASES` caps
//! per-property case counts (for quick local runs; CI runs uncapped),
//! `VS2_PROPTEST_SEED` replays one failing case.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod golden;
pub mod invariants;
pub mod serving;
pub mod strategy;
pub mod transform;
