//! Differential equivalence battery for the select-stage matchers.
//!
//! `Vs2Pipeline::candidates_on_blocks_ctx` runs the compiled
//! [`vs2_core::select::PatternIndex`]; `candidates_on_blocks_naive`
//! drives the original triple-loop matcher kept verbatim in
//! `vs2_core::select::naive`. Both paths share one scoring function by
//! construction, so these tests pin exactly the matcher: per-entity
//! candidate lists — spans, geometry and scores — must be byte-identical
//! across arbitrary documents, the synthetic benchmark corpora, the
//! adversarial corpus and hand-built OCR stress cases, under all three
//! disambiguation modes.
//!
//! Case counts honour `VS2_PROPTEST_CASES`; failures print a
//! `VS2_PROPTEST_SEED` repro command (see the `proptest` shim docs).

use proptest::collection::vec;
use proptest::prelude::*;
use serde::Serialize as _;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use vs2_conformance::strategy::{arb_any_document, q};
use vs2_core::segment::logical_blocks;
use vs2_core::select::{
    table3, table4, BlockBest, BlockText, PatternIndex, ScanScratch, SyntacticPattern,
};
use vs2_core::{DisambiguationMode, DocContext, Extraction, Vs2Config, Vs2Pipeline};
use vs2_docmodel::{BBox, Document, TextElement};
use vs2_serve::{default_config_for, ModelCache, DEFAULT_DOC_SEED};
use vs2_synth::{adversarial, generate_one, DatasetConfig, DatasetId};

const MODES: [DisambiguationMode; 3] = [
    DisambiguationMode::Multimodal,
    DisambiguationMode::FirstMatch,
    DisambiguationMode::Lesk,
];

/// Serialises a candidate map with every field participating — the
/// byte-identity half of the comparison (structural `PartialEq` alone
/// would not catch `-0.0` vs `0.0` score drift, serialisation does).
fn render_candidates(c: &BTreeMap<String, Vec<Extraction>>) -> String {
    let fields: Vec<(String, serde::Value)> =
        c.iter().map(|(k, v)| (k.clone(), v.to_value())).collect();
    serde_json::to_string(&serde::Value::Object(fields)).unwrap()
}

fn render_extractions(e: &[Extraction]) -> String {
    serde_json::to_string(&e.to_value()).unwrap()
}

/// The core assertion: indexed and naive paths agree candidate-for-
/// candidate and byte-for-byte on `doc`, in every disambiguation mode,
/// both before and after assignment.
fn assert_equiv(pipeline: &Vs2Pipeline, doc: &Document) {
    let blocks = logical_blocks(doc, &pipeline.config.segment);
    let ctx = DocContext::build(doc);
    for mode in MODES {
        let mut p = pipeline.clone();
        p.config.disambiguation = mode;
        let fast = p.candidates_on_blocks_ctx(&ctx, &blocks);
        let slow = p.candidates_on_blocks_naive(doc, &blocks);
        assert_eq!(
            fast, slow,
            "candidate structures diverged ({mode:?}, doc {})",
            doc.id
        );
        assert_eq!(
            render_candidates(&fast),
            render_candidates(&slow),
            "candidate bytes diverged ({mode:?}, doc {})",
            doc.id
        );
        assert_eq!(
            render_extractions(&p.extract_on_blocks_ctx(&ctx, &blocks)),
            render_extractions(&p.extract_on_blocks_naive(doc, &blocks)),
            "assigned extractions diverged ({mode:?}, doc {})",
            doc.id
        );
    }
}

/// The pipelines under test: both hand-written inventories plus a
/// distantly supervised learned model per dataset (built once — learning
/// is the expensive phase).
fn pipelines() -> &'static Vec<(&'static str, Vs2Pipeline)> {
    static PIPELINES: OnceLock<Vec<(&'static str, Vs2Pipeline)>> = OnceLock::new();
    PIPELINES.get_or_init(|| {
        let cache = ModelCache::new();
        let mut v: Vec<(&'static str, Vs2Pipeline)> = vec![
            (
                "table3",
                Vs2Pipeline::with_patterns(table3(), Vs2Config::default()),
            ),
            (
                "table4",
                Vs2Pipeline::with_patterns(table4(), Vs2Config::default()),
            ),
        ];
        for (name, dataset) in [
            ("learned-D1", DatasetId::D1),
            ("learned-D2", DatasetId::D2),
            ("learned-D3", DatasetId::D3),
            ("learned-D4", DatasetId::D4),
        ] {
            v.push((
                name,
                cache.pipeline_for(dataset, DEFAULT_DOC_SEED, default_config_for(dataset)),
            ));
        }
        v
    })
}

fn doc_from_words(id: &str, words: &[&str]) -> Document {
    let mut d = Document::new(id, 40.0 * words.len().max(1) as f64 + 20.0, 60.0);
    for (i, w) in words.iter().enumerate() {
        d.push_text(TextElement::word(
            *w,
            BBox::new(10.0 + 40.0 * i as f64, 10.0, 35.0, 10.0),
        ));
    }
    d
}

/// Synthetic benchmark corpora: every pipeline is exercised on documents
/// from all three datasets, not just its own — foreign documents produce
/// partial and zero-match blocks, the regime where prefilter bugs hide.
#[test]
fn indexed_matches_naive_on_synthetic_corpora() {
    for dataset in [DatasetId::D1, DatasetId::D2, DatasetId::D3] {
        let docs: Vec<Document> = (0..6)
            .map(|i| generate_one(dataset, i, DatasetConfig::new(1, DEFAULT_DOC_SEED)).doc)
            .collect();
        for (_, pipeline) in pipelines() {
            for doc in &docs {
                assert_equiv(pipeline, doc);
            }
        }
    }
}

/// The adversarial layout corpus (hostile geometry: slivers, overlaps,
/// huge skew) against every pipeline.
#[test]
fn indexed_matches_naive_on_adversarial_corpus() {
    for (_, doc) in adversarial::corpus() {
        for (_, pipeline) in pipelines() {
            assert_equiv(pipeline, &doc);
        }
    }
}

/// A pattern inventory built to stress the trie walk: shared prefixes,
/// phrases that are prefixes of longer phrases, a phrase whose first
/// token repeats, the same phrase registered by two entities, and an
/// exact/window mix within one entity.
fn stress_patterns() -> BTreeMap<String, Vec<SyntacticPattern>> {
    let mut m = BTreeMap::new();
    m.insert(
        "alpha".to_string(),
        vec![
            SyntacticPattern::ExactPhrase("total wages".into()),
            SyntacticPattern::ExactPhrase("total wages income".into()),
            SyntacticPattern::ExactPhrase("total".into()),
        ],
    );
    m.insert(
        "beta".to_string(),
        vec![
            SyntacticPattern::ExactPhrase("total wages income".into()),
            SyntacticPattern::Window {
                kind: None,
                required: vec![vs2_core::select::Feature::from_label("NER:person").unwrap()],
            },
        ],
    );
    m.insert(
        "gamma".to_string(),
        vec![SyntacticPattern::ExactPhrase("pay pay stub".into())],
    );
    m.insert(
        "delta".to_string(),
        vec![SyntacticPattern::ExactPhrase("amount due".into())],
    );
    m.insert(
        "epsilon".to_string(),
        vec![SyntacticPattern::ExactPhrase("amount due".into())],
    );
    m
}

/// Hand-built OCR stress documents: merged words, split words, edit-one
/// corruption, repeated first tokens, duplicated phrases — each run
/// against the stress inventory through both matchers.
#[test]
fn indexed_matches_naive_on_ocr_stress_cases() {
    let pipeline = Vs2Pipeline::with_patterns(stress_patterns(), Vs2Config::default());
    let cases: &[&[&str]] = &[
        &["total", "wages", "income", "due"],
        &["totalwages", "income", "due"],
        &["total", "wa", "ges", "income"],
        &["totel", "wages", "income"],
        &["total", "total", "wages", "wages", "income"],
        &["pay", "pay", "pay", "stub"],
        &["amount", "due", "amount", "due"],
        &["Hosted", "by", "James", "Wilson", "total", "wages"],
        &["total"],
        &[],
    ];
    for (i, words) in cases.iter().enumerate() {
        let doc = doc_from_words(&format!("stress-{i}"), words);
        assert_equiv(&pipeline, &doc);
    }
}

/// Vocabulary the randomised documents draw from: pattern words, their
/// OCR-merged/split/corrupted variants, and filler — so generated pages
/// hit full matches, partial prefixes and dead ends in random layouts.
const VOCAB: &[&str] = &[
    "total",
    "wages",
    "income",
    "totalwages",
    "wagesincome",
    "wa",
    "ges",
    "totel",
    "pay",
    "stub",
    "amount",
    "due",
    "hosted",
    "by",
    "james",
    "wilson",
    "saturday",
    "april",
    "5",
    "7",
    "pm",
    "beds",
    "filler",
    "noise",
    "the",
];

fn arb_vocab_document() -> BoxedStrategy<Document> {
    (
        (800u32..2400, 800u32..2400),
        vec(
            (
                0usize..VOCAB.len(),
                (0u32..2000, 0u32..2000, 20u32..200, 8u32..60),
            ),
            0..30,
        ),
    )
        .prop_map(|(page, words)| {
            let mut d = Document::new("vocab", q(page.0), q(page.1));
            for (wi, (x, y, w, h)) in words {
                d.push_text(TextElement::word(
                    VOCAB[wi],
                    BBox::new(q(x), q(y), q(w), q(h)),
                ));
            }
            d
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random vocabulary documents (pattern words in random layouts)
    /// against the trie-stress inventory.
    #[test]
    fn property_indexed_equals_naive_on_vocab_documents(doc in arb_vocab_document()) {
        let pipeline = Vs2Pipeline::with_patterns(stress_patterns(), Vs2Config::default());
        assert_equiv(&pipeline, &doc);
    }

    /// Arbitrary + degenerate documents against the hand-written Table 3
    /// and Table 4 inventories and a learned model.
    #[test]
    fn property_indexed_equals_naive_on_arbitrary_documents(doc in arb_any_document()) {
        for (name, pipeline) in pipelines().iter().take(3) {
            let _ = name;
            assert_equiv(pipeline, &doc);
        }
    }
}

// ---------------------------------------------------------------------
// High-fanout battery: the length-bucketed probe tables and the
// token-only block texts of phrase-only models.
// ---------------------------------------------------------------------

/// SplitMix64: the generated inventories and blocks are a pure function
/// of the property's case seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// A word over a three-letter alphabet, so edit-one, merge and split
    /// coincidences are frequent.
    fn word(&mut self, len: usize) -> String {
        (0..len).map(|_| b"abc"[self.below(3)] as char).collect()
    }
}

/// A phrase `"abbc b"` whose first edge both merges (`"abcb"` is one
/// deletion from `"abbcb"`) and splits (`"abcb" + "c"` is one deletion
/// from `"abbc"`) on the same block tokens, while `"abcb"` misses
/// `"abbc"` directly — so the split continuation must exclude the merged
/// grandchild `"b"`.
const SAME_EDGE_PHRASES: [&str; 3] = ["abbc b", "abbc b ca", "abbc ca"];
const SAME_EDGE_TOKENS: [&str; 4] = ["abcb", "c", "b", "ca"];

/// A generated phrase inventory with at least 40 distinct first words:
/// 1–3-byte words (exact match only) next to 4–7-byte ones (one edit
/// allowed), one first word heading a wide fan of phrases, phrases
/// shared by two entities, and the same-edge merge/split phrases.
/// Returns the inventory and every phrase as word lists.
fn high_fanout_inventory(
    rng: &mut Mix,
) -> (BTreeMap<String, Vec<SyntacticPattern>>, Vec<Vec<String>>) {
    let mut roots: Vec<String> = Vec::new();
    while roots.len() < 44 {
        let len = if roots.len() < 14 {
            1 + rng.below(3)
        } else {
            4 + rng.below(4)
        };
        let w = rng.word(len);
        if !roots.contains(&w) {
            roots.push(w);
        }
    }
    let mut phrases: Vec<Vec<String>> = Vec::new();
    for (ri, root) in roots.iter().enumerate() {
        // Root 0 heads a wide fan, like "total" on the tax forms.
        let fan = if ri == 0 { 24 } else { 1 + rng.below(3) };
        for _ in 0..fan {
            let mut p = vec![root.clone()];
            for _ in 0..rng.below(4) {
                let len = 1 + rng.below(6);
                p.push(rng.word(len));
            }
            phrases.push(p);
        }
    }
    for p in SAME_EDGE_PHRASES {
        phrases.push(p.split_whitespace().map(str::to_string).collect());
    }
    let mut m: BTreeMap<String, Vec<SyntacticPattern>> = BTreeMap::new();
    for (pi, p) in phrases.iter().enumerate() {
        let text = p.join(" ");
        let entity = format!("e{}", rng.below(9));
        m.entry(entity)
            .or_default()
            .push(SyntacticPattern::ExactPhrase(text.clone()));
        if pi % 7 == 0 {
            m.entry(format!("e{}", rng.below(9)))
                .or_default()
                .push(SyntacticPattern::ExactPhrase(text));
        }
    }
    (m, phrases)
}

/// Block words drawn to hit the probe tables' edges: exact phrase words,
/// edit-one mutations, OCR merges of consecutive phrase words, OCR splits,
/// empty-norm and 1-byte tokens, tokens longer than any bucket (their
/// rejoined pairs too), and the same-edge merge/split tokens.
fn high_fanout_words(rng: &mut Mix, phrases: &[Vec<String>]) -> Vec<String> {
    let mut words: Vec<String> = Vec::new();
    let n = 8 + rng.below(28);
    while words.len() < n {
        let p = &phrases[rng.below(phrases.len())];
        let j = rng.below(p.len());
        match rng.below(10) {
            0..=2 => words.extend(p[j..].iter().cloned()),
            3 => {
                let mut w = p[j].clone().into_bytes();
                let k = rng.below(w.len() + 1);
                match rng.below(3) {
                    0 if k < w.len() => w[k] = b"abc"[rng.below(3)],
                    1 => w.insert(k, b"abc"[rng.below(3)]),
                    _ if w.len() > 1 && k < w.len() => {
                        w.remove(k);
                    }
                    _ => {}
                }
                words.push(String::from_utf8(w).unwrap());
            }
            4 if j + 1 < p.len() => words.push(format!("{}{}", p[j], p[j + 1])),
            5 if p[j].len() > 1 => {
                let k = 1 + rng.below(p[j].len() - 1);
                words.push(p[j][..k].to_string());
                words.push(p[j][k..].to_string());
            }
            6 => words.push([",", "-", "a", "b", "c"][rng.below(5)].to_string()),
            7 => {
                let len = 16 + rng.below(8);
                words.push(rng.word(len));
            }
            8 => words.extend(SAME_EDGE_TOKENS.iter().map(|t| t.to_string())),
            _ => words.push(p[j].clone()),
        }
    }
    words
}

/// One block holding every word of `doc`, in reading order.
fn whole_block(doc: &Document) -> vs2_core::LogicalBlock {
    let elements: Vec<vs2_docmodel::ElementRef> = (0..doc.texts.len())
        .map(vs2_docmodel::ElementRef::Text)
        .collect();
    vs2_core::LogicalBlock {
        bbox: BBox::new(0.0, 0.0, doc.width, doc.height),
        elements,
    }
}

/// The index's sparse hits on `bt` are the naive matcher's winners of
/// exactly the entities that have one, in entity order. `scratch` may
/// carry earlier queries: it must come back clean every time.
fn assert_hits_equal_naive(
    index: &PatternIndex,
    patterns: &BTreeMap<String, Vec<SyntacticPattern>>,
    bt: &BlockText,
    scratch: &mut ScanScratch,
) {
    let expected: Vec<(usize, BlockBest)> = patterns
        .values()
        .enumerate()
        .filter_map(|(ei, pats)| {
            vs2_core::select::naive::block_best(pats, bt).map(|(m, exact, specificity)| {
                (
                    ei,
                    BlockBest {
                        m,
                        exact,
                        specificity,
                    },
                )
            })
        })
        .collect();
    assert_eq!(
        index.block_hits(bt, scratch),
        &expected[..],
        "sparse hits over {:?}",
        bt.ann.tokens.iter().map(|t| &*t.raw).collect::<Vec<_>>()
    );
}

/// The index's sparse hits equal the naive matcher's on `block`.
fn assert_index_equals_naive(
    patterns: &BTreeMap<String, Vec<SyntacticPattern>>,
    doc: &Document,
    block: &vs2_core::LogicalBlock,
) {
    let bt = BlockText::build(doc, block);
    let index = PatternIndex::build(patterns);
    assert_hits_equal_naive(&index, patterns, &bt, &mut index.scratch());
}

/// The select entry points — context and naive — agree on the given
/// blocks in every disambiguation mode, before and after assignment.
fn assert_entry_points_agree(
    pipeline: &Vs2Pipeline,
    doc: &Document,
    blocks: &[vs2_core::LogicalBlock],
) {
    let ctx = DocContext::build(doc);
    for mode in MODES {
        let mut p = pipeline.clone();
        p.config.disambiguation = mode;
        let in_ctx = render_candidates(&p.candidates_on_blocks_ctx(&ctx, blocks));
        let naive = render_candidates(&p.candidates_on_blocks_naive(doc, blocks));
        assert_eq!(in_ctx, naive, "ctx vs naive ({mode:?}, doc {})", doc.id);
        assert_eq!(
            render_extractions(&p.extract_on_blocks_ctx(&ctx, blocks)),
            render_extractions(&p.extract_on_blocks_naive(doc, blocks)),
            "assigned extractions diverged ({mode:?}, doc {})",
            doc.id
        );
    }
}

#[test]
fn same_edge_merge_and_split_match_naive() {
    let mut m = BTreeMap::new();
    m.insert(
        "e".to_string(),
        SAME_EDGE_PHRASES
            .iter()
            .map(|p| SyntacticPattern::ExactPhrase(p.to_string()))
            .collect::<Vec<_>>(),
    );
    let doc = doc_from_words("same-edge", &SAME_EDGE_TOKENS);
    let block = whole_block(&doc);
    // The merge matches "abbc b" over token 0 alone. The split
    // continuation (tokens 0..2 reach "abbc") may not take the merged
    // "b" again, so neither "abbc b" over 0..3 nor "abbc b ca" over 0..4
    // matches: the winner stays the merge path's one-token span.
    assert_index_equals_naive(&m, &doc, &block);
    let bt = BlockText::build(&doc, &block);
    let index = PatternIndex::build(&m);
    let hits = index.block_hits(&bt, &mut index.scratch()).to_vec();
    assert_eq!(hits.len(), 1);
    assert_eq!(
        hits[0].1.m,
        vs2_core::select::PatternMatch { start: 0, end: 1 }
    );
    assert_entry_points_agree(
        &Vs2Pipeline::with_patterns(m, Vs2Config::default()),
        &doc,
        &[block],
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Generated high-fanout phrase inventories (≥ 40 first words, short
    /// exact-only words, a wide fan under one first word) over blocks of
    /// exact, mutated, merged, split, empty, 1-byte and over-long tokens:
    /// the bucketed trie walk equals the naive matcher, and the phrase-only
    /// pipeline (token-only block texts) equals the annotated reference.
    #[test]
    fn property_high_fanout_index_equals_naive(seed in 0u64..u64::MAX) {
        let mut rng = Mix(seed);
        let (patterns, phrases) = high_fanout_inventory(&mut rng);
        let roots: std::collections::BTreeSet<&str> =
            phrases.iter().map(|p| p[0].as_str()).collect();
        prop_assert!(roots.len() >= 40);
        let words = high_fanout_words(&mut rng, &phrases);
        let refs: Vec<&str> = words.iter().map(String::as_str).collect();
        let doc = doc_from_words("fanout", &refs);
        let block = whole_block(&doc);
        assert_index_equals_naive(&patterns, &doc, &block);
        if seed % 8 == 0 {
            let pipeline = Vs2Pipeline::with_patterns(patterns, Vs2Config::default());
            assert_entry_points_agree(&pipeline, &doc, &[block]);
        }
    }
}

/// A phrase-plus-window inventory keeps annotated block texts: its window
/// entity fires (it needs NER) and every entry point equals the naive
/// reference.
#[test]
fn mixed_inventory_still_annotates() {
    let mut rng = Mix(7);
    let (mut patterns, _) = high_fanout_inventory(&mut rng);
    patterns.insert(
        "organizer".to_string(),
        vec![SyntacticPattern::Window {
            kind: None,
            required: vec![vs2_core::select::Feature::from_label("NER:person").unwrap()],
        }],
    );
    let pipeline = Vs2Pipeline::with_patterns(patterns, Vs2Config::default());
    assert!(pipeline.model().index().window_count() > 0);
    let doc = doc_from_words(
        "mixed",
        &["Hosted", "by", "James", "Wilson", "abcb", "c", "b", "ca"],
    );
    let block = whole_block(&doc);
    let ctx = DocContext::build(&doc);
    let blocks = [block];
    assert!(
        pipeline.candidates_on_blocks_ctx(&ctx, &blocks)["organizer"][0]
            .text
            .contains("James"),
        "the window pattern must see NER annotation"
    );
    assert_entry_points_agree(&pipeline, &doc, &blocks);
}

/// The all-descriptor D1 model (no window patterns, so token-only block
/// texts): context and naive candidates agree in all three modes.
#[test]
fn d1_phrase_only_entry_points_agree() {
    let (_, d1) = &pipelines()[2];
    assert_eq!(d1.model().index().window_count(), 0);
    assert!(d1.model().index().phrase_count() > 0);
    for i in 0..6 {
        let doc = generate_one(DatasetId::D1, i, DatasetConfig::new(1, DEFAULT_DOC_SEED)).doc;
        let blocks = logical_blocks(&doc, &d1.config.segment);
        assert_entry_points_agree(d1, &doc, &blocks);
    }
}

/// Every pipeline's sparse block hits equal the naive matcher on the
/// blocks of every synthetic dataset, through one scratch per pipeline
/// reused across all of them. The scratch's reset count is the number
/// of hits — one per entity a block touched — and for the 480-entity D1
/// model that is a small fraction of one reset per entity per block.
#[test]
fn sparse_hits_equal_naive_on_learned_models() {
    let docs: Vec<Document> = [DatasetId::D1, DatasetId::D2, DatasetId::D3, DatasetId::D4]
        .into_iter()
        .flat_map(|dataset| {
            (0..2)
                .map(move |i| generate_one(dataset, i, DatasetConfig::new(1, DEFAULT_DOC_SEED)).doc)
        })
        .collect();
    for (name, pipeline) in pipelines() {
        let index = pipeline.model().index();
        let mut scratch = index.scratch();
        let (mut blocks_seen, mut hits) = (0u64, 0u64);
        for doc in &docs {
            for block in logical_blocks(doc, &pipeline.config.segment) {
                let bt = BlockText::build(doc, &block);
                assert_hits_equal_naive(index, pipeline.patterns(), &bt, &mut scratch);
                blocks_seen += 1;
                hits += index.block_hits(&bt, &mut scratch).len() as u64;
            }
        }
        // Each block was queried twice.
        assert_eq!(scratch.slots_reset(), 2 * hits, "{name}");
        if *name == "learned-D1" {
            let dense = blocks_seen * index.entity_count() as u64;
            assert_eq!(index.entity_count(), 480);
            assert!(hits > 0, "the D1 model matched nothing");
            assert!(
                hits * 50 < dense,
                "{name}: {hits} touched slots over {blocks_seen} blocks is not sparse \
                 against {dense} dense slots"
            );
        }
    }
}

/// The serving degrade fallback (XY-cut blocks through the context
/// extract path) gives D1 the same output as the annotated reference.
#[test]
fn d1_degrade_fallback_unchanged() {
    let (_, d1) = &pipelines()[2];
    for i in 0..6 {
        let doc = generate_one(DatasetId::D1, i, DatasetConfig::new(1, DEFAULT_DOC_SEED)).doc;
        let blocks = vs2_core::cheap_blocks(&doc, &vs2_core::TriageConfig::default().cheap);
        let ctx = DocContext::build(&doc);
        for mode in MODES {
            let mut p = d1.clone();
            p.config.disambiguation = mode;
            let fallback = render_extractions(&p.extract_on_blocks_ctx(&ctx, &blocks));
            assert_eq!(
                fallback,
                render_extractions(&p.extract_on_blocks_naive(&doc, &blocks)),
                "degrade fallback diverged ({mode:?}, doc {})",
                doc.id
            );
            assert!(
                fallback.len() > 2,
                "fallback extracted nothing from {}",
                doc.id
            );
        }
    }
}

// ---------------------------------------------------------------------
// Read-set battery: block texts built with only the windows and window
// checks the compiled index reads.
// ---------------------------------------------------------------------

fn learned(name: &str) -> &'static Vs2Pipeline {
    &pipelines().iter().find(|(n, _)| *n == name).unwrap().1
}

/// The learned D4 model reads only part of a block (noun-phrase windows,
/// TIMEX only next to a number and a date span), so its block texts skip
/// most windows and checks. On invoices it equals the fully annotated
/// reference over both VS2's blocks and the XY-cut partition that
/// `--triage` serves invoices on.
#[test]
fn learned_d4_entry_points_agree_on_both_partitions() {
    let d4 = learned("learned-D4");
    let read = d4.model().index().read_set();
    assert!(!read.is_empty(), "the D4 model has window patterns");
    assert_ne!(
        read,
        vs2_core::select::ReadSet::all(),
        "the D4 model reads a strict subset of the windows and checks"
    );
    for i in 0..6 {
        let doc = generate_one(DatasetId::D4, i, DatasetConfig::new(1, DEFAULT_DOC_SEED)).doc;
        let blocks = logical_blocks(&doc, &d4.config.segment);
        assert_entry_points_agree(d4, &doc, &blocks);
        let cheap = vs2_core::cheap_blocks(&doc, &vs2_core::TriageConfig::default().cheap);
        assert_entry_points_agree(d4, &doc, &cheap);
    }
}

/// An inventory whose TIMEX and geocode readers sit on `kind: None`
/// windows (the NER windows and the whole block), alone, together, next
/// to an NER requirement, and next to a noun-phrase geocode reader.
fn span_check_patterns() -> BTreeMap<String, Vec<SyntacticPattern>> {
    let f = |label: &str| vs2_core::select::Feature::from_label(label).unwrap();
    let window = |kind, labels: &[&str]| SyntacticPattern::Window {
        kind,
        required: labels.iter().map(|l| f(l)).collect(),
    };
    let np = Some(vs2_nlp::chunk::PhraseKind::Np);
    let mut m = BTreeMap::new();
    m.insert("when".to_string(), vec![window(None, &["TIMEX"])]);
    m.insert(
        "when_dated".to_string(),
        vec![window(None, &["NER:date", "TIMEX"])],
    );
    m.insert("where".to_string(), vec![window(None, &["GEO"])]);
    m.insert(
        "when_where".to_string(),
        vec![window(None, &["TIMEX", "GEO"])],
    );
    m.insert("where_np".to_string(), vec![window(np, &["CD", "GEO"])]);
    m
}

/// The `kind: None` branch of the read set: TIMEX and geocode checks on
/// NER and whole-block windows give the same candidates as validating
/// every window, on hand-built date/address blocks and on the event and
/// listing corpora.
#[test]
fn span_window_checks_agree_with_the_reference() {
    let pipeline = Vs2Pipeline::with_patterns(span_check_patterns(), Vs2Config::default());
    let read = pipeline.model().index().read_set();
    assert!(read.reads_spans());
    assert!(read.reads_phrase(vs2_nlp::chunk::PhraseKind::Np));
    assert!(!read.reads_phrase(vs2_nlp::chunk::PhraseKind::Vp));
    let cases: &[&[&str]] = &[
        &["Saturday", "April", "5,", "2025", "at", "7", "pm"],
        &["1458", "Maple", "Ave", "Columbus", "OH", "43210"],
        &[
            "Join", "us", "April", "5", "at", "1458", "Maple", "Ave", "Columbus", "OH",
        ],
        &["Invoice", "date", "03/14/2024", "due", "04/13/2024"],
        &["no", "dates", "or", "places", "here"],
        &[],
    ];
    let mut fired = std::collections::BTreeSet::new();
    let mut check = |doc: &Document, blocks: &[vs2_core::LogicalBlock]| {
        assert_entry_points_agree(&pipeline, doc, blocks);
        let ctx = DocContext::build(doc);
        fired.extend(pipeline.candidates_on_blocks_ctx(&ctx, blocks).into_keys());
    };
    for (i, words) in cases.iter().enumerate() {
        let doc = doc_from_words(&format!("span-{i}"), words);
        check(&doc, &[whole_block(&doc)]);
    }
    for dataset in [DatasetId::D2, DatasetId::D3, DatasetId::D4] {
        for i in 0..3 {
            let doc = generate_one(dataset, i, DatasetConfig::new(1, DEFAULT_DOC_SEED)).doc;
            check(&doc, &logical_blocks(&doc, &pipeline.config.segment));
        }
    }
    for entity in ["when", "when_dated", "where"] {
        assert!(fired.contains(entity), "{entity} never fired: {fired:?}");
    }
}
