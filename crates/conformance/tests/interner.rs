//! Interner proptest battery: the per-document [`TokenInterner`] /
//! [`DocView`] substrate of the zero-copy pipeline must be a faithful,
//! injective encoding of the owned tokenisation it replaces.
//!
//! Three contracts:
//!
//! * **injectivity** — interning assigns equal ids exactly to equal
//!   surface forms, and every id round-trips to the `(raw, norm)` pair
//!   it was interned from;
//! * **round-trip** — a [`DocContext`]'s token stream, decoded id by id,
//!   is token-for-token identical to `vs2_nlp::tokenize` run on each
//!   element's text;
//! * **feature-column identity** — `BlockText::build_in` (interned
//!   columns) produces byte-identical [`FeatureTable`] columns to
//!   `BlockText::build` (per-instance derivation);
//! * **Lesk-key identity** — a block's interned Lesk keys
//!   (`DocContext::lesk_key` over its token ids) scored with
//!   `Lesk::score_keys` equal `Lesk::score` over its content words.
//!
//! Plus the call-count pin for the double-tokenisation fix: a context
//! job tokenises each text element exactly once, and the interned block
//! builder adds zero tokenise calls on top.
//!
//! Case counts honour `VS2_PROPTEST_CASES`; failures print a
//! `VS2_PROPTEST_SEED` repro command (see the `proptest` shim docs).

use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeSet;
use vs2_conformance::strategy::arb_any_document;
use vs2_core::segment::{logical_blocks, logical_blocks_ctx};
use vs2_core::select::{BlockText, ReadSet};
use vs2_core::DocContext;
use vs2_docmodel::{BBox, Document, ElementRef, TextElement, TokenInterner};
use vs2_nlp::token::{tokenize, tokenize_call_count};
use vs2_nlp::wsd::{gloss_key, Lesk};
use vs2_serve::{default_config_for, ModelCache, DEFAULT_DOC_SEED};
use vs2_synth::{generate_one, DatasetConfig, DatasetId};

/// The deterministic "normal form" used for direct interner properties —
/// any pure function of the raw string works; the real tokeniser's
/// normalisation is covered by the round-trip properties below.
fn norm_of(raw: &str) -> String {
    raw.to_lowercase()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Equal raws get equal ids, distinct raws distinct ids, and every
    /// id round-trips through `raw` / `norm` / `get`.
    #[test]
    fn interner_is_injective_and_round_trips(
        words in vec("[ -~]{0,12}", 0..80),
    ) {
        let mut interner = TokenInterner::new();
        let ids: Vec<_> = words
            .iter()
            .map(|w| interner.intern(w, &norm_of(w)))
            .collect();
        for (i, a) in ids.iter().enumerate() {
            for (j, b) in ids.iter().enumerate() {
                prop_assert_eq!(
                    a == b,
                    words[i] == words[j],
                    "id equality must mirror raw equality: {:?} vs {:?}",
                    &words[i], &words[j],
                );
            }
        }
        for (w, id) in words.iter().zip(&ids) {
            prop_assert_eq!(interner.raw(*id), w.as_str());
            prop_assert_eq!(interner.norm(*id), norm_of(w).as_str());
            prop_assert_eq!(interner.get(w), Some(*id));
        }
        // Ids are dense, the table iterates in id order, and the distinct
        // count matches a by-hand dedup.
        let mut distinct: Vec<&str> = words.iter().map(|w| w.as_str()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(interner.len(), distinct.len());
        for (k, (id, raw, norm)) in interner.iter().enumerate() {
            prop_assert_eq!(id.index(), k);
            prop_assert_eq!(norm, norm_of(raw).as_str());
        }
    }

    /// A [`DocContext`]'s decoded token stream equals the owned
    /// tokenisation, element for element, raw and norm both.
    #[test]
    fn context_round_trips_owned_tokenisation(doc in arb_any_document()) {
        let ctx = DocContext::build(&doc);
        for (i, t) in doc.texts.iter().enumerate() {
            let owned = tokenize(&t.text);
            let ids = ctx.view.tokens_of_text(i);
            prop_assert_eq!(owned.len(), ids.len(), "token count, element {}", i);
            for (o, id) in owned.iter().zip(ids) {
                let v = ctx.token(*id);
                prop_assert_eq!(&*o.raw, ctx.view.interner.raw(*id));
                prop_assert_eq!(&*o.raw, &*v.raw);
                prop_assert_eq!(&*o.norm, ctx.view.interner.norm(*id));
                prop_assert_eq!(&*o.norm, &*v.norm);
            }
        }
    }

    /// Interned Lesk keys score exactly like `Lesk::score` over content
    /// words, for words drawn from arbitrary printable text, mixed-case
    /// ASCII and the edge pool (Unicode case, stopwords, numbers).
    #[test]
    fn lesk_keys_score_like_content_words(
        words in vec(
            prop_oneof![
                "\\PC{1,8}",
                "[a-zA-Z]{1,9}",
                (0usize..EDGE_WORDS.len()).prop_map(|i| EDGE_WORDS[i].to_string()),
            ],
            0..24,
        ),
    ) {
        assert_lesk_keys_match(&words);
    }

    /// Interned and owned block builders agree on every feature column
    /// over arbitrary documents.
    #[test]
    fn feature_tables_identical_on_arbitrary_documents(doc in arb_any_document()) {
        let cfg = vs2_core::segment::SegmentConfig::default();
        let blocks = logical_blocks(&doc, &cfg);
        let ctx = DocContext::build(&doc);
        for block in &blocks {
            assert_tables_identical(&doc, &ctx, block);
        }
    }
}

/// The column-for-column witness: owned (`build`) and interned
/// (`build_in`) block texts must agree on the annotation and on every
/// [`vs2_core::select::FeatureTable`] column. The interned path
/// additionally carries the `ids` column (empty on the owned path), so
/// the comparison strips it rather than papering over the rest.
fn assert_tables_identical(
    doc: &Document,
    ctx: &DocContext<'_>,
    block: &vs2_core::segment::LogicalBlock,
) {
    let owned = BlockText::build(doc, block);
    let interned = BlockText::build_in(ctx, block);
    assert_eq!(owned.bbox, interned.bbox);
    assert_eq!(owned.elem_of, interned.elem_of);
    // Annotation: tokens, POS, phrases, NER — Debug covers every field.
    assert_eq!(
        format!("{:?}", owned.ann),
        format!("{:?}", interned.ann),
        "annotation diverged",
    );
    // The ids column is the only permitted difference.
    assert!(owned.features.ids.is_empty());
    assert_eq!(interned.features.ids.len(), interned.ann.tokens.len());
    let mut stripped = interned.features.clone();
    stripped.ids = Vec::new();
    assert_eq!(
        format!("{:?}", owned.features),
        format!("{stripped:?}"),
        "feature columns diverged",
    );
}

/// Words whose Lesk keys differ from the context's other columns:
/// mixed-case Unicode (lower-cased by the tokeniser, some non-idempotently
/// by `to_lowercase`), stopwords in any case, and numbers — `1,000`,
/// `inf`, `nan` and `infinity` parse as numeric, so the stem column
/// leaves them empty, while `Lesk` still stems `infinity`.
const EDGE_WORDS: &[&str] = &[
    "İstanbul",
    "ẞtraße",
    "ΣΊΣΥΦΟΣ",
    "Ǆungla",
    "The",
    "AND",
    "of",
    "1,000",
    "2,465.50",
    "inf",
    "NaN",
    "nan",
    "infinity",
    "INFINITY",
    "Infinity,",
    "hosted",
    "Hosting",
    "concerts",
    "7pm",
    "-",
    "(",
    "e-mail",
];

/// One block over `words` (one element each): its interned Lesk keys
/// equal the gloss keys of its content words, and score like them under
/// every sense of a small inventory — before and after the per-thread
/// form cache holds the words.
fn assert_lesk_keys_match(words: &[String]) {
    let mut doc = Document::new("lesk", 60.0 * words.len().max(1) as f64, 40.0);
    let elements: Vec<ElementRef> = words
        .iter()
        .enumerate()
        .map(|(i, w)| {
            doc.push_text(TextElement::word(
                w.as_str(),
                BBox::new(60.0 * i as f64, 10.0, 50.0, 10.0),
            ))
        })
        .collect();
    let block = vs2_core::LogicalBlock {
        bbox: BBox::new(0.0, 0.0, doc.width, doc.height),
        elements,
    };
    let mut lesk = Lesk::new();
    lesk.add_gloss("own", words.iter().step_by(2).map(String::as_str));
    lesk.add_gloss("edge", EDGE_WORDS.iter().copied());
    lesk.add_gloss("stopwords", ["the", "and", "of"]);
    for _ in 0..2 {
        let ctx = DocContext::build(&doc);
        let bt = BlockText::build_in_with(&ctx, &block, &ReadSet::default());
        assert_eq!(bt.features.ids.len(), bt.len(), "token-only texts keep ids");
        let mut keys: Vec<&str> = bt
            .features
            .ids
            .iter()
            .filter_map(|id| ctx.lesk_key(*id))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let content = bt.ann.content_words();
        let want: BTreeSet<String> = content.iter().filter_map(|w| gloss_key(w)).collect();
        let got: BTreeSet<String> = keys.iter().map(|k| k.to_string()).collect();
        assert_eq!(got, want, "keys of {words:?}");
        for sense in ["own", "edge", "stopwords", "missing"] {
            assert_eq!(
                lesk.score_keys(sense, &keys).to_bits(),
                lesk.score(sense, content.iter().copied()).to_bits(),
                "sense {sense} over {words:?}"
            );
        }
    }
}

#[test]
fn lesk_keys_score_like_content_words_on_edge_words() {
    let words: Vec<String> = EDGE_WORDS.iter().map(|w| w.to_string()).collect();
    assert_lesk_keys_match(&words);
    for w in &words {
        assert_lesk_keys_match(std::slice::from_ref(w));
    }
}

/// The synthetic corpora, run through the same column-identity witness —
/// real dataset vocabulary (dates, prices, names, addresses) instead of
/// proptest's random ASCII.
#[test]
fn feature_tables_identical_on_synthetic_corpora() {
    for dataset in [DatasetId::D1, DatasetId::D2, DatasetId::D3] {
        let cfg = default_config_for(dataset).segment;
        for i in 0..3 {
            let doc = generate_one(dataset, i, DatasetConfig::new(1, DEFAULT_DOC_SEED)).doc;
            let blocks = logical_blocks(&doc, &cfg);
            let ctx = DocContext::build(&doc);
            for block in &blocks {
                assert_tables_identical(&doc, &ctx, block);
            }
        }
    }
}

/// The double-tokenisation pin: one context job tokenises each text
/// element exactly once — inside `DocContext::build` — and nothing
/// downstream (segmentation, block texts, candidates, extraction)
/// tokenises again. The owned path's `BlockText::build` re-tokenises
/// per block, which is exactly the cost the context path deletes.
#[test]
fn context_path_tokenises_each_element_exactly_once() {
    let cache = ModelCache::new();
    let pipeline = cache.pipeline_for(
        DatasetId::D1,
        DEFAULT_DOC_SEED,
        default_config_for(DatasetId::D1),
    );
    let doc = generate_one(DatasetId::D1, 0, DatasetConfig::new(1, DEFAULT_DOC_SEED)).doc;
    assert!(!doc.texts.is_empty());

    let before = tokenize_call_count();
    let ctx = DocContext::build(&doc);
    let after_build = tokenize_call_count();
    assert_eq!(
        after_build - before,
        doc.texts.len() as u64,
        "DocContext::build must tokenise each text element exactly once"
    );

    let blocks = logical_blocks_ctx(&ctx, &pipeline.config.segment);
    let texts = pipeline.block_texts_ctx(&ctx, &blocks);
    let _ = std::hint::black_box(pipeline.extract_on_blocks_ctx(&ctx, &blocks));
    assert_eq!(
        tokenize_call_count(),
        after_build,
        "the context pipeline must never re-tokenise after the context is built"
    );

    // The owned builder pays at least one tokenise call per non-empty
    // block — the regression this pin exists to catch.
    let owned_before = tokenize_call_count();
    let owned_texts: Vec<BlockText> = blocks.iter().map(|b| BlockText::build(&doc, b)).collect();
    let owned_calls = tokenize_call_count() - owned_before;
    let nonempty = texts.iter().filter(|t| !t.is_empty()).count() as u64;
    assert!(
        owned_calls >= nonempty,
        "expected the owned path to re-tokenise per block ({owned_calls} calls, {nonempty} non-empty blocks)"
    );
    assert_eq!(owned_texts.len(), texts.len());
}
