//! Per-job document context for the zero-copy pipeline.
//!
//! [`DocContext`] is built exactly once per job from a borrowed
//! [`Document`]. It owns everything that used to be re-derived at every
//! stage boundary:
//!
//! * the [`DocView`] — every text element tokenised once, tokens
//!   interned into one per-document bump region
//!   (`vs2_docmodel::arena`);
//! * a canonical [`Token`] per distinct [`TokenId`] (shared `Arc<str>`
//!   forms: block texts clone tokens by bumping refcounts);
//! * per-distinct-token derived columns — stem, noun hypernym-sense
//!   mask, verb-sense mask, Lesk gloss key — computed once instead of
//!   once per token instance per block;
//! * the embedding of each text element, built on first use and read by
//!   both segmentation's semantic merge and selection's interest points
//!   ([`CtxEmbedder`]), so each element is embedded once per job.
//!
//! Two per-thread memos carry derived forms and word embeddings across
//! jobs. A word enters either memo only on a document after the one it
//! was first seen in: scanned input is mostly one-off tokens (amounts,
//! ids, misreads), and memoising those would grow the memos without a
//! single hit. A one-off word is derived and dropped.
//!
//! Every derived value is a pure function of the token string, so the
//! context path is observationally identical to the owned reference that
//! recomputes them per instance — which `tests/arena_equiv.rs` and the
//! interner proptest battery in `vs2-conformance` pin.

use std::borrow::Cow;
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use vs2_docmodel::{DocView, Document, TextElement, TokenId};
use vs2_nlp::embedding::{Embedder, LexiconEmbedding, Vector};
use vs2_nlp::hypernym::{self, Sense};
use vs2_nlp::stem::stem;
use vs2_nlp::stopwords::is_stopword;
use vs2_nlp::token::{tokenize_each, Token};
use vs2_nlp::verbs;
use vs2_nlp::wsd::gloss_key;

/// The shared empty-string `Arc` used for the "no stem" sentinel, so
/// ineligible tokens never pay an allocation.
pub(crate) fn empty_arc() -> Arc<str> {
    static EMPTY: OnceLock<Arc<str>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::from("")).clone()
}

/// Per-thread cache of the derived forms of one distinct token, keyed by
/// its raw text. Templated traffic re-uses a dataset's vocabulary
/// heavily, so after the first few documents a context build for repeat
/// vocabulary is pure `Arc` refcount bumps. Every cached value is a pure
/// function of the raw text (`norm` is the deterministic normalisation
/// the tokeniser produces), so a hit is observationally identical to
/// recomputation. Only recurring words are admitted ([`admit`]); the cap
/// bounds memory on adversarial vocabularies, and past it misses
/// recompute without inserting.
struct CachedForms {
    raw: Arc<str>,
    norm: Arc<str>,
    stem: Arc<str>,
    sense: u16,
    vsense: u8,
    /// Where the Lesk key lives; a tag, not a string, so the entry stays
    /// the size it was (the byte sits in padding).
    key: KeyForm,
}

/// Which cached form a token's Lesk gloss key equals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeyForm {
    /// Not a content word, or its lower-cased form is a stopword.
    None,
    /// The stem column (every eligible, already lower-case word).
    Stem,
    /// The normal form (numbers the stemmer leaves alone).
    Norm,
    /// Neither: recompute (numbers the stemmer changes, like `infinity`,
    /// and norms whose lower-casing is not idempotent).
    Recompute,
}

/// The Lesk gloss key of a token with normal form `norm`, exactly as
/// `Lesk::score` derives it from `Annotated::content_words`: content
/// words (non-empty, not a stopword) map through [`gloss_key`].
fn lesk_key_of(norm: &str) -> Option<String> {
    if norm.is_empty() || is_stopword(norm) {
        None
    } else {
        gloss_key(norm)
    }
}

const FORM_CACHE_CAP: usize = 1 << 16;

thread_local! {
    static FORM_CACHE: RefCell<HashMap<Box<str>, CachedForms>> =
        RefCell::new(HashMap::new());
}

// Per-thread word-embedding memo (same rationale, admission rule and cap
// as the form cache; `embed` is a pure function of the word, so hits are
// bit-exact).
thread_local! {
    static EMBED_CACHE: RefCell<HashMap<Box<str>, Vector>> = RefCell::new(HashMap::new());
}

/// Slots of the per-thread doorkeeper ([`admit`]), in sets of
/// [`DOORKEEPER_WAYS`].
const DOORKEEPER_SLOTS: usize = 1 << 12;
const DOORKEEPER_WAYS: usize = 4;

/// One doorkeeper slot: a word's fingerprint and the serial of the
/// earliest document it was seen in. Serial 0 marks an empty slot.
#[derive(Debug, Clone, Copy, Default)]
struct Sighting {
    fingerprint: u64,
    serial: u64,
}

thread_local! {
    /// Serial of the last [`DocContext`] built on this thread.
    static DOC_SERIAL: Cell<u64> = const { Cell::new(0) };
    /// Set-associative sightings of words the memos missed, allocated on
    /// first use.
    static DOORKEEPER: RefCell<Vec<Sighting>> = const { RefCell::new(Vec::new()) };
}

/// Whether a memo that missed `word` while serving document `serial`
/// should insert it: only when this thread already saw the word in an
/// earlier document. A first sighting is recorded, displacing the oldest
/// sighting of its set, and refused, so a word that occurs in one
/// document never enters a memo. A displaced word is refused once more;
/// two words with one fingerprint may admit each other early. Neither
/// changes a value the memos return, only what they keep.
fn admit(word: &str, serial: u64) -> bool {
    // FNV-1a: a fingerprint, not a map key, so speed beats spread.
    let fingerprint = word.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    });
    DOORKEEPER.with(|slots| {
        let mut slots = slots.borrow_mut();
        if slots.is_empty() {
            slots.resize(DOORKEEPER_SLOTS, Sighting::default());
        }
        let sets = DOORKEEPER_SLOTS / DOORKEEPER_WAYS;
        let set = (fingerprint ^ fingerprint >> 32) as usize % sets * DOORKEEPER_WAYS;
        let set = &mut slots[set..set + DOORKEEPER_WAYS];
        if let Some(seen) = set
            .iter_mut()
            .find(|s| s.serial != 0 && s.fingerprint == fingerprint)
        {
            if seen.serial < serial {
                return true;
            }
            // Seen in this document, or through an older context's
            // embedder: keep the earliest sighting.
            seen.serial = serial;
            return false;
        }
        let oldest = set.iter_mut().min_by_key(|s| s.serial).expect("ways > 0");
        *oldest = Sighting {
            fingerprint,
            serial,
        };
        false
    })
}

/// Borrowed, fully tokenised view of one document plus every
/// per-distinct-token derivation the pipeline consumes. Built once per
/// job; all stages take `&DocContext`.
pub struct DocContext<'d> {
    /// The interned token view (owns the bump region).
    pub view: DocView<'d>,
    /// Canonical token per [`TokenId`] (index = id).
    tokens: Vec<Token>,
    /// Per-id stem column: the stem when the token is stem-eligible
    /// (non-empty norm, not a stopword, not numeric), else `""`.
    stems: Vec<Arc<str>>,
    /// Per-id noun hypernym-sense mask (`Entity` omitted, mirroring
    /// `FeatureTable::build`).
    sense: Vec<u16>,
    /// Per-id verb-sense mask.
    vsense: Vec<u8>,
    /// Per-id Lesk gloss key (`None` for words `Lesk` ignores).
    keys: Vec<Option<Arc<str>>>,
    /// This build's serial on its thread: what the memos admit by.
    serial: u64,
    /// `embed` of each text element, in text order, built on first use.
    column: OnceCell<Vec<Vector>>,
}

impl<'d> DocContext<'d> {
    /// Tokenises and interns every text element of `doc` and derives the
    /// per-distinct-token columns.
    pub fn build(doc: &'d Document) -> Self {
        let mut scratch = String::new();
        let view = DocView::build(doc, |text, sink| {
            tokenize_each(text, &mut scratch, |raw, norm| sink(raw, norm));
        });
        let n = view.distinct_tokens();
        let mut tokens = Vec::with_capacity(n);
        let mut stems = Vec::with_capacity(n);
        let mut sense = Vec::with_capacity(n);
        let mut vsense = Vec::with_capacity(n);
        let mut keys = Vec::with_capacity(n);
        let empty = empty_arc();
        let serial = DOC_SERIAL.with(|s| {
            s.set(s.get() + 1);
            s.get()
        });
        FORM_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            for (_, raw, norm) in view.interner.iter() {
                if let Some(f) = cache.get(raw) {
                    debug_assert_eq!(&*f.norm, norm, "norm must be pure in raw");
                    tokens.push(Token::from_parts(f.raw.clone(), f.norm.clone()));
                    stems.push(f.stem.clone());
                    sense.push(f.sense);
                    vsense.push(f.vsense);
                    keys.push(match f.key {
                        KeyForm::None => None,
                        KeyForm::Stem => Some(f.stem.clone()),
                        KeyForm::Norm => Some(f.norm.clone()),
                        KeyForm::Recompute => lesk_key_of(norm).map(Arc::from),
                    });
                    continue;
                }
                // Already-normalised words (the common case) share one Arc
                // for both forms; ditto stems that the stemmer leaves alone.
                let raw_arc: Arc<str> = Arc::from(raw);
                let norm_arc: Arc<str> = if norm == raw {
                    Arc::clone(&raw_arc)
                } else {
                    Arc::from(norm)
                };
                let tok = Token::from_parts(raw_arc, norm_arc);
                let norm: &str = &tok.norm;
                let eligible = !norm.is_empty() && !is_stopword(norm) && !tok.is_numeric();
                // One lowering and one stem per miss, fed to both sense
                // lookups and the Lesk key. Tokeniser norms are lower-case
                // ASCII as a rule, so the lowering borrows; only the stem
                // column of a norm that lowering changes needs its own stem.
                let lw: Cow<str> =
                    if norm.is_ascii() && !norm.bytes().any(|b| b.is_ascii_uppercase()) {
                        Cow::Borrowed(norm)
                    } else {
                        Cow::Owned(norm.to_lowercase())
                    };
                let st = stem(&lw);
                let stem_arc = if eligible {
                    let own;
                    let s: &str = if *lw == *norm {
                        &st
                    } else {
                        own = stem(norm);
                        &own
                    };
                    if s == norm {
                        Arc::clone(&tok.norm)
                    } else {
                        Arc::from(s)
                    }
                } else {
                    empty.clone()
                };
                let s = hypernym::sense_of_lower(&lw, &st);
                let vsenses = verbs::senses_of_lower(&lw, &st);
                let lesk_key = (!norm.is_empty() && !is_stopword(norm) && !is_stopword(&lw))
                    .then_some(st.as_str());
                let smask = if s != Sense::Entity {
                    1 << crate::select::pattern::sense_code(s)
                } else {
                    0
                };
                let mut vmask = 0u8;
                for v in vsenses {
                    vmask |= 1 << crate::select::pattern::vsense_code(v);
                }
                let (key_form, key) = match lesk_key {
                    None => (KeyForm::None, None),
                    Some(k) if k == &*stem_arc => (KeyForm::Stem, Some(stem_arc.clone())),
                    Some(k) if k == norm => (KeyForm::Norm, Some(tok.norm.clone())),
                    Some(k) => (KeyForm::Recompute, Some(Arc::from(k))),
                };
                if cache.len() < FORM_CACHE_CAP && admit(raw, serial) {
                    cache.insert(
                        raw.into(),
                        CachedForms {
                            raw: tok.raw.clone(),
                            norm: tok.norm.clone(),
                            stem: stem_arc.clone(),
                            sense: smask,
                            vsense: vmask,
                            key: key_form,
                        },
                    );
                }
                keys.push(key);
                stems.push(stem_arc);
                sense.push(smask);
                vsense.push(vmask);
                tokens.push(tok);
            }
        });
        Self {
            view,
            tokens,
            stems,
            sense,
            vsense,
            keys,
            serial,
            column: OnceCell::new(),
        }
    }

    /// The underlying document.
    pub fn doc(&self) -> &'d Document {
        self.view.doc
    }

    /// Canonical token for `id` (clone it to share the `Arc<str>`s).
    pub fn token(&self, id: TokenId) -> &Token {
        &self.tokens[id.index()]
    }

    /// Stem column entry for `id` (`""` when the token contributes no
    /// stem feature).
    pub fn stem_of(&self, id: TokenId) -> &Arc<str> {
        &self.stems[id.index()]
    }

    /// Noun hypernym-sense mask for `id`.
    pub fn sense_mask(&self, id: TokenId) -> u16 {
        self.sense[id.index()]
    }

    /// Verb-sense mask for `id`.
    pub fn vsense_mask(&self, id: TokenId) -> u8 {
        self.vsense[id.index()]
    }

    /// Lesk gloss key for `id`: what `Lesk::score` reduces this token to
    /// when it is a content word of a block, `None` when it drops it.
    pub fn lesk_key(&self, id: TokenId) -> Option<&str> {
        self.keys[id.index()].as_deref()
    }

    /// A memoising embedder over the per-thread embedding cache and this
    /// context's element column. Deterministically identical to
    /// [`LexiconEmbedding`] (`embed` is pure). A word that recurs across
    /// this thread's documents is embedded once while it stays memoised;
    /// a one-off word once per `embed` call, and each text element once
    /// per job.
    pub fn embedder(&self) -> CtxEmbedder<'_> {
        CtxEmbedder {
            serial: self.serial,
            texts: &self.view.doc.texts,
            column: &self.column,
        }
    }
}

impl std::fmt::Debug for DocContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DocContext")
            .field("doc", &self.view.doc.id)
            .field("distinct_tokens", &self.tokens.len())
            .field("token_instances", &self.view.token_instances())
            .finish()
    }
}

/// [`Embedder`] that memoises [`LexiconEmbedding`] in the per-thread
/// embedding cache and answers [`Embedder::embed_column`] over its
/// context's text elements from the context's column. `embed` is a pure
/// function of the word, so memoisation is bit-exact.
pub struct CtxEmbedder<'c> {
    serial: u64,
    texts: &'c [TextElement],
    column: &'c OnceCell<Vec<Vector>>,
}

impl Embedder for CtxEmbedder<'_> {
    fn embed(&self, word: &str) -> Vector {
        EMBED_CACHE.with(|cache| {
            if let Some(v) = cache.borrow().get(word) {
                return *v;
            }
            let v = LexiconEmbedding.embed(word);
            let mut cache = cache.borrow_mut();
            if cache.len() < FORM_CACHE_CAP && admit(word, self.serial) {
                cache.insert(word.into(), v);
            }
            v
        })
    }

    /// The context's column when `texts` are its document's texts — by
    /// value, so the deskew branch's rotated copy shares it too — else a
    /// column computed for this call.
    fn embed_column<T: AsRef<str>>(&self, texts: &[T]) -> Cow<'_, [Vector]> {
        let own = texts.len() == self.texts.len()
            && texts
                .iter()
                .zip(self.texts)
                .all(|(t, o)| t.as_ref() == o.text);
        if !own {
            return Cow::Owned(texts.iter().map(|t| self.embed(t.as_ref())).collect());
        }
        Cow::Borrowed(self.column.get_or_init(|| {
            #[cfg(test)]
            tests::ELEMENT_EMBEDS.with(|c| c.set(c.get() + self.texts.len() as u64));
            self.texts.iter().map(|t| self.embed(&t.text)).collect()
        }))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::HashSet;
    use vs2_docmodel::BBox;
    use vs2_nlp::token::tokenize;

    thread_local! {
        /// Text elements embedded into context columns on this thread.
        pub(crate) static ELEMENT_EMBEDS: Cell<u64> = const { Cell::new(0) };
    }

    fn form_cache_len() -> usize {
        FORM_CACHE.with(|c| c.borrow().len())
    }

    fn embed_cache_len() -> usize {
        EMBED_CACHE.with(|c| c.borrow().len())
    }

    fn memoised(word: &str) -> (bool, bool) {
        (
            FORM_CACHE.with(|c| c.borrow().contains_key(word)),
            EMBED_CACHE.with(|c| c.borrow().contains_key(word)),
        )
    }

    fn doc_with(texts: &[&str]) -> Document {
        let mut doc = Document::new("ctx", 200.0, 100.0);
        for (i, t) in texts.iter().enumerate() {
            doc.push_text(TextElement::word(
                *t,
                BBox::new(5.0, i as f64 * 12.0, 80.0, 9.0),
            ));
        }
        doc
    }

    #[test]
    fn context_tokens_match_owned_tokenize() {
        let doc = doc_with(&["Jazz Concert, tonight!", "Hosted by James Wilson.", ""]);
        let ctx = DocContext::build(&doc);
        for (i, t) in doc.texts.iter().enumerate() {
            let owned = tokenize(&t.text);
            let viewed: Vec<&Token> = ctx
                .view
                .tokens_of_text(i)
                .iter()
                .map(|id| ctx.token(*id))
                .collect();
            assert_eq!(owned.len(), viewed.len());
            for (o, v) in owned.iter().zip(viewed) {
                assert_eq!(o, v, "token divergence in element {i}");
            }
        }
    }

    #[test]
    fn stems_match_per_instance_derivation() {
        let doc = doc_with(&["hosted hosting the 2,465 hosted"]);
        let ctx = DocContext::build(&doc);
        for id in ctx.view.tokens_of_text(0) {
            let tok = ctx.token(*id);
            let want = if !tok.norm.is_empty() && !is_stopword(&tok.norm) && !tok.is_numeric() {
                stem(&tok.norm)
            } else {
                String::new()
            };
            assert_eq!(&**ctx.stem_of(*id), want.as_str());
        }
    }

    #[test]
    fn lesk_keys_match_gloss_keys_cold_and_warm() {
        let words = ["Hosted hosting THE 1,000 inf NaN infinity İstanbul ẞtraße and"];
        let doc = doc_with(&words);
        // The first build misses the form cache, the second misses and
        // admits, the third hits it.
        for _ in 0..3 {
            let ctx = DocContext::build(&doc);
            for id in ctx.view.tokens_of_text(0) {
                let norm = &*ctx.token(*id).norm;
                assert_eq!(ctx.lesk_key(*id), lesk_key_of(norm).as_deref(), "{norm}");
            }
        }
        // The key tag sits in the entry's padding: three `Arc<str>`s and
        // at most one word of small fields.
        assert!(
            std::mem::size_of::<CachedForms>()
                <= 3 * std::mem::size_of::<Arc<str>>() + std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn sense_masks_match_per_instance_derivation_cold_and_warm() {
        let doc = doc_with(&[
            "Hosted brokers hosting acres Concerts leasing organised İstanbul ẞtraße 2,465 the",
        ]);
        // Cold, admitting, hit.
        for _ in 0..3 {
            let ctx = DocContext::build(&doc);
            for id in ctx.view.tokens_of_text(0) {
                let norm = &*ctx.token(*id).norm;
                let s = hypernym::sense_of(norm);
                let want = if s != Sense::Entity {
                    1 << crate::select::pattern::sense_code(s)
                } else {
                    0
                };
                assert_eq!(ctx.sense_mask(*id), want, "{norm}");
                let vwant = verbs::senses_of(norm)
                    .into_iter()
                    .fold(0u8, |m, v| m | 1 << crate::select::pattern::vsense_code(v));
                assert_eq!(ctx.vsense_mask(*id), vwant, "{norm}");
            }
        }
    }

    #[test]
    fn memoised_embedder_is_bit_exact() {
        let ctx_doc = doc_with(&["concert gala concert"]);
        let words = ["concert", "gala", "Σίσυφος", "2,465"];
        // Cold, admitting, hit: one context per pass, as one per job.
        for _ in 0..3 {
            let ctx = DocContext::build(&ctx_doc);
            let e = ctx.embedder();
            for w in words {
                assert_eq!(e.embed(w), LexiconEmbedding.embed(w), "embed({w})");
                assert_eq!(e.embed(w), LexiconEmbedding.embed(w));
            }
        }
        assert!(words.iter().all(|w| memoised(w).1));
    }

    #[test]
    fn context_column_is_embed_of_each_element_once_per_job() {
        let doc = doc_with(&["Concert tonight", "2,465", "", "acres"]);
        let ctx = DocContext::build(&doc);
        let e = ctx.embedder();
        ELEMENT_EMBEDS.with(|c| c.set(0));
        let want: Vec<Vector> = doc
            .texts
            .iter()
            .map(|t| LexiconEmbedding.embed(&t.text))
            .collect();
        assert_eq!(&*e.embed_column(&doc.texts), &want[..]);
        // A copy with the same texts (the deskew branch's rotated
        // document) reads the same column.
        let copy = doc.clone();
        assert!(matches!(e.embed_column(&copy.texts), Cow::Borrowed(_)));
        assert_eq!(ELEMENT_EMBEDS.with(Cell::get), doc.texts.len() as u64);
        // Other texts get a column of their own.
        let other = ["acres", "gala"];
        let column = e.embed_column(&other);
        assert!(matches!(column, Cow::Owned(_)));
        assert_eq!(column[1], LexiconEmbedding.embed("gala"));
        assert_eq!(ELEMENT_EMBEDS.with(Cell::get), doc.texts.len() as u64);
    }

    #[test]
    fn memos_admit_a_word_on_its_second_document() {
        let once = doc_with(&["qzxonce 918273645"]);
        let twice = doc_with(&["qzxtwice"]);
        let filler = doc_with(&["unrelated"]);
        // Seen in one document, even many times in it: never memoised.
        let ctx = DocContext::build(&once);
        for _ in 0..3 {
            ctx.embedder().embed("qzxonce");
        }
        ctx.embedder().embed_column(&once.texts);
        for w in ["qzxonce", "918273645", "qzxonce 918273645"] {
            assert_eq!(memoised(w), (false, false), "{w}");
        }
        // Seen again in a later document: both memos take it.
        let first = DocContext::build(&twice);
        first.embedder().embed("qzxtwice");
        assert_eq!(memoised("qzxtwice"), (false, false));
        drop(first);
        let _ = DocContext::build(&filler);
        let second = DocContext::build(&twice);
        assert_eq!(memoised("qzxtwice"), (true, false));
        second.embedder().embed("qzxtwice");
        assert_eq!(memoised("qzxtwice"), (true, true));
        for w in ["qzxonce", "918273645"] {
            assert_eq!(memoised(w), (false, false), "{w}");
        }
    }

    #[test]
    fn memos_hold_only_words_of_two_or_more_documents() {
        use crate::pipeline::{Vs2Config, Vs2Pipeline};
        use vs2_synth::{generate, holdout_corpus, DatasetConfig, DatasetId};
        let corpus = holdout_corpus(DatasetId::D1, 99);
        let pipeline = Vs2Pipeline::learn(
            corpus
                .entries
                .iter()
                .map(|e| (e.entity.as_str(), e.text.as_str(), e.context.as_str())),
            Vs2Config::default(),
        );
        let docs = generate(DatasetId::D1, DatasetConfig::new(24, 7));
        // Every string a job can hand either memo: element texts, their
        // whitespace pieces, and token surface and normal forms.
        let mut documents_of: HashMap<String, usize> = HashMap::new();
        for ad in &docs {
            let mut words: HashSet<String> = HashSet::new();
            for t in &ad.doc.texts {
                words.insert(t.text.clone());
                words.extend(t.text.split_whitespace().map(String::from));
                for tok in tokenize(&t.text) {
                    words.insert(tok.raw.to_string());
                    words.insert(tok.norm.to_string());
                }
            }
            for w in words {
                *documents_of.entry(w).or_default() += 1;
            }
            std::hint::black_box(pipeline.extract_ctx(&ad.doc));
        }
        let recurring = documents_of.values().filter(|&&n| n >= 2).count();
        let (forms, embeds) = (form_cache_len(), embed_cache_len());
        assert!(forms > 0 && embeds > 0, "recurring words are memoised");
        assert!(
            forms <= recurring,
            "form memo {forms} > {recurring} recurring words"
        );
        assert!(
            embeds <= recurring,
            "embedding memo {embeds} > {recurring} recurring words"
        );
        // Memoised words really recur: no one-document word is kept.
        FORM_CACHE.with(|c| {
            for w in c.borrow().keys() {
                assert!(documents_of.get(&**w).is_some_and(|&n| n >= 2), "{w}");
            }
        });
        EMBED_CACHE.with(|c| {
            for w in c.borrow().keys() {
                assert!(documents_of.get(&**w).is_some_and(|&n| n >= 2), "{w}");
            }
        });
    }
}
