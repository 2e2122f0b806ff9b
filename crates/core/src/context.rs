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
//! * a memoising [`CtxEmbedder`] so segmentation's semantic merge and
//!   selection's interest points embed each distinct word once per job.
//!
//! Every derived value is a pure function of the token string, so the
//! context path is observationally identical to the owned reference that
//! recomputes them per instance — which `tests/arena_equiv.rs` and the
//! interner proptest battery in `vs2-conformance` pin.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use vs2_docmodel::{DocView, Document, TokenId};
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
/// recomputation. The cap bounds memory on adversarial vocabularies;
/// past it, misses recompute without inserting.
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

// Per-thread word-embedding memo (same rationale and cap as the form
// cache; `embed` is a pure function of the word, so hits are bit-exact).
thread_local! {
    static EMBED_CACHE: RefCell<HashMap<Box<str>, Vector>> = RefCell::new(HashMap::new());
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
                if cache.len() < FORM_CACHE_CAP {
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

    /// A memoising embedder over the per-thread embedding cache.
    /// Deterministically identical to [`LexiconEmbedding`] (`embed` is
    /// pure); each distinct word is embedded once per thread.
    pub fn embedder(&self) -> CtxEmbedder {
        CtxEmbedder(())
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
/// embedding cache. `embed` is a pure function of the word, so
/// memoisation is bit-exact.
pub struct CtxEmbedder(());

impl Embedder for CtxEmbedder {
    fn embed(&self, word: &str) -> Vector {
        EMBED_CACHE.with(|cache| {
            if let Some(v) = cache.borrow().get(word) {
                return *v;
            }
            let v = LexiconEmbedding.embed(word);
            let mut cache = cache.borrow_mut();
            if cache.len() < FORM_CACHE_CAP {
                cache.insert(word.into(), v);
            }
            v
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs2_docmodel::{BBox, TextElement};
    use vs2_nlp::token::tokenize;

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
        // The first build misses the form cache, the second hits it.
        for _ in 0..2 {
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
        for _ in 0..2 {
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
        let ctx = DocContext::build(&ctx_doc);
        let e = ctx.embedder();
        for w in ["concert", "gala", "Σίσυφος", "2,465"] {
            assert_eq!(e.embed(w), LexiconEmbedding.embed(w), "embed({w})");
            // Second call hits the memo and must be identical.
            assert_eq!(e.embed(w), LexiconEmbedding.embed(w));
        }
    }
}
