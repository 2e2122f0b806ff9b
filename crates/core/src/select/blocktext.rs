//! Token-to-element alignment for logical blocks.
//!
//! VS2-Select matches patterns over the *transcription* of a logical
//! block, but extractions must come back with bounding boxes. A
//! [`BlockText`] tokenises each word element separately, so every token
//! knows which atomic element produced it, and carries the full NLP
//! annotation of the block's text.
//!
//! The select stage builds its own texts from its compiled index's
//! [`ReadSet`]: token-only (tokens, ids and provenance, no POS, chunks,
//! NER or window reps) when no window pattern reads the annotation, and
//! otherwise only the windows and window checks the patterns can use.

use std::sync::Arc;

use crate::context::{empty_arc, DocContext};
use crate::segment::LogicalBlock;
use crate::select::index::ReadSet;
use vs2_docmodel::{BBox, Document, ElementRef, TokenId};
use vs2_nlp::annotate::Annotated;
use vs2_nlp::chunk::{chunk, PhraseKind};
use vs2_nlp::hypernym::{self, Sense};
use vs2_nlp::ner::recognize;
use vs2_nlp::pos::tag;
use vs2_nlp::stem::stem;
use vs2_nlp::stopwords::is_stopword;
use vs2_nlp::token::{tokenize, Token};
use vs2_nlp::verbs;
use vs2_nlp::{geocode, timex};

/// Bit in [`WindowRep::flags`]: a cardinal-number (CD) modifier.
pub const FLAG_CD: u8 = 1 << 0;
/// Bit in [`WindowRep::flags`]: an adjectival (JJ) modifier.
pub const FLAG_JJ: u8 = 1 << 1;
/// Bit in [`WindowRep::flags`]: the window normalises as TIMEX3.
pub const FLAG_TIMEX: u8 = 1 << 2;
/// Bit in [`WindowRep::flags`]: the window carries a valid geocode.
pub const FLAG_GEO: u8 = 1 << 3;

/// The bitmask feature summary of one candidate phrase window — the
/// precomputed form of `features_of_span` minus the lexical stems (stems
/// are tested against the per-token [`FeatureTable::stem`] column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowRep {
    /// First token index.
    pub start: usize,
    /// One past the last token.
    pub end: usize,
    /// CD / JJ / TIMEX / GEO bits (see the `FLAG_*` constants).
    pub flags: u8,
    /// NER-category bitset (bit index = `pattern::ner_code`).
    pub ner: u8,
    /// Hypernym-sense bitset (bit index = sense code; `Entity` omitted,
    /// mirroring `features_of_span`).
    pub sense: u16,
    /// VerbNet-lite sense bitset (bit index = verb-sense code).
    pub vsense: u8,
}

/// Per-block feature precomputation: everything `features_of_span`
/// recomputes per pattern call, hoisted to one pass in
/// [`BlockText::build`]. Per-token columns feed window aggregation; the
/// eager window table covers every window any pattern can consider
/// (shallow phrases, NER spans, the whole block), each with its TIMEX3 /
/// geocode validation already done.
#[derive(Debug, Clone, Default)]
pub struct FeatureTable {
    /// Per-token CD/JJ bits.
    pub flags: Vec<u8>,
    /// Per-token NER-category bitset (union of covering spans).
    pub ner: Vec<u8>,
    /// Per-token hypernym-sense bitset (nouns only, `Entity` omitted).
    pub sense: Vec<u16>,
    /// Per-token verb-sense bitset (verbs only).
    pub vsense: Vec<u8>,
    /// Per-token stem, or `""` when the token contributes no `Stem`
    /// feature (empty norm, stopword, numeric). Shared `Arc<str>`s: on
    /// the interned path the whole column is refcount bumps into the
    /// per-document stem table.
    pub stem: Vec<Arc<str>>,
    /// Interned token id per token, when built from a [`DocContext`]
    /// (`BlockText::build_in*`, token-only texts included); empty on the
    /// owned path.
    pub ids: Vec<TokenId>,
    /// Window reps aligned index-for-index with `ann.phrases` (a default
    /// rep for a phrase kind the [`ReadSet`] does not read).
    pub phrase_windows: Vec<WindowRep>,
    /// Window reps aligned index-for-index with `ann.ner` (empty when the
    /// [`ReadSet`] does not read them).
    pub ner_windows: Vec<WindowRep>,
    /// The whole-block window `(0, len)` (default when not read).
    pub block_window: WindowRep,
    /// Union of every built window rep — the sound anchor prefilter: a
    /// feature absent here is absent from every window a pattern
    /// evaluates.
    pub summary: WindowRep,
}

impl FeatureTable {
    fn build(ann: &Annotated) -> Self {
        let n = ann.tokens.len();
        let mut t = FeatureTable {
            flags: vec![0; n],
            ner: vec![0; n],
            sense: vec![0; n],
            vsense: vec![0; n],
            stem: Vec::with_capacity(n),
            ..FeatureTable::default()
        };
        for (i, tok) in ann.tokens.iter().enumerate() {
            let pos = ann.pos[i];
            match pos {
                vs2_nlp::PosTag::Cd => t.flags[i] |= FLAG_CD,
                vs2_nlp::PosTag::Jj => t.flags[i] |= FLAG_JJ,
                _ => {}
            }
            if pos.is_verb() {
                for v in verbs::senses_of(&tok.norm) {
                    t.vsense[i] |= 1 << crate::select::pattern::vsense_code(v);
                }
            } else if pos.is_noun() {
                let s = hypernym::sense_of(&tok.norm);
                if s != Sense::Entity {
                    t.sense[i] |= 1 << crate::select::pattern::sense_code(s);
                }
            }
            if !tok.norm.is_empty() && !is_stopword(&tok.norm) && !tok.is_numeric() {
                t.stem.push(Arc::from(stem(&tok.norm).as_str()));
            } else {
                t.stem.push(empty_arc());
            }
        }
        for span in &ann.ner {
            let code = crate::select::pattern::ner_code(span.tag);
            for i in span.start..span.end.min(n) {
                t.ner[i] |= 1 << code;
            }
        }
        t.phrase_windows = ann
            .phrases
            .iter()
            .map(|p| t.window_rep(ann, p.start, p.end))
            .collect();
        t.ner_windows = ann
            .ner
            .iter()
            .map(|s| t.window_rep(ann, s.start, s.end))
            .collect();
        t.block_window = t.window_rep(ann, 0, n);
        let mut summary = WindowRep::default();
        for w in t
            .phrase_windows
            .iter()
            .chain(t.ner_windows.iter())
            .chain(std::iter::once(&t.block_window))
        {
            summary.flags |= w.flags;
            summary.ner |= w.ner;
            summary.sense |= w.sense;
            summary.vsense |= w.vsense;
        }
        t.summary = summary;
        t
    }

    /// Builds the table from a [`DocContext`]'s interned columns: stems,
    /// noun senses and verb senses come from the per-distinct-token
    /// tables (computed once per document) instead of being re-derived
    /// per token instance. `ids[i]` is the interned id of `ann.tokens[i]`.
    /// Only the windows and checks in `read` are built. With
    /// [`ReadSet::all`] it is column-for-column byte-identical to
    /// [`FeatureTable::build`] — pinned by the interner proptest battery
    /// in `vs2-conformance`.
    fn build_interned(
        ann: &Annotated,
        ids: Vec<TokenId>,
        ctx: &DocContext<'_>,
        read: &ReadSet,
    ) -> Self {
        debug_assert_eq!(ann.tokens.len(), ids.len());
        let n = ann.tokens.len();
        let mut t = FeatureTable {
            flags: vec![0; n],
            ner: vec![0; n],
            sense: vec![0; n],
            vsense: vec![0; n],
            stem: Vec::with_capacity(n),
            ids,
            ..FeatureTable::default()
        };
        for (i, id) in t.ids.iter().enumerate() {
            let pos = ann.pos[i];
            match pos {
                vs2_nlp::PosTag::Cd => t.flags[i] |= FLAG_CD,
                vs2_nlp::PosTag::Jj => t.flags[i] |= FLAG_JJ,
                _ => {}
            }
            if pos.is_verb() {
                t.vsense[i] |= ctx.vsense_mask(*id);
            } else if pos.is_noun() {
                t.sense[i] |= ctx.sense_mask(*id);
            }
            t.stem.push(ctx.stem_of(*id).clone());
        }
        for span in &ann.ner {
            let code = crate::select::pattern::ner_code(span.tag);
            for i in span.start..span.end.min(n) {
                t.ner[i] |= 1 << code;
            }
        }
        let mut scratch = String::new();
        t.phrase_windows = ann
            .phrases
            .iter()
            .map(|p| {
                if read.reads_phrase(p.kind) {
                    t.window_rep_into(ann, p.start, p.end, Some(p.kind), read, &mut scratch)
                } else {
                    WindowRep::default()
                }
            })
            .collect();
        if read.reads_spans() {
            t.ner_windows = ann
                .ner
                .iter()
                .map(|s| t.window_rep_into(ann, s.start, s.end, None, read, &mut scratch))
                .collect();
            t.block_window = t.window_rep_into(ann, 0, n, None, read, &mut scratch);
        }
        // Reps that were not built are all-zero, so this is the union of
        // the built ones.
        let mut summary = WindowRep::default();
        for w in t
            .phrase_windows
            .iter()
            .chain(t.ner_windows.iter())
            .chain(std::iter::once(&t.block_window))
        {
            summary.flags |= w.flags;
            summary.ner |= w.ner;
            summary.sense |= w.sense;
            summary.vsense |= w.vsense;
        }
        t.summary = summary;
        t
    }

    /// [`FeatureTable::window_rep`] for a window of `kind` (`None`: an NER
    /// or whole-block window) with a caller-owned span-text buffer, so
    /// table construction reuses one allocation across windows. Runs the
    /// TIMEX3 / geocode checks only where `read` says one can matter.
    fn window_rep_into(
        &self,
        ann: &Annotated,
        start: usize,
        end: usize,
        kind: Option<PhraseKind>,
        read: &ReadSet,
        scratch: &mut String,
    ) -> WindowRep {
        let end = end.min(ann.tokens.len());
        let mut w = WindowRep {
            start,
            end,
            ..WindowRep::default()
        };
        for i in start..end {
            w.flags |= self.flags[i];
            w.ner |= self.ner[i];
            w.sense |= self.sense[i];
            w.vsense |= self.vsense[i];
        }
        let (check_timex, check_geo) = read.checks(kind, &w);
        if !(check_timex || check_geo) {
            return w;
        }
        ann.span_text_into(start, end, scratch);
        if check_timex && timex::is_valid_timex(scratch) {
            w.flags |= FLAG_TIMEX;
        }
        if check_geo && geocode::is_valid_geocode(scratch) {
            w.flags |= FLAG_GEO;
        }
        w
    }

    /// Aggregates the per-token columns over `[start, end)` and runs the
    /// window-level TIMEX3 / geocode validations — semantically identical
    /// to `features_of_span`, minus stems.
    pub fn window_rep(&self, ann: &Annotated, start: usize, end: usize) -> WindowRep {
        let end = end.min(ann.tokens.len());
        let mut w = WindowRep {
            start,
            end,
            ..WindowRep::default()
        };
        for i in start..end {
            w.flags |= self.flags[i];
            w.ner |= self.ner[i];
            w.sense |= self.sense[i];
            w.vsense |= self.vsense[i];
        }
        let text = ann.span_text(start, end);
        if timex::is_valid_timex(&text) {
            w.flags |= FLAG_TIMEX;
        }
        if geocode::is_valid_geocode(&text) {
            w.flags |= FLAG_GEO;
        }
        w
    }

    /// `true` when any token in `[start, end)` stems to `want`.
    pub fn span_has_stem(&self, start: usize, end: usize, want: &str) -> bool {
        self.stem[start..end.min(self.stem.len())]
            .iter()
            .any(|s| &**s == want)
    }

    /// `true` when any token of the block stems to `want`.
    pub fn block_has_stem(&self, want: &str) -> bool {
        self.span_has_stem(0, self.stem.len(), want)
    }
}

/// The annotated transcription of one logical block, with per-token
/// element provenance.
#[derive(Debug, Clone)]
pub struct BlockText {
    /// The block this text came from.
    pub bbox: BBox,
    /// Full NLP annotation (tokens, POS, phrases, NER).
    pub ann: Annotated,
    /// For each token, the element that produced it.
    pub elem_of: Vec<ElementRef>,
    /// Precomputed per-token/per-window feature tables (built once here,
    /// queried by every pattern of every entity).
    pub features: FeatureTable,
}

impl BlockText {
    /// Builds the aligned, annotated text of a block. Words are taken in
    /// reading order; each word may tokenise into several tokens (a
    /// trailing comma, say), all inheriting the word's element.
    pub fn build(doc: &Document, block: &LogicalBlock) -> Self {
        let order = doc.reading_order(&block.elements);
        let mut tokens: Vec<Token> = Vec::new();
        let mut elem_of: Vec<ElementRef> = Vec::new();
        for r in order {
            let Some(text) = doc.text_of(r) else { continue };
            for t in tokenize(text) {
                tokens.push(t);
                elem_of.push(r);
            }
        }
        let pos = tag(&tokens);
        let phrases = chunk(&tokens, &pos);
        let ner = recognize(&tokens, &pos);
        let ann = Annotated {
            tokens,
            pos,
            phrases,
            ner,
        };
        let features = FeatureTable::build(&ann);
        BlockText {
            bbox: block.bbox,
            ann,
            elem_of,
            features,
        }
    }

    /// Builds the aligned, annotated text of a block from a per-job
    /// [`DocContext`]: tokens come from the document's interned token
    /// view (tokenised once per job, cloned here by `Arc` refcount
    /// bumps) instead of re-tokenising every element's text per block —
    /// the double-tokenisation `BlockText::build` pays. Per-instance
    /// annotation (POS, chunking, NER) still runs per block because it
    /// is context-dependent; all string derivation is interned.
    /// Observationally identical to [`BlockText::build`] (plus the `ids`
    /// column).
    pub fn build_in(ctx: &DocContext<'_>, block: &LogicalBlock) -> Self {
        Self::build_in_with(ctx, block, ReadSet::all())
    }

    /// [`BlockText::build_in`] with only what `read` asks for. An empty
    /// read set gives a token-only text: tokens, their ids and element
    /// provenance, empty POS/chunk/NER columns and no window reps. That
    /// is enough for the exact-phrase scan (normal forms) and candidate
    /// scoring (tokens, Lesk keys by id, provenance).
    pub fn build_in_with(ctx: &DocContext<'_>, block: &LogicalBlock, read: &ReadSet) -> Self {
        let doc = ctx.doc();
        let order = doc.reading_order(&block.elements);
        let count: usize = order
            .iter()
            .filter_map(|r| match r {
                ElementRef::Text(i) => Some(ctx.view.tokens_of_text(*i).len()),
                _ => None,
            })
            .sum();
        let mut tokens: Vec<Token> = Vec::with_capacity(count);
        let mut ids: Vec<TokenId> = Vec::with_capacity(count);
        let mut elem_of: Vec<ElementRef> = Vec::with_capacity(count);
        for r in order {
            let ElementRef::Text(i) = r else { continue };
            for id in ctx.view.tokens_of_text(i) {
                tokens.push(ctx.token(*id).clone());
                ids.push(*id);
                elem_of.push(r);
            }
        }
        if read.is_empty() {
            return BlockText {
                bbox: block.bbox,
                ann: Annotated {
                    tokens,
                    pos: Vec::new(),
                    phrases: Vec::new(),
                    ner: Vec::new(),
                },
                elem_of,
                features: FeatureTable {
                    ids,
                    ..FeatureTable::default()
                },
            };
        }
        let pos = tag(&tokens);
        let phrases = chunk(&tokens, &pos);
        let ner = recognize(&tokens, &pos);
        let ann = Annotated {
            tokens,
            pos,
            phrases,
            ner,
        };
        let features = FeatureTable::build_interned(&ann, ids, ctx, read);
        BlockText {
            bbox: block.bbox,
            ann,
            elem_of,
            features,
        }
    }

    /// Bounding box of the token span `[start, end)` — the union of the
    /// producing elements' boxes.
    pub fn span_bbox(&self, doc: &Document, start: usize, end: usize) -> BBox {
        let mut it = self.elem_of[start..end.min(self.elem_of.len())]
            .iter()
            .map(|r| doc.bbox_of(*r));
        match it.next() {
            Some(first) => it.fold(first, |acc, b| acc.union(&b)),
            None => self.bbox,
        }
    }

    /// Raw text of a token span.
    pub fn span_text(&self, start: usize, end: usize) -> String {
        self.ann.span_text(start, end)
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.ann.tokens.len()
    }

    /// `true` when the block transcribed to nothing.
    pub fn is_empty(&self) -> bool {
        self.ann.tokens.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vs2_docmodel::TextElement;

    fn block_with(words: &[(&str, f64)]) -> (Document, LogicalBlock) {
        let mut d = Document::new("bt", 300.0, 50.0);
        let mut elems = Vec::new();
        for (i, (w, x)) in words.iter().enumerate() {
            let _ = i;
            elems.push(d.push_text(TextElement::word(*w, BBox::new(*x, 10.0, 30.0, 10.0))));
        }
        let bbox = BBox::enclosing(
            elems
                .iter()
                .map(|r| d.bbox_of(*r))
                .collect::<Vec<_>>()
                .iter(),
        )
        .unwrap();
        (
            d,
            LogicalBlock {
                bbox,
                elements: elems,
            },
        )
    }

    #[test]
    fn tokens_align_to_elements() {
        let (d, b) = block_with(&[("Hosted", 10.0), ("by", 45.0), ("James,", 80.0)]);
        let bt = BlockText::build(&d, &b);
        // "James," splits into "James" + "," — 4 tokens from 3 elements.
        assert_eq!(bt.len(), 4);
        assert_eq!(bt.elem_of[2], bt.elem_of[3]);
        assert_ne!(bt.elem_of[0], bt.elem_of[2]);
    }

    #[test]
    fn span_bbox_covers_producing_words() {
        let (d, b) = block_with(&[("a", 10.0), ("b", 50.0), ("c", 90.0)]);
        let bt = BlockText::build(&d, &b);
        let bb = bt.span_bbox(&d, 1, 3);
        assert_eq!(bb.x, 50.0);
        assert_eq!(bb.right(), 120.0);
        // Full span equals the block bbox.
        assert_eq!(bt.span_bbox(&d, 0, 3), b.bbox);
    }

    #[test]
    fn annotation_is_present() {
        let (d, b) = block_with(&[
            ("Hosted", 10.0),
            ("by", 45.0),
            ("James", 80.0),
            ("Wilson", 115.0),
        ]);
        let bt = BlockText::build(&d, &b);
        assert!(bt.ann.ner.iter().any(|s| s.tag == vs2_nlp::NerTag::Person));
        assert!(!bt.is_empty());
    }

    #[test]
    fn empty_block() {
        let d = Document::new("e", 10.0, 10.0);
        let b = LogicalBlock {
            bbox: BBox::new(0.0, 0.0, 5.0, 5.0),
            elements: vec![],
        };
        let bt = BlockText::build(&d, &b);
        assert!(bt.is_empty());
        assert_eq!(bt.span_bbox(&d, 0, 0), b.bbox);
    }
}
