//! The end-to-end VS2 pipeline: segment → search → select (§5, Fig. 2).
//!
//! [`Vs2Pipeline`] owns the learned per-entity pattern inventory and the
//! configuration of both phases. For each document it (1) decomposes the
//! page into logical blocks with VS2-Segment, (2) searches every entity's
//! lexico-syntactic patterns within each block's context boundary, and
//! (3) resolves multiple matches with the multimodal disambiguation of
//! Eq. 2 (or, for the §6.5 ablations, first-match / Lesk selection).

use crate::context::DocContext;
use crate::segment::{LogicalBlock, SegmentConfig};
use crate::select::blocktext::BlockText;
use crate::select::disambiguate::{distance_to_nearest, AreaEncoding, Eq2Weights, PageScale};
use crate::select::index::PatternIndex;
use crate::select::interest::{block_densities, interest_points_with};
use crate::select::learn::{learn_patterns, LearnConfig};
use crate::select::naive;
use crate::select::pattern::{PatternMatch, SyntacticPattern};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::Arc;
use vs2_docmodel::{BBox, Document};
use vs2_nlp::embedding::Embedder;
use vs2_nlp::wsd::{Gloss, Lesk};
use vs2_nlp::LexiconEmbedding;

/// How conflicting matches are resolved — the §6.5 ablation axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisambiguationMode {
    /// Eq. 2 multimodal distance to the nearest interest point (VS2).
    Multimodal,
    /// No disambiguation: first match in reading order (ablation A3).
    FirstMatch,
    /// Text-only Lesk gloss overlap (ablation A4).
    Lesk,
}

/// Full pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct Vs2Config {
    /// VS2-Segment configuration (including its ablation switches).
    pub segment: SegmentConfig,
    /// Eq. 2 weights.
    pub weights: Eq2Weights,
    /// Conflict-resolution mode.
    pub disambiguation: DisambiguationMode,
    /// Pattern-learning knobs.
    pub learn: LearnConfig,
}

impl Default for Vs2Config {
    fn default() -> Self {
        Self {
            segment: SegmentConfig::default(),
            weights: Eq2Weights::balanced(),
            disambiguation: DisambiguationMode::Multimodal,
            learn: LearnConfig::default(),
        }
    }
}

/// One extracted entity.
#[derive(Debug, Clone, PartialEq)]
pub struct Extraction {
    /// Entity key.
    pub entity: String,
    /// Extracted text `t_i`.
    pub text: String,
    /// Bounding box of the logical block that localised the entity (the
    /// §6.2 proposal).
    pub block_bbox: BBox,
    /// Bounding box of the matched tokens themselves.
    pub span_bbox: BBox,
    /// Selection score (lower is better for multimodal/first-match,
    /// higher for Lesk; comparable only within one entity's candidates).
    pub score: f64,
}

/// Distant-supervision profile of an entity: the embedding centroid and
/// verbosity of its holdout texts. Used as additional textual descriptors
/// when ranking candidates (§5.3.2's "visual and semantic descriptors").
#[derive(Debug, Clone)]
struct EntityProfile {
    centroid: vs2_nlp::Vector,
    mean_log_len: f64,
}

/// What scoring reads of one entity, at the entity's position in the
/// inventory's key order (the [`PatternIndex`] entity order): its name,
/// holdout profile and Lesk gloss (empty when it has none).
#[derive(Debug, Clone)]
struct EntitySlot {
    name: String,
    profile: Option<EntityProfile>,
    gloss: Gloss,
}

/// The learned, immutable state of a VS2 extractor: the per-entity
/// pattern inventory, Lesk glosses, and distant-supervision profiles.
///
/// Learning is the expensive phase ("learn once, extract many"): a model
/// is built once and then shared read-only — typically behind an [`Arc`]
/// — across any number of pipelines and worker threads. All per-document
/// state lives on the stack of [`Vs2Pipeline::extract`], so a single
/// model serves concurrent extractions without locking.
#[derive(Debug, Clone)]
pub struct Vs2Model {
    patterns: BTreeMap<String, Vec<SyntacticPattern>>,
    /// The compiled select-stage matcher, built once from `patterns` at
    /// model-construction time and shared (read-only) by every pipeline
    /// holding this model.
    index: PatternIndex,
    /// One slot per entity of `patterns`, in key order.
    slots: Vec<EntitySlot>,
}

impl Vs2Model {
    /// Learns a model from holdout entries `(entity, text, context)`.
    /// Contexts feed the Lesk glosses used by the text-only
    /// disambiguation ablation.
    pub fn learn<'a, I>(entries: I, learn: &LearnConfig) -> Self
    where
        I: IntoIterator<Item = (&'a str, &'a str, &'a str)> + Clone,
    {
        let patterns = learn_patterns(entries.clone().into_iter().map(|(e, t, _)| (e, t)), learn);
        let mut glosses = Lesk::new();
        let embedder = LexiconEmbedding;
        let mut sums: BTreeMap<String, (vs2_nlp::Vector, f64, usize)> = BTreeMap::new();
        for (entity, text, context) in entries {
            glosses.add_gloss(entity, context.split_whitespace());
            let v = embedder.embed_text(text.split_whitespace());
            let n_words = text.split_whitespace().count().max(1);
            let slot = sums
                .entry(entity.to_string())
                .or_insert(([0.0; vs2_nlp::DIM], 0.0, 0));
            for (acc, x) in slot.0.iter_mut().zip(v.iter()) {
                *acc += x;
            }
            slot.1 += (n_words as f64).ln();
            slot.2 += 1;
        }
        let profiles = sums
            .into_iter()
            .map(|(entity, (mut vec, log_len, n))| {
                let norm: f64 = vec.iter().map(|x| x * x).sum::<f64>().sqrt();
                if norm > 0.0 {
                    for x in vec.iter_mut() {
                        *x /= norm;
                    }
                }
                (
                    entity,
                    EntityProfile {
                        centroid: vec,
                        mean_log_len: log_len / n as f64,
                    },
                )
            })
            .collect();
        Self::assemble(patterns, profiles, glosses.into_glosses())
    }

    /// Builds a model from an explicit pattern inventory (e.g. the
    /// hand-written Table 3/4 sets) with no glosses or profiles.
    pub fn with_patterns(patterns: BTreeMap<String, Vec<SyntacticPattern>>) -> Self {
        Self::assemble(patterns, BTreeMap::new(), HashMap::new())
    }

    /// Compiles the index and lays out one [`EntitySlot`] per entity of
    /// `patterns`, with its profile and gloss when it has them.
    fn assemble(
        patterns: BTreeMap<String, Vec<SyntacticPattern>>,
        mut profiles: BTreeMap<String, EntityProfile>,
        mut glosses: HashMap<String, Gloss>,
    ) -> Self {
        let index = PatternIndex::build(&patterns);
        let slots = patterns
            .keys()
            .map(|name| EntitySlot {
                name: name.clone(),
                profile: profiles.remove(name),
                gloss: glosses.remove(name).unwrap_or_default(),
            })
            .collect();
        Self {
            patterns,
            index,
            slots,
        }
    }

    /// The learned pattern inventory.
    pub fn patterns(&self) -> &BTreeMap<String, Vec<SyntacticPattern>> {
        &self.patterns
    }

    /// The compiled select-stage matcher ([`PatternIndex`]), built once
    /// at model construction.
    pub fn index(&self) -> &PatternIndex {
        &self.index
    }

    /// Entities the model knows how to extract.
    pub fn entities(&self) -> Vec<&str> {
        self.slots.iter().map(|s| s.name.as_str()).collect()
    }
}

/// The VS2 extractor: an [`Arc`]-shared learned [`Vs2Model`] plus the
/// (small, copyable) run configuration.
///
/// Cloning a pipeline is cheap — the model is shared, only the config is
/// copied — so ablation sweeps and worker pools can stamp out per-thread
/// or per-configuration pipelines from one learned model.
#[derive(Debug, Clone)]
pub struct Vs2Pipeline {
    model: Arc<Vs2Model>,
    /// Pipeline configuration (public for ablation sweeps).
    pub config: Vs2Config,
}

// The serving layer shares one pipeline across worker threads; keep that
// property from regressing silently.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Vs2Model>();
    assert_send_sync::<Vs2Pipeline>();
    assert_send_sync::<Vs2Config>();
};

impl Vs2Pipeline {
    /// Learns patterns from holdout entries `(entity, text, context)` and
    /// builds the pipeline. Contexts feed the Lesk glosses used by the
    /// text-only disambiguation ablation.
    pub fn learn<'a, I>(entries: I, config: Vs2Config) -> Self
    where
        I: IntoIterator<Item = (&'a str, &'a str, &'a str)> + Clone,
    {
        Self::from_model(Arc::new(Vs2Model::learn(entries, &config.learn)), config)
    }

    /// Builds a pipeline from an explicit pattern inventory (e.g. the
    /// hand-written Table 3/4 sets).
    pub fn with_patterns(
        patterns: BTreeMap<String, Vec<SyntacticPattern>>,
        config: Vs2Config,
    ) -> Self {
        Self::from_model(Arc::new(Vs2Model::with_patterns(patterns)), config)
    }

    /// Wraps an already learned (possibly shared) model.
    pub fn from_model(model: Arc<Vs2Model>, config: Vs2Config) -> Self {
        Self { model, config }
    }

    /// The shared learned model.
    pub fn model(&self) -> &Arc<Vs2Model> {
        &self.model
    }

    /// The learned pattern inventory.
    pub fn patterns(&self) -> &BTreeMap<String, Vec<SyntacticPattern>> {
        self.model.patterns()
    }

    /// Entities the pipeline knows how to extract.
    pub fn entities(&self) -> Vec<&str> {
        self.model.entities()
    }

    /// Runs the search-and-select phase over a block partition and
    /// returns all candidates per entity, ranked best-first; the first
    /// candidate per entity is the pipeline's extraction. Any segmenter's
    /// blocks plug in here (the Table 5 baselines, plan replay, the
    /// triage cheap path).
    ///
    /// One sparse [`PatternIndex::block_hits`] query per block answers
    /// for every entity at once, and the stage then works only on the
    /// hits: a candidate list exists only for an entity some block
    /// matched, and names are read from the model's entity slots, so the
    /// cost follows the matches found, not the inventory's size. Block
    /// texts come from the context's interned token view, built with
    /// exactly what the index reads ([`BlockText::build_in_with`] over
    /// [`PatternIndex::read_set`]), and every embedding goes through the
    /// context's per-job memo, so nothing is re-tokenised, re-stemmed or
    /// re-embedded per block. Each block's word density and Lesk keys are
    /// derived once, not once per candidate. Pinned equal to the
    /// executable reference
    /// [`candidates_on_blocks_naive`](Self::candidates_on_blocks_naive)
    /// by `tests/arena_equiv.rs` and `tests/select_equiv.rs` in
    /// `vs2-conformance`.
    pub fn candidates_on_blocks_ctx(
        &self,
        ctx: &DocContext<'_>,
        blocks: &[LogicalBlock],
    ) -> BTreeMap<String, Vec<Extraction>> {
        let mut out: BTreeMap<String, Vec<Extraction>> = BTreeMap::new();
        for (_, cand) in self.ranked_candidates(ctx, blocks) {
            match out.get_mut(&cand.entity) {
                Some(list) => list.push(cand),
                None => {
                    out.insert(cand.entity.clone(), vec![cand]);
                }
            }
        }
        out
    }

    /// [`candidates_on_blocks_ctx`](Self::candidates_on_blocks_ctx) as
    /// one flat list of `(entity, candidate)` pairs sorted by entity
    /// (key order), each entity's run ranked best-first — the form
    /// [`assign`] works on.
    fn ranked_candidates(
        &self,
        ctx: &DocContext<'_>,
        blocks: &[LogicalBlock],
    ) -> Vec<(usize, Extraction)> {
        let select_span = vs2_obs::span(vs2_obs::stages::SELECT);
        select_span.tag("blocks", blocks.len() as u64);
        let doc = ctx.doc();
        let embedder = ctx.embedder();
        let (texts, densities, ip_enc, page) = {
            let _index_span = vs2_obs::span(vs2_obs::stages::SELECT_INDEX);
            let read = self.model.index.read_set();
            let texts: Vec<BlockText> = blocks
                .iter()
                .map(|b| BlockText::build_in_with(ctx, b, read))
                .collect();
            let densities = block_densities(doc, blocks);
            let (ip_enc, page) = self.select_prep(doc, blocks, &texts, &densities, &embedder);
            (texts, densities, ip_enc, page)
        };
        let _scan_span = vs2_obs::span(vs2_obs::stages::SELECT_SCAN);
        // One pass over the blocks; the index answers for all entities at
        // once, with the hits of each block in ascending entity order.
        let mut scored: Vec<(usize, Extraction)> = Vec::new();
        let mut scratch = self.model.index.scratch();
        let mut keys: Vec<&str> = Vec::new();
        for (bi, bt) in texts.iter().enumerate() {
            if bt.is_empty() {
                continue;
            }
            let hits = self.model.index.block_hits(bt, &mut scratch);
            if hits.is_empty() {
                continue;
            }
            // The block's distinct Lesk keys, as `Lesk::score` would
            // reduce its content words.
            keys.clear();
            keys.extend(bt.features.ids.iter().filter_map(|id| ctx.lesk_key(*id)));
            keys.sort_unstable();
            keys.dedup();
            let row = ScoreRow {
                density: densities[bi],
                keys: Some(&keys),
            };
            for &(entity, b) in hits {
                let cand = self.score_candidate(
                    doc,
                    blocks,
                    bi,
                    bt,
                    &row,
                    entity,
                    b.m,
                    b.exact,
                    b.specificity,
                    &ip_enc,
                    &page,
                    &embedder,
                );
                scored.push((entity, cand));
            }
        }
        // A stable sort by (entity, score): each entity's candidates
        // arrive in ascending block order, so this ranks them exactly as
        // a per-entity list in block order sorted stably by score.
        scored.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.score.total_cmp(&b.1.score)));
        scored
    }

    /// The original (pre-index) search-and-select loop, kept as the
    /// executable reference for the differential equivalence suite and
    /// the select-perf gate. Emits no tracing spans: only the production
    /// path participates in the documented span tree. Always builds fully
    /// annotated block texts and scores gloss overlap over each block's
    /// content words, so the differential battery compares the read-set
    /// gated fast path and its interned Lesk keys against an ungated
    /// specification.
    pub fn candidates_on_blocks_naive(
        &self,
        doc: &Document,
        blocks: &[LogicalBlock],
    ) -> BTreeMap<String, Vec<Extraction>> {
        let texts: Vec<BlockText> = blocks.iter().map(|b| BlockText::build(doc, b)).collect();
        let densities = block_densities(doc, blocks);
        let (ip_enc, page) = self.select_prep(doc, blocks, &texts, &densities, &LexiconEmbedding);
        let mut out: BTreeMap<String, Vec<Extraction>> = BTreeMap::new();
        for (slot, (entity, patterns)) in self.model.patterns().iter().enumerate() {
            let mut cands: Vec<Extraction> = Vec::new();
            for (bi, bt) in texts.iter().enumerate() {
                if bt.is_empty() {
                    continue;
                }
                // Best (longest) match across this entity's patterns,
                // tracking the specificity of the most demanding pattern
                // that fired in this block ("the most optimal matched
                // pattern", §5.2).
                let Some((m, exact, specificity)) = naive::block_best(patterns, bt) else {
                    continue;
                };
                let row = ScoreRow {
                    density: densities[bi],
                    keys: None,
                };
                cands.push(self.score_candidate(
                    doc,
                    blocks,
                    bi,
                    bt,
                    &row,
                    slot,
                    m,
                    exact,
                    specificity,
                    &ip_enc,
                    &page,
                    &LexiconEmbedding,
                ));
            }
            if cands.is_empty() {
                continue;
            }
            cands.sort_by(|a, b| a.score.total_cmp(&b.score));
            out.insert(entity.clone(), cands);
        }
        out
    }

    /// Builds the fully annotated select-side [`BlockText`] — tokens,
    /// POS, chunks, NER and [`FeatureTable`](crate::select::FeatureTable)
    /// — of every block, from the context's interned token view
    /// ([`BlockText::build_in`]).
    pub fn block_texts_ctx(&self, ctx: &DocContext<'_>, blocks: &[LogicalBlock]) -> Vec<BlockText> {
        blocks.iter().map(|b| BlockText::build_in(ctx, b)).collect()
    }

    /// The interest-point encodings of the multimodal mode and the page
    /// scale, over already-built block texts and block word densities.
    fn select_prep<E: Embedder>(
        &self,
        doc: &Document,
        blocks: &[LogicalBlock],
        texts: &[BlockText],
        densities: &[f64],
        embedder: &E,
    ) -> (Vec<AreaEncoding>, PageScale) {
        let ip_idx = interest_points_with(doc, blocks, densities, embedder);
        let ip_enc: Vec<AreaEncoding> = ip_idx
            .iter()
            .map(|&i| AreaEncoding {
                bbox: blocks[i].bbox,
                embedding: embedder.embed_text(texts[i].ann.content_words()),
                density: densities[i],
            })
            .collect();
        let page = PageScale {
            width: doc.width,
            height: doc.height,
        };
        (ip_enc, page)
    }

    /// Turns one block-level winning match of the entity in slot `entity`
    /// into a scored [`Extraction`]. Both matchers funnel through here,
    /// so the differential suite pins exactly the matcher — scoring is
    /// shared by construction.
    #[allow(clippy::too_many_arguments)]
    fn score_candidate<E: Embedder>(
        &self,
        doc: &Document,
        blocks: &[LogicalBlock],
        bi: usize,
        bt: &BlockText,
        row: &ScoreRow<'_>,
        entity: usize,
        m: PatternMatch,
        exact: bool,
        specificity: usize,
        ip_enc: &[AreaEncoding],
        page: &PageScale,
        embedder: &E,
    ) -> Extraction {
        let slot = &self.model.slots[entity];
        let (text, span_bbox) = if exact {
            // D1 semantics: the descriptor locates the field; the
            // extraction is the value adjacent to it (bounded to a
            // handful of tokens so an under-segmented block does
            // not leak the whole page).
            let after_end = (m.end + 3).min(bt.len());
            let after = bt.span_text(m.end, after_end);
            let before_start = m.start.saturating_sub(3);
            let before = bt.span_text(before_start, m.start);
            if !after.trim().is_empty() {
                (after, bt.span_bbox(doc, m.end, after_end))
            } else if !before.trim().is_empty() {
                (before, bt.span_bbox(doc, before_start, m.start))
            } else {
                (
                    bt.span_text(m.start, m.end),
                    bt.span_bbox(doc, m.start, m.end),
                )
            }
        } else {
            (
                bt.span_text(m.start, m.end),
                bt.span_bbox(doc, m.start, m.end),
            )
        };
        let score = match self.config.disambiguation {
            DisambiguationMode::Multimodal => {
                let enc = AreaEncoding {
                    bbox: span_bbox,
                    embedding: embedder.embed_text(text.split_whitespace()),
                    density: row.density,
                };
                // Specificity acts as a tie-break: a block where a
                // more demanding pattern fired is a better-typed
                // candidate at equal multimodal distance. The
                // entity's holdout profile contributes two further
                // textual descriptors: embedding affinity and
                // verbosity agreement.
                let mut score = distance_to_nearest(&enc, ip_enc, &self.config.weights, page)
                    - 0.05 * specificity as f64;
                if let Some(profile) = &slot.profile {
                    let sim = vs2_nlp::cosine(&enc.embedding, &profile.centroid);
                    score += 0.25 * (1.0 - sim.clamp(-1.0, 1.0)) / 2.0;
                    let n_words = text.split_whitespace().count().max(1);
                    let dlen = ((n_words as f64).ln() - profile.mean_log_len).abs();
                    score += 0.25 * (dlen / 2.0).min(1.0);
                }
                // Holdout-context gloss overlap (the block's words
                // vs the entity's fixed-format contexts) — the
                // cue that separates "Phone …" from "Fax …".
                score -= 0.15 * gloss_overlap(&slot.gloss, bt, row).min(1.0);
                score
            }
            DisambiguationMode::FirstMatch => {
                // Reading order: top-to-bottom, left-to-right.
                blocks[bi].bbox.y * 10_000.0 + blocks[bi].bbox.x
            }
            DisambiguationMode::Lesk => -gloss_overlap(&slot.gloss, bt, row),
        };
        Extraction {
            entity: slot.name.clone(),
            text,
            block_bbox: blocks[bi].bbox,
            span_bbox,
            score,
        }
    }

    /// Extracts the best candidate per entity over externally provided
    /// blocks: [`extract_on_blocks_ctx`](Self::extract_on_blocks_ctx)
    /// over a fresh [`DocContext`].
    pub fn extract_on_blocks(&self, doc: &Document, blocks: &[LogicalBlock]) -> Vec<Extraction> {
        self.extract_on_blocks_ctx(&DocContext::build(doc), blocks)
    }

    /// Extracts the best candidate per entity over `blocks` and a per-job
    /// [`DocContext`] — the serve path; nothing is cloned or re-tokenised
    /// across the stage boundary.
    pub fn extract_on_blocks_ctx(
        &self,
        ctx: &DocContext<'_>,
        blocks: &[LogicalBlock],
    ) -> Vec<Extraction> {
        assign_ranked(self.ranked_candidates(ctx, blocks))
    }

    /// End-to-end extraction: builds one [`DocContext`] for `doc`,
    /// segments with the context's memoising embedder, and runs the
    /// interned select stage — the single-call equivalent of what a
    /// serve worker does per job.
    pub fn extract_ctx(&self, doc: &Document) -> Vec<Extraction> {
        let _extract_span = vs2_obs::span(vs2_obs::stages::EXTRACT);
        let ctx = DocContext::build(doc);
        let blocks = crate::segment::logical_blocks_ctx(&ctx, &self.config.segment);
        assign_ranked(self.ranked_candidates(&ctx, &blocks))
    }

    /// Triage-routed zero-copy extraction: scores the document's layout
    /// complexity first ([`crate::triage`]) and segments via the XY-cut
    /// cheap path when the layout is trivially regular, full VS2
    /// otherwise — the single-call equivalent of a `--triage` serve
    /// worker (without a plan store). Returns the extractions plus the
    /// routing decision. On a [`crate::triage::TriageDecision::FullVs2`]
    /// decision the output is byte-identical to
    /// [`extract_ctx`](Self::extract_ctx).
    pub fn extract_routed(
        &self,
        doc: &Document,
        triage: &crate::triage::TriageConfig,
    ) -> (Vec<Extraction>, crate::triage::TriageDecision) {
        let _extract_span = vs2_obs::span(vs2_obs::stages::EXTRACT);
        let ctx = DocContext::build(doc);
        let (blocks, decision, _) =
            crate::triage::routed_blocks_ctx(&ctx, &self.config.segment, triage, None);
        (
            assign_ranked(self.ranked_candidates(&ctx, &blocks)),
            decision,
        )
    }

    /// Reference-path variant of
    /// [`extract_on_blocks`](Self::extract_on_blocks) driving
    /// [`candidates_on_blocks_naive`](Self::candidates_on_blocks_naive) —
    /// assignment included, so end-to-end differential tests can compare
    /// full extractions.
    pub fn extract_on_blocks_naive(
        &self,
        doc: &Document,
        blocks: &[LogicalBlock],
    ) -> Vec<Extraction> {
        assign(self.candidates_on_blocks_naive(doc, blocks))
    }

    /// Extracts the best candidate per entity (same as
    /// [`extract_ctx`](Self::extract_ctx)).
    pub fn extract(&self, doc: &Document) -> Vec<Extraction> {
        self.extract_ctx(doc)
    }
}

/// What [`Vs2Pipeline::score_candidate`] reads of a block besides its
/// text: derived once per block, shared by all of its candidates.
struct ScoreRow<'k> {
    /// `doc.word_density` of the block's box.
    density: f64,
    /// The block's distinct Lesk keys (`DocContext::lesk_key` of its
    /// tokens), or `None` to score gloss overlap over its content words.
    keys: Option<&'k [&'k str]>,
}

/// Lesk overlap of an entity's gloss with the block: over the row's
/// interned keys when it has them, else over the block's content words
/// (the reference path).
fn gloss_overlap(gloss: &Gloss, bt: &BlockText, row: &ScoreRow<'_>) -> f64 {
    match row.keys {
        Some(keys) => gloss.score_keys(keys),
        None => gloss.score(bt.ann.content_words()),
    }
}

/// Greedy joint assignment of candidates to entities: the globally
/// best-scoring (entity, candidate) pairs claim their blocks one-to-one,
/// so two entities never extract from the same logical block while an
/// alternative exists. Entities whose candidates are all claimed fall
/// back to their first candidate. Each entity's list is read best first,
/// as [`Vs2Pipeline::candidates_on_blocks_ctx`] ranks it; the output
/// holds one extraction per entity with a candidate, in key order.
pub fn assign(candidates: BTreeMap<String, Vec<Extraction>>) -> Vec<Extraction> {
    assign_ranked(
        candidates
            .into_values()
            .enumerate()
            .flat_map(|(k, cands)| cands.into_iter().map(move |c| (k, c)))
            .collect(),
    )
}

/// [`assign`] over one flat list of `(entity, candidate)` pairs sorted by
/// entity, each entity's run read best first. Entities are addressed by
/// their run, each candidate's block key is reduced once to a dense id,
/// and the winners are moved out of the list.
fn assign_ranked(ranked: Vec<(usize, Extraction)>) -> Vec<Extraction> {
    let _assign_span = vs2_obs::span(vs2_obs::stages::ASSIGN);
    let block_key = |e: &Extraction| -> (i64, i64, i64, i64) {
        (
            (e.block_bbox.x * 8.0) as i64,
            (e.block_bbox.y * 8.0) as i64,
            (e.block_bbox.w * 8.0) as i64,
            (e.block_bbox.h * 8.0) as i64,
        )
    };
    // `runs[k]`: the range of `ranked` holding entity `k`'s candidates.
    let mut runs: Vec<Range<usize>> = Vec::new();
    for (i, (entity, _)) in ranked.iter().enumerate() {
        match runs.last_mut() {
            Some(run) if ranked[run.start].0 == *entity => run.end = i + 1,
            _ => runs.push(i..i + 1),
        }
    }
    // `block[i]`: the dense id of candidate `i`'s block key; candidates
    // share an id exactly when their keys are equal.
    let mut distinct: Vec<(i64, i64, i64, i64)> =
        ranked.iter().map(|(_, c)| block_key(c)).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let block: Vec<usize> = ranked
        .iter()
        .map(|(_, c)| {
            distinct
                .binary_search(&block_key(c))
                .expect("every key is listed")
        })
        .collect();
    let mut claimed = vec![false; distinct.len()];
    let mut unassigned: Vec<usize> = (0..runs.len()).collect();
    // The candidate each entity emits: its pick, else its best.
    let mut chosen: Vec<usize> = runs.iter().map(|run| run.start).collect();

    // Regret-based greedy: at each round, the entity that would lose the
    // most by not getting its current best unclaimed candidate (the gap
    // to its second choice) assigns first; equal regrets go to the
    // earliest entity.
    while !unassigned.is_empty() {
        let mut best_pick: Option<(f64, usize, usize)> = None; // (regret, pos, cand)
        for (pos, &k) in unassigned.iter().enumerate() {
            let mut free = runs[k].clone().filter(|&i| !claimed[block[i]]);
            let Some(first) = free.next() else { continue };
            let regret = free
                .next()
                .map(|second| ranked[second].1.score - ranked[first].1.score)
                .unwrap_or(f64::INFINITY);
            let better = match &best_pick {
                None => true,
                Some((r, _, _)) => regret > *r,
            };
            if better {
                best_pick = Some((regret, pos, first));
            }
        }
        match best_pick {
            Some((_, pos, i)) => {
                let k = unassigned.remove(pos);
                claimed[block[i]] = true;
                chosen[k] = i;
            }
            // The remaining entities have no free candidates: they fall
            // back to their best one.
            None => break,
        }
    }
    // One winner per run, in entity order: move them out.
    let mut winners = chosen.into_iter().peekable();
    ranked
        .into_iter()
        .enumerate()
        .filter_map(|(i, (_, cand))| winners.next_if_eq(&i).map(|_| cand))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::pattern::Feature;
    use vs2_docmodel::TextElement;
    use vs2_nlp::ner::NerTag;

    /// A toy two-block document: a salient title + organiser block at the
    /// top, and a low-salience sponsor credit at the bottom — both match
    /// a person-pattern; disambiguation must pick the top one.
    fn poster() -> Document {
        let mut d = Document::new("pipe", 400.0, 400.0);
        // Title (interest point): big font.
        for (i, w) in ["Grand", "Jazz", "Festival"].iter().enumerate() {
            d.push_text(TextElement::word(
                *w,
                BBox::new(40.0 + 110.0 * i as f64, 20.0, 100.0, 34.0),
            ));
        }
        // Organizer line just below the title.
        for (i, w) in ["Hosted", "by", "James", "Wilson"].iter().enumerate() {
            d.push_text(TextElement::word(
                *w,
                BBox::new(60.0 + 70.0 * i as f64, 80.0, 60.0, 13.0),
            ));
        }
        // Sponsor credit far below, small font.
        for (i, w) in ["Sponsored", "by", "Mary", "Davis"].iter().enumerate() {
            d.push_text(TextElement::word(
                *w,
                BBox::new(60.0 + 55.0 * i as f64, 370.0, 50.0, 8.0),
            ));
        }
        d
    }

    fn organizer_patterns() -> BTreeMap<String, Vec<SyntacticPattern>> {
        let mut m = BTreeMap::new();
        m.insert(
            "event_organizer".to_string(),
            vec![SyntacticPattern::Window {
                kind: None,
                required: vec![Feature::ner(NerTag::Person)],
            }],
        );
        m
    }

    #[test]
    fn multimodal_disambiguation_prefers_salient_candidate() {
        let doc = poster();
        let pipeline = Vs2Pipeline::with_patterns(organizer_patterns(), Vs2Config::default());
        let ctx = DocContext::build(&doc);
        let blocks = crate::segment::logical_blocks_ctx(&ctx, &pipeline.config.segment);
        let cands = pipeline.candidates_on_blocks_ctx(&ctx, &blocks);
        let organizer = &cands["event_organizer"];
        assert!(organizer.len() >= 2, "need both candidates: {organizer:?}");
        // The winner is the one near the title (y ≈ 80), not the footer.
        assert!(
            organizer[0].block_bbox.y < 200.0,
            "picked footer: {organizer:?}"
        );
        assert!(organizer[0].text.contains("James"));
    }

    #[test]
    fn first_match_mode_picks_reading_order() {
        let doc = poster();
        let cfg = Vs2Config {
            disambiguation: DisambiguationMode::FirstMatch,
            ..Vs2Config::default()
        };
        let pipeline = Vs2Pipeline::with_patterns(organizer_patterns(), cfg);
        let ex = pipeline.extract(&doc);
        let organizer = ex.iter().find(|e| e.entity == "event_organizer").unwrap();
        assert!(organizer.block_bbox.y < 200.0);
    }

    #[test]
    fn exact_phrase_extracts_the_value() {
        let mut d = Document::new("form", 300.0, 60.0);
        for (i, w) in ["Total", "wages", "amount", "12,345.00"].iter().enumerate() {
            d.push_text(TextElement::word(
                *w,
                BBox::new(10.0 + 60.0 * i as f64, 10.0, 55.0, 10.0),
            ));
        }
        let mut patterns = BTreeMap::new();
        patterns.insert(
            "field_x".to_string(),
            vec![SyntacticPattern::ExactPhrase("total wages amount".into())],
        );
        let pipeline = Vs2Pipeline::with_patterns(patterns, Vs2Config::default());
        let ex = pipeline.extract(&d);
        assert_eq!(ex.len(), 1);
        assert_eq!(ex[0].text, "12,345.00");
    }

    #[test]
    fn learned_pipeline_end_to_end() {
        let entries: Vec<(&str, &str, &str)> = vec![
            ("who", "James Wilson", "hosted by James Wilson"),
            ("who", "Mary Davis", "hosted by Mary Davis"),
            ("who", "Robert Brown", "organized by Robert Brown"),
            ("who", "Linda Garcia", "presented by Linda Garcia"),
        ];
        let pipeline = Vs2Pipeline::learn(entries, Vs2Config::default());
        assert!(!pipeline.patterns()["who"].is_empty());
        let doc = poster();
        let ex = pipeline.extract(&doc);
        let who = ex.iter().find(|e| e.entity == "who");
        assert!(who.is_some(), "{ex:?}");
    }

    #[test]
    fn lesk_mode_uses_glosses() {
        // Note: none of the corpus names besides "James Wilson" appear on
        // the poster — the gloss must favour the hosted-by block through
        // its context words, not through a name collision.
        let entries: Vec<(&str, &str, &str)> = vec![
            ("who", "James Wilson", "hosted by James Wilson tonight"),
            ("who", "Robert Brown", "hosted by Robert Brown tonight"),
            ("who", "Linda Garcia", "hosted by Linda Garcia tonight"),
        ];
        let cfg = Vs2Config {
            disambiguation: DisambiguationMode::Lesk,
            ..Vs2Config::default()
        };
        let pipeline = Vs2Pipeline::learn(entries, cfg);
        let doc = poster();
        let ex = pipeline.extract(&doc);
        // "Hosted" appears in the gloss, so the hosted-by block wins over
        // the sponsored-by block.
        let who = ex.iter().find(|e| e.entity == "who").unwrap();
        assert!(who.text.contains("James"), "{who:?}");
    }

    #[test]
    fn no_patterns_no_extractions() {
        let pipeline = Vs2Pipeline::with_patterns(BTreeMap::new(), Vs2Config::default());
        assert!(pipeline.extract(&poster()).is_empty());
        assert!(pipeline.entities().is_empty());
    }
}
