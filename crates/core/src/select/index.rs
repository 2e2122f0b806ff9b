//! The compiled select-stage matcher: [`PatternIndex`].
//!
//! The select stage used to run an entity × block × pattern triple
//! loop where every [`SyntacticPattern::matches`] call re-tokenised the
//! needle, re-derived every window's feature set and re-walked the NER
//! spans from scratch. The index is built **once per
//! [`crate::Vs2Model`]** and turns the per-block work into:
//!
//! * **One trie pass for all exact phrases.** Every entity's
//!   `ExactPhrase` patterns are interned into a shared token-trie; a
//!   single left-to-right scan over a block yields the phrase hits of
//!   every entity at once. The walk reproduces the greedy OCR-tolerant
//!   aligner of `pattern::exact_matches` branch for branch (direct word
//!   match first, then needle-merge, then token-split), including the
//!   rare case where a merge and a split fire on the same edge — the
//!   split continuation then excludes the merged grandchildren, exactly
//!   as per-phrase greedy alignment would.
//! * **Length-bucketed probe tables.** Each trie node's edge words (and
//!   their precomputed two-word merges) sit in flat CSR tables keyed by
//!   the byte length of the query they can match: a word of ≥ 4 bytes
//!   (which admits one OCR edit) in buckets `len − 1 ..= len + 1`, a
//!   shorter word (exact match only) in bucket `len` alone. A DFS pop
//!   reads only the token's bucket (direct and merge branches) and the
//!   rejoined pair's bucket (split branch, against the direct table),
//!   skips entries whose first *and* last bytes both differ from the
//!   query's, and then entries whose byte signature (one bit per byte
//!   class, [`byte_signature`]) differs from the query's in more than two
//!   bits — both necessary conditions of the edit-one comparator on those
//!   lengths — and runs the unchanged comparator on the rest. A root
//!   with dozens of first words and hundreds of merged forms thus costs a
//!   handful of bit checks per start token, not a full edge sweep.
//! * **Window patterns grouped by anchor feature.** Each compiled
//!   window pattern is bucketed under its most selective requirement
//!   (stem ≻ NER ≻ verb sense ≻ noun sense ≻ POS flag ≻ TIMEX/geocode);
//!   a bucket is evaluated only when its anchor occurs somewhere in the
//!   block's precomputed feature summary. Surviving patterns test
//!   candidate windows with bitmask subset checks against the block's
//!   [`FeatureTable`] instead of rebuilding `BTreeSet<Feature>`s.
//! * **Sparse per-block results.** A block query
//!   ([`PatternIndex::block_hits`]) costs what the block matches, not
//!   what the inventory holds. The per-entity accumulators live in the
//!   [`ScanScratch`], sized once to the model's entity count and clean
//!   between queries; the scan notes each entity the first time it
//!   touches its accumulator, and the query returns only those entities'
//!   winners, in ascending entity order, resetting only their slots. A
//!   learned D1 model has 480 entities but a D1 block touches about one.
//!
//! The phrase scan reads only the tokens' normal forms; only window
//! patterns read POS, chunks, NER and the [`FeatureTable`]. The index
//! records what its window patterns read as a [`ReadSet`]: which windows
//! they evaluate, and on which of those a TIMEX3 or geocode check can
//! decide a match. The select stage builds each block text with exactly
//! that — token-only for an empty read set (a phrase-only model), and
//! without the window checks no pattern can use.
//!
//! Tie-breaking is bit-for-bit the old loop's: longest match wins, ties
//! go to the lowest pattern rank, then the earliest `(start, end)` span.
//! That key is a total order, so the order in which the walk visits hits
//! does not affect the result. The naive matcher survives as
//! [`crate::select::naive`] and the `select_equiv` differential suite in
//! `vs2-conformance` proves the two observationally identical.
//!
//! [`FeatureTable`]: crate::select::FeatureTable

use crate::select::blocktext::{BlockText, WindowRep, FLAG_CD, FLAG_GEO, FLAG_JJ, FLAG_TIMEX};
use crate::select::pattern::{ner_code, Feature, SyntacticPattern};
use crate::select::PatternMatch;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use vs2_nlp::chunk::PhraseKind;
use vs2_nlp::lexicon::{byte_signature, signatures_within_edit_one};
use vs2_nlp::ner::NerTag;

/// The winning match of one entity within one block, as the naive
/// matcher's inner loop would have produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockBest {
    /// The winning span.
    pub m: PatternMatch,
    /// `true` when an exact-phrase pattern produced it (D1 semantics:
    /// the descriptor locates the field, the value sits beside it).
    pub exact: bool,
    /// Specificity of the most demanding pattern that fired in the
    /// block (not necessarily the winning one).
    pub specificity: usize,
}

/// Reusable buffers for the per-block scan: the phrase-walk DFS stack,
/// the split continuations' banned-edge sets, the per-pop hit lists, the
/// OCR-split rejoin text (one buffer + span table instead of a `String`
/// per adjacent token pair), the per-entity accumulators and the sparse
/// result list. Create once per job (or worker) with
/// [`PatternIndex::scratch`] and pass to [`PatternIndex::block_hits`]
/// for every block; once warm, a query allocates nothing.
#[derive(Debug, Default)]
pub struct ScanScratch {
    stack: Vec<Frame>,
    /// Banned grandchild-edge sets of split continuations, addressed by
    /// [`Frame::banned`] ranges; cleared per start token.
    banned: Vec<u32>,
    /// Edges of the popped node that hit directly (their merge and split
    /// branches are suppressed).
    direct_hits: Vec<u32>,
    /// `(edge, grandchild edge)` of every merge that fired at the popped
    /// node (the split continuation of that edge must exclude them).
    merged_hits: Vec<(u32, u32)>,
    rejoined_text: String,
    rejoined_spans: Vec<(u32, u32)>,
    accs: Accs,
    /// The last query's result: `(entity, winner)` in ascending entity
    /// order.
    hits: Vec<(usize, BlockBest)>,
    /// Accumulator slots reset so far, over every query.
    resets: u64,
}

impl ScanScratch {
    /// Accumulator slots the queries through this scratch have reset so
    /// far: one per entity a block touched, never one per entity of the
    /// inventory.
    pub fn slots_reset(&self) -> u64 {
        self.resets
    }
}

/// One pending trie-walk state: the next block token, the trie node, and
/// the `start..end` range of [`ScanScratch::banned`] holding the node's
/// edges this continuation may not take (empty for all but split
/// continuations whose edge also merged).
#[derive(Debug, Clone, Copy)]
struct Frame {
    i: usize,
    node: u32,
    banned: (u32, u32),
}

/// A registration of one pattern: which entity, at which rank within
/// that entity's inventory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    entity: u32,
    rank: u32,
}

/// A needle-merge continuation precomputed at build time: consuming one
/// block token may cover *two* consecutive phrase words (OCR merged
/// them). `word` is the concatenation, `target` the grandchild node,
/// `edge_idx` the grandchild's index among the child's edges (used to
/// exclude it from a simultaneous split continuation).
#[derive(Debug, Clone)]
struct Merged {
    word: String,
    target: u32,
    edge_idx: u32,
}

#[derive(Debug, Clone)]
struct Edge {
    word: String,
    node: u32,
    merged: Vec<Merged>,
}

#[derive(Debug, Clone, Default)]
struct TrieNode {
    children: Vec<Edge>,
    terminals: Vec<Slot>,
}

/// One entry of a [`ProbeTable`]: which edge (and, in the merged table,
/// which of its [`Merged`] forms) to compare, plus the probe word's
/// first and last byte and its byte signature for the prefilter.
/// 16 bytes: a `u64` signature would grow it by half.
#[derive(Debug, Clone, Copy)]
struct Probe {
    edge: u32,
    merged: u32,
    sig: u32,
    first: u8,
    last: u8,
}

impl Probe {
    /// The probe of `word` (non-empty) for `edge` and its `merged` form.
    fn new(word: &str, edge: usize, merged: usize) -> Self {
        let bytes = word.as_bytes();
        Probe {
            edge: edge as u32,
            merged: merged as u32,
            sig: byte_signature(bytes),
            first: bytes[0],
            last: bytes[bytes.len() - 1],
        }
    }

    /// A necessary condition of [`word_matches`] on bucketed lengths: an
    /// equal-length match substitutes at most one byte, so the first and
    /// last bytes cannot both differ (words of < 4 bytes must be equal);
    /// a one-byte insertion or deletion leaves the first bytes equal, or
    /// — when it sits at the front — the last bytes. And one edit moves
    /// at most two bits of the byte signature (`query_sig` is the
    /// query's).
    fn may_match(&self, query: &[u8], query_sig: u32) -> bool {
        (query.first() == Some(&self.first) || query.last() == Some(&self.last))
            && signatures_within_edit_one(query_sig, self.sig)
    }
}

/// Flat, length-bucketed probe tables for every trie node, in CSR
/// layout: node `n` owns buckets `0..spans[n].1`, and bucket `L` of it is
/// `entries[offsets[spans[n].0 + L]..offsets[spans[n].0 + L + 1]]` — the
/// probes that can match a query of `L` bytes (see [`in_bucket`]).
/// Entries keep edge order within a bucket.
#[derive(Debug, Clone, Default)]
struct ProbeTable {
    spans: Vec<(u32, u32)>,
    offsets: Vec<u32>,
    entries: Vec<Probe>,
}

impl ProbeTable {
    /// Appends the next node's table from its probe words.
    fn push_node(&mut self, words: &[(&str, Probe)]) {
        let buckets = words
            .iter()
            .map(|(w, _)| {
                if w.len() >= 4 {
                    w.len() + 2
                } else {
                    w.len() + 1
                }
            })
            .max()
            .unwrap_or(0);
        self.spans.push((self.offsets.len() as u32, buckets as u32));
        for len in 0..buckets {
            self.offsets.push(self.entries.len() as u32);
            self.entries.extend(
                words
                    .iter()
                    .filter(|(w, _)| in_bucket(w.len(), len))
                    .map(|(_, p)| *p),
            );
        }
        self.offsets.push(self.entries.len() as u32);
    }

    /// The probes of `node` that can match a query of `len` bytes.
    fn bucket(&self, node: u32, len: usize) -> &[Probe] {
        let (base, buckets) = self.spans[node as usize];
        if len >= buckets as usize {
            return &[];
        }
        let at = base as usize + len;
        &self.entries[self.offsets[at] as usize..self.offsets[at + 1] as usize]
    }
}

/// `true` when a probe word of `word_len` bytes can match a query of
/// `query_len` bytes under [`word_matches`]: words of ≥ 4 bytes admit one
/// edit (lengths within one), shorter words match exactly or not at all.
fn in_bucket(word_len: usize, query_len: usize) -> bool {
    if word_len >= 4 {
        word_len.abs_diff(query_len) <= 1
    } else {
        word_len == query_len
    }
}

/// The window-feature requirements of one pattern that reads TIMEX3 or
/// geocode validity, minus both of those bits: a window must carry at
/// least these bits (and be of this kind) before either check can decide
/// whether the pattern matches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Need {
    /// `Some(k)`: phrase windows of kind `k`; `None`: the NER windows and
    /// the whole-block window.
    kind: Option<PhraseKind>,
    flags: u8,
    ner: u8,
    sense: u16,
    vsense: u8,
}

impl Need {
    fn covered_by(&self, kind: Option<PhraseKind>, rep: &WindowRep) -> bool {
        self.kind == kind
            && self.flags & rep.flags == self.flags
            && self.ner & rep.ner == self.ner
            && self.sense & rep.sense == self.sense
            && self.vsense & rep.vsense == self.vsense
    }
}

const PHRASE_KINDS: [PhraseKind; 3] = [PhraseKind::Np, PhraseKind::Vp, PhraseKind::Svo];

/// What a compiled [`PatternIndex`]'s window patterns read of a block:
/// the windows they evaluate and where a TIMEX3 / geocode check can
/// matter. [`BlockText::build_in_with`] builds a block's annotation and
/// [`FeatureTable`](crate::select::FeatureTable) from it:
///
/// * an empty set (no window pattern) gets a token-only text;
/// * only evaluated windows get a [`WindowRep`] — a phrase of a kind no
///   pattern reads keeps a default rep, so `phrase_windows` stays aligned
///   with `ann.phrases`;
/// * a window is TIMEX3- (geocode-) validated only when its kind and
///   its other bits cover some pattern's [`Need`] for that check.
///
/// The block summary stays the union of the built reps, so the anchor
/// prefilter remains sound: every window that could satisfy a pattern
/// is still built and validated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadSet {
    /// Bit `kind as u8`: some pattern evaluates phrases of that kind.
    phrases: u8,
    /// Some `kind: None` pattern evaluates the NER windows and the
    /// whole-block window.
    spans: bool,
    timex: Vec<Need>,
    geo: Vec<Need>,
}

impl ReadSet {
    /// Every window, every check: the fully annotated block text that
    /// [`BlockText::build_in`] and the owned [`BlockText::build`] produce.
    pub fn all() -> &'static ReadSet {
        static ALL: OnceLock<ReadSet> = OnceLock::new();
        ALL.get_or_init(|| {
            let mut read = ReadSet::default();
            for kind in PHRASE_KINDS.map(Some).into_iter().chain([None]) {
                read.add(kind, FLAG_TIMEX | FLAG_GEO, 0, 0, 0);
            }
            read
        })
    }

    /// Records one window pattern's kind and requirement masks.
    fn add(&mut self, kind: Option<PhraseKind>, flags: u8, ner: u8, sense: u16, vsense: u8) {
        match kind {
            Some(k) => self.phrases |= 1 << k as u8,
            None => self.spans = true,
        }
        let need = Need {
            kind,
            flags: flags & !(FLAG_TIMEX | FLAG_GEO),
            ner,
            sense,
            vsense,
        };
        for (bit, needs) in [(FLAG_TIMEX, &mut self.timex), (FLAG_GEO, &mut self.geo)] {
            if flags & bit != 0 && !needs.contains(&need) {
                needs.push(need);
            }
        }
    }

    /// `true` when no window pattern reads the block's annotation.
    pub fn is_empty(&self) -> bool {
        self.phrases == 0 && !self.spans
    }

    /// `true` when some pattern evaluates phrase windows of `kind`.
    pub fn reads_phrase(&self, kind: PhraseKind) -> bool {
        self.phrases & (1 << kind as u8) != 0
    }

    /// `true` when some pattern evaluates the NER and whole-block windows.
    pub fn reads_spans(&self) -> bool {
        self.spans
    }

    /// Which of the TIMEX3 and geocode checks can decide a pattern on a
    /// window of `kind` whose unvalidated bits are `rep`'s.
    pub(crate) fn checks(&self, kind: Option<PhraseKind>, rep: &WindowRep) -> (bool, bool) {
        let any = |needs: &[Need]| needs.iter().any(|n| n.covered_by(kind, rep));
        (any(&self.timex), any(&self.geo))
    }
}

/// A window pattern compiled to bitmasks.
#[derive(Debug, Clone)]
struct CompiledWindow {
    slot: Slot,
    kind: Option<PhraseKind>,
    req_flags: u8,
    req_ner: u8,
    req_sense: u16,
    req_vsense: u8,
    stems: Vec<String>,
    spec: usize,
    /// Regex-class categories (email/phone) among the requirements.
    contact: Vec<NerTag>,
    /// All required NER codes (drives span extension).
    required_ner: Vec<u8>,
}

/// The anchor feature a window pattern is grouped under. Ordered by
/// selectivity: a stem is rarer than an NER category, which is rarer
/// than a sense, which is rarer than a POS flag.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Anchor {
    Stem(String),
    Ner(u8),
    VSense(u8),
    Sense(u8),
    Flag(u8),
    /// No requirements: evaluated on every block.
    Always,
}

impl Anchor {
    fn of(required: &[Feature]) -> Anchor {
        let mut best: Option<Anchor> = None;
        for f in required {
            let a = match f {
                Feature::Stem(s) => Anchor::Stem(s.clone()),
                Feature::Ner(c) => Anchor::Ner(*c),
                Feature::VSense(v) => Anchor::VSense(*v),
                Feature::Sense(s) => Anchor::Sense(*s),
                Feature::Cd => Anchor::Flag(FLAG_CD),
                Feature::Jj => Anchor::Flag(FLAG_JJ),
                Feature::Timex => Anchor::Flag(FLAG_TIMEX),
                Feature::Geo => Anchor::Flag(FLAG_GEO),
            };
            best = Some(match best {
                None => a,
                Some(b) => b.min(a),
            });
        }
        best.unwrap_or(Anchor::Always)
    }

    /// `true` when the anchor feature occurs anywhere in the block — a
    /// sound prefilter: the summary is the union over every candidate
    /// window, so an absent anchor means no window can satisfy it.
    fn present_in(&self, bt: &BlockText) -> bool {
        let s = &bt.features.summary;
        match self {
            Anchor::Stem(w) => bt.features.block_has_stem(w),
            Anchor::Ner(c) => s.ner & (1 << c) != 0,
            Anchor::VSense(v) => s.vsense & (1 << v) != 0,
            Anchor::Sense(c) => s.sense & (1 << c) != 0,
            Anchor::Flag(f) => s.flags & f != 0,
            Anchor::Always => true,
        }
    }
}

/// The compiled matching engine for VS2-Select: shared phrase trie plus
/// anchor-grouped, mask-compiled window patterns. Built once per model;
/// immutable and `Send + Sync`, so serving workers share it through the
/// model's `Arc` with no per-document rebuild.
#[derive(Debug, Clone, Default)]
pub struct PatternIndex {
    n_entities: usize,
    nodes: Vec<TrieNode>,
    /// Per-node probes of the edge words: read at the token's length by
    /// the direct branch and at the rejoined pair's length by the split
    /// branch (both compare against the edge word).
    direct: ProbeTable,
    /// Per-node probes of the edges' merged two-word forms.
    merged: ProbeTable,
    /// Window patterns bucketed by anchor; buckets sorted for
    /// determinism (evaluation order does not affect results — the
    /// accumulator's tie-break key is order-free).
    groups: Vec<(Anchor, Vec<CompiledWindow>)>,
    /// What the window patterns read of a block.
    read: ReadSet,
    n_phrases: usize,
    n_windows: usize,
}

/// Mirrors `pattern::exact_matches`' word comparator, with a cheap
/// length prefilter (equal strings have equal lengths; the edit-one
/// channel never bridges a length gap above one).
fn word_matches(have: &str, want: &str) -> bool {
    if have.len().abs_diff(want.len()) > 1 {
        return false;
    }
    have == want || (want.len() >= 4 && vs2_nlp::lexicon::within_edit_one(have, want))
}

impl PatternIndex {
    /// Compiles an entity → pattern inventory. Entity indices follow the
    /// map's (sorted) key order.
    pub fn build(patterns: &BTreeMap<String, Vec<SyntacticPattern>>) -> Self {
        let mut idx = PatternIndex {
            n_entities: patterns.len(),
            nodes: vec![TrieNode::default()],
            ..PatternIndex::default()
        };
        let mut grouped: BTreeMap<Anchor, Vec<CompiledWindow>> = BTreeMap::new();
        for (ei, pats) in patterns.values().enumerate() {
            for (rank, p) in pats.iter().enumerate() {
                let slot = Slot {
                    entity: ei as u32,
                    rank: rank as u32,
                };
                match p {
                    SyntacticPattern::ExactPhrase(phrase) => {
                        let needle: Vec<String> = phrase
                            .split_whitespace()
                            .map(|w| w.to_lowercase())
                            .collect();
                        if needle.is_empty() {
                            continue;
                        }
                        idx.insert_phrase(&needle, slot);
                        idx.n_phrases += 1;
                    }
                    SyntacticPattern::Window { kind, required } => {
                        let mut w = CompiledWindow {
                            slot,
                            kind: *kind,
                            req_flags: 0,
                            req_ner: 0,
                            req_sense: 0,
                            req_vsense: 0,
                            stems: Vec::new(),
                            spec: required.len().min(4),
                            contact: Vec::new(),
                            required_ner: Vec::new(),
                        };
                        for f in required {
                            match f {
                                Feature::Cd => w.req_flags |= FLAG_CD,
                                Feature::Jj => w.req_flags |= FLAG_JJ,
                                Feature::Timex => w.req_flags |= FLAG_TIMEX,
                                Feature::Geo => w.req_flags |= FLAG_GEO,
                                Feature::Ner(c) => {
                                    w.req_ner |= 1 << c;
                                    w.required_ner.push(*c);
                                    match c {
                                        6 => w.contact.push(NerTag::Email),
                                        7 => w.contact.push(NerTag::Phone),
                                        _ => {}
                                    }
                                }
                                Feature::Sense(s) => w.req_sense |= 1 << s,
                                Feature::VSense(v) => w.req_vsense |= 1 << v,
                                Feature::Stem(s) => w.stems.push(s.clone()),
                            }
                        }
                        idx.read
                            .add(*kind, w.req_flags, w.req_ner, w.req_sense, w.req_vsense);
                        grouped.entry(Anchor::of(required)).or_default().push(w);
                        idx.n_windows += 1;
                    }
                }
            }
        }
        idx.groups = grouped.into_iter().collect();
        idx.link_merged();
        idx.build_probes();
        idx
    }

    fn insert_phrase(&mut self, needle: &[String], slot: Slot) {
        let mut node = 0u32;
        for word in needle {
            let next = match self.nodes[node as usize]
                .children
                .iter()
                .find(|e| &e.word == word)
            {
                Some(e) => e.node,
                None => {
                    let id = self.nodes.len() as u32;
                    self.nodes.push(TrieNode::default());
                    self.nodes[node as usize].children.push(Edge {
                        word: word.clone(),
                        node: id,
                        merged: Vec::new(),
                    });
                    id
                }
            };
            node = next;
        }
        self.nodes[node as usize].terminals.push(slot);
    }

    /// Precomputes, for every edge, the concatenated two-word forms the
    /// OCR-merge branch compares against — so the hot scan never
    /// allocates needle-side strings.
    fn link_merged(&mut self) {
        for id in 0..self.nodes.len() {
            for ei in 0..self.nodes[id].children.len() {
                let child = self.nodes[id].children[ei].node;
                let word = self.nodes[id].children[ei].word.clone();
                let merged: Vec<Merged> = self.nodes[child as usize]
                    .children
                    .iter()
                    .enumerate()
                    .map(|(gi, g)| Merged {
                        word: format!("{}{}", word, g.word),
                        target: g.node,
                        edge_idx: gi as u32,
                    })
                    .collect();
                self.nodes[id].children[ei].merged = merged;
            }
        }
    }

    /// Fills the per-node [`ProbeTable`]s from the edges and their merged
    /// forms.
    fn build_probes(&mut self) {
        let mut direct = ProbeTable::default();
        let mut merged = ProbeTable::default();
        for node in &self.nodes {
            let words: Vec<(&str, Probe)> = node
                .children
                .iter()
                .enumerate()
                .map(|(ei, e)| (e.word.as_str(), Probe::new(&e.word, ei, 0)))
                .collect();
            direct.push_node(&words);
            let words: Vec<(&str, Probe)> = node
                .children
                .iter()
                .enumerate()
                .flat_map(|(ei, e)| {
                    e.merged
                        .iter()
                        .enumerate()
                        .map(move |(mi, m)| (m.word.as_str(), Probe::new(&m.word, ei, mi)))
                })
                .collect();
            merged.push_node(&words);
        }
        self.direct = direct;
        self.merged = merged;
    }

    /// Number of entities the index was compiled over.
    pub fn entity_count(&self) -> usize {
        self.n_entities
    }

    /// Number of interned exact phrases.
    pub fn phrase_count(&self) -> usize {
        self.n_phrases
    }

    /// Number of compiled window patterns.
    pub fn window_count(&self) -> usize {
        self.n_windows
    }

    /// What the window patterns read of a block — the select stage builds
    /// its block texts with exactly this.
    pub fn read_set(&self) -> &ReadSet {
        &self.read
    }

    /// Scratch for [`PatternIndex::block_hits`], its accumulators sized
    /// to this index's entity count. Keep it across blocks (and jobs) so
    /// the DFS stack, the rejoin buffer and the accumulators are
    /// allocated once, not once per block.
    pub fn scratch(&self) -> ScanScratch {
        ScanScratch {
            accs: Accs {
                slots: vec![Acc::default(); self.n_entities],
                touched: Vec::new(),
            },
            ..ScanScratch::default()
        }
    }

    /// The winning match of every entity that matched within one block,
    /// as `(entity, winner)` pairs in ascending entity order (entities
    /// follow the inventory's key order). Each winner is observationally
    /// identical to the naive per-entity loops' (see
    /// [`crate::select::naive`]); an entity absent from the result has no
    /// match in the block.
    ///
    /// Work and resets are proportional to the entities the block
    /// touches: only their accumulator slots are read out and reset, so
    /// the scratch is clean again on return. A scratch from
    /// [`PatternIndex::scratch`] (or any scratch after its first query on
    /// this index) makes the call allocation-free once its buffers are
    /// warm.
    pub fn block_hits<'s>(
        &self,
        bt: &BlockText,
        scratch: &'s mut ScanScratch,
    ) -> &'s [(usize, BlockBest)] {
        // Take the accumulators out of the scratch so the scan borrows
        // don't collide; put them back when done.
        let mut accs = std::mem::take(&mut scratch.accs);
        if accs.slots.len() < self.n_entities {
            accs.slots.resize(self.n_entities, Acc::default());
        }
        if !bt.is_empty() {
            self.scan_phrases(bt, &mut accs, scratch);
            self.scan_windows(bt, &mut accs);
        }
        accs.touched.sort_unstable();
        scratch.hits.clear();
        for &e in &accs.touched {
            let acc = std::mem::take(&mut accs.slots[e as usize]);
            let best = acc.into_best().expect("a touched slot holds a match");
            scratch.hits.push((e as usize, best));
        }
        scratch.resets += accs.touched.len() as u64;
        accs.touched.clear();
        scratch.accs = accs;
        &scratch.hits
    }

    /// One left-to-right pass over the block: from every start token,
    /// walk the trie with the greedy aligner's branch order. Each DFS pop
    /// reads only the probe buckets its query lengths select; per edge, a
    /// direct hit suppresses the merge and split branches, and a split
    /// continuation is banned from the grandchildren its edge merged into.
    fn scan_phrases(&self, bt: &BlockText, accs: &mut Accs, scratch: &mut ScanScratch) {
        if self.nodes[0].children.is_empty() {
            return;
        }
        let tokens = &bt.ann.tokens;
        let n = tokens.len();
        let norm = |i: usize| -> &str { &tokens[i].norm };
        let ScanScratch {
            stack,
            banned,
            direct_hits,
            merged_hits,
            rejoined_text,
            rejoined_spans,
            ..
        } = scratch;
        // Adjacent-token rejoins for the OCR-split branch, built once
        // per block into one reused buffer instead of one `String` per
        // adjacent pair.
        rejoined_text.clear();
        rejoined_spans.clear();
        for i in 0..n.saturating_sub(1) {
            let start = rejoined_text.len() as u32;
            rejoined_text.push_str(norm(i));
            rejoined_text.push_str(norm(i + 1));
            rejoined_spans.push((start, rejoined_text.len() as u32));
        }
        let rejoined = |i: usize| -> &str {
            let (s, e) = rejoined_spans[i];
            &rejoined_text[s as usize..e as usize]
        };
        stack.clear();
        for start in 0..n {
            banned.clear();
            stack.push(Frame {
                i: start,
                node: 0,
                banned: (0, 0),
            });
            while let Some(Frame {
                i,
                node: node_id,
                banned: (b0, b1),
            }) = stack.pop()
            {
                let node = &self.nodes[node_id as usize];
                for slot in &node.terminals {
                    accs.update(*slot, PatternMatch { start, end: i }, true, 4);
                }
                if node.children.is_empty() {
                    continue;
                }
                let is_banned =
                    |banned: &[u32], edge: u32| banned[b0 as usize..b1 as usize].contains(&edge);
                direct_hits.clear();
                merged_hits.clear();
                if i < n {
                    let q = norm(i);
                    let q_sig = byte_signature(q.as_bytes());
                    for p in self.direct.bucket(node_id, q.len()) {
                        if !p.may_match(q.as_bytes(), q_sig) || is_banned(banned, p.edge) {
                            continue;
                        }
                        let edge = &node.children[p.edge as usize];
                        if word_matches(q, &edge.word) {
                            // Greedy: a direct hit commits every phrase
                            // through this edge; merge/split are fallbacks.
                            direct_hits.push(p.edge);
                            stack.push(Frame {
                                i: i + 1,
                                node: edge.node,
                                banned: (0, 0),
                            });
                        }
                    }
                    for p in self.merged.bucket(node_id, q.len()) {
                        if !p.may_match(q.as_bytes(), q_sig)
                            || is_banned(banned, p.edge)
                            || direct_hits.contains(&p.edge)
                        {
                            continue;
                        }
                        let m = &node.children[p.edge as usize].merged[p.merged as usize];
                        if word_matches(q, &m.word) {
                            stack.push(Frame {
                                i: i + 1,
                                node: m.target,
                                banned: (0, 0),
                            });
                            merged_hits.push((p.edge, m.edge_idx));
                        }
                    }
                }
                if i + 1 < n {
                    let q = rejoined(i);
                    let q_sig = byte_signature(q.as_bytes());
                    for p in self.direct.bucket(node_id, q.len()) {
                        if !p.may_match(q.as_bytes(), q_sig)
                            || is_banned(banned, p.edge)
                            || direct_hits.contains(&p.edge)
                        {
                            continue;
                        }
                        let edge = &node.children[p.edge as usize];
                        if word_matches(q, &edge.word) {
                            // Phrases whose continuation already merged must
                            // not also take the split path — per-phrase
                            // greedy alignment tries merge before split.
                            let from = banned.len() as u32;
                            banned.extend(
                                merged_hits
                                    .iter()
                                    .filter(|(e, _)| *e == p.edge)
                                    .map(|(_, g)| *g),
                            );
                            stack.push(Frame {
                                i: i + 2,
                                node: edge.node,
                                banned: (from, banned.len() as u32),
                            });
                        }
                    }
                }
            }
        }
    }

    fn scan_windows(&self, bt: &BlockText, accs: &mut Accs) {
        for (anchor, bucket) in &self.groups {
            if !anchor.present_in(bt) {
                continue;
            }
            for w in bucket {
                self.eval_window(bt, w, accs);
            }
        }
    }

    fn eval_window(&self, bt: &BlockText, w: &CompiledWindow, accs: &mut Accs) {
        // Full-requirement prefilter against the block summary — free
        // once the masks exist, and strictly stronger than the anchor.
        let s = &bt.features.summary;
        if w.req_flags & s.flags != w.req_flags
            || w.req_ner & s.ner != w.req_ner
            || w.req_sense & s.sense != w.req_sense
            || w.req_vsense & s.vsense != w.req_vsense
        {
            return;
        }
        let table = &bt.features;
        match w.kind {
            Some(k) => {
                for (p, rep) in bt.ann.phrases.iter().zip(table.phrase_windows.iter()) {
                    if p.kind == k {
                        self.eval_rep(bt, w, rep, accs);
                    }
                }
            }
            None => {
                for rep in table
                    .ner_windows
                    .iter()
                    .chain(std::iter::once(&table.block_window))
                {
                    self.eval_rep(bt, w, rep, accs);
                }
            }
        }
    }

    fn eval_rep(&self, bt: &BlockText, w: &CompiledWindow, rep: &WindowRep, accs: &mut Accs) {
        let table = &bt.features;
        {
            if rep.end <= rep.start {
                return;
            }
            if w.req_flags & rep.flags != w.req_flags
                || w.req_ner & rep.ner != w.req_ner
                || w.req_sense & rep.sense != w.req_sense
                || w.req_vsense & rep.vsense != w.req_vsense
            {
                return;
            }
            if !w
                .stems
                .iter()
                .all(|want| table.span_has_stem(rep.start, rep.end, want))
            {
                return;
            }
            // Post-processing identical to `SyntacticPattern::matches`:
            // regex-class (phone/e-mail) requirements return the NER
            // span itself; other windows extend over clipped NER spans
            // and over required-category spans anywhere in the block.
            if !w.contact.is_empty() {
                let mut found = false;
                for span in &bt.ann.ner {
                    if w.contact.contains(&span.tag) && span.start < rep.end && span.end > rep.start
                    {
                        accs.update(
                            w.slot,
                            PatternMatch {
                                start: span.start,
                                end: span.end,
                            },
                            false,
                            w.spec,
                        );
                        found = true;
                    }
                }
                if found {
                    return;
                }
            }
            let (mut s2, mut e2) = (rep.start, rep.end);
            for span in &bt.ann.ner {
                let intersects = span.start < e2 && span.end > s2;
                let required_tag = w.required_ner.contains(&ner_code(span.tag));
                if intersects || required_tag {
                    s2 = s2.min(span.start);
                    e2 = e2.max(span.end);
                }
            }
            accs.update(w.slot, PatternMatch { start: s2, end: e2 }, false, w.spec);
        }
    }
}

/// Per-entity accumulator replicating the naive loop's tie-break: a new
/// match wins only when strictly longer, so the standing best is the
/// maximal-length match with the lowest `(rank, start, end)`.
#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    best: Option<(PatternMatch, u32, bool)>,
    spec: usize,
}

impl Acc {
    fn into_best(self) -> Option<BlockBest> {
        self.best.map(|(m, _, exact)| BlockBest {
            m,
            exact,
            specificity: self.spec,
        })
    }
}

/// The accumulators of one block query: one slot per entity (all clean
/// between queries) plus the entities whose slot the current block
/// touched, in first-touch order.
#[derive(Debug, Clone, Default)]
struct Accs {
    slots: Vec<Acc>,
    touched: Vec<u32>,
}

impl Accs {
    fn update(&mut self, slot: Slot, m: PatternMatch, exact: bool, spec: usize) {
        let a = &mut self.slots[slot.entity as usize];
        // Every update leaves a winner behind, so an empty slot is one
        // this block has not touched yet.
        if a.best.is_none() {
            self.touched.push(slot.entity);
        }
        a.spec = a.spec.max(spec);
        let len = m.end - m.start;
        let key = (std::cmp::Reverse(len), slot.rank, m.start, m.end);
        let better = match &a.best {
            None => true,
            Some((cur, cur_rank, _)) => {
                key < (
                    std::cmp::Reverse(cur.end - cur.start),
                    *cur_rank,
                    cur.start,
                    cur.end,
                )
            }
        };
        if better {
            a.best = Some((m, slot.rank, exact));
        }
    }
}

// The serving layer shares the index through the model's `Arc`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PatternIndex>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::LogicalBlock;
    use crate::select::naive;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use vs2_docmodel::{BBox, Document, TextElement};
    use vs2_nlp::hypernym::Sense;
    use vs2_nlp::stem::stem;

    fn bt(text: &str) -> (Document, BlockText) {
        let mut d = Document::new("ix", 900.0, 50.0);
        let mut elems = Vec::new();
        for (i, w) in text.split_whitespace().enumerate() {
            elems.push(d.push_text(TextElement::word(
                w,
                BBox::new(10.0 + 40.0 * i as f64, 10.0, 35.0, 10.0),
            )));
        }
        let block = LogicalBlock {
            bbox: BBox::new(
                10.0,
                10.0,
                40.0 * text.split_whitespace().count().max(1) as f64,
                10.0,
            ),
            elements: elems,
        };
        let bt = BlockText::build(&d, &block);
        (d, bt)
    }

    /// The dense view of one block query: one slot per entity.
    fn dense(index: &PatternIndex, b: &BlockText) -> Vec<Option<BlockBest>> {
        let mut out = vec![None; index.entity_count()];
        for &(e, best) in index.block_hits(b, &mut index.scratch()) {
            out[e] = Some(best);
        }
        out
    }

    fn assert_same_as_naive(patterns: &BTreeMap<String, Vec<SyntacticPattern>>, text: &str) {
        let (_, b) = bt(text);
        let index = PatternIndex::build(patterns);
        let indexed = dense(&index, &b);
        for (ei, pats) in patterns.values().enumerate() {
            let expected = naive::block_best(pats, &b).map(|(m, exact, specificity)| BlockBest {
                m,
                exact,
                specificity,
            });
            assert_eq!(indexed[ei], expected, "entity #{ei} over {text:?}");
        }
    }

    #[test]
    fn trie_pass_matches_all_entities_at_once() {
        let mut m = BTreeMap::new();
        m.insert(
            "a".to_string(),
            vec![SyntacticPattern::ExactPhrase("total wages".into())],
        );
        m.insert(
            "b".to_string(),
            vec![SyntacticPattern::ExactPhrase("wages income".into())],
        );
        let index = PatternIndex::build(&m);
        assert_eq!(index.phrase_count(), 2);
        let (_, b) = bt("Total wages income due");
        let best = dense(&index, &b);
        assert_eq!(
            best[0].map(|x| x.m),
            Some(PatternMatch { start: 0, end: 2 })
        );
        assert_eq!(
            best[1].map(|x| x.m),
            Some(PatternMatch { start: 1, end: 3 })
        );
        assert_same_as_naive(&m, "Total wages income due");
    }

    #[test]
    fn equal_length_overlap_resolves_by_pattern_rank() {
        // Two patterns of one entity matching overlapping spans of equal
        // length (tokens 0..2 and 1..3): the lower-ranked (earlier)
        // pattern's span must win.
        let mut m = BTreeMap::new();
        m.insert(
            "e".to_string(),
            vec![
                SyntacticPattern::ExactPhrase("wages income".into()),
                SyntacticPattern::ExactPhrase("total wages".into()),
            ],
        );
        let (_, b) = bt("Total wages income due");
        let index = PatternIndex::build(&m);
        let best = dense(&index, &b)[0].unwrap();
        // Rank 0 is "wages income" → span (1, 3), even though (0, 2)
        // starts earlier.
        assert_eq!(best.m, PatternMatch { start: 1, end: 3 });
        assert!(best.exact);
        assert_eq!(best.specificity, 4);
        assert_same_as_naive(&m, "Total wages income due");
    }

    #[test]
    fn duplicate_phrase_registered_by_two_entities() {
        let mut m = BTreeMap::new();
        m.insert(
            "first".to_string(),
            vec![SyntacticPattern::ExactPhrase("amount due".into())],
        );
        m.insert(
            "second".to_string(),
            vec![SyntacticPattern::ExactPhrase("amount due".into())],
        );
        let (_, b) = bt("Total amount due now");
        let index = PatternIndex::build(&m);
        let best = dense(&index, &b);
        let expected = PatternMatch { start: 1, end: 3 };
        assert_eq!(best[0].unwrap().m, expected);
        assert_eq!(best[1].unwrap().m, expected);
        assert_same_as_naive(&m, "Total amount due now");
    }

    #[test]
    fn window_anchor_token_appearing_twice() {
        // The stem anchor ("warehouse") appears in two separate noun
        // phrases; the winner must be the longest window, with ties
        // broken towards the earliest span.
        let mut m = BTreeMap::new();
        m.insert(
            "e".to_string(),
            vec![SyntacticPattern::Window {
                kind: Some(PhraseKind::Np),
                required: vec![Feature::Stem(stem("warehouse"))],
            }],
        );
        let text = "spacious warehouse available , warehouse parking lot nearby";
        let (_, b) = bt(text);
        let index = PatternIndex::build(&m);
        let naive_best = naive::block_best(&m["e"], &b).unwrap();
        let best = dense(&index, &b)[0].unwrap();
        assert_eq!(best.m, naive_best.0, "winning span must match naive");
        assert_eq!(best.specificity, 1);
        assert_same_as_naive(&m, text);
    }

    #[test]
    fn repeated_first_token_emits_unique_spans() {
        // Regression for the dedup hardening: a phrase whose first token
        // repeats inside the match window must yield strictly sorted,
        // unique spans from both matchers.
        let p = SyntacticPattern::ExactPhrase("pay pay stub".into());
        let (_, b) = bt("pay pay pay stub");
        let ms = p.matches(&b);
        let mut sorted = ms.clone();
        crate::select::pattern::dedup_matches(&mut sorted);
        assert_eq!(ms, sorted, "matches must be sorted and unique");
        assert!(!ms.is_empty());
        let mut m = BTreeMap::new();
        m.insert("e".to_string(), vec![p]);
        assert_same_as_naive(&m, "pay pay pay stub");
    }

    #[test]
    fn anchor_prefilter_skips_absent_features() {
        let mut m = BTreeMap::new();
        m.insert(
            "geo".to_string(),
            vec![SyntacticPattern::Window {
                kind: None,
                required: vec![Feature::Geo],
            }],
        );
        m.insert(
            "measure".to_string(),
            vec![SyntacticPattern::Window {
                kind: Some(PhraseKind::Np),
                required: vec![Feature::Cd, Feature::sense(Sense::Measure)],
            }],
        );
        // A block with neither geocodes nor numbers: both buckets skip.
        assert_same_as_naive(&m, "spacious warehouse with parking");
        // And blocks that do carry the anchors still match.
        assert_same_as_naive(&m, "4 beds 2 baths");
        assert_same_as_naive(&m, "1458 Maple Ave Columbus OH 43210");
    }

    #[test]
    fn ocr_merge_and_split_branches_match_naive() {
        let mut m = BTreeMap::new();
        m.insert(
            "e".to_string(),
            vec![SyntacticPattern::ExactPhrase("total wages income".into())],
        );
        // OCR merged two needle words into one token.
        assert_same_as_naive(&m, "totalwages income due");
        // OCR split one needle word across two tokens.
        assert_same_as_naive(&m, "total wa ges income");
        // Edit-one corruption.
        assert_same_as_naive(&m, "totel wages income");
    }

    #[test]
    fn empty_block_yields_nothing() {
        let m: BTreeMap<String, Vec<SyntacticPattern>> = [(
            "e".to_string(),
            vec![SyntacticPattern::ExactPhrase("x".into())],
        )]
        .into_iter()
        .collect();
        let (_, b) = bt("");
        let index = PatternIndex::build(&m);
        assert_eq!(dense(&index, &b), vec![None]);
    }

    #[test]
    fn hits_are_sparse_ascending_and_reset_only_what_they_touch() {
        // Ten entities; the block touches entities 7 and 2 (in that scan
        // order) and nothing else.
        let m: BTreeMap<String, Vec<SyntacticPattern>> = (0..10)
            .map(|i| {
                let phrase = match i {
                    2 => "wages income".to_string(),
                    7 => "total wages".to_string(),
                    _ => format!("field{i} label"),
                };
                (format!("e{i}"), vec![SyntacticPattern::ExactPhrase(phrase)])
            })
            .collect();
        let index = PatternIndex::build(&m);
        let (_, b) = bt("Total wages income due");
        let (_, none) = bt("nothing to see");
        let mut scratch = index.scratch();
        for _ in 0..3 {
            let hits: Vec<usize> = index
                .block_hits(&b, &mut scratch)
                .iter()
                .map(|h| h.0)
                .collect();
            assert_eq!(hits, vec![2, 7]);
            assert!(index.block_hits(&none, &mut scratch).is_empty());
        }
        // Two slots reset per matching block, none for the empty one.
        assert_eq!(scratch.slots_reset(), 6);
        // A default scratch grows to the index on first use and agrees.
        let mut fresh = ScanScratch::default();
        assert_eq!(
            index.block_hits(&b, &mut fresh).to_vec(),
            index.block_hits(&b, &mut scratch).to_vec()
        );
    }

    /// Characters whose bytes stress the signature: letters and digits
    /// that share a class under `& 31` (`'0'`/`'p'`/`'P'`, `'1'`/`'q'`,
    /// `'@'`/`'`'`), and multi-byte characters — `'é'` and `'ß'` share
    /// their lead byte, so swapping one for the other is one byte edit.
    const ALPHABET: [char; 14] = [
        'a', 'e', 'p', 'P', 'q', '0', '1', '@', '`', 's', 'é', 'ß', 'ñ', '€',
    ];

    fn word_of(ix: &[u32]) -> String {
        ix.iter().map(|&i| ALPHABET[i as usize]).collect()
    }

    /// `want` with one char edit (`kind` 0: none, 1: substitute, 2:
    /// insert, 3: delete) at `at`.
    fn edited(want: &str, kind: u32, at: u32, with: u32) -> String {
        let mut chars: Vec<char> = want.chars().collect();
        let c = ALPHABET[with as usize];
        match kind {
            1 if !chars.is_empty() => {
                let at = at as usize % chars.len();
                chars[at] = c;
            }
            2 => chars.insert(at as usize % (chars.len() + 1), c),
            3 if !chars.is_empty() => {
                chars.remove(at as usize % chars.len());
            }
            _ => {}
        }
        chars.into_iter().collect()
    }

    /// The probe filter the scan applies before [`word_matches`]: the
    /// length bucket, the first/last byte test and the signature test.
    fn filter_passes(have: &str, want: &str) -> bool {
        !want.is_empty()
            && in_bucket(want.len(), have.len())
            && Probe::new(want, 0, 0).may_match(have.as_bytes(), byte_signature(have.as_bytes()))
    }

    type EditCase = (Vec<u32>, u32, u32, u32);

    fn edit_case() -> impl Strategy<Value = EditCase> {
        (
            vec(0u32..ALPHABET.len() as u32, 1..9),
            0u32..4,
            0u32..16,
            0u32..ALPHABET.len() as u32,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The prefilter never rejects a pair the comparator accepts, in
        /// either direction, over short and long words, colliding byte
        /// classes and non-ASCII bytes.
        #[test]
        fn probe_filter_is_sound(case in edit_case()) {
            let (word, kind, at, with) = case;
            let want = word_of(&word);
            let have = edited(&want, kind, at, with);
            for (a, b) in [(&have, &want), (&want, &have)] {
                if word_matches(a, b) {
                    prop_assert!(filter_passes(a, b), "{a:?} vs {b:?}");
                }
            }
        }
    }

    /// The edit generator is not vacuous: it yields matches below and at
    /// four bytes, and matches through a non-ASCII byte edit.
    #[test]
    fn probe_filter_cases_cover_short_long_and_non_ascii_matches() {
        let mut rng = proptest::TestRng::from_label("index::probe_filter");
        let (mut short, mut long, mut non_ascii, mut edits) = (0, 0, 0, 0);
        for _ in 0..4096 {
            let (word, kind, at, with) = edit_case().generate(&mut rng);
            let want = word_of(&word);
            let have = edited(&want, kind, at, with);
            if !word_matches(&have, &want) {
                continue;
            }
            assert!(filter_passes(&have, &want));
            match want.len() {
                0..4 => short += 1,
                _ => long += 1,
            }
            if have != want {
                edits += 1;
                if !want.is_ascii() && have.len() == want.len() {
                    non_ascii += 1;
                }
            }
        }
        assert!(short >= 100 && long >= 500, "short {short}, long {long}");
        assert!(
            edits >= 500 && non_ascii >= 20,
            "edits {edits}, non-ASCII {non_ascii}"
        );
    }

    #[test]
    fn probe_stays_sixteen_bytes() {
        assert!(std::mem::size_of::<Probe>() <= 16);
    }
}
