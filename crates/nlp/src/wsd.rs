//! Lesk-style word-sense disambiguation.
//!
//! The paper's text-only baseline resolves conflicting entity matches
//! with Lesk (reference [3]), a gloss-overlap disambiguator, and §6.5's
//! ablation A4 swaps VS2's multimodal disambiguation for exactly this.
//! Senses are glossed by bags of words; a candidate context is scored by
//! its (stemmed, stopword-free) overlap with each gloss.

use crate::lexicon::{self, Topic};
use crate::stem::stem;
use crate::stopwords::is_stopword;
use std::collections::{HashMap, HashSet};

/// A gloss-overlap disambiguator with named senses.
#[derive(Debug, Clone, Default)]
pub struct Lesk {
    glosses: HashMap<String, Gloss>,
}

/// One sense's gloss: the set of its words' [`gloss_key`]s. The empty
/// gloss scores 0 against every context, like an unknown sense.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Gloss(HashSet<String>);

impl Gloss {
    /// [`Lesk::score`] against this gloss.
    pub fn score<'a, I: IntoIterator<Item = &'a str>>(&self, context: I) -> f64 {
        let ctx = gloss_set(context);
        let keys: Vec<&str> = ctx.iter().map(String::as_str).collect();
        self.score_keys(&keys)
    }

    /// [`Lesk::score_keys`] against this gloss.
    pub fn score_keys(&self, keys: &[&str]) -> f64 {
        if keys.is_empty() || self.0.is_empty() {
            return 0.0;
        }
        let overlap = keys.iter().filter(|k| self.0.contains(**k)).count();
        overlap as f64 / keys.len() as f64
    }
}

/// The gloss key of one word: its lower-cased stem, or `None` when the
/// lower-cased word is empty or a stopword. Glosses and contexts are
/// both reduced to sets of these keys.
pub fn gloss_key(word: &str) -> Option<String> {
    let w = word.to_lowercase();
    (!w.is_empty() && !is_stopword(&w)).then(|| stem(&w))
}

fn gloss_set<'a, I: IntoIterator<Item = &'a str>>(words: I) -> HashSet<String> {
    words.into_iter().filter_map(gloss_key).collect()
}

impl Lesk {
    /// Creates an empty disambiguator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a disambiguator whose senses are the lexicon topics,
    /// glossed by their word pools — the generic inventory the text-only
    /// baseline uses when nothing task-specific is available.
    pub fn from_lexicon() -> Self {
        let mut l = Self::new();
        for t in lexicon::ALL_TOPICS {
            if t == Topic::Generic {
                continue;
            }
            l.add_gloss(
                format!("{t:?}").to_lowercase(),
                lexicon::words_of(t).iter().copied(),
            );
        }
        l
    }

    /// Adds (or extends) a sense gloss.
    pub fn add_gloss<'a, I: IntoIterator<Item = &'a str>>(
        &mut self,
        sense: impl Into<String>,
        words: I,
    ) {
        self.glosses
            .entry(sense.into())
            .or_default()
            .0
            .extend(gloss_set(words));
    }

    /// Number of senses.
    pub fn sense_count(&self) -> usize {
        self.glosses.len()
    }

    /// Overlap score of a context against one sense's gloss: the number of
    /// shared stems divided by the context size (0 when either is empty,
    /// or the sense is unknown).
    pub fn score<'a, I: IntoIterator<Item = &'a str>>(&self, sense: &str, context: I) -> f64 {
        self.glosses.get(sense).map_or(0.0, |g| g.score(context))
    }

    /// [`Lesk::score`] over a context already reduced to its keys:
    /// `keys` must be the *distinct* [`gloss_key`]s of the context words.
    /// Equal to `score(sense, words)` whenever `keys` is that set.
    pub fn score_keys(&self, sense: &str, keys: &[&str]) -> f64 {
        self.glosses.get(sense).map_or(0.0, |g| g.score_keys(keys))
    }

    /// The glosses by sense, moved out of the disambiguator.
    pub fn into_glosses(self) -> HashMap<String, Gloss> {
        self.glosses
    }

    /// Best-scoring sense for a context; `None` when no sense overlaps at
    /// all. Ties break lexicographically for determinism.
    pub fn best_sense<'a, I: IntoIterator<Item = &'a str> + Clone>(
        &self,
        context: I,
    ) -> Option<(String, f64)> {
        let mut best: Option<(String, f64)> = None;
        let mut senses: Vec<&String> = self.glosses.keys().collect();
        senses.sort();
        for sense in senses {
            let s = self.score(sense, context.clone());
            if s > 0.0 && best.as_ref().is_none_or(|(_, bs)| s > *bs) {
                best = Some((sense.clone(), s));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_counts_stemmed_overlap() {
        let mut l = Lesk::new();
        l.add_gloss("events", ["concert", "festival", "tickets"]);
        // "concerts" stems to "concert".
        let s = l.score("events", ["concerts", "tonight"]);
        assert!(s > 0.0 && s <= 1.0);
        assert_eq!(l.score("missing", ["concert"]), 0.0);
    }

    #[test]
    fn score_keys_equals_score_over_distinct_keys() {
        let mut l = Lesk::new();
        l.add_gloss("events", ["concert", "festival", "tickets"]);
        let words = ["Concerts", "concert", "the", "tonight", ""];
        let mut keys: Vec<String> = words.iter().filter_map(|w| gloss_key(w)).collect();
        keys.sort();
        keys.dedup();
        let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
        for sense in ["events", "missing"] {
            assert_eq!(l.score_keys(sense, &keys), l.score(sense, words));
        }
        assert_eq!(l.score_keys("events", &[]), 0.0);
    }

    #[test]
    fn stopwords_do_not_inflate_scores() {
        let mut l = Lesk::new();
        l.add_gloss("g", ["broker", "the", "and"]);
        let s = l.score("g", ["the", "and", "broker"]);
        assert_eq!(s, 1.0, "context reduces to the single content word");
    }

    #[test]
    fn best_sense_picks_highest() {
        let mut l = Lesk::new();
        l.add_gloss("estate", ["broker", "listing", "acres"]);
        l.add_gloss("events", ["concert", "festival", "stage"]);
        let (sense, _) = l.best_sense(["broker", "listing", "stage"]).unwrap();
        assert_eq!(sense, "estate");
        assert!(l.best_sense(["zzz", "qqq"]).is_none());
    }

    #[test]
    fn lexicon_inventory() {
        let l = Lesk::from_lexicon();
        assert!(l.sense_count() >= 15);
        let (sense, _) = l.best_sense(["acres", "sqft", "beds"]).unwrap();
        assert_eq!(sense, "measure");
    }

    #[test]
    fn deterministic_tie_break() {
        let mut l = Lesk::new();
        l.add_gloss("a", ["word"]);
        l.add_gloss("b", ["word"]);
        let (sense, _) = l.best_sense(["word"]).unwrap();
        assert_eq!(sense, "a");
    }
}
