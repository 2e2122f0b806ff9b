//! Word embeddings and cosine similarity.
//!
//! The paper uses "a pre-trained Word2Vec embedding to compute the cosine
//! similarities" of the semantic-merging step (Eq. 1) and of the
//! interest-point / disambiguation objectives. A pre-trained model is not
//! shippable here, so two substitutes are provided (see DESIGN.md):
//!
//! * [`LexiconEmbedding`] — deterministic vectors where words of the same
//!   lexicon [`Topic`](crate::lexicon::Topic) share a topic centroid, so
//!   "same semantic field ⇒ high cosine" holds by construction. This is
//!   the default embedder of the reproduction.
//! * [`TrainedEmbedding`] — a PPMI + orthogonal-iteration factorisation
//!   trained on a corpus (the holdout corpus in practice), demonstrating
//!   the full learn-from-text path.

use crate::lexicon::{self, Topic, ALL_TOPICS};
use std::borrow::{Borrow, Cow};
use std::collections::HashMap;

/// Embedding dimensionality.
pub const DIM: usize = 32;

/// A dense embedding vector.
pub type Vector = [f64; DIM];

/// Anything that can map a word to a vector.
pub trait Embedder {
    /// Embeds a single (lower-cased) word.
    fn embed(&self, word: &str) -> Vector;

    /// Embeds a bag of words as the L2-normalised mean of the word
    /// vectors; the zero vector for an empty bag.
    fn embed_text<'a, I: IntoIterator<Item = &'a str>>(&self, words: I) -> Vector
    where
        Self: Sized,
    {
        mean_normalized(words.into_iter().map(|w| self.embed(w)))
    }

    /// [`embed`](Self::embed) of each of `texts`, in order. An embedder
    /// bound to one document may hand back a column it built once for
    /// that document's texts; this default computes it per call.
    fn embed_column<T: AsRef<str>>(&self, texts: &[T]) -> Cow<'_, [Vector]>
    where
        Self: Sized,
    {
        Cow::Owned(texts.iter().map(|t| self.embed(t.as_ref())).collect())
    }
}

/// The L2-normalised mean of `vectors`, summed in iteration order; the
/// zero vector when there are none. [`Embedder::embed_text`] is this over
/// its words' vectors, so a caller holding the word vectors already (the
/// segmentation fast path's per-element column) gets the same bits.
pub fn mean_normalized<V: Borrow<Vector>>(vectors: impl IntoIterator<Item = V>) -> Vector {
    let mut acc = [0.0; DIM];
    let mut n = 0usize;
    for v in vectors {
        let v = v.borrow();
        for i in 0..DIM {
            acc[i] += v[i];
        }
        n += 1;
    }
    if n == 0 {
        return acc;
    }
    normalize(&mut acc);
    acc
}

/// A vector with its squared norm, summed in the order [`cosine`] sums
/// it: a cosine between two `Normed`s recomputes only the dot product
/// and equals [`cosine`] of the bare vectors bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normed {
    /// The vector.
    pub v: Vector,
    /// `Σ v[i]²` in index order.
    pub sq_norm: f64,
}

impl Normed {
    /// Pairs `v` with its squared norm.
    pub fn new(v: Vector) -> Self {
        let mut sq_norm = 0.0;
        for x in &v {
            sq_norm += x * x;
        }
        Self { v, sq_norm }
    }

    /// [`cosine`] of the two vectors.
    pub fn cosine(&self, other: &Normed) -> f64 {
        let mut dot = 0.0;
        for i in 0..DIM {
            dot += self.v[i] * other.v[i];
        }
        if self.sq_norm <= 0.0 || other.sq_norm <= 0.0 {
            0.0
        } else {
            dot / (self.sq_norm.sqrt() * other.sq_norm.sqrt())
        }
    }
}

/// Cosine similarity of two vectors; 0 when either is the zero vector.
pub fn cosine(a: &Vector, b: &Vector) -> f64 {
    let (mut dot, mut na, mut nb) = (0.0, 0.0, 0.0);
    for i in 0..DIM {
        dot += a[i] * b[i];
        na += a[i] * a[i];
        nb += b[i] * b[i];
    }
    if na <= 0.0 || nb <= 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

fn normalize(v: &mut Vector) {
    let n: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if n > 0.0 {
        for x in v.iter_mut() {
            *x /= n;
        }
    }
}

/// SplitMix64 — deterministic pseudo-random stream for hash vectors.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Deterministic unit vector derived from a seed.
fn hash_vector(seed: u64) -> Vector {
    let mut state = seed;
    let mut v = [0.0; DIM];
    for x in v.iter_mut() {
        // Map to [-1, 1).
        *x = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0;
    }
    normalize(&mut v);
    v
}

/// The default embedder: topic centroid blended with per-word noise.
///
/// Words sharing a lexicon topic get cosine ≈ `1 - 2·MIX` with each other
/// and ≈ 0 with other topics (random 32-dimensional centroids are nearly
/// orthogonal). Out-of-lexicon words embed as pure hash noise. Numeric
/// tokens share a dedicated pseudo-topic so digit strings cluster.
#[derive(Debug, Clone, Copy, Default)]
pub struct LexiconEmbedding;

/// Weight of the per-word component in a topic word's vector.
const MIX: f64 = 0.25;

/// Mutually orthonormal topic centroids (plus one extra for the numeric
/// pseudo-topic), built once by Gram-Schmidt over hash-seeded vectors so
/// cross-topic cosine is exactly zero before the per-word noise is mixed
/// in.
fn topic_centroids() -> &'static Vec<Vector> {
    use std::sync::OnceLock;
    static CENTROIDS: OnceLock<Vec<Vector>> = OnceLock::new();
    CENTROIDS.get_or_init(|| {
        let n = ALL_TOPICS.len() + 1;
        assert!(n <= DIM, "more topics than embedding dimensions");
        let mut out: Vec<Vector> = Vec::with_capacity(n);
        let mut seed = 0x5EED_0000_0000_0000u64;
        while out.len() < n {
            let mut v = hash_vector(seed);
            seed = seed.wrapping_add(0x9E3779B97F4A7C15);
            for prev in &out {
                let dot: f64 = (0..DIM).map(|i| v[i] * prev[i]).sum();
                for i in 0..DIM {
                    v[i] -= dot * prev[i];
                }
            }
            let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 1e-6 {
                for x in v.iter_mut() {
                    *x /= norm;
                }
                out.push(v);
            }
        }
        out
    })
}

impl LexiconEmbedding {
    fn centroid_of(topic: Topic) -> Vector {
        let idx = ALL_TOPICS.iter().position(|t| *t == topic).unwrap_or(0);
        topic_centroids()[idx]
    }

    fn numeric_centroid() -> Vector {
        topic_centroids()[ALL_TOPICS.len()]
    }
}

impl Embedder for LexiconEmbedding {
    fn embed(&self, word: &str) -> Vector {
        // Lower only when needed: block transcriptions are mostly
        // already-normalised lower-case words, so the common case is
        // zero-alloc.
        let needs_lowering = !word.is_ascii() || word.bytes().any(|b| b.is_ascii_uppercase());
        let lowered;
        let w: &str = if needs_lowering {
            lowered = word.to_lowercase();
            &lowered
        } else {
            word
        };
        let word_noise = hash_vector(fnv1a(w));
        let centroid = if w
            .chars()
            .all(|c| c.is_ascii_digit() || c == ',' || c == '.')
            && w.chars().any(|c| c.is_ascii_digit())
        {
            Some(Self::numeric_centroid())
        } else {
            lexicon::topic_of_fuzzy(w).map(Self::centroid_of)
        };
        match centroid {
            Some(c) => {
                let mut v = [0.0; DIM];
                for i in 0..DIM {
                    v[i] = (1.0 - MIX) * c[i] + MIX * word_noise[i];
                }
                normalize(&mut v);
                v
            }
            None => word_noise,
        }
    }
}

/// An embedding learned from a corpus by PPMI factorisation.
///
/// Construction: count co-occurrences in a symmetric window, build the
/// positive pointwise-mutual-information matrix, then extract the top
/// [`DIM`] spectral directions by orthogonal (subspace) iteration. Word
/// vectors are the projections onto that basis. Out-of-vocabulary words
/// fall back to hash vectors so similarity queries never fail.
#[derive(Debug, Clone)]
pub struct TrainedEmbedding {
    vocab: HashMap<String, usize>,
    vectors: Vec<Vector>,
}

impl TrainedEmbedding {
    /// Trains on tokenised sentences with the given co-occurrence window.
    ///
    /// Deterministic: the subspace iteration starts from hash-seeded
    /// vectors. Vocabulary is every distinct word in the corpus.
    pub fn train(sentences: &[Vec<String>], window: usize) -> Self {
        let mut vocab: HashMap<String, usize> = HashMap::new();
        for s in sentences {
            for w in s {
                let next = vocab.len();
                vocab.entry(w.to_lowercase()).or_insert(next);
            }
        }
        let n = vocab.len();
        if n == 0 {
            return Self {
                vocab,
                vectors: Vec::new(),
            };
        }

        // Co-occurrence counts.
        let mut counts = vec![0.0f64; n * n];
        let mut word_count = vec![0.0f64; n];
        let mut total = 0.0f64;
        for s in sentences {
            let ids: Vec<usize> = s.iter().map(|w| vocab[&w.to_lowercase()]).collect();
            for (i, &a) in ids.iter().enumerate() {
                let hi = (i + window + 1).min(ids.len());
                for &b in &ids[i + 1..hi] {
                    counts[a * n + b] += 1.0;
                    counts[b * n + a] += 1.0;
                    word_count[a] += 1.0;
                    word_count[b] += 1.0;
                    total += 2.0;
                }
            }
        }
        if total == 0.0 {
            total = 1.0;
        }

        // PPMI.
        let mut m = vec![0.0f64; n * n];
        for a in 0..n {
            for b in 0..n {
                let c = counts[a * n + b];
                if c > 0.0 {
                    let pmi = ((c * total) / (word_count[a] * word_count[b]).max(1e-12)).ln();
                    if pmi > 0.0 {
                        m[a * n + b] = pmi;
                    }
                }
            }
        }

        // Orthogonal iteration for the top-DIM eigenspace of the symmetric
        // PPMI matrix.
        let k = DIM.min(n);
        let mut q: Vec<Vec<f64>> = (0..k)
            .map(|j| {
                let v = hash_vector(0xABCD_EF00 ^ j as u64);
                let mut col = vec![0.0; n];
                for (i, slot) in col.iter_mut().enumerate() {
                    *slot = v[i % DIM] + 1e-3 * (i as f64 + 1.0) / n as f64;
                }
                col
            })
            .collect();
        for _ in 0..12 {
            // Z = M * Q
            let mut z: Vec<Vec<f64>> = vec![vec![0.0; n]; k];
            for (j, zj) in z.iter_mut().enumerate() {
                for row in 0..n {
                    let mut acc = 0.0;
                    for col in 0..n {
                        acc += m[row * n + col] * q[j][col];
                    }
                    zj[row] = acc;
                }
            }
            // Q = orth(Z) by modified Gram-Schmidt.
            for j in 0..k {
                for prev in 0..j {
                    let (head, tail) = z.split_at_mut(j);
                    let prev_row = &head[prev];
                    let row = &mut tail[0];
                    let dot: f64 = row.iter().zip(prev_row).map(|(x, y)| x * y).sum();
                    for (x, y) in row.iter_mut().zip(prev_row) {
                        *x -= dot * y;
                    }
                }
                let norm: f64 = z[j].iter().map(|x| x * x).sum::<f64>().sqrt();
                if norm > 1e-12 {
                    for x in z[j].iter_mut() {
                        *x /= norm;
                    }
                } else {
                    // Degenerate direction — reseed deterministically.
                    let v = hash_vector(0xFEED_0000 ^ j as u64);
                    for (i, slot) in z[j].iter_mut().enumerate() {
                        *slot = v[i % DIM];
                    }
                }
            }
            q = z;
        }

        // Word vectors: rows of M projected onto the basis.
        let mut vectors = vec![[0.0f64; DIM]; n];
        for (w, vec) in vectors.iter_mut().enumerate() {
            for (j, qj) in q.iter().enumerate().take(k) {
                let mut acc = 0.0;
                for col in 0..n {
                    acc += m[w * n + col] * qj[col];
                }
                vec[j] = acc;
            }
            normalize(vec);
        }
        Self { vocab, vectors }
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// `true` when the word was seen during training.
    pub fn contains(&self, word: &str) -> bool {
        self.vocab.contains_key(&word.to_lowercase())
    }
}

impl Embedder for TrainedEmbedding {
    fn embed(&self, word: &str) -> Vector {
        match self.vocab.get(&word.to_lowercase()) {
            Some(&i) => self.vectors[i],
            None => hash_vector(fnv1a(&word.to_lowercase())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_basics() {
        let a = hash_vector(1);
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-12);
        let zero = [0.0; DIM];
        assert_eq!(cosine(&a, &zero), 0.0);
    }

    #[test]
    fn hash_vectors_are_deterministic_and_spread() {
        assert_eq!(hash_vector(42), hash_vector(42));
        let a = hash_vector(1);
        let b = hash_vector(2);
        assert!(
            cosine(&a, &b).abs() < 0.6,
            "random vectors nearly orthogonal"
        );
    }

    #[test]
    fn same_topic_words_are_similar() {
        let e = LexiconEmbedding;
        let sim_same = cosine(&e.embed("concert"), &e.embed("workshop"));
        let sim_diff = cosine(&e.embed("concert"), &e.embed("acres"));
        assert!(sim_same > 0.7, "same-topic sim = {sim_same}");
        assert!(sim_diff < 0.5, "cross-topic sim = {sim_diff}");
        assert!(sim_same > sim_diff + 0.3);
    }

    #[test]
    fn numbers_cluster_together() {
        let e = LexiconEmbedding;
        let sim = cosine(&e.embed("1,250"), &e.embed("43210"));
        assert!(sim > 0.7, "numeric sim = {sim}");
    }

    #[test]
    fn unknown_words_are_dissimilar() {
        let e = LexiconEmbedding;
        let sim = cosine(&e.embed("zorblax"), &e.embed("vonkarma"));
        assert!(sim.abs() < 0.6);
    }

    #[test]
    fn case_insensitive() {
        let e = LexiconEmbedding;
        assert_eq!(e.embed("Concert"), e.embed("concert"));
    }

    #[test]
    fn normed_cosine_is_bit_identical() {
        let zero = Normed::new([0.0; DIM]);
        for seed in 0..64u64 {
            let (a, b) = (hash_vector(seed), hash_vector(seed * 7 + 3));
            let mut scaled = a;
            scaled
                .iter_mut()
                .for_each(|x| *x *= 1e-3 * (seed + 1) as f64);
            for (x, y) in [(a, b), (a, a), (scaled, b), (b, scaled)] {
                let want = cosine(&x, &y);
                let got = Normed::new(x).cosine(&Normed::new(y));
                assert_eq!(got.to_bits(), want.to_bits(), "seed {seed}");
            }
            assert_eq!(Normed::new(a).cosine(&zero), cosine(&a, &[0.0; DIM]));
        }
    }

    #[test]
    fn mean_normalized_is_embed_text() {
        let e = LexiconEmbedding;
        let words = ["concert", "acres", "Main", "2,465", "zorblax"];
        let column: Vec<Vector> = words.iter().map(|w| e.embed(w)).collect();
        assert_eq!(mean_normalized(&column), e.embed_text(words));
        assert_eq!(mean_normalized(&column[..0]), [0.0; DIM]);
    }

    #[test]
    fn embed_column_is_embed_of_each_text() {
        let e = LexiconEmbedding;
        let texts = ["concert", "Main St", "2,465", ""];
        let column = e.embed_column(&texts);
        assert_eq!(column.len(), texts.len());
        for (v, t) in column.iter().zip(texts) {
            assert_eq!(*v, e.embed(t), "{t}");
        }
    }

    #[test]
    fn embed_text_mean() {
        let e = LexiconEmbedding;
        let v = e.embed_text(["concert", "workshop"]);
        assert!(cosine(&v, &e.embed("festival")) > 0.6);
        let empty = e.embed_text(std::iter::empty());
        assert_eq!(empty, [0.0; DIM]);
    }

    fn toy_corpus() -> Vec<Vec<String>> {
        let mut corpus = Vec::new();
        for _ in 0..30 {
            corpus.push(
                "the concert starts at seven tonight"
                    .split_whitespace()
                    .map(String::from)
                    .collect(),
            );
            corpus.push(
                "the workshop starts at nine tonight"
                    .split_whitespace()
                    .map(String::from)
                    .collect(),
            );
            corpus.push(
                "spacious warehouse with parking available"
                    .split_whitespace()
                    .map(String::from)
                    .collect(),
            );
            corpus.push(
                "spacious office with parking available"
                    .split_whitespace()
                    .map(String::from)
                    .collect(),
            );
        }
        corpus
    }

    #[test]
    fn trained_embedding_learns_distributional_similarity() {
        let emb = TrainedEmbedding::train(&toy_corpus(), 3);
        assert!(emb.vocab_size() >= 10);
        assert!(emb.contains("concert"));
        // "concert" and "workshop" appear in identical contexts;
        // "warehouse" lives in a different context family.
        let cw = cosine(&emb.embed("concert"), &emb.embed("workshop"));
        let ch = cosine(&emb.embed("concert"), &emb.embed("warehouse"));
        assert!(
            cw > ch,
            "distributional: concert~workshop {cw} vs ~warehouse {ch}"
        );
    }

    #[test]
    fn trained_embedding_is_deterministic() {
        let a = TrainedEmbedding::train(&toy_corpus(), 3);
        let b = TrainedEmbedding::train(&toy_corpus(), 3);
        assert_eq!(a.embed("concert"), b.embed("concert"));
    }

    #[test]
    fn trained_embedding_oov_fallback() {
        let emb = TrainedEmbedding::train(&toy_corpus(), 3);
        assert!(!emb.contains("zorblax"));
        let v = emb.embed("zorblax");
        assert!(v.iter().any(|x| *x != 0.0));
    }

    #[test]
    fn empty_corpus() {
        let emb = TrainedEmbedding::train(&[], 3);
        assert_eq!(emb.vocab_size(), 0);
        let v = emb.embed("anything");
        assert!(v.iter().any(|x| *x != 0.0));
    }
}
