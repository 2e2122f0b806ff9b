//! Tokenisation of transcribed document text.
//!
//! VS2-Select normalises the transcription of every logical block before
//! pattern search (§5.2): tokens are split on whitespace, punctuation is
//! detached, and a lower-cased normal form is retained alongside the raw
//! surface form (the raw form drives capitalisation cues in the POS tagger
//! and NER).
//!
//! Two entry points share one splitting core:
//!
//! * [`tokenize`] materialises owned [`Token`]s — the historical API.
//! * [`tokenize_each`] streams `(raw, norm)` string slices into a sink
//!   without allocating per token, so an interner can deduplicate them
//!   into a per-document arena (`vs2_docmodel::arena`).
//!
//! Both bump a thread-local call counter ([`tokenize_call_count`]) used
//! by conformance tests to pin how many times a pipeline path
//! re-tokenises the same text.

use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static TOKENIZE_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Number of `tokenize`/`tokenize_each` invocations on this thread since
/// it started. Conformance tests diff this across a pipeline call to pin
/// single-tokenisation guarantees.
pub fn tokenize_call_count() -> u64 {
    TOKENIZE_CALLS.with(Cell::get)
}

/// A single token with its surface and normalised forms.
///
/// Both forms are shared `Arc<str>` slices: cloning a token (or a column
/// of tokens) is a pair of reference-count bumps, not string copies, so
/// interned per-document token tables can hand out cheap copies.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Token {
    /// Surface form exactly as transcribed.
    pub raw: Arc<str>,
    /// Lower-cased form with surrounding punctuation stripped.
    pub norm: Arc<str>,
}

impl Token {
    /// Creates a token, deriving the normal form.
    pub fn new(raw: impl Into<String>) -> Self {
        let raw = raw.into();
        let norm = raw
            .trim_matches(|c: char| !c.is_alphanumeric())
            .to_lowercase();
        Self {
            raw: Arc::from(raw.as_str()),
            norm: Arc::from(norm.as_str()),
        }
    }

    /// Creates a token from already-derived parts (e.g. an interner that
    /// computed the normal form once per distinct surface string).
    pub fn from_parts(raw: Arc<str>, norm: Arc<str>) -> Self {
        Self { raw, norm }
    }

    /// `true` when the surface form starts with an uppercase letter.
    pub fn is_capitalized(&self) -> bool {
        self.raw.chars().next().is_some_and(|c| c.is_uppercase())
    }

    /// `true` when the surface form is entirely uppercase letters.
    pub fn is_all_caps(&self) -> bool {
        let mut has_alpha = false;
        for c in self.raw.chars() {
            if c.is_alphabetic() {
                has_alpha = true;
                if !c.is_uppercase() {
                    return false;
                }
            }
        }
        has_alpha
    }

    /// `true` when the normal form parses as a number (integers, decimals
    /// and digit groups like `2,465`): with its commas dropped it is a
    /// non-empty `f64` literal as `str::parse` reads one, which takes
    /// `inf`, `infinity` and `nan` in any case, signs and exponents too.
    /// Checked over the bytes, without building the comma-free copy.
    pub fn is_numeric(&self) -> bool {
        is_f64_literal(self.norm.bytes().filter(|&b| b != b','))
    }

    /// `true` when the token mixes digits and letters (e.g. `7pm`, `3rd`).
    pub fn is_alphanumeric_mix(&self) -> bool {
        let has_digit = self.norm.chars().any(|c| c.is_ascii_digit());
        let has_alpha = self.norm.chars().any(|c| c.is_alphabetic());
        has_digit && has_alpha
    }
}

/// Whether `bytes` spell a string `str::parse::<f64>` accepts:
/// `[+-]?(inf|infinity|nan)` in any ASCII case, or
/// `[+-]?(D+|D+\.D*|D*\.D+)([eE][+-]?D+)?` over ASCII digits `D`.
fn is_f64_literal(mut bytes: impl Iterator<Item = u8>) -> bool {
    let mut next = bytes.next();
    if matches!(next, Some(b'+' | b'-')) {
        next = bytes.next();
    }
    let Some(first) = next else {
        return false;
    };
    if first.is_ascii_alphabetic() {
        let mut word = [0u8; 8];
        let mut len = 0;
        for b in std::iter::once(first).chain(bytes) {
            if len == word.len() {
                return false;
            }
            word[len] = b.to_ascii_lowercase();
            len += 1;
        }
        return matches!(&word[..len], b"inf" | b"infinity" | b"nan");
    }
    let mut digits = 0;
    next = Some(first);
    while next.is_some_and(|b| b.is_ascii_digit()) {
        digits += 1;
        next = bytes.next();
    }
    if next == Some(b'.') {
        next = bytes.next();
        while next.is_some_and(|b| b.is_ascii_digit()) {
            digits += 1;
            next = bytes.next();
        }
    }
    if digits == 0 {
        return false;
    }
    if matches!(next, Some(b'e' | b'E')) {
        next = bytes.next();
        if matches!(next, Some(b'+' | b'-')) {
            next = bytes.next();
        }
        let mut exponent = 0;
        while next.is_some_and(|b| b.is_ascii_digit()) {
            exponent += 1;
            next = bytes.next();
        }
        if exponent == 0 {
            return false;
        }
    }
    next.is_none()
}

/// Splits text into word tokens. Whitespace separates tokens; sentence
/// punctuation (`.,;:!?"()[]{}`) is split off into its own tokens, while
/// word-internal punctuation (hyphens, apostrophes, `@`, `/`, `$`) is kept
/// so emails, phone numbers, prices and dates survive as single tokens.
pub fn tokenize(text: &str) -> Vec<Token> {
    let mut out = Vec::new();
    let mut scratch = String::new();
    tokenize_each(text, &mut scratch, |raw, norm| {
        out.push(Token {
            raw: Arc::from(raw),
            norm: Arc::from(norm),
        });
    });
    out
}

/// Streams the tokens of `text` into `sink` as `(raw, norm)` slices
/// without allocating per token. `raw` always borrows from `text`; `norm`
/// borrows from `text` when normalisation is the identity, or from
/// `scratch` (a caller-owned reusable buffer) when lowering was needed.
///
/// The split and the normal form are byte-identical to [`tokenize`]: the
/// two share this routine.
pub fn tokenize_each(text: &str, scratch: &mut String, mut sink: impl FnMut(&str, &str)) {
    TOKENIZE_CALLS.with(|c| c.set(c.get() + 1));
    for chunk in text.split_whitespace() {
        // Strip leading detachable punctuation; detachables are never
        // alphanumeric, so their normal form is always empty.
        let mut s = chunk;
        while let Some(c) = s.chars().next() {
            if is_detachable(c) {
                sink(&s[..c.len_utf8()], "");
                s = &s[c.len_utf8()..];
            } else {
                break;
            }
        }
        // Locate where trailing detachable punctuation starts. The
        // `keeps_trailing` check runs against each progressively shorter
        // prefix, exactly as the historical strip-loop did.
        let mut end = s.len();
        loop {
            let tail = &s[..end];
            match tail.chars().last() {
                Some(c) if is_detachable(c) && !keeps_trailing(tail, c) => {
                    end -= c.len_utf8();
                }
                _ => break,
            }
        }
        let body = &s[..end];
        if !body.is_empty() {
            sink(body, norm_of(body, scratch));
        }
        // Emit the detached trailing punctuation left-to-right (the
        // historical path collected right-to-left, then reversed).
        let mut rest = &s[end..];
        while let Some(c) = rest.chars().next() {
            sink(&rest[..c.len_utf8()], "");
            rest = &rest[c.len_utf8()..];
        }
    }
}

/// Derives the normal form of `raw` into either a subslice of `raw`
/// itself (ASCII, already lower-case — the common case, zero-alloc) or
/// `scratch`. Matches `raw.trim_matches(!alphanumeric).to_lowercase()`
/// byte for byte, including full Unicode lowering on the non-ASCII path.
fn norm_of<'a>(raw: &'a str, scratch: &'a mut String) -> &'a str {
    let trimmed = raw.trim_matches(|c: char| !c.is_alphanumeric());
    if trimmed.is_ascii() {
        if trimmed.bytes().any(|b| b.is_ascii_uppercase()) {
            scratch.clear();
            scratch.push_str(trimmed);
            scratch.make_ascii_lowercase();
            scratch.as_str()
        } else {
            trimmed
        }
    } else {
        // Full `str::to_lowercase` for exact parity (final sigma,
        // titlecase chars); rare enough that the allocation is noise.
        let lowered = trimmed.to_lowercase();
        scratch.clear();
        scratch.push_str(&lowered);
        scratch.as_str()
    }
}

fn is_detachable(c: char) -> bool {
    matches!(
        c,
        '.' | ',' | ';' | ':' | '!' | '?' | '"' | '\'' | '(' | ')' | '[' | ']' | '{' | '}'
    )
}

/// A trailing `.` stays attached when the token looks like an abbreviation
/// or decimal (`p.m.`, `St.`, `2.5`), i.e. it contains another `.` or a
/// digit right before it.
fn keeps_trailing(s: &str, c: char) -> bool {
    if c != '.' {
        return false;
    }
    let body = &s[..s.len() - 1];
    body.contains('.') || body.chars().last().is_some_and(|p| p.is_ascii_digit())
}

/// Joins tokens back into a normalised string (lower-cased words separated
/// by single spaces, punctuation dropped). Used for cosine-similarity text
/// comparisons where punctuation is noise.
pub fn normalize_join(tokens: &[Token]) -> String {
    tokens
        .iter()
        .filter(|t| !t.norm.is_empty())
        .map(|t| &*t.norm)
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn norms(text: &str) -> Vec<String> {
        tokenize(text)
            .into_iter()
            .map(|t| t.raw.to_string())
            .collect()
    }

    #[test]
    fn splits_on_whitespace() {
        assert_eq!(norms("hello world"), vec!["hello", "world"]);
    }

    #[test]
    fn detaches_sentence_punctuation() {
        assert_eq!(norms("Hello, world!"), vec!["Hello", ",", "world", "!"]);
        assert_eq!(norms("(free)"), vec!["(", "free", ")"]);
    }

    #[test]
    fn keeps_emails_and_phones_whole() {
        assert_eq!(norms("bob@example.com"), vec!["bob@example.com"]);
        assert_eq!(norms("(614) 555-0175"), vec!["(", "614", ")", "555-0175"]);
    }

    #[test]
    fn keeps_decimals_and_abbreviations() {
        assert_eq!(norms("2.5 acres"), vec!["2.5", "acres"]);
        assert_eq!(norms("7 p.m."), vec!["7", "p.m."]);
    }

    #[test]
    fn detaches_final_period_of_sentence() {
        assert_eq!(norms("the end."), vec!["the", "end", "."]);
    }

    #[test]
    fn token_predicates() {
        assert!(Token::new("Hello").is_capitalized());
        assert!(!Token::new("hello").is_capitalized());
        assert!(Token::new("NASA").is_all_caps());
        assert!(!Token::new("NaSA").is_all_caps());
        assert!(Token::new("2,465").is_numeric());
        assert!(Token::new("3.14").is_numeric());
        assert!(!Token::new("pi").is_numeric());
        assert!(Token::new("7pm").is_alphanumeric_mix());
        assert!(!Token::new("seven").is_alphanumeric_mix());
    }

    /// The comma-stripping, allocating definition `is_numeric` replaced.
    fn numeric_by_parse(norm: &str) -> bool {
        let cleaned: String = norm.chars().filter(|c| *c != ',').collect();
        !cleaned.is_empty() && cleaned.parse::<f64>().is_ok()
    }

    fn numeric(norm: &str) -> bool {
        Token::from_parts(Arc::from(norm), Arc::from(norm)).is_numeric()
    }

    /// Pieces that numbers, special values and near misses are made of,
    /// non-ASCII lookalikes included.
    const PIECES: [&str; 28] = [
        "0", "7", "12", ".", ",", "+", "-", "e", "E", "i", "n", "f", "a", "inf", "INF", "Infinity",
        "nan", "NaN", "infinity", "x", " ", "_", "İ", "ı", "١", "²", "ﬁ", "ｅ",
    ];

    #[test]
    fn is_numeric_matches_parse_on_listed_cases() {
        let long = format!("{}.{}e{}", "9".repeat(400), "1".repeat(40), "3".repeat(30));
        let cases = [
            "inf",
            "NaN",
            "infinity",
            "1e5",
            "+1",
            "-.5",
            ",",
            "1,,2",
            "",
            "2,465",
            "3.14",
            "pi",
            "1.",
            ".",
            "1e",
            "1e+",
            "e5",
            "+",
            "-inf",
            "+NaN",
            "InFiNiTy",
            "infinit",
            "infinityy",
            "nan1",
            "1_000",
            "0x10",
            "1e5.0",
            "1.5e-3",
            ",,",
            "-,5",
            "1,e,5",
            "١٢",
            "1²",
            "ınf",
            "İnf",
            "ｉｎｆ",
            "1ｅ5",
            " 1",
            "1 ",
            "++1",
            "1e--5",
            &long,
        ];
        for c in cases {
            assert_eq!(numeric(c), numeric_by_parse(c), "{c:?}");
        }
        // Every string of up to three pieces.
        for a in PIECES {
            for b in PIECES {
                for c in PIECES {
                    for s in [a.to_string(), format!("{a}{b}"), format!("{a}{b}{c}")] {
                        assert_eq!(numeric(&s), numeric_by_parse(&s), "{s:?}");
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]
        #[test]
        fn is_numeric_matches_parse(
            ix in proptest::collection::vec(0usize..PIECES.len(), 0..10),
            any in "\\PC{0,12}",
        ) {
            let pieced: String = ix.iter().map(|&i| PIECES[i]).collect();
            for s in [pieced.as_str(), any.as_str()] {
                proptest::prop_assert_eq!(numeric(s), numeric_by_parse(s), "{:?}", s);
            }
        }
    }

    #[test]
    fn norm_strips_punctuation_and_lowercases() {
        assert_eq!(&*Token::new("\"Hello\"").norm, "hello");
        assert_eq!(&*Token::new("p.m.").norm, "p.m");
    }

    #[test]
    fn normalize_join_drops_bare_punctuation() {
        let toks = tokenize("Hello, World!");
        assert_eq!(normalize_join(&toks), "hello world");
    }

    #[test]
    fn empty_input() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \t\n ").is_empty());
    }

    #[test]
    fn streamed_tokens_match_owned_tokenize() {
        let cases = [
            "Hello, world! Visit bob@example.com at 7 p.m. (RSVP).",
            "Σίσυφος ΣΊΣΥΦΟΣ \"ΤΈΛΟΣ\" 2,465 acres... {x} 'y' [z]:",
            "...  ..a.. 3.14. p.m.. !!",
            "",
        ];
        for text in cases {
            let owned = tokenize(text);
            let mut streamed = Vec::new();
            let mut scratch = String::new();
            tokenize_each(text, &mut scratch, |raw, norm| {
                streamed.push((raw.to_string(), norm.to_string()));
            });
            let owned: Vec<(String, String)> = owned
                .into_iter()
                .map(|t| (t.raw.to_string(), t.norm.to_string()))
                .collect();
            assert_eq!(owned, streamed, "split/norm divergence on {text:?}");
        }
    }

    #[test]
    fn call_counter_counts_each_invocation() {
        let before = tokenize_call_count();
        tokenize("a b c");
        let mut scratch = String::new();
        tokenize_each("d e", &mut scratch, |_, _| {});
        assert_eq!(tokenize_call_count(), before + 2);
    }
}
