//! The shared lexical database of the reproduction.
//!
//! The paper leans on several external lexical resources — gazetteers
//! behind the Stanford NER, WordNet hypernyms, VerbNet senses, and the
//! vocabulary implicitly covered by the pre-trained Word2Vec embedding.
//! This module is their offline stand-in: a topic-organised vocabulary
//! that simultaneously drives (a) the gazetteer NER, (b) the lexicon-topic
//! embedding (words of one topic embed near each other), and (c) the
//! synthetic document generators in `vs2-synth`, which draw their surface
//! text from these same pools so the annotators and the generators agree
//! on the vocabulary.

use std::collections::HashMap;
use std::sync::OnceLock;

/// Semantic topic of a lexicon word. Topics are deliberately coarse — they
/// correspond to the semantic fields that the paper's entities live in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Topic {
    /// Given names of people.
    PersonFirst,
    /// Family names of people.
    PersonLast,
    /// Organisation names and suffixes (Inc, LLC, University …).
    Organization,
    /// Event-domain nouns (concert, workshop, seminar …).
    Event,
    /// Time-of-day and scheduling words (pm, noon, doors …).
    Time,
    /// Month names.
    Month,
    /// Weekday names.
    Weekday,
    /// Street-type suffixes (St, Ave, Blvd …).
    StreetSuffix,
    /// City names.
    City,
    /// US state names and postal abbreviations.
    State,
    /// Venue / place nouns (hall, center, park …).
    Place,
    /// Units of measure (acres, sqft, beds …).
    Measure,
    /// Real-estate domain nouns (listing, property, lease …).
    Estate,
    /// Building/structure nouns (building, floor, suite …).
    Structure,
    /// Contact-channel words (phone, email, call …).
    Contact,
    /// Price and money words (price, rent, USD …).
    Price,
    /// Descriptive adjectives used in flyers and posters.
    Descriptive,
    /// Verbs of organising/presenting (VerbNet-like senses live here).
    ActionVerb,
    /// Tax-form vocabulary (wages, deduction, filing …).
    Tax,
    /// Function words and everything else.
    Generic,
}

/// All topics, in a stable order (used to allocate embedding centroids).
pub const ALL_TOPICS: [Topic; 20] = [
    Topic::PersonFirst,
    Topic::PersonLast,
    Topic::Organization,
    Topic::Event,
    Topic::Time,
    Topic::Month,
    Topic::Weekday,
    Topic::StreetSuffix,
    Topic::City,
    Topic::State,
    Topic::Place,
    Topic::Measure,
    Topic::Estate,
    Topic::Structure,
    Topic::Contact,
    Topic::Price,
    Topic::Descriptive,
    Topic::ActionVerb,
    Topic::Tax,
    Topic::Generic,
];

/// Given names (a deliberately diverse, fixed pool).
pub const PERSON_FIRST: &[&str] = &[
    "james",
    "mary",
    "robert",
    "patricia",
    "john",
    "jennifer",
    "michael",
    "linda",
    "david",
    "elizabeth",
    "william",
    "barbara",
    "richard",
    "susan",
    "joseph",
    "jessica",
    "thomas",
    "sarah",
    "carlos",
    "karen",
    "daniel",
    "lisa",
    "matthew",
    "nancy",
    "anthony",
    "betty",
    "aisha",
    "sandra",
    "rahul",
    "ashley",
    "wei",
    "emily",
    "omar",
    "donna",
    "yuki",
    "michelle",
    "priya",
    "carol",
    "diego",
    "amanda",
    "fatima",
    "melissa",
    "ivan",
    "deborah",
    "chen",
    "stephanie",
    "amara",
    "rebecca",
    "kofi",
    "laura",
];

/// Family names.
pub const PERSON_LAST: &[&str] = &[
    "smith",
    "johnson",
    "williams",
    "brown",
    "jones",
    "garcia",
    "miller",
    "davis",
    "rodriguez",
    "martinez",
    "hernandez",
    "lopez",
    "gonzalez",
    "wilson",
    "anderson",
    "thomas",
    "taylor",
    "moore",
    "jackson",
    "martin",
    "lee",
    "perez",
    "thompson",
    "white",
    "harris",
    "sanchez",
    "clark",
    "ramirez",
    "lewis",
    "robinson",
    "walker",
    "young",
    "allen",
    "king",
    "wright",
    "scott",
    "torres",
    "nguyen",
    "hill",
    "flores",
    "green",
    "adams",
    "nelson",
    "baker",
    "hall",
    "rivera",
    "campbell",
    "mitchell",
    "carter",
    "roberts",
    "sarkhel",
    "nandi",
];

/// Organisation head nouns and suffixes.
pub const ORGANIZATION: &[&str] = &[
    "inc",
    "llc",
    "ltd",
    "corp",
    "corporation",
    "company",
    "group",
    "university",
    "college",
    "institute",
    "society",
    "association",
    "foundation",
    "club",
    "council",
    "committee",
    "department",
    "laboratory",
    "realty",
    "properties",
    "brokerage",
    "holdings",
    "partners",
    "agency",
    "bureau",
    "center",
    "chamber",
    "coalition",
    "consortium",
    "guild",
    "league",
    "ministry",
    "network",
    "office",
    "trust",
    "union",
    "ventures",
    "enterprises",
    "studios",
];

/// Event-domain nouns.
pub const EVENT: &[&str] = &[
    "event",
    "concert",
    "workshop",
    "seminar",
    "lecture",
    "meetup",
    "festival",
    "conference",
    "symposium",
    "talk",
    "class",
    "course",
    "session",
    "hackathon",
    "fundraiser",
    "gala",
    "exhibition",
    "fair",
    "show",
    "screening",
    "recital",
    "performance",
    "tournament",
    "webinar",
    "bootcamp",
    "orientation",
    "ceremony",
    "celebration",
    "parade",
    "marathon",
    "auction",
    "tasting",
    "retreat",
    "panel",
    "keynote",
    "premiere",
    "launch",
    "openhouse",
];

/// Time-of-day and scheduling words.
pub const TIME: &[&str] = &[
    "am",
    "pm",
    "a.m",
    "p.m",
    "noon",
    "midnight",
    "morning",
    "afternoon",
    "evening",
    "night",
    "doors",
    "oclock",
    "o'clock",
    "sharp",
    "daily",
    "weekly",
    "hourly",
    "schedule",
    "time",
    "starts",
    "ends",
    "until",
    "till",
    "today",
    "tonight",
    "tomorrow",
];

/// Month names and their usual abbreviations.
pub const MONTH: &[&str] = &[
    "january",
    "february",
    "march",
    "april",
    "may",
    "june",
    "july",
    "august",
    "september",
    "october",
    "november",
    "december",
    "jan",
    "feb",
    "mar",
    "apr",
    "jun",
    "jul",
    "aug",
    "sep",
    "sept",
    "oct",
    "nov",
    "dec",
];

/// Weekday names and abbreviations.
pub const WEEKDAY: &[&str] = &[
    "monday",
    "tuesday",
    "wednesday",
    "thursday",
    "friday",
    "saturday",
    "sunday",
    "mon",
    "tue",
    "tues",
    "wed",
    "thu",
    "thur",
    "thurs",
    "fri",
    "sat",
    "sun",
];

/// Street-type suffixes (with and without periods normalised away).
pub const STREET_SUFFIX: &[&str] = &[
    "street",
    "st",
    "avenue",
    "ave",
    "boulevard",
    "blvd",
    "road",
    "rd",
    "drive",
    "dr",
    "lane",
    "ln",
    "court",
    "ct",
    "place",
    "pl",
    "way",
    "terrace",
    "ter",
    "circle",
    "cir",
    "parkway",
    "pkwy",
    "highway",
    "hwy",
    "square",
    "sq",
    "trail",
    "trl",
    "alley",
];

/// City names (midwestern-flavoured, as in the paper's D3).
pub const CITY: &[&str] = &[
    "columbus",
    "cleveland",
    "cincinnati",
    "dayton",
    "toledo",
    "akron",
    "dublin",
    "westerville",
    "gahanna",
    "hilliard",
    "grandview",
    "bexley",
    "worthington",
    "delaware",
    "newark",
    "springfield",
    "lancaster",
    "marion",
    "mansfield",
    "zanesville",
    "chicago",
    "pittsburgh",
    "indianapolis",
    "louisville",
    "detroit",
    "buffalo",
    "rochester",
    "albany",
    "syracuse",
    "brooklyn",
    "queens",
    "manhattan",
];

/// US state names and postal abbreviations. `in` (Indiana) is omitted
/// deliberately — it is unresolvably ambiguous with the preposition.
pub const STATE: &[&str] = &[
    "ohio",
    "oh",
    "newyork",
    "ny",
    "michigan",
    "mi",
    "indiana",
    "kentucky",
    "ky",
    "pennsylvania",
    "pa",
    "illinois",
    "il",
    "wisconsin",
    "wi",
    "westvirginia",
    "wv",
    "california",
    "ca",
    "texas",
    "tx",
    "florida",
    "fl",
];

/// Venue / place nouns.
pub const PLACE: &[&str] = &[
    "hall",
    "auditorium",
    "theater",
    "theatre",
    "stadium",
    "arena",
    "park",
    "plaza",
    "campus",
    "library",
    "museum",
    "gallery",
    "church",
    "temple",
    "ballroom",
    "pavilion",
    "gym",
    "gymnasium",
    "cafeteria",
    "lounge",
    "rooftop",
    "garden",
    "courtyard",
    "atrium",
    "venue",
    "room",
    "location",
    "address",
    "downtown",
];

/// Units of measure and size attributes.
pub const MEASURE: &[&str] = &[
    "acres",
    "acre",
    "sqft",
    "sf",
    "feet",
    "ft",
    "foot",
    "beds",
    "bed",
    "baths",
    "bath",
    "bedrooms",
    "bedroom",
    "bathrooms",
    "bathroom",
    "stories",
    "story",
    "units",
    "unit",
    "spaces",
    "space",
    "miles",
    "mile",
    "yards",
    "meters",
    "hectares",
    "rooms",
    "parking",
];

/// Real-estate domain nouns.
pub const ESTATE: &[&str] = &[
    "property",
    "listing",
    "lease",
    "sale",
    "rent",
    "rental",
    "estate",
    "realty",
    "zoned",
    "zoning",
    "commercial",
    "residential",
    "retail",
    "industrial",
    "land",
    "lot",
    "parcel",
    "acreage",
    "investment",
    "tenant",
    "landlord",
    "owner",
    "broker",
    "agent",
    "mls",
    "available",
    "occupancy",
    "vacancy",
    "frontage",
];

/// Building / structure nouns.
pub const STRUCTURE: &[&str] = &[
    "building",
    "floor",
    "suite",
    "warehouse",
    "office",
    "storefront",
    "basement",
    "garage",
    "roof",
    "lobby",
    "elevator",
    "tower",
    "complex",
    "condo",
    "condominium",
    "apartment",
    "duplex",
    "townhouse",
    "house",
    "home",
    "barn",
    "shed",
    "facility",
    "structure",
    "wing",
    "storage",
    "dock",
    "loft",
];

/// Contact-channel words.
pub const CONTACT: &[&str] = &[
    "phone",
    "tel",
    "telephone",
    "call",
    "email",
    "e-mail",
    "mail",
    "contact",
    "fax",
    "cell",
    "mobile",
    "office",
    "direct",
    "info",
    "rsvp",
    "register",
    "registration",
    "tickets",
    "website",
    "web",
    "visit",
    "inquiries",
];

/// Price and money words.
pub const PRICE: &[&str] = &[
    "price",
    "cost",
    "fee",
    "free",
    "admission",
    "rent",
    "deposit",
    "usd",
    "dollars",
    "dollar",
    "month",
    "year",
    "annual",
    "monthly",
    "negotiable",
    "asking",
    "offer",
    "discount",
    "sale",
    "pricing",
    "rate",
    "per",
];

/// Descriptive adjectives used in posters and flyers.
pub const DESCRIPTIVE: &[&str] = &[
    "new",
    "grand",
    "annual",
    "live",
    "special",
    "exclusive",
    "prime",
    "spacious",
    "modern",
    "renovated",
    "historic",
    "beautiful",
    "stunning",
    "excellent",
    "premier",
    "famous",
    "amazing",
    "unique",
    "rare",
    "huge",
    "cozy",
    "bright",
    "quiet",
    "busy",
    "local",
    "international",
    "community",
    "public",
    "private",
    "open",
    "great",
    "ideal",
    "perfect",
    "convenient",
    "affordable",
    "luxurious",
    "charming",
];

/// Verbs of organising / presenting / appearing.
pub const ACTION_VERB: &[&str] = &[
    "hosted",
    "hosts",
    "host",
    "organized",
    "organizes",
    "organize",
    "presented",
    "presents",
    "present",
    "sponsored",
    "sponsors",
    "sponsor",
    "featuring",
    "features",
    "featured",
    "brought",
    "brings",
    "bring",
    "offered",
    "offers",
    "offer",
    "listed",
    "lists",
    "list",
    "managed",
    "manages",
    "manage",
    "directed",
    "directs",
    "produced",
    "produces",
    "curated",
    "join",
    "joins",
    "attend",
    "attends",
    "perform",
    "performs",
    "performing",
    "speaks",
    "speaking",
    "led",
    "leads",
    "teaches",
    "taught",
    "contact",
    "call",
    "visit",
    "appears",
    "appearing",
];

/// Tax-form vocabulary.
pub const TAX: &[&str] = &[
    "wages",
    "salaries",
    "tips",
    "income",
    "interest",
    "dividends",
    "refund",
    "owed",
    "deduction",
    "deductions",
    "exemption",
    "exemptions",
    "filing",
    "status",
    "dependent",
    "dependents",
    "taxable",
    "withheld",
    "withholding",
    "credit",
    "credits",
    "adjusted",
    "gross",
    "schedule",
    "form",
    "line",
    "amount",
    "total",
    "spouse",
    "employer",
    "social",
    "security",
    "pension",
    "annuity",
    "royalties",
    "alimony",
    "business",
    "capital",
    "gain",
    "loss",
    "ira",
    "unemployment",
    "compensation",
    "estimated",
    "payments",
    "penalty",
    "signature",
    "occupation",
    "taxpayer",
];

/// Generic function words (also the stopword list's backbone).
pub const GENERIC: &[&str] = &[
    "the",
    "a",
    "an",
    "and",
    "or",
    "but",
    "of",
    "to",
    "in",
    "on",
    "at",
    "by",
    "for",
    "with",
    "from",
    "is",
    "are",
    "was",
    "were",
    "be",
    "been",
    "this",
    "that",
    "these",
    "those",
    "it",
    "its",
    "as",
    "all",
    "more",
    "most",
    "other",
    "some",
    "such",
    "no",
    "not",
    "only",
    "own",
    "same",
    "so",
    "than",
    "too",
    "very",
    "can",
    "will",
    "just",
    "your",
    "our",
    "their",
    "his",
    "her",
    "you",
    "we",
    "they",
    "please",
    "welcome",
    "details",
    "information",
];

fn topic_pools() -> &'static [(Topic, &'static [&'static str])] {
    &[
        (Topic::PersonFirst, PERSON_FIRST),
        (Topic::PersonLast, PERSON_LAST),
        (Topic::Organization, ORGANIZATION),
        (Topic::Event, EVENT),
        (Topic::Time, TIME),
        (Topic::Month, MONTH),
        (Topic::Weekday, WEEKDAY),
        (Topic::StreetSuffix, STREET_SUFFIX),
        (Topic::City, CITY),
        (Topic::State, STATE),
        (Topic::Place, PLACE),
        (Topic::Measure, MEASURE),
        (Topic::Estate, ESTATE),
        (Topic::Structure, STRUCTURE),
        (Topic::Contact, CONTACT),
        (Topic::Price, PRICE),
        (Topic::Descriptive, DESCRIPTIVE),
        (Topic::ActionVerb, ACTION_VERB),
        (Topic::Tax, TAX),
        (Topic::Generic, GENERIC),
    ]
}

fn index() -> &'static HashMap<&'static str, Topic> {
    static INDEX: OnceLock<HashMap<&'static str, Topic>> = OnceLock::new();
    INDEX.get_or_init(|| {
        let mut m = HashMap::new();
        // Earlier pools win on collision, so order pools from most to least
        // specific; Generic never overrides a content topic.
        for (topic, words) in topic_pools() {
            for w in *words {
                m.entry(*w).or_insert(*topic);
            }
        }
        m
    })
}

/// Topic of a (lower-cased) word, when it is in the lexicon.
pub fn topic_of(word: &str) -> Option<Topic> {
    index().get(word).copied()
}

/// The byte signature of `word`: bit `b & 31` is set for each byte `b`.
/// Equal words have equal signatures, and see
/// [`signatures_within_edit_one`] for what one edit can do to them.
pub fn byte_signature(word: &[u8]) -> u32 {
    word.iter().fold(0, |sig, b| sig | 1 << (b & 31))
}

/// A necessary condition of [`within_edit_one`] on two words' byte
/// signatures: a substitution clears at most one bit and sets at most
/// one, an insertion or deletion moves at most one, so words within one
/// edit differ in at most two signature bits. Bytes that share a class
/// (`b & 31`) only make the test weaker, never wrong.
pub fn signatures_within_edit_one(a: u32, b: u32) -> bool {
    (a ^ b).count_ones() <= 2
}

/// `true` when two words are within edit distance one (one substitution,
/// insertion or deletion) — the OCR channel's typical corruption.
pub fn within_edit_one(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let (la, lb) = (a.len(), b.len());
    if la.abs_diff(lb) > 1 {
        return false;
    }
    if la == lb {
        // Substitution only.
        let mut diffs = 0;
        for i in 0..la {
            if a[i] != b[i] {
                diffs += 1;
                if diffs > 1 {
                    return false;
                }
            }
        }
        true
    } else {
        // One insertion/deletion: align the longer against the shorter.
        let (long, short) = if la > lb { (a, b) } else { (b, a) };
        let mut i = 0;
        let mut j = 0;
        let mut skipped = false;
        while i < long.len() && j < short.len() {
            if long[i] == short[j] {
                i += 1;
                j += 1;
            } else if !skipped {
                skipped = true;
                i += 1;
            } else {
                return false;
            }
        }
        true
    }
}

/// Topic of a word allowing one OCR-style edit (substitution, insertion
/// or deletion) for words of five or more characters — the transcription
/// noise channel's most common corruption. Exact matches win; fuzzy
/// matches scan the content pools only (never `Generic`, where "the" and
/// "she" would collide).
pub fn topic_of_fuzzy(word: &str) -> Option<Topic> {
    if let Some(t) = topic_of(word) {
        return Some(t);
    }
    if word.len() < 5 || !word.chars().all(|c| c.is_ascii_alphanumeric()) {
        return None;
    }
    // Normalise the classic digit confusions before scanning.
    let normalised: String = word
        .chars()
        .map(|c| match c {
            '0' => 'o',
            '1' => 'l',
            '5' => 's',
            '6' => 'b',
            _ => c,
        })
        .collect();
    if let Some(t) = topic_of(&normalised) {
        return Some(t);
    }
    // The content-pool words of five or more bytes in pool order, so the
    // first within one edit wins; a word is compared only when its length
    // and byte signature allow one edit.
    let sig = byte_signature(normalised.as_bytes());
    fuzzy_pool()
        .iter()
        .find(|c| {
            c.word.len().abs_diff(normalised.len()) <= 1
                && signatures_within_edit_one(sig, c.sig)
                && within_edit_one(&normalised, c.word)
        })
        .map(|c| c.topic)
}

/// One word [`topic_of_fuzzy`] scans, with its byte signature.
struct FuzzyWord {
    word: &'static str,
    sig: u32,
    topic: Topic,
}

/// The words [`topic_of_fuzzy`] scans: every content pool's words of five
/// or more bytes, in pool order (never `Generic`).
fn fuzzy_pool() -> &'static [FuzzyWord] {
    static POOL: OnceLock<Vec<FuzzyWord>> = OnceLock::new();
    POOL.get_or_init(|| {
        topic_pools()
            .iter()
            .filter(|(topic, _)| *topic != Topic::Generic)
            .flat_map(|(topic, words)| {
                words.iter().filter(|w| w.len() >= 5).map(|w| FuzzyWord {
                    word: w,
                    sig: byte_signature(w.as_bytes()),
                    topic: *topic,
                })
            })
            .collect()
    })
}

/// Words belonging to a topic.
pub fn words_of(topic: Topic) -> &'static [&'static str] {
    topic_pools()
        .iter()
        .find(|(t, _)| *t == topic)
        .map(|(_, w)| *w)
        .unwrap_or(&[])
}

/// `true` when the word appears in any pool.
pub fn contains(word: &str) -> bool {
    index().contains_key(word)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`topic_of_fuzzy`] as it stood before the signature prefilter,
    /// copied verbatim: the linear scan over the pools.
    fn topic_of_fuzzy_reference(word: &str) -> Option<Topic> {
        if let Some(t) = topic_of(word) {
            return Some(t);
        }
        if word.len() < 5 || !word.chars().all(|c| c.is_ascii_alphanumeric()) {
            return None;
        }
        // Normalise the classic digit confusions before scanning.
        let normalised: String = word
            .chars()
            .map(|c| match c {
                '0' => 'o',
                '1' => 'l',
                '5' => 's',
                '6' => 'b',
                _ => c,
            })
            .collect();
        if let Some(t) = topic_of(&normalised) {
            return Some(t);
        }
        for (topic, words) in topic_pools() {
            if *topic == Topic::Generic {
                continue;
            }
            for w in *words {
                if w.len() >= 5 && within_edit_one(&normalised, w) {
                    return Some(*topic);
                }
            }
        }
        None
    }

    /// Draws for the fuzzy-scan comparison (SplitMix64).
    fn draws(seed: u64) -> impl FnMut(usize) -> usize {
        let mut state = seed;
        move |bound| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        }
    }

    /// Letters, the confusable digits, a capital and a non-ASCII letter.
    const EDIT_BYTES: &[char] = &[
        'a', 'e', 'i', 'o', 'n', 's', 't', 'r', 'l', 'b', 'p', 'x', 'z', '0', '1', '5', '6', '9',
        'Q', 'é',
    ];

    fn edit(word: &str, next: &mut impl FnMut(usize) -> usize) -> String {
        let mut chars: Vec<char> = word.chars().collect();
        let c = EDIT_BYTES[next(EDIT_BYTES.len())];
        match next(3) {
            0 if !chars.is_empty() => {
                let at = next(chars.len());
                chars[at] = c;
            }
            1 => {
                let at = next(chars.len() + 1);
                chars.insert(at, c);
            }
            _ if !chars.is_empty() => {
                chars.remove(next(chars.len()));
            }
            _ => {}
        }
        chars.into_iter().collect()
    }

    #[test]
    fn fuzzy_topic_equals_the_linear_scan() {
        let mut next = draws(0x5eed);
        let (mut queries, mut fuzzy_hits) = (0, 0);
        let mut check = |q: &str| {
            let want = topic_of_fuzzy_reference(q);
            assert_eq!(topic_of_fuzzy(q), want, "{q:?}");
            queries += 1;
            if want.is_some() && topic_of(q).is_none() {
                fuzzy_hits += 1;
            }
        };
        for (_, words) in topic_pools() {
            for w in *words {
                check(w);
                for _ in 0..3 {
                    let once = edit(w, &mut next);
                    check(&once);
                    check(&edit(&once, &mut next));
                }
            }
        }
        for _ in 0..3000 {
            let len = 3 + next(8);
            let q: String = (0..len)
                .map(|_| EDIT_BYTES[next(EDIT_BYTES.len())])
                .collect();
            check(&q);
        }
        assert!(queries > 5000, "{queries} queries");
        assert!(
            fuzzy_hits > 1000,
            "only {fuzzy_hits} queries matched by one edit"
        );
    }

    #[test]
    fn every_topic_has_a_pool() {
        for t in ALL_TOPICS {
            assert!(!words_of(t).is_empty(), "topic {t:?} has no words");
        }
    }

    #[test]
    fn lookup_returns_expected_topics() {
        assert_eq!(topic_of("concert"), Some(Topic::Event));
        assert_eq!(topic_of("acres"), Some(Topic::Measure));
        assert_eq!(topic_of("columbus"), Some(Topic::City));
        assert_eq!(topic_of("hosted"), Some(Topic::ActionVerb));
        assert_eq!(topic_of("wages"), Some(Topic::Tax));
        assert_eq!(topic_of("qwertyuiop"), None);
    }

    #[test]
    fn collisions_resolve_to_most_specific_pool() {
        // "office" appears in ORGANIZATION, STRUCTURE and CONTACT; the
        // first pool in declaration order wins.
        assert_eq!(topic_of("office"), Some(Topic::Organization));
        // "the" is generic.
        assert_eq!(topic_of("the"), Some(Topic::Generic));
    }

    #[test]
    fn pools_are_lowercase() {
        for (t, words) in [
            (Topic::PersonFirst, PERSON_FIRST),
            (Topic::Event, EVENT),
            (Topic::Tax, TAX),
        ] {
            for w in words {
                assert_eq!(*w, w.to_lowercase(), "{t:?} word {w} not lowercase");
            }
        }
    }

    #[test]
    fn contains_is_consistent_with_topic_of() {
        assert!(contains("january"));
        assert!(!contains("zzzz"));
    }
}
