//! A miniature hypernym taxonomy.
//!
//! Stand-in for the WordNet-style hypernym tree of the paper's reference
//! [42]: noun POS tags in the holdout corpus are "annotated with their
//! respective Hypernym senses", and the *Property Size* pattern of Table 4
//! requires "noun POS tags with senses measure / structure / estate in the
//! Hypernym Tree". The taxonomy maps the reproduction's noun vocabulary to
//! short hypernym chains rooted at `entity`.

use crate::lexicon::{self, Topic};
use crate::stem::stem;

/// A coarse hypernym sense — the first step of a word's hypernym chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// Quantities and units (`acre`, `sqft`, `beds` …).
    Measure,
    /// Built structures (`building`, `floor`, `suite` …).
    Structure,
    /// Property / possession (`listing`, `lease`, `parcel` …).
    Estate,
    /// Social gatherings (`concert`, `workshop` …).
    Event,
    /// People (`broker`, `agent`, first names …).
    Person,
    /// Groups and institutions.
    Group,
    /// Places and regions.
    Location,
    /// Temporal entities.
    TimeEntity,
    /// Financial instruments and amounts.
    Money,
    /// Communication channels.
    Communication,
    /// Anything else.
    Entity,
}

impl Sense {
    /// Short label used in patterns and tree-mining node labels.
    pub fn label(&self) -> &'static str {
        match self {
            Sense::Measure => "measure",
            Sense::Structure => "structure",
            Sense::Estate => "estate",
            Sense::Event => "event",
            Sense::Person => "person",
            Sense::Group => "group",
            Sense::Location => "location",
            Sense::TimeEntity => "time",
            Sense::Money => "money",
            Sense::Communication => "communication",
            Sense::Entity => "entity",
        }
    }
}

/// Hypernym chain of a sense up to the root (`entity`), most specific
/// first.
pub fn chain(sense: Sense) -> &'static [Sense] {
    match sense {
        Sense::Measure => &[Sense::Measure, Sense::Entity],
        Sense::Structure => &[Sense::Structure, Sense::Location, Sense::Entity],
        Sense::Estate => &[Sense::Estate, Sense::Money, Sense::Entity],
        Sense::Event => &[Sense::Event, Sense::Entity],
        Sense::Person => &[Sense::Person, Sense::Entity],
        Sense::Group => &[Sense::Group, Sense::Entity],
        Sense::Location => &[Sense::Location, Sense::Entity],
        Sense::TimeEntity => &[Sense::TimeEntity, Sense::Entity],
        Sense::Money => &[Sense::Money, Sense::Entity],
        Sense::Communication => &[Sense::Communication, Sense::Entity],
        Sense::Entity => &[Sense::Entity],
    }
}

const PERSON_ROLES: &[&str] = &[
    "broker",
    "agent",
    "owner",
    "tenant",
    "landlord",
    "speaker",
    "organizer",
    "host",
    "artist",
    "performer",
    "instructor",
    "teacher",
    "professor",
    "taxpayer",
    "spouse",
    "dependent",
];

/// Primary hypernym sense of a (lower-cased) noun. Stems the word first so
/// inflectional variants resolve identically.
pub fn sense_of(word: &str) -> Sense {
    let w = word.to_lowercase();
    sense_of_lower(&w, &stem(&w))
}

/// [`sense_of`] for a word that is already lower-case, given its stem
/// (`stemmed == stem(w)`): a caller that holds the stem pays no second
/// lowering or stemming.
pub fn sense_of_lower(w: &str, stemmed: &str) -> Sense {
    if PERSON_ROLES.contains(&w) || PERSON_ROLES.contains(&stemmed) {
        return Sense::Person;
    }
    let topic = lexicon::topic_of(w)
        .or_else(|| lexicon::topic_of(stemmed))
        .or_else(|| lexicon::topic_of_fuzzy(w));
    match topic {
        Some(Topic::Measure) => Sense::Measure,
        Some(Topic::Structure) => Sense::Structure,
        Some(Topic::Estate) => Sense::Estate,
        Some(Topic::Event) => Sense::Event,
        Some(Topic::PersonFirst | Topic::PersonLast) => Sense::Person,
        Some(Topic::Organization) => Sense::Group,
        Some(Topic::City | Topic::State | Topic::Place | Topic::StreetSuffix) => Sense::Location,
        Some(Topic::Time | Topic::Month | Topic::Weekday) => Sense::TimeEntity,
        Some(Topic::Price | Topic::Tax) => Sense::Money,
        Some(Topic::Contact) => Sense::Communication,
        _ => Sense::Entity,
    }
}

/// `true` when `word`'s hypernym chain passes through `target` — the
/// membership test the Table 4 patterns use.
pub fn has_sense(word: &str, target: Sense) -> bool {
    chain(sense_of(word)).contains(&target)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_words() {
        assert_eq!(sense_of("acres"), Sense::Measure);
        assert_eq!(sense_of("sqft"), Sense::Measure);
        assert_eq!(sense_of("beds"), Sense::Measure);
    }

    #[test]
    fn structure_and_estate() {
        assert_eq!(sense_of("building"), Sense::Structure);
        assert_eq!(sense_of("warehouse"), Sense::Structure);
        assert_eq!(sense_of("listing"), Sense::Estate);
        assert_eq!(sense_of("lease"), Sense::Estate);
    }

    #[test]
    fn person_roles() {
        assert_eq!(sense_of("broker"), Sense::Person);
        assert_eq!(sense_of("james"), Sense::Person);
        assert_eq!(sense_of("Brokers"), Sense::Person, "stemming applies");
    }

    #[test]
    fn chains_end_at_entity() {
        for s in [
            Sense::Measure,
            Sense::Structure,
            Sense::Estate,
            Sense::Person,
            Sense::Entity,
        ] {
            assert_eq!(*chain(s).last().unwrap(), Sense::Entity);
            assert_eq!(chain(s)[0], s);
        }
    }

    #[test]
    fn has_sense_walks_the_chain() {
        assert!(has_sense("building", Sense::Structure));
        assert!(has_sense("building", Sense::Location), "via chain");
        assert!(has_sense("building", Sense::Entity));
        assert!(!has_sense("building", Sense::Measure));
    }

    #[test]
    fn unknown_words_are_plain_entities() {
        assert_eq!(sense_of("zorblax"), Sense::Entity);
        assert!(has_sense("zorblax", Sense::Entity));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Sense::Measure.label(), "measure");
        assert_eq!(Sense::Estate.label(), "estate");
    }
}
