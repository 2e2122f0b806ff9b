//! A VerbNet-lite verb-sense lexicon.
//!
//! Stand-in for VerbNet (the paper's reference [38]): the *Event
//! Organizer* pattern of Table 3 requires a "verb phrase with
//! captain / create / reflexive_appearance verb-senses". Verbs are mapped
//! to those sense classes (plus the auxiliary classes the other patterns
//! touch) after stemming.

use crate::stem::stem;

/// VerbNet-style sense class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerbSense {
    /// Leading / hosting / directing (VerbNet `captain-29.8`-like).
    Captain,
    /// Creating / producing / organising (VerbNet `create-26.4`-like).
    Create,
    /// Appearing / featuring (VerbNet `reflexive_appearance-48.1.2`-like).
    ReflexiveAppearance,
    /// Transfer / offering (`give`-like); used by listing patterns.
    Transfer,
    /// Communication (`contact`, `call` …).
    Communicate,
    /// Motion / attendance (`join`, `attend` …).
    Motion,
}

impl VerbSense {
    /// Short label used in pattern dumps and tree-mining node labels.
    pub fn label(&self) -> &'static str {
        match self {
            VerbSense::Captain => "captain",
            VerbSense::Create => "create",
            VerbSense::ReflexiveAppearance => "reflexive_appearance",
            VerbSense::Transfer => "transfer",
            VerbSense::Communicate => "communicate",
            VerbSense::Motion => "motion",
        }
    }
}

const CAPTAIN: &[&str] = &[
    "host", "direct", "lead", "led", "manag", "chair", "curat", "teach", "taught",
];
const CREATE: &[&str] = &[
    "organ", "produc", "creat", "present", "sponsor", "brought", "bring", "found", "arrang",
];
const REFLEXIVE: &[&str] = &["featur", "appear", "star", "perform", "speak", "spoke"];
const TRANSFER: &[&str] = &["offer", "list", "sell", "sold", "rent", "leas", "provid"];
const COMMUNICATE: &[&str] = &[
    "contact", "call", "email", "rsvp", "regist", "visit", "inquir",
];
const MOTION: &[&str] = &["join", "attend", "come", "arriv", "meet"];

/// Senses of a verb form (any inflection). A verb may belong to several
/// classes; an empty result means the verb is outside the lexicon.
pub fn senses_of(verb: &str) -> Vec<VerbSense> {
    let w = verb.to_lowercase();
    senses_of_lower(&w, &stem(&w))
}

/// [`senses_of`] for a verb form that is already lower-case, given its
/// stem (`s == stem(w)`).
pub fn senses_of_lower(w: &str, s: &str) -> Vec<VerbSense> {
    let mut out = Vec::new();
    let matches = |pool: &[&str]| pool.iter().any(|p| s.starts_with(p) || w.starts_with(p));
    if matches(CAPTAIN) {
        out.push(VerbSense::Captain);
    }
    if matches(CREATE) {
        out.push(VerbSense::Create);
    }
    if matches(REFLEXIVE) {
        out.push(VerbSense::ReflexiveAppearance);
    }
    if matches(TRANSFER) {
        out.push(VerbSense::Transfer);
    }
    if matches(COMMUNICATE) {
        out.push(VerbSense::Communicate);
    }
    if matches(MOTION) {
        out.push(VerbSense::Motion);
    }
    out
}

/// `true` when the verb carries one of the organiser senses required by
/// the Event Organizer pattern (Table 3).
pub fn is_organizer_sense(verb: &str) -> bool {
    senses_of(verb).iter().any(|s| {
        matches!(
            s,
            VerbSense::Captain | VerbSense::Create | VerbSense::ReflexiveAppearance
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn organizer_verbs() {
        for v in [
            "hosted",
            "hosting",
            "organized",
            "presents",
            "sponsored",
            "featuring",
        ] {
            assert!(is_organizer_sense(v), "{v} should be an organizer verb");
        }
    }

    #[test]
    fn non_organizer_verbs() {
        for v in ["call", "join", "offered", "running"] {
            assert!(
                !is_organizer_sense(v),
                "{v} should not be an organizer verb"
            );
        }
    }

    #[test]
    fn inflections_share_senses() {
        assert_eq!(senses_of("hosts"), senses_of("hosted"));
        assert_eq!(senses_of("organize"), senses_of("organizing"));
    }

    #[test]
    fn sense_classes() {
        assert_eq!(senses_of("hosted"), vec![VerbSense::Captain]);
        assert_eq!(senses_of("listed"), vec![VerbSense::Transfer]);
        assert_eq!(senses_of("contact"), vec![VerbSense::Communicate]);
        assert_eq!(senses_of("attend"), vec![VerbSense::Motion]);
        assert!(senses_of("zorblaxing").is_empty());
    }

    #[test]
    fn labels() {
        assert_eq!(
            VerbSense::ReflexiveAppearance.label(),
            "reflexive_appearance"
        );
    }
}
