//! Equivalence battery for the joint assignment.
//!
//! `vs2_core::pipeline::assign` runs the regret greedy over entity
//! positions with one dense block id per candidate; `assign_spec` keeps
//! the `String`-keyed version it replaced, verbatim. Both must give the
//! same extractions, serialised byte for byte, on any candidate map.
//!
//! The generator aims at the places a positional rewrite could drift:
//! candidates of different entities on one block key (also boxes that
//! differ below the key's 1/8 resolution), scores on a coarse lattice so
//! regrets tie (the earliest entity must win), single-candidate entities
//! (infinite regret), more entities than blocks (the all-claimed
//! fallback), empty lists, and lists in and out of score order.
//!
//! Case counts honour `VS2_PROPTEST_CASES`; failures print a
//! `VS2_PROPTEST_SEED` repro command (see the `proptest` shim docs).

mod assign_spec;

use proptest::prelude::*;
use serde::Serialize as _;
use std::collections::BTreeMap;
use vs2_core::pipeline::assign;
use vs2_core::Extraction;
use vs2_docmodel::BBox;

/// SplitMix64: a generated candidate map is a pure function of the
/// property's case seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn candidate(entity: &str, j: usize, block: BBox, score: f64) -> Extraction {
    Extraction {
        entity: entity.to_string(),
        text: format!("{entity}#{j}"),
        block_bbox: block,
        span_bbox: BBox::new(block.x + 1.0, block.y + 1.0, 2.0, 2.0),
        score,
    }
}

/// Block boxes: distinct keys, plus twins that differ only below the
/// key's 1/8 resolution and so share a key.
fn block_palette(rng: &mut Mix) -> Vec<BBox> {
    let n = 1 + rng.below(6);
    let mut palette = Vec::new();
    for i in 0..n {
        let b = BBox::new(10.0 * i as f64, 20.0 * rng.below(3) as f64, 50.0, 12.0);
        palette.push(b);
        if rng.below(3) == 0 {
            palette.push(BBox::new(b.x + 0.05, b.y + 0.1, b.w + 0.01, b.h));
        }
    }
    palette
}

/// Scores on a coarse lattice (ties and equal regrets are common), with
/// the occasional signed zero and infinity.
fn score(rng: &mut Mix) -> f64 {
    match rng.below(20) {
        0 => -0.0,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        k => 0.25 * (k % 6) as f64 - 0.5,
    }
}

fn random_map(seed: u64) -> BTreeMap<String, Vec<Extraction>> {
    let mut rng = Mix(seed);
    let palette = block_palette(&mut rng);
    let n_entities = rng.below(12);
    let ranked = rng.below(4) != 0;
    let mut map = BTreeMap::new();
    for e in 0..n_entities {
        let name = format!("e{e:02}");
        let len = match rng.below(5) {
            0 => 0,
            1 | 2 => 1,
            _ => 2 + rng.below(5),
        };
        let mut cands: Vec<Extraction> = (0..len)
            .map(|j| {
                let block = palette[rng.below(palette.len())];
                candidate(&name, j, block, score(&mut rng))
            })
            .collect();
        if ranked {
            cands.sort_by(|a, b| a.score.total_cmp(&b.score));
        }
        map.insert(name, cands);
    }
    map
}

fn render(e: &[Extraction]) -> String {
    serde_json::to_string(&e.to_value()).unwrap()
}

/// Both assignments agree, byte for byte, on `map`.
fn assert_same(map: &BTreeMap<String, Vec<Extraction>>) -> Vec<Extraction> {
    let got = assign(map.clone());
    let want = assign_spec::assign(map.clone());
    assert_eq!(
        render(&got),
        render(&want),
        "assignments diverged on {map:?}"
    );
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn property_assign_equals_string_keyed_spec(seed in 0u64..u64::MAX) {
        assert_same(&random_map(seed));
    }
}

fn map_of(entries: &[(&str, &[(BBox, f64)])]) -> BTreeMap<String, Vec<Extraction>> {
    entries
        .iter()
        .map(|(name, cands)| {
            let list = cands
                .iter()
                .enumerate()
                .map(|(j, &(block, score))| candidate(name, j, block, score))
                .collect();
            (name.to_string(), list)
        })
        .collect()
}

fn texts(out: &[Extraction]) -> Vec<&str> {
    out.iter().map(|e| e.text.as_str()).collect()
}

const A: BBox = BBox {
    x: 0.0,
    y: 0.0,
    w: 50.0,
    h: 10.0,
};
const B: BBox = BBox {
    x: 0.0,
    y: 20.0,
    w: 50.0,
    h: 10.0,
};
/// `A` moved by less than the block key's resolution: the same block.
const A_TWIN: BBox = BBox {
    x: 0.05,
    y: 0.1,
    w: 50.0,
    h: 10.0,
};

#[test]
fn equal_regrets_go_to_the_earliest_entity() {
    // Both entities want A first and B second with the same gap: "a"
    // comes first in key order, so it takes A and "b" takes B.
    let map = map_of(&[("a", &[(A, 0.0), (B, 1.0)]), ("b", &[(A, 0.0), (B, 1.0)])]);
    assert_eq!(texts(&assert_same(&map)), ["a#0", "b#1"]);
}

#[test]
fn single_candidate_entities_have_infinite_regret() {
    // "b" has only A, so it outranks "a", whose gap is finite.
    let map = map_of(&[("a", &[(A, 0.0), (B, 5.0)]), ("b", &[(A, 3.0)])]);
    assert_eq!(texts(&assert_same(&map)), ["a#1", "b#0"]);
}

#[test]
fn shared_keys_claim_twin_boxes() {
    // A_TWIN is A at key resolution: once "a" claims A, "b"'s only
    // candidate is taken and it falls back to it.
    let map = map_of(&[("a", &[(A, 0.0)]), ("b", &[(A_TWIN, 0.0)])]);
    let out = assert_same(&map);
    assert_eq!(texts(&out), ["a#0", "b#0"]);
    assert_eq!(out[1].block_bbox, A_TWIN);
}

#[test]
fn all_claimed_entities_fall_back_to_their_best() {
    let map = map_of(&[
        ("a", &[(A, 0.0)]),
        ("b", &[(B, 0.0)]),
        ("c", &[(B, 0.5), (A, 0.7)]),
    ]);
    assert_eq!(texts(&assert_same(&map)), ["a#0", "b#0", "c#0"]);
}

#[test]
fn empty_lists_emit_nothing() {
    let map = map_of(&[("a", &[]), ("b", &[(A, 0.0)]), ("c", &[])]);
    assert_eq!(texts(&assert_same(&map)), ["b#0"]);
    assert!(assert_same(&BTreeMap::new()).is_empty());
}
