//! Offline stand-in for [`proptest`](https://crates.io/crates/proptest).
//!
//! The build environment has no network access, so the workspace ships the
//! strategy subset its tests use: numeric ranges, regex-lite string
//! strategies, tuples, [`Just`], `prop_oneof!`, `prop_map`,
//! `prop_recursive`, [`collection::vec`], and the [`proptest!`] macro
//! driving a fixed number of deterministic cases per property.
//!
//! Differences from upstream: no shrinking, and a simpler reproduction
//! protocol. Every case draws its own 64-bit seed from a master stream
//! keyed by the property's module path + name, so runs are deterministic;
//! on failure the runner prints the property label, case index, and the
//! case seed together with a one-command repro line. Two environment
//! variables steer the runner:
//!
//! - `VS2_PROPTEST_CASES=N` caps the case count of every property, for
//!   quick local runs (CI runs uncapped);
//! - `VS2_PROPTEST_SEED=0x…` re-runs exactly one case with that seed —
//!   the repro command printed on failure.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng as _, RngCore as _, SeedableRng as _};
use std::ops::Range;
use std::rc::Rc;

/// Deterministic RNG handed to strategies by the [`proptest!`] runner.
#[derive(Debug, Clone)]
pub struct TestRng(StdRng);

impl TestRng {
    /// Seeds the RNG from an arbitrary label (e.g. the property name).
    pub fn from_label(label: &str) -> Self {
        // FNV-1a over the label keeps case streams stable across runs.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        Self::from_seed(h)
    }

    /// Seeds the RNG from an explicit 64-bit seed — the form printed by
    /// the runner's failure report.
    pub fn from_seed(seed: u64) -> Self {
        Self(StdRng::seed_from_u64(seed))
    }

    /// Draws a case seed from a master stream.
    fn next_seed(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn below(&mut self, n: usize) -> usize {
        self.0.gen_range(0..n.max(1))
    }
}

/// A generator of values of type `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Recursive strategy: `recurse` receives a strategy for the type and
    /// returns a strategy that may embed it, up to `depth` levels deep.
    /// (`_desired_size` and `_expected_branch_size` are accepted for
    /// upstream signature compatibility and ignored.)
    fn prop_recursive<S, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        S: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S + 'static,
    {
        let base = self.boxed();
        let recurse = Rc::new(move |inner: BoxedStrategy<S::Value>| recurse(inner).boxed());
        let mut tower = base;
        for _ in 0..depth {
            let prev = tower.clone();
            let f = recurse.clone();
            let levels = vec![prev.clone(), f(prev)];
            tower = BoxedStrategy(Rc::new(ChooseLevel { levels }));
        }
        tower
    }

    /// Type-erases the strategy behind a cheaply clonable handle.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

/// `prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

trait StrategyObj<T> {
    fn generate_obj(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> StrategyObj<S::Value> for S {
    fn generate_obj(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// A cheaply clonable, type-erased strategy handle.
pub struct BoxedStrategy<T>(Rc<dyn StrategyObj<T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        Self(self.0.clone())
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate_obj(rng)
    }
}

/// Depth chooser used by `prop_recursive`: picks the shallow or the deeper
/// alternative, biased towards recursion.
struct ChooseLevel<T> {
    levels: Vec<BoxedStrategy<T>>,
}

impl<T> StrategyObj<T> for ChooseLevel<T> {
    fn generate_obj(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.levels.len());
        self.levels[i].generate(rng)
    }
}

/// Strategy that always yields a clone of a fixed value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Union of same-typed strategies; `prop_oneof!` builds one.
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Creates a union over the given options (must be non-empty).
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Self { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.options.len());
        self.options[i].generate(rng)
    }
}

macro_rules! impl_range_strategy_int {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.0.gen_range(self.clone())
            }
        }
    )+};
}

impl_range_strategy_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl Strategy for &'static str {
    type Value = String;

    /// Regex-lite string strategy supporting the subset this workspace
    /// uses: literal chars, `[a-z0-9_-]`-style classes, `\PC` (any
    /// printable char) and `{m,n}` / `{n}` repetition of the last atom.
    fn generate(&self, rng: &mut TestRng) -> String {
        generate_regex_lite(self, rng)
    }
}

#[derive(Debug, Clone)]
enum Atom {
    Literal(char),
    Class(Vec<(char, char)>),
    Printable,
}

impl Atom {
    fn generate(&self, rng: &mut TestRng) -> char {
        match self {
            Atom::Literal(c) => *c,
            Atom::Class(ranges) => {
                let total: u32 = ranges.iter().map(|(a, b)| *b as u32 - *a as u32 + 1).sum();
                let mut k = rng.0.gen_range(0..total);
                for (a, b) in ranges {
                    let span = *b as u32 - *a as u32 + 1;
                    if k < span {
                        return char::from_u32(*a as u32 + k).unwrap_or('a');
                    }
                    k -= span;
                }
                'a'
            }
            Atom::Printable => {
                // Mostly ASCII printable, occasionally multi-byte unicode
                // to exercise UTF-8 handling.
                if rng.0.gen_bool(0.9) {
                    char::from_u32(rng.0.gen_range(0x20u32..0x7F)).unwrap_or(' ')
                } else {
                    const POOL: &[char] = &['é', 'ß', 'Ω', '中', '😀', '¿', '☃'];
                    POOL[rng.below(POOL.len())]
                }
            }
        }
    }
}

fn generate_regex_lite(pattern: &str, rng: &mut TestRng) -> String {
    let mut chars = pattern.chars().peekable();
    let mut atoms: Vec<(Atom, usize, usize)> = Vec::new();
    while let Some(c) = chars.next() {
        let atom = match c {
            '\\' => match chars.next() {
                Some('P') => {
                    // `\PC`: not-a-control character (printable).
                    let class = chars.next();
                    assert_eq!(class, Some('C'), "unsupported \\P class in `{pattern}`");
                    Atom::Printable
                }
                Some('n') => Atom::Literal('\n'),
                Some('t') => Atom::Literal('\t'),
                Some(other) => Atom::Literal(other),
                None => panic!("dangling escape in `{pattern}`"),
            },
            '[' => {
                let mut ranges = Vec::new();
                loop {
                    let a = chars.next().expect("unterminated class");
                    if a == ']' {
                        break;
                    }
                    if chars.peek() == Some(&'-') {
                        chars.next();
                        let b = chars.next().expect("unterminated range");
                        assert!(b != ']', "dangling `-` in class in `{pattern}`");
                        ranges.push((a, b));
                    } else {
                        ranges.push((a, a));
                    }
                }
                Atom::Class(ranges)
            }
            other => Atom::Literal(other),
        };
        // Optional repetition suffix.
        let (lo, hi) = if chars.peek() == Some(&'{') {
            chars.next();
            let mut spec = String::new();
            for c in chars.by_ref() {
                if c == '}' {
                    break;
                }
                spec.push(c);
            }
            match spec.split_once(',') {
                Some((a, b)) => (
                    a.trim().parse().expect("bad repetition"),
                    b.trim().parse().expect("bad repetition"),
                ),
                None => {
                    let n = spec.trim().parse().expect("bad repetition");
                    (n, n)
                }
            }
        } else {
            (1, 1)
        };
        atoms.push((atom, lo, hi));
    }
    let mut out = String::new();
    for (atom, lo, hi) in atoms {
        let n = if lo == hi {
            lo
        } else {
            rng.0.gen_range(lo..=hi)
        };
        for _ in 0..n {
            out.push(atom.generate(rng));
        }
    }
    out
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4),
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
);

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with a length drawn from `len`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Vectors of values from `element`, length in `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "collection::vec: empty length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            use rand::Rng as _;
            let n = rng.0.gen_range(self.len.clone());
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Runner configuration for [`proptest!`].
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases generated per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// The `VS2_PROPTEST_CASES` cap, when set. An unparsable value panics
/// rather than silently running the default count.
fn env_cases() -> Option<u32> {
    let raw = std::env::var("VS2_PROPTEST_CASES").ok()?;
    Some(
        raw.trim()
            .parse()
            .unwrap_or_else(|e| panic!("VS2_PROPTEST_CASES `{raw}` is not a count: {e}")),
    )
}

/// The `VS2_PROPTEST_SEED` single-case seed, when set. Accepts `0x`-hex
/// or decimal.
fn env_seed() -> Option<u64> {
    let raw = std::env::var("VS2_PROPTEST_SEED").ok()?;
    let t = raw.trim();
    let parsed = match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => t.parse(),
    };
    Some(parsed.unwrap_or_else(|e| panic!("VS2_PROPTEST_SEED `{raw}` is not a seed: {e}")))
}

/// The seed of case `index` of the property labelled `label` — the value
/// the runner would hand that case. Exposed for replay tooling and the
/// shim's own tests.
pub fn nth_case_seed(label: &str, index: u32) -> u64 {
    let mut master = TestRng::from_label(label);
    let mut seed = master.next_seed();
    for _ in 0..index {
        seed = master.next_seed();
    }
    seed
}

/// Drives one property: generates per-case seeds from a master stream
/// keyed by `label`, runs `case` under `catch_unwind`, and on failure
/// prints the label, case index, seed, and a one-command repro before
/// re-raising the panic. Honours `VS2_PROPTEST_CASES` (cap) and
/// `VS2_PROPTEST_SEED` (single-case replay). The [`proptest!`] macro
/// expands to a call of this function.
pub fn run_property<F>(label: &str, config: &ProptestConfig, mut case: F)
where
    F: FnMut(&mut TestRng),
{
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    let test = label.rsplit("::").next().unwrap_or(label);
    if let Some(seed) = env_seed() {
        let mut rng = TestRng::from_seed(seed);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| case(&mut rng))) {
            eprintln!("proptest: property `{label}` failed replaying seed 0x{seed:016x}");
            resume_unwind(payload);
        }
        return;
    }
    let cases = env_cases().map_or(config.cases, |cap| config.cases.min(cap));
    let mut master = TestRng::from_label(label);
    for index in 0..cases {
        let seed = master.next_seed();
        let mut rng = TestRng::from_seed(seed);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| case(&mut rng))) {
            eprintln!(
                "proptest: property `{label}` failed at case {index}/{cases} \
                 (seed 0x{seed:016x})"
            );
            eprintln!(
                "proptest: reproduce with: VS2_PROPTEST_SEED=0x{seed:016x} cargo test {test}"
            );
            resume_unwind(payload);
        }
    }
}

/// Asserts a property-test condition, reporting the failing expression.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Builds a [`Union`] over the listed strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Declares deterministic property tests. Supports an optional leading
/// `#![proptest_config(..)]` and any number of `#[test] fn name(x in
/// strategy, ..) { body }` items, mirroring upstream `proptest!` syntax.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $config:expr; $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block
    )*) => {$(
        // `$meta` captures every attribute on the property, `#[test]`
        // included (doc comments may precede it), and re-emits them all.
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let label = concat!(module_path!(), "::", stringify!($name));
            $crate::run_property(label, &config, |rng| {
                $(let $arg = $crate::Strategy::generate(&$strategy, rng);)+
                $body
            });
        }
    )*};
}

pub mod prelude {
    //! The usual imports: `use proptest::prelude::*;`.

    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, BoxedStrategy, Just,
        ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn regex_lite_shapes() {
        let mut rng = crate::TestRng::from_label("regex");
        for _ in 0..200 {
            let s = Strategy::generate(&"[a-z]{1,10}", &mut rng);
            assert!((1..=10).contains(&s.chars().count()), "{s:?}");
            assert!(s.chars().all(|c| c.is_ascii_lowercase()), "{s:?}");

            let t = Strategy::generate(&"\\PC{0,200}", &mut rng);
            assert!(t.chars().count() <= 200);
            assert!(t.chars().all(|c| !c.is_control()), "{t:?}");

            let u = Strategy::generate(&"x[0-9]{2}", &mut rng);
            assert_eq!(u.len(), 3);
            assert!(u.starts_with('x'));
        }
    }

    #[test]
    fn deterministic_streams() {
        let mut a = crate::TestRng::from_label("same");
        let mut b = crate::TestRng::from_label("same");
        for _ in 0..50 {
            assert_eq!(
                Strategy::generate(&(0u64..1000), &mut a),
                Strategy::generate(&(0u64..1000), &mut b)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn macro_binds_arguments(x in 0u32..10, v in crate::collection::vec(0.0..1.0f64, 0..5)) {
            prop_assert!(x < 10);
            prop_assert!(v.len() < 5);
            prop_assert!(v.iter().all(|f| (0.0..1.0).contains(f)));
        }

        #[test]
        fn oneof_and_map_compose(s in prop_oneof![Just(1u8), Just(2u8)].prop_map(|x| x * 10)) {
            prop_assert!(s == 10 || s == 20);
        }
    }

    #[test]
    fn failing_case_is_reproducible_from_its_seed() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let label = "shim-test::boom";
        let mut values: Vec<u32> = Vec::new();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            crate::run_property(label, &ProptestConfig::with_cases(10), |rng| {
                let v = Strategy::generate(&(0u32..1_000_000), rng);
                values.push(v);
                assert!(values.len() < 4, "fourth case fails by construction");
            });
        }));
        assert!(outcome.is_err(), "property should have failed");
        assert_eq!(values.len(), 4, "runner should stop at the failing case");
        // Replaying the reported seed regenerates the exact failing value.
        let seed = crate::nth_case_seed(label, 3);
        let mut rng = crate::TestRng::from_seed(seed);
        assert_eq!(Strategy::generate(&(0u32..1_000_000), &mut rng), values[3]);
    }

    #[test]
    fn case_seeds_are_deterministic_per_label() {
        let a: Vec<u64> = (0..5).map(|i| crate::nth_case_seed("lbl", i)).collect();
        let b: Vec<u64> = (0..5).map(|i| crate::nth_case_seed("lbl", i)).collect();
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len(), "case seeds should differ");
        assert_ne!(crate::nth_case_seed("other", 0), a[0]);
    }

    #[test]
    fn recursive_terminates() {
        #[derive(Debug, Clone)]
        enum T {
            Leaf,
            Node(Vec<T>),
        }
        fn depth(t: &T) -> usize {
            match t {
                T::Leaf => 0,
                T::Node(cs) => 1 + cs.iter().map(depth).max().unwrap_or(0),
            }
        }
        let strat = Just(T::Leaf).prop_recursive(3, 12, 3, |inner| {
            crate::collection::vec(inner, 1..3).prop_map(T::Node)
        });
        let mut rng = crate::TestRng::from_label("rec");
        let mut saw_node = false;
        for _ in 0..100 {
            let t = Strategy::generate(&strat, &mut rng);
            assert!(depth(&t) <= 3);
            saw_node |= matches!(t, T::Node(_));
        }
        assert!(saw_node, "recursion never fired");
    }
}
