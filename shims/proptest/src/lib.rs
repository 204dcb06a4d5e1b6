//! Minimal vendored stand-in for `proptest`.
//!
//! The workspace builds offline, so the real crate cannot be fetched.  This
//! shim keeps the call surface the in-repo property tests use — `proptest!`,
//! `prop_oneof!`, `prop_assert*!`, `Strategy` combinators, range/collection/
//! regex-subset strategies — with a simpler execution model: each test runs
//! [`CASES`] deterministic random cases (seeded from the test name), and a
//! failing case panics with the generated inputs unshrunk.

use std::ops::{Range, RangeInclusive};

/// Number of random cases per property test.
pub const CASES: u64 = 64;

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

/// Deterministic splitmix64 generator driving value generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator for case `case` of the test named `name`.
    pub fn for_case(name: &str, case: u64) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        TestRng {
            state: h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi]`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "empty size range");
        let span = (hi - lo) as u64 + 1;
        lo + (self.next_u64() % span) as usize
    }
}

// ---------------------------------------------------------------------------
// Strategy core
// ---------------------------------------------------------------------------

/// A recipe for generating random values of `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn gen_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Keeps only values for which `f` returns true (bounded retries).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        reason: impl Into<String>,
        f: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            reason: reason.into(),
            f,
        }
    }

    /// Builds a second strategy from each generated value and draws from it.
    fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn gen_value(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.gen_value(rng))
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    reason: String,
    f: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn gen_value(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.gen_value(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter exhausted 1000 attempts without satisfying: {}",
            self.reason
        );
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;

    fn gen_value(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.gen_value(rng)).gen_value(rng)
    }
}

trait DynStrategy<T> {
    fn gen_dyn(&self, rng: &mut TestRng) -> T;
}

impl<T, S: Strategy<Value = T>> DynStrategy<T> for S {
    fn gen_dyn(&self, rng: &mut TestRng) -> T {
        self.gen_value(rng)
    }
}

/// A type-erased strategy (see [`Strategy::boxed`]).
pub struct BoxedStrategy<T>(Box<dyn DynStrategy<T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn gen_value(&self, rng: &mut TestRng) -> T {
        self.0.gen_dyn(rng)
    }
}

/// Uniform choice between boxed alternatives; built by [`prop_oneof!`].
pub struct Union<T>(pub Vec<BoxedStrategy<T>>);

impl<T> Union<T> {
    /// Builds a union over the given alternatives.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union(arms)
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn gen_value(&self, rng: &mut TestRng) -> T {
        let idx = (rng.next_u64() % self.0.len() as u64) as usize;
        self.0[idx].gen_value(rng)
    }
}

/// Always generates a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn gen_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

// ---------------------------------------------------------------------------
// Arbitrary / any
// ---------------------------------------------------------------------------

/// Types with a canonical whole-domain strategy.
pub trait Arbitrary: Sized {
    /// The strategy type for `Self`.
    type Strategy: Strategy<Value = Self>;

    /// The whole-domain strategy.
    fn arbitrary() -> Self::Strategy;
}

/// The canonical strategy for `T` (mirrors `proptest::arbitrary::any`).
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Whole-domain strategy for a primitive; see [`Arbitrary`].
pub struct AnyPrimitive<T>(std::marker::PhantomData<T>);

macro_rules! arbitrary_impl {
    ($t:ty, $rng:ident, $gen:expr) => {
        impl Strategy for AnyPrimitive<$t> {
            type Value = $t;

            fn gen_value(&self, $rng: &mut TestRng) -> $t {
                $gen
            }
        }

        impl Arbitrary for $t {
            type Strategy = AnyPrimitive<$t>;

            fn arbitrary() -> Self::Strategy {
                AnyPrimitive(std::marker::PhantomData)
            }
        }
    };
}

arbitrary_impl!(bool, rng, rng.next_u64() & 1 == 1);
arbitrary_impl!(i64, rng, rng.next_u64() as i64);
arbitrary_impl!(u64, rng, rng.next_u64());
arbitrary_impl!(u32, rng, rng.next_u64() as u32);
arbitrary_impl!(u16, rng, rng.next_u64() as u16);
arbitrary_impl!(u8, rng, rng.next_u64() as u8);
arbitrary_impl!(usize, rng, rng.next_u64() as usize);
// Raw bit reinterpretation on purpose: NaNs, infinities and subnormals are
// exactly the f64s a property test wants to see.
arbitrary_impl!(f64, rng, f64::from_bits(rng.next_u64()));

// ---------------------------------------------------------------------------
// Range strategies
// ---------------------------------------------------------------------------

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn gen_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let draw = (rng.next_u64() as u128) % span;
                (self.start as i128 + draw as i128) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn gen_value(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let draw = (rng.next_u64() as u128) % span;
                (lo as i128 + draw as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn gen_value(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;

    fn gen_value(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range strategy");
        lo + rng.unit_f64() * (hi - lo)
    }
}

// ---------------------------------------------------------------------------
// Regex-subset string strategy
// ---------------------------------------------------------------------------

/// String literals act as strategies for the regex subset
/// `[class]{m,n}` (e.g. `"[a-z]{1,16}"`, `"[ -~]{0,12}"`).
impl Strategy for &str {
    type Value = String;

    fn gen_value(&self, rng: &mut TestRng) -> String {
        let (alphabet, lo, hi) = parse_simple_regex(self);
        let len = rng.usize_in(lo, hi);
        (0..len)
            .map(|_| alphabet[(rng.next_u64() % alphabet.len() as u64) as usize])
            .collect()
    }
}

fn parse_simple_regex(pattern: &str) -> (Vec<char>, usize, usize) {
    let chars: Vec<char> = pattern.chars().collect();
    let unsupported = || -> ! {
        panic!("string strategy shim only supports `[class]{{m,n}}` patterns, got {pattern:?}")
    };
    if chars.first() != Some(&'[') {
        unsupported();
    }
    let close = chars
        .iter()
        .position(|&c| c == ']')
        .unwrap_or_else(|| unsupported());
    let mut alphabet = Vec::new();
    let mut i = 1;
    while i < close {
        if i + 2 < close && chars[i + 1] == '-' {
            let (a, b) = (chars[i], chars[i + 2]);
            if a > b {
                unsupported();
            }
            for c in a..=b {
                alphabet.push(c);
            }
            i += 3;
        } else {
            alphabet.push(chars[i]);
            i += 1;
        }
    }
    if alphabet.is_empty() {
        unsupported();
    }
    let rest: String = chars[close + 1..].iter().collect();
    if !(rest.starts_with('{') && rest.ends_with('}')) {
        unsupported();
    }
    let body = &rest[1..rest.len() - 1];
    let (lo, hi) = match body.split_once(',') {
        Some((l, h)) => (
            l.trim().parse().unwrap_or_else(|_| unsupported()),
            h.trim().parse().unwrap_or_else(|_| unsupported()),
        ),
        None => {
            let n = body.trim().parse().unwrap_or_else(|_| unsupported());
            (n, n)
        }
    };
    (alphabet, lo, hi)
}

// ---------------------------------------------------------------------------
// Tuple strategies
// ---------------------------------------------------------------------------

macro_rules! tuple_strategy {
    ($(($($t:ident $idx:tt),+))*) => {$(
        impl<$($t: Strategy),+> Strategy for ($($t,)+) {
            type Value = ($($t::Value,)+);

            fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.gen_value(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7)
}

// ---------------------------------------------------------------------------
// Collections
// ---------------------------------------------------------------------------

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Element-count specification for [`vec()`]: a fixed size or a range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Generates `Vec`s whose elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn gen_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.usize_in(self.size.lo, self.size.hi);
            (0..len).map(|_| self.element.gen_value(rng)).collect()
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Defines property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a test running [`CASES`] deterministic cases.
#[macro_export]
macro_rules! proptest {
    ($($(#[$attr:meta])* fn $name:ident($($p:pat in $s:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$attr])*
            fn $name() {
                for __case in 0..$crate::CASES {
                    let mut __rng = $crate::TestRng::for_case(stringify!($name), __case);
                    let ($($p,)+) =
                        ($( $crate::Strategy::gen_value(&($s), &mut __rng), )+);
                    $body
                }
            }
        )*
    };
}

/// Uniformly picks one of several strategies with the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Everything a property-test module needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3usize..10, y in -2.5f64..2.5, z in 1u32..=4) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-2.5..2.5).contains(&y));
            prop_assert!((1..=4).contains(&z));
        }

        #[test]
        fn vec_sizes_respect_range(v in prop::collection::vec(0i64..5, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&e| (0..5).contains(&e)));
        }

        #[test]
        fn string_pattern_subset(s in "[a-c]{2,4}") {
            prop_assert!(s.len() >= 2 && s.len() <= 4);
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
        }

        #[test]
        fn oneof_and_map_compose(v in prop_oneof![
            Just(0i64),
            (1i64..100).prop_map(|x| x * 2),
        ]) {
            prop_assert!(v == 0 || (v % 2 == 0 && (2..200).contains(&v)));
        }

        #[test]
        fn flat_map_links_dimensions(pair in (1usize..5).prop_flat_map(|n| {
            prop::collection::vec(0f64..1.0, n).prop_map(move |v| (n, v))
        })) {
            prop_assert_eq!(pair.0, pair.1.len());
        }
    }

    #[test]
    fn filter_keeps_predicate() {
        let strat = (0i64..100).prop_filter("even", |v| v % 2 == 0);
        let mut rng = super::TestRng::for_case("filter", 0);
        for _ in 0..200 {
            assert_eq!(strat.gen_value(&mut rng) % 2, 0);
        }
    }

    #[test]
    fn deterministic_per_name_and_case() {
        let strat = 0u64..u64::MAX;
        let mut a = super::TestRng::for_case("x", 3);
        let mut b = super::TestRng::for_case("x", 3);
        assert_eq!(strat.gen_value(&mut a), strat.gen_value(&mut b));
    }
}
