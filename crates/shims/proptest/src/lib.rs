//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this workspace-local
//! crate implements the subset of proptest the repository's property tests
//! use: the [`proptest!`] macro, [`strategy::Strategy`] with `prop_map` /
//! `prop_flat_map` / `prop_filter_map`, range and tuple strategies, [`Just`],
//! [`any`], [`collection::vec`], [`option::of`], and the `prop_assert!` /
//! `prop_assert_eq!` macros.
//!
//! Semantics differ from upstream in two deliberate ways: cases are sampled
//! from a deterministic per-test RNG (seeded from the test name) rather than
//! an entropy source, and failing cases are **not shrunk** — the panic
//! message reports the case index so a failure is still reproducible by
//! rerunning the same test binary.

pub use strategy::{any, Just, Strategy};

pub mod test_runner {
    //! Test-run configuration and deterministic seeding.

    use rand::prelude::*;

    /// Subset of proptest's run configuration: just the case count.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases each property runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` random cases per property.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // Upstream defaults to 256; 64 keeps the single-core CI budget
            // reasonable while still exercising each property broadly.
            Self { cases: 64 }
        }
    }

    /// Deterministic RNG for a named property test (FNV-1a over the name).
    pub fn deterministic_rng(test_name: &str) -> SmallRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        SmallRng::seed_from_u64(h)
    }
}

pub mod strategy {
    //! Value-generation strategies.

    use rand::prelude::*;
    use rand::rngs::SmallRng;

    /// A recipe for generating random values of one type.
    ///
    /// Unlike upstream proptest there is no value tree and no shrinking:
    /// [`Strategy::sample`] directly produces a value.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn sample(&self, rng: &mut SmallRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then samples from the strategy `f` builds from
        /// it (dependent generation).
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        /// Keeps only values `f` maps to `Some`, resampling otherwise.
        fn prop_filter_map<O, F: Fn(Self::Value) -> Option<O>>(
            self,
            whence: &'static str,
            f: F,
        ) -> FilterMap<Self, F>
        where
            Self: Sized,
        {
            FilterMap {
                inner: self,
                whence,
                f,
            }
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn sample(&self, rng: &mut SmallRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;

        fn sample(&self, rng: &mut SmallRng) -> T::Value {
            (self.f)(self.inner.sample(rng)).sample(rng)
        }
    }

    /// See [`Strategy::prop_filter_map`].
    pub struct FilterMap<S, F> {
        inner: S,
        whence: &'static str,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> Option<O>> Strategy for FilterMap<S, F> {
        type Value = O;

        fn sample(&self, rng: &mut SmallRng) -> O {
            for _ in 0..1_000 {
                if let Some(v) = (self.f)(self.inner.sample(rng)) {
                    return v;
                }
            }
            panic!(
                "prop_filter_map rejected 1000 consecutive samples: {}",
                self.whence
            )
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _rng: &mut SmallRng) -> T {
            self.0.clone()
        }
    }

    /// Types with a canonical "anything" strategy (see [`any`]).
    pub trait Arbitrary: Sized {
        /// Samples an unconstrained value.
        fn arbitrary(rng: &mut SmallRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut SmallRng) -> bool {
            rng.gen()
        }
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut SmallRng) -> $t {
                    rng.gen::<u64>() as $t
                }
            }
        )*};
    }
    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for f32 {
        fn arbitrary(rng: &mut SmallRng) -> f32 {
            // Bounded; the workspace's numeric properties assume finite inputs.
            rng.gen_range(-1e6f32..1e6)
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut SmallRng) -> f64 {
            rng.gen_range(-1e9f64..1e9)
        }
    }

    /// The canonical strategy for a type (`any::<bool>()` etc.).
    pub struct Any<T>(core::marker::PhantomData<T>);

    /// Strategy generating arbitrary values of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(core::marker::PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn sample(&self, rng: &mut SmallRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut SmallRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut SmallRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }
    range_strategy!(usize, u64, u32, u16, u8, isize, i64, i32, i16, i8, f32, f64);

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut SmallRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);
}

pub mod collection {
    //! Collection strategies.

    use rand::prelude::*;
    use rand::rngs::SmallRng;

    use crate::strategy::Strategy;

    /// Length specification for [`vec()`]: an exact length or a half-open
    /// range of lengths.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n + 1 }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec length range");
            Self {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            Self {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// Strategy for `Vec`s with elements from `element` and lengths from
    /// `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` strategy: `vec(element, len)` or `vec(element, lo..hi)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut SmallRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..self.size.hi);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod option {
    //! `Option` strategies.

    use rand::prelude::*;
    use rand::rngs::SmallRng;

    use crate::strategy::Strategy;

    /// Strategy yielding `Some(inner)` three times out of four.
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// `Option` strategy over `inner`'s values.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn sample(&self, rng: &mut SmallRng) -> Option<S::Value> {
            if rng.gen_range(0usize..4) == 0 {
                None
            } else {
                Some(self.inner.sample(rng))
            }
        }
    }
}

pub mod prelude {
    //! Glob-import surface matching `proptest::prelude`.
    pub use crate::strategy::{any, Any, Arbitrary, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Asserts a property-condition; panics (failing the case) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running the body over random samples.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { @cfg($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (@cfg($cfg:expr)) => {};
    (@cfg($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::deterministic_rng(stringify!($name));
            for __case in 0..__config.cases {
                let __run = || {
                    $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut __rng);)+
                    $body
                };
                if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(__run)) {
                    eprintln!(
                        "proptest case {}/{} of `{}` failed",
                        __case + 1,
                        __config.cases,
                        stringify!($name),
                    );
                    std::panic::resume_unwind(payload);
                }
            }
        }
        $crate::__proptest_items! { @cfg($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 0usize..10, y in -1.0f32..1.0) {
            prop_assert!(x < 10);
            prop_assert!((-1.0..1.0).contains(&y));
        }

        #[test]
        fn tuple_pattern_destructures((a, b) in (0u64..5, 0u64..5)) {
            prop_assert!(a < 5 && b < 5);
        }

        #[test]
        fn vec_lengths_respect_size_range(
            xs in crate::collection::vec(0i8..=1, 3..7),
            ys in crate::collection::vec(0usize..9, 4),
        ) {
            prop_assert!((3..7).contains(&xs.len()));
            prop_assert_eq!(ys.len(), 4);
        }

        #[test]
        fn flat_map_builds_dependent_values(
            (n, xs) in (1usize..6).prop_flat_map(|n| {
                (Just(n), crate::collection::vec(0.0f64..1.0, n))
            }),
        ) {
            prop_assert_eq!(xs.len(), n);
        }

        #[test]
        fn filter_map_only_yields_accepted(v in (0usize..100).prop_filter_map("even", |v| {
            if v % 2 == 0 { Some(v) } else { None }
        })) {
            prop_assert_eq!(v % 2, 0);
        }

        #[test]
        fn option_of_yields_both_variants_somewhere(
            opts in crate::collection::vec(crate::option::of(0usize..3), 64),
        ) {
            // With 64 draws at 25% None, both variants appear w.h.p.; this
            // is deterministic given the fixed per-test seed.
            prop_assert!(opts.iter().any(Option::is_some));
            prop_assert!(opts.iter().any(Option::is_none));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(17))]

        #[test]
        fn config_header_parses(x in 0u32..2) {
            prop_assert!(x < 2);
        }
    }

    #[test]
    fn deterministic_rng_is_stable_per_name() {
        use rand::prelude::*;
        let mut a = crate::test_runner::deterministic_rng("foo");
        let mut b = crate::test_runner::deterministic_rng("foo");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::test_runner::deterministic_rng("bar");
        assert_ne!(a.next_u64(), c.next_u64());
    }
}
