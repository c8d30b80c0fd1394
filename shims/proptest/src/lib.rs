//! Offline shim for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so the workspace vendors
//! the proptest API subset its tests actually use: `proptest!` with an
//! optional `proptest_config` attribute, strategies over integer and float
//! ranges, `any::<T>()`, `Just`, tuples, `prop_map`, `prop_oneof!`,
//! `collection::vec`, and the `prop_assert*` / `prop_assume!` macros.
//!
//! Differences from upstream, by design:
//! - no shrinking: a failing case reports its inputs and panics as-is;
//! - generation is fully deterministic, seeded from the test's module path
//!   and name, so failures reproduce without a persistence file;
//! - rejected cases (`prop_assume!`) are re-drawn, with a global cap.

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    /// A generator of values of type [`Strategy::Value`].
    ///
    /// Unlike upstream there is no value tree: `generate` draws a single
    /// concrete value from the deterministic [`TestRng`].
    pub trait Strategy {
        /// Type of values this strategy produces.
        type Value;

        /// Draw one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Map generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { source: self, func: f }
        }

        /// Erase the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy (`prop_oneof!` arms, heterogeneous unions).
    pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            (**self).generate(rng)
        }
    }

    /// Strategy adapter produced by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        source: S,
        func: F,
    }

    impl<S, F, U> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.func)(self.source.generate(rng))
        }
    }

    /// Always produces a clone of the wrapped value.
    #[derive(Clone, Debug)]
    pub struct Just<V: Clone>(pub V);

    impl<V: Clone> Strategy for Just<V> {
        type Value = V;
        fn generate(&self, _rng: &mut TestRng) -> V {
            self.0.clone()
        }
    }

    /// Uniform choice between boxed strategies (`prop_oneof!`).
    pub struct Union<V> {
        options: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// Build a union; `options` must be non-empty.
        pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let idx = rng.below(self.options.len() as u64) as usize;
            self.options[idx].generate(rng)
        }
    }

    /// Full-domain strategy for primitive types; see [`any`].
    pub struct Any<T>(PhantomData<T>);

    /// Strategy over `T`'s whole value domain (primitives only).
    pub fn any<T: ArbitraryPrim>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: ArbitraryPrim> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Primitives `any::<T>()` can produce.
    pub trait ArbitraryPrim {
        /// Draw a uniform value over the full domain.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl ArbitraryPrim for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl ArbitraryPrim for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let v = (rng.next_u64() as u128) % span;
                    (self.start as i128 + v as i128) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    let v = (rng.next_u64() as u128) % span;
                    (lo as i128 + v as i128) as $t
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    self.start + (self.end - self.start) * rng.unit_f64() as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    lo + (hi - lo) * rng.unit_f64_inclusive() as $t
                }
            }
        )*};
    }
    float_range_strategy!(f32, f64);

    macro_rules! tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Length bounds for [`vec()`]; convertible from ranges and fixed sizes.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: u64,
        hi_inclusive: u64,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n as u64, hi_inclusive: n as u64 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange { lo: r.start as u64, hi_inclusive: r.end as u64 - 1 }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty vec size range");
            SizeRange { lo: *r.start() as u64, hi_inclusive: *r.end() as u64 }
        }
    }

    /// Strategy for `Vec<T>` with lengths drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generate vectors whose elements come from `element` and whose length
    /// lies in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.hi_inclusive - self.size.lo + 1;
            let len = self.size.lo + rng.below(span);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    /// Per-test deterministic generator (SplitMix64).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed deterministically from the test's full name.
        pub fn for_test(name: &str) -> Self {
            // FNV-1a over the name gives a stable per-test stream.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng { state: h }
        }

        /// Next 64 uniformly random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "below(0)");
            self.next_u64() % bound
        }

        /// Uniform float in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Uniform float in `[0, 1]`.
        pub fn unit_f64_inclusive(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / ((1u64 << 53) - 1) as f64
        }
    }

    /// Outcome of one generated case when it does not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// Assertion failure: the property does not hold for these inputs.
        Fail(String),
        /// Precondition failure (`prop_assume!`): redraw and retry.
        Reject(String),
    }

    /// Subset of proptest's runner configuration: just the case count.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of passing cases required per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // Upstream defaults to 256; the shim trades coverage for
            // wall-clock since every case re-runs full pipelines.
            ProptestConfig { cases: 32 }
        }
    }
}

/// Define property tests. Mirrors proptest's macro shape:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(24))]
///     #[test]
///     fn holds(x in 0u32..10, v in proptest::collection::vec(any::<u8>(), 0..9)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_cases! { @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_cases! {
            @cfg($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_cases {
    (@cfg($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            let mut rng = $crate::test_runner::TestRng::for_test(concat!(
                module_path!(), "::", stringify!($name)
            ));
            let mut passed: u32 = 0;
            let mut rejected: u32 = 0;
            while passed < config.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                let __inputs = ($(::std::clone::Clone::clone(&$arg),)+);
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                match outcome {
                    ::std::result::Result::Ok(()) => passed += 1,
                    ::std::result::Result::Err(
                        $crate::test_runner::TestCaseError::Reject(_),
                    ) => {
                        rejected += 1;
                        assert!(
                            rejected < 100_000,
                            "prop_assume! rejected too many cases in {}",
                            stringify!($name)
                        );
                    }
                    ::std::result::Result::Err(
                        $crate::test_runner::TestCaseError::Fail(msg),
                    ) => {
                        panic!(
                            "property {} failed at case {}: {}\ninputs {}: {:?}",
                            stringify!($name),
                            passed,
                            msg,
                            stringify!(($($arg),+)),
                            __inputs
                        );
                    }
                }
            }
        }
    )*};
}

/// Assert a property inside `proptest!`; on failure the case's inputs are
/// reported. Accepts an optional format message like `assert!`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(format!($($fmt)+)),
            );
        }
    };
}

/// `assert_eq!` analogue for `proptest!` bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return ::std::result::Result::Err(
                        $crate::test_runner::TestCaseError::Fail(format!(
                            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                            stringify!($left),
                            stringify!($right),
                            l,
                            r
                        )),
                    );
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return ::std::result::Result::Err(
                        $crate::test_runner::TestCaseError::Fail(format!(
                            "{}\n  left: {:?}\n right: {:?}",
                            format!($($fmt)+),
                            l,
                            r
                        )),
                    );
                }
            }
        }
    };
}

/// Skip the current case unless `cond` holds; a fresh case is drawn.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                concat!("assumption failed: ", stringify!($cond)).to_string(),
            ));
        }
    };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Pick {
        A(u8),
        B,
    }

    fn pick() -> impl Strategy<Value = Pick> {
        prop_oneof![(0u8..10).prop_map(Pick::A), Just(Pick::B)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, y in -5i64..=5, f in 0.0f64..=1.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-5..=5).contains(&y));
            prop_assert!((0.0..=1.0).contains(&f));
        }

        #[test]
        fn vecs_respect_size(v in collection::vec(any::<u8>(), 2..9)) {
            prop_assert!(v.len() >= 2 && v.len() < 9, "len {}", v.len());
        }

        #[test]
        fn oneof_hits_all_arms(vs in collection::vec(pick(), 64..65)) {
            prop_assert!(vs.iter().any(|p| matches!(p, Pick::A(_))));
            prop_assert!(vs.contains(&Pick::B));
        }

        #[test]
        fn assume_redraws(x in 0u8..4) {
            prop_assume!(x != 1);
            prop_assert!(x != 1);
        }

        #[test]
        fn tuples_compose(pair in (1u8..3, any::<bool>()), eq_msg in 0u32..1) {
            prop_assert!(pair.0 >= 1 && pair.0 < 3);
            prop_assert_eq!(eq_msg, 0, "custom {}", "message");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::test_runner::TestRng::for_test("t");
        let mut b = crate::test_runner::TestRng::for_test("t");
        let s = crate::collection::vec(crate::strategy::any::<u64>(), 3..10);
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }

    #[test]
    #[should_panic(expected = "property")]
    fn failures_report_inputs() {
        proptest! {
            fn always_fails(x in 0u8..10) {
                prop_assert!(x > 200);
            }
        }
        always_fails();
    }
}
