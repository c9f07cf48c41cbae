//! Offline shim for the subset of `proptest` used by this workspace.
//!
//! Provides the `proptest!` / `prop_assert*!` macros, the [`strategy::Strategy`] trait
//! with `prop_map`, range and tuple strategies, `collection::vec`,
//! `any::<T>()`, `sample::Index` and `ProptestConfig::with_cases`.
//!
//! Semantics: each test runs `cases` randomized iterations, seeded
//! deterministically from the test's module path and name plus the case
//! index, so failures reproduce run-to-run. Unlike upstream proptest there is
//! **no shrinking** — a failing case panics with the normal assertion message
//! (generated inputs are visible via `Debug` in the assertion you write).

pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::hash::{Hash, Hasher};

    /// Runner configuration; only `cases` is honoured by this shim.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of randomized cases each test executes.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 48 }
        }
    }

    impl ProptestConfig {
        /// Configuration running `cases` iterations per test.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// Deterministic per-(test, case) generator used by the `proptest!` macro.
    pub fn rng_for_case(test_path: &str, case: u32) -> StdRng {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        test_path.hash(&mut hasher);
        case.hash(&mut hasher);
        StdRng::seed_from_u64(hasher.finish())
    }
}

pub mod strategy {
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::ops::Range;

    /// A recipe for generating values of `Self::Value` from a seeded RNG.
    pub trait Strategy {
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut StdRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Strategy that always yields a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

    macro_rules! tuple_strategy {
        ($($s:ident.$idx:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }

    tuple_strategy!(A.0, B.1);
    tuple_strategy!(A.0, B.1, C.2);
    tuple_strategy!(A.0, B.1, C.2, D.3);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);

    /// Weighted union of boxed strategies over one value type — what the `prop_oneof!` macro
    /// builds. Arm weights mirror upstream's `w => strategy` syntax.
    pub struct Union<T> {
        arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>,
        total_weight: u32,
    }

    impl<T> Union<T> {
        /// Builds a union; panics if no arm is given or every weight is zero.
        pub fn new(arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>) -> Self {
            let total_weight = arms.iter().map(|(w, _)| *w).sum();
            assert!(
                total_weight > 0,
                "prop_oneof! needs a positive total weight"
            );
            Union { arms, total_weight }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            let mut pick = rng.gen_range(0..self.total_weight);
            for (weight, strat) in &self.arms {
                if pick < *weight {
                    return strat.generate(rng);
                }
                pick -= weight;
            }
            unreachable!("weights sum to total_weight");
        }
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::ops::Range;

    /// Strategy for `Vec`s with a length drawn from `size`.
    pub struct VecStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    /// Generates `Vec`s of `elem`-generated values with `len` in `size`.
    pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.clone());
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod arbitrary {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::RngCore;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        fn arbitrary(rng: &mut StdRng) -> Self;
    }

    /// The canonical strategy for `T`, i.e. `any::<T>()`.
    pub struct Any<T>(PhantomData<T>);

    /// Returns the canonical full-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut StdRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut StdRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod sample {
    use super::arbitrary::Arbitrary;
    use rand::rngs::StdRng;
    use rand::RngCore;

    /// An index into a collection whose length is only known at use time.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    pub struct Index(usize);

    impl Index {
        /// Projects this index into `0..len`. Panics if `len == 0`.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index called with an empty collection");
            self.0 % len
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut StdRng) -> Self {
            Index(rng.next_u64() as usize)
        }
    }
}

pub mod prelude {
    pub use crate as prop;
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Weighted choice between strategies yielding one value type, mirroring upstream's
/// `prop_oneof![w1 => s1, s2, ...]` (arms without a weight default to 1; weighted and
/// unweighted arms may be mixed).
#[macro_export]
macro_rules! prop_oneof {
    (@arms [$($acc:tt)*]) => {
        $crate::strategy::Union::new(vec![$($acc)*])
    };
    (@arms [$($acc:tt)*] $weight:literal => $strat:expr $(, $($rest:tt)*)?) => {
        $crate::prop_oneof!(@arms [
            $($acc)*
            ($weight, Box::new($strat) as Box<dyn $crate::strategy::Strategy<Value = _>>),
        ] $($($rest)*)?)
    };
    (@arms [$($acc:tt)*] $strat:expr $(, $($rest:tt)*)?) => {
        $crate::prop_oneof!(@arms [
            $($acc)*
            (1u32, Box::new($strat) as Box<dyn $crate::strategy::Strategy<Value = _>>),
        ] $($($rest)*)?)
    };
    ($($arms:tt)+) => {
        $crate::prop_oneof!(@arms [] $($arms)+)
    };
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => { assert_eq!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)+) => { assert_eq!($left, $right, $($fmt)+) };
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => { assert_ne!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)+) => { assert_ne!($left, $right, $($fmt)+) };
}

/// Declares property tests: each `fn name(pat in strategy, ...)` becomes a
/// `#[test]` running `cases` deterministic randomized iterations.
#[macro_export]
macro_rules! proptest {
    (@munch ($cfg:expr)) => {};
    (@munch ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            for __case in 0..__config.cases {
                let mut __rng = $crate::test_runner::rng_for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    __case,
                );
                $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                $body
            }
        }
        $crate::proptest!(@munch ($cfg) $($rest)*);
    };
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@munch ($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@munch ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn vec_lengths_respect_bounds(v in prop::collection::vec(0u8..10, 2..5)) {
            prop_assert!((2..5).contains(&v.len()));
            prop_assert!(v.iter().all(|&b| b < 10));
        }

        #[test]
        fn tuples_and_map_compose(pair in (0u64..100, 0u64..100).prop_map(|(a, b)| a + b)) {
            prop_assert!(pair < 199, "sum of two sub-100 values");
        }

        #[test]
        fn index_projects_into_range(idx in any::<prop::sample::Index>(), len in 1usize..50) {
            prop_assert!(idx.index(len) < len);
        }

        #[test]
        fn oneof_draws_from_every_weighted_arm(
            picks in prop::collection::vec(
                prop_oneof![
                    3 => (0u64..10).prop_map(|v| v),
                    1 => (100u64..110).prop_map(|v| v),
                    Just(555u64),
                ],
                40..60,
            )
        ) {
            prop_assert!(picks
                .iter()
                .all(|&v| v < 10u64 || (100u64..110).contains(&v) || v == 555));
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let a = crate::test_runner::rng_for_case("x::y", 3);
        let b = crate::test_runner::rng_for_case("x::y", 3);
        use rand::RngCore;
        let (mut a, mut b) = (a, b);
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
