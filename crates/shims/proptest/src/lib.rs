//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access, so the workspace vendors the
//! slice of proptest's API its tests use: the `Strategy` trait with
//! `prop_map`/`prop_recursive`/`boxed`, range and tuple and `&str`-regex
//! strategies, `Just`, `any`, `proptest::collection::vec`, `prop_oneof!`,
//! and the `proptest!` test macro with `ProptestConfig::with_cases`.
//!
//! Semantics differ from real proptest in two deliberate ways: there is no
//! shrinking (a failing case reports the raw generated inputs), and case
//! generation is seeded deterministically from the test name, so failures
//! reproduce bit-for-bit across runs.

use std::fmt::Debug;
use std::ops::{Bound, Range, RangeBounds, RangeInclusive};
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SampleUniform, SeedableRng};

/// The per-test random source. Seeded from the test name so every run of a
/// given test sees the same case sequence.
#[derive(Debug, Clone)]
pub struct TestRng {
    rng: StdRng,
}

impl TestRng {
    pub fn seeded(name: &str) -> TestRng {
        // FNV-1a over the test name; any stable hash works.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng {
            rng: StdRng::seed_from_u64(h),
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    fn range<T: SampleUniform, R: RangeBounds<T>>(&mut self, r: R) -> T {
        self.rng.random_range(r)
    }
}

/// A generator of test values. Unlike real proptest there is no value tree
/// or shrinking: `new_value` produces a finished value directly.
pub trait Strategy {
    type Value;

    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<W, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> W,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (cheaply clonable).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        BoxedStrategy {
            gen: Rc::new(move |rng| self.new_value(rng)),
        }
    }

    /// Builds a recursive strategy: `self` is the leaf case and `recurse`
    /// wraps an inner strategy into the composite case. `depth` bounds the
    /// nesting; the size/branch hints are accepted for API compatibility but
    /// unused (there is no shrinking to budget for).
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let leaf = self.boxed();
        let mut cur = leaf.clone();
        for _ in 0..depth {
            let rec = recurse(cur).boxed();
            let l = leaf.clone();
            cur = BoxedStrategy {
                gen: Rc::new(move |rng| {
                    // Bias toward the composite case so deeper levels are
                    // actually exercised; the leaf keeps generation finite.
                    if rng.next_u64() % 4 < 3 {
                        rec.new_value(rng)
                    } else {
                        l.new_value(rng)
                    }
                }),
            };
        }
        cur
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<V> {
    gen: Rc<dyn Fn(&mut TestRng) -> V>,
}

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            gen: Rc::clone(&self.gen),
        }
    }
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn new_value(&self, rng: &mut TestRng) -> V {
        (self.gen)(rng)
    }
}

/// `prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, W> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> W,
{
    type Value = W;
    fn new_value(&self, rng: &mut TestRng) -> W {
        (self.f)(self.inner.new_value(rng))
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

impl<T: SampleUniform> Strategy for Range<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        rng.range((Bound::Included(&self.start), Bound::Excluded(&self.end)))
    }
}

impl<T: SampleUniform> Strategy for RangeInclusive<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        rng.range((Bound::Included(self.start()), Bound::Included(self.end())))
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.new_value(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);

/// Uniform choice among type-erased alternatives (built by `prop_oneof!`).
pub struct OneOf<V> {
    arms: Vec<BoxedStrategy<V>>,
}

impl<V> OneOf<V> {
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> OneOf<V> {
        assert!(
            !arms.is_empty(),
            "prop_oneof! needs at least one alternative"
        );
        OneOf { arms }
    }
}

impl<V> Strategy for OneOf<V> {
    type Value = V;
    fn new_value(&self, rng: &mut TestRng) -> V {
        let i = rng.range(0..self.arms.len());
        self.arms[i].new_value(rng)
    }
}

/// Types with a canonical whole-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, i8, u16, i16, u32, i32, u64, i64, usize, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy over a type's whole domain.
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — uniform over the type's domain.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

// ===== string strategies ===================================================

/// `&str` patterns act as generators for a small regex subset: literal
/// characters, `[a-z0-9]`-style classes, and `{m}` / `{m,n}` repetition.
/// This covers every pattern the workspace's tests use.
impl Strategy for &'static str {
    type Value = String;
    fn new_value(&self, rng: &mut TestRng) -> String {
        gen_from_pattern(self, rng)
    }
}

fn gen_from_pattern(pat: &str, rng: &mut TestRng) -> String {
    let chars: Vec<char> = pat.chars().collect();
    let mut out = String::new();
    let mut i = 0;
    while i < chars.len() {
        // One atom: a class or a literal.
        let alphabet: Vec<char> = if chars[i] == '[' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == ']')
                .unwrap_or_else(|| panic!("unclosed [ in pattern {pat:?}"));
            let class = &chars[i + 1..i + close];
            i += close + 1;
            expand_class(class, pat)
        } else {
            let c = if chars[i] == '\\' && i + 1 < chars.len() {
                i += 1;
                chars[i]
            } else {
                chars[i]
            };
            i += 1;
            vec![c]
        };
        // Optional {m} / {m,n} quantifier.
        let (lo, hi) = if i < chars.len() && chars[i] == '{' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == '}')
                .unwrap_or_else(|| panic!("unclosed {{ in pattern {pat:?}"));
            let spec: String = chars[i + 1..i + close].iter().collect();
            i += close + 1;
            match spec.split_once(',') {
                Some((m, n)) => (
                    m.trim().parse::<usize>().expect("repeat lower bound"),
                    n.trim().parse::<usize>().expect("repeat upper bound"),
                ),
                None => {
                    let m = spec.trim().parse::<usize>().expect("repeat count");
                    (m, m)
                }
            }
        } else {
            (1, 1)
        };
        let count = rng.range(lo..=hi);
        for _ in 0..count {
            let j = rng.range(0..alphabet.len());
            out.push(alphabet[j]);
        }
    }
    out
}

fn expand_class(class: &[char], pat: &str) -> Vec<char> {
    let mut alphabet = Vec::new();
    let mut k = 0;
    while k < class.len() {
        if k + 2 < class.len() && class[k + 1] == '-' {
            let (a, b) = (class[k], class[k + 2]);
            assert!(a <= b, "bad range {a}-{b} in pattern {pat:?}");
            for c in a..=b {
                alphabet.push(c);
            }
            k += 3;
        } else {
            alphabet.push(class[k]);
            k += 1;
        }
    }
    assert!(!alphabet.is_empty(), "empty class in pattern {pat:?}");
    alphabet
}

// ===== collections =========================================================

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Bound, RangeBounds};

    /// A strategy for `Vec`s with lengths drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        lo: usize,
        hi: usize,
    }

    /// `proptest::collection::vec(element, len_range)`.
    pub fn vec<S: Strategy>(element: S, size: impl RangeBounds<usize>) -> VecStrategy<S> {
        let lo = match size.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match size.end_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n.saturating_sub(1),
            Bound::Unbounded => 16,
        };
        assert!(lo <= hi, "empty vec length range");
        VecStrategy { element, lo, hi }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.range(self.lo..=self.hi);
            (0..n).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

// ===== runner config and macros ============================================

/// Test-runner configuration (only the case count is meaningful here).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 256 }
    }
}

/// Runs one generated case, printing the inputs if the body panics.
/// Called by the `proptest!` macro and by tests that drive their own cases.
pub fn run_case<V: Debug>(test: &str, case: u32, values: V, body: impl FnOnce(V)) {
    let shown = format!("{values:?}");
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || body(values)));
    if let Err(payload) = outcome {
        eprintln!("proptest: {test} failed at case {case} with input {shown}");
        std::panic::resume_unwind(payload);
    }
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::seeded(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.cases {
                let values = ($($crate::Strategy::new_value(&($strat), &mut rng),)+);
                $crate::run_case(stringify!($name), case, values, |($($pat,)+)| $body);
            }
        }
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Any, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestRng,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_tuples_and_vecs() {
        let mut rng = TestRng::seeded("ranges_tuples_and_vecs");
        let strat = collection::vec((0i64..5, any::<bool>()), 2..6);
        for _ in 0..200 {
            let v = strat.new_value(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&(n, _)| (0..5).contains(&n)));
        }
    }

    #[test]
    fn string_patterns() {
        let mut rng = TestRng::seeded("string_patterns");
        for _ in 0..200 {
            let s = "[a-z][a-z0-9]{0,3}".new_value(&mut rng);
            assert!((1..=4).contains(&s.len()), "{s:?}");
            assert!(s.chars().next().unwrap().is_ascii_lowercase());
            let t = "[A-Z]{2,4}".new_value(&mut rng);
            assert!((2..=4).contains(&t.len()) && t.chars().all(|c| c.is_ascii_uppercase()));
        }
    }

    #[test]
    fn oneof_and_recursive_terminate() {
        #[derive(Debug, Clone)]
        enum T {
            Leaf(i64),
            Node(Vec<T>),
        }
        fn depth(t: &T) -> usize {
            match t {
                T::Leaf(n) => {
                    assert!((0..10).contains(n));
                    0
                }
                T::Node(k) => 1 + k.iter().map(depth).max().unwrap_or(0),
            }
        }
        let leaf = (0i64..10).prop_map(T::Leaf);
        let strat = leaf.prop_recursive(3, 16, 3, |inner| {
            prop_oneof![
                inner.clone().prop_map(|t| T::Node(vec![t])),
                collection::vec(inner, 0..3).prop_map(T::Node),
            ]
        });
        let mut rng = TestRng::seeded("oneof_and_recursive_terminate");
        let mut max_depth = 0;
        for _ in 0..300 {
            max_depth = max_depth.max(depth(&strat.new_value(&mut rng)));
        }
        assert!(max_depth >= 2, "recursion exercised, saw depth {max_depth}");
        assert!(max_depth <= 3, "depth bound respected, saw {max_depth}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_binds_multiple_args(x in 0i64..10, (a, b) in (0u8..4, any::<bool>())) {
            prop_assert!((0..10).contains(&x));
            prop_assert!(a < 4);
            prop_assert_eq!(b, b);
        }
    }
}
