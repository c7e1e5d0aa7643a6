//! The workspace's one seeded generator and the property-case runner
//! built on it.
//!
//! [`Rng`] is xoshiro256** seeded through SplitMix64; integers are drawn
//! as `lo + next_u64 % span`, floats from 53 mantissa bits. The same
//! arithmetic produced every stream recorded in `results/` and replayed by
//! `benchmark/`, and `tests/rng.rs` pins it: changing a line here
//! changes every generated workload.
//!
//! [`check`] runs a property over many generated cases and names the
//! failing case's seed; [`check_seed`] replays one seed, so a failure is
//! pinned as a plain `#[test]`. There is no shrinking: generators are
//! plain `fn(&mut Rng) -> T`, and a seed reproduces its input exactly.

use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A seeded pseudo-random generator (xoshiro256**).
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The generator for `seed`; equal seeds give equal streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expands the seed, as the xoshiro authors advise.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng { s: [next(), next(), next(), next()] }
    }

    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform value in `range` (`a..b` or `a..=b`; floats ignore the
    /// end's inclusiveness). Panics when the range is empty.
    pub fn gen_range<T: Uniform>(&mut self, range: impl SampleRange<T>) -> T {
        let (lo, hi, inclusive) = range.bounds();
        assert!(lo < hi || (inclusive && lo == hi), "cannot sample empty range");
        T::between(lo, hi, inclusive, self.next_u64())
    }

    /// A fair coin.
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// `len` values of `item`, `len` drawn from `len_range` first.
    pub fn gen_vec<T>(
        &mut self,
        len_range: impl SampleRange<usize>,
        mut item: impl FnMut(&mut Rng) -> T,
    ) -> Vec<T> {
        (0..self.gen_range(len_range)).map(|_| item(self)).collect()
    }
}

/// The two range forms the call sites write, `a..b` and `a..=b`;
/// any other form is a compile error.
pub trait SampleRange<T> {
    /// `(lo, hi, inclusive)`.
    fn bounds(self) -> (T, T, bool);
}

impl<T> SampleRange<T> for Range<T> {
    fn bounds(self) -> (T, T, bool) {
        (self.start, self.end, false)
    }
}

impl<T: Copy> SampleRange<T> for RangeInclusive<T> {
    fn bounds(self) -> (T, T, bool) {
        (*self.start(), *self.end(), true)
    }
}

/// A type [`Rng::gen_range`] can produce: the types the generators and the
/// ported properties sample, nothing speculative.
pub trait Uniform: Copy + PartialOrd {
    /// Map 64 random `bits` into `[lo, hi)`, or `[lo, hi]` when `inclusive`.
    fn between(lo: Self, hi: Self, inclusive: bool, bits: u64) -> Self;
}

macro_rules! uniform_uints {
    ($($ty:ty),*) => {$(
        impl Uniform for $ty {
            fn between(lo: Self, hi: Self, inclusive: bool, bits: u64) -> Self {
                let span = (hi - lo) as u128 + inclusive as u128;
                lo + (bits as u128 % span) as $ty
            }
        }
    )*};
}
uniform_uints!(u8, u16, u32, u64, usize);

impl Uniform for f64 {
    fn between(lo: f64, hi: f64, _inclusive: bool, bits: u64) -> f64 {
        // 53 random mantissa bits -> uniform in [0, 1).
        lo + (hi - lo) * ((bits >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// Run `property` on `cases` generated cases. Case `i` draws from the
/// generator seeded by (`name`, `i`), so a run is reproducible and two
/// properties never share inputs. A panicking case fails the test with the
/// seed that replays it through [`check_seed`].
pub fn check(name: &str, cases: u32, property: impl Fn(&mut Rng)) {
    // FNV-1a over the name, then one odd multiple of the case index.
    let base = name.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    for case in 0..cases {
        let seed = base ^ u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        if catch_unwind(AssertUnwindSafe(|| check_seed(seed, &property))).is_err() {
            panic!(
                "property `{name}` failed on case {case} of {cases}: \
                 replay with check_seed({seed:#018x}, ..)"
            );
        }
    }
}

/// Run `property` once on the generator seeded with `seed`: the replay
/// half of [`check`].
pub fn check_seed(seed: u64, property: impl FnOnce(&mut Rng)) {
    property(&mut Rng::seed_from_u64(seed));
}
