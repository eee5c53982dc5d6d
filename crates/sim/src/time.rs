//! Simulated time in processor cycles.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A point in (or duration of) simulated time, measured in cycles of the
/// simulated 2 GHz cores.
///
/// # Example
///
/// ```
/// use bfgts_sim::Cycle;
/// let t = Cycle::new(100) + Cycle::new(32);
/// assert_eq!(t.as_u64(), 132);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cycle(u64);

impl Cycle {
    /// Time zero.
    pub const ZERO: Cycle = Cycle(0);

    /// Creates a cycle count.
    pub const fn new(cycles: u64) -> Self {
        Cycle(cycles)
    }

    /// Raw cycle count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Duration since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in **all** builds if `earlier` is later than `self`. An
    /// earlier revision only `debug_assert`ed and saturated to zero in
    /// release builds, which let a backwards clock silently corrupt every
    /// downstream cycle-bucket figure; the tracing audit
    /// (`bfgts_trace::audit`) exists to catch exactly that class of bug,
    /// so the arithmetic itself must not paper over it. Callers that can
    /// legitimately race (e.g. comparing timestamps from different
    /// logical clocks) should use [`Cycle::checked_since`].
    #[track_caller]
    #[warn(clippy::indexing_slicing)]
    pub fn since(self, earlier: Cycle) -> Cycle {
        match self.checked_since(earlier) {
            Some(d) => d,
            #[expect(
                clippy::panic,
                reason = "documented panic policy: a backwards clock must abort rather than corrupt accounting"
            )]
            None => panic!(
                "Cycle::since: time went backwards ({}cy is earlier than {}cy)",
                self.0, earlier.0
            ),
        }
    }

    /// Duration since `earlier`, or `None` if `earlier` is later than
    /// `self`. The non-panicking form of [`Cycle::since`].
    pub fn checked_since(self, earlier: Cycle) -> Option<Cycle> {
        self.0.checked_sub(earlier.0).map(Cycle)
    }

    /// Saturating addition.
    pub fn saturating_add(self, other: Cycle) -> Cycle {
        Cycle(self.0.saturating_add(other.0))
    }

    /// Converts to seconds assuming the simulated 2 GHz clock.
    pub fn as_seconds_at_2ghz(self) -> f64 {
        self.0 as f64 / 2.0e9
    }
}

impl Add for Cycle {
    type Output = Cycle;
    /// Panics in all builds on overflow. `Cycle` operators are the
    /// workspace's cycle-arithmetic boundary: they must not wrap
    /// silently in release, in any crate that uses them (bare `u64`
    /// arithmetic in `bfgts-sim` and `bfgts-htm` gets the same policy
    /// from their release overflow checks).
    #[track_caller]
    fn add(self, rhs: Cycle) -> Cycle {
        Cycle(
            self.0
                .checked_add(rhs.0)
                .expect("Cycle addition overflowed u64"),
        )
    }
}

impl AddAssign for Cycle {
    /// Shares the checked-overflow policy of [`Add`](Cycle::add).
    #[track_caller]
    fn add_assign(&mut self, rhs: Cycle) {
        *self = *self + rhs;
    }
}

impl Sub for Cycle {
    type Output = Cycle;
    /// Same policy as [`Cycle::since`]: panics in all builds on
    /// underflow instead of diverging between debug (raw-sub panic) and
    /// release (wrapping or saturation).
    #[track_caller]
    fn sub(self, rhs: Cycle) -> Cycle {
        self.since(rhs)
    }
}

impl Sum for Cycle {
    fn sum<I: Iterator<Item = Cycle>>(iter: I) -> Cycle {
        iter.fold(Cycle::ZERO, |a, b| a + b)
    }
}

impl From<u64> for Cycle {
    fn from(cycles: u64) -> Self {
        Cycle(cycles)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        assert_eq!(Cycle::new(5) + Cycle::new(3), Cycle::new(8));
        assert_eq!(Cycle::new(5) - Cycle::new(3), Cycle::new(2));
        let mut t = Cycle::ZERO;
        t += Cycle::new(7);
        assert_eq!(t.as_u64(), 7);
    }

    #[test]
    fn since_measures_duration() {
        assert_eq!(Cycle::new(10).since(Cycle::new(4)), Cycle::new(6));
    }

    #[test]
    fn checked_since_is_total() {
        assert_eq!(
            Cycle::new(10).checked_since(Cycle::new(4)),
            Some(Cycle::new(6))
        );
        assert_eq!(Cycle::new(4).checked_since(Cycle::new(10)), None);
        assert_eq!(Cycle::ZERO.checked_since(Cycle::ZERO), Some(Cycle::ZERO));
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn since_panics_on_backwards_time_in_all_builds() {
        let _ = Cycle::new(4).since(Cycle::new(10));
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn sub_shares_the_since_policy() {
        let _ = Cycle::new(4) - Cycle::new(10);
    }

    #[test]
    fn sum_of_cycles() {
        let total: Cycle = [1u64, 2, 3].into_iter().map(Cycle::new).sum();
        assert_eq!(total, Cycle::new(6));
    }

    #[test]
    fn ordering() {
        assert!(Cycle::new(1) < Cycle::new(2));
        assert_eq!(Cycle::ZERO, Cycle::new(0));
    }

    #[test]
    fn display() {
        assert_eq!(Cycle::new(42).to_string(), "42cy");
    }

    #[test]
    fn seconds_conversion() {
        assert!((Cycle::new(2_000_000_000).as_seconds_at_2ghz() - 1.0).abs() < 1e-12);
    }
}
