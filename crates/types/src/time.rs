//! Virtual time.
//!
//! The paper assumes a global clock that no process can read (§2); the
//! simulator owns such a clock and stamps every event with it. [`Time`] is
//! an instant on that clock, measured in microseconds from the start of the
//! run. Durations are plain `u64` microsecond counts — every API that takes
//! one says so in its name or documentation.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant of virtual time (microseconds since the start of the run).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Time(pub u64);

impl Time {
    /// The start of the run.
    pub const ZERO: Time = Time(0);

    /// Microseconds since the start of the run.
    pub fn micros(self) -> u64 {
        self.0
    }

    /// This instant as fractional milliseconds (for reporting).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Duration since `earlier`, in microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn since(self, earlier: Time) -> u64 {
        self.0.checked_sub(earlier.0).expect("`earlier` must not be later than `self`")
    }
}

impl Add<u64> for Time {
    type Output = Time;

    fn add(self, micros: u64) -> Time {
        Time(self.0 + micros)
    }
}

impl AddAssign<u64> for Time {
    fn add_assign(&mut self, micros: u64) {
        self.0 += micros;
    }
}

impl Sub<Time> for Time {
    type Output = u64;

    fn sub(self, rhs: Time) -> u64 {
        self.since(rhs)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}µs", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = Time::ZERO + 500;
        assert_eq!(t.micros(), 500);
        assert_eq!(t.since(Time(200)), 300);
        assert_eq!(t - Time(100), 400);
        let mut u = t;
        u += 100;
        assert_eq!(u, Time(600));
    }

    #[test]
    #[should_panic(expected = "must not be later")]
    fn since_rejects_future() {
        let _ = Time(1).since(Time(2));
    }

    #[test]
    fn millis_conversion() {
        assert_eq!(Time(2_500).as_millis_f64(), 2.5);
    }

    #[test]
    fn ordering() {
        assert!(Time(1) < Time(2));
        assert_eq!(Time::ZERO, Time::default());
    }
}
