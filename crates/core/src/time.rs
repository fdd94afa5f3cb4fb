//! Simulated time.
//!
//! The taxonomy's *time base* category distinguishes discrete from
//! continuous time. `SimTime` is a totally ordered, finite `f64` timestamp:
//! the discrete-event engines only ever touch it at event instants, the
//! hybrid engine advances it continuously between events. Time is "an
//! inherent property in case of large scale distributed systems" (§2), so it
//! is a first-class, NaN-free type rather than a bare float.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in seconds. Always finite and non-NaN.
///
/// Equality is [`SimTime::same_instant`] and order is `f64::total_cmp`,
/// so `a == b` exactly when `a.cmp(&b)` is `Equal`: `-0.0` and `+0.0` are
/// two instants, `-0.0` first, as in every event list.
#[derive(Debug, Clone, Copy)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero — the start of every simulation.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a timestamp; panics on NaN or infinite input.
    #[inline]
    pub fn new(seconds: f64) -> Self {
        assert!(seconds.is_finite(), "SimTime must be finite, got {seconds}");
        SimTime(seconds)
    }

    /// The timestamp in seconds.
    #[inline]
    pub fn seconds(self) -> f64 {
        self.0
    }

    /// `self + dt`, panicking if `dt` is negative or non-finite.
    #[inline]
    pub fn after(self, dt: f64) -> SimTime {
        assert!(dt.is_finite() && dt >= 0.0, "invalid delay {dt}");
        SimTime(self.0 + dt)
    }

    /// The larger of two timestamps.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two timestamps.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Tolerance used by [`SimTime::approx_eq`]: ~1 ns at second scale,
    /// far above f64 rounding noise but far below any modelled delay.
    pub const EPSILON: f64 = 1e-9;

    /// True when the two timestamps are within [`SimTime::EPSILON`] of each
    /// other. Exact float `==` on simulated time is flagged by the
    /// `float-eq` lint; use ordering where possible and this helper where a
    /// coincidence test is genuinely meant.
    #[inline]
    pub fn approx_eq(self, other: SimTime) -> bool {
        (self.0 - other.0).abs() <= Self::EPSILON
    }

    /// True when the two timestamps carry identical bits — the engine's
    /// *tie* test. Events are delivered as a same-timestamp run only when
    /// their stamps are exactly equal (ties inherit their stamp from the
    /// same arithmetic), so [`SimTime::approx_eq`]'s tolerance would be
    /// wrong here: it would merge distinct instants.
    #[inline]
    pub fn same_instant(self, other: SimTime) -> bool {
        let a = self.0.to_bits();
        let b = other.0.to_bits();
        a == b
    }
}

impl PartialEq for SimTime {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.same_instant(*other)
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Finite-by-construction, so total_cmp agrees with numeric order.
        self.0.total_cmp(&other.0)
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, dt: f64) -> SimTime {
        self.after(dt)
    }
}

impl AddAssign<f64> for SimTime {
    #[inline]
    fn add_assign(&mut self, dt: f64) {
        *self = self.after(dt);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = f64;
    #[inline]
    fn sub(self, other: SimTime) -> f64 {
        self.0 - other.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.0)
    }
}

impl From<f64> for SimTime {
    fn from(s: f64) -> Self {
        SimTime::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering() {
        assert!(SimTime::new(1.0) < SimTime::new(2.0));
        assert!(SimTime::new(2.0) == SimTime::new(2.0));
        assert_eq!(SimTime::ZERO.max(SimTime::new(3.0)), SimTime::new(3.0));
        assert_eq!(SimTime::new(5.0).min(SimTime::new(3.0)), SimTime::new(3.0));
    }

    #[test]
    fn eq_agrees_with_cmp() {
        assert_ne!(SimTime::new(-0.0), SimTime::ZERO);
        assert!(SimTime::new(-0.0) < SimTime::ZERO);
        // signed zeros, a negative, a subnormal and ordinary times
        let times = [-0.0, 0.0, -1.5, 1e-310, 1.0, 1.5].map(SimTime::new);
        for a in times {
            for b in times {
                assert_eq!(a == b, a.cmp(&b).is_eq(), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::new(1.5) + 2.5;
        assert_eq!(t.seconds(), 4.0);
        assert_eq!(t - SimTime::new(1.0), 3.0);
        let mut u = SimTime::ZERO;
        u += 1.0;
        assert_eq!(u.seconds(), 1.0);
    }

    #[test]
    #[should_panic]
    fn nan_rejected() {
        SimTime::new(f64::NAN);
    }

    #[test]
    #[should_panic]
    fn negative_delay_rejected() {
        SimTime::ZERO.after(-1.0);
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::new(0.5).to_string(), "0.500000s");
    }

    #[test]
    fn approx_eq_tolerates_rounding_noise_only() {
        let t = SimTime::new(1.0);
        assert!(t.approx_eq(SimTime::new(1.0 + 1e-12)));
        assert!(t.approx_eq(t));
        assert!(!t.approx_eq(SimTime::new(1.0 + 1e-6)));
        assert!(!SimTime::ZERO.approx_eq(SimTime::new(SimTime::EPSILON * 2.0)));
    }
}
