//! Simulated time.
//!
//! [`SimTime`] is an absolute instant measured in integer nanoseconds since
//! the start of the simulation; [`SimDuration`] is a span between instants.
//! Integer nanoseconds keep event ordering exact (no floating-point drift in
//! serialization times) while still resolving individual bit times on
//! multi-gigabit links.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant of simulated time (nanoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The instant at which every simulation starts.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from whole microseconds.
    #[cfg(test)]
    pub(crate) const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// This instant as whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier` (saturating at zero).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds (rounds to the nearest nanosecond).
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "durations cannot be negative");
        SimDuration((s * 1e9).round() as u64)
    }

    /// The time to serialize `bits` onto a link of `bps` bits per second.
    ///
    /// Rounds up to a whole nanosecond so a packet is never transmitted in
    /// zero time on a finite-rate link.
    pub fn transmission(bits: u64, bps: u64) -> Self {
        assert!(bps > 0, "link rate must be positive");
        let ns = (bits as u128 * 1_000_000_000u128).div_ceil(bps as u128);
        SimDuration(ns.min(u64::MAX as u128) as u64)
    }

    /// This span as whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This span as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True when the span is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(d.0)
                .expect("simulated time underflow: subtracted past t=0"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(other.0)
                .expect("negative duration between instants"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        *self = *self + other;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, other: SimDuration) {
        *self = *self - other;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = u64;
    /// How many whole `other` spans fit into `self` (integer division).
    fn div(self, other: SimDuration) -> u64 {
        assert!(!other.is_zero(), "division by zero duration");
        self.0 / other.0
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2_000));
        assert_eq!(SimTime::from_millis(3), SimTime::from_micros(3_000));
        assert_eq!(SimTime::from_micros(7), SimTime::from_nanos(7_000));
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn float_round_trip() {
        let d = SimDuration::from_secs_f64(1.25);
        assert_eq!(d, SimDuration::from_millis(1250));
        assert!((d.as_secs_f64() - 1.25).abs() < 1e-12);
        assert!((SimTime::from_millis(1250).as_secs_f64() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(t, SimTime::from_millis(1500));
        assert_eq!(t - SimTime::from_secs(1), SimDuration::from_millis(500));
        assert_eq!(t - SimDuration::from_millis(500), SimTime::from_secs(1));
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.since(b), SimDuration::ZERO);
        assert_eq!(b.since(a), SimDuration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_below_zero_panics() {
        let _ = SimTime::from_secs(1) - SimDuration::from_secs(2);
    }

    #[test]
    fn transmission_time_rounds_up() {
        // 576 bytes at 1 Mbps = 4.608 ms exactly.
        let d = SimDuration::transmission(576 * 8, 1_000_000);
        assert_eq!(d, SimDuration::from_micros(4608));
        // 1 bit at 3 bps rounds up to a whole nanosecond count.
        let d = SimDuration::transmission(1, 3);
        assert_eq!(d.as_nanos(), 333_333_334);
    }

    #[test]
    fn duration_ratio() {
        let slot = SimDuration::from_millis(250);
        let horizon = SimDuration::from_secs(10);
        assert_eq!(horizon / slot, 40);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500000");
        assert_eq!(format!("{:?}", SimDuration::from_micros(250)), "0.000250s");
    }
}
