//! RTT estimation and the retransmission timer (RFC 6298).

use mcc_simcore::{SimDuration, SimTime};

/// Jacobson/Karels smoothed RTT estimator with exponential RTO backoff.
#[derive(Clone, Debug)]
pub(crate) struct RttEstimator {
    /// Smoothed RTT in seconds, `None` before the first sample.
    srtt: Option<f64>,
    /// RTT variance in seconds.
    rttvar: f64,
    /// Current retransmission timeout.
    rto: SimDuration,
    /// Lower clamp for the RTO.
    pub(crate) min_rto: SimDuration,
    /// Upper clamp for the RTO.
    pub(crate) max_rto: SimDuration,
}

impl Default for RttEstimator {
    fn default() -> Self {
        // RFC 2988/6298 recommend a 1 s minimum RTO; NS-2 of the paper's era
        // is similarly conservative. A tighter floor combined with one RTT
        // sample per flight produces spurious timeouts while slow start
        // inflates queueing delay.
        RttEstimator::new(SimDuration::from_secs(1), SimDuration::from_secs(60))
    }
}

impl RttEstimator {
    /// A fresh estimator; RFC 6298 starts the RTO at 1 s.
    pub(crate) fn new(min_rto: SimDuration, max_rto: SimDuration) -> Self {
        RttEstimator {
            srtt: None,
            rttvar: 0.0,
            rto: SimDuration::from_secs(1),
            min_rto,
            max_rto,
        }
    }

    /// Feed one RTT measurement (a non-retransmitted segment's echo, per
    /// Karn's algorithm — the caller enforces that).
    pub(crate) fn sample(&mut self, rtt: SimDuration) {
        let r = rtt.as_secs_f64();
        match self.srtt {
            None => {
                self.srtt = Some(r);
                self.rttvar = r / 2.0;
            }
            Some(srtt) => {
                // RFC 6298: beta = 1/4, alpha = 1/8.
                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - r).abs();
                self.srtt = Some(0.875 * srtt + 0.125 * r);
            }
        }
        let rto = self.srtt.unwrap() + (4.0 * self.rttvar).max(0.001);
        self.rto = SimDuration::from_secs_f64(rto).clamp(self.min_rto, self.max_rto);
    }

    /// The current retransmission timeout.
    pub(crate) fn rto(&self) -> SimDuration {
        self.rto
    }

    /// Exponential backoff after a timeout.
    pub(crate) fn backoff(&mut self) {
        self.rto = (self.rto * 2).min(self.max_rto);
    }

    /// Smoothed RTT, if at least one sample has been taken.
    #[cfg(test)]
    pub(crate) fn srtt(&self) -> Option<SimDuration> {
        self.srtt.map(SimDuration::from_secs_f64)
    }
}

/// The retransmission deadline of one sender, kept with at most one
/// scheduled simulator event.
///
/// RFC 6298 restarts the timer on every ACK. Scheduling a fresh event per
/// restart would leave every replaced one in the event list until it fires
/// as a no-op; instead the deadline moves and the one scheduled event, when
/// it fires early, re-arms itself at the deadline. A new event is scheduled
/// only when none is pending or the pending one fires after the new
/// deadline (the RTO shrank after a backoff); the replaced event's token
/// is then stale. The timer is pure: it returns the events to schedule and
/// the caller hands them to the simulator.
#[derive(Clone, Debug, Default)]
pub(crate) struct RtoTimer {
    /// When the RTO expires; `None` while nothing is in flight.
    deadline: Option<SimTime>,
    /// When the one scheduled event fires; `None` when none is pending.
    armed_at: Option<SimTime>,
    /// Token of that event; a firing with any other token is stale.
    token: u64,
}

/// What one fired RTO event means.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RtoFire {
    /// A replaced event, or the timer was stopped: nothing to do.
    Ignore,
    /// The deadline moved later while the event was pending: schedule the
    /// event again at `.0` with token `.1`.
    Rearm(SimTime, u64),
    /// The deadline has come: a retransmission timeout.
    Timeout,
}

impl RtoTimer {
    /// Move the deadline to `deadline`. Returns `(at, token)` when an
    /// event must be scheduled: none is pending, or the pending one fires
    /// after `deadline`.
    pub(crate) fn restart(&mut self, deadline: SimTime) -> Option<(SimTime, u64)> {
        self.deadline = Some(deadline);
        if self.armed_at.is_some_and(|at| at <= deadline) {
            return None;
        }
        Some(self.arm(deadline))
    }

    /// Clear the deadline; a pending event fires as a no-op.
    pub(crate) fn stop(&mut self) {
        self.deadline = None;
    }

    /// Classify the event with `token` firing at `now`.
    pub(crate) fn fire(&mut self, now: SimTime, token: u64) -> RtoFire {
        if token != self.token {
            return RtoFire::Ignore;
        }
        self.armed_at = None;
        match self.deadline {
            None => RtoFire::Ignore,
            Some(deadline) if deadline > now => {
                let (at, token) = self.arm(deadline);
                RtoFire::Rearm(at, token)
            }
            Some(_) => {
                self.deadline = None;
                RtoFire::Timeout
            }
        }
    }

    fn arm(&mut self, at: SimTime) -> (SimTime, u64) {
        self.token += 1;
        self.armed_at = Some(at);
        (at, self.token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initializes() {
        let mut e = RttEstimator::new(SimDuration::from_millis(200), SimDuration::from_secs(60));
        e.sample(SimDuration::from_millis(100));
        assert_eq!(e.srtt(), Some(SimDuration::from_millis(100)));
        // RTO = srtt + 4*rttvar = 100 + 200 = 300 ms.
        assert_eq!(e.rto(), SimDuration::from_millis(300));
    }

    #[test]
    fn stable_rtt_converges_to_min_rto_floor() {
        let mut e = RttEstimator::default();
        for _ in 0..100 {
            e.sample(SimDuration::from_millis(40));
        }
        // Variance decays toward 0; RTO clamps at min_rto.
        assert_eq!(e.rto(), e.min_rto);
        let srtt = e.srtt().unwrap();
        assert!((srtt.as_secs_f64() - 0.040).abs() < 1e-3);
    }

    #[test]
    fn variance_raises_rto() {
        let mut e = RttEstimator::default();
        for i in 0..50 {
            let ms = if i % 2 == 0 { 50 } else { 250 };
            e.sample(SimDuration::from_millis(ms));
        }
        assert!(e.rto() > SimDuration::from_millis(300), "rto={:?}", e.rto());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut e = RttEstimator::new(SimDuration::from_millis(200), SimDuration::from_secs(60));
        e.sample(SimDuration::from_millis(100)); // rto = 300 ms
        e.backoff();
        assert_eq!(e.rto(), SimDuration::from_millis(600));
        for _ in 0..20 {
            e.backoff();
        }
        assert_eq!(e.rto(), e.max_rto);
    }

    fn ms(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn restart_later_schedules_nothing() {
        let mut t = RtoTimer::default();
        let (at, token) = t.restart(ms(1000)).expect("first restart schedules");
        assert_eq!(at, ms(1000));
        assert_eq!(
            t.restart(ms(1000)),
            None,
            "an equal deadline keeps the event"
        );
        assert_eq!(t.restart(ms(1200)), None);
        // The one event re-arms at the latest deadline, then times out.
        assert_eq!(t.fire(at, token), RtoFire::Rearm(ms(1200), token + 1));
        assert_eq!(t.fire(ms(1200), token + 1), RtoFire::Timeout);
    }

    #[test]
    fn restart_earlier_after_backoff_replaces_the_event() {
        let mut e = RttEstimator::new(SimDuration::from_millis(200), SimDuration::from_secs(60));
        e.sample(SimDuration::from_millis(100)); // rto = 300 ms
        e.backoff(); // 600 ms
        let mut t = RtoTimer::default();
        let (_, old) = t.restart(SimTime::ZERO + e.rto()).unwrap();
        // A fresh sample shrinks the RTO below the backed-off one.
        e.sample(SimDuration::from_millis(100));
        let deadline = ms(100) + e.rto();
        assert!(deadline < ms(600));
        let (at, new) = t.restart(deadline).expect("an earlier deadline schedules");
        assert_eq!(at, deadline);
        assert_ne!(new, old);
        assert_eq!(t.fire(deadline, new), RtoFire::Timeout);
        assert_eq!(
            t.fire(ms(600), old),
            RtoFire::Ignore,
            "the replaced event is stale"
        );
    }

    #[test]
    fn stop_then_fire_does_nothing() {
        let mut t = RtoTimer::default();
        let (at, token) = t.restart(ms(1000)).unwrap();
        t.stop();
        assert_eq!(t.fire(at, token), RtoFire::Ignore);
        // With no event pending, the next restart schedules one.
        assert_eq!(t.restart(ms(3000)), Some((ms(3000), token + 1)));
    }

    #[test]
    fn fire_before_the_deadline_rearms_there() {
        let mut t = RtoTimer::default();
        let (at, token) = t.restart(ms(1000)).unwrap();
        assert_eq!(t.restart(ms(1500)), None);
        let RtoFire::Rearm(again, next) = t.fire(at, token) else {
            panic!("expected a re-arm");
        };
        assert_eq!(again, ms(1500));
        assert_eq!(t.fire(at, token), RtoFire::Ignore, "a token fires once");
        assert_eq!(t.fire(again, next), RtoFire::Timeout);
    }

    #[test]
    fn fire_at_the_deadline_times_out() {
        let mut t = RtoTimer::default();
        let (at, token) = t.restart(ms(1000)).unwrap();
        assert_eq!(t.fire(at, token), RtoFire::Timeout);
        // The deadline is spent: the same event cannot time out twice.
        assert_eq!(t.fire(at, token), RtoFire::Ignore);
    }
}
