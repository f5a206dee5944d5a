//! RTT estimation and the retransmission timer (RFC 6298).

use mcc_simcore::SimDuration;

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
}
