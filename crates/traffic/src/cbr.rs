//! Constant-bit-rate sources with optional on/off duty cycling.

use mcc_netsim::prelude::*;
use mcc_netsim::DATA_PACKET_BYTES;
use mcc_simcore::{SimDuration, SimTime};

/// Wire size of each CBR packet in bits: the paper's 576-byte packets.
const PACKET_BITS: u64 = DATA_PACKET_BYTES * 8;

/// Configuration of a [`CbrSource`].
#[derive(Clone, Debug)]
pub struct CbrConfig {
    /// Transmission rate while *on*, in bits per second.
    pub rate_bps: u64,
    /// Where the stream goes (unicast agent or multicast group).
    pub dest: Dest,
    /// Flow tag for accounting.
    pub flow: FlowId,
    /// First instant the source may transmit.
    pub start: SimTime,
    /// Instant transmission ceases for good.
    pub stop: SimTime,
    /// Optional `(on, off)` duty cycle, phase-locked to `start`.
    /// `None` means always-on between `start` and `stop`.
    pub on_off: Option<(SimDuration, SimDuration)>,
}

impl CbrConfig {
    /// An always-on stream.
    pub fn steady(rate_bps: u64, dest: Dest, flow: FlowId, start: SimTime, stop: SimTime) -> Self {
        CbrConfig {
            rate_bps,
            dest,
            flow,
            start,
            stop,
            on_off: None,
        }
    }
}

/// A CBR traffic generator.
#[derive(Debug)]
pub struct CbrSource {
    cfg: CbrConfig,
    /// Packets emitted (diagnostics).
    pub sent: u64,
}

impl CbrSource {
    /// Build from a configuration.
    pub fn new(cfg: CbrConfig) -> Self {
        assert!(cfg.rate_bps > 0, "CBR rate must be positive");
        CbrSource { cfg, sent: 0 }
    }

    fn interval(&self) -> SimDuration {
        SimDuration::transmission(PACKET_BITS, self.cfg.rate_bps)
    }

    /// True when the duty cycle says "on" at instant `t`.
    fn is_on(&self, t: SimTime) -> bool {
        if t < self.cfg.start || t >= self.cfg.stop {
            return false;
        }
        match self.cfg.on_off {
            None => true,
            Some((on, off)) => {
                let phase = t.since(self.cfg.start).as_nanos() % (on + off).as_nanos();
                phase < on.as_nanos()
            }
        }
    }

    /// Next instant at or after `t` when the source is on, if any.
    fn next_on(&self, t: SimTime) -> Option<SimTime> {
        if t >= self.cfg.stop {
            return None;
        }
        let t = t.max(self.cfg.start);
        match self.cfg.on_off {
            None => Some(t),
            Some((on, off)) => {
                let period = (on + off).as_nanos();
                let phase = t.since(self.cfg.start).as_nanos() % period;
                if phase < on.as_nanos() {
                    Some(t)
                } else {
                    let wait = period - phase;
                    let next = t + SimDuration::from_nanos(wait);
                    (next < self.cfg.stop).then_some(next)
                }
            }
        }
    }
}

impl Agent for CbrSource {
    fn on_start(&mut self, ctx: &mut Ctx) {
        if let Some(t) = self.next_on(self.cfg.start.max(ctx.now())) {
            ctx.timer_at(t, 0);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
        let now = ctx.now();
        if self.is_on(now) {
            ctx.send(Packet::opaque(
                PACKET_BITS,
                self.cfg.flow,
                ctx.agent,
                self.cfg.dest,
            ));
            self.sent += 1;
            let next = now + self.interval();
            if let Some(t) = self.next_on(next) {
                ctx.timer_at(t, 0);
            }
        } else if let Some(t) = self.next_on(now) {
            ctx.timer_at(t, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CountingSink;

    fn run_cbr(cfg: CbrConfig, horizon: SimTime) -> (u64, u64) {
        let mut sim = Sim::new(3, SimDuration::from_secs(1));
        let a = sim.add_node();
        let b = sim.add_node();
        sim.add_duplex_link(
            a,
            b,
            10_000_000,
            SimDuration::from_millis(5),
            Queue::drop_tail(1_000_000),
            Queue::drop_tail(1_000_000),
        );
        let sink = sim.add_agent(b, Box::new(CountingSink::default()), SimTime::ZERO);
        let cfg = CbrConfig {
            dest: Dest::Agent(sink),
            ..cfg
        };
        let src = sim.add_agent(a, Box::new(CbrSource::new(cfg)), SimTime::ZERO);
        sim.finalize();
        sim.run_until(horizon);
        let sent = sim.agent_as::<CbrSource>(src).unwrap().sent;
        let got = sim.agent_as::<CountingSink>(sink).unwrap().packets;
        (sent, got)
    }

    fn base(rate: u64) -> CbrConfig {
        CbrConfig::steady(
            rate,
            Dest::Agent(AgentId(0)), // overwritten by run_cbr
            FlowId(1),
            SimTime::ZERO,
            SimTime::from_secs(10),
        )
    }

    #[test]
    fn steady_rate_is_honoured() {
        // 460.8 kbps / 4608-bit packets = 100 packets/s for 10 s.
        let (sent, got) = run_cbr(base(460_800), SimTime::from_secs(11));
        assert_eq!(sent, 1000);
        assert_eq!(got, 1000);
    }

    #[test]
    fn window_limits_transmission() {
        let mut cfg = base(460_800);
        cfg.start = SimTime::from_secs(2);
        cfg.stop = SimTime::from_secs(4);
        let (sent, _) = run_cbr(cfg, SimTime::from_secs(10));
        // 2 seconds at 100 packets/s.
        assert_eq!(sent, 200);
    }

    #[test]
    fn on_off_duty_cycle_halves_output() {
        let mut cfg = base(460_800);
        cfg.stop = SimTime::from_secs(20);
        cfg.on_off = Some((SimDuration::from_secs(5), SimDuration::from_secs(5)));
        let (sent, _) = run_cbr(cfg, SimTime::from_secs(20));
        // On during [0,5) and [10,15): 10 s of the 20 s horizon.
        assert_eq!(sent, 1000);
    }

    #[test]
    fn is_on_phases() {
        let cfg = CbrConfig {
            rate_bps: 100_000,
            dest: Dest::Agent(AgentId(0)),
            flow: FlowId(0),
            start: SimTime::ZERO,
            stop: SimTime::MAX,
            on_off: Some((SimDuration::from_secs(5), SimDuration::from_secs(5))),
        };
        let src = CbrSource::new(cfg);
        assert!(src.is_on(SimTime::from_secs(1)));
        assert!(!src.is_on(SimTime::from_secs(6)));
        assert!(src.is_on(SimTime::from_secs(11)));
        assert!(!src.is_on(SimTime::from_secs(19)));
    }

    #[test]
    fn next_on_skips_off_period() {
        let cfg = CbrConfig {
            start: SimTime::from_secs(1),
            stop: SimTime::from_secs(30),
            on_off: Some((SimDuration::from_secs(2), SimDuration::from_secs(3))),
            ..base(100_000)
        };
        let src = CbrSource::new(cfg);
        // At t=4 (phase 3, inside off) the next on-phase starts at t=6.
        assert_eq!(
            src.next_on(SimTime::from_secs(4)),
            Some(SimTime::from_secs(6))
        );
        // Inside an on-phase the answer is "now".
        assert_eq!(
            src.next_on(SimTime::from_secs(7)),
            Some(SimTime::from_secs(7))
        );
        // Past stop: never again.
        assert_eq!(src.next_on(SimTime::from_secs(31)), None);
    }
}
