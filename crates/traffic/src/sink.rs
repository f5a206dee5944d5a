//! A passive receiving endpoint.

use mcc_netsim::prelude::*;

/// Counts everything delivered to it; the simulator's monitor does the
/// time-binned accounting, this agent just terminates the flow.
#[derive(Debug, Default)]
pub struct CountingSink {
    /// Packets received.
    pub packets: u64,
    /// Bits received.
    pub(crate) bits: u64,
}

impl Agent for CountingSink {
    fn on_packet(&mut self, _ctx: &mut Ctx, pkt: Packet) {
        self.packets += 1;
        self.bits += pkt.size_bits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_simcore::{SimDuration, SimTime};

    #[derive(Debug)]
    struct OneShot {
        to: AgentId,
    }
    impl Agent for OneShot {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.send(Packet::opaque(
                800,
                FlowId(0),
                ctx.agent,
                Dest::Agent(self.to),
            ));
        }
    }

    #[test]
    fn sink_counts() {
        let mut sim = Sim::new(0, SimDuration::from_secs(1));
        let a = sim.add_node();
        let b = sim.add_node();
        sim.add_duplex_link(
            a,
            b,
            1_000_000,
            SimDuration::from_millis(1),
            Queue::drop_tail(10_000),
            Queue::drop_tail(10_000),
        );
        let sink = sim.add_agent(b, Box::new(CountingSink::default()), SimTime::ZERO);
        sim.add_agent(a, Box::new(OneShot { to: sink }), SimTime::ZERO);
        sim.finalize();
        sim.run_until(SimTime::from_secs(1));
        let s = sim.agent_as::<CountingSink>(sink).unwrap();
        assert_eq!(s.packets, 1);
        assert_eq!(s.bits, 800);
    }
}
