//! Unidirectional links.
//!
//! A [`Link`] is one direction of a point-to-point channel: a serialization
//! rate, a propagation delay, and an output [`Queue`]. Duplex links are two
//! `Link`s that name each other through [`Link::reverse`]; the reverse id is
//! what lets a router translate "the link this graft arrived on" into "the
//! interface to forward the group onto".

use crate::addr::{FlowId, LinkId, NodeId};
use crate::packet::Packet;
use crate::queue::Queue;
use mcc_simcore::SimDuration;
use std::collections::HashMap;

/// Per-link counters, kept cheap enough to leave always-on.
#[derive(Clone, Debug, Default)]
pub struct LinkStats {
    /// Packets fully serialized onto the wire.
    pub tx_packets: u64,
    /// Bits fully serialized onto the wire.
    pub tx_bits: u64,
    /// Packets rejected by the output queue.
    pub drops: u64,
    /// Packets ECN-marked by the output queue.
    pub marks: u64,
    /// Drops per flow (who lost packets at this hop).
    pub drops_by_flow: HashMap<FlowId, u64>,
}

/// One direction of a point-to-point channel.
#[derive(Debug)]
pub struct Link {
    /// This link's id.
    pub id: LinkId,
    /// Transmitting node.
    pub(crate) from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// The opposite direction of the same physical channel.
    pub(crate) reverse: LinkId,
    /// Serialization rate in bits per second.
    pub(crate) bps: u64,
    /// Propagation delay.
    pub delay: SimDuration,
    /// Output queue (head-of-line packet is held separately in `in_service`).
    pub(crate) queue: Queue,
    /// Packet currently being serialized, if any.
    pub(crate) in_service: Option<Packet>,
    /// True when `to` is a host (has attached agents); edge modules filter
    /// multicast data on host-facing links and never forward SIGMA specials
    /// onto them.
    pub host_facing: bool,
    /// Counters.
    pub stats: LinkStats,
}

impl Link {
    /// Record a queue rejection.
    pub(crate) fn note_drop(&mut self, flow: FlowId) {
        self.stats.drops += 1;
        *self.stats.drops_by_flow.entry(flow).or_insert(0) += 1;
    }

    /// Record a completed transmission.
    pub(crate) fn note_tx(&mut self, pkt: &Packet) {
        self.stats.tx_packets += 1;
        self.stats.tx_bits += pkt.size_bits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::AgentId;
    use crate::packet::Dest;

    fn link(bps: u64, delay_ms: u64) -> Link {
        Link {
            id: LinkId(0),
            from: NodeId(0),
            to: NodeId(1),
            reverse: LinkId(1),
            bps,
            delay: SimDuration::from_millis(delay_ms),
            queue: Queue::drop_tail(10_000),
            in_service: None,
            host_facing: false,
            stats: LinkStats::default(),
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut l = link(1_000_000, 20);
        let p = Packet::opaque(1000 * 8, FlowId(3), AgentId(0), Dest::Agent(AgentId(1)));
        l.note_tx(&p);
        l.note_tx(&p);
        l.note_drop(FlowId(3));
        assert_eq!(l.stats.tx_packets, 2);
        assert_eq!(l.stats.tx_bits, 16_000);
        assert_eq!(l.stats.drops, 1);
        assert_eq!(l.stats.drops_by_flow[&FlowId(3)], 1);
    }
}
