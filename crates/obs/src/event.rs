//! The typed trace-event taxonomy.
//!
//! Every event is a small POD of raw ids — no references into simulator
//! state, no strings — so recording is a couple of stores and the recorder
//! ring stays cache-friendly. Events are stamped with
//! [`SimTime`](mcc_simcore::SimTime) by the recorder; **nothing in this
//! module may ever capture wall-clock time**
//! (`Instant`/`SystemTime` reads are disallowed workspace-wide by
//! `clippy.toml`; a value from a justified reporting site that leaked into
//! an event would change `TRACE_*.jsonl` between two runs, which
//! `tests/trace_determinism.rs` and the CI trace `cmp` step catch).
//!
//! Every event — packet lifecycle, SIGMA guard decisions, FLID layer
//! transitions, membership churn — is a function of the simulation alone,
//! so the trace is byte-identical across `--threads` values. The JSONL
//! sink exports all of them, the pcapng sink the packet-lifecycle subset.

/// Group-address sentinel for unicast packets (`group` field of packet
/// events): `u32::MAX` means "not a multicast packet".
pub const GROUP_NONE: u32 = u32::MAX;

/// Why a packet died.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DropReason {
    /// The link queue rejected it (tail drop / RED force-drop).
    QueueFull,
    /// An edge module's `filter_data` denied the host-facing copy.
    EdgeFilter,
}

impl DropReason {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            DropReason::QueueFull => "queue_full",
            DropReason::EdgeFilter => "edge_filter",
        }
    }
}

/// Identity of one packet at one point of its life. All raw ids, copied
/// out of the packet at the instrumentation site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct PktRef {
    /// Node standing at (tx side for link events, host for delivery).
    pub node: u32,
    /// Link involved, `u32::MAX` for local delivery.
    pub link: u32,
    /// Flow id.
    pub flow: u32,
    /// Originating agent.
    pub src: u32,
    /// Destination group, or [`GROUP_NONE`].
    pub group: u32,
    /// Receiving agent for delivery events, `u32::MAX` for link events.
    pub agent: u32,
    /// Wire size in bits.
    pub size_bits: u64,
}
// Deliberately absent: any packet serial number. The trace names a
// packet by where it is and what it carries, so a trace stays comparable
// across changes that only renumber packets.

/// One structured trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceEvent {
    /// Packet accepted into a link queue (or straight into service).
    PktEnqueue(PktRef),
    /// Packet finished transmission and left for the far end.
    PktTransmit(PktRef),
    /// Packet ECN-marked by the queue on enqueue.
    PktMark(PktRef),
    /// Packet dropped; see [`DropReason`].
    PktDrop(PktRef, DropReason),
    /// Packet handed to an application agent.
    PktDeliver(PktRef),
    /// SIGMA edge filter verdict for one host-facing copy.
    SigmaFilter {
        node: u32,
        iface: u32,
        group: u32,
        /// Session layer of the group per the collusion guard, 0 if unknown.
        layer: u32,
        allowed: bool,
    },
    /// SIGMA lockout opened on `(iface, group)` until `until_slot`.
    SigmaLockout {
        node: u32,
        iface: u32,
        group: u32,
        until_slot: u64,
    },
    /// SIGMA guess-alarm threshold first crossed on `iface` for `group`.
    SigmaAlarm {
        node: u32,
        iface: u32,
        group: u32,
        slot: u64,
    },
    /// FLID receiver moved between subscription layers at slot `slot`.
    FlidLayer {
        agent: u32,
        from_layer: u32,
        to_layer: u32,
        slot: u64,
    },
    /// A receiver agent entered the session (workload arrival or static
    /// start); `group` is the base group of the session it joined.
    Join { agent: u32, group: u32 },
    /// A receiver agent departed the session mid-run, dropping every
    /// subscribed layer; `group` is the base group of the session.
    Leave { agent: u32, group: u32 },
    /// SIGMA installed a fresh key tuple for `(group, slot)` at a router —
    /// the per-join control-plane load a flash crowd generates.
    KeyInstall { node: u32, group: u32, slot: u64 },
}

impl TraceEvent {
    /// Short stable kind tag (the `"ev"` field of the JSONL sink and the
    /// `kind` byte of the pcapng record, see [`crate::pcapng`]).
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            TraceEvent::PktEnqueue(_) => "pkt_enqueue",
            TraceEvent::PktTransmit(_) => "pkt_transmit",
            TraceEvent::PktMark(_) => "pkt_mark",
            TraceEvent::PktDrop(..) => "pkt_drop",
            TraceEvent::PktDeliver(_) => "pkt_deliver",
            TraceEvent::SigmaFilter { .. } => "sigma_filter",
            TraceEvent::SigmaLockout { .. } => "sigma_lockout",
            TraceEvent::SigmaAlarm { .. } => "sigma_alarm",
            TraceEvent::FlidLayer { .. } => "flid_layer",
            TraceEvent::Join { .. } => "join",
            TraceEvent::Leave { .. } => "leave",
            TraceEvent::KeyInstall { .. } => "key_install",
        }
    }

    /// The packet reference, for packet-lifecycle events.
    pub(crate) fn pkt(&self) -> Option<&PktRef> {
        match self {
            TraceEvent::PktEnqueue(p)
            | TraceEvent::PktTransmit(p)
            | TraceEvent::PktMark(p)
            | TraceEvent::PktDrop(p, _)
            | TraceEvent::PktDeliver(p) => Some(p),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> PktRef {
        PktRef {
            node: 1,
            link: 2,
            flow: 3,
            src: 4,
            group: 5,
            agent: u32::MAX,
            size_bits: 8000,
        }
    }

    #[test]
    fn kind_tags_are_unique() {
        let kinds = [
            TraceEvent::PktEnqueue(p()).kind(),
            TraceEvent::PktTransmit(p()).kind(),
            TraceEvent::PktMark(p()).kind(),
            TraceEvent::PktDrop(p(), DropReason::QueueFull).kind(),
            TraceEvent::PktDeliver(p()).kind(),
        ];
        let mut sorted = kinds.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), kinds.len());
    }

    #[test]
    fn pkt_accessor() {
        assert_eq!(
            TraceEvent::PktDrop(p(), DropReason::EdgeFilter).pkt(),
            Some(&p())
        );
        assert_eq!(TraceEvent::Join { agent: 1, group: 2 }.pkt(), None);
    }
}
