//! The wire body of protected multicast data packets.
//!
//! SIGMA is generic over congestion-control protocols (Requirement 3), but
//! it does need two facts about every protected data packet: which group it
//! belongs to (read from the packet's destination) and which *time slot* it
//! was transmitted in (read from here). The DELTA fields ride along in the
//! same body; the edge router treats them opaquely except for the two
//! protocol-independent transformations the paper assigns to routers — ECN
//! component scrambling and interface-key perturbation.
//!
//! Those two rewrite the fields per outgoing interface, and the body is
//! shared by every fan-out branch. So the router never touches the body:
//! it XORs its change into the packet's per-branch words
//! ([`Packet::xor`]: word 0 the component, word 1 the decrease field), and
//! [`ProtectedData::read`], the one way to read the fields, applies them.

use mcc_delta::{DeltaFields, Key};
use mcc_netsim::prelude::Packet;

/// Body of a multicast data packet in a DELTA/SIGMA-protected session.
///
/// The simulated packet's `size_bits` covers payload plus headers; this
/// body carries only the metadata a receiver or router inspects. The
/// fields are private: [`ProtectedData::read`], which sees the branch's
/// rewrites, is the only way to read them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProtectedData {
    /// DELTA per-packet fields (slot, group index, component, decrease,
    /// upgrade signals) as the sender wrote them.
    fields: DeltaFields,
}

impl ProtectedData {
    /// The body a sender attaches to a data packet carrying `fields`.
    pub fn new(fields: DeltaFields) -> Self {
        ProtectedData { fields }
    }

    /// The DELTA fields of `pkt` as this branch carries them: the shared
    /// body with the packet's XOR words applied. `None` when `pkt` is not
    /// protected data.
    pub fn read(pkt: &Packet) -> Option<DeltaFields> {
        let mut fields = pkt.body_as::<ProtectedData>()?.fields;
        fields.component = fields.component ^ Key(pkt.xor[0]);
        fields.decrease = fields.decrease.map(|d| d ^ Key(pkt.xor[1]));
        Some(fields)
    }

    /// Record a rewrite of `pkt`'s fields from `seen` (what [`read`]
    /// returned) to `now` in the packet's XOR words, so later reads of
    /// this branch return `now`. Only the component and decrease fields
    /// may differ.
    ///
    /// [`read`]: ProtectedData::read
    pub(crate) fn rewrite(pkt: &mut Packet, seen: &DeltaFields, now: &DeltaFields) {
        pkt.xor[0] ^= (seen.component ^ now.component).0;
        if let (Some(a), Some(b)) = (seen.decrease, now.decrease) {
            pkt.xor[1] ^= (a ^ b).0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_delta::UpgradeMask;
    use mcc_netsim::prelude::*;

    fn packet(decrease: Option<Key>) -> Packet {
        Packet::app(
            4608,
            FlowId(1),
            AgentId(0),
            Dest::Group(GroupAddr(3)),
            ProtectedData::new(DeltaFields {
                slot: 42,
                group: 3,
                seq_in_slot: 0,
                last_in_slot: false,
                count_in_slot: 0,
                component: Key(1),
                decrease,
                upgrades: UpgradeMask::NONE,
            }),
        )
    }

    #[test]
    fn slot_accessor() {
        assert_eq!(ProtectedData::read(&packet(None)).unwrap().slot, 42);
        let filler = Packet::opaque(64, FlowId(1), AgentId(0), Dest::Group(GroupAddr(3)));
        assert!(ProtectedData::read(&filler).is_none());
    }

    /// A rewrite lands in the branch's words: the branch reads the new
    /// fields, the original packet and its body keep the old ones.
    #[test]
    fn rewrite_is_per_branch() {
        for decrease in [None, Some(Key(9))] {
            let original = packet(decrease);
            let mut branch = original.clone();
            let seen = ProtectedData::read(&branch).unwrap();
            let mut now = seen;
            now.component = Key(0xF00D);
            now.decrease = decrease.map(|_| Key(0xBEEF));
            ProtectedData::rewrite(&mut branch, &seen, &now);
            assert_eq!(ProtectedData::read(&branch), Some(now));
            assert_eq!(ProtectedData::read(&original), Some(seen));
            assert_eq!(original.body_as::<ProtectedData>().unwrap().fields, seen);
        }
    }
}
