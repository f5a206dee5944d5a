//! The wire body of protected multicast data packets.
//!
//! SIGMA is generic over congestion-control protocols (Requirement 3), but
//! it does need two facts about every protected data packet: which group it
//! belongs to (read from the packet's destination) and which *time slot* it
//! was transmitted in (read from here). The DELTA fields ride along in the
//! same body; the edge router treats them opaquely except for the two
//! protocol-independent transformations the paper assigns to routers — ECN
//! component scrambling and interface-key perturbation.

use mcc_delta::DeltaFields;

/// Body of a multicast data packet in a DELTA/SIGMA-protected session.
///
/// The simulated packet's `size_bits` covers payload plus headers; this
/// body carries only the metadata a receiver or router inspects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProtectedData {
    /// DELTA per-packet fields (slot, group index, component, decrease,
    /// upgrade signals).
    pub fields: DeltaFields,
}

impl ProtectedData {
    /// The transmission slot of this packet.
    #[cfg(test)]
    pub(crate) fn slot(&self) -> u64 {
        self.fields.slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_delta::{Key, UpgradeMask};

    #[test]
    fn slot_accessor() {
        let d = ProtectedData {
            fields: DeltaFields {
                slot: 42,
                group: 3,
                seq_in_slot: 0,
                last_in_slot: false,
                count_in_slot: 0,
                component: Key(1),
                decrease: None,
                upgrades: UpgradeMask::NONE,
            },
        };
        assert_eq!(d.slot(), 42);
    }
}
