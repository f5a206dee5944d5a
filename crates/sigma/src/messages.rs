//! Receiver-to-router control messages (paper Figure 6).
//!
//! * **session-join** — carries the session's minimal-group address (and,
//!   in this implementation, the key-distribution control group the router
//!   should listen on); opens two slots of keyless access to the minimal
//!   group,
//! * **subscription** — `(time slot, address-key pairs)`; the router
//!   validates each key before granting access for that slot,
//! * **unsubscription** — addresses being abandoned immediately,
//! * **subscription-ack** — router-to-receiver confirmation; receivers
//!   retransmit unacked subscriptions and suppress duplicates they have
//!   already seen acked for the same pairs.
//!
//! Wire sizes follow the paper's accounting: 32-bit group addresses,
//! `b = 16`-bit keys, `l = 8`-bit slot numbers, plus a fixed header.

use mcc_delta::{Key, PAPER_KEY_BITS};
use mcc_netsim::GroupAddr;

/// Fixed header bits assumed for control messages (IP+UDP-ish).
pub(crate) const CONTROL_HEADER_BITS: u64 = 224;

/// Slot-number width on the wire (the paper's `l`).
pub(crate) const SLOT_NUMBER_BITS: u64 = 8;

/// Address width on the wire.
pub(crate) const ADDR_BITS: u64 = 32;

/// A receiver requests admission to a session (paper Fig. 6a).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionJoin {
    /// The session's minimal group, granted keylessly for two slots.
    pub minimal_group: GroupAddr,
    /// The control group carrying SIGMA's special key packets; the router
    /// joins it so key tuples keep arriving. (The paper leaves the listen
    /// mechanism implicit; an explicit address keeps the router generic.)
    pub control_group: GroupAddr,
}

impl SessionJoin {
    /// Wire size in bits.
    pub fn size_bits(&self) -> u64 {
        CONTROL_HEADER_BITS + 2 * ADDR_BITS
    }
}

/// A receiver submits address-key pairs for a slot (paper Fig. 6b).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Subscription {
    /// The slot the keys are for (`s + 2` relative to observation).
    pub slot: u64,
    /// `(group, key)` pairs.
    pub pairs: Vec<(GroupAddr, Key)>,
}

impl Subscription {
    /// Wire size in bits (paper accounting: `l + Σ (32 + b)`).
    pub fn size_bits(&self) -> u64 {
        CONTROL_HEADER_BITS
            + SLOT_NUMBER_BITS
            + self.pairs.len() as u64 * (ADDR_BITS + PAPER_KEY_BITS as u64)
    }
}

/// A receiver abandons groups immediately (paper Fig. 6c).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Unsubscription {
    /// Addresses being left.
    pub groups: Vec<GroupAddr>,
}

impl Unsubscription {
    /// Wire size in bits.
    pub fn size_bits(&self) -> u64 {
        CONTROL_HEADER_BITS + self.groups.len() as u64 * ADDR_BITS
    }
}

/// Router acknowledgment of a subscription (reliability + suppression).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubscriptionAck {
    /// The slot being acknowledged.
    pub slot: u64,
    /// The pairs the router accepted (valid keys only).
    pub(crate) accepted: Vec<(GroupAddr, Key)>,
}

impl SubscriptionAck {
    /// Wire size in bits.
    pub(crate) fn size_bits(&self) -> u64 {
        CONTROL_HEADER_BITS
            + SLOT_NUMBER_BITS
            + self.accepted.len() as u64 * (ADDR_BITS + PAPER_KEY_BITS as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_scale_with_content() {
        let join = SessionJoin {
            minimal_group: GroupAddr(1),
            control_group: GroupAddr(0),
        };
        assert_eq!(join.size_bits(), CONTROL_HEADER_BITS + 64);

        let sub = Subscription {
            slot: 9,
            pairs: vec![(GroupAddr(1), Key(5)), (GroupAddr(2), Key(6))],
        };
        assert_eq!(sub.size_bits(), CONTROL_HEADER_BITS + 8 + 2 * (32 + 16));

        let unsub = Unsubscription {
            groups: vec![GroupAddr(1)],
        };
        assert_eq!(unsub.size_bits(), CONTROL_HEADER_BITS + 32);

        let ack = SubscriptionAck {
            slot: 9,
            accepted: vec![(GroupAddr(1), Key(5))],
        };
        assert_eq!(ack.size_bits(), CONTROL_HEADER_BITS + 8 + 48);
    }
}
