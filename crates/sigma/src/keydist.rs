//! Building and parsing the special key-distribution packets.
//!
//! During slot `s` the sender multicasts, on the session's control group,
//! special packets binding every group address to its keys for slot `s+2`
//! (paper Figure 2 / §3.2.1). The packets carry the router-alert bit so
//! edge routers intercept them and never forward them onto local
//! interfaces. FEC (see [`crate::fec`]) protects them against loss.

use crate::fec::{chunk_tuples, encode_with_repeats, FecAccounting, KeyChunk};
use crate::keytable::KeyTuple;
use mcc_delta::LayeredKeySchedule;
use mcc_netsim::prelude::*;

/// Construct the labeled tuples of a layered or replicated schedule, in
/// group order. `addrs[g-1]` is the address of (1-based) group `g`.
pub fn layered_tuples(
    sched: &LayeredKeySchedule,
    addrs: &[GroupAddr],
) -> Vec<(GroupAddr, KeyTuple)> {
    assert_eq!(addrs.len() as u32, sched.n(), "one address per group");
    (1..=sched.n())
        .map(|g| {
            (
                addrs[(g - 1) as usize],
                KeyTuple {
                    top: sched.top_key(g),
                    decrease: sched.decrease_key(g),
                    increase: sched.increase_key(g),
                },
            )
        })
        .collect()
}

/// One slot's worth of encoded special packets plus the FEC accounting the
/// overhead figures need.
#[derive(Debug)]
pub struct Announcement {
    /// The packets to transmit (spread over the slot by the sender).
    pub packets: Vec<Packet>,
    /// Measured `z`/`h` inputs for the paper's overhead formula.
    pub accounting: FecAccounting,
}

/// Build the special packets announcing `tuples` for `slot`.
///
/// `repeat` is the FEC repetition factor (the paper sizes FEC to overcome
/// 50 % loss ⇒ `repeat = 2`).
pub fn build_announcement(
    slot: u64,
    tuples: Vec<(GroupAddr, KeyTuple)>,
    control_group: GroupAddr,
    src: AgentId,
    flow: FlowId,
    repeat: u32,
) -> Announcement {
    let chunks = chunk_tuples(slot, tuples);
    let coded = encode_with_repeats(&chunks, repeat);
    let accounting = FecAccounting::measure(&chunks, &coded);
    let packets = coded
        .into_iter()
        .map(|chunk| {
            let bits = chunk.wire_bits();
            Packet::app(bits, flow, src, Dest::Group(control_group), chunk).with_router_alert()
        })
        .collect();
    Announcement {
        packets,
        accounting,
    }
}

/// Parse a special packet back into its [`KeyChunk`], if it is one.
pub(crate) fn parse_special(pkt: &Packet) -> Option<&KeyChunk> {
    pkt.body_as::<KeyChunk>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_delta::UpgradeMask;
    use mcc_simcore::DetRng;

    #[test]
    fn layered_announcement_round_trips() {
        let mut rng = DetRng::new(3);
        let sched = LayeredKeySchedule::generate(&mut rng, 4, UpgradeMask::from_groups(&[3]));
        let addrs: Vec<GroupAddr> = (10..14).map(GroupAddr).collect();
        let tuples = layered_tuples(&sched, &addrs);
        assert_eq!(tuples.len(), 4);
        // Group 3's tuple carries the authorized increase key.
        assert_eq!(tuples[2].1.increase, sched.increase_key(3));
        assert_eq!(tuples[3].1.decrease, None, "maximal group");

        let ann = build_announcement(7, tuples, GroupAddr(99), AgentId(0), FlowId(5), 2);
        assert!(!ann.packets.is_empty());
        assert!((ann.accounting.expansion() - 2.0).abs() < 1e-12);
        for p in &ann.packets {
            assert!(p.router_alert, "specials carry the router-alert bit");
            assert_eq!(p.dst, Dest::Group(GroupAddr(99)));
            let chunk = parse_special(p).expect("chunk body");
            assert_eq!(chunk.slot, 7);
        }
    }

    #[test]
    fn replicated_announcement_tuples() {
        let mut rng = DetRng::new(4);
        let sched = LayeredKeySchedule::replicated(&mut rng, 3, UpgradeMask::from_groups(&[2]));
        let addrs: Vec<GroupAddr> = (20..23).map(GroupAddr).collect();
        let tuples = layered_tuples(&sched, &addrs);
        assert_eq!(tuples[0].1.top, sched.top_key(1));
        assert_eq!(tuples[1].1.increase, Some(sched.top_key(1)));
    }

    #[test]
    fn non_special_packets_do_not_parse() {
        let p = Packet::opaque(100, FlowId(0), AgentId(0), Dest::Group(GroupAddr(1)));
        assert!(parse_special(&p).is_none());
    }
}
