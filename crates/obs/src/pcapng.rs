//! A hand-rolled pcapng writer for packet-lifecycle trace events.
//!
//! Emits a minimal, spec-conforming pcapng stream — Section Header Block,
//! one Interface Description Block with `LINKTYPE_USER0` and nanosecond
//! timestamp resolution, then one Enhanced Packet Block per packet event —
//! so Wireshark/tshark open our traces (as raw user-link frames) while the
//! 48-byte record layout below carries the multicast-specific fields.
//!
//! Record layout (all little-endian, 48 bytes):
//!
//! | off | size | field                                        |
//! |-----|------|----------------------------------------------|
//! | 0   | 4    | magic `"MCCT"`                               |
//! | 4   | 1    | version (1)                                  |
//! | 5   | 1    | kind (1=enqueue 2=transmit 3=mark 4=drop 5=deliver) |
//! | 6   | 1    | drop reason (0=none 1=queue_full 2=edge_filter) |
//! | 7   | 1    | reserved (0)                                 |
//! | 8   | 4    | run index                                    |
//! | 12  | 4    | node                                         |
//! | 16  | 4    | link (`0xffff_ffff` = local delivery)        |
//! | 20  | 4    | group (`0xffff_ffff` = unicast)              |
//! | 24  | 4    | flow                                         |
//! | 28  | 4    | source agent                                 |
//! | 32  | 8    | size in bits                                 |
//! | 40  | 4    | receiving agent (`0xffff_ffff` unless deliver) |
//! | 44  | 4    | session layer (`0xffff_ffff` = unknown; reserved for a capture that learns the session layout) |
//!
//! No packet uid, like the JSONL sink: a record says where a packet is and
//! what it carries, not which allocation it was.
//!
//! Determinism: blocks are appended in the caller-supplied order (the
//! canonical `(run, time, record bytes)` order established by the core
//! `obs` module), timestamps are [`SimTime`] nanoseconds, and nothing here
//! reads clocks or the environment — equal event sequences produce equal
//! files, byte for byte.

use crate::event::{DropReason, TraceEvent};
use mcc_simcore::SimTime;

/// `LINKTYPE_USER0`: reserved for private use, the standard choice for a
/// custom encapsulation.
pub(crate) const LINKTYPE_USER0: u16 = 147;

/// Bytes of one Enhanced Packet Block payload record.
pub(crate) const RECORD_LEN: usize = 48;

/// Fixed prefix: SHB (28 bytes) + IDB with if_tsresol option (32 bytes).
pub const HEADER_LEN: usize = 28 + 32;

/// Size of one complete EPB: 32 bytes of framing + 48-byte record
/// (already a multiple of 4, so no padding).
pub const EPB_LEN: usize = 32 + RECORD_LEN;

fn push_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// The file prefix: Section Header Block + Interface Description Block.
pub fn header() -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN);
    // --- Section Header Block ---
    push_u32(&mut out, 0x0A0D_0D0A); // block type
    push_u32(&mut out, 28); // block total length
    push_u32(&mut out, 0x1A2B_3C4D); // byte-order magic (we write LE)
    push_u16(&mut out, 1); // major version
    push_u16(&mut out, 0); // minor version
    push_u64(&mut out, u64::MAX); // section length: unspecified
    push_u32(&mut out, 28); // block total length (trailer)
                            // --- Interface Description Block ---
    push_u32(&mut out, 0x0000_0001); // block type
    push_u32(&mut out, 32); // block total length
    push_u16(&mut out, LINKTYPE_USER0);
    push_u16(&mut out, 0); // reserved
    push_u32(&mut out, 0); // snaplen: unlimited
                           // option: if_tsresol = 9 (10^-9 s, i.e. nanoseconds)
    push_u16(&mut out, 9); // option code if_tsresol
    push_u16(&mut out, 1); // option length
    out.push(9); // resolution exponent
    out.extend_from_slice(&[0, 0, 0]); // pad to 32-bit boundary
    push_u16(&mut out, 0); // opt_endofopt
    push_u16(&mut out, 0);
    push_u32(&mut out, 32); // block total length (trailer)
    debug_assert_eq!(out.len(), HEADER_LEN);
    out
}

/// The kind byte of the record for a packet event, if it is one.
fn kind_byte(ev: &TraceEvent) -> Option<(u8, u8)> {
    match ev {
        TraceEvent::PktEnqueue(_) => Some((1, 0)),
        TraceEvent::PktTransmit(_) => Some((2, 0)),
        TraceEvent::PktMark(_) => Some((3, 0)),
        TraceEvent::PktDrop(_, reason) => Some((
            4,
            match reason {
                DropReason::QueueFull => 1,
                DropReason::EdgeFilter => 2,
            },
        )),
        TraceEvent::PktDeliver(_) => Some((5, 0)),
        _ => None,
    }
}

/// The 48-byte record for a packet-lifecycle event, or `None` for
/// protocol events (which have no packet to encode).
pub fn record(run: u32, ev: &TraceEvent) -> Option<[u8; RECORD_LEN]> {
    let (kind, reason) = kind_byte(ev)?;
    let p = ev.pkt()?;
    let mut rec = [0u8; RECORD_LEN];
    rec[0..4].copy_from_slice(b"MCCT");
    rec[4] = 1; // version
    rec[5] = kind;
    rec[6] = reason;
    rec[8..12].copy_from_slice(&run.to_le_bytes());
    rec[12..16].copy_from_slice(&p.node.to_le_bytes());
    rec[16..20].copy_from_slice(&p.link.to_le_bytes());
    rec[20..24].copy_from_slice(&p.group.to_le_bytes());
    rec[24..28].copy_from_slice(&p.flow.to_le_bytes());
    rec[28..32].copy_from_slice(&p.src.to_le_bytes());
    rec[32..40].copy_from_slice(&p.size_bits.to_le_bytes());
    rec[40..44].copy_from_slice(&p.agent.to_le_bytes());
    rec[44..48].copy_from_slice(&u32::MAX.to_le_bytes()); // layer: unknown
    Some(rec)
}

/// Append one Enhanced Packet Block carrying `rec` at sim-time `at`.
pub fn push_packet(out: &mut Vec<u8>, at: SimTime, rec: &[u8; RECORD_LEN]) {
    let ns = at.as_nanos();
    push_u32(out, 0x0000_0006); // block type: EPB
    push_u32(out, EPB_LEN as u32); // block total length
    push_u32(out, 0); // interface id
    push_u32(out, (ns >> 32) as u32); // timestamp high
    push_u32(out, ns as u32); // timestamp low
    push_u32(out, RECORD_LEN as u32); // captured length
    push_u32(out, RECORD_LEN as u32); // original length
    out.extend_from_slice(rec);
    push_u32(out, EPB_LEN as u32); // block total length (trailer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PktRef;

    fn p() -> PktRef {
        PktRef {
            node: 3,
            link: 9,
            flow: 1,
            src: 2,
            group: 900,
            agent: 17,
            size_bits: 8000,
        }
    }

    fn u32_at(buf: &[u8], off: usize) -> u32 {
        u32::from_le_bytes(buf[off..off + 4].try_into().expect("4 bytes"))
    }

    /// The checked-in header/offset sanity contract CI's trace-smoke step
    /// relies on: fixed byte layout, fixed offsets, self-consistent block
    /// length trailers.
    #[test]
    fn header_layout_and_offsets() {
        let h = header();
        assert_eq!(h.len(), HEADER_LEN);
        // SHB at offset 0.
        assert_eq!(u32_at(&h, 0), 0x0A0D_0D0A);
        assert_eq!(u32_at(&h, 4), 28);
        assert_eq!(u32_at(&h, 8), 0x1A2B_3C4D);
        assert_eq!(u16::from_le_bytes([h[12], h[13]]), 1); // major
        assert_eq!(u32_at(&h, 24), 28); // SHB trailer
                                        // IDB at offset 28.
        assert_eq!(u32_at(&h, 28), 0x0000_0001);
        assert_eq!(u32_at(&h, 32), 32);
        assert_eq!(u16::from_le_bytes([h[36], h[37]]), LINKTYPE_USER0);
        assert_eq!(h[48], 9, "if_tsresol = nanoseconds");
        assert_eq!(u32_at(&h, 52), 0); // opt_endofopt
        assert_eq!(u32_at(&h, 56), 32); // IDB trailer
    }

    #[test]
    fn epb_layout_and_offsets() {
        let rec = record(2, &TraceEvent::PktEnqueue(p())).expect("packet event");
        let mut out = Vec::new();
        push_packet(&mut out, SimTime::from_nanos(0x1_0000_0001), &rec);
        assert_eq!(out.len(), EPB_LEN);
        assert_eq!(u32_at(&out, 0), 0x0000_0006);
        assert_eq!(u32_at(&out, 4), EPB_LEN as u32);
        assert_eq!(u32_at(&out, 8), 0); // iface
        assert_eq!(u32_at(&out, 12), 1, "timestamp high word");
        assert_eq!(u32_at(&out, 16), 1, "timestamp low word");
        assert_eq!(u32_at(&out, 20), RECORD_LEN as u32);
        assert_eq!(u32_at(&out, 24), RECORD_LEN as u32);
        assert_eq!(u32_at(&out, EPB_LEN - 4), EPB_LEN as u32); // trailer
                                                               // Record payload at offset 28.
        let body = &out[28..28 + RECORD_LEN];
        assert_eq!(&body[0..4], b"MCCT");
        assert_eq!(body[4], 1); // version
        assert_eq!(body[5], 1); // kind = enqueue
        assert_eq!(u32_at(body, 8), 2); // run
        assert_eq!(u32_at(body, 12), 3); // node
        assert_eq!(u32_at(body, 16), 9); // link
        assert_eq!(u32_at(body, 20), 900); // group
        assert_eq!(
            u64::from_le_bytes(body[32..40].try_into().expect("8 bytes")),
            8000
        );
        assert_eq!(u32_at(body, 40), 17); // receiving agent
        assert_eq!(u32_at(body, 44), u32::MAX); // layer: unknown
    }

    #[test]
    fn drop_reasons_encode() {
        let rec =
            record(0, &TraceEvent::PktDrop(p(), DropReason::EdgeFilter)).expect("packet event");
        assert_eq!(rec[5], 4);
        assert_eq!(rec[6], 2);
    }

    #[test]
    fn non_packet_events_have_no_record() {
        assert!(record(0, &TraceEvent::Join { agent: 1, group: 2 }).is_none());
        assert!(record(
            0,
            &TraceEvent::SigmaAlarm {
                node: 0,
                iface: 0,
                group: 0,
                slot: 0
            }
        )
        .is_none());
    }
}
