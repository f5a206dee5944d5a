//! The receiving side: cumulative ACKs with out-of-order reassembly.

use crate::seg::{TcpAck, TcpData, ACK_BITS};
use mcc_netsim::prelude::*;
use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Included};

/// A TCP receiver. Every data segment triggers an immediate cumulative ACK
/// (no delayed ACKs — the paper's era NS-2 Reno sink behaves the same way
/// by default for one-way transfers).
#[derive(Debug, Default)]
pub struct TcpSink {
    /// Non-overlapping received intervals `start → end`, merged on insert.
    intervals: BTreeMap<u64, u64>,
    /// Next byte expected (everything below is contiguous).
    pub(crate) cum_ack: u64,
    /// Goodput: contiguous bytes delivered (advances with `cum_ack`).
    pub(crate) goodput_bytes: u64,
    /// Count of segments that were duplicates of already-received data.
    pub(crate) dup_segments: u64,
    /// Total data segments received.
    pub(crate) segments: u64,
}

impl TcpSink {
    /// Insert `[seq, end)` and merge; returns true if any byte was new.
    fn insert(&mut self, seq: u64, end: u64) -> bool {
        if end <= seq {
            return false;
        }
        // The run `[seq, end)` joins: its predecessor if that overlaps or
        // abuts it, else a new run at `seq`.
        let mut start = seq;
        if let Some((&ps, &pe)) = self.intervals.range(..=seq).next_back() {
            if pe >= seq {
                if pe >= end {
                    return false; // fully covered
                }
                start = ps;
            }
        }
        // Later runs starting at or before `end` are swallowed. In-order
        // data has none, so the predecessor is extended in place.
        let mut stop = end;
        while let Some((&s, &e)) = self
            .intervals
            .range((Excluded(start), Included(end)))
            .next()
        {
            self.intervals.remove(&s);
            stop = stop.max(e);
        }
        self.intervals.insert(start, stop);
        true
    }

    /// Account one data segment `[seq, seq + len)`.
    fn receive(&mut self, seq: u64, len: u64) {
        self.segments += 1;
        if !self.insert(seq, seq + len) {
            self.dup_segments += 1;
        }
        self.advance_cum_ack();
    }

    fn advance_cum_ack(&mut self) {
        if let Some((&s, &e)) = self.intervals.iter().next() {
            if s <= self.cum_ack && e > self.cum_ack {
                self.goodput_bytes += e - self.cum_ack;
                self.cum_ack = e;
            }
        }
    }
}

impl Agent for TcpSink {
    fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
        let Some(&TcpData { seq, len }) = pkt.body_as::<TcpData>() else {
            return; // stray non-data packet
        };
        self.receive(seq, len);
        let ack = Packet::app(
            ACK_BITS,
            pkt.flow,
            ctx.agent,
            Dest::Agent(pkt.src),
            TcpAck { ack: self.cum_ack },
        );
        ctx.send(ack);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sink() -> TcpSink {
        TcpSink::default()
    }

    #[test]
    fn in_order_advances() {
        let mut s = sink();
        assert!(s.insert(0, 536));
        s.advance_cum_ack();
        assert_eq!(s.cum_ack, 536);
        assert!(s.insert(536, 1072));
        s.advance_cum_ack();
        assert_eq!(s.cum_ack, 1072);
        assert_eq!(s.goodput_bytes, 1072);
    }

    #[test]
    fn gap_holds_ack() {
        let mut s = sink();
        s.insert(0, 536);
        s.advance_cum_ack();
        s.insert(1072, 1608); // hole at [536, 1072)
        s.advance_cum_ack();
        assert_eq!(s.cum_ack, 536);
        // Filling the hole releases everything.
        s.insert(536, 1072);
        s.advance_cum_ack();
        assert_eq!(s.cum_ack, 1608);
    }

    #[test]
    fn duplicate_detected() {
        let mut s = sink();
        assert!(s.insert(0, 536));
        assert!(!s.insert(0, 536));
        assert!(!s.insert(100, 500)); // sub-range
    }

    #[test]
    fn overlapping_merges() {
        let mut s = sink();
        s.insert(0, 400);
        s.insert(800, 1200);
        s.insert(300, 900); // bridges both
        s.advance_cum_ack();
        assert_eq!(s.cum_ack, 1200);
        assert_eq!(s.intervals.len(), 1);
    }

    #[test]
    fn abutting_intervals_merge() {
        let mut s = sink();
        s.insert(536, 1072);
        s.insert(0, 536);
        s.advance_cum_ack();
        assert_eq!(s.cum_ack, 1072);
        assert_eq!(s.intervals.len(), 1);
    }

    proptest! {
        /// Random segment orders with duplicates and overlaps agree with
        /// a byte bitmap: the ACK is the first missing byte, goodput the
        /// bytes below it, and a segment is a duplicate when it brings no
        /// new byte.
        #[test]
        fn reassembly_matches_a_byte_bitmap(
            segs in prop::collection::vec(0u64..u64::MAX, 1..120),
        ) {
            // Offsets on a 16-byte grid and lengths of 0..64 bytes, so
            // segments often abut, overlap and repeat.
            const SLOTS: u64 = 128;
            let mut s = sink();
            let mut have = vec![false; (SLOTS * 16 + 64) as usize];
            let mut dups = 0;
            for word in segs {
                let seq = (word % SLOTS) * 16;
                let len = (word >> 32) % 64;
                let bytes = &mut have[seq as usize..(seq + len) as usize];
                if bytes.iter().all(|&b| b) {
                    dups += 1;
                }
                bytes.fill(true);
                s.receive(seq, len);
                let cum = have.iter().position(|&b| !b).unwrap() as u64;
                prop_assert_eq!(s.cum_ack, cum);
                prop_assert_eq!(s.goodput_bytes, cum);
                prop_assert_eq!(s.dup_segments, dups);
            }
        }
    }
}
