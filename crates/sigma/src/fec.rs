//! Forward error correction for key-distribution packets.
//!
//! SIGMA delivers keys to edge routers through multicast special packets
//! that cross the same congested links as the data, so the paper protects
//! them with FEC sized to overcome 50 % packet loss (§5.4 sets the
//! bit-expansion factor `z` accordingly). This implementation uses
//! repetition coding with interleaving: every chunk is transmitted
//! `repeat` times, spread across the slot. Repetition is the simplest code
//! whose expansion factor is explicit (`z = repeat`), which is exactly the
//! quantity the overhead formulas consume; the router's decoder is a
//! dedup.
//!
//! The unit of encoding is a [`KeyChunk`]: the slot number plus a batch of
//! labeled address-key tuples, sized to fit one special packet.

use crate::keytable::KeyTuple;
use crate::messages::{ADDR_BITS, SLOT_NUMBER_BITS};
use mcc_delta::PAPER_KEY_BITS;
use mcc_netsim::GroupAddr;

/// Header bits of one special packet (the paper's per-packet share of `h`).
pub(crate) const SPECIAL_HEADER_BITS: u64 = 256;

/// Maximum payload bits per special packet before chunking.
pub(crate) const MAX_CHUNK_PAYLOAD_BITS: u64 = 8 * 512;

/// One special packet's payload: key tuples for `slot`.
#[derive(Clone, Debug, PartialEq)]
pub struct KeyChunk {
    /// The slot these keys open.
    pub(crate) slot: u64,
    /// Chunk index / total chunks for this slot (reassembly bookkeeping).
    pub index: u32,
    /// Labeled tuples.
    pub(crate) tuples: Vec<(GroupAddr, KeyTuple)>,
}

impl KeyChunk {
    /// Payload bits, following the paper's accounting: a slot number plus,
    /// per tuple, a 32-bit address and `b` bits per carried key.
    pub(crate) fn payload_bits(&self) -> u64 {
        SLOT_NUMBER_BITS
            + self
                .tuples
                .iter()
                .map(|(_, t)| ADDR_BITS + t.key_count() as u64 * PAPER_KEY_BITS as u64)
                .sum::<u64>()
    }

    /// Wire bits including the special-packet header.
    pub(crate) fn wire_bits(&self) -> u64 {
        self.payload_bits() + SPECIAL_HEADER_BITS
    }
}

/// Split a slot's tuples into chunks bounded by
/// `MAX_CHUNK_PAYLOAD_BITS`.
pub fn chunk_tuples(slot: u64, tuples: Vec<(GroupAddr, KeyTuple)>) -> Vec<KeyChunk> {
    let mut chunks = Vec::new();
    let mut current: Vec<(GroupAddr, KeyTuple)> = Vec::new();
    let mut bits = SLOT_NUMBER_BITS;
    for (g, t) in tuples {
        let tb = ADDR_BITS + t.key_count() as u64 * PAPER_KEY_BITS as u64;
        if bits + tb > MAX_CHUNK_PAYLOAD_BITS && !current.is_empty() {
            chunks.push(current);
            current = Vec::new();
            bits = SLOT_NUMBER_BITS;
        }
        bits += tb;
        current.push((g, t));
    }
    if !current.is_empty() {
        chunks.push(current);
    }
    chunks
        .into_iter()
        .enumerate()
        .map(|(i, tuples)| KeyChunk {
            slot,
            index: i as u32,
            tuples,
        })
        .collect()
}

/// Repetition-FEC encoder: each chunk appears `repeat` times. Odd copies
/// are emitted in reverse order, which places every chunk at one even and
/// one odd stream position — so a strictly alternating 50 % loss (the
/// worst periodic pattern at the design loss rate) can never kill both
/// copies, and bursts shorter than a copy span are survived too.
pub fn encode_with_repeats(chunks: &[KeyChunk], repeat: u32) -> Vec<KeyChunk> {
    assert!(repeat >= 1, "repeat factor must be at least 1");
    let mut out = Vec::with_capacity(chunks.len() * repeat as usize);
    for r in 0..repeat {
        if r % 2 == 0 {
            out.extend(chunks.iter().cloned());
        } else {
            out.extend(chunks.iter().rev().cloned());
        }
    }
    out
}

/// Accounting for the paper's `z` and `h` parameters of one slot's
/// key distribution.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FecAccounting {
    /// Information (pre-FEC) payload bits.
    pub info_bits: u64,
    /// Transmitted payload bits (post-FEC).
    pub coded_bits: u64,
    /// Total header bits across the transmitted packets (`h`).
    pub header_bits: u64,
}

impl FecAccounting {
    /// Measure a transmission: `chunks` pre-FEC, `packets` post-FEC.
    pub fn measure(chunks: &[KeyChunk], packets: &[KeyChunk]) -> Self {
        FecAccounting {
            info_bits: chunks.iter().map(KeyChunk::payload_bits).sum(),
            coded_bits: packets.iter().map(KeyChunk::payload_bits).sum(),
            header_bits: packets.len() as u64 * SPECIAL_HEADER_BITS,
        }
    }

    /// The measured bit-expansion factor `z`.
    pub fn expansion(&self) -> f64 {
        if self.info_bits == 0 {
            1.0
        } else {
            self.coded_bits as f64 / self.info_bits as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_delta::Key;

    fn tuples(n: u32) -> Vec<(GroupAddr, KeyTuple)> {
        (0..n)
            .map(|i| {
                (
                    GroupAddr(i),
                    KeyTuple {
                        top: Key(i as u64),
                        decrease: (i + 1 < n).then_some(Key(100 + i as u64)),
                        increase: None,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn small_sessions_fit_one_chunk() {
        let chunks = chunk_tuples(3, tuples(10));
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].tuples.len(), 10);
        assert_eq!(chunks[0].slot, 3);
    }

    #[test]
    fn payload_bits_follow_paper_accounting() {
        // 10 groups: every tuple has a top key, 9 have decrease keys.
        // l + 10*32 + 19*16 = 8 + 320 + 304.
        let chunks = chunk_tuples(0, tuples(10));
        assert_eq!(chunks[0].payload_bits(), 8 + 320 + 304);
    }

    #[test]
    fn big_sessions_split() {
        // Each tuple ≤ 32+3*16 = 80 bits; force tiny chunks via many groups.
        let many = tuples(200);
        let chunks = chunk_tuples(1, many.clone());
        assert!(chunks.len() > 1);
        let total: usize = chunks.iter().map(|c| c.tuples.len()).sum();
        assert_eq!(total, 200, "no tuple lost in chunking");
        for c in &chunks {
            assert!(c.payload_bits() <= MAX_CHUNK_PAYLOAD_BITS);
        }
        // Indices are sequential.
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c.index, i as u32);
        }
    }

    #[test]
    fn repetition_doubles_bits_and_interleaves() {
        let chunks = chunk_tuples(0, tuples(200));
        let coded = encode_with_repeats(&chunks, 2);
        assert_eq!(coded.len(), chunks.len() * 2);
        // The second copy runs in reverse: it starts with the last chunk.
        assert_eq!(coded[0].index, 0);
        assert_eq!(coded[chunks.len()].index, (chunks.len() - 1) as u32);
        let acc = FecAccounting::measure(&chunks, &coded);
        assert!((acc.expansion() - 2.0).abs() < 1e-12);
        assert_eq!(acc.header_bits, coded.len() as u64 * SPECIAL_HEADER_BITS);
    }

    #[test]
    fn repetition_survives_fifty_percent_alternating_loss() {
        let chunks = chunk_tuples(0, tuples(64));
        let coded = encode_with_repeats(&chunks, 2);
        // Drop every other packet (worst-case 50 % periodic loss).
        let survivors: Vec<&KeyChunk> = coded.iter().step_by(2).collect();
        // Every distinct chunk index must still be present.
        for c in &chunks {
            assert!(
                survivors.iter().any(|s| s.index == c.index),
                "chunk {} lost",
                c.index
            );
        }
    }
}
