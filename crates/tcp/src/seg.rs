//! TCP segment bodies.

use mcc_netsim::DATA_PACKET_BYTES;

/// Default payload bytes per segment: the paper's 576-byte data packet
/// minus a 40-byte TCP/IP header.
pub(crate) const DEFAULT_MSS_BYTES: u64 = DATA_PACKET_BYTES - DEFAULT_HEADER_BYTES;

/// Default TCP/IP header size in bytes.
pub(crate) const DEFAULT_HEADER_BYTES: u64 = 40;

/// Wire size of a pure ACK in bits (header only).
pub(crate) const ACK_BITS: u64 = DEFAULT_HEADER_BYTES * 8;

/// A data segment: `payload` bytes starting at byte offset `seq`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TcpData {
    /// Byte sequence number of the first payload byte.
    pub(crate) seq: u64,
    /// Payload length in bytes.
    pub(crate) len: u64,
}

/// A cumulative acknowledgment: the receiver has every byte below `ack`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TcpAck {
    /// Next byte expected.
    pub(crate) ack: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sum_to_paper_packet() {
        assert_eq!(DEFAULT_MSS_BYTES + DEFAULT_HEADER_BYTES, 576);
    }
}
