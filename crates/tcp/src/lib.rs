//! # mcc-tcp — TCP Reno over the network simulator
//!
//! The paper's Figures 1, 7 and 8d use TCP Reno receivers (`T1`, `T2`, …)
//! as the well-behaved cross traffic whose bandwidth a misbehaving multicast
//! receiver steals. This crate is a from-scratch Reno implementation over
//! `mcc-netsim` following RFC 2581 (congestion control) and RFC 6298
//! (retransmission timer):
//!
//! * slow start and congestion avoidance ([`reno::RenoSender`]),
//! * fast retransmit on three duplicate ACKs and Reno fast recovery,
//! * go-back-N retransmission timeout with exponential backoff and Karn's
//!   algorithm for RTT sampling (`rtt::RttEstimator`),
//! * one retransmission deadline per sender (`rtt::RtoTimer`): every ACK
//!   moves the deadline, but at most one timer event is scheduled. An
//!   event that fires before the deadline re-arms itself there; a new one
//!   is scheduled only when the deadline moves earlier than it (the RTO
//!   shrank after a backoff). A timeout fires at the same instant as a
//!   fresh timer per ACK would, without leaving a dead event per ACK in
//!   the simulator's event list,
//! * a cumulative-ACK receiver with out-of-order reassembly
//!   ([`sink::TcpSink`]).
//!
//! Segments are 576 bytes on the wire (536-byte payload + 40-byte header),
//! matching the paper's "all data traffic uses 576-byte packets".

pub(crate) mod reno;
pub(crate) mod rtt;
pub(crate) mod seg;
pub(crate) mod sink;

pub use reno::{RenoConfig, RenoSender};
pub use sink::TcpSink;
