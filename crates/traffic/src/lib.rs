//! # mcc-traffic — constant-bit-rate and on-off traffic sources
//!
//! The paper's evaluation uses two background workloads besides TCP:
//!
//! * an **on-off CBR session** at 10 % of the bottleneck capacity with 5 s
//!   on-periods and 5 s off-periods (Figure 8d),
//! * a **CBR burst** of 800 Kbps between 45 s and 75 s used to probe the
//!   responsiveness of FLID-DL/FLID-DS (Figure 8e).
//!
//! Both are instances of [`CbrSource`]: a fixed-rate packet stream with an
//! optional on/off duty cycle and an active window.

pub(crate) mod cbr;
pub(crate) mod sink;

pub use cbr::{CbrConfig, CbrSource};
pub use sink::CountingSink;
