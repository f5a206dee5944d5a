//! # mcc-sigma — Secure Internet Group Management Architecture
//!
//! SIGMA (paper §3.2) is the generic half of the paper's defence against
//! inflated subscription: key-checked group access at edge routers,
//! independent of any congestion-control protocol (Requirement 3). The
//! crate provides:
//!
//! * `keytable` — per-slot `(group → key tuple)` state at routers,
//! * [`fec`] / `keydist` — FEC-protected special packets that carry key
//!   tuples from the sender to every edge router (paper §3.2.1),
//! * `messages` — the receiver messages of paper Figure 6 (session-join,
//!   subscription, unsubscription) plus acks,
//! * `router` — the [`router::SigmaEdgeModule`] edge-router behaviour:
//!   grants per (interface, group, slot), two-slot grace periods for
//!   expected groups and session-joins, lockouts after keyless overstays,
//!   replacement of raw IGMP for protected groups, ECN component
//!   scrambling, and the guessing-attack tally of §4.2,
//! * `guard` — the collusion-resistant interface-key extension (§4.2),
//! * `data` — the wire body protected data packets carry (DELTA fields +
//!   slot stamp).
//!
//! The timeline follows paper Figure 2: keys distributed during slot `s`
//! (in-band to receivers via DELTA, via specials to routers) control
//! access during slot `s + 2`; slot `s + 1` is the subscription window.

pub(crate) mod data;
pub mod fec;
pub(crate) mod guard;
pub(crate) mod keydist;
pub(crate) mod keytable;
pub(crate) mod messages;
pub(crate) mod router;
pub(crate) mod slab;

pub use data::ProtectedData;
pub use guard::CollusionGuard;
pub use keydist::{build_announcement, layered_tuples};
pub use keytable::{KeyTable, KeyTuple};
pub use messages::{SessionJoin, Subscription, SubscriptionAck, Unsubscription};
pub use router::{SigmaConfig, SigmaEdgeModule, SigmaStats};
pub use slab::GrantSlab;
