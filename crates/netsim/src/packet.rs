//! Packets and payload bodies.
//!
//! The simulator models packets at the granularity the paper's evaluation
//! needs: a wire size (for serialization and queueing), a destination
//! (unicast agent, multicast group, or a router's control plane), an ECN
//! codepoint, the "router alert" bit SIGMA's special packets use, and a typed
//! body. Protocol crates define their own body types and attach them through
//! the object-safe [`AppBody`] trait — `netsim` stays independent
//! of every congestion-control protocol, mirroring the paper's Requirement 3.
//!
//! Payloads are **shared, never copied**: the body is an
//! `Arc<dyn AppBody>`, so cloning a packet (multicast fan-out copies one
//! per branch) is a pointer bump. Nothing mutates a body after it is
//! made. What a router rewrites per branch — SIGMA's ECN scrambling and
//! collusion-guard perturbation of the DELTA fields — goes into the two
//! opaque [`Packet::xor`] words instead: zero when a packet is made,
//! copied with it, never read by `netsim`. The protocol that writes them
//! applies them when it reads its body, so each branch sees its own view
//! of one shared payload.

use crate::addr::{AgentId, FlowId, GroupAddr, NodeId};
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// Wire size of a data packet in bytes, headers included: the paper's
/// "all data traffic uses 576-byte packets" (§5.1). FLID data, CBR and
/// TCP segments all read it.
pub const DATA_PACKET_BYTES: u64 = 576;

/// Where a packet is headed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dest {
    /// Unicast to a protocol endpoint.
    Agent(AgentId),
    /// Multicast to a group; forwarded along the group's distribution tree.
    Group(GroupAddr),
    /// Control-plane message consumed by the edge module of a router
    /// (e.g. SIGMA subscription messages, paper Figure 6).
    Router(NodeId),
}

/// ECN codepoint carried by a packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Ecn {
    /// Sender does not support ECN; congested RED queues drop it instead.
    #[default]
    NotCapable,
    /// ECN-capable transport; RED queues mark instead of dropping.
    Capable,
    /// Congestion experienced — set by a marking queue.
    Marked,
}

/// Object-safe application payload.
///
/// Implemented automatically for any `Debug + Send + Sync + 'static` type
/// by the blanket impl below (`Sync` because the payload sits behind an
/// `Arc` shared across fan-out branches).
pub trait AppBody: fmt::Debug + Send + Sync {
    /// Downcast support.
    fn as_any(&self) -> &dyn Any;
}

impl<T: fmt::Debug + Send + Sync + Any> AppBody for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The body of a router-to-router graft (`join`) or prune for `group`,
/// sent one hop toward the group's source. Only `netsim` makes and reads
/// it, on packets of the simulator's control flow.
#[derive(Debug)]
pub(crate) struct TreeControl {
    pub(crate) group: GroupAddr,
    pub(crate) join: bool,
}

/// A simulated packet.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Wire size in bits (headers included); determines serialization time
    /// and queue occupancy.
    pub size_bits: u64,
    /// Flow tag for accounting (throughput per flow, drops per flow).
    pub flow: FlowId,
    /// Originating agent.
    pub src: AgentId,
    /// Destination.
    pub dst: Dest,
    /// ECN codepoint.
    pub ecn: Ecn,
    /// SIGMA's "intercept at edge routers, do not forward to local
    /// interfaces" network-layer bit (paper §3.2.1).
    pub router_alert: bool,
    /// Two opaque per-branch words. Zero when a packet is made and copied
    /// with it; `netsim` never reads them. A protocol that rewrites header
    /// fields per fan-out branch XORs the change in here instead of
    /// mutating the shared body (SIGMA: word 0 the DELTA component, word 1
    /// the decrease field).
    pub xor: [u64; 2],
    /// Payload, shared by every copy; `None` is contentless filler (pure
    /// bandwidth load, e.g. CBR payloads).
    pub(crate) body: Option<Arc<dyn AppBody>>,
}

impl Packet {
    /// A new application packet.
    pub fn app(
        size_bits: u64,
        flow: FlowId,
        src: AgentId,
        dst: Dest,
        body: impl AppBody + 'static,
    ) -> Self {
        Packet {
            size_bits,
            flow,
            src,
            dst,
            ecn: Ecn::NotCapable,
            router_alert: false,
            xor: [0; 2],
            body: Some(Arc::new(body)),
        }
    }

    /// A packet with a contentless payload.
    pub fn opaque(size_bits: u64, flow: FlowId, src: AgentId, dst: Dest) -> Self {
        Packet {
            size_bits,
            flow,
            src,
            dst,
            ecn: Ecn::NotCapable,
            router_alert: false,
            xor: [0; 2],
            body: None,
        }
    }

    /// Borrow the app body as a concrete type, if it is one.
    pub fn body_as<T: Any>(&self) -> Option<&T> {
        self.body.as_deref()?.as_any().downcast_ref::<T>()
    }

    /// Byte count on the wire (rounded up).
    pub(crate) fn size_bytes(&self) -> u64 {
        self.size_bits.div_ceil(8)
    }

    /// Builder-style: mark as ECN-capable.
    pub fn ecn_capable(mut self) -> Self {
        self.ecn = Ecn::Capable;
        self
    }

    /// Builder-style: set the router-alert bit.
    pub fn with_router_alert(mut self) -> Self {
        self.router_alert = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[derive(Clone, Debug, PartialEq)]
    struct Demo {
        x: u32,
    }

    fn pkt() -> Packet {
        Packet::app(
            576 * 8,
            FlowId(1),
            AgentId(0),
            Dest::Group(GroupAddr(5)),
            Demo { x: 7 },
        )
    }

    #[test]
    fn downcast_round_trip() {
        let p = pkt();
        assert_eq!(p.body_as::<Demo>(), Some(&Demo { x: 7 }));
        assert!(p.body_as::<u32>().is_none());
        let filler = Packet::opaque(64, FlowId(1), AgentId(0), Dest::Agent(AgentId(1)));
        assert!(filler.body_as::<Demo>().is_none());
    }

    #[test]
    fn clone_preserves_body() {
        let p = pkt();
        let q = p.clone();
        assert_eq!(q.body_as::<Demo>(), Some(&Demo { x: 7 }));
        assert_eq!(q.size_bits, 576 * 8);
    }

    #[test]
    fn size_bytes_rounds_up() {
        let mut p = pkt();
        p.size_bits = 9;
        assert_eq!(p.size_bytes(), 2);
    }

    #[test]
    fn builders() {
        let p = pkt().ecn_capable().with_router_alert();
        assert_eq!(p.ecn, Ecn::Capable);
        assert!(p.router_alert);
    }

    /// A payload whose clone count is observable: every deep clone bumps
    /// the shared counter.
    #[derive(Debug)]
    struct Counting {
        x: u32,
        clones: Arc<AtomicUsize>,
    }

    impl Clone for Counting {
        fn clone(&self) -> Self {
            self.clones.fetch_add(1, Ordering::SeqCst);
            Counting {
                x: self.x,
                clones: self.clones.clone(),
            }
        }
    }

    fn counting(clones: &Arc<AtomicUsize>) -> Packet {
        Packet::app(
            512,
            FlowId(0),
            AgentId(0),
            Dest::Group(GroupAddr(1)),
            Counting {
                x: 1,
                clones: clones.clone(),
            },
        )
    }

    #[test]
    fn packet_clones_share_the_body_without_copying() {
        let clones = Arc::new(AtomicUsize::new(0));
        let p = counting(&clones);
        let copies: Vec<Packet> = (0..50).map(|_| p.clone()).collect();
        assert_eq!(
            clones.load(Ordering::SeqCst),
            0,
            "fan-out clones must be pointer bumps"
        );
        drop(copies);
    }

    /// A branch that writes its XOR words changes only its own copy: the
    /// body stays shared and uncloned, and every other holder still reads
    /// zero words over the original payload.
    #[test]
    fn writing_branch_words_clones_nothing() {
        let clones = Arc::new(AtomicUsize::new(0));
        let p = counting(&clones);
        assert_eq!(p.xor, [0; 2], "a new packet carries zero words");
        let mut branch = p.clone();
        branch.xor[0] ^= 0xA5;
        branch.xor[1] ^= 0x5A;
        let sibling = p.clone();
        assert_eq!(clones.load(Ordering::SeqCst), 0);
        assert_eq!(branch.xor, [0xA5, 0x5A]);
        assert_eq!(p.xor, [0; 2]);
        assert_eq!(sibling.xor, [0; 2]);
        // Words travel with further copies of the branch.
        assert_eq!(branch.clone().xor, [0xA5, 0x5A]);
        let shared = p.body_as::<Counting>().unwrap();
        assert!(std::ptr::eq(shared, branch.body_as::<Counting>().unwrap()));
        assert_eq!(shared.x, 1);
    }

    #[test]
    fn failed_downcast_never_clones() {
        let clones = Arc::new(AtomicUsize::new(0));
        let q = counting(&clones).clone();
        assert!(q.body_as::<Demo>().is_none());
        assert_eq!(clones.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn control_bodies_clone() {
        let p = Packet::app(
            512,
            FlowId(0),
            AgentId(0),
            Dest::Router(NodeId(1)),
            TreeControl {
                group: GroupAddr(3),
                join: true,
            },
        );
        let c = p.clone();
        let body = c.body_as::<TreeControl>().expect("control body");
        assert_eq!((body.group, body.join), (GroupAddr(3), true));
    }
}
