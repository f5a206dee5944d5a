//! Packets and payload bodies.
//!
//! The simulator models packets at the granularity the paper's evaluation
//! needs: a wire size (for serialization and queueing), a destination
//! (unicast agent, multicast group, or a router's control plane), an ECN
//! codepoint, the "router alert" bit SIGMA's special packets use, and a typed
//! body. Protocol crates define their own body types and attach them through
//! the [`AppBody`] object-safe clone-able trait — `netsim` stays independent
//! of every congestion-control protocol, mirroring the paper's Requirement 3.
//!
//! Payloads are **reference-counted with copy-on-write**: [`Body::App`]
//! holds an `Arc<dyn AppBody>`, so cloning a packet (multicast fan-out
//! copies one per branch) is a pointer bump, not a heap clone. The payload
//! is only deep-cloned — via [`AppBody::clone_arc`], straight into a fresh
//! `Arc` and at most once per shared packet — when someone actually
//! mutates it through [`Packet::body_as_mut`] (e.g. the SIGMA edge module
//! scrambling the ECN component fields of a marked packet).

use crate::addr::{AgentId, FlowId, GroupAddr, NodeId};
use std::any::Any;
use std::fmt;
use std::sync::Arc;

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

/// Object-safe, clonable application payload.
///
/// Implemented automatically for any `Clone + Debug + Send + Sync +
/// 'static` type by the blanket impl below (`Sync` because the payload
/// sits behind an `Arc` shared across fan-out branches).
pub trait AppBody: fmt::Debug + Send + Sync {
    /// Deep-clone into a fresh `Arc` (one allocation). Called only on
    /// copy-on-write — when a shared payload is mutated through
    /// [`Packet::body_as_mut`] — never on plain packet clones or multicast
    /// fan-out.
    fn clone_arc(&self) -> Arc<dyn AppBody>;
    /// Downcast support.
    fn as_any(&self) -> &dyn Any;
    /// Mutable downcast support (ECN component scrambling mutates bodies).
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Clone + fmt::Debug + Send + Sync + Any> AppBody for T {
    fn clone_arc(&self) -> Arc<dyn AppBody> {
        Arc::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The payload of a packet.
#[derive(Clone, Debug)]
pub(crate) enum Body {
    /// Protocol-defined payload (TCP segment, FLID data, SIGMA message …).
    /// Reference-counted: cloning shares the payload, mutation through
    /// [`Packet::body_as_mut`] copies on write.
    App(Arc<dyn AppBody>),
    /// Router-to-router graft: extend the group tree toward the source.
    Graft(GroupAddr),
    /// Router-to-router prune: retract an empty branch of the group tree.
    Prune(GroupAddr),
    /// Contentless filler (pure bandwidth load, e.g. CBR payloads).
    Opaque,
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
    /// Unique id assigned when the packet is first sent. Multicast copies
    /// share the uid of the original.
    pub(crate) uid: u64,
    /// Payload.
    pub(crate) body: Body,
}

impl Packet {
    /// A new application packet; `uid` is stamped by the simulator on send.
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
            uid: 0,
            body: Body::App(Arc::new(body)),
        }
    }

    /// A control packet with an `Body::Opaque` payload.
    pub fn opaque(size_bits: u64, flow: FlowId, src: AgentId, dst: Dest) -> Self {
        Packet {
            size_bits,
            flow,
            src,
            dst,
            ecn: Ecn::NotCapable,
            router_alert: false,
            uid: 0,
            body: Body::Opaque,
        }
    }

    /// Borrow the app body as a concrete type, if it is one.
    pub fn body_as<T: Any>(&self) -> Option<&T> {
        match &self.body {
            // Explicit deref for the same reason as `Clone`: the box itself
            // satisfies the blanket impl and would downcast to itself.
            Body::App(b) => (**b).as_any().downcast_ref::<T>(),
            _ => None,
        }
    }

    /// Mutably borrow the app body as a concrete type, if it is one.
    ///
    /// Copy-on-write: when the payload is shared (the packet was cloned,
    /// e.g. by multicast fan-out), it is deep-cloned via
    /// [`AppBody::clone_arc`] exactly once before the mutable borrow is
    /// handed out — other holders keep the unmutated original. A failed
    /// downcast never clones.
    pub fn body_as_mut<T: Any>(&mut self) -> Option<&mut T> {
        match &mut self.body {
            Body::App(b) => {
                (**b).as_any().downcast_ref::<T>()?;
                if Arc::get_mut(b).is_none() {
                    *b = (**b).clone_arc();
                }
                Arc::get_mut(b)
                    .expect("unique after copy-on-write")
                    .as_any_mut()
                    .downcast_mut::<T>()
            }
            _ => None,
        }
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
    }

    #[test]
    fn downcast_mut_mutates() {
        let mut p = pkt();
        p.body_as_mut::<Demo>().unwrap().x = 9;
        assert_eq!(p.body_as::<Demo>().unwrap().x, 9);
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

    /// A payload whose clone count is observable: every deep clone
    /// (`clone_arc` goes through `Clone` via the blanket impl) bumps the
    /// shared counter.
    #[derive(Debug)]
    struct Counting {
        x: u32,
        clones: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl Clone for Counting {
        fn clone(&self) -> Self {
            self.clones
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Counting {
                x: self.x,
                clones: self.clones.clone(),
            }
        }
    }

    #[test]
    fn packet_clones_share_the_body_without_copying() {
        let clones = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let p = Packet::app(
            512,
            FlowId(0),
            AgentId(0),
            Dest::Group(GroupAddr(1)),
            Counting {
                x: 1,
                clones: clones.clone(),
            },
        );
        let copies: Vec<Packet> = (0..50).map(|_| p.clone()).collect();
        assert_eq!(
            clones.load(std::sync::atomic::Ordering::SeqCst),
            0,
            "fan-out clones must be pointer bumps"
        );
        drop(copies);
    }

    #[test]
    fn mutation_copies_on_write_exactly_once() {
        let clones = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let p = Packet::app(
            512,
            FlowId(0),
            AgentId(0),
            Dest::Group(GroupAddr(1)),
            Counting {
                x: 1,
                clones: clones.clone(),
            },
        );
        let mut branch = p.clone();
        branch.body_as_mut::<Counting>().unwrap().x = 9;
        assert_eq!(
            clones.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "a shared body is deep-cloned exactly once on mutation"
        );
        // A second mutation of the now-unique body is in place.
        branch.body_as_mut::<Counting>().unwrap().x = 10;
        assert_eq!(clones.load(std::sync::atomic::Ordering::SeqCst), 1);
        // The original kept the unmutated payload.
        assert_eq!(p.body_as::<Counting>().unwrap().x, 1);
        assert_eq!(branch.body_as::<Counting>().unwrap().x, 10);
    }

    #[test]
    fn unique_body_mutates_in_place_without_cloning() {
        let clones = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut p = Packet::app(
            512,
            FlowId(0),
            AgentId(0),
            Dest::Agent(AgentId(1)),
            Counting {
                x: 1,
                clones: clones.clone(),
            },
        );
        p.body_as_mut::<Counting>().unwrap().x = 2;
        assert_eq!(clones.load(std::sync::atomic::Ordering::SeqCst), 0);
    }

    #[test]
    fn failed_downcast_never_clones() {
        let clones = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let p = Packet::app(
            512,
            FlowId(0),
            AgentId(0),
            Dest::Agent(AgentId(1)),
            Counting {
                x: 1,
                clones: clones.clone(),
            },
        );
        let mut q = p.clone();
        assert!(q.body_as_mut::<Demo>().is_none());
        assert_eq!(clones.load(std::sync::atomic::Ordering::SeqCst), 0);
    }

    #[test]
    fn control_bodies_clone() {
        let p = Packet {
            body: Body::Graft(GroupAddr(3)),
            ..Packet::opaque(512, FlowId(0), AgentId(0), Dest::Router(NodeId(1)))
        };
        match p.clone().body {
            Body::Graft(g) => assert_eq!(g, GroupAddr(3)),
            other => panic!("unexpected body {other:?}"),
        }
    }
}
