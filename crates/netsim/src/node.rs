//! Routers and hosts.
//!
//! A [`Node`] is both a router (unicast forwarding tables, multicast group
//! tables) and, when agents are attached, a host. Multicast state follows
//! the source-rooted tree model: a node is *on the tree* for a group when it
//! has downstream interfaces, local member agents, or an edge-module
//! anchor; joining propagates hop-by-hop grafts toward the source and
//! the last leave propagates a prune.
//!
//! Per-node state is **flat**. Unicast routes (built by `Sim::finalize`)
//! are either one default out-link or a table indexed by destination
//! [`NodeId`]. A node with a single out-link in a connected graph reaches
//! every other node through that link, so only routers — nodes with
//! several out-links — hold a table, and route memory grows with routers
//! × nodes rather than nodes². Multicast state is a slab of [`GroupEntry`]
//! slots indexed by [`GroupIdx`] — the dense index the `World` interns per
//! [`GroupAddr`](crate::addr::GroupAddr). The forwarding hot path
//! therefore costs two array indexings per hop, no hash lookups.

use crate::addr::{AgentId, GroupIdx, LinkId, NodeId};
use crate::edge::EdgeModule;

/// Inline capacity of [`Members`]: group membership at one *host* is
/// almost always a single agent (plus the occasional colluder pair), and
/// keeping the set inside the [`GroupEntry`] saves the delivery hot path
/// one heap dereference per arriving multicast packet.
const MEMBERS_INLINE: usize = 3;

/// A sorted-unique set of member agents: inline up to
/// [`MEMBERS_INLINE`], spilling to a `Vec` beyond that. Only the storage
/// differs from a plain sorted `Vec` — iteration order, and therefore
/// simulation determinism, is identical in both representations.
#[derive(Debug, Clone)]
enum Members {
    Inline {
        len: u8,
        buf: [AgentId; MEMBERS_INLINE],
    },
    Heap(Vec<AgentId>),
}

impl Default for Members {
    fn default() -> Self {
        Members::Inline {
            len: 0,
            buf: [AgentId(0); MEMBERS_INLINE],
        }
    }
}

impl Members {
    #[inline]
    fn as_slice(&self) -> &[AgentId] {
        match self {
            Members::Inline { len, buf } => &buf[..*len as usize],
            Members::Heap(v) => v,
        }
    }

    /// Sorted-unique insert; false if already present.
    fn insert(&mut self, agent: AgentId) -> bool {
        let Err(i) = self.as_slice().binary_search(&agent) else {
            return false;
        };
        match self {
            Members::Inline { len, buf } => {
                let n = *len as usize;
                if n < MEMBERS_INLINE {
                    buf[i..=n].rotate_right(1);
                    buf[i] = agent;
                    *len += 1;
                } else {
                    let mut v = buf.to_vec();
                    v.insert(i, agent);
                    *self = Members::Heap(v);
                }
            }
            Members::Heap(v) => v.insert(i, agent),
        }
        true
    }

    /// Remove; false if not present. A spilled set stays heap-backed —
    /// membership churn that once exceeded the inline capacity tends to
    /// come back (join-leave flapping), and correctness only needs order.
    fn remove(&mut self, agent: AgentId) -> bool {
        let Ok(i) = self.as_slice().binary_search(&agent) else {
            return false;
        };
        match self {
            Members::Inline { len, buf } => {
                let n = *len as usize;
                buf[i..n].rotate_left(1);
                *len -= 1;
            }
            Members::Heap(v) => {
                v.remove(i);
            }
        }
        true
    }
}

/// What keeps a node on a group's tree: a downstream interface, a local
/// member agent, or the node's edge module.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Interest {
    Iface(LinkId),
    Member(AgentId),
    Module,
}

/// Per-group forwarding state at one node.
///
/// The interface and member sets are **sorted** flat storage rather than
/// `BTreeSet`s: the forwarding hot path iterates them once per packet
/// (fan-out snapshot, member delivery) while membership churn is orders
/// of magnitude rarer, so contiguous iteration wins. The fields are
/// private: all mutation goes through [`GroupEntry::add`] and
/// [`GroupEntry::remove`], which preserve the sorted-unique order the
/// binary-search lookups — and, since grafts replay in iteration order,
/// simulation determinism — depend on.
#[derive(Debug, Default, Clone)]
pub struct GroupEntry {
    /// Downstream out-links the group is forwarded onto (sorted, unique).
    out_ifaces: Vec<LinkId>,
    /// Locally attached member agents (sorted, unique; host side of the
    /// IGMP model).
    local_members: Members,
    /// True when the node's edge module holds the membership (e.g. a SIGMA
    /// router subscribed to a session's key-distribution control group).
    module_member: bool,
}

impl GroupEntry {
    /// True while anything downstream or local still wants the group.
    pub fn on_tree(&self) -> bool {
        !self.out_ifaces.is_empty()
            || !self.local_members.as_slice().is_empty()
            || self.module_member
    }

    /// Record `interest`; false if it was already held.
    pub(crate) fn add(&mut self, interest: Interest) -> bool {
        match interest {
            Interest::Iface(iface) => match self.out_ifaces.binary_search(&iface) {
                Ok(_) => false,
                Err(i) => {
                    self.out_ifaces.insert(i, iface);
                    true
                }
            },
            Interest::Member(agent) => self.local_members.insert(agent),
            Interest::Module => !std::mem::replace(&mut self.module_member, true),
        }
    }

    /// Drop `interest`; false if it was not held.
    pub(crate) fn remove(&mut self, interest: Interest) -> bool {
        match interest {
            Interest::Iface(iface) => match self.out_ifaces.binary_search(&iface) {
                Ok(i) => {
                    self.out_ifaces.remove(i);
                    true
                }
                Err(_) => false,
            },
            Interest::Member(agent) => self.local_members.remove(agent),
            Interest::Module => std::mem::take(&mut self.module_member),
        }
    }

    /// The downstream interfaces, sorted ascending.
    pub(crate) fn ifaces(&self) -> &[LinkId] {
        &self.out_ifaces
    }

    /// The local member agents, sorted ascending.
    #[inline]
    pub fn members(&self) -> &[AgentId] {
        self.local_members.as_slice()
    }
}

/// A node's unicast next hops, filled by `Sim::finalize` with
/// shortest-delay routes.
#[derive(Debug)]
pub(crate) enum Routes {
    /// Every other node is reached through this, the node's only
    /// out-link (set only when the graph is connected).
    Via(LinkId),
    /// Indexed by destination `NodeId`: the out-link toward it, `None`
    /// when unreachable or the node itself.
    Table(Box<[Option<LinkId>]>),
}

/// A router/host in the topology.
#[derive(Debug)]
pub struct Node {
    /// This node's id.
    pub id: NodeId,
    /// All out-links originating here.
    pub out_links: Vec<LinkId>,
    /// Unicast next hops; read through [`Node::route_to`].
    pub(crate) routes: Routes,
    /// Multicast forwarding state: a slab indexed by [`GroupIdx`], grown
    /// lazily. `None` slots mean "not on the tree for that group".
    pub(crate) groups: Vec<Option<GroupEntry>>,
    /// Agents attached to this node.
    pub(crate) local_agents: Vec<AgentId>,
    /// Optional edge module (SIGMA installs one on edge routers).
    pub(crate) edge: Option<Box<dyn EdgeModule>>,
}

impl Node {
    /// A fresh node with no links or state.
    pub(crate) fn new(id: NodeId) -> Self {
        Node {
            id,
            out_links: Vec::new(),
            routes: Routes::Table(Box::default()),
            groups: Vec::new(),
            local_agents: Vec::new(),
            edge: None,
        }
    }

    /// True when this node hosts at least one agent.
    pub(crate) fn is_host(&self) -> bool {
        !self.local_agents.is_empty()
    }

    /// The out-link toward `dst`, if one was computed.
    #[inline]
    pub fn route_to(&self, dst: NodeId) -> Option<LinkId> {
        match &self.routes {
            Routes::Via(l) => (dst != self.id).then_some(*l),
            Routes::Table(t) => t.get(dst.index()).copied().flatten(),
        }
    }

    /// Current group entry, if the node is on the tree for the group at
    /// slab slot `g`. (Resolve a [`GroupAddr`](crate::addr::GroupAddr) to
    /// its `GroupIdx` via `World::group_idx`.)
    pub(crate) fn group(&self, g: GroupIdx) -> Option<&GroupEntry> {
        self.groups.get(g.index()).and_then(|slot| slot.as_ref())
    }

    /// Mutable group slot access.
    pub(crate) fn group_mut(&mut self, g: GroupIdx) -> Option<&mut GroupEntry> {
        self.groups
            .get_mut(g.index())
            .and_then(|slot| slot.as_mut())
    }

    /// The group's entry, created empty if absent (grows the slab).
    pub(crate) fn group_or_default(&mut self, g: GroupIdx) -> &mut GroupEntry {
        let i = g.index();
        if i >= self.groups.len() {
            self.groups.resize_with(i + 1, || None);
        }
        self.groups[i].get_or_insert_with(GroupEntry::default)
    }

    /// Drop the group's entry (the node left the tree).
    pub(crate) fn group_remove(&mut self, g: GroupIdx) {
        if let Some(slot) = self.groups.get_mut(g.index()) {
            *slot = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::GroupIdx;

    #[test]
    fn on_tree_logic() {
        let mut e = GroupEntry::default();
        assert!(!e.on_tree());
        for interest in [
            Interest::Member(AgentId(1)),
            Interest::Iface(LinkId(4)),
            Interest::Module,
        ] {
            assert!(e.add(interest));
            assert!(!e.add(interest), "duplicate {interest:?} rejected");
            assert!(e.on_tree(), "{interest:?} keeps the node on the tree");
            assert!(e.remove(interest));
            assert!(
                !e.remove(interest),
                "double remove of {interest:?} rejected"
            );
            assert!(!e.on_tree(), "{interest:?} gone");
        }
        assert!(e.add(Interest::Member(AgentId(1))));
        assert_eq!(e.members(), [AgentId(1)]);
    }

    #[test]
    fn node_basics() {
        let mut n = Node::new(NodeId(2));
        assert!(!n.is_host());
        n.local_agents.push(AgentId(0));
        assert!(n.is_host());
        assert!(n.group(GroupIdx(1)).is_none());
        assert!(n.route_to(NodeId(5)).is_none());
    }

    #[test]
    fn group_slab_grows_and_clears() {
        let mut n = Node::new(NodeId(0));
        n.group_or_default(GroupIdx(3)).add(Interest::Module);
        assert_eq!(n.groups.len(), 4);
        assert!(n.group(GroupIdx(3)).unwrap().on_tree());
        assert!(n.group(GroupIdx(2)).is_none(), "other slots stay empty");
        n.group_remove(GroupIdx(3));
        assert!(n.group(GroupIdx(3)).is_none());
        assert_eq!(n.groups.len(), 4, "removal keeps the slab sized");
    }
}
