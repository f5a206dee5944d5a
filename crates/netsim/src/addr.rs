//! Identifier newtypes for simulator entities.
//!
//! All identifiers are dense indices handed out by the simulator at
//! construction time. Newtypes keep them from being mixed up; the inner
//! value is public because scenario code frequently needs to tabulate
//! per-entity results.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $vis:vis $name:ident, $tag:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        $vis struct $name($vis u32);

        impl $name {
            /// The dense index backing this identifier.
            $vis fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// A router or host in the topology.
    pub NodeId,
    "n"
);
id_type!(
    /// One *unidirectional* channel. Duplex links are created as a pair of
    /// `LinkId`s that reference each other (see `Link::reverse`).
    pub LinkId,
    "l"
);
id_type!(
    /// A protocol endpoint attached to a node (sender, receiver, TCP agent…).
    pub AgentId,
    "a"
);
id_type!(
    /// A traffic flow, used for per-flow accounting at monitors and queues.
    pub FlowId,
    "f"
);
id_type!(
    /// The dense slab index of a multicast group, interned by the `World`
    /// the first time a [`GroupAddr`] is registered or joined. All per-node
    /// multicast state is indexed by `GroupIdx`, so the forwarding hot path
    /// never hashes a group address.
    pub(crate) GroupIdx,
    "gi"
);

/// A multicast group address.
///
/// Addresses are plain integers: the paper's observation that addresses are
/// *discoverable* by misbehaving receivers (via tools like MSTAT) is modelled
/// by giving every receiver access to the full group list of its session —
/// secrecy of addresses is explicitly *not* a defence.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupAddr(pub u32);

impl fmt::Debug for GroupAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl fmt::Display for GroupAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_format_with_tags() {
        assert_eq!(format!("{}", NodeId(3)), "n3");
        assert_eq!(format!("{:?}", LinkId(1)), "l1");
        assert_eq!(format!("{}", AgentId(9)), "a9");
        assert_eq!(format!("{}", GroupAddr(224)), "g224");
        assert_eq!(format!("{}", FlowId(0)), "f0");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::BTreeSet;
        let set: BTreeSet<GroupAddr> = [GroupAddr(2), GroupAddr(1)].into_iter().collect();
        assert_eq!(set.iter().next(), Some(&GroupAddr(1)));
        assert_eq!(NodeId(4).index(), 4);
    }
}
