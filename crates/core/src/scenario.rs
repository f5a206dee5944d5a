//! The declarative scenario layer: typed protocol variants, unit-suffix
//! literals and fluent builders over [`crate::topology`].
//!
//! A scenario is *data*, not a function signature. Instead of threading
//! positional `bool`/`u64` arguments through bespoke free functions, the
//! paper's evaluation topologies read like the prose that describes them:
//!
//! ```
//! use mcc_attack::AttackPlan;
//! use mcc_core::{McastSessionSpec, ReceiverSpec, Scenario, Units, Variant};
//!
//! // Figures 1/7: two multicast + two TCP sessions on a 1 Mbps
//! // bottleneck; the first multicast receiver inflates at t = 50 s.
//! let attacker = ReceiverSpec::new().adversary(AttackPlan::inflate_at(50.secs()));
//! let spec = Scenario::dumbbell(1.mbps())
//!     .seed(1)
//!     .session(McastSessionSpec::new(Variant::FlidDs).receiver(attacker))
//!     .sessions(1, Variant::FlidDs)
//!     .tcp(2)
//!     .topology_spec();
//! assert_eq!(spec.mcast.len(), 2);
//! ```
//!
//! [`Variant`] replaces every `protected: bool` in the experiment
//! surface: `Variant::FlidDl` is the original (attackable) protocol,
//! `Variant::FlidDs` the DELTA + SIGMA hardened one.

use crate::topology::{
    BuiltTopology, CbrSpec, McastSessionSpec, ReceiverSpec, Topology, TopologySpec,
};
use mcc_attack::AttackPlan;
use mcc_simcore::{SimDuration, SimTime};

/// Which congestion-control protocol (and defence level) a multicast
/// session runs — the *defense* axis of the robustness matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// FLID-DL: the original protocol, vulnerable to inflated
    /// subscription (paper §2).
    FlidDl,
    /// FLID-DS: hardened with DELTA key distribution and SIGMA edge
    /// routers (paper §3).
    FlidDs,
    /// FLID-DS with the interface-specific collusion guard installed for
    /// this session's groups (paper §4.2).
    FlidDsGuard,
    /// The replicated (destination-set-grouping) protocol protected by
    /// the Figure-5 DELTA instantiation (paper §3.1.2).
    Replicated,
    /// The RLM-style loss-threshold protocol protected by Shamir-share
    /// key distribution (paper §3.1.2).
    Threshold,
}

impl Variant {
    /// Whether the edge router enforces subscriptions (SIGMA installed).
    pub(crate) fn protected(self) -> bool {
        !matches!(self, Variant::FlidDl)
    }

    /// The session's group count (paper §3.1.2: a session structure fixes
    /// its own ladder). The layered FLID variants run the paper's 10
    /// groups. The replicated and threshold ladders carry each group's
    /// *full* rate, so ten groups would outgrow the bottleneck; six
    /// (≤ 759 kbps) fit.
    pub(crate) fn groups(self) -> u32 {
        match self {
            Variant::FlidDl | Variant::FlidDs | Variant::FlidDsGuard => 10,
            Variant::Replicated | Variant::Threshold => 6,
        }
    }

    /// The plot/matrix label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Variant::FlidDl => "FLID-DL",
            Variant::FlidDs => "FLID-DS",
            Variant::FlidDsGuard => "FLID-DS+guard",
            Variant::Replicated => "Replicated",
            Variant::Threshold => "Threshold",
        }
    }

    /// The two paper variants, DL first — the order every side-by-side
    /// figure uses.
    pub(crate) const BOTH: [Variant; 2] = [Variant::FlidDl, Variant::FlidDs];

    /// The defense column set of the robustness matrix: unprotected
    /// FLID-DL, then every hardened variant.
    pub const DEFENSES: [Variant; 5] = [
        Variant::FlidDl,
        Variant::FlidDs,
        Variant::FlidDsGuard,
        Variant::Replicated,
        Variant::Threshold,
    ];
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Unit suffixes for scenario literals: `1.mbps()`, `250.kbps()`,
/// `50.secs()`, `20.ms()`.
pub trait Units {
    /// Megabit/s as bit/s.
    fn mbps(self) -> u64;
    /// Kilobit/s as bit/s.
    fn kbps(self) -> u64;
    /// Seconds as a [`SimTime`] instant.
    fn secs(self) -> SimTime;
    /// Seconds as a [`SimDuration`] span.
    fn secs_dur(self) -> SimDuration;
    /// Milliseconds as a [`SimDuration`].
    fn ms(self) -> SimDuration;
}

impl Units for u64 {
    fn mbps(self) -> u64 {
        self * 1_000_000
    }
    fn kbps(self) -> u64 {
        self * 1_000
    }
    fn secs(self) -> SimTime {
        SimTime::from_secs(self)
    }
    fn secs_dur(self) -> SimDuration {
        SimDuration::from_secs(self)
    }
    fn ms(self) -> SimDuration {
        SimDuration::from_millis(self)
    }
}

// ---------------------------------------------------------------------------
// Fluent builders on the spec types
// ---------------------------------------------------------------------------

impl ReceiverSpec {
    /// An honest receiver joining at t = 0 with the paper's 10 ms access
    /// link.
    pub fn new() -> ReceiverSpec {
        ReceiverSpec::default()
    }

    /// Join the session at `at`.
    pub fn join_at(mut self, at: SimTime) -> ReceiverSpec {
        self.join_at = at;
        self
    }

    /// Override the access-link propagation delay (the RTT experiment).
    pub fn access_delay(mut self, delay: SimDuration) -> ReceiverSpec {
        self.access_delay = delay;
        self
    }

    /// Leave the session at `at`, dropping every subscribed layer (the
    /// workload engine's mid-run departure).
    pub fn leave_at(mut self, at: SimTime) -> ReceiverSpec {
        self.leave_at = at;
        self
    }

    /// Misbehave: run `plan`'s adversary strategy
    /// ([`AttackPlan::inflate_at`] is the paper's §4.2 attacker).
    pub fn adversary(mut self, plan: AttackPlan) -> ReceiverSpec {
        self.adversary = plan;
        self
    }

    /// Let this receiver stand for `n` synchronized receivers behind one
    /// edge interface: one agent, weight `n` in the session's
    /// count-weighted metrics, so state and events stay O(1) in `n`.
    pub fn cohort(mut self, n: u64) -> ReceiverSpec {
        assert!(n >= 1, "cohort multiplier must be at least 1");
        self.cohort = n;
        self
    }
}

impl McastSessionSpec {
    /// An empty session of `variant`, on the group ladder its variant
    /// fixes; add receivers with [`McastSessionSpec::receiver`].
    pub fn new(variant: Variant) -> McastSessionSpec {
        McastSessionSpec {
            variant,
            receivers: Vec::new(),
        }
    }

    /// Add one receiver.
    pub fn receiver(mut self, r: ReceiverSpec) -> McastSessionSpec {
        self.receivers.push(r);
        self
    }

    /// Add many receivers.
    pub fn with_receivers(
        mut self,
        rs: impl IntoIterator<Item = ReceiverSpec>,
    ) -> McastSessionSpec {
        self.receivers.extend(rs);
        self
    }
}

impl CbrSpec {
    /// A steady CBR of `rate_bps` running for the whole experiment.
    pub(crate) fn steady(rate_bps: u64) -> CbrSpec {
        CbrSpec {
            rate_bps,
            on_off: None,
            start: SimTime::ZERO,
            stop: SimTime::MAX,
        }
    }

    /// Restrict the source to the `[start, stop]` window (the Figure-8e
    /// burst).
    pub(crate) fn window(mut self, start: SimTime, stop: SimTime) -> CbrSpec {
        self.start = start;
        self.stop = stop;
        self
    }

    /// Chop the source into `(on, off)` periods (the Figure-8d
    /// background).
    pub(crate) fn on_off(mut self, on: SimDuration, off: SimDuration) -> CbrSpec {
        self.on_off = Some((on, off));
        self
    }
}

// ---------------------------------------------------------------------------
// Scenario: the top-level builder
// ---------------------------------------------------------------------------

/// Fluent builder for the paper's evaluation scenarios, over any
/// [`Topology`]: a [`TopologySpec`] and nothing else, so every call says
/// everything it adds.
#[derive(Clone, Debug)]
pub struct Scenario {
    spec: TopologySpec,
}

impl Scenario {
    /// A scenario over an arbitrary [`Topology`] with the §5.1 link
    /// defaults (20 ms bottlenecks, 10 ms side links, 2×BDP buffers).
    pub(crate) fn topology(topology: Topology, bottleneck_bps: u64) -> Scenario {
        Scenario {
            spec: TopologySpec::new(topology, 0, bottleneck_bps),
        }
    }

    /// A dumbbell with the given bottleneck capacity and the §5.1
    /// defaults (20 ms bottleneck, 10 ms side links, 2×BDP buffers).
    pub fn dumbbell(bottleneck_bps: u64) -> Scenario {
        Scenario::topology(Topology::Dumbbell, bottleneck_bps)
    }

    /// A parking lot of `bottlenecks` chained bottleneck links.
    pub fn parking_lot(bottlenecks: usize, bottleneck_bps: u64) -> Scenario {
        Scenario::topology(
            Topology::ParkingLot {
                bottlenecks,
                per_hop_cbr: None,
            },
            bottleneck_bps,
        )
    }

    /// A balanced `fanout`-ary multicast tree of the given `depth`;
    /// receivers attach at the leaves.
    pub(crate) fn balanced_tree(depth: u32, fanout: u32, bottleneck_bps: u64) -> Scenario {
        Scenario::topology(Topology::BalancedTree { depth, fanout }, bottleneck_bps)
    }

    /// Parking lot only: run a CBR of `rate_bps` across each hop
    /// (entering at the hop's upstream router, leaving right after it).
    pub fn per_hop_cbr(mut self, rate_bps: u64) -> Scenario {
        match &mut self.spec.topology {
            Topology::ParkingLot { per_hop_cbr, .. } => *per_hop_cbr = Some(rate_bps),
            other => panic!("per_hop_cbr only applies to a parking lot, not {other:?}"),
        }
        self
    }

    /// The scenario seed (fully determines the run).
    pub fn seed(mut self, seed: u64) -> Scenario {
        self.spec.seed = seed;
        self
    }

    /// Override the bottleneck propagation delay.
    pub(crate) fn bottleneck_delay(mut self, delay: SimDuration) -> Scenario {
        self.spec.bottleneck_delay = delay;
        self
    }

    /// Add `n` honest single-receiver sessions of `variant`.
    pub fn sessions(mut self, n: u32, variant: Variant) -> Scenario {
        self.spec
            .mcast
            .extend((0..n).map(|_| McastSessionSpec::honest(variant, 1)));
        self
    }

    /// Add one fully specified session.
    pub fn session(mut self, session: McastSessionSpec) -> Scenario {
        self.spec.mcast.push(session);
        self
    }

    /// Add `n` TCP Reno cross-traffic sessions.
    pub fn tcp(mut self, n: usize) -> Scenario {
        self.spec.tcp = n;
        self
    }

    /// Add a CBR background.
    pub(crate) fn cbr(mut self, cbr: CbrSpec) -> Scenario {
        self.spec.cbr = Some(cbr);
        self
    }

    /// Overlay an event-driven membership workload (see
    /// [`crate::workload`]): churn, flash crowds, heterogeneous access
    /// links and background mixes, expanded deterministically from the
    /// scenario seed at build time.
    pub fn workload(mut self, w: crate::workload::WorkloadSpec) -> Scenario {
        self.spec.workload = Some(w);
        self
    }

    /// The assembled [`TopologySpec`].
    pub fn topology_spec(self) -> TopologySpec {
        self.spec
    }

    /// Build the simulation (the dumbbell's edge router and bottleneck
    /// link are `attach[0]` and `bottlenecks[0]`).
    pub fn build(self) -> BuiltTopology {
        self.spec.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_read_like_the_paper() {
        assert_eq!(1.mbps(), 1_000_000);
        assert_eq!(250.kbps(), 250_000);
        assert_eq!(50.secs(), SimTime::from_secs(50));
        assert_eq!(20.ms(), SimDuration::from_millis(20));
    }

    #[test]
    fn variant_replaces_the_protected_bool() {
        assert!(!Variant::FlidDl.protected());
        assert!(Variant::FlidDs.protected());
        assert_eq!(Variant::FlidDs.label(), "FLID-DS");
        assert_eq!(Variant::BOTH[0], Variant::FlidDl);
    }

    #[test]
    fn builder_assembles_the_figure1_topology() {
        let attacker = ReceiverSpec::new().adversary(AttackPlan::inflate_at(100.secs()));
        let spec = Scenario::dumbbell(1.mbps())
            .seed(1)
            .session(McastSessionSpec::new(Variant::FlidDl).receiver(attacker))
            .sessions(1, Variant::FlidDl)
            .tcp(2)
            .topology_spec();
        assert_eq!(spec.seed, 1);
        assert_eq!(spec.bottleneck_bps, 1_000_000);
        assert_eq!(spec.mcast.len(), 2);
        assert_eq!(spec.tcp, 2);
        // The attacker is session 0.
        assert_eq!(spec.mcast[0].variant, Variant::FlidDl);
        assert_eq!(
            spec.mcast[0].receivers[0].adversary.label(),
            "inflate+key_guess(10)@100s"
        );
        // The honest session is untouched.
        assert_eq!(spec.mcast[1].receivers[0].adversary.label(), "honest");
    }

    #[test]
    fn session_and_receiver_builders_cover_the_sweeps() {
        let s = McastSessionSpec::new(Variant::FlidDs)
            .receiver(ReceiverSpec::new().join_at(10.secs()))
            .receiver(ReceiverSpec::new().access_delay(95.ms()));
        assert_eq!(s.receivers.len(), 2);
        assert_eq!(s.receivers[0].join_at, SimTime::from_secs(10));
        assert_eq!(s.receivers[1].access_delay, SimDuration::from_millis(95));

        let c = CbrSpec::steady(800_000)
            .window(45.secs(), 75.secs())
            .on_off(5.secs_dur(), 5.secs_dur());
        assert_eq!(c.rate_bps, 800_000);
        assert_eq!(c.start, SimTime::from_secs(45));
        assert!(c.on_off.is_some());
    }
}
