//! The sender shell: slotted transmission, DELTA field stamping and SIGMA
//! key announcements, written once for every session structure.
//!
//! Every slot `s` a [`Sender<K>`]:
//!
//! 1. plans each group's packets evenly across the slot, at the key rule's
//!    per-group rates,
//! 2. has its key rule `K` draw the keys controlling access during slot
//!    `s+2` (paper Figure 4, left), upgrade authorizations included,
//! 3. emits the planned packets, stamping DELTA fields whose components
//!    encode the `s+2` keys,
//! 4. when protected, multicasts the FEC-coded SIGMA special packets
//!    binding each group address to its `s+2` key tuple (paper §3.2.1).
//!
//! The sender transmits *all* groups unconditionally; multicast pruning
//! keeps unsubscribed groups off the network — that, plus SIGMA refusing
//! grafts without keys, is what protects the bottleneck.
//!
//! The paper's §3.1.2 point holds on this side too: DELTA changes only the
//! key rule from one session structure to the next. A [`KeyRule`] supplies
//! the rates, the draws, the SIGMA tuples and each packet's fields; the
//! three instantiations are [`FlidSender`] (cumulative layers),
//! [`crate::ReplicatedSender`] and [`crate::ThresholdSender`], the names
//! `Sim::agent_as` downcasts to. Dispatch is static.

use crate::config::{FlidConfig, FEC_REPEAT};
use mcc_delta::{ComponentStream, DeltaFields, Key, LayeredKeySchedule, UpgradeMask, KEY_LEAD};
use mcc_netsim::prelude::*;
use mcc_sigma::{build_announcement, layered_tuples, KeyTuple, ProtectedData};
use mcc_simcore::{DetRng, SimDuration, SimTime};
use std::collections::VecDeque;
use std::fmt::Debug;

const TICK: u64 = 0;
const EMIT: u64 = 1;

/// Overhead counters backing the paper's Figure 9 measurements.
#[derive(Clone, Debug, Default)]
pub struct OverheadCounters {
    /// Data bits transmitted (wire size of data packets).
    pub(crate) data_bits: u64,
    /// DELTA field bits (b per component + b per decrease field).
    pub(crate) delta_bits: u64,
    /// SIGMA pre-FEC information bits.
    pub(crate) sigma_info_bits: u64,
    /// SIGMA post-FEC payload bits.
    pub(crate) sigma_coded_bits: u64,
    /// SIGMA special-packet header bits.
    pub(crate) sigma_header_bits: u64,
    /// Upgrade authorizations issued per group (index `g-1`; the paper's
    /// `f_g` is this divided by `slots`).
    pub(crate) upgrades_per_group: Vec<u64>,
    /// Slots elapsed.
    pub(crate) slots: u64,
}

impl OverheadCounters {
    /// Measured DELTA overhead ratio (DELTA bits / data bits).
    pub fn delta_ratio(&self) -> f64 {
        if self.data_bits == 0 {
            0.0
        } else {
            self.delta_bits as f64 / self.data_bits as f64
        }
    }

    /// Measured SIGMA overhead ratio ((coded + headers) / data bits).
    pub fn sigma_ratio(&self) -> f64 {
        if self.data_bits == 0 {
            0.0
        } else {
            (self.sigma_coded_bits + self.sigma_header_bits) as f64 / self.data_bits as f64
        }
    }

    /// Measured FEC expansion `z`.
    pub fn fec_expansion(&self) -> f64 {
        if self.sigma_info_bits == 0 {
            1.0
        } else {
            self.sigma_coded_bits as f64 / self.sigma_info_bits as f64
        }
    }

    /// Measured `Σ f_g` (average upgrade authorizations per slot).
    pub fn sum_fg(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.upgrades_per_group.iter().sum::<u64>() as f64 / self.slots as f64
        }
    }

    /// Measured special-packet header bits per slot (`h`).
    pub fn header_bits_per_slot(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.sigma_header_bits as f64 / self.slots as f64
        }
    }
}

/// One data packet of a slot's pacing plan.
#[derive(Clone, Copy, Debug)]
pub struct Paced {
    /// Emission instant.
    pub(crate) at: SimTime,
    /// 1-based group.
    pub(crate) group: u32,
    /// Sequence number within the group's slot.
    pub(crate) seq: u32,
    /// The group's closing packet of the slot.
    pub(crate) last: bool,
    /// Packets the group sends this slot.
    pub(crate) count: u32,
}

impl Paced {
    /// The packet's DELTA header for slot `slot`; the group's packet
    /// count rides on its closing packet only.
    fn fields(
        &self,
        slot: u64,
        component: Key,
        decrease: Option<Key>,
        upgrades: UpgradeMask,
    ) -> DeltaFields {
        DeltaFields {
            slot,
            group: self.group,
            seq_in_slot: self.seq,
            last_in_slot: self.last,
            count_in_slot: if self.last { self.count } else { 0 },
            component,
            decrease,
            upgrades,
        }
    }
}

/// Plan one slot's data emissions for every group, in `(group, seq)`
/// order: top up each group's fractional `credits` at `rate(cfg, g)`
/// bit/s (carrying remainders across slots keeps long-run rates exact),
/// send at least `min_count` packets (the closing component and the
/// decrease field ride on packets), and space them evenly with a
/// per-group phase so groups interleave. Draws nothing from the RNG.
fn pace_slot(
    cfg: &FlidConfig,
    credits: &mut [f64],
    slot_start: SimTime,
    rate: fn(&FlidConfig, u32) -> f64,
    min_count: u32,
) -> Vec<Paced> {
    let n = cfg.n();
    let slot_secs = cfg.slot.as_secs_f64();
    let mut plan = Vec::new();
    for g in 1..=n {
        let gi = (g - 1) as usize;
        credits[gi] += rate(cfg, g) * slot_secs / cfg.packet_bits as f64;
        let count = (credits[gi].floor() as u32).max(min_count);
        credits[gi] -= count as f64;
        for p in 0..count {
            let frac = (p as f64 + (g as f64) / (n as f64 + 1.0)) / count as f64;
            plan.push(Paced {
                at: slot_start + SimDuration::from_secs_f64(slot_secs * frac.min(0.999)),
                group: g,
                seq: p,
                last: p + 1 == count,
                count,
            });
        }
    }
    plan
}

/// The key rule of one session structure — everything a sender does that
/// is *not* slot timing, pacing, announcement or packet assembly.
pub trait KeyRule: Debug + Send + 'static {
    /// One slot's keys: those controlling access during slot `s+2`,
    /// carried by the packets of slot `s`.
    type Keys: Debug + Send;

    /// Fewest packets a group sends per slot.
    const MIN_PACKETS: u32;

    /// Whether the SIGMA announcement is spread across the slot like the
    /// data (FLID) or sent whole at slot start (the single-group senders).
    /// Nothing in the protocol asks for the difference; it is kept because
    /// unifying it moves the replicated and threshold goldens.
    const PACED_ANNOUNCEMENT: bool;

    /// Group `g`'s transmission rate in bit/s.
    fn rate(cfg: &FlidConfig, g: u32) -> f64;

    /// Draw the keys for slot `s+2`; group `g` sends `counts[g-1]` packets
    /// in slot `s`.
    fn draw(&self, cfg: &FlidConfig, rng: &mut DetRng, counts: &[u32]) -> Self::Keys;

    /// The upgrade authorizations in force for `keys`.
    fn upgrades(keys: &Self::Keys) -> UpgradeMask;

    /// The SIGMA tuples announcing `keys`, in group order.
    fn tuples(keys: &Self::Keys, groups: &[GroupAddr]) -> Vec<(GroupAddr, KeyTuple)>;

    /// The component and decrease fields of `packet`.
    fn stamp(keys: &mut Self::Keys, rng: &mut DetRng, packet: &Paced) -> (Key, Option<Key>);
}

/// The key rule over a [`LayeredKeySchedule`]: cumulative layers
/// (`Layers<false>`, FLID-DL / FLID-DS) or replicated groups
/// (`Layers<true>`, paper Figure 5). Both draw the upgrade authorizations
/// first, then the schedule, then one component nonce per non-closing
/// packet as it leaves.
#[derive(Debug)]
pub struct Layers<const REPLICATED: bool>;

/// One slot of a [`LayeredKeySchedule`] with the component streams that
/// emit it, one per group.
#[derive(Debug)]
pub struct StreamedSchedule {
    sched: LayeredKeySchedule,
    streams: Vec<ComponentStream>,
}

impl<const REPLICATED: bool> KeyRule for Layers<REPLICATED> {
    type Keys = StreamedSchedule;
    const MIN_PACKETS: u32 = 1;
    const PACED_ANNOUNCEMENT: bool = !REPLICATED;

    /// Layered groups carry increments; replicated groups carry the whole
    /// content, so group `g` runs at the cumulative rate of level `g`.
    fn rate(cfg: &FlidConfig, g: u32) -> f64 {
        if REPLICATED {
            cfg.cumulative_rate(g)
        } else {
            cfg.incremental_rate(g)
        }
    }

    fn draw(&self, cfg: &FlidConfig, rng: &mut DetRng, _counts: &[u32]) -> StreamedSchedule {
        let authorized: Vec<u32> = (2..=cfg.n())
            .filter(|&g| rng.chance(cfg.upgrade_probability(g)))
            .collect();
        let mask = UpgradeMask::from_groups(&authorized);
        let sched = if REPLICATED {
            LayeredKeySchedule::replicated(rng, cfg.n(), mask)
        } else {
            LayeredKeySchedule::generate(rng, cfg.n(), mask)
        };
        let streams = (1..=cfg.n()).map(|g| sched.component_stream(g)).collect();
        StreamedSchedule { sched, streams }
    }

    fn upgrades(keys: &StreamedSchedule) -> UpgradeMask {
        keys.sched.upgrades
    }

    fn tuples(keys: &StreamedSchedule, groups: &[GroupAddr]) -> Vec<(GroupAddr, KeyTuple)> {
        layered_tuples(&keys.sched, groups)
    }

    fn stamp(keys: &mut StreamedSchedule, rng: &mut DetRng, packet: &Paced) -> (Key, Option<Key>) {
        let stream = &mut keys.streams[(packet.group - 1) as usize];
        (
            stream.next(rng, packet.last),
            keys.sched.decrease_field(packet.group),
        )
    }
}

/// A packet emission scheduled within the current slot.
#[derive(Debug)]
enum Emission {
    Data(Paced),
    Special(Packet),
}

/// A multicast sender agent: the shell around a [`KeyRule`].
#[derive(Debug)]
pub struct Sender<K: KeyRule> {
    /// Session configuration.
    pub(crate) cfg: FlidConfig,
    rule: K,
    /// Fractional packet credits per group (carries remainders across
    /// slots so long-run group rates are exact).
    credits: Vec<f64>,
    /// The keys the current slot's packets carry (those of slot `s+2`).
    keys: Option<K::Keys>,
    /// Pending emissions of the current slot, time-ordered.
    pending: VecDeque<(SimTime, Emission)>,
    /// Counters for Figure 9.
    pub overhead: OverheadCounters,
}

/// The FLID-DL / FLID-DS sender agent.
pub type FlidSender = Sender<Layers<false>>;

impl FlidSender {
    /// Build a sender for `cfg`.
    pub fn new(cfg: FlidConfig) -> Self {
        Sender::build(cfg, Layers)
    }
}

impl<K: KeyRule> Sender<K> {
    /// A sender for `cfg` stamping `rule`'s keys.
    pub(crate) fn build(cfg: FlidConfig, rule: K) -> Self {
        let n = cfg.n() as usize;
        Sender {
            rule,
            credits: vec![0.0; n],
            keys: None,
            pending: VecDeque::new(),
            overhead: OverheadCounters {
                upgrades_per_group: vec![0; n],
                ..OverheadCounters::default()
            },
            cfg,
        }
    }

    fn slot_of(&self, now: SimTime) -> u64 {
        now.as_nanos() / self.cfg.slot.as_nanos()
    }

    fn begin_slot(&mut self, ctx: &mut Ctx) {
        let s = self.slot_of(ctx.now());
        let slot_start = SimTime::from_nanos(s * self.cfg.slot.as_nanos());

        // 1. This slot's data plan. Pacing draws nothing, so planning
        // before the keys leaves the RNG order alone and gives the key
        // rule the packet counts (Shamir splits by them).
        let paced = pace_slot(
            &self.cfg,
            &mut self.credits,
            slot_start,
            K::rate,
            K::MIN_PACKETS,
        );
        let mut counts = vec![0; self.credits.len()];
        for e in &paced {
            counts[(e.group - 1) as usize] = e.count;
        }

        // 2. The keys for slot s+2, which this slot's packets carry.
        let keys = self.rule.draw(&self.cfg, ctx.rng(), &counts);
        let upgrades = K::upgrades(&keys);
        for (gi, n) in self.overhead.upgrades_per_group.iter_mut().enumerate() {
            *n += u64::from(upgrades.authorized(gi as u32 + 1));
        }
        let mut plan: Vec<(SimTime, Emission)> = paced
            .into_iter()
            .map(|e| (e.at, Emission::Data(e)))
            .collect();

        // 3. SIGMA announcement for s+2.
        let mut at_start = Vec::new();
        if self.cfg.protected {
            let ann = build_announcement(
                s + KEY_LEAD,
                K::tuples(&keys, &self.cfg.groups),
                self.cfg.control_group,
                ctx.agent,
                self.cfg.flow,
                FEC_REPEAT,
            );
            self.overhead.sigma_info_bits += ann.accounting.info_bits;
            self.overhead.sigma_coded_bits += ann.accounting.coded_bits;
            self.overhead.sigma_header_bits += ann.accounting.header_bits;
            if K::PACED_ANNOUNCEMENT {
                let slot_secs = self.cfg.slot.as_secs_f64();
                let k = ann.packets.len();
                for (i, pkt) in ann.packets.into_iter().enumerate() {
                    let frac = (i as f64 + 0.5) / k as f64;
                    let at = slot_start + SimDuration::from_secs_f64(slot_secs * frac);
                    plan.push((at, Emission::Special(pkt)));
                }
            } else {
                at_start = ann.packets;
            }
        }
        self.keys = Some(keys);
        self.overhead.slots += 1;

        plan.sort_by_key(|(t, _)| *t);
        for (t, _) in &plan {
            ctx.timer_at(*t, EMIT);
        }
        self.pending = plan.into();
        for pkt in at_start {
            ctx.send(pkt);
        }

        ctx.timer_at(slot_start + self.cfg.slot, TICK);
    }

    fn emit_due(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        let s = self.slot_of(now);
        while let Some((t, _)) = self.pending.front() {
            if *t > now {
                break;
            }
            let (_, emission) = self.pending.pop_front().expect("peeked");
            match emission {
                Emission::Data(e) => {
                    let keys = self.keys.as_mut().expect("keys drawn at slot start");
                    let (component, decrease) = K::stamp(keys, ctx.rng(), &e);
                    let fields = e.fields(s, component, decrease, K::upgrades(keys));
                    let mut pkt = Packet::app(
                        self.cfg.packet_bits,
                        self.cfg.flow,
                        ctx.agent,
                        Dest::Group(self.cfg.groups[(e.group - 1) as usize]),
                        ProtectedData::new(fields),
                    );
                    if self.cfg.ecn {
                        pkt = pkt.ecn_capable();
                    }
                    self.overhead.data_bits += self.cfg.packet_bits;
                    if self.cfg.protected {
                        let b = mcc_delta::PAPER_KEY_BITS as u64;
                        self.overhead.delta_bits += b + if decrease.is_some() { b } else { 0 };
                    }
                    ctx.send(pkt);
                }
                Emission::Special(pkt) => ctx.send(pkt),
            }
        }
    }
}

impl<K: KeyRule> Agent for Sender<K> {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.begin_slot(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        match token {
            TICK => self.begin_slot(ctx),
            EMIT => self.emit_due(ctx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ReplicatedSender, ThresholdSender};
    use mcc_simcore::SimDuration;
    use std::collections::BTreeMap;

    fn cfg(n: u32, protected: bool) -> FlidConfig {
        FlidConfig::paper(
            (1..=n).map(GroupAddr).collect(),
            GroupAddr(100),
            FlowId(1),
            protected,
        )
    }

    /// One sender instantiation and what it promises.
    struct Case {
        name: &'static str,
        sender: fn(FlidConfig) -> Box<dyn Agent>,
        /// The rate each group must run at.
        rate: fn(&FlidConfig, u32) -> f64,
        /// Fewest packets per group per slot.
        min_packets: u32,
        overhead: fn(&Sim, AgentId) -> OverheadCounters,
    }

    fn overhead<K: KeyRule>(sim: &Sim, id: AgentId) -> OverheadCounters {
        sim.agent_as::<Sender<K>>(id).unwrap().overhead.clone()
    }

    fn instantiations() -> [Case; 3] {
        [
            Case {
                name: "layered",
                sender: |c| Box::new(FlidSender::new(c)),
                rate: FlidConfig::incremental_rate,
                min_packets: 1,
                overhead: overhead::<Layers<false>>,
            },
            Case {
                name: "replicated",
                sender: |c| Box::new(ReplicatedSender::new(c)),
                rate: FlidConfig::cumulative_rate,
                min_packets: 1,
                overhead: overhead::<Layers<true>>,
            },
            Case {
                name: "threshold",
                sender: |c| Box::new(ThresholdSender::new(c)),
                rate: FlidConfig::cumulative_rate,
                min_packets: 2,
                overhead: overhead::<crate::threshold_proto::Shares>,
            },
        ]
    }

    /// Joins every given group at start, then collects everything they
    /// carry.
    #[derive(Debug)]
    struct Tap {
        join: Vec<GroupAddr>,
        data: Vec<DeltaFields>,
        specials: u64,
    }
    impl Agent for Tap {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for g in &self.join {
                ctx.join_group(*g);
            }
        }
        fn on_packet(&mut self, _ctx: &mut Ctx, pkt: Packet) {
            if let Some(fields) = ProtectedData::read(&pkt) {
                self.data.push(fields);
            } else if pkt.body_as::<mcc_sigma::fec::KeyChunk>().is_some() {
                self.specials += 1;
            }
        }
    }

    /// `case`'s sender on node 0 and a tap joined to every group on the
    /// last node, over a 100 Mbps chain through `hops` routers (nodes
    /// `1..=hops`, each with a SIGMA edge module). The sender starts
    /// 100 ms in so the grafts are in place. Returns the sim, the tap and
    /// the sender.
    fn run(case: &Case, protected: bool, hops: usize, secs: u64) -> (Sim, AgentId, AgentId) {
        use mcc_sigma::{SigmaConfig, SigmaEdgeModule};
        let mut sim = Sim::new(5, SimDuration::from_secs(1));
        let nodes: Vec<NodeId> = (0..hops + 2).map(|_| sim.add_node()).collect();
        for w in nodes.windows(2) {
            sim.add_duplex_link(
                w[0],
                w[1],
                100_000_000,
                SimDuration::from_millis(1),
                Queue::drop_tail(10_000_000),
                Queue::drop_tail(10_000_000),
            );
        }
        let c = cfg(4, protected);
        for &r in &nodes[1..=hops] {
            let sigma = SigmaEdgeModule::new(SigmaConfig::new(c.slot));
            sim.set_edge_module(r, Box::new(sigma));
        }
        let mut join = c.groups.clone();
        join.push(c.control_group);
        for g in &join {
            sim.register_group(*g, nodes[0]);
        }
        let tap = Tap {
            join,
            data: Vec::new(),
            specials: 0,
        };
        let tap = sim.add_agent(nodes[hops + 1], Box::new(tap), SimTime::ZERO);
        let sender = sim.add_agent(nodes[0], (case.sender)(c), SimTime::from_millis(100));
        sim.finalize();
        sim.run_until(SimTime::from_secs(secs));
        (sim, tap, sender)
    }

    fn tap(sim: &Sim, id: AgentId) -> &Tap {
        sim.agent_as::<Tap>(id).unwrap()
    }

    #[test]
    fn per_group_rates_match_config() {
        let c = cfg(4, false);
        for case in instantiations() {
            let (sim, id, _) = run(&case, false, 0, 10);
            for g in 1..=c.n() {
                let packets = tap(&sim, id).data.iter().filter(|d| d.group == g).count() as u64;
                let rate = (packets * c.packet_bits) as f64 / 10.0;
                let want = (case.rate)(&c, g);
                let err = (rate - want).abs() / want;
                assert!(err < 0.15, "{}: group {g} rate {rate} vs {want}", case.name);
            }
        }
    }

    #[test]
    fn every_group_has_exactly_one_last_packet_per_slot() {
        for case in instantiations() {
            let name = case.name;
            let (sim, id, _) = run(&case, false, 0, 5);
            let data = &tap(&sim, id).data;
            let mut lasts: BTreeMap<(u64, u32), u32> = BTreeMap::new();
            let mut counts: BTreeMap<(u64, u32), u32> = BTreeMap::new();
            for d in data {
                *counts.entry((d.slot, d.group)).or_insert(0) += 1;
                if d.last_in_slot {
                    *lasts.entry((d.slot, d.group)).or_insert(0) += 1;
                }
            }
            // Skip the final (possibly truncated) slot.
            let max_slot = counts.keys().map(|&(s, _)| s).max().unwrap();
            for (&(slot, group), &n_last) in &lasts {
                if slot == max_slot {
                    continue;
                }
                assert_eq!(n_last, 1, "{name}: slot {slot} group {group}");
                // And the advertised count matches what was sent.
                let d = data
                    .iter()
                    .find(|d| d.slot == slot && d.group == group && d.last_in_slot)
                    .unwrap();
                assert_eq!(d.count_in_slot, counts[&(slot, group)], "{name}");
            }
            for (&(slot, group), &cnt) in &counts {
                if slot == max_slot {
                    continue;
                }
                assert!(
                    cnt >= case.min_packets,
                    "{name}: slot {slot} group {group} sent {cnt} < {} packets",
                    case.min_packets
                );
            }
        }
    }

    #[test]
    fn receiver_can_rebuild_keys_from_the_stream() {
        use mcc_delta::{decide_layered, Eligibility, SlotObservation};
        let [layered, ..] = instantiations();
        let (sim, id, _) = run(&layered, true, 0, 4);
        // Rebuild slot 2's observation from the wire.
        let mut obs = SlotObservation::new(2, 4);
        for d in tap(&sim, id).data.iter().filter(|d| d.slot == 2) {
            obs.observe(d);
        }
        match decide_layered(&obs, 4, 4) {
            Eligibility::Subscribe { level, keys } => {
                assert_eq!(level, 4, "clean receiver keeps everything");
                assert_eq!(keys.len(), 4);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn protected_mode_counts_overhead() {
        let [layered, ..] = instantiations();
        let (sim, _, sender) = run(&layered, true, 0, 10);
        let o = (layered.overhead)(&sim, sender);
        assert!(o.data_bits > 0);
        assert!(
            o.delta_ratio() > 0.005 && o.delta_ratio() < 0.012,
            "{}",
            o.delta_ratio()
        );
        assert!((o.fec_expansion() - 2.0).abs() < 1e-9);
        assert!(o.sigma_ratio() > 0.0);
        assert!(o.sum_fg() > 0.0);
    }

    #[test]
    fn specials_reach_edge_routers_but_never_hosts() {
        use mcc_sigma::SigmaEdgeModule;
        for case in instantiations() {
            // h1 — r — h2 with a SIGMA module on r.
            let (sim, id, _) = run(&case, true, 1, 5);
            let module = sim.edge_as::<SigmaEdgeModule>(NodeId(1)).unwrap();
            let name = case.name;
            assert!(
                module.stats.specials > 0,
                "{name}: edge intercepts specials"
            );
            assert_eq!(tap(&sim, id).specials, 0, "{name}: specials reached a host");
        }
    }

    #[test]
    fn unprotected_mode_sends_no_specials() {
        for case in instantiations() {
            let (sim, id, sender) = run(&case, false, 0, 5);
            let name = case.name;
            assert_eq!(tap(&sim, id).specials, 0, "{name}");
            let o = (case.overhead)(&sim, sender);
            assert_eq!(o.sigma_coded_bits, 0, "{name}");
            assert_eq!(o.delta_bits, 0, "{name}");
            assert!(o.data_bits > 0, "{name}");
        }
    }
}
