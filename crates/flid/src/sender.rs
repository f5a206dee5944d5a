//! The FLID sender: slotted layered transmission, DELTA field generation,
//! SIGMA key announcements.
//!
//! Every slot `s` the sender:
//!
//! 1. draws the upgrade authorizations for slot `s+2` and precomputes the
//!    DELTA key schedule those authorizations imply (paper Figure 4, left),
//! 2. emits each group's packets evenly across the slot, stamping DELTA
//!    fields whose components encode the `s+2` keys (the XOR telescope
//!    closes on the group's last packet of the slot),
//! 3. when protected, multicasts the FEC-coded SIGMA special packets
//!    binding each group address to its `s+2` key tuple (paper §3.2.1),
//!    spread across the slot.
//!
//! The sender transmits *all* groups unconditionally; multicast pruning
//! keeps unsubscribed groups off the network — that, plus SIGMA refusing
//! grafts without keys, is what protects the bottleneck.

use crate::config::FlidConfig;
use mcc_delta::{DeltaFields, Key, LayeredKeySchedule, UpgradeMask};
use mcc_netsim::prelude::*;
use mcc_sigma::{build_announcement, layered_tuples, ProtectedData};
use mcc_simcore::{SimDuration, SimTime};
use std::collections::{HashMap, VecDeque};

const TICK: u64 = 0;
const EMIT: u64 = 1;

/// Overhead counters backing the paper's Figure 9 measurements.
#[derive(Clone, Debug, Default)]
pub struct OverheadCounters {
    /// Data bits transmitted (wire size of data packets).
    pub data_bits: u64,
    /// DELTA field bits (b per component + b per decrease field).
    pub delta_bits: u64,
    /// SIGMA pre-FEC information bits.
    pub sigma_info_bits: u64,
    /// SIGMA post-FEC payload bits.
    pub sigma_coded_bits: u64,
    /// SIGMA special-packet header bits.
    pub sigma_header_bits: u64,
    /// Upgrade authorizations issued per group (index `g-1`; the paper's
    /// `f_g` is this divided by `slots`).
    pub upgrades_per_group: Vec<u64>,
    /// Slots elapsed.
    pub slots: u64,
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
pub(crate) struct Paced {
    /// Emission instant.
    pub at: SimTime,
    /// 1-based group.
    pub group: u32,
    /// Sequence number within the group's slot.
    pub seq: u32,
    /// The group's closing packet of the slot.
    pub last: bool,
    /// Packets the group sends this slot.
    pub count: u32,
}

impl Paced {
    /// The packet's DELTA header for slot `slot`; the group's packet
    /// count rides on its closing packet only.
    pub fn fields(
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
pub(crate) fn pace_slot(
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

/// A packet emission scheduled within the current slot.
#[derive(Debug)]
enum Emission {
    Data(Paced),
    Special(Packet),
}

/// The FLID-DL / FLID-DS sender agent.
#[derive(Debug)]
pub struct FlidSender {
    /// Session configuration.
    pub cfg: FlidConfig,
    /// Fractional packet credits per group (carries remainders across
    /// slots so long-run group rates are exact).
    credits: Vec<f64>,
    /// Key schedules per *access* slot (kept for s..s+2).
    schedules: HashMap<u64, LayeredKeySchedule>,
    /// Component streams of the current slot, one per group.
    streams: Vec<Option<mcc_delta::ComponentStream>>,
    /// Pending emissions of the current slot, time-ordered.
    pending: VecDeque<(SimTime, Emission)>,
    /// Counters for Figure 9.
    pub overhead: OverheadCounters,
}

impl FlidSender {
    /// Build a sender for `cfg`.
    pub fn new(cfg: FlidConfig) -> Self {
        let n = cfg.n() as usize;
        FlidSender {
            credits: vec![0.0; n],
            schedules: HashMap::new(),
            streams: vec![None; n],
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

    /// The key schedule controlling access during `slot`, if still held.
    pub fn schedule_for(&self, slot: u64) -> Option<&LayeredKeySchedule> {
        self.schedules.get(&slot)
    }

    fn begin_slot(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        let s = self.slot_of(now);
        let slot_start = SimTime::from_nanos(s * self.cfg.slot.as_nanos());
        let n = self.cfg.n();

        // 1. Authorizations + key schedule for slot s+2.
        let mut authorized = Vec::new();
        for g in 2..=n {
            if ctx.rng().chance(self.cfg.upgrade_probability(g)) {
                authorized.push(g);
                self.overhead.upgrades_per_group[(g - 1) as usize] += 1;
            }
        }
        let mask = UpgradeMask::from_groups(&authorized);
        let sched = LayeredKeySchedule::generate(ctx.rng(), n, mask);

        // 2. Plan this slot's data emissions (components encode s+2 keys).
        let slot_secs = self.cfg.slot.as_secs_f64();
        for g in 1..=n {
            self.streams[(g - 1) as usize] = Some(sched.component_stream(g));
        }
        let paced = pace_slot(
            &self.cfg,
            &mut self.credits,
            slot_start,
            FlidConfig::incremental_rate,
            1,
        );
        let mut plan: Vec<(SimTime, Emission)> = paced
            .into_iter()
            .map(|e| (e.at, Emission::Data(e)))
            .collect();

        // 3. SIGMA announcement for s+2.
        if self.cfg.protected {
            let ann = build_announcement(
                s + 2,
                layered_tuples(&sched, &self.cfg.groups),
                self.cfg.control_group,
                ctx.agent,
                self.cfg.flow,
                self.cfg.fec_repeat,
            );
            self.overhead.sigma_info_bits += ann.accounting.info_bits;
            self.overhead.sigma_coded_bits += ann.accounting.coded_bits;
            self.overhead.sigma_header_bits += ann.accounting.header_bits;
            let k = ann.packets.len();
            for (i, pkt) in ann.packets.into_iter().enumerate() {
                let frac = (i as f64 + 0.5) / k as f64;
                let at = slot_start + SimDuration::from_secs_f64(slot_secs * frac);
                plan.push((at, Emission::Special(pkt)));
            }
        }

        self.schedules.insert(s + 2, sched);
        #[expect(
            clippy::disallowed_methods,
            reason = "retain with a pure per-key predicate; order-independent"
        )]
        self.schedules.retain(|&k, _| k + 3 > s);
        self.overhead.slots += 1;

        plan.sort_by_key(|(t, _)| *t);
        for (t, _) in &plan {
            ctx.timer_at(*t, EMIT);
        }
        self.pending = plan.into();

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
                    let group = e.group;
                    let sched = &self.schedules[&(s + 2)];
                    let gi = (group - 1) as usize;
                    let component = self.streams[gi]
                        .as_mut()
                        .expect("stream initialized at slot start")
                        .next(ctx.rng(), e.last);
                    let fields =
                        e.fields(s, component, sched.decrease_field(group), sched.upgrades);
                    let mut pkt = Packet::app(
                        self.cfg.packet_bits,
                        self.cfg.flow,
                        ctx.agent,
                        Dest::Group(self.cfg.groups[gi]),
                        ProtectedData { fields },
                    );
                    if self.cfg.ecn {
                        pkt = pkt.ecn_capable();
                    }
                    self.overhead.data_bits += self.cfg.packet_bits;
                    if self.cfg.protected {
                        let b = mcc_delta::PAPER_KEY_BITS as u64;
                        self.overhead.delta_bits += b + if group >= 2 { b } else { 0 };
                    }
                    ctx.send(pkt);
                }
                Emission::Special(pkt) => ctx.send(pkt),
            }
        }
    }
}

impl Agent for FlidSender {
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
    use mcc_simcore::SimDuration;

    fn cfg(n: u32, protected: bool) -> FlidConfig {
        FlidConfig::paper(
            (1..=n).map(GroupAddr).collect(),
            GroupAddr(100),
            FlowId(1),
            protected,
        )
    }

    /// Joins every given group at start, then collects everything they
    /// carry.
    #[derive(Debug)]
    struct Tap {
        join: Vec<GroupAddr>,
        data: Vec<ProtectedData>,
        specials: u64,
    }
    impl Agent for Tap {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for g in &self.join {
                ctx.join_group(*g);
            }
        }
        fn on_packet(&mut self, _ctx: &mut Ctx, pkt: Packet) {
            if let Some(pd) = pkt.body_as::<ProtectedData>() {
                self.data.push(*pd);
            } else if pkt.body_as::<mcc_sigma::fec::KeyChunk>().is_some() {
                self.specials += 1;
            }
        }
    }

    /// One host with sender, one receiver host joined to everything.
    /// The sender starts 100 ms in so the grafts are in place.
    fn run(protected: bool, secs: u64) -> (Sim, AgentId, AgentId, Vec<GroupAddr>) {
        let mut sim = Sim::new(5, SimDuration::from_secs(1));
        let h1 = sim.add_node();
        let h2 = sim.add_node();
        sim.add_duplex_link(
            h1,
            h2,
            100_000_000,
            SimDuration::from_millis(1),
            Queue::drop_tail(10_000_000),
            Queue::drop_tail(10_000_000),
        );
        let c = cfg(4, protected);
        let groups = c.groups.clone();
        let control = c.control_group;
        for g in groups.iter().chain([&control]) {
            sim.register_group(*g, h1);
        }
        let mut join = groups.clone();
        join.push(control);
        let tap = sim.add_agent(
            h2,
            Box::new(Tap {
                join,
                data: Vec::new(),
                specials: 0,
            }),
            SimTime::ZERO,
        );
        let sender = sim.add_agent(h1, Box::new(FlidSender::new(c)), SimTime::from_millis(100));
        sim.finalize();
        sim.run_until(SimTime::from_secs(secs));
        (sim, tap, sender, groups)
    }

    #[test]
    fn per_group_rates_match_config() {
        let (sim, tap, _sender, groups) = run(false, 10);
        let tap_ref = sim.agent_as::<Tap>(tap).unwrap();
        let c = cfg(4, false);
        for (gi, _) in groups.iter().enumerate() {
            let bits: u64 = tap_ref
                .data
                .iter()
                .filter(|d| d.fields.group == gi as u32 + 1)
                .count() as u64
                * c.packet_bits;
            let rate = bits as f64 / 10.0;
            let want = c.incremental_rate(gi as u32 + 1);
            let err = (rate - want).abs() / want;
            assert!(err < 0.15, "group {} rate {rate} vs {want}", gi + 1);
        }
    }

    #[test]
    fn every_group_has_exactly_one_last_packet_per_slot() {
        let (sim, tap, _sender, _) = run(false, 5);
        let tap_ref = sim.agent_as::<Tap>(tap).unwrap();
        use std::collections::BTreeMap;
        let mut lasts: BTreeMap<(u64, u32), u32> = BTreeMap::new();
        let mut counts: BTreeMap<(u64, u32), u32> = BTreeMap::new();
        for d in &tap_ref.data {
            *counts.entry((d.fields.slot, d.fields.group)).or_insert(0) += 1;
            if d.fields.last_in_slot {
                *lasts.entry((d.fields.slot, d.fields.group)).or_insert(0) += 1;
            }
        }
        // Skip the final (possibly truncated) slot.
        let max_slot = counts.keys().map(|&(s, _)| s).max().unwrap();
        for (&(slot, group), &n_last) in &lasts {
            if slot == max_slot {
                continue;
            }
            assert_eq!(n_last, 1, "slot {slot} group {group}");
            // And the advertised count matches what was sent.
            let d = tap_ref
                .data
                .iter()
                .find(|d| d.fields.slot == slot && d.fields.group == group && d.fields.last_in_slot)
                .unwrap();
            assert_eq!(d.fields.count_in_slot, counts[&(slot, group)]);
        }
        for (&(slot, group), &cnt) in &counts {
            if slot == max_slot {
                continue;
            }
            assert!(cnt >= 1, "slot {slot} group {group} must send ≥1 packet");
        }
    }

    #[test]
    fn receiver_can_rebuild_keys_from_the_stream() {
        use mcc_delta::{decide_layered, Eligibility, SlotObservation};
        let (sim, tap, _sender, _) = run(true, 4);
        let tap_ref = sim.agent_as::<Tap>(tap).unwrap();
        // Rebuild slot 2's observation from the wire.
        let mut obs = SlotObservation::new(2, 4);
        for d in tap_ref.data.iter().filter(|d| d.fields.slot == 2) {
            obs.observe(&d.fields);
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
        let (sim, _tap, sender, _) = run(true, 10);
        let o = &sim.agent_as::<FlidSender>(sender).unwrap().overhead;
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
        use mcc_sigma::{SigmaConfig, SigmaEdgeModule};
        // h1 — r — h2 with a SIGMA module on r.
        let mut sim = Sim::new(6, SimDuration::from_secs(1));
        let h1 = sim.add_node();
        let r = sim.add_node();
        let h2 = sim.add_node();
        for (a, b) in [(h1, r), (r, h2)] {
            sim.add_duplex_link(
                a,
                b,
                100_000_000,
                SimDuration::from_millis(1),
                Queue::drop_tail(10_000_000),
                Queue::drop_tail(10_000_000),
            );
        }
        let c = cfg(4, true);
        let groups = c.groups.clone();
        let control = c.control_group;
        for g in groups.iter().chain([&control]) {
            sim.register_group(*g, h1);
        }
        sim.set_edge_module(r, Box::new(SigmaEdgeModule::new(SigmaConfig::new(c.slot))));
        let mut join = groups.clone();
        join.push(control);
        let tap = sim.add_agent(
            h2,
            Box::new(Tap {
                join,
                data: Vec::new(),
                specials: 0,
            }),
            SimTime::ZERO,
        );
        sim.add_agent(h1, Box::new(FlidSender::new(c)), SimTime::from_millis(100));
        sim.finalize();
        sim.run_until(SimTime::from_secs(5));
        let module = sim.edge_as::<SigmaEdgeModule>(r).unwrap();
        assert!(module.stats.specials > 0, "edge router intercepts specials");
        assert_eq!(
            sim.agent_as::<Tap>(tap).unwrap().specials,
            0,
            "specials never reach local interfaces"
        );
    }

    #[test]
    fn unprotected_mode_sends_no_specials() {
        let (sim, tap, sender, _) = run(false, 5);
        assert_eq!(sim.agent_as::<Tap>(tap).unwrap().specials, 0);
        let o = &sim.agent_as::<FlidSender>(sender).unwrap().overhead;
        assert_eq!(o.sigma_coded_bits, 0);
        assert_eq!(o.delta_bits, 0);
    }
}
