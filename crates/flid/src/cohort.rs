//! Receiver cohorts: many statistically identical receivers of one
//! subscription [`Policy`] behind one edge interface, tracked as a
//! count-weighted set of *buckets* instead of N full agents.
//!
//! The scaling observation (ROADMAP item 2, and the feedback-consolidation
//! line of related work): multicast delivers **one** packet copy per
//! access interface no matter how many receivers sit behind it, and
//! synchronized receivers make **identical** per-slot decisions. So a
//! bucket of `count` receivers that joined in the same slot and run the
//! same (honest) strategy is *exactly* one [`Receiver<P>`] state machine
//! plus a multiplicity — its level trace, slot observations, subscription
//! messages and delivered-byte series are byte-for-byte those of each
//! member. Event and memory cost become O(buckets), not O(receivers).
//!
//! **Divergence** breaks the invariant and is handled explicitly:
//!
//! * *Expansion (split)*: a member whose adversary is provably dormant
//!   ([`Adversary::dormant_until`]) rides inside the honest bucket and is
//!   split off at its activation instant — the clone inherits the bucket
//!   state byte-for-byte, gets the adversary installed, and replays
//!   exactly the activation the standalone receiver's ATTACK timer would
//!   have fired. Members whose adversary cannot prove dormancy get their
//!   own bucket from the start.
//! * *Contraction (merge)*: after each end-of-slot evaluation, buckets
//!   in the same state ([`Policy::same_state`]: field equality over every
//!   decision-relevant field) whose adversaries are provably burnt out
//!   ([`Adversary::is_inert`]) fold back together — the survivor absorbs
//!   the count, the retired bucket's timer chains die on the floor.
//!
//! One agent multiplexes every bucket's timer chains through disjoint
//! token namespaces (`(bucket + 1) << 32`), keeps the interface's group
//! membership as the union of bucket subscriptions, and fans incoming
//! packets out to the buckets that want them. SIGMA sees one interface
//! per cohort, which is the semantics of a LAN behind one edge port —
//! per-interface grants, graces and lockouts apply to the cohort as a
//! whole, exactly as they would to individual receivers sharing that
//! interface.

use crate::layered::Layered;
use crate::receiver::{Policy, Receiver, ReceiverStats, ATTACK, DEPART, PROCESS, RETX, RETX_AFTER};
use mcc_attack::{Adversary, AttackPlan};
use mcc_netsim::prelude::*;
use mcc_sigma::{ProtectedData, SubscriptionAck};
use mcc_simcore::SimTime;

/// Bucket timer namespaces sit above 2³²; cohort-control tokens below.
const BUCKET_SHIFT: u32 = 32;
/// Deferred bucket start: `START_BASE + bucket index`.
const START_BASE: u64 = 1 << 16;
/// Deferred member split: `SPLIT_BASE + split index`.
const SPLIT_BASE: u64 = 2 << 16;

fn bucket_base(idx: usize) -> u64 {
    ((idx as u64) + 1) << BUCKET_SHIFT
}

/// One population stratum of a cohort: `count` receivers joining at
/// `join_at` and running `plan`. A bucket of adversarial receivers models
/// `count` *synchronized* attackers driving one shared state machine; use
/// `count == 1` when per-attacker identity matters (e.g. colluders).
#[derive(Clone, Debug)]
pub struct CohortMember {
    /// Number of receivers in this stratum.
    pub count: u64,
    /// When they join the session (absolute simulation time).
    pub join_at: SimTime,
    /// When they depart the session ([`SimTime::MAX`] = stay forever).
    pub leave_at: SimTime,
    /// The strategy they run ([`AttackPlan::honest`] for the bulk).
    pub plan: AttackPlan,
}

/// One live stratum: a receiver state machine plus its multiplicity.
#[derive(Debug)]
struct Bucket<P> {
    /// Receivers currently represented (riders included until they split).
    count: u64,
    /// `on_start` has run (deferred-join buckets start via timer).
    started: bool,
    /// Folded into `merged_into` (or depleted by splits): timers and
    /// deliveries are ignored, the entry stays as a tombstone so bucket
    /// indices — and therefore timer token namespaces — remain stable.
    retired: bool,
    /// Merge target, for resolving split sources through tombstones.
    merged_into: Option<usize>,
    /// The state machine every member of this bucket replicates.
    rx: Receiver<P>,
    /// Delivered bits per whole second, per member (each member of the
    /// bucket receives the same bytes). Feeds count-weighted metrics.
    bits: Vec<u64>,
}

impl<P> Bucket<P> {
    fn live(&self) -> bool {
        self.started && !self.retired && self.count > 0
    }

    fn record_bits(&mut self, sec: usize, bits: u64) {
        if self.bits.len() <= sec {
            self.bits.resize(sec + 1, 0);
        }
        self.bits[sec] += bits;
    }
}

/// A member waiting to diverge from the bucket it rides in.
#[derive(Debug)]
struct PendingSplit {
    /// Bucket the member currently rides (resolved through merges).
    bucket: usize,
    /// Receivers splitting off together.
    count: u64,
    /// The adversary to install; taken exactly once at the split instant.
    adversary: Option<Box<dyn Adversary>>,
}

/// A classified member, produced at construction time so the adversary is
/// built exactly once (stateful strategies such as colluders register a
/// clique member per build).
#[derive(Debug)]
struct Stratum {
    count: u64,
    join_at: SimTime,
    leave_at: SimTime,
    role: Role,
}

/// How a stratum enters the cohort.
#[derive(Debug)]
enum Role {
    /// Honest forever: pure multiplicity on the base bucket.
    Honest,
    /// Provably dormant until `split_at`: rides the base bucket, then
    /// splits.
    Deferred {
        split_at: SimTime,
        adversary: Box<dyn Adversary>,
    },
    /// Active (or unprovable) from the start: own bucket immediately.
    Immediate(Box<dyn Adversary>),
}

/// The cohort agent: N receivers of policy `P` behind one access
/// interface, O(buckets) state and events.
#[derive(Debug)]
pub struct CohortReceiver<P: Policy = Layered> {
    /// The honest, unstarted receiver every new bucket is cloned from: it
    /// carries the session configuration, edge router and control delay.
    template: Receiver<P>,
    /// Classified population; drained into buckets at `on_start`.
    strata: Vec<Stratum>,
    buckets: Vec<Bucket<P>>,
    splits: Vec<PendingSplit>,
    /// Current interface membership per group index (what the `Ctx` has
    /// been told), diffed against the union of bucket subscriptions.
    member_now: Vec<bool>,
}

impl<P: Policy> CohortReceiver<P> {
    /// Build a cohort of `members`, every bucket starting as a clone of
    /// the honest, unstarted `template`. Member order is preserved:
    /// buckets are created (and therefore act, on ties) in first-use
    /// member order.
    pub fn new(template: Receiver<P>, members: Vec<CohortMember>) -> Self {
        assert!(!members.is_empty(), "a cohort needs at least one member");
        let strata = members
            .into_iter()
            .filter(|m| m.count > 0)
            .map(|m| {
                let adversary = m.plan.build();
                let role = match adversary.dormant_until() {
                    Some(t) if t == SimTime::MAX => Role::Honest,
                    Some(t) => match adversary.next_activation(m.join_at) {
                        // Dormancy must cover the whole ride: honest-
                        // equivalent on [join, split_at), activation at
                        // split_at replayed on the clone. Departure before
                        // the split would desynchronize the ride, so a
                        // leaver gets its own bucket.
                        Some(a) if a > m.join_at && t >= a && m.leave_at > a => Role::Deferred {
                            split_at: a,
                            adversary,
                        },
                        _ => Role::Immediate(adversary),
                    },
                    None => Role::Immediate(adversary),
                };
                Stratum {
                    count: m.count,
                    join_at: m.join_at,
                    leave_at: m.leave_at,
                    role,
                }
            })
            .collect();
        let n = template.cfg.n() as usize;
        CohortReceiver {
            template,
            strata,
            buckets: Vec::new(),
            splits: Vec::new(),
            member_now: vec![false; n],
        }
    }

    /// Total receivers currently represented by live buckets.
    pub fn receiver_count(&self) -> u64 {
        self.buckets
            .iter()
            .filter(|b| b.live())
            .map(|b| b.count)
            .sum()
    }

    /// Live buckets (diagnostics and memory accounting).
    pub fn bucket_count(&self) -> usize {
        self.buckets.iter().filter(|b| b.live()).count()
    }

    /// The subscription distribution: `(count, level)` per live bucket.
    pub fn levels(&self) -> Vec<(u64, u32)> {
        self.buckets
            .iter()
            .filter(|b| b.live())
            .map(|b| (b.count, b.rx.level()))
            .collect()
    }

    /// Per-bucket receiver handles: `(count, receiver)` for live buckets,
    /// in bucket order. The receiver *is* each member's state machine.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, &Receiver<P>)> {
        self.buckets
            .iter()
            .filter(|b| b.live())
            .map(|b| (b.count, &b.rx))
    }

    /// Aggregate receiver counters, count-weighted over live buckets.
    pub fn weighted_stats(&self) -> ReceiverStats {
        let mut out = ReceiverStats::default();
        for b in self.buckets.iter().filter(|b| b.live()) {
            let c = b.count;
            out.decreases += c * b.rx.stats.decreases;
            out.increases += c * b.rx.stats.increases;
            out.rejoins += c * b.rx.stats.rejoins;
            out.subscriptions += c * b.rx.stats.subscriptions;
            out.retransmissions += c * b.rx.stats.retransmissions;
            out.acks += c * b.rx.stats.acks;
            out.guess_subscriptions += c * b.rx.stats.guess_subscriptions;
            out.colluder_submissions += c * b.rx.stats.colluder_submissions;
        }
        out
    }

    /// Count-weighted mean per-receiver throughput over `[from, to)`
    /// whole seconds. Exact for synchronized buckets; across a merge the
    /// survivor's history stands in for the absorbed bucket's (their
    /// states were equal at the merge point).
    ///
    /// An empty window (`to <= from`) reads 0.0, as
    /// [`Monitor::agent_throughput_bps`] does.
    pub fn weighted_throughput_bps(&self, from: u64, to: u64) -> f64 {
        if to <= from {
            return 0.0;
        }
        let mut num = 0.0;
        let mut den = 0u64;
        for b in self.buckets.iter().filter(|b| b.live()) {
            let bits: u64 = (from..to)
                .map(|s| b.bits.get(s as usize).copied().unwrap_or(0))
                .sum();
            num += b.count as f64 * bits as f64 / (to - from) as f64;
            den += b.count;
        }
        if den == 0 {
            0.0
        } else {
            num / den as f64
        }
    }

    /// Count-weighted mean per-receiver throughput series, one bin per
    /// whole second out to `horizon` seconds.
    pub fn weighted_series_bps(&self, horizon: u64) -> Vec<f64> {
        (0..horizon)
            .map(|s| self.weighted_throughput_bps(s, s + 1))
            .collect()
    }

    /// Resolve a bucket index through merge tombstones to its survivor.
    fn follow(&self, mut i: usize) -> usize {
        while let Some(m) = self.buckets[i].merged_into {
            i = m;
        }
        i
    }

    /// Create a bucket (not yet started) and return its index.
    fn push_bucket(
        &mut self,
        count: u64,
        leave_at: SimTime,
        adversary: Box<dyn Adversary>,
    ) -> usize {
        let idx = self.buckets.len();
        let mut rx = self.template.clone();
        rx.adversary = adversary;
        rx.set_leave_at(leave_at);
        rx.set_cohort_mode(bucket_base(idx));
        self.buckets.push(Bucket {
            count,
            started: false,
            retired: false,
            merged_into: None,
            rx,
            bits: Vec::new(),
        });
        idx
    }

    fn start_bucket(&mut self, ctx: &mut Ctx, idx: usize) {
        let b = &mut self.buckets[idx];
        if b.started || b.retired {
            return;
        }
        b.started = true;
        b.rx.on_start(ctx);
        self.sync_membership(ctx);
    }

    /// Diff the union of live-bucket subscriptions against the interface's
    /// current membership and issue the net joins/leaves, in group order.
    fn sync_membership(&mut self, ctx: &mut Ctx) {
        for gi in 0..self.member_now.len() {
            let want = self
                .buckets
                .iter()
                .any(|b| b.live() && b.rx.wants_group(gi));
            if want != self.member_now[gi] {
                self.member_now[gi] = want;
                let addr = self.template.cfg.groups[gi];
                if want {
                    ctx.join_group(addr);
                } else {
                    ctx.leave_group(addr);
                }
            }
        }
    }

    /// Fold buckets in the same state ([`Policy::same_state`]) with
    /// burnt-out adversaries together, pair by pair: a cohort with fewer
    /// than two mergeable buckets compares nothing.
    fn try_merge(&mut self, now: SimTime) {
        let len = self.buckets.len();
        let mergeable = |b: &Bucket<P>| b.live() && b.rx.adversary.is_inert(now);
        for i in 0..len {
            if !mergeable(&self.buckets[i]) {
                continue;
            }
            for j in (i + 1)..len {
                if mergeable(&self.buckets[j])
                    && P::same_state(&self.buckets[i].rx, &self.buckets[j].rx)
                {
                    let absorbed = self.buckets[j].count;
                    self.buckets[i].count += absorbed;
                    let b = &mut self.buckets[j];
                    b.count = 0;
                    b.retired = true;
                    b.merged_into = Some(i);
                }
            }
        }
    }

    /// Execute a pending split: clone the ridden bucket, install the
    /// adversary, and replay exactly what the standalone receiver's
    /// ATTACK timer would have done at this instant.
    fn perform_split(&mut self, ctx: &mut Ctx, si: usize) {
        let Some(adversary) = self.splits[si].adversary.take() else {
            return;
        };
        let count = self.splits[si].count;
        let src = self.follow(self.splits[si].bucket);
        let now = ctx.now();
        let idx = self.buckets.len();
        let mut rx = self.buckets[src].rx.clone();
        rx.rebase_tokens(bucket_base(idx));
        rx.adversary = adversary;
        let bits = self.buckets[src].bits.clone();
        self.buckets[src].count = self.buckets[src].count.saturating_sub(count);
        if self.buckets[src].count == 0 {
            // Depleted: every member of the source was a rider and has now
            // left. The tombstone keeps indices stable.
            let b = &mut self.buckets[src];
            b.retired = true;
        }
        self.buckets.push(Bucket {
            count,
            started: true,
            retired: false,
            merged_into: None,
            rx,
            bits,
        });
        // The standalone receiver's ATTACK arm: on_activation + action
        // execution + next-activation scheduling, all under the clone's
        // token namespace.
        self.buckets[idx]
            .rx
            .on_timer(ctx, bucket_base(idx) + ATTACK);
        // Resume the inherited PROCESS chain on its own timer (the source
        // bucket's pending timer belongs to the source's namespace).
        let next = self.buckets[idx].rx.next_process_at(now);
        ctx.timer_at(next, bucket_base(idx) + PROCESS);
        // An unacked subscription needs its retransmit watchdog re-armed;
        // the ~60 ms phase is approximate (σ-level: it only matters if the
        // in-flight ack was lost during the split window).
        if self.buckets[idx].rx.pending_sub_slot().is_some() {
            ctx.timer_in(RETX_AFTER, bucket_base(idx) + RETX);
        }
        // The source bucket's DEPART timer stays in the source namespace;
        // a clone with a finite lifetime re-arms its own.
        let leave_at = self.buckets[idx].rx.leave_at();
        if leave_at < SimTime::MAX && !self.buckets[idx].rx.departed() {
            ctx.timer_at(leave_at.max(now), bucket_base(idx) + DEPART);
        }
        self.sync_membership(ctx);
    }
}

impl<P: Policy> Agent for CohortReceiver<P> {
    fn on_start(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        // Materialize the classified population, in member order. Base
        // (honest) buckets are shared per join instant; deferred members
        // ride them and schedule their splits.
        let strata = std::mem::take(&mut self.strata);
        // `((join_at, leave_at), bucket)` association list — populations
        // are tiny. Synchrony requires matching lifetimes, not just
        // matching join instants: a member that departs early would break
        // the bucket's slot discipline for everyone it rides with.
        let mut base: Vec<((SimTime, SimTime), usize)> = Vec::new();
        // Join instant per created bucket, in bucket-index order.
        let mut join_of: Vec<SimTime> = Vec::new();
        let mut deferred: Vec<(usize, u64, SimTime, Box<dyn Adversary>)> = Vec::new();
        let mut base_bucket =
            |this: &mut Self, join_at: SimTime, leave_at: SimTime, join_of: &mut Vec<SimTime>| {
                match base.iter().find(|&&(k, _)| k == (join_at, leave_at)) {
                    Some(&(_, idx)) => idx,
                    None => {
                        let idx = this.push_bucket(0, leave_at, AttackPlan::honest().build());
                        base.push(((join_at, leave_at), idx));
                        join_of.push(join_at);
                        idx
                    }
                }
            };
        for s in strata {
            match s.role {
                Role::Immediate(adversary) => {
                    self.push_bucket(s.count, s.leave_at, adversary);
                    join_of.push(s.join_at);
                }
                role => {
                    let idx = base_bucket(self, s.join_at, s.leave_at, &mut join_of);
                    self.buckets[idx].count += s.count;
                    if let Role::Deferred {
                        split_at,
                        adversary,
                    } = role
                    {
                        deferred.push((idx, s.count, split_at, adversary));
                    }
                }
            }
        }
        // Start everything due now; defer the rest to START timers.
        for (idx, &join_at) in join_of.iter().enumerate() {
            if join_at <= now {
                self.start_bucket(ctx, idx);
            } else {
                ctx.timer_at(join_at, START_BASE + idx as u64);
            }
        }
        // Schedule the splits.
        for (bucket, count, split_at, adversary) in deferred {
            let si = self.splits.len();
            self.splits.push(PendingSplit {
                bucket,
                count,
                adversary: Some(adversary),
            });
            ctx.timer_at(split_at, SPLIT_BASE + si as u64);
        }
        self.sync_membership(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
        let sec = (ctx.now().as_nanos() / 1_000_000_000) as usize;
        if let Some(pd) = pkt.body_as::<ProtectedData>() {
            let gi = (pd.fields.group - 1) as usize;
            let marked = pkt.ecn == Ecn::Marked;
            for b in &mut self.buckets {
                if !b.live() || !b.rx.wants_group(gi) {
                    continue;
                }
                b.record_bits(sec, pkt.size_bits);
                b.rx.observe_data(&pd.fields, marked);
            }
        } else if let Some(ack) = pkt.body_as::<SubscriptionAck>() {
            // Each bucket sent its own subscription — reliable or
            // fire-and-forget — and the router acks each one. Two buckets
            // can await an ack for the *same* slot (e.g. a late joiner's
            // first request racing the base bucket's level change), and
            // ack sizes vary with the accepted list, so slot alone would
            // let a wrong pick corrupt the per-bucket bits ledger. The
            // router echoes the exact `(group, key)` pairs it validated —
            // route to the bucket whose request they answer, preferring
            // one answered in full; identical requests produce identical
            // acks, so ties are harmless.
            let (slot, accepted) = (ack.slot, ack.accepted.clone());
            let answered =
                |b: &Bucket<P>, exact: bool| b.live() && b.rx.answered_by(slot, &accepted, exact);
            if let Some(idx) = (0..self.buckets.len())
                .find(|&i| answered(&self.buckets[i], true))
                .or_else(|| (0..self.buckets.len()).find(|&i| answered(&self.buckets[i], false)))
            {
                self.buckets[idx].record_bits(sec, pkt.size_bits);
                self.buckets[idx].rx.on_packet(ctx, pkt);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        if token >= 1 << BUCKET_SHIFT {
            let idx = ((token >> BUCKET_SHIFT) as usize) - 1;
            let inner = token & ((1 << BUCKET_SHIFT) - 1);
            if idx >= self.buckets.len() {
                return;
            }
            if self.buckets[idx].retired || !self.buckets[idx].started {
                // A retired bucket's chains die here.
                return;
            }
            self.buckets[idx].rx.on_timer(ctx, token);
            if inner == PROCESS {
                self.try_merge(ctx.now());
            }
            self.sync_membership(ctx);
        } else if token >= SPLIT_BASE {
            self.perform_split(ctx, (token - SPLIT_BASE) as usize);
        } else if token >= START_BASE {
            self.start_bucket(ctx, (token - START_BASE) as usize);
        }
    }
}
