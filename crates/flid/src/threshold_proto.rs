//! An RLM-style loss-threshold protocol protected by Shamir-share key
//! distribution (paper §3.1.2, "Congested state").
//!
//! Protocols like RLM consider a receiver congested only when its loss
//! rate exceeds a threshold (RLM's default: 25 %). DELTA supports them by
//! splitting each group's slot key into `(k, n)` Shamir shares, one per
//! packet: a receiver keeping at least `k = ⌈(1-θ)·n⌉` packets
//! reconstructs the key by interpolation; a receiver losing more cannot —
//! the threshold *is* the reconstruction bound.
//!
//! The session uses the replicated structure (one group per level, one
//! [`SingleGroup`] receiver policy, read by the [`Shamir`] decoder), where
//! the paper notes Shamir's scheme applies cleanly; for cumulative layered
//! sharing it would forgo component reuse, the open problem §3.1.2 calls
//! out (see `DESIGN.md` ablations).
//!
//! On the wire the share `(x, q(x))` is packed into the DELTA component
//! field (`pack_share`); SIGMA remains unchanged — routers validate the
//! reconstructed secret like any other key, which demonstrates Requirement
//! 3's generality.

use crate::config::{FlidConfig, THRESHOLD_THETA};
use crate::receiver::Receiver;
use crate::replicated::{Decoder, SingleGroup, Verdict};
use crate::sender::{KeyRule, Paced, Sender};
use mcc_attack::AttackPlan;
use mcc_delta::threshold::{reconstruct, Share, ThresholdLevelKeys};
use mcc_delta::{DeltaFields, Key, UpgradeMask};
use mcc_netsim::prelude::*;
use mcc_sigma::KeyTuple;
use mcc_simcore::DetRng;

/// Pack a Shamir share into a 64-bit component field.
pub(crate) fn pack_share(s: Share) -> Key {
    Key(((s.x as u64) << 32) | s.y as u64)
}

/// Unpack a component field into a Shamir share.
pub(crate) fn unpack_share(k: Key) -> Share {
    Share {
        x: (k.0 >> 32) as u32,
        y: (k.0 & 0xFFFF_FFFF) as u32,
    }
}

/// Per-slot keys of one group of the threshold session.
#[derive(Debug, Clone)]
pub struct GroupSlotKeys {
    level: ThresholdLevelKeys,
    decrease: Key,
}

/// The threshold key rule: per group and slot, a Shamir-split secret (one
/// share per packet) and a decrease nonce carried in the group's decrease
/// fields. Groups run replicated-style, at cumulative rates.
#[derive(Debug)]
pub struct Shares;

impl KeyRule for Shares {
    type Keys = Vec<GroupSlotKeys>;
    /// Shamir needs at least two packets for a meaningful split.
    const MIN_PACKETS: u32 = 2;
    const PACED_ANNOUNCEMENT: bool = false;

    fn rate(cfg: &FlidConfig, g: u32) -> f64 {
        cfg.cumulative_rate(g)
    }

    fn draw(&self, _cfg: &FlidConfig, rng: &mut DetRng, counts: &[u32]) -> Self::Keys {
        counts
            .iter()
            .map(|&count| GroupSlotKeys {
                level: ThresholdLevelKeys::generate(count, THRESHOLD_THETA, rng),
                decrease: Key::nonce(rng),
            })
            .collect()
    }

    fn upgrades(_keys: &Self::Keys) -> UpgradeMask {
        UpgradeMask::NONE
    }

    fn tuples(keys: &Self::Keys, groups: &[GroupAddr]) -> Vec<(GroupAddr, KeyTuple)> {
        let secret = |gi: usize| Key(keys[gi].level.secret as u64);
        (0..keys.len())
            .map(|gi| {
                let tuple = KeyTuple {
                    top: secret(gi),
                    // δ_{g}: nonce in group g+1's decrease fields.
                    decrease: keys.get(gi + 1).map(|k| k.decrease),
                    // ι_g = previous group's secret (upgrade path).
                    increase: (gi >= 1).then(|| secret(gi - 1)),
                };
                (groups[gi], tuple)
            })
            .collect()
    }

    fn stamp(keys: &mut Self::Keys, _rng: &mut DetRng, p: &Paced) -> (Key, Option<Key>) {
        let k = &keys[(p.group - 1) as usize];
        (pack_share(k.level.shares[p.seq as usize]), Some(k.decrease))
    }
}

/// Sender of the threshold-protected session.
pub type ThresholdSender = Sender<Shares>;

impl ThresholdSender {
    /// Build a sender with loss threshold [`THRESHOLD_THETA`].
    pub fn new(cfg: FlidConfig) -> Self {
        Sender::build(cfg, Shares)
    }
}

/// What a threshold receiver saw of its group in one slot.
#[derive(Debug, Default, Clone)]
pub struct SharesSeen {
    shares: Vec<Share>,
    saw_last: bool,
    expected: u32,
    decrease: Option<Key>,
}

/// The threshold decoder: rebuild the group key from the slot's Shamir
/// shares while the loss rate stays within [`THRESHOLD_THETA`], and climb
/// one group per such slot (an RLM-like probe policy driven by the
/// reconstruction bound itself).
#[derive(Clone, Debug)]
pub struct Shamir {
    /// Slots where the key could not be reconstructed.
    key_failures: u64,
}

impl Decoder for Shamir {
    type Obs = SharesSeen;

    fn fold(o: &mut SharesSeen, fields: &DeltaFields) {
        o.shares.push(unpack_share(fields.component));
        if fields.last_in_slot {
            o.saw_last = true;
            o.expected = fields.count_in_slot;
        }
        if let Some(d) = fields.decrease {
            o.decrease = Some(d);
        }
    }

    /// Publishes the reconstructed `(g, γ_g)` while subscribing
    /// `(g+1, γ_g)`; a decrease publishes nothing.
    fn verdict(&mut self, obs: SharesSeen, group: u32, n: u32) -> Verdict {
        // Loss rate over the slot; a missing final packet means the
        // expected count is unknown — treat conservatively as over
        // threshold unless enough shares arrived anyway.
        let received = obs.shares.len() as u32;
        if obs.saw_last && received as f64 >= (1.0 - THRESHOLD_THETA) * obs.expected as f64 {
            // Probe upward: the reconstructed key doubles as the increase
            // key of the next group.
            let key = Key(reconstruct(&obs.shares) as u64);
            return Verdict::Subscribe((group + 1).min(n), key, Some((group, key)));
        }
        self.key_failures += 1;
        match (group, obs.decrease) {
            (2.., Some(d)) if received > 0 => Verdict::Subscribe(group - 1, d, None),
            // At the minimal group, without a decrease key, or in a
            // total blackout: back to keyless re-admission.
            _ => Verdict::Rejoin,
        }
    }
}

/// Receiver of the threshold session.
pub type ThresholdReceiver = Receiver<SingleGroup<Shamir>>;

impl ThresholdReceiver {
    /// Build a receiver running `plan`'s adversary strategy
    /// ([`AttackPlan::honest`] for a well-behaved one).
    pub fn with_adversary(cfg: FlidConfig, router: Option<NodeId>, plan: AttackPlan) -> Self {
        let shamir = Shamir { key_failures: 0 };
        Receiver::build(cfg, router, plan, SingleGroup::new(shamir))
    }

    /// Slots where the key could not be reconstructed.
    pub fn key_failures(&self) -> u64 {
        self.policy.decoder.key_failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testrig::{session, Rig};

    #[test]
    fn share_packing_round_trips() {
        let s = Share { x: 17, y: 65520 };
        assert_eq!(unpack_share(pack_share(s)), s);
    }

    fn run(bottleneck: u64, secs: u64) -> (Rig, AgentId) {
        let cfg = session(6, 3, true);
        let mut d = Rig::new(31, bottleneck, cfg.clone());
        let r = d.receiver(ThresholdReceiver::with_adversary(
            cfg.clone(),
            d.router(),
            AttackPlan::honest(),
        ));
        d.run(ThresholdSender::new(cfg), secs);
        (d, r)
    }

    #[test]
    fn receiver_climbs_and_reconstructs_keys() {
        let (d, r) = run(1_000_000, 40);
        let rec = d.sim.agent_as::<ThresholdReceiver>(r).unwrap();
        assert!(
            rec.level() >= 4,
            "group {} (trace {:?})",
            rec.level(),
            rec.level_trace
        );
        let bps = d.goodput_bps(r, 20, 40);
        assert!(bps > 250_000.0, "threshold goodput {bps}");
    }

    #[test]
    fn tight_bottleneck_limits_group() {
        let (d, r) = run(250_000, 40);
        let rec = d.sim.agent_as::<ThresholdReceiver>(r).unwrap();
        assert!(
            rec.level() <= 4,
            "group {} should be capped (trace {:?})",
            rec.level(),
            rec.level_trace
        );
        assert!(
            rec.key_failures() > 0,
            "over-threshold slots force descents"
        );
    }
}
