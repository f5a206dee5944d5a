//! DELTA instantiation for replicated multicast (paper §3.1.2 "Session
//! structure", Figure 5) — the destination-set-grouping case where every
//! group carries the *same* content at a different rate and a receiver
//! subscribes to exactly one group.
//!
//! Key definitions differ from the layered case only in scope (paper Eq. 6):
//!
//! * **top key** `γ_g = ⊕_{p∈S_g} c_{g,p}` — this group's components only,
//! * **decrease key** `δ_{g-1} = d_g` — nonce in group `g`'s decrease field,
//! * **increase key** `ι_g = γ_{g-1}` — the *previous* group's top key,
//!   defined when the protocol authorizes an upgrade to `g`.
//!
//! A receiver of group `g` that loses a packet can still read the decrease
//! field from any received packet of its own group and move to `g-1`; a
//! clean receiver rebuilds `γ_g` (stay) which doubles as `ι_{g+1}` (move up
//! when authorized).
//!
//! The sender's key set is [`crate::LayeredKeySchedule::replicated`];
//! this module holds the receiver algorithm.

use crate::fields::UpgradeMask;
use crate::key::Key;
use crate::layered::GroupObservation;

/// The replicated receiver's verdict for the next slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplicatedEligibility {
    /// Subscribe to `group` for slot `s+2` with `key`.
    Subscribe {
        /// The (single) group of the new subscription.
        group: u32,
        /// The key to submit.
        key: Key,
    },
    /// Congested in the minimal group with no packets received at all:
    /// leave and re-enter via session-join.
    Rejoin,
}

/// Receiver algorithm of paper Figure 5: `obs` is what the receiver saw of
/// its *single* subscribed group `g` this slot.
pub fn decide_replicated(
    obs: &GroupObservation,
    upgrades: UpgradeMask,
    g: u32,
    n: u32,
) -> ReplicatedEligibility {
    assert!((1..=n).contains(&g));
    if !obs.complete() {
        // Congested.
        if g == 1 {
            return ReplicatedEligibility::Rejoin;
        }
        match obs.decrease_field {
            Some(d) => ReplicatedEligibility::Subscribe {
                group: g - 1,
                key: d,
            },
            // Lost every packet: nothing to read the decrease field from.
            None => ReplicatedEligibility::Rejoin,
        }
    } else {
        let top = obs.xor; // = γ_g when complete
        if g < n && upgrades.authorized(g + 1) {
            ReplicatedEligibility::Subscribe {
                group: g + 1,
                key: top, // ι_{g+1} = γ_g
            }
        } else {
            ReplicatedEligibility::Subscribe { group: g, key: top }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::DeltaFields;
    use crate::layered::LayeredKeySchedule;
    use mcc_simcore::DetRng;

    fn observe_group(
        sched: &LayeredKeySchedule,
        rng: &mut DetRng,
        g: u32,
        count: u32,
        lose: &[u32],
    ) -> GroupObservation {
        let mut stream = sched.component_stream(g);
        let mut obs = GroupObservation::default();
        for p in 0..count {
            let is_last = p + 1 == count;
            let component = stream.next(rng, is_last);
            let f = DeltaFields {
                slot: 0,
                group: g,
                seq_in_slot: p,
                last_in_slot: is_last,
                count_in_slot: if is_last { count } else { 0 },
                component,
                decrease: sched.decrease_field(g),
                upgrades: sched.upgrades,
            };
            if !lose.contains(&p) {
                obs.observe(&f);
            }
        }
        obs
    }

    fn setup(upgrades: UpgradeMask) -> (LayeredKeySchedule, DetRng) {
        let mut rng = DetRng::new(7);
        let sched = LayeredKeySchedule::replicated(&mut rng, 4, upgrades);
        (sched, rng)
    }

    #[test]
    fn clean_receiver_stays_with_top_key() {
        let (sched, mut rng) = setup(UpgradeMask::NONE);
        let obs = observe_group(&sched, &mut rng, 2, 5, &[]);
        assert_eq!(
            decide_replicated(&obs, sched.upgrades, 2, 4),
            ReplicatedEligibility::Subscribe {
                group: 2,
                key: sched.top_key(2)
            }
        );
    }

    #[test]
    fn clean_receiver_upgrades_when_authorized() {
        let (sched, mut rng) = setup(UpgradeMask::from_groups(&[3]));
        let obs = observe_group(&sched, &mut rng, 2, 5, &[]);
        assert_eq!(
            decide_replicated(&obs, sched.upgrades, 2, 4),
            ReplicatedEligibility::Subscribe {
                group: 3,
                key: sched.increase_key(3).unwrap()
            }
        );
    }

    #[test]
    fn lossy_receiver_moves_down_with_decrease_key() {
        let (sched, mut rng) = setup(UpgradeMask::NONE);
        let obs = observe_group(&sched, &mut rng, 3, 5, &[1]);
        assert_eq!(
            decide_replicated(&obs, sched.upgrades, 3, 4),
            ReplicatedEligibility::Subscribe {
                group: 2,
                key: sched.decrease_key(2).unwrap()
            }
        );
        // And the partial XOR is not the top key.
        assert_ne!(obs.xor, sched.top_key(3));
    }

    #[test]
    fn minimal_group_loss_forces_rejoin() {
        let (sched, mut rng) = setup(UpgradeMask::NONE);
        let obs = observe_group(&sched, &mut rng, 1, 5, &[0]);
        assert_eq!(
            decide_replicated(&obs, sched.upgrades, 1, 4),
            ReplicatedEligibility::Rejoin
        );
    }

    #[test]
    fn total_blackout_forces_rejoin() {
        let (sched, mut rng) = setup(UpgradeMask::NONE);
        let obs = observe_group(&sched, &mut rng, 3, 4, &[0, 1, 2, 3]);
        assert_eq!(
            decide_replicated(&obs, sched.upgrades, 3, 4),
            ReplicatedEligibility::Rejoin
        );
    }

    #[test]
    fn tuples_match_layout_of_figure_3() {
        let (sched, _) = setup(UpgradeMask::from_groups(&[2, 4]));
        assert_eq!(sched.valid_keys(1).len(), 2); // top + decrease
        assert_eq!(sched.valid_keys(2).len(), 3); // + authorized increase
        assert_eq!(sched.valid_keys(4).len(), 2); // top + increase (maximal)
    }
}
