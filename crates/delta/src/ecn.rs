//! ECN adaptation of DELTA (paper §3.1.2, "Congestion notification").
//!
//! In ECN networks, congestion is signalled by marking packets rather than
//! dropping them, so a marked packet still *arrives* — and would let an
//! ineligible receiver reconstruct group keys. The paper's fix: "edge
//! routers simply alter the content of the component field in each marked
//! packet", destroying its contribution to the XOR telescope. Decrease
//! fields are left intact — a congested receiver must still be able to step
//! down.

use crate::fields::DeltaFields;
use crate::key::Key;
use mcc_simcore::DetRng;

/// Scramble the component field of a congestion-marked packet.
///
/// Idempotence is irrelevant: each call randomizes again, and any
/// randomization destroys the key contribution.
pub fn scramble_marked_component(fields: &mut DeltaFields, rng: &mut DetRng) {
    fields.component = Key::nonce(rng);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::UpgradeMask;
    use crate::layered::{GroupObservation, LayeredKeySchedule};

    #[test]
    fn scrambling_breaks_key_reconstruction() {
        let mut rng = DetRng::new(5);
        let sched = LayeredKeySchedule::generate(&mut rng, 3, UpgradeMask::NONE);
        let mut stream = sched.component_stream(1);
        let count = 5;
        let mut obs_clean = GroupObservation::default();
        let mut obs_marked = GroupObservation::default();
        for p in 0..count {
            let is_last = p + 1 == count;
            let mut f = DeltaFields {
                slot: 0,
                group: 1,
                seq_in_slot: p,
                last_in_slot: is_last,
                count_in_slot: if is_last { count } else { 0 },
                component: stream.next(&mut rng, is_last),
                decrease: None,
                upgrades: UpgradeMask::NONE,
            };
            obs_clean.observe(&f);
            // Mark (and scramble) packet 2 on the second receiver's copy.
            if p == 2 {
                scramble_marked_component(&mut f, &mut rng);
            }
            obs_marked.observe(&f);
        }
        assert_eq!(obs_clean.xor, sched.top_key(1));
        // The marked receiver "received everything" yet cannot rebuild γ_1.
        assert!(obs_marked.complete());
        assert_ne!(obs_marked.xor, sched.top_key(1));
    }

    #[test]
    fn decrease_field_survives_scrambling() {
        let mut rng = DetRng::new(6);
        let d = Key::nonce(&mut rng);
        let mut f = DeltaFields {
            slot: 1,
            group: 2,
            seq_in_slot: 0,
            last_in_slot: false,
            count_in_slot: 0,
            component: Key::nonce(&mut rng),
            decrease: Some(d),
            upgrades: UpgradeMask::NONE,
        };
        scramble_marked_component(&mut f, &mut rng);
        assert_eq!(f.decrease, Some(d), "step-down must remain possible");
    }
}
