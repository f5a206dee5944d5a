//! # mcc-delta — Distribution of ELigibility To Access
//!
//! DELTA (paper §3.1) is the protocol-specific half of the paper's defence
//! against inflated subscription: the sender embeds *dynamic group keys*
//! into the multicast data stream itself, arranged so a receiver can only
//! reconstruct the keys for the subscription level its congestion state
//! entitles it to:
//!
//! 1. an **uncongested** receiver reconstructs updated keys for its current
//!    groups (top keys, [`layered::LayeredKeySchedule::top_key`]),
//! 2. a **congested** receiver obtains keys for a *lower* level (decrease
//!    keys carried in the decrease fields of higher groups),
//! 3. an uncongested receiver obtains the key for the *next* group only
//!    when the protocol **authorizes** an upgrade (increase keys).
//!
//! Instantiations provided, mirroring the paper's coverage:
//!
//! * `layered` — cumulative layered multicast with congestion = one loss
//!   (FLID-DL, RLC; paper Figure 4),
//! * `replicated` — replicated multicast (destination-set grouping;
//!   paper Figure 5),
//! * [`threshold`] — loss-rate-threshold protocols (RLM/MLDA/WEBRC) via
//!   Shamir's `(k, n)` secret sharing over GF(65521) (paper §3.1.2),
//! * [`ecn`] — the explicit-congestion-notification adaptation (routers
//!   scramble the component field of marked packets),
//! * `naive` (test-only) — the paper's single-key straw man, implemented
//!   so its insecurity is demonstrated by an executable test,
//! * [`overhead`] — the closed-form overhead model behind Figure 9.
//!
//! This crate is pure algorithm — no networking. `mcc-flid` wires it into
//! packets, and `mcc-sigma` checks the resulting keys at edge routers.

pub mod ecn;
pub(crate) mod fields;
pub(crate) mod key;
pub(crate) mod layered;
#[cfg(test)]
mod naive;
pub mod overhead;
pub(crate) mod replicated;
pub mod threshold;

pub use fields::{DeltaFields, UpgradeMask};
pub use key::{Key, KEY_LEAD, PAPER_KEY_BITS};
pub use layered::{
    decide_layered, ComponentStream, Eligibility, GroupObservation, LayeredKeySchedule,
    SlotObservation,
};
pub use replicated::{decide_replicated, ReplicatedEligibility};

#[cfg(test)]
mod proptests {
    use crate::fields::{DeltaFields, UpgradeMask};
    use crate::key::Key;
    use crate::layered::{decide_layered, Eligibility, LayeredKeySchedule, SlotObservation};
    use crate::threshold::{reconstruct, split, Share};
    use mcc_simcore::DetRng;
    use proptest::prelude::*;

    /// Deliver a full slot of an `n`-group session with per-packet loss
    /// decided by `lost(g, p)`; returns (schedule, observation).
    fn run_slot(
        seed: u64,
        n: u32,
        counts: &[u32],
        upgrades: UpgradeMask,
        lost: impl Fn(u32, u32) -> bool,
    ) -> (LayeredKeySchedule, SlotObservation) {
        let mut rng = DetRng::new(seed);
        let sched = LayeredKeySchedule::generate(&mut rng, n, upgrades);
        let mut obs = SlotObservation::new(0, n);
        for g in 1..=n {
            let count = counts[(g - 1) as usize];
            let mut stream = sched.component_stream(g);
            for p in 0..count {
                let is_last = p + 1 == count;
                let f = DeltaFields {
                    slot: 0,
                    group: g,
                    seq_in_slot: p,
                    last_in_slot: is_last,
                    count_in_slot: if is_last { count } else { 0 },
                    component: stream.next(&mut rng, is_last),
                    decrease: sched.decrease_field(g),
                    upgrades,
                };
                if !lost(g, p) {
                    obs.observe(&f);
                }
            }
        }
        (sched, obs)
    }

    proptest! {
        /// Soundness: whatever the loss pattern, every key the decision
        /// procedure emits is valid for its group in the SIGMA sense.
        #[test]
        fn decided_keys_are_always_valid(
            seed in 0u64..1000,
            n in 2u32..8,
            current in 1u32..8,
            loss_mask in prop::collection::vec(prop::bool::weighted(0.15), 64),
            upgrade_bits in 0u32..256,
        ) {
            let current = current.min(n);
            let counts: Vec<u32> = (0..n).map(|g| 3 + (g % 3)).collect();
            let upgrades = UpgradeMask(upgrade_bits & ((1u32 << n) - 1) & !1);
            let (sched, obs) = run_slot(seed, n, &counts, upgrades, |g, p| {
                let idx = ((g * 13 + p * 7) as usize) % loss_mask.len();
                loss_mask[idx]
            });
            if let Eligibility::Subscribe { level, keys } = decide_layered(&obs, current, n) {
                prop_assert!(level >= 1 && level <= n);
                prop_assert_eq!(keys.len() as u32, level);
                for (g, k) in keys {
                    prop_assert!(
                        sched.valid_keys(g).contains(&k),
                        "invalid key for group {}", g
                    );
                }
            }
        }

        /// Security: a receiver that lost any packet in groups 1..=g can
        /// never emit the top key γ_g for its own level from the partial
        /// XOR (64-bit keys make chance collisions negligible).
        #[test]
        fn lossy_prefix_never_yields_top_key(
            seed in 0u64..1000,
            n in 2u32..8,
            lose_group in 1u32..8,
            lose_pkt in 0u32..3,
        ) {
            let lose_group = lose_group.min(n);
            let counts: Vec<u32> = vec![3; n as usize];
            let (sched, obs) = run_slot(seed, n, &counts, UpgradeMask::NONE,
                |g, p| g == lose_group && p == lose_pkt);
            for g in lose_group..=n {
                prop_assert_ne!(obs.top_key(g), sched.top_key(g));
            }
            // Groups strictly below the loss are unaffected.
            for g in 1..lose_group {
                prop_assert_eq!(obs.top_key(g), sched.top_key(g));
            }
        }

        /// The XOR telescope closes for any packet count ≥ 1.
        #[test]
        fn component_stream_always_telescopes(seed in 0u64..5000, count in 1u32..200) {
            let mut rng = DetRng::new(seed);
            let sched = LayeredKeySchedule::generate(&mut rng, 1, UpgradeMask::NONE);
            let mut s = sched.component_stream(1);
            let mut acc = Key::ZERO;
            for p in 0..count {
                acc = acc ^ s.next(&mut rng, p + 1 == count);
            }
            prop_assert_eq!(acc, sched.top_key(1));
        }

        /// Shamir: any k-subset reconstructs; the scheme is agnostic to
        /// which packets survive.
        #[test]
        fn shamir_any_k_subset_reconstructs(
            seed in 0u64..1000,
            secret in 0u32..65521,
            k in 1u32..8,
            extra in 0u32..8,
            pick in 0u64..10_000,
        ) {
            let n = k + extra;
            let mut rng = DetRng::new(seed);
            let shares = split(secret, k, n, &mut rng);
            // Choose a pseudo-random k-subset driven by `pick`.
            let mut chosen: Vec<Share> = Vec::new();
            let mut state = pick;
            let mut pool: Vec<Share> = shares.clone();
            for _ in 0..k {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let idx = (state >> 33) as usize % pool.len();
                chosen.push(pool.swap_remove(idx));
            }
            prop_assert_eq!(reconstruct(&chosen), secret);
        }
    }
}
