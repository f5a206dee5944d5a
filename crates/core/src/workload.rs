//! The event-driven membership workload engine.
//!
//! Every layer below this one used to assume static membership: the
//! receiver population was fixed at build time and stayed subscribed to
//! the end of the run. A [`WorkloadSpec`] replaces that assumption with
//! *arrival processes*: receivers join and leave mid-run (Poisson churn
//! and flash crowds), pick their session uniformly, and draw
//! heterogeneous access rates/RTTs and background-traffic mixes from
//! distributions.
//!
//! ## Determinism discipline
//!
//! The engine never schedules anything itself. [`WorkloadSpec::apply`]
//! is a *pure function* of `(scenario seed, spec)`: it samples every
//! arrival up front from a [`DetRng`] derived from the scenario seed
//! (one forked stream per component, so adding a flash crowd does not
//! perturb the Poisson stream) and expands them into ordinary
//! [`ReceiverSpec`]s / `CbrSpec`s / TCP counts on the
//! [`TopologySpec`]. Joins and departures then run as ordinary
//! deterministic sim events (agent start times and FLID `DEPART`
//! timers), so workload runs are byte-identical across
//! `--threads` values like every other run. No wall clock, no global
//! RNG — the workspace lint gate (`clippy.toml`) holds this module to
//! the same rules as the simulator core.
//!
//! A workload that generates nothing (rate 0, no flash, no background)
//! leaves the spec byte-identical to the static scenario — the
//! zero-churn inertness contract (enforced by proptest in
//! `tests/workload_inert.rs`).

use crate::topology::{CbrSpec, ReceiverSpec, TopologySpec};
use mcc_simcore::{DetRng, SimDuration, SimTime};

/// Salt mixed into the scenario seed for the workload RNG root, so the
/// workload stream is independent of any other seed consumer.
const WORKLOAD_SALT: u64 = 0x57_4B_4C_44; // "WKLD"

/// Forked stream ids, one per sampling component.
const STREAM_ARRIVALS: u64 = 1;
const STREAM_ATTRS: u64 = 2;
const STREAM_FLASH: u64 = 3;
const STREAM_BACKGROUND: u64 = 4;

/// Hard cap on generated arrivals — a mis-set rate fails loudly instead
/// of building a million-agent sim by accident (use cohorts for scale).
pub(crate) const MAX_ARRIVALS: usize = 100_000;

/// A flash crowd: at `at`, the standing population is multiplied.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlashCrowd {
    /// When the crowd hits.
    pub at: SimTime,
    /// Crowd size = `ceil(factor × standing receivers)` extra joins.
    pub factor: f64,
    /// How long crowd members stay (exponential mean).
    pub mean_dwell: SimDuration,
    /// Joins spread uniformly over `[at, at + ramp)` — "100× a group in
    /// seconds", not in one instant.
    pub ramp: SimDuration,
}

/// A scalar distribution for per-receiver attributes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Dist {
    /// Always `v`.
    Const(f64),
    /// Uniform on `[lo, hi)`.
    Uniform { lo: f64, hi: f64 },
}

impl Dist {
    /// Sample one value.
    pub(crate) fn sample(&self, rng: &mut DetRng) -> f64 {
        match *self {
            Dist::Const(v) => v,
            Dist::Uniform { lo, hi } => rng.range_f64(lo, hi),
        }
    }
}

/// Background CBR mix: `count` steady sources with rates drawn from
/// `rate_bps`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BackgroundCbr {
    pub count: usize,
    pub rate_bps: Dist,
}

/// The declarative workload: what churn, flash and background traffic to
/// overlay on a static scenario. Expanded by [`WorkloadSpec::apply`].
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Arrivals are generated on `[0, horizon)`.
    pub(crate) horizon: SimDuration,
    /// Poisson churn: receiver arrivals per second (0 = no churn, the
    /// static population only).
    churn_hz: f64,
    /// Mean of the exponentially distributed churn dwell times.
    mean_dwell: SimDuration,
    /// Optional flash crowd on top of the churn.
    pub(crate) flash: Option<FlashCrowd>,
    /// Access-link capacity per churn receiver, bit/s.
    pub(crate) access_bps: Dist,
    /// Access-link one-way delay per churn receiver, milliseconds.
    pub access_delay_ms: Dist,
    /// Receivers represented by each arrival (1 = an individual agent;
    /// `n > 1` = a cohort of n synchronized receivers — the scale knob).
    pub(crate) cohort: u64,
    /// Extra TCP Reno cross-traffic sessions.
    pub(crate) extra_tcp: usize,
    /// Background CBR mix.
    pub(crate) background: Option<BackgroundCbr>,
}

impl WorkloadSpec {
    /// An inert workload over the given horizon: no churn, homogeneous
    /// paper-default links, no background. Guaranteed to leave any spec
    /// it is applied to unchanged.
    pub fn none(horizon: SimDuration) -> WorkloadSpec {
        WorkloadSpec {
            horizon,
            churn_hz: 0.0,
            mean_dwell: SimDuration::ZERO,
            flash: None,
            access_bps: Dist::Const(10_000_000.0),
            access_delay_ms: Dist::Const(10.0),
            cohort: 1,
            extra_tcp: 0,
            background: None,
        }
    }

    /// Poisson churn at `rate_hz` arrivals/s with the given mean dwell.
    pub fn poisson(mut self, rate_hz: f64, mean_dwell: SimDuration) -> WorkloadSpec {
        assert!(rate_hz.is_finite() && rate_hz >= 0.0, "churn rate");
        self.churn_hz = rate_hz;
        self.mean_dwell = mean_dwell;
        self
    }

    /// Add a flash crowd.
    pub fn flash(mut self, flash: FlashCrowd) -> WorkloadSpec {
        assert!(
            flash.factor.is_finite() && flash.factor >= 0.0,
            "flash factor"
        );
        self.flash = Some(flash);
        self
    }

    /// Heterogeneous access-link rates (bit/s).
    pub fn access_rates(mut self, dist: Dist) -> WorkloadSpec {
        self.access_bps = dist;
        self
    }

    /// Represent each arrival as a cohort of `n` synchronized receivers.
    pub fn cohort(mut self, n: u64) -> WorkloadSpec {
        assert!(n >= 1, "cohort multiplier must be at least 1");
        self.cohort = n;
        self
    }

    /// Add `n` TCP cross-traffic sessions to the mix.
    pub fn extra_tcp(mut self, n: usize) -> WorkloadSpec {
        self.extra_tcp = n;
        self
    }

    /// Add a background CBR mix.
    pub fn background(mut self, bg: BackgroundCbr) -> WorkloadSpec {
        self.background = Some(bg);
        self
    }

    /// Expand the workload into concrete receiver/traffic specs on
    /// `spec`, deterministically from `spec.seed`. Each arrival lands on
    /// a session drawn uniformly and becomes an ordinary
    /// [`ReceiverSpec`] with its `join_at`/`leave_at` lifetime and
    /// sampled access parameters, appended in arrival-time order (the
    /// append order — and therefore agent/node ids — is a pure function
    /// of the spec, preserving the byte-identity contract).
    pub fn apply(&self, spec: &mut TopologySpec) {
        let mut root = DetRng::new(spec.seed ^ WORKLOAD_SALT);
        let mut arrivals_rng = root.fork(STREAM_ARRIVALS);
        let mut attrs_rng = root.fork(STREAM_ATTRS);
        let mut flash_rng = root.fork(STREAM_FLASH);
        let mut background_rng = root.fork(STREAM_BACKGROUND);

        let horizon = self.horizon.as_secs_f64();
        // (join, leave) lifetimes, churn stream first.
        let mut lifetimes: Vec<(SimTime, SimTime)> = Vec::new();
        if self.churn_hz > 0.0 {
            let mean_gap = 1.0 / self.churn_hz;
            let mut t = arrivals_rng.exponential_secs(mean_gap);
            while t < horizon {
                assert!(lifetimes.len() < MAX_ARRIVALS, "workload arrival cap");
                let join = SimTime::from_nanos((t * 1e9) as u64);
                let dwell = arrivals_rng.exponential_secs(self.mean_dwell.as_secs_f64().max(1e-9));
                let leave = join + SimDuration::from_nanos((dwell * 1e9) as u64);
                lifetimes.push((join, leave));
                t += arrivals_rng.exponential_secs(mean_gap);
            }
        }
        // Flash crowd: factor × the standing population (cohort-weighted
        // receivers specified statically), spread over the ramp.
        if let Some(f) = &self.flash {
            let standing: u64 = spec
                .mcast
                .iter()
                .flat_map(|m| m.receivers.iter().map(|r| r.cohort))
                .sum();
            let crowd = (f.factor * standing.max(1) as f64).ceil() as usize;
            assert!(
                lifetimes.len() + crowd <= MAX_ARRIVALS,
                "workload arrival cap"
            );
            let ramp = f.ramp.as_secs_f64().max(1e-9);
            for _ in 0..crowd {
                let join =
                    f.at + SimDuration::from_nanos((flash_rng.range_f64(0.0, ramp) * 1e9) as u64);
                let dwell = flash_rng.exponential_secs(f.mean_dwell.as_secs_f64().max(1e-9));
                lifetimes.push((join, join + SimDuration::from_nanos((dwell * 1e9) as u64)));
            }
        }
        // Canonical arrival order: by join time, stream order on ties.
        lifetimes.sort_by_key(|&(join, leave)| (join, leave));

        if !lifetimes.is_empty() {
            assert!(
                !spec.mcast.is_empty(),
                "a churn workload needs at least one session to join"
            );
            for (join_at, leave_at) in lifetimes {
                let si = attrs_rng.below(spec.mcast.len() as u64) as usize;
                let bps = (self.access_bps.sample(&mut attrs_rng).max(1_000.0)) as u64;
                let delay_ms = self.access_delay_ms.sample(&mut attrs_rng).max(0.1);
                spec.mcast[si].receivers.push(ReceiverSpec {
                    join_at,
                    leave_at,
                    adversary: mcc_attack::AttackPlan::honest(),
                    access_delay: SimDuration::from_nanos((delay_ms * 1e6) as u64),
                    access_bps: bps,
                    cohort: self.cohort,
                });
            }
        }

        spec.tcp += self.extra_tcp;
        if let Some(bg) = &self.background {
            for _ in 0..bg.count {
                let rate = (bg.rate_bps.sample(&mut background_rng).max(1_000.0)) as u64;
                spec.extra_cbr.push(CbrSpec::steady(rate));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Units, Variant};
    use crate::topology::{McastSessionSpec, Topology};

    fn base_spec(sessions: usize) -> TopologySpec {
        let mut spec = TopologySpec::new(Topology::Dumbbell, 7, 1.mbps());
        spec.mcast = (0..sessions)
            .map(|_| McastSessionSpec::honest(Variant::FlidDs, 1))
            .collect();
        spec
    }

    #[test]
    fn inert_workload_leaves_the_spec_byte_identical() {
        let mut spec = base_spec(2);
        let before = format!("{spec:?}");
        WorkloadSpec::none(SimDuration::from_secs(60)).apply(&mut spec);
        assert_eq!(format!("{spec:?}"), before);

        // Rate-0 Poisson is inert too.
        WorkloadSpec::none(SimDuration::from_secs(60))
            .poisson(0.0, SimDuration::from_secs(10))
            .apply(&mut spec);
        assert_eq!(format!("{spec:?}"), before);
    }

    #[test]
    fn poisson_expansion_is_a_pure_function_of_the_seed() {
        let w = WorkloadSpec::none(SimDuration::from_secs(120))
            .poisson(0.5, SimDuration::from_secs(20));
        let mut a = base_spec(2);
        let mut b = base_spec(2);
        w.apply(&mut a);
        w.apply(&mut b);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "same seed, same expansion"
        );
        let n: usize = a.mcast.iter().map(|m| m.receivers.len()).sum();
        assert!(n > 2, "expected some arrivals, got {}", n - 2);

        let mut c = base_spec(2);
        c.seed = 8;
        w.apply(&mut c);
        assert_ne!(
            format!("{a:?}").replace("seed: 7", "seed: 8"),
            format!("{c:?}"),
            "different seed, different arrivals"
        );
    }

    #[test]
    fn arrivals_are_ordered_and_leave_after_joining() {
        let mut spec = base_spec(1);
        WorkloadSpec::none(SimDuration::from_secs(200))
            .poisson(1.0, SimDuration::from_secs(15))
            .apply(&mut spec);
        let churn = &spec.mcast[0].receivers[1..];
        assert!(!churn.is_empty());
        for w in churn.windows(2) {
            assert!(w[0].join_at <= w[1].join_at, "arrival-time order");
        }
        for r in churn {
            assert!(r.leave_at > r.join_at, "dwell must be positive");
            assert!(r.leave_at < SimTime::MAX);
        }
    }

    #[test]
    fn flash_crowd_multiplies_the_standing_population() {
        let mut spec = base_spec(1);
        spec.mcast[0].receivers[0].cohort = 4; // standing population 4
        WorkloadSpec::none(SimDuration::from_secs(100))
            .flash(FlashCrowd {
                at: SimTime::from_secs(30),
                factor: 10.0,
                mean_dwell: SimDuration::from_secs(20),
                ramp: SimDuration::from_secs(2),
            })
            .apply(&mut spec);
        let churn = &spec.mcast[0].receivers[1..];
        assert_eq!(churn.len(), 40, "10× the standing 4 receivers");
        for r in churn {
            assert!(r.join_at >= SimTime::from_secs(30));
            assert!(r.join_at < SimTime::from_secs(32), "inside the ramp");
        }
    }

    #[test]
    fn arrivals_spread_over_every_session() {
        let mut spec = base_spec(4);
        let w = WorkloadSpec::none(SimDuration::from_secs(400))
            .poisson(1.0, SimDuration::from_secs(10));
        w.apply(&mut spec);
        let counts: Vec<usize> = spec.mcast.iter().map(|m| m.receivers.len() - 1).collect();
        assert!(
            counts.iter().all(|&c| c > 0),
            "every session gets arrivals: {counts:?}"
        );

        // The per-session counts partition every generated arrival.
        let mut one = base_spec(1);
        w.apply(&mut one);
        let total = one.mcast[0].receivers.len() - 1;
        assert!(total > 50, "expected a few hundred arrivals, got {total}");
        assert_eq!(counts.iter().sum::<usize>(), total);
    }

    #[test]
    fn heterogeneous_attributes_come_from_their_distributions() {
        let mut spec = base_spec(1);
        let mut w = WorkloadSpec::none(SimDuration::from_secs(200))
            .poisson(0.5, SimDuration::from_secs(10))
            .access_rates(Dist::Uniform {
                lo: 1_000_000.0,
                hi: 5_000_000.0,
            });
        w.access_delay_ms = Dist::Uniform { lo: 5.0, hi: 50.0 };
        w.apply(&mut spec);
        let churn = &spec.mcast[0].receivers[1..];
        assert!(churn.len() > 10);
        for r in churn {
            assert!(
                (1_000_000..5_000_000).contains(&r.access_bps),
                "{}",
                r.access_bps
            );
            assert!(r.access_delay >= SimDuration::from_millis(5));
            assert!(r.access_delay <= SimDuration::from_millis(50));
        }
        let distinct: std::collections::HashSet<u64> = churn.iter().map(|r| r.access_bps).collect();
        assert!(distinct.len() > 1, "rates must actually vary");
    }

    #[test]
    fn background_mix_and_tcp_land_on_the_spec() {
        let mut spec = base_spec(1);
        WorkloadSpec::none(SimDuration::from_secs(60))
            .extra_tcp(2)
            .background(BackgroundCbr {
                count: 3,
                rate_bps: Dist::Const(50_000.0),
            })
            .apply(&mut spec);
        assert_eq!(spec.tcp, 2);
        assert_eq!(spec.extra_cbr.len(), 3);
        assert!(spec.extra_cbr.iter().all(|c| c.rate_bps == 50_000));
    }
}
