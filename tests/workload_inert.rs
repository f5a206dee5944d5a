//! The workload engine's zero-churn inertness contract, exercised
//! through the umbrella crate: attaching a workload that generates
//! nothing (rate-0 Poisson arrivals, homogeneous paper-default links, no
//! flash crowd, no background) must leave a static scenario **byte
//! identical** — same per-receiver monitor series, same SIGMA stats,
//! same trace bytes. This is what lets every pre-churn golden stay
//! pinned while the workload layer is present on every code path.

use proptest::prelude::*;
use robust_multicast::core::obs::capture;
use robust_multicast::core::{McastSessionSpec, Topology, TopologySpec, Variant, WorkloadSpec};
use robust_multicast::simcore::SimDuration;

const HORIZON_SECS: u64 = 8;

/// Run one dumbbell scenario to the horizon inside a forced trace
/// capture and digest everything observable: the bit-exact per-receiver
/// monitor series, every SIGMA module's stats, and the canonical trace
/// sinks (JSONL + pcapng).
fn digest(
    idle_workload: bool,
    variant: Variant,
    receivers: usize,
    cohort: u64,
    seed: u64,
) -> (String, String, String, Vec<u8>) {
    let ((series, sigma), trace) = capture("inert", move || {
        let mut spec = TopologySpec::new(Topology::Dumbbell, seed, 600_000);
        let mut session = McastSessionSpec::honest(variant, receivers);
        session.receivers[0].cohort = cohort;
        spec.mcast = vec![session];
        spec.tcp = 1;
        if idle_workload {
            // Rate-0 arrivals: the engine runs (seeds its RNG, walks the
            // arrival loop) but generates nothing.
            spec.workload = Some(
                WorkloadSpec::none(SimDuration::from_secs(HORIZON_SECS))
                    .poisson(0.0, SimDuration::from_secs(5)),
            );
        }
        let mut t = spec.build();
        t.run_secs(HORIZON_SECS);
        let series: Vec<String> = t.sessions[0]
            .receivers
            .iter()
            .map(|&r| {
                let bits: Vec<u64> = t
                    .series_bps(r, HORIZON_SECS)
                    .iter()
                    .map(|b| b.to_bits())
                    .collect();
                format!("{bits:?}")
            })
            .collect();
        let sigma: Vec<String> = t.sigmas().map(|m| format!("{:?}", m.stats)).collect();
        (series.join("|"), sigma.join(";"))
    });
    (series, sigma, trace.jsonl, trace.pcapng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any defense variant, population and seed, the idle-workload
    /// run is byte-identical to the static run across every observable
    /// surface.
    #[test]
    fn idle_workload_run_is_byte_identical_to_static(
        variant_ix in 0usize..Variant::DEFENSES.len(),
        receivers in 1usize..=3,
        cohort in 1u64..=4,
        seed in 0u64..1_000,
    ) {
        let variant = Variant::DEFENSES[variant_ix];
        let stat = digest(false, variant, receivers, cohort, seed);
        let idle = digest(true, variant, receivers, cohort, seed);
        prop_assert_eq!(&stat.0, &idle.0, "monitor series diverged");
        prop_assert_eq!(&stat.1, &idle.1, "SIGMA stats diverged");
        prop_assert_eq!(&stat.2, &idle.2, "trace JSONL diverged");
        prop_assert_eq!(&stat.3, &idle.3, "pcapng bytes diverged");
        prop_assert!(!stat.2.is_empty(), "vacuous: no trace events recorded");
    }
}
