//! The observability layer's two contracts, exercised through the
//! umbrella crate:
//!
//! 1. **Inert**: turning the flight recorder on does not perturb the
//!    simulation — a traced registry run serializes byte for byte like
//!    the untraced run the golden pins cover.
//! 2. **Inert and reproducible on any topology**: on random trees and
//!    parking lots, a traced run delivers exactly the bits an untraced
//!    run does, and two traced runs render identical JSONL and pcapng.

use proptest::prelude::*;
use robust_multicast::core::obs::{capture, render_runs};
use robust_multicast::core::registry::{self};
use robust_multicast::core::runner::run_serial;
use robust_multicast::core::{McastSessionSpec, Params, Topology, TopologySpec, Variant};
use robust_multicast::obs::{Recorder, DEFAULT_RING_CAP};
use robust_multicast::simcore::SimTime;

/// Quick-mode serial JSON of one registry experiment — the same bytes the
/// golden pins in `tests/registry.rs` compare against.
fn quick_json(id: &str) -> String {
    let params = Params::quick(true);
    let def = registry::find(id).expect("registered");
    let specs = registry::specs(&[def], &params);
    run_serial("pin", "quick", &specs).to_json_string()
}

/// Contract 1: tracing is provably inert. A registry run inside a forced
/// capture produces the same experiment JSON as the plain run, and the
/// capture itself is non-trivial (events were actually recorded — this
/// is not vacuous because the recorder never attached).
#[test]
fn traced_registry_run_is_byte_identical_to_untraced() {
    let plain = quick_json("tree_placement");
    let (traced, out) = capture("tree_placement", || quick_json("tree_placement"));
    assert_eq!(
        plain, traced,
        "attaching the flight recorder changed the experiment bytes"
    );
    assert!(
        !out.jsonl.is_empty(),
        "the capture recorded nothing — the inertness check is vacuous"
    );
    assert!(
        out.jsonl
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')),
        "JSONL lines must be flat JSON objects"
    );
    // The pcapng stream covers the packet-lifecycle subset of the same
    // events; a run with traffic must produce more than the bare header.
    assert!(out.pcapng.len() > robust_multicast::obs::pcapng::HEADER_LEN);
    let obs = out.obs.to_string();
    assert!(obs.contains("\"experiment\":\"tree_placement\""), "{obs}");
    assert!(obs.contains("\"transmits\""), "{obs}");
    assert!(obs.contains("\"wall_ns\""), "{obs}");
}

/// Build a single-session FLID-DL scenario over `topology` with `k`
/// honest receivers, run it to `horizon` (with a tracer attached when
/// `traced`), and hand back the recorder plus the monitor's per-receiver
/// bit totals (the simulation-side digest).
fn run(
    topology: Topology,
    k: usize,
    horizon: SimTime,
    traced: bool,
) -> (Option<Recorder>, Vec<u64>) {
    let mut spec = TopologySpec::new(topology, 1, 400_000);
    spec.mcast = vec![McastSessionSpec::honest(Variant::FlidDl, k)];
    let mut t = spec.build();
    if traced {
        t.sim
            .world
            .attach_tracer(Recorder::new(0, DEFAULT_RING_CAP));
    }
    t.sim.run_until(horizon);
    let rec = t.sim.world.take_tracer();
    let bits = t.sessions[0]
        .receivers
        .iter()
        .map(|&r| t.sim.monitor().agent_bits(r))
        .collect();
    (rec, bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Contract 2: for any random tree or parking lot, the recorder does
    /// not perturb the simulation, and the canonical sinks are a
    /// function of the scenario alone — two traced runs render the same
    /// bytes.
    #[test]
    fn trace_sinks_are_inert_and_reproducible_on_random_topologies(
        tree in prop::bool::weighted(0.5),
        depth in 1u32..=3,
        fanout in 2u32..=3,
        hops in 1usize..=3,
        receivers in 2usize..=6,
    ) {
        let horizon = SimTime::from_secs(4);
        let topology = if tree {
            Topology::BalancedTree { depth, fanout }
        } else {
            Topology::ParkingLot { bottlenecks: hops, per_hop_cbr: None }
        };

        let (_, plain_bits) = run(topology, receivers, horizon, false);
        let (first_rec, first_bits) = run(topology, receivers, horizon, true);
        let (second_rec, _) = run(topology, receivers, horizon, true);
        prop_assert_eq!(plain_bits, first_bits, "tracing changed the simulation");

        let first = render_runs("prop", &mut [first_rec.expect("traced")]);
        let second = render_runs("prop", &mut [second_rec.expect("traced")]);
        prop_assert!(!first.jsonl.is_empty(), "vacuous: no events recorded");
        prop_assert_eq!(&first.jsonl, &second.jsonl, "JSONL diverged");
        prop_assert_eq!(&first.pcapng, &second.pcapng, "pcapng bytes diverged");
    }
}
