//! The observability layer's two contracts, exercised through the
//! umbrella crate:
//!
//! 1. **Inert**: turning the flight recorder on does not perturb the
//!    simulation — a traced registry run serializes byte for byte like
//!    the untraced run the golden pins cover.
//! 2. **Inert and reproducible on any topology**: on random trees and
//!    parking lots, a traced run delivers exactly the bits an untraced
//!    run does, and two traced runs render identical JSONL and pcapng.
//!
//! A third test pins what the trace says about receivers: every
//! policy's `flid_layer` lines are its level record's transitions.

use proptest::prelude::*;
use robust_multicast::core::obs::{capture, render_runs};
use robust_multicast::core::registry::{self};
use robust_multicast::core::runner::run_serial;
use robust_multicast::core::{
    McastSessionSpec, Params, ReceiverSpec, Topology, TopologySpec, Variant,
};
use robust_multicast::flid::{FlidReceiver, ReplicatedReceiver, ThresholdReceiver};
use robust_multicast::obs::{Recorder, DEFAULT_RING_CAP};
use robust_multicast::simcore::SimTime;
use std::collections::BTreeMap;

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

/// A level transition `(t in ns, from, to)`; the first is from `u32::MAX`.
type Transition = (u64, u32, u32);

/// The integer field `key` of one flat JSONL line.
fn field(line: &str, key: &str) -> u64 {
    let at = line.find(&format!("\"{key}\":")).expect("field present") + key.len() + 3;
    let digits = line[at..].split([',', '}']).next().expect("a value");
    digits.parse().expect("an integer field")
}

/// Every policy's layer events mirror its level record: in a dumbbell
/// with a FLID-DS, a replicated and a threshold session (one replicated
/// receiver leaving mid-run), each receiver's `flid_layer` lines are
/// exactly the steps of its `level_trace` to a new level — the first from
/// `u32::MAX`, the leaver's last to 0.
#[test]
fn every_policys_layer_events_mirror_its_level_trace() {
    let mut spec = TopologySpec::new(Topology::Dumbbell, 5, 1_500_000);
    let leaver = ReceiverSpec::new().leave_at(SimTime::from_secs(12));
    spec.mcast = vec![
        McastSessionSpec::honest(Variant::FlidDs, 1),
        McastSessionSpec::new(Variant::Replicated)
            .with_receivers(vec![ReceiverSpec::new(), leaver]),
        McastSessionSpec::honest(Variant::Threshold, 1),
    ];
    let (t, out) = capture("layers", || {
        let mut t = spec.build();
        t.run_secs(20);
        t
    });

    let mut events: BTreeMap<u32, Vec<Transition>> = BTreeMap::new();
    for line in out
        .jsonl
        .lines()
        .filter(|l| l.contains("\"ev\":\"flid_layer\""))
    {
        let step = (
            field(line, "t"),
            field(line, "from") as u32,
            field(line, "to") as u32,
        );
        events
            .entry(field(line, "agent") as u32)
            .or_default()
            .push(step);
    }
    let leaver = t.sessions[1].receivers[1];
    for session in &t.sessions {
        for &id in &session.receivers {
            let trace = if let Some(rx) = t.sim.agent_as::<FlidReceiver>(id) {
                &rx.level_trace
            } else if let Some(rx) = t.sim.agent_as::<ReplicatedReceiver>(id) {
                &rx.level_trace
            } else {
                let rx = t.sim.agent_as::<ThresholdReceiver>(id);
                &rx.expect("a multicast receiver").level_trace
            };
            let mut want: Vec<Transition> = Vec::new();
            let mut from = u32::MAX;
            for &(secs, level) in trace {
                if level != from {
                    want.push(((secs * 1e9).round() as u64, from, level));
                    from = level;
                }
            }
            assert!(want.len() >= 2, "{id}: never moved from level 1: {trace:?}");
            assert_eq!(want[0].1, u32::MAX, "{id}: first transition");
            assert_eq!(from == 0, id == leaver, "{id}: only the leaver ends at 0");
            // Same-instant lines sort by content; compare in that order.
            let mut got = events.remove(&id.0).unwrap_or_default();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{id}: flid_layer lines vs level_trace");
        }
    }
    assert!(
        events.is_empty(),
        "layer events of non-receivers: {events:?}"
    );
}
