//! The names this benchmark defines: every end-to-end and per-layer
//! metric with its unit and direction, and the `BENCHMARK.json` manifest
//! generated from them. Later issues quote these names; a self-test
//! keeps the committed manifest equal to this table.

use std::collections::BTreeMap;

use robust_multicast::core::registry::Experiment;
use robust_multicast::core::runner::Json;

use crate::workloads::{suite_defs, WORKLOADS};

/// Seconds one invocation measures for (`BENCHMARK.json` `run_seconds`).
pub const RUN_SECONDS: u64 = 15;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: host time or memory a user of the simulator
/// would see, reported per workload.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    /// Absolute floor under the bound, in the metric's unit: differences
    /// smaller than this are clock or page granularity, not regressions
    /// (used by `compare`; the manifest can carry only the share).
    pub floor: f64,
}

impl EndToEnd {
    /// The difference from `baseline` that counts as a change.
    pub fn tolerance(&self, baseline: f64) -> f64 {
        (self.bound * baseline.abs()).max(self.floor)
    }
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.05,
    },
    EndToEnd {
        name: "run_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "events_per_sec",
        unit: "events/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
        floor: 2.0,
    },
];

use Better::{Higher, Lower};

/// The per-layer metrics with a fixed name: `(name, unit, better)`.
/// Counts are deterministic per seed; `ns`/`ms`/`ratio`/`B` entries are
/// host measurements. The suite's per-experiment walls are appended by
/// [`per_layer`].
const PER_LAYER_FIXED: [(&str, &str, Better); 56] = [
    ("simcore.event_queue.batched_ns_per_op", "ns", Lower),
    ("simcore.event_queue.scattered_ns_per_op", "ns", Lower),
    ("simcore.event_queue.est_share", "ratio", Lower),
    ("simcore.shard.merge_stamped_ns_per_msg", "ns", Lower),
    ("netsim.sim.events", "count", Lower),
    ("netsim.sim.peak_queue_depth", "count", Lower),
    ("netsim.sim.slice_wall_ms.p50", "ms", Lower),
    ("netsim.sim.slice_wall_ms.max", "ms", Lower),
    ("netsim.sim.ns_per_event", "ns", Lower),
    ("netsim.fanout.ns_per_branch.n100", "ns", Lower),
    ("netsim.fanout.ns_per_branch.n2000", "ns", Lower),
    ("netsim.fanout.delivers", "count", Lower),
    ("netsim.queue.droptail_ns_per_pkt", "ns", Lower),
    ("netsim.queue.red_ns_per_pkt", "ns", Lower),
    ("netsim.queue.enqueues", "count", Lower),
    ("netsim.queue.drops", "count", Lower),
    ("netsim.shard.sharded_over_serial", "ratio", Higher),
    ("netsim.shard.root_shard_share", "ratio", Lower),
    ("netsim.shard.shards", "count", Higher),
    ("sigma.router.data_granted", "count", Lower),
    ("sigma.router.subscriptions", "count", Lower),
    ("sigma.router.accepted_keys", "count", Lower),
    ("sigma.router.rejected_keys", "count", Lower),
    ("sigma.router.guard_checks", "count", Lower),
    ("sigma.router.defence_ns_per_event", "ns", Lower),
    ("sigma.keytable.validate_hit_ns", "ns", Lower),
    ("sigma.keytable.validate_miss_ns", "ns", Lower),
    ("sigma.guard.guard_validate_ns", "ns", Lower),
    ("sigma.guard.guard_perturb_ns_per_pkt", "ns", Lower),
    ("sigma.slab.insert_ns", "ns", Lower),
    ("sigma.slab.contains_ns", "ns", Lower),
    ("sigma.slab.grant_ifaces", "count", Lower),
    ("sigma.slab.grant_tables", "count", Lower),
    ("sigma.fec.encode_ns_per_slot", "ns", Lower),
    ("delta.layered.generate_ns_per_slot", "ns", Lower),
    ("delta.layered.component_ns_per_pkt", "ns", Lower),
    ("delta.layered.decide_ns_per_slot", "ns", Lower),
    ("delta.threshold.split_ns", "ns", Lower),
    ("delta.threshold.reconstruct_ns", "ns", Lower),
    ("flid.receiver.subscriptions", "count", Lower),
    ("flid.receiver.layer_changes", "count", Lower),
    ("flid.receiver.joins", "count", Lower),
    ("flid.receiver.leaves", "count", Lower),
    ("flid.cohort.agents", "count", Lower),
    ("flid.cohort.bucket_count.max", "count", Lower),
    ("flid.cohort.modeled_receivers", "count", Higher),
    ("flid.cohort.bytes_per_modeled_receiver", "B", Lower),
    ("tcp.ns_per_event", "ns", Lower),
    ("core.workload.apply_ms", "ms", Lower),
    ("core.workload.arrivals", "count", Lower),
    ("core.topology.build_ms", "ms", Lower),
    ("core.runner.json_render_ms", "ms", Lower),
    ("obs.recorder.traced_over_untraced", "ratio", Lower),
    ("obs.recorder.trace_overflow", "count", Lower),
    ("obs.render.ns_per_event", "ns", Lower),
    ("obs.render.bytes_per_event", "B", Lower),
];

/// The per-layer name of one suite experiment's wall time.
pub fn experiment_wall_name(id: &str) -> String {
    format!("core.runner.experiment_wall_ms.{id}")
}

/// Every per-layer metric, in reporting order.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut all: Vec<(String, &'static str, Better)> = PER_LAYER_FIXED
        .iter()
        .map(|&(name, unit, better)| (name.to_string(), unit, better))
        .collect();
    let at = all
        .iter()
        .position(|(name, ..)| name == "core.runner.json_render_ms")
        .expect("listed above");
    let walls = suite_defs(false)
        .into_iter()
        .map(|def| (experiment_wall_name(def.id()), "ms", Lower));
    all.splice(at..at, walls);
    all
}

/// The values of one traced pass: every per-layer name, initially 0 —
/// which is also what a metric reads on a workload that never enters
/// its layer.
pub struct PerLayerValues {
    values: BTreeMap<String, f64>,
}

impl PerLayerValues {
    pub fn new() -> PerLayerValues {
        PerLayerValues {
            values: per_layer()
                .into_iter()
                .map(|(name, ..)| (name, 0.0))
                .collect(),
        }
    }

    /// Set a metric. Panics on a name the table does not define: a typo
    /// must not silently create a metric nobody declared.
    pub fn set(&mut self, name: &str, value: f64) {
        *self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name:?}")) = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[name]
    }
}

/// `{name: {"value": v, "unit": u}}` in reporting order — the `metrics`
/// object of an invocation's last output line.
pub fn metrics_json(values: impl IntoIterator<Item = (String, f64, &'static str)>) -> Json {
    Json::Obj(
        values
            .into_iter()
            .map(|(name, value, unit)| {
                let entry = Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ]);
                (name, entry)
            })
            .collect(),
    )
}

/// The `BENCHMARK.json` this code implements.
pub fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::Str((*s).into())).collect()),
        ),
        ("paths", Json::Arr(vec![Json::Str("benchmark".into())])),
        ("run_seconds", Json::U64(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::Str(w.name.into())),
                            ("why", Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", Json::Str(m.better.as_str().into())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .into_iter()
                    .map(|(name, unit, better)| {
                        Json::obj([
                            ("name", Json::Str(name)),
                            ("unit", Json::Str(unit.into())),
                            ("better", Json::Str(better.as_str().into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn well_formed(name: &str) -> bool {
        let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok_char)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        names.extend(per_layer().into_iter().map(|(name, ..)| name));
        for name in &names {
            assert!(well_formed(name), "{name:?} breaks [A-Za-z0-9_.-]{{1,64}}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn units_and_whys_fit_the_manifest_limits() {
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        for m in &END_TO_END {
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        }
        for (name, unit, _) in per_layer() {
            assert!(unit_ok(unit), "{name}: {unit}");
        }
        assert!(per_layer().len() <= 128);
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn suite_contributes_one_wall_per_experiment() {
        let walls = per_layer()
            .iter()
            .filter(|(name, ..)| name.starts_with("core.runner.experiment_wall_ms."))
            .count();
        assert_eq!(walls, 19);
        assert_eq!(per_layer().len(), PER_LAYER_FIXED.len() + 19);
    }

    /// The committed `BENCHMARK.json` is exactly what this table says.
    #[test]
    fn committed_manifest_equals_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let committed = json::parse(&text).expect("BENCHMARK.json parses");
        let expected = json::parse(&manifest().to_string()).expect("own output parses");
        assert_eq!(committed, expected);
    }

    #[test]
    #[should_panic(expected = "undeclared per-layer metric")]
    fn undeclared_metric_names_are_rejected() {
        PerLayerValues::new().set("netsim.sim.evnets", 1.0);
    }
}
