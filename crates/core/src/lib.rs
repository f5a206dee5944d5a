//! # mcc-core — scenarios, experiments and metrics
//!
//! The public face of the reproduction: everything a downstream user needs
//! to assemble the paper's evaluation (§5) or their own variations.
//!
//! * `scenario` — the declarative layer: [`Variant`] (FLID-DL vs
//!   FLID-DS), unit-suffix literals (`1.mbps()`, `50.secs()`) and the
//!   fluent [`Scenario`] builder,
//! * `topology` — the generic topology layer: [`Topology`] shapes
//!   (dumbbell, parking lot, balanced tree), [`TopologySpec`] and
//!   the one builder every scenario goes through (any mix of multicast
//!   sessions, TCP Reno cross traffic and on-off CBR, with per-receiver
//!   join times, access delays and misbehaviour), with placement-aware
//!   receiver attachment,
//! * [`workload`] — the event-driven membership workload engine:
//!   Poisson join/leave churn and flash crowds over uniformly chosen
//!   sessions, heterogeneous access rates/RTTs and background traffic
//!   mixes, expanded deterministically from the scenario seed into
//!   ordinary receiver/traffic specs,
//! * `config` — the [`Params`] bag every experiment runs under, and
//!   [`set_trace`], which pins the `figures` CLI's `--trace` for the
//!   process (nothing in the workspace reads the environment),
//! * [`experiments`] — one function per figure of the paper (1, 7, 8a–8h,
//!   9a/9b), thin wrappers over the builders, deterministic in their seeds,
//! * [`registry`] — every figure and ablation as a registered
//!   [`registry::Experiment`] object; the source of truth for
//!   the `figures` CLI in `mcc-bench`,
//! * `metrics` — series, damage/containment metrics and quick ASCII charts,
//! * [`obs`] — the observability layer's experiment-level face:
//!   `--trace` capture lifecycle, canonical JSONL/pcapng
//!   rendering and the `OBS_*.json` metrics registry,
//! * [`runner`] — runs independent experiments concurrently with
//!   per-experiment deterministic seeds and emits canonical JSON reports
//!   (`results/BENCH_*.json`); serial and parallel runs are byte-identical.
//!
//! ```no_run
//! // Figure 7 in five lines:
//! use mcc_core::Variant;
//! let result = mcc_core::experiments::attack_experiment(Variant::FlidDs, 200, 100, 1);
//! for s in &result.series {
//!     println!("{}: mean {:.0} bps", s.label, s.mean());
//! }
//! ```

pub(crate) mod config;
pub mod experiments;
pub(crate) mod metrics;
pub mod obs;
pub mod registry;
pub mod runner;
pub(crate) mod scenario;
pub(crate) mod topology;
pub mod workload;

pub use config::{set_trace, Params};
pub use mcc_obs::TraceSpec;
pub use metrics::{ascii_chart, Series};
pub use runner::ExperimentRecord;
pub use scenario::{Scenario, Units, Variant};
pub use topology::{BuiltTopology, McastSessionSpec, ReceiverSpec, Topology, TopologySpec};
pub use workload::{Dist, FlashCrowd, WorkloadSpec};
