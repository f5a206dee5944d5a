//! The traced pass: one workload run with the benchmark's own spans
//! around every public call, once more with a flight recorder attached,
//! and the per-layer kernels — everything behind the per-layer metrics.

use robust_multicast::core::experiments::peak_rss_bytes;
use robust_multicast::core::obs::render_runs;
use robust_multicast::core::runner::{run_serial, Report};
use robust_multicast::core::BuiltTopology;
use robust_multicast::flid::FlidReceiver;
use robust_multicast::netsim::{queue::RedConfig, Queue};
use robust_multicast::obs::Recorder;

use crate::kernels::{self, Scale};
use crate::metrics::{experiment_wall_name, per_layer, PerLayerValues};
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{
    apply_workload, check, run_to_budget, suite_defs, suite_specs, timed_build, Check, Outcome,
    QueueShape, SimJob, Workload,
};

/// Ring capacity of the attached recorder: the newest 2²⁰ events are
/// retained (≈75 MiB) and rendered; older ones count as overflow.
/// Smoke runs keep an eighth of that.
const RECORDER_CAP: usize = 1 << 20;

/// Simulated seconds of the two macro kernels (`netsim.shard`,
/// `sigma.router.defence_ns_per_event`), each ≈1 M events per second.
const MACRO_KERNEL_SECS: u64 = 3;

/// What a traced pass produced.
pub struct Traced {
    pub values: PerLayerValues,
    pub spans: Spans,
    pub checks: Vec<Check>,
    /// Run wall with the recorder attached (for the suite, which builds
    /// its simulators internally, with spans only).
    pub traced_run_wall_s: f64,
}

pub fn traced_pass(w: &Workload, seed: u64, smoke: bool) -> Traced {
    let mut t = Traced {
        values: PerLayerValues::new(),
        spans: Spans::new(),
        checks: Vec::new(),
        traced_run_wall_s: 0.0,
    };
    match w.sim_job(seed, smoke) {
        Some((job, queue)) => traced_sim(&mut t, &job, queue, smoke),
        None => {
            traced_suite(&mut t, seed, smoke);
            run_kernels(&mut t, seed, smoke);
        }
    }
    // A kernel that divided by zero would otherwise flow into the result.
    let broken: Vec<String> = per_layer()
        .into_iter()
        .map(|(name, ..)| name)
        .filter(|name| !t.values.get(name).is_finite())
        .collect();
    t.checks.push(check(
        "per_layer_values_finite",
        broken.is_empty(),
        format!("{} metrics, not finite: {broken:?}", per_layer().len()),
    ));
    t
}

// ---------------------------------------------------------------------------
// Simulation workloads
// ---------------------------------------------------------------------------

fn traced_sim(t: &mut Traced, job: &SimJob, queue: QueueShape, smoke: bool) {
    // Repetition A: no recorder; spans around set-up, the run and each
    // simulated second of it. It goes first, while the process's peak
    // RSS is still its own to raise.
    let rss_before = peak_rss_bytes();
    let mut spec = job.spec();
    let build = t.spans.open("core.topology.build", None);
    let apply = t.spans.open("core.workload.apply", Some(build));
    let arrivals = apply_workload(&mut spec);
    let apply_s = t.spans.close(apply);
    let mut net = spec.build();
    t.spans.close(build);

    let run = t.spans.open("netsim.sim.run_until", None);
    let mut slices = vec![t.spans.open("netsim.sim.slice", Some(run))];
    let end_ms = run_to_budget(&mut net, job, |ms| {
        if ms % 1000 == 0 {
            t.spans.close(*slices.last().expect("one open slice"));
            slices.push(t.spans.open("netsim.sim.slice", Some(run)));
        }
    });
    // The last slice is the partial second the budget was met in (or an
    // empty one when it was met on a boundary).
    let last = slices.pop().expect("one open slice");
    t.spans.close(last);
    if end_ms % 1000 != 0 {
        slices.push(last);
    }
    let run_wall_s = t.spans.close(run);
    let untraced = Outcome::of_sim(&net, job, end_ms);
    let events = untraced.events.expect("a simulation counts events");
    let rss_rise = peak_rss_bytes().saturating_sub(rss_before);

    let slice_ms: Vec<f64> = slices
        .iter()
        .map(|&id| (t.spans.spans[id].end_ns - t.spans.spans[id].start_ns) as f64 / 1e6)
        .collect();
    let v = &mut t.values;
    v.set("core.workload.apply_ms", apply_s * 1e3);
    v.set("core.workload.arrivals", arrivals as f64);
    v.set(
        "core.topology.build_ms",
        t.spans.self_time_ns(build) as f64 / 1e6,
    );
    v.set("netsim.sim.events", events as f64);
    v.set(
        "netsim.sim.peak_queue_depth",
        untraced.peak_queue_depth as f64,
    );
    v.set("netsim.sim.slice_wall_ms.p50", median(&slice_ms));
    v.set(
        "netsim.sim.slice_wall_ms.max",
        slice_ms.iter().copied().fold(0.0, f64::max),
    );
    v.set("netsim.sim.ns_per_event", run_wall_s * 1e9 / events as f64);
    v.set(
        "sigma.router.data_granted",
        untraced.sigma.data_granted as f64,
    );
    v.set(
        "sigma.router.subscriptions",
        untraced.sigma.subscriptions as f64,
    );
    v.set(
        "sigma.router.accepted_keys",
        untraced.sigma.accepted_keys as f64,
    );
    v.set(
        "sigma.router.rejected_keys",
        untraced.sigma.rejected_keys as f64,
    );
    v.set(
        "sigma.slab.grant_ifaces",
        untraced.sigma.grant_ifaces as f64,
    );
    v.set(
        "sigma.slab.grant_tables",
        untraced.sigma.grant_tables as f64,
    );
    let population = Population::of(&net);
    v.set(
        "flid.receiver.subscriptions",
        population.subscriptions as f64,
    );
    v.set("flid.cohort.agents", population.cohort_agents as f64);
    v.set(
        "flid.cohort.bucket_count.max",
        population.max_buckets as f64,
    );
    v.set("flid.cohort.modeled_receivers", population.modeled as f64);
    if population.modeled > 0 {
        v.set(
            "flid.cohort.bytes_per_modeled_receiver",
            rss_rise as f64 / population.modeled as f64,
        );
    }
    drop(net);

    // The kernels, and with them the outside estimate of the event
    // queue's share: events × kernel ns/op ÷ run wall.
    run_kernels(t, job.seed, smoke);
    let queue_ns = t.values.get(match queue {
        QueueShape::Batched => "simcore.event_queue.batched_ns_per_op",
        QueueShape::Scattered => "simcore.event_queue.scattered_ns_per_op",
    });
    t.values.set(
        "simcore.event_queue.est_share",
        events as f64 * queue_ns / (run_wall_s * 1e9),
    );

    // Repetition B: the same run with a flight recorder attached.
    let (mut net, _) = timed_build(job);
    let cap = if smoke {
        RECORDER_CAP / 8
    } else {
        RECORDER_CAP
    };
    net.sim.world.attach_tracer(Recorder::new(0, cap));
    let run = t.spans.open("netsim.sim.run_until[recorder]", None);
    let end_ms = run_to_budget(&mut net, job, |_| {});
    t.traced_run_wall_s = t.spans.close(run);
    let recorder = net.sim.world.take_tracer().expect("attached above");
    let traced = Outcome::of_sim(&net, job, end_ms);
    drop(net);
    let m = recorder.total_metrics();
    let v = &mut t.values;
    v.set(
        "obs.recorder.traced_over_untraced",
        t.traced_run_wall_s / run_wall_s,
    );
    v.set("obs.recorder.trace_overflow", m.trace_overflow as f64);
    v.set("netsim.fanout.delivers", m.delivers as f64);
    v.set("netsim.queue.enqueues", m.enqueues as f64);
    v.set("netsim.queue.drops", m.drops as f64);
    v.set("sigma.router.guard_checks", m.guard_checks as f64);
    v.set("flid.receiver.layer_changes", m.layer_changes as f64);
    v.set("flid.receiver.joins", m.joins as f64);
    v.set("flid.receiver.leaves", m.leaves as f64);
    t.checks.extend([
        check(
            "recorder_is_inert",
            traced == untraced,
            format!(
                "digest {:016x} traced vs {:016x} untraced",
                traced.digest, untraced.digest
            ),
        ),
        // Full byte conservation needs an oracle inside the simulator
        // (ROADMAP 4(b)); from outside, the packet lifecycle must at
        // least be monotone.
        check(
            "transmits_le_enqueues",
            m.transmits <= m.enqueues,
            format!("{} transmits, {} enqueues", m.transmits, m.enqueues),
        ),
        check(
            "delivers_le_transmits",
            m.delivers <= m.transmits,
            format!("{} delivers, {} transmits", m.delivers, m.transmits),
        ),
    ]);

    // Render what the ring retained through the canonical sink pipeline.
    let render = t.spans.open("obs.render.render_runs", None);
    let out = render_runs("benchmark", &mut [recorder]);
    let render_s = t.spans.close(render);
    let rendered = out.jsonl.lines().count().max(1) as f64;
    t.values
        .set("obs.render.ns_per_event", render_s * 1e9 / rendered);
    t.values.set(
        "obs.render.bytes_per_event",
        out.jsonl.len() as f64 / rendered,
    );
}

/// Receiver-side counters of a finished run, cohorts count-weighted.
struct Population {
    subscriptions: u64,
    cohort_agents: u64,
    max_buckets: u64,
    modeled: u64,
}

impl Population {
    fn of(net: &BuiltTopology) -> Population {
        let mut p = Population {
            subscriptions: 0,
            cohort_agents: 0,
            max_buckets: 0,
            modeled: 0,
        };
        for session in &net.sessions {
            for (&id, &weight) in session.receivers.iter().zip(&session.weights) {
                p.modeled += weight;
                if weight > 1 {
                    let cohort = net.cohort(id);
                    p.cohort_agents += 1;
                    p.max_buckets = p.max_buckets.max(cohort.bucket_count() as u64);
                    p.subscriptions += cohort.weighted_stats().subscriptions;
                } else if let Some(rx) = net.sim.agent_as::<FlidReceiver>(id) {
                    p.subscriptions += rx.stats.subscriptions;
                }
            }
        }
        p
    }
}

// ---------------------------------------------------------------------------
// The suite
// ---------------------------------------------------------------------------

/// The suite builds its simulators inside each experiment, so no
/// recorder can ride along: its traced pass is spans only, one per
/// experiment.
fn traced_suite(t: &mut Traced, seed: u64, smoke: bool) {
    let defs = suite_defs(smoke);
    let setup = t.spans.open("core.registry.specs", None);
    let specs = suite_specs(&defs, seed);
    t.spans.close(setup);

    let suite = t.spans.open("suite_quick", None);
    let mut records = Vec::new();
    for spec in specs.chunks(1) {
        let name = spec[0].name.clone();
        let span = t
            .spans
            .open(format!("core.runner.experiment[{name}]"), Some(suite));
        records.extend(run_serial("benchmark", "quick", spec).records);
        let wall_s = t.spans.close(span);
        t.values.set(&experiment_wall_name(&name), wall_s * 1e3);
    }
    let report = Report {
        suite: "benchmark".into(),
        mode: "quick".into(),
        records,
    };
    let render = t.spans.open("core.runner.json_render", Some(suite));
    std::hint::black_box(report.to_json_string());
    let render_s = t.spans.close(render);
    t.traced_run_wall_s = t.spans.close(suite);
    t.values.set("core.runner.json_render_ms", render_s * 1e3);
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

fn run_kernels(t: &mut Traced, seed: u64, smoke: bool) {
    let scale = if smoke { Scale::SMOKE } else { Scale::FULL };
    let all = t.spans.open("kernels", None);
    // One span per layer, so the span file shows what looking cost.
    let layer = |t: &mut Traced, name: &str, f: &mut dyn FnMut(&mut PerLayerValues)| {
        let span = t.spans.open(format!("kernel.{name}"), Some(all));
        f(&mut t.values);
        t.spans.close(span);
    };
    layer(t, "simcore.event_queue", &mut |v| {
        // Depths and timestamp counts as the workloads produce them:
        // fanout_dl peaks at 46k events in one-timestamp waves, the
        // unicast mix at 22k events on hundreds of distinct timestamps.
        v.set(
            "simcore.event_queue.batched_ns_per_op",
            kernels::event_queue_ns_per_op(46_000, 1, scale),
        );
        v.set(
            "simcore.event_queue.scattered_ns_per_op",
            kernels::event_queue_ns_per_op(22_000, 997, scale),
        );
    });
    layer(t, "simcore.shard", &mut |v| {
        v.set(
            "simcore.shard.merge_stamped_ns_per_msg",
            kernels::merge_stamped_ns_per_msg(scale),
        );
    });
    layer(t, "netsim.fanout", &mut |v| {
        v.set(
            "netsim.fanout.ns_per_branch.n100",
            kernels::fanout_ns_per_branch(100, scale),
        );
        v.set(
            "netsim.fanout.ns_per_branch.n2000",
            kernels::fanout_ns_per_branch(2000, scale),
        );
    });
    layer(t, "netsim.queue", &mut |v| {
        // The dumbbell's bottleneck buffer: 2 × 10 Mbps × 80 ms.
        let limit = 200_000;
        v.set(
            "netsim.queue.droptail_ns_per_pkt",
            kernels::queue_ns_per_pkt(Queue::drop_tail(limit), scale),
        );
        v.set(
            "netsim.queue.red_ns_per_pkt",
            kernels::queue_ns_per_pkt(Queue::red(RedConfig::for_limit(limit)), scale),
        );
    });
    let macro_secs = if smoke { 1 } else { MACRO_KERNEL_SECS };
    layer(t, "netsim.shard", &mut |v| {
        let k = kernels::shard_kernel(seed, macro_secs);
        v.set("netsim.shard.sharded_over_serial", k.sharded_over_serial);
        v.set("netsim.shard.root_shard_share", k.root_shard_share);
        v.set("netsim.shard.shards", k.shards as f64);
    });
    layer(t, "sigma.router", &mut |v| {
        v.set(
            "sigma.router.defence_ns_per_event",
            kernels::defence_ns_per_event(seed, macro_secs),
        );
    });
    layer(t, "sigma.keytable", &mut |v| {
        let (hit, miss) = kernels::keytable_validate_ns(scale);
        v.set("sigma.keytable.validate_hit_ns", hit);
        v.set("sigma.keytable.validate_miss_ns", miss);
    });
    layer(t, "sigma.guard", &mut |v| {
        let (validate, perturb) = kernels::guard_ns(scale);
        v.set("sigma.guard.guard_validate_ns", validate);
        v.set("sigma.guard.guard_perturb_ns_per_pkt", perturb);
    });
    layer(t, "sigma.slab", &mut |v| {
        let (insert, contains) = kernels::slab_ns(scale);
        v.set("sigma.slab.insert_ns", insert);
        v.set("sigma.slab.contains_ns", contains);
    });
    layer(t, "sigma.fec", &mut |v| {
        v.set(
            "sigma.fec.encode_ns_per_slot",
            kernels::fec_encode_ns_per_slot(scale),
        );
    });
    layer(t, "delta.layered", &mut |v| {
        let k = kernels::layered_kernel(scale);
        v.set("delta.layered.generate_ns_per_slot", k.generate_ns_per_slot);
        v.set("delta.layered.component_ns_per_pkt", k.component_ns_per_pkt);
        v.set("delta.layered.decide_ns_per_slot", k.decide_ns_per_slot);
    });
    layer(t, "delta.threshold", &mut |v| {
        let (split, reconstruct) = kernels::threshold_ns(scale);
        v.set("delta.threshold.split_ns", split);
        v.set("delta.threshold.reconstruct_ns", reconstruct);
    });
    layer(t, "tcp", &mut |v| {
        v.set("tcp.ns_per_event", kernels::tcp_ns_per_event(scale));
    });
    t.spans.close(all);
}
