//! Per-layer kernels: each times one layer's public functions in
//! isolation, on inputs shaped like the workloads (queue depth, fan-out
//! width, group count), and reports nanoseconds per operation — the
//! median over a few batches. They are an outside estimate of where the
//! simulator's time goes; attribution from inside the program is a later
//! change (ROADMAP 1(a)).

use std::hint::black_box;
use std::time::Instant;

use robust_multicast::core::Variant;
use robust_multicast::delta::threshold::{reconstruct, split};
use robust_multicast::delta::{
    decide_layered, DeltaFields, Key, LayeredKeySchedule, SlotObservation, UpgradeMask,
};
use robust_multicast::netsim::prelude::*;
use robust_multicast::netsim::shard::run_until_sharded_stats;
use robust_multicast::sigma::fec::{chunk_tuples, encode_with_repeats};
use robust_multicast::sigma::{CollusionGuard, GrantSlab, KeyTable, KeyTuple};
use robust_multicast::simcore::{merge_stamped, DetRng, EventQueue, SimDuration, SimTime, Stamped};
use robust_multicast::tcp::{RenoConfig, RenoSender, TcpSink};

use crate::stats::median;
use crate::workloads::wide_dumbbell;

/// How much work each kernel does.
#[derive(Clone, Copy)]
pub struct Scale {
    /// Share of the full operation count per batch.
    ops: f64,
    /// Timed batches per kernel; the reported value is their median.
    batches: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        ops: 1.0,
        batches: 5,
    };
    /// A tenth of the operations, once: exercises the code, not the clock.
    pub const SMOKE: Scale = Scale {
        ops: 0.1,
        batches: 1,
    };

    fn ops(self, full: u64) -> u64 {
        ((full as f64 * self.ops) as u64).max(1)
    }

    /// Median over the batches of `batch()`, which returns the
    /// nanoseconds per operation of one timed batch (set-up inside
    /// `batch` is untimed).
    fn median_of_batches(self, mut batch: impl FnMut() -> f64) -> f64 {
        let samples: Vec<f64> = (0..self.batches).map(|_| batch()).collect();
        median(&samples)
    }
}

/// Nanoseconds per call of `op`, over `ops` back-to-back calls.
fn ns_per_op(ops: u64, mut op: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..ops {
        op(i);
    }
    t.elapsed().as_nanos() as f64 / ops as f64
}

// ---------------------------------------------------------------------------
// simcore
// ---------------------------------------------------------------------------

/// A payload the size of a small inline packet event.
#[derive(Clone, Copy)]
struct FakeEvent(#[allow(dead_code)] [u64; 9]);

/// One pop + one re-push near the head of a queue held at `depth`, with
/// `scatter` distinct future timestamps live (1 = a perfect wave).
pub fn event_queue_ns_per_op(depth: u64, scatter: u64, scale: Scale) -> f64 {
    let ops = scale.ops(200_000);
    scale.median_of_batches(|| {
        let mut q: EventQueue<FakeEvent> = EventQueue::new();
        for i in 0..depth {
            q.push(SimTime::from_nanos(i * 1_000), FakeEvent([i; 9]));
        }
        let mut now = 0u64;
        let ns = ns_per_op(ops, |n| {
            let (at, ev) = q.pop().expect("pre-filled");
            now = now.max(at.as_nanos());
            q.push(SimTime::from_nanos(now + 500 + (n % scatter) * 97), ev);
        });
        black_box(q.processed());
        ns
    })
}

/// `merge_stamped` over one barrier's harvest: four source shards'
/// time-ordered streams concatenated, 4,096 messages.
pub fn merge_stamped_ns_per_msg(scale: Scale) -> f64 {
    let per_src = scale.ops(1024);
    let harvest: Vec<Stamped<u64>> = (0..4u32)
        .flat_map(|src| {
            (0..per_src).map(move |seq| Stamped {
                at: SimTime::from_nanos(seq * 1_000 + u64::from(src) * 250),
                dst: 0,
                src,
                seq,
                msg: seq,
            })
        })
        .collect();
    scale.median_of_batches(|| {
        let mut batch = harvest.clone();
        let t = Instant::now();
        merge_stamped(black_box(&mut batch));
        let ns = t.elapsed().as_nanos() as f64;
        black_box(&batch);
        ns / harvest.len() as f64
    })
}

// ---------------------------------------------------------------------------
// netsim
// ---------------------------------------------------------------------------

/// Sends `count` packets to `group`, one every 500 µs.
struct Blaster {
    group: GroupAddr,
    count: u64,
}

#[derive(Clone, Debug)]
struct Payload;

impl Agent for Blaster {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.timer_in(SimDuration::from_millis(200), 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
        if self.count > 0 {
            self.count -= 1;
            let pkt = Packet::app(
                500 * 8,
                FlowId(1),
                ctx.agent,
                Dest::Group(self.group),
                Payload,
            );
            ctx.send(pkt);
            ctx.timer_in(SimDuration::from_micros(500), 0);
        }
    }
}

/// Joins `group` at start and ignores everything it receives.
struct NoopReceiver {
    group: GroupAddr,
}

impl Agent for NoopReceiver {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.join_group(self.group);
    }
}

/// Wall nanoseconds per multicast branch (replication onto one access
/// link through to local delivery) on a star of `receivers` no-op hosts.
pub fn fanout_ns_per_branch(receivers: u64, scale: Scale) -> f64 {
    let packets = scale.ops(20_000 / receivers).max(2);
    scale.median_of_batches(|| {
        let mut sim = Sim::new(1, SimDuration::from_secs(1));
        let router = sim.add_node();
        let src = sim.add_node();
        let link = |sim: &mut Sim, a, b| {
            sim.add_duplex_link(
                a,
                b,
                100_000_000,
                SimDuration::from_millis(1),
                Queue::drop_tail(10_000_000),
                Queue::drop_tail(10_000_000),
            );
        };
        link(&mut sim, src, router);
        let group = GroupAddr(1);
        sim.register_group(group, src);
        for _ in 0..receivers {
            let host = sim.add_node();
            link(&mut sim, router, host);
            sim.add_agent(host, Box::new(NoopReceiver { group }), SimTime::ZERO);
        }
        let blaster = Blaster {
            group,
            count: packets,
        };
        sim.add_agent(src, Box::new(blaster), SimTime::ZERO);
        sim.finalize();
        // Joins and grafts settle before the first packet at 200 ms.
        sim.run_until(SimTime::from_millis(199));
        let t = Instant::now();
        sim.run_until(SimTime::from_secs(2));
        let ns = t.elapsed().as_nanos() as f64;
        black_box(sim.world.processed_events());
        ns / (receivers * packets) as f64
    })
}

/// One `Queue::enqueue` + `Queue::dequeue` of a 576-byte packet on a
/// queue held a few packets deep.
pub fn queue_ns_per_pkt(mut queue: Queue, scale: Scale) -> f64 {
    let ops = scale.ops(200_000);
    let mut rng = DetRng::new(7);
    let pkt = || Packet::opaque(576 * 8, FlowId(1), AgentId(0), Dest::Agent(AgentId(1)));
    for _ in 0..8 {
        let _ = queue.enqueue(pkt(), SimTime::ZERO, 10_000_000, &mut rng);
    }
    scale.median_of_batches(|| {
        ns_per_op(ops, |i| {
            let now = SimTime::from_nanos(i * 1_000);
            black_box(queue.enqueue(pkt(), now, 10_000_000, &mut rng));
            black_box(queue.dequeue(now));
        })
    })
}

/// Events and wall seconds of the 2,000-receiver dumbbell of `variant`
/// run serially to `horizon` simulated seconds.
fn wide_dumbbell_run(variant: Variant, seed: u64, horizon: u64) -> (u64, f64) {
    let mut net = wide_dumbbell(variant, 2000, seed).build();
    let t = Instant::now();
    net.sim.run_until(SimTime::from_secs(horizon));
    let wall = t.elapsed().as_secs_f64();
    (net.sim.world.processed_events(), wall)
}

/// What the sharded executor does with the fan-out scenario on two
/// workers, against the serial loop on the same scenario.
pub struct ShardKernel {
    /// Sharded events/s over serial events/s (above 1 = sharding wins).
    pub sharded_over_serial: f64,
    /// Events the root shard executed over all events: the Amdahl floor.
    pub root_shard_share: f64,
    pub shards: u64,
}

pub fn shard_kernel(seed: u64, horizon: u64) -> ShardKernel {
    let (serial_events, serial_wall) = wide_dumbbell_run(Variant::FlidDl, seed, horizon);
    let mut net = wide_dumbbell(Variant::FlidDl, 2000, seed).build();
    let t = Instant::now();
    let per_shard = run_until_sharded_stats(&mut net.sim, SimTime::from_secs(horizon), 2);
    let sharded_wall = t.elapsed().as_secs_f64();
    let sharded_events = net.sim.world.processed_events();
    assert_eq!(
        serial_events, sharded_events,
        "sharded run diverged from the serial one"
    );
    let total: u64 = per_shard.iter().sum();
    ShardKernel {
        sharded_over_serial: serial_wall / sharded_wall.max(1e-9),
        root_shard_share: per_shard[0] as f64 / total.max(1) as f64,
        shards: per_shard.len() as u64,
    }
}

/// Simulator nanoseconds per event of the 2,000-receiver dumbbell under
/// FLID-DS+guard minus the same under FLID-DL: what the defence costs in
/// simulator CPU, next to the paper's <1 % bandwidth overhead (Fig. 9).
pub fn defence_ns_per_event(seed: u64, horizon: u64) -> f64 {
    let ns_per_event = |variant| {
        let (events, wall) = wide_dumbbell_run(variant, seed, horizon);
        wall * 1e9 / events.max(1) as f64
    };
    ns_per_event(Variant::FlidDsGuard) - ns_per_event(Variant::FlidDl)
}

/// Nanoseconds per event of one TCP Reno bulk flow between two hosts
/// over a 10 Mbps, 10 ms link with a two-BDP drop-tail buffer.
pub fn tcp_ns_per_event(scale: Scale) -> f64 {
    let horizon = scale.ops(20);
    scale.median_of_batches(|| {
        let mut sim = Sim::new(3, SimDuration::from_secs(1));
        let a = sim.add_node();
        let b = sim.add_node();
        sim.add_duplex_link(
            a,
            b,
            10_000_000,
            SimDuration::from_millis(10),
            Queue::drop_tail(50_000),
            Queue::drop_tail(50_000),
        );
        let sink = sim.add_agent(b, Box::new(TcpSink::default()), SimTime::ZERO);
        let reno = RenoSender::new(RenoConfig::bulk(sink, FlowId(1)));
        sim.add_agent(a, Box::new(reno), SimTime::ZERO);
        sim.finalize();
        let t = Instant::now();
        sim.run_until(SimTime::from_secs(horizon));
        let ns = t.elapsed().as_nanos() as f64;
        ns / sim.world.processed_events().max(1) as f64
    })
}

// ---------------------------------------------------------------------------
// sigma
// ---------------------------------------------------------------------------

/// Ten groups' tuples for one slot, as a FLID-DS sender announces them.
fn slot_tuples(n: u32) -> Vec<(GroupAddr, KeyTuple)> {
    (0..n)
        .map(|g| {
            let tuple = KeyTuple {
                top: Key(u64::from(g) * 1000),
                decrease: (g + 1 < n).then_some(Key(5_000 + u64::from(g))),
                increase: (g % 3 == 0).then_some(Key(9_000 + u64::from(g))),
            };
            (GroupAddr(g), tuple)
        })
        .collect()
}

/// `KeyTable::validate` on a ten-group, four-slot table: `(hit, miss)`.
pub fn keytable_validate_ns(scale: Scale) -> (f64, f64) {
    let ops = scale.ops(1_000_000);
    let mut table = KeyTable::new();
    for slot in 0..4u64 {
        for (g, mut tuple) in slot_tuples(10) {
            tuple.top = Key(tuple.top.0 + slot);
            table.insert(g, slot, tuple);
        }
    }
    // `key(g)` is what a receiver submits for group `g`'s slot 2.
    let time = |key: fn(u64) -> Key| {
        scale.median_of_batches(|| {
            ns_per_op(ops, |i| {
                let g = i % 10;
                black_box(table.validate(black_box(GroupAddr(g as u32)), 2, key(g)));
            })
        })
    };
    (time(|g| Key(g * 1000 + 2)), time(|_| Key(0xdead)))
}

/// The collusion guard on a ten-group layered session: nanoseconds per
/// perturbed data packet, and per validation of a perturbed top key.
pub fn guard_ns(scale: Scale) -> (f64, f64) {
    let groups: Vec<GroupAddr> = (1..=10).map(GroupAddr).collect();
    let mut guard = CollusionGuard::new(groups);
    let mut rng = DetRng::new(1);
    let iface = LinkId(3);
    let fields = |slot: u64, group: u32, p: u32| DeltaFields {
        slot,
        group,
        seq_in_slot: p,
        last_in_slot: p == 4,
        count_in_slot: if p == 4 { 5 } else { 0 },
        component: Key(0),
        decrease: Some(Key(11)),
        upgrades: UpgradeMask::NONE,
    };
    let perturb_ops = scale.ops(200_000);
    let perturb = scale.median_of_batches(|| {
        let ns = ns_per_op(perturb_ops, |i| {
            // ~50 packets per slot, spread over the ten groups.
            let mut f = fields(i / 50, (i % 10) as u32 + 1, (i % 5) as u32);
            guard.perturb(iface, GroupAddr(f.group), &mut f, &mut rng);
            black_box(f);
        });
        guard.gc(u64::MAX);
        ns
    });

    // A slot's worth of packets on one interface, then validate the top
    // key as the receiver would reconstruct it from the perturbed fields.
    let mut table = KeyTable::new();
    let top = Key(0xABCD);
    let tuple = KeyTuple {
        top,
        decrease: None,
        increase: None,
    };
    table.insert(GroupAddr(5), 6, tuple);
    let mut perturbed_top = top;
    for g in 1..=5u32 {
        for p in 0..5u32 {
            let mut f = fields(4, g, p);
            let before = f.component;
            guard.perturb(iface, GroupAddr(g), &mut f, &mut rng);
            perturbed_top = perturbed_top ^ (before ^ f.component);
        }
    }
    let validate_ops = scale.ops(500_000);
    let validate = scale.median_of_batches(|| {
        ns_per_op(validate_ops, |_| {
            black_box(guard.validate(
                black_box(iface),
                GroupAddr(5),
                6,
                perturbed_top,
                &table,
                &mut rng,
            ));
        })
    });
    (validate, perturb)
}

/// The interned grant slab with 100 interfaces converging on the same
/// ten-group table each slot: `(insert, contains)` nanoseconds.
pub fn slab_ns(scale: Scale) -> (f64, f64) {
    let slots = scale.ops(100);
    let mut slab = GrantSlab::new();
    let insert = scale.median_of_batches(|| {
        slab = GrantSlab::new();
        let mut ops = 0u64;
        let t = Instant::now();
        for slot in 0..slots {
            for iface in 0..100u32 {
                for g in 0..10u32 {
                    slab.insert(LinkId(iface), GroupAddr(g), slot);
                    ops += 1;
                }
            }
            slab.sweep(slot.saturating_sub(2));
        }
        t.elapsed().as_nanos() as f64 / ops as f64
    });
    let newest = slots - 1;
    let contains_ops = scale.ops(1_000_000);
    let contains = scale.median_of_batches(|| {
        ns_per_op(contains_ops, |i| {
            let iface = LinkId((i % 100) as u32);
            black_box(slab.contains(iface, GroupAddr((i % 10) as u32), newest));
        })
    });
    (insert, contains)
}

/// Chunking and repeat-2 encoding of one slot's ten key tuples.
pub fn fec_encode_ns_per_slot(scale: Scale) -> f64 {
    let ops = scale.ops(100_000);
    let tuples = slot_tuples(10);
    scale.median_of_batches(|| {
        ns_per_op(ops, |slot| {
            let chunks = chunk_tuples(black_box(slot), tuples.clone());
            black_box(encode_with_repeats(&chunks, 2));
        })
    })
}

// ---------------------------------------------------------------------------
// delta
// ---------------------------------------------------------------------------

/// The layered key schedule of a ten-group session.
pub struct LayeredKernel {
    /// `LayeredKeySchedule::generate` per slot.
    pub generate_ns_per_slot: f64,
    /// `ComponentStream::next` per data packet.
    pub component_ns_per_pkt: f64,
    /// `decide_layered` over a full slot's observation.
    pub decide_ns_per_slot: f64,
}

pub fn layered_kernel(scale: Scale) -> LayeredKernel {
    let mut rng = DetRng::new(2);
    let generate_ops = scale.ops(200_000);
    let generate_ns_per_slot = scale.median_of_batches(|| {
        ns_per_op(generate_ops, |_| {
            let upgrades = UpgradeMask::from_groups(&[3]);
            black_box(LayeredKeySchedule::generate(
                &mut rng,
                black_box(10),
                upgrades,
            ));
        })
    });

    let sched = LayeredKeySchedule::generate(&mut rng, 10, UpgradeMask::from_groups(&[7]));
    let streams = scale.ops(10_000);
    let component_ns_per_pkt = scale.median_of_batches(|| {
        let mut acc = Key::ZERO;
        let ns = ns_per_op(streams, |_| {
            let mut stream = sched.component_stream(5);
            for p in 0..100u32 {
                acc = acc ^ stream.next(&mut rng, p == 99);
            }
        });
        black_box(acc);
        ns / 100.0
    });

    // A full slot observation for a ten-group session, ~54 packets.
    let mut obs = SlotObservation::new(0, 10);
    for g in 1..=10u32 {
        let count = 4 + g % 3;
        let mut stream = sched.component_stream(g);
        for p in 0..count {
            let last = p + 1 == count;
            obs.observe(&DeltaFields {
                slot: 0,
                group: g,
                seq_in_slot: p,
                last_in_slot: last,
                count_in_slot: if last { count } else { 0 },
                component: stream.next(&mut rng, last),
                decrease: sched.decrease_field(g),
                upgrades: sched.upgrades,
            });
        }
    }
    let decide_ops = scale.ops(1_000_000);
    let decide_ns_per_slot = scale.median_of_batches(|| {
        ns_per_op(decide_ops, |_| {
            black_box(decide_layered(black_box(&obs), 6, 10));
        })
    });
    LayeredKernel {
        generate_ns_per_slot,
        component_ns_per_pkt,
        decide_ns_per_slot,
    }
}

/// Shamir sharing as the threshold protocol uses it (k = 15 of n = 20):
/// `(split, reconstruct)` nanoseconds.
pub fn threshold_ns(scale: Scale) -> (f64, f64) {
    let mut rng = DetRng::new(4);
    let split_ops = scale.ops(50_000);
    let split_ns = scale.median_of_batches(|| {
        ns_per_op(split_ops, |i| {
            black_box(split(black_box(31_337 + (i % 7) as u32), 15, 20, &mut rng));
        })
    });
    let shares = split(31_337, 15, 20, &mut rng);
    let reconstruct_ops = scale.ops(20_000);
    let reconstruct_ns = scale.median_of_batches(|| {
        ns_per_op(reconstruct_ops, |_| {
            black_box(reconstruct(black_box(&shares[0..15])));
        })
    });
    (split_ns, reconstruct_ns)
}
