//! Conservative parallel-in-time execution: partition the [`World`] by
//! subtree, run lookahead-bounded windows, merge back bit-for-bit.
//!
//! ## Shard ownership
//!
//! The partitioner cuts the topology at access links: every router (and
//! every host that cannot prove isolation) stays on the **root shard 0**,
//! while leaf hosts whose agents opted into [`Agent`]`::parallel_safe`
//! are grouped into contiguous blocks — ordered by their lowest agent
//! id — on shards `1..`. A host is only eligible when
//!
//! * all of its agents return `parallel_safe()` (no `Ctx::rng` draws, no
//!   state shared with other hosts),
//! * it has no edge module (SIGMA draws from the root RNG),
//! * both directions of every adjacent link have a positive propagation
//!   delay (the lookahead) and a drop-tail queue (RED draws from the
//!   root RNG on enqueue), and
//! * its neighbours are routers and it roots no multicast group.
//!
//! Everything that consumes the run's [`DetRng`] therefore executes on
//! shard 0 in the serial order, which is how the refactor keeps golden
//! JSON byte-identical: randomness is consumed in event order, so it
//! must not be re-interleaved.
//!
//! ## The lookahead rule
//!
//! The only event that can cross a cut is a packet **arrival**: a
//! departure on a cut link schedules the arrival `delay` later on the
//! neighbour shard (`Sim::handle` stages it in a stamped outbox). At
//! each barrier every shard announces a lower bound on the timestamp of
//! anything it may still emit (its LBTS): the minimum of its next
//! pending event and every inbound channel's announced bound plus that
//! channel's lookahead, iterated to a fixpoint so transitive feedback
//! (root output → leaf reaction → root input) is accounted for. A
//! shard's [`ShardClock`] then yields
//! `safe = min over inbound channels (announced LBTS + lookahead)` and
//! the shard may process every event **strictly before** it — the
//! Chandy–Misra–Bryant bound with link propagation delay as lookahead.
//! The shard holding the globally earliest event always clears its own
//! bound, so windows make progress.
//!
//! ## The deterministic merge invariant
//!
//! Cross-shard arrivals harvested at a barrier are delivered in
//! `(arrival time, source shard, source sequence)` order
//! ([`Outbox::harvest`]). Source sequences are FIFO per shard, and shards
//! are contiguous agent-id blocks, so simultaneous waves (a slot's
//! worth of grafts from two thousand receivers) enter the destination
//! queue in the same relative order the serial simulator would have
//! pushed them. Within a shard the `EventQueue`'s `(time, seq)` total
//! order is untouched. Worker threads only change *who executes* a
//! window, never the window boundaries or the merge order, so results
//! are identical for every worker count — byte stability across
//! `MCC_THREADS` values is a structural property, not a scheduling
//! accident.

use crate::addr::{LinkId, NodeId};
use crate::link::{Link, LinkStats};
use crate::monitor::Monitor;
use crate::node::Node;
use crate::queue::Queue;
use crate::sim::{Agent, Event, ShardRouting, Sim, World};
use mcc_obs::{Recorder, TraceEvent, DEFAULT_RING_CAP};
use mcc_simcore::{DetRng, Outbox, ShardClock, ShardId, SimDuration, SimTime};
use std::collections::BTreeMap;

/// ## Root-shard load (why shard 0 is the heaviest and stays that way)
///
/// On the wide dumbbell of the benchmark's `fanout_dl` workload (2000
/// receivers, 2 TCP flows) the per-shard event counts come out ~10.4M
/// on shard 0 versus ~2.8M per leaf. That skew is **not** leftover host blocks: the partitioner has
/// already moved every eligible host — what remains on shard 0 is the
/// two routers, the sender host (it roots the multicast group) and the
/// four TCP endpoints (no `parallel_safe` claim). The load is the
/// routers' own per-packet work: every multicast data packet is
/// processed at both routers, and the edge router fans each one onto
/// all 2000 access links from *its* event queue. Ownership is per node,
/// and cuts must sit on host access links (the only links whose far
/// side provably shares no state), so that fan-out cannot migrate to a
/// leaf without splitting a single node's queue across shards — a
/// different design with a different merge invariant. The practical
/// consequence: the root shard is each window's critical path, adding
/// workers beyond 2 does not help this topology (measured: 7.2M ev/s at
/// 2 workers, 6.5M at 4, 6.0M at 8), and interleaved re-measurement of
/// the `cd76fc1` trajectory point against its predecessor shows the
/// recorded 8.31M → 6.81M drop was sampling noise across machine-load
/// conditions, not a code regression — both builds measure 6.7–7.3M
/// ev/s back-to-back on the same box.
///
/// How many eligible hosts the automatic planner aims to put on each
/// leaf shard: small enough that a shard's working set (hosts, access
/// links, queue slab) stays cache-resident across a window, large
/// enough to amortize the barrier.
pub const TARGET_HOSTS_PER_SHARD: usize = 256;
/// Below this many eligible hosts per leaf shard, coordination costs
/// more than locality buys: the automatic planner falls back to serial.
pub const MIN_HOSTS_PER_SHARD: usize = 8;
/// Upper bound on automatically planned leaf shards.
pub const MAX_LEAF_SHARDS: usize = 16;

/// A planned partition: node → shard ownership plus the cut metadata
/// the executor needs.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Owner shard of every node, indexed by [`NodeId`].
    owner: Vec<ShardId>,
    /// Total shard count (root shard 0 plus the leaf blocks).
    shards: usize,
    /// `lookahead[dst][src]`: smallest propagation delay over cut links
    /// from shard `src` into shard `dst`; `None` when no such link.
    lookahead: Vec<Vec<Option<SimDuration>>>,
}

impl Partition {
    /// Plan automatically: eligible leaf hosts in
    /// [`TARGET_HOSTS_PER_SHARD`]-sized blocks, or `None` when the
    /// scenario is too small to pay for coordination.
    pub fn auto(sim: &Sim) -> Option<Partition> {
        let hosts = shardable_hosts(sim);
        if hosts.len() < 2 * MIN_HOSTS_PER_SHARD {
            return None;
        }
        let blocks = (hosts.len() / TARGET_HOSTS_PER_SHARD)
            .clamp(2, MAX_LEAF_SHARDS)
            .min(hosts.len() / MIN_HOSTS_PER_SHARD);
        Partition::from_blocks(sim, &hosts, blocks)
    }

    /// Plan with an explicit leaf-shard count, waiving the minimum-size
    /// fallback (tests force multi-shard execution on tiny topologies).
    /// `None` when no host is eligible at all.
    pub fn explicit(sim: &Sim, leaf_shards: usize) -> Option<Partition> {
        let hosts = shardable_hosts(sim);
        if hosts.is_empty() || leaf_shards == 0 {
            return None;
        }
        Partition::from_blocks(sim, &hosts, leaf_shards.min(hosts.len()))
    }

    /// Number of shards (root + leaf blocks).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Owner shard of `node`.
    pub fn owner(&self, node: NodeId) -> ShardId {
        self.owner[node.index()]
    }

    fn from_blocks(sim: &Sim, hosts: &[NodeId], blocks: usize) -> Option<Partition> {
        let n = sim.world.nodes.len();
        let mut owner = vec![0u32; n];
        let base = hosts.len() / blocks;
        let extra = hosts.len() % blocks;
        let mut next = 0usize;
        for b in 0..blocks {
            let size = base + usize::from(b < extra);
            for &h in &hosts[next..next + size] {
                owner[h.index()] = (b + 1) as ShardId;
            }
            next += size;
        }
        let shards = blocks + 1;
        let mut lookahead = vec![vec![None; shards]; shards];
        for link in &sim.world.links {
            let (src, dst) = (owner[link.from.index()], owner[link.to.index()]);
            if src != dst {
                debug_assert!(!link.delay.is_zero(), "cut links carry the lookahead");
                let slot = &mut lookahead[dst as usize][src as usize];
                *slot = Some(slot.map_or(link.delay, |d: SimDuration| d.min(link.delay)));
            }
        }
        Some(Partition {
            owner,
            shards,
            lookahead,
        })
    }
}

/// The leaf hosts the partitioner may move off shard 0, ordered by
/// their lowest agent id (the order that aligns cross-shard
/// tie-breaking with the serial simulator's agent-id-ordered waves).
fn shardable_hosts(sim: &Sim) -> Vec<NodeId> {
    let world = &sim.world;
    let mut hosts: Vec<(u32, NodeId)> = Vec::new();
    'nodes: for node in &world.nodes {
        if node.local_agents.is_empty() || node.edge.is_some() {
            continue;
        }
        for &a in &node.local_agents {
            match sim.agents.get(a.index()).and_then(|s| s.as_deref()) {
                Some(agent) if agent.parallel_safe() => {}
                _ => continue 'nodes,
            }
        }
        for &l in &node.out_links {
            let out = &world.links[l.index()];
            let back = &world.links[out.reverse.index()];
            let rng_free = |q: &Queue| matches!(q, Queue::DropTail { .. });
            if out.delay.is_zero()
                || back.delay.is_zero()
                || !rng_free(&out.queue)
                || !rng_free(&back.queue)
                || world.nodes[out.to.index()].is_host()
            {
                continue 'nodes;
            }
        }
        if world.group_sources.contains(&Some(node.id)) {
            continue 'nodes;
        }
        let min_agent = node
            .local_agents
            .iter()
            .map(|a| a.0)
            .min()
            .expect("non-empty");
        hosts.push((min_agent, node.id));
    }
    hosts.sort_unstable();
    hosts.into_iter().map(|(_, h)| h).collect()
}

/// Run `sim` to `t` (inclusive), automatically partitioned,
/// multiplexing the shards over `workers` OS threads. Falls back to the
/// serial [`Sim::run_until`] when the scenario is too small to shard.
/// Returns the number of shards used (1 = serial).
pub fn run_until_sharded(sim: &mut Sim, t: SimTime, workers: usize) -> usize {
    match Partition::auto(sim) {
        Some(p) => {
            run_partitioned(sim, t, &p, workers);
            p.shards()
        }
        None => {
            sim.run_until(t);
            1
        }
    }
}

/// [`run_until_sharded`], reporting how many events each shard executed
/// during this call (index 0 = root shard). The serial fallback yields a
/// single entry. Feeds the benchmark's `netsim.shard.root_shard_share`.
pub fn run_until_sharded_stats(sim: &mut Sim, t: SimTime, workers: usize) -> Vec<u64> {
    match Partition::auto(sim) {
        Some(p) => run_partitioned(sim, t, &p, workers),
        None => {
            let before = sim.world.processed_events();
            sim.run_until(t);
            vec![sim.world.processed_events() - before]
        }
    }
}

/// [`run_until_sharded`] with an explicit leaf-shard count (size
/// fallback waived) — the knob property tests use to force multi-shard
/// execution on small random topologies. Returns the number of shards
/// used.
pub fn run_until_with_shards(
    sim: &mut Sim,
    t: SimTime,
    leaf_shards: usize,
    workers: usize,
) -> usize {
    match Partition::explicit(sim, leaf_shards) {
        Some(p) => {
            run_partitioned(sim, t, &p, workers);
            p.shards()
        }
        None => {
            sim.run_until(t);
            1
        }
    }
}

/// Execute `sim` under a planned partition: split, window loop, merge.
/// Returns the number of events each shard executed (index = shard id).
pub fn run_partitioned(
    sim: &mut Sim,
    t: SimTime,
    partition: &Partition,
    workers: usize,
) -> Vec<u64> {
    assert!(sim.world.finalized, "call finalize() before running");
    assert_eq!(
        partition.owner.len(),
        sim.world.nodes.len(),
        "partition planned for a different topology"
    );
    // Wall-clock phase timing when a flight recorder rides the run.
    // Reporting-only (lands in the root recorder's `WallTimes`, never in
    // the byte-compared trace sinks); kept in statements that never touch
    // a `TraceEvent`.
    #[expect(
        clippy::disallowed_methods,
        reason = "observability phase timing, reporting only"
    )]
    let clock = sim.world.tracing().then(std::time::Instant::now);
    let mut shards = split(sim, partition);
    #[expect(
        clippy::disallowed_methods,
        reason = "observability phase timing, reporting only"
    )]
    let split_done = clock.map(|_| std::time::Instant::now());
    window_loop(&mut shards, t, partition, workers.max(1));
    #[expect(
        clippy::disallowed_methods,
        reason = "observability phase timing, reporting only"
    )]
    let run_done = clock.map(|_| std::time::Instant::now());
    let per_shard = merge(sim, shards, t, partition);
    if let (Some(t0), Some(t1), Some(t2)) = (clock, split_done, run_done) {
        if let Some(rec) = sim.world.tracer.as_mut() {
            rec.wall.split_ns += (t1 - t0).as_nanos() as u64;
            rec.wall.run_ns += (t2 - t1).as_nanos() as u64;
            #[expect(
                clippy::disallowed_methods,
                reason = "observability phase timing, reporting only"
            )]
            let merge_wall = t2.elapsed();
            rec.wall.merge_ns += merge_wall.as_nanos() as u64;
        }
    }
    per_shard
}

/// Per-link metadata snapshot used for event routing and link mirrors.
struct LinkMeta {
    from: NodeId,
    to: NodeId,
    reverse: LinkId,
    bps: u64,
    delay: SimDuration,
    host_facing: bool,
}

impl LinkMeta {
    /// A foreign-slot stand-in: real immutable metadata (arrival
    /// handling on the neighbour shard reads `to`, `reverse` and
    /// `host_facing` even for links it does not own) with inert mutable
    /// state.
    fn mirror(&self, id: LinkId) -> Link {
        Link {
            id,
            from: self.from,
            to: self.to,
            reverse: self.reverse,
            bps: self.bps,
            delay: self.delay,
            queue: Queue::drop_tail(0),
            in_service: None,
            host_facing: self.host_facing,
            stats: LinkStats::default(),
            tx_memo: (u64::MAX, 0, 0),
        }
    }
}

/// Tear one simulator into per-shard simulators: owned nodes, links and
/// agents move (no clones of hot state), foreign slots get cheap
/// dummies or metadata mirrors, and the pending event population is
/// redistributed by ownership in `(time, seq)` order.
fn split(sim: &mut Sim, partition: &Partition) -> Vec<Sim> {
    let owner = &partition.owner;
    let k = partition.shards;
    let now = sim.world.now;
    let bin = sim.world.monitor.bin;
    let base_uid = sim.world.uid;

    let meta: Vec<LinkMeta> = sim
        .world
        .links
        .iter()
        .map(|l| LinkMeta {
            from: l.from,
            to: l.to,
            reverse: l.reverse,
            bps: l.bps,
            delay: l.delay,
            host_facing: l.host_facing,
        })
        .collect();
    let arrival_owner: Vec<ShardId> = meta.iter().map(|m| owner[m.to.index()]).collect();

    let mut links: Vec<Option<Link>> = std::mem::take(&mut sim.world.links)
        .into_iter()
        .map(Some)
        .collect();
    let mut nodes: Vec<Option<Node>> = std::mem::take(&mut sim.world.nodes)
        .into_iter()
        .map(Some)
        .collect();
    let mut agents: Vec<Option<Box<dyn Agent>>> = std::mem::take(&mut sim.agents);
    let base_monitor = std::mem::replace(&mut sim.world.monitor, Monitor::new(bin));
    let base_rng = std::mem::replace(&mut sim.world.rng, DetRng::new(0));

    let drained = sim.world.events.take_all();

    let mut shards: Vec<Sim> = (0..k)
        .map(|s| {
            let mut w = World::new(0, bin);
            w.now = now;
            w.finalized = true;
            w.uid = base_uid;
            w.agent_nodes = sim.world.agent_nodes.clone();
            w.link_to = sim.world.link_to.clone();
            w.link_reverse = sim.world.link_reverse.clone();
            w.link_host_facing = sim.world.link_host_facing.clone();
            w.group_index = sim.world.group_index.clone();
            w.group_dense = sim.world.group_dense.clone();
            w.group_addrs = sim.world.group_addrs.clone();
            w.group_sources = sim.world.group_sources.clone();
            w.nodes = nodes
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    if owner[i] as usize == s {
                        slot.take().expect("each node moves to exactly one shard")
                    } else {
                        Node::new(NodeId(i as u32))
                    }
                })
                .collect();
            w.links = links
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    let id = LinkId(i as u32);
                    if owner[meta[i].from.index()] as usize == s {
                        slot.take().expect("each link moves to exactly one shard")
                    } else {
                        meta[i].mirror(id)
                    }
                })
                .collect();
            let shard_agents = agents
                .iter_mut()
                .enumerate()
                .map(|(a, slot)| {
                    if owner[sim.world.agent_nodes[a].index()] as usize == s {
                        slot.take()
                    } else {
                        None
                    }
                })
                .collect();
            Sim {
                world: w,
                agents: shard_agents,
                shard: Some(Box::new(ShardRouting {
                    me: s as ShardId,
                    arrival_owner: arrival_owner.clone(),
                    outbox: Outbox::new(s as ShardId),
                })),
            }
        })
        .collect();

    // Shard 0 inherits the run's randomness and measurement state: all
    // RNG consumers live there, in serial event order.
    shards[0].world.rng = base_rng;
    shards[0].world.monitor = base_monitor;
    // A traced run: the root flight recorder rides shard 0, every leaf
    // shard gets its own (merged back deterministically at `merge`).
    if let Some(mut rec) = sim.world.take_tracer() {
        rec.record(now, TraceEvent::ShardSplit { shards: k as u32 });
        shards[0].world.attach_tracer(rec);
        for (s, shard) in shards.iter_mut().enumerate().skip(1) {
            shard
                .world
                .attach_tracer(Recorder::new(s as ShardId, DEFAULT_RING_CAP));
        }
    }

    for (at, ev) in drained {
        let dst = match &ev {
            Event::Departure(l) => owner[meta[l.index()].from.index()],
            Event::Arrival(l, _) => arrival_owner[l.index()],
            Event::AgentStart(a) | Event::AgentTimer(a, _) | Event::LocalDeliver(a, _) => {
                owner[sim.world.agent_nodes[a.index()].index()]
            }
            Event::EdgeTimer(n, _) | Event::LeaveCheck(n, _) => owner[n.index()],
        };
        shards[dst as usize].world.events.push(at, ev);
    }
    shards
}

/// The barrier loop: fixpoint the per-shard LBTS, announce, run every
/// shard to its safe bound, deliver the stamped cross arrivals, repeat
/// until the horizon.
fn window_loop(shards: &mut [Sim], t: SimTime, partition: &Partition, workers: usize) {
    let k = shards.len();
    // One clock per shard, one channel per neighbour shard with cut
    // links into it; remember which (shard, channel) each pair maps to.
    let mut clocks: Vec<ShardClock> = Vec::with_capacity(k);
    let mut channel_of: Vec<Vec<Option<usize>>> = Vec::with_capacity(k);
    for dst in 0..k {
        let mut clock = ShardClock::new();
        let mut map = vec![None; k];
        for (src, d) in partition.lookahead[dst].iter().enumerate() {
            if let Some(d) = d {
                map[src] = Some(clock.add_channel(*d));
            }
        }
        clocks.push(clock);
        channel_of.push(map);
    }
    // Beyond the horizon nothing matters: bounds are capped there.
    let cap = t + SimDuration::from_nanos(1);
    // Debug invariant: conservative progress never rolls back — each
    // shard's LBTS is non-decreasing from one barrier to the next.
    let mut prev_lbts = vec![SimTime::ZERO; k];

    loop {
        let next: Vec<SimTime> = shards
            .iter()
            .map(|s| s.world.events.peek_time().unwrap_or(cap).min(cap))
            .collect();
        if next.iter().all(|&n| n > t) {
            break;
        }
        // Each shard's LBTS: the earliest instant it could still emit
        // anything, accounting for inputs it has not yet received.
        // Iterate to a fixpoint so feedback chains (root → leaf → root)
        // are bounded too; lookaheads are positive, so this terminates
        // within the cut graph's diameter.
        let mut lbts = next.clone();
        loop {
            let mut changed = false;
            for dst in 0..k {
                for src in 0..k {
                    if let Some(la) = partition.lookahead[dst][src] {
                        let via = lbts[src] + la;
                        if via < lbts[dst] {
                            lbts[dst] = via;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        debug_assert!(
            lbts.iter().zip(&prev_lbts).all(|(now, prev)| now >= prev),
            "a shard's LBTS went backwards across windows"
        );
        if cfg!(debug_assertions) {
            prev_lbts.clone_from(&lbts);
        }
        for dst in 0..k {
            for src in 0..k {
                if let Some(ch) = channel_of[dst][src] {
                    clocks[dst].announce(ch, lbts[src]);
                }
            }
        }
        // Safe bound per shard: strictly before the clock's safe time
        // (an event exactly at it could tie with an incoming arrival).
        let bounds: Vec<SimTime> = (0..k)
            .map(|s| {
                let safe = clocks[s].safe_time().unwrap_or(cap);
                SimTime::from_nanos(safe.as_nanos().saturating_sub(1)).min(t)
            })
            .collect();

        if workers > 1 && k > 1 {
            let chunk = k.div_ceil(workers);
            std::thread::scope(|scope| {
                for (ci, shard_chunk) in shards.chunks_mut(chunk).enumerate() {
                    let bounds = &bounds;
                    scope.spawn(move || {
                        for (i, shard) in shard_chunk.iter_mut().enumerate() {
                            run_window_traced(shard, bounds[ci * chunk + i]);
                        }
                    });
                }
            });
        } else {
            for (s, shard) in shards.iter_mut().enumerate() {
                run_window_traced(shard, bounds[s]);
            }
        }

        // Barrier: harvest and deliver cross arrivals deterministically.
        let crossing = Outbox::harvest(shards.iter_mut().map(|shard| {
            &mut shard
                .shard
                .as_deref_mut()
                .expect("shard sims carry routing")
                .outbox
        }));
        // Exchange volume per directed shard pair, recorded as exec-class
        // events on the root recorder. Tallied from the merged (ordered)
        // vector, so the events are identical for every worker count.
        if shards[0].world.tracing() && !crossing.is_empty() {
            let mut volume: BTreeMap<(ShardId, ShardId), (u64, u64)> = BTreeMap::new();
            for m in &crossing {
                let slot = volume.entry((m.src, m.dst)).or_insert((0, 0));
                slot.0 += 1;
                slot.1 += m.msg.1.size_bits;
            }
            for ((src_shard, dst_shard), (msgs, bits)) in volume {
                shards[0].world.trace(TraceEvent::ShardExchange {
                    src_shard,
                    dst_shard,
                    msgs,
                    bits,
                });
            }
        }
        for m in crossing {
            // Lookahead soundness: every harvested arrival lands strictly
            // beyond what its destination already executed this window.
            debug_assert!(
                m.at > bounds[m.dst as usize],
                "cross arrival at {:?} is not in shard {}'s future (ran to {:?})",
                m.at,
                m.dst,
                bounds[m.dst as usize]
            );
            let (l, pkt) = m.msg;
            shards[m.dst as usize]
                .world
                .events
                .push(m.at, Event::Arrival(l, pkt));
        }
    }
}

/// Run one shard's window. On a traced run this also measures the
/// shard's busy wall time (reporting-only, metrics channel) and records a
/// `ShardWindow` exec event — bound and executed-event count are derived
/// purely from simulation state, so the event stream is identical for
/// every worker count.
fn run_window_traced(shard: &mut Sim, bound: SimTime) {
    if !shard.world.tracing() {
        shard.run_window(bound);
        return;
    }
    let before = shard.world.events.processed();
    #[expect(
        clippy::disallowed_methods,
        reason = "per-shard busy time, reporting only"
    )]
    let t0 = std::time::Instant::now();
    shard.run_window(bound);
    #[expect(
        clippy::disallowed_methods,
        reason = "per-shard busy time, reporting only"
    )]
    let busy = t0.elapsed().as_nanos() as u64;
    let executed = shard.world.events.processed() - before;
    let me = shard.shard.as_ref().expect("shard sims carry routing").me;
    let ev = TraceEvent::ShardWindow {
        shard: me,
        bound_ns: bound.as_nanos(),
        events: executed,
    };
    let now = shard.world.now;
    if let Some(rec) = shard.world.tracer.as_mut() {
        rec.metrics.busy_ns += busy;
        rec.record(now, ev);
    }
}

/// Reassemble the original simulator from its shards: owned state moves
/// back, monitors merge exactly in shard order, leftover future events
/// interleave stably by time, and the aggregate event counters survive.
/// Returns the number of events each shard executed while split.
fn merge(sim: &mut Sim, shards: Vec<Sim>, t: SimTime, partition: &Partition) -> Vec<u64> {
    let owner = &partition.owner;
    let base_uid = sim.world.uid;
    let mut uid_delta = 0u64;

    let mut nodes: Vec<Option<Node>> = Vec::new();
    let mut links: Vec<Option<Link>> = Vec::new();
    let mut agents: Vec<Option<Box<dyn Agent>>> = Vec::new();
    let mut leftovers: Vec<(SimTime, Event)> = Vec::new();
    let mut processed = 0u64;
    let mut peak = 0usize;
    let mut per_shard: Vec<u64> = Vec::new();
    let mut root_rec: Option<Recorder> = None;
    let k = partition.shards as u32;

    for (s, mut shard) in shards.into_iter().enumerate() {
        let routing = shard.shard.take().expect("shard sims carry routing");
        assert!(
            routing.outbox.is_empty(),
            "cross arrivals must be delivered before merging"
        );
        assert_eq!(
            shard.world.group_addrs, sim.world.group_addrs,
            "groups must be registered before running (a shard interned a new one)"
        );
        if nodes.is_empty() {
            nodes.resize_with(shard.world.nodes.len(), || None);
            links.resize_with(shard.world.links.len(), || None);
            agents.resize_with(shard.agents.len(), || None);
        }
        for (i, node) in shard.world.nodes.drain(..).enumerate() {
            if owner[i] as usize == s {
                nodes[i] = Some(node);
            }
        }
        for (i, link) in shard.world.links.drain(..).enumerate() {
            if owner[link.from.index()] as usize == s {
                links[i] = Some(link);
            }
        }
        for (a, slot) in shard.agents.drain(..).enumerate() {
            if owner[sim.world.agent_nodes[a].index()] as usize == s {
                agents[a] = slot;
            }
        }
        uid_delta += shard.world.uid - base_uid;
        processed += shard.world.events.processed();
        peak += shard.world.events.high_water();
        per_shard.push(shard.world.events.processed());
        // Traced run: pull each shard's recorder, stamp its executor
        // counters, and fold leaves into the root recorder (shard 0 is
        // visited first, so the root is always in hand by then).
        if let Some(mut rec) = shard.world.take_tracer() {
            let high = shard.world.events.high_water() as u64;
            if s == 0 {
                rec.metrics.events_executed += shard.world.events.processed();
                rec.metrics.queue_high_water = rec.metrics.queue_high_water.max(high);
                root_rec = Some(rec);
            } else {
                rec.metrics.events_executed = shard.world.events.processed();
                rec.metrics.queue_high_water = high;
                if let Some(root) = root_rec.as_mut() {
                    root.absorb(rec);
                }
            }
        }
        // The window loop only exits once every shard's frontier is past
        // the horizon; a leftover inside it would be a lost event.
        debug_assert!(
            shard.world.events.peek_time().is_none_or(|at| at > t),
            "shard {s} kept an unexecuted event inside the horizon {t:?}"
        );
        leftovers.extend(shard.world.events.take_all());
        if s == 0 {
            sim.world.rng = std::mem::replace(&mut shard.world.rng, DetRng::new(0));
            sim.world.monitor = std::mem::replace(
                &mut shard.world.monitor,
                Monitor::new(sim.world.monitor.bin),
            );
        } else {
            let other = std::mem::replace(
                &mut shard.world.monitor,
                Monitor::new(sim.world.monitor.bin),
            );
            sim.world.monitor.merge_from(other);
        }
    }

    sim.world.nodes = nodes
        .into_iter()
        .map(|n| n.expect("every node has exactly one owner"))
        .collect();
    sim.world.links = links
        .into_iter()
        .map(|l| l.expect("every link has exactly one owner"))
        .collect();
    sim.agents = agents;
    sim.world.uid = base_uid + uid_delta;

    // Leftover future events: stable by time keeps (shard, seq) order
    // on ties — the same discipline the barrier merge uses.
    leftovers.sort_by_key(|&(at, _)| at);
    for (at, ev) in leftovers {
        sim.world.events.push(at, ev);
    }
    sim.world.events.add_processed(processed);
    sim.world.events.raise_high_water(peak);
    sim.world.now = t;
    if let Some(mut rec) = root_rec {
        rec.record(
            t,
            TraceEvent::ShardMerge {
                shards: k,
                events: processed,
            },
        );
        sim.world.attach_tracer(rec);
    }
    per_shard
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{AgentId, FlowId, GroupAddr};
    use crate::packet::{Dest, Packet};
    use crate::sim::Ctx;
    use mcc_simcore::merge_stamped;

    /// Multicast source: `count` packets to `group`, one every `gap`.
    /// Deliberately NOT `parallel_safe` (and it roots the group), so it
    /// always stays on shard 0.
    #[derive(Debug)]
    struct Blaster {
        group: GroupAddr,
        count: u64,
        gap: SimDuration,
        sent: u64,
        acks: u64,
    }
    impl Agent for Blaster {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.timer_in(SimDuration::ZERO, 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx, _tok: u64) {
            if self.sent < self.count {
                ctx.send(Packet::opaque(
                    1000 * 8,
                    FlowId(7),
                    ctx.agent,
                    Dest::Group(self.group),
                ));
                self.sent += 1;
                ctx.timer_in(self.gap, 0);
            }
        }
        fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {
            self.acks += 1;
        }
    }

    /// A parallel-safe member: joins at start, acks every third delivery
    /// back to the source (leaf → root cross traffic), optionally leaves
    /// mid-run (prune waves cross the cut in both directions).
    #[derive(Debug)]
    struct Member {
        group: GroupAddr,
        reply_to: AgentId,
        flow: FlowId,
        leave_at: Option<SimTime>,
        got: u64,
    }
    impl Agent for Member {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.join_group(self.group);
            if let Some(t) = self.leave_at {
                ctx.timer_at(t, 1);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx, _tok: u64) {
            ctx.leave_group(self.group);
        }
        fn on_packet(&mut self, ctx: &mut Ctx, _pkt: Packet) {
            self.got += 1;
            if self.got.is_multiple_of(3) {
                ctx.send(Packet::opaque(
                    64 * 8,
                    self.flow,
                    ctx.agent,
                    Dest::Agent(self.reply_to),
                ));
            }
        }
        fn parallel_safe(&self) -> bool {
            true
        }
    }

    /// Star: source host — router — `n` member hosts. Odd members leave
    /// at 400 ms; the source blasts 100 packets every 5 ms from 100 ms.
    fn star(n: usize) -> (Sim, Vec<AgentId>) {
        let mut sim = Sim::new(11, SimDuration::from_millis(100));
        let router = sim.add_node();
        let src_host = sim.add_node();
        sim.add_duplex_link(
            src_host,
            router,
            10_000_000,
            SimDuration::from_millis(5),
            Queue::drop_tail(200_000),
            Queue::drop_tail(200_000),
        );
        let g = GroupAddr(4);
        sim.register_group(g, src_host);
        let src = sim.add_agent(
            src_host,
            Box::new(Blaster {
                group: g,
                count: 100,
                gap: SimDuration::from_millis(5),
                sent: 0,
                acks: 0,
            }),
            SimTime::from_millis(100),
        );
        let mut members = Vec::new();
        for i in 0..n {
            let h = sim.add_node();
            sim.add_duplex_link(
                router,
                h,
                10_000_000,
                SimDuration::from_millis(2),
                Queue::drop_tail(50_000),
                Queue::drop_tail(50_000),
            );
            members.push(sim.add_agent(
                h,
                Box::new(Member {
                    group: g,
                    reply_to: src,
                    flow: FlowId(100 + i as u32),
                    leave_at: (i % 2 == 1).then(|| SimTime::from_millis(400)),
                    got: 0,
                }),
                SimTime::ZERO,
            ));
        }
        sim.finalize();
        (sim, members)
    }

    /// Everything observable, serialized: event/uid counters, every
    /// monitor record bit-for-bit, every link counter, every member's
    /// protocol state.
    fn digest(sim: &Sim, members: &[AgentId]) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        writeln!(
            s,
            "processed={} uid={}",
            sim.world.processed_events(),
            sim.world.uid
        )
        .unwrap();
        for (a, f) in sim.monitor().pairs() {
            let r = sim.monitor().get(a, f).unwrap();
            writeln!(
                s,
                "{a}/{f}: bits={} pkts={} first={:?} last={:?} bins={:?}",
                r.bits, r.packets, r.first, r.last, r.bins
            )
            .unwrap();
        }
        for l in &sim.world.links {
            writeln!(
                s,
                "{}: tx={} bits={} drops={} marks={}",
                l.id, l.stats.tx_packets, l.stats.tx_bits, l.stats.drops, l.stats.marks
            )
            .unwrap();
        }
        for &m in members {
            let mem = sim.agent_as::<Member>(m).unwrap();
            writeln!(s, "{m}: got={}", mem.got).unwrap();
        }
        s
    }

    #[test]
    fn sharded_run_matches_serial_byte_for_byte() {
        let horizon = SimTime::from_secs(1);
        let (mut serial, members) = star(12);
        serial.run_until(horizon);
        let want = digest(&serial, &members);
        assert!(
            want.contains("got=100"),
            "sanity: members saw traffic\n{want}"
        );

        for leaf_shards in [1, 2, 3, 5] {
            let (mut sharded, members) = star(12);
            let used = run_until_with_shards(&mut sharded, horizon, leaf_shards, 1);
            assert_eq!(used, leaf_shards + 1, "leaf shards + root");
            assert_eq!(
                digest(&sharded, &members),
                want,
                "{leaf_shards} leaf shards diverged from serial"
            );
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let horizon = SimTime::from_secs(1);
        let (mut one, members) = star(12);
        run_until_with_shards(&mut one, horizon, 4, 1);
        let want = digest(&one, &members);
        for workers in [2, 3, 8] {
            let (mut many, members) = star(12);
            run_until_with_shards(&mut many, horizon, 4, workers);
            assert_eq!(digest(&many, &members), want, "{workers} workers diverged");
        }
    }

    #[test]
    fn merged_sim_resumes_serially() {
        // Split mid-flight (packets in queues, timers pending), merge,
        // continue serially: indistinguishable from never sharding.
        let horizon = SimTime::from_millis(1500);
        let (mut serial, members) = star(12);
        serial.run_until(horizon);
        let want = digest(&serial, &members);

        let (mut mixed, members) = star(12);
        run_until_with_shards(&mut mixed, SimTime::from_millis(350), 3, 1);
        mixed.run_until(horizon);
        assert_eq!(digest(&mixed, &members), want, "merge lost queue state");
    }

    #[test]
    fn auto_partitioner_declines_small_scenarios() {
        let (sim, _) = star(12);
        assert!(
            Partition::auto(&sim).is_none(),
            "12 hosts is below the 2×MIN_HOSTS_PER_SHARD floor"
        );
        let (mut sim, members) = star(12);
        assert_eq!(run_until_sharded(&mut sim, SimTime::from_secs(1), 4), 1);
        let _ = digest(&sim, &members); // still a sane, complete world
    }

    #[test]
    fn auto_partitioner_shards_large_scenarios() {
        let (sim, _) = star(2 * MIN_HOSTS_PER_SHARD);
        let p = Partition::auto(&sim).expect("large enough to shard");
        assert_eq!(p.shards(), 3, "16 hosts / MIN=8 → 2 leaf blocks + root");
        // Router and source host stay on the root shard.
        assert_eq!(p.owner(NodeId(0)), 0);
        assert_eq!(p.owner(NodeId(1)), 0);
    }

    /// Canonical trace lines of one traced run: merge, then content sort
    /// at equal times — the discipline the core `obs` sinks use.
    fn trace_lines(leaf_shards: usize, workers: usize) -> Vec<String> {
        let horizon = SimTime::from_secs(1);
        let (mut sim, _members) = star(12);
        sim.world.attach_tracer(Recorder::new(0, DEFAULT_RING_CAP));
        if leaf_shards == 0 {
            sim.run_until(horizon);
        } else {
            run_until_with_shards(&mut sim, horizon, leaf_shards, workers);
        }
        let mut rec = sim.world.take_tracer().expect("tracer survives the run");
        assert_eq!(rec.metrics.trace_overflow, 0, "ring must not overflow");
        let mut evs = rec.take_sim();
        merge_stamped(&mut evs);
        let mut keyed: Vec<(u64, String)> = evs
            .iter()
            .map(|s| (s.at.as_nanos(), mcc_obs::jsonl::render(0, s.at, &s.msg)))
            .collect();
        keyed.sort();
        keyed.into_iter().map(|(_, l)| l).collect()
    }

    #[test]
    fn traced_runs_are_identical_across_shards_and_workers() {
        let want = trace_lines(0, 1);
        assert!(!want.is_empty(), "sanity: the run produced trace events");
        for (leaf_shards, workers) in [(1, 1), (3, 1), (3, 2), (5, 8)] {
            assert_eq!(
                trace_lines(leaf_shards, workers),
                want,
                "{leaf_shards} leaf shards / {workers} workers diverged from serial"
            );
        }
    }

    #[test]
    fn traced_shard_run_files_per_shard_metrics() {
        let horizon = SimTime::from_secs(1);
        let (mut sim, _members) = star(12);
        sim.world.attach_tracer(Recorder::new(0, DEFAULT_RING_CAP));
        let per_shard = {
            let p = Partition::explicit(&sim, 3).expect("shardable");
            run_partitioned(&mut sim, horizon, &p, 1)
        };
        assert_eq!(per_shard.len(), 4, "root + 3 leaf shards");
        assert!(per_shard.iter().all(|&n| n > 0), "every shard ran events");
        let rec = sim.world.take_tracer().expect("tracer re-attached");
        assert_eq!(rec.shards.len(), 3, "leaf recorders filed by shard id");
        for s in 1..=3u32 {
            assert_eq!(
                rec.shards[&s].events_executed, per_shard[s as usize],
                "shard {s} executor counter"
            );
        }
        let total = rec.total_metrics();
        assert!(total.windows > 0, "window events were recorded");
        assert!(total.exchange_msgs > 0, "cross traffic was tallied");
        assert!(total.delivers > 0, "leaf deliveries were traced");
    }

    #[test]
    fn explicit_shard_count_is_clamped_to_hosts() {
        let (sim, _) = star(3);
        let p = Partition::explicit(&sim, 64).expect("members are shardable");
        assert_eq!(p.shards(), 4, "3 eligible hosts cap the leaf shards at 3");
    }
}
