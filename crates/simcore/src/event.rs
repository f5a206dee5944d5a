//! The future event list.
//!
//! [`EventQueue`] is a priority queue keyed on `(SimTime, sequence)` where the
//! sequence number is assigned at insertion. Two events scheduled for the same
//! instant therefore pop in insertion order, which makes the whole simulation
//! a *total* order: replaying a scenario with the same seed reproduces every
//! packet drop bit-for-bit.
//!
//! The backing store is an implicit **4-ary min-heap over 24-byte keys**
//! rather than the standard library's binary `BinaryHeap` of full entries.
//! Two things make this fast for simulator churn (every pop is shortly
//! followed by one or two pushes near the head):
//!
//! * the heap array holds only `(at, seq, slot)` keys; the events
//!   themselves — which can be hundreds of bytes once a packet payload is
//!   inline — live in a slab indexed by `slot` and are written exactly
//!   once on push and read exactly once on pop, never moved by sifting;
//! * a 4-ary layout halves the sift depth (`log₄ n` vs `log₂ n`) and puts
//!   all four children of a node in one or two cache lines.
//!
//! Freed slab slots are recycled through a free list, so steady-state
//! operation allocates nothing. The `(at, seq)` key is a total order, so
//! the pop sequence is independent of the heap's internal layout (and of
//! slab slot assignment) — swapping the container cannot change
//! simulation results.
//!
//! One push pattern gets a dedicated fast path. A new push carries the
//! largest sequence number, so among events with equal timestamps it
//! always pops last, and a FIFO ordered by insertion is exactly heap
//! order. **Runs of pushes sharing a timestamp** (a multicast fan-out
//! scheduling thousands of departures at the same serialization finish,
//! then thousands of arrivals at the same propagation delay; a delivery to
//! a co-located agent "now") therefore accumulate in a bounded set of
//! `MAX_RUNS` deques, each keyed by one timestamp, so interleaved
//! produce/consume streams coexist without touching the heap. When all
//! runs are occupied, the least-recently-extended one is spilled into the
//! heap; in the degenerate case (every push a new time) this costs one
//! extra move per event, while in fan-out-heavy workloads it eliminates
//! almost all heap traffic.
//!
//! `pop` takes the minimum `(at, seq)` over the two source fronts (first
//! run, heap top); each source is internally sorted by that key, so the
//! minimum of fronts is the global minimum.
//!
//! What each part buys was ablated with the repo benchmark (ISSUE 15:
//! `benchmark -- --workload W --seed 42 --seconds 10 --trace 0`,
//! alternating order, every `sim_digest` identical; table in DESIGN.md
//! "Simulator hot path"). Without the run deques `fanout_dl` takes 4.15 s
//! against 2.89 s (+44 %) — but `unicast_mix`, where every timestamp is
//! distinct, runs 2x *faster* without them (1.62 s vs 3.35 s; open item in
//! ROADMAP.md). Without `run_memo` the multicast workloads are 2-6 %
//! slower. A push at the instant of the last pop needs no front of its
//! own — it is a push to the run keyed by that instant, and a dedicated
//! deque for it made no resolvable difference on any workload.

use crate::time::SimTime;
use std::collections::VecDeque;

/// Children per node of the implicit heap.
const D: usize = 4;

/// Maximum number of live same-timestamp runs (see module docs). The
/// simulator keeps tens of future instants hot at once — one
/// departure/arrival wave pair per packet in flight on a fanned-out hop,
/// plus protocol timers — and runs are looked up by binary search, so a
/// generous cap costs little on pushes and nothing on pops.
const MAX_RUNS: usize = 64;

/// One run: events sharing a single future timestamp, in insertion order.
struct Run<E> {
    at: SimTime,
    dq: VecDeque<(u64, E)>,
    /// Sequence number of the last push, as an LRU clock for spills.
    last_use: u64,
}

/// One heap entry: the ordering key plus the slab slot of its event.
#[derive(Clone, Copy)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Key {
    /// The total-order key: earlier time first, insertion order on ties.
    #[inline]
    fn ord(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// A deterministic future event list.
///
/// ```
/// use mcc_simcore::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(1), 'b');
/// q.push(SimTime::from_secs(1), 'c'); // same instant: insertion order wins
/// q.push(SimTime::from_millis(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
pub struct EventQueue<E> {
    /// Implicit 4-ary min-heap on `(at, seq)`: children of index `i` live
    /// at `D*i + 1 ..= D*i + D`. Only these 24-byte keys move on sift.
    heap: Vec<Key>,
    /// Event storage for heap entries, indexed by `Key::slot`.
    slab: Vec<Option<E>>,
    /// Recycled slab slots.
    free: Vec<u32>,
    /// Live same-timestamp runs, sorted ascending by `at` (unique).
    /// A deque because drained runs leave at the front while fresh
    /// timestamps usually enter at the back.
    runs: VecDeque<Run<E>>,
    /// Recycled run deques (capacity kept warm).
    spare_runs: Vec<VecDeque<(u64, E)>>,
    /// Guess for the run index of the next push — fan-out waves push
    /// hundreds of events at one timestamp, so the previous push's run is
    /// almost always the next one's. Validated by timestamp before use
    /// (run timestamps are unique), so a stale index is a miss, never a
    /// wrong answer.
    run_memo: usize,
    /// Total pending events across heap and runs.
    count: usize,
    next_seq: u64,
    popped: u64,
    high_water: usize,
    /// Debug-build watermark: a key strictly below every pending key, so
    /// every pop must return something strictly above it. Advancing it to
    /// each popped key pins both time order and the FIFO tie-break (same
    /// instant ⇒ rising seq) against heap/run regressions. A push
    /// earlier than the floor rewinds it (the raw queue permits past
    /// pushes even though the simulation never issues them).
    #[cfg(debug_assertions)]
    pop_floor: (SimTime, u64),
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            runs: VecDeque::new(),
            spare_runs: Vec::new(),
            run_memo: 0,
            count: 0,
            next_seq: 0,
            popped: 0,
            high_water: 0,
            #[cfg(debug_assertions)]
            pop_floor: (SimTime::ZERO, 0),
        }
    }

    /// Schedule `event` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        #[cfg(debug_assertions)]
        {
            // Keep the floor strictly below the new key: `(at, 0)` is
            // below every real key at `at` except the first-ever push's
            // `(at, seq = 0)`, which the `popped == 0` guard in
            // `pop_until` covers.
            self.pop_floor = self.pop_floor.min((at, 0));
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.count += 1;
        self.high_water = self.high_water.max(self.count);
        // Same-instant fast path: extend the run carrying this
        // timestamp, or open a new one. When the table is full the victim
        // is the smallest, stalest run: lone-timestamp traffic (a TCP
        // stream's per-packet times) spills for the price of an ordinary
        // heap insert, while the wide fan-out waves worth protecting are
        // exactly the runs that keep growing.
        if let Some(r) = self.runs.get_mut(self.run_memo) {
            if r.at == at {
                r.dq.push_back((seq, event));
                r.last_use = seq;
                return;
            }
        }
        match self.runs.binary_search_by(|r| r.at.cmp(&at)) {
            Ok(i) => {
                self.runs[i].dq.push_back((seq, event));
                self.runs[i].last_use = seq;
                self.run_memo = i;
            }
            Err(i) => {
                let mut i = i;
                if self.runs.len() >= MAX_RUNS {
                    let victim = self
                        .runs
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, r)| (r.dq.len(), r.last_use))
                        .map(|(j, _)| j)
                        .expect("runs non-empty");
                    self.spill_run(victim);
                    if victim < i {
                        i -= 1;
                    }
                }
                let mut dq = self.spare_runs.pop().unwrap_or_default();
                dq.push_back((seq, event));
                self.runs.insert(
                    i,
                    Run {
                        at,
                        dq,
                        last_use: seq,
                    },
                );
                self.run_memo = i;
            }
        }
    }

    /// Move every event of run `i` into the heap (its timestamp lost the
    /// recency race) and recycle its deque.
    fn spill_run(&mut self, i: usize) {
        let mut run = self.runs.remove(i).expect("index in range");
        let at = run.at;
        for (seq, event) in run.dq.drain(..) {
            self.heap_insert(at, seq, event);
        }
        self.spare_runs.push(run.dq);
    }

    fn heap_insert(&mut self, at: SimTime, seq: u64, event: E) {
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = Some(event);
                s
            }
            None => {
                self.slab.push(Some(event));
                (self.slab.len() - 1) as u32
            }
        };
        self.heap.push(Key { at, seq, slot });
        self.sift_up(self.heap.len() - 1);
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_until(SimTime::from_nanos(u64::MAX))
    }

    /// Remove and return the earliest event **scheduled at or before
    /// `t`**, if any; later events stay put. This fuses the `peek_time` +
    /// `pop` pair an event loop with a horizon would otherwise issue, so
    /// the source fronts are scanned once per event instead of twice.
    pub fn pop_until(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        // The minimum (at, seq) over the two source fronts: each source
        // is sorted by that key (runs are sorted by time and hold unique
        // timestamps, so only the first run can hold the minimum), making
        // the minimum of fronts the global minimum. Branchy rather than
        // iterator-combined: this runs once per simulated event and the
        // common case (the front run wins) should cost one compare.
        const NONE: (SimTime, u64) = (SimTime::from_nanos(u64::MAX), u64::MAX);
        let run_ord = match self.runs.front() {
            Some(r) => (r.at, r.dq.front().expect("runs are never empty").0),
            None => NONE,
        };
        let heap_ord = match self.heap.first() {
            Some(k) => k.ord(),
            None => NONE,
        };
        let best = run_ord.min(heap_ord);
        if best == NONE || best.0 > t {
            return None;
        }
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                self.popped == 0 || best > self.pop_floor,
                "pop order regressed: {best:?} at or below the floor {:?}",
                self.pop_floor
            );
            self.pop_floor = best;
        }
        self.popped += 1;
        self.count -= 1;
        if run_ord == best {
            let run = &mut self.runs[0];
            let (_, event) = run.dq.pop_front().expect("checked front");
            if run.dq.is_empty() {
                let run = self.runs.pop_front().expect("checked non-empty");
                self.spare_runs.push(run.dq);
            }
            return Some((best.0, event));
        }
        let k = *self.heap.first().expect("checked front");
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        self.heap.pop();
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        let event = self.slab[k.slot as usize].take().expect("slot occupied");
        self.free.push(k.slot);
        Some((k.at, event))
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        let heap = self.heap.first().map(|k| k.at);
        match self.runs.front() {
            Some(run) => Some(heap.map_or(run.at, |t| t.min(run.at))),
            None => heap,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Total number of events processed so far (diagnostics/benchmarks).
    pub fn processed(&self) -> u64 {
        self.popped
    }

    /// The deepest the queue has ever been (diagnostics/benchmarks).
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    fn sift_up(&mut self, mut i: usize) {
        let moving = self.heap[i];
        let ord = moving.ord();
        while i > 0 {
            let parent = (i - 1) / D;
            if ord < self.heap[parent].ord() {
                self.heap[i] = self.heap[parent];
                i = parent;
            } else {
                break;
            }
        }
        self.heap[i] = moving;
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        let moving = self.heap[i];
        let ord = moving.ord();
        loop {
            let first_child = D * i + 1;
            if first_child >= n {
                break;
            }
            // The smallest among the up-to-four children.
            let mut best = first_child;
            let mut best_ord = self.heap[first_child].ord();
            for c in (first_child + 1)..(first_child + D).min(n) {
                let k = self.heap[c].ord();
                if k < best_ord {
                    best = c;
                    best_ord = k;
                }
            }
            if best_ord < ord {
                self.heap[i] = self.heap[best];
                i = best;
            } else {
                break;
            }
        }
        self.heap[i] = moving;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), 3);
        q.push(SimTime::from_secs(1), 1);
        q.push(SimTime::from_secs(2), 2);
        assert_eq!(q.pop().unwrap(), (SimTime::from_secs(1), 1));
        assert_eq!(q.pop().unwrap(), (SimTime::from_secs(2), 2));
        assert_eq!(q.pop().unwrap(), (SimTime::from_secs(3), 3));
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(10);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), 'e');
        q.push(SimTime::from_secs(1), 'a');
        assert_eq!(q.pop().unwrap().1, 'a');
        q.push(SimTime::from_secs(2), 'b');
        q.push(SimTime::from_secs(4), 'd');
        assert_eq!(q.pop().unwrap().1, 'b');
        q.push(SimTime::from_secs(3), 'c');
        assert_eq!(q.pop().unwrap().1, 'c');
        assert_eq!(q.pop().unwrap().1, 'd');
        assert_eq!(q.pop().unwrap().1, 'e');
    }

    #[test]
    fn counters_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        let t0 = SimTime::ZERO + SimDuration::from_millis(1);
        q.push(t0, ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(t0));
        q.pop();
        assert_eq!(q.processed(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn high_water_tracks_peak_depth() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(SimTime::from_millis(i), i);
        }
        for _ in 0..10 {
            q.pop();
        }
        q.push(SimTime::from_millis(99), 99);
        assert_eq!(q.high_water(), 10, "peak, not current, depth");
        assert_eq!(q.len(), 1);
    }

    /// `pop_until` only surfaces events inside the horizon and leaves
    /// later ones untouched, across both internal sources.
    #[test]
    fn pop_until_respects_the_horizon() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), 'a'); // run/heap
        q.push(SimTime::from_secs(3), 'c');
        assert_eq!(q.pop_until(SimTime::from_millis(500)), None);
        assert_eq!(q.pop_until(SimTime::from_secs(1)).unwrap().1, 'a');
        q.push(SimTime::from_secs(1), 'b'); // at the instant of the last pop
        assert_eq!(q.pop_until(SimTime::from_secs(2)).unwrap().1, 'b');
        assert_eq!(q.pop_until(SimTime::from_secs(2)), None);
        assert_eq!(q.len(), 1, "the out-of-horizon event stays");
        assert_eq!(q.pop_until(SimTime::from_secs(3)).unwrap().1, 'c');
        assert!(q.is_empty());
    }

    /// Events pushed at the time of the last pop interleave correctly
    /// with pending events at the same and later instants, in global
    /// (time, seq) order.
    #[test]
    fn same_instant_pushes_pop_in_seq_order() {
        let mut q = EventQueue::new();
        let t1 = SimTime::from_millis(1);
        let t2 = SimTime::from_millis(2);
        q.push(t1, "a"); // run t1
        q.push(t2, "e"); // run t2
        assert_eq!(q.pop().unwrap(), (t1, "a"));
        q.push(t1, "b"); // at == last pop time: a fresh run t1
        q.push(t2, "f"); // run t2
        q.push(t1, "c"); // run t1
        assert_eq!(q.peek_time(), Some(t1));
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop().unwrap(), (t1, "b"));
        q.push(t1, "d"); // run t1 again after popping from it
        assert_eq!(q.pop().unwrap(), (t1, "c"));
        assert_eq!(q.pop().unwrap(), (t1, "d"));
        assert_eq!(q.pop().unwrap(), (t2, "e"));
        assert_eq!(q.pop().unwrap(), (t2, "f"));
        assert!(q.pop().is_none());
        assert_eq!(q.processed(), 6);
    }

    /// A deep heap exercises multi-level sift-down paths (4 levels at
    /// 1000 entries), in reverse, shuffled-ish and duplicate-key shapes.
    #[test]
    fn thousand_entries_drain_sorted() {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            // A deterministic scramble with many duplicate timestamps.
            q.push(SimTime::from_micros((i * 7919) % 97), i);
        }
        let mut last = (SimTime::ZERO, 0u64);
        let mut n = 0;
        while let Some((at, _)) = q.pop() {
            assert!(at >= last.0, "time went backwards");
            last = (at, 0);
            n += 1;
        }
        assert_eq!(n, 1000);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    proptest! {
        /// Popping always yields a non-decreasing time sequence, and ties
        /// preserve insertion order, for any interleaving of pushes.
        #[test]
        #[cfg_attr(miri, ignore)] // property loops are slow under Miri; unit tests cover the paths
        fn pops_are_sorted_and_stable(times in prop::collection::vec(0u64..50, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_millis(t), (t, i));
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((at, (_, idx))) = q.pop() {
                if let Some((lt, lidx)) = last {
                    prop_assert!(at >= lt, "time went backwards");
                    if at == lt {
                        prop_assert!(idx > lidx, "tie broke insertion order");
                    }
                }
                last = Some((at, idx));
            }
        }

        /// The queue returns exactly what was pushed (no loss, no dupes).
        #[test]
        #[cfg_attr(miri, ignore)] // property loops are slow under Miri; unit tests cover the paths
        fn conservation(times in prop::collection::vec(0u64..1000, 0..300)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_micros(t), i);
            }
            let mut seen: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..times.len()).collect::<Vec<_>>());
        }

        /// The 4-ary heap pops in *exactly* the order of a reference
        /// `BinaryHeap<Reverse<(SimTime, seq)>>` on arbitrary push/pop
        /// interleavings — including FIFO stability at equal timestamps,
        /// which the explicit `seq` in the reference key pins down.
        ///
        /// `ops`: `Some(t)` pushes at `t` ms (timestamps drawn from a tiny
        /// range, so equal-time collisions are common), `None` pops from
        /// both queues and compares.
        #[test]
        #[cfg_attr(miri, ignore)] // property loops are slow under Miri; unit tests cover the paths
        fn matches_reference_binary_heap(
            ops in prop::collection::vec(prop::option::weighted(0.6, 0u64..8), 1..400),
        ) {
            let mut q = EventQueue::new();
            let mut reference: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            for op in ops {
                match op {
                    Some(t) => {
                        let at = SimTime::from_millis(t);
                        q.push(at, seq);
                        reference.push(Reverse((at, seq)));
                        seq += 1;
                    }
                    None => {
                        let got = q.pop();
                        let want = reference.pop().map(|Reverse((at, s))| (at, s));
                        prop_assert_eq!(got, want, "pop diverged from reference");
                    }
                }
            }
            // Drain both: the full remaining order must agree too.
            while let Some(Reverse((at, s))) = reference.pop() {
                prop_assert_eq!(q.pop(), Some((at, s)), "drain diverged");
            }
            prop_assert!(q.pop().is_none(), "4-ary heap held extra events");
        }
    }
}
