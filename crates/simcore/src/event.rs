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
//! produce/consume streams coexist without touching the heap.
//!
//! Which timestamps earn a run is read off the push stream itself, with no
//! knob: a push whose timestamp has no run goes straight to the heap, and
//! only a *second* push at that same timestamp opens one. A stream of
//! distinct timestamps (TCP's per-packet times) thus costs exactly one
//! heap insert per event and never touches the run table, while a fan-out
//! wave leaves its first event in the heap and queues the rest in a run;
//! the first, holding the lower sequence number, still pops first. When
//! all runs are occupied the furthest one is spilled into the heap.
//!
//! `pop` takes the minimum `(at, seq)` over the two source fronts (first
//! run, heap top); each source is internally sorted by that key, so the
//! minimum of fronts is the global minimum.
//!
//! What each part buys was ablated with the repo benchmark
//! (`benchmark -- --workload W --seed 42 --seconds 10 --trace 0`,
//! alternating order, every `sim_digest` identical; table in DESIGN.md
//! "Simulator hot path"). Without the run deques `fanout_dl` takes 4.15 s
//! against 2.89 s (+44 %). Opening a run on every new timestamp instead
//! of on its second push makes `unicast_mix`, where 97 % of pushes carry
//! a timestamp of their own, take 1.97 s against 1.06 s, and leaves
//! `fanout_dl` flat. Without `run_memo` the multicast workloads are 2-6 %
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
    /// Timestamp of the last push that had no run and went to the heap: a
    /// further push there opens one. Only steers which source an event
    /// lands in, never pop order.
    lone_at: SimTime,
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
            lone_at: SimTime::from_nanos(u64::MAX),
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
        // Same-instant fast path: extend the run carrying this timestamp.
        // A timestamp without a run goes to the heap on its first push
        // (a TCP stream's per-packet times never come back) and opens a
        // run only on its second, when it has shown itself to be a wave;
        // its first event stays in the heap and, holding the lower seq,
        // pops first. When the table is full the furthest run spills: it
        // is the one whose events wait longest anyway.
        if let Some(r) = self.runs.get_mut(self.run_memo) {
            if r.at == at {
                r.dq.push_back((seq, event));
                return;
            }
        }
        match self.runs.binary_search_by(|r| r.at.cmp(&at)) {
            Ok(i) => {
                self.runs[i].dq.push_back((seq, event));
                self.run_memo = i;
            }
            Err(i) if at == self.lone_at => {
                if self.runs.len() >= MAX_RUNS {
                    self.spill_back();
                }
                // The new run may itself lie past the one just spilled.
                let i = i.min(self.runs.len());
                let mut dq = self.spare_runs.pop().unwrap_or_default();
                dq.push_back((seq, event));
                self.runs.insert(i, Run { at, dq });
                self.run_memo = i;
            }
            Err(_) => {
                self.lone_at = at;
                self.heap_insert(at, seq, event);
            }
        }
    }

    /// Move every event of the furthest run into the heap and recycle its
    /// deque.
    fn spill_back(&mut self) {
        let mut run = self.runs.pop_back().expect("table is full");
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
    /// `t`**, if any; later events stay put. An event loop with a horizon
    /// needs no separate peek: the source fronts are scanned once per
    /// event, and the same scan both tests the horizon and pops.
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

    /// Number of pending events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// True when no events are pending.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
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
        assert_eq!(q.pop_until(SimTime::from_secs(1)), None);
        let t0 = SimTime::ZERO + SimDuration::from_millis(1);
        q.push(t0, ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_until(SimTime::from_micros(999)), None);
        assert_eq!(q.len(), 1, "an event past the horizon stays");
        assert_eq!(q.pop_until(t0), Some((t0, ())));
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
        q.push(t1, "a"); // lone t1: heap
        q.push(t2, "e"); // lone t2: heap
        assert_eq!(q.pop().unwrap(), (t1, "a"));
        q.push(t1, "b"); // at == last pop time, lone again: heap
        q.push(t1, "c"); // second push at t1: opens run t1, "b" stays put
        q.push(t2, "f"); // lone t2: heap
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop_until(t1).unwrap(), (t1, "b"), "heap front, lower seq");
        q.push(t1, "d"); // run t1 again after popping at its instant
        assert_eq!(q.pop().unwrap(), (t1, "c"));
        assert_eq!(q.pop().unwrap(), (t1, "d"));
        assert_eq!(q.pop().unwrap(), (t2, "e"));
        assert_eq!(q.pop().unwrap(), (t2, "f"));
        assert!(q.pop().is_none());
        assert_eq!(q.processed(), 6);
    }

    /// A timestamp's first push goes to the heap; only a second push at it
    /// opens a run, and the split wave still pops in seq order.
    #[test]
    fn lone_timestamps_bypass_the_run_table() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.push(SimTime::from_micros(10 * i), i);
        }
        assert!(q.runs.is_empty(), "distinct timestamps open no run");
        assert_eq!(q.heap.len(), 100);
        let t = SimTime::from_micros(5);
        q.push(t, 100);
        assert!(q.runs.is_empty());
        q.push(t, 101);
        assert_eq!(q.runs.len(), 1, "the second push opens the run");
        assert_eq!((q.runs[0].at, q.runs[0].dq.len()), (t, 1));
        assert_eq!(q.heap.len(), 101, "the first event stays in the heap");
        assert_eq!(q.pop().unwrap(), (SimTime::ZERO, 0));
        assert_eq!(q.pop().unwrap(), (t, 100));
        assert_eq!(q.pop().unwrap(), (t, 101));
        assert!(q.runs.is_empty(), "the drained run leaves the table");
        for i in 1..100u64 {
            assert_eq!(q.pop().unwrap(), (SimTime::from_micros(10 * i), i));
        }
        assert!(q.is_empty());
    }

    /// More paired timestamps than `MAX_RUNS`: each overflow spills the
    /// furthest run to the heap — also when the new run is itself the
    /// furthest — and the drain is still in (time, seq) order.
    #[test]
    fn full_run_table_spills_the_furthest_run() {
        const N: u64 = MAX_RUNS as u64 + 8;
        /// Two pushes at each of `times`, then the run table's timestamps.
        fn paired(times: impl Iterator<Item = u64>) -> (EventQueue<(u64, u8)>, Vec<u64>) {
            let mut q = EventQueue::new();
            for t in times {
                q.push(SimTime::from_millis(t), (t, 0));
                q.push(SimTime::from_millis(t), (t, 1));
            }
            let runs = q.runs.iter().map(|r| r.at.as_nanos() / 1_000_000).collect();
            (q, runs)
        }
        fn assert_drains_in_order(mut q: EventQueue<(u64, u8)>) {
            // Every first push went to the heap, plus one event per spill.
            assert_eq!(q.heap.len(), 2 * N as usize - MAX_RUNS);
            let all: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            let want: Vec<_> = (0..N).flat_map(|t| [(t, 0), (t, 1)]).collect();
            assert_eq!(all, want);
        }

        // Nearer and nearer pairs: the furthest runs spill, the nearest stay.
        let (q, runs) = paired((0..N).rev());
        assert_eq!(runs, (0..MAX_RUNS as u64).collect::<Vec<_>>());
        assert_drains_in_order(q);

        // Further and further pairs: each new run replaces the last one.
        let (q, runs) = paired(0..N);
        let kept: Vec<u64> = (0..MAX_RUNS as u64 - 1).chain([N - 1]).collect();
        assert_eq!(runs, kept);
        assert_drains_in_order(q);
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

        /// The same reference on bursty traffic: `Some(v)` pushes a burst
        /// of `v % 4 + 1` events at `v / 4` ms (0..200 ms), `None` pops.
        /// Lone timestamps, runs opened by a burst's second event and, with
        /// often more than `MAX_RUNS` paired timestamps live, spilled runs
        /// all occur.
        #[test]
        #[cfg_attr(miri, ignore)] // property loops are slow under Miri; unit tests cover the paths
        fn bursty_pushes_match_reference(
            ops in prop::collection::vec(prop::option::weighted(0.6, 0u64..800), 1..600),
        ) {
            let mut q = EventQueue::new();
            let mut reference: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            for op in ops {
                match op {
                    Some(v) => {
                        let at = SimTime::from_millis(v / 4);
                        for _ in 0..=v % 4 {
                            q.push(at, seq);
                            reference.push(Reverse((at, seq)));
                            seq += 1;
                        }
                    }
                    None => {
                        let got = q.pop();
                        let want = reference.pop().map(|Reverse((at, s))| (at, s));
                        prop_assert_eq!(got, want, "pop diverged from reference");
                    }
                }
            }
            while let Some(Reverse((at, s))) = reference.pop() {
                prop_assert_eq!(q.pop(), Some((at, s)), "drain diverged");
            }
            prop_assert!(q.pop().is_none(), "queue held extra events");
        }
    }
}
