//! The flight recorder and the counter metrics registry.
//!
//! One [`Recorder`] rides inside the `World` of a traced run. Recording is
//! append-to-ring plus a counter bump — no allocation after warm-up, no
//! locking, no I/O — so a recorder on the hot path costs one branch when
//! tracing is off and a few stores when it is on. Sinks establish the
//! canonical event order (see `mcc-core`'s `obs` module).

use crate::event::TraceEvent;
use mcc_simcore::SimTime;

/// Default ring capacity per recorder (events). At 48 bytes per
/// `(SimTime, TraceEvent)` entry this bounds a run's flight recorder at
/// 192 MiB; quick-mode
/// figure runs stay far below it. Overflow evicts the oldest events and
/// is counted in [`Metrics::trace_overflow`] — an overflowed trace is
/// still deterministic but no longer complete, so sinks surface the
/// counter.
pub const DEFAULT_RING_CAP: usize = 1 << 22;

/// Monotonic counters (and one high-water mark) for one traced run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Simulator events executed (queue pops).
    pub events_executed: u64,
    /// Event-queue high-water mark.
    pub queue_high_water: u64,
    /// Packet-lifecycle counters.
    pub enqueues: u64,
    pub transmits: u64,
    pub(crate) marks: u64,
    pub drops: u64,
    pub delivers: u64,
    /// SIGMA guard counters.
    pub guard_checks: u64,
    pub(crate) guard_denials: u64,
    pub(crate) lockouts: u64,
    pub(crate) alarms: u64,
    /// FLID layer transitions.
    pub layer_changes: u64,
    /// Session membership churn (workload arrivals / departures).
    pub joins: u64,
    pub leaves: u64,
    /// SIGMA key tuples installed at routers.
    pub(crate) key_installs: u64,
    /// Events evicted from a full ring.
    pub trace_overflow: u64,
    /// Wall-clock nanoseconds the run spent in `run_until`.
    /// Reporting-only: measured by the caller through the audited
    /// wall-clock allow channel, never by event-recording code, and
    /// written to `OBS_*.json`, never to the byte-compared trace sinks.
    pub busy_ns: u64,
}

impl Metrics {
    fn count(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::PktEnqueue(_) => self.enqueues += 1,
            TraceEvent::PktTransmit(_) => self.transmits += 1,
            TraceEvent::PktMark(_) => self.marks += 1,
            TraceEvent::PktDrop(..) => self.drops += 1,
            TraceEvent::PktDeliver(_) => self.delivers += 1,
            TraceEvent::SigmaFilter { allowed, .. } => {
                self.guard_checks += 1;
                if !allowed {
                    self.guard_denials += 1;
                }
            }
            TraceEvent::SigmaLockout { .. } => self.lockouts += 1,
            TraceEvent::SigmaAlarm { .. } => self.alarms += 1,
            TraceEvent::FlidLayer { .. } => self.layer_changes += 1,
            TraceEvent::Join { .. } => self.joins += 1,
            TraceEvent::Leave { .. } => self.leaves += 1,
            TraceEvent::KeyInstall { .. } => self.key_installs += 1,
        }
    }

    /// Fold `other` into `self` (sums; high-water by max).
    pub fn add(&mut self, other: &Metrics) {
        self.events_executed += other.events_executed;
        self.queue_high_water = self.queue_high_water.max(other.queue_high_water);
        self.enqueues += other.enqueues;
        self.transmits += other.transmits;
        self.marks += other.marks;
        self.drops += other.drops;
        self.delivers += other.delivers;
        self.guard_checks += other.guard_checks;
        self.guard_denials += other.guard_denials;
        self.lockouts += other.lockouts;
        self.alarms += other.alarms;
        self.layer_changes += other.layer_changes;
        self.joins += other.joins;
        self.leaves += other.leaves;
        self.key_installs += other.key_installs;
        self.trace_overflow += other.trace_overflow;
        self.busy_ns += other.busy_ns;
    }

    /// `(name, value)` pairs in a fixed order, for canonical serialization
    /// by callers that own a JSON writer (mcc-obs itself has none).
    pub fn pairs(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("events_executed", self.events_executed),
            ("queue_high_water", self.queue_high_water),
            ("enqueues", self.enqueues),
            ("transmits", self.transmits),
            ("marks", self.marks),
            ("drops", self.drops),
            ("delivers", self.delivers),
            ("guard_checks", self.guard_checks),
            ("guard_denials", self.guard_denials),
            ("lockouts", self.lockouts),
            ("alarms", self.alarms),
            ("layer_changes", self.layer_changes),
            ("joins", self.joins),
            ("leaves", self.leaves),
            ("key_installs", self.key_installs),
            ("trace_overflow", self.trace_overflow),
            ("busy_ns", self.busy_ns),
        ]
    }
}

/// A simple bounded ring of `(time, event)` entries.
#[derive(Debug, Default)]
struct Ring {
    buf: Vec<(SimTime, TraceEvent)>,
    /// Next overwrite position once `buf.len() == cap`.
    head: usize,
    evicted: u64,
}

impl Ring {
    fn push(&mut self, cap: usize, s: (SimTime, TraceEvent)) {
        if self.buf.len() < cap {
            self.buf.push(s);
        } else {
            self.buf[self.head] = s;
            self.head = (self.head + 1) % cap;
            self.evicted += 1;
        }
    }

    /// Drain in record order (oldest surviving first).
    fn drain(&mut self) -> Vec<(SimTime, TraceEvent)> {
        let mut out = std::mem::take(&mut self.buf);
        out.rotate_left(self.head);
        self.head = 0;
        out
    }
}

/// The flight recorder of one run: a ring of time-stamped events plus the
/// run's [`Metrics`].
#[derive(Debug)]
pub struct Recorder {
    cap: usize,
    ring: Ring,
    /// Counters for every event recorded.
    pub metrics: Metrics,
}

impl Recorder {
    /// A recorder whose ring holds at most `cap` events. The first
    /// argument is ignored; it keeps the signature `benchmark/` calls.
    pub fn new(_stream: u32, cap: usize) -> Self {
        Recorder {
            cap: cap.max(1),
            ring: Ring::default(),
            metrics: Metrics::default(),
        }
    }

    /// Record one event at sim-time `at`.
    #[inline]
    pub fn record(&mut self, at: SimTime, ev: TraceEvent) {
        self.metrics.count(&ev);
        self.ring.push(self.cap, (at, ev));
        self.metrics.trace_overflow = self.ring.evicted;
    }

    /// Take the `(time, event)` entries recorded so far, oldest surviving
    /// first.
    pub fn take_events(&mut self) -> Vec<(SimTime, TraceEvent)> {
        self.ring.drain()
    }

    /// The run's metrics (a copy of [`Self::metrics`]).
    pub fn total_metrics(&self) -> Metrics {
        self.metrics.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DropReason, PktRef};

    fn pkt(flow: u32) -> TraceEvent {
        TraceEvent::PktEnqueue(PktRef {
            node: 0,
            link: 1,
            flow,
            src: 3,
            group: 4,
            agent: u32::MAX,
            size_bits: 8,
        })
    }

    #[test]
    fn records_count_and_classify() {
        let mut r = Recorder::new(0, 16);
        r.record(SimTime::from_nanos(5), pkt(1));
        r.record(
            SimTime::from_nanos(6),
            TraceEvent::PktDrop(
                PktRef {
                    node: 0,
                    link: 1,
                    flow: 2,
                    src: 3,
                    group: 4,
                    agent: u32::MAX,
                    size_bits: 8,
                },
                DropReason::QueueFull,
            ),
        );
        r.record(
            SimTime::from_nanos(7),
            TraceEvent::Join { agent: 1, group: 4 },
        );
        assert_eq!(r.metrics.enqueues, 1);
        assert_eq!(r.metrics.drops, 1);
        assert_eq!(r.metrics.joins, 1);
        assert_eq!(r.take_events().len(), 3);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_overflow() {
        let mut r = Recorder::new(0, 3);
        for flow in 1..=5 {
            r.record(SimTime::from_nanos(flow as u64), pkt(flow));
        }
        assert_eq!(r.metrics.trace_overflow, 2);
        let kept: Vec<u32> = r
            .take_events()
            .iter()
            .map(|(_, ev)| ev.pkt().expect("packet event").flow)
            .collect();
        assert_eq!(kept, vec![3, 4, 5], "oldest events evicted first");
    }

    /// The figure `DEFAULT_RING_CAP`'s bound is computed from.
    #[test]
    fn a_ring_entry_is_48_bytes() {
        assert_eq!(size_of::<(SimTime, TraceEvent)>(), 48);
    }

    #[test]
    fn metrics_add_uses_max_for_high_water() {
        let mut a = Metrics {
            events_executed: 10,
            queue_high_water: 7,
            ..Metrics::default()
        };
        let b = Metrics {
            events_executed: 5,
            queue_high_water: 3,
            ..Metrics::default()
        };
        a.add(&b);
        assert_eq!(a.events_executed, 15);
        assert_eq!(a.queue_high_water, 7);
    }

    #[test]
    fn pairs_cover_every_counter_once() {
        let names: Vec<&str> = Metrics::default().pairs().iter().map(|p| p.0).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert!(names.contains(&"events_executed"));
        assert!(names.contains(&"trace_overflow"));
        assert!(names.contains(&"busy_ns"));
    }
}
