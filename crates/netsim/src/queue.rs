//! Output queues: drop-tail FIFO and RED with ECN marking.
//!
//! The paper's evaluation uses drop-tail FIFOs sized at two bandwidth-delay
//! products (§5.1). The RED/ECN variant exists to exercise DELTA's explicit
//! congestion notification instantiation (§3.1.2 "Congestion notification"):
//! a marking queue lets a protocol define "congested" as "received a marked
//! packet", and the edge router then scrambles the component fields of marked
//! packets so ineligible receivers cannot reconstruct group keys.

use crate::packet::{Ecn, Packet};
use mcc_simcore::{DetRng, SimDuration, SimTime};
use std::collections::VecDeque;

/// What happened when a packet was offered to a queue.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EnqueueOutcome {
    /// Accepted unchanged.
    Enqueued,
    /// Accepted and ECN-marked (RED on an ECN-capable packet).
    Marked,
    /// Rejected; the caller must account the loss.
    Dropped,
}

/// RED's average-queue lower threshold, in quarters of the byte limit:
/// below it, never mark.
const MIN_THRESH_QUARTERS: u64 = 1;
/// RED's average-queue upper threshold, in quarters of the byte limit:
/// above it, always mark/drop.
const MAX_THRESH_QUARTERS: u64 = 3;
/// RED's marking probability at the upper threshold (gentle RED ramps to
/// 1 above it).
const MAX_P: f64 = 0.1;
/// EWMA weight of RED's average queue estimate.
const WEIGHT: f64 = 0.002;

/// Configuration for a RED (random early detection) queue: thresholds at
/// 25 % / 75 % of the byte limit, `max_p` 0.1, EWMA weight 0.002.
#[derive(Clone, Copy, Debug)]
pub struct RedConfig {
    /// Hard byte limit (as for drop-tail).
    pub(crate) limit_bytes: u64,
}

impl RedConfig {
    /// The RED parametrization for a queue of `limit_bytes`.
    pub fn for_limit(limit_bytes: u64) -> Self {
        RedConfig { limit_bytes }
    }
}

/// A link output queue.
#[derive(Debug)]
pub enum Queue {
    /// Plain drop-tail FIFO with a byte limit.
    DropTail {
        /// Maximum queued bytes (excluding the packet in service).
        limit_bytes: u64,
        /// FIFO contents.
        fifo: VecDeque<Packet>,
        /// Current queued bytes.
        bytes: u64,
    },
    /// RED with ECN marking (drops non-ECN-capable packets instead).
    Red {
        /// Parameters.
        cfg: RedConfig,
        /// FIFO contents.
        fifo: VecDeque<Packet>,
        /// Current queued bytes.
        bytes: u64,
        /// EWMA of queue size in bytes.
        avg: f64,
        /// Packets since last mark/drop (for the count-based probability).
        count: u64,
        /// Time the queue went idle, for the idle-period average decay.
        idle_since: Option<SimTime>,
    },
}

impl Queue {
    /// A drop-tail queue bounded at `limit_bytes`.
    pub fn drop_tail(limit_bytes: u64) -> Self {
        Queue::DropTail {
            limit_bytes,
            fifo: VecDeque::new(),
            bytes: 0,
        }
    }

    /// A RED queue with the given configuration.
    pub fn red(cfg: RedConfig) -> Self {
        Queue::Red {
            cfg,
            fifo: VecDeque::new(),
            bytes: 0,
            avg: 0.0,
            count: 0,
            idle_since: Some(SimTime::ZERO),
        }
    }

    /// Bytes currently queued.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> u64 {
        match self {
            Queue::DropTail { bytes, .. } | Queue::Red { bytes, .. } => *bytes,
        }
    }

    /// Packets currently queued.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        match self {
            Queue::DropTail { fifo, .. } | Queue::Red { fifo, .. } => fifo.len(),
        }
    }

    /// Offer a packet; `now`/`service_rate_bps` feed RED's idle decay.
    pub fn enqueue(
        &mut self,
        mut pkt: Packet,
        now: SimTime,
        service_rate_bps: u64,
        rng: &mut DetRng,
    ) -> (EnqueueOutcome, Option<Packet>) {
        match self {
            Queue::DropTail {
                limit_bytes,
                fifo,
                bytes,
            } => {
                let sz = pkt.size_bytes();
                if *bytes + sz > *limit_bytes {
                    (EnqueueOutcome::Dropped, Some(pkt))
                } else {
                    *bytes += sz;
                    fifo.push_back(pkt);
                    (EnqueueOutcome::Enqueued, None)
                }
            }
            Queue::Red {
                cfg,
                fifo,
                bytes,
                avg,
                count,
                idle_since,
            } => {
                let sz = pkt.size_bytes();
                // Update the average; during idle periods the average decays
                // as if small packets had been dequeued the whole time.
                if let Some(idle) = idle_since.take() {
                    let idle_span = now.since(idle);
                    let virtual_pkts = virtual_dequeues(idle_span, service_rate_bps);
                    *avg *= (1.0 - WEIGHT).powi(virtual_pkts.min(10_000) as i32);
                }
                *avg = *avg * (1.0 - WEIGHT) + (*bytes as f64) * WEIGHT;

                // Hard limit applies regardless of RED's verdict.
                if *bytes + sz > cfg.limit_bytes {
                    return (EnqueueOutcome::Dropped, Some(pkt));
                }

                let verdict = red_verdict(cfg, *avg, count, rng);
                match verdict {
                    RedVerdict::Accept => {
                        *bytes += sz;
                        fifo.push_back(pkt);
                        (EnqueueOutcome::Enqueued, None)
                    }
                    RedVerdict::Congest => {
                        if pkt.ecn == Ecn::Capable || pkt.ecn == Ecn::Marked {
                            pkt.ecn = Ecn::Marked;
                            *bytes += sz;
                            fifo.push_back(pkt);
                            (EnqueueOutcome::Marked, None)
                        } else {
                            (EnqueueOutcome::Dropped, Some(pkt))
                        }
                    }
                }
            }
        }
    }

    /// Take the next packet for transmission.
    pub fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        match self {
            Queue::DropTail { fifo, bytes, .. } => {
                let p = fifo.pop_front()?;
                *bytes -= p.size_bytes();
                Some(p)
            }
            Queue::Red {
                fifo,
                bytes,
                idle_since,
                ..
            } => {
                let p = fifo.pop_front();
                if let Some(p) = p {
                    *bytes -= p.size_bytes();
                    if fifo.is_empty() {
                        *idle_since = Some(now);
                    }
                    Some(p)
                } else {
                    None
                }
            }
        }
    }
}

/// RED's decision before ECN is considered.
enum RedVerdict {
    Accept,
    Congest,
}

fn red_verdict(cfg: &RedConfig, avg: f64, count: &mut u64, rng: &mut DetRng) -> RedVerdict {
    let min = (cfg.limit_bytes * MIN_THRESH_QUARTERS / 4) as f64;
    let max = (cfg.limit_bytes * MAX_THRESH_QUARTERS / 4) as f64;
    if avg < min {
        *count = 0;
        RedVerdict::Accept
    } else if avg >= max {
        *count = 0;
        RedVerdict::Congest
    } else {
        *count += 1;
        let pb = MAX_P * (avg - min) / (max - min);
        // Uniformize inter-mark gaps, as in the original RED paper.
        let pa = (pb / (1.0 - (*count as f64) * pb).max(1e-9)).clamp(0.0, 1.0);
        if rng.chance(pa) {
            *count = 0;
            RedVerdict::Congest
        } else {
            RedVerdict::Accept
        }
    }
}

/// How many average-sized packets the service rate would have drained during
/// an idle span (used by RED's idle decay; 500-byte nominal packets).
fn virtual_dequeues(idle: SimDuration, rate_bps: u64) -> u64 {
    if rate_bps == 0 {
        return 0;
    }
    let bits = idle.as_secs_f64() * rate_bps as f64;
    (bits / (500.0 * 8.0)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{AgentId, FlowId, NodeId};
    use crate::packet::Dest;

    fn pkt(bytes: u64) -> Packet {
        Packet::opaque(bytes * 8, FlowId(0), AgentId(0), Dest::Router(NodeId(0)))
    }

    fn rng() -> DetRng {
        DetRng::new(1)
    }

    #[test]
    fn drop_tail_respects_byte_limit() {
        let mut q = Queue::drop_tail(1000);
        let mut r = rng();
        assert_eq!(
            q.enqueue(pkt(600), SimTime::ZERO, 1_000_000, &mut r).0,
            EnqueueOutcome::Enqueued
        );
        assert_eq!(
            q.enqueue(pkt(400), SimTime::ZERO, 1_000_000, &mut r).0,
            EnqueueOutcome::Enqueued
        );
        // Limit exactly reached; one more byte must be rejected.
        let (outcome, returned) = q.enqueue(pkt(1), SimTime::ZERO, 1_000_000, &mut r);
        assert_eq!(outcome, EnqueueOutcome::Dropped);
        assert!(returned.is_some());
        assert_eq!(q.bytes(), 1000);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn drop_tail_fifo_order() {
        let mut q = Queue::drop_tail(10_000);
        let mut r = rng();
        for i in 1..=3u64 {
            q.enqueue(pkt(i * 100), SimTime::ZERO, 1_000_000, &mut r);
        }
        assert_eq!(q.dequeue(SimTime::ZERO).unwrap().size_bytes(), 100);
        assert_eq!(q.dequeue(SimTime::ZERO).unwrap().size_bytes(), 200);
        assert_eq!(q.dequeue(SimTime::ZERO).unwrap().size_bytes(), 300);
        assert!(q.dequeue(SimTime::ZERO).is_none());
        assert_eq!(q.bytes(), 0);
    }

    #[test]
    fn red_marks_capable_packets_under_load() {
        let cfg = RedConfig::for_limit(10_000);
        let mut q = Queue::red(cfg);
        let mut r = rng();
        let mut marked = 0;
        let mut dropped = 0;
        // Keep the queue persistently deep so the EWMA crosses the thresholds.
        for _ in 0..5_000 {
            let p = pkt(500).ecn_capable();
            match q.enqueue(p, SimTime::ZERO, 1_000_000, &mut r).0 {
                EnqueueOutcome::Marked => marked += 1,
                EnqueueOutcome::Dropped => dropped += 1,
                EnqueueOutcome::Enqueued => {}
            }
            if q.bytes() > 8_000 {
                q.dequeue(SimTime::ZERO);
            }
        }
        assert!(marked > 0, "RED should have marked ECN-capable packets");
        assert_eq!(
            dropped, 0,
            "ECN-capable packets below the hard limit are marked, not dropped"
        );
    }

    #[test]
    fn red_drops_non_capable_packets_under_load() {
        let cfg = RedConfig::for_limit(10_000);
        let mut q = Queue::red(cfg);
        let mut r = rng();
        let mut dropped = 0;
        for _ in 0..5_000 {
            if q.enqueue(pkt(500), SimTime::ZERO, 1_000_000, &mut r).0 == EnqueueOutcome::Dropped {
                dropped += 1;
            }
            if q.bytes() > 8_000 {
                q.dequeue(SimTime::ZERO);
            }
        }
        assert!(dropped > 0, "RED should drop non-ECN packets under load");
    }

    #[test]
    fn red_quiet_queue_accepts_everything() {
        let cfg = RedConfig::for_limit(100_000);
        let mut q = Queue::red(cfg);
        let mut r = rng();
        for _ in 0..100 {
            let (o, _) = q.enqueue(pkt(500).ecn_capable(), SimTime::ZERO, 10_000_000, &mut r);
            assert_eq!(o, EnqueueOutcome::Enqueued);
            q.dequeue(SimTime::ZERO);
        }
    }

    #[test]
    fn red_hard_limit_still_drops() {
        // The average stays far below the 250-byte lower threshold (it is
        // 1.8 bytes at the second offer), so only the hard limit can drop.
        let mut q = Queue::red(RedConfig::for_limit(1_000));
        let mut r = rng();
        let (o, _) = q.enqueue(pkt(900).ecn_capable(), SimTime::ZERO, 1_000_000, &mut r);
        assert_eq!(o, EnqueueOutcome::Enqueued);
        let (o, _) = q.enqueue(pkt(200).ecn_capable(), SimTime::ZERO, 1_000_000, &mut r);
        assert_eq!(o, EnqueueOutcome::Dropped);
    }

    #[test]
    fn virtual_dequeue_counts() {
        // 1 Mbps for 4 ms = 4000 bits = one 500-byte packet.
        assert_eq!(virtual_dequeues(SimDuration::from_millis(4), 1_000_000), 1);
        assert_eq!(virtual_dequeues(SimDuration::from_millis(4), 0), 0);
    }
}
