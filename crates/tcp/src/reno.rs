//! The sending side: slow start, congestion avoidance, fast
//! retransmit/recovery (RFC 2581) and the RTO machinery (RFC 6298).

use crate::rtt::{RtoFire, RtoTimer, RttEstimator};
use crate::seg::{TcpAck, TcpData, DEFAULT_HEADER_BYTES, DEFAULT_MSS_BYTES};
use mcc_netsim::prelude::*;
use mcc_simcore::SimTime;

/// Initial slow-start threshold: unbounded, as in NS-2.
const INITIAL_SSTHRESH: f64 = f64::INFINITY;

/// Configuration of a [`RenoSender`].
#[derive(Clone, Debug)]
pub struct RenoConfig {
    /// The receiving [`crate::sink::TcpSink`] agent.
    pub(crate) dst: AgentId,
    /// Flow tag shared by data and ACKs.
    pub(crate) flow: FlowId,
    /// Stop after successfully transferring this many bytes (`u64::MAX` for
    /// a greedy, never-ending bulk transfer — the paper's FTP-style load).
    pub(crate) limit_bytes: u64,
}

impl RenoConfig {
    /// A greedy bulk transfer to `dst` with the paper's 576-byte packets.
    pub fn bulk(dst: AgentId, flow: FlowId) -> Self {
        RenoConfig {
            dst,
            flow,
            limit_bytes: u64::MAX,
        }
    }
}

/// Counters exposed for tests and experiment reports.
#[derive(Clone, Debug, Default)]
pub(crate) struct RenoStats {
    /// Segments sent (first transmissions).
    pub(crate) sent_segments: u64,
    /// Retransmitted segments (fast retransmit + RTO).
    pub(crate) retransmits: u64,
    /// Retransmission timeouts taken.
    pub(crate) timeouts: u64,
    /// Fast-retransmit events.
    pub(crate) fast_retransmits: u64,
    /// Highest cumulative ACK seen.
    pub(crate) acked_bytes: u64,
}

/// TCP Reno bulk sender.
#[derive(Debug)]
pub struct RenoSender {
    cfg: RenoConfig,
    /// Congestion window in bytes (fractional growth in congestion
    /// avoidance).
    cwnd: f64,
    /// Slow-start threshold in bytes.
    ssthresh: f64,
    /// Oldest unacknowledged byte.
    snd_una: u64,
    /// Next byte to send.
    snd_nxt: u64,
    dupacks: u32,
    in_recovery: bool,
    /// `snd_nxt` at the moment fast retransmit fired.
    recover: u64,
    rtt: RttEstimator,
    /// Segment being timed for an RTT sample: `(end_byte, sent_at)`.
    timed: Option<(u64, SimTime)>,
    /// The retransmission deadline and its one scheduled event.
    rto_timer: RtoTimer,
    /// Counters.
    pub(crate) stats: RenoStats,
}

impl RenoSender {
    /// Build a sender.
    pub fn new(cfg: RenoConfig) -> Self {
        RenoSender {
            ssthresh: INITIAL_SSTHRESH,
            cwnd: DEFAULT_MSS_BYTES as f64,
            snd_una: 0,
            snd_nxt: 0,
            dupacks: 0,
            in_recovery: false,
            recover: 0,
            rtt: RttEstimator::default(),
            timed: None,
            rto_timer: RtoTimer::default(),
            stats: RenoStats::default(),
            cfg,
        }
    }

    /// Congestion window in bytes (diagnostics).
    #[cfg(test)]
    pub(crate) fn cwnd_bytes(&self) -> u64 {
        self.cwnd as u64
    }

    /// True once `limit_bytes` have been cumulatively acknowledged.
    pub(crate) fn finished(&self) -> bool {
        self.cfg.limit_bytes != u64::MAX && self.snd_una >= self.cfg.limit_bytes
    }

    fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    fn wire_bits(&self) -> u64 {
        (DEFAULT_MSS_BYTES + DEFAULT_HEADER_BYTES) * 8
    }

    fn send_segment(&mut self, ctx: &mut Ctx, seq: u64, retransmit: bool) {
        let len = DEFAULT_MSS_BYTES.min(self.cfg.limit_bytes.saturating_sub(seq));
        if len == 0 {
            return;
        }
        let pkt = Packet::app(
            self.wire_bits(),
            self.cfg.flow,
            ctx.agent,
            Dest::Agent(self.cfg.dst),
            TcpData { seq, len },
        );
        ctx.send(pkt);
        if retransmit {
            self.stats.retransmits += 1;
            // Karn's algorithm: a retransmitted range must not be timed.
            if let Some((end, _)) = self.timed {
                if end > seq {
                    self.timed = None;
                }
            }
        } else {
            self.stats.sent_segments += 1;
            if self.timed.is_none() {
                self.timed = Some((seq + len, ctx.now()));
            }
        }
    }

    /// Send whatever the window currently allows.
    fn send_available(&mut self, ctx: &mut Ctx) {
        let cwnd = self.cwnd as u64;
        while self.flight() + DEFAULT_MSS_BYTES <= cwnd && self.snd_nxt < self.cfg.limit_bytes {
            let seq = self.snd_nxt;
            let len = DEFAULT_MSS_BYTES.min(self.cfg.limit_bytes - seq);
            self.send_segment(ctx, seq, false);
            self.snd_nxt = seq + len;
        }
        self.arm_rto(ctx);
    }

    /// Restart the retransmission deadline if data is in flight, else
    /// stop it. Schedules an event only when the pending one would fire
    /// after the new deadline.
    fn arm_rto(&mut self, ctx: &mut Ctx) {
        if self.flight() > 0 {
            if let Some((at, token)) = self.rto_timer.restart(ctx.now() + self.rtt.rto()) {
                ctx.timer_at(at, token);
            }
        } else {
            self.rto_timer.stop();
        }
    }

    fn on_new_ack(&mut self, ctx: &mut Ctx, ack: u64) {
        // RTT sample (Karn-safe: `timed` is cleared on retransmission).
        if let Some((end, sent_at)) = self.timed {
            if ack >= end {
                self.rtt.sample(ctx.now().since(sent_at));
                self.timed = None;
            }
        }
        self.snd_una = ack;
        // After a go-back-N timeout, late ACKs for data sent before the
        // timeout can overtake the rewound snd_nxt.
        self.snd_nxt = self.snd_nxt.max(ack);
        self.stats.acked_bytes = self.stats.acked_bytes.max(ack);
        self.dupacks = 0;
        let mss = DEFAULT_MSS_BYTES as f64;
        if self.in_recovery {
            // Reno: leave recovery on the first ACK advancing snd_una,
            // deflating the window to ssthresh.
            self.in_recovery = false;
            self.cwnd = self.ssthresh.max(mss);
        } else if self.cwnd < self.ssthresh {
            // Slow start.
            self.cwnd += mss;
        } else {
            // Congestion avoidance: ~one MSS per RTT.
            self.cwnd += mss * mss / self.cwnd;
        }
        self.send_available(ctx);
    }

    fn on_dup_ack(&mut self, ctx: &mut Ctx) {
        if self.flight() == 0 {
            return;
        }
        self.dupacks += 1;
        let mss = DEFAULT_MSS_BYTES as f64;
        if self.in_recovery {
            // Window inflation while the hole drains.
            self.cwnd += mss;
            self.send_available(ctx);
        } else if self.dupacks == 3 {
            // Fast retransmit + fast recovery.
            self.stats.fast_retransmits += 1;
            self.ssthresh = (self.flight() as f64 / 2.0).max(2.0 * mss);
            self.recover = self.snd_nxt;
            let seq = self.snd_una;
            self.send_segment(ctx, seq, true);
            self.cwnd = self.ssthresh + 3.0 * mss;
            self.in_recovery = true;
            self.arm_rto(ctx);
        }
    }
}

impl Agent for RenoSender {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.send_available(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
        let Some(&TcpAck { ack }) = pkt.body_as::<TcpAck>() else {
            return;
        };
        if self.finished() {
            return;
        }
        if ack > self.snd_una {
            self.on_new_ack(ctx, ack);
        } else if ack == self.snd_una {
            self.on_dup_ack(ctx);
        }
        // ack < snd_una: stale, ignore.
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        match self.rto_timer.fire(ctx.now(), token) {
            RtoFire::Ignore => return,
            RtoFire::Rearm(at, token) => {
                ctx.timer_at(at, token);
                return;
            }
            RtoFire::Timeout => {}
        }
        if self.flight() == 0 || self.finished() {
            return;
        }
        // Retransmission timeout: multiplicative collapse + go-back-N.
        self.stats.timeouts += 1;
        let mss = DEFAULT_MSS_BYTES as f64;
        self.ssthresh = (self.flight() as f64 / 2.0).max(2.0 * mss);
        self.cwnd = mss;
        self.dupacks = 0;
        self.in_recovery = false;
        self.snd_nxt = self.snd_una;
        self.timed = None;
        self.rtt.backoff();
        let seq = self.snd_una;
        self.send_segment(ctx, seq, true);
        self.snd_nxt = seq + DEFAULT_MSS_BYTES.min(self.cfg.limit_bytes.saturating_sub(seq));
        self.arm_rto(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TcpSink;
    use mcc_simcore::{SimDuration, SimTime};

    /// host — bottleneck — host, returning (sim, sender id, sink id).
    fn tcp_over_bottleneck(
        bps: u64,
        delay: SimDuration,
        queue_bytes: u64,
        limit: u64,
    ) -> (Sim, AgentId, AgentId) {
        let mut sim = Sim::new(11, SimDuration::from_secs(1));
        let h1 = sim.add_node();
        let r = sim.add_node();
        let h2 = sim.add_node();
        sim.add_duplex_link(
            h1,
            r,
            10_000_000,
            SimDuration::from_millis(1),
            Queue::drop_tail(1_000_000),
            Queue::drop_tail(1_000_000),
        );
        sim.add_duplex_link(
            r,
            h2,
            bps,
            delay,
            Queue::drop_tail(queue_bytes),
            Queue::drop_tail(queue_bytes),
        );
        let sink = sim.add_agent(h2, Box::new(TcpSink::default()), SimTime::ZERO);
        let mut cfg = RenoConfig::bulk(sink, FlowId(0));
        cfg.limit_bytes = limit;
        let snd = sim.add_agent(h1, Box::new(RenoSender::new(cfg)), SimTime::ZERO);
        sim.finalize();
        (sim, snd, sink)
    }

    #[test]
    fn clean_link_completes_transfer() {
        let limit = 200 * 536;
        // Buffer larger than the whole transfer: slow start cannot overflow
        // it, so the run must be loss-free.
        let (mut sim, snd, sink) =
            tcp_over_bottleneck(1_000_000, SimDuration::from_millis(20), 200_000, limit);
        sim.run_until(SimTime::from_secs(30));
        let s = sim.agent_as::<RenoSender>(snd).unwrap();
        assert!(s.finished(), "acked {}", s.stats.acked_bytes);
        assert_eq!(s.stats.retransmits, 0, "no losses on a roomy link");
        let k = sim.agent_as::<TcpSink>(sink).unwrap();
        assert_eq!(k.goodput_bytes, limit);
    }

    #[test]
    fn slow_start_grows_cwnd_exponentially() {
        let (mut sim, snd, _) = tcp_over_bottleneck(
            10_000_000,
            SimDuration::from_millis(50),
            1_000_000,
            u64::MAX,
        );
        // After ~4 RTTs (400 ms) of slow start, cwnd should have grown from
        // 1 MSS to well beyond 8 DEFAULT_MSS_BYTES.
        sim.run_until(SimTime::from_millis(450));
        let s = sim.agent_as::<RenoSender>(snd).unwrap();
        assert!(
            s.cwnd_bytes() >= 8 * 536,
            "cwnd after 4 RTTs: {}",
            s.cwnd_bytes()
        );
        assert_eq!(s.stats.timeouts, 0);
    }

    #[test]
    fn losses_trigger_fast_retransmit_and_recovery() {
        // Tight buffer at the bottleneck forces periodic drops.
        let (mut sim, snd, sink) =
            tcp_over_bottleneck(1_000_000, SimDuration::from_millis(20), 5_000, u64::MAX);
        sim.run_until(SimTime::from_secs(30));
        let s = sim.agent_as::<RenoSender>(snd).unwrap();
        assert!(s.stats.fast_retransmits > 0, "{:?}", s.stats);
        // The connection keeps making progress throughout.
        let k = sim.agent_as::<TcpSink>(sink).unwrap();
        assert!(
            k.goodput_bytes > 2_000_000,
            "goodput {} bytes",
            k.goodput_bytes
        );
    }

    #[test]
    fn utilization_is_high_on_a_private_link() {
        let (mut sim, _, sink) =
            tcp_over_bottleneck(1_000_000, SimDuration::from_millis(20), 10_000, u64::MAX);
        sim.run_until(SimTime::from_secs(30));
        let k = sim.agent_as::<TcpSink>(sink).unwrap();
        let goodput_bps = k.goodput_bytes as f64 * 8.0 / 30.0;
        // ≥ 70 % of the link after headers and recovery episodes.
        assert!(goodput_bps > 700_000.0, "goodput {goodput_bps}");
    }

    #[test]
    fn two_flows_share_fairly() {
        let mut sim = Sim::new(17, SimDuration::from_secs(1));
        let h1 = sim.add_node();
        let h2 = sim.add_node();
        let r1 = sim.add_node();
        let r2 = sim.add_node();
        let d1 = sim.add_node();
        let d2 = sim.add_node();
        for h in [h1, h2] {
            sim.add_duplex_link(
                h,
                r1,
                10_000_000,
                SimDuration::from_millis(10),
                Queue::drop_tail(1_000_000),
                Queue::drop_tail(1_000_000),
            );
        }
        sim.add_duplex_link(
            r1,
            r2,
            1_000_000,
            SimDuration::from_millis(20),
            Queue::drop_tail(20_000),
            Queue::drop_tail(20_000),
        );
        for d in [d1, d2] {
            sim.add_duplex_link(
                r2,
                d,
                10_000_000,
                SimDuration::from_millis(10),
                Queue::drop_tail(1_000_000),
                Queue::drop_tail(1_000_000),
            );
        }
        let k1 = sim.add_agent(d1, Box::new(TcpSink::default()), SimTime::ZERO);
        let k2 = sim.add_agent(d2, Box::new(TcpSink::default()), SimTime::ZERO);
        sim.add_agent(
            h1,
            Box::new(RenoSender::new(RenoConfig::bulk(k1, FlowId(1)))),
            SimTime::ZERO,
        );
        sim.add_agent(
            h2,
            Box::new(RenoSender::new(RenoConfig::bulk(k2, FlowId(2)))),
            SimTime::from_millis(137), // desynchronize
        );
        sim.finalize();
        sim.run_until(SimTime::from_secs(60));
        let g1 = sim.agent_as::<TcpSink>(k1).unwrap().goodput_bytes as f64;
        let g2 = sim.agent_as::<TcpSink>(k2).unwrap().goodput_bytes as f64;
        let ratio = g1.max(g2) / g1.min(g2);
        assert!(ratio < 2.0, "unfair split: {g1} vs {g2}");
        // Together they should keep the 1 Mbps pipe busy.
        let total_bps = (g1 + g2) * 8.0 / 60.0;
        assert!(total_bps > 700_000.0, "total {total_bps}");
    }

    #[test]
    fn rto_recovers_after_burst_loss_with_tiny_window() {
        // Queue of one packet; early slow-start bursts lose multiple
        // segments with too few dupacks to fast-retransmit, forcing RTOs.
        let (mut sim, snd, sink) =
            tcp_over_bottleneck(200_000, SimDuration::from_millis(50), 600, u64::MAX);
        sim.run_until(SimTime::from_secs(60));
        let s = sim.agent_as::<RenoSender>(snd).unwrap();
        assert!(s.stats.timeouts > 0, "{:?}", s.stats);
        let k = sim.agent_as::<TcpSink>(sink).unwrap();
        assert!(k.goodput_bytes > 100_000, "goodput {}", k.goodput_bytes);
    }

    #[test]
    fn restarting_the_rto_keeps_one_timer_event() {
        // A bulk flow restarts its RTO on every ACK. Were each restart a
        // new event, the event list would hold one dead timer per ACK of
        // the last RTO (about 220 here); it must instead stay within what
        // the in-flight window can occupy.
        let (bps, delay, queue_bytes) = (1_000_000, SimDuration::from_millis(20), 10_000);
        let (mut sim, snd, _) = tcp_over_bottleneck(bps, delay, queue_bytes, u64::MAX);
        sim.run_until(SimTime::from_secs(60));
        let s = sim.agent_as::<RenoSender>(snd).unwrap();
        assert!(s.stats.sent_segments > 10_000, "{:?}", s.stats);
        // The window is at most the bottleneck buffer plus the pipe.
        let rtt = (delay + SimDuration::from_millis(1)) * 2;
        let bdp_bytes = bps * rtt.as_nanos() / 8 / 1_000_000_000;
        let window = (queue_bytes + bdp_bytes) / (DEFAULT_MSS_BYTES + DEFAULT_HEADER_BYTES);
        // Each segment or ACK in flight is at most one pending event, plus
        // one per link direction in service and the RTO event.
        let bound = window as usize + 4 + 1;
        let peak = sim.world.peak_pending_events();
        assert!(peak <= bound, "peak depth {peak} > bound {bound}");
    }
}
