//! Delivery monitors: per-receiver, per-flow, time-binned throughput.
//!
//! Every delivery of an application packet to an agent is recorded here,
//! which is exactly the measurement the paper's figures are built from:
//! throughput-versus-time traces (Figures 1, 7, 8e, 8g, 8h) and long-run
//! averages (Figures 8a–8d, 8f).

use crate::addr::{AgentId, FlowId};
use mcc_simcore::{SimDuration, SimTime};

/// Record of deliveries for one (receiver agent, flow) pair.
#[derive(Debug, Default)]
struct DeliveryRecord {
    /// Total payload bits delivered.
    bits: u64,
    /// Bits delivered per time bin.
    bins: Vec<u64>,
}

/// Collects delivery statistics for a simulation run.
///
/// Storage is flat: a `Vec` indexed by agent id, each slot holding the
/// agent's per-flow records in first-seen order (agents receive one or
/// two flows, so a linear scan beats hashing). `record` sits on the
/// simulator's delivery hot path — no hashing, no allocation once an
/// (agent, flow) pair exists.
#[derive(Debug)]
pub struct Monitor {
    /// Width of each throughput bin.
    pub(crate) bin: SimDuration,
    /// `by_agent[agent][..] = (flow, record)`, flows in first-seen order.
    by_agent: Vec<Vec<(FlowId, DeliveryRecord)>>,
    /// `(now nanos, bin index)` memo: a multicast wave delivers thousands
    /// of packets at one instant, and the division is hot-path visible.
    bin_memo: (u64, usize),
}

impl Monitor {
    /// A monitor with the given bin width (the figures use 1 s bins).
    pub(crate) fn new(bin: SimDuration) -> Self {
        assert!(!bin.is_zero(), "bin width must be positive");
        Monitor {
            bin,
            by_agent: Vec::new(),
            bin_memo: (u64::MAX, 0),
        }
    }

    /// Record a delivery of `bits` of flow `flow` to `agent` at `now`.
    pub(crate) fn record(&mut self, now: SimTime, agent: AgentId, flow: FlowId, bits: u64) {
        let ai = agent.index();
        if self.by_agent.len() <= ai {
            self.by_agent.resize_with(ai + 1, Vec::new);
        }
        let flows = &mut self.by_agent[ai];
        let fi = match flows.iter().position(|(f, _)| *f == flow) {
            Some(i) => i,
            None => {
                flows.push((flow, DeliveryRecord::default()));
                flows.len() - 1
            }
        };
        let rec = &mut flows[fi].1;
        rec.bits += bits;
        if self.bin_memo.0 != now.as_nanos() {
            self.bin_memo = (
                now.as_nanos(),
                (now.as_nanos() / self.bin.as_nanos()) as usize,
            );
        }
        let idx = self.bin_memo.1;
        if rec.bins.len() <= idx {
            rec.bins.resize(idx + 1, 0);
        }
        rec.bins[idx] += bits;
    }

    /// Flow records of one agent (empty if it never received anything).
    fn agent_flows(&self, agent: AgentId) -> &[(FlowId, DeliveryRecord)] {
        self.by_agent
            .get(agent.index())
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Total bits delivered to `agent` across all flows.
    pub fn agent_bits(&self, agent: AgentId) -> u64 {
        self.agent_flows(agent).iter().map(|(_, r)| r.bits).sum()
    }

    /// Average throughput of `agent` (all flows) over `[from, to)` in bit/s.
    ///
    /// Bins that only partially overlap the window are pro-rated (a bin's
    /// bits are attributed uniformly across it), so fractional windows
    /// divide a matching share of bits by the span. Bin-aligned windows —
    /// every figure and matrix measurement — are unaffected: full bins
    /// contribute exactly their integer bit count.
    pub fn agent_throughput_bps(&self, agent: AgentId, from: SimTime, to: SimTime) -> f64 {
        let span = to.since(from).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        let bin = self.bin.as_nanos();
        let (from_ns, to_ns) = (from.as_nanos(), to.as_nanos());
        let from_bin = (from_ns / bin) as usize;
        let to_bin = (to_ns.saturating_sub(1) / bin) as usize;
        let bits: f64 = self
            .agent_flows(agent)
            .iter()
            .map(|(_, r)| {
                r.bins
                    .iter()
                    .enumerate()
                    .take(to_bin + 1)
                    .skip(from_bin)
                    .map(|(i, &b)| {
                        let lo = i as u64 * bin;
                        let overlap = (lo + bin).min(to_ns) - lo.max(from_ns);
                        b as f64 * (overlap as f64 / bin as f64)
                    })
                    .sum::<f64>()
            })
            .sum();
        if bits == 0.0 {
            // An empty `f64` sum is `-0.0`; report a clean positive zero
            // so serialized reports don't flip between `0` and `-0`.
            return 0.0;
        }
        bits / span
    }

    /// Throughput time series of `agent` (all flows): one bit/s value per bin,
    /// padded with zeros out to `horizon`.
    pub fn agent_series_bps(&self, agent: AgentId, horizon: SimTime) -> Vec<f64> {
        let nbins = (horizon.as_nanos()).div_ceil(self.bin.as_nanos()) as usize;
        let mut out = vec![0u64; nbins];
        for (_, r) in self.agent_flows(agent) {
            for (i, b) in r.bins.iter().enumerate() {
                if i < nbins {
                    out[i] += *b;
                }
            }
        }
        let secs = self.bin.as_secs_f64();
        out.into_iter().map(|b| b as f64 / secs).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> Monitor {
        Monitor::new(SimDuration::from_secs(1))
    }

    #[test]
    fn bins_accumulate_by_time() {
        let mut mon = m();
        let a = AgentId(0);
        let f = FlowId(0);
        mon.record(SimTime::from_millis(100), a, f, 1000);
        mon.record(SimTime::from_millis(900), a, f, 1000);
        mon.record(SimTime::from_millis(1500), a, f, 500);
        let series = mon.agent_series_bps(a, SimTime::from_secs(2));
        assert_eq!(series, vec![2000.0, 500.0]);
        assert_eq!(mon.agent_bits(a), 2500);
    }

    #[test]
    fn throughput_window() {
        let mut mon = m();
        let a = AgentId(1);
        mon.record(SimTime::from_millis(500), a, FlowId(0), 8_000);
        mon.record(SimTime::from_millis(1500), a, FlowId(0), 16_000);
        // Over [0, 2 s): 24 kb / 2 s = 12 kbps.
        let t = mon.agent_throughput_bps(a, SimTime::ZERO, SimTime::from_secs(2));
        assert!((t - 12_000.0).abs() < 1e-9);
        // Over [1 s, 2 s): 16 kbps.
        let t = mon.agent_throughput_bps(a, SimTime::from_secs(1), SimTime::from_secs(2));
        assert!((t - 16_000.0).abs() < 1e-9);
    }

    /// Regression: a fractional window must pro-rate the partial first
    /// and last bins. `[0.5 s, 1.5 s)` over 1 s bins used to count both
    /// bins in full while dividing by the 1 s span — here that would
    /// have reported 12 kbps instead of 6 kbps.
    #[test]
    fn fractional_windows_pro_rate_partial_bins() {
        let mut mon = m();
        let a = AgentId(7);
        let f = FlowId(0);
        mon.record(SimTime::from_millis(100), a, f, 8_000); // bin 0
        mon.record(SimTime::from_millis(1100), a, f, 4_000); // bin 1
        let t = mon.agent_throughput_bps(a, SimTime::from_millis(500), SimTime::from_millis(1500));
        // Half of each bin: (0.5 × 8000 + 0.5 × 4000) / 1 s.
        assert!((t - 6_000.0).abs() < 1e-9, "{t}");
        // A window inside one bin takes the matching share of that bin.
        let t = mon.agent_throughput_bps(a, SimTime::from_millis(250), SimTime::from_millis(750));
        assert!((t - 8_000.0).abs() < 1e-9, "{t}");
        // Bin-aligned windows are exact integers, as before.
        let t = mon.agent_throughput_bps(a, SimTime::ZERO, SimTime::from_secs(2));
        assert!((t - 6_000.0).abs() < 1e-9, "{t}");
    }

    #[test]
    fn series_pads_to_horizon() {
        let mut mon = m();
        let a = AgentId(2);
        mon.record(SimTime::from_millis(2500), a, FlowId(0), 4_000);
        let s = mon.agent_series_bps(a, SimTime::from_secs(5));
        assert_eq!(s.len(), 5);
        assert_eq!(s[2], 4_000.0);
        assert_eq!(s[4], 0.0);
    }

    #[test]
    fn flows_aggregate_per_agent() {
        let mut mon = m();
        let a = AgentId(3);
        mon.record(SimTime::from_millis(100), a, FlowId(0), 100);
        mon.record(SimTime::from_millis(200), a, FlowId(1), 200);
        assert_eq!(mon.agent_bits(a), 300);
        let series = mon.agent_series_bps(a, SimTime::from_secs(1));
        assert_eq!(series, vec![300.0], "both flows land in one bin");
    }

    #[test]
    fn empty_window_is_zero() {
        let mon = m();
        assert_eq!(
            mon.agent_throughput_bps(AgentId(9), SimTime::ZERO, SimTime::ZERO),
            0.0
        );
    }
}
