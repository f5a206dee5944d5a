//! A serial stand-in for the retired sharded executor's statistics entry
//! point. Every run has one execution path, [`Sim::run_until`]; see
//! DESIGN.md, "No intra-run parallelism".

use crate::sim::Sim;
use mcc_simcore::SimTime;

/// Run `sim` to `t` serially and return `vec![events run]`; `_workers` is
/// ignored. Kept only because `benchmark/` still imports it for its
/// `netsim.shard.*` rows, which therefore read 1 shard and a
/// sharded/serial ratio of about 1.0. A benchmark-only change retires
/// those rows, then a workspace change deletes this function (ROADMAP
/// items 4(c) and 5(b)).
pub fn run_until_sharded_stats(sim: &mut Sim, t: SimTime, _workers: usize) -> Vec<u64> {
    let before = sim.world.processed_events();
    sim.run_until(t);
    vec![sim.world.processed_events() - before]
}
