//! Conservative parallel-in-time primitives: shard clocks, lookahead and
//! time-stamped cross-shard mailboxes.
//!
//! A sharded simulation splits the event population over several logical
//! processes ("shards"), each owning a private [`EventQueue`]. Shards only
//! influence each other through messages that travel over links with a
//! propagation delay, so a shard that knows every neighbour's progress can
//! safely execute all events strictly earlier than
//!
//! ```text
//! safe = min over incoming channels (last announced sender time + channel lookahead)
//! ```
//!
//! — the classic Chandy–Misra–Bryant conservative bound, with the link
//! propagation delay as the lookahead. [`ShardClock`] tracks exactly that
//! bound; the driver (in `mcc-netsim`) advances the channels at every
//! barrier and runs each shard up to the common safe horizon.
//!
//! Determinism across shard counts and worker counts rests on the mailbox
//! discipline: every cross-shard message is stamped `(arrival time, source
//! shard, source sequence)` by [`Outbox::push`], and [`Outbox::harvest`]
//! — the only way to drain a box — orders a barrier's harvest by exactly
//! that key ([`merge_stamped`]) before the messages are fed to the
//! destination queues. Two runs with the same partition
//! therefore insert cross messages in the same order no matter how many
//! worker threads executed the window — the same seed-per-slot and
//! FIFO-tie reasoning the serial [`EventQueue`] is built on.

use crate::time::{SimDuration, SimTime};

/// Identifier of a shard (logical process) inside one sharded run.
pub type ShardId = u32;

/// One incoming channel of a [`ShardClock`]: who sends, how much
/// lookahead the channel's propagation delay guarantees, and how far the
/// sender has announced its own clock.
#[derive(Clone, Copy, Debug)]
struct Channel {
    lookahead: SimDuration,
    announced: SimTime,
}

/// Conservative safe-time tracker for one shard.
///
/// ```
/// use mcc_simcore::shard::ShardClock;
/// use mcc_simcore::{SimDuration, SimTime};
///
/// let mut clock = ShardClock::new();
/// let from_a = clock.add_channel(SimDuration::from_millis(10));
/// let from_b = clock.add_channel(SimDuration::from_millis(4));
/// clock.announce(from_a, SimTime::from_millis(50));
/// clock.announce(from_b, SimTime::from_millis(70));
/// // b's channel allows up to 74 ms, a's up to 60 ms: 60 ms wins.
/// assert_eq!(clock.safe_time(), Some(SimTime::from_millis(60)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct ShardClock {
    channels: Vec<Channel>,
}

impl ShardClock {
    /// A clock with no channels (its shard is unconstrained).
    pub fn new() -> Self {
        ShardClock::default()
    }

    /// Register an incoming channel whose messages are delayed by at
    /// least `lookahead`; returns its index for [`ShardClock::announce`].
    ///
    /// A zero lookahead would make the safe bound degenerate (the shard
    /// could never outrun its neighbour), so callers must only build
    /// channels over links with a positive propagation delay.
    pub fn add_channel(&mut self, lookahead: SimDuration) -> usize {
        assert!(
            !lookahead.is_zero(),
            "cross-shard channels need positive lookahead"
        );
        self.channels.push(Channel {
            lookahead,
            announced: SimTime::ZERO,
        });
        self.channels.len() - 1
    }

    /// The sender of `channel` promises to emit no message timestamped
    /// before `t + lookahead`. Announcements are monotone: a stale (older)
    /// announcement is ignored.
    pub fn announce(&mut self, channel: usize, t: SimTime) {
        let before = if cfg!(debug_assertions) {
            self.safe_time()
        } else {
            None
        };
        let c = &mut self.channels[channel];
        c.announced = c.announced.max(t);
        // The conservative bound must never move backwards: a shard that
        // already executed up to `safe_time` cannot be handed an earlier
        // horizon without a causality violation. Holds by construction
        // today (announcements are max-ed); the assert pins it against
        // future edits.
        debug_assert!(
            self.safe_time() >= before,
            "safe time went backwards under announce({channel}, {t:?})"
        );
    }

    /// Events strictly **at or before** this instant are safe to execute;
    /// `None` when the clock has no channels (no constraint at all).
    pub fn safe_time(&self) -> Option<SimTime> {
        self.channels
            .iter()
            .map(|c| c.announced + c.lookahead)
            .min()
    }

    /// Number of registered channels.
    pub fn channels(&self) -> usize {
        self.channels.len()
    }
}

/// A cross-shard message with its deterministic merge key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stamped<M> {
    /// Simulated arrival time at the destination shard.
    pub at: SimTime,
    /// Destination shard.
    pub dst: ShardId,
    /// Source shard (second merge key: ties at one instant drain in
    /// shard order, which the partitioner aligns with agent-id order).
    pub src: ShardId,
    /// Per-source push sequence (third merge key: FIFO within a source).
    pub seq: u64,
    /// The payload.
    pub msg: M,
}

/// The sending side of a shard's cross mailboxes: stamps every message
/// with `(src, seq)` at push time so the barrier merge is deterministic.
#[derive(Debug)]
pub struct Outbox<M> {
    src: ShardId,
    next_seq: u64,
    items: Vec<Stamped<M>>,
}

impl<M> Outbox<M> {
    /// An empty outbox for shard `src`.
    pub fn new(src: ShardId) -> Self {
        Outbox {
            src,
            next_seq: 0,
            items: Vec::new(),
        }
    }

    /// Stamp and stage a message arriving at `dst` at time `at`.
    pub fn push(&mut self, dst: ShardId, at: SimTime, msg: M) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.items.push(Stamped {
            at,
            dst,
            src: self.src,
            seq,
            msg,
        });
    }

    /// Staged messages, clearing the box (sequence numbers keep rising, so
    /// FIFO order survives across windows). Private: the only way out of
    /// an outbox is [`Outbox::harvest`], which merges.
    fn take(&mut self) -> Vec<Stamped<M>> {
        std::mem::take(&mut self.items)
    }

    /// A barrier's harvest: empty every box and return the messages in the
    /// deterministic drain order of [`merge_stamped`]. This is the only
    /// drain, so a cross-shard exchange that skips the merge cannot be
    /// written.
    pub fn harvest<'a>(outboxes: impl IntoIterator<Item = &'a mut Self>) -> Vec<Stamped<M>>
    where
        M: 'a,
    {
        let mut all = Vec::new();
        for outbox in outboxes {
            all.append(&mut outbox.take());
        }
        merge_stamped(&mut all);
        all
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Order a barrier's harvest of cross messages by the deterministic drain
/// key `(arrival time, source shard, source sequence)`.
///
/// The sort is stable, but the key is already total per message (no two
/// messages share `(src, seq)`), so the result is a unique order — the
/// property golden byte-stability across worker counts rests on.
pub fn merge_stamped<M>(messages: &mut [Stamped<M>]) {
    messages.sort_by_key(|m| (m.at, m.src, m.seq));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safe_time_is_min_over_channels() {
        let mut clock = ShardClock::new();
        assert_eq!(clock.safe_time(), None, "no channels, no constraint");
        let a = clock.add_channel(SimDuration::from_millis(10));
        let b = clock.add_channel(SimDuration::from_millis(3));
        assert_eq!(
            clock.safe_time(),
            Some(SimTime::from_millis(3)),
            "nothing announced: only the lookahead is safe"
        );
        clock.announce(a, SimTime::from_millis(100));
        clock.announce(b, SimTime::from_millis(200));
        assert_eq!(clock.safe_time(), Some(SimTime::from_millis(110)));
        assert_eq!(clock.channels(), 2);
    }

    #[test]
    fn announcements_are_monotone() {
        let mut clock = ShardClock::new();
        let c = clock.add_channel(SimDuration::from_millis(5));
        clock.announce(c, SimTime::from_millis(40));
        clock.announce(c, SimTime::from_millis(10) /* stale */);
        assert_eq!(clock.safe_time(), Some(SimTime::from_millis(45)));
    }

    #[test]
    #[should_panic(expected = "positive lookahead")]
    fn zero_lookahead_channels_are_rejected() {
        ShardClock::new().add_channel(SimDuration::ZERO);
    }

    #[test]
    fn outbox_stamps_fifo_sequences() {
        let mut o: Outbox<&str> = Outbox::new(3);
        o.push(0, SimTime::from_millis(5), "x");
        o.push(1, SimTime::from_millis(2), "y");
        let items = o.take();
        assert_eq!(items.len(), 2);
        assert_eq!((items[0].src, items[0].seq), (3, 0));
        assert_eq!((items[1].src, items[1].seq), (3, 1));
        assert!(o.is_empty());
        // Sequences keep rising across windows.
        o.push(0, SimTime::from_millis(9), "z");
        assert_eq!(o.take()[0].seq, 2);
    }

    #[test]
    fn announcements_never_lower_the_safe_bound() {
        let mut clock = ShardClock::new();
        let a = clock.add_channel(SimDuration::from_millis(7));
        let b = clock.add_channel(SimDuration::from_millis(2));
        let mut last = clock.safe_time();
        for (ch, t) in [(a, 10), (b, 5), (a, 3), (b, 40), (a, 40), (b, 1)] {
            clock.announce(ch, SimTime::from_millis(t));
            let now = clock.safe_time();
            assert!(now >= last, "bound regressed at announce({ch}, {t})");
            last = now;
        }
    }

    #[test]
    fn merge_orders_by_time_then_shard_then_seq() {
        let mut a: Outbox<u32> = Outbox::new(1);
        let mut b: Outbox<u32> = Outbox::new(2);
        let t1 = SimTime::from_millis(1);
        let t2 = SimTime::from_millis(2);
        b.push(0, t2, 20);
        b.push(0, t1, 21);
        a.push(0, t1, 10);
        a.push(0, t2, 11);
        let all = Outbox::harvest([&mut b, &mut a]);
        let order: Vec<u32> = all.iter().map(|s| s.msg).collect();
        // t1 first; at t1 shard 1 before shard 2; then t2 likewise.
        assert_eq!(order, vec![10, 21, 11, 20]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The property byte-identity across worker counts rests on: the
        /// barrier merge is permutation-invariant. However the scheduler
        /// interleaves the per-shard harvests, merging yields the one
        /// strictly ascending `(time, src, seq)` order — which also means
        /// per-source FIFO push order survives the merge.
        #[test]
        #[cfg_attr(miri, ignore)] // property loop is slow under Miri; the deterministic merge tests still run
        fn merge_is_permutation_invariant(
            times in prop::collection::vec(0u64..6, 1..80),
            swaps in prop::collection::vec(0usize..1024, 0..160),
        ) {
            // Stamp messages through real outboxes on three source shards,
            // with a tiny time range so same-instant collisions are common.
            let mut boxes = [Outbox::new(0), Outbox::new(1), Outbox::new(2)];
            for (i, &t) in times.iter().enumerate() {
                boxes[i % 3].push(0, SimTime::from_millis(t), i as u32);
            }
            let canonical = Outbox::harvest(&mut boxes);
            // The merged order is strictly ascending: keys are unique, so
            // there is exactly one valid drain order.
            for w in canonical.windows(2) {
                let (a, b) = (&w[0], &w[1]);
                prop_assert!(
                    (a.at, a.src, a.seq) < (b.at, b.src, b.seq),
                    "merge left {a:?} before {b:?}"
                );
            }
            // Any re-interleaving (a swap walk — the shim has no shuffle
            // strategy) merges back to the identical sequence.
            let mut shuffled = canonical.clone();
            let n = shuffled.len();
            for (k, &s) in swaps.iter().enumerate() {
                shuffled.swap(k % n, s % n);
            }
            merge_stamped(&mut shuffled);
            prop_assert_eq!(&shuffled, &canonical);
        }
    }
}
