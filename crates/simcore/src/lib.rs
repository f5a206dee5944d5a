//! # mcc-simcore — deterministic discrete-event simulation engine
//!
//! Foundation crate for the DELTA/SIGMA reproduction. It provides the three
//! primitives every other crate builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time,
//! * [`EventQueue`] — a total-ordered future event list (ties broken by
//!   insertion sequence, so two runs with the same inputs pop events in the
//!   same order),
//! * [`DetRng`] — a seedable, forkable deterministic random number generator
//!   (SplitMix64 core), so every experiment in `EXPERIMENTS.md` is exactly
//!   reproducible from its scenario seed,
//! * [`FxHashMap`]/[`FxHashSet`] — hot-path hash containers with a cheap
//!   multiplicative hasher (simulation keys are never adversarial input),
//! * [`Stamped`] / [`merge_stamped`] — time-stamped messages with a total
//!   drain order (kept for the benchmark's merge kernel).
//!
//! The engine is intentionally synchronous and single-threaded, in the spirit
//! of event-driven network stacks such as smoltcp: simplicity and determinism
//! are design goals; asynchrony is an anti-goal because the simulator is pure
//! computation.
//!
//! ```
//! use mcc_simcore::{EventQueue, SimTime, SimDuration};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(SimTime::ZERO + SimDuration::from_millis(5), "later");
//! q.push(SimTime::ZERO + SimDuration::from_millis(1), "sooner");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "sooner");
//! assert_eq!(t, SimTime::from_millis(1));
//! ```

pub(crate) mod event;
pub(crate) mod fx;
pub(crate) mod rng;
pub(crate) mod stamped;
pub(crate) mod time;

pub use event::EventQueue;
pub use fx::{FxHashMap, FxHashSet};
pub use rng::DetRng;
pub use stamped::{merge_stamped, Stamped};
pub use time::{SimDuration, SimTime};
