//! Deterministic discrete-event simulation kernel.
//!
//! Every stochastic experiment in the off-chip contention study must be
//! bit-for-bit reproducible from a seed, so this crate supplies its own
//! primitives instead of pulling in external randomness:
//!
//! * [`rng`] — SplitMix64 seeding and xoshiro256\*\* generation, plus
//!   samplers for the distributions the workload generators need
//!   (uniform, exponential, Pareto, Zipf, normal).
//! * [`time`] — the simulation clock type ([`SimTime`], in core cycles) and
//!   frequency-aware conversions to wall-clock units (the 5 µs sampler
//!   window is defined in wall time).
//! * [`events`] — the [`EventSched`] scheduler contract (time order with
//!   stable FIFO tie-breaking, pinned) and its binary-heap oracle
//!   implementation [`EventQueue`].
//! * [`calendar`] — [`CalendarQueue`], the O(1)-amortised bucketed
//!   scheduler the simulator runs on, with same-cycle batching
//!   and automatic ring resize.
//! * [`traffic`] — arrival-process generators: Poisson and Pareto-ON/OFF
//!   sources used by synthetic workloads and by the burstiness ablation.
//! * [`hashing`] — a fixed-seed Fx-style hasher for per-access hot-path
//!   tables where SipHash dominates the profile.
//! * [`fastdiv`] — exact strength-reduced division by runtime constants
//!   (cache set counts, DRAM geometry) for the per-access address math.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calendar;
pub mod events;
pub mod fastdiv;
pub mod hashing;
pub mod rng;
pub mod time;
pub mod traffic;

pub use calendar::CalendarQueue;
pub use events::{EventQueue, EventSched};
pub use fastdiv::FastDiv;
pub use hashing::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use rng::Rng;
pub use time::{Frequency, SimTime};
pub use traffic::{OnOffPareto, Poisson};
