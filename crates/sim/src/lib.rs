//! # rph-sim — the discrete-event multicore model
//!
//! The paper's measurements ran on an 8-core Intel Xeon and a 16-core
//! AMD Opteron. This reproduction executes on whatever host it is given
//! (including a single core), so parallel timing is *simulated*: every
//! capability / processing element carries a virtual clock, mutator
//! work advances it by the abstract machine's cost accounting, and the
//! runtimes coordinate through the primitives in this crate:
//!
//! * [`DetRng`] — a deterministic splitmix64 RNG. All scheduling
//!   decisions that GHC would make pseudo-randomly (steal victims) draw
//!   from it, so a run is a pure function of (program, config, seed).
//! * [`EventQueue`] — a time-ordered queue with deterministic
//!   tie-breaking, used for message deliveries and timers.
//! * [`CoreSet`] — physical cores with clocks and an OS-scheduler model
//!   that time-slices more virtual PEs than cores (how the paper runs
//!   9 or 17 PVM nodes on 8 cores in Fig. 4).
//! * [`EarliestIndex`] — "which of n clocks is earliest, ties to the
//!   lowest index?" in O(1), re-keyed in O(log n): the pick of both
//!   event loops (the GpH capabilities, the `CoreSet` cores).
//! * [`Costs`] — the calibrated cost model: one work unit ≈ 1 ns. All
//!   overhead constants (GC handshakes, steal attempts, message
//!   latency, context switches) live here, with the rationale for each
//!   documented on the field.
//!
//! What the model *does not* do: pretend to cycle-accuracy. The paper's
//! phenomena are scheduling/synchronisation effects in the microsecond
//! range; the model reproduces their mechanisms (barrier delays bounded
//! by checkpoint frequency, steal latency, per-PE heap scaling), not
//! the authors' exact nanoseconds.

pub mod cores;
pub mod costs;
pub mod events;
pub mod rng;
pub mod sweep;
pub mod topology;

pub use cores::{CoreSet, EarliestIndex};
pub use costs::Costs;
pub use events::EventQueue;
pub use rng::DetRng;
pub use sweep::SweepRng;
pub use topology::{LinkClass, Topology};

/// Virtual time in work units (≈ nanoseconds).
pub type Time = u64;
