//! # rph-heap — the graph-reduction heap
//!
//! Both runtimes in the paper are graph reducers over a garbage-collected
//! heap of *closures*: GpH uses one heap physically shared by all
//! capabilities, Eden gives every processing element its own private
//! heap. This crate implements that heap for the Rust reproduction:
//!
//! * [`NodeRef`] — an index into an arena of [`Cell`]s. Using indices
//!   rather than `Rc` cycles around Rust's ownership rules exactly the
//!   way a real RTS does: the heap owns all nodes, references are plain
//!   words (which also makes them storable in the lock-free spark deque).
//! * [`Cell`] — the closure state machine: `Thunk` (suspended
//!   computation), `BlackHole` (under evaluation; holds the queue of
//!   blocked threads), `Value` (weak-head normal form), `Ind`
//!   (indirection left by an update, exactly GHC's `IND` closures).
//! * [`Heap`] — allocation, update, indirection-chasing, and a real
//!   mark–sweep collector ([`gc`]) with per-run statistics.
//! * [`AllocArea`] — per-capability allocation accounting: area size
//!   (the GC trigger), and the 4 kB allocation *checkpoint* quantum at
//!   which GHC threads notice context-switch and GC requests — the
//!   mechanism behind the paper's GC-barrier delays (§IV.A.1).
//! * [`copy`] — deep copy of normal-form subgraphs between heaps,
//!   preserving sharing: the serialisation step of Eden's message
//!   passing ("computation subgraph structures, serialised into one or
//!   more packets").
//!
//! Cost accounting: every allocation has a size in *words* (see
//! [`value::Value::words`]); kernels can additionally charge transient
//! allocation (the cons-cell churn a Haskell program would produce)
//! without materialising nodes — a copying collector's cost is
//! proportional to *live* data, so transient garbage only affects GC
//! *frequency*, which is exactly what the charge models.

pub mod area;
pub mod args;
pub mod cell;
pub mod copy;
pub mod gc;
pub mod heap;
pub mod noderef;
pub mod value;

pub use area::AllocArea;
pub use args::Args;
pub use cell::Cell;
pub use copy::copy_subgraph;
pub use gc::{GcResult, GcStats, MinorGcResult, ParMarkCosts, ParMarkReport};
pub use heap::{Heap, HeapError, HeapStats, RegionId, OLD_REGION};
pub use noderef::{NodeRef, ScId};
pub use value::Value;
