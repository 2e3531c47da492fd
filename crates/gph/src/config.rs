//! Runtime configuration: the paper's optimisation ladder as flags.

use rph_heap::AllocArea;
use rph_sim::{Costs, Topology};

/// How sparks move between capabilities (§IV.A.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparkPolicy {
    /// GHC 6.8's scheme: the scheduler, when it happens to run,
    /// *pushes* surplus sparks to idle capabilities. "There might be a
    /// significant delay between the work being created and it being
    /// made available for execution."
    Push,
    /// The paper's optimisation: spark pools are work-stealing deques;
    /// idle capabilities *pull*. "Eliminates any hand-shaking when
    /// sharing work."
    Steal,
}

/// When a thunk under evaluation is marked (§IV.A.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlackHoling {
    /// GHC's default: thunks are only black-holed at context-switch
    /// time, leaving a window for duplicate parallel evaluation.
    Lazy,
    /// Mark every thunk on entry; second entrants block immediately.
    Eager,
}

/// Heap organisation for garbage collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcModel {
    /// GHC 6.x: one shared heap, every collection stops the world
    /// (the configuration the paper measures).
    StopTheWorld,
    /// The paper's §VI "semi-distributed heap" proposal as a mechanism:
    /// per-capability nurseries (after *Garbage Collection for
    /// Multicore NUMA Machines*). Each capability allocates into a
    /// private region; write barriers record cross-region references
    /// in per-region remembered sets; an exhausted nursery is collected
    /// *independently* (survivors promoted to the shared old
    /// generation, pause proportional to measured survivors — no
    /// barrier, no other capability involved). When the old generation
    /// has grown past a threshold, a stop-the-world major collection
    /// runs with its mark phase parallelised across the capabilities'
    /// GC threads (grey-set work stealing; pause = slowest GC thread).
    PerCapNurseries,
}

/// How sparks become running work (§IV.A.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparkExec {
    /// Create (and destroy) a fresh lightweight thread per spark.
    ThreadPerSpark,
    /// One scheduler-created *spark thread* per capability runs sparks
    /// in a loop until none remain anywhere, then exits.
    SparkThread,
}

/// Full configuration of a GpH run.
#[derive(Debug, Clone)]
pub struct GphConfig {
    /// Number of capabilities (= simulated cores; GHC `-N`).
    pub caps: usize,
    /// Per-capability allocation area in words (GHC `-A`; default
    /// 0.5 MB ÷ 8-byte words). The "big allocation area" rows of
    /// Figs. 1–4 multiply this by [`Self::BIG_AREA_FACTOR`].
    pub alloc_area_words: u64,
    /// Allocation checkpoint quantum in words (GHC: 4 kB blocks).
    pub checkpoint_words: u64,
    /// Improved stop-the-world barrier (cheaper per-capability
    /// handshake) instead of the original polled handshake.
    pub gc_sync_improved: bool,
    /// Spark distribution policy.
    pub spark_policy: SparkPolicy,
    /// Black-holing policy.
    pub black_holing: BlackHoling,
    /// Spark execution policy.
    pub spark_exec: SparkExec,
    /// GC organisation (stop-the-world, or the §VI future-work model:
    /// per-capability nurseries).
    pub gc_model: GcModel,
    /// Future-work extension (§IV.A.2: "Work pulling could also be
    /// applied to threads"): idle capabilities steal runnable threads,
    /// not just sparks.
    pub thread_stealing: bool,
    /// Machine shape: which node each capability lives on. Defaults to
    /// one shared-memory node holding all capabilities — the paper's
    /// flat machine, bit-identical to the pre-topology runtime. Under
    /// a multi-node cluster, steals and pushes that cross nodes are
    /// priced over inter-node links ([`rph_sim::LinkClass`]).
    pub topology: Topology,
    /// Hierarchical victim selection under a multi-node topology:
    /// sweep the thief's own node first, then remote nodes with
    /// *batched* steals (mirroring the native pool's
    /// `steal_batch_and_pop`). Off = flat stealing: one seeded
    /// permutation over all victims, single-spark steals everywhere —
    /// the ablation baseline. Irrelevant on a single node.
    pub hier_stealing: bool,
    /// Spark pool capacity per capability (GHC: 4096 after the
    /// work-stealing rewrite; overflowing sparks are dropped).
    pub spark_pool_cap: usize,
    /// Thread time-slice in work units before the scheduler rotates
    /// the run queue (GHC `-C`, ~20 ms default; checked only at
    /// allocation checkpoints, as in GHC).
    pub time_slice: u64,
    /// Simulator slice bound (how much virtual time one capability may
    /// advance before control returns to the event loop). Affects
    /// fidelity of cross-capability interleavings, not semantics.
    pub sim_slice: u64,
    /// Overhead cost model.
    pub costs: Costs,
    /// RNG seed (steal-victim choices).
    pub seed: u64,
    /// Record a full event trace (timeline diagrams). Counters are
    /// kept either way.
    pub trace: bool,
}

impl GphConfig {
    /// Factor the paper's "big allocation area" rows use (0.5 MB →
    /// 8 MB, matching the text's "massive effect" observation).
    pub const BIG_AREA_FACTOR: u64 = 16;

    /// GHC 6.9 out-of-the-box (Fig. 1 row 1: "GpH in plain GHC-6.9"):
    /// small nursery, original barrier, push-model spark distribution,
    /// lazy black-holing, thread per spark.
    pub fn ghc69_plain(caps: usize) -> Self {
        GphConfig {
            caps,
            alloc_area_words: AllocArea::DEFAULT_AREA_WORDS,
            checkpoint_words: AllocArea::DEFAULT_CHECKPOINT_WORDS,
            gc_sync_improved: false,
            spark_policy: SparkPolicy::Push,
            black_holing: BlackHoling::Lazy,
            spark_exec: SparkExec::ThreadPerSpark,
            gc_model: GcModel::StopTheWorld,
            thread_stealing: false,
            topology: Topology::single_node(caps),
            hier_stealing: true,
            spark_pool_cap: 4096,
            time_slice: 10_000_000, // 10 ms (the RTS timer tick)
            sim_slice: 100_000,     // 100 µs DES granularity
            costs: Costs::default(),
            seed: 0x9E37,
            trace: true,
        }
    }

    /// Fig. 1 row 2: plain + big allocation area.
    pub fn with_big_alloc_area(mut self) -> Self {
        self.alloc_area_words = AllocArea::DEFAULT_AREA_WORDS * Self::BIG_AREA_FACTOR;
        self
    }

    /// Fig. 1 row 3: + improved GC barrier synchronisation.
    pub fn with_improved_gc_sync(mut self) -> Self {
        self.gc_sync_improved = true;
        self
    }

    /// Fig. 1 row 4: + work stealing for sparks (includes the spark
    /// thread of §IV.A.4, which landed together with the stealing
    /// rewrite).
    pub fn with_work_stealing(mut self) -> Self {
        self.spark_policy = SparkPolicy::Steal;
        self.spark_exec = SparkExec::SparkThread;
        self
    }

    /// §IV.A.3 / Fig. 5: eager black-holing.
    pub fn with_eager_blackholing(mut self) -> Self {
        self.black_holing = BlackHoling::Eager;
        self
    }

    /// §IV.A.2 future work: steal runnable threads as well as sparks.
    pub fn with_thread_stealing(mut self) -> Self {
        self.thread_stealing = true;
        self
    }

    /// §VI future work: per-capability nurseries + parallel major GC —
    /// independent minor collections per capability, global
    /// collections only when the old generation has grown, with the
    /// mark phase spread over parallel GC threads.
    pub fn with_per_cap_nurseries(mut self) -> Self {
        self.gc_model = GcModel::PerCapNurseries;
        self
    }

    /// Convenience: the four Fig. 1 GpH rows in order.
    pub fn fig1_ladder(caps: usize) -> [(&'static str, GphConfig); 4] {
        [
            ("GpH in plain GHC-6.9", Self::ghc69_plain(caps)),
            (
                "GpH, big allocation area",
                Self::ghc69_plain(caps).with_big_alloc_area(),
            ),
            (
                "GpH, above + improved GC synchronisation",
                Self::ghc69_plain(caps)
                    .with_big_alloc_area()
                    .with_improved_gc_sync(),
            ),
            (
                "GpH, above + work stealing for sparks",
                Self::ghc69_plain(caps)
                    .with_big_alloc_area()
                    .with_improved_gc_sync()
                    .with_work_stealing(),
            ),
        ]
    }

    /// Model a cluster of `nodes` shared-memory nodes with
    /// `cores_per_node` capabilities each (must multiply out to
    /// [`Self::caps`]). Capability `i` lives on node
    /// `i / cores_per_node`; steals and pushes crossing nodes pay
    /// inter-node link costs.
    pub fn with_topology(mut self, nodes: usize, cores_per_node: usize) -> Self {
        assert_eq!(
            nodes * cores_per_node,
            self.caps,
            "topology must cover exactly the configured capabilities"
        );
        self.topology = Topology::cluster(nodes, cores_per_node);
        self
    }

    /// Disable hierarchical victim selection (the topology-ablation
    /// baseline): victims are swept in one flat seeded permutation and
    /// every steal moves a single spark, even across nodes.
    pub fn with_flat_stealing(mut self) -> Self {
        self.hier_stealing = false;
        self
    }

    /// Disable event collection (keep counters) — for big sweeps.
    pub fn without_trace(mut self) -> Self {
        self.trace = false;
        self
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether eager black-holing is on.
    pub fn eager_blackhole(&self) -> bool {
        self.black_holing == BlackHoling::Eager
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_cumulative() {
        let l = GphConfig::fig1_ladder(8);
        assert_eq!(l[0].1.spark_policy, SparkPolicy::Push);
        assert!(l[1].1.alloc_area_words > l[0].1.alloc_area_words);
        assert!(l[2].1.gc_sync_improved && !l[1].1.gc_sync_improved);
        assert_eq!(l[3].1.spark_policy, SparkPolicy::Steal);
        assert_eq!(l[3].1.spark_exec, SparkExec::SparkThread);
        // Black-holing stays lazy through the ladder (Fig. 5 varies it
        // separately).
        for (_, c) in &l {
            assert_eq!(c.black_holing, BlackHoling::Lazy);
        }
    }

    #[test]
    fn builder_chaining() {
        let c = GphConfig::ghc69_plain(4)
            .with_eager_blackholing()
            .with_work_stealing()
            .without_trace()
            .with_seed(7);
        assert!(c.eager_blackhole());
        assert_eq!(c.seed, 7);
        assert!(!c.trace);
        assert_eq!(c.caps, 4);
    }
}
