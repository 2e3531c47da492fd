//! The benchmark's vocabulary: workload names, end-to-end metrics with
//! their regression bounds, and per-layer metrics, each with the
//! end-to-end metric and the workloads it is predicted to move. This
//! table is the single source of truth; `BENCHMARK.json` at the repo
//! root is checked against it by the contract test.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric this layer metric should move …
    pub moves: &'static str,
    /// … on these workloads. It is measured in their traced runs and
    /// reads 0 on every other workload.
    pub on: &'static [&'static str],
}

pub const NATIVE_COARSE: &str = "native_coarse";
pub const NATIVE_FINE: &str = "native_fine";
pub const NATIVE_EDEN: &str = "native_eden";
pub const SIM_MULTICORE: &str = "sim_multicore";
pub const SIM_MANYCORE: &str = "sim_manycore";
pub const SERVER_OPEN: &str = "server_open";
pub const SERVER_SAT: &str = "server_sat";

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: NATIVE_COARSE,
        why: "Steal pool, big tasks: >90% of time is inside kernels, so kernel/SIMD gains show here and a scheduler, deque or park change must read no change.",
    },
    WorkloadDef {
        name: NATIVE_FINE,
        why: "Steal pool, sub-microsecond tasks and 256-wave APSP: pool dispatch, park/unpark, Chase-Lev ops and lazy splitting dominate, kernels little; the mirror of native_coarse.",
    },
    WorkloadDef {
        name: NATIVE_EDEN,
        why: "The same task sets over the message-passing backend: every result crosses rph_native::channel, so channel/skeleton gains show and shared-code changes that cost message passing show too.",
    },
    WorkloadDef {
        name: SIM_MULTICORE,
        why: "The paper's Fig. 1/3/5 configurations at 8 modelled cores: host time is machine stepping, heap alloc/GC and the GpH/Eden schedulers at small core counts.",
    },
    WorkloadDef {
        name: SIM_MANYCORE,
        why: "sumEuler on 64-256 modelled cores: few events per core, so earliest-core scans, root/remembered sets, the N-capability GC barrier and link pricing dominate instead.",
    },
    WorkloadDef {
        name: SERVER_OPEN,
        why: "Open loop, Poisson arrivals at a fixed 10000 jobs/s (about a tenth of capacity): independent users; latency is dispatcher wake-up + pool dispatch + service, timed from the due time.",
    },
    WorkloadDef {
        name: SERVER_SAT,
        why: "Closed loop, one client keeps 64 jobs outstanding: callers that wait for replies; batches fill, so admission, DRR and batch packing dominate and pool dispatch is amortised.",
    },
];

pub const WALL_S: &str = "wall_s";
pub const JOBS_PER_S: &str = "jobs_per_s";
pub const JOB_P50_MS: &str = "job_p50_ms";
pub const JOB_P99_MS: &str = "job_p99_ms";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";
pub const SETUP_S: &str = "setup_s";

/// Every end-to-end metric is reported on every workload (one rule for
/// all seven: a run is a sequence of segments, a segment is a fixed list
/// of jobs, a job has a latency from the time it was due).
pub const END_TO_END: &[EndToEndDef] = &[
    EndToEndDef {
        name: WALL_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: JOBS_PER_S,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEndDef {
        name: JOB_P50_MS,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: JOB_P99_MS,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: PEAK_RSS_MB,
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEndDef {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

const STEAL: &[&str] = &[NATIVE_COARSE, NATIVE_FINE];
const NATIVE: &[&str] = &[NATIVE_COARSE, NATIVE_FINE, NATIVE_EDEN];
const EDEN: &[&str] = &[NATIVE_EDEN];
const SIMS: &[&str] = &[SIM_MULTICORE, SIM_MANYCORE];
const SERVERS: &[&str] = &[SERVER_OPEN, SERVER_SAT];
const ALL: &[&str] = &[
    NATIVE_COARSE,
    NATIVE_FINE,
    NATIVE_EDEN,
    SIM_MULTICORE,
    SIM_MANYCORE,
    SERVER_OPEN,
    SERVER_SAT,
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static [&'static str],
) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        moves,
        on,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[LayerDef] = &[
    // rph-deque probes (single-thread Worker/Stealer calls, then one
    // owner against one thief).
    layer("deque.push_pop_ns", "ns", Lower, WALL_S, &[NATIVE_FINE]),
    layer("deque.steal_ns", "ns", Lower, WALL_S, &[NATIVE_FINE]),
    layer(
        "deque.steal_batch_ns_per_item",
        "ns",
        Lower,
        WALL_S,
        &[NATIVE_FINE],
    ),
    layer(
        "deque.contended_retry_frac",
        "frac",
        Lower,
        WALL_S,
        &[NATIVE_FINE],
    ),
    // rph-native pool probes and per-pass NativeStats counters.
    layer("pool.spawn_us", "us", Lower, WALL_S, STEAL),
    layer("pool.dispatch_us", "us", Lower, WALL_S, &[NATIVE_FINE]),
    layer("pool.task_ns", "ns", Lower, WALL_S, &[NATIVE_FINE]),
    layer("pool.parks", "count", Lower, WALL_S, STEAL),
    layer("pool.steal_success_frac", "frac", Higher, WALL_S, STEAL),
    layer("pool.splits", "count", Lower, WALL_S, STEAL),
    layer("pool.imbalance", "x", Lower, WALL_S, STEAL),
    // rph-native::channel probes (two threads, Packet<u64>).
    layer("channel.pingpong_ns_cap1", "ns", Lower, WALL_S, EDEN),
    layer("channel.pingpong_ns_cap8", "ns", Lower, WALL_S, EDEN),
    layer(
        "channel.stream_ns_per_packet_cap8",
        "ns",
        Lower,
        WALL_S,
        EDEN,
    ),
    layer(
        "channel.stream_ns_per_packet_cap64",
        "ns",
        Lower,
        WALL_S,
        EDEN,
    ),
    // rph-native::skeletons probes (no-op jobs) and per-pass counters.
    layer("skel.par_map_ns_per_task", "ns", Lower, WALL_S, EDEN),
    layer("skel.master_worker_ns_per_task", "ns", Lower, WALL_S, EDEN),
    layer("skel.ring_us_per_wave", "us", Lower, WALL_S, EDEN),
    layer("skel.exchange_us_per_step", "us", Lower, WALL_S, EDEN),
    layer("eden.msgs", "count", Lower, WALL_S, EDEN),
    layer("eden.words", "count", Lower, WALL_S, EDEN),
    layer("eden.send_block_frac", "frac", Lower, WALL_S, EDEN),
    layer("eden.recv_block_frac", "frac", Lower, WALL_S, EDEN),
    // rph-workloads kernels: rates (operation counts over time; no
    // roofline ratio without a measured peak), the single-threaded
    // baseline of each pass and the share of the pass that is not kernel.
    layer(
        "kernel.matmul_gflops",
        "GF/s",
        Higher,
        WALL_S,
        &[NATIVE_COARSE],
    ),
    layer(
        "kernel.fw_mcells_per_s",
        "M/s",
        Higher,
        WALL_S,
        &[NATIVE_COARSE],
    ),
    layer(
        "kernel.sieve_mnum_per_s",
        "M/s",
        Higher,
        WALL_S,
        &[NATIVE_COARSE],
    ),
    layer(
        "kernel.nqueens_msol_per_s",
        "M/s",
        Higher,
        WALL_S,
        &[NATIVE_COARSE],
    ),
    layer(
        "kernel.episim_ns_per_agent_round",
        "ns",
        Lower,
        WALL_S,
        &[NATIVE_COARSE],
    ),
    layer("kernel.seq_s", "s", Lower, WALL_S, NATIVE),
    layer("native.overhead_frac", "frac", Lower, WALL_S, NATIVE),
    layer(
        "native.apsp_overhead_frac",
        "frac",
        Lower,
        WALL_S,
        &[NATIVE_FINE, NATIVE_EDEN],
    ),
    // rph-server: probes and per-segment JobOutcome/ServerReport numbers.
    layer("server.zero_work_job_us", "us", Lower, JOB_P50_MS, SERVERS),
    layer(
        "server.fair_share_err",
        "frac",
        Lower,
        JOBS_PER_S,
        &[SERVER_SAT],
    ),
    layer(
        "server.p99_ms_at_2k",
        "ms",
        Lower,
        JOB_P99_MS,
        &[SERVER_OPEN],
    ),
    layer("server.submit_ns", "ns", Lower, JOBS_PER_S, SERVERS),
    layer("server.queue_wait_p50_ms", "ms", Lower, JOB_P50_MS, SERVERS),
    layer("server.queue_wait_p99_ms", "ms", Lower, JOB_P99_MS, SERVERS),
    layer("server.service_p50_ms", "ms", Lower, JOB_P50_MS, SERVERS),
    layer("server.service_p99_ms", "ms", Lower, JOB_P99_MS, SERVERS),
    layer(
        "server.batch_mean_jobs",
        "jobs",
        Higher,
        JOBS_PER_S,
        SERVERS,
    ),
    layer("server.reject_frac", "frac", Lower, JOBS_PER_S, SERVERS),
    layer(
        "server.gen_lag_p99_ms",
        "ms",
        Lower,
        JOB_P99_MS,
        &[SERVER_OPEN],
    ),
    // rph-sim probes.
    layer("sim.eventq_ns_per_op_d64", "ns", Lower, WALL_S, SIMS),
    layer("sim.eventq_ns_per_op_d4096", "ns", Lower, WALL_S, SIMS),
    layer(
        "sim.earliest_core_ns_8",
        "ns",
        Lower,
        WALL_S,
        &[SIM_MULTICORE],
    ),
    layer(
        "sim.earliest_core_ns_256",
        "ns",
        Lower,
        WALL_S,
        &[SIM_MANYCORE],
    ),
    // rph-heap probes.
    layer("heap.alloc_ns", "ns", Lower, WALL_S, SIMS),
    layer("heap.major_gc_ns_per_live_word", "ns", Lower, WALL_S, SIMS),
    layer(
        "heap.minor_gc_ns_per_nursery_word",
        "ns",
        Lower,
        WALL_S,
        SIMS,
    ),
    layer("heap.remset_records", "count", Lower, WALL_S, SIMS),
    // rph-machine probe: modelled nanoseconds per host microsecond of a
    // sequential reference run.
    layer(
        "machine.model_ns_per_host_us",
        "ns/us",
        Higher,
        WALL_S,
        &[SIM_MULTICORE],
    ),
    // The reproduced result and its causes, in virtual (modelled)
    // milliseconds and counts: exact for a seed, so two commits compare
    // by equality. A change that only speeds the simulator must leave
    // every one of these bit-identical.
    layer("sim.virtual_ms", "virt_ms", Lower, WALL_S, SIMS),
    layer("gph.gcs", "count", Lower, WALL_S, SIMS),
    layer("gph.local_gcs", "count", Lower, WALL_S, SIMS),
    layer("gph.gc_barrier_wait_ms", "virt_ms", Lower, WALL_S, SIMS),
    layer("gph.gc_pause_ms", "virt_ms", Lower, WALL_S, SIMS),
    layer("gph.sparks_stolen", "count", Higher, WALL_S, SIMS),
    layer("gph.steal_fail_frac", "frac", Lower, WALL_S, SIMS),
    layer("gph.spark_fizzle_frac", "frac", Lower, WALL_S, SIMS),
    layer("gph.duplicate_evals", "count", Lower, WALL_S, SIMS),
    layer("gph.steal_remote", "count", Lower, WALL_S, &[SIM_MANYCORE]),
    layer("gph.remote_words", "count", Lower, WALL_S, &[SIM_MANYCORE]),
    layer("edensim.messages", "count", Lower, WALL_S, SIMS),
    layer("edensim.message_words", "count", Lower, WALL_S, SIMS),
    layer(
        "edensim.remote_words",
        "count",
        Lower,
        WALL_S,
        &[SIM_MANYCORE],
    ),
    layer("edensim.local_gcs", "count", Lower, WALL_S, SIMS),
    layer("edensim.gc_time_ms", "virt_ms", Lower, WALL_S, SIMS),
    // Whole-simulator host rates.
    layer("sim.model_core_s_per_host_s", "x", Higher, WALL_S, SIMS),
    layer("sim.host_ns_per_trace_event", "ns", Lower, WALL_S, SIMS),
    // rph-trace: what switching the program's own tracing on costs, and
    // the occupancy it reports.
    layer("trace.overhead_frac", "frac", Lower, WALL_S, ALL),
    layer("trace.events", "count", Lower, WALL_S, ALL),
    layer("trace.dropped", "count", Lower, WALL_S, NATIVE),
    layer(
        "occ.native.running_frac",
        "frac",
        Higher,
        WALL_S,
        &[NATIVE_COARSE, NATIVE_FINE, SERVER_OPEN, SERVER_SAT],
    ),
    layer(
        "occ.native.idle_frac",
        "frac",
        Lower,
        WALL_S,
        &[NATIVE_COARSE, NATIVE_FINE, SERVER_OPEN, SERVER_SAT],
    ),
    layer("occ.eden.blocked_frac", "frac", Lower, WALL_S, EDEN),
    layer("occ.gph.running_frac", "frac", Higher, WALL_S, SIMS),
    layer("occ.gph.gc_frac", "frac", Lower, WALL_S, SIMS),
    layer("occ.edensim.running_frac", "frac", Higher, WALL_S, SIMS),
];

/// Exact for a seed: the simulators are deterministic, so two commits
/// compare these by equality.
pub fn is_exact(name: &str) -> bool {
    name.starts_with("gph.")
        || name.starts_with("edensim.")
        || name == "sim.virtual_ms"
        || name == "heap.remset_records"
}

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEndDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let legal = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.chars().all(legal)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn unit_ok(unit: &str) -> bool {
        let legal = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(legal)
    }

    #[test]
    fn names_and_units_are_legal_and_unique() {
        let mut names: Vec<&str> = Vec::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            names.push(w.name);
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            names.push(m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            names.push(m.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn counts_are_inside_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let setup = end_to_end(SETUP_S).expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let max_bound = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, max_bound, "setup_s carries the largest bound");
    }

    #[test]
    fn every_layer_metric_names_what_it_should_move_and_where() {
        for m in PER_LAYER {
            assert!(end_to_end(m.moves).is_some(), "{}: {}", m.name, m.moves);
            assert!(!m.on.is_empty(), "{}", m.name);
            for w in m.on {
                assert!(workload(w).is_some(), "{}: {w}", m.name);
            }
        }
    }
}
