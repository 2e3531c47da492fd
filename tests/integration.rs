//! Cross-crate integration tests: whole workloads through both
//! runtimes, trace invariants, determinism, the paper's headline
//! effects at test scale, and sim-vs-native differential checks.

use rph::prelude::*;
use rph::workloads::{Apsp, MatMul, NQueens, NativeWorkload, SumEuler};
use rph_native::{BackendKind, NativeConfig};

const SE_N: i64 = 400;

#[test]
fn sum_euler_all_five_versions_agree_with_oracle() {
    let w = SumEuler::new(SE_N).with_chunk_size(25);
    let expect = w.expected();
    for (name, cfg) in GphConfig::fig1_ladder(8) {
        let m = w.run_gph(cfg.without_trace()).unwrap();
        assert_eq!(m.value, expect, "{name}");
    }
    let m = w.run_eden(EdenConfig::new(8).without_trace()).unwrap();
    assert_eq!(m.value, expect, "eden");
}

#[test]
fn sum_euler_parallel_beats_sequential_on_both_models() {
    let w = SumEuler::new(SE_N).with_chunk_size(25);
    let seq = w.run_seq();
    assert_eq!(seq.value, w.expected());
    let gph = w
        .run_gph(
            GphConfig::ghc69_plain(8)
                .with_big_alloc_area()
                .with_improved_gc_sync()
                .with_work_stealing()
                .without_trace(),
        )
        .unwrap();
    let eden = w.run_eden(EdenConfig::new(8).without_trace()).unwrap();
    assert!(
        gph.elapsed < seq.elapsed / 3,
        "gph {} vs seq {}",
        gph.elapsed,
        seq.elapsed
    );
    assert!(
        eden.elapsed < seq.elapsed / 3,
        "eden {} vs seq {}",
        eden.elapsed,
        seq.elapsed
    );
}

#[test]
fn matmul_both_models_match_oracle_including_oversubscription() {
    let w = MatMul::new(48, 4);
    let expect = w.expected();
    let gph = w
        .run_gph(
            GphConfig::ghc69_plain(4)
                .with_work_stealing()
                .without_trace(),
        )
        .unwrap();
    assert_eq!(gph.value, expect);
    // 17 virtual PEs on 4 cores: oversubscribed Cannon.
    let eden = w
        .run_eden(EdenConfig::oversubscribed(17, 4).without_trace())
        .unwrap();
    assert_eq!(eden.value, expect);
}

#[test]
fn apsp_both_models_match_oracle() {
    let w = Apsp::new(40);
    let expect = w.expected();
    let gph = w
        .run_gph(
            GphConfig::ghc69_plain(4)
                .with_work_stealing()
                .with_eager_blackholing()
                .without_trace(),
        )
        .unwrap();
    assert_eq!(gph.value, expect);
    let eden = w.run_eden(EdenConfig::new(4).without_trace()).unwrap();
    assert_eq!(eden.value, expect);
}

#[test]
fn traces_are_well_formed_for_all_workloads() {
    let m = SumEuler::new(200)
        .run_gph(GphConfig::ghc69_plain(4))
        .unwrap();
    let tl = Timeline::from_tracer(&m.tracer);
    tl.check_well_formed().unwrap();
    assert!(tl.mean_fraction(rph::trace::State::Running) > 0.0);

    let m = MatMul::new(24, 2).run_eden(EdenConfig::new(4)).unwrap();
    let tl = Timeline::from_tracer(&m.tracer);
    tl.check_well_formed().unwrap();
    let counters = rph::trace::Counters::from_tracer(&m.tracer);
    assert!(counters.messages_sent > 0);
    assert_eq!(counters.processes_instantiated, 4);
}

#[test]
fn whole_workload_runs_are_deterministic() {
    let w = SumEuler::new(300).with_chunk_size(20);
    let cfg = GphConfig::ghc69_plain(6).with_work_stealing();
    let a = w.run_gph(cfg.clone()).unwrap();
    let b = w.run_gph(cfg).unwrap();
    assert_eq!(a.value, b.value);
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.tracer.merged(), b.tracer.merged());

    let a = w.run_eden(EdenConfig::new(6)).unwrap();
    let b = w.run_eden(EdenConfig::new(6)).unwrap();
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.tracer.merged(), b.tracer.merged());
}

#[test]
fn big_allocation_area_reduces_gcs_at_workload_level() {
    let w = SumEuler::new(SE_N).with_chunk_size(25);
    let small = w
        .run_gph(GphConfig::ghc69_plain(4).without_trace())
        .unwrap();
    let big = w
        .run_gph(
            GphConfig::ghc69_plain(4)
                .with_big_alloc_area()
                .without_trace(),
        )
        .unwrap();
    assert!(
        big.gph_stats.as_ref().unwrap().gcs * 4 < small.gph_stats.as_ref().unwrap().gcs,
        "expected far fewer GCs with the big area"
    );
}

#[test]
fn per_cap_nurseries_close_the_gc_gap_at_workload_level() {
    // ROADMAP item 1: with real per-capability nurseries most
    // collections are independent minors, so the GpH GC profile moves
    // toward Eden's (few global stops, local collections doing the
    // work).
    let w = SumEuler::new(SE_N).with_chunk_size(25);
    let expect = w.expected();
    let stw = w
        .run_gph(GphConfig::ghc69_plain(8).without_trace())
        .unwrap();
    let nursery = w
        .run_gph(
            GphConfig::ghc69_plain(8)
                .with_per_cap_nurseries()
                .without_trace(),
        )
        .unwrap();
    assert_eq!(stw.value, expect);
    assert_eq!(nursery.value, expect);
    let s1 = stw.gph_stats.as_ref().unwrap();
    let s2 = nursery.gph_stats.as_ref().unwrap();
    assert!(s1.gcs > 0);
    assert!(s2.gcs < s1.gcs, "global GCs: {} !< {}", s2.gcs, s1.gcs);
    assert!(s2.local_gcs > 0, "minor collections must do the work");
    assert!(s2.promoted_words > 0, "survivors must really be evacuated");
    assert!(
        s2.gc_stopped_time() < s1.gc_stopped_time(),
        "stopped time: {} !< {}",
        s2.gc_stopped_time(),
        s1.gc_stopped_time()
    );
}

#[test]
fn per_cap_nurseries_runs_are_deterministic() {
    let w = SumEuler::new(300).with_chunk_size(20);
    let cfg = GphConfig::ghc69_plain(6)
        .with_work_stealing()
        .with_per_cap_nurseries();
    let a = w.run_gph(cfg.clone()).unwrap();
    let b = w.run_gph(cfg).unwrap();
    assert_eq!(a.value, b.value);
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.tracer.merged(), b.tracer.merged());
}

#[test]
fn eden_gc_is_local_no_global_barrier() {
    // One PE allocating heavily must not stop the others: total GC time
    // summed across PEs stays far below elapsed × PEs.
    let w = SumEuler::new(SE_N);
    let m = w.run_eden(EdenConfig::new(4).without_trace()).unwrap();
    let s = m.eden_stats.as_ref().unwrap();
    assert!(s.local_gcs > 0);
    assert!(
        s.gc_time < m.elapsed * 4 / 2,
        "local GC should not look like a global barrier"
    );
}

#[test]
fn check_phase_validates_parallel_result() {
    let w = SumEuler::new(150).with_check();
    let m = w
        .run_gph(
            GphConfig::ghc69_plain(4)
                .with_work_stealing()
                .without_trace(),
        )
        .unwrap();
    // If the parallel and sequential results disagreed the program
    // would return -1.
    assert_eq!(m.value, w.expected());
}

/// Every native configuration the differential tests sweep: 1, 2, 3,
/// 4, 5 and 8 workers, even and odd.
fn native_configs() -> Vec<NativeConfig> {
    [1usize, 2, 3, 4, 5, 8].map(NativeConfig::steal).to_vec()
}

#[test]
fn native_sum_euler_matches_sim_bit_for_bit() {
    let w = SumEuler::new(300).with_chunk_size(20);
    let sim = w
        .run_gph(
            GphConfig::ghc69_plain(4)
                .with_work_stealing()
                .without_trace(),
        )
        .unwrap();
    assert_eq!(sim.value, w.expected());
    for cfg in native_configs() {
        let native = w.run_on(&cfg).expect("native run failed");
        assert_eq!(native.value, sim.value, "{cfg:?}");
    }
}

#[test]
fn native_matmul_matches_sim_bit_for_bit() {
    let w = MatMul::new(40, 4);
    let sim = w
        .run_gph(
            GphConfig::ghc69_plain(4)
                .with_work_stealing()
                .without_trace(),
        )
        .unwrap();
    assert_eq!(sim.value, w.expected());
    for cfg in native_configs() {
        let native = w.run_on(&cfg).expect("native run failed");
        assert_eq!(native.value, sim.value, "{cfg:?}");
    }
}

#[test]
fn native_apsp_matches_sim_bit_for_bit() {
    let w = Apsp::new(24);
    let sim = w
        .run_gph(
            GphConfig::ghc69_plain(4)
                .with_work_stealing()
                .with_eager_blackholing()
                .without_trace(),
        )
        .unwrap();
    assert_eq!(sim.value, w.expected());
    for cfg in native_configs() {
        let native = w.run_on(&cfg).expect("native run failed");
        assert_eq!(native.value, sim.value, "{cfg:?}");
    }
}

#[test]
fn native_nqueens_matches_sim_bit_for_bit() {
    let w = NQueens::new(8).with_spawn_depth(2);
    let sim = w
        .run_gph(
            GphConfig::ghc69_plain(4)
                .with_work_stealing()
                .without_trace(),
        )
        .unwrap();
    assert_eq!(sim.value, 92);
    for cfg in native_configs() {
        let native = w.run_on(&cfg).expect("native run failed");
        assert_eq!(native.value, sim.value, "{cfg:?}");
    }
}

#[test]
fn native_runs_every_task_exactly_once() {
    let w = SumEuler::new(200).with_chunk_size(10);
    let tasks = 20; // ceil(200 / 10)
    for cfg in native_configs() {
        let m = w.run_on(&cfg).expect("native run failed");
        assert_eq!(m.stats.tasks_run, tasks, "{cfg:?}");
        assert_eq!(m.stats.per_worker.iter().sum::<u64>(), tasks, "{cfg:?}");
        // tasks_local and tasks_stolen are counted directly per worker;
        // together they must partition the run.
        assert_eq!(m.stats.tasks_local + m.stats.tasks_stolen, tasks, "{cfg:?}");
        // Batch accounting is consistent: batches can only move extras
        // if steals succeeded at all.
        if m.stats.steal_ops == 0 {
            assert_eq!(m.stats.batch_moved, 0, "{cfg:?}");
            assert_eq!(m.stats.tasks_stolen, 0, "{cfg:?}");
        }
    }
}

#[test]
fn native_degenerate_jobs_match_oracle() {
    // Fewer tasks than workers, and a single-chunk job, at odd worker
    // counts — the decomposition edge cases of the range encoding.
    let single = SumEuler::new(50).with_chunk_size(50); // 1 task
    let sparse = SumEuler::new(60).with_chunk_size(20); // 3 tasks
    for w in [&single, &sparse] {
        let expect = w.expected();
        for cfg in native_configs() {
            let m = w.run_on(&cfg).expect("native run failed");
            assert_eq!(m.value, expect, "{cfg:?}");
            assert_eq!(
                m.stats.tasks_local + m.stats.tasks_stolen,
                m.stats.tasks_run,
                "{cfg:?}"
            );
        }
    }
}

#[test]
fn native_traced_workloads_render_and_reconcile() {
    // Workload-level tracing: the same Timeline/Counters machinery the
    // simulators feed must accept native wall-clock traces, and event
    // totals must agree with the executor's own counters.
    let w = SumEuler::new(300).with_chunk_size(10);
    let cfg = NativeConfig::steal(4).with_trace();
    let m = w.run_on(&cfg).expect("native run failed");
    assert_eq!(m.value, w.expected());
    assert_eq!(m.trace_dropped, 0);
    let trace = m.trace.as_ref().expect("traced run returns a tracer");
    let tl = Timeline::from_tracer(trace);
    tl.check_well_formed().unwrap();
    assert!(tl.mean_fraction(rph::trace::State::Running) > 0.0);
    let c = rph::trace::Counters::from_tracer(trace);
    assert_eq!(c.native_tasks, m.stats.tasks_run);
    assert_eq!(c.native_steals, m.stats.steal_ops);
    assert_eq!(c.native_splits, m.stats.splits);
    assert_eq!(c.native_parks, m.stats.parks);

    // Untraced runs carry no tracer and lose nothing else.
    let plain = w
        .run_on(&NativeConfig::steal(4))
        .expect("native run failed");
    assert!(plain.trace.is_none());
    assert_eq!(plain.value, m.value);
}

#[test]
fn native_apsp_stitches_wave_traces_onto_one_axis() {
    // APSP issues one pool run per pivot wave; the workload glues the
    // per-wave tracers onto a single monotone time axis.
    let w = Apsp::new(16);
    let m = w
        .run_on(&NativeConfig::steal(2).with_trace())
        .expect("native run failed");
    assert_eq!(m.value, w.expected());
    let trace = m.trace.as_ref().expect("traced run returns a tracer");
    let merged = trace.merged();
    assert!(!merged.is_empty());
    assert!(
        merged.windows(2).all(|p| p[0].time <= p[1].time),
        "stitched wave traces must stay time-ordered"
    );
    let c = rph::trace::Counters::from_tracer(trace);
    assert_eq!(c.native_tasks, m.stats.tasks_run);
    // 16 waves: the caller enters every wave; the helper at most once
    // per wave, and only in waves it took a seat in.
    let caller = rph::trace::Counters::for_cap(trace, rph::trace::CapId(0));
    let helper = rph::trace::Counters::for_cap(trace, rph::trace::CapId(1));
    assert_eq!(caller.native_runs, 16);
    assert!(helper.native_runs <= 16);
    assert!(helper.native_tasks == 0 || helper.native_runs > 0);
    Timeline::from_tracer(trace).check_well_formed().unwrap();
}

#[test]
fn three_way_differential_sim_eden_vs_native_eden_vs_native_steal() {
    // The PR 5 acceptance check: for every workload, the simulated
    // Eden runtime, the native message-passing backend and the native
    // work-stealing backend must produce bit-identical checksums at 1,
    // 2, 3, 4 and 8 PEs. All inputs are small integers, so every f64
    // intermediate is exact and schedule order cannot leak into the
    // value.
    let se = SumEuler::new(300).with_chunk_size(20);
    let mm = MatMul::new(40, 4);
    let ap = Apsp::new(24);
    let nq = NQueens::new(8).with_spawn_depth(2);
    for pes in [1usize, 2, 3, 4, 8] {
        let steal_cfg = NativeConfig::new(pes);
        let eden_cfg = NativeConfig::new(pes).with_backend(BackendKind::Eden);
        let sims = [
            se.run_eden(EdenConfig::new(pes).without_trace())
                .unwrap()
                .value,
            mm.run_eden(EdenConfig::new(pes).without_trace())
                .unwrap()
                .value,
            ap.run_eden(EdenConfig::new(pes).without_trace())
                .unwrap()
                .value,
            nq.run_eden_master_worker(EdenConfig::new(pes).without_trace(), 2)
                .unwrap()
                .value,
        ];
        let table: [&dyn NativeWorkload; 4] = [&se, &mm, &ap, &nq];
        for (w, sim_value) in table.iter().zip(sims) {
            assert_eq!(sim_value, w.expected_value(), "{} sim pes={pes}", w.name());
            let native_eden = w.run_on(&eden_cfg).expect("native eden run failed");
            let native_steal = w.run_on(&steal_cfg).expect("native steal run failed");
            assert_eq!(native_eden.value, sim_value, "{} eden pes={pes}", w.name());
            assert_eq!(
                native_steal.value,
                sim_value,
                "{} steal pes={pes}",
                w.name()
            );
        }
    }
}

#[test]
fn spark_counters_are_consistent() {
    let w = SumEuler::new(SE_N).with_chunk_size(10);
    let m = w
        .run_gph(
            GphConfig::ghc69_plain(8)
                .with_work_stealing()
                .without_trace(),
        )
        .unwrap();
    let s = m.gph_stats.as_ref().unwrap();
    // Everything converted, fizzled, pushed or stolen never exceeds
    // what was created.
    assert!(
        s.sparks_run_local + s.sparks_stolen + s.sparks_fizzled
            <= s.sparks_created + s.sparks_pushed,
        "spark bookkeeping out of balance: {s:?}"
    );
    assert!(s.sparks_created >= 40);
}
