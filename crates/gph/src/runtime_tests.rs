//! Runtime tests: result correctness across the whole configuration
//! matrix, determinism, and the qualitative effects the paper reports
//! (stealing beats pushing; bigger nurseries mean fewer GCs; eager
//! black-holing suppresses duplicate evaluation; spark threads create
//! fewer threads).

use crate::config::{BlackHoling, GcModel, GphConfig, SparkExec, SparkPolicy};
use crate::runtime::GphRuntime;
use rph_heap::{Heap, NodeRef, Value};
use rph_machine::ir::*;
use rph_machine::prelude::{self, Prelude};
use rph_machine::program::{KernelOut, Program, ProgramBuilder};
use rph_trace::State;
use std::sync::Arc;

/// Test program: `sum (map work [1..n])` with `work` a kernel of
/// `cost_per_item` work units and `alloc_per_item` words of transient
/// allocation, parallelised by sparking every element (deep).
struct Fixture {
    program: Arc<Program>,
    #[allow(dead_code)]
    pre: Prelude,
    main: rph_heap::ScId,
}

fn fixture(cost_per_item: u64, alloc_per_item: u64) -> Fixture {
    let mut b = ProgramBuilder::new();
    let pre = prelude::install(&mut b);
    let work = b.kernel("work", 1, move |heap, args| {
        let x = heap.expect_value(args[0]).expect_int();
        KernelOut {
            result: heap.alloc_value(Value::Int(x * 2)),
            cost: cost_per_item,
            transient_words: alloc_per_item,
        }
    });
    // main n = let xs = map work [1..n]
    //          in  sparkList xs `seq` sum xs
    // frame: [n]
    let main = b.def(
        "main",
        1,
        let_(
            vec![
                pap(work, vec![]),                           // [1] work as a value
                thunk(pre.enum_from_to, vec![int(1), v(0)]), // [2] [1..n]
                thunk(pre.map, vec![v(1), v(2)]),            // [3] map work [1..n]
                thunk(pre.spark_list, vec![v(3)]),           // [4] sparker
            ],
            seq(atom(v(4)), app(pre.sum, vec![v(3)])),
        ),
    );
    Fixture {
        program: b.build(),
        pre,
        main,
    }
}

fn entry(f: &Fixture, heap: &mut Heap, n: i64) -> NodeRef {
    let nn = heap.int(n);
    heap.alloc_thunk(f.main, vec![nn])
}

fn expected(n: i64) -> i64 {
    (1..=n).map(|x| x * 2).sum()
}

fn run_with(config: GphConfig, n: i64, cost: u64, alloc: u64) -> (i64, crate::runtime::RunOutcome) {
    let f = fixture(cost, alloc);
    let mut rt = GphRuntime::new(f.program.clone(), config);
    let out = rt.run(|heap| entry(&f, heap, n)).expect("run failed");
    let v = rt.heap().expect_value(out.result).expect_int();
    (v, out)
}

#[test]
fn correct_result_across_config_matrix() {
    for caps in [1, 2, 4, 8] {
        for policy in [SparkPolicy::Push, SparkPolicy::Steal] {
            for bh in [BlackHoling::Lazy, BlackHoling::Eager] {
                for exec in [SparkExec::ThreadPerSpark, SparkExec::SparkThread] {
                    let mut c = GphConfig::ghc69_plain(caps).without_trace();
                    c.spark_policy = policy;
                    c.black_holing = bh;
                    c.spark_exec = exec;
                    let (v, _) = run_with(c, 40, 100_000, 2_000);
                    assert_eq!(
                        v,
                        expected(40),
                        "caps={caps} policy={policy:?} bh={bh:?} exec={exec:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn deterministic_same_seed_same_everything() {
    let c = GphConfig::ghc69_plain(4).with_work_stealing();
    let (v1, o1) = run_with(c.clone(), 50, 80_000, 1_000);
    let (v2, o2) = run_with(c, 50, 80_000, 1_000);
    assert_eq!(v1, v2);
    assert_eq!(o1.elapsed, o2.elapsed);
    assert_eq!(o1.stats, o2.stats);
    assert_eq!(o1.tracer.merged(), o2.tracer.merged());
}

#[test]
fn parallelism_gives_speedup_with_stealing() {
    let base = GphConfig::ghc69_plain(1)
        .with_work_stealing()
        .without_trace();
    let (_, o1) = run_with(base, 64, 400_000, 1_000);
    let par = GphConfig::ghc69_plain(8)
        .with_work_stealing()
        .without_trace();
    let (_, o8) = run_with(par, 64, 400_000, 1_000);
    let speedup = o1.elapsed as f64 / o8.elapsed as f64;
    assert!(speedup > 4.0, "8-cap stealing speedup only {speedup:.2}");
}

#[test]
fn stealing_beats_pushing() {
    // Fine-grained sparks make the push scheduler's polling delay
    // visible (§IV.A.2).
    let mut push = GphConfig::ghc69_plain(8)
        .with_big_alloc_area()
        .without_trace();
    push.spark_policy = SparkPolicy::Push;
    let (_, op) = run_with(push, 96, 150_000, 500);
    let steal = GphConfig::ghc69_plain(8)
        .with_big_alloc_area()
        .with_work_stealing()
        .without_trace();
    let (_, os) = run_with(steal, 96, 150_000, 500);
    assert!(
        os.elapsed < op.elapsed,
        "steal {} !< push {}",
        os.elapsed,
        op.elapsed
    );
    assert!(os.stats.sparks_stolen > 0);
    assert!(op.stats.sparks_pushed > 0);
}

#[test]
fn big_allocation_area_reduces_gc_count() {
    let small = GphConfig::ghc69_plain(4).without_trace();
    let (_, o_small) = run_with(small, 64, 100_000, 30_000);
    let big = GphConfig::ghc69_plain(4)
        .with_big_alloc_area()
        .without_trace();
    let (_, o_big) = run_with(big, 64, 100_000, 30_000);
    assert!(
        o_big.stats.gcs < o_small.stats.gcs,
        "big area gcs {} !< small area gcs {}",
        o_big.stats.gcs,
        o_small.stats.gcs
    );
    assert!(
        o_big.elapsed < o_small.elapsed,
        "fewer GCs should run faster"
    );
}

#[test]
fn improved_gc_sync_reduces_runtime_with_many_gcs() {
    // Single capability: the schedule is identical apart from the
    // barrier cost, so the comparison is exact. (The multi-capability
    // effect is measured by the Fig. 1 benchmark, where scheduling
    // feedback legitimately changes GC counts between configs.)
    let orig = GphConfig::ghc69_plain(1).without_trace();
    let (_, o1) = run_with(orig, 64, 100_000, 30_000);
    let impr = GphConfig::ghc69_plain(1)
        .with_improved_gc_sync()
        .without_trace();
    let (_, o2) = run_with(impr, 64, 100_000, 30_000);
    assert!(o1.stats.gcs > 0);
    assert_eq!(o1.stats.gcs, o2.stats.gcs, "same single-cap schedule");
    assert!(
        o2.elapsed < o1.elapsed,
        "improved {} !< original {}",
        o2.elapsed,
        o1.elapsed
    );
}

#[test]
fn spark_thread_mode_creates_fewer_threads() {
    let mut per_spark = GphConfig::ghc69_plain(4)
        .with_big_alloc_area()
        .without_trace();
    per_spark.spark_policy = SparkPolicy::Steal;
    per_spark.spark_exec = SparkExec::ThreadPerSpark;
    let (_, o1) = run_with(per_spark, 64, 100_000, 500);
    let mut spark_thread = GphConfig::ghc69_plain(4)
        .with_big_alloc_area()
        .without_trace();
    spark_thread.spark_policy = SparkPolicy::Steal;
    spark_thread.spark_exec = SparkExec::SparkThread;
    let (_, o2) = run_with(spark_thread, 64, 100_000, 500);
    assert!(
        o2.stats.threads_created < o1.stats.threads_created,
        "spark-thread {} !< thread-per-spark {}",
        o2.stats.threads_created,
        o1.stats.threads_created
    );
}

#[test]
fn gc_happens_and_reclaims() {
    let (v, o) = run_with(
        GphConfig::ghc69_plain(2).without_trace(),
        48,
        50_000,
        20_000,
    );
    assert_eq!(v, expected(48));
    assert!(o.stats.gcs > 0, "expected collections");
    assert!(o.stats.collected_words > 0);
}

#[test]
fn trace_is_well_formed_and_shows_gc() {
    let (_, o) = run_with(GphConfig::ghc69_plain(2), 48, 50_000, 20_000);
    let tl = rph_trace::Timeline::from_tracer(&o.tracer);
    tl.check_well_formed().unwrap();
    assert!(
        tl.mean_fraction(State::Gc) > 0.0,
        "GC time visible in trace"
    );
    assert!(tl.mean_fraction(State::Running) > 0.1);
}

#[test]
fn one_cap_run_has_no_steals_or_pushes() {
    let c = GphConfig::ghc69_plain(1)
        .with_work_stealing()
        .without_trace();
    let (v, o) = run_with(c, 20, 50_000, 500);
    assert_eq!(v, expected(20));
    assert_eq!(o.stats.sparks_stolen, 0);
    assert_eq!(o.stats.sparks_pushed, 0);
}

/// Shared-data workload: every sparked task forces the same shared
/// thunk *and* does private work. Under lazy black-holing the shared
/// computation is duplicated by concurrent forcers, displacing useful
/// work; eager black-holing blocks the second forcers, whose
/// capabilities pick up other sparks instead (§IV.A.3 / Fig. 5's
/// mechanism).
#[test]
fn eager_blackholing_prevents_duplicate_shared_work() {
    fn build_shared(bh: BlackHoling) -> (i64, crate::runtime::RunOutcome) {
        let mut b = ProgramBuilder::new();
        let pre = prelude::install(&mut b);
        let heavy = b.kernel("heavy", 1, |heap, args| {
            let x = heap.expect_value(args[0]).expect_int();
            KernelOut {
                result: heap.alloc_value(Value::Int(x + 1000)),
                cost: 3_000_000, // 3 ms: a big shared computation
                transient_words: 100,
            }
        });
        let own_work = b.kernel("ownWork", 1, |heap, args| {
            let x = heap.expect_value(args[0]).expect_int();
            KernelOut {
                result: heap.alloc_value(Value::Int(x)),
                cost: 1_000_000, // 1 ms private work per task
                transient_words: 100,
            }
        });
        // useShared s i = ownWork i + s     frame: [s, i]
        // Private work first, then the shared thunk: under eager BH a
        // blocked task's capability has other tasks' private work to
        // run; under lazy BH the capability duplicates `heavy` instead.
        let use_shared = b.def(
            "useShared",
            2,
            let_(
                vec![thunk(own_work, vec![v(1)])], // [2]
                prim(rph_machine::PrimOp::Add, vec![v(2), v(0)]),
            ),
        );
        // main k = let s = heavy 1
        //              xs = map (useShared s) [1..k]
        //          in sparkList xs `seq` sum xs
        let main = b.def(
            "main",
            1,
            let_(
                vec![
                    thunk(heavy, vec![int(1)]),                  // [1] shared s
                    pap(use_shared, vec![v(1)]),                 // [2] (useShared s)
                    thunk(pre.enum_from_to, vec![int(1), v(0)]), // [3]
                    thunk(pre.map, vec![v(2), v(3)]),            // [4]
                    thunk(pre.spark_list, vec![v(4)]),           // [5]
                ],
                seq(atom(v(5)), app(pre.sum, vec![v(4)])),
            ),
        );
        let program = b.build();
        let mut c = GphConfig::ghc69_plain(4)
            .with_big_alloc_area()
            .with_work_stealing();
        c.black_holing = bh;
        c = c.without_trace();
        let mut rt = GphRuntime::new(program, c);
        let out = rt
            .run(|heap| {
                let k = heap.int(32);
                heap.alloc_thunk(main, vec![k])
            })
            .unwrap();
        let v = rt.heap().expect_value(out.result).expect_int();
        (v, out)
    }
    let (v_lazy, lazy) = build_shared(BlackHoling::Lazy);
    let (v_eager, eager) = build_shared(BlackHoling::Eager);
    let expect: i64 = (1..=32).map(|i| 1001 + i).sum();
    assert_eq!(v_lazy, expect);
    assert_eq!(v_eager, expect);
    assert!(
        lazy.stats.duplicate_evals > 0,
        "lazy BH must duplicate the shared computation"
    );
    assert_eq!(
        eager.stats.duplicate_evals, 0,
        "eager BH prevents duplication"
    );
    assert!(
        eager.stats.blackhole_blocks > 0,
        "eager BH blocks second forcers"
    );
    assert!(
        eager.elapsed < lazy.elapsed,
        "eager {} !< lazy {} when work is shared",
        eager.elapsed,
        lazy.elapsed
    );
}

/// §VI future work: the semi-distributed heap model (per-capability
/// nurseries) must produce the same results and collect mostly
/// locally, cutting the stop-the-world count sharply.
#[test]
fn semi_distributed_heap_reduces_global_collections() {
    let stw = GphConfig::ghc69_plain(8).without_trace();
    let (v1, o1) = run_with(stw, 64, 100_000, 30_000);
    let semi = GphConfig::ghc69_plain(8)
        .with_per_cap_nurseries()
        .without_trace();
    let (v2, o2) = run_with(semi, 64, 100_000, 30_000);
    assert_eq!(v1, v2);
    let s1 = &o1.stats;
    let s2 = &o2.stats;
    assert!(s1.gcs > 0);
    assert!(
        s2.gcs * 4 <= s1.gcs,
        "global GCs should drop sharply: {} vs {}",
        s2.gcs,
        s1.gcs
    );
    assert!(s2.local_gcs > 0, "local collections must happen");
    assert!(
        o2.elapsed < o1.elapsed,
        "semi-distributed {} !< stop-the-world {}",
        o2.elapsed,
        o1.elapsed
    );
}

/// §IV.A.2 future work: thread stealing lets idle capabilities pull
/// runnable threads when there are no sparks left to steal.
#[test]
fn thread_stealing_pulls_queued_threads() {
    // Shared thunk: all tasks block on it; the waker accumulates the
    // woken threads. With thread stealing, idle capabilities pull them.
    let run = |steal_threads: bool| {
        let mut c = GphConfig::ghc69_plain(8)
            .with_big_alloc_area()
            .with_work_stealing()
            .with_eager_blackholing()
            .without_trace();
        if steal_threads {
            c = c.with_thread_stealing();
        }
        woken_batch(c, 24).1
    };
    let without = run(false);
    let with = run(true);
    assert!(with.stats.threads_stolen > 0, "expected thread steals");
    assert!(
        with.elapsed <= without.elapsed,
        "thread stealing should not hurt: {} vs {}",
        with.elapsed,
        without.elapsed
    );
}

/// Value oracle: every GC model produces the bit-identical sequential
/// answer across capability counts.
#[test]
fn gc_model_matrix_preserves_results() {
    for caps in [1, 2, 4, 8] {
        for (name, model) in [
            ("stw", GcModel::StopTheWorld),
            ("percap", GcModel::PerCapNurseries),
        ] {
            let mut c = GphConfig::ghc69_plain(caps)
                .with_work_stealing()
                .without_trace();
            c.gc_model = model;
            let (v, _) = run_with(c, 48, 50_000, 20_000);
            assert_eq!(v, expected(48), "caps={caps} model={name}");
        }
    }
}

/// Determinism must survive the new nursery machinery: identical
/// seeds give identical stats, elapsed time, and byte-identical
/// merged event traces.
#[test]
fn per_cap_nurseries_deterministic_same_seed() {
    let c = GphConfig::ghc69_plain(4)
        .with_work_stealing()
        .with_per_cap_nurseries();
    let (v1, o1) = run_with(c.clone(), 48, 50_000, 20_000);
    let (v2, o2) = run_with(c, 48, 50_000, 20_000);
    assert_eq!(v1, v2);
    assert_eq!(o1.elapsed, o2.elapsed);
    assert_eq!(o1.stats, o2.stats);
    assert_eq!(o1.tracer.merged(), o2.tracer.merged());
}

/// The tentpole's headline effect: with real per-capability nurseries
/// most collections are independent minor ones, so at scale the
/// global-GC count and the total stopped time both drop against the
/// stop-the-world baseline — the sim's GpH profile moves toward
/// Eden's.
#[test]
fn per_cap_nurseries_cut_global_gcs_and_stopped_time() {
    let stw = GphConfig::ghc69_plain(8).without_trace();
    let (v1, o1) = run_with(stw, 64, 100_000, 30_000);
    let percap = GphConfig::ghc69_plain(8)
        .with_per_cap_nurseries()
        .without_trace();
    let (v2, o2) = run_with(percap, 64, 100_000, 30_000);
    assert_eq!(v1, v2);
    assert!(o1.stats.gcs > 0, "baseline must collect");
    assert!(
        o2.stats.gcs < o1.stats.gcs,
        "global GCs should drop: {} !< {}",
        o2.stats.gcs,
        o1.stats.gcs
    );
    assert!(o2.stats.local_gcs > 0, "minor collections must happen");
    assert!(
        o2.stats.promoted_words > 0,
        "minor collections must evacuate real survivors"
    );
    assert!(
        o2.stats.gc_stopped_time() < o1.stats.gc_stopped_time(),
        "stopped time should shrink: {} !< {}",
        o2.stats.gc_stopped_time(),
        o1.stats.gc_stopped_time()
    );
    assert!(
        o2.elapsed < o1.elapsed,
        "independent minors should run faster: {} !< {}",
        o2.elapsed,
        o1.elapsed
    );
}

/// A capability's minor-GC pause must depend only on its *own*
/// survivors, never on how big the rest of the heap happens to be. We
/// pin a ballast structure in the old generation (reachable, never
/// part of any nursery) and check the nursery run is completely
/// unperturbed.
#[test]
fn minor_pause_independent_of_other_heap_usage() {
    fn run_ballast(model: GcModel, ballast_cells: usize) -> crate::runtime::RunOutcome {
        let f = fixture(50_000, 20_000);
        let mut c = GphConfig::ghc69_plain(2)
            .with_work_stealing()
            .without_trace();
        c.gc_model = model;
        let mut rt = GphRuntime::new(f.program.clone(), c);
        for i in 0..ballast_cells {
            let cell = rt.heap_mut().int(i as i64);
            rt.pin_root(cell);
        }
        rt.run(|heap| entry(&f, heap, 48)).expect("run failed")
    }
    let small = run_ballast(GcModel::PerCapNurseries, 10);
    let big = run_ballast(GcModel::PerCapNurseries, 10_000);
    assert!(small.stats.local_gcs > 0);
    assert_eq!(
        small.stats.local_gcs, big.stats.local_gcs,
        "ballast must not change the minor-GC schedule"
    );
    assert_eq!(
        small.stats.minor_gc_time, big.stats.minor_gc_time,
        "minor pauses must not scale with unrelated old-gen data"
    );
    assert_eq!(
        small.elapsed, big.elapsed,
        "whole schedule must be unperturbed by old-gen ballast"
    );
}

/// Without a collection a churn-heavy program's cell count only
/// climbs. Nurseries reclaim dead cells at every minor collection,
/// keeping the live cell count bounded between major GCs.
#[test]
fn minor_collections_bound_the_heap() {
    fn churn_run(
        model: GcModel,
        alloc_area_words: u64,
    ) -> (i64, crate::runtime::RunOutcome, rph_heap::HeapStats) {
        let mut b = ProgramBuilder::new();
        let pre = prelude::install(&mut b);
        // Each task allocates 200 short-lived cells that die as soon
        // as the kernel returns — classic nursery garbage.
        let churn = b.kernel("churn", 1, |heap, args| {
            let x = heap.expect_value(args[0]).expect_int();
            let mut acc = 0i64;
            for i in 0..200i64 {
                let t = heap.int(i);
                acc += heap.expect_value(t).expect_int();
            }
            KernelOut {
                result: heap.alloc_value(Value::Int(x * 2 + (acc - acc))),
                cost: 50_000,
                transient_words: 2_000,
            }
        });
        let main = b.def(
            "main",
            1,
            let_(
                vec![
                    pap(churn, vec![]),
                    thunk(pre.enum_from_to, vec![int(1), v(0)]),
                    thunk(pre.map, vec![v(1), v(2)]),
                    thunk(pre.spark_list, vec![v(3)]),
                ],
                seq(atom(v(4)), app(pre.sum, vec![v(3)])),
            ),
        );
        let program = b.build();
        let mut c = GphConfig::ghc69_plain(2)
            .with_work_stealing()
            .without_trace();
        c.alloc_area_words = alloc_area_words;
        c.gc_model = model;
        let mut rt = GphRuntime::new(program, c);
        let out = rt
            .run(|heap| {
                let n = heap.int(48);
                heap.alloc_thunk(main, vec![n])
            })
            .unwrap();
        let v = rt.heap().expect_value(out.result).expect_int();
        let hs = rt.heap().stats();
        (v, out, hs)
    }
    // Small nursery so minor collections are frequent.
    let (v_n, nursery, hs_n) = churn_run(GcModel::PerCapNurseries, 8_192);
    // The reference never collects: its allocation area outlasts the run.
    let (v_s, never, hs_s) = churn_run(GcModel::StopTheWorld, 1 << 30);
    assert_eq!(v_n, expected(48));
    assert_eq!(v_s, expected(48));
    assert!(nursery.stats.local_gcs > 0);
    assert!(
        nursery.stats.collected_words > 0,
        "minor collections must actually reclaim nursery garbage"
    );
    assert_eq!(never.stats.gcs, 0, "reference must never collect");
    assert!(
        hs_n.peak_live_cells * 2 < hs_s.peak_live_cells,
        "nursery heap must stay bounded: peak {} cells vs unreclaimed {}",
        hs_n.peak_live_cells,
        hs_s.peak_live_cells
    );
}

/// When churn promotes enough to grow the old generation past its
/// threshold, the per-capability model runs a *parallel* major
/// collection: with several capabilities' GC threads marking, the
/// grey-set work-stealing must actually engage.
#[test]
fn parallel_major_gc_triggers_and_steals() {
    let mut c = GphConfig::ghc69_plain(4)
        .with_work_stealing()
        .with_per_cap_nurseries()
        .without_trace();
    // Tiny nursery + tiny old-gen threshold so minors promote often
    // and majors actually trigger within the run.
    c.alloc_area_words = 2_048;
    let (v, o) = run_with(c, 512, 50_000, 3_000);
    assert_eq!(v, expected(512));
    assert!(o.stats.local_gcs > 0);
    assert!(o.stats.gcs > 0, "old-gen growth must trigger a major GC");
    assert!(o.stats.gc_pause > 0);
    assert!(o.stats.gc_barrier_wait > 0);
    assert!(
        o.stats.grey_steals > 0,
        "parallel mark must balance work by stealing grey objects"
    );
}

/// Failure injection: a program error (division by zero) inside a
/// sparked computation surfaces as `Err` from the run, never as a
/// panic or a wrong answer.
#[test]
fn program_errors_propagate_from_parallel_code() {
    let mut b = ProgramBuilder::new();
    let pre = prelude::install(&mut b);
    // poison x = x / 0
    let poison = b.def(
        "poison",
        1,
        prim(rph_machine::PrimOp::Div, vec![v(0), int(0)]),
    );
    let main = b.def(
        "main",
        1,
        let_(
            vec![
                pap(poison, vec![]),
                thunk(pre.enum_from_to, vec![int(1), v(0)]),
                thunk(pre.map, vec![v(1), v(2)]),
                thunk(pre.spark_list, vec![v(3)]),
            ],
            seq(atom(v(4)), app(pre.sum, vec![v(3)])),
        ),
    );
    let program = b.build();
    let mut rt = GphRuntime::new(
        program,
        GphConfig::ghc69_plain(4)
            .with_work_stealing()
            .without_trace(),
    );
    let err = rt
        .run(|heap| {
            let n = heap.int(8);
            heap.alloc_thunk(main, vec![n])
        })
        .unwrap_err();
    assert!(err.contains("division"), "got: {err}");
}

/// The single-node topology is the pre-topology runtime by
/// construction: an explicit `with_topology(1, caps)` — and even the
/// flat-stealing ablation, whose remote arm is unreachable with one
/// node — replays the default config bit for bit: result, virtual
/// makespan, every counter, and the merged event trace.
#[test]
fn single_node_topology_is_bit_identical_to_default() {
    let base = GphConfig::ghc69_plain(4).with_work_stealing();
    let (v1, o1) = run_with(base.clone(), 50, 80_000, 1_000);
    for c in [
        base.clone().with_topology(1, 4),
        base.with_topology(1, 4).with_flat_stealing(),
    ] {
        let (v2, o2) = run_with(c, 50, 80_000, 1_000);
        assert_eq!(v1, v2);
        assert_eq!(o1.elapsed, o2.elapsed);
        assert_eq!(o1.stats, o2.stats);
        assert_eq!(o1.tracer.merged(), o2.tracer.merged());
    }
    assert_eq!(o1.stats.steal_remote, 0);
    assert_eq!(o1.stats.remote_words, 0);
    assert_eq!(o1.stats.steal_local, o1.stats.sparks_stolen);
}

/// A cluster topology changes spark *pricing*, never spark
/// *semantics*: the value is unchanged, local/remote steals partition
/// the total, and every remote steal puts envelope-bearing words on
/// the inter-node links.
#[test]
fn cluster_stealing_preserves_results_and_partitions_steals() {
    let c = GphConfig::ghc69_plain(8)
        .with_work_stealing()
        .with_topology(2, 4)
        .without_trace();
    let (v, o) = run_with(c, 96, 150_000, 500);
    assert_eq!(v, expected(96));
    assert_eq!(
        o.stats.steal_local + o.stats.steal_remote,
        o.stats.sparks_stolen,
        "{:?}",
        o.stats
    );
    assert!(o.stats.steal_remote > 0, "{:?}", o.stats);
    assert!(o.stats.remote_words > 0, "{:?}", o.stats);
}

/// The tentpole's ablation gate at test granularity: against the same
/// two-node machine, hierarchical stealing (local-first sweeps, batched
/// remote steals) must need fewer remote steal operations and put
/// fewer words on the inter-node links than flat single-spark
/// stealing — batches amortise the per-message envelope.
#[test]
fn hierarchical_stealing_cuts_remote_traffic_vs_flat() {
    let hier = GphConfig::ghc69_plain(8)
        .with_work_stealing()
        .with_topology(2, 4)
        .without_trace();
    let flat = hier.clone().with_flat_stealing();
    let (vh, oh) = run_with(hier, 96, 150_000, 500);
    let (vf, of_) = run_with(flat, 96, 150_000, 500);
    assert_eq!(vh, vf);
    assert!(of_.stats.steal_remote > 0, "flat: {:?}", of_.stats);
    assert!(
        oh.stats.steal_remote < of_.stats.steal_remote,
        "hier {:?} !< flat {:?}",
        oh.stats.steal_remote,
        of_.stats.steal_remote
    );
    assert!(
        oh.stats.remote_words < of_.stats.remote_words,
        "hier {:?} !< flat {:?}",
        oh.stats.remote_words,
        of_.stats.remote_words
    );
}

/// FNV-1a over everything written to it, so a run's `Debug` output can
/// be digested without building the string.
struct Fnv1a(u64);

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// Digest of everything a run produced: result, makespan, counters and
/// the merged trace.
fn run_digest(config: GphConfig, n: i64, cost: u64, alloc: u64) -> u64 {
    let (v, out) = run_with(config, n, cost, alloc);
    assert_eq!(v, expected(n));
    digest(v, &out)
}

fn digest(v: i64, out: &crate::runtime::RunOutcome) -> u64 {
    use std::fmt::Write;
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    write!(
        h,
        "{v} {} {:?} {:?}",
        out.elapsed,
        out.stats,
        out.tracer.merged()
    )
    .expect("infallible");
    h.0
}

/// Golden digests, recorded on the commit before the event loop's
/// O(caps) pick scan became [`rph_sim::EarliestIndex`]. The
/// determinism tests above compare two runs of one build, so they
/// cannot see a change of pick order; these can, at capability counts
/// (64, 256, one that is not a power of two) the rest of the suite
/// does not reach. A deliberate change to the cost model or the
/// scheduler re-records them; a change that claims to be a pure
/// simulator speed-up must not.
#[test]
fn golden_digests_pin_the_pick_order() {
    let stealing = |caps| {
        GphConfig::ghc69_plain(caps)
            .with_improved_gc_sync()
            .with_work_stealing()
    };
    let mut push = GphConfig::ghc69_plain(8);
    push.spark_policy = SparkPolicy::Push;
    // A nursery small enough that promotion grows the old generation
    // into parallel major collections (grey-stack stealing included).
    let mut tiny = stealing(5).with_per_cap_nurseries().with_thread_stealing();
    tiny.alloc_area_words = 2_048;
    // (name, config, items, cost per item, words per item, digest)
    let cases = [
        (
            "64 caps, stop-the-world",
            stealing(64),
            (600, 40_000, 60_000),
            0x6de6_2ccb_4245_c6b4u64,
        ),
        (
            "256 caps as 32x8, per-cap nurseries",
            stealing(256).with_per_cap_nurseries().with_topology(32, 8),
            (600, 40_000, 12_000),
            0x917c_1dbf_4bab_c727,
        ),
        (
            "8 caps, push, eager black-holing",
            push.with_eager_blackholing(),
            (600, 40_000, 12_000),
            0x0c35_e8e5_b2a0_373c,
        ),
        (
            "5 caps, tiny per-cap nurseries, thread stealing",
            tiny,
            (600, 40_000, 3_000),
            0xbe6f_77ff_8d23_2d62,
        ),
    ];
    let mismatches: Vec<String> = cases
        .into_iter()
        .filter_map(|(name, config, (n, cost, alloc), want)| {
            let got = run_digest(config, n, cost, alloc);
            (got != want).then(|| format!("{name}: {got:#018x}, recorded {want:#018x}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}

/// A grid of row-step thunks shaped like GpH APSP: step `(i, k)` is
/// `relax (i, k-1) (k, k-1) k`, so every row of step `k` shares the
/// pivot thunk `(k, k-1)`; one spark per final row. Returns the sum of
/// the final rows and the run.
fn pivot_grid(config: GphConfig, n: usize) -> (i64, crate::runtime::RunOutcome) {
    let relax_fn = |a: i64, p: i64, k: i64| a.min(p + k);
    let mut b = ProgramBuilder::new();
    let pre = prelude::install(&mut b);
    let relax = b.kernel("relax", 3, move |heap, args| {
        let [a, p, k] = [0, 1, 2].map(|i| heap.expect_value(args[i]).expect_int());
        KernelOut {
            result: heap.alloc_value(Value::Int(relax_fn(a, p, k))),
            cost: 60_000,
            transient_words: 400,
        }
    });
    let main = b.def(
        "main",
        1,
        seq(app(pre.spark_list, vec![v(0)]), app(pre.sum, vec![v(0)])),
    );
    let start = |i: usize| ((i * 37) % 101) as i64;
    let mut rt = GphRuntime::new(b.build(), config);
    let out = rt
        .run(|heap| {
            let mut step: Vec<NodeRef> = (0..n).map(|i| heap.int(start(i))).collect();
            for k in 1..=n {
                let kn = heap.int(k as i64);
                let pivot = step[k - 1];
                for (i, slot) in step.iter_mut().enumerate() {
                    if i != k - 1 {
                        *slot = heap.alloc_thunk(relax, vec![*slot, pivot, kn]);
                    }
                }
            }
            let finals = step
                .iter()
                .rev()
                .fold(heap.alloc_value(Value::Nil), |tail, &r| {
                    heap.alloc_value(Value::Cons(r, tail))
                });
            heap.alloc_thunk(main, vec![finals])
        })
        .expect("run failed");
    let mut rows: Vec<i64> = (0..n).map(start).collect();
    for k in 1..=n {
        let pivot = rows[k - 1];
        for (i, r) in rows.iter_mut().enumerate() {
            if i != k - 1 {
                *r = relax_fn(*r, pivot, k as i64);
            }
        }
    }
    let v = rt.heap().expect_value(out.result).expect_int();
    assert_eq!(v, rows.iter().sum::<i64>());
    (v, out)
}

/// Every task forces one shared 2 ms thunk before its own 1 ms of
/// work (so the post-wake work is what can be spread). Under eager
/// black-holing all of them block on it, and its update wakes the
/// whole batch onto the updater's run queue at once — the case in
/// which `balance_threads` has surplus threads to place.
fn woken_batch(config: GphConfig, tasks: i64) -> (i64, crate::runtime::RunOutcome) {
    let mut b = ProgramBuilder::new();
    let pre = prelude::install(&mut b);
    let kernel = |b: &mut ProgramBuilder, name: &str, add: i64, cost: u64| {
        b.kernel(name, 1, move |heap, args| {
            let x = heap.expect_value(args[0]).expect_int();
            KernelOut {
                result: heap.alloc_value(Value::Int(x + add)),
                cost,
                transient_words: 100,
            }
        })
    };
    let heavy = kernel(&mut b, "heavy", 100, 2_000_000);
    let own = kernel(&mut b, "own", 0, 1_000_000);
    // task s i = s + own i
    let task = b.def(
        "task",
        2,
        let_(
            vec![thunk(own, vec![v(1)])],
            prim(rph_machine::PrimOp::Add, vec![v(0), v(2)]),
        ),
    );
    let main = b.def(
        "main",
        1,
        let_(
            vec![
                thunk(heavy, vec![int(1)]),
                pap(task, vec![v(1)]),
                thunk(pre.enum_from_to, vec![int(1), v(0)]),
                thunk(pre.map, vec![v(2), v(3)]),
                thunk(pre.spark_list, vec![v(4)]),
            ],
            seq(atom(v(5)), app(pre.sum, vec![v(4)])),
        ),
    );
    let mut rt = GphRuntime::new(b.build(), config);
    let out = rt
        .run(|heap| {
            let k = heap.int(tasks);
            heap.alloc_thunk(main, vec![k])
        })
        .expect("run failed");
    let v = rt.heap().expect_value(out.result).expect_int();
    assert_eq!(v, (1..=tasks).map(|i| 101 + i).sum::<i64>());
    (v, out)
}

/// Golden digests, recorded on the commit before slices ran the
/// installed thread in place and thunk arguments moved inline: the
/// paths the four digests above do not reach. Shared pivots under lazy
/// black-holing (duplicate evaluation: the same thunk claimed, its
/// arguments read and its kernel called more than once), the same grid
/// under eager black-holing (threads block and are woken), and a
/// thread-per-spark push run in which an update wakes a batch of
/// threads, so `balance_threads` runs right after a slice with more
/// than one thread queued — where it must keep exactly one.
#[test]
fn golden_digests_pin_duplicates_blocks_and_thread_balancing() {
    let full = GphConfig::fig1_ladder(8)[3].1.clone();
    let mut mismatches = Vec::new();
    let mut check = |name: &str, (v, out): (i64, crate::runtime::RunOutcome), want: u64| {
        let got = digest(v, &out);
        if got != want {
            mismatches.push(format!("{name}: {got:#018x}, recorded {want:#018x}"));
        }
        out.stats
    };

    let lazy = check(
        "8 caps, pivot grid, lazy black-holing",
        pivot_grid(full.clone(), 40),
        0x1c5a_6ec7_057c_f637,
    );
    assert!(lazy.duplicate_evals > 0, "{lazy:?}");
    let eager = check(
        "8 caps, pivot grid, eager black-holing",
        pivot_grid(full.with_eager_blackholing(), 40),
        0x6cf3_bdfd_81e6_b75d,
    );
    assert_eq!(eager.duplicate_evals, 0);
    assert!(eager.blackhole_blocks > 0, "{eager:?}");

    let mut push = GphConfig::ghc69_plain(8)
        .with_big_alloc_area()
        .with_eager_blackholing();
    assert_eq!(push.spark_policy, SparkPolicy::Push);
    push.spark_exec = SparkExec::ThreadPerSpark;
    let pushed = check(
        "8 caps, push, woken batch",
        woken_batch(push, 24),
        0x71b6_5d03_9445_1a49,
    );
    assert!(pushed.blackhole_blocks > 1, "{pushed:?}");
    assert!(pushed.threads_migrated > 0, "{pushed:?}");

    assert!(mismatches.is_empty(), "{mismatches:#?}");
}
