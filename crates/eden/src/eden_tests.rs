//! End-to-end tests of the Eden runtime and its skeletons.

use crate::channel::{CommMode, Endpoint};
use crate::config::EdenConfig;
use crate::runtime::{EdenRuntime, ProcSpec};
use crate::skeletons::{self, list_of};
use crate::support::{install_support, EdenSupport};
use rph_heap::{NodeRef, ScId, Value};
use rph_machine::ir::*;
use rph_machine::prelude::{self, Prelude};
use rph_machine::program::{KernelOut, Program, ProgramBuilder};
use rph_machine::reference::read_int_list;
use std::sync::Arc;

struct Fix {
    program: Arc<Program>,
    support: EdenSupport,
    pre: Prelude,
    /// square x = x² (kernel, 50 µs, some churn)
    square: ScId,
    /// mapSquare ts = map square ts
    map_square: ScId,
    /// sumList xs = sum xs
    sum_list: ScId,
}

fn fix() -> Fix {
    let mut b = ProgramBuilder::new();
    let pre = prelude::install(&mut b);
    let support = install_support(&mut b);
    let square = b.kernel("square", 1, |heap, args| {
        let x = heap.expect_value(args[0]).expect_int();
        KernelOut {
            result: heap.alloc_value(Value::Int(x * x)),
            cost: 300_000,
            transient_words: 1_000,
        }
    });
    let map_square = b.def(
        "mapSquare",
        1,
        let_(vec![pap(square, vec![])], app(pre.map, vec![v(1), v(0)])),
    );
    let sum_list = b.def("sumList", 1, app(pre.sum, vec![v(0)]));
    Fix {
        program: b.build(),
        support,
        pre,
        square,
        map_square,
        sum_list,
    }
}

fn ints(rt: &mut EdenRuntime, xs: &[i64]) -> Vec<NodeRef> {
    xs.iter().map(|&x| rt.heap_mut(0).int(x)).collect()
}

#[test]
fn spawn_roundtrip_single_value() {
    let f = fix();
    let mut rt = EdenRuntime::new(
        f.program.clone(),
        f.support,
        EdenConfig::new(2).without_trace(),
    );
    let (out_chan, out_node) = rt.new_channel(0, CommMode::Single);
    let in_chan = rt.fresh_chan();
    rt.spawn(
        1,
        ProcSpec {
            f: f.square,
            inputs: vec![(in_chan, CommMode::Single)],
            outputs: vec![(
                CommMode::Single,
                Endpoint {
                    pe: 0,
                    chan: out_chan,
                },
            )],
        },
    );
    let x = rt.heap_mut(0).int(7);
    rt.send_value_from(
        0,
        Endpoint {
            pe: 1,
            chan: in_chan,
        },
        x,
        CommMode::Single,
    );
    let out = rt.run(out_node).unwrap();
    assert_eq!(rt.heap(0).expect_value(out.result).expect_int(), 49);
    assert!(out.stats.processes == 1);
    assert!(out.stats.messages >= 3, "spawn + input + output");
    assert!(out.elapsed > 0);
}

#[test]
fn par_map_computes_in_order() {
    let f = fix();
    let mut rt = EdenRuntime::new(
        f.program.clone(),
        f.support,
        EdenConfig::new(4).without_trace(),
    );
    let inputs = ints(&mut rt, &[1, 2, 3, 4, 5, 6, 7, 8]);
    let outs = skeletons::par_map(&mut rt, f.square, &inputs);
    // Consume: sum the output list via an IR thunk on PE 0.
    let list = list_of(rt.heap_mut(0), &outs);
    let entry = rt.heap_mut(0).alloc_thunk(f.pre.sum, vec![list]);
    let out = rt.run(entry).unwrap();
    let expect: i64 = (1..=8).map(|x| x * x).sum();
    assert_eq!(rt.heap(0).expect_value(out.result).expect_int(), expect);
    assert_eq!(out.stats.processes, 8);
}

#[test]
fn par_map_fold_sums_partials() {
    let f = fix();
    let mut rt = EdenRuntime::new(
        f.program.clone(),
        f.support,
        EdenConfig::new(4).without_trace(),
    );
    let inputs = ints(&mut rt, &[3, 4, 5]);
    let entry = skeletons::par_map_fold(&mut rt, f.square, f.sum_list, &inputs);
    let out = rt.run(entry).unwrap();
    assert_eq!(
        rt.heap(0).expect_value(out.result).expect_int(),
        9 + 16 + 25
    );
}

#[test]
fn parallel_speedup_over_one_pe() {
    let f = fix();
    let work: Vec<i64> = (1..=16).collect();

    let mut rt1 = EdenRuntime::new(
        f.program.clone(),
        f.support,
        EdenConfig::new(1).without_trace(),
    );
    let inputs = ints(&mut rt1, &work);
    let entry = skeletons::par_map_fold(&mut rt1, f.square, f.sum_list, &inputs);
    let o1 = rt1.run(entry).unwrap();

    let mut rt8 = EdenRuntime::new(
        f.program.clone(),
        f.support,
        EdenConfig::new(8).without_trace(),
    );
    let inputs = ints(&mut rt8, &work);
    let entry = skeletons::par_map_fold(&mut rt8, f.square, f.sum_list, &inputs);
    let o8 = rt8.run(entry).unwrap();

    assert_eq!(
        rt1.heap(0).expect_value(o1.result).expect_int(),
        rt8.heap(0).expect_value(o8.result).expect_int()
    );
    let speedup = o1.elapsed as f64 / o8.elapsed as f64;
    assert!(speedup > 3.0, "8-PE speedup only {speedup:.2}");
}

#[test]
fn master_worker_dynamic_balancing() {
    let f = fix();
    let mut rt = EdenRuntime::new(
        f.program.clone(),
        f.support,
        EdenConfig::new(4).without_trace(),
    );
    let tasks = ints(&mut rt, &(1..=20).collect::<Vec<_>>());
    let result = skeletons::master_worker(&mut rt, f.map_square, 3, 2, &tasks);
    // Force the whole result list: sum it.
    let entry = rt.heap_mut(0).alloc_thunk(f.pre.sum, vec![result]);
    let out = rt.run(entry).unwrap();
    let expect: i64 = (1..=20).map(|x| x * x).sum();
    assert_eq!(rt.heap(0).expect_value(out.result).expect_int(), expect);
    assert_eq!(out.stats.processes, 3);
}

#[test]
fn master_worker_single_worker_order_preserved() {
    let f = fix();
    let mut rt = EdenRuntime::new(
        f.program.clone(),
        f.support,
        EdenConfig::new(2).without_trace(),
    );
    let tasks = ints(&mut rt, &[1, 2, 3, 4]);
    let result = skeletons::master_worker(&mut rt, f.map_square, 1, 1, &tasks);
    let entry = rt.heap_mut(0).alloc_thunk(f.pre.deep_seq, vec![result]);
    let out = rt.run(entry).unwrap();
    assert_eq!(read_int_list(rt.heap(0), out.result), vec![1, 4, 9, 16]);
}

/// Ring of 4: each node sends its input around; after n−1 hops every
/// node has seen every input. Output of node k = sum of all inputs.
#[test]
fn ring_circulates_all_inputs() {
    const N: i64 = 4;
    let mut b = ProgramBuilder::new();
    let pre = prelude::install(&mut b);
    let support = install_support(&mut b);
    // ringNode input ringIn =
    //   ( input + sum (take (N-1) ringIn)
    //   , input : take (N-2) ringIn )
    // frame: [input, ringIn]
    let ring_node = b.def(
        "ringNode",
        2,
        let_(
            vec![
                thunk(pre.take, vec![int(N - 2), v(1)]), // [2] fwd
                LetRhs::Cons(v(0), v(2)),                // [3] ringOut
                thunk(pre.take, vec![int(N - 1), v(1)]), // [4] recv
                thunk(pre.sum, vec![v(4)]),              // [5]
                thunk(pre.add, vec![v(0), v(5)]),        // [6] output
                LetRhs::Tuple(vec![v(6), v(3)]),         // [7]
            ],
            atom(v(7)),
        ),
    );
    let program = b.build();
    let mut rt = EdenRuntime::new(program, support, EdenConfig::new(4).without_trace());
    let inputs = ints(&mut rt, &[10, 20, 30, 40]);
    let outs = skeletons::ring(&mut rt, ring_node, &inputs);
    let pre_sum = rt.heap_mut(0);
    let list = list_of(pre_sum, &outs);
    let entry = pre_sum.alloc_thunk(pre.sum, vec![list]);
    let out = rt.run(entry).unwrap();
    // Each of the 4 outputs is 100, so the total is 400.
    assert_eq!(rt.heap(0).expect_value(out.result).expect_int(), 400);
}

/// 2×2 torus: each node's result = init + first row-in + first col-in;
/// each node emits its init on both its row and column streams.
#[test]
fn torus_neighbours_exchange() {
    let mut b = ProgramBuilder::new();
    let pre = prelude::install(&mut b);
    let support = install_support(&mut b);
    // torusNode init rowIn colIn =
    //   ( init + sum (take 1 rowIn) + sum (take 1 colIn)
    //   , [init], [init] )
    // frame: [init, rowIn, colIn]
    let torus_node = b.def(
        "torusNode",
        3,
        let_(
            vec![
                LetRhs::Nil,                            // [3]
                LetRhs::Cons(v(0), v(3)),               // [4] rowOut
                LetRhs::Cons(v(0), v(3)),               // [5] colOut
                thunk(pre.take, vec![int(1), v(1)]),    // [6]
                thunk(pre.take, vec![int(1), v(2)]),    // [7]
                thunk(pre.sum, vec![v(6)]),             // [8]
                thunk(pre.sum, vec![v(7)]),             // [9]
                thunk(pre.add, vec![v(0), v(8)]),       // [10]
                thunk(pre.add, vec![v(10), v(9)]),      // [11] result
                LetRhs::Tuple(vec![v(11), v(4), v(5)]), // [12]
            ],
            atom(v(12)),
        ),
    );
    let program = b.build();
    let mut rt = EdenRuntime::new(program, support, EdenConfig::new(4).without_trace());
    // inits row-major: (0,0)=1 (0,1)=2 (1,0)=3 (1,1)=4
    let inits = ints(&mut rt, &[1, 2, 3, 4]);
    let outs = skeletons::torus(&mut rt, torus_node, 2, &inits);
    let heap = rt.heap_mut(0);
    let list = list_of(heap, &outs);
    let entry = heap.alloc_thunk(pre.deep_seq, vec![list]);
    let out = rt.run(entry).unwrap();
    // rowIn of (i,j) comes from (i, j+1); colIn from (i+1, j).
    // (0,0): 1 + 2 + 3 = 6;  (0,1): 2 + 1 + 4 = 7
    // (1,0): 3 + 4 + 1 = 8;  (1,1): 4 + 3 + 2 = 9
    assert_eq!(read_int_list(rt.heap(0), out.result), vec![6, 7, 8, 9]);
}

#[test]
fn oversubscription_more_pes_than_cores_works() {
    let f = fix();
    let work: Vec<i64> = (1..=17).collect();
    let mut rt = EdenRuntime::new(
        f.program.clone(),
        f.support,
        EdenConfig::oversubscribed(17, 8).without_trace(),
    );
    let inputs = ints(&mut rt, &work);
    let entry = skeletons::par_map_fold(&mut rt, f.square, f.sum_list, &inputs);
    let out = rt.run(entry).unwrap();
    let expect: i64 = work.iter().map(|x| x * x).sum();
    assert_eq!(rt.heap(0).expect_value(out.result).expect_int(), expect);
    assert_eq!(out.stats.processes, 17);
}

#[test]
fn determinism() {
    let f = fix();
    let run = || {
        let mut rt = EdenRuntime::new(
            f.program.clone(),
            f.support,
            EdenConfig::new(4).without_trace(),
        );
        let inputs = ints(&mut rt, &[1, 2, 3, 4, 5, 6]);
        let entry = skeletons::par_map_fold(&mut rt, f.square, f.sum_list, &inputs);
        let out = rt.run(entry).unwrap();
        (
            rt.heap(0).expect_value(out.result).expect_int(),
            out.elapsed,
            out.stats,
        )
    };
    let (v1, t1, s1) = run();
    let (v2, t2, s2) = run();
    assert_eq!(v1, v2);
    assert_eq!(t1, t2);
    assert_eq!(s1, s2);
}

#[test]
fn local_gcs_happen_independently() {
    // Heavy transient allocation on workers forces local GCs; the run
    // still completes and collects real garbage.
    let mut b = ProgramBuilder::new();
    let pre = prelude::install(&mut b);
    let support = install_support(&mut b);
    let churn = b.kernel("churn", 1, |heap, args| {
        let x = heap.expect_value(args[0]).expect_int();
        KernelOut {
            result: heap.alloc_value(Value::Int(x)),
            cost: 100_000,
            transient_words: 200_000, // ~3 nursery loads
        }
    });
    let sum_list = b.def("sumL", 1, app(pre.sum, vec![v(0)]));
    let program = b.build();
    let mut rt = EdenRuntime::new(program, support, EdenConfig::new(4).without_trace());
    let inputs = ints(&mut rt, &(1..=8).collect::<Vec<_>>());
    let entry = skeletons::par_map_fold(&mut rt, churn, sum_list, &inputs);
    let out = rt.run(entry).unwrap();
    assert_eq!(rt.heap(0).expect_value(out.result).expect_int(), 36);
    assert!(out.stats.local_gcs > 0, "expected local collections");
}

#[test]
fn deadlock_is_reported_not_hung() {
    let f = fix();
    let mut rt = EdenRuntime::new(
        f.program.clone(),
        f.support,
        EdenConfig::new(2).without_trace(),
    );
    // A channel nobody ever sends to: main blocks forever.
    let (_chan, node) = rt.new_channel(0, CommMode::Single);
    let err = rt.run(node).unwrap_err();
    assert!(err.contains("deadlock"), "got: {err}");
}

#[test]
fn trace_records_messages_and_states() {
    let f = fix();
    let mut rt = EdenRuntime::new(f.program.clone(), f.support, EdenConfig::new(2));
    let inputs = ints(&mut rt, &[5]);
    let entry = skeletons::par_map_fold(&mut rt, f.square, f.sum_list, &inputs);
    let out = rt.run(entry).unwrap();
    let tl = rph_trace::Timeline::from_tracer(&out.tracer);
    tl.check_well_formed().unwrap();
    let counters = rph_trace::Counters::from_tracer(&out.tracer);
    assert!(counters.messages_sent >= 3);
    assert_eq!(counters.processes_instantiated, 1);
}

#[test]
fn par_reduce_folds_remotely() {
    // parReduce (+) 0 over pre-split sublists.
    let mut b = ProgramBuilder::new();
    let pre = prelude::install(&mut b);
    let support = install_support(&mut b);
    let sum_list = b.def("sumL", 1, app(pre.sum, vec![v(0)]));
    let program = b.build();
    let mut rt = EdenRuntime::new(program, support, EdenConfig::new(3).without_trace());
    let sublists: Vec<NodeRef> = [
        (1..=10).collect::<Vec<i64>>(),
        (11..=20).collect(),
        (21..=30).collect(),
    ]
    .iter()
    .map(|xs| {
        let heap = rt.heap_mut(0);
        rph_machine::reference::alloc_int_list(heap, xs)
    })
    .collect();
    let entry = skeletons::par_reduce(&mut rt, sum_list, sum_list, &sublists);
    let out = rt.run(entry).unwrap();
    assert_eq!(
        rt.heap(0).expect_value(out.result).expect_int(),
        (1..=30).sum::<i64>()
    );
    assert_eq!(out.stats.processes, 3);
}

/// The single-node topology is the pre-topology runtime by
/// construction: an explicit `with_topology(1, pes)` replays the
/// default config bit for bit — value, virtual makespan, counters and
/// merged trace — and records zero inter-node traffic.
#[test]
fn single_node_topology_is_bit_identical_to_default() {
    let f = fix();
    let run = |cfg: EdenConfig| {
        let mut rt = EdenRuntime::new(f.program.clone(), f.support, cfg);
        let inputs = ints(&mut rt, &[1, 2, 3, 4, 5, 6]);
        let entry = skeletons::par_map_fold(&mut rt, f.square, f.sum_list, &inputs);
        let out = rt.run(entry).unwrap();
        (
            rt.heap(0).expect_value(out.result).expect_int(),
            out.elapsed,
            out.stats,
            out.tracer.merged(),
        )
    };
    let base = run(EdenConfig::new(4));
    let topo = run(EdenConfig::new(4).with_topology(1, 4));
    assert_eq!(base, topo);
    assert_eq!(base.2.remote_messages, 0);
    assert_eq!(base.2.remote_words, 0);
}

/// A two-node cluster reprices the farm's channel traffic: the value
/// is unchanged, cross-node packets land in the remote counters with
/// their per-message envelope, and the inter-node latency lengthens
/// the makespan.
#[test]
fn cluster_topology_prices_inter_node_messages() {
    let f = fix();
    let run = |cfg: EdenConfig| {
        let mut rt = EdenRuntime::new(f.program.clone(), f.support, cfg.without_trace());
        let inputs = ints(&mut rt, &[1, 2, 3, 4, 5, 6]);
        let entry = skeletons::par_map_fold(&mut rt, f.square, f.sum_list, &inputs);
        let out = rt.run(entry).unwrap();
        (
            rt.heap(0).expect_value(out.result).expect_int(),
            out.elapsed,
            out.stats,
        )
    };
    let flat = run(EdenConfig::new(4));
    let clus = run(EdenConfig::new(4).with_topology(2, 2));
    assert_eq!(flat.0, clus.0);
    assert!(clus.2.remote_messages > 0, "{:?}", clus.2);
    assert!(clus.2.remote_messages < clus.2.messages, "{:?}", clus.2);
    // Every remote message carries its payload plus the envelope.
    assert!(clus.2.remote_words > clus.2.remote_messages, "{:?}", clus.2);
    assert!(
        clus.1 > flat.1,
        "inter-node links must lengthen the makespan: {} !> {}",
        clus.1,
        flat.1
    );
}

/// Message transport is FIFO per PE pair (the PVM guarantee). On an
/// inter-node link the bandwidth term would otherwise let a tiny
/// stream element — or the end-of-stream marker — overtake a large
/// element sent just before it, corrupting the stream channel.
#[test]
fn inter_node_streams_preserve_send_order() {
    let f = fix();
    let mut rt = EdenRuntime::new(
        f.program.clone(),
        f.support,
        EdenConfig::new(2).with_topology(2, 1).without_trace(),
    );
    let (chan, stream) = rt.new_channel(0, CommMode::Stream);
    let heap = rt.heap_mut(1);
    let big: Vec<NodeRef> = (0..2_000).map(|i| heap.int(i)).collect();
    let big_list = list_of(heap, &big);
    let seven = heap.int(7);
    let small_list = list_of(heap, &[seven]);
    let elems = list_of(heap, &[big_list, small_list]);
    rt.send_value_from(1, Endpoint { pe: 0, chan }, elems, CommMode::Stream);
    // Force the whole stream: sum (map sumList stream).
    let heap = rt.heap_mut(0);
    let summer = heap.alloc_value(Value::Pap {
        sc: f.sum_list,
        args: Box::new([]),
    });
    let mapped = heap.alloc_thunk(f.pre.map, vec![summer, stream]);
    let entry = heap.alloc_thunk(f.pre.sum, vec![mapped]);
    let out = rt.run(entry).unwrap();
    assert_eq!(
        rt.heap(0).expect_value(out.result).expect_int(),
        (0..2_000).sum::<i64>() + 7
    );
    // The first element must still be the large one.
    let heap = rt.heap(0);
    let Value::Cons(first, _) = heap.expect_value(stream) else {
        panic!("stream did not materialise");
    };
    assert_eq!(read_int_list(heap, *first).len(), 2_000);
}

/// FNV-1a digest of everything a run produced: result, makespan,
/// counters and the merged trace.
fn run_digest(rt: &EdenRuntime, out: &crate::runtime::RunOutcome) -> u64 {
    let v = rt.heap(0).expect_value(out.result).expect_int();
    format!(
        "{v} {} {:?} {:?}",
        out.elapsed,
        out.stats,
        out.tracer.merged()
    )
    .bytes()
    .fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Golden digests, recorded on the commit before `run_current_slice`
/// ran the installed thread in place (the GpH suite's
/// `golden_digests_*`, for this runtime). Both runs put several
/// threads on a PE and allocate enough to cross checkpoints and local
/// collections, so every arm of the slice epilogue is taken: stay
/// installed, rotate behind a non-empty run queue, block, finish.
#[test]
fn golden_digests_pin_slice_scheduling() {
    const N: i64 = 4;
    let mut b = ProgramBuilder::new();
    let pre = prelude::install(&mut b);
    let support = install_support(&mut b);
    let churn = b.kernel("churn", 1, |heap, args| {
        let x = heap.expect_value(args[0]).expect_int();
        KernelOut {
            result: heap.alloc_value(Value::Int(x * x)),
            cost: 300_000,
            transient_words: 60_000,
        }
    });
    // ringNode input ringIn =
    //   ( sum (map churn (input : take (N-1) ringIn))
    //   , input : take (N-2) ringIn )
    // frame: [input, ringIn]
    let ring_node = b.def(
        "ringNode",
        2,
        let_(
            vec![
                thunk(pre.take, vec![int(N - 2), v(1)]), // [2] fwd
                LetRhs::Cons(v(0), v(2)),                // [3] ringOut
                thunk(pre.take, vec![int(N - 1), v(1)]), // [4] recv
                LetRhs::Cons(v(0), v(4)),                // [5] all inputs
                pap(churn, vec![]),                      // [6]
                thunk(pre.map, vec![v(6), v(5)]),        // [7]
                thunk(pre.sum, vec![v(7)]),              // [8] output
                LetRhs::Tuple(vec![v(8), v(3)]),         // [9]
            ],
            atom(v(9)),
        ),
    );
    let sum_list = b.def("sumList", 1, app(pre.sum, vec![v(0)]));
    let program = b.build();
    let mut mismatches = Vec::new();
    let mut check = |name: &str, rt: &EdenRuntime, out: crate::runtime::RunOutcome, want: u64| {
        let got = run_digest(rt, &out);
        if got != want {
            mismatches.push(format!("{name}: {got:#018x}, recorded {want:#018x}"));
        }
        out.stats
    };

    let mut rt = EdenRuntime::new(program.clone(), support, EdenConfig::new(4));
    let inputs = ints(&mut rt, &[10, 20, 30, 40]);
    let outs = skeletons::ring(&mut rt, ring_node, &inputs);
    let list = list_of(rt.heap_mut(0), &outs);
    let entry = rt.heap_mut(0).alloc_thunk(pre.sum, vec![list]);
    let out = rt.run(entry).unwrap();
    assert_eq!(
        rt.heap(0).expect_value(out.result).expect_int(),
        4 * (100 + 400 + 900 + 1600)
    );
    let ring = check("ring of 4 PEs", &rt, out, 0x6681_8532_7b42_d07f);
    assert!(ring.local_gcs > 0 && ring.blackhole_blocks > 0, "{ring:?}");

    let mut rt = EdenRuntime::new(program, support, EdenConfig::oversubscribed(5, 4));
    let work: Vec<i64> = (1..=12).collect();
    let inputs = ints(&mut rt, &work);
    let entry = skeletons::par_map_fold(&mut rt, churn, sum_list, &inputs);
    let out = rt.run(entry).unwrap();
    assert_eq!(
        rt.heap(0).expect_value(out.result).expect_int(),
        work.iter().map(|x| x * x).sum::<i64>()
    );
    let over = check("5 PEs on 4 cores", &rt, out, 0x4ff1_d9c6_ca28_8a84);
    assert!(over.local_gcs > 0, "{over:?}");

    assert!(mismatches.is_empty(), "{mismatches:#?}");
}
