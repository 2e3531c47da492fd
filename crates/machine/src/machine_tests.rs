//! Tests for the explicit-state machine: semantics (against the
//! reference interpreter and Rust-computed oracles), laziness/sharing,
//! black-holing behaviour, spark collection, blocking and waking,
//! checkpointing, and GC-root reporting.

use crate::ir::*;
use crate::machine::{
    kernel_alloc_piece, Machine, MachineStatus, RunCtx, StopReason, KERNEL_PIECE,
};
use crate::prelude::{self, Prelude};
use crate::primop::PrimOp;
use crate::program::{KernelOut, Program, ProgramBuilder};
use crate::reference::{alloc_int_list, force_whnf, read_int_list, run_seq, run_seq_deep};
use rph_heap::gc::Collector;
use rph_heap::{AllocArea, Heap, NodeRef, Value};
use rph_trace::ThreadId;
use std::sync::Arc;

fn with_prelude() -> (Arc<Program>, Prelude) {
    let mut b = ProgramBuilder::new();
    let p = prelude::install(&mut b);
    (b.build(), p)
}

/// Drive one machine to completion (ignoring checkpoints), asserting no
/// blocking occurs.
fn drive(prog: &Program, heap: &mut Heap, m: &mut Machine) -> (NodeRef, u64) {
    let mut area = AllocArea::new(u64::MAX / 4, u64::MAX / 4);
    let mut total = 0;
    loop {
        let mut ctx = RunCtx::new(prog, heap, &mut area, true);
        let s = m.run(&mut ctx, 10_000);
        total += s.cost;
        match s.stop {
            StopReason::Finished(r) => return (r, total),
            StopReason::FuelExhausted | StopReason::Checkpoint | StopReason::Sparked => continue,
            other => panic!("unexpected stop: {other:?}"),
        }
    }
}

#[test]
fn machine_agrees_with_reference_on_prelude_pipelines() {
    let (prog, pre) = with_prelude();
    // For several (n, k): sum (concat (chunk k (map inc [1..n])))
    for (n, k) in [(0i64, 3i64), (1, 1), (10, 3), (25, 7), (100, 10)] {
        let build = |heap: &mut Heap| {
            let lo = heap.int(1);
            let hi = heap.int(n);
            let kk = heap.int(k);
            let xs = heap.alloc_thunk(pre.enum_from_to, vec![lo, hi]);
            let f = heap.alloc_value(Value::Pap {
                sc: pre.inc,
                args: Box::new([]),
            });
            let mapped = heap.alloc_thunk(pre.map, vec![f, xs]);
            let chunks = heap.alloc_thunk(pre.chunk, vec![kk, mapped]);
            let cat = heap.alloc_thunk(pre.concat, vec![chunks]);
            heap.alloc_thunk(pre.sum, vec![cat])
        };
        let expect: i64 = (1..=n).map(|x| x + 1).sum();

        let mut h1 = Heap::new();
        let e1 = build(&mut h1);
        let r1 = force_whnf(&prog, &mut h1, e1).unwrap();
        assert_eq!(
            h1.expect_value(r1).expect_int(),
            expect,
            "reference n={n} k={k}"
        );

        let mut h2 = Heap::new();
        let e2 = build(&mut h2);
        let mut m = Machine::enter(ThreadId(0), e2);
        let (r2, _) = drive(&prog, &mut h2, &mut m);
        assert_eq!(
            h2.expect_value(r2).expect_int(),
            expect,
            "machine n={n} k={k}"
        );
    }
}

#[test]
fn take_drop_zipwith_replicate_against_rust_oracle() {
    let (prog, pre) = with_prelude();
    for n in [0i64, 1, 5, 20] {
        for k in [0i64, 1, 3, 25] {
            let mut heap = Heap::new();
            let xs_data: Vec<i64> = (10..10 + n).collect();
            let xs = alloc_int_list(&mut heap, &xs_data);
            let kk = heap.int(k);
            let taken = heap.alloc_thunk(pre.take, vec![kk, xs]);
            let (r, _) = run_seq_deep(&prog, &mut heap, taken);
            let expect: Vec<i64> = xs_data.iter().copied().take(k.max(0) as usize).collect();
            assert_eq!(read_int_list(&heap, r), expect, "take {k} {n}");

            let mut heap = Heap::new();
            let xs = alloc_int_list(&mut heap, &xs_data);
            let kk = heap.int(k);
            let dropped = heap.alloc_thunk(pre.drop, vec![kk, xs]);
            let (r, _) = run_seq_deep(&prog, &mut heap, dropped);
            let expect: Vec<i64> = xs_data.iter().copied().skip(k.max(0) as usize).collect();
            assert_eq!(read_int_list(&heap, r), expect, "drop {k} {n}");
        }
    }

    // zipWith add [1..5] [10,20,30] == [11,22,33]
    let (prog, pre) = with_prelude();
    let mut heap = Heap::new();
    let a = alloc_int_list(&mut heap, &[1, 2, 3, 4, 5]);
    let b = alloc_int_list(&mut heap, &[10, 20, 30]);
    let f = heap.alloc_value(Value::Pap {
        sc: pre.add,
        args: Box::new([]),
    });
    let z = heap.alloc_thunk(pre.zip_with, vec![f, a, b]);
    let (r, _) = run_seq_deep(&prog, &mut heap, z);
    assert_eq!(read_int_list(&heap, r), vec![11, 22, 33]);

    // replicate 4 7
    let mut heap = Heap::new();
    let n = heap.int(4);
    let x = heap.int(7);
    let rep = heap.alloc_thunk(pre.replicate, vec![n, x]);
    let (r, _) = run_seq_deep(&prog, &mut heap, rep);
    assert_eq!(read_int_list(&heap, r), vec![7, 7, 7, 7]);

    // length [1..100] == 100, last [1..100] == 100
    let mut heap = Heap::new();
    let lo = heap.int(1);
    let hi = heap.int(100);
    let xs = heap.alloc_thunk(pre.enum_from_to, vec![lo, hi]);
    let len = heap.alloc_thunk(pre.length, vec![xs]);
    let (r, _) = run_seq(&prog, &mut heap, len);
    assert_eq!(heap.expect_value(r).expect_int(), 100);
}

#[test]
fn laziness_take_of_infinite_style_large_list() {
    // take 3 [1..10^9] must terminate quickly: only 3 cells forced.
    let (prog, pre) = with_prelude();
    let mut heap = Heap::new();
    let lo = heap.int(1);
    let hi = heap.int(1_000_000_000);
    let xs = heap.alloc_thunk(pre.enum_from_to, vec![lo, hi]);
    let k = heap.int(3);
    let t = heap.alloc_thunk(pre.take, vec![k, xs]);
    let (r, cost) = run_seq_deep(&prog, &mut heap, t);
    assert_eq!(read_int_list(&heap, r), vec![1, 2, 3]);
    assert!(cost < 10_000, "laziness violated: cost {cost}");
}

#[test]
fn sharing_thunk_evaluated_once() {
    // let x = expensive in x + x — the kernel must run exactly once.
    use std::sync::atomic::{AtomicU32, Ordering};
    static CALLS: AtomicU32 = AtomicU32::new(0);
    let mut b = ProgramBuilder::new();
    let _pre = prelude::install(&mut b);
    let expensive = b.kernel("expensive", 0, |heap, _| {
        CALLS.fetch_add(1, Ordering::SeqCst);
        KernelOut {
            result: heap.alloc_value(Value::Int(21)),
            cost: 1000,
            transient_words: 0,
        }
    });
    let main = b.def(
        "main",
        0,
        let_(
            vec![thunk(expensive, vec![])],
            prim(PrimOp::Add, vec![v(0), v(0)]),
        ),
    );
    let prog = b.build();
    let mut heap = Heap::new();
    let e = heap.alloc_thunk(main, vec![]);
    let (r, _) = run_seq(&prog, &mut heap, e);
    assert_eq!(heap.expect_value(r).expect_int(), 42);
    assert_eq!(CALLS.load(Ordering::SeqCst), 1, "thunk not shared");
}

#[test]
fn par_collects_sparks() {
    let (prog, pre) = with_prelude();
    let mut heap = Heap::new();
    let xs = alloc_int_list(&mut heap, &[1, 2, 3, 4]);
    let e = heap.alloc_thunk(pre.spark_list, vec![xs]);
    let mut area = AllocArea::new(u64::MAX / 4, u64::MAX / 4);
    let mut m = Machine::enter(ThreadId(0), e);
    let mut sparks = Vec::new();
    loop {
        let mut ctx = RunCtx::new(&prog, &mut heap, &mut area, true);
        let s = m.run(&mut ctx, u64::MAX / 4);
        sparks.extend(ctx.sparks);
        match s.stop {
            StopReason::Finished(r) => {
                assert_eq!(heap.expect_value(r), &Value::Unit);
                break;
            }
            StopReason::FuelExhausted | StopReason::Checkpoint | StopReason::Sparked => continue,
            other => panic!("{other:?}"),
        }
    }
    assert_eq!(sparks.len(), 4, "one spark per element");
    // The sparked nodes are the list elements.
    let vals: Vec<i64> = sparks
        .iter()
        .map(|r| heap.expect_value(*r).expect_int())
        .collect();
    assert_eq!(vals, vec![1, 2, 3, 4]);
}

#[test]
fn blocking_and_waking_on_blackhole() {
    // Thread B forces a thunk already claimed (eagerly) by thread A;
    // B must block; after A updates, B wakes and finishes.
    let mut b = ProgramBuilder::new();
    let _pre = prelude::install(&mut b);
    let slow = b.kernel("slow", 0, |heap, _| KernelOut {
        result: heap.alloc_value(Value::Int(7)),
        cost: 1_000_000,
        transient_words: 0,
    });
    let prog = b.build();
    let mut heap = Heap::new();
    let shared = heap.alloc_thunk(slow, vec![]);

    let mut area = AllocArea::new(u64::MAX / 4, u64::MAX / 4);
    let ma = Machine::enter(ThreadId(1), shared);
    let mut mb = Machine::enter(ThreadId(2), shared);

    // A takes one small-fuel slice: claims the thunk (blackholes it) but
    // cannot finish the 1M-cost kernel... kernels are atomic, so instead
    // interleave: A runs zero-fuel after claim is not possible — use a
    // two-stage thunk: claim happens on entry; the kernel runs in the
    // same slice. To get a window, run A with fuel so small the slice
    // ends exactly after the claim? Kernel cost is charged in one step,
    // so instead drive B first against a manually-claimed thunk.
    heap.claim_thunk(shared, true); // simulate A mid-evaluation
    let mut ctx = RunCtx::new(&prog, &mut heap, &mut area, true);
    let sb = mb.run(&mut ctx, 10_000);
    assert_eq!(sb.stop, StopReason::Blocked(shared));
    assert_eq!(mb.status(), MachineStatus::Blocked);
    heap.block_on(shared, mb.tid());

    // A finishes: compute the value and update.
    let result = heap.alloc_value(Value::Int(7));
    let rep = heap.update(shared, result);
    assert_eq!(rep.woken, vec![ThreadId(2)]);
    mb.wake();
    let mut ctx = RunCtx::new(&prog, &mut heap, &mut area, true);
    let sb2 = mb.run(&mut ctx, 10_000);
    assert_eq!(sb2.stop, StopReason::Finished(heap.resolve(shared)));
    let _ = ma; // A's machine not needed further
}

#[test]
fn lazy_blackholing_allows_duplicate_work_eager_prevents_it() {
    // Two machines force the same thunk under LAZY black-holing: both
    // run; the second update is detected as duplicate.
    let (prog, pre) = with_prelude();
    let make = |heap: &mut Heap| {
        let lo = heap.int(1);
        let hi = heap.int(30);
        let xs = heap.alloc_thunk(pre.enum_from_to, vec![lo, hi]);
        heap.alloc_thunk(pre.sum, vec![xs])
    };

    // Lazy: both enter Run.
    let mut heap = Heap::new();
    let shared = make(&mut heap);
    let mut area = AllocArea::new(u64::MAX / 4, u64::MAX / 4);
    let mut ma = Machine::enter(ThreadId(1), shared);
    let mut mb = Machine::enter(ThreadId(2), shared);
    // Interleave single small slices so both claim before either updates.
    let mut ctx = RunCtx::new(&prog, &mut heap, &mut area, false);
    let _ = ma.run(&mut ctx, 10);
    let mut ctx = RunCtx::new(&prog, &mut heap, &mut area, false);
    let _ = mb.run(&mut ctx, 10);
    assert_eq!(ma.status(), MachineStatus::Runnable);
    assert_eq!(mb.status(), MachineStatus::Runnable, "lazy BH: no blocking");
    // Drive both to completion; exactly one update is a duplicate.
    let mut dup = 0;
    for m in [&mut ma, &mut mb] {
        loop {
            let mut ctx = RunCtx::new(&prog, &mut heap, &mut area, false);
            let s = m.run(&mut ctx, 100_000);
            dup += ctx.duplicate_work.len();
            match s.stop {
                StopReason::Finished(r) => {
                    assert_eq!(heap.expect_value(r).expect_int(), 465);
                    break;
                }
                StopReason::FuelExhausted | StopReason::Checkpoint | StopReason::Sparked => {
                    continue
                }
                other => panic!("{other:?}"),
            }
        }
    }
    assert!(
        dup >= 1,
        "duplicate evaluation must be detected under lazy BH"
    );

    // Eager: the second machine blocks instead.
    let mut heap = Heap::new();
    let shared = make(&mut heap);
    let mut ma = Machine::enter(ThreadId(1), shared);
    let mut mb = Machine::enter(ThreadId(2), shared);
    let mut ctx = RunCtx::new(&prog, &mut heap, &mut area, true);
    let _ = ma.run(&mut ctx, 10);
    let mut ctx = RunCtx::new(&prog, &mut heap, &mut area, true);
    let sb = mb.run(&mut ctx, 10_000);
    assert!(
        matches!(sb.stop, StopReason::Blocked(_)),
        "eager BH: second forcer blocks"
    );
}

#[test]
fn blackhole_update_frames_marks_entered_thunks() {
    let (prog, pre) = with_prelude();
    let mut heap = Heap::new();
    let lo = heap.int(1);
    let hi = heap.int(1000);
    let xs = heap.alloc_thunk(pre.enum_from_to, vec![lo, hi]);
    let s = heap.alloc_thunk(pre.sum, vec![xs]);
    let mut area = AllocArea::new(u64::MAX / 4, u64::MAX / 4);
    let mut m = Machine::enter(ThreadId(0), s);
    let mut ctx = RunCtx::new(&prog, &mut heap, &mut area, false);
    let _ = m.run(&mut ctx, 500);
    // Under lazy BH nothing is black-holed yet; the context switch scan
    // marks the update-frame thunks.
    let marked = m.blackhole_update_frames(&mut heap);
    assert!(marked >= 1, "expected update frames to blackhole");
    // A second forcer now blocks instead of duplicating.
    let mut mb = Machine::enter(ThreadId(1), s);
    let mut ctx = RunCtx::new(&prog, &mut heap, &mut area, false);
    let sb = mb.run(&mut ctx, 10_000);
    assert!(matches!(sb.stop, StopReason::Blocked(_)));
}

#[test]
fn checkpoint_stops_slices() {
    let (prog, pre) = with_prelude();
    let mut heap = Heap::new();
    let lo = heap.int(1);
    let hi = heap.int(10_000);
    let xs = heap.alloc_thunk(pre.enum_from_to, vec![lo, hi]);
    let s = heap.alloc_thunk(pre.sum, vec![xs]);
    // Tiny checkpoint quantum: slices must end on Checkpoint often.
    let mut area = AllocArea::new(u64::MAX / 4, 64);
    let mut m = Machine::enter(ThreadId(0), s);
    let mut checkpoints = 0;
    loop {
        let mut ctx = RunCtx::new(&prog, &mut heap, &mut area, true);
        let sl = m.run(&mut ctx, u64::MAX / 4);
        match sl.stop {
            StopReason::Checkpoint => checkpoints += 1,
            StopReason::Finished(r) => {
                assert_eq!(heap.expect_value(r).expect_int(), 50_005_000);
                break;
            }
            other => panic!("{other:?}"),
        }
    }
    assert!(
        checkpoints > 10,
        "expected many checkpoints, got {checkpoints}"
    );
}

#[test]
fn machine_roots_keep_live_data_through_gc() {
    let (prog, pre) = with_prelude();
    let mut heap = Heap::new();
    let lo = heap.int(1);
    let hi = heap.int(500);
    let xs = heap.alloc_thunk(pre.enum_from_to, vec![lo, hi]);
    let s = heap.alloc_thunk(pre.sum, vec![xs]);
    let mut area = AllocArea::new(u64::MAX / 4, u64::MAX / 4);
    let mut m = Machine::enter(ThreadId(0), s);
    // Run a while, then GC with the machine's roots, then finish.
    let mut ctx = RunCtx::new(&prog, &mut heap, &mut area, true);
    let _ = m.run(&mut ctx, 2_000);
    let mut roots = Vec::new();
    m.push_roots(&mut roots);
    let mut gc = Collector::new();
    gc.collect(&mut heap, roots);
    let (r, _) = {
        let mut total = 0u64;
        loop {
            let mut ctx = RunCtx::new(&prog, &mut heap, &mut area, true);
            let sl = m.run(&mut ctx, 100_000);
            total += sl.cost;
            match sl.stop {
                StopReason::Finished(r) => break (r, total),
                StopReason::FuelExhausted | StopReason::Checkpoint | StopReason::Sparked => {
                    continue
                }
                other => panic!("{other:?}"),
            }
        }
    };
    assert_eq!(heap.expect_value(r).expect_int(), 125_250);
}

#[test]
fn deep_force_normalises_nested_structures() {
    let (prog, pre) = with_prelude();
    let mut heap = Heap::new();
    // chunk 2 (map inc [1..6]) — nested lists, all thunks inside.
    let lo = heap.int(1);
    let hi = heap.int(6);
    let xs = heap.alloc_thunk(pre.enum_from_to, vec![lo, hi]);
    let f = heap.alloc_value(Value::Pap {
        sc: pre.inc,
        args: Box::new([]),
    });
    let mapped = heap.alloc_thunk(pre.map, vec![f, xs]);
    let k = heap.int(2);
    let chunks = heap.alloc_thunk(pre.chunk, vec![k, mapped]);
    let (r, _) = run_seq_deep(&prog, &mut heap, chunks);
    // Everything must now be a value: walk and read.
    let mut outer = r;
    let mut collected = Vec::new();
    loop {
        match heap.expect_value(outer) {
            Value::Nil => break,
            Value::Cons(h, t) => {
                collected.push(read_int_list(&heap, *h));
                outer = *t;
            }
            other => panic!("{other:?}"),
        }
    }
    assert_eq!(collected, vec![vec![2, 3], vec![4, 5], vec![6, 7]]);
}

#[test]
fn over_application_of_pap() {
    // konst x = add (a curried function value), then apply to 2 args.
    // g = $apply1 addPap 5  ==> Pap(add,[5]); then AppVar g [4] => 9.
    let (prog, pre) = with_prelude();
    let mut b_heap = Heap::new();
    let heap = &mut b_heap;
    let addp = heap.alloc_value(Value::Pap {
        sc: pre.add,
        args: Box::new([]),
    });
    let five = heap.int(5);
    let four = heap.int(4);
    // Apply add to one arg -> Pap(add,[5]); then to another -> 9.
    let apply1 = prog.lookup("$apply1").unwrap();
    let partial = heap.alloc_thunk(apply1, vec![addp, five]);
    let full = heap.alloc_thunk(apply1, vec![partial, four]);
    let (r, _) = run_seq(&prog, heap, full);
    assert_eq!(heap.expect_value(r).expect_int(), 9);
}

#[test]
fn program_errors_are_reported_not_panicking() {
    let mut b = ProgramBuilder::new();
    let _pre = prelude::install(&mut b);
    let bad = b.def("bad", 0, prim(PrimOp::Div, vec![int(1), int(0)]));
    let prog = b.build();
    let mut heap = Heap::new();
    let e = heap.alloc_thunk(bad, vec![]);
    let mut area = AllocArea::new(u64::MAX / 4, u64::MAX / 4);
    let mut m = Machine::enter(ThreadId(0), e);
    let mut ctx = RunCtx::new(&prog, &mut heap, &mut area, true);
    let s = m.run(&mut ctx, 10_000);
    assert!(matches!(s.stop, StopReason::Error(_)), "{:?}", s.stop);
    assert_eq!(m.status(), MachineStatus::Finished);
}

/// The 64-bit fast path of the kernel pay-off agrees with the 128-bit
/// form it replaced wherever the product does or does not overflow.
#[test]
fn kernel_alloc_piece_equals_the_u128_form() {
    let wide = |alloc_left: u64, piece: u64, cost_left: u64| {
        if cost_left > piece {
            (alloc_left as u128 * piece as u128 / cost_left as u128) as u64
        } else {
            alloc_left
        }
    };
    let piece = KERNEL_PIECE;
    let edge = u64::MAX / piece;
    for alloc_left in [0, 1, 12_345, edge - 1, edge, edge + 1, u64::MAX] {
        // Final piece (all that is left), the smallest non-final
        // remainder, ordinary and huge remainders.
        for cost_left in [1, piece - 1, piece, piece + 1, 3 * piece + 7, u64::MAX] {
            let piece = cost_left.min(piece);
            assert_eq!(
                kernel_alloc_piece(alloc_left, piece, cost_left),
                wide(alloc_left, piece, cost_left),
                "alloc_left={alloc_left} cost_left={cost_left}"
            );
        }
    }
    // Paid off piece by piece, the shares add up to the whole.
    let (mut alloc_left, mut cost_left, mut paid) = (1_000_003u64, 10 * piece + 5, 0u64);
    while cost_left > 0 {
        let piece = cost_left.min(piece);
        let share = kernel_alloc_piece(alloc_left, piece, cost_left);
        paid += share;
        alloc_left -= share;
        cost_left -= piece;
    }
    assert_eq!((paid, alloc_left), (1_000_003, 0));
}

/// Kernels whose argument lists sit on either side of the inline
/// limit, reached by application and by thunk entry, with arguments
/// that are themselves thunks (so they come back as indirections): the
/// kernel sees every argument forced, resolved and in order.
#[test]
fn kernels_see_forced_arguments_in_order_inline_and_spilled() {
    for arity in [1usize, 5, 6, 9] {
        let mut b = ProgramBuilder::new();
        let pre = prelude::install(&mut b);
        // digits a b c ... = the arguments read as a base-10 number.
        let digits = b.kernel("digits", arity, |heap, args| {
            let n = args.iter().fold(0, |n, a| {
                assert!(heap.get(*a).is_whnf(), "argument {a} not resolved");
                n * 10 + heap.expect_value(*a).expect_int()
            });
            KernelOut {
                result: heap.alloc_value(Value::Int(n)),
                cost: 20_000,
                transient_words: 3_000,
            }
        });
        // viaApp x = digits (inc x) (inc (inc x)) ...: argument k is a
        // chain of k `inc` thunks over the frame's x.
        let mut rhss = Vec::new();
        let mut arg_slots = Vec::new();
        for k in 1..=arity {
            let mut slot = 0;
            for _ in 0..k {
                rhss.push(thunk(pre.inc, vec![v(slot)]));
                slot = rhss.len();
            }
            arg_slots.push(v(slot));
        }
        let via_app = b.def("viaApp", 1, let_(rhss, app(digits, arg_slots)));
        let prog = b.build();
        let want = (1..=arity as i64).fold(0, |n, d| n * 10 + d);

        let mut heap = Heap::new();
        let zero = heap.int(0);
        let applied = heap.alloc_thunk(via_app, vec![zero]);
        let args: Vec<NodeRef> = (1..=arity as i64)
            .map(|d| {
                let prev = heap.int(d - 1);
                heap.alloc_thunk(pre.inc, vec![prev])
            })
            .collect();
        let entered = heap.alloc_thunk(digits, args);
        for (how, entry) in [("application", applied), ("thunk entry", entered)] {
            let mut m = Machine::enter(ThreadId(0), entry);
            let (r, _) = drive(&prog, &mut heap, &mut m);
            assert_eq!(
                heap.expect_value(r).expect_int(),
                want,
                "{how}, arity {arity}"
            );
        }
    }
}
