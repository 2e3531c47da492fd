//! All-pairs shortest paths (§V, "a genuine parallel algorithm") —
//! Fig. 5.
//!
//! The algorithm is pipelined Floyd–Warshall (adapted from Plasmeijer &
//! van Eekelen): row `k` is *final* once relaxed by pivots `1..k-1`
//! (row `k` does not change at its own pivot step), so final rows can
//! be produced and consumed in pivot order, pipelined.
//!
//! * **Eden**: each ring process owns a contiguous block of rows,
//!   "computes the minimum distances … by updating its row continuously
//!   using the other rows received from, and forwarded to, the ring".
//!   Finalised rows circulate the ring exactly once.
//! * **GpH**: the program "sparks an evaluation for each row in
//!   advance and relies on the runtime system efficiently synchronising
//!   concurrent evaluations": a grid of n² row-step thunks where step
//!   `(i,k)` depends on `(i,k-1)` and on the *shared* pivot thunk
//!   `(k,k-1)`. Those shared pivots are exactly what makes lazy
//!   black-holing catastrophic here (duplicate evaluation of whole
//!   relaxation chains) and eager black-holing essential — the paper's
//!   headline Fig. 5 effect.

use crate::kernels;
use crate::sum_euler::list_of;
use crate::Measured;
use rph_eden::{skeletons, EdenConfig, EdenRuntime};
use rph_gph::{GphConfig, GphRuntime};
use rph_heap::{Heap, NodeRef, ScId, Value};
use rph_machine::ir::*;
use rph_machine::prelude::{self, Prelude};
use rph_machine::program::{KernelOut, Program, ProgramBuilder};
use rph_machine::reference;
use rph_sim::DetRng;
use std::sync::Arc;

/// "Infinity" surrogate: far larger than any real path (≤ n·20) but
/// exactly representable so checksums stay integer-exact.
pub const BIG: f64 = 1.0e6;

/// The APSP benchmark.
#[derive(Debug, Clone)]
pub struct Apsp {
    /// Number of graph nodes (the paper uses 400).
    pub n: usize,
    /// Edge probability (per ordered pair), ×1000.
    pub density_millis: u64,
    pub seed: u64,
}

struct Prog {
    program: Arc<Program>,
    support: rph_eden::EdenSupport,
    #[allow(dead_code)]
    pre: Prelude,
    /// Kernel: one min-plus relaxation of a row by a pivot row.
    update_row: ScId,
    /// Kernel: relax *every* row in a list by a pivot row.
    #[allow(dead_code)] // referenced via the IR bodies that close over it
    update_rows: ScId,
    /// Kernel: index into a row list.
    #[allow(dead_code)]
    get_row: ScId,
    /// Kernel: Σ of one row (integer-exact).
    row_sum: ScId,
    /// Kernel: Σ over a list of rows.
    #[allow(dead_code)]
    rows_sum: ScId,
    /// GpH driver: sparkList finals `seq` sum (map rowSum finals).
    gph_main: ScId,
    /// Eden ring worker.
    apsp_node: ScId,
    /// Eden parent checksum over per-process row lists.
    eden_checksum: ScId,
}

impl Apsp {
    pub fn new(n: usize) -> Self {
        Apsp {
            n,
            density_millis: 300,
            seed: 7,
        }
    }

    /// The adjacency/distance matrix, flat row-major `n×n` (one
    /// allocation; the oracle kernels run on this directly).
    pub fn input_flat(&self) -> Vec<f64> {
        let mut rng = DetRng::new(self.seed);
        let n = self.n;
        let mut dist = vec![BIG; n * n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    dist[i * n + j] = 0.0;
                } else if rng.gen_range(1000) < self.density_millis {
                    dist[i * n + j] = 1.0 + rng.gen_range(20) as f64;
                }
            }
        }
        dist
    }

    /// The adjacency/distance matrix as per-row vectors (the shape the
    /// row-structured runtimes consume).
    pub fn input_rows(&self) -> Vec<Vec<f64>> {
        self.input_flat()
            .chunks_exact(self.n)
            .map(|r| r.to_vec())
            .collect()
    }

    /// Plain-Rust Floyd–Warshall oracle checksum.
    pub fn expected(&self) -> i64 {
        let mut dist = self.input_flat();
        kernels::floyd_warshall(&mut dist, self.n);
        dist.iter().sum::<f64>() as i64
    }

    fn program(&self) -> Prog {
        let n = self.n as i64;
        let mut b = ProgramBuilder::new();
        let pre = prelude::install(&mut b);
        let support = rph_eden::install_support(&mut b);
        let sub2 = b.def("sub2", 2, prim(rph_machine::PrimOp::Sub, vec![v(0), v(1)]));

        // updateRow row_i row_k k: one relaxation (k is 1-based).
        let update_row = b.kernel("updateRow", 3, |heap, args| {
            let row_i = heap.expect_value(args[0]).expect_darray();
            let row_k = heap.expect_value(args[1]).expect_darray();
            let k = heap.expect_value(args[2]).expect_int() as usize - 1;
            let (out, cost) = kernels::min_plus_update(row_i, row_k, k);
            let words = out.len() as u64;
            KernelOut {
                result: heap.alloc_value(Value::DArray(out.into())),
                cost,
                transient_words: words,
            }
        });
        // updateRows rows row_k k: relax every row in the (NF) list.
        let update_rows = b.kernel("updateRows", 3, |heap, args| {
            let rows = read_rows(heap, args[0]);
            let row_k = heap.expect_value(args[1]).expect_darray();
            let k = heap.expect_value(args[2]).expect_int() as usize - 1;
            // Relax every row against the borrowed pivot first; the
            // allocations (which need the heap back) follow in order.
            let relaxed: Vec<(Vec<f64>, u64)> = rows
                .iter()
                .map(|row| kernels::min_plus_update(row, row_k, k))
                .collect();
            let mut cost = 0u64;
            let mut out_nodes = Vec::with_capacity(relaxed.len());
            let mut words = 0u64;
            for (out, c) in relaxed {
                cost += c;
                words += out.len() as u64;
                out_nodes.push(heap.alloc_value(Value::DArray(out.into())));
            }
            KernelOut {
                result: list_of(heap, &out_nodes),
                cost,
                transient_words: words,
            }
        });
        let get_row = b.kernel("getRow", 2, |heap, args| {
            let idx = heap.expect_value(args[1]).expect_int() as usize;
            let mut r = heap.resolve(args[0]);
            for _ in 0..idx {
                match heap.expect_value(r) {
                    Value::Cons(_, t) => r = heap.resolve(*t),
                    other => panic!("getRow: ran off the list at {other:?}"),
                }
            }
            let head = match heap.expect_value(r) {
                Value::Cons(h, _) => *h,
                other => panic!("getRow: index out of range at {other:?}"),
            };
            KernelOut {
                result: head,
                cost: 5 * (idx as u64 + 1),
                transient_words: 0,
            }
        });
        let row_sum = b.kernel("rowSum", 1, |heap, args| {
            let xs = heap.expect_value(args[0]).expect_darray();
            let total: f64 = xs.iter().sum();
            let len = xs.len() as u64;
            KernelOut {
                result: heap.alloc_value(Value::Int(total as i64)),
                cost: len,
                transient_words: 0,
            }
        });
        let rows_sum = b.kernel("rowsSum", 1, |heap, args| {
            let rows = read_rows(heap, args[0]);
            let total: f64 = rows.iter().copied().flatten().sum();
            let cost = rows.iter().map(|r| r.len() as u64).sum();
            KernelOut {
                result: heap.alloc_value(Value::Int(total as i64)),
                cost,
                transient_words: 0,
            }
        });

        // gphMain finals = sparkList finals `seq` sum (map rowSum finals)
        let gph_main = b.def(
            "gphApspMain",
            1,
            seq(
                app(pre.spark_list, vec![v(0)]),
                let_(
                    vec![
                        pap(row_sum, vec![]),             // [1]
                        thunk(pre.map, vec![v(1), v(0)]), // [2]
                    ],
                    app(pre.sum, vec![v(2)]),
                ),
            ),
        );

        // ---- Eden ring worker --------------------------------------
        // apspGo lo hi sLo sHi k n ownRows stream
        //        0  1  2   3   4 5  6      7
        let apsp_go = b.declare("apspGo", 8);
        let all8 = || vec![v(0), v(1), v(2), v(3), v(4), v(5), v(6), v(7)];

        // Own pivot: emit my row (relaxed by 1..k-1), relax my rows by
        // it, recurse.
        // The relaxations are forced *at the pivot's turn* (strict, like
        // the Eden original): deferring them lazily would batch all
        // updates into the next emission and serialise the pipeline.
        let apsp_own = b.def(
            "apspOwn",
            8,
            let_(
                vec![
                    thunk(sub2, vec![v(4), v(0)]),              // [8]  idx = k - lo
                    thunk(get_row, vec![v(6), v(8)]),           // [9]  myRow
                    thunk(update_rows, vec![v(6), v(9), v(4)]), // [10] rows'
                    thunk(pre.inc, vec![v(4)]),                 // [11] k+1
                ],
                let_(
                    vec![
                        thunk(
                            apsp_go,
                            vec![v(0), v(1), v(2), v(3), v(11), v(5), v(10), v(7)],
                        ), // [12]
                        LetRhs::Thunk {
                            sc: support.selector(2, 0),
                            args: vec![v(12)],
                        }, // [13]
                        LetRhs::Thunk {
                            sc: support.selector(2, 1),
                            args: vec![v(12)],
                        }, // [14]
                        LetRhs::Cons(v(9), v(14)), // [15] out = myRow : recOut
                        LetRhs::Tuple(vec![v(13), v(15)]), // [16]
                    ],
                    atom(v(16)),
                ),
            ),
        );

        // Foreign pivot: receive it, relax, forward unless the
        // successor owns it (then its circulation is complete).
        let apsp_foreign = b.def(
            "apspForeign",
            8,
            case_list(
                atom(v(7)),
                prim(rph_machine::PrimOp::Div, vec![int(1), int(0)]), // ring protocol violation
                // frame +[rowK(8), stream'(9)]
                let_(
                    vec![
                        thunk(update_rows, vec![v(6), v(8), v(4)]), // [10]
                        thunk(pre.inc, vec![v(4)]),                 // [11]
                        thunk(
                            apsp_go,
                            vec![v(0), v(1), v(2), v(3), v(11), v(5), v(10), v(9)],
                        ), // [12]
                        LetRhs::Thunk {
                            sc: support.selector(2, 0),
                            args: vec![v(12)],
                        }, // [13]
                        LetRhs::Thunk {
                            sc: support.selector(2, 1),
                            args: vec![v(12)],
                        }, // [14]
                        LetRhs::Cons(v(8), v(14)),                  // [15] forwarded
                        LetRhs::Tuple(vec![v(13), v(15)]),          // [16] with forward
                        LetRhs::Tuple(vec![v(13), v(14)]),          // [17] without
                    ],
                    if_(
                        prim(rph_machine::PrimOp::Lt, vec![v(4), v(2)]),
                        atom(v(16)),
                        if_(
                            prim(rph_machine::PrimOp::Gt, vec![v(4), v(3)]),
                            atom(v(16)),
                            atom(v(17)),
                        ),
                    ),
                ),
            ),
        );

        b.define(
            apsp_go,
            // Force the pending relaxation burst *now* — after the
            // previous pivot has been forwarded, before blocking on the
            // next one. This keeps updates strict (pipelined) while
            // letting forwards overtake local compute.
            seq(
                atom(v(6)),
                if_(
                    prim(rph_machine::PrimOp::Gt, vec![v(4), v(5)]),
                    // k > n: done — final rows, end of ring output.
                    let_(
                        vec![LetRhs::Nil, LetRhs::Tuple(vec![v(6), v(8)])],
                        atom(v(9)),
                    ),
                    if_(
                        prim(rph_machine::PrimOp::Lt, vec![v(4), v(0)]),
                        app(apsp_foreign, all8()),
                        if_(
                            prim(rph_machine::PrimOp::Gt, vec![v(4), v(1)]),
                            app(apsp_foreign, all8()),
                            app(apsp_own, all8()),
                        ),
                    ),
                ),
            ),
        );

        // apspNode init ringIn, init = ((lo,hi,sLo,sHi), rows)
        let apsp_node = b.def(
            "apspNode",
            2,
            case_tuple(
                atom(v(0)),
                2,
                // frame [init, ringIn, bounds(2), rows(3)]
                case_tuple(
                    atom(v(2)),
                    4,
                    // frame + [lo(4), hi(5), sLo(6), sHi(7)]
                    app(
                        apsp_go,
                        vec![v(4), v(5), v(6), v(7), int(1), int(n), v(3), v(1)],
                    ),
                ),
            ),
        );

        // edenChecksum outs = sum (map rowsSum outs)
        let eden_checksum = b.def(
            "edenChecksum",
            1,
            let_(
                vec![
                    pap(rows_sum, vec![]),            // [1]
                    thunk(pre.map, vec![v(1), v(0)]), // [2]
                ],
                app(pre.sum, vec![v(2)]),
            ),
        );

        Prog {
            program: b.build(),
            support,
            pre,
            update_row,
            update_rows,
            get_row,
            row_sum,
            rows_sum,
            gph_main,
            apsp_node,
            eden_checksum,
        }
    }

    /// Shared-heap GpH run: the n² row-step thunk grid, one spark per
    /// final row.
    pub fn run_gph(&self, config: GphConfig) -> Result<Measured, String> {
        let p = self.program();
        let rows = self.input_rows();
        let n = self.n;
        let mut rt = GphRuntime::new(p.program.clone(), config);
        let out = rt.run(|heap| {
            // step[i] holds row i after pivots 1..k, rolled in place.
            let mut step: Vec<NodeRef> = rows
                .iter()
                .map(|r| heap.alloc_value(Value::DArray(r.clone().into())))
                .collect();
            for k in 1..=n {
                let kn = heap.int(k as i64);
                // The shared pivot: row k after pivots 1..k-1.
                let pivot = step[k - 1];
                for (i, slot) in step.iter_mut().enumerate() {
                    if i == k - 1 {
                        continue; // a row is unchanged at its own pivot
                    }
                    *slot = heap.alloc_thunk(p.update_row, vec![*slot, pivot, kn]);
                }
            }
            let finals = list_of(heap, &step);
            heap.alloc_thunk(p.gph_main, vec![finals])
        })?;
        let value = rt.heap().expect_value(out.result).expect_int();
        Ok(Measured {
            value,
            elapsed: out.elapsed,
            tracer: out.tracer,
            gph_stats: Some(out.stats),
            eden_stats: None,
        })
    }

    /// Row-block bounds (1-based, inclusive) for `p` ring processes.
    fn blocks(&self, p: usize) -> Vec<(i64, i64)> {
        let n = self.n as i64;
        let p = p as i64;
        (0..p)
            .map(|j| {
                let lo = j * n / p + 1;
                let hi = (j + 1) * n / p;
                (lo, hi)
            })
            .collect()
    }

    /// Distributed-heap Eden run: `p` ring processes (one per PE).
    pub fn run_eden(&self, config: EdenConfig) -> Result<Measured, String> {
        let p = self.program();
        let rows = self.input_rows();
        let nprocs = config.pes.min(self.n);
        let blocks = self.blocks(nprocs);
        let mut rt = EdenRuntime::new(p.program.clone(), p.support, config);
        let mut inits = Vec::with_capacity(nprocs);
        for (j, &(lo, hi)) in blocks.iter().enumerate() {
            let (slo, shi) = blocks[(j + 1) % nprocs];
            let heap = rt.heap_mut(0);
            let row_nodes: Vec<NodeRef> = (lo..=hi)
                .map(|i| heap.alloc_value(Value::DArray(rows[i as usize - 1].clone().into())))
                .collect();
            let rows_list = list_of(heap, &row_nodes);
            let lo_n = heap.int(lo);
            let hi_n = heap.int(hi);
            let slo_n = heap.int(slo);
            let shi_n = heap.int(shi);
            let bounds = heap.alloc_value(Value::Tuple(vec![lo_n, hi_n, slo_n, shi_n].into()));
            inits.push(heap.alloc_value(Value::Tuple(vec![bounds, rows_list].into())));
        }
        let outs = skeletons::ring(&mut rt, p.apsp_node, &inits);
        let heap = rt.heap_mut(0);
        let list = list_of(heap, &outs);
        let entry = heap.alloc_thunk(p.eden_checksum, vec![list]);
        let out = rt.run(entry)?;
        let value = rt.heap(0).expect_value(out.result).expect_int();
        Ok(Measured {
            value,
            elapsed: out.elapsed,
            tracer: out.tracer,
            gph_stats: None,
            eden_stats: Some(out.stats),
        })
    }

    /// Sequential baseline on the abstract machine.
    pub fn run_seq(&self) -> Measured {
        let p = self.program();
        let rows = self.input_rows();
        let n = self.n;
        let mut heap = Heap::new();
        let mut step: Vec<NodeRef> = rows
            .iter()
            .map(|r| heap.alloc_value(Value::DArray(r.clone().into())))
            .collect();
        for k in 1..=n {
            let kn = heap.int(k as i64);
            let pivot = step[k - 1];
            for (i, slot) in step.iter_mut().enumerate() {
                if i == k - 1 {
                    continue;
                }
                *slot = heap.alloc_thunk(p.update_row, vec![*slot, pivot, kn]);
            }
        }
        let finals = list_of(&mut heap, &step);
        let entry = {
            let pap_node = heap.alloc_value(Value::Pap {
                sc: p.row_sum,
                args: Box::new([]),
            });
            let pre_map = p.program.lookup("map").expect("prelude installed");
            let pre_sum = p.program.lookup("sum").expect("prelude installed");
            let mapped = heap.alloc_thunk(pre_map, vec![pap_node, finals]);
            heap.alloc_thunk(pre_sum, vec![mapped])
        };
        let (r, cost) = reference::run_seq(&p.program, &mut heap, entry);
        Measured {
            value: heap.expect_value(r).expect_int(),
            elapsed: cost,
            tracer: rph_trace::Tracer::disabled(0),
            gph_stats: None,
            eden_stats: None,
        }
    }
}

/// The rows of a normal-form row list, borrowed from the heap.
fn read_rows(heap: &Heap, mut r: NodeRef) -> Vec<&[f64]> {
    let mut out = Vec::new();
    loop {
        match heap.expect_value(r) {
            Value::Nil => return out,
            Value::Cons(h, t) => {
                out.push(heap.expect_value(*h).expect_darray());
                r = *t;
            }
            other => panic!("row list expected, found {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 24;

    #[test]
    fn gph_matches_oracle_lazy_and_eager() {
        let w = Apsp::new(N);
        let expect = w.expected();
        for eager in [false, true] {
            let mut cfg = GphConfig::ghc69_plain(4)
                .with_work_stealing()
                .without_trace();
            if eager {
                cfg = cfg.with_eager_blackholing();
            }
            let m = w.run_gph(cfg).unwrap();
            assert_eq!(m.value, expect, "eager={eager}");
        }
    }

    #[test]
    fn eden_ring_matches_oracle_various_sizes() {
        let w = Apsp::new(N);
        let expect = w.expected();
        for pes in [1, 2, 3, 4] {
            let m = w.run_eden(EdenConfig::new(pes).without_trace()).unwrap();
            assert_eq!(m.value, expect, "pes={pes}");
        }
    }

    #[test]
    fn seq_matches_oracle() {
        let w = Apsp::new(N);
        assert_eq!(w.run_seq().value, w.expected());
    }

    #[test]
    fn lazy_blackholing_duplicates_shared_pivots() {
        // Needs enough pivot-chain depth for duplication to outweigh
        // synchronisation overhead (the paper's 400-node graph is deep
        // in that regime; the crossover here is near n = 96).
        let w = Apsp::new(128);
        let lazy = w
            .run_gph(
                GphConfig::ghc69_plain(8)
                    .with_big_alloc_area()
                    .with_work_stealing()
                    .without_trace(),
            )
            .unwrap();
        let eager = w
            .run_gph(
                GphConfig::ghc69_plain(8)
                    .with_big_alloc_area()
                    .with_work_stealing()
                    .with_eager_blackholing()
                    .without_trace(),
            )
            .unwrap();
        assert_eq!(lazy.value, eager.value);
        let ls = lazy.gph_stats.unwrap();
        let es = eager.gph_stats.unwrap();
        assert!(
            ls.duplicate_evals > 0,
            "lazy black-holing must duplicate pivot relaxations"
        );
        assert_eq!(es.duplicate_evals, 0);
        assert!(es.blackhole_blocks > 0);
        assert!(
            eager.elapsed < lazy.elapsed,
            "eager {} !< lazy {} (Fig. 5 effect)",
            eager.elapsed,
            lazy.elapsed
        );
    }

    #[test]
    fn blocks_partition_rows() {
        let w = Apsp::new(10);
        let bs = w.blocks(3);
        assert_eq!(bs, vec![(1, 3), (4, 6), (7, 10)]);
        let total: i64 = bs.iter().map(|(lo, hi)| hi - lo + 1).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn update_row_kernel_relaxes() {
        // Self-contained check of the Eden update path vs the oracle.
        let w = Apsp::new(12);
        let mut oracle = w.input_flat();
        kernels::floyd_warshall(&mut oracle, w.n);
        let m = w.run_eden(EdenConfig::new(2).without_trace()).unwrap();
        assert_eq!(m.value, oracle.iter().sum::<f64>() as i64);
    }
}
