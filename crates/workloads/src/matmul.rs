//! Dense matrix multiplication (§V) — Fig. 3 right (speedups) and
//! Fig. 4 (traces).
//!
//! * **GpH**: "regular blocks of the result are turned into sparks.
//!   The block size, i.e. the spark granularity, is tunable by a
//!   parameter." Each result block depends only on a row of A-blocks
//!   and a column of B-blocks (the reduced data dependence the paper
//!   credits block-sparking for).
//! * **Eden**: Cannon's algorithm on the `torus` skeleton: b×b
//!   processes, blocks pre-aligned, then b multiply–shift steps with
//!   blocks "exchanged in sequence with computing subresults.
//!   Communication is reduced to a minimum."
//!
//! Matrices are generated with small integer entries so every f64
//! operation is exact and checksums compare exactly against the
//! plain-Rust oracle.
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

/// The matrix-multiplication benchmark.
#[derive(Debug, Clone)]
pub struct MatMul {
    /// Matrix dimension (n×n).
    pub n: usize,
    /// Blocks per side (the grid is `grid × grid`; block size
    /// `n/grid` — the paper's tunable spark granularity).
    pub grid: usize,
    /// Input generator seed.
    pub seed: u64,
}

struct Prog {
    program: Arc<Program>,
    support: rph_eden::EdenSupport,
    #[allow(dead_code)]
    pre: Prelude,
    /// Kernel: product of a row of A-blocks with a column of B-blocks.
    block_row_col: ScId,
    /// Kernel: sum of a block's elements (exact integer-valued).
    #[allow(dead_code)] // referenced via the IR bodies that close over it
    block_sum: ScId,
    /// GpH driver: sparkList blocks `seq` sum (map blockSum blocks).
    gph_main: ScId,
    /// Eden torus worker (Cannon node).
    cannon_node: ScId,
    /// Checksum driver for a list of blocks.
    checksum: ScId,
}

impl MatMul {
    pub fn new(n: usize, grid: usize) -> Self {
        assert!(grid >= 1 && n.is_multiple_of(grid), "grid must divide n");
        MatMul { n, grid, seed: 42 }
    }

    /// Block edge length.
    pub fn block_size(&self) -> usize {
        self.n / self.grid
    }

    /// Deterministic input matrices with small integer entries.
    pub fn inputs(&self) -> (Vec<f64>, Vec<f64>) {
        let mut rng = DetRng::new(self.seed);
        let gen = |rng: &mut DetRng| -> Vec<f64> {
            (0..self.n * self.n)
                .map(|_| rng.gen_range(10) as f64)
                .collect()
        };
        let a = gen(&mut rng);
        let b = gen(&mut rng);
        (a, b)
    }

    /// Oracle checksum: ΣC where C = A·B (exact in f64).
    pub fn expected(&self) -> i64 {
        let (a, b) = self.inputs();
        let c = kernels::matmul_oracle(&a, &b, self.n);
        c.iter().sum::<f64>() as i64
    }

    /// Extract block (bi, bj) of a row-major matrix.
    pub(crate) fn block(&self, m: &[f64], bi: usize, bj: usize) -> Vec<f64> {
        let s = self.block_size();
        let n = self.n;
        let mut out = Vec::with_capacity(s * s);
        for r in 0..s {
            let base = (bi * s + r) * n + bj * s;
            out.extend_from_slice(&m[base..base + s]);
        }
        out
    }

    fn program(&self) -> Prog {
        let mut b = ProgramBuilder::new();
        let pre = prelude::install(&mut b);
        let support = rph_eden::install_support(&mut b);
        // blockRowCol aBlocks bBlocks: Σ_k aBlocks[k]·bBlocks[k].
        // Both lists are in normal form by construction (input blocks).
        let block_row_col = b.kernel("blockRowCol", 2, |heap, args| {
            let mut cost = 0u64;
            let a_blocks = read_block_list(heap, args[0]);
            let b_blocks = read_block_list(heap, args[1]);
            assert_eq!(a_blocks.len(), b_blocks.len());
            let s = (a_blocks[0].len() as f64).sqrt() as usize;
            let mut acc = vec![0.0; s * s];
            for (ab, bb) in a_blocks.iter().zip(&b_blocks) {
                let (next, c) = kernels::block_mul_acc(&acc, ab, bb, s);
                acc = next;
                cost += c;
            }
            // A Haskell block product allocates intermediates per
            // multiply (zipWith spines, boxed doubles); partial fusion
            // leaves about a word per four flops.
            let churn = (s * s * s / 4) as u64 * a_blocks.len() as u64;
            KernelOut {
                result: heap.alloc_value(Value::DArray(acc.into())),
                cost,
                transient_words: churn,
            }
        });
        // blockMulAcc acc a b (Cannon's per-step kernel).
        let block_mul_acc = b.kernel("blockMulAcc", 3, |heap, args| {
            let acc = heap.expect_value(args[0]).expect_darray();
            let a = heap.expect_value(args[1]).expect_darray();
            let bb = heap.expect_value(args[2]).expect_darray();
            let s = (acc.len() as f64).sqrt() as usize;
            let (out, cost) = kernels::block_mul_acc(acc, a, bb, s);
            KernelOut {
                result: heap.alloc_value(Value::DArray(out.into())),
                cost,
                // Same per-flop churn as the GpH block kernel.
                transient_words: (s * s * s / 4) as u64,
            }
        });
        let block_sum = b.kernel("blockSum", 1, |heap, args| {
            let xs = heap.expect_value(args[0]).expect_darray();
            let total: f64 = xs.iter().sum();
            let len = xs.len() as u64;
            KernelOut {
                result: heap.alloc_value(Value::Int(total as i64)),
                cost: len,
                transient_words: 0,
            }
        });
        // checksum blocks = sum (map blockSum blocks)
        let checksum = b.def(
            "checksum",
            1,
            let_(
                vec![
                    pap(block_sum, vec![]),           // [1]
                    thunk(pre.map, vec![v(1), v(0)]), // [2]
                ],
                app(pre.sum, vec![v(2)]),
            ),
        );
        // gphMain blocks = sparkList blocks `seq` checksum blocks
        let gph_main = b.def(
            "gphMain",
            1,
            seq(app(pre.spark_list, vec![v(0)]), app(checksum, vec![v(0)])),
        );
        // --- Cannon worker ----------------------------------------
        // cannonNext steps rowIn colIn acc: force the next blocks off
        // the torus streams, then continue.          frame [st,ri,ci,acc]
        let cannon_go = b.declare("cannonGo", 6);
        let cannon_next = b.def(
            "cannonNext",
            4,
            case_list(
                atom(v(1)),
                prim(rph_machine::PrimOp::Div, vec![int(1), int(0)]), // protocol violation
                // frame [st, ri, ci, acc, a', ri']
                case_list(
                    atom(v(2)),
                    prim(rph_machine::PrimOp::Div, vec![int(1), int(0)]),
                    // frame [st, ri, ci, acc, a', ri', b', ci']
                    app(cannon_go, vec![v(0), v(4), v(6), v(5), v(7), v(3)]),
                ),
            ),
        );
        // cannonGo steps a b rowIn colIn acc:       frame [st,a,b,ri,ci,acc]
        //   the output tuple is built *before* touching the input
        //   streams, so every node emits its block first (no startup
        //   deadlock) and the pipeline flows.
        b.define(
            cannon_go,
            let_(
                vec![thunk(block_mul_acc, vec![v(5), v(1), v(2)])], // [6] acc'
                if_(
                    prim(rph_machine::PrimOp::Le, vec![v(0), int(1)]),
                    let_(
                        vec![LetRhs::Nil, LetRhs::Tuple(vec![v(6), v(7), v(7)])],
                        atom(v(8)),
                    ),
                    let_(
                        vec![
                            thunk(pre_dec(&pre), vec![v(0)]),                 // [7] steps-1
                            thunk(cannon_next, vec![v(7), v(3), v(4), v(6)]), // [8] rec
                            sel_thunk(&support, 3, 0, v(8)),                  // [9] c
                            sel_thunk(&support, 3, 1, v(8)),                  // [10] ro
                            sel_thunk(&support, 3, 2, v(8)),                  // [11] co
                            LetRhs::Cons(v(1), v(10)), // [12] rowOut = a : ro
                            LetRhs::Cons(v(2), v(11)), // [13] colOut = b : co
                            LetRhs::Tuple(vec![v(9), v(12), v(13)]), // [14]
                        ],
                        atom(v(14)),
                    ),
                ),
            ),
        );
        // cannonNode init rowIn colIn:
        //   init = (a0, b0, zeroBlock, steps)
        let cannon_node = b.def(
            "cannonNode",
            3,
            case_tuple(
                atom(v(0)),
                4,
                // frame [init, rowIn, colIn, a0, b0, zero, steps]
                app(cannon_go, vec![v(6), v(3), v(4), v(1), v(2), v(5)]),
            ),
        );
        Prog {
            program: b.build(),
            support,
            pre,
            block_row_col,
            block_sum,
            gph_main,
            cannon_node,
            checksum,
        }
    }

    /// Shared-heap GpH run: spark one thunk per result block.
    pub fn run_gph(&self, config: GphConfig) -> Result<Measured, String> {
        let p = self.program();
        let (a, bm) = self.inputs();
        let g = self.grid;
        let mut rt = GphRuntime::new(p.program.clone(), config);
        let this = self.clone();
        let out = rt.run(move |heap| {
            // A-block rows and B-block columns as NF lists.
            let a_blocks: Vec<Vec<NodeRef>> = (0..g)
                .map(|i| {
                    (0..g)
                        .map(|k| {
                            let blk = this.block(&a, i, k);
                            heap.alloc_value(Value::DArray(blk.into()))
                        })
                        .collect()
                })
                .collect();
            let b_blocks: Vec<Vec<NodeRef>> = (0..g)
                .map(|k| {
                    (0..g)
                        .map(|j| {
                            let blk = this.block(&bm, k, j);
                            heap.alloc_value(Value::DArray(blk.into()))
                        })
                        .collect()
                })
                .collect();
            let mut result_blocks = Vec::with_capacity(g * g);
            #[allow(clippy::needless_range_loop)] // i/j index rows and columns of two grids
            for i in 0..g {
                let row: Vec<NodeRef> = (0..g).map(|k| a_blocks[i][k]).collect();
                let row_list = list_of(heap, &row);
                for j in 0..g {
                    let col: Vec<NodeRef> = (0..g).map(|k| b_blocks[k][j]).collect();
                    let col_list = list_of(heap, &col);
                    result_blocks.push(heap.alloc_thunk(p.block_row_col, vec![row_list, col_list]));
                }
            }
            let blocks = list_of(heap, &result_blocks);
            heap.alloc_thunk(p.gph_main, vec![blocks])
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

    /// Distributed-heap Eden run: Cannon's algorithm on a torus of
    /// `grid × grid` processes.
    pub fn run_eden(&self, config: EdenConfig) -> Result<Measured, String> {
        let p = self.program();
        let (a, bm) = self.inputs();
        let g = self.grid;
        let s = self.block_size();
        let mut rt = EdenRuntime::new(p.program.clone(), p.support, config);
        // Cannon pre-alignment: A(i,j) <- A(i, j+i), B(i,j) <- B(i+j, j).
        let mut inits = Vec::with_capacity(g * g);
        for i in 0..g {
            for j in 0..g {
                let ablk = self.block(&a, i, (j + i) % g);
                let bblk = self.block(&bm, (i + j) % g, j);
                let heap = rt.heap_mut(0);
                let an = heap.alloc_value(Value::DArray(ablk.into()));
                let bn = heap.alloc_value(Value::DArray(bblk.into()));
                let zn = heap.alloc_value(Value::DArray(vec![0.0; s * s].into()));
                let st = heap.int(g as i64);
                inits.push(heap.alloc_value(Value::Tuple(vec![an, bn, zn, st].into())));
            }
        }
        let outs = skeletons::torus(&mut rt, p.cannon_node, g, &inits);
        let heap = rt.heap_mut(0);
        let list = list_of(heap, &outs);
        let entry = heap.alloc_thunk(p.checksum, vec![list]);
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

    /// Sequential baseline: one blockRowCol per result block, no
    /// parallelism, no GC.
    pub fn run_seq(&self) -> Measured {
        let p = self.program();
        let (a, bm) = self.inputs();
        let g = self.grid;
        let mut heap = Heap::new();
        let mut result_blocks = Vec::new();
        for i in 0..g {
            let row: Vec<NodeRef> = (0..g)
                .map(|k| {
                    let blk = self.block(&a, i, k);
                    heap.alloc_value(Value::DArray(blk.into()))
                })
                .collect();
            let row_list = list_of(&mut heap, &row);
            for j in 0..g {
                let col: Vec<NodeRef> = (0..g)
                    .map(|k| {
                        let blk = self.block(&bm, k, j);
                        heap.alloc_value(Value::DArray(blk.into()))
                    })
                    .collect();
                let col_list = list_of(&mut heap, &col);
                result_blocks.push(heap.alloc_thunk(p.block_row_col, vec![row_list, col_list]));
            }
        }
        let blocks = list_of(&mut heap, &result_blocks);
        let entry = heap.alloc_thunk(p.checksum, vec![blocks]);
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

/// Read a normal-form list of DArray blocks.
fn read_block_list(heap: &Heap, mut r: NodeRef) -> Vec<Vec<f64>> {
    let mut out = Vec::new();
    loop {
        match heap.expect_value(r) {
            Value::Nil => return out,
            Value::Cons(h, t) => {
                out.push(heap.expect_value(*h).expect_darray().to_vec());
                r = *t;
            }
            other => panic!("block list expected, found {other:?}"),
        }
    }
}

/// Helper: `dec` from the prelude (distinct fn to keep builder tidy).
fn pre_dec(pre: &Prelude) -> ScId {
    pre.dec
}

/// Helper: a `LetRhs` thunk selecting component `k` of an `n`-tuple.
fn sel_thunk(support: &rph_eden::EdenSupport, n: usize, k: usize, t: Atom) -> LetRhs {
    LetRhs::Thunk {
        sc: support.selector(n, k),
        args: vec![t],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gph_matches_oracle() {
        for grid in [1, 2, 4] {
            let w = MatMul::new(40, grid);
            let m = w
                .run_gph(
                    GphConfig::ghc69_plain(4)
                        .with_work_stealing()
                        .without_trace(),
                )
                .unwrap();
            assert_eq!(m.value, w.expected(), "grid {grid}");
        }
    }

    #[test]
    fn eden_cannon_matches_oracle() {
        for grid in [1, 2, 4] {
            let w = MatMul::new(40, grid);
            let m = w.run_eden(EdenConfig::new(4).without_trace()).unwrap();
            assert_eq!(m.value, w.expected(), "grid {grid}");
            assert_eq!(m.eden_stats.unwrap().processes, (grid * grid) as u64);
        }
    }

    #[test]
    fn seq_matches_and_parallel_is_faster() {
        let w = MatMul::new(48, 4);
        let seq = w.run_seq();
        assert_eq!(seq.value, w.expected());
        let par = w
            .run_gph(
                GphConfig::ghc69_plain(8)
                    .with_work_stealing()
                    .without_trace(),
            )
            .unwrap();
        assert!(par.elapsed < seq.elapsed);
    }

    #[test]
    fn eden_oversubscribed_matches() {
        // Fig. 4 e: 4×4 torus = 16+1 virtual PEs on 8 cores.
        let w = MatMul::new(32, 4);
        let m = w
            .run_eden(EdenConfig::oversubscribed(17, 8).without_trace())
            .unwrap();
        assert_eq!(m.value, w.expected());
    }

    #[test]
    fn block_extraction_roundtrip() {
        let w = MatMul::new(6, 3);
        let (a, _) = w.inputs();
        let mut rebuilt = vec![0.0; 36];
        let s = w.block_size();
        for bi in 0..3 {
            for bj in 0..3 {
                let blk = w.block(&a, bi, bj);
                for r in 0..s {
                    for c in 0..s {
                        rebuilt[(bi * s + r) * 6 + bj * s + c] = blk[r * s + c];
                    }
                }
            }
        }
        assert_eq!(rebuilt, a);
    }

    #[test]
    #[should_panic(expected = "grid must divide n")]
    fn bad_grid_rejected() {
        MatMul::new(10, 3);
    }
}
