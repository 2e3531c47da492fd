//! The explicit-state lazy evaluator.
//!
//! One [`Machine`] is the evaluation state of one lightweight thread
//! (GHC: a TSO): current code, environment, and continuation stack.
//! Schedulers drive it in *slices* via [`Machine::run`]: evaluation
//! proceeds until the slice's fuel runs out, an allocation checkpoint
//! is crossed (the only points where GHC threads notice context-switch
//! and GC requests — the mechanism behind the paper's barrier delays),
//! the thread blocks on a black hole, or it finishes.
//!
//! Black-holing policy is per-run-context: *eager* overwrites a thunk
//! with a black hole at entry; *lazy* (GHC's default, §IV.A.3 of the
//! paper) leaves the thunk in place, so duplicate evaluation can start
//! on another capability until the next context switch, when
//! [`Machine::blackhole_update_frames`] walks the update frames —
//! exactly what GHC's lazy black-holing does at context switch.

use crate::ir::{Alts, Atom, Expr, LetRhs, E};
use crate::primop::{apply_prim, PrimError, PrimOp};
use crate::program::{Program, ScBody};
use rph_heap::area::AllocOutcome;
use rph_heap::heap::Claim;
use rph_heap::{AllocArea, Args, Cell, Heap, NodeRef, ScId, Value};
use rph_trace::ThreadId;

/// Shared evaluation context for one slice: program, heap, allocation
/// area of the running capability, black-holing mode, and the slice's
/// outputs (sparks created, threads woken by updates, duplicate-work
/// reports).
pub struct RunCtx<'a> {
    pub program: &'a Program,
    pub heap: &'a mut Heap,
    pub area: &'a mut AllocArea,
    /// Eager vs lazy black-holing (paper §IV.A.3).
    pub eager_blackhole: bool,
    /// Sparks recorded by `par` during this slice, for the scheduler
    /// to move into the spark pool.
    pub sparks: Vec<NodeRef>,
    /// Threads unblocked by updates during this slice.
    pub woken: Vec<ThreadId>,
    /// Wasted work (in work units) detected per duplicate update.
    pub duplicate_work: Vec<u64>,
    /// Set when an allocation crossed a checkpoint boundary.
    checkpoint: bool,
}

impl<'a> RunCtx<'a> {
    pub fn new(
        program: &'a Program,
        heap: &'a mut Heap,
        area: &'a mut AllocArea,
        eager_blackhole: bool,
    ) -> Self {
        RunCtx {
            program,
            heap,
            area,
            eager_blackhole,
            sparks: Vec::new(),
            woken: Vec::new(),
            duplicate_work: Vec::new(),
            checkpoint: false,
        }
    }

    /// Allocate a cell, charging the allocation area.
    fn alloc(&mut self, cell: Cell) -> NodeRef {
        let words = cell.words();
        if self.area.charge(words) == AllocOutcome::Checkpoint {
            self.checkpoint = true;
        }
        self.heap.alloc(cell)
    }
}

/// Why a slice ended.
#[derive(Debug, Clone, PartialEq)]
pub enum StopReason {
    /// The fuel budget was consumed (the simulator's slice bound — not
    /// a scheduling point for the thread itself).
    FuelExhausted,
    /// A spark was recorded by `par`. The slice ends so the scheduler
    /// can publish the spark immediately — in GHC the spark pool is
    /// shared memory and a thief can see a spark the instant `par`
    /// writes it. Not a scheduling point for the thread.
    Sparked,
    /// An allocation checkpoint was crossed: the thread must look at
    /// the runtime's context-switch and GC flags now.
    Checkpoint,
    /// Blocked on a black hole (the node is under evaluation elsewhere).
    Blocked(NodeRef),
    /// Evaluation finished with this WHNF node.
    Finished(NodeRef),
    /// The program is erroneous (bad primop operands, unbound variable,
    /// over-application). Carried as data so harnesses can report it.
    Error(String),
}

/// A completed slice: virtual-time cost consumed and why it stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct Slice {
    pub cost: u64,
    pub stop: StopReason,
}

/// Lifecycle status of a machine, tracked by schedulers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineStatus {
    Runnable,
    Blocked,
    Finished,
}

type Env = Vec<NodeRef>;

/// What the machine is about to do.
#[derive(Debug, Clone)]
enum Code {
    /// Evaluate an expression in an environment.
    Eval(E, Env),
    /// Force a node to WHNF.
    Enter(NodeRef),
    /// A WHNF node is being returned to the top continuation.
    Return(NodeRef),
    /// A native kernel's work being paid off in checkpoint-sized
    /// pieces. The Rust code already computed `result`; the thread
    /// "runs the loop" in virtual time, allocating as it goes — so
    /// kernels hit allocation checkpoints, join GC barriers, get their
    /// frames lazily black-holed on timer yields, and can be raced by
    /// duplicate entrants exactly like GHC-compiled inner loops.
    Kernel {
        result: NodeRef,
        cost_left: u64,
        alloc_left: u64,
    },
}

/// Cost paid per kernel piece (≈ 8 µs of inner loop between bookkeeping
/// points; allocation is spread proportionally, so a typical kernel
/// crosses an allocation checkpoint every few pieces).
pub(crate) const KERNEL_PIECE: u64 = 8_192;

/// Continuations.
#[derive(Debug, Clone)]
enum Kont {
    /// Select a case alternative when the scrutinee returns.
    Case { alts: Alts, env: Env },
    /// Update this thunk with the returned value (GHC update frame).
    /// `start_cost` is the machine's cumulative cost when the frame
    /// was pushed, for duplicate-work accounting.
    Update { node: NodeRef, start_cost: u64 },
    /// Evaluate `b` after the forced value is discarded (`seq`).
    Seq { b: E, env: Env },
    /// Force primop operands one by one, then apply.
    PrimK {
        op: PrimOp,
        nodes: Vec<NodeRef>,
        next: usize,
    },
    /// Force kernel arguments one by one, then invoke the kernel.
    KernelK { sc: ScId, nodes: Args, next: usize },
    /// Force a function value, then apply it to the argument nodes.
    ApplyK { args: Vec<NodeRef> },
    /// Deep (normal-form) forcing: nodes still to visit, and the root
    /// to return when done.
    DeepK {
        root: NodeRef,
        pending: Vec<NodeRef>,
    },
}

/// The evaluation state of one lightweight thread.
#[derive(Debug)]
pub struct Machine {
    tid: ThreadId,
    code: Code,
    konts: Vec<Kont>,
    /// Cumulative work units executed by this machine.
    cost_total: u64,
    status: MachineStatus,
    /// Scratch buffer reused when collecting children for deep forcing.
    child_buf: Vec<NodeRef>,
}

// Base cost (work units) per machine transition — roughly the handful
// of instructions GHC spends per STG transition.
const C_STEP: u64 = 2;
// Entering/claiming a thunk and pushing an update frame.
const C_CLAIM: u64 = 4;
// Performing an update (write + indirection).
const C_UPDATE: u64 = 4;
// Recording a spark (a pool write).
const C_PAR: u64 = 3;
// Allocation cost per word (bump allocation).
const C_ALLOC_WORD: u64 = 1;

impl Machine {
    /// A machine that will force `node` to WHNF (how spark threads and
    /// the main thread start: everything is a graph node to enter).
    pub fn enter(tid: ThreadId, node: NodeRef) -> Self {
        Machine {
            tid,
            code: Code::Enter(node),
            konts: Vec::new(),
            cost_total: 0,
            status: MachineStatus::Runnable,
            child_buf: Vec::new(),
        }
    }

    /// A machine that will force `node` to full normal form (Eden
    /// sender threads normalise before transmission).
    pub fn enter_deep(tid: ThreadId, node: NodeRef) -> Self {
        let mut m = Self::enter(tid, node);
        m.konts.push(Kont::DeepK {
            root: node,
            pending: Vec::new(),
        });
        m
    }

    pub fn tid(&self) -> ThreadId {
        self.tid
    }

    pub fn status(&self) -> MachineStatus {
        self.status
    }

    /// Cumulative work units executed.
    pub fn cost_total(&self) -> u64 {
        self.cost_total
    }

    /// Mark runnable again after the black hole this machine blocked on
    /// was updated.
    pub fn wake(&mut self) {
        debug_assert_eq!(self.status, MachineStatus::Blocked);
        self.status = MachineStatus::Runnable;
    }

    /// GC roots held by this machine: everything its code and
    /// continuations can still reach.
    pub fn push_roots(&self, out: &mut Vec<NodeRef>) {
        match &self.code {
            Code::Eval(_, env) => out.extend_from_slice(env),
            Code::Enter(r) | Code::Return(r) => out.push(*r),
            Code::Kernel { result, .. } => out.push(*result),
        }
        for k in &self.konts {
            match k {
                Kont::Case { env, .. } | Kont::Seq { env, .. } => out.extend_from_slice(env),
                Kont::Update { node, .. } => out.push(*node),
                Kont::PrimK { nodes, .. } => out.extend_from_slice(nodes),
                Kont::KernelK { nodes, .. } => out.extend_from_slice(nodes),
                Kont::ApplyK { args } => out.extend_from_slice(args),
                Kont::DeepK { root, pending } => {
                    out.push(*root);
                    out.extend_from_slice(pending);
                }
            }
        }
    }

    /// Lazy black-holing at context switch: overwrite every thunk with
    /// a pending update frame by a black hole (GHC does precisely this
    /// scan of the TSO stack). Returns how many thunks were marked.
    pub fn blackhole_update_frames(&self, heap: &mut Heap) -> usize {
        let mut n = 0;
        for k in &self.konts {
            if let Kont::Update { node, .. } = k {
                if heap.blackhole(*node) {
                    n += 1;
                }
            }
        }
        n
    }

    /// Run until `fuel` work units are consumed, a checkpoint is
    /// crossed, the thread blocks, or it finishes.
    pub fn run(&mut self, ctx: &mut RunCtx<'_>, fuel: u64) -> Slice {
        assert_eq!(
            self.status,
            MachineStatus::Runnable,
            "running a non-runnable machine"
        );
        ctx.checkpoint = false;
        let mut spent: u64 = 0;
        loop {
            if spent >= fuel {
                return Slice {
                    cost: spent,
                    stop: StopReason::FuelExhausted,
                };
            }
            let before = ctx.area.total_allocated();
            let step = match self.step(ctx) {
                Ok(s) => s,
                Err(msg) => {
                    self.status = MachineStatus::Finished;
                    return Slice {
                        cost: spent,
                        stop: StopReason::Error(msg),
                    };
                }
            };
            let alloc_words = ctx.area.total_allocated() - before;
            let cost = step.base_cost + alloc_words * C_ALLOC_WORD;
            spent += cost;
            self.cost_total += cost;
            match step.outcome {
                Outcome::Continue => {
                    if ctx.checkpoint {
                        ctx.checkpoint = false;
                        return Slice {
                            cost: spent,
                            stop: StopReason::Checkpoint,
                        };
                    }
                    if !ctx.sparks.is_empty() {
                        return Slice {
                            cost: spent,
                            stop: StopReason::Sparked,
                        };
                    }
                }
                Outcome::Blocked(r) => {
                    self.status = MachineStatus::Blocked;
                    return Slice {
                        cost: spent,
                        stop: StopReason::Blocked(r),
                    };
                }
                Outcome::Finished(r) => {
                    self.status = MachineStatus::Finished;
                    return Slice {
                        cost: spent,
                        stop: StopReason::Finished(r),
                    };
                }
            }
        }
    }

    // ----- single transition -----

    fn step(&mut self, ctx: &mut RunCtx<'_>) -> Result<Step, String> {
        // Take the code out; every branch must put something back or end.
        let code = std::mem::replace(&mut self.code, Code::Return(NodeRef(u32::MAX)));
        match code {
            Code::Eval(e, env) => self.eval(e, env, ctx),
            Code::Enter(r) => self.enter_node(r, ctx),
            Code::Return(r) => self.return_node(r, ctx),
            Code::Kernel {
                result,
                cost_left,
                alloc_left,
            } => {
                let piece = cost_left.min(KERNEL_PIECE);
                let alloc_piece = kernel_alloc_piece(alloc_left, piece, cost_left);
                if ctx.area.charge(alloc_piece) == AllocOutcome::Checkpoint {
                    ctx.checkpoint = true;
                }
                if cost_left > piece {
                    self.code = Code::Kernel {
                        result,
                        cost_left: cost_left - piece,
                        alloc_left: alloc_left - alloc_piece,
                    };
                } else {
                    self.code = Code::Return(result);
                }
                Ok(Step::cont(piece))
            }
        }
    }

    fn eval(&mut self, e: E, mut env: Env, ctx: &mut RunCtx<'_>) -> Result<Step, String> {
        match &*e {
            Expr::Atom(a) => {
                let r = self.atom(a, &env, ctx)?;
                self.code = Code::Enter(r);
                Ok(Step::cont(C_STEP))
            }
            Expr::App { sc, args } => {
                let nodes: Env = self.atoms(args, &env, ctx)?;
                self.call_sc(*sc, nodes, ctx)
            }
            Expr::AppVar { f, args } => {
                let fr = self.atom(f, &env, ctx)?;
                let nodes = self.atoms(args, &env, ctx)?;
                self.konts.push(Kont::ApplyK { args: nodes });
                self.code = Code::Enter(fr);
                Ok(Step::cont(C_STEP))
            }
            Expr::Prim { op, args } => {
                let nodes: Vec<NodeRef> = self.atoms(args, &env, ctx)?;
                if nodes.len() != op.arity() {
                    return Err(format!("{op:?} applied to {} args", nodes.len()));
                }
                let first = nodes[0];
                self.konts.push(Kont::PrimK {
                    op: *op,
                    nodes,
                    next: 1,
                });
                self.code = Code::Enter(first);
                Ok(Step::cont(C_STEP))
            }
            Expr::Let { rhss, body } => {
                for rhs in rhss {
                    let r = self.alloc_rhs(rhs, &env, ctx)?;
                    env.push(r);
                }
                self.code = Code::Eval(body.clone(), env);
                Ok(Step::cont(C_STEP))
            }
            Expr::Case { scrut, alts } => {
                self.konts.push(Kont::Case {
                    alts: alts.clone(),
                    env: env.clone(),
                });
                self.code = Code::Eval(scrut.clone(), env);
                Ok(Step::cont(C_STEP))
            }
            Expr::Par { spark, body } => {
                let r = self.atom(spark, &env, ctx)?;
                ctx.sparks.push(r);
                self.code = Code::Eval(body.clone(), env);
                Ok(Step::cont(C_PAR))
            }
            Expr::Seq { a, b } => {
                self.konts.push(Kont::Seq {
                    b: b.clone(),
                    env: env.clone(),
                });
                self.code = Code::Eval(a.clone(), env);
                Ok(Step::cont(C_STEP))
            }
            Expr::If { cond, then_, else_ } => {
                self.konts.push(Kont::Case {
                    alts: Alts::Bool {
                        tt: then_.clone(),
                        ff: else_.clone(),
                    },
                    env: env.clone(),
                });
                self.code = Code::Eval(cond.clone(), env);
                Ok(Step::cont(C_STEP))
            }
        }
    }

    fn enter_node(&mut self, r: NodeRef, ctx: &mut RunCtx<'_>) -> Result<Step, String> {
        let r = ctx.heap.resolve(r);
        match ctx.heap.claim_thunk(r, ctx.eager_blackhole) {
            Claim::Whnf => {
                self.code = Code::Return(r);
                Ok(Step::cont(C_STEP))
            }
            Claim::Busy => {
                // Stay in Enter(r): on wake, the node will be an Ind to
                // the value and entering it succeeds immediately.
                self.code = Code::Enter(r);
                Ok(Step {
                    base_cost: C_STEP,
                    outcome: Outcome::Blocked(r),
                })
            }
            Claim::Run { sc, args } => {
                self.konts.push(Kont::Update {
                    node: r,
                    start_cost: self.cost_total,
                });
                self.call_sc(sc, args, ctx)
            }
        }
    }

    /// Tail-call `sc` with evaluated-or-thunk argument nodes: an
    /// [`Args`] straight from an entered thunk, or a `Vec` built by an
    /// application. An IR body takes them as its environment (a `Vec`),
    /// a kernel keeps them as they came out of the thunk.
    fn call_sc<A>(&mut self, sc: ScId, nodes: A, ctx: &mut RunCtx<'_>) -> Result<Step, String>
    where
        A: std::ops::Deref<Target = [NodeRef]> + Into<Env> + Into<Args>,
    {
        let scdef = ctx.program.sc(sc);
        if nodes.len() != scdef.arity {
            return Err(format!(
                "{} called with {} args (arity {})",
                scdef.name,
                nodes.len(),
                scdef.arity
            ));
        }
        match &scdef.body {
            ScBody::Expr(body) => {
                self.code = Code::Eval(body.clone(), nodes.into());
                Ok(Step::cont(C_CLAIM))
            }
            ScBody::Kernel(_) => {
                if nodes.is_empty() {
                    return self.run_kernel(sc, &[], ctx);
                }
                let first = nodes[0];
                self.konts.push(Kont::KernelK {
                    sc,
                    nodes: nodes.into(),
                    next: 1,
                });
                self.code = Code::Enter(first);
                Ok(Step::cont(C_CLAIM))
            }
        }
    }

    fn run_kernel(
        &mut self,
        sc: ScId,
        nodes: &[NodeRef],
        ctx: &mut RunCtx<'_>,
    ) -> Result<Step, String> {
        // The program outlives the slice, so the kernel is borrowed for
        // the call rather than its `Arc` cloned.
        let program: &Program = ctx.program;
        let ScBody::Kernel(kernel) = &program.sc(sc).body else {
            unreachable!("run_kernel on an IR body")
        };
        // Kernels see fully resolved argument nodes.
        let resolved: Args = nodes.iter().map(|r| ctx.heap.resolve(*r)).collect();
        let alloc_before = ctx.heap.stats().allocated_words;
        let out = kernel(ctx.heap, &resolved);
        let real_alloc = ctx.heap.stats().allocated_words - alloc_before;
        ctx.heap.charge_transient(out.transient_words);
        // The Rust closure computed the result instantly; the thread
        // now pays the loop's virtual cost (and allocation) off in
        // pieces — see `Code::Kernel`.
        self.code = Code::Kernel {
            result: out.result,
            cost_left: out.cost.max(1),
            alloc_left: real_alloc + out.transient_words,
        };
        Ok(Step::cont(0))
    }

    fn return_node(&mut self, r: NodeRef, ctx: &mut RunCtx<'_>) -> Result<Step, String> {
        let Some(kont) = self.konts.pop() else {
            return Ok(Step {
                base_cost: C_STEP,
                outcome: Outcome::Finished(r),
            });
        };
        match kont {
            Kont::Case { alts, env } => self.select_alt(r, alts, env, ctx),
            Kont::Update { node, start_cost } => {
                let rep = ctx.heap.update(node, r);
                ctx.woken.extend(rep.woken);
                if rep.duplicate {
                    ctx.duplicate_work
                        .push(self.cost_total.saturating_sub(start_cost));
                }
                self.code = Code::Return(r);
                Ok(Step::cont(C_UPDATE))
            }
            Kont::Seq { b, env } => {
                self.code = Code::Eval(b, env);
                Ok(Step::cont(C_STEP))
            }
            Kont::PrimK { op, nodes, next } => {
                if next < nodes.len() {
                    let n = nodes[next];
                    self.konts.push(Kont::PrimK {
                        op,
                        nodes,
                        next: next + 1,
                    });
                    self.code = Code::Enter(n);
                    Ok(Step::cont(C_STEP))
                } else {
                    self.apply_prim_now(op, &nodes, ctx)
                }
            }
            Kont::KernelK { sc, nodes, next } => {
                if next < nodes.len() {
                    let n = nodes[next];
                    self.konts.push(Kont::KernelK {
                        sc,
                        nodes,
                        next: next + 1,
                    });
                    self.code = Code::Enter(n);
                    Ok(Step::cont(C_STEP))
                } else {
                    self.run_kernel(sc, &nodes, ctx)
                }
            }
            Kont::ApplyK { args } => self.apply_value(r, args, ctx),
            Kont::DeepK { root, mut pending } => {
                // The node just returned is in WHNF; queue its children.
                self.child_buf.clear();
                let resolved = ctx.heap.resolve(r);
                if let Some(v) = ctx.heap.whnf(resolved) {
                    v.push_children(&mut self.child_buf);
                }
                pending.extend(self.child_buf.iter().copied());
                match pending.pop() {
                    Some(next) => {
                        self.konts.push(Kont::DeepK { root, pending });
                        self.code = Code::Enter(next);
                        Ok(Step::cont(C_STEP))
                    }
                    None => {
                        self.code = Code::Return(root);
                        Ok(Step::cont(C_STEP))
                    }
                }
            }
        }
    }

    fn apply_prim_now(
        &mut self,
        op: PrimOp,
        nodes: &[NodeRef],
        ctx: &mut RunCtx<'_>,
    ) -> Result<Step, String> {
        if op == PrimOp::DeepSeq {
            // Switch to deep forcing of the (already WHNF) operand.
            let root = ctx.heap.resolve(nodes[0]);
            self.konts.push(Kont::DeepK {
                root,
                pending: Vec::new(),
            });
            self.code = Code::Return(root);
            return Ok(Step::cont(C_STEP));
        }
        let vals: Vec<&Value> = nodes
            .iter()
            .map(|r| {
                ctx.heap
                    .whnf(*r)
                    .ok_or_else(|| format!("{op:?}: operand {r} not in WHNF"))
            })
            .collect::<Result<_, _>>()?;
        let result = apply_prim(op, &vals).map_err(|e: PrimError| e.to_string())?;
        let node = ctx.alloc(Cell::Value(result));
        self.code = Code::Return(node);
        Ok(Step::cont(op.cost()))
    }

    fn apply_value(
        &mut self,
        f: NodeRef,
        args: Vec<NodeRef>,
        ctx: &mut RunCtx<'_>,
    ) -> Result<Step, String> {
        let f = ctx.heap.resolve(f);
        let (sc, mut have) = match ctx.heap.whnf(f) {
            Some(Value::Pap { sc, args }) => (*sc, args.to_vec()),
            Some(other) => return Err(format!("applying non-function {other:?}")),
            None => return Err(format!("applying unevaluated node {f}")),
        };
        have.extend(args);
        let arity = ctx.program.sc(sc).arity;
        match have.len().cmp(&arity) {
            std::cmp::Ordering::Less => {
                let node = ctx.alloc(Cell::Value(Value::Pap {
                    sc,
                    args: have.into(),
                }));
                self.code = Code::Return(node);
                Ok(Step::cont(C_STEP))
            }
            std::cmp::Ordering::Equal => self.call_sc(sc, have, ctx),
            std::cmp::Ordering::Greater => {
                // Saturate the sc with the first `arity` args, then
                // apply the result to the rest.
                let rest = have.split_off(arity);
                self.konts.push(Kont::ApplyK { args: rest });
                self.call_sc(sc, have, ctx)
            }
        }
    }

    fn select_alt(
        &mut self,
        r: NodeRef,
        alts: Alts,
        mut env: Env,
        ctx: &mut RunCtx<'_>,
    ) -> Result<Step, String> {
        let r = ctx.heap.resolve(r);
        let v = ctx
            .heap
            .whnf(r)
            .ok_or_else(|| format!("case scrutinee {r} not in WHNF"))?;
        match alts {
            Alts::List { nil, cons } => match v {
                Value::Nil => {
                    self.code = Code::Eval(nil, env);
                    Ok(Step::cont(C_STEP))
                }
                Value::Cons(h, t) => {
                    env.push(*h);
                    env.push(*t);
                    self.code = Code::Eval(cons, env);
                    Ok(Step::cont(C_STEP))
                }
                other => Err(format!("case-of-list on {other:?}")),
            },
            Alts::Bool { tt, ff } => match v {
                Value::Bool(true) => {
                    self.code = Code::Eval(tt, env);
                    Ok(Step::cont(C_STEP))
                }
                Value::Bool(false) => {
                    self.code = Code::Eval(ff, env);
                    Ok(Step::cont(C_STEP))
                }
                other => Err(format!("case-of-bool on {other:?}")),
            },
            Alts::Tuple { arity, body } => match v {
                Value::Tuple(fields) => {
                    if fields.len() != arity {
                        return Err(format!(
                            "case-of-tuple arity {arity} on {}-tuple",
                            fields.len()
                        ));
                    }
                    env.extend_from_slice(fields);
                    self.code = Code::Eval(body, env);
                    Ok(Step::cont(C_STEP))
                }
                other => Err(format!("case-of-tuple on {other:?}")),
            },
            Alts::Force(e) => {
                self.code = Code::Eval(e, env);
                Ok(Step::cont(C_STEP))
            }
        }
    }

    // ----- atoms & allocation -----

    fn atom(&mut self, a: &Atom, env: &Env, ctx: &mut RunCtx<'_>) -> Result<NodeRef, String> {
        match a {
            Atom::Var(i) => env
                .get(*i)
                .copied()
                .ok_or_else(|| format!("unbound variable slot {i} (env has {})", env.len())),
            Atom::Lit(l) => Ok(ctx.alloc(Cell::Value(l.to_value()))),
        }
    }

    /// The nodes of `atoms`, collected into whatever holds them next:
    /// an environment, a thunk's [`Args`] (no `Vec` in between), a
    /// value's boxed fields.
    fn atoms<'e, C: FromIterator<NodeRef>>(
        &mut self,
        atoms: impl IntoIterator<Item = &'e Atom>,
        env: &Env,
        ctx: &mut RunCtx<'_>,
    ) -> Result<C, String> {
        atoms.into_iter().map(|a| self.atom(a, env, ctx)).collect()
    }

    fn alloc_rhs(
        &mut self,
        rhs: &LetRhs,
        env: &Env,
        ctx: &mut RunCtx<'_>,
    ) -> Result<NodeRef, String> {
        Ok(match rhs {
            LetRhs::Thunk { sc, args } => {
                let args = self.atoms(args, env, ctx)?;
                ctx.alloc(Cell::Thunk { sc: *sc, args })
            }
            LetRhs::ThunkApp { f, args } => {
                // A dynamic-call thunk: suspended `$apply f args`,
                // implemented with the program's apply combinator.
                let apply = ctx
                    .program
                    .lookup(&crate::prelude::apply_name(args.len()))
                    .ok_or_else(|| {
                        format!(
                            "program lacks {} (register the prelude, or call ProgramBuilder::ensure_applies)",
                            crate::prelude::apply_name(args.len())
                        )
                    })?;
                let args = self.atoms(std::iter::once(f).chain(args), env, ctx)?;
                ctx.alloc(Cell::Thunk { sc: apply, args })
            }
            LetRhs::Cons(h, t) => {
                let h = self.atom(h, env, ctx)?;
                let t = self.atom(t, env, ctx)?;
                ctx.alloc(Cell::Value(Value::Cons(h, t)))
            }
            LetRhs::Nil => ctx.alloc(Cell::Value(Value::Nil)),
            LetRhs::Tuple(fields) => {
                let fields = self.atoms(fields, env, ctx)?;
                ctx.alloc(Cell::Value(Value::Tuple(fields)))
            }
            LetRhs::Lit(l) => ctx.alloc(Cell::Value(l.to_value())),
            LetRhs::Pap { sc, args } => {
                let args = self.atoms(args, env, ctx)?;
                ctx.alloc(Cell::Value(Value::Pap { sc: *sc, args }))
            }
        })
    }
}

/// The share of a kernel's remaining allocation charged with one
/// `piece` of its remaining cost: `alloc_left * piece / cost_left`,
/// rounded down, and everything that is left with the final piece. The
/// product fits `u64` for any real kernel (`piece` is at most
/// [`KERNEL_PIECE`]), so the 128-bit division — a library call, once
/// per piece — is only the fallback.
pub(crate) fn kernel_alloc_piece(alloc_left: u64, piece: u64, cost_left: u64) -> u64 {
    if cost_left <= piece {
        return alloc_left;
    }
    match alloc_left.checked_mul(piece) {
        Some(product) => product / cost_left,
        None => (alloc_left as u128 * piece as u128 / cost_left as u128) as u64,
    }
}

struct Step {
    base_cost: u64,
    outcome: Outcome,
}

impl Step {
    fn cont(base_cost: u64) -> Self {
        Step {
            base_cost,
            outcome: Outcome::Continue,
        }
    }
}

enum Outcome {
    Continue,
    Blocked(NodeRef),
    Finished(NodeRef),
}
