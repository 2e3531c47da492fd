//! A big-step reference interpreter, a sequential driver, and graph↔Rust
//! conversion helpers.
//!
//! The reference interpreter implements the same call-by-need semantics
//! as [`crate::machine::Machine`] by direct recursion (no continuations,
//! no costs, always-eager black-holing so cyclic demand is caught as
//! `<<loop>>`). Property tests use it as the oracle the explicit-state
//! machine must agree with; workloads use [`run_seq`] as the sequential
//! baseline runner.

use crate::ir::{Alts, Atom, Expr, LetRhs, E};
use crate::machine::{Machine, RunCtx, StopReason};
use crate::primop::{apply_prim, PrimOp};
use crate::program::{Program, ScBody};
use rph_heap::heap::Claim;
use rph_heap::{AllocArea, Heap, NodeRef, ScId, Value};
use rph_trace::ThreadId;

/// Errors from the reference interpreter.
#[derive(Debug, Clone, PartialEq)]
pub enum RefError {
    /// Demanded a value under evaluation: `<<loop>>`.
    Loop(NodeRef),
    /// Any other program error (mirrors the machine's `Error`).
    Bad(String),
}

impl std::fmt::Display for RefError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefError::Loop(r) => write!(f, "<<loop>> at {r}"),
            RefError::Bad(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for RefError {}

/// Force `node` to WHNF by direct recursion (call-by-need: thunks are
/// updated in place, sharing preserved).
pub fn force_whnf(program: &Program, heap: &mut Heap, node: NodeRef) -> Result<NodeRef, RefError> {
    let r = heap.resolve(node);
    match heap.claim_thunk(r, true) {
        Claim::Whnf => Ok(r),
        Claim::Busy => Err(RefError::Loop(r)),
        Claim::Run { sc, args } => {
            let result = call(program, heap, sc, args.into())?;
            heap.update(r, result);
            Ok(heap.resolve(result))
        }
    }
}

/// Force `node` to full normal form.
pub fn force_deep(program: &Program, heap: &mut Heap, node: NodeRef) -> Result<NodeRef, RefError> {
    let r = force_whnf(program, heap, node)?;
    let mut kids = Vec::new();
    if let Some(value) = heap.whnf(r) {
        value.push_children(&mut kids);
    }
    for k in kids {
        force_deep(program, heap, k)?;
    }
    Ok(r)
}

fn call(
    program: &Program,
    heap: &mut Heap,
    sc: ScId,
    args: Vec<NodeRef>,
) -> Result<NodeRef, RefError> {
    let scdef = program.sc(sc);
    if args.len() != scdef.arity {
        return Err(RefError::Bad(format!(
            "{} called with {} args (arity {})",
            scdef.name,
            args.len(),
            scdef.arity
        )));
    }
    match &scdef.body {
        ScBody::Expr(body) => eval(program, heap, body, args),
        ScBody::Kernel(k) => {
            let k = k.clone();
            let resolved: Vec<NodeRef> = args
                .iter()
                .map(|a| force_whnf(program, heap, *a))
                .collect::<Result<_, _>>()?;
            Ok(k(heap, &resolved).result)
        }
    }
}

fn eval(
    program: &Program,
    heap: &mut Heap,
    e: &E,
    mut env: Vec<NodeRef>,
) -> Result<NodeRef, RefError> {
    match &**e {
        Expr::Atom(a) => {
            let r = atom(heap, a, &env)?;
            force_whnf(program, heap, r)
        }
        Expr::App { sc, args } => {
            let nodes = atoms(heap, args, &env)?;
            call(program, heap, *sc, nodes)
        }
        Expr::AppVar { f, args } => {
            let fr = atom(heap, f, &env)?;
            let nodes = atoms(heap, args, &env)?;
            apply_value(program, heap, fr, nodes)
        }
        Expr::Prim { op, args } => {
            let nodes = atoms(heap, args, &env)?;
            if *op == PrimOp::DeepSeq {
                return force_deep(program, heap, nodes[0]);
            }
            let forced: Vec<NodeRef> = nodes
                .into_iter()
                .map(|n| force_whnf(program, heap, n))
                .collect::<Result<_, _>>()?;
            let vals: Vec<&Value> = forced
                .iter()
                .map(|r| heap.whnf(*r).expect("just forced"))
                .collect();
            let out = apply_prim(*op, &vals).map_err(|e| RefError::Bad(e.to_string()))?;
            Ok(heap.alloc_value(out))
        }
        Expr::Let { rhss, body } => {
            for rhs in rhss {
                let r = alloc_rhs(program, heap, rhs, &env)?;
                env.push(r);
            }
            eval(program, heap, body, env)
        }
        Expr::Case { scrut, alts } => {
            let s = eval(program, heap, scrut, env.clone())?;
            let v = heap
                .whnf(s)
                .cloned()
                .ok_or_else(|| RefError::Bad("case: not WHNF".into()))?;
            match alts {
                Alts::List { nil, cons } => match v {
                    Value::Nil => eval(program, heap, nil, env),
                    Value::Cons(h, t) => {
                        env.push(h);
                        env.push(t);
                        eval(program, heap, cons, env)
                    }
                    other => Err(RefError::Bad(format!("case-of-list on {other:?}"))),
                },
                Alts::Bool { tt, ff } => match v {
                    Value::Bool(true) => eval(program, heap, tt, env),
                    Value::Bool(false) => eval(program, heap, ff, env),
                    other => Err(RefError::Bad(format!("case-of-bool on {other:?}"))),
                },
                Alts::Tuple { arity, body } => match v {
                    Value::Tuple(fields) if fields.len() == *arity => {
                        env.extend_from_slice(&fields);
                        eval(program, heap, body, env)
                    }
                    other => Err(RefError::Bad(format!("case-of-tuple on {other:?}"))),
                },
                Alts::Force(k) => eval(program, heap, k, env),
            }
        }
        // The reference interpreter is sequential: `par` is a no-op on
        // its spark (the GpH semantics — sparks are only *hints*).
        Expr::Par { body, .. } => eval(program, heap, body, env),
        Expr::Seq { a, b } => {
            eval(program, heap, a, env.clone())?;
            eval(program, heap, b, env)
        }
        Expr::If { cond, then_, else_ } => {
            let c = eval(program, heap, cond, env.clone())?;
            match heap.whnf(c) {
                Some(Value::Bool(true)) => eval(program, heap, then_, env),
                Some(Value::Bool(false)) => eval(program, heap, else_, env),
                other => Err(RefError::Bad(format!("if on {other:?}"))),
            }
        }
    }
}

fn apply_value(
    program: &Program,
    heap: &mut Heap,
    f: NodeRef,
    args: Vec<NodeRef>,
) -> Result<NodeRef, RefError> {
    let fw = force_whnf(program, heap, f)?;
    let (sc, mut have) = match heap.whnf(fw) {
        Some(Value::Pap { sc, args }) => (*sc, args.to_vec()),
        other => return Err(RefError::Bad(format!("applying non-function {other:?}"))),
    };
    have.extend(args);
    let arity = program.sc(sc).arity;
    match have.len().cmp(&arity) {
        std::cmp::Ordering::Less => Ok(heap.alloc_value(Value::Pap {
            sc,
            args: have.into(),
        })),
        std::cmp::Ordering::Equal => call(program, heap, sc, have),
        std::cmp::Ordering::Greater => {
            let rest = have.split_off(arity);
            let g = call(program, heap, sc, have)?;
            apply_value(program, heap, g, rest)
        }
    }
}

fn atom(heap: &mut Heap, a: &Atom, env: &[NodeRef]) -> Result<NodeRef, RefError> {
    match a {
        Atom::Var(i) => env
            .get(*i)
            .copied()
            .ok_or_else(|| RefError::Bad(format!("unbound slot {i}"))),
        Atom::Lit(l) => Ok(heap.alloc_value(l.to_value())),
    }
}

fn atoms(heap: &mut Heap, aa: &[Atom], env: &[NodeRef]) -> Result<Vec<NodeRef>, RefError> {
    aa.iter().map(|a| atom(heap, a, env)).collect()
}

fn alloc_rhs(
    program: &Program,
    heap: &mut Heap,
    rhs: &LetRhs,
    env: &[NodeRef],
) -> Result<NodeRef, RefError> {
    Ok(match rhs {
        LetRhs::Thunk { sc, args } => {
            let nodes = atoms(heap, args, env)?;
            heap.alloc_thunk(*sc, nodes)
        }
        LetRhs::ThunkApp { f, args } => {
            let apply = program
                .lookup(&crate::prelude::apply_name(args.len()))
                .ok_or_else(|| RefError::Bad("missing $apply".into()))?;
            let mut nodes = vec![atom(heap, f, env)?];
            for a in args {
                nodes.push(atom(heap, a, env)?);
            }
            heap.alloc_thunk(apply, nodes)
        }
        LetRhs::Cons(h, t) => {
            let h = atom(heap, h, env)?;
            let t = atom(heap, t, env)?;
            heap.alloc_value(Value::Cons(h, t))
        }
        LetRhs::Nil => heap.alloc_value(Value::Nil),
        LetRhs::Tuple(fs) => {
            let nodes = atoms(heap, fs, env)?;
            heap.alloc_value(Value::Tuple(nodes.into()))
        }
        LetRhs::Lit(l) => heap.alloc_value(l.to_value()),
        LetRhs::Pap { sc, args } => {
            let nodes = atoms(heap, args, env)?;
            heap.alloc_value(Value::Pap {
                sc: *sc,
                args: nodes.into(),
            })
        }
    })
}

// ---------------------------------------------------------------------
// Sequential driver (baseline runner) and conversion helpers.
// ---------------------------------------------------------------------

/// Run the explicit-state machine to completion on a single capability
/// with an effectively infinite allocation area (no GC, no scheduling):
/// the sequential baseline. Returns the WHNF result node and the total
/// cost in work units.
///
/// # Panics
/// Panics on program errors and on deadlock (a single thread blocking
/// on its own black hole is `<<loop>>`).
pub fn run_seq(program: &Program, heap: &mut Heap, entry: NodeRef) -> (NodeRef, u64) {
    let mut area = AllocArea::new(u64::MAX / 4, u64::MAX / 4);
    let mut m = Machine::enter(ThreadId(0), entry);
    let mut total = 0u64;
    loop {
        let mut ctx = RunCtx::new(program, heap, &mut area, true);
        let slice = m.run(&mut ctx, u64::MAX / 4);
        total += slice.cost;
        match slice.stop {
            StopReason::Finished(r) => return (r, total),
            StopReason::Checkpoint | StopReason::FuelExhausted | StopReason::Sparked => continue,
            StopReason::Blocked(r) => panic!("sequential run blocked: <<loop>> at {r}"),
            StopReason::Error(e) => panic!("program error: {e}"),
        }
    }
}

/// Like [`run_seq`] but forcing the result to full normal form.
pub fn run_seq_deep(program: &Program, heap: &mut Heap, entry: NodeRef) -> (NodeRef, u64) {
    let mut area = AllocArea::new(u64::MAX / 4, u64::MAX / 4);
    let mut m = Machine::enter_deep(ThreadId(0), entry);
    let mut total = 0u64;
    loop {
        let mut ctx = RunCtx::new(program, heap, &mut area, true);
        let slice = m.run(&mut ctx, u64::MAX / 4);
        total += slice.cost;
        match slice.stop {
            StopReason::Finished(r) => return (r, total),
            StopReason::Checkpoint | StopReason::FuelExhausted | StopReason::Sparked => continue,
            StopReason::Blocked(r) => panic!("sequential run blocked: <<loop>> at {r}"),
            StopReason::Error(e) => panic!("program error: {e}"),
        }
    }
}

/// Allocate a Haskell-style list of ints.
pub fn alloc_int_list(heap: &mut Heap, xs: &[i64]) -> NodeRef {
    let mut tail = heap.alloc_value(Value::Nil);
    for &x in xs.iter().rev() {
        let h = heap.int(x);
        tail = heap.alloc_value(Value::Cons(h, tail));
    }
    tail
}

/// Read a fully evaluated int list back into Rust.
///
/// # Panics
/// Panics if the spine or any element is unevaluated.
pub fn read_int_list(heap: &Heap, mut r: NodeRef) -> Vec<i64> {
    let mut out = Vec::new();
    loop {
        match heap.expect_value(r) {
            Value::Nil => return out,
            Value::Cons(h, t) => {
                out.push(heap.expect_value(*h).expect_int());
                r = *t;
            }
            other => panic!("not a list: {other:?}"),
        }
    }
}

/// Read a fully evaluated list of `DArray`s back into Rust.
pub fn read_darray_list(heap: &Heap, mut r: NodeRef) -> Vec<Vec<f64>> {
    let mut out = Vec::new();
    loop {
        match heap.expect_value(r) {
            Value::Nil => return out,
            Value::Cons(h, t) => {
                out.push(heap.expect_value(*h).expect_darray().to_vec());
                r = *t;
            }
            other => panic!("not a list: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::*;
    use crate::prelude;
    use crate::program::ProgramBuilder;

    fn with_prelude() -> (std::sync::Arc<Program>, prelude::Prelude) {
        let mut b = ProgramBuilder::new();
        let p = prelude::install(&mut b);
        (b.build(), p)
    }

    #[test]
    fn reference_evaluates_enum_and_sum() {
        let (prog, pre) = with_prelude();
        let mut heap = Heap::new();
        let lo = heap.int(1);
        let hi = heap.int(100);
        let xs = heap.alloc_thunk(pre.enum_from_to, vec![lo, hi]);
        let s = heap.alloc_thunk(pre.sum, vec![xs]);
        let r = force_whnf(&prog, &mut heap, s).unwrap();
        assert_eq!(heap.expect_value(r).expect_int(), 5050);
    }

    #[test]
    fn reference_detects_loop() {
        // Tie a genuinely cyclic demand: a forces b forces a.
        // loopy x = x + 1
        let mut b = ProgramBuilder::new();
        let _pre = prelude::install(&mut b);
        let f = b.declare("loopy", 1);
        b.define(f, prim(PrimOp::Add, vec![v(0), int(1)]));
        let prog = b.build();
        let mut heap = Heap::new();
        let placeholder = heap.int(0);
        let a_id = heap.alloc_thunk(f, vec![placeholder]);
        let b_id = heap.alloc_thunk(f, vec![a_id]);
        let a2 = heap.alloc_thunk(f, vec![b_id]);
        // Redirect a to a2 via an update: now a → a2 → b → a.
        heap.claim_thunk(a_id, true);
        heap.update(a_id, a2);
        let err = force_whnf(&prog, &mut heap, b_id).unwrap_err();
        assert!(matches!(err, RefError::Loop(_)));
    }

    #[test]
    fn run_seq_matches_reference() {
        let (prog, pre) = with_prelude();
        // sum (map inc [1..50]) both ways.
        let build = |heap: &mut Heap| {
            let lo = heap.int(1);
            let hi = heap.int(50);
            let xs = heap.alloc_thunk(pre.enum_from_to, vec![lo, hi]);
            let f = heap.alloc_value(Value::Pap {
                sc: pre.inc,
                args: Box::new([]),
            });
            let mapped = heap.alloc_thunk(pre.map, vec![f, xs]);
            heap.alloc_thunk(pre.sum, vec![mapped])
        };
        let mut h1 = Heap::new();
        let e1 = build(&mut h1);
        let r1 = force_whnf(&prog, &mut h1, e1).unwrap();
        let expect = (1..=50).map(|x| x + 1).sum::<i64>();
        assert_eq!(h1.expect_value(r1).expect_int(), expect);

        let mut h2 = Heap::new();
        let e2 = build(&mut h2);
        let (r2, cost) = run_seq(&prog, &mut h2, e2);
        assert_eq!(h2.expect_value(r2).expect_int(), expect);
        assert!(cost > 0);
    }

    #[test]
    fn list_roundtrip() {
        let mut heap = Heap::new();
        let xs = alloc_int_list(&mut heap, &[3, 1, 4, 1, 5]);
        assert_eq!(read_int_list(&heap, xs), vec![3, 1, 4, 1, 5]);
    }
}
