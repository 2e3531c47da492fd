//! Property tests for the heap: the collector keeps exactly the
//! reachable cells, and subgraph copying preserves structure and
//! sharing.

use proptest::prelude::*;
use rph_heap::gc::Collector;
use rph_heap::{copy_subgraph, Cell, Heap, NodeRef, ParMarkCosts, ScId, Value};

/// A recipe for one heap node; indices refer to previously built nodes.
#[derive(Debug, Clone)]
enum NodeSpec {
    Int(i64),
    Nil,
    Cons { head: usize, tail: usize },
    Tuple(Vec<usize>),
    Array(u8),
    Thunk(Vec<usize>),
}

fn spec_strategy() -> impl Strategy<Value = NodeSpec> {
    prop_oneof![
        (-50i64..50).prop_map(NodeSpec::Int),
        Just(NodeSpec::Nil),
        (any::<usize>(), any::<usize>()).prop_map(|(head, tail)| NodeSpec::Cons { head, tail }),
        proptest::collection::vec(any::<usize>(), 2..4).prop_map(NodeSpec::Tuple),
        (0u8..10).prop_map(NodeSpec::Array),
        proptest::collection::vec(any::<usize>(), 0..3).prop_map(NodeSpec::Thunk),
    ]
}

/// Build a random heap graph; references always point backwards, so
/// the graph is a DAG with sharing.
fn build(heap: &mut Heap, specs: &[NodeSpec]) -> Vec<NodeRef> {
    let mut nodes: Vec<NodeRef> = Vec::new();
    for spec in specs {
        let pick = |i: usize, nodes: &[NodeRef], heap: &mut Heap| -> NodeRef {
            if nodes.is_empty() {
                heap.int(0)
            } else {
                nodes[i % nodes.len()]
            }
        };
        let n = match spec {
            NodeSpec::Int(i) => heap.int(*i),
            NodeSpec::Nil => heap.alloc_value(Value::Nil),
            NodeSpec::Cons { head, tail } => {
                let h = pick(*head, &nodes, heap);
                let t = pick(*tail, &nodes, heap);
                heap.alloc_value(Value::Cons(h, t))
            }
            NodeSpec::Tuple(fields) => {
                let fs: Vec<NodeRef> = fields.iter().map(|i| pick(*i, &nodes, heap)).collect();
                heap.alloc_value(Value::Tuple(fs.into()))
            }
            NodeSpec::Array(len) => {
                heap.alloc_value(Value::DArray((0..*len).map(|x| x as f64).collect()))
            }
            NodeSpec::Thunk(args) => {
                let aa: Vec<NodeRef> = args.iter().map(|i| pick(*i, &nodes, heap)).collect();
                heap.alloc_thunk(ScId(0), aa)
            }
        };
        nodes.push(n);
    }
    nodes
}

/// Reachable set computed independently of the collector.
fn reachable(heap: &Heap, roots: &[NodeRef]) -> std::collections::HashSet<NodeRef> {
    let mut seen = std::collections::HashSet::new();
    let mut stack: Vec<NodeRef> = roots.to_vec();
    let mut buf = Vec::new();
    while let Some(r) = stack.pop() {
        if !seen.insert(r) {
            continue;
        }
        buf.clear();
        heap.get(r).push_children(&mut buf);
        stack.extend(buf.iter().copied());
    }
    seen
}

/// The parallel mark schedule under the rule `collect_parallel` used
/// before it counted splittable stacks: a GC thread may act if its own
/// stack is non-empty or — found by scanning every other stack — some
/// victim holds at least two grey cells. Kept as the reference: returns
/// the per-thread clocks, the steal count and the marked set.
fn par_mark_by_scan(
    heap: &Heap,
    roots_by_cap: &[Vec<NodeRef>],
    costs: &ParMarkCosts,
) -> (Vec<u64>, u64, std::collections::HashSet<NodeRef>) {
    let caps = roots_by_cap.len();
    let mut marked = std::collections::HashSet::new();
    let mut stacks: Vec<Vec<NodeRef>> = vec![Vec::new(); caps];
    for (i, roots) in roots_by_cap.iter().enumerate() {
        for &r in roots {
            if marked.insert(r) {
                stacks[i].push(r);
            }
        }
    }
    let mut clocks = vec![0u64; caps];
    let mut grey_steals = 0;
    let mut children = Vec::new();
    loop {
        let mut next: Option<usize> = None;
        for q in 0..caps {
            let can_act = !stacks[q].is_empty()
                || stacks
                    .iter()
                    .enumerate()
                    .any(|(v, s)| v != q && s.len() >= 2);
            if can_act && next.is_none_or(|b| clocks[q] < clocks[b]) {
                next = Some(q);
            }
        }
        let Some(q) = next else { break };
        if let Some(r) = stacks[q].pop() {
            clocks[q] += costs.mark_cell + heap.get(r).words() * costs.per_word;
            children.clear();
            heap.get(r).push_children(&mut children);
            for &c in &children {
                if marked.insert(c) {
                    stacks[q].push(c);
                }
            }
        } else {
            let victim = (0..caps)
                .filter(|&v| v != q && stacks[v].len() >= 2)
                .max_by_key(|&v| (stacks[v].len(), usize::MAX - v))
                .expect("schedulable empty thread has a victim");
            let take = stacks[victim].len() / 2;
            stacks[q] = stacks[victim].drain(..take).collect();
            clocks[q] = clocks[q].max(clocks[victim]) + costs.steal;
            grey_steals += 1;
        }
    }
    (clocks, grey_steals, marked)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `collect_parallel` decides in O(1) whether a GC thread can act;
    /// the schedule it produces — every thread's clock, the number of
    /// grey-stack steals, what survives — is the scan rule's, at 1 to
    /// 64 GC threads and with roots spread evenly or piled on a few.
    #[test]
    fn parallel_mark_schedule_matches_the_scan_rule(
        specs in proptest::collection::vec(spec_strategy(), 1..120),
        root_picks in proptest::collection::vec((any::<usize>(), any::<usize>()), 0..24),
        threads in 1usize..65,
        crowd in 1usize..65,
    ) {
        let mut heap = Heap::new();
        let nodes = build(&mut heap, &specs);
        // `crowd` < `threads` leaves GC threads without roots: they
        // start by stealing.
        let mut roots_by_cap: Vec<Vec<NodeRef>> = vec![Vec::new(); threads];
        for (node, cap) in &root_picks {
            roots_by_cap[cap % crowd.min(threads)].push(nodes[node % nodes.len()]);
        }
        let costs = ParMarkCosts { mark_cell: 7, per_word: 3, steal: 40 };
        let (clocks, grey_steals, marked) = par_mark_by_scan(&heap, &roots_by_cap, &costs);
        let (res, report) = Collector::new().collect_parallel(&mut heap, &roots_by_cap, &costs);
        prop_assert_eq!(report.cap_clocks, clocks);
        prop_assert_eq!(report.grey_steals, grey_steals);
        prop_assert_eq!(res.live_cells as usize, marked.len());
        for n in &nodes {
            prop_assert_eq!(heap.is_free(*n), !marked.contains(n), "node {} liveness", n);
        }
    }

    /// After a collection, a cell is free iff it was unreachable.
    #[test]
    fn gc_keeps_exactly_the_reachable(
        specs in proptest::collection::vec(spec_strategy(), 1..60),
        root_picks in proptest::collection::vec(any::<usize>(), 0..4),
    ) {
        let mut heap = Heap::new();
        let nodes = build(&mut heap, &specs);
        let roots: Vec<NodeRef> = root_picks.iter().map(|i| nodes[i % nodes.len()]).collect();
        let live = reachable(&heap, &roots);
        let mut gc = Collector::new();
        let res = gc.collect(&mut heap, roots.clone());
        prop_assert_eq!(res.live_cells as usize, live.len());
        for n in &nodes {
            prop_assert_eq!(
                heap.is_free(*n),
                !live.contains(n),
                "node {} freed-ness mismatch", n
            );
        }
        // Idempotence: a second collection with the same roots frees
        // nothing more.
        let res2 = gc.collect(&mut heap, roots);
        prop_assert_eq!(res2.collected_cells, 0);
        prop_assert_eq!(res2.live_words, res.live_words);
    }

    /// Copying a random *normal-form* subgraph preserves its structure
    /// (compared via a canonical serialisation) and its sharing
    /// (distinct source cells → equally many distinct copies).
    #[test]
    fn copy_preserves_structure_and_sharing(
        specs in proptest::collection::vec(spec_strategy(), 1..40),
    ) {
        // Drop thunks: copy requires normal form.
        let specs: Vec<NodeSpec> = specs
            .into_iter()
            .map(|s| match s {
                NodeSpec::Thunk(_) => NodeSpec::Int(7),
                other => other,
            })
            .collect();
        let mut src = Heap::new();
        let nodes = build(&mut src, &specs);
        let root = *nodes.last().unwrap();
        let mut dst = Heap::new();
        let (copied, words) = copy_subgraph(&src, root, &mut dst).expect("NF copy");
        prop_assert!(words > 0);
        prop_assert_eq!(canon(&src, root), canon(&dst, copied));
        let src_cells = reachable(&src, &[root]).len();
        let dst_cells = reachable(&dst, &[copied]).len();
        prop_assert_eq!(src_cells, dst_cells, "sharing not preserved");
    }
}

/// Canonical string of a NF graph with sharing markers (first visit
/// prints structure; revisits print a back-reference index).
fn canon(heap: &Heap, root: NodeRef) -> String {
    fn go(
        heap: &Heap,
        r: NodeRef,
        ids: &mut std::collections::HashMap<NodeRef, usize>,
        out: &mut String,
    ) {
        let r = heap.resolve(r);
        if let Some(id) = ids.get(&r) {
            out.push_str(&format!("^{id}"));
            return;
        }
        let id = ids.len();
        ids.insert(r, id);
        match heap.get(r) {
            Cell::Value(Value::Int(i)) => out.push_str(&format!("i{i}")),
            Cell::Value(Value::Nil) => out.push_str("[]"),
            Cell::Value(Value::Cons(h, t)) => {
                out.push('(');
                go(heap, *h, ids, out);
                out.push(':');
                go(heap, *t, ids, out);
                out.push(')');
            }
            Cell::Value(Value::Tuple(fs)) => {
                out.push('<');
                for f in fs.iter() {
                    go(heap, *f, ids, out);
                    out.push(',');
                }
                out.push('>');
            }
            Cell::Value(Value::DArray(xs)) => out.push_str(&format!("a{}", xs.len())),
            other => out.push_str(&format!("?{other:?}")),
        }
    }
    let mut out = String::new();
    go(heap, root, &mut std::collections::HashMap::new(), &mut out);
    out
}
