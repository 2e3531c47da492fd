//! Mark–sweep garbage collection.
//!
//! The paper's GC story (§IV.A.1) concerns *when* collections happen
//! (allocation-area exhaustion), *how* capabilities synchronise
//! (stop-the-world barrier at allocation checkpoints), and *what* a
//! collection costs (proportional to live data for a copying
//! collector). The barrier and the cost model live in the runtimes;
//! this module provides a real collector so that liveness is computed
//! from actual reachability, never assumed: workloads allocate real
//! cons spines, matrix blocks and thunk graphs, and an incorrect root
//! set would make results wrong, not just timings.

use crate::cell::Cell;
use crate::heap::{Heap, RegionId};
use crate::noderef::NodeRef;

/// Result of one collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcResult {
    pub live_cells: u64,
    pub live_words: u64,
    pub collected_cells: u64,
    pub collected_words: u64,
}

/// Result of one independent minor collection of a single nursery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinorGcResult {
    pub region: RegionId,
    /// Survivors evacuated (promoted) to the old generation.
    pub survivor_cells: u64,
    pub survivor_words: u64,
    /// Nursery garbage reclaimed.
    pub freed_cells: u64,
    pub freed_words: u64,
    /// Live remembered-set sources scanned (stale/freed sources skipped).
    pub remset_entries: u64,
}

/// Virtual-time costs of the parallel mark phase, supplied by the
/// runtime's cost model (this crate stays cost-model-agnostic).
#[derive(Debug, Clone, Copy)]
pub struct ParMarkCosts {
    /// Processing one grey cell (pop, examine, push children).
    pub mark_cell: u64,
    /// Evacuation cost per word of the cell (copying collector).
    pub per_word: u64,
    /// One grey-set steal (victim handshake + transfer).
    pub steal: u64,
}

/// What the parallel mark phase did, in virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParMarkReport {
    /// Per-capability GC-thread clocks; the pause is their max.
    pub cap_clocks: Vec<u64>,
    /// Grey-set steals performed during marking.
    pub grey_steals: u64,
}

impl ParMarkReport {
    /// The mark phase ends when the slowest GC thread finishes.
    pub fn max_clock(&self) -> u64 {
        self.cap_clocks.iter().copied().max().unwrap_or(0)
    }
}

/// Cumulative GC statistics for a heap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    pub collections: u64,
    pub total_collected_words: u64,
    pub max_live_words: u64,
}

/// A reusable mark–sweep collector (buffers persist across collections
/// to avoid re-allocating the mark bitmap and worklist each time).
#[derive(Debug, Default)]
pub struct Collector {
    marks: Vec<bool>,
    worklist: Vec<NodeRef>,
    child_buf: Vec<NodeRef>,
    stats: GcStats,
}

impl Collector {
    pub fn new() -> Self {
        Collector::default()
    }

    pub fn stats(&self) -> GcStats {
        self.stats
    }

    /// Collect `heap`, keeping exactly the cells reachable from `roots`.
    pub fn collect(
        &mut self,
        heap: &mut Heap,
        roots: impl IntoIterator<Item = NodeRef>,
    ) -> GcResult {
        let n = heap.capacity();
        self.marks.clear();
        self.marks.resize(n, false);
        self.worklist.clear();

        // Mark phase.
        for r in roots {
            self.mark_push(r);
        }
        while let Some(r) = self.worklist.pop() {
            self.child_buf.clear();
            heap.get(r).push_children(&mut self.child_buf);
            // Drain into the worklist without holding a borrow of heap.
            for i in 0..self.child_buf.len() {
                let c = self.child_buf[i];
                if !self.marks[c.index()] {
                    self.marks[c.index()] = true;
                    self.worklist.push(c);
                }
            }
        }

        // Sweep phase.
        let mut res = GcResult {
            live_cells: 0,
            live_words: 0,
            collected_cells: 0,
            collected_words: 0,
        };
        for idx in 0..n {
            let cell = &heap.cells()[idx];
            if matches!(cell, crate::cell::Cell::Free) {
                continue;
            }
            let words = cell.words();
            if self.marks[idx] {
                res.live_cells += 1;
                res.live_words += words;
            } else {
                res.collected_cells += 1;
                res.collected_words += words;
                heap.free_cell(idx);
            }
        }

        // A full collection leaves every survivor in the old
        // generation (no-op when nurseries are disabled).
        heap.reset_nurseries_after_major();

        self.stats.collections += 1;
        self.stats.total_collected_words += res.collected_words;
        self.stats.max_live_words = self.stats.max_live_words.max(res.live_words);
        debug_assert_eq!(res.live_words, heap.live_words());
        res
    }

    /// Independently collect one nursery `region`: mark the cells of
    /// that region reachable from `roots` (filtered to the region) and
    /// from the region's remembered set, promote survivors to the old
    /// generation, free the rest. Nothing outside the region is
    /// touched, so the pause depends only on this region's contents.
    ///
    /// `roots` should be the full runtime root set — the filter to
    /// region-resident targets happens here. Tracing is region-bounded:
    /// references leaving the region are not followed (the old
    /// generation is not collected; other nurseries are protected by
    /// their own remembered sets).
    pub fn collect_minor(
        &mut self,
        heap: &mut Heap,
        region: RegionId,
        roots: impl IntoIterator<Item = NodeRef>,
    ) -> MinorGcResult {
        let n = heap.capacity();
        self.marks.clear();
        self.marks.resize(n, false);
        self.worklist.clear();

        // Seed from runtime roots resident in this region.
        for r in roots {
            if heap.region_of(r) == region {
                self.mark_push(r);
            }
        }
        // Seed from the remembered set: sources outside the region
        // holding references into it. The set is drained — surviving
        // cross-region references into this nursery cannot exist after
        // the sweep, because every survivor is promoted.
        let remset = heap.take_remset(region);
        let mut remset_entries = 0u64;
        for src in remset {
            let cell = heap.get(NodeRef(src));
            if matches!(cell, Cell::Free) {
                continue; // stale source, freed since recording
            }
            remset_entries += 1;
            self.child_buf.clear();
            cell.push_children(&mut self.child_buf);
            for i in 0..self.child_buf.len() {
                let c = self.child_buf[i];
                if heap.region_of(c) == region {
                    self.mark_push(c);
                }
            }
        }

        // Region-bounded trace.
        while let Some(r) = self.worklist.pop() {
            self.child_buf.clear();
            heap.get(r).push_children(&mut self.child_buf);
            for i in 0..self.child_buf.len() {
                let c = self.child_buf[i];
                if heap.region_of(c) == region {
                    self.mark_push(c);
                }
            }
        }

        // Sweep the region's members: survivors are evacuated
        // (promoted, keeping their slot identity), garbage is freed.
        let members = heap.take_region_members(region);
        let mut res = MinorGcResult {
            region,
            survivor_cells: 0,
            survivor_words: 0,
            freed_cells: 0,
            freed_words: 0,
            remset_entries,
        };
        for idx in members {
            if heap.region_of(NodeRef(idx)) != region {
                continue; // stale member entry
            }
            let words = heap.get(NodeRef(idx)).words();
            if self.marks[idx as usize] {
                heap.promote_cell(idx as usize);
                res.survivor_cells += 1;
                res.survivor_words += words;
            } else {
                heap.free_cell(idx as usize);
                res.freed_cells += 1;
                res.freed_words += words;
            }
        }
        debug_assert_eq!(heap.nursery_words(region), 0, "nursery fully evacuated");

        self.stats.collections += 1;
        self.stats.total_collected_words += res.freed_words;
        res
    }

    /// Full collection with the mark phase modelled as `caps` parallel
    /// GC threads in virtual time: the root set is pre-partitioned by
    /// the caller (`roots_by_cap`), each GC thread traces its own grey
    /// stack, and an out-of-work thread steals half the grey stack of
    /// the deepest victim. Termination: all stacks empty. The returned
    /// report carries per-thread clocks; pause = max clock.
    ///
    /// The schedule is a deterministic discrete-event simulation — at
    /// each step the thread with the lowest clock (ties: lowest id)
    /// that can make progress acts. A thread with an empty stack and no
    /// victim holding ≥ 2 grey cells waits without advancing its clock,
    /// exactly like a GC thread idling at the termination barrier.
    pub fn collect_parallel(
        &mut self,
        heap: &mut Heap,
        roots_by_cap: &[Vec<NodeRef>],
        costs: &ParMarkCosts,
    ) -> (GcResult, ParMarkReport) {
        let caps = roots_by_cap.len().max(1);
        let n = heap.capacity();
        self.marks.clear();
        self.marks.resize(n, false);

        let mut stacks: Vec<Vec<NodeRef>> = vec![Vec::new(); caps];
        for (i, roots) in roots_by_cap.iter().enumerate() {
            for &r in roots {
                if !self.marks[r.index()] {
                    self.marks[r.index()] = true;
                    stacks[i].push(r);
                }
            }
        }

        let mut clocks = vec![0u64; caps];
        let mut grey_steals = 0u64;
        // Stacks a thief could split (≥ 2 grey cells). An empty stack is
        // never one of them, so "some *other* stack is splittable" is
        // just `splittable > 0` for the thread that asks.
        let splittable = |s: &Vec<NodeRef>| usize::from(s.len() >= 2);
        let mut splittable_stacks: usize = stacks.iter().map(splittable).sum();
        loop {
            // Schedulable: non-empty stack, or a steal is possible.
            let mut next: Option<usize> = None;
            for q in 0..caps {
                let can_act = !stacks[q].is_empty() || splittable_stacks > 0;
                if can_act && next.is_none_or(|b| clocks[q] < clocks[b]) {
                    next = Some(q);
                }
            }
            let Some(q) = next else { break };

            splittable_stacks -= splittable(&stacks[q]);
            if let Some(r) = stacks[q].pop() {
                let words = heap.get(r).words();
                clocks[q] += costs.mark_cell + words * costs.per_word;
                self.child_buf.clear();
                heap.get(r).push_children(&mut self.child_buf);
                for i in 0..self.child_buf.len() {
                    let c = self.child_buf[i];
                    if !self.marks[c.index()] {
                        self.marks[c.index()] = true;
                        stacks[q].push(c);
                    }
                }
            } else {
                // Steal half the deepest victim's grey stack (bottom
                // half — the oldest grey cells, as GHC's grey-packet
                // stealing does). Deterministic: deepest stack, ties to
                // the lowest id.
                let victim = (0..caps)
                    .filter(|&v| v != q && stacks[v].len() >= 2)
                    .max_by_key(|&v| (stacks[v].len(), usize::MAX - v))
                    .expect("schedulable empty thread has a victim");
                splittable_stacks -= 1;
                let take = stacks[victim].len() / 2;
                let stolen: Vec<NodeRef> = stacks[victim].drain(..take).collect();
                stacks[q] = stolen;
                splittable_stacks += splittable(&stacks[victim]);
                clocks[q] = clocks[q].max(clocks[victim]) + costs.steal;
                grey_steals += 1;
            }
            splittable_stacks += splittable(&stacks[q]);
        }

        // Serial sweep (accounted in the caller's fixed costs).
        let mut res = GcResult {
            live_cells: 0,
            live_words: 0,
            collected_cells: 0,
            collected_words: 0,
        };
        for idx in 0..n {
            let cell = &heap.cells()[idx];
            if matches!(cell, Cell::Free) {
                continue;
            }
            let words = cell.words();
            if self.marks[idx] {
                res.live_cells += 1;
                res.live_words += words;
            } else {
                res.collected_cells += 1;
                res.collected_words += words;
                heap.free_cell(idx);
            }
        }
        heap.reset_nurseries_after_major();

        self.stats.collections += 1;
        self.stats.total_collected_words += res.collected_words;
        self.stats.max_live_words = self.stats.max_live_words.max(res.live_words);
        debug_assert_eq!(res.live_words, heap.live_words());
        (
            res,
            ParMarkReport {
                cap_clocks: clocks,
                grey_steals,
            },
        )
    }

    fn mark_push(&mut self, r: NodeRef) {
        if !self.marks[r.index()] {
            self.marks[r.index()] = true;
            self.worklist.push(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use crate::noderef::ScId;
    use crate::value::Value;

    #[test]
    fn collects_unreachable_keeps_reachable() {
        let mut h = Heap::new();
        let a = h.int(1);
        let b = h.int(2);
        let cons = h.alloc_value(Value::Cons(a, b));
        let dead = h.int(99);
        let mut gc = Collector::new();
        let res = gc.collect(&mut h, [cons]);
        assert_eq!(res.live_cells, 3);
        assert_eq!(res.collected_cells, 1);
        assert!(h.is_free(dead));
        assert_eq!(h.expect_value(a).expect_int(), 1);
    }

    #[test]
    fn marks_through_thunks_and_inds() {
        let mut h = Heap::new();
        let x = h.int(5);
        let t = h.alloc_thunk(ScId(0), vec![x]);
        let i = h.alloc(Cell::Ind(t));
        let mut gc = Collector::new();
        let res = gc.collect(&mut h, [i]);
        assert_eq!(res.live_cells, 3);
        assert!(!h.is_free(x));
    }

    #[test]
    fn cyclic_graphs_terminate() {
        // let xs = 1 : xs  — build a knot via update.
        let mut h = Heap::new();
        let one = h.int(1);
        let t = h.alloc_thunk(ScId(0), vec![]);
        let cons = h.alloc_value(Value::Cons(one, t));
        h.claim_thunk(t, true);
        h.update(t, cons); // t -> Ind(cons): cycle cons -> t -> cons
        let mut gc = Collector::new();
        let res = gc.collect(&mut h, [cons]);
        assert_eq!(res.live_cells, 3);
        assert_eq!(res.collected_cells, 0);
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut h = Heap::new();
        let _dead = h.int(1);
        let root = h.int(2);
        let mut gc = Collector::new();
        gc.collect(&mut h, [root]);
        let cap_before = h.capacity();
        let _new = h.int(3);
        assert_eq!(h.capacity(), cap_before, "freed slot should be reused");
    }

    #[test]
    fn empty_roots_collect_everything() {
        let mut h = Heap::new();
        for i in 0..10 {
            h.int(i);
        }
        let mut gc = Collector::new();
        let res = gc.collect(&mut h, []);
        assert_eq!(res.collected_cells, 10);
        assert_eq!(h.live_words(), 0);
        assert_eq!(h.live_cells(), 0);
    }

    #[test]
    fn minor_gc_promotes_survivors_frees_garbage() {
        let mut h = Heap::new();
        h.enable_nurseries(2);
        h.set_alloc_region(Some(0));
        let keep = h.int(1);
        let chain = h.alloc(Cell::Ind(keep));
        let dead = h.int(99);
        let res = Collector::new().collect_minor(&mut h, 0, [chain]);
        assert_eq!(res.survivor_cells, 2);
        assert_eq!(res.survivor_words, 4);
        assert_eq!(res.freed_cells, 1);
        assert!(h.is_free(dead));
        // Survivors promoted: region empty, cells still readable.
        assert_eq!(h.nursery_words(0), 0);
        assert_eq!(h.region_of(keep), crate::heap::OLD_REGION);
        assert_eq!(h.expect_value(keep).expect_int(), 1);
    }

    #[test]
    fn minor_gc_keeps_cells_reachable_only_via_remset() {
        let mut h = Heap::new();
        h.enable_nurseries(2);
        // Young cell in region 0, referenced only from a region-1 cell.
        h.set_alloc_region(Some(0));
        let young = h.int(5);
        h.set_alloc_region(Some(1));
        let holder = h.alloc(Cell::Ind(young));
        // Minor GC of region 0 with NO runtime roots into it: the
        // remembered set alone must keep `young` alive.
        let res = Collector::new().collect_minor(&mut h, 0, [holder]);
        assert_eq!(res.survivor_cells, 1);
        assert_eq!(res.remset_entries, 1);
        assert!(!h.is_free(young));
        assert_eq!(h.expect_value(holder).expect_int(), 5);
    }

    #[test]
    fn minor_gc_does_not_touch_other_regions_or_old_gen() {
        let mut h = Heap::new();
        let old_garbage = h.int(1); // old gen, unreachable
        h.enable_nurseries(2);
        h.set_alloc_region(Some(1));
        let other = h.int(2); // region 1, unreachable
        h.set_alloc_region(Some(0));
        let mine = h.int(3);
        let res = Collector::new().collect_minor(&mut h, 0, [mine]);
        assert_eq!(res.survivor_cells, 1);
        assert_eq!(res.freed_cells, 0);
        assert!(!h.is_free(old_garbage), "old gen untouched by minor GC");
        assert!(!h.is_free(other), "foreign nursery untouched");
    }

    #[test]
    fn minor_gc_pause_inputs_independent_of_other_regions() {
        // The coupling bug this PR fixes: region 0's minor-GC result
        // (which prices the pause) must not change when region 1 or the
        // old generation holds vastly more data.
        let build = |other_cells: usize| {
            let mut h = Heap::new();
            h.enable_nurseries(2);
            h.set_alloc_region(Some(1));
            for i in 0..other_cells {
                h.int(i as i64);
            }
            h.set_alloc_region(Some(0));
            let keep = h.int(1);
            let root = h.alloc(Cell::Ind(keep));
            h.int(42); // garbage
            let res = Collector::new().collect_minor(&mut h, 0, [root]);
            (
                res.survivor_cells,
                res.survivor_words,
                res.freed_cells,
                res.freed_words,
                res.remset_entries,
            )
        };
        assert_eq!(build(1), build(10_000));
    }

    #[test]
    fn parallel_collect_matches_serial_liveness() {
        let mk = || {
            let mut h = Heap::new();
            let mut roots = Vec::new();
            for i in 0..40 {
                let a = h.int(i);
                let b = h.alloc(Cell::Ind(a));
                if i % 3 == 0 {
                    roots.push(b);
                } // else garbage
            }
            (h, roots)
        };
        let costs = ParMarkCosts {
            mark_cell: 10,
            per_word: 1,
            steal: 100,
        };
        let (mut h1, roots) = mk();
        let serial = Collector::new().collect(&mut h1, roots.clone());
        for caps in [1usize, 2, 4, 8] {
            let (mut h2, roots) = mk();
            let mut by_cap: Vec<Vec<NodeRef>> = vec![Vec::new(); caps];
            for (i, r) in roots.into_iter().enumerate() {
                by_cap[i % caps].push(r);
            }
            let (par, report) = Collector::new().collect_parallel(&mut h2, &by_cap, &costs);
            assert_eq!(par, serial, "same liveness at {caps} GC threads");
            assert_eq!(report.cap_clocks.len(), caps);
            assert!(report.max_clock() > 0);
        }
    }

    #[test]
    fn parallel_mark_scales_down_max_clock() {
        // A wide graph: many independent roots. More GC threads →
        // shorter critical path (max clock), same total liveness.
        let mk = || {
            let mut h = Heap::new();
            let mut roots = Vec::new();
            for i in 0..64 {
                let a = h.int(i);
                let b = h.alloc(Cell::Ind(a));
                let c = h.alloc(Cell::Ind(b));
                roots.push(c);
            }
            (h, roots)
        };
        let costs = ParMarkCosts {
            mark_cell: 10,
            per_word: 1,
            steal: 5,
        };
        let clock_at = |caps: usize| {
            let (mut h, roots) = mk();
            let mut by_cap: Vec<Vec<NodeRef>> = vec![Vec::new(); caps];
            for (i, r) in roots.into_iter().enumerate() {
                by_cap[i % caps].push(r);
            }
            Collector::new()
                .collect_parallel(&mut h, &by_cap, &costs)
                .1
                .max_clock()
        };
        let c1 = clock_at(1);
        let c4 = clock_at(4);
        assert!(
            c4 * 2 < c1,
            "4 GC threads should at least halve the mark time ({c4} vs {c1})"
        );
    }

    #[test]
    fn parallel_collect_steals_when_roots_are_imbalanced() {
        // All roots on cap 0: the other GC threads must steal to help.
        let mut h = Heap::new();
        let mut roots = Vec::new();
        for i in 0..64 {
            let a = h.int(i);
            roots.push(h.alloc(Cell::Ind(a)));
        }
        let mut by_cap = vec![Vec::new(); 4];
        by_cap[0] = roots;
        let costs = ParMarkCosts {
            mark_cell: 10,
            per_word: 1,
            steal: 5,
        };
        let (_, report) = Collector::new().collect_parallel(&mut h, &by_cap, &costs);
        assert!(report.grey_steals > 0, "imbalanced roots force grey steals");
    }

    #[test]
    fn repeated_collections_accumulate_stats() {
        let mut h = Heap::new();
        let root = h.int(0);
        let mut gc = Collector::new();
        for _ in 0..3 {
            h.int(7); // garbage each round
            gc.collect(&mut h, [root]);
        }
        assert_eq!(gc.stats().collections, 3);
        assert_eq!(gc.stats().total_collected_words, 6);
        assert_eq!(gc.stats().max_live_words, 2);
    }
}
