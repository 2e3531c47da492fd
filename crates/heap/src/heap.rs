//! The arena heap: allocation, indirection chasing, thunk entry and
//! update transitions.
//!
//! With [`Heap::enable_nurseries`] the heap additionally partitions
//! allocation into per-capability *nursery regions* plus a shared old
//! generation, maintaining a remembered set per nursery via write
//! barriers in [`Heap::alloc`] and [`Heap::update`] — the substrate for
//! independent per-capability minor collections (see
//! [`crate::gc::Collector::collect_minor`]).

use crate::args::Args;
use crate::cell::Cell;
use crate::noderef::{NodeRef, ScId};
use crate::value::Value;
use rph_trace::ThreadId;
use std::collections::BTreeSet;

/// Region tag of a cell: a nursery index, or [`OLD_REGION`] for the
/// shared old generation (also used before nurseries are enabled).
pub type RegionId = u16;

/// Sentinel region tag for the shared old generation.
pub const OLD_REGION: RegionId = RegionId::MAX;

/// Per-capability nursery bookkeeping, present only after
/// [`Heap::enable_nurseries`]. Every cell carries a region tag; each
/// nursery keeps a member list (the slots to sweep in a minor GC) and a
/// remembered set of *source* slots outside the region that hold
/// references into it.
#[derive(Debug)]
struct NurseryState {
    regions: usize,
    /// Region tag per arena slot (parallel to `Heap::cells`).
    tags: Vec<RegionId>,
    /// Arena slots currently tagged with each region, in allocation
    /// order. Entries whose tag no longer matches are stale and skipped.
    members: Vec<Vec<u32>>,
    /// Remembered set per region: slots (in any other region, incl.
    /// old gen) that held a reference into this region when the
    /// reference was written. `BTreeSet` for deterministic iteration.
    remsets: Vec<BTreeSet<u32>>,
    /// Live words currently resident in each nursery.
    region_words: Vec<u64>,
    /// Region new allocations are tagged with (`None` → old gen). The
    /// runtime points this at a capability's nursery for the duration
    /// of that capability's mutator slice.
    alloc_region: Option<RegionId>,
    /// Reusable scratch for the alloc-time write barrier.
    child_buf: Vec<NodeRef>,
}

/// Errors surfaced by heap operations.
#[derive(Debug, Clone, PartialEq)]
pub enum HeapError {
    /// An operation required normal-form data but met a thunk or black
    /// hole (e.g. Eden serialisation of unevaluated data).
    NotNormalForm(NodeRef),
    /// A freed cell was dereferenced — a runtime bug caught loudly.
    UseAfterFree(NodeRef),
}

impl std::fmt::Display for HeapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeapError::NotNormalForm(r) => write!(f, "node {r} is not in normal form"),
            HeapError::UseAfterFree(r) => write!(f, "use after free of node {r}"),
        }
    }
}

impl std::error::Error for HeapError {}

/// Outcome of entering a thunk via [`Heap::claim_thunk`].
#[derive(Debug, Clone, PartialEq)]
pub enum Claim {
    /// The caller now evaluates the thunk; here are its contents.
    /// Under eager black-holing the cell is already a `BlackHole`;
    /// under lazy black-holing it is still a `Thunk` (and another
    /// thread may claim it too — duplicate evaluation).
    Run { sc: ScId, args: Args },
    /// The cell is already a value; no evaluation needed.
    Whnf,
    /// The cell is a black hole: someone else is evaluating it. The
    /// caller should block.
    Busy,
}

/// Cumulative allocation statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Total words ever allocated as real graph nodes.
    pub allocated_words: u64,
    /// Total transient words charged by kernels (never materialised).
    pub charged_words: u64,
    /// Number of node allocations.
    pub allocations: u64,
    /// Number of thunk updates performed.
    pub updates: u64,
    /// Number of updates that found the node already updated
    /// (duplicate evaluation under lazy black-holing).
    pub duplicate_updates: u64,
    /// High-water mark of live words (sampled at each allocation).
    pub peak_live_words: u64,
    /// High-water mark of live cell count (sampled at each allocation).
    pub peak_live_cells: u64,
    /// Write-barrier hits: cross-region references recorded into a
    /// remembered set (0 unless nurseries are enabled).
    pub remset_records: u64,
}

/// A graph-reduction heap. One per program in GpH (shared by all
/// capabilities), one per PE in Eden.
#[derive(Debug, Default)]
pub struct Heap {
    cells: Vec<Cell>,
    free: Vec<u32>,
    /// Words occupied by live (non-`Free`) cells.
    live_words: u64,
    stats: HeapStats,
    /// Per-capability nursery bookkeeping (None until
    /// [`Heap::enable_nurseries`]).
    nursery: Option<NurseryState>,
}

impl Heap {
    pub fn new() -> Self {
        Heap::default()
    }

    /// Number of live (non-free) cells.
    pub fn live_cells(&self) -> usize {
        self.cells.len() - self.free.len()
    }

    /// Words occupied by live cells.
    pub fn live_words(&self) -> u64 {
        self.live_words
    }

    /// Arena capacity (live + freed slots).
    pub fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// Allocation statistics.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// Charge transient allocation: `words` a Haskell mutator would
    /// have allocated and immediately discarded (list spines inside
    /// kernels). Affects GC *frequency* via the caller's
    /// [`crate::AllocArea`], not GC cost (copying GC only pays for live
    /// data).
    pub fn charge_transient(&mut self, words: u64) {
        self.stats.charged_words += words;
    }

    /// Allocate a cell, reusing a freed slot when available.
    ///
    /// With nurseries enabled the cell is tagged with the current
    /// allocation region, and the alloc-time half of the write barrier
    /// runs: any reference from the new cell into a *different* nursery
    /// is recorded in that nursery's remembered set. (References are
    /// only ever created here and in [`Heap::update`]; cells are
    /// otherwise immutable, which is the no-lost-reference argument —
    /// see DESIGN.md.)
    pub fn alloc(&mut self, cell: Cell) -> NodeRef {
        let words = cell.words();
        self.live_words += words;
        self.stats.allocated_words += words;
        self.stats.allocations += 1;
        let idx = if let Some(idx) = self.free.pop() {
            self.cells[idx as usize] = cell;
            idx
        } else {
            let idx = u32::try_from(self.cells.len()).expect("heap exceeds 2^32 cells");
            self.cells.push(cell);
            idx
        };
        self.stats.peak_live_words = self.stats.peak_live_words.max(self.live_words);
        self.stats.peak_live_cells = self
            .stats
            .peak_live_cells
            .max((self.cells.len() - self.free.len()) as u64);
        if self.nursery.is_some() {
            self.note_nursery_alloc(idx, words);
        }
        NodeRef(idx)
    }

    /// Nursery bookkeeping + alloc-time write barrier for a fresh cell.
    fn note_nursery_alloc(&mut self, idx: u32, words: u64) {
        let ns = self.nursery.as_mut().expect("nurseries enabled");
        let tag = ns.alloc_region.unwrap_or(OLD_REGION);
        if ns.tags.len() <= idx as usize {
            ns.tags.resize(idx as usize + 1, OLD_REGION);
        }
        ns.tags[idx as usize] = tag;
        if tag != OLD_REGION {
            ns.members[tag as usize].push(idx);
            ns.region_words[tag as usize] += words;
        }
        // Alloc-time write barrier: the new cell's children may live in
        // foreign nurseries; record the new cell as a remembered-set
        // source for each such nursery.
        let mut buf = std::mem::take(&mut ns.child_buf);
        buf.clear();
        self.cells[idx as usize].push_children(&mut buf);
        let ns = self.nursery.as_mut().expect("nurseries enabled");
        let mut records = 0;
        for &c in &buf {
            let ct = ns.tags.get(c.index()).copied().unwrap_or(OLD_REGION);
            if ct != OLD_REGION && ct != tag && ns.remsets[ct as usize].insert(idx) {
                records += 1;
            }
        }
        ns.child_buf = buf;
        self.stats.remset_records += records;
    }

    /// Allocate a WHNF value node.
    pub fn alloc_value(&mut self, v: Value) -> NodeRef {
        self.alloc(Cell::Value(v))
    }

    /// Allocate an integer node.
    pub fn int(&mut self, i: i64) -> NodeRef {
        self.alloc_value(Value::Int(i))
    }

    /// Allocate a thunk node: the suspended application `sc args`.
    pub fn alloc_thunk(&mut self, sc: ScId, args: impl Into<Args>) -> NodeRef {
        self.alloc(Cell::Thunk {
            sc,
            args: args.into(),
        })
    }

    /// Read a cell (without resolving indirections).
    #[inline]
    pub fn get(&self, r: NodeRef) -> &Cell {
        &self.cells[r.index()]
    }

    /// Follow `Ind` chains to the underlying cell.
    #[inline]
    pub fn resolve(&self, mut r: NodeRef) -> NodeRef {
        loop {
            match &self.cells[r.index()] {
                Cell::Ind(next) => r = *next,
                _ => return r,
            }
        }
    }

    /// The value of `r` if it is (after indirections) in WHNF.
    pub fn whnf(&self, r: NodeRef) -> Option<&Value> {
        match self.get(self.resolve(r)) {
            Cell::Value(v) => Some(v),
            _ => None,
        }
    }

    /// The value of `r`, panicking if unevaluated (test/kernel helper
    /// for places where evaluation is known to have happened).
    pub fn expect_value(&self, r: NodeRef) -> &Value {
        self.whnf(r).unwrap_or_else(|| {
            panic!(
                "node {r} expected in WHNF, found {:?}",
                self.get(self.resolve(r))
            )
        })
    }

    /// Enter the (resolved) node `r` for evaluation.
    ///
    /// With `eager_blackhole` the thunk is atomically overwritten by a
    /// `BlackHole` so any second entrant gets [`Claim::Busy`]. Without
    /// it (GHC's lazy black-holing) the thunk is left in place — a
    /// second thread entering before the next context switch will also
    /// get [`Claim::Run`] and duplicate the work (paper §IV.A.3).
    pub fn claim_thunk(&mut self, r: NodeRef, eager_blackhole: bool) -> Claim {
        let r = self.resolve(r);
        match &self.cells[r.index()] {
            Cell::Value(_) => Claim::Whnf,
            Cell::BlackHole { .. } => Claim::Busy,
            Cell::Thunk { sc, args } => {
                let (sc, args) = (*sc, args.clone());
                if eager_blackhole {
                    self.blackhole(r);
                }
                Claim::Run { sc, args }
            }
            Cell::Ind(_) => unreachable!("resolve() returned an Ind"),
            Cell::Free => panic!("{}", HeapError::UseAfterFree(r)),
        }
    }

    /// Overwrite a thunk with a black hole (used directly by lazy
    /// black-holing at context-switch time). No-op unless the cell is a
    /// thunk.
    pub fn blackhole(&mut self, r: NodeRef) -> bool {
        let r = self.resolve(r);
        let cell = &mut self.cells[r.index()];
        if let Cell::Thunk { .. } = cell {
            let old = cell.words();
            *cell = Cell::BlackHole {
                blocked: Vec::new(),
            };
            // Black hole overwrites in place; live words shrink to the
            // 2-word header.
            self.live_words = self.live_words - old + 2;
            self.note_inplace_shrink(r, old, 2);
            true
        } else {
            false
        }
    }

    /// Keep per-region word accounting in step with an in-place
    /// overwrite that changed a cell's size from `old` to `new` words.
    fn note_inplace_shrink(&mut self, r: NodeRef, old: u64, new: u64) {
        if let Some(ns) = self.nursery.as_mut() {
            let tag = ns.tags.get(r.index()).copied().unwrap_or(OLD_REGION);
            if tag != OLD_REGION {
                let rw = &mut ns.region_words[tag as usize];
                *rw = *rw - old + new;
            }
        }
    }

    /// Record `thread` as blocked on black hole `r`.
    ///
    /// # Panics
    /// Panics if `r` is not a black hole — the scheduler must only
    /// block threads on cells it has just observed as busy.
    pub fn block_on(&mut self, r: NodeRef, thread: ThreadId) {
        let r = self.resolve(r);
        match &mut self.cells[r.index()] {
            Cell::BlackHole { blocked } => blocked.push(thread),
            other => panic!("block_on: node {r} is {other:?}, not a black hole"),
        }
    }

    /// Update node `r` with its computed result `result` (a node in
    /// WHNF). Returns the threads to wake. If another thread already
    /// updated `r` (lazy black-holing duplicate), the update is dropped
    /// and `duplicate` is flagged in the returned report.
    pub fn update(&mut self, r: NodeRef, result: NodeRef) -> UpdateReport {
        let r = self.resolve(r);
        let result = self.resolve(result);
        if r == result {
            // Updating a node with itself (already evaluated in place).
            self.stats.updates += 1;
            return UpdateReport {
                woken: Vec::new(),
                duplicate: false,
            };
        }
        let cell = &mut self.cells[r.index()];
        match cell {
            Cell::BlackHole { blocked } => {
                let woken = std::mem::take(blocked);
                let old = 2;
                *cell = Cell::Ind(result);
                self.live_words = self.live_words - old + 2;
                self.stats.updates += 1;
                self.note_update_barrier(r, result);
                UpdateReport {
                    woken,
                    duplicate: false,
                }
            }
            Cell::Thunk { .. } => {
                // Lazy black-holing: nobody blocked, overwrite quietly.
                let old = cell.words();
                *cell = Cell::Ind(result);
                self.live_words = self.live_words - old + 2;
                self.stats.updates += 1;
                self.note_inplace_shrink(r, old, 2);
                self.note_update_barrier(r, result);
                UpdateReport {
                    woken: Vec::new(),
                    duplicate: false,
                }
            }
            Cell::Value(_) | Cell::Ind(_) => {
                // Someone beat us to it: duplicate evaluation detected.
                self.stats.updates += 1;
                self.stats.duplicate_updates += 1;
                UpdateReport {
                    woken: Vec::new(),
                    duplicate: true,
                }
            }
            Cell::Free => panic!("{}", HeapError::UseAfterFree(r)),
        }
    }

    /// Update-time write barrier: an update writes `Ind(result)` into
    /// `r` — if `result` lives in a nursery `r` is not part of, record
    /// `r` as a remembered-set source for that nursery.
    fn note_update_barrier(&mut self, r: NodeRef, result: NodeRef) {
        if let Some(ns) = self.nursery.as_mut() {
            let target = ns.tags.get(result.index()).copied().unwrap_or(OLD_REGION);
            if target != OLD_REGION {
                let source = ns.tags.get(r.index()).copied().unwrap_or(OLD_REGION);
                if source != target && ns.remsets[target as usize].insert(r.index() as u32) {
                    self.stats.remset_records += 1;
                }
            }
        }
    }

    // ----- nursery API -----

    /// Partition future allocation into `regions` per-capability
    /// nurseries plus the shared old generation. Everything already on
    /// the heap is tagged old. Call once, before mutators run.
    pub fn enable_nurseries(&mut self, regions: usize) {
        assert!(
            (regions as u64) < OLD_REGION as u64,
            "too many nursery regions"
        );
        assert!(self.nursery.is_none(), "nurseries already enabled");
        self.nursery = Some(NurseryState {
            regions,
            tags: vec![OLD_REGION; self.cells.len()],
            members: vec![Vec::new(); regions],
            remsets: vec![BTreeSet::new(); regions],
            region_words: vec![0; regions],
            alloc_region: None,
            child_buf: Vec::new(),
        });
    }

    /// True once [`Heap::enable_nurseries`] has been called.
    pub fn nurseries_enabled(&self) -> bool {
        self.nursery.is_some()
    }

    /// Number of nursery regions (0 when disabled).
    pub fn nursery_regions(&self) -> usize {
        self.nursery.as_ref().map_or(0, |ns| ns.regions)
    }

    /// Direct subsequent allocations into nursery `region` (`None` →
    /// old gen). The runtime sets this to the running capability's
    /// region around each mutator slice.
    pub fn set_alloc_region(&mut self, region: Option<RegionId>) {
        let ns = self
            .nursery
            .as_mut()
            .expect("set_alloc_region without nurseries");
        if let Some(r) = region {
            assert!((r as usize) < ns.regions, "alloc region out of range");
        }
        ns.alloc_region = region;
    }

    /// Region tag of a cell (`OLD_REGION` when nurseries are disabled).
    pub fn region_of(&self, r: NodeRef) -> RegionId {
        self.nursery
            .as_ref()
            .and_then(|ns| ns.tags.get(r.index()).copied())
            .unwrap_or(OLD_REGION)
    }

    /// Live words currently resident in nursery `region`.
    pub fn nursery_words(&self, region: RegionId) -> u64 {
        self.nursery.as_ref().map_or(0, |ns| {
            ns.region_words.get(region as usize).copied().unwrap_or(0)
        })
    }

    /// Current remembered-set size of nursery `region`.
    pub fn remset_len(&self, region: RegionId) -> usize {
        self.nursery.as_ref().map_or(0, |ns| {
            ns.remsets.get(region as usize).map_or(0, |s| s.len())
        })
    }

    /// Live words in the shared old generation (live words minus all
    /// nursery-resident words). With nurseries disabled this is just
    /// [`Heap::live_words`].
    pub fn old_words(&self) -> u64 {
        let in_nurseries: u64 = self
            .nursery
            .as_ref()
            .map_or(0, |ns| ns.region_words.iter().sum());
        self.live_words - in_nurseries
    }

    // ----- internal access for the collector -----

    pub(crate) fn cells(&self) -> &[Cell] {
        &self.cells
    }

    pub(crate) fn free_cell(&mut self, idx: usize) {
        let words = self.cells[idx].words();
        self.live_words -= words;
        self.cells[idx] = Cell::Free;
        self.free.push(idx as u32);
        if let Some(ns) = self.nursery.as_mut() {
            if let Some(tag) = ns.tags.get_mut(idx) {
                if *tag != OLD_REGION {
                    ns.region_words[*tag as usize] -= words;
                    *tag = OLD_REGION;
                }
            }
        }
    }

    /// Promote a surviving nursery cell to the old generation: the
    /// slot keeps its identity (so remembered-set entries naming it
    /// stay valid), only its region tag and word accounting move.
    pub(crate) fn promote_cell(&mut self, idx: usize) {
        let words = self.cells[idx].words();
        let ns = self.nursery.as_mut().expect("promote without nurseries");
        let tag = ns.tags[idx];
        debug_assert_ne!(tag, OLD_REGION, "promoting an old-gen cell");
        ns.region_words[tag as usize] -= words;
        ns.tags[idx] = OLD_REGION;
    }

    /// Members of nursery `region` (may contain stale entries whose
    /// tag has since changed — callers must check `tags`).
    pub(crate) fn take_region_members(&mut self, region: RegionId) -> Vec<u32> {
        let ns = self.nursery.as_mut().expect("nurseries enabled");
        std::mem::take(&mut ns.members[region as usize])
    }

    /// Drain the remembered set of `region` (sorted, deterministic).
    pub(crate) fn take_remset(&mut self, region: RegionId) -> BTreeSet<u32> {
        let ns = self.nursery.as_mut().expect("nurseries enabled");
        std::mem::take(&mut ns.remsets[region as usize])
    }

    /// After a full (major) collection every survivor is old: retag all
    /// slots, clear member lists and remembered sets, zero per-region
    /// accounting. No-op when nurseries are disabled.
    pub(crate) fn reset_nurseries_after_major(&mut self) {
        if let Some(ns) = self.nursery.as_mut() {
            ns.tags.clear();
            ns.tags.resize(self.cells.len(), OLD_REGION);
            for m in &mut ns.members {
                m.clear();
            }
            for s in &mut ns.remsets {
                s.clear();
            }
            for w in &mut ns.region_words {
                *w = 0;
            }
        }
    }

    /// Test helper: is the slot freed?
    pub fn is_free(&self, r: NodeRef) -> bool {
        matches!(self.get(r), Cell::Free)
    }
}

/// Result of [`Heap::update`].
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateReport {
    /// Threads that were blocked on the updated black hole.
    pub woken: Vec<ThreadId>,
    /// True if the node had already been updated by another thread.
    pub duplicate: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_read() {
        let mut h = Heap::new();
        let a = h.int(42);
        assert_eq!(h.expect_value(a).expect_int(), 42);
        assert_eq!(h.live_cells(), 1);
        assert_eq!(h.live_words(), 2);
    }

    #[test]
    fn resolve_chases_ind_chains() {
        let mut h = Heap::new();
        let v = h.int(7);
        let i1 = h.alloc(Cell::Ind(v));
        let i2 = h.alloc(Cell::Ind(i1));
        assert_eq!(h.resolve(i2), v);
        assert_eq!(h.whnf(i2), Some(&Value::Int(7)));
    }

    #[test]
    fn eager_claim_blackholes() {
        let mut h = Heap::new();
        let t = h.alloc_thunk(ScId(0), vec![]);
        match h.claim_thunk(t, true) {
            Claim::Run { sc, .. } => assert_eq!(sc, ScId(0)),
            other => panic!("{other:?}"),
        }
        assert_eq!(h.claim_thunk(t, true), Claim::Busy);
    }

    #[test]
    fn lazy_claim_allows_duplicates() {
        let mut h = Heap::new();
        let t = h.alloc_thunk(ScId(0), vec![]);
        assert!(matches!(h.claim_thunk(t, false), Claim::Run { .. }));
        // Second entrant also gets to run — the duplicated work window.
        assert!(matches!(h.claim_thunk(t, false), Claim::Run { .. }));
    }

    #[test]
    fn update_wakes_blocked_threads() {
        let mut h = Heap::new();
        let t = h.alloc_thunk(ScId(0), vec![]);
        h.claim_thunk(t, true);
        h.block_on(t, ThreadId(1));
        h.block_on(t, ThreadId(2));
        let v = h.int(99);
        let rep = h.update(t, v);
        assert_eq!(rep.woken, vec![ThreadId(1), ThreadId(2)]);
        assert!(!rep.duplicate);
        assert_eq!(h.expect_value(t).expect_int(), 99);
    }

    #[test]
    fn duplicate_update_detected() {
        let mut h = Heap::new();
        let t = h.alloc_thunk(ScId(0), vec![]);
        // Two threads claim lazily.
        h.claim_thunk(t, false);
        h.claim_thunk(t, false);
        let v1 = h.int(1);
        let v2 = h.int(1);
        assert!(!h.update(t, v1).duplicate);
        assert!(h.update(t, v2).duplicate);
        assert_eq!(h.stats().duplicate_updates, 1);
        assert_eq!(h.expect_value(t).expect_int(), 1);
    }

    #[test]
    fn claim_whnf_short_circuits() {
        let mut h = Heap::new();
        let v = h.int(5);
        assert_eq!(h.claim_thunk(v, true), Claim::Whnf);
    }

    #[test]
    fn update_self_is_noop() {
        let mut h = Heap::new();
        let v = h.int(5);
        let rep = h.update(v, v);
        assert!(rep.woken.is_empty() && !rep.duplicate);
    }

    #[test]
    #[should_panic(expected = "not a black hole")]
    fn block_on_value_panics() {
        let mut h = Heap::new();
        let v = h.int(5);
        h.block_on(v, ThreadId(0));
    }

    #[test]
    fn charge_transient_tracks_stats() {
        let mut h = Heap::new();
        h.charge_transient(1000);
        assert_eq!(h.stats().charged_words, 1000);
        assert_eq!(h.live_words(), 0);
    }

    #[test]
    fn peak_stats_track_high_water_mark() {
        let mut h = Heap::new();
        let a = h.int(1);
        let _b = h.int(2);
        assert_eq!(h.stats().peak_live_words, 4);
        assert_eq!(h.stats().peak_live_cells, 2);
        // Freeing does not lower the peak.
        h.free_cell(a.index());
        h.int(3);
        assert_eq!(h.stats().peak_live_words, 4);
        assert_eq!(h.stats().peak_live_cells, 2);
    }

    #[test]
    fn nursery_tags_follow_alloc_region() {
        let mut h = Heap::new();
        let before = h.int(0);
        h.enable_nurseries(2);
        assert_eq!(h.region_of(before), OLD_REGION);
        h.set_alloc_region(Some(1));
        let a = h.int(1);
        assert_eq!(h.region_of(a), 1);
        assert_eq!(h.nursery_words(1), 2);
        h.set_alloc_region(None);
        let b = h.int(2);
        assert_eq!(h.region_of(b), OLD_REGION);
        assert_eq!(h.old_words(), h.live_words() - 2);
    }

    #[test]
    fn alloc_barrier_records_cross_region_refs() {
        let mut h = Heap::new();
        h.enable_nurseries(2);
        h.set_alloc_region(Some(0));
        let young = h.int(7);
        // A cell in region 1 referencing region 0 must land in region
        // 0's remembered set; a same-region reference must not.
        h.set_alloc_region(Some(1));
        h.alloc(Cell::Ind(young));
        assert_eq!(h.remset_len(0), 1);
        h.set_alloc_region(Some(0));
        h.alloc(Cell::Ind(young));
        assert_eq!(h.remset_len(0), 1, "same-region ref not remembered");
        assert_eq!(h.stats().remset_records, 1);
    }

    #[test]
    fn update_barrier_records_old_to_young_refs() {
        let mut h = Heap::new();
        let t = h.alloc_thunk(ScId(0), vec![]);
        h.enable_nurseries(1);
        h.claim_thunk(t, true);
        // Result allocated in the nursery, thunk lives in old gen: the
        // Ind written by the update is an old→young reference.
        h.set_alloc_region(Some(0));
        let v = h.int(9);
        h.update(t, v);
        assert_eq!(h.remset_len(0), 1);
        assert_eq!(h.stats().remset_records, 1);
    }

    #[test]
    fn blackhole_shrink_keeps_region_words_consistent() {
        let mut h = Heap::new();
        h.enable_nurseries(1);
        h.set_alloc_region(Some(0));
        let x = h.int(1);
        let t = h.alloc_thunk(ScId(0), vec![x, x, x]); // 5 words
        assert_eq!(h.nursery_words(0), 2 + 5);
        h.blackhole(t); // shrinks to 2 words in place
        assert_eq!(h.nursery_words(0), 2 + 2);
        assert_eq!(h.live_words(), 4);
        assert_eq!(h.old_words(), 0);
    }
}
