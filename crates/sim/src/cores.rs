//! Physical cores and the OS-scheduler model for virtual PEs.
//!
//! The paper runs Eden with *more virtual PVM nodes than physical
//! cores* (Fig. 4 d/e: 9 and 17 PEs on 8 cores) and finds it *faster*,
//! crediting smaller per-PE heaps and better overlap. To reproduce
//! that, PEs are decoupled from cores: a [`CoreSet`] tracks per-core
//! clocks, and PEs are dispatched onto the least-loaded core for one
//! OS quantum at a time, paying an OS context switch when a core
//! changes PEs.
//!
//! Both simulators repeatedly ask "which of `n` clocks is earliest,
//! ties to the lowest index?" — the Eden one of its cores, the GpH one
//! of its capabilities. [`EarliestIndex`] is the one implementation of
//! that question.

/// Earliest-first index over `n` keyed slots: a fixed-size tournament
/// tree whose root is the smallest `(key, slot)` pair, so ties go to
/// the lowest slot. [`set`](Self::set) is O(log n),
/// [`min`](Self::min) O(1), [`rebuild`](Self::rebuild) O(n).
///
/// A slot that must not be picked is *parked*: its key is
/// [`PARKED`](Self::PARKED), which sorts after every real clock, so
/// "everything is parked" is simply "the root is parked".
#[derive(Debug, Clone)]
pub struct EarliestIndex {
    slots: usize,
    /// `slots` rounded up to a power of two: the leaf of slot `i` is
    /// node `leaves + i`, the parent of node `j` is `j / 2`, the root is
    /// node 1 (node 0 is unused). Leaves past `slots` are parked
    /// padding with a slot number no real slot ties with.
    leaves: usize,
    /// `(key, slot)` of each node's winner; the tuple order is the
    /// pick order.
    tree: Vec<(u64, u32)>,
}

impl EarliestIndex {
    /// The key of a slot that is never the minimum.
    pub const PARKED: u64 = u64::MAX;

    /// `slots` slots, all with key 0.
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "need at least one slot");
        assert!(slots < u32::MAX as usize, "slot numbers are u32");
        let leaves = slots.next_power_of_two();
        let mut index = EarliestIndex {
            slots,
            leaves,
            tree: vec![(Self::PARKED, u32::MAX); 2 * leaves],
        };
        index.rebuild(|_, _| 0);
        index
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Key of slot `i`.
    #[inline]
    pub fn key(&self, i: usize) -> u64 {
        assert!(i < self.slots, "slot {i} out of range");
        self.tree[self.leaves + i].0
    }

    /// Every slot's key, in slot order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.tree[self.leaves..self.leaves + self.slots]
            .iter()
            .map(|&(key, _)| key)
    }

    /// The slot with the smallest key (ties: lowest slot), or `None`
    /// if every slot is parked.
    #[inline]
    pub fn min(&self) -> Option<usize> {
        let (key, slot) = self.tree[1];
        (key != Self::PARKED).then_some(slot as usize)
    }

    /// The smallest key ([`PARKED`](Self::PARKED) if every slot is).
    #[inline]
    pub fn min_key(&self) -> u64 {
        self.tree[1].0
    }

    /// Set slot `i`'s key and replay its matches up to the root.
    #[inline]
    pub fn set(&mut self, i: usize, key: u64) {
        assert!(i < self.slots, "slot {i} out of range");
        let mut node = self.leaves + i;
        let mut winner = (key, i as u32);
        self.tree[node] = winner;
        while node > 1 {
            winner = winner.min(self.tree[node ^ 1]);
            node /= 2;
            self.tree[node] = winner;
        }
    }

    /// Rekey every slot — `key(slot, old_key)` — and replay the whole
    /// tournament once.
    pub fn rebuild(&mut self, mut key: impl FnMut(usize, u64) -> u64) {
        let leaves = self.leaves;
        for (i, leaf) in self.tree[leaves..leaves + self.slots]
            .iter_mut()
            .enumerate()
        {
            *leaf = (key(i, leaf.0), i as u32);
        }
        for node in (1..leaves).rev() {
            self.tree[node] = self.tree[2 * node].min(self.tree[2 * node + 1]);
        }
    }
}

/// A set of physical cores with virtual clocks.
#[derive(Debug, Clone)]
pub struct CoreSet {
    /// Each core's clock: the virtual time up to which it is busy.
    clocks: EarliestIndex,
    /// The PE that last ran on each core (for context-switch charging).
    last_pe: Vec<Option<u32>>,
}

impl CoreSet {
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        CoreSet {
            clocks: EarliestIndex::new(cores),
            last_pe: vec![None; cores],
        }
    }

    pub fn num_cores(&self) -> usize {
        self.clocks.slots()
    }

    /// The core that frees up earliest (ties: lowest index —
    /// deterministic).
    #[inline]
    pub fn earliest_core(&self) -> usize {
        self.clocks.min().expect("cores are never parked")
    }

    /// Clock of a core.
    #[inline]
    pub fn clock(&self, core: usize) -> u64 {
        self.clocks.key(core)
    }

    /// Smallest clock across cores.
    pub fn min_clock(&self) -> u64 {
        self.clocks.min_key()
    }

    /// Largest clock across cores (the makespan).
    pub fn max_clock(&self) -> u64 {
        self.clocks.keys().max().expect("non-empty")
    }

    /// Dispatch PE `pe` (which becomes runnable at `ready`) onto the
    /// earliest core. Returns `(core, start_time)` where `start_time`
    /// accounts for the core being busy and for an OS context switch
    /// if the core last ran a different PE (`os_ctx_switch`).
    pub fn dispatch(&mut self, pe: u32, ready: u64, os_ctx_switch: u64) -> (usize, u64) {
        let core = self.earliest_core();
        let mut start = self.clocks.key(core).max(ready);
        if self.last_pe[core] != Some(pe) {
            start += os_ctx_switch;
        }
        self.last_pe[core] = Some(pe);
        (core, start)
    }

    /// Mark `core` busy until `until`.
    #[inline]
    pub fn occupy(&mut self, core: usize, until: u64) {
        debug_assert!(until >= self.clocks.key(core));
        self.clocks.set(core, until);
    }

    /// Advance every core to at least `t` (used when the whole machine
    /// idles waiting for an external event such as a message delivery).
    pub fn advance_all_to(&mut self, t: u64) {
        self.clocks.rebuild(|_, clock| clock.max(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const PARKED: u64 = EarliestIndex::PARKED;

    /// The pick rule by definition, as a linear scan: the reference the
    /// tree is tested against.
    fn earliest_by_scan(keys: &[u64]) -> Option<usize> {
        (0..keys.len())
            .filter(|&i| keys[i] != PARKED)
            .min_by_key(|&i| (keys[i], i))
    }

    fn assert_matches(index: &EarliestIndex, keys: &[u64]) {
        assert_eq!(index.min(), earliest_by_scan(keys), "keys {keys:?}");
        assert_eq!(index.min_key(), *keys.iter().min().expect("non-empty"));
        assert!(index.keys().eq(keys.iter().copied()));
        assert_eq!(index.key(keys.len() - 1), keys[keys.len() - 1]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random set / park / unpark / rebuild sequences, with keys
        /// from a range small enough that ties are the common case, at
        /// sizes on both sides of a power of two.
        #[test]
        fn index_agrees_with_the_linear_scan(
            ops in proptest::collection::vec((0u8..8, any::<usize>(), 0u64..6), 1..200),
        ) {
            for n in [1usize, 2, 3, 8, 255, 256, 257] {
                let mut index = EarliestIndex::new(n);
                let mut keys = vec![0u64; n];
                assert_matches(&index, &keys);
                for &(op, pick, key) in &ops {
                    let i = pick % n;
                    match op {
                        // Park a slot; unparking is a `set` like any other.
                        0 | 1 => {
                            index.set(i, PARKED);
                            keys[i] = PARKED;
                        }
                        // The GC barrier: park whoever is left, then
                        // release everyone at one clock.
                        2 => {
                            index.rebuild(|_, _| PARKED);
                            keys.fill(PARKED);
                            assert_matches(&index, &keys);
                            index.rebuild(|_, _| key);
                            keys.fill(key);
                        }
                        // `advance_all_to`: parked slots stay parked.
                        3 => {
                            index.rebuild(|_, old| old.max(key));
                            keys.iter_mut().for_each(|k| *k = (*k).max(key));
                        }
                        _ => {
                            index.set(i, key);
                            keys[i] = key;
                        }
                    }
                    assert_matches(&index, &keys);
                }
            }
        }
    }

    #[test]
    fn ties_go_to_the_lowest_slot_and_all_parked_is_none() {
        let mut index = EarliestIndex::new(5);
        assert_eq!(index.min(), Some(0));
        index.set(0, 7);
        index.set(1, 7);
        assert_eq!(index.min(), Some(2), "0-keyed slots 2..5 remain");
        index.rebuild(|_, _| 7);
        assert_eq!(index.min(), Some(0));
        index.set(0, PARKED);
        assert_eq!(index.min(), Some(1));
        index.rebuild(|_, _| PARKED);
        assert_eq!(index.min(), None);
        assert_eq!(index.min_key(), PARKED);
        index.set(4, 9);
        assert_eq!(index.min(), Some(4));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn padding_leaves_are_not_addressable() {
        EarliestIndex::new(5).set(5, 1);
    }

    #[test]
    fn dispatch_prefers_earliest_core() {
        let mut cs = CoreSet::new(2);
        cs.occupy(0, 100);
        let (core, start) = cs.dispatch(1, 0, 0);
        assert_eq!(core, 1);
        assert_eq!(start, 0);
        cs.occupy(1, 500);
        let (core, start) = cs.dispatch(2, 0, 0);
        assert_eq!(core, 0);
        assert_eq!(start, 100);
    }

    #[test]
    fn context_switch_charged_on_pe_change() {
        let mut cs = CoreSet::new(1);
        let (_, s1) = cs.dispatch(1, 0, 10);
        assert_eq!(s1, 10, "first dispatch also pays the switch");
        cs.occupy(0, 50);
        let (_, s2) = cs.dispatch(1, 0, 10);
        assert_eq!(s2, 50, "same PE back-to-back: no switch");
        cs.occupy(0, 80);
        let (_, s3) = cs.dispatch(2, 0, 10);
        assert_eq!(s3, 90, "different PE: switch charged");
    }

    #[test]
    fn ready_time_respected() {
        let mut cs = CoreSet::new(1);
        let (_, s) = cs.dispatch(1, 1000, 0);
        assert_eq!(s, 1000);
    }

    #[test]
    fn min_max_clocks() {
        let mut cs = CoreSet::new(3);
        cs.occupy(1, 70);
        assert_eq!(cs.min_clock(), 0);
        assert_eq!(cs.max_clock(), 70);
        cs.advance_all_to(50);
        assert_eq!(cs.min_clock(), 50);
        assert_eq!(cs.max_clock(), 70);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        CoreSet::new(0);
    }
}
