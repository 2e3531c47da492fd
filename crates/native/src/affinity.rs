//! Re-spreading pool workers over the CPUs when the kernel has stacked
//! them.
//!
//! A run wakes every worker at once. On a small host Linux queues a
//! woken thread on the CPU it last used or on the waker's, rarely
//! looks for an idle one (the search is limited by LLC utilisation; on
//! a two-CPU guest the limit is mostly zero), and does not pull the
//! thread over when another CPU goes idle a moment later (idle periods
//! shorter than the migration cost skip the idle balance). Two workers
//! queued on one CPU therefore stay there: the first executes the whole
//! run, the second gets on the CPU when the run is over, and the next
//! run starts from the same placement. For short runs that is harmless
//! — even welcome, a same-CPU wake-up is the cheapest — but a pool fed
//! wide sub-millisecond runs back to back (the job server's batches
//! under saturation) then runs on one CPU for seconds at a time, at
//! 1.6× the wall time, until the periodic balancer happens to separate
//! them, and falls back the same way later.
//!
//! The pool cannot keep the kernel from stacking its workers without
//! pinning them, and a pinned worker cannot get out of the way of
//! another busy thread of the process (an in-process client spinning
//! towards its next due time cost the server's median latency +65 %).
//! So workers float, and the pool only undoes the stacking when it has
//! evidence of it (see `starved` in `pool.rs`): each worker is sent to
//! a CPU of its own — restricted to it, which migrates the thread at
//! once, then allowed everywhere again.

/// One home CPU per worker, and the set they may float over.
pub(crate) struct Homes {
    cpus: Vec<usize>,
    allowed: imp::CpuSet,
}

impl Homes {
    /// Homes for `workers` workers among the CPUs the calling thread
    /// may use; `None` for a single worker, when there are fewer CPUs
    /// than workers (an oversubscribed pool is left to the kernel) or
    /// when the host does not say.
    pub fn plan(workers: usize) -> Option<Homes> {
        let allowed = imp::allowed()?;
        let cpus: Vec<usize> = imp::members(&allowed).take(workers).collect();
        (workers > 1 && cpus.len() == workers).then_some(Homes { cpus, allowed })
    }

    /// Move the calling thread, worker `w`, to its home CPU and let it
    /// float from there. Placement is an optimisation: a refusal (the
    /// cpuset shrank since [`Homes::plan`]) is ignored.
    pub fn send_home(&self, w: usize) {
        imp::restrict_to(&imp::only(self.cpus[w]));
        imp::restrict_to(&self.allowed);
    }
}

#[cfg(target_os = "linux")]
mod imp {
    /// glibc's and musl's `cpu_set_t`: 1024 bits.
    const WORDS: usize = 16;
    pub type CpuSet = [u64; WORDS];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The CPUs the calling thread may run on.
    pub fn allowed() -> Option<CpuSet> {
        let mut set = [0u64; WORDS];
        // SAFETY: `set` is `size_of::<CpuSet>()` writable bytes; pid 0
        // is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }

    pub fn members(set: &CpuSet) -> impl Iterator<Item = usize> + '_ {
        (0..WORDS * 64).filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
    }

    pub fn only(cpu: usize) -> CpuSet {
        let mut set = [0u64; WORDS];
        set[cpu / 64] = 1 << (cpu % 64);
        set
    }

    pub fn restrict_to(set: &CpuSet) {
        // SAFETY: `set` is `size_of::<CpuSet>()` readable bytes; pid 0
        // is the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub type CpuSet = ();

    pub fn allowed() -> Option<CpuSet> {
        None
    }

    pub fn members(_set: &CpuSet) -> impl Iterator<Item = usize> {
        std::iter::empty()
    }

    pub fn only(_cpu: usize) -> CpuSet {}

    pub fn restrict_to(_set: &CpuSet) {}
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    extern "C" {
        fn sched_getcpu() -> i32;
    }

    #[test]
    fn homes_are_distinct_allowed_cpus_or_none() {
        let allowed: Vec<usize> = imp::members(&imp::allowed().unwrap()).collect();
        assert!(Homes::plan(1).is_none(), "one worker cannot be stacked");
        assert!(Homes::plan(allowed.len() + 1).is_none(), "oversubscribed");
        if allowed.len() > 1 {
            let homes = Homes::plan(allowed.len()).unwrap();
            assert_eq!(homes.cpus, allowed);
        }
    }

    #[test]
    fn a_restricted_thread_is_migrated_at_once_and_send_home_lets_it_float_again() {
        let before = imp::allowed().unwrap();
        let n = imp::members(&before).count();
        let Some(homes) = Homes::plan(n) else {
            return; // single-CPU host
        };
        let homes = std::sync::Arc::new(homes);
        for w in 0..n {
            let homes = homes.clone();
            std::thread::spawn(move || {
                let home = imp::only(homes.cpus[w]);
                imp::restrict_to(&home);
                assert_eq!(imp::allowed().unwrap(), home);
                // SAFETY: no arguments, no preconditions.
                assert_eq!(unsafe { sched_getcpu() } as usize, homes.cpus[w]);
                homes.send_home(w);
                assert_eq!(imp::allowed().unwrap(), before);
            })
            .join()
            .unwrap();
        }
    }
}
