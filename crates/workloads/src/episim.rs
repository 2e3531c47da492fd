//! # episim — an EpiSimdemics-style agent/epidemic simulation
//!
//! The first *data-partitioned, iterated* workload (ROADMAP item 2a):
//! `N` agents carry S/E/I/R disease state and a private RNG stream,
//! `L` locations are the unit of sharding, and the simulation iterates
//! rounds of
//!
//! 1. **visit** — every agent draws a location to visit this round
//!    (mostly a window around its home; otherwise a far visit, drawn
//!    uniformly or from a Zipf head — the skew knob),
//! 2. **interaction** — at each location, susceptible visitors draw
//!    per-contact infection Bernoullis against the infectious
//!    headcount (capped at [`CONTACT_CAP`] contacts),
//! 3. **progression + migration** — exposed/infectious timers tick,
//!    and a migration draw may re-home the agent at the visited
//!    location.
//!
//! Unlike the four flat workloads, the parallel structure is a
//! *round barrier with all-to-all movement*: agents physically travel
//! between location shards twice per round (out to the visited
//! location, back to the — possibly new — home), so on distributed
//! backends the migration batches are the algorithm's own traffic, not
//! scheduler overhead.
//!
//! ## Determinism under parallelism
//!
//! Every backend must produce the same final agent population
//! bit-for-bit at every worker count. Three design rules make that
//! hold *by construction* rather than by locking:
//!
//! * **Per-agent RNG streams.** Each agent owns a splitmix64 stream
//!   seeded from `(seed, id)`. A round consumes a deterministic number
//!   of draws per agent — two for the visit, `min(I, CONTACT_CAP)`
//!   for infection (the count depends only on the pre-round states of
//!   the location's visitors, never on execution order), one for
//!   migration — so streams stay aligned no matter which thread runs
//!   the agent.
//! * **Order-independent interaction.** A location's infectious count
//!   is a function of the *set* of visitors (states at round entry);
//!   each visitor then updates purely from its own state + stream.
//!   No update reads another agent's post-update state.
//! * **Commutative checksum.** The result is a wrapping sum of a
//!   splitmix hash of each final agent record, so shard order and
//!   partition boundaries cannot leak into the value.
//!
//! The sequential simulator ([`Episim::run_seq`]) is the oracle; the
//! GpH, sim-Eden, native-steal and native-Eden drivers all reuse the
//! same per-agent kernels [`Episim::visit_of`] / [`Episim::interact`]
//! and are differentially tested against it (and each other).

use crate::native::{merge_trace, run_iter_on, IterNative, NativeMeasured, NativeWorkload};
use crate::sum_euler::list_of;
use crate::Measured;
use rph_eden::job::{NativeCtx, NativeLogic, NativeStep};
use rph_eden::{CommMode, EdenConfig, EdenRuntime, Endpoint};
use rph_gph::{GphConfig, GphRuntime};
use rph_heap::{Heap, NodeRef, Value};
use rph_machine::ir::{app, seq, v};
use rph_machine::prelude;
use rph_machine::program::{KernelOut, ProgramBuilder};
use rph_native::{
    try_exchange, try_par_map_reduce, ExchangeJob, Job, NativeConfig, Pool, RunError,
};

/// Percent of visits that stay within the home window.
pub const LOCAL_PCT: u64 = 70;
/// Width of the home visit window (locations).
pub const LOCAL_WINDOW: u64 = 8;
/// Per-contact infection probability, percent.
pub const INFECT_PCT: u64 = 30;
/// A susceptible meets at most this many infectious visitors.
pub const CONTACT_CAP: u32 = 4;
/// Chance (percent) of re-homing at the visited location.
pub const MIG_PCT: u64 = 10;
/// Rounds spent exposed before turning infectious.
pub const EXPOSED_ROUNDS: u32 = 2;
/// Rounds spent infectious before recovering.
pub const INFECTIOUS_ROUNDS: u32 = 3;
/// One agent in this many starts out infectious.
pub const INIT_INFECTED_EVERY: u32 = 50;

/// How far (non-window) visits pick their target location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VisitDist {
    /// Uniform over all locations.
    Uniform,
    /// Zipf(1) over all locations: location 0 is the hot spot. This
    /// is the load-imbalance knob — per-location interaction work is
    /// proportional to occupancy, so the head locations make fixed
    /// per-block dealing lose to lazy splitting.
    Skewed,
}

impl VisitDist {
    /// Stable label used in params strings and test matrices.
    pub fn label(self) -> &'static str {
        match self {
            VisitDist::Uniform => "uniform",
            VisitDist::Skewed => "skewed",
        }
    }
}

/// Disease state, encoded small for message packing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Seir {
    Susceptible = 0,
    Exposed = 1,
    Infectious = 2,
    Recovered = 3,
}

impl Seir {
    fn from_u8(v: u8) -> Seir {
        match v {
            0 => Seir::Susceptible,
            1 => Seir::Exposed,
            2 => Seir::Infectious,
            3 => Seir::Recovered,
            _ => unreachable!("invalid SEIR encoding {v}"),
        }
    }
}

/// One agent: identity, disease state, home, and its private RNG
/// stream position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Agent {
    pub id: u32,
    pub state: Seir,
    /// Rounds remaining in the current E or I phase.
    pub timer: u32,
    pub home: u32,
    /// splitmix64 stream state; advanced only by this agent's draws.
    pub rng: u64,
}

/// splitmix64 finaliser.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Advance a splitmix64 stream one draw.
fn next(rng: &mut u64) -> u64 {
    *rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
    mix(*rng)
}

impl Agent {
    /// Pack into three message words (the wire/heap format every
    /// distributed backend ships at round boundaries).
    pub fn encode(&self) -> [u64; 3] {
        [
            self.id as u64 | ((self.state as u64) << 32) | ((self.timer as u64) << 40),
            self.home as u64,
            self.rng,
        ]
    }

    /// Inverse of [`Agent::encode`].
    pub fn decode(w: [u64; 3]) -> Agent {
        Agent {
            id: w[0] as u32,
            state: Seir::from_u8(((w[0] >> 32) & 0xFF) as u8),
            timer: (w[0] >> 40) as u32,
            home: w[1] as u32,
            rng: w[2],
        }
    }

    /// Position-independent record hash; the workload checksum is the
    /// wrapping sum of these over the final population.
    pub fn hash(&self) -> u64 {
        let [a, b, c] = self.encode();
        mix(a ^ mix(b ^ mix(c)))
    }
}

/// Commutative population checksum: wrapping sum of per-agent hashes,
/// reinterpreted as the `i64` every oracle harness expects.
pub fn checksum<'a>(agents: impl IntoIterator<Item = &'a Agent>) -> i64 {
    agents
        .into_iter()
        .fold(0u64, |acc, a| acc.wrapping_add(a.hash())) as i64
}

/// S/E/I/R headcounts (in that order).
pub fn seir_tally<'a>(agents: impl IntoIterator<Item = &'a Agent>) -> [u64; 4] {
    let mut t = [0u64; 4];
    for a in agents {
        t[a.state as usize] += 1;
    }
    t
}

/// Balanced contiguous partition of `n` items into `parts`; returns
/// part `p`'s `[lo, hi)` range. Every backend shards locations with
/// this (the checksum is partition-independent, but sharing one
/// partition keeps per-shard stats comparable across backends).
pub fn block_range(n: usize, parts: usize, p: usize) -> (usize, usize) {
    let parts = parts.max(1);
    (n * p / parts, n * (p + 1) / parts)
}

/// The workload definition: sizes, seed, visit skew, and the location
/// block count used as steal-backend task granularity.
#[derive(Debug, Clone)]
pub struct Episim {
    pub agents: usize,
    pub locations: usize,
    pub rounds: usize,
    pub seed: u64,
    pub dist: VisitDist,
    /// Location blocks per phase on the steal backend (task count).
    pub blocks: usize,
    /// Cumulative integer Zipf weights over locations (empty when
    /// `dist` is uniform).
    zipf_cum: Vec<u64>,
}

impl Episim {
    pub fn new(
        agents: usize,
        locations: usize,
        rounds: usize,
        seed: u64,
        dist: VisitDist,
    ) -> Episim {
        assert!(
            agents > 0 && locations > 0,
            "episim needs agents and locations"
        );
        let zipf_cum = match dist {
            VisitDist::Uniform => Vec::new(),
            VisitDist::Skewed => {
                // Integer harmonic weights w_l = SCALE/(l+1), summed.
                const SCALE: u64 = 1 << 20;
                let mut cum = Vec::with_capacity(locations);
                let mut acc = 0u64;
                for l in 0..locations as u64 {
                    acc += SCALE / (l + 1);
                    cum.push(acc);
                }
                cum
            }
        };
        Episim {
            agents,
            locations,
            rounds,
            seed,
            dist,
            blocks: locations.min(32),
            zipf_cum,
        }
    }

    /// Pick a location from the Zipf head given a raw draw.
    fn zipf_pick(&self, u: u64) -> u32 {
        let total = *self.zipf_cum.last().expect("skewed dist has weights");
        let target = u % total;
        self.zipf_cum.partition_point(|&c| c <= target) as u32
    }

    /// The initial population: homes dealt round-robin over locations,
    /// every [`INIT_INFECTED_EVERY`]-th agent seeded infectious, each
    /// RNG stream split off `(seed, id)`.
    pub fn init_agents(&self) -> Vec<Agent> {
        (0..self.agents)
            .map(|i| {
                let id = i as u32;
                let (state, timer) = if id.is_multiple_of(INIT_INFECTED_EVERY) {
                    (Seir::Infectious, INFECTIOUS_ROUNDS)
                } else {
                    (Seir::Susceptible, 0)
                };
                Agent {
                    id,
                    state,
                    timer,
                    home: id % self.locations as u32,
                    rng: mix(self.seed ^ (((i as u64) << 1) | 1)),
                }
            })
            .collect()
    }

    /// Phase 1 kernel: the agent (at home) draws this round's visit
    /// target. Consumes exactly two draws.
    pub fn visit_of(&self, a: &mut Agent) -> u32 {
        let u1 = next(&mut a.rng);
        let u2 = next(&mut a.rng);
        let l = self.locations as u64;
        if u1 % 100 < LOCAL_PCT {
            let w = LOCAL_WINDOW.min(l);
            ((a.home as u64 + u2 % w) % l) as u32
        } else {
            match self.dist {
                VisitDist::Uniform => (u2 % l) as u32,
                VisitDist::Skewed => self.zipf_pick(u2),
            }
        }
    }

    /// Phase 2 kernel: infection draws (for susceptibles), timer
    /// progression (for exposed/infectious), then the migration draw.
    /// `here` is the visited location, `infectious` its infectious
    /// headcount at round entry. Consumes `min(infectious,
    /// CONTACT_CAP)` draws if susceptible, plus one migration draw —
    /// a count independent of execution order.
    pub fn interact(&self, a: &mut Agent, here: u32, infectious: u32) {
        match a.state {
            Seir::Susceptible => {
                let contacts = infectious.min(CONTACT_CAP);
                for _ in 0..contacts {
                    let u = next(&mut a.rng);
                    if a.state == Seir::Susceptible && u % 100 < INFECT_PCT {
                        a.state = Seir::Exposed;
                        a.timer = EXPOSED_ROUNDS;
                    }
                }
            }
            Seir::Exposed => {
                a.timer -= 1;
                if a.timer == 0 {
                    a.state = Seir::Infectious;
                    a.timer = INFECTIOUS_ROUNDS;
                }
            }
            Seir::Infectious => {
                a.timer -= 1;
                if a.timer == 0 {
                    a.state = Seir::Recovered;
                }
            }
            Seir::Recovered => {}
        }
        if next(&mut a.rng) % 100 < MIG_PCT {
            a.home = here;
        }
    }

    /// The sequential oracle: the whole simulation on one thread,
    /// returning the final population in id order.
    pub fn run_seq(&self) -> Vec<Agent> {
        let mut agents = self.init_agents();
        let mut visits = vec![0u32; self.agents];
        let mut infectious = vec![0u32; self.locations];
        for _ in 0..self.rounds {
            for (a, v) in agents.iter_mut().zip(visits.iter_mut()) {
                *v = self.visit_of(a);
            }
            infectious.iter_mut().for_each(|c| *c = 0);
            for (a, &v) in agents.iter().zip(&visits) {
                if a.state == Seir::Infectious {
                    infectious[v as usize] += 1;
                }
            }
            for (a, &v) in agents.iter_mut().zip(&visits) {
                self.interact(a, v, infectious[v as usize]);
            }
        }
        agents
    }

    /// Oracle checksum (what every backend must reproduce).
    pub fn expected(&self) -> i64 {
        checksum(&self.run_seq())
    }

    /// Oracle S/E/I/R tally of the final population.
    pub fn expected_tally(&self) -> [u64; 4] {
        seir_tally(&self.run_seq())
    }
}

// ---------------------------------------------------- native steal backend

/// Carried state of the steal backend's phased waves: agents grouped
/// by location — homes between rounds, visitors mid-round — plus the
/// per-location infectious headcounts the interaction phase reads.
pub struct EpiState {
    by_loc: Vec<Vec<Agent>>,
    infectious: Vec<u32>,
}

/// One phase as a flat job over location *blocks*: task `b` processes
/// every agent currently at block `b`'s locations. Under the skewed
/// visit distribution the interaction phase's per-block work follows
/// the occupancy skew — the load shape lazy range splitting exists
/// for.
pub struct EpiPhase<'a> {
    w: &'a Episim,
    state: &'a EpiState,
    /// 0 = visit draw (at home), 1 = interact + migrate (at visit).
    phase: usize,
}

impl Job for EpiPhase<'_> {
    type Out = Vec<(u32, Agent)>;
    fn len(&self) -> usize {
        self.w.blocks
    }
    fn run(&self, b: usize) -> Vec<(u32, Agent)> {
        let (lo, hi) = block_range(self.w.locations, self.w.blocks, b);
        let mut movers = Vec::new();
        for loc in lo..hi {
            for &agent in &self.state.by_loc[loc] {
                let mut a = agent;
                if self.phase == 0 {
                    let v = self.w.visit_of(&mut a);
                    movers.push((v, a));
                } else {
                    self.w
                        .interact(&mut a, loc as u32, self.state.infectious[loc]);
                    movers.push((a.home, a));
                }
            }
        }
        movers
    }
}

/// The steal-backend form through the iterated seam: `2·rounds`
/// barrier-separated waves (visit, interact) whose `absorb` is the
/// regroup — by visited location after phase 1 (counting infectious
/// arrivals), by (possibly migrated) home after phase 2.
impl IterNative for Episim {
    type State = EpiState;
    type Out = Vec<(u32, Agent)>;
    type RoundJob<'a> = EpiPhase<'a>;

    fn rounds(&self) -> usize {
        2 * self.rounds
    }
    fn init_state(&self) -> EpiState {
        let mut by_loc = vec![Vec::new(); self.locations];
        for a in self.init_agents() {
            by_loc[a.home as usize].push(a);
        }
        EpiState {
            by_loc,
            infectious: vec![0; self.locations],
        }
    }
    fn round_job<'a>(&'a self, round: usize, state: &'a EpiState) -> EpiPhase<'a> {
        EpiPhase {
            w: self,
            state,
            phase: round % 2,
        }
    }
    fn absorb(&self, round: usize, state: &mut EpiState, values: Vec<Vec<(u32, Agent)>>) {
        for v in state.by_loc.iter_mut() {
            v.clear();
        }
        state.infectious.iter_mut().for_each(|c| *c = 0);
        let arriving_to_visit = round.is_multiple_of(2);
        for movers in values {
            for (dest, a) in movers {
                if arriving_to_visit && a.state == Seir::Infectious {
                    state.infectious[dest as usize] += 1;
                }
                state.by_loc[dest as usize].push(a);
            }
        }
    }
    fn finish(&self, state: EpiState) -> i64 {
        checksum(state.by_loc.iter().flatten())
    }
}

// ----------------------------------------------------- native Eden backend

/// Wire format of one moving agent: destination location + the three
/// [`Agent::encode`] words.
const MOVER_WORDS: usize = 4;

fn push_mover(batch: &mut Vec<u64>, dest: u32, a: &Agent) {
    let [w0, w1, w2] = a.encode();
    batch.extend_from_slice(&[dest as u64, w0, w1, w2]);
}

fn movers(batch: &[u64]) -> impl Iterator<Item = (u32, Agent)> + '_ {
    batch
        .chunks_exact(MOVER_WORDS)
        .map(|c| (c[0] as u32, Agent::decode([c[1], c[2], c[3]])))
}

/// How locations map onto partitions on the distributed backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Contiguous location blocks per partition ([`block_range`]) —
    /// the hierarchical placement: a home-window visit usually stays
    /// on the owning partition or an adjacent one (which a cluster
    /// topology keeps on the same node).
    Contiguous,
    /// Round-robin `loc % parts` — the flat-placement ablation:
    /// home-window visits scatter across every partition, so nearly
    /// all movement crosses shard (and node) boundaries.
    Scatter,
}

/// The location → owning-partition routing table for a placement.
pub fn owner_map(locations: usize, parts: usize, placement: Placement) -> Vec<u32> {
    let mut owner = vec![0u32; locations];
    match placement {
        Placement::Contiguous => {
            for p in 0..parts {
                let (lo, hi) = block_range(locations, parts, p);
                for slot in owner.iter_mut().take(hi).skip(lo) {
                    *slot = p as u32;
                }
            }
        }
        Placement::Scatter => {
            for (loc, slot) in owner.iter_mut().enumerate() {
                *slot = (loc % parts) as u32;
            }
        }
    }
    owner
}

/// One partition's state under the round-barrier exchange: the shared
/// location→partition routing table and scratch bins over its owned
/// locations (always drained by the end of each step — between steps
/// the whole population travels inside the batches, including the
/// partition's own self-addressed one). This core is shared verbatim
/// by the native-Eden exchange skeleton and the simulator's Eden
/// shard processes, which is what makes their checksums bit-identical
/// by construction.
pub struct EpiShard {
    part: u32,
    owner: Vec<u32>,
    by_loc: Vec<Vec<Agent>>,
    infectious: Vec<u32>,
}

impl EpiShard {
    /// A fresh shard with the initial population it owns staged at
    /// their home locations.
    pub fn new(w: &Episim, part: u32, owner: Vec<u32>) -> EpiShard {
        let mut by_loc = vec![Vec::new(); w.locations];
        for a in w.init_agents() {
            if owner[a.home as usize] == part {
                by_loc[a.home as usize].push(a);
            }
        }
        let infectious = vec![0; w.locations];
        EpiShard {
            part,
            owner,
            by_loc,
            infectious,
        }
    }

    /// One phase on this shard: absorb `arrivals`, process every owned
    /// location, return outgoing movers grouped by destination
    /// partition (slot `self.part` is the self-batch). Even steps are
    /// the visit phase (arrivals are home-comers from the previous
    /// round), odd steps the interaction phase (arrivals are this
    /// round's visitors, whose infectious headcount must be complete
    /// before any draw).
    pub fn step(
        &mut self,
        w: &Episim,
        parts: usize,
        step: usize,
        arrivals: impl IntoIterator<Item = (u32, Agent)>,
    ) -> Vec<Vec<(u32, Agent)>> {
        let mut out: Vec<Vec<(u32, Agent)>> = (0..parts).map(|_| Vec::new()).collect();
        if step.is_multiple_of(2) {
            for (dest, a) in arrivals {
                debug_assert_eq!(self.owner[dest as usize], self.part);
                self.by_loc[dest as usize].push(a);
            }
            for loc in 0..w.locations {
                if self.owner[loc] != self.part {
                    continue;
                }
                let mut bin = std::mem::take(&mut self.by_loc[loc]);
                for mut a in bin.drain(..) {
                    let v = w.visit_of(&mut a);
                    out[self.owner[v as usize] as usize].push((v, a));
                }
                self.by_loc[loc] = bin;
            }
        } else {
            for (dest, a) in arrivals {
                let i = dest as usize;
                if a.state == Seir::Infectious {
                    self.infectious[i] += 1;
                }
                self.by_loc[i].push(a);
            }
            for loc in 0..w.locations {
                if self.owner[loc] != self.part {
                    continue;
                }
                let inf = self.infectious[loc];
                let mut bin = std::mem::take(&mut self.by_loc[loc]);
                for mut a in bin.drain(..) {
                    w.interact(&mut a, loc as u32, inf);
                    out[self.owner[a.home as usize] as usize].push((a.home, a));
                }
                self.by_loc[loc] = bin;
                self.infectious[loc] = 0;
            }
        }
        out
    }

    /// Consume the shard after the last interaction phase: the final
    /// home-coming `arrivals` plus anything still staged (only
    /// possible with zero rounds) are this partition's residents.
    pub fn residents(mut self, arrivals: impl IntoIterator<Item = (u32, Agent)>) -> Vec<Agent> {
        for (dest, a) in arrivals {
            self.by_loc[dest as usize].push(a);
        }
        self.by_loc.into_iter().flatten().collect()
    }
}

/// The native-Eden form: locations owned per-PE, one exchange step
/// per phase (`2·rounds` total). Every batch is the algorithm's own
/// migration traffic — agents travelling to their visit target and
/// back to their (possibly new) home — so `remote_words` measures the
/// workload, not the scheduler.
struct EpiExchange<'a> {
    w: &'a Episim,
}

impl ExchangeJob for EpiExchange<'_> {
    type State = EpiShard;
    type Batch = Vec<u64>;
    type Out = Vec<u64>;

    fn steps(&self) -> usize {
        2 * self.w.rounds
    }

    fn init(&self, part: usize, parts: usize) -> EpiShard {
        EpiShard::new(
            self.w,
            part as u32,
            owner_map(self.w.locations, parts, Placement::Contiguous),
        )
    }

    fn exchange(
        &self,
        _part: usize,
        parts: usize,
        step: usize,
        state: &mut EpiShard,
        inbox: Vec<Vec<u64>>,
    ) -> Vec<Vec<u64>> {
        let arrivals = inbox.iter().flat_map(|b| movers(b));
        state
            .step(self.w, parts, step, arrivals)
            .into_iter()
            .map(|group| {
                let mut batch = Vec::with_capacity(group.len() * MOVER_WORDS);
                for (dest, a) in group {
                    push_mover(&mut batch, dest, &a);
                }
                batch
            })
            .collect()
    }

    fn finish(
        &self,
        _part: usize,
        _parts: usize,
        state: EpiShard,
        inbox: Vec<Vec<u64>>,
    ) -> Vec<u64> {
        // The last interaction phase's batches are this partition's
        // final residents; with zero rounds the initial staging is.
        let arrivals = inbox.iter().flat_map(|b| movers(b));
        let mut recs = Vec::new();
        for a in state.residents(arrivals) {
            recs.extend_from_slice(&a.encode());
        }
        recs
    }
}

/// Per-location-block S/E/I/R tallies as a flat reduction job — the
/// `parMapReduce` skeleton's input on the native Eden backend.
pub struct TallyJob<'a> {
    w: &'a Episim,
    by_loc: Vec<Vec<Agent>>,
}

impl Job for TallyJob<'_> {
    type Out = Vec<u64>;
    fn len(&self) -> usize {
        self.w.blocks
    }
    fn run(&self, b: usize) -> Vec<u64> {
        let (lo, hi) = block_range(self.w.locations, self.w.blocks, b);
        let mut t = vec![0u64; 4];
        for bin in &self.by_loc[lo..hi] {
            for a in bin {
                t[a.state as usize] += 1;
            }
        }
        t
    }
}

/// The tally fold: elementwise headcount sum (associative *and*
/// commutative, so any grouping is bit-identical).
pub fn tally_fold(mut a: Vec<u64>, b: Vec<u64>) -> Vec<u64> {
    for (x, y) in a.iter_mut().zip(&b) {
        *x += y;
    }
    a
}

impl Episim {
    /// The full native-Eden run: the exchange skeleton for the rounds,
    /// then the `parMapReduce` skeleton for the final per-location
    /// S/E/I/R tallies. Returns the merged measurement plus the tally
    /// (which tests pin against both the sequential fold and the
    /// oracle population).
    pub fn run_eden_native(
        &self,
        cfg: &NativeConfig,
    ) -> Result<(NativeMeasured, [u64; 4]), RunError> {
        let out = try_exchange(&EpiExchange { w: self }, cfg)?;
        let mut by_loc = vec![Vec::new(); self.locations];
        let mut sum = 0u64;
        for part in &out.values {
            for rec in part.chunks_exact(3) {
                let a = Agent::decode([rec[0], rec[1], rec[2]]);
                sum = sum.wrapping_add(a.hash());
                by_loc[a.home as usize].push(a);
            }
        }
        let tally_run = try_par_map_reduce(&TallyJob { w: self, by_loc }, cfg, tally_fold)?;
        let tally: [u64; 4] = tally_run
            .values
            .first()
            .map(|v| v.clone().try_into().expect("tally has four counts"))
            .unwrap_or([0; 4]);
        let mut m = NativeMeasured {
            value: sum as i64,
            wall: out.wall + tally_run.wall,
            stats: out.stats,
            trace: out.trace,
            trace_dropped: out.trace_dropped + tally_run.trace_dropped,
        };
        m.stats.merge(&tally_run.stats);
        merge_trace(&mut m.trace, tally_run.trace);
        Ok((m, tally))
    }
}

impl NativeWorkload for Episim {
    fn name(&self) -> &'static str {
        "episim"
    }
    fn default_params(&self) -> String {
        format!(
            "n={} loc={} rounds={} dist={}",
            self.agents,
            self.locations,
            self.rounds,
            self.dist.label()
        )
    }
    fn expected_value(&self) -> i64 {
        self.expected()
    }
    /// Steal backend: `2·rounds` pooled waves over location blocks.
    /// Eden backend: the exchange skeleton (locations owned per-PE,
    /// migration batches at every phase barrier) plus the
    /// `parMapReduce` tally pass.
    fn run_on(&self, cfg: &NativeConfig) -> Result<NativeMeasured, RunError> {
        match cfg.backend {
            rph_native::BackendKind::Steal => {
                run_iter_on(self, &mut Pool::new(cfg)).map_err(RunError::from)
            }
            rph_native::BackendKind::Eden => self.run_eden_native(cfg).map(|(m, _)| m),
        }
    }
}

// ------------------------------------------------------ simulator drivers

/// Work units charged per agent for a visit draw.
const VISIT_COST: u64 = 40;
/// Work units charged per agent for the interaction phase.
const INTERACT_COST: u64 = 80;
/// Work units charged per mover scanned while regrouping.
const GATHER_COST: u64 = 4;

/// Collect the spine of a fully-evaluated heap list.
fn walk_list(heap: &Heap, mut cur: NodeRef) -> Vec<NodeRef> {
    let mut out = Vec::new();
    loop {
        let next = match heap.expect_value(cur) {
            Value::Cons(h, t) => {
                out.push(*h);
                *t
            }
            Value::Nil => return out,
            other => panic!("episim: expected a list spine, got {other:?}"),
        };
        cur = next;
    }
}

/// Decode an agent cell (a tuple of the three [`Agent::encode`]
/// words) from the heap.
fn heap_agent(heap: &Heap, node: NodeRef) -> Agent {
    match heap.expect_value(node) {
        Value::Tuple(els) if els.len() == 3 => {
            let w = |i: usize| heap.expect_value(els[i]).expect_int() as u64;
            Agent::decode([w(0), w(1), w(2)])
        }
        other => panic!("episim: expected an agent cell, got {other:?}"),
    }
}

/// Allocate an agent cell: a boxed tuple of three boxed ints — the
/// deliberate heap-pressure representation (each agent is five small
/// nodes the GC has to chase, like the paper's cons-heavy Haskell
/// heaps).
fn alloc_agent(heap: &mut Heap, a: &Agent) -> NodeRef {
    let [w0, w1, w2] = a.encode();
    let n0 = heap.int(w0 as i64);
    let n1 = heap.int(w1 as i64);
    let n2 = heap.int(w2 as i64);
    heap.alloc_value(Value::Tuple(vec![n0, n1, n2].into()))
}

/// Allocate a mover: `(destination location, agent cell)`.
fn alloc_mover(heap: &mut Heap, dest: u32, agent_cell: NodeRef) -> NodeRef {
    let d = heap.int(dest as i64);
    heap.alloc_value(Value::Tuple(vec![d, agent_cell].into()))
}

/// Decode a mover's destination and its agent-cell node.
fn heap_mover(heap: &Heap, node: NodeRef) -> (u32, NodeRef) {
    match heap.expect_value(node) {
        Value::Tuple(els) if els.len() == 2 => {
            (heap.expect_value(els[0]).expect_int() as u32, els[1])
        }
        other => panic!("episim: expected a mover, got {other:?}"),
    }
}

impl Episim {
    /// Shared-heap GpH run: the whole `2·rounds × blocks` thunk graph
    /// is built up front (like the APSP driver "sparks an evaluation
    /// for each row in advance") and sparked in layer order; demand
    /// flows backwards from the per-block checksum partials. Agents
    /// live as tuple-of-int cells, so the population churns the shared
    /// heap every round — the allocation pressure this workload is
    /// meant to put on the per-capability nurseries.
    pub fn run_gph(&self, config: GphConfig) -> Result<Measured, String> {
        let blocks = self.blocks;
        let block_of = owner_map(self.locations, blocks, Placement::Contiguous);

        let mut b = ProgramBuilder::new();
        let pre = prelude::install(&mut b);
        let w = self.clone();
        // visitBlock pop: one visit draw per agent; emits movers.
        let visit_k = b.kernel("visitBlock", 1, move |heap, args| {
            let cells = walk_list(heap, args[0]);
            let mut movers = Vec::with_capacity(cells.len());
            for cell in cells {
                let mut a = heap_agent(heap, cell);
                let dest = w.visit_of(&mut a);
                let cell2 = alloc_agent(heap, &a);
                movers.push(alloc_mover(heap, dest, cell2));
            }
            let cost = VISIT_COST * movers.len() as u64 + 10;
            KernelOut {
                result: list_of(heap, &movers),
                cost,
                transient_words: 0,
            }
        });
        let bo = block_of.clone();
        // gatherVisit b m_0 … m_{B-1}: movers bound for block b.
        let gather_visit_k = b.kernel("gatherVisit", blocks + 1, move |heap, args| {
            let blk = heap.expect_value(args[0]).expect_int() as u32;
            let mut mine = Vec::new();
            let mut scanned = 0u64;
            for &m in &args[1..] {
                for mv in walk_list(heap, m) {
                    scanned += 1;
                    let (dest, _) = heap_mover(heap, mv);
                    if bo[dest as usize] == blk {
                        mine.push(mv);
                    }
                }
            }
            KernelOut {
                result: list_of(heap, &mine),
                cost: GATHER_COST * scanned + 10,
                transient_words: 0,
            }
        });
        let w = self.clone();
        // interactBlock visitors: tally infectious per location over
        // the *pre-state* set, then infect/progress/migrate each
        // visitor; emits home-bound movers.
        let interact_k = b.kernel("interactBlock", 1, move |heap, args| {
            let movers = walk_list(heap, args[0]);
            let mut decoded = Vec::with_capacity(movers.len());
            let mut infectious = vec![0u32; w.locations];
            for mv in movers {
                let (loc, cell) = heap_mover(heap, mv);
                let a = heap_agent(heap, cell);
                if a.state == Seir::Infectious {
                    infectious[loc as usize] += 1;
                }
                decoded.push((loc, a));
            }
            let mut out = Vec::with_capacity(decoded.len());
            for (loc, mut a) in decoded {
                w.interact(&mut a, loc, infectious[loc as usize]);
                let cell = alloc_agent(heap, &a);
                out.push(alloc_mover(heap, a.home, cell));
            }
            let cost = INTERACT_COST * out.len() as u64 + 10;
            KernelOut {
                result: list_of(heap, &out),
                cost,
                transient_words: 0,
            }
        });
        let bo = block_of.clone();
        // gatherHome b m_0 … m_{B-1}: agents homed in block b (the
        // mover wrapper is stripped; the agent cells are shared).
        let gather_home_k = b.kernel("gatherHome", blocks + 1, move |heap, args| {
            let blk = heap.expect_value(args[0]).expect_int() as u32;
            let mut mine = Vec::new();
            let mut scanned = 0u64;
            for &m in &args[1..] {
                for mv in walk_list(heap, m) {
                    scanned += 1;
                    let (dest, cell) = heap_mover(heap, mv);
                    if bo[dest as usize] == blk {
                        mine.push(cell);
                    }
                }
            }
            KernelOut {
                result: list_of(heap, &mine),
                cost: GATHER_COST * scanned + 10,
                transient_words: 0,
            }
        });
        // checksumBlock pop: the block's wrapping hash-sum partial.
        let checksum_k = b.kernel("checksumBlock", 1, move |heap, args| {
            let cells = walk_list(heap, args[0]);
            let mut sum = 0u64;
            for cell in &cells {
                sum = sum.wrapping_add(heap_agent(heap, *cell).hash());
            }
            KernelOut {
                result: heap.alloc_value(Value::Int(sum as i64)),
                cost: 6 * cells.len() as u64 + 5,
                transient_words: 0,
            }
        });
        // gphMain all partials = sparkList all `seq` sum partials
        // (prelude Add wraps, so the partial fold is exact).
        let gph_main = b.def(
            "gphMain",
            2,
            seq(app(pre.spark_list, vec![v(0)]), app(pre.sum, vec![v(1)])),
        );
        let program = b.build();

        let mut rt = GphRuntime::new(program, config);
        let this = self.clone();
        let block_of = owner_map(self.locations, blocks, Placement::Contiguous);
        let out = rt.run(|heap| {
            // Initial per-block populations.
            let mut grouped: Vec<Vec<NodeRef>> = vec![Vec::new(); blocks];
            for a in this.init_agents() {
                let cell = alloc_agent(heap, &a);
                grouped[block_of[a.home as usize] as usize].push(cell);
            }
            let mut pop: Vec<NodeRef> = grouped.iter().map(|g| list_of(heap, g)).collect();
            let mut all = Vec::new();
            for _ in 0..this.rounds {
                let visits: Vec<NodeRef> = pop
                    .iter()
                    .map(|&p| heap.alloc_thunk(visit_k, vec![p]))
                    .collect();
                let popv: Vec<NodeRef> = (0..blocks)
                    .map(|blk| {
                        let mut args = vec![heap.int(blk as i64)];
                        args.extend_from_slice(&visits);
                        heap.alloc_thunk(gather_visit_k, args)
                    })
                    .collect();
                let inter: Vec<NodeRef> = popv
                    .iter()
                    .map(|&p| heap.alloc_thunk(interact_k, vec![p]))
                    .collect();
                let next: Vec<NodeRef> = (0..blocks)
                    .map(|blk| {
                        let mut args = vec![heap.int(blk as i64)];
                        args.extend_from_slice(&inter);
                        heap.alloc_thunk(gather_home_k, args)
                    })
                    .collect();
                all.extend_from_slice(&visits);
                all.extend_from_slice(&popv);
                all.extend_from_slice(&inter);
                all.extend_from_slice(&next);
                pop = next;
            }
            let partials: Vec<NodeRef> = pop
                .iter()
                .map(|&p| heap.alloc_thunk(checksum_k, vec![p]))
                .collect();
            all.extend_from_slice(&partials);
            let all_list = list_of(heap, &all);
            let partials_list = list_of(heap, &partials);
            heap.alloc_thunk(gph_main, vec![all_list, partials_list])
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

    /// Distributed-heap Eden run: one shard process per PE owning a
    /// location partition (per `placement`), exchanging one migration
    /// batch per ordered PE pair per phase over stream channels. All
    /// inter-PE words are the algorithm's own agent movement, priced
    /// through the topology's link classes — under a cluster topology
    /// [`rph_eden::EdenStats::remote_words`] measures the workload,
    /// and the [`Placement::Contiguous`]-vs-[`Placement::Scatter`]
    /// ablation shows hierarchical placement cutting inter-node
    /// traffic.
    pub fn run_eden(&self, config: EdenConfig, placement: Placement) -> Result<Measured, String> {
        let parts = config.pes;
        let mut b = ProgramBuilder::new();
        let _pre = prelude::install(&mut b);
        let support = rph_eden::install_support(&mut b);
        let program = b.build();
        let mut rt = EdenRuntime::new(program, support, config);

        let owner = owner_map(self.locations, parts, placement);
        // Result channels (one Int partial per shard) on PE 0.
        let mut result_nodes = Vec::with_capacity(parts);
        let mut result_chans = Vec::with_capacity(parts);
        for _ in 0..parts {
            let (c, n) = rt.new_channel(0, CommMode::Single);
            result_chans.push(c);
            result_nodes.push(n);
        }
        // One stream channel per ordered PE pair, on the receiver.
        let mut in_nodes: Vec<Vec<Option<NodeRef>>> = vec![vec![None; parts]; parts];
        let mut out_eps: Vec<Vec<Option<Endpoint>>> = vec![vec![None; parts]; parts];
        for src in 0..parts {
            for dst in 0..parts {
                if src == dst {
                    continue;
                }
                let (c, n) = rt.new_channel(dst, CommMode::Stream);
                in_nodes[dst][src] = Some(n);
                out_eps[src][dst] = Some(Endpoint {
                    pe: dst as u32,
                    chan: c,
                });
            }
        }
        for p in 0..parts {
            let logic = ShardLogic {
                w: self.clone(),
                part: p,
                parts,
                shard: Some(EpiShard::new(self, p as u32, owner.clone())),
                step: 0,
                cursors: in_nodes[p].clone(),
                // Step 0 has no arrivals: pre-fill every slot so the
                // first visit phase runs immediately.
                got: (0..parts).map(|_| Some(Vec::new())).collect(),
                outs: out_eps[p].clone(),
                result_dest: Endpoint {
                    pe: 0,
                    chan: result_chans[p],
                },
            };
            rt.start_native(p, Box::new(logic));
        }
        let final_node = rt.alloc_placeholder(0);
        rt.pin_root(0, final_node);
        rt.start_native(
            0,
            Box::new(Collector {
                inputs: result_nodes,
                result: final_node,
            }),
        );
        let out = rt.run(final_node)?;
        let value = rt.heap(0).expect_value(out.result).expect_int();
        Ok(Measured {
            value,
            elapsed: out.elapsed,
            tracer: out.tracer,
            gph_stats: None,
            eden_stats: Some(out.stats),
        })
    }
}

/// One Eden shard process: owns a location partition, runs the
/// [`EpiShard`] phases, and trades one mover batch per peer per phase
/// over its stream channels (an empty batch still travels — the round
/// barrier is the messages themselves).
struct ShardLogic {
    w: Episim,
    part: usize,
    parts: usize,
    shard: Option<EpiShard>,
    /// Next phase to run (0 ..= 2·rounds; the last value is the final
    /// absorb).
    step: usize,
    /// Per-peer incoming stream cursors (`None` at `self.part`).
    cursors: Vec<Option<NodeRef>>,
    /// Arrival batches collected for the current step.
    got: Vec<Option<Vec<(u32, Agent)>>>,
    /// Per-peer outgoing endpoints.
    outs: Vec<Option<Endpoint>>,
    result_dest: Endpoint,
}

impl ShardLogic {
    /// Encode one batch as a heap list of movers.
    fn encode_batch(heap: &mut Heap, movers: &[(u32, Agent)]) -> NodeRef {
        let nodes: Vec<NodeRef> = movers
            .iter()
            .map(|(dest, a)| {
                let cell = alloc_agent(heap, a);
                alloc_mover(heap, *dest, cell)
            })
            .collect();
        list_of(heap, &nodes)
    }

    fn decode_batch(heap: &Heap, node: NodeRef) -> Vec<(u32, Agent)> {
        walk_list(heap, node)
            .into_iter()
            .map(|mv| {
                let (dest, cell) = heap_mover(heap, mv);
                (dest, heap_agent(heap, cell))
            })
            .collect()
    }
}

impl NativeLogic for ShardLogic {
    fn step(&mut self, ctx: &mut NativeCtx<'_>) -> Result<NativeStep, String> {
        loop {
            // Collect the current step's missing arrival batches.
            let mut waits = Vec::new();
            for src in 0..self.parts {
                if src == self.part || self.got[src].is_some() {
                    continue;
                }
                let cur = self.cursors[src].expect("peer cursor");
                match ctx.heap.whnf(cur).cloned() {
                    Some(Value::Cons(h, t)) => {
                        let batch = Self::decode_batch(ctx.heap, h);
                        ctx.cost += GATHER_COST * batch.len() as u64 + 20;
                        self.got[src] = Some(batch);
                        self.cursors[src] = Some(t);
                    }
                    Some(Value::Nil) => {
                        return Err(format!(
                            "episim shard {}: peer {src} stream ended at step {}",
                            self.part, self.step
                        ));
                    }
                    Some(other) => {
                        return Err(format!(
                            "episim shard {}: bad stream item {other:?}",
                            self.part
                        ))
                    }
                    None => waits.push(cur),
                }
            }
            if !waits.is_empty() {
                return Ok(NativeStep::Wait(waits));
            }
            let arrivals: Vec<(u32, Agent)> = self
                .got
                .iter_mut()
                .filter_map(|g| g.take())
                .flatten()
                .collect();
            if self.step == 2 * self.w.rounds {
                // Final absorb: checksum this partition's residents
                // and report to the collector.
                let shard = self.shard.take().expect("final step runs once");
                let residents = shard.residents(arrivals);
                ctx.cost += 6 * residents.len() as u64 + 20;
                let mut sum = 0u64;
                for a in &residents {
                    sum = sum.wrapping_add(a.hash());
                }
                let node = ctx.heap.alloc_value(Value::Int(sum as i64));
                ctx.send_single(self.result_dest, node)?;
                for ep in self.outs.iter().flatten() {
                    ctx.send_stream_end(*ep);
                }
                return Ok(NativeStep::Done);
            }
            let shard = self.shard.as_mut().expect("shard live until final step");
            let grouped = shard.step(&self.w, self.parts, self.step, arrivals);
            let phase_cost = if self.step.is_multiple_of(2) {
                VISIT_COST
            } else {
                INTERACT_COST
            };
            let processed: usize = grouped.iter().map(|g| g.len()).sum();
            ctx.cost += phase_cost * processed as u64 + 50;
            for (dst, movers) in grouped.into_iter().enumerate() {
                if dst == self.part {
                    // The self-batch never leaves the PE.
                    self.got[dst] = Some(movers);
                } else {
                    let node = Self::encode_batch(ctx.heap, &movers);
                    ctx.send_stream_item(self.outs[dst].expect("peer endpoint"), node)?;
                }
            }
            self.step += 1;
        }
    }

    fn push_roots(&self, out: &mut Vec<NodeRef>) {
        out.extend(self.cursors.iter().flatten().copied());
    }
}

/// PE 0's collector: folds the shard partials (wrapping, so grouping
/// is irrelevant) into the run's result placeholder.
struct Collector {
    inputs: Vec<NodeRef>,
    result: NodeRef,
}

impl NativeLogic for Collector {
    fn step(&mut self, ctx: &mut NativeCtx<'_>) -> Result<NativeStep, String> {
        let mut total = 0u64;
        let mut waits = Vec::new();
        for &n in &self.inputs {
            match ctx.heap.whnf(n) {
                Some(Value::Int(i)) => total = total.wrapping_add(*i as u64),
                Some(other) => return Err(format!("episim collector: bad partial {other:?}")),
                None => waits.push(n),
            }
        }
        if !waits.is_empty() {
            return Ok(NativeStep::Wait(waits));
        }
        ctx.cost += 2 * self.inputs.len() as u64 + 10;
        let node = ctx.heap.alloc_value(Value::Int(total as i64));
        let rep = ctx.heap.update(self.result, node);
        ctx.woken.extend(rep.woken);
        Ok(NativeStep::Done)
    }

    fn push_roots(&self, out: &mut Vec<NodeRef>) {
        out.extend_from_slice(&self.inputs);
        out.push(self.result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(dist: VisitDist) -> Episim {
        Episim::new(240, 48, 4, 0x5EED, dist)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let e = small(VisitDist::Skewed);
        for a in e.init_agents() {
            assert_eq!(Agent::decode(a.encode()), a);
        }
        let odd = Agent {
            id: u32::MAX,
            state: Seir::Recovered,
            timer: 12345,
            home: 999_999,
            rng: u64::MAX,
        };
        assert_eq!(Agent::decode(odd.encode()), odd);
    }

    #[test]
    fn checksum_is_order_independent() {
        let e = small(VisitDist::Skewed);
        let agents = e.run_seq();
        let fwd = checksum(&agents);
        let rev: Vec<Agent> = agents.iter().rev().copied().collect();
        assert_eq!(fwd, checksum(&rev));
    }

    #[test]
    fn simulation_actually_spreads() {
        // The oracle dynamics must be non-trivial: infections happen,
        // recoveries happen, agents migrate.
        for dist in [VisitDist::Uniform, VisitDist::Skewed] {
            let e = Episim::new(2000, 100, 8, 42, dist);
            let t0 = seir_tally(&e.init_agents());
            let t = e.expected_tally();
            assert_eq!(t.iter().sum::<u64>(), 2000, "{dist:?}: conservation");
            assert!(t[3] > 0, "{dist:?}: someone must have recovered: {t:?}");
            assert!(
                t[1] + t[2] + t[3] > t0[2],
                "{dist:?}: the epidemic must have spread beyond the seed: {t:?}"
            );
            let moved = e.run_seq().iter().filter(|a| a.home != a.id % 100).count();
            assert!(moved > 0, "{dist:?}: nobody migrated");
        }
    }

    #[test]
    fn skew_concentrates_occupancy() {
        // Zipf far-visits must load the head locations measurably more
        // than the uniform distribution does.
        let occupancy = |dist| {
            let e = Episim::new(4000, 64, 1, 7, dist);
            let mut agents = e.init_agents();
            let mut occ = vec![0usize; 64];
            for a in agents.iter_mut() {
                occ[e.visit_of(a) as usize] += 1;
            }
            occ
        };
        let uni = occupancy(VisitDist::Uniform);
        let zipf = occupancy(VisitDist::Skewed);
        let head = |occ: &[usize]| occ.iter().take(4).sum::<usize>();
        assert!(
            head(&zipf) > head(&uni) * 3 / 2,
            "zipf head {} vs uniform head {}",
            head(&zipf),
            head(&uni)
        );
    }

    #[test]
    fn seeds_change_the_answer() {
        let a = Episim::new(240, 48, 4, 1, VisitDist::Skewed).expected();
        let b = Episim::new(240, 48, 4, 2, VisitDist::Skewed).expected();
        assert_ne!(a, b);
    }

    #[test]
    fn block_range_partitions_exactly() {
        for n in [0usize, 1, 7, 48, 100] {
            for parts in [1usize, 2, 3, 7, 100] {
                let mut covered = 0;
                for p in 0..parts {
                    let (lo, hi) = block_range(n, parts, p);
                    assert!(lo <= hi && hi <= n);
                    covered += hi - lo;
                }
                assert_eq!(covered, n, "n={n} parts={parts}");
            }
        }
    }

    #[test]
    fn steal_backend_is_bit_identical_to_oracle() {
        for dist in [VisitDist::Uniform, VisitDist::Skewed] {
            let e = small(dist);
            let want = e.expected();
            for workers in [1usize, 2, 3, 4, 8] {
                let cfg = NativeConfig::steal(workers);
                let got = e.run_on(&cfg).unwrap();
                assert_eq!(got.value, want, "{dist:?} workers={workers}");
            }
        }
    }

    #[test]
    fn eden_backend_is_bit_identical_and_tally_conserves_population() {
        for dist in [VisitDist::Uniform, VisitDist::Skewed] {
            let e = small(dist);
            let want = e.expected();
            let want_tally = e.expected_tally();
            for workers in [1usize, 2, 3, 4, 8] {
                let cfg = NativeConfig::steal(workers)
                    .with_backend(rph_native::BackendKind::Eden)
                    .with_chan_cap(2);
                let (m, tally) = e.run_eden_native(&cfg).unwrap();
                assert_eq!(m.value, want, "{dist:?} workers={workers}");
                assert_eq!(tally, want_tally, "{dist:?} workers={workers}");
                assert_eq!(
                    tally.iter().sum::<u64>() as usize,
                    e.agents,
                    "{dist:?} workers={workers}: shard migration must conserve agents"
                );
            }
        }
    }

    #[test]
    fn eden_messages_carry_the_migration_traffic() {
        // With more than one PE, agents moving between PEs' locations
        // must show up as message words beyond what a lone PE sends —
        // the whole point of this workload's Eden form. Both runs ship
        // the same final agents and tallies to the master.
        let e = small(VisitDist::Skewed);
        let eden = |w| NativeConfig::steal(w).with_backend(rph_native::BackendKind::Eden);
        let (one, _) = e.run_eden_native(&eden(1)).unwrap();
        let (four, _) = e.run_eden_native(&eden(4)).unwrap();
        assert_eq!(four.stats.msgs_sent, four.stats.msgs_recv);
        assert!(
            four.stats.words_sent > one.stats.words_sent,
            "1 PE: {:?}\n4 PEs: {:?}",
            one.stats,
            four.stats
        );
    }

    #[test]
    fn all_four_backends_are_bit_identical() {
        // The differential suite: sim-GpH, sim-Eden, native-steal and
        // native-Eden all reproduce the sequential oracle bit-for-bit
        // at every worker count, both seeds, both visit distributions.
        for seed in [1u64, 0x5EED] {
            for dist in [VisitDist::Uniform, VisitDist::Skewed] {
                let e = Episim::new(240, 48, 4, seed, dist);
                let want = e.expected();
                for wkrs in [1usize, 2, 3, 4, 8] {
                    let ctx = format!("seed={seed} {dist:?} workers={wkrs}");
                    let steal = e.run_on(&NativeConfig::steal(wkrs)).unwrap();
                    assert_eq!(steal.value, want, "native-steal {ctx}");
                    let ecfg =
                        NativeConfig::steal(wkrs).with_backend(rph_native::BackendKind::Eden);
                    assert_eq!(e.run_on(&ecfg).unwrap().value, want, "native-eden {ctx}");
                    let gph = e
                        .run_gph(GphConfig::ghc69_plain(wkrs).without_trace())
                        .unwrap();
                    assert_eq!(gph.value, want, "sim-gph {ctx}");
                    let esim = e
                        .run_eden(EdenConfig::new(wkrs).without_trace(), Placement::Contiguous)
                        .unwrap();
                    assert_eq!(esim.value, want, "sim-eden {ctx}");
                }
            }
        }
    }

    #[test]
    fn eden_sim_scatter_placement_is_bit_identical_too() {
        let e = small(VisitDist::Skewed);
        let want = e.expected();
        for pes in [1usize, 3, 4] {
            let m = e
                .run_eden(EdenConfig::new(pes).without_trace(), Placement::Scatter)
                .unwrap();
            assert_eq!(m.value, want, "pes={pes}");
        }
    }

    #[test]
    fn hierarchical_placement_cuts_remote_words() {
        // The topology ablation: on a 2-node × 4-PE cluster, placing
        // contiguous location blocks (so the home window stays on one
        // shard, and adjacent shards share a node) must move fewer
        // words over the inter-node links than scattering locations
        // round-robin across shards.
        let e = Episim::new(2000, 64, 6, 0x5EED, VisitDist::Skewed);
        let run = |placement| {
            let cfg = EdenConfig::new(8).with_topology(2, 4).without_trace();
            let m = e.run_eden(cfg, placement).unwrap();
            (m.value, m.eden_stats.unwrap())
        };
        let (v_hier, s_hier) = run(Placement::Contiguous);
        let (v_flat, s_flat) = run(Placement::Scatter);
        assert_eq!(v_hier, e.expected());
        assert_eq!(v_flat, e.expected());
        assert!(s_hier.remote_words > 0, "cluster runs must cross nodes");
        assert!(
            s_hier.remote_words < s_flat.remote_words,
            "hierarchical placement must cut inter-node traffic: {} vs {}",
            s_hier.remote_words,
            s_flat.remote_words
        );
        // And the messages really carry the population: total words
        // scale with agents in flight, not just envelopes.
        assert!(s_flat.message_words > s_flat.remote_words);
    }

    #[test]
    fn zero_round_runs_degenerate_to_the_initial_population() {
        let e = Episim::new(100, 10, 0, 7, VisitDist::Uniform);
        let want = checksum(&e.init_agents());
        assert_eq!(e.expected(), want);
        assert_eq!(e.run_on(&NativeConfig::steal(3)).unwrap().value, want);
        let cfg = NativeConfig::steal(3).with_backend(rph_native::BackendKind::Eden);
        let (m, tally) = e.run_eden_native(&cfg).unwrap();
        assert_eq!(m.value, want);
        assert_eq!(tally.iter().sum::<u64>(), 100);
    }
}
