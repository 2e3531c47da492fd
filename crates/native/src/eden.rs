//! Shared harness for the native Eden backend: the one PE engine
//! ([`run_pes`]), per-PE endpoints, channel bookkeeping and outcome
//! assembly.
//!
//! The execution model is Eden's §II picture on real threads:
//!
//! * One OS thread per PE. Each PE's working memory — its task
//!   results, its ring rows — lives in locals **owned by that
//!   thread**; there is no shared result heap during compute. The
//!   only cross-thread traffic is fully-evaluated [`Packet`]s over
//!   the bounded channels of [`crate::channel`], so the paper's
//!   "communicate only WHNF data" invariant holds *by construction*:
//!   a value must be finished before it can be framed and sent.
//! * The calling thread acts as the **master** PE: it instantiates
//!   the ring/farm, feeds tasks (master–worker), and collects result
//!   packets into task order. On trace renders it appears as the last
//!   row (`CapId(workers)`), so a timeline shows `workers + 1` rows.
//! * Every thread owns an [`Endpoint`]: the same pre-allocated
//!   [`TraceBuf`] the pool workers use, plus message counters. A
//!   channel operation that cannot complete immediately records a
//!   block event *before* sleeping and an unblock after — so the
//!   timeline shows red (Blocked) exactly while a PE sat in
//!   back-pressure or starved for input, mirroring what EdenTV shows
//!   for `waitForSpace`/`waitForData` in the paper's Fig. 4.

use crate::channel::{bounded_with_notify, Packet, Receiver, Sender, TrySendError};
use crate::error::EdenIncomplete;
use crate::executor::{NativeConfig, NativeOutcome, NativeStats};
use crate::park::EventCount;
use crate::trace::{map_events, NEvent, NEventKind, TraceBuf};
use rph_trace::{CapId, Tracer, WallClock};
use std::sync::Arc;
use std::time::Duration;

/// Message counters one endpoint (PE or master) maintains about
/// itself; summed into [`NativeStats`] at assembly.
#[derive(Debug, Default, Clone)]
pub(crate) struct PeStats {
    /// Tasks (or row updates) this PE executed.
    pub(crate) ran: u64,
    pub(crate) msgs_sent: u64,
    pub(crate) msgs_recv: u64,
    pub(crate) words_sent: u64,
    pub(crate) send_blocks: u64,
    pub(crate) recv_blocks: u64,
}

/// One thread's recording context: trace buffer plus counters, with
/// channel helpers that keep the two consistent.
pub(crate) struct Endpoint {
    pub(crate) tbuf: TraceBuf,
    pub(crate) stats: PeStats,
}

impl Endpoint {
    pub(crate) fn new(cfg: &NativeConfig, clock: WallClock) -> Self {
        let mut tbuf = TraceBuf::new(cfg.trace, cfg.trace_cap);
        tbuf.begin_run(clock);
        Endpoint {
            tbuf,
            stats: PeStats::default(),
        }
    }

    /// Book-keep a packet that was (already) delivered to PE `to`.
    pub(crate) fn note_sent(&mut self, to: u32, words: u64, tag: &'static str) {
        self.stats.msgs_sent += 1;
        self.stats.words_sent += words;
        self.tbuf.record(NEventKind::MsgSend { to, words, tag });
    }

    /// Book-keep a packet received from PE `from`.
    pub(crate) fn note_recv(&mut self, from: u32, words: u64, tag: &'static str) {
        self.stats.msgs_recv += 1;
        self.tbuf.record(NEventKind::MsgRecv { from, words, tag });
    }

    /// Run `f` as one executed range of `count` tasks: an
    /// `ExecStart`/`ExecEnd` pair around it, `count` added to `ran`.
    pub(crate) fn exec<R>(&mut self, count: u32, f: impl FnOnce() -> R) -> R {
        self.tbuf.record(NEventKind::ExecStart);
        let r = f();
        self.stats.ran += u64::from(count);
        self.tbuf.record(NEventKind::ExecEnd {
            count,
            stolen: false,
        });
        r
    }

    /// Send `pkt` to PE `to`, blocking under back-pressure (recorded
    /// as a `BlockSend` episode). Returns false if the receiving end
    /// is gone — which means the peer panicked; callers stop sending
    /// and let the join report the dead PE.
    pub(crate) fn send<T>(
        &mut self,
        tx: &Sender<Packet<T>>,
        to: u32,
        tag: &'static str,
        pkt: Packet<T>,
    ) -> bool {
        let words = pkt.words;
        let pkt = match tx.try_send(pkt) {
            Ok(()) => {
                self.note_sent(to, words, tag);
                return true;
            }
            Err(TrySendError::Disconnected(_)) => return false,
            Err(TrySendError::Full(p)) => p,
        };
        self.stats.send_blocks += 1;
        self.tbuf.record(NEventKind::BlockSend { to });
        let ok = tx.send(pkt).is_ok();
        self.tbuf.record(NEventKind::Unblock);
        if ok {
            self.note_sent(to, words, tag);
        }
        ok
    }

    /// Receive the next packet from PE `from`, blocking on an empty
    /// channel (recorded as a `BlockRecv` episode). `None` is end of
    /// stream.
    pub(crate) fn recv<T>(
        &mut self,
        rx: &Receiver<Packet<T>>,
        from: u32,
        tag: &'static str,
    ) -> Option<Packet<T>> {
        let pkt = match rx.try_recv() {
            Some(p) => p,
            None => {
                // Empty. If the stream also ended this recv returns
                // immediately — only count a block when we will
                // actually wait for a producer.
                let ended = rx.poll_ready();
                if !ended {
                    self.stats.recv_blocks += 1;
                    self.tbuf.record(NEventKind::BlockRecv { from });
                }
                let p = rx.recv();
                if !ended {
                    self.tbuf.record(NEventKind::Unblock);
                }
                p?
            }
        };
        self.note_recv(from, pkt.words, tag);
        Some(pkt)
    }

    /// Flush this endpoint's records for assembly.
    pub(crate) fn finish(mut self) -> PeReport {
        let mut events = Vec::new();
        let dropped = self.tbuf.flush_into(&mut events);
        PeReport {
            stats: self.stats,
            events,
            dropped,
        }
    }
}

/// What one endpoint contributes to the run outcome; a dead PE
/// contributes the empty default.
#[derive(Default)]
pub(crate) struct PeReport {
    pub(crate) stats: PeStats,
    pub(crate) events: Vec<NEvent>,
    pub(crate) dropped: u64,
}

/// Fold per-PE reports (+ the master's) into the same
/// [`NativeOutcome`] shape the steal backend produces. Tracer rows
/// `0..workers` are the PEs, row `workers` is the master; `per_worker`
/// covers the PEs only (the master runs no tasks). All tasks are
/// "local" — there is no stealing to attribute against.
fn assemble<T>(
    cfg: &NativeConfig,
    values: Vec<T>,
    wall: Duration,
    pe_reports: Vec<PeReport>,
    master: PeReport,
) -> NativeOutcome<T> {
    let workers = pe_reports.len();
    let mut stats = NativeStats {
        per_worker: pe_reports.iter().map(|r| r.stats.ran).collect(),
        ..NativeStats::default()
    };
    stats.tasks_run = stats.per_worker.iter().sum();
    stats.tasks_local = stats.tasks_run;
    let mut trace_dropped = 0;
    for rep in pe_reports.iter().chain(std::iter::once(&master)) {
        stats.msgs_sent += rep.stats.msgs_sent;
        stats.msgs_recv += rep.stats.msgs_recv;
        stats.words_sent += rep.stats.words_sent;
        stats.send_blocks += rep.stats.send_blocks;
        stats.recv_blocks += rep.stats.recv_blocks;
        trace_dropped += rep.dropped;
    }
    let trace = if cfg.trace {
        let mut tracer = Tracer::new(workers + 1);
        for (w, rep) in pe_reports.iter().enumerate() {
            map_events(&mut tracer, CapId(w as u32), &rep.events);
        }
        map_events(&mut tracer, CapId(workers as u32), &master.events);
        Some(tracer)
    } else {
        None
    };
    NativeOutcome {
        values,
        wall,
        stats,
        trace,
        trace_dropped,
    }
}

/// An Eden run with nothing to do: `workers` idle PEs, zero messages.
pub(crate) fn empty_outcome<T>(cfg: &NativeConfig) -> NativeOutcome<T> {
    let workers = cfg.workers.max(1);
    NativeOutcome {
        values: Vec::new(),
        wall: Duration::ZERO,
        stats: NativeStats {
            per_worker: vec![0; workers],
            ..NativeStats::default()
        },
        trace: cfg.trace.then(|| Tracer::new(workers + 1)),
        trace_dropped: 0,
    }
}

/// The one PE engine under every native Eden skeleton. It spawns one
/// thread per PE, all in one thread scope; each PE gets its own
/// [`Endpoint`] and a result channel to the master, runs `pe(w, ep,
/// wire, results)` — whose first event is its own `RunStart`, since
/// only the skeleton knows a PE's share — then records `RunEnd` and
/// flushes. The calling thread is the master: it records a run of
/// `tasks` tasks, calls `on_master(ep, None)` once before collecting,
/// drains every result channel into `slots` slots by packet index
/// (tagged `tag`), calls `on_master(ep, Some(w))` after each result
/// from PE `w`, drops `on_master` and joins the PEs. A PE that panicked
/// contributes an empty report and its id.
///
/// A skeleton supplies `wires` (one value per PE: its PE-to-PE
/// channels, moved into its thread), the per-PE loop `pe`, and, for a
/// master that feeds work, `on_master`. A PE that did not die delivers
/// every result it owes, so without dead PEs the filled slots, in
/// order, are the values; with dead PEs the run is [`EdenIncomplete`],
/// naming them and every empty slot.
pub(crate) fn run_pes<W: Send, T: Send>(
    cfg: &NativeConfig,
    (tasks, slots, tag): (usize, usize, &'static str),
    wires: Vec<W>,
    mut on_master: impl FnMut(&mut Endpoint, Option<usize>),
    pe: impl Fn(usize, &mut Endpoint, W, &Sender<Packet<T>>) + Sync,
) -> Result<NativeOutcome<T>, EdenIncomplete> {
    let clock = WallClock::start();
    let ec = Arc::new(EventCount::new());
    let (txs, rxs): (Vec<_>, Vec<_>) = wires
        .iter()
        .map(|_| bounded_with_notify(cfg.chan_cap, Some(Arc::clone(&ec))))
        .unzip();
    let pe = &pe;
    let (slots, pe_reports, dead_pes, master) = std::thread::scope(|s| {
        let handles: Vec<_> = wires
            .into_iter()
            .zip(txs)
            .enumerate()
            .map(|(w, (wire, tx))| {
                s.spawn(move || {
                    let mut ep = Endpoint::new(cfg, clock);
                    pe(w, &mut ep, wire, &tx);
                    ep.tbuf.record(NEventKind::RunEnd);
                    ep.finish()
                })
            })
            .collect();

        let mut master = Endpoint::new(cfg, clock);
        master.tbuf.record(NEventKind::RunStart {
            tasks: tasks as u64,
        });
        on_master(&mut master, None);
        let mut slots: Vec<Option<T>> = (0..slots).map(|_| None).collect();
        drain_results(&mut master, &ec, &rxs, |master, w, pkt| {
            master.note_recv(w as u32, pkt.words, tag);
            let prev = slots[pkt.idx as usize].replace(pkt.payload);
            assert!(prev.is_none(), "slot {} filled twice", pkt.idx);
            on_master(master, Some(w));
        });
        master.tbuf.record(NEventKind::RunEnd);
        drop(on_master);
        let mut dead_pes = Vec::new();
        let pe_reports = handles
            .into_iter()
            .enumerate()
            .map(|(w, h)| {
                h.join().unwrap_or_else(|_| {
                    dead_pes.push(w as u32);
                    PeReport::default()
                })
            })
            .collect();
        (slots, pe_reports, dead_pes, master.finish())
    });
    let wall = clock.epoch().elapsed();
    if dead_pes.is_empty() {
        let values = slots.into_iter().flatten().collect();
        return Ok(assemble(cfg, values, wall, pe_reports, master));
    }
    let missing = (0..slots.len() as u32)
        .filter(|&i| slots[i as usize].is_none())
        .collect();
    Err(EdenIncomplete { dead_pes, missing })
}

/// The master's collection loop, multiplexed over every PE's result
/// channel (all built with `ec` as their notify hook): drain whatever
/// is ready, invoke `on_packet` per packet, and park on the
/// eventcount — recorded as a `BlockRecvAny` episode — while nothing
/// is ready. Returns when every channel has closed and drained, i.e.
/// when every PE has shut down its producing end.
///
/// Draining round-robin instead of channel-by-channel matters: a
/// master that sat on PE 0's stream until it closed would leave every
/// other PE parked in back-pressure once its buffer filled,
/// serialising the farm.
fn drain_results<T>(
    master: &mut Endpoint,
    ec: &EventCount,
    rxs: &[Receiver<Packet<T>>],
    mut on_packet: impl FnMut(&mut Endpoint, usize, Packet<T>),
) {
    let mut open = vec![true; rxs.len()];
    loop {
        let mut progress = false;
        for (w, rx) in rxs.iter().enumerate() {
            if !open[w] {
                continue;
            }
            // Read the close flag *before* draining: a true reading
            // means the drain below is exhaustive.
            let closed = rx.is_closed();
            while let Some(pkt) = rx.try_recv() {
                progress = true;
                on_packet(master, w, pkt);
            }
            if closed {
                open[w] = false;
                progress = true;
            }
        }
        if open.iter().all(|o| !o) {
            return;
        }
        if !progress {
            master.stats.recv_blocks += 1;
            master.tbuf.record(NEventKind::BlockRecvAny);
            ec.park_if(|| !rxs.iter().zip(&open).any(|(rx, o)| *o && rx.poll_ready()));
            master.tbuf.record(NEventKind::Unblock);
        }
    }
}
