//! Shared harness for the native Eden backend: per-PE endpoints,
//! channel bookkeeping and outcome assembly.
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

use crate::channel::{Packet, Receiver, Sender, TrySendError};
use crate::error::EdenIncomplete;
use crate::executor::{NativeConfig, NativeOutcome, NativeStats};
use crate::trace::{map_events, NEvent, NEventKind, TraceBuf};
use rph_trace::{CapId, Tracer, WallClock};
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

    /// Send `pkt` to PE `to`, blocking under back-pressure (recorded
    /// as a `BlockSend` episode). Returns false if the receiving end
    /// is gone — which means the peer panicked; callers stop sending
    /// and let the join propagate the panic.
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

/// What one endpoint contributes to the run outcome.
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
pub(crate) fn assemble<T>(
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
pub(crate) fn drain_results<T>(
    master: &mut Endpoint,
    ec: &crate::park::EventCount,
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

/// Turn `slots` (filled by packet index) into a dense result vector,
/// or the indices of every hole — a hole means a PE died before
/// producing that task's result packet.
pub(crate) fn try_into_values<T>(slots: Vec<Option<T>>) -> Result<Vec<T>, Vec<u32>> {
    let missing: Vec<u32> = slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_none())
        .map(|(i, _)| i as u32)
        .collect();
    if !missing.is_empty() {
        return Err(missing);
    }
    Ok(slots.into_iter().flatten().collect())
}

/// Final assembly step shared by the fallible skeletons: a clean run
/// (no dead PEs, no result holes) becomes a [`NativeOutcome`]; any
/// loss becomes the typed [`EdenIncomplete`] error naming the dead
/// PEs and the lost task indices.
pub(crate) fn finish_run<T>(
    cfg: &NativeConfig,
    slots: Vec<Option<T>>,
    wall: Duration,
    pe_reports: Vec<PeReport>,
    dead_pes: Vec<u32>,
    master: PeReport,
) -> Result<NativeOutcome<T>, EdenIncomplete> {
    match try_into_values(slots) {
        Ok(values) if dead_pes.is_empty() => Ok(assemble(cfg, values, wall, pe_reports, master)),
        // A PE died after delivering all its results: the values are
        // complete, but the run is still reported as incomplete — the
        // death was a task panic and callers must see it.
        Ok(_) => Err(EdenIncomplete {
            dead_pes,
            missing: Vec::new(),
        }),
        Err(missing) => Err(EdenIncomplete { dead_pes, missing }),
    }
}
