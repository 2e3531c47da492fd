//! Bounded SPSC channels and packet framing for the native Eden
//! backend.
//!
//! Eden's §II model is the opposite of a shared heap: processes own
//! their graph privately and exchange **fully-evaluated data** over
//! explicit one-to-one channels. The native analogue here:
//!
//! * [`bounded`] builds a single-producer / single-consumer channel
//!   with a fixed capacity. A full channel *blocks the sender* — that
//!   is Eden's back-pressure: a producer ahead of its consumer sits in
//!   `waitForSpace`, it does not balloon the consumer's heap. An empty
//!   channel blocks the receiver. Both ends expose `try_*`
//!   counterparts so callers can record a block event *before* going
//!   to sleep.
//! * Values travel as [`Packet`]s: the payload plus a simulated-heap
//!   word count mirroring `rph_eden`'s `Packet::words` accounting
//!   (per-cell costs from `rph_heap::Value::words`). Real threads
//!   move `T` by value — the framing exists so native traces and
//!   stats report message *sizes* comparable to the simulator's.
//! * Dropping an endpoint closes the channel: a sender into a closed
//!   channel gets its value back ([`TrySendError::Disconnected`]), a
//!   receiver drains what is buffered and then sees `None` — the same
//!   end-of-stream convention as the sim's task streams.
//!
//! The implementation is a `Mutex<VecDeque>` with two condvars, chosen
//! when channel operations were thought rare enough (a handful per
//! task) for the lock not to matter. The repo benchmark says otherwise
//! (BENCH_32.json): a ping-pong over a capacity-1 channel takes 16.1 µs
//! (`channel.pingpong_ns_cap1`) and a streamed packet 1.84 µs at
//! capacity 8 against 0.48 µs at capacity 64 — a cross-thread wake-up
//! through `Mutex` + `Condvar` on every message, and the reason
//! `native_eden` spends 41 % of its time blocked
//! (`occ.eden.blocked_frac`). ROADMAP item 4 replaces it with a
//! lock-free SPSC ring behind the same signatures.

use crate::park::EventCount;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Simulated-heap size of a fully-evaluated value, in heap words.
///
/// Mirrors `rph_heap::Value::words`: scalar cells (`Int`, `Double`,
/// `Bool`, `Unit`, `Nil`) cost a 2-word header+payload cell; an array
/// of doubles costs a 2-word descriptor plus one word per element.
/// Native payloads implement this so [`Packet::new`] can charge the
/// same wire cost the simulator charges for the equivalent graph.
pub trait Wordsize {
    /// Heap words this value would occupy as simulated graph cells.
    fn words(&self) -> u64;
}

impl Wordsize for i64 {
    fn words(&self) -> u64 {
        2
    }
}

impl Wordsize for u64 {
    fn words(&self) -> u64 {
        2
    }
}

impl Wordsize for f64 {
    fn words(&self) -> u64 {
        2
    }
}

impl Wordsize for () {
    fn words(&self) -> u64 {
        2
    }
}

impl Wordsize for Vec<f64> {
    fn words(&self) -> u64 {
        2 + self.len() as u64
    }
}

impl Wordsize for Vec<u64> {
    fn words(&self) -> u64 {
        2 + self.len() as u64
    }
}

impl Wordsize for Vec<i64> {
    fn words(&self) -> u64 {
        2 + self.len() as u64
    }
}

impl<T: Wordsize> Wordsize for Option<T> {
    fn words(&self) -> u64 {
        match self {
            Some(v) => v.words(),
            None => 2,
        }
    }
}

/// A framed message: an index identifying which task/row the payload
/// answers, plus the payload and its simulated wire size.
#[derive(Debug, Clone)]
pub struct Packet<T> {
    /// Task (or row) index the payload belongs to.
    pub idx: u32,
    /// Simulated size on the wire, in heap words: a 1-word frame
    /// header, a 2-word index cell, and the payload's own cells.
    pub words: u64,
    /// The fully-evaluated payload.
    pub payload: T,
}

impl<T: Wordsize> Packet<T> {
    /// Frame `payload` as the answer for task `idx`.
    pub fn new(idx: u32, payload: T) -> Self {
        let words = 1 + 2 + payload.words();
        Packet {
            idx,
            words,
            payload,
        }
    }
}

/// Why a [`Sender::try_send`] could not deliver; the value comes back.
#[derive(Debug)]
pub(crate) enum TrySendError<T> {
    /// Buffer at capacity — blocking [`Sender::send`] would wait.
    Full(T),
    /// Receiver dropped — nothing will ever drain this channel.
    Disconnected(T),
}

/// The channel's shared state: the buffer plus liveness flags for the
/// two endpoints.
struct Shared<T> {
    buf: VecDeque<T>,
    cap: usize,
    tx_alive: bool,
    rx_alive: bool,
}

struct Chan<T> {
    shared: Mutex<Shared<T>>,
    /// Signalled when space appears (a pop) or the receiver drops.
    not_full: Condvar,
    /// Signalled when a message appears (a push) or the sender drops.
    not_empty: Condvar,
    /// Optional out-of-band wakeup: notified on every push and on
    /// sender drop, so a consumer multiplexing *several* channels
    /// (the master–worker master) can sleep on one eventcount instead
    /// of one condvar per channel.
    notify: Option<Arc<EventCount>>,
}

impl<T> Chan<T> {
    fn lock(&self) -> MutexGuard<'_, Shared<T>> {
        self.shared.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn ping(&self) {
        if let Some(ec) = &self.notify {
            ec.notify_all();
        }
    }
}

/// Producing end of a bounded SPSC channel.
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

/// Consuming end of a bounded SPSC channel.
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

/// A bounded SPSC channel of capacity `cap` (clamped to at least 1).
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    bounded_with_notify(cap, None)
}

/// [`bounded`], with an optional eventcount pinged on every push and
/// on sender drop — the receiver-side multiplexing hook.
pub(crate) fn bounded_with_notify<T>(
    cap: usize,
    notify: Option<Arc<EventCount>>,
) -> (Sender<T>, Receiver<T>) {
    let cap = cap.max(1);
    let chan = Arc::new(Chan {
        shared: Mutex::new(Shared {
            buf: VecDeque::with_capacity(cap),
            cap,
            tx_alive: true,
            rx_alive: true,
        }),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
        notify,
    });
    (
        Sender {
            chan: Arc::clone(&chan),
        },
        Receiver { chan },
    )
}

impl<T> Sender<T> {
    /// Deliver `value` without blocking, or report why not.
    pub(crate) fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut s = self.chan.lock();
        if !s.rx_alive {
            return Err(TrySendError::Disconnected(value));
        }
        if s.buf.len() >= s.cap {
            return Err(TrySendError::Full(value));
        }
        s.buf.push_back(value);
        drop(s);
        self.chan.not_empty.notify_one();
        self.chan.ping();
        Ok(())
    }

    /// Deliver `value`, blocking while the buffer is full. Returns the
    /// value back if the receiver is gone.
    pub fn send(&self, value: T) -> Result<(), T> {
        let mut s = self.chan.lock();
        loop {
            if !s.rx_alive {
                return Err(value);
            }
            if s.buf.len() < s.cap {
                s.buf.push_back(value);
                drop(s);
                self.chan.not_empty.notify_one();
                self.chan.ping();
                return Ok(());
            }
            s = self
                .chan
                .not_full
                .wait(s)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut s = self.chan.lock();
        s.tx_alive = false;
        drop(s);
        self.chan.not_empty.notify_all();
        self.chan.ping();
    }
}

impl<T> Receiver<T> {
    /// Take the next message without blocking, if one is buffered.
    pub(crate) fn try_recv(&self) -> Option<T> {
        let mut s = self.chan.lock();
        let v = s.buf.pop_front();
        if v.is_some() {
            drop(s);
            self.chan.not_full.notify_one();
        }
        v
    }

    /// Take the next message, blocking while the buffer is empty.
    /// `None` means the sender is gone *and* the buffer is drained —
    /// end of stream.
    pub fn recv(&self) -> Option<T> {
        let mut s = self.chan.lock();
        loop {
            if let Some(v) = s.buf.pop_front() {
                drop(s);
                self.chan.not_full.notify_one();
                return Some(v);
            }
            if !s.tx_alive {
                return None;
            }
            s = self
                .chan
                .not_empty
                .wait(s)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// True when a `try_recv` right now would find a message *or* the
    /// stream has ended — i.e. polling this channel would make
    /// progress. A multiplexing consumer parks only while every
    /// channel reports false.
    pub(crate) fn poll_ready(&self) -> bool {
        let s = self.chan.lock();
        !s.buf.is_empty() || !s.tx_alive
    }

    /// True once the sender is gone. Messages may still be buffered;
    /// after a true reading, a `try_recv` drain is exhaustive (nothing
    /// new can arrive).
    pub(crate) fn is_closed(&self) -> bool {
        !self.chan.lock().tx_alive
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut s = self.chan.lock();
        s.rx_alive = false;
        drop(s);
        self.chan.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn roundtrip_in_order() {
        let (tx, rx) = bounded(4);
        for i in 0..4 {
            tx.try_send(i).unwrap();
        }
        assert_eq!(
            (0..4).map(|_| rx.try_recv().unwrap()).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert!(rx.try_recv().is_none());
    }

    #[test]
    fn full_buffer_rejects_then_accepts_after_pop() {
        let (tx, rx) = bounded(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        match tx.try_send(3) {
            Err(TrySendError::Full(3)) => {}
            other => panic!("expected Full(3), got {other:?}"),
        }
        assert_eq!(rx.try_recv(), Some(1));
        tx.try_send(3).unwrap();
        assert_eq!(rx.try_recv(), Some(2));
        assert_eq!(rx.try_recv(), Some(3));
    }

    #[test]
    fn capacity_zero_is_clamped_to_one() {
        let (tx, rx) = bounded(0);
        tx.try_send(7).unwrap();
        match tx.try_send(8) {
            Err(TrySendError::Full(8)) => {}
            other => panic!("expected Full(8), got {other:?}"),
        }
        assert_eq!(rx.recv(), Some(7));
    }

    #[test]
    fn receiver_drop_bounces_sends() {
        let (tx, rx) = bounded::<i32>(2);
        drop(rx);
        match tx.try_send(1) {
            Err(TrySendError::Disconnected(1)) => {}
            other => panic!("expected Disconnected(1), got {other:?}"),
        }
        assert_eq!(tx.send(2), Err(2));
    }

    #[test]
    fn sender_drop_drains_then_ends_stream() {
        let (tx, rx) = bounded(4);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), None);
        assert!(rx.poll_ready(), "ended stream must read as ready");
    }

    #[test]
    fn blocking_send_wakes_on_space_and_recv_on_data() {
        // A capacity-1 channel forces every send after the first to
        // block; the consumer sleeps between pops. 10k messages of
        // lockstep is a decent deadlock shake-out.
        let (tx, rx) = bounded(1);
        let producer = std::thread::spawn(move || {
            for i in 0..10_000u64 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::with_capacity(10_000);
        while let Some(v) = rx.recv() {
            got.push(v);
            // Throttle occasionally so the producer really hits Full.
            if got.len() % 1000 == 0 {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        producer.join().unwrap();
        assert_eq!(got, (0..10_000).collect::<Vec<u64>>());
    }

    #[test]
    fn packet_framing_charges_simulated_words() {
        // Header (1) + index cell (2) + payload cells.
        assert_eq!(Packet::new(0, 42i64).words, 5);
        assert_eq!(Packet::new(3, ()).words, 5);
        let row = vec![0.0f64; 10];
        assert_eq!(Packet::new(1, row).words, 1 + 2 + 2 + 10);
    }

    #[test]
    fn notify_hook_pings_on_push_and_disconnect() {
        let ec = Arc::new(EventCount::new());
        let (tx, rx) = bounded_with_notify(2, Some(Arc::clone(&ec)));
        let waiter = {
            let ec = Arc::clone(&ec);
            std::thread::spawn(move || {
                while !rx.poll_ready() {
                    ec.park_if(|| !rx.poll_ready());
                }
                rx.try_recv()
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        tx.try_send(99).unwrap();
        assert_eq!(waiter.join().unwrap(), Some(99));
    }
}
