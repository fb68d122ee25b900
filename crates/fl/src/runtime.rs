//! The deterministic event-driven simulation runtime under the round
//! engine.
//!
//! Everything here runs on *virtual time*: an integer `Tick` clock that
//! only advances when the [`Scheduler`] pops an event, never from a wall
//! clock (`clippy.toml`'s `disallowed-methods` keeps `Instant` /
//! `SystemTime` out of this crate's logic). Determinism falls out of two
//! invariants:
//!
//! 1. **Total event order.** Every scheduled event gets a `(tick, seq)`
//!    key where `seq` is a monotonically increasing schedule counter, so
//!    same-tick events pop in the exact order they were scheduled — a
//!    `BTreeMap` queue, no hashing, no iteration-order surprises.
//! 2. **Pure tasks.** Client work dispatched through the [`WorkerPool`]
//!    is a pure function of its inputs (each client's training RNG is
//!    derived from `(client seed, round)`), so results are identical for
//!    any pool size and any interleaving; `run_slotted` additionally
//!    returns results in submission order.
//!
//! Under [`RuntimeMode::Sync`](crate::RuntimeMode) round `r` occupies tick
//! `r` and flushes when nothing more is due at it; under
//! [`RuntimeMode::Async`](crate::RuntimeMode) deliveries span many ticks
//! and a round flushes on its `K`-th admitted report.
//!
//! # What a queued delivery owns
//!
//! A [`Delivery`] is scheduled with everything dispatch produced: the
//! client's [`ClientReturn`], its mask and its ledger charge. Under a codec
//! the return is what crossed the wire and nothing more: the encoded report,
//! the dispatch-time reference it was encoded against (one `Arc` per
//! dispatch) and the `unit_delta` its client task measured on the
//! reconstruction — never a parameter set. The task decoded the report into
//! its worker slot's kept buffer only to measure it; the server reads the
//! values unit by unit as Eq. 6 and `post_aggregate` fold them
//! (`ClientReturn::unit`), however many rounds the report waited. The
//! queue's memory therefore follows the encoded bytes in flight, not the
//! number of reports, from dispatch to commit. Without a codec the values
//! *are* the report (a copy out of the slot's buffer) and stay.

use crate::system::ClientReturn;
use std::collections::BTreeMap;

/// Virtual time, in integer ticks. Lockstep execution maps round `r` to
/// tick `r`; buffered execution charges one tick of latency per healthy
/// report plus the fault plan's straggler delay.
pub(crate) type Tick = u64;

/// A deterministic discrete-event queue over virtual time.
///
/// Events are totally ordered by `(tick, seq)`: `seq` increments per
/// schedule call, so two events at the same tick pop in schedule order.
/// Popping an event advances the virtual clock to its tick; nothing else
/// moves it, and it never moves backwards.
#[derive(Debug)]
pub struct Scheduler<E> {
    queue: BTreeMap<(Tick, u64), E>,
    seq: u64,
    now: Tick,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// An empty queue with the clock at tick 0.
    pub fn new() -> Self {
        Self {
            queue: BTreeMap::new(),
            seq: 0,
            now: 0,
        }
    }

    /// Current virtual time.
    pub(crate) fn now(&self) -> Tick {
        self.now
    }

    /// Schedule `event` at an absolute `tick`. Scheduling into the past is
    /// a causality violation (debug panic; release clamps to `now`).
    pub fn schedule_at(&mut self, tick: Tick, event: E) {
        debug_assert!(tick >= self.now(), "cannot schedule into the past");
        let key = (tick.max(self.now()), self.seq);
        self.seq += 1;
        self.queue.insert(key, event);
    }

    /// Tick of the earliest waiting event, without popping it.
    pub(crate) fn next_tick(&self) -> Option<Tick> {
        self.queue.first_key_value().map(|(&(tick, _), _)| tick)
    }

    /// Every waiting event, in pop order.
    #[cfg(test)]
    pub(crate) fn waiting(&self) -> impl Iterator<Item = &E> {
        self.queue.values()
    }

    /// Pop the earliest event (ties broken by schedule order) and advance
    /// the clock to its tick.
    pub fn pop(&mut self) -> Option<(Tick, E)> {
        let ((tick, _), event) = self.queue.pop_first()?;
        debug_assert!(tick >= self.now, "virtual clock must be monotonic");
        self.now = self.now.max(tick);
        Some((tick, event))
    }
}

/// A client report in transit: which client sent it, from which dispatch
/// round/version, under which mask. Uplink bytes are accounted when the
/// delivery *arrives* at the server, never at dispatch — a report the run
/// outlives is never charged.
pub struct Delivery {
    /// Reporting client index.
    pub client: usize,
    /// Position of the client in its dispatch round's active set.
    pub dispatch_pos: usize,
    /// Round (sync) or server version (async) the report was computed
    /// against.
    pub dispatch_round: usize,
    /// The client's trained return: values only, gradients never leave
    /// local training. An encoded report carries no values but its
    /// encoding ([`ClientReturn::encoded`]).
    pub ret: ClientReturn,
    /// The unit mask the server requested from this client.
    pub mask: Vec<bool>,
    /// What this report costs the ledger, computed at dispatch (it is a
    /// pure function of the report) and charged at arrival.
    pub charge: crate::compress::UplinkCharge,
    /// A compressed report still to be materialised into `ret` by
    /// [`decode_arrival`](crate::compress::decode_arrival): the form a round
    /// loop built from the public pieces uses (the benchmark's traced
    /// replay). The engine never sets it — its encoded reports carry their
    /// payload in `ret.encoded` — and its `charge` is the compressed
    /// report's either way.
    pub payload: Option<crate::compress::InFlight>,
}

/// The environment variable [`default_workers`] reads.
pub const DEFAULT_WORKERS_VAR: &str = "FEDDA_THREADS";

/// The worker-pool size a run gets when `FlConfig::workers` is `None`:
/// [`DEFAULT_WORKERS_VAR`] if it is set, else the machine's available
/// parallelism.
///
/// # Errors
/// The variable set to anything but a positive integer.
pub fn default_workers() -> Result<usize, String> {
    let Some(raw) = std::env::var_os(DEFAULT_WORKERS_VAR) else {
        return Ok(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get));
    };
    raw.to_str()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("{DEFAULT_WORKERS_VAR} must be a positive integer, got {raw:?}"))
}

/// A fixed-size pool executing client tasks: the program's one
/// parallelism layer (every kernel runs on the thread that calls it).
///
/// With one worker, tasks run inline on the caller's thread. With more,
/// tasks are pulled from a shared index by scoped worker threads.
#[derive(Clone, Copy, Debug)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// A pool of `workers` threads (min 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// `run_slotted` for a task that ignores its slot. Kept
    /// only because the benchmark package's pool probe calls it.
    pub fn run_ordered<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.run_slotted(items, |_, item| f(item))
    }

    /// Run `f` over every item, returning results in item order.
    ///
    /// Tasks must be pure: results are placed by item index, so any number
    /// of workers yields the identical output vector. Each task is told its
    /// worker slot: `0` for every task of an inline pool, else the index
    /// (below the pool's worker count) of the one thread that runs it. A
    /// slot runs one task at a time, so state kept per slot — a training
    /// workspace — is never contended. Slot `s` starts with item `s`, so the
    /// first items have fixed slots; which slot serves any later item varies
    /// from run to run, so a task's result must not depend on its slot.
    pub(crate) fn run_slotted<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let effective = self.workers.min(items.len());
        if effective <= 1 {
            return items.iter().map(|item| f(0, item)).collect();
        }
        let next = std::sync::atomic::AtomicUsize::new(effective);
        let (tx, rx) = std::sync::mpsc::channel::<(usize, R)>();
        #[expect(
            clippy::disallowed_methods,
            reason = "the worker pool is the program's one parallelism layer (DESIGN.md §11)"
        )]
        std::thread::scope(|s| {
            for slot in 0..effective {
                let tx = tx.clone();
                let next = &next;
                let f = &f;
                s.spawn(move || {
                    let mut i = slot;
                    while i < items.len() && tx.send((i, f(slot, &items[i]))).is_ok() {
                        i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
        });
        drop(tx);
        let mut out: Vec<Option<R>> = Vec::new();
        out.resize_with(items.len(), || None);
        for (i, r) in rx {
            out[i] = Some(r);
        }
        #[expect(
            clippy::expect_used,
            reason = "every index is sent exactly once by the workers above; an empty slot is pool-internal corruption"
        )]
        let filled = |slot: Option<R>| slot.expect("missing worker result");
        out.into_iter().map(filled).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let mut s: Scheduler<u32> = Scheduler::new();
        assert_eq!(s.now(), 0);
        s.schedule_at(5, 1);
        s.pop();
        assert_eq!(s.now(), 5);
        s.schedule_at(5, 2);
        s.pop();
        assert_eq!(s.now(), 5);
    }

    #[test]
    fn scheduler_pops_in_tick_then_schedule_order() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_at(2, "late");
        s.schedule_at(1, "first-at-1");
        s.schedule_at(1, "second-at-1");
        s.schedule_at(s.now(), "now");
        assert_eq!(s.queue.len(), 4);
        assert_eq!(s.next_tick(), Some(0));
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).collect();
        assert_eq!(
            order,
            vec![
                (0, "now"),
                (1, "first-at-1"),
                (1, "second-at-1"),
                (2, "late")
            ]
        );
        assert!(s.queue.is_empty());
        assert_eq!(s.next_tick(), None);
        assert_eq!(s.now(), 2);
    }

    #[test]
    fn popping_advances_the_clock() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_at(7, 1);
        assert_eq!(s.now(), 0);
        s.pop();
        assert_eq!(s.now(), 7);
        // Scheduling relative to the advanced clock.
        s.schedule_at(s.now() + 3, 2);
        assert_eq!(s.pop(), Some((10, 2)));
    }

    #[test]
    fn worker_pool_preserves_item_order_for_any_size() {
        let items: Vec<u64> = (0..23).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [1, 2, 4, 64] {
            let got = WorkerPool::new(workers).run_slotted(&items, |_, &x| x * x);
            assert_eq!(got, expect, "workers={workers}");
        }
        // Each task learns a slot below the pool size, and no two tasks
        // hold one slot at once.
        for workers in [1, 2, 4] {
            let busy: Vec<std::sync::atomic::AtomicBool> =
                (0..workers).map(|_| Default::default()).collect();
            let slots = WorkerPool::new(workers).run_slotted(&items, |slot, _| {
                use std::sync::atomic::Ordering::SeqCst;
                assert!(!busy[slot].swap(true, SeqCst), "slot {slot} shared");
                std::thread::yield_now();
                busy[slot].store(false, SeqCst);
                slot
            });
            assert!(slots.iter().all(|&s| s < workers), "workers={workers}");
            assert_eq!(slots[..workers], (0..workers).collect::<Vec<_>>());
        }
        // Degenerate shapes.
        let empty: Vec<u64> = Vec::new();
        assert!(WorkerPool::new(4).run_slotted(&empty, |_, &x| x).is_empty());
        assert_eq!(WorkerPool::new(0).workers, 1);
    }
}
