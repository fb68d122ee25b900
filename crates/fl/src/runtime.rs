//! The deterministic event-driven simulation runtime under the round
//! engine.
//!
//! Everything here runs on *virtual time*: an integer [`Tick`] clock that
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
//!    any pool size and any interleaving; `run_ordered` additionally
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
//! client's full-precision [`ClientReturn`] (values only — gradients never
//! leave local training), its mask, its ledger charge and — under a codec —
//! the encoded report with its dispatch-time reference. Under a codec the
//! full-precision values are dead once the report is encoded, so a delivery
//! that outlives the round it was dispatched in (a lockstep straggler, a
//! buffered report beyond the `K`-th) releases them when that round's
//! admission ends and waits as its payload alone;
//! [`decode_arrival`](crate::compress::decode_arrival) rebuilds the set from
//! the reference when it lands. The queue's memory therefore follows the
//! encoded bytes in flight, not the number of reports. Without a codec the
//! values *are* the report and stay.

use crate::system::ClientReturn;
use std::collections::BTreeMap;

/// Virtual time, in integer ticks. Lockstep execution maps round `r` to
/// tick `r`; buffered execution charges one tick of latency per healthy
/// report plus the fault plan's straggler delay.
pub type Tick = u64;

/// A monotonic virtual clock. Advances only via [`VirtualClock::advance_to`]
/// — there is no wall-time source anywhere in the runtime.
#[derive(Clone, Copy, Debug, Default)]
pub struct VirtualClock {
    now: Tick,
}

impl VirtualClock {
    /// A clock at tick 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current tick.
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Advance to `tick`. Moving backwards is a causality violation and
    /// panics in debug builds; release builds clamp monotonically.
    pub fn advance_to(&mut self, tick: Tick) {
        debug_assert!(tick >= self.now, "virtual clock must be monotonic");
        self.now = self.now.max(tick);
    }
}

/// A deterministic discrete-event queue over virtual time.
///
/// Events are totally ordered by `(tick, seq)`: `seq` increments per
/// schedule call, so two events at the same tick pop in schedule order.
/// Popping an event advances the embedded [`VirtualClock`] to its tick.
#[derive(Debug)]
pub struct Scheduler<E> {
    queue: BTreeMap<(Tick, u64), E>,
    seq: u64,
    clock: VirtualClock,
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
            clock: VirtualClock::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Tick {
        self.clock.now()
    }

    /// Number of events waiting.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is drained.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
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
    pub fn next_tick(&self) -> Option<Tick> {
        self.queue.first_key_value().map(|(&(tick, _), _)| tick)
    }

    /// Every waiting event, in pop order, for editing in place. Keys are
    /// out of reach: nothing done here can reorder the queue.
    pub fn waiting_mut(&mut self) -> impl Iterator<Item = &mut E> {
        self.queue.values_mut()
    }

    /// Pop the earliest event (ties broken by schedule order) and advance
    /// the clock to its tick.
    pub fn pop(&mut self) -> Option<(Tick, E)> {
        let ((tick, _), event) = self.queue.pop_first()?;
        self.clock.advance_to(tick);
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
    /// The client's trained return. When a compressor is configured it
    /// carries no `unit_delta` yet, and its `params` are only a buffer for
    /// [`decode_arrival`] to write the decompressed reconstruction into:
    /// the *pre-compression* values while the report can still be admitted
    /// in its dispatch round, a set holding no values once it has outlived
    /// that round (the engine releases them; the report waits as
    /// `payload`). Either way a set of values only: gradients never leave
    /// local training.
    ///
    /// [`decode_arrival`]: crate::compress::decode_arrival
    pub ret: ClientReturn,
    /// The unit mask the server requested from this client.
    pub mask: Vec<bool>,
    /// What this report costs the ledger, computed at dispatch (it is a
    /// pure function of the report) and charged at arrival.
    pub charge: crate::compress::UplinkCharge,
    /// The compressed report plus its dispatch-time broadcast reference;
    /// `None` when no compressor is configured.
    pub payload: Option<crate::compress::InFlight>,
}

/// A fixed-size pool executing client tasks.
///
/// With one worker, tasks run inline on the caller's thread and the matmul
/// kernels keep the full `FEDDA_THREADS` budget (the historical sequential
/// path). With more, tasks are pulled from a shared index by scoped
/// worker threads, each capped at one kernel thread via
/// [`fedda_tensor::gemm::with_kernel_threads`] so the two parallelism
/// layers never multiply — exactly the contract the per-client-thread code
/// had before this pool existed.
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

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `f` over every item, returning results in item order.
    ///
    /// Tasks must be pure: results are placed by item index, so any number
    /// of workers yields the identical output vector.
    pub fn run_ordered<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let effective = self.workers.min(items.len());
        if effective <= 1 {
            return items.iter().map(f).collect();
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        let (tx, rx) = std::sync::mpsc::channel::<(usize, R)>();
        std::thread::scope(|s| {
            for _ in 0..effective {
                let tx = tx.clone();
                let next = &next;
                let f = &f;
                s.spawn(move || {
                    fedda_tensor::gemm::with_kernel_threads(1, || loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        if tx.send((i, f(&items[i]))).is_err() {
                            break;
                        }
                    })
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
        let mut c = VirtualClock::new();
        assert_eq!(c.now(), 0);
        c.advance_to(5);
        assert_eq!(c.now(), 5);
        c.advance_to(5);
        assert_eq!(c.now(), 5);
    }

    #[test]
    fn scheduler_pops_in_tick_then_schedule_order() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_at(2, "late");
        s.schedule_at(1, "first-at-1");
        s.schedule_at(1, "second-at-1");
        s.schedule_at(s.now(), "now");
        assert_eq!(s.len(), 4);
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
        assert!(s.is_empty());
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
            let got = WorkerPool::new(workers).run_ordered(&items, |&x| x * x);
            assert_eq!(got, expect, "workers={workers}");
        }
        // Degenerate shapes.
        let empty: Vec<u64> = Vec::new();
        assert!(WorkerPool::new(4).run_ordered(&empty, |&x| x).is_empty());
        assert_eq!(WorkerPool::new(0).workers(), 1);
    }
}
