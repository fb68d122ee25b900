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
//! The pool's threads are the system's: worker `s` is one thread from the
//! first call that hands slot `s` a task until the pool drops, so a slot's
//! memory — its workspace, and the C allocator's arena that backs it —
//! stays with one thread for the run instead of moving to a new thread
//! every round. A task therefore owns what it reads (`'static`): the
//! system hands it `Arc`s and one snapshot of the global model per call.
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
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

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

/// A job on a worker's queue: it owns everything it reads.
type Job = Box<dyn FnOnce() + Send>;

/// One result of a pool call: the item's index and what its task returned
/// or the payload it panicked with.
type Done<R> = (usize, std::thread::Result<R>);

/// A worker thread of a [`WorkerPool`] and the queue it runs jobs from.
#[derive(Debug)]
struct Worker {
    jobs: Sender<Job>,
    thread: JoinHandle<()>,
}

impl Worker {
    /// A thread that runs every job sent to it, in order, until its queue
    /// closes.
    fn start() -> Self {
        let (jobs, queue) = mpsc::channel::<Job>();
        #[expect(
            clippy::disallowed_methods,
            reason = "the worker pool is the program's one parallelism layer (DESIGN.md §11)"
        )]
        let thread = std::thread::spawn(move || queue.into_iter().for_each(|job| job()));
        Self { jobs, thread }
    }
}

/// A fixed-size pool executing client tasks: the program's one
/// parallelism layer (every kernel runs on the thread that calls it).
///
/// With one worker, tasks run inline on the caller's thread. With more,
/// worker slot `s` is one thread for the pool's whole life: started by the
/// first call that hands slot `s` a task, joined when the pool drops.
#[derive(Debug)]
pub struct WorkerPool {
    workers: usize,
    /// Worker `s`, once a call has handed slot `s` a task.
    threads: Vec<OnceLock<Worker>>,
}

impl WorkerPool {
    /// A pool of `workers` threads (min 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        Self {
            workers,
            threads: std::iter::repeat_with(OnceLock::new)
                .take(workers)
                .collect(),
        }
    }

    /// `run_slotted` for a task that ignores its slot. Kept
    /// only because the benchmark package's pool probe calls it.
    pub fn run_ordered<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Clone + Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(&T) -> R + Send + Sync + 'static,
    {
        self.run_slotted(items, move |_, item| f(item))
    }

    /// Run `f` over every item, returning results in item order.
    ///
    /// Tasks must be pure: results are placed by item index, so any number
    /// of workers yields the identical output vector. Each task is told its
    /// worker slot: `0` for every task of an inline pool, else the index
    /// (below the pool's worker count) of the one thread that runs it —
    /// the same thread in every call of this pool, so a single task, too,
    /// runs on worker 0's thread and not the caller's. A slot runs one task
    /// at a time, so state kept per slot — a training workspace — is never
    /// contended. Slot `s` starts with item `s`, so the first items have
    /// fixed slots; which slot serves any later item varies from run to
    /// run, so a task's result must not depend on its slot.
    ///
    /// The call owns what its tasks read (the items are copied, `f` is
    /// shared), because the workers outlive it. It returns once every task
    /// has ended; a task that panicked re-raises its panic here — the
    /// lowest-indexed one's — and leaves its worker ready for the next
    /// call. A task must not call the pool that runs it.
    pub(crate) fn run_slotted<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Clone + Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(usize, &T) -> R + Send + Sync + 'static,
    {
        if self.workers == 1 {
            return items.iter().map(|item| f(0, item)).collect();
        }
        let effective = self.workers.min(items.len());
        let items: Arc<[T]> = items.into();
        let f = Arc::new(f);
        let next = Arc::new(AtomicUsize::new(effective));
        let (tx, rx) = mpsc::channel::<Done<R>>();
        for slot in 0..effective {
            let (items, f, next, tx) = (
                Arc::clone(&items),
                Arc::clone(&f),
                Arc::clone(&next),
                tx.clone(),
            );
            self.submit(
                slot,
                Box::new(move || {
                    let mut i = slot;
                    while i < items.len() {
                        let result = panic::catch_unwind(AssertUnwindSafe(|| f(slot, &items[i])));
                        // The caller holds the receiver until every task
                        // of the call has ended.
                        drop(tx.send((i, result)));
                        i = next.fetch_add(1, Ordering::Relaxed);
                    }
                }),
            );
        }
        drop(tx);
        // The channel closes when the last task's sender goes: every task
        // of the call has ended by then, panicked or not.
        let mut done: Vec<Done<R>> = rx.into_iter().collect();
        assert_eq!(done.len(), items.len(), "every item is run exactly once");
        done.sort_unstable_by_key(|&(i, _)| i);
        let result = |(_, r): Done<R>| r.unwrap_or_else(|payload| panic::resume_unwind(payload));
        done.into_iter().map(result).collect()
    }

    /// Queue `job` on worker `slot`, starting its thread on first use.
    fn submit(&self, slot: usize, job: Job) {
        let worker = self.threads[slot].get_or_init(Worker::start);
        // A worker's queue closes only when the pool drops, and its jobs
        // catch their tasks' panics, so the send cannot fail; a job it did
        // not take would show as a missing result in `run_slotted`.
        drop(worker.jobs.send(job));
    }
}

impl Drop for WorkerPool {
    /// Close every started worker's queue and join its thread.
    fn drop(&mut self) {
        for worker in self.threads.drain(..).filter_map(OnceLock::into_inner) {
            let Worker { jobs, thread } = worker;
            drop(jobs);
            // Jobs catch their tasks' panics, so a worker cannot have died
            // of one; there is nothing to report.
            thread.join().ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;

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
            let busy: Arc<Vec<std::sync::atomic::AtomicBool>> =
                Arc::new((0..workers).map(|_| Default::default()).collect());
            let slots = WorkerPool::new(workers).run_slotted(&items, move |slot, _| {
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

    /// The thread that runs each task of one call, by slot.
    fn threads_by_slot(pool: &WorkerPool, items: usize) -> Vec<(usize, ThreadId)> {
        let items: Vec<usize> = (0..items).collect();
        pool.run_slotted(&items, |slot, _| {
            std::thread::yield_now();
            (slot, std::thread::current().id())
        })
    }

    #[test]
    fn a_slot_runs_on_one_thread_for_the_pools_life() {
        let caller = std::thread::current().id();
        for workers in [1, 2, 3] {
            let pool = WorkerPool::new(workers);
            let mut seen: BTreeMap<usize, ThreadId> = BTreeMap::new();
            for _call in 0..4 {
                for (slot, thread) in threads_by_slot(&pool, 7) {
                    assert_eq!(*seen.entry(slot).or_insert(thread), thread, "slot {slot}");
                }
            }
            assert_eq!(seen.len(), workers);
            let threads: Vec<ThreadId> = seen.values().copied().collect();
            for (slot, thread) in threads.iter().enumerate() {
                assert!(
                    !threads[..slot].contains(thread),
                    "slot {slot} shares a thread"
                );
            }
            // Inline with one worker; never on the caller with more, not
            // even for a single task, which runs on worker 0's thread.
            assert_eq!(threads.contains(&caller), workers == 1);
            assert_eq!(threads_by_slot(&pool, 1), vec![(0, seen[&0])]);
        }
    }

    #[test]
    fn a_panicking_task_re_raises_on_the_caller_and_spares_its_worker() {
        let pool = WorkerPool::new(2);
        let before = threads_by_slot(&pool, 2);
        let items: Vec<u32> = (0..6).collect();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_slotted(
                &items,
                |_, &x| if x % 2 == 1 { panic!("task {x}") } else { x },
            )
        }));
        let payload = caught.expect_err("the task's panic reaches the caller");
        // The lowest-indexed panic, with its own payload.
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("task 1")
        );
        assert_eq!(
            pool.run_slotted(&items, |_, &x| x + 1),
            vec![1, 2, 3, 4, 5, 6]
        );
        assert_eq!(threads_by_slot(&pool, 2), before, "the workers survived");
    }
}
