//! Two-stage slot pipeline for off-grid AddOn slots.
//!
//! The online mechanisms evaluate slot by slot, but the only *cross*-slot
//! dependency is the serialized `Solver::commit_top`. That leaves a
//! clean two-stage split per slot:
//!
//! - **stage B (price)** — splice the pre-sorted update batch into the
//!   solver, solve the affordable-prefix problem for slot `t`, and
//!   commit the serviced set; and
//! - **stage A (ingest)** — retire slot `t`'s valuations from the running
//!   residuals and pre-compute slot `t+1`'s arrival seeds and the sorted
//!   `(value, lane, user)` update batch the solver will splice in next
//!   slot.
//!
//! The production engine ([`Engine::Incremental`]) arms this split on
//! AddOn slots whose solver holds off-grid values, and forks it onto a
//! second thread from [`DEFAULT_FORK_MIN`] pending users on a
//! multi-core host; on-grid slots keep the plain batch update.
//! [`Worker`] + [`overlap_owned`] run the split: ONE persistent thread
//! per state (lazily spawned, parked on a channel between slots)
//! receives the ingest stage's state **by value** and returns it with
//! the result, so steady-state handoff is a send + unpark. The stages
//! partition state completely, so ownership can round-trip — which is
//! also what keeps the whole crate `forbid(unsafe_code)` (no
//! scoped-lifetime erasure, just moves).
//!
//! With `fork == false` the primitive degrades to *strictly sequential*
//! execution on the caller (price first, then ingest). Because every
//! quantity involved is exact [`Money`] arithmetic and the stages touch
//! disjoint state, the forked and sequential paths are bit-identical;
//! the fork is purely a wall-clock optimization.
//!
//! [`Engine::Incremental`]: crate::shapley::Engine::Incremental
//! [`Money`]: osp_econ::Money

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;

/// Pending plus arriving users from which an armed AddOn slot (its
/// solver holds off-grid bids) forks its ingest stage onto the
/// [`Worker`] on a multi-core host; smaller armed slots run both stages
/// on the caller, since a worker wake costs more than they overlap.
/// Arming has no size gate: off the grid the splice beats `update_bids`
/// from about 100 users up (README, "The pre-sorted splice"), and
/// on-grid slots never arm.
pub const DEFAULT_FORK_MIN: usize = 192;

/// `true` when the host exposes more than one hardware thread.
///
/// Forking the ingest stage can only overlap work if a second core
/// exists to run it; on a single-core host the fork degenerates into
/// the same sequential work plus context switches and a channel round
/// trip per slot. The default policy therefore stays sequential there —
/// an explicit `set_fork_min` override still forks (the stress tests
/// rely on that to exercise the handoff on any machine).
pub fn multicore() -> bool {
    use std::sync::OnceLock;
    static MULTI: OnceLock<bool> = OnceLock::new();
    *MULTI
        .get_or_init(|| thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) > 1)
}

/// One job round-trip on the worker thread: the job function (a plain
/// `fn` pointer, so it is `'static` by construction) plus its owned
/// input.
type Handoff<J, R> = (fn(J) -> R, J);

/// The persistent stage-A thread behind [`overlap_owned`].
///
/// Spawned lazily on the first forked slot and parked on a channel
/// between slots, so steady-state handoff is a send + unpark instead of
/// a full thread spawn. Jobs are plain `fn` pointers over **owned**
/// input — no borrows cross the channel, which is what keeps this safe
/// without scoped lifetimes. Dropping the owner closes the channel,
/// which ends the loop and joins the thread; a panicking job is caught,
/// shipped back, and leaves the worker reusable.
///
/// The worker is deliberately *not* part of any state snapshot: it is
/// pure execution scaffolding, so [`Clone`] hands the copy a fresh
/// (unspawned) worker and serde skips it entirely (the AddOn pipeline
/// scratch serializes as `null`).
pub struct Worker<J, R> {
    tx: Option<mpsc::Sender<Handoff<J, R>>>,
    done: Option<mpsc::Receiver<thread::Result<R>>>,
    handle: Option<thread::JoinHandle<()>>,
}

impl<J, R> Default for Worker<J, R> {
    fn default() -> Self {
        Worker {
            tx: None,
            done: None,
            handle: None,
        }
    }
}

impl<J, R> Clone for Worker<J, R> {
    /// A cloned owner prices independently; it gets its own lazily
    /// spawned worker rather than sharing a channel.
    fn clone(&self) -> Self {
        Worker::default()
    }
}

impl<J, R> std::fmt::Debug for Worker<J, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Worker")
            .field("spawned", &self.handle.is_some())
            .finish()
    }
}

type WorkerChannels<'a, J, R> = (
    &'a mpsc::Sender<Handoff<J, R>>,
    &'a mpsc::Receiver<thread::Result<R>>,
);

impl<J: Send + 'static, R: Send + 'static> Worker<J, R> {
    fn ensure_spawned(&mut self) -> WorkerChannels<'_, J, R> {
        if self.handle.is_none() {
            let (tx, rx) = mpsc::channel::<Handoff<J, R>>();
            let (done_tx, done_rx) = mpsc::channel::<thread::Result<R>>();
            let handle = thread::Builder::new()
                .name("osp-pipeline".into())
                .spawn(move || {
                    for (work, job) in rx {
                        let result = panic::catch_unwind(AssertUnwindSafe(move || work(job)));
                        if done_tx.send(result).is_err() {
                            break;
                        }
                    }
                })
                .expect("spawning the pipeline worker thread");
            self.tx = Some(tx);
            self.done = Some(done_rx);
            self.handle = Some(handle);
        }
        (
            self.tx.as_ref().expect("worker just spawned"),
            self.done.as_ref().expect("worker just spawned"),
        )
    }
}

impl<J, R> Drop for Worker<J, R> {
    fn drop(&mut self) {
        // Closing the job channel ends the worker loop; joining bounds
        // the thread's lifetime by its owner's (no detached threads).
        self.tx = None;
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Joins the in-flight job even when stage B panics, so a job result
/// (which carries mechanism state the caller will restore) is never
/// left dangling on the channel for a *later* slot to mis-receive.
struct JoinGuard<'a, R> {
    done: &'a mpsc::Receiver<thread::Result<R>>,
}

impl<R> JoinGuard<'_, R> {
    fn finish(self) -> thread::Result<R> {
        let result = self.done.recv().expect("pipeline worker outlives its jobs");
        std::mem::forget(self);
        result
    }
}

impl<R> Drop for JoinGuard<'_, R> {
    fn drop(&mut self) {
        // Only reached while unwinding out of stage B; the job result
        // (and any panic payload) is dropped — stage B's unwind is
        // already in flight, mirroring `thread::scope`'s behaviour of
        // propagating the caller-side panic first.
        let _ = self.done.recv();
    }
}

/// Runs `work(job)` (stage A, by value) and `price` (stage B) and
/// returns both results, handing stage A to `worker`'s persistent
/// thread when `fork` is true.
///
/// With `fork == false` both run sequentially on the calling thread in
/// engine order — `price` first, then `work` — which is byte-for-byte
/// the sequential slot loop. With `fork == true` the job is
/// shipped to the worker **by value** and its result (which returns the
/// moved state to the caller) is joined before this function returns; a
/// stage A panic is re-thrown on the caller after `price` completes,
/// exactly like `thread::scope`.
pub fn overlap_owned<J, R, RB, B>(
    worker: &mut Worker<J, R>,
    fork: bool,
    work: fn(J) -> R,
    job: J,
    price: B,
) -> (R, RB)
where
    J: Send + 'static,
    R: Send + 'static,
    B: FnOnce() -> RB,
{
    if !fork {
        let priced = price();
        return (work(job), priced);
    }
    let (tx, done) = worker.ensure_spawned();
    tx.send((work, job))
        .expect("pipeline worker outlives its owner");
    let guard = JoinGuard { done };
    let priced = price();
    match guard.finish() {
        Ok(result) => (result, priced),
        Err(payload) => panic::resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn sequential_runs_price_before_ingest() {
        // The non-forked path must preserve the sequential slot order:
        // price the current slot, then ingest the next.
        static LOG: std::sync::Mutex<Vec<&str>> = std::sync::Mutex::new(Vec::new());
        let mut worker: Worker<(), u32> = Worker::default();
        let (a, b) = overlap_owned(
            &mut worker,
            false,
            |()| {
                LOG.lock().unwrap().push("ingest");
                1
            },
            (),
            || {
                LOG.lock().unwrap().push("price");
                2
            },
        );
        assert_eq!((a, b), (1, 2));
        assert_eq!(*LOG.lock().unwrap(), ["price", "ingest"]);
    }

    #[test]
    fn forked_returns_both_results() {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let mut worker: Worker<(), usize> = Worker::default();
        let (a, b) = overlap_owned(
            &mut worker,
            true,
            |()| COUNTER.fetch_add(1, Ordering::SeqCst),
            (),
            || COUNTER.fetch_add(10, Ordering::SeqCst),
        );
        // Both stages ran exactly once, whatever the interleaving.
        assert_eq!(COUNTER.load(Ordering::SeqCst), 11);
        assert!(a == 0 || a == 10);
        assert!(b == 0 || b == 1);
    }

    #[test]
    fn sequential_path_never_spawns() {
        // Unarmed slots must stay on the caller's thread — no idle
        // worker, no handoff latency.
        let caller = std::thread::current().id();
        let mut worker: Worker<(), std::thread::ThreadId> = Worker::default();
        let (a, b) = overlap_owned(
            &mut worker,
            false,
            |()| std::thread::current().id(),
            (),
            || std::thread::current().id(),
        );
        assert_eq!(a, caller);
        assert_eq!(b, caller);
        assert!(worker.handle.is_none(), "sequential path spawned a worker");
    }

    #[test]
    fn forked_with_empty_stages_degrades_cleanly() {
        // Both stages are no-ops and the fork must still join and
        // return.
        let mut worker: Worker<(), ()> = Worker::default();
        let ((), ()) = overlap_owned(&mut worker, true, |()| (), (), || ());
        let ((), ()) = overlap_owned(&mut worker, false, |()| (), (), || ());
    }

    #[test]
    fn ingest_panic_propagates() {
        // A stage A panic surfaces on the caller with its payload, on
        // the sequential path as well as the forked one.
        for fork in [false, true] {
            let mut worker: Worker<u32, u32> = Worker::default();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                overlap_owned(&mut worker, fork, |_| panic!("stage A died"), 1, || 7);
            }));
            let payload = caught.unwrap_err();
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
            assert_eq!(msg, "stage A died", "fork = {fork}");
        }
    }

    #[test]
    fn price_panic_propagates() {
        for fork in [false, true] {
            let mut worker: Worker<u32, u32> = Worker::default();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                overlap_owned(
                    &mut worker,
                    fork,
                    |x| x,
                    7,
                    || -> u32 { panic!("stage B died") },
                );
            }));
            assert!(caught.is_err(), "fork = {fork}");
        }
    }

    #[test]
    fn owned_round_trips_state_through_one_persistent_thread() {
        // The whole point of the persistent worker: every forked slot
        // lands on the same OS thread, spawned exactly once, and the
        // moved state comes back.
        let caller = std::thread::current().id();
        let mut worker: Worker<Vec<u64>, (Vec<u64>, std::thread::ThreadId)> = Worker::default();
        let mut state = vec![0u64];
        let mut seen = Vec::new();
        for i in 1..=16u64 {
            let ((returned, tid), ()) = overlap_owned(
                &mut worker,
                true,
                |mut v: Vec<u64>| {
                    let next = v.last().copied().unwrap_or(0) + 1;
                    v.push(next);
                    (v, std::thread::current().id())
                },
                std::mem::take(&mut state),
                || (),
            );
            state = returned;
            seen.push(tid);
            assert_eq!(state.last().copied(), Some(i));
        }
        assert_eq!(state.len(), 17);
        assert_ne!(seen[0], caller, "forked ingest must leave the caller");
        assert!(
            seen.iter().all(|&tid| tid == seen[0]),
            "forked ingest hopped threads: {seen:?}"
        );
    }

    #[test]
    fn owned_ingest_panic_propagates_and_worker_survives() {
        let mut worker: Worker<u32, u32> = Worker::default();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            overlap_owned(&mut worker, true, |_| panic!("stage A died"), 1, || 7);
        }));
        let payload = caught.unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "stage A died");
        // The worker caught the panic and is reusable.
        let (a, b) = overlap_owned(&mut worker, true, |x| x + 1, 1, || 2);
        assert_eq!((a, b), (2, 2));
    }

    #[test]
    fn owned_price_panic_joins_the_job() {
        // Stage B panics while stage A is in flight: the guard must
        // drain the job result so a later slot never receives a stale
        // one.
        let mut worker: Worker<u32, u32> = Worker::default();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            overlap_owned(
                &mut worker,
                true,
                |x| x * 2,
                21,
                || -> u32 { panic!("stage B died") },
            );
        }));
        assert!(caught.is_err());
        let (a, b) = overlap_owned(&mut worker, true, |x| x + 1, 1, || 2);
        assert_eq!((a, b), (2, 2), "stale job result leaked across slots");
    }

    #[test]
    fn dropping_the_owner_joins_its_thread() {
        // Reaching the end of this test is the check: Worker::drop
        // joins, so a wedged worker loop would hang here rather than
        // leak a detached thread.
        let mut worker: Worker<(), ()> = Worker::default();
        let ((), ()) = overlap_owned(&mut worker, true, |()| (), (), || ());
        drop(worker);
    }
}
