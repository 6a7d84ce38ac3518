//! The shard pool: N worker threads, each owning the games whose ids
//! hash onto it, fed by bounded per-shard mailboxes.
//!
//! Games are independent (no cross-game state in any mechanism), so
//! the pool is embarrassingly parallel: `hash(game_id) % shards` pins
//! every event of a game to one worker, which needs no locks around
//! its `HashMap<GameId, _>`.
//!
//! Requests travel in batches. A transport collects what one read
//! delivered into per-shard batches ([`Batcher`]); [`ShardPool::submit`]
//! and [`ShardPool::try_submit`] send one-request batches down the
//! same path. Each shard's mailbox is a queue of batches bounded in
//! *requests*, so back-pressure is the same however requests are
//! grouped: a producer that outruns the pool blocks instead of
//! ballooning memory. A worker takes everything queued under one lock
//! and answers each batch with one reply message. Shutdown closes the
//! mailboxes; workers drain what is already queued, answer every
//! request, then exit.
//!
//! Failure containment: every event is handled under `catch_unwind`,
//! so a panicking mechanism (or an injected fault) degrades exactly
//! one shard instead of the pool. The panicked worker answers the rest
//! of its drained batches and its queued backlog with the retryable
//! `shard_recovering` error, rebuilds its registry — from checkpoint +
//! WAL replay when the pool is durable ([`PoolConfig::wal_dir`]), from
//! scratch otherwise — and resumes serving. Other shards never notice.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use osp_core::prelude::Engine;

use crate::game::Registry;
use crate::protocol::{GameId, Op, Reply, Request, Response, ShardStat};
use crate::wal::{self, FaultPlan, ShardDurability};

/// Default worker count for transports that don't specify one.
pub const DEFAULT_SHARDS: usize = 4;

/// Default per-shard queue bound for transports that don't specify one.
pub const DEFAULT_QUEUE_CAP: usize = 1024;

/// Requests a [`Batcher`] collects for one shard before it hands them
/// over without waiting for a flush.
const BATCH_CAP: usize = 256;

/// The shard a game routes to, out of `shards` workers.
///
/// Fibonacci multiply-shift: game ids are often sequential, and the
/// golden-ratio multiplier spreads consecutive ids across shards
/// instead of striping them through the low bits.
#[must_use]
pub fn shard_of(game: GameId, shards: usize) -> usize {
    let hashed = game.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((hashed >> 32) % shards.max(1) as u64) as usize
}

/// Everything a [`ShardPool`] can be configured with.
pub struct PoolConfig {
    /// Worker count (clamped to at least 1).
    pub shards: usize,
    /// Per-shard queue bound in requests (clamped to at least 1). A
    /// batch larger than the bound is admitted only into an empty
    /// queue.
    pub queue_cap: usize,
    /// Default Shapley engine for hosted games.
    pub engine: Engine,
    /// Directory for per-shard WAL segments and checkpoints. `None`
    /// runs the pool in-memory (the pre-durability behavior): a
    /// panicked shard recovers *empty*, forfeiting its games.
    pub wal_dir: Option<PathBuf>,
    /// Checkpoint a shard after this many logged events (0 = never;
    /// the WAL then grows until shutdown). Ignored without `wal_dir`.
    pub checkpoint_every: u64,
    /// Crash-injection plan shared by every worker (tests, and the
    /// `OSP_FAULT` environment variable via `osp serve`).
    pub fault: Option<Arc<FaultPlan>>,
}

impl PoolConfig {
    /// An in-memory pool: `shards` workers defaulting to `engine`,
    /// queues bounded at `queue_cap`, no durability, no faults.
    #[must_use]
    pub fn in_memory(shards: usize, queue_cap: usize, engine: Engine) -> Self {
        PoolConfig {
            shards,
            queue_cap,
            engine,
            wal_dir: None,
            checkpoint_every: 0,
            fault: None,
        }
    }
}

/// Where a batch's replies go.
enum ReplyTo {
    /// One message per reply: [`ShardPool::submit`]'s caller channel.
    Each(Sender<Response>),
    /// One message per batch: a [`Batcher`]'s channel.
    Batch(Sender<Vec<Response>>),
}

/// Requests bound for one shard, answered together.
struct Batch {
    requests: Vec<Request>,
    reply: ReplyTo,
}

impl ReplyTo {
    /// Sends a batch's responses, in request order. A caller that hung
    /// up just doesn't get them; the game state already advanced.
    fn send(&self, responses: Vec<Response>) {
        match self {
            ReplyTo::Each(tx) => {
                for response in responses {
                    let _ = tx.send(response);
                }
            }
            ReplyTo::Batch(tx) => {
                let _ = tx.send(responses);
            }
        }
    }
}

impl Batch {
    /// Answers every request with `error(id)` without running it.
    fn refuse(self, error: impl Fn(u64) -> Response) {
        self.reply
            .send(self.requests.iter().map(|r| error(r.id)).collect());
    }
}

/// Why [`Mailbox::push`] refused a batch.
enum Refused {
    /// No room, and the caller asked not to wait.
    Full(Batch),
    /// The worker is gone.
    Closed(Batch),
}

/// The queue inside a [`Mailbox`].
#[derive(Default)]
struct Queue {
    batches: VecDeque<Batch>,
    /// Requests across `batches`.
    requests: usize,
    /// Set once the pool shuts down or the worker dies: nothing more
    /// is admitted, and the worker exits when the queue is empty.
    closed: bool,
    /// Whether the worker waits on `not_empty`, and how many producers
    /// wait on `not_full`. A condvar notify is a syscall even with no
    /// waiter, so the hot path notifies only when someone waits.
    worker_waiting: bool,
    producers_waiting: usize,
}

/// One shard's bounded queue of batches.
struct Mailbox {
    /// Bound on queued requests.
    cap: usize,
    queue: Mutex<Queue>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl Mailbox {
    fn new(cap: usize) -> Self {
        Mailbox {
            cap,
            queue: Mutex::new(Queue::default()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// No code panics while holding the lock, so a poisoned lock still
    /// guards a consistent queue.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `batch` and adds its size to `queued`. A full queue makes
    /// the caller wait for room when `block`, and refuses the batch
    /// otherwise. A batch larger than the bound fits only an empty
    /// queue.
    fn push(&self, batch: Batch, block: bool, queued: &AtomicU64) -> Result<(), Refused> {
        let size = batch.requests.len();
        let mut queue = self.lock();
        loop {
            if queue.closed {
                return Err(Refused::Closed(batch));
            }
            if queue.requests == 0 || queue.requests + size <= self.cap {
                break;
            }
            if !block {
                return Err(Refused::Full(batch));
            }
            queue.producers_waiting += 1;
            queue = self
                .not_full
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
            queue.producers_waiting -= 1;
        }
        queue.requests += size;
        queue.batches.push_back(batch);
        queued.fetch_add(size as u64, Ordering::Relaxed);
        let wake = queue.worker_waiting;
        drop(queue);
        if wake {
            self.not_empty.notify_one();
        }
        Ok(())
    }

    /// Swaps every queued batch into `drained`, which must be empty.
    /// With `block`, first waits while the queue is empty and open; an
    /// empty `drained` after a blocking take means closed and drained.
    fn take_all(&self, drained: &mut VecDeque<Batch>, block: bool) {
        debug_assert!(drained.is_empty());
        let mut queue = self.lock();
        while block && queue.batches.is_empty() && !queue.closed {
            queue.worker_waiting = true;
            queue = self
                .not_empty
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
            queue.worker_waiting = false;
        }
        std::mem::swap(&mut queue.batches, drained);
        debug_assert_eq!(
            queue.requests,
            drained.iter().map(|b| b.requests.len()).sum::<usize>()
        );
        queue.requests = 0;
        let wake = queue.producers_waiting > 0;
        drop(queue);
        if wake {
            self.not_full.notify_all();
        }
    }

    /// Admits nothing more and wakes everyone waiting.
    fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[derive(Default)]
struct ShardCounters {
    /// Requests admitted and not yet answered by the worker.
    queued: AtomicU64,
    events: AtomicU64,
    games: AtomicU64,
    recoveries: AtomicU64,
    recovering: AtomicBool,
}

impl ShardCounters {
    /// Counts one request answered by the worker. `Release` pairs with
    /// the `Acquire` load in [`ShardCounters::stat`]: a reader that no
    /// longer sees a request as queued also sees its `events` bump.
    fn answered_one(&self) {
        let before = self.queued.fetch_sub(1, Ordering::Release);
        debug_assert!(before > 0, "queued counter underflow");
    }

    /// Independent loads, deliberately *not* a coherent cross-counter
    /// snapshot: the workers update these counters on the hot path.
    /// The contract `stats` sells (documented on [`ShardStat`]) is
    /// per-counter accuracy, monotonicity of `events` and `recoveries`
    /// — each is only ever `fetch_add`ed — and that `events +
    /// queue_depth` never undercounts the requests admitted before the
    /// call: `queued` is loaded first, and a worker bumps `events`
    /// before it drops a request from `queued`.
    fn stat(&self, index: usize) -> ShardStat {
        let queue_depth = self.queued.load(Ordering::Acquire);
        ShardStat {
            shard: index as u32,
            games: self.games.load(Ordering::Relaxed),
            events: self.events.load(Ordering::Relaxed),
            queue_depth,
            recoveries: self.recoveries.load(Ordering::Relaxed),
        }
    }
}

/// One worker's mailbox and counters, shared with the pool.
struct Shard {
    mailbox: Mailbox,
    counters: ShardCounters,
}

/// Why [`ShardPool::try_submit`] handed a request back instead of
/// enqueuing it. Both are transient: retry after a backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitRetry {
    /// The owning shard's bounded queue is full (back-pressure).
    QueueFull,
    /// The owning shard panicked and is rebuilding its registry.
    Recovering,
}

fn recovering_error(id: u64, shard: usize) -> Response {
    Response::error(
        id,
        "shard_recovering",
        format!("shard {shard} is rebuilding after a crash; retry shortly"),
    )
}

/// Closes the mailbox when the worker exits, even by a panic outside
/// `catch_unwind`, so producers get `shard_down` instead of waiting on
/// a queue nobody drains.
struct CloseOnExit(Arc<Shard>);

impl Drop for CloseOnExit {
    fn drop(&mut self) {
        self.0.mailbox.close();
    }
}

/// One worker thread's state: its shard, registry and durability.
struct Worker {
    index: usize,
    shard: Arc<Shard>,
    registry: Registry,
    durability: Option<ShardDurability>,
    engine: Engine,
    shards: usize,
}

impl Worker {
    fn run(mut self) {
        let shard = Arc::clone(&self.shard);
        let _close = CloseOnExit(Arc::clone(&shard));
        let counters = &shard.counters;
        counters
            .games
            .store(self.registry.len() as u64, Ordering::Relaxed);
        let mut drained = VecDeque::new();
        loop {
            shard.mailbox.take_all(&mut drained, true);
            if drained.is_empty() {
                return;
            }
            let mut crashed = false;
            for Batch { requests, reply } in drained.drain(..) {
                let mut responses = Vec::with_capacity(requests.len());
                for Request { id, op } in requests {
                    // After a panic the shard is poisoned: the rest of
                    // the drained batches get the retryable code.
                    let handled = if crashed { None } else { self.handle(id, op) };
                    crashed = handled.is_none();
                    responses.push(handled.unwrap_or_else(|| recovering_error(id, self.index)));
                    counters.answered_one();
                }
                reply.send(responses);
            }
            if crashed {
                self.recover();
            }
        }
    }

    /// Applies one op under `catch_unwind`: `None` when it panicked,
    /// after flagging the shard as recovering so new submissions fail
    /// fast.
    fn handle(&mut self, id: u64, op: Op) -> Option<Response> {
        let handled = catch_unwind(AssertUnwindSafe(|| {
            if let Some(d) = self.durability.as_mut() {
                if wal::is_logged(&op) {
                    d.append(id, &op).expect("wal append");
                }
            }
            let response = self.registry.handle(id, op);
            if let Some(d) = self.durability.as_mut() {
                d.maybe_checkpoint(&self.registry).expect("wal checkpoint");
            }
            response
        }));
        let counters = &self.shard.counters;
        match handled {
            Ok(response) => {
                counters.events.fetch_add(1, Ordering::Relaxed);
                counters
                    .games
                    .store(self.registry.len() as u64, Ordering::Relaxed);
                Some(response)
            }
            Err(_) => {
                counters.recovering.store(true, Ordering::SeqCst);
                counters.recoveries.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Answers the queued backlog with the retryable code, then
    /// rebuilds the registry from disk (or empty) and clears the flag.
    fn recover(&mut self) {
        let (index, counters) = (self.index, &self.shard.counters);
        let mut backlog = VecDeque::new();
        self.shard.mailbox.take_all(&mut backlog, false);
        for batch in backlog {
            for _ in &batch.requests {
                counters.answered_one();
            }
            batch.refuse(|id| recovering_error(id, index));
        }
        self.registry = match self.durability.as_mut() {
            Some(d) => match d.recover(self.engine, self.shards) {
                Ok(registry) => registry,
                Err(e) => {
                    // Disk gone bad mid-run: keep serving, but
                    // in-memory only.
                    eprintln!(
                        "osp-server: shard {index}: recovery failed ({e}); \
                         continuing without durability"
                    );
                    self.durability = None;
                    Registry::new(self.engine, self.shards)
                }
            },
            None => Registry::new(self.engine, self.shards),
        };
        counters
            .games
            .store(self.registry.len() as u64, Ordering::Relaxed);
        counters.recovering.store(false, Ordering::SeqCst);
    }
}

/// A running pool of shard workers.
pub struct ShardPool {
    shards: Vec<Arc<Shard>>,
    handles: Vec<JoinHandle<()>>,
}

impl ShardPool {
    /// Spawns an in-memory pool of `shards` workers whose games
    /// default to `engine`, each behind a queue bounded at `queue_cap`
    /// requests.
    #[must_use]
    pub fn new(shards: usize, queue_cap: usize, engine: Engine) -> Self {
        Self::with_config(PoolConfig::in_memory(shards, queue_cap, engine))
            .expect("an in-memory pool opens no files and cannot fail")
    }

    /// Spawns a pool from a full [`PoolConfig`]. When
    /// [`PoolConfig::wal_dir`] is set, each shard recovers its
    /// registry (checkpoint + WAL replay) before serving; recovery
    /// errors — an unreadable directory, a corrupt checkpoint — fail
    /// construction instead of silently starting empty.
    pub fn with_config(config: PoolConfig) -> Result<Self, String> {
        let count = config.shards.max(1);
        let queue_cap = config.queue_cap.max(1);
        let engine = config.engine;
        // Built up in place, so an error part-way drops it and stops
        // the workers already started.
        let mut pool = ShardPool {
            shards: Vec::with_capacity(count),
            handles: Vec::with_capacity(count),
        };
        for index in 0..count {
            let (durability, registry) = match &config.wal_dir {
                Some(dir) => {
                    let (durability, registry) = ShardDurability::open(
                        dir,
                        index,
                        config.checkpoint_every,
                        config.fault.clone(),
                        engine,
                        count,
                    )?;
                    (Some(durability), registry)
                }
                None => (None, Registry::new(engine, count)),
            };
            let shard = Arc::new(Shard {
                mailbox: Mailbox::new(queue_cap),
                counters: ShardCounters::default(),
            });
            let worker = Worker {
                index,
                shard: Arc::clone(&shard),
                registry,
                durability,
                engine,
                shards: count,
            };
            let handle = std::thread::Builder::new()
                .name(format!("osp-shard-{index}"))
                .spawn(move || worker.run())
                .map_err(|e| format!("spawning shard worker {index}: {e}"))?;
            pool.shards.push(shard);
            pool.handles.push(handle);
        }
        Ok(pool)
    }

    /// Number of shard workers.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Hands `batch` to shard `index`, waiting for room when `block`.
    /// A recovering shard or a full queue (without `block`) hands the
    /// batch back; a shard whose worker exited answers it `shard_down`.
    fn enqueue(&self, index: usize, batch: Batch, block: bool) -> Result<(), (Batch, SubmitRetry)> {
        let shard = &self.shards[index];
        if shard.counters.recovering.load(Ordering::SeqCst) {
            return Err((batch, SubmitRetry::Recovering));
        }
        match shard.mailbox.push(batch, block, &shard.counters.queued) {
            Ok(()) => Ok(()),
            Err(Refused::Full(batch)) => Err((batch, SubmitRetry::QueueFull)),
            Err(Refused::Closed(batch)) => {
                batch.refuse(|id| {
                    Response::error(id, "shard_down", format!("shard {index} has exited"))
                });
                Ok(())
            }
        }
    }

    /// Routes one request; its response arrives on `reply`.
    ///
    /// Game-addressed operations enqueue onto the owning shard as a
    /// one-request batch, blocking while that shard's queue is full
    /// (back-pressure). A shard mid-recovery answers immediately with
    /// the retryable `shard_recovering` error instead of queueing
    /// behind the rebuild. `stats` is answered inline from the shared
    /// counters. `shutdown` cannot be answered here — only the
    /// transport can drain and join the pool — so it gets a `protocol`
    /// error; transports intercept it before routing.
    pub fn submit(&self, request: Request, reply: &Sender<Response>) {
        match request.op.game() {
            Some(game) => {
                let index = shard_of(game, self.shards());
                let batch = Batch {
                    requests: vec![request],
                    reply: ReplyTo::Each(reply.clone()),
                };
                // Blocking, so only a recovering shard hands it back.
                if let Err((batch, _)) = self.enqueue(index, batch, true) {
                    batch.refuse(|id| recovering_error(id, index));
                }
            }
            None => {
                let _ = reply.send(self.inline_response(request.id, &request.op));
            }
        }
    }

    /// Non-blocking [`ShardPool::submit`]: instead of blocking on a
    /// full queue (or failing a recovering shard's request over the
    /// reply channel), hands the request back with the retryable
    /// reason so the caller can back off and retry. Terminal outcomes
    /// (enqueued, answered inline, shard permanently down) return
    /// `Ok(())`.
    pub fn try_submit(
        &self,
        request: Request,
        reply: &Sender<Response>,
    ) -> Result<(), (Request, SubmitRetry)> {
        match request.op.game() {
            Some(game) => {
                let batch = Batch {
                    requests: vec![request],
                    reply: ReplyTo::Each(reply.clone()),
                };
                self.enqueue(shard_of(game, self.shards()), batch, false)
                    .map_err(|(mut batch, why)| {
                        (batch.requests.pop().expect("a one-request batch"), why)
                    })
            }
            None => {
                let _ = reply.send(self.inline_response(request.id, &request.op));
                Ok(())
            }
        }
    }

    /// A [`Batcher`] that sends each batch's replies to `reply` as one
    /// message.
    #[must_use]
    pub fn batcher(&self, reply: &Sender<Vec<Response>>) -> Batcher<'_> {
        Batcher {
            pool: self,
            reply: reply.clone(),
            pending: vec![Vec::new(); self.shards()],
        }
    }

    fn inline_response(&self, id: u64, op: &Op) -> Response {
        match op {
            Op::Stats => Response {
                id,
                reply: Reply::Stats {
                    shards: self.stats(),
                },
            },
            _ => Response::error(
                id,
                "protocol",
                "shutdown is handled by the transport; close the connection or \
                 let the driver call ShardPool::shutdown",
            ),
        }
    }

    /// Submits one request and blocks for its response.
    #[must_use]
    pub fn call(&self, request: Request) -> Response {
        let (tx, rx) = std::sync::mpsc::channel();
        self.submit(request, &tx);
        rx.recv().expect("shard worker answered before exiting")
    }

    /// A point-in-time statistics snapshot, in shard order.
    #[must_use]
    pub fn stats(&self) -> Vec<ShardStat> {
        self.shards
            .iter()
            .enumerate()
            .map(|(index, s)| s.counters.stat(index))
            .collect()
    }

    /// Gracefully stops the pool: closes the mailboxes (workers drain
    /// everything already submitted, answering each request), joins
    /// every worker, and returns the final statistics.
    #[must_use]
    pub fn shutdown(mut self) -> Vec<ShardStat> {
        self.close();
        for handle in self.handles.drain(..) {
            handle.join().expect("shard worker exited cleanly");
        }
        self.stats()
    }

    fn close(&self) {
        for shard in &self.shards {
            shard.mailbox.close();
        }
    }
}

impl Drop for ShardPool {
    /// A pool dropped without [`ShardPool::shutdown`] still lets its
    /// workers answer what is queued and exit.
    fn drop(&mut self) {
        self.close();
    }
}

/// Collects a transport's requests into per-shard batches.
///
/// A game-addressed request joins its shard's pending batch; the batch
/// goes to the shard once it holds 256 requests or on
/// [`Batcher::flush`]. Any other op (`stats`) first flushes every
/// pending batch, so it sees all earlier requests as queued or done.
/// Each batch's replies arrive as one `Vec<Response>`, in request
/// order. Dropping the batcher flushes it.
pub struct Batcher<'a> {
    pool: &'a ShardPool,
    reply: Sender<Vec<Response>>,
    pending: Vec<Vec<Request>>,
}

impl Batcher<'_> {
    /// Adds one request, blocking while its shard's queue is full when
    /// the request completes a batch.
    pub fn push(&mut self, request: Request) {
        match request.op.game() {
            Some(game) => {
                let index = shard_of(game, self.pool.shards());
                self.pending[index].push(request);
                if self.pending[index].len() >= BATCH_CAP {
                    self.flush_shard(index);
                }
            }
            None => {
                self.flush();
                let response = self.pool.inline_response(request.id, &request.op);
                let _ = self.reply.send(vec![response]);
            }
        }
    }

    /// Hands every shard its pending batch.
    pub fn flush(&mut self) {
        for index in 0..self.pending.len() {
            self.flush_shard(index);
        }
    }

    fn flush_shard(&mut self, index: usize) {
        if self.pending[index].is_empty() {
            return;
        }
        let batch = Batch {
            requests: std::mem::take(&mut self.pending[index]),
            reply: ReplyTo::Batch(self.reply.clone()),
        };
        // Blocking, so only a recovering shard hands it back.
        if let Err((batch, _)) = self.pool.enqueue(index, batch, true) {
            batch.refuse(|id| recovering_error(id, index));
        }
    }
}

impl Drop for Batcher<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc::{channel, Receiver};

    use super::*;

    /// A pool whose workers are built but not started, so a test can
    /// fill its queues before anything drains them.
    fn parked(shards: usize, queue_cap: usize) -> (ShardPool, Vec<Worker>) {
        let engine = Engine::Incremental;
        let mut pool = ShardPool {
            shards: Vec::new(),
            handles: Vec::new(),
        };
        let mut workers = Vec::new();
        for index in 0..shards {
            let shard = Arc::new(Shard {
                mailbox: Mailbox::new(queue_cap),
                counters: ShardCounters::default(),
            });
            workers.push(Worker {
                index,
                shard: Arc::clone(&shard),
                registry: Registry::new(engine, shards),
                durability: None,
                engine,
                shards,
            });
            pool.shards.push(shard);
        }
        (pool, workers)
    }

    fn start(pool: &mut ShardPool, workers: Vec<Worker>) {
        for worker in workers {
            pool.handles.push(std::thread::spawn(move || worker.run()));
        }
    }

    fn create(id: u64, game: u64, horizon: u32) -> Request {
        Request {
            id,
            op: Op::Create {
                game: GameId(game),
                mechanism: crate::protocol::Mechanism::AddOn,
                horizon,
                costs: vec!["10".to_string()],
                engine: None,
                seed: None,
            },
        }
    }

    fn tick(id: u64, game: u64, slot: u32) -> Request {
        Request {
            id,
            op: Op::Tick {
                game: GameId(game),
                slot: Some(slot),
            },
        }
    }

    fn batch_of(size: usize) -> (Batch, Receiver<Vec<Response>>) {
        let (tx, rx) = channel();
        let requests = (0..size as u64).map(|id| tick(id, 0, 1)).collect();
        let batch = Batch {
            requests,
            reply: ReplyTo::Batch(tx),
        };
        (batch, rx)
    }

    fn flat(rx: &Receiver<Vec<Response>>) -> Vec<Response> {
        rx.try_iter().flatten().collect()
    }

    #[test]
    fn each_shard_answers_in_submission_order_across_batch_boundaries() {
        // Ticks carry their expected slot, so any reordering within a
        // game comes back as `out_of_order`.
        let (shards, games, horizon) = (2, 6u64, 9u32);
        let pool = ShardPool::new(shards, 4, Engine::Incremental);
        let (tx, rx) = channel();
        let (single_tx, single_rx) = channel();
        let mut batcher = pool.batcher(&tx);
        let mut id = 0;
        for game in 0..games {
            id += 1;
            batcher.push(create(id, game, horizon));
        }
        for slot in 1..=horizon {
            for game in 0..games {
                id += 1;
                // Batches of two or three, with every third request
                // taking the one-request path through the same mailbox.
                if id % 3 == 0 {
                    batcher.flush();
                    pool.submit(tick(id, game, slot), &single_tx);
                } else {
                    batcher.push(tick(id, game, slot));
                }
            }
        }
        drop(batcher);
        let stats = pool.shutdown();
        drop((tx, single_tx));
        let batched: Vec<Response> = rx.iter().flatten().collect();
        let singles: Vec<Response> = single_rx.iter().collect();
        assert_eq!((batched.len() + singles.len()) as u64, id);
        assert_eq!(stats.iter().map(|s| s.events).sum::<u64>(), id);
        for replies in [&batched, &singles] {
            let mut last = vec![0; shards];
            for response in replies {
                let game = match &response.reply {
                    Reply::Created { game, .. } | Reply::Slot { game, .. } => *game,
                    other => panic!("unexpected reply {other:?}"),
                };
                let shard = shard_of(game, shards);
                assert!(response.id > last[shard], "shard {shard} reordered");
                last[shard] = response.id;
            }
        }
    }

    #[test]
    fn try_submit_reports_queue_full_once_cap_requests_are_queued() {
        let (mut pool, workers) = parked(1, 4);
        let (tx, rx) = channel();
        let (single_tx, single_rx) = channel();
        {
            let mut batcher = pool.batcher(&tx);
            for id in 1..=3 {
                batcher.push(tick(id, 0, 1));
            }
        }
        // One batch of three plus one single: four requests queued in
        // two batches, which is the bound.
        assert!(pool.try_submit(tick(4, 0, 1), &single_tx).is_ok());
        assert_eq!(pool.stats()[0].queue_depth, 4);
        let (back, why) = pool
            .try_submit(tick(5, 0, 1), &single_tx)
            .expect_err("the queue holds cap requests");
        assert_eq!((back.id, why), (5, SubmitRetry::QueueFull));
        assert_eq!(pool.stats()[0].queue_depth, 4);
        start(&mut pool, workers);
        let stats = pool.shutdown();
        assert_eq!((stats[0].events, stats[0].queue_depth), (4, 0));
        drop((tx, single_tx));
        assert_eq!(flat(&rx).len() + single_rx.try_iter().count(), 4);
    }

    #[test]
    fn an_over_cap_batch_enters_only_an_empty_queue() {
        let mailbox = Mailbox::new(4);
        let queued = AtomicU64::new(0);
        let (big, _big_rx) = batch_of(6);
        assert!(mailbox.push(big, false, &queued).is_ok());
        let (small, _small_rx) = batch_of(1);
        let Err(Refused::Full(small)) = mailbox.push(small, false, &queued) else {
            panic!("a queue past its bound admits nothing");
        };
        let mut drained = VecDeque::new();
        mailbox.take_all(&mut drained, false);
        assert_eq!(drained.len(), 1);
        assert!(mailbox.push(small, false, &queued).is_ok());
        let (big, _big_rx) = batch_of(6);
        assert!(matches!(
            mailbox.push(big, false, &queued),
            Err(Refused::Full(_))
        ));
        assert_eq!(queued.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn queue_depth_counts_requests_not_batches() {
        let (mut pool, workers) = parked(2, 1024);
        let (tx, _rx) = channel();
        let mut batcher = pool.batcher(&tx);
        let shard = shard_of(GameId(0), 2);
        // A full batch goes over without a flush.
        for id in 0..BATCH_CAP as u64 {
            batcher.push(tick(id, 0, 1));
        }
        assert_eq!(pool.stats()[shard].queue_depth, BATCH_CAP as u64);
        for id in 0..7 {
            batcher.push(tick(id, 0, 1));
        }
        assert_eq!(pool.stats()[shard].queue_depth, BATCH_CAP as u64);
        batcher.flush();
        drop(batcher);
        assert_eq!(pool.stats()[shard].queue_depth, BATCH_CAP as u64 + 7);
        assert_eq!(pool.stats()[1 - shard].queue_depth, 0);
        assert_eq!(pool.shards[shard].mailbox.lock().batches.len(), 2);
        start(&mut pool, workers);
        assert!(pool.shutdown().iter().all(|s| s.queue_depth == 0));
    }

    #[test]
    fn a_dropped_pool_still_answers_what_is_queued() {
        let (pool, workers) = parked(1, 4);
        let (tx, rx) = channel();
        pool.submit(create(1, 0, 1), &tx);
        // Started outside the pool, so the test can join them.
        let started: Vec<_> = workers
            .into_iter()
            .map(|worker| std::thread::spawn(move || worker.run()))
            .collect();
        drop(pool);
        for handle in started {
            handle
                .join()
                .expect("the worker exits once its pool is dropped");
        }
        assert!(matches!(rx.try_recv(), Ok(Response { id: 1, .. })));
    }

    #[test]
    fn shutdown_drains_and_answers_every_queued_batch() {
        let (mut pool, workers) = parked(2, 1000);
        let (tx, rx) = channel();
        let (single_tx, single_rx) = channel();
        let mut sent = 0u64;
        {
            let mut batcher = pool.batcher(&tx);
            for game in 0..10 {
                batcher.push(create(sent, game, 3));
                sent += 1;
            }
            batcher.flush();
            for game in 0..10 {
                pool.submit(tick(sent, game, 1), &single_tx);
                sent += 1;
                batcher.push(tick(sent, game, 2));
                sent += 1;
            }
        }
        start(&mut pool, workers);
        let stats = pool.shutdown();
        drop((tx, single_tx));
        let mut ids: Vec<u64> = rx
            .iter()
            .flatten()
            .chain(single_rx.iter())
            .map(|r| {
                assert!(!matches!(r.reply, Reply::Error { .. }), "{r:?}");
                r.id
            })
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..sent).collect::<Vec<_>>());
        assert_eq!(stats.iter().map(|s| s.events).sum::<u64>(), sent);
        assert!(stats.iter().all(|s| s.queue_depth == 0));
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for shards in 1..=8 {
            for game in 0..1000 {
                let s = shard_of(GameId(game), shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(GameId(game), shards));
            }
        }
    }

    #[test]
    fn sequential_ids_spread_over_shards() {
        let shards = 4;
        let mut counts = vec![0usize; shards];
        for game in 0..1000 {
            counts[shard_of(GameId(game), shards)] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                (150..=350).contains(&count),
                "shard {shard} owns {count} of 1000 games"
            );
        }
    }
}
