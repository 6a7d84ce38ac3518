//! In-process replays of a wire trace through the server library, for
//! the traced run's per-layer breakdown.
//!
//! Each replay decodes the same request lines the wire workloads send
//! and calls the layers `osp serve` calls: `serde_json` decode,
//! `Registry::handle` (inline) or `ShardPool::try_submit` plus the reply
//! receive (pool), `ShardDurability::append`/`maybe_checkpoint` in a
//! replay with a WAL, and `serde_json` encode of the response.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use osp_core::prelude::Engine;
use osp_server::protocol::{Reply, Request, Response};
use osp_server::wal::{self, ShardDurability};
use osp_server::{
    shard_of, FinalOutcome, PoolConfig, Registry, ShardPool, SubmitRetry, DEFAULT_QUEUE_CAP,
};

use crate::span::Tracer;
use crate::wire::WireTrace;

/// Shards, as `osp serve --shards 2`.
pub const SHARDS: usize = 2;
/// Checkpoint cadence of the traced WAL replay, as
/// `osp serve --checkpoint-every 65536`.
pub const CHECKPOINT_EVERY: u64 = 65_536;

fn timed<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    request: u64,
    kind: u8,
    parent: Option<u32>,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.time(name, request, kind, parent, f),
        None => f(),
    }
}

fn decode(line: &str) -> Result<Request, String> {
    serde_json::from_str(line).map_err(|e| format!("trace line does not decode: {e}"))
}

fn encode(response: &Response) -> Result<String, String> {
    serde_json::to_string(response).map_err(|e| format!("response does not encode: {e}"))
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// What the WAL did during a traced inline replay.
#[derive(Debug, Default)]
pub struct WalTally {
    /// Records appended.
    pub logged: u64,
    /// Bytes those records added to the segments.
    pub record_bytes: u64,
    /// Duration of each checkpoint that was taken, in ms.
    pub checkpoint_ms: Vec<f64>,
    /// Size of each checkpoint file written, in bytes.
    pub checkpoint_bytes: Vec<u64>,
}

/// One inline replay.
pub struct InlineRun {
    /// Wall time of the replay.
    pub wall_s: f64,
    /// Error replies.
    pub errors: u64,
    /// WAL activity (sizes only when traced).
    pub wal: WalTally,
    /// Final outcome of every finished game.
    pub outcomes: HashMap<u64, FinalOutcome>,
}

/// Replays every line through one `Registry` per shard, as a shard
/// worker handles it: append when logged, handle, maybe checkpoint.
/// With a tracer, each request gets a root span with the layer calls
/// as children.
pub fn inline_pass(
    trace: &WireTrace,
    wal_dir: Option<&Path>,
    mut tracer: Option<&mut Tracer>,
) -> Result<InlineRun, String> {
    let engine = Engine::default();
    let mut registries = Vec::new();
    let mut durable: Vec<Option<(ShardDurability, PathBuf, PathBuf)>> = Vec::new();
    for shard in 0..SHARDS {
        match wal_dir {
            Some(dir) => {
                let (d, registry) =
                    ShardDurability::open(dir, shard, CHECKPOINT_EVERY, None, engine, SHARDS)?;
                registries.push(registry);
                // The segment and checkpoint names `ShardDurability` uses.
                durable.push(Some((
                    d,
                    dir.join(format!("shard-{shard}.wal")),
                    dir.join(format!("shard-{shard}.ckpt")),
                )));
            }
            None => {
                registries.push(Registry::new(engine, SHARDS));
                durable.push(None);
            }
        }
    }
    let traced = tracer.is_some();
    let mut tally = WalTally::default();
    let mut errors = 0;
    let started = Instant::now();
    for i in 0..trace.len() {
        let (req, kind) = (i as u64, trace.kinds[i]);
        let root = tracer.as_mut().map(|t| t.begin("request", req, kind, None));
        let Request { id, op } = timed(&mut tracer, "protocol.decode", req, kind, root, || {
            decode(trace.text(i))
        })?;
        let shard = op.game().map_or(0, |g| shard_of(g, SHARDS));
        if let Some((d, wal_path, _)) = durable[shard].as_mut() {
            if wal::is_logged(&op) {
                let before = if traced { file_len(wal_path) } else { 0 };
                timed(&mut tracer, "wal.append", req, kind, root, || {
                    d.append(id, &op)
                })?;
                tally.logged += 1;
                if traced {
                    tally.record_bytes += file_len(wal_path).saturating_sub(before);
                }
            }
        }
        let registry = &mut registries[shard];
        let response = timed(&mut tracer, "game.handle", req, kind, root, || {
            registry.handle(id, op)
        });
        if matches!(response.reply, Reply::Error { .. }) {
            errors += 1;
        }
        if let Some((d, wal_path, ckpt_path)) = durable[shard].as_mut() {
            let before = if traced { file_len(wal_path) } else { 0 };
            let checkpoint_start = Instant::now();
            timed(&mut tracer, "wal.checkpoint", req, kind, root, || {
                d.maybe_checkpoint(registry)
            })?;
            // A checkpoint truncates the segment.
            if traced && file_len(wal_path) < before {
                tally
                    .checkpoint_ms
                    .push(checkpoint_start.elapsed().as_secs_f64() * 1e3);
                tally.checkpoint_bytes.push(file_len(ckpt_path));
            }
        }
        timed(&mut tracer, "protocol.encode", req, kind, root, || {
            encode(&response)
        })?;
        if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
            t.end(root);
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let outcomes = registries
        .into_iter()
        .flat_map(Registry::into_outcomes)
        .collect();
    Ok(InlineRun {
        wall_s,
        errors,
        wal: tally,
        outcomes,
    })
}

/// An in-memory pool, as `osp serve --shards 2` runs one.
fn pool() -> Result<ShardPool, String> {
    ShardPool::with_config(PoolConfig {
        shards: SHARDS,
        queue_cap: DEFAULT_QUEUE_CAP,
        engine: Engine::default(),
        wal_dir: None,
        checkpoint_every: 0,
        fault: None,
    })
}

/// Submits until the pool takes the request; returns the queue-full
/// bounces.
fn submit(pool: &ShardPool, request: Request, reply: &std::sync::mpsc::Sender<Response>) -> u64 {
    let mut pending = request;
    let mut retries = 0;
    loop {
        match pool.try_submit(pending, reply) {
            Ok(()) => return retries,
            Err((back, SubmitRetry::QueueFull)) => {
                retries += 1;
                pending = back;
                std::thread::yield_now();
            }
            Err((back, SubmitRetry::Recovering)) => {
                pending = back;
                std::thread::sleep(Duration::from_micros(100));
            }
        }
    }
}

/// Sends the lines that pass `keep` through a shard pool one at a time,
/// each waiting for its reply, with spans around decode, submit, the
/// reply receive and encode. Returns the error replies.
pub fn pool_round_trips(
    trace: &WireTrace,
    keep: impl Fn(usize) -> bool,
    tracer: &mut Tracer,
) -> Result<u64, String> {
    let pool = pool()?;
    let (tx, rx) = channel();
    let mut errors = 0;
    for i in (0..trace.len()).filter(|&i| keep(i)) {
        let (req, kind) = (i as u64, trace.kinds[i]);
        let root = tracer.begin("request", req, kind, None);
        let request = tracer.time("protocol.decode", req, kind, Some(root), || {
            decode(trace.text(i))
        })?;
        tracer.time("shard.submit", req, kind, Some(root), || {
            submit(&pool, request, &tx)
        });
        let response = tracer
            .time("shard.recv", req, kind, Some(root), || rx.recv())
            .map_err(|_| "the pool dropped a reply".to_string())?;
        if matches!(response.reply, Reply::Error { .. }) {
            errors += 1;
        }
        tracer.time("protocol.encode", req, kind, Some(root), || {
            encode(&response)
        })?;
        tracer.end(root);
    }
    let _ = pool.shutdown();
    Ok(errors)
}

/// One pipelined pool replay.
pub struct PipelinedRun {
    /// Decode of the first line to the last reply encoded.
    pub wall_s: f64,
    /// Queue-full bounces absorbed by retrying.
    pub retries: u64,
    /// Error replies.
    pub errors: u64,
}

/// Replays every line through a shard pool the way `osp serve` does,
/// minus the pipe: this thread decodes and submits, a second receives
/// and encodes replies.
pub fn pool_pipelined(trace: &WireTrace) -> Result<PipelinedRun, String> {
    let pool = pool()?;
    let (tx, rx) = channel::<Response>();
    let started = Instant::now();
    let collector = std::thread::spawn(move || -> Result<(u64, u64), String> {
        let (mut answered, mut errors) = (0, 0);
        for response in rx {
            answered += 1;
            if matches!(response.reply, Reply::Error { .. }) {
                errors += 1;
            }
            encode(&response)?;
        }
        Ok((answered, errors))
    });
    let mut retries = 0;
    for i in 0..trace.len() {
        retries += submit(&pool, decode(trace.text(i))?, &tx);
    }
    let _ = pool.shutdown();
    drop(tx);
    let (answered, errors) = collector.join().expect("collector thread")?;
    if answered != trace.len() as u64 {
        return Err(format!(
            "the pool answered {answered} of {} requests",
            trace.len()
        ));
    }
    Ok(PipelinedRun {
        wall_s: started.elapsed().as_secs_f64(),
        retries,
        errors,
    })
}
