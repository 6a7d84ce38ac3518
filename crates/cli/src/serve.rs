//! `osp serve` — drive the sharded pricing server over stdin/stdout or
//! a Unix socket.
//!
//! Both transports speak the same line-delimited JSON protocol: one
//! request per line in, one response per line out (responses from
//! different shards interleave; match them up by `id`). `shutdown`
//! drains every queue, answers everything in flight, and replies with
//! a final `bye` carrying per-shard statistics.
//!
//! The request path batches whatever has already arrived: the reader
//! hands each shard the requests one read delivered as one batch, and
//! the writer sends every reply ready at a wake in one write. A lone
//! request is never held back waiting for more input.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::sync::mpsc::{channel, Sender};

use osp_core::prelude::Engine;
use osp_server::codec;
use osp_server::protocol::{Op, Reply, Response};
use osp_server::wal::FaultPlan;
use osp_server::{PoolConfig, ShardPool, DEFAULT_QUEUE_CAP, DEFAULT_SHARDS};

/// Bytes the reader buffers per read.
const READ_BUFFER: usize = 1 << 16;

/// Reply bytes the writer gathers before it writes.
const WRITE_BUFFER: usize = 1 << 16;

/// Parsed `osp serve` flags.
struct ServeConfig {
    shards: usize,
    queue_cap: usize,
    engine: Engine,
    socket: Option<String>,
    wal_dir: Option<PathBuf>,
    checkpoint_every: u64,
}

fn parse_args(args: &[String], usage: &str) -> Result<ServeConfig, String> {
    let mut config = ServeConfig {
        shards: DEFAULT_SHARDS,
        queue_cap: DEFAULT_QUEUE_CAP,
        engine: Engine::Incremental,
        socket: None,
        wal_dir: None,
        checkpoint_every: 0,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--shards" => {
                let v = it.next().ok_or("--shards needs a value")?;
                config.shards = v
                    .parse::<usize>()
                    .map_err(|e| format!("bad --shards `{v}`: {e}"))?
                    .max(1);
            }
            "--queue-cap" => {
                let v = it.next().ok_or("--queue-cap needs a value")?;
                config.queue_cap = v
                    .parse::<usize>()
                    .map_err(|e| format!("bad --queue-cap `{v}`: {e}"))?
                    .max(1);
            }
            "--engine" => {
                let v = it.next().ok_or("--engine needs a value")?;
                config.engine = match v.as_str() {
                    "incremental" => Engine::Incremental,
                    "rebuild" => Engine::Rebuild,
                    other => {
                        return Err(format!(
                            "unknown engine `{other}` (expected incremental or rebuild)"
                        ))
                    }
                };
            }
            "--socket" => {
                let v = it.next().ok_or("--socket needs a path")?;
                config.socket = Some(v.clone());
            }
            "--wal-dir" => {
                let v = it.next().ok_or("--wal-dir needs a directory")?;
                config.wal_dir = Some(PathBuf::from(v));
            }
            "--checkpoint-every" => {
                let v = it.next().ok_or("--checkpoint-every needs a value")?;
                config.checkpoint_every = v
                    .parse::<u64>()
                    .map_err(|e| format!("bad --checkpoint-every `{v}`: {e}"))?;
            }
            other => return Err(format!("unknown flag `{other}`\n{usage}")),
        }
    }
    if config.checkpoint_every > 0 && config.wal_dir.is_none() {
        return Err("--checkpoint-every needs --wal-dir".to_string());
    }
    Ok(config)
}

/// Builds the pool: durable when `--wal-dir` is set (recovering any
/// existing checkpoint + WAL on the way up), with the `OSP_FAULT`
/// crash-injection hook honored for the recovery test harnesses.
fn build_pool(config: &ServeConfig) -> Result<ShardPool, String> {
    let fault = FaultPlan::from_env()?.map(std::sync::Arc::new);
    ShardPool::with_config(PoolConfig {
        shards: config.shards,
        queue_cap: config.queue_cap,
        engine: config.engine,
        wal_dir: config.wal_dir.clone(),
        checkpoint_every: config.checkpoint_every,
        fault,
    })
}

/// Entry point for `osp serve`.
pub fn serve(args: &[String], usage: &str) -> Result<(), String> {
    let config = parse_args(args, usage)?;
    match config.socket.clone() {
        Some(path) => serve_socket(&config, &path),
        None => serve_pipe(&config),
    }
}

/// Feeds lines from `input` to `pool`, writing responses to `output`
/// as they arrive. Returns `Some(shutdown_id)` when a `shutdown`
/// request ends the session, `None` on EOF.
fn drive<R: Read, W: Write + Send + 'static>(
    pool: &ShardPool,
    input: R,
    output: W,
) -> (Option<u64>, std::thread::JoinHandle<W>) {
    let (tx, rx) = channel::<Vec<Response>>();
    let writer = std::thread::spawn(move || {
        let mut output = output;
        let mut buf = Vec::with_capacity(WRITE_BUFFER);
        while let Ok(replies) = rx.recv() {
            buf.clear();
            encode_all(&mut buf, &replies);
            // Everything else already answered goes out in the same write.
            while buf.len() < WRITE_BUFFER {
                match rx.try_recv() {
                    Ok(replies) => encode_all(&mut buf, &replies),
                    Err(_) => break,
                }
            }
            // A reader that hung up makes this fail; keep draining so
            // shards never block on a dead reply channel.
            let _ = output.write_all(&buf).and_then(|()| output.flush());
        }
        output
    });
    let shutdown_id = pump(pool, input, &tx);
    drop(tx);
    (shutdown_id, writer)
}

/// Appends each response as one line; one that fails to encode is
/// dropped.
fn encode_all(buf: &mut Vec<u8>, responses: &[Response]) {
    for response in responses {
        let _ = codec::encode_response(buf, response);
    }
}

/// Reads request lines as bytes until EOF or `shutdown`. A line that is
/// not UTF-8 or not a valid request is answered with `bad_request`
/// under id 0 and the session goes on. Game-addressed requests are
/// batched per shard; every pending batch is handed over whenever the
/// buffer holds no complete line, so the next read may block.
fn pump<R: Read>(pool: &ShardPool, input: R, tx: &Sender<Vec<Response>>) -> Option<u64> {
    let mut input = BufReader::with_capacity(READ_BUFFER, input);
    // Dropped on return, which hands every shard its pending batch.
    let mut batcher = pool.batcher(tx);
    let mut line = Vec::new();
    loop {
        if !input.buffer().contains(&b'\n') {
            batcher.flush();
        }
        line.clear();
        match input.read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return None,
            Ok(_) => {}
        }
        let text = match std::str::from_utf8(&line) {
            Ok(text) => text.trim(),
            Err(e) => {
                let _ = tx.send(vec![Response::error(
                    0,
                    "bad_request",
                    format!("invalid UTF-8: {e}"),
                )]);
                continue;
            }
        };
        if text.is_empty() {
            continue;
        }
        let request = match codec::decode_request(text) {
            Ok(request) => request,
            Err(e) => {
                let _ = tx.send(vec![Response::error(0, "bad_request", e)]);
                continue;
            }
        };
        if matches!(request.op, Op::Shutdown) {
            return Some(request.id);
        }
        batcher.push(request);
    }
}

/// Writes one response line.
fn write_line<W: Write>(output: &mut W, response: &Response) -> std::io::Result<()> {
    let mut line = Vec::new();
    encode_all(&mut line, std::slice::from_ref(response));
    output.write_all(&line)?;
    output.flush()
}

fn serve_pipe(config: &ServeConfig) -> Result<(), String> {
    let pool = build_pool(config)?;
    let stdin = std::io::stdin();
    let (shutdown_id, writer) = drive(&pool, stdin.lock(), std::io::stdout());
    // Drain the queues, answer everything in flight, then say goodbye.
    let shards = pool.shutdown();
    let mut output = writer.join().expect("writer thread exited cleanly");
    let bye = Response {
        id: shutdown_id.unwrap_or(0),
        reply: Reply::Bye { shards },
    };
    let _ = write_line(&mut output, &bye);
    Ok(())
}

fn serve_socket(config: &ServeConfig, path: &str) -> Result<(), String> {
    use std::os::unix::net::UnixListener;

    // A stale socket file from a previous run would make bind fail.
    let _ = std::fs::remove_file(path);
    let listener =
        UnixListener::bind(path).map_err(|e| format!("cannot bind socket {path}: {e}"))?;
    let mut pool = Some(build_pool(config)?);
    // The pool (and its games) outlives connections: clients connect,
    // trade some events, disconnect, and reconnect later. `shutdown`
    // from any client stops the server.
    for stream in listener.incoming() {
        let stream = stream.map_err(|e| format!("accept failed: {e}"))?;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("socket clone failed: {e}"))?;
        let active = pool.take().expect("pool is present between connections");
        let (shutdown_id, writer) = drive(&active, reader, stream);
        if let Some(id) = shutdown_id {
            let shards = active.shutdown();
            let mut output = writer.join().expect("writer thread exited cleanly");
            let _ = write_line(
                &mut output,
                &Response {
                    id,
                    reply: Reply::Bye { shards },
                },
            );
            break;
        }
        let _ = writer.join().expect("writer thread exited cleanly");
        pool = Some(active);
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}
