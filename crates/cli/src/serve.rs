//! `osp serve` — drive the sharded pricing server over stdin/stdout or
//! a Unix socket.
//!
//! Both transports speak the same line-delimited JSON protocol: one
//! request per line in, one response per line out (responses from
//! different shards interleave; match them up by `id`). `shutdown`
//! drains every queue, answers everything in flight, and replies with
//! a final `bye` carrying per-shard statistics.

use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::mpsc::{channel, Sender};

use osp_core::prelude::Engine;
use osp_server::codec;
use osp_server::protocol::{Op, Reply, Response};
use osp_server::wal::FaultPlan;
use osp_server::{PoolConfig, ShardPool, DEFAULT_QUEUE_CAP, DEFAULT_SHARDS};

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
                    "columnar" => Engine::Columnar,
                    "pipelined" => Engine::Pipelined,
                    other => return Err(format!("unknown engine `{other}`")),
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
fn drive<R: BufRead, W: Write + Send + 'static>(
    pool: &ShardPool,
    input: R,
    output: W,
) -> (Option<u64>, std::thread::JoinHandle<W>) {
    let (tx, rx) = channel::<Response>();
    let writer = std::thread::spawn(move || {
        let mut output = output;
        let mut line = Vec::new();
        for response in rx {
            if write_line(&mut output, &mut line, &response).is_err() {
                // Reader hung up; keep draining so shards never block
                // on a dead reply channel.
            }
        }
        output
    });
    let shutdown_id = pump(pool, input, &tx);
    drop(tx);
    (shutdown_id, writer)
}

/// Reads request lines as bytes until EOF or `shutdown`. A line that is
/// not UTF-8 or not a valid request is answered with `bad_request`
/// under id 0 and the session goes on.
fn pump<R: BufRead>(pool: &ShardPool, mut input: R, tx: &Sender<Response>) -> Option<u64> {
    let mut line = Vec::new();
    loop {
        line.clear();
        match input.read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return None,
            Ok(_) => {}
        }
        let text = match std::str::from_utf8(&line) {
            Ok(text) => text.trim(),
            Err(e) => {
                let _ = tx.send(Response::error(
                    0,
                    "bad_request",
                    format!("invalid UTF-8: {e}"),
                ));
                continue;
            }
        };
        if text.is_empty() {
            continue;
        }
        let request = match codec::decode_request(text) {
            Ok(request) => request,
            Err(e) => {
                let _ = tx.send(Response::error(0, "bad_request", e));
                continue;
            }
        };
        if matches!(request.op, Op::Shutdown) {
            return Some(request.id);
        }
        pool.submit(request, tx);
    }
}

/// Writes one response line through the reusable `line` buffer.
fn write_line<W: Write>(
    output: &mut W,
    line: &mut Vec<u8>,
    response: &Response,
) -> std::io::Result<()> {
    line.clear();
    codec::encode_response(line, response)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    output.write_all(line)?;
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
    let _ = write_line(&mut output, &mut Vec::new(), &bye);
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
        let reader = std::io::BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("socket clone failed: {e}"))?,
        );
        let active = pool.take().expect("pool is present between connections");
        let (shutdown_id, writer) = drive(&active, reader, stream);
        if let Some(id) = shutdown_id {
            let shards = active.shutdown();
            let mut output = writer.join().expect("writer thread exited cleanly");
            let _ = write_line(
                &mut output,
                &mut Vec::new(),
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
