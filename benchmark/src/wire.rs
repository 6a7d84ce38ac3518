//! The wire side: request traces, the line transport loop, and the
//! `osp serve` child process.
//!
//! A trace is every request of a set of concurrent games, encoded once
//! as newline-terminated JSON. [`drive`] writes a prefix of it to a
//! server's input and reads the replies off its output, either as fast
//! as the pipe takes it (closed pipeline: back-pressure comes from the
//! pipe and the server's bounded queues) or on a fixed-rate schedule
//! (open loop: each request is timed from when it was due, so a stall
//! also delays every request due behind it).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use osp_core::prelude::*;
use osp_server::money_to_decimal;
use osp_server::protocol::{GameId, Mechanism, Op, Reply, Request, Response};
use osp_workload::source::{find, Trace};

use crate::inproc::SHARDS;
use crate::procfs;

/// Request kinds, indexed by the `kind` byte of a trace line.
pub const KINDS: [&str; 4] = ["create", "arrive", "tick", "expire"];
pub const CREATE: u8 = 0;
pub const ARRIVE: u8 = 1;
pub const TICK: u8 = 2;
pub const EXPIRE: u8 = 3;

/// Ids at and above this are `stats` probes, not trace requests.
const PROBE_BASE: u64 = 1 << 40;

/// The shape of a wire trace.
#[derive(Debug, Clone, Copy)]
pub struct TraceShape {
    /// Registry name of the (wire-safe) source every game samples.
    pub source: &'static str,
    /// Concurrent games.
    pub games: u64,
    /// Users per game.
    pub users: u32,
}

/// One user's bid interval, for the serviced share.
#[derive(Debug, Clone, Copy)]
pub struct BidSpan {
    pub game: u64,
    pub user: u32,
    pub start: u32,
    pub end: u32,
}

/// An encoded request trace.
#[derive(Debug, Default)]
pub struct WireTrace {
    /// Every request line, each ending in `\n`.
    pub buf: Vec<u8>,
    /// End offset of each line in `buf`.
    pub ends: Vec<usize>,
    /// Request kind of each line.
    pub kinds: Vec<u8>,
    /// Target game of each line.
    pub games: Vec<u64>,
    /// Decimal amounts carried by each line.
    pub decimals: Vec<u32>,
    /// Every bid, in arrival order.
    pub bids: Vec<BidSpan>,
    /// Σ users × slots over the games.
    pub events: u64,
    /// Horizon shared by the games.
    pub horizon: u32,
    /// Where each stretch of the trace ends: the `create`s, then each
    /// slot's traffic, then the `expire`s.
    pub stretch_ends: Vec<usize>,
    /// Seconds spent sampling the games.
    pub sample_s: f64,
    /// Seconds spent encoding them as request lines.
    pub encode_s: f64,
}

impl WireTrace {
    /// Number of requests.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// The slot traffic: from the first request after the `create`s to
    /// the first `expire`.
    pub fn slots(&self) -> std::ops::Range<usize> {
        let start = self
            .kinds
            .iter()
            .position(|&k| k != CREATE)
            .unwrap_or(self.len());
        let end = self
            .kinds
            .iter()
            .position(|&k| k == EXPIRE)
            .unwrap_or(self.len());
        start..end
    }

    /// Line `i`, with its newline.
    pub fn line(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.buf[start..self.ends[i]]
    }

    /// Line `i` as text, without its newline.
    pub fn text(&self, i: usize) -> &str {
        let line = self.line(i);
        std::str::from_utf8(&line[..line.len() - 1]).expect("trace lines are UTF-8 JSON")
    }

    fn push(&mut self, kind: u8, op: Op) {
        let decimals = match &op {
            Op::Create { costs, .. } => costs.len(),
            Op::Arrive { values, .. } | Op::Revise { values, .. } => values.len(),
            _ => 0,
        };
        let game = op.game().map_or(0, |g| g.0);
        let id = self.ends.len() as u64 + 1;
        let line = serde_json::to_string(&Request { id, op }).expect("requests encode");
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        self.ends.push(self.buf.len());
        self.kinds.push(kind);
        self.games.push(game);
        self.decimals.push(decimals as u32);
    }
}

/// A user of a sampled game: id, values, substitute set.
type Bidder<'a> = (UserId, &'a SlotSeries, Vec<u32>);

fn decimals(series: &SlotSeries) -> Vec<String> {
    series
        .iter()
        .map(|(_, m)| money_to_decimal(m).expect("wire-safe sources are decimal-exact"))
        .collect()
}

/// Samples `shape.games` games from `seed` and encodes them: every
/// `create`, then slot by slot and game by game the slot's arrivals
/// and the `tick`, then one `expire` per user. The same seed always
/// gives the same bytes.
pub fn build_trace(shape: &TraceShape, seed: u64) -> WireTrace {
    let source = find(shape.source).expect("the trace source is registered");
    assert!(source.wire_safe(), "{} cannot cross the wire", shape.source);
    let started = Instant::now();
    let samples: Vec<Trace> = (0..shape.games)
        .map(|g| source.sample(shape.users, seed ^ g.wrapping_mul(0x9E37_79B9)))
        .collect();
    let sample_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let mut trace = WireTrace::default();
    // (start slot, arrive op) per game, in arrival order.
    let mut arrivals: Vec<Vec<(u32, Op)>> = Vec::with_capacity(samples.len());
    for (g, sample) in samples.iter().enumerate() {
        let game = GameId(g as u64);
        trace.horizon = sample.horizon();
        trace.events += sample.num_users() as u64 * u64::from(sample.horizon());
        let (mechanism, costs, users): (_, Vec<Money>, Vec<Bidder>) = match sample {
            Trace::Additive {
                scenario,
                revisions,
            } => {
                assert!(revisions.is_empty(), "revisions are not part of this trace");
                (
                    Mechanism::AddOn,
                    vec![scenario.cost],
                    scenario
                        .users
                        .iter()
                        .map(|(u, s)| (*u, s, Vec::new()))
                        .collect(),
                )
            }
            Trace::Subst { scenario } => (
                Mechanism::SubstOn,
                scenario.costs.clone(),
                scenario
                    .users
                    .iter()
                    .map(|u| {
                        (
                            u.user,
                            &u.series,
                            u.substitutes.iter().map(|o| o.index()).collect(),
                        )
                    })
                    .collect(),
            ),
        };
        trace.push(
            CREATE,
            Op::Create {
                game,
                mechanism,
                horizon: sample.horizon(),
                costs: costs
                    .iter()
                    .map(|&c| money_to_decimal(c).expect("costs are decimal-exact"))
                    .collect(),
                engine: None,
                seed: None,
            },
        );
        arrivals.push(
            users
                .into_iter()
                .map(|(user, series, substitutes)| {
                    trace.bids.push(BidSpan {
                        game: g as u64,
                        user: user.0,
                        start: series.start().index(),
                        end: series.end().index(),
                    });
                    (
                        series.start().index(),
                        Op::Arrive {
                            game,
                            user: user.0,
                            start: series.start().index(),
                            values: decimals(series),
                            substitutes,
                        },
                    )
                })
                .collect(),
        );
    }
    trace.stretch_ends.push(trace.len());
    for t in 1..=trace.horizon {
        for (g, ops) in arrivals.iter().enumerate() {
            for (_, op) in ops.iter().filter(|(start, _)| *start == t) {
                trace.push(ARRIVE, op.clone());
            }
            trace.push(
                TICK,
                Op::Tick {
                    game: GameId(g as u64),
                    slot: Some(t),
                },
            );
        }
        trace.stretch_ends.push(trace.len());
    }
    for bid in trace.bids.clone() {
        trace.push(
            EXPIRE,
            Op::Expire {
                game: GameId(bid.game),
                user: bid.user,
            },
        );
    }
    trace.stretch_ends.push(trace.len());
    trace.sample_s = sample_s;
    trace.encode_s = started.elapsed().as_secs_f64();
    trace
}

/// When and how many trace requests [`drive`] sends.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Requests per second, or `None` to write as fast as the pipe
    /// takes them.
    pub rate: Option<f64>,
    /// Index of the first trace request to send.
    pub first: usize,
    /// How many trace requests to send from there.
    pub count: usize,
    /// Send a `stats` probe after every this many requests (0: none).
    pub probe_every: usize,
}

/// What one [`drive`] pass saw.
#[derive(Debug, Default)]
pub struct PassOutcome {
    /// Requests written, probes included.
    pub sent: u64,
    /// Replies read.
    pub answered: u64,
    /// Replies that were errors.
    pub errors: u64,
    /// First write to last reply, in seconds.
    pub wall_s: f64,
    /// Request bytes written.
    pub request_bytes: u64,
    /// Reply bytes read.
    pub response_bytes: u64,
    /// Open loop: per answered trace request, its index and the
    /// microseconds from when it was due to when its reply was read.
    pub latency_us: Vec<(usize, f64)>,
    /// Open loop: per request, microseconds it was written after it was
    /// due.
    pub late_us: Vec<f64>,
    /// Per request of the pass, in trace order: seconds from the start
    /// of the pass to its reply (NaN if never answered).
    pub reply_s: Vec<f64>,
    /// Server CPU seconds sampled during the pass: (seconds from the
    /// start of the pass, CPU seconds so far).
    pub cpu_s: Vec<(f64, f64)>,
    /// Reply lines of `expire` requests, by request id.
    pub expires: HashMap<u64, String>,
    /// Largest shard queue depth any `stats` probe reported.
    pub queue_depth_max: u64,
}

impl PassOutcome {
    /// Error replies plus requests never answered.
    pub fn failed(&self) -> u64 {
        self.errors + self.sent.saturating_sub(self.answered)
    }

    /// Splits the pass at the request indices `ends` (relative to the
    /// pass's first request) and returns each stretch's (wall seconds,
    /// server CPU seconds): from the moment every earlier request was
    /// answered to the moment every request of the stretch was.
    pub fn stretch_costs(&self, ends: &[usize]) -> Vec<(f64, f64)> {
        let cpu_at = |t: f64| -> f64 {
            let k = self.cpu_s.partition_point(|&(at, _)| at <= t);
            match (k.checked_sub(1).map(|k| self.cpu_s[k]), self.cpu_s.get(k)) {
                (Some((t0, c0)), Some(&(t1, c1))) => c0 + (c1 - c0) * (t - t0) / (t1 - t0),
                (Some((_, c)), None) | (None, Some(&(_, c))) => c,
                (None, None) => 0.0,
            }
        };
        let mut answered = 0.0f64;
        let mut bounds = vec![0.0];
        let mut next = 0;
        for &end in ends {
            for &t in &self.reply_s[next..end.min(self.reply_s.len())] {
                answered = answered.max(t);
            }
            next = end;
            bounds.push(answered);
        }
        bounds
            .windows(2)
            .map(|w| (w[1] - w[0], cpu_at(w[1]) - cpu_at(w[0])))
            .collect()
    }
}

/// Open-loop passes at `rate`: the `p`-quantile of the latency of the
/// requests that pass `keep` (by trace index), in each `width`-second
/// window of due times of each pass, at the median over all the
/// windows. A stall or slow stretch that recurs in most windows moves
/// the figure; one that hits a few windows (a stall of a shared host)
/// does not. Returns the figure and each window's.
pub fn windowed_latency(
    passes: &[PassOutcome],
    rate: f64,
    width: f64,
    p: f64,
    keep: impl Fn(usize) -> bool,
) -> (f64, Vec<f64>) {
    let windows: Vec<f64> = passes
        .iter()
        .flat_map(|pass| {
            let first = pass.latency_us.iter().map(|l| l.0).min().unwrap_or(0);
            let samples: Vec<(f64, f64)> = pass
                .latency_us
                .iter()
                .filter(|&&(i, _)| keep(i))
                .map(|&(i, latency)| ((i - first) as f64 / rate, latency))
                .collect();
            crate::stats::windowed(&samples, width, p)
        })
        .collect();
    (crate::stats::median(&windows), windows)
}

fn probe_line(id: u64) -> String {
    let mut line = serde_json::to_string(&Request { id, op: Op::Stats }).expect("stats encodes");
    line.push('\n');
    line
}

/// The `id` of a reply line (`{"id":N,...`), without a full parse.
fn reply_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\":")?;
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    rest[..digits].parse().ok()
}

/// Writes `schedule.count` trace requests from `schedule.first` on (plus
/// probes) to `input` and reads as many replies from `output`. Returns
/// when every reply has been read or `output` ends.
pub fn drive<W: Write + Send, R: BufRead + Send>(
    input: W,
    output: R,
    trace: &WireTrace,
    schedule: Schedule,
    start: Instant,
) -> std::io::Result<PassOutcome> {
    let first = schedule.first.min(trace.len());
    let end = first + schedule.count.min(trace.len() - first);
    let count = end - first;
    let probes = count.checked_div(schedule.probe_every).unwrap_or(0);
    let due_us = |i: usize| {
        schedule
            .rate
            .map_or(0.0, |rate| (i - first) as f64 * 1e6 / rate)
    };
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || -> std::io::Result<(u64, Vec<f64>)> {
            let mut input = input;
            let mut bytes = 0u64;
            let mut late = Vec::with_capacity(if schedule.rate.is_some() { count } else { 0 });
            let mut next = first;
            while next < end {
                let now_us = start.elapsed().as_secs_f64() * 1e6;
                if schedule.rate.is_some() && due_us(next) > now_us {
                    input.flush()?;
                    std::thread::sleep(Duration::from_secs_f64((due_us(next) - now_us) / 1e6));
                    continue;
                }
                // Everything due by now goes out in one batch.
                while next < end && due_us(next) <= now_us {
                    let line = trace.line(next);
                    input.write_all(line)?;
                    bytes += line.len() as u64;
                    if schedule.rate.is_some() {
                        late.push(now_us - due_us(next));
                    }
                    next += 1;
                    if schedule.probe_every > 0
                        && (next - first).is_multiple_of(schedule.probe_every)
                    {
                        let probe = probe_line(PROBE_BASE + next as u64);
                        input.write_all(probe.as_bytes())?;
                        bytes += probe.len() as u64;
                    }
                }
            }
            input.flush()?;
            Ok((bytes, late))
        });
        let mut output = output;
        let mut outcome = PassOutcome {
            sent: (count + probes) as u64,
            reply_s: vec![f64::NAN; count],
            ..PassOutcome::default()
        };
        let mut line = String::new();
        let mut last_reply = start;
        while outcome.answered < outcome.sent {
            line.clear();
            if output.read_line(&mut line)? == 0 {
                break;
            }
            last_reply = Instant::now();
            outcome.answered += 1;
            outcome.response_bytes += line.len() as u64;
            let Some(id) = reply_id(&line) else {
                outcome.errors += 1;
                continue;
            };
            let is_error =
                line[line.find(",\"reply\":").map_or(0, |k| k + 9)..].starts_with("{\"error\"");
            if is_error {
                outcome.errors += 1;
            }
            if id >= PROBE_BASE {
                if let Ok(Response {
                    reply: Reply::Stats { shards },
                    ..
                }) = serde_json::from_str::<Response>(line.trim_end())
                {
                    let depth = shards.iter().map(|s| s.queue_depth).max().unwrap_or(0);
                    outcome.queue_depth_max = outcome.queue_depth_max.max(depth);
                }
                continue;
            }
            let Some(index) = (id as usize)
                .checked_sub(1)
                .filter(|&i| (first..end).contains(&i))
            else {
                outcome.errors += 1;
                continue;
            };
            outcome.reply_s[index - first] = (last_reply - start).as_secs_f64();
            if schedule.rate.is_some() && !is_error {
                let latency = (last_reply - start).as_secs_f64() * 1e6 - due_us(index);
                outcome.latency_us.push((index, latency));
            }
            if trace.kinds[index] == EXPIRE {
                outcome.expires.insert(id, line.trim_end().to_string());
            }
        }
        outcome.wall_s = (last_reply - start).as_secs_f64();
        let (bytes, late) = writer.join().expect("writer thread")?;
        outcome.request_bytes = bytes;
        outcome.late_us = late;
        Ok(outcome)
    })
}

/// Replays the trace in-process through a [`osp_server::Registry`] under
/// `Engine::Rebuild`, the paper-literal oracle, and returns its
/// `expire` replies by request id.
pub fn oracle(trace: &WireTrace) -> HashMap<u64, Reply> {
    let mut registry = osp_server::Registry::new(Engine::Rebuild, 2);
    let mut replies = HashMap::new();
    for i in 0..trace.len() {
        let Request { id, op } = serde_json::from_str(trace.text(i)).expect("trace lines decode");
        let response = registry.handle(id, op);
        if trace.kinds[i] == EXPIRE {
            replies.insert(id, response.reply);
        }
    }
    replies
}

/// Checks `expire` replies a pass read against the oracle's: the
/// serviced flag and the exact payment must match.
pub fn check_expires(
    seen: &HashMap<u64, String>,
    expected: &HashMap<u64, Reply>,
) -> Result<(), String> {
    for (id, line) in seen {
        let want = expected
            .get(id)
            .ok_or_else(|| format!("request {id} is not an expire"))?;
        let got: Response =
            serde_json::from_str(line).map_err(|e| format!("bad reply to expire {id}: {e}"))?;
        if &got.reply != want {
            return Err(format!(
                "expire {id}: server said {:?}, oracle {want:?}",
                got.reply
            ));
        }
    }
    Ok(())
}

/// A running in-memory `osp serve --shards 2` child speaking over its
/// pipes.
pub struct Server {
    child: Mutex<Child>,
    pid: String,
    input: Option<BufWriter<ChildStdin>>,
    output: BufReader<ChildStdout>,
}

impl Server {
    /// Starts the server and waits until it answers a first `stats`.
    /// Returns it with the seconds that took.
    pub fn start(binary: &Path) -> Result<(Server, f64), String> {
        let started = Instant::now();
        let mut child = Command::new(binary)
            .args(["serve", "--shards", &SHARDS.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let pid = child.id().to_string();
        let input = BufWriter::with_capacity(1 << 16, child.stdin.take().expect("piped stdin"));
        let output = BufReader::with_capacity(1 << 16, child.stdout.take().expect("piped stdout"));
        let mut server = Server {
            child: Mutex::new(child),
            pid,
            input: Some(input),
            output,
        };
        server.send(&probe_line(0))?;
        let mut line = String::new();
        server
            .output
            .read_line(&mut line)
            .map_err(|e| format!("server did not answer stats: {e}"))?;
        if reply_id(&line) != Some(0) {
            return Err(format!("unexpected first reply `{}`", line.trim_end()));
        }
        Ok((server, started.elapsed().as_secs_f64()))
    }

    /// The server's process id, for `/proc` readings.
    pub fn pid(&self) -> &str {
        &self.pid
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let input = self.input.as_mut().ok_or("server input is closed")?;
        input
            .write_all(line.as_bytes())
            .and_then(|()| input.flush())
            .map_err(|e| format!("cannot write to server: {e}"))
    }

    /// Runs one [`drive`] pass, sampling the server's CPU time every
    /// 10 ms; kills the server if it has not answered everything within
    /// `limit`.
    pub fn pass(
        &mut self,
        trace: &WireTrace,
        schedule: Schedule,
        limit: Duration,
    ) -> Result<PassOutcome, String> {
        let Server {
            child,
            pid,
            input,
            output,
        } = self;
        let input = input.as_mut().ok_or("server input is closed")?;
        let start = Instant::now();
        let mut cpu_s = vec![(0.0, procfs::threads_cpu_seconds(pid)?)];
        let mut outcome = std::thread::scope(|scope| {
            let (done_tx, done_rx) = mpsc::channel();
            let pass = scope.spawn(move || {
                let outcome = drive(input, output, trace, schedule, start);
                let _ = done_tx.send(());
                outcome
            });
            loop {
                match done_rx.recv_timeout(Duration::from_millis(10)) {
                    Err(mpsc::RecvTimeoutError::Timeout) if start.elapsed() < limit => {
                        if let Ok(cpu) = procfs::threads_cpu_seconds(pid) {
                            cpu_s.push((start.elapsed().as_secs_f64(), cpu));
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        let _ = child.get_mut().expect("child lock").kill();
                        break;
                    }
                    _ => break,
                }
            }
            pass.join()
                .expect("pass thread")
                .map_err(|e| format!("server pipe failed: {e}"))
        })?;
        cpu_s.push((
            start.elapsed().as_secs_f64(),
            procfs::threads_cpu_seconds(pid)?,
        ));
        outcome.cpu_s = cpu_s;
        Ok(outcome)
    }

    /// Sends `shutdown`, reads the final `bye` and waits for the exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.send(&format!(
            "{}\n",
            serde_json::to_string(&Request {
                id: 0,
                op: Op::Shutdown
            })
            .expect("shutdown encodes")
        ))?;
        drop(self.input.take());
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut self.output, &mut rest)
            .map_err(|e| format!("reading the server's last replies: {e}"))?;
        let status = self
            .child
            .lock()
            .expect("child lock")
            .wait()
            .map_err(|e| format!("waiting for the server: {e}"))?;
        if !rest.contains("\"bye\"") || !status.success() {
            return Err(format!("server shut down badly ({status})"));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        drop(self.input.take());
        let child = self.child.get_mut().expect("child lock");
        if matches!(child.try_wait(), Ok(None)) {
            let _ = child.kill();
        }
        let _ = child.wait();
    }
}

/// A fresh, empty directory under `root`, for one WAL.
pub fn fresh_dir(root: &Path, tag: &str) -> Result<PathBuf, String> {
    let dir = root.join(format!("{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: TraceShape = TraceShape {
        source: "uniform_z20",
        games: 20,
        users: 4,
    };

    #[test]
    fn traces_are_deterministic_per_seed() {
        let a = build_trace(&SHAPE, 7);
        let b = build_trace(&SHAPE, 7);
        let c = build_trace(&SHAPE, 8);
        assert_eq!(a.buf, b.buf);
        assert_ne!(a.buf, c.buf);
        // creates + arrivals + ticks + expires.
        assert_eq!(a.len(), 20 + 80 + 20 * 20 + 80);
        assert_eq!(a.stretch_ends.len(), 22);
        assert_eq!((a.stretch_ends[0], a.stretch_ends[21]), (20, a.len()));
        assert_eq!(a.slots(), 20..a.len() - 80);
    }

    /// A stand-in server over in-process pipes: answers each request
    /// line with `reply(id)`, after sleeping `stall(id)`.
    fn stub<S, F>(trace: &WireTrace, schedule: Schedule, stall: S, reply: F) -> PassOutcome
    where
        S: Fn(u64) -> Duration + Send,
        F: Fn(u64) -> Option<String> + Send,
    {
        let (requests_rx, requests_tx) = std::io::pipe().unwrap();
        let (replies_rx, replies_tx) = std::io::pipe().unwrap();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut replies_tx = replies_tx;
                for line in BufReader::new(requests_rx).lines() {
                    let id = reply_id(&line.unwrap()).unwrap();
                    std::thread::sleep(stall(id));
                    if let Some(text) = reply(id) {
                        writeln!(replies_tx, "{text}").unwrap();
                    }
                }
            });
            drive(
                requests_tx,
                BufReader::new(replies_rx),
                trace,
                schedule,
                Instant::now(),
            )
            .unwrap()
        })
    }

    #[test]
    fn stretches_split_wall_and_cpu_by_completion() {
        let outcome = PassOutcome {
            // Replies of four requests; the third overtakes the second.
            reply_s: vec![1.0, 3.0, 2.0, 4.0],
            cpu_s: vec![(0.0, 0.0), (4.0, 8.0)],
            ..PassOutcome::default()
        };
        assert_eq!(outcome.stretch_costs(&[2, 4]), vec![(3.0, 6.0), (1.0, 2.0)]);
        assert_eq!(
            outcome.stretch_costs(&[1, 2, 3, 4]),
            vec![(1.0, 2.0), (2.0, 4.0), (0.0, 0.0), (1.0, 2.0)]
        );
    }

    fn ok(id: u64) -> Option<String> {
        Some(format!(
            r#"{{"id":{id},"reply":{{"submitted":{{"game":0,"user":1}}}}}}"#
        ))
    }

    const OPEN_LOOP: Schedule = Schedule {
        rate: Some(2_000.0),
        first: 0,
        count: 400,
        probe_every: 0,
    };

    #[test]
    fn open_loop_latency_is_timed_from_the_due_time() {
        let trace = build_trace(&SHAPE, 1);
        // One 100 ms stall at request 100 holds up the ~200 requests due
        // behind it (at 2 000/s, 0.5 ms apart): over one window, well
        // over 1% wait ≥ 50 ms, though the server was idle between them.
        let outcome = stub(
            &trace,
            OPEN_LOOP,
            |id| Duration::from_millis(if id == 100 { 100 } else { 0 }),
            ok,
        );
        assert_eq!(outcome.failed(), 0);
        assert_eq!(outcome.latency_us.len(), 400);
        let (p99, windows) =
            windowed_latency(std::slice::from_ref(&outcome), 2_000.0, 1.0, 0.99, |_| true);
        assert_eq!(windows.len(), 1);
        assert!(p99 >= 50_000.0, "p99 {p99} µs hides the stall");
        let (p20, _) =
            windowed_latency(std::slice::from_ref(&outcome), 2_000.0, 1.0, 0.2, |_| true);
        assert!(p20 < 50_000.0, "requests before the stall were fast");
    }

    #[test]
    fn periodic_server_stalls_move_the_windowed_p99() {
        let trace = build_trace(&SHAPE, 1);
        // A 5 ms stall every 20 requests (every 10 ms of schedule), as a
        // shard that pauses periodically: each 20 ms window holds two,
        // so the median window's p99 carries them.
        let outcome = stub(
            &trace,
            OPEN_LOOP,
            |id| Duration::from_millis(if id % 20 == 0 { 5 } else { 0 }),
            ok,
        );
        assert_eq!(outcome.failed(), 0);
        let (p99, windows) =
            windowed_latency(std::slice::from_ref(&outcome), 2_000.0, 0.02, 0.99, |_| {
                true
            });
        assert_eq!(windows.len(), 10);
        assert!(p99 >= 4_000.0, "p99 {p99} µs hides the stalls: {windows:?}");
    }

    #[test]
    fn error_and_missing_replies_count_as_failed() {
        let trace = build_trace(&SHAPE, 1);
        let schedule = Schedule {
            rate: None,
            first: 0,
            count: 50,
            probe_every: 0,
        };
        let outcome = stub(
            &trace,
            schedule,
            |_| Duration::ZERO,
            |id| match id {
                // Refused: the server answers with an error.
                7 => Some(
                    r#"{"id":7,"reply":{"error":{"code":"shard_recovering","message":"retry"}}}"#
                        .to_string(),
                ),
                // Lost: no reply at all; the stub's output then ends.
                50 => None,
                _ => ok(id),
            },
        );
        assert_eq!(outcome.sent, 50);
        assert_eq!(outcome.answered, 49);
        assert_eq!(outcome.errors, 1);
        assert_eq!(outcome.failed(), 2);
    }
}
