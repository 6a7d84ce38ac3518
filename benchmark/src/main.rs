//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//! perfbench --workload <engine workload> --record-digests <count>
//! ```
//!
//! Wire workloads build `osp` from this tree and drive `osp serve
//! --shards 2` as a child process over its stdin/stdout pipe; engine
//! workloads play one large game in-process. An untraced run prints
//! the end-to-end metrics, a traced run (`--trace 1`) the per-layer
//! ones. Every run checks the program's outputs and ends with a
//! one-line JSON result; the exit code is non-zero when a check fails,
//! a request fails, or the open-loop generator fell behind.

mod binary;
mod engine;
mod inproc;
mod procfs;
mod report;
mod span;
mod stats;
mod wire;

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

use osp_core::prelude::Engine;
use osp_server::protocol::Reply;
use osp_server::FinalOutcome;

use crate::binary::OspBinary;
use crate::report::Report;
use crate::span::Tracer;
use crate::stats::{median, percentile, ratio};
use crate::wire::{Schedule, Server, TraceShape, WireTrace, KINDS};

/// A workload driven over the wire.
struct WireWorkload {
    shape: TraceShape,
    /// Open-loop rate, in requests per second.
    rate: f64,
}

/// A workload played in-process.
struct EngineWorkload {
    source: &'static str,
    users: u32,
}

enum Workload {
    Wire(WireWorkload),
    Engine(EngineWorkload),
}

const WORKLOADS: [(&str, Workload); 3] = [
    (
        "serve_uniform",
        Workload::Wire(WireWorkload {
            shape: TraceShape {
                source: "uniform_z20",
                games: 10_000,
                users: 4,
            },
            rate: 20_000.0,
        }),
    ),
    (
        "engine_longlived",
        Workload::Engine(EngineWorkload {
            source: "longlived_z120",
            users: 10_000,
        }),
    ),
    (
        "engine_subst",
        Workload::Engine(EngineWorkload {
            source: "subst12_z20",
            users: 100_000,
        }),
    ),
];

/// Set-ups per engine run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest saturation passes of a wire run.
const MIN_PASSES: usize = 4;
/// Share of the measuring time the open loop gets; the closed-pipeline
/// passes get the rest.
const OPEN_SHARE: f64 = 0.4;
/// Open-loop segments of a wire run, each on a server of its own.
const OPEN_SEGMENTS: usize = 4;
/// Width of the open-loop windows whose latency percentiles are
/// combined: 4 000 requests at 20 000 req/s.
const LATENCY_WINDOW_S: f64 = 0.2;
/// Longest a single server pass may take before the server is killed.
const PASS_LIMIT: Duration = Duration::from_secs(60);
/// The open-loop generator counts as fallen behind when a request went
/// out this much later than due.
const LATE_LIMIT_MS: f64 = 1_000.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record_digests: Option<u64>,
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]\n       perfbench --workload <engine workload> --record-digests <count>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        record_digests: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--record-digests" => {
                args.record_digests = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("bad --record-digests: {e}"))?,
                )
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    if args.workload.is_empty() {
        return Err(USAGE.to_string());
    }
    Ok(args)
}

fn main() {
    let code = match parse_args().and_then(|args| run(&args)) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// Runs the requested workload; `Ok(false)` when it was incorrect.
fn run(args: &Args) -> Result<bool, String> {
    let root = binary::repo_root();
    let name = args.workload.as_str();
    let workload = &WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?
        .1;
    if let Some(count) = args.record_digests {
        let Workload::Engine(w) = workload else {
            return Err(format!("{name} has no recorded digests"));
        };
        let digests = (0..count)
            .map(|seed| {
                let trace = engine::build(w.source, w.users, seed);
                let play =
                    engine::play(&trace, Engine::default(), None).map_err(|e| e.to_string())?;
                Ok(format!("    \"{seed}\": \"{}\"", play.outcome.digest()))
            })
            .collect::<Result<Vec<_>, String>>()?;
        println!("\"{name}\": {{\n{}\n}}", digests.join(",\n"));
        return Ok(true);
    }
    let started = Instant::now();
    let jiffies = procfs::host_jiffies()?;
    let mut report = Report::default();
    report.note(format!(
        "perfbench workload={name} seed={} seconds={} trace={} parallelism={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    ));
    let outcome = match workload {
        Workload::Wire(w) => {
            let bin = binary::build(&root)?;
            report.note(format!(
                "osp binary {} commit {} sources {}",
                bin.path.display(),
                bin.commit,
                bin.source_digest
            ));
            if args.trace {
                let tmp = root.join(".bench_tmp");
                let result = wire_traced(w, args, &bin, &tmp, &mut report);
                let _ = std::fs::remove_dir_all(&tmp);
                result
            } else {
                wire_untraced(w, args, &bin, &mut report)
            }
        }
        Workload::Engine(w) => {
            let digests = load_digests(&root)?;
            let recorded = digests
                .get(name)
                .and_then(|d| d.get(&args.seed.to_string()));
            if args.trace {
                engine_traced(w, args, recorded, &mut report)
            } else {
                engine_untraced(w, args, recorded, &mut report)
            }
        }
    };
    if let Err(e) = outcome {
        report.problem(e);
    }
    let (total, stolen) = procfs::host_jiffies()?;
    report.note(format!(
        "run took {:.1} s; the hypervisor stole {:.1}% of the CPU time meanwhile",
        started.elapsed().as_secs_f64(),
        100.0 * ratio((stolen - jiffies.1) as f64, (total - jiffies.0) as f64)
    ));
    report.print(args.trace);
    Ok(report.correct())
}

type Digests = BTreeMap<String, BTreeMap<String, String>>;

/// Outcome digests recorded per engine workload and seed, from
/// `{"<workload>": {"<seed>": "<digest>", ...}, ...}`.
fn load_digests(root: &Path) -> Result<Digests, String> {
    let path = root.join("benchmark").join("digests.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let bad = || format!("{} is not an object of objects of strings", path.display());
    let serde::Value::Object(doc) =
        serde_json::from_str(&text).map_err(|e| format!("bad {}: {e}", path.display()))?
    else {
        return Err(bad());
    };
    doc.into_iter()
        .map(|(workload, seeds)| {
            let serde::Value::Object(seeds) = seeds else {
                return Err(bad());
            };
            let seeds = seeds
                .into_iter()
                .map(|(seed, digest)| Ok((seed, digest.as_str().ok_or_else(bad)?.to_string())))
                .collect::<Result<_, String>>()?;
            Ok((workload, seeds))
        })
        .collect()
}

/// One set-up: samples and encodes the trace, then starts a server and
/// waits for its first `stats` reply. Records the seconds in `setups`;
/// a trace that differs from `reference` is a failed check.
fn set_up(
    w: &WireWorkload,
    seed: u64,
    bin: &OspBinary,
    reference: Option<&WireTrace>,
    setups: &mut Vec<f64>,
    report: &mut Report,
) -> Result<(WireTrace, Server), String> {
    let started = Instant::now();
    let trace = wire::build_trace(&w.shape, seed);
    let build_s = started.elapsed().as_secs_f64();
    let (server, spawn_s) = Server::start(&bin.path)?;
    setups.push(build_s + spawn_s);
    if reference.is_some_and(|r| r.buf != trace.buf) {
        report.problem("one seed built two different traces");
    }
    Ok((trace, server))
}

/// One closed-pipeline pass over the whole trace on `server`, checked
/// against the oracle.
struct Saturation {
    outcome: wire::PassOutcome,
    peak_rss_mb: f64,
}

fn saturate(
    mut server: Server,
    trace: &WireTrace,
    oracle: &HashMap<u64, Reply>,
    label: &str,
    report: &mut Report,
) -> Result<Saturation, String> {
    let schedule = Schedule {
        rate: None,
        first: 0,
        count: trace.len(),
        probe_every: 0,
    };
    let outcome = server.pass(trace, schedule, PASS_LIMIT)?;
    let peak_rss_mb = procfs::peak_rss_mb(server.pid())?;
    server.shutdown()?;
    report.phase(label, outcome.sent, outcome.failed());
    let cpu = |k: usize| outcome.cpu_s.get(k).map_or(0.0, |c| c.1);
    report.note(format!(
        "{label}: {:.3} s wall, {:.3} s server CPU",
        outcome.wall_s,
        cpu(outcome.cpu_s.len() - 1) - cpu(0)
    ));
    if outcome.expires.len() != oracle.len() {
        report.problem(format!(
            "{label}: {} of {} expires answered",
            outcome.expires.len(),
            oracle.len()
        ));
    }
    if let Err(e) = wire::check_expires(&outcome.expires, oracle) {
        report.problem(format!("{label}: {e}"));
    }
    Ok(Saturation {
        peak_rss_mb,
        outcome,
    })
}

/// A fixed-rate pass over the (at most) `seconds × rate` requests that
/// end the slot traffic, on a fresh `server`, after the requests before
/// them were sent unmeasured as fast as the server takes them. The
/// window so holds games in full swing: it starts after the `create`s
/// and ends before the exits.
fn open_loop(
    w: &WireWorkload,
    mut server: Server,
    trace: &WireTrace,
    seconds: f64,
    probe_every: usize,
    report: &mut Report,
) -> Result<wire::PassOutcome, String> {
    let slots = trace.slots();
    let end = slots.end;
    let count = ((w.rate * seconds) as usize).min(slots.len());
    let warm = Schedule {
        rate: None,
        first: 0,
        count: end - count,
        probe_every: 0,
    };
    let warm_up = server.pass(trace, warm, PASS_LIMIT)?;
    report.phase("open-loop warm-up", warm_up.sent, warm_up.failed());
    let schedule = Schedule {
        rate: Some(w.rate),
        first: end - count,
        count,
        probe_every,
    };
    let outcome = server.pass(trace, schedule, PASS_LIMIT)?;
    server.shutdown()?;
    report.phase(
        format!("open loop at {} req/s", w.rate),
        outcome.sent,
        outcome.failed(),
    );
    let late_max_ms = outcome.late_us.iter().copied().fold(0.0, f64::max) / 1e3;
    if late_max_ms > LATE_LIMIT_MS {
        report.problem(format!(
            "the open-loop generator fell behind: a request went out {late_max_ms:.0} ms late"
        ));
    }
    Ok(outcome)
}

fn wire_untraced(
    w: &WireWorkload,
    args: &Args,
    bin: &OspBinary,
    report: &mut Report,
) -> Result<(), String> {
    // Every pass, and every open-loop segment, starts with a set-up of
    // its own, so the set-ups spread over the run.
    let mut setups = Vec::new();
    let (trace, first_server) = set_up(w, args.seed, bin, None, &mut setups, report)?;
    let oracle = wire::oracle(&trace);
    let n = trace.len() as f64;
    // Closed-pipeline passes alternate with open-loop segments, so both
    // sample the shared host over the whole run: at least `MIN_PASSES`
    // passes and `OPEN_SEGMENTS` segments, more passes while the
    // measuring time lasts.
    let segment_s = args.seconds * OPEN_SHARE / OPEN_SEGMENTS as f64;
    let started = Instant::now();
    let mut passes = Vec::new();
    let mut opens = Vec::new();
    let mut server = Some(first_server);
    while passes.len() < MIN_PASSES
        || opens.len() < OPEN_SEGMENTS
        || started.elapsed().as_secs_f64() < args.seconds
    {
        let server = match server.take() {
            Some(server) => server,
            None => set_up(w, args.seed, bin, Some(&trace), &mut setups, report)?.1,
        };
        passes.push(saturate(
            server,
            &trace,
            &oracle,
            &format!("saturation pass {}", passes.len()),
            report,
        )?);
        if opens.len() < OPEN_SEGMENTS {
            let (_, server) = set_up(w, args.seed, bin, Some(&trace), &mut setups, report)?;
            opens.push(open_loop(w, server, &trace, segment_s, 0, report)?);
        }
    }

    // Saturation figures come per stretch of the trace (the `create`s,
    // each slot's traffic, the `expire`s), each at its best over the
    // passes, since a slow stretch of a shared host only ever makes a
    // stretch of a pass slower.
    let costs: Vec<Vec<(f64, f64)>> = passes
        .iter()
        .map(|p| p.outcome.stretch_costs(&trace.stretch_ends))
        .collect();
    let best: Vec<(f64, f64)> = (0..trace.stretch_ends.len())
        .map(|k| {
            let min = |pick: fn(&(f64, f64)) -> f64| {
                costs
                    .iter()
                    .map(|c| pick(&c[k]))
                    .fold(f64::INFINITY, f64::min)
            };
            (min(|c| c.0), min(|c| c.1))
        })
        .collect();
    let count = Some(passes.len());
    report.set(
        "events_per_s",
        trace.events as f64 / best.iter().map(|b| b.0).sum::<f64>(),
        count,
    );
    report.set(
        "cpu_us_per_req",
        best.iter().map(|b| b.1).sum::<f64>() * 1e6 / n,
        count,
    );
    report.set(
        "peak_rss_mb",
        passes
            .iter()
            .map(|p| p.peak_rss_mb)
            .fold(f64::INFINITY, f64::min),
        count,
    );
    // Latency: each window's percentile (by due time), at the median
    // over the windows of every segment. A `tick` prices one slot of
    // one game, so its latency is the slot time a client sees.
    let ticks = |i: usize| trace.kinds[i] == wire::TICK;
    for (name, p, keep) in [
        ("latency_p50_us", 0.5, None),
        ("latency_p99_us", 0.99, None),
        ("slot_p50_us", 0.5, Some(ticks)),
        ("slot_p99_us", 0.99, Some(ticks)),
    ] {
        let keep = |i: usize| keep.is_none_or(|k| k(i));
        let (figure, windows) = wire::windowed_latency(&opens, w.rate, LATENCY_WINDOW_S, p, keep);
        let samples = opens
            .iter()
            .flat_map(|o| &o.latency_us)
            .filter(|l| keep(l.0))
            .count();
        report.set(name, figure, Some(samples));
        let windows: Vec<String> = windows.iter().map(|w| format!("{w:.0}")).collect();
        report.note(format!(
            "{name}: median of {LATENCY_WINDOW_S} s windows [{}]",
            windows.join(" ")
        ));
    }
    report.set("setup_s", median(&setups), Some(setups.len()));
    report.note(format!("set-ups: {setups:.3?} s"));
    report.set(
        "failed_share",
        ratio(report.failed() as f64, report.attempted() as f64),
        None,
    );
    let mut late: Vec<f64> = opens.iter().flat_map(|o| o.late_us.clone()).collect();
    report.set(
        "loadgen.late_p99_ms",
        percentile(&mut late, 0.99) / 1e3,
        Some(late.len()),
    );
    report.set(
        "loadgen.late_max_ms",
        percentile(&mut late, 1.0) / 1e3,
        Some(late.len()),
    );
    Ok(())
}

fn wire_traced(
    w: &WireWorkload,
    args: &Args,
    bin: &OspBinary,
    tmp: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let mut setups = Vec::new();
    let (trace, open_server) = set_up(w, args.seed, bin, None, &mut setups, report)?;
    let oracle = wire::oracle(&trace);
    let n = trace.len() as f64;
    report.set("workload.sample_s", trace.sample_s, None);
    report.set("workload.encode_s", trace.encode_s, None);

    // The wire: a short probed open loop, then one saturation pass.
    let open = open_loop(w, open_server, &trace, args.seconds * 0.3, 1_000, report)?;
    let mut late = open.late_us.clone();
    report.set(
        "loadgen.late_p99_ms",
        percentile(&mut late, 0.99) / 1e3,
        Some(late.len()),
    );
    report.set(
        "loadgen.late_max_ms",
        percentile(&mut late, 1.0) / 1e3,
        Some(late.len()),
    );
    report.set("shard.queue_depth_max", open.queue_depth_max as f64, None);
    let (_, server) = set_up(w, args.seed, bin, Some(&trace), &mut setups, report)?;
    let sat = saturate(server, &trace, &oracle, "saturation pass", report)?;
    report.set(
        "serve.req_bytes_per_req",
        sat.outcome.request_bytes as f64 / n,
        None,
    );
    report.set(
        "serve.resp_bytes_per_req",
        sat.outcome.response_bytes as f64 / n,
        None,
    );

    // In-process: the same lines through the server library.
    let plain = inproc::inline_pass(&trace, None, None)?;
    let mut tracer = Tracer::default();
    let inline = inproc::inline_pass(&trace, None, Some(&mut tracer))?;
    // Round trips on every eighth game: full game lifecycles, same mix.
    let sampled = |i: usize| trace.games[i] % 8 == 0;
    let mut pool_tracer = Tracer::default();
    let pool_errors = inproc::pool_round_trips(&trace, sampled, &mut pool_tracer)?;
    let pipelined = inproc::pool_pipelined(&trace)?;
    let inproc_errors = plain.errors + inline.errors + pool_errors + pipelined.errors;
    let round_trips = (0..trace.len()).filter(|&i| sampled(i)).count();
    report.phase(
        "in-process replays",
        (3 * trace.len() + round_trips) as u64,
        inproc_errors,
    );

    let all = |_: &span::Span| true;
    let of_kind = |kind: u8| move |s: &span::Span| s.kind == kind;
    report.set(
        "trace.overhead_share",
        inline.wall_s / plain.wall_s - 1.0,
        None,
    );
    report.set(
        "trace.spans",
        (tracer.spans().len() + pool_tracer.spans().len()) as f64,
        None,
    );
    report.set(
        "protocol.decode_us_per_req",
        tracer.mean_us("protocol.decode", all),
        None,
    );
    report.set(
        "protocol.encode_us_per_req",
        tracer.mean_us("protocol.encode", all),
        None,
    );
    report.set(
        "protocol.decode_us.arrive",
        tracer.mean_us("protocol.decode", of_kind(wire::ARRIVE)),
        None,
    );
    report.set(
        "protocol.encode_us.tick",
        tracer.mean_us("protocol.encode", of_kind(wire::TICK)),
        None,
    );
    for (kind, name) in KINDS.iter().enumerate() {
        let metric = match *name {
            "create" => "game.handle_us.create",
            "arrive" => "game.handle_us.arrive",
            "tick" => "game.handle_us.tick",
            _ => "game.handle_us.expire",
        };
        report.set(
            metric,
            tracer.mean_us("game.handle", of_kind(kind as u8)),
            None,
        );
    }
    let decimals: u64 = trace.decimals.iter().map(|&d| u64::from(d)).sum();
    report.set("game.decimals_per_req", decimals as f64 / n, None);

    report.set(
        "shard.submit_us_per_req",
        pool_tracer.mean_us("shard.submit", all),
        None,
    );
    let sampled_handle = tracer.mean_us("game.handle", |s| sampled(s.request as usize));
    let round_trip =
        pool_tracer.mean_us("shard.submit", all) + pool_tracer.mean_us("shard.recv", all);
    report.set(
        "shard.handoff_us_per_req",
        round_trip - sampled_handle,
        None,
    );
    report.set(
        "shard.queue_full_retries_per_req",
        pipelined.retries as f64 / n,
        None,
    );
    report.set(
        "serve.self_us_per_req",
        (sat.outcome.wall_s - pipelined.wall_s) * 1e6 / n,
        None,
    );

    // The WAL layer: one more traced inline pass over the same lines,
    // with a WAL checkpointing every `CHECKPOINT_EVERY` logged requests.
    {
        let mut wal_tracer = Tracer::default();
        let dir = wire::fresh_dir(tmp, "inline-wal")?;
        let run = inproc::inline_pass(&trace, Some(&dir), Some(&mut wal_tracer))?;
        report.phase(
            "in-process replay with a WAL",
            trace.len() as u64,
            run.errors,
        );
        let wal = &run.wal;
        let mut ckpt_ms = wal.checkpoint_ms.clone();
        let ckpt_bytes: Vec<f64> = wal.checkpoint_bytes.iter().map(|&b| b as f64).collect();
        report.set(
            "wal.append_us_per_record",
            wal_tracer.mean_us("wal.append", all),
            None,
        );
        report.set(
            "wal.record_bytes",
            ratio(wal.record_bytes as f64, wal.logged as f64),
            None,
        );
        report.set("wal.logged_share", wal.logged as f64 / n, None);
        report.set("wal.checkpoints", wal.checkpoint_ms.len() as f64, None);
        report.set(
            "wal.checkpoint_ms_p50",
            percentile(&mut ckpt_ms, 0.5),
            Some(ckpt_ms.len()),
        );
        report.set(
            "wal.checkpoint_ms_max",
            percentile(&mut ckpt_ms, 1.0),
            Some(ckpt_ms.len()),
        );
        report.set(
            "wal.checkpoint_bytes",
            median(&ckpt_bytes),
            Some(ckpt_bytes.len()),
        );
    }

    // The mechanism layer, as the shards call it.
    let mut tick_us = tracer.durations_us("game.handle", of_kind(wire::TICK));
    let first_serviced = |game: u64, user: u32| -> Option<u32> {
        let user = osp_core::prelude::UserId(user);
        let first = match inline.outcomes.get(&game)? {
            FinalOutcome::Add(o) => o.first_serviced.get(&user),
            FinalOutcome::Subst(o) => o.first_serviced.get(&user),
        };
        first.map(|slot| slot.index())
    };
    let share = engine::serviced_share(
        trace
            .bids
            .iter()
            .map(|b| (b.start, b.end, first_serviced(b.game, b.user))),
    );
    let [submit, p50, p99, serviced] = mechanism_metrics(w.shape.source != "subst12_z20");
    report.set(
        submit,
        tracer.mean_us("game.handle", of_kind(wire::ARRIVE)),
        None,
    );
    report.set(p50, percentile(&mut tick_us, 0.5), Some(tick_us.len()));
    report.set(p99, percentile(&mut tick_us, 0.99), Some(tick_us.len()));
    report.set(serviced, share, None);
    report.set(
        "failed_share",
        ratio(report.failed() as f64, report.attempted() as f64),
        None,
    );
    print_spans(
        report,
        &[("inline pass", &tracer), ("pool round trips", &pool_tracer)],
    );
    Ok(())
}

/// The `submit_us_per_bid`, `slot_us_p50`, `slot_us_p99` and
/// `serviced_share` metrics of the AddOn (`add`) or SubstOn layer.
fn mechanism_metrics(add: bool) -> [&'static str; 4] {
    if add {
        [
            "addon.submit_us_per_bid",
            "addon.slot_us_p50",
            "addon.slot_us_p99",
            "addon.serviced_share",
        ]
    } else {
        [
            "subston.submit_us_per_bid",
            "subston.slot_us_p50",
            "subston.slot_us_p99",
            "subston.serviced_share",
        ]
    }
}

/// Adds each tracer's span table (count, total and self time per span
/// name) to the report.
fn print_spans(report: &mut Report, tracers: &[(&str, &Tracer)]) {
    for (label, tracer) in tracers {
        report.note(format!("spans of the {label}:"));
        report.note("span                      count     total_ms      self_ms");
        for (name, (count, total, own)) in tracer.table() {
            report.note(format!(
                "{name:<22} {count:>9} {:>12.1} {:>12.1}",
                total as f64 / 1e6,
                own as f64 / 1e6
            ));
        }
    }
}

/// Builds the engine trace `setups` times; returns it with each build's
/// seconds.
fn engine_setups(
    w: &EngineWorkload,
    seed: u64,
    setups: usize,
    report: &mut Report,
) -> (engine::EngineTrace, Vec<f64>) {
    let mut seconds = Vec::new();
    let mut trace: Option<engine::EngineTrace> = None;
    for _ in 0..setups {
        let built = engine::build(w.source, w.users, seed);
        seconds.push(built.sample_s + built.encode_s);
        match &trace {
            None => trace = Some(built),
            Some(first) if first.slots != built.slots => {
                report.problem("one seed built two different games")
            }
            Some(_) => {}
        }
    }
    (trace.expect("at least one set-up"), seconds)
}

/// Mechanism calls of one play: one submit per bid, one advance per slot.
fn calls(trace: &engine::EngineTrace) -> u64 {
    trace.bids() + u64::from(trace.horizon)
}

/// Plays the game once under the default engine.
fn play(trace: &engine::EngineTrace, tracer: Option<&mut Tracer>) -> Result<engine::Play, String> {
    engine::play(trace, Engine::default(), tracer).map_err(|e| format!("the play failed: {e}"))
}

/// The output checks of an engine run, made after its measured plays,
/// whose outcomes all had `digest`: one more default-engine play must
/// have it too, recover every implemented optimization's cost, equal a
/// play under `Engine::Rebuild`, the paper-literal oracle, and match
/// the digest `recorded` for the seed, when there is one. Records the
/// check plays as a phase.
fn check_engine(
    trace: &engine::EngineTrace,
    digest: &str,
    recorded: Option<&String>,
    report: &mut Report,
) -> Result<(), String> {
    let reference = play(trace, None)?.outcome;
    if reference.digest() != digest {
        report.problem("two plays of one game disagree");
    }
    report.note(format!("outcome digest {digest}"));
    if let Err(e) = reference.check_cost_recovery() {
        report.problem(format!("cost recovery: {e}"));
    }
    match recorded {
        Some(want) if want != digest => {
            report.problem(format!("outcome digest {digest}, recorded {want}"))
        }
        Some(_) => report.note("outcome digest matches the recorded one"),
        None => report.note("no digest recorded for this seed"),
    }
    let rebuild = engine::play(trace, Engine::Rebuild, None)
        .map_err(|e| format!("the Engine::Rebuild play failed: {e}"))?;
    if rebuild.outcome != reference {
        report.problem("the default engine and Engine::Rebuild disagree");
    }
    report.phase("check plays", 2 * calls(trace), 0);
    Ok(())
}

fn engine_untraced(
    w: &EngineWorkload,
    args: &Args,
    recorded: Option<&String>,
    report: &mut Report,
) -> Result<(), String> {
    let (trace, setups) = engine_setups(w, args.seed, SETUPS, report);
    // From here on the peak resident set is the game's and its plays'.
    procfs::reset_peak_rss()?;
    // Measured plays for the run's seconds (at least three), each doing
    // the same work, so a slow stretch of a shared host only ever makes
    // a play slower. Hence figures from the fast tenth: throughput is
    // the 90th percentile of the plays' rates, CPU the 10th percentile
    // of their CPU per slot, and slot times come from each slot's 10th
    // percentile over the plays.
    let (mut rates, mut cpu_per_slot) = (Vec::new(), Vec::new());
    let mut by_slot: Vec<Vec<f64>> = vec![Vec::new(); trace.horizon as usize];
    let mut digest: Option<String> = None;
    let started = Instant::now();
    while rates.len() < 3 || started.elapsed().as_secs_f64() < args.seconds {
        let cpu0 = procfs::own_cpu_seconds();
        let p = play(&trace, None)?;
        let cpu_s = procfs::own_cpu_seconds() - cpu0;
        let d = p.outcome.digest();
        if *digest.get_or_insert_with(|| d.clone()) != d {
            report.problem("two plays of one game disagree");
        }
        rates.push(trace.events as f64 / p.wall_s);
        cpu_per_slot.push(cpu_s * 1e6 / p.slot_us.len() as f64);
        for (samples, us) in by_slot.iter_mut().zip(p.slot_us) {
            samples.push(us);
        }
    }
    let peak_rss_mb = procfs::peak_rss_mb("self")?;
    let plays = rates.len();
    report.phase(
        format!("{plays} measured plays"),
        calls(&trace) * plays as u64,
        0,
    );
    check_engine(
        &trace,
        &digest.expect("at least one play"),
        recorded,
        report,
    )?;
    let mut profile: Vec<f64> = by_slot.iter_mut().map(|s| percentile(s, 0.1)).collect();
    let slots = Some(plays * profile.len());
    report.set("events_per_s", percentile(&mut rates, 0.9), Some(plays));
    report.set(
        "cpu_us_per_req",
        percentile(&mut cpu_per_slot, 0.1),
        Some(plays),
    );
    for (name, p) in [
        ("slot_p50_us", 0.5),
        ("slot_p99_us", 0.99),
        ("latency_p50_us", 0.5),
        ("latency_p99_us", 0.99),
    ] {
        report.set(name, percentile(&mut profile, p), slots);
    }
    report.set("peak_rss_mb", peak_rss_mb, Some(plays));
    report.set("setup_s", median(&setups), Some(setups.len()));
    report.note(format!("set-ups: {setups:.3?} s"));
    report.set("failed_share", 0.0, None);
    Ok(())
}

fn engine_traced(
    w: &EngineWorkload,
    args: &Args,
    recorded: Option<&String>,
    report: &mut Report,
) -> Result<(), String> {
    let (trace, _) = engine_setups(w, args.seed, 1, report);
    report.set("workload.sample_s", trace.sample_s, None);
    report.set("workload.encode_s", trace.encode_s, None);
    let plays = 3;
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut tracer = Tracer::default();
    let mut digests = Vec::new();
    let mut outcome = None;
    for _ in 0..plays {
        let p = play(&trace, None)?;
        plain.push(p.wall_s);
        digests.push(p.outcome.digest());
        let p = play(&trace, Some(&mut tracer))?;
        traced.push(p.wall_s);
        digests.push(p.outcome.digest());
        outcome = Some(p.outcome);
    }
    let outcome = outcome.expect("at least one play");
    if digests.iter().any(|d| *d != digests[0]) {
        report.problem("two plays of one game disagree");
    }
    report.phase(
        format!("{} plays", 2 * plays),
        2 * plays as u64 * calls(&trace),
        0,
    );
    check_engine(&trace, &digests[0], recorded, report)?;
    let add = matches!(trace.slots, engine::Slots::Add { .. });
    let prefix_submit = if add {
        "addon.submit"
    } else {
        "subston.submit"
    };
    let [submit, p50, p99, serviced] = mechanism_metrics(add);
    let submit_us: f64 = tracer.durations_us(prefix_submit, |_| true).iter().sum();
    let mut slot_us = tracer.durations_us("slot", |_| true);
    report.set(
        submit,
        submit_us / (trace.bids() * plays as u64) as f64,
        None,
    );
    report.set(p50, percentile(&mut slot_us, 0.5), Some(slot_us.len()));
    report.set(p99, percentile(&mut slot_us, 0.99), Some(slot_us.len()));
    let first = outcome.first_serviced();
    let share = engine::serviced_share(trace.intervals.iter().enumerate().map(
        |(user, &(start, end))| {
            (
                start,
                end,
                first
                    .get(&osp_core::prelude::UserId(user as u32))
                    .map(|s| s.index()),
            )
        },
    ));
    report.set(serviced, share, None);
    report.set(
        "trace.overhead_share",
        median(&traced) / median(&plain) - 1.0,
        Some(plays),
    );
    report.set("trace.spans", tracer.spans().len() as f64, None);
    report.set("failed_share", 0.0, None);
    print_spans(report, &[("traced plays", &tracer)]);
    Ok(())
}
