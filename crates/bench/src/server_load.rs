//! Multi-game server load harness.
//!
//! Builds wire-protocol traces from registered
//! [`osp_workload::TraceSource`]s — one sampled trace per game,
//! arrivals (and revisions, for churny sources) issued just-in-time at
//! their slot, slots interleaved round-robin across all games — and
//! replays them through a [`ShardPool`], measuring sustained request
//! throughput. [`crate::perf`] records the result as the `server1` /
//! `server4` engine axis of `BENCH_mechanisms.json`; correctness of
//! the replay path is locked by `osp-server`'s differential tests, so
//! this module only counts and times.
//!
//! Only wire-safe sources can cross the wire: the trace builder
//! asserts [`osp_workload::TraceSource::wire_safe`], which guarantees
//! every sampled value survives the decimal encoding exactly.

use std::time::Instant;

use osp_core::prelude::*;
use osp_server::protocol::{GameId, Mechanism, Op, Reply, Request, ShardStat};
use osp_server::{money_to_decimal, ShardPool, SubmitRetry};
use osp_workload::source::{find, Trace};

/// Shape of a generated load trace.
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// Number of concurrent games.
    pub games: u64,
    /// Users per game.
    pub users_per_game: u32,
    /// Registry name of the [`osp_workload::TraceSource`] every game
    /// samples (must be wire-safe).
    pub source: &'static str,
    /// Base seed; each game derives its own.
    pub seed: u64,
}

/// A built wire trace plus the per-game horizon it ticks through.
#[derive(Debug, Clone)]
pub struct LoadTrace {
    /// The request stream, creates first, then slot-phased traffic.
    pub requests: Vec<Request>,
    /// Horizon of every game in the trace.
    pub horizon: u32,
}

fn series_values(series: &SlotSeries) -> Vec<String> {
    series
        .iter()
        .map(|(_, m)| money_to_decimal(m).expect("wire-safe sources are decimal-exact"))
        .collect()
}

/// Builds the request trace for `cfg`: all creates, then slot-phased
/// round-robin traffic (arrivals at their start slot, revisions at
/// their scripted slot, one explicit tick per game per slot), so
/// thousands of games are in flight at once.
#[must_use]
pub fn build_trace(cfg: &LoadConfig) -> LoadTrace {
    let source =
        find(cfg.source).unwrap_or_else(|| panic!("`{}` is not a registered workload", cfg.source));
    assert!(
        source.wire_safe(),
        "`{}` is not wire-safe: its values cannot cross the decimal wire",
        cfg.source
    );
    let mut requests = Vec::new();
    let mut next_id = 0u64;
    let mut push = |requests: &mut Vec<Request>, op: Op| {
        next_id += 1;
        requests.push(Request { id: next_id, op });
    };
    // (slot, op) per game, arrivals first then revisions, each sorted
    // by slot — so filtering a slot replays arrivals before revisions.
    let mut events: Vec<Vec<(u32, Op)>> = Vec::with_capacity(cfg.games as usize);
    let mut horizon = 0u32;
    for game in 0..cfg.games {
        let game_id = GameId(game);
        let trace = source.sample(
            cfg.users_per_game,
            cfg.seed ^ game.wrapping_mul(0x9E37_79B9),
        );
        horizon = trace.horizon();
        match &trace {
            Trace::Additive {
                scenario,
                revisions,
            } => {
                push(
                    &mut requests,
                    Op::Create {
                        game: game_id,
                        mechanism: Mechanism::AddOn,
                        horizon: scenario.horizon,
                        costs: vec![money_to_decimal(scenario.cost).expect("cost is decimal-exact")],
                        engine: None,
                        seed: None,
                    },
                );
                let mut game_events: Vec<(u32, Op)> = scenario
                    .users
                    .iter()
                    .map(|(user, series)| {
                        (
                            series.start().index(),
                            Op::Arrive {
                                game: game_id,
                                user: user.0,
                                start: series.start().index(),
                                values: series_values(series),
                                substitutes: Vec::new(),
                            },
                        )
                    })
                    .collect();
                game_events.extend(revisions.iter().map(|r| {
                    (
                        r.at.index(),
                        Op::Revise {
                            game: game_id,
                            user: r.user.0,
                            from: r.from.index(),
                            values: r
                                .values
                                .iter()
                                .map(|&v| money_to_decimal(v).expect("revisions are decimal-exact"))
                                .collect(),
                        },
                    )
                }));
                events.push(game_events);
            }
            Trace::Subst { scenario } => {
                push(
                    &mut requests,
                    Op::Create {
                        game: game_id,
                        mechanism: Mechanism::SubstOn,
                        horizon: scenario.horizon,
                        costs: scenario
                            .costs
                            .iter()
                            .map(|&c| money_to_decimal(c).expect("costs are decimal-exact"))
                            .collect(),
                        engine: None,
                        seed: None,
                    },
                );
                events.push(
                    scenario
                        .users
                        .iter()
                        .map(|u| {
                            (
                                u.series.start().index(),
                                Op::Arrive {
                                    game: game_id,
                                    user: u.user.0,
                                    start: u.series.start().index(),
                                    values: series_values(&u.series),
                                    substitutes: u.substitutes.iter().map(|o| o.index()).collect(),
                                },
                            )
                        })
                        .collect(),
                );
            }
        }
    }
    for t in 1..=horizon {
        for (game, game_events) in events.iter().enumerate() {
            for (slot, op) in game_events {
                if *slot == t {
                    push(&mut requests, op.clone());
                }
            }
            push(
                &mut requests,
                Op::Tick {
                    game: GameId(game as u64),
                    slot: Some(t),
                },
            );
        }
    }
    LoadTrace { requests, horizon }
}

/// What one replay measured.
#[derive(Debug, Clone)]
pub struct LoadResult {
    /// Requests replayed.
    pub requests: usize,
    /// Error replies among them.
    pub errors: usize,
    /// Submissions handed back and re-tried (queue-full back-pressure
    /// or a shard mid-recovery), each after a capped-exponential
    /// backoff. Zero on a healthy, adequately-queued pool.
    pub retries: u64,
    /// Wall-clock seconds from first submit to drained shutdown.
    pub elapsed_s: f64,
    /// `requests / elapsed_s`.
    pub requests_per_sec: f64,
    /// Final per-shard statistics.
    pub shards: Vec<ShardStat>,
}

/// Replays `trace` through a fresh in-memory pool, blocking until
/// every request is answered (shutdown drains the queues).
#[must_use]
pub fn replay(trace: &[Request], shards: usize, queue_cap: usize) -> LoadResult {
    replay_with(
        ShardPool::new(shards, queue_cap, Engine::Incremental),
        trace,
    )
}

/// Replays `trace` through `pool` (callers build durable or
/// fault-injected pools via `PoolConfig`), then shuts the pool down.
///
/// Submission never aborts on transient refusals: a full queue or a
/// recovering shard hands the request back, and the loop retries it.
/// A full queue spins on `yield_now` — workers free slots in
/// microseconds under load, and timer-granularity sleeps here were
/// measured costing >2× throughput on saturated subst traces — while
/// a recovering shard (which is replaying a log, a millisecond-scale
/// affair) backs off with sleeps doubling from 50µs to a 2ms cap.
/// Holds successive [`ShardStat`] snapshots to the consistency
/// contract documented on the type: `events` and `recoveries` are
/// monotone non-decreasing per shard (each is only ever incremented),
/// even though a single snapshot's *cross*-counter view may be torn.
/// The load harness polls mid-replay, so a regression to
/// non-monotone counters (e.g. a reset on recovery) fails here under
/// real concurrency instead of surviving until an operator notices.
fn assert_stats_monotone(prev: &[ShardStat], next: &[ShardStat]) {
    assert_eq!(prev.len(), next.len(), "shard count changed mid-replay");
    for (p, n) in prev.iter().zip(next) {
        assert_eq!(p.shard, n.shard, "shard order changed mid-replay");
        assert!(
            n.events >= p.events,
            "shard {} events went backwards: {} -> {}",
            p.shard,
            p.events,
            n.events
        );
        assert!(
            n.recoveries >= p.recoveries,
            "shard {} recoveries went backwards: {} -> {}",
            p.shard,
            p.recoveries,
            n.recoveries
        );
    }
}

/// Poll cadence (in submitted requests) of the mid-replay stats
/// probes [`assert_stats_monotone`] checks. Atomic loads are cheap,
/// but the replay loop is itself the measured benchmark hot path, so
/// probe sparsely.
const STATS_PROBE_EVERY: usize = 1_024;

/// Replays `trace` against `pool` at full speed — a response-collector
/// thread drains replies while the caller thread submits — asserting
/// the relaxed-counter monotonicity invariants every
/// [`STATS_PROBE_EVERY`] requests along the way.
#[must_use]
pub fn replay_with(pool: ShardPool, trace: &[Request]) -> LoadResult {
    const YIELDS: u32 = 8;
    const FIRST_SLEEP_US: u64 = 50;
    const MAX_SLEEP_US: u64 = 2_000;
    let (tx, rx) = std::sync::mpsc::channel::<osp_server::protocol::Response>();
    let collector = std::thread::spawn(move || {
        let (mut answered, mut errors) = (0usize, 0usize);
        for response in rx {
            answered += 1;
            if matches!(response.reply, Reply::Error { .. }) {
                errors += 1;
            }
        }
        (answered, errors)
    });
    let start = Instant::now();
    let mut retries = 0u64;
    let mut last_stats = pool.stats();
    for (submitted, request) in trace.iter().enumerate() {
        if submitted % STATS_PROBE_EVERY == 0 {
            let probe = pool.stats();
            assert_stats_monotone(&last_stats, &probe);
            last_stats = probe;
        }
        let mut pending = request.clone();
        let mut attempt = 0u32;
        loop {
            match pool.try_submit(pending, &tx) {
                Ok(()) => break,
                Err((back, reason)) => {
                    pending = back;
                    retries += 1;
                    if matches!(reason, SubmitRetry::QueueFull) || attempt < YIELDS {
                        std::thread::yield_now();
                    } else {
                        let exp = (attempt - YIELDS).min(10);
                        let us = (FIRST_SLEEP_US << exp).min(MAX_SLEEP_US);
                        std::thread::sleep(std::time::Duration::from_micros(us));
                    }
                    attempt = attempt.saturating_add(1);
                }
            }
        }
    }
    let stats = pool.shutdown();
    assert_stats_monotone(&last_stats, &stats);
    let elapsed = start.elapsed().as_secs_f64();
    drop(tx);
    let (answered, errors) = collector.join().expect("collector thread");
    assert_eq!(answered, trace.len(), "a request went unanswered");
    LoadResult {
        requests: trace.len(),
        errors,
        retries,
        elapsed_s: elapsed,
        requests_per_sec: trace.len() as f64 / elapsed,
        shards: stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: LoadConfig = LoadConfig {
        games: 50,
        users_per_game: 4,
        source: "uniform_z20",
        seed: 0x05f5_c0de,
    };

    #[test]
    fn traces_are_deterministic_and_cover_every_game() {
        let trace = build_trace(&SMALL);
        assert_eq!(trace.requests, build_trace(&SMALL).requests);
        assert_eq!(trace.horizon, 20);
        let creates = trace
            .requests
            .iter()
            .filter(|r| matches!(r.op, Op::Create { .. }))
            .count();
        let ticks = trace
            .requests
            .iter()
            .filter(|r| matches!(r.op, Op::Tick { .. }))
            .count();
        assert_eq!(creates, SMALL.games as usize);
        assert_eq!(ticks, (SMALL.games * u64::from(trace.horizon)) as usize);
    }

    #[test]
    fn replay_answers_everything_without_errors() {
        for source in ["uniform_z20", "subst12_z20"] {
            let trace = build_trace(&LoadConfig { source, ..SMALL });
            let result = replay(&trace.requests, 4, 64);
            assert_eq!(result.requests, trace.requests.len());
            assert_eq!(result.errors, 0, "source={source}");
            assert!(result.requests_per_sec > 0.0);
            assert_eq!(
                result.shards.iter().map(|s| s.events).sum::<u64>(),
                trace.requests.len() as u64
            );
            assert_eq!(
                result.shards.iter().map(|s| s.games).sum::<u64>(),
                SMALL.games
            );
        }
    }

    #[test]
    fn back_pressure_is_absorbed_by_retries_not_aborts() {
        let trace = build_trace(&LoadConfig { games: 20, ..SMALL });
        // Queues of one request: nearly every submission bounces off
        // a full queue first. Everything must still be answered, with
        // the bounces absorbed as backoff-retries, not errors.
        let result = replay(&trace.requests, 2, 1);
        assert_eq!(result.errors, 0);
        assert!(result.retries > 0, "tiny queues should have bounced");
    }

    #[test]
    fn a_mid_load_crash_recovers_without_losing_requests() {
        use osp_server::wal::{FaultKind, FaultPlan};
        use osp_server::PoolConfig;
        use std::sync::Arc;

        let dir = std::env::temp_dir().join(format!("osp-load-crash-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let trace = build_trace(&LoadConfig { games: 20, ..SMALL });
        let fault = Arc::new(FaultPlan::new(FaultKind::Kill, 100));
        let pool = ShardPool::with_config(PoolConfig {
            shards: 2,
            queue_cap: 64,
            engine: Engine::Incremental,
            wal_dir: Some(dir.clone()),
            checkpoint_every: 32,
            fault: Some(fault.clone()),
        })
        .expect("durable pool opens");
        let result = replay_with(pool, &trace.requests);
        assert!(fault.has_fired(), "the crash never triggered");
        // Every request was answered (replay_with asserts it); the
        // crash surfaces as retryable errors on the requests in flight
        // at that moment, and exactly one recovery in the stats.
        assert!(result.errors >= 1);
        assert_eq!(result.shards.iter().map(|s| s.recoveries).sum::<u64>(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn churn_revisions_cross_the_wire_cleanly() {
        let trace = build_trace(&LoadConfig {
            source: "churn_z40",
            games: 20,
            ..SMALL
        });
        let revises = trace
            .requests
            .iter()
            .filter(|r| matches!(r.op, Op::Revise { .. }))
            .count();
        assert!(revises > 0, "churn trace scripted no revisions");
        let result = replay(&trace.requests, 4, 64);
        assert_eq!(result.errors, 0);
    }
}
