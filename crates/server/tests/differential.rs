//! The tentpole correctness lock: an identical multi-game event trace
//! replayed through the sharded server and through direct library
//! calls must agree on every reply, every grant, every price, and
//! every ledger total.
//!
//! The server runs the incremental Shapley engine while the oracle
//! runs the paper-literal rebuild engine, so this is simultaneously a
//! transport differential (threads + queues vs inline calls) and an
//! engine differential.

use std::collections::BTreeMap;
use std::str::FromStr;

use osp_core::prelude::*;
use osp_econ::{Money, OptId, UserId};
use osp_server::game::{decode_snapshot, FinalOutcome, GameState};
use osp_server::protocol::{Mechanism, Op, Reply, Request, Response, SnapshotDoc};
use osp_server::script::{self, ScriptConfig};
use osp_server::{ShardPool, ShardStat};

/// Replays `requests` through a fresh pool and returns the responses
/// in request order (ids are sequential, so sorting by id restores the
/// submission order that per-shard interleaving scrambled).
fn run_server(requests: &[Request], shards: usize, queue_cap: usize) -> Vec<Response> {
    let pool = ShardPool::new(shards, queue_cap, Engine::Incremental);
    let (tx, rx) = std::sync::mpsc::channel();
    for request in requests {
        pool.submit(request.clone(), &tx);
    }
    let stats = pool.shutdown();
    drop(tx);
    let mut responses: Vec<Response> = rx.into_iter().collect();
    assert_eq!(responses.len(), requests.len(), "a request went unanswered");
    let routed = requests.iter().filter(|r| r.op.game().is_some()).count() as u64;
    assert_eq!(
        stats.iter().map(|s| s.events).sum::<u64>(),
        routed,
        "shard event counters disagree with the trace"
    );
    assert!(stats.iter().all(|s| s.queue_depth == 0));
    responses.sort_by_key(|r| r.id);
    responses
}

/// Replays `requests` through a fresh pool's [`osp_server::Batcher`],
/// flushing it every `batch` requests, and returns the responses sorted
/// by id. A `stats` probe rides in the
/// middle of the burst; its per-shard counters are returned beside the
/// number of game requests sent before it.
fn run_batched(
    requests: &[Request],
    shards: usize,
    queue_cap: usize,
    batch: usize,
) -> (Vec<Response>, Vec<ShardStat>, u64) {
    let probe_id = u64::MAX;
    let probe_at = requests.len() / 2;
    let pool = ShardPool::new(shards, queue_cap, Engine::Incremental);
    let (tx, rx) = std::sync::mpsc::channel();
    let mut batcher = pool.batcher(&tx);
    for (i, request) in requests.iter().enumerate() {
        if i == probe_at {
            batcher.push(Request {
                id: probe_id,
                op: Op::Stats,
            });
        }
        batcher.push(request.clone());
        if (i + 1) % batch == 0 {
            batcher.flush();
        }
    }
    drop(batcher);
    let stats = pool.shutdown();
    drop(tx);
    let mut responses: Vec<Response> = rx.into_iter().flatten().collect();
    let probe = responses
        .iter()
        .position(|r| r.id == probe_id)
        .expect("the stats probe was answered");
    let Reply::Stats { shards: probed } = responses.swap_remove(probe).reply else {
        panic!("the probe got a non-stats reply");
    };
    assert_eq!(responses.len(), requests.len(), "a request went unanswered");
    let routed =
        |requests: &[Request]| requests.iter().filter(|r| r.op.game().is_some()).count() as u64;
    assert_eq!(
        stats.iter().map(|s| s.events).sum::<u64>(),
        routed(requests)
    );
    assert!(stats.iter().all(|s| s.queue_depth == 0));
    responses.sort_by_key(|r| r.id);
    (responses, probed, routed(&requests[..probe_at]))
}

/// Engine-independent meaning of a snapshot: decode it and finish the
/// game. (The raw documents differ across engines by design — solver
/// internals are engine-specific state.)
fn outcome_of(doc: &SnapshotDoc) -> FinalOutcome {
    match decode_snapshot(doc).expect("snapshot decodes") {
        GameState::Add(state) => FinalOutcome::Add(state.finish().expect("finished add game")),
        GameState::Subst(state) => {
            FinalOutcome::Subst(state.finish().expect("finished subst game"))
        }
    }
}

#[test]
fn sharded_server_matches_sequential_oracle() {
    let cfg = ScriptConfig::differential();
    assert!(cfg.games >= 100, "the lock must cover at least 100 games");
    let requests = script::generate(&cfg);
    let server = run_server(&requests, 4, 64);
    let oracle = script::oracle(&requests, Engine::Rebuild, 4);
    assert_eq!(oracle.outcomes.len(), cfg.games as usize);

    let mut snapshots = 0usize;
    for (srv, orc) in server.iter().zip(&oracle.responses) {
        assert_eq!(srv.id, orc.id);
        match (&srv.reply, &orc.reply) {
            (
                Reply::Snapshot { game, doc },
                Reply::Snapshot {
                    game: oracle_game,
                    doc: oracle_doc,
                },
            ) => {
                assert_eq!(game, oracle_game);
                assert_eq!(outcome_of(doc), outcome_of(oracle_doc), "game {game}");
                snapshots += 1;
            }
            _ => assert_eq!(srv, orc),
        }
    }
    assert_eq!(snapshots, cfg.games as usize);

    // Ledger check: the payments streamed out of the server's tick
    // replies, summed per game, must equal the oracle's final books.
    let mut streamed: BTreeMap<u64, Money> = BTreeMap::new();
    for response in &server {
        let (game, payments) = match &response.reply {
            Reply::Slot { game, report } => (game.0, &report.payments),
            Reply::SubstSlot { game, report } => (game.0, &report.payments),
            _ => continue,
        };
        for &(_, amount) in payments {
            *streamed.entry(game).or_insert(Money::ZERO) += amount;
        }
    }
    for (game, outcome) in &oracle.outcomes {
        let expected: Money = match outcome {
            FinalOutcome::Add(o) => o.payments.values().copied().sum(),
            FinalOutcome::Subst(o) => o.payments.values().copied().sum(),
        };
        let got = streamed.get(game).copied().unwrap_or(Money::ZERO);
        assert_eq!(got, expected, "ledger total for g{game}");
    }
}

#[test]
fn trace_interleaves_and_back_pressure_do_not_change_results() {
    // Same trace, radically different pool shapes: a single shard with
    // a deep queue and many shards with queues far smaller than the
    // trace (so submit blocks on back-pressure throughout).
    let requests = script::generate(&ScriptConfig::smoke(24));
    let wide = run_server(&requests, 8, 2);
    let narrow = run_server(&requests, 1, 4096);
    for (a, b) in wide.iter().zip(&narrow) {
        match (&a.reply, &b.reply) {
            (
                Reply::Created {
                    shard: _,
                    game,
                    mechanism,
                },
                Reply::Created {
                    shard: _,
                    game: g2,
                    mechanism: m2,
                },
            ) => {
                // Shard assignments legitimately differ across pool
                // widths; everything else may not.
                assert_eq!((game, mechanism), (g2, m2));
            }
            (Reply::Snapshot { game, doc }, Reply::Snapshot { game: g2, doc: d2 }) => {
                // Raw documents serialize HashMap-backed state in
                // nondeterministic order; compare meanings.
                assert_eq!(game, g2);
                assert_eq!(outcome_of(doc), outcome_of(d2), "game {game}");
            }
            _ => assert_eq!(a, b),
        }
    }

    // The batched path a transport takes: one-request batches, batches
    // of 7, and batches far larger than the queue bound, which enter
    // only an empty queue.
    for queue_cap in [1, 4] {
        let oracle = script::oracle(&requests, Engine::Rebuild, 3);
        for batch in [1, 7, 64] {
            let (batched, probed, before) = run_batched(&requests, 3, queue_cap, batch);
            for (a, b) in batched.iter().zip(&oracle.responses) {
                match (&a.reply, &b.reply) {
                    (Reply::Snapshot { game, doc }, Reply::Snapshot { game: g2, doc: d2 }) => {
                        assert_eq!(game, g2);
                        assert_eq!(outcome_of(doc), outcome_of(d2), "game {game}");
                    }
                    _ => assert_eq!(a, b, "queue_cap {queue_cap}, batch {batch}"),
                }
            }
            // Pending batches are handed over before `stats` is
            // answered, so every earlier game request is done or
            // queued when the counters are read.
            let seen: u64 = probed.iter().map(|s| s.events + s.queue_depth).sum();
            assert!(
                seen >= before,
                "stats saw {seen} of {before} earlier requests (queue_cap {queue_cap}, batch {batch})"
            );
        }
    }
}

/// Rebuilds the offline games embedded in a trace and runs them
/// through `addoff::run` / `substoff::run` — mechanisms the server
/// never touches — as an independent second oracle.
#[test]
fn offline_games_cross_check_against_the_offline_library() {
    let cfg = ScriptConfig::differential();
    let requests = script::generate(&cfg);
    let oracle = script::oracle(&requests, Engine::Incremental, 4);

    let mut add_games: BTreeMap<u64, AdditiveOfflineGame> = BTreeMap::new();
    let mut subst_costs: BTreeMap<u64, (Vec<Money>, TieBreak)> = BTreeMap::new();
    let mut subst_bids: BTreeMap<u64, Vec<SubstBid>> = BTreeMap::new();
    for request in &requests {
        match &request.op {
            Op::Create {
                game,
                mechanism: Mechanism::AddOff,
                costs,
                ..
            } => {
                let costs = costs.iter().map(|c| Money::from_str(c).unwrap()).collect();
                add_games.insert(game.0, AdditiveOfflineGame::new(costs).unwrap());
            }
            Op::Create {
                game,
                mechanism: Mechanism::SubstOff,
                costs,
                seed,
                ..
            } => {
                let costs: Vec<Money> = costs.iter().map(|c| Money::from_str(c).unwrap()).collect();
                let tiebreak = seed.map_or(TieBreak::LowestOptId, TieBreak::Random);
                subst_costs.insert(game.0, (costs, tiebreak));
                subst_bids.insert(game.0, Vec::new());
            }
            Op::Arrive {
                game,
                user,
                values,
                substitutes,
                ..
            } => {
                if let Some(offline) = add_games.get_mut(&game.0) {
                    assert_eq!(values.len(), 1, "horizon-1 game got a multi-slot bid");
                    offline
                        .bid(
                            UserId(*user),
                            OptId(0),
                            Money::from_str(&values[0]).unwrap(),
                        )
                        .unwrap();
                } else if let Some(bids) = subst_bids.get_mut(&game.0) {
                    assert_eq!(values.len(), 1);
                    bids.push(SubstBid {
                        user: UserId(*user),
                        substitutes: substitutes.iter().copied().map(OptId).collect(),
                        value: Money::from_str(&values[0]).unwrap(),
                    });
                }
            }
            _ => {}
        }
    }
    let expected_addoff = (0..cfg.games).filter(|g| g % 4 == 2).count();
    let expected_substoff = (0..cfg.games).filter(|g| g % 4 == 3).count();
    assert_eq!(add_games.len(), expected_addoff);
    assert_eq!(subst_costs.len(), expected_substoff);
    assert!(!add_games.is_empty() && !subst_costs.is_empty());

    for (game, offline) in &add_games {
        let lib = addoff::run(offline);
        let FinalOutcome::Add(online) = &oracle.outcomes[game] else {
            panic!("g{game} should be additive");
        };
        let lib_serviced: Vec<UserId> = lib.grants.iter().map(|&(u, _)| u).collect();
        let online_serviced: Vec<UserId> = online.first_serviced.keys().copied().collect();
        assert_eq!(lib_serviced, online_serviced, "serviced set for g{game}");
        for (&user, &paid) in &online.payments {
            assert_eq!(
                lib.payments
                    .get(&(user, OptId(0)))
                    .copied()
                    .unwrap_or(Money::ZERO),
                paid,
                "payment of {user} in g{game}"
            );
        }
        assert_eq!(
            lib.implemented.get(&OptId(0)).copied(),
            online.share_by_slot.last().copied().flatten(),
            "final share for g{game}"
        );
    }

    for (game, (costs, tiebreak)) in &subst_costs {
        let lib = substoff::run(
            &SubstOffGame::new(costs.clone(), subst_bids[game].clone()).unwrap(),
            *tiebreak,
        );
        let FinalOutcome::Subst(online) = &oracle.outcomes[game] else {
            panic!("g{game} should be substitutable");
        };
        assert_eq!(
            lib.assignments, online.assignments,
            "assignments for g{game}"
        );
        assert_eq!(lib.payments, online.payments, "payments for g{game}");
        let lib_impl: Vec<OptId> = lib.implemented.keys().copied().collect();
        let online_impl: Vec<OptId> = online.implemented_at.keys().copied().collect();
        assert_eq!(lib_impl, online_impl, "implemented set for g{game}");
    }
}
