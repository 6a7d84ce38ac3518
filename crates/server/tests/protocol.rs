//! Protocol-level behaviour: malformed requests, unknown games,
//! out-of-order ticks, snapshot/restore, stats, and clean shutdown
//! with non-empty queues.

use osp_core::prelude::Engine;
use osp_server::game::{decode_snapshot, FinalOutcome, GameState};
use osp_server::protocol::{GameId, Mechanism, Op, Reply, Request, Response, SnapshotDoc};
use osp_server::ShardPool;

fn pool() -> ShardPool {
    ShardPool::new(2, 64, Engine::Incremental)
}

fn req(id: u64, op: Op) -> Request {
    Request { id, op }
}

fn create_addon(id: u64, game: u64, horizon: u32) -> Request {
    req(
        id,
        Op::Create {
            game: GameId(game),
            mechanism: Mechanism::AddOn,
            horizon,
            costs: vec!["10".into()],
            engine: None,
            seed: None,
        },
    )
}

fn arrive(id: u64, game: u64, user: u32, start: u32, values: &[&str]) -> Request {
    req(
        id,
        Op::Arrive {
            game: GameId(game),
            user,
            start,
            values: values.iter().map(|v| (*v).to_string()).collect(),
            substitutes: Vec::new(),
        },
    )
}

fn error_code_of(response: &Response) -> &str {
    match &response.reply {
        Reply::Error { code, .. } => code,
        other => panic!("expected an error reply, got {other:?}"),
    }
}

#[test]
fn malformed_requests_do_not_parse() {
    for bad in [
        "",
        "{",
        "[1,2,3]",
        r#"{"id": 1}"#,
        r#"{"id": 1, "op": {"warp": {}}}"#,
        r#"{"id": 1, "op": {"create": {"mechanism": "addon"}}}"#,
        r#"{"id": "one", "op": "stats"}"#,
        r#"{"id": 1, "op": {"tick": {"game": "seven"}}}"#,
    ] {
        assert!(
            serde_json::from_str::<Request>(bad).is_err(),
            "{bad:?} should not parse as a request"
        );
    }
}

#[test]
fn unknown_games_and_duplicate_creates_are_rejected() {
    let pool = pool();
    for op in [
        Op::Price { game: GameId(42) },
        Op::Tick {
            game: GameId(42),
            slot: None,
        },
        Op::Snapshot { game: GameId(42) },
        Op::Expire {
            game: GameId(42),
            user: 0,
        },
    ] {
        let response = pool.call(req(1, op));
        assert_eq!(error_code_of(&response), "unknown_game");
    }
    assert!(matches!(
        pool.call(create_addon(2, 7, 3)).reply,
        Reply::Created { .. }
    ));
    let dup = pool.call(create_addon(3, 7, 5));
    assert_eq!(error_code_of(&dup), "game_exists");
    let _ = pool.shutdown();
}

#[test]
fn bad_creates_and_bad_amounts_are_rejected() {
    let pool = pool();
    let zero_horizon = pool.call(req(
        1,
        Op::Create {
            game: GameId(1),
            mechanism: Mechanism::AddOn,
            horizon: 0,
            costs: vec!["10".into()],
            engine: None,
            seed: None,
        },
    ));
    assert_eq!(error_code_of(&zero_horizon), "bad_create");
    let offline_multi_slot = pool.call(req(
        2,
        Op::Create {
            game: GameId(1),
            mechanism: Mechanism::AddOff,
            horizon: 3,
            costs: vec!["10".into()],
            engine: None,
            seed: None,
        },
    ));
    assert_eq!(error_code_of(&offline_multi_slot), "bad_create");
    let two_costs = pool.call(req(
        3,
        Op::Create {
            game: GameId(1),
            mechanism: Mechanism::AddOn,
            horizon: 2,
            costs: vec!["10".into(), "20".into()],
            engine: None,
            seed: None,
        },
    ));
    assert_eq!(error_code_of(&two_costs), "bad_create");
    let bad_engine = pool.call(req(
        4,
        Op::Create {
            game: GameId(1),
            mechanism: Mechanism::AddOn,
            horizon: 2,
            costs: vec!["10".into()],
            engine: Some("quantum".into()),
            seed: None,
        },
    ));
    assert_eq!(error_code_of(&bad_engine), "bad_create");
    let bad_cost = pool.call(req(
        5,
        Op::Create {
            game: GameId(1),
            mechanism: Mechanism::AddOn,
            horizon: 2,
            costs: vec!["ten dollars".into()],
            engine: None,
            seed: None,
        },
    ));
    assert_eq!(error_code_of(&bad_cost), "bad_money");
    // None of the rejects registered the game.
    assert!(matches!(
        pool.call(create_addon(6, 1, 2)).reply,
        Reply::Created { .. }
    ));
    let bad_value = pool.call(arrive(7, 1, 0, 1, &["1.2.3"]));
    assert_eq!(error_code_of(&bad_value), "bad_money");
    let _ = pool.shutdown();
}

#[test]
fn every_engine_override_is_accepted_and_prices_identically() {
    let pool = pool();
    let engines = ["incremental", "rebuild"];
    for (g, name) in engines.iter().enumerate() {
        let game = g as u64 + 1;
        assert!(
            matches!(
                pool.call(req(
                    game * 100,
                    Op::Create {
                        game: GameId(game),
                        mechanism: Mechanism::AddOn,
                        horizon: 3,
                        costs: vec!["10".into()],
                        engine: Some((*name).to_string()),
                        seed: None,
                    },
                ))
                .reply,
                Reply::Created { .. }
            ),
            "engine override {name:?} must be accepted"
        );
        for (user, values) in [(0u32, ["6", "6", "6"]), (1, ["5", "4", "3"])] {
            assert!(matches!(
                pool.call(arrive(
                    game * 100 + u64::from(user) + 1,
                    game,
                    user,
                    1,
                    &values
                ))
                .reply,
                Reply::Submitted { .. }
            ));
        }
    }
    // Identical games under every engine produce identical slot
    // reports — the override selects an implementation, not a price.
    for slot in 0..3u64 {
        let mut reports = Vec::new();
        for g in 0..engines.len() as u64 {
            let response = pool.call(req(
                1_000 + slot * 10 + g,
                Op::Tick {
                    game: GameId(g + 1),
                    slot: None,
                },
            ));
            match response.reply {
                Reply::Slot { report, .. } => reports.push(report),
                other => panic!("expected a slot reply, got {other:?}"),
            }
        }
        for (report, name) in reports.iter().zip(engines.iter()) {
            assert_eq!(report, &reports[0], "engine {name} diverged at slot {slot}");
        }
    }
    let _ = pool.shutdown();
}

#[test]
fn mechanism_errors_surface_with_stable_codes() {
    let pool = pool();
    assert!(matches!(
        pool.call(create_addon(1, 1, 3)).reply,
        Reply::Created { .. }
    ));
    assert!(matches!(
        pool.call(arrive(2, 1, 0, 1, &["1", "2"])).reply,
        Reply::Submitted { .. }
    ));
    let duplicate = pool.call(arrive(3, 1, 0, 2, &["1"]));
    assert_eq!(error_code_of(&duplicate), "duplicate_user");
    let beyond = pool.call(arrive(4, 1, 1, 3, &["1", "1"]));
    assert_eq!(error_code_of(&beyond), "beyond_horizon");
    let with_substitutes = pool.call(req(
        5,
        Op::Arrive {
            game: GameId(1),
            user: 2,
            start: 1,
            values: vec!["1".into()],
            substitutes: vec![0],
        },
    ));
    assert_eq!(error_code_of(&with_substitutes), "unsupported");
    let downward = pool.call(req(
        6,
        Op::Revise {
            game: GameId(1),
            user: 0,
            from: 2,
            values: vec!["0.50".into()],
        },
    ));
    assert_eq!(error_code_of(&downward), "downward_revision");

    assert!(matches!(
        pool.call(req(
            7,
            Op::Create {
                game: GameId(2),
                mechanism: Mechanism::SubstOn,
                horizon: 3,
                costs: vec!["10".into(), "20".into()],
                engine: None,
                seed: None,
            },
        ))
        .reply,
        Reply::Created { .. }
    ));
    let no_substitutes = pool.call(req(
        8,
        Op::Arrive {
            game: GameId(2),
            user: 0,
            start: 1,
            values: vec!["1".into()],
            substitutes: vec![],
        },
    ));
    assert_eq!(error_code_of(&no_substitutes), "empty_substitutes");
    let unknown_opt = pool.call(req(
        9,
        Op::Arrive {
            game: GameId(2),
            user: 0,
            start: 1,
            values: vec!["1".into()],
            substitutes: vec![5],
        },
    ));
    assert_eq!(error_code_of(&unknown_opt), "unknown_opt");
    let revise_subst = pool.call(req(
        10,
        Op::Revise {
            game: GameId(2),
            user: 0,
            from: 1,
            values: vec!["2".into()],
        },
    ));
    assert_eq!(error_code_of(&revise_subst), "unsupported");
    let _ = pool.shutdown();
}

#[test]
fn out_of_order_ticks_are_rejected_without_advancing() {
    let pool = pool();
    assert!(matches!(
        pool.call(create_addon(1, 9, 2)).reply,
        Reply::Created { .. }
    ));
    let early = pool.call(req(
        2,
        Op::Tick {
            game: GameId(9),
            slot: Some(2),
        },
    ));
    assert_eq!(error_code_of(&early), "out_of_order");
    // The reject left the game at slot 1.
    for expect in [1u32, 2] {
        let ok = pool.call(req(
            3,
            Op::Tick {
                game: GameId(9),
                slot: Some(expect),
            },
        ));
        match ok.reply {
            Reply::Slot { report, .. } => assert_eq!(report.slot.index(), expect),
            other => panic!("expected a slot report, got {other:?}"),
        }
    }
    let exhausted = pool.call(req(
        4,
        Op::Tick {
            game: GameId(9),
            slot: None,
        },
    ));
    assert_eq!(error_code_of(&exhausted), "horizon_exhausted");
    let _ = pool.shutdown();
}

#[test]
fn snapshot_restore_resumes_identically() {
    let pool = pool();
    assert!(matches!(
        pool.call(create_addon(1, 1, 4)).reply,
        Reply::Created { .. }
    ));
    assert!(matches!(
        pool.call(arrive(2, 1, 0, 1, &["3", "3", "3", "3"])).reply,
        Reply::Submitted { .. }
    ));
    assert!(matches!(
        pool.call(arrive(3, 1, 1, 2, &["5", "5"])).reply,
        Reply::Submitted { .. }
    ));
    assert!(matches!(
        pool.call(req(
            4,
            Op::Tick {
                game: GameId(1),
                slot: Some(1)
            }
        ))
        .reply,
        Reply::Slot { .. }
    ));
    let doc = match pool.call(req(5, Op::Snapshot { game: GameId(1) })).reply {
        Reply::Snapshot { doc, .. } => doc,
        other => panic!("expected a snapshot, got {other:?}"),
    };

    // Restoring over a live id is refused; a fresh id works.
    let clash = pool.call(req(
        6,
        Op::Restore {
            game: GameId(1),
            doc: doc.clone(),
        },
    ));
    assert_eq!(error_code_of(&clash), "game_exists");
    assert!(matches!(
        pool.call(req(
            7,
            Op::Restore {
                game: GameId(2),
                doc: doc.clone()
            }
        ))
        .reply,
        Reply::Restored {
            game: GameId(2),
            ..
        }
    ));

    // Original and restored copy evolve identically from here.
    for t in 2..=4u32 {
        let a = pool.call(req(
            10 + u64::from(t),
            Op::Tick {
                game: GameId(1),
                slot: Some(t),
            },
        ));
        let b = pool.call(req(
            20 + u64::from(t),
            Op::Tick {
                game: GameId(2),
                slot: Some(t),
            },
        ));
        match (a.reply, b.reply) {
            (Reply::Slot { report: ra, .. }, Reply::Slot { report: rb, .. }) => {
                assert_eq!(ra, rb, "slot {t} diverged after restore");
            }
            other => panic!("expected slot reports, got {other:?}"),
        }
    }

    let bad_version = pool.call(req(
        30,
        Op::Restore {
            game: GameId(3),
            doc: SnapshotDoc {
                format_version: 99,
                ..doc.clone()
            },
        },
    ));
    assert_eq!(error_code_of(&bad_version), "bad_snapshot");
    let empty = pool.call(req(
        31,
        Op::Restore {
            game: GameId(3),
            doc: SnapshotDoc {
                addon: Vec::new(),
                ..doc
            },
        },
    ));
    assert_eq!(error_code_of(&empty), "bad_snapshot");
    let _ = pool.shutdown();
}

#[test]
fn stats_and_shutdown_ops_answer_inline() {
    let pool = pool();
    assert!(matches!(
        pool.call(create_addon(1, 5, 1)).reply,
        Reply::Created { .. }
    ));
    match pool.call(req(2, Op::Stats)).reply {
        Reply::Stats { shards } => {
            assert_eq!(shards.len(), 2);
            assert_eq!(shards.iter().map(|s| s.events).sum::<u64>(), 1);
            assert_eq!(shards.iter().map(|s| s.games).sum::<u64>(), 1);
        }
        other => panic!("expected stats, got {other:?}"),
    }
    // `shutdown` is transport-level; routing it is a protocol error.
    let routed = pool.call(req(3, Op::Shutdown));
    assert_eq!(error_code_of(&routed), "protocol");
    let _ = pool.shutdown();
}

#[test]
fn shutdown_with_non_empty_queues_drains_every_request() {
    // Queues far smaller than the burst, many games, and an immediate
    // shutdown: every already-submitted request must still be answered
    // (a closed mailbox still hands its worker every queued batch).
    let pool = ShardPool::new(3, 2, Engine::Incremental);
    let (tx, rx) = std::sync::mpsc::channel();
    let mut id = 0;
    for game in 0..60u64 {
        id += 1;
        pool.submit(create_addon(id, game, 1), &tx);
        id += 1;
        pool.submit(arrive(id, game, 0, 1, &["2"]), &tx);
        id += 1;
        pool.submit(
            req(
                id,
                Op::Tick {
                    game: GameId(game),
                    slot: Some(1),
                },
            ),
            &tx,
        );
    }
    let stats = pool.shutdown();
    drop(tx);
    let responses: Vec<Response> = rx.into_iter().collect();
    assert_eq!(responses.len(), id as usize);
    assert!(responses
        .iter()
        .all(|r| !matches!(r.reply, Reply::Error { .. })));
    assert_eq!(stats.iter().map(|s| s.events).sum::<u64>(), id);
    assert_eq!(stats.iter().map(|s| s.games).sum::<u64>(), 60);
    assert!(stats.iter().all(|s| s.queue_depth == 0));
}

#[test]
fn retired_engine_names_and_oversized_horizons_are_bad_creates() {
    let pool = pool();
    let create = |id: u64, mechanism: Mechanism, horizon: u32, engine: Option<&str>| {
        let costs = if mechanism.is_subst() {
            vec!["10".into(), "7".into()]
        } else {
            vec!["10".into()]
        };
        pool.call(req(
            id,
            Op::Create {
                game: GameId(id),
                mechanism,
                horizon,
                costs,
                engine: engine.map(str::to_string),
                seed: None,
            },
        ))
    };
    // The engines folded into `incremental` are no longer wire names;
    // the error lists the two that are.
    for (id, retired) in [(1, "columnar"), (2, "pipelined")] {
        let response = create(id, Mechanism::AddOn, 3, Some(retired));
        assert_eq!(error_code_of(&response), "bad_create");
        match &response.reply {
            Reply::Error { message, .. } => {
                assert!(
                    message.contains("incremental") && message.contains("rebuild"),
                    "{message}"
                );
            }
            other => panic!("expected an error reply, got {other:?}"),
        }
    }
    // A horizon past the bound is refused before anything is sized for
    // it, on both online mechanisms.
    let max = osp_core::MAX_HORIZON;
    for (id, mechanism, horizon) in [
        (3, Mechanism::AddOn, u32::MAX),
        (4, Mechanism::AddOn, max + 1),
        (5, Mechanism::SubstOn, u32::MAX),
    ] {
        let response = create(id, mechanism, horizon, None);
        assert_eq!(
            error_code_of(&response),
            "bad_create",
            "{mechanism:?} {horizon}"
        );
    }
    // None of the rejects registered a game, and the bound itself is
    // accepted.
    assert!(matches!(
        create(4, Mechanism::AddOn, max, None).reply,
        Reply::Created { .. }
    ));
    let _ = pool.shutdown();
}

/// The report inside a `slot` / `subst_slot` reply, without the game id.
fn tick_report(pool: &ShardPool, id: u64, game: u64, slot: u32) -> serde_json::Value {
    let reply = pool
        .call(req(
            id,
            Op::Tick {
                game: GameId(game),
                slot: Some(slot),
            },
        ))
        .reply;
    let value = serde_json::to_value(&reply).unwrap();
    ["slot", "subst_slot"]
        .iter()
        .find_map(|kind| value.get(kind).and_then(|inner| inner.get("report")))
        .cloned()
        .unwrap_or_else(|| panic!("expected a slot reply, got {reply:?}"))
}

fn final_outcome(pool: &ShardPool, id: u64, game: u64) -> FinalOutcome {
    let doc = match pool
        .call(req(id, Op::Snapshot { game: GameId(game) }))
        .reply
    {
        Reply::Snapshot { doc, .. } => doc,
        other => panic!("expected a snapshot, got {other:?}"),
    };
    match decode_snapshot(&doc).expect("snapshot decodes") {
        GameState::Add(state) => FinalOutcome::Add(state.finish().expect("finished game")),
        GameState::Subst(state) => FinalOutcome::Subst(state.finish().expect("finished game")),
    }
}

/// Snapshot documents recorded before the lane scan and the AddOn slot
/// pipeline folded into the production engine carry `"engine":
/// "Columnar"` or `"Pipelined"` (and a solver `columnar` flag). They
/// still restore, as the production engine, and finish exactly like the
/// rebuild oracle playing the same game.
#[test]
fn snapshots_recorded_under_retired_engine_names_restore() {
    let recorded: Vec<serde_json::Value> =
        serde_json::from_str(include_str!("fixtures/retired_engine_snapshots.json")).unwrap();
    assert_eq!(recorded.len(), 4);
    // The games the fixtures were recorded from, after slot 1.
    let addon_bids: [(u32, u32, &[&str], &[u32]); 4] = [
        (0, 1, &["6", "6", "6"], &[]),
        (1, 1, &["5", "4", "3"], &[]),
        (2, 2, &["1.5", "2.25", "3"], &[]),
        (3, 3, &["2", "2"], &[]),
    ];
    let subst_bids: [(u32, u32, &[&str], &[u32]); 4] = [
        (0, 1, &["4", "4"], &[0, 1]),
        (1, 1, &["3", "3", "3"], &[1]),
        (2, 2, &["6", "1"], &[0]),
        (3, 2, &["2.5", "2.5", "2.5"], &[0, 1]),
    ];
    let pool = pool();
    for (k, entry) in recorded.iter().enumerate() {
        let engine = entry["engine"].as_str().unwrap();
        let doc: SnapshotDoc = serde_json::from_value(entry["doc"].clone()).unwrap();
        assert!(
            serde_json::to_string(&entry["doc"])
                .unwrap()
                .contains(&format!("\"engine\":\"{engine}\"")),
            "fixture {k} must carry its retired engine name"
        );
        let subst = doc.mechanism.is_subst();
        let (restored, oracle) = (100 + 2 * k as u64, 101 + 2 * k as u64);
        let base = 1_000 * (k as u64 + 1);
        assert!(matches!(
            pool.call(req(
                base,
                Op::Restore {
                    game: GameId(restored),
                    doc
                }
            ))
            .reply,
            Reply::Restored { .. }
        ));
        assert!(matches!(
            pool.call(req(
                base + 1,
                Op::Create {
                    game: GameId(oracle),
                    mechanism: if subst {
                        Mechanism::SubstOn
                    } else {
                        Mechanism::AddOn
                    },
                    horizon: 4,
                    costs: if subst {
                        vec!["10".into(), "7".into()]
                    } else {
                        vec!["10".into()]
                    },
                    engine: Some("rebuild".into()),
                    seed: None,
                },
            ))
            .reply,
            Reply::Created { .. }
        ));
        let bids = if subst { &subst_bids } else { &addon_bids };
        for &(user, start, values, substitutes) in bids {
            let response = pool.call(req(
                base + 10 + u64::from(user),
                Op::Arrive {
                    game: GameId(oracle),
                    user,
                    start,
                    values: values.iter().map(|v| (*v).to_string()).collect(),
                    substitutes: substitutes.to_vec(),
                },
            ));
            assert!(matches!(response.reply, Reply::Submitted { .. }));
        }
        tick_report(&pool, base + 20, oracle, 1);
        for t in 2..=4u32 {
            let id = base + 30 + 2 * u64::from(t);
            assert_eq!(
                tick_report(&pool, id, restored, t),
                tick_report(&pool, id + 1, oracle, t),
                "{engine} fixture {k}: slot {t} diverged from rebuild"
            );
        }
        assert_eq!(
            final_outcome(&pool, base + 50, restored),
            final_outcome(&pool, base + 51, oracle),
            "{engine} fixture {k}"
        );
    }
    let _ = pool.shutdown();
}
