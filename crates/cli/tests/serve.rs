//! End-to-end tests of the `osp` binary: the pipe-mode server replays
//! a 100-game trace and must agree with the sequential oracle, and
//! checkpoint/resume round-trips a game through disk.

use std::io::Write;
use std::process::{Command, Stdio};

use osp_core::prelude::Engine;
use osp_server::game::{decode_snapshot, FinalOutcome, GameState};
use osp_server::protocol::{Reply, Request, Response, SnapshotDoc};
use osp_server::script::{self, ScriptConfig};

fn osp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_osp"))
}

fn outcome_of(doc: &SnapshotDoc) -> FinalOutcome {
    match decode_snapshot(doc).expect("snapshot decodes") {
        GameState::Add(state) => FinalOutcome::Add(state.finish().expect("finished game")),
        GameState::Subst(state) => FinalOutcome::Subst(state.finish().expect("finished game")),
    }
}

#[test]
fn pipe_server_smoke_100_games_matches_oracle() {
    let cfg = ScriptConfig::smoke(100);
    let requests = script::generate(&cfg);
    let shutdown_id = requests.len() as u64 + 1;

    let mut child = osp()
        .args(["serve", "--shards", "4", "--queue-cap", "64"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn osp serve");
    {
        let stdin = child.stdin.as_mut().expect("piped stdin");
        let mut feed = String::new();
        for request in &requests {
            feed.push_str(&serde_json::to_string(request).unwrap());
            feed.push('\n');
        }
        feed.push_str(
            &serde_json::to_string(&Request {
                id: shutdown_id,
                op: osp_server::protocol::Op::Shutdown,
            })
            .unwrap(),
        );
        feed.push('\n');
        stdin.write_all(feed.as_bytes()).expect("feed the trace");
    }
    let output = child.wait_with_output().expect("osp serve exits");
    assert!(
        output.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    let stdout = String::from_utf8(output.stdout).expect("utf-8 responses");
    let mut responses: Vec<Response> = stdout
        .lines()
        .map(|line| serde_json::from_str(line).expect("each line parses"))
        .collect();
    assert_eq!(responses.len(), requests.len() + 1);

    // The final line is the shutdown acknowledgement.
    let bye = responses.pop().unwrap();
    assert_eq!(bye.id, shutdown_id);
    match bye.reply {
        Reply::Bye { shards } => {
            assert_eq!(shards.len(), 4);
            assert_eq!(
                shards.iter().map(|s| s.events).sum::<u64>(),
                requests.len() as u64
            );
            assert!(shards.iter().all(|s| s.queue_depth == 0));
        }
        other => panic!("expected bye, got {other:?}"),
    }

    responses.sort_by_key(|r| r.id);
    let oracle = script::oracle(&requests, Engine::Rebuild, 4);
    for (served, expected) in responses.iter().zip(&oracle.responses) {
        assert_eq!(served.id, expected.id);
        match (&served.reply, &expected.reply) {
            (Reply::Snapshot { game, doc }, Reply::Snapshot { game: g2, doc: d2 }) => {
                assert_eq!(game, g2);
                assert_eq!(outcome_of(doc), outcome_of(d2), "game {game}");
            }
            _ => assert_eq!(served, expected),
        }
    }
}

/// The engines folded into `incremental` are no longer `--engine`
/// values: the server refuses to start and names the two that are.
#[test]
fn serve_rejects_retired_engine_names() {
    for retired in ["columnar", "pipelined"] {
        let output = osp()
            .args(["serve", "--engine", retired])
            .stdin(Stdio::null())
            .output()
            .unwrap();
        assert!(
            !output.status.success(),
            "--engine {retired} must be refused"
        );
        let stderr = String::from_utf8(output.stderr).unwrap();
        assert!(
            stderr.contains(&format!("unknown engine `{retired}`"))
                && stderr.contains("incremental or rebuild"),
            "{stderr}"
        );
    }
}

/// A `create` whose horizon is far past `MAX_HORIZON` is a typed
/// `bad_create`, not an allocation that aborts the process: the server
/// stays up and prices another game on the same (single) shard exactly
/// like the rebuild oracle.
#[test]
fn pipe_server_survives_an_oversized_horizon() {
    use osp_server::protocol::{GameId, Mechanism, Op};
    let create = |id: u64, game: u64, horizon: u32| Request {
        id,
        op: Op::Create {
            game: GameId(game),
            mechanism: Mechanism::AddOn,
            horizon,
            costs: vec!["10".into()],
            engine: None,
            seed: None,
        },
    };
    let mut requests = vec![create(1, 1, u32::MAX), create(2, 2, 3)];
    for (user, values) in [(0u32, ["6", "6", "6"]), (1, ["5", "4", "3"])] {
        requests.push(Request {
            id: 10 + u64::from(user),
            op: Op::Arrive {
                game: GameId(2),
                user,
                start: 1,
                values: values.iter().map(|v| (*v).to_string()).collect(),
                substitutes: Vec::new(),
            },
        });
    }
    for slot in 1..=3u32 {
        requests.push(Request {
            id: 20 + u64::from(slot),
            op: Op::Tick {
                game: GameId(2),
                slot: Some(slot),
            },
        });
    }
    requests.push(Request {
        id: 30,
        op: Op::Snapshot { game: GameId(2) },
    });

    let responses = serve_once(&["--shards", "1"], &requests);
    assert_eq!(responses.len(), requests.len());
    assert!(
        matches!(&responses[0].reply, Reply::Error { code, .. } if code == "bad_create"),
        "{:?}",
        responses[0]
    );
    let oracle = script::oracle(&requests, Engine::Rebuild, 1);
    for (served, expected) in responses.iter().zip(&oracle.responses) {
        assert_eq!(served.id, expected.id);
        match (&served.reply, &expected.reply) {
            (Reply::Snapshot { doc, .. }, Reply::Snapshot { doc: d2, .. }) => {
                assert_eq!(outcome_of(doc), outcome_of(d2));
            }
            _ => assert_eq!(served, expected),
        }
    }
    assert!(responses
        .iter()
        .any(|r| matches!(&r.reply, Reply::Slot { report, .. } if report.share.is_some())));
}

#[test]
fn malformed_lines_get_bad_request_replies() {
    let mut child = osp()
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn osp serve");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(
            b"this is not json\n\xff\xfe\n{\"id\": 3, \"op\": \"stats\"}\n{\"id\": 4, \"op\": \"shutdown\"}\n",
        )
        .unwrap();
    let output = child.wait_with_output().expect("osp serve exits");
    assert!(output.status.success());
    let lines: Vec<Response> = String::from_utf8(output.stdout)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    // The non-UTF-8 line is answered like any other malformed line, and
    // the session goes on to the real `shutdown`.
    assert_eq!(lines.len(), 4, "{lines:?}");
    for bad in &lines[..2] {
        assert!(
            bad.id == 0 && matches!(&bad.reply, Reply::Error { code, .. } if code == "bad_request"),
            "{bad:?}"
        );
    }
    assert!(matches!(&lines[2].reply, Reply::Stats { .. }));
    assert_eq!(lines[3].id, 4);
    assert!(matches!(&lines[3].reply, Reply::Bye { .. }));
}

#[test]
fn checkpoint_resume_round_trips_on_disk() {
    let dir = std::env::temp_dir().join(format!("osp-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let game = dir.join("game.json");
    let state = dir.join("state.json");

    let template = osp().args(["example", "addon"]).output().unwrap();
    assert!(template.status.success());
    std::fs::write(&game, &template.stdout).unwrap();

    let checkpoint = osp()
        .args([
            "checkpoint",
            game.to_str().unwrap(),
            "--at",
            "3",
            "--out",
            state.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        checkpoint.status.success(),
        "{}",
        String::from_utf8_lossy(&checkpoint.stderr)
    );
    let doc: SnapshotDoc = serde_json::from_str(&std::fs::read_to_string(&state).unwrap()).unwrap();
    assert_eq!(doc.addon.len(), 1);

    let resume = osp()
        .args(["resume", state.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        resume.status.success(),
        "{}",
        String::from_utf8_lossy(&resume.stderr)
    );
    let text = String::from_utf8(resume.stdout).unwrap();
    assert!(text.contains("collected"), "{text}");

    // The checkpointed state restores into a running server, too.
    let restore_req = Request {
        id: 1,
        op: osp_server::protocol::Op::Restore {
            game: osp_server::protocol::GameId(1),
            doc,
        },
    };
    let mut child = osp()
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(
            format!(
                "{}\n{}\n",
                serde_json::to_string(&restore_req).unwrap(),
                r#"{"id": 2, "op": "shutdown"}"#
            )
            .as_bytes(),
        )
        .unwrap();
    let output = child.wait_with_output().unwrap();
    let lines: Vec<Response> = String::from_utf8(output.stdout)
        .unwrap()
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert!(
        matches!(&lines[0].reply, Reply::Restored { .. }),
        "{:?}",
        lines[0]
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_mentions_every_subcommand() {
    let output = osp().output().unwrap();
    assert!(!output.status.success());
    let usage = String::from_utf8(output.stderr).unwrap();
    for subcommand in [
        "run",
        "validate",
        "example",
        "serve",
        "checkpoint",
        "resume",
        "workloads",
    ] {
        assert!(usage.contains(subcommand), "usage lacks `{subcommand}`");
    }
    for flag in [
        "--tiebreak",
        "--compare-regret",
        "--json",
        "--shards",
        "--queue-cap",
        "--engine",
        "--socket",
        "--at",
        "--out",
        "--wal-dir",
        "--checkpoint-every",
        "--wal",
    ] {
        assert!(usage.contains(flag), "usage lacks `{flag}`");
    }
}

/// Feeds `requests` (plus a shutdown) through one `osp serve` life and
/// returns its responses minus the bye line, sorted by id.
fn serve_once(extra_args: &[&str], requests: &[Request]) -> Vec<Response> {
    let shutdown_id = 1_000_000u64;
    let mut child = osp()
        .args(
            ["serve"]
                .iter()
                .chain(extra_args)
                .copied()
                .collect::<Vec<_>>(),
        )
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn osp serve");
    {
        let stdin = child.stdin.as_mut().expect("piped stdin");
        let mut feed = String::new();
        for request in requests {
            feed.push_str(&serde_json::to_string(request).unwrap());
            feed.push('\n');
        }
        feed.push_str(
            &serde_json::to_string(&Request {
                id: shutdown_id,
                op: osp_server::protocol::Op::Shutdown,
            })
            .unwrap(),
        );
        feed.push('\n');
        stdin.write_all(feed.as_bytes()).expect("feed the trace");
    }
    let output = child.wait_with_output().expect("osp serve exits");
    assert!(
        output.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let mut responses: Vec<Response> = String::from_utf8(output.stdout)
        .expect("utf-8 responses")
        .lines()
        .map(|line| serde_json::from_str(line).expect("each line parses"))
        .collect();
    let bye = responses.pop().expect("shutdown acknowledgement");
    assert!(matches!(bye.reply, Reply::Bye { .. }), "{bye:?}");
    responses.sort_by_key(|r| r.id);
    responses
}

/// The durability satellite end-to-end: a `--wal-dir` server killed
/// cleanly between two lives keeps its games — the second life
/// snapshots them identically to a never-restarted oracle — and the
/// on-disk checkpoint + log pair feeds `osp resume` offline.
#[test]
fn wal_dir_persists_games_across_server_restarts_and_feeds_resume() {
    let dir = std::env::temp_dir().join(format!("osp-wal-e2e-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let dir_str = dir.to_str().unwrap();

    let cfg = ScriptConfig::smoke(6);
    let requests = script::generate(&cfg);
    let oracle = script::oracle(&requests, Engine::Rebuild, 1);
    let split = requests
        .iter()
        .position(|r| matches!(r.op, osp_server::protocol::Op::Snapshot { .. }))
        .expect("trace ends with snapshots");

    // First life: everything except the final snapshots. One shard so
    // every game lands in shard-0.{wal,ckpt}; checkpoint every 8
    // events so the pair on disk is checkpoint + log suffix, not one
    // giant log.
    let serve_args = [
        "--shards",
        "1",
        "--wal-dir",
        dir_str,
        "--checkpoint-every",
        "8",
    ];
    let first = serve_once(&serve_args, &requests[..split]);
    assert_eq!(first.len(), split);
    assert!(dir.join("shard-0.wal").exists(), "no WAL was written");
    assert!(dir.join("shard-0.ckpt").exists(), "no checkpoint was cut");

    // Second life on the same directory: nothing re-driven, yet every
    // game snapshots to the oracle's outcome.
    let second = serve_once(&serve_args, &requests[split..]);
    assert_eq!(second.len(), requests.len() - split);
    let mut compared = 0usize;
    for (served, expected) in second.iter().zip(&oracle.responses[split..]) {
        assert_eq!(served.id, expected.id);
        match (&served.reply, &expected.reply) {
            (Reply::Snapshot { game, doc }, Reply::Snapshot { game: g2, doc: d2 }) => {
                assert_eq!(game, g2);
                assert_eq!(outcome_of(doc), outcome_of(d2), "game {game}");
                compared += 1;
            }
            _ => assert_eq!(served, expected),
        }
    }
    assert_eq!(compared, cfg.games as usize);

    // The same artifacts resume offline: checkpoint + WAL replay,
    // every game played out to final prices.
    let resume = osp()
        .args([
            "resume",
            dir.join("shard-0.ckpt").to_str().unwrap(),
            "--wal",
            dir.join("shard-0.wal").to_str().unwrap(),
            "--json",
        ])
        .output()
        .unwrap();
    assert!(
        resume.status.success(),
        "{}",
        String::from_utf8_lossy(&resume.stderr)
    );
    let resumed: serde_json::Value =
        serde_json::from_str(&String::from_utf8(resume.stdout).unwrap()).unwrap();
    let serde_json::Value::Array(games) = resumed else {
        panic!("resume --json should print an array");
    };
    assert_eq!(games.len(), cfg.games as usize, "resume missed games");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn workloads_subcommand_lists_every_registered_source() {
    let output = osp().arg("workloads").output().unwrap();
    assert!(output.status.success());
    let listing = String::from_utf8(output.stdout).unwrap();
    for source in osp_workload::registry() {
        assert!(
            listing.contains(source.name()),
            "`osp workloads` lacks `{}`",
            source.name()
        );
        assert!(listing.contains(source.description()));
    }
}

#[test]
fn unix_socket_serves_and_shuts_down() {
    use std::io::{BufRead, BufReader};
    use std::os::unix::net::UnixStream;

    let path = std::env::temp_dir().join(format!("osp-sock-{}.sock", std::process::id()));
    let path_str = path.to_str().unwrap().to_string();
    let mut child = osp()
        .args(["serve", "--socket", &path_str, "--shards", "2"])
        .stderr(Stdio::null())
        .spawn()
        .unwrap();

    // Wait for the socket to appear.
    let mut stream = None;
    for _ in 0..200 {
        if let Ok(s) = UnixStream::connect(&path) {
            stream = Some(s);
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let stream = stream.expect("server opened its socket");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut stream = stream;

    // First connection: create a game, then disconnect.
    stream
        .write_all(
            b"{\"id\": 1, \"op\": {\"create\": {\"game\": 5, \"mechanism\": \"addon\", \"horizon\": 2, \"costs\": [\"10\"]}}}\n",
        )
        .unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let created: Response = serde_json::from_str(&line).unwrap();
    assert!(
        matches!(created.reply, Reply::Created { .. }),
        "{created:?}"
    );
    drop(stream);
    drop(reader);

    // Second connection: the game survived, and a non-UTF-8 line does
    // not drop the connection; shut the server down.
    let stream = UnixStream::connect(&path).expect("reconnect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut stream = stream;
    stream
        .write_all(
            b"\xff\n{\"id\": 2, \"op\": {\"price\": {\"game\": 5}}}\n{\"id\": 3, \"op\": \"shutdown\"}\n",
        )
        .unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let bad: Response = serde_json::from_str(&line).unwrap();
    assert!(
        matches!(&bad.reply, Reply::Error { code, .. } if code == "bad_request"),
        "{bad:?}"
    );
    line.clear();
    reader.read_line(&mut line).unwrap();
    let price: Response = serde_json::from_str(&line).unwrap();
    assert!(matches!(price.reply, Reply::Price { .. }), "{price:?}");
    line.clear();
    reader.read_line(&mut line).unwrap();
    let bye: Response = serde_json::from_str(&line).unwrap();
    assert!(matches!(bye.reply, Reply::Bye { .. }), "{bye:?}");

    let status = child.wait().unwrap();
    assert!(status.success());
    assert!(!path.exists(), "socket file was cleaned up");
}

/// A shard killed mid-batch over the pipe. The whole trace arrives in
/// one write, so the server hands its shards real multi-request
/// batches; shard 0 dies at its 40th logged event. Every request still
/// gets exactly one reply, the victim's later requests are answered or
/// refused as `shard_recovering`, the other shard never notices, and
/// the session ends with `bye`.
#[test]
fn pipe_server_survives_a_shard_killed_mid_batch() {
    use std::collections::HashMap;

    let dir = std::env::temp_dir().join(format!("osp-midbatch-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let requests = script::generate(&ScriptConfig::smoke(30));
    assert!(requests.len() >= 300, "{} requests", requests.len());
    let oracle = script::oracle(&requests, Engine::Rebuild, 2);
    let shutdown_id = requests.len() as u64 + 1;

    let mut child = osp()
        .args(["serve", "--shards", "2", "--wal-dir", dir.to_str().unwrap()])
        .env("OSP_FAULT", "kill@40#0")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn osp serve");
    {
        let mut feed = String::new();
        for request in &requests {
            feed.push_str(&serde_json::to_string(request).unwrap());
            feed.push('\n');
        }
        feed.push_str(&format!("{{\"id\":{shutdown_id},\"op\":\"shutdown\"}}\n"));
        let stdin = child.stdin.as_mut().expect("piped stdin");
        stdin.write_all(feed.as_bytes()).expect("feed the trace");
    }
    let output = child.wait_with_output().expect("osp serve exits");
    assert!(
        output.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let mut responses: Vec<Response> = String::from_utf8(output.stdout)
        .expect("utf-8 responses")
        .lines()
        .map(|line| serde_json::from_str(line).expect("each line parses"))
        .collect();

    let bye = responses.pop().expect("the bye line");
    assert_eq!(bye.id, shutdown_id);
    let Reply::Bye { shards } = bye.reply else {
        panic!("expected bye, got {bye:?}");
    };
    assert_eq!(
        shards.iter().map(|s| s.recoveries).collect::<Vec<_>>(),
        [1, 0]
    );

    let mut by_id: HashMap<u64, Response> = HashMap::new();
    for response in responses {
        let id = response.id;
        assert!(
            by_id.insert(id, response).is_none(),
            "request {id} answered twice"
        );
    }
    assert_eq!(by_id.len(), requests.len(), "a request went unanswered");

    let mut crashed = false;
    for (request, expected) in requests.iter().zip(&oracle.responses) {
        let served = &by_id[&request.id];
        let game = request.op.game().expect("the script routes every op");
        let recovering =
            matches!(&served.reply, Reply::Error { code, .. } if code == "shard_recovering");
        if osp_server::shard_of(game, 2) == 0 {
            // The victim matches the oracle up to the crash; after it,
            // each request is answered or refused as recovering.
            crashed |= recovering;
            if crashed {
                continue;
            }
        } else {
            assert!(!recovering, "shard 1 was never down: {served:?}");
        }
        match (&served.reply, &expected.reply) {
            (Reply::Snapshot { game, doc }, Reply::Snapshot { game: g2, doc: d2 }) => {
                assert_eq!(game, g2);
                assert_eq!(outcome_of(doc), outcome_of(d2), "game {game}");
            }
            _ => assert_eq!(served, expected),
        }
    }
    assert!(crashed, "shard 0 never reported shard_recovering");

    std::fs::remove_dir_all(&dir).ok();
}
