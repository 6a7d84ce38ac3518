//! The direct wire codec against the serde derives it must match.
//!
//! Every request line the script generator produces, and many
//! mutations of those lines, must decode exactly as
//! `serde_json::from_str` decodes them: the same `Request`, or an error
//! with the same message. Every reply the sequential oracle produces,
//! and replies built around edge values, must encode to the bytes
//! `serde_json::to_string` prints, plus a newline.

use std::collections::{BTreeMap, BTreeSet};

use osp_core::addon::SlotReport;
use osp_core::prelude::Engine;
use osp_core::subston::SubstSlotReport;
use osp_econ::{Money, OptId, Ratio, SlotId, UserId};
use osp_server::codec::{decode_request, encode_response, scan_request};
use osp_server::protocol::{GameId, Mechanism, Op, Reply, Request, Response, ShardStat};
use osp_server::script::{self, ScriptConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Asserts that the codec decodes `line` exactly as serde does.
fn decodes_like_serde(line: &str) {
    let direct = decode_request(line);
    let serde: Result<Request, serde_json::Error> = serde_json::from_str(line);
    match (&direct, &serde) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{line:?}"),
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{line:?}"),
        _ => panic!("{line:?}: codec {direct:?}, serde {serde:?}"),
    }
}

/// Asserts that the codec encodes `response` exactly as serde does.
fn encodes_like_serde(response: &Response) {
    let mut out = Vec::new();
    encode_response(&mut out, response).expect("replies encode");
    let expect = serde_json::to_string(response).unwrap() + "\n";
    assert_eq!(String::from_utf8(out).unwrap(), expect);
}

fn generated() -> Vec<Request> {
    let mut requests = script::generate(&ScriptConfig::differential());
    let next = requests.len() as u64 + 1;
    requests.push(Request {
        id: next,
        op: Op::Stats,
    });
    requests.push(Request {
        id: next + 1,
        op: Op::Shutdown,
    });
    requests
}

/// One generated line per operation kind, the seeds of the mutations.
fn one_line_per_op() -> Vec<String> {
    let mut seen = BTreeSet::new();
    let mut lines = Vec::new();
    for request in generated() {
        let line = serde_json::to_string(&request).unwrap();
        let kind = line[line.find("\"op\":").unwrap()..]
            .chars()
            .take(12)
            .collect::<String>();
        if seen.insert(kind) {
            lines.push(line);
        }
    }
    lines.push(
        r#"{"id":3,"op":{"create":{"costs":["1.5","2"],"engine":"rebuild","game":4,"horizon":2,"mechanism":"subston","seed":77}}}"#
            .to_string(),
    );
    assert!(lines.len() >= 8, "{lines:?}");
    lines
}

#[test]
fn generated_requests_take_the_direct_path() {
    let requests = generated();
    let mechanisms: BTreeSet<String> = requests
        .iter()
        .filter_map(|r| match &r.op {
            Op::Create { mechanism, .. } => Some(format!("{mechanism:?}")),
            _ => None,
        })
        .collect();
    assert_eq!(mechanisms.len(), 4, "{mechanisms:?}");
    for request in &requests {
        let line = serde_json::to_string(request).unwrap();
        assert_eq!(scan_request(&line).as_ref(), Some(request), "{line}");
        decodes_like_serde(&line);
    }
}

#[test]
fn whitespace_key_order_and_defaults_stay_on_the_direct_path() {
    for line in [
        " {\t\"op\" :\r\n{ \"arrive\" : { \"values\" : [ \"1.5\" , \"0\" ] , \"substitutes\" : [ 2 , 0 ] , \"start\" : 3 , \"user\" : 7 , \"game\" : 9 } } , \"id\" : 12 } ",
        r#"{"op":{"revise":{"values":["2"],"from":2,"user":1,"game":0}},"id":1}"#,
        r#"{"op":{"create":{"seed":null,"mechanism":"addoff","engine":null,"costs":[],"game":5}}}"#,
        r#"{"id":0,"op":{"arrive":{"game":1,"user":2,"values":[]}}}"#,
        r#"{"op":{"tick":{"slot":null,"game":18446744073709551615}},"id":18446744073709551615}"#,
        r#"{"id":4,"op":{"tick":{"game":1}}}"#,
        r#"{"id":4,"op":{"expire":{"user":4294967295,"game":0}}}"#,
        r#"{"id":4,"op":{"price":{"game":3}}}"#,
        r#"{"id":4,"op":{"snapshot":{"game":3}}}"#,
        r#"{"op":"stats"}"#,
        "{\"id\":9,\"op\":\"shutdown\"}\n",
    ] {
        assert!(scan_request(line).is_some(), "{line:?}");
        decodes_like_serde(line);
    }
}

#[test]
fn irregular_lines_decode_like_serde() {
    let lines = [
        // Duplicate and unknown keys, at every level.
        r#"{"id":1,"id":2,"op":"stats"}"#,
        r#"{"id":1,"op":"stats","op":"shutdown"}"#,
        r#"{"id":1,"op":"stats","extra":[1,{"a":null}]}"#,
        r#"{"id":1,"op":{"tick":{"game":1,"game":2}}}"#,
        r#"{"id":1,"op":{"tick":{"game":1,"user":2}}}"#,
        r#"{"id":1,"op":{"tick":{"game":1},"tick":{"game":2}}}"#,
        r#"{"id":1,"op":{"tick":{"game":1},"price":{"game":2}}}"#,
        r#"{"id":1,"op":{"arrive":{"game":1,"user":2,"values":["1"],"values":["2"]}}}"#,
        // Escapes in keys, tags and values.
        r#"{"id":1,"op":{"arrive":{"game":1,"user":2,"values":["1\u002e5"]}}}"#,
        r#"{"id":1,"op":{"arrive":{"game":1,"user":2,"values":["\u0031","2\/3"]}}}"#,
        r#"{"i\u0064":1,"op":"stats"}"#,
        r#"{"id":1,"op":"st\u0061ts"}"#,
        r#"{"id":1,"op":{"\u0074ick":{"game":1}}}"#,
        r#"{"id":1,"op":{"create":{"game":1,"mechanism":"add\u006fn","costs":["1"]}}}"#,
        r#"{"id":1,"op":{"create":{"game":1,"mechanism":"addon","costs":["1\\"]}}}"#,
        // Non-ASCII and control characters in strings.
        "{\"id\":1,\"op\":{\"arrive\":{\"game\":1,\"user\":2,\"values\":[\"1.5€\"]}}}",
        "{\"id\":1,\"op\":{\"arrive\":{\"game\":1,\"user\":2,\"values\":[\"1\t5\"]}}}",
        "{\"id\":1,\"op\":{\"arrive\":{\"game\":1,\"user\":2,\"values\":[\"1\u{7f}\"]}}}",
        "{\"id\":1,\"op\":{\"arrive\":{\"game\":1,\"user\":2,\"values\":[\"1\u{85}\"]}}}",
        // `null` in optional and in required fields.
        r#"{"id":1,"op":{"tick":{"game":1,"slot":null}}}"#,
        r#"{"id":1,"op":{"create":{"game":1,"mechanism":"addon","costs":["1"],"engine":null,"seed":null}}}"#,
        r#"{"id":null,"op":"stats"}"#,
        r#"{"id":1,"op":null}"#,
        r#"{"id":1,"op":{"tick":{"game":null}}}"#,
        r#"{"id":1,"op":{"arrive":{"game":1,"user":null,"values":["1"]}}}"#,
        r#"{"id":1,"op":{"arrive":{"game":1,"user":2,"start":null,"values":["1"]}}}"#,
        r#"{"id":1,"op":{"arrive":{"game":1,"user":2,"values":null}}}"#,
        r#"{"id":1,"op":{"arrive":{"game":1,"user":2,"values":["1"],"substitutes":null}}}"#,
        r#"{"id":1,"op":{"arrive":{"game":1,"user":2,"values":[null]}}}"#,
        r#"{"id":1,"op":{"create":{"game":1,"mechanism":"addon","horizon":null,"costs":["1"]}}}"#,
        r#"{"id":1,"op":{"create":{"game":1,"mechanism":null,"costs":["1"]}}}"#,
        r#"{"id":1,"op":{"revise":{"game":1,"user":2,"from":null,"values":["1"]}}}"#,
        // Integral floats, exponents, signs, leading zeros.
        r#"{"id":5.0,"op":"stats"}"#,
        r#"{"id":1,"op":{"expire":{"game":1e2,"user":5.0}}}"#,
        r#"{"id":1,"op":{"expire":{"game":1,"user":5.5}}}"#,
        r#"{"id":1,"op":{"tick":{"game":1,"slot":2.0}}}"#,
        r#"{"id":1,"op":{"create":{"game":1,"mechanism":"addon","costs":["1"],"seed":1E1}}}"#,
        r#"{"id":1,"op":{"arrive":{"game":1,"user":2,"values":["1"],"substitutes":[0.0,1]}}}"#,
        r#"{"id":1,"op":{"expire":{"game":1,"user":9007199254740993.0}}}"#,
        r#"{"id":-0,"op":"stats"}"#,
        r#"{"id":-1,"op":"stats"}"#,
        r#"{"id":01,"op":"stats"}"#,
        r#"{"id":00,"op":"stats"}"#,
        // u32 and u64 limits, ±1.
        r#"{"id":18446744073709551615,"op":"stats"}"#,
        r#"{"id":18446744073709551616,"op":"stats"}"#,
        r#"{"id":1,"op":{"expire":{"game":18446744073709551614,"user":4294967294}}}"#,
        r#"{"id":1,"op":{"expire":{"game":18446744073709551616,"user":1}}}"#,
        r#"{"id":1,"op":{"expire":{"game":1,"user":4294967295}}}"#,
        r#"{"id":1,"op":{"expire":{"game":1,"user":4294967296}}}"#,
        r#"{"id":1,"op":{"tick":{"game":1,"slot":4294967296}}}"#,
        r#"{"id":1,"op":{"create":{"game":1,"mechanism":"addon","horizon":4294967296,"costs":["1"]}}}"#,
        r#"{"id":1,"op":{"create":{"game":1,"mechanism":"addon","costs":["1"],"seed":18446744073709551616}}}"#,
        r#"{"id":1,"op":{"arrive":{"game":1,"user":2,"values":["1"],"substitutes":[4294967296]}}}"#,
        r#"{"id":340282366920938463463374607431768211456,"op":"stats"}"#,
        // Wrong shapes, unknown ops, restore, malformed JSON.
        r#"{"id":1,"op":"tick"}"#,
        r#"{"id":1,"op":{"stats":{}}}"#,
        r#"{"id":1,"op":{}}"#,
        r#"{"id":1,"op":{"launch":{"game":1}}}"#,
        r#"{"id":1,"op":{"create":{"game":1,"mechanism":"quadratic","costs":["1"]}}}"#,
        r#"{"id":1,"op":{"arrive":{"game":1,"user":2,"values":"1"}}}"#,
        r#"{"id":1,"op":{"arrive":{"game":1,"user":2,"values":[1]}}}"#,
        r#"{"id":1,"op":{"arrive":{"game":1,"user":"2","values":["1"]}}}"#,
        r#"{"id":1,"op":{"restore":{"game":1,"doc":{"format_version":1,"mechanism":"addon"}}}}"#,
        r#"{"id":1,"op":{"restore":{"game":1}}}"#,
        r#"{"id":1}"#,
        r#"{}"#,
        r#"[]"#,
        r#""stats""#,
        r#"{"id":1,"op":"stats"} {"id":2}"#,
        r#"{"id":1,"op":"stats"}x"#,
        r#"{"id":1,"op":"stats",}"#,
        r#"{"id":1,,"op":"stats"}"#,
        r#"{"id":1 "op":"stats"}"#,
        r#"{"id" 1,"op":"stats"}"#,
        r#"{"id":1,"op":{"tick":{"game":1}}"#,
        r#"{"id":1,"op":{"arrive":{"game":1,"user":2,"values":["1",]}}}"#,
        r#"{"id":1,"op":{"tick":{"game":1,"slot":nul}}}"#,
        r#"{"id":1,"op":{"tick":{"game":1,"slot":nullx}}}"#,
        r#"{"id":1,"op":{"tick":{"game":1,"slot":nul }}}"#,
        "{\"id\":1,\"op\":\"stats\"}\u{b}",
        "\u{c}{\"id\":1,\"op\":\"stats\"}",
        "",
        "   ",
    ];
    for line in lines {
        decodes_like_serde(line);
    }
}

#[test]
fn byte_level_mutations_decode_like_serde() {
    let seeds = one_line_per_op();
    for line in &seeds {
        let bytes = line.as_bytes();
        for at in 0..=bytes.len() {
            let mut variants = vec![
                [&bytes[..at], b" ", &bytes[at..]].concat(),
                [&bytes[..at], b"\"", &bytes[at..]].concat(),
                [&bytes[..at], b"0", &bytes[at..]].concat(),
                bytes[..at].to_vec(),
            ];
            if at < bytes.len() {
                variants.push([&bytes[..at], &bytes[at + 1..]].concat());
                variants.push([&bytes[..=at], &bytes[at..]].concat());
            }
            for variant in variants {
                decodes_like_serde(std::str::from_utf8(&variant).unwrap());
            }
        }
    }

    // Random edits drawn from JSON's own alphabet.
    let alphabet: Vec<&str> =
        r#"{|}|[|]|"|:|,| |0|1|9|-|.|e|null|\|\u0030|é|game|"id"|4294967296|18446744073709551616"#
            .split('|')
            .collect();
    let mut rng = StdRng::seed_from_u64(0xc0de);
    for _ in 0..20_000 {
        let mut line = seeds[rng.gen_range(0..seeds.len())].clone();
        for _ in 0..rng.gen_range(1..4) {
            let mut at = rng.gen_range(0..=line.len());
            while !line.is_char_boundary(at) {
                at -= 1;
            }
            match rng.gen_range(0..3) {
                0 => line.insert_str(at, alphabet[rng.gen_range(0..alphabet.len())]),
                1 if at < line.len() => {
                    line.remove(at);
                }
                _ => line.truncate(at),
            }
        }
        decodes_like_serde(&line);
    }
}

#[test]
fn oracle_replies_encode_like_serde() {
    let requests = script::generate(&ScriptConfig::differential());
    let oracle = script::oracle(&requests, Engine::Rebuild, 4);
    let mut kinds = BTreeSet::new();
    for response in &oracle.responses {
        let line = serde_json::to_string(response).unwrap();
        kinds.insert(line.split('"').nth(5).unwrap().to_string());
        encodes_like_serde(response);
    }
    for kind in [
        "created",
        "submitted",
        "revised",
        "status",
        "slot",
        "subst_slot",
        "price",
        "snapshot",
        "error",
    ] {
        assert!(kinds.contains(kind), "no {kind} reply in {kinds:?}");
    }
}

#[test]
fn edge_replies_encode_like_serde() {
    let huge = Money::from_ratio(Ratio::new(i128::MAX, 7));
    let tiny = Money::from_ratio(Ratio::new(-i128::MAX, 3));
    let stat = |shard: u32, n: u64| ShardStat {
        shard,
        games: n,
        events: n.wrapping_mul(3),
        queue_depth: n / 2,
        recoveries: n % 5,
    };
    let mut replies = vec![
        Reply::Created {
            game: GameId(u64::MAX),
            mechanism: Mechanism::SubstOff,
            shard: u32::MAX,
        },
        Reply::Restored {
            game: GameId(0),
            shard: 3,
        },
        Reply::Status {
            game: GameId(1),
            user: UserId(u32::MAX),
            expired: true,
            serviced: false,
            payment: None,
        },
        Reply::Status {
            game: GameId(1),
            user: UserId(0),
            expired: false,
            serviced: true,
            payment: Some(tiny),
        },
        Reply::Slot {
            game: GameId(2),
            report: SlotReport {
                slot: SlotId(u32::MAX),
                active: BTreeSet::new(),
                newly_serviced: BTreeSet::new(),
                share: None,
                payments: Vec::new(),
            },
        },
        Reply::Slot {
            game: GameId(2),
            report: SlotReport {
                slot: SlotId(1),
                active: [UserId(0), UserId(7), UserId(u32::MAX)]
                    .into_iter()
                    .collect(),
                newly_serviced: [UserId(7)].into_iter().collect(),
                share: Some(huge),
                payments: vec![(UserId(3), Money::from_cents(-5)), (UserId(4), huge)],
            },
        },
        Reply::SubstSlot {
            game: GameId(9),
            report: SubstSlotReport {
                slot: SlotId(4),
                newly_assigned: BTreeMap::from([(UserId(1), OptId(0)), (UserId(2), OptId(5))]),
                payments: vec![(UserId(1), Money::ZERO)],
            },
        },
        Reply::Price {
            game: GameId(5),
            now: SlotId(3),
            horizon: 20,
            done: false,
            share: None,
            implemented: Vec::new(),
        },
        Reply::Price {
            game: GameId(5),
            now: SlotId(21),
            horizon: 20,
            done: true,
            share: Some(Money::from_cents(1)),
            implemented: vec![OptId(0), OptId(2)],
        },
        Reply::Stats { shards: Vec::new() },
        Reply::Stats {
            shards: vec![stat(0, 0), stat(1, u64::MAX)],
        },
        Reply::Bye {
            shards: vec![stat(0, 12_345)],
        },
    ];
    // `bad amount {s:?}` and other messages echo client input.
    let control: String = (0u8..0x20).map(char::from).collect();
    for message in [
        String::new(),
        "bad amount \"1.5\\\"x\"".to_string(),
        control,
        "tab\there, del\u{7f}, c1\u{85}\u{9f}, nbsp\u{a0}".to_string(),
        "é 😀 \u{2028} \\u0000 / end".to_string(),
    ] {
        replies.push(Reply::Error {
            code: "bad_request".to_string(),
            message,
        });
    }
    for (k, reply) in replies.into_iter().enumerate() {
        for id in [0, k as u64, u64::MAX] {
            encodes_like_serde(&Response {
                id,
                reply: reply.clone(),
            });
        }
    }
}

#[test]
fn encoding_appends_one_line_per_response() {
    let first = Response::error(1, "unknown_game", "no game g9");
    let second = Response {
        id: 2,
        reply: Reply::Stats { shards: Vec::new() },
    };
    let mut out = b"kept".to_vec();
    encode_response(&mut out, &first).unwrap();
    encode_response(&mut out, &second).unwrap();
    let expect = format!(
        "kept{}\n{}\n",
        serde_json::to_string(&first).unwrap(),
        serde_json::to_string(&second).unwrap()
    );
    assert_eq!(String::from_utf8(out).unwrap(), expect);
}
