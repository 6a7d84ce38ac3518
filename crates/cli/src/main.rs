//! `osp` — run shared-optimization pricing games from JSON files.
//!
//! ```text
//! osp example addon > game.json   # print a template
//! osp validate game.json          # check without running
//! osp run game.json               # run the mechanism, print the report
//! osp run game.json --compare-regret --json
//! ```

use std::process::ExitCode;

use osp_core::prelude::TieBreak;

mod checkpoint;
mod input;
mod report;
mod serve;

use input::GameKind;

fn usage() -> &'static str {
    "usage:
  osp run <game.json> [--tiebreak lowest|random:<seed>] [--compare-regret] [--json]
      Run the mechanism in the file and print the pricing report.
      --tiebreak        substitutable phase tie-break policy (default: lowest)
      --compare-regret  also run the regret-minimization baseline
      --json            machine-readable report instead of the table
  osp validate <game.json>
      Parse and compile the file without running it.
  osp example <addoff|addon|substoff|subston>
      Print a commented template game file for the given mechanism.
  osp serve [--shards <n>] [--queue-cap <n>]
            [--engine incremental|rebuild]
            [--socket <path>]
            [--wal-dir <dir>] [--checkpoint-every <events>]
      Run the sharded multi-game pricing server. Speaks line-delimited
      JSON requests/responses on stdin/stdout, or on a Unix socket with
      --socket. Defaults: 4 shards, queue cap 1024 requests per shard,
      incremental engine (the production engine; rebuild is the
      paper-literal oracle).
      --wal-dir makes the server durable: every state-changing request
      is appended to a per-shard write-ahead log before it is answered,
      and on startup (or after a shard crash) games are recovered from
      the newest checkpoint plus log replay. --checkpoint-every N
      additionally snapshots each shard's games every N logged events,
      truncating its log (requires --wal-dir; default off).
  osp checkpoint <game.json> --out <state.json> [--at <slot>]
                 [--tiebreak lowest|random:<seed>]
      Run the game's state machine up to (not including) slot <slot>
      (default 1) and write the serialized state. Online kinds only.
  osp resume [<state.json>] [--wal <segment.wal>] [--json]
      Load a checkpointed state, play out the remaining slots, and
      print the final outcome. The file may be a single-game snapshot
      (from `osp checkpoint` or the server's `snapshot` reply) or a
      durable shard's checkpoint (shard-<k>.ckpt, auto-detected);
      --wal replays that shard's log on top — or alone, with no
      positional file.
  osp workloads
      List every registered workload source (the generators behind the
      perf, differential, and server-load harnesses) with its
      mechanism, wire-safety, and description.

The game file format is shown by `osp example <kind>`: optimizations
with decimal-string costs, users with additive per-slot bids or
substitutable sets. Money strings parse exactly (no floats)."
}

fn parse_kind(s: &str) -> Option<GameKind> {
    match s {
        "addoff" => Some(GameKind::AddOff),
        "addon" => Some(GameKind::AddOn),
        "substoff" => Some(GameKind::SubstOff),
        "subston" => Some(GameKind::SubstOn),
        _ => None,
    }
}

fn parse_tiebreak(s: &str) -> Result<TieBreak, String> {
    if s == "lowest" {
        return Ok(TieBreak::LowestOptId);
    }
    if let Some(seed) = s.strip_prefix("random:") {
        return seed
            .parse()
            .map(TieBreak::Random)
            .map_err(|e| format!("bad seed in `{s}`: {e}"));
    }
    Err(format!("unknown tiebreak `{s}` (lowest | random:<seed>)"))
}

fn real_main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("example") => {
            let kind = args
                .get(1)
                .and_then(|s| parse_kind(s))
                .ok_or_else(|| usage().to_owned())?;
            println!("{}", input::template(kind));
            Ok(())
        }
        Some("validate") => {
            let path = args.get(1).ok_or_else(|| usage().to_owned())?;
            let json =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let compiled = input::parse(&json).map_err(|e| e.to_string())?;
            println!(
                "ok: {} users, {} optimizations, horizon {}",
                compiled.user_names.len(),
                compiled.opt_names.len(),
                compiled.horizon
            );
            Ok(())
        }
        Some("run") => {
            let path = args.get(1).ok_or_else(|| usage().to_owned())?;
            let mut tiebreak = TieBreak::LowestOptId;
            let mut compare_regret = false;
            let mut as_json = false;
            let mut it = args[2..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--tiebreak" => {
                        let v = it.next().ok_or("--tiebreak needs a value")?;
                        tiebreak = parse_tiebreak(v)?;
                    }
                    "--compare-regret" => compare_regret = true,
                    "--json" => as_json = true,
                    other => return Err(format!("unknown flag `{other}`\n{}", usage())),
                }
            }
            let json =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let compiled = input::parse(&json).map_err(|e| e.to_string())?;
            let report =
                report::run(&compiled, tiebreak, compare_regret).map_err(|e| e.to_string())?;
            if as_json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&report.to_json()).unwrap()
                );
            } else {
                print!("{}", report.render());
            }
            Ok(())
        }
        Some("serve") => serve::serve(&args[1..], usage()),
        Some("checkpoint") => checkpoint::checkpoint(&args[1..], usage()),
        Some("resume") => checkpoint::resume(&args[1..], usage()),
        Some("workloads") => {
            if args.len() > 1 {
                return Err(format!("workloads takes no arguments\n{}", usage()));
            }
            println!(
                "{:<20} {:<9} {:<4} description",
                "workload", "mechanism", "wire"
            );
            for source in osp_workload::registry() {
                println!(
                    "{:<20} {:<9} {:<4} {}",
                    source.name(),
                    if source.substitutable() {
                        "subston"
                    } else {
                        "addon"
                    },
                    if source.wire_safe() { "yes" } else { "no" },
                    source.description()
                );
            }
            Ok(())
        }
        _ => Err(usage().to_owned()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
