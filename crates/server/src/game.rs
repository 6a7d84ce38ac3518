//! Per-shard game registry: owns the mechanism states and interprets
//! wire operations against them.
//!
//! The registry is deliberately transport- and thread-agnostic — the
//! shard pool runs one per worker thread, and the differential oracle
//! runs a single one inline with a different Shapley [`Engine`], so
//! every protocol decision lives in exactly one place.

use std::collections::{BTreeSet, HashMap};
use std::str::FromStr;

use osp_core::prelude::*;
use osp_econ::{Money, OptId, SlotId, UserId};

use crate::protocol::{
    error_code, GameId, Mechanism, Op, Reply, Response, SnapshotDoc, SNAPSHOT_VERSION,
};
use crate::shard::shard_of;

/// The mechanism state behind one hosted game.
///
/// Both variants are heavyweight per-game root states that live in a
/// shard's registry map and are only ever borrowed in place — the size
/// gap between them buys nothing by boxing, and indirection would cost
/// a pointer chase on every request.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum GameState {
    /// Additive pricing (AddOn, or AddOff at horizon 1).
    Add(AddOnState),
    /// Substitutable pricing (SubstOn, or SubstOff at horizon 1).
    Subst(SubstOnState),
}

/// One hosted game.
#[derive(Debug, Clone)]
pub struct GameEntry {
    /// The mechanism the game was created with.
    pub mechanism: Mechanism,
    /// Its live state.
    pub state: GameState,
}

/// A final outcome, for post-hoc comparison of two interpreters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FinalOutcome {
    /// Outcome of an additive game.
    Add(AddOnOutcome),
    /// Outcome of a substitutable game.
    Subst(SubstOnOutcome),
}

/// Owns a set of games and interprets routed operations against them.
pub struct Registry {
    engine: Engine,
    shards: usize,
    games: HashMap<u64, GameEntry>,
}

impl Registry {
    /// An empty registry whose games default to `engine` and whose
    /// `created`/`restored` replies report shards out of `shards`.
    #[must_use]
    pub fn new(engine: Engine, shards: usize) -> Self {
        Registry {
            engine,
            shards,
            games: HashMap::new(),
        }
    }

    /// Number of games currently owned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.games.len()
    }

    /// `true` when no games are owned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.games.is_empty()
    }

    /// Consumes the registry and finishes every game, yielding final
    /// outcomes keyed by game id. Unfinished games are skipped.
    #[must_use]
    pub fn into_outcomes(self) -> HashMap<u64, FinalOutcome> {
        self.games
            .into_iter()
            .filter_map(|(id, entry)| {
                let outcome = match entry.state {
                    GameState::Add(s) => {
                        if !s.is_finished() {
                            return None;
                        }
                        FinalOutcome::Add(s.finish().ok()?)
                    }
                    GameState::Subst(s) => {
                        if !s.is_finished() {
                            return None;
                        }
                        FinalOutcome::Subst(s.finish().ok()?)
                    }
                };
                Some((id, outcome))
            })
            .collect()
    }

    /// Interprets one routed operation. `stats` and `shutdown` are
    /// transport-level and answer with a `protocol` error here.
    pub fn handle(&mut self, id: u64, op: Op) -> Response {
        match op {
            Op::Create {
                game,
                mechanism,
                horizon,
                costs,
                engine,
                seed,
            } => self.create(
                id,
                game,
                mechanism,
                horizon,
                &costs,
                engine.as_deref(),
                seed,
            ),
            Op::Arrive {
                game,
                user,
                start,
                values,
                substitutes,
            } => self.arrive(id, game, user, start, &values, &substitutes),
            Op::Revise {
                game,
                user,
                from,
                values,
            } => self.revise(id, game, user, from, &values),
            Op::Expire { game, user } => self.expire(id, game, user),
            Op::Tick { game, slot } => self.tick(id, game, slot),
            Op::Price { game } => self.price(id, game),
            Op::Snapshot { game } => self.snapshot(id, game),
            Op::Restore { game, doc } => self.restore(id, game, doc),
            Op::Stats | Op::Shutdown => Response::error(
                id,
                "protocol",
                "stats/shutdown are handled by the transport, not a shard",
            ),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn create(
        &mut self,
        id: u64,
        game: GameId,
        mechanism: Mechanism,
        horizon: u32,
        costs: &[String],
        engine: Option<&str>,
        seed: Option<u64>,
    ) -> Response {
        if self.games.contains_key(&game.0) {
            return Response::error(id, "game_exists", format!("{game} already exists"));
        }
        if horizon == 0 {
            return Response::error(id, "bad_create", "horizon must be at least 1");
        }
        if mechanism.is_offline() && horizon != 1 {
            return Response::error(
                id,
                "bad_create",
                format!("offline mechanisms run at horizon 1, got {horizon}"),
            );
        }
        if !mechanism.is_subst() && costs.len() != 1 {
            return Response::error(
                id,
                "bad_create",
                format!(
                    "additive mechanisms take exactly one cost, got {}",
                    costs.len()
                ),
            );
        }
        let engine = match engine {
            None => self.engine,
            Some("incremental") => Engine::Incremental,
            Some("rebuild") => Engine::Rebuild,
            Some(other) => {
                return Response::error(
                    id,
                    "bad_create",
                    format!("unknown engine {other:?} (expected incremental or rebuild)"),
                )
            }
        };
        let costs = match parse_all_money(costs) {
            Ok(costs) => costs,
            Err(msg) => return Response::error(id, "bad_money", msg),
        };
        let state = if mechanism.is_subst() {
            let tiebreak = match seed {
                Some(s) => TieBreak::Random(s),
                None => TieBreak::LowestOptId,
            };
            match SubstOnState::with_engine(costs, horizon, tiebreak, engine) {
                Ok(s) => GameState::Subst(s),
                Err(e) => return Response::error(id, error_code(&e), e),
            }
        } else {
            match AddOnState::with_engine(costs[0], horizon, engine) {
                Ok(s) => GameState::Add(s),
                Err(e) => return Response::error(id, error_code(&e), e),
            }
        };
        self.games.insert(game.0, GameEntry { mechanism, state });
        Response {
            id,
            reply: Reply::Created {
                game,
                mechanism,
                shard: shard_of(game, self.shards) as u32,
            },
        }
    }

    fn arrive(
        &mut self,
        id: u64,
        game: GameId,
        user: u32,
        start: u32,
        values: &[String],
        substitutes: &[u32],
    ) -> Response {
        let Some(entry) = self.games.get_mut(&game.0) else {
            return unknown_game(id, game);
        };
        let values = match parse_all_money(values) {
            Ok(values) => values,
            Err(msg) => return Response::error(id, "bad_money", msg),
        };
        let series = match SlotSeries::new(SlotId(start), values) {
            Ok(series) => series,
            Err(e) => {
                let e = MechanismError::Schedule(e);
                return Response::error(id, error_code(&e), e);
            }
        };
        let user = UserId(user);
        let result = match &mut entry.state {
            GameState::Add(state) => {
                if !substitutes.is_empty() {
                    return Response::error(
                        id,
                        "unsupported",
                        "substitute sets are only valid in substitutable games",
                    );
                }
                state.submit(OnlineBid::new(user, series))
            }
            GameState::Subst(state) => state.submit(SubstOnlineBid {
                user,
                substitutes: substitutes
                    .iter()
                    .copied()
                    .map(OptId)
                    .collect::<BTreeSet<_>>(),
                series,
            }),
        };
        match result {
            Ok(()) => Response {
                id,
                reply: Reply::Submitted { game, user },
            },
            Err(e) => Response::error(id, error_code(&e), e),
        }
    }

    fn revise(
        &mut self,
        id: u64,
        game: GameId,
        user: u32,
        from: u32,
        values: &[String],
    ) -> Response {
        let Some(entry) = self.games.get_mut(&game.0) else {
            return unknown_game(id, game);
        };
        let GameState::Add(state) = &mut entry.state else {
            return Response::error(
                id,
                "unsupported",
                "revisions are only valid in additive online games",
            );
        };
        let values = match parse_all_money(values) {
            Ok(values) => values,
            Err(msg) => return Response::error(id, "bad_money", msg),
        };
        let user = UserId(user);
        match state.revise(user, SlotId(from), values) {
            Ok(()) => Response {
                id,
                reply: Reply::Revised { game, user },
            },
            Err(e) => Response::error(id, error_code(&e), e),
        }
    }

    fn expire(&mut self, id: u64, game: GameId, user: u32) -> Response {
        let Some(entry) = self.games.get(&game.0) else {
            return unknown_game(id, game);
        };
        let user = UserId(user);
        let (end, serviced, payment, now) = match &entry.state {
            GameState::Add(state) => match state.bid_end(user) {
                Some(end) => (
                    end,
                    state.is_serviced(user),
                    state.payment_of(user),
                    state.now(),
                ),
                None => {
                    let e = MechanismError::UnknownUser { user };
                    return Response::error(id, error_code(&e), e);
                }
            },
            GameState::Subst(state) => match state.bid_end(user) {
                Some(end) => (
                    end,
                    state.assignment_of(user).is_some(),
                    state.payment_of(user),
                    state.now(),
                ),
                None => {
                    let e = MechanismError::UnknownUser { user };
                    return Response::error(id, error_code(&e), e);
                }
            },
        };
        Response {
            id,
            reply: Reply::Status {
                game,
                user,
                expired: end.index() < now.index(),
                serviced,
                payment,
            },
        }
    }

    fn tick(&mut self, id: u64, game: GameId, slot: Option<u32>) -> Response {
        let Some(entry) = self.games.get_mut(&game.0) else {
            return unknown_game(id, game);
        };
        let now = match &entry.state {
            GameState::Add(state) => state.now(),
            GameState::Subst(state) => state.now(),
        };
        if let Some(slot) = slot {
            if slot != now.index() {
                return Response::error(
                    id,
                    "out_of_order",
                    format!("tick for slot t{slot} but the game is at {now}"),
                );
            }
        }
        match &mut entry.state {
            GameState::Add(state) => match state.advance() {
                Ok(report) => Response {
                    id,
                    reply: Reply::Slot { game, report },
                },
                Err(e) => Response::error(id, error_code(&e), e),
            },
            GameState::Subst(state) => match state.advance() {
                Ok(report) => Response {
                    id,
                    reply: Reply::SubstSlot { game, report },
                },
                Err(e) => Response::error(id, error_code(&e), e),
            },
        }
    }

    fn price(&mut self, id: u64, game: GameId) -> Response {
        let Some(entry) = self.games.get(&game.0) else {
            return unknown_game(id, game);
        };
        let reply = match &entry.state {
            GameState::Add(state) => Reply::Price {
                game,
                now: state.now(),
                horizon: state.horizon(),
                done: state.is_finished(),
                share: state.current_share(),
                implemented: if state.implemented_at().is_some() {
                    vec![OptId(0)]
                } else {
                    Vec::new()
                },
            },
            GameState::Subst(state) => Reply::Price {
                game,
                now: state.now(),
                horizon: state.horizon(),
                done: state.is_finished(),
                share: None,
                implemented: state.implemented_opts(),
            },
        };
        Response { id, reply }
    }

    fn snapshot(&mut self, id: u64, game: GameId) -> Response {
        let Some(entry) = self.games.get(&game.0) else {
            return unknown_game(id, game);
        };
        match entry_doc(entry) {
            Ok(doc) => Response {
                id,
                reply: Reply::Snapshot { game, doc },
            },
            Err(msg) => Response::error(id, "bad_snapshot", msg),
        }
    }

    /// Serializes every hosted game (sorted by id) as the same
    /// [`SnapshotDoc`]s the wire `snapshot` operation returns — the
    /// payload of a WAL checkpoint.
    pub fn checkpoint_games(&self) -> Result<Vec<(u64, SnapshotDoc)>, String> {
        let mut games: Vec<(u64, SnapshotDoc)> = self
            .games
            .iter()
            .map(|(id, entry)| Ok((*id, entry_doc(entry)?)))
            .collect::<Result<_, String>>()?;
        games.sort_by_key(|(id, _)| *id);
        Ok(games)
    }

    /// Installs a game decoded from a checkpoint document. Unlike the
    /// wire `restore` operation this is infallible on id collisions by
    /// construction (checkpoints hold each game once) — a collision is
    /// reported as an error rather than a wire reply.
    pub fn insert_restored(&mut self, game: u64, doc: &SnapshotDoc) -> Result<(), String> {
        if self.games.contains_key(&game) {
            return Err(format!("checkpoint restores game {game} twice"));
        }
        let state = decode_snapshot(doc)?;
        self.games.insert(
            game,
            GameEntry {
                mechanism: doc.mechanism,
                state,
            },
        );
        Ok(())
    }

    fn restore(&mut self, id: u64, game: GameId, doc: SnapshotDoc) -> Response {
        if self.games.contains_key(&game.0) {
            return Response::error(id, "game_exists", format!("{game} already exists"));
        }
        match decode_snapshot(&doc) {
            Ok(state) => {
                self.games.insert(
                    game.0,
                    GameEntry {
                        mechanism: doc.mechanism,
                        state,
                    },
                );
                Response {
                    id,
                    reply: Reply::Restored {
                        game,
                        shard: shard_of(game, self.shards) as u32,
                    },
                }
            }
            Err(msg) => Response::error(id, "bad_snapshot", msg),
        }
    }
}

/// Serializes one hosted game as its wire/disk snapshot document.
fn entry_doc(entry: &GameEntry) -> Result<SnapshotDoc, String> {
    match &entry.state {
        GameState::Add(state) => serde_json::to_value(state)
            .map(|v| SnapshotDoc {
                format_version: SNAPSHOT_VERSION,
                mechanism: entry.mechanism,
                addon: vec![v],
                subston: None,
            })
            .map_err(|e| e.to_string()),
        GameState::Subst(state) => serde_json::to_value(state)
            .map(|v| SnapshotDoc {
                format_version: SNAPSHOT_VERSION,
                mechanism: entry.mechanism,
                addon: Vec::new(),
                subston: Some(v),
            })
            .map_err(|e| e.to_string()),
    }
}

/// Decodes a single-game snapshot into a live state.
///
/// Servers host one `AddOnState` per additive game, so multi-opt
/// additive checkpoints (several `addon` entries) are rejected here —
/// `osp resume` handles those.
pub fn decode_snapshot(doc: &SnapshotDoc) -> Result<GameState, String> {
    if doc.format_version != SNAPSHOT_VERSION {
        return Err(format!(
            "unsupported snapshot format_version {} (expected {SNAPSHOT_VERSION})",
            doc.format_version
        ));
    }
    if doc.mechanism.is_subst() {
        let Some(value) = &doc.subston else {
            return Err("substitutable snapshot is missing the subston state".to_string());
        };
        let state: SubstOnState =
            serde_json::from_value(value.clone()).map_err(|e| format!("bad subston state: {e}"))?;
        Ok(GameState::Subst(state))
    } else {
        if doc.addon.len() != 1 {
            return Err(format!(
                "additive snapshot must hold exactly one state for a hosted game, got {}",
                doc.addon.len()
            ));
        }
        let state: AddOnState = serde_json::from_value(doc.addon[0].clone())
            .map_err(|e| format!("bad addon state: {e}"))?;
        Ok(GameState::Add(state))
    }
}

fn unknown_game(id: u64, game: GameId) -> Response {
    Response::error(id, "unknown_game", format!("{game} does not exist"))
}

fn parse_all_money(strings: &[String]) -> Result<Vec<Money>, String> {
    strings
        .iter()
        .map(|s| {
            Money::from_str(s)
                .map_err(|_| format!("bad amount {s:?}: expected a decimal string like \"12.34\""))
        })
        .collect()
}
