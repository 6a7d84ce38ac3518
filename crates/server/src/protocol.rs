//! The line-delimited JSON wire protocol.
//!
//! Every request is one JSON object per line, `{"id": n, "op": {...}}`,
//! and every reply is one JSON object per line, `{"id": n, "reply":
//! {...}}` with the matching `id`. Operations are externally tagged
//! (`{"create": {...}}`, `{"tick": {...}}`, bare `"stats"` /
//! `"shutdown"` for the payload-free ones).
//!
//! Monetary amounts travel *into* the server as exact decimal strings
//! (`"12.34"`, parsed by [`Money`]'s `FromStr`, which accepts up to 18
//! fractional digits with no rounding) and *out of* the server in
//! [`Money`]'s serde form, an exact `[numerator, denominator]` pair.
//! `Money`'s `Display` truncates long fractions, so it is never used on
//! the wire.

use std::collections::BTreeMap;

use osp_core::addon::SlotReport;
use osp_core::error::MechanismError;
use osp_core::subston::SubstSlotReport;
use osp_econ::{Money, OptId, SlotId, UserId};
use serde::{Deserialize, Serialize};

/// Identifies one game hosted by the server. Routing hashes this id
/// onto a shard, so a game's events are always handled by one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct GameId(pub u64);

impl std::fmt::Display for GameId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Which of the paper's four mechanisms a game runs.
///
/// The offline mechanisms are served through their online counterparts
/// at horizon 1: AddOff ≡ AddOn with `z = 1` and SubstOff ≡ SubstOn
/// with `z = 1` (both equivalences are property-tested in `osp-core`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum Mechanism {
    /// Additive offline Shapley pricing (§5, horizon-1 AddOn).
    AddOff,
    /// Additive online Shapley pricing (Mechanism 2).
    AddOn,
    /// Substitutable offline pricing (§6.2, horizon-1 SubstOn).
    SubstOff,
    /// Substitutable online pricing (Mechanism 3).
    SubstOn,
}

impl Mechanism {
    /// `true` for the substitutable mechanisms (multi-opt games).
    #[must_use]
    pub fn is_subst(self) -> bool {
        matches!(self, Mechanism::SubstOff | Mechanism::SubstOn)
    }

    /// `true` for the horizon-1 offline mechanisms.
    #[must_use]
    pub fn is_offline(self) -> bool {
        matches!(self, Mechanism::AddOff | Mechanism::SubstOff)
    }
}

fn default_slot_one() -> u32 {
    1
}

/// One wire operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Op {
    /// Registers a new game.
    Create {
        /// The new game's id (must be unused).
        game: GameId,
        /// Which mechanism prices the game.
        mechanism: Mechanism,
        /// Number of slots `z` (must be 1 for the offline mechanisms).
        #[serde(default = "default_slot_one")]
        horizon: u32,
        /// Per-optimization costs as decimal strings (exactly one for
        /// the additive mechanisms).
        costs: Vec<String>,
        /// Shapley engine override: `"incremental"` (the production
        /// engine) or `"rebuild"` (the paper-literal oracle); defaults
        /// to the server's engine.
        #[serde(default)]
        engine: Option<String>,
        /// Substitutable tie-break seed; omitted means the
        /// deterministic lowest-opt-id policy.
        #[serde(default)]
        seed: Option<u64>,
    },
    /// Submits a user's bid `ω_i = (s_i, e_i, b_i[, J_i])`.
    Arrive {
        /// Target game.
        game: GameId,
        /// The bidding user (must be new to the game).
        user: u32,
        /// First requested slot `s_i`.
        #[serde(default = "default_slot_one")]
        start: u32,
        /// Per-slot values over `[s_i, e_i]` as decimal strings.
        values: Vec<String>,
        /// Substitute set `J_i` (substitutable games only).
        #[serde(default)]
        substitutes: Vec<u32>,
    },
    /// Revises a bid upward from `from` onward (additive online only).
    Revise {
        /// Target game.
        game: GameId,
        /// The revising user.
        user: u32,
        /// First revised slot (≥ the game's current slot).
        from: u32,
        /// Replacement per-slot values from `from` onward.
        values: Vec<String>,
    },
    /// Queries a user's exit status and payment.
    Expire {
        /// Target game.
        game: GameId,
        /// The queried user.
        user: u32,
    },
    /// Processes the game's current slot (one mechanism round).
    Tick {
        /// Target game.
        game: GameId,
        /// If present, the slot the caller believes is current; a
        /// mismatch is rejected as `out_of_order` instead of silently
        /// pricing a different slot.
        #[serde(default)]
        slot: Option<u32>,
    },
    /// Reads the game's current price state without advancing it.
    Price {
        /// Target game.
        game: GameId,
    },
    /// Serializes the game's full mechanism state.
    Snapshot {
        /// Target game.
        game: GameId,
    },
    /// Recreates a game from a [`SnapshotDoc`].
    Restore {
        /// The id to restore under (must be unused).
        game: GameId,
        /// A snapshot previously produced by `snapshot` or
        /// `osp checkpoint`.
        doc: SnapshotDoc,
    },
    /// Reports per-shard statistics.
    Stats,
    /// Drains every queue, then stops the server.
    Shutdown,
}

impl Op {
    /// The game this operation routes to (`None` for the server-wide
    /// `stats` / `shutdown` operations).
    #[must_use]
    pub fn game(&self) -> Option<GameId> {
        match *self {
            Op::Create { game, .. }
            | Op::Arrive { game, .. }
            | Op::Revise { game, .. }
            | Op::Expire { game, .. }
            | Op::Tick { game, .. }
            | Op::Price { game }
            | Op::Snapshot { game }
            | Op::Restore { game, .. } => Some(game),
            Op::Stats | Op::Shutdown => None,
        }
    }
}

/// One wire request: a caller-chosen correlation id plus an operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Echoed verbatim in the matching [`Response`].
    #[serde(default)]
    pub id: u64,
    /// The operation to perform.
    pub op: Op,
}

/// One wire reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Reply {
    /// A game was registered.
    Created {
        /// The new game.
        game: GameId,
        /// Its mechanism.
        mechanism: Mechanism,
        /// The shard that owns it.
        shard: u32,
    },
    /// A bid was accepted.
    Submitted {
        /// Target game.
        game: GameId,
        /// The bidding user.
        user: UserId,
    },
    /// A revision was accepted.
    Revised {
        /// Target game.
        game: GameId,
        /// The revising user.
        user: UserId,
    },
    /// A user's exit status.
    Status {
        /// Target game.
        game: GameId,
        /// The queried user.
        user: UserId,
        /// `true` once the user's bid interval has fully elapsed.
        expired: bool,
        /// `true` if the user has (ever) been serviced.
        serviced: bool,
        /// The user's payment so far, if any has been determined.
        payment: Option<Money>,
    },
    /// An additive slot was processed.
    Slot {
        /// Target game.
        game: GameId,
        /// What happened in the slot.
        report: SlotReport,
    },
    /// A substitutable slot was processed.
    SubstSlot {
        /// Target game.
        game: GameId,
        /// What happened in the slot.
        report: SubstSlotReport,
    },
    /// A price probe.
    Price {
        /// Target game.
        game: GameId,
        /// The slot about to be processed.
        now: SlotId,
        /// The game horizon.
        horizon: u32,
        /// `true` once every slot has been processed.
        done: bool,
        /// Additive games: the current per-user share, if implemented.
        share: Option<Money>,
        /// The optimizations implemented so far.
        implemented: Vec<OptId>,
    },
    /// A state snapshot.
    Snapshot {
        /// Target game.
        game: GameId,
        /// The serialized mechanism state.
        doc: SnapshotDoc,
    },
    /// A game was restored from a snapshot.
    Restored {
        /// The restored game.
        game: GameId,
        /// The shard that owns it.
        shard: u32,
    },
    /// Per-shard statistics.
    Stats {
        /// One entry per shard, in shard order.
        shards: Vec<ShardStat>,
    },
    /// The server processed `shutdown`; final statistics.
    Bye {
        /// One entry per shard, in shard order.
        shards: Vec<ShardStat>,
    },
    /// The operation failed; the game's state is unchanged.
    Error {
        /// Stable machine-readable code (see [`error_code`]).
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

/// One wire response: the request's id plus the reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// The id of the request this answers.
    pub id: u64,
    /// The reply payload.
    pub reply: Reply,
}

impl Response {
    /// Builds an error response.
    #[must_use]
    pub fn error(id: u64, code: &str, message: impl std::fmt::Display) -> Self {
        Response {
            id,
            reply: Reply::Error {
                code: code.to_string(),
                message: message.to_string(),
            },
        }
    }
}

/// A serialized game: the `snapshot` reply payload and the on-disk
/// format of `osp checkpoint` / `osp resume`.
///
/// States are carried as raw JSON values rather than typed structs so
/// one document covers both mechanisms (and, for the CLI, additive
/// game files that compile to several single-opt games).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotDoc {
    /// Format version; currently always [`SNAPSHOT_VERSION`].
    pub format_version: u32,
    /// The snapshotted game's mechanism.
    pub mechanism: Mechanism,
    /// Additive mechanisms: one serialized `AddOnState` per
    /// optimization (servers host exactly one; CLI checkpoints of
    /// multi-opt additive game files hold one per opt).
    #[serde(default)]
    pub addon: Vec<serde::Value>,
    /// Substitutable mechanisms: the serialized `SubstOnState`.
    #[serde(default)]
    pub subston: Option<serde::Value>,
}

/// Current [`SnapshotDoc::format_version`].
pub const SNAPSHOT_VERSION: u32 = 1;

/// Statistics for one shard.
///
/// # Consistency
///
/// A `stats` reply is assembled from independent relaxed atomic
/// loads, one per counter, while the shard keeps working. Each field
/// is individually accurate at the moment *it* was read, but the
/// snapshot is **not cross-counter coherent**: under load, `events`
/// may already include a request that `queue_depth` still counts as
/// queued, or `recoveries` may be bumped while `games` still shows
/// the pre-crash registry. Do not infer cross-counter invariants from
/// one snapshot beyond the one bound below.
///
/// What *is* guaranteed, and what the load harness asserts: `events`
/// and `recoveries` are monotone non-decreasing across successive
/// `stats` replies for the same shard, while `games` and
/// `queue_depth` are instantaneous gauges that move both ways. And
/// `events + queue_depth` never undercounts the requests admitted to
/// the shard before the `stats` call, though it may count one twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardStat {
    /// The shard index.
    pub shard: u32,
    /// Games currently owned by the shard.
    pub games: u64,
    /// Events processed by the shard since startup.
    pub events: u64,
    /// Requests queued for the shard or being handled by it.
    pub queue_depth: u64,
    /// Times the shard's worker panicked and rebuilt its registry.
    /// While a rebuild is in flight, requests to the shard answer with
    /// the retryable `shard_recovering` error code instead of hanging.
    #[serde(default)]
    pub recoveries: u64,
}

/// The stable wire code for a mechanism error.
#[must_use]
pub fn error_code(err: &MechanismError) -> &'static str {
    match err {
        MechanismError::NonPositiveCost { .. } => "non_positive_cost",
        MechanismError::NegativeBid { .. } => "negative_bid",
        MechanismError::UnknownOpt { .. } => "unknown_opt",
        MechanismError::UnknownUser { .. } => "unknown_user",
        MechanismError::DuplicateUser { .. } => "duplicate_user",
        MechanismError::RetroactiveBid { .. } => "retroactive_bid",
        MechanismError::DownwardRevision { .. } => "downward_revision",
        MechanismError::BeyondHorizon { .. } => "beyond_horizon",
        MechanismError::HorizonTooLong { .. } => "bad_create",
        MechanismError::HorizonExhausted { .. } => "horizon_exhausted",
        MechanismError::EmptySubstituteSet { .. } => "empty_substitutes",
        MechanismError::Schedule(_) => "bad_series",
    }
}

/// Formats a [`Money`] as an exact decimal string (the wire *request*
/// form), or `None` if the amount is not on a power-of-ten grid.
///
/// `Money`'s `Display` is lossy past six fractional digits, so load
/// generators that turn library values back into wire requests go
/// through this instead.
#[must_use]
pub fn money_to_decimal(m: Money) -> Option<String> {
    let ratio = m.as_ratio();
    let (num, den) = (ratio.numer(), ratio.denom());
    // Scale to 18 fractional digits, the most Money's FromStr accepts.
    const SCALE: i128 = 1_000_000_000_000_000_000;
    let scaled = num.checked_mul(SCALE)?;
    if scaled % den != 0 {
        return None;
    }
    let fixed = scaled / den;
    let (sign, abs) = if fixed < 0 {
        ("-", -fixed)
    } else {
        ("", fixed)
    };
    let whole = abs / SCALE;
    let frac = abs % SCALE;
    if frac == 0 {
        return Some(format!("{sign}{whole}"));
    }
    let mut frac_str = format!("{frac:018}");
    while frac_str.ends_with('0') {
        frac_str.pop();
    }
    Some(format!("{sign}{whole}.{frac_str}"))
}

/// Groups a response stream by request id (helper for tests and
/// transports that interleave replies from several shards).
#[must_use]
pub fn by_id(responses: &[Response]) -> BTreeMap<u64, &Response> {
    responses.iter().map(|r| (r.id, r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_json() {
        let reqs = vec![
            Request {
                id: 1,
                op: Op::Create {
                    game: GameId(7),
                    mechanism: Mechanism::SubstOn,
                    horizon: 4,
                    costs: vec!["10".into(), "12.50".into()],
                    engine: None,
                    seed: Some(9),
                },
            },
            Request {
                id: 2,
                op: Op::Arrive {
                    game: GameId(7),
                    user: 3,
                    start: 2,
                    values: vec!["1.25".into(), "0".into()],
                    substitutes: vec![0, 1],
                },
            },
            Request {
                id: 3,
                op: Op::Tick {
                    game: GameId(7),
                    slot: Some(1),
                },
            },
            Request {
                id: 4,
                op: Op::Stats,
            },
            Request {
                id: 5,
                op: Op::Shutdown,
            },
        ];
        for req in reqs {
            let line = serde_json::to_string(&req).unwrap();
            let back: Request = serde_json::from_str(&line).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn omitted_fields_take_defaults() {
        let req: Request =
            serde_json::from_str(r#"{"op": {"arrive": {"game": 1, "user": 2, "values": ["3"]}}}"#)
                .unwrap();
        assert_eq!(req.id, 0);
        match req.op {
            Op::Arrive {
                start, substitutes, ..
            } => {
                assert_eq!(start, 1);
                assert!(substitutes.is_empty());
            }
            other => panic!("unexpected op {other:?}"),
        }
    }

    #[test]
    fn unit_ops_serialize_as_bare_strings() {
        let line = serde_json::to_string(&Request {
            id: 0,
            op: Op::Shutdown,
        })
        .unwrap();
        assert!(line.contains(r#""shutdown""#), "{line}");
    }

    #[test]
    fn money_to_decimal_is_exact() {
        for (cents, expect) in [
            (0, "0"),
            (1, "0.01"),
            (231, "2.31"),
            (-50, "-0.5"),
            (120_000, "1200"),
        ] {
            let m = Money::from_cents(cents);
            let s = money_to_decimal(m).unwrap();
            assert_eq!(s, expect);
            assert_eq!(s.parse::<Money>().unwrap(), m);
        }
        let third = Money::from_cents(100) / 3;
        assert_eq!(money_to_decimal(third), None);
    }
}
