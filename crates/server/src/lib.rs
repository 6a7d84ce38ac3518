//! A sharded multi-game pricing service for the paper's mechanisms.
//!
//! The library structs in `osp-core` price one game at a time; the
//! paper's deployment story (§1) is a cloud provider pricing thousands
//! of concurrent games. This crate is that service surface:
//!
//! - [`protocol`] — the line-delimited JSON wire protocol: typed
//!   [`protocol::Request`]/[`protocol::Response`] pairs covering
//!   `create`, `arrive`, `revise`, `expire`, `tick`, `price`,
//!   `snapshot`, `restore`, `stats`, and `shutdown`.
//! - [`codec`] — the transports' direct request decoder and reply
//!   encoder, byte-identical to the serde derives in [`protocol`].
//! - [`game`] — the per-shard [`game::Registry`] interpreting
//!   operations against `AddOnState`/`SubstOnState` (the offline
//!   mechanisms run as horizon-1 online games).
//! - [`shard`] — the [`shard::ShardPool`]: worker threads owning
//!   disjoint game sets, routed by `hash(game_id) % shards`, fed by
//!   bounded queues with back-pressure and per-shard stats; and the
//!   [`shard::Batcher`] a transport groups requests into per-shard
//!   batches with.
//! - [`script`] — deterministic trace generation and a sequential
//!   oracle for differential testing and load generation.
//! - [`wal`] — per-shard write-ahead log + checkpoint durability:
//!   every state-changing operation is logged before it is answered,
//!   and a crashed shard recovers by checkpoint + log-suffix replay
//!   ([`wal::ShardDurability`]), with crash injection for tests
//!   ([`wal::FaultPlan`], `OSP_FAULT`).
//!
//! Transports (stdin/stdout pipe, Unix socket) live in `osp-cli`'s
//! `serve` subcommand; the load harness lives in `osp-bench`.

pub mod codec;
pub mod game;
pub mod protocol;
pub mod script;
pub mod shard;
pub mod wal;

pub use game::{decode_snapshot, FinalOutcome, GameEntry, GameState, Registry};
pub use protocol::{
    by_id, error_code, money_to_decimal, GameId, Mechanism, Op, Reply, Request, Response,
    ShardStat, SnapshotDoc, SNAPSHOT_VERSION,
};
pub use shard::{
    shard_of, Batcher, PoolConfig, ShardPool, SubmitRetry, DEFAULT_QUEUE_CAP, DEFAULT_SHARDS,
};
pub use wal::{FaultKind, FaultPlan, ShardCheckpoint, WalRecord};
