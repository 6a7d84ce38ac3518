//! Write-ahead log, checkpointing, and crash recovery for shard
//! registries.
//!
//! Every state-changing wire operation a shard accepts is appended to
//! an append-only, length-prefixed, CRC32-checksummed log segment
//! (`shard-<k>.wal`) *before* it is applied and answered, so a shard
//! that dies mid-flight replays instead of forfeiting its games.
//! Periodically the whole registry is checkpointed through the same
//! [`SnapshotDoc`] serde the wire `snapshot`/`restore` operations use
//! (proven bit-identical in `tests/serde_roundtrip.rs`), written to a
//! temporary file and atomically renamed to `shard-<k>.ckpt`.
//!
//! Recovery is checkpoint + log-suffix replay. Records carry a
//! per-shard monotone sequence number and the checkpoint stores the
//! last sequence it covers, so replay skips everything the checkpoint
//! already absorbed — which is exactly what makes a crash *between*
//! the checkpoint rename and the log truncation harmless. A torn or
//! checksum-failing final record (the signature of dying mid-append)
//! is detected, dropped, and logged as a warning; the segment is
//! truncated back to its last valid boundary before new appends.
//!
//! The crash model is process/thread death (a panicking shard worker,
//! an injected fault, a killed server). Appends are flushed but not
//! fsynced: the durability boundary is the process, not the disk
//! platter, matching the differential tests that drive it.
//!
//! Fault injection lives here too: a [`FaultPlan`] (builder knob, or
//! the `OSP_FAULT` environment variable) kills a shard at a
//! configurable logged-event count, mid-append (leaving a torn tail),
//! or mid-checkpoint (before or after the atomic rename), so tests
//! can hold recovered outcomes to the never-crashed oracle.

use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use osp_core::prelude::Engine;
use serde::{Deserialize, Serialize};

use crate::game::Registry;
use crate::protocol::{Op, SnapshotDoc};

/// Magic bytes opening every WAL segment file.
pub const WAL_MAGIC: &[u8; 8] = b"OSPWAL01";

/// Current [`ShardCheckpoint::format_version`].
pub const CHECKPOINT_VERSION: u32 = 1;

/// Hard ceiling on one record's payload, so a corrupt length prefix
/// can never ask for an absurd allocation.
const MAX_RECORD_BYTES: u32 = 64 * 1024 * 1024;

/// One logged event: the wire operation plus its per-shard sequence
/// number (monotone, never reused) and the caller's correlation id
/// (kept for debugging; replay ignores it).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalRecord {
    /// Per-shard monotone sequence number.
    pub seq: u64,
    /// The request id the event arrived under.
    pub id: u64,
    /// The logged operation.
    pub op: Op,
}

/// The on-disk checkpoint of one shard's full registry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardCheckpoint {
    /// Format version; currently always [`CHECKPOINT_VERSION`].
    pub format_version: u32,
    /// The highest [`WalRecord::seq`] this checkpoint absorbs; replay
    /// skips records at or below it.
    pub applied_seq: u64,
    /// Every hosted game, sorted by id, as the same [`SnapshotDoc`]
    /// the wire `snapshot` operation returns.
    pub games: Vec<(u64, SnapshotDoc)>,
}

/// `true` for operations that must hit the log before they are
/// applied: everything that can change (or, for `expire`, order
/// against) mechanism state. Pure reads (`price`, `snapshot`) and the
/// transport-level operations are not logged.
#[must_use]
pub fn is_logged(op: &Op) -> bool {
    matches!(
        op,
        Op::Create { .. }
            | Op::Arrive { .. }
            | Op::Revise { .. }
            | Op::Expire { .. }
            | Op::Tick { .. }
            | Op::Restore { .. }
    )
}

/// Engine names `create` accepted before the columnar and pipelined
/// engines folded into the production engine. Live requests reject
/// them, but a log written earlier may still carry them.
const RETIRED_ENGINES: [&str; 2] = ["columnar", "pipelined"];

/// The operation replay applies for a logged `op`: a `create` that
/// names a retired engine re-creates its game on `incremental`, which
/// prices identically, so the game and every later record for it
/// recover instead of failing as `bad_create` / unknown game.
fn replayable(op: &Op) -> Op {
    let mut op = op.clone();
    if let Op::Create {
        engine: Some(name), ..
    } = &mut op
    {
        if RETIRED_ENGINES.contains(&name.as_str()) {
            *name = "incremental".to_owned();
        }
    }
    op
}

/// Typed failure opening or scanning a WAL segment.
///
/// The two corruption shapes recovery must never paper over — a
/// header too short to hold [`WAL_MAGIC`] and a full-length header
/// that is not the magic — get their own variants so every caller
/// (shard recovery, `osp resume`, tests) can tell "this is not a WAL"
/// from an ordinary filesystem failure. Neither corruption variant is
/// ever silently healed: the file is left byte-for-byte untouched for
/// the operator, and a durable shard that hits one degrades to
/// in-memory serving instead of wiping the evidence.
#[derive(Debug)]
pub enum WalError {
    /// The file is shorter than the 8-byte magic — either not a WAL
    /// at all, or a segment destroyed below its header.
    TruncatedMagic {
        /// The offending file.
        path: PathBuf,
        /// Its length in bytes (1–7).
        len: u64,
    },
    /// The first 8 bytes are not [`WAL_MAGIC`].
    BadMagic {
        /// The offending file.
        path: PathBuf,
    },
    /// An underlying I/O failure, with context.
    Io(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::TruncatedMagic { path, len } => write!(
                f,
                "{} is not a wal segment (magic header truncated at {len} of {} bytes)",
                path.display(),
                WAL_MAGIC.len()
            ),
            WalError::BadMagic { path } => {
                write!(f, "{} is not a wal segment (bad magic)", path.display())
            }
            WalError::Io(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for WalError {}

impl From<WalError> for String {
    fn from(e: WalError) -> String {
        e.to_string()
    }
}

/// What scanning a segment found.
#[derive(Debug)]
pub struct ReadOutcome {
    /// Every intact record, in append order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (magic + intact records).
    pub valid_len: u64,
    /// Trailing bytes after the valid prefix: a torn or
    /// checksum-failing final record that recovery drops.
    pub torn_bytes: u64,
}

/// CRC32 (IEEE 802.3, reflected) over `bytes` — the per-record
/// checksum. Table-free bitwise form: segments are small and read
/// once at recovery, so simplicity beats a lookup table here.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = 0u32.wrapping_sub(crc & 1);
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Scans the segment at `path`, stopping at the first torn or
/// corrupt record. A missing or empty file reads as a fresh segment.
/// A corrupt header — shorter than the magic, or not the magic — is
/// a typed [`WalError`]: unlike a torn *record* tail (expected after
/// a crash, reported and dropped), a broken header means the file may
/// not be a WAL at all, and guessing would destroy evidence.
pub fn read_wal(path: &Path) -> Result<ReadOutcome, WalError> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => {
            return Err(WalError::Io(format!(
                "cannot read wal {}: {e}",
                path.display()
            )))
        }
    };
    if bytes.is_empty() {
        return Ok(ReadOutcome {
            records: Vec::new(),
            valid_len: 0,
            torn_bytes: 0,
        });
    }
    if bytes.len() < WAL_MAGIC.len() {
        return Err(WalError::TruncatedMagic {
            path: path.to_path_buf(),
            len: bytes.len() as u64,
        });
    }
    if &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(WalError::BadMagic {
            path: path.to_path_buf(),
        });
    }
    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len();
    let valid = loop {
        if pos == bytes.len() {
            break pos;
        }
        let Some(header) = bytes.get(pos..pos + 8) else {
            break pos; // torn length/checksum header
        };
        let len = u32::from_le_bytes(header[..4].try_into().unwrap());
        let crc = u32::from_le_bytes(header[4..].try_into().unwrap());
        if len > MAX_RECORD_BYTES {
            break pos; // corrupt length prefix
        }
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len as usize) else {
            break pos; // torn payload
        };
        if crc32(payload) != crc {
            break pos; // checksum failure
        }
        let Ok(record) = serde_json::from_slice::<WalRecord>(payload) else {
            break pos; // checksum passed but the payload is garbage
        };
        records.push(record);
        pos += 8 + len as usize;
    };
    Ok(ReadOutcome {
        records,
        valid_len: valid as u64,
        torn_bytes: (bytes.len() - valid) as u64,
    })
}

/// An open, append-positioned WAL segment.
pub struct Segment {
    path: PathBuf,
    file: File,
    next_seq: u64,
}

impl Segment {
    /// Opens (creating if absent) the segment at `path`: scans it,
    /// truncates any torn tail back to the last valid boundary, and
    /// positions for append. Returns the surviving records alongside.
    ///
    /// A corrupt or truncated magic header is returned as the typed
    /// [`WalError`] from the scan, with the file left untouched —
    /// open never "heals" a file it cannot prove is a WAL.
    pub fn open(path: &Path) -> Result<(Segment, ReadOutcome), WalError> {
        let outcome = read_wal(path)?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| WalError::Io(format!("cannot open wal {}: {e}", path.display())))?;
        if outcome.torn_bytes > 0 {
            file.set_len(outcome.valid_len.max(WAL_MAGIC.len() as u64))
                .map_err(|e| WalError::Io(format!("cannot truncate torn wal tail: {e}")))?;
        }
        if outcome.valid_len == 0 {
            // Only a fresh (missing or empty) segment reaches here:
            // the scan already rejected every nonempty non-WAL file.
            file.write_all(WAL_MAGIC)
                .map_err(|e| WalError::Io(format!("cannot write wal magic: {e}")))?;
        }
        file.seek(SeekFrom::End(0))
            .map_err(|e| WalError::Io(format!("cannot seek wal {}: {e}", path.display())))?;
        let next_seq = outcome.records.last().map_or(1, |r| r.seq + 1);
        Ok((
            Segment {
                path: path.to_path_buf(),
                file,
                next_seq,
            },
            outcome,
        ))
    }

    /// The sequence number the next appended record will carry.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Bumps the next sequence number (never backwards) — used after
    /// a checkpoint so replay can tell fresh records from absorbed
    /// ones even when the truncation never happened.
    pub fn reserve_seq(&mut self, at_least: u64) {
        self.next_seq = self.next_seq.max(at_least);
    }

    fn encode(record: &WalRecord) -> Result<Vec<u8>, String> {
        let payload = serde_json::to_vec(record).map_err(|e| format!("wal encode: {e}"))?;
        let len = u32::try_from(payload.len()).map_err(|_| "wal record too large".to_string())?;
        if len > MAX_RECORD_BYTES {
            return Err("wal record too large".to_string());
        }
        let mut buf = Vec::with_capacity(8 + payload.len());
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(&crc32(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
        Ok(buf)
    }

    /// Appends one operation, assigning it the next sequence number,
    /// and flushes. Returns the sequence it was logged under.
    pub fn append(&mut self, id: u64, op: &Op) -> Result<u64, String> {
        let seq = self.next_seq;
        let buf = Self::encode(&WalRecord {
            seq,
            id,
            op: op.clone(),
        })?;
        self.file
            .write_all(&buf)
            .and_then(|()| self.file.flush())
            .map_err(|e| format!("wal append to {}: {e}", self.path.display()))?;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Fault-injection only: writes the first `keep` bytes of what
    /// [`Segment::append`] would have written — a torn record — and
    /// flushes. The caller is expected to panic right after.
    pub fn append_torn(&mut self, id: u64, op: &Op, keep: usize) -> Result<(), String> {
        let buf = Self::encode(&WalRecord {
            seq: self.next_seq,
            id,
            op: op.clone(),
        })?;
        // Guarantee the record really is torn: at least one byte short.
        let keep = keep.min(buf.len().saturating_sub(1));
        self.file
            .write_all(&buf[..keep])
            .and_then(|()| self.file.flush())
            .map_err(|e| format!("torn wal append to {}: {e}", self.path.display()))?;
        Ok(())
    }

    /// Empties the segment back to just its magic (after a checkpoint
    /// absorbed every record). Sequence numbers keep counting.
    pub fn truncate_all(&mut self) -> Result<(), String> {
        self.file
            .set_len(WAL_MAGIC.len() as u64)
            .map_err(|e| format!("cannot truncate wal {}: {e}", self.path.display()))?;
        self.file
            .seek(SeekFrom::End(0))
            .map_err(|e| format!("cannot seek wal {}: {e}", self.path.display()))?;
        Ok(())
    }
}

/// Where an injected fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic right after the record is durably appended, before it is
    /// applied: the op survives in the log but its response is lost.
    Kill,
    /// Write only `keep` bytes of the record, then panic: a torn tail
    /// recovery must drop.
    Torn {
        /// Bytes of the record that reach the disk.
        keep: usize,
    },
    /// Panic after the checkpoint temp file is written, before the
    /// atomic rename: the old checkpoint and full log survive.
    CkptPre,
    /// Panic after the rename, before the log truncation: the new
    /// checkpoint overlaps the log, and sequence numbers must dedupe.
    CkptPost,
}

/// A one-shot injected crash: strikes the matching shard the first
/// time its logged-event count reaches `at_event`, then disarms.
///
/// Built directly by tests, or parsed from the `OSP_FAULT`
/// environment variable: `kill@12`, `torn@12`, `torn:5@12` (keep 5
/// bytes), `ckpt-pre@30`, `ckpt-post@30`, each optionally suffixed
/// `#2` to target shard 2 only.
#[derive(Debug)]
pub struct FaultPlan {
    kind: FaultKind,
    at_event: u64,
    shard: Option<usize>,
    fired: AtomicBool,
}

impl FaultPlan {
    /// A fault of `kind` striking at logged event `at_event` (1-based,
    /// counted per shard) on whichever shard gets there first.
    #[must_use]
    pub fn new(kind: FaultKind, at_event: u64) -> Self {
        FaultPlan {
            kind,
            at_event: at_event.max(1),
            shard: None,
            fired: AtomicBool::new(false),
        }
    }

    /// Restricts the fault to one shard.
    #[must_use]
    pub fn on_shard(mut self, shard: usize) -> Self {
        self.shard = Some(shard);
        self
    }

    /// `true` once the fault has struck.
    #[must_use]
    pub fn has_fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }

    /// Parses a fault spec (the `OSP_FAULT` syntax above).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let usage = "fault spec is kill@<event> | torn[:<keep>]@<event> | \
                     ckpt-pre@<event> | ckpt-post@<event>, optionally #<shard>";
        let (spec, shard) = match spec.split_once('#') {
            Some((head, shard)) => (
                head,
                Some(
                    shard
                        .parse::<usize>()
                        .map_err(|e| format!("bad fault shard `{shard}`: {e}"))?,
                ),
            ),
            None => (spec, None),
        };
        let (kind, event) = spec.split_once('@').ok_or(usage)?;
        let at_event = event
            .parse::<u64>()
            .map_err(|e| format!("bad fault event `{event}`: {e}"))?;
        let kind = match kind {
            "kill" => FaultKind::Kill,
            "torn" => FaultKind::Torn { keep: 6 },
            "ckpt-pre" => FaultKind::CkptPre,
            "ckpt-post" => FaultKind::CkptPost,
            other => match other.strip_prefix("torn:") {
                Some(keep) => FaultKind::Torn {
                    keep: keep
                        .parse()
                        .map_err(|e| format!("bad torn keep `{keep}`: {e}"))?,
                },
                None => return Err(format!("unknown fault kind `{kind}`\n{usage}")),
            },
        };
        let mut plan = FaultPlan::new(kind, at_event);
        plan.shard = shard;
        Ok(plan)
    }

    /// Reads `OSP_FAULT`, if set. A malformed spec is an error so a
    /// typo'd injection never silently runs a clean server.
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        match std::env::var("OSP_FAULT") {
            Ok(spec) => Ok(Some(Self::parse(&spec)?)),
            Err(_) => Ok(None),
        }
    }

    /// Arms-and-consumes: the fault kind to inject now, if this call
    /// site (append vs checkpoint), shard, and event count match.
    fn strike(&self, shard: usize, events: u64, at_checkpoint: bool) -> Option<FaultKind> {
        if self.shard.is_some_and(|s| s != shard) || events < self.at_event {
            return None;
        }
        let checkpoint_kind = matches!(self.kind, FaultKind::CkptPre | FaultKind::CkptPost);
        if checkpoint_kind != at_checkpoint {
            return None;
        }
        if self.fired.swap(true, Ordering::SeqCst) {
            return None;
        }
        Some(self.kind)
    }
}

/// The durability state of one shard: its WAL segment, checkpoint
/// paths, cadence counters, and (in tests) the armed fault.
pub struct ShardDurability {
    shard: usize,
    wal_path: PathBuf,
    ckpt_path: PathBuf,
    segment: Segment,
    /// Checkpoint after this many logged events (0 = never).
    checkpoint_every: u64,
    events_since_ckpt: u64,
    /// Logged events over the shard's lifetime — what faults count.
    appended_total: u64,
    fault: Option<Arc<FaultPlan>>,
}

impl ShardDurability {
    /// Opens shard `shard`'s segment under `dir` (creating the
    /// directory if needed) and recovers its registry: checkpoint (if
    /// any) + log-suffix replay, torn tail dropped with a warning.
    pub fn open(
        dir: &Path,
        shard: usize,
        checkpoint_every: u64,
        fault: Option<Arc<FaultPlan>>,
        engine: Engine,
        shards: usize,
    ) -> Result<(Self, Registry), String> {
        fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create wal dir {}: {e}", dir.display()))?;
        let wal_path = dir.join(format!("shard-{shard}.wal"));
        let ckpt_path = dir.join(format!("shard-{shard}.ckpt"));
        let (segment, _) = Segment::open(&wal_path)?;
        let mut durability = ShardDurability {
            shard,
            wal_path,
            ckpt_path,
            segment,
            checkpoint_every,
            events_since_ckpt: 0,
            appended_total: 0,
            fault,
        };
        let registry = durability.recover(engine, shards)?;
        Ok((durability, registry))
    }

    /// Rebuilds the registry from disk: load the checkpoint, truncate
    /// any torn log tail, replay the records the checkpoint does not
    /// absorb. Reopens the segment from scratch, so it is safe to call
    /// after a panic left the old file handle mid-write.
    pub fn recover(&mut self, engine: Engine, shards: usize) -> Result<Registry, String> {
        // A stale temp file is a checkpoint that died before its
        // rename; the WAL still covers it, so it is just litter.
        let _ = fs::remove_file(self.tmp_path());
        let checkpoint = match fs::read_to_string(&self.ckpt_path) {
            Ok(json) => Some(
                serde_json::from_str::<ShardCheckpoint>(&json)
                    .map_err(|e| format!("bad checkpoint {}: {e}", self.ckpt_path.display()))?,
            ),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(format!("cannot read {}: {e}", self.ckpt_path.display())),
        };
        if let Some(ckpt) = &checkpoint {
            if ckpt.format_version != CHECKPOINT_VERSION {
                return Err(format!(
                    "unsupported checkpoint format_version {} (expected {CHECKPOINT_VERSION})",
                    ckpt.format_version
                ));
            }
        }
        let (segment, scanned) = Segment::open(&self.wal_path)?;
        if scanned.torn_bytes > 0 {
            eprintln!(
                "osp-server: wal {}: dropped a torn final record ({} trailing bytes) — \
                 the operation was never acknowledged and is safe to retry",
                self.wal_path.display(),
                scanned.torn_bytes
            );
        }
        self.segment = segment;
        let applied_seq = checkpoint.as_ref().map_or(0, |c| c.applied_seq);
        let mut registry = Registry::new(engine, shards);
        if let Some(ckpt) = checkpoint {
            for (game, doc) in &ckpt.games {
                registry.insert_restored(*game, doc)?;
            }
        }
        let mut replayed = 0u64;
        for record in &scanned.records {
            if record.seq <= applied_seq {
                continue;
            }
            // Replay mirrors live handling: a record that panics the
            // mechanism (a poisoned op) is skipped with a warning so
            // one bad event cannot wedge recovery forever.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                registry.handle(record.id, replayable(&record.op));
            }));
            if outcome.is_err() {
                eprintln!(
                    "osp-server: wal {}: replay of seq {} panicked; skipping the record",
                    self.wal_path.display(),
                    record.seq
                );
            }
            replayed += 1;
        }
        self.segment.reserve_seq(applied_seq + 1);
        self.events_since_ckpt = replayed;
        Ok(registry)
    }

    fn tmp_path(&self) -> PathBuf {
        self.ckpt_path.with_extension("ckpt.tmp")
    }

    /// Logs one operation ahead of applying it. Injected faults strike
    /// here: `Kill` panics after the append, `Torn` mid-append.
    pub fn append(&mut self, id: u64, op: &Op) -> Result<(), String> {
        self.appended_total += 1;
        let strike = self
            .fault
            .as_ref()
            .and_then(|f| f.strike(self.shard, self.appended_total, false));
        match strike {
            Some(FaultKind::Torn { keep }) => {
                self.segment.append_torn(id, op, keep)?;
                panic!("injected fault: torn append on shard {}", self.shard);
            }
            Some(FaultKind::Kill) => {
                self.segment.append(id, op)?;
                panic!(
                    "injected fault: killed after append on shard {}",
                    self.shard
                );
            }
            _ => {
                self.segment.append(id, op)?;
                self.events_since_ckpt += 1;
                Ok(())
            }
        }
    }

    /// Checkpoints the registry when the cadence says so: temp write,
    /// atomic rename, WAL truncation. Injected checkpoint faults
    /// strike between those steps.
    pub fn maybe_checkpoint(&mut self, registry: &Registry) -> Result<(), String> {
        if self.checkpoint_every == 0 || self.events_since_ckpt < self.checkpoint_every {
            return Ok(());
        }
        let doc = ShardCheckpoint {
            format_version: CHECKPOINT_VERSION,
            applied_seq: self.segment.next_seq() - 1,
            games: registry.checkpoint_games()?,
        };
        let rendered =
            serde_json::to_string(&doc).map_err(|e| format!("checkpoint encode: {e}"))?;
        let tmp = self.tmp_path();
        fs::write(&tmp, rendered).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        let strike = self
            .fault
            .as_ref()
            .and_then(|f| f.strike(self.shard, self.appended_total, true));
        if strike == Some(FaultKind::CkptPre) {
            panic!(
                "injected fault: died before checkpoint rename on shard {}",
                self.shard
            );
        }
        fs::rename(&tmp, &self.ckpt_path)
            .map_err(|e| format!("cannot rename checkpoint into place: {e}"))?;
        if strike == Some(FaultKind::CkptPost) {
            panic!(
                "injected fault: died before wal truncation on shard {}",
                self.shard
            );
        }
        self.segment.truncate_all()?;
        self.events_since_ckpt = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::GameId;

    fn temp_wal(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("osp-wal-{tag}-{}.wal", std::process::id()))
    }

    fn tick(game: u64, slot: u32) -> Op {
        Op::Tick {
            game: GameId(game),
            slot: Some(slot),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_round_trip_and_sequence() {
        let path = temp_wal("roundtrip");
        let _ = fs::remove_file(&path);
        let (mut segment, scanned) = Segment::open(&path).unwrap();
        assert!(scanned.records.is_empty());
        for k in 0..5u64 {
            assert_eq!(segment.append(k, &tick(k, 1)).unwrap(), k + 1);
        }
        drop(segment);
        let read = read_wal(&path).unwrap();
        assert_eq!(read.torn_bytes, 0);
        assert_eq!(read.records.len(), 5);
        for (k, record) in read.records.iter().enumerate() {
            assert_eq!(record.seq, k as u64 + 1);
            assert_eq!(record.op, tick(k as u64, 1));
        }
        // Reopening continues the sequence.
        let (segment, scanned) = Segment::open(&path).unwrap();
        assert_eq!(scanned.records.len(), 5);
        assert_eq!(segment.next_seq(), 6);
        let _ = fs::remove_file(&path);
    }

    /// The satellite regression: write a valid log, then truncate at
    /// *every* byte offset of the last record. Recovery must keep the
    /// intact prefix and drop the tail — never fail, never resurrect
    /// a half-written record.
    #[test]
    fn truncation_at_every_byte_of_the_last_record_drops_only_the_tail() {
        let path = temp_wal("torn");
        let _ = fs::remove_file(&path);
        let (mut segment, _) = Segment::open(&path).unwrap();
        for k in 0..4u64 {
            segment.append(k, &tick(k, 1)).unwrap();
        }
        let prefix_len = fs::metadata(&path).unwrap().len();
        segment.append(99, &tick(99, 2)).unwrap();
        drop(segment);
        let full = fs::read(&path).unwrap();
        assert!(prefix_len < full.len() as u64);

        for cut in prefix_len..full.len() as u64 {
            fs::write(&path, &full[..cut as usize]).unwrap();
            let read = read_wal(&path).unwrap();
            assert_eq!(read.records.len(), 4, "cut at {cut}");
            assert_eq!(read.valid_len, prefix_len, "cut at {cut}");
            assert_eq!(read.torn_bytes, cut - prefix_len, "cut at {cut}");
            // Opening truncates the tail and appending works again.
            let (mut reopened, scanned) = Segment::open(&path).unwrap();
            assert_eq!(scanned.records.len(), 4, "cut at {cut}");
            assert_eq!(fs::metadata(&path).unwrap().len(), prefix_len);
            reopened.append(5, &tick(5, 3)).unwrap();
            drop(reopened);
            let healed = read_wal(&path).unwrap();
            assert_eq!(healed.records.len(), 5, "cut at {cut}");
            assert_eq!(healed.torn_bytes, 0, "cut at {cut}");
            assert_eq!(healed.records[4].seq, 5, "cut at {cut}");
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn checksum_corruption_in_the_final_record_is_dropped() {
        let path = temp_wal("crc");
        let _ = fs::remove_file(&path);
        let (mut segment, _) = Segment::open(&path).unwrap();
        for k in 0..3u64 {
            segment.append(k, &tick(k, 1)).unwrap();
        }
        let prefix_len = fs::metadata(&path).unwrap().len();
        segment.append(9, &tick(9, 2)).unwrap();
        drop(segment);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a payload byte of the last record (past its header).
        let target = prefix_len as usize + 12;
        bytes[target] ^= 0x5A;
        fs::write(&path, &bytes).unwrap();
        let read = read_wal(&path).unwrap();
        assert_eq!(read.records.len(), 3);
        assert_eq!(read.valid_len, prefix_len);
        assert!(read.torn_bytes > 0);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn append_torn_always_leaves_a_recoverable_tail() {
        let path = temp_wal("fault-torn");
        let _ = fs::remove_file(&path);
        for keep in [0usize, 1, 6, 100_000] {
            let _ = fs::remove_file(&path);
            let (mut segment, _) = Segment::open(&path).unwrap();
            segment.append(1, &tick(1, 1)).unwrap();
            let prefix_len = fs::metadata(&path).unwrap().len();
            segment.append_torn(2, &tick(2, 2), keep).unwrap();
            drop(segment);
            let read = read_wal(&path).unwrap();
            assert_eq!(read.records.len(), 1, "keep={keep}");
            assert_eq!(read.valid_len, prefix_len, "keep={keep}");
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn wrong_magic_is_a_typed_hard_error_on_every_open_path() {
        let path = temp_wal("magic");
        // The shape tests/recovery.rs plants: full-length wrong magic.
        fs::write(&path, b"XXXXXXXXgarbage").unwrap();
        assert!(matches!(
            read_wal(&path),
            Err(WalError::BadMagic { path: p }) if p == path
        ));
        assert!(matches!(
            Segment::open(&path),
            Err(WalError::BadMagic { .. })
        ));
        // The typed error formats (and converts to the legacy String)
        // with the path and the reason.
        let msg = String::from(read_wal(&path).unwrap_err());
        assert!(msg.contains("bad magic"), "{msg}");
        assert!(msg.contains("magic"), "{msg}");
        // Open never modifies a file it rejected.
        assert_eq!(fs::read(&path).unwrap(), b"XXXXXXXXgarbage");
        let _ = fs::remove_file(&path);
    }

    /// The satellite regression: a header cut at each of the first 8
    /// bytes is a typed [`WalError::TruncatedMagic`] — never a panic,
    /// never an `Ok` that quietly wipes the file and restarts it.
    #[test]
    fn headers_cut_at_each_of_the_first_eight_bytes_are_typed_errors() {
        let path = temp_wal("short-magic");
        for cut in 1..WAL_MAGIC.len() {
            fs::write(&path, &WAL_MAGIC[..cut]).unwrap();
            match read_wal(&path) {
                Err(WalError::TruncatedMagic { path: p, len }) => {
                    assert_eq!(p, path, "cut at {cut}");
                    assert_eq!(len, cut as u64, "cut at {cut}");
                }
                other => panic!("cut at {cut}: expected TruncatedMagic, got {other:?}"),
            }
            assert!(
                matches!(Segment::open(&path), Err(WalError::TruncatedMagic { .. })),
                "cut at {cut}: open must fail too"
            );
            assert_eq!(
                fs::read(&path).unwrap(),
                &WAL_MAGIC[..cut],
                "cut at {cut}: the corrupt file must be left untouched"
            );
            // Short garbage that is not a magic prefix is the same
            // typed error — a short header cannot be validated.
            fs::write(&path, &b"NOTAWAL!"[..cut]).unwrap();
            assert!(
                matches!(read_wal(&path), Err(WalError::TruncatedMagic { .. })),
                "garbage cut at {cut}"
            );
        }
        // Cut 0 (empty) and cut 8 (complete magic) stay valid, fresh
        // and record-free.
        for contents in [&b""[..], WAL_MAGIC] {
            fs::write(&path, contents).unwrap();
            let read = read_wal(&path).unwrap();
            assert!(read.records.is_empty());
            assert_eq!(read.torn_bytes, 0);
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn fault_specs_parse_and_reject() {
        let plan = FaultPlan::parse("kill@12").unwrap();
        assert_eq!(plan.kind, FaultKind::Kill);
        assert_eq!(plan.at_event, 12);
        assert_eq!(plan.shard, None);
        let plan = FaultPlan::parse("torn:5@7#2").unwrap();
        assert_eq!(plan.kind, FaultKind::Torn { keep: 5 });
        assert_eq!(plan.shard, Some(2));
        let plan = FaultPlan::parse("ckpt-post@30").unwrap();
        assert_eq!(plan.kind, FaultKind::CkptPost);
        assert!(FaultPlan::parse("boom@3").is_err());
        assert!(FaultPlan::parse("kill").is_err());
        assert!(FaultPlan::parse("kill@x").is_err());
    }

    #[test]
    fn faults_strike_once_on_the_matching_shard_and_phase() {
        let plan = FaultPlan::new(FaultKind::Kill, 3).on_shard(1);
        assert_eq!(plan.strike(0, 5, false), None, "wrong shard");
        assert_eq!(plan.strike(1, 2, false), None, "too early");
        assert_eq!(plan.strike(1, 3, true), None, "wrong phase");
        assert_eq!(plan.strike(1, 3, false), Some(FaultKind::Kill));
        assert_eq!(plan.strike(1, 4, false), None, "already fired");
        assert!(plan.has_fired());

        let ckpt = FaultPlan::new(FaultKind::CkptPre, 2);
        assert_eq!(ckpt.strike(0, 4, false), None, "append phase");
        assert_eq!(ckpt.strike(0, 4, true), Some(FaultKind::CkptPre));
    }
}
