//! The AddOn Mechanism (§5, Mechanism 2): online, additive
//! optimizations.
//!
//! Users come and go across slots `1..=z`. At every slot the mechanism
//! re-runs the Shapley Value Mechanism over **residual bids**
//! `b'_ij = Σ_{τ≥t} b_ij(τ)`, with every previously-serviced user forced
//! in (`b'_ij = ∞`, modeled as [`ShapleyBid::Committed`]). The serviced
//! set therefore only grows — it is the *cumulative* set `CS_j(t)` —
//! and the per-user share `C_j/|CS_j(t)|` only falls. A user pays when
//! her bid expires (`e_i = t`), at the lowest share computed so far.
//!
//! [`AddOnState`] exposes the interactive protocol of §5.1 — bids arrive
//! at their start slot, future bids may be revised upward, retroactive
//! bids are rejected — and [`run`] drives it end-to-end for batch
//! experiments.
//!
//! Two [`Engine`]s drive the per-slot Shapley computation. The
//! default [`Engine::Incremental`] keeps one [`crate::shapley::Solver`]
//! alive across slots (bids stay sorted, committing a slot's serviced
//! cohort is O(1), arrivals/expiries are indexed by slot). Slots whose
//! solver holds off-grid values also arm the next slot's pre-sorted
//! splice, prepared on a second thread while the slot is priced when
//! the slot has at least [`crate::pipeline::DEFAULT_FORK_MIN`] pending
//! users and the host a second core ([`crate::pipeline`]).
//! [`Engine::Rebuild`] re-runs [`crate::shapley::run`] on a freshly
//! built bid map every slot — the paper-literal baseline. Outcomes are
//! identical (property-tested and gated by the differential oracle);
//! only the cost profile differs.
//!
//! ```
//! use osp_core::prelude::*;
//!
//! // Paper Example 3: a $100 optimization over three slots.
//! let bid = |u, start, values: &[i64]| {
//!     OnlineBid::new(
//!         UserId(u),
//!         SlotSeries::new(
//!             SlotId(start),
//!             values.iter().map(|&v| Money::from_dollars(v)).collect(),
//!         )
//!         .unwrap(),
//!     )
//! };
//! let game = AddOnGame::new(
//!     3,
//!     Money::from_dollars(100),
//!     vec![
//!         bid(1, 1, &[101]),
//!         bid(2, 1, &[16, 16, 16]),
//!         bid(3, 2, &[26]),
//!         bid(4, 2, &[26]),
//!     ],
//! )?;
//! let outcome = addon::run(&game)?;
//! // User 1 carried the cost alone at t=1; later joiners cut the share
//! // to $25, which is what everyone leaving later pays.
//! assert_eq!(outcome.payments[&UserId(1)], Money::from_dollars(100));
//! assert_eq!(outcome.payments[&UserId(2)], Money::from_dollars(25));
//! # Ok::<(), osp_core::MechanismError>(())
//! ```

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use osp_econ::schedule::SlotSeries;
use osp_econ::{
    FastMap, FastSet, Ledger, Money, OptId, ResidualTracker, SlotId, UserId, ValueSchedule,
};

use crate::error::{MechanismError, Result};
use crate::game::{AddOnGame, OnlineBid};
use crate::pipeline;
use crate::shapley::{self, Engine, ShapleyBid, Solver};

/// Slot `slot`'s pre-computed ingest, assembled by the pipeline's
/// stage A while slot `slot - 1` was being priced: the full sorted
/// `(value, lane, user)` update batch the solver will splice in, plus
/// the pre-summed residual seeds for the arrivals known at preparation
/// time. The batch is snapshotted while the overlapped pricing may
/// still be committing users; `Solver::replace_finite_merge` filters
/// those (and this slot's retirees) off the `states` map at consume
/// time.
#[derive(Debug, Clone, Default)]
struct PipelinePrepared {
    slot: u32,
    batch: Vec<(Money, i64, UserId)>,
    seeds: Vec<(UserId, Money)>,
}

/// Scratch of the pre-sorted splice: the armed next-slot ingest, the
/// two test hooks, the spent snapshot buffer (recycled so steady-state
/// slots reallocate nothing), and the persistent stage-A worker thread.
#[derive(Debug, Clone, Default)]
struct PipelineScratch {
    prepared: Option<PipelinePrepared>,
    fork_min: Option<usize>,
    sequential: bool,
    spare: Vec<(Money, i64, UserId)>,
    worker: pipeline::Worker<IngestJob, IngestDone>,
}

/// Everything the pipeline's stage A needs, **moved** to the worker
/// thread for the duration of the overlapped pricing and moved back in
/// [`IngestDone`]. Stage B never touches these fields (it reads only
/// the solver, the expiry row, and the prepared snapshot), so shipping
/// them by value is free — three pointers' worth of memcpy — and keeps
/// the handoff borrow-free.
struct IngestJob {
    residuals: ResidualTracker,
    bids: FastMap<UserId, SlotSeries>,
    starts: Vec<Vec<UserId>>,
    arm: bool,
    t: SlotId,
    next: u32,
    spare: Vec<(Money, i64, UserId)>,
}

/// The moved state coming home after stage A, plus the armed snapshot.
struct IngestDone {
    residuals: ResidualTracker,
    bids: FastMap<UserId, SlotSeries>,
    starts: Vec<Vec<UserId>>,
    prepared: Option<PipelinePrepared>,
}

/// The stage-A job body (a plain `fn`, as [`pipeline::Worker`]
/// requires).
fn run_ingest(job: IngestJob) -> IngestDone {
    let IngestJob {
        mut residuals,
        bids,
        starts,
        arm,
        t,
        next,
        spare,
    } = job;
    let prepared = ingest_stage(&mut residuals, &bids, &starts, arm, t, next, spare);
    IngestDone {
        residuals,
        bids,
        starts,
        prepared,
    }
}

/// The least common multiple of every batch value's (reduced)
/// denominator, iff it and every numerator scaled to it fit `i128`.
/// `Some((scale, fits_i64))` certifies that `numer * (scale / denom)`
/// is an exact integer image of each value — equal scaling by a
/// positive constant — so sorting by those keys equals sorting by the
/// rationals themselves; `fits_i64` additionally promises every key
/// fits the narrower `i64`.
fn common_scale(batch: &[(Money, i64, UserId)]) -> Option<(i128, bool)> {
    fn gcd(mut a: i128, mut b: i128) -> i128 {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    }
    let mut scale: i128 = 1;
    for &(v, _, _) in batch {
        let den = v.as_ratio().denom();
        scale = (scale / gcd(scale, den)).checked_mul(den)?;
    }
    let mut narrow = true;
    for &(v, _, _) in batch {
        let r = v.as_ratio();
        let key = r.numer().checked_mul(scale / r.denom())?;
        narrow &= i64::try_from(key).is_ok();
    }
    Some((scale, narrow))
}

/// The pipeline's stage A, also the tail of every unarmed solver slot:
/// retire slot `t` from the running residuals (restoring the invariant
/// `residuals[u] = residual_from(now)` for the next slot) and, when
/// `arm` is set, snapshot the sorted update batch and arrival seeds
/// slot `next` will splice in. Users the overlapped
/// stage B is committing are still tracked here; they are filtered off
/// the solver's `states` map when the batch is consumed.
fn ingest_stage(
    residuals: &mut ResidualTracker,
    bids: &FastMap<UserId, SlotSeries>,
    starts: &[Vec<UserId>],
    arm: bool,
    t: SlotId,
    next: u32,
    mut batch: Vec<(Money, i64, UserId)>,
) -> Option<PipelinePrepared> {
    residuals.advance(t, |u| &bids[&u]);
    if !arm {
        return None;
    }
    batch.clear();
    batch.extend(residuals.iter().map(|(u, r)| (r, shapley::lane_of(r), u)));
    // Residual values are exact rationals, and comparing two of them
    // costs a 128-bit cross-multiply whenever their denominators differ
    // — on off-grid traces that makes this sort the whole slot's
    // bottleneck. Scaling every value to the batch's common denominator
    // yields exact integer keys instead, computed once per element; the
    // rational comparator stays as the fallback when the lcm (or a
    // scaled numerator) would overflow, and both produce the identical
    // order.
    match common_scale(&batch) {
        Some((scale, true)) => batch.sort_by_cached_key(|&(v, _, u)| {
            let r = v.as_ratio();
            let key = r.numer() * (scale / r.denom());
            let key = i64::try_from(key).expect("common_scale certified i64 keys");
            std::cmp::Reverse((key, u))
        }),
        Some((scale, false)) => batch.sort_by_cached_key(|&(v, _, u)| {
            let r = v.as_ratio();
            std::cmp::Reverse((r.numer() * (scale / r.denom()), u))
        }),
        None => batch.sort_unstable_by_key(|&(v, _, u)| std::cmp::Reverse((v, u))),
    }
    let seeds: Vec<(UserId, Money)> = starts[next as usize]
        .iter()
        .map(|&u| (u, bids[&u].residual_from(SlotId(next))))
        .collect();
    Some(PipelinePrepared {
        slot: next,
        batch,
        seeds,
    })
}

/// The pipeline's stage B tail, also the middle of every sequential
/// solver slot: solve slot `t`, commit the serviced prefix, and collect
/// the expiring committed users who pay this slot (lines 13–19).
fn price_slot(
    solver: &mut Solver,
    expiring: &[UserId],
) -> (Option<Money>, Vec<UserId>, Vec<UserId>) {
    let sol = solver.solve();
    let share = sol.share;
    let newly: Vec<UserId> = solver.serviced_finite(&sol).to_vec();
    solver.commit_top(sol.serviced_finite);
    // Lines 15–19: users pay when their bid expires, at the share of
    // this slot's (grown) cumulative set.
    let payers: Vec<UserId> = expiring
        .iter()
        .copied()
        .filter(|&u| solver.bid(u) == Some(ShapleyBid::Committed))
        .collect();
    (share, newly, payers)
}

mod pipeline_serde {
    //! The pipeline scratch is pure rebuildable cache: checkpoints
    //! store `null` and a resumed game prices its first slot on the
    //! sequential path (which is bit-identical), re-arming the
    //! pipeline as it goes — outcomes are unchanged.
    use super::PipelineScratch;
    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    pub(super) fn serialize<S: Serializer>(
        _: &PipelineScratch,
        serializer: S,
    ) -> Result<S::Ok, S::Error> {
        None::<u8>.serialize(serializer)
    }

    pub(super) fn deserialize<'de, D: Deserializer<'de>>(
        deserializer: D,
    ) -> Result<PipelineScratch, D::Error> {
        Option::<u8>::deserialize(deserializer)?;
        Ok(PipelineScratch::default())
    }
}

/// What happened in one slot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotReport {
    /// The slot just processed.
    pub slot: SlotId,
    /// Users serviced in this slot (`S_j(t)`: cumulative members still
    /// inside their service interval).
    pub active: BTreeSet<UserId>,
    /// Users entering the cumulative set this slot.
    pub newly_serviced: BTreeSet<UserId>,
    /// Current share `C_j/|CS_j(t)|` (None while unimplemented).
    pub share: Option<Money>,
    /// Payments charged to users whose bids expired this slot.
    pub payments: Vec<(UserId, Money)>,
}

/// The AddOn mechanism as an interactive state machine.
///
/// Serializes in full — a mid-game checkpoint deserializes into a
/// state that continues bit-identically (see
/// `tests/serde_roundtrip.rs`), which is what makes long-horizon games
/// resumable across process restarts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AddOnState {
    cost: Money,
    horizon: u32,
    /// Next slot to process (1-based). `now > horizon` ⇒ finished.
    now: u32,
    engine: Engine,
    /// Never iterated (hash order must not leak), only looked up —
    /// which is also why the seedless [`FastMap`] hasher is safe here.
    bids: FastMap<UserId, SlotSeries>,
    /// [`Engine::Rebuild`] only: the cumulative set `CS_j(t)`. The
    /// incremental engine reads commitment off the solver instead.
    cumulative: BTreeSet<UserId>,
    /// Maintained directly by [`Engine::Rebuild`]; the incremental
    /// engine logs into [`Self::first_log`] and sorts once at the end.
    first_serviced: BTreeMap<UserId, SlotId>,
    /// Like [`Self::first_serviced`], with [`Self::pay_log`].
    payments: BTreeMap<UserId, Money>,
    implemented_at: Option<SlotId>,
    share_by_slot: Vec<Option<Money>>,
    /// The persistent Shapley solver (solver engines only).
    solver: Solver,
    /// Started, uncommitted, not-yet-expired users: the only bids whose
    /// residuals can still change between slots (incremental only).
    pending: FastSet<UserId>,
    /// Running residual `Σ_{τ ≥ now} v(τ)` for every pending user:
    /// seeded at arrival, decremented by `value_at(t)` as slot `t`
    /// retires, re-seeded on `revise` — so the per-slot solver update
    /// costs O(pending), not O(pending · remaining-duration)
    /// (incremental only; mirrors [`Self::pending`] exactly).
    residuals: ResidualTracker,
    /// `starts[t]`: users whose series starts at slot `t`, so arrivals
    /// cost O(arrivals), not O(m) (incremental only).
    starts: Vec<Vec<UserId>>,
    /// `expiries[t]`: users whose series ends at slot `t`, so exit
    /// payments cost O(exits), not O(m) (incremental only).
    expiries: Vec<Vec<UserId>>,
    /// Deferred `(user, first-serviced slot)` pairs (incremental only).
    first_log: Vec<(UserId, SlotId)>,
    /// Deferred `(user, exit payment)` pairs (incremental only).
    pay_log: Vec<(UserId, Money)>,
    /// Next slot's pre-computed ingest (armed by an off-grid slot's
    /// stage A, invalidated by [`Self::revise`]).
    #[serde(with = "pipeline_serde")]
    pipeline: PipelineScratch,
}

impl AddOnState {
    /// Starts a game for one optimization of cost `cost` over
    /// `horizon` slots, using the default [`Engine::Incremental`].
    pub fn new(cost: Money, horizon: u32) -> Result<Self> {
        Self::with_engine(cost, horizon, Engine::default())
    }

    /// Starts a game with an explicit per-slot Shapley [`Engine`].
    pub fn with_engine(cost: Money, horizon: u32, engine: Engine) -> Result<Self> {
        if !cost.is_positive() {
            return Err(MechanismError::NonPositiveCost {
                opt: OptId(0),
                cost,
            });
        }
        crate::check_horizon(horizon)?;
        let slots = horizon as usize + 1; // 1-based slot indexing
        Ok(AddOnState {
            cost,
            horizon,
            now: 1,
            engine,
            bids: FastMap::default(),
            cumulative: BTreeSet::new(),
            first_serviced: BTreeMap::new(),
            payments: BTreeMap::new(),
            implemented_at: None,
            share_by_slot: Vec::with_capacity(horizon as usize),
            solver: Solver::new(cost)?,
            pending: FastSet::default(),
            residuals: ResidualTracker::new(),
            starts: vec![Vec::new(); slots],
            expiries: vec![Vec::new(); slots],
            first_log: Vec::new(),
            pay_log: Vec::new(),
            pipeline: PipelineScratch::default(),
        })
    }

    /// Test hook: arm the pre-sorted splice in every slot of at least
    /// `fork_min` pending plus arriving users, whatever their grid, and
    /// fork every armed slot onto the worker thread on any host (`None`
    /// restores the default policy). `Some(0)` hammers the handoff on
    /// games far too small to arm naturally.
    #[doc(hidden)]
    pub fn set_fork_min(&mut self, fork_min: Option<usize>) {
        self.pipeline.fork_min = fork_min;
    }

    /// Test hook: run every armed slot's stages on the caller (price,
    /// then ingest), as a single-core host does, whatever the override.
    #[doc(hidden)]
    pub fn set_sequential_splice(&mut self, sequential: bool) {
        self.pipeline.sequential = sequential;
    }

    /// `true` when the slot about to be processed has a pre-sorted
    /// splice armed (the previous slot armed it, and no revision has
    /// dropped the snapshot since). Lets tests check which side of the
    /// gate a slot takes.
    #[doc(hidden)]
    #[must_use]
    pub fn splice_armed(&self) -> bool {
        self.pipeline
            .prepared
            .as_ref()
            .is_some_and(|p| p.slot == self.now)
    }

    /// The slot about to be processed.
    #[must_use]
    pub fn now(&self) -> SlotId {
        SlotId(self.now)
    }

    /// The game horizon `z`.
    #[must_use]
    pub fn horizon(&self) -> u32 {
        self.horizon
    }

    /// `true` once every slot has been processed ([`Self::advance`]
    /// would return [`MechanismError::HorizonExhausted`]).
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.now > self.horizon
    }

    /// The share `C_j/|CS_j(t)|` after the most recently processed
    /// slot (`None` before the first slot or while unimplemented).
    #[must_use]
    pub fn current_share(&self) -> Option<Money> {
        self.share_by_slot.last().copied().flatten()
    }

    /// The slot the optimization was implemented, if it has been.
    #[must_use]
    pub fn implemented_at(&self) -> Option<SlotId> {
        self.implemented_at
    }

    /// The last slot of `user`'s current bid, if she has one.
    #[must_use]
    pub fn bid_end(&self, user: UserId) -> Option<SlotId> {
        self.bids.get(&user).map(SlotSeries::end)
    }

    /// `true` iff `user` has entered the cumulative serviced set
    /// `CS_j` (membership only grows, so this never flips back).
    #[must_use]
    pub fn is_serviced(&self, user: UserId) -> bool {
        if self.engine.uses_solver() {
            self.first_log.iter().any(|&(u, _)| u == user)
        } else {
            self.cumulative.contains(&user)
        }
    }

    /// The payment charged to `user` so far. When a revision extended
    /// a bid past an exit that already paid, this is the
    /// chronologically *last* payment — the one [`Self::finish`] keeps.
    #[must_use]
    pub fn payment_of(&self, user: UserId) -> Option<Money> {
        if self.engine.uses_solver() {
            self.pay_log
                .iter()
                .rev()
                .find(|&&(u, _)| u == user)
                .map(|&(_, p)| p)
        } else {
            self.payments.get(&user).copied()
        }
    }

    /// Accepts a new bid. §5.1: bids cannot be retroactive.
    pub fn submit(&mut self, bid: OnlineBid) -> Result<()> {
        if self.bids.contains_key(&bid.user) {
            return Err(MechanismError::DuplicateUser { user: bid.user });
        }
        if bid.start().index() < self.now {
            return Err(MechanismError::RetroactiveBid {
                user: bid.user,
                start: bid.start(),
                now: self.now(),
            });
        }
        if bid.end().index() > self.horizon {
            return Err(MechanismError::BeyondHorizon {
                user: bid.user,
                end: bid.end(),
                horizon: self.horizon,
            });
        }
        self.starts[bid.start().index() as usize].push(bid.user);
        self.expiries[bid.end().index() as usize].push(bid.user);
        self.bids.insert(bid.user, bid.series);
        Ok(())
    }

    /// Revises a user's bid from slot `from` onward to `new_values`
    /// (which may extend `e_i`; "e_i can only increase", §5.1).
    ///
    /// Only *future* slots (`from ≥ now`) may be revised, and only
    /// *upward* — each new per-slot value must be at least the old one.
    pub fn revise(&mut self, user: UserId, from: SlotId, new_values: Vec<Money>) -> Result<()> {
        let old = self
            .bids
            .get(&user)
            .ok_or(MechanismError::UnknownUser { user })?;
        if from.index() < self.now {
            return Err(MechanismError::RetroactiveBid {
                user,
                start: from,
                now: self.now(),
            });
        }
        let from_idx = from.index().max(old.start().index());
        let new_end = from_idx + u32::try_from(new_values.len()).unwrap() - 1;
        if new_values.is_empty() || new_end < old.end().index() {
            // Shrinking the interval would lower future bids to zero.
            return Err(MechanismError::DownwardRevision {
                user,
                slot: old.end(),
                old: old.value_at(old.end()),
                new: Money::ZERO,
            });
        }
        if new_end > self.horizon {
            return Err(MechanismError::BeyondHorizon {
                user,
                end: SlotId(new_end),
                horizon: self.horizon,
            });
        }
        // Assemble the replacement series: unchanged prefix, revised
        // suffix; verify the upward constraint slot by slot.
        let start = old.start();
        let mut values = Vec::with_capacity((new_end - start.index() + 1) as usize);
        for t in start.index()..from_idx {
            values.push(old.value_at(SlotId(t)));
        }
        for (k, &v) in new_values.iter().enumerate() {
            let slot = SlotId(from_idx + u32::try_from(k).unwrap());
            let prev = old.value_at(slot);
            if v < prev {
                return Err(MechanismError::DownwardRevision {
                    user,
                    slot,
                    old: prev,
                    new: v,
                });
            }
            values.push(v);
        }
        let series = SlotSeries::new(start, values)?;
        let old_end = old.end().index() as usize;
        if series.end().index() as usize != old_end {
            self.expiries[old_end].retain(|&u| u != user);
            self.expiries[series.end().index() as usize].push(user);
        }
        self.bids.insert(user, series);
        // An extension can resurrect a user the incremental engine
        // already retired (expired unserviced ⇒ dropped from `pending`
        // and the solver): their new end is ≥ `from` ≥ `now`, so they
        // bid again. Started, uncommitted, untracked ⇒ re-add.
        if start.index() < self.now
            && !self.pending.contains(&user)
            && self.solver.bid(user).is_none()
        {
            self.pending.insert(user);
        }
        // The running residual was seeded from the old series; re-seed
        // it from the new one (covers the resurrection above, too).
        if self.pending.contains(&user) {
            self.residuals
                .reset(user, &self.bids[&user], SlotId(self.now));
        }
        // A revision changes a series the pipeline may have already
        // snapshotted (her batch value, or her arrival seed); drop the
        // prepared ingest and let the next slot take the sequential
        // path. Plain submits never invalidate — `starts[]` is
        // append-only, so prepared seeds stay a valid prefix.
        self.pipeline.prepared = None;
        Ok(())
    }

    /// Processes the current slot: one Shapley run over residual bids,
    /// cumulative-set update, and exit payments (Mechanism 2 lines
    /// 2–19).
    pub fn advance(&mut self) -> Result<SlotReport> {
        Ok(self.step(true)?.expect("report requested"))
    }

    /// [`Self::advance`] without materializing the [`SlotReport`] —
    /// the stepping call for batch drivers (trace replay, benchmarks,
    /// the load harness) that price every slot and read only the final
    /// [`Self::finish`] outcome. The report's `active` set alone costs
    /// O(|CS|) map lookups per slot, which dwarfs the incremental
    /// solver's own per-slot work once the cumulative set has grown;
    /// skipping it keeps the replay loop on the solver hot path.
    pub fn advance_quiet(&mut self) -> Result<()> {
        self.step(false)?;
        Ok(())
    }

    /// One slot of Mechanism 2. `want_report = false` (the batch
    /// drivers) skips materializing the per-slot [`SlotReport`] — the
    /// `active` set alone would cost O(|CS|) per slot.
    fn step(&mut self, want_report: bool) -> Result<Option<SlotReport>> {
        if self.now > self.horizon {
            return Err(MechanismError::HorizonExhausted {
                horizon: self.horizon,
            });
        }
        let t = SlotId(self.now);
        if self.engine.uses_solver() {
            Ok(self.step_incremental(t, want_report))
        } else {
            Ok(Some(self.step_rebuild(t)))
        }
    }

    /// One slot on the persistent solver: no per-slot maps are
    /// allocated, committed/unseen users cost nothing, and pending
    /// users bid their *running* residual ([`ResidualTracker`]) — one
    /// subtraction per slot instead of an O(remaining-duration)
    /// `residual_from` re-sum. Total per-slot cost: O(arrivals +
    /// pending + exits), even for long-lived bids.
    fn step_incremental(&mut self, t: SlotId, want_report: bool) -> Option<SlotReport> {
        // Retire bids that expired last slot without ever being
        // serviced: their residual is zero from here on, and a zero bid
        // can never clear a positive share (§4.1), so dropping them
        // entirely leaves every future outcome unchanged.
        let mut retired: Vec<UserId> = Vec::new();
        if self.now > 1 {
            for i in 0..self.expiries[self.now as usize - 1].len() {
                let u = self.expiries[self.now as usize - 1][i];
                if self.pending.remove(&u) {
                    self.residuals.remove(u);
                    retired.push(u);
                }
            }
            // One compaction pass over the solver columns instead of
            // O(retired · finite) per-user Vec::removes. Kept even when
            // a prepared batch is about to replace the finite region:
            // it is what erases the retirees' `states` entries.
            self.solver.remove_bids(retired.iter().copied());
        }
        // Lines 3–11: reveal bids whose series starts now. Unseen users
        // (`s_i > t`) are skipped entirely rather than materialized as
        // zero bids — same outcome, no per-slot O(m) sweep. Arrivals
        // seed their running residual (their one full suffix sum).
        let arrived = std::mem::take(&mut self.starts[self.now as usize]);

        // Consume the ingest that stage A prepared while the previous
        // slot was being priced. Reaching here with a batch armed for
        // this slot means the previous slot armed it and no `revise`
        // invalidated the snapshot since.
        let prepared = match self.pipeline.prepared.take() {
            Some(p) if p.slot == self.now => Some(p),
            _ => None,
        };
        let next = self.now + 1;

        // Line 13. An armed slot runs the two-stage slot pipeline:
        // stage B splices the pre-sorted batch into the solver columns,
        // solves, and commits slot `t` while stage A retires slot `t`
        // from the running residuals and, if this slot arms the next,
        // pre-sorts slot `t+1`'s update batch and arrival seeds. The
        // stages touch disjoint fields (B: solver + expiries + the
        // prepared snapshot; A: residuals + bids + starts), every
        // quantity is exact `Money` arithmetic, and the non-forked path
        // runs B then A — the unarmed slot's own order — so fork vs
        // no-fork is invisible in outcomes. An unarmed slot
        // batch-updates the solver instead.
        let (prepared_next, (share, newly, payers)) = if let Some(p) = prepared {
            // Arrival seeds were pre-summed for the prefix of `arrived`
            // known at preparation time; arrivals submitted since
            // (`starts[]` is append-only) seed inline, exactly like the
            // sequential path.
            debug_assert!(p.seeds.len() <= arrived.len());
            for (i, &u) in arrived.iter().enumerate() {
                match p.seeds.get(i) {
                    Some(&(seeded, residual)) => {
                        debug_assert_eq!(seeded, u, "seed order drifted from starts[]");
                        self.residuals.insert_residual(u, residual);
                    }
                    None => self.residuals.insert(u, &self.bids[&u], t),
                }
            }
            self.pending.extend(arrived.iter().copied());
            let mut fresh: Vec<(Money, i64, UserId)> = arrived
                .iter()
                .map(|&u| {
                    let r = self.residuals.get(u).expect("arrival was just seeded");
                    (r, shapley::lane_of(r), u)
                })
                .collect();
            fresh.sort_unstable_by_key(|&(v, _, u)| std::cmp::Reverse((v, u)));
            let arm = self.arms_next();
            // An override forks every armed slot, even on one core,
            // unless tests ask for the sequential order; by default
            // small slots and single-core hosts stay on the caller.
            let fork = !self.pipeline.sequential
                && (self.pipeline.fork_min.is_some()
                    || (pipeline::multicore()
                        && self.residuals.len() >= pipeline::DEFAULT_FORK_MIN));
            let solver = &mut self.solver;
            let expiring = &self.expiries[self.now as usize];
            // Stage A's state ships to the worker by value and comes
            // home with the result; stage B never reads these fields.
            let job = IngestJob {
                residuals: std::mem::take(&mut self.residuals),
                bids: std::mem::take(&mut self.bids),
                starts: std::mem::take(&mut self.starts),
                arm,
                t,
                next,
                spare: std::mem::take(&mut self.pipeline.spare),
            };
            let (done, (priced, spent)) = pipeline::overlap_owned(
                &mut self.pipeline.worker,
                fork,
                run_ingest,
                job,
                move || {
                    // The snapshot still holds last slot's commits and
                    // this slot's retirees; `replace_finite_merge`
                    // drops both off the `states` map (committed /
                    // erased entries) while splicing. The result is
                    // exactly what `update_bids` over
                    // `residuals.iter()` would build: every pending
                    // user at her current running residual, sorted by
                    // (value, user).
                    solver.replace_finite_merge(&p.batch, &fresh);
                    (price_slot(solver, expiring), p.batch)
                },
            );
            self.residuals = done.residuals;
            self.bids = done.bids;
            self.starts = done.starts;
            // Recycle the spent snapshot buffer for a later stage A.
            self.pipeline.spare = spent;
            (done.prepared, priced)
        } else {
            for &u in &arrived {
                self.residuals.insert(u, &self.bids[&u], t);
            }
            self.pending.extend(arrived);
            // Line 13 (ingest half): one incremental batch update over
            // committed + running-residual bids. (`residuals` mirrors
            // `pending`, so this feeds exactly the pending users;
            // `update_bids` sorts internally, so the hash iteration
            // order cannot leak into the outcome.)
            self.solver.update_bids(self.residuals.iter());
            let arm = self.arms_next();
            let priced = price_slot(&mut self.solver, &self.expiries[self.now as usize]);
            let spare = std::mem::take(&mut self.pipeline.spare);
            let prepared_next = ingest_stage(
                &mut self.residuals,
                &self.bids,
                &self.starts,
                arm,
                t,
                next,
                spare,
            );
            (prepared_next, priced)
        };
        for &u in &newly {
            self.pending.remove(&u);
            self.residuals.remove(u);
            self.first_log.push((u, t));
        }
        self.pipeline.prepared = prepared_next;

        if share.is_some() && self.implemented_at.is_none() {
            self.implemented_at = Some(t);
        }
        self.share_by_slot.push(share);

        let mut payments = Vec::with_capacity(payers.len());
        for u in payers {
            let p = share.expect("a committed user implies implementation");
            self.pay_log.push((u, p));
            payments.push((u, p));
        }
        payments.sort_unstable();

        self.now += 1;
        if self.now > self.horizon {
            // A finished game never arms again: join its worker thread
            // and free the batch buffer now, not when the state is
            // dropped (a server keeps finished games).
            self.pipeline = PipelineScratch::default();
        }
        if !want_report {
            return None;
        }
        // Line 14: the active members of the cumulative set (read off
        // the solver's committed prefix).
        let active: BTreeSet<UserId> = self
            .solver
            .committed_users()
            .filter(|u| self.bids[u].end() >= t)
            .collect();
        Some(SlotReport {
            slot: t,
            active,
            newly_serviced: newly.into_iter().collect(),
            share,
            payments,
        })
    }

    /// Whether the slot being processed arms the next slot's pre-sorted
    /// splice: a next slot exists and the solver holds off-grid bids —
    /// the integer-key sort only pays where `update_bids` would compare
    /// rationals, not `i64` lanes. An override arms by size alone.
    fn arms_next(&self) -> bool {
        self.now < self.horizon
            && match self.pipeline.fork_min {
                Some(min) => self.residuals.len() >= min,
                None => self.solver.has_off_grid(),
            }
    }

    /// One slot as the seed's literal Mechanism 2 transcription: a
    /// fresh `BTreeMap` over **every** submitted bid (unseen users
    /// become `Value(0)`), a from-scratch [`shapley::run`], and O(m)
    /// sweeps for payments and the active set. Kept bit-identical to
    /// the pre-solver implementation as the benchmark baseline and the
    /// equivalence oracle.
    fn step_rebuild(&mut self, t: SlotId) -> SlotReport {
        // Lines 3–11: committed / residual / unseen bids.
        let shapley_bids: BTreeMap<UserId, ShapleyBid> = self
            .bids
            .iter()
            .map(|(&u, series)| {
                let bid = if self.cumulative.contains(&u) {
                    ShapleyBid::Committed
                } else if series.start() <= t {
                    ShapleyBid::Value(series.residual_from(t))
                } else {
                    ShapleyBid::Value(Money::ZERO)
                };
                (u, bid)
            })
            .collect();

        // Line 13: update the cumulative serviced set.
        let result = shapley::run(self.cost, &shapley_bids);
        let newly_serviced: BTreeSet<UserId> = result
            .serviced
            .difference(&self.cumulative)
            .copied()
            .collect();
        for &u in &newly_serviced {
            self.first_serviced.insert(u, t);
        }
        let share = result.is_implemented().then_some(result.share);
        self.cumulative = result.serviced;

        if share.is_some() && self.implemented_at.is_none() {
            self.implemented_at = Some(t);
        }
        self.share_by_slot.push(share);

        // Line 14: service the active members of the cumulative set.
        let active: BTreeSet<UserId> = self
            .cumulative
            .iter()
            .copied()
            .filter(|u| self.bids[u].end() >= t)
            .collect();

        // Lines 15–19: users pay when their bid expires.
        let mut payments = Vec::new();
        for (&u, series) in &self.bids {
            if series.end() == t && self.cumulative.contains(&u) {
                let p = result.share;
                self.payments.insert(u, p);
                payments.push((u, p));
            }
        }
        payments.sort_unstable();

        self.now += 1;
        SlotReport {
            slot: t,
            active,
            newly_serviced,
            share,
            payments,
        }
    }

    /// Runs the remaining slots and returns the final outcome.
    pub fn finish(mut self) -> Result<AddOnOutcome> {
        while self.now <= self.horizon {
            self.step(false)?;
        }
        if self.engine.uses_solver() {
            self.first_log.sort_unstable();
            self.first_serviced = self.first_log.drain(..).collect();
            // A committed user can pay twice: once at her original
            // expiry and again if a revision extended her end. The
            // *last* (chronological) payment is the final one, matching
            // the rebuild engine's per-slot map overwrite — so the sort
            // must be stable (pay_log is in slot order).
            self.pay_log.sort_by_key(|&(u, _)| u);
            self.payments = self.pay_log.drain(..).collect();
        }
        Ok(AddOnOutcome {
            cost: self.cost,
            horizon: self.horizon,
            implemented_at: self.implemented_at,
            first_serviced: self.first_serviced,
            payments: self.payments,
            share_by_slot: self.share_by_slot,
        })
    }
}

/// Final outcome of an AddOn game for one optimization.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddOnOutcome {
    /// The optimization's cost.
    pub cost: Money,
    /// Number of slots.
    pub horizon: u32,
    /// Slot at which the optimization was implemented, if ever.
    pub implemented_at: Option<SlotId>,
    /// For each ever-serviced user, the slot she entered `CS_j`.
    pub first_serviced: BTreeMap<UserId, SlotId>,
    /// Final payments `p_ij` (charged at each user's exit slot).
    pub payments: BTreeMap<UserId, Money>,
    /// The share `C_j/|CS_j(t)|` after each slot (index `t-1`).
    pub share_by_slot: Vec<Option<Money>>,
}

impl AddOnOutcome {
    /// `true` iff the optimization was implemented.
    #[must_use]
    pub fn is_implemented(&self) -> bool {
        self.implemented_at.is_some()
    }

    /// Total collected from users.
    #[must_use]
    pub fn total_payments(&self) -> Money {
        self.payments.values().copied().sum()
    }

    /// The value user `user` actually obtains given her **true** value
    /// series: the suffix of her values from the slot she was first
    /// serviced.
    #[must_use]
    pub fn realized_value(&self, user: UserId, truth: &SlotSeries) -> Money {
        match self.first_serviced.get(&user) {
            Some(&t0) => truth.residual_from(t0),
            None => Money::ZERO,
        }
    }

    /// User `user`'s utility `U_i = V_i − P_i` against her true values.
    #[must_use]
    pub fn utility(&self, user: UserId, truth: &SlotSeries) -> Money {
        self.realized_value(user, truth) - self.payments.get(&user).copied().unwrap_or(Money::ZERO)
    }
}

/// Batch driver: reveals every bid at its start slot and advances
/// through the horizon (default [`Engine::Incremental`]).
pub fn run(game: &AddOnGame) -> Result<AddOnOutcome> {
    run_with_engine(game, Engine::default())
}

/// [`run`] with an explicit per-slot Shapley [`Engine`]; outcomes are
/// engine-independent (property-tested), only the cost profile differs.
pub fn run_with_engine(game: &AddOnGame, engine: Engine) -> Result<AddOnOutcome> {
    play(
        AddOnState::with_engine(game.cost, game.horizon, engine)?,
        game,
    )
}

/// Reveals every bid of `game` at its start slot and advances `state`
/// through the horizon.
fn play(mut state: AddOnState, game: &AddOnGame) -> Result<AddOnOutcome> {
    let mut by_start: BTreeMap<SlotId, Vec<&OnlineBid>> = BTreeMap::new();
    for bid in &game.bids {
        by_start.entry(bid.start()).or_default().push(bid);
    }
    for t in 1..=game.horizon {
        if let Some(bids) = by_start.get(&SlotId(t)) {
            for &bid in bids {
                state.submit(bid.clone())?;
            }
        }
        state.step(false)?;
    }
    state.finish()
}

/// Outcome of running AddOn independently for several additive
/// optimizations (§5 treats each optimization separately).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultiAddOnOutcome {
    /// Per-optimization outcomes.
    pub per_opt: BTreeMap<OptId, AddOnOutcome>,
}

impl MultiAddOnOutcome {
    /// Builds the shared [`Ledger`] (implemented costs + payments).
    #[must_use]
    pub fn to_ledger(&self) -> Ledger {
        let mut ledger = Ledger::new();
        for (&j, out) in &self.per_opt {
            if out.is_implemented() {
                ledger.record_cost(j, out.cost);
            }
            for (&u, &p) in &out.payments {
                ledger.record_payment(u, j, p);
            }
        }
        ledger
    }

    /// Realized value per user measured against a schedule of **true**
    /// values.
    #[must_use]
    pub fn realized_values(&self, truth: &ValueSchedule) -> BTreeMap<UserId, Money> {
        let mut realized: BTreeMap<UserId, Money> = BTreeMap::new();
        for (&j, out) in &self.per_opt {
            for (&u, &t0) in &out.first_serviced {
                if let Some(series) = truth.series(u, j) {
                    *realized.entry(u).or_insert(Money::ZERO) += series.residual_from(t0);
                }
            }
        }
        realized
    }

    /// Summary statistics against true values.
    #[must_use]
    pub fn stats(&self, truth: &ValueSchedule) -> osp_econ::Stats {
        self.to_ledger().stats(&self.realized_values(truth))
    }
}

/// Runs AddOn per optimization over a *bid* schedule (each `(i, j)`
/// series becomes an online bid for optimization `j`).
pub fn run_schedule(costs: &[Money], bids: &ValueSchedule) -> Result<MultiAddOnOutcome> {
    run_schedule_with_engine(costs, bids, Engine::default())
}

/// [`run_schedule`] with an explicit per-slot Shapley [`Engine`].
pub fn run_schedule_with_engine(
    costs: &[Money],
    bids: &ValueSchedule,
    engine: Engine,
) -> Result<MultiAddOnOutcome> {
    let mut per_opt = BTreeMap::new();
    for (idx, &cost) in costs.iter().enumerate() {
        let j = OptId(u32::try_from(idx).unwrap());
        let opt_bids: Vec<OnlineBid> = bids
            .opt_entries(j)
            .map(|(u, series)| OnlineBid::new(u, series.clone()))
            .collect();
        let game = AddOnGame::new(bids.horizon(), cost, opt_bids)?;
        per_opt.insert(j, run_with_engine(&game, engine)?);
    }
    Ok(MultiAddOnOutcome { per_opt })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(d: i64) -> Money {
        Money::from_dollars(d)
    }

    fn bid(u: u32, start: u32, values: &[i64]) -> OnlineBid {
        OnlineBid::new(
            UserId(u),
            SlotSeries::new(SlotId(start), values.iter().map(|&v| m(v)).collect()).unwrap(),
        )
    }

    #[test]
    fn example_3_full_walkthrough() {
        // Paper Example 3: C = 100; bids (1,1,[101]), (1,3,[16,16,16]),
        // (2,2,[26]), (2,2,[26]). Expected: CS(1) = {u0};
        // CS(2) = CS(3) = everyone; payments 100, 25, 25, 25.
        let game = AddOnGame::new(
            3,
            m(100),
            vec![
                bid(0, 1, &[101]),
                bid(1, 1, &[16, 16, 16]),
                bid(2, 2, &[26]),
                bid(3, 2, &[26]),
            ],
        )
        .unwrap();
        let out = run(&game).unwrap();

        assert_eq!(out.implemented_at, Some(SlotId(1)));
        assert_eq!(out.first_serviced[&UserId(0)], SlotId(1));
        assert_eq!(out.first_serviced[&UserId(1)], SlotId(2));
        assert_eq!(out.first_serviced[&UserId(2)], SlotId(2));
        assert_eq!(out.first_serviced[&UserId(3)], SlotId(2));

        assert_eq!(out.payments[&UserId(0)], m(100));
        assert_eq!(out.payments[&UserId(1)], m(25));
        assert_eq!(out.payments[&UserId(2)], m(25));
        assert_eq!(out.payments[&UserId(3)], m(25));
        // Over-recovery is expected: early leavers paid higher shares.
        assert_eq!(out.total_payments(), m(175));
    }

    #[test]
    fn example_3_user2_value_and_utility() {
        // Example 4 continues Example 3: u1 (paper's "user 2") is
        // serviced at t = 2,3 only, so her value is 16+16 = 32 and her
        // utility 32 − 25 = 7.
        let game = AddOnGame::new(
            3,
            m(100),
            vec![
                bid(0, 1, &[101]),
                bid(1, 1, &[16, 16, 16]),
                bid(2, 2, &[26]),
                bid(3, 2, &[26]),
            ],
        )
        .unwrap();
        let out = run(&game).unwrap();
        let truth = SlotSeries::new(SlotId(1), vec![m(16), m(16), m(16)]).unwrap();
        assert_eq!(out.realized_value(UserId(1), &truth), m(32));
        assert_eq!(out.utility(UserId(1), &truth), m(7));
    }

    #[test]
    fn example_2_free_riding_is_prevented() {
        // Paper Example 2: C = 100, θ1 = (1,1,[101]), θ2 = (1,2,[26,26]).
        // The naive per-slot mechanism would let user 2 hide at t=1 and
        // ride free at t=2. Under AddOn, hiding means she is *not* in
        // CS(1); at t=2 her residual 26 joins u0's committed bid, share
        // 50 > 26, so she is never serviced: hiding gains her nothing.
        let hiding = AddOnGame::new(2, m(100), vec![bid(0, 1, &[101]), bid(1, 2, &[26])]).unwrap();
        let out = run(&hiding).unwrap();
        assert!(!out.first_serviced.contains_key(&UserId(1)));
        assert_eq!(out.payments.get(&UserId(1)), None);

        // Truthful, she is serviced from t=1 (52 ≥ 100/2) and pays 50.
        let truthful =
            AddOnGame::new(2, m(100), vec![bid(0, 1, &[101]), bid(1, 1, &[26, 26])]).unwrap();
        let out = run(&truthful).unwrap();
        assert_eq!(out.first_serviced[&UserId(1)], SlotId(1));
        assert_eq!(out.payments[&UserId(1)], m(50));
    }

    #[test]
    fn example_4_model_free_overbidding_hurts_in_worst_case() {
        // Example 4's worst case: no future users arrive. If user 2
        // (values 16/slot, total 48) overbids ≥ 50, she is serviced and
        // pays 50 — utility 48 − 50 = −2 < 0.
        let game =
            AddOnGame::new(3, m(100), vec![bid(0, 1, &[101]), bid(1, 1, &[17, 17, 17])]).unwrap();
        // Truthful-ish low bid: not serviced alone with u0? Residual 51
        // ≥ 100/2 = 50, so she IS serviced and pays 50 when she leaves.
        let out = run(&game).unwrap();
        assert_eq!(out.payments[&UserId(1)], m(50));
        let truth = SlotSeries::new(SlotId(1), vec![m(16), m(16), m(16)]).unwrap();
        // True value 48, paid 50: overbidding backfired.
        assert_eq!(out.utility(UserId(1), &truth), m(-2));
    }

    #[test]
    fn share_decreases_as_users_join() {
        let game = AddOnGame::new(
            3,
            m(90),
            vec![bid(0, 1, &[100]), bid(1, 2, &[50]), bid(2, 3, &[40])],
        )
        .unwrap();
        let out = run(&game).unwrap();
        assert_eq!(
            out.share_by_slot,
            vec![Some(m(90)), Some(m(45)), Some(m(30))]
        );
        assert_eq!(out.payments[&UserId(0)], m(90));
        assert_eq!(out.payments[&UserId(1)], m(45));
        assert_eq!(out.payments[&UserId(2)], m(30));
    }

    #[test]
    fn never_implemented_game_collects_nothing() {
        let game = AddOnGame::new(3, m(1000), vec![bid(0, 1, &[5]), bid(1, 2, &[5])]).unwrap();
        let out = run(&game).unwrap();
        assert!(!out.is_implemented());
        assert!(out.payments.is_empty());
        assert_eq!(out.total_payments(), Money::ZERO);
    }

    #[test]
    fn interactive_api_rejects_protocol_violations() {
        let mut st = AddOnState::new(m(100), 3).unwrap();
        st.submit(bid(0, 1, &[10, 10, 10])).unwrap();
        st.advance().unwrap();
        // Retroactive bid: t=2 now, bid starting at 1.
        assert!(matches!(
            st.submit(bid(1, 1, &[10])),
            Err(MechanismError::RetroactiveBid { .. })
        ));
        // Duplicate user.
        assert!(matches!(
            st.submit(bid(0, 2, &[10])),
            Err(MechanismError::DuplicateUser { .. })
        ));
        // Downward revision.
        assert!(matches!(
            st.revise(UserId(0), SlotId(2), vec![m(5), m(10)]),
            Err(MechanismError::DownwardRevision { .. })
        ));
        // Revision of the past.
        assert!(matches!(
            st.revise(UserId(0), SlotId(1), vec![m(50), m(50), m(50)]),
            Err(MechanismError::RetroactiveBid { .. })
        ));
        // Beyond horizon.
        assert!(matches!(
            st.revise(UserId(0), SlotId(3), vec![m(50), m(50)]),
            Err(MechanismError::BeyondHorizon { .. })
        ));
    }

    #[test]
    fn upward_revision_takes_effect() {
        // §5.1's example: at t=1 user bids [10,10,10]; at t=2 she raises
        // b(2) to 20.
        let mut st = AddOnState::new(m(30), 3).unwrap();
        st.submit(bid(0, 1, &[10, 10, 10])).unwrap();
        let r1 = st.advance().unwrap();
        assert_eq!(r1.share, Some(m(30))); // residual 30 covers cost
        let mut st2 = AddOnState::new(m(100), 3).unwrap();
        st2.submit(bid(0, 1, &[10, 10, 10])).unwrap();
        st2.advance().unwrap();
        st2.revise(UserId(0), SlotId(2), vec![m(80), m(10)])
            .unwrap();
        let r2 = st2.advance().unwrap();
        // Residual at t=2 is now 90 < 100: still not implemented…
        assert_eq!(r2.share, None);
        st2.revise(UserId(0), SlotId(3), vec![m(100)]).unwrap();
        let r3 = st2.advance().unwrap();
        // …but the t=3 revision to 100 pushes the residual to cost.
        assert_eq!(r3.share, Some(m(100)));
    }

    #[test]
    fn revision_after_expiry_resurrects_the_user_on_both_engines() {
        // u0's bid expires unserviced at t=1; the incremental engine
        // retires her at the start of t=2. A later extension (legal:
        // `from ≥ now`, values only grow) must bring her back — the
        // engines diverged here before the resurrection in `revise`.
        let run_engine = |engine: Engine, fork_min: Option<usize>| {
            let mut st = AddOnState::with_engine(m(100), 3, engine).unwrap();
            st.set_fork_min(fork_min);
            st.submit(bid(0, 1, &[10])).unwrap();
            st.advance().unwrap();
            st.advance().unwrap();
            st.revise(UserId(0), SlotId(3), vec![m(200)]).unwrap();
            st.advance().unwrap();
            st.finish().unwrap()
        };
        let inc = run_engine(Engine::Incremental, None);
        assert_eq!(inc, run_engine(Engine::Rebuild, None));
        assert_eq!(inc, run_engine(Engine::Incremental, Some(0)));
        // And the revision really took: u0 is serviced at t=3, pays 100.
        assert_eq!(inc.first_serviced[&UserId(0)], SlotId(3));
        assert_eq!(inc.payments[&UserId(0)], m(100));
    }

    #[test]
    fn committed_user_extended_after_paying_repays_at_new_exit() {
        // u0 commits and pays $100 at her t=1 exit. A later revision
        // extends her end to t=3; when she finally leaves she pays the
        // *current* (lower) share instead, on both engines — the final
        // payments map must keep the chronologically-last payment.
        // (Found by the differential oracle: the incremental engine's
        // deferred pay_log used an unstable per-user sort, so which of
        // the two payments survived was arbitrary.)
        let run_engine = |engine: Engine, fork_min: Option<usize>| {
            let mut st = AddOnState::with_engine(m(100), 3, engine).unwrap();
            st.set_fork_min(fork_min);
            st.submit(bid(0, 1, &[101])).unwrap();
            let r1 = st.advance().unwrap();
            assert_eq!(r1.payments, vec![(UserId(0), m(100))]);
            st.revise(UserId(0), SlotId(2), vec![m(0), m(0)]).unwrap();
            st.submit(bid(1, 2, &[60, 60])).unwrap();
            st.advance().unwrap();
            let r3 = st.advance().unwrap();
            assert_eq!(
                r3.payments,
                vec![(UserId(0), m(50)), (UserId(1), m(50))],
                "{engine:?}"
            );
            st.finish().unwrap()
        };
        let inc = run_engine(Engine::Incremental, None);
        assert_eq!(inc, run_engine(Engine::Rebuild, None));
        assert_eq!(inc, run_engine(Engine::Incremental, Some(0)));
        assert_eq!(inc.payments[&UserId(0)], m(50));
    }

    #[test]
    fn revision_can_extend_the_exit_slot() {
        let mut st = AddOnState::new(m(100), 4).unwrap();
        st.submit(bid(0, 1, &[10, 10])).unwrap();
        st.advance().unwrap();
        // Extend e_i from 2 to 4 with higher values.
        st.revise(UserId(0), SlotId(2), vec![m(10), m(20), m(70)])
            .unwrap();
        let mut last = None;
        for _ in 2..=4 {
            last = Some(st.advance().unwrap());
        }
        // Exit payment now happens at t=4.
        assert_eq!(last.unwrap().payments, vec![(UserId(0), m(100))]);
    }

    #[test]
    fn finishing_the_game_joins_its_worker_thread() {
        let mut st = AddOnState::new(m(100), 3).unwrap();
        st.set_fork_min(Some(0));
        st.submit(bid(0, 1, &[10, 10, 10])).unwrap();
        let spawned = |st: &AddOnState| format!("{:?}", st.pipeline.worker).contains("true");
        st.advance().unwrap();
        st.advance().unwrap();
        assert!(spawned(&st), "the forced splice forks from slot 2");
        st.advance().unwrap();
        assert!(st.is_finished());
        assert!(!spawned(&st), "a finished game keeps no worker thread");
    }

    #[test]
    fn horizon_above_the_bound_is_a_typed_error() {
        for engine in [Engine::Incremental, Engine::Rebuild] {
            let top = AddOnState::with_engine(m(1), crate::MAX_HORIZON, engine).unwrap();
            assert_eq!(top.horizon(), crate::MAX_HORIZON);
            for horizon in [crate::MAX_HORIZON + 1, u32::MAX] {
                assert_eq!(
                    AddOnState::with_engine(m(1), horizon, engine).unwrap_err(),
                    MechanismError::HorizonTooLong {
                        horizon,
                        max: crate::MAX_HORIZON
                    }
                );
            }
        }
    }

    #[test]
    fn advancing_past_horizon_errors() {
        let mut st = AddOnState::new(m(1), 1).unwrap();
        st.advance().unwrap();
        assert!(matches!(
            st.advance(),
            Err(MechanismError::HorizonExhausted { .. })
        ));
    }

    /// The original, literal Mechanism 2 transcription: every bid known
    /// upfront, and every slot rebuilds a full bid map that
    /// materializes `Value(0)` for users whose series has not started —
    /// the behaviour the optimized engines must reproduce exactly.
    fn literal_reference(game: &AddOnGame) -> AddOnOutcome {
        let mut cumulative: BTreeSet<UserId> = BTreeSet::new();
        let mut first_serviced = BTreeMap::new();
        let mut payments = BTreeMap::new();
        let mut implemented_at = None;
        let mut share_by_slot = Vec::new();
        for t in 1..=game.horizon {
            let t = SlotId(t);
            let shapley_bids: BTreeMap<UserId, ShapleyBid> = game
                .bids
                .iter()
                .map(|b| {
                    let bid = if cumulative.contains(&b.user) {
                        ShapleyBid::Committed
                    } else if b.start() <= t {
                        ShapleyBid::Value(b.series.residual_from(t))
                    } else {
                        ShapleyBid::Value(Money::ZERO)
                    };
                    (b.user, bid)
                })
                .collect();
            let result = shapley::run(game.cost, &shapley_bids);
            for &u in result.serviced.difference(&cumulative) {
                first_serviced.insert(u, t);
            }
            let share = result.is_implemented().then_some(result.share);
            cumulative = result.serviced;
            if share.is_some() && implemented_at.is_none() {
                implemented_at = Some(t);
            }
            share_by_slot.push(share);
            for b in &game.bids {
                if b.end() == t && cumulative.contains(&b.user) {
                    payments.insert(b.user, result.share);
                }
            }
        }
        AddOnOutcome {
            cost: game.cost,
            horizon: game.horizon,
            implemented_at,
            first_serviced,
            payments,
            share_by_slot,
        }
    }

    fn arb_addon_game() -> impl proptest::prelude::Strategy<Value = AddOnGame> {
        use proptest::prelude::*;
        (1i64..400, 1u32..=5)
            .prop_flat_map(|(cost, horizon)| {
                let user = (1u32..=horizon, proptest::collection::vec(0i64..200, 1..=5));
                (
                    Just(cost),
                    Just(horizon),
                    proptest::collection::vec(user, 0..10),
                )
            })
            .prop_map(|(cost, horizon, users)| {
                let bids = users
                    .into_iter()
                    .enumerate()
                    .map(|(i, (start, mut values))| {
                        let max_len = (horizon - start + 1) as usize;
                        values.truncate(max_len);
                        let series = SlotSeries::new(
                            SlotId(start),
                            values.into_iter().map(Money::from_cents).collect(),
                        )
                        .unwrap();
                        OnlineBid::new(UserId(u32::try_from(i).unwrap()), series)
                    })
                    .collect();
                AddOnGame::new(horizon, Money::from_cents(cost), bids).unwrap()
            })
    }

    /// [`run_with_engine`] on the production engine with the arming
    /// threshold pinned to zero, so even these tiny proptest games take
    /// the pre-sorted splice every slot: through the real two-thread
    /// ingest/price handoff, or (`sequential`) pricing then ingesting
    /// on the caller.
    fn run_forced_splice(game: &AddOnGame, sequential: bool) -> AddOnOutcome {
        let mut state = AddOnState::new(game.cost, game.horizon).unwrap();
        state.set_fork_min(Some(0));
        state.set_sequential_splice(sequential);
        play(state, game).unwrap()
    }

    proptest::proptest! {
        /// Tentpole + regression: the production engine (on its
        /// default gate and with every slot forced onto the splice,
        /// forked and sequential),
        /// the per-slot rebuild engine (which now skips unseen users),
        /// and the literal reference (which materializes zero bids for
        /// unseen users) all produce identical outcomes.
        #[test]
        fn engines_and_literal_reference_agree(game in arb_addon_game()) {
            use proptest::prelude::*;
            let incremental = run_with_engine(&game, Engine::Incremental).unwrap();
            let rebuild = run_with_engine(&game, Engine::Rebuild).unwrap();
            let forced = run_forced_splice(&game, false);
            let sequential = run_forced_splice(&game, true);
            let literal = literal_reference(&game);
            prop_assert_eq!(&incremental, &rebuild);
            prop_assert_eq!(&incremental, &forced);
            prop_assert_eq!(&incremental, &sequential);
            prop_assert_eq!(&incremental, &literal);
        }

        /// Interactive parity: with every bid submitted upfront (so the
        /// state machine holds genuinely unseen users), both engines
        /// emit identical per-slot reports.
        #[test]
        fn engines_agree_slot_by_slot(game in arb_addon_game()) {
            use proptest::prelude::*;
            let mut inc = AddOnState::with_engine(game.cost, game.horizon, Engine::Incremental).unwrap();
            let mut reb = AddOnState::with_engine(game.cost, game.horizon, Engine::Rebuild).unwrap();
            let mut forced = AddOnState::with_engine(game.cost, game.horizon, Engine::Incremental).unwrap();
            forced.set_fork_min(Some(0));
            let mut sequential = forced.clone();
            sequential.set_sequential_splice(true);
            for bid in &game.bids {
                inc.submit(bid.clone()).unwrap();
                reb.submit(bid.clone()).unwrap();
                forced.submit(bid.clone()).unwrap();
                sequential.submit(bid.clone()).unwrap();
            }
            for _ in 1..=game.horizon {
                let step = inc.advance().unwrap();
                prop_assert_eq!(&step, &reb.advance().unwrap());
                prop_assert_eq!(&step, &forced.advance().unwrap());
                prop_assert_eq!(&step, &sequential.advance().unwrap());
            }
            let done = inc.finish().unwrap();
            prop_assert_eq!(&done, &reb.finish().unwrap());
            prop_assert_eq!(&done, &forced.finish().unwrap());
            prop_assert_eq!(&done, &sequential.finish().unwrap());
        }
    }

    #[test]
    fn engines_agree_under_revisions() {
        for (engine, fork_min) in [
            (Engine::Incremental, None),
            (Engine::Rebuild, None),
            (Engine::Incremental, Some(0)),
        ] {
            let mut st = AddOnState::with_engine(m(100), 4, engine).unwrap();
            st.set_fork_min(fork_min);
            st.submit(bid(0, 1, &[10, 10])).unwrap();
            st.submit(bid(1, 2, &[5, 5, 5])).unwrap();
            st.advance().unwrap();
            // Extend u0's interval and raise u1's future values.
            st.revise(UserId(0), SlotId(2), vec![m(10), m(20), m(70)])
                .unwrap();
            st.revise(UserId(1), SlotId(3), vec![m(60), m(40)]).unwrap();
            let mut last = None;
            for _ in 2..=4 {
                last = Some(st.advance().unwrap());
            }
            let last = last.unwrap();
            assert_eq!(last.slot, SlotId(4));
            assert_eq!(
                last.payments,
                vec![(UserId(0), m(50)), (UserId(1), m(50))],
                "engine {engine:?}, fork_min {fork_min:?}"
            );
        }
    }

    #[test]
    fn multi_opt_schedule_run() {
        let mut bids = ValueSchedule::new(2);
        bids.set(
            UserId(0),
            OptId(0),
            SlotSeries::new(SlotId(1), vec![m(60), m(0)]).unwrap(),
        )
        .unwrap();
        bids.set(
            UserId(1),
            OptId(0),
            SlotSeries::new(SlotId(1), vec![m(60), m(0)]).unwrap(),
        )
        .unwrap();
        bids.set(
            UserId(1),
            OptId(1),
            SlotSeries::single(SlotId(2), m(10)).unwrap(),
        )
        .unwrap();

        let out = run_schedule(&[m(100), m(50)], &bids).unwrap();
        assert!(out.per_opt[&OptId(0)].is_implemented());
        assert!(!out.per_opt[&OptId(1)].is_implemented());

        let ledger = out.to_ledger();
        assert_eq!(ledger.total_cost(), m(100));
        assert_eq!(ledger.total_payments(), m(100));

        let stats = out.stats(&bids);
        assert_eq!(stats.total_value, m(120));
        assert_eq!(stats.total_utility, m(20));
        assert!(stats.cloud_balance >= Money::ZERO);
    }
}
