//! The SubstOn Mechanism (§6.2, Mechanism 4): online, substitutable
//! optimizations.
//!
//! At every slot, SubstOn re-runs [`crate::substoff`] over the residual
//! values of all users seen so far. The first time a user is granted an
//! optimization `j`, her bid for `j` becomes `∞` and her bids for every
//! other optimization become `0`: she can never switch (Example 8 shows
//! the no-switch rule is what keeps the mechanism truthful). Users pay
//! their optimization's current share when their bid expires.
//!
//! ```
//! use osp_core::prelude::*;
//!
//! // Two interchangeable optimizations; one user accepts either.
//! let game = SubstOnGame::new(
//!     2,
//!     vec![Money::from_dollars(60), Money::from_dollars(40)],
//!     vec![SubstOnlineBid {
//!         user: UserId(0),
//!         substitutes: [OptId(0), OptId(1)].into(),
//!         series: SlotSeries::constant(
//!             SlotId(1),
//!             SlotId(2),
//!             Money::from_dollars(30),
//!         )
//!         .unwrap(),
//!     }],
//! )?;
//! let outcome = subston::run(&game, TieBreak::LowestOptId)?;
//! // The cheaper substitute wins and is fully paid for.
//! assert_eq!(outcome.assignments[&UserId(0)], OptId(1));
//! assert_eq!(outcome.payments[&UserId(0)], Money::from_dollars(40));
//! # Ok::<(), osp_core::MechanismError>(())
//! ```

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use osp_econ::schedule::SlotSeries;
use osp_econ::{Ledger, Money, OptId, ResidualTracker, SlotId, UserId};

use crate::error::{MechanismError, Result};
use crate::game::{SubstOnGame, SubstOnlineBid};
use crate::shapley::{Engine, ShapleyBid, Solution, Solver};
use crate::substoff::{self, SubstBidMap, TieBreak};

/// What happened in one SubstOn slot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubstSlotReport {
    /// The slot just processed.
    pub slot: SlotId,
    /// Users newly granted an optimization this slot.
    pub newly_assigned: BTreeMap<UserId, OptId>,
    /// Payments charged to users whose bids expired this slot.
    pub payments: Vec<(UserId, Money)>,
}

/// This slot's pending users, one row each in id order: her running
/// residual and her substitute set, written once by the fan-out. The
/// per-opt update buckets hold row numbers into it, and the phase loop
/// finds a grantee's substitutes here by a binary search over one
/// contiguous array rather than a lookup in the game-wide bid map.
#[derive(Debug, Clone, Default)]
struct SlotTable {
    users: Vec<UserId>,
    residuals: Vec<Money>,
    /// `ends[row]`: the end of the row's substitute run in `opts`; the
    /// run starts where the previous row's ends.
    ends: Vec<u32>,
    /// Every row's substitute set, run after run.
    opts: Vec<OptId>,
}

impl SlotTable {
    fn clear(&mut self) {
        self.users.clear();
        self.residuals.clear();
        self.ends.clear();
        self.opts.clear();
    }

    /// Appends a row for `user`, who must sort after every listed
    /// user, and returns its number.
    fn push(&mut self, user: UserId, residual: Money, substitutes: &BTreeSet<OptId>) -> u32 {
        debug_assert!(self.users.last().is_none_or(|&last| last < user));
        let row = u32::try_from(self.users.len()).unwrap();
        self.users.push(user);
        self.residuals.push(residual);
        self.opts.extend(substitutes);
        self.ends.push(u32::try_from(self.opts.len()).unwrap());
        row
    }

    /// Row `row` as the `(user, running residual)` update it feeds.
    fn update(&self, row: u32) -> (UserId, Money) {
        (self.users[row as usize], self.residuals[row as usize])
    }

    /// The substitute set of a listed `user`, in id order.
    fn substitutes_of(&self, user: UserId) -> &[OptId] {
        let row = self
            .users
            .binary_search(&user)
            .expect("user is pending this slot");
        let start = row.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.opts[start as usize..self.ends[row] as usize]
    }
}

/// Reusable scratch of the batched multi-opt phase loop: the slot's
/// pending-user table, per-opt update and removal buckets and a
/// cross-slot solution cache, all allocated once and reused for every
/// slot of the game.
///
/// The whole struct is rebuildable from the solvers (empty buckets ⇒
/// next [`BatchScratch::ensure`] marks every solver dirty ⇒ full
/// re-solve), which is why serialization skips it: a resumed game
/// starts with a cold cache and identical outcomes.
#[derive(Debug, Clone, Default)]
struct BatchScratch {
    /// The pending users of this slot.
    slot: SlotTable,
    /// `per_opt[j]`: the [`SlotTable`] rows bidding on optimization
    /// `j` this slot, drained into the solver's batch merge.
    per_opt: Vec<Vec<u32>>,
    /// `removals[j]`: users leaving solver `j` in one
    /// [`Solver::remove_bids`] pass — bids retired at the start of a
    /// slot, or users granted a substitute of `j` in a phase.
    removals: Vec<Vec<UserId>>,
    /// `solutions[j]`: the cached feasible solution of solver `j`
    /// (`None` = infeasible), valid while `!dirty[j]`.
    solutions: Vec<Option<Solution>>,
    /// `dirty[j]`: solver `j` mutated since `solutions[j]` was
    /// computed (bid updates this slot, or users lost to a grant).
    dirty: Vec<bool>,
}

impl BatchScratch {
    /// Sizes the buffers for `n` optimizations (a no-op after the first
    /// slot; after deserialization it re-marks every solver dirty).
    fn ensure(&mut self, n: usize) {
        if self.per_opt.len() != n {
            self.per_opt.resize_with(n, Vec::new);
            self.removals.resize_with(n, Vec::new);
            self.solutions = vec![None; n];
            self.dirty = vec![true; n];
        }
    }
}

mod scratch_serde {
    //! The scratch is pure rebuildable cache: checkpoints store `null`
    //! and a resumed game starts cold (every solver dirty), which the
    //! phase loop handles by re-solving — outcomes are unchanged.
    use super::BatchScratch;
    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    pub(super) fn serialize<S: Serializer>(
        _: &BatchScratch,
        serializer: S,
    ) -> Result<S::Ok, S::Error> {
        None::<u8>.serialize(serializer)
    }

    pub(super) fn deserialize<'de, D: Deserializer<'de>>(
        deserializer: D,
    ) -> Result<BatchScratch, D::Error> {
        Option::<u8>::deserialize(deserializer)?;
        Ok(BatchScratch::default())
    }
}

/// The SubstOn mechanism as an interactive state machine.
///
/// Serializes in full — a mid-game checkpoint deserializes into a
/// state that continues bit-identically (see
/// `tests/serde_roundtrip.rs`); only the [`BatchScratch`] cache is
/// dropped and rebuilt cold.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubstOnState {
    costs: Vec<Money>,
    horizon: u32,
    now: u32,
    tiebreak: TieBreak,
    engine: Engine,
    bids: BTreeMap<UserId, SubstOnlineBid>,
    assigned: BTreeMap<UserId, OptId>,
    first_serviced: BTreeMap<UserId, SlotId>,
    implemented_at: BTreeMap<OptId, SlotId>,
    payments: BTreeMap<UserId, Money>,
    /// One persistent Shapley solver per optimization
    /// (solver engines only).
    solvers: Vec<Solver>,
    /// Started, unassigned, not-yet-expired users.
    pending: BTreeSet<UserId>,
    /// Running residual per pending user — one entry per user, shared
    /// by all her substitute opts (solver engines only).
    residuals: ResidualTracker,
    /// Reused buffers + solution cache of the batched phase loop
    /// (solver engines only).
    #[serde(with = "scratch_serde")]
    scratch: BatchScratch,
    /// `start slot → users`, so arrivals cost O(arrivals), not O(m).
    starts: BTreeMap<u32, Vec<UserId>>,
    /// `end slot → users`, so exit payments cost O(exits), not O(m).
    expiries: BTreeMap<u32, Vec<UserId>>,
}

impl SubstOnState {
    /// Starts a game over `horizon` slots for optimizations with the
    /// given costs, using the default [`Engine::Incremental`].
    pub fn new(costs: Vec<Money>, horizon: u32, tiebreak: TieBreak) -> Result<Self> {
        Self::with_engine(costs, horizon, tiebreak, Engine::default())
    }

    /// Starts a game with an explicit per-slot Shapley [`Engine`].
    pub fn with_engine(
        costs: Vec<Money>,
        horizon: u32,
        tiebreak: TieBreak,
        engine: Engine,
    ) -> Result<Self> {
        crate::game::validate_costs(&costs)?;
        crate::check_horizon(horizon)?;
        let solvers = costs
            .iter()
            .map(|&c| Solver::new(c))
            .collect::<Result<_>>()?;
        Ok(SubstOnState {
            costs,
            horizon,
            now: 1,
            tiebreak,
            engine,
            bids: BTreeMap::new(),
            assigned: BTreeMap::new(),
            first_serviced: BTreeMap::new(),
            implemented_at: BTreeMap::new(),
            payments: BTreeMap::new(),
            solvers,
            pending: BTreeSet::new(),
            residuals: ResidualTracker::new(),
            scratch: BatchScratch::default(),
            starts: BTreeMap::new(),
            expiries: BTreeMap::new(),
        })
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

    /// The last slot of `user`'s bid, if she has one.
    #[must_use]
    pub fn bid_end(&self, user: UserId) -> Option<SlotId> {
        self.bids.get(&user).map(SubstOnlineBid::end)
    }

    /// The optimization `user` was granted, if any (grants are final:
    /// the no-switch rule means this never changes once set).
    #[must_use]
    pub fn assignment_of(&self, user: UserId) -> Option<OptId> {
        self.assigned.get(&user).copied()
    }

    /// The exit payment charged to `user` so far.
    #[must_use]
    pub fn payment_of(&self, user: UserId) -> Option<Money> {
        self.payments.get(&user).copied()
    }

    /// The optimizations implemented so far, in id order.
    #[must_use]
    pub fn implemented_opts(&self) -> Vec<OptId> {
        self.implemented_at.keys().copied().collect()
    }

    /// Accepts a bid `ω_i = (s_i, e_i, b_i, J_i)`.
    pub fn submit(&mut self, bid: SubstOnlineBid) -> Result<()> {
        if self.bids.contains_key(&bid.user) {
            return Err(MechanismError::DuplicateUser { user: bid.user });
        }
        if bid.substitutes.is_empty() {
            return Err(MechanismError::EmptySubstituteSet { user: bid.user });
        }
        let num_opts = u32::try_from(self.costs.len()).unwrap();
        if let Some(&opt) = bid.substitutes.iter().find(|j| j.index() >= num_opts) {
            return Err(MechanismError::UnknownOpt { opt, num_opts });
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
        self.starts
            .entry(bid.start().index())
            .or_default()
            .push(bid.user);
        self.expiries
            .entry(bid.end().index())
            .or_default()
            .push(bid.user);
        self.bids.insert(bid.user, bid);
        Ok(())
    }

    /// Processes the current slot (Mechanism 4 body).
    pub fn advance(&mut self) -> Result<SubstSlotReport> {
        if self.now > self.horizon {
            return Err(MechanismError::HorizonExhausted {
                horizon: self.horizon,
            });
        }
        let t = SlotId(self.now);

        // Retire bids that expired last slot without being granted:
        // their residual is zero, and zero bids can never be serviced.
        let uses_solver = self.engine.uses_solver();
        if self.now > 1 && uses_solver {
            self.scratch.ensure(self.costs.len());
        }
        if self.now > 1 {
            if let Some(gone) = self.expiries.get(&(self.now - 1)) {
                for &u in gone {
                    if self.pending.remove(&u) && uses_solver {
                        for &j in &self.bids[&u].substitutes {
                            self.scratch.removals[j.index() as usize].push(u);
                        }
                        self.residuals.remove(u);
                    }
                }
                if uses_solver {
                    // Removing a (zero-residual) bid can never flip an
                    // infeasible solver feasible, but the cached
                    // solution's serviced prefix is stale all the same:
                    // `drop_removals` marks every touched solver dirty.
                    let BatchScratch {
                        removals, dirty, ..
                    } = &mut self.scratch;
                    drop_removals(&mut self.solvers, removals, dirty);
                }
            }
        }
        // Reveal bids whose series starts now; unseen users are skipped
        // entirely (`b'_ij ← 0` prunes them in the paper). Arrivals
        // seed their running residual (their one full suffix sum).
        if let Some(arrived) = self.starts.remove(&self.now) {
            if self.engine.uses_solver() {
                for &u in &arrived {
                    self.residuals.insert(u, &self.bids[&u].series, t);
                }
            }
            self.pending.extend(arrived);
        }

        // Per-optimization share of this slot's SubstOff run, and the
        // users granted in this slot's phases. Under the solver engine
        // the fan-out reads the running residuals, the phase loop
        // prices, the granted users leave the tracker, and then slot
        // `t` retires: every still-pending user's running residual
        // drops by `value_at(t)`.
        let (shares, newly_assigned): (Vec<Option<Money>>, BTreeMap<UserId, OptId>) =
            if self.engine.uses_solver() {
                self.fan_out(t);
                let result = phase_loop(
                    self.costs.len(),
                    self.tiebreak,
                    &mut self.solvers,
                    &mut self.scratch,
                );
                for &u in result.1.keys() {
                    self.residuals.remove(u);
                }
                let bids = &self.bids;
                self.residuals.advance(t, |u| &bids[&u].series);
                result
            } else {
                self.phases_rebuild(t)
            };

        for (&u, &j) in &newly_assigned {
            self.assigned.insert(u, j);
            self.first_serviced.insert(u, t);
            self.pending.remove(&u);
        }
        for (idx, share) in shares.iter().enumerate() {
            if share.is_some() {
                self.implemented_at
                    .entry(OptId(u32::try_from(idx).unwrap()))
                    .or_insert(t);
            }
        }

        // Users pay when their bid expires, at their optimization's
        // share from *this* run (departed users were kept in the game,
        // so shares keep dropping as newcomers join — Example 8).
        let mut payments = Vec::new();
        if let Some(expiring) = self.expiries.get(&self.now) {
            for &u in expiring {
                if let Some(&j) = self.assigned.get(&u) {
                    let p = shares[j.index() as usize].unwrap_or(Money::ZERO);
                    self.payments.insert(u, p);
                    payments.push((u, p));
                }
            }
            payments.sort_unstable();
        }

        self.now += 1;
        Ok(SubstSlotReport {
            slot: t,
            newly_assigned,
            payments,
        })
    }

    /// The fan-out head of the batched per-slot SubstOff run: a single
    /// pass over the pending users writes each user's O(1) *running*
    /// residual and substitute set into the slot table and buckets her
    /// row into her substitutes' update lists (buffers reused across
    /// opts and slots — zero steady-state allocation), then drains the
    /// lists into the solvers' batch merges. This is the only
    /// part of the slot's solving that reads the residual tracker.
    fn fan_out(&mut self, t: SlotId) {
        let n = self.costs.len();
        self.scratch.ensure(n);
        let BatchScratch {
            slot,
            per_opt,
            dirty,
            ..
        } = &mut self.scratch;
        slot.clear();

        // One touch per pending user's bid row: read the running
        // residual into her slot-table row, and fan the row out to her
        // substitute opts' buckets.
        for &u in &self.pending {
            let bid = &self.bids[&u];
            let residual = self
                .residuals
                .get(u)
                .expect("pending user has a tracked residual");
            debug_assert_eq!(residual, bid.series.residual_from(t));
            let row = slot.push(u, residual, &bid.substitutes);
            for &j in &bid.substitutes {
                per_opt[j.index() as usize].push(row);
            }
        }
        for (jidx, (solver, rows)) in self.solvers.iter_mut().zip(per_opt.iter_mut()).enumerate() {
            if !rows.is_empty() {
                solver.update_bids(rows.drain(..).map(|row| slot.update(row)));
                dirty[jidx] = true;
            }
        }
    }

    /// One slot as a from-scratch [`substoff::run_with_bids`] over a
    /// freshly built forced/residual bid map — the paper-literal
    /// baseline engine.
    fn phases_rebuild(&mut self, t: SlotId) -> (Vec<Option<Money>>, BTreeMap<UserId, OptId>) {
        let mut bid_map: SubstBidMap = BTreeMap::new();
        // Granted users: ∞ on their optimization, 0 elsewhere (a zero
        // bid can never be serviced, so the rest are simply omitted).
        for (&u, &j) in &self.assigned {
            bid_map.insert(u, [(j, ShapleyBid::Committed)].into());
        }
        for &u in &self.pending {
            let bid = &self.bids[&u];
            let residual = bid.series.residual_from(t);
            bid_map.insert(
                u,
                bid.substitutes
                    .iter()
                    .map(|&j| (j, ShapleyBid::Value(residual)))
                    .collect(),
            );
        }

        let result = substoff::run_with_bids(&self.costs, &bid_map, self.tiebreak);

        let mut shares: Vec<Option<Money>> = vec![None; self.costs.len()];
        for (&j, &share) in &result.implemented {
            shares[j.index() as usize] = Some(share);
        }
        let mut newly_assigned = BTreeMap::new();
        for (&u, &j) in &result.assignments {
            match self.assigned.get(&u) {
                Some(&prev) => debug_assert_eq!(prev, j, "granted user switched optimization"),
                None => {
                    newly_assigned.insert(u, j);
                }
            }
        }
        (shares, newly_assigned)
    }

    /// Runs the remaining slots and returns the final outcome.
    pub fn finish(mut self) -> Result<SubstOnOutcome> {
        while self.now <= self.horizon {
            self.advance()?;
        }
        Ok(SubstOnOutcome {
            costs: self.costs,
            horizon: self.horizon,
            implemented_at: self.implemented_at,
            assignments: self.assigned,
            first_serviced: self.first_serviced,
            payments: self.payments,
        })
    }
}

/// One slot's SubstOff phase loop over the persistent per-opt solvers:
/// re-solves only *dirty* solvers (bids changed this slot, or users
/// lost to a grant), reusing cached solutions across phases *and* slots
/// for the rest. Replicates [`substoff::run_with_bids`] exactly —
/// including tie-break order and RNG consumption — but grants mutate
/// the solvers in place instead of rebuilding bid maps.
///
/// The no-switch rule (`b_ij' ← 0` for every other substitute `j'`) is
/// applied per phase, in bulk: the phase's grantees are bucketed into
/// `removals` by substitute, and each touched solver drops its bucket
/// in one [`Solver::remove_bids`] pass before the next phase solves. A
/// phase therefore costs O(grantees + finite bids of the touched
/// solvers), not one three-column memmove per grantee and substitute.
/// A grantee's substitutes come from the fan-out's per-slot
/// [`SlotTable`]. Factored free of `&mut self`: it never
/// touches the bid map, the residual tracker or the slot index maps.
fn phase_loop(
    n: usize,
    tiebreak: TieBreak,
    solvers: &mut [Solver],
    scratch: &mut BatchScratch,
) -> (Vec<Option<Money>>, BTreeMap<UserId, OptId>) {
    let BatchScratch {
        slot,
        removals,
        solutions,
        dirty,
        ..
    } = scratch;
    let mut shares: Vec<Option<Money>> = vec![None; n];
    let mut newly_assigned = BTreeMap::new();
    let mut rng = match tiebreak {
        TieBreak::Random(seed) => Some(StdRng::seed_from_u64(seed)),
        TieBreak::LowestOptId => None,
    };
    loop {
        // Feasibility sweep over the not-yet-implemented (this slot)
        // optimizations, in OptId order like the offline phase loop;
        // clean solvers answer from cache.
        for jidx in 0..n {
            if shares[jidx].is_none() && dirty[jidx] {
                let sol = solvers[jidx].solve();
                solutions[jidx] = sol.is_implemented().then_some(sol);
                dirty[jidx] = false;
            }
        }
        let feasible = |jidx: &usize| shares[*jidx].is_none() && solutions[*jidx].is_some();
        let Some(min_share) = (0..n)
            .filter(|jidx| feasible(jidx))
            .filter_map(|jidx| solutions[jidx].and_then(|sol| sol.share))
            .min()
        else {
            return (shares, newly_assigned); // J_f = ∅
        };
        let tied: Vec<usize> = (0..n)
            .filter(|jidx| feasible(jidx))
            .filter(|&jidx| solutions[jidx].and_then(|sol| sol.share) == Some(min_share))
            .collect();
        let pick = match &mut rng {
            Some(rng) if tied.len() > 1 => tied[rng.gen_range(0..tied.len())],
            _ => tied[0],
        };
        let jidx = pick;
        let sol = solutions[jidx].expect("picked optimization is feasible");
        let j = OptId(u32::try_from(jidx).unwrap());
        shares[jidx] = Some(min_share);

        for &u in solvers[jidx].serviced_finite(&sol) {
            newly_assigned.insert(u, j);
            // b_ij' ← 0 ∀j' ≠ j, forever: the no-switch rule.
            for &other in slot.substitutes_of(u) {
                if other != j {
                    removals[other.index() as usize].push(u);
                }
            }
        }
        solvers[jidx].commit_top(sol.serviced_finite);
        // The commit changed solver `jidx`; its cached solution is
        // stale for the *next* slot.
        dirty[jidx] = true;
        drop_removals(solvers, removals, dirty);
    }
}

/// Drains every non-empty `removals[j]` into one
/// [`Solver::remove_bids`] pass on solver `j` and marks it dirty. Every
/// listed user is pending, and pending users bid on each of their
/// substitutes every slot, so each one must still hold a finite bid.
fn drop_removals(solvers: &mut [Solver], removals: &mut [Vec<UserId>], dirty: &mut [bool]) {
    for (jidx, users) in removals.iter_mut().enumerate() {
        if !users.is_empty() {
            let listed = users.len();
            let removed = solvers[jidx].remove_bids(users.drain(..));
            debug_assert_eq!(removed, listed, "removed a user without a finite bid");
            dirty[jidx] = true;
        }
    }
}

/// Final outcome of a SubstOn game.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubstOnOutcome {
    /// Per-optimization costs (by index).
    pub costs: Vec<Money>,
    /// Number of slots.
    pub horizon: u32,
    /// Slot at which each implemented optimization was first chosen.
    pub implemented_at: BTreeMap<OptId, SlotId>,
    /// The optimization each serviced user was granted.
    pub assignments: BTreeMap<UserId, OptId>,
    /// The slot each serviced user entered service.
    pub first_serviced: BTreeMap<UserId, SlotId>,
    /// Final exit payments.
    pub payments: BTreeMap<UserId, Money>,
}

impl SubstOnOutcome {
    /// Total collected from users.
    #[must_use]
    pub fn total_payments(&self) -> Money {
        self.payments.values().copied().sum()
    }

    /// Total cost of implemented optimizations.
    #[must_use]
    pub fn total_cost(&self) -> Money {
        self.implemented_at
            .keys()
            .map(|j| self.costs[j.index() as usize])
            .sum()
    }

    /// Realized value of `user` against her true per-slot values.
    #[must_use]
    pub fn realized_value(&self, user: UserId, truth: &SlotSeries) -> Money {
        match self.first_serviced.get(&user) {
            Some(&t0) => truth.residual_from(t0),
            None => Money::ZERO,
        }
    }

    /// Builds the shared [`Ledger`].
    #[must_use]
    pub fn to_ledger(&self) -> Ledger {
        let mut ledger = Ledger::new();
        for &j in self.implemented_at.keys() {
            ledger.record_cost(j, self.costs[j.index() as usize]);
        }
        for (&u, &p) in &self.payments {
            ledger.record_payment(u, self.assignments[&u], p);
        }
        ledger
    }

    /// Summary statistics against per-user true value series.
    #[must_use]
    pub fn stats(&self, truth: &BTreeMap<UserId, SlotSeries>) -> osp_econ::Stats {
        let realized = truth
            .iter()
            .map(|(&u, series)| (u, self.realized_value(u, series)))
            .collect();
        self.to_ledger().stats(&realized)
    }
}

/// Batch driver: reveals every bid at its start slot and advances
/// through the horizon (default [`Engine::Incremental`]).
pub fn run(game: &SubstOnGame, tiebreak: TieBreak) -> Result<SubstOnOutcome> {
    run_with_engine(game, tiebreak, Engine::default())
}

/// [`run`] with an explicit per-slot Shapley [`Engine`]; outcomes are
/// engine-independent (property-tested), only the cost profile differs.
pub fn run_with_engine(
    game: &SubstOnGame,
    tiebreak: TieBreak,
    engine: Engine,
) -> Result<SubstOnOutcome> {
    let mut state = SubstOnState::with_engine(game.costs.clone(), game.horizon, tiebreak, engine)?;
    let mut by_start: BTreeMap<SlotId, Vec<&SubstOnlineBid>> = BTreeMap::new();
    for bid in &game.bids {
        by_start.entry(bid.start()).or_default().push(bid);
    }
    for t in 1..=game.horizon {
        if let Some(bids) = by_start.get(&SlotId(t)) {
            for &bid in bids {
                state.submit(bid.clone())?;
            }
        }
        state.advance()?;
    }
    state.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(d: i64) -> Money {
        Money::from_dollars(d)
    }

    fn bid(u: u32, start: u32, end: u32, value: i64, subs: &[u32]) -> SubstOnlineBid {
        let len = (end - start + 1) as usize;
        SubstOnlineBid {
            user: UserId(u),
            substitutes: subs.iter().map(|&j| OptId(j)).collect(),
            series: SlotSeries::new(SlotId(start), vec![m(value); len]).unwrap(),
        }
    }

    /// Paper Example 8: C1=60, C2=100, C3=50 (opt0..opt2); user 1 bids
    /// (1,2,100,{1,2}), user 2 bids (2,3,100,{1,2,3}), user 3 bids
    /// (3,3,100,{3}).
    fn example_8() -> SubstOnGame {
        SubstOnGame::new(
            3,
            vec![m(60), m(100), m(50)],
            vec![
                bid(0, 1, 2, 100, &[0, 1]),
                bid(1, 2, 3, 100, &[0, 1, 2]),
                bid(2, 3, 3, 100, &[2]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn example_8_full_walkthrough() {
        let out = run(&example_8(), TieBreak::LowestOptId).unwrap();

        // t=1: opt0 implemented for u0.
        assert_eq!(out.implemented_at[&OptId(0)], SlotId(1));
        assert_eq!(out.assignments[&UserId(0)], OptId(0));
        assert_eq!(out.first_serviced[&UserId(0)], SlotId(1));

        // t=2: u1 joins opt0 (share falls to 30); u0 leaves paying 30.
        assert_eq!(out.assignments[&UserId(1)], OptId(0));
        assert_eq!(out.first_serviced[&UserId(1)], SlotId(2));
        assert_eq!(out.payments[&UserId(0)], m(30));

        // t=3: opt2 implemented for u2 alone at 50; u1 cannot switch and
        // pays opt0's share of 30.
        assert_eq!(out.implemented_at[&OptId(2)], SlotId(3));
        assert_eq!(out.assignments[&UserId(2)], OptId(2));
        assert_eq!(out.payments[&UserId(1)], m(30));
        assert_eq!(out.payments[&UserId(2)], m(50));

        // opt1 is never implemented.
        assert!(!out.implemented_at.contains_key(&OptId(1)));
    }

    #[test]
    fn example_8_accounting() {
        let out = run(&example_8(), TieBreak::LowestOptId).unwrap();
        assert_eq!(out.total_cost(), m(110));
        assert_eq!(out.total_payments(), m(110));
        let ledger = out.to_ledger();
        assert!(ledger.is_cost_recovering());

        let truth: BTreeMap<UserId, SlotSeries> = example_8()
            .bids
            .iter()
            .map(|b| (b.user, b.series.clone()))
            .collect();
        let stats = out.stats(&truth);
        // u0 serviced t1..2 (value 200), u1 t2..3 (200), u2 t3 (100).
        assert_eq!(stats.total_value, m(500));
        assert_eq!(stats.total_utility, m(390));
        assert_eq!(stats.cloud_balance, Money::ZERO);
    }

    #[test]
    fn example_8_no_switch_rule() {
        // The Example 8 discussion: a fourth user wanting {opt0, opt2}
        // arrives at t=3 and bids only for opt2, hoping u1 switches from
        // opt0 to opt2 to cut her share. u1 must not switch: u3 and u2
        // share opt2 at 25 each, u1 still pays opt0's 30.
        let game = SubstOnGame::new(
            3,
            vec![m(60), m(100), m(50)],
            vec![
                bid(0, 1, 2, 100, &[0, 1]),
                bid(1, 2, 3, 100, &[0, 1, 2]),
                bid(2, 3, 3, 100, &[2]),
                bid(3, 3, 3, 100, &[2]),
            ],
        )
        .unwrap();
        let out = run(&game, TieBreak::LowestOptId).unwrap();
        assert_eq!(out.assignments[&UserId(1)], OptId(0));
        assert_eq!(out.payments[&UserId(1)], m(30));
        assert_eq!(out.payments[&UserId(2)], m(25));
        assert_eq!(out.payments[&UserId(3)], m(25));
    }

    #[test]
    fn unserviced_users_pay_nothing() {
        let game = SubstOnGame::new(
            2,
            vec![m(1000)],
            vec![bid(0, 1, 2, 10, &[0]), bid(1, 2, 2, 10, &[0])],
        )
        .unwrap();
        let out = run(&game, TieBreak::LowestOptId).unwrap();
        assert!(out.payments.is_empty());
        assert!(out.implemented_at.is_empty());
        assert_eq!(out.total_payments(), Money::ZERO);
    }

    #[test]
    fn interactive_protocol_violations() {
        let mut st = SubstOnState::new(vec![m(10)], 2, TieBreak::LowestOptId).unwrap();
        st.submit(bid(0, 1, 2, 10, &[0])).unwrap();
        st.advance().unwrap();
        assert!(matches!(
            st.submit(bid(1, 1, 1, 10, &[0])),
            Err(MechanismError::RetroactiveBid { .. })
        ));
        assert!(matches!(
            st.submit(bid(2, 2, 2, 10, &[7])),
            Err(MechanismError::UnknownOpt { .. })
        ));
        assert!(matches!(
            st.submit(bid(0, 2, 2, 10, &[0])),
            Err(MechanismError::DuplicateUser { .. })
        ));
    }

    /// Random substitutable online games: horizon ≤ 4, ≤ 4 opts, ≤ 8
    /// users with arbitrary substitute sets and intervals.
    fn arb_subston_game() -> impl proptest::prelude::Strategy<Value = SubstOnGame> {
        use proptest::prelude::*;
        (proptest::collection::vec(1i64..300, 1..=4), 1u32..=4)
            .prop_flat_map(|(costs, horizon)| {
                let n = u32::try_from(costs.len()).unwrap();
                let user = (
                    1u32..=horizon,
                    1u32..=horizon,
                    0i64..300,
                    proptest::collection::btree_set(0..n, 1..=costs.len()),
                );
                (
                    Just(costs),
                    Just(horizon),
                    proptest::collection::vec(user, 0..8),
                )
            })
            .prop_map(|(costs, horizon, users)| {
                let bids = users
                    .into_iter()
                    .enumerate()
                    .map(|(i, (start, len, value, subs))| {
                        let start = start.min(horizon);
                        let end = (start + len - 1).min(horizon);
                        SubstOnlineBid {
                            user: UserId(u32::try_from(i).unwrap()),
                            substitutes: subs.into_iter().map(OptId).collect(),
                            series: SlotSeries::constant(
                                SlotId(start),
                                SlotId(end),
                                Money::from_cents(value),
                            )
                            .unwrap(),
                        }
                    })
                    .collect();
                SubstOnGame::new(
                    horizon,
                    costs.into_iter().map(Money::from_cents).collect(),
                    bids,
                )
                .unwrap()
            })
    }

    proptest::proptest! {
        /// The per-opt incremental solvers and the per-slot SubstOff
        /// rebuild are the same mechanism, for both tie-break policies
        /// (the random one must also consume its RNG identically).
        #[test]
        fn engines_agree(game in arb_subston_game(), seed in 0u64..8) {
            use proptest::prelude::*;
            for tiebreak in [TieBreak::LowestOptId, TieBreak::Random(seed)] {
                let inc = run_with_engine(&game, tiebreak, Engine::Incremental).unwrap();
                let reb = run_with_engine(&game, tiebreak, Engine::Rebuild).unwrap();
                prop_assert_eq!(&inc, &reb);
            }
        }

        /// Slot-by-slot parity of the interactive state machine, with
        /// every bid submitted upfront so unseen users sit in the state.
        #[test]
        fn engines_agree_slot_by_slot(game in arb_subston_game()) {
            use proptest::prelude::*;
            let mut inc = SubstOnState::with_engine(
                game.costs.clone(), game.horizon, TieBreak::LowestOptId, Engine::Incremental,
            ).unwrap();
            let mut reb = SubstOnState::with_engine(
                game.costs.clone(), game.horizon, TieBreak::LowestOptId, Engine::Rebuild,
            ).unwrap();
            for bid in &game.bids {
                inc.submit(bid.clone()).unwrap();
                reb.submit(bid.clone()).unwrap();
            }
            for _ in 1..=game.horizon {
                let step = inc.advance().unwrap();
                prop_assert_eq!(&step, &reb.advance().unwrap());
            }
            let done = inc.finish().unwrap();
            prop_assert_eq!(&done, &reb.finish().unwrap());
        }
    }

    #[test]
    fn horizon_above_the_bound_is_a_typed_error() {
        for engine in [Engine::Incremental, Engine::Rebuild] {
            let built =
                SubstOnState::with_engine(vec![m(1)], u32::MAX, TieBreak::LowestOptId, engine);
            assert!(matches!(
                built,
                Err(MechanismError::HorizonTooLong {
                    horizon: u32::MAX,
                    ..
                })
            ));
        }
    }

    #[test]
    fn late_join_lowers_shares_for_remaining_users() {
        // u0 implements opt0 alone at t=1 and leaves at t=3; u1 and u2
        // join later; everyone's exit share reflects the grown set.
        let game = SubstOnGame::new(
            3,
            vec![m(90)],
            vec![
                bid(0, 1, 3, 100, &[0]),
                bid(1, 2, 3, 50, &[0]),
                bid(2, 3, 3, 40, &[0]),
            ],
        )
        .unwrap();
        let out = run(&game, TieBreak::LowestOptId).unwrap();
        assert_eq!(out.payments[&UserId(0)], m(30));
        assert_eq!(out.payments[&UserId(1)], m(30));
        assert_eq!(out.payments[&UserId(2)], m(30));
    }
}
