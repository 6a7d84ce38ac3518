//! The Shapley Value Mechanism (paper Mechanism 1, §4.1).
//!
//! Given one optimization with cost `C_j` and bids `b_1j … b_mj`, the
//! mechanism finds the **largest** set of users that can afford an even
//! split of the cost: start from everyone, price `p = C_j/|S_j|`, drop
//! everyone whose bid is below `p`, recompute, repeat. Serviced users
//! all pay the same share; everyone else pays nothing.
//!
//! Two implementations are provided:
//!
//! * [`run_iterative`] — a literal transcription of Mechanism 1, kept
//!   as executable documentation and as the oracle for the equivalence
//!   property test. Worst case `O(m²)` (each round may remove one user).
//! * [`run`] — the `O(m log m)` formulation used everywhere else. Sort
//!   bids descending and find the largest `k` such that the `k`-th
//!   largest bid is at least `C_j/(c + k)`, where `c` counts
//!   *committed* users (see below).
//!
//! ### Why the sorted version is the same mechanism
//!
//! Call a set `S` *affordable* if every `i ∈ S` has `b_ij ≥ C_j/|S|`.
//! If an affordable set of size `k` exists, the top-`k` bidders also
//! form one (replacing members by higher bidders preserves the
//! inequality), so the maximum affordable size `k*` is witnessed by a
//! prefix of the descending sort. The iterative algorithm never removes
//! a top-`k*` bidder (while `|S| ≥ k*` the price is `≤ C_j/k*`), so its
//! fixed point contains the top-`k*` prefix; the fixed point is itself
//! affordable, hence has size exactly `k*`. Finally no tie can straddle
//! the boundary: `b_(k*+1) = b_(k*) ≥ C_j/k* > C_j/(k*+1)` would make
//! `k*+1` affordable. So both versions return the same serviced set.
//!
//! ### Committed users
//!
//! The online mechanisms (Mechanism 2 line 5, Mechanism 4) re-run
//! Shapley with previously-serviced users forced in via `b'_ij = ∞`.
//! We model this as [`ShapleyBid::Committed`] rather than a sentinel
//! value, so "infinity" can never leak into payment arithmetic.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use osp_econ::{Money, UserId};

/// A bid as seen by the Shapley mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShapleyBid {
    /// `b'_ij = ∞`: the user was serviced in an earlier slot and must
    /// remain serviced (online mechanisms only).
    Committed,
    /// A finite declared value.
    Value(Money),
}

impl ShapleyBid {
    /// `true` iff the bid is at least `price` (`Committed` clears any
    /// price).
    #[must_use]
    pub fn affords(self, price: Money) -> bool {
        match self {
            ShapleyBid::Committed => true,
            ShapleyBid::Value(v) => v >= price,
        }
    }
}

/// Result of one Shapley run for a single optimization.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShapleyOutcome {
    /// The serviced users `S_j` (empty ⇒ the optimization is not
    /// implemented).
    pub serviced: BTreeSet<UserId>,
    /// The common cost share `p = C_j/|S_j|`; [`Money::ZERO`] when no
    /// one is serviced.
    pub share: Money,
}

impl ShapleyOutcome {
    fn empty() -> Self {
        ShapleyOutcome {
            serviced: BTreeSet::new(),
            share: Money::ZERO,
        }
    }

    /// `true` iff the optimization gets implemented.
    #[must_use]
    pub fn is_implemented(&self) -> bool {
        !self.serviced.is_empty()
    }

    /// `p_ij`: `share` for serviced users, zero otherwise.
    #[must_use]
    pub fn payment(&self, user: UserId) -> Money {
        if self.serviced.contains(&user) {
            self.share
        } else {
            Money::ZERO
        }
    }

    /// Total collected `Σ_i p_ij = C_j` when implemented.
    #[must_use]
    pub fn total_collected(&self) -> Money {
        self.share * self.serviced.len()
    }
}

/// Sorted `O(m log m)` implementation (see module docs for the
/// equivalence argument).
///
/// `cost` must be strictly positive; bids must be non-negative (both
/// enforced by the game constructors, re-checked here in debug builds).
#[must_use]
pub fn run(cost: Money, bids: &BTreeMap<UserId, ShapleyBid>) -> ShapleyOutcome {
    debug_assert!(cost.is_positive(), "Shapley requires C_j > 0");
    let mut committed: BTreeSet<UserId> = BTreeSet::new();
    let mut finite: Vec<(Money, UserId)> = Vec::with_capacity(bids.len());
    for (&user, &bid) in bids {
        match bid {
            ShapleyBid::Committed => {
                committed.insert(user);
            }
            ShapleyBid::Value(v) => {
                debug_assert!(!v.is_negative(), "bids must be non-negative");
                finite.push((v, user));
            }
        }
    }
    // Descending by bid; the user id tiebreak only fixes the sort order,
    // not the outcome (ties never straddle the serviced boundary).
    finite.sort_unstable_by(|a, b| b.cmp(a));

    let c = committed.len();
    // Largest k such that finite[k-1] affords cost/(c + k).
    let mut chosen_k = None;
    for k in (1..=finite.len()).rev() {
        if finite[k - 1].0 >= cost.split_among(c + k) {
            chosen_k = Some(k);
            break;
        }
    }

    match chosen_k {
        Some(k) => {
            let mut serviced = committed;
            serviced.extend(finite[..k].iter().map(|&(_, u)| u));
            let share = cost.split_among(serviced.len());
            ShapleyOutcome { serviced, share }
        }
        None if c > 0 => {
            let share = cost.split_among(c);
            ShapleyOutcome {
                serviced: committed,
                share,
            }
        }
        None => ShapleyOutcome::empty(),
    }
}

/// Literal transcription of Mechanism 1 (kept as the oracle for the
/// `sorted ≡ iterative` property test, and for side-by-side reading
/// with the paper).
#[must_use]
pub fn run_iterative(cost: Money, bids: &BTreeMap<UserId, ShapleyBid>) -> ShapleyOutcome {
    debug_assert!(cost.is_positive(), "Shapley requires C_j > 0");
    // S_j ← {1, …, m}
    let mut serviced: BTreeSet<UserId> = bids.keys().copied().collect();
    loop {
        if serviced.is_empty() {
            return ShapleyOutcome::empty();
        }
        // p ← C_j / |S_j|
        let price = cost.split_among(serviced.len());
        // S_j ← {i ∈ S_j | p ≤ b_ij}
        let retained: BTreeSet<UserId> = serviced
            .iter()
            .copied()
            .filter(|u| bids[u].affords(price))
            .collect();
        let unchanged = retained.len() == serviced.len();
        serviced = retained;
        // until S_j remains unchanged, or S_j = ∅
        if unchanged {
            return ShapleyOutcome {
                share: price,
                serviced,
            };
        }
    }
}

/// Convenience: wrap plain values as finite Shapley bids.
#[must_use]
pub fn value_bids(bids: impl IntoIterator<Item = (UserId, Money)>) -> BTreeMap<UserId, ShapleyBid> {
    bids.into_iter()
        .map(|(u, v)| (u, ShapleyBid::Value(v)))
        .collect()
}

/// Which engine drives the per-slot Shapley computation inside the
/// online mechanisms ([`crate::addon`], [`crate::subston`]).
///
/// Serialized as its variant name. Documents written while the solver's
/// lane scan and the AddOn slot pipeline were separate engines carry
/// `"Columnar"` or `"Pipelined"`; both now restore as
/// [`Engine::Incremental`], which runs those fast paths itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum Engine {
    /// The production engine (default): one persistent [`Solver`]
    /// across slots, so bids stay sorted between slots, committing the
    /// serviced prefix is O(1), and no per-slot maps are allocated. It
    /// picks its fast paths from what it can observe:
    ///
    /// - the solver's affordable-prefix scan and batch merge run over
    ///   flat `i64` micro-dollar lanes whenever every finite bid and
    ///   the cost lie on that grid, and over exact [`Money`] otherwise;
    /// - an AddOn slot whose solver holds off-grid bids arms the next
    ///   slot's pre-sorted splice: its update batch is sorted by exact
    ///   integer keys at the batch's common denominator and merged into
    ///   the solver in one pass, and from
    ///   [`crate::pipeline::DEFAULT_FORK_MIN`] pending plus arriving
    ///   users on a multi-core host that preparation overlaps the
    ///   pricing on a second thread ([`crate::pipeline`]). On-grid
    ///   slots take the plain [`Solver::update_bids`] path.
    ///
    /// Outcomes are bit-identical to [`Engine::Rebuild`] on every path
    /// (property-tested and gated by the differential oracle).
    #[default]
    Incremental,
    /// Rebuild the residual bid map and re-run [`run`] from scratch
    /// every slot — the paper-literal path, kept as the benchmark
    /// baseline and as the oracle for engine-equivalence tests.
    Rebuild,
}

impl<'de> Deserialize<'de> for Engine {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match String::deserialize(deserializer)?.as_str() {
            "Incremental" | "Columnar" | "Pipelined" => Ok(Engine::Incremental),
            "Rebuild" => Ok(Engine::Rebuild),
            other => Err(serde::de::Error::custom(format!(
                "unknown Engine variant `{other}`"
            ))),
        }
    }
}

impl Engine {
    /// `true` for the production engine, which drives a persistent
    /// [`Solver`] across slots; `false` for the paper-literal
    /// [`Engine::Rebuild`].
    #[must_use]
    pub fn uses_solver(self) -> bool {
        !matches!(self, Engine::Rebuild)
    }
}

/// Result of one [`Solver::solve`] call.
///
/// A `Solution` is only meaningful against the solver state it was
/// computed from; mutate the solver and it goes stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Solution {
    /// How many *finite* bidders are serviced (the top-`k` prefix of
    /// the solver's sorted region). Committed users are always serviced
    /// on top of these.
    pub serviced_finite: usize,
    /// The common share `C/(c + k)`; `None` iff no one is serviced.
    pub share: Option<Money>,
}

impl Solution {
    /// `true` iff the optimization gets implemented.
    #[must_use]
    pub fn is_implemented(&self) -> bool {
        self.share.is_some()
    }
}

/// Lane sentinel for finite bids that do not lie on the micro-dollar
/// grid (and for the cost when it is off-grid): the lane fast path
/// is disabled while any are present, so the sentinel can never be
/// compared or multiplied.
const OFF_GRID: i64 = i64::MIN;

/// `value` in i64 micro-lane units, or [`OFF_GRID`].
pub(crate) fn lane_of(value: Money) -> i64 {
    match value.to_micros() {
        // `i64::MIN` micros is collapsed into the sentinel: treating
        // one representable (absurdly negative) amount as off-grid
        // costs only the fast path, never exactness.
        Some(OFF_GRID) | None => OFF_GRID,
        Some(lane) => lane,
    }
}

/// Incremental Shapley solver: the same mechanism as [`run`], factored
/// as a persistent data structure for the online mechanisms.
///
/// [`run`] rebuilds and re-sorts the whole bid map on every call, so a
/// `z`-slot online game pays `O(z · m log m)` plus `z` rounds of map
/// and vector allocation. `Solver` instead keeps the finite bids
/// **column-wise, descending-sorted, behind a committed prefix** — a
/// struct-of-arrays of three parallel columns:
///
/// ```text
/// values: [ ……committed…… | finite Money bids, sorted descending  ]
/// lanes:  [ ……(zeroed)…… | the same bids as i64 micros (or OFF_GRID) ]
/// users:  [ committed ids | finite bidder ids, same order           ]
///                          ^ committed_len
/// ```
///
/// The `values` column is the exact truth ([`Money`] rationals); the
/// `lanes` column mirrors each finite bid in micro-dollar lane units
/// whenever it lies on that grid. The hot loops — [`Solver::solve`]'s
/// affordable-prefix scan and [`Solver::update_bids`]' merge — run
/// branch-light over the contiguous `i64` lanes (`osp_econ::column`
/// kernels) while `off_grid == 0` and the cost is on-grid, and fall back
/// to the exact `values` column otherwise, so exactness is preserved at
/// the edges.
///
/// * [`Solver::update_bid`] inserts or moves one entry (binary search
///   plus contiguous rotates of the three columns);
/// * [`Solver::solve`] scans for the largest affordable prefix without
///   allocating, exactly like [`run`]'s `chosen_k` loop;
/// * [`Solver::commit_top`] absorbs the serviced prefix into the
///   committed region by bumping `committed_len` — the serviced finite
///   users are *already* at the front of the sorted region, so
///   committing the whole slot's cohort is O(k) map updates and zero
///   moves.
///
/// ### Invariants
///
/// 1. The columns are index-parallel; `[..committed_len]` holds the
///    committed users, in commitment order. Their value/lane slots are
///    zeroed on commitment (committed means `b = ∞`; the stored value
///    is ignored).
/// 2. The finite region `[committed_len..]` is strictly descending by
///    `(value, user)` — strict because users are unique. On a common
///    grid the lane order is the same order, which is what lets the
///    lane merge compare `(lane, user)` pairs instead of rationals.
/// 3. `states` mirrors the columns: every user appears exactly once,
///    with the value recorded in `values` (this is what makes the
///    binary search in `find_finite` exact). It is a seedless
///    [`osp_econ::FastMap`] — O(1) with a one-multiply hash on the hot
///    paths and never iterated, so no ordering nondeterminism can leak
///    into outcomes.
/// 4. `off_grid` counts the finite entries whose lane is [`OFF_GRID`];
///    `cost_lane` is the cost in lane units (or [`OFF_GRID`]). The
///    lane fast path is taken only when both say the whole scan is
///    on-grid.
///
/// Equivalence with [`run`] and [`run_iterative`] under arbitrary
/// `update_bid`/`commit`/`remove` interleavings is property-tested,
/// and the lane path is pinned against the rebuild engine by the
/// differential oracle (`osp_bench::differential`).
///
/// The solver serializes (all fields are plain data), so the online
/// state machines that embed it can be checkpointed mid-game and
/// resumed — see `tests/serde_roundtrip.rs`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Solver {
    cost: Money,
    /// `cost` in micro-lane units, or [`OFF_GRID`].
    cost_lane: i64,
    /// Exact bid column (the truth).
    values: Vec<Money>,
    /// The same bids in i64 micros; [`OFF_GRID`] off the grid.
    lanes: Vec<i64>,
    /// Bidder column.
    users: Vec<UserId>,
    committed_len: usize,
    /// Finite entries currently holding an [`OFF_GRID`] lane.
    off_grid: usize,
    states: osp_econ::FastMap<UserId, ShapleyBid>,
}

impl Solver {
    /// Creates a solver for one optimization of cost `cost > 0`.
    pub fn new(cost: Money) -> crate::Result<Self> {
        if !cost.is_positive() {
            return Err(crate::MechanismError::NonPositiveCost {
                opt: osp_econ::OptId(0),
                cost,
            });
        }
        Ok(Solver {
            cost,
            cost_lane: lane_of(cost),
            values: Vec::new(),
            lanes: Vec::new(),
            users: Vec::new(),
            committed_len: 0,
            off_grid: 0,
            states: osp_econ::FastMap::default(),
        })
    }

    /// The optimization's cost `C`.
    #[must_use]
    pub fn cost(&self) -> Money {
        self.cost
    }

    /// Total number of users (committed + finite).
    #[must_use]
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// `true` iff no user has a bid.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Number of committed users `c`.
    #[must_use]
    pub fn committed_count(&self) -> usize {
        self.committed_len
    }

    /// `true` while some finite bid lies off the micro-dollar grid, so
    /// the lane fast path is off and comparisons are exact rationals.
    pub(crate) fn has_off_grid(&self) -> bool {
        self.off_grid > 0
    }

    /// The committed users, in commitment order.
    pub fn committed_users(&self) -> impl Iterator<Item = UserId> + '_ {
        self.users[..self.committed_len].iter().copied()
    }

    /// The current bid of `user`, if any.
    #[must_use]
    pub fn bid(&self, user: UserId) -> Option<ShapleyBid> {
        self.states.get(&user).copied()
    }

    /// First finite index whose `(value, user)` key is not above `key`
    /// (the columns stay descending).
    fn finite_partition_point(&self, key: (Money, UserId)) -> usize {
        let mut lo = self.committed_len;
        let mut hi = self.values.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if (self.values[mid], self.users[mid]) > key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Position of the finite entry `(value, user)` in the sorted
    /// region (absolute index into the columns).
    fn find_finite(&self, value: Money, user: UserId) -> usize {
        let pos = self.finite_partition_point((value, user));
        debug_assert_eq!(
            (self.values[pos], self.users[pos]),
            (value, user),
            "states out of sync with columns"
        );
        pos
    }

    /// Absolute insertion index keeping the sorted region descending.
    fn insertion_point(&self, value: Money, user: UserId) -> usize {
        self.finite_partition_point((value, user))
    }

    /// Bookkeeping for a lane leaving the finite region.
    fn retire_lane(&mut self, lane: i64) {
        if lane == OFF_GRID {
            self.off_grid -= 1;
        }
    }

    /// Bookkeeping for a lane entering the finite region.
    fn admit_lane(&mut self, lane: i64) {
        if lane == OFF_GRID {
            self.off_grid += 1;
        }
    }

    /// Sets (or inserts) `user`'s finite bid. A no-op for committed
    /// users — their bid is `∞` and stays `∞` (matching the online
    /// mechanisms, where revisions of serviced users are irrelevant).
    pub fn update_bid(&mut self, user: UserId, value: Money) {
        debug_assert!(!value.is_negative(), "bids must be non-negative");
        let lane = lane_of(value);
        match self.states.get(&user) {
            Some(ShapleyBid::Committed) => return,
            Some(&ShapleyBid::Value(old)) if old == value => return,
            Some(&ShapleyBid::Value(old)) => {
                let from = self.find_finite(old, user);
                let to = self.insertion_point(value, user);
                self.retire_lane(self.lanes[from]);
                // `to` was computed with the old entry still in place;
                // rotate moves it to its new slot in one contiguous pass.
                if to > from {
                    self.values[from..to].rotate_left(1);
                    self.lanes[from..to].rotate_left(1);
                    self.users[from..to].rotate_left(1);
                    self.values[to - 1] = value;
                    self.lanes[to - 1] = lane;
                    self.users[to - 1] = user;
                } else {
                    self.values[to..=from].rotate_right(1);
                    self.lanes[to..=from].rotate_right(1);
                    self.users[to..=from].rotate_right(1);
                    self.values[to] = value;
                    self.lanes[to] = lane;
                    self.users[to] = user;
                }
                self.admit_lane(lane);
            }
            None => {
                let to = self.insertion_point(value, user);
                self.values.insert(to, value);
                self.lanes.insert(to, lane);
                self.users.insert(to, user);
                self.admit_lane(lane);
            }
        }
        self.states.insert(user, ShapleyBid::Value(value));
    }

    /// Batch [`Solver::update_bid`]: applies a whole slot's worth of
    /// arrivals and residual changes in one compaction + merge pass —
    /// `O(f + a log a)` for `a` updates against `f` finite bids, where
    /// `a` one-at-a-time inserts would pay `O(a·f)` memmove.
    ///
    /// When every fresh value lies on the micro grid the batch is
    /// sorted on `(i64 lane, user)` instead of `(Money, user)` — on the
    /// grid the two orders coincide (invariant 2) — and when the whole
    /// finite region is on the grid as well, the merge compares lane
    /// pairs over the contiguous lane column instead of rational
    /// cross-products. A batch holding any off-grid value keeps the
    /// exact `Money` sort and merge.
    ///
    /// Each user may appear **at most once** per batch (the online
    /// mechanisms feed this from a set); a duplicate trips a debug
    /// assertion. Committed users and unchanged values are skipped.
    pub fn update_bids<I>(&mut self, updates: I)
    where
        I: IntoIterator<Item = (UserId, Money)>,
    {
        let mut fresh: Vec<(Money, i64, UserId)> = Vec::new();
        let mut stale: Vec<(Money, UserId)> = Vec::new();
        for (user, value) in updates {
            debug_assert!(!value.is_negative(), "bids must be non-negative");
            match self.states.get(&user) {
                Some(ShapleyBid::Committed) => {}
                Some(&ShapleyBid::Value(old)) => {
                    if old != value {
                        stale.push((old, user));
                        fresh.push((value, lane_of(value), user));
                        self.states.insert(user, ShapleyBid::Value(value));
                    }
                }
                None => {
                    fresh.push((value, lane_of(value), user));
                    self.states.insert(user, ShapleyBid::Value(value));
                }
            }
        }
        let c = self.committed_len;
        if !stale.is_empty() {
            // One pass over the finite region, dropping the old entries
            // of every changed bid (both lists share the sort order).
            stale.sort_unstable_by(|a, b| b.cmp(a));
            let mut si = 0;
            let mut write = c;
            for read in c..self.values.len() {
                if si < stale.len() && (self.values[read], self.users[read]) == stale[si] {
                    if self.lanes[read] == OFF_GRID {
                        self.off_grid -= 1;
                    }
                    si += 1;
                    continue;
                }
                self.values[write] = self.values[read];
                self.lanes[write] = self.lanes[read];
                self.users[write] = self.users[read];
                write += 1;
            }
            debug_assert_eq!(si, stale.len(), "duplicate user in update_bids batch?");
            self.values.truncate(write);
            self.lanes.truncate(write);
            self.users.truncate(write);
        }
        if fresh.is_empty() {
            return;
        }
        // Merge the sorted batch into the sorted finite region from the
        // back (largest write index = smallest value). An all-on-grid
        // batch sorts on its i64 lanes: the same order, no rationals.
        let fresh_off_grid = fresh.iter().filter(|&&(_, l, _)| l == OFF_GRID).count();
        if fresh_off_grid == 0 {
            fresh.sort_unstable_by_key(|&(_, lane, user)| std::cmp::Reverse((lane, user)));
        } else {
            fresh.sort_unstable_by_key(|&(value, _, user)| std::cmp::Reverse((value, user)));
        }
        let mut i = self.values.len();
        let mut j = fresh.len();
        self.values.resize(i + j, Money::ZERO);
        self.lanes.resize(i + j, 0);
        self.users.resize(i + j, UserId(u32::MAX));
        let mut w = self.values.len();
        if self.off_grid == 0 && fresh_off_grid == 0 {
            // Lane merge: every key is on the micro grid, where
            // (lane, user) order coincides with (value, user) order, so
            // the merge walks the flat i64 lane column.
            while j > 0 {
                w -= 1;
                let (fv, fl, fu) = fresh[j - 1];
                if i > c && (self.lanes[i - 1], self.users[i - 1]) < (fl, fu) {
                    i -= 1;
                    self.values[w] = self.values[i];
                    self.lanes[w] = self.lanes[i];
                    self.users[w] = self.users[i];
                } else {
                    j -= 1;
                    self.values[w] = fv;
                    self.lanes[w] = fl;
                    self.users[w] = fu;
                }
            }
        } else {
            // Exact merge over the Money column.
            while j > 0 {
                w -= 1;
                let (fv, fl, fu) = fresh[j - 1];
                if i > c && (self.values[i - 1], self.users[i - 1]) < (fv, fu) {
                    i -= 1;
                    self.values[w] = self.values[i];
                    self.lanes[w] = self.lanes[i];
                    self.users[w] = self.users[i];
                } else {
                    j -= 1;
                    self.values[w] = fv;
                    self.lanes[w] = fl;
                    self.users[w] = fu;
                }
            }
        }
        self.off_grid += fresh_off_grid;
        debug_assert!(
            self.values[c..]
                .iter()
                .zip(&self.users[c..])
                .zip(self.values[c + 1..].iter().zip(&self.users[c + 1..]))
                .all(|(a, b)| a > b),
            "finite region must stay strictly descending by (value, user)"
        );
    }

    /// Forces `user` into the serviced set forever (`b = ∞`). Users
    /// without a current bid may be committed directly.
    pub fn commit(&mut self, user: UserId) {
        match self.states.get(&user) {
            Some(ShapleyBid::Committed) => return,
            Some(&ShapleyBid::Value(v)) => {
                let pos = self.find_finite(v, user);
                self.retire_lane(self.lanes[pos]);
                let c = self.committed_len;
                self.values[c..=pos].rotate_right(1);
                self.lanes[c..=pos].rotate_right(1);
                self.users[c..=pos].rotate_right(1);
                // Committed slots ignore their value; zero them so the
                // columns stay canonical (deterministic serde).
                self.values[c] = Money::ZERO;
                self.lanes[c] = 0;
            }
            None => {
                self.values.insert(self.committed_len, Money::ZERO);
                self.lanes.insert(self.committed_len, 0);
                self.users.insert(self.committed_len, user);
            }
        }
        self.states.insert(user, ShapleyBid::Committed);
        self.committed_len += 1;
    }

    /// Removes `user`'s finite bid (e.g. an expired, never-serviced
    /// bidder). Returns `false` when the user had no bid.
    ///
    /// Each call shifts the tail of all three columns (`O(f)` memmove),
    /// so callers dropping several users from one solver should pass
    /// them to [`Solver::remove_bids`], which pays one pass for all.
    ///
    /// # Panics
    /// Panics if `user` is committed — committed users can never leave
    /// the serviced set (Mechanism 2 line 5).
    pub fn remove(&mut self, user: UserId) -> bool {
        match self.states.get(&user) {
            None => false,
            Some(ShapleyBid::Committed) => {
                panic!("cannot remove committed {user} from a Shapley solver")
            }
            Some(&ShapleyBid::Value(v)) => {
                let pos = self.find_finite(v, user);
                self.retire_lane(self.lanes[pos]);
                self.values.remove(pos);
                self.lanes.remove(pos);
                self.users.remove(pos);
                self.states.remove(&user);
                true
            }
        }
    }

    /// Batch [`Solver::remove`]: drops a whole slot's worth of expired
    /// finite bids in **one** compaction pass over the columns —
    /// `O(f + r log r)` for `r` removals against `f` finite bids, where
    /// `r` one-at-a-time `Vec::remove`s would pay `O(r·f)` memmove
    /// (three columns' worth). Users without a bid are skipped, same
    /// as [`Solver::remove`] returning `false`; the return value is the
    /// number of bids actually removed.
    ///
    /// # Panics
    /// Panics if any user is committed — committed users can never
    /// leave the serviced set (Mechanism 2 line 5).
    pub fn remove_bids<I>(&mut self, users: I) -> usize
    where
        I: IntoIterator<Item = UserId>,
    {
        let mut stale: Vec<(Money, UserId)> = Vec::new();
        for user in users {
            match self.states.get(&user) {
                None => {}
                Some(ShapleyBid::Committed) => {
                    panic!("cannot remove committed {user} from a Shapley solver")
                }
                Some(&ShapleyBid::Value(v)) => {
                    stale.push((v, user));
                    self.states.remove(&user);
                }
            }
        }
        if stale.is_empty() {
            return 0;
        }
        // Same single-pass compaction as `update_bids`' stale sweep:
        // both lists share the descending sort order.
        stale.sort_unstable_by(|a, b| b.cmp(a));
        let c = self.committed_len;
        let mut si = 0;
        let mut write = c;
        for read in c..self.values.len() {
            if si < stale.len() && (self.values[read], self.users[read]) == stale[si] {
                self.retire_lane(self.lanes[read]);
                si += 1;
                continue;
            }
            self.values[write] = self.values[read];
            self.lanes[write] = self.lanes[read];
            self.users[write] = self.users[read];
            write += 1;
        }
        debug_assert_eq!(si, stale.len(), "duplicate user in remove_bids batch?");
        self.values.truncate(write);
        self.lanes.truncate(write);
        self.users.truncate(write);
        stale.len()
    }

    /// Replaces the whole finite region by merging two sorted runs —
    /// the splice point of the two-stage slot pipeline that large AddOn
    /// slots take ([`crate::pipeline`]). `batch` is the snapshot stage A
    /// pre-sorted off the critical path (every user pending at
    /// preparation time, at her advanced residual); `fresh` is the
    /// just-in-time arrivals the snapshot could not know about. One
    /// pass merges both straight into the columns, using the `states`
    /// map itself as the drop filter:
    ///
    /// - a batch user now `Committed` was serviced by the pricing that
    ///   overlapped the snapshot — she has left the finite region;
    /// - a batch user with **no** `states` entry was retired this slot
    ///   (`remove_bids` erased her) — her snapshot row is dead;
    /// - everyone else is live: her entry is updated in place and her
    ///   row pushed.
    ///
    /// Contract (debug-asserted): both runs are strictly descending by
    /// `(value, user)` with no user in common, each lane mirrors its
    /// value, `fresh` users are brand new, and every currently-finite
    /// user appears in one of the runs (otherwise her `states` entry
    /// would go stale). The result is identical to feeding the same
    /// live values through [`Solver::update_bids`].
    pub(crate) fn replace_finite_merge(
        &mut self,
        batch: &[(Money, i64, UserId)],
        fresh: &[(Money, i64, UserId)],
    ) {
        let c = self.committed_len;
        debug_assert!(
            batch.len() + fresh.len() >= self.values.len() - c,
            "pipeline batch must cover every finite user"
        );
        self.values.truncate(c);
        self.lanes.truncate(c);
        self.users.truncate(c);
        self.off_grid = 0;
        let cap = batch.len() + fresh.len();
        self.values.reserve(cap);
        self.lanes.reserve(cap);
        self.users.reserve(cap);
        let mut prev: Option<(Money, UserId)> = None;
        let (mut i, mut j) = (0, 0);
        loop {
            let take_batch = match (batch.get(i), fresh.get(j)) {
                (Some(&(bv, _, bu)), Some(&(fv, _, fu))) => (bv, bu) > (fv, fu),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let (value, lane, user) = if take_batch {
                let entry = batch[i];
                i += 1;
                match self.states.get_mut(&entry.2) {
                    // Serviced by the overlapped pricing, or retired
                    // (entry already erased): the snapshot row is dead.
                    Some(ShapleyBid::Committed) | None => continue,
                    Some(state) => *state = ShapleyBid::Value(entry.0),
                }
                entry
            } else {
                let entry = fresh[j];
                j += 1;
                debug_assert!(
                    !self.states.contains_key(&entry.2),
                    "fresh arrival {} already tracked",
                    entry.2
                );
                self.states.insert(entry.2, ShapleyBid::Value(entry.0));
                entry
            };
            debug_assert_eq!(
                lane,
                lane_of(value),
                "pipeline batch lane drifted from value"
            );
            debug_assert!(
                prev.is_none_or(|p| p > (value, user)),
                "pipeline runs must be strictly descending by (value, user)"
            );
            prev = Some((value, user));
            if lane == OFF_GRID {
                self.off_grid += 1;
            }
            self.values.push(value);
            self.lanes.push(lane);
            self.users.push(user);
        }
    }

    /// The exact-arithmetic `chosen_k` scan over the `values` column —
    /// [`run`]'s loop, and the fallback whenever the lane fast path is
    /// unavailable.
    fn scan_exact(&self) -> usize {
        let c = self.committed_len;
        let finite = &self.values[c..];
        for k in (1..=finite.len()).rev() {
            if finite[k - 1] * (c + k) >= self.cost {
                return k;
            }
        }
        0
    }

    /// Runs the mechanism over the current bids: the largest `k` such
    /// that the `k`-th highest finite bid affords `C/(c + k)`.
    ///
    /// Allocation-free; the affordability test is the cross-multiplied
    /// `b_k · (c + k) ≥ C`, avoiding a division per candidate `k`.
    /// When every finite bid and the cost lie on the micro grid and no product can overflow, the scan runs
    /// through [`osp_econ::column::max_affordable_k`] over the flat
    /// `i64` lane column (cross-multiplying by `10^6` on both sides
    /// keeps the test exact); otherwise it falls back to the identical
    /// exact scan over the `values` column.
    #[must_use]
    pub fn solve(&self) -> Solution {
        let c = self.committed_len;
        let finite_lanes = &self.lanes[c..];
        let chosen_k = if self.off_grid == 0
            && self.cost_lane != OFF_GRID
            && osp_econ::column::scan_products_fit_descending(finite_lanes, c)
        {
            osp_econ::column::max_affordable_k(finite_lanes, c, self.cost_lane)
        } else {
            self.scan_exact()
        };
        if chosen_k == 0 && c == 0 {
            Solution {
                serviced_finite: 0,
                share: None,
            }
        } else {
            Solution {
                serviced_finite: chosen_k,
                share: Some(self.cost.split_among(c + chosen_k)),
            }
        }
    }

    /// The serviced finite bidders of `solution`: the top of the sorted
    /// region, in descending bid order.
    #[must_use]
    pub fn serviced_finite(&self, solution: &Solution) -> &[UserId] {
        &self.users[self.committed_len..self.committed_len + solution.serviced_finite]
    }

    /// Commits the top `k` finite bidders — exactly the serviced set of
    /// a just-computed [`Solution`]. They already sit at the front of
    /// the sorted region, so no entries move.
    pub fn commit_top(&mut self, k: usize) {
        debug_assert!(self.committed_len + k <= self.users.len());
        for i in self.committed_len..self.committed_len + k {
            self.states.insert(self.users[i], ShapleyBid::Committed);
            if self.lanes[i] == OFF_GRID {
                self.off_grid -= 1;
            }
            self.values[i] = Money::ZERO;
            self.lanes[i] = 0;
        }
        self.committed_len += k;
    }

    /// Materializes `solution` as a full [`ShapleyOutcome`] (allocates;
    /// the online mechanisms only do this when a report is requested).
    #[must_use]
    pub fn outcome(&self, solution: &Solution) -> ShapleyOutcome {
        let serviced: BTreeSet<UserId> = self.users
            [..self.committed_len + solution.serviced_finite]
            .iter()
            .copied()
            .collect();
        ShapleyOutcome {
            serviced,
            share: solution.share.unwrap_or(Money::ZERO),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn m(d: i64) -> Money {
        Money::from_dollars(d)
    }

    fn game(cost: i64, bids: &[i64]) -> (Money, BTreeMap<UserId, ShapleyBid>) {
        (
            m(cost),
            value_bids(
                bids.iter()
                    .enumerate()
                    .map(|(i, &b)| (UserId(u32::try_from(i).unwrap()), m(b))),
            ),
        )
    }

    #[test]
    fn everyone_can_afford_even_split() {
        let (cost, bids) = game(100, &[30, 40, 50, 60]);
        let out = run(cost, &bids);
        assert_eq!(out.serviced.len(), 4);
        assert_eq!(out.share, m(25));
        assert_eq!(out.total_collected(), m(100));
    }

    #[test]
    fn price_rises_as_users_drop_out() {
        // 100/4 = 25 drops u0 (bid 10); 100/3 = 33.33 drops u1 (bid 30);
        // 100/2 = 50 retains u2 (50) and u3 (60).
        let (cost, bids) = game(100, &[10, 30, 50, 60]);
        let out = run(cost, &bids);
        assert_eq!(out.serviced, [UserId(2), UserId(3)].into());
        assert_eq!(out.share, m(50));
    }

    #[test]
    fn nobody_serviced_when_unaffordable() {
        let (cost, bids) = game(100, &[10, 10, 10]);
        let out = run(cost, &bids);
        assert!(!out.is_implemented());
        assert_eq!(out.share, Money::ZERO);
        assert_eq!(out.payment(UserId(0)), Money::ZERO);
    }

    #[test]
    fn exact_threshold_bid_is_serviced() {
        // Mechanism 1 keeps users with p ≤ b_ij: a bid exactly equal to
        // the share stays. (This is where float arithmetic would break.)
        let (cost, bids) = game(100, &[25, 25, 25, 25]);
        let out = run(cost, &bids);
        assert_eq!(out.serviced.len(), 4);
        assert_eq!(out.share, m(25));
    }

    #[test]
    fn single_user_pays_full_cost() {
        let (cost, bids) = game(100, &[101]);
        let out = run(cost, &bids);
        assert_eq!(out.serviced, [UserId(0)].into());
        assert_eq!(out.share, m(100));
    }

    #[test]
    fn empty_game() {
        let out = run(m(10), &BTreeMap::new());
        assert!(!out.is_implemented());
    }

    #[test]
    fn committed_users_always_stay() {
        let mut bids = value_bids([(UserId(1), m(1))]);
        bids.insert(UserId(0), ShapleyBid::Committed);
        // Alone, u1's bid of 1 cannot cover cost 100; but u0 is forced in
        // and pays, so the share for two users is 50 — still beyond u1.
        let out = run(m(100), &bids);
        assert_eq!(out.serviced, [UserId(0)].into());
        assert_eq!(out.share, m(100));

        // With a bid of 50, u1 joins and the share halves.
        bids.insert(UserId(1), ShapleyBid::Value(m(50)));
        let out = run(m(100), &bids);
        assert_eq!(out.serviced, [UserId(0), UserId(1)].into());
        assert_eq!(out.share, m(50));
    }

    #[test]
    fn only_committed_users() {
        let bids: BTreeMap<_, _> = [
            (UserId(0), ShapleyBid::Committed),
            (UserId(1), ShapleyBid::Committed),
        ]
        .into();
        let out = run(m(100), &bids);
        assert_eq!(out.share, m(50));
        assert_eq!(out.serviced.len(), 2);
    }

    #[test]
    fn fractional_shares_are_exact() {
        let (cost, bids) = game(100, &[40, 40, 40]);
        let out = run(cost, &bids);
        assert_eq!(out.serviced.len(), 3);
        assert_eq!(out.share * 3, m(100));
    }

    #[test]
    fn example_1_naive_underbidding_contrast() {
        // Paper Example 1 context: with Shapley, a user underbidding
        // below the share is dropped rather than paying her declared bid.
        let (cost, bids) = game(100, &[60, 60]);
        let out = run(cost, &bids);
        assert_eq!(out.share, m(50));

        let (cost, bids) = game(100, &[60, 10]);
        let out = run(cost, &bids);
        // Underbidder is dropped; the remaining user cannot afford 100.
        assert!(!out.is_implemented());
    }

    #[test]
    fn iterative_matches_on_paper_examples() {
        for (cost, bids) in [
            game(100, &[30, 40, 50, 60]),
            game(100, &[10, 30, 50, 60]),
            game(100, &[10, 10, 10]),
            game(100, &[25, 25, 25, 25]),
            game(100, &[101]),
            game(7, &[1, 2, 3]),
        ] {
            assert_eq!(run(cost, &bids), run_iterative(cost, &bids));
        }
    }

    #[test]
    fn solver_matches_run_on_paper_examples() {
        for (cost, bids) in [
            game(100, &[30, 40, 50, 60]),
            game(100, &[10, 30, 50, 60]),
            game(100, &[10, 10, 10]),
            game(100, &[25, 25, 25, 25]),
            game(100, &[101]),
            game(7, &[1, 2, 3]),
        ] {
            let mut solver = Solver::new(cost).unwrap();
            for (&u, &b) in &bids {
                match b {
                    ShapleyBid::Value(v) => solver.update_bid(u, v),
                    ShapleyBid::Committed => solver.commit(u),
                }
            }
            let sol = solver.solve();
            assert_eq!(solver.outcome(&sol), run(cost, &bids));
        }
    }

    #[test]
    fn solver_commit_top_absorbs_the_serviced_prefix() {
        let mut solver = Solver::new(m(100)).unwrap();
        for (i, v) in [30, 40, 50, 60].into_iter().enumerate() {
            solver.update_bid(UserId(u32::try_from(i).unwrap()), m(v));
        }
        let sol = solver.solve();
        assert_eq!(sol.serviced_finite, 4);
        assert_eq!(sol.share, Some(m(25)));
        solver.commit_top(sol.serviced_finite);
        assert_eq!(solver.committed_count(), 4);
        // Committed users stay serviced even after their bids are gone.
        let sol = solver.solve();
        assert_eq!(sol.serviced_finite, 0);
        assert_eq!(sol.share, Some(m(25)));
        assert_eq!(solver.bid(UserId(0)), Some(ShapleyBid::Committed));
    }

    #[test]
    fn solver_update_and_remove_keep_order() {
        let mut solver = Solver::new(m(100)).unwrap();
        solver.update_bid(UserId(0), m(10));
        solver.update_bid(UserId(1), m(90));
        solver.update_bid(UserId(2), m(30));
        // Move u0 up past u2, then down again, then drop u1.
        solver.update_bid(UserId(0), m(60));
        let sol = solver.solve();
        assert_eq!(sol.share, Some(m(50)));
        solver.update_bid(UserId(0), m(5));
        assert!(solver.remove(UserId(1)));
        assert!(!solver.remove(UserId(7)));
        let sol = solver.solve();
        assert!(!sol.is_implemented());
        assert_eq!(solver.len(), 2);
    }

    #[test]
    fn engine_serde_keeps_names_and_folds_the_retired_ones() {
        for engine in [Engine::Incremental, Engine::Rebuild] {
            let json = serde_json::to_string(&engine).unwrap();
            assert_eq!(serde_json::from_str::<Engine>(&json).unwrap(), engine);
        }
        assert_eq!(
            serde_json::to_string(&Engine::Incremental).unwrap(),
            "\"Incremental\""
        );
        for retired in ["\"Columnar\"", "\"Pipelined\""] {
            assert_eq!(
                serde_json::from_str::<Engine>(retired).unwrap(),
                Engine::Incremental
            );
        }
        assert!(serde_json::from_str::<Engine>("\"Turbo\"").is_err());
    }

    #[test]
    #[should_panic(expected = "cannot remove committed")]
    fn solver_remove_committed_panics() {
        let mut solver = Solver::new(m(10)).unwrap();
        solver.commit(UserId(3));
        solver.remove(UserId(3));
    }

    #[test]
    fn solver_remove_bids_matches_sequential_removes() {
        let mut batched = Solver::new(m(10)).unwrap();
        let mut sequential = batched.clone();
        for u in 0..12u32 {
            let v = Money::from_cents(i64::from(u % 5) * 37 + 1);
            batched.update_bid(UserId(u), v);
            sequential.update_bid(UserId(u), v);
        }
        batched.commit(UserId(11));
        sequential.commit(UserId(11));
        // Mix of present, absent, and duplicate-value users; absent
        // users are skipped, same as `remove` returning false.
        let gone = [UserId(3), UserId(8), UserId(0), UserId(99), UserId(5)];
        batched.remove_bids(gone);
        for u in gone {
            sequential.remove(u);
        }
        assert_eq!(batched.len(), sequential.len());
        for u in 0..12u32 {
            assert_eq!(batched.bid(UserId(u)), sequential.bid(UserId(u)));
        }
        assert_eq!(batched.solve(), sequential.solve());
    }

    #[test]
    #[should_panic(expected = "cannot remove committed")]
    fn solver_remove_bids_committed_panics() {
        let mut solver = Solver::new(m(10)).unwrap();
        solver.commit(UserId(3));
        solver.remove_bids([UserId(3)]);
    }

    /// One random solver operation.
    #[derive(Debug, Clone)]
    enum SolverOp {
        Update(u32, i64),
        Commit(u32),
        Remove(u32),
        SolveAndCommitTop,
    }

    fn arb_solver_ops() -> impl Strategy<Value = Vec<SolverOp>> {
        proptest::collection::vec(
            prop_oneof![
                5 => (0u32..10, 0i64..200).prop_map(|(u, v)| SolverOp::Update(u, v)),
                2 => (0u32..10).prop_map(SolverOp::Commit),
                2 => (0u32..10).prop_map(SolverOp::Remove),
                1 => Just(SolverOp::SolveAndCommitTop),
            ],
            0..40,
        )
    }

    /// Strategy: an on-grid bid, skewed towards zero and towards a
    /// handful of lanes that many users share.
    fn arb_on_grid_value() -> impl Strategy<Value = Money> {
        prop_oneof![
            1 => Just(Money::ZERO),
            3 => (0i64..4).prop_map(Money::from_cents),
            2 => (0i64..200).prop_map(Money::from_cents),
        ]
    }

    /// Strategy: an on-grid bid or, one time in four, an off-grid one
    /// (a cent amount split three to seven ways).
    fn arb_mixed_value() -> impl Strategy<Value = Money> {
        prop_oneof![
            3 => arb_on_grid_value(),
            1 => (1i64..200, 3usize..8).prop_map(|(c, k)| Money::from_cents(c).split_among(k)),
        ]
    }

    /// Strategy: games with small integer cents to hit ties and
    /// thresholds often.
    fn arb_game() -> impl Strategy<Value = (Money, BTreeMap<UserId, ShapleyBid>)> {
        (
            1i64..400,
            proptest::collection::vec(
                prop_oneof![
                    4 => (0i64..200).prop_map(Some),
                    1 => Just(None), // committed
                ],
                0..12,
            ),
        )
            .prop_map(|(cost, raw)| {
                let bids = raw
                    .into_iter()
                    .enumerate()
                    .map(|(i, b)| {
                        let user = UserId(u32::try_from(i).unwrap());
                        let bid = match b {
                            Some(c) => ShapleyBid::Value(Money::from_cents(c)),
                            None => ShapleyBid::Committed,
                        };
                        (user, bid)
                    })
                    .collect();
                (Money::from_cents(cost), bids)
            })
    }

    proptest! {
        /// The optimized implementation is the paper's mechanism.
        #[test]
        fn sorted_equals_iterative((cost, bids) in arb_game()) {
            prop_assert_eq!(run(cost, &bids), run_iterative(cost, &bids));
        }

        /// The incremental solver is the same mechanism as `run` and
        /// `run_iterative` on a one-shot game.
        #[test]
        fn solver_equals_run_and_iterative((cost, bids) in arb_game()) {
            let mut solver = Solver::new(cost).unwrap();
            for (&u, &b) in &bids {
                match b {
                    ShapleyBid::Value(v) => solver.update_bid(u, v),
                    ShapleyBid::Committed => solver.commit(u),
                }
            }
            let out = solver.outcome(&solver.solve());
            prop_assert_eq!(&out, &run(cost, &bids));
            prop_assert_eq!(&out, &run_iterative(cost, &bids));
        }

        /// The batch update is exactly a sequence of single updates
        /// (over distinct users), whatever the solver already holds.
        #[test]
        fn batch_update_equals_single_updates(
            cost in 1i64..400,
            initial in proptest::collection::vec((0u32..12, 0i64..200), 0..12),
            commits in proptest::collection::vec(0u32..12, 0..4),
            batch in proptest::collection::btree_map(0u32..12, 0i64..200, 0..12),
        ) {
            let cost = Money::from_cents(cost);
            let mut batched = Solver::new(cost).unwrap();
            for &(u, v) in &initial {
                batched.update_bid(UserId(u), Money::from_cents(v));
            }
            for &u in &commits {
                batched.commit(UserId(u));
            }
            let mut sequential = batched.clone();
            batched.update_bids(
                batch.iter().map(|(&u, &v)| (UserId(u), Money::from_cents(v))),
            );
            for (&u, &v) in &batch {
                sequential.update_bid(UserId(u), Money::from_cents(v));
            }
            prop_assert_eq!(&batched.values, &sequential.values);
            prop_assert_eq!(&batched.lanes, &sequential.lanes);
            prop_assert_eq!(&batched.users, &sequential.users);
            prop_assert_eq!(&batched.states, &sequential.states);
            prop_assert_eq!(batched.committed_len, sequential.committed_len);
            prop_assert_eq!(batched.off_grid, sequential.off_grid);
        }

        /// The batch sort keys on `(lane, user)` when every fresh value
        /// is on the micro grid and on `(Money, user)` otherwise; both
        /// must leave every column exactly as one-at-a-time updates do.
        /// Batches are all on-grid (tied values, zero bids, one lane
        /// shared by many users) or mixed with off-grid values, over
        /// solvers that may already hold off-grid bids.
        #[test]
        fn lane_keyed_batch_sort_equals_single_updates(
            cost in 1i64..400,
            initial in proptest::collection::vec((0u32..40, arb_mixed_value()), 0..24),
            commits in proptest::collection::vec(0u32..40, 0..4),
            batch in prop_oneof![
                proptest::collection::btree_map(0u32..40, arb_on_grid_value(), 0..32),
                proptest::collection::btree_map(0u32..40, arb_mixed_value(), 0..32),
            ],
        ) {
            let mut batched = Solver::new(Money::from_cents(cost)).unwrap();
            for &(u, v) in &initial {
                batched.update_bid(UserId(u), v);
            }
            for &u in &commits {
                batched.commit(UserId(u));
            }
            let mut sequential = batched.clone();
            batched.update_bids(batch.iter().map(|(&u, &v)| (UserId(u), v)));
            for (&u, &v) in &batch {
                sequential.update_bid(UserId(u), v);
            }
            prop_assert_eq!(&batched.values, &sequential.values);
            prop_assert_eq!(&batched.lanes, &sequential.lanes);
            prop_assert_eq!(&batched.users, &sequential.users);
            prop_assert_eq!(&batched.states, &sequential.states);
            prop_assert_eq!(batched.committed_len, sequential.committed_len);
            prop_assert_eq!(batched.off_grid, sequential.off_grid);
        }

        /// Under arbitrary update/commit/remove/commit-top
        /// interleavings, the solver always agrees with a from-scratch
        /// `run` (and therefore `run_iterative`) on the equivalent bid
        /// map — including between mutations.
        #[test]
        fn solver_matches_rebuild_under_interleavings(
            cost in 1i64..400,
            ops in arb_solver_ops(),
        ) {
            let cost = Money::from_cents(cost);
            let mut solver = Solver::new(cost).unwrap();
            let mut model: BTreeMap<UserId, ShapleyBid> = BTreeMap::new();
            for op in ops.clone() {
                match op {
                    SolverOp::Update(u, v) => {
                        let user = UserId(u);
                        let value = Money::from_cents(v);
                        solver.update_bid(user, value);
                        // Committed users ignore updates, like the map
                        // the online mechanisms would feed `run`.
                        if model.get(&user) != Some(&ShapleyBid::Committed) {
                            model.insert(user, ShapleyBid::Value(value));
                        }
                    }
                    SolverOp::Commit(u) => {
                        solver.commit(UserId(u));
                        model.insert(UserId(u), ShapleyBid::Committed);
                    }
                    SolverOp::Remove(u) => {
                        let user = UserId(u);
                        if model.get(&user) == Some(&ShapleyBid::Committed) {
                            continue; // removal of committed users is forbidden
                        }
                        prop_assert_eq!(solver.remove(user), model.remove(&user).is_some());
                    }
                    SolverOp::SolveAndCommitTop => {
                        let sol = solver.solve();
                        let newly: Vec<UserId> =
                            solver.serviced_finite(&sol).to_vec();
                        solver.commit_top(sol.serviced_finite);
                        for u in newly {
                            model.insert(u, ShapleyBid::Committed);
                        }
                    }
                }
                let expected = run(cost, &model);
                prop_assert_eq!(solver.outcome(&solver.solve()), expected);
                prop_assert_eq!(
                    solver.committed_count(),
                    model.values().filter(|b| matches!(b, ShapleyBid::Committed)).count()
                );
            }
        }

        /// The lane fast path survives off-grid values: bids that
        /// leave the micro grid (thirds, sevenths) force the per-entry
        /// exact fallback, and the outcome still matches `run` exactly.
        #[test]
        fn columnar_solver_handles_off_grid_bids(
            cost in 1i64..400,
            raw in proptest::collection::vec((0u32..12, 1i64..200, 1usize..8), 0..12),
        ) {
            let cost = Money::from_cents(cost);
            let mut solver = Solver::new(cost).unwrap();
            let mut model: BTreeMap<UserId, ShapleyBid> = BTreeMap::new();
            for (u, v, split) in raw {
                // split > 1 usually leaves every 10^-k grid.
                let value = Money::from_cents(v).split_among(split);
                solver.update_bid(UserId(u), value);
                model.insert(UserId(u), ShapleyBid::Value(value));
            }
            prop_assert_eq!(solver.outcome(&solver.solve()), run(cost, &model));
        }

        /// Cost recovery: serviced users pay exactly C_j in total.
        #[test]
        fn exact_cost_recovery((cost, bids) in arb_game()) {
            let out = run(cost, &bids);
            if out.is_implemented() {
                prop_assert_eq!(out.total_collected(), cost);
            }
        }

        /// Every serviced finite bidder can afford the share; committed
        /// users are always serviced.
        #[test]
        fn serviced_users_afford_share((cost, bids) in arb_game()) {
            let out = run(cost, &bids);
            for (&u, &b) in &bids {
                match b {
                    ShapleyBid::Committed => prop_assert!(out.serviced.contains(&u)),
                    ShapleyBid::Value(v) => {
                        if out.serviced.contains(&u) {
                            prop_assert!(v >= out.share);
                        }
                    }
                }
            }
        }

        /// Maximality: no unserviced finite bidder could afford joining
        /// (their bid is below the share the bigger set would pay).
        #[test]
        fn dropped_users_cannot_afford_to_join((cost, bids) in arb_game()) {
            let out = run(cost, &bids);
            let n = out.serviced.len();
            for (&u, &b) in &bids {
                if let ShapleyBid::Value(v) = b {
                    if !out.serviced.contains(&u) {
                        prop_assert!(v < cost.split_among(n + 1));
                    }
                }
            }
        }

        /// Cross-monotonicity of the Shapley cost shares: adding one
        /// more bidder never increases anyone's share and never shrinks
        /// the serviced set. (This is the Moulin-mechanism property that
        /// powers group-strategyproofness.)
        #[test]
        fn cross_monotone((cost, bids) in arb_game(), extra in 0i64..200) {
            let before = run(cost, &bids);
            let mut bigger = bids.clone();
            bigger.insert(UserId(1000), ShapleyBid::Value(Money::from_cents(extra)));
            let after = run(cost, &bigger);
            if before.is_implemented() {
                prop_assert!(after.is_implemented());
                prop_assert!(after.share <= before.share);
                prop_assert!(after.serviced.is_superset(&before.serviced));
            }
        }

        /// Truthfulness of Mechanism 1 (the §4.1 argument, checked
        /// empirically): no unilateral finite deviation beats bidding
        /// the true value.
        #[test]
        fn unilateral_deviations_never_help(
            (cost, bids) in arb_game(),
            deviation in 0i64..400,
        ) {
            // Treat each finite bid as the user's true value.
            for (&u, &b) in &bids {
                let ShapleyBid::Value(truth) = b else { continue };
                let honest = run(cost, &bids);
                let honest_utility = if honest.serviced.contains(&u) {
                    truth - honest.share
                } else {
                    Money::ZERO
                };
                let mut lied = bids.clone();
                lied.insert(u, ShapleyBid::Value(Money::from_cents(deviation)));
                let out = run(cost, &lied);
                let lied_utility = if out.serviced.contains(&u) {
                    truth - out.share
                } else {
                    Money::ZERO
                };
                prop_assert!(
                    lied_utility <= honest_utility,
                    "user {} gains by bidding {} instead of {}",
                    u, deviation, truth
                );
            }
        }
    }
}
