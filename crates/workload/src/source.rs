//! The [`TraceSource`] registry: every workload the harnesses can run,
//! behind one trait.
//!
//! A *source* is a named, deterministic, seeded generator of [`Trace`]s
//! — the event streams the online mechanisms consume (arrivals, and
//! for churny shapes mid-game revisions). Registering a source here
//! lights it up everywhere at once:
//!
//! * `osp_bench::perf` measures every registered source under both
//!   Shapley engines and records it as a `workload` axis value in
//!   `BENCH_mechanisms.json`;
//! * the differential oracle harness (`osp_bench::differential` +
//!   `tests/differential.rs`) replays every registered source through
//!   the production and Rebuild engines slot by slot;
//! * `osp_bench::server_load` turns sources into wire-protocol traces
//!   for the sharded server;
//! * `osp workloads` and `bench_json --list-workloads` list them.
//!
//! Sources live in [`crate::shapes`] (synthetic §7-style shapes plus
//! the heavy-tailed / bursty / churn / adversarial extensions) and
//! [`crate::adapters`] (the paper's actual use cases: cloudsim
//! materialized-view sharing and the astronomy collaboration).
//!
//! # Contract
//!
//! Every source must guarantee, for all `(users, seed)`:
//!
//! * **Determinism** — identical `(users, seed)` produces a
//!   bit-identical trace (the proptest suite compares serde output);
//! * **Order** — arrivals are sorted by start slot (nondecreasing) and
//!   stay within the horizon; revisions are sorted by their apply slot;
//! * **Playability** — [`Trace::play`] accepts every scripted
//!   operation (no rejected submits or revisions);
//! * **Exactness** — when [`TraceSource::wire_safe`] is `true`, every
//!   sampled [`Money`] lies on the micro-dollar grid, so the value is
//!   decimal-exact and survives the server's wire encoding.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use osp_core::prelude::*;

use crate::scenario::{AdditiveScenario, SubstScenario};

/// An upward bid revision applied mid-game (additive games only).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Revision {
    /// The slot during which the revision arrives: it is applied after
    /// that slot's arrivals and before its pricing round.
    pub at: SlotId,
    /// The revising user (must have arrived earlier in the trace).
    pub user: UserId,
    /// First revised slot (`≥ at`, or the mechanism rejects it).
    pub from: SlotId,
    /// Replacement per-slot values from `from` onward.
    pub values: Vec<Money>,
}

/// A generated workload trace: a scenario plus (for churny shapes) the
/// mid-game revisions, i.e. exactly the event stream the online state
/// machines consume.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Trace {
    /// A single-optimization additive game (AddOn / Regret shapes).
    Additive {
        /// The sampled game (arrivals sorted by start slot).
        scenario: AdditiveScenario,
        /// Mid-game upward revisions, sorted by [`Revision::at`].
        revisions: Vec<Revision>,
    },
    /// A multi-optimization substitutable game (SubstOn shapes).
    Subst {
        /// The sampled game (arrivals sorted by start slot).
        scenario: SubstScenario,
    },
}

/// The outcome of playing a trace to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Outcome of an additive trace.
    Additive(AddOnOutcome),
    /// Outcome of a substitutable trace.
    Subst(SubstOnOutcome),
}

impl Trace {
    /// The game horizon `z`.
    #[must_use]
    pub fn horizon(&self) -> u32 {
        match self {
            Trace::Additive { scenario, .. } => scenario.horizon,
            Trace::Subst { scenario } => scenario.horizon,
        }
    }

    /// Number of arriving users.
    #[must_use]
    pub fn num_users(&self) -> usize {
        match self {
            Trace::Additive { scenario, .. } => scenario.users.len(),
            Trace::Subst { scenario } => scenario.users.len(),
        }
    }

    /// The mechanism that prices this trace, as recorded in the perf
    /// record's `mechanism` column.
    #[must_use]
    pub fn mechanism(&self) -> &'static str {
        match self {
            Trace::Additive { .. } => "addon",
            Trace::Subst { .. } => "subston",
        }
    }

    /// Plays the trace through the online state machine under the
    /// given engine: arrivals are submitted at their start slot,
    /// revisions applied at their [`Revision::at`] slot, and every slot
    /// is priced in order. Errors if the mechanism rejects any scripted
    /// operation — registered sources must produce fully-accepted
    /// scripts.
    pub fn play(&self, engine: Engine, tiebreak: TieBreak) -> Result<TraceOutcome> {
        match self {
            Trace::Additive {
                scenario,
                revisions,
            } => {
                let mut state = AddOnState::with_engine(scenario.cost, scenario.horizon, engine)?;
                let mut arrivals = scenario.users.iter().peekable();
                let mut revs = revisions.iter().peekable();
                for now in 1..=scenario.horizon {
                    while let Some((user, series)) =
                        arrivals.next_if(|(_, s)| s.start().index() <= now)
                    {
                        state.submit(OnlineBid::new(*user, series.clone()))?;
                    }
                    while let Some(rev) = revs.next_if(|r| r.at.index() <= now) {
                        state.revise(rev.user, rev.from, rev.values.clone())?;
                    }
                    // Replay reads only the final outcome, so skip the
                    // per-slot report (its `active` set is O(|CS|)).
                    state.advance_quiet()?;
                }
                Ok(TraceOutcome::Additive(state.finish()?))
            }
            Trace::Subst { scenario } => {
                let mut state = SubstOnState::with_engine(
                    scenario.costs.clone(),
                    scenario.horizon,
                    tiebreak,
                    engine,
                )?;
                let mut arrivals = scenario.users.iter().peekable();
                for now in 1..=scenario.horizon {
                    while let Some(spec) = arrivals.next_if(|u| u.series.start().index() <= now) {
                        state.submit(SubstOnlineBid {
                            user: spec.user,
                            substitutes: spec.substitutes.iter().copied().collect(),
                            series: spec.series.clone(),
                        })?;
                    }
                    state.advance()?;
                }
                Ok(TraceOutcome::Subst(state.finish()?))
            }
        }
    }
}

/// A named, deterministic workload generator. See the module docs for
/// the contract every implementation must uphold.
pub trait TraceSource: Sync {
    /// Registry name, used as the `workload` axis value in
    /// `BENCH_mechanisms.json` (stable across PRs: renaming one orphans
    /// its perf history).
    fn name(&self) -> &'static str;

    /// One-line description shown by `osp workloads` and
    /// `bench_json --list-workloads`.
    fn description(&self) -> &'static str;

    /// `true` when the source samples substitutable games.
    fn substitutable(&self) -> bool {
        false
    }

    /// `true` when every sampled [`Money`] is decimal-exact (micro
    /// grid), so traces survive the server's wire encoding.
    fn wire_safe(&self) -> bool {
        true
    }

    /// Samples one trace with `users` bidders. Identical `(users,
    /// seed)` must produce a bit-identical trace.
    fn sample(&self, users: u32, seed: u64) -> Trace;

    /// The user counts the perf suite measures for this source.
    fn perf_sizes(&self, quick: bool) -> Vec<u32> {
        if quick {
            vec![1_000]
        } else {
            vec![1_000, 10_000]
        }
    }

    /// Largest size measured under the Rebuild engine (sources whose
    /// rebuild runs are pointlessly slow cap it below
    /// [`TraceSource::perf_sizes`]).
    fn rebuild_cap(&self, _quick: bool) -> u32 {
        u32::MAX
    }

    /// `true` when the perf suite should also measure the Regret
    /// baseline on this source (additive sources only).
    fn bench_regret(&self) -> bool {
        false
    }
}

/// Every registered source, in listing order. Adding a workload means
/// implementing [`TraceSource`] and appending one line here — perf,
/// differential, server-load, and CLI discovery pick it up from this
/// single list.
pub fn registry() -> &'static [&'static dyn TraceSource] {
    static REGISTRY: OnceLock<Vec<&'static dyn TraceSource>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        vec![
            &crate::shapes::Uniform,
            &crate::shapes::LongLived,
            &crate::shapes::Subst12,
            &crate::shapes::ZipfValues,
            &crate::shapes::BurstyDiurnal,
            &crate::shapes::ChurnWaves,
            &crate::shapes::FreeRiders,
            &crate::shapes::PayOneContention,
            &crate::adapters::CloudSimViews,
            &crate::adapters::AstroQuarters,
        ]
    })
}

/// Looks a source up by its registry name.
#[must_use]
pub fn find(name: &str) -> Option<&'static dyn TraceSource> {
    registry().iter().copied().find(|s| s.name() == name)
}

/// Sorts an additive scenario's arrivals by (start slot, user) and the
/// revisions by apply slot — the ordering [`Trace::play`] and the wire
/// builders rely on.
#[must_use]
pub fn normalize_additive(mut scenario: AdditiveScenario, mut revisions: Vec<Revision>) -> Trace {
    scenario
        .users
        .sort_by_key(|(user, series)| (series.start(), *user));
    revisions.sort_by_key(|r| (r.at, r.user));
    Trace::Additive {
        scenario,
        revisions,
    }
}

/// Sorts a substitutable scenario's arrivals by (start slot, user).
#[must_use]
pub fn normalize_subst(mut scenario: SubstScenario) -> Trace {
    scenario.users.sort_by_key(|u| (u.series.start(), u.user));
    Trace::Subst { scenario }
}

/// Floors a money amount onto the micro-dollar grid (exact integer
/// arithmetic on the underlying rational). Adapters whose pipelines
/// produce arbitrary rationals quantize through this so their traces
/// satisfy the wire-safety contract.
#[must_use]
pub fn to_micro_grid(m: Money) -> Money {
    let r = m.as_ratio();
    debug_assert!(!r.is_negative(), "workload values are non-negative");
    let micros = r.numer() * 1_000_000 / r.denom();
    Money::from_micros(i64::try_from(micros).expect("workload values fit in i64 micros"))
}

/// `true` iff the amount lies exactly on the micro-dollar grid.
#[must_use]
pub fn on_micro_grid(m: Money) -> bool {
    1_000_000 % m.as_ratio().denom() == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        let names: Vec<&str> = registry().iter().map(|s| s.name()).collect();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "duplicate names: {names:?}");
        for source in registry() {
            assert!(!source.description().is_empty(), "{}", source.name());
            assert!(find(source.name()).is_some());
            assert!(
                !source.perf_sizes(true).is_empty() && !source.perf_sizes(false).is_empty(),
                "{} has no perf sizes",
                source.name()
            );
        }
        assert!(find("no_such_workload").is_none());
    }

    #[test]
    fn registry_covers_both_mechanisms_and_the_use_cases() {
        assert!(registry().len() >= 10);
        assert!(registry().iter().any(|s| s.substitutable()));
        assert!(registry().iter().any(|s| !s.substitutable()));
        assert!(find("cloudsim_views_z12").is_some(), "cloudsim adapter");
        assert!(find("astro_quarters_z4").is_some(), "astro adapter");
        assert!(find("payone_contention").is_some(), "PAPERS.md shape");
    }

    #[test]
    fn micro_grid_predicates_agree() {
        let on = Money::from_micros(123_457);
        assert!(on_micro_grid(on));
        assert_eq!(to_micro_grid(on), on);
        let off = Money::from_ratio(Ratio::new(1, 3));
        assert!(!on_micro_grid(off));
        assert_eq!(to_micro_grid(off), Money::from_micros(333_333));
    }

    #[test]
    fn play_rejects_nothing_on_every_registered_source() {
        for source in registry() {
            let trace = source.sample(12, 7);
            for engine in [Engine::Incremental, Engine::Rebuild] {
                trace
                    .play(engine, TieBreak::LowestOptId)
                    .unwrap_or_else(|e| panic!("{}: {e}", source.name()));
            }
        }
    }
}
