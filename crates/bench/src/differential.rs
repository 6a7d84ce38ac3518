//! Differential oracle harness for the online mechanisms.
//!
//! Every fast path added to [`osp_core::addon`] / [`osp_core::subston`]
//! (the persistent Shapley solver, running residuals, the batched
//! multi-opt phase loop, the i64 lane scan, the large-slot pre-sorted
//! splice) diverges further from the paper-literal code, and unit
//! tests only guard the divergences someone thought of. This module is
//! the systematic guard: it generates randomized *long-horizon* games —
//! arrive/revise/expire/reject interleavings, 1–16 optimizations,
//! adversarial bid series (zero-value tails, zero-head spikes,
//! long-lived constants) — and drives each game through the production
//! engine and the [`Engine::Rebuild`] oracle simultaneously, slot by
//! slot (AddOn games also run two production states with the splice
//! pinned on for every slot, so the pre-sorted splice runs on these
//! small, mostly on-grid games both through the two-thread
//! ingest/price handoff and in order on the caller):
//!
//! * every client operation (submit / revise) must succeed on every
//!   engine or fail on every engine with the *same* typed error;
//! * every slot's report — grants, share (price), exit payments — must
//!   be identical;
//! * the final outcomes and their ledger totals must be identical.
//!
//! A mismatch returns `Err(description)` rather than panicking, so
//! callers (the `tests/differential.rs` proptest wrapper, which runs
//! ≥ 256 games per mechanism, and the nightly `proptest-deep` CI job)
//! can report the offending seed. New fast paths get locked down by
//! construction: if any optimized engine and the rebuild oracle ever
//! disagree on any reachable interleaving, this harness is the test
//! that fails.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use osp_core::prelude::*;
use osp_workload::source::Trace;

/// The lockstep roster, as `(label, engine, splice gate override,
/// sequential splice)`: the production engine on its default policy,
/// the paper-literal rebuild oracle, and — AddOn only — the production
/// engine with its splice gate pinned to zero, so on-grid games and
/// games far below the fork threshold still take the pre-sorted splice
/// every slot, once through the two-thread handoff and once pricing
/// then ingesting on the caller. SubstOn games run the first two.
pub const ROSTER: [(&str, Engine, Option<usize>, bool); 4] = [
    ("production", Engine::Incremental, None, false),
    ("rebuild", Engine::Rebuild, None, false),
    ("production-forced", Engine::Incremental, Some(0), false),
    ("production-sequential", Engine::Incremental, Some(0), true),
];

/// The SubstOn roster: the production and rebuild entries of
/// [`ROSTER`].
const SUBSTON_LANES: usize = 2;

/// One AddOn state per [`ROSTER`] entry.
fn addon_states(cost: Money, horizon: u32) -> Result<Vec<AddOnState>, String> {
    ROSTER
        .iter()
        .map(|&(_, engine, fork_min, sequential)| {
            let mut state = AddOnState::with_engine(cost, horizon, engine)?;
            state.set_fork_min(fork_min);
            state.set_sequential_splice(sequential);
            Ok(state)
        })
        .collect::<Result<Vec<_>, MechanismError>>()
        .map_err(|e| format!("constructor failed: {e}"))
}

/// One SubstOn state per SubstOn roster entry.
fn subston_states(
    costs: &[Money],
    horizon: u32,
    tiebreak: TieBreak,
) -> Result<Vec<SubstOnState>, String> {
    ROSTER[..SUBSTON_LANES]
        .iter()
        .map(|&(_, engine, _, _)| {
            SubstOnState::with_engine(costs.to_vec(), horizon, tiebreak, engine)
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("constructor failed: {e}"))
}

/// `Err` describing the first divergence when the per-lane `results`
/// (indexed like [`ROSTER`]) are not all identical.
fn check_agree<T: PartialEq + std::fmt::Debug>(
    context: &str,
    slot: u32,
    results: &[T],
) -> Result<(), String> {
    for (i, r) in results.iter().enumerate().skip(1) {
        if *r != results[0] {
            return Err(format!(
                "engines diverged at slot {slot} on {context}:\n  {}: {:?}\n  {}: {:?}",
                ROSTER[0].0, results[0], ROSTER[i].0, r
            ));
        }
    }
    Ok(())
}

/// How many operations of each kind a differential run executed —
/// returned so tests can assert the generator actually exercises the
/// interleavings it promises (rejections included).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpMix {
    /// Accepted bid submissions.
    pub submits: u32,
    /// Accepted revisions (AddOn only).
    pub revises: u32,
    /// Revisions applied to a user whose bid had already expired
    /// (resurrections — the shape PR 4's review fix showed is easy to
    /// get wrong).
    pub resurrections: u32,
    /// Operations rejected (identically, on every engine).
    pub rejections: u32,
    /// Bid series submitted with a zero-value tail.
    pub zero_tails: u32,
}

/// Parameters of one randomized AddOn differential game.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddOnDiffConfig {
    /// Seed of the whole game script.
    pub seed: u64,
    /// Horizon `z` (long-horizon: the defaults in the tests use
    /// 20..=48).
    pub horizon: u32,
    /// Upper bound on the number of users submitted over the game.
    pub max_users: u32,
    /// Optimization cost in cents.
    pub cost_cents: i64,
}

/// Parameters of one randomized SubstOn differential game.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubstOnDiffConfig {
    /// Seed of the whole game script.
    pub seed: u64,
    /// Horizon `z`.
    pub horizon: u32,
    /// Upper bound on the number of users submitted over the game.
    pub max_users: u32,
    /// Number of optimizations (1–16).
    pub num_opts: u32,
    /// Mean optimization cost in cents.
    pub mean_cost_cents: i64,
    /// Tie-break policy (every engine must consume the RNG
    /// identically).
    pub tiebreak: TieBreak,
}

/// An adversarial per-slot value series of length `len`:
/// constant / zero tail / zero-head spike / fully random. Returns the
/// values and whether they end in a zero tail.
fn adversarial_values(rng: &mut StdRng, len: usize, max_cents: i64) -> (Vec<Money>, bool) {
    let shape = rng.gen_range(0..4u8);
    let v = rng.gen_range(0..=max_cents);
    let values: Vec<Money> = match shape {
        // Constant (the long-lived-bid hot path).
        0 => vec![Money::from_cents(v); len],
        // Zero tail: positive head, zeros to expiry — the residual
        // hits zero while the bid is still live.
        1 => (0..len)
            .map(|k| {
                if k < len.div_ceil(2) {
                    Money::from_cents(v)
                } else {
                    Money::ZERO
                }
            })
            .collect(),
        // Zero head + late spike: the user is worthless until almost
        // the end (exercises zero bids that later rise via residuals).
        2 => (0..len)
            .map(|k| {
                if k == len - 1 {
                    Money::from_cents(v)
                } else {
                    Money::ZERO
                }
            })
            .collect(),
        // Arbitrary, zero-inclusive.
        _ => (0..len)
            .map(|_| Money::from_cents(rng.gen_range(0..=max_cents)))
            .collect(),
    };
    let zero_tail = values.last() == Some(&Money::ZERO);
    (values, zero_tail)
}

/// Runs one randomized AddOn game through every engine. Returns the
/// (identical) outcome and the operation mix, or a description of the
/// first divergence.
pub fn addon_differential(cfg: &AddOnDiffConfig) -> Result<(AddOnOutcome, OpMix), String> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let cost = Money::from_cents(cfg.cost_cents.max(1));
    let mut states = addon_states(cost, cfg.horizon)?;

    let mut mix = OpMix::default();
    let mut next_user = 0u32;
    // Users we have submitted, with their start slot and current end
    // slot (the end is tracked so revisions can deliberately target —
    // and correctly detect — expired users).
    let mut known: Vec<(UserId, u32, u32)> = Vec::new();

    for now in 1..=cfg.horizon {
        // A burst of arrivals: bids starting now or in the near future.
        let arrivals = rng
            .gen_range(0..=3u32)
            .min(cfg.max_users - next_user.min(cfg.max_users));
        for _ in 0..arrivals {
            let user = UserId(next_user);
            next_user += 1;
            let start = rng.gen_range(now..=(now + 3).min(cfg.horizon));
            let max_len = (cfg.horizon - start + 1) as usize;
            let len = rng.gen_range(1..=max_len.min(12));
            let (values, zero_tail) = adversarial_values(&mut rng, len, cfg.cost_cents);
            let series = SlotSeries::new(SlotId(start), values).expect("non-empty, non-negative");
            let end = series.end().index();
            let results: Vec<_> = states
                .iter_mut()
                .map(|s| s.submit(OnlineBid::new(user, series.clone())))
                .collect();
            check_agree("submit", now, &results)?;
            match results[0] {
                Ok(()) => {
                    known.push((user, start, end));
                    mix.submits += 1;
                    mix.zero_tails += u32::from(zero_tail);
                }
                Err(_) => mix.rejections += 1,
            }
        }
        // Deliberate protocol violations: every engine must reject
        // identically (duplicate user / retroactive bid).
        if now > 1 && rng.gen_bool(0.25) {
            let bad = if rng.gen_bool(0.5) && !known.is_empty() {
                // Duplicate user.
                let (user, _, _) = known[rng.gen_range(0..known.len())];
                OnlineBid::new(
                    user,
                    SlotSeries::single(SlotId(now), Money::from_cents(1)).unwrap(),
                )
            } else {
                // Retroactive bid.
                let user = UserId(next_user + 10_000);
                OnlineBid::new(
                    user,
                    SlotSeries::single(SlotId(now - 1), Money::from_cents(1)).unwrap(),
                )
            };
            let results: Vec<_> = states.iter_mut().map(|s| s.submit(bad.clone())).collect();
            check_agree("rejected submit", now, &results)?;
            if results[0].is_err() {
                mix.rejections += 1;
            }
        }
        // Revisions: upward rewrites of a known user's future values,
        // sometimes extending past her old end (the resurrection path
        // when she already expired), sometimes illegal (downward /
        // retroactive / beyond-horizon) and rejected by every engine.
        let revisions = rng.gen_range(0..=2u32);
        for _ in 0..revisions {
            if known.is_empty() {
                break;
            }
            let pick = rng.gen_range(0..known.len());
            let (user, start, old_end) = known[pick];
            let from = rng.gen_range(now.saturating_sub(1).max(1)..=(now + 2).min(cfg.horizon));
            let max_len = (cfg.horizon - from + 1) as usize;
            let len = rng.gen_range(1..=max_len.min(12));
            // Mostly-legal values: high enough to clear the upward
            // constraint; sometimes deliberately downward (zero).
            let values: Vec<Money> = if rng.gen_bool(0.2) {
                vec![Money::ZERO; len]
            } else {
                (0..len)
                    .map(|_| Money::from_cents(rng.gen_range(cfg.cost_cents..=2 * cfg.cost_cents)))
                    .collect()
            };
            let expired = old_end < now;
            let results: Vec<_> = states
                .iter_mut()
                .map(|s| s.revise(user, SlotId(from), values.clone()))
                .collect();
            check_agree("revise", now, &results)?;
            match results[0] {
                Ok(()) => {
                    // `revise` clamps `from` to the series start, so
                    // the true new end is from_idx + len - 1 (the
                    // mechanism rejects anything shorter than old_end).
                    let from_idx = from.max(start);
                    known[pick].2 = from_idx + u32::try_from(len).unwrap() - 1;
                    mix.revises += 1;
                    mix.resurrections += u32::from(expired);
                }
                Err(_) => mix.rejections += 1,
            }
        }

        // The slot itself: grants, share, and exit payments must agree.
        let reports: Vec<_> = states.iter_mut().map(AddOnState::advance).collect();
        check_agree("slot report", now, &reports)?;
        reports
            .into_iter()
            .next()
            .unwrap()
            .map_err(|e| format!("advance failed at slot {now}: {e}"))?;
    }

    let outcomes = states
        .into_iter()
        .map(AddOnState::finish)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("finish failed: {e}"))?;
    check_agree("final outcome", cfg.horizon, &outcomes)?;
    let totals: Vec<Money> = outcomes.iter().map(AddOnOutcome::total_payments).collect();
    check_agree("total payments", cfg.horizon, &totals)?;
    let out = outcomes.into_iter().next().unwrap();
    audit::check_addon_outcome(&out).map_err(|e| format!("audit failed: {e}"))?;
    Ok((out, mix))
}

/// Runs one randomized SubstOn game through every engine. Returns the
/// (identical) outcome and the operation mix, or a description of the
/// first divergence.
pub fn subston_differential(cfg: &SubstOnDiffConfig) -> Result<(SubstOnOutcome, OpMix), String> {
    assert!(
        (1..=16).contains(&cfg.num_opts),
        "num_opts must be in 1..=16"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let costs: Vec<Money> = (0..cfg.num_opts)
        .map(|_| Money::from_cents(rng.gen_range(1..=2 * cfg.mean_cost_cents)))
        .collect();
    let mut states = subston_states(&costs, cfg.horizon, cfg.tiebreak)?;

    let mut mix = OpMix::default();
    let mut next_user = 0u32;
    let mut known: Vec<UserId> = Vec::new();

    for now in 1..=cfg.horizon {
        let arrivals = rng
            .gen_range(0..=3u32)
            .min(cfg.max_users - next_user.min(cfg.max_users));
        for _ in 0..arrivals {
            let user = UserId(next_user);
            next_user += 1;
            let start = rng.gen_range(now..=(now + 3).min(cfg.horizon));
            let max_len = (cfg.horizon - start + 1) as usize;
            let len = rng.gen_range(1..=max_len.min(12));
            let (values, zero_tail) = adversarial_values(&mut rng, len, cfg.mean_cost_cents);
            let series = SlotSeries::new(SlotId(start), values).expect("non-empty, non-negative");
            // At least one substitute, plus a random subset.
            let guaranteed = OptId(rng.gen_range(0..cfg.num_opts));
            let subs: std::collections::BTreeSet<OptId> = (0..cfg.num_opts)
                .filter(|_| rng.gen_bool(0.4))
                .map(OptId)
                .chain([guaranteed])
                .collect();
            let bid = SubstOnlineBid {
                user,
                substitutes: subs,
                series,
            };
            let results: Vec<_> = states.iter_mut().map(|s| s.submit(bid.clone())).collect();
            check_agree("submit", now, &results)?;
            match results[0] {
                Ok(()) => {
                    known.push(user);
                    mix.submits += 1;
                    mix.zero_tails += u32::from(zero_tail);
                }
                Err(_) => mix.rejections += 1,
            }
        }
        // Deliberate rejections: duplicate user / unknown optimization.
        if rng.gen_bool(0.25) && !known.is_empty() {
            let bad = SubstOnlineBid {
                user: known[rng.gen_range(0..known.len())],
                substitutes: [OptId(cfg.num_opts * u32::from(rng.gen_bool(0.5)))].into(),
                series: SlotSeries::single(SlotId(now), Money::from_cents(1)).unwrap(),
            };
            let results: Vec<_> = states.iter_mut().map(|s| s.submit(bad.clone())).collect();
            check_agree("rejected submit", now, &results)?;
            if results[0].is_err() {
                mix.rejections += 1;
            }
        }

        let reports: Vec<_> = states.iter_mut().map(SubstOnState::advance).collect();
        check_agree("slot report", now, &reports)?;
        reports
            .into_iter()
            .next()
            .unwrap()
            .map_err(|e| format!("advance failed at slot {now}: {e}"))?;
    }

    let outcomes = states
        .into_iter()
        .map(SubstOnState::finish)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("finish failed: {e}"))?;
    check_agree("final outcome", cfg.horizon, &outcomes)?;
    let ledgers: Vec<(Money, Money)> = outcomes
        .iter()
        .map(|o| {
            let l = o.to_ledger();
            (l.total_cost(), l.total_payments())
        })
        .collect();
    check_agree("ledger totals", cfg.horizon, &ledgers)?;
    let out = outcomes.into_iter().next().unwrap();
    audit::check_subston_outcome(&out).map_err(|e| format!("audit failed: {e}"))?;
    Ok((out, mix))
}

/// Replays one registered-workload trace through the whole roster
/// slot by slot — the registry-wide differential gate. Unlike the
/// randomized scripts above, the event stream comes verbatim from a
/// [`osp_workload::TraceSource`], so every registered workload (the
/// synthetic shapes *and* the cloudsim/astro adapters) gets oracle
/// coverage automatically — including the off-grid value shapes
/// (`longlived_z120`'s `split_evenly` values) that force the solver
/// onto its per-entry exact fallback. Scripted operations must
/// succeed on every engine (registered sources produce fully-accepted
/// traces); slot reports, outcomes, ledger totals, and the audit must
/// agree.
pub fn trace_differential(trace: &Trace, tiebreak: TieBreak) -> Result<(), String> {
    match trace {
        Trace::Additive {
            scenario,
            revisions,
        } => {
            let mut states = addon_states(scenario.cost, scenario.horizon)?;
            let mut arrivals = scenario.users.iter().peekable();
            let mut revs = revisions.iter().peekable();
            for now in 1..=scenario.horizon {
                while let Some((user, series)) = arrivals.next_if(|(_, s)| s.start().index() <= now)
                {
                    let results: Vec<_> = states
                        .iter_mut()
                        .map(|s| s.submit(OnlineBid::new(*user, series.clone())))
                        .collect();
                    check_agree("submit", now, &results)?;
                    results
                        .into_iter()
                        .next()
                        .unwrap()
                        .map_err(|e| format!("trace submit rejected at slot {now}: {e}"))?;
                }
                while let Some(rev) = revs.next_if(|r| r.at.index() <= now) {
                    let results: Vec<_> = states
                        .iter_mut()
                        .map(|s| s.revise(rev.user, rev.from, rev.values.clone()))
                        .collect();
                    check_agree("revise", now, &results)?;
                    results
                        .into_iter()
                        .next()
                        .unwrap()
                        .map_err(|e| format!("trace revise rejected at slot {now}: {e}"))?;
                }
                let reports: Vec<_> = states.iter_mut().map(AddOnState::advance).collect();
                check_agree("slot report", now, &reports)?;
                reports
                    .into_iter()
                    .next()
                    .unwrap()
                    .map_err(|e| format!("advance failed at slot {now}: {e}"))?;
            }
            let outcomes = states
                .into_iter()
                .map(AddOnState::finish)
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("finish failed: {e}"))?;
            check_agree("final outcome", scenario.horizon, &outcomes)?;
            let totals: Vec<Money> = outcomes.iter().map(AddOnOutcome::total_payments).collect();
            check_agree("total payments", scenario.horizon, &totals)?;
            audit::check_addon_outcome(&outcomes[0]).map_err(|e| format!("audit failed: {e}"))
        }
        Trace::Subst { scenario } => {
            let outcomes = subston_trace_lockstep(scenario, tiebreak)?;
            let ledgers: Vec<(Money, Money)> = outcomes
                .iter()
                .map(|o| {
                    let l = o.to_ledger();
                    (l.total_cost(), l.total_payments())
                })
                .collect();
            check_agree("ledger totals", scenario.horizon, &ledgers)?;
            audit::check_subston_outcome(&outcomes[0]).map_err(|e| format!("audit failed: {e}"))
        }
    }
}

/// Replays a SubstOn scenario through the SubstOn roster in lockstep:
/// every submit must be accepted, and every slot report and the final
/// outcome must agree. Returns the (identical) outcomes, one per
/// roster entry. Unlike [`trace_differential`] it sums no payments, so
/// it also takes games whose many distinct share denominators overflow
/// an exact `Money` total.
pub fn subston_trace_lockstep(
    scenario: &osp_workload::SubstScenario,
    tiebreak: TieBreak,
) -> Result<Vec<SubstOnOutcome>, String> {
    let mut states = subston_states(&scenario.costs, scenario.horizon, tiebreak)?;
    let mut arrivals = scenario.users.iter().peekable();
    for now in 1..=scenario.horizon {
        while let Some(spec) = arrivals.next_if(|u| u.series.start().index() <= now) {
            let bid = SubstOnlineBid {
                user: spec.user,
                substitutes: spec.substitutes.iter().copied().collect(),
                series: spec.series.clone(),
            };
            let results: Vec<_> = states.iter_mut().map(|s| s.submit(bid.clone())).collect();
            check_agree("submit", now, &results)?;
            results
                .into_iter()
                .next()
                .unwrap()
                .map_err(|e| format!("trace submit rejected at slot {now}: {e}"))?;
        }
        let reports: Vec<_> = states.iter_mut().map(SubstOnState::advance).collect();
        check_agree("slot report", now, &reports)?;
        reports
            .into_iter()
            .next()
            .unwrap()
            .map_err(|e| format!("advance failed at slot {now}: {e}"))?;
    }
    let outcomes = states
        .into_iter()
        .map(SubstOnState::finish)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("finish failed: {e}"))?;
    check_agree("final outcome", scenario.horizon, &outcomes)?;
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use osp_workload::source::registry;

    #[test]
    fn every_registered_workload_passes_a_16_game_differential_smoke() {
        // The PR-gate floor from the registry contract: ≥ 16 games per
        // registered source through the production engine vs rebuild
        // (the proptest wrapper in tests/differential.rs piles hundreds
        // more on top).
        for source in registry() {
            for seed in 0..16u64 {
                let users = 8 + (seed as u32 % 3) * 8;
                let trace = source.sample(users, seed);
                if let Err(divergence) = trace_differential(&trace, TieBreak::LowestOptId) {
                    panic!("{} (seed {seed}): {divergence}", source.name());
                }
            }
        }
    }

    #[test]
    fn addon_fixed_seeds_agree() {
        let mut mix = OpMix::default();
        for seed in 0..32 {
            let cfg = AddOnDiffConfig {
                seed,
                horizon: 24 + (seed as u32 % 3) * 8,
                max_users: 24,
                cost_cents: 200,
            };
            let (_, m) = addon_differential(&cfg).unwrap();
            mix.submits += m.submits;
            mix.revises += m.revises;
            mix.resurrections += m.resurrections;
            mix.rejections += m.rejections;
            mix.zero_tails += m.zero_tails;
        }
        // The generator must actually exercise every interleaving it
        // promises, across a batch of seeds.
        assert!(mix.submits > 100, "submits: {mix:?}");
        assert!(mix.revises > 20, "revises: {mix:?}");
        assert!(mix.resurrections > 0, "resurrections: {mix:?}");
        assert!(mix.rejections > 20, "rejections: {mix:?}");
        assert!(mix.zero_tails > 20, "zero tails: {mix:?}");
    }

    #[test]
    fn subston_fixed_seeds_agree_across_opt_counts_and_tiebreaks() {
        let mut mix = OpMix::default();
        for seed in 0..16 {
            for tiebreak in [TieBreak::LowestOptId, TieBreak::Random(seed)] {
                let cfg = SubstOnDiffConfig {
                    seed,
                    horizon: 20,
                    max_users: 20,
                    num_opts: 1 + (seed as u32 % 16),
                    mean_cost_cents: 150,
                    tiebreak,
                };
                let (_, m) = subston_differential(&cfg).unwrap();
                mix.submits += m.submits;
                mix.rejections += m.rejections;
                mix.zero_tails += m.zero_tails;
            }
        }
        assert!(mix.submits > 100, "submits: {mix:?}");
        assert!(mix.rejections > 10, "rejections: {mix:?}");
        assert!(mix.zero_tails > 10, "zero tails: {mix:?}");
    }
}
