//! The standing differential oracle: randomized long-horizon games
//! through the production engine (AddOn also with its splice gate
//! pinned to zero) and the Rebuild oracle must agree slot by slot on
//! grants, prices, payments, and final ledger totals.
//!
//! The game scripts live in [`osp_bench::differential`]; this wrapper
//! drives them under proptest. Each proptest case runs
//! [`GAMES_PER_CASE`] independently-seeded games, so the default 64
//! cases already cover 256 games per mechanism (the acceptance floor),
//! and the nightly `proptest-deep` CI job (`PROPTEST_CASES=2048`)
//! covers 8192.

use proptest::prelude::*;

use osp_bench::differential::{
    addon_differential, subston_differential, subston_trace_lockstep, trace_differential,
    AddOnDiffConfig, SubstOnDiffConfig,
};
use osp_core::prelude::{SlotId, SlotSeries, TieBreak};
use osp_workload::{SubstScenario, Trace};

/// Games per proptest case (see module docs).
const GAMES_PER_CASE: u64 = 4;

proptest! {
    /// AddOn: arrive/revise/expire/reject interleavings with
    /// adversarial bid series over horizons up to 48 slots.
    #[test]
    fn addon_engines_agree_on_random_long_horizon_games(
        seed in 0u64..1 << 48,
        horizon in 20u32..=48,
        max_users in 4u32..=32,
        cost_cents in 1i64..=400,
    ) {
        for game in 0..GAMES_PER_CASE {
            let cfg = AddOnDiffConfig {
                seed: seed.wrapping_mul(GAMES_PER_CASE).wrapping_add(game),
                horizon,
                max_users,
                cost_cents,
            };
            if let Err(divergence) = addon_differential(&cfg) {
                prop_assert!(false, "{divergence}\nconfig: {cfg:?}");
            }
        }
    }

    /// SubstOn: 1–16 coupled optimizations, both tie-break policies
    /// (the random one must consume its RNG identically on every
    /// engine).
    #[test]
    fn subston_engines_agree_on_random_multi_opt_games(
        seed in 0u64..1 << 48,
        horizon in 16u32..=32,
        max_users in 4u32..=24,
        num_opts in 1u32..=16,
        mean_cost_cents in 1i64..=300,
        tie_seed in 0u64..8,
    ) {
        // tie_seed 0 exercises the deterministic policy; the rest, the
        // seeded-random one.
        let tiebreak = match tie_seed {
            0 => TieBreak::LowestOptId,
            s => TieBreak::Random(s),
        };
        for game in 0..GAMES_PER_CASE {
            let cfg = SubstOnDiffConfig {
                seed: seed.wrapping_mul(GAMES_PER_CASE).wrapping_add(game),
                horizon,
                max_users,
                num_opts,
                mean_cost_cents,
                tiebreak,
            };
            if let Err(divergence) = subston_differential(&cfg) {
                prop_assert!(false, "{divergence}\nconfig: {cfg:?}");
            }
        }
    }

    /// Every registered workload source — synthetic shapes and the
    /// cloudsim/astro adapters alike — replays through the whole
    /// differential roster with identical results. One game per source per case: the
    /// default 64 cases give every source 64 games per run (PR-gate
    /// floor: 16), and the nightly deep job thousands.
    #[test]
    fn registered_workloads_agree_across_engines(
        users in 8u32..=48,
        seed in 0u64..1 << 48,
    ) {
        for source in osp_workload::registry() {
            let trace = source.sample(users, seed);
            if let Err(divergence) = trace_differential(&trace, TieBreak::LowestOptId) {
                prop_assert!(false, "{}: {divergence}", source.name());
            }
        }
    }
}

/// Arrival slots of [`crowded_subst12`]'s games (the horizon is one
/// longer, so the last crowd's two-slot bids still run out).
const CROWDED_ARRIVAL_SLOTS: u32 = 3;

/// A `subst12_z20` game (12 optimizations, overlapping 3-way substitute
/// sets, uniform micro-dollar values) of `users` users, with its 20
/// arrival slots folded onto [`CROWDED_ARRIVAL_SLOTS`], so that every
/// slot's phase loop grants and drops whole crowds. Every other user
/// bids her value for two slots instead of one, so pending bids carry
/// into the next slot and their residual updates are re-sorted there.
fn crowded_subst12(users: u32, seed: u64) -> SubstScenario {
    let Trace::Subst { mut scenario } = osp_workload::find("subst12_z20")
        .expect("registered source")
        .sample(users, seed)
    else {
        unreachable!("subst12_z20 is a SubstOn source")
    };
    scenario.horizon = CROWDED_ARRIVAL_SLOTS + 1;
    for spec in &mut scenario.users {
        let start = SlotId((spec.series.start().index() - 1) % CROWDED_ARRIVAL_SLOTS + 1);
        let value = spec.series.value_at(spec.series.start());
        let end = SlotId(start.index() + spec.user.0 % 2);
        spec.series = SlotSeries::constant(start, end, value).expect("valid span");
    }
    scenario.users.sort_by_key(|u| (u.series.start(), u.user));
    scenario
}

/// SubstOn slots with 1000+ arrivals: the phase loop's per-phase
/// batched grant removals and the lane-keyed batch sort run on crowds
/// the size of the benchmark's 10⁵-user game, and production must
/// still match the Rebuild oracle slot by slot under both tie-break
/// policies. (The lockstep sums no payments: these games' many
/// distinct share denominators overflow an exact `Money` total.)
#[test]
fn subston_engines_agree_on_crowded_slots() {
    for seed in 0..3u64 {
        let scenario = crowded_subst12(3_900, seed);
        for slot in 1..=CROWDED_ARRIVAL_SLOTS {
            let arrivals = scenario
                .users
                .iter()
                .filter(|u| u.series.start() == SlotId(slot))
                .count();
            assert!(
                arrivals >= 1_000,
                "seed {seed}: slot {slot} has {arrivals} arrivals"
            );
        }
        for tiebreak in [TieBreak::LowestOptId, TieBreak::Random(seed + 1)] {
            if let Err(divergence) = subston_trace_lockstep(&scenario, tiebreak) {
                panic!("seed {seed}, {tiebreak:?}: {divergence}");
            }
        }
    }
}
