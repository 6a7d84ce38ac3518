//! Synthetic trace sources: the §7 perf shapes the harnesses always
//! ran, plus the scenario-diversity shapes the uniform and long-lived
//! workloads miss — heavy-tailed (Zipf/Pareto) valuations, bursty
//! diurnal arrivals, churn waves of mass revisions and expiries,
//! adversarial free-riders driven by [`osp_core::strategy`], and the
//! "Pay One, Get Hundreds for Free" contention shape where hundreds of
//! users pile onto one optimization.
//!
//! Every type here is a unit struct implementing
//! [`crate::source::TraceSource`]; the instances are wired into
//! [`crate::source::registry`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use osp_core::prelude::*;
use osp_core::strategy::{self, Strategy};

use crate::arrivals::ArrivalProcess;
use crate::gen::{self, AdditiveConfig, SubstConfig};
use crate::scenario::{AdditiveScenario, SubstScenario, SubstUserSpec};
use crate::source::{normalize_additive, normalize_subst, Revision, Trace, TraceSource};

/// The horizon `z` of the uniform, substitutable, Zipf, and free-rider
/// shapes.
pub const SLOTS: u32 = 20;

/// Arrival window of the long-lived shape: starts in `1..=12`.
pub const LONG_ARRIVAL_WINDOW: u32 = 12;

/// Bid duration of the long-lived shape, chosen so the effective
/// horizon is [`LONG_SLOTS`] (z ≥ 100: the regime the running-residual
/// tracker targets).
pub const LONG_DURATION: u32 = 109;

/// Effective horizon of the long-lived shape.
pub const LONG_SLOTS: u32 = LONG_ARRIVAL_WINDOW + LONG_DURATION - 1;

/// The original AddOn stress: single-slot `U[0, $1)` bids uniformly
/// over a 20-slot horizon (arrival/commit churn).
pub struct Uniform;

impl TraceSource for Uniform {
    fn name(&self) -> &'static str {
        "uniform_z20"
    }

    fn description(&self) -> &'static str {
        "§7.3 uniform arrivals, single-slot U[0,$1) bids, z=20 (the original AddOn stress)"
    }

    fn sample(&self, users: u32, seed: u64) -> Trace {
        let cfg = AdditiveConfig {
            num_users: users,
            horizon: SLOTS,
            arrivals: ArrivalProcess::Uniform,
            duration: 1,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let scenario = gen::additive_scenario(&cfg, Money::from_cents(60), &mut rng);
        normalize_additive(scenario, Vec::new())
    }

    // Quick mode stops at 10³: at CI's 0.15 s amortization window the
    // 10⁴ point swings ±25% run-to-run, which is noise for the
    // `--check` gate, not signal. The full record keeps 10⁴ and the
    // 10⁵ headline size.
    fn perf_sizes(&self, quick: bool) -> Vec<u32> {
        if quick {
            vec![1_000]
        } else {
            vec![1_000, 10_000, 100_000]
        }
    }

    fn bench_regret(&self) -> bool {
        true
    }
}

/// Long-lived bids spanning 109 of 120 slots, cost scaled with the
/// population so a sizeable tail of users stays *pending* for ~100
/// slots — the workload the running-residual tracker
/// ([`osp_econ::ResidualTracker`]) exists for.
pub struct LongLived;

impl TraceSource for LongLived {
    fn name(&self) -> &'static str {
        "longlived_z120"
    }

    fn description(&self) -> &'static str {
        "109-slot bids over z=120, cost scaled so a big tail stays pending (residual-tracker stress)"
    }

    // `split_evenly` divides totals by 109 slots: per-slot values leave
    // the decimal grid, so this trace cannot cross the wire.
    fn wire_safe(&self) -> bool {
        false
    }

    fn sample(&self, users: u32, seed: u64) -> Trace {
        let cfg = AdditiveConfig {
            num_users: users,
            horizon: LONG_ARRIVAL_WINDOW,
            arrivals: ArrivalProcess::Uniform,
            duration: LONG_DURATION,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let cost = Money::from_dollars(i64::from(users / 10).max(1));
        let scenario = gen::additive_scenario(&cfg, cost, &mut rng);
        normalize_additive(scenario, Vec::new())
    }

    fn perf_sizes(&self, quick: bool) -> Vec<u32> {
        if quick {
            vec![500]
        } else {
            vec![1_000, 10_000]
        }
    }
}

/// SubstOn with 12 coupled optimizations — the workload the batched
/// multi-opt phase loop (shared scratch arena + cached per-opt
/// solutions) exists for.
pub struct Subst12;

impl TraceSource for Subst12 {
    fn name(&self) -> &'static str {
        "subst12_z20"
    }

    fn description(&self) -> &'static str {
        "§7.3.2 substitutable games: 12 optimizations, 3 substitutes per user, z=20"
    }

    fn substitutable(&self) -> bool {
        true
    }

    fn sample(&self, users: u32, seed: u64) -> Trace {
        let cfg = SubstConfig {
            num_users: users,
            horizon: SLOTS,
            num_opts: 12,
            substitutes_per_user: 3,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let scenario = gen::subst_scenario(&cfg, Money::from_cents(60), &mut rng);
        normalize_subst(scenario)
    }

    fn perf_sizes(&self, quick: bool) -> Vec<u32> {
        if quick {
            vec![1_000]
        } else {
            vec![1_000, 10_000, 100_000]
        }
    }

    // The rebuild engine's per-slot phase loops over a six-digit bid
    // map make 10⁵ pointlessly slow; the record says so by omission.
    fn rebuild_cap(&self, quick: bool) -> u32 {
        if quick {
            1_000
        } else {
            10_000
        }
    }
}

/// Heavy-tailed (Pareto/Zipf-like) valuations: most users value the
/// optimization in fractions of a cent, a few value it in tens of
/// dollars. Exercises the solver's affordable-prefix scan with a few
/// whales carrying the cost while a long tail stays unserviced.
pub struct ZipfValues;

/// Pareto tail index for [`ZipfValues`] (≈ the classic 80/20 shape).
const ZIPF_ALPHA: f64 = 1.16;

/// Minimum (scale) value of the Pareto draw, in micro-dollars.
const ZIPF_MIN_MICROS: f64 = 10_000.0; // $0.01

/// Cap on a single per-slot value, in micro-dollars ($100).
const ZIPF_CAP_MICROS: i64 = 100_000_000;

impl TraceSource for ZipfValues {
    fn name(&self) -> &'static str {
        "zipf_z20"
    }

    fn description(&self) -> &'static str {
        "heavy-tailed Pareto(1.16) valuations from $0.01 up to $100: a few whales, a long tail"
    }

    fn sample(&self, users: u32, seed: u64) -> Trace {
        let mut rng = StdRng::seed_from_u64(seed);
        let user_specs = (0..users)
            .map(|u| {
                let slot = SlotId(rng.gen_range(1..=SLOTS));
                // Inverse-CDF Pareto: x_m · (1 − U)^(−1/α), floored
                // onto the micro grid and capped.
                let draw: f64 = rng.gen();
                let micros =
                    (ZIPF_MIN_MICROS * (1.0 - draw).powf(-1.0 / ZIPF_ALPHA)).floor() as i64;
                let value = Money::from_micros(micros.min(ZIPF_CAP_MICROS));
                let series = SlotSeries::single(slot, value).expect("single slot");
                (UserId(u), series)
            })
            .collect();
        let scenario = AdditiveScenario {
            horizon: SLOTS,
            // A whale alone can carry this; the tail cannot.
            cost: Money::from_dollars(2),
            users: user_specs,
        };
        normalize_additive(scenario, Vec::new())
    }
}

/// Slots per simulated day of the [`BurstyDiurnal`] shape.
const DAY_SLOTS: u32 = 24;

/// Days in the [`BurstyDiurnal`] horizon.
const DAYS: u32 = 2;

/// Bursty diurnal arrivals: two 24-slot "days" with morning and
/// evening rush-hour peaks, multi-slot bids. Arrival churn concentrates
/// in a few slots instead of spreading uniformly — the worst case for
/// per-slot arrival batching.
pub struct BurstyDiurnal;

impl TraceSource for BurstyDiurnal {
    fn name(&self) -> &'static str {
        "bursty_z48"
    }

    fn description(&self) -> &'static str {
        "diurnal bursts: two 24-slot days with 9h/19h rush peaks, 1-4 slot bids"
    }

    fn sample(&self, users: u32, seed: u64) -> Trace {
        let horizon = DAYS * DAY_SLOTS;
        let mut rng = StdRng::seed_from_u64(seed);
        let user_specs = (0..users)
            .map(|u| {
                let day = rng.gen_range(0..DAYS);
                let peak = if rng.gen_bool(0.55) { 9 } else { 19 };
                // Exponential jitter around the peak, either side.
                let jitter: f64 = rng.gen();
                let offset = (-1.5 * (1.0 - jitter).ln()).floor() as u32;
                let hour = if rng.gen_bool(0.5) {
                    (peak + offset).min(DAY_SLOTS)
                } else {
                    peak.saturating_sub(offset).max(1)
                };
                let start = (day * DAY_SLOTS + hour).min(horizon);
                let duration = rng.gen_range(1..=4u32).min(horizon - start + 1);
                let values = (0..duration)
                    .map(|_| Money::from_micros(rng.gen_range(0..1_000_000)))
                    .collect();
                let series =
                    SlotSeries::new(SlotId(start), values).expect("non-empty, non-negative");
                (UserId(u), series)
            })
            .collect();
        let scenario = AdditiveScenario {
            horizon,
            cost: Money::from_cents(60),
            users: user_specs,
        };
        normalize_additive(scenario, Vec::new())
    }
}

/// Wave length of the [`ChurnWaves`] shape.
const WAVE: u32 = 10;

/// Waves in the [`ChurnWaves`] horizon.
const WAVES: u32 = 4;

/// Churn waves: cohorts arrive together just after each wave boundary
/// and expire together at the next one, and inside every wave a slice
/// of the live cohort revises upward — mass revise/expire events that
/// stress the revision, expiry-bucket, and resurrection paths.
pub struct ChurnWaves;

impl TraceSource for ChurnWaves {
    fn name(&self) -> &'static str {
        "churn_z40"
    }

    fn description(&self) -> &'static str {
        "cohort waves over z=40: mass arrivals/expiries each 10 slots, upward revisions + resurrections"
    }

    fn sample(&self, users: u32, seed: u64) -> Trace {
        let horizon = WAVES * WAVE;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut user_specs = Vec::with_capacity(users as usize);
        let mut revisions = Vec::new();
        for u in 0..users {
            let wave = rng.gen_range(0..WAVES);
            let start = wave * WAVE + rng.gen_range(1..=3u32);
            // The whole cohort expires at its wave boundary.
            let end = ((wave + 1) * WAVE).min(horizon);
            // Even micros so the ×2 revision stays on the grid.
            let v = Money::from_micros(rng.gen_range(0..500_000i64) * 2);
            let series = SlotSeries::constant(SlotId(start), SlotId(end), v).expect("start ≤ end");
            user_specs.push((UserId(u), series));
            let revised = v + v;
            if rng.gen_bool(0.25) {
                // Mid-wave upward revision extending into the next wave.
                let at = (start + rng.gen_range(1..=3u32)).min(end);
                let new_end = (end + WAVE).min(horizon);
                revisions.push(Revision {
                    at: SlotId(at),
                    user: UserId(u),
                    from: SlotId(at),
                    values: vec![revised; (new_end - at + 1) as usize],
                });
            } else if rng.gen_bool(0.1) && end + 2 <= horizon {
                // Post-expiry resurrection: the bid comes back after
                // its cohort died (the path PR 4's review fix hardened).
                let at = end + rng.gen_range(1..=2u32);
                revisions.push(Revision {
                    at: SlotId(at),
                    user: UserId(u),
                    from: SlotId(at),
                    values: vec![revised; ((at + 3).min(horizon) - at + 1) as usize],
                });
            }
        }
        let scenario = AdditiveScenario {
            horizon,
            cost: Money::from_cents(200),
            users: user_specs,
        };
        normalize_additive(scenario, revisions)
    }
}

/// Adversarial free-riders: every user holds a truthful constant-value
/// bid, but only a fifth reports it honestly — the rest play the §4/§5
/// deviations from [`osp_core::strategy`] (underbidding, hiding value,
/// arriving late, flat-bidding). The mechanisms must price the
/// *reported* games without crashing or losing money; truthfulness
/// tests elsewhere show the liars only hurt themselves.
pub struct FreeRiders;

impl TraceSource for FreeRiders {
    fn name(&self) -> &'static str {
        "freeride_z20"
    }

    fn description(&self) -> &'static str {
        "adversarial deviations via osp_core::strategy: underbids, hidden value, late arrivals, flat bids"
    }

    fn sample(&self, users: u32, seed: u64) -> Trace {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut user_specs = Vec::with_capacity(users as usize);
        for u in 0..users {
            let start = rng.gen_range(1..=SLOTS);
            let duration = rng.gen_range(1..=6u32).min(SLOTS - start + 1);
            // Even micros: ScaleBid(1/2) must stay on the micro grid.
            let v = Money::from_micros(rng.gen_range(0..500_000i64) * 2);
            let truth = SlotSeries::constant(SlotId(start), SlotId(start + duration - 1), v)
                .expect("start ≤ end");
            let deviation = match rng.gen_range(0..5u8) {
                0 => Strategy::Truthful,
                1 => Strategy::ScaleBid(Ratio::new(1, 2)),
                2 => Strategy::HideUntil(SlotId(start + duration / 2)),
                3 => Strategy::DelayArrival(1),
                _ => Strategy::FlatBid(Money::from_micros(rng.gen_range(0..250_000i64) * 2)),
            };
            // A deviation can degenerate to no bid at all (delaying a
            // single-slot bid); that user simply stays out.
            if let Some(reported) = strategy::apply(&truth, &deviation) {
                user_specs.push((UserId(u), reported));
            }
        }
        let scenario = AdditiveScenario {
            horizon: SLOTS,
            cost: Money::from_cents(60),
            users: user_specs,
        };
        normalize_additive(scenario, Vec::new())
    }
}

/// Optimizations on offer in the [`PayOneContention`] shape.
const PAYONE_OPTS: u32 = 8;

/// The "Pay One, Get Hundreds for Free" contention shape (PAPERS.md):
/// one hot optimization sits in ~90% of all substitute sets, so
/// hundreds of users share a single build while a handful of cold
/// alternatives see almost no demand. Stresses the multi-opt phase
/// loop's asymmetric case — one giant serviced set, many empty ones.
pub struct PayOneContention;

impl TraceSource for PayOneContention {
    fn name(&self) -> &'static str {
        "payone_contention"
    }

    fn description(&self) -> &'static str {
        "Pay-One-Get-Hundreds contention: one hot optimization in ~90% of substitute sets, 7 cold ones"
    }

    fn substitutable(&self) -> bool {
        true
    }

    fn sample(&self, users: u32, seed: u64) -> Trace {
        let mut rng = StdRng::seed_from_u64(seed);
        let hot = OptId(0);
        let mut costs = vec![Money::from_cents(300)];
        costs.extend((1..PAYONE_OPTS).map(|_| Money::from_cents(rng.gen_range(50..=150))));
        let user_specs = (0..users)
            .map(|u| {
                let substitutes = if rng.gen_bool(0.9) {
                    // The crowd: the hot optimization, sometimes with
                    // one cold fallback.
                    if rng.gen_bool(0.3) {
                        vec![hot, OptId(rng.gen_range(1..PAYONE_OPTS))]
                    } else {
                        vec![hot]
                    }
                } else {
                    // The fringe: two cold alternatives, never the hot
                    // one.
                    let a = rng.gen_range(1..PAYONE_OPTS);
                    let b = 1 + (a - 1 + rng.gen_range(1..PAYONE_OPTS - 1)) % (PAYONE_OPTS - 1);
                    vec![OptId(a), OptId(b)]
                };
                let slot = SlotId(rng.gen_range(1..=SLOTS));
                let series =
                    SlotSeries::single(slot, Money::from_micros(rng.gen_range(0..1_000_000)))
                        .expect("single slot");
                SubstUserSpec {
                    user: UserId(u),
                    substitutes,
                    series,
                }
            })
            .collect();
        let scenario = SubstScenario {
            horizon: SLOTS,
            costs,
            users: user_specs,
        };
        normalize_subst(scenario)
    }

    fn perf_sizes(&self, quick: bool) -> Vec<u32> {
        // "Hundreds of users share one optimization": the small size is
        // already the paper's regime; the large one scales it 10×.
        if quick {
            vec![500]
        } else {
            vec![500, 5_000]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{on_micro_grid, registry};

    #[test]
    fn long_shape_has_the_promised_horizon() {
        const { assert!(LONG_SLOTS >= 100) };
        let trace = LongLived.sample(200, 1);
        assert_eq!(trace.horizon(), LONG_SLOTS);
        if let Trace::Additive { scenario, .. } = &trace {
            for (_, s) in &scenario.users {
                assert_eq!(s.end().index() - s.start().index() + 1, LONG_DURATION);
            }
        } else {
            panic!("longlived is additive");
        }
    }

    #[test]
    fn zipf_values_are_heavy_tailed() {
        let trace = ZipfValues.sample(2_000, 3);
        let Trace::Additive { scenario, .. } = &trace else {
            panic!("zipf is additive");
        };
        let over_dollar = scenario
            .users
            .iter()
            .filter(|(_, s)| s.total() >= Money::from_dollars(1))
            .count();
        let under_nickel = scenario
            .users
            .iter()
            .filter(|(_, s)| s.total() <= Money::from_cents(5))
            .count();
        // A few whales, a big tail — and nothing above the cap.
        assert!(over_dollar > 5, "only {over_dollar} whales");
        assert!(under_nickel > 1_000, "only {under_nickel} tail users");
        assert!(scenario
            .users
            .iter()
            .all(|(_, s)| s.total() <= Money::from_dollars(100)));
    }

    #[test]
    fn bursty_arrivals_cluster_at_the_peaks() {
        let trace = BurstyDiurnal.sample(4_000, 5);
        let Trace::Additive { scenario, .. } = &trace else {
            panic!("bursty is additive");
        };
        let mut per_slot = vec![0u32; (trace.horizon() + 1) as usize];
        for (_, s) in &scenario.users {
            per_slot[s.start().index() as usize] += 1;
        }
        let peak_mass: u32 = [9u32, 19, 33, 43]
            .iter()
            .flat_map(|&p| [p - 1, p, p + 1])
            .map(|h| per_slot[h as usize])
            .sum();
        // Rush hours (±1 slot) carry well over half the arrivals; a
        // uniform process would put 12/48 = 25% there.
        assert!(
            peak_mass > 2_000,
            "peak slots carry only {peak_mass} of 4000 arrivals"
        );
    }

    #[test]
    fn churn_script_revises_and_resurrects() {
        let trace = ChurnWaves.sample(600, 9);
        let Trace::Additive {
            scenario,
            revisions,
        } = &trace
        else {
            panic!("churn is additive");
        };
        assert!(revisions.len() > 60, "only {} revisions", revisions.len());
        let ends: std::collections::BTreeMap<UserId, u32> = scenario
            .users
            .iter()
            .map(|(u, s)| (*u, s.end().index()))
            .collect();
        let resurrections = revisions
            .iter()
            .filter(|r| r.at.index() > ends[&r.user])
            .count();
        assert!(resurrections > 0, "no post-expiry revisions sampled");
        // Mass expiry: wave boundaries hold the whole cohort.
        let at_boundary = scenario
            .users
            .iter()
            .filter(|(_, s)| s.end().index() % WAVE == 0)
            .count();
        assert_eq!(at_boundary, scenario.users.len());
    }

    #[test]
    fn freeriders_mix_honest_and_lying_reports() {
        let trace = FreeRiders.sample(1_000, 13);
        let Trace::Additive { scenario, .. } = &trace else {
            panic!("freeride is additive");
        };
        // Some deviations degenerate to "no bid" — the population
        // shrinks but never empties.
        assert!(scenario.users.len() > 800);
        // Hidden-value reports put zeros up front.
        let zero_heads = scenario
            .users
            .iter()
            .filter(|(_, s)| s.value_at(s.start()).is_zero() && s.total().is_positive())
            .count();
        assert!(zero_heads > 50, "only {zero_heads} hidden-value reports");
    }

    #[test]
    fn payone_concentrates_demand_on_the_hot_optimization() {
        let trace = PayOneContention.sample(500, 21);
        let Trace::Subst { scenario } = &trace else {
            panic!("payone is substitutable");
        };
        assert_eq!(scenario.costs.len(), PAYONE_OPTS as usize);
        let hot = scenario
            .users
            .iter()
            .filter(|u| u.substitutes.contains(&OptId(0)))
            .count();
        assert!(hot > 400, "only {hot} of 500 users want the hot opt");
        for u in &scenario.users {
            let mut subs = u.substitutes.clone();
            subs.sort_unstable();
            subs.dedup();
            assert_eq!(subs.len(), u.substitutes.len(), "duplicate substitutes");
        }
    }

    #[test]
    fn wire_safe_shapes_stay_on_the_micro_grid() {
        for source in registry() {
            if !source.wire_safe() {
                continue;
            }
            let trace = source.sample(64, 17);
            let ok = match &trace {
                Trace::Additive {
                    scenario,
                    revisions,
                } => {
                    scenario
                        .users
                        .iter()
                        .flat_map(|(_, s)| s.iter().map(|(_, v)| v))
                        .all(on_micro_grid)
                        && revisions
                            .iter()
                            .flat_map(|r| r.values.iter().copied())
                            .all(on_micro_grid)
                        && on_micro_grid(scenario.cost)
                }
                Trace::Subst { scenario } => {
                    scenario
                        .users
                        .iter()
                        .flat_map(|u| u.series.iter().map(|(_, v)| v))
                        .all(on_micro_grid)
                        && scenario.costs.iter().copied().all(on_micro_grid)
                }
            };
            assert!(ok, "{} claims wire safety but left the grid", source.name());
        }
    }
}
