//! The engine side: one large game played in-process through the
//! public `osp_core` state machines, slot by slot.

use std::time::Instant;

use osp_core::prelude::*;
use osp_workload::source::{find, Trace};

use crate::binary::Fnv;
use crate::span::Tracer;

/// The game's arrivals, bucketed by start slot.
#[derive(Clone, PartialEq, Eq)]
pub enum Slots {
    /// An AddOn game.
    Add {
        cost: Money,
        arrivals: Vec<Vec<OnlineBid>>,
    },
    /// A SubstOn game.
    Subst {
        costs: Vec<Money>,
        arrivals: Vec<Vec<SubstOnlineBid>>,
    },
}

/// A sampled large game.
pub struct EngineTrace {
    pub slots: Slots,
    pub horizon: u32,
    /// Every bid's `(start, end)` slots, indexed by user id.
    pub intervals: Vec<(u32, u32)>,
    /// users × slots.
    pub events: u64,
    pub sample_s: f64,
    pub encode_s: f64,
}

impl EngineTrace {
    /// Number of bids.
    pub fn bids(&self) -> u64 {
        self.intervals.len() as u64
    }
}

/// Samples `users` bidders of `source` from `seed` and buckets their
/// bids by start slot.
pub fn build(source: &str, users: u32, seed: u64) -> EngineTrace {
    let source = find(source).expect("the engine source is registered");
    let started = Instant::now();
    let trace = source.sample(users, seed);
    let sample_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let horizon = trace.horizon();
    let mut intervals = vec![(0, 0); trace.num_users()];
    let mut note = |user: UserId, series: &SlotSeries| {
        intervals[user.0 as usize] = (series.start().index(), series.end().index());
        series.start().index() as usize - 1
    };
    let slots = match trace {
        Trace::Additive {
            scenario,
            revisions,
        } => {
            assert!(
                revisions.is_empty(),
                "revisions are not part of this workload"
            );
            let mut arrivals = vec![Vec::new(); horizon as usize];
            for (user, series) in scenario.users {
                arrivals[note(user, &series)].push(OnlineBid { user, series });
            }
            Slots::Add {
                cost: scenario.cost,
                arrivals,
            }
        }
        Trace::Subst { scenario } => {
            let mut arrivals = vec![Vec::new(); horizon as usize];
            for spec in scenario.users {
                arrivals[note(spec.user, &spec.series)].push(SubstOnlineBid {
                    user: spec.user,
                    substitutes: spec.substitutes.into_iter().collect(),
                    series: spec.series,
                });
            }
            Slots::Subst {
                costs: scenario.costs,
                arrivals,
            }
        }
    };
    EngineTrace {
        slots,
        horizon,
        events: intervals.len() as u64 * u64::from(horizon),
        intervals,
        sample_s,
        encode_s: started.elapsed().as_secs_f64(),
    }
}

/// A finished game.
#[derive(Debug, PartialEq, Eq)]
pub enum Outcome {
    Add(AddOnOutcome),
    Subst(SubstOnOutcome),
}

impl Outcome {
    /// FNV-1a of the outcome's JSON: equal outcomes, equal digests.
    pub fn digest(&self) -> String {
        let json = match self {
            Outcome::Add(o) => serde_json::to_string(o),
            Outcome::Subst(o) => serde_json::to_string(o),
        }
        .expect("outcomes encode");
        let mut fnv = Fnv::default();
        fnv.write(json.as_bytes());
        format!("{:016x}", fnv.0)
    }

    /// Cost recovery: every implemented optimization collected at least
    /// its cost from the users assigned to it. Sums in `f64` (to one
    /// part in 10⁹): exact sums of 10⁵ shares overflow `Ratio`.
    pub fn check_cost_recovery(&self) -> Result<(), String> {
        let short = |collected: f64, cost: Money| collected < cost.to_f64() * (1.0 - 1e-9);
        match self {
            Outcome::Add(o) => {
                let collected: f64 = o.payments.values().map(|p| p.to_f64()).sum();
                if o.is_implemented() && short(collected, o.cost) {
                    return Err(format!("collected {collected} of cost {}", o.cost));
                }
            }
            Outcome::Subst(o) => {
                for opt in o.implemented_at.keys() {
                    let collected: f64 = o
                        .assignments
                        .iter()
                        .filter(|(_, assigned)| *assigned == opt)
                        .filter_map(|(user, _)| o.payments.get(user).map(|p| p.to_f64()))
                        .sum();
                    let cost = o.costs[opt.index() as usize];
                    if short(collected, cost) {
                        return Err(format!(
                            "optimization {opt:?} collected {collected} of cost {cost}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// The slot each user was first serviced in.
    pub fn first_serviced(&self) -> &std::collections::BTreeMap<UserId, SlotId> {
        match self {
            Outcome::Add(o) => &o.first_serviced,
            Outcome::Subst(o) => &o.first_serviced,
        }
    }
}

/// Serviced user-slots over pending user-slots: a user is pending in
/// every slot of the bid interval and serviced in those from the first
/// serviced slot on.
pub fn serviced_share(intervals: impl Iterator<Item = (u32, u32, Option<u32>)>) -> f64 {
    let (mut serviced, mut pending) = (0u64, 0u64);
    for (start, end, first) in intervals {
        pending += u64::from(end - start + 1);
        if let Some(first) = first.filter(|&f| f <= end) {
            serviced += u64::from(end - first.max(start) + 1);
        }
    }
    crate::stats::ratio(serviced as f64, pending as f64)
}

fn traced(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    slot: usize,
    parent: Option<u32>,
    f: impl FnOnce() -> Result<()>,
) -> Result<()> {
    match tracer {
        Some(t) => t.time(name, slot as u64, 0, parent, f),
        None => f(),
    }
}

/// One play of the game.
pub struct Play {
    pub outcome: Outcome,
    /// Create to finish.
    pub wall_s: f64,
    /// Per slot: its submits plus its advance, in µs.
    pub slot_us: Vec<f64>,
}

/// Plays the game under `engine`: each slot submits its arrivals, then
/// advances. With a tracer, each slot gets a root span with `submit`
/// and `advance` children.
pub fn play(trace: &EngineTrace, engine: Engine, mut tracer: Option<&mut Tracer>) -> Result<Play> {
    let slots = trace.slots.clone();
    let mut slot_us = Vec::with_capacity(trace.horizon as usize);
    let started = Instant::now();
    let outcome = match slots {
        Slots::Add { cost, arrivals } => {
            let mut state = AddOnState::with_engine(cost, trace.horizon, engine)?;
            for (t, bids) in arrivals.into_iter().enumerate() {
                let slot_start = Instant::now();
                let root = tracer
                    .as_mut()
                    .map(|tr| tr.begin("slot", t as u64, 0, None));
                traced(&mut tracer, "addon.submit", t, root, || {
                    bids.into_iter().try_for_each(|bid| state.submit(bid))
                })?;
                traced(&mut tracer, "addon.advance", t, root, || {
                    state.advance_quiet()
                })?;
                if let (Some(tr), Some(root)) = (tracer.as_mut(), root) {
                    tr.end(root);
                }
                slot_us.push(slot_start.elapsed().as_secs_f64() * 1e6);
            }
            Outcome::Add(state.finish()?)
        }
        Slots::Subst { costs, arrivals } => {
            let mut state =
                SubstOnState::with_engine(costs, trace.horizon, TieBreak::LowestOptId, engine)?;
            for (t, bids) in arrivals.into_iter().enumerate() {
                let slot_start = Instant::now();
                let root = tracer
                    .as_mut()
                    .map(|tr| tr.begin("slot", t as u64, 0, None));
                traced(&mut tracer, "subston.submit", t, root, || {
                    bids.into_iter().try_for_each(|bid| state.submit(bid))
                })?;
                traced(&mut tracer, "subston.advance", t, root, || {
                    state.advance().map(drop)
                })?;
                if let (Some(tr), Some(root)) = (tracer.as_mut(), root) {
                    tr.end(root);
                }
                slot_us.push(slot_start.elapsed().as_secs_f64() * 1e6);
            }
            Outcome::Subst(state.finish()?)
        }
    };
    Ok(Play {
        outcome,
        wall_s: started.elapsed().as_secs_f64(),
        slot_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plays_are_deterministic_and_recover_cost() {
        for source in ["longlived_z120", "subst12_z20"] {
            let trace = build(source, 300, 5);
            let a = play(&trace, Engine::default(), None).unwrap();
            let b = play(&trace, Engine::default(), None).unwrap();
            let rebuild = play(&trace, Engine::Rebuild, None).unwrap();
            assert_eq!(a.outcome.digest(), b.outcome.digest());
            assert_eq!(a.outcome, rebuild.outcome, "{source}");
            a.outcome.check_cost_recovery().unwrap();
            assert_eq!(a.slot_us.len(), trace.horizon as usize);
        }
    }

    #[test]
    fn serviced_share_counts_user_slots() {
        // Pending 3 + 2 slots; serviced from slot 2 of [1,3] and never.
        let share = serviced_share([(1, 3, Some(2)), (2, 3, None)].into_iter());
        assert!((share - 2.0 / 5.0).abs() < 1e-12);
    }
}
