//! Dedicated stress test for the production engine's pre-sorted
//! splice and its ingest/price handoff.
//!
//! Every game here runs **four** lockstep states — the paper-literal
//! [`Engine::Rebuild`] oracle, the production [`Engine::Incremental`]
//! on its default policy (slots whose solver holds only on-grid values
//! keep the plain batch update; armed slots fork from
//! `pipeline::DEFAULT_FORK_MIN` pending users on a multi-core host),
//! and the production engine with the gate pinned to zero twice: every
//! slot arms the splice and really forks onto the worker thread, or
//! runs both stages on the caller (price, then ingest — the order a
//! single-core host takes) — and compares them operation by operation:
//! submit/revise results, per-slot reports, and final outcomes must all
//! be identical.
//!
//! The generator is adversarial about exactly the interleavings the
//! two-stage split is most likely to get wrong:
//!
//! - **same-slot revise-then-expire** — a user whose window ends at
//!   the current slot is revised *in* that slot, after the pipeline
//!   may have already snapshotted her batch value;
//! - **revise-after-expiry resurrection** — a user the incremental
//!   path already retired is revised back to life (the historical
//!   PR 5 duplicate-payment bug class);
//! - **late just-in-time arrivals** — bids submitted in the slot they
//!   start, *after* the previous slot's ingest stage prepared its
//!   seeds, exercising the prepared-batch prefix rule;
//! - **committed-user extensions** — revising a paying user's exit
//!   slot so the payment moves;
//! - **crossing the gate** — games whose off-grid pending crowd rises
//!   past the fork threshold, leaves, and returns (arm → disarm →
//!   re-arm), with a revision in the slot right after arming.
//!
//! Iteration count is `OSP_STRESS_ITERS` (default 48); the nightly CI
//! job elevates it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use osp_core::pipeline;
use osp_core::prelude::*;

fn stress_iters(default: u64) -> u64 {
    std::env::var("OSP_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The four lockstep states under comparison.
struct Lockstep {
    labels: [&'static str; 4],
    states: Vec<AddOnState>,
}

impl Lockstep {
    fn new(cost: Money, horizon: u32) -> Self {
        let mut states = vec![
            AddOnState::with_engine(cost, horizon, Engine::Rebuild).unwrap(),
            AddOnState::with_engine(cost, horizon, Engine::Incremental).unwrap(),
            AddOnState::with_engine(cost, horizon, Engine::Incremental).unwrap(),
            AddOnState::with_engine(cost, horizon, Engine::Incremental).unwrap(),
        ];
        states[2].set_fork_min(Some(0));
        states[3].set_fork_min(Some(0));
        states[3].set_sequential_splice(true);
        Lockstep {
            labels: [
                "rebuild",
                "production",
                "production-forced",
                "production-sequential",
            ],
            states,
        }
    }

    /// Applies `op` to every state and asserts the results agree.
    fn apply<R: PartialEq + std::fmt::Debug>(
        &mut self,
        what: &str,
        mut op: impl FnMut(&mut AddOnState) -> R,
    ) -> R {
        let mut results: Vec<R> = self.states.iter_mut().map(&mut op).collect();
        let reference = results.remove(0);
        for (r, label) in results.into_iter().zip(self.labels.iter().skip(1)) {
            assert_eq!(r, reference, "{label} diverged on {what}");
        }
        reference
    }

    fn finish(self) -> AddOnOutcome {
        let mut outcomes = self
            .states
            .into_iter()
            .map(|s| s.finish().expect("game finishes"));
        let reference = outcomes.next().unwrap();
        for (outcome, label) in outcomes.zip(self.labels.iter().skip(1)) {
            assert_eq!(outcome, reference, "{label} diverged at finish");
        }
        reference
    }
}

/// Shadow copy of one user's live series, kept so revisions can be
/// generated valid (upward, non-shrinking) without peeking at state.
#[derive(Clone)]
struct Shadow {
    start: u32,
    values: Vec<i64>,
}

impl Shadow {
    fn end(&self) -> u32 {
        self.start + self.values.len() as u32 - 1
    }

    fn value_at(&self, slot: u32) -> i64 {
        if slot < self.start || slot > self.end() {
            0
        } else {
            self.values[(slot - self.start) as usize]
        }
    }
}

/// `cents / 3` per slot: off the micro-dollar grid, which the default
/// policy requires before it arms. The cents stay in the shadow as an
/// upper bound, so revisions generated from it are still upward.
fn series_thirds(start: u32, cents: &[i64]) -> SlotSeries {
    SlotSeries::new(
        SlotId(start),
        cents
            .iter()
            .map(|&c| Money::from_cents(c).split_among(3))
            .collect(),
    )
    .unwrap()
}

fn series(start: u32, cents: &[i64]) -> SlotSeries {
    SlotSeries::new(
        SlotId(start),
        cents.iter().map(|&c| Money::from_cents(c)).collect(),
    )
    .unwrap()
}

/// Builds a valid upward revision of `shadow` from slot `from`
/// (already clamped to `now..=horizon`) to a new end in
/// `max(from, old_end)..=horizon`, raising each overlapped slot by a
/// non-negative delta. Returns the wire values and the updated shadow.
fn upward_revision(
    rng: &mut StdRng,
    shadow: &Shadow,
    from: u32,
    horizon: u32,
) -> (Vec<Money>, Shadow) {
    let from_idx = from.max(shadow.start);
    let new_end = rng.gen_range(from_idx.max(shadow.end())..=horizon);
    let cents: Vec<i64> = (from_idx..=new_end)
        .map(|slot| shadow.value_at(slot) + rng.gen_range(0i64..=900))
        .collect();
    let mut next = shadow.clone();
    next.values.truncate((from_idx - next.start) as usize);
    next.values.extend(cents.iter().copied());
    (cents.iter().map(|&c| Money::from_cents(c)).collect(), next)
}

/// One randomized adversarial game, four states in lockstep.
fn stress_game(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let horizon = rng.gen_range(4u32..=12);
    let cost = Money::from_cents(rng.gen_range(500i64..=6_000));
    let users = rng.gen_range(6u32..=24);

    // Pre-sample every user's initial window and values.
    let mut shadows: Vec<Shadow> = (0..users)
        .map(|_| {
            let start = rng.gen_range(1..=horizon);
            let len = rng.gen_range(1..=(horizon - start + 1));
            Shadow {
                start,
                values: (0..len).map(|_| rng.gen_range(0i64..=2_000)).collect(),
            }
        })
        .collect();
    // A slice of users submits early (before their start slot) so the
    // pipeline's prepared seeds cover them; the rest arrive just in
    // time, after the previous slot's ingest stage already ran.
    let early: Vec<bool> = (0..users).map(|_| rng.gen_bool(0.4)).collect();

    let mut game = Lockstep::new(cost, horizon);
    let mut submitted = vec![false; users as usize];

    for t in 1..=horizon {
        // Early submissions for future slots (t < start ≤ horizon).
        for u in 0..users as usize {
            if !submitted[u] && early[u] && shadows[u].start > t && rng.gen_bool(0.6) {
                submitted[u] = true;
                let bid = OnlineBid::new(
                    UserId(u as u32),
                    series(shadows[u].start, &shadows[u].values),
                );
                let submitted_ok = game.apply(&format!("early submit u{u} at t{t}"), |s| {
                    s.submit(bid.clone())
                });
                assert!(submitted_ok.is_ok(), "early submit must be valid");
            }
        }
        // Just-in-time arrivals for this slot.
        for u in 0..users as usize {
            if !submitted[u] && shadows[u].start == t {
                submitted[u] = true;
                let bid = OnlineBid::new(UserId(u as u32), series(t, &shadows[u].values));
                let submitted_ok = game.apply(&format!("jit submit u{u} at t{t}"), |s| {
                    s.submit(bid.clone())
                });
                assert!(submitted_ok.is_ok(), "jit submit must be valid");
            }
        }
        // Adversarial revisions. Deliberately biased toward users
        // whose window ends at t (same-slot revise-then-expire) and
        // users already past their end (resurrections).
        for _ in 0..rng.gen_range(0..4u32) {
            let u = rng.gen_range(0..users as usize);
            if !submitted[u] {
                continue;
            }
            let shadow = &shadows[u];
            let from = match rng.gen_range(0..3u8) {
                // Straight revision of a live or expired window.
                0 => rng.gen_range(t..=horizon),
                // The same-slot cases: revise exactly at t.
                _ => t,
            };
            let (values, next) = upward_revision(&mut rng, shadow, from, horizon);
            let what = format!("revise u{u} from {from} at t{t} (end was {})", shadow.end());
            let result = game.apply(&what, |s| {
                s.revise(UserId(u as u32), SlotId(from), values.clone())
            });
            if result.is_ok() {
                shadows[u] = next.clone();
            }
        }
        game.apply(&format!("advance t{t}"), |s| s.advance())
            .expect("advance stays within the horizon");
    }
    let outcome = game.finish();
    // Audit the reference outcome too: payments must cover only
    // implemented slots and never double-charge (the PR 5 bug class
    // this stress exists to keep dead).
    for (&u, &p) in &outcome.payments {
        assert!(!p.is_negative(), "seed {seed}: negative payment for {u}");
    }
}

#[test]
fn pipeline_handoff_survives_adversarial_interleavings() {
    let iters = stress_iters(48);
    for seed in 0..iters {
        stress_game(0x51_0e_11_u64.wrapping_mul(seed + 1));
    }
}

/// A deterministic worst case, always run: every user's window ends
/// at the same slot, everyone is revised in that slot, and half are
/// resurrected the slot after.
#[test]
fn same_slot_revise_then_expire_wall() {
    let horizon = 6u32;
    let wall = 4u32; // every window ends here
    let mut game = Lockstep::new(Money::from_cents(2_400), horizon);
    let mut shadows: Vec<Shadow> = Vec::new();
    for u in 0..8u32 {
        let start = 1 + (u % 3);
        let values: Vec<i64> = (start..=wall)
            .map(|k| 400 + i64::from(u * 10 + k))
            .collect();
        let shadow = Shadow { start, values };
        let bid = OnlineBid::new(UserId(u), series(shadow.start, &shadow.values));
        game.apply(&format!("submit u{u}"), |s| s.submit(bid.clone()))
            .expect("submit must be valid");
        shadows.push(shadow);
    }
    for t in 1..=horizon {
        if t == wall {
            // Revise every user *in* the slot their window ends.
            for (u, shadow) in shadows.iter_mut().enumerate() {
                let cents = shadow.value_at(wall) + 250;
                let values = vec![Money::from_cents(cents)];
                let result = game.apply(&format!("wall revise u{u}"), |s| {
                    s.revise(UserId(u as u32), SlotId(wall), values.clone())
                });
                assert!(result.is_ok(), "wall revision must be valid: {result:?}");
                let last = shadow.values.len() - 1;
                shadow.values[last] = cents;
            }
        }
        if t == wall + 1 {
            // Resurrect half of the just-expired users with a window
            // reaching the horizon.
            for u in (0..shadows.len()).step_by(2) {
                let values: Vec<Money> = (t..=horizon)
                    .map(|k| Money::from_cents(600 + i64::from(k)))
                    .collect();
                let result = game.apply(&format!("resurrect u{u}"), |s| {
                    s.revise(UserId(u as u32), SlotId(t), values.clone())
                });
                assert!(result.is_ok(), "resurrection must be valid: {result:?}");
            }
        }
        game.apply(&format!("advance t{t}"), |s| s.advance())
            .expect("advance stays within the horizon");
    }
    game.finish();
}

/// The default fork threshold, in users.
const GATE: u32 = pipeline::DEFAULT_FORK_MIN as u32;

/// Which side of the gate the production state (default policy) takes
/// in the slot about to be processed.
fn production_armed(game: &Lockstep) -> bool {
    game.states[1].splice_armed()
}

/// `true` when `armed` (one flag per slot) goes armed → unarmed →
/// armed again.
fn arms_disarms_and_rearms(armed: &[bool]) -> bool {
    let Some(first) = armed.iter().position(|&a| a) else {
        return false;
    };
    let Some(gap) = armed[first..].iter().position(|&a| !a) else {
        return false;
    };
    armed[first + gap..].contains(&true)
}

/// A wave of `count` low-value users starting at `start` for `len`
/// slots, too poor to be serviced, so they stay pending until they
/// expire. Ids start at `first`. Their values are submitted as thirds
/// of these cents (see [`series_thirds`]).
fn wave(rng: &mut StdRng, first: u32, count: u32, start: u32, len: u32) -> Vec<(u32, Shadow)> {
    (first..first + count)
        .map(|u| {
            let values = (0..len).map(|_| rng.gen_range(0i64..=60)).collect();
            (u, Shadow { start, values })
        })
        .collect()
}

/// One game whose off-grid pending crowd crosses the default fork
/// threshold upward, downward and upward again, under the default
/// policy:
///
/// - a background of on-grid long-lived bidders, a few rich enough to
///   commit;
/// - wave 1 (`GATE + GATE / 16` off-grid users) pending in slots 1–3
///   arms slots 2–4; it expires at 3, so slot 4 splices out its
///   retirees and disarms;
/// - wave 2 (`wave2` off-grid users) pending from slot 7 re-arms;
/// - in the slot right after each arming, a handful of pending users
///   revise upward (the armed snapshot must be dropped), and
///   just-in-time arrivals land in armed slots.
///
/// Returns the production state's armed flag per slot.
fn crossing_game(seed: u64, wave2: u32) -> Vec<bool> {
    let mut rng = StdRng::seed_from_u64(seed);
    let horizon = 12u32;
    let mut game = Lockstep::new(Money::from_dollars(300), horizon);
    let mut shadows: Vec<(u32, Shadow)> = (0..24u32)
        .map(|u| {
            let start = rng.gen_range(1..=6);
            let len = rng.gen_range(4..=horizon - start + 1);
            let high = if u % 6 == 0 { 9_000 } else { 900 };
            let values = (0..len).map(|_| rng.gen_range(100i64..=high)).collect();
            (u, Shadow { start, values })
        })
        .collect();
    shadows.extend(wave(&mut rng, 10_000, GATE + GATE / 16, 1, 3));
    shadows.extend(wave(&mut rng, 20_000, wave2, 7, 4));
    // A few just-in-time arrivals per slot, submitted in the slot they
    // start; everyone else is submitted before slot 1.
    shadows.extend(
        (0..horizon)
            .flat_map(|t| [(3_000 + 2 * t, t + 1), (3_001 + 2 * t, t + 1)])
            .map(|(u, start)| {
                let len = rng.gen_range(1..=horizon - start + 1);
                let values = (0..len).map(|_| rng.gen_range(0i64..=2_000)).collect();
                (u, Shadow { start, values })
            }),
    );
    let jit = |u: u32| (3_000..10_000).contains(&u);
    for (u, shadow) in shadows.iter().filter(|(u, _)| !jit(*u)) {
        let values = if *u >= 10_000 {
            series_thirds(shadow.start, &shadow.values)
        } else {
            series(shadow.start, &shadow.values)
        };
        let bid = OnlineBid::new(UserId(*u), values);
        game.apply(&format!("submit u{u}"), |s| s.submit(bid.clone()))
            .expect("submit must be valid");
    }
    let mut armed = Vec::new();
    let mut armed_before = false;
    for t in 1..=horizon {
        for (u, shadow) in shadows.iter().filter(|(u, s)| jit(*u) && s.start == t) {
            let bid = OnlineBid::new(UserId(*u), series(t, &shadow.values));
            game.apply(&format!("jit submit u{u} at t{t}"), |s| {
                s.submit(bid.clone())
            })
            .expect("jit submit must be valid");
        }
        let now_armed = production_armed(&game);
        if now_armed && !armed_before {
            // The slot right after arming: three live users revise
            // upward, which must drop the armed snapshot.
            let mut revised = 0;
            for _ in 0..1_000 {
                let pick = rng.gen_range(0..shadows.len());
                let (u, shadow) = &shadows[pick];
                if shadow.start > t || shadow.end() < t {
                    continue;
                }
                let (values, next) = upward_revision(&mut rng, shadow, t, horizon);
                let u = *u;
                game.apply(&format!("post-arm revise u{u} at t{t}"), |s| {
                    s.revise(UserId(u), SlotId(t), values.clone())
                })
                .expect("upward revision must be valid");
                shadows[pick].1 = next;
                revised += 1;
                if revised == 3 {
                    break;
                }
            }
            assert_eq!(revised, 3, "no live users to revise at t{t}");
            assert!(
                !production_armed(&game),
                "a revision must drop the armed snapshot (t{t})"
            );
        }
        armed_before = now_armed;
        armed.push(production_armed(&game));
        game.apply(&format!("advance t{t}"), |s| s.advance())
            .expect("advance stays within the horizon");
    }
    game.finish();
    armed
}

/// The deterministic crossing: arm → disarm → re-arm under the default
/// policy, lock-step equal to the rebuild oracle.
#[test]
fn default_gate_arms_disarms_and_rearms() {
    let armed = crossing_game(0x6a7e, GATE + GATE / 16);
    assert!(
        arms_disarms_and_rearms(&armed),
        "the game must cross the gate both ways: {armed:?}"
    );
}

/// Randomized crossings: second-wave sizes straddling the gate.
#[test]
fn gate_crossings_survive_random_waves() {
    for seed in 0..stress_iters(48).div_ceil(16) {
        let wave2 = GATE * 7 / 8 + (seed as u32 * 137) % (GATE * 3 / 8);
        crossing_game(0x0c40_55e5 ^ seed, wave2);
    }
}
