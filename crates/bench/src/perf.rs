//! End-to-end throughput measurement for the online mechanisms.
//!
//! [`run`] measures **every** source in the
//! [`osp_workload::source::registry`] under the production
//! (`incremental`) and rebuild Shapley engines (plus the Regret
//! baseline where a source opts in), and reports
//! **user-slot events per second**. Workload axis values in the record
//! are registry names — adding a source to the registry adds its rows
//! to `BENCH_mechanisms.json` with no change here. Per-source knobs
//! (measured sizes, rebuild caps, regret opt-in) live on the
//! [`osp_workload::TraceSource`] implementations themselves.
//!
//! The `bench_json` binary serializes the result as
//! `BENCH_mechanisms.json`, the repo's tracked perf record: CI
//! regenerates it on every PR (quick mode), so the mechanisms' perf
//! trajectory is visible from this file's history.
//!
//! The headline comparisons are `addon/uniform_z20` `incremental` vs
//! `rebuild` at m = 10⁵ (the persistent [`osp_core::prelude::Solver`]
//! must beat the per-slot rebuild ≥ 3× there) and
//! `addon/longlived_z120` at m = 10⁴, and the `speedup` list in the
//! report states the measured ratio per (mechanism, workload, size).
//!
//! On top of the registry sweep, the sharded server replays a
//! multi-game wire trace ([`crate::server_load`]) on one shard and on
//! four, recorded under the [`multigame_workload_name`] workload with
//! engine axis `server1`/`server4`.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use osp_core::prelude::*;
use osp_workload::source::{registry, Trace};

use crate::server_load::{self, LoadConfig};

/// One measured (mechanism, engine, size) point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Mechanism name: `addon`, `subston` or `regret`.
    pub mechanism: String,
    /// Workload name: a registry source name, or
    /// [`multigame_workload_name`] for the server replay.
    pub workload: String,
    /// Shapley engine: `incremental`, `rebuild`, `server<N>`, or `-`
    /// for baselines.
    pub engine: String,
    /// Number of users `m`.
    pub users: u32,
    /// Number of slots `z`.
    pub slots: u32,
    /// Full end-to-end runs measured.
    pub iters: u32,
    /// Total wall-clock seconds across all `iters`.
    pub elapsed_s: f64,
    /// `users · slots · iters / elapsed_s`.
    pub ops_per_sec: f64,
}

/// The full perf record written to `BENCH_mechanisms.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfReport {
    /// Bumped when the record's shape or workloads change.
    pub schema_version: u32,
    /// `true` when produced with `--quick` (CI: fewer sizes, 1 iter).
    pub quick: bool,
    /// Every measured point.
    pub records: Vec<BenchRecord>,
    /// `(mechanism, workload, users, incremental/rebuild)` throughput
    /// ratios, one per point measured under both engines. (A list, not
    /// a map: JSON object keys would have to be strings.)
    pub speedup_incremental_over_rebuild: Vec<(String, String, u32, f64)>,
}

impl PerfReport {
    /// The record for one (mechanism, workload, engine, users) point,
    /// if present.
    #[must_use]
    pub fn find(
        &self,
        mechanism: &str,
        workload: &str,
        engine: &str,
        users: u32,
    ) -> Option<&BenchRecord> {
        self.records.iter().find(|r| {
            r.mechanism == mechanism
                && r.workload == workload
                && r.engine == engine
                && r.users == users
        })
    }
}

/// Concurrent games in the server-replay trace.
pub const SERVER_GAMES: u64 = 1_000;
/// Users per game in the server-replay trace.
pub const SERVER_USERS_PER_GAME: u32 = 4;

/// The registry sources the server replay drives over the wire: one
/// additive, one substitutable (both wire-safe).
pub const SERVER_SOURCES: [(&str, &str); 2] =
    [("addon", "uniform_z20"), ("subston", "subst12_z20")];

/// The workload axis value of the sharded-server replay points:
/// [`SERVER_GAMES`] concurrent games driven through the wire protocol
/// (engine axis `server1`/`server4` = shard count). Identical in quick
/// and full mode so the CI `--check` gate compares like against like.
#[must_use]
pub fn multigame_workload_name() -> String {
    format!("multigame_{SERVER_GAMES}g")
}

const SEED: u64 = 0x05f5_c0de;

fn engine_name(engine: Engine) -> &'static str {
    match engine {
        Engine::Incremental => "incremental",
        Engine::Rebuild => "rebuild",
    }
}

/// Repeats `f` until both `min_iters` runs and `min_secs` seconds have
/// accumulated; returns `(iters, elapsed_seconds)`.
fn measure<F: FnMut()>(mut f: F, min_iters: u32, min_secs: f64) -> (u32, f64) {
    let start = Instant::now();
    let mut iters = 0u32;
    loop {
        f();
        iters += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if iters >= min_iters && elapsed >= min_secs {
            return (iters, elapsed);
        }
    }
}

/// Runs the full suite and assembles the report.
///
/// `quick` (CI mode) measures each source's `perf_sizes(true)` for
/// ≥ 0.15 s per point; the default mode measures `perf_sizes(false)`
/// for ≥ 0.5 s. (Quick mode still amortizes over ≥ 0.15 s: a single
/// cold iteration measures first-touch costs, not throughput. Even so,
/// quick numbers sit 20–30% below full-mode numbers for the same
/// point, which is why the committed baseline is produced by
/// [`record_baseline`], not by a bare full run.)
#[must_use]
pub fn run(quick: bool) -> PerfReport {
    let (min_iters, min_secs): (u32, f64) = if quick { (2, 0.15) } else { (2, 0.5) };

    let mut records = Vec::new();
    for source in registry() {
        for m in source.perf_sizes(quick) {
            let trace = source.sample(m, SEED);
            let slots = trace.horizon();
            let mechanism = trace.mechanism();
            for engine in [Engine::Incremental, Engine::Rebuild] {
                if engine == Engine::Rebuild && m > source.rebuild_cap(quick) {
                    continue;
                }
                let (iters, elapsed) = measure(
                    || {
                        trace
                            .play(engine, TieBreak::LowestOptId)
                            .expect("registered sources play cleanly");
                    },
                    min_iters,
                    min_secs,
                );
                records.push(record(
                    mechanism,
                    source.name(),
                    engine_name(engine),
                    m,
                    slots,
                    iters,
                    elapsed,
                ));
            }
            if source.bench_regret() {
                if let Trace::Additive { scenario, .. } = &trace {
                    let (iters, elapsed) = measure(
                        || {
                            let _ = scenario.run_regret();
                        },
                        min_iters,
                        min_secs,
                    );
                    records.push(record(
                        "regret",
                        source.name(),
                        "-",
                        m,
                        slots,
                        iters,
                        elapsed,
                    ));
                }
            }
        }
    }

    // The sharded server, replaying the same multi-game trace on one
    // shard and on four: the `server4`/`server1` ratio is the server's
    // parallel speedup, and both are regression-gated by `--check`.
    let multigame = multigame_workload_name();
    for (mechanism, source) in SERVER_SOURCES {
        let trace = server_load::build_trace(&LoadConfig {
            games: SERVER_GAMES,
            users_per_game: SERVER_USERS_PER_GAME,
            source,
            seed: SEED,
        });
        for shards in [1usize, 4] {
            // Thread-parallel replays are noisier than the in-process
            // loops; amortize over a full second in both modes.
            let (iters, elapsed) = measure(
                || {
                    let result = server_load::replay(&trace.requests, shards, 1_024);
                    assert_eq!(result.errors, 0, "load trace must replay cleanly");
                },
                min_iters,
                min_secs.max(1.0),
            );
            records.push(record(
                mechanism,
                &multigame,
                &format!("server{shards}"),
                SERVER_GAMES as u32 * SERVER_USERS_PER_GAME,
                trace.horizon,
                iters,
                elapsed,
            ));
        }
    }

    let speedup = speedups(&records);

    PerfReport {
        schema_version: 3,
        quick,
        records,
        speedup_incremental_over_rebuild: speedup,
    }
}

fn speedups(records: &[BenchRecord]) -> Vec<(String, String, u32, f64)> {
    let mut speedup = Vec::new();
    for inc in records.iter().filter(|r| r.engine == "incremental") {
        let reb = records.iter().find(|r| {
            r.mechanism == inc.mechanism
                && r.workload == inc.workload
                && r.engine == "rebuild"
                && r.users == inc.users
        });
        if let Some(reb) = reb {
            speedup.push((
                inc.mechanism.clone(),
                inc.workload.clone(),
                inc.users,
                inc.ops_per_sec / reb.ops_per_sec,
            ));
        }
    }
    speedup
}

/// Quick passes [`record_baseline`] takes the per-point minimum over.
/// Five, not one: individual quick points swing ±15% run-to-run, and a
/// floor taken over too few passes can land high enough that an
/// ordinary later run reads as a 15% loss.
pub const BASELINE_QUICK_PASSES: u32 = 5;

/// Quick passes a fresh `--check` measurement takes the per-point
/// maximum over. The committed baseline is a low-water mark (see
/// [`record_baseline`]); the gate asks whether the code can still
/// *reach* that floor, so the fresh side is a high-water mark — one
/// pass descheduled by a noisy neighbor is measurement weather, not a
/// regression, while a real slowdown fails every pass.
pub const CHECK_QUICK_PASSES: u32 = 3;

/// Measures the fresh side of a `--check` gate: [`CHECK_QUICK_PASSES`]
/// quick passes merged by per-point **maximum** (the mirror image of
/// [`record_baseline`]'s minimum floor).
#[must_use]
pub fn fresh_quick() -> PerfReport {
    let mut report = run(true);
    for _ in 1..CHECK_QUICK_PASSES {
        for q in run(true).records {
            if let Some(held) = report.records.iter_mut().find(|r| same_point(r, &q)) {
                if q.ops_per_sec > held.ops_per_sec {
                    *held = q;
                }
            }
        }
    }
    report.speedup_incremental_over_rebuild = speedups(&report.records);
    report
}

fn same_point(a: &BenchRecord, b: &BenchRecord) -> bool {
    a.mechanism == b.mechanism
        && a.workload == b.workload
        && a.engine == b.engine
        && a.users == b.users
}

/// Measures a check-compatible baseline: the full suite first, then
/// [`BASELINE_QUICK_PASSES`] quick passes whose **per-point minimum**
/// replaces every point quick mode also measures.
///
/// The `check` gate compares a fresh **quick** run point-by-point
/// against the committed baseline, so a committed baseline must hold
/// numbers a quick run can actually reproduce. A bare full run cannot:
/// full-mode numbers sit systematically 20–30% above quick ones on the
/// same point (longer amortization; see [`run`]). And a *single* quick
/// pass is not enough either: quick points swing ±25% run-to-run, so
/// one lucky pass bakes in a ceiling later runs fail. The minimum over
/// several passes is a low-water mark — the gate only flags *losses*,
/// so a conservative floor stays sensitive to real regressions without
/// failing on measurement weather. Full-only points (the large-`m`
/// headline sizes) keep their better-amortized full-mode numbers:
/// quick runs never produce those keys, so they are reported, never
/// gated.
#[must_use]
pub fn record_baseline() -> PerfReport {
    let mut report = run(false);
    let mut floor: Vec<BenchRecord> = Vec::new();
    for _ in 0..BASELINE_QUICK_PASSES {
        for q in run(true).records {
            match floor.iter_mut().find(|r| same_point(r, &q)) {
                Some(held) => {
                    if q.ops_per_sec < held.ops_per_sec {
                        *held = q;
                    }
                }
                None => floor.push(q),
            }
        }
    }
    for q in floor {
        match report.records.iter_mut().find(|r| same_point(r, &q)) {
            Some(shared) => *shared = q,
            None => report.records.push(q),
        }
    }
    report.speedup_incremental_over_rebuild = speedups(&report.records);
    report
}

fn record(
    mechanism: &str,
    workload: &str,
    engine: &str,
    users: u32,
    slots: u32,
    iters: u32,
    elapsed_s: f64,
) -> BenchRecord {
    let ops = f64::from(users) * f64::from(slots) * f64::from(iters);
    BenchRecord {
        mechanism: mechanism.to_owned(),
        workload: workload.to_owned(),
        engine: engine.to_owned(),
        users,
        slots,
        iters,
        elapsed_s,
        ops_per_sec: ops / elapsed_s,
    }
}

/// One fresh point compared against the tracked baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckLine {
    /// `mechanism/workload/engine m=users`.
    pub label: String,
    /// Baseline throughput.
    pub baseline_ops: f64,
    /// Fresh throughput.
    pub fresh_ops: f64,
    /// `fresh / baseline`.
    pub ratio: f64,
    /// `true` when the fresh point fell below `(1 − tolerance) ×
    /// baseline`.
    pub regressed: bool,
}

/// Outcome of [`check`]: every comparable point, plus the fresh points
/// the baseline does not know yet (informational, never failing).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckReport {
    /// Compared points, in fresh-record order.
    pub lines: Vec<CheckLine>,
    /// Labels of fresh points absent from the baseline.
    pub new_points: Vec<String>,
}

impl CheckReport {
    /// The regressed subset of [`CheckReport::lines`].
    pub fn regressions(&self) -> impl Iterator<Item = &CheckLine> {
        self.lines.iter().filter(|l| l.regressed)
    }

    /// `true` when no compared point regressed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.regressions().next().is_none()
    }
}

/// Compares `fresh` against `baseline` on the intersection of
/// (mechanism, workload, engine, users) points: a fresh point slower
/// than `(1 − tolerance) × baseline` is a regression. Fresh points the
/// baseline lacks are reported as new, not failed — a PR adding a
/// workload stays green until the refreshed baseline is committed.
///
/// The `server*` points (thread-parallel: the replays spawn worker
/// threads, at the mercy of the runner's scheduler) are gated at
/// **double** the tolerance; the in-process engine points get the
/// tolerance as given.
#[must_use]
pub fn check(baseline: &PerfReport, fresh: &PerfReport, tolerance: f64) -> CheckReport {
    let mut lines = Vec::new();
    let mut new_points = Vec::new();
    for f in &fresh.records {
        let label = format!("{}/{}/{} m={}", f.mechanism, f.workload, f.engine, f.users);
        let tol = if f.engine.starts_with("server") {
            (tolerance * 2.0).min(0.95)
        } else {
            tolerance
        };
        match baseline.find(&f.mechanism, &f.workload, &f.engine, f.users) {
            Some(b) => lines.push(CheckLine {
                label,
                baseline_ops: b.ops_per_sec,
                fresh_ops: f.ops_per_sec,
                ratio: f.ops_per_sec / b.ops_per_sec,
                regressed: f.ops_per_sec < (1.0 - tol) * b.ops_per_sec,
            }),
            None => new_points.push(label),
        }
    }
    CheckReport { lines, new_points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osp_workload::shapes;

    #[test]
    fn quick_report_covers_every_registered_workload() {
        let report = run(true);
        assert!(report.quick);
        // Every registered source contributes its quick sizes under
        // the incremental engine (rebuild too, up to its cap) — an
        // unregistered or panicking generator fails here, in tier-1,
        // before the next perf run trips over it.
        for source in registry() {
            let mechanism = if source.substitutable() {
                "subston"
            } else {
                "addon"
            };
            for m in source.perf_sizes(true) {
                let rec = report
                    .find(mechanism, source.name(), "incremental", m)
                    .unwrap_or_else(|| panic!("{}/incremental m={m}", source.name()));
                assert!(rec.ops_per_sec > 0.0);
                if m <= source.rebuild_cap(true) {
                    let rec = report
                        .find(mechanism, source.name(), "rebuild", m)
                        .unwrap_or_else(|| panic!("{}/rebuild m={m}", source.name()));
                    assert!(rec.ops_per_sec > 0.0);
                }
                if source.bench_regret() {
                    assert!(report.find("regret", source.name(), "-", m).is_some());
                }
            }
        }
        let rec = report
            .find("addon", "longlived_z120", "incremental", 500)
            .expect("longlived quick point");
        assert_eq!(rec.slots, shapes::LONG_SLOTS);
        let server_users = SERVER_GAMES as u32 * SERVER_USERS_PER_GAME;
        let multigame = multigame_workload_name();
        for (mechanism, _) in SERVER_SOURCES {
            for engine in ["server1", "server4"] {
                let rec = report
                    .find(mechanism, &multigame, engine, server_users)
                    .unwrap_or_else(|| panic!("{mechanism}/{engine}"));
                assert!(rec.ops_per_sec > 0.0);
            }
        }
        // One speedup entry per point measured under both engines.
        assert!(report.speedup_incremental_over_rebuild.len() >= registry().len());
    }

    fn point(engine: &str, users: u32, ops: f64) -> BenchRecord {
        BenchRecord {
            mechanism: "addon".into(),
            workload: "uniform_z20".into(),
            engine: engine.into(),
            users,
            slots: shapes::SLOTS,
            iters: 1,
            elapsed_s: 1.0,
            ops_per_sec: ops,
        }
    }

    fn report_of(records: Vec<BenchRecord>) -> PerfReport {
        PerfReport {
            schema_version: 3,
            quick: true,
            records,
            speedup_incremental_over_rebuild: Vec::new(),
        }
    }

    #[test]
    fn check_flags_regressions_and_tolerates_noise_and_new_points() {
        let baseline = report_of(vec![
            point("incremental", 1_000, 100.0),
            point("rebuild", 1_000, 100.0),
        ]);
        let fresh = report_of(vec![
            point("incremental", 1_000, 90.0), // within 15% tolerance
            point("rebuild", 1_000, 80.0),     // 20% drop: regression
            point("server4", 4_000, 50.0),     // no baseline: new point
        ]);
        let result = check(&baseline, &fresh, 0.15);
        assert_eq!(result.lines.len(), 2);
        assert!(!result.lines[0].regressed);
        assert!(result.lines[1].regressed);
        assert!(!result.passed());
        assert_eq!(result.regressions().count(), 1);
        assert_eq!(
            result.new_points,
            vec!["addon/uniform_z20/server4 m=4000".to_owned()]
        );
        // Exactly at the tolerance boundary is not a regression.
        let boundary = report_of(vec![point("incremental", 1_000, 85.0)]);
        assert!(check(&baseline, &boundary, 0.15).passed());
        // Thread-parallel `server*` points get double tolerance: a 25%
        // drop passes at 0.15 (gate 30%), a 35% drop does not.
        let server_baseline = report_of(vec![point("server4", 4_000, 100.0)]);
        let wobble = report_of(vec![point("server4", 4_000, 75.0)]);
        assert!(check(&server_baseline, &wobble, 0.15).passed());
        let drop = report_of(vec![point("server4", 4_000, 65.0)]);
        assert!(!check(&server_baseline, &drop, 0.15).passed());
    }

    #[test]
    fn report_serializes_and_round_trips() {
        let report = PerfReport {
            schema_version: 3,
            quick: true,
            records: vec![BenchRecord {
                mechanism: "addon".into(),
                workload: "uniform_z20".into(),
                engine: "incremental".into(),
                users: 1_000,
                slots: shapes::SLOTS,
                iters: 3,
                elapsed_s: 0.5,
                ops_per_sec: 120_000.0,
            }],
            speedup_incremental_over_rebuild: vec![(
                "addon".into(),
                "uniform_z20".into(),
                1_000,
                4.2,
            )],
        };
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: PerfReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
