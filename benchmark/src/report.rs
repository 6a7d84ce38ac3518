//! The run report: metrics by name, request accounting per phase, the
//! output checks, and the final one-line JSON result.

use std::collections::BTreeMap;

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("events_per_s", "events/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("slot_p50_us", "us"),
    ("slot_p99_us", "us"),
    ("cpu_us_per_req", "us"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (traced runs): name and unit. A layer a workload
/// does not run reports 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("serve.self_us_per_req", "us"),
    ("serve.req_bytes_per_req", "B"),
    ("serve.resp_bytes_per_req", "B"),
    ("protocol.decode_us_per_req", "us"),
    ("protocol.encode_us_per_req", "us"),
    ("protocol.decode_us.arrive", "us"),
    ("protocol.encode_us.tick", "us"),
    ("shard.submit_us_per_req", "us"),
    ("shard.handoff_us_per_req", "us"),
    ("shard.queue_full_retries_per_req", "count"),
    ("shard.queue_depth_max", "count"),
    ("game.handle_us.create", "us"),
    ("game.handle_us.arrive", "us"),
    ("game.handle_us.tick", "us"),
    ("game.handle_us.expire", "us"),
    ("game.decimals_per_req", "count"),
    ("wal.append_us_per_record", "us"),
    ("wal.record_bytes", "B"),
    ("wal.logged_share", "share"),
    ("wal.checkpoints", "count"),
    ("wal.checkpoint_ms_p50", "ms"),
    ("wal.checkpoint_ms_max", "ms"),
    ("wal.checkpoint_bytes", "B"),
    ("addon.submit_us_per_bid", "us"),
    ("addon.slot_us_p50", "us"),
    ("addon.slot_us_p99", "us"),
    ("addon.serviced_share", "share"),
    ("subston.submit_us_per_bid", "us"),
    ("subston.slot_us_p50", "us"),
    ("subston.slot_us_p99", "us"),
    ("subston.serviced_share", "share"),
    ("workload.sample_s", "s"),
    ("workload.encode_s", "s"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.late_max_ms", "ms"),
    ("failed_share", "share"),
    ("trace.overhead_share", "share"),
    ("trace.spans", "count"),
];

/// Everything one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, (f64, Option<usize>)>,
    /// (phase, requests sent, requests failed).
    phases: Vec<(String, u64, u64)>,
    problems: Vec<String>,
    notes: Vec<String>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .unwrap_or_else(|| panic!("`{name}` is not a declared metric"))
}

impl Report {
    /// Records a metric (with the sample count behind a percentile or
    /// median).
    pub fn set(&mut self, name: &'static str, value: f64, samples: Option<usize>) {
        unit_of(name);
        self.values.insert(name, (value, samples));
    }

    /// Records a request phase.
    pub fn phase(&mut self, name: impl Into<String>, sent: u64, failed: u64) {
        self.phases.push((name.into(), sent, failed));
    }

    /// Records a failed output check.
    pub fn problem(&mut self, problem: impl Into<String>) {
        self.problems.push(problem.into());
    }

    /// Records a line for the human-readable part of the output.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Requests attempted over every phase.
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.1).sum()
    }

    /// Requests failed over every phase.
    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.2).sum()
    }

    /// `true` when every check passed and nothing failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed() == 0 && self.attempted() > 0
    }

    /// Prints the human-readable report, then the JSON result line with
    /// the end-to-end (`traced == false`) or per-layer metrics.
    pub fn print(&self, traced: bool) {
        for note in &self.notes {
            println!("{note}");
        }
        for (phase, sent, failed) in &self.phases {
            println!(
                "phase {phase}: sent {sent}, succeeded {}, failed {failed}",
                sent - failed
            );
        }
        for problem in &self.problems {
            println!("check FAILED: {problem}");
        }
        if self.problems.is_empty() {
            println!("checks: all passed");
        }
        let declared: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        for (name, (value, samples)) in &self.values {
            let samples = samples.map_or(String::new(), |n| format!(" (n={n})"));
            println!("metric {name} = {value} {}{samples}", unit_of(name));
        }
        let metrics: Vec<String> = declared
            .iter()
            .map(|(name, unit)| {
                let value = self.values.get(name).map_or(0.0, |v| v.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted(),
            self.failed(),
            metrics.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// metrics this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_declared_metrics() {
        let path = crate::binary::repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let doc: Value = serde_json::from_str(&text).unwrap();
        let Value::Object(doc) = doc else {
            panic!("not an object")
        };
        for (key, declared) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Some(Value::Array(items)) = doc.get(key) else {
                panic!("no {key}")
            };
            let listed: Vec<(String, String)> = items
                .iter()
                .map(|item| {
                    let Value::Object(m) = item else {
                        panic!("bad {key} entry")
                    };
                    (
                        m["name"].as_str().unwrap().to_string(),
                        m["unit"].as_str().unwrap().to_string(),
                    )
                })
                .collect();
            let expected: Vec<(String, String)> = declared
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
    }

    #[test]
    fn failures_make_a_run_incorrect() {
        let mut report = Report::default();
        report.phase("saturation", 10, 0);
        assert!(report.correct());
        report.phase("open_loop", 10, 1);
        assert!(!report.correct());
        assert_eq!((report.attempted(), report.failed()), (20, 1));
    }
}
