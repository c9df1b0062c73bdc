//! The metric catalog (mirrors `BENCHMARK.json`) and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// End-to-end metrics, `(name, unit)`: every workload reports all of
/// them on an untraced run. All are lower-is-better.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("publish_lag_p50_ms", "ms"),
];

/// Per-layer metrics of the traced run, `(name, unit)`. A workload
/// reports 0 for a layer it never calls.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("logs.snapshot_read_ms", "ms"),
    ("core.index_build_ms", "ms"),
    ("core.join_ms", "ms"),
    ("core.fit_ms", "ms"),
    ("core.lifetime_ms", "ms"),
    ("core.ras_ms", "ms"),
    ("core.io_ms", "ms"),
    ("core.predict_ms", "ms"),
    ("core.interruptions_ms", "ms"),
    ("core.locality_ms", "ms"),
    ("core.jobs_ms", "ms"),
    ("core.rates_ms", "ms"),
    ("core.queueing_ms", "ms"),
    ("core.temporal_ms", "ms"),
    ("core.analysis_ms", "ms"),
    ("analyze.unattributed_ms", "ms"),
    ("analyze.unattributed_pct", "%"),
    ("sim.generate_ms", "ms"),
    ("logs.csv_write_ms", "ms"),
    ("logs.csv_read_ms", "ms"),
    ("logs.snapshot_write_ms", "ms"),
    ("logs.snapshot_bytes_per_csv_byte", "ratio"),
    ("ingest.unattributed_ms", "ms"),
    ("ingest.unattributed_pct", "%"),
    ("serve.poll_ms", "ms"),
    ("serve.days_per_poll", "count"),
    ("serve.respond_us.USER", "us"),
    ("serve.respond_us.MTTI", "us"),
    ("serve.respond_us.RATE-BY-SCALE", "us"),
    ("serve.respond_us.AFFECTED", "us"),
    ("serve.respond_us.TOPK", "us"),
    ("serve.respond_us.STATS", "us"),
    ("serve.transport_us", "us"),
    ("logs.append_day_ms", "ms"),
    ("serve.epoch_swaps", "count"),
    ("generator.late_ms", "ms"),
    ("logs.snapshot_read.speedup", "x"),
    ("core.index_build.speedup", "x"),
    ("core.analysis.speedup", "x"),
    ("trace_overhead_pct", "%"),
    ("par.cores", "count"),
    ("par.threads", "count"),
];

/// Cores the machine offers.
#[must_use]
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One run's outcome: operation counts, correctness problems and the
/// metrics of the run's kind (end-to-end or per-layer).
pub struct Report {
    traced: bool,
    values: BTreeMap<&'static str, (f64, usize)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    #[must_use]
    pub fn new(traced: bool) -> Report {
        Report {
            traced,
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    fn catalog(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Records `value` for `name`, measured over `samples` samples.
    /// Panics on a name outside this run's catalog: that is a bug in
    /// the benchmark, not a measurement.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let (key, _) = self
            .catalog()
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a metric of this run"));
        self.values.insert(key, (value, samples));
    }

    /// Counts one operation (a batch pass or a query).
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts one correctness check as an operation; a mismatch is a
    /// failed operation and makes the run incorrect.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.op(ok);
        if !ok {
            self.problem(format!("check failed: {what}"));
        }
    }

    /// Records a problem that makes the run incorrect.
    pub fn problem(&mut self, msg: String) {
        eprintln!("perfbench: {msg}");
        self.problems.push(msg);
    }

    /// Prints the metric table and, as the last line of stdout, the
    /// result object. Nonzero exit when anything was wrong.
    pub fn emit(mut self) -> ExitCode {
        let mut table = format!(
            "cores {}, worker threads {}\n",
            cores(),
            bgq_par::max_workers()
        );
        let mut json = String::new();
        for &(name, unit) in self.catalog() {
            let (value, samples) = match self.values.get(name) {
                Some(&v) => v,
                None if self.traced => (0.0, 0),
                None => panic!("end-to-end metric {name} was not measured"),
            };
            let value = if value.is_finite() {
                value
            } else {
                self.problems.push(format!("{name} is not finite"));
                f64::MAX
            };
            let note = if samples == 0 {
                "  (layer not called)"
            } else {
                ""
            };
            let _ = writeln!(
                table,
                "{name:<36} {value:>14.4} {unit:<6} n={samples}{note}"
            );
            if !json.is_empty() {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        let correct = self.problems.is_empty() && self.failed == 0;
        print!("{table}");
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted,
            self.failed
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric or workload name: 1 to 64 letters, digits, `_`, `.` and
    /// `-`, starting with a letter or digit.
    pub fn valid_name(name: &str) -> bool {
        (1..=64).contains(&name.len())
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
    pub fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn name_rules() {
        for ok in [
            "setup_s",
            "serve.respond_us.RATE-BY-SCALE",
            "analyze-2001d",
            "9a",
            "a.b-c_d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_x",
            ".x",
            "-x",
            "a b",
            "a/b",
            "µs",
            "a%",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn unit_rules() {
        for ok in ["ms", "s", "1/s", "%", "MiB", "count", "us", "x"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "m s", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn catalog_names_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = bgq_obs::json::parse(text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .expect(key)
                .items()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
        for w in doc.get("workloads").expect("workloads").items() {
            let name = w
                .get("name")
                .and_then(|v| v.as_str())
                .expect("workload name");
            assert!(valid_name(name), "{name}");
            assert!(
                crate::Workload::parse(name).is_some(),
                "{name} has no runner"
            );
        }
    }

    #[test]
    #[should_panic(expected = "not a metric")]
    fn unknown_metric_is_a_bug() {
        Report::new(false).set("core.fit_ms", 1.0, 1);
    }
}
