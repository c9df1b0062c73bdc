//! Child-process modes: one batch pass each, in a fresh process.
//!
//! `cli ARGS...` is the untraced pass: exactly what `mira-mine ARGS...`
//! does. The other modes are traced passes: the same work as a
//! sequence of calls into the crates' public functions, each timed from
//! outside.

use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

use bgq_core::analysis::{Analysis, MIN_FIT_SAMPLES};
use bgq_core::failure_rates::{by_consumed_core_hours, by_core_hours, by_scale, by_tasks};
use bgq_core::filtering::{interruption_stats_indexed, FilterConfig};
use bgq_core::fitting::{fit_by_class_indexed, fit_interruption_intervals_indexed};
use bgq_core::index::DatasetIndex;
use bgq_core::io_analysis::io_outcome_stats;
use bgq_core::jobstats::{
    class_breakdown_indexed, per_project, per_user, size_mix, user_caused_share_indexed,
    DatasetTotals, TemporalProfile,
};
use bgq_core::lifetime::lifetime_series_indexed;
use bgq_core::locality::{locality_map_indexed, Level};
use bgq_core::prediction::{predict_and_evaluate, PredictorConfig};
use bgq_core::queueing::{mean_utilization, waits_by_queue, waits_by_size};
use bgq_core::ras_analysis::{breakdown, user_event_correlation_indexed};
use bgq_logs::snapshot::{self, PartitionMap};
use bgq_logs::store::{Dataset, LoadOptions, SourceAvailability};
use bgq_model::Severity;

use crate::proc::{report, timed};

type Failure = Box<dyn std::error::Error>;

/// Runs child mode `args[0]` with the rest as its arguments.
pub fn main(args: &[String]) -> ExitCode {
    let rest: Vec<&str> = args.iter().skip(1).map(String::as_str).collect();
    let result = match args.first().map(String::as_str) {
        Some("cli") => cli(args[1..].to_vec()),
        Some("layers") => layers(&rest),
        Some("bundles") => bundles(&rest),
        other => Err(format!("unknown child mode {other:?}").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cli(args: Vec<String>) -> Result<(), Failure> {
    let out = bgq_cli::run(&args)?;
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "{out}")?;
    stdout.flush()?;
    report(&[]);
    Ok(())
}

/// The CLI's strict snapshot load (`analyze DIR` without flags).
fn load(dir: &Path) -> Result<(Dataset, SourceAvailability, PartitionMap), Failure> {
    let opts = LoadOptions {
        max_reject_ratio: 0.0,
        degraded: false,
        ..LoadOptions::default()
    };
    let (ds, rep) = snapshot::read_dir_with(dir, &opts)?;
    Ok((ds, rep.load.availability(), rep.partitions))
}

fn arg<'a>(args: &[&'a str], i: usize, what: &str) -> Result<&'a str, Failure> {
    args.get(i)
        .copied()
        .ok_or_else(|| format!("missing {what}").into())
}

/// `layers DIR THREADS`: load → index → analysis, as `analyze` runs
/// them, optionally capped at THREADS worker threads (0 = default).
fn layers(args: &[&str]) -> Result<(), Failure> {
    let dir = Path::new(arg(args, 0, "DIR")?);
    let threads: usize = arg(args, 1, "THREADS")?.parse()?;
    let run = || -> Result<(), Failure> {
        let (loaded, read_ms) = timed(|| load(dir));
        let (ds, avail, parts) = loaded?;
        let (idx, index_ms) =
            timed(|| DatasetIndex::build_partitioned(&ds, &parts, &FilterConfig::default()));
        let (a, analysis_ms) = timed(|| Analysis::run_indexed(&idx).mark_degraded(&avail));
        black_box(&a);
        report(&[
            ("read_ms", read_ms),
            ("index_ms", index_ms),
            ("analysis_ms", analysis_ms),
        ]);
        Ok(())
    };
    if threads == 0 {
        run()
    } else {
        bgq_par::with_max_threads(threads, run)
    }
}

/// `bundles DIR`: the first RAS↔job join, then each analysis bundle of
/// `Analysis::run_indexed`, one after another.
fn bundles(args: &[&str]) -> Result<(), Failure> {
    let dir = Path::new(arg(args, 0, "DIR")?);
    let (ds, _, parts) = load(dir)?;
    let idx = DatasetIndex::build_partitioned(&ds, &parts, &FilterConfig::default());
    let idx = &idx;
    let jobs = idx.jobs;
    let t = |f: &dyn Fn()| timed(f).1;
    let times = [
        (
            "join_ms",
            t(&|| {
                black_box(idx.join(Severity::Warn));
            }),
        ),
        (
            "fit_ms",
            t(&|| {
                black_box(fit_by_class_indexed(idx, MIN_FIT_SAMPLES));
                black_box(fit_interruption_intervals_indexed(idx));
            }),
        ),
        (
            "lifetime_ms",
            t(&|| {
                black_box(lifetime_series_indexed(idx, 90));
            }),
        ),
        (
            "ras_ms",
            t(&|| {
                black_box(user_event_correlation_indexed(idx, Severity::Warn));
                black_box(breakdown(idx.ras, 10));
            }),
        ),
        (
            "io_ms",
            t(&|| {
                black_box(io_outcome_stats(jobs, idx.io));
            }),
        ),
        (
            "predict_ms",
            t(&|| {
                black_box(predict_and_evaluate(
                    idx.ras,
                    &idx.filter.incidents,
                    &PredictorConfig::default(),
                ));
            }),
        ),
        (
            "interruptions_ms",
            t(&|| {
                black_box(interruption_stats_indexed(idx));
            }),
        ),
        (
            "locality_ms",
            t(&|| {
                black_box(locality_map_indexed(idx, Severity::Fatal, Level::Board));
                black_box(locality_map_indexed(idx, Severity::Fatal, Level::Rack));
            }),
        ),
        (
            "jobs_ms",
            t(&|| {
                black_box(DatasetTotals::compute(jobs));
                black_box(size_mix(jobs));
                black_box(per_user(jobs));
                black_box(per_project(jobs));
                black_box(class_breakdown_indexed(idx));
                black_box(user_caused_share_indexed(idx));
            }),
        ),
        (
            "rates_ms",
            t(&|| {
                black_box((
                    by_scale(jobs),
                    by_tasks(jobs),
                    by_core_hours(jobs),
                    by_consumed_core_hours(jobs),
                ));
            }),
        ),
        (
            "queueing_ms",
            t(&|| {
                black_box((
                    waits_by_size(jobs),
                    waits_by_queue(jobs),
                    mean_utilization(jobs, &bgq_model::Machine::MIRA),
                ));
            }),
        ),
        (
            "temporal_ms",
            t(&|| {
                black_box(TemporalProfile::compute(jobs.iter().map(|j| j.queued_at)));
                black_box(TemporalProfile::compute(
                    jobs.iter().filter(|j| j.exit_code != 0).map(|j| j.ended_at),
                ));
            }),
        ),
    ];
    report(&times);
    Ok(())
}
