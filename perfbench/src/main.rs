//! The repository's benchmark: three workloads over the whole path,
//! from simulation through persistence and analysis to the live daemon.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a
//! separate run that times each layer by timing calls into the crates'
//! public functions. Either way the outputs are checked, a table of
//! metrics goes to stdout and the last stdout line is the result
//! object. See `README.md` for the workloads and metrics.

mod analyze;
mod child;
mod metrics;
mod proc;
mod sched;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

type Failure = Box<dyn std::error::Error>;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Analyze2001d,
    ServeLive365d,
}

impl Workload {
    const ALL: [(&'static str, Workload); 2] = [
        ("analyze-2001d", Workload::Analyze2001d),
        ("serve-live-365d", Workload::ServeLive365d),
    ];

    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, w)| w)
    }
}

/// One run's settings.
pub struct Ctx {
    pub seed: u64,
    /// How long the run measures.
    pub budget: Duration,
    pub traced: bool,
    /// Scratch directory of this run, inside the working directory.
    pub work: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload analyze-2001d|serve-live-365d \
--seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<(Workload, Ctx), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let ctx = Ctx {
        seed: seed.ok_or("--seed is required")?,
        budget: Duration::from_secs(seconds),
        traced: traced.ok_or("--trace is required")?,
        work: PathBuf::from(".bench_work").join(format!("run-{}", std::process::id())),
    };
    Ok((workload, ctx))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("child") {
        return child::main(&args[1..]);
    }
    let (workload, ctx) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    bgq_obs::set_verbosity(bgq_obs::Verbosity::Quiet);
    if let Err(e) = proc::clear(&ctx.work).and_then(|()| std::fs::create_dir_all(&ctx.work)) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.work.display());
        return ExitCode::FAILURE;
    }
    let result = match workload {
        Workload::Analyze2001d => analyze::run(&ctx),
        Workload::ServeLive365d => serve::run(&ctx),
    };
    if let Err(e) = proc::clear(&ctx.work) {
        eprintln!("perfbench: cannot remove {}: {e}", ctx.work.display());
    }
    // Removes the shared parent too, unless another run still uses it.
    if let Some(parent) = ctx.work.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    match result {
        Ok(report) => report.emit(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
