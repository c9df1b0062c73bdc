//! `serve-live-365d`: the always-on daemon under a live feed.
//!
//! The daemon (`mira-mine serve`, CLI defaults: 200 ms poll, 4 workers)
//! starts on 365 committed days of full-machine Mira. A writer commits
//! one more day per second, and an open-loop generator sends the mixed
//! query set at a fixed rate over two connections.

use std::collections::BTreeMap;
use std::io::{BufRead as _, BufReader};
use std::path::Path;
use std::process::{Child, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bgq_core::index::IndexBuilder;
use bgq_logs::snapshot::{self, PartitionMap};
use bgq_logs::store::LoadOptions;
use bgq_serve::{
    epoch_of, parse_query, respond, Client, Epoch, EpochStore, Ingestor, QuarantinedSegment,
    ServerOptions,
};
use bgq_sim::{LiveEmitter, SimConfig};

use crate::analyze::LayerProbe;
use crate::metrics::Report;
use crate::proc::{ms, peak_rss_kb, stop, timed};
use crate::sched::{Schedule, Timing};
use crate::stats::{mean, median, percentile, tail};
use crate::{Ctx, Failure};

/// Days committed before the daemon starts.
const SEED_DAYS: usize = 365;
/// Open-loop rate, queries per second, and the lanes (one thread and
/// one connection each) that carry it.
const RATE: u32 = 5_000;
const LANES: u32 = 2;
/// The writer's mean commit interval (the `gen --live` default). Each
/// commit is offset by a seeded jitter of up to half an interval: at
/// exact one-second ticks every commit would land at nearly the same
/// phase of the daemon's 200 ms poll loop, and one run's publish lags
/// would all share one random phase.
const COMMIT_EVERY: Duration = Duration::from_secs(1);
/// The daemon's defaults, for the in-process daemon of the traced run.
const POLL: Duration = Duration::from_millis(200);
const WORKERS: usize = 4;
const SETUPS: usize = 3;
/// The generator fell behind its schedule when its own lateness at the
/// 99th percentile exceeds this; the run is then invalid.
const MAX_GENERATOR_LATE_MS: f64 = 5.0;

/// The mixed query set, cycled; `USER` takes a user id drawn from the
/// seed.
const MIX: [&str; 10] = [
    "STATS",
    "MTTI",
    "MTTI FATAL",
    "RATE-BY-SCALE",
    "AFFECTED FATAL",
    "AFFECTED WARN",
    "TOPK 10",
    "USER",
    "USER",
    "USER",
];
/// The verbs, for per-verb `respond` timings.
const VERBS: [&str; 6] = ["USER", "MTTI", "RATE-BY-SCALE", "AFFECTED", "TOPK", "STATS"];

/// SplitMix64: user ids from the seed without a dependency.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The `seq`-th query of the schedule.
fn query_line(seed: u64, users: u32, seq: u64) -> String {
    match MIX[(seq % MIX.len() as u64) as usize] {
        "USER" => format!(
            "USER {}",
            splitmix(seed ^ seq.rotate_left(17)) % u64::from(users.max(1))
        ),
        q => q.to_owned(),
    }
}

/// One answered (or failed) query.
struct Obs {
    timing: Timing,
    ok: bool,
    epoch: u64,
    /// Days the epoch covers, from a `STATS` reply.
    days: Option<usize>,
}

fn observe(timing: Timing, reply: &std::io::Result<String>) -> Obs {
    let reply = reply.as_deref().unwrap_or("");
    let epoch = epoch_of(reply);
    let days = reply
        .lines()
        .find_map(|l| l.strip_prefix("days "))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|d| d.parse().ok());
    Obs {
        timing,
        ok: epoch.is_some(),
        epoch: epoch.unwrap_or(0),
        days,
    }
}

/// One lane of the open-loop generator: sends its share of the
/// schedule until `end`, timing each query from its due time.
fn lane(addr: &str, sched: Schedule, lane: u32, end: Instant, seed: u64, users: u32) -> Vec<Obs> {
    let mut out = Vec::new();
    let mut client = Client::connect(addr);
    let mut free = Instant::now();
    for k in 0.. {
        let due = sched.due(lane, k);
        if due >= end {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let line = query_line(seed, users, sched.seq(lane, k));
        let sent = Instant::now();
        let reply = match client.as_mut() {
            Ok(c) => c.query(&line),
            Err(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
        };
        let replied = Instant::now();
        if reply.is_err() {
            client = Client::connect(addr);
        }
        out.push(observe(
            Timing {
                due,
                free,
                sent,
                replied,
            },
            &reply,
        ));
        free = replied;
    }
    out
}

/// A committed day: when its MANIFEST line landed, the manifest's day
/// count after it, and how long the append took.
struct Commit {
    at: Instant,
    days: usize,
    append_ms: f64,
}

/// Commits one day per interval from `start` until `end`.
fn writer(
    emitter: &mut LiveEmitter,
    seed: u64,
    start: Instant,
    end: Instant,
) -> Result<Vec<Commit>, Failure> {
    let mut out = Vec::new();
    for k in 1u32.. {
        let jitter =
            COMMIT_EVERY.mul_f64((splitmix(seed ^ (u64::from(k) << 40)) % 1000) as f64 / 2000.0);
        let at = start + COMMIT_EVERY * k + jitter;
        if at >= end {
            break;
        }
        std::thread::sleep(at.saturating_duration_since(Instant::now()));
        let (emitted, append_ms) = timed(|| emitter.emit_next_day());
        if emitted?.is_none() {
            return Err("live feed ran out of days".into());
        }
        out.push(Commit {
            at: Instant::now(),
            days: emitter.emitted_days(),
            append_ms,
        });
    }
    Ok(out)
}

/// One measured window: the writer and the generator against `addr`,
/// then `STATS` until the daemon shows every committed day.
struct Window {
    /// The generator's queries.
    obs: Vec<Obs>,
    /// The `STATS` replies after the window, until caught up.
    catch_up: Vec<Obs>,
    commits: Vec<Commit>,
}

fn window(ctx: &Ctx, addr: &str, emitter: &mut LiveEmitter, users: u32) -> Result<Window, Failure> {
    let start = Instant::now();
    let end = start + ctx.budget;
    let sched = Schedule::new(start, RATE, LANES);
    let (commits, obs) = std::thread::scope(|s| {
        let lanes: Vec<_> = (0..LANES)
            .map(|l| s.spawn(move || lane(addr, sched, l, end, ctx.seed, users)))
            .collect();
        let commits = writer(emitter, ctx.seed, start, end);
        let obs: Vec<Obs> = lanes
            .into_iter()
            .flat_map(|h| h.join().expect("generator lane does not panic"))
            .collect();
        (commits, obs)
    });
    let commits = commits?;
    let want = emitter.emitted_days();
    let mut client = Client::connect(addr)?;
    let give_up = Instant::now() + Duration::from_secs(60);
    let mut catch_up = Vec::new();
    loop {
        let sent = Instant::now();
        let reply = client.query("STATS");
        let o = observe(
            Timing {
                due: sent,
                free: sent,
                sent,
                replied: Instant::now(),
            },
            &reply,
        );
        let done = o.days.is_some_and(|d| d >= want);
        catch_up.push(o);
        if done {
            break;
        }
        if Instant::now() > give_up {
            return Err(format!("daemon never showed all {want} committed days").into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(Window {
        obs,
        catch_up,
        commits,
    })
}

impl Window {
    /// Each query's latency (`Timing::latency`) in ms; a failed query is
    /// infinitely late.
    fn latencies(&self) -> Vec<f64> {
        self.obs
            .iter()
            .map(|o| {
                if o.ok {
                    ms(o.timing.latency())
                } else {
                    f64::INFINITY
                }
            })
            .collect()
    }

    fn generator_late_ms(&self) -> f64 {
        let late: Vec<f64> = self
            .obs
            .iter()
            .map(|o| ms(o.timing.generator_late()))
            .collect();
        percentile(&late, 0.99)
    }

    /// Per committed day: ms from its commit to the first reply whose
    /// epoch covers it.
    fn publish_lags(&self) -> Vec<f64> {
        let mut epochs: BTreeMap<u64, (Instant, Option<usize>)> = BTreeMap::new();
        for o in self.obs.iter().chain(&self.catch_up).filter(|o| o.ok) {
            let e = epochs.entry(o.epoch).or_insert((o.timing.replied, None));
            e.0 = e.0.min(o.timing.replied);
            e.1 = e.1.or(o.days);
        }
        self.commits
            .iter()
            .filter_map(|c| {
                let seen = epochs
                    .values()
                    .filter(|(_, d)| d.is_some_and(|d| d >= c.days))
                    .map(|(t, _)| *t)
                    .min()?;
                Some(ms(seen.saturating_duration_since(c.at)))
            })
            .collect()
    }

    /// Counts the window's queries and checks the generator kept up.
    fn account(&self, rep: &mut Report) {
        for o in self.obs.iter() {
            rep.op(o.ok);
        }
        let late = self.generator_late_ms();
        eprintln!("generator: p99 own lateness {late:.3} ms");
        rep.check(
            &format!("generator kept its schedule (p99 own lateness {late:.3} ms <= {MAX_GENERATOR_LATE_MS} ms)"),
            late <= MAX_GENERATOR_LATE_MS,
        );
    }
}

/// The daemon as `mira-mine serve DIR --port 0` in a child process.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(dir: &Path) -> Result<Daemon, Failure> {
        let dir = dir.to_str().ok_or("work dir is not UTF-8")?;
        let mut child = crate::proc::command(&["cli", "--quiet", "serve", dir, "--port", "0"])?
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut banner = String::new();
        let read =
            BufReader::new(child.stdout.take().expect("stdout is piped")).read_line(&mut banner);
        let addr = banner
            .split(" on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_owned);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon { child, addr }),
            _ => {
                stop(&mut child);
                Err(format!("daemon did not start: {banner:?}").into())
            }
        }
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_kb(&self.child.id().to_string()).map(|kb| kb as f64 / 1024.0)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        stop(&mut self.child);
    }
}

/// A fresh live directory with the seed days committed and a daemon
/// serving it.
fn set_up(ctx: &Ctx, config: &SimConfig, i: usize) -> Result<(LiveEmitter, Daemon, f64), Failure> {
    let dir = ctx.work.join(format!("live-{i}"));
    let start = Instant::now();
    let mut emitter = LiveEmitter::new(config, &dir)?;
    for _ in 0..SEED_DAYS {
        emitter
            .emit_next_day()?
            .ok_or("trace shorter than the seed days")?;
    }
    let daemon = Daemon::start(&dir)?;
    Ok((emitter, daemon, start.elapsed().as_secs_f64()))
}

pub fn run(ctx: &Ctx) -> Result<Report, Failure> {
    let mut rep = Report::new(ctx.traced);
    let windows = if ctx.traced { 2 } else { 1 };
    let mut config = SimConfig::mira_2k_days().with_seed(ctx.seed);
    config.days = u32::try_from(SEED_DAYS as u64 + windows * ctx.budget.as_secs() + 60)?;
    let users = config.n_users;

    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..if ctx.traced { 1 } else { SETUPS } {
        // Stops the previous daemon; its directory stays until the run
        // ends, as deleting it would slow this set-up's writes.
        drop(kept.take());
        let s = set_up(ctx, &config, i)?;
        setup_s.push(s.2);
        kept = Some(s);
    }
    let (mut emitter, daemon, _) = kept.expect("at least one set-up");
    let dir = emitter.root().to_owned();

    let plain = window(ctx, &daemon.addr, &mut emitter, users)?;
    plain.account(&mut rep);
    if !ctx.traced {
        let rss = daemon.peak_rss_mb().ok_or("daemon memory unreadable")?;
        check_equivalence(&mut rep, &daemon.addr, &dir, ctx.seed, users)?;
        drop(daemon);
        let lat = plain.latencies();
        let lags = plain.publish_lags();
        eprintln!("publish lags (ms): {lags:.1?}");
        let profile: Vec<String> = [0.5, 0.75, 0.8, 0.9, 0.95, 0.99, 0.999]
            .iter()
            .map(|&p| format!("p{} {:.3}", p * 100.0, percentile(&lat, p)))
            .collect();
        eprintln!("query latency (ms): {}", profile.join(", "));
        rep.set("setup_s", median(&setup_s), setup_s.len());
        rep.set("op_p50_ms", median(&lat), lat.len());
        rep.set("op_tail_ms", tail(&lat).1, lat.len());
        rep.set("peak_rss_mb", rss, 1);
        rep.set("publish_lag_p50_ms", median(&lags), lags.len());
        return Ok(rep);
    }
    drop(daemon);

    // Traced window: the same daemon composed in this process, so each
    // poll and each reply can be timed from outside.
    let load = daemon_load();
    let store = Arc::new(EpochStore::new());
    let mut ingestor = Ingestor::new(&dir, Arc::clone(&store), load);
    ingestor.poll()?;
    let server = bgq_serve::start(
        Arc::clone(&store),
        &ServerOptions {
            addr: "127.0.0.1:0".to_owned(),
            workers: WORKERS,
        },
    )?;
    let addr = server.addr().to_string();
    let stop_polling = AtomicBool::new(false);
    let polls: Mutex<Vec<(f64, usize)>> = Mutex::new(Vec::new());
    let swaps_before = store.swaps();
    let traced = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop_polling.load(Ordering::SeqCst) {
                let (days, t) = timed(|| ingestor.poll());
                match days {
                    Ok(0) => {}
                    Ok(n) => polls.lock().expect("poll log lock").push((t, n)),
                    Err(e) => eprintln!("live ingest: {e}"),
                }
                std::thread::sleep(POLL);
            }
        });
        let w = window(ctx, &addr, &mut emitter, users);
        stop_polling.store(true, Ordering::SeqCst);
        w
    })?;
    traced.account(&mut rep);
    let swaps = store.swaps() - swaps_before;
    check_equivalence(&mut rep, &addr, &dir, ctx.seed, users)?;
    server.shutdown();

    let polls = polls.into_inner().expect("poll log lock");
    let poll_ms: Vec<f64> = polls.iter().map(|p| p.0).collect();
    let per_poll: Vec<f64> = polls.iter().map(|p| p.1 as f64).collect();
    rep.set("serve.poll_ms", median(&poll_ms), poll_ms.len());
    rep.set("serve.days_per_poll", mean(&per_poll), per_poll.len());
    rep.set("serve.epoch_swaps", swaps as f64, 1);
    let appends: Vec<f64> = plain
        .commits
        .iter()
        .chain(&traced.commits)
        .map(|c| c.append_ms)
        .collect();
    rep.set("logs.append_day_ms", median(&appends), appends.len());
    rep.set(
        "generator.late_ms",
        traced.generator_late_ms(),
        traced.obs.len(),
    );

    // `respond` on the final epoch, per verb and over the mix.
    let epoch = store.current();
    let mut by_verb: Vec<Vec<f64>> = vec![Vec::new(); VERBS.len()];
    let mut mix_us = Vec::new();
    for seq in 0..2_000u64 {
        let line = query_line(ctx.seed, users, seq);
        let q = parse_query(&line)?;
        let (reply, t) = timed(|| respond(&epoch, &q));
        std::hint::black_box(reply);
        let verb = VERBS
            .iter()
            .position(|v| line.split(' ').next() == Some(v))
            .expect("mix verbs are known");
        by_verb[verb].push(t * 1e3);
        mix_us.push(t * 1e3);
    }
    for (verb, us) in VERBS.iter().zip(&by_verb) {
        rep.set(&format!("serve.respond_us.{verb}"), median(us), us.len());
    }
    let round_trip_us: Vec<f64> = traced
        .obs
        .iter()
        .map(|o| ms(o.timing.round_trip()) * 1e3)
        .collect();
    rep.set(
        "serve.transport_us",
        median(&round_trip_us) - median(&mix_us),
        round_trip_us.len(),
    );
    let (plain_lat, traced_lat) = (plain.latencies(), traced.latencies());
    rep.set(
        "trace_overhead_pct",
        (median(&traced_lat) / median(&plain_lat) - 1.0) * 100.0,
        traced_lat.len(),
    );
    drop(epoch);
    drop(store);
    drop(emitter);

    let mut probe = LayerProbe::default();
    for _ in 0..2 {
        probe.round(&dir)?;
    }
    probe.emit(&mut rep, false);
    Ok(rep)
}

/// Every verb's reply on the final live epoch must equal `respond` on a
/// cold batch `Epoch::build` over the same directory.
fn check_equivalence(
    rep: &mut Report,
    addr: &str,
    dir: &Path,
    seed: u64,
    users: u32,
) -> Result<(), Failure> {
    let mut client = Client::connect(addr)?;
    let lines: Vec<String> = (0..MIX.len() as u64)
        .map(|seq| query_line(seed, users, seq))
        .collect();
    let live: Vec<String> = lines
        .iter()
        .map(|l| client.query(l))
        .collect::<Result<_, _>>()?;
    let epoch_no = epoch_of(&live[0]).ok_or("live STATS reply has no epoch")?;
    let cold = batch_epoch(dir, epoch_no)?;
    for (line, reply) in lines.iter().zip(&live) {
        let want = respond(&cold, &parse_query(line)?);
        rep.check(
            &format!("{line}: live reply equals a cold batch build"),
            *reply == want,
        );
    }
    Ok(())
}

/// The daemon's load options (`serve` without `--max-reject-ratio`).
fn daemon_load() -> LoadOptions {
    LoadOptions {
        max_reject_ratio: 0.0,
        degraded: true,
        ..LoadOptions::default()
    }
}

/// What a cold batch load of `dir` answers from.
fn batch_epoch(dir: &Path, epoch_no: u64) -> Result<Epoch, Failure> {
    let load = daemon_load();
    let manifest = snapshot::read_manifest(dir)?;
    let (ds, report) = snapshot::read_dir_with(dir, &load)?;
    let quarantined = report
        .quarantined_segments()
        .into_iter()
        .map(|seg| QuarantinedSegment {
            table: seg.table,
            day: seg.day,
            reason: seg.quarantined.expect("quarantined segment has a reason"),
        })
        .collect();
    let parts = PartitionMap::of_dataset(&ds);
    Ok(Epoch::build(
        epoch_no,
        &ds,
        &parts,
        &manifest.days,
        &manifest.availability,
        &mut IndexBuilder::new(),
        quarantined,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(replied: Instant, epoch: u64, days: Option<usize>) -> Obs {
        let timing = Timing {
            due: replied,
            free: replied,
            sent: replied,
            replied,
        };
        Obs {
            timing,
            ok: true,
            epoch,
            days,
        }
    }

    #[test]
    fn lag_runs_to_the_first_reply_of_a_covering_epoch() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let w = Window {
            obs: vec![
                obs(at(0), 1, Some(365)),
                // Epoch 2 is first seen on a USER reply; a later STATS
                // reply says it covers 366 days.
                obs(at(300), 2, None),
                obs(at(350), 2, Some(366)),
                obs(at(1500), 3, None),
            ],
            catch_up: vec![obs(at(1600), 3, Some(367))],
            commits: vec![
                Commit {
                    at: at(100),
                    days: 366,
                    append_ms: 1.0,
                },
                Commit {
                    at: at(1100),
                    days: 367,
                    append_ms: 1.0,
                },
            ],
        };
        assert_eq!(w.publish_lags(), vec![200.0, 400.0]);
    }

    #[test]
    fn query_mix_is_fixed_by_the_seed() {
        let lines: Vec<String> = (0..20).map(|s| query_line(7, 900, s)).collect();
        assert_eq!(
            lines,
            (0..20).map(|s| query_line(7, 900, s)).collect::<Vec<_>>()
        );
        assert_eq!(lines[0], "STATS");
        assert_eq!(lines[10], "STATS");
        for line in &lines {
            let q = parse_query(line).expect("mix lines parse");
            if let bgq_serve::Query::User(id) = q {
                assert!(id < 900);
            }
        }
        assert_ne!(lines[7], query_line(8, 900, 7), "user ids follow the seed");
    }
}
