//! Fresh child processes of this binary, and what they report back.
//!
//! Batch passes run in a fresh process each, as a CLI user pays cold
//! start-up on every run. A child prints the program's output on
//! stdout and, last, one `@perfbench key=value ...` line on stderr with
//! its own timings and peak resident memory.

use std::collections::HashMap;
use std::io::{self, Read as _};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const TAG: &str = "@perfbench";

/// What a finished child produced.
pub struct ChildRun {
    /// Spawn to exit.
    pub wall: Duration,
    /// Spawn to the first byte on stdout (`wall` when it printed none).
    pub first_byte: Duration,
    pub stdout: Vec<u8>,
    /// The child's `@perfbench` report.
    pub report: HashMap<String, f64>,
}

impl ChildRun {
    /// A value the child reported; an error names the missing key.
    pub fn get(&self, key: &str) -> io::Result<f64> {
        self.report
            .get(key)
            .copied()
            .ok_or_else(|| io::Error::other(format!("child did not report {key}")))
    }

    /// The child's peak resident memory in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        Ok(self.get("rss_kb")? / 1024.0)
    }
}

/// This binary in child mode with `args`.
pub fn command(args: &[&str]) -> io::Result<Command> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.arg("child").args(args);
    Ok(cmd)
}

/// Runs `perfbench child ARGS...` to completion. An error when it could
/// not run or exited nonzero.
pub fn run_child(args: &[&str]) -> io::Result<ChildRun> {
    let mut cmd = command(args)?;
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let start = Instant::now();
    let mut child = cmd.spawn()?;
    let mut stderr = child.stderr.take().expect("stderr is piped");
    let errs = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stderr.read_to_string(&mut text);
        text
    });
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let mut out = Vec::new();
    let mut buf = [0u8; 64 * 1024];
    let mut first_byte = None;
    loop {
        let n = stdout.read(&mut buf)?;
        if n == 0 {
            break;
        }
        first_byte.get_or_insert_with(|| start.elapsed());
        out.extend_from_slice(&buf[..n]);
    }
    let status = child.wait()?;
    let wall = start.elapsed();
    let errs = errs.join().expect("stderr reader does not panic");
    let mut report = HashMap::new();
    for line in errs.lines() {
        match line.strip_prefix(TAG) {
            Some(kvs) => {
                for kv in kvs.split_whitespace() {
                    if let Some((k, v)) = kv.split_once('=') {
                        if let Ok(v) = v.parse::<f64>() {
                            report.insert(k.to_owned(), v);
                        }
                    }
                }
            }
            None => eprintln!("  child: {line}"),
        }
    }
    if !status.success() {
        return Err(io::Error::other(format!(
            "child {args:?} exited with {status}"
        )));
    }
    Ok(ChildRun {
        wall,
        first_byte: first_byte.unwrap_or(wall),
        stdout: out,
        report,
    })
}

/// Child side: prints the `@perfbench` report line, adding this
/// process's peak resident memory.
pub fn report(values: &[(&str, f64)]) {
    let mut line = String::from(TAG);
    for (k, v) in values {
        line.push_str(&format!(" {k}={v}"));
    }
    if let Some(kb) = peak_rss_kb("self") {
        line.push_str(&format!(" rss_kb={kb}"));
    }
    eprintln!("{line}");
}

/// Peak resident set (`VmHWM`) of a process, in KiB. `pid` is a number
/// or `self`.
#[must_use]
pub fn peak_rss_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Stops a long-running child and waits until it has ended.
pub fn stop(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

/// Milliseconds in a duration, as a float.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with the milliseconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, ms(start.elapsed()))
}

/// Total size of the regular files under `dir`, in bytes.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Removes `dir` if it exists.
pub fn clear(dir: &Path) -> io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}
