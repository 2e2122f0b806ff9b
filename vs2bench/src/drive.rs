//! Drives the release `vs2d` binary as a child process and accounts for
//! the status of every line it answers.

use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use vs2_serve::{JobResult, JobStatus};

/// Worker threads of every `vs2d` run: the two cores of the reference
/// host.
pub const WORKERS: usize = 2;

/// Status counts over the jobs of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Jobs sent.
    pub attempted: u64,
    /// Answered `ok`.
    pub ok: u64,
    /// Answered `degraded` (XY-cut fallback).
    pub degraded: u64,
    /// Answered `quarantined`, `panicked` or `timed_out`.
    pub quarantined: u64,
    /// Answered `shed`.
    pub shed: u64,
    /// Answered `invalid`.
    pub invalid: u64,
}

impl Tally {
    /// Counts one answer.
    pub fn count(&mut self, status: JobStatus) {
        self.attempted += 1;
        match status {
            JobStatus::Ok => self.ok += 1,
            JobStatus::Degraded => self.degraded += 1,
            JobStatus::Quarantined | JobStatus::Panicked | JobStatus::TimedOut => {
                self.quarantined += 1
            }
            JobStatus::Shed => self.shed += 1,
            JobStatus::Invalid => self.invalid += 1,
        }
    }

    /// Adds another tally.
    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.degraded += o.degraded;
        self.quarantined += o.quarantined;
        self.shed += o.shed;
        self.invalid += o.invalid;
    }

    /// Jobs whose status is not `ok`.
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    /// The share of attempted jobs whose status is not `ok`.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed() as f64 / self.attempted as f64
    }

    /// One-line summary for the phase report on stderr.
    pub fn describe(&self) -> String {
        format!(
            "{} attempted, {} ok, {} degraded, {} quarantined, {} shed, {} invalid \
             (failed_frac {})",
            self.attempted,
            self.ok,
            self.degraded,
            self.quarantined,
            self.shed,
            self.invalid,
            self.failed_frac()
        )
    }
}

/// The result lines of a `vs2d` stdout, in order, with the status tally.
/// Quarantine and metrics records are skipped.
pub fn result_lines(stdout: &str) -> Result<(Vec<&str>, Vec<JobResult>, Tally), String> {
    let mut lines = Vec::new();
    let mut results = Vec::new();
    let mut tally = Tally::default();
    for line in stdout.lines() {
        if line.starts_with("{\"record\":") {
            continue;
        }
        let r: JobResult = serde_json::from_str(line)
            .map_err(|e| format!("unparseable vs2d result line `{line}`: {e}"))?;
        tally.count(r.status);
        lines.push(line);
        results.push(r);
    }
    Ok((lines, results, tally))
}

/// One finished `vs2d` run.
pub struct Run {
    /// Spawn-to-exit wall time.
    pub wall: Duration,
    /// Peak resident set size of the child, KiB (0 unless watched).
    pub peak_rss_kib: u64,
    /// Everything the child wrote to stdout.
    pub stdout: String,
}

/// Runs `vs2d --input <input> --workers 2 <flags>` to completion, its
/// stdout going to `out`. With `watch_rss` the child's peak resident set
/// is read from `/proc/<pid>/status` every 5 ms while it runs
/// (`getrusage` would also count the memory of this process, which the
/// child inherits until it execs). A run that exits non-zero for any
/// reason other than quarantined or invalid jobs (exit code 1) is an
/// error.
pub fn run(
    vs2d: &Path,
    input: &Path,
    flags: &[&str],
    out: &Path,
    watch_rss: bool,
) -> Result<Run, String> {
    let stdout = File::create(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let started = Instant::now();
    let mut child = Command::new(vs2d)
        .arg("--input")
        .arg(input)
        .args(["--workers", &WORKERS.to_string()])
        .args(flags)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot run {}: {e}", vs2d.display()))?;
    let status_file = format!("/proc/{}/status", child.id());
    let mut peak_rss_kib = 0;
    let status = loop {
        if !watch_rss {
            break child.wait();
        }
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) => {}
            Err(e) => break Err(e),
        }
        peak_rss_kib = peak_rss_kib.max(vm_hwm_kib(&status_file));
        std::thread::sleep(Duration::from_millis(5));
    }
    .map_err(|e| format!("waiting for vs2d: {e}"))?;
    let wall = started.elapsed();
    if !status.success() && status.code() != Some(1) {
        return Err(format!("vs2d exited with {status}"));
    }
    let stdout = std::fs::read_to_string(out).map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(Run {
        wall,
        peak_rss_kib,
        stdout,
    })
}

/// The `VmHWM` (peak resident set, KiB) of a `/proc/<pid>/status` file;
/// 0 when the file or the line is missing (the process has exited).
fn vm_hwm_kib(status_file: &str) -> u64 {
    std::fs::read_to_string(status_file)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_frac_counts_every_status_but_ok() {
        let mut t = Tally::default();
        for s in [
            JobStatus::Ok,
            JobStatus::Ok,
            JobStatus::Degraded,
            JobStatus::Shed,
            JobStatus::Invalid,
        ] {
            t.count(s);
        }
        assert_eq!(t.attempted, 5);
        assert_eq!(t.failed(), 3);
        assert!((t.failed_frac() - 0.6).abs() < 1e-12);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }

    #[test]
    fn quarantine_records_are_not_results() {
        let out = "{\"seq\":0,\"job_id\":\"job-0\",\"status\":\"ok\",\"extractions\":[]}\n\
                   {\"record\":\"quarantine\",\"seq\":1,\"job_id\":\"job-1\",\"attempts\":3,\"kind\":\"poison\",\"error\":\"x\"}\n";
        let (lines, results, tally) = result_lines(out).unwrap();
        assert_eq!(lines.len(), 1);
        assert_eq!(results[0].seq, 0);
        assert_eq!(tally.ok, 1);
    }
}
