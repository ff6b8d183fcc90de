//! Process and host readings from `/proc`, and the lock that keeps
//! workload processes from overlapping.

use std::fs::{self, File, TryLockError};
use std::path::Path;

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())?;
    Ok(kib / 1024.0)
}

/// CPU time counters, in clock ticks.
#[derive(Clone, Copy, Debug)]
pub struct CpuSample {
    /// All CPUs, every state.
    total: u64,
    /// All CPUs, idle or waiting for I/O.
    idle: u64,
    /// All CPUs, taken by the hypervisor for other guests.
    steal: u64,
    /// This process (user + system).
    own: u64,
}

impl CpuSample {
    pub fn now() -> Result<CpuSample, String> {
        let stat =
            fs::read_to_string("/proc/stat").map_err(|e| format!("reading /proc/stat: {e}"))?;
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .and_then(|line| line.strip_prefix("cpu "))
            .ok_or_else(|| "no cpu line in /proc/stat".to_string())?
            .split_whitespace()
            .map(|f| f.parse().map_err(|e| format!("/proc/stat: {e}")))
            .collect::<Result<_, _>>()?;
        // user nice system idle iowait irq softirq steal (guest time is
        // already counted in user)
        let field = |i: usize| fields.get(i).copied().unwrap_or(0);
        let own_stat = fs::read_to_string("/proc/self/stat")
            .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
        // fields after the parenthesised command name; utime and stime are
        // the 14th and 15th of the whole line
        let after_comm = own_stat
            .rsplit_once(')')
            .map(|(_, rest)| rest)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())?;
        let own_fields: Vec<&str> = after_comm.split_whitespace().collect();
        let own_field =
            |i: usize| -> u64 { own_fields.get(i).and_then(|f| f.parse().ok()).unwrap_or(0) };
        Ok(CpuSample {
            total: (0..8).map(field).sum(),
            idle: field(3) + field(4),
            steal: field(7),
            own: own_field(11) + own_field(12),
        })
    }
}

/// Shares of all CPU time between two samples.
#[derive(Clone, Copy, Debug)]
pub struct CpuShares {
    /// Busy time of every other process.
    pub other: f64,
    /// Time the hypervisor gave to other guests.
    pub steal: f64,
}

pub fn cpu_shares(before: CpuSample, after: CpuSample) -> CpuShares {
    let total = after.total.saturating_sub(before.total).max(1) as f64;
    let busy = (after.total - after.idle).saturating_sub(before.total - before.idle);
    let steal = after.steal.saturating_sub(before.steal);
    let own = after.own.saturating_sub(before.own);
    CpuShares {
        other: busy.saturating_sub(steal).saturating_sub(own) as f64 / total,
        steal: steal as f64 / total,
    }
}

/// Takes the lock that lets one workload process run at a time.  The lock
/// is held until the returned file is dropped.
pub fn exclusive_run_lock(dir: &Path) -> Result<File, String> {
    let path = dir.join("run.lock");
    let file = File::create(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
    match file.try_lock() {
        Ok(()) => Ok(file),
        Err(TryLockError::WouldBlock) => Err(format!(
            "another workload process holds {}; run one at a time",
            path.display()
        )),
        Err(TryLockError::Error(e)) => Err(format!("locking {}: {e}", path.display())),
    }
}
