//! Host state: pinning to one CPU and the per-run record that tells a
//! noisy run from a slow program (steal time, scheduler delay, CPU
//! busy share, peak memory).
//!
//! Everything is read from `/proc`; on a host without it the readings
//! are zero and the run is marked unpinned.

use std::collections::BTreeMap;
use std::time::Instant;

/// CPUs this process may run on, from `Cpus_allowed_list` in
/// `/proc/self/status` (for example `0-1` or `0,2-3`).
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(parse_cpu_list)
        .unwrap_or_default()
}

/// Parses a kernel CPU list such as `0,2-3`.
fn parse_cpu_list(s: &str) -> Vec<usize> {
    let mut out = Vec::new();
    for part in s.trim().split(',').filter(|p| !p.is_empty()) {
        let mut ends = part.splitn(2, '-').map(|x| x.trim().parse::<usize>());
        match (ends.next(), ends.next()) {
            (Some(Ok(a)), None) => out.push(a),
            (Some(Ok(a)), Some(Ok(b))) if a <= b => out.extend(a..=b),
            _ => {}
        }
    }
    out
}

/// Confines the calling thread, and every thread it starts afterwards,
/// to the first CPU the process is allowed to use. Returns that CPU,
/// or `None` when pinning is unavailable (the run is then unpinned).
///
/// Call it before starting any thread: only threads created after the
/// call inherit the mask.
pub fn pin_to_one_cpu() -> Option<usize> {
    let cpu = *allowed_cpus().first()?;
    set_affinity(cpu).then_some(cpu)
}

#[cfg(target_os = "linux")]
fn set_affinity(cpu: usize) -> bool {
    // glibc's `cpu_set_t` is a 1024-bit mask.
    const WORDS: usize = 1024 / 64;
    if cpu >= WORDS * 64 {
        return false;
    }
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialized array of exactly
    // `size_of_val(&mask)` bytes, the size passed, and the kernel only
    // reads it; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    rc == 0
}

#[cfg(not(target_os = "linux"))]
fn set_affinity(_cpu: usize) -> bool {
    false
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` jiffies of one CPU (or of all, for `None`) from
/// `/proc/stat`.
fn cpu_jiffies(cpu: Option<usize>) -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let tag = cpu.map_or("cpu".to_string(), |c| format!("cpu{c}"));
    let Some(fields) = stat.lines().find_map(|l| {
        let mut it = l.split_whitespace();
        (it.next() == Some(tag.as_str()))
            .then(|| it.filter_map(|x| x.parse::<u64>().ok()).collect::<Vec<_>>())
    }) else {
        return (0, 0);
    };
    // user nice system idle iowait irq softirq steal; guest time is
    // already inside user.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// `(cpu_ns, run_delay_ns)` of every thread of this process, by thread
/// id, from `/proc/self/task/<tid>/schedstat`.
fn thread_schedstats() -> BTreeMap<u64, (u64, u64)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let Ok(text) = std::fs::read_to_string(entry.path().join("schedstat")) else {
            continue;
        };
        let mut it = text
            .split_whitespace()
            .filter_map(|x| x.parse::<u64>().ok());
        if let (Some(cpu), Some(delay)) = (it.next(), it.next()) {
            out.insert(tid, (cpu, delay));
        }
    }
    out
}

/// A window over which the host record is taken.
#[derive(Debug)]
pub struct HostWindow {
    cpu: Option<usize>,
    t0: Instant,
    jiffies: (u64, u64),
    sched: BTreeMap<u64, (u64, u64)>,
}

/// The host record of one window.
#[derive(Debug, Clone, Copy)]
pub struct HostRecord {
    /// Share of the pinned CPU's time the hypervisor gave to others.
    pub steal_frac: f64,
    /// Time this process's threads waited runnable for a CPU, as a
    /// share of the window.
    pub run_delay_frac: f64,
    /// CPU time this process's threads ran, as a share of the window.
    pub cpu_busy_frac: f64,
}

impl HostWindow {
    /// Opens a window on `cpu` (`None`: the whole machine).
    pub fn open(cpu: Option<usize>) -> HostWindow {
        HostWindow {
            cpu,
            t0: Instant::now(),
            jiffies: cpu_jiffies(cpu),
            sched: thread_schedstats(),
        }
    }

    /// Closes the window. Threads started inside it count from zero;
    /// threads that ended inside it are not counted.
    pub fn close(&self) -> HostRecord {
        let wall_ns = self.t0.elapsed().as_nanos().max(1) as f64;
        let (steal1, total1) = cpu_jiffies(self.cpu);
        let dsteal = steal1.saturating_sub(self.jiffies.0) as f64;
        let dtotal = total1.saturating_sub(self.jiffies.1) as f64;
        let (mut cpu_ns, mut delay_ns) = (0u64, 0u64);
        for (tid, (cpu, delay)) in thread_schedstats() {
            let (c0, d0) = self.sched.get(&tid).copied().unwrap_or((0, 0));
            cpu_ns += cpu.saturating_sub(c0);
            delay_ns += delay.saturating_sub(d0);
        }
        HostRecord {
            steal_frac: if dtotal > 0.0 { dsteal / dtotal } else { 0.0 },
            run_delay_frac: delay_ns as f64 / wall_ns,
            cpu_busy_frac: cpu_ns as f64 / wall_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), vec![0, 1]);
        assert_eq!(parse_cpu_list("0,2-3\n"), vec![0, 2, 3]);
        assert_eq!(parse_cpu_list(""), Vec::<usize>::new());
    }
}
