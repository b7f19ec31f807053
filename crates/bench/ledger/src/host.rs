//! What the numbers were measured on, and the process's own CPU and memory.

use std::path::Path;

/// Stamped on every result.
#[derive(Debug, Clone, PartialEq)]
pub struct HostStamp {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `git rev-parse --short HEAD`, or `unknown` outside a repository.
    pub git_rev: String,
    /// Filesystem type of the store directory (`ext4`, `tmpfs`, ...).
    pub fs_type: String,
}

impl HostStamp {
    /// Stamps the host for a store under `dir` (which must exist).
    pub fn collect(dir: &Path) -> Self {
        Self {
            nproc: nproc(),
            git_rev: git_rev(),
            fs_type: fs_type(dir),
        }
    }
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The filesystem type of the mount holding `dir`: the longest mount point
/// in `/proc/self/mountinfo` that prefixes the canonical path.
fn fs_type(dir: &Path) -> String {
    let unknown = || "unknown".to_string();
    let Ok(canonical) = dir.canonicalize() else {
        return unknown();
    };
    let Ok(mountinfo) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return unknown();
    };
    mountinfo
        .lines()
        .filter_map(|line| {
            // "<id> <parent> <maj:min> <root> <mount point> ... - <fstype> ..."
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split(' ').nth(4)?;
            let fs = right.split(' ').next()?;
            canonical
                .starts_with(mount_point)
                .then(|| (mount_point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(unknown, |(_, fs)| fs)
}

/// User + system CPU seconds of the whole process (every thread), from
/// `/proc/self/stat` at the kernel's 100 Hz tick.
pub fn process_cpu_seconds() -> f64 {
    const TICKS_PER_SECOND: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after its ")".
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) / TICKS_PER_SECOND
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_live_values() {
        let before = process_cpu_seconds();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_seconds() >= before);
        assert!(peak_rss_mib() > 1.0);
        assert!(nproc() >= 1);
        assert_ne!(fs_type(Path::new("/proc")), "unknown");
    }
}
