//! Readings from `/proc` for a process: CPU time and peak resident
//! memory.

fn read(pid: &str, file: &str) -> Result<String, String> {
    std::fs::read_to_string(format!("/proc/{pid}/{file}"))
        .map_err(|e| format!("cannot read /proc/{pid}/{file}: {e}"))
}

/// CPU seconds the live threads of `pid` have run, at nanosecond
/// resolution: the sum over `/proc/<pid>/task/*/schedstat`.
pub fn threads_cpu_seconds(pid: &str) -> Result<f64, String> {
    let dir = format!("/proc/{pid}/task");
    let tasks = std::fs::read_dir(&dir).map_err(|e| format!("cannot list {dir}: {e}"))?;
    let mut ns = 0u64;
    for task in tasks.flatten() {
        // A thread that exits between the listing and the read is skipped.
        if let Ok(stat) = std::fs::read_to_string(task.path().join("schedstat")) {
            ns += stat
                .split_whitespace()
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
        }
    }
    Ok(ns as f64 / 1e9)
}

/// CPU seconds this process has used, every thread included (those
/// that have exited too), at nanosecond resolution.
pub fn own_cpu_seconds() -> f64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout of
    // 64-bit Linux, and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

fn field(text: &str, key: &str) -> Result<u64, String> {
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no `{key}` field"))
}

/// Jiffies the machine's CPUs have spent in total and stolen by the
/// hypervisor, from the first line of `/proc/stat`.
pub fn host_jiffies() -> Result<(u64, u64), String> {
    let stat = std::fs::read_to_string("/proc/stat")
        .map_err(|e| format!("cannot read /proc/stat: {e}"))?;
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|line| line.strip_prefix("cpu "))
        .ok_or("malformed /proc/stat")?
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    Ok((
        fields.iter().take(8).sum(),
        fields.get(7).copied().unwrap_or(0),
    ))
}

/// Peak resident set (`VmHWM`) of `pid` in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    Ok(field(&read(pid, "status")?, "VmHWM:")? as f64 / 1024.0)
}

/// Resets this process's peak resident set to its current one, so a
/// later [`peak_rss_mb`] covers only what ran in between.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_is_readable() {
        assert!(threads_cpu_seconds("self").unwrap() > 0.0);
        let before = own_cpu_seconds();
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 20 {}
        assert!(own_cpu_seconds() > before);
        assert!(peak_rss_mb("self").unwrap() > 0.0);
    }

    #[test]
    fn peak_rss_resets_to_the_current_set() {
        // 64 MiB touched, then freed: the peak holds it until a reset.
        let big = vec![1u8; 64 << 20];
        assert!(big.iter().map(|&b| u64::from(b)).sum::<u64>() > 0);
        drop(big);
        let before = peak_rss_mb("self").unwrap();
        reset_peak_rss().unwrap();
        assert!(peak_rss_mb("self").unwrap() < before - 32.0);
    }
}
