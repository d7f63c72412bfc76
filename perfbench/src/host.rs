//! Host readings: peak resident memory and run-queue wait.

use std::collections::HashMap;
use std::time::Duration;

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn rss_peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// CPU time the hypervisor has withheld from this machine's CPUs so
/// far (the `steal` column of `/proc/stat`), seconds summed over CPUs;
/// 0 where the kernel does not report it. Assumes the usual 100 ticks
/// per second.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?;
            cpu.split_whitespace().nth(8)?.parse::<u64>().ok()
        })
        .map_or(0.0, |ticks| ticks as f64 / 100.0)
}

/// Run-queue wait of the calling thread so far, ns: the second field
/// of `/proc/thread-self/schedstat`.
pub fn thread_wait_ns() -> Result<u64, String> {
    read_wait("/proc/thread-self/schedstat")
}

fn read_wait(path: &str) -> Result<u64, String> {
    let s = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    s.split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("malformed {path}: {s:?}"))
}

/// Runs `f` on a scoped thread while this thread samples, every 10 ms,
/// the run-queue wait of every other thread of the process. Returns
/// `f`'s result and the summed wait growth of the threads seen, ns. A
/// thread that starts or exits between samples loses at most one
/// interval of its wait at that end.
pub fn with_process_wait<R: Send>(f: impl FnOnce() -> R + Send) -> (R, u64) {
    let own = std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()));
    let mut seen: HashMap<String, (u64, u64)> = HashMap::new();
    let sample = |seen: &mut HashMap<String, (u64, u64)>| {
        let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
            return;
        };
        for task in dir.flatten() {
            let tid = task.file_name().to_string_lossy().into_owned();
            if own.as_deref() == Some(tid.as_str()) {
                continue;
            }
            if let Ok(w) = read_wait(&format!("/proc/self/task/{tid}/schedstat")) {
                seen.entry(tid).or_insert((w, w)).1 = w;
            }
        }
    };
    let out = std::thread::scope(|scope| {
        let handle = scope.spawn(f);
        while !handle.is_finished() {
            sample(&mut seen);
            std::thread::sleep(Duration::from_millis(10));
        }
        handle.join().expect("the measured thread does not panic")
    });
    let wait = seen.values().map(|(first, last)| last - first).sum();
    (out, wait)
}
