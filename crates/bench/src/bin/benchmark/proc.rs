//! CPU time and peak memory of one process, read from `/proc` (std only),
//! and the core the benchmark pins itself to.

use std::fs;
use std::sync::OnceLock;

/// Kernel clock ticks per second behind `/proc/<pid>/stat`'s utime/stime.
/// `USER_HZ` is 100 on every Linux ABI; reading it properly needs
/// `sysconf`, i.e. libc.
const TICKS_PER_SEC: f64 = 100.0;

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// CPU milliseconds consumed so far by the live threads of `pid` (this
/// process for `None`): the on-CPU nanoseconds of every
/// `/proc/<pid>/task/*/schedstat`, summed. Nanosecond counters, unlike the
/// 10 ms ticks of `stat` — but a thread that exits takes its share along, so
/// the harness holds the window's total against [`cpu_ticks_ms`].
pub fn cpu_ms(pid: Option<u32>) -> Result<f64, String> {
    let dir = proc_path(pid, "task");
    let tasks = fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))?;
    let mut nanos = 0u64;
    for task in tasks.flatten() {
        // A thread may exit between the listing and the read.
        let Ok(line) = fs::read_to_string(task.path().join("schedstat")) else { continue };
        nanos += line.split_ascii_whitespace().next().and_then(|f| f.parse().ok()).unwrap_or(0);
    }
    Ok(nanos as f64 / 1e6)
}

/// CPU milliseconds (user + system, over every thread the process has ever
/// had) from `/proc/<pid>/stat`, in 10 ms ticks.
pub fn cpu_ticks_ms(pid: Option<u32>) -> Result<f64, String> {
    let path = proc_path(pid, "stat");
    let stat = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    parse_cpu_ticks(&stat)
        .map(|ticks| ticks as f64 * 1e3 / TICKS_PER_SEC)
        .ok_or_else(|| format!("{path}: unexpected format"))
}

/// utime + stime from a `/proc/<pid>/stat` line. The command name (field 2)
/// may itself contain spaces and parentheses, so fields are counted from
/// the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) of the process in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> Result<f64, String> {
    let path = proc_path(pid, "status");
    let status = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    parse_vm_hwm_kib(&status)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Resets the process's `VmHWM` to its current resident size, so the peak
/// read at window end is the window's and not the set-up's. Returns whether
/// the kernel accepted it (recorded in the environment block).
pub fn reset_peak_rss(pid: Option<u32>) -> bool {
    fs::write(proc_path(pid, "clear_refs"), "5").is_ok()
}

/// The cores this process was allowed when it first asked
/// (`Cpus_allowed_list`, e.g. `0-1,4`) — remembered, because pinning
/// shrinks the list and the environment block reports the machine's.
pub fn allowed_cores() -> &'static [usize] {
    static CORES: OnceLock<Vec<usize>> = OnceLock::new();
    CORES.get_or_init(|| {
        let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .map(parse_core_list)
            .unwrap_or_default()
    })
}

fn parse_core_list(list: &str) -> Vec<usize> {
    list.trim()
        .split(',')
        .filter_map(|part| {
            let (lo, hi) = part.split_once('-').unwrap_or((part, part));
            Some(lo.trim().parse::<usize>().ok()?..=hi.trim().parse::<usize>().ok()?)
        })
        .flatten()
        .collect()
}

/// The one core everything measured runs on: the last allowed one (the
/// first is where the OS keeps most of its interrupts). Left to the
/// scheduler, generator and daemon share a core in some runs and sit on two
/// in others, and a cache hit reads 25 µs or 65 µs accordingly; put on two
/// cores on purpose, every request pays two cross-core wake-ups whose cost
/// swings by a fifth from run to run on a virtual machine. In a closed loop
/// with one connection the two never compute at the same time, so sharing a
/// core costs nothing and removes the wake-ups. `None` with a single core:
/// nothing to choose.
pub fn bench_core() -> Option<usize> {
    match allowed_cores() {
        [_, .., last] => Some(*last),
        _ => None,
    }
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread — and every thread and child process it
/// creates afterwards, the daemon included — to `core`; returns whether the
/// kernel accepted. Cores beyond 63 are left alone.
pub fn pin_current_thread(core: usize) -> bool {
    if core >= 64 {
        return false;
    }
    let mask: u64 = 1 << core;
    // SAFETY: `sched_setaffinity(0, 8, &mask)` reads exactly 8 bytes from a
    // live, aligned `u64` and changes only this thread's CPU mask.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_and_status_lines() {
        let stat = "4242 (spade serve) x) S 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    37 5 0 0 20 0 3 0 12345 1000000 500 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(42));
        assert_eq!(parse_cpu_ticks("garbage"), None);
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn parses_core_lists() {
        assert_eq!(parse_core_list("0-1"), vec![0, 1]);
        assert_eq!(parse_core_list(" 2,4-6,9\n"), vec![2, 4, 5, 6, 9]);
        assert_eq!(parse_core_list(""), Vec::<usize>::new());
        assert!(!allowed_cores().is_empty());
    }

    #[test]
    fn reads_this_process() {
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {
            std::hint::black_box(0);
        }
        assert!(cpu_ms(None).expect("own schedstat") > 0.0);
        assert!(cpu_ticks_ms(None).expect("own stat") >= 0.0);
        assert!(peak_rss_mib(None).expect("own status") > 0.0);
    }
}
