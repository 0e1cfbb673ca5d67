//! What the benchmark reads from the machine it runs on: process CPU
//! time from the kernel's clock, memory from `/proc/self`, the core
//! count, the filesystem under the durable directory, and the facts of
//! the host block. Also the one thing it asks of the machine: to keep a
//! thread on one core. 64-bit Linux only, like the `/proc` files.

use std::ffi::{c_int, c_long};
use std::path::Path;

use crate::json::Json;

/// `struct timespec` of 64-bit Linux: `time_t` and `long` are both 8 bytes.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}
const _: () = assert!(std::mem::size_of::<Timespec>() == 16);

/// `CLOCK_PROCESS_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
/// Words of glibc's `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

// The C library std already links; these two calls have no std wrapper.
extern "C" {
    fn clock_gettime(clock: c_int, out: *mut Timespec) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
}

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Process CPU time, user plus system, in nanoseconds, from the kernel's
/// per-process CPU clock (`/proc/self/stat` counts the same time in
/// ticks of 10 ms, 4% of a half-second segment of the open loop). Every
/// thread of the process is included, the load generator too.
pub fn process_cpu_ns() -> u64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a live, writable `struct timespec` (layout asserted
    // above) and the call writes nothing else; the clock id is valid on
    // every Linux, so the call cannot fail.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    t.tv_sec as u64 * 1_000_000_000 + t.tv_nsec as u64
}

/// Keeps the calling thread, and every thread it spawns from now on, on
/// the first core the process may use. Returns whether the kernel took
/// it; the caller reports that beside its numbers.
pub fn pin_to_first_cpu() -> bool {
    // "Cpus_allowed_list:\t0-1" or "2,4-7": the first number.
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(cpu) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .and_then(|list| {
            let list = list.trim();
            let end = list
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(list.len());
            list[..end].parse::<usize>().ok()
        })
        .filter(|cpu| *cpu < CPU_SET_WORDS * 64)
    else {
        return false;
    };
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the call reads `cpusetsize` bytes from `mask`, a live array
    // of exactly that size; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_ascii_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Resets `VmHWM` to the current resident size, so the peak a workload
/// reports is its own and not the training run's before it. Returns
/// whether the kernel accepted the reset; when it did not, the peak
/// includes set-up and the host block says so.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Filesystem type of the mount holding `path`, from
/// `/proc/self/mountinfo` (longest mount-point prefix wins).
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // "... <mount point> <options> [optional fields] - <fs type> <source> ..."
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let Some(mount) = left.split_ascii_whitespace().nth(4) else {
            continue;
        };
        let Some(kind) = right.split_ascii_whitespace().next() else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), kind.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

/// Git revision of the tree the benchmark runs from, read from `.git`
/// without spawning git; `unknown` outside a repository (the driver's
/// checkout is not one).
pub fn git_revision(root: &Path) -> String {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => {
            std::fs::read_to_string(root.join(".git").join(reference)).unwrap_or_default()
        }
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".to_string()
    } else {
        rev.to_string()
    }
}

/// `rustc --version`, or `unknown` when rustc is not on the path.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine-level part of the host block; the suite adds what the
/// workload runs report (frame counts, durable filesystem, lateness).
pub fn host_block(root: &Path) -> Json {
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("git_revision", Json::Str(git_revision(root))),
        ("rustc", Json::Str(rustc_version())),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_live_values() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mib() > 0.0);
        // 30 ms of spinning is several milliseconds of CPU time even on a
        // machine busy with other tests.
        let before = process_cpu_ns();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_ns() - before >= 5_000_000);
        assert_ne!(fs_type(Path::new(".")), "unknown");
    }
}
