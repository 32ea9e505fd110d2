//! CPU clocks of the process and of the calling thread, and peak
//! memory.
//!
//! CPU time, unlike wall-clock time, does not grow with the time a
//! virtual CPU spends descheduled by its host (steal): the guest
//! kernel leaves stolen time out of every task's run time.

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_ARENA_MAX`.
const M_ARENA_MAX: i32 = -8;

/// Keep every thread's allocations in one malloc arena. How many
/// arenas glibc opens depends on which threads happen to contend, and
/// each keeps its own free memory, so with the default the peak RSS of
/// two identical runs differs by a tenth; with one arena it repeats to
/// about 1%. Call before any thread is spawned.
pub fn single_malloc_arena() {
    // SAFETY: `mallopt` only adjusts allocator tuning; no allocation
    // is in flight on another thread, since none has been spawned.
    let ok = unsafe { mallopt(M_ARENA_MAX, 1) };
    assert_eq!(ok, 1, "mallopt(M_ARENA_MAX) failed");
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, aligned `struct timespec` that the call
    // only writes, and both clock ids exist on every Linux kernel.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds used by the whole process so far, exited threads
/// included.
pub fn process_cpu() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds used by the calling thread so far.
pub fn thread_cpu() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds used so far by every thread of the process except the
/// calling one: with the load generator calling, the service's share.
pub fn others_cpu() -> f64 {
    process_cpu() - thread_cpu()
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no VmHWM"))
}

/// The host-wide `cpu` line of `/proc/stat`: user, nice, system, idle,
/// iowait, irq, softirq, steal, ... in clock ticks.
pub fn host_cpu_ticks() -> std::io::Result<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    let line = stat
        .lines()
        .next()
        .filter(|l| l.starts_with("cpu "))
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no cpu line"))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    if ticks.len() < 8 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "short cpu line",
        ));
    }
    Ok(ticks)
}
