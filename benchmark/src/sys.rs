//! What the benchmark reads from the operating system: the process CPU
//! clock, peak resident memory, the core count, and the `TQ_*`
//! variables it refuses to inherit. Linux only, like the repo's own
//! `/proc/self/stat` reader — but at nanosecond rather than 10 ms
//! resolution, because a serve block is ~1 s and a bound is 5 %.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + system) consumed so far by every thread of this
/// process, exited threads included.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) and the clock id is a
    // constant the kernel defines; the call writes `ts` and nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Cores this process may use.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Removes every `TQ_*` variable from the environment and returns the
/// names found. The engine crates read none today; the benchmark still
/// runs with none set, so a later env read inside a layer cannot make
/// two runs of the same commit differ. Call before any thread starts.
pub fn scrub_tq_env() -> Vec<String> {
    let found: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("TQ_"))
        .collect();
    for k in &found {
        std::env::remove_var(k);
    }
    found
}

/// Restricts this thread — and every thread started after it — to one
/// of the CPUs it may run on, and returns that CPU's number (`None` if
/// the kernel refuses; the run then goes on unpinned).
///
/// Why: a served op is four thread hand-offs. When the threads sit on
/// different virtual CPUs of a VM, each hand-off wakes a halted vCPU
/// through the hypervisor; on the host this was written on that was 70 %
/// of a one-kind `serve_sessions` op (3 300 ops/s unpinned, 11 000 pinned), came
/// and went with the scheduler's placement, and tripled when the
/// physical host was busy. With one op in flight only one thread is ever
/// runnable, so one CPU loses nothing and the hand-offs cost what the
/// code makes them cost. Call before any thread starts.
pub fn pin_to_one_cpu() -> Option<usize> {
    const WORDS: usize = 16; // room for 1024 CPUs
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is a live, writable buffer of the size passed;
    // pid 0 is the calling thread. The call writes the mask, nothing else.
    let got =
        unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if got != 0 {
        return None;
    }
    // The highest allowed CPU: CPU 0 also serves most interrupts.
    let cpu = (0..WORDS * 64)
        .rev()
        .find(|c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of the size passed, read only.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (set == 0).then_some(cpu)
}
