//! Clocks and memory the standard library does not expose, read through
//! a direct declaration of libc's `clock_gettime` (no new crates).

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// A `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];
const SCHED_IDLE: i32 = 5;

// Linux clock ids.
const CLOCK_MONOTONIC: i32 = 1;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read_clock(id: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` with the C layout the
    // 64-bit Linux ABI expects, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({id}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// System-wide monotonic seconds: comparable between the parent and the
/// child processes it spawns, which is how `setup_s` starts at the spawn.
pub fn monotonic_s() -> f64 {
    read_clock(CLOCK_MONOTONIC)
}

/// User + system CPU seconds of this process, all threads.
pub fn process_cpu_s() -> f64 {
    read_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system CPU seconds of the calling thread.
pub fn thread_cpu_s() -> f64 {
    read_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Pin the calling thread -- and every thread it creates from now on --
/// to `cpu`. `false` when the kernel refuses (the caller runs unpinned).
pub fn pin_to_cpu(cpu: usize) -> bool {
    let mut mask: CpuSet = [0; 16];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, correctly sized bit set for the length
    // passed, and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// The CPU the calling thread is running on.
pub fn current_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads.
    usize::try_from(unsafe { sched_getcpu() }).ok()
}

/// Pin the calling thread to the CPU it is running on; returns that CPU.
pub fn pin_to_current_cpu() -> Option<usize> {
    current_cpu().filter(|&cpu| pin_to_cpu(cpu))
}

/// A CPU the calling thread may run on other than `not`, if there is one.
pub fn another_allowed_cpu(not: usize) -> Option<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live, writable bit set of the length passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    (0..1024).find(|&cpu| cpu != not && mask[cpu / 64] & (1 << (cpu % 64)) != 0)
}

/// Demote the calling thread to `SCHED_IDLE`: it runs only when its CPU
/// has nothing else to do and is preempted the moment anything wakes.
pub fn run_only_when_idle() -> bool {
    let priority = 0i32;
    // SAFETY: `sched_param` is one `int`; pid 0 names the calling thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) == 0 }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kib(&status).unwrap_or(0) as f64 / 1024.0
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_and_cpu_tracks_work() {
        let (m0, p0, t0) = (monotonic_s(), process_cpu_s(), thread_cpu_s());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        std::hint::black_box(x);
        assert!(monotonic_s() > m0);
        assert!(process_cpu_s() > p0);
        assert!(thread_cpu_s() > t0);
    }

    #[test]
    fn pinning_keeps_the_thread_and_its_children_on_one_cpu() {
        // On its own thread: the affinity of the test runner's other
        // threads is left alone.
        std::thread::spawn(|| {
            let other = current_cpu().and_then(another_allowed_cpu);
            let Some(cpu) = pin_to_current_cpu() else {
                return; // affinity not permitted here: nothing to check
            };
            assert_eq!(current_cpu(), Some(cpu));
            let child = std::thread::spawn(current_cpu).join().unwrap();
            assert_eq!(child, Some(cpu), "threads created after pinning inherit it");
            assert_eq!(another_allowed_cpu(cpu), None, "the mask is one CPU now");
            if let Some(other) = other {
                assert!(pin_to_cpu(other), "moving to another allowed CPU");
                assert_eq!(current_cpu(), Some(other));
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn vm_hwm_parses() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
        assert!(peak_rss_mib() > 0.0);
    }
}
