//! Thread placement through Linux `sched_getaffinity`/`sched_setaffinity`.
//!
//! On a small shared host, whether the scheduler puts the service
//! workload's daemon and generator threads on one CPU or on two changes
//! round-trip times by a third from run to run. The benchmark gives each
//! of them a CPU of its own. (The simulator workloads are left to the
//! scheduler: pinning the pool's threads made them slower, not steadier.)

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

const MASK_BYTES: usize = 128;

/// The CPUs this process may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u8; MASK_BYTES];
    // SAFETY: the kernel writes at most `mask.len()` bytes into `mask`.
    if unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..MASK_BYTES * 8)
        .filter(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
        .collect()
}

/// Pin thread `tid` (0: the calling thread) to `cpu`.
pub fn pin(tid: i32, cpu: usize) -> bool {
    if cpu >= MASK_BYTES * 8 {
        return false;
    }
    let mut one = [0u8; MASK_BYTES];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: the kernel reads `one.len()` bytes from `one`.
    unsafe { sched_setaffinity(tid, one.len(), one.as_ptr()) == 0 }
}
