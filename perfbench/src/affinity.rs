//! Runs the benchmark on one CPU.
//!
//! On a 2-vCPU host, work that hops between CPUs (a 2-thread kernel pool,
//! or coordinator and worker processes waking each other) widened the
//! run-to-run spread of the step-time metrics several times over. The
//! benchmark therefore pins itself, before it starts any thread or child
//! process (both inherit the mask), to the highest-numbered CPU it may
//! use. This acts on the benchmark's own processes only.

/// Bytes of the kernel's `cpu_set_t` (1024 CPUs).
const SET_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread (and so everything it later starts) to the
/// last CPU of its current affinity mask. Returns that CPU.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; SET_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, the
    // size passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let cpu = (0..SET_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("empty CPU affinity mask")?;
    let mut one = [0u64; SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    Err("pinning to one CPU is implemented for Linux only".to_owned())
}
