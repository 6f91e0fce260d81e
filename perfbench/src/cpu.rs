//! Where the benchmark runs and how it reads time: it pins itself, and
//! with it every rank, to one core, and reads process CPU time, the seconds
//! every thread of the process, live or exited, spent running. On a host
//! whose cores are shared with other tenants, wall-clock time on two cores
//! moved with the host's placement of the cores (`README.md` gives the
//! figures); with both ranks on one core the time is the work of all ranks.

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// A `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

/// Restricts the calling thread, and every thread it starts from now on,
/// to the first core it may run on; returns that core's number. Call it
/// before any thread starts.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn pin_to_one_core() -> Result<usize, String> {
    let mut mask: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `mask` is a writable buffer of `size` bytes; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let core = (0..size * 8)
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("no core in the affinity mask")?;
    let mut one: CpuSet = [0; 16];
    one[core / 64] = 1 << (core % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(core)
}

/// CPU seconds of the whole process so far.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark pins itself and reads CPU time through 64-bit Linux calls");

#[cfg(test)]
mod tests {
    use super::*;

    /// Work done on a thread that has exited still counts.
    #[test]
    fn counts_exited_threads() {
        let c0 = process_cpu_s();
        std::thread::spawn(|| {
            let t0 = std::time::Instant::now();
            let mut x = 0u64;
            while t0.elapsed().as_secs_f64() < 0.1 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
        })
        .join()
        .unwrap();
        let spent = process_cpu_s() - c0;
        assert!(spent >= 0.05, "a 0.1 s busy thread added {spent} s");
    }
}
