//! The reference kernel: a fixed partial-likelihood update, private to the
//! benchmark, that scales its CPU times to a common core speed.
//!
//! On a host that shares its cores with other tenants, the same job on one
//! pinned core ran up to 1.9× its fastest CPU time, in stretches of seconds
//! to many minutes, with bit-identical results. The reference kernel, run
//! on the same core just before and just after a job, slows with it
//! (correlation 0.44-0.72 over 15-19 jobs of two workloads), so a job's CPU
//! time divided by the kernel's time measures the program rather than the
//! host. The kernel belongs to the benchmark, so no change to the program
//! moves it.

use crate::cpu;

const PATTERNS: usize = 4096;
/// Rates × states per pattern.
const WIDTH: usize = 16;
const BUFFERS: usize = 12;
const UPDATES: usize = 900;

/// Reported times are CPU seconds on a core on which one reference run
/// takes this long: about its fastest runs on the shared 2-vCPU Xeon host
/// the benchmark was written on, so scaled times stay near measured ones.
pub const NOMINAL_S: f64 = 0.07;

/// `parent = (P · left) ⊙ (P · right)` for every pattern and rate.
#[target_feature(enable = "avx2,fma")]
unsafe fn update(parent: &mut [f64], left: &[f64], right: &[f64], p: &[f64; 16]) {
    for ((o, l), r) in parent
        .chunks_exact_mut(4)
        .zip(left.chunks_exact(4))
        .zip(right.chunks_exact(4))
    {
        for s in 0..4 {
            let mut a = 0.0;
            let mut b = 0.0;
            for t in 0..4 {
                a += p[4 * s + t] * l[t];
                b += p[4 * s + t] * r[t];
            }
            o[s] = a * b * 1.25;
        }
    }
}

/// CPU seconds of one reference run: `UPDATES` updates cycling over
/// `BUFFERS` buffers of `PATTERNS × WIDTH` values (6 MiB in all), without
/// allocating inside the timed part.
pub fn run_s() -> f64 {
    assert!(
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma"),
        "the reference kernel needs AVX2 and FMA"
    );
    let mut buf: Vec<Vec<f64>> = (0..BUFFERS)
        .map(|k| {
            (0..PATTERNS * WIDTH)
                .map(|i| 0.2 + ((i * 7 + k * 13) % 97) as f64 * 1e-3)
                .collect()
        })
        .collect();
    let p = [
        0.7, 0.1, 0.1, 0.1, 0.1, 0.7, 0.1, 0.1, 0.1, 0.1, 0.7, 0.1, 0.1, 0.1, 0.1, 0.7,
    ];
    let c0 = cpu::process_cpu_s();
    for step in 0..UPDATES {
        let o = step % BUFFERS;
        let (l, r) = ((o + 1 + step % 5) % BUFFERS, (o + 7 + step % 3) % BUFFERS);
        let (left, right) = (std::mem::take(&mut buf[l]), std::mem::take(&mut buf[r]));
        // SAFETY: AVX2 and FMA are present (checked above).
        unsafe { update(&mut buf[o], &left, &right, &p) };
        (buf[l], buf[r]) = (left, right);
    }
    let spent = cpu::process_cpu_s() - c0;
    std::hint::black_box(&buf);
    spent
}

/// The factor that scales a CPU time measured between reference runs of
/// `before` and `after` seconds to the nominal core.
pub fn scale(before: f64, after: f64) -> f64 {
    NOMINAL_S / (0.5 * (before + after))
}
