//! A host-speed probe, run between slices of the measured work.
//!
//! On a shared host the same code runs at anywhere between about half and
//! all of its best speed, in periods of seconds to minutes, which a median
//! over a 20-second run cannot remove. The probe is a fixed kernel that
//! shares no code with the repository; timing it next to the work and
//! scaling by [`Probe::factor`] converts host seconds into seconds of a
//! host on which the probe takes [`REFERENCE_S`].

use std::hint::black_box;
use std::time::Instant;

/// Probe time on the reference host: the unloaded speed of a shared
/// 2-vCPU Intel Xeon virtual machine.
pub const REFERENCE_S: f64 = 0.0025;

/// How much harder than the probe a slow period hits the workloads, as a
/// power of the probe's slowdown. Measured on the reference machine: over
/// two sets of 15–18 runs each of `lgg-gradient` and `sparse-drain`,
/// taken while the unscaled `steps_per_s` spread was 0.17–0.38, scaling by
/// the probe's slowdown to the power 1.5 left a spread of 0.04–0.07,
/// against 0.11–0.18 with the power 1. A second, memory-bound kernel did
/// no better and would have added its table to `peak_rss_mb`.
pub const EXPONENT: f64 = 1.5;

/// Times one run of the kernel: a million rounds of hashed
/// loads and stores into a 16 KiB table, with a data-dependent branch.
pub fn probe_s() -> f64 {
    let t = Instant::now();
    let mut table = [0u64; 2048];
    let mut acc = 0u64;
    for i in 0..1_000_000u64 {
        let j = (i.wrapping_mul(2_654_435_761) >> 7) as usize & 2047;
        table[j] = table[j].wrapping_add(i ^ acc);
        acc = acc.wrapping_add(table[(j * 7 + 3) & 2047]).rotate_left(5);
        if acc & 7 == 3 {
            acc ^= i;
        }
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Probe samples taken alongside one repetition.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    pub samples: Vec<f64>,
}

impl Probe {
    pub fn sample(&mut self) {
        self.samples.push(probe_s());
    }

    /// Runs the probe on `threads` threads at once and keeps the slowest,
    /// for work that runs on that many threads: a core taken by another
    /// process slows it, as it slows the work.
    pub fn sample_on(&mut self, threads: usize) {
        let slowest = std::thread::scope(|s| {
            let others: Vec<_> = (1..threads).map(|_| s.spawn(probe_s)).collect();
            let own = probe_s();
            others
                .into_iter()
                .map(|h| h.join().expect("probe thread"))
                .fold(own, f64::max)
        });
        self.samples.push(slowest);
    }

    /// Factor that turns this repetition's host seconds into reference
    /// seconds: [`REFERENCE_S`] over the median probe time, to the power
    /// [`EXPONENT`].
    pub fn factor(&self) -> f64 {
        let m = crate::report::median(&self.samples);
        if m > 0.0 {
            (REFERENCE_S / m).powf(EXPONENT)
        } else {
            1.0
        }
    }
}
