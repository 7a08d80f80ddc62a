//! Host-speed calibration.
//!
//! The host this benchmark was built on changes speed by up to about 2x
//! over seconds to minutes, as other tenants load the machine: the same
//! op takes 25 ms in one run and 40 ms in the next, and no statistic
//! over one run's window can hide a regime that lasts the whole window.
//! So every run also times a fixed kernel that belongs to the benchmark,
//! not to the program, between its ops, and reports the window's host
//! times at a reference host speed: measured time x `REF_MS` / the
//! kernel's time in the same window. A change to the program moves the
//! op times and not the kernel, so it shows in full; a change of the
//! host's speed moves both and largely cancels. Not always: in periods
//! when other tenants slow vectorised code most, the kernel slows by
//! about 2x and the ops by 1.3 to 1.6x, and the scaled figures then read
//! fast. Every run also prints the unscaled figures on an info line.

use std::hint::black_box;
use std::time::Instant;

use crate::metrics::{median, quantile};

/// The kernel's time between ops on the reference host in its usual
/// (slower) regime, so that scaled figures read like wall times
/// measured there.
pub const REF_MS: f64 = 1.5;

/// Side of the kernel's grids.
const N: usize = 128;

/// Gap between the kernel's two grids, in elements. Where the allocator
/// puts the grids decides the kernel's speed: with the grids in two
/// allocations, one host timed it at 1 to 1.6 ms in some processes and
/// 3 to 5.5 ms in others (a distance of a multiple of 4 KiB between the
/// grids makes each store alias the loads around it). Both grids live in
/// one buffer, the first at a cache-line boundary and the second this
/// far after it, so their placement is the same in every process.
const GAP: usize = 64;

/// Elements in a cache line.
const LINE: usize = 8;

/// Kernel times sampled through a window.
#[derive(Debug, Default)]
pub struct Speed {
    samples: Vec<f64>,
    buf: Vec<f64>,
}

impl Speed {
    /// Time one kernel: Jacobi sweeps over a 128x128 grid, the same kind
    /// of work as the program's native stencil kernels. The side is
    /// opaque to the optimiser, as the program's extents are to its
    /// kernels; the grids are allocated once, so no sample pays for
    /// fresh pages.
    pub fn sample(&mut self) {
        let n = black_box(N);
        if self.buf.is_empty() {
            self.buf = (0..2 * N * N + GAP + LINE)
                .map(|i| (i % 7) as f64)
                .collect();
        }
        let at = self.buf.as_ptr().align_offset(LINE * 8);
        let (lo, hi) = self.buf[at..].split_at_mut(N * N + GAP);
        let t = Instant::now();
        for sweep in 0..100 {
            let (a, b) = if sweep % 2 == 0 {
                (&*lo, &mut *hi)
            } else {
                (&*hi, &mut *lo)
            };
            for i in 1..n - 1 {
                for j in 1..n - 1 {
                    let k = i * n + j;
                    b[k] = 0.25 * (a[k - n] + a[k + n] + a[k - 1] + a[k + 1]);
                }
            }
        }
        black_box(&self.buf);
        self.samples.push(t.elapsed().as_secs_f64() * 1e3);
    }

    /// Time spent in the samples so far.
    pub fn sampled_ms(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Take another client's samples.
    pub fn extend(&mut self, other: Speed) {
        self.samples.extend(other.samples);
    }

    /// The kernel's time, at the quantile where the op statistics sit:
    /// the op medians and 90th percentiles stay in the slow regime until
    /// about three quarters of a window ran fast, and so does this.
    pub fn kernel_ms(&self) -> f64 {
        quantile(&self.samples, 0.75)
    }

    /// Factor that takes a time measured in this window to the reference
    /// speed.
    pub fn scale(&self) -> f64 {
        REF_MS / self.kernel_ms()
    }

    /// The kernel's median time.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples)
    }

    /// Factor that takes a set-up time to the reference speed. Set-up is
    /// one pass of distinct work, not a stream of repeated ops, so its
    /// kernel samples count at their median.
    pub fn setup_scale(&self) -> f64 {
        REF_MS / self.median_ms()
    }
}
