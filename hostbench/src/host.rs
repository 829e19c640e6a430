//! A frozen calibration workload that measures how fast the host runs
//! right now.
//!
//! On a shared host the same pass can take 25% longer from one minute to
//! the next, as other tenants compete for cores, caches and memory. Raw
//! wall time then cannot hold any useful bound. So the benchmark samples
//! three fixed kernels between cells:
//! - an FFT: floating point, working set inside L2;
//! - 8 KiB page copies and compares over 32 MiB: memory;
//! - hash-map updates: random access.
//!
//! Each pass's times are then rescaled to the reference speed. The
//! kernels are this module's own code, so no change to the program can
//! move them.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Complex points in one FFT.
const FFT_POINTS: usize = 1 << 16;
/// Words in the page-copy buffer (32 MiB).
const BUF_WORDS: usize = (32 << 20) / 8;
/// Words in one 8 KiB page.
const PAGE_WORDS: usize = 1024;

/// Seconds one sample of each kernel takes at the reference speed: the
/// medians measured on a 2-vCPU Intel Xeon host.
const REFERENCE: [f64; 3] = [5.4e-3, 1.2e-4, 5.0e-4];

/// The calibration kernels and the time they took since the last
/// [`HostProbe::restart`].
pub struct HostProbe {
    re: Vec<f64>,
    im: Vec<f64>,
    tw: Vec<(f64, f64)>,
    buf: Vec<u64>,
    rng: u64,
    samples: u32,
    time: [Duration; 3],
}

impl Default for HostProbe {
    fn default() -> HostProbe {
        HostProbe {
            re: (0..FFT_POINTS).map(|i| (i as f64 * 1e-3).sin()).collect(),
            im: vec![0.0; FFT_POINTS],
            tw: twiddles(FFT_POINTS),
            buf: (0..BUF_WORDS as u64).collect(),
            rng: 0x9E37_79B9_7F4A_7C15,
            samples: 0,
            time: [Duration::ZERO; 3],
        }
    }
}

impl HostProbe {
    /// Bytes the probe keeps resident, to take out of the peak memory.
    pub const RESIDENT_BYTES: usize = (3 * FFT_POINTS + BUF_WORDS) * 8;

    /// Forget the samples taken so far.
    pub fn restart(&mut self) {
        self.samples = 0;
        self.time = [Duration::ZERO; 3];
    }

    /// Run each kernel once and add its time.
    pub fn sample(&mut self) {
        let t = Instant::now();
        fft(&mut self.re, &mut self.im, &self.tw, false);
        fft(&mut self.re, &mut self.im, &self.tw, true);
        self.time[0] += t.elapsed();

        let t = Instant::now();
        let pages = (BUF_WORDS / PAGE_WORDS) as u64;
        let mut differ = 0usize;
        for _ in 0..64 {
            let r = self.next();
            let src = (r % pages) as usize * PAGE_WORDS;
            let dst = ((r >> 32) % pages) as usize * PAGE_WORDS;
            self.buf.copy_within(src..src + PAGE_WORDS, dst);
            let (a, b) = (
                &self.buf[src..src + PAGE_WORDS],
                &self.buf[dst..dst + PAGE_WORDS],
            );
            differ += a.iter().zip(b).filter(|(x, y)| x != y).count();
        }
        std::hint::black_box(differ);
        self.time[1] += t.elapsed();

        let t = Instant::now();
        let mut counts: HashMap<u64, u64> = HashMap::with_capacity(1024);
        for i in 0..20_000u64 {
            *counts
                .entry(i.wrapping_mul(0x9E37_79B9) % 5000)
                .or_default() += i;
        }
        std::hint::black_box(counts.len());
        self.time[2] += t.elapsed();

        self.samples += 1;
    }

    /// Time spent sampling since the last restart.
    pub fn spent(&self) -> Duration {
        self.time.iter().sum()
    }

    /// How much slower than the reference the host ran over the samples
    /// since the last restart: the geometric mean over the kernels of
    /// measured over reference time. 1 when nothing was sampled.
    pub fn slowdown(&self) -> f64 {
        if self.samples == 0 {
            return 1.0;
        }
        let n = f64::from(self.samples);
        let log_sum: f64 = self
            .time
            .iter()
            .zip(REFERENCE)
            .map(|(t, r)| (t.as_secs_f64() / n / r).ln())
            .sum();
        (log_sum / 3.0).exp()
    }

    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }
}

/// In-place radix-2 FFT of split complex data, with `tw` holding
/// `exp(-2 pi i k / n)` for `k < n / 2`. The inverse scales by `1/n`, so a
/// forward and an inverse transform restore the input.
fn fft(re: &mut [f64], im: &mut [f64], tw: &[(f64, f64)], inverse: bool) {
    let n = re.len();
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    let sign = if inverse { -1.0 } else { 1.0 };
    let mut half = 1;
    while half < n {
        let stride = n / (2 * half);
        for block in (0..n).step_by(2 * half) {
            for j in 0..half {
                let (wr, wi) = tw[j * stride];
                let wi = sign * wi;
                let (a, b) = (block + j, block + j + half);
                let tr = re[b] * wr - im[b] * wi;
                let ti = re[b] * wi + im[b] * wr;
                re[b] = re[a] - tr;
                im[b] = im[a] - ti;
                re[a] += tr;
                im[a] += ti;
            }
        }
        half *= 2;
    }
    if inverse {
        let scale = 1.0 / n as f64;
        re.iter_mut().chain(im.iter_mut()).for_each(|v| *v *= scale);
    }
}

/// The twiddle factors [`fft`] takes for `n` points.
fn twiddles(n: usize) -> Vec<(f64, f64)> {
    (0..n / 2)
        .map(|k| {
            let (s, c) = (-2.0 * std::f64::consts::PI * k as f64 / n as f64).sin_cos();
            (c, s)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_round_trips() {
        let orig: Vec<f64> = (0..64).map(|i| f64::from(i).cos()).collect();
        let (mut re, mut im) = (orig.clone(), vec![0.0; 64]);
        let tw = twiddles(64);
        fft(&mut re, &mut im, &tw, false);
        fft(&mut re, &mut im, &tw, true);
        for (a, b) in re.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(im.iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn slowdown_is_one_without_samples() {
        assert_eq!(HostProbe::default().slowdown(), 1.0);
    }
}
