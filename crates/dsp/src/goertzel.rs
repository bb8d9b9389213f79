//! Goertzel single-bin DFT.
//!
//! The feedback decoder, ACK/ID detection and the FSK beacon demodulator
//! need the energy of a handful of frequency bins over sliding windows; the
//! Goertzel recurrence computes one bin in O(n) without a full FFT.

use crate::complex::Complex;

/// Computes the DFT coefficient of `signal` at frequency `freq` Hz for
/// sample rate `fs` (non-integer bin frequencies are allowed).
pub fn goertzel(signal: &[f64], freq: f64, fs: f64) -> Complex {
    let w = 2.0 * std::f64::consts::PI * freq / fs;
    let coeff = 2.0 * w.cos();
    let (mut s1, mut s2) = (0.0, 0.0);
    for &x in signal {
        let s0 = x + coeff * s1 - s2;
        s2 = s1;
        s1 = s0;
    }
    // Standard Goertzel finalization: X = s1 - e^{-jw}·s2.
    let e = Complex::cis(-w);
    Complex::new(s1, 0.0) - e * Complex::new(s2, 0.0)
}

/// Power (squared magnitude) of the Goertzel bin, the usual detection
/// statistic.
pub fn goertzel_power(signal: &[f64], freq: f64, fs: f64) -> f64 {
    goertzel(signal, freq, fs).norm_sqr()
}

/// Sliding-window Goertzel bank: tracks the DFT coefficients of a fixed
/// set of integer bins over the most recent `n` samples, updated in
/// O(bins) per sample instead of an O(n log n) FFT per window position.
///
/// For window position `p` (the window covering samples `p..p+n`) each
/// tracked bin `k` holds exactly the batch DFT coefficient
/// `X_k(p) = Σ_m x[p+m]·e^{-2πi·k·m/n}` — the same value an FFT of that
/// window would produce at bin `k` — via the sliding recurrence
/// `X_k(p+1) = (X_k(p) − x[p] + x[p+n])·e^{+2πi·k/n}`.
///
/// The recurrence accumulates rounding of order `n_pushed · ε`, so a bank
/// is meant to live for one scan (seconds of audio), not a whole session;
/// call [`SlidingGoertzel::reset`] between scans.
pub struct SlidingGoertzel {
    n: usize,
    /// Per-bin rotator `e^{+2πi·k/n}`.
    rot: Vec<Complex>,
    /// Current DFT coefficients (valid once the window is full).
    state: Vec<Complex>,
    /// Last `n` samples (zero-initialized: before the window fills, the
    /// state equals the DFT of the zero-padded partial window).
    ring: Vec<f64>,
    /// Total samples pushed.
    count: usize,
}

impl SlidingGoertzel {
    /// Creates a bank over windows of `n` samples tracking the given
    /// integer FFT `bins` (each must be `< n`). Panics otherwise.
    pub fn new(n: usize, bins: &[usize]) -> Self {
        assert!(n > 0, "window length must be positive");
        let rot = bins
            .iter()
            .map(|&k| {
                assert!(k < n, "bin {k} out of range for window {n}");
                Complex::cis(2.0 * std::f64::consts::PI * k as f64 / n as f64)
            })
            .collect::<Vec<_>>();
        Self {
            n,
            state: vec![Complex::new(0.0, 0.0); rot.len()],
            rot,
            ring: vec![0.0; n],
            count: 0,
        }
    }

    /// Window length `n`.
    pub fn window_len(&self) -> usize {
        self.n
    }

    /// Start index of the current window (`count − n`), once full.
    pub fn window_start(&self) -> Option<usize> {
        self.count.checked_sub(self.n)
    }

    /// Advances the window by one sample.
    pub fn push(&mut self, x: f64) {
        let slot = self.count % self.n;
        let d = x - self.ring[slot];
        self.ring[slot] = x;
        for (s, r) in self.state.iter_mut().zip(&self.rot) {
            *s = (*s + Complex::real(d)) * *r;
        }
        self.count += 1;
    }

    /// Current DFT coefficients, one per tracked bin, for the window
    /// starting at [`window_start`](Self::window_start).
    pub fn values(&self) -> &[Complex] {
        &self.state
    }

    /// Writes the per-bin powers (squared magnitudes) into `out`.
    pub fn powers(&self, out: &mut [f64]) {
        for (o, s) in out.iter_mut().zip(&self.state) {
            *o = s.norm_sqr();
        }
    }

    /// Clears the window so the bank can scan a new stream.
    pub fn reset(&mut self) {
        self.state.fill(Complex::new(0.0, 0.0));
        self.ring.fill(0.0);
        self.count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chirp::tone;
    use crate::fft::real_planner;

    #[test]
    fn goertzel_matches_fft_bin() {
        let fs = 48000.0;
        let n = 960;
        let sig: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                (2.0 * std::f64::consts::PI * 2000.0 * t).sin()
                    + 0.5 * (2.0 * std::f64::consts::PI * 3000.0 * t).cos()
            })
            .collect();
        let spec = real_planner(n).forward_half(&sig);
        for &freq in &[2000.0, 3000.0, 1500.0] {
            let bin = (freq / fs * n as f64).round() as usize;
            let g = goertzel(&sig, freq, fs);
            assert!(
                (g.abs() - spec[bin].abs()).abs() < 1e-6,
                "freq {freq}: goertzel {} fft {}",
                g.abs(),
                spec[bin].abs()
            );
        }
    }

    #[test]
    fn detects_present_tone_over_absent() {
        let fs = 48000.0;
        let sig = tone(2500.0, 2400, fs);
        let p_on = goertzel_power(&sig, 2500.0, fs);
        let p_off = goertzel_power(&sig, 3100.0, fs);
        assert!(p_on > 1000.0 * p_off);
    }

    #[test]
    fn zero_signal_has_zero_power() {
        assert!(goertzel_power(&vec![0.0; 100], 1000.0, 48000.0) < 1e-20);
    }

    #[test]
    fn sliding_bank_matches_fft_bins_at_every_position() {
        let n = 96;
        let bins = [3usize, 20, 47];
        let sig: Vec<f64> = (0..400)
            .map(|i| (i as f64 * 0.41).sin() + 0.3 * (i as f64 * 1.7).cos())
            .collect();
        let mut bank = SlidingGoertzel::new(n, &bins);
        for (i, &x) in sig.iter().enumerate() {
            bank.push(x);
            let Some(start) = bank.window_start() else {
                continue;
            };
            assert_eq!(start, i + 1 - n);
            let spec = real_planner(n).forward_half(&sig[start..start + n]);
            for (j, &k) in bins.iter().enumerate() {
                let d = (bank.values()[j] - spec[k]).abs();
                assert!(d < 1e-9, "pos {start} bin {k}: err {d}");
            }
        }
    }

    #[test]
    fn sliding_bank_partial_window_is_zero_padded_dft() {
        let n = 64;
        let mut bank = SlidingGoertzel::new(n, &[5]);
        assert_eq!(bank.window_start(), None);
        bank.push(2.0);
        // single sample sits at window position n−1
        let want = Complex::cis(-2.0 * std::f64::consts::PI * 5.0 * (n as f64 - 1.0) / n as f64)
            .scale(2.0);
        assert!((bank.values()[0] - want).abs() < 1e-12);
    }

    #[test]
    fn sliding_bank_reset_restarts_the_window() {
        let mut bank = SlidingGoertzel::new(16, &[1, 2]);
        for i in 0..40 {
            bank.push(i as f64);
        }
        bank.reset();
        assert_eq!(bank.window_start(), None);
        bank.push(1.0);
        let mut fresh = SlidingGoertzel::new(16, &[1, 2]);
        fresh.push(1.0);
        for (a, b) in bank.values().iter().zip(fresh.values()) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }
}
