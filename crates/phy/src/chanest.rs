//! Per-subcarrier channel and SNR estimation from the preamble (§2.2.2).
//!
//! The eight preamble symbols are known, so each usable bin `k` gives eight
//! observations `y_i(k) = H(k)·x_i(k) + n_i(k)`. The MMSE/LS estimate
//! averages them; the residual power yields the paper's per-bin SNR metric
//! `SNR_k = 20·log10(‖H·x‖ / ‖y − H·x‖)`.
//!
//! The eight per-symbol bin extractions run on the half-spectrum real FFT
//! path ([`analyze_core`]) — the received cores are real audio and every
//! usable bin sits below Nyquist, so estimation pays eight `n_fft/2`-point
//! transforms instead of eight full ones.

use crate::params::OfdmParams;
use crate::preamble::{Preamble, PREAMBLE_SYMBOLS};
use crate::symbol::analyze_core;
use aqua_dsp::complex::{Complex, ZERO};

/// Channel state derived from one received preamble.
#[derive(Debug, Clone)]
pub struct ChannelEstimate {
    /// Complex channel gain per usable bin.
    pub h: Vec<Complex>,
    /// Estimated SNR per usable bin in dB.
    pub snr_db: Vec<f64>,
}

impl ChannelEstimate {
    /// Minimum SNR over an inclusive bin range (the Fig. 16 stability
    /// metric).
    pub fn min_snr_in(&self, start: usize, end: usize) -> f64 {
        self.snr_db[start..=end]
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
    }
}

/// Estimates the channel from a received preamble.
///
/// `rx` must contain the eight preamble symbol cores starting at index 0
/// (i.e. the caller slices the buffer at the detected offset).
pub fn estimate(params: &OfdmParams, preamble: &Preamble, rx: &[f64]) -> ChannelEstimate {
    let n = params.n_fft;
    assert!(
        rx.len() >= PREAMBLE_SYMBOLS * n,
        "need {} samples of aligned preamble, got {}",
        PREAMBLE_SYMBOLS * n,
        rx.len()
    );
    // Per-symbol received bin values.
    let ys: Vec<Vec<Complex>> = (0..PREAMBLE_SYMBOLS)
        .map(|i| analyze_core(params, &rx[i * n..(i + 1) * n]))
        .collect();

    let mut h = vec![ZERO; params.num_bins];
    let mut snr_db = vec![0.0; params.num_bins];
    for k in 0..params.num_bins {
        // LS/MMSE estimate: H = Σ y·x* / Σ |x|²
        let mut num = ZERO;
        let mut den = 0.0;
        for (i, y) in ys.iter().enumerate() {
            let x = preamble.tx_bin(i, k);
            num += y[k] * x.conj();
            den += x.norm_sqr();
        }
        let hk = if den > 1e-30 { num / den } else { ZERO };
        h[k] = hk;
        // Residual-based SNR.
        let mut sig = 0.0;
        let mut err = 0.0;
        for (i, y) in ys.iter().enumerate() {
            let x = preamble.tx_bin(i, k);
            let fit = hk * x;
            sig += fit.norm_sqr();
            err += (y[k] - fit).norm_sqr();
        }
        snr_db[k] = 10.0 * (sig.max(1e-30) / err.max(1e-30)).log10();
    }
    ChannelEstimate { h, snr_db }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    impl ChannelEstimate {
        /// Mean SNR across all usable bins (dB, power-averaged).
        fn mean_snr_db(&self) -> f64 {
            let lin: f64 = self
                .snr_db
                .iter()
                .map(|&s| 10f64.powf(s / 10.0))
                .sum::<f64>()
                / self.snr_db.len() as f64;
            10.0 * lin.log10()
        }
    }

    fn awgn(sig: &[f64], snr_db: f64, seed: u64) -> Vec<f64> {
        let p_sig: f64 = sig.iter().map(|v| v * v).sum::<f64>() / sig.len() as f64;
        let p_noise = p_sig / 10f64.powf(snr_db / 10.0);
        let sigma = p_noise.sqrt();
        let mut rng = StdRng::seed_from_u64(seed);
        sig.iter()
            .map(|&v| {
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                v + sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            })
            .collect()
    }

    #[test]
    fn clean_channel_estimates_unit_gain_and_high_snr() {
        let params = OfdmParams::default();
        let p = Preamble::new(params);
        let est = estimate(&params, &p, &p.samples);
        for k in 0..params.num_bins {
            assert!(
                (est.h[k].abs() - 1.0).abs() < 1e-6,
                "bin {k}: {}",
                est.h[k].abs()
            );
            assert!(est.snr_db[k] > 60.0, "bin {k}: {}", est.snr_db[k]);
        }
    }

    #[test]
    fn estimated_snr_tracks_injected_snr() {
        let params = OfdmParams::default();
        let p = Preamble::new(params);
        for target in [5.0f64, 15.0, 25.0] {
            let rx = awgn(&p.samples, target, 42);
            let est = estimate(&params, &p, &rx);
            let mean = est.mean_snr_db();
            // Wideband SNR vs per-bin SNR: energy is confined to the 1-4 kHz
            // band (1/8 of Nyquist), so per-bin SNR runs ~9 dB above the
            // wideband number.
            let expected = target + 9.0;
            assert!(
                (mean - expected).abs() < 3.0,
                "target {target}: mean per-bin {mean}, expected ≈{expected}"
            );
        }
    }

    #[test]
    fn scaled_channel_scales_h() {
        let params = OfdmParams::default();
        let p = Preamble::new(params);
        let rx: Vec<f64> = p.samples.iter().map(|v| v * 0.1).collect();
        let est = estimate(&params, &p, &rx);
        for k in 0..params.num_bins {
            assert!((est.h[k].abs() - 0.1).abs() < 1e-6);
        }
    }

    #[test]
    fn notched_channel_shows_low_snr_in_notch() {
        // Simulate a two-path channel creating a notch: y = x(t) + a·x(t-d).
        let params = OfdmParams::default();
        let p = Preamble::new(params);
        // H(f) = 1 − 0.95·e^{−j2πf·d/fs}: with d = 16 the notches sit at
        // multiples of 3 kHz (usable bin 40) and the peak at 1.5 kHz (bin 10).
        let delay = 16usize;
        let rx: Vec<f64> = (0..p.samples.len())
            .map(|i| {
                p.samples[i]
                    - 0.95
                        * if i >= delay {
                            p.samples[i - delay]
                        } else {
                            0.0
                        }
            })
            .collect();
        let rx = awgn(&rx, 30.0, 7);
        let est = estimate(&params, &p, &rx);
        let notch_bin = 40; // 3 kHz
        let peak_bin = 10; // 1.5 kHz
        assert!(
            est.h[notch_bin].abs() < est.h[peak_bin].abs() * 0.5,
            "notch {} vs peak {}",
            est.h[notch_bin].abs(),
            est.h[peak_bin].abs()
        );
        assert!(est.snr_db[notch_bin] < est.snr_db[peak_bin] - 6.0);
    }

    #[test]
    fn min_snr_in_band_is_minimum() {
        let est = ChannelEstimate {
            h: vec![ZERO; 5],
            snr_db: vec![10.0, 3.0, 8.0, 15.0, 1.0],
        };
        assert_eq!(est.min_snr_in(0, 3), 3.0);
        assert_eq!(est.min_snr_in(2, 4), 1.0);
    }
}
