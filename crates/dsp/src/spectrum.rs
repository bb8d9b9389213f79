//! Power-spectral-density estimation (Welch's method) and spectrum helpers.
//!
//! Used to reproduce the paper's characterization figures: device frequency
//! selectivity (Fig. 3), ambient noise profiles (Fig. 4) and the received
//! spectra with the selected band overlaid (Fig. 9b,c).

use crate::fft::real_planner;
use crate::window::Window;

/// A power spectral density estimate.
#[derive(Debug, Clone)]
pub struct Psd {
    /// Bin center frequencies in Hz.
    pub freqs: Vec<f64>,
    /// Power per bin (linear).
    pub power: Vec<f64>,
}

impl Psd {
    /// Power values in dB (10·log10), floored at -300 dB.
    fn power_db(&self) -> Vec<f64> {
        self.power
            .iter()
            .map(|&p| 10.0 * p.max(1e-30).log10())
            .collect()
    }

    /// Normalizes so the maximum power is 0 dB, as in the paper's Fig. 4.
    pub fn normalized_db(&self) -> Vec<f64> {
        let db = self.power_db();
        let max = db.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        db.into_iter().map(|v| v - max).collect()
    }

    /// Average power in dB over a frequency range (used by the Fig. 18
    /// air-in-case comparison: "average power within 1–4 kHz").
    pub fn mean_db_in_band(&self, lo_hz: f64, hi_hz: f64) -> f64 {
        let mut acc = 0.0;
        let mut count = 0usize;
        for (f, p) in self.freqs.iter().zip(&self.power) {
            if *f >= lo_hz && *f <= hi_hz {
                acc += p;
                count += 1;
            }
        }
        10.0 * (acc / count.max(1) as f64).max(1e-30).log10()
    }
}

/// Welch PSD estimate with 50% overlap.
///
/// `segment_len` controls frequency resolution (`fs / segment_len` Hz per
/// bin) and must be a length [`crate::fft::RealFft`] plans: even, with no
/// prime factor above 5. Only the one-sided spectrum (0..fs/2) is
/// returned.
pub fn welch_psd(signal: &[f64], segment_len: usize, fs: f64, window: Window) -> Psd {
    assert!(segment_len >= 2);
    let taps = window.build(segment_len);
    let win_power: f64 = taps.iter().map(|v| v * v).sum::<f64>() / segment_len as f64;
    let hop = segment_len / 2;
    let half = segment_len / 2;
    // Only bins below Nyquist are reported, so the half-spectrum real FFT
    // computes exactly what's needed.
    let plan = real_planner(segment_len);
    let mut acc = vec![0.0; half];
    let mut count = 0usize;
    let mut start = 0usize;
    while start + segment_len <= signal.len() {
        let seg: Vec<f64> = signal[start..start + segment_len]
            .iter()
            .zip(&taps)
            .map(|(s, w)| s * w)
            .collect();
        let spec = plan.forward_half(&seg);
        for k in 0..half {
            acc[k] += spec[k].norm_sqr();
        }
        count += 1;
        start += hop;
    }
    if count == 0 {
        // Signal shorter than one segment: single zero-padded segment.
        let mut seg = signal.to_vec();
        seg.resize(segment_len, 0.0);
        for (s, w) in seg.iter_mut().zip(&taps) {
            *s *= w;
        }
        let spec = plan.forward_half(&seg);
        for k in 0..half {
            acc[k] += spec[k].norm_sqr();
        }
        count = 1;
    }
    let norm = 1.0 / (count as f64 * segment_len as f64 * segment_len as f64 * win_power);
    let power: Vec<f64> = acc.into_iter().map(|p| p * norm).collect();
    let freqs: Vec<f64> = (0..half)
        .map(|k| k as f64 * fs / segment_len as f64)
        .collect();
    Psd { freqs, power }
}

/// A short-time Fourier transform: rows are time frames, columns are the
/// one-sided frequency bins of each `segment_len`-sample window.
#[derive(Debug, Clone)]
pub struct Stft {
    /// Power per (frame, bin), linear.
    pub frames: Vec<Vec<f64>>,
    /// Bin center frequencies in Hz.
    pub freqs: Vec<f64>,
    /// Frame start times in seconds.
    pub times: Vec<f64>,
}

/// Computes an STFT with the given hop (in samples). Used by diagnostic
/// tooling (the `waterfall` example) to inspect packets on the air.
/// `segment_len` must be a length [`crate::fft::RealFft`] plans, as for
/// [`welch_psd`].
pub fn stft(signal: &[f64], segment_len: usize, hop: usize, fs: f64, window: Window) -> Stft {
    assert!(segment_len >= 2 && hop >= 1);
    let taps = window.build(segment_len);
    let half = segment_len / 2;
    let plan = real_planner(segment_len);
    let mut frames = Vec::new();
    let mut times = Vec::new();
    let mut start = 0usize;
    while start + segment_len <= signal.len() {
        let seg: Vec<f64> = signal[start..start + segment_len]
            .iter()
            .zip(&taps)
            .map(|(s, w)| s * w)
            .collect();
        let spec = plan.forward_half(&seg);
        frames.push((0..half).map(|k| spec[k].norm_sqr()).collect());
        times.push(start as f64 / fs);
        start += hop;
    }
    let freqs = (0..half)
        .map(|k| k as f64 * fs / segment_len as f64)
        .collect();
    Stft {
        frames,
        freqs,
        times,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chirp::tone;

    #[test]
    fn welch_peak_at_tone_frequency() {
        let fs = 48000.0;
        let sig = tone(2000.0, 48000, fs);
        let psd = welch_psd(&sig, 1024, fs, Window::Hann);
        let peak_idx = psd
            .power
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let peak_freq = psd.freqs[peak_idx];
        assert!(
            (peak_freq - 2000.0).abs() < fs / 1024.0 * 1.5,
            "peak at {peak_freq}"
        );
    }

    #[test]
    fn white_noise_psd_is_roughly_flat() {
        // Deterministic pseudo-noise.
        let mut s = 12345u64;
        let sig: Vec<f64> = (0..96000)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s as f64 / u64::MAX as f64) - 0.5
            })
            .collect();
        let psd = welch_psd(&sig, 512, 48000.0, Window::Hann);
        let db = psd.power_db();
        let mid = &db[10..246];
        let mean = mid.iter().sum::<f64>() / mid.len() as f64;
        for &v in mid {
            assert!(
                (v - mean).abs() < 6.0,
                "flatness violated: {v} vs mean {mean}"
            );
        }
    }

    #[test]
    fn normalized_db_has_zero_max() {
        let sig = tone(1500.0, 9600, 48000.0);
        let psd = welch_psd(&sig, 512, 48000.0, Window::Hamming);
        let norm = psd.normalized_db();
        let max = norm.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max.abs() < 1e-9);
    }

    #[test]
    fn mean_db_in_band_reflects_band_power() {
        let fs = 48000.0;
        let sig = tone(2000.0, 48000, fs);
        let psd = welch_psd(&sig, 1024, fs, Window::Hann);
        let in_band = psd.mean_db_in_band(1000.0, 4000.0);
        let out_band = psd.mean_db_in_band(8000.0, 12000.0);
        assert!(in_band > out_band + 20.0);
    }

    #[test]
    fn short_signal_still_produces_estimate() {
        let sig = tone(1000.0, 100, 48000.0);
        let psd = welch_psd(&sig, 512, 48000.0, Window::Hann);
        assert_eq!(psd.freqs.len(), 256);
    }

    #[test]
    fn stft_localizes_a_tone_burst_in_time_and_frequency() {
        let fs = 48000.0;
        let mut sig = vec![0.0; 48000];
        let burst = tone(2000.0, 9600, fs);
        sig[19200..28800].copy_from_slice(&burst); // 0.4-0.6 s
        let st = stft(&sig, 1024, 512, fs, Window::Hann);
        let bin_2k = (2000.0 / (fs / 1024.0)).round() as usize;
        // energy concentrated in the burst frames
        let in_burst: f64 = st
            .frames
            .iter()
            .zip(&st.times)
            .filter(|(_, &t)| (0.42..0.58).contains(&t))
            .map(|(f, _)| f[bin_2k])
            .sum();
        let outside: f64 = st
            .frames
            .iter()
            .zip(&st.times)
            .filter(|(_, &t)| !(0.3..=0.7).contains(&t))
            .map(|(f, _)| f[bin_2k])
            .sum();
        assert!(in_burst > 100.0 * outside.max(1e-30));
        assert_eq!(st.freqs.len(), 512);
    }
}
