//! Linear frequency-modulated (LFM) chirps and tones.
//!
//! The paper uses 1–5 kHz chirps to characterize device frequency
//! selectivity (Fig. 3) and single-frequency tones for the FSK SOS beacon,
//! device IDs and ACKs.

/// Generates a linear chirp sweeping `f0..f1` Hz over `duration_s` seconds
/// at sample rate `fs`.
pub fn linear_chirp(f0: f64, f1: f64, duration_s: f64, fs: f64) -> Vec<f64> {
    let n = (duration_s * fs).round() as usize;
    let rate = (f1 - f0) / duration_s; // Hz per second
    (0..n)
        .map(|i| {
            let t = i as f64 / fs;
            let phase = 2.0 * std::f64::consts::PI * (f0 * t + 0.5 * rate * t * t);
            phase.sin()
        })
        .collect()
}

/// Generates a pure tone at `freq` Hz for `n` samples.
pub fn tone(freq: f64, n: usize, fs: f64) -> Vec<f64> {
    (0..n)
        .map(|i| (2.0 * std::f64::consts::PI * freq * i as f64 / fs).sin())
        .collect()
}

/// Generates a tone with an initial phase, for phase-continuous FSK.
pub fn tone_with_phase(freq: f64, n: usize, fs: f64, phase0: f64) -> Vec<f64> {
    (0..n)
        .map(|i| (phase0 + 2.0 * std::f64::consts::PI * freq * i as f64 / fs).sin())
        .collect()
}

/// Applies a raised-cosine amplitude ramp of `ramp` samples to both ends of
/// a signal in place, to limit spectral splatter at packet edges.
pub fn apply_ramp(signal: &mut [f64], ramp: usize) {
    let ramp = ramp.min(signal.len() / 2);
    for i in 0..ramp {
        let g = 0.5 - 0.5 * (std::f64::consts::PI * i as f64 / ramp as f64).cos();
        signal[i] *= g;
        let j = signal.len() - 1 - i;
        signal[j] *= g;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::real_planner;

    #[test]
    fn chirp_length_matches_duration() {
        let c = linear_chirp(1000.0, 5000.0, 0.5, 48000.0);
        assert_eq!(c.len(), 24000);
    }

    #[test]
    fn chirp_energy_spreads_over_swept_band() {
        let fs = 48000.0;
        let c = linear_chirp(1000.0, 5000.0, 0.5, fs);
        let spec = real_planner(c.len()).forward_half(&c);
        let n = c.len() as f64;
        let power = |lo: f64, hi: f64| -> f64 {
            let k0 = (lo / fs * n) as usize;
            let k1 = (hi / fs * n) as usize;
            spec[k0..k1].iter().map(|x| x.norm_sqr()).sum()
        };
        let in_band = power(1000.0, 5000.0);
        let below = power(10.0, 900.0);
        let above = power(5200.0, 12000.0);
        assert!(in_band > 50.0 * below, "in {in_band} below {below}");
        assert!(in_band > 50.0 * above, "in {in_band} above {above}");
    }

    #[test]
    fn tone_concentrates_in_one_bin() {
        let fs = 48000.0;
        let n = 960;
        let t = tone(2000.0, n, fs); // bin 40 at 50 Hz spacing
        let spec = real_planner(n).forward_half(&t);
        let k = 2000.0 / fs * n as f64;
        let peak = spec[k as usize].abs();
        let other = spec[10].abs();
        assert!(peak > 100.0 * other);
    }

    #[test]
    fn ramp_tapers_edges_to_zero() {
        let mut s = vec![1.0; 100];
        apply_ramp(&mut s, 10);
        assert!(s[0].abs() < 1e-12);
        assert!(s[99].abs() < 1e-12);
        assert_eq!(s[50], 1.0);
    }
}
