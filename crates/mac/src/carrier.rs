//! Carrier sensing by energy detection (§2.4).
//!
//! Every 80 ms the phone measures the average energy in the 1–4 kHz
//! communication band; the busy threshold is calibrated from a few seconds
//! of ambient noise measured in the environment before use.

use aqua_dsp::fir::{design_bandpass, StreamingFir};
use aqua_dsp::window::Window;

/// Sensing interval (seconds) from the paper.
pub const SENSE_INTERVAL_S: f64 = 0.08;

/// Measures mean in-band (1–4 kHz) power of a buffer.
pub fn band_energy(samples: &[f64], fs: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let taps = design_bandpass(129, 1000.0, 4000.0, fs, Window::Hamming);
    let filtered = aqua_dsp::fir::filter_same(samples, &taps);
    filtered.iter().map(|v| v * v).sum::<f64>() / filtered.len() as f64
}

/// Calibrates the busy threshold from an ambient noise recording: the mean
/// in-band noise power scaled by `margin` (linear power factor).
pub fn calibrate_threshold(noise: &[f64], fs: f64, margin: f64) -> f64 {
    band_energy(noise, fs) * margin
}

/// Streaming carrier-sense front end: feed audio blocks, poll busy/idle at
/// the 80 ms cadence.
pub struct CarrierSense {
    fir: StreamingFir,
    threshold: f64,
    window: usize,
    acc: f64,
    count: usize,
    /// Most recent completed 80 ms measurement.
    last_energy: Option<f64>,
}

impl CarrierSense {
    /// Creates a sensor with a calibrated threshold.
    pub fn new(fs: f64, threshold: f64) -> Self {
        let taps = design_bandpass(129, 1000.0, 4000.0, fs, Window::Hamming);
        Self {
            fir: StreamingFir::new(taps),
            threshold,
            window: (SENSE_INTERVAL_S * fs).round() as usize,
            acc: 0.0,
            count: 0,
            last_energy: None,
        }
    }

    /// Feeds a block of microphone samples.
    pub fn feed(&mut self, block: &[f64]) {
        let filtered = self.fir.process(block);
        for v in filtered {
            self.acc += v * v;
            self.count += 1;
            if self.count == self.window {
                self.last_energy = Some(self.acc / self.window as f64);
                self.acc = 0.0;
                self.count = 0;
            }
        }
    }

    /// Whether the channel currently reads busy.
    pub fn busy(&self) -> bool {
        self.last_energy
            .map(|e| e > self.threshold)
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_dsp::chirp::tone;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn noise(n: usize, rms: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                rms * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            })
            .collect()
    }

    #[test]
    fn in_band_tone_reads_higher_than_out_of_band() {
        let fs = 48000.0;
        let in_band = band_energy(&tone(2000.0, 9600, fs), fs);
        let out_band = band_energy(&tone(8000.0, 9600, fs), fs);
        assert!(in_band > 50.0 * out_band);
    }

    #[test]
    fn sensor_goes_busy_on_signal_and_idle_on_noise() {
        let fs = 48000.0;
        let ambient = noise(48000, 0.005, 1);
        let threshold = calibrate_threshold(&ambient, fs, 4.0);
        let mut cs = CarrierSense::new(fs, threshold);
        cs.feed(&noise(7680, 0.005, 2)); // two 80 ms windows of noise
        assert!(!cs.busy(), "ambient noise must read idle");
        let mut sig = tone(2500.0, 7680, fs);
        for v in sig.iter_mut() {
            *v *= 0.05;
        }
        cs.feed(&sig);
        assert!(cs.busy(), "in-band signal must read busy");
    }

    #[test]
    fn out_of_band_interference_does_not_trigger() {
        let fs = 48000.0;
        let threshold = calibrate_threshold(&noise(48000, 0.005, 3), fs, 4.0);
        let mut cs = CarrierSense::new(fs, threshold);
        let mut sig = tone(10_000.0, 15_360, fs); // loud but out of band
        for v in sig.iter_mut() {
            *v *= 0.3;
        }
        cs.feed(&sig);
        assert!(
            !cs.busy(),
            "10 kHz interference must not trigger 1-4 kHz sensing"
        );
    }

    #[test]
    fn measurement_cadence_is_80ms() {
        let fs = 48000.0;
        let mut cs = CarrierSense::new(fs, 1.0);
        cs.feed(&vec![0.0; 3839]);
        assert!(cs.last_energy.is_none(), "no full window yet");
        cs.feed(&[0.0]);
        assert!(cs.last_energy.is_some(), "3840 samples = one 80 ms window");
    }

    #[test]
    fn no_measurement_reads_idle() {
        let cs = CarrierSense::new(48000.0, 0.1);
        assert!(!cs.busy());
    }
}
