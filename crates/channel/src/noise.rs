//! Ambient underwater noise synthesis.
//!
//! Fig. 4 of the paper: noise is strong below 1 kHz (flow, bubbles), shows
//! structure up to ~4.5 kHz, varies ~9 dB across locations, and is colored
//! differently by each device's microphone. We synthesize Gaussian noise
//! shaped in the frequency domain by a piecewise-linear dB profile, plus
//! optional impulsive "bubble" bursts for fault injection (they are what
//! defeats plain cross-correlation detection, motivating the paper's
//! sliding-correlation stage).

use aqua_dsp::fft::real_planner;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr_like::normal;
use std::collections::HashMap;

/// Tiny Box–Muller helper so we don't pull in `rand_distr`.
mod rand_distr_like {
    use rand::Rng;

    /// Standard normal sample via Box–Muller.
    pub fn normal<R: Rng>(rng: &mut R) -> f64 {
        let u1: f64 = rng.gen_range(1e-12..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// A piecewise-linear (in log-power) ambient noise spectral profile.
#[derive(Debug, Clone)]
pub struct NoiseProfile {
    /// `(freq_hz, relative_db)` anchor points, ascending in frequency.
    pub anchors: Vec<(f64, f64)>,
    /// Overall level: RMS amplitude of the generated noise in digital
    /// full-scale units.
    pub rms: f64,
}

impl NoiseProfile {
    /// The generic underwater profile of Fig. 4: strong below 1 kHz,
    /// moderate structure to 4.5 kHz, falling above.
    pub fn underwater(rms: f64) -> Self {
        Self {
            anchors: vec![
                (20.0, 0.0),
                (200.0, -2.0),
                (600.0, -8.0),
                (1000.0, -14.0),
                (2000.0, -19.0),
                (3000.0, -22.0),
                (4500.0, -24.0),
                (8000.0, -32.0),
                (24000.0, -45.0),
            ],
            rms,
        }
    }

    /// A flat (white) profile, for controlled BER-vs-SNR experiments.
    pub fn white(rms: f64) -> Self {
        Self {
            anchors: vec![(20.0, 0.0), (24000.0, 0.0)],
            rms,
        }
    }

    /// A low-frequency-heavy underwater profile: busy sites (flow noise,
    /// boat wakes, fishing activity) add much more energy below 1 kHz than
    /// inside the 1–4 kHz communication band. For a fixed broadband RMS
    /// this *reduces* the in-band fraction — a site can read "9 dB noisier"
    /// broadband while costing the modem only ~5 dB.
    pub fn underwater_lf_heavy(rms: f64) -> Self {
        Self {
            anchors: vec![
                (20.0, 4.0),
                (200.0, 3.0),
                (600.0, -3.0),
                (1000.0, -13.0),
                (2000.0, -18.0),
                (3000.0, -21.0),
                (4500.0, -23.0),
                (8000.0, -31.0),
                (24000.0, -44.0),
            ],
            rms,
        }
    }

    /// Interpolates the profile in dB at each of the ascending frequencies
    /// `freqs_hz` (log-frequency linear interpolation, clamped at the
    /// ends). The anchor logs are taken once, and the anchor segment walks
    /// forward as the frequency rises, so each level costs one `ln`.
    fn levels_db(&self, freqs_hz: impl IntoIterator<Item = f64>) -> Vec<f64> {
        let anchors = &self.anchors;
        let logs: Vec<f64> = anchors.iter().map(|&(f, _)| f.ln()).collect();
        let mut seg = 0;
        freqs_hz
            .into_iter()
            .map(|freq_hz| {
                let f = freq_hz.max(1.0);
                if f <= anchors[0].0 {
                    return anchors[0].1;
                }
                // The first segment whose upper anchor is at or above `f`.
                while seg + 1 < anchors.len() && f > anchors[seg + 1].0 {
                    seg += 1;
                }
                let d0 = anchors[seg].1;
                match anchors.get(seg + 1) {
                    Some(&(_, d1)) => {
                        let t = (f.ln() - logs[seg]) / (logs[seg + 1] - logs[seg]);
                        d0 + t * (d1 - d0)
                    }
                    None => d0,
                }
            })
            .collect()
    }

    /// Scales the overall level by `db` decibels.
    pub fn with_gain_db(mut self, db: f64) -> Self {
        self.rms *= 10f64.powf(db / 20.0);
        self
    }
}

/// Streaming shaped-noise generator with a deterministic seed.
pub struct NoiseGenerator {
    profile: NoiseProfile,
    /// Extra per-device coloration in dB, sampled at profile evaluation.
    mic_color_seed: u64,
    rng: StdRng,
    fs: f64,
    /// Memoized per-bin spectral gains keyed by FFT length. The gains are
    /// a pure function of (profile, fs, mic seed, length), so computing
    /// them once per length is bit-identical to the old per-call loop —
    /// which also evaluated each folded frequency twice (the shaping is
    /// Hermitian-symmetric) and dominated `generate`'s cost.
    gains: HashMap<usize, Vec<f64>>,
}

impl NoiseGenerator {
    /// Creates a generator for the given profile at sample rate `fs`.
    pub fn new(profile: NoiseProfile, fs: f64, seed: u64) -> Self {
        Self {
            profile,
            mic_color_seed: seed ^ 0xC0FFEE,
            rng: StdRng::seed_from_u64(seed),
            fs,
            gains: HashMap::new(),
        }
    }

    /// Per-folded-bin amplitude gains for an `fft_len`-point block:
    /// `gains[j]` applies to bins `j` and `fft_len − j`.
    fn gains_for(&mut self, fft_len: usize) -> &[f64] {
        if !self.gains.contains_key(&fft_len) {
            let mic_ripple_phase = (self.mic_color_seed % 628) as f64 / 100.0;
            let freqs = (0..=fft_len / 2).map(|j| j as f64 * self.fs / fft_len as f64);
            let g: Vec<f64> = freqs
                .clone()
                .zip(self.profile.levels_db(freqs))
                .map(|(kf, mut db)| {
                    // device-mic coloration: gentle ±2 dB ripple
                    db += 2.0 * (kf / 700.0 + mic_ripple_phase).sin();
                    10f64.powf(db / 20.0)
                })
                .collect();
            self.gains.insert(fft_len, g);
        }
        &self.gains[&fft_len]
    }

    /// Generates `n` samples of shaped noise. Blocks are independent, which
    /// is fine for noise (no phase continuity requirement).
    ///
    /// Runs on the half-size real-FFT path: the white block is real and
    /// the per-bin gains are Hermitian-symmetric, so shaping touches only
    /// `fft_len/2 + 1` bins and the inverse is real by construction —
    /// about half the transform work of the complex path it replaced.
    /// Together with the pairwise Box–Muller fill below (which consumes
    /// half the uniform draws of the old one-deviate-per-pair loop),
    /// this changed the per-seed noise *realization* in PR 4 — same
    /// distribution and spectrum, different samples; determinism per
    /// seed is unchanged (see DESIGN.md §9, EXPERIMENTS.md re-measured).
    pub fn generate(&mut self, n: usize) -> Vec<f64> {
        if n == 0 {
            return Vec::new();
        }
        let fft_len = n.next_power_of_two().max(256);
        // White Gaussian in time domain, then shape in frequency domain.
        // Pairwise Box–Muller: each (u1, u2) draw yields both the cosine
        // and sine deviates (independent N(0,1) by construction), halving
        // the log/sqrt/trig cost of filling the block. `fft_len` is a
        // power of two, so the pairs tile it exactly.
        let mut white = Vec::with_capacity(fft_len);
        while white.len() < fft_len {
            let u1: f64 = self.rng.gen_range(1e-12..1.0);
            let u2: f64 = self.rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let (s, c) = (2.0 * std::f64::consts::PI * u2).sin_cos();
            white.push(r * c);
            white.push(r * s);
        }
        let plan = real_planner(fft_len);
        let mut spec = plan.forward_half(&white);
        let gains = self.gains_for(fft_len);
        for (c, &g) in spec.iter_mut().zip(gains.iter()) {
            *c = c.scale(g);
        }
        let mut out = plan.inverse_half(&spec);
        out.truncate(n);
        // Normalize block RMS to the profile's target.
        let rms = (out.iter().map(|v| v * v).sum::<f64>() / n as f64).sqrt();
        if rms > 1e-30 {
            let g = self.profile.rms / rms;
            for v in out.iter_mut() {
                *v *= g;
            }
        }
        out
    }

    /// Adds impulsive "bubble"/splash bursts: `rate_hz` expected bursts per
    /// second, each a short exponentially-decaying wideband click of
    /// `peak` amplitude. Used for detector fault injection.
    pub fn add_impulses(&mut self, signal: &mut [f64], rate_hz: f64, peak: f64) {
        let n = signal.len();
        let expected = rate_hz * n as f64 / self.fs;
        let count = self.poisson(expected);
        for _ in 0..count {
            let pos = self.rng.gen_range(0..n);
            let len = self.rng.gen_range(20usize..200).min(n - pos);
            let sign: f64 = if self.rng.gen::<bool>() { 1.0 } else { -1.0 };
            for i in 0..len {
                let env = (-(i as f64) / 30.0).exp();
                signal[pos + i] += sign * peak * env * normal(&mut self.rng).clamp(-2.5, 2.5) * 0.5;
            }
        }
    }

    fn poisson(&mut self, lambda: f64) -> usize {
        // Knuth's method; lambda is small (a few events per buffer).
        let l = (-lambda).exp();
        let mut k = 0usize;
        let mut p = 1.0;
        loop {
            p *= self.rng.gen::<f64>();
            if p <= l || k > 1000 {
                return k;
            }
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_dsp::spectrum::welch_psd;
    use aqua_dsp::window::Window;

    #[test]
    fn noise_rms_matches_profile() {
        let mut gen = NoiseGenerator::new(NoiseProfile::underwater(0.01), 48000.0, 1);
        let noise = gen.generate(48000);
        let rms = (noise.iter().map(|v| v * v).sum::<f64>() / noise.len() as f64).sqrt();
        assert!((rms - 0.01).abs() / 0.01 < 0.05, "rms {rms}");
    }

    #[test]
    fn underwater_noise_is_stronger_below_1khz() {
        let mut gen = NoiseGenerator::new(NoiseProfile::underwater(0.01), 48000.0, 2);
        let noise = gen.generate(96000);
        let psd = welch_psd(&noise, 2048, 48000.0, Window::Hann);
        let low = psd.mean_db_in_band(100.0, 800.0);
        let mid = psd.mean_db_in_band(2000.0, 4000.0);
        let high = psd.mean_db_in_band(8000.0, 16000.0);
        assert!(low > mid + 5.0, "low {low} mid {mid}");
        assert!(mid > high + 3.0, "mid {mid} high {high}");
    }

    #[test]
    fn white_profile_is_flat() {
        let mut gen = NoiseGenerator::new(NoiseProfile::white(0.01), 48000.0, 3);
        let noise = gen.generate(96000);
        let psd = welch_psd(&noise, 1024, 48000.0, Window::Hann);
        let a = psd.mean_db_in_band(1000.0, 4000.0);
        let b = psd.mean_db_in_band(8000.0, 16000.0);
        assert!((a - b).abs() < 3.0, "{a} vs {b}");
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let mut a = NoiseGenerator::new(NoiseProfile::underwater(0.01), 48000.0, 7);
        let mut b = NoiseGenerator::new(NoiseProfile::underwater(0.01), 48000.0, 7);
        assert_eq!(a.generate(1000), b.generate(1000));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = NoiseGenerator::new(NoiseProfile::underwater(0.01), 48000.0, 7);
        let mut b = NoiseGenerator::new(NoiseProfile::underwater(0.01), 48000.0, 8);
        assert_ne!(a.generate(1000), b.generate(1000));
    }

    #[test]
    fn gain_db_scales_rms() {
        let p = NoiseProfile::underwater(0.01).with_gain_db(20.0);
        assert!((p.rms - 0.1).abs() < 1e-12);
    }

    #[test]
    fn impulses_add_energy() {
        let mut gen = NoiseGenerator::new(NoiseProfile::underwater(0.001), 48000.0, 9);
        let mut sig = vec![0.0; 48000];
        gen.add_impulses(&mut sig, 10.0, 0.5);
        let energy: f64 = sig.iter().map(|v| v * v).sum();
        assert!(energy > 0.0, "expected at least one burst");
        let peak = sig.iter().map(|v| v.abs()).fold(0.0, f64::max);
        assert!(peak > 0.05);
    }

    #[test]
    fn level_db_interpolates_between_anchors() {
        let p = NoiseProfile::underwater(0.01);
        let levels = p.levels_db([600.0, 800.0, 1000.0]);
        assert_eq!(levels[0], -8.0);
        assert_eq!(levels[2], -14.0);
        assert!(levels[1] < levels[0] && levels[1] > levels[2]);
    }
}
