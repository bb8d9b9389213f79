//! OFDM numerology (§2.3.1 and the Fig. 17 subcarrier-spacing variants).
//!
//! Defaults match the paper: 48 kHz sampling, 960-sample symbols (20 ms,
//! 50 Hz spacing), 67-sample cyclic prefix (6.9 % overhead), 60 usable
//! subcarriers spanning 1–4 kHz, BPSK per bin, rate-2/3 coding.

/// OFDM physical-layer parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OfdmParams {
    /// Sample rate in Hz.
    pub fs: f64,
    /// FFT length (samples per symbol core). It must be even with no prime
    /// factor above 5, the lengths `aqua_dsp::fft::RealFft` plans; 960,
    /// 1920 and 4800 are 48 000/Δf for Δf = 50, 25 and 10 Hz.
    pub n_fft: usize,
    /// Cyclic prefix length in samples.
    pub cp: usize,
    /// Index of the first usable subcarrier (1 kHz).
    pub first_bin: usize,
    /// Number of usable subcarriers (1–4 kHz band).
    pub num_bins: usize,
    /// Target RMS of a full-band transmitted symbol (digital full scale).
    /// Total transmit power is held constant as the band shrinks — this is
    /// the power reallocation Algorithm 1 reasons about.
    pub target_rms: f64,
}

impl OfdmParams {
    /// The paper's default: 50 Hz spacing, 20 ms symbols.
    pub fn spacing_50hz() -> Self {
        Self {
            fs: 48_000.0,
            n_fft: 960,
            cp: 67,
            first_bin: 20,
            num_bins: 60,
            target_rms: 0.2,
        }
    }

    /// Fig. 17 variant: 25 Hz spacing, 40 ms symbols.
    pub fn spacing_25hz() -> Self {
        Self {
            fs: 48_000.0,
            n_fft: 1920,
            cp: 134,
            first_bin: 40,
            num_bins: 120,
            target_rms: 0.2,
        }
    }

    /// Fig. 17 variant: 10 Hz spacing, 100 ms symbols.
    pub fn spacing_10hz() -> Self {
        Self {
            fs: 48_000.0,
            n_fft: 4800,
            cp: 336,
            first_bin: 100,
            num_bins: 300,
            target_rms: 0.2,
        }
    }

    /// Subcarrier spacing in Hz.
    pub fn spacing_hz(&self) -> f64 {
        self.fs / self.n_fft as f64
    }

    /// Center frequency of usable bin `k` (0-based within the band).
    pub fn bin_freq_hz(&self, k: usize) -> f64 {
        (self.first_bin + k) as f64 * self.spacing_hz()
    }

    /// Samples per symbol including the cyclic prefix.
    pub fn symbol_len(&self) -> usize {
        self.n_fft + self.cp
    }

    /// Symbol duration in seconds (including CP).
    pub fn symbol_duration_s(&self) -> f64 {
        self.symbol_len() as f64 / self.fs
    }

    /// The paper's coded-bitrate metric for a selected band of `l` bins:
    /// `l × spacing × 2/3` (BPSK, rate-2/3; e.g. 19 bins → 633.3 bps).
    pub fn coded_bitrate_bps(&self, l: usize) -> f64 {
        l as f64 * self.spacing_hz() * 2.0 / 3.0
    }

    /// Per-bin BPSK amplitude that yields `target_rms` when `l` bins are
    /// loaded: total power is constant, so amplitude grows as the band
    /// shrinks (`A = rms·N/√(2l)`).
    pub fn bin_amplitude(&self, l: usize) -> f64 {
        assert!(l > 0);
        self.target_rms * self.n_fft as f64 / (2.0 * l as f64).sqrt()
    }
}

impl Default for OfdmParams {
    fn default() -> Self {
        Self::spacing_50hz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl OfdmParams {
        /// Cyclic-prefix overhead fraction.
        fn cp_overhead(&self) -> f64 {
            self.cp as f64 / self.n_fft as f64
        }
    }

    #[test]
    fn default_matches_paper_numerology() {
        let p = OfdmParams::default();
        assert_eq!(p.n_fft, 960);
        assert_eq!(p.cp, 67);
        assert!((p.spacing_hz() - 50.0).abs() < 1e-12);
        assert!((p.symbol_duration_s() - 0.02139583).abs() < 1e-6);
        assert!((p.cp_overhead() - 0.0698).abs() < 0.001, "6.9% CP overhead");
        assert_eq!(p.num_bins, 60);
        assert!((p.bin_freq_hz(0) - 1000.0).abs() < 1e-9);
        assert!((p.bin_freq_hz(59) - 3950.0).abs() < 1e-9);
    }

    #[test]
    fn bitrate_metric_matches_paper_examples() {
        let p = OfdmParams::default();
        // 19 bins -> 633.3 bps (Fig. 12a's 5 m median)
        assert!((p.coded_bitrate_bps(19) - 633.333).abs() < 0.01);
        // 4 bins -> 133.3 bps (30 m median)
        assert!((p.coded_bitrate_bps(4) - 133.333).abs() < 0.01);
        // full band -> 2 kbps nominal, ~1.87 kbps with CP (paper's 1.8 kbps)
        assert!((p.coded_bitrate_bps(60) - 2000.0).abs() < 0.01);
        let with_cp = 60.0 * (2.0 / 3.0) / p.symbol_duration_s();
        assert!(with_cp > 1800.0 && with_cp < 1900.0, "{with_cp}");
    }

    #[test]
    fn spacing_variants_scale_consistently() {
        for (p, spacing) in [
            (OfdmParams::spacing_25hz(), 25.0),
            (OfdmParams::spacing_10hz(), 10.0),
        ] {
            assert!((p.spacing_hz() - spacing).abs() < 1e-9);
            // band stays 1-4 kHz
            assert!((p.bin_freq_hz(0) - 1000.0).abs() < 1e-9);
            let last = p.bin_freq_hz(p.num_bins - 1);
            assert!(last < 4000.0 && last > 3900.0);
            // CP overhead stays ~7%
            assert!((p.cp_overhead() - 0.07).abs() < 0.003);
        }
    }

    #[test]
    fn power_is_conserved_across_band_sizes() {
        let p = OfdmParams::default();
        // total power ∝ l·A(l)² must be constant
        let p60 = 60.0 * p.bin_amplitude(60).powi(2);
        let p10 = 10.0 * p.bin_amplitude(10).powi(2);
        let p1 = 1.0 * p.bin_amplitude(1).powi(2);
        assert!((p60 - p10).abs() / p60 < 1e-12);
        assert!((p60 - p1).abs() / p60 < 1e-12);
    }
}
