//! OFDM symbol synthesis and analysis: bins ↔ time-domain samples.
//!
//! Real baseband-at-passband OFDM: the usable bins (1–4 kHz) are loaded
//! with complex values, Hermitian symmetry makes the IFFT output real, and
//! the cyclic prefix is prepended. Analysis strips the CP, FFTs the core,
//! and extracts the usable bins.

use crate::params::OfdmParams;
use aqua_dsp::complex::{Complex, ZERO};
use aqua_dsp::fft::real_planner;

/// Synthesizes one OFDM symbol (CP + core) from per-usable-bin complex
/// values. `values.len()` must equal `params.num_bins`; bins with `ZERO`
/// stay silent. No amplitude normalization is applied here — callers load
/// bins with [`OfdmParams::bin_amplitude`]-scaled values.
///
/// The Hermitian mirror that makes the output real is implicit in the
/// half-spectrum inverse ([`aqua_dsp::fft::RealFft::inverse_half`]), so
/// synthesis pays one `n_fft/2`-point complex FFT rather than a full one.
pub fn synthesize(params: &OfdmParams, values: &[Complex]) -> Vec<f64> {
    assert_eq!(values.len(), params.num_bins, "bin count mismatch");
    let n = params.n_fft;
    let plan = real_planner(n);
    let mut half = vec![ZERO; plan.spectrum_len()];
    for (k, &v) in values.iter().enumerate() {
        half[params.first_bin + k] = v;
    }
    let core = plan.inverse_half(&half);
    let mut out = Vec::with_capacity(params.symbol_len());
    out.extend_from_slice(&core[n - params.cp..]);
    out.extend_from_slice(&core);
    out
}

/// Synthesizes the symbol core only (no CP) — used for the preamble, which
/// concatenates identical cores without per-symbol prefixes.
pub fn synthesize_core(params: &OfdmParams, values: &[Complex]) -> Vec<f64> {
    let with_cp = synthesize(params, values);
    with_cp[params.cp..].to_vec()
}

/// Analyzes a symbol core (no CP): FFT + usable-bin extraction. The
/// usable bins all sit below Nyquist, so the half-spectrum real FFT
/// computes exactly the bins needed.
pub fn analyze_core(params: &OfdmParams, core: &[f64]) -> Vec<Complex> {
    assert_eq!(core.len(), params.n_fft, "core length mismatch");
    let spec = real_planner(params.n_fft).forward_half(core);
    (0..params.num_bins)
        .map(|k| spec[params.first_bin + k])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Analyzes one OFDM symbol: `samples` must contain at least
    /// `symbol_len()` samples starting at the symbol boundary (CP first).
    /// Returns the complex value of each usable bin.
    fn analyze(params: &OfdmParams, samples: &[f64]) -> Vec<Complex> {
        assert!(
            samples.len() >= params.symbol_len(),
            "need a full symbol, got {}",
            samples.len()
        );
        analyze_core(params, &samples[params.cp..params.cp + params.n_fft])
    }

    /// BPSK-maps a bit to a complex bin value with the given amplitude:
    /// bit 0 → +A, bit 1 → −A.
    fn bpsk(bit: u8, amplitude: f64) -> Complex {
        if bit == 0 {
            Complex::real(amplitude)
        } else {
            Complex::real(-amplitude)
        }
    }

    fn params() -> OfdmParams {
        OfdmParams::default()
    }

    #[test]
    fn roundtrip_recovers_bin_values() {
        let p = params();
        let values: Vec<Complex> = (0..p.num_bins)
            .map(|k| Complex::from_polar(1.0, k as f64 * 0.37))
            .collect();
        let sym = synthesize(&p, &values);
        assert_eq!(sym.len(), p.symbol_len());
        let got = analyze(&p, &sym);
        for (a, b) in got.iter().zip(&values) {
            // FFT scaling: forward(inverse(x)) returns x (bins scaled by 1)
            assert!((*a - *b).abs() < 1e-9, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn output_is_real_and_has_expected_rms() {
        let p = params();
        let amp = p.bin_amplitude(p.num_bins);
        let values: Vec<Complex> = (0..p.num_bins).map(|k| bpsk((k % 2) as u8, amp)).collect();
        let sym = synthesize(&p, &values);
        let core = &sym[p.cp..];
        let rms = (core.iter().map(|v| v * v).sum::<f64>() / core.len() as f64).sqrt();
        assert!(
            (rms - p.target_rms).abs() / p.target_rms < 1e-9,
            "rms {rms}"
        );
    }

    #[test]
    fn narrow_band_keeps_total_power() {
        let p = params();
        let make = |l: usize| -> f64 {
            let amp = p.bin_amplitude(l);
            let values: Vec<Complex> = (0..p.num_bins)
                .map(|k| if k < l { bpsk(0, amp) } else { ZERO })
                .collect();
            let sym = synthesize(&p, &values);
            sym[p.cp..].iter().map(|v| v * v).sum::<f64>()
        };
        let full = make(60);
        let narrow = make(5);
        assert!((full - narrow).abs() / full < 1e-9);
    }

    #[test]
    fn cyclic_prefix_is_a_copy_of_the_tail() {
        let p = params();
        let values: Vec<Complex> = (0..p.num_bins)
            .map(|k| Complex::from_polar(0.8, k as f64))
            .collect();
        let sym = synthesize(&p, &values);
        for i in 0..p.cp {
            assert!((sym[i] - sym[p.n_fft + i]).abs() < 1e-12);
        }
    }

    #[test]
    fn energy_is_confined_to_band() {
        let p = params();
        let amp = p.bin_amplitude(p.num_bins);
        let values: Vec<Complex> = (0..p.num_bins).map(|_| bpsk(0, amp)).collect();
        let core = synthesize_core(&p, &values);
        let spec = real_planner(p.n_fft).forward_half(&core);
        let in_band: f64 = (p.first_bin..p.first_bin + p.num_bins)
            .map(|k| spec[k].norm_sqr())
            .sum();
        let out_band: f64 = (1..p.first_bin)
            .chain(p.first_bin + p.num_bins..p.n_fft / 2)
            .map(|k| spec[k].norm_sqr())
            .sum();
        assert!(in_band > 1e6 * out_band.max(1e-30));
    }

    #[test]
    fn bpsk_mapping() {
        assert!(bpsk(0, 2.0).re > 0.0);
        assert!(bpsk(1, 2.0).re < 0.0);
    }
}
