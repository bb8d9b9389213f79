//! Cross-correlation primitives used by preamble detection.
//!
//! Coarse packet detection cross-correlates the incoming stream against
//! the known preamble; the fine stage uses normalized segment-to-segment
//! sliding correlation, implemented in `aqua-phy` on top of the primitives
//! here. Three implementations share one contract:
//!
//! - [`xcorr_valid`] — the naive O(N·M) time-domain loop, kept as the
//!   reference oracle the others are tested against.
//! - [`xcorr_valid_fft`] — one-shot FFT acceleration for offline buffers.
//! - [`crate::stream::OverlapSaveCorrelator`] — streaming overlap-save
//!   block convolution for the live receiver path.
//!
//! Detection input passes through [`silence_non_finite`] first.

use crate::complex::{Complex, ZERO};
use crate::fft::planner;
use std::borrow::Cow;

/// Cross-correlation of `signal` with `template` ("valid" lags only):
/// `out[i] = Σ_j signal[i+j]·template[j]` for `i` in
/// `0..=signal.len()-template.len()`.
///
/// This is the *naive O(N·M) time-domain reference*. It is exact (no FFT
/// rounding) but far too slow for the receiver hot path — use
/// [`xcorr_valid_fft`] for offline buffers and
/// [`crate::stream::OverlapSaveCorrelator`] for live streams; both are
/// regression-tested against this loop.
///
/// Degenerate inputs: returns an empty vector when `template` is empty,
/// when `signal` is empty, or when the template is longer than the signal
/// (there is no complete window, hence no valid lag).
pub fn xcorr_valid(signal: &[f64], template: &[f64]) -> Vec<f64> {
    if template.is_empty() || signal.len() < template.len() {
        return Vec::new();
    }
    let out_len = signal.len() - template.len() + 1;
    let mut out = vec![0.0; out_len];
    for i in 0..out_len {
        let mut acc = 0.0;
        for (j, &t) in template.iter().enumerate() {
            acc += signal[i + j] * t;
        }
        out[i] = acc;
    }
    out
}

/// FFT-accelerated version of [`xcorr_valid`]. Identical output up to FFT
/// rounding (≈1e-12 relative), much faster for long signals/templates
/// (correlation = convolution with the reversed template). Transforms the
/// whole buffer in one shot — for chunked/streaming input use
/// [`crate::stream::OverlapSaveCorrelator`] instead.
///
/// Degenerate inputs: same contract as [`xcorr_valid`] — empty output for
/// an empty template, an empty signal, or a template longer than the
/// signal.
pub fn xcorr_valid_fft(signal: &[f64], template: &[f64]) -> Vec<f64> {
    if template.is_empty() || signal.len() < template.len() {
        return Vec::new();
    }
    let out_len = signal.len() - template.len() + 1;
    let n = (signal.len() + template.len()).next_power_of_two();
    let plan = planner(n);
    let mut a: Vec<Complex> = signal.iter().map(|&v| Complex::real(v)).collect();
    a.resize(n, ZERO);
    let mut b: Vec<Complex> = template.iter().rev().map(|&v| Complex::real(v)).collect();
    b.resize(n, ZERO);
    plan.forward(&mut a);
    plan.forward(&mut b);
    for (p, q) in a.iter_mut().zip(&b) {
        *p *= *q;
    }
    plan.inverse(&mut a);
    // full-convolution index of valid lag i is i + template.len() - 1
    (0..out_len).map(|i| a[i + template.len() - 1].re).collect()
}

/// Normalized cross-correlation: [`xcorr_valid_fft`] divided by the product
/// of the template norm and the local signal norm over each window. Output
/// values lie in [-1, 1] (up to rounding); windows whose energy product
/// falls below 1e-30 (near-silence) yield exactly `0.0` rather than
/// dividing by dust. Degenerate inputs return an empty vector, as in
/// [`xcorr_valid`].
pub fn xcorr_normalized(signal: &[f64], template: &[f64]) -> Vec<f64> {
    let raw = xcorr_valid_fft(signal, template);
    if raw.is_empty() {
        return raw;
    }
    let t_norm: f64 = template.iter().map(|v| v * v).sum::<f64>().sqrt();
    // Sliding window energy via prefix sums.
    let mut prefix = vec![0.0; signal.len() + 1];
    for (i, &v) in signal.iter().enumerate() {
        prefix[i + 1] = prefix[i] + v * v;
    }
    let w = template.len();
    raw.iter()
        .enumerate()
        .map(|(i, &r)| {
            let e = prefix[i + w] - prefix[i];
            let denom = t_norm * e.sqrt();
            if denom > 1e-30 {
                r / denom
            } else {
                0.0
            }
        })
        .collect()
}

/// Real inner product over the overlap of two slices.
pub fn inner(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `signal` with every NaN and ±inf replaced by 0.0, borrowed unchanged
/// when every sample is finite.
///
/// Outside audio can hold NaN or ±inf (a glitching sound card, a corrupt
/// file). A filter, a correlation or a running sum of window energies
/// spreads one such sample over every later output, and an FFT block over
/// the whole block, so one of them would hide every preamble after it.
/// Silenced, a run of them costs no more than a dropout as long. Finite
/// input keeps its path and its bits.
pub fn silence_non_finite(signal: &[f64]) -> Cow<'_, [f64]> {
    if signal.iter().all(|x| x.is_finite()) {
        Cow::Borrowed(signal)
    } else {
        Cow::Owned(
            signal
                .iter()
                .map(|&x| if x.is_finite() { x } else { 0.0 })
                .collect(),
        )
    }
}

/// Index of the maximum value; `None` on an empty slice. Ties resolve to the
/// first occurrence.
pub fn argmax(values: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in values.iter().enumerate() {
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_and_fft_xcorr_agree() {
        let signal: Vec<f64> = (0..500).map(|i| ((i * 37) % 19) as f64 - 9.0).collect();
        let template: Vec<f64> = (0..64).map(|i| ((i * 11) % 7) as f64 - 3.0).collect();
        let a = xcorr_valid(&signal, &template);
        let b = xcorr_valid_fft(&signal, &template);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn xcorr_peaks_at_embedded_template() {
        let template: Vec<f64> = (0..128)
            .map(|i| (2.0 * std::f64::consts::PI * 0.13 * i as f64).sin())
            .collect();
        let mut signal = vec![0.0; 1000];
        let offset = 333;
        for (j, &t) in template.iter().enumerate() {
            signal[offset + j] = t;
        }
        let corr = xcorr_valid_fft(&signal, &template);
        assert_eq!(argmax(&corr), Some(offset));
    }

    #[test]
    fn normalized_xcorr_is_one_at_exact_match() {
        let template: Vec<f64> = (0..64).map(|i| (i as f64 * 0.7).sin() + 0.1).collect();
        let mut signal = vec![0.0; 300];
        signal[100..164].copy_from_slice(&template);
        // add a louder non-matching burst elsewhere
        for i in 0..64 {
            signal[200 + i] = 5.0 * ((i % 2) as f64 - 0.5);
        }
        let corr = xcorr_normalized(&signal, &template);
        assert!((corr[100] - 1.0).abs() < 1e-9);
        assert_eq!(
            argmax(&corr),
            Some(100),
            "normalization must beat the loud burst"
        );
    }

    #[test]
    fn normalized_xcorr_is_scale_invariant() {
        let template: Vec<f64> = (0..32).map(|i| (i as f64 * 0.9).cos()).collect();
        let mut signal = vec![0.0; 100];
        for (j, &t) in template.iter().enumerate() {
            signal[40 + j] = 0.001 * t; // 60 dB weaker than template
        }
        let corr = xcorr_normalized(&signal, &template);
        assert!((corr[40] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs_yield_empty_outputs() {
        assert!(xcorr_valid(&[1.0], &[1.0, 2.0]).is_empty());
        assert!(xcorr_valid_fft(&[], &[1.0]).is_empty());
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn degenerate_inputs_share_one_contract_across_implementations() {
        // every (signal, template) pair with no complete window must yield
        // an empty output from all three implementations
        let sig = [1.0, 2.0, 3.0];
        let cases: [(&[f64], &[f64]); 4] = [
            (&sig, &[]),       // empty template
            (&[], &[1.0]),     // empty signal
            (&[], &[]),        // both empty
            (&sig[..2], &sig), // template longer than signal
        ];
        for (s, t) in cases {
            assert!(xcorr_valid(s, t).is_empty(), "naive: {s:?} vs {t:?}");
            assert!(xcorr_valid_fft(s, t).is_empty(), "fft: {s:?} vs {t:?}");
            assert!(xcorr_normalized(s, t).is_empty(), "norm: {s:?} vs {t:?}");
        }
    }

    #[test]
    fn template_equal_to_signal_yields_single_lag() {
        let s = [0.5, -1.0, 2.0];
        let direct = xcorr_valid(&s, &s);
        let fft = xcorr_valid_fft(&s, &s);
        assert_eq!(direct.len(), 1);
        assert_eq!(fft.len(), 1);
        let energy: f64 = s.iter().map(|v| v * v).sum();
        assert!((direct[0] - energy).abs() < 1e-12);
        assert!((fft[0] - energy).abs() < 1e-9);
        let norm = xcorr_normalized(&s, &s);
        assert!((norm[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn silent_window_normalizes_to_zero_not_nan() {
        let mut sig = vec![0.0; 64];
        sig[40] = 1.0;
        let template = [1.0, 1.0, 1.0, 1.0];
        let corr = xcorr_normalized(&sig, &template);
        assert!(corr.iter().all(|v| v.is_finite()));
        assert_eq!(corr[0], 0.0, "all-zero window must yield exactly 0.0");
    }
}
