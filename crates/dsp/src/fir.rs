//! FIR filter design (windowed sinc) and application.
//!
//! The receiver front end uses a 128-order (129-tap) bandpass at 1–4 kHz
//! (§2.3.2 of the paper); the channel simulator uses FIR convolution for
//! multipath impulse responses. Long convolutions go through FFT
//! overlap-add; short ones run directly.

use crate::complex::{Complex, ZERO};
use crate::fft::real_planner;
use crate::window::Window;
use std::cell::RefCell;
use std::collections::HashMap;

/// Designs a linear-phase lowpass FIR with `taps` coefficients and cutoff
/// `cutoff_hz` at sample rate `fs`, using the given window.
fn design_lowpass(taps: usize, cutoff_hz: f64, fs: f64, window: Window) -> Vec<f64> {
    assert!(taps >= 1 && cutoff_hz > 0.0 && cutoff_hz < fs / 2.0);
    let fc = cutoff_hz / fs; // normalized (cycles/sample)
    let mid = (taps - 1) as f64 / 2.0;
    let mut h: Vec<f64> = (0..taps)
        .map(|n| {
            let t = n as f64 - mid;
            let sinc = if t.abs() < 1e-12 {
                2.0 * fc
            } else {
                (2.0 * std::f64::consts::PI * fc * t).sin() / (std::f64::consts::PI * t)
            };
            sinc * window.value(n, taps)
        })
        .collect();
    // Normalize DC gain to 1.
    let dc: f64 = h.iter().sum();
    for c in h.iter_mut() {
        *c /= dc;
    }
    h
}

/// Designs a linear-phase bandpass FIR passing `lo_hz..hi_hz`.
///
/// Built as the difference of two lowpass designs; gain is normalized to
/// unity at the band center.
pub fn design_bandpass(taps: usize, lo_hz: f64, hi_hz: f64, fs: f64, window: Window) -> Vec<f64> {
    assert!(lo_hz < hi_hz && hi_hz < fs / 2.0);
    let hp = design_lowpass(taps, hi_hz, fs, window);
    let lp = design_lowpass(taps, lo_hz, fs, window);
    let mut h: Vec<f64> = hp.iter().zip(&lp).map(|(a, b)| a - b).collect();
    // Normalize gain at band center.
    let f0 = (lo_hz + hi_hz) / 2.0 / fs;
    let (mut re, mut im) = (0.0, 0.0);
    for (n, &c) in h.iter().enumerate() {
        let phi = -2.0 * std::f64::consts::PI * f0 * n as f64;
        re += c * phi.cos();
        im += c * phi.sin();
    }
    let gain = re.hypot(im);
    if gain > 1e-12 {
        for c in h.iter_mut() {
            *c /= gain;
        }
    }
    h
}

/// Direct-form convolution, "full" mode: output length `x.len()+h.len()-1`.
pub fn convolve(x: &[f64], h: &[f64]) -> Vec<f64> {
    if x.is_empty() || h.is_empty() {
        return Vec::new();
    }
    let mut y = vec![0.0; x.len() + h.len() - 1];
    for (i, &xi) in x.iter().enumerate() {
        if xi == 0.0 {
            continue;
        }
        for (j, &hj) in h.iter().enumerate() {
            y[i + j] += xi * hj;
        }
    }
    y
}

/// FFT-based convolution, "full" mode. Much faster for long inputs.
///
/// Both inputs are real, so this runs on the half-size real-FFT path
/// ([`crate::fft::RealFft`]): two half-spectrum forwards, a pointwise
/// product over `n/2 + 1` bins, and one Hermitian inverse — roughly half
/// the complex-transform work of the naive full-length approach. This is
/// the channel renderer's inner loop, paid several times per trial.
pub fn fft_convolve(x: &[f64], h: &[f64]) -> Vec<f64> {
    if x.is_empty() || h.is_empty() {
        return Vec::new();
    }
    let out_len = x.len() + h.len() - 1;
    let n = out_len.next_power_of_two();
    let plan = real_planner(n);
    let mut a = x.to_vec();
    a.resize(n, 0.0);
    let mut b = h.to_vec();
    b.resize(n, 0.0);
    let mut fa = plan.forward_half(&a);
    let fb = plan.forward_half(&b);
    for (p, q) in fa.iter_mut().zip(&fb) {
        *p *= *q;
    }
    let mut y = plan.inverse_half(&fa);
    y.truncate(out_len);
    y
}

/// Work threshold above which [`convolve_auto`] switches from direct to
/// FFT convolution. [`PlannedConvolver::filter_same_into`] uses the same
/// cutoff so the planned path stays bit-identical to the unplanned one.
const DIRECT_FFT_THRESHOLD: usize = 1 << 16;

/// Convolution that picks direct or FFT form based on size.
pub fn convolve_auto(x: &[f64], h: &[f64]) -> Vec<f64> {
    // Direct cost ~ x.len()*h.len(); FFT cost ~ N log N with N ≈ sum.
    if x.len().saturating_mul(h.len()) > DIRECT_FFT_THRESHOLD {
        fft_convolve(x, h)
    } else {
        convolve(x, h)
    }
}

/// Applies an FIR filter and compensates its group delay, returning a signal
/// the same length as the input ("same" mode centered on the filter's linear
/// phase delay). Assumes `h` is linear phase (symmetric), as all filters
/// designed in this module are.
pub fn filter_same(x: &[f64], h: &[f64]) -> Vec<f64> {
    let full = convolve_auto(x, h);
    let delay = (h.len() - 1) / 2;
    full[delay..delay + x.len()].to_vec()
}

/// FFT convolution with a fixed filter, planned once and reused.
///
/// [`fft_convolve`] pays two costs per call that do not depend on the
/// input: the filter's padded forward transform, and fresh `Vec`s for the
/// padded input, both spectra and the output. `PlannedConvolver` caches
/// the filter's half-spectrum per padded FFT size (the size follows the
/// input length, so several can coexist) and reuses scratch buffers across
/// calls; the `*_into` variants also reuse the output buffer. This is the
/// per-packet hot path of the channel renderer and the receiver front end,
/// paid several times per trial.
///
/// Every result is **bit-identical** to the unplanned free functions: the
/// same `RealFft` plan (one per length and process, from `real_planner`)
/// runs the same arithmetic on the same values — only the redundant
/// recomputation and allocation are gone. The equivalence is pinned by
/// `dsp/tests/properties.rs`.
pub struct PlannedConvolver {
    taps: Vec<f64>,
    /// Filter half-spectra keyed by padded FFT size.
    spectra: RefCell<HashMap<usize, Vec<Complex>>>,
    /// Zero-padded input scratch.
    padded: RefCell<Vec<f64>>,
    /// Input-spectrum / product scratch.
    spec: RefCell<Vec<Complex>>,
}

impl PlannedConvolver {
    /// Plans convolution by the given filter taps.
    pub fn new(taps: Vec<f64>) -> Self {
        Self {
            taps,
            spectra: RefCell::new(HashMap::new()),
            padded: RefCell::new(Vec::new()),
            spec: RefCell::new(Vec::new()),
        }
    }

    /// The filter taps this convolver applies.
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// "Full"-mode convolution; bit-identical to
    /// [`fft_convolve`]`(x, self.taps())`.
    pub fn convolve(&self, x: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.convolve_into(x, &mut out);
        out
    }

    /// [`convolve`](PlannedConvolver::convolve) into a caller-owned buffer
    /// (cleared and refilled; no allocation once the scratch is warm).
    pub fn convolve_into(&self, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        if x.is_empty() || self.taps.is_empty() {
            return;
        }
        let out_len = x.len() + self.taps.len() - 1;
        let n = out_len.next_power_of_two();
        let plan = real_planner(n);
        let mut spectra = self.spectra.borrow_mut();
        let fb = spectra.entry(n).or_insert_with(|| {
            let mut b = self.taps.clone();
            b.resize(n, 0.0);
            plan.forward_half(&b)
        });
        let mut padded = self.padded.borrow_mut();
        padded.clear();
        padded.extend_from_slice(x);
        padded.resize(n, 0.0);
        let mut fa = self.spec.borrow_mut();
        plan.forward_half_into(&padded, &mut fa);
        for (p, q) in fa.iter_mut().zip(fb.iter()) {
            *p *= *q;
        }
        plan.inverse_half_into(&fa, out);
        out.truncate(out_len);
    }

    /// "Same"-mode filtering with group-delay compensation; bit-identical
    /// to [`filter_same`]`(x, self.taps())` including its direct-vs-FFT
    /// dispatch, with the delay trim done in place (one buffer end to end).
    pub fn filter_same(&self, x: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.filter_same_into(x, &mut out);
        out
    }

    /// [`filter_same`](PlannedConvolver::filter_same) into a caller-owned
    /// buffer.
    fn filter_same_into(&self, x: &[f64], out: &mut Vec<f64>) {
        if x.len().saturating_mul(self.taps.len()) > DIRECT_FFT_THRESHOLD {
            self.convolve_into(x, out);
        } else {
            // Direct form, written straight into `out` with the same
            // accumulation order (and zero-skip) as `convolve`.
            out.clear();
            out.resize(x.len() + self.taps.len() - 1, 0.0);
            for (i, &xi) in x.iter().enumerate() {
                if xi == 0.0 {
                    continue;
                }
                for (j, &hj) in self.taps.iter().enumerate() {
                    out[i + j] += xi * hj;
                }
            }
        }
        let delay = (self.taps.len() - 1) / 2;
        out.copy_within(delay..delay + x.len(), 0);
        out.truncate(x.len());
    }
}

/// A streaming FIR filter with persistent state, for block-based real-time
/// style processing (carrier sense, receiver front end).
pub struct StreamingFir {
    taps: Vec<f64>,
    /// Delay line of the last `taps.len()-1` input samples.
    history: Vec<f64>,
    /// Reusable history+block work buffer (grows to the largest block).
    scratch: Vec<f64>,
}

impl StreamingFir {
    /// Creates a streaming filter from taps.
    pub fn new(taps: Vec<f64>) -> Self {
        assert!(!taps.is_empty());
        let hist_len = taps.len() - 1;
        Self {
            taps,
            history: vec![0.0; hist_len],
            scratch: Vec::new(),
        }
    }

    /// Filters one block, maintaining state across calls. Output aligns with
    /// input (causal; includes the filter's group delay).
    pub fn process(&mut self, block: &[f64]) -> Vec<f64> {
        let hist = self.taps.len() - 1;
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.history);
        self.scratch.extend_from_slice(block);
        let mut out = Vec::with_capacity(block.len());
        for i in 0..block.len() {
            // scratch index of current sample = hist + i ≥ every tap
            // offset, so indices never underflow.
            let end = hist + i;
            let mut acc = 0.0;
            for (j, &t) in self.taps.iter().enumerate() {
                acc += t * self.scratch[end - j];
            }
            out.push(acc);
        }
        // The last `hist` samples of history++block are exactly the next
        // call's delay line — no tail copy through a temporary.
        let n = self.scratch.len();
        self.history.copy_from_slice(&self.scratch[n - hist..]);
        out
    }

    /// Resets the delay line.
    pub fn reset(&mut self) {
        for v in self.history.iter_mut() {
            *v = 0.0;
        }
    }
}

/// Evaluates the frequency response of an FIR at `freq_hz`, returning
/// magnitude in dB.
pub fn freq_response_db(taps: &[f64], freq_hz: f64, fs: f64) -> f64 {
    let w = 2.0 * std::f64::consts::PI * freq_hz / fs;
    let mut acc = ZERO;
    for (n, &c) in taps.iter().enumerate() {
        acc += Complex::cis(-w * n as f64).scale(c);
    }
    20.0 * acc.abs().max(1e-300).log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowpass_passes_dc_and_rejects_high() {
        let h = design_lowpass(129, 1000.0, 48000.0, Window::Hamming);
        assert!(freq_response_db(&h, 0.0, 48000.0).abs() < 0.1);
        assert!(freq_response_db(&h, 10000.0, 48000.0) < -40.0);
    }

    #[test]
    fn bandpass_passes_band_and_rejects_outside() {
        let h = design_bandpass(129, 1000.0, 4000.0, 48000.0, Window::Hamming);
        assert!(freq_response_db(&h, 2500.0, 48000.0).abs() < 0.5);
        assert!(freq_response_db(&h, 100.0, 48000.0) < -30.0);
        assert!(freq_response_db(&h, 10000.0, 48000.0) < -30.0);
    }

    #[test]
    fn fft_convolve_matches_direct() {
        let x: Vec<f64> = (0..300).map(|i| ((i * 7919) % 23) as f64 - 11.0).collect();
        let h: Vec<f64> = (0..45).map(|i| ((i * 104729) % 17) as f64 - 8.0).collect();
        let a = convolve(&x, &h);
        let b = fft_convolve(&x, &h);
        assert_eq!(a.len(), b.len());
        for (p, q) in a.iter().zip(&b) {
            assert!((p - q).abs() < 1e-6);
        }
    }

    #[test]
    fn convolve_with_unit_impulse_is_identity() {
        let x = vec![1.0, -2.0, 3.0, 0.5];
        let y = convolve(&x, &[1.0]);
        assert_eq!(x, y);
    }

    #[test]
    fn filter_same_preserves_length_and_tone() {
        let fs = 48000.0;
        let h = design_bandpass(129, 1000.0, 4000.0, fs, Window::Hamming);
        let x: Vec<f64> = (0..4800)
            .map(|i| (2.0 * std::f64::consts::PI * 2000.0 * i as f64 / fs).sin())
            .collect();
        let y = filter_same(&x, &h);
        assert_eq!(y.len(), x.len());
        // mid-signal energy should be preserved (ignore edge transients)
        let ex: f64 = x[500..4300].iter().map(|v| v * v).sum();
        let ey: f64 = y[500..4300].iter().map(|v| v * v).sum();
        assert!((ey / ex - 1.0).abs() < 0.05, "energy ratio {}", ey / ex);
    }

    #[test]
    fn streaming_fir_matches_batch_convolution() {
        let h = design_lowpass(33, 3000.0, 48000.0, Window::Hann);
        let x: Vec<f64> = (0..1000).map(|i| ((i * 31) % 13) as f64 - 6.0).collect();
        let batch = convolve(&x, &h);
        let mut f = StreamingFir::new(h.clone());
        let mut streamed = Vec::new();
        for chunk in x.chunks(17) {
            streamed.extend(f.process(chunk));
        }
        for i in 0..streamed.len() {
            assert!((streamed[i] - batch[i]).abs() < 1e-9, "sample {i}");
        }
    }

    #[test]
    fn streaming_fir_reset_clears_state() {
        let mut f = StreamingFir::new(vec![0.5, 0.5]);
        f.process(&[10.0, 10.0]);
        f.reset();
        let y = f.process(&[0.0]);
        assert_eq!(y, vec![0.0]);
    }

    fn rand_vec(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s as f64 / u64::MAX as f64) - 0.5
            })
            .collect()
    }

    #[test]
    fn planned_convolver_is_bit_identical_to_fft_convolve() {
        // Repeated calls at several input lengths (several padded sizes),
        // interleaved, must all match the unplanned path bit for bit.
        let h = rand_vec(129, 7);
        let conv = PlannedConvolver::new(h.clone());
        for &n in &[1usize, 37, 129, 500, 500, 1000, 37, 4096] {
            let x = rand_vec(n, n as u64 + 1);
            let planned = conv.convolve(&x);
            let reference = fft_convolve(&x, &h);
            assert_eq!(planned.len(), reference.len(), "len {n}");
            for (i, (p, r)) in planned.iter().zip(&reference).enumerate() {
                assert_eq!(p.to_bits(), r.to_bits(), "len {n} sample {i}");
            }
        }
    }

    #[test]
    fn planned_convolver_empty_input_is_empty() {
        let conv = PlannedConvolver::new(vec![1.0, 2.0]);
        assert!(conv.convolve(&[]).is_empty());
        let empty = PlannedConvolver::new(Vec::new());
        assert!(empty.convolve(&[1.0, 2.0]).is_empty());
    }

    #[test]
    fn planned_filter_same_matches_free_function_both_branches() {
        let h = design_bandpass(129, 1000.0, 4000.0, 48000.0, Window::Hamming);
        let conv = PlannedConvolver::new(h.clone());
        // 300 samples: direct branch; 3000 samples: FFT branch.
        for &n in &[300usize, 3000] {
            let x = rand_vec(n, 3 + n as u64);
            let planned = conv.filter_same(&x);
            let reference = filter_same(&x, &h);
            assert_eq!(planned.len(), reference.len());
            for (i, (p, r)) in planned.iter().zip(&reference).enumerate() {
                assert_eq!(p.to_bits(), r.to_bits(), "len {n} sample {i}");
            }
        }
    }

    #[test]
    fn convolve_into_reuses_buffer_across_sizes() {
        let conv = PlannedConvolver::new(rand_vec(33, 5));
        let mut out = Vec::new();
        conv.convolve_into(&rand_vec(100, 1), &mut out);
        assert_eq!(out.len(), 132);
        conv.convolve_into(&rand_vec(10, 2), &mut out);
        assert_eq!(out.len(), 42);
        let reference = fft_convolve(&rand_vec(10, 2), conv.taps());
        assert_eq!(out, reference);
    }

    #[test]
    fn streaming_fir_long_stream_matches_legacy_implementation() {
        // The pre-scratch implementation, kept verbatim as the oracle for
        // the history-rotation rewrite (it reallocated the tail per block).
        struct Legacy {
            taps: Vec<f64>,
            history: Vec<f64>,
        }
        impl Legacy {
            fn process(&mut self, block: &[f64]) -> Vec<f64> {
                let k = self.taps.len();
                let mut extended = Vec::with_capacity(self.history.len() + block.len());
                extended.extend_from_slice(&self.history);
                extended.extend_from_slice(block);
                let mut out = Vec::with_capacity(block.len());
                for i in 0..block.len() {
                    let end = self.history.len() + i;
                    let mut acc = 0.0;
                    for (j, &t) in self.taps.iter().enumerate() {
                        let idx = end as isize - j as isize;
                        if idx >= 0 {
                            acc += t * extended[idx as usize];
                        }
                    }
                    out.push(acc);
                }
                if block.len() >= k - 1 {
                    self.history.clear();
                    self.history
                        .extend_from_slice(&block[block.len() - (k - 1)..]);
                } else {
                    let keep = (k - 1) - block.len();
                    let tail: Vec<f64> = self.history[self.history.len() - keep..].to_vec();
                    self.history.clear();
                    self.history.extend_from_slice(&tail);
                    self.history.extend_from_slice(block);
                }
                out
            }
        }
        let taps = design_bandpass(129, 1000.0, 4000.0, 48000.0, Window::Hamming);
        let mut new_impl = StreamingFir::new(taps.clone());
        let mut old_impl = Legacy {
            history: vec![0.0; taps.len() - 1],
            taps,
        };
        // A long stream with shifting chunk sizes, including sub-history
        // blocks (the branch the old tail copy served).
        let x = rand_vec(20_000, 77);
        let mut pos = 0;
        let mut step = 0usize;
        while pos < x.len() {
            let sizes = [1usize, 3, 960, 97, 128, 480, 31, 2048];
            let take = sizes[step % sizes.len()].min(x.len() - pos);
            let a = new_impl.process(&x[pos..pos + take]);
            let b = old_impl.process(&x[pos..pos + take]);
            assert_eq!(a.len(), b.len());
            for (i, (p, q)) in a.iter().zip(&b).enumerate() {
                assert_eq!(p.to_bits(), q.to_bits(), "chunk at {pos}, sample {i}");
            }
            pos += take;
            step += 1;
        }
    }
}
