//! Time-domain MMSE equalization (§2.3.2).
//!
//! Underwater delay spread exceeds the 67-sample cyclic prefix, so the
//! receiver shortens the channel with a length-480 FIR equalizer estimated
//! from the known training symbol, instead of paying a long CP on every
//! symbol. Two designs are provided:
//!
//! - [`design_fd`]: regularized Wiener design in the frequency domain
//!   (estimate `H` from the training symbol, set `G = H*/(|H|²+1/SNR)`),
//!   realized as a 480-tap *time-domain* FIR applied to the sample stream.
//!   This is our realization of the paper's time-domain MMSE equalizer: on
//!   realistic shallow-water channels (dense bounce cluster inside the CP
//!   plus weak far reflectors beyond it) it conditions much better than
//!   normal equations trained on a single symbol. The default.
//! - [`design_td`]: the literal textbook construction — time-domain normal
//!   equations (Toeplitz autocorrelation solved by Levinson–Durbin) on the
//!   training symbol. With only one symbol of training data it is
//!   rank-starved for 480 taps; kept for the ablation bench.

use crate::params::OfdmParams;
use aqua_dsp::complex::Complex;
use aqua_dsp::fft::planner;
use aqua_dsp::fir::convolve_auto;
use aqua_dsp::linalg::levinson_solve;
use aqua_dsp::window::Window;

/// Default equalizer length in samples (the paper's channel length L).
pub const DEFAULT_EQ_LEN: usize = 480;

/// A designed time-domain equalizer.
#[derive(Debug, Clone)]
pub struct Equalizer {
    /// FIR taps.
    pub taps: Vec<f64>,
    /// Group delay in samples introduced by the taps; [`Equalizer::apply`]
    /// compensates it so output sample `n` corresponds to input sample `n`.
    pub delay: usize,
}

impl Equalizer {
    /// Applies the equalizer, compensating its design delay. Output has the
    /// same length as the input.
    ///
    /// Runs on one buffer end to end: the convolution (planned FFT path
    /// for packet-sized inputs, direct below the crossover) writes the
    /// full response and the delay trim happens in place — the previous
    /// implementation copied the packet a second time building the
    /// trimmed output. An equalizer is designed fresh per packet, so
    /// there is no cross-call filter spectrum worth caching here; the
    /// FFT plans themselves are the process-wide ones from the planner.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        let mut full = convolve_auto(x, &self.taps);
        if self.delay < full.len() {
            full.copy_within(self.delay.., 0);
            full.truncate(full.len() - self.delay);
        } else {
            full.clear();
        }
        full.resize(x.len(), 0.0);
        full
    }
}

/// Frequency-domain MMSE design from one received training symbol core.
///
/// `tx_core`/`rx_core` are the transmitted and received training symbol
/// cores (length `n_fft`), aligned by the preamble sync; `snr_linear` is
/// the regularization (use the preamble's mean SNR estimate).
pub fn design_fd(
    params: &OfdmParams,
    tx_core: &[f64],
    rx_core: &[f64],
    snr_linear: f64,
    len: usize,
) -> Equalizer {
    assert_eq!(tx_core.len(), params.n_fft);
    assert_eq!(rx_core.len(), params.n_fft);
    let n = params.n_fft;
    let plan = planner(n);
    let mut tx_f: Vec<Complex> = tx_core.iter().map(|&v| Complex::real(v)).collect();
    let mut rx_f: Vec<Complex> = rx_core.iter().map(|&v| Complex::real(v)).collect();
    plan.forward(&mut tx_f);
    plan.forward(&mut rx_f);

    let inv_snr = 1.0 / snr_linear.max(1e-3);
    // Average |X|² over active bins sets the scale of the regularizer.
    let mean_tx_pow: f64 = tx_f.iter().map(|c| c.norm_sqr()).sum::<f64>() / n as f64;
    let mut g = vec![aqua_dsp::complex::ZERO; n];
    for k in 0..n {
        let xp = tx_f[k].norm_sqr();
        if xp < mean_tx_pow * 1e-6 {
            continue; // no training energy at this frequency: leave G = 0
        }
        let h = rx_f[k] / tx_f[k];
        let hp = h.norm_sqr();
        g[k] = h.conj() / (hp + inv_snr);
    }
    plan.inverse(&mut g);
    // The circular impulse response has its anti-causal part at the tail;
    // rotate so the equalizer is causal with delay len/2, then window to
    // soften truncation.
    let half = len / 2;
    let mut taps = vec![0.0; len];
    for (i, tap) in taps.iter_mut().enumerate() {
        let src = (i as isize - half as isize).rem_euclid(n as isize) as usize;
        *tap = g[src].re * Window::Kaiser(6.0).value(i, len);
    }
    Equalizer { taps, delay: half }
}

/// Time-domain MMSE design via normal equations: minimizes
/// `Σ_n (Σ_k g_k·y[n−k] − x[n−D])²` with decision delay `D = len/2`,
/// solved with Levinson–Durbin on the received autocorrelation.
pub fn design_td(tx_core: &[f64], rx_core: &[f64], len: usize) -> Equalizer {
    let delay = len / 2;
    let m = rx_core.len();
    // autocorrelation of the received training signal
    let mut r = vec![0.0; len];
    for (lag, rv) in r.iter_mut().enumerate() {
        let mut acc = 0.0;
        for n in lag..m {
            acc += rx_core[n] * rx_core[n - lag];
        }
        *rv = acc;
    }
    r[0] *= 1.0 + 1e-3; // diagonal loading
                        // cross-correlation between delayed desired signal and received
    let mut b = vec![0.0; len];
    for (k, bv) in b.iter_mut().enumerate() {
        let mut acc = 0.0;
        for n in 0..m {
            let x_idx = n as isize - delay as isize;
            let y_idx = n as isize - k as isize;
            if x_idx >= 0 && (x_idx as usize) < tx_core.len() && y_idx >= 0 {
                acc += tx_core[x_idx as usize] * rx_core[y_idx as usize];
            }
        }
        *bv = acc;
    }
    let taps = levinson_solve(&r, &b).unwrap_or_else(|| {
        let mut t = vec![0.0; len];
        t[delay] = 1.0;
        t
    });
    Equalizer { taps, delay }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preamble::Preamble;
    use crate::symbol::synthesize_core;

    fn params() -> OfdmParams {
        OfdmParams::default()
    }

    fn training_core(params: &OfdmParams) -> Vec<f64> {
        Preamble::new(*params).samples[..params.n_fft].to_vec()
    }

    /// A realistic shallow-water channel: a dense bounce cluster inside the
    /// CP (surface/bottom images arrive within a few hundred microseconds
    /// of the direct path at these geometries) plus weak far reflectors
    /// (dock walls, pillars) beyond the CP — the delay spread that
    /// motivates the paper's equalizer.
    fn realistic_channel(x: &[f64]) -> Vec<f64> {
        let mut h = vec![0.0; 420];
        h[0] = 1.0;
        h[12] = -0.55;
        h[19] = 0.30;
        h[33] = -0.18;
        h[48] = 0.10;
        h[200] = 0.15;
        h[380] = -0.08;
        aqua_dsp::fir::convolve(x, &h)
    }

    fn in_band_evm_db(p: &OfdmParams, got: &[f64], want: &[f64]) -> f64 {
        let a = crate::symbol::analyze_core(p, got);
        let b = crate::symbol::analyze_core(p, want);
        let mut err = 0.0;
        let mut sig = 0.0;
        for k in 0..p.num_bins {
            err += (a[k] - b[k]).norm_sqr();
            sig += b[k].norm_sqr();
        }
        10.0 * (err.max(1e-30) / sig).log10()
    }

    #[test]
    fn identity_equalizer_passes_through() {
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let eq = Equalizer {
            taps: vec![1.0],
            delay: 0,
        };
        assert_eq!(eq.apply(&x), x);
    }

    #[test]
    fn apply_in_place_trim_matches_legacy_double_copy() {
        // The pre-PR-4 apply, kept as the oracle: convolve, then copy the
        // packet again while indexing past the design delay.
        let legacy = |eq: &Equalizer, x: &[f64]| -> Vec<f64> {
            let full = convolve_auto(x, &eq.taps);
            (0..x.len())
                .map(|i| {
                    let idx = i + eq.delay;
                    if idx < full.len() {
                        full[idx]
                    } else {
                        0.0
                    }
                })
                .collect()
        };
        let mut s = 1u64;
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) - 0.5
        };
        // Direct branch (short input), FFT branch (packet-sized input),
        // and the delay-past-the-end edge where the tail zero-fills.
        let cases: Vec<Equalizer> = vec![
            Equalizer {
                taps: (0..480).map(|_| rnd()).collect(),
                delay: 240,
            },
            Equalizer {
                taps: (0..7).map(|_| rnd()).collect(),
                delay: 3,
            },
            Equalizer {
                taps: vec![1.0, -0.5],
                delay: 600, // ≥ full length for the short input below
            },
        ];
        for eq in &cases {
            for n in [40usize, 3000] {
                let x: Vec<f64> = (0..n).map(|_| rnd()).collect();
                let got = eq.apply(&x);
                let want = legacy(eq, &x);
                assert_eq!(got.len(), want.len());
                for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "taps {} delay {} n {} sample {i}",
                        eq.taps.len(),
                        eq.delay,
                        n
                    );
                }
            }
        }
    }

    /// Designs an equalizer on a tiled (streaming) training signal and
    /// returns (post-eq EVM, raw EVM) of the middle period — the situation
    /// of a continuous symbol stream, avoiding artificial buffer edges.
    fn stream_evm(
        p: &OfdmParams,
        tx: &[f64],
        design: impl Fn(&[f64], &[f64]) -> Equalizer,
    ) -> (f64, f64) {
        let tiled: Vec<f64> = tx.iter().cycle().take(4 * tx.len()).cloned().collect();
        let rx_tiled = realistic_channel(&tiled);
        let rx_mid = &rx_tiled[p.n_fft..2 * p.n_fft];
        let eq = design(tx, rx_mid);
        let out = eq.apply(&rx_tiled);
        (
            in_band_evm_db(p, &out[2 * p.n_fft..3 * p.n_fft], tx),
            in_band_evm_db(p, rx_mid, tx),
        )
    }

    #[test]
    fn fd_equalizer_corrects_realistic_channel() {
        let p = params();
        let tx = training_core(&p);
        let (evm, evm_raw) =
            stream_evm(&p, &tx, |t, r| design_fd(&p, t, r, 1000.0, DEFAULT_EQ_LEN));
        assert!(evm < -10.0, "post-eq EVM {evm} dB");
        assert!(evm < evm_raw - 5.0, "eq {evm} vs raw {evm_raw}");
    }

    #[test]
    fn fd_equalizer_on_clean_channel_is_benign() {
        let p = params();
        let tx = training_core(&p);
        let eq = design_fd(&p, &tx, &tx, 1000.0, DEFAULT_EQ_LEN);
        let evm = in_band_evm_db(&p, &eq.apply(&tx), &tx);
        assert!(evm < -18.0, "EVM {evm} dB");
    }

    #[test]
    fn td_equalizer_improves_on_raw() {
        // The textbook TD design, trained on one symbol, still improves the
        // channel (it just conditions worse than FD at full length — the
        // ablation the bench measures).
        let p = params();
        let tx = training_core(&p);
        let (evm, evm_raw) = stream_evm(&p, &tx, |t, r| design_td(t, r, 240));
        assert!(evm < evm_raw - 3.0, "TD eq {evm} dB vs raw {evm_raw} dB");
    }

    #[test]
    fn fd_beats_single_symbol_td_at_full_length() {
        let p = params();
        let tx = training_core(&p);
        let (evm_fd, _) = stream_evm(&p, &tx, |t, r| design_fd(&p, t, r, 1000.0, DEFAULT_EQ_LEN));
        let (evm_td, _) = stream_evm(&p, &tx, |t, r| design_td(t, r, DEFAULT_EQ_LEN));
        assert!(
            evm_fd < evm_td,
            "FD {evm_fd} dB should beat single-symbol TD {evm_td} dB"
        );
    }

    #[test]
    fn equalizer_is_phase_correcting_for_bpsk() {
        // After equalization of a realistic channel, all-zero-bit loading
        // should land with positive real parts (no BPSK flips).
        let p = params();
        let amp = p.bin_amplitude(p.num_bins);
        let values: Vec<Complex> = (0..p.num_bins).map(|_| Complex::real(amp)).collect();
        let core = synthesize_core(&p, &values);
        let tiled: Vec<f64> = core.iter().cycle().take(4 * core.len()).cloned().collect();
        let rx_tiled = realistic_channel(&tiled);
        let rx_mid = &rx_tiled[p.n_fft..2 * p.n_fft];
        let eq = design_fd(&p, &core, rx_mid, 1000.0, DEFAULT_EQ_LEN);
        let out = eq.apply(&rx_tiled);
        let got = crate::symbol::analyze_core(&p, &out[2 * p.n_fft..3 * p.n_fft]);
        let flipped = (0..p.num_bins).filter(|&k| got[k].re <= 0.0).count();
        assert_eq!(flipped, 0, "{flipped} bins flipped");
    }
}
