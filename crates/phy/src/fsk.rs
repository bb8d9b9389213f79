//! Long-range FSK beacon modem (§3 "we increase the symbol duration…" and
//! the SOS beacon design).
//!
//! Below the OFDM design's 50 bps floor, bits are sent as single frequency
//! tones — bit 0 on `f0`, bit 1 on `f1` — with 50/100/200 ms symbols for
//! 20/10/5 bps. Concentrating all transmit power in one tone and shrinking
//! the detection bandwidth buys the ~100 m range of Fig. 12d.

use aqua_dsp::chirp::{apply_ramp, tone_with_phase};
use aqua_dsp::goertzel::goertzel_power;

/// FSK beacon parameters.
#[derive(Debug, Clone, Copy)]
pub struct FskParams {
    /// Sample rate in Hz.
    pub fs: f64,
    /// Tone for bit 0 (Hz). The paper uses the 1.5–4 kHz range.
    pub f0: f64,
    /// Tone for bit 1 (Hz).
    pub f1: f64,
    /// Samples per bit.
    pub symbol_len: usize,
    /// Peak amplitude of the transmitted tones.
    pub amplitude: f64,
}

impl FskParams {
    fn at_bps(bps: usize) -> Self {
        Self {
            fs: 48_000.0,
            f0: 2_000.0,
            f1: 3_000.0,
            symbol_len: 48_000 / bps,
            amplitude: 0.7,
        }
    }

    /// 5 bps (200 ms symbols) — longest range.
    pub fn bps5() -> Self {
        Self::at_bps(5)
    }

    /// 10 bps (100 ms symbols) — the paper's SOS recommendation.
    pub fn bps10() -> Self {
        Self::at_bps(10)
    }

    /// 20 bps (50 ms symbols).
    pub fn bps20() -> Self {
        Self::at_bps(20)
    }

    /// Bit rate in bits/second.
    pub fn bitrate(&self) -> f64 {
        self.fs / self.symbol_len as f64
    }
}

/// Modulates bits into a phase-continuous FSK waveform with raised-cosine
/// edge ramps per symbol (limits splatter).
pub fn modulate(params: &FskParams, bits: &[u8]) -> Vec<f64> {
    let mut out = Vec::with_capacity(bits.len() * params.symbol_len);
    let mut phase = 0.0f64;
    for &b in bits {
        let f = if b == 0 { params.f0 } else { params.f1 };
        let mut sym = tone_with_phase(f, params.symbol_len, params.fs, phase);
        for v in sym.iter_mut() {
            *v *= params.amplitude;
        }
        apply_ramp(&mut sym, params.symbol_len / 20);
        phase += 2.0 * std::f64::consts::PI * f * params.symbol_len as f64 / params.fs;
        phase %= 2.0 * std::f64::consts::PI;
        out.extend(sym);
    }
    out
}

/// Fraction of each symbol skipped at its head during demodulation: at
/// long range the previous symbol's multipath reverberation (tens of ms of
/// delay spread in a shallow waveguide) smears into the next symbol's
/// leading edge.
const GUARD_FRACTION: f64 = 0.18;

/// Demodulates `n_bits` starting at sample `offset`: per symbol, compare
/// Goertzel energy at `f0` vs `f1` (non-coherent detection) over the
/// symbol body after an ISI guard.
pub fn demodulate(params: &FskParams, rx: &[f64], offset: usize, n_bits: usize) -> Vec<u8> {
    let guard = (params.symbol_len as f64 * GUARD_FRACTION) as usize;
    let mut bits = Vec::with_capacity(n_bits);
    for i in 0..n_bits {
        let start = offset + i * params.symbol_len + guard;
        let end = (offset + (i + 1) * params.symbol_len).min(rx.len());
        if start >= rx.len() || start >= end {
            bits.push(0);
            continue;
        }
        let window = &rx[start..end];
        let p0 = goertzel_power(window, params.f0, params.fs);
        let p1 = goertzel_power(window, params.f1, params.fs);
        bits.push(if p1 > p0 { 1 } else { 0 });
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn awgn(sig: &[f64], rms: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        sig.iter()
            .map(|&v| {
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                v + rms * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            })
            .collect()
    }

    #[test]
    fn bitrates_match_symbol_durations() {
        assert!((FskParams::bps5().bitrate() - 5.0).abs() < 1e-9);
        assert!((FskParams::bps10().bitrate() - 10.0).abs() < 1e-9);
        assert!((FskParams::bps20().bitrate() - 20.0).abs() < 1e-9);
        assert_eq!(FskParams::bps5().symbol_len, 9600);
    }

    #[test]
    fn clean_roundtrip_all_rates() {
        for p in [FskParams::bps5(), FskParams::bps10(), FskParams::bps20()] {
            let bits = vec![1, 0, 1, 1, 0, 0, 1, 0];
            let tx = modulate(&p, &bits);
            assert_eq!(tx.len(), bits.len() * p.symbol_len);
            let rx = demodulate(&p, &tx, 0, bits.len());
            assert_eq!(rx, bits);
        }
    }

    #[test]
    fn survives_negative_snr() {
        // Tone detection integrates over the symbol: 9600 samples at 10 bps
        // give ~37 dB processing gain, so -10 dB wideband SNR still decodes.
        let p = FskParams::bps10();
        let bits = vec![0, 1, 1, 0, 1, 0];
        let tx = modulate(&p, &bits);
        let sig_rms = (tx.iter().map(|v| v * v).sum::<f64>() / tx.len() as f64).sqrt();
        let rx = awgn(&tx, sig_rms * 3.16, 5); // -10 dB
        assert_eq!(demodulate(&p, &rx, 0, bits.len()), bits);
    }

    #[test]
    fn phase_is_continuous_at_symbol_boundaries() {
        let p = FskParams::bps20();
        let tx = modulate(&p, &[0, 1]);
        // no large sample-to-sample jump at the boundary
        let b = p.symbol_len;
        let jump = (tx[b] - tx[b - 1]).abs();
        assert!(jump < 0.2, "discontinuity {jump}");
    }
}
