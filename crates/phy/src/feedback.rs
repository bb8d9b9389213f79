//! Feedback, device-ID and ACK symbols (§2.2.3, §2.3 "Encoding ID and
//! ACKs").
//!
//! The receiver's band decision `(f_begin, f_end)` travels back as a single
//! OFDM symbol with *all* transmit power split between the two
//! corresponding bins, decodable without any channel knowledge by taking
//! the top-2 bins of a sliding FFT. IDs and ACKs use the same trick with a
//! single tone.

use crate::bandselect::Band;
use crate::params::OfdmParams;
use crate::symbol::{analyze_core, synthesize};
use aqua_dsp::complex::{Complex, ZERO};
use aqua_dsp::goertzel::SlidingGoertzel;

/// Builds the sliding-Goertzel bank tracking this numerology's usable bins.
fn usable_bin_bank(params: &OfdmParams) -> SlidingGoertzel {
    let bins: Vec<usize> = (0..params.num_bins).map(|k| params.first_bin + k).collect();
    SlidingGoertzel::new(params.n_fft, &bins)
}

/// Peak amplitude budget of the speaker (digital full scale). A full-band
/// OFDM data symbol at the modem's RMS has a crest factor near 3.5, so its
/// peaks reach ≈0.7; tone symbols are normalized to the same peak.
pub const TX_PEAK: f64 = 0.7;

/// Builds the feedback symbol (CP + core) for a band decision. If the band
/// is a single bin, all power goes to that one tone.
///
/// Phone speakers are *peak*-limited: a two-tone symbol has a far lower
/// crest factor than a 60-bin OFDM symbol, so "all the power" (§2.2.3)
/// means driving the tones to the same peak level as data symbols — about
/// 5 dB more tone energy than an equal-RMS normalization would give.
pub fn encode_feedback(params: &OfdmParams, band: Band) -> Vec<f64> {
    let mut values = vec![ZERO; params.num_bins];
    if band.start == band.end {
        values[band.start] = Complex::real(params.bin_amplitude(1));
    } else {
        let amp = params.bin_amplitude(2);
        values[band.start] = Complex::real(amp);
        values[band.end] = Complex::real(amp);
    }
    normalize_peak(synthesize(params, &values))
}

/// Scales a symbol so its peak matches the speaker's peak budget.
fn normalize_peak(mut sym: Vec<f64>) -> Vec<f64> {
    let peak = sym.iter().map(|v| v.abs()).fold(0.0, f64::max);
    if peak > 1e-30 {
        let g = TX_PEAK / peak;
        for v in sym.iter_mut() {
            *v *= g;
        }
    }
    sym
}

/// Result of a feedback decode.
#[derive(Debug, Clone, Copy)]
pub struct FeedbackDecode {
    /// Recovered band.
    pub band: Band,
    /// Sample offset within the searched window where the symbol aligned.
    pub offset: usize,
    /// Fraction of in-band power captured by the two selected bins
    /// (quality indicator; ≈1 for a clean symbol).
    pub quality: f64,
}

/// Decodes a feedback symbol by sliding a window over `rx` (up to the
/// maximum round-trip ambiguity) and picking the position where two bins
/// dominate the band (§2.2.3). Returns `None` when nothing dominates.
///
/// `noise_bin_power` whitens the decision: when provided, it is the
/// receiver's calibrated ambient noise power per usable bin (ambient noise
/// is strongly colored underwater — Fig. 4 — so an unwhitened detector
/// lets loud low-frequency noise bins outvote a faded high-frequency
/// tone).
///
/// The window scan runs on a [`SlidingGoertzel`] bank: the usable-bin DFT
/// coefficients advance per sample in O(num_bins) instead of re-running a
/// full FFT at every candidate position, which is what brings the decode
/// inside the paper's §3 ≈1–2 ms budget. The candidate positions, band
/// decision, and quality metric are identical to
/// [`decode_feedback_batch`], the FFT-per-window reference oracle.
pub fn decode_feedback_whitened(
    params: &OfdmParams,
    rx: &[f64],
    min_quality: f64,
    noise_bin_power: Option<&[f64]>,
) -> Option<FeedbackDecode> {
    let n = params.n_fft;
    if rx.len() < n {
        return None;
    }
    let step = (n / 16).max(1);
    let mut bank = usable_bin_bank(params);
    let mut powers = vec![0.0; params.num_bins];
    let mut best: Option<FeedbackDecode> = None;
    for &x in rx {
        bank.push(x);
        let Some(pos) = bank.window_start() else {
            continue;
        };
        if pos % step != 0 {
            continue;
        }
        bank.powers(&mut powers);
        if let Some(npp) = noise_bin_power {
            for (k, p) in powers.iter_mut().enumerate() {
                *p /= npp.get(k).copied().unwrap_or(1.0).max(1e-30);
            }
        }
        let total: f64 = powers.iter().sum();
        if total > 1e-24 {
            let (band, captured) = decide_band(&powers);
            let cand = FeedbackDecode {
                band,
                offset: pos,
                quality: captured / total,
            };
            if best.map(|b| cand.quality > b.quality).unwrap_or(true) {
                best = Some(cand);
            }
        }
    }
    best.filter(|b| b.quality >= min_quality)
}

/// Reference implementation of [`decode_feedback_whitened`] that re-runs a
/// full FFT ([`analyze_core`]) at every candidate window position. Kept as
/// the batch oracle the sliding-Goertzel path is regression-tested
/// against; ~10× slower, do not use on the hot path.
pub fn decode_feedback_batch(
    params: &OfdmParams,
    rx: &[f64],
    min_quality: f64,
    noise_bin_power: Option<&[f64]>,
) -> Option<FeedbackDecode> {
    let n = params.n_fft;
    if rx.len() < n {
        return None;
    }
    let step = (n / 16).max(1);
    let mut best: Option<FeedbackDecode> = None;
    let mut pos = 0usize;
    while pos + n <= rx.len() {
        let bins = analyze_core(params, &rx[pos..pos + n]);
        let powers: Vec<f64> = bins
            .iter()
            .enumerate()
            .map(|(k, c)| {
                let w = noise_bin_power
                    .and_then(|npp| npp.get(k).copied())
                    .unwrap_or(1.0)
                    .max(1e-30);
                c.norm_sqr() / w
            })
            .collect();
        let total: f64 = powers.iter().sum();
        if total > 1e-24 {
            let (band, captured) = decide_band(&powers);
            let cand = FeedbackDecode {
                band,
                offset: pos,
                quality: captured / total,
            };
            if best.map(|b| cand.quality > b.quality).unwrap_or(true) {
                best = Some(cand);
            }
        }
        pos += step;
    }
    best.filter(|b| b.quality >= min_quality)
}

/// Estimates per-usable-bin ambient noise power from a noise-only
/// recording, for [`decode_feedback_whitened`]: mean bin power over
/// consecutive FFT windows.
pub fn noise_bin_power(params: &OfdmParams, ambient: &[f64]) -> Vec<f64> {
    let n = params.n_fft;
    let mut acc = vec![0.0; params.num_bins];
    let mut count = 0usize;
    let mut pos = 0;
    while pos + n <= ambient.len() {
        let bins = analyze_core(params, &ambient[pos..pos + n]);
        for (a, c) in acc.iter_mut().zip(&bins) {
            *a += c.norm_sqr();
        }
        count += 1;
        pos += n;
    }
    if count > 0 {
        for a in acc.iter_mut() {
            *a /= count as f64;
        }
    } else {
        acc.iter_mut().for_each(|a| *a = 1.0);
    }
    acc
}

/// Decides which one or two bins carry the feedback tones.
///
/// The two tones can arrive with very different strengths (the higher tone
/// often sits in a device-response or multipath notch), so the second tone
/// is validated against the *noise floor* (median bin power), not against
/// the stronger tone. A bin adjacent to the strongest is treated as
/// spectral leakage unless it is comparably strong (a genuine 2-bin band).
/// Returns the band and the power captured by the chosen bins.
fn decide_band(powers: &[f64]) -> (Band, f64) {
    let top1 = powers
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap_or(0);
    let p1 = powers[top1];
    let mut sorted = powers.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let noise_floor = sorted[sorted.len() / 2].max(1e-30);

    // strongest bin that is not top1 and not plausible leakage from it
    let mut top2: Option<usize> = None;
    let mut order: Vec<usize> = (0..powers.len()).filter(|&i| i != top1).collect();
    order.sort_by(|&a, &b| powers[b].partial_cmp(&powers[a]).unwrap());
    for j in order {
        let adjacent = j.abs_diff(top1) == 1;
        if adjacent && powers[j] < 0.5 * p1 {
            continue; // leakage guard
        }
        top2 = Some(j);
        break;
    }
    match top2 {
        // the second tone must stick out of the noise to count, and must
        // not be implausibly far below the first (fading between the two
        // tones tops out around 25 dB; -40 dB is numerical dust)
        Some(j) if powers[j] > 6.0 * noise_floor && powers[j] > 1e-4 * p1 => {
            (Band::new(top1.min(j), top1.max(j)), p1 + powers[j])
        }
        _ => (Band::new(top1, top1), p1),
    }
}

/// Builds a single-tone symbol on usable bin `bin` at full power — used
/// for device IDs (bin = ID, up to `num_bins` devices) and ACKs. Peak
/// normalized like the feedback symbol.
pub fn encode_tone(params: &OfdmParams, bin: usize) -> Vec<f64> {
    assert!(bin < params.num_bins);
    let mut values = vec![ZERO; params.num_bins];
    values[bin] = Complex::real(params.bin_amplitude(1));
    normalize_peak(synthesize(params, &values))
}

/// Decodes a single-tone symbol from a window: slides the usable-bin
/// Goertzel bank per sample and returns the dominant bin and its power
/// fraction at the best-aligned position, or `None` below `min_quality`.
pub fn decode_tone(params: &OfdmParams, rx: &[f64], min_quality: f64) -> Option<(usize, f64)> {
    let n = params.n_fft;
    if rx.len() < n {
        return None;
    }
    let step = (n / 16).max(1);
    let mut bank = usable_bin_bank(params);
    let mut powers = vec![0.0; params.num_bins];
    let mut best: Option<(usize, f64)> = None;
    for &x in rx {
        bank.push(x);
        let Some(pos) = bank.window_start() else {
            continue;
        };
        if pos % step != 0 {
            continue;
        }
        bank.powers(&mut powers);
        let total: f64 = powers.iter().sum();
        if total > 1e-24 {
            let top1 = powers
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i)
                .unwrap_or(0);
            let q = powers[top1] / total;
            if best.map(|b| q > b.1).unwrap_or(true) {
                best = Some((top1, q));
            }
        }
    }
    best.filter(|b| b.1 >= min_quality)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn params() -> OfdmParams {
        OfdmParams::default()
    }

    fn awgn(sig: &mut [f64], rms: f64, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for v in sig.iter_mut() {
            let u1: f64 = rng.gen_range(1e-12..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            *v += rms * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }

    #[test]
    fn feedback_roundtrip_clean() {
        let p = params();
        for band in [Band::new(5, 40), Band::new(0, 59), Band::new(12, 13)] {
            let sym = encode_feedback(&p, band);
            let mut rx = vec![0.0; 500];
            rx.extend_from_slice(&sym);
            rx.extend(vec![0.0; 500]);
            let dec = decode_feedback_whitened(&p, &rx, 0.5, None).expect("decode");
            assert_eq!(dec.band, band, "band {band:?}");
            assert!(dec.quality > 0.8);
        }
    }

    #[test]
    fn feedback_single_bin_band() {
        let p = params();
        let band = Band::new(27, 27);
        let sym = encode_feedback(&p, band);
        let mut rx = vec![0.0; 300];
        rx.extend_from_slice(&sym);
        let dec = decode_feedback_whitened(&p, &rx, 0.5, None).expect("decode");
        assert_eq!(dec.band, band);
    }

    #[test]
    fn feedback_survives_noise_and_attenuation() {
        let p = params();
        let band = Band::new(8, 51);
        let sym = encode_feedback(&p, band);
        let mut rx = vec![0.0; 2000];
        rx.extend(sym.iter().map(|v| v * 0.02)); // -34 dB
        rx.extend(vec![0.0; 1000]);
        awgn(&mut rx, 0.004, 3);
        let dec = decode_feedback_whitened(&p, &rx, 0.3, None).expect("decode under noise");
        assert_eq!(dec.band, band);
    }

    #[test]
    fn pure_noise_is_rejected() {
        let p = params();
        let mut rx = vec![0.0; 5000];
        awgn(&mut rx, 0.1, 9);
        assert!(decode_feedback_whitened(&p, &rx, 0.5, None).is_none());
    }

    #[test]
    fn ack_and_id_tones_roundtrip() {
        let p = params();
        for bin in [0usize, 17, 59] {
            let sym = encode_tone(&p, bin);
            let mut rx = vec![0.0; 777];
            rx.extend_from_slice(&sym);
            awgn(&mut rx, 0.005, bin as u64);
            let (got, q) = decode_tone(&p, &rx, 0.3).expect("tone");
            assert_eq!(got, bin);
            assert!(q > 0.5);
        }
    }

    #[test]
    fn feedback_at_unknown_offset_is_found() {
        let p = params();
        let band = Band::new(3, 44);
        let sym = encode_feedback(&p, band);
        // place at an awkward offset, as after an unknown round trip
        let mut rx = vec![0.0; 1717];
        rx.extend_from_slice(&sym);
        rx.extend(vec![0.0; 800]);
        awgn(&mut rx, 0.002, 5);
        let dec = decode_feedback_whitened(&p, &rx, 0.4, None).expect("decode");
        assert_eq!(dec.band, band);
        assert!(dec.offset.abs_diff(1717 + p.cp) <= p.n_fft / 8);
    }

    #[test]
    fn short_window_returns_none() {
        let p = params();
        assert!(decode_feedback_whitened(&p, &[0.0; 100], 0.1, None).is_none());
        assert!(decode_tone(&p, &[0.0; 100], 0.1).is_none());
    }
}
