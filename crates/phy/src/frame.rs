//! Packet framing and post-preamble-feedback protocol timing (§2.2, Fig. 5).
//!
//! A packet is split in two on the air:
//!
//! ```text
//! Alice:  [preamble (8 cores)][ID symbol]....silence....[training][data...]
//! Bob:                                    [feedback sym]
//! ```
//!
//! Alice keeps her OFDM symbol clock running through the silent gap (the
//! speaker buffer is fed zeros), so the data section starts on a symbol
//! boundary a fixed number of symbols after the header — Bob reuses the
//! preamble synchronization and only needs a small search window to find
//! the first (training) data symbol.

use crate::ofdm::training_symbol;
use crate::params::OfdmParams;
use crate::preamble::Preamble;
use aqua_dsp::correlate::{argmax, xcorr_normalized};

/// Protocol frame layout parameters.
#[derive(Debug, Clone, Copy)]
pub struct FrameConfig {
    /// OFDM numerology.
    pub params: OfdmParams,
    /// Silent gap Alice leaves for Bob's feedback, in OFDM symbols
    /// (feedback propagation + Bob's processing; the paper's example uses
    /// ~5 symbols).
    pub gap_symbols: usize,
    /// Payload size in bits (the app's packets are 16 bits = 2 messages).
    pub payload_bits: usize,
}

impl Default for FrameConfig {
    fn default() -> Self {
        Self {
            params: OfdmParams::default(),
            gap_symbols: 5,
            payload_bits: 16,
        }
    }
}

impl FrameConfig {
    /// Header length in samples: preamble plus the receiver-ID symbol.
    pub fn header_len(&self) -> usize {
        crate::preamble::PREAMBLE_SYMBOLS * self.params.n_fft + self.params.symbol_len()
    }

    /// Length of the silent feedback gap in samples.
    fn gap_len(&self) -> usize {
        self.gap_symbols * self.params.symbol_len()
    }

    /// Offset from the preamble start to the data-section start on Alice's
    /// symbol clock.
    pub fn data_start_offset(&self) -> usize {
        self.header_len() + self.gap_len()
    }
}

/// Builds the header: preamble samples followed by the receiver-ID tone.
pub fn build_header(cfg: &FrameConfig, preamble: &Preamble, receiver_id: u8) -> Vec<f64> {
    assert!(
        (receiver_id as usize) < cfg.params.num_bins,
        "ID beyond 60 devices"
    );
    let mut out = preamble.samples.clone();
    out.extend(crate::feedback::encode_tone(
        &cfg.params,
        receiver_id as usize,
    ));
    out
}

/// Locates the training symbol near its expected position.
///
/// Searches `rx` in `expected ± search` by normalized cross-correlation
/// against the known training symbol; returns the best-aligned offset, or
/// `None` when correlation or energy is too low (no data section arrived —
/// e.g. the feedback was lost and Alice never transmitted).
pub fn locate_training(
    params: &OfdmParams,
    rx: &[f64],
    expected: usize,
    search: usize,
    min_corr: f64,
) -> Option<usize> {
    let train = training_symbol(params);
    let lo = expected.saturating_sub(search);
    let hi = (expected + search + train.len()).min(rx.len());
    if hi <= lo + train.len() {
        return None;
    }
    let window = &rx[lo..hi];
    let corr = xcorr_normalized(window, &train);
    let peak = argmax(&corr)?;
    (corr[peak] >= min_corr).then(|| lo + peak)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandselect::Band;
    use crate::ofdm::modulate_data;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cfg() -> FrameConfig {
        FrameConfig::default()
    }

    #[test]
    fn layout_arithmetic() {
        let c = cfg();
        assert_eq!(c.header_len(), 8 * 960 + 1027);
        assert_eq!(c.gap_len(), 5 * 1027);
        assert_eq!(c.data_start_offset(), c.header_len() + c.gap_len());
    }

    #[test]
    fn header_contains_decodable_id() {
        let c = cfg();
        let preamble = Preamble::new(c.params);
        let header = build_header(&c, &preamble, 37);
        let id_part = &header[preamble.len()..];
        let (bin, q) = crate::feedback::decode_tone(&c.params, id_part, 0.3).unwrap();
        assert_eq!(bin, 37);
        assert!(q > 0.8);
    }

    #[test]
    #[should_panic(expected = "ID beyond 60 devices")]
    fn oversized_id_panics() {
        let c = cfg();
        let preamble = Preamble::new(c.params);
        let _ = build_header(&c, &preamble, 60);
    }

    #[test]
    fn training_is_located_at_expected_position() {
        let c = cfg();
        let band = Band::new(0, 59);
        let data = modulate_data(&c.params, band, &[1u8; 16]);
        let mut rx = vec![0.0; 5000];
        rx.extend_from_slice(&data);
        rx.extend(vec![0.0; 500]);
        let found = locate_training(&c.params, &rx, 5000, 300, 0.5).unwrap();
        assert_eq!(found, 5000);
    }

    #[test]
    fn training_found_despite_timing_error_and_noise() {
        let c = cfg();
        let band = Band::new(10, 40);
        let data = modulate_data(&c.params, band, &[0u8; 16]);
        let actual = 4870; // 130 samples early vs expectation
        let mut rx = vec![0.0; actual];
        rx.extend_from_slice(&data);
        rx.extend(vec![0.0; 800]);
        let mut rng = StdRng::seed_from_u64(3);
        for v in rx.iter_mut() {
            let u1: f64 = rng.gen_range(1e-12..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            *v += 0.01 * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
        let found = locate_training(&c.params, &rx, 5000, 300, 0.3).unwrap();
        assert!(found.abs_diff(actual) <= 2, "found {found}");
    }

    #[test]
    fn absent_training_returns_none() {
        let c = cfg();
        let mut rng = StdRng::seed_from_u64(9);
        let rx: Vec<f64> = (0..20000)
            .map(|_| {
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                0.05 * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            })
            .collect();
        assert!(locate_training(&c.params, &rx, 10000, 400, 0.4).is_none());
    }

    #[test]
    fn search_window_out_of_range_returns_none() {
        let c = cfg();
        assert!(locate_training(&c.params, &[0.0; 100], 5000, 100, 0.3).is_none());
    }
}
