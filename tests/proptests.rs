//! Property-based tests on the modem's core invariants (proptest).

use aqua_coding::bits::{bits_to_bytes, bytes_to_bits};
use aqua_coding::conv::{encode as conv_encode, Rate};
use aqua_coding::interleave::{deinterleave, interleave, symbol_order};
use aqua_coding::viterbi::decode_hard;
use aqua_dsp::cazac::zadoff_chu;
use aqua_dsp::complex::Complex;
use aqua_dsp::fft::Fft;
use aqua_phy::bandselect::Band;
use aqua_phy::bandselect::{select_band, select_band_reference, BandSelectConfig};
use aqua_phy::ofdm::{demodulate_data, modulate_data, DecodeOptions};
use aqua_phy::params::OfdmParams;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// FFT round-trips arbitrary complex data at every length it plans,
    /// 2^a·3^b·5^c, up to 128·9·25.
    #[test]
    fn fft_roundtrip(twos in 0u32..8, threes in 0u32..3, fives in 0u32..3, seed in 0u64..1000) {
        let len = 2usize.pow(twos) * 3usize.pow(threes) * 5usize.pow(fives);
        let mut s = seed | 1;
        let data: Vec<Complex> = (0..len).map(|_| {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            Complex::new((s as f64 / u64::MAX as f64) - 0.5, ((s >> 8) as f64 / u64::MAX as f64) - 0.5)
        }).collect();
        let plan = Fft::new(len);
        let mut buf = data.clone();
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        for (a, b) in data.iter().zip(&buf) {
            prop_assert!((*a - *b).abs() < 1e-8);
        }
    }

    /// Bit/byte packing round-trips.
    #[test]
    fn bits_bytes_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(bits_to_bytes(&bytes_to_bits(&data)), data);
    }

    /// Viterbi inverts the encoder on clean channels for any payload.
    #[test]
    fn conv_viterbi_roundtrip(bits in proptest::collection::vec(0u8..2, 1..80)) {
        let coded = conv_encode(&bits, Rate::TwoThirds);
        prop_assert_eq!(decode_hard(&coded, Rate::TwoThirds), bits);
    }

    /// The subcarrier interleaver is a bijection for every band size.
    #[test]
    fn interleaver_roundtrip(l in 1usize..=60, n in 1usize..200) {
        let bits: Vec<u8> = (0..n).map(|i| ((i * 31 + 7) % 2) as u8).collect();
        let symbols = interleave(&bits, l);
        let dense: Vec<Vec<u8>> = symbols.iter()
            .map(|s| s.iter().map(|b| b.unwrap_or(0)).collect())
            .collect();
        prop_assert_eq!(deinterleave(&dense, l, n), bits);
    }

    /// symbol_order is always a permutation.
    #[test]
    fn interleaver_order_is_permutation(l in 1usize..=120) {
        let order = symbol_order(l);
        let mut seen = vec![false; l];
        for o in order {
            prop_assert!(!seen[o]);
            seen[o] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// The fast band-selection implementation always matches the paper's
    /// O(N³) reference algorithm.
    #[test]
    fn band_selection_matches_reference(snrs in proptest::collection::vec(-20.0f64..30.0, 60)) {
        let cfg = BandSelectConfig::default();
        prop_assert_eq!(select_band(&snrs, &cfg), select_band_reference(&snrs, &cfg));
    }

    /// Selected bands always satisfy the SNR constraint with the bonus.
    #[test]
    fn selected_band_meets_threshold(snrs in proptest::collection::vec(-20.0f64..30.0, 60)) {
        let cfg = BandSelectConfig::default();
        if let Some(band) = select_band(&snrs, &cfg) {
            let bonus = cfg.lambda * 10.0 * (60.0 / band.len() as f64).log10();
            for k in band.bins() {
                prop_assert!(snrs[k] + bonus > cfg.epsilon_snr_db);
            }
        }
    }

    /// Zadoff-Chu sequences keep unit magnitude for coprime roots.
    #[test]
    fn zc_unit_magnitude(root in 1usize..20, len in 2usize..120) {
        prop_assume!(aqua_dsp::cazac::gcd(root, len) == 1);
        for c in zadoff_chu(root, len) {
            prop_assert!((c.abs() - 1.0).abs() < 1e-9);
        }
    }

    /// A clean OFDM data section decodes exactly for any payload and band.
    #[test]
    fn ofdm_clean_roundtrip(start in 0usize..55, len in 1usize..=5, seed in 0u64..500) {
        let params = OfdmParams::default();
        let band = Band::new(start, (start + len).min(59));
        let mut s = seed | 1;
        let bits: Vec<u8> = (0..16).map(|_| {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s & 1) as u8
        }).collect();
        let tx = modulate_data(&params, band, &bits);
        let decoded = demodulate_data(&params, band, &tx, 16, &DecodeOptions::default());
        prop_assert_eq!(decoded.bits, bits);
    }
}
