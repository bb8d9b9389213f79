//! Statistics helpers: means and percentiles for the evaluation figures
//! and the Gaussian Q-function for the theoretical BPSK BER curve (Fig. 8).

/// Mean of a slice (0.0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Percentile via linear interpolation on sorted order statistics.
/// `p` in [0, 100]. Panics on empty input.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Complementary error function (Abramowitz & Stegun 7.1.26-style rational
/// approximation refined with one extra term; max abs error < 1.2e-7, more
/// than enough for BER curves).
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Gaussian Q-function: `Q(x) = P(N(0,1) > x)`.
pub fn qfunc(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Theoretical BPSK bit error rate at a given per-bit SNR (linear Eb/N0):
/// `BER = Q(sqrt(2·snr))`.
fn bpsk_ber(snr_linear: f64) -> f64 {
    qfunc((2.0 * snr_linear.max(0.0)).sqrt())
}

/// Theoretical BPSK BER at SNR given in dB.
pub fn bpsk_ber_db(snr_db: f64) -> f64 {
    bpsk_ber(10f64.powf(snr_db / 10.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let xs = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((median(&xs) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn erfc_matches_reference_values() {
        // Reference values from standard tables.
        let cases = [
            (0.0, 1.0),
            (0.5, 0.4795001),
            (1.0, 0.1572992),
            (2.0, 0.0046777),
            (-1.0, 1.8427008),
        ];
        for (x, want) in cases {
            assert!((erfc(x) - want).abs() < 1e-6, "erfc({x})");
        }
    }

    #[test]
    fn bpsk_ber_known_points() {
        // Classic values: ~0.0786 at 0 dB, ~7.8e-4 at 7 dB (within approx error).
        assert!((bpsk_ber_db(0.0) - 0.0786).abs() < 1e-3);
        assert!((bpsk_ber_db(7.0) - 7.7e-4).abs() < 1e-4);
        assert!(bpsk_ber_db(12.0) < 1e-7);
    }

    #[test]
    fn ber_decreases_with_snr() {
        let mut prev = 1.0;
        for snr_db in -10..=12 {
            let b = bpsk_ber_db(snr_db as f64);
            assert!(b < prev);
            prev = b;
        }
    }
}
