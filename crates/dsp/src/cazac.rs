//! CAZAC (constant-amplitude zero-autocorrelation) sequences.
//!
//! The preamble fills OFDM bins with a Zadoff–Chu sequence (§2.2.1): unit
//! peak-to-average power ratio in the frequency domain and ideal periodic
//! autocorrelation, which makes it equally good for detection and for
//! per-bin channel estimation.

use crate::complex::Complex;

/// Generates a Zadoff–Chu sequence of length `len` with root `root`.
///
/// For odd `len`: `x[n] = exp(-iπ·root·n(n+1)/len)`;
/// for even `len`: `x[n] = exp(-iπ·root·n²/len)`.
/// `root` must be coprime with `len` for the CAZAC property to hold.
pub fn zadoff_chu(root: usize, len: usize) -> Vec<Complex> {
    assert!(len > 0, "sequence length must be positive");
    assert!(gcd(root, len) == 1, "root must be coprime with length");
    (0..len)
        .map(|n| {
            let num = if len.is_multiple_of(2) {
                n * n
            } else {
                n * (n + 1)
            };
            // Evaluate the quadratic phase modulo 2·len to avoid precision
            // loss for long sequences.
            let idx = (root * num) % (2 * len);
            Complex::cis(-std::f64::consts::PI * idx as f64 / len as f64)
        })
        .collect()
}

/// Greatest common divisor.
pub fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Periodic autocorrelation of a complex sequence at a given lag.
    fn periodic_autocorr(seq: &[Complex], lag: usize) -> Complex {
        let n = seq.len();
        (0..n).map(|i| seq[i] * seq[(i + lag) % n].conj()).sum()
    }

    #[test]
    fn zadoff_chu_has_unit_papr() {
        for (root, len) in [(1, 60), (7, 60), (5, 63), (3, 64)] {
            // Constant amplitude: every sample's power is the mean power.
            let seq = zadoff_chu(root, len);
            assert!(
                seq.iter().all(|c| (c.norm_sqr() - 1.0).abs() < 1e-12),
                "root {root} len {len}"
            );
        }
    }

    #[test]
    fn zadoff_chu_has_zero_autocorrelation_at_nonzero_lags() {
        // Odd length with coprime root gives the ideal CAZAC property.
        let seq = zadoff_chu(7, 61);
        let peak = periodic_autocorr(&seq, 0).abs();
        assert!((peak - 61.0).abs() < 1e-9);
        for lag in 1..61 {
            let side = periodic_autocorr(&seq, lag).abs();
            assert!(side < 1e-8, "lag {lag}: {side}");
        }
    }

    #[test]
    fn even_length_zadoff_chu_autocorrelation() {
        let seq = zadoff_chu(1, 60);
        let peak = periodic_autocorr(&seq, 0).abs();
        for lag in 1..60 {
            let side = periodic_autocorr(&seq, lag).abs();
            assert!(side < peak * 1e-8, "lag {lag}");
        }
    }

    #[test]
    #[should_panic(expected = "coprime")]
    fn non_coprime_root_panics() {
        let _ = zadoff_chu(6, 60);
    }

    #[test]
    fn distinct_roots_have_low_cross_correlation() {
        let a = zadoff_chu(7, 61);
        let b = zadoff_chu(11, 61);
        let cross: Complex = (0..61).map(|i| a[i] * b[i].conj()).sum();
        // For prime length, cross-correlation magnitude is sqrt(len).
        assert!(cross.abs() < 62.0_f64.sqrt() + 1e-6);
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(7, 60), 1);
        assert_eq!(gcd(0, 5), 5);
    }
}
