//! Frequency-band selection — Algorithm 1 of the paper (§2.2.2).
//!
//! Find the *largest contiguous* run of bins `[m, n]` such that every bin's
//! estimated SNR, plus the power-reallocation bonus `λ·10·log10(N0/L)` from
//! silencing the other bins, clears the threshold `ε_SNR`. Returning only
//! `(f_begin, f_end)` keeps the feedback payload two tones instead of
//! per-bin water-filling state.

/// Tuning constants from the paper.
#[derive(Debug, Clone, Copy)]
pub struct BandSelectConfig {
    /// SNR threshold ε_SNR in dB (paper: 7).
    pub epsilon_snr_db: f64,
    /// Conservative reallocation factor λ in `[0,1]` (paper: 0.8).
    pub lambda: f64,
}

impl Default for BandSelectConfig {
    fn default() -> Self {
        Self {
            epsilon_snr_db: 7.0,
            lambda: 0.8,
        }
    }
}

/// A selected contiguous band of usable bins, inclusive on both ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Band {
    /// First selected usable-bin index.
    pub start: usize,
    /// Last selected usable-bin index (inclusive).
    pub end: usize,
}

impl Band {
    /// Creates a band; panics if `end < start`.
    pub fn new(start: usize, end: usize) -> Self {
        assert!(end >= start);
        Self { start, end }
    }

    /// Number of bins in the band.
    pub fn len(&self) -> usize {
        self.end - self.start + 1
    }

    /// Bands are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterator over the usable-bin indices in the band.
    pub fn bins(&self) -> impl Iterator<Item = usize> {
        self.start..=self.end
    }

    /// True if `bin` lies within the band.
    pub fn contains(&self, bin: usize) -> bool {
        bin >= self.start && bin <= self.end
    }
}

/// Runs Algorithm 1 over per-bin SNR estimates (dB). Returns the largest
/// qualifying contiguous band, or `None` if even a single reallocated bin
/// cannot clear the threshold.
///
/// Complexity: O(N²) via a monotonic-deque sliding-window minimum per
/// candidate length (N = 60 at 50 Hz spacing — microseconds in practice,
/// matching the paper's 1–2 ms budget).
pub fn select_band(snr_db: &[f64], cfg: &BandSelectConfig) -> Option<Band> {
    let n0 = snr_db.len();
    if n0 == 0 {
        return None;
    }
    for l in (1..=n0).rev() {
        let bonus = cfg.lambda * 10.0 * (n0 as f64 / l as f64).log10();
        // sliding-window minimum over windows of length l
        let mut deque: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for i in 0..n0 {
            while let Some(&back) = deque.back() {
                if snr_db[back] >= snr_db[i] {
                    deque.pop_back();
                } else {
                    break;
                }
            }
            deque.push_back(i);
            if let Some(&front) = deque.front() {
                if front + l <= i {
                    deque.pop_front();
                }
            }
            if i + 1 >= l {
                let m = i + 1 - l;
                let window_min = snr_db[*deque.front().unwrap()];
                if window_min + bonus > cfg.epsilon_snr_db {
                    return Some(Band::new(m, m + l - 1));
                }
            }
        }
    }
    None
}

/// Fallback used by the protocol when no band qualifies: the single best
/// bin (transmit anyway at minimum rate rather than staying silent).
pub fn best_single_bin(snr_db: &[f64]) -> Option<Band> {
    snr_db
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| Band::new(i, i))
}

/// Reference brute-force implementation of Algorithm 1 exactly as printed
/// in the paper (O(N³)); used by tests to validate the fast version.
pub fn select_band_reference(snr_db: &[f64], cfg: &BandSelectConfig) -> Option<Band> {
    let n0 = snr_db.len();
    for l in (1..=n0).rev() {
        for m in 0..=(n0.saturating_sub(l)) {
            let bonus = cfg.lambda * 10.0 * (n0 as f64 / l as f64).log10();
            let min = snr_db[m..m + l]
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min);
            if min + bonus > cfg.epsilon_snr_db {
                return Some(Band::new(m, m + l - 1));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BandSelectConfig {
        BandSelectConfig::default()
    }

    #[test]
    fn high_snr_everywhere_selects_full_band() {
        let snr = vec![20.0; 60];
        let band = select_band(&snr, &cfg()).unwrap();
        assert_eq!(band, Band::new(0, 59));
        assert_eq!(band.len(), 60);
    }

    #[test]
    fn hopeless_channel_selects_nothing() {
        let snr = vec![-20.0; 60];
        assert!(select_band(&snr, &cfg()).is_none());
    }

    #[test]
    fn single_good_bin_is_found_via_reallocation_bonus() {
        // One bin at 0 dB: with all power on it, bonus = 0.8·10·log10(60) ≈ 14.2 dB
        // → 14.2 > 7 qualifies.
        let mut snr = vec![-30.0; 60];
        snr[33] = 0.0;
        let band = select_band(&snr, &cfg()).unwrap();
        assert_eq!(band, Band::new(33, 33));
    }

    #[test]
    fn notch_splits_band_and_larger_side_wins() {
        let mut snr = vec![12.0; 60];
        snr[20..25].fill(-5.0); // deep notch
        let band = select_band(&snr, &cfg()).unwrap();
        // left run 0..=19 (len 20), right run 25..=59 (len 35) → right wins
        assert_eq!(band, Band::new(25, 59));
    }

    #[test]
    fn marginal_band_needs_the_bonus() {
        // 6 dB flat: below ε=7 without bonus. Largest L where
        // 6 + 0.8·10·log10(60/L) > 7 → log10(60/L) > 0.125 → L < 44.97 → 44.
        let snr = vec![6.0; 60];
        let band = select_band(&snr, &cfg()).unwrap();
        assert_eq!(band.len(), 44);
        assert_eq!(band.start, 0, "first qualifying window is leftmost");
    }

    #[test]
    fn fast_matches_reference_on_random_profiles() {
        let mut seed = 0x12345u64;
        let mut rnd = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % 400) as f64 / 10.0 - 15.0 // -15..25 dB
        };
        for trial in 0..50 {
            let snr: Vec<f64> = (0..60).map(|_| rnd()).collect();
            let fast = select_band(&snr, &cfg());
            let reference = select_band_reference(&snr, &cfg());
            assert_eq!(fast, reference, "trial {trial}: {snr:?}");
        }
    }

    #[test]
    fn lambda_zero_disables_reallocation() {
        let cfg0 = BandSelectConfig {
            epsilon_snr_db: 7.0,
            lambda: 0.0,
        };
        let mut snr = vec![6.9; 60];
        assert!(select_band(&snr, &cfg0).is_none());
        snr[10] = 7.5;
        assert_eq!(select_band(&snr, &cfg0), Some(Band::new(10, 10)));
    }

    #[test]
    fn best_single_bin_picks_argmax() {
        let snr = vec![1.0, 9.0, 3.0];
        assert_eq!(best_single_bin(&snr), Some(Band::new(1, 1)));
        assert_eq!(best_single_bin(&[]), None);
    }

    #[test]
    fn band_utilities() {
        let b = Band::new(5, 9);
        assert_eq!(b.len(), 5);
        assert!(b.contains(7) && !b.contains(10));
        assert_eq!(b.bins().collect::<Vec<_>>(), vec![5, 6, 7, 8, 9]);
    }

    #[test]
    fn empty_snr_returns_none() {
        assert!(select_band(&[], &cfg()).is_none());
    }
}
