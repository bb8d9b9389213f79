//! Analytic packet-error-rate table for the ocean fast path.
//!
//! Sample-level PHY trials cost milliseconds per packet; at ocean scale
//! the simulator delivers millions of packets. For receptions **without**
//! interference the packet fate depends only on the link SNR, which the
//! recorded fig9/fig12 experiments already measured as PER-vs-range
//! curves — so the fast path is a lookup: linear interpolation between
//! the recorded range/PER knots. Sample-level resolution (see
//! [`crate::ocean::phy`]) is reserved for transmissions that actually
//! overlap in time at a receiver, where single-link curves cannot apply.
//!
//! The knots are calibration constants transcribed from EXPERIMENTS.md
//! (`standard`-size runs, 40 packets/config, lake range sweep): Fig. 9d
//! pins the 5 m anchors, Figs. 12a–c the 5–30 m sweep where the adaptive
//! scheme stays at 0–7.5 % while the fixed 1–4 kHz band collapses to
//! 97.5 % by 30 m. `eval/tests/per_calibration.rs` closes the loop by
//! re-running a sample-level trial series at a knot distance and checking
//! it lands inside the recorded binomial confidence interval.

/// Modulation scheme whose recorded PER curve the table answers from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Band {
    /// Per-packet adaptive OFDM band selection (the paper's scheme).
    Adaptive,
    /// The full fixed 1–4 kHz band (the paper's strongest fixed baseline).
    Fixed1to4k,
}

/// Recorded `(range_m, per)` knots for the adaptive scheme (lake).
/// Sources: Fig. 9d (5 m, 0 %), Figs. 12a–c sweep (10/20/30 m).
pub const ADAPTIVE_KNOTS: [(f64, f64); 4] =
    [(5.0, 0.0), (10.0, 0.025), (20.0, 0.05), (30.0, 0.075)];

/// Recorded `(range_m, per)` knots for the fixed 1–4 kHz band (lake).
/// Sources: Fig. 9d (5 m) and the Figs. 12a–c collapse (17.5–97.5 %
/// beyond 5 m).
pub const FIXED_KNOTS: [(f64, f64); 4] = [(5.0, 0.025), (10.0, 0.175), (20.0, 0.6), (30.0, 0.975)];

/// Why a knot set cannot back a [`PerTable`]: the band, the offending
/// knot's index (0 for an empty band) and what is wrong with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnotError {
    /// Band whose knots are invalid.
    pub band: Band,
    /// Index of the first invalid knot in that band.
    pub index: usize,
    /// What is wrong with it.
    pub kind: KnotErrorKind,
}

/// The ways a knot can be invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnotErrorKind {
    /// The band has no knots at all.
    Empty,
    /// The knot's range or PER is NaN.
    NotANumber,
    /// The knot's range is not positive.
    NonPositiveRange,
    /// The knot's PER lies outside `[0, 1]`.
    PerOutOfRange,
    /// The knot's range does not exceed the previous knot's.
    Unsorted,
    /// The knot's PER is below the previous knot's.
    DecreasingPer,
}

impl std::fmt::Display for KnotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self.kind {
            KnotErrorKind::Empty => "the band has no knots",
            KnotErrorKind::NotANumber => "range or PER is NaN",
            KnotErrorKind::NonPositiveRange => "range is not positive",
            KnotErrorKind::PerOutOfRange => "PER is outside [0, 1]",
            KnotErrorKind::Unsorted => "range does not exceed the previous knot's",
            KnotErrorKind::DecreasingPer => "PER is below the previous knot's",
        };
        write!(f, "{:?} knot {}: {what}", self.band, self.index)
    }
}

impl std::error::Error for KnotError {}

/// PER-vs-range lookup interpolated from the recorded figure knots.
///
/// Query semantics, pinned by `mac/tests/ocean_per_table.rs`:
///
/// - at a recorded knot range the knot PER is returned **exactly** (no
///   interpolation arithmetic that could perturb the last bit);
/// - between knots, linear interpolation;
/// - below the first knot, clamped to the first knot's PER (the recorded
///   curves are flat at close range);
/// - beyond the last knot, a linear ramp to PER 1.0 at twice the last
///   knot's range — the recorded fixed-band collapse extrapolated —
///   saturating at 1.0 from there on;
/// - always within `[0, 1]` and non-decreasing in range.
#[derive(Debug, Clone)]
pub struct PerTable {
    adaptive: Vec<(f64, f64)>,
    fixed: Vec<(f64, f64)>,
}

impl PerTable {
    /// The table built from the recorded EXPERIMENTS.md knots.
    pub fn recorded() -> Self {
        Self::from_knots(ADAPTIVE_KNOTS.to_vec(), FIXED_KNOTS.to_vec())
            .expect("the recorded knots are valid constants")
    }

    /// A table from explicit knot sets (tests inject synthetic curves).
    /// Knots must be non-empty, free of NaN, positive and strictly
    /// increasing in range, and have PER in `[0, 1]`, non-decreasing; the
    /// first knot that is not comes back as a [`KnotError`].
    pub fn from_knots(
        adaptive: Vec<(f64, f64)>,
        fixed: Vec<(f64, f64)>,
    ) -> Result<Self, KnotError> {
        for (band, knots) in [(Band::Adaptive, &adaptive), (Band::Fixed1to4k, &fixed)] {
            let err = |index, kind| KnotError { band, index, kind };
            if knots.is_empty() {
                return Err(err(0, KnotErrorKind::Empty));
            }
            for (index, &(r, p)) in knots.iter().enumerate() {
                let kind = if r.is_nan() || p.is_nan() {
                    KnotErrorKind::NotANumber
                } else if r <= 0.0 {
                    KnotErrorKind::NonPositiveRange
                } else if !(0.0..=1.0).contains(&p) {
                    KnotErrorKind::PerOutOfRange
                } else if index > 0 && knots[index - 1].0 >= r {
                    KnotErrorKind::Unsorted
                } else if index > 0 && knots[index - 1].1 > p {
                    KnotErrorKind::DecreasingPer
                } else {
                    continue;
                };
                return Err(err(index, kind));
            }
        }
        Ok(Self { adaptive, fixed })
    }

    fn knots(&self, band: Band) -> &[(f64, f64)] {
        match band {
            Band::Adaptive => &self.adaptive,
            Band::Fixed1to4k => &self.fixed,
        }
    }

    /// Packet error probability for a clean (interference-free) reception
    /// at `range_m`. See the type docs for the query semantics.
    pub fn per(&self, band: Band, range_m: f64) -> f64 {
        let knots = self.knots(band);
        let (first, last) = (knots[0], knots[knots.len() - 1]);
        if range_m <= first.0 {
            return first.1;
        }
        // Exact knot hit: return the recorded value verbatim.
        if let Some(&(_, p)) = knots.iter().find(|&&(r, _)| r == range_m) {
            return p;
        }
        if range_m < last.0 {
            let hi = knots.partition_point(|&(r, _)| r < range_m);
            let (r0, p0) = knots[hi - 1];
            let (r1, p1) = knots[hi];
            let t = (range_m - r0) / (r1 - r0);
            return (p0 + t * (p1 - p0)).clamp(0.0, 1.0);
        }
        // Extension ramp: recorded collapse extrapolated to certain loss
        // at twice the last recorded range.
        if range_m >= 2.0 * last.0 {
            return 1.0;
        }
        let t = (range_m - last.0) / last.0;
        (last.1 + t * (1.0 - last.1)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_at_recorded_knots() {
        let t = PerTable::recorded();
        for &(r, p) in &ADAPTIVE_KNOTS {
            assert_eq!(t.per(Band::Adaptive, r).to_bits(), p.to_bits());
        }
        for &(r, p) in &FIXED_KNOTS {
            assert_eq!(t.per(Band::Fixed1to4k, r).to_bits(), p.to_bits());
        }
    }

    #[test]
    fn clamps_below_first_knot_and_saturates_far_out() {
        let t = PerTable::recorded();
        assert_eq!(t.per(Band::Adaptive, 0.5), ADAPTIVE_KNOTS[0].1);
        assert_eq!(t.per(Band::Fixed1to4k, 1e6), 1.0);
        // Ramp midpoint: halfway between last knot PER and 1.0 at 1.5x.
        let mid = t.per(Band::Fixed1to4k, 45.0);
        let want = 0.975 + 0.5 * (1.0 - 0.975);
        assert!((mid - want).abs() < 1e-12, "{mid} vs {want}");
    }

    #[test]
    fn interpolates_between_knots() {
        let t = PerTable::recorded();
        let p = t.per(Band::Adaptive, 15.0);
        assert!((p - 0.0375).abs() < 1e-12, "{p}");
    }

    /// The error `from_knots` gives for `bad` as the fixed band's knots
    /// (after a valid adaptive band).
    fn fixed_error(bad: Vec<(f64, f64)>) -> KnotError {
        PerTable::from_knots(ADAPTIVE_KNOTS.to_vec(), bad).expect_err("invalid knots")
    }

    fn fixed(index: usize, kind: KnotErrorKind) -> KnotError {
        KnotError {
            band: Band::Fixed1to4k,
            index,
            kind,
        }
    }

    #[test]
    fn rejects_empty_band() {
        let e = PerTable::from_knots(Vec::new(), FIXED_KNOTS.to_vec()).expect_err("empty");
        assert_eq!(
            e,
            KnotError {
                band: Band::Adaptive,
                index: 0,
                kind: KnotErrorKind::Empty
            }
        );
        assert_eq!(e.to_string(), "Adaptive knot 0: the band has no knots");
    }

    #[test]
    fn rejects_nan_knot() {
        let e = fixed_error(vec![(5.0, 0.0), (f64::NAN, 0.1)]);
        assert_eq!(e, fixed(1, KnotErrorKind::NotANumber));
        let e = fixed_error(vec![(5.0, f64::NAN)]);
        assert_eq!(e, fixed(0, KnotErrorKind::NotANumber));
    }

    #[test]
    fn rejects_non_positive_range() {
        let e = fixed_error(vec![(0.0, 0.0), (5.0, 0.1)]);
        assert_eq!(e, fixed(0, KnotErrorKind::NonPositiveRange));
        let e = fixed_error(vec![(-5.0, 0.0)]);
        assert_eq!(e, fixed(0, KnotErrorKind::NonPositiveRange));
    }

    #[test]
    fn rejects_per_outside_unit_interval() {
        let e = fixed_error(vec![(5.0, 0.5), (10.0, 1.5)]);
        assert_eq!(e, fixed(1, KnotErrorKind::PerOutOfRange));
        let e = fixed_error(vec![(5.0, -0.1)]);
        assert_eq!(e, fixed(0, KnotErrorKind::PerOutOfRange));
    }

    #[test]
    fn rejects_unsorted_knots() {
        let e = fixed_error(vec![(5.0, 0.0), (10.0, 0.1), (10.0, 0.2)]);
        assert_eq!(e, fixed(2, KnotErrorKind::Unsorted));
        let e = fixed_error(vec![(10.0, 0.0), (5.0, 0.1)]);
        assert_eq!(e, fixed(1, KnotErrorKind::Unsorted));
    }

    #[test]
    fn rejects_non_monotone_per() {
        let e = fixed_error(vec![(5.0, 0.5), (10.0, 0.1)]);
        assert_eq!(e, fixed(1, KnotErrorKind::DecreasingPer));
        assert_eq!(
            e.to_string(),
            "Fixed1to4k knot 1: PER is below the previous knot's"
        );
    }
}
