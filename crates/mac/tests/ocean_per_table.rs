//! Property suite for the analytic PER lookup table: monotone in range
//! within each band, clamped to `[0, 1]`, exact at the recorded
//! fig9/fig12 knots, and the same guarantees for arbitrary synthetic knot
//! sets, which `from_knots` accepts only in ascending range order. The sample-level cross-check (a real trial series at a knot
//! distance landing inside the recorded confidence interval) lives in
//! `eval/tests/per_calibration.rs` next to the trial machinery.

use aqua_mac::ocean::per_table::{Band, KnotErrorKind, PerTable, ADAPTIVE_KNOTS, FIXED_KNOTS};
use proptest::prelude::*;

#[test]
fn exact_at_every_recorded_knot() {
    let t = PerTable::recorded();
    for &(r, p) in &ADAPTIVE_KNOTS {
        assert_eq!(t.per(Band::Adaptive, r).to_bits(), p.to_bits(), "r={r}");
    }
    for &(r, p) in &FIXED_KNOTS {
        assert_eq!(t.per(Band::Fixed1to4k, r).to_bits(), p.to_bits(), "r={r}");
    }
}

#[test]
fn adaptive_beats_fixed_band_at_range() {
    // The fig12 headline: the adaptive scheme stays usable where the
    // fixed band collapses.
    let t = PerTable::recorded();
    for r in [10.0, 20.0, 30.0, 45.0] {
        assert!(
            t.per(Band::Adaptive, r) < t.per(Band::Fixed1to4k, r),
            "r={r}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Monotone in range within each band, for any pair of ranges.
    #[test]
    fn recorded_table_is_monotone(a in 0.1f64..=200.0, b in 0.1f64..=200.0) {
        let t = PerTable::recorded();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        for band in [Band::Adaptive, Band::Fixed1to4k] {
            prop_assert!(
                t.per(band, lo) <= t.per(band, hi),
                "band {band:?}: per({lo}) > per({hi})"
            );
        }
    }

    /// Clamped to [0, 1] over a far wider range than the knots span.
    #[test]
    fn recorded_table_is_clamped(r in 0.001f64..=100_000.0) {
        let t = PerTable::recorded();
        for band in [Band::Adaptive, Band::Fixed1to4k] {
            let p = t.per(band, r);
            prop_assert!((0.0..=1.0).contains(&p), "band {band:?} r={r} per={p}");
        }
    }

    /// The same properties hold for arbitrary synthetic knot sets: build
    /// a random valid (sorted-range, monotone-PER) table and check knot
    /// exactness, monotonicity and clamping between and beyond knots.
    #[test]
    fn synthetic_tables_keep_the_invariants(
        ranges in proptest::collection::vec(0.5f64..=100.0, 2..6),
        steps in proptest::collection::vec(0.0f64..=0.4, 6),
        probe in 0.1f64..=400.0,
        probe2 in 0.1f64..=400.0,
    ) {
        // Sort + dedup ranges; accumulate steps into a monotone PER curve.
        let mut rs = ranges.clone();
        rs.sort_by(|x, y| x.partial_cmp(y).unwrap());
        rs.dedup();
        prop_assume!(rs.len() >= 2);
        let mut per = 0.0f64;
        let knots: Vec<(f64, f64)> = rs
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                per = (per + steps[i % steps.len()]).min(1.0);
                (r, per)
            })
            .collect();
        let t = PerTable::from_knots(knots.clone(), knots.clone());
        prop_assert!(t.is_ok(), "valid knots rejected: {:?}", t.err());
        let t = t.unwrap();
        // The same knots in descending range order are rejected at the
        // second knot.
        let reversed: Vec<(f64, f64)> = knots.iter().rev().copied().collect();
        let e = PerTable::from_knots(knots.clone(), reversed).err();
        prop_assert_eq!(e.map(|e| (e.band, e.index, e.kind)), Some((Band::Fixed1to4k, 1, KnotErrorKind::Unsorted)));
        for &(r, p) in &knots {
            prop_assert_eq!(t.per(Band::Adaptive, r).to_bits(), p.to_bits());
        }
        let (lo, hi) = if probe <= probe2 { (probe, probe2) } else { (probe2, probe) };
        prop_assert!(t.per(Band::Adaptive, lo) <= t.per(Band::Adaptive, hi));
        let p = t.per(Band::Fixed1to4k, probe);
        prop_assert!((0.0..=1.0).contains(&p));
        // Far beyond twice the last knot: certain loss.
        prop_assert_eq!(t.per(Band::Adaptive, knots.last().unwrap().0 * 2.0 + 1.0), 1.0);
    }
}
