//! Property-based tests on channel-model invariants.

use aqua_channel::absorption::{path_amplitude, spreading_db, thorp_db_per_km};
use aqua_channel::device::{CaseKind, Device, DeviceModel};
use aqua_channel::environments::{Environment, Site};
use aqua_channel::geometry::{delay_spread_s, eigenrays, eigenrays_into, Boundaries, Pos};
use aqua_channel::link::{Link, LinkConfig};
use proptest::prelude::*;
use std::f64::consts::PI;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Path amplitude decreases monotonically with distance.
    #[test]
    fn amplitude_monotone_in_distance(d1 in 1.0f64..200.0, extra in 0.1f64..100.0, f in 500.0f64..8000.0) {
        prop_assert!(path_amplitude(f, d1) > path_amplitude(f, d1 + extra));
    }

    /// Thorp absorption increases with frequency.
    #[test]
    fn thorp_monotone(f in 0.1f64..90.0, df in 0.1f64..10.0) {
        prop_assert!(thorp_db_per_km(f + df) > thorp_db_per_km(f));
    }

    /// Spreading loss follows 20·log10(d).
    #[test]
    fn spreading_is_spherical(d in 0.5f64..500.0) {
        prop_assert!((spreading_db(d) - 20.0 * d.log10()).abs() < 1e-9);
    }

    /// The direct ray is always the shortest and first after sorting, and
    /// all amplitudes are finite and bounded by the direct's.
    #[test]
    fn eigenray_geometry_invariants(
        range in 1.0f64..80.0,
        zt in 0.3f64..3.0,
        zr in 0.3f64..3.0,
        depth in 3.5f64..20.0,
        sr in 0.3f64..0.95,
        br in 0.1f64..0.8,
    ) {
        let rays = eigenrays(
            &Pos::new(0.0, 0.0, zt),
            &Pos::new(range, 0.0, zr),
            &Boundaries { water_depth_m: depth, surface_reflectivity: sr, bottom_reflectivity: br },
            2500.0,
            1e-3,
            10,
        );
        prop_assert!(!rays.is_empty());
        let direct_len = (range * range + (zt - zr) * (zt - zr)).sqrt();
        prop_assert!((rays[0].length_m - direct_len).abs() < 1e-6, "direct first");
        let max_amp = rays.iter().map(|r| r.amplitude.abs()).fold(0.0, f64::max);
        for r in &rays {
            prop_assert!(r.length_m >= rays[0].length_m - 1e-9);
            prop_assert!(r.amplitude.abs().is_finite());
            prop_assert!(r.amplitude.abs() <= max_amp + 1e-12);
        }
        prop_assert!(delay_spread_s(&rays, 1500.0) >= 0.0);
    }

    /// Device responses are finite everywhere in the audio band and
    /// deterministic.
    #[test]
    fn device_response_sane(f in 50.0f64..20_000.0, unit in 0u64..32) {
        for model in DeviceModel::ALL {
            let d = Device::new(model, CaseKind::SoftPouch, unit);
            let tx = d.tx_response_db(f);
            let rx = d.rx_response_db(f);
            prop_assert!(tx.is_finite() && rx.is_finite());
            // the >4 kHz rolloff reaches ≈ -180 dB by 19 kHz
            prop_assert!((-250.0..=30.0).contains(&tx), "{model:?} tx({f}) = {tx}");
            prop_assert_eq!(tx, d.tx_response_db(f));
        }
    }

    /// Directivity loss is zero on boresight, non-positive elsewhere, and
    /// symmetric in the angle.
    #[test]
    fn directivity_invariants(angle in -PI..PI) {
        let d = Device::default_rig(1);
        prop_assert_eq!(d.directivity_db(0.0), 0.0);
        let loss = d.directivity_db(angle);
        prop_assert!(loss <= 1e-12);
        prop_assert!((loss - d.directivity_db(-angle)).abs() < 1e-12);
    }

    /// `eigenrays_into` refills its buffer with exactly what `eigenrays`
    /// allocates, regardless of what the buffer held before.
    #[test]
    fn eigenrays_into_matches_allocating_form(range in 1.0f64..60.0, depth in 3.5f64..15.0) {
        let tx = Pos::new(0.0, 0.0, 1.0);
        let rx = Pos::new(range, 0.0, 1.2);
        let bounds = Boundaries {
            water_depth_m: depth,
            surface_reflectivity: 0.9,
            bottom_reflectivity: 0.5,
        };
        let want = eigenrays(&tx, &rx, &bounds, 2500.0, 1e-3, 10);
        // a dirty, pre-populated buffer must come out identical
        let mut got = eigenrays(&rx, &tx, &bounds, 2500.0, 1e-3, 4);
        eigenrays_into(&tx, &rx, &bounds, 2500.0, 1e-3, 10, &mut got);
        prop_assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            prop_assert_eq!(a.length_m.to_bits(), b.length_m.to_bits());
            prop_assert_eq!(a.amplitude.to_bits(), b.amplitude.to_bits());
            prop_assert_eq!(a.id, b.id);
        }
    }
}

/// A noiseless static link's `transmit` is a pure function of (config,
/// input, start time): the first call renders through the freshly built
/// multipath FIR (the uncached path) and later calls hit the memoized
/// FIR + cached spectra — all of them, and a fresh link's output, must be
/// **bit-identical**. This is the cached-renderer ≡ uncached-renderer
/// regression the PR 4 caches are licensed by.
#[test]
fn cached_static_renderer_is_bit_identical_across_repeated_transmits() {
    let cfg = || {
        let mut c = LinkConfig::s9_pair(
            Environment::preset(Site::Lake),
            Pos::new(0.0, 0.0, 1.0),
            Pos::new(9.0, 0.0, 1.3),
            77,
        );
        c.noise = false;
        c
    };
    let tone: Vec<f64> = (0..4800)
        .map(|i| (2.0 * std::f64::consts::PI * 2000.0 * i as f64 / 48_000.0).sin())
        .collect();
    // different lengths land on different padded FFT sizes — both cached
    let short = &tone[..700];

    let mut cached = Link::new(cfg());
    let first = cached.transmit(&tone, 0.0);
    let second = cached.transmit(&tone, 0.0);
    let third = cached.transmit(&tone, 0.25); // static ⇒ same geometry key
    let first_short = cached.transmit(short, 0.1);
    let second_short = cached.transmit(short, 0.1);

    let mut fresh = Link::new(cfg());
    let uncached = fresh.transmit(&tone, 0.0);
    let mut fresh_short = Link::new(cfg());
    let uncached_short = fresh_short.transmit(short, 0.1);

    let assert_same = |a: &[f64], b: &[f64], what: &str| {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (p, q)) in a.iter().zip(b).enumerate() {
            assert_eq!(p.to_bits(), q.to_bits(), "{what}: sample {i}");
        }
    };
    assert_same(&second, &first, "repeat transmit");
    assert_same(&third, &first, "same geometry, later t0");
    assert_same(&uncached, &first, "fresh (uncached) link");
    assert_same(&second_short, &first_short, "repeat short transmit");
    assert_same(&uncached_short, &first_short, "fresh link, short input");
}

/// The noise path must be untouched by the FIR caches: with noise on, the
/// cached link's generator state advances exactly like a per-call fresh
/// link consuming the same number of samples.
#[test]
fn cached_renderer_preserves_noise_stream() {
    let cfg = || {
        LinkConfig::s9_pair(
            Environment::preset(Site::Bridge),
            Pos::new(0.0, 0.0, 1.0),
            Pos::new(5.0, 0.0, 1.0),
            321,
        )
    };
    let tone: Vec<f64> = (0..960)
        .map(|i| (2.0 * std::f64::consts::PI * 2500.0 * i as f64 / 48_000.0).sin())
        .collect();
    let mut a = Link::new(cfg());
    let out1a = a.transmit(&tone, 0.0);
    let out2a = a.transmit(&tone, 0.1);
    let mut b = Link::new(cfg());
    let out1b = b.transmit(&tone, 0.0);
    let out2b = b.transmit(&tone, 0.1);
    assert_eq!(out1a.len(), out1b.len());
    assert_eq!(out2a.len(), out2b.len());
    for (p, q) in out1a.iter().zip(&out1b).chain(out2a.iter().zip(&out2b)) {
        assert_eq!(p.to_bits(), q.to_bits());
    }
    // and consecutive noise realizations differ (the generator advanced)
    assert_ne!(out1a, out2a);
}
