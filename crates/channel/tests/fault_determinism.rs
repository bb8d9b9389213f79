//! Determinism contract of the fault layer (DESIGN.md §13):
//!
//! - same seed ⇒ bit-identical `FaultSchedule` and bit-identical faulted
//!   renders;
//! - a link rendering through an empty schedule is bit-identical to the
//!   plain `Link` — the fault hook must cost nothing when no faults are
//!   scheduled.

use aqua_channel::environments::{Environment, Site};
use aqua_channel::fault::FaultSchedule;
use aqua_channel::geometry::Pos;
use aqua_channel::link::{Link, LinkConfig, SAMPLE_RATE};

fn lake_cfg(seed: u64) -> LinkConfig {
    LinkConfig::s9_pair(
        Environment::preset(Site::Lake),
        Pos::new(0.0, 0.0, 1.0),
        Pos::new(15.0, 0.0, 1.0),
        seed,
    )
}

fn chirp() -> Vec<f64> {
    (0..9600)
        .map(|i| {
            let t = i as f64 / SAMPLE_RATE;
            (2.0 * std::f64::consts::PI * (1500.0 + 800.0 * t) * t).sin()
        })
        .collect()
}

fn storm_schedule(seed: u64) -> FaultSchedule {
    FaultSchedule::seeded(seed)
        .with_burst_train(0.0, 60.0, 3.0, 1.2)
        .with_fade(2.0, 6.0, 15.0, 1.0)
        .with_blackout(20.0, 30.0)
}

#[test]
fn same_seed_gives_bit_identical_schedule_and_render() {
    let a = storm_schedule(0xFA17);
    let b = storm_schedule(0xFA17);
    assert_eq!(a, b, "schedule construction must be deterministic");

    let tx = chirp();
    let mut la = Link::new(lake_cfg(5));
    let mut lb = Link::new(lake_cfg(5));
    for &t0 in &[0.0, 2.5, 21.0] {
        let ra = la.transmit_with_faults(&tx, t0, Some((&a, 0.0)));
        let rb = lb.transmit_with_faults(&tx, t0, Some((&b, 0.0)));
        assert_eq!(ra.len(), rb.len());
        assert!(
            ra.iter().zip(&rb).all(|(x, y)| x.to_bits() == y.to_bits()),
            "faulted render at t0={t0} must be bit-identical across runs"
        );
    }
}

#[test]
fn zero_fault_link_is_bit_identical_to_plain_link() {
    let tx = chirp();
    let mut plain = Link::new(lake_cfg(9));
    let mut faulty = Link::new(lake_cfg(9));
    let sched = FaultSchedule::seeded(123);
    for &t0 in &[0.0, 1.0] {
        let rp = plain.transmit(&tx, t0);
        let rf = faulty.transmit_with_faults(&tx, t0, Some((&sched, 0.0)));
        assert_eq!(rp.len(), rf.len());
        assert!(
            rp.iter().zip(&rf).all(|(x, y)| x.to_bits() == y.to_bits()),
            "empty schedule must not change a single bit at t0={t0}"
        );
    }
}

#[test]
fn blackout_silences_signal_but_not_ambient_noise() {
    // Transmit entirely inside a blackout: the receiver must hear only
    // the ambient noise floor — identical to what the plain link records
    // for a silent transmission of the same length.
    let tx = chirp();
    let sched = FaultSchedule::seeded(1).with_blackout(0.0, 10.0);
    let mut faulty = Link::new(lake_cfg(30));
    let rx = faulty.transmit_with_faults(&tx, 1.0, Some((&sched, 0.0)));
    let mut plain = Link::new(lake_cfg(30));
    let silent = plain.transmit(&vec![0.0; tx.len()], 1.0);
    assert_eq!(rx.len(), silent.len());
    assert!(
        rx.iter()
            .zip(&silent)
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "blacked-out transmission must equal a silent one bit-for-bit"
    );
    let rms = (rx.iter().map(|v| v * v).sum::<f64>() / rx.len() as f64).sqrt();
    assert!(
        rms > 1e-5,
        "ambient noise persists through a blackout: {rms}"
    );
}

#[test]
fn fade_reduces_received_signal_energy() {
    let tx = chirp();
    let faded = FaultSchedule::seeded(2).with_fade(0.0, 60.0, 25.0, 0.5);
    let mut quiet_cfg = lake_cfg(4);
    quiet_cfg.noise = false;
    let mut plain_cfg = lake_cfg(4);
    plain_cfg.noise = false;
    let mut f = Link::new(quiet_cfg);
    let mut p = Link::new(plain_cfg);
    let ef: f64 = f
        .transmit_with_faults(&tx, 10.0, Some((&faded, 0.0)))
        .iter()
        .map(|v| v * v)
        .sum();
    let ep: f64 = p.transmit(&tx, 10.0).iter().map(|v| v * v).sum();
    // -25 dB plateau ⇒ energy ratio ~10^-2.5; ramps make it slightly less
    assert!(
        ef < ep * 0.02,
        "faded energy {ef} vs plain {ep} — fade must bite"
    );
    assert!(ef > 0.0, "a fade attenuates, it does not silence");
}

#[test]
fn bursts_add_impulsive_energy() {
    let sched = FaultSchedule::seeded(6).with_burst_train(0.0, 1.0, 40.0, 3.0);
    let mut quiet = lake_cfg(8);
    quiet.noise = false;
    let mut f = Link::new(quiet.clone());
    let mut p = Link::new(quiet);
    let tx = vec![0.0; 48_000];
    let rf = f.transmit_with_faults(&tx, 0.0, Some((&sched, 0.0)));
    let rp = p.transmit(&tx, 0.0);
    let peak_f = rf.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
    let peak_p = rp.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
    assert!(
        peak_f > peak_p + 1.0,
        "burst train must add visible spikes: faulted {peak_f}, plain {peak_p}"
    );
}
