//! The engine's determinism contract, pinned end to end: a `fig9`-style
//! quick series run on the parallel engine produces **byte-identical**
//! `SeriesStats` to the serial path — every field of every `TrialResult`,
//! not just the aggregates. Trials derive all randomness from per-packet
//! seeds, and the FFT plans every worker shares live in one process-wide
//! `aqua_dsp::memo` keyed by exact bits, so work distribution must never
//! leak into results (DESIGN.md §8).

use aqua_eval::engine::ExperimentEngine;
use aqua_eval::runner::summarize;
use aqua_par::Pool;
use aquapp::trial::{run_trial, TrialConfig, TrialResult};

use aqua_channel::environments::{Environment, Site};
use aqua_channel::geometry::Pos;

/// The fig9 Bridge-at-5-m adaptive configuration (quick size seeds).
fn fig9_cfg(seed: u64) -> TrialConfig {
    TrialConfig::standard(
        Environment::preset(Site::Bridge),
        Pos::new(0.0, 0.0, 1.0),
        Pos::new(5.0, 0.0, 1.0),
        1000 + seed,
    )
}

/// Exact equality on every `TrialResult` field; floats compared by bits.
fn assert_trial_identical(i: usize, par: &TrialResult, ser: &TrialResult) {
    assert_eq!(par.preamble_detected, ser.preamble_detected, "trial {i}");
    assert_eq!(par.id_ok, ser.id_ok, "trial {i}");
    assert_eq!(par.data_phase, ser.data_phase, "trial {i}");
    assert_eq!(par.feedback_ok, ser.feedback_ok, "trial {i}");
    assert_eq!(par.packet_ok, ser.packet_ok, "trial {i}");
    assert_eq!(par.bits, ser.bits, "trial {i}: payload bits");
    assert_eq!(
        par.band.map(|b| (b.start, b.end)),
        ser.band.map(|b| (b.start, b.end)),
        "trial {i}: band"
    );
    assert_eq!(
        par.coded_ber.to_bits(),
        ser.coded_ber.to_bits(),
        "trial {i}: coded_ber {} vs {}",
        par.coded_ber,
        ser.coded_ber
    );
    assert_eq!(
        par.coded_bitrate_bps.to_bits(),
        ser.coded_bitrate_bps.to_bits(),
        "trial {i}: bitrate"
    );
    match (&par.channel, &ser.channel) {
        (None, None) => {}
        (Some(p), Some(s)) => {
            assert_eq!(p.h.len(), s.h.len(), "trial {i}: estimate size");
            for k in 0..p.h.len() {
                assert_eq!(p.h[k].re.to_bits(), s.h[k].re.to_bits(), "trial {i} h[{k}]");
                assert_eq!(p.h[k].im.to_bits(), s.h[k].im.to_bits(), "trial {i} h[{k}]");
                assert_eq!(
                    p.snr_db[k].to_bits(),
                    s.snr_db[k].to_bits(),
                    "trial {i} snr[{k}]"
                );
            }
        }
        _ => panic!("trial {i}: channel presence differs"),
    }
}

#[test]
fn parallel_fig9_series_is_byte_identical_to_serial() {
    let n = 8; // RunSize::Quick packet count
    let serial: Vec<TrialResult> = (0..n).map(|i| run_trial(&fig9_cfg(i as u64))).collect();

    // Odd chunk size + more workers than items in flight forces real
    // interleaving even on a small series.
    let engine = ExperimentEngine::with_pool(Pool::new(4).with_chunk(1));
    let parallel = engine.trial_series(n, fig9_cfg);

    assert_eq!(parallel.len(), serial.len());
    for (i, (p, s)) in parallel.iter().zip(&serial).enumerate() {
        assert_trial_identical(i, p, s);
    }

    // And the aggregates built from them match bit-for-bit.
    let ps = summarize(parallel);
    let ss = summarize(serial);
    assert_eq!(ps.per.to_bits(), ss.per.to_bits());
    assert_eq!(ps.coded_ber.to_bits(), ss.coded_ber.to_bits());
    assert_eq!(ps.median_bitrate.to_bits(), ss.median_bitrate.to_bits());
    assert_eq!(ps.detection_rate.to_bits(), ss.detection_rate.to_bits());
    assert_eq!(ps.bitrates, ss.bitrates);
}
