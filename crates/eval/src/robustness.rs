//! Robustness experiments: Fig. 14 (mobility + differential coding),
//! Fig. 16 (channel stability), and the preamble/feedback statistics
//! reported in §3's text.

use crate::runner::{packet_series, RunSize};
use crate::table::{cdf_row, pct, Table};
use aqua_channel::environments::{Environment, Site};
use aqua_channel::geometry::Pos;
use aqua_channel::link::{Link, LinkConfig};
use aqua_channel::mobility::Trajectory;
use aqua_phy::bandselect::{select_band, BandSelectConfig};
use aqua_phy::chanest::estimate;
use aqua_phy::feedback::{decode_feedback_whitened, encode_feedback, noise_bin_power};
use aqua_phy::ofdm::DecodeOptions;
use aqua_phy::params::OfdmParams;
use aqua_phy::preamble::{detect, detect_streaming, DetectorConfig, Preamble};
use aquapp::trial::{front_end, TrialConfig};

/// The three mobility scenarios of §3 ("Effect of mobility").
fn mobility_scenarios(base: Pos) -> [(&'static str, Trajectory); 3] {
    [
        ("static", Trajectory::fixed(base)),
        ("slow (2.5 m/s²)", Trajectory::slow(base, 33)),
        ("fast (5.1 m/s²)", Trajectory::fast(base, 44)),
    ]
}

/// Fig. 14: mobility — PER, bitrate CDF and the differential-coding
/// ablation (uncoded BER with vs without differential).
pub fn fig14(size: RunSize) -> String {
    let n = size.packets();
    let mut table = Table::new(
        "Fig 14 — mobility (lake, 5 m): differential ablation",
        &[
            "scenario",
            "median bps",
            "PER",
            "uncoded BER (diff)",
            "uncoded BER (no diff)",
        ],
    );
    for (name, traj) in mobility_scenarios(Pos::new(0.0, 0.0, 1.0)) {
        let make = |seed: u64, differential: bool| {
            let mut cfg = TrialConfig::standard(
                Environment::preset(Site::Lake),
                Pos::new(0.0, 0.0, 1.0),
                Pos::new(5.0, 0.0, 1.0),
                20_000 + seed,
            );
            // Longer payload than the app's 16 bits: intra-packet channel
            // drift (what differential coding defends against) needs
            // airtime to accumulate — the paper's packets at their lower
            // bitrates occupied comparable airtime to 64 bits here.
            cfg.frame.payload_bits = 64;
            cfg.payload = (0..64).map(|i| ((seed >> (i % 60)) & 1) as u8).collect();
            cfg.alice_traj = traj.clone();
            cfg.differential = differential;
            cfg.decode = DecodeOptions {
                differential,
                ..DecodeOptions::default()
            };
            cfg
        };
        let with_diff = packet_series(n, |s| make(s, true));
        let without = packet_series(n, |s| make(s, false));
        table.row(vec![
            name.to_string(),
            format!("{:.0}", with_diff.median_bitrate),
            pct(with_diff.per),
            format!("{:.4}", with_diff.coded_ber),
            format!("{:.4}", without.coded_ber),
        ]);
    }
    table.render()
}

/// One Fig. 16 stability sample: Alice sends two preambles separated by
/// the feedback gap; Bob selects a band from the first and reports the
/// minimum SNR inside it measured on the second.
fn stability_sample(traj: &Trajectory, seed: u64) -> Option<f64> {
    let params = OfdmParams::default();
    let preamble = Preamble::new(params);
    let mut link = Link::new(LinkConfig {
        fs: crate::runner::FS,
        env: Environment::preset(Site::Lake),
        tx_device: aqua_channel::device::Device::default_rig(seed | 1),
        rx_device: aqua_channel::device::Device::default_rig(seed.wrapping_mul(5) | 2),
        tx_traj: traj.clone(),
        rx_traj: Trajectory::fixed(Pos::new(10.0, 0.0, 1.0)),
        noise: true,
        impulses: false,
        seed,
    });
    let mut tx = vec![0.0; 1200];
    tx.extend_from_slice(&preamble.samples);
    let rx1 = front_end(&link.transmit(&tx, 0.0));
    // second preamble one header+feedback later (~0.36 s)
    let gap_s = 0.36;
    let rx2 = front_end(&link.transmit(&tx, gap_s));

    let det1 = detect(&rx1, &preamble, &DetectorConfig::default())?;
    let det2 = detect(&rx2, &preamble, &DetectorConfig::default())?;
    let est1 = estimate(&params, &preamble, &rx1[det1.offset..]);
    let est2 = estimate(&params, &preamble, &rx2[det2.offset..]);
    let band = select_band(&est1.snr_db, &BandSelectConfig::default())?;
    Some(est2.min_snr_in(band.start, band.end))
}

/// Fig. 16: channel stability between the preamble and the data symbols,
/// static vs slow vs fast motion. Reports the distribution of the minimum
/// second-preamble SNR inside the selected band and the fraction below the
/// 4 dB "1 % BER" reference line.
pub fn fig16(size: RunSize) -> String {
    let n = size.packets();
    let mut table = Table::new(
        "Fig 16 — min SNR (dB) in band selected from an earlier preamble (lake, 10 m)",
        &["scenario", "min-SNR CDF (dB)", "frac below 4 dB"],
    );
    for (name, traj) in mobility_scenarios(Pos::new(0.0, 0.0, 1.0)) {
        let samples: Vec<f64> = crate::engine::global()
            .par_map(n, |i| stability_sample(&traj, 31_000 + i as u64))
            .into_iter()
            .flatten()
            .collect();
        if samples.is_empty() {
            table.row(vec![
                name.to_string(),
                "(no detections)".into(),
                String::new(),
            ]);
            continue;
        }
        let below = samples.iter().filter(|&&s| s < 4.0).count() as f64 / samples.len() as f64;
        table.row(vec![name.to_string(), cdf_row(&samples), pct(below)]);
    }
    table.render()
}

/// §3 text: preamble detection rate and feedback decode error rate at
/// 5/10/20/30 m (paper: 0.99/1.0/1.0/0.96 detection; ≈1 % feedback error).
///
/// Detection runs on the *streaming* front-end (the receiver's live path);
/// the `stream≡batch` column counts captures where the streaming and batch
/// detectors disagreed on accept/reject or offset, which the equivalence
/// suite pins near zero.
pub fn preamble_and_feedback_stats(size: RunSize) -> String {
    let n = (size.packets() * 3).max(20);
    let params = OfdmParams::default();
    let preamble = Preamble::new(params);
    let cfg = DetectorConfig::default();
    let mut table = Table::new(
        "Preamble & feedback evaluation (lake, 1 m depth, streaming detector)",
        &[
            "distance",
            "detection rate",
            "feedback error rate",
            "stream≡batch",
        ],
    );
    for dist in [5.0, 10.0, 20.0, 30.0] {
        // Per-capture fan-out: (detected, agrees-with-batch, feedback-error).
        let outcomes: Vec<(bool, bool, bool)> = crate::engine::global().par_map(n, |i| {
            let seed = 50_000 + i as u64 + dist as u64 * 977;
            let mut fwd = Link::new(LinkConfig::s9_pair(
                Environment::preset(Site::Lake),
                Pos::new(0.0, 0.0, 1.0),
                Pos::new(dist, 0.0, 1.0),
                seed,
            ));
            let mut tx = vec![0.0; 1000];
            tx.extend_from_slice(&preamble.samples);
            let rx = front_end(&fwd.transmit(&tx, 0.0));
            let streaming = detect_streaming(&rx, &preamble, &cfg);
            let batch = detect(&rx, &preamble, &cfg);
            let agree = matches!(
                (&streaming, &batch),
                (Some(s), Some(b)) if s.offset == b.offset
            ) || matches!((&streaming, &batch), (None, None));
            // feedback reliability over the same distance (backward link)
            let band =
                aqua_phy::bandselect::Band::new((seed % 30) as usize, 30 + (seed % 30) as usize);
            let mut back = Link::new(LinkConfig::s9_pair(
                Environment::preset(Site::Lake),
                Pos::new(dist, 0.0, 1.0),
                Pos::new(0.0, 0.0, 1.0),
                seed ^ 0xBB,
            ));
            let ambient = front_end(&back.ambient(8 * params.n_fft));
            let npp = noise_bin_power(&params, &ambient);
            let fb_rx = front_end(&back.transmit(&encode_feedback(&params, band), 0.0));
            let fb_error = !matches!(
                decode_feedback_whitened(&params, &fb_rx, 0.3, Some(&npp)),
                Some(d) if d.band == band
            );
            (streaming.is_some(), agree, fb_error)
        });
        let detected = outcomes.iter().filter(|o| o.0).count();
        let agree = outcomes.iter().filter(|o| o.1).count();
        let fb_errors = outcomes.iter().filter(|o| o.2).count();
        table.row(vec![
            format!("{dist} m"),
            format!("{:.2}", detected as f64 / n as f64),
            format!("{:.3}", fb_errors as f64 / n as f64),
            format!("{agree}/{n} agree"),
        ]);
    }
    table.render()
}

/// Detector ablation (§2.2.1's motivation): plain cross-correlation vs the
/// two-stage detector with the normalized sliding metric, under impulsive
/// "bubble" noise. Measures false alarms on signal-free audio and misses
/// on real preambles at 10 m in the lake.
pub fn detector_ablation(size: RunSize) -> String {
    use aqua_dsp::correlate::{argmax, xcorr_valid_fft};
    let n = (size.packets() * 2).max(16);
    let params = OfdmParams::default();
    let preamble = Preamble::new(params);
    // The baseline the paper argues against: raw (unnormalized)
    // cross-correlation with a threshold calibrated from a clean reception
    // — "the cross-correlation peak varies with SNR and spiky noise ...
    // could also cause a very high correlation peak" (§2.2.1).
    let calibration_peak = {
        let mut link = Link::new(LinkConfig::s9_pair(
            Environment::preset(Site::Lake),
            Pos::new(0.0, 0.0, 1.0),
            Pos::new(10.0, 0.0, 1.0),
            4242,
        ));
        let mut tx = vec![0.0; 1500];
        tx.extend_from_slice(&preamble.samples);
        let rx = front_end(&link.transmit(&tx, 0.0));
        let corr = xcorr_valid_fft(&rx, &preamble.samples);
        argmax(&corr).map(|i| corr[i].abs()).unwrap_or(1.0)
    };
    let raw_threshold = 0.5 * calibration_peak;
    let coarse_only = |rx: &[f64]| -> bool {
        let corr = xcorr_valid_fft(rx, &preamble.samples);
        argmax(&corr)
            .map(|i| corr[i].abs() > raw_threshold)
            .unwrap_or(false)
    };

    // The key weakness of an absolute correlation threshold is SNR
    // sensitivity: calibrated at 10 m, it misses the 3x-weaker signal at
    // 25 m. The normalized sliding metric is scale-invariant (§2.2.1).
    let mut table = Table::new(
        "Detector ablation — SNR-invariance of the two-stage detector (lake, threshold calibrated at 10 m)",
        &["distance", "two-stage miss", "raw-xcorr miss"],
    );
    for dist in [10.0, 25.0] {
        // (two-stage missed, raw-xcorr missed) per impulsive capture
        let misses: Vec<(bool, bool)> = crate::engine::global().par_map(n, |i| {
            let seed = 90_000 + i as u64 + dist as u64;
            let mut cfg = LinkConfig::s9_pair(
                Environment::preset(Site::Lake),
                Pos::new(0.0, 0.0, 1.0),
                Pos::new(dist, 0.0, 1.0),
                seed,
            );
            cfg.impulses = true; // bubbles and splashes on
            let mut link = Link::new(cfg);
            let mut tx = vec![0.0; 1500];
            tx.extend_from_slice(&preamble.samples);
            let rx = front_end(&link.transmit(&tx, 0.0));
            (
                detect(&rx, &preamble, &DetectorConfig::default()).is_none(),
                !coarse_only(&rx),
            )
        });
        let miss_full = misses.iter().filter(|m| m.0).count();
        let miss_coarse = misses.iter().filter(|m| m.1).count();
        table.row(vec![
            format!("{dist} m"),
            pct(miss_full as f64 / n as f64),
            pct(miss_coarse as f64 / n as f64),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stability_sample_returns_value_when_static() {
        let s = stability_sample(&Trajectory::fixed(Pos::new(0.0, 0.0, 1.0)), 123);
        assert!(s.is_some());
        assert!(s.unwrap() > -10.0 && s.unwrap() < 60.0);
    }

    #[test]
    fn mobility_scenarios_are_three() {
        assert_eq!(mobility_scenarios(Pos::new(0.0, 0.0, 1.0)).len(), 3);
    }
}
