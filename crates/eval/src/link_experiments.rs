//! Link-performance experiments: Fig. 8 (BER vs SNR), Fig. 9
//! (environments), Fig. 10 (depth), Fig. 11 (deep water), Fig. 12a–c +
//! Fig. 13 (range), Fig. 15 (orientation), Fig. 17 (subcarrier spacing).

use crate::runner::{packet_series, RunSize};
use crate::table::{cdf_row, pct, Table};
use aqua_channel::device::CaseKind;
use aqua_channel::environments::{Environment, Site};
use aqua_channel::geometry::Pos;
use aqua_channel::link::{Link, LinkConfig};
use aqua_channel::mobility::Trajectory;
use aqua_phy::bandselect::Band;
use aqua_phy::chanest::estimate;
use aqua_phy::frame::FrameConfig;
use aqua_phy::ofdm::{demodulate_data, modulate_coded, DecodeOptions};
use aqua_phy::params::OfdmParams;
use aqua_phy::preamble::{detect, DetectorConfig, Preamble};
use aquapp::trial::{front_end, Scheme, TrialConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's fixed-bandwidth baselines (Fig. 9): 1–4, 1–2.5 and
/// 1–1.5 kHz = 60, 30 and 10 OFDM bins.
pub const FIXED_BANDS: [(&str, Band); 3] = [
    ("fixed 1-4 kHz (60 bins)", Band { start: 0, end: 59 }),
    ("fixed 1-2.5 kHz (30 bins)", Band { start: 0, end: 29 }),
    ("fixed 1-1.5 kHz (10 bins)", Band { start: 0, end: 9 }),
];

fn standard_cfg(env: Environment, dist: f64, seed: u64) -> TrialConfig {
    TrialConfig::standard(env, Pos::new(0.0, 0.0, 1.0), Pos::new(dist, 0.0, 1.0), seed)
}

/// Fig. 8: per-subcarrier BER vs SNR against the theoretical BPSK curve.
///
/// Sends `symbols` uncoded BPSK OFDM symbols over the full band at
/// 5/10/20 m (bridge), estimates per-bin SNR from a preamble over the same
/// link, and buckets measured BER by SNR.
pub fn fig8(size: RunSize) -> String {
    let params = OfdmParams::default();
    let symbols = match size {
        RunSize::Quick => 40,
        RunSize::Standard => 200,
        RunSize::Full => 500,
    };
    let band = Band::new(0, params.num_bins - 1);
    // (snr_db, errors, bits) per bin, one independent fan-out per distance
    // (each distance renders its own link and long uncoded burst).
    let distances = [5.0, 10.0, 20.0];
    let per_distance: Vec<Vec<(f64, usize, usize)>> =
        crate::engine::global().par_map(distances.len(), |di| {
            let dist = distances[di];
            let mut points = Vec::new();
            let mut link = Link::new(LinkConfig::s9_pair(
                Environment::preset(Site::Bridge),
                Pos::new(0.0, 0.0, 1.0),
                Pos::new(dist, 0.0, 1.0),
                40 + di as u64,
            ));
            // SNR estimate from a preamble
            let preamble = Preamble::new(params);
            let mut lead = vec![0.0; 2400];
            lead.extend_from_slice(&preamble.samples);
            let pre_rx = front_end(&link.transmit(&lead, 0.0));
            let Some(det) = detect(&pre_rx, &preamble, &DetectorConfig::default()) else {
                return points;
            };
            let est = estimate(&params, &preamble, &pre_rx[det.offset..]);

            // known coded bits (uncoded transmission: feed them straight in)
            let mut rng = StdRng::seed_from_u64(77 + di as u64);
            let nbits = symbols * params.num_bins;
            let bits: Vec<u8> = (0..nbits).map(|_| rng.gen_range(0..2u8)).collect();
            let tx = modulate_coded(&params, band, &bits, true);
            let rx = front_end(&link.transmit(&tx, 1.0));
            let start = det.offset.saturating_sub(2400);
            let aligned = &rx[start.min(rx.len().saturating_sub(1))..];
            if aligned.len() < tx.len() {
                return points;
            }
            let opts = DecodeOptions {
                bandpass: false,
                ..DecodeOptions::default()
            };
            // demodulate_data expects payload_bits for rate 2/3; we bypass
            // the Viterbi by reading coded_hard directly with payload sized
            // so the coded length matches nbits (nbits = 3/2 * payload).
            let payload_bits = nbits * 2 / 3;
            let decoded = demodulate_data(&params, band, aligned, payload_bits, &opts);
            // per-bin error accounting via the interleaver order
            let order = aqua_coding::interleave::symbol_order(band.len());
            for (i, (&tx_bit, &rx_bit)) in bits.iter().zip(&decoded.coded_hard).enumerate() {
                let j = i % band.len();
                let bin = order[j];
                let snr = est.snr_db[bin];
                points.push((snr, (tx_bit != rx_bit) as usize, 1));
            }
            points
        });
    let points: Vec<(f64, usize, usize)> = per_distance.into_iter().flatten().collect();

    // bucket by SNR in 2 dB steps
    let mut table = Table::new(
        "Fig 8 — per-subcarrier BER vs SNR (bridge, 5/10/20 m, BPSK uncoded)",
        &["SNR bucket (dB)", "bits", "measured BER", "theory BPSK"],
    );
    let mut buckets: std::collections::BTreeMap<i64, (usize, usize)> = Default::default();
    for (snr, err, n) in points {
        let b = (snr / 2.0).floor() as i64 * 2;
        let e = buckets.entry(b).or_insert((0, 0));
        e.0 += err;
        e.1 += n;
    }
    for (b, (err, n)) in buckets {
        if n < 200 || !(-4..=20).contains(&b) {
            continue;
        }
        let measured = err as f64 / n as f64;
        let theory = aqua_dsp::stats::bpsk_ber_db(b as f64 + 1.0);
        table.row(vec![
            format!("{b}..{}", b + 2),
            n.to_string(),
            format!("{measured:.4}"),
            format!("{theory:.4}"),
        ]);
    }
    table.render()
}

/// Fig. 9: environments — bitrate CDFs and PER of adaptive vs fixed
/// schemes at 5 m in bridge/park/lake; plus the Fig. 9b,c band pick.
pub fn fig9(size: RunSize) -> String {
    let n = size.packets();
    let mut out = String::new();
    let mut per_table = Table::new(
        "Fig 9d — PER at 5 m: adaptive vs fixed bandwidth",
        &[
            "location",
            "ours (adaptive)",
            "1-4 kHz",
            "1-2.5 kHz",
            "1-1.5 kHz",
        ],
    );
    let mut cdf_table = Table::new(
        "Fig 9a — selected coded bitrate CDF at 5 m (bps)",
        &["location", "CDF", "median"],
    );
    for site in [Site::Bridge, Site::Park, Site::Lake] {
        let adaptive = packet_series(n, |seed| {
            standard_cfg(Environment::preset(site), 5.0, 1000 + seed)
        });
        cdf_table.row(vec![
            format!("{site:?}"),
            cdf_row(&adaptive.bitrates),
            format!("{:.0}", adaptive.median_bitrate),
        ]);
        let mut row = vec![format!("{site:?}"), pct(adaptive.per)];
        for (_, band) in FIXED_BANDS {
            let fixed = packet_series(n, |seed| {
                let mut cfg = standard_cfg(Environment::preset(site), 5.0, 1000 + seed);
                cfg.scheme = Scheme::Fixed(band);
                cfg
            });
            row.push(pct(fixed.per));
        }
        per_table.row(row);
    }
    out.push_str(&cdf_table.render());
    out.push_str(&per_table.render());

    // Fig 9b,c: example selected band at bridge vs lake
    let mut band_table = Table::new(
        "Fig 9b,c — example band selection (5 m)",
        &["location", "f_begin (Hz)", "f_end (Hz)", "bins"],
    );
    for site in [Site::Bridge, Site::Lake] {
        let cfg = standard_cfg(Environment::preset(site), 5.0, 4242);
        let r = aquapp::trial::run_trial(&cfg);
        if let Some(band) = r.band {
            let p = OfdmParams::default();
            band_table.row(vec![
                format!("{site:?}"),
                format!("{:.0}", p.bin_freq_hz(band.start)),
                format!("{:.0}", p.bin_freq_hz(band.end)),
                band.len().to_string(),
            ]);
        }
    }
    out.push_str(&band_table.render());
    out
}

/// Fig. 10: depth sweep at the museum (9 m water, 5 m horizontal).
pub fn fig10(size: RunSize) -> String {
    let n = size.packets();
    let mut per_table = Table::new(
        "Fig 10 — PER vs device depth (museum, 9 m water, 5 m apart)",
        &[
            "depth",
            "ours",
            "3 kHz fixed",
            "1.5 kHz fixed",
            "0.5 kHz fixed",
            "median bps",
        ],
    );
    for depth in [2.0, 5.0, 7.0] {
        let env = Environment::preset(Site::Museum);
        let make = |seed: u64| {
            TrialConfig::standard(
                env.clone(),
                Pos::new(0.0, 0.0, depth),
                Pos::new(5.0, 0.0, depth),
                3000 + seed + depth as u64 * 101,
            )
        };
        let adaptive = packet_series(n, make);
        let mut row = vec![format!("{depth} m"), pct(adaptive.per)];
        for band in [Band::new(0, 59), Band::new(0, 29), Band::new(0, 9)] {
            let fixed = packet_series(n, |seed| {
                let mut cfg = make(seed);
                cfg.scheme = Scheme::Fixed(band);
                cfg
            });
            row.push(pct(fixed.per));
        }
        row.push(format!("{:.0}", adaptive.median_bitrate));
        per_table.row(row);
    }
    per_table.render()
}

/// Fig. 11: deeper water (bay, 15 m deep, devices at 12 m, hard case).
pub fn fig11(size: RunSize) -> String {
    let n = size.packets();
    let stats = packet_series(n, |seed| {
        let mut cfg = TrialConfig::standard(
            Environment::preset(Site::Bay),
            Pos::new(0.0, 0.0, 12.0),
            Pos::new(3.5, 0.0, 12.0), // either side of a two-person kayak
            5000 + seed,
        );
        cfg.alice_device.case = CaseKind::HardCase;
        cfg.bob_device.case = CaseKind::HardCase;
        cfg
    });
    let mut table = Table::new(
        "Fig 11 — deeper water (bay, 12 m depth, hard case, 3.5 m apart)",
        &["metric", "value", "paper"],
    );
    table.row(vec![
        "median coded bitrate".into(),
        format!("{:.0} bps", stats.median_bitrate),
        "133 bps".into(),
    ]);
    table.row(vec![
        "bitrate CDF".into(),
        cdf_row(&stats.bitrates),
        String::new(),
    ]);
    table.row(vec!["PER".into(), pct(stats.per), "works at depth".into()]);
    table.render()
}

/// Fig. 12a–c + Fig. 13: range sweep in the lake (1 m depth, 5–30 m).
pub fn fig12(size: RunSize) -> String {
    let n = size.packets();
    let params = OfdmParams::default();
    let mut out = String::new();
    let mut table = Table::new(
        "Fig 12a-c — range sweep (lake, 1 m depth): ours vs fixed bands",
        &[
            "distance",
            "median bps",
            "ours PER",
            "ours coded BER",
            "1-4k PER",
            "1-2.5k PER",
            "1-1.5k PER",
        ],
    );
    let mut band_table = Table::new(
        "Fig 13 — selected band vs distance (median over packets)",
        &["distance", "f_begin (Hz)", "f_end (Hz)", "bins"],
    );
    for dist in [5.0, 10.0, 15.0, 20.0, 25.0, 30.0] {
        let make = |seed: u64| {
            // rope-suspended phones sway slowly (the paper notes they were
            // not static)
            let mut cfg = standard_cfg(Environment::preset(Site::Lake), dist, 7000 + seed);
            cfg.alice_traj = Trajectory::Oscillating {
                base: Pos::new(0.0, 0.0, 1.0),
                azimuth: 0.0,
                rms_accel: 0.8,
                seed: 70 + seed,
            };
            cfg
        };
        let adaptive = packet_series(n, make);
        let mut row = vec![
            format!("{dist} m"),
            format!("{:.0}", adaptive.median_bitrate),
            pct(adaptive.per),
            format!("{:.3}", adaptive.coded_ber),
        ];
        for (_, band) in FIXED_BANDS {
            let fixed = packet_series(n, |seed| {
                let mut cfg = make(seed);
                cfg.scheme = Scheme::Fixed(band);
                cfg
            });
            row.push(pct(fixed.per));
        }
        table.row(row);

        // Fig 13: median selected band edges
        let starts: Vec<f64> = adaptive
            .trials
            .iter()
            .filter_map(|t| t.band.map(|b| params.bin_freq_hz(b.start)))
            .collect();
        let ends: Vec<f64> = adaptive
            .trials
            .iter()
            .filter_map(|t| t.band.map(|b| params.bin_freq_hz(b.end)))
            .collect();
        if !starts.is_empty() {
            band_table.row(vec![
                format!("{dist} m"),
                format!("{:.0}", aqua_dsp::stats::median(&starts)),
                format!("{:.0}", aqua_dsp::stats::median(&ends)),
                format!(
                    "{:.0}",
                    (aqua_dsp::stats::median(&ends) - aqua_dsp::stats::median(&starts)) / 50.0
                        + 1.0
                ),
            ]);
        }
    }
    out.push_str(&table.render());
    out.push_str(&band_table.render());
    out
}

/// Fig. 15: phone orientation (bridge, 5 m, azimuth 0..180°).
pub fn fig15(size: RunSize) -> String {
    let n = size.packets();
    let mut table = Table::new(
        "Fig 15 — phone orientation (bridge, 5 m)",
        &["azimuth", "median bps", "ours PER", "1-4k fixed PER"],
    );
    for az_deg in [0.0, 45.0, 90.0, 135.0, 180.0] {
        let az = az_deg * std::f64::consts::PI / 180.0;
        let make = |seed: u64| {
            let mut cfg = standard_cfg(Environment::preset(Site::Bridge), 5.0, 9000 + seed);
            cfg.alice_traj = Trajectory::Static {
                pos: Pos::new(0.0, 0.0, 1.0),
                azimuth: az,
            };
            cfg
        };
        let adaptive = packet_series(n, make);
        let fixed = packet_series(n, |seed| {
            let mut cfg = make(seed);
            cfg.scheme = Scheme::Fixed(Band::new(0, 59));
            cfg
        });
        table.row(vec![
            format!("{az_deg}°"),
            format!("{:.0}", adaptive.median_bitrate),
            pct(adaptive.per),
            pct(fixed.per),
        ]);
    }
    table.render()
}

/// Fig. 17: OFDM subcarrier spacing (lake, 5 m and 20 m).
pub fn fig17(size: RunSize) -> String {
    let n = size.packets();
    let mut table = Table::new(
        "Fig 17 — subcarrier spacing (lake): PER and median bitrate",
        &["spacing", "5 m PER", "5 m bps", "20 m PER", "20 m bps"],
    );
    for (name, params) in [
        ("50 Hz (20 ms)", OfdmParams::spacing_50hz()),
        ("25 Hz (40 ms)", OfdmParams::spacing_25hz()),
        ("10 Hz (100 ms)", OfdmParams::spacing_10hz()),
    ] {
        let mut row = vec![name.to_string()];
        for dist in [5.0, 20.0] {
            let stats = packet_series(n, |seed| {
                let mut cfg = standard_cfg(Environment::preset(Site::Lake), dist, 11_000 + seed);
                cfg.frame = FrameConfig {
                    params,
                    ..FrameConfig::default()
                };
                cfg
            });
            row.push(pct(stats.per));
            row.push(format!("{:.0}", stats.median_bitrate));
        }
        table.row(row);
    }
    table.render()
}

/// §5 "Messaging latency": measures median bitrates at 5 m and derives the
/// end-to-end latency of a hand-signal packet (protocol overhead + data
/// airtime), matching the paper's "close to half a second at 25 bps" and
/// "50 characters in half a second at 1 kbps" arithmetic.
pub fn latency(size: RunSize) -> String {
    let n = (size.packets() / 2).max(4);
    let frame = FrameConfig::default();
    let overhead_s = frame.data_start_offset() as f64 / frame.params.fs;
    let mut table = Table::new(
        "§5 messaging latency (measured bitrate at 5 m + frame overhead)",
        &[
            "site",
            "median bps",
            "2-signal packet (s)",
            "50-char text (s)",
            "paper",
        ],
    );
    for site in [Site::Bridge, Site::Lake] {
        let stats = packet_series(n, |seed| {
            standard_cfg(Environment::preset(site), 5.0, 15_000 + seed)
        });
        let bps = stats.median_bitrate.max(1.0);
        let two_signal = aqua_proto::latency::exchange_latency_s(16, bps, overhead_s);
        let text = aqua_proto::latency::exchange_latency_s(400, bps, overhead_s);
        table.row(vec![
            format!("{site:?}"),
            format!("{bps:.0}"),
            format!("{two_signal:.2}"),
            format!("{text:.2}"),
            "~0.5 s per message".into(),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_bands_match_paper_bin_counts() {
        assert_eq!(FIXED_BANDS[0].1.len(), 60);
        assert_eq!(FIXED_BANDS[1].1.len(), 30);
        assert_eq!(FIXED_BANDS[2].1.len(), 10);
    }

    #[test]
    fn fig9_quick_produces_tables() {
        let report = fig9(RunSize::Quick);
        assert!(report.contains("Fig 9d"));
        assert!(report.contains("Bridge"));
        assert!(report.contains("Lake"));
    }
}
