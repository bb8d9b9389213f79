//! Characterization experiments: Fig. 3 (frequency selectivity and
//! reciprocity), Fig. 4 (ambient noise) and Fig. 18 (air in the case).

use crate::runner::{band_freqs, sounding_link, FS};
use crate::table::Table;
use aqua_channel::device::{CaseKind, Device, DeviceModel};
use aqua_channel::environments::{Environment, Site};
use aqua_channel::geometry::Pos;
use aqua_channel::link::{Link, LinkConfig};
use aqua_channel::noise::NoiseGenerator;
use aqua_dsp::spectrum::welch_psd;
use aqua_dsp::window::Window;

/// Fig. 3a: frequency responses of different device pairs at 5 m.
pub fn fig3a() -> String {
    let mut table = Table::new(
        "Fig 3a — frequency selectivity across device pairs (lake, 5 m, 1-5 kHz chirp)",
        &["pair", "mean dB (1-4k)", "swing dB", "mean dB (4-5k)"],
    );
    let pairs = [
        ("S9 -> S9", DeviceModel::GalaxyS9),
        ("S9 -> Pixel 4", DeviceModel::Pixel4),
        ("S9 -> OnePlus 8 Pro", DeviceModel::OnePlus8Pro),
        ("S9 -> Watch 4", DeviceModel::GalaxyWatch4),
    ];
    let rows = crate::engine::global().par_map_slice(&pairs, |&(name, model)| {
        let mut cfg = LinkConfig::s9_pair(
            Environment::preset(Site::Lake),
            Pos::new(0.0, 0.0, 1.0),
            Pos::new(5.0, 0.0, 1.0),
            3,
        );
        cfg.rx_device = Device::new(model, CaseKind::SoftPouch, 11);
        cfg.noise = false;
        let mut link = Link::new(cfg);
        let freqs: Vec<f64> = (20..100).map(|k| k as f64 * 50.0).collect(); // 1-5 kHz
        let resp = link.frequency_response_db(&freqs, 0.0);
        let in_band: Vec<f64> = resp[..60].to_vec();
        let above: Vec<f64> = resp[60..].to_vec();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let swing = in_band.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - in_band.iter().cloned().fold(f64::INFINITY, f64::min);
        vec![
            name.to_string(),
            format!("{:.1}", mean(&in_band)),
            format!("{:.1}", swing),
            format!("{:.1}", mean(&above)),
        ]
    });
    for row in rows {
        table.row(row);
    }
    table.render()
}

/// Fig. 3b: same pair (S9↔S9), different locations at 10 m — notches move.
pub fn fig3b() -> String {
    let mut table = Table::new(
        "Fig 3b — S9<->S9 responses across locations (10 m): deepest notch moves",
        &[
            "location",
            "deepest-notch freq (Hz)",
            "notch depth dB vs mean",
            "swing dB",
        ],
    );
    let sites = [Site::Bridge, Site::Park, Site::Lake, Site::Museum];
    let rows = crate::engine::global().par_map_slice(&sites, |&site| {
        let mut link = sounding_link(
            Environment::preset(site),
            Pos::new(0.0, 0.0, 1.0),
            Pos::new(10.0, 0.0, 1.0),
            9,
        );
        let freqs = band_freqs();
        let resp = link.frequency_response_db(&freqs, 0.0);
        let mean = resp.iter().sum::<f64>() / resp.len() as f64;
        let (imin, min) = resp
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, &v)| (i, v))
            .unwrap();
        let swing = resp.iter().cloned().fold(f64::NEG_INFINITY, f64::max) - min;
        vec![
            format!("{site:?}"),
            format!("{:.0}", freqs[imin]),
            format!("{:.1}", min - mean),
            format!("{:.1}", swing),
        ]
    });
    for row in rows {
        table.row(row);
    }
    table.render()
}

/// Mean absolute forward/backward response difference for a medium.
fn reciprocity_gap(site: Site) -> f64 {
    let env = Environment::preset(site);
    let a = Pos::new(0.0, 0.0, 1.0);
    let b = Pos::new(2.0, 0.0, 1.0);
    let mut cfg_f = LinkConfig::s9_pair(env.clone(), a, b, 5);
    cfg_f.noise = false;
    let mut cfg_b = LinkConfig::s9_pair(env, b, a, 5);
    cfg_b.noise = false;
    std::mem::swap(&mut cfg_b.tx_device, &mut cfg_b.rx_device);
    let mut fwd = Link::new(cfg_f);
    let mut back = Link::new(cfg_b);
    let freqs: Vec<f64> = (20..60).map(|k| k as f64 * 50.0).collect(); // 1-3 kHz as in paper
    let rf = fwd.frequency_response_db(&freqs, 0.0);
    let rb = back.frequency_response_db(&freqs, 0.0);
    rf.iter().zip(&rb).map(|(x, y)| (x - y).abs()).sum::<f64>() / rf.len() as f64
}

/// Fig. 3c,d: channel reciprocity in air vs water (2 m, 1–3 kHz).
pub fn fig3cd() -> String {
    let air = reciprocity_gap(Site::Air);
    let water = reciprocity_gap(Site::Lake);
    let mut table = Table::new(
        "Fig 3c,d — forward/backward response difference (2 m, 1-3 kHz)",
        &["medium", "mean |fwd - back| dB", "paper"],
    );
    table.row(vec![
        "air".into(),
        format!("{air:.2}"),
        "similar curves".into(),
    ]);
    table.row(vec![
        "water".into(),
        format!("{water:.2}"),
        "differs significantly".into(),
    ]);
    table.render()
}

/// Fig. 4: ambient noise across devices (a) and locations (b).
pub fn fig4() -> String {
    let mut out = String::new();
    let probe_freqs = [250.0, 500.0, 1000.0, 2000.0, 3000.0, 4500.0, 6000.0];

    let mut t_dev = Table::new(
        "Fig 4a — ambient noise across devices (same location, normalized dB)",
        &["device", "250", "500", "1k", "2k", "3k", "4.5k", "6k"],
    );
    // One 5-second PSD estimate per device row, fanned out.
    let dev_rows = crate::engine::global().par_map(DeviceModel::ALL.len(), |i| {
        let model = DeviceModel::ALL[i];
        // per-device mic coloration: seed the generator differently per model
        let env = Environment::preset(Site::Lake);
        let mut gen = NoiseGenerator::new(env.noise.clone(), FS, 0x40 + i as u64);
        let rec = gen.generate((5.0 * FS) as usize);
        let psd = welch_psd(&rec, 2048, FS, Window::Hann);
        let norm = psd.normalized_db();
        let mut row = vec![format!("{model:?}")];
        for &f in &probe_freqs {
            let k = (f / (FS / 2048.0)).round() as usize;
            row.push(format!("{:.0}", norm[k.min(norm.len() - 1)]));
        }
        row
    });
    for row in dev_rows {
        t_dev.row(row);
    }
    out.push_str(&t_dev.render());

    let mut t_loc = Table::new(
        "Fig 4b — ambient noise across locations (S9, absolute dB re full scale)",
        &[
            "location",
            "in-band (1-4k) dB",
            "below 1k dB",
            "spread vs bridge dB",
        ],
    );
    let sites = [
        Site::Bridge,
        Site::Park,
        Site::Beach,
        Site::Museum,
        Site::Lake,
    ];
    let levels: Vec<(Site, f64, f64)> = crate::engine::global().par_map_slice(&sites, |&site| {
        let env = Environment::preset(site);
        let mut gen = NoiseGenerator::new(env.noise.clone(), FS, 7);
        let rec = gen.generate((5.0 * FS) as usize);
        let psd = welch_psd(&rec, 2048, FS, Window::Hann);
        (
            site,
            psd.mean_db_in_band(1000.0, 4000.0),
            psd.mean_db_in_band(100.0, 1000.0),
        )
    });
    let bridge_level = levels[0].1;
    for (site, in_band, low) in levels {
        t_loc.row(vec![
            format!("{site:?}"),
            format!("{in_band:.1}"),
            format!("{low:.1}"),
            format!("{:.1}", in_band - bridge_level),
        ]);
    }
    out.push_str(&t_loc.render());
    out
}

/// Fig. 18: air in the waterproof case shifts the response but not the
/// mean 1–4 kHz power.
pub fn fig18() -> String {
    let freqs = band_freqs();
    let resp = |air: bool| -> Vec<f64> {
        let mut cfg = LinkConfig::s9_pair(
            Environment::preset(Site::Bridge),
            Pos::new(0.0, 0.0, 1.0),
            Pos::new(5.0, 0.0, 1.0),
            21,
        );
        cfg.noise = false;
        cfg.tx_device.air_in_case = air;
        cfg.rx_device.air_in_case = air;
        Link::new(cfg).frequency_response_db(&freqs, 0.0)
    };
    let without = resp(false);
    let with = resp(true);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let max_diff = without
        .iter()
        .zip(&with)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    let mut table = Table::new(
        "Fig 18 — air in waterproof case (5 m)",
        &["config", "mean 1-4 kHz dB", "max pointwise diff dB"],
    );
    table.row(vec![
        "air expelled".into(),
        format!("{:.2}", mean(&without)),
        String::new(),
    ]);
    table.row(vec![
        "air-filled".into(),
        format!("{:.2}", mean(&with)),
        format!("{max_diff:.1}"),
    ]);
    table.render()
}

/// Channel delay-spread survey: the quantitative backing for the §2.3
/// equalizer design (delay spread ≫ 67-sample CP at reflector-rich sites,
/// which is why the receiver shortens the channel with a 480-tap MMSE FIR
/// instead of paying a longer CP on every symbol).
pub fn delay_spread() -> String {
    let mut table = Table::new(
        "Channel delay spread at 10 m (RMS, vs the 1.40 ms cyclic prefix)",
        &["site", "RMS delay spread (ms)", "x CP", "equalizer needed?"],
    );
    let cp_s = 67.0 / 48_000.0;
    let rows = crate::engine::global().par_map_slice(&Site::UNDERWATER, |&site| {
        let mut cfg = LinkConfig::s9_pair(
            Environment::preset(site),
            Pos::new(0.0, 0.0, 1.0),
            Pos::new(10.0, 0.0, 1.0),
            3,
        );
        cfg.noise = false;
        let mut link = Link::new(cfg);
        let spread = link.rms_delay_spread_s(0.0);
        vec![
            format!("{site:?}"),
            format!("{:.2}", spread * 1e3),
            format!("{:.1}", spread / cp_s),
            if spread > cp_s { "yes" } else { "CP suffices" }.to_string(),
        ]
    });
    for row in rows {
        table.row(row);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3a_reports_all_pairs() {
        let report = fig3a();
        assert!(report.contains("Watch 4"));
        assert!(report.contains("OnePlus"));
    }

    #[test]
    fn fig3cd_water_less_reciprocal_than_air() {
        let (air, water) = (reciprocity_gap(Site::Air), reciprocity_gap(Site::Lake));
        assert!(water > air, "water {water} vs air {air}");
    }

    #[test]
    fn fig18_mean_power_is_preserved() {
        let report = fig18();
        // parse the two mean values back out of the table
        let means: Vec<f64> = report
            .lines()
            .filter(|l| l.contains("air"))
            .filter_map(|l| {
                l.split('|')
                    .nth(2)
                    .and_then(|c| c.trim().parse::<f64>().ok())
            })
            .collect();
        assert_eq!(means.len(), 2, "{report}");
        assert!((means[0] - means[1]).abs() < 1.5, "{report}");
    }
}
