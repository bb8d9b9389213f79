//! Shared experiment plumbing: packet series, summaries, link sounding.

use aqua_channel::environments::Environment;
use aqua_channel::geometry::Pos;
use aqua_channel::link::{Link, LinkConfig, SAMPLE_RATE};
use aqua_dsp::stats::median;
use aquapp::trial::{TrialConfig, TrialResult};

/// Global run-size knob: `quick` shrinks packet counts for smoke tests and
/// benches; `full` approximates the paper's 100-packet runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunSize {
    /// A handful of packets — CI-friendly.
    Quick,
    /// The default for the repro binary (~40 packets/config).
    Standard,
    /// The paper's scale (100 packets/config).
    Full,
}

impl RunSize {
    /// Packets per configuration.
    pub fn packets(self) -> usize {
        match self {
            RunSize::Quick => 8,
            RunSize::Standard => 40,
            RunSize::Full => 100,
        }
    }

    /// Parses from a CLI word.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "quick" => Some(RunSize::Quick),
            "standard" => Some(RunSize::Standard),
            "full" => Some(RunSize::Full),
            _ => None,
        }
    }
}

/// Aggregate statistics over a packet series.
///
/// Denominators differ by metric, deliberately:
///
/// - **PER** counts *every* trial — an undetected preamble, a lost
///   feedback symbol or a payload bit error all cost the packet (the
///   paper's criterion).
/// - **Coded BER** averages only over trials that *reached the data
///   phase* (Alice actually transmitted data symbols,
///   [`TrialResult::data_phase`]). A trial that died earlier carries no
///   coded bits; folding its 0.5 placeholder into the mean would
///   double-count protocol failures that PER already measures.
/// - **Bitrates** cover data-phase trials too (what the paper's CDFs
///   plot: rates of packets whose data section was actually sent) — a
///   feedback-lost trial carries a selected band but a meaningless
///   0.0 bps placeholder that would otherwise drag the CDF.
#[derive(Debug, Clone)]
pub struct SeriesStats {
    /// All trial results.
    pub trials: Vec<TrialResult>,
    /// Packet error rate (the paper's criterion: any payload bit error, or
    /// any earlier protocol failure, marks the packet erroneous).
    pub per: f64,
    /// Mean BER over the coded bits of packets that reached the data
    /// phase (0.0 when no trial did).
    pub coded_ber: f64,
    /// Median coded bitrate over packets that reached the data phase.
    pub median_bitrate: f64,
    /// All selected coded bitrates (for CDFs).
    pub bitrates: Vec<f64>,
    /// Preamble detection rate.
    pub detection_rate: f64,
}

/// Runs `n` packet exchanges built by `make` (seed varies per packet) on
/// the parallel engine. Results are bit-identical to the serial
/// `(0..n).map(run_trial)` — see DESIGN.md §8 for the determinism
/// contract.
pub fn packet_series(n: usize, make: impl Fn(u64) -> TrialConfig + Sync) -> SeriesStats {
    summarize(crate::engine::global().trial_series(n, make))
}

/// Summarizes a set of trials. See [`SeriesStats`] for the per-metric
/// denominators.
pub fn summarize(trials: Vec<TrialResult>) -> SeriesStats {
    let n = trials.len().max(1);
    let per = trials.iter().filter(|t| !t.packet_ok).count() as f64 / n as f64;
    let data_phase = trials.iter().filter(|t| t.data_phase).count();
    let coded_ber = if data_phase == 0 {
        0.0
    } else {
        trials
            .iter()
            .filter(|t| t.data_phase)
            .map(|t| t.coded_ber)
            .sum::<f64>()
            / data_phase as f64
    };
    let bitrates: Vec<f64> = trials
        .iter()
        .filter(|t| t.data_phase)
        .map(|t| t.coded_bitrate_bps)
        .collect();
    let median_bitrate = if bitrates.is_empty() {
        0.0
    } else {
        median(&bitrates)
    };
    let detection_rate = trials.iter().filter(|t| t.preamble_detected).count() as f64 / n as f64;
    SeriesStats {
        trials,
        per,
        coded_ber,
        median_bitrate,
        bitrates,
        detection_rate,
    }
}

/// Builds a noiseless sounding link between two S9s for characterization
/// figures.
pub fn sounding_link(env: Environment, tx: Pos, rx: Pos, seed: u64) -> Link {
    let mut cfg = LinkConfig::s9_pair(env, tx, rx, seed);
    cfg.noise = false;
    Link::new(cfg)
}

/// The usable-band frequency grid (1–4 kHz at 50 Hz).
pub fn band_freqs() -> Vec<f64> {
    (20..80).map(|k| k as f64 * 50.0).collect()
}

/// Standard sample rate re-export for binaries.
pub const FS: f64 = SAMPLE_RATE;

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_channel::environments::Site;

    #[test]
    fn quick_series_produces_stats() {
        let stats = packet_series(3, |seed| {
            TrialConfig::standard(
                Environment::preset(Site::Bridge),
                Pos::new(0.0, 0.0, 1.0),
                Pos::new(5.0, 0.0, 1.0),
                1000 + seed,
            )
        });
        assert_eq!(stats.trials.len(), 3);
        assert!(stats.detection_rate > 0.5);
        assert!(stats.median_bitrate > 0.0);
    }

    #[test]
    fn coded_ber_averages_over_data_phase_trials_only() {
        // One clean data-phase trial (BER 0) plus one pre-data failure
        // (0.5 placeholder): the mean must ignore the placeholder, while
        // PER still counts both packets.
        let good = packet_series(1, |seed| {
            TrialConfig::standard(
                Environment::preset(Site::Bridge),
                Pos::new(0.0, 0.0, 1.0),
                Pos::new(5.0, 0.0, 1.0),
                42 + seed,
            )
        });
        assert_eq!(good.trials.len(), 1);
        assert!(good.trials[0].data_phase, "5 m bridge trial reaches data");
        let mut trials = good.trials.clone();
        trials.push(aquapp::trial::TrialResult {
            data_phase: false,
            ..trials[0].clone()
        });
        trials[1].packet_ok = false;
        trials[1].coded_ber = 0.5;
        let stats = summarize(trials);
        assert_eq!(stats.per, 0.5, "PER counts every trial");
        assert_eq!(
            stats.coded_ber, good.trials[0].coded_ber,
            "coded BER ignores the non-data-phase placeholder"
        );
        // no data-phase trial at all: defined as 0.0, not a placeholder
        let mut none = good.trials.clone();
        none[0].data_phase = false;
        assert_eq!(summarize(none).coded_ber, 0.0);
    }

    #[test]
    fn run_size_parsing() {
        assert_eq!(RunSize::parse("quick"), Some(RunSize::Quick));
        assert_eq!(RunSize::parse("full"), Some(RunSize::Full));
        assert_eq!(RunSize::parse("bogus"), None);
        assert!(RunSize::Full.packets() > RunSize::Quick.packets());
    }
}
