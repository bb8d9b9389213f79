//! # aqua-eval
//!
//! Experiment harness that regenerates every figure of *Underwater
//! Messaging Using Mobile Devices* (SIGCOMM 2022) against the AquaModem
//! stack and the channel simulator. [`EXPERIMENTS`] is the experiment
//! index (DESIGN.md §5 mirrors it, test-pinned); EXPERIMENTS.md records
//! paper-vs-measured results.
//!
//! Run `cargo run -p aqua-eval --release --bin repro -- all standard` to
//! regenerate everything. Experiments fan their independent seeded trials
//! out over all cores through [`engine::ExperimentEngine`] with results
//! bit-identical to a serial run (DESIGN.md §8); `AQUA_PAR_THREADS=1`
//! forces the serial baseline. On one core a full `standard` regeneration
//! is minutes, not the tens of minutes of the pre-engine harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod characterization;
pub mod engine;
pub mod faults;
pub mod link_experiments;
pub mod network;
pub mod ocean;
pub mod recovery;
pub mod relay;
pub mod robustness;
pub mod runner;
pub mod table;
pub mod transfer;

pub use runner::RunSize;

/// One registered experiment: a row of `repro list`.
#[derive(Debug)]
pub struct Experiment {
    /// The name `repro` runs it by.
    pub name: &'static str,
    /// The paper figure or section it reproduces; `(ours)` marks the
    /// repo's own studies beyond the paper.
    pub paper_ref: &'static str,
    /// What it runs, restating the experiment function's doc comment.
    pub what: &'static str,
    /// Runs it at a size and returns its report.
    pub run: fn(RunSize) -> String,
}

/// Every experiment, in the order `repro all` runs them. The only source
/// for `repro <name>`, `repro all` and `repro list`; DESIGN.md §5 lists
/// the same rows in the same order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig3a",
        paper_ref: "Fig. 3a",
        what: "frequency responses of different device pairs at 5 m",
        run: |_| characterization::fig3a(),
    },
    Experiment {
        name: "fig3b",
        paper_ref: "Fig. 3b",
        what: "same S9 pair at different locations, 10 m: the notches move",
        run: |_| characterization::fig3b(),
    },
    Experiment {
        name: "fig3cd",
        paper_ref: "Fig. 3c,d",
        what: "channel reciprocity in air vs water (2 m, 1–3 kHz)",
        run: |_| characterization::fig3cd(),
    },
    Experiment {
        name: "fig4",
        paper_ref: "Fig. 4",
        what: "ambient noise across devices and locations",
        run: |_| characterization::fig4(),
    },
    Experiment {
        name: "fig8",
        paper_ref: "Fig. 8",
        what: "per-subcarrier BER vs SNR against the theoretical BPSK curve",
        run: link_experiments::fig8,
    },
    Experiment {
        name: "fig9",
        paper_ref: "Fig. 9",
        what: "bitrate CDFs and PER of adaptive vs fixed schemes at 5 m in \
               bridge/park/lake, plus the band pick",
        run: link_experiments::fig9,
    },
    Experiment {
        name: "fig10",
        paper_ref: "Fig. 10",
        what: "depth sweep at the museum (9 m water, 5 m horizontal)",
        run: link_experiments::fig10,
    },
    Experiment {
        name: "fig11",
        paper_ref: "Fig. 11",
        what: "deeper water (bay, 15 m deep, devices at 12 m, hard case)",
        run: link_experiments::fig11,
    },
    Experiment {
        name: "fig12",
        paper_ref: "Figs. 12a–c, 13",
        what: "range sweep in the lake (1 m depth, 5–30 m)",
        run: link_experiments::fig12,
    },
    Experiment {
        name: "fig12d",
        paper_ref: "Fig. 12d",
        what: "FSK beacon BER vs distance at 5/10/20 bps (beach, 1 m depth)",
        run: network::fig12d,
    },
    Experiment {
        name: "fig14",
        paper_ref: "Fig. 14",
        what: "mobility: PER, bitrate CDF and the differential-coding ablation",
        run: robustness::fig14,
    },
    Experiment {
        name: "fig15",
        paper_ref: "Fig. 15",
        what: "phone orientation (bridge, 5 m, azimuth 0..180°)",
        run: link_experiments::fig15,
    },
    Experiment {
        name: "fig16",
        paper_ref: "Fig. 16",
        what: "channel stability between the preamble and the data symbols, \
               static vs slow vs fast motion",
        run: robustness::fig16,
    },
    Experiment {
        name: "fig17",
        paper_ref: "Fig. 17",
        what: "OFDM subcarrier spacing (lake, 5 m and 20 m)",
        run: link_experiments::fig17,
    },
    Experiment {
        name: "fig18",
        paper_ref: "Fig. 18",
        what: "air in the waterproof case shifts the response but not the mean \
               1–4 kHz power",
        run: |_| characterization::fig18(),
    },
    Experiment {
        name: "fig19",
        paper_ref: "Fig. 19",
        what: "collision fraction with/without carrier sense for two- and \
               three-transmitter networks",
        run: network::fig19,
    },
    Experiment {
        name: "preamble",
        paper_ref: "§3 text",
        what: "preamble detection rate and feedback decode error rate at 5/10/20/30 m",
        run: robustness::preamble_and_feedback_stats,
    },
    Experiment {
        name: "detector",
        paper_ref: "(ours)",
        what: "§2.2.1 detector ablation: plain cross-correlation vs the two-stage \
               detector under impulsive noise",
        run: robustness::detector_ablation,
    },
    Experiment {
        name: "latency",
        paper_ref: "§5",
        what: "end-to-end latency of a hand-signal packet from the median bitrates \
               at 5 m",
        run: link_experiments::latency,
    },
    Experiment {
        name: "delayspread",
        paper_ref: "§2.3",
        what: "channel delay-spread survey backing the equalizer design",
        run: |_| characterization::delay_spread(),
    },
    Experiment {
        name: "ocean",
        paper_ref: "(ours)",
        what: "event-driven ocean-scale deployments: grid, swarm and fleet",
        run: ocean::ocean,
    },
    Experiment {
        name: "transfer",
        paper_ref: "(ours)",
        what: "goodput vs range for the bulk pipeline, RS outer code vs ARQ-only",
        run: transfer::transfer,
    },
    Experiment {
        name: "faults",
        paper_ref: "(ours)",
        what: "completion rate and goodput vs fault intensity, adaptive vs static",
        run: faults::faults,
    },
    Experiment {
        name: "relay",
        paper_ref: "(ours)",
        what: "multi-hop delivery over churned fleets, direct single-hop vs the \
               DTN relay stack",
        run: relay::relay,
    },
    Experiment {
        name: "recovery",
        paper_ref: "(ours)",
        what: "crash sweep of the relay stack, volatile vs durable custody",
        run: recovery::recovery,
    },
];

/// Looks up a registered experiment by its `repro` name.
pub fn experiment(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len());
    }

    #[test]
    fn unknown_experiment_is_rejected() {
        assert!(experiment("no-such-figure").is_none());
    }
}
