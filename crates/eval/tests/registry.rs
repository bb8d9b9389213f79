//! Harness-level tests: the experiment registry, its DESIGN.md §5 mirror
//! and summary statistics.

use aqua_eval::runner::{summarize, RunSize};
use aqua_eval::{experiment, EXPERIMENTS};
use aquapp::trial::TrialResult;

fn trial(packet_ok: bool, detected: bool, bitrate: f64) -> TrialResult {
    TrialResult {
        preamble_detected: detected,
        id_ok: detected,
        channel: None,
        band: detected.then(|| aqua_phy::bandselect::Band::new(0, 9)),
        feedback_ok: detected,
        bits: packet_ok.then(std::vec::Vec::new),
        packet_ok,
        // an undetected preamble never transmits data
        data_phase: detected,
        coded_ber: if packet_ok { 0.0 } else { 0.5 },
        coded_bitrate_bps: bitrate,
    }
}

#[test]
fn summarize_computes_per_and_medians() {
    let stats = summarize(vec![
        trial(true, true, 600.0),
        trial(true, true, 1000.0),
        trial(false, true, 200.0),
        trial(false, false, 0.0),
    ]);
    assert!((stats.per - 0.5).abs() < 1e-12);
    assert!((stats.detection_rate - 0.75).abs() < 1e-12);
    // median over the three detected packets' bitrates (600, 1000, 200)
    assert!((stats.median_bitrate - 600.0).abs() < 1e-9);
    // coded BER averages the three data-phase trials (0, 0, 0.5) — the
    // undetected packet carries no coded bits and is excluded
    assert!((stats.coded_ber - 0.5 / 3.0).abs() < 1e-12);
}

#[test]
fn summarize_handles_empty_input() {
    let stats = summarize(Vec::new());
    assert_eq!(stats.median_bitrate, 0.0);
    assert_eq!(stats.bitrates.len(), 0);
}

#[test]
fn registry_rejects_unknown_names() {
    assert!(experiment("fig99").is_none());
    assert!(experiment("").is_none());
}

#[test]
fn registry_lists_every_paper_figure() {
    for required in [
        "fig3a", "fig3b", "fig3cd", "fig4", "fig8", "fig9", "fig10", "fig11", "fig12", "fig12d",
        "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "preamble", "transfer",
    ] {
        assert!(
            experiment(required).is_some(),
            "missing paper experiment {required}"
        );
    }
}

#[test]
fn cheap_experiments_run_and_produce_tables() {
    // the characterization experiments have no packet loops — they must be
    // fast enough to smoke-test here
    for name in ["fig3a", "fig3b", "fig3cd", "fig18", "delayspread"] {
        let report = (experiment(name).expect(name).run)(RunSize::Quick);
        assert!(report.contains('|'), "{name} produced no table:\n{report}");
        assert!(report.lines().count() >= 4, "{name} table too small");
    }
}

/// The rows of DESIGN.md §5's index table as [paper ref, name, what].
fn design_index_rows() -> Vec<[&'static str; 3]> {
    let design = include_str!("../../../DESIGN.md");
    let section = design
        .split("\n## §5 ")
        .nth(1)
        .expect("DESIGN.md has a §5")
        .split("\n## ")
        .next()
        .unwrap();
    section
        .lines()
        .filter(|line| line.starts_with('|'))
        .skip(2) // header and separator
        .map(|line| {
            let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
            assert_eq!(cells.len(), 4, "malformed §5 row: {line}");
            [cells[0], cells[1].trim_matches('`'), cells[2]]
        })
        .collect()
}

#[test]
fn design_index_matches_registry() {
    let doc = design_index_rows();
    for (row, e) in doc.iter().zip(EXPERIMENTS) {
        assert_eq!(
            *row,
            [e.paper_ref, e.name, e.what],
            "DESIGN.md §5 must repeat the registry's rows in its order"
        );
    }
    assert_eq!(
        doc.len(),
        EXPERIMENTS.len(),
        "DESIGN.md §5 and the registry list different numbers of experiments"
    );
}
