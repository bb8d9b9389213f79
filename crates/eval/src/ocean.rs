//! The `ocean` experiment: event-driven ocean-scale deployments.
//!
//! The ROADMAP's north star — thousands of acoustically-messaging nodes
//! over hours of simulated time — run through
//! [`aqua_mac::ocean::run_ocean`]. Three deployment families (regular
//! grid, clustered swarm, boats-with-divers fleet) share the standard
//! sensor-report traffic model (uniform 2–8 min inter-packet gap,
//! carrier sense on) and the calibrated Lake range-gain fit. Sizes:
//!
//! | size     | nodes  | simulated |
//! |----------|--------|-----------|
//! | quick    | 150    | 30 min    |
//! | standard | 2 000  | 4 h       |
//! | full     | 10 000 | 24 h      |
//!
//! The second table reports the bounded-memory witnesses (peak pending
//! events in the "peak heap" column, peak collision-window length,
//! sample-level probe renders) and event throughput — the numbers
//! EXPERIMENTS.md records. The quick size runs in `ci.sh`'s one `repro
//! all quick` gate.

use crate::runner::RunSize;
use crate::table::{pct, Table};
use aqua_mac::ocean::{run_ocean, OceanConfig, TopologyKind};
use aqua_par::Pool;
use std::time::Instant;

/// Node count and simulated seconds for a run size.
pub fn scale(size: RunSize) -> (usize, f64) {
    match size {
        RunSize::Quick => (150, 1800.0),
        RunSize::Standard => (2000, 14_400.0),
        RunSize::Full => (10_000, 86_400.0),
    }
}

/// Runs the three deployment families at the given size.
pub fn ocean(size: RunSize) -> String {
    let (nodes, sim_s) = scale(size);
    let pool = Pool::from_env();
    let mut results = Table::new(
        &format!(
            "Ocean deployments — {nodes} nodes, {:.1} h simulated (event-driven, seed 42)",
            sim_s / 3600.0
        ),
        &[
            "topology",
            "deg",
            "tx",
            "delivery",
            "collisions",
            "overlap rx",
            "p50 lat",
            "p90 lat",
            "fairness",
        ],
    );
    let mut witness = Table::new(
        "Memory bounds and throughput (peaks are whole-run maxima)",
        &[
            "topology",
            "events",
            "peak heap",
            "peak cw",
            "probe renders",
            "events/s",
        ],
    );
    for kind in [TopologyKind::Grid, TopologyKind::Swarm, TopologyKind::Fleet] {
        let cfg = OceanConfig::deployment(kind, nodes, sim_s, 42);
        let wall = Instant::now();
        let r = run_ocean(&cfg, &pool);
        let wall_s = wall.elapsed().as_secs_f64().max(1e-9);
        results.row(vec![
            kind.name().to_string(),
            format!("{:.1}", r.mean_degree),
            r.transmissions.to_string(),
            pct(r.delivery_rate),
            pct(r.collision_fraction),
            r.overlap_receptions.to_string(),
            format!("{:.1} s", r.latency_p50_s),
            format!("{:.1} s", r.latency_p90_s),
            format!("{:.3}", r.fairness),
        ]);
        witness.row(vec![
            kind.name().to_string(),
            r.events.to_string(),
            r.peak_heap.to_string(),
            r.peak_collision_window.to_string(),
            r.probe_renders.to_string(),
            format!("{:.0}", r.events as f64 / wall_s),
        ]);
    }
    format!("{}\n{}", results.render(), witness.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        let (qn, qs) = scale(RunSize::Quick);
        let (sn, ss) = scale(RunSize::Standard);
        let (fn_, fs) = scale(RunSize::Full);
        assert!(qn < sn && sn < fn_);
        assert!(qs < ss && ss < fs);
        assert_eq!((fn_, fs), (10_000, 86_400.0));
    }
}
