//! The `relay` experiment: delay-tolerant multi-hop delivery over
//! churned fleets, direct single-hop vs the DTN relay stack.
//!
//! A grid deployment offers a fixed set of messages at `t = 0`, each
//! destination placed ~85 m diagonally from its source — past the ~60 m
//! wall where the recorded PER curves reach 1.0, so **single-hop
//! delivery is physically impossible**, but within a few 20 m grid hops
//! of relays that can carry it. The run measures what fraction arrives
//! — and how late — as churn intensity rises from an always-on fleet to
//! heavy outages (short MTBF, deep duty cycling). Each intensity runs
//! twice over identical geometry, traffic and seed:
//!
//! - **direct**: the source transmits straight at the destination until
//!   TTL, no relaying — the paper's single-hop reality.
//! - **dtn**: the full `aqua-net` stack — custody transfer,
//!   store-and-forward queues, spray-and-wait ([`aqua_net::run_relay_ocean`]).
//!
//! Sizes:
//!
//! | size     | nodes | simulated | flows |
//! |----------|-------|-----------|-------|
//! | quick    | 60    | 3 h       | 6     |
//! | standard | 2 000 | 4 h       | 200   |
//! | full     | 5 000 | 8 h       | 500   |
//!
//! EXPERIMENTS.md records the quick/standard tables; the quick size runs
//! in `ci.sh`'s one `repro all quick` gate.

use crate::runner::RunSize;
use crate::table::{pct, Table};
use aqua_mac::ocean::{ChurnConfig, TopologyKind};
use aqua_net::sim::RelayTopology;
use aqua_net::{run_relay_ocean, RelayOceanConfig};
use aqua_par::Pool;

/// Node count, simulated seconds and flow count for a run size.
pub fn scale(size: RunSize) -> (usize, f64, usize) {
    match size {
        RunSize::Quick => (60, 10_800.0, 6),
        RunSize::Standard => (2000, 14_400.0, 200),
        RunSize::Full => (5000, 28_800.0, 500),
    }
}

/// Churn intensities swept by the experiment, mildest first.
fn intensities() -> [(&'static str, ChurnConfig); 3] {
    [
        ("none", ChurnConfig::none()),
        (
            "moderate",
            ChurnConfig {
                mtbf_s: 600.0,
                mttr_s: 120.0,
                duty_cycle: 0.9,
                duty_period_s: 60.0,
            },
        ),
        (
            "heavy",
            ChurnConfig {
                mtbf_s: 200.0,
                mttr_s: 90.0,
                duty_cycle: 0.7,
                duty_period_s: 45.0,
            },
        ),
    ]
}

/// Deterministic multi-hop flows on the grid: each destination sits
/// three rows and three columns diagonally from its source — ~85 m on
/// the 20 m pitch, past the 60 m wall where the PER curves hit 1.0, so
/// every pair is undeliverable single-hop but a few relay hops away.
fn flows(nodes: usize, count: usize) -> Vec<(u16, u16)> {
    let cols = (nodes as f64).sqrt().ceil() as usize;
    let mut pairs = Vec::with_capacity(count);
    let mut k = 0usize;
    while pairs.len() < count {
        let src = (k * 13 + 1) % nodes;
        k += 1;
        let (row, col) = (src / cols, src % cols);
        let (dst_row, dst_col) = if col + 3 < cols && (row + 3) * cols + col + 3 < nodes {
            (row + 3, col + 3)
        } else if row >= 3 && col >= 3 {
            (row - 3, col - 3)
        } else {
            continue;
        };
        pairs.push((src as u16, (dst_row * cols + dst_col) as u16));
    }
    pairs
}

/// The seed-42 grid deployment that `relay` and `recovery` share, tuned
/// for sparse acoustic grids and offering `flows` at `t = 0`. Callers
/// set their own outage schedule and TTL.
pub(crate) fn grid_config(nodes: usize, sim_s: f64, flow_count: usize) -> RelayOceanConfig {
    let mut cfg =
        RelayOceanConfig::deployment(RelayTopology::Kind(TopologyKind::Grid), nodes, sim_s, 42);
    // The deployment default (10–30 s gaps) saturates a 60-node acoustic
    // neighborhood (~0.55 s per frame); back off to keep collision losses
    // survivable.
    cfg.mac.inter_packet_gap_s = (60.0, 180.0);
    // Static grids diffuse copies ~log2(spray_copies) hops from the
    // source, round-robin beacons revisit a given neighbor only every
    // |candidates| transmit opportunities, and at ~40 % per-frame
    // delivery a custody handoff round-trip needs several tries — budget
    // copies, freshness, retry cadence and hop count for all of that.
    cfg.relay.spray_copies = 16;
    cfg.relay.neighbor_expiry_s = 1800.0;
    cfg.relay.min_rto_s = 120.0;
    cfg.relay.max_rto_s = 480.0;
    cfg.relay.focus_after_s = 180.0;
    cfg.relay.max_hops = 64;
    cfg.traffic.pairs = flows(nodes, flow_count);
    cfg
}

/// Runs the churn sweep, direct vs DTN, on identical geometry and seed.
pub fn relay(size: RunSize) -> String {
    let (nodes, sim_s, flow_count) = scale(size);
    let pool = Pool::from_env();
    let mut results = Table::new(
        &format!(
            "Relay delivery vs churn — {nodes}-node grid, {:.1} h simulated, \
             {flow_count} flows offered at t=0 (seed 42)",
            sim_s / 3600.0
        ),
        &[
            "churn",
            "mode",
            "downtime",
            "delivered",
            "ratio",
            "p50 lat",
            "p90 lat",
            "custody",
            "retries",
            "dup rx",
        ],
    );
    for (label, churn) in intensities() {
        for direct in [true, false] {
            let mut cfg = grid_config(nodes, sim_s, flow_count);
            cfg.churn = churn;
            cfg.relay.direct = direct;
            cfg.traffic.ttl_s = sim_s.min(f64::from(u16::MAX)) as u16;
            let r = run_relay_ocean(&cfg, &pool);
            results.row(vec![
                label.to_string(),
                if direct { "direct" } else { "dtn" }.to_string(),
                pct(r.downtime_frac),
                format!("{}/{}", r.msgs_delivered, r.msgs_offered),
                pct(r.delivery_ratio),
                format!("{:.0} s", r.latency_p50_s),
                format!("{:.0} s", r.latency_p90_s),
                r.relay.custody_transfers.to_string(),
                r.relay.custody_retries.to_string(),
                r.relay.dup_suppressed.to_string(),
            ]);
            assert_eq!(
                r.payload_mismatches, 0,
                "delivered payloads must be bit-exact"
            );
        }
    }
    results.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered_and_flows_are_valid() {
        let (qn, qs, qf) = scale(RunSize::Quick);
        let (sn, ss, sf) = scale(RunSize::Standard);
        assert!(qn < sn && qs < ss && qf < sf);
        for (src, dst) in flows(qn, qf) {
            assert_ne!(src, dst);
            assert!((src as usize) < qn && (dst as usize) < qn);
        }
    }
}
