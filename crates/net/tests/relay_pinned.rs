//! Pinned relay-simulator outcomes (DESIGN.md §14–§15): four runs of
//! `run_relay_ocean` covering the relay fleet's modes — the churned
//! 49-node grid of the determinism suite, the same grid with crash churn
//! and durable journals, the same grid in direct (single-hop) mode, and
//! an audited crash run on a 5-node line. Every `RelayOceanResult` field
//! is compared against a capture, floats by bit pattern, and the audited
//! run's `FleetAudit` is pinned too (delivery order, reboots, held,
//! reassembly and delivered sets). `relay_determinism.rs` only compares
//! pool sizes with each other; this file fails on any change that moves
//! every run the same way — a seed, a flush point, the churn gate, the
//! fold order or a counter.

use aqua_channel::geometry::Pos;
use aqua_mac::ocean::{ChurnConfig, TopologyKind};
use aqua_net::sim::{
    run_relay_ocean, run_relay_ocean_audit, RelayOceanConfig, RelayOceanResult, RelayTopology,
};
use aqua_net::{BundleKey, JournalConfig, RelayStats};
use aqua_par::Pool;
use std::collections::{BTreeMap, BTreeSet};

/// The churned 49-node grid of `relay_determinism.rs`.
fn churned_grid() -> RelayOceanConfig {
    let mut cfg =
        RelayOceanConfig::deployment(RelayTopology::Kind(TopologyKind::Grid), 49, 1800.0, 5);
    cfg.batch = 8;
    cfg.churn = ChurnConfig {
        mtbf_s: 200.0,
        mttr_s: 90.0,
        duty_cycle: 0.8,
        duty_period_s: 45.0,
    };
    cfg.relay.min_rto_s = 30.0;
    cfg.relay.max_rto_s = 120.0;
    cfg.relay.focus_after_s = 120.0;
    cfg.traffic.pairs = vec![(0, 48), (3, 45), (21, 27), (7, 42)];
    cfg.traffic.payload_bytes = 96;
    cfg
}

/// Compares every field, then every float field by bit pattern (so
/// `-0.0` vs `0.0` cannot pass as equal).
fn assert_pinned(got: &RelayOceanResult, want: &RelayOceanResult) {
    assert_eq!(got, want);
    for (g, w) in [
        (got.duration_s, want.duration_s),
        (got.downtime_frac, want.downtime_frac),
        (got.delivery_ratio, want.delivery_ratio),
        (got.latency_mean_s, want.latency_mean_s),
        (got.latency_p50_s, want.latency_p50_s),
        (got.latency_p90_s, want.latency_p90_s),
    ] {
        assert_eq!(g.to_bits(), w.to_bits(), "{g} vs {w}");
    }
}

#[test]
fn churned_grid_is_pinned() {
    let r = run_relay_ocean(&churned_grid(), &Pool::new(1));
    assert_pinned(
        &r,
        &RelayOceanResult {
            nodes: 49,
            duration_s: 1800.0,
            transmissions: 2971,
            receptions: 2971,
            frames_delivered: 207,
            churn_losses: 1352,
            downtime_frac: 0.44080090702947844,
            msgs_offered: 4,
            msgs_delivered: 0,
            delivery_ratio: 0.0,
            payload_mismatches: 0,
            latency_mean_s: 0.0,
            latency_p50_s: 0.0,
            latency_p90_s: 0.0,
            relay: RelayStats {
                sourced: 12,
                beacons: 2903,
                forwards: 60,
                custody_accepted: 6,
                custody_transfers: 1,
                custody_retries: 47,
                dup_suppressed: 2,
                dup_acks: 2,
                cured_acks: 0,
                stale_acks: 0,
                evictions_ttl: 0,
                evictions_cap: 0,
                queue_rejects: 0,
                hop_drops: 0,
                delivered_msgs: 0,
            },
            reboots: 0,
            dup_deliveries: 0,
            journal_bytes: 0,
            journal_syncs: 0,
            journal_compactions: 0,
            journal_replayed: 0,
            events: 13098,
            peak_heap: 55,
        },
    );
}

#[test]
fn crashing_journaled_grid_is_pinned() {
    let mut cfg = churned_grid();
    cfg.crash = ChurnConfig {
        mtbf_s: 400.0,
        mttr_s: 120.0,
        duty_cycle: 1.0,
        duty_period_s: 0.0,
    };
    cfg.journal = Some(JournalConfig::default());
    let r = run_relay_ocean(&cfg, &Pool::new(1));
    assert_pinned(
        &r,
        &RelayOceanResult {
            nodes: 49,
            duration_s: 1800.0,
            transmissions: 2313,
            receptions: 2313,
            frames_delivered: 180,
            churn_losses: 1329,
            downtime_frac: 0.57020589569161,
            msgs_offered: 4,
            msgs_delivered: 0,
            delivery_ratio: 0.0,
            payload_mismatches: 0,
            latency_mean_s: 0.0,
            latency_p50_s: 0.0,
            latency_p90_s: 0.0,
            relay: RelayStats {
                sourced: 12,
                beacons: 2226,
                forwards: 78,
                custody_accepted: 10,
                custody_transfers: 2,
                custody_retries: 45,
                dup_suppressed: 0,
                dup_acks: 0,
                cured_acks: 0,
                stale_acks: 0,
                evictions_ttl: 0,
                evictions_cap: 0,
                queue_rejects: 0,
                hop_drops: 0,
                delivered_msgs: 0,
            },
            reboots: 167,
            dup_deliveries: 0,
            journal_bytes: 1520,
            journal_syncs: 13,
            journal_compactions: 0,
            journal_replayed: 55,
            events: 9268,
            peak_heap: 55,
        },
    );
}

#[test]
fn direct_grid_is_pinned() {
    let mut cfg = churned_grid();
    cfg.relay.direct = true;
    let r = run_relay_ocean(&cfg, &Pool::new(1));
    assert_pinned(
        &r,
        &RelayOceanResult {
            nodes: 49,
            duration_s: 1800.0,
            transmissions: 2971,
            receptions: 149,
            frames_delivered: 0,
            churn_losses: 73,
            downtime_frac: 0.44080090702947844,
            msgs_offered: 4,
            msgs_delivered: 0,
            delivery_ratio: 0.0,
            payload_mismatches: 0,
            latency_mean_s: 0.0,
            latency_p50_s: 0.0,
            latency_p90_s: 0.0,
            relay: RelayStats {
                sourced: 12,
                beacons: 0,
                forwards: 149,
                custody_accepted: 0,
                custody_transfers: 0,
                custody_retries: 137,
                dup_suppressed: 0,
                dup_acks: 0,
                cured_acks: 0,
                stale_acks: 0,
                evictions_ttl: 0,
                evictions_cap: 0,
                queue_rejects: 0,
                hop_drops: 0,
                delivered_msgs: 0,
            },
            reboots: 0,
            dup_deliveries: 0,
            journal_bytes: 0,
            journal_syncs: 0,
            journal_compactions: 0,
            journal_replayed: 0,
            events: 10276,
            peak_heap: 51,
        },
    );
}

fn k(src: u16, seq: u16, frag: u16) -> BundleKey {
    BundleKey { src, seq, frag }
}

/// A 5-node line 30 m apart with crossing 4-hop and 2-hop flows, crash
/// churn and durable journals, stopped at 20 min so custody is still
/// spread over the line and the destination holds partial messages.
#[test]
fn audited_crashing_line_is_pinned() {
    let positions = (0..5)
        .map(|i| Pos::new(i as f64 * 30.0, 0.0, 2.0))
        .collect();
    let mut cfg = RelayOceanConfig::deployment(RelayTopology::Explicit(positions), 5, 1200.0, 11);
    cfg.mac.initial_delay_s = (0.0, 4.0);
    cfg.mac.inter_packet_gap_s = (8.0, 24.0);
    cfg.relay.queue_cap = 128;
    cfg.relay.min_rto_s = 20.0;
    cfg.relay.max_rto_s = 80.0;
    cfg.relay.focus_after_s = 60.0;
    cfg.relay.max_hops = 128;
    cfg.traffic.pairs = vec![(0, 4), (3, 1)];
    cfg.traffic.messages_per_pair = 3;
    cfg.traffic.payload_bytes = 96;
    cfg.traffic.ttl_s = 5400;
    cfg.crash = ChurnConfig {
        mtbf_s: 300.0,
        mttr_s: 90.0,
        ..ChurnConfig::none()
    };
    cfg.journal = Some(JournalConfig::default());
    let (r, audit) = run_relay_ocean_audit(&cfg, &Pool::new(2)).expect("valid config");
    assert_pinned(
        &r,
        &RelayOceanResult {
            nodes: 5,
            duration_s: 1200.0,
            transmissions: 300,
            receptions: 300,
            frames_delivered: 164,
            churn_losses: 72,
            downtime_frac: 0.20610666666666666,
            msgs_offered: 6,
            msgs_delivered: 3,
            delivery_ratio: 0.5,
            payload_mismatches: 0,
            latency_mean_s: 695.0233333333332,
            latency_p50_s: 680.0899999999999,
            latency_p90_s: 751.322,
            relay: RelayStats {
                sourced: 18,
                beacons: 108,
                forwards: 121,
                custody_accepted: 36,
                custody_transfers: 49,
                custody_retries: 50,
                dup_suppressed: 24,
                dup_acks: 22,
                cured_acks: 1,
                stale_acks: 0,
                evictions_ttl: 0,
                evictions_cap: 0,
                queue_rejects: 0,
                hop_drops: 0,
                delivered_msgs: 3,
            },
            reboots: 13,
            dup_deliveries: 0,
            journal_bytes: 5283,
            journal_syncs: 66,
            journal_compactions: 0,
            journal_replayed: 207,
            events: 913,
            peak_heap: 8,
        },
    );
    assert_eq!(audit.deliveries, vec![(3, 2), (3, 1), (3, 0)]);
    assert_eq!(
        audit.reboots,
        vec![
            (0, 9, 11),
            (0, 11, 14),
            (1, 0, 0),
            (1, 29, 29),
            (2, 7, 7),
            (2, 40, 40),
            (3, 9, 19),
            (3, 23, 23),
            (3, 23, 24),
            (4, 8, 8),
            (4, 9, 9),
            (4, 11, 11),
            (4, 12, 12),
        ]
    );
    let held = BTreeMap::from([
        (k(0, 0, 0), vec![1, 2, 3]),
        (k(0, 0, 1), vec![0, 1, 2]),
        (k(0, 0, 2), vec![0, 1, 2, 3]),
        (k(0, 1, 0), vec![0, 1, 2]),
        (k(0, 1, 1), vec![0, 1]),
        (k(0, 1, 2), vec![0, 1, 2]),
        (k(0, 2, 0), vec![0, 1]),
        (k(0, 2, 1), vec![0, 1, 2]),
        (k(0, 2, 2), vec![0, 1]),
        (k(3, 0, 0), vec![3, 4]),
        (k(3, 0, 1), vec![3, 4]),
        (k(3, 0, 2), vec![4]),
        (k(3, 1, 0), vec![3, 4]),
        (k(3, 1, 1), vec![3, 4]),
        (k(3, 1, 2), vec![3, 4]),
        (k(3, 2, 0), vec![3, 4]),
        (k(3, 2, 1), vec![3, 4]),
        (k(3, 2, 2), vec![3, 4]),
    ]);
    assert_eq!(audit.held, held);
    assert_eq!(
        audit.dest_frags,
        BTreeMap::from([(4, BTreeSet::from([k(0, 0, 0), k(0, 0, 2)]))])
    );
    assert_eq!(
        audit.delivered,
        BTreeMap::from([(1, BTreeSet::from([(3, 0), (3, 1), (3, 2)]))])
    );
}
