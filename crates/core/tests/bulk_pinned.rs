//! Pinned bulk-transfer outcomes (DESIGN.md §12–§13): five runs over the
//! 15 m Lake link covering both engines and every way a transfer ends —
//! static RS clean, static no-FEC under a loss hook (round budget),
//! adaptive clean, adaptive through a mid-transfer blackout (suspend,
//! probe, resume) and adaptive under a permanent blackout (probe budget
//! spent). Every `BulkOutcome` field is compared against a capture, floats
//! by bit pattern, so any change to the round loop's seeds, session clock,
//! accounting or policy fails here.

use aqua_channel::environments::{Environment, Site};
use aqua_channel::fault::FaultSchedule;
use aqua_channel::geometry::Pos;
use aqua_proto::transfer::TransferParams;
use aquapp::bulk::{
    run_adaptive_transfer, run_bulk_transfer, run_bulk_transfer_with_faults, BulkConfig, BulkReason,
};
use aquapp::trial::TrialConfig;

/// Deterministic pseudo-random payload (splitmix-style byte stream).
fn payload_bytes(len: usize, mut state: u64) -> Vec<u8> {
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

fn lake_cfg(params: TransferParams, max_rounds: usize, seed: u64) -> BulkConfig {
    BulkConfig {
        base: TrialConfig::standard(
            Environment::preset(Site::Lake),
            Pos::new(0.0, 0.0, 1.0),
            Pos::new(15.0, 0.0, 1.0),
            seed,
        ),
        params,
        window: 12,
        max_rounds,
        faults: None,
    }
}

#[test]
fn static_rs_clean() {
    let payload = payload_bytes(480, 0x5EED);
    let cfg = lake_cfg(TransferParams::default_rs(), 16, 301);
    let out = run_bulk_transfer(&cfg, &payload).expect("valid config");
    assert_eq!(out.delivered.as_deref(), Some(&payload[..]));
    assert_eq!(out.reason, BulkReason::Completed);
    assert_eq!(out.rounds, 2);
    assert_eq!(out.packets_sent, 20);
    assert_eq!(out.packets_delivered, 20);
    assert_eq!(out.erasures, 0);
    assert_eq!(out.duplicates, 0);
    assert_eq!(out.acks_lost, 0);
    assert_eq!(out.suspensions, 0);
    assert_eq!(out.probes, 0);
    assert_eq!(out.suspended_s.to_bits(), 0.0f64.to_bits());
    assert_eq!(out.airtime_s.to_bits(), 17.2570625f64.to_bits());
    assert_eq!(out.goodput_bps.to_bits(), 222.51759243498134f64.to_bits());
}

#[test]
fn static_no_fec_under_loss_hook_spends_round_budget() {
    let payload = payload_bytes(480, 0x5EED);
    let cfg = lake_cfg(TransferParams::default_rs().without_fec(), 6, 302);
    let out =
        run_bulk_transfer_with_faults(&cfg, &payload, |_, seq| seq % 8 == 5).expect("valid config");
    assert_eq!(out.delivered, None);
    assert_eq!(out.reason, BulkReason::RoundBudget);
    assert_eq!(out.rounds, 6);
    assert_eq!(out.packets_sent, 25);
    assert_eq!(out.packets_delivered, 14);
    assert_eq!(out.erasures, 11);
    assert_eq!(out.duplicates, 0);
    assert_eq!(out.acks_lost, 0);
    assert_eq!(out.suspensions, 0);
    assert_eq!(out.probes, 0);
    assert_eq!(out.suspended_s.to_bits(), 0.0f64.to_bits());
    assert_eq!(out.airtime_s.to_bits(), 25.460020833333335f64.to_bits());
    assert_eq!(out.goodput_bps.to_bits(), 0.0f64.to_bits());
}

#[test]
fn adaptive_clean() {
    let payload = payload_bytes(480, 0x5EED);
    let cfg = lake_cfg(TransferParams::default_rs(), 16, 303);
    let out = run_adaptive_transfer(&cfg, &payload).expect("valid config");
    assert_eq!(out.delivered.as_deref(), Some(&payload[..]));
    assert_eq!(out.reason, BulkReason::Completed);
    assert_eq!(out.rounds, 2);
    assert_eq!(out.packets_sent, 16);
    assert_eq!(out.packets_delivered, 16);
    assert_eq!(out.erasures, 0);
    assert_eq!(out.duplicates, 0);
    assert_eq!(out.acks_lost, 0);
    assert_eq!(out.suspensions, 0);
    assert_eq!(out.probes, 0);
    assert_eq!(out.suspended_s.to_bits(), 0.0f64.to_bits());
    assert_eq!(out.airtime_s.to_bits(), 15.504479166666664f64.to_bits());
    assert_eq!(out.goodput_bps.to_bits(), 247.67036407489775f64.to_bits());
}

#[test]
fn adaptive_resumes_after_a_mid_transfer_blackout() {
    let payload = payload_bytes(512, 0xA11CE);
    let mut cfg = lake_cfg(TransferParams::default_rs(), 16, 304);
    cfg.faults = Some(
        FaultSchedule::seeded(0xFA17)
            .with_burst_train(0.0, 120.0, 0.1, 0.7)
            .with_blackout(6.0, 20.0),
    );
    let out = run_adaptive_transfer(&cfg, &payload).expect("valid config");
    assert_eq!(out.delivered.as_deref(), Some(&payload[..]));
    assert_eq!(out.reason, BulkReason::Completed);
    assert_eq!(out.rounds, 5);
    assert_eq!(out.packets_sent, 42);
    assert_eq!(out.packets_delivered, 22);
    assert_eq!(out.erasures, 20);
    assert_eq!(out.duplicates, 0);
    assert_eq!(out.acks_lost, 7);
    assert_eq!(out.suspensions, 1);
    assert_eq!(out.probes, 2);
    assert_eq!(out.suspended_s.to_bits(), 24.0f64.to_bits());
    assert_eq!(out.airtime_s.to_bits(), 26.232999999999997f64.to_bits());
    assert_eq!(out.goodput_bps.to_bits(), 156.13921396714065f64.to_bits());
}

#[test]
fn adaptive_permanent_blackout_spends_probe_budget() {
    let payload = payload_bytes(256, 0xBEEF);
    let mut cfg = lake_cfg(TransferParams::default_rs(), 16, 305);
    cfg.faults = Some(FaultSchedule::seeded(1).with_blackout(3.0, 1e7));
    let out = run_adaptive_transfer(&cfg, &payload).expect("valid config");
    assert_eq!(out.delivered, None);
    assert_eq!(out.reason, BulkReason::Blackout);
    assert_eq!(out.rounds, 3);
    assert_eq!(out.packets_sent, 44);
    assert_eq!(out.packets_delivered, 4);
    assert_eq!(out.erasures, 40);
    assert_eq!(out.duplicates, 0);
    assert_eq!(out.acks_lost, 30);
    assert_eq!(out.suspensions, 1);
    assert_eq!(out.probes, 24);
    assert_eq!(out.suspended_s.to_bits(), 376.0f64.to_bits());
    assert_eq!(out.airtime_s.to_bits(), 15.983458333333335f64.to_bits());
    assert_eq!(out.goodput_bps.to_bits(), 0.0f64.to_bits());
}
