//! `try_run_relay_ocean` turns configuration problems into typed
//! `SimConfigError`s instead of panicking: scripted outages that are
//! reversed, overlapping or past the horizon, and a source offering more
//! messages than its `u16` sequence numbers can tell apart.

use aqua_channel::geometry::Pos;
use aqua_net::sim::{try_run_relay_ocean, RelayOceanConfig, RelayTopology, SimConfigError};
use aqua_par::Pool;

/// Two nodes 30 m apart for one simulated minute (1200 slots).
fn pair() -> RelayOceanConfig {
    let positions = vec![Pos::new(0.0, 0.0, 2.0), Pos::new(30.0, 0.0, 2.0)];
    RelayOceanConfig::deployment(RelayTopology::Explicit(positions), 2, 60.0, 3)
}

#[test]
fn bad_scripted_outages_are_typed_errors() {
    let horizon = (60.0 / pair().mac.slot_s).ceil() as u64;
    for (node, start, end) in [(0, 10, 5), (1, 40, horizon + 1), (1, 30, 30)] {
        let mut down = vec![Vec::new(), Vec::new()];
        down[node] = vec![(start, end)];
        let mut sleep = pair();
        sleep.churn_intervals = Some(down.clone());
        let mut crash = pair();
        crash.crash_intervals = Some(down);
        for cfg in [sleep, crash] {
            let err = try_run_relay_ocean(&cfg, &Pool::new(1)).unwrap_err();
            assert_eq!(err, SimConfigError::BadInterval { node, start, end });
        }
    }
    // Overlapping and touching outages are rejected at the second one.
    for second in [(15, 30), (20, 30)] {
        let mut cfg = pair();
        cfg.churn_intervals = Some(vec![vec![(10, 20), second], Vec::new()]);
        let err = try_run_relay_ocean(&cfg, &Pool::new(1)).unwrap_err();
        let (start, end) = second;
        assert_eq!(
            err,
            SimConfigError::BadInterval {
                node: 0,
                start,
                end
            }
        );
    }
}

#[test]
fn a_source_past_its_sequence_space_is_a_typed_error() {
    let mut cfg = pair();
    cfg.traffic.payload_bytes = 8;
    cfg.traffic.pairs = vec![(0, 1)];
    cfg.traffic.messages_per_pair = 65_537;
    let err = try_run_relay_ocean(&cfg, &Pool::new(1)).unwrap_err();
    assert_eq!(
        err,
        SimConfigError::SeqSpace {
            src: 0,
            messages: 65_537
        }
    );
    // Counted per source across flows.
    cfg.traffic.pairs = vec![(1, 0), (0, 1), (0, 1)];
    cfg.traffic.messages_per_pair = 32_769;
    let err = try_run_relay_ocean(&cfg, &Pool::new(1)).unwrap_err();
    assert_eq!(
        err,
        SimConfigError::SeqSpace {
            src: 0,
            messages: 65_538
        }
    );
}

#[test]
fn a_source_may_use_every_sequence_number() {
    let mut cfg = pair();
    cfg.traffic.payload_bytes = 8;
    cfg.traffic.pairs = vec![(0, 1)];
    cfg.traffic.messages_per_pair = 65_536;
    let r = try_run_relay_ocean(&cfg, &Pool::new(1)).expect("65 536 messages fit u16 seqs");
    assert_eq!(r.msgs_offered, 65_536);
}
