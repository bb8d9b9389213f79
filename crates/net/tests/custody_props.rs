//! Property tests for the custody-transfer state machine: duplicate
//! bundles never re-enter custody or re-deliver, ACKs only move copies
//! when they match the awaited hop, and the binary-spray arithmetic
//! conserves the global copy budget across a handoff.

use aqua_net::bundle::fragment_message;
use aqua_net::{
    source_message, Beacon, CustodyAck, Delivered, Frame, Priority, RelayConfig, RelayNode,
};
use proptest::prelude::*;

fn cfg() -> RelayConfig {
    RelayConfig {
        min_rto_s: 10.0,
        max_rto_s: 40.0,
        ..RelayConfig::default()
    }
}

/// Beacons `neighbor` into `node`'s fresh-neighbor table.
fn hear(node: &mut RelayNode, neighbor: u16, now_s: f64) {
    node.on_frame(
        neighbor,
        Frame::Beacon(Beacon {
            node: neighbor,
            seq: 0,
            backlog: 0,
        }),
        now_s,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A relay receiving the same custody bundle N times accepts custody
    /// exactly once; every repeat is suppressed as a duplicate but still
    /// re-ACKed (lost-ACK recovery) while the bundle is held.
    #[test]
    fn repeats_accept_custody_once_and_reack(
        payload in proptest::collection::vec(any::<u8>(), 1..48),
        copies in 1u8..=32,
        repeats in 2usize..8,
    ) {
        let mut relay = RelayNode::new(5, cfg(), 7);
        let b = fragment_message(0, 9, 0, Priority::Chat, true, 600, copies, &payload, 48)
            .expect("valid geometry")
            .remove(0);
        for i in 0..repeats {
            let got = relay.on_frame(0, Frame::Bundle(b.clone()), i as f64);
            prop_assert!(got.is_empty(), "a relay never delivers locally");
        }
        let s = relay.stats();
        prop_assert_eq!(s.custody_accepted, 1);
        prop_assert_eq!(s.dup_suppressed, (repeats - 1) as u64);
        prop_assert_eq!(s.dup_acks, (repeats - 1) as u64);
        prop_assert_eq!(relay.queue_len(), 1, "one stored bundle, not {}", repeats);
        // Every reception was answered: 1 acceptance ACK + repeats-1 re-ACKs.
        let mut acks = 0;
        while let Some((hop, f)) = relay.next_frame(100.0, &[0]) {
            let Frame::CustodyAck(a) = f else { break };
            prop_assert_eq!(hop, 0u16);
            prop_assert_eq!(a.custodian, 5u16);
            prop_assert!(!a.delivered);
            acks += 1;
        }
        prop_assert_eq!(acks, repeats);
    }

    /// The destination hands a completed message to the application
    /// exactly once no matter how many times its fragments arrive, and
    /// ACKs every arrival (the previous ACK may have drowned).
    #[test]
    fn redelivery_hands_up_exactly_once(
        payload in proptest::collection::vec(any::<u8>(), 1..32),
        repeats in 1usize..6,
    ) {
        let mut dst = RelayNode::new(9, cfg(), 3);
        let b = fragment_message(0, 9, 0, Priority::Chat, true, 600, 4, &payload, 32)
            .expect("single fragment")
            .remove(0);
        let mut handed: Vec<Delivered> = Vec::new();
        for i in 0..repeats {
            handed.extend(dst.on_frame(0, Frame::Bundle(b.clone()), i as f64));
        }
        prop_assert_eq!(handed.len(), 1, "delivered {} times", handed.len());
        prop_assert_eq!(&handed[0].payload, &payload);
        prop_assert_eq!(dst.stats().delivered_msgs, 1);
        let mut acks = 0;
        while let Some((_, Frame::CustodyAck(a))) = dst.next_frame(100.0, &[0]) {
            prop_assert!(a.delivered, "destination ACKs are delivered-ACKs");
            acks += 1;
        }
        prop_assert_eq!(acks, repeats, "every arrival is ACKed idempotently");
    }

    /// ACKs from a node other than the awaited hop, or for a bundle not
    /// held, are counted stale and change nothing: custody stays armed
    /// and the copy budget is untouched.
    #[test]
    fn mismatched_and_unknown_acks_are_ignored(
        wrong_custodian in 2u16..u16::MAX,
        unknown_seq in 1u16..u16::MAX,
    ) {
        let mut a = RelayNode::new(0, cfg(), 1);
        hear(&mut a, 1, 0.0);
        source_message(&mut a, 9, 0, Priority::Chat, 600, &[7; 4], 4, 0.0).expect("valid payload");
        let (dest, f) = a.next_frame(1.0, &[1]).expect("sprays to the relay");
        prop_assert_eq!(dest, 1u16);
        prop_assert!(matches!(f, Frame::Bundle(_)));

        // Wrong custodian for the right bundle (1 is awaited).
        let wrong = CustodyAck {
            custodian: wrong_custodian,
            src: 0,
            seq: 0,
            frag_index: 0,
            delivered: false,
        };
        a.on_frame(wrong_custodian, Frame::CustodyAck(wrong), 2.0);
        prop_assert_eq!(a.stats().stale_acks, 1);
        prop_assert_eq!(a.stats().custody_transfers, 0);
        prop_assert_eq!(a.queue_len(), 1, "custody not released");

        // Right custodian for a bundle never sourced here.
        let unknown = CustodyAck {
            custodian: 1,
            src: 0,
            seq: unknown_seq,
            frag_index: 0,
            delivered: false,
        };
        a.on_frame(1, Frame::CustodyAck(unknown), 3.0);
        prop_assert_eq!(a.stats().stale_acks, 2);
        prop_assert_eq!(a.queue_len(), 1);

        // The genuine ACK still lands afterwards.
        let real = CustodyAck {
            custodian: 1,
            src: 0,
            seq: 0,
            frag_index: 0,
            delivered: false,
        };
        a.on_frame(1, Frame::CustodyAck(real), 4.0);
        prop_assert_eq!(a.stats().custody_transfers, 1);
    }

    /// Binary spray conserves copies: after a handoff the sender's kept
    /// budget plus the receiver's granted budget equals the original,
    /// and a retry walking into the live custodian absorbs (never
    /// annihilates) the re-granted copies.
    #[test]
    fn spray_handoff_conserves_the_copy_budget(
        copies in 2u8..=64,
        payload in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let mut a = RelayNode::new(
            0,
            RelayConfig { spray_copies: copies, ..cfg() },
            1,
        );
        let mut r = RelayNode::new(1, cfg(), 2);
        hear(&mut a, 1, 0.0);
        source_message(&mut a, 9, 0, Priority::Chat, 600, &payload, 16, 0.0).expect("valid payload");
        let (dest, f) = a.next_frame(1.0, &[1]).expect("sprays");
        prop_assert_eq!(dest, 1u16);
        let Frame::Bundle(wire) = f.clone() else { panic!("expected bundle") };
        let granted = wire.copies;
        prop_assert_eq!(granted, copies.div_ceil(2));

        r.on_frame(0, f.clone(), 2.0);
        let (_, ack) = r.next_frame(3.0, &[0]).expect("custody ACK");
        a.on_frame(1, ack, 4.0);
        // Sender kept floor(c/2); together with the grant that's c.
        prop_assert_eq!(granted + (copies - granted), copies);
        if copies - granted == 0 {
            prop_assert_eq!(a.queue_len(), 0, "nothing kept releases custody");
        } else {
            prop_assert_eq!(a.queue_len(), 1);
        }

        // A duplicate of the same transmission reaching the still-holding
        // custodian is absorbed and re-ACKed, not silently dropped.
        r.on_frame(0, f, 5.0);
        prop_assert_eq!(r.stats().dup_suppressed, 1);
        prop_assert_eq!(r.stats().dup_acks, 1);
        prop_assert_eq!(r.queue_len(), 1);
    }
}
