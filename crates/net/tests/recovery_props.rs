//! Property tests for reboot recovery (`RelayNode::crash_reboot`):
//! driving a journaled relay through random custody op sequences and
//! crashing it must reconstruct the durable state exactly — queue keys
//! and copy budgets, reassembly buffers, and the delivered-set — and do
//! so deterministically and idempotently.

use aqua_net::bundle::fragment_message;
use aqua_net::{
    source_message, Beacon, BundleKey, CustodyAck, Frame, JournalConfig, Priority, RelayConfig,
    RelayNode,
};
use proptest::prelude::*;

fn cfg() -> RelayConfig {
    RelayConfig {
        min_rto_s: 10.0,
        max_rto_s: 40.0,
        queue_cap: 32,
        ..RelayConfig::default()
    }
}

/// Queue keys with copy budgets, pending fragment keys and delivered
/// message ids.
type DurableState = (Vec<(BundleKey, u8)>, Vec<BundleKey>, Vec<(u16, u16)>);

/// The durable fraction of a relay's state: everything recovery
/// promises to reconstruct. Volatile state (retry timers, neighbor
/// tables, spray exclusions) is deliberately absent.
fn durable_state(n: &RelayNode) -> DurableState {
    let mut queue = n.queue_snapshot();
    queue.sort();
    let mut frags = n.pending_frag_keys();
    frags.sort();
    (queue, frags, n.delivered_message_ids())
}

/// Drives one fuzz-derived custody operation into the relay. Each u64
/// of entropy expands to one of: source a message, accept a relayed
/// bundle, receive a fragment addressed here, or take a custody ACK
/// (mostly stale, sometimes genuine).
fn apply_op(node: &mut RelayNode, entropy: u64, step: usize) {
    let now_s = step as f64 * 5.0;
    let op = entropy % 4;
    let seq = ((entropy >> 8) & 0x3F) as u16;
    let peer = 1 + ((entropy >> 16) & 0x3) as u16; // 1..=4, never self (0)
    let pay_len = 1 + ((entropy >> 24) & 0x1F) as usize;
    let payload: Vec<u8> = (0..pay_len)
        .map(|i| (entropy.rotate_left(i as u32 * 5) & 0xFF) as u8)
        .collect();
    match op {
        0 => {
            // Unique per step: the application contract (and the sim's
            // traffic planner) never reuses a source sequence number.
            let app_seq = 1000 + step as u16;
            source_message(node, 9, app_seq, Priority::Chat, 600, &payload, 16, now_s)
                .expect("valid payload");
        }
        1 => {
            // A custody bundle relayed through us (dst 9, not our addr).
            let b = fragment_message(peer, 9, seq, Priority::Chat, true, 600, 4, &payload, 16)
                .expect("valid geometry")
                .remove(0);
            node.on_frame(peer, Frame::Bundle(b), now_s);
        }
        2 => {
            // A fragment addressed to this node: reassembly + delivery.
            let frags = fragment_message(peer, 0, seq, Priority::Chat, true, 600, 4, &payload, 16)
                .expect("valid geometry");
            let pick = ((entropy >> 32) as usize) % frags.len();
            node.on_frame(peer, Frame::Bundle(frags[pick].clone()), now_s);
        }
        _ => {
            // A custody ACK — genuine if we happen to hold (0, seq, 0)
            // and sprayed it to `peer`, stale otherwise; both paths
            // journal consistently.
            node.on_frame(
                peer,
                Frame::CustodyAck(CustodyAck {
                    custodian: peer,
                    src: 0,
                    seq,
                    frag_index: 0,
                    delivered: entropy & (1 << 40) != 0,
                }),
                now_s,
            );
        }
    }
    // Occasionally drain a frame so spray state and ACK emission (with
    // its sync-before-ACK journal discipline) get exercised too.
    if entropy & (1 << 48) != 0 {
        node.on_frame(
            peer,
            Frame::Beacon(Beacon {
                node: peer,
                seq: 0,
                backlog: 0,
            }),
            now_s,
        );
        node.next_frame(now_s + 1.0, &[peer]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With per-record sync granularity nothing is ever staged, so a
    /// crash at any torn point loses nothing: the recovered queue
    /// (keys and copy budgets), reassembly buffers and delivered-set
    /// equal the live state at the instant of the crash.
    #[test]
    fn fully_synced_crash_recovers_live_state_exactly(
        entropy in proptest::collection::vec(any::<u64>(), 1..40),
        torn_seed in any::<u64>(),
    ) {
        let jcfg = JournalConfig { sync_every_bytes: 1, ..JournalConfig::default() };
        let mut node = RelayNode::with_journal(0, cfg(), 7, jcfg);
        for (i, e) in entropy.iter().enumerate() {
            apply_op(&mut node, *e, i);
        }
        let before = durable_state(&node);
        let crash_now = entropy.len() as f64 * 5.0;
        node.crash_reboot(crash_now, torn_seed);
        prop_assert_eq!(durable_state(&node), before, "fully-synced recovery must be exact");
        let reboot = node.reboot_log().last().copied().expect("one reboot logged");
        prop_assert_eq!(reboot.replayed, reboot.durable, "nothing staged, nothing torn");
    }

    /// Crash recovery is deterministic: two relays fed the same ops and
    /// crashed with the same torn seed are indistinguishable afterwards,
    /// whatever the sync granularity.
    #[test]
    fn crash_recovery_is_deterministic(
        entropy in proptest::collection::vec(any::<u64>(), 1..40),
        torn_seed in any::<u64>(),
        sync_pick in 0u8..3,
    ) {
        let jcfg = JournalConfig {
            sync_every_bytes: [64usize, 256, 1024][sync_pick as usize],
            ..JournalConfig::default()
        };
        let mut a = RelayNode::with_journal(0, cfg(), 7, jcfg);
        let mut b = RelayNode::with_journal(0, cfg(), 7, jcfg);
        for (i, e) in entropy.iter().enumerate() {
            apply_op(&mut a, *e, i);
            apply_op(&mut b, *e, i);
        }
        let crash_now = entropy.len() as f64 * 5.0;
        a.crash_reboot(crash_now, torn_seed);
        b.crash_reboot(crash_now, torn_seed);
        prop_assert_eq!(durable_state(&a), durable_state(&b));
        prop_assert_eq!(a.reboot_log(), b.reboot_log());
    }

    /// Crashing twice at the same instant is idempotent: the first
    /// recovery seals the log to exactly the recovered chain, so a
    /// second crash (any torn seed — nothing is staged) replays to the
    /// identical state and loses nothing.
    #[test]
    fn second_crash_is_idempotent(
        entropy in proptest::collection::vec(any::<u64>(), 1..40),
        torn_a in any::<u64>(),
        torn_b in any::<u64>(),
    ) {
        let mut node = RelayNode::with_journal(0, cfg(), 7, JournalConfig::default());
        for (i, e) in entropy.iter().enumerate() {
            apply_op(&mut node, *e, i);
        }
        let crash_now = entropy.len() as f64 * 5.0;
        node.crash_reboot(crash_now, torn_a);
        let after_first = durable_state(&node);
        let replayed_first = node.reboot_log().last().expect("first reboot").replayed;
        node.crash_reboot(crash_now, torn_b);
        prop_assert_eq!(durable_state(&node), after_first, "second crash must change nothing");
        let second = node.reboot_log().last().expect("second reboot");
        prop_assert_eq!(second.durable, replayed_first, "first recovery sealed the log");
        prop_assert_eq!(second.replayed, second.durable);
    }

    /// A torn crash at arbitrary sync granularity never invents state:
    /// every recovered queue key and delivered id was present (or had
    /// been held) before the crash, and the journal-bounded-loss ledger
    /// holds (`replayed >= durable`).
    #[test]
    fn torn_crash_never_invents_state(
        entropy in proptest::collection::vec(any::<u64>(), 1..40),
        torn_seed in any::<u64>(),
    ) {
        let jcfg = JournalConfig { sync_every_bytes: 256, ..JournalConfig::default() };
        let mut node = RelayNode::with_journal(0, cfg(), 7, jcfg);
        for (i, e) in entropy.iter().enumerate() {
            apply_op(&mut node, *e, i);
        }
        let (queue_before, frags_before, delivered_before) = durable_state(&node);
        let held_before: std::collections::BTreeSet<BundleKey> =
            queue_before.iter().map(|(k, _)| *k).collect();
        let crash_now = entropy.len() as f64 * 5.0;
        node.crash_reboot(crash_now, torn_seed);
        let (queue_after, frags_after, delivered_after) = durable_state(&node);
        for (k, _) in &queue_after {
            prop_assert!(held_before.contains(k), "recovered phantom custody {:?}", k);
        }
        for k in &frags_after {
            prop_assert!(frags_before.contains(k), "recovered phantom fragment {:?}", k);
        }
        for id in &delivered_after {
            prop_assert!(delivered_before.contains(id), "recovered phantom delivery {:?}", id);
        }
        let reboot = node.reboot_log().last().expect("reboot logged");
        prop_assert!(reboot.replayed >= reboot.durable, "synced records lost");
    }
}
